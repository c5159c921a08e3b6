//! # zr-plan — the multi-stage build planner
//!
//! Compiles a parsed [`Dockerfile`] into a stage DAG: nodes are stages
//! (each FROM and the instructions under it), edges are `FROM <alias>`
//! bases and `COPY --from=` references (by alias or by 0-based index).
//! The compiler resolves the build target, prunes every stage the
//! target does not (transitively) depend on, and orders the survivors
//! for execution.
//!
//! The parser already guarantees references point strictly *backward*
//! (self and forward `--from=` are parse errors), so a plan compiled
//! from a parsed file is acyclic by construction; the compiler still
//! verifies it defensively, because a [`Dockerfile`] can also be built
//! by hand.
//!
//! ```
//! use zr_plan::BuildPlan;
//!
//! let df = zr_dockerfile::parse(
//!     "FROM alpine:3.19 AS base\n\
//!      FROM base AS left\nRUN touch /l\n\
//!      FROM base AS right\nRUN touch /r\n\
//!      FROM scratch\nCOPY --from=left /l /l\nCOPY --from=right /r /r\n",
//! )
//! .unwrap();
//! let plan = BuildPlan::compile(&df, None).unwrap();
//! assert_eq!(plan.order(), &[0, 1, 2, 3], "diamond: all stages retained");
//! let left = BuildPlan::compile(&df, Some("left")).unwrap();
//! assert_eq!(left.order(), &[0, 1], "targeting 'left' prunes the rest");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;

use zr_dockerfile::{Dockerfile, Instruction};

/// What a stage's FROM resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseRef {
    /// An external image reference, pulled from a registry.
    Image(String),
    /// An earlier stage of the same plan, consumed in place.
    Stage(usize),
}

/// One node of the stage DAG.
#[derive(Debug, Clone)]
pub struct StageNode {
    /// 0-based stage index (declaration order; also what `--from=N`
    /// names).
    pub index: usize,
    /// Source line of the stage's FROM.
    pub line: u32,
    /// The stage alias (lowercased), if any.
    pub alias: Option<String>,
    /// What the stage builds on.
    pub base: BaseRef,
    /// The stage's instructions, starting with its FROM.
    pub instructions: Vec<(u32, Instruction)>,
    /// Stage indices this stage consumes (its base stage and every
    /// `COPY --from=` source), deduplicated and ordered.
    pub deps: BTreeSet<usize>,
}

/// Why a plan could not be compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The Dockerfile has no FROM (nothing to plan).
    NoStages,
    /// `--target` names no stage (by alias or index).
    UnknownTarget(String),
    /// A `--from=` reference resolves to no earlier stage (only
    /// reachable with a hand-built AST; the parser rejects these).
    UnknownStage {
        /// Source line of the reference.
        line: u32,
        /// The reference text.
        name: String,
    },
    /// A stage depends on itself or a later stage (only reachable with
    /// a hand-built AST).
    Cycle {
        /// The offending stage index.
        stage: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoStages => write!(f, "no build stages (missing FROM)"),
            PlanError::UnknownTarget(t) => write!(f, "unknown build target '{t}'"),
            PlanError::UnknownStage { line, name } => {
                write!(f, "line {line}: --from={name}: unknown stage")
            }
            PlanError::Cycle { stage } => {
                write!(f, "stage {stage} participates in a dependency cycle")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A compiled build plan: the stage DAG, the target, and the execution
/// order of retained stages.
#[derive(Debug, Clone)]
pub struct BuildPlan {
    header: Vec<(u32, Instruction)>,
    stages: Vec<StageNode>,
    target: usize,
    order: Vec<usize>,
    pruned: Vec<usize>,
}

impl BuildPlan {
    /// Compile `df` into a plan for `target` (`None` = the last stage;
    /// `Some` matches a stage alias, case-insensitively, or a 0-based
    /// index).
    pub fn compile(df: &Dockerfile, target: Option<&str>) -> Result<BuildPlan, PlanError> {
        let views = df.stages();
        if views.is_empty() {
            return Err(PlanError::NoStages);
        }
        let mut stages: Vec<StageNode> = Vec::with_capacity(views.len());
        for view in &views {
            let mut deps = BTreeSet::new();
            // `FROM <alias>`: earlier aliases win over registry names.
            let base = match resolve_ref(view.image, &views[..view.index]) {
                Some(i) => {
                    deps.insert(i);
                    BaseRef::Stage(i)
                }
                None => BaseRef::Image(view.image.to_string()),
            };
            for (line, insn) in view.instructions {
                let spec = match insn {
                    Instruction::Copy(spec) | Instruction::Add(spec) => spec,
                    _ => continue,
                };
                if let Some(from) = &spec.from {
                    match resolve_ref(from, &views[..view.index]) {
                        Some(i) => {
                            deps.insert(i);
                        }
                        None => {
                            return Err(PlanError::UnknownStage {
                                line: *line,
                                name: from.clone(),
                            })
                        }
                    }
                }
            }
            // Backward-only references make the declaration order a
            // topological order; anything else is a cycle.
            if deps.iter().any(|&d| d >= view.index) {
                return Err(PlanError::Cycle { stage: view.index });
            }
            stages.push(StageNode {
                index: view.index,
                line: view.line,
                alias: view.alias.map(str::to_string),
                base,
                instructions: view.instructions.to_vec(),
                deps,
            });
        }

        let target = match target {
            None => stages.len() - 1,
            Some(t) => {
                let name = t.to_ascii_lowercase();
                stages
                    .iter()
                    .position(|s| s.alias.as_deref() == Some(name.as_str()))
                    .or_else(|| name.parse::<usize>().ok().filter(|&i| i < stages.len()))
                    .ok_or_else(|| PlanError::UnknownTarget(t.to_string()))?
            }
        };

        // Prune: keep exactly what the target transitively consumes.
        let mut retained = BTreeSet::new();
        let mut work = vec![target];
        while let Some(i) = work.pop() {
            if retained.insert(i) {
                work.extend(stages[i].deps.iter().copied());
            }
        }
        let order: Vec<usize> = retained.iter().copied().collect();
        let pruned: Vec<usize> = (0..stages.len())
            .filter(|i| !retained.contains(i))
            .collect();

        Ok(BuildPlan {
            header: df.header().to_vec(),
            stages,
            target,
            order,
            pruned,
        })
    }

    /// Every stage, retained or not, in declaration order.
    pub fn stages(&self) -> &[StageNode] {
        &self.stages
    }

    /// The global ARG instructions before the first FROM.
    pub fn header(&self) -> &[(u32, Instruction)] {
        &self.header
    }

    /// The target stage index.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Retained stages in execution order (dependencies first).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Stages the target does not consume — never executed.
    pub fn pruned(&self) -> &[usize] {
        &self.pruned
    }

    /// Is there exactly one retained stage (the single-stage fast
    /// path)?
    pub fn is_single_stage(&self) -> bool {
        self.order.len() == 1
    }

    /// The instruction list stage `index` executes: the global header
    /// ARGs followed by the stage's own instructions.
    pub fn stage_instructions(&self, index: usize) -> Vec<(u32, Instruction)> {
        let mut out = self.header.clone();
        out.extend(self.stages[index].instructions.iter().cloned());
        out
    }

    /// Resolve a `--from=` reference (alias or 0-based index) as seen
    /// from stage `stage` to a dependency stage index.
    pub fn resolve_from(&self, from: &str, stage: usize) -> Option<usize> {
        let name = from.to_ascii_lowercase();
        let by_alias = self.stages[..stage]
            .iter()
            .position(|s| s.alias.as_deref() == Some(name.as_str()));
        by_alias.or_else(|| name.parse::<usize>().ok().filter(|&i| i < stage))
    }

    /// A display name for stage `index`: its alias, or its number.
    pub fn stage_name(&self, index: usize) -> String {
        match &self.stages[index].alias {
            Some(a) => a.clone(),
            None => index.to_string(),
        }
    }
}

/// Match `text` against the aliases of the stages before the referent
/// (case-insensitively), falling back to a numeric 0-based index.
fn resolve_ref(text: &str, earlier: &[zr_dockerfile::ast::Stage<'_>]) -> Option<usize> {
    let name = text.to_ascii_lowercase();
    earlier
        .iter()
        .position(|s| s.alias == Some(name.as_str()))
        .or_else(|| {
            name.parse::<usize>()
                .ok()
                .filter(|&i| i < earlier.len() && text.bytes().all(|b| b.is_ascii_digit()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zr_dockerfile::parse;

    const DIAMOND: &str = "FROM alpine:3.19 AS base\nRUN touch /base\n\
                           FROM base AS left\nRUN touch /left\n\
                           FROM base AS right\nRUN touch /right\n\
                           FROM scratch\nCOPY --from=left /left /left\nCOPY --from=right /right /right\n";

    #[test]
    fn diamond_compiles_with_all_edges() {
        let plan = BuildPlan::compile(&parse(DIAMOND).unwrap(), None).unwrap();
        assert_eq!(plan.stages().len(), 4);
        assert_eq!(plan.target(), 3);
        assert_eq!(plan.order(), &[0, 1, 2, 3]);
        assert!(plan.pruned().is_empty());
        assert_eq!(plan.stages()[1].base, BaseRef::Stage(0));
        assert_eq!(plan.stages()[2].base, BaseRef::Stage(0));
        assert_eq!(
            plan.stages()[3].deps.iter().copied().collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(plan.stages()[3].base, BaseRef::Image("scratch".to_string()));
    }

    #[test]
    fn unreferenced_stage_is_pruned() {
        let df = parse(
            "FROM alpine:3.19 AS used\nRUN touch /u\n\
             FROM debian:12 AS unused\nRUN touch /x\n\
             FROM scratch\nCOPY --from=used /u /u\n",
        )
        .unwrap();
        let plan = BuildPlan::compile(&df, None).unwrap();
        assert_eq!(plan.order(), &[0, 2]);
        assert_eq!(plan.pruned(), &[1]);
    }

    #[test]
    fn target_selects_and_prunes() {
        let df = parse(DIAMOND).unwrap();
        let plan = BuildPlan::compile(&df, Some("LEFT")).unwrap();
        assert_eq!(plan.target(), 1, "targets match case-insensitively");
        assert_eq!(plan.order(), &[0, 1]);
        assert_eq!(plan.pruned(), &[2, 3]);
        let by_index = BuildPlan::compile(&df, Some("2")).unwrap();
        assert_eq!(by_index.target(), 2);
        assert!(matches!(
            BuildPlan::compile(&df, Some("ghost")),
            Err(PlanError::UnknownTarget(t)) if t == "ghost"
        ));
        assert!(matches!(
            BuildPlan::compile(&df, Some("9")),
            Err(PlanError::UnknownTarget(_))
        ));
    }

    #[test]
    fn numeric_from_resolves() {
        let df =
            parse("FROM alpine:3.19\nRUN touch /a\nFROM scratch\nCOPY --from=0 /a /a\n").unwrap();
        let plan = BuildPlan::compile(&df, None).unwrap();
        assert_eq!(
            plan.stages()[1].deps.iter().copied().collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(plan.resolve_from("0", 1), Some(0));
    }

    #[test]
    fn no_stages_is_an_error() {
        assert!(matches!(
            BuildPlan::compile(&parse("ARG A=1\n").unwrap(), None),
            Err(PlanError::NoStages)
        ));
    }

    #[test]
    fn hand_built_forward_reference_is_a_cycle_error() {
        // The parser rejects this; a hand-built AST must too.
        use zr_dockerfile::{CopySpec, Dockerfile};
        let df = Dockerfile {
            instructions: vec![
                (
                    1,
                    Instruction::From {
                        image: "alpine:3.19".into(),
                        alias: Some("a".into()),
                    },
                ),
                (
                    2,
                    Instruction::Copy(CopySpec {
                        sources: vec!["/x".into()],
                        dest: "/y".into(),
                        chown: None,
                        from: Some("b".into()),
                    }),
                ),
                (
                    3,
                    Instruction::From {
                        image: "debian:12".into(),
                        alias: Some("b".into()),
                    },
                ),
            ],
        };
        assert!(matches!(
            BuildPlan::compile(&df, None),
            Err(PlanError::UnknownStage { line: 2, .. })
        ));
    }

    #[test]
    fn stage_instructions_prepend_header() {
        let df = parse("ARG V=1\nFROM alpine:3.19\nRUN true\n").unwrap();
        let plan = BuildPlan::compile(&df, None).unwrap();
        let insns = plan.stage_instructions(0);
        assert_eq!(insns.len(), 3);
        assert!(matches!(insns[0].1, Instruction::Arg { .. }));
        assert!(matches!(insns[1].1, Instruction::From { .. }));
    }

    #[test]
    fn stage_names() {
        let plan = BuildPlan::compile(&parse(DIAMOND).unwrap(), None).unwrap();
        assert_eq!(plan.stage_name(0), "base");
        assert_eq!(plan.stage_name(3), "3");
    }
}
