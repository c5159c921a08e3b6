//! Cache policy and key derivation for the instruction-level layer
//! cache.
//!
//! The builder consults `Builder::layers` (a [`LayerStore`]) before
//! executing each instruction; this module owns everything that decides
//! *whether two instructions are the same build step*: the cache mode,
//! the normalized instruction text, the build-context digest, and the
//! strategy configuration fingerprint.
//!
//! [`LayerStore`]: zr_image::LayerStore

use crate::options::BuildOptions;
use zeroroot_core::digest::FieldDigest;
use zr_dockerfile::{substitute, Instruction};
use zr_image::CacheKey;

/// How a build uses the layer cache (`ch-image build [--no-cache]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Restore hits, snapshot misses (the default).
    #[default]
    Enabled,
    /// `--no-cache`: execute everything, touch the store not at all.
    Disabled,
}

impl CacheMode {
    /// Does the build restore hits from the store and snapshot misses
    /// into it?
    pub fn uses_store(self) -> bool {
        self == CacheMode::Enabled
    }
}

/// Per-build cache effectiveness, reported in `BuildResult::cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Instructions restored from snapshots instead of executing.
    pub hits: u32,
    /// Instructions that executed (everything, under `--no-cache`).
    pub misses: u32,
}

impl CacheStats {
    /// `hits + misses` — the instruction count the build walked.
    pub fn total(&self) -> u32 {
        self.hits + self.misses
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} hits, {} misses", self.hits, self.misses)
    }
}

/// The configuration facts that must invalidate every layer when they
/// change: the `--force` strategy (the same RUN behaves differently
/// under seccomp vs fakeroot), the container type, and the host libc
/// (bind-mounted emulators depend on it).
pub(crate) fn config_fingerprint(opts: &BuildOptions) -> String {
    format!(
        "{}|{}|{}",
        opts.force.flag(),
        opts.container_type,
        opts.host_libc
    )
}

/// Substitution lookup over ENV (wins) then ARG values — the one
/// definition of the precedence both key derivation and the build
/// loop's execution path use (they must never disagree, or keys would
/// be computed under a different substitution than execution applies).
pub(crate) fn lookup<'a>(
    env: &'a [(String, String)],
    args: &'a [(String, String)],
) -> impl Fn(&str) -> Option<String> + 'a {
    move |name: &str| {
        env.iter()
            .rev()
            .find(|(k, _)| k == name)
            .or_else(|| args.iter().rev().find(|(k, _)| k == name))
            .map(|(_, v)| v.clone())
    }
}

/// Resolve an ARG instruction's value: a `--build-arg` override wins,
/// else the substituted default, else empty. Shared by key
/// normalization, the execution loop, and hit-line rendering so the
/// three can never drift apart.
pub(crate) fn resolve_arg(
    name: &str,
    default: Option<&str>,
    env: &[(String, String)],
    args: &[(String, String)],
    build_args: &[(String, String)],
) -> String {
    let supplied = build_args
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone());
    match (supplied, default) {
        (Some(v), _) => v,
        (None, Some(d)) => substitute(d, &lookup(env, args)),
        (None, None) => String::new(),
    }
}

/// Canonical instruction text for keying.
///
/// Most instructions key on their raw parsed form: everything their
/// execution depends on (prior ENV/ARG state) is already chained in
/// through the parent key. The two exceptions resolve values that leak
/// in from *outside* the chain:
///
/// * `ARG` keys on its **resolved** value, so `--build-arg` overrides
///   invalidate from the ARG onward;
/// * `FROM` keys on its substituted reference (cosmetically — pre-FROM
///   ARGs are themselves keyed — but it matches the logged line).
pub(crate) fn normalize(
    instruction: &Instruction,
    env: &[(String, String)],
    args: &[(String, String)],
    build_args: &[(String, String)],
) -> String {
    let lookup = lookup(env, args);
    match instruction {
        Instruction::From { image, alias } => {
            let reference = substitute(image, &lookup);
            match alias {
                Some(a) => format!("FROM {reference} AS {a}"),
                None => format!("FROM {reference}"),
            }
        }
        Instruction::RunShell(cmd) => format!("RUN {cmd}"),
        Instruction::RunExec(argv) => format!("RUN {argv:?}"),
        Instruction::Env(pairs) => format!("ENV {pairs:?}"),
        Instruction::Arg { name, default } => {
            let value = resolve_arg(name, default.as_deref(), env, args, build_args);
            format!("ARG {name}={value}")
        }
        Instruction::Workdir(path) => format!("WORKDIR {path}"),
        Instruction::User(spec) => format!("USER {spec}"),
        Instruction::Label(pairs) => format!("LABEL {pairs:?}"),
        Instruction::Copy(spec) => format!("COPY {spec:?}"),
        Instruction::Add(spec) => format!("ADD {spec:?}"),
        Instruction::Entrypoint(argv) => format!("ENTRYPOINT {argv:?}"),
        Instruction::Cmd(argv) => format!("CMD {argv:?}"),
        Instruction::Shell(argv) => format!("SHELL {argv:?}"),
        Instruction::NoOp { keyword, args: raw } => format!("{keyword} {raw}"),
    }
}

/// Resolves a cross-stage reference (a `--from=` name/index, or a FROM
/// reference that is an earlier stage's alias) to that stage's result
/// **image digest** — `None` when the text names no stage (plain
/// context COPYs, registry FROMs).
pub(crate) type SourceResolver<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The resolver for builds with no cross-stage references in scope.
#[cfg(test)]
pub(crate) fn no_sources(_: &str) -> Option<String> {
    None
}

/// Digest of the build-context content a COPY/ADD reads: substituted
/// source names paired with their contents' digests (or a missing
/// marker). Editing a context file invalidates the COPY layer even
/// though the instruction text is unchanged. Empty for every other
/// instruction.
///
/// Contents enter through each blob's *memoized* SHA-256, so a context
/// file is hashed once per blob — every later instruction key, warm
/// rebuild, and sibling build sharing the context reuses the memo
/// instead of re-hashing the bytes.
///
/// Cross-stage references digest the **source stage's image digest**
/// instead: a `COPY --from=stage` layer (and a `FROM stage` base) is
/// invalidated exactly when the upstream stage's result changes, which
/// is what chains per-stage cache lineages together across the DAG.
pub(crate) fn context_digest(
    instruction: &Instruction,
    env: &[(String, String)],
    args: &[(String, String)],
    context: &[crate::options::ContextFile],
    sources: SourceResolver<'_>,
) -> String {
    let spec = match instruction {
        Instruction::From { image, .. } => {
            let reference = substitute(image, &lookup(env, args));
            let Some(digest) = sources(&reference) else {
                return String::new();
            };
            let mut d = FieldDigest::new("zr-stage-from-v1");
            d.field(reference.as_bytes()).field(digest.as_bytes());
            return d.finish();
        }
        Instruction::Copy(spec) | Instruction::Add(spec) => spec,
        _ => return String::new(),
    };
    if let Some(from) = &spec.from {
        // Source paths and the dest are keyed through the normalized
        // instruction text; content enters through the stage digest.
        let mut d = FieldDigest::new("zr-stage-copy-v1");
        d.field(from.as_bytes());
        match sources(from) {
            Some(digest) => d.field(digest.as_bytes()),
            None => d.field(b"\x00unresolved"),
        };
        return d.finish();
    }
    let lookup = lookup(env, args);
    let mut d = FieldDigest::new("zr-context-v2");
    for source in &spec.sources {
        let source = substitute(source, &lookup);
        d.field(source.as_bytes());
        match context.iter().find(|(name, _)| *name == source) {
            Some((_, blob)) => d.field(blob.sha_bytes()),
            None => d.field(b"\x00missing"),
        };
    }
    d.finish()
}

/// The full key for one instruction in one build configuration.
pub(crate) fn layer_key(
    parent: Option<&CacheKey>,
    instruction: &Instruction,
    env: &[(String, String)],
    args: &[(String, String)],
    opts: &BuildOptions,
    config: &str,
    sources: SourceResolver<'_>,
) -> CacheKey {
    let normalized = normalize(instruction, env, args, &opts.build_args);
    let context = context_digest(instruction, env, args, &opts.context, sources);
    CacheKey::compute(parent, &normalized, &context, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroroot_core::Mode;

    #[test]
    fn mode_policy() {
        assert!(CacheMode::Enabled.uses_store());
        assert!(!CacheMode::Disabled.uses_store());
        assert_eq!(CacheMode::default(), CacheMode::Enabled);
    }

    #[test]
    fn stats_display() {
        let s = CacheStats { hits: 2, misses: 1 };
        assert_eq!(s.to_string(), "2 hits, 1 misses");
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn config_fingerprint_separates_strategies() {
        let seccomp = config_fingerprint(&BuildOptions::new("t", Mode::Seccomp));
        let fakeroot = config_fingerprint(&BuildOptions::new("t", Mode::Fakeroot));
        assert_ne!(seccomp, fakeroot);
        // The tag is NOT part of the fingerprint: layers are shared
        // across destination tags.
        assert_eq!(
            seccomp,
            config_fingerprint(&BuildOptions::new("other", Mode::Seccomp))
        );
    }

    #[test]
    fn arg_normalizes_to_resolved_value() {
        let arg = Instruction::Arg {
            name: "V".into(),
            default: Some("d".into()),
        };
        let mut opts = BuildOptions::new("t", Mode::None);
        assert_eq!(normalize(&arg, &[], &[], &opts.build_args), "ARG V=d");
        opts.build_args.push(("V".into(), "override".into()));
        assert_eq!(
            normalize(&arg, &[], &[], &opts.build_args),
            "ARG V=override"
        );
    }

    #[test]
    fn context_digest_tracks_content() {
        let copy = Instruction::Copy(zr_dockerfile::CopySpec {
            sources: vec!["app.conf".into()],
            dest: "/etc/".into(),
            chown: None,
            from: None,
        });
        use crate::options::context_file;
        let one = context_digest(
            &copy,
            &[],
            &[],
            &[context_file("app.conf", b"a=1".to_vec())],
            &no_sources,
        );
        let two = context_digest(
            &copy,
            &[],
            &[],
            &[context_file("app.conf", b"a=2".to_vec())],
            &no_sources,
        );
        let missing = context_digest(&copy, &[], &[], &[], &no_sources);
        assert_ne!(one, two);
        assert_ne!(one, missing);
        let run = Instruction::RunShell("true".into());
        assert_eq!(context_digest(&run, &[], &[], &[], &no_sources), "");
    }

    #[test]
    fn cross_stage_references_key_on_the_source_digest() {
        let copy = Instruction::Copy(zr_dockerfile::CopySpec {
            sources: vec!["/artifact".into()],
            dest: "/artifact".into(),
            chown: None,
            from: Some("build".into()),
        });
        let a = |from: &str| (from == "build").then(|| "digest-a".to_string());
        let b = |from: &str| (from == "build").then(|| "digest-b".to_string());
        let da = context_digest(&copy, &[], &[], &[], &a);
        let db = context_digest(&copy, &[], &[], &[], &b);
        assert_ne!(da, db, "upstream change must invalidate the copy");
        assert_eq!(da, context_digest(&copy, &[], &[], &[], &a));

        let from = Instruction::From {
            image: "build".into(),
            alias: None,
        };
        let fa = context_digest(&from, &[], &[], &[], &a);
        let fb = context_digest(&from, &[], &[], &[], &b);
        assert_ne!(fa, fb);
        assert!(!fa.is_empty());
        // A registry FROM (no stage in scope) keeps the empty context.
        assert_eq!(context_digest(&from, &[], &[], &[], &no_sources), "");
    }
}
