//! Seeded input generators, one per workload.
//!
//! Every generator takes the workload seed as its only argument and is
//! a pure function of it: the same seed gives byte-identical
//! Dockerfiles and context files (the `determinism` tests pin this).
//! The system under test receives only what these functions return.

use std::sync::Arc;

/// splitmix64: a tiny, fixed generator owned by the benchmark, so the
/// corpora never change because a library RNG did.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5a52_6265_6e63_6821)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64 - 1) as usize]
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// A short lowercase token (file contents, ENV values).
    pub fn token(&mut self) -> String {
        format!("{:08x}", self.next_u64() as u32)
    }
}

/// The four catalog bases and each distro's shell-form package install
/// (the paper's Figure 2 commands, plus dnf for Fedora).
pub const BASES: [(&str, &str); 4] = [
    ("alpine:3.19", "apk add sl"),
    ("centos:7", "yum install -y openssh"),
    ("debian:12", "apt-get install -y hello"),
    ("fedora:40", "dnf install -y openssh"),
];

/// The in-container owner every generated `chown` asks for. Under
/// zero-consistency emulation the call is faked, so the stored owner
/// stays the unpacking user; any id other than that user's works.
pub const CHOWN_TO: (u32, u32) = (4321, 4321);

// ---------------------------------------------------------------------
// cold-seccomp
// ---------------------------------------------------------------------

/// Why: this is the paper's traffic. Every instruction executes
/// (`--no-cache` under `--force=seccomp`), so the time goes to container
/// setup, RUN dispatch (syscalls, BPF filter evaluations, the per-RUN
/// filter compile) and the final snapshot. The layer cache, the disk
/// store, the wire and the scheduler are bypassed.
pub const COLD_WHY: &str = "the paper's traffic: every instruction executes under the seccomp \
                            filter, so container setup, RUN dispatch and snapshot dominate";

/// Distinct Dockerfiles in one seed's corpus; the loop cycles them.
pub const COLD_FILES: usize = 256;

/// One cold-seccomp input plus what its RUN asked for, for the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdFile {
    pub dockerfile: String,
    /// Files the RUN wrote, then `chown`ed to [`CHOWN_TO`] and
    /// `chmod`ed to the paired permission bits.
    pub chowned: Vec<(String, u32)>,
    /// Character devices the RUN `mknod`ed (faked: they must not exist).
    pub devices: Vec<String>,
}

/// Single-stage Dockerfiles over the four bases: the distro's package
/// install, then one RUN of 8–32 file writes, each followed by `chown`
/// and `chmod`, with a per-file share (0–50%) of writes followed by a
/// `mknod`. Bases, write counts and shares are stratified over the
/// corpus, so every seed runs the same mix of work; the seed picks the
/// contents, permissions and which writes get a `mknod`.
pub fn cold_corpus(seed: u64) -> Vec<ColdFile> {
    let mut rng = Rng::new(seed);
    (0..COLD_FILES)
        .map(|i| {
            let (base, install) = BASES[i % BASES.len()];
            let writes = 8 + (i * 7) % 25;
            let mknod_share = ((i / 4) % 6) as f64 / 10.0;
            let dir = format!("/opt/w{i}");
            let mut cmds = vec![format!("mkdir -p {dir}")];
            let mut chowned = Vec::new();
            let mut devices = Vec::new();
            for w in 0..writes {
                let path = format!("{dir}/f{w}");
                let perm = *rng.pick(&[0o600u32, 0o640, 0o644, 0o700, 0o755]);
                cmds.push(format!("echo {} > {path}", rng.token()));
                cmds.push(format!("chown {}:{} {path}", CHOWN_TO.0, CHOWN_TO.1));
                cmds.push(format!("chmod {perm:o} {path}"));
                chowned.push((path, perm));
                if rng.chance(mknod_share) {
                    let dev = format!("{dir}/dev{w}");
                    cmds.push(format!("mknod {dev} c 1 {}", rng.range(1, 9)));
                    devices.push(dev);
                }
            }
            ColdFile {
                dockerfile: format!("FROM {base}\nRUN {install}\nRUN {}\n", cmds.join(" && ")),
                chowned,
                devices,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// edit-rebuild-push
// ---------------------------------------------------------------------

/// Why: the developer's loop — edit, rebuild, publish, fetch on the
/// cluster. The cached prefix replays from disk, the edited suffix
/// executes and persists as delta records and chunks, and the image
/// crosses a real loopback socket both ways.
pub const EDIT_WHY: &str = "the developer loop: a fresh builder on a persistent cache dir \
                            replays the prefix from disk, runs the edited suffix, then \
                            exports, pushes and pulls over loopback";

/// Projects per seed; the loop runs them in turn, one per session.
pub const EDIT_PROJECTS: usize = 4;
/// Smallest large context file, and the size step between files. Large
/// enough that hashing and chunking work in the build outweighs the
/// fixed per-commit fsyncs, whose latency on a shared virtual disk
/// drifts from run to run.
pub const BIG_MIN: u64 = 768 * 1024;
pub const BIG_STEP: u64 = 128 * 1024;

/// One context file: its name and bytes (shared across versions until
/// an edit touches it).
pub type Context = Vec<(String, Arc<[u8]>)>;

/// One version of the edited project.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditVersion {
    pub dockerfile: String,
    pub context: Context,
    /// Index of the instruction this version edited (0 for the initial
    /// version, which edits nothing; FROM is never edited).
    pub edited: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Env(String, String),
    Workdir(String),
    Copy(usize),
    Run(usize, String),
}

impl Step {
    fn render(&self, context: &Context) -> String {
        match self {
            Step::Env(k, v) => format!("ENV {k}={v}"),
            Step::Workdir(d) => format!("WORKDIR /work/{d}"),
            Step::Copy(f) => format!("COPY {} /srv/ctx/", context[*f].0),
            Step::Run(i, t) => format!(
                "RUN mkdir -p /srv/run{i} && echo {t} > /srv/run{i}/out && \
                 chown {}:{} /srv/run{i}/out",
                CHOWN_TO.0, CHOWN_TO.1
            ),
        }
    }
}

/// [`EDIT_PROJECTS`] projects of 6–10 instructions: one FROM, a COPY
/// per context file (one or two of them 768–1152 KiB), at least one
/// RUN, ENV/WORKDIR/RUN filler. Each project is followed by one edited
/// version per instruction after FROM, in a seeded order: a COPY edit
/// changes a few bytes of its context file, any other edit changes the
/// instruction's text. Edits accumulate, so each version's prefix
/// before the edited instruction is the previous version's.
///
/// The projects are stratified rather than drawn, so every seed runs
/// the same work: project `p` has `6 + p + p / 3` instructions in a
/// fixed order, `1 + p % 2` large context files of fixed sizes and
/// bodies, and `BASES[p]` as its base, and every instruction is edited
/// exactly once. File heads, tokens, edit bytes and edit order are
/// seeded.
pub fn edit_projects(seed: u64) -> Vec<Vec<EditVersion>> {
    let mut rng = Rng::new(seed);
    (0..EDIT_PROJECTS)
        .map(|p| edit_series(&mut rng, p))
        .collect()
}

fn edit_series(rng: &mut Rng, p: usize) -> Vec<EditVersion> {
    let (base, _) = BASES[p % BASES.len()];
    let total = 6 + p + p / 3;
    let mut context: Context = Vec::new();
    // Large files: a seeded 4 KiB head on a body fixed per project.
    // Content-defined chunk boundaries follow the bytes, so a fixed body
    // gives every seed the same chunks to store and dedup.
    for i in 0..1 + p % 2 {
        let len = (BIG_MIN + BIG_STEP * ((p + i) % 4) as u64) as usize;
        let mut data = rng.bytes(4096);
        data.extend(Rng::new((p * 2 + i) as u64).bytes(len - 4096));
        context.push((format!("big{i}.dat"), data.into()));
    }
    for i in 0..1 + (p / 2) % 2 {
        let len = 1024 + 512 * ((p + i) % 6) as u64 + rng.range(0, 511);
        context.push((format!("small{i}.txt"), rng.bytes(len as usize).into()));
    }
    let mut steps: Vec<Step> = (0..context.len()).map(Step::Copy).collect();
    steps.push(Step::Run(0, rng.token()));
    let mut n = 1;
    while steps.len() < total - 1 {
        steps.push(match n % 3 {
            0 => Step::Env(format!("K{n}"), rng.token()),
            1 => Step::Workdir(rng.token()),
            _ => Step::Run(n, rng.token()),
        });
        n += 1;
    }
    // The instruction order is fixed per project (it decides how much
    // work each edit's suffix holds), so every seed runs the same work.
    shuffle(&mut Rng::new(p as u64), &mut steps);
    let render = |steps: &[Step], context: &Context| {
        let mut text = format!("FROM {base}\n");
        for s in steps {
            text.push_str(&s.render(context));
            text.push('\n');
        }
        text
    };
    let mut versions = vec![EditVersion {
        dockerfile: render(&steps, &context),
        context: context.clone(),
        edited: 0,
    }];
    let mut order: Vec<usize> = (0..steps.len()).collect();
    shuffle(rng, &mut order);
    for k in order {
        match &mut steps[k] {
            Step::Env(_, v) | Step::Workdir(v) | Step::Run(_, v) => *v = rng.token(),
            Step::Copy(f) => {
                // A few seeded bytes at a fixed offset (so the same
                // chunk changes whatever the seed).
                let mut data = context[*f].1.to_vec();
                let len = rng.range(1, 64) as usize;
                let at = (data.len() / 3 + 4096 * k) % (data.len() - len);
                data[at..at + len].copy_from_slice(&rng.bytes(len));
                context[*f].1 = data.into();
            }
        }
        versions.push(EditVersion {
            dockerfile: render(&steps, &context),
            context: context.clone(),
            edited: k + 1,
        });
    }
    versions
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i as u64) as usize);
    }
}

// ---------------------------------------------------------------------
// dag-batch
// ---------------------------------------------------------------------

/// Why: the only workload on the stage-DAG compiler, the scheduler's
/// workers and work stealing, and concurrent layer-store inserts and
/// hits. It bypasses the disk and the wire.
pub const DAG_WHY: &str = "multi-stage diamonds, fan-ins and siblings in concurrent batches: \
                           stage DAGs, scheduler workers and stealing, shared layer and blob \
                           cache hits";

/// Distinct batches per seed; the loop cycles them.
pub const DAG_BATCHES: usize = 16;
/// Requests per batch.
pub const DAG_BATCH_SIZE: usize = 24;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagRequest {
    pub id: String,
    pub dockerfile: String,
    pub high_priority: bool,
}

/// Batches of multi-stage diamonds, wide fan-ins (3–5 branches) and
/// single-stage siblings. Half the requests reuse one of three shared
/// base stages (cross-build layer hits and blob-cache hits); the rest
/// get a unique base stage. A quarter carry an unused stage the planner
/// must prune, and a fifth are high priority, so idle workers steal
/// across priority classes.
///
/// The mix is stratified: every batch has the same count of each shape,
/// shared base, pruned stage and priority, so every seed runs the same
/// mix of work, in a fixed submission order. The seed picks the file
/// contents.
pub fn dag_batches(seed: u64) -> Vec<Vec<DagRequest>> {
    let mut rng = Rng::new(seed);
    let base_stage = |rng: &mut Rng, (image, install): (&'static str, &str)| {
        (
            image,
            format!("{install} && mkdir -p /b && echo {} > /b/id", rng.token()),
        )
    };
    let shared: Vec<(&str, String)> = (0..3).map(|i| base_stage(&mut rng, BASES[i])).collect();
    (0..DAG_BATCHES)
        .map(|b| {
            let mut batch: Vec<DagRequest> = (0..DAG_BATCH_SIZE)
                .map(|r| {
                    let (image, run) = if r % 2 == 0 {
                        shared[(r / 2) % shared.len()].clone()
                    } else {
                        base_stage(&mut rng, BASES[(r / 2) % BASES.len()])
                    };
                    let mut text = String::new();
                    if r % 4 == 1 {
                        text.push_str("FROM alpine:3.19 AS unused\nRUN echo unused > /u\n");
                    }
                    match r % 3 {
                        0 => {
                            text.push_str(&format!("FROM {image} AS base\nRUN {run}\n"));
                            branches(&mut rng, &mut text, image, 2);
                        }
                        1 => {
                            text.push_str(&format!("FROM {image} AS base\nRUN {run}\n"));
                            branches(&mut rng, &mut text, image, 3 + (r / 3) % 3);
                        }
                        _ => text.push_str(&format!(
                            "FROM {image}\nRUN {run}\nRUN echo {} > /b/leaf\n",
                            rng.token()
                        )),
                    }
                    DagRequest {
                        id: format!("b{b}r{r}"),
                        dockerfile: text,
                        high_priority: r % 5 == 0,
                    }
                })
                .collect();
            // A fixed submission order per batch: the order decides how
            // well the workers' loads balance, so it is not seeded.
            shuffle(&mut Rng::new(b as u64), &mut batch);
            batch
        })
        .collect()
}

/// `width` stages built on `base`, then a final stage copying one file
/// out of each (two branches make a diamond).
fn branches(rng: &mut Rng, text: &mut String, image: &str, width: usize) {
    for w in 0..width {
        text.push_str(&format!(
            "FROM base AS s{w}\nRUN mkdir -p /s{w} && echo {} > /s{w}/out\n",
            rng.token()
        ));
    }
    text.push_str(&format!("FROM {image}\n"));
    for w in 0..width {
        text.push_str(&format!("COPY --from=s{w} /s{w}/out /s{w}/out\n"));
    }
    text.push_str("COPY --from=base /b/id /b/id\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(cold_corpus(7), cold_corpus(7));
        assert_eq!(edit_projects(7), edit_projects(7));
        assert_eq!(dag_batches(7), dag_batches(7));
        assert_ne!(cold_corpus(7), cold_corpus(8));
        assert_ne!(edit_projects(7), edit_projects(8));
        assert_ne!(dag_batches(7), dag_batches(8));
    }

    #[test]
    fn cold_files_stay_in_their_ranges() {
        for f in cold_corpus(3) {
            assert!((8..=32).contains(&f.chowned.len()), "{}", f.dockerfile);
            assert!(f.dockerfile.starts_with("FROM "));
            assert!(!f.dockerfile.contains('$'), "no substitution in inputs");
        }
    }

    #[test]
    fn edit_series_accumulate_single_edits() {
        for series in edit_projects(11) {
            let lines = series[0].dockerfile.lines().count();
            assert!((6..=10).contains(&lines), "{}", series[0].dockerfile);
            assert_eq!(
                series.len(),
                lines,
                "one version per instruction after FROM"
            );
            let mut edited: Vec<usize> = series[1..].iter().map(|v| v.edited).collect();
            edited.sort_unstable();
            assert_eq!(edited, (1..lines).collect::<Vec<_>>(), "each edited once");
            assert!(series[0]
                .context
                .iter()
                .any(|(_, data)| data.len() >= 128 * 1024));
            for pair in series.windows(2) {
                let (prev, next) = (&pair[0], &pair[1]);
                assert!(next.edited >= 1, "FROM is never edited");
                let before: Vec<&str> = prev.dockerfile.lines().take(next.edited).collect();
                let after: Vec<&str> = next.dockerfile.lines().take(next.edited).collect();
                assert_eq!(before, after, "the prefix before the edit is unchanged");
            }
        }
    }
}
