//! Tiny-size runs of every workload, untraced and traced: each must
//! emit exactly the metrics `BENCHMARK.json` names, with no wrong
//! output and no failed operation.

use std::path::PathBuf;

use zr_benchmark::{run, RunConfig, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        seed: 5,
        seconds: 0.3,
        trace,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "test-{}-{}-{}",
            workload.name(),
            u8::from(trace),
            std::process::id()
        )),
        span_file: None,
    }
}

fn smoke(workload: Workload, trace: bool) {
    let cfg = tiny(workload, trace);
    let report = run(workload, &cfg);
    let human = report.human(workload.name()).join("\n");
    assert!(report.correct(), "{human}");
    assert_eq!(report.wrong_outputs, 0, "{human}");
    assert!(report.attempted > 0);
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let table = if trace { PER_LAYER } else { END_TO_END };
    let want: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, want, "{human}");
    for (m, (_, unit)) in report.metrics.iter().zip(table) {
        assert_eq!(m.unit, *unit, "{}", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        if !trace {
            assert!(m.value > 0.0, "end-to-end {} must never be 0", m.name);
        }
    }
    assert!(!cfg.work_dir.exists(), "the run removes its work dir");
}

#[test]
fn cold_seccomp_untraced() {
    smoke(Workload::ColdSeccomp, false);
}

#[test]
fn cold_seccomp_traced() {
    smoke(Workload::ColdSeccomp, true);
}

#[test]
fn edit_rebuild_push_untraced() {
    smoke(Workload::EditRebuildPush, false);
}

#[test]
fn edit_rebuild_push_traced() {
    smoke(Workload::EditRebuildPush, true);
}

#[test]
fn dag_batch_untraced() {
    smoke(Workload::DagBatch, false);
}

#[test]
fn dag_batch_traced() {
    smoke(Workload::DagBatch, true);
}

/// `BENCHMARK.json` at the repository root names exactly the workloads
/// and metrics the program emits.
#[test]
fn benchmark_json_matches_the_program() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let named = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
    for w in Workload::ALL {
        assert!(named(w.name()), "workload {}", w.name());
        assert!(text.contains(w.why()), "why of {}", w.name());
        assert!(w.why().len() <= 200);
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(named(name), "metric {name}");
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "unit of {name}"
        );
    }
    let entries = text.matches("\"name\": \"").count();
    assert_eq!(
        entries,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
        "no unlisted entries"
    );
}
