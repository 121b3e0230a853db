//! The harness's own tests, at the quick scale.
//!
//! `untraced_run_prints_the_declared_metrics` starts `mpq`: build it
//! first with `cargo build --release --bin mpq` at the repository root,
//! or point `PERFBENCH_MPQ` at a binary.

use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::{Engine, RuntimeKind};
use perfbench::layers::{self, Runtime, Tracer};
use perfbench::workload::{self, Scale, NAMES};
use perfbench::{measure, ops, prepare, run, Config, Tally, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A quick run's settings, each with its own input directory: tests run
/// in parallel and must not share files.
fn config(workload: &str, trace: bool, mpq: PathBuf) -> Config {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = format!("perfbench-inputs-{}", NEXT.fetch_add(1, Ordering::Relaxed));
    Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Quick,
        mpq,
        workdir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    }
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
}

fn mpq_binary() -> PathBuf {
    if let Ok(p) = std::env::var("PERFBENCH_MPQ") {
        return PathBuf::from(p);
    }
    let root = repo_root();
    let mut dirs = vec![root.join("target"), root.join(".bench_build")];
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        dirs.insert(0, root.join(dir));
    }
    dirs.into_iter()
        .map(|d| d.join("release").join("mpq"))
        .find(|p| p.is_file())
        .expect("no mpq binary: run `cargo build --release --bin mpq` at the repository root")
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        perfbench::benchmark_json(),
        "regenerate BENCHMARK.json with `perfbench --benchmark-json`"
    );
    let names: Vec<&str> = perfbench::WORKLOADS.iter().map(|(n, _)| *n).collect();
    let known: Vec<&str> = NAMES.into_iter().filter(|n| names.contains(n)).collect();
    assert_eq!(names, known, "every listed workload is generated, in order");
}

#[test]
fn traced_run_prints_exactly_the_declared_per_layer_metrics() {
    for name in NAMES {
        let (_, outcome, _) = run(&config(name, true, PathBuf::new())).expect(name);
        let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(printed, declared, "{name}");
        assert_eq!(
            outcome.tally.failed, 0,
            "{name}: {:?}",
            outcome.tally.errors
        );
        assert!(
            outcome.metrics.iter().all(|m| m.value.is_finite()),
            "{name}"
        );
    }
}

#[test]
fn untraced_run_prints_the_declared_metrics() {
    let (_, outcome, _) = run(&config("win-move", false, mpq_binary())).expect("win-move");
    let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(printed, declared);
    assert_eq!(outcome.tally.failed, 0, "{:?}", outcome.tally.errors);
    assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
    assert!(
        !outcome.notes.is_empty(),
        "the baselines' wrong answers on win-move are reported"
    );
}

#[test]
fn corrupted_reference_drives_the_error_rate_above_zero() {
    let cfg = config("sg-tree", true, PathBuf::new());
    let mut tally = Tally::default();
    let mut prep = prepare(&cfg, &mut tally).expect("prepare");
    assert_eq!(tally.failed, 0);
    for inst in &mut prep.instances {
        inst.reference.pop().expect("the quick tree has answers");
    }
    let outcome = measure(&cfg, &prep, &mut tally).expect("measure");
    assert!(outcome.tally.attempted > 0);
    assert!(
        outcome.tally.failed > 0,
        "a wrong reference must fail checks"
    );
}

#[test]
fn counters_that_do_not_repeat_fail_the_run() {
    let cfg = config("nonlinear-chain", true, PathBuf::new());
    let mut tally = Tally::default();
    let mut prep = prepare(&cfg, &mut tally).expect("prepare");
    prep.instances[0].sim[0] += 1;
    let err = measure(&cfg, &prep, &mut tally)
        .err()
        .expect("a counter mismatch yields no result");
    assert!(err.contains("invariance self-check failed"), "{err}");
}

#[test]
fn traced_breakdown_matches_engine_evaluate() {
    for name in NAMES {
        let w = workload::generate(name, 3, Scale::Quick).expect(name);
        let src = workload::render(&w).expect(name);
        for (runtime, kind) in [
            (Runtime::Sim, ops::SIM),
            (Runtime::Pool, RuntimeKind::Threads),
        ] {
            let program = parse_program(&src).expect(name);
            let engine = Engine::new(program, Database::new())
                .with_runtime(kind)
                .with_workers(ops::POOL_WORKERS)
                .evaluate()
                .expect(name);
            let mut t = Tracer::default();
            let traced = layers::query(&src, runtime, &mut t).expect(name);
            assert_eq!(
                traced.answers,
                engine.answers.sorted_rows(),
                "{name} {runtime:?}"
            );
            assert_eq!(
                ops::logical_counters(&traced.stats),
                ops::logical_counters(&engine.stats),
                "{name} {runtime:?}"
            );
            if runtime == Runtime::Sim {
                assert_eq!(
                    ops::sim_counters(&traced.stats),
                    ops::sim_counters(&engine.stats),
                    "{name}"
                );
            }
            assert!(
                t.spans
                    .iter()
                    .all(|s| s.name == layers::QUERY || s.parent.is_some()),
                "{name}: every span nests in the query span"
            );
        }
    }
}

#[test]
fn rendered_text_is_the_workload() {
    for name in NAMES {
        let w = workload::generate(name, 5, Scale::Quick).expect(name);
        let reference = workload::reference(&w).expect(name);
        let src = workload::render(&w).expect(name);
        let (rows, _) = ops::engine_query(&src, ops::SIM).expect(name);
        assert_eq!(rows, reference, "{name}");
    }
}
