//! Soundness of the staged stratified pipeline: the engine's
//! stratum-by-stratum evaluation of programs with negation and
//! aggregates must compute exactly the perfect model, on every runtime,
//! at every shard count, and under chaos. The reference is
//! `mp-baselines`' `PerfectModel` — an independent iterated-fixpoint
//! evaluator that shares no code with `mp-analyze`'s stratifier or the
//! engine's staging driver.

use mp_framework::baselines::{Evaluator, PerfectModel};
use mp_framework::datalog::parser::parse_program;
use mp_framework::datalog::Database;
use mp_framework::engine::runtime::RuntimeError;
use mp_framework::engine::{Engine, EngineError, FaultPlan, QueryBudget, RuntimeKind, Schedule};
use mp_framework::storage::{tuple, Tuple};
use mp_framework::workloads::random_programs::{
    generate, generate_stratified, is_interesting, ProgramSpec, StratifiedSpec,
};
use mp_framework::workloads::scenarios;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The canonical stratified workloads must be oracle-identical on both
/// runtimes at 1 and 4 shards — the PR's acceptance matrix.
#[test]
fn canonical_stratified_workloads_match_the_oracle() {
    let workloads = [
        scenarios::win_move(24, 40, 3),
        scenarios::win_move(16, 12, 5),
        scenarios::company_control(10, 1),
        scenarios::company_control(16, 7),
        scenarios::agg_reachability(24, 48, 4, 2),
    ];
    for w in &workloads {
        let expect = PerfectModel
            .evaluate(&w.program, &w.db)
            .unwrap_or_else(|e| panic!("oracle failed on {}: {e}", w.name))
            .answers
            .sorted_rows();
        for shards in [1usize, 4] {
            for (rt_name, runtime) in [
                ("sim", RuntimeKind::Sim(Schedule::Fifo)),
                ("threads", RuntimeKind::Threads),
            ] {
                let got = Engine::new(w.program.clone(), w.db.clone())
                    .with_runtime(runtime)
                    .with_shards(shards)
                    .evaluate()
                    .unwrap_or_else(|e| panic!("{} failed on {rt_name} x{shards}: {e}", w.name))
                    .answers
                    .sorted_rows();
                assert_eq!(got, expect, "{} on {rt_name} x{shards}", w.name);
            }
        }
    }
}

/// The staged pipeline actually stages: the three-stratum win-move
/// program reports more than one engine run, a flat program exactly one.
#[test]
fn strata_evaluated_counts_pipeline_stages() {
    let w = scenarios::win_move(12, 16, 1);
    let staged = Engine::new(w.program.clone(), w.db.clone())
        .evaluate()
        .unwrap();
    assert!(
        staged.stats.strata_evaluated > 1,
        "win-move should stage, got {}",
        staged.stats.strata_evaluated
    );

    let flat = scenarios::tc_chain(8);
    let direct = Engine::new(flat.program.clone(), flat.db.clone())
        .evaluate()
        .unwrap();
    assert_eq!(direct.stats.strata_evaluated, 1);
}

/// Unstratifiable programs are rejected with a deterministic MP009 deny
/// through the compile gate, and still rejected (by the staging driver's
/// own check) when the gate is switched off.
#[test]
fn unstratifiable_programs_are_rejected_on_both_paths() {
    let program = parse_program(
        "p(X) :- node(X), !q(X).
         q(X) :- node(X), !p(X).
         ?- p(X).",
    )
    .unwrap();
    let mut db = Database::new();
    db.insert("node", tuple![1]).unwrap();
    for gate in [true, false] {
        match Engine::new(program.clone(), db.clone())
            .with_stratification(gate)
            .evaluate()
        {
            Err(EngineError::Lint(diags)) => {
                assert!(
                    diags.iter().any(|d| d.code.as_str() == "MP009"),
                    "gate {gate}: expected MP009, got {diags:?}"
                );
            }
            Err(other) => panic!("gate {gate}: expected a lint rejection, got {other}"),
            Ok(_) => panic!("gate {gate}: unstratifiable program evaluated"),
        }
    }
}

/// One budget spans the whole pipeline: a step allowance that a staged
/// program cannot satisfy trips the same typed divergence error the flat
/// path reports, instead of resetting per stratum.
#[test]
fn one_budget_spans_all_strata() {
    let w = scenarios::agg_reachability(32, 96, 8, 3);
    match Engine::new(w.program.clone(), w.db.clone())
        .with_budget(QueryBudget::new().with_max_steps(5))
        .evaluate()
    {
        Err(EngineError::Runtime(e)) => {
            assert!(matches!(e, RuntimeError::Diverged { .. }), "{e}")
        }
        Err(other) => panic!("expected a runtime budget error, got {other}"),
        Ok(_) => panic!("a 5-step budget cannot evaluate this workload"),
    }
}

/// A message budget that trips after stratum 0 is reported against the
/// user's query: the partial answers are a subset of the query's
/// perfect-model answers (never the tuples of a materialization run's
/// synthesized query), the limit is the one the user set, and the usage
/// is the whole pipeline's. On this board stratum 0 (`moved`) costs
/// 575 logical messages and `lose` 185 more, so 1040 trips while `win`
/// is being materialized, after it has sent some answers.
#[test]
fn staged_budget_errors_describe_the_users_query() {
    let w = scenarios::win_move(120, 300, 3);
    let expect: BTreeSet<Tuple> = PerfectModel
        .evaluate(&w.program, &w.db)
        .unwrap()
        .answers
        .sorted_rows()
        .into_iter()
        .collect();
    let limit = 1040;
    match Engine::new(w.program.clone(), w.db.clone())
        .with_budget(QueryBudget::new().with_max_messages(limit))
        .evaluate()
    {
        Err(EngineError::Runtime(RuntimeError::BudgetExceeded {
            limit: reported,
            used,
            partial,
            ..
        })) => {
            assert!(
                partial.iter().all(|t| expect.contains(t)),
                "partial answers outside the query's answers: {partial:?}"
            );
            assert_eq!(reported, limit, "the user's limit");
            assert!(used >= limit, "pipeline usage {used} below the limit");
        }
        Err(other) => panic!("expected BudgetExceeded, got {other}"),
        Ok(_) => panic!("a {limit}-message budget cannot evaluate this workload"),
    }
}

/// Regression: on negation/aggregate-free programs the stratification
/// pass is invisible — answers bit-identical (same tuples, same order)
/// and every Thm 4.1 logical counter unchanged with the pass on vs off.
#[test]
fn stratification_pass_is_invisible_on_positive_programs() {
    let spec = ProgramSpec::default();
    let mut tested = 0;
    for seed in 0..80 {
        let (program, db) = generate(&spec, seed);
        if !is_interesting(&program, &db) {
            continue;
        }
        tested += 1;
        let on = Engine::new(program.clone(), db.clone())
            .with_stratification(true)
            .evaluate()
            .unwrap_or_else(|e| panic!("pass-on failed on seed {seed}: {e}\n{program}"));
        let off = Engine::new(program.clone(), db.clone())
            .with_stratification(false)
            .evaluate()
            .unwrap_or_else(|e| panic!("pass-off failed on seed {seed}: {e}\n{program}"));
        assert_eq!(
            on.answers.rows(),
            off.answers.rows(),
            "seed {seed}\n{program}"
        );
        assert_eq!(
            on.stats.logical_answers, off.stats.logical_answers,
            "seed {seed}"
        );
        assert_eq!(
            on.stats.logical_tuple_requests, off.stats.logical_tuple_requests,
            "seed {seed}"
        );
        assert_eq!(
            on.stats.logical_end_tuple_requests, off.stats.logical_end_tuple_requests,
            "seed {seed}"
        );
        assert_eq!(on.stats.strata_evaluated, 1, "seed {seed}");
    }
    assert!(tested > 40, "only {tested}/80 interesting programs");
}

/// Chaos sweep: 8 seeded stratified programs evaluated under a lossy
/// fault plan and an adversarial random schedule still compute the
/// perfect model (the self-healing transport composes with staging).
#[test]
fn chaos_sweep_preserves_the_perfect_model() {
    let spec = StratifiedSpec::default();
    let mut tested = 0u64;
    for seed in 0..64u64 {
        if tested >= 8 {
            break;
        }
        let (program, db) = generate_stratified(&spec, seed);
        if !is_interesting(&program, &db) || program.rules.iter().all(|r| r.neg.is_empty()) {
            continue;
        }
        tested += 1;
        let expect = PerfectModel
            .evaluate(&program, &db)
            .unwrap_or_else(|e| panic!("oracle failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        let got = Engine::new(program.clone(), db.clone())
            .with_runtime(RuntimeKind::Sim(Schedule::Random(seed * 31 + 7)))
            .with_fault_plan(FaultPlan::seeded(seed * 97 + 13))
            .evaluate()
            .unwrap_or_else(|e| panic!("chaos run failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        assert_eq!(got, expect, "seed {seed}\n{program}");
    }
    assert_eq!(tested, 8, "the sweep must cover 8 negation-using programs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random stratified-negation programs: the staged engine (both
    /// runtimes) computes exactly the perfect model.
    #[test]
    fn staged_engine_matches_perfect_model(seed in 0u64..10_000) {
        let spec = StratifiedSpec::default();
        let (program, db) = generate_stratified(&spec, seed);
        if !is_interesting(&program, &db) {
            return Ok(()); // vacuous draw; the generator seeds densely
        }
        let expect = PerfectModel
            .evaluate(&program, &db)
            .unwrap_or_else(|e| panic!("oracle failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        let sim = Engine::new(program.clone(), db.clone())
            .evaluate()
            .unwrap_or_else(|e| panic!("sim failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        prop_assert_eq!(&sim, &expect, "sim diverged on seed {}\n{}", seed, program);
        let threaded = Engine::new(program.clone(), db.clone())
            .with_runtime(RuntimeKind::Threads)
            .evaluate()
            .unwrap_or_else(|e| panic!("threads failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        prop_assert_eq!(&threaded, &expect, "threads diverged on seed {}\n{}", seed, program);
    }

    /// Sharding composes with staging: a staged 4-shard run equals the
    /// 1-shard run on random stratified programs.
    #[test]
    fn sharded_staging_matches_unsharded(seed in 0u64..10_000) {
        let spec = StratifiedSpec::default();
        let (program, db) = generate_stratified(&spec, seed);
        if !is_interesting(&program, &db) {
            return Ok(());
        }
        let one = Engine::new(program.clone(), db.clone())
            .with_shards(1)
            .evaluate()
            .unwrap_or_else(|e| panic!("1-shard failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        let four = Engine::new(program.clone(), db.clone())
            .with_shards(4)
            .evaluate()
            .unwrap_or_else(|e| panic!("4-shard failed on seed {seed}: {e}\n{program}"))
            .answers
            .sorted_rows();
        prop_assert_eq!(&four, &one, "shards diverged on seed {}\n{}", seed, program);
    }
}
