//! The traced query: the same sequence of public calls `Engine::evaluate`
//! makes, each wrapped in a span named after its layer.
//!
//! A flat program runs `Engine::compile` then `evaluate_direct`: program
//! lints, the stratification gate, the rule/goal graph, graph and
//! protocol lints, analysis and pruning, the network compiler, and one
//! runtime. A program with `!` or a fold runs `evaluate_staged`: the same
//! compile as a full-program gate, then one direct run per stratum and
//! per needed predicate over a working database that each stratum's
//! answers are sealed into. The answers and logical counters of a traced
//! query must equal `Engine::evaluate`'s; the caller checks that, so the
//! breakdown cannot drift from the engine unnoticed.

use mp_analyze::{plan::partition_keys, shard_fan_outs, AnalyzeOptions};
use mp_datalog::analysis::DependencyAnalysis;
use mp_datalog::parser::parse_program;
use mp_datalog::{Atom, Database, Predicate, Program, Rule, Term, Var};
use mp_engine::node::{Network, ShardPlan};
use mp_engine::runtime::{SimRuntime, ThreadRuntime};
use mp_engine::Stats;
use mp_lint::protocol::{lint_protocol, ProtocolView};
use mp_lint::Diagnostic;
use mp_rulegoal::{RuleGoalGraph, SipKind};
use mp_storage::{Relation, Tuple};
use std::collections::BTreeSet;
use std::time::Instant;

/// The whole query; every other span nests inside it.
pub const QUERY: &str = "query";
/// `Engine::compile` (the full-program gate on staged programs).
pub const STAGED_COMPILE: &str = "staged.compile";
/// Everything `evaluate` does after `compile`. Its time outside its child
/// spans is its own: the seams between sub-runs (working-database copies,
/// sealing a stratum's answers) and teardown.
pub const STAGED_PIPELINE: &str = "staged.pipeline";
/// Sorting the answers, the last step of a query.
pub const SORT: &str = "answers.sort";
/// The worker pool's run, in place of `sim.run` on a pooled query.
pub const POOL_RUN: &str = "pool.run";

/// The simulator query's layer spans, each with the per-layer metric its
/// summed duration gives. They are leaves of the span tree, so their
/// durations are self times and they never overlap.
pub const LAYERS: [(&str, &str); 10] = [
    ("datalog.parse", "datalog.parse_ms"),
    ("datalog.load", "datalog.load_ms"),
    ("lint.program", "lint.program_ms"),
    ("lint.graph", "lint.graph_ms"),
    ("analyze.stratify", "analyze.stratify_ms"),
    ("analyze.analyze", "analyze.analyze_ms"),
    ("analyze.prune", "analyze.prune_ms"),
    ("rulegoal.build", "rulegoal.build_ms"),
    ("engine.network", "engine.network_ms"),
    ("sim.run", "sim.run_ms"),
];

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// In-memory span recorder for one query. Spans of one query share the
/// tracer, which is their request identifier.
pub struct Tracer {
    origin: Instant,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            stack: Vec::new(),
            spans: Vec::with_capacity(64),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Summed self time of every span called `name`, in ms: its duration
    /// minus that of the spans directly inside it.
    pub fn self_ms(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent.is_some_and(|p| self.spans[p].name == name))
            .map(Span::ms)
            .sum();
        self.total_ms(name) - children
    }

    /// Summed duration of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }
}

/// Which runtime executes the compiled networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    Sim,
    Pool,
}

/// Counts gathered along the traced query.
#[derive(Debug, Default)]
pub struct Counts {
    /// EDB facts after loading.
    pub facts: u64,
    /// Rule/goal graph nodes, summed over every graph built.
    pub graph_nodes: u64,
    /// Nodes removed by analysis pruning, summed over every compile.
    pub pruned_nodes: u64,
    /// Network processes, summed over every network compiled.
    pub processes: u64,
    /// Sum of `NodeAnnotation::volume` over every compiled graph that
    /// ran: the analyzer's estimate of the answer traffic.
    pub volume_estimate: f64,
}

/// A traced query's result.
pub struct Traced {
    pub answers: Vec<Tuple>,
    pub stats: Stats,
    pub counts: Counts,
}

fn deny(diags: &[Diagnostic]) -> Result<(), String> {
    match diags.iter().find(|d| d.is_deny()) {
        Some(d) => Err(format!("static verification failed: {d}")),
        None => Ok(()),
    }
}

/// Parse, load and evaluate `src` through the layers' public functions.
pub fn query(src: &str, runtime: Runtime, t: &mut Tracer) -> Result<Traced, String> {
    t.span(QUERY, |t| {
        let program = t
            .span("datalog.parse", |_| parse_program(src))
            .map_err(|e| e.to_string())?;
        let mut db = Database::new();
        t.span("datalog.load", |_| program.load_facts(&mut db))
            .map_err(|e| e.to_string())?;
        let mut counts = Counts {
            facts: db.fact_count() as u64,
            ..Counts::default()
        };
        let stats = if mp_analyze::uses_negation_or_aggregates(&program) {
            staged(&program, &db, runtime, &mut counts, t)?
        } else {
            let (graph, volume) =
                t.span(STAGED_COMPILE, |t| compile(&program, &db, &mut counts, t))?;
            counts.volume_estimate += volume;
            t.span(STAGED_PIPELINE, |t| {
                run(&graph, &db, runtime, &mut counts, t)
            })?
        };
        let (answers, stats) = stats;
        let answers = t.span(SORT, |_| answers.sorted_rows());
        Ok(Traced {
            answers,
            stats,
            counts,
        })
    })
}

/// `Engine::compile`: the verified, pruned rule/goal graph and the sum of
/// its nodes' estimated answer volumes.
fn compile(
    program: &Program,
    db: &Database,
    counts: &mut Counts,
    t: &mut Tracer,
) -> Result<(RuleGoalGraph, f64), String> {
    let mut diags = t.span("lint.program", |_| {
        mp_lint::program::lint_program(program, Some(db), None)
    });
    let (_, strat) = t.span("analyze.stratify", |_| mp_analyze::stratify(program, None));
    diags.extend(strat);
    deny(&diags)?;
    let graph = t
        .span("rulegoal.build", |_| {
            RuleGoalGraph::build(program, db, SipKind::Greedy)
        })
        .map_err(|e| e.to_string())?;
    counts.graph_nodes += graph.len() as u64;
    let diags = t.span("lint.graph", |_| {
        let mut d = mp_lint::graph::lint_graph(&graph);
        d.extend(lint_protocol(&ProtocolView::of(&graph)));
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        d.extend(mp_lint::graph::lint_parallelism(graph.len(), parallelism));
        let recursive = graph.scc().nontrivial_components().next().is_some();
        d.extend(mp_lint::graph::lint_budget(
            graph.len(),
            recursive,
            false,
            false,
        ));
        d
    });
    deny(&diags)?;
    let analysis = t.span("analyze.analyze", |_| {
        mp_analyze::analyze(program, db, &graph, None, &AnalyzeOptions::default())
    });
    let volume = analysis.nodes.iter().map(|n| n.volume).sum::<f64>();
    let pruned = t.span("analyze.prune", |_| analysis.pruned_graph(&graph));
    let Some(pruned) = pruned else {
        return Ok((graph, volume));
    };
    counts.pruned_nodes += analysis.pruned_nodes as u64;
    let post = t.span("lint.graph", |_| {
        let mut d = mp_lint::graph::lint_graph(&pruned);
        d.extend(lint_protocol(&ProtocolView::of(&pruned)));
        d
    });
    deny(&post)?;
    Ok((pruned, volume))
}

/// `evaluate_direct` after `compile`: the network and one runtime run.
fn run(
    graph: &RuleGoalGraph,
    db: &Database,
    runtime: Runtime,
    counts: &mut Counts,
    t: &mut Tracer,
) -> Result<(Relation, Stats), String> {
    let mut network = t.span("engine.network", |_| {
        let parts = partition_keys(graph);
        let plan = ShardPlan {
            shards: 1,
            fan_out: shard_fan_outs(graph, &parts, 1),
        };
        let mut n = Network::compile_sharded(graph, db, &plan);
        n.set_batching(false);
        n.set_batch_max(64);
        n
    });
    counts.processes += network.processes.len() as u64;
    let (answers, mut stats) = match runtime {
        Runtime::Sim => {
            let out = t
                .span("sim.run", |_| SimRuntime::default().run(&mut network))
                .map_err(|e| e.to_string())?;
            (out.answers, out.stats)
        }
        Runtime::Pool => {
            let rt = ThreadRuntime {
                workers: crate::ops::POOL_WORKERS,
                ..ThreadRuntime::default()
            };
            let out = t
                .span(POOL_RUN, |_| rt.run(network))
                .map_err(|e| e.to_string())?;
            (out.answers, out.stats)
        }
    };
    stats.strata_evaluated = 1;
    Ok((answers, stats))
}

/// `Engine::compile` then `Engine::evaluate_direct` on `sub`, a
/// sub-program of `program`. For every sub-run the engine clones itself,
/// which copies the whole parsed program (its inline facts included) and
/// the original EDB, then swaps in `sub` and a copy of the working
/// database, dropping the copied program and EDB. The same copies are
/// made and dropped here in the same order, so the seams between
/// sub-runs cost what they cost in the engine.
fn direct(
    program: &Program,
    sub: Program,
    edb: &Database,
    working: &Database,
    runtime: Runtime,
    counts: &mut Counts,
    t: &mut Tracer,
) -> Result<(Relation, Stats), String> {
    let (program_copy, edb_copy) = (program.clone(), edb.clone());
    drop(program_copy);
    let working = working.clone();
    drop(edb_copy);
    let (graph, volume) = compile(&sub, &working, counts, t)?;
    counts.volume_estimate += volume;
    run(&graph, &working, runtime, counts, t)
}

/// `Engine::evaluate_staged`, for negation. Folds are materialized by a
/// private engine path this replica does not mirror, so a program with an
/// aggregate is refused.
fn staged(
    program: &Program,
    db: &Database,
    runtime: Runtime,
    counts: &mut Counts,
    t: &mut Tracer,
) -> Result<(Relation, Stats), String> {
    if program.rules.iter().any(|r| r.agg.is_some()) {
        return Err("the traced pipeline does not mirror aggregate materialization".into());
    }
    t.span(STAGED_COMPILE, |t| compile(program, db, counts, t))?;
    t.span(STAGED_PIPELINE, |t| {
        let (plan, strat) = t.span("analyze.stratify", |_| mp_analyze::stratify(program, None));
        deny(&strat)?;
        let relevant = DependencyAnalysis::of(program).relevant_to_goal();
        let mut working = db.clone();
        let goal_stratum = plan.stratum(&Program::goal_pred());
        let mut spent = Stats::default();
        for s in 0..=goal_stratum {
            let stratum_rules: Vec<Rule> = program
                .rules
                .iter()
                .filter(|r| plan.stratum(&r.head.pred) == s)
                .cloned()
                .collect();
            if s == goal_stratum {
                let sub = Program {
                    rules: stratum_rules,
                    facts: Vec::new(),
                };
                let (answers, mut stats) = direct(program, sub, db, &working, runtime, counts, t)?;
                stats.merge(&spent);
                return Ok((answers, stats));
            }
            let defined_here: BTreeSet<&Predicate> =
                stratum_rules.iter().map(|r| &r.head.pred).collect();
            let mut needed: Vec<(Predicate, usize)> = Vec::new();
            for r in &program.rules {
                if plan.stratum(&r.head.pred) <= s {
                    continue;
                }
                for a in r.body.iter().chain(r.neg.iter()) {
                    if defined_here.contains(&a.pred)
                        && relevant.contains(&a.pred)
                        && !needed.iter().any(|(p, _)| *p == a.pred)
                    {
                        needed.push((a.pred.clone(), a.terms.len()));
                    }
                }
            }
            needed.sort();
            let mut sealed: Vec<(Predicate, Vec<Tuple>)> = Vec::new();
            for (pred, arity) in needed {
                let vars: Vec<Term> = (0..arity)
                    .map(|i| Term::Var(Var::new(format!("V{i}"))))
                    .collect();
                let mut rules = stratum_rules.clone();
                rules.push(Rule::new(
                    Atom::new(Program::goal_pred(), vars.clone()),
                    vec![Atom::new(pred.clone(), vars)],
                ));
                let sub = Program {
                    rules,
                    facts: Vec::new(),
                };
                let (answers, stats) = direct(program, sub, db, &working, runtime, counts, t)?;
                spent.merge(&stats);
                sealed.push((pred, answers.iter().cloned().collect()));
            }
            for (pred, tuples) in sealed {
                for tuple in tuples {
                    working
                        .insert(pred.clone(), tuple)
                        .map_err(|e| e.to_string())?;
                }
            }
        }
        Err("the stratum plan has no goal stratum".into())
    })
}
