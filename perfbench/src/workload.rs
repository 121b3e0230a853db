//! Workload generation: a seeded `mp_workloads::scenarios` instance,
//! rendered to `.dl` text, with its reference answers from an evaluator
//! independent of `mp-engine`.

use mp_baselines::{Evaluator, PerfectModel, TopDown};
use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_storage::{Tuple, Value};
use mp_workloads::scenarios::{self, Workload};
use std::fmt::Write as _;

/// The workloads the benchmark can generate. `BENCHMARK.json` lists
/// them in this order, all but `nonlinear-chain` (see
/// [`crate::WORKLOADS`]).
pub const NAMES: [&str; 3] = ["sg-tree", "nonlinear-chain", "win-move"];

/// Input size: `Full` is what the benchmark measures, `Quick` keeps the
/// same shapes small enough for the harness's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

/// Generate the named workload from `seed`. `nonlinear-chain` is a
/// fixed chain, so its seed changes nothing.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Result<Workload, String> {
    let quick = scale == Scale::Quick;
    Ok(match name {
        "sg-tree" if quick => scenarios::sg_tree(4, 2, seed),
        "sg-tree" => scenarios::sg_tree(8, 3, seed),
        "nonlinear-chain" => scenarios::tc_nonlinear_chain(if quick { 12 } else { 100 }),
        "win-move" if quick => scenarios::win_move(100, 300, seed),
        "win-move" => scenarios::win_move(3000, 12000, seed),
        other => return Err(format!("unknown workload `{other}` (known: {NAMES:?})")),
    })
}

/// How many generated instances a run of `name` measures in turn. The
/// answer volume of `sg-tree` depends strongly on its seed (800 to 5,400
/// answers from the queried leaf), so a run averages over several trees;
/// the other workloads cost the same on every seed.
pub fn instances(name: &str, scale: Scale) -> u64 {
    match (name, scale) {
        ("sg-tree", Scale::Full) => 8,
        ("sg-tree", Scale::Quick) => 2,
        _ => 1,
    }
}

/// Render a workload as one `.dl` source: every EDB fact, then the
/// rules, with the query as its `goal` rule.
pub fn render(w: &Workload) -> Result<String, String> {
    let mut out = String::new();
    for (pred, rel) in w.db.iter() {
        for row in rel.sorted_rows() {
            out.push_str(pred.name());
            if row.arity() > 0 {
                out.push('(');
                for (i, v) in row.values().iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    match v {
                        Value::Int(n) => write!(out, "{n}").expect("write to String"),
                        Value::Str(s) => {
                            out.push('"');
                            for c in s.as_str().chars() {
                                if c == '"' || c == '\\' {
                                    out.push('\\');
                                }
                                out.push(c);
                            }
                            out.push('"');
                        }
                    }
                }
                out.push(')');
            }
            out.push_str(".\n");
        }
    }
    for rule in &w.program.rules {
        writeln!(out, "{rule}").expect("write to String");
    }
    // The text must mean exactly the generated workload.
    let parsed = parse_program(&out).map_err(|e| format!("rendered .dl does not parse: {e}"))?;
    let mut db = Database::new();
    parsed
        .load_facts(&mut db)
        .map_err(|e| format!("rendered facts do not load: {e}"))?;
    if parsed.rules != w.program.rules || db.fact_count() != w.db.fact_count() {
        return Err(format!("{}: rendered .dl does not round-trip", w.name));
    }
    Ok(out)
}

/// True when the program needs the staged (per-stratum) pipeline.
pub fn is_staged(w: &Workload) -> bool {
    mp_analyze::uses_negation_or_aggregates(&w.program)
}

/// Reference answers, sorted: `PerfectModel` on stratified programs and
/// `TopDown` on flat ones (the evaluator `tests/agreement.rs` holds to
/// `Naive`). Neither shares code with `mp-engine`.
pub fn reference(w: &Workload) -> Result<Vec<Tuple>, String> {
    let ev: &dyn Evaluator = if is_staged(w) {
        &PerfectModel
    } else {
        &TopDown
    };
    let out = ev
        .evaluate(&w.program, &w.db)
        .map_err(|e| format!("reference evaluator {} failed: {e}", ev.name()))?;
    Ok(out.answers.sorted_rows())
}

/// The stdout `mpq FILE` prints for these answers: one tuple per line.
pub fn mpq_stdout(rows: &[Tuple]) -> String {
    let mut out = String::new();
    for t in rows {
        writeln!(out, "{t}").expect("write to String");
    }
    out
}
