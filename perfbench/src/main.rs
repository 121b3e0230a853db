//! `perfbench` — one benchmark run. `run.sh` builds `mpq` and this
//! binary from source and starts it:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --mpq PATH --workdir DIR
//! perfbench --benchmark-json        print BENCHMARK.json
//! ```
//!
//! The last line of stdout is the result object; the line before it is
//! the run's provenance. A human-readable summary goes to stderr. A run
//! whose logical counters do not repeat, or that cannot set up, exits 1
//! without a result.

use perfbench::report::{json_str, result_line};
use perfbench::workload::Scale;
use perfbench::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Full,
        mpq: PathBuf::new(),
        workdir: PathBuf::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--mpq" => cfg.mpq = PathBuf::from(value()?),
            "--workdir" => cfg.workdir = PathBuf::from(value()?),
            "--benchmark-json" => {
                print!("{}", perfbench::benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cfg.workload.is_empty() || cfg.seconds <= 0.0 {
        return Err("--workload and a positive --seconds are required".into());
    }
    if !cfg.trace && !cfg.mpq.is_file() {
        return Err(format!(
            "--mpq must name the mpq binary (got `{}`)",
            cfg.mpq.display()
        ));
    }
    if cfg.workdir.as_os_str().is_empty() {
        return Err("--workdir is required".into());
    }
    Ok(cfg)
}

/// What the numbers were measured on and with.
fn provenance(cfg: &Config, speed: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let pool = format!(
        "pool runs use {} workers on {nproc} CPUs",
        perfbench::ops::POOL_WORKERS
    );
    let fields = [
        ("workload", cfg.workload.clone()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env("PERFBENCH_RUSTC")),
        ("git_commit", env("PERFBENCH_GIT_COMMIT")),
        ("source_sha256", env("PERFBENCH_SOURCE_SHA256")),
        ("pool", pool),
        ("machine_speed", speed.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (prep, outcome, setup_s) = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    let provenance = provenance(&cfg, outcome.speed);
    eprintln!(
        "perfbench: {} seed {} ({}), set-up {setup_s:.3} s",
        prep.name,
        cfg.seed,
        if prep.staged { "staged" } else { "flat" }
    );
    for inst in &prep.instances {
        eprintln!(
            "  instance {}: {} facts, {} reference answers",
            inst.seed,
            inst.facts,
            inst.reference.len()
        );
    }
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(op, n)| format!("{op} {n}"))
        .collect();
    eprintln!("  samples: {}", samples.join(", "));
    eprintln!(
        "  machine speed {:.3} (calibration kernel median {:.2} ms over {} samples, nominal {} ms)",
        outcome.speed,
        outcome.speed * perfbench::calibrate::NOMINAL_MS,
        outcome.calibration.len(),
        perfbench::calibrate::NOMINAL_MS
    );
    eprintln!(
        "  {:<26} {:>14} {:>14}",
        "metric", "reported", "as measured"
    );
    for (m, raw) in outcome.metrics.iter().zip(&outcome.raw) {
        eprintln!(
            "  {:<26} {:>14.4} {:>14.4} {}",
            m.name, m.value, raw.value, m.unit
        );
    }
    for note in &outcome.notes {
        eprintln!("  note: {note}");
    }
    let t = &outcome.tally;
    eprintln!(
        "  checked {} engine operations, {} failed (error rate {:.4})",
        t.attempted,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for e in &t.errors {
        eprintln!("  error: {e}");
    }
    println!("{provenance}");
    println!(
        "{}",
        result_line(t.failed == 0, t.attempted, t.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
