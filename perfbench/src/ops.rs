//! The timed operations, each run on the same `.dl` text: the in-process
//! engine on either runtime, a fresh `mpq` process, and the magic-sets
//! and top-down baselines. Each returns what the caller checks against
//! the reference: sorted answers, or `mpq`'s printed output.

use mp_baselines::{EvalStats, Evaluator, MagicSets, TopDown};
use mp_datalog::parser::parse_program;
use mp_datalog::Database;
use mp_engine::{Engine, RuntimeKind, Schedule, Stats};
use mp_storage::Tuple;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};

/// Worker-pool size for every pooled run: the benchmark's thread budget.
pub const POOL_WORKERS: usize = 2;

/// The engine's default runtime: the deterministic FIFO simulator.
pub const SIM: RuntimeKind = RuntimeKind::Sim(Schedule::Fifo);

/// The logical counters the simulator must repeat exactly on every run of
/// the same query (Thm 4.1's schedule invariance, FIFO determinism).
pub type SimCounters = [u64; 12];

/// The counters that must also agree between the simulator and the
/// worker pool. The pool's protocol traffic, probe waves and the tail of
/// its end cascade legitimately vary with timing, so they are left out.
pub type LogicalCounters = [u64; 4];

/// See [`SimCounters`].
pub fn sim_counters(s: &Stats) -> SimCounters {
    [
        s.relation_requests,
        s.logical_tuple_requests,
        s.logical_answers,
        s.logical_end_tuple_requests,
        s.stream_ends,
        s.protocol_messages,
        s.derived_tuples,
        s.stored_tuples,
        s.goal_stored,
        s.join_probes,
        s.edb_lookups,
        s.strata_evaluated,
    ]
}

/// See [`LogicalCounters`].
pub fn logical_counters(s: &Stats) -> LogicalCounters {
    [
        s.relation_requests,
        s.logical_tuple_requests,
        s.logical_answers,
        s.logical_end_tuple_requests,
    ]
}

/// One in-process query: `parse_program`, `Engine::new` over an empty
/// database (which loads the inline facts), `evaluate`, sorted answers.
pub fn engine_query(src: &str, runtime: RuntimeKind) -> Result<(Vec<Tuple>, Stats), String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    let mut engine = Engine::new(program, Database::new()).with_runtime(runtime);
    if runtime == RuntimeKind::Threads {
        engine = engine.with_workers(POOL_WORKERS);
    }
    let out = engine.evaluate().map_err(|e| e.to_string())?;
    Ok((out.answers.sorted_rows(), out.stats))
}

/// A yardstick evaluator from `mp-baselines`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Baseline {
    Magic,
    TopDown,
}

impl Baseline {
    /// Evaluate an already loaded program.
    pub fn evaluate(
        self,
        program: &mp_datalog::Program,
        db: &Database,
    ) -> Result<(Vec<Tuple>, EvalStats), String> {
        let out = match self {
            Baseline::Magic => MagicSets::default().evaluate(program, db),
            Baseline::TopDown => TopDown.evaluate(program, db),
        }
        .map_err(|e| e.to_string())?;
        Ok((out.answers.sorted_rows(), out.stats))
    }
}

/// One finished `mpq` process.
pub struct MpqRun {
    pub stdout: String,
    /// The child's peak resident set in MiB, as the kernel reports it.
    pub peak_rss_mb: f64,
}

/// Run `mpq FILE` to completion. A non-zero exit is an error carrying
/// the exit status.
pub fn mpq_query(mpq: &Path, file: &Path) -> Result<MpqRun, String> {
    let mut child = Command::new(mpq)
        .arg(file)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", mpq.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    // Reaped here rather than by `Child::wait`, which cannot report the
    // child's resource usage.
    let (code, maxrss_kib) = wait_with_rusage(child.id())?;
    read.map_err(|e| format!("reading mpq output: {e}"))?;
    match code {
        Some(0) => Ok(MpqRun {
            stdout,
            peak_rss_mb: maxrss_kib as f64 / 1024.0,
        }),
        Some(c) => Err(format!("mpq exited with status {c}")),
        None => Err("mpq was killed by a signal".into()),
    }
}

/// Wait for child `pid` with `wait4`: its exit code (`None` if a signal
/// ended it) and its peak resident set in KiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_with_rusage(pid: u32) -> Result<(Option<i32>, i64), String> {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s, then 14
    // `long`s, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    }
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values; `usage`
        // has the layout of this target's C `struct rusage` (guarded by
        // the cfg above), and `wait4` writes at most those two objects.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("waiting for mpq: {err}"));
        }
    }
    // WIFEXITED / WEXITSTATUS.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, usage.maxrss))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_with_rusage(_pid: u32) -> Result<(Option<i32>, i64), String> {
    Err("timing mpq needs wait4 on 64-bit Linux".into())
}
