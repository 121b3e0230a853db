//! Runtimes executing the process network.

pub mod explore;
pub mod govern;
mod sim;
mod thread;

pub use explore::{explore, ExploreConfig, ExploreReport, ScheduleViolation};
pub use govern::{CancelToken, Governor, NodeUsage, QueryBudget, Trip};
pub use sim::{Schedule, SimOutcome, SimRuntime};
pub use thread::{ThreadOutcome, ThreadRuntime};

use crate::msg::{Endpoint, Msg, Payload};
use crate::node::{Ctx, Process};
use crate::stats::Stats;
use mp_storage::{Relation, Tuple};
use mp_trace::{MsgKind, Tracer};

/// Ring capacity for recorded events (per run). Large enough for every
/// canonical workload; overruns are counted, not silently lost, and a
/// lossy trace is rejected by the checker.
pub(crate) const TRACE_RING_CAPACITY: usize = 1 << 18;

/// Map an endpoint to its trace actor id: node `i` -> `i`, the engine ->
/// `n_nodes` (the last actor).
pub(crate) fn trace_actor(ep: Endpoint, n_nodes: usize) -> u32 {
    match ep.node() {
        Some(id) => id as u32,
        None => n_nodes as u32,
    }
}

/// The engine's query injection: the top-level relation request, one
/// tuple request per binding of the goal's `d` arguments (a single unit
/// request for the standard query), and end-of-requests.
pub(crate) fn initial_requests(root: usize, requests: impl IntoIterator<Item = Tuple>) -> Vec<Msg> {
    let to = Endpoint::Node(root);
    let msg = |payload| Msg {
        from: Endpoint::Engine,
        to,
        payload,
    };
    let mut out = vec![msg(Payload::RelationRequest)];
    out.extend(
        requests
            .into_iter()
            .map(|binding| msg(Payload::TupleRequest { binding })),
    );
    out.push(msg(Payload::EndOfRequests));
    out
}

/// Answer collection at the engine endpoint, shared by both runtimes.
pub(crate) struct EngineSink {
    /// Answers received so far.
    pub answers: Relation,
    /// `End` messages received (Thm 3.1: exactly 1 on success).
    pub ends: u64,
    /// Answers received after an `End` (Thm 3.1: 0).
    pub post_end_answers: u64,
}

impl EngineSink {
    pub(crate) fn new(arity: usize) -> EngineSink {
        EngineSink {
            answers: Relation::new(arity),
            ends: 0,
            post_end_answers: 0,
        }
    }

    /// Consume one logical message at the engine endpoint. Returns
    /// `Ok(true)` on `End`, `Ok(false)` to keep collecting, or a typed
    /// error — never panics, whatever arrives.
    pub(crate) fn engine_accept(&mut self, msg: Msg) -> Result<bool, RuntimeError> {
        match msg.payload {
            Payload::Answer { tuple } => self.answer(tuple)?,
            Payload::AnswerBatch { tuples } => {
                for tuple in tuples {
                    self.answer(tuple)?;
                }
            }
            Payload::End => {
                self.ends += 1;
                return Ok(true);
            }
            Payload::EndTupleRequest { .. } | Payload::EndTupleRequestBatch { .. } => {}
            other => {
                return Err(RuntimeError::UnexpectedEngineMessage {
                    kind: other.kind_name(),
                })
            }
        }
        Ok(false)
    }

    fn answer(&mut self, tuple: Tuple) -> Result<(), RuntimeError> {
        if self.ends > 0 {
            self.post_end_answers += 1;
        }
        let got = tuple.arity();
        self.answers
            .insert(tuple)
            .map(|_| ())
            .map_err(|_| RuntimeError::AnswerArity {
                expected: self.answers.arity(),
                got,
                partial_answers: self.answers.len(),
            })
    }
}

/// Crash a node and recover it, write-ahead-log style: bump its epoch,
/// rebuild its computation state by replaying its durable `log` of
/// processed messages through a clone of its `pristine` initial state,
/// then announce the rebirth (`Reborn`, which aborts any wave in flight
/// at the BFST parent) into `out` for the caller to send. Replayed
/// outputs are discarded — they were already sent, and sequenced
/// durably, before the crash — and a scratch stats sink keeps replayed
/// work out of the run's counters.
pub(crate) fn recover(
    process: &mut Process,
    pristine: &Process,
    log: &[Msg],
    epoch: &mut u64,
    stats: &mut Stats,
    mut tracer: Option<&mut Tracer>,
    out: &mut Vec<Msg>,
) {
    stats.crashes += 1;
    stats.epoch_bumps += 1;
    *epoch += 1;
    if let Some(tr) = tracer.as_mut() {
        tr.on_crash(*epoch);
    }
    let mut fresh = pristine.clone();
    let mut scratch = Stats::default();
    let mut discard: Vec<Msg> = Vec::new();
    let mut replayed: u64 = 0;
    for m in log {
        // Wave probes and replies are not replayed: protocol state
        // resets at restart and is rebuilt by fresh epoch-tagged waves.
        // `SccFinished` IS replayed — it is durable component state
        // (finished, feeders released), not wave state.
        if matches!(
            m.payload,
            Payload::EndRequest { .. }
                | Payload::EndNegative { .. }
                | Payload::EndConfirmed { .. }
                | Payload::Reborn { .. }
        ) {
            continue;
        }
        let mut ctx = Ctx {
            out: &mut discard,
            stats: &mut scratch,
            // Never report an empty mailbox during replay: a leader must
            // not originate a probe wave whose messages would be
            // discarded.
            mailbox_empty: false,
            pressure: false,
            // Replayed deliveries were already recorded pre-crash.
            tracer: None,
        };
        fresh.handle(m.clone(), &mut ctx);
        discard.clear();
        replayed += 1;
    }
    stats.replayed += replayed;
    if let Some(tr) = tracer {
        tr.on_recover(*epoch, replayed);
    }
    fresh.restarted(*epoch, out);
    *process = fresh;
}

/// Build the typed governance error for a tripped run, after the cancel
/// wave drained the network. Shared by the simulator and the pool so
/// both runtimes surface identical error shapes.
pub(crate) fn budget_error(
    t: govern::Trip,
    governor: &govern::Governor,
    partial: Vec<mp_storage::Tuple>,
    accounting: Vec<govern::NodeUsage>,
    cancel_waves: u64,
) -> RuntimeError {
    match t {
        govern::Trip::Cancelled => RuntimeError::Cancelled {
            partial,
            accounting,
            cancel_waves,
        },
        govern::Trip::Messages | govern::Trip::Bytes => {
            let (limit, used) = governor.trip_report(t);
            RuntimeError::BudgetExceeded {
                resource: t,
                limit,
                used,
                partial,
                accounting,
                cancel_waves,
            }
        }
    }
}

/// Describe a payload for the trace: `(kind, logical items, wave,
/// epoch)`. Wave/epoch are 0 for non-termination payloads.
pub(crate) fn describe_payload(p: &Payload) -> (MsgKind, u64, u64, u64) {
    match p {
        Payload::RelationRequest => (MsgKind::RelationRequest, 1, 0, 0),
        Payload::TupleRequest { .. } => (MsgKind::TupleRequest, 1, 0, 0),
        Payload::TupleRequestBatch { bindings } => {
            (MsgKind::TupleRequestBatch, bindings.len() as u64, 0, 0)
        }
        Payload::EndOfRequests => (MsgKind::EndOfRequests, 1, 0, 0),
        Payload::Answer { .. } => (MsgKind::Answer, 1, 0, 0),
        Payload::AnswerBatch { tuples } => (MsgKind::AnswerBatch, tuples.len() as u64, 0, 0),
        Payload::EndTupleRequest { .. } => (MsgKind::EndTupleRequest, 1, 0, 0),
        Payload::EndTupleRequestBatch { bindings } => {
            (MsgKind::EndTupleRequestBatch, bindings.len() as u64, 0, 0)
        }
        Payload::End => (MsgKind::End, 1, 0, 0),
        Payload::EndRequest { wave, epoch } => (MsgKind::EndRequest, 1, *wave, *epoch),
        Payload::EndNegative { wave, epoch } => (MsgKind::EndNegative, 1, *wave, *epoch),
        Payload::EndConfirmed { wave, epoch, .. } => (MsgKind::EndConfirmed, 1, *wave, *epoch),
        Payload::SccFinished => (MsgKind::SccFinished, 1, 0, 0),
        Payload::Reborn { epoch } => (MsgKind::Reborn, 1, 0, *epoch),
        Payload::Cancel { wave, epoch } => (MsgKind::Cancel, 1, *wave, *epoch),
        Payload::Shutdown => (MsgKind::Shutdown, 1, 0, 0),
    }
}

/// Errors raised while running a network. Every variant is a graceful
/// failure: no runtime code path panics on a received message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The step budget was exhausted (runaway computation guard).
    Diverged {
        /// Steps executed.
        steps: u64,
    },
    /// The network went quiescent without delivering the final `End` —
    /// a termination-protocol failure (should be impossible; kept as a
    /// first-class error so tests can assert it never happens).
    NoTermination,
    /// The threaded runtime timed out waiting for the final `End`.
    /// Carries enough of the abort-time state to diagnose the hang.
    Timeout {
        /// The configured timeout in milliseconds.
        budget_millis: u64,
        /// Wall-clock time actually elapsed at abort, in milliseconds.
        elapsed_millis: u64,
        /// Answers collected before the abort.
        partial_answers: usize,
        /// Per-node pending mailbox depths at abort: `(node, depth)`,
        /// nonzero depths only.
        pending: Vec<(usize, usize)>,
        /// Nodes whose worker threads failed to stop within the drain
        /// grace period (empty when shutdown was clean).
        unjoined: Vec<usize>,
    },
    /// An answer reaching the engine did not match the goal's arity —
    /// a corrupted or misrouted frame survived to the top.
    AnswerArity {
        /// The goal arity.
        expected: usize,
        /// The arity received.
        got: usize,
        /// Answers collected before the bad frame.
        partial_answers: usize,
    },
    /// The engine received a message kind it has no business receiving.
    UnexpectedEngineMessage {
        /// The payload's kind name.
        kind: &'static str,
    },
    /// The reliable transport gave up on a link: a message stayed
    /// unacked through the retransmission budget (only reachable at
    /// extreme fault rates, or with recovery disabled under faults).
    RetransmitExhausted {
        /// Sending node (`usize::MAX` = the engine).
        from: usize,
        /// Receiving node (`usize::MAX` = the engine).
        to: usize,
        /// Retransmission rounds attempted.
        retries: u32,
    },
    /// A node crashed (per the fault plan) with recovery disabled.
    LinkDown {
        /// The crashed node.
        node: usize,
    },
    /// The OS refused to spawn a worker thread (resource exhaustion).
    /// Surfaced as a typed error instead of the `std::thread::spawn`
    /// panic so a huge graph degrades gracefully.
    WorkerSpawn {
        /// The node whose worker could not be started.
        node: usize,
        /// The OS error text.
        reason: String,
    },
    /// A [`QueryBudget`] limit (logical messages or memory high-water)
    /// was crossed: the runtime ran a cancel drain wave and stopped
    /// cleanly, keeping the answers derived so far.
    BudgetExceeded {
        /// Which limit tripped.
        resource: Trip,
        /// The configured limit (messages, or bytes).
        limit: u64,
        /// Usage observed when the trip was reported.
        used: u64,
        /// Answers collected before the abort, in arrival order.
        partial: Vec<Tuple>,
        /// Per-node resource accounting at abort, in node-id order.
        accounting: Vec<NodeUsage>,
        /// Cancel waves run while draining (≥ 1).
        cancel_waves: u64,
    },
    /// The evaluation was cancelled through the engine's
    /// [`CancelToken`]: a cancel drain wave ran and the runtime stopped
    /// cleanly, keeping the answers derived so far.
    Cancelled {
        /// Answers collected before the cancel, in arrival order.
        partial: Vec<Tuple>,
        /// Per-node resource accounting at abort, in node-id order.
        accounting: Vec<NodeUsage>,
        /// Cancel waves run while draining (≥ 1).
        cancel_waves: u64,
    },
}

/// Render the busiest rows of a per-node accounting vector (bounded, so
/// error strings stay readable on large graphs).
fn fmt_accounting(f: &mut std::fmt::Formatter<'_>, accounting: &[NodeUsage]) -> std::fmt::Result {
    if accounting.is_empty() {
        return Ok(());
    }
    let mut rows: Vec<&NodeUsage> = accounting.iter().collect();
    rows.sort_by_key(|u| std::cmp::Reverse(u.messages_processed));
    write!(f, "; busiest nodes:")?;
    for u in rows.iter().take(4) {
        write!(
            f,
            " #{}={}msg/{}q/{}B",
            u.node, u.messages_processed, u.mailbox_depth, u.mem_bytes
        )?;
    }
    Ok(())
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Diverged { steps } => {
                write!(f, "evaluation exceeded {steps} steps")
            }
            RuntimeError::NoTermination => write!(
                f,
                "network quiescent without end message: termination protocol failure"
            ),
            RuntimeError::Timeout {
                budget_millis,
                elapsed_millis,
                partial_answers,
                pending,
                unjoined,
            } => {
                write!(
                    f,
                    "threaded evaluation timed out after {elapsed_millis} ms \
                     (budget {budget_millis} ms); {partial_answers} partial answers"
                )?;
                if !pending.is_empty() {
                    write!(f, "; pending mailboxes:")?;
                    for (node, depth) in pending {
                        write!(f, " #{node}={depth}")?;
                    }
                }
                if !unjoined.is_empty() {
                    write!(f, "; workers failed to stop:")?;
                    for node in unjoined {
                        write!(f, " #{node}")?;
                    }
                }
                Ok(())
            }
            RuntimeError::AnswerArity {
                expected,
                got,
                partial_answers,
            } => write!(
                f,
                "answer arity mismatch at the engine: expected {expected}, got {got} \
                 ({partial_answers} partial answers)"
            ),
            RuntimeError::UnexpectedEngineMessage { kind } => {
                write!(
                    f,
                    "unexpected message kind `{kind}` delivered to the engine"
                )
            }
            RuntimeError::RetransmitExhausted { from, to, retries } => {
                let show = |e: &usize| {
                    if *e == usize::MAX {
                        "engine".to_string()
                    } else {
                        format!("#{e}")
                    }
                };
                write!(
                    f,
                    "transport gave up on link {} -> {} after {retries} retransmissions",
                    show(from),
                    show(to)
                )
            }
            RuntimeError::LinkDown { node } => {
                write!(f, "node #{node} crashed and recovery is disabled")
            }
            RuntimeError::WorkerSpawn { node, reason } => {
                write!(
                    f,
                    "could not spawn worker thread for node #{node}: {reason}"
                )
            }
            RuntimeError::BudgetExceeded {
                resource,
                limit,
                used,
                partial,
                accounting,
                cancel_waves,
            } => {
                let what = match resource {
                    Trip::Messages => "logical messages",
                    Trip::Bytes => "memory bytes",
                    Trip::Cancelled => "cancelled",
                };
                write!(
                    f,
                    "query budget exceeded ({what}: used {used} of limit {limit}); \
                     {} partial answers kept after {cancel_waves} cancel wave(s)",
                    partial.len()
                )?;
                fmt_accounting(f, accounting)
            }
            RuntimeError::Cancelled {
                partial,
                accounting,
                cancel_waves,
            } => {
                write!(
                    f,
                    "evaluation cancelled; {} partial answers kept after \
                     {cancel_waves} cancel wave(s)",
                    partial.len()
                )?;
                fmt_accounting(f, accounting)
            }
        }
    }
}

impl std::error::Error for RuntimeError {}
