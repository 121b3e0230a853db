//! The deterministic simulated network.
//!
//! Per-node FIFO mailboxes with atomic enqueue — exactly the 1986 model
//! of processes with operating-system message queues. Scheduling is
//! pluggable: global-FIFO (fully deterministic) or seeded-random node
//! activation (still deterministic given the seed, and per-sender FIFO is
//! preserved because each node's mailbox is a queue). The random schedule
//! is how the tests adversarially exercise Thm 3.1.
//!
//! One scheduling loop serves every run. Without a [`FaultPlan`] a
//! logical send lands in its mailbox at once: no sequence numbers, no
//! per-link state. With a plan, each endpoint sends through its own
//! [`Transport`] (the same recovery transport the threaded runtime uses)
//! and the simulator only keeps the wire: frames are delivered in
//! `(deliver_at, uid)` order on a clock of one tick per processed
//! message. Drops, duplicates, delays and corruption are repaired by the
//! transport's acks and retransmissions, and node crashes by
//! [`recover`]ing the node's durable message log (write-ahead-log
//! semantics — see DESIGN.md).
//!
//! Sharded evaluation needs no simulator changes: shard instances are
//! ordinary physical processes, and the two-level termination wave —
//! per-shard-group idleness aggregated at each group's captain (shard 0)
//! before the cross-group leader concludes — is just the §3.2 probe wave
//! over the deeper captain-extended BFST that [`Network::compile_sharded`]
//! builds. The epoch tags and Mattern counters work unchanged because the
//! captain links are counted like any other intra-component edge.

use crate::fault::{FaultPlan, Frame, Transport};
use crate::msg::{Endpoint, Msg, Payload};
use crate::node::{Ctx, Network, Process};
use crate::runtime::govern::{CancelToken, Governor, NodeUsage, QueryBudget, Trip};
use crate::runtime::{
    budget_error, describe_payload, initial_requests, recover, trace_actor, EngineSink,
    RuntimeError, TRACE_RING_CAPACITY,
};
use crate::stats::Stats;
use mp_storage::{Relation, Tuple};
use mp_trace::{Event, Ring, Stamp, Trace, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Event recording for a simulated run: one [`Tracer`] per node plus the
/// engine, and per-link stamp queues standing in for the wire. Logical
/// delivery is exactly-once FIFO per link (with a fault plan, the
/// transport guarantees it), so a front-pop always pairs a delivery with
/// its send stamp.
pub(crate) struct SimTracing {
    n: usize,
    tracers: Vec<Tracer>,
    pending: BTreeMap<(Endpoint, Endpoint), VecDeque<Stamp>>,
    ring: Arc<Ring<Event>>,
}

impl SimTracing {
    pub(crate) fn new(n: usize) -> Self {
        let ring = Arc::new(Ring::with_capacity(TRACE_RING_CAPACITY));
        let tracers = (0..=n)
            .map(|i| Tracer::new(i as u32, (n + 1) as u32, Arc::clone(&ring)))
            .collect();
        SimTracing {
            n,
            tracers,
            pending: BTreeMap::new(),
            ring,
        }
    }

    /// Record a logical send (and the batch flush it implies when the
    /// frame packages several logical items).
    fn on_send(&mut self, msg: &Msg) {
        let (kind, items, wave, epoch) = describe_payload(&msg.payload);
        let actor = trace_actor(msg.from, self.n) as usize;
        let to = trace_actor(msg.to, self.n);
        if items > 1 {
            self.tracers[actor].on_flush(items);
        }
        let stamp = self.tracers[actor].on_send(to, kind, items, wave, epoch);
        self.pending
            .entry((msg.from, msg.to))
            .or_default()
            .push_back(stamp);
    }

    /// Record a logical delivery, pairing it with its send stamp.
    fn on_deliver(&mut self, msg: &Msg) {
        let (kind, items, wave, epoch) = describe_payload(&msg.payload);
        let stamp = self
            .pending
            .get_mut(&(msg.from, msg.to))
            .and_then(|q| q.pop_front());
        let actor = trace_actor(msg.to, self.n) as usize;
        let from = trace_actor(msg.from, self.n);
        self.tracers[actor].on_deliver(from, stamp.as_ref(), kind, items, wave, epoch);
    }

    fn finish(self) -> Trace {
        mp_trace::collect((self.n + 1) as u32, &self.ring)
    }
}

/// Message scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Global FIFO: messages delivered in send order.
    Fifo,
    /// Seeded random node activation (per-node mailboxes stay FIFO).
    Random(u64),
}

/// Result of a simulated run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The answer relation collected at the engine endpoint.
    pub answers: Relation,
    /// Instrumentation counters.
    pub stats: Stats,
    /// Full message trace, if requested.
    pub trace: Option<Vec<Msg>>,
    /// Clock-stamped event trace, if requested (same flag): the input to
    /// `mp_trace::check` and to deterministic replay.
    pub events: Option<Trace>,
    /// `End` messages delivered to the engine (Thm 3.1 observable:
    /// must be exactly 1 on success).
    pub engine_ends: u64,
    /// Answers delivered after the final `End` (Thm 3.1 observable:
    /// must be 0).
    pub post_end_answers: u64,
}

/// The simulator.
#[derive(Clone, Debug)]
pub struct SimRuntime {
    /// Scheduling policy.
    pub schedule: Schedule,
    /// Record every routed message.
    pub trace: bool,
    /// Fault-injection plan; `None` runs the pristine 1986 model with
    /// zero transport overhead.
    pub fault_plan: Option<FaultPlan>,
    /// Recover crashed nodes by log replay. With recovery disabled a
    /// scheduled crash aborts the run with [`RuntimeError::LinkDown`].
    pub recovery: bool,
    /// Resource budget: the step guard (`max_steps`, raising
    /// [`RuntimeError::Diverged`]), the wall-clock deadline, logical
    /// messages, memory, and the mailbox bound.
    pub budget: QueryBudget,
    /// Cooperative cancellation handle; tripping it triggers a cancel
    /// wave and a typed [`RuntimeError::Cancelled`].
    pub cancel: CancelToken,
}

impl Default for SimRuntime {
    fn default() -> Self {
        SimRuntime {
            schedule: Schedule::Fifo,
            trace: false,
            fault_plan: None,
            recovery: true,
            budget: QueryBudget::default(),
            cancel: CancelToken::default(),
        }
    }
}

impl SimRuntime {
    /// Run the network to completion: inject the top-level relation
    /// request, one (unit or given) tuple request, and end-of-requests;
    /// drive messages until quiescence; require the final `End`.
    pub fn run(&self, network: &mut Network) -> Result<SimOutcome, RuntimeError> {
        self.run_with_requests(network, std::iter::once(Tuple::unit()))
    }

    /// Like [`SimRuntime::run`] with explicit top-level tuple requests
    /// (bindings for the goal's `d` arguments — the standard query has
    /// none, hence a single unit request).
    pub fn run_with_requests(
        &self,
        network: &mut Network,
        requests: impl IntoIterator<Item = Tuple>,
    ) -> Result<SimOutcome, RuntimeError> {
        let initial = initial_requests(network.root, requests);
        self.drive(network, initial, self.fault_plan.as_ref(), &[])
    }

    /// Re-execute a recorded delivery schedule: at each step the next
    /// actor in `activations` (a recorded trace's
    /// [`Trace::activation_order`]) processes its front message;
    /// activations whose mailbox is empty are skipped, and once the
    /// recording is exhausted the run finishes FIFO. Per-link FIFO makes
    /// each node consume messages in the recorded per-link order, so a
    /// threaded run's schedule reproduces deterministically (answers and
    /// logical counters are schedule-invariant — Thm 3.1/4.1 — which is
    /// exactly what the replay tests assert). Fault plans do not apply:
    /// replay re-executes the *logical* history, which the recovery
    /// transport already made exactly-once.
    pub fn run_replay(
        &self,
        network: &mut Network,
        requests: impl IntoIterator<Item = Tuple>,
        activations: &[u32],
    ) -> Result<SimOutcome, RuntimeError> {
        let initial = initial_requests(network.root, requests);
        self.drive(network, initial, None, activations)
    }

    /// The scheduling loop: deliver due wire frames, pick the next node
    /// (recorded schedule, then FIFO or seeded random), process its
    /// front message, route its outputs; run until quiescent.
    fn drive(
        &self,
        network: &mut Network,
        initial: Vec<Msg>,
        plan: Option<&FaultPlan>,
        replay: &[u32],
    ) -> Result<SimOutcome, RuntimeError> {
        let n = network.processes.len();
        let mut sim = Sim {
            n,
            mailboxes: vec![VecDeque::new(); n],
            fifo_tokens: VecDeque::new(),
            stats: Stats::default(),
            trace: self.trace.then(Vec::new),
            tracing: self.trace.then(|| SimTracing::new(n)),
            sink: EngineSink::new(network.answer_arity),
            governor: Governor::new(self.budget.clone(), self.cancel.clone()),
            processed: vec![0; n],
            wire: plan.map(|p| SimWire::new(network, p, &self.budget)),
        };
        let mut rng = match self.schedule {
            Schedule::Fifo => None,
            Schedule::Random(seed) => Some(ChaCha8Rng::seed_from_u64(seed)),
        };
        for m in initial {
            sim.send(m)?;
        }

        let mut out: Vec<Msg> = Vec::new();
        let mut steps: u64 = 0;
        let mut replay_cursor = 0usize;
        let started = Instant::now();
        let mut trip: Option<Trip> = None;
        loop {
            // Resource-governance trip: on the first observed trip,
            // broadcast one cancel wave to every node and keep
            // scheduling. Cancelled nodes drain their mailboxes without
            // producing more answers (MP310), so the loop reaches
            // quiescence and returns the typed error below instead of
            // aborting mid-protocol with frames still in flight. On the
            // wire the Cancel frames are sequenced and logged like any
            // other, so a node that crashes mid-drain re-learns its
            // cancellation from log replay.
            if trip.is_none() {
                if let Some(t) = sim.governor.tripped() {
                    trip = Some(t);
                    sim.stats.cancel_waves += 1;
                    for id in 0..n {
                        sim.send(Msg {
                            from: Endpoint::Engine,
                            to: Endpoint::Node(id),
                            payload: Payload::Cancel { wave: 1, epoch: 0 },
                        })?;
                    }
                }
            }
            sim.deliver_due()?;

            // A recorded schedule takes precedence; its activations with
            // an empty mailbox are skipped (the recorded run may contain
            // protocol traffic a re-execution doesn't reproduce 1:1) and
            // FIFO finishes whatever the recording doesn't cover.
            let mut next = None;
            while next.is_none() && replay_cursor < replay.len() {
                let id = replay[replay_cursor] as usize;
                replay_cursor += 1;
                if id < n && !sim.mailboxes[id].is_empty() {
                    next = Some(id);
                }
            }
            if next.is_none() {
                next = match &mut rng {
                    None => loop {
                        match sim.fifo_tokens.pop_front() {
                            Some(id) if !sim.mailboxes[id].is_empty() => break Some(id),
                            Some(_) => continue,
                            None => break None,
                        }
                    },
                    Some(rng) => {
                        let nonempty: Vec<usize> =
                            (0..n).filter(|&i| !sim.mailboxes[i].is_empty()).collect();
                        if nonempty.is_empty() {
                            None
                        } else {
                            Some(nonempty[rng.gen_range(0..nonempty.len())])
                        }
                    }
                };
            }
            let Some(id) = next else {
                // Nothing deliverable. On the wire, advance time to the
                // next frame or force a retransmission round; stop once
                // everything is drained and acked.
                if sim.wire_pending()? {
                    continue;
                }
                break;
            };
            let Some(msg) = sim.mailboxes[id].pop_front() else {
                continue;
            };
            sim.governor.note_dequeue(msg.payload.approx_bytes());
            steps += 1;
            if steps > self.budget.max_steps {
                return Err(RuntimeError::Diverged { steps });
            }
            // Wall-clock and arena sampling are amortized: a syscall and
            // an interner read every 1024 steps keep the unlimited-
            // budget clean path within noise of the ungoverned loop.
            if steps.is_multiple_of(1024) {
                sim.governor.sample_arena();
                if started.elapsed() >= self.budget.deadline {
                    return Err(RuntimeError::Timeout {
                        budget_millis: self.budget.deadline.as_millis() as u64,
                        elapsed_millis: started.elapsed().as_millis() as u64,
                        partial_answers: sim.sink.answers.len(),
                        pending: (0..n)
                            .map(|i| (i, sim.mailboxes[i].len()))
                            .filter(|&(_, d)| d > 0)
                            .collect(),
                        unjoined: Vec::new(),
                    });
                }
            }
            if let Some(tr) = sim.tracing.as_mut() {
                tr.on_deliver(&msg);
            }
            if let Some(w) = sim.wire.as_mut() {
                w.now += 1;
                w.logs[id].push(msg.clone());
            }
            let mut ctx = Ctx {
                out: &mut out,
                stats: &mut sim.stats,
                mailbox_empty: sim.mailboxes[id].is_empty(),
                // Flow control lives on the recovery transport.
                pressure: sim.wire.as_ref().is_some_and(|w| w.links[id].pressure()),
                tracer: sim.tracing.as_mut().map(|t| &mut t.tracers[id]),
            };
            network.processes[id].handle(msg, &mut ctx);
            sim.processed[id] += 1;
            for m in out.drain(..) {
                sim.send(m)?;
            }
            if sim.wire.is_some() {
                sim.maybe_crash(network, id, self.recovery, &mut out)?;
                // Periodic retransmission scan: the probe protocol keeps
                // the network busy forever when a message is lost (the
                // Mattern counters block conclusion), so quiescence
                // alone must not gate retransmission.
                if steps.is_multiple_of(64) {
                    sim.tick(false)?;
                }
            }
        }

        sim.governor.sample_arena();
        sim.stats.mem_high_water_bytes = sim.governor.mem_high_water();
        if let Some(t) = trip {
            let accounting = (0..n)
                .map(|i| NodeUsage {
                    node: i,
                    shard: network.shard_of.get(i).map_or(0, |&(_, s)| s),
                    messages_processed: sim.processed[i],
                    mailbox_depth: sim.mailboxes[i].len(),
                    mem_bytes: sim.mailboxes[i]
                        .iter()
                        .map(|m| m.payload.approx_bytes())
                        .sum(),
                })
                .collect();
            return Err(budget_error(
                t,
                &sim.governor,
                sim.sink.answers.iter().cloned().collect(),
                accounting,
                sim.stats.cancel_waves,
            ));
        }
        if sim.sink.ends == 0 {
            return Err(RuntimeError::NoTermination);
        }
        Ok(SimOutcome {
            answers: sim.sink.answers,
            stats: sim.stats,
            trace: sim.trace,
            events: sim.tracing.map(SimTracing::finish),
            engine_ends: sim.sink.ends,
            post_end_answers: sim.sink.post_end_answers,
        })
    }
}

/// All state of one simulated run.
struct Sim {
    n: usize,
    mailboxes: Vec<VecDeque<Msg>>,
    fifo_tokens: VecDeque<usize>,
    stats: Stats,
    trace: Option<Vec<Msg>>,
    /// Event recording (same flag as `trace`). Records *logical* sends
    /// and deliveries only — retransmissions, wire duplicates, and acks
    /// below the exactly-once line are invisible to the trace, which is
    /// what makes the batching-invariance and FIFO invariants checkable.
    tracing: Option<SimTracing>,
    sink: EngineSink,
    /// Resource accounting and trip state for this run.
    governor: Governor,
    processed: Vec<u64>,
    /// The faulty wire; `None` on the pristine path.
    wire: Option<SimWire>,
}

/// The fault path's state: one [`Transport`] per endpoint (nodes, then
/// the engine at index `n`), the frames in flight, and what crash
/// recovery needs.
struct SimWire {
    links: Vec<Transport>,
    /// In-flight frames keyed by `(deliver_at, uid)` — a deterministic
    /// total order — with their destination.
    frames: BTreeMap<(u64, u64), (Endpoint, Frame)>,
    uid: u64,
    /// The clock: one tick per processed message.
    now: u64,
    /// Pristine process clones for crash recovery (initial state).
    pristine: Vec<Process>,
    /// Durable per-node logs of every processed message, in order.
    logs: Vec<Vec<Msg>>,
    /// Restart generation per node.
    epochs: Vec<u64>,
}

impl SimWire {
    fn new(network: &Network, plan: &FaultPlan, budget: &QueryBudget) -> SimWire {
        let n = network.processes.len();
        // The credit window derives from the budget's mailbox bound;
        // links inside nontrivial strong components are never windowed
        // (deadlock freedom — see [`Network::intra_peers`]).
        let window = budget.mailbox_bound.map(|b| b as u64);
        let mut intra = network.intra_peers();
        intra.push(BTreeSet::new());
        let links = intra
            .into_iter()
            .enumerate()
            .map(|(i, unwindowed)| {
                let me = if i < n {
                    Endpoint::Node(i)
                } else {
                    Endpoint::Engine
                };
                Transport::new(me, plan.clone(), window, unwindowed)
            })
            .collect();
        SimWire {
            links,
            frames: BTreeMap::new(),
            uid: 0,
            now: 0,
            pristine: network.processes.clone(),
            logs: vec![Vec::new(); n],
            epochs: vec![0; n],
        }
    }

    fn index(&self, ep: Endpoint) -> usize {
        ep.node().unwrap_or(self.links.len() - 1)
    }

    /// Move endpoint `i`'s emitted frames onto the wire, one tick of
    /// latency plus any injected delay away.
    fn flush(&mut self, i: usize) {
        for w in self.links[i].drain() {
            self.frames
                .insert((self.now + 1 + w.delay, self.uid), (w.to, w.frame));
            self.uid += 1;
        }
    }
}

impl Sim {
    /// A logical send: counted once (retransmissions and wire duplicates
    /// never inflate the message counters), then delivered — at once on
    /// the pristine path, through the sender's transport on the wire.
    fn send(&mut self, msg: Msg) -> Result<(), RuntimeError> {
        self.stats.count_send(&msg.payload);
        self.governor
            .note_messages(describe_payload(&msg.payload).1);
        if let Some(t) = self.trace.as_mut() {
            t.push(msg.clone());
        }
        if let Some(tr) = self.tracing.as_mut() {
            tr.on_send(&msg);
        }
        match self.wire.as_mut() {
            None => self.arrive(msg),
            Some(w) => {
                let i = w.index(msg.from);
                w.links[i].send(msg, None, w.now, &mut self.stats);
                w.flush(i);
                Ok(())
            }
        }
    }

    /// Final, in-order, exactly-once delivery of a logical message:
    /// engine-bound messages are consumed (and their delivery recorded)
    /// here; node-bound ones are queued, and recorded when the node
    /// processes them.
    fn arrive(&mut self, msg: Msg) -> Result<(), RuntimeError> {
        match msg.to {
            Endpoint::Engine => {
                if let Some(tr) = self.tracing.as_mut() {
                    tr.on_deliver(&msg);
                    if matches!(msg.payload, Payload::End) {
                        tr.tracers[self.n].on_end();
                    }
                }
                self.sink.engine_accept(msg).map(|_| ())
            }
            Endpoint::Node(id) => {
                self.governor.note_enqueue(msg.payload.approx_bytes());
                self.mailboxes[id].push_back(msg);
                self.stats.mailbox_high_water = self
                    .stats
                    .mailbox_high_water
                    .max(self.mailboxes[id].len() as u64);
                self.fifo_tokens.push_back(id);
                Ok(())
            }
        }
    }

    /// Deliver every wire frame due at or before the current tick.
    fn deliver_due(&mut self) -> Result<(), RuntimeError> {
        loop {
            let Some(w) = self.wire.as_mut() else {
                return Ok(());
            };
            let Some(entry) = w.frames.first_entry() else {
                return Ok(());
            };
            if entry.key().0 > w.now {
                return Ok(());
            }
            let (to, frame) = entry.remove();
            let i = w.index(to);
            let mut delivered = Vec::new();
            w.links[i].receive(frame, &mut self.stats, &mut delivered);
            w.flush(i);
            for (m, _) in delivered {
                self.arrive(m)?;
            }
        }
    }

    /// Nothing deliverable: on the wire, advance the clock to the next
    /// frame in flight or force a retransmission round. False on the
    /// pristine path, and once everything is delivered and acked.
    fn wire_pending(&mut self) -> Result<bool, RuntimeError> {
        let Some(w) = self.wire.as_mut() else {
            return Ok(false);
        };
        if let Some((&(t, _), _)) = w.frames.first_key_value() {
            w.now = w.now.max(t);
            return Ok(true);
        }
        let any = self.tick(true)?;
        if let (true, Some(w)) = (any, self.wire.as_mut()) {
            w.now += 1;
        }
        Ok(any)
    }

    /// Retransmission tick on every endpoint, in endpoint order.
    fn tick(&mut self, force: bool) -> Result<bool, RuntimeError> {
        let Some(w) = self.wire.as_mut() else {
            return Ok(false);
        };
        let mut any = false;
        for i in 0..w.links.len() {
            any |= w.links[i].tick(w.now, force, &mut self.stats)?;
            w.flush(i);
        }
        Ok(any)
    }

    /// Crash node `id` if its processed-message count hit a scheduled
    /// crash point, then recover it (or abort, with recovery disabled).
    fn maybe_crash(
        &mut self,
        network: &mut Network,
        id: usize,
        recovery: bool,
        out: &mut Vec<Msg>,
    ) -> Result<(), RuntimeError> {
        let Some(w) = self.wire.as_mut() else {
            return Ok(());
        };
        if !w.links[id].plan().crash_at(id, self.processed[id]) {
            return Ok(());
        }
        if !recovery {
            return Err(RuntimeError::LinkDown { node: id });
        }
        w.links[id].crash();
        recover(
            &mut network.processes[id],
            &w.pristine[id],
            &w.logs[id],
            &mut w.epochs[id],
            &mut self.stats,
            self.tracing.as_mut().map(|t| &mut t.tracers[id]),
            out,
        );
        for m in out.drain(..) {
            self.send(m)?;
        }
        Ok(())
    }
}
