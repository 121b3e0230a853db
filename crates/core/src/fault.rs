//! Fault injection and the self-healing link transport.
//!
//! The Fig 2 message protocol and the Thm 3.1 termination argument both
//! assume what §1.2 calls "operating-system message queues": reliable,
//! FIFO, exactly-once channels between never-crashing processes. A
//! production deployment of the process network cannot assume any of
//! that, so this module provides the two halves of the robustness story:
//!
//! * [`FaultPlan`] — a *seeded, deterministic* adversary that can drop,
//!   duplicate, delay (and thereby reorder), and corrupt any message on
//!   any link, and crash individual node processes at configured points;
//! * [`Transport`] — one endpoint's reliable-delivery layer, built from
//!   per-link [`SenderLink`] / [`ReceiverLink`] halves (monotone
//!   sequence numbers, cumulative acks, retransmission, duplicate
//!   suppression, reorder buffering, credit windows). It *restores* the
//!   reliable-FIFO-exactly-once channel abstraction the paper's protocol
//!   requires, so Thm 3.1's conclusions survive the adversary.
//!
//! The transport is sans-IO: its inputs are a logical send, an arriving
//! [`Frame`], and a clock tick; its outputs are [`Wire`] frames and
//! in-order deliveries. The caller owns the clock (simulator steps or
//! pool milliseconds) and the wire (the simulator's deterministic
//! `(deliver_at, uid)` queue or the pool's mailboxes), so both runtimes
//! run this one copy of the protocol. Every fate is a pure function of
//! `(seed, link, seq, attempt)` — acks use the link's ack count as their
//! sequence — with no hidden RNG state, so a plan injects the *same*
//! faults on the same logical message stream under either runtime.
//!
//! The transport frames one [`Msg`] per sequence number, whatever its
//! payload. Message batching therefore composes with this layer for
//! free: a `TupleRequestBatch`/`AnswerBatch`/`EndTupleRequestBatch` is
//! one frame — one seq, one ack, one checksum, one drop/duplicate/delay
//! decision — amortizing transport overhead over every tuple it
//! carries, and a dropped batch is retransmitted whole so per-arc FIFO
//! and exactly-once delivery hold for the batch exactly as for a scalar
//! message.
//!
//! Crash/recovery semantics are write-ahead-log style (see DESIGN.md):
//! a crash destroys a node's volatile computation state (temporary
//! relations, termination-protocol state, reorder buffers) while the
//! durable per-node message log and the transport send buffers survive,
//! as they would on disk. Recovery (`runtime::recover`) replays the log
//! to rebuild the temporary relations, resets the protocol state, bumps
//! the node's *epoch* so stale idleness-wave replies are rejected, and
//! announces the rebirth to the node's BFST parent so an in-flight wave
//! aborts instead of deadlocking.

use crate::msg::{Endpoint, Msg};
use crate::runtime::RuntimeError;
use crate::stats::Stats;
use mp_trace::Stamp;
use std::collections::{BTreeMap, BTreeSet};

/// One scheduled node crash: the process loses its volatile state right
/// after it has processed its `after_processed`-th message (counting
/// from the start of the run, across restarts).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// The node to crash.
    pub node: usize,
    /// Crash fires when the node's processed-message count reaches this.
    pub after_processed: u64,
}

/// A seeded, deterministic fault-injection plan applied to every link of
/// the process network (including the links to and from the engine).
///
/// Rates are probabilities in `[0, 1]`, evaluated independently per
/// message copy by hashing `(seed, from, to, seq, attempt)` — see
/// [`FaultPlan::fate`]. Retransmitted copies get fresh rolls (the
/// `attempt` counter), so a bounded drop rate cannot drop a message
/// forever.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Probability a message copy is silently dropped on the wire.
    pub drop: f64,
    /// Probability a message is duplicated (a second copy is injected).
    pub duplicate: f64,
    /// Probability a message copy is delayed (delivered out of order).
    pub delay: f64,
    /// Maximum delay, in scheduler steps (simulator) or milliseconds
    /// (threaded runtime). The actual delay is hash-distributed in
    /// `[1, max_delay]`.
    pub max_delay: u64,
    /// Probability a message copy is corrupted in flight. Corruption is
    /// detected by the receiver (checksum model) and the copy discarded;
    /// with recovery enabled retransmission repairs it.
    pub corrupt: f64,
    /// Scheduled node crashes (at most a handful; each triggers the
    /// log-replay recovery path).
    pub crashes: Vec<CrashPoint>,
    /// Retransmission cap per unacked message before the transport gives
    /// up with [`RuntimeError::RetransmitExhausted`]
    /// (`crate::runtime::RuntimeError`). Only reachable at extreme drop
    /// rates.
    pub max_retries: u32,
    /// Idle time (steps or milliseconds, as for `max_delay`) after which
    /// unacked messages are retransmitted.
    pub retransmit_after: u64,
}

impl Default for FaultPlan {
    /// A plan with every fault rate zero — useful to exercise the
    /// transport machinery (sequence numbers, acks) without any faults,
    /// e.g. to measure that its overhead on the clean path is nil.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: 8,
            corrupt: 0.0,
            crashes: Vec::new(),
            max_retries: 64,
            retransmit_after: 256,
        }
    }
}

impl FaultPlan {
    /// The standard chaos preset used by tests and the chaos bench: 5%
    /// drop, 5% duplicate, 10% delay (≤ 8 steps), 2% corruption, no
    /// crashes. Well inside the envelope Thm 3.1 must survive.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.05,
            duplicate: 0.05,
            delay: 0.10,
            corrupt: 0.02,
            ..FaultPlan::default()
        }
    }

    /// Add a scheduled crash.
    pub fn with_crash(mut self, node: usize, after_processed: u64) -> FaultPlan {
        self.crashes.push(CrashPoint {
            node,
            after_processed,
        });
        self
    }

    /// True when the plan can actually perturb anything.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.delay > 0.0
            || self.corrupt > 0.0
            || !self.crashes.is_empty()
    }

    /// True when the plan crashes `node` right after it has processed
    /// its `processed`-th message.
    pub fn crash_at(&self, node: usize, processed: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && c.after_processed == processed)
    }

    /// Decide the fate of one message copy, purely from
    /// `(seed, from, to, seq, attempt)`.
    pub fn fate(&self, from: u64, to: u64, seq: u64, attempt: u32) -> Fate {
        let h = mix(self.seed)
            ^ mix(from.wrapping_add(0x9E37_79B9))
            ^ mix(to.wrapping_add(0x7F4A_7C15)).rotate_left(17)
            ^ mix(seq).rotate_left(31)
            ^ mix(attempt as u64).rotate_left(47);
        let dropped = roll(h, 1) < self.drop;
        let duplicated = !dropped && roll(h, 2) < self.duplicate;
        let corrupted = !dropped && roll(h, 3) < self.corrupt;
        let delay = if roll(h, 4) < self.delay {
            1 + (mix(h ^ 5) % self.max_delay.max(1))
        } else {
            0
        };
        Fate {
            dropped,
            duplicated,
            corrupted,
            delay,
        }
    }
}

/// The decided fate of one message copy on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fate {
    /// The copy vanishes.
    pub dropped: bool,
    /// A second copy is injected after this one.
    pub duplicated: bool,
    /// The copy arrives with a detectable checksum failure.
    pub corrupted: bool,
    /// Extra delivery delay (0 = on time).
    pub delay: u64,
}

impl Fate {
    /// The fate of a message on a fault-free link.
    pub fn clean() -> Fate {
        Fate {
            dropped: false,
            duplicated: false,
            corrupted: false,
            delay: 0,
        }
    }
}

/// SplitMix64 finalizer — the deterministic hash behind fault decisions.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform roll in `[0, 1)` derived from hash `h` and a salt.
fn roll(h: u64, salt: u64) -> f64 {
    (mix(h ^ salt.wrapping_mul(0xA076_1D64_78BD_642F)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Sender half of one reliable link: assigns monotone sequence numbers
/// and holds every unacked message for retransmission. The buffer is
/// durable across receiver crashes (write-ahead semantics): whatever was
/// logically sent will eventually be delivered exactly once. `T` is the
/// buffered item: a bare [`Msg`], or a [`Transport`]'s message with its
/// trace stamp.
#[derive(Clone, Debug)]
pub struct SenderLink<T = Msg> {
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Sent but not yet cumulatively acked, by sequence number.
    pub unacked: BTreeMap<u64, T>,
    /// Timestamp (steps or ms) of the last send/retransmit activity.
    pub last_activity: u64,
    /// Consecutive retransmission rounds without an ack.
    pub retries: u32,
    /// Credit window: cap on frames in flight (transmitted but unacked).
    /// `None` = unlimited (the pre-governance behavior). Frames past the
    /// window stay queued in `unacked` and reach the wire when a
    /// cumulative ack slides the window — backpressure, not loss.
    pub window: Option<u64>,
    /// Sequence numbers below this have been handed to the wire at least
    /// once. Everything in `unacked` at or above it is *stalled*: queued
    /// by the window, never yet transmitted.
    pub wire_hi: u64,
}

impl<T> Default for SenderLink<T> {
    fn default() -> Self {
        SenderLink {
            next_seq: 0,
            unacked: BTreeMap::new(),
            last_activity: 0,
            retries: 0,
            window: None,
            wire_hi: 0,
        }
    }
}

impl<T: Clone> SenderLink<T> {
    /// Register a logical send; returns the assigned sequence number.
    pub fn send(&mut self, msg: T, now: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.insert(seq, msg);
        self.last_activity = now;
        seq
    }

    /// Apply a cumulative ack: everything below `upto` is delivered.
    pub fn ack_upto(&mut self, upto: u64) {
        let keep = self.unacked.split_off(&upto);
        if self.unacked.len() != keep.len() || !self.unacked.is_empty() {
            self.retries = 0;
        }
        self.unacked = keep;
    }

    /// True when a retransmission is due at `now`.
    pub fn due(&self, now: u64, retransmit_after: u64) -> bool {
        !self.unacked.is_empty() && now.saturating_sub(self.last_activity) >= retransmit_after
    }

    /// Oldest unacked sequence number — the window base.
    fn base(&self) -> u64 {
        self.unacked.keys().next().copied().unwrap_or(self.next_seq)
    }

    /// True when `seq` fits inside the current send window. Always true
    /// without a window; retransmission paths use this so a stalled
    /// frame is never forced onto the wire by a timer.
    pub fn in_window(&self, seq: u64) -> bool {
        match self.window {
            None => true,
            Some(w) => seq < self.base().saturating_add(w),
        }
    }

    /// Ask to transmit `seq` now (call right after [`SenderLink::send`]
    /// or when a retransmission timer picks it). True marks the frame as
    /// on the wire; false means the window is full — the frame stays
    /// queued and the caller should count a `credits_stalled` event.
    pub fn admit(&mut self, seq: u64) -> bool {
        let ok = self.in_window(seq);
        if ok {
            self.wire_hi = self.wire_hi.max(seq + 1);
        }
        ok
    }

    /// Stalled frames that the last cumulative ack just released into
    /// the window, oldest first; marks them transmitted. The caller
    /// puts each on the wire (first attempt).
    pub fn release(&mut self) -> Vec<(u64, T)> {
        let Some(w) = self.window else {
            return Vec::new();
        };
        let limit = self.base().saturating_add(w);
        let mut out = Vec::new();
        for (&seq, msg) in self.unacked.range(self.wire_hi..) {
            if seq >= limit {
                break;
            }
            out.push((seq, msg.clone()));
        }
        if let Some((s, _)) = out.last() {
            self.wire_hi = s + 1;
        }
        out
    }

    /// Frames currently stalled by the window (queued, never on the
    /// wire).
    pub fn stalled(&self) -> usize {
        self.unacked.range(self.wire_hi..).count()
    }
}

/// Receiver half of one reliable link: suppresses duplicates and
/// restores per-link FIFO order. `next_expected` is durable (it mirrors
/// the length of the durable delivery log); the reorder buffer is
/// volatile and cleared on crash — retransmission repopulates it.
#[derive(Clone, Debug)]
pub struct ReceiverLink<T = Msg> {
    /// The next in-order sequence number.
    pub next_expected: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    pub reorder: BTreeMap<u64, T>,
    /// Acks sent on this link so far: each ack's fate is hashed from
    /// its index, as a data frame's is from its sequence number.
    pub acks_sent: u64,
}

impl<T> Default for ReceiverLink<T> {
    fn default() -> Self {
        ReceiverLink {
            next_expected: 0,
            reorder: BTreeMap::new(),
            acks_sent: 0,
        }
    }
}

/// What [`ReceiverLink::accept`] did with a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Accepted<T = Msg> {
    /// The frame (plus any reorder-buffered successors) is deliverable,
    /// in order.
    Deliver(Vec<T>),
    /// Already delivered — a transport-level duplicate; re-ack and drop.
    Duplicate,
    /// Out of order — buffered until the gap fills; ack not advanced.
    Buffered,
}

impl<T> ReceiverLink<T> {
    /// Accept one data frame.
    pub fn accept(&mut self, seq: u64, msg: T) -> Accepted<T> {
        use std::cmp::Ordering;
        match seq.cmp(&self.next_expected) {
            Ordering::Less => Accepted::Duplicate,
            Ordering::Greater => {
                self.reorder.insert(seq, msg);
                Accepted::Buffered
            }
            Ordering::Equal => {
                let mut out = vec![msg];
                self.next_expected += 1;
                while let Some(m) = self.reorder.remove(&self.next_expected) {
                    out.push(m);
                    self.next_expected += 1;
                }
                Accepted::Deliver(out)
            }
        }
    }

    /// Crash: discard the volatile reorder buffer (unacked at the
    /// sender, so retransmission recovers the contents).
    pub fn clear_volatile(&mut self) {
        self.reorder.clear();
    }
}

/// Stable link-endpoint code for fault hashing.
pub fn endpoint_code(ep: Endpoint) -> u64 {
    match ep {
        Endpoint::Node(n) => n as u64,
        Endpoint::Engine => u64::MAX,
    }
}

/// A logical message with the causal stamp of its send (`None` when
/// tracing is off). Retransmissions carry the *same* stamp — one logical
/// send, one stamp, however many frames it takes.
pub(crate) type Item = (Msg, Option<Stamp>);

/// One frame on the wire between two transport endpoints.
#[derive(Clone, Debug)]
pub(crate) enum Frame {
    /// A sequenced data frame on the link `msg.from -> msg.to`.
    Data {
        /// Transport sequence number on that link.
        seq: u64,
        /// The logical message.
        msg: Msg,
        /// Causal stamp of the logical send, when tracing is on.
        stamp: Option<Stamp>,
        /// Checksum failure injected in flight: discarded on arrival.
        corrupted: bool,
    },
    /// Cumulative ack from `from`: everything below `upto` on the link
    /// into `from` is delivered.
    Ack {
        /// The acking (receiving) endpoint.
        from: Endpoint,
        /// Everything below this sequence number is delivered.
        upto: u64,
    },
}

impl Frame {
    /// Approximate heap bytes, for the memory budget (acks are free).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Frame::Data { msg, .. } => msg.payload.approx_bytes(),
            Frame::Ack { .. } => 0,
        }
    }
}

/// A frame the transport hands to the wire: deliver it to `to` after
/// `delay` clock units beyond the wire's own latency.
#[derive(Clone, Debug)]
pub(crate) struct Wire {
    /// Destination endpoint.
    pub to: Endpoint,
    /// Injected delay (0 = on time).
    pub delay: u64,
    /// The frame.
    pub frame: Frame,
}

/// One endpoint's recovery transport: a [`SenderLink`] per peer it sends
/// to and a [`ReceiverLink`] per peer it hears from. It decides every
/// frame's fate, acks, duplicate suppression, credit windows, and
/// retransmission; the caller supplies the clock and moves the
/// [`Wire`] frames it emits (see [`Transport::drain`]).
#[derive(Clone, Debug)]
pub(crate) struct Transport {
    me: Endpoint,
    plan: FaultPlan,
    /// Credit window (frames in flight per link); `None` = unlimited.
    window: Option<u64>,
    /// Peers on intra-component links, which are never windowed (a
    /// window that stalls a recursive answer its own producer
    /// transitively waits on could deadlock the cycle).
    unwindowed: BTreeSet<usize>,
    outgoing: BTreeMap<Endpoint, SenderLink<Item>>,
    incoming: BTreeMap<Endpoint, ReceiverLink<Item>>,
    wire: Vec<Wire>,
}

impl Transport {
    /// The transport of endpoint `me`. `window` caps frames in flight on
    /// every link except those to the `unwindowed` peers.
    pub fn new(
        me: Endpoint,
        plan: FaultPlan,
        window: Option<u64>,
        unwindowed: BTreeSet<usize>,
    ) -> Transport {
        Transport {
            me,
            plan,
            window,
            unwindowed,
            outgoing: BTreeMap::new(),
            incoming: BTreeMap::new(),
            wire: Vec::new(),
        }
    }

    /// The fault plan this transport applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Frames emitted since the last drain, in emission order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Wire> {
        self.wire.drain(..)
    }

    /// A logical send at time `now`: sequenced and buffered for
    /// retransmission, then put on the wire — unless the link's credit
    /// window is full, in which case the frame waits in the durable
    /// buffer until acks free credits (`credits_stalled`).
    pub fn send(&mut self, msg: Msg, stamp: Option<Stamp>, now: u64, stats: &mut Stats) {
        let to = msg.to;
        let window = match to {
            Endpoint::Node(b) if self.unwindowed.contains(&b) => None,
            _ => self.window,
        };
        let link = self.outgoing.entry(to).or_insert_with(|| SenderLink {
            window,
            ..SenderLink::default()
        });
        let seq = link.send((msg.clone(), stamp.clone()), now);
        if link.admit(seq) {
            self.transmit(to, seq, msg, stamp, 0, stats);
        } else {
            stats.credits_stalled += 1;
        }
    }

    /// Put one copy of a data frame on the wire, consulting the fault
    /// plan for its fate.
    fn transmit(
        &mut self,
        to: Endpoint,
        seq: u64,
        msg: Msg,
        stamp: Option<Stamp>,
        attempt: u32,
        stats: &mut Stats,
    ) {
        let fate = self
            .plan
            .fate(endpoint_code(self.me), endpoint_code(to), seq, attempt);
        if fate.dropped {
            stats.fault_dropped += 1;
            return;
        }
        if fate.corrupted {
            stats.fault_corrupted += 1;
        }
        if fate.delay > 0 {
            stats.fault_delayed += 1;
        }
        let copy = fate.duplicated.then(|| Wire {
            to,
            delay: fate.delay + 1,
            frame: Frame::Data {
                seq,
                msg: msg.clone(),
                stamp: stamp.clone(),
                corrupted: false,
            },
        });
        self.wire.push(Wire {
            to,
            delay: fate.delay,
            frame: Frame::Data {
                seq,
                msg,
                stamp,
                corrupted: fate.corrupted,
            },
        });
        if let Some(copy) = copy {
            stats.fault_duplicated += 1;
            self.wire.push(copy);
        }
    }

    /// A frame arrived. Data frames append whatever became deliverable,
    /// in per-link order, to `deliver` and are acked; acks retire
    /// buffered frames and release window-stalled ones.
    pub fn receive(&mut self, frame: Frame, stats: &mut Stats, deliver: &mut Vec<Item>) {
        match frame {
            Frame::Ack { from, upto } => {
                let released = match self.outgoing.get_mut(&from) {
                    Some(s) => {
                        s.ack_upto(upto);
                        s.release()
                    }
                    None => Vec::new(),
                };
                for (seq, (msg, stamp)) in released {
                    self.transmit(from, seq, msg, stamp, 0, stats);
                }
            }
            Frame::Data {
                seq,
                msg,
                stamp,
                corrupted,
            } => {
                // A detected checksum failure is discarded unacked, so
                // the sender retransmits a clean copy.
                if corrupted {
                    return;
                }
                let from = msg.from;
                let link = self.incoming.entry(from).or_default();
                match link.accept(seq, (msg, stamp)) {
                    Accepted::Deliver(items) => deliver.extend(items),
                    Accepted::Duplicate => stats.dups_discarded += 1,
                    Accepted::Buffered => return,
                }
                link.acks_sent += 1;
                let (upto, nth) = (link.next_expected, link.acks_sent);
                self.ack(from, upto, nth, stats);
            }
        }
    }

    /// Send the `nth` cumulative ack on the link from `to`. Acks ride the
    /// same faulty wire (a lost ack is repaired by the next one — they
    /// are cumulative) but are never duplicated; a corrupt ack is just a
    /// lost ack.
    fn ack(&mut self, to: Endpoint, upto: u64, nth: u64, stats: &mut Stats) {
        stats.acks += 1;
        let fate = self
            .plan
            .fate(endpoint_code(self.me), endpoint_code(to), nth, u32::MAX);
        if fate.dropped || fate.corrupted {
            stats.fault_dropped += 1;
            return;
        }
        self.wire.push(Wire {
            to,
            delay: fate.delay,
            frame: Frame::Ack {
                from: self.me,
                upto,
            },
        });
    }

    /// Clock tick: retransmit the unacked frames of every link idle for
    /// the plan's `retransmit_after` — or, with `force` (the caller saw
    /// the network otherwise quiescent), of every link with unacked
    /// traffic. Frames stalled beyond a window are never forced out by a
    /// timer. Returns whether anything went back on the wire, or
    /// [`RuntimeError::RetransmitExhausted`] past `max_retries`.
    pub fn tick(&mut self, now: u64, force: bool, stats: &mut Stats) -> Result<bool, RuntimeError> {
        let after = self.plan.retransmit_after;
        let due: Vec<Endpoint> = self
            .outgoing
            .iter()
            .filter(|(_, s)| {
                if force {
                    !s.unacked.is_empty()
                } else {
                    s.due(now, after)
                }
            })
            .map(|(&to, _)| to)
            .collect();
        let mut any = false;
        for to in due {
            let Some(s) = self.outgoing.get_mut(&to) else {
                continue;
            };
            s.retries += 1;
            s.last_activity = now;
            // Admit whatever the window now covers, then resend every
            // frame that has been on the wire.
            let _ = s.release();
            let frames: Vec<(u64, Item)> = s
                .unacked
                .range(..s.wire_hi)
                .map(|(&q, m)| (q, m.clone()))
                .collect();
            let retries = s.retries;
            if retries > self.plan.max_retries {
                return Err(RuntimeError::RetransmitExhausted {
                    from: self.me.node().unwrap_or(usize::MAX),
                    to: to.node().unwrap_or(usize::MAX),
                    retries,
                });
            }
            for (seq, (msg, stamp)) in frames {
                stats.retransmits += 1;
                self.transmit(to, seq, msg, stamp, retries, stats);
                any = true;
            }
        }
        Ok(any)
    }

    /// Crash: the volatile reorder buffers are lost; the senders'
    /// durable buffers retransmit their contents.
    pub fn crash(&mut self) {
        for link in self.incoming.values_mut() {
            link.clear_volatile();
        }
    }

    /// True when an outgoing link holds window-stalled frames — the
    /// node's `Ctx::pressure` input.
    pub fn pressure(&self) -> bool {
        self.window.is_some() && self.outgoing.values().any(|s| s.stalled() > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Payload;

    fn msg(tag: u64) -> Msg {
        Msg {
            from: Endpoint::Node(0),
            to: Endpoint::Node(1),
            payload: Payload::EndRequest {
                wave: tag,
                epoch: 0,
            },
        }
    }

    #[test]
    fn fate_is_deterministic() {
        let plan = FaultPlan::seeded(42);
        for seq in 0..50 {
            assert_eq!(plan.fate(1, 2, seq, 0), plan.fate(1, 2, seq, 0));
        }
    }

    #[test]
    fn fate_varies_with_attempt() {
        // A dropped first attempt must not imply dropped retransmits:
        // over many (seq, attempt) pairs, fates differ.
        let plan = FaultPlan {
            drop: 0.5,
            ..FaultPlan::seeded(7)
        };
        let differs =
            (0..200).any(|seq| plan.fate(1, 2, seq, 0).dropped != plan.fate(1, 2, seq, 1).dropped);
        assert!(differs);
    }

    #[test]
    fn zero_rates_never_fault() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        for seq in 0..100 {
            assert_eq!(plan.fate(3, 4, seq, 0), Fate::clean());
        }
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan {
            drop: 0.2,
            ..FaultPlan::default()
        };
        let dropped = (0..10_000)
            .filter(|&seq| plan.fate(0, 1, seq, 0).dropped)
            .count();
        assert!((1_500..2_500).contains(&dropped), "got {dropped}");
    }

    #[test]
    fn receiver_restores_fifo_and_suppresses_duplicates() {
        let mut rl = ReceiverLink::default();
        // 1 arrives before 0: buffered.
        assert_eq!(rl.accept(1, msg(1)), Accepted::Buffered);
        // 0 arrives: both become deliverable, in order.
        match rl.accept(0, msg(0)) {
            Accepted::Deliver(msgs) => {
                assert_eq!(msgs.len(), 2);
                assert!(matches!(
                    msgs[0].payload,
                    Payload::EndRequest { wave: 0, .. }
                ));
                assert!(matches!(
                    msgs[1].payload,
                    Payload::EndRequest { wave: 1, .. }
                ));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        // Replays of either are duplicates.
        assert_eq!(rl.accept(0, msg(0)), Accepted::Duplicate);
        assert_eq!(rl.accept(1, msg(1)), Accepted::Duplicate);
    }

    #[test]
    fn window_stalls_and_releases_in_order() {
        let mut sl = SenderLink {
            window: Some(2),
            ..SenderLink::default()
        };
        let s0 = sl.send(msg(0), 0);
        assert!(sl.admit(s0));
        let s1 = sl.send(msg(1), 0);
        assert!(sl.admit(s1));
        let s2 = sl.send(msg(2), 0);
        assert!(!sl.admit(s2), "third frame must stall on a window of 2");
        assert_eq!(sl.stalled(), 1);
        assert!(!sl.in_window(s2));
        // Ack of the first frame slides the window: the stalled frame is
        // released exactly once, in order.
        sl.ack_upto(1);
        let rel = sl.release();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].0, s2);
        assert_eq!(sl.stalled(), 0);
        assert!(sl.release().is_empty());
    }

    #[test]
    fn no_window_admits_everything() {
        let mut sl = SenderLink::default();
        for i in 0..100 {
            let s = sl.send(msg(i), 0);
            assert!(sl.admit(s));
        }
        assert_eq!(sl.stalled(), 0);
        assert!(sl.release().is_empty());
    }

    #[test]
    fn sender_retransmit_bookkeeping() {
        let mut sl = SenderLink::default();
        let s0 = sl.send(msg(0), 10);
        let s1 = sl.send(msg(1), 11);
        assert_eq!((s0, s1), (0, 1));
        assert!(!sl.due(11, 100));
        assert!(sl.due(200, 100));
        sl.ack_upto(1);
        assert_eq!(sl.unacked.len(), 1);
        sl.ack_upto(2);
        assert!(sl.unacked.is_empty());
        assert!(!sl.due(10_000, 100));
    }

    const A: Endpoint = Endpoint::Node(0);
    const B: Endpoint = Endpoint::Node(1);

    fn wave(m: &Msg) -> u64 {
        match m.payload {
            Payload::EndRequest { wave, .. } => wave,
            _ => unreachable!("test traffic is EndRequest only"),
        }
    }

    /// Endpoints `A` and `B` joined by a scripted wire: frames arrive in
    /// `(due, uid)` order, one clock unit of latency plus their injected
    /// delay after they were emitted.
    struct Pair {
        ends: [Transport; 2],
        wire: BTreeMap<(u64, u64), (Endpoint, Frame)>,
        uid: u64,
        now: u64,
        stats: Stats,
        /// Logical messages `B` delivered, in order.
        got: Vec<Item>,
    }

    impl Pair {
        fn new(plan: FaultPlan, window: Option<u64>) -> Pair {
            Pair {
                ends: [
                    Transport::new(A, plan.clone(), window, BTreeSet::new()),
                    Transport::new(B, plan, window, BTreeSet::new()),
                ],
                wire: BTreeMap::new(),
                uid: 0,
                now: 0,
                stats: Stats::default(),
                got: Vec::new(),
            }
        }

        fn flush(&mut self) {
            for end in &mut self.ends {
                for w in end.drain() {
                    let due = self.now + 1 + w.delay;
                    self.wire.insert((due, self.uid), (w.to, w.frame));
                    self.uid += 1;
                }
            }
        }

        /// Advance the clock one unit and deliver every frame due.
        fn step(&mut self) {
            self.now += 1;
            while let Some(entry) = self.wire.first_entry() {
                if entry.key().0 > self.now {
                    break;
                }
                let (to, frame) = entry.remove();
                let end = usize::from(to == B);
                self.ends[end].receive(frame, &mut self.stats, &mut self.got);
                self.flush();
            }
        }

        /// Run until both ends are quiescent, ticking every 4 units.
        fn settle(&mut self) {
            for _ in 0..10_000 {
                self.step();
                if self.now.is_multiple_of(4) {
                    for end in &mut self.ends {
                        end.tick(self.now, false, &mut self.stats).unwrap();
                    }
                    self.flush();
                }
                let acked = self.ends[0].outgoing.values().all(|s| s.unacked.is_empty());
                if self.wire.is_empty() && acked {
                    return;
                }
            }
            panic!("the pair never settled");
        }
    }

    #[test]
    fn transport_delivers_exactly_once_in_order_through_faults_and_a_crash() {
        let plan = FaultPlan {
            drop: 0.2,
            duplicate: 0.2,
            delay: 0.3,
            corrupt: 0.1,
            retransmit_after: 6,
            ..FaultPlan::seeded(11)
        };
        let mut p = Pair::new(plan, None);
        for i in 0..200 {
            let now = p.now;
            p.ends[0].send(msg(i), None, now, &mut p.stats);
            p.flush();
            p.step();
            if i == 100 {
                // The crash wipes B's reorder buffers; A's durable
                // send buffer repopulates them.
                p.ends[1].crash();
            }
        }
        p.settle();
        let waves: Vec<u64> = p.got.iter().map(|(m, _)| wave(m)).collect();
        assert_eq!(waves, (0..200).collect::<Vec<_>>());
        let s = &p.stats;
        assert!(s.fault_dropped > 0 && s.fault_duplicated > 0, "{s:?}");
        assert!(s.fault_delayed > 0 && s.fault_corrupted > 0, "{s:?}");
        assert!(s.retransmits > 0 && s.dups_discarded > 0, "{s:?}");
    }

    #[test]
    fn retransmission_stops_once_acked() {
        let plan = FaultPlan {
            retransmit_after: 10,
            ..FaultPlan::default()
        };
        let mut p = Pair::new(plan.clone(), None);
        for i in 0..3 {
            p.ends[0].send(msg(i), None, 0, &mut p.stats);
        }
        // Unacked and idle past the horizon: all three go out again.
        let _ = p.ends[0].drain().count();
        assert_eq!(p.ends[0].tick(10, false, &mut p.stats), Ok(true));
        assert_eq!(p.ends[0].drain().count(), 3);
        p.ends[0].tick(20, false, &mut p.stats).unwrap();
        p.flush();
        p.settle();
        assert_eq!(p.got.len(), 3);
        // Everything acked: neither the timer nor a forced round resends.
        for force in [false, true] {
            assert_eq!(p.ends[0].tick(1_000, force, &mut p.stats), Ok(false));
            assert_eq!(p.ends[0].drain().count(), 0);
        }
        // A link that never gets through gives up with a typed error.
        let mut dead = Transport::new(A, FaultPlan { drop: 1.0, ..plan }, None, BTreeSet::new());
        dead.send(msg(0), None, 0, &mut p.stats);
        let exhausted = (1..100).find_map(|t| dead.tick(t * 10, false, &mut p.stats).err());
        assert!(matches!(
            exhausted,
            Some(RuntimeError::RetransmitExhausted { from: 0, to: 1, .. })
        ));
    }

    #[test]
    fn credit_window_releases_stalled_frames_in_order() {
        let mut p = Pair::new(FaultPlan::default(), Some(2));
        for i in 0..5 {
            p.ends[0].send(msg(i), None, 0, &mut p.stats);
        }
        assert_eq!(p.stats.credits_stalled, 3);
        assert!(p.ends[0].pressure());
        // Deliver A's frames straight to B and B's acks straight back;
        // each ack frees a credit for the next stalled frame.
        let mut sent = Vec::new();
        for _ in 0..5 {
            let frames: Vec<Wire> = p.ends[0].drain().collect();
            for w in frames {
                if let Frame::Data { seq, .. } = &w.frame {
                    sent.push(*seq);
                }
                p.ends[1].receive(w.frame, &mut p.stats, &mut p.got);
            }
            let acks: Vec<Wire> = p.ends[1].drain().collect();
            for w in acks {
                p.ends[0].receive(w.frame, &mut p.stats, &mut Vec::new());
            }
        }
        assert_eq!(sent, vec![0, 1, 2, 3, 4]);
        assert!(!p.ends[0].pressure());
        let waves: Vec<u64> = p.got.iter().map(|(m, _)| wave(m)).collect();
        assert_eq!(waves, vec![0, 1, 2, 3, 4]);
        // Intra-component peers are never windowed.
        let mut intra = Transport::new(A, FaultPlan::default(), Some(2), BTreeSet::from([1]));
        for i in 0..5 {
            intra.send(msg(i), None, 0, &mut p.stats);
        }
        assert_eq!(intra.drain().count(), 5);
    }

    #[test]
    fn frame_fates_do_not_depend_on_the_clock() {
        // The same plan and logical stream under a step clock and an
        // offset millisecond-like clock: identical frames, acks and
        // retransmissions, because every fate hashes link, sequence and
        // attempt only.
        let run = |clock: fn(u64) -> u64| {
            let plan = FaultPlan {
                drop: 0.3,
                duplicate: 0.2,
                delay: 0.3,
                corrupt: 0.2,
                ..FaultPlan::seeded(5)
            };
            let mut ends = [
                Transport::new(A, plan.clone(), None, BTreeSet::new()),
                Transport::new(B, plan, None, BTreeSet::new()),
            ];
            let mut stats = Stats::default();
            let mut got = Vec::new();
            let mut log = Vec::new();
            for i in 0..120u64 {
                if i < 60 {
                    ends[0].send(msg(i), None, clock(i), &mut stats);
                } else {
                    ends[0].tick(clock(i), true, &mut stats).unwrap();
                }
                let frames: Vec<Wire> = ends[0].drain().collect();
                for w in frames {
                    log.push(format!("{w:?}"));
                    ends[1].receive(w.frame, &mut stats, &mut got);
                    let acks: Vec<Wire> = ends[1].drain().collect();
                    for ack in acks {
                        log.push(format!("{ack:?}"));
                        ends[0].receive(ack.frame, &mut stats, &mut Vec::new());
                    }
                }
            }
            assert_eq!(got.len(), 60);
            log
        };
        assert_eq!(run(|i| i), run(|i| 7_000 + 13 * i));
    }
}
