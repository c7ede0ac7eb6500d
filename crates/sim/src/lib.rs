//! # prever-sim
//!
//! A deterministic discrete-event network simulator.
//!
//! PReVer's federated deployments run consensus (PBFT, Paxos, sharded
//! PBFT) among mutually distrustful data managers. The paper's §6 asks
//! for throughput/latency comparisons against these protocols; measuring
//! them reproducibly requires a network whose latencies, drops, and
//! partitions are simulated under a seeded PRNG rather than borrowed from
//! the host machine. Every consensus test and bench in the workspace runs
//! on this simulator, so results are bit-for-bit reproducible.
//!
//! The model: a fixed set of [`Actor`] nodes exchanging typed messages
//! through a virtual network with configurable latency, jitter, drop
//! rate, crashed nodes, and partitions. Time is virtual (microseconds);
//! an event loop pops the earliest event, dispatches it, and collects the
//! outputs. Determinism invariant: identical (actors, config, fault plan,
//! seed, injected events) ⇒ identical executions.
//!
//! ## One engine, hosted subsets
//!
//! [`Simulation`] is the only event engine in the workspace. It normally
//! hosts every node of the system, but it can host a *subset* of the
//! node ids (a node-id ↔ slot table that [`Simulation::new`] fills with
//! the identity): actors keep their system-wide ids and `n_nodes`, and a
//! send to a node hosted elsewhere lands in an outbox instead of the
//! event queue. That is how the shard-per-thread runtime ([`parallel`])
//! runs: one `Simulation` per shard thread over the shard's members,
//! with [`ParallelSim`] carrying the outboxes across at epoch barriers.
//!
//! ## Fault injection
//!
//! Beyond the uniform [`NetConfig`] faults, a seeded [`FaultPlan`] (see
//! [`fault`]) adds per-link asymmetric drop/delay/duplication/reordering/
//! corruption plus *scheduled* crash, recovery, restart-with-state-loss,
//! and partition events replayed at fixed virtual times. Both runtimes
//! take the same plan type; [`ParallelSim::set_fault_plan`] refuses the
//! parts it does not model.
//!
//! ## Crash semantics: `crash`/`recover` vs `restart_with_loss`
//!
//! A crash kills the node's *process*: everything already in flight
//! toward it — queued message deliveries **and pending timers** — dies
//! with the process and is counted in
//! [`SimStats::messages_dropped`]. Nothing queued before the crash is
//! delivered after it.
//!
//! - [`Simulation::crash`] + [`Simulation::recover`] model a fast reboot
//!   with *state intact* (actor memory survives, as if checkpointed to
//!   disk at every step). On recovery the actor's
//!   [`Actor::on_start`] runs again so it can re-arm its timers; messages
//!   sent to the node *during* the outage are delivered if their arrival
//!   time falls after the recovery.
//! - [`Simulation::restart_with_loss`] models a real crash: the node
//!   comes back as a **fresh actor** (supplied directly, or built by the
//!   factory registered with [`Simulation::set_node_factory`] when driven
//!   from a [`FaultPlan`]). All in-memory state is gone; recovering
//!   durable state is the *actor's* job (e.g. consensus state transfer).
//!
//! ## Step records
//!
//! Every actor step — a start, a delivery or a timer — runs in one
//! place, and that place measures it once: the work the handler counted
//! on its thread ([`prever_obs::work`]), the wall nanoseconds between one
//! pair of clock reads (skipped, and 0, when [`prever_obs::enabled`] is
//! false), and the sends and timers it produced. The result is a
//! [`StepRecord`] named by its [`Actor::kind`]: the message kind for a
//! delivery, `"timer"` or `"start"` otherwise. Records fold into the
//! run's per-kind [`StepTable`] ([`Simulation::steps`]); with
//! [`Simulation::enable_trace`] on they also enter the bounded ring that
//! [`Simulation::trace_tail`] renders. The rendering leaves wall time
//! out, so two replays of a seed print the same tail. A record only
//! observes: virtual time is still charged by [`NetConfig::processing`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod parallel;

pub use fault::{DiskFault, FaultEvent, FaultPlan, LinkFault};
pub use parallel::{ParallelConfig, ParallelSim};

use prever_obs::work::{self, Counts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet, VecDeque};
use std::ops::AddAssign;
use std::time::Instant;

/// Identifies a node in the simulation (dense, 0-based).
pub type NodeId = usize;

/// A send to a node this simulation does not host, left for whoever
/// does: `(sent_at, from, to, msg)`.
pub(crate) type ForeignSend<M> = (u64, NodeId, NodeId, M);

/// In-flight corruption hook: mutates a message using the supplied
/// deterministic random word.
type Corruptor<M> = Box<dyn FnMut(&mut M, u64)>;

/// Builds a fresh actor for a node restarted with state loss.
type NodeFactory<A> = Box<dyn FnMut(NodeId) -> A>;

/// Applies a [`DiskFault`] to a node's storage media, given the node
/// (the harness holds the media; the simulator only schedules the
/// fault).
type DiskHandler<A> = Box<dyn FnMut(NodeId, &mut A, DiskFault)>;

/// Sentinel incarnation for externally injected events: they are
/// addressed to whatever process is alive at delivery time, not to a
/// specific incarnation.
const EXTERNAL_INC: u64 = u64::MAX;

/// A simulated node.
pub trait Actor {
    /// Message type exchanged between nodes.
    type Msg: Clone;

    /// Called once when the simulation starts, and again whenever the
    /// node is recovered or restarted (so it can re-arm timers).
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<Self::Msg>);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _timer: u64, _ctx: &mut Ctx<Self::Msg>) {}

    /// The kind a delivery of `msg` to this node is recorded under (see
    /// "Step records" above). Actors that speak several kinds name each
    /// once here.
    fn kind(&self, _msg: &Self::Msg) -> &'static str {
        "message"
    }
}

/// Per-dispatch context: lets an actor read the clock, send messages and
/// arm timers. Outputs are buffered and scheduled by the simulator after
/// the handler returns.
pub struct Ctx<'a, M> {
    now: u64,
    self_id: NodeId,
    n_nodes: usize,
    sends: &'a mut Vec<(NodeId, M)>,
    timers: &'a mut Vec<(u64, u64)>,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time (µs).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.self_id
    }

    /// Number of nodes in the simulation.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Sends `msg` to `to` (subject to network latency/drops).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }

    /// Sends `msg` to every node except self.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for to in 0..self.n_nodes {
            if to != self.self_id {
                self.sends.push((to, msg.clone()));
            }
        }
    }

    /// Arms a timer that fires after `delay` µs with identifier `timer`.
    pub fn set_timer(&mut self, delay: u64, timer: u64) {
        self.timers.push((delay, timer));
    }
}

/// Network behavior configuration.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Minimum one-way latency in µs.
    pub base_latency: u64,
    /// Maximum extra jitter in µs (uniform).
    pub jitter: u64,
    /// Probability a message is silently dropped (0.0–1.0).
    pub drop_rate: f64,
    /// Per-message processing (service) time at the receiving node, in
    /// µs. With 0 (the default) nodes have infinite parallelism — fine
    /// for protocol-logic tests; throughput experiments set this so
    /// load actually serializes on CPUs (each node is an M/D/1-style
    /// server and messages queue behind each other).
    pub processing: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        // 500 µs one-way ≈ 1 ms RTT: a LAN/metro-area cluster, the
        // deployment the paper's permissioned-blockchain systems target.
        NetConfig { base_latency: 500, jitter: 100, drop_rate: 0.0, processing: 0 }
    }
}

enum EventKind<M> {
    Deliver { from: NodeId, msg: M },
    Timer { timer: u64 },
}

struct Event<M> {
    at: u64,
    seq: u64,
    /// Slot of the target node.
    to: usize,
    /// Incarnation of the target node at schedule time. A crash bumps the
    /// node's incarnation, so deliveries and timers addressed to the dead
    /// process are dropped at dispatch even if the node has since
    /// recovered.
    inc: u64,
    kind: EventKind<M>,
}

// Order events by (time, seq): seq breaks ties deterministically.
impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Simulation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to a live node.
    pub messages_delivered: u64,
    /// Messages dropped (random drops, link faults, partitions, crashed
    /// targets, and in-flight messages/timers that died with a crash).
    pub messages_dropped: u64,
    /// Timer firings delivered.
    pub timers_fired: u64,
    /// Extra copies scheduled by link duplication faults (not counted in
    /// `messages_sent`).
    pub messages_duplicated: u64,
    /// Messages corrupted in flight (delivered mutated if a corruption
    /// hook is installed, otherwise dropped as detected).
    pub messages_corrupted: u64,
    /// Node crashes (manual or fault-plan scheduled).
    pub crashes: u64,
    /// State-intact recoveries.
    pub recoveries: u64,
    /// Restarts that lost in-memory state.
    pub restarts_with_loss: u64,
    /// Disk faults applied via [`FaultEvent::Disk`].
    pub disk_faults: u64,
}

/// What one actor step did (see "Step records" in the crate doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// The node that stepped.
    pub node: NodeId,
    /// The sender of a delivered message; `None` for a start or a timer.
    pub from: Option<NodeId>,
    /// [`Actor::kind`] of the delivered message, or `"timer"` / `"start"`.
    pub kind: &'static str,
    /// Virtual time of the step (µs).
    pub at: u64,
    /// Wall nanoseconds the handler took (0 with recording disabled).
    pub wall_ns: u64,
    /// Work the handler counted on this thread.
    pub work: Counts,
    /// Messages the step sent.
    pub sends: u64,
    /// Timers the step armed.
    pub timers: u64,
}

/// Totals of the steps of one kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Number of steps.
    pub steps: u64,
    /// Wall nanoseconds inside the handlers.
    pub wall_ns: u64,
    /// Work counted inside the handlers.
    pub work: Counts,
    /// Messages sent.
    pub sends: u64,
    /// Timers armed.
    pub timers: u64,
}

impl AddAssign<&StepTotals> for StepTotals {
    fn add_assign(&mut self, t: &StepTotals) {
        self.steps += t.steps;
        self.wall_ns += t.wall_ns;
        self.work += t.work;
        self.sends += t.sends;
        self.timers += t.timers;
    }
}

/// A run's step totals by kind.
pub type StepTable = BTreeMap<&'static str, StepTotals>;

/// One entry of the bounded trace ring (see [`Simulation::enable_trace`]).
#[derive(Clone, Debug)]
pub enum TraceEntry {
    /// An actor step.
    Step(StepRecord),
    /// A network or fault event.
    Note {
        /// Virtual time (µs).
        at: u64,
        /// `dup`, `corrupt`, `drop.*` or `fault`.
        what: &'static str,
        /// Sending node (the affected node for a fault).
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The message's kind, or the fault.
        detail: &'static str,
    },
}

impl TraceEntry {
    /// One line: virtual time, what happened, the two node ids, and the
    /// kind and sends of a step. Never wall time, so replays compare.
    fn render(&self) -> String {
        match self {
            TraceEntry::Step(s) => {
                let (what, from, detail) = match s.from {
                    Some(from) => ("deliver", from, s.kind),
                    None => (s.kind, s.node, ""),
                };
                format!("[{:>10}µs] {what:<14} {from}→{} {detail} sends={}", s.at, s.node, s.sends)
            }
            TraceEntry::Note { at, what, from, to, detail } => {
                format!("[{at:>10}µs] {what:<14} {from}→{to} {detail}")
            }
        }
    }
}

/// The discrete-event simulator.
pub struct Simulation<A: Actor> {
    /// The hosted actors, by slot. Per-node state below is by slot too.
    nodes: Vec<A>,
    /// Slot → node id, and node id → slot (`None`: hosted elsewhere).
    /// Both are the identity for [`Simulation::new`].
    ids: Vec<NodeId>,
    slot_of: Vec<Option<usize>>,
    /// Sends to nodes hosted elsewhere, in send order.
    outbox: Vec<ForeignSend<A::Msg>>,
    crashed: Vec<bool>,
    /// Incarnation counter per node; bumped on crash/restart so events
    /// addressed to a dead process are recognizable at dispatch.
    incarnation: Vec<u64>,
    /// partition\[i\] = group id of node id i; messages cross groups
    /// only if no partition is active.
    partition: Option<Vec<usize>>,
    queue: BinaryHeap<Reverse<Event<A::Msg>>>,
    cfg: NetConfig,
    plan: FaultPlan,
    /// Scheduled fault events not yet applied, sorted by time.
    pending_faults: VecDeque<(u64, FaultEvent)>,
    factory: Option<NodeFactory<A>>,
    corruptor: Option<Corruptor<A::Msg>>,
    disk_handler: Option<DiskHandler<A>>,
    /// The bounded trace ring and its capacity, when enabled.
    ring: Option<(VecDeque<TraceEntry>, usize)>,
    steps: StepTable,
    rng: StdRng,
    now: u64,
    seq: u64,
    started: bool,
    stats: SimStats,
    /// Earliest time each node can accept its next message (service
    /// queue model; only advances when `cfg.processing > 0`).
    busy_until: Vec<u64>,
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation over `nodes` with network `cfg` and RNG `seed`.
    pub fn new(nodes: Vec<A>, cfg: NetConfig, seed: u64) -> Self {
        let n = nodes.len();
        Self::hosting((0..n).collect(), n, nodes, cfg, seed)
    }

    /// A simulation hosting only the nodes `ids` (`nodes[k]` is node
    /// `ids[k]`) of an `n_nodes`-node system: the engine one shard
    /// thread of [`ParallelSim`] runs. Actors see system-wide ids and
    /// `n_nodes`; a send to a node hosted elsewhere goes to the outbox
    /// ([`Self::take_outbox`]) instead of the event queue.
    pub(crate) fn hosting(
        ids: Vec<NodeId>,
        n_nodes: usize,
        nodes: Vec<A>,
        cfg: NetConfig,
        seed: u64,
    ) -> Self {
        let n = nodes.len();
        assert_eq!(ids.len(), n);
        let mut slot_of = vec![None; n_nodes];
        for (slot, &id) in ids.iter().enumerate() {
            slot_of[id] = Some(slot);
        }
        Simulation {
            nodes,
            ids,
            slot_of,
            outbox: Vec::new(),
            crashed: vec![false; n],
            incarnation: vec![0; n],
            partition: None,
            queue: BinaryHeap::new(),
            cfg,
            plan: FaultPlan::default(),
            pending_faults: VecDeque::new(),
            factory: None,
            corruptor: None,
            disk_handler: None,
            ring: None,
            steps: StepTable::default(),
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            started: false,
            stats: SimStats::default(),
            busy_until: vec![0; n],
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Immutable access to a node (assertions, result extraction).
    pub fn node(&self, id: NodeId) -> &A {
        &self.nodes[self.slot(id)]
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.slot_of.len()
    }

    /// The slot of a node that must be hosted here.
    fn slot(&self, id: NodeId) -> usize {
        self.slot_of[id].expect("node is hosted by this simulation")
    }

    /// Installs a fault plan: per-link faults apply to subsequent sends,
    /// scheduled events fire at their virtual times during the run loops.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.pending_faults = plan.sorted_events().into();
        self.plan = plan;
    }

    /// Registers the factory used to build fresh actors for
    /// [`FaultEvent::RestartWithLoss`] events scheduled in a fault plan.
    pub fn set_node_factory(&mut self, factory: impl FnMut(NodeId) -> A + 'static) {
        self.factory = Some(Box::new(factory));
    }

    /// Installs an in-flight corruption hook. When a link's `corrupt`
    /// fault fires, the hook mutates the message (second argument: a
    /// deterministic random word) and the mutated message is delivered.
    /// Without a hook, corruption is *detected* (MAC/CRC failure) and the
    /// message is dropped.
    pub fn set_corruptor(&mut self, hook: impl FnMut(&mut A::Msg, u64) + 'static) {
        self.corruptor = Some(Box::new(hook));
    }

    /// Registers the handler that applies [`FaultEvent::Disk`] events to
    /// a node's storage media. The harness holds the media (e.g.
    /// `SharedDisk`s the node writes through); the simulator only
    /// schedules when each fault lands, and hands the handler the node
    /// itself, so whatever the node owns (its log, say) is reached
    /// through it rather than through a second handle.
    pub fn set_disk_handler(&mut self, handler: impl FnMut(NodeId, &mut A, DiskFault) + 'static) {
        self.disk_handler = Some(Box::new(handler));
    }

    /// The run's per-kind step totals (see "Step records").
    pub fn steps(&self) -> &StepTable {
        &self.steps
    }

    /// Enables the bounded trace ring: the `cap` most recent steps and
    /// network/fault notes are kept.
    pub fn enable_trace(&mut self, cap: usize) {
        self.ring = Some((VecDeque::with_capacity(cap), cap));
    }

    /// The entries the trace ring holds, oldest first.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> {
        self.ring.iter().flat_map(|(entries, _)| entries)
    }

    /// The last `n` trace entries, formatted one per line.
    pub fn trace_tail(&self, n: usize) -> Vec<String> {
        let len = self.ring.as_ref().map_or(0, |(entries, _)| entries.len());
        self.trace().skip(len.saturating_sub(n)).map(TraceEntry::render).collect()
    }

    /// Crashes a node: the process dies. Queued deliveries and pending
    /// timers addressed to it are dropped (counted in
    /// [`SimStats::messages_dropped`]) — they do not survive into a later
    /// recovery. Idempotent.
    pub fn crash(&mut self, node: NodeId) {
        let slot = self.slot(node);
        if self.crashed[slot] {
            return;
        }
        self.crashed[slot] = true;
        self.incarnation[slot] = self.incarnation[slot].wrapping_add(1);
        self.stats.crashes += 1;
    }

    /// Recovers a crashed node with state intact (a fast restart with a
    /// fully persisted actor). [`Actor::on_start`] runs again so the node
    /// can re-arm its timers; messages sent during the outage are
    /// delivered if they arrive after this point. No-op if not crashed.
    pub fn recover(&mut self, node: NodeId) {
        let slot = self.slot(node);
        if !self.crashed[slot] {
            return;
        }
        self.crashed[slot] = false;
        self.busy_until[slot] = self.now;
        self.stats.recoveries += 1;
        if self.started {
            self.start_node(slot);
        }
    }

    /// Restarts a node as `actor`, losing all previous in-memory state.
    /// Everything in flight toward the old process dies; the fresh actor's
    /// [`Actor::on_start`] runs immediately. Works on crashed and live
    /// nodes alike (a live node is implicitly crashed first).
    pub fn restart_with_loss(&mut self, node: NodeId, actor: A) {
        let slot = self.slot(node);
        self.nodes[slot] = actor;
        self.crashed[slot] = false;
        self.incarnation[slot] = self.incarnation[slot].wrapping_add(1);
        self.busy_until[slot] = self.now;
        self.stats.restarts_with_loss += 1;
        if self.started {
            self.start_node(slot);
        }
    }

    /// True iff the node is crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[self.slot(node)]
    }

    /// Installs a partition: `groups[i]` is node `i`'s side. Messages
    /// between different sides are dropped.
    pub fn set_partition(&mut self, groups: Vec<usize>) {
        assert_eq!(groups.len(), self.n_nodes());
        self.partition = Some(groups);
    }

    /// Removes any partition.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Injects an external (client) message to `to`, arriving at absolute
    /// time `at` (must be ≥ current time). `from` is recorded as the
    /// sender id; use an out-of-range id for true externals if the actor
    /// protocol distinguishes clients. Unlike node-to-node sends, the
    /// injection is not pinned to the target's current incarnation: it is
    /// delivered to whatever process is alive at `at` (clients retry).
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg, at: u64) {
        assert!(at >= self.now, "cannot inject into the past");
        let seq = self.next_seq();
        self.queue.push(Reverse(Event {
            at,
            seq,
            to: self.slot(to),
            inc: EXTERNAL_INC,
            kind: EventKind::Deliver { from, msg },
        }));
    }

    /// A message from a node hosted elsewhere reaches `to` at `at`. Like
    /// an injection it is addressed to whatever process is alive on
    /// arrival; unlike one — a client's request appears at the node's
    /// door — it queues behind the receiver's service backlog, as any
    /// node-to-node delivery does.
    pub(crate) fn arrive(&mut self, from: NodeId, to: NodeId, msg: A::Msg, mut at: u64) {
        let slot = self.slot(to);
        if self.cfg.processing > 0 && !self.crashed[slot] {
            at = at.max(self.busy_until[slot]);
            self.busy_until[slot] = at + self.cfg.processing;
        }
        self.inject(from, to, msg, at);
    }

    /// Takes the sends addressed to nodes hosted elsewhere, in send order.
    pub(crate) fn take_outbox(&mut self) -> Vec<ForeignSend<A::Msg>> {
        std::mem::take(&mut self.outbox)
    }

    /// Moves the clock forward to `at` (never backwards): the instant of
    /// a fault applied from outside, or the end of an epoch.
    pub(crate) fn advance_to(&mut self, at: u64) {
        self.now = self.now.max(at);
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// True iff the earliest pending fault fires no later than the
    /// earliest queued event (faults win ties so e.g. a crash at `t`
    /// kills deliveries at `t`).
    fn fault_is_next(&self) -> bool {
        match (self.pending_faults.front().map(|(t, _)| *t), self.peek_time()) {
            (Some(tf), Some(te)) => tf <= te,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Runs until the queue is empty or `deadline` (virtual µs) passes.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: u64) -> u64 {
        self.ensure_started();
        let mut processed = 0;
        loop {
            if self.fault_is_next() {
                if self.pending_faults.front().map(|(t, _)| *t).unwrap() > deadline {
                    break;
                }
                self.apply_next_fault();
                continue;
            }
            match self.peek_time() {
                Some(at) if at <= deadline => {
                    let Reverse(ev) = self.queue.pop().expect("peeked");
                    self.now = ev.at;
                    self.dispatch(ev);
                    processed += 1;
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline.min(self.peek_time().unwrap_or(deadline)));
        processed
    }

    /// Runs until no events remain. Panics after `max_events` as a
    /// runaway guard.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        self.ensure_started();
        let mut processed = 0;
        loop {
            if self.fault_is_next() {
                self.apply_next_fault();
                continue;
            }
            match self.queue.pop() {
                Some(Reverse(ev)) => {
                    self.now = ev.at;
                    self.dispatch(ev);
                    processed += 1;
                    assert!(processed <= max_events, "simulation exceeded {max_events} events");
                }
                None => break,
            }
        }
        processed
    }

    /// Runs until `pred` over the node slice holds (checked after every
    /// event) or the queue empties / `max_events` passes. Returns true if
    /// the predicate held.
    pub fn run_until_pred(&mut self, max_events: u64, mut pred: impl FnMut(&[A]) -> bool) -> bool {
        self.ensure_started();
        if pred(&self.nodes) {
            return true;
        }
        let mut processed = 0;
        loop {
            if self.fault_is_next() {
                self.apply_next_fault();
                if pred(&self.nodes) {
                    return true;
                }
                continue;
            }
            match self.queue.pop() {
                Some(Reverse(ev)) => {
                    self.now = ev.at;
                    self.dispatch(ev);
                    processed += 1;
                    if pred(&self.nodes) {
                        return true;
                    }
                    if processed >= max_events {
                        return false;
                    }
                }
                None => return false,
            }
        }
    }

    fn peek_time(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse(e)| e.at)
    }

    fn apply_next_fault(&mut self) {
        let (at, ev) = self.pending_faults.pop_front().expect("fault scheduled");
        self.now = self.now.max(at);
        match ev {
            FaultEvent::Crash(n) => {
                self.trace_note("fault", n, n, "crash");
                self.crash(n);
            }
            FaultEvent::Recover(n) => {
                self.trace_note("fault", n, n, "recover");
                self.recover(n);
            }
            FaultEvent::RestartWithLoss(n) => {
                self.trace_note("fault", n, n, "restart_with_loss");
                let mut factory = self.factory.take().expect(
                    "FaultEvent::RestartWithLoss requires Simulation::set_node_factory",
                );
                let fresh = factory(n);
                self.factory = Some(factory);
                self.restart_with_loss(n, fresh);
            }
            FaultEvent::Disk { node, fault } => {
                self.trace_note("fault", node, node, "disk_fault");
                let slot = self.slot(node);
                let handler = self
                    .disk_handler
                    .as_mut()
                    .expect("FaultEvent::Disk requires Simulation::set_disk_handler");
                handler(node, &mut self.nodes[slot], fault);
                self.stats.disk_faults += 1;
            }
            FaultEvent::Partition(groups) => {
                self.trace_note("fault", 0, 0, "partition");
                self.set_partition(groups);
            }
            FaultEvent::Heal => {
                self.trace_note("fault", 0, 0, "heal");
                self.heal_partition();
            }
            FaultEvent::ClearLinkFaults => {
                self.trace_note("fault", 0, 0, "clear_link_faults");
                self.plan.clear_links();
            }
        }
    }

    /// Runs every live node's [`Actor::on_start`] once; the run loops
    /// call it first.
    pub(crate) fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for slot in 0..self.nodes.len() {
            if self.crashed[slot] {
                continue;
            }
            self.start_node(slot);
        }
    }

    fn start_node(&mut self, slot: usize) {
        self.step(slot, None, "start", |node, ctx| node.on_start(ctx));
    }

    fn push_trace(&mut self, entry: TraceEntry) {
        if let Some((entries, cap)) = self.ring.as_mut() {
            if entries.len() == *cap {
                entries.pop_front();
            }
            entries.push_back(entry);
        }
    }

    fn trace_note(&mut self, what: &'static str, from: NodeId, to: NodeId, detail: &'static str) {
        self.push_trace(TraceEntry::Note { at: self.now, what, from, to, detail });
    }

    /// Notes a message the network did something to, named by the
    /// receiver's [`Actor::kind`] (the sender's if it is hosted elsewhere).
    fn trace_msg(&mut self, what: &'static str, from: NodeId, to: NodeId, msg: &A::Msg) {
        if self.ring.is_some() {
            let slot = self.slot_of[to].unwrap_or_else(|| self.slot(from));
            let detail = self.nodes[slot].kind(msg);
            self.trace_note(what, from, to, detail);
        }
    }

    fn dispatch(&mut self, ev: Event<A::Msg>) {
        let slot = ev.to;
        let to = self.ids[slot];
        if self.crashed[slot] {
            self.stats.messages_dropped += 1;
            self.trace_note("drop.crashed", to, to, "");
            return;
        }
        if ev.inc != EXTERNAL_INC && ev.inc != self.incarnation[slot] {
            // Addressed to a previous incarnation: it was in flight when
            // the node crashed and died with that process.
            self.stats.messages_dropped += 1;
            self.trace_note("drop.dead", to, to, "");
            return;
        }
        match ev.kind {
            EventKind::Deliver { from, msg } => {
                self.stats.messages_delivered += 1;
                let kind = self.nodes[slot].kind(&msg);
                self.step(slot, Some(from), kind, |node, ctx| node.on_message(from, msg, ctx));
            }
            EventKind::Timer { timer } => {
                self.stats.timers_fired += 1;
                self.step(slot, None, "timer", |node, ctx| node.on_timer(timer, ctx));
            }
        }
    }

    /// Runs one actor step, records it (see "Step records"), and
    /// schedules what it sent and armed.
    fn step(
        &mut self,
        slot: usize,
        from: Option<NodeId>,
        kind: &'static str,
        f: impl FnOnce(&mut A, &mut Ctx<A::Msg>),
    ) {
        let mut sends = Vec::new();
        let mut timers = Vec::new();
        let mut ctx = Ctx {
            now: self.now,
            self_id: self.ids[slot],
            n_nodes: self.slot_of.len(),
            sends: &mut sends,
            timers: &mut timers,
        };
        let node = &mut self.nodes[slot];
        let clock = prever_obs::enabled().then(Instant::now);
        let ((), work) = work::measure(|| f(node, &mut ctx));
        let wall_ns = clock.map_or(0, |start| start.elapsed().as_nanos() as u64);
        let (sent, armed) = (sends.len() as u64, timers.len() as u64);
        let totals = StepTotals { steps: 1, wall_ns, work, sends: sent, timers: armed };
        *self.steps.entry(kind).or_default() += &totals;
        if self.ring.is_some() {
            let (node, at) = (self.ids[slot], self.now);
            let record =
                StepRecord { node, from, kind, at, wall_ns, work, sends: sent, timers: armed };
            self.push_trace(TraceEntry::Step(record));
        }
        self.schedule_outputs(slot, sends, timers);
    }

    /// Draws a delivery time for one network hop to the node in slot
    /// `to`, honoring base latency, jitter, link delay/reordering, and
    /// receiver service time.
    fn draw_delivery_time(&mut self, to: usize, link: &LinkFault) -> u64 {
        let mut latency = self.cfg.base_latency
            + if self.cfg.jitter > 0 { self.rng.gen_range(0..=self.cfg.jitter) } else { 0 };
        if link.delay_max > 0 {
            latency += self.rng.gen_range(0..=link.delay_max);
        }
        if link.reorder > 0.0 && self.rng.gen::<f64>() < link.reorder {
            latency += self.rng.gen_range(0..=link.reorder_window);
        }
        let mut at = self.now + latency;
        if self.cfg.processing > 0 {
            // Serialize on the receiver: queue behind its backlog.
            at = at.max(self.busy_until[to]);
            self.busy_until[to] = at + self.cfg.processing;
        }
        at
    }

    /// Queues a delivery from node `from` to the node in slot `to`.
    fn push_deliver(&mut self, from: NodeId, to: usize, msg: A::Msg, at: u64) {
        let seq = self.next_seq();
        let inc = self.incarnation[to];
        self.queue.push(Reverse(Event { at, seq, to, inc, kind: EventKind::Deliver { from, msg } }));
    }

    fn schedule_outputs(
        &mut self,
        from_slot: usize,
        sends: Vec<(NodeId, A::Msg)>,
        timers: Vec<(u64, u64)>,
    ) {
        let from = self.ids[from_slot];
        for (to, msg) in sends {
            self.stats.messages_sent += 1;
            if to >= self.slot_of.len() {
                // Actor bug guard: a send to a nonexistent node is
                // counted as dropped rather than crashing the run.
                self.stats.messages_dropped += 1;
                continue;
            }
            // Partition check.
            if let Some(groups) = &self.partition {
                if groups[from] != groups[to] {
                    self.stats.messages_dropped += 1;
                    self.trace_msg("drop.partition", from, to, &msg);
                    continue;
                }
            }
            if to == from {
                // Self-sends are reliable and fast: a local queue, not
                // the network — no drops, faults, or service time.
                let at = self.now + 1;
                self.push_deliver(from, from_slot, msg, at);
                continue;
            }
            let Some(to_slot) = self.slot_of[to] else {
                // Hosted elsewhere: whoever joins the hosts carries it
                // over, and models that hop's latency, loss and cuts.
                self.outbox.push((self.now, from, to, msg));
                continue;
            };
            // Random drop.
            if self.cfg.drop_rate > 0.0 && self.rng.gen::<f64>() < self.cfg.drop_rate {
                self.stats.messages_dropped += 1;
                self.trace_msg("drop.net", from, to, &msg);
                continue;
            }
            let link = self.plan.link_for(from, to);
            if link.drop > 0.0 && self.rng.gen::<f64>() < link.drop {
                self.stats.messages_dropped += 1;
                self.trace_msg("drop.link", from, to, &msg);
                continue;
            }
            let mut msg = msg;
            if link.corrupt > 0.0 && self.rng.gen::<f64>() < link.corrupt {
                self.stats.messages_corrupted += 1;
                let word: u64 = self.rng.gen();
                if self.corruptor.is_some() {
                    if let Some(hook) = self.corruptor.as_mut() {
                        hook(&mut msg, word);
                    }
                    self.trace_msg("corrupt", from, to, &msg);
                } else {
                    // No hook installed: the receiver detects the damage
                    // (MAC/CRC) and discards the message.
                    self.stats.messages_dropped += 1;
                    self.trace_msg("drop.corrupt", from, to, &msg);
                    continue;
                }
            }
            if link.duplicate > 0.0 && self.rng.gen::<f64>() < link.duplicate {
                self.stats.messages_duplicated += 1;
                self.trace_msg("dup", from, to, &msg);
                let at = self.draw_delivery_time(to_slot, &link);
                self.push_deliver(from, to_slot, msg.clone(), at);
            }
            let at = self.draw_delivery_time(to_slot, &link);
            self.push_deliver(from, to_slot, msg, at);
        }
        for (delay, timer) in timers {
            let at = self.now + delay.max(1);
            let seq = self.next_seq();
            let inc = self.incarnation[from_slot];
            let kind = EventKind::Timer { timer };
            self.queue.push(Reverse(Event { at, seq, to: from_slot, inc, kind }));
        }
    }

    /// Consumes the simulation, returning the nodes (final-state checks).
    pub fn into_nodes(self) -> Vec<A> {
        self.nodes
    }
}

/// Utility: asserts a set of node ids forms a quorum of `n` (majority).
pub fn is_majority(count: usize, n: usize) -> bool {
    count * 2 > n
}

/// Utility: the PBFT quorum size `2f + 1` for `n = 3f + 1` nodes.
pub fn bft_quorum(n: usize) -> usize {
    let f = (n - 1) / 3;
    2 * f + 1
}

/// Utility: maximum tolerated Byzantine faults for `n` nodes.
pub fn bft_max_faults(n: usize) -> usize {
    (n - 1) / 3
}

/// A helper collecting distinct voters (ids) for quorum counting.
#[derive(Clone, Debug, Default)]
pub struct VoteSet {
    voters: HashSet<NodeId>,
}

impl VoteSet {
    /// Empty vote set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a vote; returns true if it was new.
    pub fn add(&mut self, voter: NodeId) -> bool {
        self.voters.insert(voter)
    }

    /// Number of distinct voters.
    pub fn len(&self) -> usize {
        self.voters.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.voters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ping-pong actor: node 0 sends `count` pings to 1, which echoes.
    #[derive(Clone)]
    struct PingPong {
        pings_to_send: u32,
        pings_received: u32,
        pongs_received: u32,
        last_delivery: u64,
    }

    #[derive(Clone)]
    enum PP {
        Ping,
        Pong,
    }

    impl Actor for PingPong {
        type Msg = PP;

        fn kind(&self, msg: &PP) -> &'static str {
            match msg {
                PP::Ping => "ping",
                PP::Pong => "pong",
            }
        }

        fn on_start(&mut self, ctx: &mut Ctx<PP>) {
            if ctx.id() == 0 {
                for _ in 0..self.pings_to_send {
                    ctx.send(1, PP::Ping);
                }
            }
        }

        fn on_message(&mut self, from: NodeId, msg: PP, ctx: &mut Ctx<PP>) {
            self.last_delivery = ctx.now();
            match msg {
                PP::Ping => {
                    self.pings_received += 1;
                    ctx.send(from, PP::Pong);
                }
                PP::Pong => self.pongs_received += 1,
            }
        }
    }

    fn pp(pings: u32) -> Vec<PingPong> {
        vec![
            PingPong { pings_to_send: pings, pings_received: 0, pongs_received: 0, last_delivery: 0 };
            2
        ]
    }

    fn fresh(pings: u32) -> PingPong {
        PingPong { pings_to_send: pings, pings_received: 0, pongs_received: 0, last_delivery: 0 }
    }

    #[test]
    fn ping_pong_delivers_everything() {
        let mut sim = Simulation::new(pp(10), NetConfig::default(), 42);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).pings_received, 10);
        assert_eq!(sim.node(0).pongs_received, 10);
        let s = sim.stats();
        assert_eq!(s.messages_sent, 20);
        assert_eq!(s.messages_delivered, 20);
        assert_eq!(s.messages_dropped, 0);
    }

    #[test]
    fn determinism_same_seed_same_execution() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(pp(50), NetConfig { jitter: 400, ..Default::default() }, seed);
            sim.run_to_idle(100_000);
            (sim.now(), sim.node(0).last_delivery, sim.node(1).last_delivery)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ with jitter");
    }

    #[test]
    fn drops_lose_messages() {
        let cfg = NetConfig { drop_rate: 0.5, ..Default::default() };
        let mut sim = Simulation::new(pp(100), cfg, 3);
        sim.run_to_idle(100_000);
        let s = sim.stats();
        assert!(s.messages_dropped > 10, "expected many drops, got {}", s.messages_dropped);
        assert!(sim.node(1).pings_received < 100);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut sim = Simulation::new(pp(5), NetConfig::default(), 1);
        sim.crash(1);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).pings_received, 0);
        assert_eq!(sim.stats().messages_dropped, 5);
    }

    #[test]
    fn in_flight_messages_die_with_a_crash() {
        // Pings are in flight (arrive ≥ 500 µs) when node 1 crashes at
        // 100 µs; recovery at 200 µs must NOT resurrect them.
        let mut sim = Simulation::new(pp(5), NetConfig::default(), 1);
        sim.run_until(100);
        sim.crash(1);
        sim.run_until(200);
        sim.recover(1);
        sim.run_to_idle(10_000);
        assert_eq!(
            sim.node(1).pings_received,
            0,
            "messages queued before a crash must die with the process"
        );
        assert_eq!(sim.stats().messages_dropped, 5);
        assert_eq!(sim.stats().crashes, 1);
        assert_eq!(sim.stats().recoveries, 1);
    }

    #[test]
    fn restart_with_loss_resets_state_and_reruns_on_start() {
        let mut sim = Simulation::new(pp(3), NetConfig::default(), 2);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(0).pongs_received, 3);
        sim.restart_with_loss(0, fresh(2));
        sim.run_to_idle(10_000);
        // The fresh actor re-ran on_start and sent 2 new pings; its
        // pre-restart counters are gone.
        assert_eq!(sim.node(0).pongs_received, 2);
        assert_eq!(sim.node(1).pings_received, 5);
        assert_eq!(sim.stats().restarts_with_loss, 1);
    }

    #[test]
    fn fault_plan_schedules_crash_and_recovery() {
        // Crash node 1 at 50 µs (before the start-time pings arrive),
        // recover it at 5 ms; only a post-recovery injection lands.
        let plan = FaultPlan::new().crash_at(50, 1).recover_at(5_000, 1);
        let mut sim = Simulation::new(pp(5), NetConfig::default(), 9);
        sim.set_fault_plan(plan);
        sim.inject(0, 1, PP::Ping, 6_000);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).pings_received, 1);
        assert_eq!(sim.stats().crashes, 1);
        assert_eq!(sim.stats().recoveries, 1);
        assert_eq!(sim.stats().messages_dropped, 5);
    }

    #[test]
    fn fault_plan_restart_uses_node_factory() {
        let plan = FaultPlan::new().restart_with_loss_at(5_000, 0);
        let mut sim = Simulation::new(pp(3), NetConfig::default(), 4);
        sim.set_fault_plan(plan);
        sim.set_node_factory(|_| fresh(1));
        sim.run_to_idle(10_000);
        // Initial exchange (3 pings) completes well before 5 ms; the
        // restarted node 0 sends 1 more ping from its fresh on_start.
        assert_eq!(sim.node(1).pings_received, 4);
        assert_eq!(sim.node(0).pongs_received, 1);
        assert_eq!(sim.stats().restarts_with_loss, 1);
    }

    #[test]
    fn link_duplication_delivers_extra_copies() {
        let plan = FaultPlan::new()
            .link(0, 1, LinkFault { duplicate: 1.0, ..Default::default() });
        let mut sim = Simulation::new(pp(10), NetConfig::default(), 5);
        sim.set_fault_plan(plan);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).pings_received, 20, "every ping duplicated");
        assert_eq!(sim.stats().messages_duplicated, 10);
        // Duplicates are not counted as sends: each delivered ping
        // triggers one pong, so sent = 10 pings + 20 pongs.
        assert_eq!(sim.stats().messages_sent, 30);
    }

    #[test]
    fn corruption_without_hook_is_a_detected_drop() {
        let plan = FaultPlan::new()
            .link(0, 1, LinkFault { corrupt: 1.0, ..Default::default() });
        let mut sim = Simulation::new(pp(10), NetConfig::default(), 6);
        sim.set_fault_plan(plan);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).pings_received, 0);
        assert_eq!(sim.stats().messages_corrupted, 10);
        assert_eq!(sim.stats().messages_dropped, 10);
    }

    #[test]
    fn corruption_hook_mutates_in_flight_messages() {
        let plan = FaultPlan::new()
            .link(0, 1, LinkFault { corrupt: 1.0, ..Default::default() });
        let mut sim = Simulation::new(pp(10), NetConfig::default(), 7);
        sim.set_fault_plan(plan);
        sim.set_corruptor(|msg: &mut PP, _| *msg = PP::Pong);
        sim.run_to_idle(10_000);
        // Pings flipped to pongs in flight: delivered, but as the wrong
        // message.
        assert_eq!(sim.node(1).pings_received, 0);
        assert_eq!(sim.node(1).pongs_received, 10);
        assert_eq!(sim.stats().messages_corrupted, 10);
        assert_eq!(sim.stats().messages_dropped, 0);
    }

    #[test]
    fn link_reordering_breaks_fifo_delivery() {
        /// Node 0 sends sequence numbers; node 1 records arrival order.
        struct SeqActor {
            to_send: u32,
            received: Vec<u32>,
        }
        impl Actor for SeqActor {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<u32>) {
                if ctx.id() == 0 {
                    for i in 0..self.to_send {
                        ctx.send(1, i);
                    }
                }
            }
            fn on_message(&mut self, _: NodeId, msg: u32, _: &mut Ctx<u32>) {
                self.received.push(msg);
            }
        }
        let nodes = || {
            vec![SeqActor { to_send: 20, received: vec![] }, SeqActor { to_send: 20, received: vec![] }]
        };
        let cfg = NetConfig { jitter: 0, ..Default::default() };
        // Clean network, no jitter: FIFO.
        let mut clean = Simulation::new(nodes(), cfg.clone(), 8);
        clean.run_to_idle(10_000);
        assert!(clean.node(1).received.windows(2).all(|w| w[0] < w[1]));
        // Reordering link: arrival order differs from send order.
        let plan = FaultPlan::new().link(
            0,
            1,
            LinkFault { reorder: 1.0, reorder_window: 10_000, ..Default::default() },
        );
        let mut sim = Simulation::new(nodes(), cfg, 8);
        sim.set_fault_plan(plan);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).received.len(), 20, "reordering never loses messages");
        assert!(
            !sim.node(1).received.windows(2).all(|w| w[0] < w[1]),
            "expected out-of-order delivery, got {:?}",
            sim.node(1).received
        );
    }

    #[test]
    fn fault_plan_determinism_same_seed_same_stats() {
        let run = |seed: u64| {
            let plan = FaultPlan::new()
                .default_link(LinkFault {
                    drop: 0.1,
                    duplicate: 0.2,
                    delay_max: 2_000,
                    reorder: 0.3,
                    reorder_window: 1_500,
                    corrupt: 0.05,
                })
                .crash_at(700, 1)
                .recover_at(1_500, 1)
                .clear_links_at(3_000);
            let mut sim = Simulation::new(pp(50), NetConfig::default(), seed);
            sim.set_fault_plan(plan);
            sim.inject(0, 1, PP::Ping, 4_000);
            sim.run_to_idle(100_000);
            (sim.stats(), sim.node(0).pongs_received, sim.node(1).pings_received)
        };
        assert_eq!(run(21), run(21), "identical (plan, seed) must replay identically");
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn trace_records_deliveries_and_faults() {
        let plan = FaultPlan::new().crash_at(50, 1).recover_at(5_000, 1);
        let mut sim = Simulation::new(pp(2), NetConfig::default(), 1);
        sim.set_fault_plan(plan);
        sim.enable_trace(64);
        sim.inject(0, 1, PP::Ping, 6_000);
        sim.run_to_idle(10_000);
        let tail = sim.trace_tail(64);
        assert!(tail.iter().any(|l| l.contains("fault") && l.contains("crash")));
        assert!(tail.iter().any(|l| l.contains("deliver") && l.contains("ping")));
        assert!(tail.iter().any(|l| l.contains("drop.dead") || l.contains("drop.crashed")));
    }

    #[test]
    fn every_step_lands_in_one_row_of_the_step_table() {
        let mut sim = Simulation::new(pp(10), NetConfig::default(), 3);
        sim.run_to_idle(10_000);
        let steps = sim.steps();
        let (ping, pong) = (steps.get("ping").unwrap(), steps.get("pong").unwrap());
        assert_eq!((ping.steps, ping.sends), (10, 10), "each ping answers with one pong");
        assert_eq!((pong.steps, pong.sends), (10, 0));
        assert_eq!(steps.get("start").map(|t| (t.steps, t.sends)), Some((2, 10)));
        let mut all = StepTotals::default();
        steps.values().for_each(|t| all += t);
        let s = sim.stats();
        assert_eq!(all.steps, s.messages_delivered + s.timers_fired + 2);
        assert_eq!(all.sends, s.messages_sent);
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut sim = Simulation::new(pp(5), NetConfig::default(), 1);
        sim.set_partition(vec![0, 1]);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).pings_received, 0);
        // Heal and re-inject.
        sim.heal_partition();
        sim.inject(0, 1, PP::Ping, sim.now() + 10);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).pings_received, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            fired: Vec<u64>,
        }
        impl Actor for TimerActor {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<()>) {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<()>) {}
            fn on_timer(&mut self, timer: u64, _: &mut Ctx<()>) {
                self.fired.push(timer);
            }
        }
        let mut sim = Simulation::new(vec![TimerActor { fired: vec![] }], NetConfig::default(), 0);
        sim.run_to_idle(100);
        assert_eq!(sim.node(0).fired, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(pp(10), NetConfig { base_latency: 1000, jitter: 0, drop_rate: 0.0, processing: 0 }, 0);
        let processed = sim.run_until(500);
        assert_eq!(processed, 0, "nothing arrives before 1000µs");
        sim.run_until(2_000);
        assert_eq!(sim.node(1).pings_received, 10, "pings arrive at 1000µs");
    }

    #[test]
    fn run_until_pred_stops_early() {
        let mut sim = Simulation::new(pp(10), NetConfig::default(), 0);
        let ok = sim.run_until_pred(10_000, |nodes| nodes[1].pings_received >= 3);
        assert!(ok);
        assert!(sim.node(1).pings_received >= 3);
        assert!(sim.node(1).pings_received < 10, "should stop before all deliveries");
    }

    #[test]
    fn processing_time_serializes_a_node() {
        // 10 pings sent simultaneously; with a 100 µs service time the
        // last delivery lands ≥ 900 µs after the first.
        let cfg = NetConfig { base_latency: 500, jitter: 0, drop_rate: 0.0, processing: 100 };
        let mut sim = Simulation::new(pp(10), cfg, 0);
        sim.run_to_idle(10_000);
        assert_eq!(sim.node(1).pings_received, 10);
        // First ping at 500, 10th at ≥ 500 + 9·100.
        assert!(
            sim.node(1).last_delivery >= 500 + 900,
            "last delivery at {}",
            sim.node(1).last_delivery
        );
        // Without processing, all arrive at 500.
        let mut sim0 = Simulation::new(
            pp(10),
            NetConfig { base_latency: 500, jitter: 0, drop_rate: 0.0, processing: 0 },
            0,
        );
        sim0.run_until(600);
        assert_eq!(sim0.node(1).pings_received, 10);
    }

    #[test]
    fn quorum_helpers() {
        assert!(is_majority(3, 5));
        assert!(!is_majority(2, 5));
        assert_eq!(bft_quorum(4), 3);
        assert_eq!(bft_quorum(7), 5);
        assert_eq!(bft_max_faults(4), 1);
        assert_eq!(bft_max_faults(10), 3);
        let mut v = VoteSet::new();
        assert!(v.add(1));
        assert!(!v.add(1));
        assert_eq!(v.len(), 1);
    }
}
