//! Shard-per-thread parallel simulation.
//!
//! The single-threaded [`Simulation`](crate::Simulation) caps every
//! experiment at one core: a 64-shard SharPer-style deployment is 256
//! PBFT replicas time-sliced through one event loop. This module runs
//! each *shard* (a group of nodes that talk to each other constantly)
//! on its own OS thread, and lets shards talk to each other only through
//! explicit cross-shard channels merged deterministically by a
//! coordinator. There is no second event engine here: a shard thread
//! runs the same [`Simulation`](crate::Simulation), hosting only the
//! shard's members, and what its nodes send to other shards comes back
//! out through that simulation's outbox. [`ParallelSim`] is the
//! coordinator and owns only what is its own: epochs and the barrier,
//! per-edge RNG routing of cross-shard messages, the send-time partition
//! timeline, and probes.
//!
//! ## Determinism under parallelism
//!
//! Conservative parallel discrete-event simulation with an epoch
//! barrier:
//!
//! * Virtual time is divided into fixed epochs of `epoch` µs. Every
//!   shard runs `[k·E, (k+1)·E)` to completion before any shard
//!   starts epoch `k + 1`.
//! * Cross-shard messages sent during epoch `k` are collected by the
//!   coordinator *after* the barrier, routed in a fixed schedule
//!   (ascending source shard, then send order within the shard — a
//!   lamport-ordered per-edge FIFO), and delivered no earlier than
//!   epoch `k + 1`. Cross-shard latency/jitter is drawn from a
//!   per-edge RNG keyed by `(seed, src, dst)`, so a draw never depends
//!   on which thread finished first.
//! * Each shard's simulation is seeded from `(seed, shard)` for
//!   intra-shard jitter and drops.
//!
//! Consequently the interleaving observed by every actor is a pure
//! function of `(actors, config, fault plan, injections, seed)` — the
//! OS scheduler cannot perturb it. The price is lookahead: cross-shard
//! base latency must be ≥ the epoch length, which models shards as
//! LAN clusters joined by a slower inter-shard backbone (the SharPer
//! deployment shape).
//!
//! ## Fault model
//!
//! Faults are scheduled on the one [`FaultPlan`], indexed by node as
//! everywhere else. Crash / recover / restart-with-loss are forwarded to
//! the owning shard and applied by its simulation at their virtual time
//! (faults win ties, as on one thread). A partition cuts *cross-shard*
//! channels only, judged by send time at the coordinator: a partitioned
//! shard keeps ordering locally while its channels drop. What the runtime
//! does not model is refused by [`ParallelSim::set_fault_plan`] with a
//! panic naming it rather than ignored: disk faults (their handler is a
//! harness closure installed on one `Simulation` with
//! `set_disk_handler`, and each shard's simulation is built on its
//! worker thread, which no such closure reaches), per-link faults (a
//! cross-shard hop is the coordinator's, which models latency, jitter
//! and partitions only), and a partition that splits a shard. Cross-shard messages are not pinned
//! to a receiver incarnation: like client retries, they are delivered to
//! whatever process is alive on arrival (they model durable channel
//! buffers between clusters).

use crate::{Actor, FaultEvent, FaultPlan, ForeignSend, NetConfig, NodeId, SimStats, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Shard identifier (dense, 0-based) — the unit of parallelism.
pub type ShardId = usize;

/// SplitMix64-style mixer for deriving independent RNG streams.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed of shard `shard`'s simulation under the run's `seed`.
fn shard_seed(seed: u64, shard: ShardId) -> u64 {
    mix(seed, mix(0x5aad, shard as u64))
}

/// Configuration of a [`ParallelSim`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Intra-shard network behavior (latency, jitter, drops, service
    /// time), applied independently inside each shard's simulation.
    pub net: NetConfig,
    /// Minimum one-way cross-shard latency in µs. Must be ≥ `epoch`
    /// (the conservative lookahead bound); the constructor asserts it.
    pub cross_base: u64,
    /// Maximum extra cross-shard jitter in µs (uniform, per-edge RNG).
    pub cross_jitter: u64,
    /// Epoch (barrier) length in µs.
    pub epoch: u64,
    /// RNG seed; all per-shard and per-edge streams derive from it.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        // Intra-shard stays the LAN profile of `NetConfig::default`;
        // the inter-shard backbone is 1 ms one-way — a metro-area link
        // between shard clusters — which also sets the lookahead.
        ParallelConfig {
            net: NetConfig::default(),
            cross_base: 1_000,
            cross_jitter: 200,
            epoch: 1_000,
            seed: 1,
        }
    }
}

/// A cross-shard message en route: scheduled by the coordinator,
/// delivered by the destination shard's simulation.
struct CrossArrival<M> {
    at: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

/// A fault forwarded to the owning shard, applied at its virtual time.
/// A restart carries the fresh actor: the factory is a harness closure
/// that lives, and stays, on the coordinator's thread.
enum NodeFault<A> {
    Crash(NodeId),
    Recover(NodeId),
    Restart(NodeId, A),
}

/// Coordinator → worker command.
enum Cmd<A: Actor> {
    Epoch {
        until: u64,
        inbound: Vec<CrossArrival<A::Msg>>,
        faults: Vec<(u64, NodeFault<A>)>,
    },
    Finish,
}

/// Worker → coordinator reply.
enum Reply<A: Actor, P> {
    Epoch(EpochOut<A::Msg, P>),
    Done(Vec<(NodeId, A)>),
}

/// One epoch's outputs from a shard.
struct EpochOut<M, P> {
    /// Cross-shard sends in deterministic local order.
    outbox: Vec<ForeignSend<M>>,
    /// Probe values per local node (global ids).
    probes: Vec<(NodeId, P)>,
    /// Cumulative statistics of the shard's simulation.
    stats: SimStats,
}

/// A pending cross arrival keyed for deterministic ordering:
/// `(deliver_at, coordinator_seq, arrival)`.
type PendingArrival<M> = (u64, u64, CrossArrival<M>);

/// Runs one shard's simulation through `[now, until)`: enqueues the
/// inbound cross-shard arrivals, applies the epoch's faults at their
/// virtual times, and processes every event with `at < until`.
fn run_epoch<A: Actor>(
    sim: &mut Simulation<A>,
    until: u64,
    inbound: Vec<CrossArrival<A::Msg>>,
    faults: Vec<(u64, NodeFault<A>)>,
) {
    // Start before enqueueing: `on_start` outputs take the first event
    // seqs, then arrivals in the coordinator's order.
    sim.ensure_started();
    for arr in inbound {
        sim.arrive(arr.from, arr.to, arr.msg, arr.at);
    }
    for (at, fault) in faults {
        // Faults win ties: only events strictly before `at` run first.
        if let Some(before) = at.checked_sub(1) {
            sim.run_until(before);
        }
        sim.advance_to(at);
        match fault {
            NodeFault::Crash(n) => sim.crash(n),
            NodeFault::Recover(n) => sim.recover(n),
            NodeFault::Restart(n, actor) => sim.restart_with_loss(n, actor),
        }
    }
    sim.run_until(until - 1);
    sim.advance_to(until);
}

struct Worker<A: Actor, P> {
    tx: Sender<Cmd<A>>,
    rx: Receiver<Reply<A, P>>,
    join: JoinHandle<()>,
}

/// Builds a fresh actor for a node restarted with state loss.
type NodeFactory<A> = Box<dyn FnMut(NodeId) -> A>;

/// The shard-per-thread parallel simulator.
///
/// `P` is the *probe* type: a cheap, `Send` summary of one actor's
/// state (e.g. a completion count) computed by every shard at each
/// epoch barrier. Run-loop predicates observe probes rather than the
/// actors themselves, which live on their shard's thread; the full
/// actors come back via [`ParallelSim::into_nodes`].
pub struct ParallelSim<A: Actor, P> {
    workers: Vec<Worker<A, P>>,
    /// shard id per node (dense).
    shard_of: Vec<ShardId>,
    n_shards: usize,
    cfg: ParallelConfig,
    now: u64,
    /// Coordinator event sequencer (cross arrivals + injections).
    seq: u64,
    /// Undelivered cross-shard arrivals per destination shard.
    pending: Vec<Vec<PendingArrival<A::Msg>>>,
    /// External injections not yet released: `(at, seq, from, to, msg)`.
    injections: Vec<(u64, u64, NodeId, NodeId, A::Msg)>,
    /// Scheduled fault events not yet applied, sorted by time.
    pending_faults: VecDeque<(u64, FaultEvent)>,
    /// Partition changes by time (`groups[i]` = node `i`'s side), used
    /// to route cross-shard sends by *send* time. Kept here rather than
    /// in the shard simulations: it also covers `on_start` sends when a
    /// partition is scheduled at `t = 0`, and a shard never sees a
    /// cross-shard send's fate anyway.
    partition_timeline: Vec<(u64, Option<Vec<usize>>)>,
    factory: Option<NodeFactory<A>>,
    /// Per-edge RNGs for cross-shard latency draws.
    edge_rng: HashMap<(ShardId, ShardId), StdRng>,
    /// Coordinator-level stats (cross-shard partition drops).
    local_stats: SimStats,
    /// Latest cumulative stats per shard.
    shard_stats: Vec<SimStats>,
    /// Latest probe value per node.
    probes: Vec<P>,
}

impl<A, P> ParallelSim<A, P>
where
    A: Actor + Send + 'static,
    A::Msg: Send + 'static,
    P: Send + Default + Clone + 'static,
{
    /// Creates the parallel simulation: `shard_of[i]` assigns node `i`
    /// to a shard (shard ids must be dense `0..n_shards`), `probe`
    /// summarizes an actor for run-loop predicates. Spawns one worker
    /// thread per shard.
    pub fn new(
        nodes: Vec<A>,
        shard_of: Vec<ShardId>,
        cfg: ParallelConfig,
        probe: impl Fn(&A) -> P + Send + Sync + 'static,
    ) -> Self {
        assert_eq!(nodes.len(), shard_of.len());
        assert!(cfg.epoch > 0, "epoch must be positive");
        assert!(
            cfg.cross_base >= cfg.epoch,
            "cross-shard base latency ({}) must cover the epoch lookahead ({})",
            cfg.cross_base,
            cfg.epoch
        );
        let n_shards = shard_of.iter().copied().max().map_or(0, |m| m + 1);
        let n_global = nodes.len();
        let probe: Arc<dyn Fn(&A) -> P + Send + Sync> = Arc::new(probe);
        let mut per_shard: Vec<Vec<(NodeId, A)>> = (0..n_shards).map(|_| Vec::new()).collect();
        for (id, (node, &s)) in nodes.into_iter().zip(shard_of.iter()).enumerate() {
            per_shard[s].push((id, node));
        }
        let workers = per_shard
            .into_iter()
            .enumerate()
            .map(|(shard, members)| {
                assert!(!members.is_empty(), "shard {shard} has no nodes");
                let (ids, actors): (Vec<NodeId>, Vec<A>) = members.into_iter().unzip();
                let net = cfg.net.clone();
                let seed = shard_seed(cfg.seed, shard);
                let probe = Arc::clone(&probe);
                let (tx, cmd_rx) = channel::<Cmd<A>>();
                let (reply_tx, rx) = channel::<Reply<A, P>>();
                let join = std::thread::spawn(move || {
                    // Built here, not by the coordinator: a `Simulation`
                    // has slots for harness closures and is not `Send`.
                    let mut sim = Simulation::hosting(ids.clone(), n_global, actors, net, seed);
                    while let Ok(cmd) = cmd_rx.recv() {
                        match cmd {
                            Cmd::Epoch { until, inbound, faults } => {
                                run_epoch(&mut sim, until, inbound, faults);
                                let out = EpochOut {
                                    outbox: sim.take_outbox(),
                                    probes: ids.iter().map(|&id| (id, probe(sim.node(id)))).collect(),
                                    stats: sim.stats(),
                                };
                                if reply_tx.send(Reply::Epoch(out)).is_err() {
                                    return;
                                }
                            }
                            Cmd::Finish => {
                                let nodes = ids.into_iter().zip(sim.into_nodes()).collect();
                                let _ = reply_tx.send(Reply::Done(nodes));
                                return;
                            }
                        }
                    }
                });
                Worker { tx, rx, join }
            })
            .collect();
        ParallelSim {
            workers,
            shard_of,
            n_shards,
            cfg,
            now: 0,
            seq: 0,
            pending: (0..n_shards).map(|_| Vec::new()).collect(),
            injections: Vec::new(),
            pending_faults: VecDeque::new(),
            partition_timeline: vec![(0, None)],
            factory: None,
            edge_rng: HashMap::new(),
            local_stats: SimStats::default(),
            shard_stats: vec![SimStats::default(); n_shards],
            probes: vec![P::default(); n_global],
        }
    }

    /// Current virtual time (advances in whole epochs).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of worker threads (= shards).
    pub fn n_threads(&self) -> usize {
        self.n_shards
    }

    /// Aggregate statistics: sum of the shard simulations plus the
    /// coordinator's cross-shard drops.
    pub fn stats(&self) -> SimStats {
        let mut total = self.local_stats;
        for s in &self.shard_stats {
            total.messages_sent += s.messages_sent;
            total.messages_delivered += s.messages_delivered;
            total.messages_dropped += s.messages_dropped;
            total.timers_fired += s.timers_fired;
            total.messages_duplicated += s.messages_duplicated;
            total.messages_corrupted += s.messages_corrupted;
            total.crashes += s.crashes;
            total.recoveries += s.recoveries;
            total.restarts_with_loss += s.restarts_with_loss;
            total.disk_faults += s.disk_faults;
        }
        total
    }

    /// Latest probe value per node (updated at every epoch barrier).
    pub fn probes(&self) -> &[P] {
        &self.probes
    }

    /// Installs the fault plan (replacing any previous one). Panics on
    /// what this runtime does not model (see the module docs): a disk
    /// fault, per-link faults, a partition that splits a shard.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            plan.default_link.is_clean() && plan.links.is_empty(),
            "ParallelSim does not model per-link faults"
        );
        for (at, ev) in &plan.events {
            match ev {
                FaultEvent::Disk { node, .. } => {
                    panic!("ParallelSim does not model disk faults (node {node} at {at})")
                }
                FaultEvent::ClearLinkFaults => {
                    panic!("ParallelSim does not model per-link faults (clear at {at})")
                }
                FaultEvent::Partition(groups) => {
                    assert_eq!(groups.len(), self.shard_of.len(), "partition groups are per node");
                    let mut side: Vec<Option<usize>> = vec![None; self.n_shards];
                    for (&shard, &g) in self.shard_of.iter().zip(groups) {
                        assert_eq!(
                            *side[shard].get_or_insert(g),
                            g,
                            "ParallelSim does not model a partition that splits shard {shard} (at {at})"
                        );
                    }
                }
                _ => {}
            }
        }
        self.pending_faults = plan.sorted_events().into();
    }

    /// Registers the factory used for [`FaultEvent::RestartWithLoss`]
    /// events.
    pub fn set_node_factory(&mut self, factory: impl FnMut(NodeId) -> A + 'static) {
        self.factory = Some(Box::new(factory));
    }

    /// Injects an external (client) message to `to`, arriving at
    /// absolute time `at` (≥ now). Delivered to whatever process is
    /// alive at `at`.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg, at: u64) {
        assert!(at >= self.now, "cannot inject into the past");
        self.seq += 1;
        self.injections.push((at, self.seq, from, to, msg));
    }

    /// The partition state in effect at send time `at`.
    fn partition_at(&self, at: u64) -> Option<&Vec<usize>> {
        self.partition_timeline
            .iter()
            .rev()
            .find(|(t, _)| *t <= at)
            .and_then(|(_, p)| p.as_ref())
    }

    /// Runs one epoch across all shards.
    fn step_epoch(&mut self) {
        let until = self.now + self.cfg.epoch;
        // 1. Collect this epoch's faults: partitions change the
        //    coordinator's routing timeline; node faults are forwarded
        //    to the owning shard.
        let mut shard_faults: Vec<Vec<(u64, NodeFault<A>)>> =
            (0..self.n_shards).map(|_| Vec::new()).collect();
        while self.pending_faults.front().is_some_and(|(t, _)| *t < until) {
            let (t, ev) = self.pending_faults.pop_front().expect("peeked");
            match ev {
                FaultEvent::Partition(groups) => self.partition_timeline.push((t, Some(groups))),
                FaultEvent::Heal => self.partition_timeline.push((t, None)),
                FaultEvent::Crash(n) => {
                    shard_faults[self.shard_of[n]].push((t, NodeFault::Crash(n)));
                }
                FaultEvent::Recover(n) => {
                    shard_faults[self.shard_of[n]].push((t, NodeFault::Recover(n)));
                }
                FaultEvent::RestartWithLoss(n) => {
                    let factory = self
                        .factory
                        .as_mut()
                        .expect("FaultEvent::RestartWithLoss requires set_node_factory");
                    let fresh = factory(n);
                    shard_faults[self.shard_of[n]].push((t, NodeFault::Restart(n, fresh)));
                }
                FaultEvent::Disk { .. } | FaultEvent::ClearLinkFaults => {
                    unreachable!("refused by set_fault_plan")
                }
            }
        }
        // 2. Release injections and pending cross arrivals due this
        //    epoch, merged per destination shard in (at, seq) order
        //    (injections carry a coordinator seq from inject time, so
        //    the merge is a stable total order).
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.injections)
            .into_iter()
            .partition(|(at, ..)| *at < until);
        self.injections = later;
        for (at, seq, from, to, msg) in due {
            let shard = self.shard_of[to];
            self.pending[shard].push((at, seq, CrossArrival { at, from, to, msg }));
        }
        let mut inbound: Vec<Vec<CrossArrival<A::Msg>>> =
            (0..self.n_shards).map(|_| Vec::new()).collect();
        for (shard, bucket) in inbound.iter_mut().enumerate() {
            let (mut ready, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending[shard])
                .into_iter()
                .partition(|(at, ..)| *at < until);
            self.pending[shard] = later;
            ready.sort_by_key(|(at, seq, _)| (*at, *seq));
            *bucket = ready.into_iter().map(|(_, _, a)| a).collect();
        }
        // 3. Barrier: run every shard's epoch in parallel.
        for (shard, worker) in self.workers.iter().enumerate() {
            worker
                .tx
                .send(Cmd::Epoch {
                    until,
                    inbound: std::mem::take(&mut inbound[shard]),
                    faults: std::mem::take(&mut shard_faults[shard]),
                })
                .expect("worker alive");
        }
        // 4. Collect results in fixed shard order and route outboxes
        //    deterministically.
        let mut outboxes: Vec<Vec<ForeignSend<A::Msg>>> = Vec::with_capacity(self.n_shards);
        for (shard, worker) in self.workers.iter().enumerate() {
            match worker.rx.recv().expect("worker alive") {
                Reply::Epoch(out) => {
                    self.shard_stats[shard] = out.stats;
                    for (id, p) in out.probes {
                        self.probes[id] = p;
                    }
                    outboxes.push(out.outbox);
                }
                Reply::Done(_) => unreachable!("Finish not requested"),
            }
        }
        for (src_shard, outbox) in outboxes.into_iter().enumerate() {
            for (sent_at, from, to, msg) in outbox {
                let dst_shard = self.shard_of[to];
                if let Some(groups) = self.partition_at(sent_at) {
                    if groups[from] != groups[to] {
                        self.local_stats.messages_dropped += 1;
                        continue;
                    }
                }
                let rng = self
                    .edge_rng
                    .entry((src_shard, dst_shard))
                    .or_insert_with(|| {
                        let edge = ((src_shard as u64) << 32) | dst_shard as u64;
                        StdRng::seed_from_u64(mix(self.cfg.seed, mix(0xed6e, edge)))
                    });
                let jitter = if self.cfg.cross_jitter > 0 {
                    rng.gen_range(0..=self.cfg.cross_jitter)
                } else {
                    0
                };
                // Conservative bound: never before the next epoch.
                let at = (sent_at + self.cfg.cross_base + jitter).max(until);
                self.seq += 1;
                self.pending[dst_shard].push((at, self.seq, CrossArrival { at, from, to, msg }));
            }
        }
        self.now = until;
    }

    /// Runs epochs until virtual time reaches `deadline`.
    pub fn run_until(&mut self, deadline: u64) {
        while self.now < deadline {
            self.step_epoch();
        }
    }

    /// Runs epochs until `pred` over the per-node probes holds
    /// (checked at each barrier) or `deadline` virtual µs pass.
    /// Returns true iff the predicate held.
    pub fn run_until_probe(
        &mut self,
        deadline: u64,
        mut pred: impl FnMut(&[P]) -> bool,
    ) -> bool {
        if pred(&self.probes) {
            return true;
        }
        while self.now < deadline {
            self.step_epoch();
            if pred(&self.probes) {
                return true;
            }
        }
        false
    }

    /// Shuts the workers down and returns the actors in global node
    /// order (final-state assertions).
    pub fn into_nodes(self) -> Vec<A> {
        let n = self.shard_of.len();
        let mut slots: Vec<Option<A>> = (0..n).map(|_| None).collect();
        for worker in &self.workers {
            worker.tx.send(Cmd::Finish).expect("worker alive");
        }
        for worker in self.workers {
            match worker.rx.recv().expect("worker alive") {
                Reply::Done(nodes) => {
                    for (id, node) in nodes {
                        slots[id] = Some(node);
                    }
                }
                Reply::Epoch(_) => unreachable!("no epoch in flight"),
            }
            worker.join.join().expect("worker thread panicked");
        }
        slots.into_iter().map(|s| s.expect("every node returned")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, DiskFault, LinkFault};

    /// Node 0 (shard 0) pings node 1 (shard 1); node 1 echoes.
    #[derive(Clone, Default)]
    struct Pinger {
        pings: u32,
        pongs: u32,
        last_at: u64,
    }

    #[derive(Clone)]
    enum PP {
        Ping,
        Pong,
    }

    impl Actor for Pinger {
        type Msg = PP;
        fn on_start(&mut self, ctx: &mut Ctx<PP>) {
            if ctx.id() == 0 {
                for _ in 0..10 {
                    ctx.send(1, PP::Ping);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: PP, ctx: &mut Ctx<PP>) {
            self.last_at = ctx.now();
            match msg {
                PP::Ping => {
                    self.pings += 1;
                    ctx.send(from, PP::Pong);
                }
                PP::Pong => self.pongs += 1,
            }
        }
    }

    fn cross_sim(seed: u64) -> ParallelSim<Pinger, (u32, u32, u64)> {
        ParallelSim::new(
            vec![Pinger::default(), Pinger::default()],
            vec![0, 1],
            ParallelConfig { seed, ..Default::default() },
            |p| (p.pings, p.pongs, p.last_at),
        )
    }

    #[test]
    fn cross_shard_messages_deliver() {
        let mut sim = cross_sim(3);
        let ok = sim.run_until_probe(1_000_000, |p| p[0].1 >= 10 && p[1].0 >= 10);
        assert!(ok, "pings/pongs did not cross the shard boundary");
        let nodes = sim.into_nodes();
        assert_eq!(nodes[1].pings, 10);
        assert_eq!(nodes[0].pongs, 10);
    }

    #[test]
    fn parallel_runs_are_bit_identical() {
        let run = |seed: u64| {
            let mut sim = cross_sim(seed);
            sim.run_until(50_000);
            let stats = sim.stats();
            let nodes = sim.into_nodes();
            (stats, nodes[0].pongs, nodes[1].pings, nodes[0].last_at, nodes[1].last_at)
        };
        assert_eq!(run(7), run(7), "same seed must replay bit-identically");
        assert_ne!(run(7), run(8), "different seeds should differ (jitter)");
    }

    #[test]
    fn shard_partition_blocks_cross_traffic_by_send_time() {
        let mut sim = cross_sim(5);
        sim.set_fault_plan(FaultPlan::new().partition_at(0, vec![0, 1]));
        sim.run_until(100_000);
        assert_eq!(sim.probes()[1].0, 0, "partition must drop cross-shard pings");
        assert!(sim.stats().messages_dropped >= 10);
    }

    #[test]
    fn heal_then_inject_delivers() {
        let mut sim = cross_sim(6);
        sim.set_fault_plan(
            FaultPlan::new().partition_at(0, vec![0, 1]).heal_at(50_000),
        );
        sim.run_until(60_000);
        sim.inject(1, 1, PP::Ping, sim.now() + 10);
        let ok = sim.run_until_probe(1_000_000, |p| p[1].0 >= 1);
        assert!(ok, "post-heal injection must deliver");
    }

    #[test]
    fn crash_and_recover_follow_single_threaded_semantics() {
        let mut sim = cross_sim(9);
        sim.set_fault_plan(
            FaultPlan::new().crash_at(100, 1).recover_at(400_000, 1),
        );
        // Pings arrive ~1 ms; node 1 is down, so they drop.
        sim.run_until(500_000);
        assert_eq!(sim.probes()[1].0, 0);
        let crashes = sim.stats().crashes;
        assert_eq!(crashes, 1);
        // Recovered: a fresh injection lands.
        sim.inject(1, 1, PP::Ping, sim.now() + 10);
        let ok = sim.run_until_probe(2_000_000, |p| p[1].0 >= 1);
        assert!(ok);
    }

    #[test]
    fn restart_with_loss_uses_factory() {
        let mut sim = cross_sim(11);
        sim.set_node_factory(|_| Pinger::default());
        sim.set_fault_plan(FaultPlan::new().restart_with_loss_at(50_000, 0));
        sim.run_until(40_000);
        assert_eq!(sim.probes()[0].1, 10, "initial exchange completes");
        // The fresh node 0 re-runs on_start: 10 more pings on the wire.
        let ok = sim.run_until_probe(1_000_000, |p| p[1].0 >= 20);
        assert!(ok, "restarted node must re-send from on_start");
        assert_eq!(sim.stats().restarts_with_loss, 1);
    }

    /// Self-driving traffic whose state depends on every delivery's
    /// order and time: a per-node timer, broadcasts, and forwarding.
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Gossip {
        heard: u64,
        ticks: u64,
        sum: u64,
        last_at: u64,
    }

    impl Actor for Gossip {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<u64>) {
            ctx.set_timer(700 + 100 * ctx.id() as u64, 1);
            ctx.broadcast(self.sum);
        }
        fn on_message(&mut self, from: NodeId, msg: u64, ctx: &mut Ctx<u64>) {
            self.heard += 1;
            self.sum = mix(self.sum ^ msg, from as u64 + ctx.now());
            self.last_at = ctx.now();
            if self.heard.is_multiple_of(3) {
                ctx.send((from + 1) % ctx.n_nodes(), self.sum);
            }
        }
        fn on_timer(&mut self, _: u64, ctx: &mut Ctx<u64>) {
            self.ticks += 1;
            ctx.send((ctx.id() + 1) % ctx.n_nodes(), self.sum);
            ctx.set_timer(700, 1);
        }
    }

    #[test]
    fn one_shard_runs_exactly_as_the_single_threaded_simulation() {
        // "The parallel runtime is semantics-preserving": with every node
        // in one shard there is no cross-shard hop, so the coordinator
        // must add nothing — same stats, same actor state as a plain
        // `Simulation` on the shard's seed, faults included.
        let net = NetConfig { base_latency: 300, jitter: 250, drop_rate: 0.05, processing: 40 };
        let plan = || {
            FaultPlan::new()
                .crash_at(3_000, 1)
                .recover_at(9_400, 1)
                .restart_with_loss_at(15_500, 2)
                .crash_at(21_000, 0)
                .restart_with_loss_at(21_000, 3)
        };
        let nodes = || vec![Gossip::default(); 4];
        const END: u64 = 40_000;

        let cfg = ParallelConfig { net: net.clone(), seed: 19, ..Default::default() };
        let mut par = ParallelSim::new(nodes(), vec![0; 4], cfg, |g: &Gossip| g.heard);
        par.set_fault_plan(plan());
        par.set_node_factory(|_| Gossip::default());
        par.run_until(END);
        let par_stats = par.stats();

        let mut one = Simulation::new(nodes(), net, shard_seed(19, 0));
        one.set_fault_plan(plan());
        one.set_node_factory(|_| Gossip::default());
        // An epoch is `[k·E, (k+1)·E)`: the event at `END` is not run.
        one.run_until(END - 1);

        assert!(par_stats.messages_delivered > 200 && par_stats.messages_dropped > 0);
        let faults = (par_stats.crashes, par_stats.recoveries, par_stats.restarts_with_loss);
        assert_eq!(faults, (2, 1, 2));
        assert_eq!(par_stats, one.stats());
        assert_eq!(par.into_nodes(), one.into_nodes());
    }

    #[test]
    #[should_panic(expected = "does not model disk faults")]
    fn fault_plan_with_a_disk_fault_is_refused() {
        cross_sim(1).set_fault_plan(FaultPlan::new().disk_fault_at(10, 0, DiskFault::TornWrite));
    }

    #[test]
    #[should_panic(expected = "does not model per-link faults")]
    fn fault_plan_with_link_faults_is_refused() {
        let lossy = LinkFault { drop: 0.5, ..Default::default() };
        cross_sim(1).set_fault_plan(FaultPlan::new().link(0, 1, lossy));
    }

    #[test]
    #[should_panic(expected = "a partition that splits shard 0")]
    fn partition_that_splits_a_shard_is_refused() {
        let nodes = vec![Pinger::default(); 3];
        let mut sim = ParallelSim::new(nodes, vec![0, 0, 1], ParallelConfig::default(), |_| ());
        sim.set_fault_plan(FaultPlan::new().partition_at(10, vec![0, 1, 1]));
    }
}
