//! SharPer-style sharded consensus with cross-shard lock/order/commit.
//!
//! The Separ instantiation (paper §5) "relies on the permissioned
//! blockchain system SharPer to guarantee integrity of the global system
//! state", and Qanaat "provides scalability by partitioning data into
//! data shards" (RC4). This module reproduces that deployment shape:
//!
//! * the replica set is partitioned into shards; each replica embeds a
//!   [`PbftNode`] over its own shard's members, the same host a bare
//!   PBFT cluster and the serving layer run;
//! * *intra-shard* transactions involve one shard and commit in one PBFT
//!   round — so throughput scales with the number of shards (and, on the
//!   [`prever_sim::ParallelSim`] runtime, with cores: each shard's
//!   replica group is a `Send` shard core on its own OS thread);
//! * *cross-shard* transactions run a **lock/order/commit** protocol
//!   (SharPer/AHL shape). Every involved shard orders the transaction in
//!   its local log (the lock/order step — log position is the lock; log
//!   appends never conflict, so locking cannot deadlock). Each replica
//!   then sends a `Prepared` certificate vote — carrying the Merkle
//!   digest of the batch that ordered the transaction — to the
//!   *coordinator shard* (the lowest involved shard). A coordinator
//!   replica holding `f + 1` digest-consistent votes from **every**
//!   involved shard submits a *commit decision* into its own shard's
//!   PBFT log; if the certificates do not assemble within
//!   [`CROSS_TIMEOUT`] it submits an *abort decision* instead. The
//!   first decision ordered wins (PBFT dedups by command id), so the
//!   outcome is atomic: no two replicas can resolve the same
//!   transaction differently. Coordinator replicas broadcast the
//!   decided `Outcome` to the other involved shards, whose replicas
//!   finalize on `f + 1` matching outcome votes (one honest witness).
//!
//! A stalled or partitioned shard therefore cannot wedge the others:
//! the coordinator aborts after the timeout, survivors resolve, and the
//! stalled shard learns the abort on heal by re-announcing `Prepared`
//! (the coordinator replies with the recorded outcome).
//!
//! Fidelity note (also in DESIGN.md §12): SharPer proper runs one
//! flattened consensus across involved shards with vector sequence
//! numbers; the construction here has the same message complexity class
//! and the same qualitative behavior — cross-shard transactions cost
//! extra wide-area rounds and can abort under faults, intra-shard
//! transactions scale linearly — which is what experiment E7 measures.

use crate::pbft::{Byzantine, Executed, PbftMsg, PbftNode, NOOP_ID, TIMER_TICK};
use crate::{BatchConfig, Command};
use prever_crypto::Digest;
use prever_sim::{Actor, Ctx, NodeId, VoteSet};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Shard identifier (dense, 0-based).
pub use prever_sim::parallel::ShardId;

/// High bit tagging cross-shard *decision* commands in a coordinator
/// shard's log. Application transaction ids must stay below this.
pub const DECIDE_BIT: u64 = 1 << 63;

/// How long a coordinator replica waits for the full set of involved-
/// shard certificates before submitting an abort decision.
pub const CROSS_TIMEOUT: u64 = 600_000; // 600 ms

/// Messages of the sharded deployment.
///
/// `Command` and the involvement list are `Arc`-shared: the request
/// fan-out sends the same payload to every replica of every involved
/// shard, so by-value messages would deep-copy the payload per
/// destination (see the allocation test in `tests/alloc.rs`).
#[derive(Clone, Debug)]
pub enum ShardedMsg {
    /// Client request naming the involved shards.
    Request {
        /// The command (shared, not deep-copied per destination).
        command: Arc<Command>,
        /// Involved shards (sorted, deduplicated by the sender).
        involved: Arc<[ShardId]>,
    },
    /// Intra-shard PBFT traffic.
    Pbft(PbftMsg),
    /// Lock/order certificate vote: a replica of `shard` ordered and
    /// executed `tx_id` in the batch with Merkle digest `digest`.
    /// Addressed to the coordinator shard's replicas.
    Prepared {
        /// Transaction id.
        tx_id: u64,
        /// The reporting replica's shard.
        shard: ShardId,
        /// Merkle digest of the local batch that ordered the tx.
        digest: Digest,
    },
    /// A coordinator-shard replica announces the decided outcome
    /// (ordered through the coordinator shard's own PBFT log).
    Outcome {
        /// Transaction id.
        tx_id: u64,
        /// true = commit, false = abort.
        commit: bool,
        /// Involved shards (so a replica that missed the request fan-
        /// out can still finalize).
        involved: Arc<[ShardId]>,
    },
    /// A replica asks a shard-mate about a transaction it executed (or
    /// recovered via state transfer) but cannot resolve — typically
    /// because it missed the Request fan-out or the outcome while it
    /// was down.
    TxQuery {
        /// Transaction id being asked about.
        tx_id: u64,
    },
    /// Answer to a [`ShardedMsg::TxQuery`]: everything the responder
    /// knows about the transaction (no payload — the asker recovers
    /// commands via PBFT state transfer).
    TxInfo {
        /// Transaction id.
        tx_id: u64,
        /// Its involved shards.
        involved: Arc<[ShardId]>,
        /// Whether the responder completed (committed) it.
        completed: bool,
        /// Whether the responder recorded a global abort for it.
        aborted: bool,
    },
}

impl From<PbftMsg> for ShardedMsg {
    fn from(msg: PbftMsg) -> Self {
        ShardedMsg::Pbft(msg)
    }
}

/// How long a transaction may sit stuck before shard-mates are queried
/// (also the per-transaction re-query/re-announce interval).
const QUERY_AFTER: u64 = 300_000; // 300 ms

/// Cluster geometry helper.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// Number of shards.
    pub n_shards: usize,
    /// Replicas per shard (3f + 1).
    pub replicas_per_shard: usize,
}

impl Topology {
    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.n_shards * self.replicas_per_shard
    }

    /// The shard of a node.
    pub fn shard_of(&self, node: NodeId) -> ShardId {
        node / self.replicas_per_shard
    }

    /// Member node ids of a shard.
    pub fn members(&self, shard: ShardId) -> Vec<NodeId> {
        let lo = shard * self.replicas_per_shard;
        (lo..lo + self.replicas_per_shard).collect()
    }

    /// The f parameter per shard.
    pub fn f(&self) -> usize {
        (self.replicas_per_shard - 1) / 3
    }

    /// The shard → node-shard assignment vector for
    /// [`prever_sim::ParallelSim`].
    pub fn shard_map(&self) -> Vec<usize> {
        (0..self.n_nodes()).map(|id| self.shard_of(id)).collect()
    }
}

/// The coordinator shard of an involvement set: the lowest involved
/// shard (the list is kept sorted).
fn coordinator_of(involved: &[ShardId]) -> ShardId {
    involved[0]
}

/// A globally resolved *commit* in completion order. Carries ids only:
/// completions used to clone the full command (payload included) out of
/// the log, which the allocation audit flagged — the command stays
/// available in the shard's executed history for anyone who needs bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Transaction id.
    pub tx_id: u64,
    /// Completion slot on this replica (1-based, dense).
    pub slot: u64,
    /// Virtual time of completion.
    pub at: u64,
}

/// A replica of the sharded deployment.
#[derive(Debug)]
pub struct ShardedNode {
    topology: Topology,
    shard: ShardId,
    /// The shard's PBFT replica: timers, batching, execution.
    node: PbftNode,
    /// tx_id → involved shards.
    involved: HashMap<u64, Arc<[ShardId]>>,
    /// tx_id → Merkle digest of the local batch that ordered it.
    ordered_digest: HashMap<u64, Digest>,
    /// tx ids this replica's shard has executed locally (ordered, so
    /// the recovery probe iterates deterministically).
    local_done: BTreeSet<u64>,
    /// Coordinator bookkeeping: (tx_id, shard) → the digest the shard's
    /// certificate is bound to, and its distinct voters.
    prepared: HashMap<(u64, ShardId), (Digest, VoteSet)>,
    /// Cross-shard transactions this coordinator replica is watching
    /// for timeout: tx_id → first-seen time.
    watchdog: BTreeMap<u64, u64>,
    /// Decision commands this replica already submitted to its own
    /// shard's log (commit or abort — at most one per tx).
    decision_submitted: HashSet<u64>,
    /// Decided outcomes known to this replica (true = commit).
    outcome: HashMap<u64, bool>,
    /// Participant bookkeeping: (tx_id, commit) → coordinator-shard
    /// replicas announcing that outcome.
    outcome_votes: HashMap<(u64, bool), VoteSet>,
    /// Outcomes decided before the involvement set was known (state
    /// transfer can replay a decision first); announced on the tick.
    announce_pending: BTreeSet<u64>,
    /// Recovery: (tx_id, completed) → shard-mates claiming they
    /// completed (true) or aborted (false) it. `f + 1` claims adopt the
    /// resolution without re-running the cross-shard exchange.
    claims: HashMap<(u64, bool), VoteSet>,
    /// tx_id → when this replica first saw it (commit-latency metric
    /// and coordinator timeout base).
    first_seen: HashMap<u64, u64>,
    /// Per-tx probe bookkeeping: when the tx was last queried.
    query_at: HashMap<u64, u64>,
    /// Locally executed entries whose involvement is not yet known
    /// (PrePrepare can outrun the Request fan-out): (tx_id, at).
    deferred: Vec<(u64, u64)>,
    /// Globally committed transactions in completion order.
    completed: Vec<Completion>,
    /// Every resolved transaction: true = committed, false = aborted.
    resolved: HashMap<u64, bool>,
    /// `sharded.batch.committed.shard<N>`, looked up at this replica's
    /// first committed batch rather than formatted at every one.
    shard_committed: OnceLock<Arc<prever_obs::Counter>>,
}

// Every actor hosted on the simulator must be `Send`: the shard-per-
// thread runtime ships replica groups to worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardedNode>();
    assert_send::<ShardedMsg>();
};

impl ShardedNode {
    /// Creates the replica with simulator id `id`.
    pub fn new(id: NodeId, topology: Topology, byz: Byzantine) -> Self {
        let shard = topology.shard_of(id);
        ShardedNode {
            topology,
            shard,
            node: PbftNode::with_members(id, topology.members(shard), byz),
            involved: HashMap::new(),
            ordered_digest: HashMap::new(),
            local_done: BTreeSet::new(),
            prepared: HashMap::new(),
            watchdog: BTreeMap::new(),
            decision_submitted: HashSet::new(),
            outcome: HashMap::new(),
            outcome_votes: HashMap::new(),
            announce_pending: BTreeSet::new(),
            claims: HashMap::new(),
            first_seen: HashMap::new(),
            query_at: HashMap::new(),
            deferred: Vec::new(),
            completed: Vec::new(),
            resolved: HashMap::new(),
            shard_committed: OnceLock::new(),
        }
    }

    /// Sets the batching policy on the shard's core (builder style).
    pub fn with_batching(mut self, cfg: BatchConfig) -> Self {
        self.node = self.node.with_batching(cfg);
        self
    }

    /// This replica's shard.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Globally committed transactions in completion order.
    pub fn completed(&self) -> &[Completion] {
        &self.completed
    }

    /// Count of committed transactions.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Count of aborted transactions.
    pub fn aborted_count(&self) -> usize {
        self.resolved.len() - self.completed.len()
    }

    /// Committed + aborted.
    pub fn resolved_count(&self) -> usize {
        self.resolved.len()
    }

    /// True iff this replica resolved the transaction (either way).
    pub fn is_resolved(&self, tx_id: u64) -> bool {
        self.resolved.contains_key(&tx_id)
    }

    /// The resolution if known: `Some(true)` committed, `Some(false)`
    /// aborted.
    pub fn outcome_of(&self, tx_id: u64) -> Option<bool> {
        self.resolved.get(&tx_id).copied()
    }

    /// One-line state summary for harness debugging: resolution sets,
    /// local executions, and any transactions stuck mid-protocol.
    pub fn debug_summary(&self) -> String {
        let resolved_as = |commit: bool| {
            let mut ids: Vec<u64> =
                self.resolved.iter().filter(|(_, &c)| c == commit).map(|(&id, _)| id).collect();
            ids.sort_unstable();
            ids
        };
        let (completed, aborted) = (resolved_as(true), resolved_as(false));
        let deferred: Vec<u64> = self.deferred.iter().map(|(id, _)| *id).collect();
        let stuck: Vec<String> = self
            .local_done
            .iter()
            .filter(|id| !self.is_resolved(**id))
            .map(|id| {
                let votes: Vec<String> = self
                    .involved
                    .get(id)
                    .map(|inv| {
                        inv.iter()
                            .map(|&s| {
                                let got = self.prepared.get(&(*id, s)).map_or(0, |(_, v)| v.len());
                                format!("shard{s}:{got}")
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                format!("{id}[{}]", votes.join(","))
            })
            .collect();
        format!(
            "view={} last_exec={} completed={completed:?} aborted={aborted:?} \
             deferred={deferred:?} stuck={stuck:?}",
            self.node.core.view(),
            self.node.core.executed().len(),
        )
    }

    /// Re-processes executions that were deferred for missing
    /// involvement metadata.
    fn retry_deferred(&mut self, ctx: &mut Ctx<ShardedMsg>) {
        let (ready, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut self.deferred)
            .into_iter()
            .partition(|(id, _)| self.involved.contains_key(id));
        self.deferred = waiting;
        for (id, at) in ready {
            self.process_execution(id, at, ctx);
        }
    }

    /// Processes the local batches one host step executed, in order,
    /// each in one pass: the committed-batch counters, then its commands
    /// — intra-shard txs complete immediately, cross-shard txs announce
    /// `Prepared` certificates bound to this batch's digest, decision
    /// commands resolve outcomes on the coordinator shard.
    fn drain_executions(&mut self, executed: Executed, ctx: &mut Ctx<ShardedMsg>) {
        for (_, batch, at) in executed.batches {
            prever_obs::counter!("sharded.batch.committed").inc();
            self.shard_committed
                .get_or_init(|| {
                    prever_obs::counter(&format!("sharded.batch.committed.shard{}", self.shard))
                })
                .inc();
            for command in batch.commands() {
                let id = command.id;
                if id == NOOP_ID {
                    continue;
                }
                if id & DECIDE_BIT != 0 {
                    let commit = command.payload.first() == Some(&b'c');
                    self.handle_decision(id & !DECIDE_BIT, commit, at, ctx);
                } else {
                    self.ordered_digest.insert(id, batch.digest());
                    self.process_execution(id, at, ctx);
                }
            }
        }
    }

    fn process_execution(&mut self, tx_id: u64, at: u64, ctx: &mut Ctx<ShardedMsg>) {
        let Some(involved) = self.involved.get(&tx_id).cloned() else {
            self.deferred.push((tx_id, at));
            return;
        };
        self.local_done.insert(tx_id);
        self.first_seen.entry(tx_id).or_insert(at);
        if involved.len() == 1 {
            self.complete(tx_id, ctx.now(), false);
            return;
        }
        // The local log position is the lock (SharPer): this shard has
        // now ordered the cross-shard tx in its own log.
        if prever_obs::trace::active() {
            let me = self.node.core.id() as u64;
            prever_obs::trace::event(
                me,
                at,
                prever_obs::TraceCtx::for_command(tx_id).child("exec", me),
                "cross-lock",
                tx_id,
            );
        }
        self.watch_if_coordinator(tx_id, &involved, at);
        match self.outcome.get(&tx_id).copied() {
            Some(true) => self.complete(tx_id, ctx.now(), true),
            // Globally aborted before we ordered it locally: the local
            // log append is harmless (appends never conflict), the tx
            // just never completes.
            Some(false) => {}
            None => self.announce_prepared(tx_id, &involved, ctx),
        }
    }

    /// Sends this replica's `Prepared` certificate vote, bound to the
    /// digest of the local batch that ordered the tx, to every
    /// coordinator-shard replica (recording it directly when this
    /// replica is itself a coordinator-shard member).
    fn announce_prepared(&mut self, tx_id: u64, involved: &[ShardId], ctx: &mut Ctx<ShardedMsg>) {
        let digest = self.ordered_digest.get(&tx_id).copied().unwrap_or(Digest::ZERO);
        for member in self.topology.members(coordinator_of(involved)) {
            if member == ctx.id() {
                self.record_prepared(tx_id, self.shard, digest, member);
                self.try_decide(tx_id, ctx);
            } else {
                ctx.send(member, ShardedMsg::Prepared { tx_id, shard: self.shard, digest });
            }
        }
    }

    /// Coordinator-side: records one certificate vote. Votes for a
    /// shard must agree on the batch digest; a vote conflicting with
    /// the first recorded digest is discarded (Byzantine or stale).
    fn record_prepared(&mut self, tx_id: u64, shard: ShardId, digest: Digest, from: NodeId) {
        let (bound, votes) =
            self.prepared.entry((tx_id, shard)).or_insert_with(|| (digest, VoteSet::default()));
        if *bound != digest {
            prever_obs::counter!("sharded.prepared.digest_mismatch").inc();
            return;
        }
        votes.add(from);
    }

    /// Starts the coordinator watchdog for a cross-shard tx if this
    /// replica belongs to the coordinator shard.
    fn watch_if_coordinator(&mut self, tx_id: u64, involved: &[ShardId], now: u64) {
        if involved.len() > 1
            && coordinator_of(involved) == self.shard
            && !self.outcome.contains_key(&tx_id)
        {
            self.watchdog.entry(tx_id).or_insert(now);
        }
    }

    /// Coordinator-side: submits a commit decision once every involved
    /// shard has `f + 1` digest-consistent certificate votes.
    fn try_decide(&mut self, tx_id: u64, ctx: &mut Ctx<ShardedMsg>) {
        if self.outcome.contains_key(&tx_id) || self.decision_submitted.contains(&tx_id) {
            return;
        }
        let Some(involved) = self.involved.get(&tx_id) else {
            return;
        };
        if involved.len() < 2 || coordinator_of(involved) != self.shard {
            return;
        }
        let need = self.topology.f() + 1;
        let certified = involved
            .iter()
            .all(|&s| self.prepared.get(&(tx_id, s)).is_some_and(|(_, v)| v.len() >= need));
        if certified {
            self.submit_decision(tx_id, true, ctx);
        }
    }

    /// Orders a commit/abort decision through the coordinator shard's
    /// own PBFT log. The first decision to be ordered wins: PBFT dedups
    /// by command id, so a later conflicting submission is dropped at
    /// the primary and the outcome stays atomic.
    fn submit_decision(&mut self, tx_id: u64, commit: bool, ctx: &mut Ctx<ShardedMsg>) {
        self.decision_submitted.insert(tx_id);
        let payload: &[u8] = if commit { b"c" } else { b"a" };
        // Decisions are latency-critical — every participant shard is
        // blocked on the outcome — so cut the batch (and the
        // backup→primary relay) immediately instead of letting the
        // decision wait out the fill delay in a partial batch.
        self.node.submit(Command::new(DECIDE_BIT | tx_id, payload), true, ctx);
    }

    /// A decision command executed in this (coordinator-shard)
    /// replica's log: record the outcome, resolve locally, announce to
    /// the other involved shards.
    fn handle_decision(&mut self, tx_id: u64, commit: bool, at: u64, ctx: &mut Ctx<ShardedMsg>) {
        if self.outcome.contains_key(&tx_id) {
            return;
        }
        self.outcome.insert(tx_id, commit);
        self.watchdog.remove(&tx_id);
        self.first_seen.entry(tx_id).or_insert(at);
        if prever_obs::trace::active() {
            let me = self.node.core.id() as u64;
            prever_obs::trace::event(
                me,
                at,
                prever_obs::TraceCtx::for_command(tx_id).child("cross-lock", me),
                "cross-decide",
                tx_id,
            );
        }
        self.apply_outcome(tx_id, commit, ctx.now());
        self.announce_outcome(tx_id, ctx);
    }

    /// Broadcasts the decided outcome to every replica of every other
    /// involved shard (deferred until involvement is known — state
    /// transfer can replay the decision before the request fan-out).
    fn announce_outcome(&mut self, tx_id: u64, ctx: &mut Ctx<ShardedMsg>) {
        let Some(commit) = self.outcome.get(&tx_id).copied() else {
            return;
        };
        let Some(involved) = self.involved.get(&tx_id).cloned() else {
            self.announce_pending.insert(tx_id);
            return;
        };
        self.announce_pending.remove(&tx_id);
        for &s in involved.iter() {
            if s == self.shard {
                continue;
            }
            for member in self.topology.members(s) {
                ctx.send(
                    member,
                    ShardedMsg::Outcome { tx_id, commit, involved: involved.clone() },
                );
            }
        }
    }

    /// Applies a decided outcome locally: commit completes (now or when
    /// the local execution catches up), abort is final immediately.
    fn apply_outcome(&mut self, tx_id: u64, commit: bool, now: u64) {
        self.watchdog.remove(&tx_id);
        if commit {
            if self.local_done.contains(&tx_id) {
                self.complete(tx_id, now, true);
            }
        } else if let Entry::Vacant(slot) = self.resolved.entry(tx_id) {
            slot.insert(false);
            prever_obs::counter!("sharded.cross_shard.aborts").inc();
            prever_obs::log!(Debug, "cross-shard tx {tx_id} aborted");
        }
    }

    fn complete(&mut self, tx_id: u64, now: u64, cross: bool) {
        let Entry::Vacant(slot) = self.resolved.entry(tx_id) else {
            return;
        };
        slot.insert(true);
        let slot = self.completed.len() as u64 + 1;
        self.completed.push(Completion { tx_id, slot, at: now });
        if cross {
            let seen = self.first_seen.get(&tx_id).copied().unwrap_or(now);
            prever_obs::counter!("sharded.completed.cross_shard").inc();
            prever_obs::histogram!("sharded.cross_shard.commit_latency")
                .record(now.saturating_sub(seen));
            if prever_obs::trace::active() {
                let me = self.node.core.id() as u64;
                prever_obs::trace::event(
                    me,
                    now,
                    prever_obs::TraceCtx::for_command(tx_id).child("cross-decide", me),
                    "cross-outcome",
                    tx_id,
                );
            }
            prever_obs::log!(Debug, "cross-shard tx {tx_id} committed");
        } else {
            prever_obs::counter!("sharded.completed.intra_shard").inc();
        }
    }

    /// Recovery probe: queries shard-mates about transactions stuck
    /// (executed-or-deferred but unresolved) longer than
    /// [`QUERY_AFTER`], and re-announces `Prepared` for stuck cross-
    /// shard txs so a (re)connected coordinator can decide or replay
    /// the recorded outcome. Replays every [`QUERY_AFTER`] until the
    /// transaction resolves.
    fn probe_stuck(&mut self, ctx: &mut Ctx<ShardedMsg>) {
        let now = ctx.now();
        let mut stuck: Vec<u64> = self.deferred.iter().map(|(id, _)| *id).collect();
        stuck.extend(self.local_done.iter().filter(|id| !self.is_resolved(**id)));
        stuck.sort_unstable();
        stuck.dedup();
        for tx_id in stuck {
            let since = *self.query_at.entry(tx_id).or_insert(now);
            if now.saturating_sub(since) < QUERY_AFTER {
                continue;
            }
            self.query_at.insert(tx_id, now);
            prever_obs::counter!("sharded.tx_queries").inc();
            for member in self.topology.members(self.shard) {
                if member != ctx.id() {
                    ctx.send(member, ShardedMsg::TxQuery { tx_id });
                }
            }
            if let Some(involved) = self.involved.get(&tx_id).cloned() {
                if involved.len() > 1
                    && self.local_done.contains(&tx_id)
                    && !self.outcome.contains_key(&tx_id)
                {
                    self.announce_prepared(tx_id, &involved, ctx);
                }
            }
        }
    }

    /// Coordinator watchdog: certificates that failed to assemble
    /// within [`CROSS_TIMEOUT`] get an abort decision, so a stalled
    /// involved shard cannot wedge the survivors.
    fn check_timeouts(&mut self, ctx: &mut Ctx<ShardedMsg>) {
        let now = ctx.now();
        let expired: Vec<u64> = self
            .watchdog
            .iter()
            .filter(|(id, seen)| {
                now.saturating_sub(**seen) >= CROSS_TIMEOUT
                    && !self.decision_submitted.contains(*id)
                    && !self.outcome.contains_key(*id)
            })
            .map(|(id, _)| *id)
            .collect();
        for tx_id in expired {
            prever_obs::log!(
                Debug,
                "coordinator timeout on cross-shard tx {tx_id}: submitting abort"
            );
            self.submit_decision(tx_id, false, ctx);
        }
        // Outcomes whose announcement waited on involvement metadata.
        let pending: Vec<u64> = self
            .announce_pending
            .iter()
            .filter(|id| self.involved.contains_key(id))
            .copied()
            .collect();
        for tx_id in pending {
            self.announce_outcome(tx_id, ctx);
        }
    }
}

impl Actor for ShardedNode {
    type Msg = ShardedMsg;

    fn on_start(&mut self, ctx: &mut Ctx<ShardedMsg>) {
        let executed = self.node.start(ctx);
        self.drain_executions(executed, ctx);
    }

    /// Intra-shard traffic reports the wrapped [`PbftMsg::kind`].
    fn kind(&self, msg: &ShardedMsg) -> &'static str {
        match msg {
            ShardedMsg::Request { .. } => "tx_request",
            ShardedMsg::Pbft(m) => m.kind(),
            ShardedMsg::Prepared { .. } => "prepared",
            ShardedMsg::Outcome { .. } => "outcome",
            ShardedMsg::TxQuery { .. } => "tx_query",
            ShardedMsg::TxInfo { .. } => "tx_info",
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ShardedMsg, ctx: &mut Ctx<ShardedMsg>) {
        match msg {
            ShardedMsg::Request { command, involved } => {
                let is_client = from == ctx.id();
                let tx_id = command.id;
                debug_assert!(
                    tx_id & DECIDE_BIT == 0,
                    "application tx ids must stay below DECIDE_BIT"
                );
                self.involved.entry(tx_id).or_insert_with(|| involved.clone());
                self.first_seen.entry(tx_id).or_insert(ctx.now());
                self.watch_if_coordinator(tx_id, &involved, ctx.now());
                if is_client {
                    // Fan the request out to every replica of every
                    // involved shard, so all of them learn the
                    // involvement set (and resubmissions after a
                    // partition reach the other shards again). The
                    // command is Arc-shared: one payload, N pointers.
                    for &s in involved.iter() {
                        for member in self.topology.members(s) {
                            if member != ctx.id() {
                                ctx.send(
                                    member,
                                    ShardedMsg::Request {
                                        command: command.clone(),
                                        involved: involved.clone(),
                                    },
                                );
                            }
                        }
                    }
                }
                // Involvement may have arrived after the execution.
                self.retry_deferred(ctx);
                if involved.contains(&self.shard) {
                    if self.outcome.get(&tx_id) == Some(&false) {
                        // Aborted: final. A resubmission does not
                        // resurrect the tx (ids are unique).
                    } else if self.local_done.contains(&tx_id) {
                        // Already ordered locally (e.g. a resubmission
                        // after a partition): re-announce the
                        // certificate so a reconnected coordinator can
                        // decide — or reply with the recorded outcome.
                        if involved.len() > 1 && self.outcome_of(tx_id) != Some(true) {
                            self.announce_prepared(tx_id, &involved, ctx);
                        }
                    } else {
                        self.node.submit((*command).clone(), false, ctx);
                    }
                }
            }
            ShardedMsg::Pbft(m) => {
                let executed = self.node.deliver(from, m, ctx);
                self.drain_executions(executed, ctx);
            }
            ShardedMsg::Prepared { tx_id, shard, digest } => {
                if self.topology.shard_of(from) != shard {
                    return; // a replica may only vote for its own shard
                }
                if let Some(&commit) = self.outcome.get(&tx_id) {
                    // Already decided: replay the outcome to the asker
                    // (covers healed shards whose votes arrive late).
                    if let Some(involved) = self.involved.get(&tx_id).cloned() {
                        ctx.send(from, ShardedMsg::Outcome { tx_id, commit, involved });
                    }
                    return;
                }
                if let Some(involved) = self.involved.get(&tx_id).cloned() {
                    self.watch_if_coordinator(tx_id, &involved, ctx.now());
                }
                self.first_seen.entry(tx_id).or_insert(ctx.now());
                self.record_prepared(tx_id, shard, digest, from);
                self.try_decide(tx_id, ctx);
            }
            ShardedMsg::Outcome { tx_id, commit, involved } => {
                // Only the coordinator shard announces outcomes.
                if involved.len() < 2 || self.topology.shard_of(from) != coordinator_of(&involved)
                {
                    return;
                }
                self.involved.entry(tx_id).or_insert_with(|| involved.clone());
                self.retry_deferred(ctx);
                if self.outcome.contains_key(&tx_id) {
                    return;
                }
                let need = self.topology.f() + 1;
                let votes = self.outcome_votes.entry((tx_id, commit)).or_default();
                votes.add(from);
                if votes.len() >= need {
                    // f + 1 coordinator-shard replicas agree: at least
                    // one honest one executed the ordered decision.
                    self.outcome.insert(tx_id, commit);
                    self.apply_outcome(tx_id, commit, ctx.now());
                }
            }
            ShardedMsg::TxQuery { tx_id } => {
                // Only shard-mates are answered: involvement metadata
                // and resolution claims cross shards via the Request
                // fan-out, Prepared votes, and Outcome announcements.
                if self.topology.shard_of(from) != self.shard || from == ctx.id() {
                    return;
                }
                let Some(involved) = self.involved.get(&tx_id).cloned() else {
                    return;
                };
                let resolved = self.outcome_of(tx_id);
                if resolved.is_none() && !self.node.core.has_executed(tx_id) {
                    return;
                }
                let (completed, aborted) = (resolved == Some(true), resolved == Some(false));
                ctx.send(from, ShardedMsg::TxInfo { tx_id, involved, completed, aborted });
            }
            ShardedMsg::TxInfo { tx_id, involved, completed, aborted } => {
                if self.topology.shard_of(from) != self.shard {
                    return;
                }
                self.involved.entry(tx_id).or_insert_with(|| involved.clone());
                self.retry_deferred(ctx);
                for (claim, made) in [(true, completed), (false, aborted)] {
                    if made {
                        self.claims.entry((tx_id, claim)).or_default().add(from);
                    }
                }
                if self.is_resolved(tx_id) {
                    return;
                }
                let f = self.topology.f();
                let adopted = |claim| self.claims.get(&(tx_id, claim)).is_some_and(|v| v.len() > f);
                // Adoption: f + 1 shard-mates resolved it, so at least
                // one honest replica verified the decision — adopt the
                // resolution rather than waiting for votes the other
                // shards will never re-send.
                if self.local_done.contains(&tx_id) && adopted(true) {
                    self.outcome.entry(tx_id).or_insert(true);
                    self.complete(tx_id, ctx.now(), involved.len() > 1);
                    prever_obs::counter!("sharded.completed.adopted").inc();
                } else if adopted(false) {
                    self.outcome.entry(tx_id).or_insert(false);
                    self.apply_outcome(tx_id, false, ctx.now());
                }
            }
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<ShardedMsg>) {
        let executed = self.node.timer(timer, ctx);
        self.drain_executions(executed, ctx);
        if timer == TIMER_TICK {
            self.probe_stuck(ctx);
            self.check_timeouts(ctx);
        }
    }
}

/// Builds an honest sharded cluster whose per-shard cores batch under
/// `cfg` (batches may mix intra- and cross-shard transactions; the
/// cross-shard protocol still applies per transaction after execution).
/// `BatchConfig::default()` is one command per batch.
pub fn cluster(topology: Topology, cfg: BatchConfig) -> Vec<ShardedNode> {
    (0..topology.n_nodes())
        .map(|id| ShardedNode::new(id, topology, Byzantine::Honest).with_batching(cfg))
        .collect()
}

/// Summary of a replica for [`prever_sim::ParallelSim`] run-loop
/// predicates (probes cross the thread boundary; actors do not).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardProbe {
    /// Committed transactions.
    pub completed: usize,
    /// Aborted transactions.
    pub aborted: usize,
}

/// The probe function for sharded parallel runs.
pub fn probe(node: &ShardedNode) -> ShardProbe {
    ShardProbe { completed: node.completed_count(), aborted: node.aborted_count() }
}

/// Builds the request message + its home (submission target) replica.
fn request_for(
    topology: Topology,
    command: Command,
    mut involved: Vec<ShardId>,
) -> (NodeId, ShardedMsg) {
    involved.sort_unstable();
    involved.dedup();
    assert!(!involved.is_empty());
    assert!(
        command.id & DECIDE_BIT == 0 && command.id != NOOP_ID,
        "application tx ids must stay below DECIDE_BIT"
    );
    let home = topology.members(involved[0])[0];
    (home, ShardedMsg::Request { command: Arc::new(command), involved: involved.into() })
}

/// A cross-shard request helper: submit `command` involving `involved`
/// shards to the primary of the lowest involved shard.
pub fn submit(
    sim: &mut prever_sim::Simulation<ShardedNode>,
    topology: Topology,
    command: Command,
    involved: Vec<ShardId>,
    at: u64,
) {
    let (home, msg) = request_for(topology, command, involved);
    sim.inject(home, home, msg, at);
}

/// [`submit`] for the shard-per-thread parallel runtime.
pub fn submit_parallel(
    sim: &mut prever_sim::ParallelSim<ShardedNode, ShardProbe>,
    topology: Topology,
    command: Command,
    involved: Vec<ShardId>,
    at: u64,
) {
    let (home, msg) = request_for(topology, command, involved);
    sim.inject(home, home, msg, at);
}

/// Builds a parallel (shard-per-thread) simulation of an honest
/// [`cluster`] batching under `cfg`, with the standard [`probe`].
pub fn parallel_cluster(
    topology: Topology,
    cfg: BatchConfig,
    runtime: prever_sim::ParallelConfig,
) -> prever_sim::ParallelSim<ShardedNode, ShardProbe> {
    prever_sim::ParallelSim::new(cluster(topology, cfg), topology.shard_map(), runtime, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prever_sim::{FaultPlan, NetConfig, ParallelConfig, Simulation};

    fn topo(shards: usize) -> Topology {
        Topology { n_shards: shards, replicas_per_shard: 4 }
    }

    #[test]
    fn topology_mapping() {
        let t = topo(3);
        assert_eq!(t.n_nodes(), 12);
        assert_eq!(t.shard_of(0), 0);
        assert_eq!(t.shard_of(5), 1);
        assert_eq!(t.shard_of(11), 2);
        assert_eq!(t.members(1), vec![4, 5, 6, 7]);
        assert_eq!(t.f(), 1);
        assert_eq!(t.shard_map()[4], 1);
    }

    #[test]
    fn intra_shard_transactions_complete_per_shard() {
        let t = topo(2);
        let mut sim = Simulation::new(cluster(t, BatchConfig::default()), NetConfig::default(), 1);
        for i in 0..6u64 {
            let shard = (i % 2) as usize;
            submit(&mut sim, t, Command::new(i, "intra"), vec![shard], i + 1);
        }
        let ok = sim.run_until_pred(3_000_000, |nodes| {
            // Every replica of shard s completes the 3 txs routed to s.
            (0..t.n_nodes()).all(|id| nodes[id].completed_count() >= 3)
        });
        assert!(ok, "intra-shard transactions did not complete");
        // Shard 0 replicas must NOT have executed shard-1 commands.
        let shard0_ids: Vec<u64> = sim.node(0).completed().iter().map(|c| c.tx_id).collect();
        assert!(shard0_ids.iter().all(|id| id % 2 == 0));
    }

    #[test]
    fn cross_shard_transaction_commits_everywhere() {
        let t = topo(3);
        let mut sim = Simulation::new(cluster(t, BatchConfig::default()), NetConfig::default(), 2);
        submit(&mut sim, t, Command::new(7, "cross"), vec![0, 2], 1);
        let ok = sim.run_until_pred(3_000_000, |nodes| {
            t.members(0)
                .into_iter()
                .chain(t.members(2))
                .all(|id| nodes[id].completed_count() >= 1)
        });
        assert!(ok, "cross-shard tx did not commit on involved shards");
        // Uninvolved shard 1 never sees it.
        for id in t.members(1) {
            assert_eq!(sim.node(id).completed_count(), 0);
        }
        // Nobody aborted it.
        for id in 0..t.n_nodes() {
            assert_eq!(sim.node(id).aborted_count(), 0);
        }
    }

    #[test]
    fn mixed_workload_all_commit() {
        let t = topo(2);
        let mut sim = Simulation::new(cluster(t, BatchConfig::default()), NetConfig::default(), 3);
        // 4 intra (2 per shard) + 2 cross.
        submit(&mut sim, t, Command::new(0, "a"), vec![0], 1);
        submit(&mut sim, t, Command::new(1, "b"), vec![1], 2);
        submit(&mut sim, t, Command::new(2, "c"), vec![0], 3);
        submit(&mut sim, t, Command::new(3, "d"), vec![1], 4);
        submit(&mut sim, t, Command::new(4, "x"), vec![0, 1], 5);
        submit(&mut sim, t, Command::new(5, "y"), vec![0, 1], 6);
        let ok = sim.run_until_pred(5_000_000, |nodes| {
            // Each shard: 2 intra + 2 cross = 4 completions per replica.
            (0..t.n_nodes()).all(|id| nodes[id].completed_count() >= 4)
        });
        assert!(ok, "mixed workload did not commit");
    }

    #[test]
    fn partitioned_shard_aborts_cleanly_on_survivors() {
        // Shard 1 is partitioned away before a cross-shard tx is
        // submitted. The coordinator (shard 0) cannot assemble shard
        // 1's certificate, times out, and aborts — the survivors are
        // not wedged and can process new work. After the heal, shard 1
        // learns the abort by re-announcing its certificate.
        let t = topo(2);
        let mut sim = Simulation::new(cluster(t, BatchConfig::default()), NetConfig::default(), 4);
        let groups: Vec<usize> = (0..t.n_nodes()).map(|id| t.shard_of(id)).collect();
        sim.set_partition(groups);
        submit(&mut sim, t, Command::new(9, "doomed"), vec![0, 1], 1);
        // Coordinator aborts after CROSS_TIMEOUT.
        let ok = sim.run_until_pred(30_000_000, |nodes| {
            t.members(0).into_iter().all(|id| nodes[id].aborted_count() >= 1)
        });
        assert!(ok, "coordinator did not abort the stalled cross-shard tx");
        for id in t.members(0) {
            assert_eq!(sim.node(id).completed_count(), 0, "abort must not complete");
            assert_eq!(sim.node(id).outcome_of(9), Some(false));
        }
        // Survivors are not wedged: an intra-shard tx still commits.
        let at = sim.now() + 10;
        submit(&mut sim, t, Command::new(10, "alive"), vec![0], at);
        let ok = sim.run_until_pred(40_000_000, |nodes| {
            t.members(0).into_iter().all(|id| nodes[id].completed_count() >= 1)
        });
        assert!(ok, "survivor shard wedged after the abort");
        // Heal. The original fan-out to shard 1 was dropped by the
        // partition, so the client resubmits; shard 1 orders the tx,
        // announces its certificate, and the coordinator replies with
        // the recorded abort.
        sim.heal_partition();
        let at = sim.now() + 10;
        submit(&mut sim, t, Command::new(9, "doomed"), vec![0, 1], at);
        let ok = sim.run_until_pred(90_000_000, |nodes| {
            t.members(1).into_iter().all(|id| nodes[id].outcome_of(9) == Some(false))
        });
        assert!(ok, "healed shard did not learn the abort");
        // Outcome agreement everywhere.
        for id in 0..t.n_nodes() {
            assert_eq!(sim.node(id).outcome_of(9), Some(false), "node {id} outcome");
        }
    }

    #[test]
    fn slow_shard_within_timeout_still_commits() {
        // A partition that heals well before CROSS_TIMEOUT: the
        // certificates assemble late but in time, so the tx commits —
        // the timeout only fires for genuinely stalled shards.
        let t = topo(2);
        let mut sim = Simulation::new(cluster(t, BatchConfig::default()), NetConfig::default(), 5);
        let groups: Vec<usize> = (0..t.n_nodes()).map(|id| t.shard_of(id)).collect();
        sim.set_partition(groups);
        submit(&mut sim, t, Command::new(11, "late"), vec![0, 1], 1);
        sim.run_until(100_000); // well under CROSS_TIMEOUT
        sim.heal_partition();
        // Re-submit: the original fan-out to shard 1 was dropped.
        let at = sim.now() + 10;
        submit(&mut sim, t, Command::new(11, "late"), vec![0, 1], at);
        let ok = sim.run_until_pred(30_000_000, |nodes| {
            (0..t.n_nodes()).all(|id| nodes[id].completed_count() >= 1)
        });
        assert!(ok, "tx did not commit after an in-time heal");
        for id in 0..t.n_nodes() {
            assert_eq!(sim.node(id).aborted_count(), 0);
        }
    }

    #[test]
    fn restarted_replica_recovers_resolutions_via_peer_queries() {
        // Replica 1 (a shard-0 backup) is replaced by a blank actor
        // mid-run. Its fresh core catches up on the executed history via
        // PBFT state transfer, but the involvement metadata and the
        // outcomes are gone — TxQuery/TxInfo probing against shard-mates
        // must recover the resolutions.
        let t = topo(2);
        let mut sim = Simulation::new(cluster(t, BatchConfig::default()), NetConfig::default(), 21);
        submit(&mut sim, t, Command::new(0, "a"), vec![0], 1);
        submit(&mut sim, t, Command::new(1, "b"), vec![0], 2);
        submit(&mut sim, t, Command::new(2, "c"), vec![0], 3);
        submit(&mut sim, t, Command::new(3, "x"), vec![0, 1], 4);
        assert!(sim.run_until_pred(5_000_000, |nodes| {
            t.members(0).into_iter().all(|id| nodes[id].completed_count() >= 4)
        }));
        // Blank restart of replica 1; new work keeps the shard busy so
        // its core notices the lag and state-transfers.
        sim.restart_with_loss(1, ShardedNode::new(1, t, Byzantine::Honest));
        let at = sim.now() + 10;
        submit(&mut sim, t, Command::new(4, "d"), vec![0], at);
        submit(&mut sim, t, Command::new(5, "e"), vec![0], at + 1);
        let ok = sim.run_until_pred(30_000_000, |nodes| {
            t.members(0).into_iter().all(|id| nodes[id].completed_count() >= 6)
        });
        assert!(ok, "restarted replica failed to recover its completions");
        // Same completion *set* everywhere (order may differ for the
        // recovered replica).
        let expect: HashSet<u64> = (0..6).collect();
        for id in t.members(0) {
            let got: HashSet<u64> = sim.node(id).completed().iter().map(|c| c.tx_id).collect();
            assert_eq!(got, expect, "node {id} completion set");
        }
    }

    #[test]
    fn batched_shards_complete_mixed_workload() {
        // Each shard's core cuts multi-command batches; every
        // transaction (intra and cross) must still resolve exactly once.
        let t = topo(2);
        let cfg = BatchConfig::new(4, 15_000, 4);
        let mut sim = Simulation::new(cluster(t, cfg), NetConfig::default(), 13);
        // ids 3 and 7 are cross-shard; the rest alternate shards:
        // shard 0 sees {0,2,4,6} intra + {3,7} cross = 6 completions,
        // shard 1 sees {1,5} intra + {3,7} cross = 4 completions.
        for i in 0..8u64 {
            let involved = if i % 4 == 3 { vec![0, 1] } else { vec![(i % 2) as usize] };
            submit(&mut sim, t, Command::new(i, format!("m-{i}")), involved, 1 + i * 20);
        }
        let ok = sim.run_until_pred(10_000_000, |nodes| {
            (0..t.n_nodes()).all(|id| {
                let want = if t.shard_of(id) == 0 { 6 } else { 4 };
                nodes[id].completed_count() >= want
            })
        });
        assert!(ok, "batched sharded workload did not complete");
        // No duplicates on any replica.
        for id in 0..t.n_nodes() {
            let ids: Vec<u64> = sim.node(id).completed().iter().map(|c| c.tx_id).collect();
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(ids.len(), dedup.len(), "node {id} completed a tx twice");
        }
    }

    #[test]
    fn parallel_runtime_commits_mixed_workload() {
        // The same protocol on the shard-per-thread runtime: 3 shards
        // on 3 OS threads, intra + cross work, everything commits.
        let t = topo(3);
        let cfg = ParallelConfig { seed: 31, ..Default::default() };
        let mut sim = parallel_cluster(t, BatchConfig::default(), cfg);
        for i in 0..9u64 {
            let involved = match i % 3 {
                0 => vec![0],
                1 => vec![1],
                _ => vec![(i % 2) as usize, 2],
            };
            submit_parallel(&mut sim, t, Command::new(i, "p"), involved, 1 + i * 10);
        }
        assert_eq!(sim.n_threads(), 3);
        let per_node_want = |id: NodeId| -> usize {
            let s = t.shard_of(id);
            (0..9u64)
                .filter(|i| match i % 3 {
                    0 => s == 0,
                    1 => s == 1,
                    _ => s == 2 || s == (i % 2) as usize,
                })
                .count()
        };
        let ok = sim.run_until_probe(20_000_000, |p| {
            (0..t.n_nodes()).all(|id| p[id].completed >= per_node_want(id))
        });
        assert!(ok, "parallel mixed workload did not commit");
        let nodes = sim.into_nodes();
        for (id, node) in nodes.iter().enumerate() {
            assert_eq!(node.aborted_count(), 0, "node {id} spuriously aborted");
        }
    }

    #[test]
    fn parallel_runs_are_bit_identical() {
        let run = || {
            let t = topo(3);
            let mut sim =
                parallel_cluster(t, BatchConfig::new(4, 15_000, 4), ParallelConfig {
                    seed: 77,
                    ..Default::default()
                });
            for i in 0..12u64 {
                let involved = if i % 4 == 3 { vec![0, 2] } else { vec![(i % 3) as usize] };
                submit_parallel(&mut sim, t, Command::new(i, "d"), involved, 1 + i * 30);
            }
            sim.run_until(4_000_000);
            let stats = sim.stats();
            let nodes = sim.into_nodes();
            let views: Vec<u64> = nodes.iter().map(|n| n.node.core.view()).collect();
            let completions: Vec<Vec<Completion>> =
                nodes.iter().map(|n| n.completed().to_vec()).collect();
            (stats, views, completions)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "parallel sharded runs must be bit-identical");
    }

    #[test]
    fn parallel_partitioned_shard_aborts_and_heals() {
        // Mid-commit partition on the parallel runtime: shard 1 drops
        // off after ordering locally; the coordinator aborts, survivors
        // keep working, and the healed shard converges to the abort.
        let t = topo(2);
        let cfg = ParallelConfig { seed: 41, ..Default::default() };
        let mut sim = parallel_cluster(t, BatchConfig::default(), cfg);
        sim.set_fault_plan(
            FaultPlan::new()
                .partition_at(2_000, t.shard_map())
                .heal_at(1_500_000),
        );
        submit_parallel(&mut sim, t, Command::new(5, "doomed"), vec![0, 1], 1);
        let ok = sim.run_until_probe(5_000_000, |p| {
            t.members(0).into_iter().all(|id| p[id].aborted >= 1)
        });
        assert!(ok, "coordinator shard did not abort under partition");
        let ok = sim.run_until_probe(20_000_000, |p| {
            t.members(1).into_iter().all(|id| p[id].aborted >= 1)
        });
        assert!(ok, "healed shard did not converge to the abort");
        let nodes = sim.into_nodes();
        for (id, node) in nodes.iter().enumerate() {
            assert_eq!(node.outcome_of(5), Some(false), "node {id} outcome");
            assert_eq!(node.completed_count(), 0);
        }
    }

    #[test]
    fn throughput_scales_with_shards_shape() {
        // Coarse shape check (the real measurement is bench E7): with a
        // pure intra-shard workload, 2 shards complete 2× the work of 1
        // shard in similar virtual time.
        let run = |shards: usize, txs: u64| -> u64 {
            let t = topo(shards);
            let nodes = cluster(t, BatchConfig::default());
            let mut sim = Simulation::new(nodes, NetConfig::default(), 7);
            for i in 0..txs {
                let shard = (i % shards as u64) as usize;
                submit(&mut sim, t, Command::new(i, "w"), vec![shard], 1 + i);
            }
            let per_shard = txs / shards as u64;
            let done = sim.run_until_pred(20_000_000, |nodes| {
                (0..t.n_nodes()).all(|id| nodes[id].completed_count() as u64 >= per_shard)
            });
            assert!(done);
            sim.now()
        };
        let t1 = run(1, 40);
        let t2 = run(2, 40);
        assert!(
            t2 < t1 * 2,
            "sharding should not slow down intra-shard work: t1={t1} t2={t2}"
        );
    }
}
