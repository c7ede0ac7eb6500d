//! The sans-IO serving front end: bounded admit queue, per-tenant token
//! buckets, a global inflight window, deadline propagation, and the
//! degradation ladder.
//!
//! [`FrontEnd`] is pure protocol state — it consumes decoded
//! [`Request`]s plus the virtual clock and emits [`Action`]s (replies to
//! send, commands to hand to consensus). The simulator actor around it
//! ([`crate::sim::Gateway`]) owns the wiring; keeping the core sans-IO
//! makes every admission decision unit-testable and deterministic.
//!
//! Overload behavior is **never silent queueing**: a request the front
//! end will not serve is answered immediately with
//! [`Response::Overloaded`] (naming a backoff), `DeadlineExceeded`, or
//! `Rejected` — so a client can always distinguish "wait" from "lost".

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use bytes::Bytes;
use prever_obs::trace::{self, TraceCtx};
use prever_sim::NodeId;
use prever_wire::{Class, Frame, RejectReason, Request, Response, Submission};

use crate::admission::{DegradeLevel, TokenBucket};
use crate::quota::{is_quota_id, QuotaUpdate};

/// Front-end tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    /// Bounded admit-queue capacity. Arrivals beyond it are shed with
    /// an explicit `Overloaded`, never silently queued.
    pub queue_cap: usize,
    /// Global inflight window: commands admitted to consensus but not
    /// yet executed. Bounds consensus-side backlog.
    pub inflight_cap: usize,
    /// Default per-tenant token-bucket rate (requests / virtual sec).
    pub tenant_rate: u64,
    /// Default per-tenant burst allowance (tokens).
    pub tenant_burst: u64,
    /// Rough per-request service estimate (µs) used to compute the
    /// `retry_after` hint from the current backlog.
    pub service_estimate_us: u64,
    /// Hard ceiling on the advertised `retry_after` hint (µs). A
    /// backlog spike must never tell a well-behaved client to go away
    /// for minutes — the hint is a pacing signal, not an outage notice.
    pub retry_after_cap_us: u64,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            queue_cap: 256,
            inflight_cap: 64,
            tenant_rate: 2_000,
            tenant_burst: 64,
            service_estimate_us: 500,
            retry_after_cap_us: 2_000_000,
        }
    }
}

/// What the front end wants done after consuming an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Send `Response` back to the client at `NodeId`.
    Reply(NodeId, Response),
    /// Hand the submission to the consensus layer. `urgent` requests
    /// ride the partial-batch-cut path (no fill delay).
    Submit {
        /// Command id.
        id: u64,
        /// Command payload.
        payload: Bytes,
        /// True for [`Class::High`] — cut the batch immediately.
        urgent: bool,
    },
}

/// One queued (admitted-to-queue, not yet submitted) request.
#[derive(Clone, Debug)]
struct Queued {
    from: NodeId,
    class: Class,
    deadline: u64,
    id: u64,
    payload: Bytes,
    enqueued_at: u64,
}

/// One command submitted to consensus, awaiting execution.
#[derive(Clone, Debug)]
struct Pending {
    from: NodeId,
    class: Class,
    enqueued_at: u64,
}

/// Monotonic front-end counters (mirrored into the global metrics
/// registry; kept here as plain fields so chaos invariants can read
/// them without a registry snapshot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontStats {
    /// Requests admitted into the consensus path.
    pub admitted: u64,
    /// Requests shed with `Overloaded` (bucket, queue, or ladder).
    pub shed_overload: u64,
    /// Requests shed because their deadline expired (at arrival or
    /// while queued).
    pub shed_deadline: u64,
    /// Low-priority requests shed by the degradation ladder.
    pub shed_low_priority: u64,
    /// Queries refused while reads are degraded.
    pub shed_reads: u64,
    /// Duplicate submissions ignored while the original is in flight.
    pub duplicates: u64,
    /// Frames that failed to decode.
    pub bad_frames: u64,
    /// Commits acked back to clients.
    pub acked: u64,
    /// High-water mark of the admit queue (bounded-queue invariant).
    pub max_queue_depth: usize,
    /// `Resume` frames accepted (session carried over after failover).
    pub resumes: u64,
    /// Committed-map entries evicted below the checkpoint floor.
    pub evicted: u64,
    /// `ReadFresh` requests answered from state at least as new as the
    /// client's high-water mark.
    pub fresh_reads: u64,
    /// `ReadFresh` requests answered from state *older* than the
    /// client's high-water mark (client will retry elsewhere).
    pub stale_reads: u64,
}

/// The sans-IO front-end core. See the module docs.
#[derive(Clone, Debug)]
pub struct FrontEnd {
    cfg: FrontConfig,
    /// Server node id, for trace events.
    node: u64,
    buckets: HashMap<u32, TokenBucket>,
    queue: VecDeque<Queued>,
    queued_ids: HashSet<u64>,
    inflight: HashMap<u64, Pending>,
    /// Executed id → slot, for idempotent resubmissions and queries.
    /// Bounded: entries below the consensus checkpoint floor are
    /// evicted by [`Self::evict_committed_below`]; resubmissions of
    /// evicted ids are answered by the gateway from consensus state.
    committed: BTreeMap<u64, u64>,
    /// Slot floor below which `committed` has been evicted.
    committed_floor: u64,
    /// Every id this front end has acked `Committed` (the durability
    /// invariant set: acked writes must survive any crash).
    acked_ids: HashSet<u64>,
    /// Session tokens this gateway has seen (DESIGN.md §15): a `Resume`
    /// of one it has not is a failover onto it. The gateway's half of
    /// exactly-once lives in `committed`, which a restarted gateway
    /// rebuilds from the replayed journal.
    sessions: HashSet<u64>,
    /// Consensus-carried per-tenant quota overrides (rate, burst);
    /// identical at every gateway because they are applied in
    /// execution order. Tenants not present use `cfg` defaults.
    quotas: BTreeMap<u32, (u64, u64)>,
    /// Ledger position of the replica state behind this gateway:
    /// number of executed commands, stamped on `ReadFreshResult`.
    applied_slot: u64,
    /// Hash-chain digest of that state (fork evidence for clients).
    applied_digest: [u8; 32],
    stats: FrontStats,
}

impl FrontEnd {
    /// A fresh front end for the server at simulator node `node`.
    pub fn new(node: u64, cfg: FrontConfig) -> Self {
        FrontEnd {
            cfg,
            node,
            buckets: HashMap::new(),
            queue: VecDeque::new(),
            queued_ids: HashSet::new(),
            inflight: HashMap::new(),
            committed: BTreeMap::new(),
            committed_floor: 0,
            acked_ids: HashSet::new(),
            sessions: HashSet::new(),
            quotas: BTreeMap::new(),
            applied_slot: 0,
            applied_digest: [0u8; 32],
            stats: FrontStats::default(),
        }
    }

    /// Current degradation rung (queue-occupancy driven).
    pub fn level(&self) -> DegradeLevel {
        DegradeLevel::for_queue(self.queue.len(), self.cfg.queue_cap)
    }

    /// Monotonic counters.
    pub fn stats(&self) -> &FrontStats {
        &self.stats
    }

    /// Ids acked `Committed` so far (durability invariant set).
    pub fn acked_ids(&self) -> &HashSet<u64> {
        &self.acked_ids
    }

    /// Queue depth right now.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Commands submitted to consensus and not yet executed.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Entries currently held in the committed (id → slot) map. The
    /// bounded-memory regression test pins this below a multiple of
    /// the checkpoint interval.
    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }

    /// Effective (rate, burst) for `tenant`: the consensus-carried
    /// override if one exists, else the static defaults.
    pub fn quota_for(&self, tenant: u32) -> (u64, u64) {
        self.quotas
            .get(&tenant)
            .copied()
            .unwrap_or((self.cfg.tenant_rate, self.cfg.tenant_burst))
    }

    /// Applies a consensus-carried quota update. Called by the gateway
    /// in execution order, so every gateway converges on the same
    /// effective quotas. The tenant's bucket is rebuilt at the new
    /// parameters (full burst) — deterministic across gateways even
    /// though their old fill levels differed.
    pub fn apply_quota(&mut self, q: QuotaUpdate) {
        self.quotas.insert(q.tenant, (q.rate, q.burst));
        self.buckets.insert(q.tenant, TokenBucket::new(q.rate, q.burst));
        prever_obs::counter!("server.quota.applied").inc();
    }

    /// Records the replica's current ledger position and hash-chain
    /// digest (fed by the gateway after each execution drain). Stamped
    /// on every `ReadFreshResult` so clients can verify freshness and
    /// cross-check replicas for forks.
    pub fn note_applied(&mut self, slot: u64, digest: [u8; 32]) {
        self.applied_slot = slot;
        self.applied_digest = digest;
    }

    /// Evicts committed-map entries whose slot is below the consensus
    /// checkpoint floor. Resubmissions of evicted ids cannot be
    /// answered from this map any more — the gateway answers them from
    /// consensus execution state instead — so the map stays bounded by
    /// (floor lag + inflight) rather than growing with history.
    pub fn evict_committed_below(&mut self, floor_slot: u64) {
        if floor_slot <= self.committed_floor {
            return;
        }
        self.committed_floor = floor_slot;
        let before = self.committed.len();
        self.committed.retain(|_, slot| *slot >= floor_slot);
        let evicted = (before - self.committed.len()) as u64;
        if evicted > 0 {
            self.stats.evicted += evicted;
            prever_obs::counter!("server.committed.evicted").add(evicted);
        }
        prever_obs::gauge!("server.committed.size").set(self.committed.len() as i64);
    }

    /// The advertised client backoff, derived from the backlog the
    /// request would sit behind: queue + inflight, paced by the service
    /// estimate, floored at one estimate so a shed is never "retry
    /// now", and clamped at `retry_after_cap_us` so a backlog spike
    /// never advertises a multi-minute exile.
    fn retry_after(&self) -> u64 {
        let backlog = (self.queue.len() + self.inflight.len()) as u64;
        (backlog * self.cfg.service_estimate_us / (self.cfg.inflight_cap.max(1) as u64))
            .max(self.cfg.service_estimate_us)
            .min(self.cfg.retry_after_cap_us.max(self.cfg.service_estimate_us))
    }

    fn bucket(&mut self, tenant: u32) -> &mut TokenBucket {
        let (rate, burst) = self.quota_for(tenant);
        self.buckets.entry(tenant).or_insert_with(|| TokenBucket::new(rate, burst))
    }

    fn note_queue_depth(&mut self) {
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        prever_obs::gauge!("server.queue_depth").set(self.queue.len() as i64);
        prever_obs::gauge!("server.degrade.level").set(self.level().rung());
    }

    fn shed(&mut self, id: u64, now: u64) {
        prever_obs::counter!("server.shed").inc();
        if trace::active() {
            trace::event(self.node, now, TraceCtx::for_command(id), "shed", id);
        }
    }

    /// Consumes one raw frame from client `from`. Returns the replies
    /// and submissions it triggers; call [`Self::pump`] afterwards to
    /// move queued work into the freed window.
    pub fn handle_frame(&mut self, from: NodeId, buf: &[u8], now: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        match Frame::decode(buf) {
            Ok((Frame::Request(req), _)) => self.handle_request(from, req, now, &mut actions),
            Ok((Frame::Response(_), _)) | Err(_) => {
                // A response frame arriving at the server is as hostile
                // as undecodable bytes: reject loudly, drop neither
                // silently.
                self.stats.bad_frames += 1;
                prever_obs::counter!("server.wire.bad_frames").inc();
                actions.push(Action::Reply(
                    from,
                    Response::Rejected { reason: RejectReason::BadFrame },
                ));
            }
        }
        actions
    }

    fn handle_request(&mut self, from: NodeId, req: Request, now: u64, actions: &mut Vec<Action>) {
        match req {
            Request::Submit { tenant, class, deadline, submission } => {
                self.on_submission(from, tenant, class, deadline, submission, now, actions);
            }
            Request::SubmitBatch { tenant, class, deadline, submissions } => {
                for s in submissions {
                    self.on_submission(from, tenant, class, deadline, s, now, actions);
                }
            }
            Request::Hello { session, .. } => {
                if trace::active() {
                    trace::event(self.node, now, TraceCtx::for_command(session), "hello", session);
                }
                self.sessions.insert(session);
                prever_obs::counter!("server.session.hello").inc();
                actions.push(Action::Reply(
                    from,
                    Response::SessionAck {
                        session,
                        resumed: false,
                        applied_slot: self.applied_slot,
                    },
                ));
            }
            Request::Resume { session, .. } => {
                if trace::active() {
                    trace::event(self.node, now, TraceCtx::for_command(session), "resume", session);
                }
                // `resumed: true` means this gateway had never seen the
                // session — i.e. a genuine failover, not a reconnect to
                // the same gateway.
                let resumed = self.sessions.insert(session);
                self.stats.resumes += 1;
                prever_obs::counter!("server.failover.resume").inc();
                actions.push(Action::Reply(
                    from,
                    Response::SessionAck { session, resumed, applied_slot: self.applied_slot },
                ));
            }
            Request::ReadFresh { tenant: _, id, min_slot } => {
                if self.level().sheds_reads() {
                    self.stats.shed_reads += 1;
                    prever_obs::counter!("server.shed").inc();
                    actions.push(Action::Reply(
                        from,
                        Response::Rejected { reason: RejectReason::ReadsDegraded },
                    ));
                } else {
                    // Answer from local state, stamped with the ledger
                    // position + digest. The *client* judges freshness
                    // against its own high-water mark; the server only
                    // counts what it served.
                    if self.applied_slot >= min_slot {
                        self.stats.fresh_reads += 1;
                        prever_obs::counter!("server.read.fresh").inc();
                    } else {
                        self.stats.stale_reads += 1;
                        prever_obs::counter!("server.read.stale").inc();
                    }
                    actions.push(Action::Reply(
                        from,
                        Response::ReadFreshResult {
                            id,
                            slot: self.committed.get(&id).copied(),
                            applied_slot: self.applied_slot,
                            digest: self.applied_digest,
                            floor: self.committed_floor,
                        },
                    ));
                }
            }
            Request::Query { tenant: _, id } => {
                if self.level().sheds_reads() {
                    self.stats.shed_reads += 1;
                    prever_obs::counter!("server.shed").inc();
                    actions.push(Action::Reply(
                        from,
                        Response::Rejected { reason: RejectReason::ReadsDegraded },
                    ));
                } else {
                    actions.push(Action::Reply(
                        from,
                        Response::QueryResult { id, slot: self.committed.get(&id).copied() },
                    ));
                }
            }
            Request::AuditDigest { .. } => {
                // Answered by the gateway (it owns the replica state);
                // the sans-IO core only sees the admission-relevant
                // variants. Reaching here means the gateway chose not
                // to intercept — serve the cached commit count instead
                // of failing.
                actions.push(Action::Reply(from, Response::AuditDigest { digest: [0u8; 32] }));
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_submission(
        &mut self,
        from: NodeId,
        tenant: u32,
        class: Class,
        deadline: u64,
        submission: Submission,
        now: u64,
        actions: &mut Vec<Action>,
    ) {
        let Submission { id, payload } = submission;
        // The reserved (quota / no-op) id space is server-internal: a
        // client submission there is hostile or confused, and admitting
        // it would let a tenant forge configuration commands.
        if is_quota_id(id) || id == prever_consensus::pbft::NOOP_ID {
            self.stats.bad_frames += 1;
            prever_obs::counter!("server.wire.bad_frames").inc();
            actions.push(Action::Reply(from, Response::Rejected { reason: RejectReason::BadFrame }));
            return;
        }
        if trace::active() {
            trace::event(self.node, now, TraceCtx::for_command(id), "enqueue", id);
        }
        // Idempotent resubmission of a durable command: ack immediately.
        if let Some(&slot) = self.committed.get(&id) {
            self.note_ack(id);
            actions.push(Action::Reply(from, Response::Committed { id, slot }));
            return;
        }
        // Duplicate of an id still queued or in flight: the original's
        // eventual reply serves both sends (retries reuse the id).
        if self.queued_ids.contains(&id) || self.inflight.contains_key(&id) {
            self.stats.duplicates += 1;
            prever_obs::counter!("server.duplicates").inc();
            return;
        }
        // Deadline already expired on arrival: shed before it costs a
        // queue slot, let alone a consensus slot.
        if deadline != 0 && now >= deadline {
            self.stats.shed_deadline += 1;
            self.shed(id, now);
            actions.push(Action::Reply(from, Response::DeadlineExceeded { id }));
            return;
        }
        // Degradation ladder: lowest-priority tenants go first.
        if self.level().sheds_class(class) {
            self.stats.shed_low_priority += 1;
            self.stats.shed_overload += 1;
            self.shed(id, now);
            actions.push(Action::Reply(
                from,
                Response::Overloaded { retry_after_us: self.retry_after(), id },
            ));
            return;
        }
        // Per-tenant token bucket: a flooding tenant exhausts its own
        // tokens, not the cluster.
        if let Err(wait) = self.bucket(tenant).try_take(now) {
            self.stats.shed_overload += 1;
            self.shed(id, now);
            let cap = self.cfg.retry_after_cap_us.max(self.cfg.service_estimate_us);
            let retry_after_us = wait.max(self.retry_after()).min(cap);
            actions.push(Action::Reply(from, Response::Overloaded { retry_after_us, id }));
            return;
        }
        // Bounded queue: full means an explicit shed, never an
        // unbounded tail.
        if self.queue.len() >= self.cfg.queue_cap {
            self.stats.shed_overload += 1;
            self.shed(id, now);
            actions.push(Action::Reply(
                from,
                Response::Overloaded { retry_after_us: self.retry_after(), id },
            ));
            return;
        }
        self.queued_ids.insert(id);
        self.queue.push_back(Queued { from, class, deadline, id, payload, enqueued_at: now });
        self.note_queue_depth();
    }

    /// Moves queued requests into the inflight window. Requests whose
    /// deadline lapsed while queued are shed first — before they waste
    /// a consensus slot, and even when the window is full.
    pub fn pump(&mut self, now: u64) -> Vec<Action> {
        let mut actions = self.sweep_deadlines(now);
        while self.inflight.len() < self.cfg.inflight_cap {
            let Some(q) = self.queue.pop_front() else { break };
            self.queued_ids.remove(&q.id);
            self.stats.admitted += 1;
            prever_obs::counter!("server.admitted").inc();
            prever_obs::histogram!("server.admission.latency")
                .record(now.saturating_sub(q.enqueued_at));
            if trace::active() {
                trace::event(self.node, now, TraceCtx::for_command(q.id), "admit", q.id);
            }
            self.inflight.insert(
                q.id,
                Pending { from: q.from, class: q.class, enqueued_at: q.enqueued_at },
            );
            actions.push(Action::Submit {
                id: q.id,
                payload: q.payload,
                urgent: q.class == Class::High,
            });
        }
        self.note_queue_depth();
        actions
    }

    /// Sweeps expired deadlines out of the queue (periodic tick). Head
    /// expiry is also caught by [`Self::pump`]; this catches entries
    /// stuck behind a long backlog.
    pub fn sweep_deadlines(&mut self, now: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut kept = VecDeque::with_capacity(self.queue.len());
        while let Some(q) = self.queue.pop_front() {
            if q.deadline != 0 && now >= q.deadline {
                self.queued_ids.remove(&q.id);
                self.stats.shed_deadline += 1;
                self.shed(q.id, now);
                actions.push(Action::Reply(q.from, Response::DeadlineExceeded { id: q.id }));
            } else {
                kept.push_back(q);
            }
        }
        self.queue = kept;
        self.note_queue_depth();
        actions
    }

    fn note_ack(&mut self, id: u64) {
        if self.acked_ids.insert(id) {
            self.stats.acked += 1;
            prever_obs::counter!("server.acked").inc();
        }
    }

    /// Records that `id` executed at `slot`. Returns the ack to send if
    /// the command was in our inflight window.
    pub fn on_committed(&mut self, id: u64, slot: u64, now: u64) -> Option<(NodeId, Response)> {
        self.committed.insert(id, slot);
        let pending = self.inflight.remove(&id)?;
        self.note_ack(id);
        match pending.class {
            Class::High => prever_obs::histogram!("server.commit.latency.high"),
            Class::Normal => prever_obs::histogram!("server.commit.latency.normal"),
            Class::Low => prever_obs::histogram!("server.commit.latency.low"),
        }
        .record(now.saturating_sub(pending.enqueued_at));
        Some((pending.from, Response::Committed { id, slot }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit_frame(tenant: u32, class: Class, deadline: u64, id: u64) -> Vec<u8> {
        Frame::Request(Request::Submit {
            tenant,
            class,
            deadline,
            submission: Submission { id, payload: Bytes::from(vec![1]) },
        })
        .encode()
    }

    fn cfg() -> FrontConfig {
        FrontConfig {
            queue_cap: 4,
            inflight_cap: 2,
            tenant_rate: 1_000,
            tenant_burst: 100,
            service_estimate_us: 500,
            retry_after_cap_us: 2_000_000,
        }
    }

    #[test]
    fn admits_up_to_window_then_queues_then_sheds() {
        let mut fe = FrontEnd::new(0, cfg());
        let mut replies = 0;
        for i in 0..10u64 {
            let acts = fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, i), 100);
            replies += acts
                .iter()
                .filter(|a| matches!(a, Action::Reply(_, Response::Overloaded { .. })))
                .count();
        }
        // Queue cap 4: 4 queued, 6 shed with explicit Overloaded.
        assert_eq!(fe.queue_depth(), 4);
        assert_eq!(replies, 6);
        assert_eq!(fe.stats().shed_overload, 6);
        // Pump admits up to the inflight window.
        let acts = fe.pump(200);
        let submits =
            acts.iter().filter(|a| matches!(a, Action::Submit { .. })).count();
        assert_eq!(submits, 2);
        assert_eq!(fe.inflight(), 2);
        assert_eq!(fe.queue_depth(), 2);
        // A commit frees the window; the next pump admits one more.
        let ack = fe.on_committed(0, 1, 300);
        assert!(matches!(ack, Some((9, Response::Committed { id: 0, slot: 1 }))));
        let acts = fe.pump(300);
        assert_eq!(acts.iter().filter(|a| matches!(a, Action::Submit { .. })).count(), 1);
    }

    #[test]
    fn overloaded_reply_is_never_silent_and_names_a_backoff() {
        let mut fe = FrontEnd::new(0, cfg());
        for i in 0..20u64 {
            for a in fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, i), 100) {
                if let Action::Reply(_, Response::Overloaded { retry_after_us, .. }) = a {
                    assert!(retry_after_us > 0, "retry_after must name a real backoff");
                }
            }
        }
        // Every arrival was answered or queued: nothing vanished.
        let s = fe.stats();
        assert_eq!(s.shed_overload as usize + fe.queue_depth(), 20);
    }

    #[test]
    fn deadline_expired_in_queue_is_shed_before_consensus() {
        let mut fe = FrontEnd::new(0, cfg());
        // Two fill the window, the third waits in queue with a deadline.
        for i in 0..2u64 {
            fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, i), 100);
        }
        fe.handle_frame(9, &submit_frame(1, Class::Normal, 5_000, 2), 100);
        let _ = fe.pump(100);
        assert_eq!(fe.queue_depth(), 1);
        // Window stays full past the deadline; the queued request must
        // be shed with DeadlineExceeded, not submitted.
        let acts = fe.pump(6_000);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Reply(9, Response::DeadlineExceeded { id: 2 }))));
        assert!(!acts.iter().any(|a| matches!(a, Action::Submit { id: 2, .. })));
        assert_eq!(fe.stats().shed_deadline, 1);
    }

    #[test]
    fn ladder_sheds_low_priority_first_then_reads() {
        let mut fe = FrontEnd::new(0, cfg());
        // Fill half the queue (cap 4 → 2 queued trips ShedLowPriority)
        // with the window already full.
        for i in 0..4u64 {
            fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, i), 100);
        }
        let _ = fe.pump(100);
        assert_eq!(fe.level(), DegradeLevel::ShedLowPriority);
        // Low is shed at the door; Normal still queues.
        let acts = fe.handle_frame(9, &submit_frame(2, Class::Low, 0, 50), 100);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Reply(_, Response::Overloaded { .. }))));
        let acts = fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, 51), 100);
        assert!(acts.is_empty(), "normal class still admitted to queue: {acts:?}");
        // Reads survive this rung…
        let q = Frame::Request(Request::Query { tenant: 1, id: 0 }).encode();
        let acts = fe.handle_frame(9, &q, 100);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Reply(_, Response::QueryResult { .. }))));
        // …until the queue is nearly full.
        fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, 52), 100);
        assert_eq!(fe.level(), DegradeLevel::ReadsDegraded);
        let acts = fe.handle_frame(9, &q, 100);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply(_, Response::Rejected { reason: RejectReason::ReadsDegraded })
        )));
    }

    #[test]
    fn token_bucket_isolates_a_flooding_tenant() {
        let mut fe = FrontEnd::new(
            0,
            FrontConfig { tenant_rate: 10, tenant_burst: 2, ..cfg() },
        );
        // Tenant 7 floods: only its burst gets through.
        let mut shed = 0;
        for i in 0..10u64 {
            let acts = fe.handle_frame(9, &submit_frame(7, Class::Normal, 0, i), 100);
            shed += acts
                .iter()
                .filter(|a| matches!(a, Action::Reply(_, Response::Overloaded { .. })))
                .count();
        }
        assert_eq!(shed, 8, "burst 2 admits two, the rest are shed");
        // A different tenant's bucket is untouched.
        let acts = fe.handle_frame(8, &submit_frame(3, Class::Normal, 0, 100), 100);
        assert!(acts.is_empty(), "fresh tenant admitted: {acts:?}");
    }

    #[test]
    fn idempotent_resubmission_after_commit_acks_immediately() {
        let mut fe = FrontEnd::new(0, cfg());
        fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, 5), 100);
        let _ = fe.pump(100);
        let _ = fe.on_committed(5, 3, 200);
        let acts = fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, 5), 300);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Reply(9, Response::Committed { id: 5, slot: 3 }))));
        // Acked set never shrinks (durability invariant anchor).
        assert!(fe.acked_ids().contains(&5));
    }

    #[test]
    fn retry_after_hint_is_clamped() {
        // A pathological backlog estimate must not advertise a
        // multi-minute exile: the hint is capped.
        let mut fe = FrontEnd::new(
            0,
            FrontConfig {
                queue_cap: 100_000,
                inflight_cap: 1,
                service_estimate_us: 1_000_000,
                retry_after_cap_us: 2_000_000,
                tenant_rate: 1,
                tenant_burst: 1,
            },
        );
        // One admit drains the burst; floods afterwards hit both the
        // bucket-wait and backlog paths.
        for i in 0..50u64 {
            for a in fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, i), 100) {
                if let Action::Reply(_, Response::Overloaded { retry_after_us, .. }) = a {
                    assert!(
                        retry_after_us <= 2_000_000,
                        "hint {retry_after_us} exceeds the 2s cap"
                    );
                    assert!(retry_after_us > 0);
                }
            }
        }
    }

    #[test]
    fn committed_map_is_bounded_by_checkpoint_eviction() {
        let mut fe = FrontEnd::new(0, FrontConfig { queue_cap: 8, inflight_cap: 8, ..cfg() });
        // Run 10_000 commands through commit, evicting below a rolling
        // checkpoint floor every 16 slots (the consensus interval).
        let mut max_len = 0usize;
        for slot in 1..=10_000u64 {
            let id = slot;
            fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, id), slot);
            let _ = fe.pump(slot);
            let _ = fe.on_committed(id, slot, slot);
            if slot % 16 == 0 {
                fe.evict_committed_below(slot.saturating_sub(16));
            }
            max_len = max_len.max(fe.committed_len());
        }
        assert!(
            max_len <= 64,
            "committed map grew to {max_len} entries despite eviction"
        );
        assert!(fe.stats().evicted > 9_000);
        // Recent entries (above the floor) still answer idempotent
        // resubmissions from the map.
        let acts = fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, 10_000), 10_001);
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::Reply(9, Response::Committed { id: 10_000, .. }))));
    }

    #[test]
    fn hello_then_resume_reports_failover_state() {
        let mut fe = FrontEnd::new(0, cfg());
        let hello = Frame::Request(Request::Hello { tenant: 1, session: 42 }).encode();
        let acts = fe.handle_frame(9, &hello, 100);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply(9, Response::SessionAck { session: 42, resumed: false, .. })
        )));
        // Resume of a session this gateway already knows: reconnect.
        let resume =
            Frame::Request(Request::Resume { tenant: 1, session: 42, high_acked: 7 }).encode();
        let acts = fe.handle_frame(9, &resume, 200);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply(9, Response::SessionAck { session: 42, resumed: false, .. })
        )));
        // Resume of an unknown session: genuine failover onto this
        // gateway.
        let mut other = FrontEnd::new(1, cfg());
        let acts = other.handle_frame(9, &resume, 300);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply(9, Response::SessionAck { session: 42, resumed: true, .. })
        )));
        assert_eq!(other.stats().resumes, 1);
    }

    #[test]
    fn read_fresh_stamps_ledger_position_and_digest() {
        let mut fe = FrontEnd::new(0, cfg());
        fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, 5), 100);
        let _ = fe.pump(100);
        let _ = fe.on_committed(5, 3, 200);
        fe.note_applied(3, [0xab; 32]);
        let rf = Frame::Request(Request::ReadFresh { tenant: 1, id: 5, min_slot: 3 }).encode();
        let acts = fe.handle_frame(9, &rf, 300);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply(
                9,
                Response::ReadFreshResult {
                    id: 5,
                    slot: Some(3),
                    applied_slot: 3,
                    digest,
                    floor: 0,
                }
            ) if *digest == [0xab; 32]
        )));
        assert_eq!(fe.stats().fresh_reads, 1);
        // A replica behind the client's high-water mark still answers
        // (stamped with its older position) — the client rejects it.
        let rf = Frame::Request(Request::ReadFresh { tenant: 1, id: 5, min_slot: 9 }).encode();
        let acts = fe.handle_frame(9, &rf, 400);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply(9, Response::ReadFreshResult { applied_slot: 3, .. })
        )));
        assert_eq!(fe.stats().stale_reads, 1);
    }

    #[test]
    fn reserved_id_space_submissions_are_rejected() {
        use crate::quota::QuotaUpdate;
        let mut fe = FrontEnd::new(0, cfg());
        for id in [QuotaUpdate::command_id(9), prever_consensus::pbft::NOOP_ID] {
            let acts = fe.handle_frame(9, &submit_frame(1, Class::Normal, 0, id), 100);
            assert!(acts.iter().any(|a| matches!(
                a,
                Action::Reply(9, Response::Rejected { reason: RejectReason::BadFrame })
            )));
        }
        assert_eq!(fe.queue_depth(), 0, "reserved ids never reach the queue");
    }

    #[test]
    fn quota_update_overrides_the_default_bucket() {
        let mut fe = FrontEnd::new(
            0,
            FrontConfig {
                tenant_rate: 10,
                tenant_burst: 2,
                queue_cap: 64,
                inflight_cap: 64,
                ..cfg()
            },
        );
        // Default burst 2: third request shed.
        for i in 0..3u64 {
            fe.handle_frame(9, &submit_frame(7, Class::Normal, 0, i), 100);
        }
        assert_eq!(fe.stats().shed_overload, 1);
        // Consensus raises tenant 7's quota; the rebuilt bucket admits
        // a fresh burst of 10.
        fe.apply_quota(QuotaUpdate { tenant: 7, rate: 1_000, burst: 10 });
        assert_eq!(fe.quota_for(7), (1_000, 10));
        for i in 10..20u64 {
            let acts = fe.handle_frame(9, &submit_frame(7, Class::Normal, 0, i), 200);
            assert!(
                !acts.iter().any(|a| matches!(a, Action::Reply(_, Response::Overloaded { .. }))),
                "raised quota must admit the new burst"
            );
        }
    }

    #[test]
    fn bad_frames_are_rejected_loudly() {
        let mut fe = FrontEnd::new(0, cfg());
        let acts = fe.handle_frame(9, &[0xde, 0xad, 0xbe, 0xef], 100);
        assert!(acts.iter().any(|a| matches!(
            a,
            Action::Reply(9, Response::Rejected { reason: RejectReason::BadFrame })
        )));
        assert_eq!(fe.stats().bad_frames, 1);
    }
}
