//! Open-loop / closed-loop load-generator client with timeouts,
//! jittered exponential backoff, a per-request retry budget, and
//! transparent multi-gateway failover (DESIGN.md §15).
//!
//! Like [`crate::frontend::FrontEnd`], the client core is sans-IO: it
//! consumes timer fires and decoded response frames and emits
//! [`ClientAction`]s. Retries reuse the original command id, so a
//! resend after a lost ack is idempotent end to end (the consensus
//! layer dedups, the front end re-acks durable commands).
//!
//! # Failover
//!
//! A client configured with several gateways ([`ClientCfg::servers`])
//! opens a session with `Hello` and, after `failover_after` consecutive
//! timeouts, rotates to the next endpoint with a jittered backoff,
//! re-establishes the session with `Resume { session, high_acked }`,
//! and redirects every in-flight attempt at the new gateway. Because
//! retries keep their command ids and every gateway reconstructs its
//! committed map from the same replayed journal, a redirected retry is
//! acked exactly once — never double-executed, never lost.
//!
//! # Read-your-writes verification
//!
//! With [`ClientCfg::verify_reads`] set, each `Committed { id, slot }`
//! ack triggers a `ReadFresh { id, min_slot: slot }` probe at a
//! rotating replica. The reply is stamped with that replica's ledger
//! position and hash-chain digest; the client rejects (and retries
//! elsewhere) replies older than its own high-water mark, and counts a
//! **violation** if a fresh-enough replica cannot see the acked write,
//! or if two replicas disagree on the digest for the same position
//! (fork evidence).

use std::collections::{BTreeMap, HashSet};

use bytes::Bytes;
use prever_sim::NodeId;
use prever_wire::{Class, Frame, Request, Response, Submission};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival process for the generator.
#[derive(Clone, Copy, Debug)]
pub enum LoadMode {
    /// Open loop: a new request every `interval_us`, regardless of
    /// completions. Models outside demand that does not slow down when
    /// the server does — the regime where overload control matters.
    Open {
        /// Virtual µs between launches.
        interval_us: u64,
    },
    /// Closed loop: at most `window` requests outstanding; each
    /// completion triggers the next launch after `think_us`.
    Closed {
        /// Max outstanding requests.
        window: usize,
        /// Think time between a completion and the next launch.
        think_us: u64,
    },
}

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientCfg {
    /// Tenant id stamped on every request.
    pub tenant: u32,
    /// Priority class for all requests.
    pub class: Class,
    /// Gateway endpoints, in preference order. The client talks to
    /// `servers[0]` until failover rotates it to the next entry.
    pub servers: Vec<NodeId>,
    /// Arrival process.
    pub mode: LoadMode,
    /// Total requests to issue.
    pub requests: u64,
    /// Relative deadline per request (0 = none); made absolute at
    /// first send and carried on retries so the server can shed
    /// expired work.
    pub deadline_us: u64,
    /// Resend the current attempt if unanswered after this long.
    pub timeout_us: u64,
    /// Max attempts per request before giving up.
    pub retry_budget: u32,
    /// First backoff step after an `Overloaded` reply.
    pub backoff_base_us: u64,
    /// Backoff ceiling.
    pub backoff_cap_us: u64,
    /// Command ids are `id_base + index` (keep bases disjoint across
    /// clients).
    pub id_base: u64,
    /// Session token carried in `Hello` / `Resume` (0 = derive from
    /// `id_base`, which is already unique per client).
    pub session: u64,
    /// Consecutive timeouts before rotating to the next gateway
    /// (only meaningful with more than one entry in `servers`).
    pub failover_after: u32,
    /// Verify read-your-writes: probe a rotating replica with
    /// `ReadFresh` after every commit ack.
    pub verify_reads: bool,
    /// Seed for backoff jitter.
    pub seed: u64,
}

impl Default for ClientCfg {
    fn default() -> Self {
        ClientCfg {
            tenant: 1,
            class: Class::Normal,
            servers: vec![0],
            mode: LoadMode::Closed { window: 4, think_us: 0 },
            requests: 16,
            deadline_us: 0,
            timeout_us: 400_000,
            retry_budget: 8,
            backoff_base_us: 2_000,
            backoff_cap_us: 256_000,
            id_base: 1,
            session: 0,
            failover_after: 2,
            verify_reads: false,
            seed: 1,
        }
    }
}

/// What the client core wants the surrounding actor to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientAction {
    /// Send an encoded frame to the given server node.
    Send(NodeId, Vec<u8>),
    /// Arm a timer: (delay µs, timer id for [`ClientConn::on_timer`]).
    Timer(u64, u64),
}

/// Timer id: launch the next request (open-loop tick / closed-loop
/// post-think launch).
pub const T_NEXT: u64 = 100;
const T_TIMEOUT: u64 = 1 << 32;
const T_RETRY: u64 = 2 << 32;
const T_READ: u64 = 3 << 32;
const T_FAILOVER: u64 = 4 << 32;
const T_KIND_MASK: u64 = 0xffff_ffff_0000_0000;

/// Terminal state of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Committed,
    DeadlineExceeded,
    GaveUp,
}

#[derive(Clone, Debug)]
struct ReqState {
    launched: bool,
    first_sent_at: u64,
    deadline: u64,
    attempts: u32,
    backoff_us: u64,
    /// An attempt is outstanding (guards stale timeout fires).
    waiting: bool,
    timeout_at: u64,
    outcome: Option<Outcome>,
}

/// One outstanding read-your-writes probe.
#[derive(Clone, Copy, Debug)]
struct ReadProbe {
    /// The slot the write was acked at: the freshness floor.
    min_slot: u64,
    /// Probe sends so far (bounded; a dead replica is retried
    /// elsewhere, not forever).
    attempts: u32,
    /// Guards stale `T_READ` fires after a re-issue.
    timeout_at: u64,
}

/// Aggregate client-side results.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// Requests acknowledged `Committed`.
    pub committed: u64,
    /// `Overloaded` replies received (each triggers backoff or give-up).
    pub overloaded: u64,
    /// Requests the server shed on deadline.
    pub deadline_exceeded: u64,
    /// Requests rejected outright (bad frame / reads degraded).
    pub rejected: u64,
    /// Resends (timeout or post-backoff retry).
    pub retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Gateway rotations performed.
    pub failovers: u64,
    /// `Resume` frames sent after a failover.
    pub resumes_sent: u64,
    /// In-flight attempts redirected to the new gateway on failover.
    pub failover_resends: u64,
    /// `SessionAck` replies received.
    pub session_acks: u64,
    /// Read probes answered fresh (replica at or past the write).
    pub fresh_reads: u64,
    /// Read probes answered by a replica behind the write (retried
    /// elsewhere — a staleness *rejection*, not a violation).
    pub stale_reads: u64,
    /// Read probes abandoned after the retry budget.
    pub reads_abandoned: u64,
    /// Read-your-writes violations: a replica claiming to be at or
    /// past the write's slot could not see the write, or two replies
    /// disagreed on the digest for the same ledger position (fork).
    pub read_violations: u64,
    /// First-send→commit latency of every committed request, µs.
    pub latencies_us: Vec<u64>,
}

impl ClientStats {
    /// The `p`-th percentile (0–100) of commit latency, 0 if none.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut v = self.latencies_us.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[rank.min(v.len() - 1)]
    }
}

/// One simulated client connection. Drive it with `on_start`,
/// `on_timer`, and `on_frame`; it is done when every request has a
/// terminal outcome.
#[derive(Clone, Debug)]
pub struct ClientConn {
    cfg: ClientCfg,
    reqs: Vec<ReqState>,
    next_idx: usize,
    stats: ClientStats,
    acked_ids: HashSet<u64>,
    /// Session token (from cfg, or id_base when unset).
    session: u64,
    /// Index into `cfg.servers` of the current gateway.
    endpoint: usize,
    /// Rotating index for read probes (reads spread over replicas).
    read_endpoint: usize,
    /// Consecutive attempt timeouts at the current gateway.
    consec_timeouts: u32,
    /// A failover backoff timer is armed (dedups triggers).
    failover_pending: bool,
    /// Highest command id acked `Committed` (carried in `Resume`).
    high_acked: u64,
    /// Highest slot acked `Committed`: the read freshness floor.
    high_slot: u64,
    /// Outstanding read probes, by command id.
    pending_reads: BTreeMap<u64, ReadProbe>,
    /// applied_slot → digest seen on read replies; two replies for the
    /// same position must agree, or the replicas have forked.
    slot_digests: BTreeMap<u64, [u8; 32]>,
    rng: StdRng,
}

impl ClientConn {
    /// A fresh client for `cfg`.
    pub fn new(cfg: ClientCfg) -> Self {
        assert!(!cfg.servers.is_empty(), "client needs at least one server");
        let reqs = (0..cfg.requests)
            .map(|_| ReqState {
                launched: false,
                first_sent_at: 0,
                deadline: 0,
                attempts: 0,
                backoff_us: cfg.backoff_base_us,
                waiting: false,
                timeout_at: 0,
                outcome: None,
            })
            .collect();
        let session = if cfg.session != 0 { cfg.session } else { cfg.id_base };
        let rng = StdRng::seed_from_u64(cfg.seed);
        ClientConn {
            cfg,
            reqs,
            next_idx: 0,
            stats: ClientStats::default(),
            acked_ids: HashSet::new(),
            session,
            endpoint: 0,
            read_endpoint: 0,
            consec_timeouts: 0,
            failover_pending: false,
            high_acked: 0,
            high_slot: 0,
            pending_reads: BTreeMap::new(),
            slot_digests: BTreeMap::new(),
            rng,
        }
    }

    /// Aggregate results so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Command ids this client has seen acked `Committed` — the
    /// ground-truth set for the durability invariant (an acked write
    /// must survive any server crash).
    pub fn acked_ids(&self) -> &HashSet<u64> {
        &self.acked_ids
    }

    /// True once every request has a terminal outcome. Outstanding
    /// read probes do not block completion (a probe against a dead
    /// replica is abandoned, never waited on forever).
    pub fn done(&self) -> bool {
        self.next_idx >= self.reqs.len() && self.unresolved() == 0
    }

    /// Requests not yet terminal (for liveness diagnostics). Setting an
    /// outcome bumps exactly one of the three terminal counters, so
    /// this is O(1): the harnesses ask after every simulator event.
    pub fn unresolved(&self) -> u64 {
        let s = &self.stats;
        self.reqs.len() as u64 - (s.committed + s.gave_up + s.deadline_exceeded)
    }

    /// The gateway currently targeted.
    pub fn current_server(&self) -> NodeId {
        self.cfg.servers[self.endpoint % self.cfg.servers.len()]
    }

    /// Highest slot this client has seen acked — its read freshness
    /// floor (harness diagnostics).
    pub fn high_slot(&self) -> u64 {
        self.high_slot
    }

    fn read_target(&mut self) -> NodeId {
        let t = self.cfg.servers[self.read_endpoint % self.cfg.servers.len()];
        self.read_endpoint += 1;
        t
    }

    fn id_of(&self, idx: usize) -> u64 {
        self.cfg.id_base + idx as u64
    }

    fn idx_of(&self, id: u64) -> Option<usize> {
        let idx = id.checked_sub(self.cfg.id_base)? as usize;
        (idx < self.reqs.len()).then_some(idx)
    }

    fn encode_submit(&self, idx: usize, deadline: u64) -> Vec<u8> {
        let id = self.id_of(idx);
        Frame::Request(Request::Submit {
            tenant: self.cfg.tenant,
            class: self.cfg.class,
            deadline,
            submission: Submission {
                id,
                payload: Bytes::from(id.to_le_bytes().to_vec()),
            },
        })
        .encode()
    }

    fn send_attempt(&mut self, idx: usize, now: u64, actions: &mut Vec<ClientAction>) {
        let timeout = self.cfg.timeout_us;
        let target = self.current_server();
        let r = &mut self.reqs[idx];
        if !r.launched {
            r.launched = true;
            r.first_sent_at = now;
            r.deadline = if self.cfg.deadline_us == 0 { 0 } else { now + self.cfg.deadline_us };
        }
        r.attempts += 1;
        r.waiting = true;
        r.timeout_at = now + timeout;
        let deadline = r.deadline;
        actions.push(ClientAction::Send(target, self.encode_submit(idx, deadline)));
        actions.push(ClientAction::Timer(timeout, T_TIMEOUT | idx as u64));
    }

    fn launch_next(&mut self, now: u64, actions: &mut Vec<ClientAction>) {
        if self.next_idx >= self.reqs.len() {
            return;
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        self.send_attempt(idx, now, actions);
    }

    fn retry_or_give_up(&mut self, idx: usize, delay_floor: u64, actions: &mut Vec<ClientAction>) {
        if self.reqs[idx].outcome.is_some() {
            return;
        }
        if self.reqs[idx].attempts >= self.cfg.retry_budget {
            self.reqs[idx].outcome = Some(Outcome::GaveUp);
            self.stats.gave_up += 1;
            self.after_completion(actions);
            return;
        }
        // Jittered exponential backoff: honor the server's retry_after
        // floor, add up to half a step of jitter to decorrelate a
        // retry storm.
        let step = self.reqs[idx].backoff_us;
        let jitter = self.rng.gen_range(0..=step / 2 + 1);
        let delay = delay_floor.max(step) + jitter;
        self.reqs[idx].backoff_us = (step * 2).min(self.cfg.backoff_cap_us);
        actions.push(ClientAction::Timer(delay, T_RETRY | idx as u64));
    }

    /// Closed-loop only: a completion frees a window slot.
    fn after_completion(&mut self, actions: &mut Vec<ClientAction>) {
        if let LoadMode::Closed { think_us, .. } = self.cfg.mode {
            if self.next_idx < self.reqs.len() {
                actions.push(ClientAction::Timer(think_us.max(1), T_NEXT));
            }
        }
    }

    /// An attempt timed out: count it toward failover and arm the
    /// (jitter-delayed) rotation once the threshold is hit.
    fn note_timeout(&mut self, actions: &mut Vec<ClientAction>) {
        self.consec_timeouts += 1;
        if self.cfg.servers.len() > 1
            && self.consec_timeouts >= self.cfg.failover_after.max(1)
            && !self.failover_pending
        {
            self.failover_pending = true;
            // Jittered backoff before reconnecting: a gateway crash
            // dumps all its clients at once — do not let them stampede
            // the next gateway in the same instant.
            let jitter = self.rng.gen_range(0..=self.cfg.backoff_base_us);
            actions.push(ClientAction::Timer(jitter.max(1), T_FAILOVER));
        }
    }

    /// Rotate to the next gateway, resume the session there, and
    /// redirect every in-flight attempt.
    fn do_failover(&mut self, now: u64, actions: &mut Vec<ClientAction>) {
        self.failover_pending = false;
        self.consec_timeouts = 0;
        self.endpoint = (self.endpoint + 1) % self.cfg.servers.len();
        self.stats.failovers += 1;
        prever_obs::counter!("server.failover.count").inc();
        let target = self.current_server();
        self.stats.resumes_sent += 1;
        actions.push(ClientAction::Send(
            target,
            Frame::Request(Request::Resume {
                tenant: self.cfg.tenant,
                session: self.session,
                high_acked: self.high_acked,
            })
            .encode(),
        ));
        // Redirect attempts that were outstanding at the dead gateway.
        // Same command ids → consensus dedup + committed-map re-ack
        // make this exactly-once even if the old gateway also got the
        // command through.
        for idx in 0..self.reqs.len() {
            let r = &self.reqs[idx];
            if r.launched && r.outcome.is_none() && r.waiting {
                self.stats.failover_resends += 1;
                let deadline = r.deadline;
                let timeout = self.cfg.timeout_us;
                self.reqs[idx].timeout_at = now + timeout;
                actions.push(ClientAction::Send(target, self.encode_submit(idx, deadline)));
                actions.push(ClientAction::Timer(timeout, T_TIMEOUT | idx as u64));
            }
        }
    }

    /// Issue (or re-issue) the read-your-writes probe for `id`.
    fn send_read_probe(&mut self, id: u64, now: u64, actions: &mut Vec<ClientAction>) {
        let Some(idx) = self.idx_of(id) else { return };
        let target = self.read_target();
        let timeout = self.cfg.timeout_us;
        if let Some(p) = self.pending_reads.get_mut(&id) {
            p.attempts += 1;
            p.timeout_at = now + timeout;
            let min_slot = p.min_slot;
            actions.push(ClientAction::Send(
                target,
                Frame::Request(Request::ReadFresh { tenant: self.cfg.tenant, id, min_slot })
                    .encode(),
            ));
            actions.push(ClientAction::Timer(timeout, T_READ | idx as u64));
        }
    }

    fn retry_or_abandon_read(&mut self, id: u64, now: u64, actions: &mut Vec<ClientAction>) {
        let budget = (2 * self.cfg.servers.len() as u32).max(4);
        let attempts = match self.pending_reads.get(&id) {
            Some(p) => p.attempts,
            None => return,
        };
        if attempts >= budget {
            self.pending_reads.remove(&id);
            self.stats.reads_abandoned += 1;
        } else {
            self.send_read_probe(id, now, actions);
        }
    }

    /// Kick off the session (Hello) and the arrival process.
    pub fn on_start(&mut self, now: u64) -> Vec<ClientAction> {
        let mut actions = Vec::new();
        actions.push(ClientAction::Send(
            self.current_server(),
            Frame::Request(Request::Hello { tenant: self.cfg.tenant, session: self.session })
                .encode(),
        ));
        match self.cfg.mode {
            LoadMode::Open { interval_us } => {
                self.launch_next(now, &mut actions);
                if self.next_idx < self.reqs.len() {
                    actions.push(ClientAction::Timer(interval_us.max(1), T_NEXT));
                }
            }
            LoadMode::Closed { window, .. } => {
                for _ in 0..window.max(1) {
                    self.launch_next(now, &mut actions);
                }
            }
        }
        actions
    }

    /// Handle a timer fire previously requested via
    /// [`ClientAction::Timer`].
    pub fn on_timer(&mut self, timer: u64, now: u64) -> Vec<ClientAction> {
        let mut actions = Vec::new();
        if timer == T_NEXT {
            match self.cfg.mode {
                LoadMode::Open { interval_us } => {
                    self.launch_next(now, &mut actions);
                    if self.next_idx < self.reqs.len() {
                        actions.push(ClientAction::Timer(interval_us.max(1), T_NEXT));
                    }
                }
                LoadMode::Closed { .. } => self.launch_next(now, &mut actions),
            }
            return actions;
        }
        if timer == T_FAILOVER {
            if self.failover_pending {
                self.do_failover(now, &mut actions);
            }
            return actions;
        }
        let idx = (timer & !T_KIND_MASK) as usize;
        if idx >= self.reqs.len() {
            return actions;
        }
        if timer & T_KIND_MASK == T_READ {
            let id = self.id_of(idx);
            let stale = match self.pending_reads.get(&id) {
                Some(p) => now < p.timeout_at,
                None => true,
            };
            if !stale {
                self.retry_or_abandon_read(id, now, &mut actions);
            }
            return actions;
        }
        if self.reqs[idx].outcome.is_some() {
            return actions;
        }
        match timer & T_KIND_MASK {
            // Stale if a reply arrived (waiting cleared) or the attempt
            // was rescheduled past this fire.
            T_TIMEOUT if self.reqs[idx].waiting && now >= self.reqs[idx].timeout_at => {
                self.reqs[idx].waiting = false;
                self.stats.retries += 1;
                prever_obs::counter!("server.retry").inc();
                self.note_timeout(&mut actions);
                self.retry_or_give_up(idx, 0, &mut actions);
            }
            T_RETRY if !self.reqs[idx].waiting => {
                self.stats.retries += 1;
                prever_obs::counter!("server.retry").inc();
                self.send_attempt(idx, now, &mut actions);
            }
            _ => {}
        }
        actions
    }

    /// Records a digest stamped for `applied_slot`, counting a
    /// violation if it contradicts one already seen (fork evidence:
    /// two replicas at the same ledger position must agree bit for
    /// bit).
    fn check_digest(&mut self, applied_slot: u64, digest: [u8; 32]) {
        match self.slot_digests.get(&applied_slot) {
            Some(seen) if *seen != digest => {
                self.stats.read_violations += 1;
                prever_obs::counter!("server.read.violation").inc();
            }
            Some(_) => {}
            None => {
                self.slot_digests.insert(applied_slot, digest);
            }
        }
    }

    /// Handle an encoded response frame from the server.
    pub fn on_frame(&mut self, buf: &[u8], now: u64) -> Vec<ClientAction> {
        let mut actions = Vec::new();
        let Ok((Frame::Response(resp), _)) = Frame::decode(buf) else {
            // A client never trusts the wire either: garbage is
            // counted and dropped, not crashed on.
            prever_obs::counter!("server.wire.bad_frames").inc();
            return actions;
        };
        // Any well-formed reply means a gateway is talking to us.
        self.consec_timeouts = 0;
        match resp {
            Response::Committed { id, slot } => {
                if let Some(idx) = self.idx_of(id) {
                    if self.reqs[idx].outcome.is_none() {
                        self.reqs[idx].outcome = Some(Outcome::Committed);
                        self.reqs[idx].waiting = false;
                        self.stats.committed += 1;
                        self.stats
                            .latencies_us
                            .push(now.saturating_sub(self.reqs[idx].first_sent_at));
                        self.acked_ids.insert(id);
                        self.high_acked = self.high_acked.max(id);
                        self.high_slot = self.high_slot.max(slot);
                        if self.cfg.verify_reads {
                            self.pending_reads.insert(
                                id,
                                ReadProbe { min_slot: slot, attempts: 0, timeout_at: 0 },
                            );
                            self.send_read_probe(id, now, &mut actions);
                        }
                        self.after_completion(&mut actions);
                    }
                }
            }
            Response::Overloaded { retry_after_us, id } => {
                if let Some(idx) = self.idx_of(id) {
                    if self.reqs[idx].outcome.is_none() && self.reqs[idx].waiting {
                        self.reqs[idx].waiting = false;
                        self.stats.overloaded += 1;
                        self.retry_or_give_up(idx, retry_after_us, &mut actions);
                    }
                }
            }
            Response::DeadlineExceeded { id } => {
                if let Some(idx) = self.idx_of(id) {
                    if self.reqs[idx].outcome.is_none() {
                        self.reqs[idx].outcome = Some(Outcome::DeadlineExceeded);
                        self.reqs[idx].waiting = false;
                        self.stats.deadline_exceeded += 1;
                        self.after_completion(&mut actions);
                    }
                }
            }
            Response::SessionAck { session, .. } => {
                if session == self.session {
                    self.stats.session_acks += 1;
                }
            }
            Response::ReadFreshResult { id, slot, applied_slot, digest, floor } => {
                self.check_digest(applied_slot, digest);
                let Some(probe) = self.pending_reads.get(&id).copied() else {
                    return actions;
                };
                if applied_slot >= probe.min_slot {
                    // Replica is at or past our write's slot: it MUST
                    // account for the write. Either its per-id commit
                    // record names our slot, or the record was evicted
                    // because the slot sits below the replica's
                    // checkpoint floor — a quorum-certified stable
                    // prefix necessarily containing the write. Anything
                    // else (missing above the floor, or recorded at a
                    // different slot) is a read-your-writes violation.
                    self.pending_reads.remove(&id);
                    let covered = match slot {
                        Some(s) => s == probe.min_slot,
                        None => probe.min_slot < floor,
                    };
                    if covered {
                        self.stats.fresh_reads += 1;
                        prever_obs::counter!("server.read.verified").inc();
                    } else {
                        self.stats.read_violations += 1;
                        prever_obs::counter!("server.read.violation").inc();
                    }
                } else {
                    // Stale replica: legal (it is catching up) — the
                    // client rejects the reply and retries elsewhere.
                    self.stats.stale_reads += 1;
                    self.retry_or_abandon_read(id, now, &mut actions);
                }
            }
            Response::Rejected { .. } => {
                // No id on a Rejected frame: it answers malformed
                // input, which a well-formed client never sends; count
                // it for diagnostics.
                self.stats.rejected += 1;
            }
            Response::QueryResult { .. } | Response::AuditDigest { .. } => {}
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_frame(id: u64, slot: u64) -> Vec<u8> {
        Frame::Response(Response::Committed { id, slot }).encode()
    }

    fn sends(acts: &[ClientAction]) -> Vec<(NodeId, Vec<u8>)> {
        acts.iter()
            .filter_map(|a| match a {
                ClientAction::Send(to, buf) => Some((*to, buf.clone())),
                _ => None,
            })
            .collect()
    }

    fn decode_req(buf: &[u8]) -> Request {
        match Frame::decode(buf) {
            Ok((Frame::Request(r), _)) => r,
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn closed_loop_keeps_window_outstanding() {
        let mut c = ClientConn::new(ClientCfg {
            mode: LoadMode::Closed { window: 2, think_us: 10 },
            requests: 4,
            id_base: 100,
            ..ClientCfg::default()
        });
        let acts = c.on_start(0);
        // Hello + two submits.
        assert_eq!(sends(&acts).len(), 3);
        assert!(matches!(decode_req(&sends(&acts)[0].1), Request::Hello { session: 100, .. }));
        // First commit frees a slot → think timer → next launch.
        let acts = c.on_frame(&committed_frame(100, 1), 50);
        assert!(acts.iter().any(|a| matches!(a, ClientAction::Timer(10, T_NEXT))));
        let acts = c.on_timer(T_NEXT, 60);
        assert_eq!(sends(&acts).len(), 1);
        assert_eq!(c.stats().committed, 1);
        assert_eq!(c.stats().latencies_us, vec![50]);
    }

    #[test]
    fn open_loop_launches_on_schedule_regardless_of_replies() {
        let mut c = ClientConn::new(ClientCfg {
            mode: LoadMode::Open { interval_us: 1_000 },
            requests: 3,
            id_base: 1,
            ..ClientCfg::default()
        });
        let _ = c.on_start(0);
        let acts = c.on_timer(T_NEXT, 1_000);
        assert!(!sends(&acts).is_empty());
        let acts = c.on_timer(T_NEXT, 2_000);
        assert!(!sends(&acts).is_empty());
        // All three launched with zero replies received.
        assert!(!c.done());
    }

    #[test]
    fn overload_reply_backs_off_with_jitter_and_honors_retry_after() {
        let mut c = ClientConn::new(ClientCfg {
            requests: 1,
            id_base: 5,
            backoff_base_us: 1_000,
            ..ClientCfg::default()
        });
        let _ = c.on_start(0);
        let over = Frame::Response(Response::Overloaded { retry_after_us: 50_000, id: 5 })
            .encode();
        let acts = c.on_frame(&over, 10);
        let Some(ClientAction::Timer(delay, t)) = acts
            .iter()
            .find(|a| matches!(a, ClientAction::Timer(_, t) if t & T_KIND_MASK == T_RETRY))
        else {
            panic!("expected a retry timer, got {acts:?}");
        };
        assert_eq!(*t & !T_KIND_MASK, 0);
        assert!(*delay >= 50_000, "backoff floor is the server's retry_after: {delay}");
        // The retry resends the SAME command id (idempotent).
        let acts = c.on_timer(T_RETRY, 60_000);
        let sent = sends(&acts);
        assert_eq!(sent.len(), 1);
        match decode_req(&sent[0].1) {
            Request::Submit { submission, .. } => assert_eq!(submission.id, 5),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().retries, 1);
    }

    #[test]
    fn retry_budget_exhaustion_gives_up() {
        let mut c = ClientConn::new(ClientCfg {
            requests: 1,
            retry_budget: 2,
            id_base: 9,
            ..ClientCfg::default()
        });
        let _ = c.on_start(0);
        let over =
            Frame::Response(Response::Overloaded { retry_after_us: 10, id: 9 }).encode();
        let _ = c.on_frame(&over, 10); // attempt 1 answered → retry scheduled
        let _ = c.on_timer(T_RETRY, 100); // attempt 2
        let _ = c.on_frame(&over, 110); // budget hit → gave up
        assert!(c.done());
        assert_eq!(c.stats().gave_up, 1);
    }

    #[test]
    fn timeout_resends_same_id_and_counts_retry() {
        let mut c = ClientConn::new(ClientCfg {
            requests: 1,
            timeout_us: 1_000,
            id_base: 7,
            ..ClientCfg::default()
        });
        let _ = c.on_start(0);
        // Fire the timeout with no reply seen: resend happens (after
        // backoff).
        let acts = c.on_timer(T_TIMEOUT, 1_000);
        assert!(acts
            .iter()
            .any(|a| matches!(a, ClientAction::Timer(_, t) if t & T_KIND_MASK == T_RETRY)));
        assert_eq!(c.stats().retries, 1);
        // A late commit for the original send still completes it.
        let _ = c.on_frame(&committed_frame(7, 2), 2_000);
        assert!(c.done());
        assert_eq!(c.stats().committed, 1);
    }

    #[test]
    fn stale_timeout_after_reply_is_ignored() {
        let mut c = ClientConn::new(ClientCfg { requests: 1, id_base: 3, ..ClientCfg::default() });
        let _ = c.on_start(0);
        let _ = c.on_frame(&committed_frame(3, 1), 50);
        let acts = c.on_timer(T_TIMEOUT, 400_000);
        assert!(acts.is_empty());
        assert_eq!(c.stats().retries, 0);
    }

    #[test]
    fn consecutive_timeouts_fail_over_resume_and_redirect() {
        let mut c = ClientConn::new(ClientCfg {
            servers: vec![0, 1],
            requests: 2,
            timeout_us: 1_000,
            failover_after: 1,
            retry_budget: 16,
            id_base: 10,
            mode: LoadMode::Closed { window: 2, think_us: 0 },
            ..ClientCfg::default()
        });
        let acts = c.on_start(0);
        // Everything initially targets gateway 0.
        assert!(sends(&acts).iter().all(|(to, _)| *to == 0));
        // Request 0 times out → failover armed (jittered) + retry timer.
        let acts = c.on_timer(T_TIMEOUT, 1_000);
        let Some(ClientAction::Timer(_, T_FAILOVER)) =
            acts.iter().find(|a| matches!(a, ClientAction::Timer(_, T_FAILOVER)))
        else {
            panic!("expected failover timer, got {acts:?}");
        };
        // The failover fires: rotate to gateway 1, Resume there, and
        // redirect the still-waiting request 1.
        let acts = c.on_timer(T_FAILOVER, 1_500);
        let sent = sends(&acts);
        assert!(sent.iter().all(|(to, _)| *to == 1), "all redirected to gateway 1: {sent:?}");
        assert!(matches!(
            decode_req(&sent[0].1),
            Request::Resume { session: 10, high_acked: 0, .. }
        ));
        assert!(sent.iter().skip(1).any(
            |(_, b)| matches!(decode_req(b), Request::Submit { submission, .. } if submission.id == 11)
        ));
        assert_eq!(c.stats().failovers, 1);
        assert_eq!(c.stats().resumes_sent, 1);
        assert_eq!(c.current_server(), 1);
        // The timed-out request's backoff retry also goes to gateway 1.
        let acts = c.on_timer(T_RETRY, 5_000);
        assert!(sends(&acts).iter().all(|(to, _)| *to == 1));
        // Both commit exactly once, even if the old gateway's ack also
        // arrives late (duplicate acks are ignored).
        let _ = c.on_frame(&committed_frame(10, 1), 6_000);
        let _ = c.on_frame(&committed_frame(11, 2), 6_000);
        let _ = c.on_frame(&committed_frame(10, 1), 6_500);
        assert!(c.done());
        assert_eq!(c.stats().committed, 2);
        assert_eq!(c.acked_ids().len(), 2);
    }

    #[test]
    fn read_probe_rejects_stale_replicas_and_verifies_fresh_ones() {
        let mut c = ClientConn::new(ClientCfg {
            servers: vec![0, 1, 2],
            requests: 1,
            verify_reads: true,
            id_base: 20,
            ..ClientCfg::default()
        });
        let _ = c.on_start(0);
        // Commit at slot 5 → a ReadFresh probe goes out.
        let acts = c.on_frame(&committed_frame(20, 5), 100);
        let sent = sends(&acts);
        assert!(sent
            .iter()
            .any(|(_, b)| matches!(decode_req(b), Request::ReadFresh { id: 20, min_slot: 5, .. })));
        // A stale replica (applied_slot 3 < 5) is rejected and the
        // probe retried elsewhere.
        let stale = Frame::Response(Response::ReadFreshResult {
            id: 20,
            slot: None,
            applied_slot: 3,
            digest: [1; 32],
            floor: 0,
        })
        .encode();
        let acts = c.on_frame(&stale, 200);
        assert_eq!(c.stats().stale_reads, 1);
        assert_eq!(c.stats().read_violations, 0, "stale is a rejection, not a violation");
        assert!(sends(&acts)
            .iter()
            .any(|(_, b)| matches!(decode_req(b), Request::ReadFresh { id: 20, .. })));
        // A fresh replica that sees the write at its acked slot
        // verifies read-your-writes.
        let fresh = Frame::Response(Response::ReadFreshResult {
            id: 20,
            slot: Some(5),
            applied_slot: 7,
            digest: [2; 32],
            floor: 0,
        })
        .encode();
        let _ = c.on_frame(&fresh, 300);
        assert_eq!(c.stats().fresh_reads, 1);
        assert_eq!(c.stats().read_violations, 0);
    }

    #[test]
    fn write_below_the_eviction_floor_counts_as_covered() {
        let mut c = ClientConn::new(ClientCfg {
            servers: vec![0, 1],
            requests: 1,
            verify_reads: true,
            id_base: 25,
            ..ClientCfg::default()
        });
        let _ = c.on_start(0);
        let _ = c.on_frame(&committed_frame(25, 4), 100);
        // The replica evicted per-id records below its checkpoint floor
        // (floor 10 > min_slot 4): the write sits inside the stable
        // prefix, so `slot: None` is NOT a violation here.
        let evicted = Frame::Response(Response::ReadFreshResult {
            id: 25,
            slot: None,
            applied_slot: 12,
            digest: [6; 32],
            floor: 10,
        })
        .encode();
        let _ = c.on_frame(&evicted, 200);
        assert_eq!(c.stats().fresh_reads, 1);
        assert_eq!(c.stats().read_violations, 0);
    }

    #[test]
    fn fresh_replica_missing_the_write_is_a_violation() {
        let mut c = ClientConn::new(ClientCfg {
            servers: vec![0, 1],
            requests: 1,
            verify_reads: true,
            id_base: 30,
            ..ClientCfg::default()
        });
        let _ = c.on_start(0);
        let _ = c.on_frame(&committed_frame(30, 4), 100);
        // applied_slot 9 ≥ 4 but the write is invisible: violation.
        let bad = Frame::Response(Response::ReadFreshResult {
            id: 30,
            slot: None,
            applied_slot: 9,
            digest: [3; 32],
            floor: 0,
        })
        .encode();
        let _ = c.on_frame(&bad, 200);
        assert_eq!(c.stats().read_violations, 1);
    }

    #[test]
    fn conflicting_digests_for_same_position_are_fork_evidence() {
        let mut c = ClientConn::new(ClientCfg {
            servers: vec![0, 1],
            requests: 2,
            verify_reads: true,
            id_base: 40,
            ..ClientCfg::default()
        });
        let _ = c.on_start(0);
        let _ = c.on_frame(&committed_frame(40, 1), 100);
        let _ = c.on_frame(&committed_frame(41, 2), 100);
        let r1 = Frame::Response(Response::ReadFreshResult {
            id: 40,
            slot: Some(1),
            applied_slot: 2,
            digest: [7; 32],
            floor: 0,
        })
        .encode();
        let r2 = Frame::Response(Response::ReadFreshResult {
            id: 41,
            slot: Some(2),
            applied_slot: 2,
            digest: [8; 32],
            floor: 0,
        })
        .encode();
        let _ = c.on_frame(&r1, 200);
        let _ = c.on_frame(&r2, 300);
        assert_eq!(c.stats().read_violations, 1, "same position, different digests = fork");
    }

    #[test]
    fn done_agrees_with_a_scan_of_every_request_at_every_step() {
        let scan = |c: &ClientConn| {
            let unresolved = c.reqs.iter().filter(|r| r.outcome.is_none()).count() as u64;
            (c.next_idx >= c.reqs.len() && unresolved == 0, unresolved)
        };
        let mut c = ClientConn::new(ClientCfg {
            requests: 5,
            retry_budget: 2,
            timeout_us: 1_000,
            id_base: 50,
            mode: LoadMode::Closed { window: 2, think_us: 0 },
            ..ClientCfg::default()
        });
        let overloaded = |id| Frame::Response(Response::Overloaded { retry_after_us: 10, id }).encode();
        let shed = |id| Frame::Response(Response::DeadlineExceeded { id }).encode();
        let check = |c: &ClientConn, step: &str| {
            assert_eq!((c.done(), c.unresolved()), scan(c), "after {step}");
        };
        check(&c, "new");
        let _ = c.on_start(0);
        check(&c, "start");
        // Request 50 times out, is retried, and commits (twice: the
        // duplicate ack changes nothing).
        let _ = c.on_timer(T_TIMEOUT, 1_000);
        check(&c, "timeout 50");
        let _ = c.on_timer(T_RETRY, 5_000);
        check(&c, "retry 50");
        let _ = c.on_frame(&committed_frame(50, 1), 5_100);
        check(&c, "commit 50");
        let _ = c.on_frame(&committed_frame(50, 1), 5_150);
        check(&c, "commit 50 again");
        let _ = c.on_timer(T_NEXT, 5_200);
        check(&c, "launch 52");
        // Request 51 is overloaded until its budget runs out.
        let _ = c.on_frame(&overloaded(51), 5_300);
        check(&c, "overload 51");
        let _ = c.on_timer(T_RETRY | 1, 6_000);
        check(&c, "retry 51");
        let _ = c.on_frame(&overloaded(51), 6_100);
        check(&c, "give up 51");
        let _ = c.on_timer(T_NEXT, 6_200);
        check(&c, "launch 53");
        // Request 52 is shed on its deadline; 53 commits; 54, the last,
        // is shed too.
        let _ = c.on_frame(&shed(52), 6_300);
        check(&c, "shed 52");
        let _ = c.on_timer(T_NEXT, 6_400);
        check(&c, "launch 54");
        let _ = c.on_frame(&committed_frame(53, 2), 6_500);
        check(&c, "commit 53");
        assert!(!c.done());
        let _ = c.on_frame(&shed(54), 6_600);
        check(&c, "shed 54");
        assert!(c.done());
        let s = c.stats();
        assert_eq!((s.committed, s.gave_up, s.deadline_exceeded, s.retries), (2, 1, 2, 3));
    }

    #[test]
    fn percentiles_come_from_recorded_latencies() {
        let s = ClientStats { latencies_us: (1..=100).collect(), ..Default::default() };
        assert_eq!(s.latency_percentile(50.0), 51);
        assert_eq!(s.latency_percentile(99.0), 99);
        assert_eq!(ClientStats::default().latency_percentile(99.0), 0);
    }
}
