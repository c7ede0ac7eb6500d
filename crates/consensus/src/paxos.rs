//! Multi-Paxos with a stable leader.
//!
//! The crash-fault-tolerant baseline of experiment E3 (paper §6 names
//! Paxos explicitly). One ballot-ordered leader drives phase 2 for a
//! sequence of slots after winning phase 1 once; followers forward client
//! requests to the leader and monitor it with heartbeats, electing a new
//! leader (higher ballot) on silence.
//!
//! Ordering is batched: the leader accumulates forwarded commands into a
//! [`Batch`] under a [`BatchConfig`] fill policy (max size / max delay)
//! and runs **one accept round per batch**, with at most `window` batches
//! in flight concurrently. The default config (batch 1, no delay) degrades
//! to the classic one-command-per-slot protocol.
//!
//! Ballot numbering: `ballot = round * n + node_id`, so every node owns an
//! unbounded supply of unique ballots and `ballot % n` identifies the
//! would-be leader.

use crate::{Batch, BatchConfig, Command, IdSet};
use prever_sim::{Actor, Ctx, NodeId, VoteSet};
use std::collections::{BTreeMap, VecDeque};

/// Paxos protocol messages.
#[derive(Clone, Debug)]
pub enum PaxosMsg {
    /// A client submits commands (injected by the harness or forwarded).
    ClientRequest(Batch),
    /// Phase 1a.
    Prepare {
        /// Proposer's ballot.
        ballot: u64,
    },
    /// Phase 1b: promise not to accept lower ballots; reports previously
    /// accepted (slot, ballot, batch) triples.
    Promise {
        /// The promised ballot.
        ballot: u64,
        /// Previously accepted values.
        accepted: Vec<(u64, u64, Batch)>,
    },
    /// Phase 2a.
    Accept {
        /// Leader's ballot.
        ballot: u64,
        /// Slot being decided.
        slot: u64,
        /// Proposed batch.
        batch: Batch,
    },
    /// Phase 2b.
    Accepted {
        /// Ballot of the acceptance.
        ballot: u64,
        /// Slot.
        slot: u64,
    },
    /// Decision broadcast (learners).
    Decide {
        /// Slot.
        slot: u64,
        /// Decided batch.
        batch: Batch,
    },
    /// Leader liveness beacon; carries the decision frontier so
    /// followers can detect gaps from dropped Decide messages.
    Heartbeat {
        /// Leader's ballot.
        ballot: u64,
        /// One past the highest slot the leader has decided.
        decided_up_to: u64,
    },
    /// A follower asks the leader to re-send specific decisions.
    LearnRequest {
        /// Slots the follower is missing.
        missing: Vec<u64>,
    },
}

impl PaxosMsg {
    /// Wraps a single command as a client request (harness convenience).
    pub fn request(command: Command) -> PaxosMsg {
        PaxosMsg::ClientRequest(Batch::single(command))
    }

    /// The message-kind name (`"accept"`, `"decide"`, …): what the
    /// simulator's step records and trace ring call it.
    pub fn kind(&self) -> &'static str {
        match self {
            PaxosMsg::ClientRequest(_) => "client_request",
            PaxosMsg::Prepare { .. } => "prepare",
            PaxosMsg::Promise { .. } => "promise",
            PaxosMsg::Accept { .. } => "accept",
            PaxosMsg::Accepted { .. } => "accepted",
            PaxosMsg::Decide { .. } => "decide",
            PaxosMsg::Heartbeat { .. } => "heartbeat",
            PaxosMsg::LearnRequest { .. } => "learn_request",
        }
    }
}

const TIMER_HEARTBEAT: u64 = 1;
const TIMER_LEADER_TIMEOUT: u64 = 2;
const TIMER_BATCH: u64 = 3;

const HEARTBEAT_EVERY: u64 = 20_000; // 20 ms
const LEADER_TIMEOUT: u64 = 100_000; // 100 ms
/// First election-timer firing (node 0's timer wins a clean start).
const ELECTION_BASE: u64 = 10_000; // 10 ms
/// Per-id election stagger (avoids dueling proposers).
const ELECTION_STAGGER: u64 = 10_000; // 10 ms

/// Per-slot acceptor state.
#[derive(Clone, Debug)]
struct AcceptedEntry {
    ballot: u64,
    batch: Batch,
}

/// A Multi-Paxos node (proposer + acceptor + learner).
#[derive(Clone, Debug)]
pub struct PaxosNode {
    id: NodeId,
    n: usize,
    /// Highest ballot promised (acceptor).
    promised: u64,
    /// Accepted values per slot (acceptor).
    accepted: BTreeMap<u64, AcceptedEntry>,
    /// Decided log (learner): each slot's batch and the virtual time
    /// this node learned it.
    decided: BTreeMap<u64, (Batch, u64)>,
    /// Every command id in `decided`.
    decided_set: IdSet,
    /// Leader state: Some(ballot) once phase 1 is complete.
    leading: Option<u64>,
    /// Ballot this node is currently trying to win (phase 1 in flight).
    campaigning: Option<u64>,
    promises: VoteSet,
    /// Values learned from promises during the campaign.
    campaign_accepted: BTreeMap<u64, AcceptedEntry>,
    /// Next free slot when leading.
    next_slot: u64,
    /// Client commands awaiting proposal.
    backlog: Vec<Command>,
    /// Commands accumulating toward the next proposed batch (leader),
    /// with arrival time for the fill-delay cut.
    accum: VecDeque<(Command, u64)>,
    /// Batch fill/pipelining policy.
    cfg: BatchConfig,
    /// Per-slot accept votes when leading.
    votes: BTreeMap<u64, VoteSet>,
    /// In-flight proposals (slot → batch) when leading.
    proposing: BTreeMap<u64, Batch>,
    /// Last heartbeat seen from a leader (ballot).
    seen_ballot: u64,
    heard_from_leader: bool,
}

// Every actor hosted on the simulator must be `Send`: the shard-per-
// thread runtime ships replica groups to worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<PaxosNode>();
};

impl PaxosNode {
    /// Creates node `id` of `n`.
    pub fn new(id: NodeId, n: usize) -> Self {
        PaxosNode {
            id,
            n,
            promised: 0,
            accepted: BTreeMap::new(),
            decided: BTreeMap::new(),
            decided_set: IdSet::default(),
            leading: None,
            campaigning: None,
            promises: VoteSet::new(),
            campaign_accepted: BTreeMap::new(),
            next_slot: 0,
            backlog: Vec::new(),
            accum: VecDeque::new(),
            cfg: BatchConfig::default(),
            votes: BTreeMap::new(),
            proposing: BTreeMap::new(),
            seen_ballot: 0,
            heard_from_leader: false,
        }
    }

    /// Creates node `id` of `n` with a batching policy.
    pub fn with_batching(id: NodeId, n: usize, cfg: BatchConfig) -> Self {
        let mut node = PaxosNode::new(id, n);
        node.cfg = cfg;
        node
    }

    /// Sets the batch fill/pipelining policy.
    pub fn set_batch_config(&mut self, cfg: BatchConfig) {
        self.cfg = cfg;
    }

    /// The decided log, slot → (batch, virtual time this node learned
    /// it): slot-ordered, possibly with gaps while running.
    pub fn decided(&self) -> &BTreeMap<u64, (Batch, u64)> {
        &self.decided
    }

    /// Decided command ids in slot order (flattens batches).
    pub fn decided_ids(&self) -> Vec<u64> {
        self.decided
            .values()
            .flat_map(|(b, _)| b.commands().iter().map(|c| c.id))
            .collect()
    }

    /// True iff this node currently believes it leads.
    pub fn is_leader(&self) -> bool {
        self.leading.is_some()
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    fn start_campaign(&mut self, ctx: &mut Ctx<PaxosMsg>) {
        // Next ballot owned by this node above everything seen.
        let round = self.seen_ballot / self.n as u64 + 1;
        let ballot = round * self.n as u64 + self.id as u64;
        self.campaigning = Some(ballot);
        self.promises = VoteSet::new();
        self.campaign_accepted.clear();
        self.seen_ballot = ballot;
        // Self-promise.
        self.handle_prepare_locally(ballot);
        self.promises.add(self.id);
        for (slot, e) in &self.accepted {
            self.campaign_accepted.insert(*slot, e.clone());
        }
        ctx.broadcast(PaxosMsg::Prepare { ballot });
    }

    /// Follows a live `ballot` seen in a prepare, accept or heartbeat:
    /// remember it, count it as leadership activity, and step down if we
    /// led under a lower one. A live campaign counts too: without that,
    /// every promiser's own election timer would fire during the
    /// campaign and start a duel.
    fn follow(&mut self, ballot: u64) {
        self.seen_ballot = self.seen_ballot.max(ballot);
        self.heard_from_leader = true;
        if self.leading.is_some_and(|b| b < ballot) {
            self.leading = None;
        }
    }

    fn handle_prepare_locally(&mut self, ballot: u64) {
        if ballot > self.promised {
            self.promised = ballot;
        }
    }

    fn become_leader(&mut self, ballot: u64, ctx: &mut Ctx<PaxosMsg>) {
        prever_obs::log!(Info, "node {} leads with ballot {ballot}", self.id);
        prever_obs::counter!("paxos.leader_elections").inc();
        self.campaigning = None;
        self.leading = Some(ballot);
        // Re-propose every accepted-but-undecided value we learned.
        let mut max_slot = self.decided.keys().next_back().copied().map(|s| s + 1).unwrap_or(0);
        let to_repropose: Vec<(u64, Batch)> = self
            .campaign_accepted
            .iter()
            .filter(|(slot, _)| !self.decided.contains_key(*slot))
            .map(|(slot, e)| (*slot, e.batch.clone()))
            .collect();
        for (slot, _) in &to_repropose {
            max_slot = max_slot.max(slot + 1);
        }
        self.next_slot = max_slot;
        for (slot, batch) in to_repropose {
            self.propose_at(slot, batch, ctx);
        }
        // Propose the backlog (retained until decided), chunked by the
        // batch policy; `force` skips the fill delay so inherited work
        // ships immediately.
        for command in self.backlog.clone() {
            self.enqueue(command, ctx.now());
        }
        self.flush(ctx, true);
        ctx.set_timer(HEARTBEAT_EVERY, TIMER_HEARTBEAT);
    }

    /// Queues a command toward the next proposed batch (leader side).
    fn enqueue(&mut self, command: Command, now: u64) {
        if self.already_known(&command) || self.accum.iter().any(|(c, _)| c.id == command.id) {
            return;
        }
        if prever_obs::trace::active() {
            prever_obs::trace::event(self.id as u64, now, command.trace, "queue", command.id);
        }
        self.accum.push_back((command, now));
    }

    /// Cuts and proposes batches from the accumulator under
    /// [`BatchConfig::cut`], subject to the in-flight `window`.
    fn flush(&mut self, ctx: &mut Ctx<PaxosMsg>, force: bool) {
        if self.leading.is_none() {
            return;
        }
        let now = ctx.now();
        while self.proposing.len() < self.cfg.window {
            let Some(drained) = self.cfg.cut(&mut self.accum, now, force) else { break };
            let oldest = drained[0].1;
            let mut commands: Vec<Command> = drained.into_iter().map(|(c, _)| c).collect();
            // Re-filter: a command may have been decided (via another
            // leader's Decide) since it was queued.
            commands.retain(|c| !self.already_known(c));
            if commands.is_empty() {
                continue;
            }
            prever_obs::histogram!("consensus.batch.size").record(commands.len() as u64);
            prever_obs::histogram!("consensus.batch.fill_delay").record(now.saturating_sub(oldest));
            let slot = self.next_slot;
            self.next_slot += 1;
            let batch = Batch::new(commands);
            batch.stamp(self.id, now, None, "batch-cut", slot);
            self.propose_at(slot, batch, ctx);
        }
    }

    /// Earliest virtual time a queued command's fill delay expires, if a
    /// batch timer is needed at all.
    fn next_batch_deadline(&self) -> Option<u64> {
        self.leading?;
        self.cfg.deadline(&self.accum, false)
    }

    fn arm_batch_timer(&self, ctx: &mut Ctx<PaxosMsg>) {
        if let Some(deadline) = self.next_batch_deadline() {
            let due = deadline.max(ctx.now() + 1);
            ctx.set_timer(due - ctx.now(), TIMER_BATCH);
        }
    }

    fn propose_at(&mut self, slot: u64, batch: Batch, ctx: &mut Ctx<PaxosMsg>) {
        let ballot = self.leading.expect("propose_at requires leadership");
        self.proposing.insert(slot, batch.clone());
        let mut votes = VoteSet::new();
        votes.add(self.id); // self-accept below
        self.votes.insert(slot, votes);
        self.accepted.insert(slot, AcceptedEntry { ballot, batch: batch.clone() });
        ctx.broadcast(PaxosMsg::Accept { ballot, slot, batch });
    }

    fn decide(&mut self, slot: u64, batch: Batch, ctx: &mut Ctx<PaxosMsg>) {
        if self.decided.contains_key(&slot) {
            return;
        }
        prever_obs::counter!("paxos.decided").inc();
        self.backlog.retain(|c| !batch.contains_id(c.id));
        self.accum.retain(|(c, _)| !batch.contains_id(c.id));
        batch.stamp(self.id, ctx.now(), Some("batch-cut"), "commit-quorum", slot);
        batch.stamp(self.id, ctx.now(), Some("commit-quorum"), "exec", slot);
        for command in batch.commands() {
            self.decided_set.insert(command.id);
        }
        self.decided.insert(slot, (batch, ctx.now()));
        self.votes.remove(&slot);
        self.proposing.remove(&slot);
        // A decision frees a pipeline window slot.
        self.flush(ctx, false);
    }

    /// True iff the command is already decided or being proposed.
    fn already_known(&self, command: &Command) -> bool {
        self.decided_set.contains(&command.id)
            || self.proposing.values().any(|b| b.contains_id(command.id))
    }
}

impl Actor for PaxosNode {
    type Msg = PaxosMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PaxosMsg>) {
        // Leader election is purely timeout-driven: every node arms a
        // staggered election timer, and the first to fire without having
        // heard from a leader (or promised to a campaigner) campaigns.
        // Node 0 normally wins only because its timer fires first — if
        // it is down at start, node 1's timer elects node 1, and so on.
        ctx.set_timer(ELECTION_BASE + (self.id as u64) * ELECTION_STAGGER, TIMER_LEADER_TIMEOUT);
    }

    fn kind(&self, msg: &PaxosMsg) -> &'static str {
        msg.kind()
    }

    fn on_message(&mut self, from: NodeId, msg: PaxosMsg, ctx: &mut Ctx<PaxosMsg>) {
        match msg {
            PaxosMsg::ClientRequest(batch) => {
                if self.leading.is_some() {
                    for command in batch.commands() {
                        self.enqueue(command.clone(), ctx.now());
                    }
                    self.flush(ctx, false);
                    self.arm_batch_timer(ctx);
                } else {
                    // Retain until decided (the leader may crash with the
                    // forwarded copy), and forward to the believed leader.
                    for command in batch.commands() {
                        if self.already_known(command) {
                            continue;
                        }
                        if !self.backlog.iter().any(|c| c.id == command.id) {
                            self.backlog.push(command.clone());
                        }
                    }
                    let believed = (self.seen_ballot % self.n as u64) as NodeId;
                    if believed != self.id && self.seen_ballot > 0 {
                        ctx.send(believed, PaxosMsg::ClientRequest(batch));
                    }
                }
            }
            PaxosMsg::Prepare { ballot } => {
                if ballot > self.promised {
                    self.promised = ballot;
                    self.follow(ballot);
                    let accepted = self
                        .accepted
                        .iter()
                        .map(|(slot, e)| (*slot, e.ballot, e.batch.clone()))
                        .collect();
                    ctx.send(from, PaxosMsg::Promise { ballot, accepted });
                }
            }
            PaxosMsg::Promise { ballot, accepted } => {
                if self.campaigning != Some(ballot) {
                    return;
                }
                for (slot, b, batch) in accepted {
                    let replace = self
                        .campaign_accepted
                        .get(&slot)
                        .is_none_or(|e| e.ballot < b);
                    if replace {
                        self.campaign_accepted.insert(slot, AcceptedEntry { ballot: b, batch });
                    }
                }
                if self.promises.add(from) && self.promises.len() >= self.majority() {
                    self.become_leader(ballot, ctx);
                }
            }
            PaxosMsg::Accept { ballot, slot, batch } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.follow(ballot);
                    self.accepted.insert(slot, AcceptedEntry { ballot, batch });
                    ctx.send(from, PaxosMsg::Accepted { ballot, slot });
                }
            }
            PaxosMsg::Accepted { ballot, slot } => {
                if self.leading != Some(ballot) {
                    return;
                }
                let Some(votes) = self.votes.get_mut(&slot) else {
                    return;
                };
                votes.add(from);
                if votes.len() >= self.majority() {
                    if let Some(batch) = self.proposing.get(&slot).cloned() {
                        ctx.broadcast(PaxosMsg::Decide { slot, batch: batch.clone() });
                        self.decide(slot, batch, ctx);
                    }
                }
            }
            PaxosMsg::Decide { slot, batch } => {
                self.heard_from_leader = true;
                self.decide(slot, batch, ctx);
            }
            PaxosMsg::Heartbeat { ballot, decided_up_to } => {
                if ballot >= self.seen_ballot {
                    self.follow(ballot);
                    if self.leading.is_none() {
                        let leader = (ballot % self.n as u64) as NodeId;
                        // Re-forward undecided backlog to the live
                        // leader (kept locally until a Decide arrives).
                        let undecided: Vec<Command> = self
                            .backlog
                            .iter()
                            .filter(|c| !self.already_known(c))
                            .cloned()
                            .collect();
                        if !undecided.is_empty() {
                            ctx.send(leader, PaxosMsg::ClientRequest(Batch::new(undecided)));
                        }
                        // Ask for decisions lost to the network.
                        let missing: Vec<u64> = (0..decided_up_to)
                            .filter(|s| !self.decided.contains_key(s))
                            .take(64)
                            .collect();
                        if !missing.is_empty() {
                            ctx.send(leader, PaxosMsg::LearnRequest { missing });
                        }
                    }
                }
            }
            PaxosMsg::LearnRequest { missing } => {
                for slot in missing {
                    if let Some((batch, _)) = self.decided.get(&slot).cloned() {
                        ctx.send(from, PaxosMsg::Decide { slot, batch });
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<PaxosMsg>) {
        match timer {
            TIMER_HEARTBEAT => {
                if let Some(ballot) = self.leading {
                    let decided_up_to =
                        self.decided.keys().next_back().map(|s| s + 1).unwrap_or(0);
                    ctx.broadcast(PaxosMsg::Heartbeat { ballot, decided_up_to });
                    // Retransmit undecided proposals: with a lossy
                    // network, dropped Accept/Accepted messages would
                    // otherwise stall their slots forever. Acceptors
                    // treat re-Accepts idempotently.
                    for (slot, batch) in self.proposing.clone() {
                        ctx.broadcast(PaxosMsg::Accept { ballot, slot, batch });
                    }
                    ctx.set_timer(HEARTBEAT_EVERY, TIMER_HEARTBEAT);
                }
            }
            TIMER_LEADER_TIMEOUT => {
                let am_leader = self.leading.is_some();
                // A stalled campaign (no majority reachable) is restarted
                // with a fresh, higher ballot rather than waited on.
                if !am_leader && !self.heard_from_leader {
                    self.start_campaign(ctx);
                }
                self.heard_from_leader = false;
                // Stagger re-arm by id to avoid dueling proposers.
                ctx.set_timer(
                    LEADER_TIMEOUT + (self.id as u64) * ELECTION_STAGGER,
                    TIMER_LEADER_TIMEOUT,
                );
            }
            TIMER_BATCH => {
                self.flush(ctx, false);
                self.arm_batch_timer(ctx);
            }
            _ => {}
        }
    }
}

/// Builds an `n`-node Paxos cluster.
pub fn cluster(n: usize) -> Vec<PaxosNode> {
    (0..n).map(|id| PaxosNode::new(id, n)).collect()
}

/// Builds an `n`-node Paxos cluster with a batching policy.
pub fn cluster_batched(n: usize, cfg: BatchConfig) -> Vec<PaxosNode> {
    (0..n).map(|id| PaxosNode::with_batching(id, n, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prever_sim::{NetConfig, Simulation};

    fn run_cluster(
        n: usize,
        commands: usize,
        seed: u64,
        f: impl FnOnce(&mut Simulation<PaxosNode>),
    ) -> Simulation<PaxosNode> {
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), seed);
        // Let leadership settle.
        sim.run_until(50_000);
        for i in 0..commands {
            let target = i % n;
            sim.inject(
                target,
                target,
                PaxosMsg::request(Command::new(i as u64, format!("cmd-{i}"))),
                sim.now() + 1 + i as u64 * 100,
            );
        }
        f(&mut sim);
        sim
    }

    /// A node's decided batches by slot, without its decision times
    /// (which differ between nodes).
    fn batches(node: &PaxosNode) -> Vec<(u64, Batch)> {
        node.decided().iter().map(|(slot, (batch, _))| (*slot, batch.clone())).collect()
    }

    fn all_decided(sim: &Simulation<PaxosNode>, n_cmds: usize, live: &[usize]) {
        // Every live node decides the same log covering all commands.
        let reference = batches(sim.node(live[0]));
        let mut seen = sim.node(live[0]).decided_ids();
        assert!(seen.len() >= n_cmds, "only {} of {} decided", seen.len(), n_cmds);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), n_cmds, "some commands missing or duplicated");
        for &id in live {
            assert_eq!(batches(sim.node(id)), reference, "node {id} diverged");
        }
    }

    #[test]
    fn decides_commands_on_clean_run() {
        let n = 5;
        let sim_done = {
            let mut sim = run_cluster(n, 20, 1, |sim| {
                let ok = sim.run_until_pred(2_000_000, |nodes| {
                    nodes.iter().all(|nd| nd.decided_ids().len() >= 20)
                });
                assert!(ok, "not all nodes decided in time");
            });
            sim.run_until(sim.now() + 10_000);
            sim
        };
        all_decided(&sim_done, 20, &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn nodes_agree_on_order() {
        let mut sim = run_cluster(3, 30, 7, |sim| {
            assert!(sim.run_until_pred(2_000_000, |nodes| {
                nodes.iter().all(|nd| nd.decided_ids().len() >= 30)
            }));
        });
        sim.run_until(sim.now() + 10_000);
        let a = sim.node(0).decided_ids();
        let b = sim.node(1).decided_ids();
        let c = sim.node(2).decided_ids();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn survives_leader_crash() {
        let n = 5;
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 3);
        sim.run_until(50_000);
        // First batch through the initial leader.
        for i in 0..5u64 {
            sim.inject(1, 1, PaxosMsg::request(Command::new(i, "pre")), sim.now() + 1 + i);
        }
        assert!(sim.run_until_pred(1_000_000, |nodes| nodes[1].decided_ids().len() >= 5));
        // Find and crash the leader.
        let leader = (0..n).find(|&i| sim.node(i).is_leader()).expect("a leader exists");
        sim.crash(leader);
        // New commands must still get decided by the survivors.
        let submit_to = (leader + 1) % n;
        for i in 5..10u64 {
            sim.inject(
                submit_to,
                submit_to,
                PaxosMsg::request(Command::new(i, "post")),
                sim.now() + 1000 + i,
            );
        }
        let ok = sim.run_until_pred(5_000_000, move |nodes| {
            (0..n).filter(|&i| i != leader).all(|i| {
                let ids: std::collections::HashSet<u64> =
                    nodes[i].decided_ids().into_iter().collect();
                (0..10).all(|c| ids.contains(&c))
            })
        });
        assert!(ok, "survivors failed to decide post-crash commands");
        // Safety: pre-crash decisions preserved identically.
        let live: Vec<usize> = (0..n).filter(|&i| i != leader).collect();
        let reference = batches(sim.node(live[0]));
        for &i in &live {
            assert_eq!(batches(sim.node(i)), reference);
        }
    }

    #[test]
    fn elects_a_leader_when_node_zero_is_down_from_the_start() {
        // The old code bootstrapped leadership unconditionally at node 0;
        // with node 0 dead before its first event, the cluster would
        // have stayed leaderless forever. Timeout-driven election must
        // promote a survivor instead.
        let n = 5;
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 17);
        sim.crash(0);
        for i in 0..5u64 {
            sim.inject(
                2,
                2,
                PaxosMsg::request(Command::new(i, format!("cmd-{i}"))),
                1_000 + i * 100,
            );
        }
        let ok = sim.run_until_pred(5_000_000, |nodes| {
            (1..5).all(|i| nodes[i].decided_ids().len() >= 5)
        });
        assert!(ok, "survivors never decided without node 0");
        assert!(
            (1..n).any(|i| sim.node(i).is_leader()),
            "a survivor must hold leadership"
        );
        let reference = batches(sim.node(1));
        for i in 2..n {
            assert_eq!(batches(sim.node(i)), reference, "node {i} diverged");
        }
    }

    #[test]
    fn minority_partition_makes_no_progress() {
        let n = 5;
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 9);
        sim.run_until(50_000);
        // Partition nodes {0,1} away from {2,3,4}.
        sim.set_partition(vec![0, 0, 1, 1, 1]);
        // Submit to the minority side (where the initial leader 0 lives).
        for i in 0..3u64 {
            sim.inject(0, 0, PaxosMsg::request(Command::new(i, "x")), sim.now() + 1 + i);
        }
        sim.run_until(sim.now() + 400_000);
        // Minority cannot decide new commands (node 1 sees nothing new).
        assert_eq!(sim.node(1).decided_ids().len(), 0);
        // Majority side elects its own leader and can process commands.
        for i in 10..13u64 {
            sim.inject(2, 2, PaxosMsg::request(Command::new(i, "y")), sim.now() + 1 + i);
        }
        let ok = sim.run_until_pred(5_000_000, |nodes| nodes[3].decided_ids().len() >= 3);
        assert!(ok, "majority partition failed to decide");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut sim = run_cluster(3, 10, seed, |sim| {
                sim.run_until(3_000_000);
            });
            sim.run_until(3_100_000);
            sim.node(0)
                .decided()
                .iter()
                .flat_map(|(slot, (b, at))| b.commands().iter().map(move |c| (*slot, c.id, *at)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn batched_leader_decides_all_with_fewer_slots() {
        let n = 5;
        let cfg = BatchConfig::new(8, 10_000, 4);
        let mut sim = Simulation::new(cluster_batched(n, cfg), NetConfig::default(), 11);
        sim.run_until(50_000);
        for i in 0..64u64 {
            let target = (i % n as u64) as usize;
            sim.inject(
                target,
                target,
                PaxosMsg::request(Command::new(i, format!("b-{i}"))),
                sim.now() + 1 + i * 50,
            );
        }
        let ok = sim.run_until_pred(5_000_000, |nodes| {
            nodes.iter().all(|nd| nd.decided_ids().len() >= 64)
        });
        assert!(ok, "batched cluster failed to decide all commands");
        sim.run_until(sim.now() + 50_000);
        let mut ids = sim.node(0).decided_ids();
        let slots = sim.node(0).decided().len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 64, "commands lost or duplicated under batching");
        assert!(slots < 64, "batching should use fewer slots than commands ({slots})");
        assert!(
            sim.node(0).decided().values().any(|(b, _)| b.len() > 1),
            "expected at least one multi-command batch"
        );
        let reference = batches(sim.node(0));
        for i in 1..n {
            assert_eq!(batches(sim.node(i)), reference, "node {i} diverged");
        }
    }
}
