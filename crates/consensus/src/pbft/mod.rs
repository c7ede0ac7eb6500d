//! Practical Byzantine Fault Tolerance (Castro & Liskov, OSDI '99).
//!
//! The Byzantine-fault-tolerant substrate for PReVer's federated
//! deployments, where data managers are *mutually distrustful* (paper
//! §1, RC4): the permissioned-blockchain systems the paper builds on
//! (Hyperledger Fabric's ordering service, SharPer, Qanaat) all reduce
//! to PBFT-family consensus. Implemented:
//!
//! * the three-phase normal path (pre-prepare → prepare → commit) with
//!   `2f + 1` quorums over `n = 3f + 1` replicas;
//! * view changes carrying prepared certificates, so a faulty primary is
//!   replaced without losing prepared requests;
//! * in-order execution with per-command decision timestamps;
//! * pluggable [`Byzantine`] behaviors (silent replica, equivocating
//!   primary, stale-message replayer) for fault-injection tests;
//! * a **state-transfer protocol** ([`PbftMsg::StateRequest`] /
//!   [`PbftMsg::StateResponse`]): a restarted or lagging replica fetches
//!   the executed suffix from its peers, applies whatever `f + 1`
//!   responders agree on, and rejoins at the quorum's view;
//! * **durable recovery** through the ledger journal
//!   ([`crate::durable::DurableLog`], owned by the replica's host):
//!   executed batches and prepare-vote bindings are persisted, so a
//!   replica rebuilt after a crash-with-state-loss neither forgets its
//!   history nor accidentally equivocates on votes it cast before dying;
//! * **stable checkpoints**: 2f + 1 matching state-digest votes every
//!   [`CHECKPOINT_INTERVAL`] executions truncate the in-memory log.
//!
//! Remaining simplifications, chosen because they do not affect the
//! throughput/latency *shape* E3 measures: no MAC/signature
//! authentication (the simulator delivers messages unforged; the crypto
//! exists in `prever-crypto` and is charged in the E2 bench), and
//! new-view messages are trusted structurally rather than re-verified.
//!
//! The protocol state machine is [`PbftCore`], which is sans-IO (inputs
//! in, `(destination, message)` pairs out); [`PbftNode`] is its one
//! simulator host, embedded by every actor that runs PBFT.
//! The module splits along the protocol's seams (DESIGN.md §11 has the
//! map): this file holds the messages, the core's state, request intake,
//! batching, the three-phase path and execution; `view_change.rs` the
//! ViewChange/NewView exchange and the view stash; `recovery.rs`
//! checkpoints, state transfer and history installation; `node.rs` the
//! simulator host, its timers and the cluster builders.

mod node;
mod recovery;
mod view_change;

pub(crate) use node::TIMER_TICK;
pub use node::{
    cluster, cluster_batched, cluster_with, Executed, PbftNode, FIRST_FREE_TIMER, VIEW_TIMEOUT,
};

use crate::{Batch, BatchConfig, Command, Decided, IdSet};
use prever_crypto::Digest;
use prever_sim::{NodeId, VoteSet};
use std::collections::{BTreeMap, VecDeque};

/// PBFT protocol messages.
///
/// Since DESIGN.md §11 the unit of agreement is a [`Batch`]: requests,
/// pre-prepares, view-change certificates, and state transfer all carry
/// whole batches (cheap `Arc` clones), while prepare/commit votes carry
/// only the constant-size Merkle batch digest.
#[derive(Clone, Debug)]
pub enum PbftMsg {
    /// Client request batch (injected or relayed between replicas).
    Request(Batch),
    /// Phase 1: the primary assigns `seq` to `batch` in `view`.
    PrePrepare {
        /// View.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Proposed batch.
        batch: Batch,
    },
    /// Phase 2 vote.
    Prepare {
        /// View.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Digest of the pre-prepared command.
        digest: Digest,
    },
    /// Phase 3 vote.
    Commit {
        /// View.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Digest.
        digest: Digest,
    },
    /// View-change vote with prepared certificates.
    ViewChange {
        /// Proposed new view.
        new_view: u64,
        /// Prepared (seq, view, batch) triples above the last execution.
        /// Carrying full batch payloads (not just digests) is what lets
        /// a NewView replay a mid-flight batch intact.
        prepared: Vec<(u64, u64, Batch)>,
    },
    /// New primary's installation message.
    NewView {
        /// The installed view.
        new_view: u64,
        /// Re-proposed (seq, batch) pairs.
        proposals: Vec<(u64, Batch)>,
    },
    /// Periodic checkpoint vote: "my state after executing `seq`
    /// commands has this digest". `2f + 1` matching votes make the
    /// checkpoint *stable* and let replicas truncate their logs.
    Checkpoint {
        /// Executed sequence number the digest covers.
        seq: u64,
        /// Chained digest of the execution history up to `seq`.
        state_digest: Digest,
    },
    /// State-transfer request from a lagging or restarted replica:
    /// "I have executed through `have`; send me what comes after."
    StateRequest {
        /// Highest sequence number the requester has executed.
        have: u64,
    },
    /// State-transfer response: the responder's executed suffix.
    ///
    /// The requester applies a command once `f + 1` responders agree on
    /// it, so no single faulty responder can feed it a fake history.
    StateResponse {
        /// The responder's current view.
        view: u64,
        /// Executed `(seq, batch)` pairs above the requester's `have`
        /// (batch sequence numbers).
        entries: Vec<(u64, Batch)>,
    },
}

/// Executed-command count between checkpoint votes.
pub const CHECKPOINT_INTERVAL: u64 = 16;

/// Cap on the [`Byzantine::StaleReplayer`] replay stash.
const REPLAY_STASH_CAP: usize = 12;

/// Number of distinct [`PbftMsg`] kinds (stats array arity).
const N_KINDS: usize = 9;

/// Message-kind names, indexed by [`PbftMsg::kind_idx`]: the one place a
/// kind is named (step records, [`MsgStats`], traces).
const KIND_NAMES: [&str; N_KINDS] = [
    "request",
    "pre_prepare",
    "prepare",
    "commit",
    "view_change",
    "new_view",
    "checkpoint",
    "state_request",
    "state_response",
];

impl PbftMsg {
    /// Wraps one client command as a request message (the form test
    /// drivers, benches, and the simulator inject).
    pub fn request(command: Command) -> PbftMsg {
        PbftMsg::Request(Batch::single(command))
    }

    /// Compact kind index into the per-type stats arrays.
    fn kind_idx(&self) -> usize {
        match self {
            PbftMsg::Request(_) => 0,
            PbftMsg::PrePrepare { .. } => 1,
            PbftMsg::Prepare { .. } => 2,
            PbftMsg::Commit { .. } => 3,
            PbftMsg::ViewChange { .. } => 4,
            PbftMsg::NewView { .. } => 5,
            PbftMsg::Checkpoint { .. } => 6,
            PbftMsg::StateRequest { .. } => 7,
            PbftMsg::StateResponse { .. } => 8,
        }
    }

    /// The message-kind name (`"pre_prepare"`, `"commit"`, …).
    pub fn kind(&self) -> &'static str {
        KIND_NAMES[self.kind_idx()]
    }

    /// `(view, seq)` of the messages bound to one slot of one view: a
    /// pre-prepare, a prepare or a commit.
    fn slot_view(&self) -> Option<(u64, u64)> {
        match self {
            PbftMsg::PrePrepare { view, seq, .. }
            | PbftMsg::Prepare { view, seq, .. }
            | PbftMsg::Commit { view, seq, .. } => Some((*view, *seq)),
            _ => None,
        }
    }
}

/// Per-replica message counts by type, so tests can assert exact counts
/// (the simulator's step table counts deliveries by the same kind names
/// across a whole run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsgStats {
    sent: [u64; N_KINDS],
    recv: [u64; N_KINDS],
}

impl MsgStats {
    fn idx(kind: &str) -> usize {
        KIND_NAMES
            .iter()
            .position(|k| *k == kind)
            .unwrap_or_else(|| panic!("unknown PBFT message kind `{kind}`"))
    }

    /// Messages of `kind` sent by this replica.
    pub fn sent(&self, kind: &str) -> u64 {
        self.sent[Self::idx(kind)]
    }

    /// Messages of `kind` received by this replica (client injections,
    /// which arrive with `from == self`, are not counted).
    pub fn recv(&self, kind: &str) -> u64 {
        self.recv[Self::idx(kind)]
    }

    /// Total messages sent.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total messages received.
    pub fn total_recv(&self) -> u64 {
        self.recv.iter().sum()
    }
}

/// Byzantine behavior injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Byzantine {
    /// Honest replica.
    #[default]
    Honest,
    /// Crashes silently: emits no messages (but the process looks alive).
    Silent,
    /// As primary, sends conflicting pre-prepares to different halves of
    /// the replica set.
    EquivocatingPrimary,
    /// Stashes copies of its own outgoing protocol messages and replays
    /// the stale batch on every tick — old-view votes, duplicate
    /// prepares, and long-executed pre-prepares keep arriving forever.
    StaleReplayer,
}

/// The command used to fill view-change gaps.
pub const NOOP_ID: u64 = u64::MAX;

/// A prepared certificate carried in view-change messages:
/// `(sequence, view, batch)`.
pub type PreparedCert = (u64, u64, Batch);

fn noop() -> Batch {
    Batch::single(Command::new(NOOP_ID, Vec::new()))
}

/// Extends a chained execution-history digest by one command.
///
/// This is *the* state digest PBFT checkpoints, state transfer, and the
/// chaos harness all agree on: `D_i = H(D_{i-1} ‖ D(cmd_i))` starting
/// from [`Digest::ZERO`].
pub fn chain_digest(prev: Digest, command: &Command) -> Digest {
    prever_crypto::sha256::sha256_concat(&[prev.as_bytes(), command.digest().as_bytes()])
}

/// Records `(view, value)` for `seq` unless `map` holds a higher view
/// there; true iff it did. Every per-sequence vote record (durable
/// bindings, prepared certificates) keeps the highest view.
fn keep_highest_view<T>(
    map: &mut BTreeMap<u64, (u64, T)>,
    seq: u64,
    view: u64,
    value: T,
) -> bool {
    let keep = map.get(&seq).is_none_or(|(v, _)| *v <= view);
    if keep {
        map.insert(seq, (view, value));
    }
    keep
}

#[derive(Clone, Debug, Default)]
struct Slot {
    view: u64,
    digest: Option<Digest>,
    batch: Option<Batch>,
    prepares: VoteSet,
    commits: VoteSet,
    /// Votes that arrived before the pre-prepare fixed this slot's
    /// digest, held with the digest they voted for. Counting them
    /// blindly would let an equivocating primary's conflicting votes
    /// inflate the tally for whichever command arrives here later;
    /// only matching votes are drained in once the digest is known.
    early_prepares: Vec<(NodeId, Digest)>,
    early_commits: Vec<(NodeId, Digest)>,
    sent_commit: bool,
    committed: bool,
    executed: bool,
}

impl Slot {
    /// Fixes the slot's digest and counts buffered votes that match it.
    fn fix_digest(&mut self, view: u64, digest: Digest, batch: Batch) {
        if self.digest.is_some_and(|d| d != digest) {
            // The slot is being re-resolved to a different batch (a
            // view-change merge). Every recorded vote and flag refers
            // to the OLD digest — carrying them over would let the new
            // batch execute on the strength of a quorum it never had.
            self.prepares = VoteSet::new();
            self.commits = VoteSet::new();
            self.sent_commit = false;
            self.committed = false;
        }
        self.view = view;
        self.digest = Some(digest);
        self.batch = Some(batch);
        for (voter, d) in std::mem::take(&mut self.early_prepares) {
            if d == digest {
                self.prepares.add(voter);
            }
        }
        for (voter, d) in std::mem::take(&mut self.early_commits) {
            if d == digest {
                self.commits.add(voter);
            }
        }
    }
}

/// The executed history one command at a time ([`PbftCore::executed`]):
/// a view over the executed batches, which hold the only copy. Slots
/// are dense from 1 across batches.
#[derive(Clone, Copy, Debug)]
pub struct ExecutedView<'a> {
    batches: &'a [(u64, Batch, u64)],
    len: usize,
}

impl<'a> ExecutedView<'a> {
    /// Number of executed commands, no-ops included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff nothing has executed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The executed commands in order, each with its slot and the time
    /// its batch was decided.
    pub fn iter(&self) -> impl Iterator<Item = Decided> + 'a {
        self.batches
            .iter()
            .flat_map(|(_, batch, at)| batch.commands().iter().map(move |c| (c, *at)))
            .zip(1..)
            .map(|((command, at), slot)| Decided { slot, command: command.clone(), at })
    }
}

/// The sans-IO PBFT state machine for one replica within a member set.
#[derive(Clone, Debug)]
pub struct PbftCore {
    id: NodeId,
    /// Sorted member ids; `members[view % m]` is the view's primary.
    members: Vec<NodeId>,
    view: u64,
    /// Next sequence number to assign (primary only).
    next_seq: u64,
    /// Highest executed sequence number (0 = nothing; seqs start at 1).
    last_exec: u64,
    log: BTreeMap<u64, Slot>,
    /// The execution history, one entry per batch, keyed by batch
    /// sequence number (dense from 1): the unit of durable exec records,
    /// state transfer and view-change committed entries, and the only
    /// copy of every executed command ([`Self::executed`] is a view).
    executed_batches: Vec<(u64, Batch, u64)>,
    /// Commands in `executed_batches`, no-ops included: the last
    /// executed slot (slots are the dense global command index, from 1).
    slots: u64,
    executed_ids: IdSet,
    /// No-op commands in `executed_batches`.
    noops: usize,
    /// Requests awaiting execution (liveness tracking at backups).
    pending: VecDeque<(Command, u64)>,
    /// Batching/pipelining knobs (default = unbatched).
    cfg: BatchConfig,
    /// Primary-side proposal accumulator: commands waiting to be cut
    /// into the next batch, with arrival times.
    accum: VecDeque<(Command, u64)>,
    /// Relay accumulator: newly pending client commands waiting to be
    /// re-broadcast to the other replicas (the PBFT liveness relay),
    /// batched under the same fill policy as proposals.
    relay_accum: VecDeque<(Command, u64)>,
    /// Set by [`Self::on_urgent_request`]: suspends the fill-delay gate
    /// of the proposal cut at the primary and of the relay cut at a
    /// backup, so partial batches cut immediately, until those queues
    /// drain. Latency-critical commands must not wait out `max_delay`.
    urgent: bool,
    /// View-change votes: new_view → voters and their prepared sets.
    vc_votes: BTreeMap<u64, BTreeMap<NodeId, Vec<PreparedCert>>>,
    /// Last time we re-sent an old-view vote to a laggard, keyed by
    /// (view, peer). The help reply is itself a ViewChange frame, so
    /// two replicas both past that view would answer each other's
    /// answers forever — and duplicating links turn that ping-pong
    /// into an exponential storm. One reply per timeout window is
    /// enough: a genuinely stuck laggard re-broadcasts its demand on
    /// every view-change retransmit tick.
    vc_helped: BTreeMap<(u64, NodeId), u64>,
    /// Set while this replica has abandoned `view` and waits for NewView.
    view_changing: bool,
    /// Chained digest over the executed history (the checkpoint state).
    running_state: Digest,
    /// Checkpoint votes: (seq, digest) → distinct voters.
    checkpoint_votes: BTreeMap<(u64, Digest), VoteSet>,
    /// Highest stable (2f+1-certified) checkpoint.
    stable_seq: u64,
    /// Per-type message send/receive counts.
    stats: MsgStats,
    byz: Byzantine,
    /// Highest sequence number seen in any peer message — evidence of
    /// how far the cluster has advanced past us.
    max_seen_seq: u64,
    /// Virtual time of the last local execution or sync progress.
    last_progress_at: u64,
    /// Set while a state transfer is in flight.
    syncing: bool,
    /// When the in-flight state transfer was requested (for retries).
    last_sync_at: u64,
    /// State-transfer responses: responder → (view, batch seq → batch).
    sync_responses: BTreeMap<NodeId, (u64, BTreeMap<u64, Batch>)>,
    /// Durable vote bindings recovered from (or destined for) the disk
    /// log: seq → (view, digest) of the prepare vote we cast.
    durable_bindings: BTreeMap<u64, (u64, Digest)>,
    /// Bindings created since the last [`Self::take_bindings`] drain.
    new_bindings: Vec<(u64, u64, Digest)>,
    /// Prepared certificates reached since the last
    /// [`Self::take_prepared`] drain.
    new_prepared: Vec<PreparedCert>,
    /// Every prepared certificate this replica holds (highest view per
    /// seq), retained across view changes — `adopt_view` resets live
    /// prepare tallies, but the *fact* that a slot once prepared must
    /// survive until the slot executes, or a later view change could
    /// no-op-fill a slot that committed at another replica on the
    /// strength of our commit vote. Re-seeded from disk on recovery.
    certs: BTreeMap<u64, (u64, Batch)>,
    /// Whether to record bindings at all (off unless the owner persists).
    record_bindings: bool,
    /// Commands applied via state transfer rather than the commit path.
    synced: u64,
    /// [`Byzantine::StaleReplayer`] stash of past outgoing messages.
    replay_stash: Vec<PbftMsg>,
    /// True while re-broadcasting the stash (suppresses re-stashing).
    replaying: bool,
    /// Protocol messages that arrived for a view this replica has not
    /// adopted yet (either a future view, or the current view while
    /// still awaiting its NewView). Links are not FIFO, so a peer's
    /// prepares routinely overtake the NewView that makes them
    /// countable; dropping them wedges any slot with a bare-quorum
    /// voter set. Replayed by `drain_view_stash` on adoption.
    view_stash: Vec<(NodeId, PbftMsg)>,
    /// True while re-delivering the view stash (suppresses recv stats,
    /// which were already counted on first arrival).
    stash_replay: bool,
    /// Consecutive view changes without local execution progress —
    /// drives the exponential view-timeout backoff so a stuck cluster
    /// grants each successive view a longer window to make progress.
    vc_streak: u32,
    /// Virtual time of the last anti-entropy checkpoint broadcast.
    last_hb_at: u64,
}

/// `(destination, message)` pairs a core step wants sent.
pub type Outbox = Vec<(NodeId, PbftMsg)>;

impl PbftCore {
    /// Creates the core for `id` within `members`.
    pub fn new(id: NodeId, mut members: Vec<NodeId>, byz: Byzantine) -> Self {
        members.sort_unstable();
        assert!(members.contains(&id), "replica must be a member");
        PbftCore {
            id,
            members,
            view: 0,
            next_seq: 0,
            last_exec: 0,
            log: BTreeMap::new(),
            executed_batches: Vec::new(),
            slots: 0,
            executed_ids: IdSet::default(),
            noops: 0,
            pending: VecDeque::new(),
            cfg: BatchConfig::default(),
            accum: VecDeque::new(),
            relay_accum: VecDeque::new(),
            urgent: false,
            vc_votes: BTreeMap::new(),
            vc_helped: BTreeMap::new(),
            view_changing: false,
            running_state: Digest::ZERO,
            checkpoint_votes: BTreeMap::new(),
            stable_seq: 0,
            stats: MsgStats::default(),
            byz,
            max_seen_seq: 0,
            last_progress_at: 0,
            syncing: false,
            last_sync_at: 0,
            sync_responses: BTreeMap::new(),
            durable_bindings: BTreeMap::new(),
            new_bindings: Vec::new(),
            new_prepared: Vec::new(),
            certs: BTreeMap::new(),
            record_bindings: false,
            synced: 0,
            replay_stash: Vec::new(),
            replaying: false,
            view_stash: Vec::new(),
            stash_replay: false,
            vc_streak: 0,
            last_hb_at: 0,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Member count.
    pub fn m(&self) -> usize {
        self.members.len()
    }

    fn f(&self) -> usize {
        (self.m() - 1) / 3
    }

    fn quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// The primary of `view`.
    fn primary_of(&self, view: u64) -> NodeId {
        self.members[(view as usize) % self.m()]
    }

    /// The primary of the current view.
    pub fn primary(&self) -> NodeId {
        self.primary_of(self.view)
    }

    /// True iff this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    /// Executed commands in order: a view over
    /// [`Self::executed_batches`].
    pub fn executed(&self) -> ExecutedView<'_> {
        ExecutedView { batches: &self.executed_batches, len: self.slots as usize }
    }

    /// Executed batches in order: `(batch seq, batch, decided at)`,
    /// dense from sequence 1. An embedder of a [`PbftNode`] learns them
    /// step by step from its [`Executed`] reports; this is for readers
    /// after the fact.
    pub fn executed_batches(&self) -> &[(u64, Batch, u64)] {
        &self.executed_batches
    }

    /// True iff a command with `id` has been executed (O(1); the
    /// sharded completion path calls this per vote, so a linear scan
    /// of the log would be quadratic in workload size).
    pub fn has_executed(&self, id: u64) -> bool {
        self.executed_ids.contains(&id)
    }

    /// Sets the batching/pipelining configuration (normally before the
    /// simulation starts; changing it mid-run only affects future cuts).
    pub fn set_batch_config(&mut self, cfg: BatchConfig) {
        self.cfg = cfg;
    }

    /// Unexecuted batch slots currently in flight: the pipelining depth
    /// the `window` bounds, and the consensus-side backlog the serving
    /// front end uses to size its `retry_after` hint under load.
    pub fn backlog(&self) -> usize {
        self.next_seq.saturating_sub(self.last_exec) as usize
    }

    /// Highest stable checkpoint sequence (0 before the first).
    pub fn stable_seq(&self) -> u64 {
        self.stable_seq
    }

    /// The executed-slot count covered by the highest stable
    /// checkpoint *that this replica has locally executed*: the number
    /// of commands in executed batches with sequence ≤
    /// [`Self::stable_seq`]. Serving-layer caches keyed by slot (the
    /// gateway committed-map) may evict entries below this floor — a
    /// client still retrying a command that old has fallen behind the
    /// whole cluster's checkpoint horizon.
    ///
    /// Counted down from the tail: only the batches above the stable
    /// checkpoint are walked, not the whole history.
    pub fn stable_slot_floor(&self) -> u64 {
        let batches = self.executed_batches.iter().rev();
        let above = batches.take_while(|(seq, _, _)| *seq > self.stable_seq);
        self.slots - above.map(|(_, batch, _)| batch.len() as u64).sum::<u64>()
    }

    /// The executed slot of command `id` (its last, if it executed
    /// twice), if this replica has executed it. Linear scan from the
    /// tail (recent ids are the common case); only used on the rare
    /// resubmission of an id old enough to have been evicted from the
    /// gateway committed-map.
    pub fn slot_of(&self, id: u64) -> Option<u64> {
        let mut start = self.slots;
        self.executed_batches.iter().rev().find_map(|(_, batch, _)| {
            start -= batch.len() as u64;
            let i = batch.commands().iter().rposition(|c| c.id == id)?;
            Some(start + i as u64 + 1)
        })
    }

    /// Current in-memory log size (bounded by checkpoint truncation).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Number of non-noop commands executed.
    pub fn executed_commands(&self) -> usize {
        self.slots as usize - self.noops
    }

    /// Number of *distinct* non-noop command ids executed. A Byzantine
    /// primary can get the same command committed at two different
    /// slots (PBFT dedups duplicate requests at the client, not the
    /// consensus layer), so the raw entry count can overstate workload
    /// progress.
    pub fn distinct_executed_commands(&self) -> usize {
        self.executed_ids.len() - usize::from(self.noops > 0)
    }

    /// Per-type message send/receive counts for this replica.
    pub fn msg_stats(&self) -> &MsgStats {
        &self.stats
    }

    /// Highest executed sequence number (0 = nothing executed yet).
    pub fn last_exec(&self) -> u64 {
        self.last_exec
    }

    /// The chained digest over the executed history (see
    /// [`chain_digest`]).
    pub fn state_digest(&self) -> Digest {
        self.running_state
    }

    /// Number of commands applied via state transfer (vs. the normal
    /// commit path).
    pub fn synced(&self) -> u64 {
        self.synced
    }

    /// One-line internal state summary for chaos-harness debugging.
    pub fn debug_probe(&self) -> String {
        let votes: Vec<String> = self
            .vc_votes
            .iter()
            .map(|(v, m)| {
                let who: Vec<String> = m.keys().map(|k| k.to_string()).collect();
                format!("{v}:[{}]", who.join(","))
            })
            .collect();
        format!(
            "view_changing={} vc_streak={} pending={} max_seen={} vc_votes={{{}}}",
            self.view_changing,
            self.vc_streak,
            self.pending.len(),
            self.max_seen_seq,
            votes.join(" ")
        )
    }

    /// Enables durable vote-binding recording (see
    /// [`Self::take_bindings`]). Off by default so embeddings without a
    /// disk log don't accumulate bindings forever.
    pub fn set_record_bindings(&mut self, on: bool) {
        self.record_bindings = on;
    }

    /// Drains the vote bindings created since the last drain, so the
    /// owner can persist them before this step's votes hit the network.
    pub fn take_bindings(&mut self) -> Vec<(u64, u64, Digest)> {
        std::mem::take(&mut self.new_bindings)
    }

    /// Drains the prepared certificates reached since the last call
    /// (the owner writes them to disk before commit votes leave).
    pub fn take_prepared(&mut self) -> Vec<PreparedCert> {
        std::mem::take(&mut self.new_prepared)
    }

    /// Prepared certificates above `last_exec`: every slot for which
    /// this replica ever observed a `2f + 1` prepare quorum (in any
    /// view) and that has not executed yet — including certificates
    /// replayed from disk after a restart. These are what a view-change
    /// vote carries.
    pub fn prepared_certificates(&self) -> Vec<PreparedCert> {
        self.certs
            .iter()
            .filter(|(seq, _)| **seq > self.last_exec)
            .map(|(seq, (view, batch))| (*seq, *view, batch.clone()))
            .collect()
    }

    /// Remembers that `seq` prepared with `batch` in `view`; queues
    /// the certificate for persistence when recording is on.
    fn remember_cert(&mut self, seq: u64, view: u64, batch: Batch) {
        if keep_highest_view(&mut self.certs, seq, view, batch.clone()) && self.record_bindings {
            self.new_prepared.push((seq, view, batch));
        }
    }

    /// Records the vote binding for `seq` (no-op unless recording is
    /// on). Keeps the highest-view binding per sequence.
    fn bind(&mut self, seq: u64, view: u64, digest: Digest) {
        if !self.record_bindings {
            return;
        }
        if keep_highest_view(&mut self.durable_bindings, seq, view, digest) {
            self.new_bindings.push((seq, view, digest));
        }
    }

    /// True iff a request is pending past `deadline`-aged entries.
    pub fn has_stale_pending(&self, now: u64, timeout: u64) -> bool {
        self.pending
            .front()
            .is_some_and(|(_, since)| now.saturating_sub(*since) > timeout)
    }

    /// Records `n` sends of message kind `kind`.
    fn note_sent(&mut self, kind: usize, n: u64) {
        self.stats.sent[kind] += n;
    }

    /// Counts a received message. Client injections arrive with `from ==
    /// self` by convention and are not network receives, and stash
    /// replays were counted on first arrival; everything else is counted.
    /// NewView re-proposals are processed by recursing into
    /// [`Self::on_message`] and therefore count as received pre-prepares,
    /// which matches the protocol reading (a NewView is a batch of
    /// pre-prepares).
    fn note_recv(&mut self, from: NodeId, msg: &PbftMsg) {
        if from == self.id || self.stash_replay {
            return;
        }
        self.stats.recv[msg.kind_idx()] += 1;
        // Track how far the cluster has advanced past us (lag evidence
        // that triggers state transfer from `on_tick`).
        let seq = match msg {
            PbftMsg::Checkpoint { seq, .. } => Some(*seq),
            m => m.slot_view().map(|(_, seq)| seq),
        };
        if let Some(seq) = seq {
            self.max_seen_seq = self.max_seen_seq.max(seq);
        }
    }

    fn broadcast(&mut self, out: &mut Outbox, msg: PbftMsg) {
        if self.byz == Byzantine::Silent {
            return;
        }
        if self.byz == Byzantine::StaleReplayer
            && !self.replaying
            && self.replay_stash.len() < REPLAY_STASH_CAP
        {
            self.replay_stash.push(msg.clone());
        }
        let kind = msg.kind_idx();
        for &m in &self.members {
            if m != self.id {
                out.push((m, msg.clone()));
            }
        }
        self.note_sent(kind, self.m() as u64 - 1);
    }

    fn send(&mut self, out: &mut Outbox, to: NodeId, msg: PbftMsg) {
        if self.byz == Byzantine::Silent {
            return;
        }
        self.note_sent(msg.kind_idx(), 1);
        out.push((to, msg));
    }

    /// Handles a client request arriving at this replica (client entry
    /// point). The request is queued for relay to every replica so that
    /// all of them track it as pending — the standard PBFT liveness rule
    /// that lets backups accumulate view-change quorums when the primary
    /// is faulty — and, at the primary, queued for proposal; both queues
    /// are then flushed under the batching policy.
    pub fn on_request(&mut self, command: Command, now: u64) -> Outbox {
        let mut out = Outbox::new();
        self.accept_request(command, now, true);
        self.flush(now, &mut out);
        out
    }

    /// Accepts `command` and cuts it through the batching policy
    /// immediately: the fill-delay gate is suspended until the queue
    /// that carries the command toward an ordering drains, so the
    /// command (and everything queued ahead of it) goes out now in a
    /// partial batch instead of waiting out the timer. At the primary
    /// that queue is the proposal accumulator; its relay is only the
    /// liveness copy for the backups and keeps the fill policy. At a
    /// backup it is the relay, the command's path to the primary. The
    /// in-flight window still applies — if the pipeline is full the
    /// entries go the moment a slot frees. For latency-critical
    /// commands (a cross-shard decision blocks every involved shard),
    /// where a partial-batch cut is always the right trade.
    pub fn on_urgent_request(&mut self, command: Command, now: u64) -> Outbox {
        self.urgent = true;
        self.on_request(command, now)
    }

    /// Handles a request batch: a client injection (by convention
    /// `from == self`, relayed to the peers) or a peer's relay (tracked,
    /// not relayed again).
    fn on_request_batch(&mut self, from: NodeId, batch: Batch, now: u64, out: &mut Outbox) {
        let relay = from == self.id;
        for command in batch.commands() {
            self.accept_request(command.clone(), now, relay);
        }
        self.flush(now, out);
    }

    /// Tracks one incoming command. `relay` is true for client
    /// injections (which must be re-broadcast so peers see them
    /// pending); relayed copies are not relayed again.
    fn accept_request(&mut self, command: Command, now: u64, relay: bool) {
        if self.executed_ids.contains(&command.id) {
            return;
        }
        if !self.pending.iter().any(|(c, _)| c.id == command.id) {
            if prever_obs::trace::active() {
                prever_obs::trace::event(self.id as u64, now, command.trace, "queue", command.id);
            }
            self.pending.push_back((command.clone(), now));
            if relay {
                self.relay_accum.push_back((command.clone(), now));
            }
        }
        if self.is_primary() && !self.view_changing {
            self.enqueue_for_proposal(command, now);
        }
    }

    /// True iff command `id` has executed or sits in an unexecuted slot:
    /// proposing it again would order it twice.
    fn is_ordered(&self, id: u64) -> bool {
        self.executed_ids.contains(&id)
            || self
                .log
                .values()
                .any(|s| !s.executed && s.batch.as_ref().is_some_and(|b| b.contains_id(id)))
    }

    /// Queues `command` for the next batch cut, unless it is already
    /// queued or ordered.
    fn enqueue_for_proposal(&mut self, command: Command, now: u64) {
        if self.accum.iter().any(|(c, _)| c.id == command.id) || self.is_ordered(command.id) {
            return;
        }
        self.accum.push_back((command, now));
    }

    /// Whether the relay cut skips the fill delay: only at a backup (see
    /// [`Self::on_urgent_request`]).
    fn urgent_relay(&self) -> bool {
        self.urgent && !self.is_primary()
    }

    /// Cuts and sends every batch that is ready under
    /// [`BatchConfig::cut`]. Proposal cuts are additionally gated by the
    /// in-flight window (pipelining back-pressure); relays are not,
    /// since they carry no slot. Urgency ends once the queue that reads
    /// it has drained: `accum` at the primary, the relay elsewhere.
    fn flush(&mut self, now: u64, out: &mut Outbox) {
        let urgent_relay = self.urgent_relay();
        while let Some(drained) = self.cfg.cut(&mut self.relay_accum, now, urgent_relay) {
            let commands: Vec<Command> = drained
                .into_iter()
                .filter(|(c, _)| !self.executed_ids.contains(&c.id))
                .map(|(c, _)| c)
                .collect();
            if !commands.is_empty() {
                self.broadcast(out, PbftMsg::Request(Batch::new(commands)));
            }
        }
        if !self.is_primary() {
            if self.relay_accum.is_empty() {
                self.urgent = false;
            }
            return;
        }
        if self.view_changing {
            return;
        }
        while self.backlog() < self.cfg.window {
            let Some(drained) = self.cfg.cut(&mut self.accum, now, self.urgent) else { break };
            prever_obs::histogram!("consensus.batch.size").record(drained.len() as u64);
            prever_obs::histogram!("consensus.batch.fill_delay")
                .record(now.saturating_sub(drained[0].1));
            let commands: Vec<Command> = drained.into_iter().map(|(c, _)| c).collect();
            self.propose_batch(commands, now, out);
        }
        if self.accum.is_empty() {
            self.urgent = false;
        }
    }

    /// The earliest virtual time at which a waiting accumulator entry
    /// hits its `max_delay` and must be flushed, if any. The simulator
    /// adapter arms a timer for it (immediate-flush configs never need
    /// one). While an urgent command is queued the fill delay is
    /// suspended, and anything waiting in a queue urgency applies to is
    /// due immediately.
    pub fn next_batch_deadline(&self) -> Option<u64> {
        if self.byz == Byzantine::Silent {
            return None;
        }
        let relay = self.cfg.deadline(&self.relay_accum, self.urgent_relay());
        let proposing = self.is_primary() && !self.view_changing && self.backlog() < self.cfg.window;
        let propose = if proposing { self.cfg.deadline(&self.accum, self.urgent) } else { None };
        relay.into_iter().chain(propose).min()
    }

    /// Timer-driven flush for `max_delay`-aged partial batches.
    pub fn on_batch_timer(&mut self, now: u64) -> Outbox {
        let mut out = Outbox::new();
        self.flush(now, &mut out);
        out
    }

    fn propose_batch(&mut self, commands: Vec<Command>, now: u64, out: &mut Outbox) {
        // Drop anything that raced to execution (e.g. via state
        // transfer) or into another slot since it was queued.
        let commands: Vec<Command> =
            commands.into_iter().filter(|c| !self.is_ordered(c.id)).collect();
        if commands.is_empty() {
            return;
        }
        self.next_seq = self.next_seq.max(self.last_exec) + 1;
        // Never assign a seq whose slot is already resolved: a primary
        // whose execution lags (e.g. just state-transferred into the
        // view) may still hold committed-but-unexecuted slots from an
        // earlier view above `last_exec`, and proposing over one would
        // overwrite a decided batch.
        while self.log.get(&self.next_seq).is_some_and(|s| s.digest.is_some()) {
            self.next_seq += 1;
        }
        let seq = self.next_seq;
        let batch = Batch::new(commands);
        batch.stamp(self.id, now, None, "batch-cut", seq);
        batch.stamp(self.id, now, Some("batch-cut"), "pre-prepare", seq);

        if self.byz == Byzantine::EquivocatingPrimary {
            // Send batch A to the first half, a conflicting batch to
            // the rest. Both claim the same (view, seq).
            let evil = Batch::new(
                batch
                    .commands()
                    .iter()
                    .map(|c| {
                        let mut payload = c.payload.to_vec();
                        payload.extend_from_slice(b"-equivocated");
                        Command::new(c.id, payload)
                    })
                    .collect(),
            );
            let others: Vec<NodeId> =
                self.members.iter().copied().filter(|&m| m != self.id).collect();
            for (i, &m) in others.iter().enumerate() {
                let b = if i < others.len() / 2 { batch.clone() } else { evil.clone() };
                out.push((m, PbftMsg::PrePrepare { view: self.view, seq, batch: b }));
            }
            self.note_sent(1, others.len() as u64); // kind 1 = pre_prepare
        } else {
            self.broadcast(out, PbftMsg::PrePrepare { view: self.view, seq, batch: batch.clone() });
        }
        self.own_pre_prepare(self.view, seq, batch);
    }

    /// Fixes `batch` at `seq` in the primary's own log: its pre-prepare
    /// doubles as its prepare vote.
    fn own_pre_prepare(&mut self, view: u64, seq: u64, batch: Batch) {
        let digest = batch.digest();
        let slot = self.log.entry(seq).or_default();
        slot.fix_digest(view, digest, batch);
        slot.prepares.add(self.id);
        self.bind(seq, view, digest);
    }

    /// Handles a protocol message. `now` is virtual time for execution
    /// timestamps. One call per message kind; pre-prepares and votes
    /// first pass the view gate (`admit`, in `view_change.rs`).
    pub fn on_message(&mut self, from: NodeId, msg: PbftMsg, now: u64) -> Outbox {
        let mut out = Outbox::new();
        if !self.members.contains(&from) {
            return out;
        }
        self.note_recv(from, &msg);
        let Some(msg) = self.admit(from, msg) else { return out };
        match msg {
            PbftMsg::Request(batch) => self.on_request_batch(from, batch, now, &mut out),
            PbftMsg::PrePrepare { view, seq, batch } => {
                self.on_pre_prepare(from, view, seq, batch, now, &mut out)
            }
            PbftMsg::Prepare { seq, digest, .. } => {
                self.on_vote(from, seq, digest, false, now, &mut out)
            }
            PbftMsg::Commit { seq, digest, .. } => {
                self.on_vote(from, seq, digest, true, now, &mut out)
            }
            PbftMsg::ViewChange { new_view, prepared } => {
                self.on_view_change(from, new_view, prepared, now, &mut out)
            }
            PbftMsg::NewView { new_view, proposals } => {
                self.on_new_view(from, new_view, proposals, now, &mut out)
            }
            PbftMsg::Checkpoint { seq, state_digest } => {
                self.record_checkpoint_vote(from, seq, state_digest)
            }
            PbftMsg::StateRequest { have } => self.on_state_request(from, have, &mut out),
            PbftMsg::StateResponse { view, entries } => {
                self.on_state_response(from, view, entries, now)
            }
        }
        out
    }

    /// Handles the current view's pre-prepare for `seq`: fix the slot's
    /// batch, count the primary's implicit prepare and ours, and
    /// broadcast our prepare vote.
    fn on_pre_prepare(
        &mut self,
        from: NodeId,
        view: u64,
        seq: u64,
        batch: Batch,
        now: u64,
        out: &mut Outbox,
    ) {
        if from != self.primary() {
            return;
        }
        let digest = batch.digest();
        // Durable-binding refusal: we already voted for a *different*
        // command at this seq in this or a later view (possibly before a
        // restart) — voting again would make us an accidental equivocator.
        if let Some((bv, bd)) = self.durable_bindings.get(&seq) {
            if view <= *bv && digest != *bd {
                prever_obs::log!(Debug, "replica {} refuses preprepare seq {seq} view {view}: bound view {bv}", self.id);
                return;
            }
        }
        let slot = self.log.entry(seq).or_default();
        if let Some(existing) = slot.digest {
            if existing != digest {
                // Equivocation observed: refuse the second one.
                prever_obs::log!(Debug, "replica {} refuses preprepare seq {seq} view {view}: digest conflict (slot view {}, committed {})", self.id, slot.view, slot.committed);
                return;
            }
        } else {
            slot.fix_digest(view, digest, batch.clone());
        }
        // Pre-prepare counts as the primary's prepare vote; add ours and
        // broadcast it.
        slot.prepares.add(from);
        slot.prepares.add(self.id);
        // Track the batched requests for liveness if not already pending.
        for command in batch.commands() {
            if !self.executed_ids.contains(&command.id)
                && !self.pending.iter().any(|(c, _)| c.id == command.id)
            {
                self.pending.push_back((command.clone(), now));
            }
        }
        self.bind(seq, view, digest);
        self.broadcast(out, PbftMsg::Prepare { view, seq, digest });
        self.try_advance(seq, now, out);
    }

    /// Counts a current-view prepare (`commit == false`) or commit vote
    /// for `digest` at `seq`.
    fn on_vote(
        &mut self,
        from: NodeId,
        seq: u64,
        digest: Digest,
        commit: bool,
        now: u64,
        out: &mut Outbox,
    ) {
        let slot = self.log.entry(seq).or_default();
        let fixed = slot.digest;
        let (votes, early) = if commit {
            (&mut slot.commits, &mut slot.early_commits)
        } else {
            (&mut slot.prepares, &mut slot.early_prepares)
        };
        match fixed {
            Some(d) if d != digest => return,
            Some(_) => {
                votes.add(from);
            }
            // No pre-prepare yet: hold the vote with its digest so it
            // only counts if the proposals agree.
            None => {
                if !early.iter().any(|(v, _)| *v == from) {
                    early.push((from, digest));
                }
            }
        }
        self.try_advance(seq, now, out);
    }

    fn try_advance(&mut self, seq: u64, now: u64, out: &mut Outbox) {
        let quorum = self.quorum();
        let view = self.view;
        let Some(slot) = self.log.get_mut(&seq) else { return };
        let Some(digest) = slot.digest else { return };
        // Prepared: 2f + 1 matching prepares (incl. primary's implicit
        // and our own).
        if slot.prepares.len() >= quorum && !slot.sent_commit {
            prever_obs::log!(Debug, "replica {} prepared seq {seq} view {view}", self.id);
            slot.sent_commit = true;
            slot.commits.add(self.id);
            let prep = slot.batch.clone().map(|b| (slot.view, b));
            // A commit vote claims "I hold a prepared certificate"; the
            // certificate must outlive view changes (and, for a
            // persisting owner, restarts) until the slot executes, or
            // a later view change could erase a certificate the
            // cluster is relying on (see the Prep record in durable.rs).
            if let Some((v, b)) = prep {
                b.stamp(self.id, now, Some("pre-prepare"), "prepare-quorum", seq);
                self.remember_cert(seq, v, b);
            }
            self.broadcast(out, PbftMsg::Commit { view, seq, digest });
        }
        let Some(slot) = self.log.get_mut(&seq) else { return };
        if slot.commits.len() >= quorum && !slot.committed {
            prever_obs::log!(Debug, "replica {} committed seq {seq} view {view}", self.id);
            slot.committed = true;
            if let Some(b) = &slot.batch {
                b.stamp(self.id, now, Some("prepare-quorum"), "commit-quorum", seq);
            }
        }
        self.execute_ready(now, out);
    }

    fn execute_ready(&mut self, now: u64, out: &mut Outbox) {
        loop {
            let next = self.last_exec + 1;
            let Some(slot) = self.log.get_mut(&next) else { break };
            if !slot.committed || slot.executed {
                break;
            }
            slot.executed = true;
            let batch = slot.batch.clone().expect("committed slot has a batch");
            // One pass over `pending` for the whole batch: each ordered
            // command's wait is recorded as it is dropped.
            let latency = prever_obs::histogram!("consensus.commit.latency");
            self.pending.retain(|(c, since)| {
                let ordered = batch.contains_id(c.id);
                if ordered {
                    // Virtual µs → ns for the span-style histogram.
                    latency.record(now.saturating_sub(*since).saturating_mul(1_000));
                }
                !ordered
            });
            batch.stamp(self.id, now, Some("commit-quorum"), "exec", next);
            prever_obs::counter!("pbft.executed").add(batch.len() as u64);
            // Apply the whole batch, then do one checkpoint step for the
            // slot.
            self.record_execution(next, batch, now);
            self.last_progress_at = now;
            self.vc_streak = 0;
            if self.last_exec.is_multiple_of(CHECKPOINT_INTERVAL) {
                self.broadcast(out, self.checkpoint());
                self.record_checkpoint_vote(self.id, self.last_exec, self.running_state);
            }
        }
        // Executions free pipeline-window slots: cut anything now ready.
        self.flush(now, out);
    }

    /// Appends `batch`, decided at `at`, to the executed history as
    /// sequence `seq` — the one place the history grows, whether the
    /// batch committed here, arrived by state transfer, or was replayed
    /// from disk. The state digest chains per command, so it is
    /// batching-agnostic; the slot's vote binding and certificate are
    /// spent.
    fn record_execution(&mut self, seq: u64, batch: Batch, at: u64) {
        self.last_exec = seq;
        for command in batch.commands() {
            self.executed_ids.insert(command.id);
            self.noops += usize::from(command.id == NOOP_ID);
            self.running_state = chain_digest(self.running_state, command);
        }
        self.slots += batch.len() as u64;
        self.executed_batches.push((seq, batch, at));
        self.durable_bindings.remove(&seq);
        self.certs.remove(&seq);
    }

    /// Liveness tick: drives state-transfer retries, lag detection, and
    /// view changes for stuck requests (in that priority order — a
    /// lagging replica fetches state instead of hopelessly demanding
    /// view changes it can no longer vote in).
    pub fn on_tick(&mut self, now: u64, timeout: u64) -> Outbox {
        let mut out = Outbox::new();
        if self.byz == Byzantine::Silent {
            return out;
        }
        if self.byz == Byzantine::StaleReplayer && !self.replay_stash.is_empty() {
            // Replay the stale stash (cloned, so the copies are not
            // themselves re-stashed).
            let stash = self.replay_stash.clone();
            self.replaying = true;
            for msg in stash {
                self.broadcast(&mut out, msg);
            }
            self.replaying = false;
        }
        // Safety net for `max_delay`-aged partial batches (the adapter's
        // batch timer is the precise path; this catches re-arm races).
        self.flush(now, &mut out);
        self.recovery_tick(now, timeout, &mut out);
        self.view_timeout_tick(now, timeout, &mut out);
        out
    }
}

// Every actor hosted on the simulator must be `Send`: the shard-per-
// thread runtime ships replica groups to worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<PbftNode>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{DurableLog, DurableMedia};
    use prever_sim::{NetConfig, Simulation};

    fn submit(sim: &mut Simulation<PbftNode>, to: NodeId, id: u64) {
        sim.inject(to, to, PbftMsg::request(Command::new(id, format!("cmd-{id}"))), sim.now() + 1);
    }

    fn ids_of(node: &PbftNode) -> Vec<u64> {
        let ids = node.core.executed().iter().map(|d| d.command.id);
        ids.filter(|&id| id != NOOP_ID).collect()
    }

    #[test]
    fn commits_on_clean_run() {
        let n = 4;
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 1);
        for i in 0..20 {
            submit(&mut sim, 0, i);
        }
        let ok = sim.run_until_pred(1_000_000, |nodes| {
            nodes.iter().all(|nd| nd.core.executed_commands() >= 20)
        });
        assert!(ok, "not all replicas executed all commands");
        let reference = ids_of(sim.node(0));
        assert_eq!(reference.len(), 20);
        for i in 1..n {
            assert_eq!(ids_of(sim.node(i)), reference, "replica {i} diverged");
        }
    }

    /// Counted, not timed: what ordering costs in SHA-256 blocks.
    #[test]
    fn ordering_stays_under_a_compressions_per_command_bound() {
        use prever_obs::work::{measure, Unit::Sha256Compress};
        let (n, cmds) = (4, 512u64);
        let cfg = BatchConfig::new(8, 2_000, 8);
        let mut sim = Simulation::new(cluster_batched(n, cfg), NetConfig::default(), 24);
        let (ok, work) = measure(|| {
            for i in 0..cmds {
                // Round-robin over the replicas, so three in four arrive as
                // relays: the path whose batches nobody takes a digest of.
                let to = (i % n as u64) as NodeId;
                let at = sim.now() + 1 + i;
                sim.inject(to, to, PbftMsg::request(Command::new(i, vec![i as u8; 8])), at);
            }
            sim.run_until_pred(10_000_000, |nodes| {
                nodes.iter().all(|nd| nd.core.executed_commands() >= cmds as usize)
            })
        });
        assert!(ok, "not all replicas executed all commands");
        let per_command = work[Sha256Compress] as f64 / cmds as f64;
        eprintln!("compressions per command, four replicas: {per_command:.2}");
        // Per command, over the whole cluster: its digest (1 block), an
        // eighth of the one tree built per ordered batch (8 leaves of 1
        // block and 7 nodes of 2: 2.75) and the two-block state chaining
        // on each of four replicas (8) — 11.75. With every relayed
        // `Request` building that tree too it was 15.5.
        assert!(per_command <= 12.0, "{per_command:.2} SHA-256 compressions per command, bound 12");
    }

    #[test]
    fn happy_path_message_counts() {
        // A clean 4-replica run has a fully predictable message budget;
        // any retransmit, duplicate, or silent loss shifts these counts.
        let n = 4;
        let cmds = 5u64; // below CHECKPOINT_INTERVAL: no checkpoint traffic
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 77);
        for i in 0..cmds {
            submit(&mut sim, 0, i);
        }
        let ok = sim.run_until_pred(1_000_000, |nodes| {
            nodes.iter().all(|nd| nd.core.executed_commands() as u64 >= cmds)
        });
        assert!(ok, "run did not complete");
        // Drain in-flight traffic so every sent message is received.
        let deadline = sim.now() + 200_000;
        sim.run_until(deadline);
        for i in 0..n {
            assert_eq!(sim.node(i).core.view(), 0, "no view change expected");
        }
        // Primary: relays each request to the 3 backups, pre-prepares
        // each command once, and commits; its pre-prepare doubles as its
        // prepare vote, so it sends no explicit prepares.
        let s0 = sim.node(0).core.msg_stats();
        assert_eq!(s0.sent("request"), 3 * cmds);
        assert_eq!(s0.sent("pre_prepare"), 3 * cmds);
        assert_eq!(s0.sent("prepare"), 0);
        assert_eq!(s0.sent("commit"), 3 * cmds);
        assert_eq!(s0.recv("prepare"), 3 * cmds, "one prepare per backup per command");
        assert_eq!(s0.recv("commit"), 3 * cmds);
        // Backups: one pre-prepare in, one prepare broadcast (3 peers),
        // one commit broadcast per command; no pre-prepares out.
        for i in 1..n {
            let s = sim.node(i).core.msg_stats();
            assert_eq!(s.recv("request"), cmds, "backup {i} relayed-request count");
            assert_eq!(s.recv("pre_prepare"), cmds, "backup {i}");
            assert_eq!(s.sent("pre_prepare"), 0, "backup {i}");
            assert_eq!(s.sent("prepare"), 3 * cmds, "backup {i}");
            assert_eq!(s.sent("commit"), 3 * cmds, "backup {i}");
            assert_eq!(s.recv("prepare"), 2 * cmds, "backup {i} hears the other two backups");
            assert_eq!(s.recv("commit"), 3 * cmds, "backup {i}");
        }
        // Conservation: with no drops and no crashes, every message sent
        // is received exactly once (client injections are not receives).
        let total_sent: u64 = (0..n).map(|i| sim.node(i).core.msg_stats().total_sent()).sum();
        let total_recv: u64 = (0..n).map(|i| sim.node(i).core.msg_stats().total_recv()).sum();
        assert_eq!(total_sent, total_recv, "messages were lost or duplicated");
    }

    /// A replica that submits its client injections urgent, as a serving
    /// gateway submits High-class requests.
    struct Urgent(PbftNode);

    impl prever_sim::Actor for Urgent {
        type Msg = PbftMsg;

        fn on_start(&mut self, ctx: &mut prever_sim::Ctx<PbftMsg>) {
            let _ = self.0.start(ctx);
        }

        fn on_message(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut prever_sim::Ctx<PbftMsg>) {
            match msg {
                PbftMsg::Request(batch) if from == self.0.core.id() => {
                    for command in batch.commands() {
                        self.0.submit(command.clone(), true, ctx);
                    }
                }
                msg => {
                    let _ = self.0.deliver(from, msg, ctx);
                }
            }
        }

        fn on_timer(&mut self, timer: u64, ctx: &mut prever_sim::Ctx<PbftMsg>) {
            let _ = self.0.timer(timer, ctx);
        }
    }

    /// The serving cluster's batching: 8 commands, 2 ms, window 2.
    const SERVING: BatchConfig = BatchConfig { max_batch: 8, max_delay: 2_000, window: 2 };

    fn urgent_cluster() -> Simulation<Urgent> {
        let nodes = cluster_batched(4, SERVING).into_iter().map(Urgent).collect();
        Simulation::new(nodes, NetConfig::default(), 41)
    }

    #[test]
    fn the_primary_batches_its_relay_of_urgent_commands() {
        let cmds = 64u64;
        let mut sim = urgent_cluster();
        for i in 0..cmds {
            sim.inject(0, 0, PbftMsg::request(Command::new(i, vec![i as u8; 8])), 1 + i);
        }
        let ok = sim.run_until_pred(5_000_000, |nodes| {
            nodes.iter().all(|nd| nd.0.core.executed_commands() as u64 >= cmds)
        });
        assert!(ok, "not all replicas executed all commands");
        // The primary orders from its proposal queue; the relay is the
        // backups' liveness copy and follows the fill policy: one round
        // to the three backups per 8 commands, plus one round of slack
        // for a partial cut. One relay per command would be 3 × 64.
        let relays = sim.node(0).0.core.msg_stats().sent("request");
        let bound = 3 * (cmds.div_ceil(SERVING.max_batch as u64) + 1);
        assert!(relays <= bound, "{relays} relay messages for {cmds} urgent commands, bound {bound}");
    }

    #[test]
    fn a_backup_relays_an_urgent_command_at_once() {
        // The backup's relay is the command's only path to the primary.
        let mut sim = urgent_cluster();
        sim.inject(1, 1, PbftMsg::request(Command::new(7, "urgent")), 1);
        sim.run_until(SERVING.max_delay);
        assert_eq!(
            sim.node(0).0.core.msg_stats().recv("request"),
            1,
            "the backup's relay of an urgent command waited out max_delay"
        );

        // The same holds at a backup that was primary and still holds
        // commands in its proposal queue, and its urgency ends with the
        // relay: a routine command after it waits for the fill policy.
        let mut former = PbftCore::new(0, vec![0, 1, 2, 3], Byzantine::Honest);
        former.set_batch_config(SERVING);
        // Two full batches fill the window; four commands stay queued.
        for i in 0..20 {
            former.on_request(Command::new(i, vec![i as u8; 8]), 1);
        }
        former.on_message(1, PbftMsg::NewView { new_view: 1, proposals: Vec::new() }, 2);
        assert!(!former.is_primary());
        let relays =
            |out: &Outbox| out.iter().filter(|(_, m)| matches!(m, PbftMsg::Request(_))).count();
        let urgent = former.on_urgent_request(Command::new(100, "urgent"), 3);
        assert_eq!(relays(&urgent), 3, "a former primary held back an urgent relay");
        let routine = former.on_request(Command::new(101, "routine"), 4);
        assert_eq!(relays(&routine), 0, "a former primary relayed a routine command alone");
    }

    #[test]
    fn requests_to_backups_are_forwarded() {
        let n = 4;
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 2);
        for i in 0..8 {
            submit(&mut sim, (i % n as u64) as usize, i);
        }
        let ok = sim.run_until_pred(1_000_000, |nodes| {
            nodes.iter().all(|nd| nd.core.executed_commands() >= 8)
        });
        assert!(ok);
    }

    #[test]
    fn tolerates_f_silent_replicas() {
        // n = 7, f = 2: two silent replicas must not block progress.
        let behaviors = [
            Byzantine::Honest,
            Byzantine::Honest,
            Byzantine::Silent,
            Byzantine::Honest,
            Byzantine::Silent,
            Byzantine::Honest,
            Byzantine::Honest,
        ];
        let mut sim = Simulation::new(cluster_with(&behaviors), NetConfig::default(), 3);
        for i in 0..10 {
            submit(&mut sim, 0, i);
        }
        let ok = sim.run_until_pred(3_000_000, |nodes| {
            nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| behaviors[*i] == Byzantine::Honest)
                .all(|(_, nd)| nd.core.executed_commands() >= 10)
        });
        assert!(ok, "honest replicas failed to execute with f silent nodes");
    }

    #[test]
    fn view_change_replaces_crashed_primary() {
        let n = 4;
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 4);
        // Commit a first batch under primary 0.
        for i in 0..3 {
            submit(&mut sim, 0, i);
        }
        assert!(sim.run_until_pred(1_000_000, |nodes| nodes[1].core.executed_commands() >= 3));
        // Crash the primary; submit to a backup.
        sim.crash(0);
        for i in 3..6 {
            submit(&mut sim, 1, i);
        }
        let ok = sim.run_until_pred(20_000_000, |nodes| {
            (1..4).all(|i| nodes[i].core.executed_commands() >= 6)
        });
        assert!(ok, "view change failed to restore progress");
        // All survivors in the same, higher view with identical logs.
        let v = sim.node(1).core.view();
        assert!(v >= 1, "view should have advanced");
        let reference = ids_of(sim.node(1));
        for i in 2..4 {
            assert_eq!(ids_of(sim.node(i)), reference);
        }
    }

    #[test]
    fn safety_under_equivocating_primary() {
        // Primary 0 equivocates. Safety: no two honest replicas execute
        // different commands at the same slot. Liveness: a view change
        // eventually replaces the primary and the request commits.
        let behaviors = [
            Byzantine::EquivocatingPrimary,
            Byzantine::Honest,
            Byzantine::Honest,
            Byzantine::Honest,
        ];
        let mut sim = Simulation::new(cluster_with(&behaviors), NetConfig::default(), 5);
        for i in 0..4 {
            submit(&mut sim, 1, i);
        }
        sim.run_until(30_000_000);
        // Safety check across honest replicas.
        for slot in 1..=10u64 {
            let mut seen: Option<u64> = None;
            for i in 1..4 {
                if let Some(d) = sim
                    .node(i)
                    .core
                    .executed()
                    .iter()
                    .find(|d| d.slot == slot)
                {
                    if let Some(prev) = seen {
                        assert_eq!(
                            prev, d.command.id,
                            "replicas diverged at slot {slot}"
                        );
                    }
                    seen = Some(d.command.id);
                }
            }
        }
        // Liveness: all four commands execute at the honest replicas.
        for i in 1..4 {
            assert!(
                sim.node(i).core.executed_commands() >= 4,
                "replica {i} executed only {} commands",
                sim.node(i).core.executed_commands()
            );
        }
        assert!(sim.node(1).core.view() >= 1, "equivocation should force a view change");
    }

    #[test]
    fn no_duplicate_execution_of_reinjected_requests() {
        let n = 4;
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 6);
        // The same command id submitted to several replicas.
        for target in 0..n {
            sim.inject(target, target, PbftMsg::request(Command::new(42, "dup")), sim.now() + 1);
        }
        sim.run_until(2_000_000);
        for i in 0..n {
            let count = sim
                .node(i)
                .core
                .executed()
                .iter()
                .filter(|d| d.command.id == 42)
                .count();
            assert_eq!(count, 1, "replica {i} executed the command {count} times");
        }
    }

    #[test]
    fn checkpoints_truncate_the_log() {
        let n = 4;
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 31);
        let total = 5 * CHECKPOINT_INTERVAL; // 80 commands
        for i in 0..total {
            submit(&mut sim, 0, i);
        }
        let ok = sim.run_until_pred(20_000_000, |nodes| {
            nodes.iter().all(|nd| nd.core.executed_commands() as u64 >= total)
        });
        assert!(ok);
        // Drain in-flight checkpoint votes.
        let deadline = sim.now() + 100_000;
        sim.run_until(deadline);
        for r in 0..n {
            let core = &sim.node(r).core;
            assert!(
                core.stable_seq() >= total - CHECKPOINT_INTERVAL,
                "replica {r}: stable at {}",
                core.stable_seq()
            );
            assert!(
                core.log_len() as u64 <= 2 * CHECKPOINT_INTERVAL,
                "replica {r}: log holds {} entries after {total} commands",
                core.log_len()
            );
            // Execution record intact.
            assert_eq!(core.executed_commands() as u64, total);
        }
    }

    #[test]
    fn checkpoint_digests_agree_across_replicas() {
        // The chained state digest is deterministic: replicas reach the
        // same stable checkpoint, proving identical execution order.
        let mut sim = Simulation::new(cluster(4), NetConfig::default(), 32);
        for i in 0..CHECKPOINT_INTERVAL {
            submit(&mut sim, (i % 4) as usize, i);
        }
        assert!(sim.run_until_pred(10_000_000, |nodes| {
            nodes.iter().all(|nd| nd.core.stable_seq() >= CHECKPOINT_INTERVAL)
        }));
    }

    #[test]
    fn restarted_replica_catches_up_via_state_transfer() {
        // Four durable replicas. Replica 2 crashes, loses its in-memory
        // state, and is rebuilt from the journal its media kept; it must
        // catch up on everything committed while it was down and end
        // with the quorum's state digest.
        let n = 4;
        let media: Vec<DurableMedia> = (0..n as u64).map(DurableMedia::new).collect();
        let nodes: Vec<PbftNode> = (0..n)
            .map(|id| PbftNode::with_durable(id, n, Byzantine::Honest, DurableLog::on(&media[id])))
            .collect();
        let mut sim = Simulation::new(nodes, NetConfig::default(), 11);
        for i in 0..20 {
            submit(&mut sim, 0, i);
        }
        assert!(sim.run_until_pred(2_000_000, |nodes| {
            nodes.iter().all(|nd| nd.core.executed_commands() >= 20)
        }));
        // Kill replica 2 with state loss; commit more while it is down.
        sim.crash(2);
        for i in 20..35 {
            submit(&mut sim, 0, i);
        }
        assert!(sim.run_until_pred(4_000_000, |nodes| {
            [0, 1, 3].iter().all(|&i| nodes[i].core.executed_commands() >= 35)
        }));
        let (log, _) = DurableLog::recover(&media[2]).expect("clean media");
        let node2 = PbftNode::recover_with(2, n, Byzantine::Honest, log);
        assert_eq!(node2.core.executed_commands(), 20, "journal replay restores the history");
        sim.restart_with_loss(2, node2);
        // A few more commands prove the restarted replica participates.
        for i in 35..40 {
            submit(&mut sim, 0, i);
        }
        assert!(
            sim.run_until_pred(20_000_000, |nodes| {
                nodes.iter().all(|nd| nd.core.executed_commands() >= 40)
            }),
            "restarted replica failed to catch up"
        );
        assert!(sim.node(2).core.synced() > 0, "catch-up must use state transfer");
        // Executed-history digests agree — the provable catch-up check.
        let d0 = sim.node(0).core.state_digest();
        for i in 1..n {
            assert_eq!(sim.node(i).core.state_digest(), d0, "replica {i} digest diverged");
        }
        // And the journal replay agrees with the in-memory history.
        let log = sim.node(2).durable().expect("durable");
        let replayed = log.replay().expect("chain verifies");
        assert_eq!(replayed.entries.len(), sim.node(2).core.executed_batches().len());
    }

    #[test]
    fn replayed_vote_records_do_not_grow_with_the_history() {
        // Recovery keeps only the Bind and Prep records above the last
        // executed batch, so what a replay holds besides the executed
        // batches is bounded by the pipeline, not by the history.
        let n = 4;
        let replayed = |commands: u64| {
            let nodes: Vec<PbftNode> = (0..n)
                .map(|id| PbftNode::with_durable(id, n, Byzantine::Honest, DurableLog::new()))
                .collect();
            let mut sim = Simulation::new(nodes, NetConfig::default(), 13);
            for i in 0..commands {
                submit(&mut sim, (i % n as u64) as NodeId, i);
            }
            assert!(sim.run_until_pred(20_000_000, |nodes| {
                nodes.iter().all(|nd| nd.core.executed_commands() >= commands as usize)
            }));
            sim.run_until(sim.now() + 200_000);
            (0..n)
                .map(|id| {
                    let node = sim.node(id);
                    let log = node.durable().expect("durable");
                    let state = log.replay().expect("chain verifies");
                    assert_eq!(state.entries.len(), node.core.executed_batches().len());
                    (log.len(), state.bindings.len(), state.prepared.len())
                })
                .collect::<Vec<_>>()
        };
        let (short, long) = (replayed(8), replayed(64));
        for (id, (s, l)) in short.iter().zip(&long).enumerate() {
            assert!(l.0 > s.0 + 100, "replica {id}: the log itself grows ({} -> {})", s.0, l.0);
            assert_eq!((l.1, l.2), (s.1, s.2), "replica {id}: vote records grew with the history");
        }
    }

    #[test]
    fn stale_replayer_is_harmless() {
        // One replica endlessly replays stale protocol messages; the
        // other three must keep exact agreement and full liveness.
        let behaviors = [
            Byzantine::Honest,
            Byzantine::StaleReplayer,
            Byzantine::Honest,
            Byzantine::Honest,
        ];
        let mut sim = Simulation::new(cluster_with(&behaviors), NetConfig::default(), 12);
        for i in 0..20 {
            submit(&mut sim, 0, i);
        }
        assert!(sim.run_until_pred(5_000_000, |nodes| {
            [0, 2, 3].iter().all(|&i| nodes[i].core.executed_commands() >= 20)
        }));
        // Let the replayer spray its stash for a while longer.
        let deadline = sim.now() + 2_000_000;
        sim.run_until(deadline);
        let reference = ids_of(sim.node(0));
        assert_eq!(reference.len(), 20, "stale replays must not duplicate executions");
        for i in [2, 3] {
            assert_eq!(ids_of(sim.node(i)), reference, "replica {i} diverged");
        }
    }

    #[test]
    fn view_change_recovers_prepared_certificate_after_primary_crash() {
        // Crash the primary mid-batch, after slots have gathered prepare
        // quorums at the backups but before anything commits. The view
        // change must re-propose the prepared certificates, and no
        // command may be lost or executed twice.
        //
        // Construction: every link *into* the primary is dead (it never
        // hears a prepare, so it never commits) and the primary cannot
        // reach replica 3 (so commits among the backups stall at 2 < 2f+1
        // votes). Slots prepare at replicas 1 and 2 and then freeze
        // mid-batch; the primary crashes shortly after.
        let n = 4;
        let dead = prever_sim::LinkFault { drop: 1.0, ..Default::default() };
        let plan = prever_sim::FaultPlan::new()
            .link(1, 0, dead)
            .link(2, 0, dead)
            .link(3, 0, dead)
            .link(0, 3, dead)
            .crash_at(50_000, 0);
        let mut sim = Simulation::new(cluster(n), NetConfig::default(), 13);
        sim.set_fault_plan(plan);
        for i in 0..6 {
            submit(&mut sim, 0, i);
        }
        sim.run_until(50_000);
        let prepared = sim.node(1).core.prepared_certificates();
        assert!(!prepared.is_empty(), "no slot prepared mid-batch");
        assert_eq!(sim.node(1).core.executed_commands(), 0, "nothing may commit pre-crash");
        let (cert_seq, _, cert_batch) = prepared[0].clone();
        let ok = sim.run_until_pred(30_000_000, |nodes| {
            (1..4).all(|i| nodes[i].core.executed_commands() >= 6)
        });
        assert!(ok, "survivors failed to finish the batch after the crash");
        assert!(sim.node(1).core.view() >= 1, "a view change must have happened");
        let reference = ids_of(sim.node(1));
        for i in 2..4 {
            assert_eq!(ids_of(sim.node(i)), reference, "replica {i} diverged");
        }
        // No loss: all six commands executed exactly once.
        let mut sorted = reference.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        // The prepared certificate survived at its sequence number.
        let at_seq = sim
            .node(1)
            .core
            .executed()
            .iter()
            .find(|d| d.slot == cert_seq)
            .expect("certificate sequence executed");
        assert_eq!(
            at_seq.command.id,
            cert_batch.commands()[0].id,
            "prepared certificate was not re-proposed"
        );
    }

    #[test]
    fn batched_pipeline_commits_all_commands() {
        // 64 commands under an 8-command batch and a 4-deep window: the
        // primary must cut multi-command batches, every replica must
        // execute all 64 exactly once in the same order, and the
        // pre-prepare count must show the 3-phase round was amortized.
        let n = 4;
        let cfg = BatchConfig::new(8, 10_000, 4);
        let mut sim = Simulation::new(cluster_batched(n, cfg), NetConfig::default(), 21);
        for i in 0..64 {
            submit(&mut sim, 0, i);
        }
        let ok = sim.run_until_pred(5_000_000, |nodes| {
            nodes.iter().all(|nd| nd.core.executed_commands() >= 64)
        });
        assert!(ok, "batched cluster failed to execute all commands");
        let reference = ids_of(sim.node(0));
        let mut sorted = reference.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "lost or duplicated commands");
        for i in 1..n {
            assert_eq!(ids_of(sim.node(i)), reference, "replica {i} diverged");
        }
        // Amortization: 64 commands must fit in far fewer than 64
        // rounds (exactly 8 if every batch filled; allow partial cuts).
        let batches = sim.node(0).core.executed_batches().len();
        assert!(batches <= 16, "expected ≤16 batches for 64 commands, got {batches}");
        assert!(
            sim.node(0).core.executed_batches().iter().any(|(_, b, _)| b.len() > 1),
            "no multi-command batch was ever cut"
        );
        let s0 = sim.node(0).core.msg_stats();
        assert_eq!(s0.sent("pre_prepare"), 3 * batches as u64);
    }

    #[test]
    fn batch_fill_delay_cuts_partial_batches() {
        // Fewer commands than max_batch: only the fill-delay timer can
        // cut the batch, so execution proves the timer path works.
        let n = 4;
        let cfg = BatchConfig::new(32, 20_000, 16);
        let mut sim = Simulation::new(cluster_batched(n, cfg), NetConfig::default(), 22);
        for i in 0..3 {
            submit(&mut sim, 0, i);
        }
        let ok = sim.run_until_pred(2_000_000, |nodes| {
            nodes.iter().all(|nd| nd.core.executed_commands() >= 3)
        });
        assert!(ok, "partial batch was never cut by the fill-delay timer");
        // All three commands rode one delay-cut batch.
        assert_eq!(sim.node(0).core.executed_batches().len(), 1);
        assert_eq!(sim.node(0).core.executed_batches()[0].1.len(), 3);
    }

    #[test]
    fn view_change_preserves_multi_command_batches() {
        // The batched variant of the mid-batch primary-crash test: slots
        // hold multi-command batches when the primary dies. The NewView
        // must replay the prepared batches *intact* (payloads, not just
        // digests) — the committed batch prefix is preserved and no
        // command is lost or duplicated across the view change.
        let n = 4;
        let cfg = BatchConfig::new(8, 5_000, 4);
        let dead = prever_sim::LinkFault { drop: 1.0, ..Default::default() };
        let plan = prever_sim::FaultPlan::new()
            .link(1, 0, dead)
            .link(2, 0, dead)
            .link(3, 0, dead)
            .link(0, 3, dead)
            .crash_at(50_000, 0);
        let mut sim = Simulation::new(cluster_batched(n, cfg), NetConfig::default(), 23);
        sim.set_fault_plan(plan);
        for i in 0..24 {
            submit(&mut sim, 0, i);
        }
        sim.run_until(50_000);
        let prepared = sim.node(1).core.prepared_certificates();
        assert!(!prepared.is_empty(), "no batch prepared mid-flight");
        assert!(
            prepared.iter().any(|(_, _, b)| b.len() > 1),
            "test construction must prepare a multi-command batch"
        );
        assert_eq!(sim.node(1).core.executed_commands(), 0, "nothing may commit pre-crash");
        let (_, _, cert_batch) = prepared[0].clone();
        let ok = sim.run_until_pred(30_000_000, |nodes| {
            (1..4).all(|i| nodes[i].core.executed_commands() >= 24)
        });
        assert!(ok, "survivors failed to finish the batches after the crash");
        assert!(sim.node(1).core.view() >= 1, "a view change must have happened");
        let reference = ids_of(sim.node(1));
        for i in 2..4 {
            assert_eq!(ids_of(sim.node(i)), reference, "replica {i} diverged");
        }
        // No loss, no duplication across the NewView.
        let mut sorted = reference.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        // The prepared batch survived as a unit: its commands executed
        // contiguously and in batch order at every survivor.
        let cert_ids: Vec<u64> = cert_batch.commands().iter().map(|c| c.id).collect();
        let pos = reference
            .windows(cert_ids.len())
            .position(|w| w == cert_ids.as_slice())
            .expect("prepared batch must be replayed intact and in order");
        let _ = pos;
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed| {
            let mut sim = Simulation::new(cluster(4), NetConfig::default(), seed);
            for i in 0..10 {
                submit(&mut sim, 0, i);
            }
            sim.run_until(2_000_000);
            sim.node(2)
                .core
                .executed()
                .iter()
                .map(|d| (d.slot, d.command.id, d.at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    /// The stable-slot floor as a scan of every batch from sequence 1.
    fn floor_by_scan(core: &PbftCore) -> u64 {
        core.executed_batches
            .iter()
            .take_while(|(seq, _, _)| *seq <= core.stable_seq)
            .map(|(_, batch, _)| batch.len() as u64)
            .sum()
    }

    /// Executes `batch` at `seq` and, beside it, extends the per-command
    /// history the executed batches replaced: the differential
    /// reference.
    fn record(core: &mut PbftCore, reference: &mut Vec<Decided>, seq: u64, batch: Batch, at: u64) {
        for command in batch.commands() {
            let slot = reference.len() as u64 + 1;
            reference.push(Decided { slot, command: command.clone(), at });
        }
        core.record_execution(seq, batch, at);
    }

    /// Every per-command accessor of the executed history answers as
    /// the per-command reference vector does.
    fn assert_matches_reference(core: &PbftCore, reference: &[Decided], absent: u64) {
        let got: Vec<(u64, u64, u64)> =
            core.executed().iter().map(|d| (d.slot, d.command.id, d.at)).collect();
        let want: Vec<(u64, u64, u64)> =
            reference.iter().map(|d| (d.slot, d.command.id, d.at)).collect();
        assert_eq!(got, want);
        assert_eq!(core.executed().len(), reference.len());
        for id in reference.iter().map(|d| d.command.id).chain([absent]) {
            let slot = reference.iter().rev().find(|d| d.command.id == id).map(|d| d.slot);
            assert_eq!(core.slot_of(id), slot, "slot_of({id})");
        }
        let ids: Vec<u64> =
            reference.iter().map(|d| d.command.id).filter(|&id| id != NOOP_ID).collect();
        assert_eq!(core.executed_commands(), ids.len());
        let distinct: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(core.distinct_executed_commands(), distinct.len());
        assert_eq!(core.stable_slot_floor(), floor_by_scan(core));
    }

    #[test]
    fn the_executed_view_answers_as_the_per_command_history_did() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let absent = u64::MAX - 1;
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut core = PbftCore::new(0, vec![0, 1, 2, 3], Byzantine::Honest);
            let mut reference = Vec::new();
            assert_matches_reference(&core, &reference, absent);
            let mut fresh = 0u64;
            for seq in 1..=rng.gen_range(1..40u64) {
                let commands = (0..rng.gen_range(1..=6))
                    .map(|_| {
                        let id = match rng.gen_range(0..10) {
                            0 => NOOP_ID,
                            1 if fresh > 0 => rng.gen_range(0..fresh), // committed twice
                            _ => {
                                fresh += 1;
                                fresh - 1
                            }
                        };
                        Command::new(id, format!("cmd-{id}"))
                    })
                    .collect();
                let at = seq * 100 + rng.gen_range(0..50);
                record(&mut core, &mut reference, seq, Batch::new(commands), at);
                // Stable checkpoints may lag, match or (certified by
                // others) lead what this replica executed.
                core.stable_seq = rng.gen_range(0..=seq + 2);
                assert_matches_reference(&core, &reference, absent);
            }
            let mut installed = PbftCore::new(1, vec![0, 1, 2, 3], Byzantine::Honest);
            installed.install_history(core.executed_batches().to_vec(), Vec::new(), Vec::new());
            installed.stable_seq = core.stable_seq;
            assert_eq!(installed.state_digest(), core.state_digest());
            assert_matches_reference(&installed, &reference, absent);
        }
    }
}
