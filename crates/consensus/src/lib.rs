//! # prever-consensus
//!
//! Replicated-log consensus protocols over the [`prever_sim`] simulator.
//!
//! PReVer's federated deployments need "establishing consensus among all
//! involved data managers" (RC4), and §6 of the paper fixes the baseline
//! set: *"the distributed solutions should be compared in terms of
//! throughput and latency with standard distributed fault-tolerant
//! protocols, e.g., Paxos and PBFT."* This crate implements all three
//! systems the comparison needs:
//!
//! * [`paxos`] — Multi-Paxos with a stable leader, the crash-fault
//!   baseline (the "trusted but unreliable" end of the spectrum);
//! * [`pbft`] — Practical Byzantine Fault Tolerance with the full
//!   three-phase protocol, view changes, and pluggable Byzantine
//!   behaviors for fault-injection testing — the substrate the paper's
//!   permissioned-blockchain infrastructure (Hyperledger Fabric,
//!   SharPer, Qanaat) builds on;
//! * [`sharded`] — a SharPer-style sharded deployment: independent PBFT
//!   clusters per shard with cross-shard transactions executed under a
//!   cross-shard commit barrier (see DESIGN.md for the fidelity note).
//!
//! All protocols expose the same observable: an ordered, executed log of
//! [`Command`]s with per-command decision timestamps, which the benches
//! turn into the throughput/latency series of experiments E3 and E7.
//!
//! ## Batched ordering
//!
//! Since DESIGN.md §11 the unit of replication is a [`Batch`] of
//! commands, not a single command: the leader/primary accumulates client
//! commands under a [`BatchConfig`] (max size, max fill delay, bounded
//! in-flight window) and runs one agreement round per batch. The batch
//! digest is a Merkle root (RFC 6962 shape, via `prever_crypto::merkle`)
//! over the cached per-command digests, so per-command digests are
//! computed once and vote messages stay constant-size no matter how
//! large the batch is. [`BatchConfig::default`] is one command per batch
//! with an unbounded window — byte-identical behavior to the pre-batching
//! protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod paxos;
pub mod pbft;
pub mod sharded;

use bytes::Bytes;
use prever_crypto::merkle::MerkleTree;
use prever_crypto::Digest;
use prever_obs::TraceCtx;
use prever_sim::NodeId;
use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::{Arc, OnceLock};

/// An opaque replicated command (e.g. an encoded PReVer update).
///
/// Commands carry a client-assigned id so benches can match decisions
/// back to submissions.
///
/// The content digest is cached on first use ([`Command::digest`]), so
/// `id` and `payload` must be treated as immutable once a digest has
/// been taken — construct a fresh command via [`Command::new`] instead
/// of mutating in place.
#[derive(Debug, Default)]
pub struct Command {
    /// Client-assigned unique id.
    pub id: u64,
    /// Opaque payload. `Bytes`, not `Vec<u8>`: commands are cloned on
    /// every fan-out, batch assembly, and log append, and a refcounted
    /// slice makes each of those O(1) instead of a payload deep copy
    /// (see `tests/alloc.rs`).
    pub payload: Bytes,
    /// Compute-once digest cache (satellite of DESIGN.md §11: the hot
    /// path hashes each command exactly once, batching then reuses the
    /// cached leaves for the Merkle batch digest).
    cached_digest: OnceLock<Digest>,
    /// Causal trace context, minted at submission (DESIGN.md §13). A
    /// pure function of `id`, so wire decode and id-only pipeline paths
    /// (the cross-shard decision fan-out) re-derive the identical
    /// context; excluded from equality/hash/ordering for that reason.
    pub trace: TraceCtx,
}

impl Command {
    /// Builds a command, minting its deterministic trace context.
    pub fn new(id: u64, payload: impl Into<Bytes>) -> Self {
        Command {
            id,
            payload: payload.into(),
            cached_digest: OnceLock::new(),
            trace: TraceCtx::for_command(id),
        }
    }

    /// A content digest used where PBFT messages carry `D(m)`.
    /// Computed on first call, cached thereafter.
    pub fn digest(&self) -> Digest {
        *self
            .cached_digest
            .get_or_init(|| {
                prever_crypto::sha256::sha256_concat(&[&self.id.to_be_bytes(), &self.payload[..]])
            })
    }
}

impl Clone for Command {
    fn clone(&self) -> Self {
        Command {
            id: self.id,
            payload: self.payload.clone(),
            cached_digest: self.cached_digest.clone(),
            trace: self.trace,
        }
    }
}

impl PartialEq for Command {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.payload == other.payload
    }
}
impl Eq for Command {}

impl std::hash::Hash for Command {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
        self.payload.hash(state);
    }
}

impl PartialOrd for Command {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Command {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.id, &self.payload).cmp(&(other.id, &other.payload))
    }
}

/// An ordered group of commands replicated as one unit: one 3-phase
/// round (PBFT) or one accept (Paxos) orders the whole batch.
///
/// Cloning is an `Arc` bump — broadcast fan-out shares one allocation
/// instead of deep-copying every command per destination (the clone-cut
/// satellite of DESIGN.md §11). Equality compares the Merkle digest.
#[derive(Clone, Debug)]
pub struct Batch {
    inner: Arc<BatchInner>,
}

#[derive(Debug)]
struct BatchInner {
    commands: Vec<Command>,
    /// Compute-once, like [`Command::digest`]: a batch that is only
    /// carried and unpacked (a relayed `Request`, a decoded journal
    /// record) hashes nothing, and clones share the one result.
    digest: OnceLock<Digest>,
}

impl Batch {
    /// Builds a batch over `commands`. Nothing is hashed until something
    /// asks for [`Batch::digest`].
    pub fn new(commands: Vec<Command>) -> Self {
        Batch { inner: Arc::new(BatchInner { commands, digest: OnceLock::new() }) }
    }

    /// A batch of one command.
    pub fn single(command: Command) -> Self {
        Self::new(vec![command])
    }

    /// The Merkle root (RFC 6962 tree) over the cached per-command
    /// digests. This is the `D(m)` that PBFT prepare/commit votes and
    /// durable vote bindings carry. Computed on first call, cached
    /// thereafter.
    pub fn digest(&self) -> Digest {
        *self.inner.digest.get_or_init(|| {
            let mut tree = MerkleTree::new();
            for c in &self.inner.commands {
                tree.append(c.digest().as_bytes());
            }
            tree.root()
        })
    }

    /// The batched commands, in execution order.
    pub fn commands(&self) -> &[Command] {
        &self.inner.commands
    }

    /// Number of commands in the batch.
    pub fn len(&self) -> usize {
        self.inner.commands.len()
    }

    /// True iff the batch holds no commands.
    pub fn is_empty(&self) -> bool {
        self.inner.commands.is_empty()
    }

    /// True iff any command in the batch has the given client id.
    pub fn contains_id(&self, id: u64) -> bool {
        self.inner.commands.iter().any(|c| c.id == id)
    }

    /// Records trace stage `stage` of slot `seq` at node `me` for every
    /// command of the batch, as a child of stage `parent` (or of the
    /// command's root context). Nothing is recorded unless tracing is on.
    pub(crate) fn stamp(
        &self,
        me: NodeId,
        at: u64,
        parent: Option<&str>,
        stage: &'static str,
        seq: u64,
    ) {
        if !prever_obs::trace::active() {
            return;
        }
        let me = me as u64;
        for c in &self.inner.commands {
            let ctx = parent.map_or(c.trace, |p| c.trace.child(p, me));
            prever_obs::trace::event(me, at, ctx, stage, seq);
        }
    }

    /// Length-framed wire/disk encoding: `count(u32) ‖ (id(u64) ‖
    /// len(u32) ‖ payload)*`. Inverse of [`Batch::decode`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u32).to_be_bytes());
        for c in &self.inner.commands {
            buf.extend_from_slice(&c.id.to_be_bytes());
            buf.extend_from_slice(&(c.payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(&c.payload);
        }
    }

    /// Decodes a batch from `buf`; returns the batch and the number of
    /// bytes consumed, or `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<(Batch, usize)> {
        let count = u32::from_be_bytes(buf.get(..4)?.try_into().ok()?) as usize;
        let mut at = 4usize;
        let mut commands = Vec::with_capacity(count);
        for _ in 0..count {
            let id = u64::from_be_bytes(buf.get(at..at + 8)?.try_into().ok()?);
            let len = u32::from_be_bytes(buf.get(at + 8..at + 12)?.try_into().ok()?) as usize;
            let payload = buf.get(at + 12..at + 12 + len)?.to_vec();
            commands.push(Command::new(id, payload));
            at += 12 + len;
        }
        Some((Batch::new(commands), at))
    }
}

impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.digest() == other.digest()
    }
}
impl Eq for Batch {}

/// Batching/pipelining knobs for the ordering protocols.
///
/// The leader accumulates client commands and cuts a batch when it holds
/// `max_batch` commands or the oldest has waited `max_delay` µs,
/// whichever comes first, subject to at most `window` unexecuted batches
/// in flight (pipelining depth). The default — one command per batch,
/// no delay, unbounded window — reproduces unbatched behavior exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum commands per batch (≥ 1).
    pub max_batch: usize,
    /// Maximum µs the oldest accumulated command may wait before the
    /// batch is cut short.
    pub max_delay: u64,
    /// Maximum unexecuted batches concurrently in flight.
    pub window: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch: 1, max_delay: 0, window: usize::MAX }
    }
}

impl BatchConfig {
    /// Builds a config; `max_batch` is clamped to at least 1 and
    /// `window` to at least 1.
    pub fn new(max_batch: usize, max_delay: u64, window: usize) -> Self {
        BatchConfig { max_batch: max_batch.max(1), max_delay, window: window.max(1) }
    }

    /// The batch-cut rule every ordering protocol shares. `queue` holds
    /// commands with their arrival times, oldest first; it is cut when it
    /// holds `max_batch` commands, when its oldest has waited `max_delay`
    /// µs, or when `urgent`, and a cut drains the first
    /// `min(len, max_batch)`. `None` when nothing is ready. Callers keep
    /// their own window gate, filtering and metrics.
    pub(crate) fn cut(
        &self,
        queue: &mut VecDeque<(Command, u64)>,
        now: u64,
        urgent: bool,
    ) -> Option<Vec<(Command, u64)>> {
        let &(_, oldest) = queue.front()?;
        let ready =
            urgent || queue.len() >= self.max_batch || now.saturating_sub(oldest) >= self.max_delay;
        ready.then(|| queue.drain(..queue.len().min(self.max_batch)).collect())
    }

    /// When [`Self::cut`] next becomes ready for `queue` by age alone (at
    /// once while `urgent`), so a host can arm a timer for it. `None` for
    /// an empty queue, and always `None` when `max_delay` is 0: every cut
    /// is then immediate and no timer is needed.
    pub(crate) fn deadline(&self, queue: &VecDeque<(Command, u64)>, urgent: bool) -> Option<u64> {
        if self.max_delay == 0 {
            return None;
        }
        let &(_, oldest) = queue.front()?;
        Some(oldest + if urgent { 0 } else { self.max_delay })
    }
}

/// One executed log entry with its decision time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decided {
    /// Log position.
    pub slot: u64,
    /// The command.
    pub command: Command,
    /// Virtual time (µs) at which this node learned the decision.
    pub at: u64,
}

/// A set of command ids, hashed by [`IdHasher`].
pub(crate) type IdSet = HashSet<u64, IdHasher>;

/// The `BuildHasher` of every command-id set in this crate.
///
/// Command ids come from clients over the wire, so an unkeyed hash would
/// let a tenant pick ids that share a bucket. Each set draws its own
/// 64-bit key from [`RandomState`], and an id hashes as MurmurHash3's
/// 64-bit finalizer over `id ⊕ key`: five arithmetic steps where SipHash
/// runs a dozen rounds. The key moves entries between buckets, never in
/// or out of a set, and nothing iterates these sets to decide what is
/// sent or in what order, so no execution depends on it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IdHasher(u64);

impl Default for IdHasher {
    fn default() -> Self {
        IdHasher(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for IdHasher {
    type Hasher = IdHash;

    fn build_hasher(&self) -> IdHash {
        IdHash(self.0)
    }
}

/// The [`Hasher`] an [`IdHasher`] builds; its state starts at the key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IdHash(u64);

impl Hasher for IdHash {
    fn write_u64(&mut self, id: u64) {
        let mut h = self.0 ^ id;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        self.0 = h ^ (h >> 33);
    }

    /// Keys other than `u64` (none in this crate) mix in byte by byte.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_digest_is_cached_and_stable() {
        let c = Command::new(7, b"alpha".to_vec());
        let d1 = c.digest();
        let d2 = c.digest();
        assert_eq!(d1, d2);
        // The clone carries the cache and agrees.
        assert_eq!(c.clone().digest(), d1);
        // A fresh command with identical content agrees too.
        assert_eq!(Command::new(7, b"alpha".to_vec()).digest(), d1);
        assert_ne!(Command::new(8, b"alpha".to_vec()).digest(), d1);
    }

    #[test]
    fn batch_digest_is_merkle_root_over_command_digests() {
        let cmds: Vec<Command> = (0..5).map(|i| Command::new(i, format!("c{i}"))).collect();
        let mut tree = MerkleTree::new();
        for c in &cmds {
            tree.append(c.digest().as_bytes());
        }
        let batch = Batch::new(cmds);
        assert_eq!(batch.digest(), tree.root());
        assert_eq!(batch.len(), 5);
        assert!(batch.contains_id(3));
        assert!(!batch.contains_id(9));
    }

    // Counted, not timed.
    #[test]
    fn a_batch_nobody_asks_the_digest_of_hashes_nothing() {
        use prever_obs::work::{measure, Unit::Sha256Compress};
        let commands = || (0..8).map(|i| Command::new(i, vec![i as u8; 8])).collect::<Vec<_>>();
        // A relayed request: built, carried, unpacked.
        let relayed = measure(|| {
            let msg = pbft::PbftMsg::Request(Batch::new(commands()));
            let pbft::PbftMsg::Request(batch) = &msg else { unreachable!() };
            assert_eq!(batch.commands().len(), 8);
            assert!(batch.contains_id(3));
            drop(batch.clone());
        })
        .1[Sha256Compress];
        assert_eq!(relayed, 0, "building and unpacking a relay Request hashed");
        // A batch read back from its encoding (a journal record).
        let mut buf = Vec::new();
        Batch::new(commands()).encode_into(&mut buf);
        let decoded = measure(|| {
            let (batch, _) = Batch::decode(&buf).expect("decodes");
            assert_eq!(batch.len(), 8);
        })
        .1[Sha256Compress];
        assert_eq!(decoded, 0, "encoding and decoding a batch hashed");
    }

    #[test]
    fn batch_digest_builds_the_tree_once() {
        use prever_obs::work::{measure, Unit::Sha256Compress};
        let batch = Batch::new((0..8).map(|i| Command::new(i, vec![i as u8; 8])).collect());
        // 8 command digests and 8 leaf hashes of one block each, 7
        // interior nodes of two (65 bytes pad into a second block).
        let first = measure(|| batch.digest()).1[Sha256Compress];
        assert_eq!(first, 8 + 8 + 7 * 2);
        let copy = batch.clone();
        let again = measure(|| {
            assert_eq!(batch.digest(), copy.digest());
            assert_eq!(batch, copy);
        })
        .1[Sha256Compress];
        assert_eq!(again, 0, "a second digest(), a clone's digest() or == hashed again");
    }

    #[test]
    fn batch_digest_orders_and_contents_matter() {
        let a = Batch::new(vec![Command::new(1, "x"), Command::new(2, "y")]);
        let b = Batch::new(vec![Command::new(2, "y"), Command::new(1, "x")]);
        assert_ne!(a.digest(), b.digest(), "order must be authenticated");
        let c = Batch::new(vec![Command::new(1, "x"), Command::new(2, "z")]);
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a, b);
        assert_eq!(a, Batch::new(vec![Command::new(1, "x"), Command::new(2, "y")]));
    }

    #[test]
    fn batch_encode_decode_roundtrip() {
        let batch = Batch::new(vec![
            Command::new(1, b"".to_vec()),
            Command::new(u64::MAX, b"payload-with-\x00-bytes".to_vec()),
            Command::new(42, vec![0xab; 300]),
        ]);
        let mut buf = vec![0xfe]; // leading junk the caller frames past
        batch.encode_into(&mut buf);
        let (decoded, used) = Batch::decode(&buf[1..]).expect("decodes");
        assert_eq!(used, buf.len() - 1);
        assert_eq!(decoded, batch);
        assert_eq!(decoded.commands(), batch.commands());
        // Truncated input is rejected, not mis-parsed.
        assert!(Batch::decode(&buf[1..buf.len() - 1]).is_none());
    }

    #[test]
    fn batch_clone_shares_the_allocation() {
        let batch = Batch::new(vec![Command::new(1, vec![0u8; 1024])]);
        let copy = batch.clone();
        assert!(Arc::ptr_eq(&batch.inner, &copy.inner));
    }

    #[test]
    fn batch_config_default_is_unbatched() {
        let cfg = BatchConfig::default();
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.max_delay, 0);
        assert_eq!(cfg.window, usize::MAX);
        assert_eq!(BatchConfig::new(0, 5, 0), BatchConfig { max_batch: 1, max_delay: 5, window: 1 });
    }

    /// A queue of `len` commands, the oldest arriving at `oldest` and one
    /// more every µs after it.
    fn queue(len: u64, oldest: u64) -> VecDeque<(Command, u64)> {
        (0..len).map(|i| (Command::new(i, "q"), oldest + i)).collect()
    }

    fn ids(cut: Option<Vec<(Command, u64)>>) -> Option<Vec<u64>> {
        cut.map(|drained| drained.iter().map(|(c, _)| c.id).collect())
    }

    #[test]
    fn batch_cut_takes_a_full_queue_up_to_max_batch() {
        let cfg = BatchConfig::new(4, 1_000, 1);
        // Full at 4: cut at once, long before the fill delay.
        let mut q = queue(6, 100);
        assert_eq!(ids(cfg.cut(&mut q, 100, false)), Some(vec![0, 1, 2, 3]));
        // Two left: neither full nor aged, so they wait.
        assert_eq!(ids(cfg.cut(&mut q, 100, false)), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn batch_cut_ships_an_aged_partial_queue() {
        let cfg = BatchConfig::new(8, 1_000, 1);
        let mut q = queue(3, 100);
        assert_eq!(ids(cfg.cut(&mut q, 1_099, false)), None, "one µs short of max_delay");
        assert_eq!(cfg.deadline(&q, false), Some(1_100));
        assert_eq!(ids(cfg.cut(&mut q, 1_100, false)), Some(vec![0, 1, 2]));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_cut_urgent_ships_at_once_and_is_due_now() {
        let cfg = BatchConfig::new(8, 1_000, 1);
        let mut q = queue(2, 100);
        assert_eq!(cfg.deadline(&q, true), Some(100));
        assert_eq!(ids(cfg.cut(&mut q, 100, true)), Some(vec![0, 1]));
        // Urgent still takes at most max_batch.
        let mut q = queue(10, 100);
        assert_eq!(cfg.cut(&mut q, 100, true).map(|d| d.len()), Some(8));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn batch_cut_without_a_fill_delay_is_always_ready_and_needs_no_timer() {
        let cfg = BatchConfig::default();
        let mut q = queue(3, 100);
        assert_eq!(cfg.deadline(&q, false), None);
        assert_eq!(cfg.deadline(&q, true), None);
        // max_batch 1: one command per cut, with no time passing.
        assert_eq!(ids(cfg.cut(&mut q, 100, false)), Some(vec![0]));
        assert_eq!(ids(cfg.cut(&mut q, 100, false)), Some(vec![1]));
        let batched = BatchConfig::new(8, 0, 1);
        assert_eq!(ids(batched.cut(&mut q, 100, false)), Some(vec![2]));
    }

    #[test]
    fn batch_cut_of_an_empty_queue_is_nothing() {
        let cfg = BatchConfig::new(8, 1_000, 1);
        let mut q = VecDeque::new();
        assert!(cfg.cut(&mut q, 5_000, true).is_none());
        assert_eq!(cfg.deadline(&q, false), None);
        assert_eq!(cfg.deadline(&q, true), None);
    }
}
