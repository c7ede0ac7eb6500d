//! Durable consensus state over a crash-consistent persistent journal.
//!
//! A [`DurableLog`] models a replica's disk: a
//! [`prever_ledger::PersistentJournal`] over a pair of simulated disks
//! ([`DurableMedia`]), a CRC-framed WAL plus a snapshot medium, with a
//! write-back cache whose unflushed bytes die (or tear) on crash. The
//! log is a plain value owned by the replica host that appends to it;
//! only the media are shared, with the harness that crashes and
//! corrupts them, and a restarted replica reopens its log from the media
//! ([`DurableLog::recover`]), never from a surviving object. A replica
//! appends three kinds of records while running:
//!
//! * **Exec** — one per executed *batch*, in batch-sequence order
//!   (since DESIGN.md §11 the batch is the unit of agreement, so it is
//!   also the unit of durability: one record and at most one flush
//!   barrier per ordering round instead of per command). Replaying the
//!   exec records rebuilds the executed history (and hence the chained
//!   state digest) of everything the replica had applied before it
//!   died.
//! * **Bind** — a `(seq, view, digest)` vote binding, written *before*
//!   the replica's prepare vote for that slot leaves the outbox. After a
//!   restart the bindings stop the recovered replica from voting for a
//!   *different* command at a sequence it already voted on in the same
//!   or an older view — the classic amnesia hazard that turns a correct
//!   replica into an accidental equivocator.
//! * **Prep** — a `(seq, view, batch)` prepared certificate, written
//!   when a slot reaches the prepared predicate and *before* the commit
//!   vote leaves. A commit vote claims "I hold a prepared certificate";
//!   if the replica then restarts with amnesia, a subsequent view
//!   change could otherwise no-op-fill a slot that committed at a
//!   single correct replica on the strength of this replica's vote —
//!   replaying the Prep records lets the recovered replica re-assert
//!   the certificates it once claimed.
//!
//! ## Flush discipline
//!
//! Bind and Prep records are **flushed before the corresponding vote
//! leaves** — their whole point is to outlive a crash that happens after
//! the vote is on the wire; an unflushed binding is no binding at all.
//! Exec records are redundant with the cluster (a recovered replica can
//! re-fetch executed history via state transfer), so they may ride a
//! [`FlushPolicy`]: `Always` flushes per append, `Every(n)` leaves them
//! in the write-back cache until every n-th
//! [`DurableLog::commit_dispatch`] — the group-commit point the owning
//! node calls once per simulator dispatch.
//!
//! ## What stays in memory
//!
//! The records live on the media. The log holds the journal's length
//! and chain head (what the next append chains to), the flush policy's
//! counter, and one buffer every record is encoded into; nothing per
//! record.
//!
//! On recovery ([`DurableLog::recover`]) the chain is recomputed from
//! the last valid snapshot plus WAL tail replay, streamed; a torn tail
//! is truncated (those records were never acked), while corruption of
//! durable bytes fails loudly. [`DurableLog::replay`] then reads the
//! records back from the media in one pass and fails unless the chain
//! it recomputes equals the head held in memory, so a corrupted "disk"
//! is detected rather than silently trusted. It holds each batch once:
//! a Bind or Prep record is dropped as soon as the Exec record of its
//! sequence is read, so it returns them only above the last Exec record,
//! the only ones a recovering replica still needs.

use crate::Batch;
use prever_crypto::Digest;
use prever_ledger::{LedgerDigest, LedgerError, PersistReport, PersistentJournal};
use prever_storage::SharedDisk;

const TAG_EXEC: u8 = 0x01;
const TAG_BIND: u8 = 0x02;
const TAG_PREP: u8 = 0x03;

/// When exec records reach the platter (bind/prep records always flush
/// immediately — see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush after every exec append (safest, most barriers).
    Always,
    /// Group commit: flush pending exec records on every n-th
    /// [`DurableLog::commit_dispatch`]. `Every(0)` behaves as `Every(1)`.
    Every(u64),
}

/// The pair of simulated disks backing one replica: WAL + snapshot
/// medium. The one shared part of a replica's durable state: the
/// harness keeps these across restarts, injects crashes and corruption
/// into them, and reopens the replica's [`DurableLog`] from them.
#[derive(Clone, Debug)]
pub struct DurableMedia {
    /// The write-ahead-log disk.
    pub wal: SharedDisk,
    /// The snapshot disk.
    pub snap: SharedDisk,
}

impl DurableMedia {
    /// Fresh media; `seed` drives the disks' torn-write/corruption RNG.
    pub fn new(seed: u64) -> Self {
        DurableMedia {
            wal: SharedDisk::new(seed),
            snap: SharedDisk::new(seed ^ 0x5eed_5eed_5eed_5eed),
        }
    }

    /// Crash both disks with torn-write semantics; returns bytes lost.
    pub fn crash(&self) -> u64 {
        self.wal.crash() + self.snap.crash()
    }

    /// Crash both disks dropping the entire write-back cache.
    pub fn crash_dropping_cache(&self) -> u64 {
        self.wal.crash_dropping_cache() + self.snap.crash_dropping_cache()
    }

    /// Corrupts one seeded flushed sector of the WAL disk.
    pub fn corrupt(&self) -> bool {
        self.wal.corrupt_random_flushed_sector()
    }

    /// Wipes both disks (a disk swap after detected corruption).
    pub fn wipe(&self) {
        self.wal.wipe();
        self.snap.wipe();
    }
}

/// A hash-chained, crash-consistent durable log (one per replica
/// "disk"), owned by the replica host that appends to it.
#[derive(Debug)]
pub struct DurableLog {
    pj: PersistentJournal<SharedDisk>,
    policy: FlushPolicy,
    dispatches: u64,
    /// Every record is encoded here before it is appended.
    buf: Vec<u8>,
}

impl Default for DurableLog {
    fn default() -> Self {
        Self::on(&DurableMedia::new(0))
    }
}

/// State decoded from a [`DurableLog`] replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayedState {
    /// Executed batches as `(batch seq, batch, decided_at)`, in append
    /// (= sequence) order.
    pub entries: Vec<(u64, Batch, u64)>,
    /// Vote bindings as `(seq, view, digest)`, in append order, for
    /// sequences above the last executed batch.
    pub bindings: Vec<(u64, u64, Digest)>,
    /// Prepared certificates as `(seq, view, batch)`, in append order,
    /// for sequences above the last executed batch.
    pub prepared: Vec<(u64, u64, Batch)>,
}

impl DurableLog {
    /// A fresh, empty log on its own private media.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh log over existing (empty) media, which the caller keeps
    /// for fault injection and recovery.
    pub fn on(media: &DurableMedia) -> Self {
        Self::over(PersistentJournal::create(media.wal.clone(), media.snap.clone()))
    }

    /// Reopens a log from whatever survived on `media` after a crash:
    /// snapshot load + WAL tail replay (torn tail truncated), then the
    /// caller typically [`Self::replay`]s it into a recovering node.
    ///
    /// Fails loudly on corrupted durable bytes.
    pub fn recover(media: &DurableMedia) -> Result<(Self, PersistReport), LedgerError> {
        let (pj, report) = PersistentJournal::recover(media.wal.clone(), media.snap.clone())?;
        Ok((Self::over(pj), report))
    }

    fn over(pj: PersistentJournal<SharedDisk>) -> Self {
        DurableLog { pj, policy: FlushPolicy::Always, dispatches: 0, buf: Vec::new() }
    }

    /// Sets the exec-record flush policy (chainable).
    pub fn with_policy(mut self, policy: FlushPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.pj.len() as usize
    }

    /// True iff nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.pj.is_empty()
    }

    /// Records known durable — the acked watermark the durability
    /// invariant is checked against.
    pub fn flushed_records(&self) -> u64 {
        self.pj.flushed_entries()
    }

    /// Appends an executed batch at batch sequence `seq`, decided at
    /// virtual time `at`. One record per ordering round; durability
    /// governed by the [`FlushPolicy`].
    pub fn append_exec(&mut self, seq: u64, batch: &Batch, at: u64) {
        self.buf.clear();
        self.buf.push(TAG_EXEC);
        self.buf.extend_from_slice(&seq.to_be_bytes());
        batch.encode_into(&mut self.buf);
        self.pj.append(at, &self.buf);
        if self.policy == FlushPolicy::Always {
            self.pj.flush();
        }
    }

    /// Appends a `(seq, view, digest)` vote binding — flushed
    /// immediately, before the vote may leave.
    pub fn append_bind(&mut self, seq: u64, view: u64, digest: &Digest) {
        self.buf.clear();
        self.buf.push(TAG_BIND);
        self.buf.extend_from_slice(&seq.to_be_bytes());
        self.buf.extend_from_slice(&view.to_be_bytes());
        self.buf.extend_from_slice(digest.as_bytes());
        self.pj.append(0, &self.buf);
        self.pj.flush();
    }

    /// Appends a `(seq, view, batch)` prepared certificate — flushed
    /// immediately, before the commit vote may leave.
    pub fn append_prep(&mut self, seq: u64, view: u64, batch: &Batch) {
        self.buf.clear();
        self.buf.push(TAG_PREP);
        self.buf.extend_from_slice(&seq.to_be_bytes());
        self.buf.extend_from_slice(&view.to_be_bytes());
        batch.encode_into(&mut self.buf);
        self.pj.append(0, &self.buf);
        self.pj.flush();
    }

    /// The group-commit point: the owning node calls this once per
    /// simulator dispatch; pending exec records are flushed according to
    /// the [`FlushPolicy`].
    pub fn commit_dispatch(&mut self) {
        self.dispatches += 1;
        let due = match self.policy {
            FlushPolicy::Always => true,
            FlushPolicy::Every(n) => self.dispatches.is_multiple_of(n.max(1)),
        };
        if due && self.pj.flushed_entries() < self.pj.len() {
            self.pj.flush();
        }
    }

    /// Forces everything staged to disk.
    pub fn flush(&mut self) {
        self.pj.flush();
    }

    /// Snapshot + WAL truncation (also a durability point). Fails, and
    /// changes nothing, if the media no longer hold the log.
    pub fn compact(&mut self) -> Result<(), LedgerError> {
        self.pj.compact()
    }

    /// The ledger digest over everything appended so far, rebuilt from
    /// the media.
    pub fn digest(&self) -> Result<LedgerDigest, LedgerError> {
        self.pj.digest()
    }

    /// The digest as of the first `size` records, rebuilt from the media
    /// (prefix-consistency checks in the chaos harness).
    pub fn digest_at(&self, size: u64) -> Result<LedgerDigest, LedgerError> {
        self.pj.digest_at(size)
    }

    /// Reads the records back from the media in one pass and decodes
    /// them: every Exec record, and the Bind and Prep records for
    /// sequences above the last Exec record.
    ///
    /// Returns [`LedgerError::TamperDetected`] if the chain read back
    /// differs from the one this log appended or a record is malformed —
    /// a replica must refuse to rejoin from a disk it cannot trust.
    pub fn replay(&self) -> Result<ReplayedState, LedgerError> {
        let mut state = ReplayedState::default();
        self.pj.entries(|entry| {
            let p = &entry.payload[..];
            let malformed = LedgerError::TamperDetected("malformed durable record");
            let u64_at = |at: usize| u64::from_be_bytes(p[at..at + 8].try_into().expect("8 bytes"));
            match p.first() {
                Some(&TAG_EXEC) if p.len() >= 13 => {
                    let seq = u64_at(1);
                    let Some((batch, used)) = Batch::decode(&p[9..]) else {
                        return Err(malformed);
                    };
                    if used != p.len() - 9 {
                        return Err(malformed);
                    }
                    // Executed: this sequence's vote records are moot.
                    state.bindings.retain(|&(s, _, _)| s > seq);
                    state.prepared.retain(|&(s, _, _)| s > seq);
                    state.entries.push((seq, batch, entry.timestamp));
                }
                Some(&TAG_BIND) if p.len() == 49 => {
                    let mut d = [0u8; 32];
                    d.copy_from_slice(&p[17..49]);
                    state.bindings.push((u64_at(1), u64_at(9), Digest(d)));
                }
                Some(&TAG_PREP) if p.len() >= 21 => {
                    let Some((batch, used)) = Batch::decode(&p[17..]) else {
                        return Err(malformed);
                    };
                    if used != p.len() - 17 {
                        return Err(malformed);
                    }
                    state.prepared.push((u64_at(1), u64_at(9), batch));
                }
                _ => return Err(malformed),
            }
            Ok(())
        })?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Command;

    #[test]
    fn replay_roundtrips_execs_and_bindings() {
        let mut log = DurableLog::new();
        assert!(log.is_empty());
        // A multi-command batch exercises the length-framed encoding.
        let b1 = Batch::new(vec![
            Command::new(7, b"alpha".to_vec()),
            Command::new(8, b"".to_vec()),
        ]);
        let b2 = Batch::single(Command::new(9, b"beta".to_vec()));
        let b3 = Batch::single(Command::new(10, b"gamma".to_vec()));
        log.append_bind(1, 0, &b1.digest());
        log.append_prep(1, 0, &b1);
        log.append_bind(2, 3, &b2.digest());
        log.append_bind(3, 3, &b3.digest());
        log.append_exec(1, &b1, 1234);
        log.append_prep(2, 3, &b2);
        log.append_prep(3, 3, &b3);
        log.append_exec(2, &b2, 5678);
        log.append_bind(4, 3, &b1.digest());
        assert_eq!(log.len(), 9);
        assert_eq!(log.flushed_records(), 9, "Always policy flushes everything");

        let replayed = log.replay().expect("chain verifies");
        assert_eq!(
            replayed.entries,
            vec![(1, b1.clone(), 1234), (2, b2.clone(), 5678)]
        );
        assert_eq!(
            replayed.entries[0].1.commands(),
            b1.commands(),
            "batch contents round-trip"
        );
        // Only the vote records above the last executed batch (2)
        // come back, in append order.
        assert_eq!(
            replayed.bindings,
            vec![(3, 3, b3.digest()), (4, 3, b1.digest())]
        );
        assert_eq!(replayed.prepared, vec![(3, 3, b3.clone())]);
    }

    #[test]
    fn replay_rejects_malformed_records() {
        let mut log = DurableLog::new();
        log.pj.append(0, &[0x7f, 0x00]);
        assert!(matches!(
            log.replay(),
            Err(LedgerError::TamperDetected("malformed durable record"))
        ));
    }

    #[test]
    fn crash_recovery_keeps_flushed_records() {
        let media = DurableMedia::new(42);
        let mut log = DurableLog::on(&media).with_policy(FlushPolicy::Every(4));
        let b = |i: u64| Batch::single(Command::new(i, format!("cmd-{i}").into_bytes()));
        log.append_bind(1, 0, &b(1).digest()); // flushed
        log.append_exec(1, &b(1), 10); // staged
        log.append_exec(2, &b(2), 20); // staged
        assert_eq!(log.flushed_records(), 1);
        media.crash_dropping_cache();
        let (rec, report) = DurableLog::recover(&media).unwrap();
        assert_eq!(rec.len(), 1, "only the flushed binding survives");
        assert_eq!(report.frames_replayed, 1);
        let replayed = rec.replay().unwrap();
        assert_eq!(replayed.bindings.len(), 1);
        assert!(replayed.entries.is_empty());
    }

    #[test]
    fn commit_dispatch_groups_exec_flushes() {
        let media = DurableMedia::new(7);
        let mut log = DurableLog::on(&media).with_policy(FlushPolicy::Every(2));
        let b = Batch::single(Command::new(1, b"x".to_vec()));
        log.append_exec(1, &b, 1);
        log.commit_dispatch(); // dispatch 1 of 2: still pending
        assert_eq!(log.flushed_records(), 0);
        log.append_exec(2, &b, 2);
        log.commit_dispatch(); // dispatch 2: flush
        assert_eq!(log.flushed_records(), 2);
    }

    #[test]
    fn recovery_after_compaction_keeps_full_history() {
        let media = DurableMedia::new(9);
        let mut log = DurableLog::on(&media);
        let b = |i: u64| Batch::single(Command::new(i, format!("cmd-{i}").into_bytes()));
        for i in 1..=5 {
            log.append_exec(i, &b(i), i * 10);
        }
        log.compact().unwrap();
        for i in 6..=8 {
            log.append_exec(i, &b(i), i * 10);
        }
        let digest = log.digest().unwrap();
        media.crash(); // everything relevant already flushed (Always)
        let (rec, report) = DurableLog::recover(&media).unwrap();
        assert_eq!(rec.len(), 8);
        assert_eq!(rec.digest().unwrap(), digest);
        assert_eq!(report.snapshot_entries, 5);
        assert_eq!(rec.replay().unwrap().entries.len(), 8);
    }

    #[test]
    fn corrupted_media_fail_recovery_loudly() {
        let media = DurableMedia::new(11);
        let mut log = DurableLog::on(&media);
        for i in 1..=20 {
            log.append_exec(i, &Batch::single(Command::new(i, vec![0xab; 40])), i);
        }
        log.flush();
        assert!(media.corrupt());
        assert!(matches!(
            DurableLog::recover(&media),
            Err(LedgerError::TamperDetected(_))
        ));
    }
}
