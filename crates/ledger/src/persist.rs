//! Crash-consistent persistence for a journal: WAL + snapshots over a
//! [`StorageMedium`].
//!
//! The journal lives on the media. In memory a [`PersistentJournal`]
//! keeps only what the next append needs: the entry count, the chain
//! head (the last entry hash), the acked watermark and the two WALs.
//! Everything else — entries, digests, the snapshot — is read back from
//! the media when asked for.
//!
//! ## Layout
//!
//! Two media back one journal:
//!
//! * **WAL** — one CRC frame per journal entry, frame `seq` = entry
//!   `seq`, frame payload = `timestamp (u64 BE) ‖ payload`. Appends are
//!   staged in the medium's write-back cache; [`PersistentJournal::flush`]
//!   is the durability barrier.
//! * **Snapshot medium** — itself a WAL whose frames each hold a *full*
//!   encoded journal. Append-only, last valid frame wins. Making the
//!   snapshot a log rather than an overwritten file is what makes
//!   compaction crash-safe: a torn snapshot write simply falls back to
//!   the previous frame, and the real WAL has not been truncated yet.
//!
//! ## Appends and reads
//!
//! [`PersistentJournal::append`] frames the entry and chains its hash to
//! the head: one entry hash, no Merkle leaf, since nothing on the append
//! path reads a root. Reads stream the winning snapshot frame and then
//! the WAL frames at or above its base, recomputing the chain as they go:
//! [`PersistentJournal::entries`] hands out every entry,
//! [`PersistentJournal::digest_at`] rebuilds the [`LedgerDigest`] of the
//! first `k` entries in O(k). A read that covers the whole journal fails
//! with [`LedgerError::TamperDetected`] unless the recomputed length and
//! head equal the ones held in memory, so a frame rewritten on the media
//! with a valid CRC is caught. Reads change nothing on the media.
//!
//! ## Compaction ordering
//!
//! [`PersistentJournal::compact`] streams the media into one snapshot
//! frame, appends it, flushes the snapshot medium, and only then
//! truncates the WAL. Every crash point is covered:
//!
//! 1. crash before snapshot flush → torn/absent snapshot frame is
//!    truncated by snapshot recovery; the untouched WAL replays the
//!    full history from the previous snapshot;
//! 2. crash after snapshot flush, before WAL truncation → the new
//!    snapshot wins; stale WAL frames with `seq < base` are skipped;
//! 3. crash after truncation → clean state.
//!
//! ## Recovery
//!
//! `recover = snapshot load + tail replay`, streamed: the entries of the
//! last valid snapshot frame, then the WAL frames with `seq ≥ base`, are
//! chained in order (hashes are deterministic in `(seq, timestamp,
//! payload)`) and not retained. A torn WAL tail is truncated at the
//! first invalid frame (by the WAL layer); a sequence gap or CRC failure
//! in the durable region fails loudly as [`LedgerError::TamperDetected`].

use crate::journal::{leaf_bytes, JournalEntry, LedgerDigest};
use crate::{LedgerError, Result};
use bytes::Bytes;
use prever_crypto::merkle::MerkleTree;
use prever_crypto::sha256::Digest;
use prever_storage::{StorageError, StorageMedium, Wal};
use std::ops::ControlFlow;

/// What [`PersistentJournal::recover`] found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistReport {
    /// Entries restored from the winning snapshot frame.
    pub snapshot_entries: u64,
    /// WAL frames replayed on top of the snapshot.
    pub frames_replayed: u64,
    /// Torn bytes truncated across both media.
    pub truncated_bytes: u64,
    /// Stale WAL frames (`seq < base`) skipped — evidence of a crash
    /// between snapshot flush and WAL truncation.
    pub stale_frames_skipped: u64,
}

/// A journal whose every entry is staged to a write-ahead log, with
/// snapshot + WAL-truncation compaction. See the module docs.
#[derive(Clone, Debug)]
pub struct PersistentJournal<M: StorageMedium> {
    wal: Wal<M>,
    snap: Wal<M>,
    /// Entries appended (flushed or not) and the last entry hash.
    chain: Chain,
    /// Entries known durable: everything up to this count survives a
    /// crash (the "acked" watermark the durability invariant checks).
    flushed_entries: u64,
    /// Scratch for one WAL frame, reused by every append.
    frame: Vec<u8>,
}

/// A hash chain's running state: the entry count and the last entry
/// hash ([`Digest::ZERO`] when empty).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Chain {
    len: u64,
    head: Digest,
}

impl Chain {
    const EMPTY: Chain = Chain { len: 0, head: Digest::ZERO };

    /// Chains the next entry; returns its `(seq, prev_hash)`.
    fn push(&mut self, timestamp: u64, payload: &[u8]) -> (u64, Digest) {
        let (seq, prev) = (self.len, self.head);
        self.head = JournalEntry::compute_hash(seq, timestamp, &prev, payload);
        self.len += 1;
        (seq, prev)
    }
}

/// Hands each `(timestamp, payload)` a snapshot frame holds to `each`,
/// in order; returns the entry count. A snapshot frame is
/// `count ‖ (timestamp ‖ len ‖ payload)*`, every integer a u64 BE.
fn for_each_snapshot_entry(
    bytes: &[u8],
    mut each: impl FnMut(u64, &[u8]) -> Result<()>,
) -> Result<u64> {
    let take = |at: usize, n: usize| -> Result<&[u8]> {
        bytes
            .get(at..at.saturating_add(n))
            .ok_or(LedgerError::Storage(StorageError::Decode("snapshot frame truncated")))
    };
    let u64_at = |at: usize| -> Result<u64> {
        Ok(u64::from_be_bytes(take(at, 8)?.try_into().expect("8 bytes")))
    };
    let count = u64_at(0)?;
    let mut at = 8usize;
    for _ in 0..count {
        let timestamp = u64_at(at)?;
        let len = u64_at(at + 8)? as usize;
        each(timestamp, take(at + 16, len)?)?;
        at += 16 + len;
    }
    if at != bytes.len() {
        return Err(LedgerError::Storage(StorageError::Decode("snapshot frame has trailing bytes")));
    }
    Ok(count)
}

/// The entry a WAL frame holds, for a journal whose snapshot covers
/// `base` entries and whose next entry is `next`: `None` for a stale
/// frame the snapshot already covers (`seq < base`, left by a crash
/// between snapshot flush and WAL truncation).
fn wal_entry(base: u64, next: u64, seq: u64, frame: &[u8]) -> Result<Option<(u64, &[u8])>> {
    if seq < base {
        return Ok(None);
    }
    if seq != next {
        return Err(LedgerError::TamperDetected("wal sequence gap"));
    }
    let Some((timestamp, payload)) = frame.split_first_chunk::<8>() else {
        let short = StorageError::Decode("wal frame shorter than a timestamp");
        return Err(LedgerError::Storage(short));
    };
    Ok(Some((u64::from_be_bytes(*timestamp), payload)))
}

/// Keeps a copy of the last frame a scan of the snapshot medium hands
/// over: the winning snapshot.
fn keep_last(last: &mut Option<Vec<u8>>, frame: &[u8]) {
    let last = last.get_or_insert_with(Vec::new);
    last.clear();
    last.extend_from_slice(frame);
}

impl<M: StorageMedium> PersistentJournal<M> {
    /// A fresh persistent journal over two empty media.
    pub fn create(wal_medium: M, snap_medium: M) -> Self {
        PersistentJournal {
            wal: Wal::create(wal_medium, 0),
            snap: Wal::create(snap_medium, 0),
            chain: Chain::EMPTY,
            flushed_entries: 0,
            frame: Vec::new(),
        }
    }

    /// Recovers from whatever survived on the two media: last valid
    /// snapshot + WAL tail replay, streamed (no entry is retained).
    pub fn recover(wal_medium: M, snap_medium: M) -> Result<(Self, PersistReport)> {
        let mut report = PersistReport::default();

        let mut snapshot = None;
        let (snap, snap_rec) = Wal::recover_with(snap_medium, 0, |_, frame| {
            keep_last(&mut snapshot, frame);
            Ok::<_, LedgerError>(())
        })?;
        report.truncated_bytes += snap_rec.truncated_bytes;
        let mut chain = Chain::EMPTY;
        let base = match snapshot {
            Some(bytes) => for_each_snapshot_entry(&bytes, |timestamp, payload| {
                chain.push(timestamp, payload);
                Ok(())
            })?,
            None => 0,
        };
        report.snapshot_entries = base;

        let (wal, wal_rec) = Wal::recover_with(wal_medium, base, |seq, frame| {
            match wal_entry(base, chain.len, seq, frame)? {
                None => report.stale_frames_skipped += 1,
                Some((timestamp, payload)) => {
                    chain.push(timestamp, payload);
                    report.frames_replayed += 1;
                }
            }
            Ok::<_, LedgerError>(())
        })?;
        report.truncated_bytes += wal_rec.truncated_bytes;

        prever_obs::counter!("ledger.recoveries").inc();
        let journal = PersistentJournal {
            wal,
            snap,
            chain,
            flushed_entries: chain.len,
            frame: Vec::new(),
        };
        Ok((journal, report))
    }

    /// Appends `payload` at `timestamp` and returns its sequence number:
    /// chained to the head immediately, staged to the WAL, durable only
    /// after [`PersistentJournal::flush`].
    pub fn append(&mut self, timestamp: u64, payload: &[u8]) -> u64 {
        self.frame.clear();
        self.frame.extend_from_slice(&timestamp.to_be_bytes());
        self.frame.extend_from_slice(payload);
        let seq = self.wal.append(&self.frame);
        let (chained, _) = self.chain.push(timestamp, payload);
        debug_assert_eq!(seq, chained, "wal and chain sequences in lockstep");
        seq
    }

    /// Durability barrier: every entry appended so far survives a crash.
    pub fn flush(&mut self) {
        self.wal.flush();
        self.flushed_entries = self.chain.len;
    }

    /// Snapshot + WAL truncation. Also a durability point: the snapshot
    /// covers every entry, flushed or not. The snapshot frame is read
    /// from the media, so compaction fails (and changes nothing) if the
    /// media no longer hold the journal.
    pub fn compact(&mut self) -> Result<()> {
        let mut snapshot = self.chain.len.to_be_bytes().to_vec();
        self.read_all(|_, timestamp, payload, _, _| {
            snapshot.extend_from_slice(&timestamp.to_be_bytes());
            snapshot.extend_from_slice(&(payload.len() as u64).to_be_bytes());
            snapshot.extend_from_slice(payload);
            Ok(())
        })?;
        self.snap.append(&snapshot);
        self.snap.flush();
        // Only after the snapshot is durable is it safe to drop the WAL.
        self.wal.reset();
        self.flushed_entries = self.chain.len;
        prever_obs::counter!("ledger.compactions").inc();
        Ok(())
    }

    /// Streams every entry on the media to `each`, in sequence order,
    /// and stops at the first error `each` returns. Fails with
    /// [`LedgerError::TamperDetected`] if the media do not hold exactly
    /// the chain this journal appended, so what `each` was handed is to
    /// be trusted only once this returns `Ok`.
    pub fn entries(&self, mut each: impl FnMut(JournalEntry) -> Result<()>) -> Result<()> {
        self.read_all(|seq, timestamp, payload, prev_hash, entry_hash| {
            let payload = Bytes::copy_from_slice(payload);
            each(JournalEntry { seq, timestamp, payload, prev_hash, entry_hash })
        })
    }

    /// The digest over every entry, rebuilt from the media. Fails like
    /// [`PersistentJournal::entries`].
    pub fn digest(&self) -> Result<LedgerDigest> {
        self.digest_at(self.chain.len)
    }

    /// The digest as of the first `size` entries, rebuilt from the media
    /// in O(`size`): the chain head and the Merkle root over their leaves.
    pub fn digest_at(&self, size: u64) -> Result<LedgerDigest> {
        if size > self.chain.len {
            return Err(LedgerError::OutOfRange("digest_at beyond journal"));
        }
        let mut tree = MerkleTree::new();
        let mut leaf = |seq: u64, timestamp: u64, _: &[u8], _: Digest, entry_hash: Digest| {
            tree.append(&leaf_bytes(seq, timestamp, &entry_hash));
            Ok(())
        };
        let chain = if size == self.chain.len {
            self.read_all(&mut leaf)?;
            self.chain
        } else {
            self.read(size, &mut leaf)?
        };
        if chain.len != size {
            return Err(LedgerError::TamperDetected("journal media end before its length"));
        }
        Ok(LedgerDigest { size, root: tree.root(), head_hash: chain.head })
    }

    /// [`Self::read`] of everything on the media, checked against the
    /// chain held in memory.
    fn read_all(
        &self,
        each: impl FnMut(u64, u64, &[u8], Digest, Digest) -> Result<()>,
    ) -> Result<()> {
        if self.read(u64::MAX, each)? != self.chain {
            return Err(LedgerError::TamperDetected("journal media differ from the chain head"));
        }
        Ok(())
    }

    /// Streams the first `upto` entries on the media to `each` as
    /// `(seq, timestamp, payload, prev_hash, entry_hash)`: the winning
    /// snapshot frame's, then the WAL frames at or above its base.
    /// Returns the chain recomputed over what was read.
    fn read(
        &self,
        upto: u64,
        mut each: impl FnMut(u64, u64, &[u8], Digest, Digest) -> Result<()>,
    ) -> Result<Chain> {
        let mut chain = Chain::EMPTY;
        if upto == 0 {
            return Ok(chain);
        }
        let mut snapshot = None;
        self.snap.scan(|_, frame| {
            keep_last(&mut snapshot, frame);
            Ok::<_, LedgerError>(ControlFlow::Continue(()))
        })?;
        let mut visit = |chain: &mut Chain, timestamp, payload: &[u8]| {
            let (seq, prev) = chain.push(timestamp, payload);
            each(seq, timestamp, payload, prev, chain.head)
        };
        let base = match snapshot {
            Some(bytes) => for_each_snapshot_entry(&bytes, |timestamp, payload| {
                if chain.len < upto {
                    visit(&mut chain, timestamp, payload)?;
                }
                Ok(())
            })?,
            None => 0,
        };
        if chain.len == upto {
            return Ok(chain);
        }
        self.wal.scan(|seq, frame| {
            if let Some((timestamp, payload)) = wal_entry(base, chain.len, seq, frame)? {
                visit(&mut chain, timestamp, payload)?;
            }
            Ok::<_, LedgerError>(if chain.len == upto {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })?;
        Ok(chain)
    }

    /// Entries known durable — the acked watermark.
    pub fn flushed_entries(&self) -> u64 {
        self.flushed_entries
    }

    /// Total entries (flushed or not).
    pub fn len(&self) -> u64 {
        self.chain.len
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.chain.len == 0
    }

    /// The WAL medium (fault injection, stats).
    pub fn wal_medium(&self) -> &M {
        self.wal.medium()
    }

    /// Mutable WAL medium access.
    pub fn wal_medium_mut(&mut self) -> &mut M {
        self.wal.medium_mut()
    }

    /// The snapshot medium.
    pub fn snap_medium(&self) -> &M {
        self.snap.medium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journal;
    use prever_storage::{SharedDisk, SimDisk};
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};

    fn payload(i: u64) -> Bytes {
        Bytes::from(format!("update-{i}-{}", "p".repeat((i % 5) as usize)))
    }

    fn filled(seed: u64, n: u64) -> PersistentJournal<SharedDisk> {
        let mut pj = PersistentJournal::create(SharedDisk::new(seed), SharedDisk::new(seed + 1));
        for i in 0..n {
            pj.append(i * 10, &payload(i));
        }
        pj
    }

    fn entries_of<M: StorageMedium>(pj: &PersistentJournal<M>) -> Vec<JournalEntry> {
        let mut out = Vec::new();
        pj.entries(|e| {
            out.push(e);
            Ok(())
        })
        .expect("the media hold the journal");
        out
    }

    /// The reference encoding a snapshot frame must match byte for byte.
    fn encode_snapshot(entries: &[JournalEntry]) -> Vec<u8> {
        let mut out = (entries.len() as u64).to_be_bytes().to_vec();
        for e in entries {
            out.extend_from_slice(&e.timestamp.to_be_bytes());
            out.extend_from_slice(&(e.payload.len() as u64).to_be_bytes());
            out.extend_from_slice(&e.payload);
        }
        out
    }

    type Disks = PersistentJournal<SharedDisk>;

    fn recover(pj: &Disks) -> (Disks, PersistReport) {
        PersistentJournal::recover(pj.wal_medium().clone(), pj.snap_medium().clone()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_digest() {
        let mut pj = filled(1, 12);
        pj.flush();
        let digest = pj.digest().unwrap();
        let (rec, report) = recover(&pj);
        assert_eq!(rec.len(), 12);
        assert_eq!(rec.digest().unwrap(), digest);
        assert_eq!(rec.flushed_entries(), 12);
        assert_eq!(report.frames_replayed, 12);
        assert_eq!(report.snapshot_entries, 0);
    }

    #[test]
    fn unflushed_entries_are_lost_but_flushed_prefix_survives() {
        let mut pj = filled(2, 8);
        pj.flush();
        for i in 8..11 {
            pj.append(i * 10, &payload(i));
        }
        assert_eq!(pj.flushed_entries(), 8);
        let at_8 = pj.digest_at(8).unwrap();
        pj.wal_medium().crash_dropping_cache();
        let (rec, _) = recover(&pj);
        assert_eq!(rec.len(), 8, "exactly the flushed prefix");
        assert_eq!(rec.digest().unwrap(), at_8);
    }

    #[test]
    fn torn_final_frame_recovers_the_flushed_prefix() {
        // The journal's final WAL frame is torn mid-frame. Recovery must
        // truncate the tear and yield a prefix-consistent journal —
        // never an error, never a partial entry.
        for seed in 0..40 {
            let mut pj = filled(100 + seed, 6);
            pj.flush();
            pj.append(60, &payload(6)); // staged, unflushed
            let pre_crash = [pj.digest_at(6).unwrap(), pj.digest().unwrap()];
            pj.wal_medium().crash(); // seeded tear through the pending frame
            let (rec, report) = recover(&pj);
            let k = rec.len();
            assert!((6..=7).contains(&k), "seed {seed}: flushed prefix lost");
            assert_eq!(
                rec.digest().unwrap(),
                pre_crash[k as usize - 6],
                "seed {seed}: recovered state is not a prefix of pre-crash history"
            );
            if k == 6 {
                assert!(report.truncated_bytes > 0 || pj.wal_medium().stats().bytes_lost > 0);
            }
        }
    }

    #[test]
    fn corrupted_interior_sector_fails_loudly() {
        // Damage inside the durable region must surface as a
        // tamper/chain-verification error, not be silently recovered
        // around.
        let mut pj = PersistentJournal::create(
            SharedDisk::from_disk(SimDisk::with_sector(7, 64)),
            SharedDisk::from_disk(SimDisk::with_sector(8, 64)),
        );
        for i in 0..30 {
            pj.append(i * 10, &payload(i));
        }
        pj.flush();
        let sectors = pj.wal_medium().durable_len() / 64;
        assert!(sectors > 2);
        for s in 0..sectors {
            let wal = pj.wal_medium().clone();
            let snap = pj.snap_medium().clone();
            let fresh_wal = {
                // Rebuild a private copy so each iteration corrupts
                // pristine bytes.
                let mut all = vec![0u8; wal.len() as usize];
                wal.read(0, &mut all).unwrap();
                let d = SharedDisk::from_disk(SimDisk::with_sector(9, 64));
                let mut h = d.clone();
                h.append(&all);
                h.flush();
                d
            };
            assert!(fresh_wal.corrupt_sector(s));
            match PersistentJournal::recover(fresh_wal, snap) {
                Err(LedgerError::TamperDetected(_)) => {}
                other => panic!("sector {s}: expected TamperDetected, got {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn compaction_roundtrip_preserves_full_history() {
        let mut pj = filled(3, 10);
        pj.flush();
        pj.compact().unwrap();
        assert_eq!(pj.wal_medium().len(), 0, "WAL truncated after snapshot");
        for i in 10..16 {
            pj.append(i * 10, &payload(i));
        }
        pj.flush();
        let digest = pj.digest().unwrap();
        let (rec, report) = recover(&pj);
        assert_eq!(rec.len(), 16);
        assert_eq!(rec.digest().unwrap(), digest);
        assert_eq!(report.snapshot_entries, 10);
        assert_eq!(report.frames_replayed, 6);
    }

    #[test]
    fn compact_is_a_durability_point_for_unflushed_entries() {
        let mut pj = filled(4, 5);
        // No flush: entries live only in the WAL cache — but compact
        // reads them through the cache into the snapshot.
        pj.compact().unwrap();
        assert_eq!(pj.flushed_entries(), 5);
        pj.wal_medium().crash_dropping_cache();
        pj.snap_medium().crash_dropping_cache(); // snapshot already flushed
        let (rec, _) = recover(&pj);
        assert_eq!(rec.len(), 5);
    }

    #[test]
    fn torn_snapshot_falls_back_to_wal_replay() {
        // Crash mid-compact, before the snapshot flush completed: the
        // torn snapshot frame must be discarded and the untouched WAL
        // must reconstruct everything.
        let mut pj = filled(5, 9);
        pj.flush();
        let digest = pj.digest().unwrap();
        // Stage the snapshot frame exactly as compact would — but tear
        // it before the flush completes.
        for seed in 0..20 {
            let snap = SharedDisk::new(500 + seed);
            let (mut twin, _, _) = Wal::recover(snap.clone(), 0).unwrap();
            twin.append(&encode_snapshot(&entries_of(&pj)));
            snap.crash(); // tear the pending snapshot frame
            let (rec, report) =
                PersistentJournal::recover(pj.wal_medium().clone(), snap).unwrap();
            assert_eq!(rec.len(), 9, "seed {seed}");
            assert_eq!(rec.digest().unwrap(), digest, "seed {seed}");
            assert_eq!(report.snapshot_entries, 0, "seed {seed}: torn snapshot discarded");
        }
    }

    #[test]
    fn stale_wal_frames_after_snapshot_are_skipped() {
        // Crash between snapshot flush and WAL truncation: snapshot
        // covers entries the WAL still holds. Recovery must not replay
        // them twice.
        let mut pj = filled(6, 7);
        pj.flush();
        let digest = pj.digest().unwrap();
        // Flushed snapshot, un-truncated WAL:
        let snap_disk = SharedDisk::new(60);
        let mut snap_wal = Wal::create(snap_disk.clone(), 0);
        snap_wal.append(&encode_snapshot(&entries_of(&pj)));
        snap_wal.flush();
        let (rec, report) =
            PersistentJournal::recover(pj.wal_medium().clone(), snap_disk).unwrap();
        assert_eq!(rec.len(), 7);
        assert_eq!(rec.digest().unwrap(), digest);
        assert_eq!(report.snapshot_entries, 7);
        assert_eq!(report.stale_frames_skipped, 7);
        assert_eq!(report.frames_replayed, 0);
    }

    #[test]
    fn appends_over_a_shorter_stale_wal_continue_at_the_snapshot_base() {
        // Crash inside compact after the snapshot flush: the snapshot
        // covers entries whose WAL frames never reached the platter, so
        // the surviving WAL ends below the snapshot base. The next
        // append must take the base's sequence number, or a second
        // recovery would skip it as stale.
        let mut pj = filled(12, 4);
        pj.flush();
        for i in 4..7 {
            pj.append(i * 10, &payload(i)); // staged, never flushed
        }
        let snap_disk = SharedDisk::new(61);
        let mut snap_wal = Wal::create(snap_disk.clone(), 0);
        snap_wal.append(&encode_snapshot(&entries_of(&pj)));
        snap_wal.flush();
        pj.wal_medium().crash_dropping_cache();
        let (mut rec, report) =
            PersistentJournal::recover(pj.wal_medium().clone(), snap_disk.clone()).unwrap();
        assert_eq!((rec.len(), report.stale_frames_skipped), (7, 4));
        assert_eq!(rec.append(70, &payload(7)), 7);
        rec.flush();
        let (rec2, report2) =
            PersistentJournal::recover(rec.wal_medium().clone(), snap_disk).unwrap();
        assert_eq!((rec2.len(), report2.frames_replayed), (8, 1));
        assert_eq!(rec2.digest().unwrap(), rec.digest().unwrap());
    }

    #[test]
    fn appends_after_recovery_extend_the_chain() {
        let mut pj = filled(7, 4);
        pj.flush();
        let (mut rec, _) = recover(&pj);
        assert_eq!(rec.append(999, b"after-recovery"), 4);
        rec.flush();
        let (rec2, _) = recover(&rec);
        assert_eq!(rec2.len(), 5);
        assert_eq!(rec2.digest().unwrap(), rec.digest().unwrap());
        Journal::verify_chain(&entries_of(&rec2), &rec2.digest().unwrap()).unwrap();
    }

    #[test]
    fn double_compaction_last_snapshot_wins() {
        let mut pj = filled(8, 6);
        pj.flush();
        pj.compact().unwrap();
        for i in 6..10 {
            pj.append(i * 10, &payload(i));
        }
        pj.compact().unwrap();
        pj.append(100, &payload(10));
        pj.flush();
        let digest = pj.digest().unwrap();
        let (rec, report) = recover(&pj);
        assert_eq!(rec.len(), 11);
        assert_eq!(rec.digest().unwrap(), digest);
        assert_eq!(report.snapshot_entries, 10, "second snapshot wins");
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        let decode = |bytes: &[u8]| for_each_snapshot_entry(bytes, |_, _| Ok(()));
        assert!(decode(&[1, 2, 3]).is_err());
        let mut bogus = 5u64.to_be_bytes().to_vec(); // claims 5 entries, has none
        assert!(decode(&bogus).is_err());
        bogus.extend_from_slice(&[0; 7]); // still short of one header
        assert!(decode(&bogus).is_err());
        let mut huge = 1u64.to_be_bytes().to_vec(); // one entry of length u64::MAX
        huge.extend_from_slice(&0u64.to_be_bytes());
        huge.extend_from_slice(&u64::MAX.to_be_bytes());
        assert!(decode(&huge).is_err());
    }

    /// The frames of a WAL medium, in order.
    fn frames_of(medium: &SimDisk) -> Vec<Vec<u8>> {
        Wal::recover(medium.clone(), 0).unwrap().1.into_iter().map(|(_, p)| p).collect()
    }

    /// The WAL medium holding `frames` in order, each with valid CRCs.
    fn wal_of(frames: &[Vec<u8>]) -> SimDisk {
        let mut wal = Wal::create(SimDisk::new(0), 0);
        for frame in frames {
            wal.append(frame);
        }
        wal.flush();
        wal.medium().clone()
    }

    #[test]
    fn a_frame_rewritten_with_a_valid_crc_fails_every_full_read() {
        // Negative control for the reads: the CRCs cannot tell a frame
        // rewritten on the media, but the chain recomputed from the
        // media differs from the head held in memory.
        let mut pj = PersistentJournal::create(SimDisk::new(1), SimDisk::new(2));
        for i in 0..6 {
            pj.append(i * 10, &payload(i));
        }
        pj.flush();
        let honest = frames_of(pj.wal_medium());
        assert_eq!(entries_of(&pj).len(), 6, "the untouched media read back");
        let tampered = |pj: &PersistentJournal<SimDisk>| {
            let what = pj.entries(|_| Ok(())).map(|_| ());
            assert!(matches!(what, Err(LedgerError::TamperDetected(_))), "{what:?}");
            assert!(matches!(pj.digest(), Err(LedgerError::TamperDetected(_))));
            let mut copy = pj.clone();
            assert!(matches!(copy.compact(), Err(LedgerError::TamperDetected(_))));
            assert!(copy.snap_medium().is_empty(), "a failed compaction writes nothing");
        };
        for victim in 0..honest.len() {
            let mut forged = honest.clone();
            let last = forged[victim].len() - 1;
            forged[victim][last] ^= 0x01; // same length, same timestamp
            *pj.wal_medium_mut() = wal_of(&forged);
            tampered(&pj);
        }
        // A valid frame appended behind the journal's back.
        let mut longer = honest.clone();
        longer.push([60u64.to_be_bytes().as_slice(), b"extra"].concat());
        *pj.wal_medium_mut() = wal_of(&longer);
        tampered(&pj);
        // A frame dropped from the end.
        *pj.wal_medium_mut() = wal_of(&honest[..5]);
        tampered(&pj);
        assert!(matches!(pj.digest_at(6), Err(LedgerError::TamperDetected(_))));
        *pj.wal_medium_mut() = wal_of(&honest);
        assert_eq!(entries_of(&pj).len(), 6);
    }

    /// One step of a seeded workload.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Append,
        Flush,
        Compact,
        /// A process crash; `torn` tears the pending write instead of
        /// dropping the whole cache.
        Crash { torn: bool },
    }

    fn ops(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<Op> {
        use rand::Rng;
        (0..n)
            .map(|_| match rng.gen_range(0..20u32) {
                0..=12 => Op::Append,
                13..=15 => Op::Flush,
                16..=17 => Op::Compact,
                18 => Op::Crash { torn: true },
                _ => Op::Crash { torn: false },
            })
            .collect()
    }

    /// Everything a persistent journal reads back agrees with `reference`.
    fn agrees(pj: &PersistentJournal<SharedDisk>, reference: &Journal) {
        assert_eq!(pj.len(), reference.len() as u64);
        assert_eq!(pj.digest().unwrap(), reference.digest());
        for k in 0..=pj.len() {
            assert_eq!(pj.digest_at(k).unwrap(), reference.digest_at(k).unwrap(), "k = {k}");
        }
        assert!(pj.digest_at(pj.len() + 1).is_err());
        assert_eq!(entries_of(pj), reference.entries());
    }

    /// The last frame on a snapshot medium.
    fn last_snapshot(pj: &PersistentJournal<SharedDisk>) -> Vec<u8> {
        let mut last = None;
        pj.snap
            .scan(|_, frame| {
                keep_last(&mut last, frame);
                Ok::<_, LedgerError>(ControlFlow::Continue(()))
            })
            .unwrap();
        last.expect("a snapshot frame")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Differential test: a persistent journal driven through seeded
        // append / flush / compact / crash sequences reads back exactly
        // what an in-memory `Journal` fed the same appends holds — its
        // digests at every size, its entries, its snapshot bytes — and
        // recovers to the reference's prefix at the recovered length.
        #[test]
        fn persistent_journal_reads_back_the_reference_journal(seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (wal, snap) = (SharedDisk::new(seed), SharedDisk::new(seed ^ 0x5eed));
            let mut pj = PersistentJournal::create(wal.clone(), snap.clone());
            let mut reference = Journal::new();
            for op in ops(&mut rng, 40) {
                match op {
                    Op::Append => {
                        let i = reference.len() as u64;
                        let body = vec![rng.gen::<u8>(); rng.gen_range(0..24usize)];
                        let ts = rng.gen::<u64>();
                        prop_assert_eq!(pj.append(ts, &body), i);
                        reference.append(ts, Bytes::from(body));
                    }
                    Op::Flush => pj.flush(),
                    Op::Compact => {
                        pj.compact().unwrap();
                        let want = encode_snapshot(reference.entries());
                        prop_assert_eq!(last_snapshot(&pj), want);
                        prop_assert_eq!(pj.flushed_entries(), pj.len());
                    }
                    Op::Crash { torn } => {
                        agrees(&pj, &reference);
                        let (flushed, total) = (pj.flushed_entries(), pj.len());
                        if torn {
                            wal.crash();
                            snap.crash();
                        } else {
                            wal.crash_dropping_cache();
                            snap.crash_dropping_cache();
                        }
                        let (rec, _) =
                            PersistentJournal::recover(wal.clone(), snap.clone()).unwrap();
                        let k = rec.len();
                        prop_assert!(flushed <= k && k <= total, "{flushed} <= {k} <= {total}");
                        prop_assert_eq!(rec.digest().unwrap(), reference.digest_at(k).unwrap());
                        let mut survivors = Journal::new();
                        for e in &reference.entries()[..k as usize] {
                            survivors.append(e.timestamp, e.payload.clone());
                        }
                        reference = survivors;
                        pj = rec;
                    }
                }
            }
            agrees(&pj, &reference);
        }
    }
}
