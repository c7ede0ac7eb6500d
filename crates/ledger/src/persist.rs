//! Crash-consistent persistence for the [`Journal`]: WAL + snapshots
//! over a [`StorageMedium`].
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
//! ## Compaction ordering
//!
//! [`PersistentJournal::compact`] appends a snapshot frame, flushes the
//! snapshot medium, and only then truncates the WAL. Every crash point
//! is covered:
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
//! `recover = snapshot load + tail replay`: decode the last valid
//! snapshot frame, rebuild the hash chain by re-appending (hashes are
//! deterministic in `(seq, timestamp, payload)`), then replay WAL frames
//! with `seq ≥ base` in order. A torn WAL tail is truncated at the first
//! invalid frame (by the WAL layer); a sequence gap or CRC failure in
//! the durable region fails loudly as [`LedgerError::TamperDetected`].

use crate::journal::{Journal, JournalEntry};
use crate::{LedgerError, Result};
use bytes::Bytes;
use prever_storage::{StorageError, StorageMedium, Wal};

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

/// A [`Journal`] whose every committed entry is staged to a write-ahead
/// log, with snapshot + WAL-truncation compaction. See the module docs.
#[derive(Clone, Debug)]
pub struct PersistentJournal<M: StorageMedium> {
    journal: Journal,
    wal: Wal<M>,
    snap: Wal<M>,
    /// Entries known durable: everything up to this count survives a
    /// crash (the "acked" watermark the durability invariant checks).
    flushed_entries: u64,
}

fn encode_snapshot(entries: &[JournalEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + entries.iter().map(|e| 16 + e.payload.len()).sum::<usize>());
    out.extend_from_slice(&(entries.len() as u64).to_be_bytes());
    for e in entries {
        out.extend_from_slice(&e.timestamp.to_be_bytes());
        out.extend_from_slice(&(e.payload.len() as u64).to_be_bytes());
        out.extend_from_slice(&e.payload);
    }
    out
}

fn decode_snapshot(bytes: &[u8]) -> Result<Vec<(u64, Bytes)>> {
    let take = |at: usize, n: usize| -> Result<&[u8]> {
        bytes
            .get(at..at + n)
            .ok_or(LedgerError::Storage(StorageError::Decode("snapshot frame truncated")))
    };
    let u64_at = |at: usize| -> Result<u64> {
        Ok(u64::from_be_bytes(take(at, 8)?.try_into().expect("8 bytes")))
    };
    let count = u64_at(0)?;
    let mut entries = Vec::new();
    let mut at = 8usize;
    for _ in 0..count {
        let timestamp = u64_at(at)?;
        let len = u64_at(at + 8)? as usize;
        let payload = Bytes::copy_from_slice(take(at + 16, len)?);
        entries.push((timestamp, payload));
        at += 16 + len;
    }
    if at != bytes.len() {
        return Err(LedgerError::Storage(StorageError::Decode("snapshot frame has trailing bytes")));
    }
    Ok(entries)
}

impl<M: StorageMedium> PersistentJournal<M> {
    /// A fresh persistent journal over two empty media.
    pub fn create(wal_medium: M, snap_medium: M) -> Self {
        PersistentJournal {
            journal: Journal::new(),
            wal: Wal::create(wal_medium, 0),
            snap: Wal::create(snap_medium, 0),
            flushed_entries: 0,
        }
    }

    /// Recovers from whatever survived on the two media: last valid
    /// snapshot + WAL tail replay.
    pub fn recover(wal_medium: M, snap_medium: M) -> Result<(Self, PersistReport)> {
        let mut report = PersistReport::default();

        let (snap, snap_frames, snap_rec) = Wal::recover(snap_medium, 0)?;
        report.truncated_bytes += snap_rec.truncated_bytes;
        let mut journal = Journal::new();
        if let Some((_, frame)) = snap_frames.last() {
            for (timestamp, payload) in decode_snapshot(frame)? {
                journal.append(timestamp, payload);
            }
        }
        let base = journal.len() as u64;
        report.snapshot_entries = base;

        let (wal, wal_frames, wal_rec) = Wal::recover(wal_medium, base)?;
        report.truncated_bytes += wal_rec.truncated_bytes;
        for (seq, frame) in &wal_frames {
            if *seq < base {
                // Crash landed between snapshot flush and WAL
                // truncation; the snapshot already covers this entry.
                report.stale_frames_skipped += 1;
                continue;
            }
            if *seq != journal.len() as u64 {
                return Err(LedgerError::TamperDetected("wal sequence gap"));
            }
            if frame.len() < 8 {
                return Err(LedgerError::Storage(StorageError::Decode("wal frame shorter than a timestamp")));
            }
            let timestamp = u64::from_be_bytes(frame[0..8].try_into().expect("8 bytes"));
            journal.append(timestamp, Bytes::copy_from_slice(&frame[8..]));
            report.frames_replayed += 1;
        }

        let flushed_entries = journal.len() as u64;
        prever_obs::counter!("ledger.recoveries").inc();
        Ok((PersistentJournal { journal, wal, snap, flushed_entries }, report))
    }

    /// Appends a payload: committed to the in-memory chain immediately,
    /// staged to the WAL, durable only after [`PersistentJournal::flush`].
    pub fn append(&mut self, timestamp: u64, payload: Bytes) -> &JournalEntry {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&timestamp.to_be_bytes());
        frame.extend_from_slice(&payload);
        let seq = self.wal.append(&frame);
        let entry = self.journal.append(timestamp, payload);
        debug_assert_eq!(seq, entry.seq, "wal and journal sequences in lockstep");
        entry
    }

    /// Durability barrier: every entry appended so far survives a crash.
    pub fn flush(&mut self) {
        self.wal.flush();
        self.flushed_entries = self.journal.len() as u64;
    }

    /// Snapshot + WAL truncation. Also a durability point: the snapshot
    /// covers every entry, flushed or not.
    pub fn compact(&mut self) {
        let snap_bytes = encode_snapshot(self.journal.entries());
        self.snap.append(&snap_bytes);
        self.snap.flush();
        // Only after the snapshot is durable is it safe to drop the WAL.
        self.wal.reset();
        self.flushed_entries = self.journal.len() as u64;
        prever_obs::counter!("ledger.compactions").inc();
    }

    /// The in-memory journal (digests, proofs, entries).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Entries known durable — the acked watermark.
    pub fn flushed_entries(&self) -> u64 {
        self.flushed_entries
    }

    /// Total entries (flushed or not).
    pub fn len(&self) -> u64 {
        self.journal.len() as u64
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
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

    /// Mutable snapshot medium access.
    pub fn snap_medium_mut(&mut self) -> &mut M {
        self.snap.medium_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prever_storage::{SharedDisk, SimDisk};

    fn payload(i: u64) -> Bytes {
        Bytes::from(format!("update-{i}-{}", "p".repeat((i % 5) as usize)))
    }

    fn filled(seed: u64, n: u64) -> PersistentJournal<SharedDisk> {
        let mut pj = PersistentJournal::create(SharedDisk::new(seed), SharedDisk::new(seed + 1));
        for i in 0..n {
            pj.append(i * 10, payload(i));
        }
        pj
    }

    #[test]
    fn roundtrip_preserves_digest() {
        let mut pj = filled(1, 12);
        pj.flush();
        let digest = pj.journal().digest();
        let (rec, report) = PersistentJournal::recover(
            pj.wal_medium().clone(),
            pj.snap_medium().clone(),
        )
        .unwrap();
        assert_eq!(rec.len(), 12);
        assert_eq!(rec.journal().digest(), digest);
        assert_eq!(rec.flushed_entries(), 12);
        assert_eq!(report.frames_replayed, 12);
        assert_eq!(report.snapshot_entries, 0);
    }

    #[test]
    fn unflushed_entries_are_lost_but_flushed_prefix_survives() {
        let mut pj = filled(2, 8);
        pj.flush();
        for i in 8..11 {
            pj.append(i * 10, payload(i));
        }
        assert_eq!(pj.flushed_entries(), 8);
        let pre_crash = pj.journal().clone();
        pj.wal_medium().crash_dropping_cache();
        let (rec, _) = PersistentJournal::recover(
            pj.wal_medium().clone(),
            pj.snap_medium().clone(),
        )
        .unwrap();
        assert_eq!(rec.len(), 8, "exactly the flushed prefix");
        assert_eq!(rec.journal().digest(), pre_crash.digest_at(8).unwrap());
    }

    #[test]
    fn torn_final_frame_recovers_the_flushed_prefix() {
        // The satellite case: the journal's final WAL frame is torn
        // mid-frame. Recovery must truncate the tear and yield a
        // prefix-consistent journal — never an error, never a partial
        // entry.
        for seed in 0..40 {
            let mut pj = filled(100 + seed, 6);
            pj.flush();
            pj.append(60, payload(6)); // staged, unflushed
            let pre_crash = pj.journal().clone();
            pj.wal_medium().crash(); // seeded tear through the pending frame
            let (rec, report) = PersistentJournal::recover(
                pj.wal_medium().clone(),
                pj.snap_medium().clone(),
            )
            .unwrap();
            let k = rec.len();
            assert!((6..=7).contains(&k), "seed {seed}: flushed prefix lost");
            assert_eq!(
                rec.journal().digest(),
                pre_crash.digest_at(k).unwrap(),
                "seed {seed}: recovered state is not a prefix of pre-crash history"
            );
            if k == 6 {
                assert!(report.truncated_bytes > 0 || pj.wal_medium().stats().bytes_lost > 0);
            }
        }
    }

    #[test]
    fn corrupted_interior_sector_fails_loudly() {
        // The satellite case: damage inside the durable region must
        // surface as a tamper/chain-verification error, not be silently
        // recovered around.
        let mut pj = PersistentJournal::create(
            SharedDisk::from_disk(SimDisk::with_sector(7, 64)),
            SharedDisk::from_disk(SimDisk::with_sector(8, 64)),
        );
        for i in 0..30 {
            pj.append(i * 10, payload(i));
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
        pj.compact();
        assert_eq!(pj.wal_medium().len(), 0, "WAL truncated after snapshot");
        for i in 10..16 {
            pj.append(i * 10, payload(i));
        }
        pj.flush();
        let digest = pj.journal().digest();
        let (rec, report) = PersistentJournal::recover(
            pj.wal_medium().clone(),
            pj.snap_medium().clone(),
        )
        .unwrap();
        assert_eq!(rec.len(), 16);
        assert_eq!(rec.journal().digest(), digest);
        assert_eq!(report.snapshot_entries, 10);
        assert_eq!(report.frames_replayed, 6);
    }

    #[test]
    fn compact_is_a_durability_point_for_unflushed_entries() {
        let mut pj = filled(4, 5);
        // No flush: entries live only in the WAL cache — but compact
        // snapshots the full in-memory journal.
        pj.compact();
        assert_eq!(pj.flushed_entries(), 5);
        pj.wal_medium().crash_dropping_cache();
        pj.snap_medium().crash_dropping_cache(); // snapshot already flushed
        let (rec, _) = PersistentJournal::recover(
            pj.wal_medium().clone(),
            pj.snap_medium().clone(),
        )
        .unwrap();
        assert_eq!(rec.len(), 5);
    }

    #[test]
    fn torn_snapshot_falls_back_to_wal_replay() {
        // Crash mid-compact, before the snapshot flush completed: the
        // torn snapshot frame must be discarded and the untouched WAL
        // must reconstruct everything.
        let mut pj = filled(5, 9);
        pj.flush();
        let digest = pj.journal().digest();
        // Stage the snapshot frame exactly as compact would — but tear
        // it before the flush completes.
        for seed in 0..20 {
            let snap = SharedDisk::new(500 + seed);
            let (mut twin, _, _) = Wal::recover(snap.clone(), 0).unwrap();
            twin.append(&encode_snapshot(pj.journal().entries()));
            snap.crash(); // tear the pending snapshot frame
            let (rec, report) =
                PersistentJournal::recover(pj.wal_medium().clone(), snap).unwrap();
            assert_eq!(rec.len(), 9, "seed {seed}");
            assert_eq!(rec.journal().digest(), digest, "seed {seed}");
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
        let digest = pj.journal().digest();
        // Flushed snapshot, un-truncated WAL:
        let snap_disk = SharedDisk::new(60);
        let mut snap_wal = Wal::create(snap_disk.clone(), 0);
        snap_wal.append(&encode_snapshot(pj.journal().entries()));
        snap_wal.flush();
        let (rec, report) =
            PersistentJournal::recover(pj.wal_medium().clone(), snap_disk).unwrap();
        assert_eq!(rec.len(), 7);
        assert_eq!(rec.journal().digest(), digest);
        assert_eq!(report.snapshot_entries, 7);
        assert_eq!(report.stale_frames_skipped, 7);
        assert_eq!(report.frames_replayed, 0);
    }

    #[test]
    fn appends_after_recovery_extend_the_chain() {
        let mut pj = filled(7, 4);
        pj.flush();
        let (mut rec, _) = PersistentJournal::recover(
            pj.wal_medium().clone(),
            pj.snap_medium().clone(),
        )
        .unwrap();
        let e = rec.append(999, Bytes::from_static(b"after-recovery"));
        assert_eq!(e.seq, 4);
        rec.flush();
        let (rec2, _) = PersistentJournal::recover(
            rec.wal_medium().clone(),
            rec.snap_medium().clone(),
        )
        .unwrap();
        assert_eq!(rec2.len(), 5);
        assert_eq!(rec2.journal().digest(), rec.journal().digest());
        Journal::verify_chain(rec2.journal().entries(), &rec2.journal().digest()).unwrap();
    }

    #[test]
    fn double_compaction_last_snapshot_wins() {
        let mut pj = filled(8, 6);
        pj.flush();
        pj.compact();
        for i in 6..10 {
            pj.append(i * 10, payload(i));
        }
        pj.compact();
        pj.append(100, payload(10));
        pj.flush();
        let digest = pj.journal().digest();
        let (rec, report) = PersistentJournal::recover(
            pj.wal_medium().clone(),
            pj.snap_medium().clone(),
        )
        .unwrap();
        assert_eq!(rec.len(), 11);
        assert_eq!(rec.journal().digest(), digest);
        assert_eq!(report.snapshot_entries, 10, "second snapshot wins");
    }

    #[test]
    fn snapshot_decode_rejects_garbage() {
        assert!(decode_snapshot(&[1, 2, 3]).is_err());
        let mut bogus = 5u64.to_be_bytes().to_vec(); // claims 5 entries, has none
        assert!(decode_snapshot(&bogus).is_err());
        bogus.extend_from_slice(&[0; 7]); // still short of one header
        assert!(decode_snapshot(&bogus).is_err());
    }
}
