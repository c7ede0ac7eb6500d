//! CRC-framed write-ahead log over a [`StorageMedium`].
//!
//! ## Frame format
//!
//! ```text
//! ┌─────────┬─────────┬──────────┬──────────┬───────────────┐
//! │ len u32 │ seq u64 │ pcrc u32 │ hcrc u32 │ payload (len) │
//! └─────────┴─────────┴──────────┴──────────┴───────────────┘
//!   big-endian; hcrc = crc32(len ‖ seq ‖ pcrc); pcrc = crc32(payload)
//! ```
//!
//! The split into a header CRC and a payload CRC is what lets recovery
//! *distinguish* a torn write from corruption — the property the chaos
//! harness's durability invariants lean on:
//!
//! * A **torn write** destroys a *suffix*: the medium's crash model
//!   persists a prefix of the pending cache. So a torn frame is either a
//!   header cut short by end-of-log, or a complete, valid header whose
//!   payload runs past end-of-log. Both are recognized as a torn tail
//!   and truncated away; every frame before them is intact.
//! * **Corruption** damages bytes *inside* the durable region. A
//!   complete header with a bad `hcrc`, or a complete frame whose
//!   payload fails `pcrc`, cannot be produced by tearing (torn bytes
//!   are absent, not altered) — recovery fails loudly with
//!   [`StorageError::Corruption`] instead of silently dropping valid
//!   frames that may follow.
//!
//! ## Group commit
//!
//! [`Wal::append`] stages a frame in the medium's write-back cache and
//! returns immediately; [`Wal::flush`] is the durability barrier. A
//! caller batching k appends per flush pays one barrier per k records;
//! the benchmark's `consensus.wal_flushes_per_batch` counts the barriers
//! the ordering path takes. Nothing is "acked" until flushed:
//! [`Wal::flushed_frames`] is the watermark the durability invariant
//! ("every acked write survives recovery") is checked against.
//!
//! Recovery metrics are recorded in `prever_obs`:
//! `wal.recover.frames_replayed`, `wal.recover.truncated_bytes`, and the
//! `wal.flush` latency histogram.

use crate::medium::StorageMedium;
use crate::{Result, StorageError};

/// Frame header size: len (4) + seq (8) + pcrc (4) + hcrc (4).
pub const FRAME_HEADER: u64 = 20;

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables, built at compile
/// time. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table reads advance the CRC over eight bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xedb8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends `crc`, the CRC-32 of some bytes `a`, to the CRC-32 of
/// `a ‖ bytes`: `crc32_update(crc32(a), b) == crc32(&[a, b].concat())`, so
/// a checksum over pieces needs no joined copy. `crc32_update(0, b)` is
/// `crc32(b)`.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One decoded frame: `(seq, payload)`.
pub type Frame = (u64, Vec<u8>);

/// What recovery found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete, CRC-valid frames replayed.
    pub frames_replayed: u64,
    /// Bytes of torn tail truncated away.
    pub truncated_bytes: u64,
}

/// A write-ahead log over a storage medium. See the module docs.
#[derive(Clone, Debug)]
pub struct Wal<M: StorageMedium> {
    medium: M,
    next_seq: u64,
    /// Frames appended over the log's lifetime (monotone; survives
    /// truncation — seq numbers never repeat).
    appended_frames: u64,
    /// Frames staged since the last flush.
    unflushed_frames: u64,
    /// Frames known durable (flushed or recovered).
    flushed_frames: u64,
}

impl<M: StorageMedium> Wal<M> {
    /// A fresh log over an empty medium, starting at sequence
    /// `first_seq`.
    ///
    /// Panics if the medium already holds bytes — open an existing log
    /// with [`Wal::recover`] instead.
    pub fn create(medium: M, first_seq: u64) -> Self {
        assert!(medium.is_empty(), "Wal::create on a non-empty medium; use Wal::recover");
        Wal {
            medium,
            next_seq: first_seq,
            appended_frames: 0,
            unflushed_frames: 0,
            flushed_frames: 0,
        }
    }

    /// Opens a log from whatever survived on `medium`: scans frames from
    /// offset 0, replays every CRC-valid frame, truncates a torn tail,
    /// and fails loudly on interior corruption.
    ///
    /// Returns the reopened log, the surviving frames in order, and a
    /// [`RecoveryReport`]. The reopened log continues at `last seq + 1`
    /// (or `first_seq` if the medium is empty).
    pub fn recover(mut medium: M, first_seq: u64) -> Result<(Self, Vec<Frame>, RecoveryReport)> {
        let end = medium.len();
        let mut frames = Vec::new();
        let mut offset = 0u64;
        let mut report = RecoveryReport::default();
        while offset < end {
            if offset + FRAME_HEADER > end {
                // Header cut short: only a torn write can do this.
                break;
            }
            let mut header = [0u8; FRAME_HEADER as usize];
            medium.read(offset, &mut header)?;
            let len = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes")) as u64;
            let seq = u64::from_be_bytes(header[4..12].try_into().expect("8 bytes"));
            let pcrc = u32::from_be_bytes(header[12..16].try_into().expect("4 bytes"));
            let hcrc = u32::from_be_bytes(header[16..20].try_into().expect("4 bytes"));
            if crc32(&header[0..16]) != hcrc {
                // A complete header with a bad CRC cannot be a tear
                // (torn bytes are missing, not altered): the sector rot
                // must be surfaced, not recovered around.
                return Err(StorageError::Corruption("wal frame header CRC mismatch"));
            }
            if offset + FRAME_HEADER + len > end {
                // Valid header, payload cut short: torn mid-frame.
                break;
            }
            let mut payload = vec![0u8; len as usize];
            medium.read(offset + FRAME_HEADER, &mut payload)?;
            if crc32(&payload) != pcrc {
                return Err(StorageError::Corruption("wal frame payload CRC mismatch"));
            }
            frames.push((seq, payload));
            report.frames_replayed += 1;
            offset += FRAME_HEADER + len;
        }
        report.truncated_bytes = end - offset;
        if report.truncated_bytes > 0 {
            medium.truncate(offset);
        }
        prever_obs::counter!("wal.recover.frames_replayed").add(report.frames_replayed);
        prever_obs::counter!("wal.recover.truncated_bytes").add(report.truncated_bytes);
        prever_obs::counter!("wal.recoveries").inc();
        let next_seq = frames.last().map(|(s, _)| s + 1).unwrap_or(first_seq);
        let n = frames.len() as u64;
        Ok((
            Wal {
                medium,
                next_seq,
                appended_frames: n,
                unflushed_frames: 0,
                flushed_frames: n,
            },
            frames,
            report,
        ))
    }

    /// Stages a frame carrying `payload` in the medium's write-back
    /// cache and returns its sequence number. Volatile until
    /// [`Wal::flush`].
    pub fn append(&mut self, payload: &[u8]) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut header = [0u8; FRAME_HEADER as usize];
        header[0..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        header[4..12].copy_from_slice(&seq.to_be_bytes());
        header[12..16].copy_from_slice(&crc32(payload).to_be_bytes());
        let hcrc = crc32(&header[0..16]);
        header[16..20].copy_from_slice(&hcrc.to_be_bytes());
        self.medium.append(&header);
        self.medium.append(payload);
        self.appended_frames += 1;
        self.unflushed_frames += 1;
        prever_obs::counter!("wal.appends").inc();
        seq
    }

    /// Durability barrier: everything appended so far survives a crash.
    /// The group-commit latency is recorded in the `wal.flush`
    /// histogram.
    pub fn flush(&mut self) {
        let sw = prever_obs::Stopwatch::start();
        self.medium.flush();
        prever_obs::histogram!("wal.flush").record(sw.elapsed_ns());
        prever_obs::counter!("wal.flushes").inc();
        self.flushed_frames += self.unflushed_frames;
        self.unflushed_frames = 0;
    }

    /// Discards every frame (compaction after a snapshot): the medium is
    /// truncated to zero, sequence numbers continue.
    pub fn reset(&mut self) {
        self.medium.truncate(0);
        self.unflushed_frames = 0;
        self.flushed_frames = 0;
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Frames known durable (the "acked" watermark).
    pub fn flushed_frames(&self) -> u64 {
        self.flushed_frames
    }

    /// Frames staged but not yet flushed.
    pub fn unflushed_frames(&self) -> u64 {
        self.unflushed_frames
    }

    /// The underlying medium (stats, fault injection in tests).
    pub fn medium(&self) -> &M {
        &self.medium
    }

    /// Mutable access to the underlying medium.
    pub fn medium_mut(&mut self) -> &mut M {
        &mut self.medium
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::SimDisk;

    fn payload(i: u64) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat((i % 7) as usize)).into_bytes()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
        assert_eq!(crc32(&[0u8; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xffu8; 32]), 0xff6c_ab0b);
    }

    /// The byte-at-a-time loop over `CRC_TABLES[0]`: what `crc32` computed
    /// before slicing-by-8, and the reference it is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    proptest::proptest! {
        #[test]
        fn crc32_agrees_with_the_bytewise_loop(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            split in 0usize..300,
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
            let (a, b) = bytes.split_at(split.min(bytes.len()));
            proptest::prop_assert_eq!(crc32_update(crc32(a), b), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn append_flush_recover_roundtrip() {
        let mut wal = Wal::create(SimDisk::new(1), 0);
        for i in 0..10 {
            assert_eq!(wal.append(&payload(i)), i);
        }
        wal.flush();
        assert_eq!(wal.flushed_frames(), 10);
        let disk = wal.medium().clone();
        let (reopened, frames, report) = Wal::recover(disk, 0).unwrap();
        assert_eq!(frames.len(), 10);
        assert_eq!(report, RecoveryReport { frames_replayed: 10, truncated_bytes: 0 });
        for (i, (seq, p)) in frames.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*p, payload(i as u64));
        }
        assert_eq!(reopened.next_seq(), 10);
    }

    #[test]
    fn unflushed_frames_die_with_a_cache_drop() {
        let mut wal = Wal::create(SimDisk::new(2), 0);
        for i in 0..5 {
            wal.append(&payload(i));
        }
        wal.flush();
        for i in 5..9 {
            wal.append(&payload(i));
        }
        assert_eq!(wal.unflushed_frames(), 4);
        let mut disk = wal.medium().clone();
        disk.crash_dropping_cache();
        let (_, frames, report) = Wal::recover(disk, 0).unwrap();
        assert_eq!(frames.len(), 5, "exactly the flushed prefix survives");
        assert_eq!(report.frames_replayed, 5);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_complete_frame() {
        // Tear at every possible byte offset inside the unflushed tail:
        // recovery must always produce a clean prefix of complete
        // frames, never an error.
        let mut wal = Wal::create(SimDisk::new(3), 0);
        for i in 0..3 {
            wal.append(&payload(i));
        }
        wal.flush();
        wal.append(&payload(3));
        wal.append(&payload(4));
        let pending = wal.medium().cached_len();
        for cut in 0..=pending {
            let disk = wal.medium().clone();
            // Deterministic tear at `cut`: emulate via manual drain.
            let mut all = vec![0u8; disk.len() as usize];
            disk.read(0, &mut all).unwrap();
            let keep = (disk.durable_len() + cut) as usize;
            let mut torn = SimDisk::new(0);
            torn.append(&all[..keep]);
            torn.flush();
            let (_, frames, report) = Wal::recover(torn, 0).unwrap();
            assert!(frames.len() >= 3, "flushed frames always survive (cut={cut})");
            assert!(frames.len() <= 5);
            for (i, (seq, p)) in frames.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(*p, payload(i as u64));
            }
            let whole: u64 = frames.len() as u64;
            assert_eq!(
                report.frames_replayed, whole,
                "report counts the surviving frames (cut={cut})"
            );
        }
    }

    #[test]
    fn seeded_crash_recovers_a_prefix() {
        for seed in 0..50 {
            let mut wal = Wal::create(SimDisk::new(seed), 0);
            for i in 0..4 {
                wal.append(&payload(i));
            }
            wal.flush();
            for i in 4..9 {
                wal.append(&payload(i));
            }
            let mut disk = wal.medium().clone();
            disk.crash();
            let (_, frames, _) = Wal::recover(disk, 0).unwrap();
            assert!(frames.len() >= 4, "seed {seed}: flushed frames lost");
            for (i, (seq, p)) in frames.iter().enumerate() {
                assert_eq!(*seq, i as u64, "seed {seed}");
                assert_eq!(*p, payload(i as u64), "seed {seed}");
            }
        }
    }

    #[test]
    fn interior_corruption_fails_loudly() {
        // Damage every durable sector in turn: recovery must error every
        // time, never silently truncate valid frames away.
        let mut wal = Wal::create(SimDisk::with_sector(4, 64), 0);
        for i in 0..20 {
            wal.append(&payload(i));
        }
        wal.flush();
        let sectors = wal.medium().durable_len().div_ceil(64);
        assert!(sectors > 3);
        for s in 0..sectors {
            let mut disk = wal.medium().clone();
            assert!(disk.corrupt_sector(s));
            match Wal::recover(disk, 0) {
                Err(StorageError::Corruption(_)) => {}
                other => panic!("sector {s}: expected loud corruption error, got {other:?}"),
            }
        }
    }

    #[test]
    fn recovery_truncates_so_a_second_recovery_is_clean() {
        let mut wal = Wal::create(SimDisk::new(5), 0);
        wal.append(&payload(0));
        wal.flush();
        wal.append(&payload(1));
        let mut disk = wal.medium().clone();
        disk.crash(); // may tear mid-frame
        let (wal2, frames, report) = Wal::recover(disk, 0).unwrap();
        let disk2 = wal2.medium().clone();
        let (_, frames2, report2) = Wal::recover(disk2, 0).unwrap();
        assert_eq!(frames, frames2);
        assert_eq!(report2.truncated_bytes, 0, "first recovery already truncated");
        assert_eq!(report.frames_replayed, report2.frames_replayed);
    }

    #[test]
    fn appends_after_recovery_continue_the_sequence() {
        let mut wal = Wal::create(SimDisk::new(6), 0);
        for i in 0..3 {
            wal.append(&payload(i));
        }
        wal.flush();
        let (mut reopened, _, _) = Wal::recover(wal.medium().clone(), 0).unwrap();
        assert_eq!(reopened.append(b"later"), 3);
        reopened.flush();
        let (_, frames, _) = Wal::recover(reopened.medium().clone(), 0).unwrap();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[3], (3, b"later".to_vec()));
    }

    #[test]
    fn reset_clears_frames_but_sequence_continues() {
        let mut wal = Wal::create(SimDisk::new(7), 0);
        for i in 0..5 {
            wal.append(&payload(i));
        }
        wal.flush();
        wal.reset();
        assert_eq!(wal.medium().len(), 0);
        assert_eq!(wal.append(b"post-compaction"), 5, "seq numbers never repeat");
        wal.flush();
        let (_, frames, _) = Wal::recover(wal.medium().clone(), 0).unwrap();
        assert_eq!(frames, vec![(5, b"post-compaction".to_vec())]);
    }

    #[test]
    fn create_on_nonempty_medium_panics() {
        let mut disk = SimDisk::new(8);
        disk.append(b"junk");
        let result = std::panic::catch_unwind(|| Wal::create(disk, 0));
        assert!(result.is_err());
    }
}
