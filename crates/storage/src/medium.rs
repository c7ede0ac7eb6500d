//! The storage medium abstraction and its deterministic simulated disk.
//!
//! Everything durable in the workspace (the WAL in [`crate::wal`], and
//! through it the ledger journal and the PBFT durable log) writes to a
//! [`StorageMedium`]: a flat, append-mostly byte device with an explicit
//! [`flush`](StorageMedium::flush) barrier. The production analogue is a
//! file opened with `O_APPEND` plus `fdatasync`; the test/simulation
//! implementation is [`SimDisk`], which models the failure behavior a
//! real disk exhibits under a crash:
//!
//! * **Write-back cache** — [`append`](StorageMedium::append) lands in a
//!   volatile cache; only [`flush`](StorageMedium::flush) moves bytes to
//!   the durable platter. A [`SimDisk::crash`] drops whatever was not
//!   flushed.
//! * **Torn writes** — a crash does not drop the cache atomically: full
//!   sectors drain to the platter first, and the final sector can be cut
//!   at an *arbitrary byte*, leaving a partial frame on disk. The cut
//!   point is drawn from the disk's own seeded PRNG, so a crash at the
//!   same operation sequence tears identically on replay.
//! * **Sector corruption** — [`SimDisk::corrupt_random_flushed_sector`]
//!   damages one byte of an already-durable sector (seeded bit rot). The
//!   WAL's CRC framing must detect this *loudly* on recovery rather than
//!   silently serving damaged history.
//!
//! Determinism invariant: a `SimDisk` built from the same seed and
//! driven through the same operation sequence (appends, flushes,
//! crashes, corruptions, truncates) holds bit-identical contents — which
//! is what makes a disk-fault chaos run replayable from nothing but its
//! seed.

use crate::{Result, StorageError};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default sector size (bytes) for [`SimDisk`]: the classic 512-byte
/// sector, the atomic write unit the torn-write model respects.
pub const DEFAULT_SECTOR: u64 = 512;

/// A flat byte device with an explicit durability barrier.
///
/// Reads observe the *logical* contents (durable bytes plus any
/// write-back cache): a running process sees its own unflushed writes.
/// Only flushed bytes survive a crash.
pub trait StorageMedium {
    /// Logical length: durable bytes plus cached (unflushed) bytes.
    fn len(&self) -> u64;

    /// True iff the medium holds no bytes at all.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of bytes guaranteed to survive a crash.
    fn durable_len(&self) -> u64;

    /// Fills `out` from the logical contents starting at `offset`.
    ///
    /// Errors with [`StorageError::Medium`] if the range extends past
    /// the logical end.
    fn read(&self, offset: u64, out: &mut [u8]) -> Result<()>;

    /// Appends `bytes` to the write-back cache (volatile until
    /// [`flush`](Self::flush)).
    fn append(&mut self, bytes: &[u8]);

    /// Durability barrier: drains the write-back cache to the platter.
    /// On return every previously appended byte survives a crash.
    fn flush(&mut self);

    /// Truncates the logical contents to `len` bytes and flushes. Used
    /// by WAL recovery (discarding a torn tail) and compaction.
    fn truncate(&mut self, len: u64);

    /// The atomic write unit in bytes.
    fn sector_size(&self) -> u64 {
        DEFAULT_SECTOR
    }
}

/// Operation counters for a [`SimDisk`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// `append` calls.
    pub appends: u64,
    /// Bytes handed to the write-back cache.
    pub bytes_appended: u64,
    /// `flush` calls.
    pub flushes: u64,
    /// Bytes moved from cache to platter by flushes.
    pub bytes_flushed: u64,
    /// Crashes applied to this disk.
    pub crashes: u64,
    /// Unflushed bytes destroyed by crashes.
    pub bytes_lost: u64,
    /// Bytes of unflushed cache that *survived* crashes as torn writes.
    pub torn_bytes_kept: u64,
    /// Sectors damaged by corruption faults.
    pub sectors_corrupted: u64,
}

/// Deterministic simulated disk. See the module docs for the fault
/// model.
#[derive(Clone, Debug)]
pub struct SimDisk {
    durable: Vec<u8>,
    cache: Vec<u8>,
    sector: u64,
    rng: u64,
    stats: DiskStats,
}

impl SimDisk {
    /// A fresh, empty disk whose fault PRNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_sector(seed, DEFAULT_SECTOR)
    }

    /// A fresh disk with an explicit sector size (must be nonzero).
    pub fn with_sector(seed: u64, sector: u64) -> Self {
        assert!(sector > 0, "sector size must be nonzero");
        SimDisk {
            durable: Vec::new(),
            cache: Vec::new(),
            sector,
            // splitmix64 state; mixed so seed 0 still produces a lively
            // stream.
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
            stats: DiskStats::default(),
        }
    }

    /// Operation counters so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Bytes currently sitting in the volatile write-back cache.
    pub fn cached_len(&self) -> u64 {
        self.cache.len() as u64
    }

    /// Next word of the disk's private splitmix64 stream.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Crashes the disk with torn-write semantics: a seeded prefix of
    /// the write-back cache reaches the platter (full sectors first, the
    /// last one cut at an arbitrary byte); the rest is destroyed.
    /// Returns the number of cache bytes that survived.
    pub fn crash(&mut self) -> u64 {
        let pending = self.cache.len() as u64;
        // Pick how far the drain got before power died: any byte in
        // [0, pending]. Sector granularity emerges naturally — every
        // sector before the cut is complete, the cut sector is partial.
        let kept = if pending == 0 { 0 } else { self.next_u64() % (pending + 1) };
        self.apply_crash(kept)
    }

    /// Crashes the disk dropping the *entire* write-back cache (the
    /// drain had not started). Returns 0.
    pub fn crash_dropping_cache(&mut self) -> u64 {
        self.apply_crash(0)
    }

    fn apply_crash(&mut self, kept: u64) -> u64 {
        let pending = self.cache.len() as u64;
        debug_assert!(kept <= pending);
        self.durable.extend_from_slice(&self.cache[..kept as usize]);
        self.cache.clear();
        self.stats.crashes += 1;
        self.stats.torn_bytes_kept += kept;
        self.stats.bytes_lost += pending - kept;
        kept
    }

    /// Damages one byte of sector `sector_idx` of the durable region by
    /// XOR-ing it with a seeded nonzero mask. Returns `false` (no-op) if
    /// the sector holds no durable bytes.
    pub fn corrupt_sector(&mut self, sector_idx: u64) -> bool {
        let start = sector_idx * self.sector;
        if start >= self.durable.len() as u64 {
            return false;
        }
        let end = (start + self.sector).min(self.durable.len() as u64);
        let span = end - start;
        let offset = start + self.next_u64() % span;
        let mask = (self.next_u64() % 255 + 1) as u8; // never 0: always damages
        self.durable[offset as usize] ^= mask;
        self.stats.sectors_corrupted += 1;
        true
    }

    /// Damages a seeded byte somewhere in the flushed region. Returns
    /// `false` (no-op) if nothing is durable yet.
    pub fn corrupt_random_flushed_sector(&mut self) -> bool {
        if self.durable.is_empty() {
            return false;
        }
        let sectors = (self.durable.len() as u64).div_ceil(self.sector);
        let idx = self.next_u64() % sectors;
        self.corrupt_sector(idx)
    }

    /// Wipes the disk back to empty (both platter and cache). Used when
    /// recovery detects corruption and the operator reformats; the fault
    /// PRNG and stats carry on.
    pub fn wipe(&mut self) {
        self.durable.clear();
        self.cache.clear();
    }
}

impl StorageMedium for SimDisk {
    fn len(&self) -> u64 {
        (self.durable.len() + self.cache.len()) as u64
    }

    fn durable_len(&self) -> u64 {
        self.durable.len() as u64
    }

    fn read(&self, offset: u64, out: &mut [u8]) -> Result<()> {
        let end = offset + out.len() as u64;
        if end > self.len() {
            return Err(StorageError::Medium("read past end of medium"));
        }
        let dlen = self.durable.len() as u64;
        for (i, slot) in out.iter_mut().enumerate() {
            let pos = offset + i as u64;
            *slot = if pos < dlen {
                self.durable[pos as usize]
            } else {
                self.cache[(pos - dlen) as usize]
            };
        }
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) {
        self.cache.extend_from_slice(bytes);
        self.stats.appends += 1;
        self.stats.bytes_appended += bytes.len() as u64;
    }

    fn flush(&mut self) {
        self.stats.flushes += 1;
        self.stats.bytes_flushed += self.cache.len() as u64;
        self.durable.append(&mut self.cache);
    }

    fn truncate(&mut self, len: u64) {
        // Truncation is a metadata operation followed by a barrier:
        // everything that remains is durable.
        self.flush();
        self.durable.truncate(len as usize);
    }

    fn sector_size(&self) -> u64 {
        self.sector
    }
}

/// A cloneable handle to a [`SimDisk`] shared between a running process
/// and the harness that crashes it.
///
/// The chaos harness keeps one handle across a restart-with-loss: the
/// dying node's handle is dropped with the node, the surviving handle is
/// crashed (dropping unflushed bytes) and handed to the replacement
/// process for recovery. The handle is `Send`, so an actor owning one
/// can be hosted on any thread.
#[derive(Clone, Debug)]
pub struct SharedDisk {
    inner: Arc<Mutex<SimDisk>>,
}

impl SharedDisk {
    /// A fresh shared disk seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self::from_disk(SimDisk::new(seed))
    }

    /// Wraps an existing disk.
    pub fn from_disk(disk: SimDisk) -> Self {
        SharedDisk { inner: Arc::new(Mutex::new(disk)) }
    }

    fn disk(&self) -> MutexGuard<'_, SimDisk> {
        self.inner.lock().expect("a thread panicked while holding the disk")
    }

    /// Crashes the underlying disk with torn-write semantics; returns
    /// surviving cache bytes. See [`SimDisk::crash`].
    pub fn crash(&self) -> u64 {
        self.disk().crash()
    }

    /// Crashes dropping the whole cache. See
    /// [`SimDisk::crash_dropping_cache`].
    pub fn crash_dropping_cache(&self) -> u64 {
        self.disk().crash_dropping_cache()
    }

    /// Damages a seeded flushed sector; `false` if nothing durable.
    pub fn corrupt_random_flushed_sector(&self) -> bool {
        self.disk().corrupt_random_flushed_sector()
    }

    /// Damages a specific sector; `false` if out of range.
    pub fn corrupt_sector(&self, sector_idx: u64) -> bool {
        self.disk().corrupt_sector(sector_idx)
    }

    /// Wipes the disk to empty. See [`SimDisk::wipe`].
    pub fn wipe(&self) {
        self.disk().wipe()
    }

    /// Operation counters.
    pub fn stats(&self) -> DiskStats {
        self.disk().stats()
    }

    /// Bytes currently in the volatile cache.
    pub fn cached_len(&self) -> u64 {
        self.disk().cached_len()
    }
}

impl StorageMedium for SharedDisk {
    fn len(&self) -> u64 {
        self.disk().len()
    }

    fn durable_len(&self) -> u64 {
        self.disk().durable_len()
    }

    fn read(&self, offset: u64, out: &mut [u8]) -> Result<()> {
        self.disk().read(offset, out)
    }

    fn append(&mut self, bytes: &[u8]) {
        self.disk().append(bytes)
    }

    fn flush(&mut self) {
        self.disk().flush()
    }

    fn truncate(&mut self, len: u64) {
        self.disk().truncate(len)
    }

    fn sector_size(&self) -> u64 {
        self.disk().sector_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_are_volatile_until_flush() {
        let mut d = SimDisk::new(1);
        d.append(b"hello");
        assert_eq!(d.len(), 5);
        assert_eq!(d.durable_len(), 0);
        d.flush();
        assert_eq!(d.durable_len(), 5);
        let mut out = [0u8; 5];
        d.read(0, &mut out).unwrap();
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn reads_see_through_the_cache() {
        let mut d = SimDisk::new(1);
        d.append(b"abc");
        d.flush();
        d.append(b"def");
        let mut out = [0u8; 6];
        d.read(0, &mut out).unwrap();
        assert_eq!(&out, b"abcdef");
        assert!(d.read(1, &mut [0u8; 6]).is_err(), "read past logical end");
    }

    #[test]
    fn crash_drops_unflushed_bytes_or_keeps_a_torn_prefix() {
        let mut d = SimDisk::new(7);
        d.append(b"durable!");
        d.flush();
        d.append(&[0xAA; 1000]);
        let kept = d.crash();
        assert!(kept <= 1000);
        assert_eq!(d.durable_len(), 8 + kept);
        assert_eq!(d.len(), d.durable_len(), "cache is empty after a crash");
        // Flushed bytes always survive.
        let mut out = [0u8; 8];
        d.read(0, &mut out).unwrap();
        assert_eq!(&out, b"durable!");
    }

    #[test]
    fn crash_dropping_cache_loses_everything_pending() {
        let mut d = SimDisk::new(7);
        d.append(b"safe");
        d.flush();
        d.append(b"gone");
        assert_eq!(d.crash_dropping_cache(), 0);
        assert_eq!(d.len(), 4);
        assert_eq!(d.stats().bytes_lost, 4);
    }

    #[test]
    fn same_seed_same_tear() {
        let run = || {
            let mut d = SimDisk::new(99);
            d.append(&[1; 300]);
            d.flush();
            d.append(&[2; 700]);
            d.crash();
            let mut out = vec![0u8; d.len() as usize];
            d.read(0, &mut out).unwrap();
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corruption_damages_exactly_one_flushed_byte() {
        let mut d = SimDisk::new(3);
        d.append(&[0u8; 2048]);
        d.flush();
        let before = {
            let mut v = vec![0u8; 2048];
            d.read(0, &mut v).unwrap();
            v
        };
        assert!(d.corrupt_random_flushed_sector());
        let mut after = vec![0u8; 2048];
        d.read(0, &mut after).unwrap();
        let diffs = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1, "exactly one byte damaged");
        assert_eq!(d.stats().sectors_corrupted, 1);
    }

    #[test]
    fn corruption_of_empty_disk_is_a_noop() {
        let mut d = SimDisk::new(3);
        assert!(!d.corrupt_random_flushed_sector());
        d.append(b"x"); // cached only — still nothing durable to damage
        assert!(!d.corrupt_random_flushed_sector());
    }

    #[test]
    fn truncate_discards_the_tail() {
        let mut d = SimDisk::new(5);
        d.append(b"0123456789");
        d.flush();
        d.append(b"abc");
        d.truncate(4);
        assert_eq!(d.len(), 4);
        assert_eq!(d.durable_len(), 4, "truncate implies a barrier");
        let mut out = [0u8; 4];
        d.read(0, &mut out).unwrap();
        assert_eq!(&out, b"0123");
    }

    #[test]
    fn shared_disk_handles_alias_one_platter() {
        let a = SharedDisk::new(11);
        let mut b = a.clone();
        b.append(b"shared");
        b.flush();
        assert_eq!(a.durable_len(), 6);
        a.crash();
        assert_eq!(b.len(), 6);
    }
}
