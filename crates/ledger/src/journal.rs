//! The append-only journal: hash chain + Merkle tree.

use crate::{LedgerError, Result};
use bytes::Bytes;
use prever_crypto::merkle::{leaf_hash, ConsistencyProof, InclusionProof, MerkleTree};
use prever_crypto::sha256::{sha256_concat, Digest};

/// One journal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Sequence number (0-based, dense).
    pub seq: u64,
    /// Logical commit timestamp supplied by the writer.
    pub timestamp: u64,
    /// Opaque committed payload (e.g. an encoded `ChangeRecord`).
    pub payload: Bytes,
    /// Hash of the previous entry ([`Digest::ZERO`] for the first).
    pub prev_hash: Digest,
    /// This entry's hash: `H(seq ‖ timestamp ‖ prev_hash ‖ payload)`.
    pub entry_hash: Digest,
}

impl JournalEntry {
    pub(crate) fn compute_hash(
        seq: u64,
        timestamp: u64,
        prev_hash: &Digest,
        payload: &[u8],
    ) -> Digest {
        sha256_concat(&[
            b"prever-journal-entry",
            &seq.to_be_bytes(),
            &timestamp.to_be_bytes(),
            prev_hash.as_bytes(),
            payload,
        ])
    }

    /// The bytes hashed into the Merkle tree for this entry.
    pub fn leaf_bytes(&self) -> [u8; 48] {
        leaf_bytes(self.seq, self.timestamp, &self.entry_hash)
    }
}

/// The Merkle leaf of the entry at `seq`: `seq ‖ timestamp ‖ entry_hash`.
pub(crate) fn leaf_bytes(seq: u64, timestamp: u64, entry_hash: &Digest) -> [u8; 48] {
    let mut out = [0u8; 48];
    out[..8].copy_from_slice(&seq.to_be_bytes());
    out[8..16].copy_from_slice(&timestamp.to_be_bytes());
    out[16..].copy_from_slice(entry_hash.as_bytes());
    out
}

/// A published ledger digest: everything an auditor needs to verify
/// inclusion and consistency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerDigest {
    /// Number of entries covered.
    pub size: u64,
    /// Merkle root over entry leaves.
    pub root: Digest,
    /// Hash of the last entry in the chain.
    pub head_hash: Digest,
}

/// The append-only journal.
///
/// Two authenticated structures cover the same entries: a *hash chain*
/// (cheap sequential audit, detects any historical edit on replay) and a
/// *Merkle tree* (logarithmic inclusion/consistency proofs for auditors
/// that do not hold the full journal).
#[derive(Clone, Debug, Default)]
pub struct Journal {
    entries: Vec<JournalEntry>,
    tree: MerkleTree,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a payload; returns the committed entry.
    pub fn append(&mut self, timestamp: u64, payload: Bytes) -> &JournalEntry {
        let _span = prever_obs::span!("ledger.append");
        prever_obs::counter!("ledger.appends").inc();
        let seq = self.entries.len() as u64;
        let prev_hash = self
            .entries
            .last()
            .map(|e| e.entry_hash)
            .unwrap_or(Digest::ZERO);
        let entry_hash = JournalEntry::compute_hash(seq, timestamp, &prev_hash, &payload);
        let entry = JournalEntry { seq, timestamp, payload, prev_hash, entry_hash };
        self.tree.append(&entry.leaf_bytes());
        self.entries.push(entry);
        self.entries.last().expect("just pushed")
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry by sequence number.
    pub fn entry(&self, seq: u64) -> Result<&JournalEntry> {
        self.entries
            .get(seq as usize)
            .ok_or(LedgerError::OutOfRange("no such sequence number"))
    }

    /// All entries (auditor replay).
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The current digest.
    pub fn digest(&self) -> LedgerDigest {
        let _span = prever_obs::span!("ledger.merkle_root");
        LedgerDigest {
            size: self.entries.len() as u64,
            root: self.tree.root(),
            head_hash: self
                .entries
                .last()
                .map(|e| e.entry_hash)
                .unwrap_or(Digest::ZERO),
        }
    }

    /// The digest as of the first `size` entries.
    pub fn digest_at(&self, size: u64) -> Result<LedgerDigest> {
        if size > self.entries.len() as u64 {
            return Err(LedgerError::OutOfRange("digest_at beyond journal"));
        }
        Ok(LedgerDigest {
            size,
            root: self.tree.root_at(size as usize)?,
            head_hash: if size == 0 {
                Digest::ZERO
            } else {
                self.entries[size as usize - 1].entry_hash
            },
        })
    }

    /// Inclusion proof for entry `seq` under the digest of size
    /// `digest_size`.
    pub fn prove_inclusion(&self, seq: u64, digest_size: u64) -> Result<InclusionProof> {
        Ok(self
            .tree
            .prove_inclusion(seq as usize, digest_size as usize)?)
    }

    /// Consistency proof between two digest sizes.
    pub fn prove_consistency(&self, old_size: u64, new_size: u64) -> Result<ConsistencyProof> {
        Ok(self
            .tree
            .prove_consistency(old_size as usize, new_size as usize)?)
    }

    /// Verifies an entry against a digest using an inclusion proof.
    ///
    /// Static: runs on the auditor side with no journal access.
    pub fn verify_inclusion(
        entry: &JournalEntry,
        proof: &InclusionProof,
        digest: &LedgerDigest,
    ) -> Result<()> {
        // Entry self-consistency first: the hash must match its fields.
        let expect =
            JournalEntry::compute_hash(entry.seq, entry.timestamp, &entry.prev_hash, &entry.payload);
        if expect != entry.entry_hash {
            return Err(LedgerError::TamperDetected("entry hash mismatch"));
        }
        if proof.tree_size as u64 != digest.size || proof.leaf_index as u64 != entry.seq {
            return Err(LedgerError::TamperDetected("proof shape mismatch"));
        }
        proof.verify_leaf_hash(leaf_hash(&entry.leaf_bytes()), &digest.root)?;
        Ok(())
    }

    /// Verifies that `new` extends `old` using a consistency proof.
    pub fn verify_consistency(
        old: &LedgerDigest,
        new: &LedgerDigest,
        proof: &ConsistencyProof,
    ) -> Result<()> {
        if proof.old_size as u64 != old.size || proof.new_size as u64 != new.size {
            return Err(LedgerError::TamperDetected("consistency proof shape"));
        }
        if old.size > new.size {
            return Err(LedgerError::TamperDetected("digest shrank"));
        }
        proof.verify(&old.root, &new.root)?;
        Ok(())
    }

    /// Full sequential audit: recomputes the hash chain and Merkle root.
    /// O(n); the heavyweight check a regulator can run over a subpoenaed
    /// journal copy.
    pub fn verify_chain(entries: &[JournalEntry], digest: &LedgerDigest) -> Result<()> {
        if entries.len() as u64 != digest.size {
            return Err(LedgerError::TamperDetected("entry count mismatch"));
        }
        let mut prev = Digest::ZERO;
        let mut tree = MerkleTree::new();
        for (i, e) in entries.iter().enumerate() {
            if e.seq != i as u64 {
                return Err(LedgerError::TamperDetected("sequence gap"));
            }
            if e.prev_hash != prev {
                return Err(LedgerError::TamperDetected("chain break"));
            }
            let expect = JournalEntry::compute_hash(e.seq, e.timestamp, &e.prev_hash, &e.payload);
            if expect != e.entry_hash {
                return Err(LedgerError::TamperDetected("entry hash mismatch"));
            }
            prev = e.entry_hash;
            tree.append(&e.leaf_bytes());
        }
        if tree.root() != digest.root {
            return Err(LedgerError::TamperDetected("merkle root mismatch"));
        }
        if digest.size > 0 && digest.head_hash != prev {
            return Err(LedgerError::TamperDetected("head hash mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal_of(n: usize) -> Journal {
        let mut j = Journal::new();
        for i in 0..n {
            j.append(i as u64 * 10, Bytes::from(format!("update-{i}")));
        }
        j
    }

    #[test]
    fn append_builds_chain() {
        let j = journal_of(3);
        assert_eq!(j.len(), 3);
        assert_eq!(j.entry(0).unwrap().prev_hash, Digest::ZERO);
        assert_eq!(j.entry(1).unwrap().prev_hash, j.entry(0).unwrap().entry_hash);
        assert_eq!(j.entry(2).unwrap().prev_hash, j.entry(1).unwrap().entry_hash);
        assert!(j.entry(3).is_err());
    }

    #[test]
    fn digest_tracks_head() {
        let mut j = journal_of(2);
        let d2 = j.digest();
        assert_eq!(d2.size, 2);
        assert_eq!(d2.head_hash, j.entry(1).unwrap().entry_hash);
        j.append(99, Bytes::from_static(b"more"));
        let d3 = j.digest();
        assert_ne!(d2.root, d3.root);
        assert_eq!(j.digest_at(2).unwrap(), d2);
        assert!(j.digest_at(4).is_err());
    }

    #[test]
    fn empty_digest() {
        let j = Journal::new();
        let d = j.digest();
        assert_eq!(d.size, 0);
        assert_eq!(d.head_hash, Digest::ZERO);
    }

    #[test]
    fn inclusion_proof_roundtrip() {
        let j = journal_of(10);
        let digest = j.digest();
        for seq in 0..10u64 {
            let proof = j.prove_inclusion(seq, digest.size).unwrap();
            Journal::verify_inclusion(j.entry(seq).unwrap(), &proof, &digest).unwrap();
        }
    }

    #[test]
    fn inclusion_proof_against_past_digest() {
        let j = journal_of(10);
        let old = j.digest_at(6).unwrap();
        let proof = j.prove_inclusion(3, 6).unwrap();
        Journal::verify_inclusion(j.entry(3).unwrap(), &proof, &old).unwrap();
    }

    #[test]
    fn inclusion_detects_payload_tamper() {
        let j = journal_of(10);
        let digest = j.digest();
        let proof = j.prove_inclusion(4, digest.size).unwrap();
        let mut forged = j.entry(4).unwrap().clone();
        forged.payload = Bytes::from_static(b"FORGED");
        assert!(matches!(
            Journal::verify_inclusion(&forged, &proof, &digest),
            Err(LedgerError::TamperDetected(_))
        ));
    }

    #[test]
    fn inclusion_detects_recomputed_hash_tamper() {
        // Adversary recomputes entry_hash for the forged payload: the
        // Merkle root no longer matches.
        let j = journal_of(10);
        let digest = j.digest();
        let proof = j.prove_inclusion(4, digest.size).unwrap();
        let honest = j.entry(4).unwrap();
        let forged_hash = JournalEntry::compute_hash(4, honest.timestamp, &honest.prev_hash, b"FORGED");
        let forged = JournalEntry {
            seq: 4,
            timestamp: honest.timestamp,
            payload: Bytes::from_static(b"FORGED"),
            prev_hash: honest.prev_hash,
            entry_hash: forged_hash,
        };
        assert!(Journal::verify_inclusion(&forged, &proof, &digest).is_err());
    }

    #[test]
    fn consistency_proof_roundtrip() {
        let j = journal_of(20);
        for old in 0..20u64 {
            let proof = j.prove_consistency(old, 20).unwrap();
            Journal::verify_consistency(
                &j.digest_at(old).unwrap(),
                &j.digest(),
                &proof,
            )
            .unwrap();
        }
    }

    #[test]
    fn consistency_detects_history_rewrite() {
        let honest = journal_of(8);
        let old_digest = honest.digest_at(5).unwrap();
        // A tampered journal that rewrote entry 2 then extended.
        let mut tampered = Journal::new();
        for i in 0..8 {
            let payload = if i == 2 { "REWRITTEN".to_string() } else { format!("update-{i}") };
            tampered.append(i as u64 * 10, Bytes::from(payload));
        }
        let proof = tampered.prove_consistency(5, 8).unwrap();
        assert!(Journal::verify_consistency(&old_digest, &tampered.digest(), &proof).is_err());
    }

    #[test]
    fn consistency_rejects_shrinking_digest() {
        let j = journal_of(8);
        let proof = j.prove_consistency(3, 8).unwrap();
        // Swap old and new.
        assert!(Journal::verify_consistency(&j.digest(), &j.digest_at(3).unwrap(), &proof).is_err());
    }

    #[test]
    fn verify_chain_accepts_honest_journal() {
        let j = journal_of(50);
        Journal::verify_chain(j.entries(), &j.digest()).unwrap();
    }

    #[test]
    fn verify_chain_detects_each_tamper_kind() {
        let j = journal_of(10);
        let digest = j.digest();

        // Payload edit.
        let mut entries = j.entries().to_vec();
        entries[3].payload = Bytes::from_static(b"EVIL");
        assert!(Journal::verify_chain(&entries, &digest).is_err());

        // Entry removal.
        let mut entries = j.entries().to_vec();
        entries.remove(5);
        assert!(Journal::verify_chain(&entries, &digest).is_err());

        // Reorder.
        let mut entries = j.entries().to_vec();
        entries.swap(2, 3);
        assert!(Journal::verify_chain(&entries, &digest).is_err());

        // Consistent-looking rewrite (recomputed hashes) still fails on
        // the digest root.
        let mut forged = Journal::new();
        for i in 0..10 {
            let payload = if i == 7 { "EVIL".to_string() } else { format!("update-{i}") };
            forged.append(i as u64 * 10, Bytes::from(payload));
        }
        assert!(Journal::verify_chain(forged.entries(), &digest).is_err());
    }

    #[test]
    fn timestamps_affect_hashes() {
        let mut j1 = Journal::new();
        j1.append(1, Bytes::from_static(b"x"));
        let mut j2 = Journal::new();
        j2.append(2, Bytes::from_static(b"x"));
        assert_ne!(j1.digest().root, j2.digest().root);
    }
}
