//! Integration: a federated checkpoint certificate — PBFT orders the
//! updates, every manager journals them identically, and a co-signed
//! digest (2f + 1 signatures) becomes the globally trusted checkpoint
//! (RC4 for mutually distrustful managers).

use bytes::Bytes;
use prever_consensus::pbft::{self, PbftMsg, NOOP_ID};
use prever_consensus::Command;
use prever_crypto::schnorr::{KeyPair, SchnorrGroup};
use prever_crypto::BigUint;
use prever_ledger::{CoSignedDigest, Journal};
use prever_sim::{NetConfig, Simulation};
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn pbft_ordered_journals_co_sign_into_a_checkpoint() {
    let n = 4; // f = 1 → threshold 3
    let mut rng = StdRng::seed_from_u64(51);
    let group = SchnorrGroup::test_group_256();
    let keys: Vec<KeyPair> = (0..n).map(|_| KeyPair::generate(&group, &mut rng)).collect();
    let managers: Vec<BigUint> = keys.iter().map(|k| k.public.clone()).collect();

    // Order 8 regulated updates through PBFT.
    let mut sim = Simulation::new(pbft::cluster(n), NetConfig::default(), 51);
    for i in 0..8u64 {
        sim.inject(0, 0, PbftMsg::request(Command::new(i, format!("update-{i}"))), 1 + i * 100);
    }
    assert!(sim.run_until_pred(2_000_000, |nodes| {
        nodes.iter().all(|nd| nd.core.executed_commands() >= 8)
    }));

    // Each manager journals its executed log and signs the digest.
    let mut cert = CoSignedDigest::new();
    let mut digests = Vec::new();
    for (r, key) in keys.iter().enumerate() {
        let mut journal = Journal::new();
        for d in sim.node(r).core.executed().iter().filter(|d| d.command.id != NOOP_ID) {
            journal.append(d.slot, d.command.payload.clone());
        }
        let digest = journal.digest();
        digests.push(digest.clone());
        // Only 3 of 4 sign (one manager is slow/offline).
        if r < 3 {
            cert.add(&group, key, &digest, &mut rng).unwrap();
        }
    }
    // All digests agree (consensus ⇒ identical journals).
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    // The certificate verifies at the BFT threshold.
    cert.verify(&group, &managers, 3).unwrap();

    // A forged certificate (signature from a non-member key) fails.
    let outsider = KeyPair::generate(&group, &mut rng);
    let mut forged = CoSignedDigest::new();
    forged.add(&group, &outsider, &digests[0], &mut rng).unwrap();
    assert!(forged.verify(&group, &managers, 1).is_err());
}

#[test]
fn diverging_manager_cannot_join_the_certificate() {
    let mut rng = StdRng::seed_from_u64(52);
    let group = SchnorrGroup::test_group_256();
    let keys: Vec<KeyPair> = (0..2).map(|_| KeyPair::generate(&group, &mut rng)).collect();

    let mut honest = Journal::new();
    honest.append(0, Bytes::from_static(b"update-0"));
    let mut tampered = Journal::new();
    tampered.append(0, Bytes::from_static(b"EVIL"));

    let mut cert = CoSignedDigest::new();
    cert.add(&group, &keys[0], &honest.digest(), &mut rng).unwrap();
    // The tampering manager's digest differs — it cannot co-sign.
    assert!(cert.add(&group, &keys[1], &tampered.digest(), &mut rng).is_err());
}
