//! Fault-injection integration tests: consensus under lossy networks,
//! partitions that heal, and combined crash + loss scenarios.
//!
//! The paper's federated deployments assume realistic infrastructure;
//! these tests check the liveness machinery (Paxos retransmission and
//! learn-gap recovery, PBFT view changes) under injected faults.

use prever_consensus::paxos::{self, PaxosMsg, PaxosNode};
use prever_consensus::pbft::{self, PbftMsg};
use prever_consensus::{Batch, Command};
use prever_sim::{NetConfig, Simulation};

/// A node's decided batches by slot, without its decision times (which
/// differ between nodes).
fn batches(node: &PaxosNode) -> Vec<(u64, Batch)> {
    node.decided().iter().map(|(slot, (batch, _))| (*slot, batch.clone())).collect()
}

#[test]
fn paxos_survives_10_percent_message_loss() {
    let cfg = NetConfig { drop_rate: 0.10, ..NetConfig::default() };
    let n = 5;
    let mut sim = Simulation::new(paxos::cluster(n), cfg, 77);
    sim.run_until(200_000);
    for i in 0..20u64 {
        let target = (i % n as u64) as usize;
        sim.inject(
            target,
            target,
            PaxosMsg::request(Command::new(i, format!("c{i}"))),
            sim.now() + 1 + i * 1000,
        );
    }
    // All nodes eventually decide everything (retransmission +
    // learn-gap recovery close the holes).
    let ok = sim.run_until_pred(3_000_000, |nodes| {
        nodes.iter().all(|nd| {
            let ids: std::collections::HashSet<u64> =
                nd.decided_ids().into_iter().collect();
            (0..20).all(|i| ids.contains(&i))
        })
    });
    assert!(ok, "paxos failed to converge under 10% loss");
    assert!(sim.stats().messages_dropped > 0, "the fault was actually injected");
    // Safety: identical logs everywhere.
    let reference = batches(sim.node(0));
    for i in 1..n {
        assert_eq!(batches(sim.node(i)), reference, "node {i} diverged");
    }
}

#[test]
fn paxos_partition_heals_and_logs_reconcile() {
    let n = 5;
    let mut sim = Simulation::new(paxos::cluster(n), NetConfig::default(), 5);
    sim.run_until(50_000);
    for i in 0..5u64 {
        sim.inject(0, 0, PaxosMsg::request(Command::new(i, "pre")), sim.now() + 1 + i);
    }
    assert!(sim.run_until_pred(1_000_000, |nodes| nodes[4].decided().len() >= 5));
    // Partition off nodes {3, 4}; the majority continues.
    sim.set_partition(vec![0, 0, 0, 1, 1]);
    for i in 5..10u64 {
        sim.inject(0, 0, PaxosMsg::request(Command::new(i, "during")), sim.now() + 1 + i);
    }
    assert!(sim.run_until_pred(3_000_000, |nodes| nodes[1].decided().len() >= 10));
    assert!(sim.node(4).decided().len() < 10, "minority must lag during partition");
    // Heal: heartbeats + learn-gap recovery bring the minority up.
    sim.heal_partition();
    let ok = sim.run_until_pred(5_000_000, |nodes| {
        (0..n).all(|i| nodes[i].decided().len() >= 10)
    });
    assert!(ok, "minority failed to catch up after heal");
    let reference = batches(sim.node(0));
    for i in 1..n {
        assert_eq!(batches(sim.node(i)), reference);
    }
}

#[test]
fn pbft_progresses_under_light_loss() {
    // PBFT quorums (2f+1 of 3f+1) absorb light loss; view changes
    // recover anything that stalls.
    let cfg = NetConfig { drop_rate: 0.03, ..NetConfig::default() };
    let mut sim = Simulation::new(pbft::cluster(4), cfg, 13);
    for i in 0..10u64 {
        sim.inject(0, 0, PbftMsg::request(Command::new(i, "x")), 1 + i * 2000);
    }
    let ok = sim.run_until_pred(60_000_000, |nodes| {
        nodes.iter().all(|nd| nd.core.executed_commands() >= 10)
    });
    assert!(ok, "pbft failed under 3% loss");
    // Safety across replicas regardless of how many view changes ran.
    let slots: Vec<(u64, u64)> = sim
        .node(0)
        .core
        .executed()
        .iter()
        .map(|d| (d.slot, d.command.id))
        .collect();
    for i in 1..4 {
        for (slot, id) in &slots {
            if let Some(d) = sim.node(i).core.executed().iter().find(|d| d.slot == *slot) {
                if d.command.id != prever_consensus::pbft::NOOP_ID && *id != prever_consensus::pbft::NOOP_ID {
                    assert_eq!(d.command.id, *id, "divergence at slot {slot}");
                }
            }
        }
    }
}

#[test]
fn paxos_crash_plus_loss_combined() {
    let cfg = NetConfig { drop_rate: 0.05, ..NetConfig::default() };
    let n = 5;
    let mut sim = Simulation::new(paxos::cluster(n), cfg, 21);
    sim.run_until(200_000);
    for i in 0..5u64 {
        sim.inject(1, 1, PaxosMsg::request(Command::new(i, "a")), sim.now() + 1 + i);
    }
    assert!(sim.run_until_pred(3_000_000, |nodes| nodes[1].decided().len() >= 5));
    let leader = (0..n).find(|&i| sim.node(i).is_leader()).expect("leader");
    sim.crash(leader);
    let survivor = (leader + 1) % n;
    for i in 5..10u64 {
        sim.inject(
            survivor,
            survivor,
            PaxosMsg::request(Command::new(i, "b")),
            sim.now() + 1000 + i,
        );
    }
    let ok = sim.run_until_pred(10_000_000, move |nodes| {
        (0..n).filter(|&i| i != leader).all(|i| {
            let ids: std::collections::HashSet<u64> =
                nodes[i].decided_ids().into_iter().collect();
            (0..10).all(|c| ids.contains(&c))
        })
    });
    assert!(ok, "survivors failed under crash + loss");
}
