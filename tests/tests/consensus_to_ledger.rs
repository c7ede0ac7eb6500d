//! Integration: consensus output feeds the authenticated ledger (RC4).
//! PBFT-ordered commands are journaled identically at every replica;
//! Paxos and PBFT produce equivalent logs for the same client stream.

use prever_consensus::pbft::{self, PbftMsg, NOOP_ID};
use prever_consensus::paxos::{self, PaxosMsg};
use prever_consensus::Command;
use prever_ledger::Journal;
use prever_sim::{NetConfig, Simulation};

#[test]
fn pbft_replicas_build_identical_journals() {
    let n = 4;
    let mut sim = Simulation::new(pbft::cluster(n), NetConfig::default(), 5);
    for i in 0..15u64 {
        sim.inject(0, 0, PbftMsg::request(Command::new(i, format!("u{i}"))), sim.now() + 1 + i);
    }
    assert!(sim.run_until_pred(2_000_000, |nodes| {
        nodes.iter().all(|nd| nd.core.executed_commands() >= 15)
    }));
    // Each replica journals its executed log; digests must agree.
    let digests: Vec<_> = (0..n)
        .map(|r| {
            let mut j = Journal::new();
            for d in sim.node(r).core.executed().iter().filter(|d| d.command.id != NOOP_ID) {
                // Deterministic timestamps (the slot) keep digests equal.
                j.append(d.slot, d.command.payload.clone());
            }
            j.digest()
        })
        .collect();
    for r in 1..n {
        assert_eq!(digests[r], digests[0], "replica {r} journal diverged");
    }
    // And the journal verifies.
    let mut j = Journal::new();
    for d in sim.node(0).core.executed().iter().filter(|d| d.command.id != NOOP_ID) {
        j.append(d.slot, d.command.payload.clone());
    }
    Journal::verify_chain(j.entries(), &digests[0]).unwrap();
}

#[test]
fn paxos_and_pbft_decide_the_same_command_set() {
    let ids: Vec<u64> = (0..12).collect();

    // PBFT run.
    let mut bft = Simulation::new(pbft::cluster(4), NetConfig::default(), 3);
    for &i in &ids {
        bft.inject(0, 0, PbftMsg::request(Command::new(i, format!("c{i}"))), bft.now() + 1 + i);
    }
    assert!(bft.run_until_pred(2_000_000, |nodes| {
        nodes.iter().all(|nd| nd.core.executed_commands() >= 12)
    }));
    let executed = bft.node(0).core.executed();
    let mut bft_ids: Vec<u64> =
        executed.iter().map(|d| d.command.id).filter(|&id| id != NOOP_ID).collect();
    bft_ids.sort_unstable();

    // Paxos run.
    let mut px = Simulation::new(paxos::cluster(5), NetConfig::default(), 3);
    px.run_until(50_000);
    for &i in &ids {
        px.inject(
            0,
            0,
            PaxosMsg::request(Command::new(i, format!("c{i}"))),
            px.now() + 1 + i,
        );
    }
    assert!(px.run_until_pred(3_000_000, |nodes| nodes[1].decided().len() >= 12));
    let mut px_ids: Vec<u64> = px.node(1).decided_ids();
    px_ids.sort_unstable();
    px_ids.dedup();

    assert_eq!(bft_ids, ids);
    assert_eq!(px_ids, ids);
}

#[test]
fn bft_latency_exceeds_paxos_latency() {
    // Sanity for E3's expected shape: PBFT's three phases cost more
    // round-trips than Paxos's leader-driven phase 2.
    let mean = |times: Vec<u64>| times.iter().sum::<u64>() as f64 / times.len() as f64;

    let mut bft = Simulation::new(pbft::cluster(4), NetConfig::default(), 11);
    let mut submit_at = Vec::new();
    for i in 0..10u64 {
        let at = 1 + i * 10_000;
        submit_at.push(at);
        bft.inject(0, 0, PbftMsg::request(Command::new(i, "x")), at);
    }
    assert!(bft.run_until_pred(5_000_000, |nodes| {
        nodes.iter().all(|nd| nd.core.executed_commands() >= 10)
    }));
    let bft_lat = mean(
        bft.node(1)
            .core
            .executed()
            .iter()
            .filter(|d| d.command.id != NOOP_ID)
            .map(|d| d.at - submit_at[d.command.id as usize])
            .collect(),
    );

    let mut px = Simulation::new(paxos::cluster(4), NetConfig::default(), 11);
    px.run_until(50_000);
    let base = px.now();
    let mut submit_at = Vec::new();
    for i in 0..10u64 {
        let at = base + 1 + i * 10_000;
        submit_at.push(at);
        px.inject(0, 0, PaxosMsg::request(Command::new(i, "x")), at);
    }
    assert!(px.run_until_pred(5_000_000, |nodes| nodes[0].decided().len() >= 10));
    let px_lat = mean(
        px.node(0)
            .decided()
            .values()
            .flat_map(|(batch, at)| batch.commands().iter().map(move |c| (c.id, *at)))
            .map(|(id, at)| at - submit_at[id as usize])
            .collect(),
    );

    assert!(
        bft_lat > px_lat,
        "PBFT latency {bft_lat:.0}µs should exceed Paxos latency {px_lat:.0}µs"
    );
}
