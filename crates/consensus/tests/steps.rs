//! The simulator's step records over the consensus actors: every
//! dispatch and every counted unit of work lands in exactly one step,
//! and each actor names each of its message kinds once.

use prever_consensus::paxos::{PaxosMsg, PaxosNode};
use prever_consensus::pbft::{self, PbftMsg, PbftNode};
use prever_consensus::sharded::{ShardedMsg, ShardedNode, Topology};
use prever_consensus::{Batch, Command};
use prever_crypto::Digest;
use prever_obs::work::{self, Unit};
use prever_sim::{Actor, NetConfig, Simulation, StepTotals};
use std::collections::HashSet;
use std::sync::Arc;

const N: usize = 4;
const COMMANDS: u64 = 20;

/// A fault-free 4-replica run: `COMMANDS` requests injected at replica
/// 0, run long enough for every checkpoint vote to land. Returns the
/// simulation and the work the whole run did on this thread.
fn run() -> (Simulation<PbftNode>, work::Counts) {
    let mut sim = Simulation::new(pbft::cluster(N), NetConfig::default(), 17);
    sim.enable_trace(4_096);
    for i in 0..COMMANDS {
        sim.inject(0, 0, PbftMsg::request(Command::new(i, format!("step-{i}"))), 1 + 300 * i);
    }
    let ((), work) = work::measure(|| {
        sim.run_until(1_000_000);
    });
    assert_eq!(sim.node(1).core.executed_commands() as u64, COMMANDS);
    (sim, work)
}

#[test]
fn every_dispatch_and_every_counted_unit_lands_in_exactly_one_step() {
    let (sim, work) = run();
    let steps = sim.steps();
    let mut all = StepTotals::default();
    steps.values().for_each(|t| all += t);
    let stats = sim.stats();
    assert_eq!(
        all.steps,
        stats.messages_delivered + stats.timers_fired + N as u64,
        "one step per delivery, per timer and per start"
    );
    assert_eq!(steps.get("start").map(|t| t.steps), Some(N as u64));
    assert_eq!(all.sends, stats.messages_sent);
    let hashed = all.work[Unit::Sha256Compress];
    assert!(hashed > 0);
    assert_eq!(hashed, work[Unit::Sha256Compress], "hashing outside a step");

    // Deliveries by kind are the replicas' receive counts, plus the
    // client injections (which arrive from the replica itself and are
    // not network receives).
    let cores: Vec<_> = (0..N).map(|i| sim.node(i).core.msg_stats().clone()).collect();
    for (&kind, t) in steps.iter().filter(|(k, _)| !["start", "timer"].contains(*k)) {
        let recv: u64 = cores.iter().map(|s| s.recv(kind)).sum();
        let injected = if kind == "request" { COMMANDS } else { 0 };
        assert_eq!(t.steps, recv + injected, "deliveries of {kind}");
    }
    for kind in ["pre_prepare", "prepare", "commit", "checkpoint"] {
        assert!(steps.get(kind).is_some_and(|t| t.steps > 0), "no {kind} step");
    }
}

#[test]
fn replays_record_the_same_steps() {
    let without_wall = |sim: &Simulation<PbftNode>| -> Vec<(&str, StepTotals)> {
        sim.steps().iter().map(|(k, t)| (*k, StepTotals { wall_ns: 0, ..*t })).collect()
    };
    let (a, _) = run();
    let (b, _) = run();
    assert_eq!(without_wall(&a), without_wall(&b));
    let tail = a.trace_tail(4_096);
    assert_eq!(tail, b.trace_tail(4_096));
    assert!(tail.iter().any(|l| l.contains("deliver") && l.contains("commit")));
    assert!(tail.iter().any(|l| l.contains("timer")));
}

/// Every kind in `kinds` is non-empty, distinct, and not a step kind the
/// simulator itself names.
fn assert_named_once(actor: &str, kinds: &[&'static str]) {
    let distinct: HashSet<_> = kinds.iter().collect();
    assert_eq!(distinct.len(), kinds.len(), "{actor} names two variants alike: {kinds:?}");
    for kind in kinds {
        let reserved = ["start", "timer", "message"];
        assert!(!kind.is_empty() && !reserved.contains(kind), "{actor}: {kind:?}");
    }
}

fn every_pbft_msg() -> Vec<PbftMsg> {
    let batch = Batch::single(Command::new(1, "x"));
    let (view, seq, digest) = (0, 1, Digest::ZERO);
    vec![
        PbftMsg::Request(batch.clone()),
        PbftMsg::PrePrepare { view, seq, batch: batch.clone() },
        PbftMsg::Prepare { view, seq, digest },
        PbftMsg::Commit { view, seq, digest },
        PbftMsg::ViewChange { new_view: 1, prepared: Vec::new() },
        PbftMsg::NewView { new_view: 1, proposals: Vec::new() },
        PbftMsg::Checkpoint { seq, state_digest: digest },
        PbftMsg::StateRequest { have: 0 },
        PbftMsg::StateResponse { view, entries: Vec::new() },
    ]
}

#[test]
fn each_consensus_message_kind_is_named_once() {
    let node = PbftNode::new(0, N, pbft::Byzantine::Honest);
    let pbft: Vec<_> = every_pbft_msg().iter().map(|m| node.kind(m)).collect();
    assert_named_once("PbftNode", &pbft);

    let batch = Batch::single(Command::new(1, "x"));
    let paxos = PaxosNode::new(0, 3);
    let paxos_msgs = [
        PaxosMsg::ClientRequest(batch.clone()),
        PaxosMsg::Prepare { ballot: 1 },
        PaxosMsg::Promise { ballot: 1, accepted: Vec::new() },
        PaxosMsg::Accept { ballot: 1, slot: 0, batch: batch.clone() },
        PaxosMsg::Accepted { ballot: 1, slot: 0 },
        PaxosMsg::Decide { slot: 0, batch },
        PaxosMsg::Heartbeat { ballot: 1, decided_up_to: 0 },
        PaxosMsg::LearnRequest { missing: Vec::new() },
    ];
    let kinds: Vec<_> = paxos_msgs.iter().map(|m| paxos.kind(m)).collect();
    assert_named_once("PaxosNode", &kinds);

    let topo = Topology { n_shards: 2, replicas_per_shard: 4 };
    let sharded = ShardedNode::new(0, topo, pbft::Byzantine::Honest);
    let involved: Arc<[usize]> = Arc::from(vec![0, 1]);
    let mut sharded_msgs = vec![
        ShardedMsg::Request { command: Arc::new(Command::new(1, "x")), involved: involved.clone() },
        ShardedMsg::Prepared { tx_id: 1, shard: 0, digest: Digest::ZERO },
        ShardedMsg::Outcome { tx_id: 1, commit: true, involved: involved.clone() },
        ShardedMsg::TxQuery { tx_id: 1 },
        ShardedMsg::TxInfo { tx_id: 1, involved, completed: true, aborted: false },
    ];
    sharded_msgs.extend(every_pbft_msg().into_iter().map(ShardedMsg::Pbft));
    let kinds: Vec<_> = sharded_msgs.iter().map(|m| sharded.kind(m)).collect();
    assert_named_once("ShardedNode", &kinds);
    for (m, inner) in sharded_msgs[5..].iter().zip(&pbft) {
        assert_eq!(sharded.kind(m), *inner, "intra-shard traffic reports the PBFT kind");
    }
}
