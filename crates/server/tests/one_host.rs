//! The serving layer embeds the consensus crate's replica host instead
//! of copying it. These tests hold the two spellings of a replica — a
//! bare [`PbftNode`] and a [`ServerPeer::Replica`] — to the same
//! behaviour, event for event.

use prever_consensus::durable::{DurableLog, DurableMedia, FlushPolicy};
use prever_consensus::pbft::{Byzantine, PbftMsg, PbftNode};
use prever_consensus::{Batch, BatchConfig, Command, Decided};
use prever_crypto::Digest;
use prever_server::{Replica, ServerMsg, ServerPeer};
use prever_sim::{Actor, FaultPlan, NetConfig, SimStats, Simulation};

fn replica(peer: &ServerPeer) -> &PbftNode {
    &peer.as_replica().expect("replica").adapter
}

/// Under `FlushPolicy::Every(2)` exec records reach the platter on every
/// second dispatch. A recovering host's state-transfer request stages
/// nothing, so starting it is not a dispatch: the first delivered message
/// stages and holds, the second flushes. (The serving layer's copy of the
/// host used to count its start, and flushed one message early.)
fn recovered_host_flushes_on_its_second_delivery<A: Actor>(
    host: impl FnOnce(DurableLog) -> A,
    wrap: impl Fn(PbftMsg) -> A::Msg,
    node: impl Fn(&A) -> &PbftNode,
) {
    let log = DurableLog::on(&DurableMedia::new(1)).with_policy(FlushPolicy::Every(2));
    // Replica 0 of n = 3, alone in the simulation (its sync request goes
    // nowhere). f = 0, so one responder is a state-transfer quorum: the
    // first response is applied as it arrives.
    let mut sim = Simulation::new(vec![host(log)], NetConfig::default(), 1);
    // (records written, records flushed) of the host's own log.
    let written = |sim: &Simulation<A>| {
        let log = node(sim.node(0)).durable().expect("durable");
        (log.len(), log.flushed_records())
    };
    let response = |entries| PbftMsg::StateResponse { view: 0, entries };
    let batch = Batch::new(vec![Command::new(7, "synced")]);
    sim.inject(1, 0, wrap(response(vec![(1, batch)])), 10);
    sim.run_until(10);
    assert_eq!(written(&sim).0, 1, "the synced batch is staged as one exec record");
    assert_eq!(written(&sim).1, 0, "start counted as a dispatch: flushed one message early");
    sim.inject(2, 0, wrap(response(Vec::new())), 20);
    sim.run_until(20);
    assert_eq!(written(&sim).1, 1, "the second dispatch is the group-commit point");
}

#[test]
fn starting_a_recovered_host_is_not_a_dispatch() {
    recovered_host_flushes_on_its_second_delivery(
        |log| PbftNode::recover_with(0, 3, Byzantine::Honest, log),
        |m| m,
        |n| n,
    );
    recovered_host_flushes_on_its_second_delivery(
        |log| {
            ServerPeer::Replica(Box::new(Replica::recover_with(0, 3, BatchConfig::default(), log)))
        },
        ServerMsg::Pbft,
        replica,
    );
}

const N: usize = 4;
const COMMANDS: u64 = 40;

/// What a four-replica run leaves behind: the simulator's counters and,
/// per replica, the executed history and the durable log's digest
/// (size, Merkle root, chain head).
type Outcome = (SimStats, Vec<(Vec<Decided>, (u64, Digest, Digest))>);

/// Runs four hosts built by `host` under one seeded schedule — requests
/// at three replicas, replica 3 crashed mid-run and rebuilt from its
/// surviving media — and returns the stats and each replica's executed
/// history and durable-log digest.
fn run_cluster<A: Actor + 'static>(
    host: impl Fn(usize, DurableLog, bool) -> A + 'static,
    wrap: impl Fn(PbftMsg) -> A::Msg,
    node: impl Fn(&A) -> &PbftNode,
) -> Outcome {
    let media: Vec<DurableMedia> = (0..N as u64).map(DurableMedia::new).collect();
    let fresh = |(id, m)| host(id, DurableLog::on(m), false);
    let nodes = media.iter().enumerate().map(fresh).collect();
    let mut sim = Simulation::new(nodes, NetConfig::default(), 77);
    sim.set_fault_plan(FaultPlan::new().crash_at(30_000, 3).restart_with_loss_at(90_000, 3));
    sim.set_node_factory(move |id| {
        let (log, _) = DurableLog::recover(&media[id]).expect("clean media");
        host(id, log, true)
    });
    for i in 0..COMMANDS {
        let to = (i % 3) as usize;
        let request = PbftMsg::request(Command::new(1_000 + i, format!("cmd-{i}")));
        sim.inject(to, to, wrap(request), 1 + i * 3_000);
    }
    let done = sim.run_until_pred(5_000_000, |nodes| {
        nodes.iter().all(|a| node(a).core.executed_commands() as u64 >= COMMANDS)
    });
    assert!(done, "cluster did not execute every command");
    // Drain what the predicate cut short (checkpoint votes in flight).
    sim.run_until(sim.now() + 500_000);
    let per_node = (0..N)
        .map(|id| {
            let host = node(sim.node(id));
            let log = host.durable().expect("durable").digest().expect("the media hold the log");
            (host.core.executed().iter().collect(), (log.size, log.root, log.head_hash))
        })
        .collect();
    (sim.stats(), per_node)
}

#[test]
fn replicas_and_pbft_nodes_leave_equal_histories_and_logs() {
    let batch = BatchConfig::new(4, 2_000, 4);
    let bare = run_cluster(
        move |id, log, recovered| {
            let node = if recovered {
                PbftNode::recover_with(id, N, Byzantine::Honest, log)
            } else {
                PbftNode::with_durable(id, N, Byzantine::Honest, log)
            };
            node.with_batching(batch)
        },
        |m| m,
        |n| n,
    );
    let served = run_cluster(
        move |id, log, recovered| {
            ServerPeer::Replica(Box::new(if recovered {
                Replica::recover_with(id, N, batch, log)
            } else {
                Replica::with_durable(id, N, batch, log)
            }))
        },
        ServerMsg::Pbft,
        replica,
    );
    assert_eq!(bare.0.restarts_with_loss, 1);
    assert!(bare.1[3].0.len() as u64 >= COMMANDS, "the rebuilt replica caught up");
    assert_eq!(bare, served, "a ServerPeer::Replica is a PbftNode, event for event");
}
