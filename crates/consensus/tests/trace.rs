//! Causal trace propagation tests (DESIGN.md §13).
//!
//! The trace sink is process-global and these tests run concurrently in
//! one binary, so each test owns a disjoint command-id range and filters
//! the sink by the trace ids minted from those ids. Tests enable
//! collection but never disable or reset it (that would race a sibling
//! test mid-run).

use prever_consensus::pbft::{Byzantine, PbftMsg, PbftNode};
use prever_consensus::sharded::{self, Topology};
use prever_consensus::{durable::DurableLog, BatchConfig, Command};
use prever_obs::trace::{self, stage_rank, TraceEvent};
use prever_obs::TraceCtx;
use prever_sim::{NetConfig, ParallelConfig, Simulation};
use std::collections::{HashMap, HashSet};

fn trace_ids_of(ids: impl Iterator<Item = u64>) -> HashSet<u64> {
    ids.map(|id| TraceCtx::for_command(id).trace_id).collect()
}

fn events_for(ids: &HashSet<u64>) -> Vec<TraceEvent> {
    trace::events().into_iter().filter(|e| ids.contains(&e.trace_id)).collect()
}

#[test]
fn pbft_commit_trace_has_one_cut_one_quorum_one_flush_per_command() {
    trace::set_trace_enabled(true);
    let n = 4;
    let cfg = BatchConfig::new(8, 20_000, 4);
    let nodes: Vec<PbftNode> = (0..n)
        .map(|id| {
            PbftNode::with_durable(id, n, Byzantine::Honest, DurableLog::new())
                .with_batching(cfg)
        })
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::default(), 11);
    const BASE: u64 = 0x6100_0000;
    let cmds = 20u64;
    for i in 0..cmds {
        let id = BASE + i;
        sim.inject(0, 0, PbftMsg::request(Command::new(id, "traced")), i + 1);
    }
    let ok = sim.run_until_pred(3_000_000, |nodes| {
        nodes.iter().all(|nd| nd.core.executed_commands() as u64 >= cmds)
    });
    assert!(ok, "cluster did not commit all commands");

    let mine = trace_ids_of((0..cmds).map(|i| BASE + i));
    let evs = events_for(&mine);
    for i in 0..cmds {
        let t = TraceCtx::for_command(BASE + i).trace_id;
        let per: Vec<&TraceEvent> = evs.iter().filter(|e| e.trace_id == t).collect();
        // Exactly one batch cut cluster-wide: only the view-0 primary
        // proposes in a clean run.
        let cuts = per.iter().filter(|e| e.stage == "batch-cut").count();
        assert_eq!(cuts, 1, "command {i}: {cuts} batch-cut events");
        // Per replica: one quorum commit, one exec, one wal-flush
        // (check a backup — replica 1 — so relays don't confound).
        for stage in ["commit-quorum", "exec", "wal-flush"] {
            let k = per.iter().filter(|e| e.stage == stage && e.node == 1).count();
            assert_eq!(k, 1, "command {i}: {k} {stage} events on replica 1");
        }
        // Lamport-consistent: first arrival per stage is monotone in
        // pipeline order (queue ≤ batch-cut ≤ … ≤ wal-flush).
        let mut first: HashMap<usize, u64> = HashMap::new();
        for e in &per {
            let r = stage_rank(e.stage);
            let at = first.entry(r).or_insert(e.at);
            *at = (*at).min(e.at);
        }
        let mut ranks: Vec<usize> = first.keys().copied().collect();
        ranks.sort_unstable();
        for w in ranks.windows(2) {
            assert!(
                first[&w[0]] <= first[&w[1]],
                "command {i}: stage {} at {} after stage {} at {}",
                w[0],
                first[&w[0]],
                w[1],
                first[&w[1]]
            );
        }
        // The full ordering pipeline is present.
        for stage in ["queue", "batch-cut", "pre-prepare", "prepare-quorum"] {
            assert!(
                per.iter().any(|e| e.stage == stage),
                "command {i}: no {stage} event"
            );
        }
    }
}

#[test]
fn cross_shard_commit_trace_spans_both_shards_in_order() {
    trace::set_trace_enabled(true);
    let t = Topology { n_shards: 2, replicas_per_shard: 4 };
    let nodes = sharded::cluster(t, BatchConfig::default());
    let mut sim = Simulation::new(nodes, NetConfig::default(), 12);
    const TX: u64 = 0x6200_0001;
    sharded::submit(&mut sim, t, Command::new(TX, "cross"), vec![0, 1], 1);
    let ok = sim.run_until_pred(10_000_000, |nodes| {
        (0..t.n_nodes()).all(|id| nodes[id].completed_count() >= 1)
    });
    assert!(ok, "cross-shard tx did not commit everywhere");

    let mine = trace_ids_of(std::iter::once(TX));
    let evs = events_for(&mine);
    let shard_of = |node: u64| (node as usize) / t.replicas_per_shard;
    // Both shards locked (ordered the tx in their own log).
    let locks: Vec<&TraceEvent> = evs.iter().filter(|e| e.stage == "cross-lock").collect();
    for shard in 0..2 {
        assert!(
            locks.iter().any(|e| shard_of(e.node) == shard),
            "no cross-lock event from shard {shard}"
        );
    }
    // The coordinator (shard 0) decided, every involved shard finalized.
    let decides: Vec<&TraceEvent> = evs.iter().filter(|e| e.stage == "cross-decide").collect();
    assert!(!decides.is_empty(), "no cross-decide event");
    assert!(decides.iter().all(|e| shard_of(e.node) == 0), "decision outside coordinator shard");
    let outcomes: Vec<&TraceEvent> = evs.iter().filter(|e| e.stage == "cross-outcome").collect();
    for shard in 0..2 {
        assert!(
            outcomes.iter().any(|e| shard_of(e.node) == shard),
            "no cross-outcome event on shard {shard}"
        );
    }
    // Lamport-consistent ordering: the decision follows at least one
    // lock on every involved shard (Prepared votes carry the lock), and
    // each shard's outcome follows the first decision.
    let first_decide = decides.iter().map(|e| e.at).min().unwrap();
    for shard in 0..2 {
        let first_lock =
            locks.iter().filter(|e| shard_of(e.node) == shard).map(|e| e.at).min().unwrap();
        assert!(
            first_lock <= first_decide,
            "shard {shard} locked at {first_lock} after the decision at {first_decide}"
        );
    }
    for e in &outcomes {
        assert!(
            e.at >= first_decide,
            "outcome on node {} at {} precedes the decision at {first_decide}",
            e.node,
            e.at
        );
    }
}

#[test]
fn parallel_sim_traces_are_bit_identical() {
    trace::set_trace_enabled(true);
    let t = Topology { n_shards: 2, replicas_per_shard: 4 };
    const BASE: u64 = 0x6300_0000;
    let cmds = 12u64;
    let run = || {
        let cfg = ParallelConfig { seed: 77, ..ParallelConfig::default() };
        let mut sim = sharded::parallel_cluster(t, BatchConfig::new(4, 10_000, 4), cfg);
        for i in 0..cmds {
            let id = BASE + i;
            let involved = if i % 3 == 0 { vec![0, 1] } else { vec![(i % 2) as usize] };
            sharded::submit_parallel(&mut sim, t, Command::new(id, "par"), involved, i + 1);
        }
        let done = sim.run_until_probe(30_000_000, |probes| {
            probes.iter().map(|p| p.completed).sum::<usize>() >= (cmds as usize * 4)
        });
        assert!(done, "parallel run did not complete the workload");
        sim.into_nodes(); // join the shard threads before reading the sink
    };

    let mine = trace_ids_of((0..cmds).map(|i| BASE + i));
    let key = |e: &TraceEvent| (e.at, e.trace_id, e.stage, e.node, e.seq, e.parent_span);
    let multiset = |evs: &[TraceEvent]| {
        let mut m: HashMap<_, usize> = HashMap::new();
        for e in evs {
            *m.entry(key(e)).or_default() += 1;
        }
        m
    };
    run();
    let first = multiset(&events_for(&mine));
    assert!(!first.is_empty(), "first run recorded no trace events");
    run();
    let second = multiset(&events_for(&mine));
    // The sink accumulates across runs: a bit-identical replay doubles
    // every event count exactly — any scheduling-dependent timestamp,
    // node, or stage would show up as a key with an odd count.
    assert_eq!(second.len(), first.len(), "replay produced new distinct events");
    for (k, v) in &first {
        assert_eq!(
            second.get(k),
            Some(&(v * 2)),
            "event {k:?} not exactly doubled by the replay"
        );
    }
}
