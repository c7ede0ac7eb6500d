//! The chaos invariant library: every check more than one scenario
//! applies, stated once.
//!
//! Host-independent by construction: each function reads replica state
//! (`&PbftCore`, `&PbftNode` and the durable log it owns, `&ClientConn`,
//! `&ShardedNode`, ledger digests) and returns its violations; none
//! takes a `Simulation`, so a host other than the simulator is judged by
//! the same code. The prefix
//! of a violation is a contract: E11 and E12 bucket outcomes by `safety`
//! / `ledger` / `liveness` / `recovery` / `durability`.
//!
//! A clean run's digest does not depend on any of this, so the golden
//! digests cannot tell a check from a no-op. The tests below can: each
//! function is fed a doctored input and must fire.

use prever_consensus::pbft::{chain_digest, PbftCore, PbftNode};
use prever_consensus::sharded::{ShardedNode, Topology};
use prever_crypto::Digest;
use prever_ledger::LedgerDigest;
use prever_server::ClientConn;

/// A replica's id and its consensus core.
pub(crate) type ReplicaCore<'a> = (usize, &'a PbftCore);

/// Safety: no two replicas execute different commands at the same
/// slot. One violation per diverging pair, at the first slot where
/// they differ; a replica that merely trails another is fine.
pub(crate) fn check_agreement(cores: &[ReplicaCore]) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, &(a, core_a)) in cores.iter().enumerate() {
        for &(b, core_b) in &cores[i + 1..] {
            let diverged = core_a
                .executed()
                .iter()
                .zip(core_b.executed().iter())
                .find(|(da, db)| da.slot != db.slot || da.command.digest() != db.command.digest());
            if let Some((da, db)) = diverged {
                violations.push(format!(
                    "safety: replicas {a} and {b} diverge at slot {} ({} vs {})",
                    da.slot, da.command.id, db.command.id
                ));
            }
        }
    }
    violations
}

/// The committed prefix matches the durable ledger: replay the host's
/// own journal (which verifies its hash chain), recompute the chained
/// digest, and compare both the digest and the command count with its
/// core's memory.
pub(crate) fn check_journal(id: usize, host: &PbftNode) -> Vec<String> {
    let core = &host.core;
    let replayed = match host.durable().expect("a durable replica").replay() {
        Ok(replayed) => replayed,
        Err(e) => return vec![format!("ledger: replica {id} replay failed: {e:?}")],
    };
    let mut digest = Digest::ZERO;
    let mut commands = 0usize;
    for command in replayed.entries.iter().flat_map(|(_, batch, _)| batch.commands()) {
        digest = chain_digest(digest, command);
        commands += 1;
    }
    let mut violations = Vec::new();
    if digest != core.state_digest() {
        violations.push(format!("ledger: replica {id} journal digest mismatch"));
    }
    if commands != core.executed().len() {
        violations.push(format!(
            "ledger: replica {id} journal has {commands} commands, memory has {}",
            core.executed().len()
        ));
    }
    violations
}

/// Provable catch-up: a restarted replica's executed-history digest
/// matches the quorum's.
pub(crate) fn check_caught_up((victim, core): ReplicaCore, reference: &PbftCore) -> Option<String> {
    (core.state_digest() != reference.state_digest()).then(|| {
        format!("recovery: restarted replica {victim} state digest differs from the quorum's")
    })
}

/// Liveness report for a run whose completion predicate never fired:
/// names every replica still short of the workload. Counts *distinct*
/// ids — an equivocating primary can get one command committed at two
/// slots.
pub(crate) fn report_unfinished(cores: &[ReplicaCore], commands: u64) -> Vec<String> {
    cores
        .iter()
        .filter_map(|&(i, core)| {
            let got = core.distinct_executed_commands() as u64;
            (got < commands)
                .then(|| format!("liveness: replica {i} executed {got}/{commands} after heal"))
        })
        .collect()
}

/// Durability of acks: every id the client saw `Committed` is executed
/// at `core`. `at` names that replica in the violation text.
pub(crate) fn check_acks(
    client: usize,
    conn: &ClientConn,
    at: &str,
    core: &PbftCore,
) -> Vec<String> {
    let mut acked: Vec<u64> = conn.acked_ids().iter().copied().collect();
    acked.sort_unstable();
    acked
        .into_iter()
        .filter(|&id| !core.has_executed(id))
        .map(|id| {
            format!("durability: client {client} holds an ack for id {id} that {at} never executed")
        })
        .collect()
}

/// Crash consistency of a recovered journal of `k` records: every
/// flushed (acked) record survived and nothing was invented
/// (`flushed ≤ k ≤ total`), and what came back is a prefix of the
/// pre-crash history — its digest equals the pre-crash `digest_at(k)`.
/// `None` stands for a digest that could not be read.
pub(crate) fn check_recovered_prefix(
    k: u64,
    (flushed, total): (u64, u64),
    pre_crash_at_k: Option<LedgerDigest>,
    recovered: Option<LedgerDigest>,
) -> Option<String> {
    if k < flushed || k > total {
        Some(format!(
            "durability: recovered {k} records outside [flushed={flushed}, total={total}]"
        ))
    } else if pre_crash_at_k.is_none() || pre_crash_at_k != recovered {
        Some(format!("durability: recovered digest is not the pre-crash prefix digest at {k}"))
    } else {
        None
    }
}

/// True iff some id occurs twice (a command decided or completed twice
/// within one log).
pub(crate) fn has_duplicates(mut ids: Vec<u64>) -> bool {
    ids.sort_unstable();
    ids.windows(2).any(|w| w[0] == w[1])
}

/// The sharded scenarios' verdict over the whole cluster (`nodes[id]`
/// is node `id`): no leaks, no duplicate completions, intra-shard
/// transactions never abort, no two replicas resolve one transaction
/// differently — and, when the resolution predicate never fired
/// (`!live`), which transactions each node left unresolved.
pub(crate) fn sharded_invariants(
    topo: Topology,
    txs: u64,
    involved_of: &dyn Fn(u64) -> Vec<usize>,
    nodes: &[&ShardedNode],
    live: bool,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        let shard = topo.shard_of(id);
        for c in node.completed() {
            if !involved_of(c.tx_id).contains(&shard) {
                violations.push(format!(
                    "safety: node {id} (shard {shard}) completed uninvolved tx {}",
                    c.tx_id
                ));
            }
        }
        if has_duplicates(node.completed().iter().map(|c| c.tx_id).collect()) {
            violations.push(format!("safety: node {id} completed a tx twice"));
        }
        // Intra-shard transactions never enter the cross-shard decision
        // path, so they must not abort.
        for i in 0..txs {
            let inv = involved_of(i);
            if inv.len() == 1 && inv[0] == shard && node.outcome_of(i) == Some(false) {
                violations.push(format!("safety: node {id} aborted intra-shard tx {i}"));
            }
        }
    }
    // Outcome agreement: no two replicas resolve the same tx differently.
    for i in 0..txs {
        let mut outcomes =
            nodes.iter().enumerate().filter_map(|(id, n)| n.outcome_of(i).map(|o| (id, o)));
        if let Some((first_id, first)) = outcomes.next() {
            if let Some((id, o)) = outcomes.find(|&(_, o)| o != first) {
                let word = |commit| if commit { "commit" } else { "abort" };
                violations.push(format!(
                    "safety: tx {i} resolved {} at node {first_id} but {} at node {id}",
                    word(first),
                    word(o),
                ));
            }
        }
    }
    if !live {
        for (id, node) in nodes.iter().enumerate() {
            let shard = topo.shard_of(id);
            let unresolved: Vec<u64> = (0..txs)
                .filter(|&i| involved_of(i).contains(&shard) && !node.is_resolved(i))
                .collect();
            if !unresolved.is_empty() {
                violations
                    .push(format!("liveness: node {id} left {unresolved:?} unresolved after heal"));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    //! Negative controls: every check is fed a doctored input and must
    //! fire, with the prefix E11/E12 bucket by — and must stay silent on
    //! the matching clean input. Replace a function's body by "no
    //! violations" and its test here goes red.

    use super::*;
    use prever_consensus::durable::DurableLog;
    use prever_consensus::pbft::Byzantine;
    use prever_consensus::sharded;
    use prever_consensus::{Batch, BatchConfig, Command};
    use prever_server::{server_cluster, ClientCfg, FrontConfig};
    use prever_sim::{NetConfig, Simulation};

    /// One single-command batch per id, dense from sequence 1.
    fn history(ids: &[u64]) -> Vec<(u64, Batch, u64)> {
        let batch = |id: u64| Batch::single(Command::new(id, format!("cmd-{id}")));
        ids.iter().enumerate().map(|(i, &id)| (i as u64 + 1, batch(id), 0)).collect()
    }

    /// A core that executed `ids` in order.
    fn core(ids: &[u64]) -> PbftCore {
        let mut core = PbftCore::new(0, vec![0, 1, 2, 3], Byzantine::Honest);
        core.install_history(history(ids), Vec::new(), Vec::new());
        core
    }

    /// A journal holding `ids` in order.
    fn journal(ids: &[u64]) -> DurableLog {
        let mut log = DurableLog::new();
        for (seq, batch, at) in history(ids) {
            log.append_exec(seq, &batch, at);
        }
        log
    }

    /// A durable host whose own journal holds `logged` and whose core
    /// executed `executed`, both in order.
    fn host(logged: &[u64], executed: &[u64]) -> PbftNode {
        let mut host = PbftNode::with_durable(0, 4, Byzantine::Honest, journal(logged));
        host.core = core(executed);
        host
    }

    #[test]
    fn agreement_fires_once_per_diverging_pair_and_not_on_a_prefix() {
        let (a, b, trailing) = (core(&[1, 2, 3]), core(&[1, 7, 3]), core(&[1, 2]));
        let violations = check_agreement(&[(0, &a), (1, &b), (2, &trailing)]);
        assert_eq!(
            violations,
            [
                "safety: replicas 0 and 1 diverge at slot 2 (2 vs 7)",
                "safety: replicas 1 and 2 diverge at slot 2 (7 vs 2)",
            ]
        );
        assert!(check_agreement(&[(0, &a), (2, &trailing)]).is_empty());
    }

    #[test]
    fn journal_one_record_short_fails_digest_and_length() {
        let violations = check_journal(3, &host(&[1, 2], &[1, 2, 3]));
        assert_eq!(
            violations,
            [
                "ledger: replica 3 journal digest mismatch",
                "ledger: replica 3 journal has 2 commands, memory has 3",
            ]
        );
        assert!(check_journal(3, &host(&[1, 2, 3], &[1, 2, 3])).is_empty());
    }

    #[test]
    fn caught_up_fires_on_a_victim_that_trails_the_quorum() {
        let (quorum, victim) = (core(&[1, 2, 3]), core(&[1, 2]));
        let violation = check_caught_up((2, &victim), &quorum).expect("victim trails");
        assert!(violation.starts_with("recovery: restarted replica 2"), "{violation}");
        assert_eq!(check_caught_up((2, &core(&[1, 2, 3])), &quorum), None);
    }

    #[test]
    fn unfinished_names_exactly_the_replicas_short_of_the_workload() {
        let (done, short) = (core(&[1, 2, 3]), core(&[1, 2]));
        let cores = [(1, &done), (2, &short)];
        assert_eq!(report_unfinished(&cores, 3), ["liveness: replica 2 executed 2/3 after heal"]);
        assert!(report_unfinished(&cores, 2).is_empty());
    }

    #[test]
    fn acks_fire_once_per_acked_id_the_replica_never_executed() {
        // A real connection's ack set: one client through one gateway.
        let client = ClientCfg { requests: 5, id_base: 100, ..ClientCfg::default() };
        let nodes = server_cluster(4, FrontConfig::default(), BatchConfig::default(), &[client]);
        let mut sim = Simulation::new(nodes, NetConfig::default(), 7);
        assert!(sim.run_until_pred(2_000_000, |nodes| nodes[4].as_client().unwrap().conn.done()));
        let conn = &sim.node(4).as_client().unwrap().conn;
        assert_eq!(conn.acked_ids().len(), 5);

        let violations = check_acks(4, conn, "replica 9", &core(&[]));
        assert_eq!(violations.len(), 5, "{violations:?}");
        assert_eq!(
            violations[0],
            "durability: client 4 holds an ack for id 100 that replica 9 never executed"
        );
        let gateway = sim.node(0).core().expect("gateway has a core");
        assert!(check_acks(4, conn, "the gateway", gateway).is_empty());
    }

    #[test]
    fn recovered_prefix_fires_on_lost_acks_invented_records_and_a_foreign_prefix() {
        let pre = journal(&[1, 2, 3, 4]);
        let at = |k: u64| pre.digest_at(k).ok();
        let recovered = |ids: &[u64]| journal(ids).digest().ok();
        let bounds = (2, 4); // two records flushed, four written
        let lost = check_recovered_prefix(1, bounds, at(1), recovered(&[1])).expect("k < flushed");
        assert_eq!(lost, "durability: recovered 1 records outside [flushed=2, total=4]");
        let invented = check_recovered_prefix(5, bounds, at(5), recovered(&[1, 2, 3, 4, 5]));
        assert_eq!(
            invented.expect("k > total"),
            "durability: recovered 5 records outside [flushed=2, total=4]"
        );
        let foreign = check_recovered_prefix(3, bounds, at(3), recovered(&[1, 2, 9]));
        assert_eq!(
            foreign.expect("not a prefix"),
            "durability: recovered digest is not the pre-crash prefix digest at 3"
        );
        let unreadable = check_recovered_prefix(3, bounds, at(3), None);
        assert_eq!(
            unreadable.expect("recovered media that cannot be read back"),
            "durability: recovered digest is not the pre-crash prefix digest at 3"
        );
        for k in 2..=4 {
            let ids: Vec<u64> = (1..=k).collect();
            assert_eq!(check_recovered_prefix(k, bounds, at(k), recovered(&ids)), None);
        }
    }

    #[test]
    fn duplicates_are_found_wherever_they_sit() {
        assert!(has_duplicates(vec![3, 1, 2, 3]));
        assert!(!has_duplicates(vec![3, 1, 2]));
        assert!(!has_duplicates(Vec::new()));
    }

    #[test]
    fn sharded_invariants_fire_on_a_leak_and_on_an_unresolved_tx() {
        // A clean finished cluster: two intra-shard txs and one cross.
        let topo = Topology { n_shards: 2, replicas_per_shard: 4 };
        let involved_of =
            |i: u64| -> Vec<usize> { [vec![0], vec![1], vec![0, 1]][i as usize % 3].clone() };
        let nodes = sharded::cluster(topo, BatchConfig::default());
        let mut sim = Simulation::new(nodes, NetConfig::default(), 11);
        for i in 0..3 {
            let command = Command::new(i, format!("tx-{i}"));
            sharded::submit(&mut sim, topo, command, involved_of(i), 1 + i);
        }
        let resolved = |nodes: &[ShardedNode], txs: u64| {
            (0..topo.n_nodes()).all(|id| {
                let shard = topo.shard_of(id);
                (0..txs)
                    .filter(|&i| involved_of(i).contains(&shard))
                    .all(|i| nodes[id].is_resolved(i))
            })
        };
        assert!(sim.run_until_pred(2_000_000, |nodes| resolved(nodes, 3)));
        let nodes: Vec<&ShardedNode> = (0..topo.n_nodes()).map(|id| sim.node(id)).collect();
        assert_eq!(sharded_invariants(topo, 3, &involved_of, &nodes, true), Vec::<String>::new());

        // Judged against a workload that says tx 0 never touched shard 0.
        let disagrees = |i: u64| if i == 0 { vec![1] } else { involved_of(i) };
        let leaks = sharded_invariants(topo, 3, &disagrees, &nodes, true);
        assert_eq!(leaks.len(), 4, "one per shard-0 replica: {leaks:?}");
        assert_eq!(leaks[0], "safety: node 0 (shard 0) completed uninvolved tx 0");

        // Judged as not live against a workload with a fourth tx nobody
        // submitted: every shard-0 replica is reported, shard 1 is not.
        let unresolved = sharded_invariants(topo, 4, &involved_of, &nodes, false);
        assert_eq!(unresolved.len(), 4, "{unresolved:?}");
        assert_eq!(unresolved[0], "liveness: node 0 left [3] unresolved after heal");
        assert!(sharded_invariants(topo, 4, &involved_of, &nodes, true).is_empty());
    }
}
