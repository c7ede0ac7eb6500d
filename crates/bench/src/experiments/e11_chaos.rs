//! E11 — robustness: deterministic chaos sweeps over Paxos, PBFT, and
//! the sharded deployment.
//!
//! Unlike E1–E10 this experiment measures *correctness under fault
//! load*, not speed: each row sweeps seeded fault schedules (Byzantine
//! equivocation, crash-and-restart-with-state-loss, partitions, rough
//! links) and reports how many seeds upheld the safety and liveness
//! invariants. The expected result is boring — zero violations — and
//! that is the point: the table is a regression tripwire. A non-zero
//! violation count prints the offending seeds; replay one with
//! `cargo run --release -p prever-bench --bin chaos -- --protocol
//! <name> --seed <n>`.

use crate::chaos::{sweep, ChaosOutcome, Protocol};
use crate::Table;

/// Seeds per protocol: (pbft, paxos, sharded).
fn seed_counts(quick: bool) -> (u64, u64, u64) {
    if quick {
        (3, 2, 2)
    } else {
        (50, 20, 10)
    }
}

/// Commands per run: kept modest so full mode stays minutes, not hours.
fn command_counts(quick: bool) -> (u64, u64, u64) {
    if quick {
        (10, 8, 6)
    } else {
        (30, 25, 12)
    }
}

/// Runs the chaos sweeps and tabulates per-protocol results.
pub fn run(quick: bool) -> Table {
    let (pb, px, sh) = seed_counts(quick);
    let (cb, cx, csh) = command_counts(quick);
    let mut table = Table::new(
        "E11: chaos sweeps — seeded fault schedules vs safety/liveness invariants",
        &[
            "protocol",
            "seeds",
            "cmds/seed",
            "safety viol",
            "liveness viol",
            "crashes",
            "restarts",
            "synced cmds",
            "dropped",
            "dup'd",
            "corrupted",
        ],
    );
    for (protocol, seeds, commands) in [
        (Protocol::Pbft, pb, cb),
        (Protocol::PbftBatched, pb, cb),
        (Protocol::Paxos, px, cx),
        (Protocol::Sharded, sh, csh),
        (Protocol::ShardedParallel, sh, csh),
    ] {
        let outcomes = sweep(protocol, 0, seeds, commands, |_| {});
        table.row(summarize(protocol, commands, &outcomes));
    }
    table
}

fn summarize(protocol: Protocol, commands: u64, outcomes: &[ChaosOutcome]) -> Vec<String> {
    let count = |pred: &dyn Fn(&str) -> bool| -> usize {
        outcomes
            .iter()
            .filter(|o| o.violations.iter().any(|v| pred(v)))
            .count()
    };
    let safety = count(&|v: &str| v.starts_with("safety") || v.starts_with("ledger"));
    let liveness = count(&|v: &str| v.starts_with("liveness") || v.starts_with("recovery"));
    let sum = |f: &dyn Fn(&ChaosOutcome) -> u64| -> u64 { outcomes.iter().map(f).sum() };
    vec![
        protocol.name().to_string(),
        outcomes.len().to_string(),
        commands.to_string(),
        safety.to_string(),
        liveness.to_string(),
        sum(&|o| o.stats.crashes).to_string(),
        sum(&|o| o.stats.recoveries + o.stats.restarts_with_loss).to_string(),
        sum(&|o| o.synced).to_string(),
        sum(&|o| o.stats.messages_dropped).to_string(),
        sum(&|o| o.stats.messages_duplicated).to_string(),
        sum(&|o| o.stats.messages_corrupted).to_string(),
    ]
}
