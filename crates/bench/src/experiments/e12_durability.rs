//! E12 — durability: seeded disk-fault sweeps over the persistent
//! ledger and PBFT-with-durable-log.
//!
//! Like E11 this measures *correctness under fault load*: each row
//! sweeps seeded disk-fault schedules (torn writes, dropped write-back
//! caches, sector corruption — chosen round-robin by seed) and reports
//! how many seeds upheld the durability invariants:
//!
//! * every acked (flushed) write survives recovery;
//! * recovered state is a prefix-consistent view of the pre-crash
//!   history (`digest_at` equality);
//! * hash-chain digests still verify after recovery;
//! * applied corruption is detected loudly, never recovered silently.
//!
//! The expected result is zero violations; a non-zero count prints the
//! offending seeds. Replay one with `cargo run --release -p prever-bench
//! --bin chaos -- --protocol <pbft-disk|ledger-disk> --seed <n>`.

use crate::chaos::{sweep, ChaosOutcome, Protocol};
use crate::Table;

/// Seeds per scenario: (pbft-disk, ledger-disk).
fn seed_counts(quick: bool) -> (u64, u64) {
    if quick {
        (3, 12)
    } else {
        (30, 150)
    }
}

/// Commands/entries per run.
fn command_counts(quick: bool) -> (u64, u64) {
    if quick {
        (10, 40)
    } else {
        (20, 80)
    }
}

/// Runs the durability sweeps and tabulates per-scenario results.
pub fn run(quick: bool) -> Table {
    let (pd, ld) = seed_counts(quick);
    let (cd, cl) = command_counts(quick);
    let mut table = Table::new(
        "E12: durability sweeps — seeded disk faults vs crash-consistency invariants",
        &[
            "scenario",
            "seeds",
            "cmds/seed",
            "durability viol",
            "other viol",
            "recovered recs",
            "torn bytes",
            "corrupt detected",
            "restarts",
        ],
    );
    for (protocol, seeds, commands) in
        [(Protocol::PbftDisk, pd, cd), (Protocol::LedgerDisk, ld, cl)]
    {
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
    let durability = count(&|v: &str| v.starts_with("durability"));
    let other = count(&|v: &str| !v.starts_with("durability"));
    let sum = |f: &dyn Fn(&ChaosOutcome) -> u64| -> u64 { outcomes.iter().map(f).sum() };
    vec![
        protocol.name().to_string(),
        outcomes.len().to_string(),
        commands.to_string(),
        durability.to_string(),
        other.to_string(),
        sum(&|o| o.recovered_frames).to_string(),
        sum(&|o| o.truncated_bytes).to_string(),
        sum(&|o| o.detected_corruptions).to_string(),
        sum(&|o| o.stats.restarts_with_loss).to_string(),
    ]
}
