//! Chaos runner: sweeps seeded fault schedules over the consensus
//! protocols and checks safety/liveness invariants on every run.
//!
//! Sweep mode (default):
//!
//! ```text
//! cargo run --release -p prever-bench --bin chaos
//! cargo run --release -p prever-bench --bin chaos -- --seeds 200
//! cargo run --release -p prever-bench --bin chaos -- --protocol pbft
//! ```
//!
//! Replay mode — reproduce one run (e.g. a seed the sweep flagged, or a
//! seed CI printed) and, if it violates, print the tail of the
//! simulator's ring of actor steps and network/fault notes, and the
//! per-node dump:
//!
//! ```text
//! cargo run --release -p prever-bench --bin chaos -- --protocol pbft --seed 17
//! ```
//!
//! Digest mode — one `protocol seed commands sha256` line per run, the
//! format of the committed `crates/bench/golden/chaos_digests.txt` (a
//! refactor that claims "same executions" regenerates it and diffs):
//!
//! ```text
//! cargo run --release -p prever-bench --bin chaos -- --digest --seeds 25
//! cargo run --release -p prever-bench --bin chaos -- --digest --protocol pbft --seed 17
//! ```
//!
//! Exit code is non-zero iff any run violated an invariant, so the
//! binary doubles as a CI gate (see `.github/workflows/ci.yml`).

use prever_bench::chaos::{run_seed, sweep, ChaosOutcome, Protocol};
use prever_bench::Table;

struct Args {
    protocols: Vec<Protocol>,
    seed: Option<u64>,
    seeds: Option<u64>,
    commands: Option<u64>,
    flight_check: bool,
    digest: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        protocols: Protocol::ALL.to_vec(),
        seed: None,
        seeds: None,
        commands: None,
        flight_check: false,
        digest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--protocol" => {
                let v = value("--protocol");
                let p = Protocol::from_name(&v).unwrap_or_else(|| {
                    die(&format!("unknown protocol {v:?} ({})", Protocol::names()))
                });
                args.protocols = vec![p];
            }
            "--seed" => args.seed = Some(parse_u64(&value("--seed"))),
            "--seeds" => args.seeds = Some(parse_u64(&value("--seeds"))),
            "--commands" => args.commands = Some(parse_u64(&value("--commands"))),
            "--flight-check" => args.flight_check = true,
            "--digest" => args.digest = true,
            "--help" | "-h" => {
                println!(
                    "usage: chaos [--protocol {}] [--seed N] [--seeds N] [--commands N] \
                     [--flight-check] [--digest]",
                    Protocol::names()
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other:?} (try --help)")),
        }
    }
    args
}

fn parse_u64(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| die(&format!("not a number: {s:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    std::process::exit(2);
}

/// One line of the committed golden file: `protocol seed commands sha256`.
fn digest_line(outcome: &ChaosOutcome) -> String {
    format!("{} {} {} {}", outcome.protocol, outcome.seed, outcome.commands, outcome.digest())
}

fn report_violation(outcome: &ChaosOutcome) {
    println!();
    println!(
        "VIOLATION  protocol={} seed={} ({} commands)",
        outcome.protocol, outcome.seed, outcome.commands
    );
    for v in &outcome.violations {
        println!("  - {v}");
    }
    if !outcome.trace_tail.is_empty() {
        println!("  simulator ring tail and node dump ({} lines):", outcome.trace_tail.len());
        for line in &outcome.trace_tail {
            println!("    {line}");
        }
    }
    println!(
        "  reproduce: cargo run --release -p prever-bench --bin chaos -- \
         --protocol {} --seed {} --commands {}",
        outcome.protocol, outcome.seed, outcome.commands
    );
}

fn main() {
    let args = parse_args();
    let mut violations = 0usize;

    if args.flight_check {
        // CI self-test: the replayed run's simulator ring must hold a
        // step from every node alive at its end, so the postmortem of a
        // real violation shows what each of them was doing.
        let protocol = args.protocols.first().copied().unwrap_or(Protocol::Pbft);
        let commands = args.commands.unwrap_or(protocol.defaults().1);
        let outcome = run_seed(protocol, args.seed.unwrap_or(1), commands);
        println!("flight check: protocol={} seed={}", outcome.protocol, outcome.seed);
        match &outcome.ring_silent {
            Some(silent) if silent.is_empty() => {
                println!("simulator ring OK: a step from every live node");
            }
            Some(silent) => {
                eprintln!("chaos: live nodes {silent:?} left no step in the simulator's ring");
                std::process::exit(1);
            }
            None => {
                eprintln!("chaos: {} runs without a simulator ring", outcome.protocol);
                std::process::exit(1);
            }
        }
        return;
    }

    if let Some(seed) = args.seed {
        // Replay mode: one seed, one protocol, full detail.
        if args.protocols.len() != 1 {
            die("--seed requires --protocol");
        }
        let protocol = args.protocols[0];
        let commands = args.commands.unwrap_or(protocol.defaults().1);
        let outcome = run_seed(protocol, seed, commands);
        if args.digest {
            println!("{}", digest_line(&outcome));
        } else {
            println!(
                "protocol={} seed={} commands={} executed={} synced={}",
                outcome.protocol, outcome.seed, outcome.commands, outcome.executed, outcome.synced
            );
            println!("stats: {:?}", outcome.stats);
            println!("history ({} entries): {:?}", outcome.history.len(), outcome.history);
            if outcome.ok() {
                println!("all invariants held");
            }
        }
        if !outcome.ok() {
            report_violation(&outcome);
            violations += 1;
        }
    } else {
        let mut table = Table::new(
            "chaos sweep",
            &[
                "protocol",
                "seeds",
                "violations",
                "crashes",
                "restarts",
                "dropped",
                "corrupted",
                "recovered",
                "torn B",
                "corrupt det",
            ],
        );
        for &protocol in &args.protocols {
            let (default_seeds, default_commands) = protocol.defaults();
            let seeds = args.seeds.unwrap_or(default_seeds);
            let commands = args.commands.unwrap_or(default_commands);
            let outcomes = sweep(protocol, 0, seeds, commands, |outcome| {
                if args.digest {
                    println!("{}", digest_line(outcome));
                }
                if !outcome.ok() {
                    report_violation(outcome);
                }
            });
            let bad = outcomes.iter().filter(|o| !o.ok()).count();
            violations += bad;
            table.row(vec![
                protocol.name().to_string(),
                seeds.to_string(),
                bad.to_string(),
                outcomes.iter().map(|o| o.stats.crashes).sum::<u64>().to_string(),
                outcomes
                    .iter()
                    .map(|o| o.stats.recoveries + o.stats.restarts_with_loss)
                    .sum::<u64>()
                    .to_string(),
                outcomes.iter().map(|o| o.stats.messages_dropped).sum::<u64>().to_string(),
                outcomes.iter().map(|o| o.stats.messages_corrupted).sum::<u64>().to_string(),
                outcomes.iter().map(|o| o.recovered_frames).sum::<u64>().to_string(),
                outcomes.iter().map(|o| o.truncated_bytes).sum::<u64>().to_string(),
                outcomes.iter().map(|o| o.detected_corruptions).sum::<u64>().to_string(),
            ]);
        }
        // In digest mode the digest lines are the whole of stdout, so
        // it can be redirected straight into the golden file.
        if !args.digest {
            println!("{}", table.render());
        }
    }

    if violations > 0 {
        eprintln!("chaos: {violations} run(s) violated invariants");
        std::process::exit(1);
    }
    if !args.digest {
        println!("chaos: all runs upheld safety and liveness invariants");
    }
}
