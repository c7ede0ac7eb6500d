//! Prints every experiment table (E1–E14).
//!
//! `cargo run --release -p prever-bench --bin report` — full parameters.
//! `cargo run --release -p prever-bench --bin report -- --quick` — small.
//! `cargo run --release -p prever-bench --bin report -- --bench-json PATH`
//! — skip the tables and emit the E3 batching sweep as a
//! `BENCH_consensus.json` document instead.
//! `cargo run --release -p prever-bench --bin report -- --shard-json PATH`
//! — emit the E7 sharded scaling surface as `BENCH_shard.json`.
//! `cargo run --release -p prever-bench --bin report -- --e13`
//! — just the E13 serving-layer overload sweep (full parameters).
//! `cargo run --release -p prever-bench --bin report -- --server-json PATH`
//! — emit the E13 offered-load sweep as `BENCH_server.json`.
//! `cargo run --release -p prever-bench --bin report -- --e13-smoke`
//! — CI gate: goodput at 10× offered load must retain ≥ 70% of the 1×
//! goodput; exits nonzero otherwise.
//! `cargo run --release -p prever-bench --bin report -- --e14`
//! — just the E14 multi-gateway rolling-crash sweep (full parameters).
//! `cargo run --release -p prever-bench --bin report -- --e14-smoke`
//! — CI gate: goodput under rolling gateway crashes (one every 600 ms)
//! must retain ≥ 80% of the crash-free baseline; exits nonzero
//! otherwise.

use prever_bench::experiments as e;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(i) = args.iter().position(|a| a == "--bench-json") {
        let path = args.get(i + 1).expect("--bench-json needs a path");
        e::e3_consensus::write_bench_json(std::path::Path::new(path))
            .unwrap_or_else(|err| panic!("writing {path}: {err}"));
        println!("wrote {path}");
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--shard-json") {
        let path = args.get(i + 1).expect("--shard-json needs a path");
        e::e7_sharded::write_bench_json(std::path::Path::new(path))
            .unwrap_or_else(|err| panic!("writing {path}: {err}"));
        println!("wrote {path}");
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--server-json") {
        let path = args.get(i + 1).expect("--server-json needs a path");
        e::e13_server::write_bench_json(std::path::Path::new(path))
            .unwrap_or_else(|err| panic!("writing {path}: {err}"));
        println!("wrote {path}");
        return;
    }
    if args.iter().any(|a| a == "--e13") {
        println!("{}", e::e13_server::run(quick).render());
        return;
    }
    if args.iter().any(|a| a == "--e13-smoke") {
        let (g1, g10, retention) = e::e13_server::e13_smoke();
        println!(
            "e13 smoke: goodput {g1:.0} rps at 1x offered load, {g10:.0} rps at 10x \
             ({:.0}% retained)",
            retention * 100.0
        );
        if retention < 0.7 {
            eprintln!(
                "e13 smoke FAILED: 10x-overload goodput retained only {:.0}% of 1x (need >= 70%)",
                retention * 100.0
            );
            std::process::exit(1);
        }
        return;
    }
    if args.iter().any(|a| a == "--e14") {
        println!("{}", e::e14_failover::run(quick).render());
        return;
    }
    if args.iter().any(|a| a == "--e14-smoke") {
        let (base, rolled, retention) = e::e14_failover::e14_smoke();
        println!(
            "e14 smoke: goodput {base:.0} rps crash-free, {rolled:.0} rps under a \
             600 ms rolling gateway crash schedule ({:.0}% retained)",
            retention * 100.0
        );
        if retention < 0.8 {
            eprintln!(
                "e14 smoke FAILED: rolling-crash goodput retained only {:.0}% of the \
                 crash-free baseline (need >= 80%)",
                retention * 100.0
            );
            std::process::exit(1);
        }
        return;
    }
    println!(
        "# PReVer experiment report ({} mode)\n",
        if quick { "quick" } else { "full" }
    );
    let tables = [
        e::e1_ycsb::run(quick),
        e::e2_private_verify::run(quick),
        e::e3_consensus::run(quick),
        // E3a/E7a: causal-trace critical-path attribution of commit
        // latency (DESIGN.md §13), alongside the throughput tables.
        e::e3_consensus::stage_table(quick),
        e::e4_tokens::run(quick),
        e::e5_pir::run(quick),
        e::e6_ledger::run(quick),
        e::e7_sharded::run(quick),
        e::e7_sharded::stage_table(quick),
        e::e8_mpc::run(quick),
        e::e9_dp::run(quick),
        e::e10_tpcc::run(quick),
        e::e11_chaos::run(quick),
        e::e12_durability::run(quick),
        e::e13_server::run(quick),
        e::e14_failover::run(quick),
    ];
    for t in &tables {
        println!("{}", t.render());
    }
}
