//! E7 — RC4/Separ: SharPer-style sharding — aggregate throughput vs
//! shard count and cross-shard transaction ratio, on the shard-per-
//! thread parallel runtime.
//!
//! Expected shape (SharPer's headline result): intra-shard workloads
//! scale near-linearly with shards; cross-shard coordination (the
//! lock/order/commit exchange, DESIGN.md §12) erodes the gain as the
//! cross ratio grows. Two runtimes are measured over identical
//! workloads:
//!
//! * **single** — the PR 5 cooperative loop (`prever_sim::Simulation`):
//!   every shard shares one event loop and one core;
//! * **parallel** — `prever_sim::ParallelSim`: each shard's replica
//!   group on its own OS thread, cross-shard traffic through the
//!   deterministic epoch-barrier merge.
//!
//! Virtual-time throughput is identical between the two (the parallel
//! runtime is semantics-preserving); what the threads buy is
//! *wall-clock*, reported separately. [`write_bench_json`] emits the
//! full scaling surface as `BENCH_shard.json`; tier-1 regenerates the
//! surface and checks every virtual-time number against that file.

use crate::Table;
use prever_consensus::sharded::{self, ShardProbe, Topology};
use prever_consensus::{BatchConfig, Command};
use prever_obs::trace::{self, CriticalPath};
use prever_obs::TraceCtx;
use prever_sim::{NetConfig, ParallelConfig, Simulation};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Fill delay for batching: long enough that the burst fills batches,
/// short enough that straggler partial batches (a burst's tail, a
/// lone cross-shard tx) ship promptly instead of dominating the
/// finish-time-based throughput metric.
const FILL_DELAY: u64 = 2_000; // 2 ms

/// Per-message service time: replicas are finite-capacity servers —
/// without it the simulated cluster has infinite parallelism and
/// sharding cannot show its benefit.
const PROCESSING: u64 = 30;

/// The batching policy every row uses (the PR 5 configuration).
fn batch() -> BatchConfig {
    BatchConfig::new(8, FILL_DELAY, 4)
}

/// One measured point on the scaling surface.
pub struct ShardPoint {
    /// Shard count (4 replicas each).
    pub shards: usize,
    /// Cross-shard transaction ratio in percent.
    pub cross_pct: u32,
    /// Transactions submitted.
    pub txs: u64,
    /// Aggregate committed tx per simulated second.
    pub vthroughput: f64,
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
    /// OS threads the runtime used (1 = single-threaded loop).
    pub threads: usize,
    /// Which runtime produced the point: "single" or "parallel".
    pub runtime: &'static str,
}

/// The seeded workload: `txs` transactions round-robined across home
/// shards; each turns cross-shard (home + one seeded other shard) with
/// probability `ratio`.
fn workload(shards: usize, ratio: f64, txs: u64) -> Vec<(u64, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..txs)
        .map(|i| {
            let home = (i % shards as u64) as usize;
            let involved = if shards > 1 && rng.gen::<f64>() < ratio {
                let mut other = rng.gen_range(0..shards - 1);
                if other >= home {
                    other += 1;
                }
                vec![home, other]
            } else {
                vec![home]
            };
            (i, involved)
        })
        .collect()
}

/// Expected completions at each shard's first replica.
fn expectations(topology: Topology, load: &[(u64, Vec<usize>)]) -> Vec<usize> {
    (0..topology.n_shards)
        .map(|s| load.iter().filter(|(_, inv)| inv.contains(&s)).count())
        .collect()
}

/// Runs one configuration on the shard-per-thread parallel runtime.
pub fn run_parallel(shards: usize, ratio: f64, txs: u64) -> ShardPoint {
    let topology = Topology { n_shards: shards, replicas_per_shard: 4 };
    let cfg = ParallelConfig {
        net: NetConfig { processing: PROCESSING, ..NetConfig::default() },
        seed: 7,
        ..ParallelConfig::default()
    };
    let load = workload(shards, ratio, txs);
    let expect = expectations(topology, &load);
    let wall = std::time::Instant::now();
    let mut sim = sharded::parallel_cluster(topology, batch(), cfg);
    for (i, involved) in &load {
        sharded::submit_parallel(
            &mut sim,
            topology,
            Command::new(*i, "tx"),
            involved.clone(),
            1 + i,
        );
    }
    let done = sim.run_until_probe(120_000_000, |probes: &[ShardProbe]| {
        (0..shards).all(|s| probes[topology.members(s)[0]].completed >= expect[s])
    });
    assert!(done, "parallel sharded run (shards={shards}, cross={ratio}) did not finish");
    let threads = sim.n_threads();
    let nodes = sim.into_nodes();
    let wall_s = wall.elapsed().as_secs_f64();
    let finish = (0..shards)
        .map(|s| nodes[topology.members(s)[0]].completed().last().map(|c| c.at).unwrap_or(1))
        .max()
        .unwrap_or(1);
    ShardPoint {
        shards,
        cross_pct: (ratio * 100.0).round() as u32,
        txs,
        vthroughput: txs as f64 / (finish as f64 / 1e6),
        wall_s,
        threads,
        runtime: "parallel",
    }
}

/// Runs the same configuration on the PR 5 single-threaded cooperative
/// loop (the "before" baseline).
pub fn run_single(shards: usize, ratio: f64, txs: u64) -> ShardPoint {
    let topology = Topology { n_shards: shards, replicas_per_shard: 4 };
    let net = NetConfig { processing: PROCESSING, ..NetConfig::default() };
    let load = workload(shards, ratio, txs);
    let expect = expectations(topology, &load);
    let wall = std::time::Instant::now();
    let mut sim = Simulation::new(sharded::cluster(topology, batch()), net, 7);
    for (i, involved) in &load {
        sharded::submit(&mut sim, topology, Command::new(*i, "tx"), involved.clone(), 1 + i);
    }
    let done = sim.run_until_pred(120_000_000, |nodes| {
        (0..shards).all(|s| nodes[topology.members(s)[0]].completed_count() >= expect[s])
    });
    assert!(done, "single-threaded sharded run (shards={shards}, cross={ratio}) did not finish");
    let wall_s = wall.elapsed().as_secs_f64();
    let finish = (0..shards)
        .map(|s| {
            sim.node(topology.members(s)[0]).completed().last().map(|c| c.at).unwrap_or(1)
        })
        .max()
        .unwrap_or(1);
    ShardPoint {
        shards,
        cross_pct: (ratio * 100.0).round() as u32,
        txs,
        vthroughput: txs as f64 / (finish as f64 / 1e6),
        wall_s,
        threads: 1,
        runtime: "single",
    }
}

/// Command-id base for the traced cross-shard breakdown: disjoint from
/// every other workload sharing the process-global trace sink.
const E7_TRACE_BASE: u64 = 0xe7_0000;

/// Runs a traced 2-shard workload (every tx cross-shard) on the
/// single-threaded runtime and attributes commit latency across the
/// full pipeline *including* the cross-shard exchange: queue →
/// batch-cut → … → exec, then cross-lock → cross-decide →
/// cross-outcome (DESIGN.md §12/§13). Virtual µs throughout.
pub fn cross_shard_stage_breakdown(txs: u64) -> CriticalPath {
    trace::set_trace_enabled(true);
    let topology = Topology { n_shards: 2, replicas_per_shard: 4 };
    let net = NetConfig { processing: PROCESSING, ..NetConfig::default() };
    let mut sim = Simulation::new(sharded::cluster(topology, batch()), net, 7);
    for i in 0..txs {
        let id = E7_TRACE_BASE + i;
        sharded::submit(&mut sim, topology, Command::new(id, "xtx"), vec![0, 1], 1 + i);
    }
    let done = sim.run_until_pred(120_000_000, |nodes| {
        (0..2).all(|s| nodes[topology.members(s)[0]].completed_count() as u64 >= txs)
    });
    assert!(done, "traced cross-shard run did not finish");
    // The sink stays enabled: disabling would race concurrent traced
    // runs sharing the process-global sink.
    let mine: std::collections::HashSet<u64> =
        (0..txs).map(|i| TraceCtx::for_command(E7_TRACE_BASE + i).trace_id).collect();
    let events: Vec<trace::TraceEvent> =
        trace::events().into_iter().filter(|e| mine.contains(&e.trace_id)).collect();
    trace::critical_path(&events)
}

/// The E7 cross-shard latency-attribution table (published alongside
/// the surface in `BENCH_obs.json`; see the `obs` binary).
pub fn stage_table(quick: bool) -> Table {
    let txs: u64 = if quick { 16 } else { 48 };
    let cp = cross_shard_stage_breakdown(txs);
    super::critical_path_table(
        "E7a — cross-shard commit critical path (2 shards × 4 replicas, 100% cross; virtual µs)",
        &cp,
    )
}

/// Per-shard offered load for the surface (full mode). Fixed per shard
/// so the ideal aggregate scaling is exactly linear.
const TXS_PER_SHARD: u64 = 48;

/// The shard counts and cross ratios of the published surface.
pub const SURFACE_SHARDS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Cross-shard ratios on the surface (ISSUE 6: 0%, 5%, 20%).
pub const SURFACE_RATIOS: [f64; 3] = [0.0, 0.05, 0.20];

/// Runs E7.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E7 — SharPer-style sharding: aggregate throughput vs shards, cross ratio, runtime",
        &[
            "shards",
            "cross %",
            "txs",
            "runtime",
            "threads",
            "throughput (tx/vsec)",
            "wall (s)",
            "speedup vs 1 shard",
        ],
    );
    let shard_counts: &[usize] = if quick { &[1, 2, 4] } else { &SURFACE_SHARDS };
    let per_shard: u64 = if quick { 8 } else { TXS_PER_SHARD };
    // Per-runtime 1-shard baselines for the speedup column.
    let mut base_single = f64::NAN;
    let mut base_parallel = f64::NAN;
    for &shards in shard_counts {
        for ratio in SURFACE_RATIOS {
            if shards == 1 && ratio > 0.0 {
                continue; // no cross-shard possible
            }
            let txs = per_shard * shards as u64;
            let runs: Vec<ShardPoint> = if quick || shards <= 8 {
                vec![run_single(shards, ratio, txs), run_parallel(shards, ratio, txs)]
            } else {
                // The single-threaded loop becomes the bottleneck it
                // exists to demonstrate; past 8 shards only the
                // parallel runtime is measured.
                vec![run_parallel(shards, ratio, txs)]
            };
            for p in runs {
                let base = if p.runtime == "single" { &mut base_single } else { &mut base_parallel };
                if p.shards == 1 && p.cross_pct == 0 {
                    *base = p.vthroughput;
                }
                table.row(vec![
                    p.shards.to_string(),
                    p.cross_pct.to_string(),
                    p.txs.to_string(),
                    p.runtime.to_string(),
                    p.threads.to_string(),
                    format!("{:.0}", p.vthroughput),
                    format!("{:.2}", p.wall_s),
                    format!("{:.1}x", p.vthroughput / *base),
                ]);
            }
        }
    }
    table
}

fn point_json(p: &ShardPoint) -> String {
    format!(
        "{{\"shards\": {}, \"cross_pct\": {}, \"txs\": {}, \"threads\": {}, \
         \"throughput_tx_per_vsec\": {:.1}, \"wall_s\": {:.3}}}",
        p.shards, p.cross_pct, p.txs, p.threads, p.vthroughput, p.wall_s
    )
}

/// The published surface as `(single, parallel)`: the single-threaded
/// before-baseline (1–8 shards) and the parallel runtime (1–64 shards),
/// each × {0, 5, 20}% cross.
fn surface() -> (Vec<ShardPoint>, Vec<ShardPoint>) {
    let mut parallel = Vec::new();
    let mut single = Vec::new();
    for &shards in &SURFACE_SHARDS {
        for ratio in SURFACE_RATIOS {
            if shards == 1 && ratio > 0.0 {
                continue;
            }
            let txs = TXS_PER_SHARD * shards as u64;
            parallel.push(run_parallel(shards, ratio, txs));
            if shards <= 8 {
                single.push(run_single(shards, ratio, txs));
            }
        }
    }
    (single, parallel)
}

/// Writes the full scaling surface ([`surface`]) as `BENCH_shard.json`,
/// with the derived scaling/penalty figures the acceptance criteria
/// quote.
pub fn write_bench_json(path: &std::path::Path) -> std::io::Result<()> {
    let (single, parallel) = surface();
    let find = |pts: &[ShardPoint], shards: usize, pct: u32| -> f64 {
        pts.iter()
            .find(|p| p.shards == shards && p.cross_pct == pct)
            .map(|p| p.vthroughput)
            .unwrap_or(1.0)
    };
    let t1 = find(&parallel, 1, 0);
    let t8 = find(&parallel, 8, 0);
    let t64 = find(&parallel, 64, 0);
    let efficiency8 = t8 / (t1 * 8.0);
    let penalty = |shards: usize, pct: u32| -> f64 {
        1.0 - find(&parallel, shards, pct) / find(&parallel, shards, 0)
    };
    let wall_speedup = |shards: usize| -> f64 {
        let s = single.iter().find(|p| p.shards == shards && p.cross_pct == 0);
        let p = parallel.iter().find(|p| p.shards == shards && p.cross_pct == 0);
        match (s, p) {
            (Some(s), Some(p)) if p.wall_s > 0.0 => s.wall_s / p.wall_s,
            _ => 1.0,
        }
    };

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"title\": \"E7 sharded scaling surface: shard-per-thread runtime with \
         cross-shard lock/order/commit\",\n",
    );
    out.push_str(&format!("  \"txs_per_shard\": {TXS_PER_SHARD},\n"));
    out.push_str(&format!(
        "  \"metadata\": {},\n",
        crate::meta::metadata_json(
            "virtual-us+wall-ns",
            &[
                ("txs_per_shard", TXS_PER_SHARD.to_string()),
                ("replicas_per_shard", "4".into()),
                ("shard_axis", "[1, 2, 4, 8, 16, 32, 64]".into()),
                ("cross_ratio_axis", "[0.0, 0.05, 0.20]".into()),
                ("batch", "8".into()),
                ("window", "4".into()),
                ("fill_delay_us", FILL_DELAY.to_string()),
                ("net_processing_us", PROCESSING.to_string()),
            ],
        )
    ));
    out.push_str(&format!(
        "  \"network\": \"simulated 1 ms RTT intra-shard, 2 ms cross-shard, \
         {PROCESSING} us CPU per message, batch 8 window 4 fill-delay {FILL_DELAY} us\",\n"
    ));
    out.push_str(
        "  \"before\": \"PR 5 loop: all shards cooperative on one core, global commit \
         barrier for cross-shard txs\",\n",
    );
    out.push_str(
        "  \"after\": \"one OS thread per shard, epoch-barrier deterministic merge, \
         SharPer-style lock/order/commit with timeout abort\",\n",
    );
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    out.push_str(&format!(
        "  \"scaling_0pct\": {{\"t1\": {t1:.1}, \"t8\": {t8:.1}, \"t64\": {t64:.1}, \
         \"speedup_8_over_1\": {:.2}, \"efficiency_8_vs_ideal\": {efficiency8:.2}}},\n",
        t8 / t1
    ));
    out.push_str(&format!(
        "  \"cross_shard_penalty\": {{\"8_shards_5pct\": {:.3}, \"8_shards_20pct\": {:.3}, \
         \"64_shards_5pct\": {:.3}, \"64_shards_20pct\": {:.3}}},\n",
        penalty(8, 5),
        penalty(8, 20),
        penalty(64, 5),
        penalty(64, 20)
    ));
    out.push_str(&format!(
        "  \"wall_clock_speedup_vs_single_threaded\": {{\"4_shards\": {:.2}, \
         \"8_shards\": {:.2}}},\n",
        wall_speedup(4),
        wall_speedup(8)
    ));
    out.push_str("  \"single_threaded_baseline\": [\n");
    for (i, p) in single.iter().enumerate() {
        let sep = if i + 1 == single.len() { "" } else { "," };
        out.push_str(&format!("    {}{sep}\n", point_json(p)));
    }
    out.push_str("  ],\n");
    out.push_str("  \"parallel\": [\n");
    for (i, p) in parallel.iter().enumerate() {
        let sep = if i + 1 == parallel.len() { "" } else { "," };
        out.push_str(&format!("    {}{sep}\n", point_json(p)));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The E7 surface is virtual time, so it is a pure function of the
    /// sharded protocol code: regenerating both arrays of the committed
    /// `BENCH_shard.json` must reproduce every row's shards, cross
    /// ratio, txs, threads and throughput. Wall-clock fields (`wall_s`,
    /// the `wall_clock_*` speedups) are not compared.
    #[test]
    fn e7_surface_reproduces_the_committed_bench_shard_json() {
        let committed = include_str!("../../../../BENCH_shard.json");
        let without_wall = |row: &str| row.trim().split(", \"wall_s\"").next().unwrap().to_owned();
        let (single, parallel) = surface();
        for (array, points) in [("single_threaded_baseline", single), ("parallel", parallel)] {
            let start = committed.find(&format!("\"{array}\": [")).expect(array);
            let want: Vec<String> = committed[start..]
                .lines()
                .skip(1)
                .take_while(|l| l.starts_with("    {"))
                .map(without_wall)
                .collect();
            let got: Vec<String> = points.iter().map(|p| without_wall(&point_json(p))).collect();
            assert_eq!(got, want, "BENCH_shard.json `{array}` differs");
        }
    }
}
