//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the root
//! of the repository states the same thing for the driver; a test keeps
//! the two equal.

/// What a metric's value is measured in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time, noisy.
    Wall,
    /// Simulator time: a function of the seed and the pinned network.
    Virtual,
    /// A count or a ratio of counts: repeats exactly under one seed.
    Count,
    /// A ratio of wall times.
    WallRatio,
    /// Process memory.
    Memory,
}

impl Clock {
    /// Must two runs with the same seed and size print the same value?
    pub fn repeats_exactly(self) -> bool {
        matches!(self, Clock::Virtual | Clock::Count)
    }

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
            Clock::WallRatio => "wall ratio",
            Clock::Memory => "memory",
        }
    }
}

/// Seconds of `--seconds` per round: a run of 16 s is eight rounds.
pub const ROUND_SECONDS: u64 = 2;

/// One workload.
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists (one line).
    pub why: &'static str,
    /// Operations per round: a fixed count, sized on this machine at
    /// the commit that added the benchmark so that a round measures for
    /// about [`ROUND_SECONDS`] seconds.
    pub ops_per_round: usize,
    /// Clock of `latency_p50_us` / `latency_p95_us` on this workload.
    /// `serve-order` runs inside the simulator, where the latency a user
    /// of the served system sees is simulated time: a function of the
    /// seed that must repeat exactly.
    pub latency_clock: Clock,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "serve-order",
        why: "Write path to ordered: wire, admission, PBFT, simulator, WAL; crypto and constraints do almost nothing, so their changes must not move it.",
        ops_per_round: 48_000,
        latency_clock: Clock::Virtual,
    },
    WorkloadSpec {
        name: "regulated-apply",
        why: "Figure-2 pipeline under the FLSA sliding-week regulation: constraints, storage and ledger append do all the work; no consensus, wire or bignum crypto.",
        ops_per_round: 6_000,
        latency_clock: Clock::Wall,
    },
    WorkloadSpec {
        name: "private-verify",
        why: "RC1 outsourced manager: Paillier, Pedersen and range proofs do almost all the work; it must stay flat under serving-path changes.",
        ops_per_round: 800,
        latency_clock: Clock::Wall,
    },
    WorkloadSpec {
        name: "federated-tokens",
        why: "RC3 / SEPAR token path: RSA blind issue and spend, ledger kv, MPC bound check; uses modular arithmetic differently from private-verify.",
        ops_per_round: 1_000,
        latency_clock: Clock::Wall,
    },
    WorkloadSpec {
        name: "audit-read",
        why: "Verified reads, inclusion and consistency proofs beside writes on a growing journal: a proof or digest cache has to survive interleaved appends here.",
        ops_per_round: 400,
        latency_clock: Clock::Wall,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric.
pub struct MetricSpec {
    /// Name printed and listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Is a higher value better?
    pub higher_is_better: bool,
    /// Clock basis.
    pub clock: Clock,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    clock: Clock,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        clock,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, clock: Clock) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        clock,
        bound: 0.0,
    }
}

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", false, Clock::Wall, 0.25),
    e2e("ops_per_s", "1/s", true, Clock::Wall, 0.25),
    e2e("latency_p50_us", "us", false, Clock::Wall, 0.25),
    e2e("latency_p95_us", "us", false, Clock::Wall, 0.25),
    e2e("peak_rss_mb", "MiB", false, Clock::Memory, 0.15),
];

use Clock::{Count, Wall, WallRatio};

/// Per-layer metrics, printed by a traced run. A layer is a crate. A
/// workload prints 0 for a layer it never calls.
pub const PER_LAYER: [MetricSpec; 58] = [
    layer("wire.encode_ns_per_frame", "ns", false, Wall),
    layer("wire.decode_ns_per_frame", "ns", false, Wall),
    layer("wire.bytes_per_cmd", "B", false, Count),
    layer("server.admit_ns_per_req", "ns", false, Wall),
    layer("server.shed_frac", "frac", false, Count),
    layer("server.queue_depth_max", "count", false, Count),
    layer("server.retries_per_cmd", "count", false, Count),
    layer("consensus.order_ns_per_cmd", "ns", false, Wall),
    layer("consensus.msgs_per_cmd", "count", false, Count),
    layer("consensus.batch_size_mean", "count", true, Count),
    layer("consensus.view_changes", "count", false, Count),
    layer("consensus.batch_digest_ns_per_cmd", "ns", false, Wall),
    layer("consensus.wal_flushes_per_batch", "count", false, Count),
    layer("consensus.wal_bytes_per_cmd", "B", false, Count),
    layer("sim.events_per_s", "1/s", true, Wall),
    layer("sim.events_per_cmd", "count", false, Count),
    layer("storage.upsert_ns", "ns", false, Wall),
    layer("storage.get_ns", "ns", false, Wall),
    layer("storage.snapshot_ns", "ns", false, Wall),
    layer("storage.change_encode_ns", "ns", false, Wall),
    layer("storage.wal_append_ns_per_frame", "ns", false, Wall),
    layer("storage.wal_flush_ns", "ns", false, Wall),
    layer("storage.wal_bytes_per_user_byte", "B/B", false, Count),
    layer("ledger.append_ns", "ns", false, Wall),
    layer("ledger.digest_ns", "ns", false, Wall),
    layer("ledger.prove_inclusion_ns", "ns", false, Wall),
    layer("ledger.verify_inclusion_ns", "ns", false, Wall),
    layer("ledger.prove_consistency_ns", "ns", false, Wall),
    layer("ledger.verify_consistency_ns", "ns", false, Wall),
    layer("ledger.verify_chain_ns_per_entry", "ns", false, Wall),
    layer("ledger.proof_nodes", "count", false, Count),
    layer("ledger.kv_put_ns", "ns", false, Wall),
    layer("constraints.evaluate_ns", "ns", false, Wall),
    layer("constraints.query_ns", "ns", false, Wall),
    layer("constraints.rows_per_eval", "count", false, Count),
    layer("constraints.reject_frac", "frac", false, Count),
    layer("core.pipeline_glue_ns", "ns", false, Wall),
    layer("core.single_produce_ns", "ns", false, Wall),
    layer("core.single_submit_ns", "ns", false, Wall),
    layer("core.federated_submit_ns", "ns", false, Wall),
    layer("crypto.paillier_encrypt_ns", "ns", false, Wall),
    layer("crypto.paillier_add_ns", "ns", false, Wall),
    layer("crypto.paillier_rerandomize_ns", "ns", false, Wall),
    layer("crypto.paillier_decrypt_ns", "ns", false, Wall),
    layer("crypto.pedersen_commit_ns", "ns", false, Wall),
    layer("crypto.range_prove_ns", "ns", false, Wall),
    layer("crypto.range_verify_ns", "ns", false, Wall),
    layer("crypto.rsa_blind_sign_ns", "ns", false, Wall),
    layer("crypto.rsa_verify_ns", "ns", false, Wall),
    layer("crypto.sha256_ns_per_kib", "ns/KiB", false, Wall),
    layer("crypto.merkle_root_ns_per_leaf", "ns", false, Wall),
    layer("tokens.issue_ns_per_token", "ns", false, Wall),
    layer("tokens.spend_ns_per_token", "ns", false, Wall),
    layer("tokens.tokens_per_task", "count", false, Count),
    layer("mpc.check_ns", "ns", false, Wall),
    layer("mpc.rounds_per_check", "count", false, Count),
    layer("bench.trace_overhead_frac", "frac", false, WallRatio),
    layer("bench.serve_unattributed_frac", "frac", false, WallRatio),
];

/// The end-to-end or per-layer metric called `name`.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
