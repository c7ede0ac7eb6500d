//! `obs` — exercise every instrumented subsystem end-to-end, then print
//! and export what the observability layer saw.
//!
//! Phases: a 4-replica PBFT burst on the deterministic simulator, a
//! sharded commit/abort pass (intra- and cross-shard commits plus a
//! partition-forced cross-shard abort, so the `sharded.*` metrics all
//! fire), a serving-cluster overload pass (a flooding tenant against a
//! tiny front end, so `server.admitted`/`server.shed`/`server.retry`
//! and the `enqueue → admit | shed` trace stages all fire), the E1
//! YCSB comparison (plain / ledger / Paillier-private engines), a
//! Paillier encrypt–decrypt loop, a CPIR retrieval, a ledger append +
//! Merkle-root pass, a durable-journal
//! append/flush/compact/crash/recover cycle (WAL + snapshot metrics),
//! and a DP budget drain.
//! Afterwards the
//! global registry snapshot is rendered as the aligned metrics table,
//! as `BENCHJSON`/`OBSJSON` lines, and as a `BENCH_obs.json` document.
//!
//! The document's `steps` section is the simulator's per-kind step table
//! (steps, wall ns, work, sends, timers) summed over the four simulated
//! phases (PBFT burst, sharded, server, failover). Its `phases_ns` holds
//! one wall reading per phase; a simulated phase's is the wall time
//! inside its actors' steps, and the rest of those phases is the one
//! `simulator outside steps` entry, so the entries sum to
//! `total_wall_ns` (less the few instructions between phases).
//!
//! `cargo run --release -p prever-bench --bin obs -- --quick`
//! `cargo run --release -p prever-bench --bin obs -- --json out.json`
//!
//! Exits nonzero if the snapshot is empty, any of the must-have spans
//! recorded no samples, or a must-have step kind never ran — CI leans
//! on this as the "instrumentation still wired up" check.

use bytes::Bytes;
use prever_bench::{experiments as e, meta};
use prever_consensus::durable::DurableLog;
use prever_consensus::pbft::{Byzantine, PbftMsg, PbftNode};
use prever_consensus::{BatchConfig, Command};
use prever_crypto::paillier::{self, Ciphertext};
use prever_crypto::schnorr;
use prever_dp::BudgetAccountant;
use prever_ledger::{Journal, PersistentJournal};
use prever_obs::trace::{self, TraceEvent, STAGES};
use prever_obs::work::Unit;
use prever_obs::{export, TraceCtx};
use prever_pir::cpir::{retrieve as cpir_retrieve, CpirClient, CpirServer};
use prever_server::{
    multi_gateway_cluster, server_cluster, ClientCfg, FrontConfig, LoadMode, QuotaUpdate,
    ServerMsg, ServerPeer,
};
use prever_sim::{FaultPlan, NetConfig, Simulation, StepTable};
use prever_wire::Class;
use prever_storage::SharedDisk;
use rand::{rngs::StdRng, SeedableRng};

/// Spans/histograms that must have recorded at least one sample for the
/// run to count as instrumented.
const REQUIRED_SPANS: [&str; 8] = [
    "consensus.commit.latency",
    "sharded.cross_shard.commit_latency",
    "paillier.encrypt",
    "pir.answer",
    "ledger.append",
    "wal.flush",
    "server.admission.latency",
    "constraints.eval.rows",
];

/// Step kinds that must have run in the simulated phases.
const REQUIRED_STEP_KINDS: [&str; 2] = ["prepare", "commit"];

/// Counters that must be nonzero — the sharded commit/abort metrics and
/// the serving-layer admission metrics the CI instrumentation gate
/// watches.
const REQUIRED_COUNTERS: [&str; 17] = [
    "crypto.fixed_base.hits",
    "crypto.batch_verify.size",
    "pir.multi_query.batch",
    "sharded.batch.committed",
    "sharded.completed.intra_shard",
    "sharded.completed.cross_shard",
    "sharded.cross_shard.aborts",
    "server.admitted",
    "server.shed",
    "server.retry",
    "server.acked",
    "server.session.hello",
    "server.failover.resume",
    "server.read.fresh",
    "server.quota.applied",
    "constraints.eval.indexed",
    "constraints.eval.scanned",
];

/// Gauges that must have been written at least once (value may
/// legitimately be zero once the run drains).
const REQUIRED_GAUGES: [&str; 2] = ["server.queue_depth", "server.degrade.level"];

/// Command-id bases keeping each obs phase's trace ids disjoint (the
/// trace sink is process-global; see DESIGN.md §13).
const CONSENSUS_BASE: u64 = 0x0b5_0000;
const SHARD_BASE: u64 = 0x0b5_8000;
const SERVER_BASE: u64 = 0x0b6_0000;

fn run_consensus(quick: bool) -> StepTable {
    let commands: u64 = if quick { 10 } else { 50 };
    // Durable, batched replicas: the full traced pipeline through the
    // group-commit flush barrier (queue → … → wal-flush).
    let nodes: Vec<PbftNode> = (0..4)
        .map(|id| {
            PbftNode::with_durable(id, 4, Byzantine::Honest, DurableLog::new())
                .with_batching(BatchConfig::new(8, 20_000, 4))
        })
        .collect();
    let mut sim = Simulation::new(nodes, NetConfig::default(), 42);
    for i in 0..commands {
        sim.inject(0, 0, PbftMsg::request(Command::new(CONSENSUS_BASE + i, "x")), 1 + i);
    }
    let done = sim.run_until_pred(40_000_000, |nodes| {
        nodes[0].core.executed_commands() as u64 >= commands
    });
    assert!(done, "pbft burst did not finish");
    // Drain in-flight traffic so checkpoint votes land and stabilize —
    // the predicate fires the instant the last command executes, before
    // the checkpoint round-trip completes.
    let drain_until = sim.now() + 200_000;
    sim.run_until(drain_until);
    prever_obs::log!(Info, "consensus phase: {commands} commands executed on 4 replicas");
    sim.steps().clone()
}

fn run_sharded() -> StepTable {
    use prever_consensus::sharded::{self, Topology};
    let topo = Topology { n_shards: 2, replicas_per_shard: 4 };
    let nodes = sharded::cluster(topo, BatchConfig::default());
    let mut sim = Simulation::new(nodes, NetConfig::default(), 9);
    sharded::submit(&mut sim, topo, Command::new(SHARD_BASE, "intra"), vec![0], 1);
    sharded::submit(&mut sim, topo, Command::new(SHARD_BASE + 1, "intra"), vec![1], 2);
    sharded::submit(&mut sim, topo, Command::new(SHARD_BASE + 2, "cross"), vec![0, 1], 3);
    let done = sim.run_until_pred(10_000_000, |nodes: &[sharded::ShardedNode]| {
        nodes[0].completed_count() >= 2 && nodes[4].completed_count() >= 2
    });
    assert!(done, "sharded commit phase did not finish");
    // Partition shard 1 away and submit a doomed cross-shard tx: the
    // coordinator must time out and order an abort, so the abort
    // counter provably fires.
    let groups: Vec<usize> = (0..topo.n_nodes()).map(|id| topo.shard_of(id)).collect();
    sim.set_partition(groups);
    let at = sim.now() + 10;
    sharded::submit(&mut sim, topo, Command::new(SHARD_BASE + 3, "doomed"), vec![0, 1], at);
    let done = sim.run_until_pred(40_000_000, |nodes: &[sharded::ShardedNode]| {
        nodes[0].aborted_count() >= 1
    });
    assert!(done, "sharded abort phase did not time out");
    prever_obs::log!(Info, "sharded phase: 2 intra + 1 cross committed, 1 cross aborted");
    sim.steps().clone()
}

fn run_server(quick: bool) -> StepTable {
    let n: u64 = if quick { 24 } else { 96 };
    // A deliberately tiny front end against a flooding low-priority
    // tenant: guarantees admissions, sheds, and client retries, so the
    // server.* metrics and the enqueue → admit | shed trace stages all
    // provably fire.
    let front = FrontConfig {
        queue_cap: 8,
        inflight_cap: 4,
        tenant_rate: 400,
        tenant_burst: 4,
        service_estimate_us: 500,
        retry_after_cap_us: 2_000_000,
    };
    let clients = [
        ClientCfg {
            tenant: 1,
            class: Class::High,
            mode: LoadMode::Closed { window: 2, think_us: 0 },
            requests: n,
            id_base: SERVER_BASE,
            seed: 1,
            ..ClientCfg::default()
        },
        ClientCfg {
            tenant: 2,
            class: Class::Low,
            mode: LoadMode::Open { interval_us: 300 },
            requests: n,
            deadline_us: 30_000,
            timeout_us: 40_000,
            retry_budget: 3,
            backoff_base_us: 2_000,
            backoff_cap_us: 16_000,
            id_base: SERVER_BASE + 0x4000,
            seed: 2,
            ..ClientCfg::default()
        },
    ];
    let nodes = server_cluster(4, front, BatchConfig::new(8, 2_000, 4), &clients);
    let mut sim = Simulation::new(nodes, NetConfig::default(), 77);
    let done = sim.run_until_pred(40_000_000, |nodes: &[ServerPeer]| {
        nodes.iter().filter_map(|p| p.as_client()).all(|c| c.conn.done())
    });
    assert!(done, "server phase did not finish");
    let front_stats = sim.node(0).as_gateway().expect("gateway").front.stats().clone();
    assert!(front_stats.shed_overload > 0, "overload phase produced no sheds");
    prever_obs::log!(
        Info,
        "server phase: {} admitted, {} shed, {} acked through the gateway",
        front_stats.admitted,
        front_stats.shed_overload + front_stats.shed_deadline,
        front_stats.acked
    );
    sim.steps().clone()
}

fn run_failover(quick: bool) -> StepTable {
    let n: u64 = if quick { 10 } else { 24 };
    // A gateway-per-replica cluster with the client's home gateway
    // crashed mid-workload: provably fires the session metrics
    // (`server.session.hello`, `server.failover.resume`,
    // `server.failover.count`), the verified-read counters
    // (`server.read.fresh`/`stale`), the consensus-carried quota path
    // (`server.quota.applied`), and the `hello`/`resume` trace stages.
    let clients = [ClientCfg {
        tenant: 1,
        mode: LoadMode::Open { interval_us: 10_000 },
        requests: n,
        timeout_us: 150_000,
        retry_budget: 30,
        failover_after: 1,
        verify_reads: true,
        servers: vec![0, 1, 2, 3],
        id_base: SERVER_BASE + 0x8000,
        seed: 3,
        ..ClientCfg::default()
    }];
    let nodes =
        multi_gateway_cluster(4, FrontConfig::default(), BatchConfig::new(8, 2_000, 4), &clients);
    let mut sim = Simulation::new(nodes, NetConfig::default(), 78);
    sim.set_fault_plan(FaultPlan::new().crash_at(20_000, 0));
    let update = QuotaUpdate { tenant: 1, rate: 900, burst: 20 };
    sim.inject(3, 3, ServerMsg::Quota { update, nonce: 0x0b5 }, 10_000);
    let done = sim.run_until_pred(40_000_000, |nodes: &[ServerPeer]| {
        nodes.iter().filter_map(|p| p.as_client()).all(|c| c.conn.done())
    });
    assert!(done, "failover phase did not finish");
    let stats = sim.node(4).as_client().expect("client").conn.stats().clone();
    assert!(stats.failovers >= 1, "failover phase never rotated endpoints");
    assert_eq!(stats.read_violations, 0, "failover phase broke read-your-writes");
    prever_obs::log!(
        Info,
        "failover phase: {} committed across {} failovers, {} fresh reads verified",
        stats.committed,
        stats.failovers,
        stats.fresh_reads
    );
    sim.steps().clone()
}

fn run_crypto(quick: bool) {
    let iters = if quick { 10 } else { 50 };
    let mut rng = StdRng::seed_from_u64(11);
    let key = paillier::keygen(96, &mut rng);
    for i in 0..iters {
        let c = key.public.encrypt_u64(i, &mut rng).expect("encrypt");
        let m = key.decrypt(&c).expect("decrypt");
        assert_eq!(m.to_u64(), Some(i));
    }
    // A co-signing round batch-verified in one RLC check: fires the
    // fixed-base (comb signing) and batch-verification counters the CI
    // instrumentation gate watches.
    let group = schnorr::SchnorrGroup::test_group_256();
    let n_sigs = if quick { 4 } else { 8 };
    let keys: Vec<schnorr::KeyPair> =
        (0..n_sigs).map(|_| schnorr::KeyPair::generate(&group, &mut rng)).collect();
    let msg = b"obs audit digest";
    let sigs: Vec<schnorr::SchnorrSignature> =
        keys.iter().map(|k| schnorr::sign(&group, k, msg, &mut rng)).collect();
    let items: Vec<(&prever_crypto::BigUint, &[u8], &schnorr::SchnorrSignature)> =
        keys.iter().zip(&sigs).map(|(k, s)| (&k.public, msg.as_slice(), s)).collect();
    schnorr::batch_verify(&group, &items).expect("batch verify");
    prever_obs::log!(
        Info,
        "crypto phase: {iters} Paillier round trips, {n_sigs} Schnorr signatures batch-verified"
    );
}

fn run_pir(quick: bool) {
    let n: usize = if quick { 64 } else { 256 };
    let iters = if quick { 2 } else { 5 };
    let mut rng = StdRng::seed_from_u64(12);
    let client = CpirClient::new(96, &mut rng);
    let mut server = CpirServer::new((1..=n as u64).collect());
    for i in 0..iters {
        let got = cpir_retrieve(&client, &mut server, (n / 2 + i) % n, &mut rng).expect("retrieve");
        assert_eq!(got, (((n / 2 + i) % n) + 1) as u64);
    }
    // Multi-query batch: k answers in one matrix pass (fires the
    // pir.multi_query.batch counter).
    let k = if quick { 2 } else { 4 };
    let queries: Vec<Vec<Ciphertext>> =
        (0..k).map(|j| client.query(j, n, &mut rng).expect("query")).collect();
    let qrefs: Vec<&[Ciphertext]> = queries.iter().map(|q| q.as_slice()).collect();
    let answers = server.answer_many(client.public_key(), &qrefs).expect("answer_many");
    for (j, a) in answers.iter().enumerate() {
        assert_eq!(client.decode(a).expect("decode"), (j + 1) as u64);
    }
    prever_obs::log!(
        Info,
        "pir phase: {iters} CPIR retrievals + one {k}-query batch over {n} records"
    );
}

fn run_storage(quick: bool) {
    let n: usize = if quick { 256 } else { 2_048 };
    let mut journal = Journal::new();
    for i in 0..n {
        journal.append(i as u64, Bytes::from(format!("obs-update-{i}")));
    }
    let digest = journal.digest();
    let proof = journal.prove_inclusion((n / 2) as u64, digest.size).expect("proof");
    let entry = journal.entry((n / 2) as u64).expect("entry").clone();
    Journal::verify_inclusion(&entry, &proof, &digest).expect("verify");
    prever_obs::log!(Info, "storage phase: {n} journal appends, root recomputed and proven");
}

fn run_durability(quick: bool) {
    let n: u64 = if quick { 64 } else { 512 };
    let (wal, snap) = (SharedDisk::new(71), SharedDisk::new(72));
    let mut pj = PersistentJournal::create(wal.clone(), snap.clone());
    for i in 0..n {
        pj.append(i, format!("obs-durable-{i}").as_bytes());
        if i % 8 == 7 {
            pj.flush();
        }
        if i == n / 2 {
            pj.compact().expect("compact");
        }
    }
    pj.flush();
    let digest = pj.digest().expect("the media hold the journal");
    // Crash (dropping the write-back caches) and recover: exercises the
    // wal.recover.* counters and proves the flushed history survived.
    wal.crash_dropping_cache();
    snap.crash_dropping_cache();
    let (recovered, report) = PersistentJournal::recover(wal, snap).expect("recover");
    assert_eq!(recovered.len(), n);
    assert_eq!(recovered.digest().expect("the recovered media read back"), digest);
    prever_obs::log!(
        Info,
        "durability phase: {n} durable appends, recovery replayed {} frames",
        report.frames_replayed
    );
}

fn run_dp() {
    let mut budget = BudgetAccountant::new(1.0).expect("budget");
    for _ in 0..10 {
        budget.spend(0.1).expect("within budget");
    }
    // One overdraw on purpose: exercises the denial counter and warning.
    let _ = budget.spend(0.1);
}

/// The wall clock split by phase, and the simulated phases' steps (see
/// the module doc).
#[derive(Default)]
struct Phases {
    /// `(phase, wall ns)` in run order, then `simulator outside steps`.
    ns: Vec<(&'static str, u64)>,
    outside_steps: u64,
    steps: StepTable,
}

impl Phases {
    fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let sw = prever_obs::Stopwatch::start();
        let out = f();
        self.ns.push((phase, sw.elapsed_ns()));
        out
    }

    /// Runs a simulated phase, which returns its run's step table.
    fn simulate(&mut self, phase: &'static str, f: impl FnOnce() -> StepTable) {
        let sw = prever_obs::Stopwatch::start();
        let steps = f();
        let in_steps = steps.values().map(|t| t.wall_ns).sum();
        self.outside_steps += sw.elapsed_ns() - in_steps;
        self.ns.push((phase, in_steps));
        for (kind, t) in &steps {
            *self.steps.entry(kind).or_default() += t;
        }
    }

    /// `phases_ns` and `steps`, as JSON values. Every `phases_ns` value
    /// is wall ns; work is per unit.
    fn render(&self) -> (String, String) {
        let outside = [("simulator outside steps", self.outside_steps)];
        let ns: Vec<String> =
            self.ns.iter().chain(&outside).map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let steps: Vec<String> = self
            .steps
            .iter()
            .map(|(kind, t)| {
                let work: Vec<String> =
                    Unit::ALL.iter().map(|&u| format!("\"{}\": {}", u.name(), t.work[u])).collect();
                format!(
                    "    {{\"kind\": \"{kind}\", \"steps\": {}, \"wall_ns\": {}, \"sends\": {}, \
                     \"timers\": {}, \"work\": {{{}}}}}",
                    t.steps,
                    t.wall_ns,
                    t.sends,
                    t.timers,
                    work.join(", ")
                )
            })
            .collect();
        (format!("{{{}}}", ns.join(", ")), format!("[\n{}\n  ]", steps.join(",\n")))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone())
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace needs a path").clone());
    let mode = if quick { "quick" } else { "full" };
    prever_obs::log!(Info, "obs run starting ({mode} mode)");

    // Causal tracing on for the whole run: this binary is the
    // observability showcase, and the exported Chrome trace / critical
    // path sections below read from the process-global sink.
    trace::set_trace_enabled(true);

    let sw = prever_obs::Stopwatch::start();
    let mut phases = Phases::default();
    phases.simulate("pbft", || run_consensus(quick));
    phases.simulate("sharded", run_sharded);
    phases.simulate("server", || run_server(quick));
    phases.simulate("failover", || run_failover(quick));
    let ycsb_table = phases.time("e1_ycsb", || e::e1_ycsb::run(quick));
    // E2 checks one regulation on a table without indexes and on one
    // with: both `constraints.eval.*` row sources.
    let verify_table = phases.time("e2_private_verify", || e::e2_private_verify::run(quick));
    phases.time("crypto", || run_crypto(quick));
    phases.time("pir", || run_pir(quick));
    phases.time("storage", || run_storage(quick));
    phases.time("durability", || run_durability(quick));
    phases.time("dp", run_dp);
    // The critical-path attribution runs (E3a: durable PBFT pipeline,
    // E7a: cross-shard lock/order/commit), traced with disjoint id
    // bases.
    let cp_pbft = phases.time("e3a_critical_path", || {
        e::e3_consensus::pbft_stage_breakdown(
            4,
            if quick { 32 } else { 128 },
            BatchConfig::new(8, 20_000, 4),
        )
    });
    let cp_cross = phases.time("e7a_critical_path", || {
        e::e7_sharded::cross_shard_stage_breakdown(if quick { 12 } else { 32 })
    });
    let total_ns = sw.elapsed_ns();

    let snap = prever_obs::snapshot();
    println!("# PReVer observability run ({mode} mode)\n");
    println!("{}", ycsb_table.render());
    println!("{}", verify_table.render());
    println!(
        "{}",
        e::critical_path_table(
            "E3a — PBFT commit-latency critical path (n = 4, durable, batch 8 window 4; virtual µs)",
            &cp_pbft
        )
        .render()
    );
    println!(
        "{}",
        e::critical_path_table(
            "E7a — cross-shard commit critical path (2 shards × 4 replicas; virtual µs)",
            &cp_cross
        )
        .render()
    );
    print!("{}", export::render_table(&snap));
    print!("{}", export::render_jsonl(&snap));

    // Every pipeline stage must have been observed somewhere in the run
    // — a renamed hook or a dropped propagation path fails the binary,
    // which is the CI "tracing still wired up" gate.
    let all_events = trace::events();
    let missing_stages: Vec<&str> = STAGES
        .iter()
        .copied()
        .filter(|s| !all_events.iter().any(|e| e.stage == *s))
        .collect();
    if !missing_stages.is_empty() {
        eprintln!("obs: pipeline stages never traced: {missing_stages:?}");
        std::process::exit(1);
    }

    // Chrome trace-event export of the sharded phase (intra- and
    // cross-shard commits plus the timeout abort): loads in Perfetto /
    // chrome://tracing with pid = shard, tid = replica.
    if let Some(path) = &trace_path {
        let ids: std::collections::HashSet<u64> =
            (0..4).map(|i| TraceCtx::for_command(SHARD_BASE + i).trace_id).collect();
        let events: Vec<TraceEvent> =
            all_events.iter().filter(|e| ids.contains(&e.trace_id)).cloned().collect();
        let chrome = trace::export_chrome_trace(&events, |node| node / 4);
        std::fs::write(path, &chrome).unwrap_or_else(|err| panic!("writing {path}: {err}"));
        println!("wrote {path} ({} trace events)", events.len());
    }

    let (phases_ns, steps) = phases.render();
    let extra = [
        ("mode", format!("\"{mode}\"")),
        (
            "metadata",
            meta::metadata_json(
                "virtual-us+wall-ns",
                &[
                    ("mode", format!("\"{mode}\"")),
                    ("pbft_n", "4".into()),
                    ("batch", "8".into()),
                    ("window", "4".into()),
                    ("shards", "2".into()),
                    ("replicas_per_shard", "4".into()),
                ],
            ),
        ),
        ("total_wall_ns", total_ns.to_string()),
        ("phases_ns", phases_ns),
        ("steps", steps),
        ("critical_path_pbft", cp_pbft.render_json()),
        ("critical_path_cross_shard", cp_cross.render_json()),
    ];
    let doc = export::render_json_document("PReVer observability run", &extra, &snap);
    std::fs::write(&json_path, &doc)
        .unwrap_or_else(|err| panic!("writing {json_path}: {err}"));
    println!("\nwrote {json_path}");

    if snap.is_empty() {
        eprintln!("obs: metrics snapshot is empty — instrumentation is not wired up");
        std::process::exit(1);
    }
    require("required spans recorded no samples", &REQUIRED_SPANS, |name| {
        snap.histogram(name).is_some_and(|h| h.count > 0)
    });
    require("required step kinds never ran", &REQUIRED_STEP_KINDS, |kind| {
        phases.steps.get(kind).is_some_and(|t| t.steps > 0)
    });
    require("required counters never incremented", &REQUIRED_COUNTERS, |name| {
        snap.counter(name).is_some_and(|c| c > 0)
    });
    require("required gauges never written", &REQUIRED_GAUGES, |name| snap.gauge(name).is_some());
}

/// Exits nonzero, naming them, if any of `names` fails `present`.
fn require(what: &str, names: &[&str], present: impl Fn(&str) -> bool) {
    let missing: Vec<&str> = names.iter().copied().filter(|n| !present(n)).collect();
    if !missing.is_empty() {
        eprintln!("obs: {what}: {missing:?}");
        std::process::exit(1);
    }
}
