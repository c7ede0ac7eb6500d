//! Deterministic chaos harness: seeded fault sweeps over nine
//! scenarios with safety/liveness invariant checking.
//!
//! Each scenario derives a [`prever_sim::FaultPlan`] (per-link
//! drop/delay/duplication/reordering/corruption, scheduled crashes,
//! restarts-with-state-loss, partitions, disk faults) *and* the
//! workload from a single seed, runs the protocol under it, and then
//! judges the end state with the shared checks of [`invariants`]. The
//! five PBFT-core scenarios (`pbft`, `pbft-batched`, `pbft-disk`,
//! `server-overload`, `gateway-failover`) all apply the first two:
//!
//! * **Safety** (`check_agreement`) — no two correct replicas commit
//!   different commands at the same sequence number.
//! * **Ledger** (`check_journal`) — the committed prefix matches the
//!   durable journal (replay digest == in-memory chained state digest,
//!   and as many commands).
//! * **Liveness after heal** (`report_unfinished`; `pbft*`) — once the
//!   scheduled faults clear, every submitted command executes at every
//!   correct replica.
//! * **Recovery** (`check_caught_up`; `pbft*`, `server-overload`) — a
//!   replica restarted with state loss provably catches up via state
//!   transfer (its executed-history digest matches the quorum's).
//! * **Durability** — an acked write is executed at a correct replica
//!   (`check_acks`; the two serving scenarios), and a journal recovered
//!   from faulted media keeps every flushed record and is a prefix of
//!   the pre-crash one (`check_recovered_prefix`; `pbft-disk`,
//!   `ledger-disk`).
//!
//! `sharded` and `sharded-parallel` share `sharded_invariants`; `paxos`
//! judges its decided logs itself; what only one scenario asserts
//! (fairness, bounded queue, exactly-once, failover, read-your-writes,
//! quota agreement, loud corruption) is in that scenario's function.
//! Adding a scenario is such a function plus one row of [`Protocol`]'s
//! table, which the binary, the sweeps and the golden test all read.
//!
//! Everything is deterministic: the same seed replays the same
//! execution bit-for-bit (see `chaos_runs_are_bit_identical`), so a
//! violating seed printed by the `chaos` binary is a complete
//! reproduction recipe, and a violating outcome carries its fault
//! schedule and every node's state after the tail of its simulator ring.
//! Corruption runs in *detected* mode (no corruptor hook): PBFT's base
//! premise is that messages are authenticated, so damaged bytes surface
//! as drops, not forgeries.

mod invariants;

use bytes::Bytes;
use invariants::{
    check_acks, check_agreement, check_caught_up, check_journal, check_recovered_prefix,
    has_duplicates, report_unfinished, sharded_invariants, ReplicaCore,
};
use prever_consensus::durable::{DurableLog, DurableMedia, FlushPolicy};
use prever_consensus::paxos::{self, PaxosMsg, PaxosNode};
use prever_consensus::pbft::{Byzantine, PbftCore, PbftMsg, PbftNode};
use prever_consensus::sharded::{self, ShardedNode, Topology};
use prever_consensus::{BatchConfig, Command};
use prever_crypto::{Digest, Sha256};
use prever_ledger::{Journal, LedgerDigest, LedgerError, PersistentJournal};
use prever_server::{
    ClientCfg, ClientConn, ClientPeer, FrontConfig, Gateway, LoadMode, QuotaUpdate, Replica,
    ServerMsg, ServerPeer,
};
use prever_sim::{
    Actor, DiskFault, FaultPlan, LinkFault, NetConfig, SimStats, Simulation, TraceEntry,
};
use prever_storage::SharedDisk;
use prever_wire::Class;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Seed-mixing constant (splitmix64 increment) so scenario RNG streams
/// differ from the simulator's own seeded stream.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The protocols the harness can exercise; each variant's scenario
/// function documents its faults and invariants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// [`pbft_chaos`]: an equivocating replica and a restart-with-loss.
    Pbft,
    /// [`pbft_batched_chaos`]: the same under batched, pipelined ordering.
    PbftBatched,
    /// [`paxos_chaos`]: a partition window and a leader crash/recover.
    Paxos,
    /// [`sharded_chaos`]: an inter-shard partition and a blank restart.
    Sharded,
    /// [`sharded_parallel_chaos`]: the same on the shard-per-thread
    /// runtime, real OS threads and still bit-identical per seed.
    ShardedParallel,
    /// [`pbft_disk_chaos`]: a seeded disk fault lands with a crash.
    PbftDisk,
    /// [`ledger_disk_chaos`]: the persistent journal alone under the
    /// same disk faults.
    LedgerDisk,
    /// [`server_overload_chaos`]: a flooding tenant, a stalled client and
    /// a gateway restart-with-loss mid-flood.
    ServerOverload,
    /// [`gateway_failover_chaos`]: a gateway per replica, one of which
    /// suffers a seed-chosen fate mid-session.
    GatewayFailover,
}

/// A scenario: `(seed, commands)` in, judged outcome out.
type Scenario = fn(u64, u64) -> ChaosOutcome;

impl Protocol {
    /// All protocols, sweep order.
    pub const ALL: [Protocol; 9] = [
        Protocol::Pbft,
        Protocol::PbftBatched,
        Protocol::Paxos,
        Protocol::Sharded,
        Protocol::ShardedParallel,
        Protocol::PbftDisk,
        Protocol::LedgerDisk,
        Protocol::ServerOverload,
        Protocol::GatewayFailover,
    ];

    /// The scenario table: display name, scenario function, and the
    /// default sweep `(seeds, commands per seed)`. Everything that
    /// names, parses, runs or sizes a protocol reads this.
    fn row(self) -> (&'static str, Scenario, (u64, u64)) {
        match self {
            Protocol::Pbft => ("pbft", pbft_chaos, (50, 30)),
            Protocol::PbftBatched => ("pbft-batched", pbft_batched_chaos, (50, 30)),
            Protocol::Paxos => ("paxos", paxos_chaos, (20, 25)),
            Protocol::Sharded => ("sharded", sharded_chaos, (10, 12)),
            Protocol::ShardedParallel => ("sharded-parallel", sharded_parallel_chaos, (10, 12)),
            Protocol::PbftDisk => ("pbft-disk", pbft_disk_chaos, (30, 20)),
            Protocol::LedgerDisk => ("ledger-disk", ledger_disk_chaos, (120, 60)),
            Protocol::ServerOverload => ("server-overload", server_overload_chaos, (50, 10)),
            Protocol::GatewayFailover => ("gateway-failover", gateway_failover_chaos, (50, 10)),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.row().0
    }

    /// Default sweep width and workload size: `(seeds, commands)`.
    pub fn defaults(&self) -> (u64, u64) {
        self.row().2
    }

    /// The protocol called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Every name, `|`-separated in sweep order (usage strings).
    pub fn names() -> String {
        Protocol::ALL.map(|p| p.name()).join("|")
    }
}

/// The outcome of one seeded chaos run.
///
/// `PartialEq` on the whole struct is what the determinism regression
/// test asserts: two runs of the same seed must produce identical
/// outcomes, including commit histories, sim stats, and the trace tail.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    /// The seed that generated faults and workload.
    pub seed: u64,
    /// Protocol under test.
    pub protocol: &'static str,
    /// Commands submitted.
    pub commands: u64,
    /// Commands executed at the reference correct replica.
    pub executed: u64,
    /// Commands the restarted replica applied via state transfer.
    pub synced: u64,
    /// Invariant violations (empty = the run passed).
    pub violations: Vec<String>,
    /// Simulator fault/delivery counters.
    pub stats: SimStats,
    /// Reference replica's commit history as `(slot, command id)`.
    pub history: Vec<(u64, u64)>,
    /// Tail of the simulator's trace ring (steps and network/fault
    /// notes), then the scenario's dump of its fault schedule and
    /// per-node state (only captured on violation).
    pub trace_tail: Vec<String>,
    /// Nodes alive at the end of the run that left no step in the
    /// simulator's trace ring; `None` for a run without one (the
    /// shard-per-thread runtime, the ledger alone). `chaos
    /// --flight-check` requires `Some` and empty.
    pub ring_silent: Option<Vec<usize>>,
    /// Records recovered from durable media (snapshot + WAL replay)
    /// across the run's disk-fault recoveries.
    pub recovered_frames: u64,
    /// Torn bytes truncated during recovery.
    pub truncated_bytes: u64,
    /// Corruptions that recovery surfaced loudly (silent recovery from
    /// applied corruption is a violation, detection is the pass).
    pub detected_corruptions: u64,
}

impl ChaosOutcome {
    /// A blank outcome for one run; the scenario fills in what it
    /// measured and seals it with [`Self::close`] or [`Self::finish`].
    fn new(protocol: Protocol, seed: u64, commands: u64) -> Self {
        ChaosOutcome {
            seed,
            protocol: protocol.name(),
            commands,
            executed: 0,
            synced: 0,
            violations: Vec::new(),
            stats: SimStats::default(),
            history: Vec::new(),
            trace_tail: Vec::new(),
            ring_silent: None,
            recovered_frames: 0,
            truncated_bytes: 0,
            detected_corruptions: 0,
        }
    }

    /// Records the reference replica's executed count and history, and
    /// what the restarted `victim` had to fetch by state transfer.
    fn reference(mut self, core: &PbftCore, victim: &PbftCore) -> Self {
        self.executed = core.executed_commands() as u64;
        self.history = core.executed().iter().map(|d| (d.slot, d.command.id)).collect();
        self.synced = victim.synced();
        self
    }

    /// Seals the outcome. `diagnostics` runs only if the run violated,
    /// so a clean sweep never pays for it; it must be deterministic
    /// (the determinism test compares `trace_tail`).
    fn finish(
        mut self,
        stats: SimStats,
        violations: Vec<String>,
        diagnostics: impl FnOnce() -> Vec<String>,
    ) -> Self {
        self.stats = stats;
        if !violations.is_empty() {
            self.trace_tail = diagnostics();
        }
        self.violations = violations;
        self
    }

    /// [`Self::finish`] for a `Simulation` run: a violating outcome
    /// carries the trace ring's tail followed by the scenario's `dump`.
    fn close<A: Actor>(
        mut self,
        sim: &Simulation<A>,
        violations: Vec<String>,
        dump: impl FnOnce() -> Vec<String>,
    ) -> Self {
        let stepped: HashSet<usize> = sim
            .trace()
            .filter_map(|e| if let TraceEntry::Step(s) = e { Some(s.node) } else { None })
            .collect();
        let silent = (0..sim.n_nodes()).filter(|&n| !sim.is_crashed(n) && !stepped.contains(&n));
        self.ring_silent = Some(silent.collect());
        self.finish(sim.stats(), violations, || {
            let mut tail = sim.trace_tail(80);
            tail.extend(dump());
            tail
        })
    }

    /// True iff no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// SHA-256 over a canonical encoding (little-endian words,
    /// length-prefixed strings) of everything the run decided: identity,
    /// counters, [`SimStats`], commit history and violations. The trace
    /// tail is left out — it is diagnostic text, captured only on a
    /// violation. `golden/chaos_digests.txt` pins these per seed, so two
    /// *different builds* can be shown to run the same executions.
    pub fn digest(&self) -> Digest {
        fn word(h: &mut Sha256, v: u64) {
            h.update(&v.to_le_bytes());
        }
        fn text(h: &mut Sha256, s: &str) {
            word(h, s.len() as u64);
            h.update(s.as_bytes());
        }
        // Exhaustive: a new counter must be added here to compile.
        let SimStats {
            messages_sent,
            messages_delivered,
            messages_dropped,
            timers_fired,
            messages_duplicated,
            messages_corrupted,
            crashes,
            recoveries,
            restarts_with_loss,
            disk_faults,
        } = self.stats;
        let mut h = Sha256::new();
        text(&mut h, self.protocol);
        for v in [
            self.seed,
            self.commands,
            self.executed,
            self.synced,
            self.recovered_frames,
            self.truncated_bytes,
            self.detected_corruptions,
            messages_sent,
            messages_delivered,
            messages_dropped,
            timers_fired,
            messages_duplicated,
            messages_corrupted,
            crashes,
            recoveries,
            restarts_with_loss,
            disk_faults,
            self.history.len() as u64,
        ] {
            word(&mut h, v);
        }
        for &(slot, id) in &self.history {
            word(&mut h, slot);
            word(&mut h, id);
        }
        word(&mut h, self.violations.len() as u64);
        for v in &self.violations {
            text(&mut h, v);
        }
        h.finalize()
    }
}

/// Runs one seeded scenario for `protocol`.
pub fn run_seed(protocol: Protocol, seed: u64, commands: u64) -> ChaosOutcome {
    (protocol.row().1)(seed, commands)
}

/// The disk fault a seed exercises (round-robin so a sweep covers all
/// three classes).
fn disk_fault_for(seed: u64) -> DiskFault {
    match seed % 3 {
        0 => DiskFault::DropCache,
        1 => DiskFault::TornWrite,
        _ => DiskFault::CorruptSector,
    }
}

/// Draws a moderately hostile link-fault profile.
fn rough_link(rng: &mut StdRng) -> LinkFault {
    LinkFault {
        drop: rng.gen::<f64>() * 0.04,
        delay_max: rng.gen_range(0..1_500),
        duplicate: rng.gen::<f64>() * 0.05,
        reorder: rng.gen::<f64>() * 0.3,
        reorder_window: rng.gen_range(0..2_000),
        corrupt: rng.gen::<f64>() * 0.02,
    }
}

/// Installs an independently drawn fault profile on every directed link.
fn rough_links(mut plan: FaultPlan, n: usize, rng: &mut StdRng) -> FaultPlan {
    for a in 0..n {
        for b in 0..n {
            if a != b {
                plan = plan.link(a, b, rough_link(rng));
            }
        }
    }
    plan
}

/// Settle: a liveness predicate fires the instant the last replica
/// catches up, which can leave a trailing slot's commits still in
/// flight to a subset of replicas. Drain them before comparing
/// whole-history digests.
fn settle<A: Actor>(sim: &mut Simulation<A>, live: bool) {
    if live {
        let settle_until = sim.now() + 2_000_000;
        sim.run_until(settle_until);
    }
}

/// One line of a violating run's dump: a replica's view, digest,
/// view-change probe and executed history as `slot:id` (`*` marks an
/// equivocated payload).
fn core_line((i, core): ReplicaCore) -> String {
    let log: Vec<String> = core
        .executed()
        .iter()
        .map(|d| {
            let mark = if d.command.payload.ends_with(b"equivocated") { "*" } else { "" };
            format!("{}:{}{mark}", d.slot, d.command.id)
        })
        .collect();
    format!(
        "node {i} view={} digest={} {} executed: {}",
        core.view(),
        core.state_digest(),
        core.debug_probe(),
        log.join(" ")
    )
}

/// The workload and the wait the PBFT scenarios share: `commands`
/// requests injected at replica 1 at seeded instants, the plan run to
/// `heal_at`, then liveness after heal — every replica in `expect`
/// executes everything — and the settle. Returns whether it went live.
fn drive_pbft(
    sim: &mut Simulation<PbftNode>,
    rng: &mut StdRng,
    commands: u64,
    heal_at: u64,
    expect: &[usize],
) -> bool {
    for i in 0..commands {
        let at = 1 + rng.gen_range(0..400_000u64);
        sim.inject(1, 1, PbftMsg::request(Command::new(i, format!("chaos-{i}"))), at);
    }
    sim.run_until(heal_at);
    // Count *distinct* ids — an equivocating primary can get the same
    // command committed at two slots, and the raw entry count would
    // then declare victory while the real workload is still in flight.
    let live = sim.run_until_pred(3_000_000, |nodes| {
        expect.iter().all(|&i| nodes[i].core.distinct_executed_commands() as u64 >= commands)
    });
    settle(sim, live);
    live
}

/// PBFT acceptance scenario: n = 4 with replica 0 equivocating whenever
/// it holds the primary role (f = 1 Byzantine), plus a scheduled
/// crash-and-restart-with-state-loss of correct replica 2, under rough
/// links. Honest replicas persist to durable journals; the restarted
/// replica is rebuilt from its journal and catches up via state
/// transfer.
pub fn pbft_chaos(seed: u64, commands: u64) -> ChaosOutcome {
    pbft_chaos_with(Protocol::Pbft, seed, commands, BatchConfig::default())
}

/// The PBFT acceptance scenario with multi-command batching and a
/// pipelined window enabled (batch 8, 20 ms fill delay, window 4) —
/// identical fault plan and workload, but every ordering round carries
/// a cut batch.
pub fn pbft_batched_chaos(seed: u64, commands: u64) -> ChaosOutcome {
    pbft_chaos_with(Protocol::PbftBatched, seed, commands, BatchConfig::new(8, 20_000, 4))
}

fn pbft_chaos_with(protocol: Protocol, seed: u64, commands: u64, cfg: BatchConfig) -> ChaosOutcome {
    const N: usize = 4;
    const VICTIM: usize = 2;
    let correct = [1usize, 2, 3];
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_MIX);

    let media: Vec<DurableMedia> = (0..N as u64).map(DurableMedia::new).collect();
    let nodes: Vec<PbftNode> = (0..N)
        .map(|id| {
            if id == 0 {
                PbftNode::new(id, N, Byzantine::EquivocatingPrimary).with_batching(cfg)
            } else {
                PbftNode::with_durable(id, N, Byzantine::Honest, DurableLog::on(&media[id]))
                    .with_batching(cfg)
            }
        })
        .collect();

    let crash_at = 80_000 + rng.gen_range(0..220_000u64);
    let restart_at = crash_at + 80_000 + rng.gen_range(0..220_000u64);
    let heal_at = restart_at + 150_000;
    let plan = rough_links(FaultPlan::new(), N, &mut rng)
        .crash_at(crash_at, VICTIM)
        .restart_with_loss_at(restart_at, VICTIM)
        .clear_links_at(heal_at);

    let mut sim = Simulation::new(nodes, NetConfig::default(), seed);
    sim.set_fault_plan(plan);
    sim.set_node_factory(move |id| {
        PbftNode::recover_with(id, N, Byzantine::Honest, recover_unfaulted(&media[id]))
            .with_batching(cfg)
    });
    sim.enable_trace(256);

    let live = drive_pbft(&mut sim, &mut rng, commands, heal_at, &correct);

    // Judged over the correct replicas only; replica 1 is the quorum's
    // reference.
    let cores: Vec<ReplicaCore> = correct.iter().map(|&i| (i, &sim.node(i).core)).collect();
    let reference = &sim.node(1).core;
    let mut violations = check_agreement(&cores);
    violations.extend(correct.iter().flat_map(|&i| check_journal(i, sim.node(i))));
    if live {
        violations.extend(check_caught_up((VICTIM, &sim.node(VICTIM).core), reference));
    } else {
        violations.extend(report_unfinished(&cores, commands));
    }

    let outcome = ChaosOutcome::new(protocol, seed, commands);
    outcome.reference(reference, &sim.node(VICTIM).core).close(&sim, violations, || {
        let schedule = format!(
            "crash_at={crash_at} restart_at={restart_at} heal_at={heal_at} now={}",
            sim.now()
        );
        std::iter::once(schedule).chain((0..N).map(|i| core_line((i, &sim.node(i).core)))).collect()
    })
}

/// The front-end tuning every serving scenario runs under.
const FRONT: FrontConfig = FrontConfig {
    queue_cap: 64,
    inflight_cap: 16,
    tenant_rate: 800,
    tenant_burst: 16,
    service_estimate_us: 500,
    retry_after_cap_us: 2_000_000,
};

/// A traced, durable serving cluster under `plan`: `n` consensus
/// members, each on its own media, of which the first `gateways` front
/// clients (the rest are plain replicas), then one client per `clients`
/// entry. One closure builds node `id` both at the start and when the
/// plan restarts it with state loss — `recovered` then rebuilds a
/// member from the journal its media kept where a fresh one starts
/// empty.
fn serving_sim(
    n: usize,
    gateways: usize,
    batch: BatchConfig,
    clients: &[ClientCfg],
    plan: FaultPlan,
    seed: u64,
) -> Simulation<ServerPeer> {
    let media: Vec<DurableMedia> = (0..n as u64).map(DurableMedia::new).collect();
    let clients = clients.to_vec();
    let total = n + clients.len();
    let serving_node = move |id: usize, recovered: bool| {
        if id >= n {
            return ServerPeer::Client(Box::new(ClientPeer::new(clients[id - n].clone())));
        }
        let log =
            if recovered { recover_unfaulted(&media[id]) } else { DurableLog::on(&media[id]) };
        if id < gateways {
            let build = if recovered { Gateway::recover_with } else { Gateway::with_durable };
            ServerPeer::Gateway(Box::new(build(id, n, FRONT, batch, log)))
        } else {
            let build = if recovered { Replica::recover_with } else { Replica::with_durable };
            ServerPeer::Replica(Box::new(build(id, n, batch, log)))
        }
    };
    let nodes = (0..total).map(|id| serving_node(id, false)).collect();
    let mut sim = Simulation::new(nodes, NetConfig::default(), seed);
    sim.set_fault_plan(plan);
    sim.set_node_factory(move |id| serving_node(id, true));
    sim.enable_trace(256);
    sim
}

/// The consensus cores of a serving cluster's `n` members.
fn serving_cores(sim: &Simulation<ServerPeer>, n: usize) -> Vec<ReplicaCore<'_>> {
    (0..n).map(|i| (i, sim.node(i).core().expect("consensus member"))).collect()
}

/// The ledger check over a serving cluster's `n` members.
fn serving_journals(sim: &Simulation<ServerPeer>, n: usize) -> Vec<String> {
    (0..n).flat_map(|i| check_journal(i, sim.node(i).host().expect("consensus member"))).collect()
}

/// Reopens a log from media no fault touched: every record on them was
/// flushed, so recovery must succeed.
fn recover_unfaulted(media: &DurableMedia) -> DurableLog {
    DurableLog::recover(media).expect("unfaulted media recover").0
}

/// The client connection at node `i` of a serving cluster.
fn client_conn(sim: &Simulation<ServerPeer>, i: usize) -> &ClientConn {
    &sim.node(i).as_client().expect("client node").conn
}

/// One line of a violating run's dump: where client `i` ended up.
fn client_line(sim: &Simulation<ServerPeer>, i: usize) -> String {
    let conn = client_conn(sim, i);
    format!(
        "client {i}: {:?} unresolved={} server={}",
        conn.stats(),
        conn.unresolved(),
        conn.current_server()
    )
}

/// Serving-layer overload scenario: a 4-replica durable cluster whose
/// gateway fronts three tenants — a well-behaved high-priority tenant,
/// a well-behaved tenant behind a stalled connection (hundreds of ms of
/// link delay until heal), and a flooding low-priority tenant pushing
/// several times its token-bucket rate — while the gateway itself
/// crashes mid-flood and is rebuilt from its durable log with
/// state-loss, under rough consensus links.
///
/// On top of the usual consensus safety/ledger/recovery invariants this
/// checks the serving-layer contract:
///
/// * **Acked writes are durable** — every id *any* client saw
///   `Committed` (including the flooder, including acks sent before the
///   crash) is executed at a correct replica after the run.
/// * **Fairness under flood** — both well-behaved tenants finish their
///   full workloads even while the flooding tenant is being shed and
///   the gateway restarts.
/// * **Bounded queue** — the admission queue never exceeds its cap;
///   overload surfaces as explicit `Overloaded` sheds, not silent
///   buffering.
pub fn server_overload_chaos(seed: u64, commands: u64) -> ChaosOutcome {
    const N: usize = 4;
    const HIGH: usize = 4; // well-behaved high-priority tenant
    const SLOW: usize = 5; // well-behaved tenant behind a stalled link
    const FLOOD: usize = 6; // flooding low-priority tenant
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_MIX);

    let batch = BatchConfig::new(8, 5_000, 4);
    // The two well-behaved tenants run closed-loop (their offered load
    // collapses when the cluster slows, like a real interactive client)
    // with a retry budget generous enough to ride out the whole crash
    // window. The flooder runs open-loop well above its bucket rate
    // with a tight deadline and a small budget — its requests are the
    // ones the ladder and the bucket are expected to shed.
    let patient = ClientCfg {
        servers: vec![0],
        mode: LoadMode::Closed { window: 2, think_us: 0 },
        requests: commands,
        deadline_us: 0,
        timeout_us: 150_000,
        retry_budget: 64,
        backoff_base_us: 4_000,
        backoff_cap_us: 200_000,
        ..ClientCfg::default()
    };
    let tenant = |tenant: u32, class: Class, id_base: u64, salt: u64| ClientCfg {
        tenant,
        class,
        id_base,
        seed: seed ^ salt,
        ..patient.clone()
    };
    let clients = [
        tenant(1, Class::High, 1_000, 0xa5a5),
        tenant(2, Class::Normal, 2_000, 0x5a5a),
        ClientCfg {
            mode: LoadMode::Open { interval_us: 600 },
            requests: 200 + commands * 20,
            deadline_us: 40_000,
            timeout_us: 50_000,
            retry_budget: 2,
            backoff_base_us: 2_000,
            backoff_cap_us: 20_000,
            ..tenant(3, Class::Low, 1_000_000, 0x3c3c)
        },
    ];

    let crash_at = 120_000 + rng.gen_range(0..200_000u64);
    let restart_at = crash_at + 80_000 + rng.gen_range(0..150_000u64);
    let heal_at = restart_at + 150_000;
    // Rough links on the consensus mesh only (nodes 0..N): what clients
    // observe must be shaped by admission decisions, not by a lossy
    // client network — except the SLOW tenant, whose connection stalls
    // for hundreds of ms each way until the heal clears it.
    let stall = LinkFault { delay_max: 300_000, ..LinkFault::default() };
    let plan = rough_links(FaultPlan::new(), N, &mut rng)
        .link(0, SLOW, stall)
        .link(SLOW, 0, stall)
        .crash_at(crash_at, 0)
        .restart_with_loss_at(restart_at, 0)
        .clear_links_at(heal_at);
    let mut sim = serving_sim(N, 1, batch, &clients, plan, seed);

    sim.run_until(heal_at);
    // Liveness after heal: both well-behaved tenants resolve their full
    // workloads (the flooder may legitimately end shed or given-up).
    let live = sim.run_until_pred(6_000_000, |nodes: &[ServerPeer]| {
        [HIGH, SLOW].iter().all(|&i| nodes[i].as_client().is_some_and(|c| c.conn.done()))
    });
    settle(&mut sim, live);

    // Safety: the gateway (post-recovery) and the three replicas agree
    // on every slot both executed; and the committed prefix matches the
    // durable ledger on every node, including the gateway's
    // post-restart journal.
    let cores = serving_cores(&sim, N);
    let reference = cores[1].1;
    let mut violations = check_agreement(&cores);
    violations.extend(serving_journals(&sim, N));
    // Durability of acks: every id any client saw `Committed` — before
    // or after the gateway crash — must be executed at replica 1, which
    // never crashed.
    for i in [HIGH, SLOW, FLOOD] {
        violations.extend(check_acks(i, client_conn(&sim, i), "replica 1", reference));
    }
    // Fairness: the flood and the crash may slow the well-behaved
    // tenants down, but must not starve them out.
    if live {
        for (i, label) in [(HIGH, "high-priority"), (SLOW, "stalled")] {
            let stats = client_conn(&sim, i).stats();
            if stats.committed < commands {
                violations.push(format!(
                    "fairness: well-behaved {label} tenant committed {}/{commands} \
                     (gave_up={}, overloaded={})",
                    stats.committed, stats.gave_up, stats.overloaded
                ));
            }
        }
    } else {
        violations.push(format!(
            "liveness: well-behaved tenants unresolved after heal (high={}, stalled={})",
            client_conn(&sim, HIGH).unresolved(),
            client_conn(&sim, SLOW).unresolved()
        ));
    }
    // Bounded queue: overload must surface as explicit sheds, never as
    // an admission queue growing past its cap. (The stat covers the
    // post-restart front end; the pre-crash one enforced the same cap.)
    let fstats = sim.node(0).as_gateway().expect("gateway node").front.stats();
    if fstats.max_queue_depth > FRONT.queue_cap {
        violations.push(format!(
            "backpressure: admission queue reached {} entries, cap is {}",
            fstats.max_queue_depth, FRONT.queue_cap
        ));
    }
    // Provable catch-up: the restarted gateway's history digest matches
    // the quorum's.
    if live {
        violations.extend(check_caught_up(cores[0], reference));
    }

    let outcome = ChaosOutcome::new(Protocol::ServerOverload, seed, commands);
    outcome.reference(reference, cores[0].1).close(&sim, violations, || {
        let mut dump = vec![
            format!(
                "crash_at={crash_at} restart_at={restart_at} heal_at={heal_at} now={}",
                sim.now()
            ),
            format!("front: {fstats:?}"),
        ];
        dump.extend([HIGH, SLOW, FLOOD].map(|i| client_line(&sim, i)));
        dump.extend(cores.iter().copied().map(core_line));
        dump
    })
}

/// Multi-gateway failover scenario: a 4-node durable cluster where
/// *every* replica fronts its own gateway, three closed-session clients
/// hold rotated endpoint lists with read-your-writes verification on,
/// and one non-reference gateway suffers a seed-chosen fate mid-run:
///
/// * `seed % 4 == 0` — **long-outage crash**: the gateway dies with
///   sessions open and retries in flight, stays down for many client
///   timeouts and several view-timeout windows, then recovers.
/// * `seed % 4 == 1` — **partition**: the gateway is isolated from the
///   rest of the cluster *and* from every client, then healed.
/// * `seed % 4 == 2` — **restart with state loss**: the gateway crashes
///   and is rebuilt from its journal; its ack/session state must be
///   reconstructible from the replayed log.
/// * `seed % 4 == 3` — **flapping**: two crash/recover cycles in quick
///   succession.
///
/// A tenant quota change is injected at the never-faulted reference
/// gateway early in the run; consensus must carry it to every gateway.
///
/// On top of the consensus safety/ledger invariants this checks the
/// multi-gateway serving contract:
///
/// * **Transparent failover** — the client homed on the victim resumes
///   its session at a surviving gateway and finishes its workload.
/// * **Exactly once** — resumed retries never double-execute: every
///   gateway's executed history contains each command id exactly once.
/// * **Acked writes are durable** — every id any client saw
///   `Committed`, through any gateway, is executed at the reference.
/// * **Read-your-writes** — no client ever observes a verified-fresh
///   replica that is missing one of its acked writes, nor conflicting
///   digests for the same ledger position.
/// * **Quota agreement** — every gateway that executed the quota
///   command reports the same effective quota, and the full
///   non-victim quorum has executed it.
pub fn gateway_failover_chaos(seed: u64, commands: u64) -> ChaosOutcome {
    const N: usize = 4;
    const REF: usize = 3; // never-faulted gateway: durability reference
    const CLIENTS: usize = 3;
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_MIX);

    let batch = BatchConfig::new(8, 5_000, 4);
    let victim = rng.gen_range(0..REF);
    let flavor = seed % 4;

    // Open-loop arrivals so the workload spans the fault window: the
    // client homed on the victim still has traffic to move when the
    // gateway goes down, which is what forces a real mid-session
    // failover rather than a clean reconnect.
    let base = ClientCfg {
        mode: LoadMode::Open { interval_us: 10_000 },
        requests: commands,
        deadline_us: 0,
        timeout_us: 60_000,
        retry_budget: 64,
        backoff_base_us: 4_000,
        backoff_cap_us: 200_000,
        failover_after: 1,
        verify_reads: true,
        ..ClientCfg::default()
    };
    let clients: Vec<ClientCfg> = (0..CLIENTS)
        .map(|i| ClientCfg {
            tenant: 1 + i as u32,
            class: if i == 0 { Class::High } else { Class::Normal },
            servers: (0..N).map(|k| (k + i) % N).collect(),
            id_base: 1_000 * (1 + i as u64),
            seed: seed ^ (0x1111 * (i as u64 + 1)),
            ..base.clone()
        })
        .collect();

    let fault_at = 30_000 + rng.gen_range(0..50_000u64);
    let plan = rough_links(FaultPlan::new(), N, &mut rng);
    let (plan, end_of_faults) = match flavor {
        0 => {
            // Long outage: far beyond the client timeout (forcing real
            // mid-session failovers) and spanning several view-timeout
            // windows (exercising view churn with a member missing —
            // the adjacent-view deadlock territory). The victim does
            // come back before the drain: with n = 4 a permanently
            // dead replica can leave rough-link-starved laggards
            // unable to assemble the f + 1 agreeing state-transfer
            // responses verification requires — the remaining history
            // then lives on one replica alone, which no vote-counting
            // sync can prove. Recovery restores the second source and
            // the cluster must fully reconverge.
            let back = fault_at + 400_000 + rng.gen_range(0..200_000u64);
            (plan.crash_at(fault_at, victim).recover_at(back, victim), back)
        }
        1 => {
            let heal = fault_at + 150_000 + rng.gen_range(0..100_000u64);
            let groups: Vec<usize> =
                (0..N + CLIENTS).map(|i| usize::from(i == victim)).collect();
            (plan.partition_at(fault_at, groups).heal_at(heal), heal)
        }
        2 => {
            let restart = fault_at + 80_000 + rng.gen_range(0..120_000u64);
            (plan.crash_at(fault_at, victim).restart_with_loss_at(restart, victim), restart)
        }
        _ => {
            let step = 70_000 + rng.gen_range(0..50_000u64);
            let plan = plan
                .crash_at(fault_at, victim)
                .recover_at(fault_at + step, victim)
                .crash_at(fault_at + 2 * step, victim)
                .recover_at(fault_at + 3 * step, victim);
            (plan, fault_at + 3 * step)
        }
    };
    let mut sim = serving_sim(N, N, batch, &clients, plan, seed);

    // A quota change lands at the reference gateway before the fault;
    // consensus must carry it to every gateway (including the victim,
    // once it is back and caught up).
    let quota = QuotaUpdate {
        tenant: 2,
        rate: 500 + rng.gen_range(0..500u64),
        burst: 8 + rng.gen_range(0..24u64),
    };
    let quota_nonce = seed | 1;
    let quota_id = QuotaUpdate::command_id(quota_nonce);
    sim.inject(REF, REF, ServerMsg::Quota { update: quota, nonce: quota_nonce }, 15_000);

    // Pause at the fault instant to record whether the victim-homed
    // client still had work outstanding: only then is a failover
    // actually forced (flavor 3's outages can be shorter than the
    // client timeout, so flapping does not hard-require one).
    sim.run_until(fault_at);
    let victim_client = N + victim; // client i is homed on gateway i
    let outstanding_at_fault = client_conn(&sim, victim_client).unresolved();
    let failover_expected = flavor != 3 && outstanding_at_fault >= 2;

    sim.run_until(end_of_faults);
    let live = sim.run_until_pred(8_000_000, |nodes: &[ServerPeer]| {
        (N..N + CLIENTS).all(|i| nodes[i].as_client().is_some_and(|c| c.conn.done()))
    });
    settle(&mut sim, live);

    // Safety: all gateways agree on every slot both executed, and the
    // committed prefix matches the durable journal on every gateway.
    let cores = serving_cores(&sim, N);
    let mut violations = check_agreement(&cores);
    violations.extend(serving_journals(&sim, N));
    // Exactly once across resumed sessions: no gateway's history holds
    // a command id twice (a double-execute of a resumed retry would).
    for &(i, core) in &cores {
        if core.distinct_executed_commands() != core.executed_commands() {
            violations.push(format!(
                "exactly-once: gateway {i} executed {} commands but only {} distinct ids",
                core.executed_commands(),
                core.distinct_executed_commands()
            ));
        }
    }
    // Durability of acks: every id any client saw `Committed` — via any
    // gateway, before or after failover — is in the cluster's committed
    // history. Judged at the most advanced never-faulted gateway: with
    // f = 1 a correct replica may legitimately trail the commit quorum,
    // so "the longest correct history" is the cluster's history (the
    // pairwise prefix check above already proved they agree). Of equally
    // long histories `max_by_key` keeps the last, i.e. the highest id.
    let (longest, reference) = cores
        .iter()
        .copied()
        .filter(|&(i, _)| i != victim)
        .max_by_key(|(_, core)| core.executed().len())
        .expect("non-victim gateway exists");
    let at = format!("gateway {longest} (longest correct history)");
    for i in N..N + CLIENTS {
        violations.extend(check_acks(i, client_conn(&sim, i), &at, reference));
    }
    // Liveness + transparent failover: every client finishes, and the
    // victim-homed client that had work outstanding at the crash must
    // have rotated to a survivor.
    if live {
        for i in N..N + CLIENTS {
            let stats = client_conn(&sim, i).stats();
            if stats.committed < commands {
                violations.push(format!(
                    "liveness: client {i} committed {}/{commands} (gave_up={})",
                    stats.committed, stats.gave_up
                ));
            }
        }
        if failover_expected && client_conn(&sim, victim_client).stats().failovers == 0 {
            violations.push(format!(
                "failover: victim-homed client had {outstanding_at_fault} commands outstanding \
                 at the fault but never rotated endpoints"
            ));
        }
    } else {
        let unresolved: Vec<u64> =
            (N..N + CLIENTS).map(|i| client_conn(&sim, i).unresolved()).collect();
        violations
            .push(format!("liveness: clients unresolved after faults cleared: {unresolved:?}"));
    }
    // Read-your-writes: verified-fresh replicas are never missing acked
    // writes and never present conflicting digests; and the read path
    // was actually exercised.
    let mut fresh_total = 0;
    for i in N..N + CLIENTS {
        let stats = client_conn(&sim, i).stats();
        fresh_total += stats.fresh_reads;
        if stats.read_violations > 0 {
            violations.push(format!(
                "read-your-writes: client {i} recorded {} violations \
                 (fresh={}, stale={}, abandoned={})",
                stats.read_violations, stats.fresh_reads, stats.stale_reads, stats.reads_abandoned
            ));
        }
    }
    if live && fresh_total == 0 {
        violations.push("read-your-writes: no client ever verified a fresh read".into());
    }
    // Quota agreement: the consensus-carried update reaches the whole
    // non-victim quorum, and everyone who executed it agrees on the
    // effective value.
    let front_of = |i: usize| &sim.node(i).as_gateway().expect("gateway node").front;
    if live {
        for &(i, core) in &cores {
            let executed_quota = core.has_executed(quota_id);
            if !executed_quota && i != victim {
                violations.push(format!("quota: gateway {i} never executed the quota command"));
            }
            if !executed_quota && i == victim && flavor != 3 {
                // A recovered (journal-rebuilt or healed) victim must
                // catch up past the pre-fault quota slot; a flapping
                // victim may legitimately still be syncing.
                violations.push(format!(
                    "quota: recovered victim gateway {i} never caught up to the quota command"
                ));
            }
            if executed_quota {
                let got = front_of(i).quota_for(2);
                if got != (quota.rate, quota.burst) {
                    violations.push(format!(
                        "quota: gateway {i} reports {:?}, consensus carried {:?}",
                        got,
                        (quota.rate, quota.burst)
                    ));
                }
            }
        }
    }

    let outcome = ChaosOutcome::new(Protocol::GatewayFailover, seed, commands);
    outcome.reference(reference, cores[victim].1).close(&sim, violations, || {
        let mut dump = vec![format!(
            "victim={victim} flavor={flavor} fault_at={fault_at} \
             end_of_faults={end_of_faults} now={}",
            sim.now()
        )];
        dump.extend((N..N + CLIENTS).map(|i| client_line(&sim, i)));
        for &(i, core) in &cores {
            let front = front_of(i);
            let quota = front.quota_for(2);
            dump.push(format!("gateway {i} quota={quota:?} front={:?}", front.stats()));
            dump.push(core_line((i, core)));
        }
        dump
    })
}

/// Paxos scenario: n = 5 under rough links with a minority-partition
/// window and a crash/recover of node 0 (state intact — Paxos acceptor
/// promises are not persisted, so a restart-with-loss would be unsound;
/// see DESIGN.md).
pub fn paxos_chaos(seed: u64, commands: u64) -> ChaosOutcome {
    const N: usize = 5;
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_MIX);

    let part_at = 60_000 + rng.gen_range(0..150_000u64);
    let part_heal = part_at + 100_000 + rng.gen_range(0..200_000u64);
    let crash_at = 40_000 + rng.gen_range(0..150_000u64);
    let recover_at = crash_at + 80_000 + rng.gen_range(0..200_000u64);
    let clear_at = part_heal.max(recover_at) + 100_000;

    let plan = rough_links(FaultPlan::new(), N, &mut rng)
        .partition_at(part_at, vec![0, 0, 1, 1, 1])
        .heal_at(part_heal)
        .crash_at(crash_at, 0)
        .recover_at(recover_at, 0)
        .clear_links_at(clear_at);

    let mut sim = Simulation::new(paxos::cluster(N), NetConfig::default(), seed);
    sim.set_fault_plan(plan);
    sim.enable_trace(256);

    for i in 0..commands {
        let at = 1 + rng.gen_range(0..400_000u64);
        sim.inject(3, 3, PaxosMsg::request(Command::new(i, format!("chaos-{i}"))), at);
    }

    sim.run_until(clear_at);
    let live = sim.run_until_pred(3_000_000, |nodes: &[PaxosNode]| {
        nodes.iter().all(|nd| nd.decided_ids().len() as u64 >= commands)
    });

    let ids_of = |batch: &prever_consensus::Batch| -> Vec<u64> {
        batch.commands().iter().map(|c| c.id).collect()
    };
    let mut violations = Vec::new();
    // Safety: every pair of nodes agrees on every slot both decided
    // (Batch equality is digest equality).
    for a in 0..N {
        for b in a + 1..N {
            for (slot, (batch, _)) in sim.node(a).decided() {
                if let Some((other, _)) = sim.node(b).decided().get(slot) {
                    if other != batch {
                        violations.push(format!(
                            "safety: nodes {a} and {b} diverge at slot {slot} ({:?} vs {:?})",
                            ids_of(batch),
                            ids_of(other)
                        ));
                    }
                }
            }
        }
    }
    // No duplicate command ids within one log.
    for i in 0..N {
        if has_duplicates(sim.node(i).decided_ids()) {
            violations.push(format!("safety: node {i} decided a command twice"));
        }
    }
    if !live {
        for i in 0..N {
            let got = sim.node(i).decided_ids().len() as u64;
            if got < commands {
                violations.push(format!("liveness: node {i} decided {got}/{commands} after heal"));
            }
        }
    }

    let mut outcome = ChaosOutcome::new(Protocol::Paxos, seed, commands);
    outcome.executed = sim.node(3).decided_ids().len() as u64;
    outcome.history = sim
        .node(3)
        .decided()
        .iter()
        .flat_map(|(s, (b, _))| b.commands().iter().map(move |c| (*s, c.id)))
        .collect();
    outcome.close(&sim, violations, Vec::new)
}

/// Transaction `i` of a sharded workload.
fn tx(i: u64) -> Command {
    Command::new(i, format!("tx-{i}"))
}

/// A blank sharded outcome with its reference (node 0) and restarted
/// `victim` recorded.
fn sharded_outcome(
    protocol: Protocol,
    seed: u64,
    txs: u64,
    nodes: &[&ShardedNode],
    victim: usize,
) -> ChaosOutcome {
    let mut outcome = ChaosOutcome::new(protocol, seed, txs);
    outcome.executed = nodes[0].resolved_count() as u64;
    outcome.synced = nodes[victim].resolved_count() as u64;
    outcome.history = nodes[0].completed().iter().map(|c| (c.slot, c.tx_id)).collect();
    outcome
}

/// A violating sharded run's dump: the fault schedule, then every
/// node's resolution sets and stuck transactions.
fn sharded_dump(schedule: String, topo: Topology, nodes: &[&ShardedNode]) -> Vec<String> {
    let lines = nodes.iter().enumerate().map(|(id, node)| {
        format!("node {id} (shard {}): {}", topo.shard_of(id), node.debug_summary())
    });
    std::iter::once(schedule).chain(lines).collect()
}

/// Sharded scenario: 2 shards × 4 replicas under rough links, an
/// inter-shard partition window, and a blank restart (full state loss,
/// no durable journal) of a shard-1 backup — which must recover through
/// PBFT state transfer plus the TxQuery/TxInfo peer-query path.
///
/// With the lock/order/commit protocol, cross-shard transactions caught
/// in the partition may legitimately **abort** (the coordinator times
/// out on the missing certificates). The invariants are therefore:
///
/// * **resolution liveness** — after the network clears and the client
///   resubmits, every replica of every involved shard resolves every
///   transaction (commit or abort);
/// * **outcome agreement** — no two replicas resolve the same
///   transaction differently;
/// * intra-shard transactions always commit (they never enter the
///   cross-shard decision path);
/// * no leaks, no duplicate completions.
pub fn sharded_chaos(seed: u64, txs: u64) -> ChaosOutcome {
    let topo = Topology { n_shards: 2, replicas_per_shard: 4 };
    let n = topo.n_nodes();
    const VICTIM: usize = 5;
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_MIX);

    let part_at = 60_000 + rng.gen_range(0..120_000u64);
    let part_heal = part_at + 100_000 + rng.gen_range(0..150_000u64);
    let crash_at = 40_000 + rng.gen_range(0..120_000u64);
    let restart_at = crash_at + 80_000 + rng.gen_range(0..150_000u64);
    let clear_at = part_heal.max(restart_at) + 100_000;

    let groups: Vec<usize> = (0..n).map(|id| topo.shard_of(id)).collect();
    let plan = rough_links(FaultPlan::new(), n, &mut rng)
        .partition_at(part_at, groups)
        .heal_at(part_heal)
        .crash_at(crash_at, VICTIM)
        .restart_with_loss_at(restart_at, VICTIM)
        .clear_links_at(clear_at);

    let nodes = sharded::cluster(topo, BatchConfig::default());
    let mut sim = Simulation::new(nodes, NetConfig::default(), seed);
    sim.set_fault_plan(plan);
    sim.set_node_factory(move |id| ShardedNode::new(id, topo, Byzantine::Honest));
    sim.enable_trace(256);

    // Mixed workload: i % 3 == 2 → cross-shard, else intra-shard.
    let involved_of = |i: u64| -> Vec<usize> {
        match i % 3 {
            0 => vec![0],
            1 => vec![1],
            _ => vec![0, 1],
        }
    };
    for i in 0..txs {
        let at = 1 + rng.gen_range(0..300_000u64);
        sharded::submit(&mut sim, topo, tx(i), involved_of(i), at);
    }

    sim.run_until(clear_at);
    // Resubmit everything once the network is clean: the original
    // fan-out may have died in the partition, and resubmission is
    // idempotent (executed transactions just re-announce their votes).
    for i in 0..txs {
        let at = sim.now() + 10 + i;
        sharded::submit(&mut sim, topo, tx(i), involved_of(i), at);
    }

    // Resolution liveness: every replica of every involved shard
    // resolves every transaction — commit or abort.
    let live = sim.run_until_pred(8_000_000, |nodes: &[ShardedNode]| {
        (0..n).all(|id| {
            let shard = topo.shard_of(id);
            (0..txs)
                .filter(|&i| involved_of(i).contains(&shard))
                .all(|i| nodes[id].is_resolved(i))
        })
    });

    let nodes: Vec<&ShardedNode> = (0..n).map(|id| sim.node(id)).collect();
    let violations = sharded_invariants(topo, txs, &involved_of, &nodes, live);
    sharded_outcome(Protocol::Sharded, seed, txs, &nodes, VICTIM).close(&sim, violations, || {
        let schedule = format!(
            "part_at={part_at} part_heal={part_heal} crash_at={crash_at} \
             restart_at={restart_at} clear_at={clear_at} now={}",
            sim.now()
        );
        sharded_dump(schedule, topo, &nodes)
    })
}

/// The sharded scenario on the shard-per-thread parallel runtime:
/// 3 shards × 4 replicas, each shard's replica group on its own OS
/// thread, with a seeded mid-commit inter-shard partition window and a
/// blank restart of one backup. Same invariants as [`sharded_chaos`]
/// (resolution liveness, outcome agreement, no leaks/dups, intra
/// always commits) — plus the implicit one checked by the determinism
/// regression: the entire outcome is bit-identical per seed despite
/// real threads.
pub fn sharded_parallel_chaos(seed: u64, txs: u64) -> ChaosOutcome {
    use prever_consensus::sharded::ShardProbe;
    use prever_sim::ParallelConfig;

    let topo = Topology { n_shards: 3, replicas_per_shard: 4 };
    let n = topo.n_nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_MIX);

    // One shard drops off the inter-shard fabric mid-run (intra-shard
    // links stay up — the partition is between shards).
    let isolated = (seed % 3) as usize;
    let groups: Vec<usize> =
        (0..n).map(|id| usize::from(topo.shard_of(id) == isolated)).collect();
    let part_at = 60_000 + rng.gen_range(0..120_000u64);
    let part_heal = part_at + 150_000 + rng.gen_range(0..400_000u64);
    // Blank restart of a backup in a different shard than the isolated
    // one, so recovery and partition interact.
    let victim = topo.members((isolated + 1) % topo.n_shards)[1];
    let crash_at = 40_000 + rng.gen_range(0..120_000u64);
    let restart_at = crash_at + 80_000 + rng.gen_range(0..150_000u64);
    let clear_at = part_heal.max(restart_at) + 100_000;

    let drop_rate = rng.gen::<f64>() * 0.02;
    let cfg = ParallelConfig {
        net: NetConfig { drop_rate, ..NetConfig::default() },
        seed,
        ..ParallelConfig::default()
    };
    let mut sim = sharded::parallel_cluster(topo, BatchConfig::default(), cfg);
    sim.set_fault_plan(
        FaultPlan::new()
            .partition_at(part_at, groups)
            .heal_at(part_heal)
            .crash_at(crash_at, victim)
            .restart_with_loss_at(restart_at, victim),
    );
    sim.set_node_factory(move |id| ShardedNode::new(id, topo, Byzantine::Honest));

    // Mixed workload: two thirds intra (round-robin), one third cross
    // (rotating shard pairs, so every pair and every coordinator role
    // is exercised).
    let involved_of = |i: u64| -> Vec<usize> {
        match i % 3 {
            0 => vec![(i / 3 % 3) as usize],
            1 => vec![(i / 3 % 3) as usize],
            _ => {
                let a = (i / 3 % 3) as usize;
                let b = (a + 1) % 3;
                vec![a.min(b), a.max(b)]
            }
        }
    };
    for i in 0..txs {
        let at = 1 + rng.gen_range(0..300_000u64);
        sharded::submit_parallel(&mut sim, topo, tx(i), involved_of(i), at);
    }

    sim.run_until(clear_at);
    // Resubmit once the network is clean (the original fan-out may have
    // died in the partition; resubmission is idempotent).
    for i in 0..txs {
        let at = sim.now() + 10 + i;
        sharded::submit_parallel(&mut sim, topo, tx(i), involved_of(i), at);
    }

    // Resolution liveness via probes (actors stay on their threads):
    // resolved = completed + aborted, and duplicates are impossible, so
    // hitting the per-shard involved count means everything resolved.
    let expect: Vec<usize> = (0..n)
        .map(|id| {
            let shard = topo.shard_of(id);
            (0..txs).filter(|&i| involved_of(i).contains(&shard)).count()
        })
        .collect();
    let live = sim.run_until_probe(sim.now() + 12_000_000, |probes: &[ShardProbe]| {
        (0..n).all(|id| probes[id].completed + probes[id].aborted >= expect[id])
    });

    // Stats first: `into_nodes` consumes the runtime. It keeps no event
    // trace, so a violating run carries the dump alone.
    let stats = sim.stats();
    let owned = sim.into_nodes();
    let nodes: Vec<&ShardedNode> = owned.iter().collect();
    let violations = sharded_invariants(topo, txs, &involved_of, &nodes, live);
    sharded_outcome(Protocol::ShardedParallel, seed, txs, &nodes, victim).finish(
        stats,
        violations,
        || {
            let schedule = format!(
                "isolated={isolated} part_at={part_at} part_heal={part_heal} victim={victim} \
                 crash_at={crash_at} restart_at={restart_at} clear_at={clear_at}"
            );
            sharded_dump(schedule, topo, &nodes)
        },
    )
}

/// Book-keeping shared between the disk handler, the node factory, and
/// the post-run checks in [`pbft_disk_chaos`].
#[derive(Default)]
struct DiskHarness {
    /// `(flushed watermark, total records)` of the victim's log at the
    /// instant the disk fault lands.
    pre_crash: Option<(u64, u64)>,
    /// That log's prefix digests `digest_at(k)` for `k ∈
    /// flushed..=total`, the only sizes a recovery may come back at.
    prefixes: Vec<Option<LedgerDigest>>,
    corruption_applied: bool,
    recovered_frames: u64,
    truncated_bytes: u64,
    detected_corruptions: u64,
    violations: Vec<String>,
}

/// PBFT durability scenario: n = 4, all honest, every replica on
/// fault-injected media with group-committed exec records
/// ([`FlushPolicy::Every`]), under rough links. At a seeded time the
/// victim's disk takes a [`DiskFault`] (torn write, dropped cache, or
/// sector corruption — chosen by seed) together with a process crash;
/// later the victim is rebuilt from whatever its media actually hold.
///
/// Durability invariants checked at recovery:
///
/// * every flushed (acked) record survives: `flushed ≤ recovered ≤ total`;
/// * the recovered journal is a *prefix-consistent* view: its digest
///   equals the pre-crash journal's `digest_at(recovered)`;
/// * applied sector corruption is detected loudly — a log that recovers
///   silently over damaged durable bytes is a violation. On detection
///   the media are wiped (disk swap) and the replica rejoins empty via
///   state transfer.
pub fn pbft_disk_chaos(seed: u64, commands: u64) -> ChaosOutcome {
    const N: usize = 4;
    const VICTIM: usize = 2;
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_MIX);

    let media: Vec<DurableMedia> = (0..N)
        .map(|id| DurableMedia::new(seed.wrapping_mul(31).wrapping_add(id as u64)))
        .collect();
    let nodes: Vec<PbftNode> = (0..N)
        .map(|id| {
            let log = DurableLog::on(&media[id]).with_policy(FlushPolicy::Every(3));
            PbftNode::with_durable(id, N, Byzantine::Honest, log)
        })
        .collect();

    let fault = disk_fault_for(seed);
    let crash_at = 80_000 + rng.gen_range(0..220_000u64);
    let restart_at = crash_at + 80_000 + rng.gen_range(0..220_000u64);
    let heal_at = restart_at + 150_000;
    let plan = rough_links(FaultPlan::new(), N, &mut rng)
        .disk_fault_at(crash_at, VICTIM, fault)
        .crash_at(crash_at, VICTIM)
        .restart_with_loss_at(restart_at, VICTIM)
        .clear_links_at(heal_at);

    let mut sim = Simulation::new(nodes, NetConfig::default(), seed);
    sim.set_fault_plan(plan);

    let harness = Rc::new(RefCell::new(DiskHarness::default()));

    let h = harness.clone();
    let media_h = media.clone();
    sim.set_disk_handler(move |id, node, fault| {
        let log = node.durable_mut().expect("every replica is durable");
        // A quarter of the seeds compact right before the fault, so
        // snapshot-load recovery is exercised inside the sim too.
        let mut st = h.borrow_mut();
        if seed.is_multiple_of(4) {
            if let Err(e) = log.compact() {
                st.violations.push(format!("ledger: replica {id} compaction failed: {e:?}"));
            }
        }
        let (flushed, total) = (log.flushed_records(), log.len() as u64);
        st.pre_crash = Some((flushed, total));
        st.prefixes = (flushed..=total).map(|k| log.digest_at(k).ok()).collect();
        // Every crash powers the disk down; the fault decides what the
        // platter keeps.
        match fault {
            DiskFault::TornWrite => {
                media_h[id].crash();
            }
            DiskFault::DropCache => {
                media_h[id].crash_dropping_cache();
            }
            DiskFault::CorruptSector => {
                st.corruption_applied = media_h[id].corrupt();
                media_h[id].crash_dropping_cache();
            }
        }
    });

    let h = harness.clone();
    sim.set_node_factory(move |id| {
        let mut st = h.borrow_mut();
        let (flushed, total) = st.pre_crash.take().expect("disk fault precedes the restart");
        let prefixes = std::mem::take(&mut st.prefixes);
        let log = match DurableLog::recover(&media[id]) {
            Ok((log, report)) => {
                if st.corruption_applied {
                    st.violations.push(
                        "durability: corrupted media recovered silently".to_string(),
                    );
                }
                st.recovered_frames += report.snapshot_entries + report.frames_replayed;
                st.truncated_bytes += report.truncated_bytes;
                let k = log.len() as u64;
                let pre_at_k = k.checked_sub(flushed).and_then(|i| prefixes.get(i as usize));
                st.violations.extend(check_recovered_prefix(
                    k,
                    (flushed, total),
                    pre_at_k.cloned().flatten(),
                    log.digest().ok(),
                ));
                log
            }
            Err(e) => {
                if st.corruption_applied {
                    // Detected loudly, as required. Model a disk swap:
                    // wipe the media and rejoin empty via state transfer.
                    st.detected_corruptions += 1;
                    media[id].wipe();
                    DurableLog::on(&media[id]).with_policy(FlushPolicy::Every(3))
                } else {
                    st.violations.push(format!(
                        "durability: recovery failed without corruption: {e:?}"
                    ));
                    DurableLog::new()
                }
            }
        };
        PbftNode::recover_with(id, N, Byzantine::Honest, log)
    });
    sim.enable_trace(256);

    let live = drive_pbft(&mut sim, &mut rng, commands, heal_at, &[0, 1, 2, 3]);

    // The run is over, so the sim's closures will not touch the harness
    // again: take what it gathered.
    let st = harness.take();
    let mut violations = st.violations;

    // Safety across all replicas (everyone is honest here), and the
    // committed prefix matches each replica's own durable journal (the
    // victim's is whatever its restart recovered or replaced).
    let cores: Vec<ReplicaCore> = (0..N).map(|i| (i, &sim.node(i).core)).collect();
    let reference = cores[1].1;
    violations.extend(check_agreement(&cores));
    violations.extend((0..N).flat_map(|i| check_journal(i, sim.node(i))));
    if live {
        violations.extend(check_caught_up(cores[VICTIM], reference));
    } else {
        violations.extend(report_unfinished(&cores, commands));
    }

    let mut outcome =
        ChaosOutcome::new(Protocol::PbftDisk, seed, commands).reference(reference, cores[VICTIM].1);
    outcome.recovered_frames = st.recovered_frames;
    outcome.truncated_bytes = st.truncated_bytes;
    outcome.detected_corruptions = st.detected_corruptions;
    outcome.close(&sim, violations, || {
        let schedule = format!(
            "fault={fault:?} corruption_applied={} crash_at={crash_at} restart_at={restart_at} \
             heal_at={heal_at} now={}",
            st.corruption_applied,
            sim.now()
        );
        std::iter::once(schedule).chain(cores.iter().copied().map(core_line)).collect()
    })
}

/// Standalone ledger durability scenario: a [`PersistentJournal`] driven
/// with a seeded append/flush/compact workload, hit with one seeded
/// [`DiskFault`], then recovered. No consensus in the loop — this is the
/// pure storage-layer invariant check: acked writes survive, recovered
/// state is a prefix (`digest_at`), hash chain verifies, corruption is
/// loud, and a post-recovery append survives a second recovery. The
/// oracle is a reference [`Journal`] fed the same appends, never the
/// code under test.
pub fn ledger_disk_chaos(seed: u64, commands: u64) -> ChaosOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_MIX);
    let wal = SharedDisk::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let snap = SharedDisk::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(2));
    let mut pj = PersistentJournal::create(wal.clone(), snap.clone());
    let mut reference = Journal::new();
    let mut violations = Vec::new();

    for i in 0..commands {
        let entry = Bytes::from(format!("entry-{i}-{:016x}", rng.gen::<u64>()));
        pj.append(i * 10, &entry);
        reference.append(i * 10, entry);
        if rng.gen::<f64>() < 0.35 {
            pj.flush();
        }
        if rng.gen::<f64>() < 0.08 {
            if let Err(e) = pj.compact() {
                violations.push(format!("ledger: compaction failed: {e:?}"));
            }
        }
    }
    let flushed = pj.flushed_entries();
    let total = pj.len();

    let fault = disk_fault_for(seed);
    let mut corruption_applied = false;
    match fault {
        DiskFault::TornWrite => {
            wal.crash();
            snap.crash();
        }
        DiskFault::DropCache => {
            wal.crash_dropping_cache();
            snap.crash_dropping_cache();
        }
        DiskFault::CorruptSector => {
            corruption_applied = wal.corrupt_random_flushed_sector();
            wal.crash_dropping_cache();
            snap.crash_dropping_cache();
        }
    }

    let mut outcome = ChaosOutcome::new(Protocol::LedgerDisk, seed, commands);
    match PersistentJournal::recover(wal.clone(), snap.clone()) {
        Ok((mut rec, report)) => {
            if corruption_applied {
                violations.push("durability: corrupted media recovered silently".to_string());
            }
            outcome.recovered_frames = report.snapshot_entries + report.frames_replayed;
            outcome.truncated_bytes = report.truncated_bytes;
            let k = rec.len();
            outcome.executed = k;
            violations.extend(check_recovered_prefix(
                k,
                (flushed, total),
                reference.digest_at(k).ok(),
                rec.digest().ok(),
            ));
            // Read back, the recovered media hold the reference's first
            // `k` entries, hash chain included.
            let mut survivors = Journal::new();
            for e in reference.entries().iter().take(k as usize) {
                survivors.append(e.timestamp, e.payload.clone());
            }
            let mut entries = Vec::new();
            let read = rec.entries(|e| {
                entries.push(e);
                Ok(())
            });
            if read.is_err() || entries != survivors.entries() {
                violations
                    .push("durability: recovered entries are not the pre-crash prefix".to_string());
            }
            outcome.history = entries.iter().map(|e| (e.seq, e.timestamp)).collect();
            // The recovered journal must still be writable — and the new
            // tail must itself survive a crash + second recovery.
            for j in 0..3u64 {
                let entry = Bytes::from(format!("post-{j}"));
                rec.append(1_000_000 + j, &entry);
                survivors.append(1_000_000 + j, entry);
            }
            rec.flush();
            wal.crash_dropping_cache();
            match PersistentJournal::recover(wal.clone(), snap.clone()) {
                Ok((rec2, _)) if rec2.digest().ok() == Some(survivors.digest()) => {}
                _ => violations.push(
                    "durability: post-recovery appends did not survive a second recovery"
                        .to_string(),
                ),
            }
        }
        Err(LedgerError::TamperDetected(_)) if corruption_applied => {
            outcome.detected_corruptions = 1;
        }
        Err(e) => {
            violations.push(format!("durability: recovery failed without corruption: {e:?}"));
        }
    }

    outcome.finish(SimStats::default(), violations, Vec::new)
}

/// Sweeps `seeds` consecutive seeds starting at `first_seed`, handing
/// each outcome to `each` as soon as its run ends (the binary reports a
/// violation there); returns every outcome (violating ones carry their
/// trace tail).
pub fn sweep(
    protocol: Protocol,
    first_seed: u64,
    seeds: u64,
    commands: u64,
    mut each: impl FnMut(&ChaosOutcome),
) -> Vec<ChaosOutcome> {
    (first_seed..first_seed + seeds)
        .map(|seed| {
            prever_obs::counter("chaos.runs").inc();
            let outcome = run_seed(protocol, seed, commands);
            if !outcome.ok() {
                prever_obs::counter("chaos.violations").inc();
            }
            each(&outcome);
            outcome
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_runs_are_bit_identical() {
        // Same (actors, FaultPlan, seed) twice → identical outcomes,
        // including commit histories and sim stats.
        for protocol in Protocol::ALL {
            let a = run_seed(protocol, 424_242, 8);
            let b = run_seed(protocol, 424_242, 8);
            assert_eq!(a, b, "{} chaos run is not deterministic", protocol.name());
        }
    }

    #[test]
    fn chaos_digests_match_the_golden_file() {
        // `chaos_runs_are_bit_identical` compares a build with itself;
        // this compares it with the build that wrote the file (`chaos
        // --digest --seeds 25`). A refactor must leave it untouched; a
        // change that means to alter executions regenerates it and says so.
        let golden = include_str!("../../golden/chaos_digests.txt");
        let mut checked = 0;
        for line in golden.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let [name, seed, commands, digest] = f[..] else { panic!("bad golden line {line:?}") };
            let protocol = Protocol::from_name(name).expect(name);
            let outcome = run_seed(protocol, seed.parse().unwrap(), commands.parse().unwrap());
            let got = outcome.digest().to_hex();
            assert_eq!(got, digest, "{name} seed {seed} diverged from the golden run");
            checked += 1;
        }
        assert_eq!(checked, 25 * Protocol::ALL.len());
    }

    #[test]
    fn a_violating_outcome_carries_its_dump_and_a_clean_one_does_not() {
        // The dump is built only for a run that violated, so a red seed
        // shows its nodes' state without being run again.
        let blank = || ChaosOutcome::new(Protocol::Pbft, 1, 2);
        let dump = || vec!["node 0 view=3".to_string()];
        let clean = blank().finish(SimStats::default(), Vec::new(), dump);
        assert!(clean.ok() && clean.trace_tail.is_empty());
        let red = blank().finish(SimStats::default(), vec!["safety: x".into()], dump);
        assert_eq!(red.trace_tail, ["node 0 view=3"]);
        assert_ne!(red.digest(), clean.digest(), "violation text is part of the digest");
    }

    #[test]
    fn the_readme_lists_the_table_s_protocols() {
        let readme = include_str!("../../../../README.md");
        assert!(readme.contains(&Protocol::names()), "README.md should list {}", Protocol::names());
        for protocol in Protocol::ALL {
            assert_eq!(Protocol::from_name(protocol.name()), Some(protocol));
        }
    }

    /// One row of the smoke table: `seeds` of `protocol` at `commands`
    /// each uphold every invariant, restart the victim with state loss
    /// at least `min_restarts` times and inject `disk_faults` disk faults.
    fn smoke(
        protocol: Protocol,
        seeds: std::ops::Range<u64>,
        commands: u64,
        min_restarts: u64,
        disk_faults: u64,
    ) {
        for seed in seeds {
            let outcome = run_seed(protocol, seed, commands);
            assert!(
                outcome.ok(),
                "{} seed {seed} violated invariants: {:?}\ntrace:\n{}",
                protocol.name(),
                outcome.violations,
                outcome.trace_tail.join("\n")
            );
            assert!(outcome.stats.restarts_with_loss >= min_restarts);
            assert_eq!(outcome.stats.disk_faults, disk_faults);
        }
    }

    /// The smoke table. Each row is its own `#[test]` (the names tier-1
    /// has always listed, and they run in parallel).
    macro_rules! smoke_table {
        ($(
            $test:ident: $protocol:ident, $seeds:expr, $commands:expr, $restarts:expr, $disk:expr;
        )*) => {
            $(#[test]
            fn $test() {
                smoke(Protocol::$protocol, $seeds, $commands, $restarts, $disk);
            })*
        };
    }

    smoke_table! {
        // test: protocol, seeds, commands, min restarts_with_loss, disk_faults
        pbft_chaos_smoke_seeds_are_clean: Pbft, 0..3, 12, 1, 0;
        // Same fault plan, but ordering rounds carry multi-command batches
        // through view changes and the restart-with-loss recovery.
        pbft_batched_chaos_smoke_seeds_are_clean: PbftBatched, 0..3, 12, 1, 0;
        paxos_chaos_smoke_seeds_are_clean: Paxos, 0..2, 10, 0, 0;
        sharded_chaos_smoke_seeds_are_clean: Sharded, 0..2, 9, 0, 0;
        // Seeds 0..3 rotate the isolated shard (seed % 3).
        sharded_parallel_chaos_smoke_seeds_are_clean: ShardedParallel, 0..3, 9, 1, 0;
        // Seeds 0..3 cover all three disk-fault classes (seed % 3).
        pbft_disk_chaos_smoke_seeds_are_clean: PbftDisk, 0..3, 12, 1, 1;
        ledger_disk_chaos_smoke_seeds_are_clean: LedgerDisk, 0..12, 40, 0, 0;
        // Flooding tenant + stalled client + gateway restart-with-loss:
        // acked writes survive, well-behaved tenants finish, the
        // admission queue stays bounded.
        server_overload_chaos_smoke_seeds_are_clean: ServerOverload, 0..3, 10, 1, 0;
        // Seeds 0..4 cover all four fault flavors (seed % 4): long-outage
        // crash, partition, restart-with-loss, and flapping — each with a
        // victim-homed client mid-session.
        gateway_failover_chaos_smoke_seeds_are_clean: GatewayFailover, 0..4, 10, 0, 0;
    }

    #[test]
    fn ledger_disk_corruption_seeds_detect_loudly() {
        // seed % 3 == 2 → CorruptSector; with enough flushed entries the
        // corruption must be applied and detected.
        let outcome = ledger_disk_chaos(2, 60);
        assert!(outcome.ok(), "violations: {:?}", outcome.violations);
        assert_eq!(outcome.detected_corruptions, 1);
    }
}
