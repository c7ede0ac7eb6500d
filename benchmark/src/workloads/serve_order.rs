//! `serve-order`: the write path to "ordered".
//!
//! The harness builds a 4-replica PBFT gateway cluster from the public
//! `ServerPeer` variants: node 0 is the gateway, every replica persists
//! to a `DurableLog` on simulated disks, three closed-loop clients
//! (High / Normal / Low, window 16, no think time) send 8-byte
//! commands over the wire protocol. Cluster, batching, admission and
//! network parameters are pinned below, not taken from defaults.
//!
//! Everything runs inside the single-threaded simulator, so wall time
//! is the CPU the stack burns per command: `ops_per_s` is on the wall
//! clock (each node is wrapped in a [`Probe`] that stamps the wall clock
//! whenever a client sees acks). The latency a user of the served
//! system would see is the simulated one, so this workload's
//! `latency_p50_us` / `latency_p95_us` are first send → ack in
//! **virtual** µs under the pinned 1 ms-RTT network: a function of the
//! seed, the same on every run.

use super::relative_excess;
use crate::gen::round_seed;
use crate::span::Recorder;
use crate::stats::{timed_setup, Timeline};
use crate::{Report, Round, RunCfg};
use prever_consensus::durable::{DurableLog, DurableMedia, FlushPolicy};
use prever_consensus::pbft::{chain_digest, Byzantine, PbftMsg, PbftNode, NOOP_ID};
use prever_consensus::{Batch, BatchConfig, Command};
use prever_server::{
    Action, ClientCfg, ClientPeer, FrontConfig, FrontEnd, Gateway, LoadMode, Replica, ServerMsg,
    ServerPeer,
};
use prever_sim::{Actor, Ctx, NetConfig, NodeId, Simulation};
use prever_storage::{SimDisk, StorageMedium, Wal};
use prever_wire::{Class, Frame};
use std::collections::HashSet;
use std::time::Instant;

const REPLICAS: usize = 4;
const CLASSES: [Class; 3] = [Class::High, Class::Normal, Class::Low];
const CLIENT_WINDOW: usize = 16;
/// Client `i` numbers its commands from `(i + 1) × ID_STRIDE`.
const ID_STRIDE: u64 = 1_000_000_000;
/// Bytes of payload per command (the client sends its id).
const PAYLOAD_BYTES: u64 = 8;
/// Cluster builds per round that `setup_s` is the mean of: one takes
/// half a millisecond.
const SETUP_REPS: usize = 40;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(8, 2_000, 2)
}

/// Admission opened wide: this workload measures the path, not
/// shedding, and `server.shed_frac` must read 0.
fn front_cfg() -> FrontConfig {
    FrontConfig {
        queue_cap: 1024,
        inflight_cap: 64,
        tenant_rate: 1_000_000,
        tenant_burst: 1_000_000,
        ..FrontConfig::default()
    }
}

/// 500 µs one way ± 100 µs, no loss, 2 µs service time per message.
fn net_cfg() -> NetConfig {
    NetConfig {
        base_latency: 500,
        jitter: 100,
        drop_rate: 0.0,
        processing: 2,
    }
}

/// A node of the serving cluster plus what the harness records there.
struct Probe {
    peer: ServerPeer,
    t0: Instant,
    /// Traced run only: keep every frame this node receives.
    capture: bool,
    /// Frames received (gateway: requests; client: responses).
    frames: Vec<Vec<u8>>,
    /// Clients: wall ns at which each commit was acked, in ack order.
    acked_at: Vec<u64>,
}

impl Probe {
    fn new(peer: ServerPeer, t0: Instant, capture: bool) -> Self {
        Probe {
            peer,
            t0,
            capture,
            frames: Vec::new(),
            acked_at: Vec::new(),
        }
    }
}

impl Actor for Probe {
    type Msg = ServerMsg;

    fn on_start(&mut self, ctx: &mut Ctx<ServerMsg>) {
        self.peer.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ServerMsg, ctx: &mut Ctx<ServerMsg>) {
        if self.capture {
            if let ServerMsg::Frame(buf) = &msg {
                self.frames.push(buf.clone());
            }
        }
        self.peer.on_message(from, msg, ctx);
        if let ServerPeer::Client(c) = &self.peer {
            let committed = c.conn.stats().committed as usize;
            if committed > self.acked_at.len() {
                let wall = self.t0.elapsed().as_nanos() as u64;
                self.acked_at.resize(committed, wall);
            }
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<ServerMsg>) {
        self.peer.on_timer(timer, ctx);
    }
}

struct Cluster {
    sim: Simulation<Probe>,
    media: Vec<DurableMedia>,
}

fn durable_log(seed: u64, id: usize) -> (DurableMedia, DurableLog) {
    let media = DurableMedia::new(seed.wrapping_mul(31).wrapping_add(id as u64));
    let log = DurableLog::on(&media).with_policy(FlushPolicy::Every(1));
    (media, log)
}

fn cluster(seed: u64, per_client: u64, capture: bool) -> Cluster {
    let t0 = Instant::now();
    let mut media = Vec::with_capacity(REPLICAS);
    let mut nodes = Vec::with_capacity(REPLICAS + CLASSES.len());
    for id in 0..REPLICAS {
        let (m, log) = durable_log(seed, id);
        media.push(m);
        let peer = if id == 0 {
            ServerPeer::Gateway(Box::new(Gateway::with_durable(
                0,
                REPLICAS,
                front_cfg(),
                batch_cfg(),
                log,
            )))
        } else {
            ServerPeer::Replica(Box::new(Replica::with_durable(
                id,
                REPLICAS,
                batch_cfg(),
                log,
            )))
        };
        nodes.push(Probe::new(peer, t0, capture));
    }
    for (i, class) in CLASSES.iter().enumerate() {
        let cfg = ClientCfg {
            tenant: i as u32 + 1,
            class: *class,
            servers: vec![0],
            mode: LoadMode::Closed {
                window: CLIENT_WINDOW,
                think_us: 0,
            },
            requests: per_client,
            id_base: (i as u64 + 1) * ID_STRIDE,
            seed: seed.wrapping_add(i as u64),
            ..ClientCfg::default()
        };
        nodes.push(Probe::new(
            ServerPeer::Client(Box::new(ClientPeer::new(cfg))),
            t0,
            capture,
        ));
    }
    Cluster {
        sim: Simulation::new(nodes, net_cfg(), seed),
        media,
    }
}

fn clients(sim: &Simulation<Probe>) -> impl Iterator<Item = &Probe> {
    (REPLICAS..REPLICAS + CLASSES.len()).map(|i| sim.node(i))
}

fn all_clients_done(nodes: &[Probe]) -> bool {
    nodes[REPLICAS..]
        .iter()
        .all(|n| n.peer.as_client().is_some_and(|c| c.conn.done()))
}

/// One `run_until_pred` call that drives every client to completion.
struct Drive {
    /// When the call began, on the probes' clock.
    began_ns: u64,
    wall_s: f64,
    done: bool,
}

fn drive(cluster: &mut Cluster, total: u64) -> Drive {
    let began_ns = cluster.sim.node(0).t0.elapsed().as_nanos() as u64;
    let began = Instant::now();
    let done = cluster
        .sim
        .run_until_pred(total * 400 + 1_000_000, all_clients_done);
    Drive {
        began_ns,
        wall_s: began.elapsed().as_secs_f64(),
        done,
    }
}

/// Every acked id executed, and nothing executed twice.
fn exactly_once(acked: &HashSet<u64>, executed: &[u64]) -> bool {
    let distinct: HashSet<u64> = executed.iter().copied().collect();
    distinct.len() == executed.len() && acked.iter().all(|id| distinct.contains(id))
}

/// The ids a crashed disk still yields: drop the write-back cache,
/// recover, verify the chain, replay.
fn ids_after_crash(media: &DurableMedia) -> Result<HashSet<u64>, String> {
    media.crash_dropping_cache();
    let (log, _report) = DurableLog::recover(media).map_err(|e| e.to_string())?;
    let replayed = log.replay().map_err(|e| e.to_string())?;
    Ok(replayed
        .entries
        .iter()
        .flat_map(|(_, batch, _)| batch.commands().iter().map(|c| c.id))
        .collect())
}

/// The oracles of one finished run.
fn check(cluster: &mut Cluster, per_client: u64, done: bool, report: &mut Report) {
    report.require(done, "clients did not finish");
    // The predicate stops the simulator the instant the last ack lands;
    // let in-flight commits and checkpoint votes reach the backups.
    let drain_until = cluster.sim.now() + 200_000;
    cluster.sim.run_until(drain_until);

    let mut acked: HashSet<u64> = HashSet::new();
    for probe in clients(&cluster.sim) {
        let conn = &probe.peer.as_client().expect("client node").conn;
        let stats = conn.stats();
        report.failed += stats.gave_up + (per_client - stats.committed.min(per_client));
        report.require(
            conn.done() && stats.gave_up == 0,
            "a client gave up or did not finish",
        );
        acked.extend(conn.acked_ids());
    }
    report.require(
        acked.len() as u64 == per_client * CLASSES.len() as u64,
        "acked ids differ from requests sent",
    );

    let cores: Vec<_> = (0..REPLICAS)
        .map(|i| cluster.sim.node(i).peer.core().expect("replica"))
        .collect();
    let executed: Vec<u64> = cores[0]
        .executed()
        .iter()
        .map(|d| d.command.id)
        .filter(|&id| id != NOOP_ID)
        .collect();
    report.require(
        exactly_once(&acked, &executed),
        "an acked command is missing or executed twice",
    );
    let digest = cores[0].state_digest();
    report.require(
        cores.iter().all(|c| c.state_digest() == digest),
        "replicas disagree on the state digest",
    );
    report.require(
        cores.iter().all(|c| c.view() == 0),
        "a view change happened on a healthy cluster",
    );

    // Negative controls on doctored data: a duplicate and a hole.
    let mut twice = executed.clone();
    twice.extend(executed.first().copied());
    let hole: Vec<u64> = executed.iter().skip(1).copied().collect();
    report.require(
        !exactly_once(&acked, &twice) && !exactly_once(&acked, &hole),
        "negative control: a duplicate or a missing command went unnoticed",
    );
    report.require(
        chain_digest(digest, &Command::new(0, Vec::new())) != digest,
        "negative control: a longer history has the same digest",
    );

    // Durability: the gateway acked these commands, so its disk must
    // still yield them once everything unflushed is gone.
    match ids_after_crash(&cluster.media[0]) {
        Ok(ids) => report.require(
            acked.is_subset(&ids),
            "an acked command did not survive the gateway's crash",
        ),
        Err(e) => report.broke(format!("gateway recovery failed: {e}")),
    }
    // Negative control: a wiped disk must not pass the same check.
    cluster.media[REPLICAS - 1].wipe();
    let survived =
        ids_after_crash(&cluster.media[REPLICAS - 1]).is_ok_and(|ids| acked.is_subset(&ids));
    report.require(
        !survived,
        "negative control: a wiped disk still yielded every acked command",
    );
}

/// One timeline over all clients: completion on the wall clock (for
/// throughput), latency on the virtual one (what the client measured,
/// first send → ack).
fn timeline_of(sim: &Simulation<Probe>, began_ns: u64, total: usize) -> Timeline {
    let mut timeline = Timeline::start(total);
    for probe in clients(sim) {
        let stats = probe.peer.as_client().expect("client node").conn.stats();
        for (&acked, &virtual_us) in probe.acked_at.iter().zip(&stats.latencies_us) {
            timeline.push(acked.saturating_sub(began_ns), virtual_us * 1_000);
        }
    }
    timeline
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, ops: usize) -> Report {
    let per_client = (ops / CLASSES.len()).max(1) as u64;
    let total = per_client * CLASSES.len() as u64;
    let mut report = Report::default();

    // Untraced rounds: a fresh cluster each, seeded per round.
    let mut rounds = Vec::with_capacity(cfg.rounds());
    let mut last = None;
    for r in 0..cfg.rounds() {
        // One cluster at a time: the last round's is kept for the
        // traced run, not while the next round's is built.
        drop(last.take());
        let seed = round_seed(cfg.seed, r);
        let (mut plain, setup_s) = timed_setup(SETUP_REPS, || cluster(seed, per_client, false));
        let plain_run = drive(&mut plain, total);
        let timeline = timeline_of(&plain.sim, plain_run.began_ns, total as usize);
        report.attempted += total;
        check(&mut plain, per_client, plain_run.done, &mut report);
        report.require(
            timeline.ops() as u64 == total,
            "wall stamps differ from requests sent",
        );
        rounds.push(Round { setup_s, timeline });
        last = Some((seed, plain, plain_run));
    }
    if !cfg.trace {
        report.set_end_to_end(&rounds);
        return report;
    }
    let (seed, plain, plain_run) = last.expect("a run has at least one round");
    let plain_digest = plain.sim.node(0).peer.core().map(|c| c.state_digest());

    // Traced run: the last round again, every frame captured; then the
    // layers are replayed one at a time on what was captured.
    let mut traced = cluster(seed, per_client, true);
    let mut rec = Recorder::new();
    rec.enter("sim.run_until_pred");
    let traced_run = drive(&mut traced, total);
    rec.exit();
    report.attempted += total;
    let stats = traced.sim.stats();
    check(&mut traced, per_client, traced_run.done, &mut report);
    report.require(
        traced.sim.node(0).peer.core().map(|c| c.state_digest()) == plain_digest,
        "the traced run ended at another state digest",
    );
    replay_layers(
        seed,
        &traced,
        stats,
        total,
        traced_run.wall_s,
        &mut rec,
        &mut report,
    );
    report.set(
        "bench.trace_overhead_frac",
        relative_excess(plain_run.wall_s, traced_run.wall_s),
    );
    report.spans = Some(rec);
    // The last untraced cluster is kept alive up to here on purpose: a
    // third of this workload's CPU is the kernel handing out fresh
    // pages, and a traced run that recycled that cluster's freed memory
    // would come out faster than the untraced one.
    drop(plain);
    report
}

/// Counts from public getters plus isolated replays of each layer on
/// the captured frames and batches. Each replay becomes a child span
/// of the root; what they do not explain is printed, not hidden.
fn replay_layers(
    seed: u64,
    traced: &Cluster,
    stats: prever_sim::SimStats,
    total: u64,
    root_wall_s: f64,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let sim = &traced.sim;
    let cmds = total as f64;
    let gateway = sim
        .node(0)
        .peer
        .as_gateway()
        .expect("node 0 is the gateway");
    let requests: &[Vec<u8>] = &sim.node(0).frames;
    let responses: Vec<&Vec<u8>> = clients(sim).flat_map(|p| p.frames.iter()).collect();
    let batches: Vec<&Batch> = gateway
        .adapter
        .core
        .executed_batches()
        .iter()
        .map(|(_, b, _)| b)
        .filter(|b| b.commands().iter().any(|c| c.id != NOOP_ID))
        .collect();

    // Counts.
    let front = gateway.front.stats();
    let shed = front.shed_overload + front.shed_deadline + front.shed_low_priority;
    report.set(
        "server.shed_frac",
        shed as f64 / (front.admitted + shed).max(1) as f64,
    );
    report.set("server.queue_depth_max", front.max_queue_depth as f64);
    let retries: u64 = clients(sim)
        .map(|p| {
            p.peer
                .as_client()
                .expect("client node")
                .conn
                .stats()
                .retries
        })
        .sum();
    report.set("server.retries_per_cmd", retries as f64 / cmds);
    let sent: u64 = (0..REPLICAS)
        .filter_map(|i| sim.node(i).peer.core())
        .map(|c| c.msg_stats().total_sent())
        .sum();
    report.set("consensus.msgs_per_cmd", sent as f64 / cmds);
    report.set(
        "consensus.batch_size_mean",
        cmds / batches.len().max(1) as f64,
    );
    report.set("consensus.view_changes", gateway.adapter.core.view() as f64);
    let wal = traced.media[0].wal.stats();
    report.set(
        "consensus.wal_flushes_per_batch",
        wal.flushes as f64 / batches.len().max(1) as f64,
    );
    report.set(
        "consensus.wal_bytes_per_cmd",
        wal.bytes_appended as f64 / cmds,
    );
    report.set(
        "storage.wal_bytes_per_user_byte",
        wal.bytes_appended as f64 / (cmds * PAYLOAD_BYTES as f64),
    );
    let events = stats.messages_delivered + stats.timers_fired;
    report.set("sim.events_per_cmd", events as f64 / cmds);
    let wire_bytes: usize = requests.iter().map(Vec::len).sum::<usize>()
        + responses.iter().map(|f| f.len()).sum::<usize>();
    report.set("wire.bytes_per_cmd", wire_bytes as f64 / cmds);

    // wire: decode every captured frame, then encode it again.
    let t = Instant::now();
    let decoded: Vec<Frame> = requests
        .iter()
        .chain(responses.iter().copied())
        .filter_map(|buf| Frame::decode(buf).ok().map(|(f, _)| f))
        .collect();
    let decode_ns = t.elapsed().as_nanos() as f64 / decoded.len().max(1) as f64;
    report.require(
        decoded.len() == requests.len() + responses.len(),
        "a captured frame failed to decode",
    );
    let t = Instant::now();
    for frame in &decoded {
        std::hint::black_box(frame.encode());
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / decoded.len().max(1) as f64;
    drop(decoded);
    report.set("wire.decode_ns_per_frame", decode_ns);
    report.set("wire.encode_ns_per_frame", encode_ns);

    // server: a fresh front end fed the captured requests, each
    // submission committed at once so the window never fills.
    let mut front_end = FrontEnd::new(0, front_cfg());
    let mut slot = 0u64;
    let t = Instant::now();
    for (i, buf) in requests.iter().enumerate() {
        let now = i as u64 * 10;
        let mut actions = front_end.handle_frame(REPLICAS, buf, now);
        actions.extend(front_end.pump(now));
        for action in actions {
            if let Action::Submit { id, .. } = action {
                slot += 1;
                std::hint::black_box(front_end.on_committed(id, slot, now));
            }
        }
    }
    let admit_ns = t.elapsed().as_nanos() as f64 / requests.len().max(1) as f64;
    report.require(
        slot == total,
        "the admission replay admitted another number of commands",
    );
    report.set("server.admit_ns_per_req", admit_ns);

    // consensus: a bare PBFT cluster ordering the captured batches.
    let order = replay_order(seed, &batches);
    report.require(
        order.commands == total,
        "the ordering replay executed another number of commands",
    );
    report.set("consensus.order_ns_per_cmd", order.wall_ns / cmds);

    // consensus: the batch digests alone (SHA-256 per command + Merkle).
    let fresh: Vec<Vec<Command>> = batches
        .iter()
        .map(|b| {
            b.commands()
                .iter()
                .map(|c| Command::new(c.id, c.payload.clone()))
                .collect()
        })
        .collect();
    let t = Instant::now();
    for commands in fresh {
        std::hint::black_box(Batch::new(commands));
    }
    let digest_ns = t.elapsed().as_nanos() as f64;
    report.set("consensus.batch_digest_ns_per_cmd", digest_ns / cmds);

    // storage: replica 0's WAL traffic on a bare `Wal`.
    let (append_ns, flush_ns) = replay_wal(seed, wal.appends / 2, wal.bytes_appended, wal.flushes);
    report.set("storage.wal_append_ns_per_frame", append_ns);
    report.set("storage.wal_flush_ns", flush_ns);

    // sim: what one event costs when the actors do nothing.
    let events_per_s = null_events_per_s(seed, events.min(2_000_000));
    report.set("sim.events_per_s", events_per_s);

    // Attribution. The client encodes a request and decodes a response,
    // the gateway encodes a response; its decode of the request is part
    // of the admission replay. Events the ordering replay did not
    // process (frames, client timers) are charged at the null-event
    // cost.
    let root = 0;
    let root_ns = root_wall_s * 1e9;
    let wire_ns =
        (requests.len() + responses.len()) as f64 * encode_ns + responses.len() as f64 * decode_ns;
    let admit_total_ns = admit_ns * requests.len() as f64;
    let other_events = events.saturating_sub(order.events);
    let sim_ns = other_events as f64 / events_per_s * 1e9;
    let mut at = rec.spans()[root].start_ns;
    for (name, ns) in [
        ("wire.codec", wire_ns),
        ("server.admit", admit_total_ns),
        ("sim.dispatch", sim_ns),
    ] {
        rec.record_at(Some(root), name, at, ns as u64);
        at += ns as u64;
    }
    let order_span = rec.record_at(Some(root), "consensus.order", at, order.wall_ns as u64);
    let wal_frames = (wal.appends / 2) as f64 * REPLICAS as f64;
    let wal_flushes = wal.flushes as f64 * REPLICAS as f64;
    for (name, ns) in [
        ("consensus.batch_digest", digest_ns),
        ("storage.wal_append", append_ns * wal_frames),
        ("storage.wal_flush", flush_ns * wal_flushes),
    ] {
        rec.record_at(Some(order_span), name, at, ns as u64);
        at += ns as u64;
    }
    let explained = wire_ns + admit_total_ns + sim_ns + order.wall_ns;
    report.set(
        "bench.serve_unattributed_frac",
        (root_ns - explained) / root_ns,
    );
}

struct OrderReplay {
    wall_ns: f64,
    commands: u64,
    events: u64,
}

/// A bare 4-replica `PbftNode` cluster, same batching, network and
/// durable logs, ordering the captured batches. Batches are injected
/// `max_delay + 1` µs apart so a partial batch is cut by its timer
/// before the next arrives and the cuts match the captured ones.
fn replay_order(seed: u64, batches: &[&Batch]) -> OrderReplay {
    let nodes: Vec<PbftNode> = (0..REPLICAS)
        .map(|id| {
            let (_media, log) = durable_log(seed ^ 0x5eed, id);
            PbftNode::with_durable(id, REPLICAS, Byzantine::Honest, log).with_batching(batch_cfg())
        })
        .collect();
    let mut sim = Simulation::new(nodes, net_cfg(), seed);
    let gap = batch_cfg().max_delay + 1;
    let mut commands = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        let fresh: Vec<Command> = batch
            .commands()
            .iter()
            .map(|c| Command::new(c.id, c.payload.clone()))
            .collect();
        commands += fresh.len() as u64;
        sim.inject(
            0,
            0,
            PbftMsg::Request(Batch::new(fresh)),
            1 + i as u64 * gap,
        );
    }
    let want = commands as usize;
    let began = Instant::now();
    sim.run_until_pred(commands * 400 + 1_000_000, |nodes| {
        nodes[0].core.executed().len() >= want
    });
    let wall_ns = began.elapsed().as_nanos() as f64;
    let stats = sim.stats();
    let executed = sim
        .node(0)
        .core
        .executed()
        .iter()
        .filter(|d| d.command.id != NOOP_ID)
        .count() as u64;
    OrderReplay {
        wall_ns,
        commands: executed,
        events: stats.messages_delivered + stats.timers_fired,
    }
}

/// Mean ns per `Wal::append` and per `Wal::flush` for `frames` frames
/// of the mean captured size and `flushes` evenly spread barriers. Each
/// call is timed on its own, so both figures include one clock read.
fn replay_wal(seed: u64, frames: u64, bytes: u64, flushes: u64) -> (f64, f64) {
    if frames == 0 {
        return (0.0, 0.0);
    }
    let payload_len = (bytes / frames).saturating_sub(prever_storage::wal::FRAME_HEADER) as usize;
    let payload = vec![0xA5u8; payload_len];
    let mut wal = Wal::create(SimDisk::new(seed), 0);
    let (mut append_ns, mut flush_ns, mut flushed) = (0u64, 0u64, 0u64);
    for i in 0..frames {
        let t = Instant::now();
        wal.append(&payload);
        append_ns += t.elapsed().as_nanos() as u64;
        if (i + 1) * flushes / frames > flushed {
            flushed += 1;
            let t = Instant::now();
            wal.flush();
            flush_ns += t.elapsed().as_nanos() as u64;
        }
    }
    std::hint::black_box(wal.medium().len());
    (
        append_ns as f64 / frames as f64,
        flush_ns as f64 / flushed.max(1) as f64,
    )
}

/// An actor that answers every message and does nothing else.
struct Echo;

impl Actor for Echo {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<()>) {
        // 32 chains to every other node: about 1 300 messages in flight,
        // the order of the serving run's event queue.
        let me = ctx.id();
        for to in (0..ctx.n_nodes()).filter(|&to| to != me) {
            for _ in 0..32 {
                ctx.send(to, ());
            }
        }
    }

    fn on_message(&mut self, from: NodeId, _msg: (), ctx: &mut Ctx<()>) {
        ctx.send(from, ());
    }
}

fn null_events_per_s(seed: u64, events: u64) -> f64 {
    let nodes: Vec<Echo> = (0..REPLICAS + CLASSES.len()).map(|_| Echo).collect();
    let mut sim = Simulation::new(nodes, net_cfg(), seed);
    let mut seen = 0u64;
    let began = Instant::now();
    sim.run_until_pred(events, |_| {
        seen += 1;
        false
    });
    seen.max(1) as f64 / began.elapsed().as_secs_f64()
}
