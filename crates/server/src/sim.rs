//! Simulator wiring: gateways (front end + consensus replica), peer
//! replicas, and client connections, all speaking one message type so a
//! single deterministic [`prever_sim::Simulation`] hosts the full
//! serving stack.
//!
//! Two topologies (DESIGN.md §14–15):
//!
//! * [`server_cluster`] — node 0 is the **gateway** (a full consensus
//!   member that also runs the [`FrontEnd`]); nodes `1..n_replicas`
//!   are plain replicas. Clients talk to the gateway exclusively.
//! * [`multi_gateway_cluster`] — **every** replica runs a gateway, so
//!   clients can fail over between them and serve reads from any of
//!   them. Tenant quotas travel as consensus commands
//!   ([`crate::quota`]) so all gateways converge on the same admission
//!   configuration.
//!
//! In both, clients speak encoded [`prever_wire`] frames only (clients
//! never see consensus messages, and a hostile client frame can never
//! reach the replication layer un-decoded).

use prever_consensus::durable::DurableLog;
use prever_consensus::pbft::{
    Byzantine, Executed, PbftCore, PbftMsg, PbftNode, FIRST_FREE_TIMER, NOOP_ID,
};
use prever_consensus::{BatchConfig, Command};
use prever_sim::{Actor, Ctx, NodeId};
use prever_wire::{Frame, Request, Response};

use crate::client::{ClientAction, ClientCfg, ClientConn};
use crate::frontend::{Action, FrontConfig, FrontEnd};
use crate::quota::{is_quota_id, QuotaUpdate};

/// The one message type every node in a serving cluster speaks.
#[derive(Clone, Debug)]
pub enum ServerMsg {
    /// Replica-to-replica consensus traffic.
    Pbft(PbftMsg),
    /// An encoded wire frame (client↔gateway).
    Frame(Vec<u8>),
    /// An operator quota change handed to a gateway (e.g. via
    /// `Simulation::inject`). The gateway turns it into a consensus
    /// command so every other gateway applies it in the same order.
    Quota {
        /// The quota change.
        update: QuotaUpdate,
        /// Distinct per update: the consensus command id is derived
        /// from it, and consensus dedups by id.
        nonce: u64,
    },
}

impl From<PbftMsg> for ServerMsg {
    fn from(msg: PbftMsg) -> Self {
        ServerMsg::Pbft(msg)
    }
}

/// Gateway-only: periodic deadline sweep + pump + cache eviction. The
/// embedded [`PbftNode`] owns every id below this one.
const TIMER_FRONT: u64 = FIRST_FREE_TIMER;
/// Gateway front-end housekeeping period.
const FRONT_EVERY: u64 = 10_000;

/// A consensus member that also runs the serving front end. In
/// [`server_cluster`] only node 0 is one; in [`multi_gateway_cluster`]
/// every replica is. It learns what executed from the [`Executed`]
/// report of each step of its replica host, and nowhere else.
#[derive(Debug)]
pub struct Gateway {
    /// The embedded consensus replica host.
    pub adapter: PbftNode,
    /// The admission-control front end.
    pub front: FrontEnd,
}

impl Gateway {
    /// A gateway around the replica host `adapter`, with an empty front
    /// end.
    fn around(adapter: PbftNode, front: FrontConfig) -> Self {
        let front = FrontEnd::new(adapter.core.id() as u64, front);
        Gateway { adapter, front }
    }

    /// Fresh gateway at node `id` of an `n`-replica cluster.
    pub fn new(id: NodeId, n: usize, front: FrontConfig, batch: BatchConfig) -> Self {
        Self::around(PbftNode::new(id, n, Byzantine::Honest).with_batching(batch), front)
    }

    /// Fresh gateway persisting to `log`.
    pub fn with_durable(
        id: NodeId,
        n: usize,
        front: FrontConfig,
        batch: BatchConfig,
        log: DurableLog,
    ) -> Self {
        let adapter = PbftNode::with_durable(id, n, Byzantine::Honest, log).with_batching(batch);
        Self::around(adapter, front)
    }

    /// Gateway rebuilt from a surviving durable log after a crash. The
    /// front end starts empty (queued-but-unacked requests die with
    /// the process — clients retry them). On start the replica host
    /// reports the recovered history, and [`Self::ack`] consumes it as it
    /// consumes live executions: with nothing in flight, client
    /// commands only reseed the committed map, so resubmissions of
    /// durable commands are acked, not re-ordered, and quota commands
    /// are re-applied, or this gateway would admit with stale buckets.
    pub fn recover_with(
        id: NodeId,
        n: usize,
        front: FrontConfig,
        batch: BatchConfig,
        log: DurableLog,
    ) -> Self {
        let adapter = PbftNode::recover_with(id, n, Byzantine::Honest, log).with_batching(batch);
        Self::around(adapter, front)
    }

    fn process(&mut self, actions: Vec<Action>, ctx: &mut Ctx<ServerMsg>) {
        for a in actions {
            match a {
                Action::Reply(to, resp) => {
                    ctx.send(to, ServerMsg::Frame(Frame::Response(resp).encode()));
                }
                Action::Submit { id, payload, urgent } => {
                    // A resubmission of a command so old its
                    // committed-map entry was evicted still reaches
                    // here (admission no longer remembers it). The
                    // consensus layer does: ack it from execution
                    // state instead of submitting a no-op duplicate —
                    // otherwise consensus would silently dedup it and
                    // the client would never get its ack.
                    if self.adapter.core.has_executed(id) {
                        if let Some(slot) = self.adapter.core.slot_of(id) {
                            if let Some((to, resp)) = self.front.on_committed(id, slot, ctx.now())
                            {
                                ctx.send(
                                    to,
                                    ServerMsg::Frame(Frame::Response(resp).encode()),
                                );
                            }
                            continue;
                        }
                    }
                    self.adapter.submit(Command::new(id, payload), urgent, ctx);
                }
            }
        }
    }

    /// Acks every command one host step executed and applies its
    /// consensus-carried quota updates, in execution order, then stamps
    /// the front end with the replica's ledger position and hash-chain
    /// digest (what `ReadFreshResult` carries).
    fn ack(&mut self, executed: Executed, ctx: &mut Ctx<ServerMsg>) {
        let now = ctx.now();
        let mut any_new = false;
        for (slot, command) in executed.commands() {
            if command.id == NOOP_ID {
                continue;
            }
            any_new = true;
            if is_quota_id(command.id) {
                // A reserved-space command whose payload fails the magic
                // check is never acked to clients and never applied.
                if let Some(q) = QuotaUpdate::decode(&command.payload) {
                    self.front.apply_quota(q);
                }
                continue;
            }
            if let Some((to, resp)) = self.front.on_committed(command.id, slot, now) {
                ctx.send(to, ServerMsg::Frame(Frame::Response(resp).encode()));
            }
        }
        if any_new {
            let core = &self.adapter.core;
            self.front.note_applied(core.executed().len() as u64, *core.state_digest().as_bytes());
        }
    }

    /// Refills the inflight window from the queue.
    fn pump(&mut self, ctx: &mut Ctx<ServerMsg>) {
        let actions = self.front.pump(ctx.now());
        self.process(actions, ctx);
    }

    fn on_frame(&mut self, from: NodeId, buf: Vec<u8>, ctx: &mut Ctx<ServerMsg>) {
        // Audit digests come from replica state the sans-IO front end
        // cannot see; answer them here.
        if let Ok((Frame::Request(Request::AuditDigest { .. }), _)) = Frame::decode(&buf) {
            let digest = *self.adapter.core.state_digest().as_bytes();
            ctx.send(from, ServerMsg::Frame(Frame::Response(Response::AuditDigest { digest }).encode()));
            return;
        }
        let actions = self.front.handle_frame(from, &buf, ctx.now());
        self.process(actions, ctx);
        self.pump(ctx);
    }

    fn on_quota(&mut self, update: QuotaUpdate, nonce: u64, ctx: &mut Ctx<ServerMsg>) {
        let id = QuotaUpdate::command_id(nonce);
        self.adapter.submit(Command::new(id, update.encode()), true, ctx);
    }
}

/// Plain consensus replicas (no front end; [`server_cluster`] only).
#[derive(Debug)]
pub struct Replica {
    /// The consensus replica host.
    pub adapter: PbftNode,
}

impl Replica {
    /// Fresh replica `id` of `n`.
    pub fn new(id: NodeId, n: usize, batch: BatchConfig) -> Self {
        Replica { adapter: PbftNode::new(id, n, Byzantine::Honest).with_batching(batch) }
    }

    /// Fresh replica persisting to `log`.
    pub fn with_durable(id: NodeId, n: usize, batch: BatchConfig, log: DurableLog) -> Self {
        let adapter = PbftNode::with_durable(id, n, Byzantine::Honest, log).with_batching(batch);
        Replica { adapter }
    }

    /// Replica rebuilt from a surviving durable log.
    pub fn recover_with(id: NodeId, n: usize, batch: BatchConfig, log: DurableLog) -> Self {
        let adapter = PbftNode::recover_with(id, n, Byzantine::Honest, log).with_batching(batch);
        Replica { adapter }
    }
}

/// Nodes `≥ n`: one simulated client connection.
#[derive(Clone, Debug)]
pub struct ClientPeer {
    /// The sans-IO client core.
    pub conn: ClientConn,
}

impl ClientPeer {
    /// A client that talks to the gateways named in `cfg.servers`.
    pub fn new(cfg: ClientCfg) -> Self {
        ClientPeer { conn: ClientConn::new(cfg) }
    }

    fn process(&mut self, actions: Vec<ClientAction>, ctx: &mut Ctx<ServerMsg>) {
        for a in actions {
            match a {
                ClientAction::Send(to, buf) => ctx.send(to, ServerMsg::Frame(buf)),
                ClientAction::Timer(delay, id) => ctx.set_timer(delay.max(1), id),
            }
        }
    }
}

/// One node of a serving cluster (gateway, replica, or client).
///
/// Boxed: the variants differ in size by an order of magnitude and the
/// simulator stores one per node.
#[derive(Debug)]
pub enum ServerPeer {
    /// A consensus member with a front end.
    Gateway(Box<Gateway>),
    /// A consensus member without one.
    Replica(Box<Replica>),
    /// Nodes `≥ n_replicas`.
    Client(Box<ClientPeer>),
}

// Every actor hosted on the simulator must be `Send`: the shard-per-
// thread runtime ships replica groups to worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ServerPeer>();
};

impl ServerPeer {
    /// This peer as a gateway, if it is one.
    pub fn as_gateway(&self) -> Option<&Gateway> {
        match self {
            ServerPeer::Gateway(g) => Some(g),
            _ => None,
        }
    }

    /// This peer as a replica, if it is one.
    pub fn as_replica(&self) -> Option<&Replica> {
        match self {
            ServerPeer::Replica(r) => Some(r),
            _ => None,
        }
    }

    /// This peer as a client, if it is one.
    pub fn as_client(&self) -> Option<&ClientPeer> {
        match self {
            ServerPeer::Client(c) => Some(c),
            _ => None,
        }
    }

    /// The replica host behind this peer, if it has one.
    pub fn host(&self) -> Option<&PbftNode> {
        match self {
            ServerPeer::Gateway(g) => Some(&g.adapter),
            ServerPeer::Replica(r) => Some(&r.adapter),
            ServerPeer::Client(_) => None,
        }
    }

    /// The consensus core behind this peer, if it has one.
    pub fn core(&self) -> Option<&PbftCore> {
        self.host().map(|host| &host.core)
    }
}

impl Actor for ServerPeer {
    type Msg = ServerMsg;

    fn on_start(&mut self, ctx: &mut Ctx<ServerMsg>) {
        match self {
            ServerPeer::Gateway(g) => {
                let executed = g.adapter.start(ctx);
                g.ack(executed, ctx);
                ctx.set_timer(FRONT_EVERY, TIMER_FRONT);
            }
            ServerPeer::Replica(r) => {
                let _ = r.adapter.start(ctx);
            }
            ServerPeer::Client(c) => {
                let now = ctx.now();
                let actions = c.conn.on_start(now);
                c.process(actions, ctx);
            }
        }
    }

    /// Consensus traffic reports the wrapped [`PbftMsg::kind`]; a frame
    /// is a client's request at a gateway and a gateway's response at a
    /// client.
    fn kind(&self, msg: &ServerMsg) -> &'static str {
        match (self, msg) {
            (_, ServerMsg::Pbft(m)) => m.kind(),
            (ServerPeer::Client(_), ServerMsg::Frame(_)) => "response_frame",
            (_, ServerMsg::Frame(_)) => "request_frame",
            (_, ServerMsg::Quota { .. }) => "quota",
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ServerMsg, ctx: &mut Ctx<ServerMsg>) {
        match (self, msg) {
            (ServerPeer::Gateway(g), ServerMsg::Frame(buf)) => g.on_frame(from, buf, ctx),
            (ServerPeer::Gateway(g), ServerMsg::Pbft(m)) => {
                let executed = g.adapter.deliver(from, m, ctx);
                g.ack(executed, ctx);
                g.pump(ctx);
            }
            (ServerPeer::Gateway(g), ServerMsg::Quota { update, nonce }) => {
                g.on_quota(update, nonce, ctx);
            }
            (ServerPeer::Replica(r), ServerMsg::Pbft(m)) => {
                let _ = r.adapter.deliver(from, m, ctx);
            }
            (ServerPeer::Client(c), ServerMsg::Frame(buf)) => {
                let now = ctx.now();
                let actions = c.conn.on_frame(&buf, now);
                c.process(actions, ctx);
            }
            // A frame at a replica or consensus traffic at a client is
            // topology-impossible; dropping it keeps a confused or
            // hostile sender from crashing the receiver.
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<ServerMsg>) {
        match self {
            ServerPeer::Gateway(g) => {
                if timer == TIMER_FRONT {
                    let now = ctx.now();
                    let actions = g.front.sweep_deadlines(now);
                    g.process(actions, ctx);
                    // Bound the committed map: evict below the
                    // checkpoint floor (the cluster-wide horizon no
                    // well-behaved retry can still be below).
                    let floor = g.adapter.core.stable_slot_floor();
                    g.front.evict_committed_below(floor);
                    g.pump(ctx);
                    ctx.set_timer(FRONT_EVERY, TIMER_FRONT);
                } else {
                    let executed = g.adapter.timer(timer, ctx);
                    g.ack(executed, ctx);
                    g.pump(ctx);
                }
            }
            ServerPeer::Replica(r) => {
                let _ = r.adapter.timer(timer, ctx);
            }
            ServerPeer::Client(c) => {
                let now = ctx.now();
                let actions = c.conn.on_timer(timer, now);
                c.process(actions, ctx);
            }
        }
    }
}

/// Builds a non-durable serving cluster: gateway at node 0,
/// `n_replicas - 1` peer replicas, then one node per client config (in
/// order, at ids `n_replicas..`). Client `servers` lists are forced to
/// the single gateway.
pub fn server_cluster(
    n_replicas: usize,
    front: FrontConfig,
    batch: BatchConfig,
    clients: &[ClientCfg],
) -> Vec<ServerPeer> {
    let mut nodes = Vec::with_capacity(n_replicas + clients.len());
    nodes.push(ServerPeer::Gateway(Box::new(Gateway::new(0, n_replicas, front, batch))));
    for id in 1..n_replicas {
        nodes.push(ServerPeer::Replica(Box::new(Replica::new(id, n_replicas, batch))));
    }
    for cfg in clients {
        let cfg = ClientCfg { servers: vec![0], ..cfg.clone() };
        nodes.push(ServerPeer::Client(Box::new(ClientPeer::new(cfg))));
    }
    nodes
}

/// Builds a gateway-per-replica cluster: every node `0..n_replicas` is
/// a [`Gateway`], then one node per client config. A client cfg with
/// an empty `servers` list is given all gateways (rotated by client
/// index so initial load spreads instead of piling on gateway 0).
pub fn multi_gateway_cluster(
    n_replicas: usize,
    front: FrontConfig,
    batch: BatchConfig,
    clients: &[ClientCfg],
) -> Vec<ServerPeer> {
    let mut nodes = Vec::with_capacity(n_replicas + clients.len());
    for id in 0..n_replicas {
        nodes.push(ServerPeer::Gateway(Box::new(Gateway::new(id, n_replicas, front, batch))));
    }
    for (i, cfg) in clients.iter().enumerate() {
        let mut cfg = cfg.clone();
        if cfg.servers.is_empty() {
            cfg.servers = (0..n_replicas).map(|k| (k + i) % n_replicas).collect();
        }
        nodes.push(ServerPeer::Client(Box::new(ClientPeer::new(cfg))));
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use prever_sim::{FaultPlan, NetConfig, Simulation};
    use prever_wire::Class;

    fn all_clients_done(nodes: &[ServerPeer]) -> bool {
        nodes.iter().filter_map(|n| n.as_client()).all(|c| c.conn.done())
    }

    #[test]
    fn each_serving_message_kind_is_named_once() {
        let clients = [ClientCfg::default()];
        let nodes = server_cluster(4, FrontConfig::default(), BatchConfig::default(), &clients);
        let (gateway, client) = (&nodes[0], &nodes[4]);
        let votes = [
            PbftMsg::request(Command::new(1, "x")),
            PbftMsg::Prepare { view: 0, seq: 1, digest: prever_crypto::Digest::ZERO },
            PbftMsg::StateRequest { have: 0 },
        ];
        let mut kinds = Vec::new();
        for vote in votes {
            let kind = gateway.kind(&ServerMsg::Pbft(vote.clone()));
            assert_eq!(kind, vote.kind(), "consensus traffic reports the PBFT kind");
            kinds.push(kind);
        }
        let update = QuotaUpdate { tenant: 1, rate: 1, burst: 1 };
        kinds.push(gateway.kind(&ServerMsg::Quota { update, nonce: 0 }));
        kinds.push(gateway.kind(&ServerMsg::Frame(Vec::new())));
        kinds.push(client.kind(&ServerMsg::Frame(Vec::new())));
        let distinct: std::collections::HashSet<_> = kinds.iter().collect();
        assert_eq!(distinct.len(), kinds.len(), "two kinds named alike: {kinds:?}");
        assert!(kinds.iter().all(|k| !k.is_empty() && !["start", "timer", "message"].contains(k)));
    }

    #[test]
    fn closed_loop_clients_commit_through_the_gateway() {
        let clients = vec![
            ClientCfg {
                tenant: 1,
                requests: 8,
                id_base: 1_000,
                mode: crate::client::LoadMode::Closed { window: 2, think_us: 0 },
                ..ClientCfg::default()
            },
            ClientCfg {
                tenant: 2,
                requests: 8,
                id_base: 2_000,
                class: Class::High,
                ..ClientCfg::default()
            },
        ];
        let nodes = server_cluster(
            4,
            FrontConfig::default(),
            BatchConfig::new(8, 2_000, 4),
            &clients,
        );
        let mut sim = Simulation::new(nodes, NetConfig::default(), 7);
        assert!(
            sim.run_until_pred(2_000_000, all_clients_done),
            "clients must finish under a healthy cluster"
        );
        let total: u64 = (4..6)
            .filter_map(|i| sim.node(i).as_client())
            .map(|c| c.conn.stats().committed)
            .sum();
        assert_eq!(total, 16);
        // The gateway's replica and a peer replica agree on history.
        let g = sim.node(0).as_gateway().unwrap();
        let r = sim.node(1).as_replica().unwrap();
        assert_eq!(g.adapter.core.distinct_executed_commands(), 16);
        assert_eq!(
            g.adapter.core.state_digest(),
            r.adapter.core.state_digest(),
            "gateway and replica diverged"
        );
    }

    /// The committed-map floor as a scan of every executed batch from
    /// sequence 1, which is how it was computed before it counted down
    /// from the tail.
    fn floor_by_scan(core: &PbftCore) -> u64 {
        core.executed_batches()
            .iter()
            .take_while(|(seq, _, _)| *seq <= core.stable_seq())
            .map(|(_, batch, _)| batch.len() as u64)
            .sum()
    }

    #[test]
    fn the_stable_slot_floor_matches_a_full_scan_at_every_step() {
        let clients = vec![ClientCfg {
            requests: 80,
            id_base: 1_000,
            mode: crate::client::LoadMode::Closed { window: 4, think_us: 0 },
            ..ClientCfg::default()
        }];
        let nodes =
            server_cluster(4, FrontConfig::default(), BatchConfig::new(4, 1_000, 4), &clients);
        let mut sim = Simulation::new(nodes, NetConfig::default(), 5);
        let mut highest = 0;
        let done = sim.run_until_pred(4_000_000, |nodes| {
            for core in nodes.iter().filter_map(ServerPeer::core) {
                assert_eq!(core.stable_slot_floor(), floor_by_scan(core));
            }
            highest = highest.max(nodes[0].core().expect("gateway").stable_slot_floor());
            all_clients_done(nodes)
        });
        assert!(done, "clients must finish under a healthy cluster");
        assert!(highest > 0, "no checkpoint became stable, so no floor was compared");
    }

    #[test]
    fn cluster_is_deterministic_per_seed() {
        let build = || {
            server_cluster(
                4,
                FrontConfig::default(),
                BatchConfig::new(4, 1_000, 4),
                &[ClientCfg { requests: 6, id_base: 10, ..ClientCfg::default() }],
            )
        };
        let run = || {
            let mut sim = Simulation::new(build(), NetConfig::default(), 99);
            sim.run_until_pred(1_000_000, all_clients_done);
            let c = sim.node(4).as_client().unwrap();
            (
                c.conn.stats().committed,
                c.conn.stats().latencies_us.clone(),
                sim.node(0).as_gateway().unwrap().adapter.core.state_digest(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_gateway_commits_through_any_gateway_and_histories_agree() {
        // Clients pinned to different gateways; all commands execute
        // on every replica and every gateway acks its own clients.
        let clients = vec![
            ClientCfg { requests: 6, id_base: 1_000, servers: vec![1], ..ClientCfg::default() },
            ClientCfg { requests: 6, id_base: 2_000, servers: vec![3], ..ClientCfg::default() },
        ];
        let nodes = multi_gateway_cluster(
            4,
            FrontConfig::default(),
            BatchConfig::new(8, 2_000, 4),
            &clients,
        );
        let mut sim = Simulation::new(nodes, NetConfig::default(), 11);
        assert!(sim.run_until_pred(4_000_000, all_clients_done));
        for i in 4..6 {
            assert_eq!(sim.node(i).as_client().unwrap().conn.stats().committed, 6);
        }
        let d0 = sim.node(0).as_gateway().unwrap().adapter.core.state_digest();
        for id in 1..4 {
            assert_eq!(
                d0,
                sim.node(id).as_gateway().unwrap().adapter.core.state_digest(),
                "gateway {id} diverged"
            );
        }
        assert_eq!(
            sim.node(0).as_gateway().unwrap().adapter.core.distinct_executed_commands(),
            12
        );

        // Audit round: every gateway signs the digest it serves; the
        // auditor verifies the whole round with one batched check.
        let group = prever_crypto::schnorr::SchnorrGroup::test_group_256();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(12);
        let attests: Vec<crate::audit::DigestAttestation> = (0..4)
            .map(|id| {
                let key = prever_crypto::schnorr::KeyPair::generate(&group, &mut rng);
                let digest =
                    *sim.node(id).as_gateway().unwrap().adapter.core.state_digest().as_bytes();
                crate::audit::attest(&group, &key, id as u64, digest, &mut rng)
            })
            .collect();
        assert_eq!(crate::audit::verify_round(&group, &attests).unwrap(), *d0.as_bytes());
    }

    #[test]
    fn client_fails_over_to_surviving_gateway_and_completes() {
        let clients = vec![ClientCfg {
            requests: 10,
            id_base: 1_000,
            servers: vec![0, 1, 2, 3],
            // Open loop stretched over 100ms so the crash below lands
            // mid-workload, with some requests already acked and some
            // in flight.
            mode: crate::client::LoadMode::Open { interval_us: 10_000 },
            timeout_us: 150_000,
            failover_after: 1,
            retry_budget: 30,
            verify_reads: true,
            ..ClientCfg::default()
        }];
        let nodes = multi_gateway_cluster(
            4,
            FrontConfig::default(),
            BatchConfig::new(8, 2_000, 4),
            &clients,
        );
        // Crash the client's home gateway early, mid-workload; the
        // client must finish via the others (f=1 tolerated by n=4
        // consensus).
        let mut sim = Simulation::new(nodes, NetConfig::default(), 23);
        sim.set_fault_plan(FaultPlan::new().crash_at(20_000, 0));
        assert!(
            sim.run_until_pred(30_000_000, all_clients_done),
            "client must complete on surviving gateways"
        );
        let c = sim.node(4).as_client().unwrap();
        assert_eq!(c.conn.stats().committed, 10, "all writes acked exactly once");
        assert!(c.conn.stats().failovers >= 1, "the crash must have forced a failover");
        assert_eq!(c.conn.stats().read_violations, 0, "read-your-writes held");
        // No surviving gateway double-executed a command.
        for id in 1..4 {
            let core = sim.node(id).core().unwrap();
            assert_eq!(core.distinct_executed_commands(), core.executed_commands());
        }
    }

    /// A serving cluster's node, or the probe: a bare connection that
    /// keeps every response a gateway sends it.
    enum Probed {
        Peer(ServerPeer),
        Probe(Vec<Response>),
    }

    impl Actor for Probed {
        type Msg = ServerMsg;

        fn on_start(&mut self, ctx: &mut Ctx<ServerMsg>) {
            if let Probed::Peer(peer) = self {
                peer.on_start(ctx);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: ServerMsg, ctx: &mut Ctx<ServerMsg>) {
            match (self, msg) {
                (Probed::Peer(peer), msg) => peer.on_message(from, msg, ctx),
                (Probed::Probe(seen), ServerMsg::Frame(buf)) => {
                    if let Ok((Frame::Response(resp), _)) = Frame::decode(&buf) {
                        seen.push(resp);
                    }
                }
                (Probed::Probe(_), _) => {}
            }
        }

        fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<ServerMsg>) {
            if let Probed::Peer(peer) = self {
                peer.on_timer(timer, ctx);
            }
        }
    }

    fn peer(node: &Probed) -> &ServerPeer {
        match node {
            Probed::Peer(peer) => peer,
            Probed::Probe(_) => panic!("the probe is no peer"),
        }
    }

    fn responses(node: &Probed) -> &[Response] {
        match node {
            Probed::Probe(seen) => seen,
            Probed::Peer(_) => panic!("not the probe"),
        }
    }

    fn submit_frame(tenant: u32, id: u64) -> ServerMsg {
        let submission = prever_wire::Submission { id, payload: bytes::Bytes::from(vec![7]) };
        let request = Request::Submit { tenant, class: Class::Normal, deadline: 0, submission };
        ServerMsg::Frame(Frame::Request(request).encode())
    }

    #[test]
    fn a_recovered_gateway_acks_admits_and_reads_from_its_replayed_journal() {
        use prever_consensus::durable::DurableMedia;
        const PROBE: NodeId = 4;
        let (front, batch) = (FrontConfig::default(), BatchConfig::new(4, 1_000, 4));
        let media: Vec<DurableMedia> = (0..4).map(DurableMedia::new).collect();
        let mut nodes: Vec<Probed> = (0..4)
            .map(|id| {
                let log = DurableLog::on(&media[id]);
                Probed::Peer(match id {
                    0 => ServerPeer::Gateway(Box::new(Gateway::with_durable(
                        id, 4, front, batch, log,
                    ))),
                    _ => ServerPeer::Replica(Box::new(Replica::with_durable(id, 4, batch, log))),
                })
            })
            .collect();
        nodes.push(Probed::Probe(Vec::new()));
        let mut sim = Simulation::new(nodes, NetConfig::default(), 17);
        // Tenant 7 may take one request per second, with a burst of one.
        let quota = QuotaUpdate { tenant: 7, rate: 1, burst: 1 };
        sim.inject(PROBE, 0, ServerMsg::Quota { update: quota, nonce: 1 }, 1_000);
        for id in 100..106 {
            sim.inject(PROBE, 0, submit_frame(1, id), 2_000 + id);
        }
        let acked = |nodes: &[Probed]| {
            let seen = responses(&nodes[PROBE]);
            seen.iter().filter(|r| matches!(r, Response::Committed { .. })).count()
        };
        assert!(sim.run_until_pred(2_000_000, |nodes| acked(nodes) == 6));
        sim.run_until(sim.now() + 500_000);
        let slot_of_103 = responses(sim.node(PROBE))
            .iter()
            .find_map(|r| match r {
                Response::Committed { id: 103, slot } => Some(*slot),
                _ => None,
            })
            .expect("103 was acked");
        let replica = peer(sim.node(1)).core().expect("a replica").clone();
        assert!(replica.executed().len() >= 7, "six client commands and the quota executed");

        // The gateway crashes and is rebuilt from what its media kept.
        let (log, _) = DurableLog::recover(&media[0]).expect("clean media");
        let gateway = Gateway::recover_with(0, 4, front, batch, log);
        sim.restart_with_loss(0, Probed::Peer(ServerPeer::Gateway(Box::new(gateway))));
        let at = sim.now() + 1;
        let read = Request::ReadFresh { tenant: 1, id: 103, min_slot: 0 };
        sim.inject(PROBE, 0, ServerMsg::Frame(Frame::Request(read).encode()), at);
        sim.inject(PROBE, 0, submit_frame(1, 103), at);
        for id in [200, 201] {
            sim.inject(PROBE, 0, submit_frame(7, id), at);
            sim.inject(PROBE, 0, submit_frame(8, id + 100), at);
        }
        sim.run_until(at + 500_000);

        // Responses travel the network, so they may arrive in any order.
        let after = &responses(sim.node(PROBE))[6..];
        let (applied, digest) = (replica.executed().len() as u64, *replica.state_digest().as_bytes());
        let read = Response::ReadFreshResult {
            id: 103,
            slot: Some(slot_of_103),
            applied_slot: applied,
            digest,
            floor: 0,
        };
        assert!(after.contains(&read), "the read is not at the replica's slot and digest: {after:?}");
        assert!(after.contains(&Response::Committed { id: 103, slot: slot_of_103 }));
        let copies = |node: &Probed| {
            let core = peer(node).core().expect("a replica");
            core.executed().iter().filter(|d| d.command.id == 103).count()
        };
        assert_eq!((copies(sim.node(0)), copies(sim.node(1))), (1, 1), "103 was ordered again");
        // The replayed quota sheds tenant 7's second request; tenant 8,
        // at the default quota, gets both in.
        let gateway = peer(sim.node(0)).as_gateway().expect("the gateway");
        assert_eq!(gateway.front.quota_for(7), (1, 1));
        let mut shed = Vec::new();
        let mut committed = Vec::new();
        for response in after {
            match response {
                Response::Overloaded { id, .. } => shed.push(*id),
                Response::Committed { id, .. } if *id != 103 => committed.push(*id),
                _ => {}
            }
        }
        committed.sort_unstable();
        assert_eq!((shed, committed), (vec![201], vec![200, 300, 301]));
    }

    #[test]
    fn quota_update_travels_through_consensus_to_all_gateways() {
        let clients = vec![ClientCfg { requests: 4, id_base: 500, ..ClientCfg::default() }];
        let nodes = multi_gateway_cluster(
            4,
            FrontConfig::default(),
            BatchConfig::new(4, 1_000, 4),
            &clients,
        );
        let mut sim = Simulation::new(nodes, NetConfig::default(), 5);
        let update = QuotaUpdate { tenant: 9, rate: 77, burst: 7 };
        sim.inject(0, 2, ServerMsg::Quota { update, nonce: 1 }, 10_000);
        assert!(sim.run_until_pred(4_000_000, all_clients_done));
        let later = sim.now() + 500_000;
        sim.run_until(later);
        for id in 0..4 {
            assert_eq!(
                sim.node(id).as_gateway().unwrap().front.quota_for(9),
                (77, 7),
                "gateway {id} missed the consensus-carried quota"
            );
        }
    }
}
