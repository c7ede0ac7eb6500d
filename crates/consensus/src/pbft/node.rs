//! [`PbftNode`], the replica host around a [`PbftCore`]: its timers, its
//! [`DurableLog`], the [`Executed`] report of each step, and the
//! `cluster*` builders.

use super::{Byzantine, Outbox, PbftCore, PbftMsg};
use crate::durable::DurableLog;
use crate::{Batch, BatchConfig, Command};
use prever_sim::{Actor, Ctx, NodeId};

/// Periodic tick timer id. An embedder that has periodic work of its own
/// runs it after [`PbftNode::timer`] handles this id.
pub(crate) const TIMER_TICK: u64 = 1;
/// One-shot timer id for `max_delay` batch-fill deadlines.
const TIMER_BATCH: u64 = 2;
/// The first timer id [`PbftNode::timer`] does not claim: an actor that
/// embeds a `PbftNode` numbers its own timers from here, so a timer
/// added to the host can never shadow one of the embedder's.
pub const FIRST_FREE_TIMER: u64 = 3;
pub(super) const TICK_EVERY: u64 = 25_000; // 25 ms
/// Request-staleness threshold before a replica votes for a view change.
pub const VIEW_TIMEOUT: u64 = 150_000; // 150 ms

/// What one host step executed: the batches it appended to the
/// executed history, in order, as `(batch seq, batch, decided at)`, and
/// the slot of the first command among them. Slots run on densely from
/// there across the batches, no-ops included.
///
/// Every executed batch is reported exactly once, by the step that
/// executed it — or, on a replica built by [`PbftNode::recover_with`],
/// by [`PbftNode::start`], which reports the replayed history. Reports
/// concatenated in step order are the history.
#[must_use = "an embedder that drops a report never sees those executions"]
#[derive(Debug, Default)]
pub struct Executed {
    first_slot: u64,
    /// `(batch seq, batch, decided at)`, in execution order.
    pub(crate) batches: Vec<(u64, Batch, u64)>,
}

impl Executed {
    /// Every executed command in order with its slot, no-ops included.
    pub fn commands(&self) -> impl Iterator<Item = (u64, &Command)> {
        let commands = self.batches.iter().flat_map(|(_, batch, _)| batch.commands());
        (self.first_slot..).zip(commands)
    }
}

/// The replica host: the one owner of a [`PbftCore`] together with its
/// [`DurableLog`], batch timer and `wal-flush` trace stamping, and the
/// one reader of the core's executed history.
///
/// The step methods ([`Self::start`], [`Self::deliver`], [`Self::submit`],
/// [`Self::timer`]) are generic over the message type the surrounding
/// actor speaks (`M: From<PbftMsg>`), so an actor with a wider protocol —
/// the serving layer's gateway, a sharded replica — embeds a `PbftNode`
/// instead of copying it. Each step that can execute returns the
/// [`Executed`] report of the step, which is how the embedder learns
/// what executed; a submit only queues or proposes. `impl Actor for
/// PbftNode` is the `M = PbftMsg` instance, which has no embedder and
/// drops the reports.
///
/// With a [`DurableLog`] attached ([`Self::with_durable`]) the node
/// persists every executed command and every prepare-vote binding after
/// each protocol step, and [`Self::recover_with`] rebuilds a replacement
/// replica from the log reopened on its media after a
/// crash-with-state-loss: replay restores the executed history and open
/// vote bindings, [`Self::start`] reports that history to the embedder,
/// and the node's first act on start is a state-transfer request to
/// catch up on everything committed while it was down. The node is the
/// log's only owner; readers go through [`Self::durable`].
#[derive(Debug)]
pub struct PbftNode {
    /// The protocol core (public for test inspection).
    pub core: PbftCore,
    /// The replica's "disk", if persistence is on.
    durable: Option<DurableLog>,
    /// How many `core.executed_batches()` entries have been persisted
    /// and reported.
    exec_cursor: usize,
    /// Set by [`Self::recover_with`]: report the replayed history and
    /// request a state transfer on start.
    recovering: bool,
    /// Earliest armed batch-fill deadline (simulator timers cannot be
    /// cancelled, so this dedups re-arms; spurious fires are harmless).
    batch_timer_at: Option<u64>,
}

impl PbftNode {
    /// Creates replica `id` of an `n`-replica cluster (no persistence).
    pub fn new(id: NodeId, n: usize, byz: Byzantine) -> Self {
        Self::with_members(id, (0..n).collect(), byz)
    }

    /// Creates replica `id` of the cluster `members` (no persistence):
    /// one shard's replica group in the sharded deployment.
    pub(crate) fn with_members(id: NodeId, members: Vec<NodeId>, byz: Byzantine) -> Self {
        PbftNode {
            core: PbftCore::new(id, members, byz),
            durable: None,
            exec_cursor: 0,
            recovering: false,
            batch_timer_at: None,
        }
    }

    /// Sets the batching/pipelining configuration (builder style, so it
    /// composes with every constructor, including [`Self::recover_with`]).
    pub fn with_batching(mut self, cfg: BatchConfig) -> Self {
        self.core.set_batch_config(cfg);
        self
    }

    /// Creates replica `id` persisting to `log` (normally a fresh log).
    pub fn with_durable(id: NodeId, n: usize, byz: Byzantine, log: DurableLog) -> Self {
        let mut node = Self::new(id, n, byz);
        node.core.set_record_bindings(true);
        node.durable = Some(log);
        node
    }

    /// Rebuilds replica `id` from its durable `log`, reopened on the
    /// surviving media with [`DurableLog::recover`], after a
    /// crash-with-state-loss.
    ///
    /// Panics if the log fails hash-chain verification — a replica must
    /// not rejoin from a disk it cannot trust.
    pub fn recover_with(id: NodeId, n: usize, byz: Byzantine, log: DurableLog) -> Self {
        let replayed = log.replay().expect("durable log failed verification");
        let mut node = Self::with_durable(id, n, byz, log);
        node.core.install_history(replayed.entries, replayed.bindings, replayed.prepared);
        node.exec_cursor = node.core.executed_batches().len();
        node.recovering = true;
        prever_obs::counter!("pbft.recoveries").inc();
        node
    }

    /// The attached durable log, if any.
    pub fn durable(&self) -> Option<&DurableLog> {
        self.durable.as_ref()
    }

    /// The attached durable log, mutably: what a harness compacts
    /// through.
    pub fn durable_mut(&mut self) -> Option<&mut DurableLog> {
        self.durable.as_mut()
    }

    /// Persists everything the last core step produced: new vote
    /// bindings and prepared certificates first (they must hit the disk
    /// before our votes hit the network), then newly executed commands,
    /// which it reports.
    fn persist(&mut self) -> Executed {
        let fresh = self.core.executed_batches()[self.exec_cursor..].to_vec();
        self.exec_cursor += fresh.len();
        if let Some(log) = &mut self.durable {
            for (seq, view, digest) in self.core.take_bindings() {
                log.append_bind(seq, view, &digest);
            }
            for (seq, view, batch) in self.core.take_prepared() {
                log.append_prep(seq, view, &batch);
            }
            for (seq, batch, at) in &fresh {
                log.append_exec(*seq, batch, *at);
            }
            // Group-commit point: one flush barrier per dispatch covers
            // every exec record staged above (bind/prep flushed eagerly).
            log.commit_dispatch();
            for (seq, batch, at) in &fresh {
                batch.stamp(self.core.id(), *at, Some("exec"), "wal-flush", *seq);
            }
        }
        // The fresh commands' slots run up to the history's last one.
        let commands: usize = fresh.iter().map(|(_, batch, _)| batch.len()).sum();
        Executed { first_slot: (self.core.executed().len() - commands) as u64 + 1, batches: fresh }
    }

    /// The one exit of every core step: persist, *then* put the step's
    /// messages on the network, then arm the batch timer. Flush-before-
    /// vote lives here and nowhere else.
    fn ship<M: From<PbftMsg>>(&mut self, out: Outbox, ctx: &mut Ctx<M>) -> Executed {
        let executed = self.persist();
        for (to, m) in out {
            ctx.send(to, m.into());
        }
        // Arm (or tighten) the batch-fill timer to the core's next
        // `max_delay` deadline.
        if let Some(deadline) = self.core.next_batch_deadline() {
            let due = deadline.max(ctx.now() + 1);
            if self.batch_timer_at.is_none_or(|t| t > due) {
                self.batch_timer_at = Some(due);
                ctx.set_timer(due - ctx.now(), TIMER_BATCH);
            }
        }
        executed
    }

    /// Host step for [`Actor::on_start`]: arms the tick and, on a replica
    /// built by [`Self::recover_with`], reports the replayed history
    /// (already on disk, so not written again) and asks for a state
    /// transfer. The request stages nothing, so it is sent bare —
    /// starting is not a dispatch and must not advance the group-commit
    /// counter.
    pub fn start<M: From<PbftMsg>>(&mut self, ctx: &mut Ctx<M>) -> Executed {
        ctx.set_timer(TICK_EVERY, TIMER_TICK);
        if !self.recovering {
            return Executed::default();
        }
        self.recovering = false;
        for (to, m) in self.core.request_sync(ctx.now()) {
            ctx.send(to, m.into());
        }
        Executed { first_slot: 1, batches: self.core.executed_batches().to_vec() }
    }

    /// Host step for a consensus message from `from`.
    pub fn deliver<M: From<PbftMsg>>(
        &mut self,
        from: NodeId,
        msg: PbftMsg,
        ctx: &mut Ctx<M>,
    ) -> Executed {
        let out = self.core.on_message(from, msg, ctx.now());
        self.ship(out, ctx)
    }

    /// Host step for a client command submitted at this replica
    /// (`urgent` bypasses the batch fill delay). The core only queues
    /// or proposes here — a batch executes on a vote, which only
    /// [`Self::deliver`] brings — so this step has no report.
    pub fn submit<M: From<PbftMsg>>(&mut self, command: Command, urgent: bool, ctx: &mut Ctx<M>) {
        let out = if urgent {
            self.core.on_urgent_request(command, ctx.now())
        } else {
            self.core.on_request(command, ctx.now())
        };
        let executed = self.ship(out, ctx);
        debug_assert!(executed.batches.is_empty(), "a submit step only queues or proposes");
    }

    /// Host step for [`Actor::on_timer`]. Ids from [`FIRST_FREE_TIMER`]
    /// up belong to the embedding actor and are ignored here.
    pub fn timer<M: From<PbftMsg>>(&mut self, timer: u64, ctx: &mut Ctx<M>) -> Executed {
        let out = match timer {
            TIMER_TICK => {
                ctx.set_timer(TICK_EVERY, TIMER_TICK);
                self.core.on_tick(ctx.now(), VIEW_TIMEOUT)
            }
            TIMER_BATCH => {
                self.batch_timer_at = None;
                self.core.on_batch_timer(ctx.now())
            }
            _ => return Executed::default(),
        };
        self.ship(out, ctx)
    }
}

impl Actor for PbftNode {
    type Msg = PbftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PbftMsg>) {
        let _ = self.start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut Ctx<PbftMsg>) {
        let _ = self.deliver(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<PbftMsg>) {
        let _ = self.timer(timer, ctx);
    }

    fn kind(&self, msg: &PbftMsg) -> &'static str {
        msg.kind()
    }
}

/// Builds an honest `n`-replica PBFT cluster.
pub fn cluster(n: usize) -> Vec<PbftNode> {
    (0..n).map(|id| PbftNode::new(id, n, Byzantine::Honest)).collect()
}

/// Builds a cluster with per-replica behaviors.
pub fn cluster_with(behaviors: &[Byzantine]) -> Vec<PbftNode> {
    let n = behaviors.len();
    behaviors
        .iter()
        .enumerate()
        .map(|(id, &b)| PbftNode::new(id, n, b))
        .collect()
}

/// Builds an honest `n`-replica cluster with batching configured.
pub fn cluster_batched(n: usize, cfg: BatchConfig) -> Vec<PbftNode> {
    (0..n)
        .map(|id| PbftNode::new(id, n, Byzantine::Honest).with_batching(cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::DurableMedia;
    use prever_sim::{NetConfig, Simulation};

    /// A replica that keeps every report its host steps return, and
    /// submits its own client injections through [`PbftNode::submit`].
    struct Reporting {
        node: PbftNode,
        reports: Vec<Executed>,
    }

    impl Reporting {
        fn new(node: PbftNode) -> Self {
            Reporting { node, reports: Vec::new() }
        }
    }

    impl Actor for Reporting {
        type Msg = PbftMsg;

        fn on_start(&mut self, ctx: &mut Ctx<PbftMsg>) {
            let report = self.node.start(ctx);
            self.reports.push(report);
        }

        fn on_message(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut Ctx<PbftMsg>) {
            match msg {
                PbftMsg::Request(batch) if from == self.node.core.id() => {
                    for command in batch.commands() {
                        self.node.submit(command.clone(), false, ctx);
                    }
                }
                msg => {
                    let report = self.node.deliver(from, msg, ctx);
                    self.reports.push(report);
                }
            }
        }

        fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<PbftMsg>) {
            let report = self.node.timer(timer, ctx);
            self.reports.push(report);
        }
    }

    fn submit(sim: &mut Simulation<Reporting>, to: NodeId, id: u64) {
        sim.inject(to, to, PbftMsg::request(Command::new(id, format!("cmd-{id}"))), sim.now() + 1);
    }

    fn all_executed(nodes: &[Reporting], ids: usize) -> bool {
        nodes.iter().all(|r| r.node.core.executed_commands() >= ids)
    }

    /// The reports, concatenated in step order, are the node's executed
    /// history: the same batches in the same order, no gaps, no repeats,
    /// and each report's slots continue the last one's.
    fn assert_reports_are_the_history(r: &Reporting) {
        let core = &r.node.core;
        let reported: Vec<&(u64, Batch, u64)> =
            r.reports.iter().flat_map(|report| &report.batches).collect();
        let history = core.executed_batches();
        assert_eq!(reported.len(), history.len(), "replica {}", core.id());
        for ((seq, batch, at), (hseq, hbatch, hat)) in reported.into_iter().zip(history) {
            assert_eq!((seq, batch.digest(), at), (hseq, hbatch.digest(), hat));
        }
        let slots: Vec<(u64, u64)> =
            r.reports.iter().flat_map(|report| report.commands()).map(|(s, c)| (s, c.id)).collect();
        let expected: Vec<(u64, u64)> = core.executed().iter().map(|d| (d.slot, d.command.id)).collect();
        assert_eq!(slots, expected, "replica {}", core.id());
    }

    #[test]
    fn batched_reports_are_the_history() {
        let cfg = BatchConfig::new(4, 1_000, 4);
        let nodes = cluster_batched(4, cfg).into_iter().map(Reporting::new).collect();
        let mut sim = Simulation::new(nodes, NetConfig::default(), 3);
        for id in 0..40 {
            submit(&mut sim, (id % 4) as NodeId, id);
        }
        assert!(sim.run_until_pred(4_000_000, |nodes| all_executed(nodes, 40)));
        sim.run_until(sim.now() + 200_000);
        for id in 0..4 {
            assert_reports_are_the_history(sim.node(id));
        }
        let history = sim.node(0).node.core.executed_batches();
        assert!(history.iter().any(|(_, batch, _)| batch.len() > 1), "nothing was batched");
    }

    #[test]
    fn reports_are_the_history_across_an_equivocating_primarys_view_change() {
        let behaviors = [
            Byzantine::EquivocatingPrimary,
            Byzantine::Honest,
            Byzantine::Honest,
            Byzantine::Honest,
        ];
        let nodes = cluster_with(&behaviors).into_iter().map(Reporting::new).collect();
        let mut sim = Simulation::new(nodes, NetConfig::default(), 5);
        for id in 0..4 {
            submit(&mut sim, 1, id);
        }
        sim.run_until(30_000_000);
        assert!(sim.node(1).node.core.view() >= 1, "the equivocation forced no view change");
        assert!(sim.node(1).node.core.executed_commands() >= 4);
        for id in 0..4 {
            assert_reports_are_the_history(sim.node(id));
        }
    }

    #[test]
    fn reports_are_the_history_across_a_state_transfer_and_a_recovery() {
        // Replica 3 misses 15 commands while crashed and fetches them by
        // state transfer. Replica 2 then loses its memory, is rebuilt
        // from its media, reports the replayed history from its start,
        // and catches up by state transfer too.
        let n = 4;
        let media: Vec<DurableMedia> = (0..n as u64).map(DurableMedia::new).collect();
        let nodes = (0..n)
            .map(|id| {
                let log = DurableLog::on(&media[id]);
                Reporting::new(PbftNode::with_durable(id, n, Byzantine::Honest, log))
            })
            .collect();
        let mut sim = Simulation::new(nodes, NetConfig::default(), 11);
        for id in 0..20 {
            submit(&mut sim, 0, id);
        }
        assert!(sim.run_until_pred(2_000_000, |nodes| all_executed(nodes, 20)));
        sim.crash(3);
        for id in 20..35 {
            submit(&mut sim, 0, id);
        }
        assert!(sim.run_until_pred(4_000_000, |nodes| all_executed(&nodes[..3], 35)));
        sim.recover(3);
        assert!(sim.run_until_pred(20_000_000, |nodes| all_executed(nodes, 35)));
        assert!(sim.node(3).node.core.synced() > 0, "replica 3 caught up without a transfer");

        sim.crash(2);
        for id in 35..50 {
            submit(&mut sim, 0, id);
        }
        assert!(sim.run_until_pred(4_000_000, |nodes| {
            [0, 1, 3].iter().all(|&i| nodes[i].node.core.executed_commands() >= 50)
        }));
        let (log, _) = DurableLog::recover(&media[2]).expect("clean media");
        let replayed = PbftNode::recover_with(2, n, Byzantine::Honest, log);
        let before = replayed.core.executed_commands();
        assert!(before >= 35, "the media kept {before} commands");
        sim.restart_with_loss(2, Reporting::new(replayed));
        let start = &sim.node(2).reports[0];
        assert_eq!((start.first_slot, start.commands().count()), (1, before), "the replay");
        assert!(sim.run_until_pred(20_000_000, |nodes| all_executed(nodes, 50)));
        sim.run_until(sim.now() + 200_000);
        assert!(sim.node(2).node.core.synced() > 0, "replica 2 caught up without a transfer");
        for id in 0..n {
            assert_reports_are_the_history(sim.node(id));
        }
        // The replayed history went to the embedder, not to the disk again.
        let log = sim.node(2).node.durable().expect("durable");
        let on_disk = log.replay().expect("chain verifies").entries.len();
        assert_eq!(on_disk, sim.node(2).node.core.executed_batches().len());
    }
}
