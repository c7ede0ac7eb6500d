//! [`PbftNode`], the replica host around a [`PbftCore`]: its timers, its
//! [`DurableLog`], and the `cluster*` builders.

use super::{Byzantine, Outbox, PbftCore, PbftMsg, NOOP_ID};
use crate::durable::DurableLog;
use crate::{BatchConfig, Command, Decided};
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

/// The replica host: the one owner of a [`PbftCore`] together with its
/// [`DurableLog`], exec cursor, batch timer and `wal-flush` trace
/// stamping.
///
/// The step methods ([`Self::start`], [`Self::deliver`], [`Self::submit`],
/// [`Self::timer`]) are generic over the message type the surrounding
/// actor speaks (`M: From<PbftMsg>`), so an actor with a wider protocol —
/// the serving layer's gateway, a sharded replica — embeds a `PbftNode`
/// instead of copying it. `impl Actor for PbftNode` is the
/// `M = PbftMsg` instance.
///
/// With a [`DurableLog`] attached ([`Self::with_durable`]) the node
/// persists every executed command and every prepare-vote binding after
/// each protocol step, and [`Self::recover_with`] rebuilds a replacement
/// replica from the log reopened on its media after a
/// crash-with-state-loss: replay restores the executed history and open
/// vote bindings, and the node's first act on start is a state-transfer
/// request to catch up on everything committed while it was down. The
/// node is the log's only owner; readers go through [`Self::durable`].
#[derive(Debug)]
pub struct PbftNode {
    /// The protocol core (public for test inspection).
    pub core: PbftCore,
    /// The replica's "disk", if persistence is on.
    durable: Option<DurableLog>,
    /// How many `core.executed_batches()` entries have been persisted.
    exec_cursor: usize,
    /// Set by [`Self::recover_with`]: request a state transfer on start.
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

    /// Executed commands (excluding no-ops).
    pub fn executed(&self) -> Vec<Decided> {
        self.core.executed().iter().filter(|d| d.command.id != NOOP_ID).collect()
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
    /// before our votes hit the network), then newly executed commands.
    fn persist(&mut self) {
        if let Some(log) = &mut self.durable {
            for (seq, view, digest) in self.core.take_bindings() {
                log.append_bind(seq, view, &digest);
            }
            for (seq, view, batch) in self.core.take_prepared() {
                log.append_prep(seq, view, &batch);
            }
            for (seq, batch, at) in &self.core.executed_batches()[self.exec_cursor..] {
                log.append_exec(*seq, batch, *at);
            }
            // Group-commit point: one flush barrier per dispatch covers
            // every exec record staged above (bind/prep flushed eagerly).
            log.commit_dispatch();
            for (seq, batch, at) in &self.core.executed_batches()[self.exec_cursor..] {
                batch.stamp(self.core.id(), *at, Some("exec"), "wal-flush", *seq);
            }
        }
        self.exec_cursor = self.core.executed_batches().len();
    }

    /// The one exit of every core step: persist, *then* put the step's
    /// messages on the network, then arm the batch timer. Flush-before-
    /// vote lives here and nowhere else.
    fn ship<M: From<PbftMsg>>(&mut self, out: Outbox, ctx: &mut Ctx<M>) {
        self.persist();
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
    }

    /// Host step for [`Actor::on_start`]: arms the tick and, on a replica
    /// built by [`Self::recover_with`], asks for a state transfer. The
    /// request stages nothing, so it is sent bare — starting is not a
    /// dispatch and must not advance the group-commit counter.
    pub fn start<M: From<PbftMsg>>(&mut self, ctx: &mut Ctx<M>) {
        ctx.set_timer(TICK_EVERY, TIMER_TICK);
        if self.recovering {
            self.recovering = false;
            for (to, m) in self.core.request_sync(ctx.now()) {
                ctx.send(to, m.into());
            }
        }
    }

    /// Host step for a consensus message from `from`.
    pub fn deliver<M: From<PbftMsg>>(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut Ctx<M>) {
        let out = self.core.on_message(from, msg, ctx.now());
        self.ship(out, ctx);
    }

    /// Host step for a client command submitted at this replica
    /// (`urgent` bypasses the batch fill delay).
    pub fn submit<M: From<PbftMsg>>(&mut self, command: Command, urgent: bool, ctx: &mut Ctx<M>) {
        let out = if urgent {
            self.core.on_urgent_request(command, ctx.now())
        } else {
            self.core.on_request(command, ctx.now())
        };
        self.ship(out, ctx);
    }

    /// Host step for [`Actor::on_timer`]. Ids from [`FIRST_FREE_TIMER`]
    /// up belong to the embedding actor and are ignored here.
    pub fn timer<M: From<PbftMsg>>(&mut self, timer: u64, ctx: &mut Ctx<M>) {
        let out = match timer {
            TIMER_TICK => {
                ctx.set_timer(TICK_EVERY, TIMER_TICK);
                self.core.on_tick(ctx.now(), VIEW_TIMEOUT)
            }
            TIMER_BATCH => {
                self.batch_timer_at = None;
                self.core.on_batch_timer(ctx.now())
            }
            _ => return,
        };
        self.ship(out, ctx);
    }
}

impl Actor for PbftNode {
    type Msg = PbftMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PbftMsg>) {
        self.start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut Ctx<PbftMsg>) {
        self.deliver(from, msg, ctx);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<PbftMsg>) {
        self.timer(timer, ctx);
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
