//! Seeded fault plans: per-link network faults plus scheduled
//! crash/restart/partition events, all replayed deterministically by the
//! simulator's event loop.
//!
//! A [`FaultPlan`] is pure data. Installing the same plan into two
//! simulations with the same actors, config, and seed yields bit-identical
//! executions — which is what makes a chaos run replayable from nothing
//! but its seed.
//!
//! ## Fault taxonomy
//!
//! Per-link (applied independently to every message crossing the link):
//!
//! - **drop** — the message silently disappears.
//! - **delay** — extra one-way latency, uniform in `0..=delay_max` µs.
//! - **duplicate** — a second, independently delayed copy is scheduled.
//! - **reorder** — with probability `reorder`, an extra uniform delay in
//!   `0..=reorder_window` µs is added, letting later sends overtake this
//!   message (bounded reordering).
//! - **corrupt** — the bytes are damaged in flight. If the simulation has
//!   a corruption hook installed ([`crate::Simulation::set_corruptor`])
//!   the hook mutates the message and it is delivered corrupted;
//!   otherwise corruption is treated as *detected* (a MAC/CRC failure at
//!   the receiver) and the message is dropped. Authenticated protocols
//!   like PBFT should use the detected model — the simulator's base
//!   premise is that messages cannot be forged.
//!
//! Scheduled (applied at absolute virtual times):
//!
//! - **Crash / Recover** — see [`crate::Simulation::crash`] /
//!   [`crate::Simulation::recover`]. Recovery keeps actor state (a fast
//!   reboot with an intact disk and socket backlog).
//! - **RestartWithLoss** — the node comes back as a *fresh* actor built by
//!   the node factory ([`crate::Simulation::set_node_factory`]); all
//!   in-memory state and everything in flight toward the old process is
//!   lost.
//! - **Partition / Heal** — install or remove a node grouping; messages
//!   crossing groups are dropped.
//! - **ClearLinkFaults** — remove all per-link faults, so liveness after
//!   heal can be checked against a clean network.

use crate::NodeId;
use std::collections::HashMap;

/// Fault parameters for one directed link (asymmetric: `(a, b)` and
/// `(b, a)` are configured independently).
///
/// The default is a clean link (no faults).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFault {
    /// Probability a message on this link is silently dropped.
    pub drop: f64,
    /// Maximum extra one-way latency in µs (uniform in `0..=delay_max`).
    pub delay_max: u64,
    /// Probability a message is duplicated (one extra copy, independently
    /// delayed).
    pub duplicate: f64,
    /// Probability a message gets extra reordering delay.
    pub reorder: f64,
    /// Maximum reordering delay in µs (uniform in `0..=reorder_window`).
    pub reorder_window: u64,
    /// Probability a message is corrupted in flight (see module docs for
    /// delivered-vs-detected semantics).
    pub corrupt: f64,
}

impl LinkFault {
    /// True iff this link has no faults configured.
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0
            && self.delay_max == 0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
    }
}

/// A disk-level fault applied to one node's storage media.
///
/// The simulator does not model disks itself; it dispatches these to a
/// handler installed with [`crate::Simulation::set_disk_handler`], which
/// holds the actual media (e.g. `prever_storage::SharedDisk`s), is handed
/// the node, and typically pairs the fault with a
/// [`FaultEvent::RestartWithLoss`]-style rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Crash with torn-write semantics: a seeded prefix of the pending
    /// write-back cache reaches the platter, the rest is lost; the cut
    /// may land mid-frame.
    TornWrite,
    /// Crash dropping the entire write-back cache: only flushed bytes
    /// survive.
    DropCache,
    /// Flip bits in one seeded, already-flushed sector.
    CorruptSector,
}

/// A scheduled fault, applied at an absolute virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash a node (in-flight messages and pending timers die with it).
    Crash(NodeId),
    /// Recover a crashed node with state intact.
    Recover(NodeId),
    /// Replace a node with a fresh actor from the node factory; all
    /// in-memory state is lost. Requires
    /// [`crate::Simulation::set_node_factory`].
    RestartWithLoss(NodeId),
    /// Apply a [`DiskFault`] to `node`'s storage media. Requires
    /// [`crate::Simulation::set_disk_handler`].
    Disk {
        /// The node whose media take the fault.
        node: NodeId,
        /// What happens to the media.
        fault: DiskFault,
    },
    /// Install a partition (`groups[i]` = node `i`'s side).
    Partition(Vec<usize>),
    /// Remove any partition.
    Heal,
    /// Remove all per-link faults (the network turns clean).
    ClearLinkFaults,
}

/// A deterministic schedule of link faults and fault events.
///
/// Built with the fluent methods below, then installed via
/// [`crate::Simulation::set_fault_plan`] (or
/// [`crate::ParallelSim::set_fault_plan`], which refuses disk and
/// per-link faults). Events run interleaved with the
/// event loop at their scheduled virtual times (before any message
/// carrying the same timestamp).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub(crate) default_link: LinkFault,
    pub(crate) links: HashMap<(NodeId, NodeId), LinkFault>,
    pub(crate) events: Vec<(u64, FaultEvent)>,
}

impl FaultPlan {
    /// An empty plan (clean network, no events).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the fault profile used by links without a specific override.
    pub fn default_link(mut self, fault: LinkFault) -> Self {
        self.default_link = fault;
        self
    }

    /// Sets the fault profile for the directed link `from → to`.
    pub fn link(mut self, from: NodeId, to: NodeId, fault: LinkFault) -> Self {
        self.links.insert((from, to), fault);
        self
    }

    /// Schedules an arbitrary [`FaultEvent`] at virtual time `at`.
    pub fn at(mut self, at: u64, event: FaultEvent) -> Self {
        self.events.push((at, event));
        self
    }

    /// Schedules a crash of `node` at `at`.
    pub fn crash_at(self, at: u64, node: NodeId) -> Self {
        self.at(at, FaultEvent::Crash(node))
    }

    /// Schedules a state-intact recovery of `node` at `at`.
    pub fn recover_at(self, at: u64, node: NodeId) -> Self {
        self.at(at, FaultEvent::Recover(node))
    }

    /// Schedules a restart-with-state-loss of `node` at `at`.
    pub fn restart_with_loss_at(self, at: u64, node: NodeId) -> Self {
        self.at(at, FaultEvent::RestartWithLoss(node))
    }

    /// Schedules a [`DiskFault`] against `node`'s media at `at`.
    pub fn disk_fault_at(self, at: u64, node: NodeId, fault: DiskFault) -> Self {
        self.at(at, FaultEvent::Disk { node, fault })
    }

    /// Schedules a partition at `at`.
    pub fn partition_at(self, at: u64, groups: Vec<usize>) -> Self {
        self.at(at, FaultEvent::Partition(groups))
    }

    /// Schedules a partition heal at `at`.
    pub fn heal_at(self, at: u64) -> Self {
        self.at(at, FaultEvent::Heal)
    }

    /// Schedules removal of all link faults at `at`.
    pub fn clear_links_at(self, at: u64) -> Self {
        self.at(at, FaultEvent::ClearLinkFaults)
    }

    /// Events sorted by time (stable: insertion order breaks ties).
    pub(crate) fn sorted_events(&self) -> Vec<(u64, FaultEvent)> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|(at, _)| *at);
        evs
    }

    /// The fault profile governing `from → to`.
    pub(crate) fn link_for(&self, from: NodeId, to: NodeId) -> LinkFault {
        self.links.get(&(from, to)).copied().unwrap_or(self.default_link)
    }

    /// Removes every link fault (the `ClearLinkFaults` event).
    pub(crate) fn clear_links(&mut self) {
        self.default_link = LinkFault::default();
        self.links.clear();
    }
}
