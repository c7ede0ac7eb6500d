//! View changes: ViewChange/NewView, the view stash that holds messages
//! for a view not adopted yet, laggard help, and timeout escalation.
//!
//! This replica's own view-change vote is built in one place,
//! [`PbftCore::own_vote`], and every incoming ViewChange and NewView
//! enters through [`PbftCore::on_view_change`] / [`PbftCore::on_new_view`]
//! — where ROADMAP item 6's certificate checks go.

use super::node::TICK_EVERY;
use super::{noop, Outbox, PbftCore, PbftMsg, PreparedCert};
use crate::{Batch, Command};
use prever_sim::{NodeId, VoteSet};
use std::collections::{BTreeMap, BTreeSet};

/// Sentinel "view" a replica attaches to already-executed entries in
/// its view-change vote: a committed slot must outrank any conflicting
/// prepared certificate when the new primary merges votes.
const COMMITTED_VIEW: u64 = u64::MAX;
/// Max messages held for a not-yet-adopted view.
const VIEW_STASH_CAP: usize = 1024;
/// Max exponent for the view-change timeout backoff (2^6 = 64×, i.e.
/// 9.6 s at the default timeout). The cap must dwarf any phase offset
/// replicas inherit from earlier, shorter cycles: a replica running
/// one view ahead of the pack has a higher streak and hence a longer
/// window, so it falls back into phase — but only while windows can
/// still grow past the offset scale.
const VC_BACKOFF_CAP: u32 = 6;

impl PbftCore {
    /// This replica's view-change vote: its prepared certificates plus
    /// its executed history, marked with a sentinel view so committed
    /// entries always beat a conflicting prepared cert in the new
    /// primary's merge. Without the history, a replica that already
    /// executed a slot omits its certificate (the `seq > last_exec`
    /// filter of [`Self::prepared_certificates`]), and a new primary
    /// whose own execution lags would no-op-fill a slot that committed
    /// elsewhere — a divergence. Production PBFT bounds this list with
    /// the low-watermark; the sim ships the full history.
    fn own_vote(&self) -> Vec<PreparedCert> {
        let mut vote = self.prepared_certificates();
        vote.extend(
            self.executed_batches
                .iter()
                .map(|(seq, batch, _)| (*seq, COMMITTED_VIEW, batch.clone())),
        );
        vote
    }

    /// The vote this replica recorded for `view`, if any.
    fn my_vote(&self, view: u64) -> Option<&Vec<PreparedCert>> {
        self.vc_votes.get(&view)?.get(&self.id)
    }

    /// Broadcasts this replica's vote for `new_view` and records it.
    fn cast_vote(&mut self, new_view: u64, out: &mut Outbox) {
        let vote = self.own_vote();
        self.vc_votes.entry(new_view).or_default().insert(self.id, vote.clone());
        self.broadcast(out, PbftMsg::ViewChange { new_view, prepared: vote });
    }

    /// The view gate every pre-prepare and vote passes before it is
    /// handled: one for an older view or an executed slot is dropped,
    /// and one for a view this replica has not adopted yet (a future
    /// view, or the current one while its NewView is awaited) is held
    /// until the NewView installs it — links are not FIFO, so a peer's
    /// votes routinely overtake the NewView that makes them countable.
    /// The stash is bounded; overflow drops the message (the view-change
    /// path re-proposes, so a drop costs liveness at worst, never
    /// safety). Everything else passes through.
    pub(super) fn admit(&mut self, from: NodeId, msg: PbftMsg) -> Option<PbftMsg> {
        let Some((view, seq)) = msg.slot_view() else { return Some(msg) };
        if view < self.view || seq <= self.last_exec {
            return None;
        }
        if view > self.view || self.view_changing {
            if self.view_stash.len() < VIEW_STASH_CAP {
                self.view_stash.push((from, msg));
            } else {
                prever_obs::counter!("pbft.view_stash.overflow").inc();
            }
            return None;
        }
        Some(msg)
    }

    /// Re-delivers stashed messages after a view adoption. Messages for
    /// still-future views simply re-stash themselves; stale ones are
    /// pruned by [`Self::adopt_view`] before this runs.
    fn drain_view_stash(&mut self, now: u64, out: &mut Outbox) {
        let stash = std::mem::take(&mut self.view_stash);
        let prev = self.stash_replay;
        self.stash_replay = true;
        for (from, msg) in stash {
            out.extend(self.on_message(from, msg, now));
        }
        self.stash_replay = prev;
    }

    /// Handles a view-change vote from `from` for `new_view`.
    pub(super) fn on_view_change(
        &mut self,
        from: NodeId,
        new_view: u64,
        prepared: Vec<PreparedCert>,
        now: u64,
        out: &mut Outbox,
    ) {
        if new_view < self.view {
            self.help_laggard(from, new_view, now, out);
            return;
        }
        if new_view == self.view && !self.view_changing {
            self.answer_active_view(from, new_view, prepared, out);
            return;
        }
        self.vc_votes.entry(new_view).or_default().insert(from, prepared);
        // Catch-up rule (PBFT §4.5.2): once f + 1 replicas
        // demand views above ours, at least one of them is
        // correct — join the smallest such view, even mid
        // view-change. A replica must not idle below the view
        // the correct majority is assembling, nor jump past
        // views that can still complete.
        let mut ahead = BTreeSet::new();
        let mut smallest = None;
        for (&v, vs) in self.vc_votes.range(self.view + 1..) {
            for &voter in vs.keys() {
                if voter != self.id {
                    ahead.insert(voter);
                    smallest.get_or_insert(v);
                }
            }
        }
        if ahead.len() > self.f() {
            if let Some(v) = smallest {
                self.start_view_change(v, out);
            }
        }
        self.maybe_install_view(new_view, now, out);
    }

    /// The sender is still assembling a quorum for a view we moved past.
    /// Re-send our own vote for it (the original may have been dropped),
    /// or the sender could wait on that quorum forever. If our recorded
    /// vote was pruned (adopt_view drops votes at or below the adopted
    /// view), send a fresh one: a view-change vote is a monotonic demand,
    /// so voting for an older view is always sound, and our current
    /// certificates are a superset of whatever the original vote carried.
    /// Without this, a cluster running with a replica permanently down
    /// can deadlock across adjacent views: the laggards can never
    /// assemble the old-view quorum (we were its missing voter) and we
    /// can never assemble f + 1 demands for the higher view.
    ///
    /// Rate-limited per (view, peer): the reply is itself a ViewChange,
    /// so if the sender has ALSO moved past this view, its laggard-help
    /// path would answer ours and the pair would ping-pong forever (worse
    /// than forever on duplicating links). A stuck laggard re-broadcasts
    /// on its retransmit tick, so one reply per window keeps liveness.
    /// The window is one tick: short enough not to slow real convergence
    /// (duplicated demands inside a tick are noise, distinct ones are
    /// not), long enough that the ping-pong stays a trickle.
    fn help_laggard(&mut self, from: NodeId, new_view: u64, now: u64, out: &mut Outbox) {
        let window_start = now.saturating_sub(TICK_EVERY);
        self.vc_helped.retain(|_, &mut at| at > window_start);
        if self.vc_helped.contains_key(&(new_view, from)) {
            return;
        }
        self.vc_helped.insert((new_view, from), now);
        let prepared = self.my_vote(new_view).cloned().unwrap_or_else(|| self.own_vote());
        self.send(out, from, PbftMsg::ViewChange { new_view, prepared });
    }

    /// The sender is trying to enter the view we are already active in.
    fn answer_active_view(
        &mut self,
        from: NodeId,
        new_view: u64,
        prepared: Vec<PreparedCert>,
        out: &mut Outbox,
    ) {
        // If we are its primary, re-send the NewView: the original may
        // have been lost, and the votes that once proved this view
        // quorate are pruned everywhere once replicas adopt it, so the
        // sender can never re-assemble that quorum. The proposals are
        // reconstructed from our own log, which reflects the real
        // NewView's slot resolution (anything older the sender is
        // missing comes via state transfer, not the NewView).
        if self.is_primary() {
            let proposals: Vec<(u64, Batch)> = self
                .log
                .range(self.last_exec + 1..)
                .filter(|(_, s)| s.view == new_view)
                .filter_map(|(&seq, s)| s.batch.clone().map(|b| (seq, b)))
                .collect();
            prever_obs::log!(
                Debug,
                "replica {} re-sends NewView {new_view} to laggard {from}",
                self.id
            );
            self.send(out, from, PbftMsg::NewView { new_view, proposals });
            return;
        }
        // A non-primary cannot prove the view installed — and it may in
        // fact NOT be: a replica that adopted this view via state
        // transfer (rather than a NewView) can be active in it while the
        // others are still one vote short of the quorum, and under the
        // escalate-only-when-quorate rule they would re-send those votes
        // forever. Cast our own vote once: decisive when the quorum was
        // missing exactly us, harmless when the view is genuinely
        // installed (install is idempotent and active primaries answer
        // votes with the NewView instead).
        self.vc_votes.entry(new_view).or_default().insert(from, prepared);
        if self.my_vote(new_view).is_none() {
            self.cast_vote(new_view, out);
        }
    }

    /// Handles the new primary's installation message for `new_view`.
    pub(super) fn on_new_view(
        &mut self,
        from: NodeId,
        new_view: u64,
        proposals: Vec<(u64, Batch)>,
        now: u64,
        out: &mut Outbox,
    ) {
        if new_view < self.view || from != self.primary_of(new_view) {
            return;
        }
        self.adopt_view(new_view);
        // Process the re-proposals exactly like pre-prepares; they count
        // as received pre-prepares (a NewView is a batch of them).
        for (seq, batch) in proposals {
            let pre_prepare = PbftMsg::PrePrepare { view: new_view, seq, batch };
            out.extend(self.on_message(from, pre_prepare, now));
        }
        // Re-submit pending requests to the new primary (one batched
        // request message).
        let primary = self.primary();
        if primary != self.id {
            let pending: Vec<Command> = self.pending.iter().map(|(c, _)| c.clone()).collect();
            if !pending.is_empty() {
                self.send(out, primary, PbftMsg::Request(Batch::new(pending)));
            }
        }
        // Count any votes that overtook this NewView in flight.
        self.drain_view_stash(now, out);
    }

    /// Initiates (or joins) a view change towards `new_view`.
    pub fn start_view_change(&mut self, new_view: u64, out: &mut Outbox) {
        if new_view <= self.view && self.view_changing {
            return;
        }
        prever_obs::log!(Warn, "replica {} abandons view {} for view {new_view}", self.id, self.view);
        prever_obs::counter!("pbft.view_changes.started").inc();
        self.vc_streak = self.vc_streak.saturating_add(1);
        self.view = new_view;
        self.view_changing = true;
        self.cast_vote(new_view, out);
    }

    fn maybe_install_view(&mut self, new_view: u64, now: u64, out: &mut Outbox) {
        if self.primary_of(new_view) != self.id {
            return;
        }
        let Some(votes) = self.vc_votes.get(&new_view) else { return };
        if votes.len() < self.quorum() {
            return;
        }
        if !self.view_changing && self.view == new_view {
            return; // already installed
        }
        // Merge prepared certificates: per seq keep the highest view.
        let mut merged: BTreeMap<u64, (u64, Batch)> = BTreeMap::new();
        for prepared in votes.values() {
            for (seq, view, batch) in prepared {
                if *seq <= self.last_exec {
                    continue;
                }
                let replace = merged.get(seq).is_none_or(|(v, _)| v < view);
                if replace {
                    merged.insert(*seq, (*view, batch.clone()));
                }
            }
        }
        // Fill gaps with no-op batches up to the max re-proposed seq.
        let max_seq = merged.keys().next_back().copied().unwrap_or(self.last_exec);
        let proposals: Vec<(u64, Batch)> = (self.last_exec + 1..=max_seq)
            .map(|seq| {
                let batch = merged.get(&seq).map(|(_, b)| b.clone()).unwrap_or_else(noop);
                (seq, batch)
            })
            .collect();
        prever_obs::log!(
            Info,
            "replica {} installs view {new_view} with {} re-proposals",
            self.id,
            proposals.len()
        );
        self.adopt_view(new_view);
        self.next_seq = max_seq.max(self.last_exec);
        let msg = PbftMsg::NewView { new_view, proposals: proposals.clone() };
        self.broadcast(out, msg);
        // Apply the proposals locally as pre-prepares.
        for (seq, batch) in proposals {
            self.own_pre_prepare(new_view, seq, batch);
        }
        // Queue any pending requests afresh (original arrival times, so
        // fill-delay and commit-latency accounting stay honest).
        let pending: Vec<(Command, u64)> = self.pending.iter().cloned().collect();
        for (c, since) in pending {
            self.enqueue_for_proposal(c, since);
        }
        self.flush(now, out);
        self.drain_view_stash(now, out);
    }

    pub(super) fn adopt_view(&mut self, new_view: u64) {
        self.view = new_view;
        self.view_changing = false;
        // Drop un-prepared slot state from older views; prepared entries
        // are re-established via the NewView proposals.
        let last_exec = self.last_exec;
        self.log.retain(|seq, s| *seq <= last_exec || s.executed || s.committed);
        for s in self.log.values_mut() {
            if !s.executed && !s.committed {
                s.prepares = VoteSet::new();
                s.commits = VoteSet::new();
                s.early_prepares.clear();
                s.early_commits.clear();
                s.sent_commit = false;
            }
        }
        self.vc_votes.retain(|v, _| *v > new_view);
        // Stashed votes from abandoned views can never count again.
        self.view_stash.retain(|(_, m)| m.slot_view().is_some_and(|(view, _)| view >= new_view));
    }

    /// The view-change half of [`PbftCore::on_tick`]: abandon a view
    /// whose requests have gone stale, or re-send the vote for a view
    /// change still short of its quorum.
    pub(super) fn view_timeout_tick(&mut self, now: u64, timeout: u64, out: &mut Outbox) {
        // Exponential backoff: each consecutive fruitless view change
        // doubles the window the current view gets before we abandon
        // it too, so a recovering cluster is not starved by lockstep
        // escalation (capped; any execution resets the streak).
        let escalate_after = timeout.saturating_mul(1u64 << self.vc_streak.min(VC_BACKOFF_CAP));
        if !self.has_stale_pending(now, escalate_after) {
            return;
        }
        // Refresh pending timestamps so we escalate one view per
        // timeout period rather than every tick.
        for p in self.pending.iter_mut() {
            p.1 = now;
        }
        let quorate = self.vc_votes.get(&self.view).is_some_and(|v| v.len() >= self.quorum());
        if self.view_changing && !quorate {
            // PBFT liveness rule: only escalate past a view change
            // once 2f + 1 replicas demanded it. Escalating earlier
            // strands this replica one view ahead of the pack — in
            // a deterministic lockstep that offset NEVER heals, and
            // every view thereafter is one voter short. Re-send our
            // vote instead (the original may have been dropped) and
            // keep waiting for the quorum to assemble.
            if let Some(prepared) = self.my_vote(self.view).cloned() {
                self.broadcast(out, PbftMsg::ViewChange { new_view: self.view, prepared });
            }
        } else {
            let next = self.view + 1;
            prever_obs::log!(
                Debug,
                "replica {} escalates to view {next} at {now} (window {escalate_after})",
                self.id
            );
            self.start_view_change(next, out);
        }
    }
}
