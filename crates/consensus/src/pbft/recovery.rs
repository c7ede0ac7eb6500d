//! Checkpoints, state transfer, and [`PbftCore::install_history`]: how a
//! replica proves, truncates and rebuilds its executed history.

use super::{keep_highest_view, Byzantine, Outbox, PbftCore, PbftMsg, PreparedCert};
use crate::Batch;
use prever_crypto::Digest;
use prever_sim::NodeId;
use std::collections::BTreeMap;

/// Re-request an unanswered state transfer after this long (µs).
const SYNC_RETRY: u64 = 200_000;
/// Anti-entropy checkpoint heartbeat period.
const HEARTBEAT_EVERY: u64 = 500_000; // 500 ms

impl PbftCore {
    /// Installs a recovered execution history into a *fresh* core.
    ///
    /// `entries` are `(batch seq, batch, decided_at)` from the durable
    /// log, dense from 1; `bindings` are recovered `(seq, view, digest)`
    /// vote bindings (only those above the replayed history still
    /// matter). Progress time and the view-change streak are left alone:
    /// replaying the disk is not progress.
    pub fn install_history(
        &mut self,
        entries: Vec<(u64, Batch, u64)>,
        bindings: Vec<(u64, u64, Digest)>,
        prepared: Vec<PreparedCert>,
    ) {
        assert!(
            self.last_exec == 0 && self.executed_batches.is_empty(),
            "install_history requires a fresh core"
        );
        for (seq, batch, at) in entries {
            assert_eq!(seq, self.last_exec + 1, "durable history must be dense");
            self.record_execution(seq, batch, at);
        }
        self.next_seq = self.last_exec;
        for (seq, view, digest) in bindings {
            if seq > self.last_exec {
                keep_highest_view(&mut self.durable_bindings, seq, view, digest);
            }
        }
        // Re-assert the prepared certificates we claimed (via commit
        // votes) before the restart. Bypass remember_cert: these are
        // already on disk.
        for (seq, view, batch) in prepared {
            if seq > self.last_exec {
                keep_highest_view(&mut self.certs, seq, view, batch);
            }
        }
    }

    /// Starts a state transfer: asks every peer for the executed suffix
    /// above our `last_exec`.
    pub fn request_sync(&mut self, now: u64) -> Outbox {
        let mut out = Outbox::new();
        if self.byz == Byzantine::Silent {
            return out;
        }
        self.syncing = true;
        self.last_sync_at = now;
        self.sync_responses.clear();
        prever_obs::counter!("pbft.state_transfer.requests").inc();
        self.broadcast(&mut out, PbftMsg::StateRequest { have: self.last_exec });
        out
    }

    /// Answers a state-transfer request with the executed suffix above
    /// `have`.
    pub(super) fn on_state_request(&mut self, from: NodeId, have: u64, out: &mut Outbox) {
        if from == self.id {
            return;
        }
        // Executed batch seqs are dense from 1, so the suffix above
        // `have` is simply `executed_batches[have..]`.
        let entries: Vec<(u64, Batch)> = self
            .executed_batches
            .iter()
            .skip(have as usize)
            .map(|(seq, batch, _)| (*seq, batch.clone()))
            .collect();
        self.send(out, from, PbftMsg::StateResponse { view: self.view, entries });
    }

    /// Records one responder's suffix and applies what the responses so
    /// far agree on.
    pub(super) fn on_state_response(
        &mut self,
        from: NodeId,
        view: u64,
        entries: Vec<(u64, Batch)>,
        now: u64,
    ) {
        if !self.syncing || from == self.id {
            return;
        }
        self.sync_responses.insert(from, (view, entries.into_iter().collect()));
        self.apply_sync(now);
    }

    /// Applies every command on which `f + 1` state-transfer responders
    /// agree, then adopts the view a quorum-minus-f of them has reached
    /// and finishes the sync once a full quorum has answered.
    fn apply_sync(&mut self, now: u64) {
        let need = self.f() + 1;
        loop {
            let next = self.last_exec + 1;
            // Count agreeing digests for the next sequence. At most one
            // digest can reach f + 1 among n - 1 responders with at
            // most f faulty, so the first hit is the only hit.
            let mut counts: BTreeMap<Digest, (usize, Batch)> = BTreeMap::new();
            for (_, suffix) in self.sync_responses.values() {
                if let Some(b) = suffix.get(&next) {
                    let e = counts.entry(b.digest()).or_insert_with(|| (0, b.clone()));
                    e.0 += 1;
                }
            }
            match counts.into_values().find(|(n, _)| *n >= need) {
                Some((_, batch)) => {
                    prever_obs::log!(
                        Debug,
                        "replica {} sync-applies seq {next} ({} commands) at {now}",
                        self.id,
                        batch.len()
                    );
                    self.apply_synced_batch(batch, now)
                }
                None => break,
            }
        }
        // Adopt a view at least f + 1 responders have reached (at least
        // one of them is correct, so the view is legitimate).
        let mut views: Vec<u64> = self.sync_responses.values().map(|(v, _)| *v).collect();
        views.sort_unstable_by(|a, b| b.cmp(a));
        if views.len() >= need {
            let v = views[need - 1];
            if v > self.view {
                prever_obs::log!(Debug, "replica {} sync-adopts view {v} at {now}", self.id);
                self.adopt_view(v);
                if self.primary() == self.id {
                    // We would be this view's primary, but we never
                    // assembled its view-change quorum — the responders
                    // may merely be DEMANDING the view (StateResponse
                    // reports the demanded view while view-changing).
                    // Acting as an active primary here mints fresh
                    // batches at sequences whose committed resolution
                    // we cannot know, which is how a recovered replica
                    // once executed a quorum-less batch (seed 332 of
                    // the gateway-failover sweep). Stay passive: if the
                    // cluster truly needs this view, our view-change
                    // timer escalates and the normal install path —
                    // which reconciles prepared certificates — runs.
                    self.view_changing = true;
                }
            }
        }
        if self.sync_responses.len() >= self.quorum() {
            self.finish_sync();
        }
    }

    fn apply_synced_batch(&mut self, batch: Batch, now: u64) {
        let next = self.last_exec + 1;
        self.pending.retain(|(c, _)| !batch.contains_id(c.id));
        self.synced += batch.len() as u64;
        prever_obs::counter!("pbft.state_transfer.synced").add(batch.len() as u64);
        self.record_execution(next, batch, now);
        self.log.remove(&next);
        self.last_progress_at = now;
        self.vc_streak = 0;
    }

    fn finish_sync(&mut self) {
        self.syncing = false;
        self.sync_responses.clear();
        prever_obs::counter!("pbft.state_transfer.completed").inc();
    }

    /// This replica's checkpoint vote for everything it has executed.
    pub(super) fn checkpoint(&self) -> PbftMsg {
        PbftMsg::Checkpoint { seq: self.last_exec, state_digest: self.running_state }
    }

    /// Counts a checkpoint vote; `2f + 1` matching votes make `seq`
    /// stable and truncate everything executed at or below it.
    pub(super) fn record_checkpoint_vote(&mut self, from: NodeId, seq: u64, state_digest: Digest) {
        if seq <= self.stable_seq {
            return;
        }
        let votes = self.checkpoint_votes.entry((seq, state_digest)).or_default();
        votes.add(from);
        if votes.len() >= self.quorum() {
            prever_obs::log!(Debug, "replica {} stable checkpoint at seq {seq}", self.id);
            self.stable_seq = seq;
            self.log.retain(|s, slot| *s > seq || !slot.executed);
            self.checkpoint_votes.retain(|(s, _), _| *s > seq);
        }
    }

    /// The recovery half of [`PbftCore::on_tick`]: state-transfer retries,
    /// lag detection, and the anti-entropy checkpoint heartbeat.
    pub(super) fn recovery_tick(&mut self, now: u64, timeout: u64, out: &mut Outbox) {
        if self.syncing {
            if now.saturating_sub(self.last_sync_at) > SYNC_RETRY {
                if self.sync_responses.len() > self.f() {
                    // Enough answers to have applied everything f + 1
                    // agree on; stop waiting for the stragglers.
                    self.finish_sync();
                } else {
                    out.extend(self.request_sync(now));
                }
            }
        } else if self.max_seen_seq > self.last_exec
            && now.saturating_sub(self.last_progress_at) > timeout
        {
            // Lag detection: peers are working on sequences we never
            // executed and nothing has progressed locally for a whole
            // timeout — fetch state. This deliberately does NOT
            // suppress the view-change path: if the whole cluster is
            // stuck (nobody executed further), only a view change
            // restores liveness, and the sync comes back empty-handed.
            self.last_progress_at = now;
            out.extend(self.request_sync(now));
        }
        // Anti-entropy heartbeat: periodically re-broadcast our latest
        // checkpoint. A replica that restarted after the cluster went
        // quiescent has no pending requests and sees no traffic, so
        // without this it would never learn it is behind (lag
        // detection needs evidence of higher sequence numbers).
        if now.saturating_sub(self.last_hb_at) > HEARTBEAT_EVERY {
            self.last_hb_at = now;
            if self.last_exec > 0 {
                self.broadcast(out, self.checkpoint());
            }
        }
    }
}
