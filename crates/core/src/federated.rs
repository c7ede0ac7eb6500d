//! The federated deployment (Research Challenge 2): multiple mutually
//! distrustful data managers under a global regulation.
//!
//! This is the paper's multi-platform crowdworking setting (§2.3, §5):
//! each platform keeps a **private local database** of the tasks it
//! processed; a public regulation (FLSA: ≤ 40 hours per worker per week
//! *across all platforms*) must hold globally; no platform may learn a
//! worker's activity on the others.
//!
//! Both strategies the paper discusses are implemented behind one API:
//!
//! * [`RegulationStrategy::Tokens`] — Separ's centralized approach: a
//!   trusted authority issues blind-signed single-use tokens (one per
//!   regulated unit per window); platforms verify and spend them on the
//!   shared ledger. Leaks: pseudonymous spend records (public), global
//!   spend totals.
//! * [`RegulationStrategy::Mpc`] — the decentralized approach: the
//!   platforms run the secure bound check of `prever-mpc` over their
//!   private per-(worker, window) totals. Leaks: the verdict and a
//!   blinded difference, recorded per run.
//!
//! Both paths incorporate accepted updates into the submitting
//! platform's local database and journal (RC4 integrity per platform).

use crate::privacy::{LeakageLog, Observer};
use crate::update::UpdateOutcome;
use crate::Result;
use bytes::Bytes;
use prever_ledger::{Journal, LedgerKv};
use prever_mpc::FederatedBoundCheck;
use prever_storage::{Column, ColumnType, Database, Row, Schema, Value};
use prever_tokens::{Platform as TokenVerifier, TokenAuthority, TokenError, Wallet};
use rand::Rng;
use std::collections::HashMap;

/// How the global regulation is enforced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegulationStrategy {
    /// Separ-style centralized single-use tokens.
    Tokens,
    /// Decentralized secure multi-party computation.
    Mpc,
}

/// One platform's private state.
struct PlatformState {
    name: String,
    db: Database,
    journal: Journal,
    /// Private per-(worker, window) hour totals (the platform's own
    /// view; used as its MPC input).
    totals: HashMap<(String, u64), i64>,
}

impl PlatformState {
    fn new(name: &str) -> Self {
        let mut db = Database::new();
        db.create_table(
            "tasks",
            Schema::new(
                vec![
                    Column::new("id", ColumnType::Uint),
                    Column::new("worker", ColumnType::Str),
                    Column::new("hours", ColumnType::Uint),
                    Column::new("ts", ColumnType::Timestamp),
                ],
                &["id"],
            )
            .expect("static schema"),
        )
        .expect("fresh database");
        PlatformState { name: name.to_string(), db, journal: Journal::new(), totals: HashMap::new() }
    }

    fn incorporate(&mut self, id: u64, worker: &str, hours: u64, ts: u64) -> Result<(u64, u64)> {
        let row = Row::new(vec![
            Value::Uint(id),
            Value::Str(worker.to_string()),
            Value::Uint(hours),
            Value::Timestamp(ts),
        ]);
        let change = self.db.insert("tasks", row)?;
        let version = change.version;
        let payload = Bytes::from(change.encode());
        let seq = self.journal.append(ts, payload).seq;
        Ok((version, seq))
    }
}

/// The federated crowdworking deployment.
pub struct FederatedDeployment {
    strategy: RegulationStrategy,
    /// Regulation bound (e.g. 40 hours).
    pub bound: u64,
    /// Window length in timestamp units (e.g. 604 800 s).
    pub window_len: u64,
    platforms: Vec<PlatformState>,
    // Token path state.
    authority: TokenAuthority,
    verifiers: Vec<TokenVerifier>,
    wallets: HashMap<String, Wallet>,
    shared_ledger: LedgerKv,
    // MPC path state.
    mpc: FederatedBoundCheck,
    /// Regulations scoped to platform subsets (checked via MPC).
    scoped: Vec<ScopedRegulation>,
    /// Disclosure record for the whole federation.
    pub leakage: LeakageLog,
    next_task_id: u64,
}

/// A regulation binding only a subset of the platforms — the paper's
/// §5 observation that "it is quite realistic to assume constraints
/// among a subset of the platforms" (e.g. a ride-sharing-only hour cap
/// that does not count delivery work).
///
/// Scoped regulations are verified with MPC among the scoped platforms
/// regardless of the deployment's global strategy: token budgets are
/// inherently global per authority, so subset scopes need the
/// decentralized path (also noted in DESIGN.md).
#[derive(Clone, Debug)]
pub struct ScopedRegulation {
    /// Regulation name (for rejection reporting).
    pub name: String,
    /// Upper bound on the scoped aggregate per window.
    pub bound: u64,
    /// The platforms whose totals the regulation counts.
    pub platforms: Vec<usize>,
}

impl FederatedDeployment {
    /// Creates a federation of `platform_names.len()` platforms under
    /// `strategy`, bound `bound` per window of `window_len`.
    pub fn new<R: Rng + ?Sized>(
        platform_names: &[&str],
        strategy: RegulationStrategy,
        bound: u64,
        window_len: u64,
        prime_bits: usize,
        rng: &mut R,
    ) -> Self {
        let authority = TokenAuthority::new(prime_bits, bound, rng);
        let verifiers = platform_names
            .iter()
            .map(|n| TokenVerifier::new(n, authority.public_key().clone()))
            .collect();
        FederatedDeployment {
            strategy,
            bound,
            window_len,
            platforms: platform_names.iter().map(|n| PlatformState::new(n)).collect(),
            authority,
            verifiers,
            wallets: HashMap::new(),
            shared_ledger: LedgerKv::new(),
            mpc: FederatedBoundCheck::new(),
            scoped: Vec::new(),
            leakage: LeakageLog::new(),
            next_task_id: 0,
        }
    }

    /// Registers a subset-scoped regulation. Out-of-range platform
    /// indices are rejected.
    pub fn add_scoped_regulation(&mut self, regulation: ScopedRegulation) -> Result<()> {
        if regulation.platforms.iter().any(|&p| p >= self.platforms.len()) {
            return Err(crate::PreverError::Invariant("scoped regulation names unknown platform"));
        }
        if regulation.platforms.is_empty() {
            return Err(crate::PreverError::Invariant("scoped regulation has empty scope"));
        }
        self.scoped.push(regulation);
        Ok(())
    }

    /// The regulation window of a timestamp.
    pub fn window_of(&self, ts: u64) -> u64 {
        ts / self.window_len
    }

    /// Submits a completed task: `worker` worked `hours` on platform
    /// `platform` at time `ts`. Returns the verified outcome.
    pub fn submit_task<R: Rng + ?Sized>(
        &mut self,
        platform: usize,
        worker: &str,
        hours: u64,
        ts: u64,
        rng: &mut R,
    ) -> Result<UpdateOutcome> {
        let window = self.window_of(ts);
        let admitted = match self.strategy {
            RegulationStrategy::Tokens => self.verify_tokens(platform, worker, hours, window, ts, rng)?,
            RegulationStrategy::Mpc => self.verify_mpc(platform, worker, hours, window, ts, rng)?,
        };
        if !admitted {
            return Ok(UpdateOutcome::Rejected { constraint: format!("FLSA<={}", self.bound) });
        }
        // Subset-scoped regulations: only those covering the submitting
        // platform constrain this task.
        let scoped: Vec<ScopedRegulation> = self
            .scoped
            .iter()
            .filter(|r| r.platforms.contains(&platform))
            .cloned()
            .collect();
        for regulation in scoped {
            let inputs: Vec<i64> = regulation
                .platforms
                .iter()
                .map(|&p| {
                    self.platforms[p]
                        .totals
                        .get(&(worker.to_string(), window))
                        .copied()
                        .unwrap_or(0)
                })
                .collect();
            // MPC needs ≥ 2 parties; a singleton scope is a local check.
            let verdict = if inputs.len() == 1 {
                inputs[0] + hours as i64 <= regulation.bound as i64
            } else {
                let record = self.mpc.check_upper_bound(
                    &inputs,
                    hours as i64,
                    regulation.bound as i64,
                    rng,
                )?;
                self.leakage.record(
                    ts,
                    Observer::DataManager(format!("scope:{}", regulation.name)),
                    "verdict",
                    format!("{}", record.verdict),
                );
                record.verdict
            };
            if !verdict {
                return Ok(UpdateOutcome::Rejected { constraint: regulation.name.clone() });
            }
        }
        self.next_task_id += 1;
        let id = self.next_task_id;
        let (version, seq) = self.platforms[platform].incorporate(id, worker, hours, ts)?;
        *self.platforms[platform]
            .totals
            .entry((worker.to_string(), window))
            .or_insert(0) += hours as i64;
        Ok(UpdateOutcome::Accepted { version, ledger_seq: seq })
    }

    fn verify_tokens<R: Rng + ?Sized>(
        &mut self,
        platform: usize,
        worker: &str,
        hours: u64,
        window: u64,
        ts: u64,
        rng: &mut R,
    ) -> Result<bool> {
        let wallet = self
            .wallets
            .entry(worker.to_string())
            .or_insert_with(|| Wallet::new(worker));
        // Lazily draw tokens from the authority up to the need.
        if (wallet.balance(window) as u64) < hours {
            let need = hours - wallet.balance(window) as u64;
            match wallet.request_tokens(&mut self.authority, window, need, rng) {
                Ok(_) | Err(TokenError::BudgetExhausted { .. }) => {}
                Err(e) => return Err(e.into()),
            }
        }
        if (wallet.balance(window) as u64) < hours {
            // Not enough budget left: regulation would be violated.
            self.leakage.record(
                ts,
                Observer::Authority("authority".into()),
                "issuance-denied",
                format!("{worker} window {window}"),
            );
            return Ok(false);
        }
        // Spend one token per hour through this platform, all of them or
        // none. All tokens are valid and unspent by construction;
        // verification failures are real errors.
        let mut spent = Vec::with_capacity(hours as usize);
        for _ in 0..hours {
            spent.push(wallet.spend(window)?);
        }
        self.verifiers[platform].verify_and_spend_all(&spent, window, &mut self.shared_ledger, ts)?;
        for token in &spent {
            self.leakage.record(
                ts,
                Observer::Public,
                "token-spend",
                format!("nonce {} via {}", &token.id_hex()[..8], self.platforms[platform].name),
            );
        }
        Ok(true)
    }

    fn verify_mpc<R: Rng + ?Sized>(
        &mut self,
        _platform: usize,
        worker: &str,
        hours: u64,
        window: u64,
        ts: u64,
        rng: &mut R,
    ) -> Result<bool> {
        let inputs: Vec<i64> = self
            .platforms
            .iter()
            .map(|p| p.totals.get(&(worker.to_string(), window)).copied().unwrap_or(0))
            .collect();
        let record = self
            .mpc
            .check_upper_bound(&inputs, hours as i64, self.bound as i64, rng)?;
        self.leakage.record(
            ts,
            Observer::DataManager("all-platforms".into()),
            "blinded-difference",
            format!("{}", record.blinded_difference),
        );
        self.leakage.record(
            ts,
            Observer::DataManager("all-platforms".into()),
            "verdict",
            format!("{}", record.verdict),
        );
        Ok(record.verdict)
    }

    /// A platform's private view: its local task count.
    pub fn platform_task_count(&self, platform: usize) -> usize {
        self.platforms[platform].db.table("tasks").expect("tasks table").len()
    }

    /// A platform's private per-worker total for a window.
    pub fn platform_total(&self, platform: usize, worker: &str, window: u64) -> i64 {
        self.platforms[platform]
            .totals
            .get(&(worker.to_string(), window))
            .copied()
            .unwrap_or(0)
    }

    /// The shared spent-token ledger (token strategy).
    pub fn shared_ledger(&self) -> &LedgerKv {
        &self.shared_ledger
    }

    /// Audits every platform's journal.
    pub fn audit_all(&self) -> Result<()> {
        for p in &self.platforms {
            Journal::verify_chain(p.journal.entries(), &p.journal.digest())
                .map_err(crate::PreverError::Ledger)?;
        }
        Ok(())
    }

    /// Accumulated MPC statistics (MPC strategy).
    pub fn mpc_stats(&self) -> prever_mpc::MpcStats {
        self.mpc.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    const WEEK: u64 = 604_800;

    fn deployment(strategy: RegulationStrategy) -> (FederatedDeployment, StdRng) {
        let mut rng = StdRng::seed_from_u64(17);
        let d = FederatedDeployment::new(&["uber", "lyft"], strategy, 40, WEEK, 96, &mut rng);
        (d, rng)
    }

    fn check_flsa(strategy: RegulationStrategy) {
        let (mut d, mut rng) = deployment(strategy);
        // 25h on platform 0, then 15h on platform 1: exactly 40, fine.
        assert!(d.submit_task(0, "driver-1", 25, 100, &mut rng).unwrap().is_accepted());
        assert!(d.submit_task(1, "driver-1", 15, 200, &mut rng).unwrap().is_accepted());
        // One more hour anywhere is rejected — the *global* bound binds.
        assert!(!d.submit_task(0, "driver-1", 1, 300, &mut rng).unwrap().is_accepted());
        assert!(!d.submit_task(1, "driver-1", 1, 400, &mut rng).unwrap().is_accepted());
        // Another worker is unaffected.
        assert!(d.submit_task(1, "driver-2", 40, 500, &mut rng).unwrap().is_accepted());
        // Next week the budget resets.
        assert!(d.submit_task(0, "driver-1", 40, WEEK + 100, &mut rng).unwrap().is_accepted());
        // Local views: each platform only has its own tasks.
        assert_eq!(d.platform_total(0, "driver-1", 0), 25);
        assert_eq!(d.platform_total(1, "driver-1", 0), 15);
        d.audit_all().unwrap();
    }

    #[test]
    fn flsa_enforced_globally_with_tokens() {
        check_flsa(RegulationStrategy::Tokens);
    }

    #[test]
    fn flsa_enforced_globally_with_mpc() {
        check_flsa(RegulationStrategy::Mpc);
    }

    #[test]
    fn tokens_leak_pseudonymous_spends_only() {
        let (mut d, mut rng) = deployment(RegulationStrategy::Tokens);
        d.submit_task(0, "driver-1", 3, 100, &mut rng).unwrap();
        assert_eq!(d.leakage.of_kind("token-spend").count(), 3);
        assert!(d.leakage.never_discloses("driver-1"));
        // Ledger contains 3 pseudonymous spends.
        assert_eq!(d.shared_ledger().journal().len(), 3);
    }

    #[test]
    fn mpc_leaks_verdict_and_blinded_difference_only() {
        let (mut d, mut rng) = deployment(RegulationStrategy::Mpc);
        d.submit_task(0, "driver-1", 30, 100, &mut rng).unwrap();
        d.submit_task(1, "driver-1", 5, 200, &mut rng).unwrap();
        assert_eq!(d.leakage.of_kind("verdict").count(), 2);
        assert_eq!(d.leakage.of_kind("blinded-difference").count(), 2);
        assert!(d.leakage.never_discloses("driver-1"));
        assert!(d.mpc_stats().triples_used >= 2);
    }

    #[test]
    fn platforms_do_not_see_each_other() {
        let (mut d, mut rng) = deployment(RegulationStrategy::Mpc);
        d.submit_task(0, "driver-1", 10, 100, &mut rng).unwrap();
        d.submit_task(1, "driver-1", 10, 200, &mut rng).unwrap();
        assert_eq!(d.platform_task_count(0), 1);
        assert_eq!(d.platform_task_count(1), 1);
        assert_eq!(d.platform_total(0, "driver-1", 0), 10);
        assert_eq!(d.platform_total(1, "driver-1", 0), 10);
    }

    #[test]
    fn rejected_tasks_leave_no_trace() {
        let (mut d, mut rng) = deployment(RegulationStrategy::Tokens);
        d.submit_task(0, "w", 40, 100, &mut rng).unwrap();
        let before0 = d.platform_task_count(0);
        let ledger_before = d.shared_ledger().journal().len();
        assert!(!d.submit_task(0, "w", 5, 200, &mut rng).unwrap().is_accepted());
        assert_eq!(d.platform_task_count(0), before0);
        assert_eq!(d.shared_ledger().journal().len(), ledger_before);
    }

    #[test]
    fn scoped_regulation_binds_only_its_subset() {
        // Three platforms; a ride-sharing cap of 20h covers only
        // platforms {0, 1}; the global FLSA bound stays 40h.
        let mut rng = StdRng::seed_from_u64(23);
        let mut d =
            FederatedDeployment::new(&["uber", "lyft", "doordash"], RegulationStrategy::Mpc, 40, WEEK, 96, &mut rng);
        d.add_scoped_regulation(ScopedRegulation {
            name: "ride-sharing-20h".into(),
            bound: 20,
            platforms: vec![0, 1],
        })
        .unwrap();
        // 12h on uber + 8h on lyft = 20: at the scoped cap.
        assert!(d.submit_task(0, "w", 12, 100, &mut rng).unwrap().is_accepted());
        assert!(d.submit_task(1, "w", 8, 200, &mut rng).unwrap().is_accepted());
        // One more ride-sharing hour violates the scoped regulation.
        let outcome = d.submit_task(0, "w", 1, 300, &mut rng).unwrap();
        assert_eq!(outcome, UpdateOutcome::Rejected { constraint: "ride-sharing-20h".into() });
        // But delivery work (platform 2) is outside the scope and only
        // bound by the global 40h: 20 more hours are fine.
        assert!(d.submit_task(2, "w", 20, 400, &mut rng).unwrap().is_accepted());
        // Global bound still binds across everything: 20 + 20 = 40.
        assert!(!d.submit_task(2, "w", 1, 500, &mut rng).unwrap().is_accepted());
    }

    #[test]
    fn scoped_regulation_validation() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut d = FederatedDeployment::new(&["a", "b"], RegulationStrategy::Mpc, 40, WEEK, 96, &mut rng);
        assert!(d
            .add_scoped_regulation(ScopedRegulation { name: "x".into(), bound: 10, platforms: vec![5] })
            .is_err());
        assert!(d
            .add_scoped_regulation(ScopedRegulation { name: "x".into(), bound: 10, platforms: vec![] })
            .is_err());
        // Singleton scope works as a local per-platform cap.
        d.add_scoped_regulation(ScopedRegulation { name: "solo-5h".into(), bound: 5, platforms: vec![0] })
            .unwrap();
        assert!(d.submit_task(0, "w", 5, 100, &mut rng).unwrap().is_accepted());
        let outcome = d.submit_task(0, "w", 1, 200, &mut rng).unwrap();
        assert_eq!(outcome, UpdateOutcome::Rejected { constraint: "solo-5h".into() });
        assert!(d.submit_task(1, "w", 10, 300, &mut rng).unwrap().is_accepted());
    }

    #[test]
    fn oversized_single_task_rejected() {
        for strategy in [RegulationStrategy::Tokens, RegulationStrategy::Mpc] {
            let (mut d, mut rng) = deployment(strategy);
            assert!(
                !d.submit_task(0, "w", 41, 100, &mut rng).unwrap().is_accepted(),
                "{strategy:?}"
            );
        }
    }
}
