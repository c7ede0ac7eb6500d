//! `federated-tokens`: the RC3 / SEPAR token path.
//!
//! Three platforms under the global 40-hour regulation enforced with
//! blind-signed single-use tokens, plus one regulation scoped to the two
//! ride-sharing platforms so that the MPC bound check runs on the same
//! tasks. One caller, closed loop; a task's latency is its
//! `submit_task` call. RSA (not Paillier / Schnorr) does the modular
//! arithmetic here.

use super::{
    mismatch_control_detects, mismatches, tampered_chain_is_rejected, tasks_schema, Traced,
    Tracing, TumblingWeekOracle, CROWD,
};
use crate::gen::{round_seed, worker_name, Crowd, Prng, Task, BOUND, WEEK};
use crate::span::Recorder;
use crate::stats::{timed_setup, Timeline};
use crate::{Report, Round, RunCfg};
use bytes::Bytes;
use prever_core::federated::{FederatedDeployment, RegulationStrategy, ScopedRegulation};
use prever_crypto::rsa;
use prever_ledger::{Journal, LedgerKv};
use prever_mpc::FederatedBoundCheck;
use prever_storage::{Database, Row, Value};
use prever_tokens::{Token, TokenAuthority, TokenError};
use rand::Rng;
use std::collections::HashMap;

const PLATFORMS: [&str; 3] = ["uber", "lyft", "ola"];
/// The platforms the scoped regulation counts (the MPC parties).
const SCOPE: [usize; 2] = [0, 1];
/// Bits of each RSA prime: a 1024-bit modulus.
const PRIME_BITS: usize = 512;
/// Pinned for the reason `private_verify::KEY_SEED` is.
const KEY_SEED: u64 = 0x5052_6556_6572_0002;
const PROTOCOL_STREAM: u64 = 4;
/// Builds per round that `setup_s` is the mean of.
const SETUP_REPS: usize = 3;

fn scoped() -> ScopedRegulation {
    ScopedRegulation {
        name: "rideshare-40h".into(),
        bound: BOUND,
        platforms: SCOPE.to_vec(),
    }
}

fn world() -> FederatedDeployment {
    let mut d = FederatedDeployment::new(
        &PLATFORMS,
        RegulationStrategy::Tokens,
        BOUND,
        WEEK,
        PRIME_BITS,
        &mut Prng::new(KEY_SEED, 0),
    );
    d.add_scoped_regulation(scoped())
        .expect("scope names existing platforms");
    d
}

struct PlatformState {
    db: Database,
    journal: Journal,
    totals: HashMap<(String, u64), i64>,
}

/// The steps of `FederatedDeployment::submit_task` on the token path,
/// one public layer call at a time.
struct Decomposed {
    /// Its own copy of the run's randomness.
    rng: Prng,
    authority: TokenAuthority,
    pk: rsa::PublicKey,
    wallets: HashMap<String, HashMap<u64, Vec<Token>>>,
    shared_ledger: LedgerKv,
    mpc: FederatedBoundCheck,
    platforms: Vec<PlatformState>,
    next_task_id: u64,
    spent: u64,
    mpc_checks: u64,
}

impl Decomposed {
    fn new(seed: u64) -> Self {
        let authority = TokenAuthority::new(PRIME_BITS, BOUND, &mut Prng::new(KEY_SEED, 0));
        let pk = authority.public_key().clone();
        let platforms = PLATFORMS
            .iter()
            .map(|_| {
                let mut db = Database::new();
                db.create_table("tasks", tasks_schema())
                    .expect("fresh database");
                PlatformState {
                    db,
                    journal: Journal::new(),
                    totals: HashMap::new(),
                }
            })
            .collect();
        Decomposed {
            rng: Prng::new(seed, PROTOCOL_STREAM),
            authority,
            pk,
            wallets: HashMap::new(),
            shared_ledger: LedgerKv::new(),
            mpc: FederatedBoundCheck::new(),
            platforms,
            next_task_id: 0,
            spent: 0,
            mpc_checks: 0,
        }
    }

    fn submit(&mut self, t: &Task, rec: &mut Recorder) -> Result<bool, String> {
        rec.set_op(t.id);
        rec.enter("core.federated_submit");
        let accepted = self.submit_steps(t, rec);
        rec.exit();
        accepted
    }

    fn submit_steps(&mut self, t: &Task, rec: &mut Recorder) -> Result<bool, String> {
        let worker = worker_name(t.worker);
        let window = t.ts / WEEK;
        let hours = usize::from(t.hours);
        let platform = usize::from(t.platform);

        // Draw tokens from the authority up to the need.
        let wallet = self
            .wallets
            .entry(worker.clone())
            .or_default()
            .entry(window)
            .or_default();
        for _ in wallet.len()..hours {
            rec.enter("tokens.issue");
            let mut nonce = [0u8; 32];
            self.rng.fill(&mut nonce);
            let msg = Token::message(window, &nonce);
            rec.enter("crypto.rsa_blind");
            let blinded = rsa::blind(&self.pk, &msg, &mut self.rng);
            rec.exit();
            let (blinded, state) = blinded.map_err(|e| e.to_string())?;
            rec.enter("crypto.rsa_blind_sign");
            let signed = self.authority.issue_blinded(&worker, window, &blinded);
            rec.exit();
            let blind_sig = match signed {
                Ok(s) => s,
                Err(TokenError::BudgetExhausted { .. }) => {
                    rec.exit();
                    break;
                }
                Err(e) => return Err(e.to_string()),
            };
            rec.enter("crypto.rsa_unblind");
            let signature = rsa::unblind(&self.pk, &blind_sig, &state);
            rec.exit();
            wallet.push(Token {
                window,
                nonce,
                signature: signature.map_err(|e| e.to_string())?,
            });
            rec.exit();
        }
        if wallet.len() < hours {
            return Ok(false);
        }
        // Spend one token per hour through the platform.
        let spent: Vec<Token> = (0..hours)
            .map(|_| wallet.pop().expect("balance checked"))
            .collect();
        for token in &spent {
            rec.enter("tokens.spend");
            let msg = Token::message(token.window, &token.nonce);
            rec.enter("crypto.rsa_verify");
            let verified = self.pk.verify(&msg, &token.signature);
            rec.exit();
            verified.map_err(|e| e.to_string())?;
            let key = format!("spent:{}", token.id_hex());
            if self.shared_ledger.get(&key).is_some() {
                return Err(format!("double spend of {key}"));
            }
            let value = Bytes::from(format!("{}@{}", PLATFORMS[platform], t.ts));
            rec.enter("ledger.kv_put");
            self.shared_ledger.put(t.ts, &key, value);
            rec.exit();
            self.spent += 1;
            rec.exit();
        }
        // The scoped regulation binds tasks of the platforms it names.
        if SCOPE.contains(&platform) {
            let inputs: Vec<i64> = SCOPE
                .iter()
                .map(|&p| {
                    self.platforms[p]
                        .totals
                        .get(&(worker.clone(), window))
                        .copied()
                        .unwrap_or(0)
                })
                .collect();
            self.mpc_checks += 1;
            rec.enter("mpc.check");
            let record =
                self.mpc
                    .check_upper_bound(&inputs, hours as i64, BOUND as i64, &mut self.rng);
            rec.exit();
            if !record.map_err(|e| e.to_string())?.verdict {
                return Ok(false);
            }
        }
        // Incorporate into the platform's private database and journal.
        self.next_task_id += 1;
        let row = Row::new(vec![
            Value::Uint(self.next_task_id),
            Value::Str(worker.clone()),
            Value::Uint(hours as u64),
            Value::Timestamp(t.ts),
        ]);
        let p = &mut self.platforms[platform];
        rec.enter("storage.upsert");
        let change = p.db.insert("tasks", row);
        rec.exit();
        let change = change.map_err(|e| e.to_string())?;
        rec.enter("storage.change_encode");
        let payload = Bytes::from(change.encode());
        rec.exit();
        rec.enter("ledger.append");
        p.journal.append(t.ts, payload);
        rec.exit();
        *p.totals.entry((worker, window)).or_insert(0) += hours as i64;
        Ok(true)
    }
}

/// What a traced run keeps across its rounds.
#[derive(Default)]
struct Layers {
    tracing: Tracing,
    tokens_spent: u64,
    mpc_checks: u64,
    mpc_rounds: u64,
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, ops: usize) -> Report {
    let mut report = Report::default();
    let mut layers = cfg.trace.then(Layers::default);
    let rounds: Vec<Round> = (0..cfg.rounds())
        .map(|r| round(round_seed(cfg.seed, r), ops, &mut report, layers.as_mut()))
        .collect();
    let Some(layers) = layers else {
        report.set_end_to_end(&rounds);
        return report;
    };

    let totals = layers.tracing.rec.totals();
    report.set_span_means(
        &totals,
        &[
            ("tokens.issue_ns_per_token", "tokens.issue"),
            ("tokens.spend_ns_per_token", "tokens.spend"),
            ("crypto.rsa_blind_sign_ns", "crypto.rsa_blind_sign"),
            ("crypto.rsa_verify_ns", "crypto.rsa_verify"),
            ("ledger.kv_put_ns", "ledger.kv_put"),
            ("mpc.check_ns", "mpc.check"),
            ("storage.upsert_ns", "storage.upsert"),
            ("storage.change_encode_ns", "storage.change_encode"),
            ("ledger.append_ns", "ledger.append"),
        ],
    );
    let tasks = layers.tracing.ops.max(1) as f64;
    report.set("tokens.tokens_per_task", layers.tokens_spent as f64 / tasks);
    report.set(
        "mpc.rounds_per_check",
        layers.mpc_rounds as f64 / layers.mpc_checks.max(1) as f64,
    );
    report.set(
        "core.federated_submit_ns",
        layers.tracing.plain_ns as f64 / tasks,
    );
    layers.tracing.finish(&mut report);
    report
}

/// One round: a fresh deployment, `ops` tasks from week 0 on.
fn round(seed: u64, ops: usize, report: &mut Report, mut layers: Option<&mut Layers>) -> Round {
    let tasks = Crowd::new(CROWD, seed).take(ops);
    let mut oracle = TumblingWeekOracle::default();
    let want: Vec<bool> = tasks.iter().map(|t| oracle.decide(t)).collect();
    report.require(
        mismatch_control_detects(&want),
        "negative control: a flipped outcome went unnoticed",
    );

    // A traced run submits each task on the decomposed path right after
    // the untraced one, so that both see the same machine.
    let mut traced = layers.is_some().then(|| Traced::new(Decomposed::new(seed)));
    let (mut d, setup_s) = timed_setup(SETUP_REPS, world);
    let mut rng = Prng::new(seed, PROTOCOL_STREAM);
    let mut got = Vec::with_capacity(ops);
    let mut timeline = Timeline::start(ops);
    for t in &tasks {
        let started = timeline.now_ns();
        let outcome = d.submit_task(
            usize::from(t.platform),
            &worker_name(t.worker),
            u64::from(t.hours),
            t.ts,
            &mut rng,
        );
        let done = timeline.complete(started, 1);
        let accepted = outcome.map(|o| o.is_accepted()).map_err(|e| e.to_string());
        report.outcome(&mut got, format_args!("task {}", t.id), accepted);
        if let (Some(tr), Some(l)) = (&mut traced, layers.as_deref_mut()) {
            l.tracing.plain_ns += done - started;
            tr.step(
                report,
                &mut l.tracing,
                format_args!("decomposed task {}", t.id),
                |d, rec| d.submit(t, rec),
            );
        }
    }
    report.attempted += ops as u64;
    report.failed += mismatches(&got, &want);

    report.require(d.audit_all().is_ok(), "audit_all failed");
    let accepted_hours: u64 = tasks
        .iter()
        .zip(&got)
        .filter(|(_, a)| **a)
        .map(|(t, _)| u64::from(t.hours))
        .sum();
    report.require(
        d.shared_ledger().journal().len() as u64 == accepted_hours,
        "shared-ledger spends differ from accepted hours",
    );
    report.require(
        Journal::verify_chain(
            d.shared_ledger().journal().entries(),
            &d.shared_ledger().digest(),
        )
        .is_ok(),
        "shared ledger failed verify_chain",
    );
    report.require(
        tampered_chain_is_rejected(d.shared_ledger().journal(), &d.shared_ledger().digest()),
        "negative control: tampered shared ledger passed",
    );
    for (&(worker, week), &hours) in &oracle.hours {
        let across: i64 = (0..PLATFORMS.len())
            .map(|p| d.platform_total(p, &worker_name(worker), week))
            .sum();
        if across != hours as i64 || hours > BOUND {
            report.broke(format!(
                "worker {worker} week {week}: {across} hours across platforms, oracle {hours}"
            ));
        }
    }
    let accepted_tasks = got.iter().filter(|a| **a).count();
    let stored: usize = (0..PLATFORMS.len()).map(|p| d.platform_task_count(p)).sum();
    report.require(
        stored == accepted_tasks,
        "platform task counts differ from accepted tasks",
    );

    if let (Some(tr), Some(l)) = (traced, layers) {
        let dec = tr.world;
        l.tracing.ops += ops as u64;
        l.tokens_spent += dec.spent;
        l.mpc_checks += dec.mpc_checks;
        l.mpc_rounds += dec.mpc.stats.rounds;
        report.attempted += ops as u64;
        report.failed += mismatches(&tr.got, &want);
        report.require(
            dec.shared_ledger.digest() == d.shared_ledger().digest(),
            "decomposed path ended at another shared-ledger digest",
        );
        for (p, state) in dec.platforms.iter().enumerate() {
            report.require(
                state.db.table("tasks").map(|t| t.len()).ok() == Some(d.platform_task_count(p)),
                "decomposed path stored another number of tasks",
            );
            report.require(
                Journal::verify_chain(state.journal.entries(), &state.journal.digest()).is_ok(),
                "decomposed platform journal failed verify_chain",
            );
        }
        report.require(
            dec.mpc.stats.rounds == d.mpc_stats().rounds,
            "decomposed path ran another number of MPC rounds",
        );
    }
    Round { setup_s, timeline }
}
