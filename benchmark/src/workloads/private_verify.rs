//! `private-verify`: the RC1 outsourced deployment.
//!
//! Per update the producer encrypts the hours under the owner's
//! 1024-bit Paillier key, commits to them and proves them in range
//! (`single::produce_update`); the untrusted manager verifies the proof,
//! adds homomorphically, re-randomizes, asks the owner for the verdict
//! and journals (`OutsourcedManager::submit`). One caller, closed loop;
//! an update's latency is produce + submit. Crypto does almost all the
//! work.

use super::{mismatch_control_detects, mismatches, Traced, Tracing, TumblingWeekOracle, CROWD};
use crate::gen::{round_seed, worker_name, Crowd, Prng, Task, BOUND, WEEK};
use crate::span::Recorder;
use crate::stats::{timed_setup, Timeline};
use crate::{Report, Round, RunCfg};
use bytes::Bytes;
use prever_core::privacy::{LeakageEvent, LeakageLog, Observer};
use prever_core::single::{self, DataOwner, OutsourcedManager, PublicParams, AMOUNT_BITS};
use prever_crypto::bignum::BigUint;
use prever_crypto::paillier::Ciphertext;
use prever_crypto::schnorr::{self, RangeProof};
use prever_ledger::Journal;
use std::collections::BTreeMap;

/// Bits of each Paillier prime: a 1024-bit modulus.
const PRIME_BITS: usize = 512;

/// Key material is pinned, not drawn from `--seed`: key generation is a
/// random prime search whose duration varies by a factor of several
/// with the seed, and `setup_s` would measure the seed's luck. Traffic
/// and proof randomness still come from `--seed`.
const KEY_SEED: u64 = 0x5052_6556_6572_0001;

/// The stream proof and encryption randomness is drawn from.
const PROOF_STREAM: u64 = 3;

fn world() -> (DataOwner, OutsourcedManager) {
    let owner = DataOwner::new(PRIME_BITS, &mut Prng::new(KEY_SEED, 0));
    let manager = OutsourcedManager::new(owner.public_params(), BOUND);
    (owner, manager)
}

/// The steps of `produce_update` + `OutsourcedManager::submit`, one
/// public layer call at a time.
struct Decomposed {
    /// The owner, with the same pinned keys as the untraced path's.
    owner: DataOwner,
    /// Its own copy of the run's randomness.
    rng: Prng,
    params: PublicParams,
    accumulators: BTreeMap<(String, u64), Ciphertext>,
    journal: Journal,
}

impl Decomposed {
    fn new(seed: u64) -> Self {
        let (owner, _) = world();
        Decomposed {
            params: owner.public_params(),
            owner,
            rng: Prng::new(seed, PROOF_STREAM),
            accumulators: BTreeMap::new(),
            journal: Journal::new(),
        }
    }

    fn apply(&mut self, t: &Task, rec: &mut Recorder) -> Result<bool, String> {
        let subject = worker_name(t.worker);
        let window = t.ts / WEEK;
        let group = &self.params.group;
        rec.set_op(t.id);

        rec.enter("core.single_produce");
        rec.enter("crypto.paillier_encrypt");
        let enc_amount = self
            .params
            .paillier
            .encrypt_u64(u64::from(t.hours), &mut self.rng);
        rec.exit();
        let enc_amount = enc_amount.map_err(|e| e.to_string())?;
        let m = BigUint::from_u64(u64::from(t.hours));
        rec.enter("crypto.pedersen_commit");
        let committed = schnorr::commit(group, &m, &mut self.rng);
        rec.exit();
        let (commitment, r) = committed.map_err(|e| e.to_string())?;
        rec.enter("crypto.range_prove");
        let proof = RangeProof::prove(
            group,
            &commitment,
            &m,
            &r,
            AMOUNT_BITS,
            subject.as_bytes(),
            &mut self.rng,
        );
        rec.exit();
        let proof = proof.map_err(|e| e.to_string())?;
        rec.exit();

        rec.enter("core.single_submit");
        let accepted =
            self.submit_steps(t, &subject, window, &enc_amount, &commitment, &proof, rec);
        rec.exit();
        accepted
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_steps(
        &mut self,
        t: &Task,
        subject: &str,
        window: u64,
        enc_amount: &Ciphertext,
        commitment: &schnorr::Commitment,
        proof: &RangeProof,
        rec: &mut Recorder,
    ) -> Result<bool, String> {
        rec.enter("crypto.range_verify");
        let verified = proof.verify(
            &self.params.group,
            commitment,
            AMOUNT_BITS,
            subject.as_bytes(),
        );
        rec.exit();
        verified.map_err(|e| e.to_string())?;
        let key = (subject.to_string(), window);
        let candidate = match self.accumulators.get(&key) {
            Some(acc) => {
                rec.enter("crypto.paillier_add");
                let sum = self.params.paillier.add(acc, enc_amount);
                rec.exit();
                sum.map_err(|e| e.to_string())?
            }
            None => enc_amount.clone(),
        };
        rec.enter("crypto.paillier_rerandomize");
        let query = self.params.paillier.rerandomize(&candidate, &mut self.rng);
        rec.exit();
        let query = query.map_err(|e| e.to_string())?;
        rec.enter("crypto.paillier_decrypt");
        let verdict = self.owner.verdict(&query, BOUND);
        rec.exit();
        if !verdict.map_err(|e| e.to_string())? {
            return Ok(false);
        }
        self.accumulators.insert(key, candidate);
        let mut payload = Vec::new();
        payload.extend_from_slice(&t.id.to_be_bytes());
        payload.extend_from_slice(&window.to_be_bytes());
        payload.extend_from_slice(subject.as_bytes());
        payload.extend_from_slice(&enc_amount.as_biguint().to_bytes_be());
        rec.enter("ledger.append");
        self.journal.append(t.ts, Bytes::from(payload));
        rec.exit();
        Ok(true)
    }
}

/// What a traced run keeps across its rounds.
#[derive(Default)]
struct Layers {
    tracing: Tracing,
    produce_ns: u64,
    submit_ns: u64,
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
            ("crypto.paillier_encrypt_ns", "crypto.paillier_encrypt"),
            ("crypto.paillier_add_ns", "crypto.paillier_add"),
            (
                "crypto.paillier_rerandomize_ns",
                "crypto.paillier_rerandomize",
            ),
            ("crypto.paillier_decrypt_ns", "crypto.paillier_decrypt"),
            ("crypto.pedersen_commit_ns", "crypto.pedersen_commit"),
            ("crypto.range_prove_ns", "crypto.range_prove"),
            ("crypto.range_verify_ns", "crypto.range_verify"),
            ("ledger.append_ns", "ledger.append"),
        ],
    );
    let per_op = |ns: u64| ns as f64 / layers.tracing.ops.max(1) as f64;
    report.set("core.single_produce_ns", per_op(layers.produce_ns));
    report.set("core.single_submit_ns", per_op(layers.submit_ns));
    layers.tracing.finish(&mut report);
    report
}

/// One round: a fresh owner and manager, `ops` updates.
fn round(seed: u64, ops: usize, report: &mut Report, mut layers: Option<&mut Layers>) -> Round {
    let tasks = Crowd::new(CROWD, seed).take(ops);
    let mut oracle = TumblingWeekOracle::default();
    let want: Vec<bool> = tasks.iter().map(|t| oracle.decide(t)).collect();
    report.require(
        mismatch_control_detects(&want),
        "negative control: a flipped outcome went unnoticed",
    );

    // A traced run applies each update on the decomposed path right
    // after the untraced one, so that both see the same machine.
    let mut traced = layers.is_some().then(|| Traced::new(Decomposed::new(seed)));
    let ((mut owner, mut manager), setup_s) = timed_setup(1, world);
    let params = owner.public_params();
    let mut rng = Prng::new(seed, PROOF_STREAM);
    let mut got = Vec::with_capacity(ops);
    let mut timeline = Timeline::start(ops);
    for t in &tasks {
        let started = timeline.now_ns();
        let subject = worker_name(t.worker);
        let produced = single::produce_update(
            &params,
            t.id,
            &subject,
            t.ts / WEEK,
            u64::from(t.hours),
            t.ts,
            &mut rng,
        );
        let mid = timeline.now_ns();
        let outcome = produced.and_then(|u| manager.submit(&u, &mut owner, &mut rng));
        let done = timeline.complete(started, 1);
        let accepted = outcome.map(|o| o.is_accepted()).map_err(|e| e.to_string());
        report.outcome(&mut got, format_args!("update {}", t.id), accepted);
        if let (Some(tr), Some(l)) = (&mut traced, layers.as_deref_mut()) {
            l.produce_ns += mid - started;
            l.submit_ns += done - mid;
            l.tracing.plain_ns += done - started;
            tr.step(
                report,
                &mut l.tracing,
                format_args!("decomposed update {}", t.id),
                |d, rec| d.apply(t, rec),
            );
        }
    }
    report.attempted += ops as u64;
    report.failed += mismatches(&got, &want);

    // The owner decrypts what the manager holds: plaintext sums.
    for (&(worker, week), &hours) in &oracle.hours {
        let sum = manager
            .accumulator(&worker_name(worker), week)
            .map(|c| owner.decrypt(c));
        let held = match sum {
            Some(Ok(v)) => v == BigUint::from_u64(hours) && hours <= BOUND,
            Some(Err(_)) => false,
            None => hours == 0,
        };
        if !held {
            report.broke(format!(
                "accumulator of worker {worker} week {week} is not {hours}"
            ));
        }
    }
    let accepted = got.iter().filter(|a| **a).count() as u64;
    report.require(
        manager.stats() == (accepted, ops as u64 - accepted),
        "manager stats disagree with outcomes",
    );
    report.require(
        Journal::verify_chain(manager.journal().entries(), &manager.digest()).is_ok(),
        "manager journal failed verify_chain",
    );
    report.require(
        leakage_is_public_only(&manager.leakage, &tasks, &got),
        "leakage log discloses more than pattern and verdict",
    );
    report.require(
        leakage_control_detects(&manager.leakage, &tasks, &got),
        "negative control: a leaked amount went unnoticed",
    );

    if let (Some(tr), Some(l)) = (traced, layers) {
        l.tracing.ops += ops as u64;
        report.attempted += ops as u64;
        report.failed += mismatches(&tr.got, &want);
        report.require(
            tr.world.journal.digest() == manager.digest(),
            "decomposed path ended at another ledger digest",
        );
    }
    Round { setup_s, timeline }
}

/// What the manager's log may hold for task `t`: the owner saw a
/// ciphertext, the manager saw the verdict and the pattern. Nothing in
/// these strings depends on the hours.
fn expected_events(t: &Task, accepted: bool) -> [LeakageEvent; 3] {
    let subject = worker_name(t.worker);
    let window = t.ts / WEEK;
    let event = |observer, kind, detail| LeakageEvent {
        at: t.ts,
        observer,
        kind,
        detail,
    };
    [
        event(
            Observer::DataOwner("owner".into()),
            "candidate-total",
            format!("ciphertext for ({subject}, w{window})"),
        ),
        event(
            Observer::DataManager("manager".into()),
            "verdict",
            format!(
                "update {} {}",
                t.id,
                if accepted { "accepted" } else { "rejected" }
            ),
        ),
        event(
            Observer::DataManager("manager".into()),
            "update-pattern",
            format!("subject={subject} window={window} at={}", t.ts),
        ),
    ]
}

/// Every logged disclosure is one the public inputs predict, and
/// `never_discloses` agrees that no amount field was written.
fn leakage_is_public_only(log: &LeakageLog, tasks: &[Task], accepted: &[bool]) -> bool {
    let expected = tasks
        .iter()
        .zip(accepted)
        .flat_map(|(t, a)| expected_events(t, *a));
    log.events().len() == 3 * tasks.len()
        && log
            .events()
            .iter()
            .zip(expected)
            .all(|(got, want)| *got == want)
        && log.never_discloses("amount")
        && log.never_discloses("hours")
}

/// Negative control: the same log with one leaked amount must fail.
fn leakage_control_detects(log: &LeakageLog, tasks: &[Task], accepted: &[bool]) -> bool {
    let mut leaky = log.clone();
    leaky.record(
        0,
        Observer::DataManager("manager".into()),
        "verdict",
        "amount=5".into(),
    );
    !leakage_is_public_only(&leaky, tasks, accepted)
}
