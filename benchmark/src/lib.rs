//! The PReVer benchmark: five wall-clock workloads driven through the
//! public APIs of the crates, an oracle on every output, and a per-layer
//! cost table measured from outside. See `README.md` beside this crate
//! for the metric glossary and `BENCHMARK.json` at the repository root
//! for the definition the driver reads.

// One FFI call (`pin`) is the only unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod gen;
pub mod json;
pub mod pin;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;

/// How one run is sized and what it records.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Seeds the traffic and every random choice of the run.
    pub seed: u64,
    /// Sizes the run: one round per [`spec::ROUND_SECONDS`] seconds.
    pub seconds: u64,
    /// Two rounds of 1/12 the operations, every oracle still on.
    pub smoke: bool,
    /// Also run the traced (decomposed) path and report per-layer
    /// metrics in place of the end-to-end ones.
    pub trace: bool,
}

impl RunCfg {
    /// Rounds in the run. A round is a fresh world and a fixed number
    /// of operations, sized to take about [`spec::ROUND_SECONDS`] here.
    /// A traced run performs every operation on both paths, so it has
    /// half the rounds and takes about as long.
    pub fn rounds(&self) -> usize {
        let rounds = (self.seconds / spec::ROUND_SECONDS) as usize;
        if self.smoke {
            2
        } else if self.trace {
            (rounds / 2).max(1)
        } else {
            rounds.max(1)
        }
    }

    /// Operations per round for `spec`.
    pub fn ops_per_round(&self, spec: &spec::WorkloadSpec) -> usize {
        if self.smoke {
            (spec.ops_per_round / 12).max(20)
        } else {
            spec.ops_per_round
        }
    }
}

/// What one round measured on the untraced path.
#[derive(Debug)]
pub struct Round {
    /// Seconds to build the round's world.
    pub setup_s: f64,
    /// The round's operations.
    pub timeline: stats::Timeline,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured run(s).
    pub attempted: u64,
    /// Operations that failed: an `Err`, a client give-up, a proof or
    /// audit that fails, an outcome the oracle disagrees with.
    pub failed: u64,
    /// Whole-run oracles that failed (state digests, audits, negative
    /// controls). Any entry makes the run incorrect.
    pub broken: Vec<String>,
    /// Wall seconds the untraced rounds measured for.
    pub measured_s: f64,
    /// What each untraced round measured, for people.
    pub round_lines: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced run's spans.
    pub spans: Option<span::Recorder>,
}

impl Report {
    /// Did every operation succeed and every oracle hold?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    /// Records a failed whole-run oracle.
    pub fn broke(&mut self, what: impl Into<String>) {
        self.broken.push(what.into());
    }

    /// Requires `held`; otherwise records `what` as a failed oracle.
    pub fn require(&mut self, held: bool, what: &str) {
        if !held {
            self.broke(what);
        }
    }

    /// Records one operation's outcome in `got`; an `Err` is a failed
    /// operation and counts as a rejection so that positions stay
    /// aligned with the oracle's.
    pub fn outcome(
        &mut self,
        got: &mut Vec<bool>,
        what: std::fmt::Arguments<'_>,
        outcome: Result<bool, String>,
    ) {
        got.push(outcome.unwrap_or_else(|e| {
            self.failed += 1;
            self.broke(format!("{what}: {e}"));
            false
        }));
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::metric(name).is_some(), "unlisted metric {name}");
        self.metrics.insert(name, value);
    }

    /// Sets the four timing end-to-end metrics from the run's rounds
    /// (`peak_rss_mb` is read when the result is printed): each is the
    /// [`stats::good_quartile`] of the per-round values.
    pub fn set_end_to_end(&mut self, rounds: &[Round]) {
        self.measured_s = rounds.iter().map(|r| r.timeline.wall_s()).sum();
        self.round_lines = rounds
            .iter()
            .map(|r| {
                format!(
                    "setup {:.6} s, {} ops in {:.3} s = {:.2} /s, p50 {:.1} us, p95 {:.1} us",
                    r.setup_s,
                    r.timeline.ops(),
                    r.timeline.wall_s(),
                    r.timeline.ops_per_s(),
                    r.timeline.latency_us(50.0),
                    r.timeline.latency_us(95.0)
                )
            })
            .collect();
        let mut over_rounds = |name: &'static str, value: &dyn Fn(&Round) -> f64| {
            let mut values: Vec<f64> = rounds.iter().map(value).collect();
            let higher = spec::metric(name).is_some_and(|m| m.higher_is_better);
            self.set(name, stats::good_quartile(&mut values, higher));
        };
        over_rounds("setup_s", &|r| r.setup_s);
        over_rounds("ops_per_s", &|r| r.timeline.ops_per_s());
        over_rounds("latency_p50_us", &|r| r.timeline.latency_us(50.0));
        over_rounds("latency_p95_us", &|r| r.timeline.latency_us(95.0));
    }

    /// Sets mean-ns-per-call metrics from recorded span totals:
    /// `(metric, span name)` pairs.
    pub fn set_span_means(
        &mut self,
        totals: &BTreeMap<&'static str, span::Totals>,
        pairs: &[(&'static str, &str)],
    ) {
        for (metric, span_name) in pairs {
            let mean = totals.get(span_name).map_or(0.0, |t| t.mean_ns());
            self.set(metric, mean);
        }
    }
}

/// Runs workload `name`.
pub fn run(name: &str, cfg: &RunCfg) -> Option<Report> {
    let spec = spec::workload(name)?;
    let ops = cfg.ops_per_round(spec);
    Some(match name {
        "serve-order" => workloads::serve_order::run(cfg, ops),
        "regulated-apply" => workloads::regulated_apply::run(cfg, ops),
        "private-verify" => workloads::private_verify::run(cfg, ops),
        "federated-tokens" => workloads::federated_tokens::run(cfg, ops),
        "audit-read" => workloads::audit_read::run(cfg, ops),
        _ => unreachable!("workload table and dispatch disagree"),
    })
}
