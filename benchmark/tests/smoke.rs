//! Runs every workload at `--smoke` size (two rounds of a twelfth of the
//! operations, about 1/50 of a run, every oracle on), untraced and
//! traced, so that the harness does not rot.

use prever_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use prever_benchmark::{run, RunCfg};

fn cfg(seed: u64, trace: bool) -> RunCfg {
    RunCfg {
        seed,
        seconds: 16,
        smoke: true,
        trace,
    }
}

#[test]
fn every_workload_passes_its_oracles_untraced() {
    for w in &WORKLOADS {
        let report = run(w.name, &cfg(1, false)).expect("listed workload");
        assert!(
            report.correct(),
            "{}: {:?} ({} failed)",
            w.name,
            report.broken,
            report.failed
        );
        assert!(report.attempted >= 20, "{}", w.name);
        for m in END_TO_END.iter().filter(|m| m.name != "peak_rss_mb") {
            let v = report.metrics.get(m.name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{}: {} is {v}", w.name, m.name);
        }
    }
}

#[test]
fn traced_runs_agree_with_untraced_and_counts_repeat_exactly() {
    for w in &WORKLOADS {
        let first = run(w.name, &cfg(2, true)).expect("listed workload");
        assert!(
            first.correct(),
            "{}: {:?} ({} failed)",
            w.name,
            first.broken,
            first.failed
        );
        let spans = first.spans.as_ref().expect("a traced run keeps its spans");
        assert!(!spans.spans().is_empty(), "{}", w.name);
        prever_benchmark::json::parse(&spans.chrome_trace()).expect("loadable Chrome trace");
        assert!(
            first.metrics.contains_key("bench.trace_overhead_frac"),
            "{}",
            w.name
        );
        for name in first.metrics.keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{}: unlisted metric {name}",
                w.name
            );
        }

        // Same seed, same size: every count and every virtual-time
        // metric must read the same.
        let second = run(w.name, &cfg(2, true)).expect("listed workload");
        for m in PER_LAYER.iter().filter(|m| m.clock.repeats_exactly()) {
            assert_eq!(
                first.metrics.get(m.name),
                second.metrics.get(m.name),
                "{}: {}",
                w.name,
                m.name
            );
        }
    }
}

#[test]
fn serve_order_latency_is_virtual_and_repeats_exactly() {
    let spec = prever_benchmark::spec::workload("serve-order").expect("listed");
    assert!(spec.latency_clock.repeats_exactly());
    let a = run("serve-order", &cfg(5, false)).expect("listed workload");
    let b = run("serve-order", &cfg(5, false)).expect("listed workload");
    for name in ["latency_p50_us", "latency_p95_us"] {
        assert_eq!(a.metrics[name], b.metrics[name], "{name}");
        // One-way latency is 500–600 µs and a commit needs several hops.
        assert!(a.metrics[name] > 1_500.0, "{name}: {}", a.metrics[name]);
    }
}

#[test]
fn serve_order_reports_the_unattributed_share() {
    let report = run("serve-order", &cfg(4, true)).expect("listed workload");
    let unattributed = report.metrics["bench.serve_unattributed_frac"];
    assert!(
        unattributed.is_finite() && unattributed < 1.0,
        "{unattributed}"
    );
    assert_eq!(report.metrics["server.shed_frac"], 0.0);
    assert_eq!(report.metrics["consensus.view_changes"], 0.0);
    assert_eq!(report.metrics["server.retries_per_cmd"], 0.0);
}

#[test]
fn benchmark_json_states_what_the_spec_states() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    prever_benchmark::cli::benchmark_json_matches_spec(&text).unwrap();
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("no-such-workload", &cfg(1, false)).is_none());
}
