//! Command line: one run (the driver's contract), `all`, and
//! `check-repeat`.
//!
//! ```text
//! prever-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
//! prever-benchmark all          [--seed N] [--seconds S] [--smoke] [--trace-dir DIR]
//! prever-benchmark check-repeat [--seed N] [--seconds S] [--smoke] [--benchmark-json FILE]
//! prever-benchmark print-benchmark-json
//! ```
//!
//! A run prints, as the last line of its standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; everything
//! meant for people goes to standard error. `all` and `check-repeat`
//! start one child process per run, so `peak_rss_mb` belongs to one
//! workload.

use crate::json::{self, Value};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::{span, stats, Report, RunCfg};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The run length `BENCHMARK.json` states, used when `--seconds` is
/// not given.
const DEFAULT_SECONDS: u64 = 16;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    trace_out: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    benchmark_json: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        trace_out: None,
        trace_dir: None,
        benchmark_json: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => out.smoke = true,
            "--trace-out" => out.trace_out = Some(PathBuf::from(value()?)),
            "--trace-dir" => out.trace_dir = Some(PathBuf::from(value()?)),
            "--benchmark-json" => out.benchmark_json = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Entry point; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let (command, rest) = match args.first().map(String::as_str) {
        Some("all") => ("all", &args[1..]),
        Some("check-repeat") => ("check-repeat", &args[1..]),
        Some("print-benchmark-json") => {
            print!("{}", render_benchmark_json());
            return 0;
        }
        Some("run") => ("run", &args[1..]),
        _ => ("run", &args[..]),
    };
    let parsed = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let result = match command {
        "all" => all(&parsed),
        "check-repeat" => check_repeat(&parsed),
        _ => run_one(&parsed),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    match crate::pin::to_one_cpu() {
        Some(cpu) => eprintln!("pinned to CPU {cpu}"),
        None => eprintln!("not pinned to one CPU: affinity unavailable"),
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace: args.trace,
    };
    let mut report = crate::run(name, &cfg).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    for b in &report.broken {
        eprintln!("oracle failed [{name}]: {b}");
    }
    if report.failed > 0 {
        eprintln!(
            "{} of {} operations failed [{name}]",
            report.failed, report.attempted
        );
    }
    if let Some(rec) = &report.spans {
        eprint!("{}", self_time_table(name, rec));
        if let Some(path) = &args.trace_out {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, rec.chrome_trace())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("chrome trace: {}", path.display());
        }
    }
    if !args.trace {
        report.set("peak_rss_mb", stats::peak_rss_mib());
        for (i, line) in report.round_lines.iter().enumerate() {
            eprintln!("round {i}: {line}");
        }
        eprintln!(
            "{name}: measured {} operations in {:.2} s",
            report.attempted, report.measured_s
        );
    }
    println!(
        "{}",
        result_line(&report, if args.trace { &PER_LAYER } else { &END_TO_END })
    );
    Ok(report.correct())
}

/// The driver's result object: every metric of `specs`, 0 for a layer
/// the workload never called.
pub fn result_line(report: &Report, specs: &[MetricSpec]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in specs.iter().enumerate() {
        let value = report.metrics.get(m.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit measured (never `NaN` / `inf`).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Per-layer self-time table of a traced run, for people.
fn self_time_table(workload: &str, rec: &span::Recorder) -> String {
    let totals = rec.totals();
    let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut wall = 0u64;
    for (name, t) in &totals {
        let l = layers.entry(span::layer_of(name)).or_default();
        l.0 += t.calls;
        l.1 += t.self_ns;
        wall += t.self_ns;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "per-layer self time [{workload}] (traced run, wall ns measured by the harness)"
    );
    let _ = writeln!(
        out,
        "  {:<28} {:>10} {:>12} {:>12} {:>7}",
        "span", "calls", "total ms", "self ms", "share"
    );
    for (name, t) in &totals {
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / wall.max(1) as f64
        );
    }
    for (layer, (calls, self_ns)) in &layers {
        let _ = writeln!(
            out,
            "  layer {:<22} {:>10} {:>12} {:>12.3} {:>6.1}%",
            layer,
            calls,
            "",
            *self_ns as f64 / 1e6,
            100.0 * *self_ns as f64 / wall.max(1) as f64
        );
    }
    out
}

/// One parsed child result.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Result<ChildResult, String> {
    let v = json::parse(line)?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("result lacks {k}"));
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
    {
        metrics.insert(
            name.clone(),
            m.get("value")
                .and_then(Value::as_f64)
                .ok_or("metric lacks value")?,
        );
    }
    Ok(ChildResult {
        correct: field("correct")?
            .as_bool()
            .ok_or("correct is not a boolean")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
    })
}

fn spawn_run(
    args: &Args,
    workload: &str,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    // Standard error passes through: oracle failures and the per-layer
    // table are for the person watching.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line"))?;
    let result = parse_result(last).map_err(|e| format!("{workload}: {e}"))?;
    if result.correct != output.status.success() {
        return Err(format!("{workload}: exit status and result line disagree"));
    }
    Ok(result)
}

/// The clock of end-to-end metric `m` on workload `name`: latencies are
/// on the workload's own clock (virtual inside the simulator).
fn end_to_end_clock(name: &str, m: &MetricSpec) -> crate::spec::Clock {
    match crate::spec::workload(name) {
        Some(w) if m.name.starts_with("latency_") => w.latency_clock,
        _ => m.clock,
    }
}

/// Both runs of one workload.
struct SetEntry {
    untraced: ChildResult,
    traced: ChildResult,
}

fn run_set(args: &Args) -> Result<Vec<(&'static str, SetEntry)>, String> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        eprintln!("== {} (untraced)", w.name);
        let untraced = spawn_run(args, w.name, false, None)?;
        eprintln!("== {} (traced)", w.name);
        let trace_out = args
            .trace_dir
            .as_ref()
            .map(|d| d.join(format!("{}.trace.json", w.name)));
        let traced = spawn_run(args, w.name, true, trace_out.as_deref())?;
        out.push((w.name, SetEntry { untraced, traced }));
    }
    Ok(out)
}

fn all(args: &Args) -> Result<bool, String> {
    let set = run_set(args)?;
    let mut ok = true;
    let mut table = String::new();
    for (name, entry) in &set {
        let _ = writeln!(table, "\n{name}");
        for (label, result, specs) in [
            ("end to end", &entry.untraced, &END_TO_END[..]),
            ("per layer", &entry.traced, &PER_LAYER[..]),
        ] {
            let _ = writeln!(
                table,
                "  {label}: attempted {} failed {} correct {}",
                result.attempted, result.failed, result.correct
            );
            ok &= result.correct;
            let value = |m: &MetricSpec| result.metrics.get(m.name).copied().unwrap_or(0.0);
            for m in specs {
                // A layer this workload never calls reads 0 throughout.
                let layer = span::layer_of(m.name);
                if specs
                    .iter()
                    .filter(|o| span::layer_of(o.name) == layer)
                    .all(|o| value(o) == 0.0)
                {
                    continue;
                }
                let v = value(m);
                let _ = writeln!(
                    table,
                    "    {:<36} {:>16.4} {:<7} {}",
                    m.name,
                    v,
                    m.unit,
                    end_to_end_clock(name, m).label()
                );
            }
        }
    }
    println!("{table}");
    println!(
        "{}",
        if ok {
            "all workloads correct"
        } else {
            "SOME WORKLOAD FAILED ITS ORACLES"
        }
    );
    Ok(ok)
}

/// End-to-end bounds by metric name, from `BENCHMARK.json`.
fn load_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let mut bounds = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lacks end_to_end")?
    {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric lacks name")?;
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("metric lacks bound")?;
        bounds.insert(name.to_string(), bound);
    }
    Ok(bounds)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it got better).
fn worsening(m: &MetricSpec, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

fn check_repeat(args: &Args) -> Result<bool, String> {
    let bounds = load_bounds(&args.benchmark_json)?;
    eprintln!("#### first set");
    let first = run_set(args)?;
    eprintln!("#### second set");
    let second = run_set(args)?;
    let mut ok = true;
    let mut table = String::new();
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let _ = writeln!(table, "\n{name}");
        for r in [&a.untraced, &a.traced, &b.untraced, &b.traced] {
            if !r.correct {
                ok = false;
                let _ = writeln!(
                    table,
                    "  FAIL a run was incorrect ({} of {} failed)",
                    r.failed, r.attempted
                );
            }
        }
        for m in &END_TO_END {
            let (x, y) = (a.untraced.metrics[m.name], b.untraced.metrics[m.name]);
            let bound = *bounds
                .get(m.name)
                .ok_or_else(|| format!("BENCHMARK.json lacks {}", m.name))?;
            let worse = worsening(m, x, y);
            // A set-up under half a second is held to 0.05 s instead:
            // a few milliseconds of noise is a large share of it.
            let short_setup = m.name == "setup_s" && x < 0.5 && (y - x).abs() < 0.05;
            let exact = end_to_end_clock(name, m).repeats_exactly();
            let pass = if exact {
                x == y
            } else {
                worse <= bound || short_setup
            };
            ok &= pass;
            let _ = writeln!(
                table,
                "  {} {:<36} {:>14.4} {:>14.4} {:<7} {:>+8.2}% ({})",
                if pass { "ok  " } else { "FAIL" },
                m.name,
                x,
                y,
                m.unit,
                100.0 * worse,
                if exact {
                    "must repeat exactly".to_string()
                } else {
                    format!("bound {:.0}%", 100.0 * bound)
                }
            );
        }
        for m in &PER_LAYER {
            let (x, y) = (a.traced.metrics[m.name], b.traced.metrics[m.name]);
            if x == 0.0 && y == 0.0 {
                continue;
            }
            let exact = m.clock.repeats_exactly();
            let pass = !exact || x == y;
            ok &= pass;
            let _ = writeln!(
                table,
                "  {} {:<36} {:>14.4} {:>14.4} {:<7} {:>+8.2}% ({})",
                if pass { "ok  " } else { "FAIL" },
                m.name,
                x,
                y,
                m.unit,
                100.0 * worsening(m, x, y),
                if exact {
                    "must repeat exactly"
                } else {
                    "no bound"
                }
            );
        }
    }
    println!("{table}");
    println!(
        "{}",
        if ok {
            "check-repeat: PASS"
        } else {
            "check-repeat: FAIL"
        }
    );
    Ok(ok)
}

/// `BENCHMARK.json` must state what [`spec`] states.
pub fn benchmark_json_matches_spec(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("lacks {key}"))
    };
    let text_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let names: Vec<Option<String>> = list("workloads")?
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    let want: Vec<Option<String>> = WORKLOADS.iter().map(|w| Some(w.name.to_string())).collect();
    if names != want {
        return Err(format!("workloads differ: {names:?}"));
    }
    for (key, specs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key)?;
        if listed.len() != specs.len() {
            return Err(format!(
                "{key}: {} listed, {} in spec",
                listed.len(),
                specs.len()
            ));
        }
        for (got, m) in listed.iter().zip(specs) {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            if text_of(got, "name").as_deref() != Some(m.name)
                || text_of(got, "unit").as_deref() != Some(m.unit)
                || text_of(got, "better").as_deref() != Some(better)
            {
                return Err(format!("{key}: {} differs from the spec", m.name));
            }
            if key == "end_to_end" && got.get("bound").and_then(Value::as_f64) != Some(m.bound) {
                return Err(format!("{key}: bound of {} differs from the spec", m.name));
            }
        }
    }
    if doc.get("run_seconds").and_then(Value::as_f64) != Some(DEFAULT_SECONDS as f64) {
        return Err("run_seconds differs from the default --seconds".into());
    }
    Ok(())
}

/// Renders `BENCHMARK.json` from [`spec`] (kept beside the checker so
/// the file can be regenerated after a spec edit).
pub fn render_benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {DEFAULT_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}{sep}",
            m.name, m.unit
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_lists_every_metric() {
        let mut report = Report {
            attempted: 12,
            ..Report::default()
        };
        report.set("ops_per_s", 1234.5678);
        let line = result_line(&report, &END_TO_END);
        let parsed = parse_result(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (12, 0));
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        assert_eq!(parsed.metrics["ops_per_s"], 1234.5678);
        report.broke("x");
        assert!(
            !parse_result(&result_line(&report, &PER_LAYER))
                .unwrap()
                .correct
        );
    }

    #[test]
    fn rendered_benchmark_json_matches_the_spec_and_the_limits() {
        let text = render_benchmark_json();
        benchmark_json_matches_spec(&text).unwrap();
        assert!(text.len() < 64 * 1024);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(
            crate::spec::metric("setup_s").is_some_and(|m| m.unit == "s" && !m.higher_is_better)
        );
    }

    #[test]
    fn worsening_respects_direction() {
        let lower = crate::spec::metric("latency_p50_us").unwrap();
        let higher = crate::spec::metric("ops_per_s").unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn arguments_parse_in_the_drivers_order() {
        let args: Vec<String> = "--workload audit-read --seed 9 --seconds 16 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&args).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("audit-read"), 9, 16, true)
        );
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
    }
}
