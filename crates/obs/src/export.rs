//! Snapshot exporters: an aligned text table for humans and JSON lines
//! compatible with the BENCHJSON trajectory tooling (the vendored
//! Criterion stand-in emits the same `BENCHJSON {...}` shape, so one
//! parser reads both).

use crate::registry::{HistogramSnapshot, Snapshot};
use crate::span;

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Formats one histogram cell. Histograms hold nanoseconds, except the
/// ones named `*.rows` / `*.size`, which hold counts.
fn fmt_sample(name: &str, v: u64) -> String {
    if name.ends_with(".rows") || name.ends_with(".size") {
        v.to_string()
    } else {
        fmt_ns(v)
    }
}

fn aligned(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        out.push('|');
        for (i, cell) in row.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            // Left-align the first (name) column, right-align numbers.
            if i == 0 {
                out.push_str(&format!(" {cell}{} |", " ".repeat(pad)));
            } else {
                out.push_str(&format!(" {}{cell} |", " ".repeat(pad)));
            }
        }
        out.push('\n');
        if r == 0 {
            out.push('|');
            for w in &widths {
                out.push_str(&format!("{}|", "-".repeat(w + 2)));
            }
            out.push('\n');
        }
    }
    out
}

/// Renders a snapshot as an aligned text report: one table of latency
/// histograms (annotated with their observed parent span, if any), then
/// counters and gauges.
pub fn render_table(s: &Snapshot) -> String {
    let mut out = String::new();
    if !s.histograms.is_empty() {
        out.push_str("## Histograms (wall-clock per span; `.rows`/`.size` are counts)\n\n");
        let mut rows = vec![vec![
            "span".to_string(),
            "count".to_string(),
            "mean".to_string(),
            "p50".to_string(),
            "p95".to_string(),
            "p99".to_string(),
            "max".to_string(),
            "total".to_string(),
        ]];
        for h in &s.histograms {
            let name = match span::parent_of(&h.name) {
                Some(p) => format!("{} (in {p})", h.name),
                None => h.name.clone(),
            };
            rows.push(vec![
                name,
                h.count.to_string(),
                fmt_sample(&h.name, h.mean as u64),
                fmt_sample(&h.name, h.p50),
                fmt_sample(&h.name, h.p95),
                fmt_sample(&h.name, h.p99),
                fmt_sample(&h.name, h.max),
                fmt_sample(&h.name, h.sum),
            ]);
        }
        out.push_str(&aligned(&rows));
        out.push('\n');
    }
    if !s.counters.is_empty() {
        out.push_str("## Counters\n\n");
        let mut rows = vec![vec!["counter".to_string(), "value".to_string()]];
        for (name, v) in &s.counters {
            rows.push(vec![name.clone(), v.to_string()]);
        }
        out.push_str(&aligned(&rows));
        out.push('\n');
    }
    if !s.gauges.is_empty() {
        out.push_str("## Gauges\n\n");
        let mut rows = vec![vec!["gauge".to_string(), "value".to_string()]];
        for (name, v) in &s.gauges {
            rows.push(vec![name.clone(), v.to_string()]);
        }
        out.push_str(&aligned(&rows));
        out.push('\n');
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

/// Escapes a string for embedding in a JSON value.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One `BENCHJSON` line for a histogram — the shape the trajectory
/// tooling already parses from the vendored Criterion.
pub fn benchjson_line(h: &HistogramSnapshot) -> String {
    format!(
        "BENCHJSON {{\"id\":\"{}\",\"mean_ns\":{:.1},\"median_ns\":{:.1},\"stddev_ns\":{:.1},\"samples\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"sum_ns\":{}}}",
        json_escape(&h.name),
        h.mean,
        h.p50 as f64,
        h.stddev(),
        h.count,
        h.p95,
        h.p99,
        h.max,
        h.sum,
    )
}

/// Renders the whole snapshot as JSON lines: one `BENCHJSON` line per
/// histogram plus one `OBSJSON` line per counter/gauge.
pub fn render_jsonl(s: &Snapshot) -> String {
    let mut out = String::new();
    for h in &s.histograms {
        out.push_str(&benchjson_line(h));
        out.push('\n');
    }
    for (name, v) in &s.counters {
        out.push_str(&format!(
            "OBSJSON {{\"kind\":\"counter\",\"id\":\"{}\",\"value\":{v}}}\n",
            json_escape(name)
        ));
    }
    for (name, v) in &s.gauges {
        out.push_str(&format!(
            "OBSJSON {{\"kind\":\"gauge\",\"id\":\"{}\",\"value\":{v}}}\n",
            json_escape(name)
        ));
    }
    out
}

/// Renders the snapshot as one self-contained JSON document (the
/// `BENCH_obs.json` artifact shape): histograms, counters, and gauges
/// under one object, hand-serialized to stay dependency-free.
pub fn render_json_document(title: &str, extra_fields: &[(&str, String)], s: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"title\": \"{}\",\n", json_escape(title)));
    for (k, raw) in extra_fields {
        out.push_str(&format!("  \"{}\": {raw},\n", json_escape(k)));
    }
    out.push_str("  \"histograms\": [\n");
    for (i, h) in s.histograms.iter().enumerate() {
        let parent = match span::parent_of(&h.name) {
            Some(p) => format!("\"{}\"", json_escape(p)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"id\":\"{}\",\"parent\":{parent},\"samples\":{},\"mean_ns\":{:.1},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"min_ns\":{},\"max_ns\":{},\"sum_ns\":{}}}{}\n",
            json_escape(&h.name),
            h.count,
            h.mean,
            h.p50,
            h.p95,
            h.p99,
            h.min,
            h.max,
            h.sum,
            if i + 1 < s.histograms.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"counters\": {\n");
    for (i, (name, v)) in s.counters.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {v}{}\n",
            json_escape(name),
            if i + 1 < s.counters.len() { "," } else { "" },
        ));
    }
    out.push_str("  },\n  \"gauges\": {\n");
    for (i, (name, v)) in s.gauges.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {v}{}\n",
            json_escape(name),
            if i + 1 < s.gauges.len() { "," } else { "" },
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("export.msgs").add(12);
        reg.gauge("export.level").set(-3);
        let h = reg.histogram("export.lat");
        for v in [100, 200, 300, 4_000, 5_000_000] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn table_contains_every_metric_and_aligns() {
        let s = sample();
        let t = render_table(&s);
        assert!(t.contains("export.lat"));
        assert!(t.contains("export.msgs"));
        assert!(t.contains("export.level"));
        assert!(t.contains("p99"));
        // Header separator present.
        assert!(t.contains("|--"));
        // Empty snapshot says so instead of emitting nothing.
        assert!(render_table(&Snapshot::default()).contains("no metrics"));
    }

    #[test]
    fn count_histograms_are_not_rendered_as_time() {
        let reg = Registry::new();
        reg.histogram("export.rows").record(5_000);
        reg.histogram("export.lat").record(5_000);
        let t = render_table(&reg.snapshot());
        let line = |name: &str| t.lines().find(|l| l.contains(name)).unwrap().to_string();
        assert!(line("export.rows").contains(" 5000 ") && !line("export.rows").contains("µs"));
        assert!(line("export.lat").contains("5.00µs"));
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let s = sample();
        let j = render_jsonl(&s);
        let bench: Vec<&str> = j.lines().filter(|l| l.starts_with("BENCHJSON ")).collect();
        assert_eq!(bench.len(), 1);
        let body = bench[0].strip_prefix("BENCHJSON ").unwrap();
        assert!(body.starts_with('{') && body.ends_with('}'));
        assert!(body.contains("\"id\":\"export.lat\""));
        assert!(body.contains("\"samples\":5"));
        assert!(body.contains("mean_ns"));
        assert!(j.contains("OBSJSON {\"kind\":\"counter\",\"id\":\"export.msgs\",\"value\":12}"));
        assert!(j.contains("OBSJSON {\"kind\":\"gauge\",\"id\":\"export.level\",\"value\":-3}"));
    }

    #[test]
    fn json_document_is_balanced() {
        let s = sample();
        let doc = render_json_document("t", &[("ops", "42".to_string())], &s);
        // Braces/brackets balance — a cheap structural parse.
        let opens = doc.matches('{').count();
        let closes = doc.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.contains("\"ops\": 42"));
        assert!(doc.contains("\"export.msgs\": 12"));
        // No trailing commas before closing delimiters.
        assert!(!doc.contains(",\n  ]"));
        assert!(!doc.contains(",\n  }"));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
