//! Exporters: human summary, stable metrics JSON, Chrome `trace_event`.
//!
//! Both JSON forms are hand-rolled (the workspace is offline, no serde):
//! keys are emitted in a fixed order and strings escaped per RFC 8259,
//! so outputs are byte-stable given the same inputs.
//!
//! # Metrics schema (`receivers-obs/metrics/v1`)
//!
//! ```json
//! {
//!   "schema": "receivers-obs/metrics/v1",
//!   "counters": { "<name>": <u64>, ... },
//!   "histograms": {
//!     "<name>": {
//!       "count": <u64>,
//!       "sum": <u64>,              // wrapping sum of recorded values
//!       "p50": <u64>, "p90": <u64>, "p99": <u64>,   // estimated from buckets
//!       "buckets": [ [<lo>, <hi>, <count>], ... ]   // non-empty log2 buckets
//!     }, ...
//!   }
//! }
//! ```
//!
//! Counter and histogram names are sorted; every name must appear in
//! `crates/obs/metrics_manifest.txt` (checked by `obs_check`).
//!
//! # Chrome trace schema
//!
//! The span log exports as complete (`"ph": "X"`) trace events — one
//! JSON object per [`SpanEvent`] with `ts`/`dur` in microseconds — which
//! `chrome://tracing` and Perfetto open directly. Span ids and parent
//! ids ride along in `args` so the exact tree survives the round trip.

use std::fmt::Write as _;

use crate::{MetricsSnapshot, SpanEvent};

/// Render a metrics snapshot in the stable `receivers-obs/metrics/v1`
/// JSON schema (no trailing newline).
pub fn render_metrics_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"receivers-obs/metrics/v1\",\n  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {}: {value}", json_str(name));
    }
    if !snap.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"histograms\": {");
    for (i, h) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{ \"count\": {}, \"sum\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
            json_str(&h.name),
            h.count,
            h.sum,
            h.percentile(0.50),
            h.percentile(0.90),
            h.percentile(0.99)
        );
        for (j, (lo, hi, n)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{lo}, {hi}, {n}]");
        }
        out.push_str("] }");
    }
    if !snap.histograms.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("}\n}");
    out
}

/// Render spans in the Chrome `trace_event` format (JSON object form,
/// no trailing newline). Open the result in `chrome://tracing` or
/// Perfetto.
pub fn render_chrome_trace(spans: &[SpanEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (i, e) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"name\": {}, \"cat\": \"receivers\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}.{:03}, \"dur\": {}.{:03}, \
             \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            json_str(e.name),
            e.thread,
            e.start_ns / 1000,
            e.start_ns % 1000,
            e.dur_ns / 1000,
            e.dur_ns % 1000,
            e.id,
            e.parent
        );
    }
    if !spans.is_empty() {
        out.push('\n');
    }
    out.push_str("]}");
    out
}

/// Human-readable run summary: every touched counter, histogram (count,
/// mean, non-empty buckets), and a per-name span aggregation.
pub fn render_summary(snap: &MetricsSnapshot, spans: &[SpanEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== receivers-obs summary ==");
    if snap.counters.is_empty() && snap.histograms.is_empty() {
        let _ = writeln!(out, "counters: (none touched)");
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        let width = snap
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name:width$}  {value}");
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "histograms:");
        for h in &snap.histograms {
            let mean = if h.count > 0 {
                h.sum as f64 / h.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {}  count {}  mean {:.1}  p50 {}  p90 {}  p99 {}",
                h.name,
                h.count,
                mean,
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99)
            );
            for (lo, hi, n) in &h.buckets {
                let _ = writeln!(out, "    [{lo}, {hi}]  {n}");
            }
        }
    }
    if !spans.is_empty() {
        let _ = writeln!(out, "spans (by name):");
        let mut agg: Vec<(&'static str, u64, u64)> = Vec::new();
        for e in spans {
            match agg.iter_mut().find(|(n, _, _)| *n == e.name) {
                Some((_, count, total)) => {
                    *count += 1;
                    *total += e.dur_ns;
                }
                None => agg.push((e.name, 1, e.dur_ns)),
            }
        }
        agg.sort_by_key(|&(_, _, total)| std::cmp::Reverse(total));
        for (name, count, total_ns) in agg {
            let _ = writeln!(
                out,
                "  {name}  {count} span(s), total {:.3} ms",
                total_ns as f64 / 1e6
            );
        }
    }
    out
}

/// RFC 8259 string escaping: `s` as a quoted JSON string literal. Shared
/// by every hand-rolled JSON writer in the workspace (metrics, profiles,
/// flight dumps, lint diagnostics).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::HistogramSnapshot;

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("a.b".to_owned(), 3), ("a.c".to_owned(), 0)],
            histograms: vec![HistogramSnapshot {
                name: "h.x".to_owned(),
                count: 2,
                sum: 5,
                buckets: vec![(1, 1, 1), (4, 7, 1)],
            }],
        }
    }

    #[test]
    fn metrics_json_is_stable_and_parses() {
        let j = render_metrics_json(&sample_snapshot());
        let v = Value::parse(&j).expect("self-emitted JSON parses");
        assert_eq!(
            v.get("schema").and_then(Value::as_str),
            Some("receivers-obs/metrics/v1")
        );
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("a.b"))
                .and_then(Value::as_u64),
            Some(3)
        );
        let h = v.get("histograms").and_then(|h| h.get("h.x")).unwrap();
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(2));
        // Percentiles ride along: p50 is the first bucket's edge, p99
        // the last bucket's.
        assert_eq!(h.get("p50").and_then(Value::as_u64), Some(1));
        assert_eq!(h.get("p99").and_then(Value::as_u64), Some(7));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_x_events() {
        let spans = vec![
            SpanEvent {
                id: 1,
                parent: 0,
                name: "root",
                thread: 1,
                start_ns: 500,
                dur_ns: 12_345,
            },
            SpanEvent {
                id: 2,
                parent: 1,
                name: "child",
                thread: 2,
                start_ns: 1_000,
                dur_ns: 1_001,
            },
        ];
        let j = render_chrome_trace(&spans);
        let v = Value::parse(&j).expect("trace JSON parses");
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
            assert!(e.get("args").and_then(|a| a.get("id")).is_some());
        }
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn summary_mentions_every_metric() {
        let s = render_summary(&sample_snapshot(), &[]);
        assert!(s.contains("a.b") && s.contains("a.c") && s.contains("h.x"));
    }
}
