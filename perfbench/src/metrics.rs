//! The reported metrics: their names, units, and how each is computed
//! from a run. `BENCHMARK.json` lists the same names and units; a test
//! keeps the two in step.

use crate::util::{json_num, json_str, median, quantile};
use crate::Run;

/// `(name, unit)` of the end-to-end metrics `BENCHMARK.json` bounds,
/// printed on the result line with `--trace 0`. The median latency and
/// the throughput move with the host's load from run to run by more
/// than any bound could allow (see FINDINGS.md), so they appear only in
/// the record, beside these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// How a per-layer metric is computed from the tracer's samples.
#[derive(Clone, Copy)]
enum Agg {
    /// Median of the samples (ops or set-ups that touched the layer).
    Median(&'static str),
    /// Mean of the samples.
    Mean(&'static str),
    /// Sum over traced ops divided by the traced ops.
    PerOp(&'static str),
    /// `a / (a + b)` over the sums of two sample sets.
    Ratio(&'static str, &'static str),
    /// Traced op median against untraced op median, in percent.
    TraceOverhead,
}

use Agg::*;

/// Every per-layer metric, printed with `--trace 1`. A layer a workload
/// does not reach reads 0.
const PER_LAYER: &[(&str, &str, Agg)] = &[
    ("sql.parse.ns", "ns", Median("sql.parse")),
    ("sql.plan.compile.ns", "ns", Median("sql.plan.compile")),
    (
        "sql.plan.compile.dag_nodes",
        "count",
        Mean("sql.plan.compile.dag_nodes"),
    ),
    (
        "sql.plan.compile.stages",
        "count",
        Mean("sql.plan.compile.stages"),
    ),
    (
        "sql.plan.compile.stages_netted",
        "count",
        Mean("sql.plan.compile.stages_netted"),
    ),
    (
        "sql.plan.compile.selectors_shared",
        "count",
        Mean("sql.plan.compile.selectors_shared"),
    ),
    (
        "sql.plan.compile.stages_improved",
        "count",
        Mean("sql.plan.compile.stages_improved"),
    ),
    (
        "sql.plan.proof_cache.hits",
        "count",
        Mean("sql.plan.proof_cache.hits"),
    ),
    (
        "sql.plan.proof_cache.misses",
        "count",
        Mean("sql.plan.proof_cache.misses"),
    ),
    (
        "sql.plan.proof_cache.hit_ratio",
        "ratio",
        Ratio("sql.plan.proof_cache.hits", "sql.plan.proof_cache.misses"),
    ),
    ("sql.plan.execute.ns", "ns", Median("sql.plan.execute")),
    (
        "sql.plan.execute.other.ns",
        "ns",
        Median("sql.plan.execute.other"),
    ),
    (
        "sql.plan.stage.set_update.ns",
        "ns",
        Median("sql.plan.stage.set_update"),
    ),
    (
        "sql.plan.stage.set_update.rows_in",
        "count",
        Median("sql.plan.stage.set_update.rows_in"),
    ),
    (
        "sql.plan.stage.set_update.rows_out",
        "count",
        Median("sql.plan.stage.set_update.rows_out"),
    ),
    (
        "sql.plan.stage.set_delete.ns",
        "ns",
        Median("sql.plan.stage.set_delete"),
    ),
    (
        "sql.plan.stage.set_delete.rows_in",
        "count",
        Median("sql.plan.stage.set_delete.rows_in"),
    ),
    (
        "sql.plan.stage.set_delete.rows_out",
        "count",
        Median("sql.plan.stage.set_delete.rows_out"),
    ),
    (
        "sql.plan.stage.improved_update.ns",
        "ns",
        Median("sql.plan.stage.improved_update"),
    ),
    (
        "sql.plan.stage.improved_update.rows_in",
        "count",
        Median("sql.plan.stage.improved_update.rows_in"),
    ),
    (
        "sql.plan.stage.improved_update.rows_out",
        "count",
        Median("sql.plan.stage.improved_update.rows_out"),
    ),
    (
        "sql.plan.stage.cursor_update.ns",
        "ns",
        Median("sql.plan.stage.cursor_update"),
    ),
    (
        "sql.plan.stage.cursor_update.rows_in",
        "count",
        Median("sql.plan.stage.cursor_update.rows_in"),
    ),
    (
        "sql.plan.stage.cursor_update.rows_out",
        "count",
        Median("sql.plan.stage.cursor_update.rows_out"),
    ),
    (
        "sql.plan.stage.cursor_delete.ns",
        "ns",
        Median("sql.plan.stage.cursor_delete"),
    ),
    (
        "sql.plan.stage.cursor_delete.rows_in",
        "count",
        Median("sql.plan.stage.cursor_delete.rows_in"),
    ),
    (
        "sql.plan.stage.cursor_delete.rows_out",
        "count",
        Median("sql.plan.stage.cursor_delete.rows_out"),
    ),
    (
        "sql.plan.selector_cache.hit_ratio",
        "ratio",
        Ratio(
            "sql.plan.selector_cache.hits",
            "sql.plan.selector_cache.misses",
        ),
    ),
    (
        "sql.plan.vectorized_rows",
        "count",
        PerOp("sql.plan.vectorized_rows"),
    ),
    ("relalg.view.build.ns", "ns", Median("relalg.view.build")),
    ("relalg.view.apply.ns", "ns", Median("relalg.view.apply")),
    ("relalg.view.raw_ops", "count", PerOp("relalg.view.raw_ops")),
    (
        "relalg.view.netted_ops",
        "count",
        PerOp("relalg.view.netted_ops"),
    ),
    ("wal.append.records", "count", PerOp("wal.append.records")),
    ("wal.append.bytes", "bytes", PerOp("wal.append.bytes")),
    ("wal.sync.count", "count", PerOp("wal.sync.count")),
    ("wal.sync.ns", "ns", Median("wal.sync")),
    (
        "wal.checkpoint.count",
        "count",
        PerOp("wal.checkpoint.count"),
    ),
    (
        "wal.snapshot.encode.ns",
        "ns",
        Median("wal.snapshot.encode"),
    ),
    ("wal.snapshot.bytes", "bytes", Median("wal.snapshot.bytes")),
    ("wal.store.create.ns", "ns", Median("wal.store.create")),
    ("wal.recovery.open.ns", "ns", Median("wal.recovery.open")),
    (
        "wal.recovery.snapshot_decode.ns",
        "ns",
        Median("wal.recovery.snapshot_decode"),
    ),
    (
        "wal.recovery.log_decode.ns",
        "ns",
        Median("wal.recovery.log_decode"),
    ),
    ("wal.recovery.redo.ns", "ns", Median("wal.recovery.redo")),
    (
        "wal.recovery.view_rebuild.ns",
        "ns",
        Median("wal.recovery.view_rebuild"),
    ),
    ("wal.recovery.other.ns", "ns", Median("wal.recovery.other")),
    (
        "wal.recovery.records_replayed",
        "count",
        Median("wal.recovery.records_replayed"),
    ),
    (
        "wal.recovery.ops_replayed",
        "count",
        Median("wal.recovery.ops_replayed"),
    ),
    ("core.shard.wave.ns", "ns", Median("core.shard.wave")),
    (
        "core.shard.local_receivers",
        "count",
        PerOp("core.shard.local_receivers"),
    ),
    (
        "core.shard.coordinated_receivers",
        "count",
        PerOp("core.shard.coordinated_receivers"),
    ),
    ("core.shard.segments", "count", PerOp("core.shard.segments")),
    (
        "core.shard.lane_busy_ns",
        "ns",
        Median("core.shard.lane_busy_ns"),
    ),
    (
        "core.shard.lane_wait_ns",
        "ns",
        Median("core.shard.lane_wait_ns"),
    ),
    (
        "core.shard.lane_imbalance",
        "ratio",
        Median("core.shard.lane_imbalance"),
    ),
    ("core.shard.net_ops", "count", PerOp("core.shard.net_ops")),
    (
        "core.shard.replica_builds",
        "count",
        Mean("core.shard.replica_builds"),
    ),
    ("rt.shard.calls", "count", PerOp("rt.shard.calls")),
    ("op.other.ns", "ns", Median("op.other")),
    ("obs.trace_overhead_pct", "%", TraceOverhead),
];

/// `(name, unit)` of every per-layer metric.
#[cfg(test)]
pub fn per_layer_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u))
}

pub type Metric = (&'static str, f64, &'static str);

/// Every end-to-end figure of an untraced run, bounded or not.
pub fn end_to_end(r: &Run) -> Vec<Metric> {
    vec![
        ("setup_s", median(&r.setup_ns) / 1e9, "s"),
        ("op_p50_ms", median(&r.op_ns) / 1e6, "ms"),
        ("op_p90_ms", quantile(&r.op_ns, 0.9) / 1e6, "ms"),
        ("ops_per_s", r.attempted as f64 / (r.timed_ns / 1e9), "1/s"),
        (
            "error_rate",
            r.failed as f64 / r.attempted.max(1) as f64,
            "ratio",
        ),
        (
            "peak_rss_mb",
            crate::util::peak_rss_mb().unwrap_or(f64::NAN),
            "MiB",
        ),
    ]
}

pub fn per_layer(r: &Run) -> Vec<Metric> {
    let t = &r.tracer;
    PER_LAYER
        .iter()
        .map(|&(name, unit, agg)| {
            let v = match agg {
                Median(k) => median(t.samples(k)),
                Mean(k) => {
                    let s = t.samples(k);
                    if s.is_empty() {
                        0.0
                    } else {
                        s.iter().sum::<f64>() / s.len() as f64
                    }
                }
                PerOp(k) => t.per_op(k),
                Ratio(a, b) => {
                    let (a, b) = (t.total(a), t.total(b));
                    if a + b == 0.0 {
                        0.0
                    } else {
                        a / (a + b)
                    }
                }
                TraceOverhead => {
                    let (traced, plain) = (median(&r.traced_ns), median(&r.op_ns));
                    if plain > 0.0 {
                        (traced / plain - 1.0) * 100.0
                    } else {
                        0.0
                    }
                }
            };
            (name, v, unit)
        })
        .collect()
}

pub fn value_json(v: f64, unit: &str) -> String {
    format!(
        "{{\"value\": {}, \"unit\": {}}}",
        json_num(v),
        json_str(unit)
    )
}

pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| format!("{}: {}", json_str(n), value_json(*v, u)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
