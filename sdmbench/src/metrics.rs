//! The benchmark's metric declarations and the result line.
//!
//! Every metric the benchmark prints is declared once, in [`END_TO_END`]
//! or [`PER_LAYER`], with its unit, its better direction and — for the
//! per-layer metrics — the end-to-end metric it should move and the
//! workloads it is meant for. `BENCHMARK.json` repeats the names, units
//! and directions; the self-test checks that the two agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What it measures.
    pub what: &'static str,
    /// End-to-end metrics it should move (per-layer metrics only).
    pub moves: &'static str,
    /// Workloads it is meant for (per-layer metrics only).
    pub on: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        what,
        moves: "",
        on: "all",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    what: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        what,
        moves,
        on,
    }
}

/// Metrics printed with `--trace 0`: what the process costs on this host.
/// Each is defined on every workload and is never 0.
pub const END_TO_END: &[Metric] = &[
    e2e(
        "setup_s",
        "s",
        "lower",
        "median wall time from building the host to the end of warm-up",
    ),
    e2e(
        "wall_qps",
        "queries/s",
        "higher",
        "queries served per wall second in the measured window",
    ),
    e2e(
        "wall_batch_ms_p50",
        "ms",
        "lower",
        "wall time per host batch call, median",
    ),
    e2e(
        "wall_batch_ms_p95",
        "ms",
        "lower",
        "wall time per host batch call, p95",
    ),
    e2e(
        "peak_rss_mib",
        "MiB",
        "lower",
        "process peak resident set (VmHWM)",
    ),
];

/// Metrics printed with `--trace 1`. Values read from counters, logs and
/// reports come from the untraced run; wall self times from the traced
/// run. A metric whose layer a workload does not exercise reads 0 there.
/// The three workload-specific headline metrics (`slo_qps`, `shed_frac`,
/// `failed_frac`) are here too: each is 0 on some workload.
pub const PER_LAYER: &[Metric] = &[
    // The modelled (virtual-clock) end-to-end family. It lives here, not
    // among the bounded metrics, because on `hot_exact` every query costs
    // the same modelled time, so these values repeat exactly across seeds.
    layer("sim_qps", "queries/s", "higher", "modelled throughput: closed loop, queries / sum of batch makespans; open loop, served_qps at the nominal rate", "modelled end to end", "all"),
    layer("sim_latency_ms_p50", "ms", "lower", "modelled per-query latency, median (open loop: due arrival to batch completion)", "modelled end to end", "all"),
    layer("sim_latency_ms_p99", "ms", "lower", "modelled per-query latency, p99", "modelled end to end", "all"),
    layer("slo_qps", "queries/s", "higher", "highest ladder rate with p99 <= 50 ms and nothing shed", "sim_qps", "open_skewed"),
    layer("shed_frac", "fraction", "lower", "queries shed / offered at the nominal rate", "sim_qps", "open_skewed"),
    layer("failed_frac", "fraction", "lower", "queries errored, degraded or failing the output check / attempted", "wall_qps", "all"),
    layer("frontend.batch_size_mean", "queries", "higher", "queries per dispatched batch", "sim_qps", "open_skewed"),
    layer("frontend.batch_wait_ms_p99", "ms", "lower", "virtual batch close - oldest arrival, p99", "sim_latency_ms_p50", "open_skewed"),
    layer("frontend.queue_wait_ms_p99", "ms", "lower", "virtual batch start - close, p99", "sim_latency_ms_p99", "open_skewed"),
    layer("frontend.wall_self_ms", "ms", "lower", "Frontend::run wall - replayed host-call spans, per run (closed loop: caller loop outside batch calls, per pass)", "wall_qps", "open_skewed"),
    layer("host.wall_self_us_per_batch", "us", "lower", "host-call span - shard time on the same batch (closed loop: batch span - its query spans)", "wall_batch_ms_p50", "open_skewed"),
    layer("host.shard_skew", "ratio", "lower", "max / mean queries per shard per batch (1: every workload serves one shard)", "sim_qps", "open_skewed"),
    layer("dlrm.wall_self_us_per_query", "us", "lower", "query span - its lookup spans", "wall_qps", "hot_exact"),
    layer("dlrm.sim_mlp_us_per_query", "us", "lower", "virtual bottom + top MLP", "sim_latency_ms_p50", "hot_exact"),
    layer("dlrm.sim_embedding_us_per_query", "us", "lower", "virtual user + item embeddings", "sim_latency_ms_p50", "sm_bound update_nand"),
    layer("manager.wall_us_per_query", "us", "lower", "sum of lookup spans per query", "wall_qps", "sm_bound hot_exact"),
    layer("manager.wall_ns_per_hit_row", "ns", "lower", "span time of ops without SM reads / rows they pooled", "wall_qps", "hot_exact"),
    layer("manager.wall_ns_per_sm_read", "ns", "lower", "span time of ops with SM reads, net of their hit rows, / SM reads", "wall_qps", "sm_bound"),
    layer("manager.sm_reads_per_query", "reads", "lower", "SdmStats::sm_reads per query", "sim_qps", "sm_bound update_nand"),
    layer("manager.pooled_hit_rate", "fraction", "higher", "pooled_cache_hits / pooled_ops", "wall_qps", "hot_exact"),
    layer("cache.row_hit_rate", "fraction", "higher", "row hits / (row hits + shared hits + SM reads)", "sim_qps", "sm_bound"),
    layer("cache.row_evictions_per_query", "evictions", "lower", "evictions of both row engines per query", "sim_qps", "sm_bound"),
    layer("cache.shared_hit_rate", "fraction", "higher", "shared-tier hits / probes (scheduling-dependent)", "sim_qps", "open_skewed"),
    layer("cache.resident_mib", "MiB", "lower", "row + pooled resident bytes + shared tier memory", "peak_rss_mib", "all"),
    layer("cache.refill_queries", "queries", "lower", "queries after a full update until the row hit rate is within 10% of its pre-update value", "sim_qps", "update_nand"),
    layer("io.submitted_per_query", "ios", "lower", "EngineStats::submitted per query", "sim_qps", "sm_bound"),
    layer("io.queue_delay_us_per_io", "us", "lower", "virtual queue delay / submitted", "sim_latency_ms_p99", "sm_bound"),
    layer("io.device_us_per_io", "us", "lower", "virtual device time / completed", "sim_latency_ms_p50", "sm_bound"),
    layer("io.queue_depth_mean", "ios", "higher", "IoStats::mean_depth", "sim_qps", "sm_bound"),
    layer("io.read_amplification", "ratio", "lower", "bus bytes / requested bytes", "sim_latency_ms_p50", "sm_bound"),
    layer("io.retries", "count", "lower", "ResilienceStats::retries (0 without faults)", "wall_qps", "all"),
    layer("device.reads_per_query", "reads", "lower", "device read commands per query", "sim_qps", "sm_bound update_nand"),
    layer("device.bus_bytes_per_query", "bytes", "lower", "device link bytes per query", "sim_latency_ms_p50", "sm_bound"),
    layer("device.write_ms_per_update", "ms", "lower", "virtual UpdateReport::write_time", "sim_qps", "update_nand"),
    layer("device.min_update_interval_days", "days", "higher", "NAND endurance bound from UpdateReport (must not fall)", "none", "update_nand"),
    layer("update.wall_ms", "ms", "lower", "ModelUpdater::apply span", "wall_qps", "update_nand"),
    layer("embedding.pool_ns_per_row", "ns", "lower", "isolated pool_quantized_into_with per row, manager's kernel", "wall_qps", "hot_exact"),
    layer("trace.overhead_frac", "fraction", "lower", "(traced - untraced) wall per query / untraced", "none", "all"),
    layer("trace.closure_frac", "fraction", "higher", "sum of layer self times per query / untraced wall per query", "none", "hot_exact sm_bound update_nand"),
];

/// Bound `trace.closure_frac` must lie within on the closed-loop
/// workloads: the layer spans account for the untraced cost, give or take
/// tracing overhead and run-to-run noise.
pub const CLOSURE_BOUND: (f64, f64) = (0.8, 1.35);

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Formats a float for JSON: all digits, never NaN or infinite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the `metrics`
/// of the selected family, in declaration order. A declared metric the
/// run did not set is an error, so a metric can never go missing.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    family: &[Metric],
    values: &Values,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in family.iter().enumerate() {
        let v = values
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(v),
            m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// The line printed for a run that broke a guard or failed the output
/// check: never numbers.
pub fn failure_line(attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        attempted.max(1),
        failed
    )
}
