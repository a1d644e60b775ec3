//! End-to-end and per-layer benchmark of the SDM serving stack.
//!
//! ```text
//! cargo run --release --manifest-path sdmbench/Cargo.toml -- \
//!     --workload <hot_exact|sm_bound|open_skewed|update_nand> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every input is generated from `--seed` before timing starts. The run
//! measures for `--seconds`, checks the served scores against a reference
//! and the layers' counters against the run guards, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end family with `--trace 0`, the per-layer family
//! with `--trace 1`. A traced run also writes its spans to
//! `.bench_trace/<workload>.tsv`. A run that breaks a guard or fails the
//! output check prints `correct: false` without numbers and exits 1; a
//! run that cannot complete exits 2 without a result line.

mod check;
mod closed;
mod counters;
mod metrics;
mod open;
mod spec;
mod stack;
mod trace;

use counters::Counters;
use embedding::{EmbeddingTable, TableId};
use metrics::Values;
use sdm_core::SdmMemoryManager;
use spec::{Scale, Workload};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{ratio, Attribution, Kind, Recorder, ROOT};
use workload::Query;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seconds measured when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Run options.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shift one reference score, so the output check must fail.
    pub perturb: bool,
    /// Where traced runs write their spans.
    pub trace_dir: PathBuf,
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Run {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Broken run guards.
    pub violations: Vec<String>,
    /// Lines printed before the result (sample counts, closure).
    pub notes: Vec<String>,
}

/// Runs one workload.
pub fn run(w: &Workload, opt: &Options) -> Result<Run, String> {
    let mut run = if w.is_closed() {
        closed::run(w, opt)?
    } else {
        open::run(w, opt)?
    };
    run.values.set("peak_rss_mib", peak_rss_mib()?);
    Ok(run)
}

/// Queries per wall second, as the median over consecutive slices of at
/// least one second: `ends[i]` is (seconds since the window opened,
/// queries done) after each batch. A short stall on a shared host moves
/// one slice, not the figure.
pub fn sliced_qps(ends: &[(f64, u64)]) -> f64 {
    let mut rates = Vec::new();
    let (mut t0, mut q0) = (0.0, 0);
    for &(t, q) in ends {
        if t - t0 >= 1.0 {
            rates.push((q - q0) as f64 / (t - t0));
            (t0, q0) = (t, q);
        }
    }
    if rates.is_empty() {
        if let Some(&(t, q)) = ends.last() {
            rates.push(q as f64 / t);
        }
    }
    median(&rates)
}

/// Batch samples per slice of [`sliced_percentile`]: enough for ten
/// samples beyond p95.
pub const SLICE_BATCHES: usize = 200;

/// Percentile `p` of per-batch wall times (in run order), as the median
/// over consecutive slices of at least [`SLICE_BATCHES`] samples. On a
/// shared host a burst of stolen CPU inflates the tail of the slices it
/// falls in; the median over slices keeps it from moving the figure.
pub fn sliced_percentile(samples: &[f64], p: f64) -> f64 {
    let slices = (samples.len() / SLICE_BATCHES).max(1);
    let per_slice = samples.len() / slices;
    let values: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                samples.len()
            } else {
                (i + 1) * per_slice
            };
            let mut slice = samples[i * per_slice..end].to_vec();
            slice.sort_by(f64::total_cmp);
            percentile(&slice, p)
        })
        .collect();
    median(&values)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Nearest-rank percentile of sorted values (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-layer metrics read from counter growth `d` over `q` queries
/// (`end`: the whole run).
pub fn set_counter_metrics(v: &mut Values, d: &Counters, end: &Counters, q: f64) {
    let per_query = |x: u64| x as f64 / q;
    v.set("manager.sm_reads_per_query", per_query(d.sm_reads));
    v.set(
        "manager.pooled_hit_rate",
        ratio(d.pooled_hits as f64, d.pooled_ops as f64),
    );
    v.set("cache.row_hit_rate", d.row_hit_rate());
    v.set("cache.row_evictions_per_query", per_query(d.evictions));
    v.set(
        "cache.shared_hit_rate",
        ratio(
            d.shared_hits as f64,
            (d.shared_hits + d.shared_misses) as f64,
        ),
    );
    v.set(
        "cache.resident_mib",
        d.resident_bytes as f64 / (1u64 << 20) as f64,
    );
    v.set("io.submitted_per_query", per_query(d.submitted));
    v.set(
        "io.queue_delay_us_per_io",
        ratio(d.queue_delay_ns as f64 / 1e3, d.submitted as f64),
    );
    v.set(
        "io.device_us_per_io",
        ratio(d.device_ns as f64 / 1e3, d.completed as f64),
    );
    v.set(
        "io.queue_depth_mean",
        ratio(d.depth_sum as f64, d.depth_samples as f64),
    );
    // The engine's own convention: 1.0 before any byte was requested.
    let amplification = if d.requested_bytes == 0 {
        1.0
    } else {
        d.bus_bytes as f64 / d.requested_bytes as f64
    };
    v.set("io.read_amplification", amplification);
    v.set("io.retries", end.retries as f64);
    v.set("device.reads_per_query", per_query(d.device_reads));
    v.set("device.bus_bytes_per_query", per_query(d.device_bus_bytes));
}

/// Per-layer wall metrics of the engine and the manager from spans over
/// `q` queries.
pub fn set_span_metrics(v: &mut Values, a: &Attribution, q: f64) {
    v.set(
        "dlrm.wall_self_us_per_query",
        a.dlrm_self_ns as f64 / 1e3 / q,
    );
    v.set("manager.wall_us_per_query", a.lookup_ns as f64 / 1e3 / q);
    v.set("manager.wall_ns_per_hit_row", a.ns_per_hit_row());
    v.set("manager.wall_ns_per_sm_read", a.ns_per_sm_read());
}

/// Times the pooling kernel in isolation: the manager's selected kernel
/// over the rows a few queries request, read from the loaded tables'
/// contents and resolved before timing. Returns wall ns per pooled row.
pub fn pool_ns_per_row(
    w: &Workload,
    queries: &[Query],
    manager: &SdmMemoryManager,
    rec: &mut Recorder,
) -> Result<f64, String> {
    let tables: HashMap<TableId, EmbeddingTable> = w
        .model
        .tables
        .iter()
        .map(|d| (d.id, EmbeddingTable::generate(d, w.config.seed)))
        .collect();
    let mut ops = Vec::new();
    for q in queries.iter().take(16) {
        for r in q.user_requests.iter().chain(&q.item_requests) {
            let t = tables.get(&r.table).ok_or("query names an unknown table")?;
            let rows = r
                .indices
                .iter()
                .map(|&i| t.row(i))
                .collect::<Result<Vec<&[u8]>, _>>()
                .map_err(|e| e.to_string())?;
            ops.push((rows, t.descriptor().quant, t.descriptor().dim));
        }
    }
    let rows: usize = ops.iter().map(|(r, _, _)| r.len()).sum();
    let dim = ops.iter().map(|(_, _, d)| *d).max().unwrap_or(0);
    let mut out = vec![0f32; dim];
    let kernel = manager.kernel();
    let (mut reps, mut ns) = (0u32, 0u128);
    while reps < 5 || ns < Duration::from_millis(100).as_nanos() {
        let span = rec.open(Kind::Pool, ROOT, reps, 0);
        let t = Instant::now();
        for (r, scheme, d) in &ops {
            let o = &mut out[..*d];
            o.fill(0.0);
            embedding::pooling::pool_quantized_into_with(kernel, r.iter().copied(), *scheme, o)
                .map_err(|e| e.to_string())?;
        }
        ns += t.elapsed().as_nanos();
        rec.close(span);
        std::hint::black_box(&out);
        reps += 1;
    }
    Ok(ratio(ns as f64, f64::from(reps) * rows as f64))
}

/// The sample-count line of the batch-wall percentiles.
pub fn batch_samples_note(samples: usize) -> String {
    format!(
        "wall_batch samples: {samples} in {} slices of >= {SLICE_BATCHES} (>= 10 beyond p95 each)",
        (samples / SLICE_BATCHES).max(1)
    )
}

/// The steal line printed with every run: the share of the host's CPU
/// time the hypervisor gave to other guests during the measured window.
pub fn steal_note(steal_s: f64, elapsed_s: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host CPU stolen during the window: {:.1}%",
        100.0 * steal_s / (elapsed_s * cores as f64)
    )
}

/// The closure line printed with every traced run. The declared bound
/// applies to the closed-loop workloads.
pub fn closure_note(closure: f64, closed_loop: bool) -> String {
    let (lo, hi) = metrics::CLOSURE_BOUND;
    if closed_loop {
        let within = (lo..=hi).contains(&closure);
        format!("trace.closure_frac {closure:.4}: within declared bound [{lo}, {hi}]: {within}")
    } else {
        format!("trace.closure_frac {closure:.4} (open loop: no bound declared)")
    }
}

/// Writes the spans of a traced run.
pub fn write_spans(
    opt: &Options,
    w: &Workload,
    rec: &Recorder,
    run: &mut Run,
) -> Result<(), String> {
    let path = opt.trace_dir.join(format!("{}.tsv", w.name));
    rec.write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    run.notes.push(format!(
        "spans: {} written to {}",
        rec.spans.len(),
        path.display()
    ));
    Ok(())
}

/// System-wide CPU time stolen by the hypervisor so far, in CPU-seconds
/// (`/proc/stat`, 1/100 s ticks). Printed with each run: on a shared host
/// it explains much of the run-to-run spread of the wall metrics.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|f| f.parse::<f64>().ok())
        })
        .map_or(0.0, |t| t / 100.0)
}

/// Process peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(workload: &str, opt: &Options) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# provenance: {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {cores}, \"cpu_model\": \"{}\", \"git_commit\": \"{}\", \"build_profile\": \"{profile}\"}}",
        opt.seed,
        opt.seconds,
        u8::from(opt.trace),
        cpu_model().replace('"', "'"),
        git_commit()
    )
}

fn usage() -> String {
    format!(
        "usage: sdmbench --workload <{}> [--seed N (default {DEFAULT_SEED})] \
         [--seconds S (default {DEFAULT_SECONDS})] [--trace 0|1]\n       sdmbench --list-metrics",
        spec::WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opt = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        perturb: false,
        trace_dir: PathBuf::from(".bench_trace"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opt.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opt.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opt.seconds.is_finite() && opt.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opt.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opt))
}

/// The result line of a finished run, or the failure line.
fn result(run: &Run, trace: bool) -> Result<(bool, String), String> {
    let correct = run.violations.is_empty() && run.failed == 0;
    if !correct {
        return Ok((false, metrics::failure_line(run.attempted, run.failed)));
    }
    let family = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let line = metrics::result_line(true, run.attempted, run.failed, family, &run.values)?;
    Ok((true, line))
}

/// The metric declarations as a table: name, unit, better, what it
/// measures, the end-to-end metric it should move and the workloads it
/// is meant for.
fn list_metrics() {
    for (family, list) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        for m in list {
            println!(
                "{family}\t{}\t{}\t{}\t{}\tmoves: {}\ton: {}",
                m.name,
                m.unit,
                m.better,
                m.what,
                if m.moves.is_empty() { "-" } else { m.moves },
                m.on
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-metrics") {
        list_metrics();
        return;
    }
    let (name, opt) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let Some(w) = spec::workload(&name, Scale::M1) else {
        eprintln!("unknown workload {name}\n{}", usage());
        std::process::exit(2);
    };
    println!("{}", provenance(&name, &opt));
    let outcome = run(&w, &opt).and_then(|run| {
        let (correct, line) = result(&run, opt.trace)?;
        Ok((run, correct, line))
    });
    match outcome {
        Ok((run, correct, line)) => {
            for note in &run.notes {
                println!("# {note}");
            }
            for v in &run.violations {
                eprintln!("guard broken: {v}");
            }
            if run.failed > 0 {
                eprintln!(
                    "output check: {} served queries disagree with the reference",
                    run.failed
                );
            }
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(name: &str, trace: bool, perturb: bool) -> Run {
        let w = spec::workload(name, Scale::Toy).expect("declared workload");
        let dir = std::env::temp_dir().join(format!("sdmbench-selftest-{}", std::process::id()));
        let opt = Options {
            seed: 7,
            seconds: 0.05,
            trace,
            perturb,
            trace_dir: dir,
        };
        run(&w, &opt).expect("toy run completes")
    }

    #[test]
    fn every_workload_prints_every_metric_once_with_its_unit() {
        for &name in spec::WORKLOADS {
            for trace in [false, true] {
                let r = toy(name, trace, false);
                assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
                assert_eq!(r.failed, 0, "{name}: output check failed");
                let (correct, line) = result(&r, trace).expect("every metric measured");
                assert!(correct);
                let family = if trace {
                    metrics::PER_LAYER
                } else {
                    metrics::END_TO_END
                };
                for m in family {
                    let key = format!("\"{}\": {{\"value\": ", m.name);
                    assert_eq!(line.matches(&key).count(), 1, "{name}: {} once", m.name);
                    let unit = format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name,
                        metrics_value(&line, m.name),
                        m.unit
                    );
                    assert!(
                        line.contains(&unit),
                        "{name}: {} with unit {}",
                        m.name,
                        m.unit
                    );
                }
                assert_eq!(line.matches("\"value\": ").count(), family.len());
            }
        }
    }

    fn metrics_value(line: &str, name: &str) -> String {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line.find(&key).expect("metric present") + key.len();
        line[at..].split(',').next().expect("value").to_string()
    }

    #[test]
    fn a_perturbed_reference_fails_the_output_check() {
        for &name in spec::WORKLOADS {
            let r = toy(name, false, true);
            assert!(r.failed > 0, "{name}: perturbed reference went unnoticed");
            assert!(r.values.get("failed_frac").is_some_and(|f| f > 0.0));
            let (correct, line) = result(&r, false).expect("failure line");
            assert!(!correct);
            assert!(line.contains("\"correct\": false") && line.contains("\"metrics\": {}"));
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let decl = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        for w in spec::WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
        let names = metrics::END_TO_END.len() + metrics::PER_LAYER.len() + spec::WORKLOADS.len();
        assert_eq!(json.matches("\"name\": ").count(), names);
    }

    #[test]
    fn sliced_percentile_takes_the_median_over_slices() {
        // Three slices of 200; a stall inflates the tail of one of them.
        let mut v: Vec<f64> = (0..600).map(|i| f64::from(i % 200)).collect();
        for x in &mut v[..20] {
            *x = 1e6;
        }
        assert_eq!(sliced_percentile(&v, 0.95), 189.0);
        // Fewer than two slices' worth: one slice, the plain percentile.
        assert_eq!(sliced_percentile(&v[..150], 0.5), 94.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
