//! Closed-loop workloads: one caller sends batches back to back.

use crate::check::{self, Reference};
use crate::counters::Counters;
use crate::spec::{Load, Workload};
use crate::stack::{position_ids, Stack};
use crate::trace::{ratio, Attribution, Kind, Recorder, ROOT};
use crate::{median, percentile, pool_ns_per_row, Options, Run};
use dlrm::LatencyBreakdown;
use sdm_bench::EXPERIMENT_SEED;
use sdm_core::{ModelUpdater, ServingHost, UpdateKind, UpdateReport};
use std::time::{Duration, Instant};

/// What the untraced run hands the traced run to compare against.
struct Untraced {
    /// Counters after the modelled window.
    at_sim: Counters,
    /// Scores of the checked queries: (measured index, scores).
    kept: Vec<(usize, Vec<f32>)>,
    wall_ns_per_query: f64,
}

pub fn run(w: &Workload, opt: &Options) -> Result<Run, String> {
    let Load::Closed {
        batch,
        update_every,
    } = w.load
    else {
        return Err(format!("{} is not a closed-loop workload", w.name));
    };
    let queries = w.queries(opt.seed)?;
    let n = queries.len();
    if !n.is_multiple_of(batch) || w.warmup_len > n || !w.sim_queries.is_multiple_of(batch) {
        return Err(format!("{}: stream lengths must be whole batches", w.name));
    }
    let rows: Vec<u64> = queries.iter().map(|q| q.total_lookups() as u64).collect();

    // Set-up, several times; the last host is measured.
    let mut setups = Vec::new();
    let mut host: Option<ServingHost> = None;
    for _ in 0..crate::SETUPS {
        drop(host.take());
        let t = Instant::now();
        let mut h = w.host()?;
        for chunk in queries[..w.warmup_len].chunks(batch) {
            h.run_batch(chunk).map_err(|e| e.to_string())?;
        }
        setups.push(t.elapsed().as_secs_f64());
        host = Some(h);
    }
    let mut host = host.ok_or("no set-up ran")?;
    let mut requested: u64 = rows[..w.warmup_len].iter().sum();
    let before = Counters::of_host(&host);

    let checked = check::sample(w.sim_queries, w.check_queries, opt.seed);
    let mut is_checked = vec![false; w.sim_queries];
    for &k in &checked {
        is_checked[k] = true;
    }
    let mut kept: Vec<(usize, Vec<f32>)> = Vec::with_capacity(checked.len());
    let mut latencies: Vec<LatencyBreakdown> = Vec::with_capacity(w.sim_queries);
    let mut makespan_ns = 0u64;
    let mut batch_ms: Vec<f64> = Vec::with_capacity(1 << 14);
    let mut updates: Vec<UpdateReport> = Vec::new();
    // Row hits and row probes after every modelled batch (refill curve).
    let mut probes: Vec<(u64, u64)> = Vec::with_capacity(w.sim_queries / batch + 1);
    probes.push(row_probe(&host));
    let mut at_sim = None;

    let budget = Duration::from_secs_f64(opt.seconds);
    let steal0 = crate::steal_s();
    let mut ends: Vec<(f64, u64)> = Vec::with_capacity(1 << 14);
    let start = Instant::now();
    let (mut k, mut pos, mut version) = (0usize, 0usize, 0u64);
    loop {
        if update_every.is_some_and(|every| k % every == 0) {
            version += 1;
            for i in 0..host.shards() {
                let report =
                    ModelUpdater::apply(host.shard_mut(i).manager_mut(), UpdateKind::Full, version)
                        .map_err(|e| e.to_string())?;
                if k < w.sim_queries {
                    updates.push(report);
                }
            }
        }
        let chunk = &queries[pos..pos + batch];
        let t = Instant::now();
        let report = host.run_batch(chunk).map_err(|e| e.to_string())?;
        batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        requested += rows[pos..pos + batch].iter().sum::<u64>();
        if k < w.sim_queries {
            makespan_ns += report.virtual_makespan.as_nanos();
            for i in 0..batch {
                latencies.push(host.latency(i));
                if is_checked[k + i] {
                    kept.push((k + i, host.scores(i).to_vec()));
                }
            }
            probes.push(row_probe(&host));
            if k + batch == w.sim_queries {
                at_sim = Some(Counters::of_host(&host));
            }
        }
        k += batch;
        ends.push((start.elapsed().as_secs_f64(), k as u64));
        pos = (pos + batch) % n;
        if k >= w.sim_queries && start.elapsed() >= budget {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let steal = crate::steal_s() - steal0;
    let at_sim = at_sim.ok_or("modelled window not reached")?;
    let end = Counters::of_host(&host);
    drop(host);

    let mut run = Run {
        attempted: k as u64,
        ..Run::default()
    };
    run.violations = end.violations(requested, 0);

    // Output check, outside the timed window.
    let position = |k: usize| k % n;
    let every = update_every.unwrap_or(usize::MAX);
    let served: Vec<(usize, &[f32], usize)> = kept
        .iter()
        .map(|(k, s)| {
            (
                position(*k),
                s.as_slice(),
                if update_every.is_some() {
                    k / every + 1
                } else {
                    0
                },
            )
        })
        .collect();
    let mismatches = check::count_mismatches(
        &queries,
        &served,
        |group| {
            if group == 0 {
                Reference::dram(&w.model, &w.config, EXPERIMENT_SEED)
            } else {
                Reference::updated(&w.model, &w.config, EXPERIMENT_SEED, group as u64)
            }
        },
        opt.perturb,
    )?;
    run.failed = mismatches;

    // End-to-end metrics.
    let v = &mut run.values;
    v.set("setup_s", median(&setups));
    v.set("wall_qps", crate::sliced_qps(&ends));
    v.set(
        "wall_batch_ms_p50",
        crate::sliced_percentile(&batch_ms, 0.50),
    );
    v.set(
        "wall_batch_ms_p95",
        crate::sliced_percentile(&batch_ms, 0.95),
    );
    run.notes.push(crate::steal_note(steal, elapsed));
    run.notes.push(crate::batch_samples_note(batch_ms.len()));
    let q = w.sim_queries as f64;
    v.set("sim_qps", q / (makespan_ns as f64 / 1e9));
    let mut lat: Vec<f64> = latencies
        .iter()
        .map(|l| l.total.as_nanos() as f64 / 1e6)
        .collect();
    lat.sort_by(f64::total_cmp);
    v.set("sim_latency_ms_p50", percentile(&lat, 0.50));
    v.set("sim_latency_ms_p99", percentile(&lat, 0.99));
    run.notes.push(format!(
        "sim_latency samples: {} ({} beyond p99)",
        lat.len(),
        lat.len() / 100
    ));

    // Per-layer metrics read from counters and reports.
    let d = at_sim.since(&before);
    let mean_us = |f: &dyn Fn(&LatencyBreakdown) -> u64| {
        latencies.iter().map(|l| f(l) as f64).sum::<f64>() / q / 1e3
    };
    v.set("slo_qps", 0.0);
    v.set("shed_frac", 0.0);
    v.set("failed_frac", mismatches as f64 / k as f64);
    v.set("frontend.batch_size_mean", batch as f64);
    v.set("frontend.batch_wait_ms_p99", 0.0);
    v.set("frontend.queue_wait_ms_p99", 0.0);
    v.set("host.shard_skew", 1.0);
    v.set(
        "dlrm.sim_mlp_us_per_query",
        mean_us(&|l| (l.bottom_mlp + l.top_mlp).as_nanos()),
    );
    v.set(
        "dlrm.sim_embedding_us_per_query",
        mean_us(&|l| (l.user_embeddings + l.item_embeddings).as_nanos()),
    );
    crate::set_counter_metrics(v, &d, &end, q);
    v.set(
        "cache.refill_queries",
        refill_queries(&probes, batch, update_every),
    );
    let per_update =
        |f: &dyn Fn(&UpdateReport) -> f64| ratio(updates.iter().map(f).sum(), updates.len() as f64);
    v.set(
        "device.write_ms_per_update",
        per_update(&|r| r.write_time.as_millis_f64()),
    );
    v.set(
        "device.min_update_interval_days",
        per_update(&|r| r.min_update_interval_days),
    );

    if opt.trace {
        let untraced = Untraced {
            at_sim,
            kept,
            wall_ns_per_query: elapsed * 1e9 / k as f64,
        };
        traced(w, opt, &queries, &untraced, &mut run)?;
    }
    Ok(run)
}

/// Cumulative (row hits, row probes) of the host.
fn row_probe(host: &ServingHost) -> (u64, u64) {
    let c = Counters::of_host(host);
    (c.row_hits, c.row_hits + c.shared_hits + c.sm_reads)
}

/// Mean queries after a full update until a batch's row hit rate is back
/// within 10 % of the batch before the update. Updates at the start of the
/// window have no batch before them and are skipped.
fn refill_queries(probes: &[(u64, u64)], batch: usize, update_every: Option<usize>) -> f64 {
    let Some(every) = update_every else {
        return 0.0;
    };
    let rate = |b: usize| {
        let (h0, p0) = probes[b];
        let (h1, p1) = probes[b + 1];
        ratio((h1 - h0) as f64, (p1 - p0) as f64)
    };
    let batches = probes.len() - 1;
    let per_update = every / batch;
    let mut refills = Vec::new();
    let mut u = per_update;
    while u < batches {
        let pre = rate(u - 1);
        let end = (u + per_update).min(batches);
        let recovered = (u..end).find(|&b| rate(b) >= 0.9 * pre).unwrap_or(end);
        refills.push(((recovered - u) * batch) as f64);
        u += per_update;
    }
    ratio(refills.iter().sum(), refills.len() as f64)
}

/// The traced run: the same stream through an assembled stack, every
/// layer call timed.
fn traced(
    w: &Workload,
    opt: &Options,
    queries: &[workload::Query],
    untraced: &Untraced,
    run: &mut Run,
) -> Result<(), String> {
    let Load::Closed {
        batch,
        update_every,
    } = w.load
    else {
        return Err("not closed".into());
    };
    let n = queries.len();
    let mut stack = Stack::build(&w.model, w.config.clone(), EXPERIMENT_SEED, 0)?;
    let mut off = Recorder::off();
    let warm: Vec<usize> = (0..w.warmup_len).collect();
    for picks in warm.chunks(batch) {
        stack.run_batch(queries, picks, &position_ids(picks), &mut off)?;
    }
    let ops = queries[0].user_requests.len() + queries[0].item_requests.len();
    let phases = if w.config.batch_mode == sdm_core::BatchMode::Exact {
        1
    } else {
        2
    };
    let mut rec =
        Recorder::with_capacity(w.sim_queries * (phases * (ops + 1)) + w.sim_queries + 64);
    let is_checked: std::collections::HashMap<usize, &[f32]> = untraced
        .kept
        .iter()
        .map(|(k, s)| (*k, s.as_slice()))
        .collect();
    let mut differing = 0;
    let mut version = 0u64;
    let mut picks = vec![0usize; batch];
    let mut ids = vec![0u32; batch];
    let start = Instant::now();
    for k in (0..w.sim_queries).step_by(batch) {
        if update_every.is_some_and(|every| k % every == 0) {
            version += 1;
            let span = rec.open(Kind::Update, ROOT, k as u32, 0);
            ModelUpdater::apply(&mut stack.manager, UpdateKind::Full, version)
                .map_err(|e| e.to_string())?;
            rec.close(span);
        }
        for i in 0..batch {
            picks[i] = (k + i) % n;
            ids[i] = (k + i) as u32;
        }
        stack.run_batch(queries, &picks, &ids, &mut rec)?;
        for i in 0..batch {
            if let Some(want) = is_checked.get(&(k + i)) {
                if *want != stack.scores(i) {
                    differing += 1;
                }
            }
        }
    }
    let traced_ns = start.elapsed().as_nanos() as f64;
    let counters = Counters::of_managers([&stack.manager], None);
    if differing > 0 {
        run.violations.push(format!(
            "traced stack served {differing} checked queries differently"
        ));
    }
    if counters != untraced.at_sim {
        run.violations.push(format!(
            "traced stack counters diverge from the host's: {counters:?} vs {:?}",
            untraced.at_sim
        ));
    }

    let a = Attribution::of(&rec.spans);
    let q = w.sim_queries as f64;
    let batch_ns: u64 = rec
        .spans
        .iter()
        .filter(|s| s.kind == Kind::Batch)
        .map(|s| s.ns())
        .sum();
    let pool = pool_ns_per_row(w, queries, &stack.manager, &mut rec)?;
    let v = &mut run.values;
    v.set(
        "frontend.wall_self_ms",
        (traced_ns - batch_ns as f64 - a.update_ns as f64) / 1e6,
    );
    v.set(
        "host.wall_self_us_per_batch",
        ratio(a.batch_self_ns as f64 / 1e3, a.batches as f64),
    );
    crate::set_span_metrics(v, &a, q);
    v.set(
        "update.wall_ms",
        ratio(a.update_ns as f64 / 1e6, a.updates as f64),
    );
    v.set("embedding.pool_ns_per_row", pool);
    let traced_per_query = traced_ns / q;
    v.set(
        "trace.overhead_frac",
        (traced_per_query - untraced.wall_ns_per_query) / untraced.wall_ns_per_query,
    );
    let layers = (a.batch_self_ns + a.dlrm_self_ns + a.lookup_ns + a.update_ns) as f64 / q;
    let closure = layers / untraced.wall_ns_per_query;
    v.set("trace.closure_frac", closure);
    run.notes.push(crate::closure_note(closure, true));
    crate::write_spans(opt, w, &rec, run)
}
