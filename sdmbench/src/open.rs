//! The open-loop workload: Poisson arrivals on the virtual clock through
//! `Frontend`, served by a one-shard host with a shared row tier.

use crate::check::{self, Reference};
use crate::counters::Counters;
use crate::spec::{Load, Workload, SLO_P99};
use crate::stack::{position_ids, Stack};
use crate::trace::{ratio, Attribution, Recorder};
use crate::{median, percentile, pool_ns_per_row, Options, Run};
use sdm_bench::EXPERIMENT_SEED;
use sdm_cache::SharedRowTier;
use sdm_core::{BatchRecord, Frontend, FrontendReport, QueryOutcome, ServingHost};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{ArrivalGenerator, ArrivalProcess, Query};

/// Nominal-rung batches the traced replay covers.
const TRACED_BATCHES: usize = 64;

/// The arrival seed of a rung: the CLI seed mixed with the offered rate.
fn arrivals(seed: u64, rate: f64) -> Result<ArrivalGenerator, String> {
    ArrivalGenerator::new(
        ArrivalProcess::Poisson { rate_qps: rate },
        seed ^ (rate as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )
    .map_err(|e| e.to_string())
}

/// Serves the warm-up prefix closed-loop, in frontend-sized batches.
fn warm(
    host: &mut ServingHost,
    w: &Workload,
    queries: &[Query],
    batch: usize,
) -> Result<u64, String> {
    let mut rows = 0;
    for chunk in queries[..w.warmup_len].chunks(batch) {
        host.run_batch(chunk).map_err(|e| e.to_string())?;
        rows += chunk.iter().map(|q| q.total_lookups() as u64).sum::<u64>();
    }
    Ok(rows)
}

/// The batches a run dispatched, regrouped from the completion instants
/// in the query log (positions in stream order), checked against the
/// batch log.
fn dispatched(fe: &Frontend) -> Result<Vec<Vec<usize>>, String> {
    let mut batches: Vec<(u64, Vec<usize>)> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for (qi, record) in fe.query_log().iter().enumerate() {
        if let QueryOutcome::Served { completed } = record.outcome {
            let at = completed.as_nanos();
            let b = *index.entry(at).or_insert_with(|| {
                batches.push((at, Vec::new()));
                batches.len() - 1
            });
            batches[b].1.push(qi);
        }
    }
    batches.sort_by_key(|(at, _)| *at);
    let log = fe.batch_log();
    let agrees = batches.len() == log.len()
        && batches
            .iter()
            .zip(log)
            .all(|((at, picks), r)| *at == r.completed_at.as_nanos() && picks.len() == r.len);
    if !agrees {
        return Err("query log and batch log disagree on the dispatched batches".into());
    }
    Ok(batches.into_iter().map(|(_, picks)| picks).collect())
}

fn served_rows(fe: &Frontend, rows: &[u64]) -> u64 {
    fe.query_log()
        .iter()
        .zip(rows)
        .filter(|(r, _)| matches!(r.outcome, QueryOutcome::Served { .. }))
        .map(|(_, &n)| n)
        .sum()
}

fn p99_ms(log: &[BatchRecord], f: impl Fn(&BatchRecord) -> u64) -> f64 {
    let mut v: Vec<f64> = log.iter().map(|r| f(r) as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.99)
}

/// The first `Frontend::run` at the nominal rate: the modelled metrics,
/// the frontend's batch log and the replayed batches come from it.
struct FirstRun {
    report: FrontendReport,
    log: Vec<BatchRecord>,
    batches: Vec<Vec<usize>>,
    /// Host counters right after it.
    counters: Counters,
}

/// What the untraced run hands the traced run.
struct Untraced {
    batches: Vec<Vec<usize>>,
    /// Host bookkeeping per batch call, µs.
    host_self_us: f64,
    /// Median wall of one `Frontend::run`, and median of each run's wall
    /// minus the wall of the replayed host calls of its batches.
    run_ms: f64,
    self_ms: f64,
    served: u64,
}

pub fn run(w: &Workload, opt: &Options) -> Result<Run, String> {
    let Load::Open {
        ladder,
        nominal_qps: nominal,
        frontend,
        rung_queries,
    } = &w.load
    else {
        return Err(format!("{} is not an open-loop workload", w.name));
    };
    let nominal = *nominal;
    let queries = w.queries(opt.seed)?;
    let rows: Vec<u64> = queries.iter().map(|q| q.total_lookups() as u64).collect();
    let batch = frontend.max_batch;

    let mut setups = Vec::new();
    let mut host = None;
    let mut requested = 0;
    for _ in 0..crate::SETUPS {
        drop(host.take());
        let t = Instant::now();
        let mut h = w.host()?;
        requested = warm(&mut h, w, &queries, batch)?;
        setups.push(t.elapsed().as_secs_f64());
        host = Some(h);
    }
    let mut host = host.ok_or("no set-up ran")?;
    let before = Counters::of_host(&host);

    // Measured window: the nominal rung, then a timed replay of the
    // batches it dispatched, repeated until the window is spent.
    let mut fe = Frontend::new(*frontend).map_err(|e| e.to_string())?;
    let mut first: Option<FirstRun> = None;
    let mut run_ms = Vec::new();
    // Served queries per wall second of each `Frontend::run`.
    let mut run_qps = Vec::new();
    let mut calls_ms = Vec::new();
    let mut call_ms: Vec<f64> = Vec::with_capacity(4096);
    let mut served = 0u64;
    let mut kept: Vec<(usize, Vec<f32>)> = Vec::new();
    // Σ virtual (MLP, embedding) time over the first replay's queries.
    let mut sim_parts = (0u64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(opt.seconds);
    let steal0 = crate::steal_s();
    let start = Instant::now();
    loop {
        let mut arr = arrivals(opt.seed, nominal)?;
        let t = Instant::now();
        let report = fe
            .run(&mut host, &queries, &mut arr)
            .map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        run_ms.push(ms);
        run_qps.push(report.served as f64 * 1e3 / ms);
        served += report.served;
        requested += served_rows(&fe, &rows);
        if first.is_none() {
            let batches = dispatched(&fe)?;
            first = Some(FirstRun {
                report,
                log: fe.batch_log().to_vec(),
                batches,
                counters: Counters::of_host(&host),
            });
        }
        let batches = &first.as_ref().ok_or("no nominal run")?.batches;
        let checked: std::collections::HashSet<usize> = if calls_ms.is_empty() {
            let all: Vec<usize> = batches.iter().flatten().copied().collect();
            check::sample(all.len(), w.check_queries, opt.seed)
                .into_iter()
                .map(|i| all[i])
                .collect()
        } else {
            Default::default()
        };
        let mut replay_ms = 0.0;
        for picks in batches {
            let t = Instant::now();
            host.run_selected_batch(&queries, picks)
                .map_err(|e| e.to_string())?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            call_ms.push(ms);
            replay_ms += ms;
            requested += picks.iter().map(|&qi| rows[qi]).sum::<u64>();
            if calls_ms.is_empty() {
                for (i, qi) in picks.iter().enumerate() {
                    let l = host.latency(i);
                    sim_parts.0 += (l.bottom_mlp + l.top_mlp).as_nanos();
                    sim_parts.1 += (l.user_embeddings + l.item_embeddings).as_nanos();
                    sim_parts.2 += 1;
                    if checked.contains(qi) {
                        kept.push((*qi, host.scores(i).to_vec()));
                    }
                }
            }
        }
        calls_ms.push(replay_ms);
        if start.elapsed() >= budget {
            break;
        }
    }
    let FirstRun {
        report,
        log,
        batches,
        counters: at_nominal,
    } = first.ok_or("no nominal run")?;
    let steal = crate::steal_s() - steal0;
    let elapsed = start.elapsed().as_secs_f64();

    let mut run = Run {
        attempted: served,
        ..Run::default()
    };
    let end = Counters::of_host(&host);
    run.violations = end.violations(requested, host.failovers());

    // Output check against the DRAM reference, outside the timed window.
    kept.sort_by_key(|(qi, _)| *qi);
    let served_scores: Vec<(usize, &[f32], usize)> =
        kept.iter().map(|(qi, s)| (*qi, s.as_slice(), 0)).collect();
    let mismatches = check::count_mismatches(
        &queries,
        &served_scores,
        |_| Reference::dram(&w.model, &w.config, EXPERIMENT_SEED),
        opt.perturb,
    )?;
    run.failed = mismatches;

    let v = &mut run.values;
    v.set("setup_s", median(&setups));
    v.set("wall_qps", median(&run_qps));
    v.set(
        "wall_batch_ms_p50",
        crate::sliced_percentile(&call_ms, 0.50),
    );
    v.set(
        "wall_batch_ms_p95",
        crate::sliced_percentile(&call_ms, 0.95),
    );
    run.notes.push(crate::steal_note(steal, elapsed));
    run.notes.push(crate::batch_samples_note(call_ms.len()));
    run.notes
        .push(format!("nominal-rate passes: {}", run_ms.len()));
    v.set("sim_qps", report.served_qps);
    v.set("sim_latency_ms_p50", report.p50_latency.as_millis_f64());
    v.set("sim_latency_ms_p99", report.p99_latency.as_millis_f64());
    run.notes.push(format!(
        "sim_latency samples: {} ({} beyond p99); generator lateness: 0 ms (arrivals are virtual instants)",
        report.served,
        report.served / 100
    ));

    v.set("shed_frac", report.shed_rate());
    v.set("failed_frac", mismatches as f64 / served as f64);
    v.set("frontend.batch_size_mean", report.mean_batch);
    v.set("host.shard_skew", 1.0);
    v.set(
        "frontend.batch_wait_ms_p99",
        p99_ms(&log, |r| {
            r.closed_at.duration_since(r.oldest_arrival).as_nanos()
        }),
    );
    v.set(
        "frontend.queue_wait_ms_p99",
        p99_ms(&log, |r| {
            r.started_at.duration_since(r.closed_at).as_nanos()
        }),
    );
    let d = at_nominal.since(&before);
    crate::set_counter_metrics(v, &d, &end, report.served as f64);
    let replayed = sim_parts.2 as f64;
    v.set(
        "dlrm.sim_mlp_us_per_query",
        ratio(sim_parts.0 as f64 / 1e3, replayed),
    );
    v.set(
        "dlrm.sim_embedding_us_per_query",
        ratio(sim_parts.1 as f64 / 1e3, replayed),
    );
    v.set("cache.refill_queries", 0.0);
    v.set("device.write_ms_per_update", 0.0);
    v.set("device.min_update_interval_days", 0.0);
    v.set("update.wall_ms", 0.0);

    if opt.trace {
        // The SLO ladder, each rung on a re-warmed host.
        let mut slo = 0.0;
        for &rate in ladder {
            let p99_ok;
            let shed;
            if rate == nominal {
                p99_ok = report.p99_latency <= SLO_P99;
                shed = report.shed();
            } else {
                warm(&mut host, w, &queries, batch)?;
                let mut arr = arrivals(opt.seed, rate)?;
                let r = fe
                    .run(
                        &mut host,
                        &queries[..(*rung_queries).min(queries.len())],
                        &mut arr,
                    )
                    .map_err(|e| e.to_string())?;
                p99_ok = r.p99_latency <= SLO_P99;
                shed = r.shed();
                run.notes.push(format!(
                    "rung {rate} q/s: p99 {:.2} ms, shed {:.4}",
                    r.p99_latency.as_millis_f64(),
                    r.shed_rate()
                ));
            }
            if p99_ok && shed == 0 {
                slo = rate;
            }
        }
        run.values.set("slo_qps", slo);
        let host_self_us = host_self_us(
            &mut host,
            &queries,
            &batches[..batches.len().min(TRACED_BATCHES)],
        )?;
        let untraced = Untraced {
            host_self_us,
            batches,
            run_ms: median(&run_ms),
            self_ms: median(
                &run_ms
                    .iter()
                    .zip(&calls_ms)
                    .map(|(r, c)| r - c)
                    .collect::<Vec<_>>(),
            ),
            served: report.served,
        };
        traced(w, opt, &queries, &untraced, &mut run)?;
    } else {
        run.values.set("slo_qps", 0.0);
    }
    Ok(run)
}

/// The traced run: the nominal rung's first batches replayed through an
/// assembled stack with the workload's shared tier attached, once with
/// recording off (the shard's time per batch) and once with it on (the
/// layer spans).
fn traced(
    w: &Workload,
    opt: &Options,
    queries: &[Query],
    untraced: &Untraced,
    run: &mut Run,
) -> Result<(), String> {
    let mut stack = Stack::build(&w.model, w.config.clone(), EXPERIMENT_SEED, 0)?;
    if !w.config.cache.shared_tier_budget.is_zero() {
        let tier = SharedRowTier::with_admission(
            w.config.cache.shared_tier_budget,
            w.config.cache.shared_tier_stripes,
            w.config.cache.shared_tier_admission,
        );
        stack.manager.attach_shared_tier(Arc::new(tier), 0);
    }
    let mut off = Recorder::off();
    let warm: Vec<usize> = (0..w.warmup_len).collect();
    for picks in warm.chunks(16) {
        stack.run_batch(queries, picks, &position_ids(picks), &mut off)?;
    }

    // The traced replay covers the first batches only, which keeps the
    // span file to tens of megabytes.
    let batches = &untraced.batches[..untraced.batches.len().min(TRACED_BATCHES)];
    let replayed: usize = batches.iter().map(Vec::len).sum();
    let ops = queries[0].user_requests.len() + queries[0].item_requests.len();
    let mut rec = Recorder::with_capacity(replayed * (2 * (ops + 1)) + 4096);
    let mut replay = |rec: &mut Recorder| -> Result<Vec<f64>, String> {
        let mut shard_ms = Vec::with_capacity(batches.len());
        for picks in batches {
            let t = Instant::now();
            stack.run_batch(queries, picks, &position_ids(picks), rec)?;
            shard_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok(shard_ms)
    };
    // One untimed pass first: the host had served these batches once
    // (through the frontend) before its calls were timed.
    replay(&mut off)?;
    let shard_ms = replay(&mut off)?;
    let traced_ms = replay(&mut rec)?;
    let (off_ms, on_ms): (f64, f64) = (shard_ms.iter().sum(), traced_ms.iter().sum());

    let a = Attribution::of(&rec.spans);
    let pool = pool_ns_per_row(w, queries, &stack.manager, &mut rec)?;
    let host_self_ms = untraced.host_self_us * batches.len() as f64 / 1e3;
    let v = &mut run.values;
    v.set("frontend.wall_self_ms", untraced.self_ms);
    v.set("host.wall_self_us_per_batch", untraced.host_self_us);
    crate::set_span_metrics(v, &a, replayed as f64);
    v.set("embedding.pool_ns_per_row", pool);
    v.set("trace.overhead_frac", (on_ms - off_ms) / off_ms);
    // Per query: the frontend's self time over the whole run, then host
    // bookkeeping and the traced shard time over the replayed batches,
    // against the untraced `Frontend::run` wall.
    let served = untraced.served as f64;
    let closure = (untraced.self_ms / served + (host_self_ms + on_ms) / replayed as f64)
        / (untraced.run_ms / served);
    v.set("trace.closure_frac", closure);
    run.notes.push(crate::closure_note(closure, false));
    crate::write_spans(opt, w, &rec, run)
}

/// The host's own work per batch call — partitioning, merging, health
/// bookkeeping — on the warm host: passes of `run_selected_batch` over
/// `batches` alternate with passes that hand the same picks straight to
/// the host's shard (`Shard::run_indexed_batch`), and the per-batch
/// medians of the two are subtracted. Returns µs per batch.
fn host_self_us(
    host: &mut ServingHost,
    queries: &[Query],
    batches: &[Vec<usize>],
) -> Result<f64, String> {
    const ROUNDS: usize = 3;
    let (mut via_host, mut direct) = (
        vec![Vec::new(); batches.len()],
        vec![Vec::new(); batches.len()],
    );
    for _ in 0..ROUNDS {
        for (b, picks) in batches.iter().enumerate() {
            let t = Instant::now();
            host.run_selected_batch(queries, picks)
                .map_err(|e| e.to_string())?;
            via_host[b].push(t.elapsed().as_secs_f64() * 1e6);
        }
        for (b, picks) in batches.iter().enumerate() {
            let t = Instant::now();
            host.shard_mut(0)
                .run_indexed_batch(queries, picks)
                .map_err(|e| e.to_string())?;
            direct[b].push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let diff: f64 = via_host
        .iter()
        .zip(&direct)
        .map(|(h, d)| median(h) - median(d))
        .sum();
    Ok(diff / batches.len() as f64)
}
