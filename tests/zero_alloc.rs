//! Steady-state allocation audit: on a fully warmed cache, the serving hot
//! path — `run_query_into` with a recycled result, and `run_batch` with
//! warm scratch — performs **zero heap allocations per query**.
//!
//! A counting `GlobalAlloc` wrapper reports every allocation into
//! `sdm_metrics::alloc_hook`; the assertions below turn the hook on around
//! the measured serving loops only, so test-harness and setup allocations
//! do not pollute the count.

use dlrm::{model_zoo, QueryResult};
use io_engine::{EngineConfig, IoEngine, IoRequest, RetryConfig};
use scm_device::{DeviceArray, DeviceId, ReadCommand, TechnologyProfile};
use sdm_cache::SharedRowTier;
use sdm_core::{
    BatchMode, Frontend, FrontendConfig, PoolKernel, SdmConfig, SdmSystem, ServingHost, Shard,
    TokenBucketConfig,
};
use sdm_metrics::alloc_hook;
use sdm_metrics::units::Bytes;
use sdm_metrics::{SimDuration, SimInstant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;
use workload::{
    ArrivalGenerator, ArrivalProcess, Query, QueryGenerator, RoutingPolicy, WorkloadConfig,
};

/// System allocator wrapper that reports into the sdm-metrics hook.
struct CountingAllocator;

// SAFETY: defers every operation to the system allocator unchanged; the
// hook call is side-effect-only bookkeeping.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same contract as `System.alloc`; the layout is forwarded
    // unchanged and the hook only touches an atomic counter.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_hook::note_alloc(layout.size());
        System.alloc(layout)
    }

    // SAFETY: same contract as `System.alloc_zeroed`; the layout is
    // forwarded unchanged and the hook only touches an atomic counter.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        alloc_hook::note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    // SAFETY: same contract as `System.realloc`; pointer, layout and size
    // are forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a fresh allocation from the hot path's point of view.
        if new_size > layout.size() {
            alloc_hook::note_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same contract as `System.dealloc`; pointer and layout are
    // forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn queries_for(model: &dlrm::ModelConfig, count: usize, seed: u64) -> Vec<Query> {
    let cfg = WorkloadConfig {
        item_batch: model.item_batch,
        // Small population so the stream re-hits the same index sequences
        // and the caches genuinely warm up.
        user_population: 8,
        ..WorkloadConfig::default()
    };
    QueryGenerator::new(&model.tables, cfg, seed)
        .unwrap()
        .generate(count)
}

/// One round of SM-style IO against the engine: single-range SGL reads of
/// 90–170 B rows spread over three devices and six tables, submitted at one
/// instant and reaped through `drain_each`. Returns (reaped, payload bytes).
fn io_round(engine: &mut IoEngine, round: u64) -> (u64, u64) {
    let now = SimInstant::from_nanos(round * 1_000_000);
    for i in 0..48u64 {
        let command = ReadCommand::sgl(i * 512, 90 + (i % 5) as u32 * 20);
        let request = IoRequest::new(DeviceId((i % 3) as usize), command)
            .with_table((i % 6) as u32)
            .with_user_data(i);
        engine.submit(request, now).unwrap();
    }
    let (mut reaped, mut bytes) = (0, 0);
    engine
        .drain_each(now, |c| {
            reaped += 1;
            bytes += c.data.len() as u64;
        })
        .unwrap();
    (reaped, bytes)
}

/// Warm every level: row cache, pooled cache, scratch-buffer capacity,
/// batch-scratch capacity — by running the exact stream we will measure.
fn warmed_system(
    model: &dlrm::ModelConfig,
    queries: &[Query],
    seed: u64,
) -> (SdmSystem, QueryResult) {
    let mut system = SdmSystem::build(model, SdmConfig::for_tests(), seed).unwrap();
    let mut result = QueryResult::default();
    for _ in 0..3 {
        for q in queries {
            system.run_query_into(q, &mut result).unwrap();
        }
    }
    system.run_batch(queries).unwrap();
    system.run_batch(queries).unwrap();
    (system, result)
}

// The two measurements share one test because the allocation hook is
// process-global and the harness runs tests concurrently.
#[test]
fn warmed_hot_path_performs_zero_allocations() {
    let model = model_zoo::tiny(3, 2, 400);
    let queries = queries_for(&model, 12, 7);
    let (mut system, mut result) = warmed_system(&model, &queries, 7);

    // --- run_query_into with a recycled QueryResult ---
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    for q in &queries {
        system.run_query_into(q, &mut result).unwrap();
    }
    alloc_hook::set_enabled(false);
    let per_query = alloc_hook::allocations();
    assert_eq!(
        per_query,
        0,
        "steady-state run_query allocated {per_query} times over {} queries \
         ({} bytes)",
        queries.len(),
        alloc_hook::allocated_bytes()
    );

    // --- run_batch over the same warmed stream ---
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    let report = system.run_batch(&queries).unwrap();
    alloc_hook::set_enabled(false);
    let batch_allocs = alloc_hook::allocations();
    assert_eq!(
        batch_allocs, 0,
        "steady-state run_batch allocated {batch_allocs} times for {} queries",
        report.queries
    );
    assert_eq!(report.queries, queries.len() as u64);

    // Sanity: the caches really were hot (this is what makes zero
    // allocations meaningful — no IO path, pure cache serving).
    let stats = system.manager().stats();
    assert!(
        stats.row_cache_hits + stats.pooled_cache_hits > 0,
        "stream never hit a cache; the measurement is vacuous"
    );

    // --- relaxed (overlapped) run_batch over a warmed stream ---
    // The pipeline's slot pool, pending-op slab and accumulation buffers
    // all reuse capacity, so the overlapped executor is as allocation-free
    // as the exact one once warmed.
    let relaxed_cfg = SdmConfig::for_tests().with_batch_mode(BatchMode::Relaxed {
        max_inflight_queries: 4,
    });
    let mut relaxed = SdmSystem::build(&model, relaxed_cfg, 7).unwrap();
    relaxed.run_batch(&queries).unwrap();
    relaxed.run_batch(&queries).unwrap();
    relaxed.run_batch(&queries).unwrap();
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    let relaxed_report = relaxed.run_batch(&queries).unwrap();
    alloc_hook::set_enabled(false);
    let relaxed_allocs = alloc_hook::allocations();
    assert_eq!(
        relaxed_allocs, 0,
        "steady-state relaxed run_batch allocated {relaxed_allocs} times for {} queries",
        relaxed_report.queries
    );
    assert_eq!(relaxed_report.queries, queries.len() as u64);

    // --- warmed hot path with the resilience machinery armed ---
    // Bounded retries, a per-IO deadline and hedged reads compiled in and
    // *enabled* (not the inert defaults) on fault-free devices: the warmed
    // no-fault serving loop must stay allocation-free with the resilience
    // layer in the build.
    let mut resilient_cfg = SdmConfig::for_tests();
    resilient_cfg.io.retry = RetryConfig {
        max_attempts: 4,
        io_deadline: SimDuration::from_millis(50),
        hedge_after: Some(SimDuration::from_millis(10)),
        ..RetryConfig::default()
    };
    let mut resilient = SdmSystem::build(&model, resilient_cfg, 7).unwrap();
    for _ in 0..3 {
        for q in &queries {
            resilient.run_query_into(q, &mut result).unwrap();
        }
    }
    resilient.run_batch(&queries).unwrap();
    resilient.run_batch(&queries).unwrap();
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    for q in &queries {
        resilient.run_query_into(q, &mut result).unwrap();
    }
    resilient.run_batch(&queries).unwrap();
    alloc_hook::set_enabled(false);
    let resilient_allocs = alloc_hook::allocations();
    assert_eq!(
        resilient_allocs,
        0,
        "steady-state serving with armed resilience allocated {resilient_allocs} times \
         over {} queries",
        queries.len()
    );
    assert_eq!(
        resilient.manager().stats().degraded_rows,
        0,
        "fault-free devices must never degrade a row"
    );

    // --- warmed serving through the shared tier ---
    // A tiny private row cache forces private misses every query; the
    // shared tier (populated by the warmup passes' promotions) then serves
    // them. The stripe lookup — hash, mutex lock, intrusive-LRU touch,
    // closure accumulate out of the stripe arena — must allocate nothing.
    let mut tier_cfg = SdmConfig::for_tests();
    tier_cfg.cache.row_cache_budget = Bytes::from_kib(2);
    tier_cfg.cache.pooled_cache_budget = Bytes::ZERO;
    let tier = Arc::new(SharedRowTier::new(Bytes::from_mib(4), 8));
    let mut shard = Shard::build(&model, tier_cfg, 7).unwrap();
    shard.attach_shared_tier(Arc::clone(&tier), 0);
    for _ in 0..3 {
        for q in &queries {
            shard.run_query_into(q, &mut result).unwrap();
        }
    }
    let hits_before = shard.manager().stats().shared_tier_hits;
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    for q in &queries {
        shard.run_query_into(q, &mut result).unwrap();
    }
    alloc_hook::set_enabled(false);
    let tier_allocs = alloc_hook::allocations();
    assert_eq!(
        tier_allocs,
        0,
        "steady-state shared-tier serving allocated {tier_allocs} times over {} queries",
        queries.len()
    );
    assert!(
        shard.manager().stats().shared_tier_hits > hits_before,
        "measured loop never hit the shared tier; the measurement is vacuous"
    );

    // --- warmed open-loop front end: admission → batch → serve ---
    // The front end owns its pick list, logs and latency histogram; the
    // host owns the selection scratch. A repeat of the same seeded arrival
    // stream therefore touches only retained capacity: token-bucket
    // refill, SLO check, batch close and dispatch allocate nothing.
    let frontend_config = FrontendConfig {
        max_batch: 4,
        max_batch_delay: SimDuration::from_micros(500),
        max_queue_wait: SimDuration::from_millis(50),
        token_bucket: Some(TokenBucketConfig {
            capacity: 64.0,
            refill_per_sec: 1_000_000.0,
        }),
    };
    let mut host = ServingHost::build(
        &model,
        &SdmConfig::for_tests(),
        7,
        1,
        RoutingPolicy::UserSticky,
    )
    .unwrap();
    let mut frontend = Frontend::new(frontend_config).unwrap();
    let open_loop = ArrivalProcess::Poisson { rate_qps: 5_000.0 };
    for _ in 0..3 {
        let mut arrivals = ArrivalGenerator::new(open_loop, 21).unwrap();
        frontend.run(&mut host, &queries, &mut arrivals).unwrap();
    }
    let mut arrivals = ArrivalGenerator::new(open_loop, 21).unwrap();
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    let frontend_report = frontend.run(&mut host, &queries, &mut arrivals).unwrap();
    alloc_hook::set_enabled(false);
    let frontend_allocs = alloc_hook::allocations();
    assert_eq!(
        frontend_allocs,
        0,
        "steady-state open-loop serving allocated {frontend_allocs} times over {} arrivals",
        queries.len()
    );
    assert_eq!(frontend_report.offered, queries.len() as u64);
    assert!(
        frontend_report.served > 0,
        "open-loop run served nothing; the measurement is vacuous"
    );

    // --- warmed hot path with the pooling kernel forced to scalar ---
    // Kernel dispatch is resolved once at build time into a Copy handle, so
    // selecting a kernel explicitly (the SIMD A/B lever) must not add any
    // per-query work: the scalar-forced system is as allocation-free as the
    // auto-dispatched one.
    let scalar_cfg = SdmConfig::for_tests().with_pool_kernel(PoolKernel::Scalar);
    let mut scalar_system = SdmSystem::build(&model, scalar_cfg, 7).unwrap();
    for _ in 0..3 {
        for q in &queries {
            scalar_system.run_query_into(q, &mut result).unwrap();
        }
    }
    scalar_system.run_batch(&queries).unwrap();
    scalar_system.run_batch(&queries).unwrap();
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    for q in &queries {
        scalar_system.run_query_into(q, &mut result).unwrap();
    }
    scalar_system.run_batch(&queries).unwrap();
    alloc_hook::set_enabled(false);
    let scalar_allocs = alloc_hook::allocations();
    assert_eq!(
        scalar_allocs,
        0,
        "steady-state scalar-kernel serving allocated {scalar_allocs} times over {} queries",
        queries.len()
    );
    assert_eq!(
        scalar_system.manager().kernel().name(),
        "scalar",
        "forced scalar kernel did not take effect"
    );

    // --- warmed IO engine: submit + drain_each ---
    // The command holds its one range inline, the device reads straight
    // into the engine's payload buffer and `drain_each` lends each payload
    // out of it, so with the default retry policy a warmed submit/reap loop
    // allocates nothing per IO.
    let array =
        DeviceArray::homogeneous(TechnologyProfile::optane_ssd(), Bytes::from_mib(1), 3).unwrap();
    let mut engine = IoEngine::new(array, EngineConfig::default());
    for round in 0..3 {
        io_round(&mut engine, round);
    }
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    let mut io_totals = (0, 0);
    for round in 3..6 {
        let (reaped, bytes) = io_round(&mut engine, round);
        io_totals = (io_totals.0 + reaped, io_totals.1 + bytes);
    }
    alloc_hook::set_enabled(false);
    let io_allocs = alloc_hook::allocations();
    assert_eq!(
        io_allocs, 0,
        "warmed IoEngine submit + drain_each allocated {io_allocs} times over {} reads",
        io_totals.0
    );
    let device_reads: u64 = engine.array().iter().map(|(_, d)| d.stats().reads).sum();
    assert_eq!(io_totals.0, 3 * 48, "every measured read must be reaped");
    assert_eq!(device_reads, 6 * 48, "the devices must serve every read");
    assert!(io_totals.1 >= 3 * 48 * 90);

    // Control: the allocating run_query wrapper does allocate (the returned
    // QueryResult), proving the counter actually observes this code path.
    alloc_hook::reset();
    alloc_hook::set_enabled(true);
    let owned = system.run_query(&queries[0]).unwrap();
    alloc_hook::set_enabled(false);
    assert!(!owned.scores.is_empty());
    assert!(
        alloc_hook::allocations() > 0,
        "control failed: the counting allocator is not installed"
    );
}
