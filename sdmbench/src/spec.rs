//! The four workloads: model, deployment, query stream and load shape.
//!
//! Every input is generated from the CLI seed before timing starts. The
//! deployment seed (table contents, MLP weights) stays
//! [`sdm_bench::EXPERIMENT_SEED`], so the seed varies only the traffic.

use dlrm::{model_zoo, ModelConfig};
use sdm_core::{FrontendConfig, SdmConfig, ServingHost};
use sdm_metrics::units::Bytes;
use sdm_metrics::SimDuration;
use workload::{Query, QueryGenerator, RoutingPolicy, WorkloadConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["hot_exact", "sm_bound", "open_skewed", "update_nand"];

/// Model scale: the M1 replica the benchmark measures, or the tiny model
/// the self-test runs every workload on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    M1,
    Toy,
}

/// How load is offered.
#[derive(Debug, Clone)]
pub enum Load {
    /// One caller sends batches of `batch` queries back to back. With
    /// `update_every`, a full model update with a fresh version runs
    /// before every `update_every`-th measured query.
    Closed {
        batch: usize,
        update_every: Option<usize>,
    },
    /// Poisson arrivals on the virtual clock through a `Frontend`.
    Open {
        /// Offered rates of the SLO ladder, ascending.
        ladder: Vec<f64>,
        /// The rung the end-to-end metrics are reported at.
        nominal_qps: f64,
        frontend: FrontendConfig,
        /// Queries offered per non-nominal rung.
        rung_queries: usize,
    },
}

/// A fully specified workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelConfig,
    pub config: SdmConfig,
    pub load: Load,
    /// Queries in the generated stream; closed loops cycle over it.
    pub stream_len: usize,
    /// Leading queries of the stream served once per set-up (warm-up).
    pub warmup_len: usize,
    /// Closed loop: leading measured queries the modelled (`sim_*`) and
    /// counter metrics are read over. Fixed, so they depend on the seed
    /// only, never on how fast the host ran.
    pub sim_queries: usize,
    /// Queries the output check compares against the reference.
    pub check_queries: usize,
    stream: StreamShape,
}

#[derive(Debug, Clone, Copy)]
enum StreamShape {
    /// Shaped like `sdm_bench::queries_for`.
    Uniform { users: u64, zipf: f64 },
    /// Shaped like `sdm_bench::skewed_queries_for`.
    Skewed { users: u64, zipf: f64 },
}

/// The SLO the open-loop ladder is judged against.
pub const SLO_P99: SimDuration = SimDuration::from_millis(50);

/// Looks a workload up by name.
pub fn workload(name: &str, scale: Scale) -> Option<Workload> {
    let model = match scale {
        Scale::M1 => sdm_bench::scaled(&model_zoo::m1()),
        Scale::Toy => model_zoo::tiny(3, 2, 400),
    };
    // Toy scale keeps every knob but shrinks budgets and stream lengths so
    // the self-test runs each workload in well under a second.
    let toy = scale == Scale::Toy;
    let pick = |m1: usize, t: usize| if toy { t } else { m1 };
    let kib = |m1: u64, t: u64| Bytes::from_kib(if toy { t } else { m1 });
    let base = sdm_bench::bench_sdm_config();
    let closed = |update_every| Load::Closed {
        batch: 16,
        update_every,
    };
    let w = match name {
        "hot_exact" => Workload {
            name: "hot_exact",
            model,
            config: base,
            load: closed(None),
            stream_len: pick(512, 64),
            warmup_len: pick(512, 64),
            sim_queries: pick(1024, 128),
            check_queries: pick(128, 32),
            stream: StreamShape::Uniform {
                users: 5_000,
                zipf: 0.8,
            },
        },
        "sm_bound" => {
            let mut config = base.with_relaxed_batching(8);
            config.cache.row_cache_budget = kib(256, 8);
            Workload {
                name: "sm_bound",
                model,
                config,
                load: closed(None),
                stream_len: pick(1024, 64),
                warmup_len: pick(64, 16),
                sim_queries: pick(1024, 128),
                check_queries: pick(128, 32),
                stream: StreamShape::Uniform {
                    users: 100_000,
                    zipf: 0.8,
                },
            }
        }
        "open_skewed" => {
            let mut config = base
                .with_relaxed_batching(8)
                .with_shared_tier(kib(8192, 64));
            // The per-shard slice of a 512 KiB host-wide cache over two shards.
            config.cache.row_cache_budget = kib(256, 8);
            config.cache.pooled_cache_budget = Bytes::ZERO;
            let nominal = if toy { 400.0 } else { 3_500.0 };
            let ladder = [0.5, 0.75, 0.875, 1.0, 1.125, 1.25, 1.5]
                .iter()
                .map(|f| f * nominal)
                .collect();
            Workload {
                name: "open_skewed",
                model,
                config,
                load: Load::Open {
                    ladder,
                    nominal_qps: nominal,
                    frontend: FrontendConfig {
                        max_batch: 16,
                        max_batch_delay: SimDuration::from_millis(5),
                        max_queue_wait: SLO_P99,
                        token_bucket: None,
                    },
                    rung_queries: pick(1000, 64),
                },
                stream_len: pick(2000, 128),
                warmup_len: pick(512, 32),
                sim_queries: 0,
                check_queries: pick(128, 32),
                stream: StreamShape::Skewed {
                    users: 64,
                    zipf: 1.1,
                },
            }
        }
        "update_nand" => Workload {
            name: "update_nand",
            model,
            config: base.with_nand_flash(),
            load: closed(Some(pick(128, 32))),
            stream_len: pick(512, 64),
            warmup_len: pick(512, 64),
            sim_queries: pick(1024, 128),
            check_queries: pick(128, 32),
            stream: StreamShape::Uniform {
                users: 5_000,
                zipf: 0.8,
            },
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    /// Generates the query stream for `seed`.
    pub fn queries(&self, seed: u64) -> Result<Vec<Query>, String> {
        let item_batch = self.model.item_batch.min(16);
        let cfg = match self.stream {
            StreamShape::Uniform { users, zipf } => WorkloadConfig {
                item_batch,
                user_population: users,
                user_zipf_exponent: zipf,
                inference_eval: false,
            },
            StreamShape::Skewed { users, zipf } => WorkloadConfig {
                item_batch,
                ..WorkloadConfig::skewed(users, zipf)
            },
        };
        let mut generator =
            QueryGenerator::new(&self.model.tables, cfg, seed).map_err(|e| e.to_string())?;
        Ok(generator.generate(self.stream_len))
    }

    /// Builds the serving host: one shard. With two shards on a two-core
    /// host every batch runs two worker threads, and CPU time the
    /// hypervisor takes from either core stalls the batch, which made the
    /// wall metrics too unsteady to gate on.
    pub fn host(&self) -> Result<ServingHost, String> {
        ServingHost::build(
            &self.model,
            &self.config,
            sdm_bench::EXPERIMENT_SEED,
            1,
            RoutingPolicy::UserSticky,
        )
        .map_err(|e| e.to_string())
    }

    /// Whether the workload is served closed-loop.
    pub fn is_closed(&self) -> bool {
        matches!(self.load, Load::Closed { .. })
    }
}
