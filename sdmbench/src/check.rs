//! The output check: served scores against a reference, outside the
//! timed window.

use dlrm::{ComputeModel, DramBackend, InferenceEngine, ModelConfig};
use sdm_core::{ModelUpdater, SdmConfig, ServingHost, UpdateKind};
use sdm_metrics::SimInstant;
use workload::{Query, RoutingPolicy};

/// Whether two score vectors agree within the reassociation tolerance of
/// the `batch_overlap` suite (relaxed batching may pool rows in another
/// order).
pub fn scores_close(want: &[f32], got: &[f32]) -> bool {
    want.len() == got.len()
        && want.iter().zip(got).all(|(&a, &b)| {
            let tol = 1e-4 * a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol
        })
}

/// Reference scores for a set of queries.
pub enum Reference {
    /// Every table resident in DRAM, as in the `end_to_end` suite.
    Dram {
        engine: Box<InferenceEngine>,
        backend: Box<DramBackend>,
    },
    /// A fresh host that applied a full update to `version` before
    /// serving: the rows a correctly invalidated host must serve then.
    Updated { host: Box<ServingHost> },
}

impl Reference {
    /// The DRAM reference of `model` under `config`'s table seed.
    pub fn dram(model: &ModelConfig, config: &SdmConfig, seed: u64) -> Result<Self, String> {
        let engine = InferenceEngine::new(model.clone(), ComputeModel::default(), seed)
            .map_err(|e| e.to_string())?;
        let backend = DramBackend::from_tables(
            model
                .tables
                .iter()
                .map(|d| embedding::EmbeddingTable::generate(d, config.seed))
                .collect(),
        );
        Ok(Reference::Dram {
            engine: Box::new(engine),
            backend: Box::new(backend),
        })
    }

    /// A fresh one-shard host updated to `version`.
    pub fn updated(
        model: &ModelConfig,
        config: &SdmConfig,
        seed: u64,
        version: u64,
    ) -> Result<Self, String> {
        let mut host = ServingHost::build(model, config, seed, 1, RoutingPolicy::UserSticky)
            .map_err(|e| e.to_string())?;
        for i in 0..host.shards() {
            ModelUpdater::apply(host.shard_mut(i).manager_mut(), UpdateKind::Full, version)
                .map_err(|e| e.to_string())?;
        }
        Ok(Reference::Updated {
            host: Box::new(host),
        })
    }

    /// Reference scores of `query`.
    pub fn scores(&mut self, query: &Query) -> Result<Vec<f32>, String> {
        match self {
            Reference::Dram { engine, backend } => engine
                .execute(query, backend.as_mut(), SimInstant::EPOCH)
                .map(|r| r.scores)
                .map_err(|e| e.to_string()),
            Reference::Updated { host } => {
                host.run_batch(std::slice::from_ref(query))
                    .map_err(|e| e.to_string())?;
                Ok(host.scores(0).to_vec())
            }
        }
    }
}

/// Compares every kept query against `reference_for(entry)`. With
/// `perturb`, the first reference score is shifted, which must make the
/// check fail (the self-test proves it cannot pass silently). Returns the
/// number of mismatching queries.
pub fn count_mismatches(
    queries: &[Query],
    served: &[(usize, &[f32], usize)],
    mut reference_for: impl FnMut(usize) -> Result<Reference, String>,
    perturb: bool,
) -> Result<u64, String> {
    let mut mismatches = 0;
    let mut current: Option<(usize, Reference)> = None;
    for (n, &(qi, got, group)) in served.iter().enumerate() {
        if current.as_ref().map(|(g, _)| *g) != Some(group) {
            current = Some((group, reference_for(group)?));
        }
        let reference = &mut current.as_mut().expect("reference just built").1;
        let mut want = reference.scores(&queries[qi])?;
        if perturb && n == 0 {
            if let Some(s) = want.first_mut() {
                *s += 1.0;
            }
        }
        if !scores_close(&want, got) {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// A fixed seeded sample of `count` distinct positions in `0..n`, sorted.
pub fn sample(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut picks: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let count = count.min(n);
    for i in 0..count {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let j = i + (z % (n - i) as u64) as usize;
        picks.swap(i, j);
    }
    picks.truncate(count);
    picks.sort_unstable();
    picks
}
