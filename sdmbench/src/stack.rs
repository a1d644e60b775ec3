//! One shard's serving stack, assembled from the same public constructors
//! `sdm_core::Shard::build` uses, and driven batch by batch the way
//! `Shard` drives it — except that the manager reaches the engine through
//! the [`Traced`] adapter, so the benchmark can time every layer call.

use crate::trace::{Kind, Recorder, Traced, ROOT};
use dlrm::{ComputeModel, InferenceEngine, ModelConfig, PendingQuery, PoolingBuffers, QueryResult};
use io_engine::IoEngine;
use scm_device::DeviceArray;
use sdm_core::{BatchMode, ModelLoader, SdmConfig, SdmMemoryManager};
use sdm_metrics::{SimDuration, SimInstant};
use std::collections::VecDeque;
use workload::Query;

/// A shard stack plus the scratch its batch drivers reuse.
pub struct Stack {
    engine: InferenceEngine,
    pub manager: SdmMemoryManager,
    shard: u16,
    clock: SimInstant,
    buffers: PoolingBuffers,
    result: QueryResult,
    /// Relaxed window slots and the FIFO of begun queries.
    slots: Vec<(PoolingBuffers, PendingQuery)>,
    free: Vec<usize>,
    inflight: VecDeque<(usize, usize)>,
    /// Scores of the last batch, in pick order.
    scores: Vec<f32>,
    ranges: Vec<(usize, usize)>,
}

impl Stack {
    /// Builds the stack: devices, then the IO engine, the loaded model,
    /// the manager, and the inference engine.
    pub fn build(
        model: &ModelConfig,
        config: SdmConfig,
        seed: u64,
        shard: u16,
    ) -> Result<Self, String> {
        config.validate().map_err(|e| e.to_string())?;
        let array = DeviceArray::homogeneous(
            config.technology.clone(),
            config.device_capacity,
            config.device_count,
        )
        .map_err(|e| e.to_string())?;
        let mut io = IoEngine::new(array, config.io.clone());
        let loaded = ModelLoader::load(model, &config, &mut io).map_err(|e| e.to_string())?;
        let manager = SdmMemoryManager::new(config, loaded, io);
        let engine = InferenceEngine::new(model.clone(), ComputeModel::default(), seed)
            .map_err(|e| e.to_string())?;
        Ok(Stack {
            engine,
            manager,
            shard,
            clock: SimInstant::EPOCH,
            buffers: PoolingBuffers::new(),
            result: QueryResult::default(),
            slots: Vec::new(),
            free: Vec::new(),
            inflight: VecDeque::new(),
            scores: Vec::new(),
            ranges: Vec::new(),
        })
    }

    /// Serves `queries[picks[..]]` as one batch and returns its virtual
    /// makespan. `ids[k]` tags pick `k`'s spans. Exact mode runs each
    /// query through `execute_into`; relaxed mode pipelines up to the
    /// configured window through `begin_query_into`/`finish_query_into`,
    /// exactly as the shard's relaxed executor does.
    pub fn run_batch(
        &mut self,
        queries: &[Query],
        picks: &[usize],
        ids: &[u32],
        rec: &mut Recorder,
    ) -> Result<SimDuration, String> {
        let started = self.clock;
        self.scores.clear();
        self.ranges.clear();
        let batch = rec.open(
            Kind::Batch,
            ROOT,
            ids.first().copied().unwrap_or(0),
            self.shard,
        );
        let run = match self.manager.config().batch_mode {
            BatchMode::Exact => self.run_exact(queries, picks, ids, rec, batch),
            BatchMode::Relaxed {
                max_inflight_queries,
            } => self.run_relaxed(queries, picks, ids, rec, batch, max_inflight_queries.max(1)),
        };
        rec.close(batch);
        if let Some(s) = rec.spans.get_mut(batch as usize) {
            s.rows = picks.len() as u32;
        }
        run?;
        Ok(self.clock.duration_since(started))
    }

    fn run_exact(
        &mut self,
        queries: &[Query],
        picks: &[usize],
        ids: &[u32],
        rec: &mut Recorder,
        batch: u32,
    ) -> Result<(), String> {
        for (&qi, &id) in picks.iter().zip(ids) {
            let span = rec.open(Kind::Query, batch, id, self.shard);
            let mut backend = Traced {
                manager: &mut self.manager,
                rec: &mut *rec,
                parent: span,
                query: id,
                shard: self.shard,
            };
            self.engine
                .execute_into(
                    &queries[qi],
                    &mut backend,
                    self.clock,
                    &mut self.buffers,
                    &mut self.result,
                )
                .map_err(|e| e.to_string())?;
            rec.close(span);
            self.clock += self.result.latency.total;
            self.push_result();
        }
        Ok(())
    }

    fn run_relaxed(
        &mut self,
        queries: &[Query],
        picks: &[usize],
        ids: &[u32],
        rec: &mut Recorder,
        batch: u32,
        window: usize,
    ) -> Result<(), String> {
        self.inflight.clear();
        let mut submit = self.clock;
        let mut latest = self.clock;
        for (k, (&qi, &id)) in picks.iter().zip(ids).enumerate() {
            if self.inflight.len() == window {
                let finished = self.finish_front(queries, picks, ids, rec, batch)?;
                latest = latest.max(finished);
                submit = submit.max(finished);
            }
            let slot = self.free.pop().unwrap_or_else(|| {
                self.slots
                    .push((PoolingBuffers::new(), PendingQuery::new()));
                self.slots.len() - 1
            });
            let span = rec.open(Kind::Query, batch, id, self.shard);
            let (buffers, pending) = &mut self.slots[slot];
            let mut backend = Traced {
                manager: &mut self.manager,
                rec: &mut *rec,
                parent: span,
                query: id,
                shard: self.shard,
            };
            self.engine
                .begin_query_into(&queries[qi], &mut backend, submit, buffers, pending)
                .map_err(|e| e.to_string())?;
            rec.close(span);
            submit += pending.issue_cost();
            self.inflight.push_back((slot, k));
        }
        while !self.inflight.is_empty() {
            let finished = self.finish_front(queries, picks, ids, rec, batch)?;
            latest = latest.max(finished);
        }
        self.clock = self.clock.max(latest);
        Ok(())
    }

    fn finish_front(
        &mut self,
        queries: &[Query],
        picks: &[usize],
        ids: &[u32],
        rec: &mut Recorder,
        batch: u32,
    ) -> Result<SimInstant, String> {
        let (slot, k) = self
            .inflight
            .pop_front()
            .ok_or_else(|| "relaxed pipeline drained while empty".to_string())?;
        let span = rec.open(Kind::Query, batch, ids[k], self.shard);
        let (buffers, pending) = &mut self.slots[slot];
        let mut backend = Traced {
            manager: &mut self.manager,
            rec: &mut *rec,
            parent: span,
            query: ids[k],
            shard: self.shard,
        };
        self.engine
            .finish_query_into(
                &queries[picks[k]],
                &mut backend,
                buffers,
                pending,
                &mut self.result,
            )
            .map_err(|e| e.to_string())?;
        rec.close(span);
        let finished = pending.begun_at() + self.result.latency.total;
        self.free.push(slot);
        self.push_result();
        Ok(finished)
    }

    fn push_result(&mut self) {
        let start = self.scores.len();
        self.scores.extend_from_slice(&self.result.scores);
        self.ranges.push((start, self.result.scores.len()));
    }

    /// Scores of pick `k` of the last batch.
    pub fn scores(&self, k: usize) -> &[f32] {
        let (start, len) = self.ranges[k];
        &self.scores[start..start + len]
    }
}

/// Span tags for picks that are served once each: their stream positions.
pub fn position_ids(picks: &[usize]) -> Vec<u32> {
    picks.iter().map(|&q| q as u32).collect()
}
