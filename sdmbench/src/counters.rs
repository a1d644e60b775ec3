//! Counter snapshots read from the layers' public stats, and the run
//! guards they must satisfy.

use sdm_cache::SharedRowTier;
use sdm_core::{SdmMemoryManager, ServingHost};

/// Cumulative counters of one host (all shards), read outside the timed
/// window.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counters {
    pub pooled_ops: u64,
    pub pooled_hits: u64,
    /// Rows the pooled-cache hits answered without a row lookup.
    pub pooled_hit_rows: u64,
    pub fm_direct: u64,
    pub row_hits: u64,
    pub shared_hits: u64,
    pub shared_misses: u64,
    pub sm_reads: u64,
    pub pruned: u64,
    pub degraded: u64,
    pub retries: u64,
    pub evictions: u64,
    pub submitted: u64,
    pub completed: u64,
    pub queue_delay_ns: u64,
    pub device_ns: u64,
    pub bus_bytes: u64,
    pub requested_bytes: u64,
    pub depth_sum: u64,
    pub depth_samples: u64,
    pub device_reads: u64,
    pub device_bus_bytes: u64,
    /// A level, not a counter: resident cache bytes at snapshot time.
    pub resident_bytes: u64,
}

impl Counters {
    /// Snapshot of every shard's manager plus the shared tier, if any.
    pub fn of_managers<'a>(
        managers: impl IntoIterator<Item = &'a SdmMemoryManager>,
        tier: Option<&SharedRowTier>,
    ) -> Self {
        let mut c = Counters::default();
        for m in managers {
            let s = m.stats();
            c.pooled_ops += s.pooled_ops;
            c.pooled_hits += s.pooled_cache_hits;
            let pooled = m.pooled_cache();
            c.pooled_hit_rows +=
                (pooled.average_hit_length() * pooled.stats().hits as f64).round() as u64;
            c.fm_direct += s.fm_direct_lookups;
            c.row_hits += s.row_cache_hits;
            c.shared_hits += s.shared_tier_hits;
            c.shared_misses += s.shared_tier_misses;
            c.sm_reads += s.sm_reads;
            c.pruned += s.pruned_zero_rows;
            c.degraded += s.degraded_rows;
            let rows = m.row_cache();
            c.evictions +=
                rows.small_engine_stats().evictions + rows.large_engine_stats().evictions;
            c.resident_bytes += rows.resident_bytes().as_u64() + pooled.stats().resident_bytes;
            let io = m.io_engine().stats();
            c.retries += io.resilience.retries;
            c.submitted += io.submitted;
            c.completed += io.completed;
            c.queue_delay_ns += io.queue_delay.as_nanos();
            c.device_ns += io.device_time.as_nanos();
            c.bus_bytes += io.bus_bytes.as_u64();
            c.requested_bytes += io.requested_bytes.as_u64();
            c.depth_sum += io.queue_depth.depth_sum;
            c.depth_samples += io.queue_depth.depth_samples;
            for (_, device) in m.io_engine().array().iter() {
                c.device_reads += device.stats().reads;
                c.device_bus_bytes += device.stats().bytes_on_bus.as_u64();
            }
        }
        if let Some(t) = tier {
            c.resident_bytes += t.memory_used().as_u64();
        }
        c
    }

    /// Snapshot of a serving host.
    pub fn of_host(host: &ServingHost) -> Self {
        Counters::of_managers(
            (0..host.shards()).map(|i| host.shard(i).manager()),
            host.shared_tier(),
        )
    }

    /// Counter growth since `earlier` (levels keep the later value).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            pooled_ops: d(self.pooled_ops, earlier.pooled_ops),
            pooled_hits: d(self.pooled_hits, earlier.pooled_hits),
            pooled_hit_rows: d(self.pooled_hit_rows, earlier.pooled_hit_rows),
            fm_direct: d(self.fm_direct, earlier.fm_direct),
            row_hits: d(self.row_hits, earlier.row_hits),
            shared_hits: d(self.shared_hits, earlier.shared_hits),
            shared_misses: d(self.shared_misses, earlier.shared_misses),
            sm_reads: d(self.sm_reads, earlier.sm_reads),
            pruned: d(self.pruned, earlier.pruned),
            degraded: d(self.degraded, earlier.degraded),
            retries: d(self.retries, earlier.retries),
            evictions: d(self.evictions, earlier.evictions),
            submitted: d(self.submitted, earlier.submitted),
            completed: d(self.completed, earlier.completed),
            queue_delay_ns: d(self.queue_delay_ns, earlier.queue_delay_ns),
            device_ns: d(self.device_ns, earlier.device_ns),
            bus_bytes: d(self.bus_bytes, earlier.bus_bytes),
            requested_bytes: d(self.requested_bytes, earlier.requested_bytes),
            depth_sum: d(self.depth_sum, earlier.depth_sum),
            depth_samples: d(self.depth_samples, earlier.depth_samples),
            device_reads: d(self.device_reads, earlier.device_reads),
            device_bus_bytes: d(self.device_bus_bytes, earlier.device_bus_bytes),
            resident_bytes: self.resident_bytes,
        }
    }

    /// Row lookups resolved, one bucket each (the conservation sum of the
    /// fault-injection suite), plus the rows pooled-cache hits skipped.
    pub fn accounted_rows(&self) -> u64 {
        self.fm_direct
            + self.row_hits
            + self.shared_hits
            + self.sm_reads
            + self.pruned
            + self.degraded
            + self.pooled_hit_rows
    }

    /// Row hits ÷ (row hits + shared hits + SM reads).
    pub fn row_hit_rate(&self) -> f64 {
        crate::trace::ratio(
            self.row_hits as f64,
            (self.row_hits + self.shared_hits + self.sm_reads) as f64,
        )
    }

    /// Guard violations: rows must be conserved and, since no workload
    /// injects faults, nothing may be retried or degraded.
    pub fn violations(&self, requested_rows: u64, failovers: u64) -> Vec<String> {
        let mut v = Vec::new();
        if self.accounted_rows() != requested_rows {
            v.push(format!(
                "row conservation broken: {} rows accounted, {} requested",
                self.accounted_rows(),
                requested_rows
            ));
        }
        if self.retries != 0 {
            v.push(format!(
                "{} IO retries without injected faults",
                self.retries
            ));
        }
        if self.degraded != 0 {
            v.push(format!(
                "{} degraded rows without injected faults",
                self.degraded
            ));
        }
        if failovers != 0 {
            v.push(format!(
                "{failovers} host failovers without injected faults"
            ));
        }
        v
    }
}
