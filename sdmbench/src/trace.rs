//! Spans recorded from the benchmark's own files, around the calls it
//! makes into each layer's public functions.
//!
//! The serving crates stay untouched: the manager is handed to the engine
//! through [`Traced`], an adapter that implements `EmbeddingBackend` and
//! `OverlappedBackend` by delegation and records one span per call. Spans
//! go to memory reserved before the traced window and are written out
//! when the run ends.

use dlrm::{DlrmError, EmbeddingBackend, LookupTicket, OverlappedBackend};
use embedding::TableId;
use sdm_core::SdmMemoryManager;
use sdm_metrics::{SimDuration, SimInstant};
use std::io::Write as _;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One batch on one shard stack.
    Batch,
    /// One query, or one phase (begin/finish) of a relaxed query.
    Query,
    /// One pooled lookup (exact mode) or its begin phase (relaxed).
    Lookup,
    /// The finish phase of a relaxed lookup.
    LookupFinish,
    /// One `ModelUpdater::apply`.
    Update,
    /// One isolated pooling-kernel call.
    Pool,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Batch => "batch",
            Kind::Query => "query",
            Kind::Lookup => "lookup",
            Kind::LookupFinish => "lookup_finish",
            Kind::Update => "update",
            Kind::Pool => "pool",
        }
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub query: u32,
    pub shard: u16,
    /// Lookups: rows pooled by the op. Batches: queries in the batch.
    pub rows: u32,
    /// Lookups: SM reads the call made.
    pub sm_reads: u32,
    /// Finish phases: index of the op's begin span.
    pub op: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span storage. With recording off every call is a plain delegation.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Open relaxed lookups: begin-span index by ticket slot. The manager's
    /// tickets carry their slot in the low 32 bits (`sdm_cache::SlotPool`),
    /// and slots are dense, so a vector indexed by slot suffices.
    pending: Vec<u32>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// A recording recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            pending: vec![ROOT; 4096],
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (`ROOT` when off).
    pub fn open(&mut self, kind: Kind, parent: u32, query: u32, shard: u16) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start = self.now();
        self.spans.push(Span {
            kind,
            start,
            end: start,
            parent,
            query,
            shard,
            rows: 0,
            sm_reads: 0,
            op: ROOT,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` (no-op when off).
    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let end = self.now();
            self.spans[id as usize].end = end;
        }
    }

    fn span_mut(&mut self, id: u32) -> Option<&mut Span> {
        if id == ROOT {
            None
        } else {
            self.spans.get_mut(id as usize)
        }
    }

    /// Writes every span as one tab-separated line:
    /// `id kind start_ns end_ns parent query shard rows sm_reads op`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tkind\tstart_ns\tend_ns\tparent\tquery\tshard\trows\tsm_reads\top"
        )?;
        let field = |v: u32| if v == ROOT { -1 } else { i64::from(v) };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                s.start,
                s.end,
                field(s.parent),
                s.query,
                s.shard,
                s.rows,
                s.sm_reads,
                field(s.op)
            )?;
        }
        out.flush()
    }
}

/// The manager as the engine sees it in a traced run: every call is
/// delegated unchanged and, with recording on, timed as a span under the
/// current query span.
pub struct Traced<'a> {
    pub manager: &'a mut SdmMemoryManager,
    pub rec: &'a mut Recorder,
    /// The enclosing query (or query-phase) span.
    pub parent: u32,
    pub query: u32,
    pub shard: u16,
}

impl Traced<'_> {
    fn sm_reads(&self) -> u64 {
        self.manager.stats().sm_reads
    }

    /// Runs `call` under a span of `kind`, recording the rows it pooled
    /// and the SM reads it made.
    fn timed<T>(
        &mut self,
        kind: Kind,
        rows: usize,
        call: impl FnOnce(&mut SdmMemoryManager) -> T,
    ) -> (T, u32) {
        if !self.rec.is_on() {
            return (call(self.manager), ROOT);
        }
        let reads = self.sm_reads();
        let id = self.rec.open(kind, self.parent, self.query, self.shard);
        let out = call(self.manager);
        self.rec.close(id);
        let made = self.sm_reads() - reads;
        if let Some(s) = self.rec.span_mut(id) {
            s.rows = rows as u32;
            s.sm_reads = made as u32;
        }
        (out, id)
    }
}

impl EmbeddingBackend for Traced<'_> {
    fn pooled_lookup(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<(Vec<f32>, SimDuration), DlrmError> {
        self.timed(Kind::Lookup, indices.len(), |m| {
            m.pooled_lookup(table, indices, now)
        })
        .0
    }

    fn pooled_lookup_into(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError> {
        self.timed(Kind::Lookup, indices.len(), |m| {
            m.pooled_lookup_into(table, indices, now, out)
        })
        .0
    }

    fn backend_name(&self) -> &str {
        self.manager.backend_name()
    }
}

impl OverlappedBackend for Traced<'_> {
    fn lookup_begin(
        &mut self,
        table: TableId,
        indices: &[u64],
        now: SimInstant,
    ) -> Result<LookupTicket, DlrmError> {
        let (ticket, id) = self.timed(Kind::Lookup, indices.len(), |m| {
            m.lookup_begin(table, indices, now)
        });
        if let (Ok(t), true) = (&ticket, id != ROOT) {
            let slot = slot_of(*t);
            if slot >= self.rec.pending.len() {
                self.rec.pending.resize(slot + 1, ROOT);
            }
            self.rec.pending[slot] = id;
        }
        ticket
    }

    fn lookup_finish(
        &mut self,
        ticket: LookupTicket,
        out: &mut [f32],
    ) -> Result<SimDuration, DlrmError> {
        let (took, id) = self.timed(Kind::LookupFinish, 0, |m| m.lookup_finish(ticket, out));
        if id != ROOT {
            let op = self
                .rec
                .pending
                .get(slot_of(ticket))
                .copied()
                .unwrap_or(ROOT);
            if let Some(s) = self.rec.span_mut(id) {
                s.op = op;
            }
        }
        took
    }
}

fn slot_of(ticket: LookupTicket) -> usize {
    (ticket.0 & u64::from(u32::MAX)) as usize
}

/// Per-layer wall totals derived from recorded spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attribution {
    pub batches: u64,
    pub queries: u64,
    /// Σ batch span − Σ query spans inside them.
    pub batch_self_ns: u64,
    /// Σ query spans − Σ lookup spans inside them.
    pub dlrm_self_ns: u64,
    /// Σ lookup spans (both phases).
    pub lookup_ns: u64,
    /// Ops that made no SM read: their time and rows.
    pub hit_op_ns: u64,
    pub hit_op_rows: u64,
    /// Ops that made SM reads: their time, rows and reads.
    pub miss_op_ns: u64,
    pub miss_op_rows: u64,
    pub miss_op_reads: u64,
    pub update_ns: u64,
    pub updates: u64,
}

impl Attribution {
    /// Attributes the spans recorded so far.
    pub fn of(spans: &[Span]) -> Self {
        let mut a = Attribution::default();
        // Per op (indexed by begin span): total time, rows and SM reads.
        let mut op_ns = vec![0u64; spans.len()];
        let mut op_reads = vec![0u64; spans.len()];
        let mut child_ns = vec![0u64; spans.len()];
        let mut queries = std::collections::HashSet::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.ns();
            }
            match s.kind {
                Kind::Batch => a.batches += 1,
                Kind::Query => {
                    queries.insert((s.shard, s.query));
                }
                Kind::Lookup => {
                    op_ns[i] += s.ns();
                    op_reads[i] += u64::from(s.sm_reads);
                    a.lookup_ns += s.ns();
                }
                Kind::LookupFinish => {
                    if s.op != ROOT {
                        op_ns[s.op as usize] += s.ns();
                        op_reads[s.op as usize] += u64::from(s.sm_reads);
                    }
                    a.lookup_ns += s.ns();
                }
                Kind::Update => {
                    a.update_ns += s.ns();
                    a.updates += 1;
                }
                Kind::Pool => {}
            }
        }
        a.queries = queries.len() as u64;
        for (i, s) in spans.iter().enumerate() {
            match s.kind {
                Kind::Batch => a.batch_self_ns += s.ns().saturating_sub(child_ns[i]),
                Kind::Query => a.dlrm_self_ns += s.ns().saturating_sub(child_ns[i]),
                Kind::Lookup => {
                    let rows = u64::from(s.rows);
                    if op_reads[i] == 0 {
                        a.hit_op_ns += op_ns[i];
                        a.hit_op_rows += rows;
                    } else {
                        a.miss_op_ns += op_ns[i];
                        a.miss_op_rows += rows;
                        a.miss_op_reads += op_reads[i];
                    }
                }
                _ => {}
            }
        }
        a
    }

    /// Wall ns per row of ops that made no SM read.
    pub fn ns_per_hit_row(&self) -> f64 {
        ratio(self.hit_op_ns as f64, self.hit_op_rows as f64)
    }

    /// Wall ns per SM read, net of the hit rows the same ops pooled.
    pub fn ns_per_sm_read(&self) -> f64 {
        let hit_rows = self.miss_op_rows.saturating_sub(self.miss_op_reads) as f64;
        let net = self.miss_op_ns as f64 - hit_rows * self.ns_per_hit_row();
        ratio(net.max(0.0), self.miss_op_reads as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
