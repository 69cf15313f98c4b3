//! Sharded parallel ingestion: the engine behind the
//! [`Mergeable`] story.
//!
//! [`ShardedIngest`] splits a point stream across `N` worker shards, runs
//! each shard through its own [`SummaryBuilder`]-constructed summary, and
//! reduces the workers with [`Mergeable::merge_from`] **in shard order**
//! into a fresh collector of the same kind.
//!
//! # Determinism contract
//!
//! Every entry point shares one partition: the stream is cut into chunks
//! of the configured size and chunk `c` goes to shard `c % N`. For a fixed
//! input stream, summary configuration (including its seed), shard count,
//! and chunk size, the result is therefore **bit-identical** across runs
//! and across entry points, however the OS schedules the worker threads:
//! [`run`](ShardedIngest::run) on a slice, a fault-free
//! [`SupervisedIngest::run_stream`](crate::recovery::SupervisedIngest::run_stream)
//! on an iterator (the one streaming path: every iterator reaches the
//! shards through the supervisor), and
//! [`merge_snapshots`](ShardedIngest::merge_snapshots) over per-shard
//! files built from the same partition all agree, because
//!
//! * shard assignment is a pure function of the chunk index — never of
//!   thread timing;
//! * each worker is sequential and deterministic;
//! * the reduce always merges workers in shard order `0, 1, …, N-1`.
//!
//! Changing the shard count (or the chunk size) is allowed to change the
//! result (the collector re-summarises different shard samples); the
//! property tests in `tests/sharded_parallel.rs` pin the contract per shard
//! count for every [`SummaryKind`](crate::builder::SummaryKind).
//!
//! # Error guarantee
//!
//! Merging re-inserts each worker's stored sample (actual stream points).
//! The workers are parallel parts, so by [`Mergeable`]'s composition rule
//! the merged hull's error against the union stream is at most the
//! largest worker's live
//! [`error_bound`](crate::summary::HullSummary::error_bound) plus the
//! collector's own bound: [`ShardRun::error_bound`]. The report also
//! carries the per-shard bounds it composes.

use crate::builder::SummaryBuilder;
use crate::snapshot::SnapshotError;
use crate::summary::{chain_bound, parallel_bound, Mergeable, NonFiniteInput};
use crate::telemetry::{names, Counter, Histogram, Telemetry};
use geom::Point2;
use std::time::{Duration, Instant};

/// Default points per `insert_batch` call inside each worker.
pub const DEFAULT_CHUNK: usize = 1024;

/// Per-shard observability snapshot, taken after the shard finished
/// ingesting and before it was merged away.
#[derive(Clone, Copy, Debug)]
#[must_use = "shard statistics carry the per-shard error bounds of the composed guarantee"]
pub struct ShardStats {
    /// Stream points this shard consumed.
    pub points_seen: u64,
    /// Points the shard's summary stored at the end of its run.
    pub sample_size: usize,
    /// The shard's live error guarantee at the end of its run, when its
    /// kind reports one.
    pub error_bound: Option<f64>,
}

/// The result of a sharded run: the merged collector summary plus the
/// per-shard statistics needed to evaluate the composed error guarantee.
#[derive(Debug)]
#[must_use = "a shard run carries the merged summary; dropping it discards the whole ingestion"]
pub struct ShardRun {
    /// The collector: a summary of the configured kind that absorbed every
    /// worker in shard order.
    pub summary: Box<dyn Mergeable + Send + Sync>,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Wall-clock time of the whole run (fan-out through the final
    /// reduce), so callers can report throughput without wrapping every
    /// entry point in their own timers.
    pub elapsed: Duration,
}

impl ShardRun {
    /// The composed error guarantee of the merged hull against the union
    /// stream: the largest per-shard bound plus the collector's own
    /// [`error_bound`](crate::summary::HullSummary::error_bound). `None`
    /// when any shard or the collector reports no bound.
    #[must_use]
    pub fn error_bound(&self) -> Option<f64> {
        let shards = parallel_bound(self.shards.iter().map(|s| s.error_bound));
        chain_bound([shards, self.summary.error_bound()])
    }
}

/// The per-backend ingest instruments every shard worker records through
/// — the slice workers of [`ShardedIngest::run`] and the supervisor's
/// workers alike. Registered once per run (registration locks); the
/// `Copy` handles then ride into each worker for free, and a chunk costs
/// one timestamp pair and three relaxed atomic adds.
#[derive(Clone, Copy)]
pub(crate) struct IngestInstruments {
    points: Counter,
    chunk_ns: Histogram,
}

impl IngestInstruments {
    pub(crate) fn register(telemetry: Telemetry, builder: SummaryBuilder) -> Self {
        let backend = [("backend", builder.kind().label())];
        IngestInstruments {
            points: telemetry.counter(names::INGEST_POINTS, &backend),
            chunk_ns: telemetry.histogram(names::INGEST_CHUNK_NS, &backend),
        }
    }

    /// Runs `ingest` over one chunk of `len` stream items, recording the
    /// whole chunk's latency (one histogram sample per chunk, so `_count`
    /// is the chunk count) and its point count. Whole-chunk nanoseconds
    /// keep the histogram's `_sum` exact, so `_sum` over the points
    /// counter is the true ns/point.
    pub(crate) fn chunk<R>(&self, len: usize, ingest: impl FnOnce() -> R) -> R {
        let out = if self.chunk_ns.enabled() {
            let t0 = Instant::now();
            let out = ingest();
            self.chunk_ns.record(t0.elapsed().as_nanos() as u64);
            out
        } else {
            ingest()
        };
        self.points.add(len as u64);
        out
    }
}

/// Sharded parallel ingestion engine over any
/// [`SummaryKind`](crate::builder::SummaryKind). It ingests slices; an
/// iterator reaches its shards through
/// [`SupervisedIngest`](crate::recovery::SupervisedIngest).
///
/// ```
/// use adaptive_hull::parallel::ShardedIngest;
/// use adaptive_hull::{SummaryBuilder, SummaryKind};
/// use geom::Point2;
///
/// let pts: Vec<Point2> = (0..10_000)
///     .map(|i| {
///         let t = i as f64 * 0.01;
///         Point2::new(t.cos() * 3.0, t.sin() * 2.0)
///     })
///     .collect();
/// let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 4);
/// let run = engine.run(&pts);
/// assert_eq!(run.summary.points_seen(), 10_000);
/// assert_eq!(run.shards.len(), 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ShardedIngest {
    builder: SummaryBuilder,
    shards: usize,
    chunk: usize,
    telemetry: Telemetry,
}

impl ShardedIngest {
    /// An engine fanning out to `shards` workers, each building its
    /// summary from `builder`. `shards` must be at least 1.
    pub fn new(builder: SummaryBuilder, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedIngest {
            builder,
            shards,
            chunk: DEFAULT_CHUNK,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Sets the worker batch size (points per `insert_batch` call), which
    /// is also the unit of the chunk → shard partition.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk >= 1, "chunk must be at least 1");
        self.chunk = chunk;
        self
    }

    /// Attaches an observability handle: every entry point then records
    /// a per-backend point counter and a per-chunk latency histogram
    /// (labelled `backend=<kind>`), at chunk granularity so
    /// the hot path cost is one timestamp and three relaxed atomic adds
    /// per *chunk*. The default is [`Telemetry::disabled`], under which
    /// the instrumentation collapses to a branch per chunk.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The observability handle this engine records through.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry
    }

    /// The configured shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The configured worker batch size.
    #[must_use]
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The summary configuration each worker (and the collector) uses.
    #[must_use]
    pub fn builder(&self) -> SummaryBuilder {
        self.builder
    }

    /// Ingests a materialised stream without copying it: shard `i` runs
    /// over the borrowed chunks `i, i + N, i + 2N, …` of the slice (the
    /// shared partition, chunk `c` → shard `c % N`), and the workers are
    /// merged in shard order. Shard 0 runs on the caller's thread and every
    /// other shard on a scoped thread of its own, so a 1-shard run starts
    /// no thread. Bit-identical to a fault-free
    /// [`SupervisedIngest::run_stream`](crate::recovery::SupervisedIngest::run_stream)
    /// over the same points, without its per-chunk copy, channel hop and
    /// checkpoints.
    pub fn run(&self, points: &[Point2]) -> ShardRun {
        let start = Instant::now();
        let inst = IngestInstruments::register(self.telemetry, self.builder);
        let mut shards: Vec<_> = (0..self.shards)
            .map(|shard| (shard, self.builder.build_mergeable()))
            .collect();
        let ingest = |run: &mut [(usize, Box<dyn Mergeable + Send + Sync>)]| {
            for (shard, s) in run {
                let mine = points.chunks(self.chunk).skip(*shard).step_by(self.shards);
                for piece in mine {
                    inst.chunk(piece.len(), || s.insert_batch(piece));
                }
            }
        };
        fan_out(&mut shards, self.shards, |_| 1, ingest, ingest);
        self.reduce(shards.into_iter().map(|(_, s)| s).collect(), start)
    }

    /// Checked variant of [`run`](ShardedIngest::run): validates the whole
    /// slice up front and rejects the first non-finite point with a typed
    /// error instead of silently dropping it. No threads are spawned and
    /// no work is done on rejection.
    pub fn try_run(&self, points: &[Point2]) -> Result<ShardRun, NonFiniteInput> {
        if let Some((index, &point)) = points.iter().enumerate().find(|(_, p)| !p.is_finite()) {
            return Err(NonFiniteInput { index, point });
        }
        Ok(self.run(points))
    }

    /// Reduces snapshots produced in *other* processes (or machines, or
    /// earlier crashed runs) exactly as the in-process reduce would: each
    /// snapshot is restored via the kind tag, per-shard stats recorded,
    /// and the summaries merged **in iteration order** into a fresh
    /// collector built from this engine's builder. Feed one file per
    /// shard, in shard order, each summarising that shard's chunks of the
    /// shared partition (chunk `c` → shard `c % N`), and the result is
    /// bit-identical to [`run`](ShardedIngest::run) on the same input.
    ///
    /// Fails with a typed [`SnapshotError`] (and no partial state) if any
    /// snapshot is corrupted, truncated, version-skewed, or windowed.
    pub fn merge_snapshots<I>(&self, snapshots: I) -> Result<ShardRun, SnapshotError>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let start = Instant::now();
        let workers = snapshots
            .into_iter()
            .map(|bytes| SummaryBuilder::restore(bytes.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.reduce(workers, start))
    }

    /// Deterministic reduce: snapshot per-shard stats, then merge the
    /// workers into a fresh collector in shard order.
    pub(crate) fn reduce(
        &self,
        workers: Vec<Box<dyn Mergeable + Send + Sync>>,
        start: Instant,
    ) -> ShardRun {
        let shards = workers
            .iter()
            .map(|w| ShardStats {
                points_seen: w.points_seen(),
                sample_size: w.sample_size(),
                error_bound: w.error_bound(),
            })
            .collect();
        let mut collector = self.builder.build_mergeable();
        for w in &workers {
            collector.merge_from(w.as_ref());
        }
        ShardRun {
            summary: collector,
            shards,
            elapsed: start.elapsed(),
        }
    }
}

/// Runs `work` over `items` cut into contiguous runs of about equal
/// `weight`, at most `workers` of them: scoped threads take every run but
/// the first, the caller's thread runs `first` over the first run, and the
/// call returns once all runs are done. Each item is handled by one thread
/// and the runs keep the items' order, so when an item's work reads no
/// other item the result depends neither on the cut nor on `workers`.
/// With fewer than two workers no thread starts and `first` gets every
/// item.
///
/// [`ShardedIngest::run`] ingests one shard per item with it, the window
/// chain builds a batch's full buckets with it
/// ([`WindowedSummary`](crate::window::WindowedSummary)), and an
/// ungoverned [`TenantEngine::ingest_bulk`](crate::tenant::TenantEngine::ingest_bulk)
/// feeds its groups' summaries.
pub(crate) fn fan_out<T: Send>(
    items: &mut [T],
    workers: usize,
    weight: impl Fn(&T) -> usize,
    work: impl Fn(&mut [T]) + Sync,
    first: impl FnOnce(&mut [T]),
) {
    if workers < 2 {
        first(items);
        return;
    }
    let total = items.iter().map(&weight).sum::<usize>();
    let share = total.div_ceil(workers).max(1);
    let mut runs = Vec::with_capacity(workers);
    let mut rest = items;
    while !rest.is_empty() {
        // A run ends at `share` and takes the weightless items after it,
        // so there are at most `workers` runs.
        let (mut cut, mut taken) = (0, 0);
        while cut < rest.len() && (taken < share || weight(&rest[cut]) == 0) {
            taken += weight(&rest[cut]);
            cut += 1;
        }
        let (run, tail) = std::mem::take(&mut rest).split_at_mut(cut);
        runs.push(run);
        rest = tail;
    }
    let mut runs = runs.into_iter();
    let head = runs.next().unwrap_or_default();
    let work = &work;
    std::thread::scope(|scope| {
        let workers: Vec<_> = runs.map(|run| scope.spawn(move || work(run))).collect();
        first(head);
        for worker in workers {
            worker.join().expect("fan-out worker panicked"); // lint:allow(no-panic): re-raising a worker panic on the caller is the only sound way to surface it
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SummaryKind;
    use crate::summary::HullSummary;

    fn spiral(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = 2.399963229728653 * i as f64;
                let rad = 1.0 + 0.01 * i as f64;
                Point2::new(rad * t.cos(), rad * t.sin())
            })
            .collect()
    }

    #[test]
    fn every_kind_runs_sharded_with_exact_seen_counts() {
        let pts = spiral(997); // deliberately not divisible by the shard counts
        for &kind in &SummaryKind::ALL {
            for shards in [1, 2, 4] {
                let engine = ShardedIngest::new(SummaryBuilder::new(kind).with_r(16), shards)
                    .with_chunk(128);
                let run = engine.run(&pts);
                assert_eq!(run.summary.points_seen(), 997, "{kind}/{shards}");
                assert_eq!(run.shards.len(), shards, "{kind}/{shards}");
                let shard_total: u64 = run.shards.iter().map(|s| s.points_seen).sum();
                assert_eq!(shard_total, 997, "{kind}/{shards}: shard accounting");
            }
        }
    }

    #[test]
    fn fixed_shard_count_is_deterministic() {
        let pts = spiral(1500);
        for &kind in &[
            SummaryKind::Adaptive,
            SummaryKind::Cluster,
            SummaryKind::Radial,
        ] {
            let engine = ShardedIngest::new(SummaryBuilder::new(kind).with_r(16), 3).with_chunk(64);
            let a = engine.run(&pts);
            let b = engine.run(&pts);
            assert_eq!(
                a.summary.hull_ref().vertices(),
                b.summary.hull_ref().vertices(),
                "{kind}: hull must not depend on scheduling"
            );
            assert_eq!(a.summary.sample_size(), b.summary.sample_size(), "{kind}");
            assert_eq!(a.summary.error_bound(), b.summary.error_bound(), "{kind}");
        }
    }

    #[test]
    fn empty_and_tiny_streams() {
        let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Uniform).with_r(8), 4);
        let run = engine.run(&[]);
        assert_eq!(run.summary.points_seen(), 0);
        assert_eq!(run.shards.len(), 4);
        let one = engine.run(&[Point2::new(1.0, 2.0)]);
        assert_eq!(one.summary.points_seen(), 1);
        assert_eq!(one.summary.hull_ref().len(), 1);
    }

    #[test]
    fn telemetry_counts_every_point_and_chunk() {
        let tel = Telemetry::new();
        let pts = spiral(1000);
        let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 2)
            .with_chunk(128)
            .with_telemetry(tel);
        let run = engine.run(&pts);
        assert_eq!(run.summary.points_seen(), 1000);
        let s = tel.scrape();
        let backend = SummaryKind::Adaptive.label();
        assert_eq!(
            s.counter_with(names::INGEST_POINTS, &[("backend", backend)]),
            Some(1000)
        );
        // 8 chunks of 128 (the last one short), dealt round-robin: one
        // latency sample each.
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].name, names::INGEST_CHUNK_NS);
        assert_eq!(s.histograms[0].count, 8);
        assert!(s.histograms[0].sum > 0, "whole-chunk ns accumulate");
    }

    #[test]
    fn error_bound_composes_shards_then_collector() {
        let pts = spiral(400);
        let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 3);
        let run = engine.run(&pts);
        let bound = run.error_bound().expect("adaptive shards report bounds");
        let largest = run
            .shards
            .iter()
            .map(|s| s.error_bound.unwrap())
            .fold(0.0, f64::max);
        let own = run.summary.error_bound().unwrap();
        assert_eq!(bound.to_bits(), (largest + own).to_bits());
        // Frozen reports no bound, so neither does the run.
        let frozen = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Frozen).with_r(16), 3);
        assert!(frozen.run(&pts).error_bound().is_none());
    }

    #[test]
    fn fan_out_cuts_at_most_one_run_per_worker() {
        // Weightless items (a bulk group with no finite point) join the
        // run before them, so the cut never exceeds the workers, and every
        // item is handled exactly once.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cases = [
            (vec![5, 5, 0], 2),
            (vec![0, 0, 0], 3),
            (vec![0, 4, 0, 4, 0, 4, 0], 3),
            (vec![1; 10], 4),
        ];
        for (weights, workers) in cases {
            let runs = AtomicUsize::new(0);
            let mut items: Vec<(usize, u32)> = weights.iter().map(|&w| (w, 0)).collect();
            let visit = |run: &mut [(usize, u32)]| {
                runs.fetch_add(1, Ordering::Relaxed);
                run.iter_mut().for_each(|item| item.1 += 1);
            };
            fan_out(&mut items, workers, |item| item.0, visit, visit);
            assert!(runs.into_inner() <= workers, "{weights:?}");
            assert!(items.iter().all(|item| item.1 == 1), "{weights:?}");
        }
    }
}
