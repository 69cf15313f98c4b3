//! Ingestion throughput: points/sec for every summary backend, per-point
//! loop vs `insert_batch` vs sharded parallel ingestion — the recorded
//! perf baseline the repo's trajectory tracks from PR 2 onward.
//!
//! Workloads (all seeded with `TABLE1_SEED`, lengths exact):
//!
//! * `interior` — uniform disk: after warm-up almost every point lands
//!   inside the current hull of extrema, the batched fast path's best case
//!   (whole chunks are proven interior from `O(h_chunk)` point locations);
//! * `boundary` — thin annulus (`0.95 ≤ ρ ≤ 1`): points keep landing in
//!   the gaps between the sampled hull and the circle, so most of them
//!   take the heavy "beats directions" path;
//! * `rotating` — uniform ellipse whose orientation advances by a full
//!   revolution over the stream: the extrema migrate constantly (the §7
//!   "changing distribution" stressor);
//! * `clustered` — four interleaved Gaussian blobs on a wide square: the
//!   `cluster` backend's focused workload (multiple live clusters, so the
//!   per-insert nearest-cluster scan and the merge machinery both run
//!   hot); other backends see it as a multi-modal stressor.
//!
//! * `window_scan` — a drifting Gaussian blob (`Drift`, 0→100 on x):
//!   the sliding-window dimension. Every backend ingests the stream
//!   through a `WindowedSummary` (`LastN(n/8)`, exponential-histogram
//!   chain) and answers `query_window`; the rows record windowed
//!   ingestion throughput, the cost of the first query after ingestion
//!   (a cold merge of every live bucket), live bucket count, and the
//!   staleness bound.
//!
//! * `tenant_scan` — a skewed multi-tenant fleet (`TenantTraffic`, half
//!   as many streams as points, 10% of ids carrying 90% of the traffic)
//!   ingested through a budget-free `TenantEngine`: the rows record
//!   interleaved bulk throughput, the hot per-stream footprint
//!   (`bytes_per_stream`, hence `streams_per_gb` — the capacity figure),
//!   and the forced spill/restore round trip a tenant pays when the
//!   hot/cold tiering moves it.
//!
//! * `query_scan` — the serving-layer dimension: an interior-heavy fleet
//!   (`n/16` streams, each a uniform disk sample, so ≥ 10k streams at the
//!   default `--n`) queried through a `QueryEngine` for width, diameter
//!   and a directional extent per stream. The `cold` column is the first
//!   pass after ingestion (hull build + calipers + interval), `cached`
//!   is the identical second pass served from the generation-keyed cache
//!   — the two passes are asserted bit-identical — and the `topk`
//!   columns record a warm `top_k_extent` scan with its bbox-pruning
//!   effectiveness (`topk_scanned` is the whole fleet's bbox pass;
//!   `topk_pruned` of those candidates never reached an exact extent).
//!
//! The `threads` dimension drives `ShardedIngest` over the `interior` and
//! `clustered` workloads for every backend: shard the stream, summarise
//! shards on scoped threads, merge in deterministic shard order.
//! **Interpreting it**: on a single-CPU host the 2/4-shard rows measure
//! pure engine overhead (they time-slice one core — expect ≤ 1×); the
//! recorded `host_cpus` field says what the committed numbers mean. On an
//! `N`-core host the workers run truly in parallel and the scaling column
//! is the multi-core story.
//!
//! Output: a table on stdout and `BENCH_throughput.json` (see
//! `EXPERIMENTS.md` for the schema and how baselines are compared across
//! PRs). Run with `--n 20000` for a smoke test; CI validates the JSON,
//! including the `threads` dimension.

use adaptive_hull::telemetry::names;
use adaptive_hull::window::WindowConfig;
use adaptive_hull::{
    Estimate, HullSummary, Mergeable, PairAnswer, QueryEngine, ShardRun, ShardedIngest, StreamId,
    SummaryBuilder, SummaryKind, SupervisedIngest, Telemetry, TenantConfig, TenantEngine,
};
use bench_harness::TABLE1_SEED;
use geom::{Point2, Vec2};
use std::fmt::Write as _;
use std::time::Instant;

/// One backend × workload × ingestion-mode measurement (single thread).
struct Row {
    workload: &'static str,
    backend: &'static str,
    r: u32,
    n: usize,
    per_point_ns: f64,
    batched_ns: f64,
}

impl Row {
    fn pps_loop(&self) -> f64 {
        1e9 / self.per_point_ns
    }
    fn pps_batch(&self) -> f64 {
        1e9 / self.batched_ns
    }
    fn speedup(&self) -> f64 {
        self.per_point_ns / self.batched_ns
    }
}

/// One backend × workload × shard-count sharded-ingestion measurement.
struct ParRow {
    workload: &'static str,
    backend: &'static str,
    r: u32,
    n: usize,
    threads: usize,
    sharded_ns: f64,
}

impl ParRow {
    fn pps(&self) -> f64 {
        1e9 / self.sharded_ns
    }
}

/// One backend × sliding-window measurement (`window_scan` workload).
struct WinRow {
    backend: &'static str,
    r: u32,
    n: usize,
    window: u64,
    granularity: usize,
    windowed_ns: f64,
    query_ns: f64,
    buckets: usize,
    stale_points: u64,
}

impl WinRow {
    fn pps(&self) -> f64 {
        1e9 / self.windowed_ns
    }
}

/// Checkpoint intervals (points per shard between checkpoints) measured
/// by the `recovery` dimension.
const RECOVERY_INTERVALS: [u64; 3] = [1024, 8192, 65536];

/// Shard count for the `recovery` dimension (fixed so the overhead
/// column isolates checkpointing, not scaling).
const RECOVERY_SHARDS: usize = 2;

/// One backend × checkpoint-interval supervised-ingestion measurement
/// (fault-free run: the column is pure supervision + checkpoint cost).
struct RecRow {
    backend: &'static str,
    r: u32,
    n: usize,
    shards: usize,
    checkpoint_interval: u64,
    supervised_ns: f64,
    run_ns: f64,
    checkpoints: u64,
}

impl RecRow {
    fn pps(&self) -> f64 {
        1e9 / self.supervised_ns
    }
    /// Supervised cost relative to the zero-copy sharded `run` on the
    /// same input (1.0 = free; the checkpoint interval is the lever).
    fn overhead_vs_run(&self) -> f64 {
        self.supervised_ns / self.run_ns
    }
}

/// Best-of-`reps` supervised ingestion timing for one backend and
/// checkpoint interval, against a precomputed sharded-`run` baseline.
fn time_recovery(
    builder: &SummaryBuilder,
    pts: &[Point2],
    chunk: usize,
    interval: u64,
    run_ns: f64,
    reps: usize,
) -> RecRow {
    let engine = ShardedIngest::new(*builder, RECOVERY_SHARDS).with_chunk(chunk);
    let supervised = SupervisedIngest::new(engine).with_checkpoint_interval(interval);
    let mut best = f64::INFINITY;
    let mut checkpoints = 0;
    for _ in 0..reps.max(1) {
        let run = supervised.run_stream(pts.iter().copied());
        assert!(!run.is_degraded(), "fault-free bench run degraded");
        assert_eq!(
            run.run.summary.points_seen(),
            pts.len() as u64,
            "supervised run lost points"
        );
        checkpoints = run.report.checkpoints_taken;
        let ns = run.run.elapsed.as_nanos() as f64 / pts.len().max(1) as f64;
        if ns < best {
            best = ns;
        }
    }
    RecRow {
        backend: builder.kind().label(),
        r: builder.r(),
        n: pts.len(),
        shards: RECOVERY_SHARDS,
        checkpoint_interval: interval,
        supervised_ns: best,
        run_ns,
        checkpoints,
    }
}

/// Spill/restore latency is averaged over at most this many sampled
/// tenants in the `tenant_scan` dimension.
const TENANT_SAMPLE: usize = 1024;

/// One backend × multi-tenant scan measurement (`tenant_scan`
/// dimension): a skewed `TenantTraffic` fleet (~2 points/stream, 10% of
/// the ids carrying 90% of the traffic) ingested through an ungoverned
/// [`TenantEngine`], plus the per-tenant spill/restore round trip the
/// hot/cold tiering pays under memory pressure.
struct TenantRow {
    backend: &'static str,
    r: u32,
    streams: u64,
    n: usize,
    bulk_ns: f64,
    bytes_per_stream: f64,
    spill_ns: f64,
    restore_ns: f64,
}

impl TenantRow {
    fn pps(&self) -> f64 {
        1e9 / self.bulk_ns
    }
    /// How many such streams a GB of budget holds hot — the capacity
    /// figure EXPERIMENTS.md tabulates per backend.
    fn streams_per_gb(&self) -> f64 {
        1e9 / self.bytes_per_stream
    }
}

/// Best-of-`reps` interleaved bulk ingestion through a [`TenantEngine`]
/// for one backend, then spill/restore latency over a sampled slice of
/// the fleet (forced spills, so every sampled tenant pays the full
/// encode + restore round trip).
fn time_tenant_scan(
    builder: &SummaryBuilder,
    traffic: &[(StreamId, Point2)],
    streams: u64,
    reps: usize,
) -> TenantRow {
    let mut best = f64::INFINITY;
    let mut engine = TenantEngine::new(TenantConfig::new(*builder));
    for _ in 0..reps.max(1) {
        let mut e = TenantEngine::new(TenantConfig::new(*builder));
        let start = Instant::now();
        e.ingest_bulk(traffic)
            .expect("ungoverned engine admits everything");
        let ns = start.elapsed().as_nanos() as f64 / traffic.len().max(1) as f64;
        let report = e.pressure_report();
        assert_eq!(
            report.points_seen, report.points_ingested,
            "budget-free run shed points"
        );
        assert_eq!(
            report.points_seen,
            traffic.len() as u64,
            "tenant scan lost points"
        );
        if ns < best {
            best = ns;
        }
        engine = e;
    }
    let live = engine.len().max(1);
    let bytes_per_stream = engine.bytes_in_use() as f64 / live as f64;

    // Sample the fleet evenly for the spill/restore round trip; timing
    // is amortised over the whole sampled batch (each op is µs-scale).
    let ids: Vec<StreamId> = engine.ids().collect();
    let step = (ids.len() / TENANT_SAMPLE).max(1);
    let sample: Vec<StreamId> = ids
        .iter()
        .copied()
        .step_by(step)
        .take(TENANT_SAMPLE)
        .collect();
    let start = Instant::now();
    for &id in &sample {
        assert!(engine.spill(id), "forced spill of a hot tenant failed");
    }
    let spill_ns = start.elapsed().as_nanos() as f64 / sample.len().max(1) as f64;
    let start = Instant::now();
    for &id in &sample {
        let s = engine.summary(id).expect("clean spill restores");
        assert!(s.points_seen() > 0, "restored tenant lost its points");
    }
    let restore_ns = start.elapsed().as_nanos() as f64 / sample.len().max(1) as f64;

    TenantRow {
        backend: builder.kind().label(),
        r: builder.r(),
        streams,
        n: traffic.len(),
        bulk_ns: best,
        bytes_per_stream,
        spill_ns,
        restore_ns,
    }
}

/// Points per stream in the `query_scan` fleet: small enough that the
/// default `--n` yields well past 10k streams, large enough that every
/// hull has real vertices for the calipers to walk.
const QUERY_POINTS_PER_STREAM: usize = 16;

/// Result size for the `top_k_extent` scan timed by `query_scan`.
const QUERY_TOP_K: usize = 10;

/// One backend × serving-layer measurement (`query_scan` dimension):
/// width + diameter + directional extent per stream over an
/// interior-heavy fleet, cold (first pass after ingestion) vs cached
/// (generation-keyed cache hit), plus a warm `top_k_extent` scan with
/// its bbox-pruning counters.
struct QueryRow {
    backend: &'static str,
    r: u32,
    streams: u64,
    n: usize,
    /// Point queries timed per pass (3 kinds × live streams).
    queries: u64,
    cold_ns: f64,
    cached_ns: f64,
    topk_ns: f64,
    topk_scanned: u64,
    topk_pruned: u64,
}

impl QueryRow {
    fn qps_cold(&self) -> f64 {
        1e9 / self.cold_ns
    }
    fn qps_cached(&self) -> f64 {
        1e9 / self.cached_ns
    }
    /// How much the generation-keyed cache buys on a repeated point
    /// query (cold includes the hull build the first touch pays).
    fn cache_speedup(&self) -> f64 {
        self.cold_ns / self.cached_ns
    }
}

/// The `query_scan` fleet: `streams` interleaved uniform-disk streams
/// (interior-heavy — almost every point lands inside the hull of the
/// early extrema), with per-stream radii spread over [0.5, 1.0] so
/// extents genuinely differ and the top-k bound ordering has work to do.
fn query_traffic(n: usize, streams: u64, seed: u64) -> Vec<(StreamId, Point2)> {
    use streamgen::Disk;
    Disk::new(seed ^ 0x9e, n, 1.0)
        .enumerate()
        .map(|(i, p)| {
            let id = i as u64 % streams.max(1);
            let scale = 0.5 + 0.5 * (id % 997) as f64 / 997.0;
            (StreamId(id), Point2::ORIGIN + (p - Point2::ORIGIN) * scale)
        })
        .collect()
}

/// Best-of-`reps` cold and cached query passes over a freshly ingested
/// fleet, asserting the cached pass reproduces the cold pass bit for
/// bit, then a warm `top_k_extent` scan on the final engine.
fn time_query_scan(
    builder: &SummaryBuilder,
    traffic: &[(StreamId, Point2)],
    streams: u64,
    reps: usize,
) -> QueryRow {
    let dir = Vec2::new(1.0, 0.0);
    let mut best_cold = f64::INFINITY;
    let mut best_cached = f64::INFINITY;
    let mut queries = 0u64;
    let mut engine = QueryEngine::new(TenantEngine::new(TenantConfig::new(*builder)));
    for _ in 0..reps.max(1) {
        let mut tenants = TenantEngine::new(TenantConfig::new(*builder));
        tenants
            .ingest_bulk(traffic)
            .expect("ungoverned engine admits everything");
        let mut q = QueryEngine::new(tenants);
        let mut ids: Vec<StreamId> = q.tenants().ids().collect();
        ids.sort_unstable();
        queries = 3 * ids.len() as u64;

        let pass = |q: &mut QueryEngine| -> (f64, Vec<Estimate>, Vec<Option<PairAnswer>>) {
            let mut widths = Vec::with_capacity(ids.len());
            let mut diams = Vec::with_capacity(ids.len());
            let mut exts = Vec::with_capacity(ids.len());
            let start = Instant::now();
            for &id in &ids {
                widths.push(q.width(id).expect("live stream answers width"));
                diams.push(q.diameter(id).expect("live stream answers diameter"));
                exts.push(q.extent(id, dir).expect("live stream answers extent"));
            }
            let ns = start.elapsed().as_nanos() as f64 / queries.max(1) as f64;
            widths.extend(exts);
            (ns, widths, diams)
        };
        let (cold_ns, cold_est, cold_pairs) = pass(&mut q);
        let stats = q.cache_stats();
        assert!(
            stats.misses >= queries,
            "cold pass must miss: {stats:?} vs {queries} queries"
        );
        let (cached_ns, warm_est, warm_pairs) = pass(&mut q);
        let stats = q.cache_stats();
        assert!(
            stats.hits >= queries,
            "cached pass must hit: {stats:?} vs {queries} queries"
        );
        // The cache contract the serving layer documents: a hit is the
        // stored answer, bit for bit.
        assert_eq!(cold_est, warm_est, "cached estimates diverged");
        assert_eq!(cold_pairs, warm_pairs, "cached diameter pairs diverged");
        best_cold = best_cold.min(cold_ns);
        best_cached = best_cached.min(cached_ns);
        engine = q;
    }
    // Warm top-k: the bbox certificates are cached by the first call, so
    // the timed second call is the steady-state scan CI tracks; the
    // pruning counters are bound-driven and identical either way.
    let k = QUERY_TOP_K.min(streams.max(1) as usize);
    let _ = engine.top_k_extent(dir, k).expect("top-k over live fleet");
    let start = Instant::now();
    let topk = engine.top_k_extent(dir, k).expect("top-k over live fleet");
    let topk_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(topk.entries.len(), k, "top-k under-filled");
    QueryRow {
        backend: builder.kind().label(),
        r: builder.r(),
        streams,
        n: traffic.len(),
        queries,
        cold_ns: best_cold,
        cached_ns: best_cached,
        topk_ns,
        topk_scanned: topk.scanned,
        topk_pruned: topk.pruned,
    }
}

/// One backend × telemetry-overhead measurement: the sharded hot path
/// run twice on the same interior stream — once with the detached no-op
/// handle (`Telemetry::disabled()`, the engine default) and once against
/// a live registry — so the `overhead` column is the price of
/// instrumentation itself. The claim `core::telemetry` makes is that the
/// hot path pays one relaxed atomic add per chunk: overhead ≤ 1.03.
struct TelRow {
    backend: &'static str,
    r: u32,
    n: usize,
    noop_ns: f64,
    instrumented_ns: f64,
}

impl TelRow {
    /// Instrumented cost relative to the no-op-handle path (1.0 = free).
    fn overhead(&self) -> f64 {
        self.instrumented_ns / self.noop_ns
    }
}

/// Median of sorted samples (assumes non-empty).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Interleaved timing of the 1-shard engine with and without a live
/// telemetry registry. This dimension needs more care than the others:
/// the claimed margin (≤ 3%) is *below* the noise of a single ~2 ms
/// engine pass (thread spawn and scheduler jitter are worth several
/// percent at that scale), and below the slow frequency/throttle drift
/// a shared container sees across a multi-second run. So each timed
/// sample amortises enough back-to-back passes to take ~30 ms, the two
/// arms alternate, and the estimator is the **median of per-pair
/// ratios**: adjacent samples share the machine's throttle state, so
/// the pairwise ratio cancels drift that per-arm aggregates (mins or
/// medians alike) cannot. `instrumented_ns` is derived as
/// `noop_ns × overhead` so the recorded row stays self-consistent.
fn time_telemetry_overhead(
    builder: &SummaryBuilder,
    pts: &[Point2],
    chunk: usize,
    reps: usize,
) -> TelRow {
    let tel = Telemetry::new();
    let noop_engine = ShardedIngest::new(*builder, 1).with_chunk(chunk);
    let inst_engine = ShardedIngest::new(*builder, 1)
        .with_chunk(chunk)
        .with_telemetry(tel);
    // Warm both arms (allocator, caches, lazy registration), and size a
    // sample from the warm-up pass so one measurement is ~30 ms.
    let warm = Instant::now();
    let _ = noop_engine.run(pts);
    let pass_secs = warm.elapsed().as_secs_f64();
    let _ = inst_engine.run(pts);
    let passes = ((0.03 / pass_secs.max(1e-9)) as usize).clamp(1, 24);
    let samples = (reps * 5).max(15);
    let mut noop = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..passes {
            let _ = noop_engine.run(pts);
        }
        let noop_ns = start.elapsed().as_nanos() as f64 / (passes * pts.len().max(1)) as f64;
        let start = Instant::now();
        for _ in 0..passes {
            let _ = inst_engine.run(pts);
        }
        let inst_ns = start.elapsed().as_nanos() as f64 / (passes * pts.len().max(1)) as f64;
        noop.push(noop_ns);
        ratios.push(inst_ns / noop_ns);
    }
    // The instrumented arm must actually have instrumented something,
    // or the ratio proves nothing.
    let scrape = tel.scrape();
    assert!(
        scrape.counter_total(names::INGEST_POINTS) > 0,
        "{}: instrumented run recorded no points",
        builder.kind()
    );
    let noop_ns = median(&mut noop);
    let overhead = median(&mut ratios);
    TelRow {
        backend: builder.kind().label(),
        r: builder.r(),
        n: pts.len(),
        noop_ns,
        instrumented_ns: noop_ns * overhead,
    }
}

/// One backend × snapshot-codec measurement (encode/decode a summary of
/// the interior workload; see `core::snapshot`).
struct SnapRow {
    backend: &'static str,
    r: u32,
    n: usize,
    snapshot_bytes: usize,
    encode_ns: f64,
    decode_ns: f64,
}

/// Snapshot-codec cost for one backend: summarise `pts`, then time
/// whole-summary encode and restore (best of `reps`, several iterations
/// each since both are microsecond-scale).
fn time_snapshot(builder: &SummaryBuilder, pts: &[Point2], chunk: usize, reps: usize) -> SnapRow {
    let mut s = builder.build_mergeable();
    for piece in pts.chunks(chunk.max(1)) {
        s.insert_batch(piece);
    }
    let bytes = s.encode_snapshot();
    let iters = 64usize;
    let mut best_encode = f64::INFINITY;
    let mut best_decode = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let mut total_len = 0usize;
        for _ in 0..iters {
            total_len += s.encode_snapshot().len();
        }
        assert_eq!(
            total_len,
            bytes.len() * iters,
            "encode must be deterministic"
        );
        best_encode = best_encode.min(start.elapsed().as_nanos() as f64 / iters as f64);

        let start = Instant::now();
        let mut seen = 0u64;
        for _ in 0..iters {
            let restored = SummaryBuilder::restore(&bytes).expect("snapshot restores");
            seen = restored.points_seen();
        }
        assert_eq!(seen, s.points_seen(), "restore must reproduce the summary");
        best_decode = best_decode.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    // End-to-end fidelity: the restored hull is the ingested hull.
    let restored = SummaryBuilder::restore(&bytes).expect("snapshot restores");
    assert_eq!(
        restored.hull_ref().vertices(),
        s.hull_ref().vertices(),
        "{}: restored hull diverged",
        builder.kind()
    );
    SnapRow {
        backend: builder.kind().label(),
        r: builder.r(),
        n: pts.len(),
        snapshot_bytes: bytes.len(),
        encode_ns: best_encode,
        decode_ns: best_decode,
    }
}

/// Throughput of `row` relative to the 1-shard engine run of the same
/// (workload, backend) — `None` when the run's `--threads` list omitted 1,
/// so an absent baseline is reported as missing rather than a fabricated
/// 1.0 (the single source for both the stdout table and the JSON).
fn scaling_vs_1(par_rows: &[ParRow], row: &ParRow) -> Option<f64> {
    par_rows
        .iter()
        .find(|b| b.workload == row.workload && b.backend == row.backend && b.threads == 1)
        .map(|b| b.sharded_ns / row.sharded_ns)
}

fn workloads(n: usize, seed: u64) -> Vec<(&'static str, Vec<Point2>)> {
    use streamgen::{Annulus, Disk, Ellipse, Gaussian, Translate};
    let interior: Vec<Point2> = Disk::new(seed, n, 1.0).collect();
    let boundary: Vec<Point2> = Annulus::new(seed ^ 0xb0, n, 0.95, 1.0).collect();
    let rotating: Vec<Point2> = Ellipse::new(seed ^ 0x07, n, 8.0, 0.0)
        .enumerate()
        .map(|(i, p)| {
            let phi = core::f64::consts::TAU * i as f64 / n.max(1) as f64;
            Point2::ORIGIN + (p - Point2::ORIGIN).rotate(phi)
        })
        .collect();
    // Four well-separated Gaussian blobs, interleaved so clustering can
    // never rely on arrival order; exact length n.
    let centers = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (30.0, 30.0)];
    let per_blob = n / centers.len() + 1;
    let blobs: Vec<Vec<Point2>> = centers
        .iter()
        .enumerate()
        .map(|(i, &(cx, cy))| {
            Translate::new(
                Gaussian::new(seed ^ (0xc1 + i as u64), per_blob, 1.0),
                geom::Vec2::new(cx, cy),
            )
            .collect()
        })
        .collect();
    let clustered: Vec<Point2> = (0..n).map(|i| blobs[i % 4][i / 4]).collect();
    vec![
        ("interior", interior),
        ("boundary", boundary),
        ("rotating", rotating),
        ("clustered", clustered),
    ]
}

/// The `window_scan` stream: a Gaussian blob drifting across the plane,
/// so the window hull keeps moving and buckets keep expiring.
fn window_workload(n: usize, seed: u64) -> Vec<Point2> {
    use streamgen::Drift;
    Drift::new(
        seed ^ 0xd1,
        n,
        Point2::new(0.0, 0.0),
        Point2::new(100.0, 0.0),
        1.0,
    )
    .collect()
}

/// Best-of-`reps` windowed ingestion + query timing for one backend.
fn time_windowed(
    builder: &SummaryBuilder,
    pts: &[Point2],
    window: u64,
    granularity: usize,
    chunk: usize,
    reps: usize,
) -> WinRow {
    let config = WindowConfig::last_n(window).with_granularity(granularity);
    let mut best_ingest = f64::INFINITY;
    let mut best_query = f64::INFINITY;
    let mut buckets = 0;
    let mut stale = 0;
    for _ in 0..reps.max(1) {
        let mut w = builder.windowed(config);
        let start = Instant::now();
        for piece in pts.chunks(chunk.max(1)) {
            w.insert_batch(piece);
        }
        let ns = start.elapsed().as_nanos() as f64 / pts.len().max(1) as f64;
        best_ingest = best_ingest.min(ns);
        assert_eq!(
            w.points_seen(),
            pts.len() as u64,
            "windowed run lost points"
        );
        // Query cost: the first query after ingestion, which merges every
        // live bucket into a fresh collector. A repeat on the unchanged
        // chain would resume from the checkpoints this one saves.
        let qstart = Instant::now();
        let ans = w.query_window();
        best_query = best_query.min(qstart.elapsed().as_nanos() as f64);
        buckets = ans.buckets;
        stale = ans.stale_points;
        assert!(
            ans.merged_points >= window.min(pts.len() as u64),
            "window not covered: {} < {window}",
            ans.merged_points
        );
    }
    WinRow {
        backend: builder.kind().label(),
        r: builder.r(),
        n: pts.len(),
        window,
        granularity,
        windowed_ns: best_ingest,
        query_ns: best_query,
        buckets,
        stale_points: stale,
    }
}

/// Best-of-`reps` wall-clock nanoseconds per point for one ingestion mode.
fn time_ns_per_point(
    builder: &SummaryBuilder,
    pts: &[Point2],
    chunk: Option<usize>,
    reps: usize,
) -> (f64, u64, Vec<Point2>) {
    let mut best = f64::INFINITY;
    let mut seen = 0;
    let mut hull = Vec::new();
    for _ in 0..reps.max(1) {
        let mut s = builder.build();
        let start = Instant::now();
        match chunk {
            None => {
                for &p in pts {
                    s.insert(p);
                }
            }
            Some(c) => {
                for piece in pts.chunks(c.max(1)) {
                    s.insert_batch(piece);
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / pts.len().max(1) as f64;
        if ns < best {
            best = ns;
        }
        seen = s.points_seen();
        hull = s.hull_ref().vertices().to_vec();
    }
    (best, seen, hull)
}

/// Best-of-`reps` wall-clock nanoseconds per point for a sharded run.
fn time_sharded_ns_per_point(
    builder: &SummaryBuilder,
    pts: &[Point2],
    shards: usize,
    chunk: usize,
    reps: usize,
) -> f64 {
    let engine = ShardedIngest::new(*builder, shards).with_chunk(chunk);
    // One partition for every entry point: the zero-copy slice run and a
    // fault-free supervised streaming run must agree bit for bit (checked
    // once, outside the timed loop).
    let vertex_bits = |run: &ShardRun| -> Vec<(u64, u64)> {
        let hull = run.summary.hull_ref();
        hull.vertices()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    };
    let supervised = SupervisedIngest::new(engine).run_stream(pts.iter().copied());
    assert!(!supervised.is_degraded(), "fault-free bench run degraded");
    assert_eq!(
        vertex_bits(&engine.run(pts)),
        vertex_bits(&supervised.run),
        "{}/{shards}: run and the supervised stream diverged",
        builder.kind()
    );
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let run = engine.run(pts);
        // The engine reports its own wall time now (PR 5): one timing
        // source for the bench, the checkpoint logic, and operators.
        let ns = run.elapsed.as_nanos() as f64 / pts.len().max(1) as f64;
        assert_eq!(
            run.summary.points_seen(),
            pts.len() as u64,
            "sharded run lost points"
        );
        if ns < best {
            best = ns;
        }
    }
    best
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(s.chars().all(|c| c.is_ascii_graphic() || c == ' '));
    s
}

/// Run-level metadata recorded at the top of the JSON document.
struct RunMeta<'a> {
    n: usize,
    chunk: usize,
    reps: usize,
    seed: u64,
    threads: &'a [usize],
    host_cpus: usize,
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    meta: &RunMeta<'_>,
    rows: &[Row],
    win_rows: &[WinRow],
    par_rows: &[ParRow],
    snap_rows: &[SnapRow],
    rec_rows: &[RecRow],
    tenant_rows: &[TenantRow],
    query_rows: &[QueryRow],
    tel_rows: &[TelRow],
) -> String {
    let RunMeta {
        n,
        chunk,
        reps,
        seed,
        threads,
        host_cpus,
    } = *meta;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"throughput\",");
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"chunk\": {chunk},");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"host_cpus\": {host_cpus},");
    let threads_list: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(out, "  \"threads\": [{}],", threads_list.join(", "));
    let _ = writeln!(out, "  \"unit\": \"points_per_sec\",");
    let _ = writeln!(out, "  \"results\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"backend\": \"{}\", \"r\": {}, \"n\": {}, \
             \"threads\": 1, \
             \"per_point_ns\": {:.2}, \"batched_ns\": {:.2}, \
             \"points_per_sec_loop\": {:.0}, \"points_per_sec_batch\": {:.0}, \
             \"speedup\": {:.3}}}{comma}",
            json_escape_free(row.workload),
            json_escape_free(row.backend),
            row.r,
            row.n,
            row.per_point_ns,
            row.batched_ns,
            row.pps_loop(),
            row.pps_batch(),
            row.speedup(),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"window\": [");
    for (i, row) in win_rows.iter().enumerate() {
        let comma = if i + 1 == win_rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"window_scan\", \"backend\": \"{}\", \"r\": {}, \"n\": {}, \
             \"threads\": 1, \"window\": {}, \"granularity\": {}, \
             \"windowed_ns\": {:.2}, \"points_per_sec\": {:.0}, \"query_ns\": {:.0}, \
             \"buckets\": {}, \"stale_points\": {}}}{comma}",
            json_escape_free(row.backend),
            row.r,
            row.n,
            row.window,
            row.granularity,
            row.windowed_ns,
            row.pps(),
            row.query_ns,
            row.buckets,
            row.stale_points,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"snapshot\": [");
    for (i, row) in snap_rows.iter().enumerate() {
        let comma = if i + 1 == snap_rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"backend\": \"{}\", \"r\": {}, \"n\": {}, \
             \"snapshot_bytes\": {}, \"encode_ns\": {:.0}, \"decode_ns\": {:.0}}}{comma}",
            json_escape_free(row.backend),
            row.r,
            row.n,
            row.snapshot_bytes,
            row.encode_ns,
            row.decode_ns,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"parallel\": [");
    for (i, row) in par_rows.iter().enumerate() {
        let comma = if i + 1 == par_rows.len() { "" } else { "," };
        let scaling = scaling_vs_1(par_rows, row).map_or("null".to_string(), |s| format!("{s:.3}"));
        let _ = writeln!(
            out,
            "    {{\"workload\": \"{}\", \"backend\": \"{}\", \"r\": {}, \"n\": {}, \
             \"threads\": {}, \"sharded_ns\": {:.2}, \"points_per_sec\": {:.0}, \
             \"scaling_vs_1\": {scaling}}}{comma}",
            json_escape_free(row.workload),
            json_escape_free(row.backend),
            row.r,
            row.n,
            row.threads,
            row.sharded_ns,
            row.pps(),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"recovery\": [");
    for (i, row) in rec_rows.iter().enumerate() {
        let comma = if i + 1 == rec_rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"backend\": \"{}\", \"r\": {}, \"n\": {}, \"shards\": {}, \
             \"checkpoint_interval\": {}, \"supervised_ns\": {:.2}, \
             \"points_per_sec\": {:.0}, \"overhead_vs_run\": {:.3}, \
             \"checkpoints\": {}}}{comma}",
            json_escape_free(row.backend),
            row.r,
            row.n,
            row.shards,
            row.checkpoint_interval,
            row.supervised_ns,
            row.pps(),
            row.overhead_vs_run(),
            row.checkpoints,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"tenant_scan\": [");
    for (i, row) in tenant_rows.iter().enumerate() {
        let comma = if i + 1 == tenant_rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"backend\": \"{}\", \"r\": {}, \"streams\": {}, \"n\": {}, \
             \"bulk_ns\": {:.2}, \"points_per_sec\": {:.0}, \
             \"bytes_per_stream\": {:.1}, \"streams_per_gb\": {:.0}, \
             \"spill_ns\": {:.0}, \"restore_ns\": {:.0}}}{comma}",
            json_escape_free(row.backend),
            row.r,
            row.streams,
            row.n,
            row.bulk_ns,
            row.pps(),
            row.bytes_per_stream,
            row.streams_per_gb(),
            row.spill_ns,
            row.restore_ns,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"query_scan\": [");
    for (i, row) in query_rows.iter().enumerate() {
        let comma = if i + 1 == query_rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workload\": \"query_scan\", \"backend\": \"{}\", \"r\": {}, \
             \"streams\": {}, \"n\": {}, \"threads\": 1, \"queries\": {}, \
             \"cold_ns\": {:.2}, \"queries_per_sec_cold\": {:.0}, \
             \"cached_ns\": {:.2}, \"queries_per_sec_cached\": {:.0}, \
             \"cache_speedup\": {:.2}, \"topk_ns\": {:.0}, \
             \"topk_scanned\": {}, \"topk_pruned\": {}}}{comma}",
            json_escape_free(row.backend),
            row.r,
            row.streams,
            row.n,
            row.queries,
            row.cold_ns,
            row.qps_cold(),
            row.cached_ns,
            row.qps_cached(),
            row.cache_speedup(),
            row.topk_ns,
            row.topk_scanned,
            row.topk_pruned,
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"telemetry_overhead\": [");
    for (i, row) in tel_rows.iter().enumerate() {
        let comma = if i + 1 == tel_rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"backend\": \"{}\", \"r\": {}, \"n\": {}, \
             \"noop_ns\": {:.2}, \"instrumented_ns\": {:.2}, \"overhead\": {:.3}}}{comma}",
            json_escape_free(row.backend),
            row.r,
            row.n,
            row.noop_ns,
            row.instrumented_ns,
            row.overhead(),
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Every dimension one bench invocation measures, in render order.
type Dimensions = (
    Vec<Row>,
    Vec<WinRow>,
    Vec<ParRow>,
    Vec<SnapRow>,
    Vec<RecRow>,
    Vec<TenantRow>,
    Vec<QueryRow>,
    Vec<TelRow>,
);

fn run(n: usize, chunk: usize, reps: usize, r: u32, threads: &[usize], window: u64) -> Dimensions {
    let mut rows = Vec::new();
    let mut par_rows = Vec::new();
    for (wname, pts) in workloads(n, TABLE1_SEED) {
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(r);
            let (loop_ns, loop_seen, loop_hull) = time_ns_per_point(&builder, &pts, None, reps);
            let (batch_ns, batch_seen, batch_hull) =
                time_ns_per_point(&builder, &pts, Some(chunk), reps);
            // The bench doubles as an end-to-end equivalence check: the
            // batched run must reproduce the loop's observable state.
            assert_eq!(loop_seen, batch_seen, "{wname}/{kind}: seen diverged");
            assert_eq!(loop_hull, batch_hull, "{wname}/{kind}: hull diverged");
            rows.push(Row {
                workload: wname,
                backend: kind.label(),
                r,
                n: pts.len(),
                per_point_ns: loop_ns,
                batched_ns: batch_ns,
            });
            // Sharded dimension: the engine-friendly workloads only (the
            // boundary/rotating adversaries measure the same machinery).
            if wname == "interior" || wname == "clustered" {
                for &t in threads {
                    let ns = time_sharded_ns_per_point(&builder, &pts, t, chunk, reps);
                    par_rows.push(ParRow {
                        workload: wname,
                        backend: kind.label(),
                        r,
                        n: pts.len(),
                        threads: t,
                        sharded_ns: ns,
                    });
                }
            }
        }
    }
    // Sliding-window dimension: every backend windows the drifting-blob
    // stream through a WindowedSummary, batched feeding, LastN policy.
    let win_pts = window_workload(n, TABLE1_SEED);
    let granularity = 256.min(window.max(1) as usize);
    let win_rows: Vec<WinRow> = SummaryKind::ALL
        .iter()
        .map(|&kind| {
            let builder = SummaryBuilder::new(kind).with_r(r);
            time_windowed(&builder, &win_pts, window, granularity, chunk, reps)
        })
        .collect();
    // Snapshot-codec dimension: encode/decode every backend's summary of
    // the interior workload (the steady-state checkpointing shape).
    // Same generator and seed as the serial `interior` workload, without
    // re-materialising the other three workloads.
    let snap_pts: Vec<Point2> = streamgen::Disk::new(TABLE1_SEED, n, 1.0).collect();
    let snap_pts = &snap_pts;
    let snap_rows: Vec<SnapRow> = SummaryKind::ALL
        .iter()
        .map(|&kind| time_snapshot(&SummaryBuilder::new(kind).with_r(r), snap_pts, chunk, reps))
        .collect();
    // Recovery dimension: supervised ingestion overhead vs the zero-copy
    // sharded run on the same interior workload, across checkpoint
    // intervals (the operator's main tuning lever).
    let mut rec_rows = Vec::new();
    for &kind in &SummaryKind::ALL {
        let builder = SummaryBuilder::new(kind).with_r(r);
        let engine = ShardedIngest::new(builder, RECOVERY_SHARDS).with_chunk(chunk);
        let mut run_best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let run = engine.run(snap_pts);
            let ns = run.elapsed.as_nanos() as f64 / snap_pts.len().max(1) as f64;
            if ns < run_best {
                run_best = ns;
            }
        }
        for &interval in &RECOVERY_INTERVALS {
            rec_rows.push(time_recovery(
                &builder, snap_pts, chunk, interval, run_best, reps,
            ));
        }
    }
    // Tenant-scan dimension: interleaved multi-stream ingestion through
    // the governed registry — fleet capacity (bytes/stream, streams/GB)
    // and the spill/restore round trip, per backend.
    let tenant_streams = (n as u64 / 2).max(1);
    let tenant_traffic: Vec<(StreamId, Point2)> =
        streamgen::TenantTraffic::new(TABLE1_SEED ^ 0x7e, tenant_streams, n)
            .map(|(t, p)| (StreamId(t), p))
            .collect();
    let tenant_rows: Vec<TenantRow> = SummaryKind::ALL
        .iter()
        .map(|&kind| {
            let builder = SummaryBuilder::new(kind).with_r(r);
            time_tenant_scan(&builder, &tenant_traffic, tenant_streams, reps)
        })
        .collect();
    // Query-scan dimension: the serving layer over an interior-heavy
    // fleet — cold vs cached point queries and the pruned top-k scan.
    let query_streams = (n as u64 / QUERY_POINTS_PER_STREAM as u64).max(1);
    let query_pts = query_traffic(n, query_streams, TABLE1_SEED);
    let query_rows: Vec<QueryRow> = SummaryKind::ALL
        .iter()
        .map(|&kind| {
            let builder = SummaryBuilder::new(kind).with_r(r);
            time_query_scan(&builder, &query_pts, query_streams, reps)
        })
        .collect();
    // Telemetry-overhead dimension: the instrumented hot path vs the
    // no-op-handle path on the interior workload, per backend.
    let tel_rows: Vec<TelRow> = SummaryKind::ALL
        .iter()
        .map(|&kind| {
            let builder = SummaryBuilder::new(kind).with_r(r);
            time_telemetry_overhead(&builder, snap_pts, chunk, reps)
        })
        .collect();
    (
        rows,
        win_rows,
        par_rows,
        snap_rows,
        rec_rows,
        tenant_rows,
        query_rows,
        tel_rows,
    )
}

fn main() {
    let mut n = 200_000usize;
    let mut chunk = 1024usize;
    let mut reps = 3usize;
    let mut r = 32u32;
    let mut threads = vec![1usize, 2, 4];
    let mut window = 0u64; // 0 = default n/8
    let mut out_path = String::from("BENCH_throughput.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut grab = || args.next().expect("flag needs a value");
        match flag.as_str() {
            "--n" => n = grab().parse().expect("--n"),
            "--chunk" => chunk = grab().parse().expect("--chunk"),
            "--reps" => reps = grab().parse().expect("--reps"),
            "--r" => r = grab().parse().expect("--r"),
            "--threads" => {
                threads = grab()
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4"))
                    .collect();
                assert!(!threads.is_empty(), "--threads needs at least one count");
            }
            "--window" => window = grab().parse().expect("--window"),
            "--out" => out_path = grab(),
            other => {
                panic!(
                    "unknown flag {other:?} \
                     (supported: --n --chunk --reps --r --threads --window --out)"
                )
            }
        }
    }
    if window == 0 {
        window = (n as u64 / 8).max(1024);
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (rows, win_rows, par_rows, snap_rows, rec_rows, tenant_rows, query_rows, tel_rows) =
        run(n, chunk, reps, r, &threads, window);

    println!(
        "{:<10} {:<14} {:>12} {:>12} {:>14} {:>14} {:>8}",
        "workload", "backend", "loop ns/pt", "batch ns/pt", "loop pts/s", "batch pts/s", "speedup"
    );
    for row in &rows {
        println!(
            "{:<10} {:<14} {:>12.1} {:>12.1} {:>14.0} {:>14.0} {:>7.2}x",
            row.workload,
            row.backend,
            row.per_point_ns,
            row.batched_ns,
            row.pps_loop(),
            row.pps_batch(),
            row.speedup()
        );
    }

    println!("\nsliding window (window_scan workload: drifting blob, LastN({window}))");
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>8} {:>8}",
        "backend", "windowed ns/pt", "pts/s", "query ns", "buckets", "stale"
    );
    for row in &win_rows {
        println!(
            "{:<14} {:>14.1} {:>14.0} {:>12.0} {:>8} {:>8}",
            row.backend,
            row.windowed_ns,
            row.pps(),
            row.query_ns,
            row.buckets,
            row.stale_points,
        );
    }

    println!("\nsnapshot codec (interior workload, whole-summary encode/restore)");
    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "backend", "bytes", "encode ns", "decode ns"
    );
    for row in &snap_rows {
        println!(
            "{:<14} {:>10} {:>12.0} {:>12.0}",
            row.backend, row.snapshot_bytes, row.encode_ns, row.decode_ns,
        );
    }

    println!(
        "\nsharded ingestion (host has {host_cpus} cpu(s); scaling is vs the 1-shard engine run)"
    );
    println!(
        "{:<10} {:<14} {:>8} {:>14} {:>14} {:>9}",
        "workload", "backend", "threads", "sharded ns/pt", "pts/s", "scaling"
    );
    for row in &par_rows {
        let scaling =
            scaling_vs_1(&par_rows, row).map_or("n/a".to_string(), |s| format!("{s:.2}x"));
        println!(
            "{:<10} {:<14} {:>8} {:>14.1} {:>14.0} {:>9}",
            row.workload,
            row.backend,
            row.threads,
            row.sharded_ns,
            row.pps(),
            scaling,
        );
    }

    println!(
        "\nsupervised recovery (interior workload, {RECOVERY_SHARDS} shards; \
         overhead is vs the zero-copy sharded run)"
    );
    println!(
        "{:<14} {:>10} {:>14} {:>14} {:>9} {:>12}",
        "backend", "interval", "supervised ns", "pts/s", "overhead", "checkpoints"
    );
    for row in &rec_rows {
        println!(
            "{:<14} {:>10} {:>14.1} {:>14.0} {:>8.2}x {:>12}",
            row.backend,
            row.checkpoint_interval,
            row.supervised_ns,
            row.pps(),
            row.overhead_vs_run(),
            row.checkpoints,
        );
    }

    println!(
        "\ntenant scan (skewed multi-tenant fleet, ~2 pts/stream; spill/restore \
         sampled over {TENANT_SAMPLE} tenants)"
    );
    println!(
        "{:<14} {:>9} {:>12} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "backend", "streams", "bulk ns/pt", "pts/s", "bytes/strm", "strm/GB", "spill ns", "restore"
    );
    for row in &tenant_rows {
        println!(
            "{:<14} {:>9} {:>12.1} {:>14.0} {:>12.1} {:>12.0} {:>10.0} {:>10.0}",
            row.backend,
            row.streams,
            row.bulk_ns,
            row.pps(),
            row.bytes_per_stream,
            row.streams_per_gb(),
            row.spill_ns,
            row.restore_ns,
        );
    }

    println!(
        "\nquery scan (serving layer, {QUERY_POINTS_PER_STREAM} pts/stream interior fleet; \
         3 point queries per stream, cold vs cached; top-{QUERY_TOP_K} extent scan)"
    );
    println!(
        "{:<14} {:>9} {:>10} {:>12} {:>11} {:>12} {:>8} {:>10} {:>8} {:>8}",
        "backend",
        "streams",
        "cold ns",
        "cold qps",
        "cached ns",
        "cached qps",
        "speedup",
        "topk ns",
        "scanned",
        "pruned"
    );
    for row in &query_rows {
        println!(
            "{:<14} {:>9} {:>10.1} {:>12.0} {:>11.1} {:>12.0} {:>7.1}x {:>10.0} {:>8} {:>8}",
            row.backend,
            row.streams,
            row.cold_ns,
            row.qps_cold(),
            row.cached_ns,
            row.qps_cached(),
            row.cache_speedup(),
            row.topk_ns,
            row.topk_scanned,
            row.topk_pruned,
        );
    }

    println!(
        "\ntelemetry overhead (interior workload, 1 shard; instrumented vs \
         no-op handle, interleaved best-of)"
    );
    println!(
        "{:<14} {:>12} {:>16} {:>10}",
        "backend", "noop ns/pt", "instrumented ns", "overhead"
    );
    for row in &tel_rows {
        println!(
            "{:<14} {:>12.1} {:>16.1} {:>9.3}x",
            row.backend,
            row.noop_ns,
            row.instrumented_ns,
            row.overhead(),
        );
    }

    let json = render_json(
        &RunMeta {
            n,
            chunk,
            reps,
            seed: TABLE1_SEED,
            threads: &threads,
            host_cpus,
        },
        &rows,
        &win_rows,
        &par_rows,
        &snap_rows,
        &rec_rows,
        &tenant_rows,
        &query_rows,
        &tel_rows,
    );
    std::fs::write(&out_path, &json).expect("write throughput JSON");
    println!("\nwrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_wellformed_json() {
        let threads = [1usize, 2];
        let (rows, win_rows, par_rows, snap_rows, rec_rows, tenant_rows, query_rows, tel_rows) =
            run(2000, 256, 1, 16, &threads, 500);
        assert_eq!(rows.len(), 4 * SummaryKind::ALL.len());
        assert_eq!(win_rows.len(), SummaryKind::ALL.len());
        assert_eq!(par_rows.len(), 2 * SummaryKind::ALL.len() * threads.len());
        assert_eq!(snap_rows.len(), SummaryKind::ALL.len());
        assert_eq!(
            rec_rows.len(),
            RECOVERY_INTERVALS.len() * SummaryKind::ALL.len()
        );
        assert_eq!(tenant_rows.len(), SummaryKind::ALL.len());
        assert_eq!(query_rows.len(), SummaryKind::ALL.len());
        assert_eq!(tel_rows.len(), SummaryKind::ALL.len());
        for row in &query_rows {
            assert!(row.cold_ns > 0.0 && row.cached_ns > 0.0, "{}", row.backend);
            assert!(row.cache_speedup().is_finite(), "{}", row.backend);
            assert!(row.queries > 0 && row.topk_scanned >= 1, "{}", row.backend);
            assert_eq!(
                row.topk_scanned, row.streams,
                "{}: top-k bbox pass must visit the whole fleet",
                row.backend
            );
            assert!(
                row.topk_pruned <= row.streams,
                "{}: top-k pruned more candidates than streams",
                row.backend
            );
        }
        for row in &tel_rows {
            assert!(
                row.noop_ns > 0.0 && row.instrumented_ns > 0.0,
                "{}",
                row.backend
            );
            assert!(row.overhead().is_finite(), "{}", row.backend);
        }
        for row in &tenant_rows {
            assert!(row.bytes_per_stream > 0.0, "{}", row.backend);
            assert!(row.streams_per_gb() > 0.0, "{}", row.backend);
            assert!(
                row.spill_ns > 0.0 && row.restore_ns > 0.0,
                "{}",
                row.backend
            );
        }
        let json = render_json(
            &RunMeta {
                n: 2000,
                chunk: 256,
                reps: 1,
                seed: TABLE1_SEED,
                threads: &threads,
                host_cpus: 1,
            },
            &rows,
            &win_rows,
            &par_rows,
            &snap_rows,
            &rec_rows,
            &tenant_rows,
            &query_rows,
            &tel_rows,
        );
        // Minimal structural validation: balanced braces/brackets, the
        // expected keys, one result object per row, no NaN/inf leakage.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(
            json.matches("\"workload\"").count(),
            rows.len() + win_rows.len() + par_rows.len() + query_rows.len()
        );
        assert_eq!(
            json.matches("\"threads\"").count(),
            rows.len() + win_rows.len() + par_rows.len() + query_rows.len() + 1
        );
        assert_eq!(
            json.matches("\"window_scan\"").count(),
            win_rows.len(),
            "one window row per backend"
        );
        assert_eq!(
            json.matches("\"query_scan\"").count(),
            query_rows.len() + 1,
            "one query row per backend plus the section key"
        );
        for key in [
            "\"bench\"",
            "\"host_cpus\"",
            "\"points_per_sec_loop\"",
            "\"points_per_sec_batch\"",
            "\"speedup\"",
            "\"sharded_ns\"",
            "\"scaling_vs_1\"",
            "\"windowed_ns\"",
            "\"query_ns\"",
            "\"stale_points\"",
            "\"granularity\"",
            "\"snapshot_bytes\"",
            "\"encode_ns\"",
            "\"decode_ns\"",
            "\"checkpoint_interval\"",
            "\"overhead_vs_run\"",
            "\"checkpoints\"",
            "\"tenant_scan\"",
            "\"bulk_ns\"",
            "\"bytes_per_stream\"",
            "\"streams_per_gb\"",
            "\"spill_ns\"",
            "\"restore_ns\"",
            "\"query_scan\"",
            "\"cold_ns\"",
            "\"queries_per_sec_cold\"",
            "\"cached_ns\"",
            "\"queries_per_sec_cached\"",
            "\"cache_speedup\"",
            "\"topk_ns\"",
            "\"topk_scanned\"",
            "\"topk_pruned\"",
            "\"telemetry_overhead\"",
            "\"noop_ns\"",
            "\"instrumented_ns\"",
            "\"overhead\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn window_rows_cover_every_backend_with_sane_numbers() {
        let pts = window_workload(3000, TABLE1_SEED);
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(16);
            let row = time_windowed(&builder, &pts, 600, 128, 256, 1);
            assert_eq!(row.backend, kind.label());
            assert!(
                row.windowed_ns.is_finite() && row.windowed_ns > 0.0,
                "{kind}"
            );
            assert!(row.query_ns.is_finite() && row.query_ns > 0.0, "{kind}");
            assert!(row.buckets >= 1, "{kind}");
            // The chain is bounded by the window, not the stream.
            assert!(row.buckets <= 2 * 12 + 1, "{kind}: {} buckets", row.buckets);
        }
    }

    #[test]
    fn workloads_have_exact_lengths_and_finite_points() {
        let w = workloads(500, 1);
        assert_eq!(w.len(), 4);
        for (name, pts) in w {
            assert_eq!(pts.len(), 500, "{name}");
            assert!(pts.iter().all(|p| p.is_finite()), "{name}");
        }
    }

    #[test]
    fn query_traffic_covers_every_stream_evenly() {
        let streams = 50u64;
        let t = query_traffic(800, streams, TABLE1_SEED);
        assert_eq!(t.len(), 800);
        let mut counts = vec![0usize; streams as usize];
        for (id, p) in &t {
            counts[id.0 as usize] += 1;
            assert!(p.is_finite());
        }
        assert!(counts.iter().all(|&c| c == 16), "uneven fleet: {counts:?}");
    }

    #[test]
    fn clustered_workload_is_genuinely_multimodal() {
        use adaptive_hull::{ClusterHull, ClusterHullConfig};
        let pts = &workloads(4000, TABLE1_SEED)[3].1;
        let mut ch = ClusterHull::new(ClusterHullConfig::new(4).with_r(8));
        ch.insert_batch(pts);
        assert!(ch.cluster_count() >= 3, "blobs must stay separate");
        assert!(
            !ch.covers(Point2::new(15.0, 15.0)),
            "inter-blob gap covered"
        );
    }
}
