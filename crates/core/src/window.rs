//! Sliding-window hull summaries: extent queries over the *recent* part
//! of a stream, for any [`SummaryKind`](crate::builder::SummaryKind).
//!
//! The whole-stream summaries in this crate never forget: their hulls
//! describe everything ever seen. Production traffic overwhelmingly asks
//! windowed questions instead — "the extent of the last `N` points", "the
//! diameter over the last `T` seconds". A hull summary cannot *delete* a
//! point, so [`WindowedSummary`] takes the classic synopsis route of
//! Datar–Gionis–Indyk–Motwani **exponential histograms**: it keeps a chain
//! of closed summaries ("buckets"), each covering a contiguous span of the
//! stream, with bucket spans growing geometrically towards the past.
//! Whole buckets expire as the window slides; only the oldest live bucket
//! can straddle the window boundary, so a window answer is exact about
//! *which recent points it covers* up to that one bucket — the reported
//! **staleness bound**.
//!
//! Concretely, for a chain with `k` buckets per size class and sealing
//! granularity `g` (points per freshest bucket):
//!
//! * inserts cost the underlying summary's insert plus **amortized O(1)**
//!   bucket merges (a merge re-inserts a bucket's ≤ `2r + 1` stored points
//!   into its older neighbour). Each bucket is a fresh summary of its own
//!   points, so a batch that closes several full buckets builds them on
//!   scoped threads, up to the host's available parallelism, when the
//!   kind's bucket is costly enough to pay for a thread; the caller's
//!   thread seals them in stream order with the loop's steps, so the
//!   chain, its snapshot bytes, answers and telemetry do not depend on the
//!   number of workers;
//! * the chain holds `O(k · log(W / g))` buckets for a window covering `W`
//!   points, each an independent [`Mergeable`] summary built by the same
//!   [`SummaryBuilder`] — so every backend, exact through cluster, windows
//!   through one code path;
//! * [`query_window`](WindowedSummary::query_window) merges the live
//!   buckets (oldest → newest) into a collector of the same kind and
//!   reports the hull together with a **composed error bound** (the
//!   largest of the buckets' composed bounds — live bound plus merge
//!   debt — plus the collector's own bound: [`Mergeable`]'s one
//!   composition rule, which the sharded engine's
//!   [`ShardRun`](crate::parallel::ShardRun) applies too) and the staleness
//!   bound: at most `stale_points` points older than the window (reaching
//!   back at most `stale_duration` before it) may have been included.
//!   Raising `k` or lowering `g` tightens staleness at the price of more
//!   buckets;
//! * a query **resumes from a collector checkpoint**: the chain keeps a
//!   copy of the collector at the end of each sealed level run (the
//!   buckets of one size class) a query absorbed. A seal or a carry only
//!   changes the bucket right after such an end, so the next query
//!   re-merges just the buckets from the oldest one sealed or carried
//!   since on, plus the open head; between nearby queries those are the
//!   newest, cheapest buckets. The first query, and the first after the
//!   oldest bucket expires or changes, merges every bucket
//!   (`O(buckets · r)` inserts). The answer is bit-identical to a
//!   cold merge: summaries merge deterministically, and each checkpoint
//!   is keyed by the sequence numbers of the buckets it absorbed, which
//!   change whenever a bucket's summary does. Checkpoints are derived
//!   state like the cached hull: snapshots omit them (a restored chain
//!   starts cold) and `approx_bytes` does not count them.

use crate::builder::SummaryBuilder;
use crate::parallel::fan_out;
use crate::summary::{chain_bound, parallel_bound, GenCache, HullCache, HullSummary, Mergeable};
use crate::telemetry::{names, Counter, Gauge, Telemetry};
use geom::{ConvexPolygon, Point2};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

/// The most buckets a worker builds in one fan-out round, or
/// [`worker_points`]' worth if that is more: a round holds O(workers)
/// built but unsealed summaries, however long the batch.
const ROUND_RUN: usize = 8;

/// The fewest points a worker must build for a fan-out to pay, by bucket
/// kind; `None` for kinds whose buckets are too cheap to leave the
/// caller's thread. A scoped spawn and join costs about 15 µs, and a young
/// 256-point `Drift` bucket of r = 32 about 50 µs adaptive, 220
/// adaptive-2r, 285 cluster, 20 uniform, 15–24 exact, 9 uniform-naive, 9
/// frozen and 6 radial (2-vCPU x86-64 host). Fanned out at 2,048 points a
/// worker, uniform-naive, frozen and radial windows read from 0.65× to
/// 1.17× their inline time in process, from run to run; the other kinds
/// gained at these minimums.
fn worker_points(kind: crate::builder::SummaryKind) -> Option<usize> {
    use crate::builder::SummaryKind;
    match kind {
        SummaryKind::AdaptiveFixedBudget | SummaryKind::Cluster => Some(64),
        SummaryKind::Adaptive => Some(256),
        SummaryKind::Uniform | SummaryKind::Exact => Some(1024),
        SummaryKind::UniformNaive | SummaryKind::Frozen | SummaryKind::Radial => None,
    }
}

/// The chain's registered instruments (all `Copy` no-ops until a
/// [`Telemetry`] handle is attached via
/// [`WindowedSummary::with_telemetry`]).
#[derive(Clone, Copy, Debug)]
struct WindowInstruments {
    seals: Counter,
    merges: Counter,
    expiries: Counter,
    staleness: Gauge,
}

impl WindowInstruments {
    const fn noop() -> Self {
        WindowInstruments {
            seals: Counter::noop(),
            merges: Counter::noop(),
            expiries: Counter::noop(),
            staleness: Gauge::noop(),
        }
    }

    fn register(telemetry: Telemetry) -> Self {
        WindowInstruments {
            seals: telemetry.counter(names::WINDOW_SEALS, &[]),
            merges: telemetry.counter(names::WINDOW_MERGES, &[]),
            expiries: telemetry.counter(names::WINDOW_EXPIRIES, &[]),
            staleness: telemetry.gauge(names::WINDOW_STALENESS, &[]),
        }
    }
}

/// Which trailing part of the stream a window covers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowPolicy {
    /// The last `n` stream points (count-based window).
    LastN(u64),
    /// Every point whose timestamp `t` satisfies `t >= now - dur`, where
    /// `now` is the newest timestamp seen (time-based window). Timestamps
    /// are supplied via [`WindowedSummary::insert_at`] /
    /// [`insert_batch_at`](WindowedSummary::insert_batch_at) and must be
    /// non-decreasing; the plain [`insert`](HullSummary::insert) path
    /// auto-ticks the clock by 1 per point.
    LastDur(f64),
}

/// Configuration of a [`WindowedSummary`]: the window policy plus the two
/// knobs of the exponential-histogram chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowConfig {
    /// The window policy (count- or time-based).
    pub policy: WindowPolicy,
    /// Maximum buckets per size class before the two oldest of that class
    /// merge (the exponential histogram's `k`). Larger `k` means more,
    /// finer buckets: staleness shrinks, memory and query cost grow.
    pub buckets_per_level: usize,
    /// Points gathered into the freshest bucket before it is sealed (the
    /// chain's granularity `g`). Smaller `g` means finer staleness at the
    /// newest end and more frequent seals.
    pub granularity: usize,
}

impl WindowConfig {
    /// A count-based window over the last `n` points (`n >= 1`), with the
    /// default chain shape (`k = 2`, `g = 64`).
    pub fn last_n(n: u64) -> Self {
        assert!(n >= 1, "window must cover at least one point");
        WindowConfig {
            policy: WindowPolicy::LastN(n),
            buckets_per_level: 2,
            granularity: 64,
        }
    }

    /// A time-based window over the last `dur` time units (`dur > 0`),
    /// with the default chain shape (`k = 2`, `g = 64`).
    pub fn last_dur(dur: f64) -> Self {
        assert!(
            dur > 0.0 && dur.is_finite(),
            "window duration must be positive and finite"
        );
        WindowConfig {
            policy: WindowPolicy::LastDur(dur),
            buckets_per_level: 2,
            granularity: 64,
        }
    }

    /// Sets the buckets-per-size-class cap `k` (`>= 1`).
    pub fn with_buckets_per_level(mut self, k: usize) -> Self {
        assert!(k >= 1, "need at least one bucket per level");
        self.buckets_per_level = k;
        self
    }

    /// Sets the sealing granularity `g` (`>= 1` points per fresh bucket).
    pub fn with_granularity(mut self, g: usize) -> Self {
        assert!(g >= 1, "granularity must be at least one point");
        self.granularity = g;
        self
    }
}

/// Panics unless a point stamped `t` may follow a clock at `clock`
/// (`None` before the first point): `t` must be finite and not earlier.
/// The rule every timestamped entry point applies, with one message.
fn check_timestamp(clock: Option<f64>, t: f64) {
    assert!(t.is_finite(), "timestamps must be finite");
    if let Some(clock) = clock {
        assert!(
            t >= clock,
            "timestamps must be non-decreasing (got {t} after {clock})"
        );
    }
}

/// One closed span of the stream: an independent summary of `count`
/// points whose timestamps lie in `[t_first, t_last]`.
#[derive(Debug)]
struct Bucket {
    summary: Box<dyn Mergeable + Send + Sync>,
    /// Names the summary's contents for query checkpoints: fresh from the
    /// chain's counter when the head is created and when a carry grows
    /// the bucket. A sealed bucket's summary changes only at a carry, so
    /// an unchanged number means an unchanged summary.
    seq: u64,
    count: u64,
    t_first: f64,
    t_last: f64,
    /// Exponential-histogram size class: a sealed bucket at level `l`
    /// covers `g · 2^l` points (the open head is level 0 and partial).
    level: u32,
    /// Error-bound debt inherited from buckets merged away into this one:
    /// how far the bucket's points may lie from the hull of the points its
    /// summary ingested. A carry keeps the larger of the survivor's debt
    /// and the absorbed bucket's composed bound (parallel parts), so a
    /// level-`l` bucket owes at most `l` own bounds. `None` once any
    /// absorbed part had no live bound (frozen / cluster backends).
    /// Snapshots of older chains hold a sum here: looser, still sound.
    debt: Option<f64>,
}

/// One full bucket of a fan-out round: its points, and its summary once
/// a worker has built it.
struct Built<'a> {
    points: &'a [Point2],
    summary: Option<Box<dyn Mergeable + Send + Sync>>,
}

impl Bucket {
    /// The bucket's composed bound: inherited debt, then its summary's
    /// live bound (a chain). `None` if either is unavailable.
    fn composed_bound(&self) -> Option<f64> {
        chain_bound([self.debt, self.summary.error_bound()])
    }
}

/// One live sealed bucket a [`WindowedSummary::query_window`] absorbed,
/// saved so the next query can skip re-merging an unchanged prefix.
#[derive(Debug)]
struct Absorbed {
    /// The bucket's sequence number when the query merged it.
    seq: u64,
    /// A copy of the collector right after this bucket, kept when the
    /// bucket ended a level run: a carry at level `l` then leaves every
    /// checkpoint up to the end of level `l + 1` intact.
    checkpoint: Option<Box<dyn Mergeable + Send + Sync>>,
}

/// Aggregate report of one window query: the merged collector summary plus
/// the bookkeeping needed to interpret it honestly.
///
/// The collector's hull covers **every** in-window point the chain has
/// retained and at most [`stale_points`](WindowAnswer::stale_points)
/// points older than the window (none older than
/// [`stale_duration`](WindowAnswer::stale_duration) before the window
/// start) — stale points can only *enlarge* the reported hull, never lose
/// a recent point.
#[derive(Debug)]
#[must_use = "a window answer carries the merged summary and its error/staleness bounds"]
pub struct WindowAnswer {
    /// The collector: a summary of the configured kind that absorbed every
    /// live bucket, oldest to newest. A query builds it from a copy of a
    /// saved checkpoint when one is still valid; it is the answer's own
    /// copy either way, bit-identical to a fresh collector fed every
    /// bucket.
    pub summary: Box<dyn Mergeable + Send + Sync>,
    /// Stream points covered by the merged buckets (in-window points plus
    /// at most [`stale_points`](WindowAnswer::stale_points) stale ones).
    pub merged_points: u64,
    /// Upper bound on merged points that are *older* than the window (the
    /// straddling-bucket slack; `0` means the answer covers exactly the
    /// window).
    pub stale_points: u64,
    /// Upper bound on how far (in time units) before the window start the
    /// merged data may reach. `0` when no bucket straddles the boundary.
    pub stale_duration: f64,
    /// Live buckets merged into the collector.
    pub buckets: usize,
    /// The largest of the merged buckets' composed error bounds (live
    /// bound plus accumulated merge debt); `None` when any bucket's
    /// backend reports no bound. Add the collector's own live bound —
    /// which [`error_bound`](WindowAnswer::error_bound) does — for the
    /// guarantee of the reported hull against the true hull of the
    /// covered points.
    pub bucket_bound_max: Option<f64>,
}

impl WindowAnswer {
    /// The window hull (borrowing the collector's generation-counted
    /// cache).
    pub fn hull(&self) -> &ConvexPolygon {
        self.summary.hull_ref()
    }

    /// The composed error guarantee of [`hull`](WindowAnswer::hull)
    /// against the true convex hull of the covered points: the largest
    /// live bucket's composed bound plus the collector's own live bound.
    /// `None` when the backend reports no bound (frozen, cluster).
    #[must_use]
    pub fn error_bound(&self) -> Option<f64> {
        chain_bound([self.bucket_bound_max, self.summary.error_bound()])
    }

    /// How many *in-window* points the answer covers. Exact for a
    /// [`LastN`](WindowPolicy::LastN) window: `min(n, points seen)`. For a
    /// [`LastDur`](WindowPolicy::LastDur) window a lower bound: it counts
    /// all but the straddling bucket's newest point as stale.
    #[must_use]
    pub fn window_points(&self) -> u64 {
        self.merged_points.saturating_sub(self.stale_points)
    }

    /// `true` when the window covered no points at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.merged_points == 0
    }
}

/// A sliding-window wrapper around any
/// [`SummaryKind`](crate::builder::SummaryKind): ingest a stream once,
/// answer extent/diameter/width queries about only its recent part.
///
/// Construct through [`SummaryBuilder::windowed`]:
///
/// ```
/// use adaptive_hull::window::WindowConfig;
/// use adaptive_hull::{HullSummary, SummaryBuilder, SummaryKind};
/// use geom::Point2;
///
/// let mut w = SummaryBuilder::new(SummaryKind::Adaptive)
///     .with_r(16)
///     .windowed(WindowConfig::last_n(1000).with_granularity(100));
/// for i in 0..5000 {
///     let t = i as f64 * 0.01;
///     w.insert(Point2::new(t.cos() + i as f64 * 0.001, t.sin()));
/// }
/// let ans = w.query_window();
/// assert!(ans.window_points() >= 1000); // covers the whole window
/// assert!(ans.stale_points <= 400);     // ... plus bounded slack
/// assert!(ans.hull().len() >= 3);
/// ```
///
/// `WindowedSummary` also implements [`HullSummary`] itself —
/// [`hull_ref`](HullSummary::hull_ref) is the *window* hull (rebuilt
/// lazily per generation), **not** the whole-stream hull; `points_seen`
/// still counts the whole stream. That makes windowed summaries drop-in
/// sources for the §6 query layer.
#[derive(Debug)]
pub struct WindowedSummary {
    builder: SummaryBuilder,
    config: WindowConfig,
    /// Sealed buckets plus (at the back, when `head_open`) the open head;
    /// oldest at the front, levels non-increasing front to back.
    buckets: VecDeque<Bucket>,
    head_open: bool,
    /// Newest timestamp seen (`-inf` before the first point).
    clock: f64,
    /// Total stream points ever consumed (also the auto-tick source).
    total_seen: u64,
    /// The next bucket sequence number (never reused within a chain).
    next_seq: u64,
    cache: HullCache,
    bound_cache: GenCache<Option<f64>>,
    /// The live sealed buckets the last query absorbed, oldest first,
    /// with its checkpoints: derived state like `cache`, so neither
    /// snapshots nor `approx_bytes` include them.
    absorbed: Mutex<Vec<Absorbed>>,
    /// Reusable buffer for stripping timestamps off `(Point2, f64)`
    /// batches ([`insert_batch_timestamped`](WindowedSummary::insert_batch_timestamped)).
    scratch: Vec<Point2>,
    /// Chain lifecycle instruments (no-ops unless attached).
    instruments: WindowInstruments,
    /// Threads a batch's full buckets may be built on: the host's
    /// available parallelism, read by the first batch that could fan out
    /// (0 until then).
    threads: usize,
}

impl WindowedSummary {
    /// A windowed summary whose buckets (and query collectors) are built
    /// by `builder`.
    pub fn new(builder: SummaryBuilder, config: WindowConfig) -> Self {
        // Re-validate (config may have been built literally).
        match config.policy {
            WindowPolicy::LastN(n) => assert!(n >= 1, "window must cover at least one point"),
            WindowPolicy::LastDur(d) => {
                assert!(d > 0.0 && d.is_finite(), "window duration must be positive")
            }
        }
        assert!(config.buckets_per_level >= 1 && config.granularity >= 1);
        WindowedSummary {
            builder,
            config,
            buckets: VecDeque::new(),
            head_open: false,
            clock: f64::NEG_INFINITY,
            total_seen: 0,
            next_seq: 0,
            cache: HullCache::new(),
            bound_cache: GenCache::new(),
            absorbed: Mutex::default(),
            scratch: Vec::new(),
            instruments: WindowInstruments::noop(),
            threads: 0,
        }
    }

    /// Attaches an observability handle: the chain then counts head
    /// seals, carry merges, and expiries, and publishes the staleness of
    /// the oldest retained bucket (in ticks) as a gauge after every
    /// expiry sweep.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.instruments = WindowInstruments::register(telemetry);
        self
    }

    /// The window configuration.
    #[must_use]
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// The per-bucket summary configuration.
    #[must_use]
    pub fn builder(&self) -> SummaryBuilder {
        self.builder
    }

    /// Live buckets currently in the chain (`O(k · log(W/g))`).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The newest timestamp seen, or `None` before the first point.
    #[must_use]
    pub fn now(&self) -> Option<f64> {
        (self.total_seen > 0).then_some(self.clock)
    }

    /// Feeds one point stamped `t`. Timestamps must be non-decreasing;
    /// panics otherwise (a windowed summary cannot travel back in time).
    ///
    /// A non-finite point is dropped entirely — it is not counted and
    /// does not advance the window clock (see [`HullSummary`] on
    /// non-finite inputs).
    pub fn insert_at(&mut self, p: Point2, t: f64) {
        if !p.is_finite() {
            return;
        }
        self.feed_with(&[p], &|_| t);
        self.expire();
        self.cache.invalidate();
    }

    /// Feeds a batch of points that all arrived at time `t` (one sensor
    /// flush). Observably identical to `for p in pts { insert_at(p, t) }`,
    /// including dropping non-finite points.
    ///
    /// A batch that closes several full buckets may build them on scoped
    /// threads (see the [module docs](self)); they are sealed in stream
    /// order, so the result does not depend on the number of workers.
    pub fn insert_batch_at(&mut self, pts: &[Point2], t: f64) {
        if pts.iter().any(|p| !p.is_finite()) {
            let finite: Vec<Point2> = pts.iter().copied().filter(|p| p.is_finite()).collect();
            self.insert_batch_at(&finite, t);
            return;
        }
        if pts.is_empty() {
            return;
        }
        self.feed_with(pts, &|_| t);
        self.expire();
        self.cache.invalidate();
    }

    /// Feeds a batch of individually timestamped points. Timestamps must
    /// be non-decreasing, both
    /// within the slice and against earlier inserts. Observably identical
    /// to `for (p, t) in pts { insert_at(p, t) }`.
    ///
    /// A batch that closes several full buckets may build them on scoped
    /// threads (see the [module docs](self)); they are sealed in stream
    /// order, so the result does not depend on the number of workers.
    pub fn insert_batch_timestamped(&mut self, pts: &[(Point2, f64)]) {
        if pts.iter().any(|(p, _)| !p.is_finite()) {
            // A dropped point's `insert_at` is a full no-op, so its
            // timestamp never reaches the monotonicity check either.
            let finite: Vec<(Point2, f64)> =
                pts.iter().copied().filter(|(p, _)| p.is_finite()).collect();
            self.insert_batch_timestamped(&finite);
            return;
        }
        if pts.is_empty() {
            return;
        }
        assert!(
            pts.windows(2).all(|w| w[0].1 <= w[1].1),
            "timestamps must be non-decreasing within the batch"
        );
        // Strip the timestamps into the reusable scratch buffer so
        // repeated batches stay allocation-free.
        let mut points = std::mem::take(&mut self.scratch);
        points.clear();
        points.extend(pts.iter().map(|&(p, _)| p));
        self.feed_with(&points, &|i| pts[i].1);
        self.scratch = points;
        self.expire();
        self.cache.invalidate();
    }

    /// Feeds `pts` with consecutive auto-tick timestamps (1 tick per
    /// point), the windowed analogue of
    /// [`insert_batch`](HullSummary::insert_batch).
    fn insert_batch_ticked(&mut self, pts: &[Point2]) {
        if pts.is_empty() {
            return;
        }
        let start = self.next_tick();
        self.feed_with(pts, &|i| start + i as f64);
        self.expire();
        self.cache.invalidate();
    }

    /// The timestamp the auto-tick path assigns to the next point.
    fn next_tick(&self) -> f64 {
        if self.total_seen == 0 {
            0.0
        } else {
            self.clock + 1.0
        }
    }

    /// A bucket sequence number no bucket of this chain has held.
    fn fresh_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Core ingestion: feed `pts`, point `i` stamped `time_of(i)`
    /// (non-decreasing), splitting across head-bucket seals. The chain
    /// produced is a pure function of the point/timestamp sequence —
    /// batch boundaries never show (seals fire at the same counts, with
    /// the same clock, as the per-point loop; see the window proptests).
    /// Once no head is open, the batch's further full buckets may be
    /// built on scoped threads ([`seal_round`](Self::seal_round)) and
    /// sealed exactly as this loop seals them.
    fn feed_with(&mut self, pts: &[Point2], time_of: &dyn Fn(usize) -> f64) {
        check_timestamp(self.now(), time_of(0));
        assert!(
            time_of(pts.len() - 1).is_finite(),
            "timestamps must be finite"
        );
        let g = self.config.granularity as u64;
        let mut rest = pts;
        let mut idx = 0usize; // points of `pts` already consumed
        while !rest.is_empty() {
            if !self.head_open {
                if let Some((workers, buckets)) = self.fan_out_round(rest.len() / g as usize) {
                    let (round, tail) = rest.split_at(buckets * g as usize);
                    self.seal_round(round, idx, workers, time_of);
                    rest = tail;
                    idx += round.len();
                    continue;
                }
                let seq = self.fresh_seq();
                self.buckets.push_back(Bucket {
                    summary: self.builder.build_mergeable(),
                    seq,
                    count: 0,
                    t_first: time_of(idx),
                    t_last: time_of(idx),
                    level: 0,
                    debt: Some(0.0),
                });
                self.head_open = true;
            }
            let head = self.buckets.back_mut().expect("head just ensured");
            let room = (g - head.count) as usize;
            let take = room.min(rest.len());
            let (piece, tail) = rest.split_at(take);
            // Feed through the backend's batched fast path (`piece`
            // borrows the caller's slice, not `self`, so no copy needed).
            head.summary.insert_batch(piece);
            head.count += take as u64;
            head.t_last = time_of(idx + take - 1);
            self.total_seen += take as u64;
            self.clock = head.t_last;
            rest = tail;
            idx += take;
            if head.count == g {
                self.head_open = false;
                self.seal();
            }
        }
    }

    /// Seals the chain's newest bucket, now a closed level-0 bucket, and
    /// restores the exponential-histogram invariant. Expire first so the
    /// carry never merges a bucket the per-point loop would already have
    /// dropped (the expiry-races-batch-boundary case).
    fn seal(&mut self) {
        self.instruments.seals.inc();
        self.expire();
        self.carry();
    }

    /// Whether a batch whose rest holds `full` full buckets builds the
    /// next of them on threads, and if so the round's `(workers,
    /// buckets)`. Each worker gets at least [`worker_points`] points of
    /// the chain's kind, and at most [`ROUND_RUN`] buckets or, if more,
    /// the buckets holding that minimum; the workers are capped by the
    /// host's available parallelism, read once per chain. The rule reads
    /// only the batch and the kind, never the host's load, so a host cuts
    /// a given batch the same way every time (and any cut gives the same
    /// chain).
    fn fan_out_round(&mut self, full: usize) -> Option<(usize, usize)> {
        let min = worker_points(self.builder.kind())?;
        let g = self.config.granularity;
        if full * g < 2 * min {
            return None;
        }
        if self.threads == 0 {
            self.threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        }
        let buckets = full.min(self.threads * ROUND_RUN.max(min.div_ceil(g)));
        let workers = self.threads.min(buckets * g / min);
        (workers > 1).then_some((workers, buckets))
    }

    /// Builds the full buckets of `pts` (points `at..` of the batch) on
    /// `workers` threads and seals them in stream order. A bucket is built
    /// as the loop builds a head it fills in one piece (a fresh summary,
    /// one `insert_batch` of its `g` points) and sealed with the loop's
    /// steps, so the chain is the loop's whatever the number of workers.
    /// The caller's thread builds the first run and seals it before it
    /// joins the others, so its carries overlap their builds.
    fn seal_round(
        &mut self,
        pts: &[Point2],
        at: usize,
        workers: usize,
        time_of: &dyn Fn(usize) -> f64,
    ) {
        let g = self.config.granularity;
        let builder = self.builder;
        let build = |run: &mut [Built<'_>]| {
            for b in run {
                let mut summary = builder.build_mergeable();
                summary.insert_batch(b.points);
                b.summary = Some(summary);
            }
        };
        let mut next = at;
        let mut seal_run = |chain: &mut Self, run: &mut [Built<'_>]| {
            for summary in run.iter_mut().filter_map(|b| b.summary.take()) {
                let seq = chain.fresh_seq();
                chain.clock = time_of(next + g - 1);
                chain.buckets.push_back(Bucket {
                    summary,
                    seq,
                    count: g as u64,
                    t_first: time_of(next),
                    t_last: chain.clock,
                    level: 0,
                    debt: Some(0.0),
                });
                chain.total_seen += g as u64;
                chain.seal();
                next += g;
            }
        };
        let mut round: Vec<Built<'_>> = pts
            .chunks_exact(g)
            .map(|points| Built {
                points,
                summary: None,
            })
            .collect();
        fan_out(
            &mut round,
            workers,
            |_| 1,
            build,
            |run| {
                build(run);
                seal_run(self, run);
            },
        );
        seal_run(self, &mut round);
    }

    /// Restores the invariant "at most `k` sealed buckets per level" by
    /// merging the two oldest buckets of an overfull level (amortized O(1)
    /// merges per insert, the exponential-histogram argument).
    fn carry(&mut self) {
        let k = self.config.buckets_per_level;
        let mut level = 0u32;
        loop {
            let sealed = self.buckets.len() - usize::from(self.head_open);
            // Levels are non-increasing front to back, so buckets of
            // `level` form one contiguous run; find it.
            let mut first = None;
            let mut count = 0usize;
            for (i, b) in self.buckets.iter().take(sealed).enumerate() {
                if b.level == level {
                    if first.is_none() {
                        first = Some(i);
                    }
                    count += 1;
                }
            }
            let Some(first) = first else { break };
            if count <= k {
                break;
            }
            // Merge the second-oldest of the run into the oldest: the
            // older bucket absorbs the newer one's stored sample and
            // inherits its bound debt.
            let absorbed = self.buckets.remove(first + 1).expect("run has >= 2");
            self.instruments.merges.inc();
            let seq = self.fresh_seq();
            let survivor = &mut self.buckets[first];
            let absorbed_bound = absorbed.composed_bound();
            survivor.summary.merge_from(absorbed.summary.as_ref());
            survivor.seq = seq;
            survivor.count += absorbed.count;
            survivor.t_last = absorbed.t_last;
            survivor.level += 1;
            survivor.debt = parallel_bound([survivor.debt, absorbed_bound]);
            level += 1;
        }
    }

    /// Drops buckets that lie entirely outside the window (from the
    /// oldest end; the straddling bucket stays — that is the staleness).
    fn expire(&mut self) {
        match self.config.policy {
            WindowPolicy::LastN(n) => {
                let mut total: u64 = self.buckets.iter().map(|b| b.count).sum();
                while let Some(front) = self.buckets.front() {
                    let is_head = self.head_open && self.buckets.len() == 1;
                    if !is_head && total - front.count >= n {
                        total -= front.count;
                        self.buckets.pop_front();
                        self.instruments.expiries.inc();
                    } else {
                        break;
                    }
                }
            }
            WindowPolicy::LastDur(d) => {
                let start = self.clock - d;
                while let Some(front) = self.buckets.front() {
                    let is_head = self.head_open && self.buckets.len() == 1;
                    if !is_head && front.t_last < start {
                        self.buckets.pop_front();
                        self.instruments.expiries.inc();
                    } else {
                        break;
                    }
                }
            }
        }
        if let Some(front) = self.buckets.front() {
            // How far the chain reaches behind `now`: the retained tail
            // the straddling bucket drags along (the staleness bound's
            // raw material). Saturating f64→i64 cast, so an absurd clock
            // clamps instead of wrapping.
            self.instruments
                .staleness
                .set((self.clock - front.t_first) as i64);
        }
    }

    /// The index of this chain's first live bucket, with the answer's
    /// staleness bounds: how many merged points may be older than the
    /// window, and how far before its start they may reach. Only that
    /// first live bucket can straddle the window boundary.
    fn live_from(&self) -> (usize, u64, f64) {
        match self.config.policy {
            WindowPolicy::LastN(n) => {
                // Expiry keeps the chain minimal, so every bucket is live.
                let total: u64 = self.buckets.iter().map(|b| b.count).sum();
                let stale = total.saturating_sub(n);
                match self.buckets.front() {
                    // The true window start lies inside the front bucket,
                    // whose span bounds the extra time.
                    Some(front) if stale > 0 => (0, stale, front.t_last - front.t_first),
                    _ => (0, 0, 0.0),
                }
            }
            WindowPolicy::LastDur(d) => {
                let start = self.clock - d;
                let first = self.buckets.partition_point(|b| b.t_last < start);
                match self.buckets.get(first).filter(|b| b.t_first < start) {
                    // Straddling: everything but the point at `t_last` may
                    // be stale, reaching back to `t_first`.
                    Some(b) => (first, b.count.saturating_sub(1), start - b.t_first),
                    None => (first, 0, 0.0),
                }
            }
        }
    }

    /// Answers the window query: merges the live buckets, oldest to
    /// newest, into a collector of the configured kind and reports the
    /// hull with its composed error bound and staleness bound.
    ///
    /// The collector starts from a copy of the deepest saved checkpoint
    /// whose buckets are all unchanged. Checkpoints sit at the ends of
    /// level runs (the sealed buckets of one size class), and a seal or a
    /// carry only changes the bucket right after such an end, so a query
    /// re-merges just the buckets from the oldest one sealed or carried
    /// since the previous query on, plus the open head. It then saves a
    /// checkpoint after each sealed level run it merged. The first query,
    /// and the first after the oldest bucket expires or changes, merges
    /// every bucket (`O(buckets · r)`). Either way the answer is
    /// bit-identical to merging every live bucket into a fresh collector.
    /// For repeated between-insert queries
    /// [`hull_ref`](HullSummary::hull_ref) is cheaper still: it caches
    /// per generation.
    pub fn query_window(&self) -> WindowAnswer {
        let (first, stale_points, stale_duration) = self.live_from();
        let sealed = self.buckets.len() - usize::from(self.head_open);
        // Work on the list outside the lock: a panic mid-merge then leaves
        // an empty list behind, and the next query starts cold.
        let mut absorbed =
            std::mem::take(&mut *self.absorbed.lock().unwrap_or_else(PoisonError::into_inner));
        let intact = absorbed
            .iter()
            .zip(self.buckets.range(first..))
            .take_while(|(a, b)| a.seq == b.seq)
            .count();
        let resume = absorbed[..intact]
            .iter()
            .rposition(|a| a.checkpoint.is_some())
            .map_or(0, |i| i + 1);
        absorbed.truncate(resume);
        let mut collector = match absorbed.last().and_then(|a| a.checkpoint.as_ref()) {
            Some(checkpoint) => checkpoint.clone_box(),
            None => self.builder.build_mergeable(),
        };
        for i in first + resume..self.buckets.len() {
            let b = &self.buckets[i];
            collector.merge_from(b.summary.as_ref());
            if i < sealed {
                let ends_run = i + 1 == sealed || self.buckets[i + 1].level != b.level;
                absorbed.push(Absorbed {
                    seq: b.seq,
                    checkpoint: ends_run.then(|| collector.clone_box()),
                });
            }
        }
        *self.absorbed.lock().unwrap_or_else(PoisonError::into_inner) = absorbed;
        let live = self.buckets.range(first..);
        WindowAnswer {
            summary: collector,
            merged_points: live.clone().map(|b| b.count).sum(),
            stale_points,
            stale_duration,
            buckets: live.len(),
            bucket_bound_max: parallel_bound(live.map(Bucket::composed_bound)),
        }
    }

    /// Points currently stored across the chain (the window's memory
    /// footprint in points).
    fn stored_points(&self) -> usize {
        self.buckets.iter().map(|b| b.summary.sample_size()).sum()
    }

    /// Snapshot payload: the builder and window configuration, the chain
    /// clock/accounting, and every bucket — each bucket's summary sealed
    /// with the same envelope codec
    /// ([`Mergeable::encode_snapshot`]), its span metadata
    /// (`count`, `t_first`, `t_last`, level, error debt) preserved so a
    /// restored chain seals, carries, and expires at exactly the same
    /// instants as the original.
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_bytes, put_f64, put_u32, put_u64, put_u8};
        self.builder.snapshot_payload(out);
        match self.config.policy {
            WindowPolicy::LastN(n) => {
                put_u8(out, 0);
                put_u64(out, n);
            }
            WindowPolicy::LastDur(d) => {
                put_u8(out, 1);
                put_f64(out, d);
            }
        }
        put_u64(out, self.config.buckets_per_level as u64);
        put_u64(out, self.config.granularity as u64);
        put_u8(out, self.head_open as u8);
        put_f64(out, self.clock);
        put_u64(out, self.total_seen);
        put_u64(out, self.buckets.len() as u64);
        for b in &self.buckets {
            put_u64(out, b.count);
            put_f64(out, b.t_first);
            put_f64(out, b.t_last);
            put_u32(out, b.level);
            put_u8(out, b.debt.is_some() as u8);
            put_f64(out, b.debt.unwrap_or(0.0));
            put_bytes(out, &b.summary.encode_snapshot());
        }
    }

    /// Inverse of [`WindowedSummary::snapshot_payload`]. Re-validates the
    /// chain invariants the ingestion arithmetic relies on (head fill
    /// below the sealing granularity, finite non-decreasing bucket spans,
    /// non-increasing sealed levels), so restored state can never trip the
    /// feed path's assertions.
    pub(crate) fn from_snapshot_payload(
        reader: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let builder = SummaryBuilder::from_snapshot_payload(reader)?;
        let policy = match reader.u8()? {
            0 => {
                let n = reader.u64()?;
                if n < 1 {
                    return Err(SnapshotError::Malformed("count window must be >= 1"));
                }
                WindowPolicy::LastN(n)
            }
            1 => {
                let d = reader.f64()?;
                if !(d > 0.0 && d.is_finite()) {
                    return Err(SnapshotError::Malformed("duration window must be positive"));
                }
                WindowPolicy::LastDur(d)
            }
            _ => return Err(SnapshotError::Malformed("unknown window policy")),
        };
        let buckets_per_level = reader.u64()? as usize;
        let granularity = reader.u64()? as usize;
        if buckets_per_level < 1 || granularity < 1 {
            return Err(SnapshotError::Malformed("degenerate chain shape"));
        }
        let head_open = reader.u8()? != 0;
        let clock = reader.f64()?;
        let total_seen = reader.u64()?;
        if total_seen > 0 && !clock.is_finite() {
            return Err(SnapshotError::Malformed("non-finite window clock"));
        }
        let bucket_count = reader.count(38)?;
        if head_open && bucket_count == 0 {
            return Err(SnapshotError::Malformed("open head without a bucket"));
        }
        let mut buckets = VecDeque::with_capacity(bucket_count);
        let mut live_total = 0u64;
        for i in 0..bucket_count {
            let count = reader.u64()?;
            let t_first = reader.f64()?;
            let t_last = reader.f64()?;
            let level = reader.u32()?;
            let has_debt = reader.u8()? != 0;
            let debt_value = reader.f64()?;
            let summary = crate::snapshot::restore_mergeable(reader.bytes()?)?;
            if !(t_first.is_finite() && t_last.is_finite() && t_first <= t_last) {
                return Err(SnapshotError::Malformed("invalid bucket time span"));
            }
            // Buckets cover contiguous, chronological spans of the stream
            // and the clock is the newest timestamp seen.
            if let Some(prev) = buckets.back() {
                let prev: &Bucket = prev;
                if t_first < prev.t_last {
                    return Err(SnapshotError::Malformed("bucket spans out of order"));
                }
            }
            if t_last > clock {
                return Err(SnapshotError::Malformed("bucket newer than the clock"));
            }
            let is_head = head_open && i + 1 == bucket_count;
            if is_head {
                if !(1..granularity as u64).contains(&count) {
                    return Err(SnapshotError::Malformed("head fill out of range"));
                }
            } else {
                // A sealed level-l bucket holds exactly g·2^l points (the
                // head seals at g; carries merge equal-size pairs), which
                // also rules out the forged-count overflows the chain
                // arithmetic cannot survive.
                let expected = (granularity as u64)
                    .checked_shl(level)
                    .filter(|&e| e == count);
                if expected.is_none() {
                    return Err(SnapshotError::Malformed("sealed bucket count mismatch"));
                }
            }
            live_total = live_total
                .checked_add(count)
                .filter(|&t| t <= total_seen)
                .ok_or(SnapshotError::Malformed("bucket counts exceed the stream"))?;
            buckets.push_back(Bucket {
                summary,
                seq: i as u64,
                count,
                t_first,
                t_last,
                level,
                debt: has_debt.then_some(debt_value),
            });
        }
        let sealed = buckets.len() - usize::from(head_open);
        for w in buckets.iter().take(sealed).collect::<Vec<_>>().windows(2) {
            if w[0].level < w[1].level {
                return Err(SnapshotError::Malformed("sealed levels must not increase"));
            }
        }
        Ok(WindowedSummary {
            builder,
            config: WindowConfig {
                policy,
                buckets_per_level,
                granularity,
            },
            buckets,
            head_open,
            clock,
            total_seen,
            next_seq: bucket_count as u64,
            cache: HullCache::new(),
            bound_cache: GenCache::new(),
            absorbed: Mutex::default(),
            scratch: Vec::new(),
            instruments: WindowInstruments::noop(),
            threads: 0,
        })
    }
}

impl HullSummary for WindowedSummary {
    /// Auto-tick ingestion: the point is stamped one tick after the
    /// previous one (so `LastN(n)` and `LastDur(n - 0.5)` agree on pure
    /// auto-tick streams).
    fn insert(&mut self, p: Point2) {
        // Guard before `next_tick`: a dropped point must not consume a
        // tick (see `HullSummary` on non-finite inputs).
        if !p.is_finite() {
            return;
        }
        let t = self.next_tick();
        self.insert_at(p, t);
    }

    fn insert_batch(&mut self, points: &[Point2]) {
        if points.iter().any(|p| !p.is_finite()) {
            // Filter before assigning ticks so the surviving points get
            // the same consecutive timestamps the per-point loop would
            // assign (dropped points consume no ticks).
            let finite: Vec<Point2> = points.iter().copied().filter(|p| p.is_finite()).collect();
            self.insert_batch_ticked(&finite);
            return;
        }
        self.insert_batch_ticked(points);
    }

    /// The **window** hull (not the whole-stream hull), lazily rebuilt per
    /// generation from [`query_window`](WindowedSummary::query_window).
    fn hull_ref(&self) -> &ConvexPolygon {
        self.cache
            .get_or_rebuild(|| self.query_window().summary.hull())
    }

    fn hull_generation(&self) -> u64 {
        self.cache.generation()
    }

    fn sample_size(&self) -> usize {
        self.stored_points()
    }

    fn points_seen(&self) -> u64 {
        self.total_seen
    }

    fn name(&self) -> &'static str {
        "windowed"
    }

    /// The composed window bound ([`WindowAnswer::error_bound`]), memoised
    /// per generation.
    fn error_bound(&self) -> Option<f64> {
        self.bound_cache
            .get_or_compute(self.cache.generation(), || {
                self.query_window().error_bound()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SummaryKind;

    #[test]
    fn telemetry_tracks_chain_lifecycle() {
        let tel = Telemetry::new();
        let config = WindowConfig::last_n(64).with_granularity(16);
        let mut w = WindowedSummary::new(SummaryBuilder::new(SummaryKind::Exact), config)
            .with_telemetry(tel);
        for i in 0..256 {
            w.insert(Point2::new(i as f64, (i % 7) as f64));
        }
        let s = tel.scrape();
        // The head seals exactly every `granularity` points.
        assert_eq!(s.counter_total(names::WINDOW_SEALS), 256 / 16);
        assert!(
            s.counter_total(names::WINDOW_EXPIRIES) > 0,
            "old buckets expired"
        );
        let staleness = s.gauge_value(names::WINDOW_STALENESS).unwrap();
        assert!(staleness >= 0, "staleness gauge published");
    }

    fn drifting(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.37;
                Point2::new(t.cos() + i as f64 * 0.01, t.sin())
            })
            .collect()
    }

    fn window(kind: SummaryKind, config: WindowConfig) -> WindowedSummary {
        SummaryBuilder::new(kind).with_r(16).windowed(config)
    }

    #[test]
    fn empty_window_answers_empty() {
        let w = window(SummaryKind::Adaptive, WindowConfig::last_n(10));
        let ans = w.query_window();
        assert!(ans.is_empty());
        assert_eq!(ans.buckets, 0);
        let _ = ans.error_bound(); // must not panic on an empty window
        assert!(w.hull_ref().is_empty());
        assert_eq!(w.bucket_count(), 0);
        assert_eq!(w.now(), None);
    }

    #[test]
    fn single_bucket_window_is_exact() {
        // Fewer points than the granularity: one open head bucket, no
        // staleness, answer covers exactly the window.
        let mut w = window(
            SummaryKind::Exact,
            WindowConfig::last_n(100).with_granularity(128),
        );
        let pts = drifting(50);
        w.insert_batch(&pts);
        assert_eq!(w.bucket_count(), 1);
        let ans = w.query_window();
        assert_eq!(ans.merged_points, 50);
        assert_eq!(ans.stale_points, 0);
        assert_eq!(ans.error_bound(), Some(0.0));
        let truth = ConvexPolygon::hull_of(&pts);
        assert_eq!(ans.hull().vertices(), truth.vertices());
    }

    #[test]
    fn last_n_covers_window_with_bounded_staleness() {
        let g = 32u64;
        let n = 200u64;
        let mut w = window(
            SummaryKind::Exact,
            WindowConfig::last_n(n).with_granularity(g as usize),
        );
        let pts = drifting(2000);
        for &p in &pts {
            w.insert(p);
        }
        let ans = w.query_window();
        // Covers at least the window...
        assert!(ans.window_points() >= n);
        // ...and the chain stays logarithmic.
        assert!(
            w.bucket_count() <= 2 * 8 + 1,
            "{} buckets",
            w.bucket_count()
        );
        // Exact backend: the answer hull contains every in-window point.
        let suffix = &pts[pts.len() - n as usize..];
        for &p in suffix {
            assert!(ans.hull().contains_linear(p), "{p:?} lost from window");
        }
        // Stale points are bounded by the straddling bucket's size.
        let total_merged = ans.merged_points;
        assert_eq!(total_merged - ans.stale_points, n);
    }

    #[test]
    fn expiry_drops_old_buckets() {
        let mut w = window(
            SummaryKind::Uniform,
            WindowConfig::last_n(64).with_granularity(16),
        );
        w.insert_batch(&drifting(10_000));
        // The chain must not grow with the stream: it is bounded by the
        // window, not the stream length.
        assert!(w.bucket_count() <= 12, "{} buckets", w.bucket_count());
        assert_eq!(w.points_seen(), 10_000);
        assert!(w.sample_size() <= 12 * 33);
    }

    #[test]
    fn last_dur_expires_by_time() {
        let mut w = window(
            SummaryKind::Exact,
            WindowConfig::last_dur(10.0).with_granularity(4),
        );
        // Two phases 100 time units apart: the old phase must vanish.
        for i in 0..40 {
            w.insert_at(Point2::new(100.0 + i as f64, 0.0), i as f64 * 0.1);
        }
        for i in 0..40 {
            w.insert_at(Point2::new(-(i as f64), 5.0), 100.0 + i as f64 * 0.1);
        }
        let ans = w.query_window();
        let hull = ans.hull();
        // No first-phase point (x >= 100) can survive in the window hull.
        assert!(
            hull.vertices().iter().all(|v| v.x < 100.0),
            "stale phase leaked: {:?}",
            hull.vertices()
        );
        assert_eq!(ans.merged_points, 40);
    }

    #[test]
    fn batch_equals_loop_across_seal_and_expiry_boundaries() {
        let pts = drifting(777);
        for &kind in &[SummaryKind::Exact, SummaryKind::Adaptive] {
            let config = WindowConfig::last_n(100).with_granularity(32);
            let mut looped = window(kind, config);
            for &p in &pts {
                looped.insert(p);
            }
            let mut batched = window(kind, config);
            for chunk in pts.chunks(53) {
                batched.insert_batch(chunk);
            }
            assert_eq!(looped.points_seen(), batched.points_seen(), "{kind}");
            assert_eq!(looped.bucket_count(), batched.bucket_count(), "{kind}");
            assert_eq!(
                looped.hull_ref().vertices(),
                batched.hull_ref().vertices(),
                "{kind}"
            );
            let (a, b) = (looped.query_window(), batched.query_window());
            assert_eq!(a.merged_points, b.merged_points, "{kind}");
            assert_eq!(a.stale_points, b.stale_points, "{kind}");
            assert_eq!(a.error_bound(), b.error_bound(), "{kind}");
        }
    }

    #[test]
    fn every_kind_windows() {
        for &kind in &SummaryKind::ALL {
            let mut w = window(kind, WindowConfig::last_n(128).with_granularity(32));
            w.insert_batch(&drifting(1000));
            let ans = w.query_window();
            assert!(ans.window_points() >= 128, "{kind}");
            assert!(ans.hull().len() >= 3, "{kind}");
            assert_eq!(w.name(), "windowed");
            // Bound availability mirrors the backend's: frozen and
            // cluster have no live guarantee, every other kind does.
            let expects_bound = !matches!(kind, SummaryKind::Frozen | SummaryKind::Cluster);
            assert_eq!(ans.error_bound().is_some(), expects_bound, "{kind}");
        }
    }

    #[test]
    fn carry_debt_grows_linearly_in_the_level() {
        // A periodic stream whose period is the granularity gives every
        // bucket, fresh or merged, the same extrema and so the same own
        // bound `b`. Merged buckets are parallel parts, so a level-l
        // bucket owes `l · b` (each carry adds the absorbed bucket's own
        // bound to a debt it shares with the survivor); summing them would
        // owe `(2^l - 1) · b`, and dropping the absorbed bound would owe 0.
        let g = 64;
        let period: Vec<Point2> = (0..g)
            .map(|i| {
                let t = i as f64 * core::f64::consts::TAU / g as f64 + 0.1;
                Point2::new(8.0 * t.cos(), t.sin())
            })
            .collect();
        let mut w = SummaryBuilder::new(SummaryKind::Uniform)
            .with_r(8)
            .windowed(
                WindowConfig::last_n(1 << 20)
                    .with_granularity(g)
                    .with_buckets_per_level(1),
            );
        for _ in 0..64 {
            w.insert_batch(&period);
        }
        let b = w.buckets[0].summary.error_bound().unwrap();
        assert!(b > 0.0);
        let mut deepest = 0;
        for bucket in &w.buckets {
            assert_eq!(bucket.summary.error_bound(), Some(b), "same extrema");
            let debt = bucket.debt.unwrap();
            let level = f64::from(bucket.level);
            assert!(
                (debt - level * b).abs() <= 1e-12 * level * b,
                "level {}: debt {debt}, not {level} own bounds of {b}",
                bucket.level
            );
            deepest = deepest.max(bucket.level);
        }
        assert!(deepest >= 5, "the chain must carry deep: level {deepest}");
    }

    #[test]
    fn fan_out_matches_inline_for_any_worker_count() {
        // One batch closing 63 full adaptive buckets after topping up an
        // open head, in a window shorter than the batch so expiries and
        // carries fire inside it: the chain's bytes must not depend on
        // how many workers build its buckets (one builds them inline).
        use crate::snapshot::Snapshot;
        let pts = drifting(64 * 64 + 17);
        let config = WindowConfig::last_n(1_000).with_granularity(64);
        let mut chains = Vec::new();
        for threads in [1, 2, 3, 5] {
            let mut w = window(SummaryKind::Adaptive, config);
            w.threads = threads;
            w.insert_batch(&pts[..40]);
            let full = (pts.len() - 64) / 64;
            let workers = w.fan_out_round(full).map(|(workers, _)| workers);
            assert_eq!(workers, (threads > 1).then_some(threads), "{threads}");
            w.insert_batch(&pts[40..]);
            assert_eq!(w.points_seen(), pts.len() as u64);
            chains.push(w.encode());
        }
        assert!(chains.windows(2).all(|c| c[0] == c[1]));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_timestamps_panic() {
        let mut w = window(SummaryKind::Exact, WindowConfig::last_dur(5.0));
        w.insert_at(Point2::new(0.0, 0.0), 10.0);
        w.insert_at(Point2::new(1.0, 0.0), 9.0);
    }
}
