//! The [`HullSummary`] trait family: the common, **object-safe** interface
//! of every single-pass convex-hull summary in this crate (exact, uniform,
//! adaptive, radial, frozen, cluster). Experiment harnesses, the §6 query
//! layer, and the [`SummaryBuilder`](crate::builder::SummaryBuilder) are
//! all written against `dyn HullSummary`.
//!
//! Three pieces:
//!
//! * [`HullSummary`] — the object-safe core: feed points (singly or in
//!   batches), borrow the current hull without cloning ([`hull_ref`]
//!   backed by a generation-counted [`HullCache`]), and introspect size,
//!   throughput, and the live error guarantee ([`error_bound`]);
//! * [`Mergeable`] — the capability of absorbing another summary of the
//!   same logical stream, which is what makes sharded / distributed
//!   ingestion work: shard per gateway, merge at the collector;
//! * [`HullSummaryExt`] — `Sized`-free conveniences (whole-stream feeding
//!   via [`extend_from`]) blanket-implemented for every summary, including
//!   `dyn HullSummary` itself.
//!
//! [`hull_ref`]: HullSummary::hull_ref
//! [`error_bound`]: HullSummary::error_bound
//! [`extend_from`]: HullSummaryExt::extend_from

use core::fmt::Debug;
use geom::{ConvexPolygon, Point2};
use std::sync::{Mutex, OnceLock};

/// Typed rejection returned by [`HullSummary::try_insert`] and
/// [`HullSummary::try_insert_batch`] when an input coordinate is NaN or
/// infinite. The summary is guaranteed untouched: nothing was counted,
/// stored, or invalidated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NonFiniteInput {
    /// Index of the offending point within the rejected input (always 0
    /// for [`HullSummary::try_insert`]).
    pub index: usize,
    /// The offending point, verbatim.
    pub point: Point2,
}

impl core::fmt::Display for NonFiniteInput {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "non-finite input point ({}, {}) at index {}",
            self.point.x, self.point.y, self.index
        )
    }
}

impl std::error::Error for NonFiniteInput {}

/// A single-pass summary of a 2-D point stream that can report (an
/// approximation of) the convex hull of everything it has seen.
///
/// The trait is **object-safe**: every summary kind can be constructed at
/// runtime as a `Box<dyn HullSummary>` (see
/// [`SummaryBuilder`](crate::builder::SummaryBuilder)) and driven through
/// one code path. Iterator-based conveniences live in [`HullSummaryExt`].
///
/// # Non-finite inputs
///
/// A point with a NaN or infinite coordinate has no place on a convex
/// hull: one NaN absorbed into a comparison chain can silently corrupt
/// every later answer. Every summary therefore enforces a single policy:
///
/// * the infallible paths ([`insert`](HullSummary::insert),
///   [`insert_batch`](HullSummary::insert_batch)) **silently drop**
///   non-finite points — they are not stored and not counted in
///   [`points_seen`](HullSummary::points_seen), and the finite points
///   around them are processed normally;
/// * the checked paths ([`try_insert`](HullSummary::try_insert),
///   [`try_insert_batch`](HullSummary::try_insert_batch)) validate the
///   whole input *up front* and reject it with a typed [`NonFiniteInput`]
///   error without mutating anything.
///
/// Both properties are pinned for every backend — loop, batch, windowed,
/// and sharded — by `tests/nan_injection.rs`.
pub trait HullSummary: Debug {
    /// Feeds one stream point into the summary. Non-finite points are
    /// silently dropped (see the trait docs); use
    /// [`try_insert`](HullSummary::try_insert) for a typed rejection.
    fn insert(&mut self, p: Point2);

    /// Feeds a batch of stream points.
    ///
    /// **Contract**: observably identical to inserting each point in order
    /// with [`insert`](HullSummary::insert) — same `points_seen`, same
    /// stored sample, bit-identical [`hull_ref`](HullSummary::hull_ref)
    /// vertices, same [`sample_size`](HullSummary::sample_size) and
    /// [`error_bound`](HullSummary::error_bound). The only permitted
    /// difference is the raw [`hull_generation`](HullSummary::hull_generation)
    /// count: a batch may coalesce its cache invalidations into one
    /// (generation still advances whenever the hull may have changed, and
    /// never advances when it cannot have).
    ///
    /// Every summary in this crate overrides the default per-point loop
    /// with a fast path that amortises per-point work across the chunk
    /// (see `batch.rs` for the soundness arguments):
    ///
    /// * the point-location and chain summaries (`uniform`, `adaptive`,
    ///   `adaptive-2r`, `exact`) and small-fan direction scanners
    ///   (`uniform-naive`, `frozen`) discard provably interior points via
    ///   an **interior certificate** — the inscribed circle of the current
    ///   hull, rebuilt only when the hull changes — turning the per-point
    ///   `O(log r)` point location / `O(r)` scan into two multiplies for
    ///   the common interior case;
    /// * the direction scanners with large fans reduce the chunk by a
    ///   monotone-chain pre-hull — only points on the chunk hull's
    ///   boundary can beat any direction, so the rest are discarded with
    ///   zero per-direction scans;
    /// * every cached-hull summary (including `radial` and `cluster`)
    ///   coalesces its [`HullCache`] invalidations into at most one per
    ///   batch.
    ///
    /// The batch/loop equivalence is property-tested for every
    /// [`SummaryKind`](crate::builder::SummaryKind) in
    /// `tests/proptest_summaries.rs`.
    fn insert_batch(&mut self, points: &[Point2]) {
        for &p in points {
            self.insert(p);
        }
    }

    /// Checked insert: rejects a non-finite point with a typed error and
    /// leaves the summary untouched; otherwise exactly
    /// [`insert`](HullSummary::insert).
    fn try_insert(&mut self, p: Point2) -> Result<(), NonFiniteInput> {
        if !p.is_finite() {
            return Err(NonFiniteInput { index: 0, point: p });
        }
        self.insert(p);
        Ok(())
    }

    /// Checked batch insert: validates the whole slice **before** touching
    /// the summary, so a rejected batch mutates nothing (no partial
    /// ingestion); otherwise exactly
    /// [`insert_batch`](HullSummary::insert_batch).
    fn try_insert_batch(&mut self, points: &[Point2]) -> Result<(), NonFiniteInput> {
        if let Some((index, &point)) = points.iter().enumerate().find(|(_, p)| !p.is_finite()) {
            return Err(NonFiniteInput { index, point });
        }
        self.insert_batch(points);
        Ok(())
    }

    /// Borrows the current (approximate) convex hull. For approximate
    /// summaries the polygon's vertices are actual input points, so the
    /// polygon is always *contained in* the true convex hull.
    ///
    /// Implementations back this with a generation-counted cache
    /// ([`HullCache`]): repeated queries between insertions return the same
    /// polygon without rebuilding or cloning anything.
    fn hull_ref(&self) -> &ConvexPolygon;

    /// The current hull by value (clones the cached polygon). Prefer
    /// [`hull_ref`](HullSummary::hull_ref) on query paths.
    fn hull(&self) -> ConvexPolygon {
        self.hull_ref().clone()
    }

    /// Monotone counter that advances whenever the summarised hull may have
    /// changed. Callers caching derived query results (diameter, width, …)
    /// can skip recomputation while the generation is unchanged.
    fn hull_generation(&self) -> u64;

    /// Number of points currently stored by the summary (the paper's
    /// "sample size"; at most `2r + 1` for the adaptive scheme).
    fn sample_size(&self) -> usize;

    /// Total number of stream points consumed so far.
    fn points_seen(&self) -> u64;

    /// Short human-readable name for tables and benchmark labels.
    fn name(&self) -> &'static str;

    /// The summary's **live** error guarantee, when it has one: an upper
    /// bound on the directed Hausdorff distance from the true convex hull
    /// of everything seen to [`hull_ref`](HullSummary::hull_ref), computed
    /// from the summary's current state.
    ///
    /// * adaptive: the smaller of `16πP/r²` (Corollary 5.2, `P` the live
    ///   perimeter) and its uniform substrate's certificate below — the
    ///   substrate sees every point and its extrema are sample points;
    /// * uniform / fixed-budget: the largest current uncertainty-triangle
    ///   height (`O(D/r)`, Lemma 3.2; fixed-budget reads its substrate's);
    /// * radial: `R·sin(2π/r)` with `R` the farthest stored point;
    /// * exact: `0`; frozen / cluster: `None` (no guarantee — that is the
    ///   frozen scheme's entire cautionary point).
    fn error_bound(&self) -> Option<f64> {
        None
    }

    /// Approximate heap footprint of the summary in bytes — the accounting
    /// currency of the multi-tenant layer ([`crate::tenant`]): per-tenant
    /// quotas and the global memory budget are enforced against this
    /// number, so it must be *conservative and cheap*, not
    /// allocator-exact.
    ///
    /// The default charges a fixed struct overhead plus a per-stored-point
    /// rate covering the sample itself and the cached-hull / certificate
    /// slack around it. Backends with structure the sample size does not
    /// reflect (fixed direction fans, sector tables) override it — and
    /// backends whose tables are *shared* across streams (see
    /// [`crate::tenant::TenantEngine`]) stop charging per stream for them.
    fn approx_bytes(&self) -> usize {
        96 + self.sample_size() * 48
    }
}

/// `Sized`-free conveniences over [`HullSummary`], blanket-implemented for
/// every summary *including* `dyn HullSummary` — so whole-stream feeding
/// works through `&mut dyn HullSummary` (the v1 trait's `extend_from`
/// carried a `Self: Sized` bound that made trait-object pipelines
/// impossible).
pub trait HullSummaryExt: HullSummary {
    /// Feeds a whole stream.
    fn extend_from<I: IntoIterator<Item = Point2>>(&mut self, it: I) {
        for p in it {
            self.insert(p);
        }
    }
}

impl<S: HullSummary + ?Sized> HullSummaryExt for S {}

impl<S: HullSummary + ?Sized> HullSummary for Box<S> {
    fn insert(&mut self, p: Point2) {
        (**self).insert(p)
    }
    fn insert_batch(&mut self, points: &[Point2]) {
        (**self).insert_batch(points)
    }
    fn try_insert(&mut self, p: Point2) -> Result<(), NonFiniteInput> {
        (**self).try_insert(p)
    }
    fn try_insert_batch(&mut self, points: &[Point2]) -> Result<(), NonFiniteInput> {
        (**self).try_insert_batch(points)
    }
    fn hull_ref(&self) -> &ConvexPolygon {
        (**self).hull_ref()
    }
    fn hull(&self) -> ConvexPolygon {
        (**self).hull()
    }
    fn hull_generation(&self) -> u64 {
        (**self).hull_generation()
    }
    fn sample_size(&self) -> usize {
        (**self).sample_size()
    }
    fn points_seen(&self) -> u64 {
        (**self).points_seen()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn error_bound(&self) -> Option<f64> {
        (**self).error_bound()
    }
    fn approx_bytes(&self) -> usize {
        (**self).approx_bytes()
    }
}

/// The capability of absorbing another summary built over a *different*
/// part of the same logical stream — distributed aggregation: each shard
/// (sensor gateway, partition worker) keeps its own summary and a
/// collector merges them.
///
/// Merging re-inserts the other summary's stored sample points — each an
/// actual stream point — and carries over the seen-count of the points the
/// other summary consumed but did not store.
///
/// # Composing error bounds
///
/// One rule composes the bounds of summaries built from one another, and
/// every composition site in this crate applies it through this module's
/// two helpers, `parallel_bound` and `chain_bound`:
///
/// * **parallel parts compose by max.** Each part summarised side by side
///   (a shard, a window bucket, a backfilled run) keeps its points within
///   its own bound of the hull of its sample, and the collector ingests
///   every part's sample. Distance to a convex set is a convex function,
///   so every point of the union's hull lies within the *largest* part
///   bound of the hull of all the samples. A bound measured directly
///   against the merged hull (the points a degraded run lost) is one more
///   such part;
/// * **a chain of stages adds.** A collector that re-summarises samples,
///   or a degrade round trip, moves the hull once more by its own bound,
///   so the merged hull's error is the parts' max plus the collector's
///   own bound;
/// * **a part without a bound makes the whole `None`**: a guarantee is
///   widened, never invented.
pub trait Mergeable: HullSummary {
    /// The stored sample points (every one an actual input point).
    fn sample_points(&self) -> Vec<Point2>;

    /// Adds to the seen-points counter without inserting geometry (the
    /// absorbed points were already counted by the other summary).
    fn absorb_seen(&mut self, n: u64);

    /// Serialises the summary with the versioned snapshot codec
    /// ([`crate::snapshot`]): a self-describing envelope any process can
    /// later restore with
    /// [`SummaryBuilder::restore`](crate::builder::SummaryBuilder::restore).
    /// Persistence is part of the distributed-aggregation story this trait
    /// exists for — a shard that can merge but not checkpoint is stuck in
    /// one process.
    fn encode_snapshot(&self) -> Vec<u8>;

    /// A deep copy behind a fresh box: the same snapshot bytes, hull,
    /// bound, generation and `approx_bytes`, and no mutable state shared
    /// with `self` (only immutable direction tables), so the two evolve
    /// independently and fed the same points stay equal. Summaries merge
    /// deterministically, so a copy of a collector that absorbed some
    /// buckets can stand in for re-merging them:
    /// [`query_window`](crate::window::WindowedSummary::query_window)
    /// resumes from such checkpoints.
    fn clone_box(&self) -> Box<dyn Mergeable + Send + Sync>;

    /// Absorbs `other` into `self`. Works across summary kinds: any
    /// mergeable summary can ingest any other's sample.
    fn merge_from(&mut self, other: &dyn Mergeable) {
        let pts = other.sample_points();
        let carried = other.points_seen().saturating_sub(pts.len() as u64);
        self.insert_batch(&pts);
        self.absorb_seen(carried);
    }
}

/// The error bound of parts summarised side by side (see
/// [`Mergeable`]'s composition rule): the largest part bound, `Some(0.0)`
/// for no parts, and `None` if any part has none.
pub(crate) fn parallel_bound(parts: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    parts
        .into_iter()
        .try_fold(0.0, |acc: f64, b| b.map(|b| acc.max(b)))
}

/// The error bound of stages applied one after another (see
/// [`Mergeable`]'s composition rule): the sum of the stage bounds, and
/// `None` if any stage has none.
pub(crate) fn chain_bound(stages: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    stages
        .into_iter()
        .try_fold(0.0, |acc, b| b.map(|b| acc + b))
}

impl<S: Mergeable + ?Sized> Mergeable for Box<S> {
    fn sample_points(&self) -> Vec<Point2> {
        (**self).sample_points()
    }
    fn absorb_seen(&mut self, n: u64) {
        (**self).absorb_seen(n)
    }
    fn encode_snapshot(&self) -> Vec<u8> {
        (**self).encode_snapshot()
    }
    fn clone_box(&self) -> Box<dyn Mergeable + Send + Sync> {
        (**self).clone_box()
    }
    fn merge_from(&mut self, other: &dyn Mergeable) {
        (**self).merge_from(other)
    }
}

/// A generation-counted lazily rebuilt hull: the storage behind
/// [`HullSummary::hull_ref`].
///
/// Summaries call [`invalidate`](HullCache::invalidate) from `insert` when
/// the sample actually changed, and [`get_or_rebuild`](HullCache::get_or_rebuild)
/// from `hull_ref`; between mutations every query hits the cached polygon.
/// The cache is `Sync` (interior mutability via [`OnceLock`]), so summaries
/// stay shareable across threads for the sharded-ingestion story.
#[derive(Debug, Default)]
pub struct HullCache {
    generation: u64,
    slot: OnceLock<ConvexPolygon>,
}

impl Clone for HullCache {
    fn clone(&self) -> Self {
        let slot = OnceLock::new();
        if let Some(hull) = self.slot.get() {
            let _ = slot.set(hull.clone());
        }
        HullCache {
            generation: self.generation,
            slot,
        }
    }
}

impl HullCache {
    /// An empty cache at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached hull and advances the generation. Call on every
    /// mutation that may change the summarised hull.
    pub fn invalidate(&mut self) {
        self.generation += 1;
        if self.slot.get().is_some() {
            self.slot = OnceLock::new();
        }
    }

    /// Number of invalidations so far (the cache's generation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Returns the cached hull, rebuilding it with `build` if a mutation
    /// invalidated it (or it was never built).
    pub fn get_or_rebuild(&self, build: impl FnOnce() -> ConvexPolygon) -> &ConvexPolygon {
        self.slot.get_or_init(build)
    }

    /// The cached hull, if currently materialised.
    pub fn cached(&self) -> Option<&ConvexPolygon> {
        self.slot.get()
    }
}

/// A tiny generation-keyed value cache for derived query results
/// (`sample_size`, `error_bound`, …) computed from `&self`.
///
/// Summaries answer those queries by a pass over their whole sample — a
/// sort and dedup for `sample_size`, one uncertainty triangle per
/// candidate edge for `error_bound`. `GenCache` memoises the answer keyed
/// by the hull generation: while the generation is unchanged the cached
/// value is returned, and the first query after a mutation recomputes
/// once.
///
/// Interior mutability is a `Mutex` so summaries stay `Send + Sync` (the
/// sharded-ingestion story); the lock is uncontended and held only for the
/// copy/compute, which is far cheaper than the recomputation it avoids.
#[derive(Debug, Default)]
pub struct GenCache<T> {
    slot: Mutex<Option<(u64, T)>>,
}

impl<T: Copy> GenCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        GenCache {
            slot: Mutex::new(None),
        }
    }

    /// Returns the value cached for `generation`, computing and storing it
    /// with `compute` on a generation mismatch (or first use).
    pub fn get_or_compute(&self, generation: u64, compute: impl FnOnce() -> T) -> T {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((g, v)) = *slot {
            if g == generation {
                return v;
            }
        }
        let v = compute();
        *slot = Some((generation, v));
        v
    }
}

impl<T: Copy> Clone for GenCache<T> {
    fn clone(&self) -> Self {
        GenCache {
            slot: Mutex::new(*self.slot.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_compose_by_max_in_parallel_and_add_along_a_chain() {
        assert_eq!(parallel_bound([Some(1.0), Some(3.0), Some(2.0)]), Some(3.0));
        assert_eq!(chain_bound([Some(1.0), Some(3.0), Some(2.0)]), Some(6.0));
        assert_eq!(parallel_bound([]), Some(0.0));
        assert_eq!(chain_bound([]), Some(0.0));
        assert_eq!(parallel_bound([Some(1.0), None, Some(2.0)]), None);
        assert_eq!(chain_bound([Some(1.0), None]), None);
        // A collector over parts: the parts' max, then its own stage.
        let parts = parallel_bound([Some(0.5), Some(0.25)]);
        assert_eq!(chain_bound([parts, Some(0.125)]), Some(0.625));
    }

    #[test]
    fn gen_cache_recomputes_only_on_generation_change() {
        use core::cell::Cell;
        let cache = GenCache::new();
        let computes = Cell::new(0u32);
        let compute = || {
            computes.set(computes.get() + 1);
            computes.get() as usize * 10
        };
        assert_eq!(cache.get_or_compute(0, compute), 10);
        assert_eq!(cache.get_or_compute(0, compute), 10, "cached");
        assert_eq!(computes.get(), 1);
        assert_eq!(cache.get_or_compute(1, compute), 20, "new generation");
        assert_eq!(computes.get(), 2);
        let clone = cache.clone();
        assert_eq!(clone.get_or_compute(1, compute), 20, "clone keeps value");
        assert_eq!(computes.get(), 2);
    }

    #[test]
    fn cache_rebuilds_once_per_generation() {
        use core::cell::Cell;
        let mut cache = HullCache::new();
        let builds = Cell::new(0u32);
        let build = || {
            builds.set(builds.get() + 1);
            ConvexPolygon::hull_of(&[Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)])
        };
        assert_eq!(cache.generation(), 0);
        assert!(cache.cached().is_none());
        let a = cache.get_or_rebuild(build) as *const ConvexPolygon;
        let b = cache.get_or_rebuild(build) as *const ConvexPolygon;
        assert_eq!(a, b, "second query must not rebuild");
        assert_eq!(builds.get(), 1);
        cache.invalidate();
        assert_eq!(cache.generation(), 1);
        assert!(cache.cached().is_none());
        let _ = cache.get_or_rebuild(build);
        assert_eq!(builds.get(), 2);
    }

    #[test]
    fn cache_clone_carries_value_and_generation() {
        let mut cache = HullCache::new();
        cache.invalidate();
        let _ = cache.get_or_rebuild(|| ConvexPolygon::hull_of(&[Point2::new(2.0, 3.0)]));
        let clone = cache.clone();
        assert_eq!(clone.generation(), 1);
        assert_eq!(clone.cached().unwrap().len(), 1);
    }

    #[test]
    fn extend_from_through_trait_object() {
        use crate::exact::ExactHull;
        let mut concrete = ExactHull::new();
        let summary: &mut dyn HullSummary = &mut concrete;
        summary.extend_from((0..10).map(|i| Point2::new(i as f64, (i * i) as f64)));
        assert_eq!(summary.points_seen(), 10);
        assert!(summary.hull_ref().len() >= 3);
    }

    #[test]
    fn insert_batch_matches_insert_loop() {
        use crate::exact::ExactHull;
        let pts: Vec<Point2> = (0..50)
            .map(|i| {
                let t = i as f64 * 0.37;
                Point2::new(t.cos() * 3.0, t.sin() * 2.0)
            })
            .collect();
        let mut one = ExactHull::new();
        for &p in &pts {
            one.insert(p);
        }
        let mut batch: Box<dyn HullSummary> = Box::new(ExactHull::new());
        batch.insert_batch(&pts);
        assert_eq!(one.points_seen(), batch.points_seen());
        assert_eq!(one.hull_ref().vertices(), batch.hull_ref().vertices());
    }
}
