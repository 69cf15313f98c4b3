//! The query **serving layer**: dashboard-grade analytics over a
//! [`TenantEngine`] fleet, with error intervals and a generation-keyed
//! cache.
//!
//! The per-hull functions in [`crate::queries`] answer one question about
//! one polygon. A serving deployment asks the same handful of questions
//! about thousands of streams, over and over, between sparse ingestion
//! bursts. [`QueryEngine`] closes that gap:
//!
//! * **Per-stream analytics** — [`width`](QueryEngine::width),
//!   [`diameter`](QueryEngine::diameter) (with its farthest pair) and
//!   [`extent`](QueryEngine::extent) run rotating calipers directly on the
//!   summary's cached [`hull_ref`](crate::HullSummary::hull_ref), and every
//!   answer is an [`Estimate`] carrying an **error interval** derived from
//!   the summary's [`error_bound`](crate::HullSummary::error_bound) (plus
//!   any bound carried over from an overload degradation).
//! * **Cross-stream analytics** —
//!   [`top_k_extent`](QueryEngine::top_k_extent) scans the fleet with a
//!   bounding-box-pruned heap, and
//!   [`separation_join`](QueryEngine::separation_join) finds all stream
//!   pairs within a distance threshold, discharging most pairs by
//!   bbox/incircle certificates before any exact polygon distance.
//! * **Generation-keyed caching** — answers are memoised under the key
//!   `(StreamId, hull generation, query kind, quantized direction)`, where
//!   "hull generation" is the tenant's full validation token
//!   ([`TenantEngine::query_token`]: restore epoch + generation counter).
//!   The generation already advances on every hull-affecting mutation, so
//!   ingestion invalidates the cache *for free*: a stale entry simply
//!   stops matching. A repeated dashboard query on a quiet stream is one
//!   hash lookup.
//!
//! # Error-interval semantics
//!
//! Each summary's hull is built from *actual stream points*, so it is
//! contained in the true hull; diameter, width, and directional extent are
//! monotone under containment, which makes the approximate value a **lower
//! bound** on the truth. The summary's error bound `eps` bounds the
//! directed Hausdorff distance from the true hull to the sample hull, so
//! the truth can exceed the answer by at most `2·eps`. Hence every
//! [`Estimate`] satisfies `lo = value ≤ truth ≤ value + 2·eps = hi`
//! (`hi = ∞` when the backend withdraws its bound, e.g. a quarantined or
//! merged-frozen stream).
//!
//! # Cache invalidation contract
//!
//! A cached answer is served only while the stream's validation token —
//! its [`TenantEngine`] epoch paired with its
//! [`hull_generation`](crate::HullSummary::hull_generation) — equals the
//! token the answer was computed at. Any mutation that may change the
//! hull advances the generation, and any replacement of the summary
//! object (spill/restore round trips, degradation, re-admission — where
//! the generation counter is allowed to restart) advances the epoch, so
//! the serving layer never needs an explicit invalidation call — and a
//! cache hit is **bit-identical** to recomputing from the live summary
//! (directions are quantized *before* both the lookup and the
//! computation, so there is exactly one canonical answer per key).
//!
//! ```
//! use adaptive_hull::queries::serving::QueryEngine;
//! use adaptive_hull::tenant::{StreamId, TenantConfig, TenantEngine};
//! use adaptive_hull::{SummaryBuilder, SummaryKind};
//! use geom::Point2;
//!
//! let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16));
//! let mut q = QueryEngine::new(TenantEngine::new(config));
//! let id = StreamId(7);
//! q.tenants_mut()
//!     .insert_batch(id, &[Point2::new(0.0, 0.0), Point2::new(3.0, 4.0)])
//!     .unwrap();
//!
//! let cold = q.diameter(id).unwrap().unwrap(); // computes, fills the cache
//! let warm = q.diameter(id).unwrap().unwrap(); // one hash lookup
//! assert_eq!(cold, warm, "cache hits are bit-identical");
//! assert_eq!(q.cache_stats().hits, 1);
//!
//! // Ingestion bumps the hull generation: the stale entry stops matching.
//! q.tenants_mut().insert(id, Point2::new(10.0, 0.0)).unwrap();
//! let fresh = q.diameter(id).unwrap().unwrap();
//! assert!(fresh.estimate.value > warm.estimate.value);
//! ```

use std::collections::HashMap;
use std::time::Instant;

use geom::dyadic::fan_unit;
use geom::{calipers, distance, locate, ConvexPolygon, Point2, Vec2};

use crate::batch::incircle;
use crate::fxhash::FxBuild;
use crate::telemetry::{names, Counter, Histogram, Scrape, Telemetry};
use crate::tenant::{AdmissionError, StreamId, TenantEngine};

/// Number of quantized direction buckets per full turn (see [`QDir`]).
pub const DIR_BUCKETS: u16 = 4096;

/// A direction quantized to one of [`DIR_BUCKETS`] angle buckets.
///
/// Directional queries are answered for the *quantized* direction — a
/// resolution of `2π/4096 ≈ 0.0015 rad` — so that a direction is a small
/// hashable cache-key component and a cached answer is bit-identical to a
/// fresh computation for the same bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QDir(u16);

impl QDir {
    /// Quantizes `dir` to its angle bucket. `None` when `dir` is
    /// non-finite or too short to define a direction.
    pub fn quantize(dir: Vec2) -> Option<QDir> {
        if !dir.is_finite() || geom::predicates::degenerate_norm(dir.norm()) {
            return None;
        }
        let frac = dir.y.atan2(dir.x) / core::f64::consts::TAU;
        let idx = (frac * f64::from(DIR_BUCKETS)).round() as i64;
        Some(QDir(idx.rem_euclid(i64::from(DIR_BUCKETS)) as u16))
    }

    /// The canonical unit vector of this bucket. Queries are computed
    /// along this exact vector.
    pub fn unit(self) -> Vec2 {
        fan_unit(u64::from(self.0), u64::from(DIR_BUCKETS))
    }

    /// The bucket index, in `0..DIR_BUCKETS`.
    pub fn bucket(self) -> u16 {
        self.0
    }
}

/// An analytic answer together with its error interval.
///
/// `lo ≤ truth ≤ hi`, where `truth` is the value the query would return on
/// the exact hull of *every* point the stream has seen. For the monotone
/// extent-style queries served here `lo == value` (the sample hull sits
/// inside the true hull) and `hi == value + 2·eps` from the summary's live
/// error bound; `hi == ∞` when the backend withdraws its bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// The answer computed on the summary hull.
    pub value: f64,
    /// Lower end of the error interval (equals `value` for extent-style
    /// queries).
    pub lo: f64,
    /// Upper end of the error interval; `f64::INFINITY` when the summary
    /// reports no bound.
    pub hi: f64,
}

impl Estimate {
    fn from_bound(value: f64, eps: Option<f64>) -> Estimate {
        let hi = match eps {
            Some(e) if e.is_finite() && e >= 0.0 => value + 2.0 * e,
            _ => f64::INFINITY,
        };
        Estimate {
            value,
            lo: value,
            hi,
        }
    }

    /// `true` iff `truth` lies inside the closed interval `[lo, hi]`.
    pub fn contains(&self, truth: f64) -> bool {
        self.lo <= truth && truth <= self.hi
    }

    /// Width of the interval (`hi - lo`; infinite when unbounded).
    pub fn slack(&self) -> f64 {
        self.hi - self.lo
    }
}

/// A farthest-pair answer: the two attaining sample points and the
/// estimated distance between them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairAnswer {
    /// One attaining sample point.
    pub a: Point2,
    /// The other attaining sample point.
    pub b: Point2,
    /// Their distance, with the diameter error interval.
    pub estimate: Estimate,
}

/// Why a per-stream query failed.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The tenant layer refused access to the stream (unknown, quarantined,
    /// over budget, …).
    Admission(AdmissionError),
    /// The supplied direction was non-finite or too short to normalize.
    DegenerateDirection,
    /// The supplied distance threshold was NaN or negative.
    InvalidThreshold,
}

impl From<AdmissionError> for QueryError {
    fn from(e: AdmissionError) -> Self {
        QueryError::Admission(e)
    }
}

impl core::fmt::Display for QueryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueryError::Admission(e) => write!(f, "admission: {e}"),
            QueryError::DegenerateDirection => {
                write!(f, "direction is non-finite or degenerate")
            }
            QueryError::InvalidThreshold => {
                write!(f, "distance threshold must be finite and non-negative")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Cache hit/miss accounting for a [`QueryEngine`]: the one record of
/// its cache outcomes, which [`export_to`](Self::export_to) writes into a
/// scrape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[must_use]
pub struct QueryCacheStats {
    /// Answers served straight from the generation-keyed cache.
    pub hits: u64,
    /// Answers computed on the summary hull (and then cached).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl QueryCacheStats {
    /// Writes the `streamhull_query_cache_*` series into `scrape`, summed
    /// into samples already there.
    pub fn export_to(&self, scrape: &mut Scrape) {
        scrape.add_counter(names::QUERY_CACHE_HITS, &[], self.hits);
        scrape.add_counter(names::QUERY_CACHE_MISSES, &[], self.misses);
    }
}

/// One ranked stream in a [`TopKAnswer`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TopKEntry {
    /// The stream.
    pub id: StreamId,
    /// Its directional extent along the quantized query direction.
    pub estimate: Estimate,
}

/// Result of a [`QueryEngine::top_k_extent`] fleet scan.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKAnswer {
    /// The `k` (or fewer) largest streams by extent, descending; ties
    /// broken by ascending [`StreamId`] for determinism.
    pub entries: Vec<TopKEntry>,
    /// Streams examined.
    pub scanned: u64,
    /// Streams discharged by the bbox upper bound without an exact extent
    /// computation.
    pub pruned: u64,
    /// Streams skipped because the tenant layer refused access (e.g.
    /// quarantined).
    pub skipped: u64,
}

/// How a [`JoinPair`]'s distance was established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinCertificate {
    /// The streams' inscribed circles overlap, so the hulls intersect and
    /// the distance is exactly zero — no polygon distance was computed.
    IncircleOverlap,
    /// Exact polygon-to-polygon distance.
    Exact,
}

/// One qualifying pair from a [`QueryEngine::separation_join`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JoinPair {
    /// Lower stream id of the pair.
    pub a: StreamId,
    /// Higher stream id of the pair.
    pub b: StreamId,
    /// Distance between the two summary hulls (0 when they intersect).
    pub distance: f64,
    /// How the distance was established.
    pub certificate: JoinCertificate,
}

/// Result of a [`QueryEngine::separation_join`] over all stream pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinAnswer {
    /// All pairs within the threshold, ordered by `(a, b)`.
    pub pairs: Vec<JoinPair>,
    /// Pairs examined (`s·(s-1)/2` over accessible streams).
    pub scanned_pairs: u64,
    /// Pairs discharged because the bbox gap (a lower bound on the hull
    /// distance) already exceeds the threshold.
    pub bbox_rejects: u64,
    /// Pairs accepted by the inscribed-circle overlap certificate.
    pub incircle_accepts: u64,
    /// Pairs that needed an exact polygon distance.
    pub exact_tests: u64,
    /// Streams skipped because the tenant layer refused access.
    pub skipped: u64,
}

/// Query kinds, used as cache-key components and telemetry labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum KindKey {
    Width,
    Diameter,
    Extent(QDir),
    BBox,
    Incircle,
}

impl KindKey {
    fn label_index(self) -> usize {
        match self {
            KindKey::Width => 0,
            KindKey::Diameter => 1,
            KindKey::Extent(_) => 2,
            KindKey::BBox => 3,
            KindKey::Incircle => 4,
        }
    }
}

const KIND_LABELS: [&str; 5] = ["width", "diameter", "extent", "bbox", "incircle"];

#[derive(Clone, Copy, Debug, PartialEq)]
enum CachedValue {
    Width(Estimate),
    Diameter(Option<PairAnswer>),
    Extent(Estimate),
    BBox(Option<(Point2, Point2)>),
    Incircle(Option<(Point2, f64)>),
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    /// [`TenantEngine::query_token`] at fill time: `(epoch, generation)`.
    token: (u64, u64),
    value: CachedValue,
}

struct Instruments {
    answers: [Counter; 5],
    latency_ns: Histogram,
    topk_scanned: Counter,
    topk_pruned: Counter,
    join_bbox_rejects: Counter,
    join_incircle_accepts: Counter,
    join_exact: Counter,
}

impl Instruments {
    fn bind(tel: &Telemetry) -> Instruments {
        let answer = |kind: &str| tel.counter(names::QUERY_ANSWERS, &[("kind", kind)]);
        Instruments {
            answers: [
                answer(KIND_LABELS[0]),
                answer(KIND_LABELS[1]),
                answer(KIND_LABELS[2]),
                answer(KIND_LABELS[3]),
                answer(KIND_LABELS[4]),
            ],
            latency_ns: tel.histogram(names::QUERY_LATENCY_NS, &[]),
            topk_scanned: tel.counter(names::QUERY_TOPK_SCANNED, &[]),
            topk_pruned: tel.counter(names::QUERY_TOPK_PRUNED, &[]),
            join_bbox_rejects: tel.counter(names::QUERY_JOIN_PAIRS, &[("outcome", "bbox_reject")]),
            join_incircle_accepts: tel
                .counter(names::QUERY_JOIN_PAIRS, &[("outcome", "incircle_accept")]),
            join_exact: tel.counter(names::QUERY_JOIN_PAIRS, &[("outcome", "exact")]),
        }
    }
}

/// The serving layer: cached, error-bounded analytics over a
/// [`TenantEngine`] fleet. See the [module docs](self) for the full
/// contract and an example.
pub struct QueryEngine {
    tenants: TenantEngine,
    cache: HashMap<(StreamId, KindKey), Slot, FxBuild>,
    hits: u64,
    misses: u64,
    tel: Instruments,
}

impl QueryEngine {
    /// Wraps `tenants`, inheriting its [`Telemetry`] handle for the
    /// answer, top-k and join counters and the latency histogram. Cache
    /// hits and misses are kept in [`cache_stats`](Self::cache_stats).
    pub fn new(tenants: TenantEngine) -> QueryEngine {
        let tel = Instruments::bind(&tenants.config().telemetry());
        QueryEngine {
            tenants,
            cache: HashMap::default(),
            hits: 0,
            misses: 0,
            tel,
        }
    }

    /// The governed fleet underneath.
    pub fn tenants(&self) -> &TenantEngine {
        &self.tenants
    }

    /// Mutable access for ingestion. Safe to interleave freely with
    /// queries: every hull-affecting mutation advances that stream's
    /// generation, which is part of the cache key.
    pub fn tenants_mut(&mut self) -> &mut TenantEngine {
        &mut self.tenants
    }

    /// Cache accounting since construction (or the last
    /// [`flush_cache`](QueryEngine::flush_cache) does not reset counts).
    pub fn cache_stats(&self) -> QueryCacheStats {
        QueryCacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.cache.len(),
        }
    }

    /// Drops every cached answer, returning how many entries were
    /// resident. Queries after a flush recompute from the live summaries —
    /// by construction they return bit-identical answers.
    pub fn flush_cache(&mut self) -> usize {
        let n = self.cache.len();
        self.cache.clear();
        n
    }

    /// Serves `kind` for `id` from the cache, or computes it with
    /// `compute` on the stream's current hull and caches it under the
    /// stream's current generation.
    fn serve(
        &mut self,
        id: StreamId,
        kind: KindKey,
        compute: impl FnOnce(&ConvexPolygon, Option<f64>) -> CachedValue,
    ) -> Result<CachedValue, QueryError> {
        let timer = self.tel.latency_ns.enabled().then(Instant::now);
        // The hit path reads only the stream's validation token (an index
        // lookup). A miss pays the error bound and the hull, each a linear
        // pass over the summary's sample on a new generation (for the
        // adaptive backends, the certificate's prefiltered pass over the
        // substrate's runs and a walk of the refinement tree).
        let token = self.tenants.query_token(id)?;
        let key = (id, kind);
        let value = match self.cache.get(&key) {
            Some(slot) if slot.token == token => {
                self.hits += 1;
                slot.value
            }
            _ => {
                // `error_bound` composes the backend's own live bound with
                // any bound carried over from an overload degradation —
                // the honest number for the interval.
                let eps = self.tenants.error_bound(id)?;
                let summary = self.tenants.summary(id)?;
                let value = compute(summary.hull_ref(), eps);
                self.misses += 1;
                self.cache.insert(key, Slot { token, value });
                value
            }
        };
        // Counted only once served: a refused query adds nothing, and the
        // answers sum to hits + misses.
        self.tel.answers[kind.label_index()].inc();
        if let Some(t) = timer {
            self.tel.latency_ns.record(t.elapsed().as_nanos() as u64);
        }
        Ok(value)
    }

    /// Width of the summarised stream (minimum distance between enclosing
    /// parallel lines), with its error interval. Degenerate streams
    /// (empty, point, collinear) have width exactly `0.0`. Cached; `O(r)`
    /// cold, `O(1)` warm.
    pub fn width(&mut self, id: StreamId) -> Result<Estimate, QueryError> {
        match self.serve(id, KindKey::Width, |hull, eps| {
            CachedValue::Width(Estimate::from_bound(calipers::width(hull), eps))
        })? {
            CachedValue::Width(e) => Ok(e),
            _ => Err(QueryError::Admission(AdmissionError::UnknownStream {
                stream: id,
            })),
        }
    }

    /// Diameter of the summarised stream with its error interval and the
    /// two sample points realising it (the rotating calipers antipodal
    /// pair), or `None` when the stream has no points. Cached; `O(r)`
    /// cold.
    pub fn diameter(&mut self, id: StreamId) -> Result<Option<PairAnswer>, QueryError> {
        match self.serve(id, KindKey::Diameter, |hull, eps| {
            CachedValue::Diameter(calipers::diameter(hull).map(|(a, b, d)| PairAnswer {
                a,
                b,
                estimate: Estimate::from_bound(d, eps),
            }))
        })? {
            CachedValue::Diameter(p) => Ok(p),
            _ => Err(QueryError::Admission(AdmissionError::UnknownStream {
                stream: id,
            })),
        }
    }

    /// Directional extent of the stream along `dir`, with its error
    /// interval. The direction is quantized to a [`QDir`] bucket first;
    /// the answer is exact for the bucket's canonical unit vector. Cached
    /// per bucket; `O(log r)` cold, `O(1)` warm.
    pub fn extent(&mut self, id: StreamId, dir: Vec2) -> Result<Estimate, QueryError> {
        let q = QDir::quantize(dir).ok_or(QueryError::DegenerateDirection)?;
        self.extent_q(id, q)
    }

    /// [`extent`](QueryEngine::extent) for an already-quantized direction.
    pub fn extent_q(&mut self, id: StreamId, q: QDir) -> Result<Estimate, QueryError> {
        let unit = q.unit();
        match self.serve(id, KindKey::Extent(q), |hull, eps| {
            CachedValue::Extent(Estimate::from_bound(
                locate::directional_extent(hull, unit),
                eps,
            ))
        })? {
            CachedValue::Extent(e) => Ok(e),
            _ => Err(QueryError::Admission(AdmissionError::UnknownStream {
                stream: id,
            })),
        }
    }

    /// Axis-aligned bounding box of the summarised stream, or `None` when
    /// empty. Each side can undershoot the true stream's box by at most
    /// the stream's error bound. Cached; also the pruning certificate for
    /// the fleet scans.
    pub fn bounding_box(&mut self, id: StreamId) -> Result<Option<(Point2, Point2)>, QueryError> {
        match self.serve(id, KindKey::BBox, |hull, _| {
            CachedValue::BBox(calipers::bounding_box(hull))
        })? {
            CachedValue::BBox(b) => Ok(b),
            _ => Err(QueryError::Admission(AdmissionError::UnknownStream {
                stream: id,
            })),
        }
    }

    fn incircle_of(&mut self, id: StreamId) -> Result<Option<(Point2, f64)>, QueryError> {
        match self.serve(id, KindKey::Incircle, |hull, _| {
            CachedValue::Incircle(incircle(hull))
        })? {
            CachedValue::Incircle(c) => Ok(c),
            _ => Err(QueryError::Admission(AdmissionError::UnknownStream {
                stream: id,
            })),
        }
    }

    /// The `k` streams with the largest directional extent along `dir`
    /// (quantized to a [`QDir`] bucket).
    ///
    /// The scan first computes every stream's bbox **upper bound** on the
    /// extent (one cached-bbox lookup each), visits candidates in
    /// descending bound order with a running top-`k` heap, and stops the
    /// moment the next bound cannot beat the current `k`-th value — every
    /// remaining stream is discharged without an exact extent computation.
    /// The pruning never changes the answer, only the work. Inaccessible
    /// streams (quarantined, …) are skipped and counted. Ties at the
    /// `k`-th place are broken by ascending stream id.
    pub fn top_k_extent(&mut self, dir: Vec2, k: usize) -> Result<TopKAnswer, QueryError> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let q = QDir::quantize(dir).ok_or(QueryError::DegenerateDirection)?;
        let unit = q.unit();
        let mut ids: Vec<StreamId> = self.tenants.ids().collect();
        ids.sort_unstable();
        let mut answer = TopKAnswer {
            entries: Vec::new(),
            scanned: 0,
            pruned: 0,
            skipped: 0,
        };
        if k == 0 {
            return Ok(answer);
        }
        // Pass 1: bbox upper bounds. Extent along `unit` of anything
        // inside a box is at most the box's own extent along `unit`; an
        // empty stream has extent 0 and bound 0.
        let mut candidates: Vec<(f64, StreamId)> = Vec::with_capacity(ids.len());
        for id in ids {
            answer.scanned += 1;
            match self.bounding_box(id) {
                Ok(Some((lo, hi))) => {
                    let ub = unit.x.abs() * (hi.x - lo.x) + unit.y.abs() * (hi.y - lo.y);
                    candidates.push((ub, id));
                }
                Ok(None) => candidates.push((0.0, id)),
                Err(_) => answer.skipped += 1,
            }
        }
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        // Pass 2: exact extents in descending bound order. Min-heap of the
        // current top-k, keyed by (value, id) with total_cmp — ordering is
        // total, deterministic, and NaN-free (extents of finite hulls are
        // finite).
        let mut heap: BinaryHeap<Reverse<HeapEntry>> = BinaryHeap::with_capacity(k + 1);
        for (rank, &(ub, id)) in candidates.iter().enumerate() {
            if heap.len() == k {
                if let Some(Reverse(worst)) = heap.peek() {
                    if ub < worst.value {
                        // Bounds only shrink from here: everything left is
                        // discharged at once.
                        answer.pruned += (candidates.len() - rank) as u64;
                        break;
                    }
                }
            }
            match self.extent_q(id, q) {
                Ok(estimate) => {
                    heap.push(Reverse(HeapEntry {
                        value: estimate.value,
                        id,
                        estimate,
                    }));
                    if heap.len() > k {
                        heap.pop();
                    }
                }
                Err(_) => answer.skipped += 1,
            }
        }
        self.tel.topk_scanned.add(answer.scanned);
        self.tel.topk_pruned.add(answer.pruned);
        let mut ranked: Vec<HeapEntry> = heap.into_iter().map(|Reverse(e)| e).collect();
        ranked.sort_by(|a, b| b.value.total_cmp(&a.value).then_with(|| a.id.cmp(&b.id)));
        answer.entries = ranked
            .into_iter()
            .map(|e| TopKEntry {
                id: e.id,
                estimate: e.estimate,
            })
            .collect();
        Ok(answer)
    }

    /// All stream pairs whose summary hulls are within `max_distance` of
    /// each other, with the distance and the certificate that established
    /// it.
    ///
    /// Certificates discharge pairs before any exact `O(r·s)` polygon
    /// distance: the bbox gap is a lower bound on the hull distance
    /// (reject when it already exceeds the threshold), and overlapping
    /// inscribed circles prove intersection (accept at distance zero).
    /// Neither certificate can drop a qualifying pair. Pairs are reported
    /// with `a < b`, ordered lexicographically.
    pub fn separation_join(&mut self, max_distance: f64) -> Result<JoinAnswer, QueryError> {
        if !max_distance.is_finite() || max_distance < 0.0 {
            return Err(QueryError::InvalidThreshold);
        }
        let mut ids: Vec<StreamId> = self.tenants.ids().collect();
        ids.sort_unstable();
        let mut answer = JoinAnswer {
            pairs: Vec::new(),
            scanned_pairs: 0,
            bbox_rejects: 0,
            incircle_accepts: 0,
            exact_tests: 0,
            skipped: 0,
        };
        // Phase 1: per-stream certificates (cached across generations).
        struct Cert {
            id: StreamId,
            bbox: Option<(Point2, Point2)>,
            incircle: Option<(Point2, f64)>,
        }
        let mut certs: Vec<Cert> = Vec::with_capacity(ids.len());
        for id in ids {
            let bbox = match self.bounding_box(id) {
                Ok(b) => b,
                Err(_) => {
                    answer.skipped += 1;
                    continue;
                }
            };
            let incircle = self.incircle_of(id).unwrap_or(None);
            certs.push(Cert { id, bbox, incircle });
        }
        // Phase 2: certificate pass over pairs; collect survivors.
        let mut survivors: Vec<(StreamId, StreamId)> = Vec::new();
        for i in 0..certs.len() {
            for j in (i + 1)..certs.len() {
                answer.scanned_pairs += 1;
                let (ca, cb) = (&certs[i], &certs[j]);
                let (Some(ba), Some(bb)) = (ca.bbox, cb.bbox) else {
                    // An empty stream is infinitely far from everything.
                    answer.bbox_rejects += 1;
                    continue;
                };
                let gap = bbox_gap(ba, bb);
                if gap > max_distance {
                    answer.bbox_rejects += 1;
                    continue;
                }
                if let (Some((c1, r1sq)), Some((c2, r2sq))) = (ca.incircle, cb.incircle) {
                    if c1.distance(c2) <= r1sq.sqrt() + r2sq.sqrt() {
                        answer.incircle_accepts += 1;
                        answer.pairs.push(JoinPair {
                            a: ca.id,
                            b: cb.id,
                            distance: 0.0,
                            certificate: JoinCertificate::IncircleOverlap,
                        });
                        continue;
                    }
                }
                survivors.push((ca.id, cb.id));
            }
        }
        // Phase 3: exact polygon distance only for the survivors.
        let mut hulls: HashMap<StreamId, ConvexPolygon> = HashMap::new();
        for &(a, b) in &survivors {
            for id in [a, b] {
                if let std::collections::hash_map::Entry::Vacant(slot) = hulls.entry(id) {
                    if let Ok(h) = self.tenants.hull(id) {
                        slot.insert(h);
                    }
                }
            }
        }
        for (a, b) in survivors {
            let (Some(ha), Some(hb)) = (hulls.get(&a), hulls.get(&b)) else {
                answer.skipped += 1;
                continue;
            };
            answer.exact_tests += 1;
            let d = distance::min_distance(ha, hb);
            if d <= max_distance {
                answer.pairs.push(JoinPair {
                    a,
                    b,
                    distance: d,
                    certificate: JoinCertificate::Exact,
                });
            }
        }
        answer.pairs.sort_by_key(|p| (p.a, p.b));
        self.tel.join_bbox_rejects.add(answer.bbox_rejects);
        self.tel.join_incircle_accepts.add(answer.incircle_accepts);
        self.tel.join_exact.add(answer.exact_tests);
        Ok(answer)
    }
}

#[derive(Clone, Copy, Debug)]
struct HeapEntry {
    value: f64,
    id: StreamId,
    estimate: Estimate,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.value.total_cmp(&other.value).is_eq() && self.id == other.id
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Larger value = better; on ties the *smaller* id wins, so it must
        // rank higher (and survive the min-heap pop) — hence the reverse
        // id comparison.
        self.value
            .total_cmp(&other.value)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Distance between two axis-aligned boxes (0 when they touch or
/// overlap) — a lower bound on the distance between anything inside them.
fn bbox_gap(a: (Point2, Point2), b: (Point2, Point2)) -> f64 {
    let dx = (b.0.x - a.1.x).max(a.0.x - b.1.x).max(0.0);
    let dy = (b.0.y - a.1.y).max(a.0.y - b.1.y).max(0.0);
    (dx * dx + dy * dy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SummaryBuilder, SummaryKind};
    use crate::tenant::TenantConfig;

    fn engine(kind: SummaryKind) -> QueryEngine {
        QueryEngine::new(TenantEngine::new(TenantConfig::new(
            SummaryBuilder::new(kind).with_r(16),
        )))
    }

    fn ring(cx: f64, cy: f64, radius: f64, n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = core::f64::consts::TAU * i as f64 / n as f64;
                Point2::new(cx + radius * t.cos(), cy + radius * t.sin())
            })
            .collect()
    }

    #[test]
    fn qdir_round_trips_and_rejects_degenerate() {
        let q = QDir::quantize(Vec2::new(1.0, 1.0)).unwrap();
        assert_eq!(q.bucket(), DIR_BUCKETS / 8);
        assert!((q.unit().norm() - 1.0).abs() < 1e-12);
        assert!(QDir::quantize(Vec2::new(0.0, 0.0)).is_none());
        assert!(QDir::quantize(Vec2::new(f64::NAN, 1.0)).is_none());
        // Quantizing a bucket's own unit vector is a fixed point.
        for b in [0u16, 1, 17, 1024, 4095] {
            let q = QDir(b);
            assert_eq!(QDir::quantize(q.unit()), Some(q), "bucket {b}");
        }
    }

    #[test]
    fn cached_answers_are_bit_identical_and_invalidate_on_ingest() {
        let mut q = engine(SummaryKind::Adaptive);
        let id = StreamId(3);
        q.tenants_mut()
            .insert_batch(id, &ring(0.0, 0.0, 2.0, 64))
            .unwrap();

        let cold = q.width(id).unwrap();
        let stats = q.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let warm = q.width(id).unwrap();
        assert_eq!(cold.value.to_bits(), warm.value.to_bits());
        assert_eq!(cold.hi.to_bits(), warm.hi.to_bits());
        assert_eq!(q.cache_stats().hits, 1);

        // A hull-changing insert must invalidate.
        q.tenants_mut().insert(id, Point2::new(10.0, 0.0)).unwrap();
        let fresh = q.width(id).unwrap();
        assert_eq!(q.cache_stats().misses, 2);
        // Flush + recompute is bit-identical to the generation-keyed miss.
        q.flush_cache();
        let reference = q.width(id).unwrap();
        assert_eq!(fresh.value.to_bits(), reference.value.to_bits());
    }

    #[test]
    fn spill_restore_cannot_alias_a_stale_cache_entry() {
        let mut q = engine(SummaryKind::Adaptive);
        let id = StreamId(9);
        q.tenants_mut()
            .insert_batch(id, &ring(0.0, 0.0, 1.0, 32))
            .unwrap();
        let before = q.width(id).unwrap();
        assert_eq!(q.cache_stats().misses, 1);
        // A spill/restore round trip replaces the summary object, and the
        // snapshot contract allows its generation counter to restart — so
        // only the epoch half of the validation token keeps the old slot
        // from aliasing a later state at a coincidentally equal counter.
        assert!(q.tenants_mut().spill(id));
        q.tenants_mut().insert(id, Point2::new(50.0, 0.0)).unwrap();
        let after = q.width(id).unwrap();
        assert_eq!(
            q.cache_stats().misses,
            2,
            "post-restore query must miss, never alias the stale slot"
        );
        assert!(after.value >= before.value, "hull only grows on insert");
    }

    #[test]
    fn intervals_bracket_the_exact_stream_truth() {
        let mut q = engine(SummaryKind::Adaptive);
        let id = StreamId(1);
        let pts = ring(0.0, 0.0, 3.0, 500);
        q.tenants_mut().insert_batch(id, &pts).unwrap();
        // The exact-stream truth, from the full hull of every point.
        let truth = ConvexPolygon::hull_of(&pts);
        let true_d = calipers::diameter(&truth).unwrap().2;
        let true_w = calipers::width(&truth);
        let d = q.diameter(id).unwrap().unwrap();
        assert!(d.estimate.lo <= d.estimate.value);
        assert!(d.estimate.hi >= d.estimate.value);
        assert!(
            d.estimate.contains(true_d),
            "diameter {true_d} in {:?}",
            d.estimate
        );
        let w = q.width(id).unwrap();
        assert!(w.contains(true_w), "width {true_w} in {w:?}");
        let e = q.extent(id, Vec2::new(1.0, 0.0)).unwrap();
        let qd = QDir::quantize(Vec2::new(1.0, 0.0)).unwrap();
        let true_e = locate::directional_extent(&truth, qd.unit());
        assert!(e.contains(true_e), "x-extent {true_e} in {e:?}");
    }

    #[test]
    fn empty_and_missing_streams() {
        let mut q = engine(SummaryKind::Adaptive);
        // Unknown stream: typed error, no panic.
        assert!(matches!(
            q.width(StreamId(404)),
            Err(QueryError::Admission(_))
        ));
        // Stream with no hull yet (registered via empty batch).
        let id = StreamId(5);
        q.tenants_mut().insert_batch(id, &[]).unwrap();
        assert_eq!(q.diameter(id).unwrap(), None);
        assert_eq!(q.bounding_box(id).unwrap(), None);
        let w = q.width(id).unwrap();
        assert_eq!(w.value.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn degenerate_direction_is_a_typed_error() {
        let mut q = engine(SummaryKind::Adaptive);
        let id = StreamId(1);
        q.tenants_mut().insert(id, Point2::new(1.0, 1.0)).unwrap();
        assert_eq!(
            q.extent(id, Vec2::new(0.0, 0.0)),
            Err(QueryError::DegenerateDirection)
        );
        assert_eq!(
            q.top_k_extent(Vec2::new(f64::INFINITY, 0.0), 3),
            Err(QueryError::DegenerateDirection)
        );
        assert_eq!(
            q.separation_join(f64::NAN),
            Err(QueryError::InvalidThreshold)
        );
        assert_eq!(q.separation_join(-1.0), Err(QueryError::InvalidThreshold));
    }

    #[test]
    fn top_k_matches_unpruned_scan() {
        for kind in SummaryKind::ALL {
            let mut q = engine(kind);
            // 40 rings of growing radius along the x axis.
            for i in 0..40u64 {
                let r = 0.5 + i as f64 * 0.1;
                q.tenants_mut()
                    .insert_batch(StreamId(i), &ring(i as f64 * 10.0, 0.0, r, 48))
                    .unwrap();
            }
            let dir = Vec2::new(0.3, 1.0);
            let top = q.top_k_extent(dir, 5).unwrap();
            assert_eq!(top.entries.len(), 5, "{kind}");
            assert_eq!(top.scanned, 40, "{kind}: the bbox pass visits every stream");
            assert!(top.pruned <= top.scanned, "{kind}: {top:?}");
            // Reference: rank by exact per-stream extent.
            let qd = QDir::quantize(dir).unwrap();
            let mut all: Vec<(StreamId, f64)> = (0..40u64)
                .map(|i| {
                    let id = StreamId(i);
                    (id, q.extent_q(id, qd).unwrap().value)
                })
                .collect();
            all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (entry, expect) in top.entries.iter().zip(&all) {
                assert_eq!(entry.id, expect.0, "{kind}");
                assert_eq!(entry.estimate.value.to_bits(), expect.1.to_bits(), "{kind}");
            }
            // Largest radii win: streams 39, 38, ...
            assert_eq!(top.entries[0].id, StreamId(39), "{kind}");
            // The scan must have pruned something on this workload once warm.
            let again = q.top_k_extent(dir, 5).unwrap();
            assert_eq!(again.entries, top.entries, "{kind}");
            assert!(
                0 < again.pruned && again.pruned <= again.scanned,
                "{kind}: bbox pruning engaged: {again:?}"
            );
        }
    }

    #[test]
    fn separation_join_finds_exactly_the_close_pairs() {
        let mut q = engine(SummaryKind::Exact);
        // Three clusters: 0 and 1 overlap, 2 is 1 apart from 1, 3 is far.
        q.tenants_mut()
            .insert_batch(StreamId(0), &ring(0.0, 0.0, 1.0, 32))
            .unwrap();
        q.tenants_mut()
            .insert_batch(StreamId(1), &ring(1.0, 0.0, 1.0, 32))
            .unwrap();
        q.tenants_mut()
            .insert_batch(StreamId(2), &ring(4.0, 0.0, 1.0, 32))
            .unwrap();
        q.tenants_mut()
            .insert_batch(StreamId(3), &ring(100.0, 0.0, 1.0, 32))
            .unwrap();
        let join = q.separation_join(1.5).unwrap();
        let pairs: Vec<(StreamId, StreamId)> = join.pairs.iter().map(|p| (p.a, p.b)).collect();
        assert_eq!(
            pairs,
            vec![(StreamId(0), StreamId(1)), (StreamId(1), StreamId(2)),]
        );
        assert_eq!(join.scanned_pairs, 6);
        assert!(join.bbox_rejects >= 2, "far pairs discharged by bbox");
        // The overlapping pair is certified without exact distance.
        let overlap = &join.pairs[0];
        assert_eq!(overlap.certificate, JoinCertificate::IncircleOverlap);
        assert_eq!(overlap.distance.to_bits(), 0.0f64.to_bits());
        // The 1-apart pair needed the exact test: gap = 4 - 1 - 1 - 1 = 1.
        let near = &join.pairs[1];
        assert_eq!(near.certificate, JoinCertificate::Exact);
        assert!((near.distance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn telemetry_counts_queries_and_cache_outcomes() {
        let tel = Telemetry::new();
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
            .with_telemetry(tel);
        let mut q = QueryEngine::new(TenantEngine::new(config));
        let id = StreamId(1);
        q.tenants_mut()
            .insert_batch(id, &ring(0.0, 0.0, 1.0, 32))
            .unwrap();
        q.width(id).unwrap();
        q.width(id).unwrap();
        q.diameter(id).unwrap();
        let mut scrape = tel.scrape();
        assert_eq!(scrape.counter_total(names::QUERY_CACHE_HITS), 0);
        q.cache_stats().export_to(&mut scrape);
        assert_eq!(scrape.counter_total(names::QUERY_CACHE_MISSES), 2);
        assert_eq!(scrape.counter_total(names::QUERY_CACHE_HITS), 1);
        assert_eq!(
            scrape.counter_with(names::QUERY_ANSWERS, &[("kind", "width")]),
            Some(2)
        );
        assert_eq!(
            scrape.counter_with(names::QUERY_ANSWERS, &[("kind", "diameter")]),
            Some(1)
        );
    }
}
