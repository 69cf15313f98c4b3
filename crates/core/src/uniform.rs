//! The uniformly sampled hull (paper §3).
//!
//! Maintains the extrema of the stream in `r` fixed, evenly spaced
//! directions `jθ0`, `θ0 = 2π/r`. Two implementations:
//!
//! * [`NaiveUniformHull`] — the `O(r)`-per-point scheme of Feigenbaum,
//!   Kannan & Zhang: one dot product against every direction. Simple,
//!   branch-light, and the reference the fancier structure is tested
//!   against.
//! * [`UniformHull`] — the searchable structure of §3.1: points inside the
//!   current hull of extrema are discarded after an `O(log r)` point
//!   location; only points that actually beat some direction pay more. It
//!   also reports the *beaten arc* of directions, which is exactly what the
//!   adaptive layer (§5) needs to know which refinement trees to touch.
//!
//! Both maintain the invariant that the stored extremum for direction `j`
//! is the maximum-dot point of the whole prefix (under `f64` dot
//! comparison), which tests verify against brute-force replay.

use crate::batch::{incircle, BatchScratch, CertCache, BATCH_LEAF, PREFILTER_MIN_DIRS};
use crate::summary::{GenCache, HullCache, HullSummary, Mergeable};
use core::f64::consts::TAU;
use geom::dyadic::{fan_unit, shared_fan, MAX_R};
use geom::tangent::visible_chain;
use geom::{ConvexPolygon, Point2, Vec2};
use std::borrow::Cow;
use std::cell::Cell;

/// Unit vectors of the `r` uniform directions `j·2π/r` ([`fan_unit`]).
///
/// # Panics
/// Panics unless `4 <= r <= 2^20` ([`MAX_R`]), the range every uniform
/// summary's constructor and snapshot decoder accepts.
fn direction_units(r: u32) -> Vec<Vec2> {
    assert!(r >= 4, "need at least 4 directions, got {r}");
    assert!(r <= MAX_R, "at most 2^20 directions, got {r}");
    (0..r as u64).map(|j| fan_unit(j, r as u64)).collect()
}

/// The `r` uniform direction units as `(table, stride)`, direction `j` at
/// entry `j·stride`: a view of the shared [`fan_unit`] table for a
/// power-of-two `r` up to 4,096, a private [`direction_units`] copy
/// otherwise. Both are bit-equal to `fan_unit(j, r)`.
fn direction_table(r: u32) -> (Cow<'static, [Vec2]>, usize) {
    match shared_fan(u64::from(r)) {
        Some((table, stride)) if r >= 4 => (Cow::Borrowed(table), stride),
        _ => (Cow::Owned(direction_units(r)), 1),
    }
}

/// The naive `O(r)`-per-point uniformly sampled hull (FKZ baseline).
#[derive(Clone, Debug)]
pub struct NaiveUniformHull {
    units: Vec<Vec2>,
    extrema: Vec<Point2>,
    /// Cached support values `extrema[j].dot(units[j])`, kept in lockstep
    /// with `extrema` so the per-point scan compares against a stored
    /// `f64` instead of recomputing the incumbent's dot product — half the
    /// multiplies and a branch-light inner loop.
    dots: Vec<f64>,
    seen: u64,
    cache: HullCache,
    distinct: GenCache<usize>,
    bound: GenCache<f64>,
    scratch: BatchScratch,
}

impl NaiveUniformHull {
    /// Creates the summary with `4 <= r <= 2^20` sample directions.
    pub fn new(r: u32) -> Self {
        NaiveUniformHull {
            units: direction_units(r),
            extrema: Vec::new(),
            dots: Vec::new(),
            seen: 0,
            cache: HullCache::new(),
            distinct: GenCache::new(),
            bound: GenCache::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Number of sample directions.
    pub fn r(&self) -> u32 {
        self.units.len() as u32
    }

    /// The stored extremum for direction index `j` (`None` before the first
    /// point).
    pub fn extremum(&self, j: u32) -> Option<Point2> {
        self.extrema.get(j as usize).copied()
    }

    /// Unit vector of direction `j`.
    pub fn unit(&self, j: u32) -> Vec2 {
        self.units[j as usize]
    }

    /// The direction scan without seen/cache bookkeeping; returns `true`
    /// iff any extremum changed.
    #[inline]
    fn scan(&mut self, p: Point2) -> bool {
        if self.extrema.is_empty() {
            self.extrema = vec![p; self.units.len()];
            self.dots = self.units.iter().map(|&u| p.dot(u)).collect();
            return true;
        }
        let mut changed = false;
        for ((e, d), u) in self
            .extrema
            .iter_mut()
            .zip(self.dots.iter_mut())
            .zip(&self.units)
        {
            let nd = p.dot(*u);
            if nd > *d {
                *e = p;
                *d = nd;
                changed = true;
            }
        }
        changed
    }
}

impl NaiveUniformHull {
    /// Snapshot payload: `r`, seen count, and the per-direction extrema
    /// (empty before the first point); support dots are recomputed on
    /// restore with the exact expression that produced them.
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_point, put_u32, put_u64};
        put_u32(out, self.r());
        put_u64(out, self.seen);
        put_u64(out, self.extrema.len() as u64);
        for &e in &self.extrema {
            put_point(out, e);
        }
    }

    /// Inverse of [`NaiveUniformHull::snapshot_payload`].
    pub(crate) fn from_snapshot_payload(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let dirs = r.u32()?;
        if !(4..=MAX_R).contains(&dirs) {
            return Err(SnapshotError::Malformed(
                "uniform-naive needs 4 <= r <= 2^20",
            ));
        }
        let seen = r.u64()?;
        let count = r.count(16)?;
        if count != 0 && count != dirs as usize {
            return Err(SnapshotError::Malformed("extrema count must be 0 or r"));
        }
        let mut s = NaiveUniformHull::new(dirs);
        s.seen = seen;
        if count > 0 {
            let mut extrema = Vec::with_capacity(count);
            for _ in 0..count {
                extrema.push(r.point()?);
            }
            s.dots = extrema
                .iter()
                .zip(&s.units)
                .map(|(e, &u)| e.dot(u))
                .collect();
            s.extrema = extrema;
        }
        Ok(s)
    }
}

impl HullSummary for NaiveUniformHull {
    fn insert(&mut self, p: Point2) {
        if !p.is_finite() {
            return;
        }
        self.seen += 1;
        if self.scan(p) {
            self.cache.invalidate();
        }
    }

    fn insert_batch(&mut self, points: &[Point2]) {
        if points.iter().any(|p| !p.is_finite()) {
            // Drop non-finite points up front (the loop path drops them one
            // by one); recursing on the all-finite remainder preserves the
            // batch == loop equivalence contract.
            let finite: Vec<Point2> = points.iter().copied().filter(|p| p.is_finite()).collect();
            self.insert_batch(&finite);
            return;
        }
        if points.len() <= BATCH_LEAF {
            for &p in points {
                self.insert(p);
            }
            return;
        }
        let mut changed = false;
        if self.units.len() >= PREFILTER_MIN_DIRS {
            // Large fans: the O(r) scan dominates, so pay one sort to
            // reduce the chunk to its hull-boundary points — only they can
            // beat any direction (ties included; see `batch.rs`).
            let mut scratch = core::mem::take(&mut self.scratch);
            match scratch.boundary_survivors(points) {
                None => {
                    // Non-finite input: replicate the loop's NaN semantics.
                    for &p in points {
                        self.insert(p);
                    }
                }
                Some(survivors) => {
                    self.seen += points.len() as u64;
                    for &p in survivors {
                        changed |= self.scan(p);
                    }
                }
            }
            self.scratch = scratch;
        } else {
            // Small fans: an O(r) scan is too cheap for sorting to pay —
            // use the interior certificate of the hull of extrema instead.
            // A certified point is strictly inside that hull, hence
            // strictly dominated in every direction: the scan would be a
            // no-op. Non-finite points never pass the certificate, so NaN
            // semantics match the loop.
            let mut cert = CertCache::new(32);
            for &p in points {
                self.seen += 1;
                if cert.covers(p, || incircle(&ConvexPolygon::hull_of(&self.extrema))) {
                    continue;
                }
                if self.scan(p) {
                    changed = true;
                    cert.invalidate();
                }
            }
        }
        if changed {
            self.cache.invalidate();
        }
    }

    fn hull_ref(&self) -> &ConvexPolygon {
        self.cache
            .get_or_rebuild(|| ConvexPolygon::hull_of(&self.extrema))
    }

    fn hull_generation(&self) -> u64 {
        self.cache.generation()
    }

    fn sample_size(&self) -> usize {
        self.distinct.get_or_compute(self.cache.generation(), || {
            distinct_points(&self.extrema).len()
        })
    }

    fn points_seen(&self) -> u64 {
        self.seen
    }

    fn name(&self) -> &'static str {
        "uniform-naive"
    }

    fn error_bound(&self) -> Option<f64> {
        // Lemma 3.2: every stream point respects all r supporting
        // half-planes, so the true hull cannot stick out farther than the
        // tallest current uncertainty triangle.
        Some(self.bound.get_or_compute(self.cache.generation(), || {
            max_triangle_height(&crate::metrics::naive_uniform_uncertainty_triangles(self))
        }))
    }
}

impl Mergeable for NaiveUniformHull {
    fn sample_points(&self) -> Vec<Point2> {
        distinct_points(&self.extrema)
    }

    fn absorb_seen(&mut self, n: u64) {
        self.seen += n;
    }

    fn encode_snapshot(&self) -> Vec<u8> {
        crate::snapshot::Snapshot::encode(self)
    }

    fn clone_box(&self) -> Box<dyn Mergeable + Send + Sync> {
        Box::new(self.clone())
    }
}

/// Largest height over a set of uncertainty triangles (0 when empty).
fn max_triangle_height(triangles: &[geom::UncertaintyTriangle]) -> f64 {
    triangles.iter().map(|t| t.height()).fold(0.0f64, f64::max)
}

/// Distinct points of a direction-ordered extrema list.
pub(crate) fn distinct_points(extrema: &[Point2]) -> Vec<Point2> {
    let mut pts = extrema.to_vec();
    pts.sort_by(|a, b| a.lex_cmp(*b));
    pts.dedup();
    pts
}

/// A maximal run of consecutive directions owned by one extremum point.
#[derive(Clone, Copy, Debug, PartialEq)]
#[must_use = "a direction run encodes which extremum owns the queried direction"]
pub struct DirRun {
    /// Owning extremum (an input point).
    pub point: Point2,
    /// First owned direction index.
    pub lo: u32,
    /// Last owned direction index (inclusive; `lo <= hi`, runs never wrap —
    /// a wrapping run is stored as two).
    pub hi: u32,
}

/// Appends the run `[lo, hi]` owned by `point` to a direction-ordered run
/// list: nothing when `lo > hi`, and an extension of the last run when that
/// has the same owner and ends at `lo - 1`.
fn push_run(out: &mut Vec<DirRun>, point: Point2, lo: u32, hi: u32) {
    if lo > hi {
        return;
    }
    if let Some(prev) = out.last_mut() {
        if prev.point == point && prev.hi + 1 == lo {
            prev.hi = hi;
            return;
        }
    }
    out.push(DirRun { point, lo, hi });
}

thread_local! {
    /// `UniformHull::apply_beaten`'s buffers: the rewritten runs, the
    /// owner cycle and the hull's sort buffer. One set per thread, taken
    /// and put back by each call, so no summary (or copy of one) carries
    /// them.
    static SCRATCH: Cell<(Vec<DirRun>, Vec<Point2>, Vec<Point2>)> =
        const { Cell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// The counterclockwise angular arc of directions a new point beats,
/// reported by [`UniformHull::insert_detailed`]. Angles in radians,
/// normalised to `[0, 2π)`; the arc runs ccw from `start` to `end` and its
/// width is at most `π`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BeatenArc {
    /// Arc start angle (exclusive boundary).
    pub start: f64,
    /// Arc end angle (exclusive boundary).
    pub end: f64,
}

/// Outcome of feeding one point to [`UniformHull`].
#[derive(Clone, Debug, PartialEq)]
pub enum UniformEffect {
    /// This was the first stream point: it now owns every direction.
    First,
    /// The point was inside the hull of the current extrema; it cannot beat
    /// any direction (uniform *or* adaptive) and was discarded.
    Interior,
    /// The point was outside the hull of the extrema.
    Outside {
        /// Inclusive circular range `[first, last]` of beaten uniform
        /// direction indices, or `None` if the point pokes out strictly
        /// between sample directions.
        beaten: Option<(u32, u32)>,
        /// The continuous arc of directions in which the point beats the
        /// support of the stored extrema (superset of any adaptive
        /// directions it can beat).
        arc: BeatenArc,
    },
}

/// The searchable uniformly sampled hull (§3.1).
#[derive(Clone, Debug)]
pub struct UniformHull {
    r: u32,
    theta0: f64,
    /// Direction `j`'s unit is `units[j·stride]` ([`direction_table`]).
    units: Cow<'static, [Vec2]>,
    stride: usize,
    /// Direction ownership runs, sorted by `lo`, partitioning `0..r`.
    runs: Vec<DirRun>,
    /// Strict convex hull of the extrema (cached eagerly — refreshed only
    /// when a point actually beats a direction).
    hull: ConvexPolygon,
    /// Perimeter of `hull` (the paper's `P`; `2·len` for a segment).
    perimeter: f64,
    seen: u64,
    /// Bumped whenever `hull` changes (interior points leave it alone).
    generation: u64,
    distinct: GenCache<usize>,
    bound: GenCache<f64>,
}

impl UniformHull {
    /// Creates the summary with `4 <= r <= 2^20` sample directions.
    pub fn new(r: u32) -> Self {
        let (units, stride) = direction_table(r);
        UniformHull {
            r,
            theta0: TAU / r as f64,
            units,
            stride,
            runs: Vec::new(),
            hull: ConvexPolygon::empty(),
            perimeter: 0.0,
            seen: 0,
            generation: 0,
            distinct: GenCache::new(),
            bound: GenCache::new(),
        }
    }

    /// Number of sample directions.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// Unit vector of direction `j`.
    pub fn unit(&self, j: u32) -> Vec2 {
        self.units[(j % self.r) as usize * self.stride]
    }

    /// Perimeter `P` of the hull of the extrema (paper §4/§5).
    pub fn perimeter(&self) -> f64 {
        self.perimeter
    }

    /// The stored extremum for direction `j` (`None` before any input).
    pub fn extremum(&self, j: u32) -> Option<Point2> {
        let j = j % self.r;
        if self.runs.is_empty() {
            return None;
        }
        // Binary search the run containing j.
        let idx = match self.runs.binary_search_by(|run| run.lo.cmp(&j)) {
            Ok(i) => i,
            Err(0) => self.runs.len() - 1, // j before first lo: wrapping tail run
            Err(i) => i - 1,
        };
        let run = self.runs[idx];
        debug_assert!(
            run.lo <= j && j <= run.hi,
            "run lookup failed: j={j}, runs={:?}",
            self.runs
        );
        Some(run.point)
    }

    /// `true` iff `q` strictly beats the stored extremum in direction `j`.
    #[inline]
    fn beats(&self, q: Point2, j: u32) -> bool {
        let u = self.unit(j);
        match self.extremum(j) {
            None => true,
            Some(e) => q.dot(u) > e.dot(u),
        }
    }

    /// Ownership runs (testing/inspection).
    pub fn runs(&self) -> &[DirRun] {
        &self.runs
    }

    /// Adds to the seen-points counter without inserting geometry (used by
    /// summary merging, where the absorbed points were already counted by
    /// the other summary).
    pub(crate) fn add_seen(&mut self, n: u64) {
        self.seen += n;
    }

    /// Feeds a point and reports exactly what it affected.
    pub fn insert_detailed(&mut self, q: Point2) -> UniformEffect {
        assert!(q.is_finite(), "UniformHull requires finite coordinates");
        self.seen += 1;
        if self.runs.is_empty() {
            self.runs.push(DirRun {
                point: q,
                lo: 0,
                hi: self.r - 1,
            });
            self.hull = ConvexPolygon::hull_of(&[q]);
            self.perimeter = 0.0;
            self.generation += 1;
            return UniformEffect::First;
        }

        // Fast reject: inside the hull of the extrema => beats nothing.
        if geom::locate::contains(&self.hull, q) {
            return UniformEffect::Interior;
        }

        let arc = match self.beaten_arc(q) {
            Some(arc) => arc,
            None => return UniformEffect::Interior, // weakly on the boundary
        };

        // Candidate uniform directions inside the arc, then verify/adjust by
        // exact dot tests (the arc itself is floating point).
        let beaten = self.verified_beaten_range(q, &arc);
        if let Some((first, last)) = beaten {
            self.apply_beaten(q, first, last);
        }
        UniformEffect::Outside { beaten, arc }
    }

    /// Computes the continuous arc of directions in which `q` beats the
    /// support of the stored extrema. `q` must be outside their hull;
    /// returns `None` in the razor's-edge case where `q` is (weakly) on the
    /// boundary.
    fn beaten_arc(&self, q: Point2) -> Option<BeatenArc> {
        let h = &self.hull;
        // Outward normal angle of directed edge a->b of a ccw polygon.
        let outward = |a: Point2, b: Point2| -> f64 {
            let d = b - a;
            Vec2::new(d.y, -d.x).angle().rem_euclid(TAU)
        };
        match h.len() {
            0 => None,
            1 => {
                let v = h.vertex(0);
                if v == q {
                    return None;
                }
                let phi = (q - v).angle();
                Some(BeatenArc {
                    start: (phi - core::f64::consts::FRAC_PI_2).rem_euclid(TAU),
                    end: (phi + core::f64::consts::FRAC_PI_2).rem_euclid(TAU),
                })
            }
            2 => {
                // Build the tiny hull of {a, b, q} and read q's normal cone
                // from its edges; degenerate (collinear) falls back to the
                // half-circle around the direction from the nearer endpoint.
                let (a, b) = (h.vertex(0), h.vertex(1));
                let t = ConvexPolygon::hull_of(&[a, b, q]);
                if t.len() == 3 {
                    let idx = (0..3).find(|&i| t.vertex(i) == q)?;
                    let prev = t.vertex((idx + 2) % 3);
                    let next = t.vertex((idx + 1) % 3);
                    Some(BeatenArc {
                        start: outward(prev, q),
                        end: outward(q, next),
                    })
                } else {
                    // Collinear: q beyond one endpoint (or between: interior).
                    let e = if (q - a).dot(b - a) < 0.0 {
                        a
                    } else if (q - b).dot(a - b) < 0.0 {
                        b
                    } else {
                        return None; // on the segment
                    };
                    let phi = (q - e).angle();
                    Some(BeatenArc {
                        start: (phi - core::f64::consts::FRAC_PI_2).rem_euclid(TAU),
                        end: (phi + core::f64::consts::FRAC_PI_2).rem_euclid(TAU),
                    })
                }
            }
            _ => {
                let chain = visible_chain(h, q)?;
                let vs = h.vertex(chain.start);
                let ve = h.vertex(chain.end);
                Some(BeatenArc {
                    start: outward(vs, q),
                    end: outward(q, ve),
                })
            }
        }
    }

    /// Seeds the candidate index range from the arc, then shrinks/expands it
    /// with exact dot tests so the result is independent of arc rounding.
    fn verified_beaten_range(&self, q: Point2, arc: &BeatenArc) -> Option<(u32, u32)> {
        let r = self.r;
        let span = (arc.end - arc.start).rem_euclid(TAU);
        let mut first = ((arc.start / self.theta0).ceil() as i64).rem_euclid(r as i64) as u32;
        let mut count = (span / self.theta0).floor() as i64 + 1;
        if count > r as i64 {
            count = r as i64;
        }
        let mut last = (first as i64 + count - 1).rem_euclid(r as i64) as u32;

        // Shrink from the front while the candidate is not actually beaten.
        let mut len = count;
        while len > 0 && !self.beats(q, first) {
            first = (first + 1) % r;
            len -= 1;
        }
        while len > 0 && !self.beats(q, last) {
            last = (last + r - 1) % r;
            len -= 1;
        }
        if len == 0 {
            // Seed missed; probe the two boundary neighbours before giving
            // up (covers arcs narrower than one sector).
            let probe = (arc.start + span * 0.5).rem_euclid(TAU);
            let j = ((probe / self.theta0).round() as i64).rem_euclid(r as i64) as u32;
            for cand in [j, (j + r - 1) % r, (j + 1) % r] {
                if self.beats(q, cand) {
                    first = cand;
                    last = cand;
                    len = 1;
                    break;
                }
            }
            if len == 0 {
                return None;
            }
        }
        // Expand outwards in case the seed was too narrow (bounded by r).
        let mut total = ((last + r - first) % r + 1) as i64;
        while total < r as i64 && self.beats(q, (first + r - 1) % r) {
            first = (first + r - 1) % r;
            total += 1;
        }
        while total < r as i64 && self.beats(q, (last + 1) % r) {
            last = (last + 1) % r;
            total += 1;
        }
        Some((first, last))
    }

    /// Rewrites the ownership runs so `q` owns the circular inclusive range
    /// `[first, last]`, then refreshes the cached hull and perimeter.
    ///
    /// Linear, sort-free and allocation-free in steady state: the runs are
    /// already in direction order, so `q`'s run is spliced in (merging
    /// with an equal-owner neighbour) in one pass, and their owners are
    /// already in counterclockwise order, so the strict hull comes from one
    /// [`ConvexPolygon::assign_hull_of_ccw_cycle`] pass. The buffers are
    /// the thread's `SCRATCH`.
    fn apply_beaten(&mut self, q: Point2, first: u32, last: u32) {
        let (mut out, mut cycle, mut sorted) = SCRATCH.take();
        out.clear();
        if first <= last {
            // Owners keep `[0, first)` and `(last, r)`; `q` takes the
            // directions in between.
            let mut spliced = false;
            for run in &self.runs {
                if run.lo < first {
                    push_run(&mut out, run.point, run.lo, run.hi.min(first - 1));
                }
                if run.hi >= first && !spliced {
                    push_run(&mut out, q, first, last);
                    spliced = true;
                }
                if run.hi > last {
                    push_run(&mut out, run.point, run.lo.max(last + 1), run.hi);
                }
            }
        } else {
            // `q` owns both ends of the index range; owners keep
            // `(last, first)`.
            push_run(&mut out, q, 0, last);
            for run in &self.runs {
                push_run(
                    &mut out,
                    run.point,
                    run.lo.max(last + 1),
                    run.hi.min(first - 1),
                );
            }
            push_run(&mut out, q, first, self.r - 1);
        }
        self.runs.clear();
        self.runs.extend_from_slice(&out);
        debug_assert!(self.runs_partition_all());

        cycle.clear();
        cycle.extend(self.runs.iter().map(|run| run.point));
        self.hull.assign_hull_of_ccw_cycle(&cycle, &mut sorted);
        SCRATCH.set((out, cycle, sorted));
        self.perimeter = self.hull.perimeter();
        self.generation += 1;
    }

    /// Snapshot payload: `r`, seen count, hull generation, the ownership
    /// runs, and the cached hull polygon (stored bit-exactly rather than
    /// recomputed, so a restored summary's `hull_ref` and perimeter `P` —
    /// which drives the adaptive scheme's thresholds — match the original
    /// to the last bit). Also the substrate payload of the adaptive kinds.
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_point, put_u32, put_u64};
        put_u32(out, self.r);
        put_u64(out, self.seen);
        put_u64(out, self.generation);
        put_u64(out, self.runs.len() as u64);
        for run in &self.runs {
            put_point(out, run.point);
            put_u32(out, run.lo);
            put_u32(out, run.hi);
        }
        self.hull.encode_raw(out);
    }

    /// Inverse of [`UniformHull::snapshot_payload`]. Re-validates the run
    /// partition invariant the binary-searched `extremum` lookup relies
    /// on.
    pub(crate) fn from_snapshot_payload(
        reader: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let r = reader.u32()?;
        if !(4..=MAX_R).contains(&r) {
            return Err(SnapshotError::Malformed("uniform needs 4 <= r <= 2^20"));
        }
        let seen = reader.u64()?;
        let generation = reader.u64()?;
        let run_count = reader.count(24)?;
        let mut runs = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            let point = reader.point()?;
            let lo = reader.u32()?;
            let hi = reader.u32()?;
            if lo >= r || hi >= r {
                return Err(SnapshotError::Malformed("run index out of range"));
            }
            if !point.is_finite() {
                // The insert boundary asserts finiteness, so no legal
                // state holds a non-finite extremum; rejecting it here
                // keeps merge/insert paths panic-free on forged input.
                return Err(SnapshotError::Malformed("non-finite run extremum"));
            }
            runs.push(DirRun { point, lo, hi });
        }
        let hull = reader.polygon()?;
        let mut s = UniformHull::new(r);
        s.seen = seen;
        s.generation = generation;
        s.runs = runs;
        s.perimeter = hull.perimeter();
        s.hull = hull;
        if !s.runs.is_empty() && !s.runs_partition_all() {
            return Err(SnapshotError::Malformed("runs do not partition 0..r"));
        }
        Ok(s)
    }

    /// The Lemma 3.2 certificate: the tallest uncertainty triangle's height
    /// (0 with fewer than two owners). Bit-identical to folding
    /// [`crate::metrics::uniform_uncertainty_triangles`] to its tallest
    /// height, but builds only the triangles that could be the tallest.
    ///
    /// The triangle between consecutive owners `a`, `b` has base length
    /// `ℓ` and supporting normals one step `θ0 = 2π/r` apart. With base
    /// angles `α, β ≥ 0`, `α + β = θ0`, its height `ℓ·sin α·sin β / sin θ0`
    /// peaks at `α = β`, so it is at most `(ℓ/2)·tan(θ0/2)`. One pass finds
    /// the longest base and the largest owner coordinate magnitude `M`; the
    /// triangle on the longest base seeds the running max, and a second
    /// pass builds a triangle only when its bound, widened by the rounding
    /// margin below, reaches that max. A NaN bound is built.
    ///
    /// The margin bounds what the computed height can exceed
    /// `(ℓ/2)·tan(θ0/2)` by. To first order, with `ε = f64::EPSILON` and
    /// `sin(θ0/2) ≥ 2/r`, `sin θ0 ≥ 4/r` (`r ≥ 4`):
    ///
    /// * an apex on the inner side of `ab` ([`geom::UncertaintyTriangle::new`]):
    ///   a point takes a direction only by beating its owner's rounded dot
    ///   product, and a new run ends where that test failed, so adjacent
    ///   owners are extrema against each other up to two rounded dots,
    ///   `(b − a)·na ≤ 2√2·εM`. Such an apex lies within
    ///   `|(b − a)·na| / sin θ0 ≤ 0.71·εMr` of the base;
    /// * the apex's rounding: the offsets' errors (`√2·εM` each) pass
    ///   through the inverse of the normals' matrix (`≤ 0.71·εMr`), the
    ///   products' through the division by `sin θ0` (`≤ 0.5·εMr`), and the
    ///   determinant's relative error `ε / sin θ0` scales an apex of norm
    ///   `≤ 4.3·M` (`≤ 1.1·εMr`);
    /// * the unit table: adjacent units sit up to `16ε` off `θ0` apart,
    ///   which moves the bound by `≤ (ℓ/2)·16ε ≤ 23·εM ≤ 5.8·εMr`;
    /// * the segment distance: `≤ 6·εM ≤ 1.5·εMr`.
    ///
    /// That sums to about `10·εMr`; the absolute part `16·εMr` holds it
    /// with room. It grows with `r` because `sin θ0` shrinks, and with `M`
    /// because the apex cancels far from the origin: without it the prefilter
    /// skipped taller triangles on far-translated inputs at large `r`.
    /// The relative part `10⁻¹²` covers rounding in `ℓ`, `tan(θ0/2)` and
    /// the bound's own product.
    fn certificate(&self) -> f64 {
        let runs = &self.runs;
        let n = runs.len();
        // The consecutive owner pairs, skipping a wrap-around run of one
        // owner, exactly as `uniform_uncertainty_triangles` pairs them.
        let pair = |i: usize| {
            let (cur, next) = (runs[i], runs[(i + 1) % n]);
            (cur.point != next.point).then_some((cur, next))
        };
        let base_len2 = |(cur, next): (DirRun, DirRun)| (next.point - cur.point).norm_sq();
        let mut m = 0.0f64;
        let mut longest: Option<(usize, f64)> = None;
        for (i, run) in runs.iter().enumerate() {
            m = m.max(run.point.x.abs()).max(run.point.y.abs());
            let Some(len2) = pair(i).map(base_len2) else {
                continue;
            };
            if longest.is_none_or(|(_, best)| len2 > best) {
                longest = Some((i, len2));
            }
        }
        let Some((seed, _)) = longest else {
            return 0.0;
        };
        // tan(θ0/2) = sin θ0 / (1 + cos θ0), from the unit table.
        let step = self.unit(1);
        let half_tan = step.y / (1.0 + step.x);
        let slack = 16.0 * f64::EPSILON * m * self.r as f64;
        // The seed goes first: any bound reaches the initial max of 0.
        let mut max = 0.0f64;
        for i in core::iter::once(seed).chain((0..n).filter(|&i| i != seed)) {
            let Some((cur, next)) = pair(i) else {
                continue;
            };
            let reach = 0.5 * base_len2((cur, next)).sqrt() * half_tan * (1.0 + 1e-12) + slack;
            if reach < max {
                continue;
            }
            let (na, nb) = (self.unit(cur.hi), self.unit(next.lo));
            max = max.max(geom::UncertaintyTriangle::new(cur.point, next.point, na, nb).height());
        }
        max
    }

    fn runs_partition_all(&self) -> bool {
        let mut covered = 0u64;
        let mut prev_hi: Option<u32> = None;
        for run in &self.runs {
            if run.lo > run.hi {
                return false;
            }
            if let Some(ph) = prev_hi {
                if run.lo != ph + 1 {
                    return false;
                }
            } else if run.lo != 0 {
                return false;
            }
            covered += (run.hi - run.lo + 1) as u64;
            prev_hi = Some(run.hi);
        }
        covered == self.r as u64
    }
}

impl HullSummary for UniformHull {
    fn insert(&mut self, p: Point2) {
        // Non-finite points are dropped, not counted (see `HullSummary`).
        if !p.is_finite() {
            return;
        }
        let _ = self.insert_detailed(p);
    }

    fn insert_batch(&mut self, points: &[Point2]) {
        if points.iter().any(|p| !p.is_finite()) {
            // Drop non-finite points up front (the loop path drops them one
            // by one); recursing on the all-finite remainder preserves the
            // batch == loop equivalence contract.
            let finite: Vec<Point2> = points.iter().copied().filter(|p| p.is_finite()).collect();
            self.insert_batch(&finite);
            return;
        }
        if points.len() <= BATCH_LEAF {
            for &q in points {
                let _ = self.insert_detailed(q);
            }
            return;
        }
        // Interior-certificate fast path: points inside the inscribed
        // circle of `A` are exactly points the per-point path would
        // discard as interior after an O(log r) point location — discard
        // them here for two multiplies. The certificate is rebuilt only
        // when `A` changes (`generation` advances), amortised across the
        // chunk. Non-finite points were filtered out above, so
        // `insert_detailed`'s finite-input precondition always holds here.
        let mut cert = CertCache::new(8);
        for &q in points {
            if cert.covers(q, || incircle(&self.hull)) {
                self.seen += 1;
                continue;
            }
            let before = self.generation;
            let _ = self.insert_detailed(q);
            if self.generation != before {
                cert.invalidate();
            }
        }
    }

    fn hull_ref(&self) -> &ConvexPolygon {
        &self.hull
    }

    fn hull_generation(&self) -> u64 {
        self.generation
    }

    fn sample_size(&self) -> usize {
        self.distinct.get_or_compute(self.generation, || {
            let pts: Vec<Point2> = self.runs.iter().map(|run| run.point).collect();
            distinct_points(&pts).len()
        })
    }

    fn points_seen(&self) -> u64 {
        self.seen
    }

    fn name(&self) -> &'static str {
        "uniform"
    }

    fn error_bound(&self) -> Option<f64> {
        Some(
            self.bound
                .get_or_compute(self.generation, || self.certificate()),
        )
    }
}

impl Mergeable for UniformHull {
    fn sample_points(&self) -> Vec<Point2> {
        let pts: Vec<Point2> = self.runs.iter().map(|run| run.point).collect();
        distinct_points(&pts)
    }

    fn absorb_seen(&mut self, n: u64) {
        self.seen += n;
    }

    fn encode_snapshot(&self) -> Vec<u8> {
        crate::snapshot::Snapshot::encode(self)
    }

    fn clone_box(&self) -> Box<dyn Mergeable + Send + Sync> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_read_the_shared_table_bit_for_bit() {
        for r in [4u32, 8, 32, 1024, 4096, 12, 100, 1000, 8192] {
            let h = UniformHull::new(r);
            let shared = r.is_power_of_two() && r <= 4096;
            assert_eq!(
                matches!(h.units, Cow::Borrowed(_)),
                shared,
                "r = {r}: private copy only off the table"
            );
            for j in 0..2 * r {
                let (got, want) = (h.unit(j), fan_unit(u64::from(j % r), u64::from(r)));
                assert_eq!(
                    (got.x.to_bits(), got.y.to_bits()),
                    (want.x.to_bits(), want.y.to_bits()),
                    "r = {r}, j = {j}"
                );
            }
        }
    }

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn lcg_points(seed: u64, n: usize, scale: f64) -> Vec<Point2> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| p((next() - 0.5) * scale, (next() - 0.5) * scale))
            .collect()
    }

    /// The central equivalence test: the searchable structure must make the
    /// same per-direction decisions as the naive scan.
    fn assert_equivalent(points: &[Point2], r: u32) {
        let mut naive = NaiveUniformHull::new(r);
        let mut fancy = UniformHull::new(r);
        for (i, &q) in points.iter().enumerate() {
            naive.insert(q);
            fancy.insert(q);
            for j in 0..r {
                let (a, b) = (naive.extremum(j).unwrap(), fancy.extremum(j).unwrap());
                let u = naive.unit(j);
                assert!(
                    (a.dot(u) - b.dot(u)).abs() <= 1e-12 * a.dot(u).abs().max(1.0),
                    "direction {j} diverged after point {i} ({q:?}): naive {a:?} fancy {b:?}"
                );
            }
        }
    }

    #[test]
    fn equivalence_on_random_cloud() {
        assert_equivalent(&lcg_points(1, 500, 10.0), 16);
        assert_equivalent(&lcg_points(2, 500, 10.0), 8);
        assert_equivalent(&lcg_points(3, 300, 2.0), 64);
    }

    #[test]
    fn equivalence_on_adversarial_streams() {
        // Spiral: every point beats something.
        let spiral: Vec<Point2> = (0..300)
            .map(|i| {
                let t = 2.399963229728653 * i as f64;
                let rad = 1.0 + 0.01 * i as f64;
                p(rad * t.cos(), rad * t.sin())
            })
            .collect();
        assert_equivalent(&spiral, 32);

        // Collinear prefix, then 2-D points.
        let mut col: Vec<Point2> = (0..40).map(|i| p(i as f64, 2.0 * i as f64)).collect();
        col.extend(lcg_points(9, 100, 30.0));
        assert_equivalent(&col, 16);

        // Duplicates everywhere.
        let mut dup = lcg_points(10, 50, 5.0);
        let copy = dup.clone();
        dup.extend(copy);
        assert_equivalent(&dup, 16);
    }

    #[test]
    fn extrema_are_true_maxima() {
        let pts = lcg_points(4, 400, 6.0);
        let mut u = UniformHull::new(16);
        for &q in &pts {
            u.insert(q);
        }
        for j in 0..16 {
            let dir = u.unit(j);
            let stored = u.extremum(j).unwrap().dot(dir);
            let best = pts
                .iter()
                .map(|q| q.dot(dir))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                (stored - best).abs() <= 1e-12 * best.abs().max(1.0),
                "direction {j}: stored {stored}, true max {best}"
            );
        }
    }

    #[test]
    fn first_point_owns_everything() {
        let mut u = UniformHull::new(8);
        assert_eq!(u.insert_detailed(p(1.0, 2.0)), UniformEffect::First);
        assert_eq!(u.runs().len(), 1);
        for j in 0..8 {
            assert_eq!(u.extremum(j), Some(p(1.0, 2.0)));
        }
    }

    #[test]
    fn interior_point_reports_interior() {
        let mut u = UniformHull::new(8);
        for &q in &[p(0.0, 0.0), p(10.0, 0.0), p(10.0, 10.0), p(0.0, 10.0)] {
            u.insert(q);
        }
        assert_eq!(u.insert_detailed(p(5.0, 5.0)), UniformEffect::Interior);
        assert_eq!(u.points_seen(), 5);
    }

    #[test]
    fn outside_point_reports_beaten_range() {
        let mut u = UniformHull::new(8);
        for &q in &[p(-1.0, -1.0), p(1.0, -1.0), p(1.0, 1.0), p(-1.0, 1.0)] {
            u.insert(q);
        }
        // Far to the +x: must at least beat direction 0.
        match u.insert_detailed(p(100.0, 0.0)) {
            UniformEffect::Outside {
                beaten: Some((first, last)),
                ..
            } => {
                let covered: Vec<u32> = {
                    let r = 8;
                    let len = (last + r - first) % r + 1;
                    (0..len).map(|i| (first + i) % r).collect()
                };
                assert!(covered.contains(&0), "direction 0 beaten, got {covered:?}");
                assert!(!covered.contains(&4), "direction pi not beaten");
            }
            other => panic!("expected Outside with beats, got {other:?}"),
        }
        assert_eq!(u.extremum(0), Some(p(100.0, 0.0)));
    }

    #[test]
    fn poke_out_between_directions() {
        // r = 4: directions at 0, 90, 180, 270 degrees. A point at 45°
        // just outside the hull may beat nothing.
        let mut u = UniformHull::new(4);
        let big = 10.0;
        for &q in &[p(big, 0.0), p(0.0, big), p(-big, 0.0), p(0.0, -big)] {
            u.insert(q);
        }
        // (5.2, 5.2) is outside the diamond hull (x+y = 10 edge) but beats
        // none of the four axis directions.
        match u.insert_detailed(p(5.2, 5.2)) {
            UniformEffect::Outside { beaten, .. } => assert_eq!(beaten, None),
            other => panic!("expected Outside without beats, got {other:?}"),
        }
        assert_eq!(u.extremum(0), Some(p(big, 0.0)), "extrema unchanged");
    }

    #[test]
    fn perimeter_tracks_hull() {
        let mut u = UniformHull::new(16);
        for &q in &[p(0.0, 0.0), p(4.0, 0.0), p(4.0, 3.0), p(0.0, 3.0)] {
            u.insert(q);
        }
        assert!((u.perimeter() - 14.0).abs() < 1e-12);
        u.insert(p(2.0, 1.0)); // interior: unchanged
        assert!((u.perimeter() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn hull_error_is_bounded_by_d_over_r() {
        // Lemma 3.2: uncertainty height O(D/r); test the directed Hausdorff
        // distance from the true hull to the uniform hull.
        use crate::exact::ExactHull;
        let pts: Vec<Point2> = (0..2000)
            .map(|i| {
                let t = core::f64::consts::TAU * (i as f64) * 0.618033988749;
                p(t.cos() * 5.0, t.sin() * 5.0)
            })
            .collect();
        for r in [16u32, 32, 64] {
            let mut u = UniformHull::new(r);
            let mut ex = ExactHull::new();
            for &q in &pts {
                u.insert(q);
                ex.insert(q);
            }
            let err = u.hull().directed_hausdorff_from(&ex.hull());
            let d = 10.0;
            let bound = core::f64::consts::PI * d / r as f64;
            assert!(err <= bound, "r={r}: err {err} > πD/r = {bound}");
            assert!(err > 0.0, "approximation is not exact for a circle");
        }
    }

    #[test]
    fn runs_partition_is_maintained() {
        let pts = lcg_points(5, 300, 8.0);
        let mut u = UniformHull::new(32);
        for &q in &pts {
            u.insert(q);
            assert!(u.runs_partition_all(), "runs must always partition 0..r");
        }
    }

    #[test]
    fn sample_size_bounded_by_r() {
        let pts = lcg_points(6, 1000, 8.0);
        let mut u = UniformHull::new(16);
        for &q in &pts {
            u.insert(q);
        }
        assert!(u.sample_size() <= 16);
        assert!(u.sample_size() >= 3);
    }
}
