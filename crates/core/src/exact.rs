//! Exact insert-only convex hull in `O(log n)` amortized time per point.
//!
//! This is the evaluation substrate: experiments measure approximate
//! summaries against this ground truth. It maintains the upper and lower
//! hull chains in ordered maps keyed by `x`; each insertion does two map
//! searches plus amortized `O(1)` deletions (every point enters and leaves
//! a chain at most once).
//!
//! Note this is **not** a small-space summary — it stores every hull vertex
//! (possibly all `n` points). The paper's point is precisely that one can
//! do with `2r + 1` points instead; see [`crate::adaptive`].

use crate::batch::{incircle, CertCache, BATCH_LEAF};
use crate::summary::{HullCache, HullSummary, Mergeable};
use core::cmp::Ordering;
use geom::predicates::orient2d_sign;
use geom::{ConvexPolygon, Point2};
use std::collections::BTreeMap;

/// Totally ordered `f64` key (finite values only; `-0.0` is normalised to
/// `+0.0` by [`FiniteF64::new`] so that [`f64::total_cmp`] coincides with
/// the IEEE partial order on every stored key).
#[derive(Clone, Copy, Debug, PartialEq)]
struct FiniteF64(f64);

impl FiniteF64 {
    #[inline]
    fn new(x: f64) -> Self {
        // `+ 0.0` maps -0.0 to +0.0 and is the identity on every other
        // finite value.
        FiniteF64(x + 0.0)
    }
}

impl Eq for FiniteF64 {}
impl PartialOrd for FiniteF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FiniteF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Which chain a [`Chain`] instance maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Upper,
    Lower,
}

/// One monotone hull chain (upper or lower), keyed by `x`.
#[derive(Clone, Debug)]
struct Chain {
    side: Side,
    pts: BTreeMap<FiniteF64, f64>,
}

impl Chain {
    fn new(side: Side) -> Self {
        Chain {
            side,
            pts: BTreeMap::new(),
        }
    }

    #[inline]
    fn better(&self, candidate: f64, incumbent: f64) -> bool {
        match self.side {
            Side::Upper => candidate > incumbent,
            Side::Lower => candidate < incumbent,
        }
    }

    /// `true` iff walking left-to-right the triple `(a, b, c)` keeps `b` on
    /// the strict chain (upper chains turn clockwise, lower chains turn
    /// counterclockwise).
    #[inline]
    fn keeps(&self, a: Point2, b: Point2, c: Point2) -> bool {
        let want = match self.side {
            Side::Upper => Ordering::Less,
            Side::Lower => Ordering::Greater,
        };
        orient2d_sign(a, b, c) == want
    }

    fn prev(&self, x: f64) -> Option<Point2> {
        self.pts
            .range(..FiniteF64::new(x))
            .next_back()
            .map(|(k, &v)| Point2::new(k.0, v))
    }

    fn next(&self, x: f64) -> Option<Point2> {
        use core::ops::Bound::*;
        self.pts
            .range((Excluded(FiniteF64::new(x)), Unbounded))
            .next()
            .map(|(k, &v)| Point2::new(k.0, v))
    }

    /// Inserts `p`, restoring strict convexity. Returns `true` if the chain
    /// changed.
    fn insert(&mut self, p: Point2) -> bool {
        // Same-x handling: keep only the better y.
        if let Some(&y) = self.pts.get(&FiniteF64::new(p.x)) {
            if !self.better(p.y, y) {
                return false;
            }
            self.pts.remove(&FiniteF64::new(p.x));
        }
        let pred = self.prev(p.x);
        let succ = self.next(p.x);
        if let (Some(a), Some(b)) = (pred, succ) {
            // Interior insertion: p must beat the segment a..b strictly.
            if !self.keeps(a, p, b) {
                return false;
            }
        }
        self.pts.insert(FiniteF64::new(p.x), p.y);

        // Fix convexity to the right of p.
        while let Some(n1) = self.next(p.x) {
            let Some(n2) = self.next(n1.x) else { break };
            if self.keeps(p, n1, n2) {
                break;
            }
            self.pts.remove(&FiniteF64::new(n1.x));
        }
        // Fix convexity to the left of p.
        while let Some(p1) = self.prev(p.x) {
            let Some(p2) = self.prev(p1.x) else { break };
            if self.keeps(p2, p1, p) {
                break;
            }
            self.pts.remove(&FiniteF64::new(p1.x));
        }
        true
    }

    fn iter(&self) -> impl DoubleEndedIterator<Item = Point2> + '_ {
        self.pts.iter().map(|(k, &v)| Point2::new(k.0, v))
    }

    fn len(&self) -> usize {
        self.pts.len()
    }
}

/// Exact, insert-only convex hull of a point stream.
///
/// # Example
/// ```
/// use adaptive_hull::{ExactHull, HullSummary};
/// use geom::Point2;
///
/// let mut hull = ExactHull::new();
/// for p in [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)] {
///     hull.insert(Point2::new(p.0, p.1));
/// }
/// assert_eq!(hull.hull().len(), 3); // (2,1) is interior
/// ```
#[derive(Clone, Debug)]
pub struct ExactHull {
    upper: Chain,
    lower: Chain,
    seen: u64,
    cache: HullCache,
}

impl Default for ExactHull {
    fn default() -> Self {
        Self::new()
    }
}

impl ExactHull {
    /// Creates an empty exact hull.
    pub fn new() -> Self {
        ExactHull {
            upper: Chain::new(Side::Upper),
            lower: Chain::new(Side::Lower),
            seen: 0,
            cache: HullCache::new(),
        }
    }

    /// Inserts a point; returns `true` iff the hull changed. Non-finite
    /// points are silently dropped without being counted (see the
    /// [`HullSummary`] non-finite-input policy).
    pub fn insert_point(&mut self, p: Point2) -> bool {
        if !p.is_finite() {
            return false;
        }
        self.seen += 1;
        let changed = self.insert_chains(p);
        if changed {
            self.cache.invalidate();
        }
        changed
    }

    /// Chain updates without seen/cache bookkeeping.
    #[inline]
    fn insert_chains(&mut self, p: Point2) -> bool {
        let u = self.upper.insert(p);
        let l = self.lower.insert(p);
        u || l
    }

    /// Exact containment test against the current hull.
    pub fn contains(&self, p: Point2) -> bool {
        geom::locate::contains(self.hull_ref(), p)
    }

    /// Number of vertices currently on the hull.
    pub fn hull_size(&self) -> usize {
        let u = self.upper.len();
        let l = self.lower.len();
        if l <= 2 && u <= 2 {
            // Degenerate: count distinct points.
            return self.hull_ref().len();
        }
        // Endpoints shared between the chains are counted once.
        u + l - 2
    }

    // Exact identity comparisons of stored coordinates: both sides come
    // from the same normalised `FiniteF64` keys, so `==` is the precise
    // "same hull column" test, not an approximate-equality smell.
    #[allow(clippy::float_cmp)]
    fn build_hull(&self) -> ConvexPolygon {
        // ccw cycle: lower chain left-to-right, then upper chain
        // right-to-left, dropping the shared endpoints from the upper pass.
        let lower: Vec<Point2> = self.lower.iter().collect();
        if lower.is_empty() {
            return ConvexPolygon::empty();
        }
        let mut cycle = lower;
        let first_x = cycle[0].x;
        let last_x = cycle[cycle.len() - 1].x;
        for p in self.upper.iter().rev() {
            if p.x == last_x || p.x == first_x {
                // Chain endpoints: already represented unless the extreme
                // column has two distinct hull points (upper != lower y).
                let twin = if p.x == last_x {
                    cycle[cycle.len() - 1]
                } else {
                    cycle[0]
                };
                if p == twin {
                    continue;
                }
            }
            cycle.push(p);
        }
        // Remove a possible duplicate when the left column contributed the
        // same point twice.
        if cycle.len() > 1 && cycle[cycle.len() - 1] == cycle[0] {
            cycle.pop();
        }
        geom::hull::canonicalize_ccw(&mut cycle);
        if cycle.len() <= 2 {
            cycle.dedup();
            return ConvexPolygon::from_ccw_unchecked(cycle);
        }
        ConvexPolygon::from_ccw_unchecked(cycle)
    }
}

impl ExactHull {
    /// Snapshot payload: seen count plus both chains' points in `x` order
    /// (see [`crate::snapshot`] for the envelope around it).
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_point, put_u64};
        put_u64(out, self.seen);
        for chain in [&self.upper, &self.lower] {
            put_u64(out, chain.len() as u64);
            for p in chain.iter() {
                put_point(out, p);
            }
        }
    }

    /// Inverse of [`ExactHull::snapshot_payload`]. Rejects non-finite
    /// coordinates (which the insert boundary would never have admitted
    /// and whose ordered-map keys would panic downstream).
    pub(crate) fn from_snapshot_payload(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let seen = r.u64()?;
        let mut chains = [Chain::new(Side::Upper), Chain::new(Side::Lower)];
        for chain in &mut chains {
            let count = r.count(16)?;
            let mut prev_x = f64::NEG_INFINITY;
            for _ in 0..count {
                let p = r.point()?;
                if !p.is_finite() {
                    return Err(SnapshotError::Malformed("non-finite chain point"));
                }
                if p.x <= prev_x {
                    return Err(SnapshotError::Malformed("chain not strictly x-sorted"));
                }
                prev_x = p.x;
                chain.pts.insert(FiniteF64::new(p.x), p.y);
            }
        }
        let [upper, lower] = chains;
        Ok(ExactHull {
            upper,
            lower,
            seen,
            cache: HullCache::new(),
        })
    }
}

impl HullSummary for ExactHull {
    fn insert(&mut self, p: Point2) {
        self.insert_point(p);
    }

    fn insert_batch(&mut self, points: &[Point2]) {
        if points.iter().any(|p| !p.is_finite()) {
            // Drop non-finite points up front (the loop path drops them
            // one by one); the recursion then runs the all-finite fast
            // path below, preserving batch ≡ loop equivalence.
            let finite: Vec<Point2> = points.iter().copied().filter(|p| p.is_finite()).collect();
            self.insert_batch(&finite);
            return;
        }
        if points.len() <= BATCH_LEAF {
            for &p in points {
                self.insert_point(p);
            }
            return;
        }
        // Interior-certificate fast path: a point strictly inside the
        // current hull leaves both chains untouched (its insertions fail
        // the strict-convexity tests), so a point inside the hull's
        // inscribed circle is certified a no-op and skipped for two
        // multiplies instead of two BTree searches. The certificate is
        // rebuilt from the chains only after a hull change; cache
        // invalidations coalesce into one per batch. Non-finite points
        // were filtered out above, so every point here is chain-safe.
        let mut cert = CertCache::new(32);
        let mut changed = false;
        for &p in points {
            if cert.covers(p, || incircle(&self.build_hull())) {
                self.seen += 1;
                continue;
            }
            self.seen += 1;
            if self.insert_chains(p) {
                changed = true;
                cert.invalidate();
            }
        }
        if changed {
            self.cache.invalidate();
        }
    }

    fn hull_ref(&self) -> &ConvexPolygon {
        self.cache.get_or_rebuild(|| self.build_hull())
    }

    fn hull_generation(&self) -> u64 {
        self.cache.generation()
    }

    fn sample_size(&self) -> usize {
        self.hull_size()
    }

    fn points_seen(&self) -> u64 {
        self.seen
    }

    fn name(&self) -> &'static str {
        "exact"
    }

    fn error_bound(&self) -> Option<f64> {
        Some(0.0)
    }
}

impl Mergeable for ExactHull {
    fn sample_points(&self) -> Vec<Point2> {
        self.hull_ref().vertices().to_vec()
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
    use geom::hull::monotone_chain;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn check_matches_batch(pts: &[Point2]) {
        let mut h = ExactHull::new();
        for &q in pts {
            h.insert_point(q);
        }
        let want = monotone_chain(pts);
        let got = h.hull();
        assert_eq!(
            got.vertices(),
            want.as_slice(),
            "batch mismatch for {} pts",
            pts.len()
        );
    }

    #[test]
    fn simple_cases() {
        check_matches_batch(&[]);
        check_matches_batch(&[p(1.0, 1.0)]);
        check_matches_batch(&[p(1.0, 1.0), p(1.0, 1.0)]);
        check_matches_batch(&[p(0.0, 0.0), p(2.0, 0.0)]);
        check_matches_batch(&[p(0.0, 0.0), p(2.0, 0.0), p(1.0, 1.0)]);
        check_matches_batch(&[p(0.0, 0.0), p(2.0, 0.0), p(1.0, 0.0)]); // collinear
    }

    #[test]
    fn vertical_line_points() {
        check_matches_batch(&[p(1.0, 0.0), p(1.0, 5.0), p(1.0, 2.0), p(1.0, -3.0)]);
    }

    #[test]
    fn square_with_interior() {
        check_matches_batch(&[
            p(0.0, 0.0),
            p(4.0, 0.0),
            p(4.0, 4.0),
            p(0.0, 4.0),
            p(2.0, 2.0),
            p(2.0, 0.0),
            p(0.0, 2.0),
        ]);
    }

    #[test]
    fn insert_reports_change() {
        let mut h = ExactHull::new();
        assert!(h.insert_point(p(0.0, 0.0)));
        assert!(h.insert_point(p(2.0, 0.0)));
        assert!(h.insert_point(p(1.0, 2.0)));
        assert!(
            !h.insert_point(p(1.0, 0.5)),
            "interior point changes nothing"
        );
        assert!(
            !h.insert_point(p(1.0, 0.0)),
            "boundary point changes nothing"
        );
        assert!(h.insert_point(p(1.0, -2.0)));
        assert_eq!(h.points_seen(), 6);
    }

    #[test]
    fn pseudorandom_stream_matches_batch_at_checkpoints() {
        let mut seed = 0xabcdefu64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point2> = (0..800)
            .map(|_| p(next() * 20.0 - 10.0, next() * 6.0))
            .collect();
        let mut h = ExactHull::new();
        for (i, &q) in pts.iter().enumerate() {
            h.insert_point(q);
            if i % 97 == 0 || i + 1 == pts.len() {
                let want = monotone_chain(&pts[..=i]);
                assert_eq!(h.hull().vertices(), want.as_slice(), "at point {i}");
            }
        }
    }

    #[test]
    fn duplicate_and_collinear_heavy_stream() {
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push(p(i as f64, 0.0)); // bottom line
            pts.push(p(i as f64, 10.0)); // top line
            pts.push(p(25.0, i as f64 / 5.0)); // interior column
            pts.push(p(i as f64, 0.0)); // duplicates
        }
        check_matches_batch(&pts);
    }

    #[test]
    fn circle_keeps_every_point() {
        let pts: Vec<Point2> = (0..100)
            .map(|i| {
                let t = core::f64::consts::TAU * i as f64 / 100.0;
                p(t.cos(), t.sin())
            })
            .collect();
        let mut h = ExactHull::new();
        for &q in &pts {
            h.insert_point(q);
        }
        assert_eq!(h.hull_size(), 100);
        assert_eq!(h.hull().len(), 100);
    }

    #[test]
    fn contains_query() {
        let mut h = ExactHull::new();
        for &q in &[p(0.0, 0.0), p(4.0, 0.0), p(4.0, 4.0), p(0.0, 4.0)] {
            h.insert_point(q);
        }
        assert!(h.contains(p(2.0, 2.0)));
        assert!(h.contains(p(0.0, 0.0)));
        assert!(!h.contains(p(5.0, 2.0)));
    }

    #[test]
    fn adversarial_spiral_matches_batch() {
        let pts: Vec<Point2> = (0..300)
            .map(|i| {
                let t = 2.399963229728653 * i as f64;
                let r = 1.0 + 0.01 * i as f64;
                p(r * t.cos(), r * t.sin())
            })
            .collect();
        check_matches_batch(&pts);
    }
}
