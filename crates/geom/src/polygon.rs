//! The [`ConvexPolygon`] type: an immutable, validated, counterclockwise
//! convex vertex cycle. All hull summaries hand out their state as a
//! `ConvexPolygon`, and all queries (§6 of the paper) consume them.

use crate::hull::monotone_chain;
use crate::point::{Point2, Vec2};
use crate::predicates::{on_segment, orient2d_sign};
use core::cmp::Ordering;

/// A convex polygon with vertices in counterclockwise order.
///
/// Degenerate cases are first-class: zero vertices (empty), one (a point),
/// two (a segment). With three or more vertices the polygon is *strictly*
/// convex — no duplicate vertices, no collinear triples — which the binary
/// searches in [`crate::locate`] and [`crate::tangent`] rely on.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvexPolygon {
    verts: Vec<Point2>,
}

impl ConvexPolygon {
    /// Builds the convex hull of arbitrary points (the safe constructor).
    pub fn hull_of(points: &[Point2]) -> Self {
        ConvexPolygon {
            verts: monotone_chain(points),
        }
    }

    /// Recomputes `self` as the convex hull of `points`, reusing this
    /// polygon's vertex buffer and the caller's `scratch` buffer.
    ///
    /// Equivalent to `*self = ConvexPolygon::hull_of(points)` but free of
    /// heap allocations once both buffers are warm — the building block for
    /// the summary crate's allocation-free ingestion hot paths.
    pub fn assign_hull_of(&mut self, points: &[Point2], scratch: &mut Vec<Point2>) {
        scratch.clear();
        scratch.extend(points.iter().copied().filter(|p| p.is_finite()));
        let mut verts = core::mem::take(&mut self.verts);
        crate::hull::monotone_chain_with(scratch, &mut verts, false);
        self.verts = verts;
    }

    /// Recomputes `self` as the convex hull of `cycle`, a closed sequence
    /// expected to be in weakly convex counterclockwise position — repeats
    /// and collinear runs allowed — such as the extrema of a direction fan
    /// listed in direction order.
    ///
    /// When the expectation holds this is one linear pass with no sort:
    /// repeats collapse, collinear middles drop (exact [`orient2d_sign`]),
    /// and the cycle starts at its lexicographically smallest vertex. It
    /// falls back to [`ConvexPolygon::assign_hull_of`] on a reflex turn, a
    /// collinear turn that doubles back, a cycle winding more than once, a
    /// result with fewer than 3 vertices, or input that `lex_cmp` and `==`
    /// disagree on (a non-finite point or an `x` of `-0.0`). Either way the
    /// result is bit-identical to `ConvexPolygon::hull_of(cycle)`.
    pub fn assign_hull_of_ccw_cycle(&mut self, cycle: &[Point2], scratch: &mut Vec<Point2>) {
        let mut verts = core::mem::take(&mut self.verts);
        let strict = strict_ccw_cycle(cycle, &mut verts);
        self.verts = verts;
        if !strict {
            self.assign_hull_of(cycle, scratch);
        }
    }

    /// Wraps a vertex list that is already a strictly convex ccw cycle.
    ///
    /// Returns `None` if validation fails. Use [`ConvexPolygon::hull_of`]
    /// when unsure.
    pub fn from_ccw(verts: Vec<Point2>) -> Option<Self> {
        let p = ConvexPolygon { verts };
        p.is_valid().then_some(p)
    }

    /// Wraps a vertex list without validation.
    ///
    /// The caller promises the list is a strictly convex ccw cycle (or a
    /// degenerate 0/1/2-vertex case with distinct vertices). Violating this
    /// breaks query correctness but not memory safety. Debug builds assert.
    pub fn from_ccw_unchecked(verts: Vec<Point2>) -> Self {
        let p = ConvexPolygon { verts };
        debug_assert!(p.is_valid(), "from_ccw_unchecked given invalid cycle");
        p
    }

    /// The empty polygon.
    pub fn empty() -> Self {
        ConvexPolygon { verts: Vec::new() }
    }

    /// Test-only escape hatch: wraps a vertex list with *no* validation and
    /// no debug assertion, so kernel tests can exercise the degenerate-input
    /// hardening paths (collinear chains, duplicate vertices) that
    /// [`ConvexPolygon::from_ccw_unchecked`] only admits in release builds.
    #[cfg(test)]
    pub(crate) fn from_ccw_unvalidated(verts: Vec<Point2>) -> Self {
        ConvexPolygon { verts }
    }

    fn is_valid(&self) -> bool {
        let n = self.verts.len();
        if !self.verts.iter().all(|v| v.is_finite()) {
            return false;
        }
        match n {
            0 | 1 => true,
            2 => self.verts[0] != self.verts[1],
            _ => (0..n).all(|i| {
                orient2d_sign(
                    self.verts[i],
                    self.verts[(i + 1) % n],
                    self.verts[(i + 2) % n],
                ) == Ordering::Greater
            }),
        }
    }

    /// Vertices in counterclockwise order.
    #[inline]
    pub fn vertices(&self) -> &[Point2] {
        &self.verts
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// `true` iff the polygon has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Vertex by cyclic index (`i` may exceed `len`).
    #[inline]
    pub fn vertex(&self, i: usize) -> Point2 {
        self.verts[i % self.verts.len()]
    }

    /// Iterator over directed edges `(v_i, v_{i+1})`. Empty for fewer than
    /// 2 vertices; a 2-vertex polygon yields both directed copies.
    pub fn edges(&self) -> impl Iterator<Item = (Point2, Point2)> + '_ {
        let n = self.verts.len();
        let count = if n < 2 { 0 } else { n };
        (0..count).map(move |i| (self.verts[i], self.verts[(i + 1) % n]))
    }

    /// Perimeter (0 for <2 vertices; `2·|ab|` for a segment, matching the
    /// boundary-length convention used for the paper's perimeter `P`).
    pub fn perimeter(&self) -> f64 {
        match self.verts.len() {
            0 | 1 => 0.0,
            2 => 2.0 * self.verts[0].distance(self.verts[1]),
            _ => self.edges().map(|(a, b)| a.distance(b)).sum(),
        }
    }

    /// Area by the shoelace formula (0 for degenerate polygons).
    pub fn area(&self) -> f64 {
        if self.verts.len() < 3 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (a, b) in self.edges() {
            acc += a.x * b.y - b.x * a.y;
        }
        acc * 0.5
    }

    /// Centroid. `None` when empty. Degenerate polygons use the vertex mean.
    pub fn centroid(&self) -> Option<Point2> {
        match self.verts.len() {
            0 => None,
            1 => Some(self.verts[0]),
            2 => Some(self.verts[0].midpoint(self.verts[1])),
            _ => {
                let a = self.area();
                if a <= f64::EPSILON {
                    // Nearly degenerate: fall back to vertex mean.
                    let n = self.verts.len() as f64;
                    let (sx, sy) = self
                        .verts
                        .iter()
                        .fold((0.0, 0.0), |(sx, sy), v| (sx + v.x, sy + v.y));
                    return Some(Point2::new(sx / n, sy / n));
                }
                let mut cx = 0.0;
                let mut cy = 0.0;
                for (p, q) in self.edges() {
                    let w = p.x * q.y - q.x * p.y;
                    cx += (p.x + q.x) * w;
                    cy += (p.y + q.y) * w;
                }
                Some(Point2::new(cx / (6.0 * a), cy / (6.0 * a)))
            }
        }
    }

    /// Exact containment test (boundary counts as inside), `O(n)`.
    ///
    /// For the `O(log n)` version used in hot paths see
    /// [`crate::locate::contains`].
    pub fn contains_linear(&self, p: Point2) -> bool {
        match self.verts.len() {
            0 => false,
            1 => self.verts[0] == p,
            2 => on_segment(self.verts[0], self.verts[1], p),
            n => (0..n).all(|i| {
                orient2d_sign(self.verts[i], self.verts[(i + 1) % n], p) != Ordering::Less
            }),
        }
    }

    /// Support value `max_v v·dir` over the vertices. `None` when the
    /// polygon is empty or `dir` is non-finite (a NaN/infinite direction
    /// has no meaningful support value, and `max` would silently absorb
    /// the NaN into an arbitrary answer).
    pub fn support(&self, dir: Vec2) -> Option<f64> {
        if !dir.is_finite() {
            return None;
        }
        self.verts
            .iter()
            .map(|v| v.dot(dir))
            .fold(None, |acc, d| match acc {
                None => Some(d),
                Some(m) => Some(m.max(d)),
            })
    }

    /// Extreme vertex in direction `dir` by linear scan (`O(n)`); for the
    /// binary-search version see [`crate::locate::extreme_vertex`].
    pub fn extreme_linear(&self, dir: Vec2) -> Option<Point2> {
        self.verts
            .iter()
            .copied()
            .max_by(|a, b| a.dot(dir).total_cmp(&b.dot(dir)))
    }

    /// Euclidean distance from `p` to the polygon (0 if inside), `O(n)`.
    pub fn distance_to_point(&self, p: Point2) -> f64 {
        match self.verts.len() {
            0 => f64::INFINITY,
            1 => self.verts[0].distance(p),
            2 => crate::line::Segment::new(self.verts[0], self.verts[1]).distance_to_point(p),
            _ => {
                if self.contains_linear(p) {
                    return 0.0;
                }
                self.boundary_distance(p)
            }
        }
    }

    /// Euclidean distance from `p` to the polygon **boundary**, `O(n)` —
    /// no containment test, so for an interior point this is the positive
    /// distance to the nearest edge rather than 0.
    ///
    /// Callers that already know `p` is outside (e.g. a failed
    /// [`crate::locate::contains`]) get [`distance_to_point`]'s answer for
    /// one edge scan instead of two.
    ///
    /// [`distance_to_point`]: ConvexPolygon::distance_to_point
    pub fn boundary_distance(&self, p: Point2) -> f64 {
        match self.verts.len() {
            0 => f64::INFINITY,
            1 => self.verts[0].distance(p),
            _ => self
                .edges()
                .map(|(a, b)| crate::line::Segment::new(a, b).distance_to_point(p))
                .fold(f64::INFINITY, f64::min),
        }
    }

    /// Directed Hausdorff distance from `other`'s vertices to this polygon:
    /// `max_{v in other} dist(v, self)`. This is exactly the paper's error
    /// measure "distance between the true hull and the sample hull" when
    /// `other` is the true hull and `self` the approximation (the maximum is
    /// attained at a vertex of the true hull).
    pub fn directed_hausdorff_from(&self, other: &ConvexPolygon) -> f64 {
        other
            .vertices()
            .iter()
            .map(|&v| self.distance_to_point(v))
            .fold(0.0, f64::max)
    }

    /// Consumes the polygon, returning its vertices.
    pub fn into_vertices(self) -> Vec<Point2> {
        self.verts
    }

    /// Appends the raw wire encoding to `out`: a little-endian `u64`
    /// vertex count followed by each vertex's [`Point2::to_le_bytes`].
    /// The encoding is bit-exact: [`ConvexPolygon::decode_raw`] restores
    /// an identical polygon.
    pub fn encode_raw(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.verts.len() as u64).to_le_bytes());
        for v in &self.verts {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Decodes a polygon written by [`ConvexPolygon::encode_raw`] from the
    /// front of `bytes`, returning it with the number of bytes consumed.
    ///
    /// Hardened: returns `None` on truncated input, on an implausible
    /// vertex count, or when the decoded vertex list is not a strictly
    /// convex ccw cycle (the same validation as [`ConvexPolygon::from_ccw`])
    /// — never panics.
    pub fn decode_raw(bytes: &[u8]) -> Option<(ConvexPolygon, usize)> {
        let count_bytes: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        let count = u64::from_le_bytes(count_bytes);
        let need = (count as usize).checked_mul(16)?.checked_add(8)?;
        if bytes.len() < need {
            return None;
        }
        let mut verts = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let start = 8 + 16 * i;
            let raw: [u8; 16] = bytes[start..start + 16].try_into().ok()?;
            verts.push(Point2::from_le_bytes(raw));
        }
        ConvexPolygon::from_ccw(verts).map(|poly| (poly, need))
    }
}

/// Bit pattern of `-0.0`.
const NEG_ZERO_BITS: u64 = 0x8000_0000_0000_0000;

/// The linear pass behind [`ConvexPolygon::assign_hull_of_ccw_cycle`].
/// Writes the corners of `cycle` into `out` in counterclockwise order from
/// the lexicographically smallest point and returns `true`; returns
/// `false` (leaving `out` unspecified) unless `cycle` is a weakly convex
/// ccw cycle that winds once and has at least 3 corners.
///
/// Why the result equals the monotone chain's: every dropped point repeats
/// a kept one or lies strictly between two kept points on a line, so the
/// kept points have the input's hull. All kept turns are strictly left and
/// lexicographic order rises once and falls once around them (turning
/// number 1), so they are exactly that hull's corners, in its order.
/// Repeats keep their `lex_cmp`-smallest copy, as sort + dedup does; with
/// no `x` of `-0.0`, copies of one point differ at most in the sign of a
/// zero `y`, which sorts them next to each other.
fn strict_ccw_cycle(cycle: &[Point2], out: &mut Vec<Point2>) -> bool {
    out.clear();
    if cycle.len() < 3 {
        return false;
    }
    let mut start = 0;
    for (i, p) in cycle.iter().enumerate() {
        if !p.is_finite() || p.x.to_bits() == NEG_ZERO_BITS {
            return false;
        }
        if p.lex_cmp(cycle[start]) == Ordering::Less {
            start = i;
        }
    }
    for &p in cycle[start..].iter().chain(&cycle[..start]) {
        if let Some(top) = out.last_mut() {
            if *top == p {
                if p.lex_cmp(*top) == Ordering::Less {
                    *top = p;
                }
                continue;
            }
        }
        if !pop_collinear_middles(out, p) {
            return false;
        }
        out.push(p);
    }
    // Close the cycle at its start, the smallest copy of its point.
    let first = out[0];
    if out.len() > 1 && out[out.len() - 1] == first {
        out.pop();
    }
    if !pop_collinear_middles(out, first) || out.len() < 3 {
        return false;
    }
    let m = out.len();
    if orient2d_sign(out[m - 1], first, out[1]) != Ordering::Greater {
        return false;
    }
    let mut peaks = 0;
    let mut rising = true;
    for i in 0..m {
        let up = out[(i + 1) % m].lex_cmp(out[i]) == Ordering::Greater;
        peaks += usize::from(rising && !up);
        rising = up;
    }
    peaks == 1
}

/// Pops the top of `out` while it lies strictly between its predecessor and
/// `p` on one line; `false` on a right turn or a collinear turn that
/// doubles back.
fn pop_collinear_middles(out: &mut Vec<Point2>, p: Point2) -> bool {
    while let [.., a, b] = *out.as_slice() {
        match orient2d_sign(a, b, p) {
            Ordering::Greater => return true,
            Ordering::Equal if strictly_between(a, b, p) => {
                out.pop();
            }
            _ => return false,
        }
    }
    true
}

/// For collinear `a`, `b`, `c`: `b` lies strictly between the other two.
fn strictly_between(a: Point2, b: Point2, c: Point2) -> bool {
    let ab = a.lex_cmp(b);
    ab != Ordering::Equal && ab == b.lex_cmp(c)
}

#[cfg(test)]
// Kernel unit tests assert exact values (signs, sentinels, algebraic
// identities the code guarantees bit-for-bit), so strict float
// equality is the point, not a bug.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::from_ccw(vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]).unwrap()
    }

    #[test]
    fn validation() {
        assert!(ConvexPolygon::from_ccw(vec![]).is_some());
        assert!(ConvexPolygon::from_ccw(vec![p(0.0, 0.0)]).is_some());
        assert!(ConvexPolygon::from_ccw(vec![p(0.0, 0.0), p(1.0, 0.0)]).is_some());
        assert!(ConvexPolygon::from_ccw(vec![p(0.0, 0.0), p(0.0, 0.0)]).is_none());
        // Clockwise square rejected.
        assert!(
            ConvexPolygon::from_ccw(vec![p(0.0, 0.0), p(0.0, 1.0), p(1.0, 1.0), p(1.0, 0.0)])
                .is_none()
        );
        // Collinear triple rejected (not strictly convex).
        assert!(
            ConvexPolygon::from_ccw(vec![p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0), p(1.0, 1.0)])
                .is_none()
        );
    }

    #[test]
    fn area_perimeter_centroid() {
        let sq = unit_square();
        assert!((sq.area() - 1.0).abs() < 1e-15);
        assert!((sq.perimeter() - 4.0).abs() < 1e-15);
        assert_eq!(sq.centroid().unwrap(), p(0.5, 0.5));
        // Segment conventions.
        let seg = ConvexPolygon::from_ccw(vec![p(0.0, 0.0), p(3.0, 0.0)]).unwrap();
        assert_eq!(seg.area(), 0.0);
        assert_eq!(seg.perimeter(), 6.0);
        assert_eq!(seg.centroid().unwrap(), p(1.5, 0.0));
    }

    #[test]
    fn containment() {
        let sq = unit_square();
        assert!(sq.contains_linear(p(0.5, 0.5)));
        assert!(sq.contains_linear(p(0.0, 0.0)), "vertices are inside");
        assert!(sq.contains_linear(p(0.5, 0.0)), "edges are inside");
        assert!(!sq.contains_linear(p(1.5, 0.5)));
        assert!(!sq.contains_linear(p(0.5, -1e-12)));
    }

    #[test]
    fn support_and_extreme() {
        let sq = unit_square();
        let d = Vec2::new(1.0, 2.0);
        assert_eq!(sq.support(d), Some(3.0));
        assert_eq!(sq.extreme_linear(d), Some(p(1.0, 1.0)));
        assert_eq!(ConvexPolygon::empty().support(d), None);
    }

    #[test]
    fn point_distance() {
        let sq = unit_square();
        assert_eq!(sq.distance_to_point(p(0.5, 0.5)), 0.0);
        assert!((sq.distance_to_point(p(2.0, 0.5)) - 1.0).abs() < 1e-15);
        assert!((sq.distance_to_point(p(2.0, 2.0)) - 2.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn hausdorff_between_nested_squares() {
        let outer =
            ConvexPolygon::from_ccw(vec![p(-1.0, -1.0), p(2.0, -1.0), p(2.0, 2.0), p(-1.0, 2.0)])
                .unwrap();
        let inner = unit_square();
        assert_eq!(
            outer.directed_hausdorff_from(&inner),
            0.0,
            "inner inside outer"
        );
        let d = inner.directed_hausdorff_from(&outer);
        assert!(
            (d - 2.0f64.sqrt()).abs() < 1e-12,
            "corner of outer to inner corner"
        );
    }

    #[test]
    fn hull_of_filters_and_orders() {
        let poly = ConvexPolygon::hull_of(&[
            p(1.0, 1.0),
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(1.0, 2.0),
            p(1.0, 0.5),
        ]);
        assert_eq!(poly.len(), 3);
        assert!(poly.contains_linear(p(1.0, 1.0)));
    }

    #[test]
    fn assign_hull_of_matches_hull_of() {
        let mut poly = ConvexPolygon::empty();
        let mut scratch = Vec::new();
        for pts in [
            vec![],
            vec![p(1.0, 1.0)],
            vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 1.0), p(1.0, 0.2)],
            (0..50)
                .map(|i| {
                    let t = i as f64 * 0.37;
                    p(t.cos() * 3.0, t.sin() * 2.0)
                })
                .collect(),
        ] {
            poly.assign_hull_of(&pts, &mut scratch);
            assert_eq!(poly, ConvexPolygon::hull_of(&pts));
        }
    }

    #[test]
    fn edges_iterator_conventions() {
        assert_eq!(ConvexPolygon::empty().edges().count(), 0);
        let one = ConvexPolygon::from_ccw(vec![p(0.0, 0.0)]).unwrap();
        assert_eq!(one.edges().count(), 0);
        let seg = ConvexPolygon::from_ccw(vec![p(0.0, 0.0), p(1.0, 0.0)]).unwrap();
        let e: Vec<_> = seg.edges().collect();
        assert_eq!(
            e,
            vec![(p(0.0, 0.0), p(1.0, 0.0)), (p(1.0, 0.0), p(0.0, 0.0))]
        );
        assert_eq!(unit_square().edges().count(), 4);
    }

    #[test]
    fn raw_codec_round_trips_all_degeneracies() {
        let cases = [
            ConvexPolygon::empty(),
            ConvexPolygon::from_ccw(vec![p(1.5, -2.25)]).unwrap(),
            ConvexPolygon::from_ccw(vec![p(0.0, 0.0), p(3.0, 1.0)]).unwrap(),
            unit_square(),
        ];
        for poly in &cases {
            let mut bytes = vec![0xAA]; // leading junk the codec must skip past
            let before = bytes.len();
            poly.encode_raw(&mut bytes);
            let written = bytes.len() - before;
            bytes.extend_from_slice(b"trailing"); // codec must not over-read
            let (decoded, used) = ConvexPolygon::decode_raw(&bytes[before..]).expect("round trip");
            assert_eq!(used, written);
            assert_eq!(&decoded, poly);
        }
    }

    #[test]
    fn raw_decode_rejects_garbage() {
        let mut bytes = Vec::new();
        unit_square().encode_raw(&mut bytes);
        // Truncations at every length must fail cleanly.
        for len in 0..bytes.len() {
            assert!(ConvexPolygon::decode_raw(&bytes[..len]).is_none(), "{len}");
        }
        // An absurd vertex count must not allocate or panic.
        let huge = u64::MAX.to_le_bytes();
        assert!(ConvexPolygon::decode_raw(&huge).is_none());
        // A non-convex vertex cycle is rejected by validation.
        let mut bad = Vec::new();
        bad.extend_from_slice(&4u64.to_le_bytes());
        for v in [p(0.0, 0.0), p(1.0, 1.0), p(1.0, 0.0), p(0.0, 1.0)] {
            bad.extend_from_slice(&v.to_le_bytes());
        }
        assert!(ConvexPolygon::decode_raw(&bad).is_none());
    }
}
