//! Lines, segments, and the distance/intersection computations the hull
//! summaries need (supporting lines, uncertainty-triangle apexes,
//! point-to-segment distances).

use crate::point::{Point2, Vec2};

/// A line in implicit normal form: all `x` with `x · normal == offset`.
///
/// For a *supporting line* of a point set in direction `θ`, `normal` is the
/// unit vector of `θ` and `offset` is the support value — every point of the
/// set satisfies `x · normal <= offset`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Line {
    /// Line normal (need not be unit length unless stated).
    pub normal: Vec2,
    /// Offset such that the line is `{x : x·normal = offset}`.
    pub offset: f64,
}

impl Line {
    /// The supporting line through `p` with outward normal `normal`.
    #[inline]
    pub fn supporting(p: Point2, normal: Vec2) -> Line {
        Line {
            normal,
            offset: p.dot(normal),
        }
    }

    /// Line through two distinct points, with the normal pointing to the
    /// *left* of the direction `a -> b`.
    pub fn through(a: Point2, b: Point2) -> Line {
        let n = (b - a).perp();
        Line {
            normal: n,
            offset: a.dot(n),
        }
    }

    /// Signed distance from `p` to the line, positive on the normal side,
    /// in units of `|normal|` (true distance when the normal is unit).
    #[inline]
    pub fn signed_distance(&self, p: Point2) -> f64 {
        (p.dot(self.normal) - self.offset) / self.normal.norm()
    }

    /// How far `p` violates the half-plane `{x·normal <= offset}` (0 when
    /// inside), in true distance units.
    #[inline]
    pub fn violation(&self, p: Point2) -> f64 {
        self.signed_distance(p).max(0.0)
    }

    /// Intersection point of two lines, or `None` if (nearly) parallel.
    ///
    /// "Nearly" means the determinant of the normals is smaller than
    /// `eps · |n1| · |n2|` — callers that need exact parallelism tests should
    /// use the predicates module instead; the summaries only use this for
    /// uncertainty-triangle apexes where a far-away apex is handled by the
    /// caller.
    pub fn intersect(&self, other: &Line) -> Option<Point2> {
        let det = self.normal.cross(other.normal);
        let scale = self.normal.norm() * other.normal.norm();
        if det.abs() <= 1e-14 * scale {
            return None;
        }
        // Solve [n1; n2] x = [o1; o2] by Cramer's rule.
        let x = (self.offset * other.normal.y - other.offset * self.normal.y) / det;
        let y = (self.normal.x * other.offset - other.normal.x * self.offset) / det;
        let p = Point2::new(x, y);
        p.is_finite().then_some(p)
    }

    /// Translates the line by `delta` along its (unit-scaled) normal.
    #[inline]
    pub fn translated(&self, delta: f64) -> Line {
        Line {
            normal: self.normal,
            offset: self.offset + delta * self.normal.norm(),
        }
    }
}

/// A closed segment between two points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point2,
    /// Second endpoint.
    pub b: Point2,
}

impl Segment {
    /// Creates a segment.
    #[inline]
    pub const fn new(a: Point2, b: Point2) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint.
    #[inline]
    pub fn midpoint(&self) -> Point2 {
        self.a.midpoint(self.b)
    }

    /// Closest point on the segment to `p`.
    pub fn closest_point(&self, p: Point2) -> Point2 {
        let d = self.b - self.a;
        let len2 = d.norm_sq();
        if crate::predicates::degenerate_norm(len2) {
            return self.a;
        }
        let t = ((p - self.a).dot(d) / len2).clamp(0.0, 1.0);
        self.a + d * t
    }

    /// Euclidean distance from `p` to the segment.
    #[inline]
    pub fn distance_to_point(&self, p: Point2) -> f64 {
        p.distance(self.closest_point(p))
    }

    /// Minimum distance between two segments (0 if they intersect).
    pub fn distance_to_segment(&self, other: &Segment) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        self.distance_to_point(other.a)
            .min(self.distance_to_point(other.b))
            .min(other.distance_to_point(self.a))
            .min(other.distance_to_point(self.b))
    }

    /// Exact test: do the two closed segments share a point?
    pub fn intersects(&self, other: &Segment) -> bool {
        use crate::predicates::{on_segment, orient2d_sign};
        use core::cmp::Ordering::Equal;
        let (p1, p2, p3, p4) = (self.a, self.b, other.a, other.b);
        let d1 = orient2d_sign(p3, p4, p1);
        let d2 = orient2d_sign(p3, p4, p2);
        let d3 = orient2d_sign(p1, p2, p3);
        let d4 = orient2d_sign(p1, p2, p4);
        if d1 != Equal && d2 != Equal && d3 != Equal && d4 != Equal {
            return d1 != d2 && d3 != d4;
        }
        (d1 == Equal && on_segment(p3, p4, p1))
            || (d2 == Equal && on_segment(p3, p4, p2))
            || (d3 == Equal && on_segment(p1, p2, p3))
            || (d4 == Equal && on_segment(p1, p2, p4))
    }
}

/// The *uncertainty triangle* of a sampled-hull edge (paper §2).
///
/// For an edge `a -> b` whose endpoints are extreme in directions with unit
/// normals `na` (at `a`) and `nb` (at `b`), the triangle is bounded by the
/// segment `ab` and the two supporting lines. All true-hull vertices hidden
/// by the edge lie inside it.
#[derive(Clone, Copy, Debug)]
pub struct UncertaintyTriangle {
    /// The sampled edge.
    pub base: Segment,
    /// Apex: intersection of the two supporting lines, on either side of
    /// the base (`None` when the edge is degenerate or the supporting lines
    /// are nearly parallel).
    pub apex: Option<Point2>,
}

impl UncertaintyTriangle {
    /// Builds the uncertainty triangle for edge `(a, b)` with outward unit
    /// normals `na`, `nb` at the endpoints.
    ///
    /// The apex is where the two supporting lines meet, kept on whichever
    /// side of `ab` it falls. It is `None` only for a degenerate edge
    /// (`a == b`) or (nearly) parallel lines ([`Line::intersect`]). An apex
    /// on the inner side of `ab` arises when rounded extremum comparisons
    /// put the edge's normal just outside `[na, nb]`;
    /// [`UncertaintyTriangle::height`] measures its distance to the base
    /// segment like any other apex's.
    pub fn new(a: Point2, b: Point2, na: Vec2, nb: Vec2) -> Self {
        let base = Segment::new(a, b);
        if a == b {
            return UncertaintyTriangle { base, apex: None };
        }
        let la = Line::supporting(a, na);
        let lb = Line::supporting(b, nb);
        UncertaintyTriangle {
            base,
            apex: la.intersect(&lb),
        }
    }

    /// Height of the triangle: max distance from the apex to the base
    /// segment. Zero for flat/degenerate triangles.
    pub fn height(&self) -> f64 {
        match self.apex {
            Some(t) => self.base.distance_to_point(t),
            None => 0.0,
        }
    }

    /// Total length of the two non-base sides (`ℓ̃(e)` in the paper), used
    /// by the sample-weight function. Falls back to the base length when the
    /// apex is missing.
    pub fn slant_length(&self) -> f64 {
        match self.apex {
            Some(t) => self.base.a.distance(t) + t.distance(self.base.b),
            None => self.base.length(),
        }
    }

    /// `true` iff `p` lies inside the triangle region between the base and
    /// the two slant sides (closed). Flat triangles contain only base points.
    pub fn contains(&self, p: Point2) -> bool {
        use crate::predicates::{on_segment, orient2d_sign};
        let (a, b) = (self.base.a, self.base.b);
        match self.apex {
            None => on_segment(a, b, p),
            Some(t) => {
                // Triangle a, b, t — orientation-agnostic containment.
                let s1 = orient2d_sign(a, b, p);
                let s2 = orient2d_sign(b, t, p);
                let s3 = orient2d_sign(t, a, p);
                use core::cmp::Ordering::*;
                let has_pos = [s1, s2, s3].contains(&Greater);
                let has_neg = [s1, s2, s3].contains(&Less);
                !(has_pos && has_neg)
            }
        }
    }
}

#[cfg(test)]
// Kernel unit tests assert exact values (signs, sentinels, algebraic
// identities the code guarantees bit-for-bit), so strict float
// equality is the point, not a bug.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use core::f64::consts::FRAC_PI_4;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn supporting_line_contains_point() {
        let n = Vec2::from_angle(1.1);
        let q = p(3.0, -2.0);
        let l = Line::supporting(q, n);
        assert!(l.signed_distance(q).abs() < 1e-12);
        // Points further along the normal violate; opposite side does not.
        assert!(l.signed_distance(q + n) > 0.9);
        assert!(l.violation(q - n) == 0.0);
    }

    #[test]
    fn line_through_two_points() {
        let l = Line::through(p(0.0, 0.0), p(2.0, 0.0));
        // Normal points left of a->b, i.e. +y.
        assert!(l.signed_distance(p(1.0, 1.0)) > 0.0);
        assert!(l.signed_distance(p(1.0, -1.0)) < 0.0);
        assert!(l.signed_distance(p(5.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn intersect_basic_and_parallel() {
        let l1 = Line::supporting(p(0.0, 0.0), Vec2::new(1.0, 0.0));
        let l2 = Line::supporting(p(0.0, 0.0), Vec2::new(0.0, 1.0));
        assert_eq!(l1.intersect(&l2), Some(p(0.0, 0.0)));
        let l3 = Line::supporting(p(1.0, 5.0), Vec2::new(1.0, 0.0));
        assert_eq!(l1.intersect(&l3), None, "parallel lines");
    }

    #[test]
    fn translated_moves_along_normal() {
        let l = Line::supporting(p(0.0, 0.0), Vec2::new(0.0, 2.0)); // non-unit normal
        let l2 = l.translated(1.5);
        assert!((l2.signed_distance(p(7.0, 1.5))).abs() < 1e-12);
    }

    #[test]
    fn segment_distance() {
        let s = Segment::new(p(0.0, 0.0), p(4.0, 0.0));
        assert_eq!(s.distance_to_point(p(2.0, 3.0)), 3.0);
        assert_eq!(s.distance_to_point(p(-3.0, 4.0)), 5.0);
        assert_eq!(s.distance_to_point(p(7.0, 4.0)), 5.0);
        assert_eq!(s.closest_point(p(2.0, 3.0)), p(2.0, 0.0));
        // Degenerate segment.
        let d = Segment::new(p(1.0, 1.0), p(1.0, 1.0));
        assert_eq!(d.distance_to_point(p(4.0, 5.0)), 5.0);
    }

    #[test]
    fn segment_intersection() {
        let s1 = Segment::new(p(0.0, 0.0), p(4.0, 4.0));
        let s2 = Segment::new(p(0.0, 4.0), p(4.0, 0.0));
        assert!(s1.intersects(&s2));
        let s3 = Segment::new(p(5.0, 5.0), p(6.0, 6.0));
        assert!(!s1.intersects(&s3), "collinear, disjoint");
        let s4 = Segment::new(p(4.0, 4.0), p(6.0, 6.0));
        assert!(s1.intersects(&s4), "touching at an endpoint");
        assert_eq!(s1.distance_to_segment(&s2), 0.0);
        assert!((s1.distance_to_segment(&s3) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn uncertainty_triangle_symmetric_case() {
        // Edge from (-1,0) to (1,0), normals at +/-45 degrees from +y:
        // apex at (0,1), height 1.
        let a = p(-1.0, 0.0);
        let b = p(1.0, 0.0);
        let na = Vec2::from_angle(FRAC_PI_4 * 3.0); // up-left
        let nb = Vec2::from_angle(FRAC_PI_4); // up-right
        let t = UncertaintyTriangle::new(a, b, na, nb);
        let apex = t.apex.unwrap();
        assert!(apex.distance(p(0.0, 1.0)) < 1e-12);
        assert!((t.height() - 1.0).abs() < 1e-12);
        assert!((t.slant_length() - 2.0 * 2.0f64.sqrt()).abs() < 1e-12);
        assert!(t.contains(p(0.0, 0.5)));
        assert!(t.contains(a) && t.contains(b));
        assert!(!t.contains(p(0.0, 1.5)));
        assert!(!t.contains(p(0.0, -0.1)));
    }

    #[test]
    fn uncertainty_triangle_formula_matches_paper() {
        // Paper Eq. (1): height <= len(pq) * tan(theta/2) when the two
        // supporting-line angles split theta evenly.
        let theta: f64 = 0.3;
        let a = p(0.0, 0.0);
        let b = p(2.0, 0.0);
        let na = Vec2::from_angle(core::f64::consts::FRAC_PI_2 + theta / 2.0);
        let nb = Vec2::from_angle(core::f64::consts::FRAC_PI_2 - theta / 2.0);
        let t = UncertaintyTriangle::new(a, b, na, nb);
        let expect = 1.0 * (theta / 2.0).tan(); // half-length * tan(theta/2)
        assert!(
            (t.height() - expect).abs() < 1e-12,
            "{} vs {}",
            t.height(),
            expect
        );
    }

    #[test]
    fn inner_side_apex_is_kept_and_measured_to_the_base_segment() {
        // Swapped normals: the supporting lines meet straight below the
        // base's midpoint, on the side the normals point away from.
        let na = Vec2::from_angle(core::f64::consts::FRAC_PI_2 - 0.1);
        let nb = Vec2::from_angle(core::f64::consts::FRAC_PI_2 + 0.1);
        let t = UncertaintyTriangle::new(p(-1.0, 0.0), p(1.0, 0.0), na, nb);
        let apex = t.apex.expect("a finite inner-side apex is kept");
        assert!(apex.distance(p(0.0, -(0.1f64.tan()))) < 1e-12, "{apex:?}");
        assert!((t.height() - 0.1f64.tan()).abs() < 1e-12);

        // `b` loses to `a` in `nb`'s direction (b·nb < a·nb), as a rounded
        // comparison can make it: the apex falls below the base and beyond
        // `a`, so the height is its distance to `a`, not to the line.
        let (a, b) = (p(0.0, 0.0), p(2.0, 0.0));
        let na = Vec2::from_angle(core::f64::consts::FRAC_PI_2 + 0.3);
        let nb = Vec2::from_angle(core::f64::consts::FRAC_PI_2 + 0.1);
        let t = UncertaintyTriangle::new(a, b, na, nb);
        let apex = t.apex.expect("a finite inner-side apex is kept");
        let (ta, tb) = (0.3f64.tan(), 0.1f64.tan());
        let x = -2.0 * tb / (ta - tb);
        assert!(apex.distance(p(x, x * ta)) < 1e-12, "{apex:?}");
        assert!(apex.x < 0.0 && apex.y < 0.0);
        assert_eq!(t.height(), apex.distance(a));
        assert!(t.height() > 0.9);
    }

    #[test]
    fn degenerate_uncertainty_triangle() {
        let a = p(1.0, 1.0);
        let t = UncertaintyTriangle::new(a, a, Vec2::new(0.0, 1.0), Vec2::new(1.0, 0.0));
        assert_eq!(t.height(), 0.0);
        assert_eq!(t.slant_length(), 0.0);
        assert!(t.contains(a));
        assert!(!t.contains(p(1.0, 1.1)));
    }

    #[test]
    fn parallel_supporting_lines_give_flat_triangle() {
        let a = p(0.0, 0.0);
        let b = p(1.0, 0.0);
        let n = Vec2::new(0.0, 1.0);
        let t = UncertaintyTriangle::new(a, b, n, n);
        assert!(t.apex.is_none());
        assert_eq!(t.height(), 0.0);
        assert_eq!(t.slant_length(), 1.0);
    }
}
