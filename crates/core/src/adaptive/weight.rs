//! The sample-weight function of paper §4.
//!
//! For a hull edge `e = (a, b)` whose endpoints are extreme in the
//! directions bounding the dyadic range of `e`:
//!
//! ```text
//! w(e) = ℓ̃(e) · r / P  −  d(e)
//! ```
//!
//! where `ℓ̃(e)` is the total length of the two non-base sides of `e`'s
//! uncertainty triangle, `P` the perimeter of the uniformly sampled hull,
//! and `d(e)` the number of bisections that produced `e`'s angular range.
//! An edge is refined while `w(e) > 1` and unrefined once `w(e) <= 1`,
//! which in terms of `P` is the threshold `P >= r·ℓ̃/(1 + d)`.

use geom::dyadic::{DirGrid, DirRange};
use geom::{Point2, UncertaintyTriangle, Vec2};

/// Uncertainty triangle of edge `(a, b)` over the dyadic range: supporting
/// normals are the unit vectors of the range's two boundary directions.
pub fn uncertainty(grid: &DirGrid, range: &DirRange, a: Point2, b: Point2) -> UncertaintyTriangle {
    UncertaintyTriangle::new(a, b, grid.unit(range.lo), grid.unit(range.hi))
}

/// `ℓ̃(e)`: total length of the two non-base sides of the uncertainty
/// triangle (equals `|ab|` when the triangle is flat, 0 when degenerate).
pub fn slant(grid: &DirGrid, range: &DirRange, a: Point2, b: Point2) -> f64 {
    if a == b {
        return 0.0;
    }
    slant_between(grid.unit(range.lo), grid.unit(range.hi), a, b)
}

/// [`slant`] given the range's boundary unit vectors: `ul` at `range.lo`,
/// `ur` at `range.hi`. Refinement-tree walks carry these down instead of
/// recomputing them.
pub fn slant_between(ul: Vec2, ur: Vec2, a: Point2, b: Point2) -> f64 {
    if a == b {
        return 0.0;
    }
    UncertaintyTriangle::new(a, b, ul, ur).slant_length()
}

/// The sample weight `w(e)`. With `P <= 0` (degenerate hull) the weight is
/// `-∞`: nothing refines until the hull has positive perimeter.
pub fn weight(slant_len: f64, depth: u32, r: u32, perimeter: f64) -> f64 {
    if perimeter <= 0.0 {
        return f64::NEG_INFINITY;
    }
    slant_len * (r as f64) / perimeter - depth as f64
}

/// The perimeter threshold at which a node with the given slant length and
/// depth should be unrefined: `w(e) <= 1  ⇔  P >= r·ℓ̃/(1 + d)`.
pub fn unrefine_threshold(slant_len: f64, depth: u32, r: u32) -> f64 {
    (r as f64) * slant_len / (1.0 + depth as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Vec2;

    #[test]
    fn weight_matches_threshold_boundary() {
        let (slant_len, depth, r) = (3.0, 2u32, 16u32);
        let t = unrefine_threshold(slant_len, depth, r);
        // At P = threshold, w = 1 exactly.
        assert!((weight(slant_len, depth, r, t) - 1.0).abs() < 1e-12);
        // Just below threshold: w > 1 (still refined); above: w < 1.
        assert!(weight(slant_len, depth, r, t * 0.99) > 1.0);
        assert!(weight(slant_len, depth, r, t * 1.01) < 1.0);
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact sentinel value, not approximate agreement
    fn degenerate_perimeter_never_refines() {
        assert_eq!(weight(10.0, 0, 16, 0.0), f64::NEG_INFINITY);
        assert_eq!(weight(10.0, 0, 16, -1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn slant_of_symmetric_edge() {
        // r = 8, depth 0 sector: 45° range. Edge from angle -22.5°+90° ...
        // use sector 1 (45°..90°), endpoints symmetric about 67.5°.
        let grid = DirGrid::new(8, 3);
        let range = geom::dyadic::DirRange::sector(&grid, 1);
        let mid = Vec2::from_angle(grid.angle(range.lo) + core::f64::consts::PI / 8.0);
        let t = mid.perp(); // tangent direction
        let a = Point2::ORIGIN + t * 1.0;
        let b = Point2::ORIGIN - t * 1.0;
        // a extreme at range.lo? Build so the edge is perpendicular to mid:
        // the slant must exceed the base length |ab| = 2 but not wildly.
        let s = slant(&grid, &range, b, a);
        assert!(s >= 2.0, "slant {s} is at least the base");
        assert!(s < 2.2, "45° supporting lines stay close: {s}");
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact zero for a degenerate edge, by construction
    fn slant_zero_for_degenerate_edge() {
        let grid = DirGrid::new(8, 3);
        let range = geom::dyadic::DirRange::sector(&grid, 0);
        let p = Point2::new(1.0, 2.0);
        assert_eq!(slant(&grid, &range, p, p), 0.0);
    }

    #[test]
    fn refinement_shrinks_total_slant() {
        // The Fig. 6 lemma behind Lemma 4.1: when an edge (a, b) is refined
        // at its bisecting direction with extremum t, the children satisfy
        // ℓ̃(e1) + ℓ̃(e2) <= ℓ̃(e), and each child's weight drops by at
        // least 1 relative to the slant term.
        let grid = DirGrid::new(16, 4);
        let sector = geom::dyadic::DirRange::sector(&grid, 0);
        let a = Point2::new(10.0, 0.0);
        let b = Point2::new(9.0, 4.0);
        let s0 = slant(&grid, &sector, a, b);
        // Mid extremum as the streaming algorithm picks it: best of {a, b}.
        let um = grid.unit(sector.mid(&grid));
        let t = if a.dot(um) >= b.dot(um) { a } else { b };
        let (lr, rr) = sector.bisect(&grid);
        let s1 = slant(&grid, &lr, a, t);
        let s2 = slant(&grid, &rr, t, b);
        assert!(
            s1 + s2 <= s0 + 1e-9,
            "slant must not grow under refinement: {s1} + {s2} vs {s0}"
        );
        // Weights: each child has depth + 1, so for any P the larger child
        // weight is at least 1 below the parent's.
        let p = 40.0;
        let w0 = weight(s0, sector.depth, 16, p);
        let w_max = weight(s1, lr.depth, 16, p).max(weight(s2, rr.depth, 16, p));
        assert!(
            w_max <= w0 - 1.0 + 1e-9,
            "child weight {w_max} vs parent {w0}"
        );
    }
}
