//! Error metrics for hull summaries — the measurements behind the paper's
//! experimental section (§7, Table 1) and the error-scaling figures.
//!
//! Three families:
//!
//! * **online probe** — while streaming, each arriving point is tested
//!   against the *current* approximate hull; the table's "max distance from
//!   hull" and "% points outside hull" columns come from here;
//! * **uncertainty triangles** — max/average heights of the per-edge error
//!   certificates (§2);
//! * **final Hausdorff error** — directed Hausdorff distance from the exact
//!   hull to the approximate one, the paper's `O(D/r²)` quantity.

use crate::summary::HullSummary;
use crate::uniform::{NaiveUniformHull, UniformHull};
use geom::{ConvexPolygon, Point2, UncertaintyTriangle};

/// Statistics gathered by streaming points through a summary while probing
/// each point against the hull *before* inserting it.
#[derive(Clone, Copy, Debug, Default)]
#[must_use = "probe statistics carry the false-answer counts the guarantee is judged by"]
pub struct ProbeStats {
    /// Total points streamed.
    pub total: u64,
    /// Points that fell strictly outside the approximate hull on arrival.
    pub outside: u64,
    /// Maximum distance of an arriving point from the approximate hull.
    pub max_distance: f64,
    /// Sum of outside distances (for the mean).
    pub sum_distance: f64,
}

impl ProbeStats {
    /// Fraction of points outside, in percent.
    pub fn percent_outside(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.outside as f64 / self.total as f64
        }
    }

    /// Mean distance over the outside points (0 when none).
    pub fn mean_outside_distance(&self) -> f64 {
        if self.outside == 0 {
            0.0
        } else {
            self.sum_distance / self.outside as f64
        }
    }
}

/// Streams `points` through `summary`, probing each point against the
/// current hull before inserting it (the paper's outside-point counters).
/// Works on trait objects (`&mut dyn HullSummary`) as well as concrete
/// summaries.
pub fn run_with_probe<S: HullSummary + ?Sized>(summary: &mut S, points: &[Point2]) -> ProbeStats {
    run_with_probe_warmup(summary, points, 0)
}

/// Like [`run_with_probe`], but the first `warmup` points are inserted
/// without being counted. Early stream points are trivially far from the
/// near-empty hull and would otherwise dominate the max-distance column for
/// every summary alike.
pub fn run_with_probe_warmup<S: HullSummary + ?Sized>(
    summary: &mut S,
    points: &[Point2],
    warmup: usize,
) -> ProbeStats {
    let mut stats = ProbeStats::default();
    for (i, &q) in points.iter().enumerate() {
        if i >= warmup {
            stats.total += 1;
            let hull = summary.hull_ref();
            if !hull.is_empty() {
                let d = hull.distance_to_point(q);
                if d > 0.0 {
                    stats.outside += 1;
                    stats.sum_distance += d;
                    stats.max_distance = stats.max_distance.max(d);
                }
            }
        }
        summary.insert(q);
    }
    stats
}

/// Max and mean height over a set of uncertainty triangles.
#[derive(Clone, Copy, Debug, Default)]
#[must_use = "triangle statistics carry the uncertainty heights that certify the error bound"]
pub struct TriangleStats {
    /// Largest triangle height.
    pub max_height: f64,
    /// Mean triangle height.
    pub mean_height: f64,
    /// Number of (non-degenerate) triangles.
    pub count: usize,
}

/// Aggregates triangle heights.
pub fn triangle_stats(triangles: &[UncertaintyTriangle]) -> TriangleStats {
    if triangles.is_empty() {
        return TriangleStats::default();
    }
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    for t in triangles {
        let h = t.height();
        max = max.max(h);
        sum += h;
    }
    TriangleStats {
        max_height: max,
        mean_height: sum / triangles.len() as f64,
        count: triangles.len(),
    }
}

/// Uncertainty triangles of a [`UniformHull`]: one per edge between
/// consecutive extrema, with supporting normals at the last direction of
/// the first vertex and the first direction of the second (the paper's
/// `θ(pq)` convention).
///
/// Folded to its tallest height, this is the reference for the uniform
/// hull's [`error_bound`](crate::summary::HullSummary::error_bound), which
/// builds only the triangles that could be the tallest and must equal the
/// fold bit for bit (`tests/bit_identities.rs`).
pub fn uniform_uncertainty_triangles(hull: &UniformHull) -> Vec<UncertaintyTriangle> {
    let runs = hull.runs();
    if runs.len() < 2 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(runs.len());
    for i in 0..runs.len() {
        let cur = runs[i];
        let next = runs[(i + 1) % runs.len()];
        if cur.point == next.point {
            continue; // wrap-around run of the same owner
        }
        out.push(UncertaintyTriangle::new(
            cur.point,
            next.point,
            hull.unit(cur.hi),
            hull.unit(next.lo),
        ));
    }
    out
}

/// Uncertainty triangles of a [`NaiveUniformHull`] (reconstructs ownership
/// runs from the extrema array).
pub fn naive_uniform_uncertainty_triangles(hull: &NaiveUniformHull) -> Vec<UncertaintyTriangle> {
    let r = hull.r();
    let Some(first) = hull.extremum(0) else {
        return Vec::new();
    };
    // Build ownership runs.
    let mut runs: Vec<(Point2, u32, u32)> = vec![(first, 0, 0)];
    for j in 1..r {
        let e = hull.extremum(j).unwrap();
        let last = runs.last_mut().unwrap();
        if last.0 == e {
            last.2 = j;
        } else {
            runs.push((e, j, j));
        }
    }
    // Merge wrap-around.
    if runs.len() > 1 && runs[0].0 == runs[runs.len() - 1].0 {
        let (_, lo, _) = runs.pop().unwrap();
        runs[0].1 = lo; // purely for θ bookkeeping below via explicit units
    }
    if runs.len() < 2 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(runs.len());
    for i in 0..runs.len() {
        let (p, _, hi) = runs[i];
        let (q, lo, _) = runs[(i + 1) % runs.len()];
        if p == q {
            continue;
        }
        out.push(UncertaintyTriangle::new(
            p,
            q,
            hull.unit(hi % r),
            hull.unit(lo % r),
        ));
    }
    out
}

/// Directed Hausdorff distance from the exact hull to the approximate one —
/// the paper's error measure (the approximate hull is always inside the
/// true hull, so this is the meaningful direction).
pub fn hausdorff_error(approx: &ConvexPolygon, exact: &ConvexPolygon) -> f64 {
    approx.directed_hausdorff_from(exact)
}

/// Relative diameter error `(true - approx) / true` (Lemma 3.1 territory;
/// non-negative because the approximate hull is inside the true hull).
pub fn diameter_error(approx: &ConvexPolygon, exact: &ConvexPolygon) -> f64 {
    let dt = geom::calipers::diameter(exact)
        .map(|(_, _, d)| d)
        .unwrap_or(0.0);
    let da = geom::calipers::diameter(approx)
        .map(|(_, _, d)| d)
        .unwrap_or(0.0);
    if geom::predicates::degenerate_norm(dt) {
        0.0
    } else {
        (dt - da).max(0.0) / dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::stream::AdaptiveHull;
    use crate::exact::ExactHull;
    use core::f64::consts::TAU;

    fn circle(n: usize, r: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = TAU * (i as f64) * 0.618033988749895;
                Point2::new(r * t.cos(), r * t.sin())
            })
            .collect()
    }

    #[test]
    fn probe_counts_outside_points() {
        let pts = circle(2000, 4.0);
        let mut a = AdaptiveHull::with_r(16);
        let stats = run_with_probe(&mut a, &pts);
        assert_eq!(stats.total, 2000);
        assert!(stats.outside > 0, "circle points keep landing outside");
        assert!(stats.outside < 2000);
        assert!(stats.max_distance > 0.0);
        assert!(stats.percent_outside() > 0.0 && stats.percent_outside() < 100.0);
        assert!(stats.mean_outside_distance() <= stats.max_distance);
    }

    #[test]
    fn probe_on_exact_hull_still_counts_growth() {
        // Even the exact hull has points landing outside (every new hull
        // vertex), but at distance equal to their violation of the current
        // hull; for a shrinking-to-fixed shape the count stabilises.
        let pts = circle(500, 1.0);
        let mut e = ExactHull::new();
        let stats = run_with_probe(&mut e, &pts);
        assert_eq!(stats.total, 500);
        assert!(stats.outside > 0);
    }

    #[test]
    fn uniform_triangle_stats_behave() {
        let pts = circle(3000, 5.0);
        let mut u = UniformHull::new(16);
        for &q in &pts {
            u.insert(q);
        }
        let tris = uniform_uncertainty_triangles(&u);
        assert!(!tris.is_empty());
        let stats = triangle_stats(&tris);
        assert!(stats.max_height > 0.0);
        assert!(stats.mean_height <= stats.max_height);
        // Lemma 3.2: heights are O(D/r) ~ π·10/16.
        assert!(stats.max_height <= core::f64::consts::PI * 10.0 / 16.0);
    }

    #[test]
    fn naive_and_fancy_uniform_triangles_agree() {
        let pts = circle(1000, 2.0);
        let mut naive = NaiveUniformHull::new(16);
        let mut fancy = UniformHull::new(16);
        for &q in &pts {
            naive.insert(q);
            fancy.insert(q);
        }
        let a = triangle_stats(&naive_uniform_uncertainty_triangles(&naive));
        let b = triangle_stats(&uniform_uncertainty_triangles(&fancy));
        assert_eq!(a.count, b.count);
        assert!((a.max_height - b.max_height).abs() < 1e-9);
        assert!((a.mean_height - b.mean_height).abs() < 1e-9);
    }

    #[test]
    fn hausdorff_and_diameter_errors() {
        let pts = circle(4000, 3.0);
        let mut a = AdaptiveHull::with_r(32);
        let mut e = ExactHull::new();
        for &q in &pts {
            a.insert(q);
            e.insert(q);
        }
        let he = hausdorff_error(&a.hull(), &e.hull());
        assert!(he > 0.0 && he < 0.1, "hausdorff {he}");
        let de = diameter_error(&a.hull(), &e.hull());
        assert!((0.0..0.01).contains(&de), "diameter rel err {de}");
    }

    #[test]
    #[allow(clippy::float_cmp)] // empty inputs yield exact zeros, not rounded ones
    fn empty_inputs() {
        assert_eq!(triangle_stats(&[]).count, 0);
        let stats = run_with_probe(&mut AdaptiveHull::with_r(8), &[]);
        assert_eq!(stats.total, 0);
        assert_eq!(stats.percent_outside(), 0.0);
        assert_eq!(stats.mean_outside_distance(), 0.0);
    }
}
