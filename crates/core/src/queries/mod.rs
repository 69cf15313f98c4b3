//! Extremal queries over hull summaries (paper §6).
//!
//! Every §6 query is a [`geom`] kernel applied to a summary's cached
//! hull: call [`geom::calipers`] (diameter, width, farthest vertex,
//! bounding box), [`geom::locate`] (directional extent, point membership),
//! [`geom::distance`] (separation, containment) and [`geom::clip`]
//! (overlap) on [`HullSummary::hull_ref`](crate::summary::HullSummary::hull_ref)
//! directly, so exact and approximate summaries are interchangeable. Costs
//! are `O(r)` (diameter, width, overlap) or `O(log r)` (directional
//! extent, containment point tests) on a size-`r` sample, matching the
//! paper's bounds.
//!
//! With an adaptive sample of parameter `r`, all *absolute* errors are
//! `O(D/r²)` where `D` is the diameter (Theorem 5.4); the width/extent
//! caveat of §6 — the *relative* error can be poor when the extent is far
//! below `D` — is preserved and demonstrated in the tests below and in
//! the integration tests.
//!
//! [`serving`] is the fleet-level layer on top: [`QueryEngine`] answers
//! the same kernels for a whole [`TenantEngine`](crate::tenant::TenantEngine)
//! with error intervals, a generation-keyed cache, pruned top-k scans and
//! separation joins.

pub mod serving;

pub use serving::{
    Estimate, JoinAnswer, JoinCertificate, JoinPair, PairAnswer, QDir, QueryCacheStats,
    QueryEngine, QueryError, TopKAnswer, TopKEntry,
};

#[cfg(test)]
mod tests {
    use crate::adaptive::stream::AdaptiveHull;
    use crate::exact::ExactHull;
    use crate::summary::HullSummary;
    use core::f64::consts::TAU;
    use geom::{calipers, clip, distance, locate, ConvexPolygon, Point2, Vec2};

    fn ellipse(n: usize, a: f64, b: f64, cx: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = TAU * (i as f64) * 0.618033988749895;
                Point2::new(cx + a * t.cos(), b * t.sin())
            })
            .collect()
    }

    #[test]
    fn diameter_query_is_accurate_on_adaptive_summary() {
        let pts = ellipse(5000, 8.0, 1.0, 0.0);
        let mut a = AdaptiveHull::with_r(16);
        let mut e = ExactHull::new();
        for &q in &pts {
            a.insert(q);
            e.insert(q);
        }
        let da = calipers::diameter(&a.hull()).unwrap().2;
        let de = calipers::diameter(&e.hull()).unwrap().2;
        assert!(de >= da, "approx hull is inside");
        assert!(
            (de - da) / de < 1e-3,
            "diameter error {} too big",
            (de - da) / de
        );
    }

    #[test]
    fn width_absolute_error_is_small_relative_can_be_poor() {
        // §6's caveat demonstrated: skinny set, absolute width error is
        // O(D/r²) but that's not small *relative to the width itself* for a
        // crude uniform summary; the adaptive one does well here.
        let pts = ellipse(5000, 16.0, 0.5, 0.0);
        let mut a = AdaptiveHull::with_r(32);
        let mut e = ExactHull::new();
        for &q in &pts {
            a.insert(q);
            e.insert(q);
        }
        let wa = calipers::width(&a.hull());
        let we = calipers::width(&e.hull());
        let d = calipers::diameter(&e.hull()).unwrap().2;
        assert!(
            (we - wa).abs() <= 32.0 * d / (32.0f64 * 32.0),
            "absolute error bound"
        );
    }

    #[test]
    fn directional_extent_matches_support_difference() {
        let pts = ellipse(2000, 4.0, 2.0, 0.0);
        let mut e = ExactHull::new();
        for &q in &pts {
            e.insert(q);
        }
        let hull = e.hull();
        for k in 0..16 {
            let dir = Vec2::from_angle(TAU * k as f64 / 16.0);
            let fast = locate::directional_extent(&hull, dir);
            let hi = hull.support(dir).unwrap();
            let lo = -hull.support(-dir).unwrap();
            assert!((fast - (hi - lo)).abs() < 1e-9, "direction {k}");
        }
    }

    #[test]
    fn separation_between_two_streams() {
        let left = ellipse(2000, 2.0, 1.0, -5.0);
        let right = ellipse(2000, 2.0, 1.0, 5.0);
        let mut ha = AdaptiveHull::with_r(16);
        let mut hb = AdaptiveHull::with_r(16);
        for (&p, &q) in left.iter().zip(&right) {
            ha.insert(p);
            hb.insert(q);
        }
        let (pa, pb) = (ha.hull(), hb.hull());
        let s = distance::separation(&pa, &pb).unwrap();
        assert!(s.is_separated());
        // True gap is 10 - 2 - 2 = 6; approximation error is tiny.
        assert!(
            (s.distance() - 6.0).abs() < 0.1,
            "distance {}",
            s.distance()
        );
        assert!(distance::min_distance(&pa, &pb) > 0.0);
        // Merge the streams: separation disappears.
        for &q in &right {
            ha.insert(q);
        }
        assert!(!distance::separation(&ha.hull(), &pb)
            .unwrap()
            .is_separated());
    }

    #[test]
    fn containment_and_violation() {
        let inner = ellipse(2000, 1.0, 1.0, 0.0);
        let outer = ellipse(2000, 5.0, 5.0, 0.0);
        let mut hi = AdaptiveHull::with_r(16);
        let mut ho = AdaptiveHull::with_r(16);
        for (&p, &q) in inner.iter().zip(&outer) {
            hi.insert(p);
            ho.insert(q);
        }
        assert!(distance::contains_polygon(&ho.hull(), &hi.hull()));
        // Containment means exactly zero violation, not merely small.
        assert_eq!(
            distance::containment_violation(&ho.hull(), &hi.hull()).to_bits(),
            0.0f64.to_bits()
        );
        assert!(!distance::contains_polygon(&hi.hull(), &ho.hull()));
        assert!(distance::containment_violation(&hi.hull(), &ho.hull()) > 3.0);
    }

    #[test]
    fn overlap_area_of_offset_disks() {
        let a = ellipse(4000, 2.0, 2.0, 0.0);
        let b = ellipse(4000, 2.0, 2.0, 2.0);
        let mut ha = ExactHull::new();
        let mut hb = ExactHull::new();
        for (&p, &q) in a.iter().zip(&b) {
            ha.insert(p);
            hb.insert(q);
        }
        let area = clip::overlap_area(&ha.hull(), &hb.hull());
        // Lens area of two unit-2 circles at distance 2:
        // 2 r² cos⁻¹(d/2r) - (d/2)·sqrt(4r² - d²) with r=2, d=2.
        let expect = 2.0 * 4.0 * (0.5f64).acos() - 1.0 * (16.0f64 - 4.0).sqrt();
        assert!((area - expect).abs() < 0.05, "area {area} vs lens {expect}");
    }

    #[test]
    fn smallest_enclosing_circle_tracks_exact() {
        let pts = ellipse(4000, 3.0, 1.0, 0.0);
        let mut a = AdaptiveHull::with_r(32);
        let mut e = ExactHull::new();
        for &q in &pts {
            a.insert(q);
            e.insert(q);
        }
        let ca = geom::min_enclosing_circle(a.hull().vertices()).unwrap();
        let ce = geom::min_enclosing_circle(e.hull().vertices()).unwrap();
        assert!(
            ce.radius >= ca.radius - 1e-9,
            "approx circle cannot be larger"
        );
        assert!(
            (ce.radius - ca.radius) < 0.01,
            "{} vs {}",
            ca.radius,
            ce.radius
        );
        assert!(
            (ce.radius - 3.0).abs() < 0.01,
            "ellipse MEC radius is the semi-major"
        );
        assert!(geom::min_enclosing_circle(ConvexPolygon::empty().vertices()).is_none());
    }
}
