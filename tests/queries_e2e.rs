#![recursion_limit = "256"]
//! End-to-end tests of the §6 queries on *approximate* summaries: the
//! `geom` kernels applied to 2r+1-point adaptive samples must agree with
//! the same kernels on the exact hulls up to the paper's error bounds.

use streamgen::{Disk, Ellipse, Translate};
use streamhull::geom::{calipers, clip, distance, locate};
use streamhull::prelude::*;

fn build(seed: u64, n: usize, aspect: f64, dx: f64) -> (AdaptiveHull, ExactHull) {
    let mut a = AdaptiveHull::with_r(32);
    let mut e = ExactHull::new();
    for p in Translate::new(Ellipse::new(seed, n, aspect, 0.25), Vec2::new(dx, 0.0)) {
        a.insert(p);
        e.insert(p);
    }
    (a, e)
}

#[test]
fn diameter_and_width_track_exact_within_bound() {
    let (a, e) = build(101, 50_000, 8.0, 0.0);
    let (ah, eh) = (a.hull(), e.hull());
    let bound = 2.0 * 16.0 * std::f64::consts::PI * a.uniform().perimeter() / (32.0f64 * 32.0);
    let (da, de) = (
        calipers::diameter(&ah).unwrap().2,
        calipers::diameter(&eh).unwrap().2,
    );
    assert!(de >= da && de - da <= bound, "diameter: {da} vs {de}");
    let (wa, we) = (calipers::width(&ah), calipers::width(&eh));
    assert!((we - wa).abs() <= bound, "width: {wa} vs {we}");
}

#[test]
fn directional_extent_tracks_exact() {
    let (a, e) = build(102, 30_000, 4.0, 0.0);
    let (ah, eh) = (a.hull(), e.hull());
    let bound = 2.0 * 16.0 * std::f64::consts::PI * a.uniform().perimeter() / (32.0f64 * 32.0);
    for k in 0..24 {
        let dir = Vec2::from_angle(std::f64::consts::TAU * k as f64 / 24.0 + 0.011);
        let xa = locate::directional_extent(&ah, dir);
        let xe = locate::directional_extent(&eh, dir);
        assert!(xe >= xa - 1e-9, "approx extent cannot exceed exact");
        assert!(xe - xa <= bound, "dir {k}: {xa} vs {xe}");
    }
}

#[test]
fn min_distance_between_summaries_tracks_exact() {
    let (a1, e1) = build(103, 20_000, 2.0, -6.0);
    let (a2, e2) = build(104, 20_000, 2.0, 6.0);
    let d_approx = distance::min_distance(a1.hull_ref(), a2.hull_ref());
    let d_exact = distance::min_distance(e1.hull_ref(), e2.hull_ref());
    // The cached hulls agree with freshly built ones, bit for bit (same
    // code path, not approximate agreement).
    assert_eq!(
        distance::min_distance(&a1.hull(), &a2.hull()).to_bits(),
        d_approx.to_bits()
    );
    assert!(distance::separation(a1.hull_ref(), a2.hull_ref())
        .unwrap()
        .is_separated());
    // Approximate hulls are inside the exact ones => distance can only
    // grow, and by at most the sum of the two error bounds.
    assert!(d_approx >= d_exact - 1e-9);
    assert!(d_approx - d_exact <= 0.5, "{d_approx} vs {d_exact}");
    // Both must be close to the nominal gap: centres 12 apart, each
    // rotated aspect-2 ellipse reaching ~1.95 along x => gap ≈ 8.1.
    assert!((7.9..8.4).contains(&d_exact), "exact gap {d_exact}");
}

#[test]
fn separability_transition_is_detected_at_same_point_as_exact() {
    // Move stream B towards stream A in steps; the approximate and exact
    // verdicts must flip within a couple of steps of each other.
    let a_pts: Vec<Point2> = Disk::new(105, 5000, 1.0).collect();
    let mut a_approx = AdaptiveHull::with_r(32);
    let mut a_exact = ExactHull::new();
    for &p in &a_pts {
        a_approx.insert(p);
        a_exact.insert(p);
    }
    let mut flip_approx = None;
    let mut flip_exact = None;
    for step in 0..40 {
        let dx = 5.0 - step as f64 * 0.1;
        let b_pts: Vec<Point2> =
            Translate::new(Disk::new(106, 2000, 1.0), Vec2::new(dx, 0.0)).collect();
        let mut b_approx = AdaptiveHull::with_r(32);
        let mut b_exact = ExactHull::new();
        for &p in &b_pts {
            b_approx.insert(p);
            b_exact.insert(p);
        }
        let sa = distance::separation(&a_approx.hull(), &b_approx.hull()).unwrap();
        let se = distance::separation(&a_exact.hull(), &b_exact.hull()).unwrap();
        if !sa.is_separated() && flip_approx.is_none() {
            flip_approx = Some(step);
        }
        if !se.is_separated() && flip_exact.is_none() {
            flip_exact = Some(step);
        }
    }
    let (fa, fe) = (
        flip_approx.expect("approx flips"),
        flip_exact.expect("exact flips"),
    );
    assert!(
        (fa as i64 - fe as i64).abs() <= 2,
        "separability flip: approx step {fa}, exact step {fe}"
    );
}

#[test]
fn containment_with_margin() {
    let inner: Vec<Point2> = Disk::new(107, 10_000, 2.0).collect();
    let outer: Vec<Point2> = Disk::new(108, 10_000, 2.4).collect();
    let mut hi = AdaptiveHull::with_r(32);
    let mut ho = AdaptiveHull::with_r(32);
    for (&p, &q) in inner.iter().zip(&outer) {
        hi.insert(p);
        ho.insert(q);
    }
    // The outer approximate hull contains the inner approximate hull:
    // margin 0.4 is far above the O(D/r²) error at r = 32.
    assert!(distance::contains_polygon(&ho.hull(), &hi.hull()));
    assert!(!distance::contains_polygon(&hi.hull(), &ho.hull()));
    // Violation of the reverse containment is about 0.4.
    let v = distance::containment_violation(&hi.hull(), &ho.hull());
    assert!((v - 0.4).abs() < 0.1, "violation {v}");
}

#[test]
fn overlap_area_matches_exact_within_percent() {
    let (a1, e1) = build(109, 30_000, 3.0, 0.0);
    let (a2, e2) = build(110, 30_000, 3.0, 2.0);
    let oa = clip::overlap_area(&a1.hull(), &a2.hull());
    let oe = clip::overlap_area(&e1.hull(), &e2.hull());
    assert!(oe > 0.0);
    assert!((oa - oe).abs() / oe < 0.02, "overlap {oa} vs exact {oe}");
}

// ---------------------------------------------------------------------------
// Property tests for the serving layer: the cache is invisible to query
// results across interleaved ingestion, every analytic interval contains
// the exact-stream truth, and the separation join's certificates never
// drop a qualifying pair — for every summary backend.
// ---------------------------------------------------------------------------

mod serving_props {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn pt_strategy() -> impl Strategy<Value = Point2> {
        prop_oneof![
            (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
            (-4i32..4, -4i32..4).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
            // Skinny band: stresses adaptive refinement and the calipers.
            (-50.0f64..50.0, -0.5f64..0.5).prop_map(|(x, y)| Point2::new(x, y)),
        ]
    }

    fn stream_strategy(max: usize) -> impl Strategy<Value = Vec<Point2>> {
        prop::collection::vec(pt_strategy(), 1..max)
    }

    fn engine(kind: SummaryKind) -> QueryEngine {
        QueryEngine::new(TenantEngine::new(TenantConfig::new(
            SummaryBuilder::new(kind).with_r(16),
        )))
    }

    /// A cached answer is bit-identical to a freshly computed one, at
    /// every ingestion generation, for all eight backends. The fresh
    /// reference is a new engine fed the same prefix in one batch — the
    /// batch ≡ loop invariant makes its state identical, so any
    /// divergence is the cache's fault.
    fn check_cached_equals_fresh(pts: &[Point2]) -> Result<(), TestCaseError> {
        let id = StreamId(7);
        let dir = Vec2::new(0.6, 0.8);
        let step = (pts.len() / 3).max(1);
        for kind in SummaryKind::ALL {
            let mut live = engine(kind);
            let mut fed = 0usize;
            for chunk in pts.chunks(step) {
                live.tenants_mut().insert_batch(id, chunk).unwrap();
                fed += chunk.len();
                let w1 = live.width(id).unwrap();
                let d1 = live.diameter(id).unwrap();
                let x1 = live.extent(id, dir).unwrap();
                let before = live.cache_stats();
                prop_assert_eq!(live.width(id).unwrap(), w1);
                prop_assert_eq!(live.diameter(id).unwrap(), d1);
                prop_assert_eq!(live.extent(id, dir).unwrap(), x1);
                let after = live.cache_stats();
                prop_assert_eq!(
                    after.hits,
                    before.hits + 3,
                    "{:?}: repeat reads with no ingest in between must hit",
                    kind
                );
                prop_assert_eq!(after.misses, before.misses);
                let mut fresh = engine(kind);
                fresh.tenants_mut().insert_batch(id, &pts[..fed]).unwrap();
                prop_assert_eq!(fresh.width(id).unwrap(), w1);
                prop_assert_eq!(fresh.diameter(id).unwrap(), d1);
                prop_assert_eq!(fresh.extent(id, dir).unwrap(), x1);
            }
        }
        Ok(())
    }

    /// `[lo, hi]` brackets the value the query would return on the exact
    /// hull of every point the stream has seen, for all eight backends (a
    /// withdrawn bound gives `hi == ∞`, which brackets trivially; `lo`
    /// still holds because every summary hull sits inside the exact hull).
    fn check_intervals_contain_truth(pts: &[Point2]) -> Result<(), TestCaseError> {
        let id = StreamId(3);
        let exact = ConvexPolygon::hull_of(pts);
        let w_truth = calipers::width(&exact);
        let d_truth = calipers::diameter(&exact).map(|(_, _, d)| d);
        for kind in SummaryKind::ALL {
            let mut q = engine(kind);
            q.tenants_mut().insert_batch(id, pts).unwrap();
            let w = q.width(id).unwrap();
            let tol = 1e-9 * w_truth.abs().max(1.0);
            prop_assert!(
                w.lo - tol <= w_truth && w_truth <= w.hi + tol,
                "{:?} width [{}, {}] misses truth {}",
                kind,
                w.lo,
                w.hi,
                w_truth
            );
            if let (Some(p), Some(t)) = (q.diameter(id).unwrap(), d_truth) {
                let tol = 1e-9 * t.abs().max(1.0);
                prop_assert!(
                    p.estimate.lo - tol <= t && t <= p.estimate.hi + tol,
                    "{:?} diameter [{}, {}] misses truth {}",
                    kind,
                    p.estimate.lo,
                    p.estimate.hi,
                    t
                );
            }
        }
        Ok(())
    }

    /// The join's bbox and incircle certificates are conservative: every
    /// pair within the threshold (by brute-force polygon distance over
    /// the same summary hulls) is reported, every reported pair
    /// qualifies, and the certificate matches the brute-force distance
    /// bit for bit.
    fn check_join_completeness(
        streams: &[(Vec<Point2>, f64, f64)],
        thr: f64,
    ) -> Result<(), TestCaseError> {
        for kind in SummaryKind::ALL {
            let mut q = engine(kind);
            let mut ids = Vec::new();
            for (i, (pts, cx, cy)) in streams.iter().enumerate() {
                let id = StreamId(i as u64);
                let shifted: Vec<Point2> = pts.iter().map(|p| *p + Vec2::new(*cx, *cy)).collect();
                q.tenants_mut().insert_batch(id, &shifted).unwrap();
                ids.push(id);
            }
            let join = q.separation_join(thr).unwrap();
            let mut hulls = Vec::new();
            for &id in &ids {
                hulls.push(q.tenants_mut().hull(id).unwrap());
            }
            let mut reported = std::collections::HashMap::new();
            for p in &join.pairs {
                reported.insert((p.a, p.b), *p);
            }
            for i in 0..ids.len() {
                for j in (i + 1)..ids.len() {
                    let d = distance::min_distance(&hulls[i], &hulls[j]);
                    let pair = reported.get(&(ids[i], ids[j]));
                    if d <= thr {
                        let Some(p) = pair else {
                            return Err(TestCaseError::fail(format!(
                                "{:?}: dropped qualifying pair ({:?}, {:?}) at d={} ≤ {}",
                                kind, ids[i], ids[j], d, thr
                            )));
                        };
                        match p.certificate {
                            JoinCertificate::Exact => {
                                prop_assert_eq!(p.distance.to_bits(), d.to_bits());
                            }
                            JoinCertificate::IncircleOverlap => {
                                prop_assert_eq!(p.distance.to_bits(), 0.0f64.to_bits());
                                prop_assert_eq!(
                                    d.to_bits(),
                                    0.0f64.to_bits(),
                                    "{:?}: incircle certificate on disjoint hulls",
                                    kind
                                );
                            }
                        }
                    } else {
                        prop_assert!(
                            pair.is_none(),
                            "{:?}: reported non-qualifying pair at d={} > {}",
                            kind,
                            d,
                            thr
                        );
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn cached_equals_fresh_across_generations_for_every_backend(
            pts in stream_strategy(90),
        ) {
            check_cached_equals_fresh(&pts)?;
        }

        #[test]
        fn intervals_contain_exact_stream_truth(pts in stream_strategy(120)) {
            check_intervals_contain_truth(&pts)?;
        }

        #[test]
        fn separation_join_never_drops_a_qualifying_pair(
            streams in prop::collection::vec(
                (prop::collection::vec(pt_strategy(), 3..40),
                 -30.0f64..30.0, -30.0f64..30.0),
                2..5),
            thr in 0.0f64..40.0,
        ) {
            check_join_completeness(&streams, thr)?;
        }
    }
}

#[test]
fn farthest_point_and_bbox_consistency() {
    let (a, e) = build(111, 20_000, 5.0, 0.0);
    let (ah, eh) = (a.hull(), e.hull());
    let q = Point2::new(-20.0, 3.0);
    let fa = calipers::farthest_vertex(&ah, q).unwrap();
    let fe = calipers::farthest_vertex(&eh, q).unwrap();
    assert!((q.distance(fa) - q.distance(fe)).abs() < 0.1);
    let (amin, amax) = calipers::bounding_box(&ah).unwrap();
    let (emin, emax) = calipers::bounding_box(&eh).unwrap();
    for (x, y) in [
        (amin.x, emin.x),
        (amin.y, emin.y),
        (amax.x, emax.x),
        (amax.y, emax.y),
    ] {
        assert!((x - y).abs() < 0.2, "bbox coordinate {x} vs {y}");
    }
}
