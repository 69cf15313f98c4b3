//! Trait-object conformance suite: every [`SummaryKind`] is driven as a
//! `Box<dyn HullSummary>` through one shared harness, checking the
//! invariants the object-safe v2 interface promises:
//!
//! * the reported hull is contained in the exact hull of the stream;
//! * `points_seen` accounting is exact (insert, insert_batch, extend_from
//!   through `&mut dyn`, and merge all included);
//! * sample budgets hold (`≤ 2r + 1` for the adaptive schemes);
//! * `hull_ref` is backed by a real cache: repeated queries return the
//!   *same* polygon allocation and the generation counter is stable;
//! * `error_bound`, when reported, is sound against the measured error;
//! * [`Mergeable::clone_box`] is a deep copy that stays equal to the
//!   original under the same further points;
//! * sharded ingestion on real threads + [`Mergeable::merge_from`] agrees
//!   with single-stream ingestion up to the merge error contract.

use streamhull::geom::distance;
use streamhull::metrics;
use streamhull::prelude::*;

fn workload(n: usize) -> Vec<Point2> {
    // Rotated skinny ellipse boundary plus an interior cloud: exercises
    // both the "point beats directions" and "interior discard" paths.
    let mut s = 77u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let t = std::f64::consts::TAU * (i as f64) * 0.618033988749895;
            let scale = if i % 3 == 0 { 1.0 } else { 0.2 + 0.6 * next() };
            let v = Vec2::new(12.0 * t.cos() * scale, t.sin() * scale).rotate(0.1);
            Point2::ORIGIN + v
        })
        .collect()
}

fn exact_hull(pts: &[Point2]) -> ConvexPolygon {
    let mut e = ExactHull::new();
    e.insert_batch(pts);
    e.hull()
}

const R: u32 = 16;

fn build(kind: SummaryKind) -> Box<dyn HullSummary + Send + Sync> {
    SummaryBuilder::new(kind).with_r(R).build()
}

#[test]
fn every_kind_stays_inside_the_exact_hull() {
    let pts = workload(4000);
    let truth = exact_hull(&pts);
    for &kind in &SummaryKind::ALL {
        let mut s = build(kind);
        s.insert_batch(&pts);
        for &v in s.hull_ref().vertices() {
            assert!(
                truth.contains_linear(v),
                "{kind}: vertex {v:?} escapes the exact hull"
            );
        }
    }
}

#[test]
fn points_seen_accounting_through_every_ingestion_path() {
    let pts = workload(900);
    let (a, b, c) = (&pts[..300], &pts[300..600], &pts[600..]);
    for &kind in &SummaryKind::ALL {
        let mut s = build(kind);
        for &p in a {
            s.insert(p);
        }
        s.insert_batch(b);
        // Whole-stream feeding through the trait object (the v1 trait's
        // `Self: Sized` bound made exactly this impossible).
        let dyn_ref: &mut dyn HullSummary = &mut *s;
        dyn_ref.extend_from(c.iter().copied());
        assert_eq!(s.points_seen(), 900, "{kind}");
    }
}

#[test]
fn adaptive_budgets_hold_via_builder() {
    let pts = workload(5000);
    for r in [8u32, 16, 64] {
        for kind in [SummaryKind::Adaptive, SummaryKind::AdaptiveFixedBudget] {
            let mut s = SummaryBuilder::new(kind).with_r(r).build();
            s.insert_batch(&pts);
            assert!(
                s.sample_size() <= (2 * r + 1) as usize,
                "{kind} r={r}: stores {}",
                s.sample_size()
            );
        }
        let mut u = SummaryBuilder::new(SummaryKind::Uniform).with_r(r).build();
        u.insert_batch(&pts);
        assert!(u.sample_size() <= r as usize, "uniform r={r}");
    }
}

#[test]
fn hull_ref_is_cached_between_mutations() {
    let pts = workload(2000);
    for &kind in &SummaryKind::ALL {
        let mut s = build(kind);
        s.insert_batch(&pts);
        let generation = s.hull_generation();
        let first = s.hull_ref() as *const ConvexPolygon;
        for _ in 0..5 {
            assert!(
                std::ptr::eq(first, s.hull_ref()),
                "{kind}: repeated hull_ref must not rebuild"
            );
        }
        assert_eq!(s.hull_generation(), generation, "{kind}: queries mutate");
        // Cloning through the compatibility accessor matches the cached ref.
        assert_eq!(s.hull().vertices(), s.hull_ref().vertices(), "{kind}");
    }
}

#[test]
fn interior_points_do_not_invalidate_the_cache() {
    // After the hull stabilises, inserting interior points must leave the
    // generation (and thus the cached polygon) untouched for the summaries
    // with an interior fast path.
    for kind in [SummaryKind::Adaptive, SummaryKind::AdaptiveFixedBudget] {
        let mut s = build(kind);
        let square = [
            Point2::new(-10.0, -10.0),
            Point2::new(10.0, -10.0),
            Point2::new(10.0, 10.0),
            Point2::new(-10.0, 10.0),
        ];
        s.insert_batch(&square);
        let _ = s.hull_ref();
        let generation = s.hull_generation();
        s.insert_batch(&[Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        assert_eq!(
            s.hull_generation(),
            generation,
            "{kind}: interior insert invalidated the cache"
        );
        assert_eq!(s.points_seen(), 6, "{kind}: interior points still count");
    }
}

#[test]
fn error_bounds_are_sound_where_reported() {
    let pts = workload(6000);
    let truth = exact_hull(&pts);
    let mut reported = 0;
    for &kind in &SummaryKind::ALL {
        let mut s = build(kind);
        s.insert_batch(&pts);
        let Some(bound) = s.error_bound() else {
            continue;
        };
        reported += 1;
        let err = metrics::hausdorff_error(s.hull_ref(), &truth);
        assert!(
            err <= bound + 1e-9,
            "{kind}: measured error {err} exceeds its own live bound {bound}"
        );
    }
    // exact, both uniforms, radial, and both adaptive schemes report one.
    assert!(reported >= 6, "only {reported} kinds reported a bound");
}

#[test]
fn adaptive_bound_is_the_smaller_of_paper_constant_and_certificate() {
    // Corollary 5.2's 16πP/r² or the uniform substrate's Lemma 3.2
    // certificate, whichever is smaller: the substrate sees every point
    // and its extrema are sample points.
    for n in [1, 2, 40, 3000] {
        let mut concrete = AdaptiveHull::with_r(R);
        concrete.insert_batch(&workload(n));
        let paper =
            16.0 * std::f64::consts::PI * concrete.uniform().perimeter() / (R as f64 * R as f64);
        let certificate = concrete.uniform().error_bound().unwrap();
        let via_trait: &dyn HullSummary = &concrete;
        let bound = via_trait.error_bound().unwrap();
        assert_eq!(bound.to_bits(), paper.min(certificate).to_bits(), "n = {n}");
        assert!(bound <= paper, "n = {n}: {bound} above 16πP/r² = {paper}");
    }
}

#[test]
fn sharded_threads_then_merge_matches_single_stream() {
    // The Mergeable contract end to end, on real threads: shard the stream
    // across workers (summaries are Send), merge on the collector, compare
    // against single-stream ingestion of the same points.
    let pts = workload(8000);
    let truth = exact_hull(&pts);
    for &kind in &SummaryKind::ALL {
        let shards: Vec<Box<dyn Mergeable + Send + Sync>> = std::thread::scope(|scope| {
            let handles: Vec<_> = pts
                .chunks(2000)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut s = SummaryBuilder::new(kind).with_r(R).build_mergeable();
                        s.insert_batch(chunk);
                        s
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut merged = SummaryBuilder::new(kind).with_r(R).build_mergeable();
        for shard in &shards {
            merged.merge_from(shard.as_ref());
        }
        assert_eq!(merged.points_seen(), 8000, "{kind}: merged seen-count");
        for &v in merged.hull_ref().vertices() {
            assert!(
                truth.contains_linear(v),
                "{kind}: merged hull vertex {v:?} escapes the exact hull"
            );
        }
        // The merged hull must cover each shard's hull up to the shard's
        // own error contribution — spot check: the merged diameter is at
        // least any shard's diameter minus the collector's bound.
        let merged_d = streamhull::geom::calipers::diameter(merged.hull_ref())
            .map(|(_, _, d)| d)
            .unwrap_or(0.0);
        let slack = merged.error_bound().unwrap_or(0.0) + 2e-1;
        for shard in &shards {
            if let Some((_, _, d)) = streamhull::geom::calipers::diameter(shard.hull_ref()) {
                assert!(
                    merged_d + slack >= d,
                    "{kind}: merged diameter {merged_d} lost a shard's {d}"
                );
            }
        }
    }
}

/// Everything `clone_box` promises to copy, as comparable bits: snapshot
/// bytes, hull vertices, bound, generation and `approx_bytes`.
type Observed = (Vec<u8>, Vec<(u64, u64)>, Option<u64>, u64, usize);

fn observed(s: &dyn Mergeable) -> Observed {
    let vertices = s
        .hull_ref()
        .vertices()
        .iter()
        .map(|v| (v.x.to_bits(), v.y.to_bits()))
        .collect();
    (
        s.encode_snapshot(),
        vertices,
        s.error_bound().map(f64::to_bits),
        s.hull_generation(),
        s.approx_bytes(),
    )
}

#[test]
fn clone_box_is_a_deep_copy() {
    // A clone answers like the original, and feeding both the same points
    // keeps them equal: the state is copied, not shared (a shared part
    // would see every point twice, or the original's points in the copy).
    let pts = workload(3000);
    let (before, after) = pts.split_at(2000);
    for &kind in &SummaryKind::ALL {
        let mut original = SummaryBuilder::new(kind).with_r(R).build_mergeable();
        original.insert_batch(before);
        let mut copy = original.clone_box();
        assert_eq!(
            observed(copy.as_ref()),
            observed(original.as_ref()),
            "{kind}"
        );
        for piece in after.chunks(250) {
            original.insert_batch(piece);
            copy.insert_batch(piece);
            assert_eq!(
                observed(copy.as_ref()),
                observed(original.as_ref()),
                "{kind}: diverged after the same points"
            );
        }
        assert_eq!(original.points_seen(), 3000, "{kind}: state shared");
    }
}

#[test]
fn merge_across_kinds() {
    // Mergeable is interface-level: a collector of one kind can absorb a
    // shard of another (the sample points are just stream points).
    let pts = workload(2000);
    let (a, b) = pts.split_at(1000);
    let mut adaptive = SummaryBuilder::new(SummaryKind::Adaptive)
        .with_r(R)
        .build_mergeable();
    adaptive.insert_batch(a);
    let mut uniform = SummaryBuilder::new(SummaryKind::Uniform)
        .with_r(32)
        .build_mergeable();
    uniform.insert_batch(b);
    adaptive.merge_from(uniform.as_ref());
    assert_eq!(adaptive.points_seen(), 2000);
    let truth = exact_hull(&pts);
    for &v in adaptive.hull_ref().vertices() {
        assert!(truth.contains_linear(v));
    }
}

#[test]
fn tracker_runs_generically_over_kinds() {
    // The §6 pair queries over runtime-chosen backends: separation of two
    // streams is `geom::distance::separation` on their cached hulls.
    for kind in [
        SummaryKind::Adaptive,
        SummaryKind::Uniform,
        SummaryKind::Exact,
        SummaryKind::Radial,
    ] {
        let builder = SummaryBuilder::new(kind).with_r(32);
        let left_pts: Vec<Point2> = (0..400)
            .map(|i| {
                let t = std::f64::consts::TAU * i as f64 / 400.0;
                Point2::new(-6.0 + t.cos(), t.sin())
            })
            .collect();
        let right_pts: Vec<Point2> = left_pts.iter().map(|p| Point2::new(-p.x, p.y)).collect();
        let (mut left, mut right) = (builder.build(), builder.build());
        left.insert_batch(&left_pts);
        right.insert_batch(&right_pts);
        match distance::separation(left.hull_ref(), right.hull_ref()) {
            Some(distance::Separation::Separated { distance: d, .. }) => {
                assert!((d - 10.0).abs() < 0.3, "{kind:?}: distance {d}")
            }
            other => panic!("{kind:?}: expected separation, got {other:?}"),
        }
    }
}
