//! Property tests for the sharded parallel ingestion engine
//! (`core::parallel::ShardedIngest`) and the `Mergeable` reduce it is
//! built on: exact seen-count accounting, shard-count determinism, the
//! one partition shared by the slice run and the supervised streaming
//! path, the composed error guarantee, and geometric soundness for every
//! runtime kind — plus a merge associativity smoke test.

use proptest::prelude::*;
use streamhull::prelude::*;

fn pt_strategy() -> impl Strategy<Value = Point2> {
    prop_oneof![
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        (-4i32..4, -4i32..4).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
        (-50.0f64..50.0, -0.5f64..0.5).prop_map(|(x, y)| Point2::new(x, y)),
    ]
}

fn stream_strategy(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(pt_strategy(), 1..max)
}

/// Every `ShardStats` field of a run, bit-exact.
fn shard_stats(run: &ShardRun) -> Vec<(u64, usize, Option<u64>)> {
    run.shards
        .iter()
        .map(|s| {
            (
                s.points_seen,
                s.sample_size,
                s.error_bound.map(f64::to_bits),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_ingest_counts_and_stays_inside_truth(
        pts in stream_strategy(300),
        shards in 1usize..5,
        chunk in 1usize..96,
    ) {
        // For every kind: the engine reports exactly the input length
        // (split across shards and re-assembled by the merge), and the
        // merged hull's vertices are actual stream points inside the true
        // hull.
        let mut exact = ExactHull::new();
        exact.insert_batch(&pts);
        let truth = exact.hull();
        for &kind in &SummaryKind::ALL {
            let engine = ShardedIngest::new(SummaryBuilder::new(kind).with_r(8), shards)
                .with_chunk(chunk);
            let run = engine.run(&pts);
            prop_assert_eq!(run.summary.points_seen(), pts.len() as u64, "{}", kind);
            let shard_total: u64 = run.shards.iter().map(|s| s.points_seen).sum();
            prop_assert_eq!(shard_total, pts.len() as u64, "{}: shard stats", kind);
            for &v in run.summary.hull_ref().vertices() {
                prop_assert!(truth.contains_linear(v), "{}: {:?} escapes truth", kind, v);
            }
        }
    }

    #[test]
    fn sharded_ingest_is_deterministic_per_shard_count(
        pts in stream_strategy(250),
        shards in 1usize..5,
        chunk in prop_oneof![Just(1usize), 1usize..80],
    ) {
        // The determinism contract: for a fixed input, configuration, and
        // shard count, the merged summary is identical across runs — shard
        // assignment and merge order never depend on thread scheduling.
        // Pins the one partition (chunk c → shard c % N) that the slice run
        // shares with the one streaming path, the supervisor: a fault-free
        // supervised run agrees with `run` bit for bit.
        for &kind in &SummaryKind::ALL {
            let engine = ShardedIngest::new(SummaryBuilder::new(kind).with_r(8), shards)
                .with_chunk(chunk);
            let a = engine.run(&pts);
            let b = engine.run(&pts);
            prop_assert_eq!(
                a.summary.hull_ref().vertices(),
                b.summary.hull_ref().vertices(),
                "{}: hull varies across runs", kind
            );
            prop_assert_eq!(a.summary.sample_size(), b.summary.sample_size(), "{}", kind);
            prop_assert_eq!(a.summary.error_bound(), b.summary.error_bound(), "{}", kind);
            let sup = SupervisedIngest::new(engine).run_stream(pts.iter().copied());
            prop_assert!(!sup.is_degraded(), "{}: fault-free run degraded", kind);
            prop_assert_eq!(
                sup.run.summary.encode_snapshot(), a.summary.encode_snapshot(),
                "{}: supervised snapshot differs from run", kind
            );
            prop_assert_eq!(
                sup.run.summary.error_bound().map(f64::to_bits),
                a.summary.error_bound().map(f64::to_bits),
                "{}: supervised error bound differs from run", kind
            );
            prop_assert_eq!(
                shard_stats(&sup.run), shard_stats(&a),
                "{}: supervised shard stats differ from run", kind
            );
        }
    }

    #[test]
    fn sharded_error_is_within_composed_guarantee(
        pts in stream_strategy(400),
        shards in 2usize..5,
    ) {
        // The Mergeable error composition, now through the engine: the
        // merged hull's true error against the union stream is at most the
        // largest shard's live bound plus the collector's own bound.
        // Checked for every kind that reports a live bound; a 1-shard
        // engine run gives the degenerate "merged single-shard guarantee"
        // the N-shard bound must compose no worse than.
        let mut exact = ExactHull::new();
        exact.insert_batch(&pts);
        let truth = exact.hull();
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(16);
            let run = ShardedIngest::new(builder, shards).with_chunk(64).run(&pts);
            let Some(bound) = run.error_bound() else {
                continue; // frozen / cluster publish no live bound
            };
            let err = run.summary.hull_ref().directed_hausdorff_from(&truth);
            let composed = bound + 1e-9;
            prop_assert!(
                err <= composed,
                "{}: sharded error {} > composed bound {}", kind, err, composed
            );
            // And the same composition holds for the 1-shard degenerate
            // run: worker bound + collector bound.
            let single = ShardedIngest::new(builder, 1).with_chunk(64).run(&pts);
            let single_bound = single.error_bound().unwrap() + 1e-9;
            let single_err = single.summary.hull_ref().directed_hausdorff_from(&truth);
            prop_assert!(
                single_err <= single_bound,
                "{}: single-shard error {} > bound {}", kind, single_err, single_bound
            );
        }
    }

    #[test]
    fn merge_from_is_associative_smoke(
        pts in stream_strategy(240),
        cut_a in 1usize..100,
        cut_b in 1usize..100,
    ) {
        // merge_from re-inserts sample points, so different association
        // orders need not be bit-identical for order-sensitive kinds — but
        // the observable accounting must agree, the hulls must stay inside
        // the truth either way, and for the exact kind (which stores every
        // hull point) the two associations must coincide exactly.
        let cut_a = cut_a.min(pts.len());
        let cut_b = (cut_a + cut_b).min(pts.len());
        let (first, rest) = pts.split_at(cut_a);
        let (second, third) = rest.split_at(cut_b - cut_a);
        let mut exact = ExactHull::new();
        exact.insert_batch(&pts);
        let truth = exact.hull();
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(8);
            let part = |chunk: &[Point2]| {
                let mut s = builder.build_mergeable();
                s.insert_batch(chunk);
                s
            };
            // Left association: ((A ⊕ B) ⊕ C).
            let mut left = part(first);
            left.merge_from(&part(second));
            left.merge_from(&part(third));
            // Right association: (A ⊕ (B ⊕ C)).
            let mut bc = part(second);
            bc.merge_from(&part(third));
            let mut right = part(first);
            right.merge_from(&bc);
            prop_assert_eq!(left.points_seen(), pts.len() as u64, "{}: left count", kind);
            prop_assert_eq!(right.points_seen(), pts.len() as u64, "{}: right count", kind);
            for &v in left.hull_ref().vertices().iter().chain(right.hull_ref().vertices()) {
                prop_assert!(truth.contains_linear(v), "{}: {:?} escapes", kind, v);
            }
            if kind == SummaryKind::Exact {
                prop_assert_eq!(
                    left.hull_ref().vertices(),
                    right.hull_ref().vertices(),
                    "exact merging must be associative on the nose"
                );
            }
        }
    }
}
