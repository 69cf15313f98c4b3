//! NaN/±inf injection tests: every summary backend, across the loop,
//! batch, windowed and sharded ingestion paths, must follow the trait's
//! non-finite input policy (see `HullSummary`):
//!
//! * the checked paths (`try_insert` / `try_insert_batch` /
//!   `ShardedIngest::try_run`) reject with a typed [`NonFiniteInput`]
//!   error and mutate nothing;
//! * the infallible paths silently drop non-finite points without
//!   counting them, so a poisoned stream yields bit-identical answers to
//!   the same stream with the poison removed;
//! * nothing panics — including on subnormal coordinates, which are
//!   finite and must be ingested normally.
//!
//! The vendored `proptest!` macro recurses per body token, so each
//! property's body lives in a plain function and the macro block only
//! wires up the strategies.

use proptest::prelude::*;
use streamhull::prelude::*;

/// Finite points, deliberately including subnormal and signed-zero
/// coordinates: those are valid inputs and must never be dropped.
fn finite_pt() -> impl Strategy<Value = Point2> {
    prop_oneof![
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        (-4i32..4, -4i32..4).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
        (1u64..100, -1.0f64..1.0).prop_map(|(n, y)| Point2::new(f64::MIN_POSITIVE / n as f64, y)),
        Just(Point2::new(-0.0, 0.0)),
    ]
}

/// One non-finite point; the tag picks which coordinate is poisoned how.
fn poison_pt(tag: u8) -> Point2 {
    match tag % 6 {
        0 => Point2::new(f64::NAN, 0.0),
        1 => Point2::new(0.0, f64::NAN),
        2 => Point2::new(f64::INFINITY, 1.0),
        3 => Point2::new(1.0, f64::NEG_INFINITY),
        4 => Point2::new(f64::NAN, f64::INFINITY),
        _ => Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    }
}

/// Splices poison points into `clean` at pseudo-random positions.
fn poisoned_stream(clean: &[Point2], injections: &[(usize, u8)]) -> Vec<Point2> {
    let mut out = clean.to_vec();
    for &(pos, tag) in injections {
        let at = pos % (out.len() + 1);
        out.insert(at, poison_pt(tag));
    }
    out
}

fn injections() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((0usize..512, 0u8..6), 1..8)
}

fn stream() -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(finite_pt(), 1..120)
}

/// Loop and batch ingestion of a poisoned stream match the clean stream
/// bit-for-bit on every backend.
fn check_infallible(clean: &[Point2], inj: &[(usize, u8)]) -> Result<(), TestCaseError> {
    let dirty = poisoned_stream(clean, inj);
    for &kind in &SummaryKind::ALL {
        let builder = SummaryBuilder::new(kind).with_r(8);
        let mut want = builder.build();
        want.insert_batch(clean);

        let mut looped = builder.build();
        for &p in &dirty {
            looped.insert(p);
        }
        prop_assert_eq!(
            looped.points_seen(),
            clean.len() as u64,
            "loop count: {}",
            kind
        );
        prop_assert_eq!(
            looped.hull_ref().vertices(),
            want.hull_ref().vertices(),
            "loop hull: {}",
            kind
        );

        let mut batched = builder.build();
        batched.insert_batch(&dirty);
        prop_assert_eq!(
            batched.points_seen(),
            clean.len() as u64,
            "batch count: {}",
            kind
        );
        prop_assert_eq!(
            batched.hull_ref().vertices(),
            want.hull_ref().vertices(),
            "batch hull: {}",
            kind
        );
    }
    Ok(())
}

/// The windowed chain drops poison without consuming auto-ticks, so
/// window answers match the clean stream on every backend.
fn check_windowed(clean: &[Point2], inj: &[(usize, u8)], n: u64) -> Result<(), TestCaseError> {
    let dirty = poisoned_stream(clean, inj);
    let config = WindowConfig::last_n(n).with_granularity(8);
    for &kind in &SummaryKind::ALL {
        let builder = SummaryBuilder::new(kind).with_r(8);
        let mut want = builder.windowed(config);
        want.insert_batch(clean);

        let mut looped = builder.windowed(config);
        for &p in &dirty {
            looped.insert(p);
        }
        prop_assert_eq!(
            looped.points_seen(),
            clean.len() as u64,
            "loop count: {}",
            kind
        );
        prop_assert_eq!(
            looped.hull_ref().vertices(),
            want.hull_ref().vertices(),
            "windowed loop hull: {}",
            kind
        );

        let mut batched = builder.windowed(config);
        batched.insert_batch(&dirty);
        prop_assert_eq!(
            batched.hull_ref().vertices(),
            want.hull_ref().vertices(),
            "windowed batch hull: {}",
            kind
        );

        // Explicit timestamps: a dropped point never reaches the clock,
        // so out-of-order poison timestamps are irrelevant.
        let mut stamped = builder.windowed(config);
        let ts: Vec<(Point2, f64)> = dirty
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64))
            .collect();
        stamped.insert_batch_timestamped(&ts);
        prop_assert_eq!(
            stamped.points_seen(),
            clean.len() as u64,
            "stamped count: {}",
            kind
        );
    }
    Ok(())
}

/// Sharded ingestion of a poisoned stream matches the clean stream, and
/// the checked entry point rejects it with the right index.
fn check_sharded(
    clean: &[Point2],
    inj: &[(usize, u8)],
    shards: usize,
) -> Result<(), TestCaseError> {
    let dirty = poisoned_stream(clean, inj);
    let chunk = 32;
    for &kind in &SummaryKind::ALL {
        let builder = SummaryBuilder::new(kind).with_r(8);
        let engine = ShardedIngest::new(builder, shards).with_chunk(chunk);
        let got = engine.run(&dirty);
        prop_assert_eq!(got.summary.points_seen(), clean.len() as u64, "{}", kind);

        // Partition-faithful reference: the poison shifts the chunk
        // boundaries, so compare against the same partition of the
        // *dirty* stream (chunk `c` → shard `c % N`) filtered shard by
        // shard — parallel drops must be indistinguishable from sequential
        // per-shard drops.
        let mut reference = builder.build_mergeable();
        for i in 0..shards {
            let mut worker = builder.build_mergeable();
            for piece in dirty.chunks(chunk).skip(i).step_by(shards) {
                worker.insert_batch(piece);
            }
            reference.merge_from(worker.as_ref());
        }
        prop_assert_eq!(
            got.summary.hull_ref().vertices(),
            reference.hull_ref().vertices(),
            "sharded hull: {}",
            kind
        );

        let first_bad = dirty.iter().position(|p| !p.is_finite()).unwrap();
        let err = engine.try_run(&dirty).expect_err("poison must be rejected");
        prop_assert_eq!(err.index, first_bad, "{}", kind);
        prop_assert!(!err.point.is_finite());

        // A clean stream sails through the checked path bit-identically.
        let want = engine.run(clean);
        let ok = engine.try_run(clean).expect("clean stream must pass");
        prop_assert_eq!(
            ok.summary.hull_ref().vertices(),
            want.summary.hull_ref().vertices(),
            "try_run hull: {}",
            kind
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn infallible_paths_drop_poison(clean in stream(), inj in injections()) {
        check_infallible(&clean, &inj)?;
    }

    #[test]
    fn windowed_paths_drop_poison(clean in stream(), inj in injections(), n in 8u64..64) {
        check_windowed(&clean, &inj, n)?;
    }

    #[test]
    fn sharded_paths_drop_poison(clean in stream(), inj in injections(), shards in 1usize..5) {
        check_sharded(&clean, &inj, shards)?;
    }
}

/// `try_insert` / `try_insert_batch`: typed rejection, no mutation.
#[test]
fn checked_paths_reject_without_mutation() {
    let clean = [
        Point2::new(0.0, 0.0),
        Point2::new(3.0, 1.0),
        Point2::new(-2.0, 4.0),
        Point2::new(1.0, -3.0),
    ];
    for &kind in &SummaryKind::ALL {
        let mut s = SummaryBuilder::new(kind).with_r(8).build();
        s.insert_batch(&clean);
        let seen = s.points_seen();
        let hull_before: Vec<Point2> = s.hull_ref().vertices().to_vec();

        for tag in 0..6u8 {
            let err = s
                .try_insert(poison_pt(tag))
                .expect_err("non-finite point must be rejected");
            assert_eq!(err.index, 0, "{kind}");
            assert!(!err.point.is_finite(), "{kind}");
        }

        let mut batch = clean.to_vec();
        batch.insert(2, poison_pt(3));
        let err = s
            .try_insert_batch(&batch)
            .expect_err("poisoned batch must be rejected");
        assert_eq!(err.index, 2, "{kind}");
        assert!(!err.point.is_finite(), "{kind}");
        // Whole-batch rejection: nothing before the bad index lands.
        assert_eq!(s.points_seen(), seen, "{kind}");
        assert_eq!(s.hull_ref().vertices(), hull_before.as_slice(), "{kind}");

        // The error is a real std error with a readable message.
        let msg = err.to_string();
        assert!(msg.contains("non-finite"), "{kind}: {msg}");

        // And the clean retry goes through.
        assert!(s.try_insert(Point2::new(9.0, 9.0)).is_ok(), "{kind}");
        assert_eq!(s.points_seen(), seen + 1, "{kind}");
    }
}
