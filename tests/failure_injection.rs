#![recursion_limit = "512"]
//! Failure injection: the library's contract is that non-finite
//! coordinates never poison a summary — the infallible insert paths drop
//! them without counting, the checked `try_insert` path rejects them with
//! a typed error (see `tests/nan_injection.rs` for the full sweep) — and
//! that extreme-but-finite inputs do not break invariants.

use streamhull::prelude::*;

#[test]
fn adaptive_drops_nan() {
    let mut h = AdaptiveHull::with_r(8);
    h.insert(Point2::new(f64::NAN, 0.0));
    assert_eq!(h.points_seen(), 0);
    assert!(h.try_insert(Point2::new(f64::NAN, 0.0)).is_err());
}

#[test]
fn adaptive_drops_infinity() {
    let mut h = AdaptiveHull::with_r(8);
    h.insert(Point2::new(1.0, f64::INFINITY));
    assert_eq!(h.points_seen(), 0);
    assert!(h.try_insert(Point2::new(1.0, f64::INFINITY)).is_err());
}

#[test]
fn exact_drops_nan() {
    let mut h = ExactHull::new();
    h.insert(Point2::new(0.0, f64::NAN));
    assert_eq!(h.points_seen(), 0);
    assert!(h.try_insert(Point2::new(0.0, f64::NAN)).is_err());
}

#[test]
fn cluster_drops_nan() {
    let mut ch = ClusterHull::new(ClusterHullConfig::new(2));
    ch.insert(Point2::new(f64::NAN, f64::NAN));
    assert_eq!(ch.points_seen(), 0);
    assert!(ch.try_insert(Point2::new(f64::NAN, f64::NAN)).is_err());
}

#[test]
fn huge_coordinates_keep_invariants() {
    // Coordinates near 2^400: squared distances overflow to infinity, but
    // the summaries only compare dot products and distances of like
    // magnitude; invariants must survive.
    let s = (2.0f64).powi(400);
    let mut h = AdaptiveHull::with_r(8);
    for i in 0..100 {
        let t = i as f64 * 0.7;
        h.insert(Point2::new(s * t.cos(), s * t.sin()));
    }
    h.check_invariants().unwrap();
    assert!(h.sample_size() <= 17);
    let hull = h.hull();
    assert!(hull.len() >= 3);
    for &v in hull.vertices() {
        assert!(v.is_finite());
    }
}

#[test]
fn tiny_coordinates_keep_invariants() {
    let s = (2.0f64).powi(-400);
    let mut h = AdaptiveHull::with_r(8);
    for i in 0..100 {
        let t = i as f64 * 0.7;
        h.insert(Point2::new(s * t.cos(), s * t.sin()));
    }
    h.check_invariants().unwrap();
    assert!(h.sample_size() <= 17);
}

#[test]
fn mixed_scale_stream() {
    // A stream that jumps across 12 orders of magnitude: the summary must
    // keep the extreme points and discard the (relatively) microscopic
    // structure without violating its budget.
    let mut h = AdaptiveHull::with_r(16);
    let mut e = ExactHull::new();
    for i in 0..1000 {
        let t = i as f64 * 0.31;
        let scale = if i % 3 == 0 {
            1e-6
        } else if i % 3 == 1 {
            1.0
        } else {
            1e6
        };
        let p = Point2::new(scale * t.cos(), scale * t.sin());
        h.insert(p);
        e.insert(p);
    }
    h.check_invariants().unwrap();
    assert!(h.sample_size() <= 33);
    let err = h.hull().directed_hausdorff_from(&e.hull());
    let bound = 16.0 * std::f64::consts::PI * h.uniform().perimeter() / 256.0;
    assert!(err <= bound, "error {err} > {bound}");
}

#[test]
fn zero_area_then_expansion() {
    // Long degenerate prefix (all collinear), then the stream opens up:
    // the structure must transition from segment hulls to real polygons.
    let mut h = AdaptiveHull::with_r(16);
    for i in 0..500 {
        h.insert(Point2::new(i as f64, i as f64));
    }
    assert_eq!(h.hull().len(), 2);
    for i in 0..500 {
        let t = i as f64 * 0.13;
        h.insert(Point2::new(
            250.0 + 300.0 * t.cos(),
            250.0 + 300.0 * t.sin(),
        ));
    }
    h.check_invariants().unwrap();
    assert!(h.hull().len() >= 8, "hull should have opened up");
    assert!(h.sample_size() <= 33);
}

// ---------------------------------------------------------------------
// Snapshot/restore: round-trip fidelity and corrupted-input hardening
// (the codec's contract: decode(encode(s)) behaves bit-identically, and
// corrupted/truncated/kind-swapped bytes yield typed errors, never
// panics).
// ---------------------------------------------------------------------

use proptest::prelude::*;
use streamhull::snapshot;

fn spiral(n: usize) -> Vec<Point2> {
    (0..n)
        .map(|i| {
            let t = 2.399963229728653 * i as f64;
            let rad = 1.0 + 0.01 * i as f64;
            Point2::new(rad * t.cos(), rad * t.sin())
        })
        .collect()
}

fn snap_pt() -> impl Strategy<Value = Point2> {
    prop_oneof![
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        (-4i32..4, -4i32..4).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
        (-50.0f64..50.0, -0.5f64..0.5).prop_map(|(x, y)| Point2::new(x, y)),
    ]
}

fn snap_stream(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(snap_pt(), 2..max)
}

/// Asserts two summaries are observably indistinguishable.
fn assert_same_state(a: &dyn Mergeable, b: &dyn Mergeable, ctx: &str) {
    assert_eq!(a.name(), b.name(), "{ctx}: name");
    assert_eq!(a.points_seen(), b.points_seen(), "{ctx}: points_seen");
    assert_eq!(a.sample_size(), b.sample_size(), "{ctx}: sample_size");
    assert_eq!(
        a.hull_ref().vertices(),
        b.hull_ref().vertices(),
        "{ctx}: hull"
    );
    assert_eq!(a.error_bound(), b.error_bound(), "{ctx}: error_bound");
    assert_eq!(a.sample_points(), b.sample_points(), "{ctx}: sample");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The acceptance property: snapshot mid-stream, restore, feed the
    // same tail to both — every subsequent observable (hull vertices,
    // error bound, sample, merge input) is bit-identical, for all eight
    // kinds.
    #[test]
    fn snapshot_roundtrip_is_behaviour_identical(
        pts in snap_stream(300),
        cut_sel in 0.0f64..1.0,
        rexp in 3u32..6,
        chunk in 1usize..97,
    ) {
        let cut = ((pts.len() as f64) * cut_sel) as usize;
        let (head, tail) = pts.split_at(cut.min(pts.len() - 1));
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(1 << rexp);
            let mut original = builder.build_mergeable();
            original.insert_batch(head);
            let bytes = original.encode_snapshot();
            let mut restored = SummaryBuilder::restore(&bytes)
                .unwrap_or_else(|e| panic!("{kind}: decode failed: {e}"));
            assert_same_state(&*original, &*restored, &format!("{kind}: at snapshot"));
            // Continue both: same tail, batched on one side, per-point on
            // the other is NOT required to match (that is insert_batch's
            // contract, tested elsewhere) — so feed both identically.
            for piece in tail.chunks(chunk) {
                original.insert_batch(piece);
                restored.insert_batch(piece);
            }
            assert_same_state(&*original, &*restored, &format!("{kind}: after tail"));
            // And the snapshot of the continuation round-trips again.
            let again = SummaryBuilder::restore(&restored.encode_snapshot()).unwrap();
            assert_same_state(&*restored, &*again, &format!("{kind}: second generation"));
        }
    }

    // Windowed chains round-trip: the restored chain seals, carries, and
    // expires at the same instants, so window answers and subsequent
    // ingestion stay bit-identical.
    #[test]
    fn windowed_snapshot_roundtrip_is_behaviour_identical(
        pts in snap_stream(400),
        cut_sel in 0.0f64..1.0,
        window in 16u64..200,
        granularity in 1usize..48,
        dur_sel in 0u32..2,
        chunk in 1usize..64,
    ) {
        let cut = ((pts.len() as f64) * cut_sel) as usize;
        let (head, tail) = pts.split_at(cut.min(pts.len() - 1));
        let config = if dur_sel == 1 {
            WindowConfig::last_dur(window as f64 - 0.5)
        } else {
            WindowConfig::last_n(window)
        }
        .with_granularity(granularity);
        for &kind in &[SummaryKind::Exact, SummaryKind::Adaptive, SummaryKind::Radial] {
            let mut original = SummaryBuilder::new(kind).with_r(16).windowed(config);
            original.insert_batch(head);
            let bytes = Snapshot::encode(&original);
            let mut restored = WindowedSummary::decode(&bytes)
                .unwrap_or_else(|e| panic!("{kind}: windowed decode failed: {e}"));
            for piece in tail.chunks(chunk) {
                original.insert_batch(piece);
                restored.insert_batch(piece);
            }
            assert_eq!(original.points_seen(), restored.points_seen(), "{kind}");
            assert_eq!(original.bucket_count(), restored.bucket_count(), "{kind}");
            assert_eq!(
                original.hull_ref().vertices(),
                restored.hull_ref().vertices(),
                "{kind}: window hull"
            );
            let (a, b) = (original.query_window(), restored.query_window());
            assert_eq!(a.merged_points, b.merged_points, "{kind}");
            assert_eq!(a.stale_points, b.stale_points, "{kind}");
            // Bit-exact round-trip, not approximate agreement.
            assert_eq!(a.stale_duration.to_bits(), b.stale_duration.to_bits(), "{kind}");
            assert_eq!(a.buckets, b.buckets, "{kind}");
            assert_eq!(a.error_bound(), b.error_bound(), "{kind}");
            assert_eq!(a.hull().vertices(), b.hull().vertices(), "{kind}");
        }
    }

    // A time window restored mid-stream keeps its clock: ingestion with
    // explicit timestamps (bursts share one) continues on both chains,
    // which expire against the same `now` and stay byte-identical.
    #[test]
    fn timestamped_window_snapshot_keeps_the_clock(
        pts in snap_stream(400),
        cut_sel in 0.0f64..1.0,
        dur in 1.0f64..100.0,
        granularity in 1usize..48,
        steps in prop::collection::vec(prop_oneof![Just(0.0), 0.25f64..4.0], 1..40),
        chunk in 1usize..64,
    ) {
        let mut t = 0.0;
        let stamped: Vec<(Point2, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                t += steps[i % steps.len()];
                (p, t)
            })
            .collect();
        let cut = ((stamped.len() as f64) * cut_sel) as usize;
        let (head, tail) = stamped.split_at(cut.min(stamped.len() - 1));
        let config = WindowConfig::last_dur(dur).with_granularity(granularity);
        for &kind in &[SummaryKind::Exact, SummaryKind::Adaptive, SummaryKind::Radial] {
            let mut original = SummaryBuilder::new(kind).with_r(16).windowed(config);
            original.insert_batch_timestamped(head);
            let mut restored = WindowedSummary::decode(&Snapshot::encode(&original))
                .unwrap_or_else(|e| panic!("{kind}: windowed decode failed: {e}"));
            assert_eq!(
                original.now().map(f64::to_bits),
                restored.now().map(f64::to_bits),
                "{kind}: clock at snapshot"
            );
            for piece in tail.chunks(chunk) {
                original.insert_batch_timestamped(piece);
                restored.insert_batch_timestamped(piece);
            }
            assert_eq!(
                Snapshot::encode(&original),
                Snapshot::encode(&restored),
                "{kind}: chain bytes after the tail"
            );
            let (a, b) = (original.query_window(), restored.query_window());
            assert_eq!(a.merged_points, b.merged_points, "{kind}");
            assert_eq!(a.stale_points, b.stale_points, "{kind}");
            assert_eq!(a.stale_duration.to_bits(), b.stale_duration.to_bits(), "{kind}");
            assert_eq!(a.buckets, b.buckets, "{kind}");
            assert_eq!(a.error_bound(), b.error_bound(), "{kind}");
            assert_eq!(a.hull().vertices(), b.hull().vertices(), "{kind}");
        }
    }
}

/// Every kind's snapshot at several stream lengths (empty, one point,
/// degenerate, beyond-merge) — deterministic spot check of the edges the
/// proptest samples around.
#[test]
fn snapshot_roundtrip_edge_streams() {
    let streams: Vec<Vec<Point2>> = vec![
        vec![],
        vec![Point2::new(1.0, 2.0)],
        vec![Point2::new(1.0, 2.0); 7], // duplicates
        (0..40)
            .map(|i| Point2::new(i as f64, 2.0 * i as f64))
            .collect(), // collinear
        spiral(600),
    ];
    for pts in &streams {
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(16);
            let mut original = builder.build_mergeable();
            original.insert_batch(pts);
            let restored = SummaryBuilder::restore(&original.encode_snapshot()).unwrap();
            assert_same_state(
                &*original,
                &*restored,
                &format!("{kind} on {} pts", pts.len()),
            );
        }
    }
}

/// A restored summary merges like the original (the distributed use case:
/// snapshots shipped between processes, then reduced).
#[test]
fn restored_summaries_merge_identically() {
    let pts = spiral(800);
    let (a, b) = pts.split_at(400);
    for &kind in &SummaryKind::ALL {
        let builder = SummaryBuilder::new(kind).with_r(16);
        let mut left = builder.build_mergeable();
        let mut right = builder.build_mergeable();
        left.insert_batch(a);
        right.insert_batch(b);
        let mut merged_in_process = builder.build_mergeable();
        merged_in_process.merge_from(&left);
        merged_in_process.merge_from(&right);

        let left_r = SummaryBuilder::restore(&left.encode_snapshot()).unwrap();
        let right_r = SummaryBuilder::restore(&right.encode_snapshot()).unwrap();
        let mut merged_restored = builder.build_mergeable();
        merged_restored.merge_from(&left_r);
        merged_restored.merge_from(&right_r);
        assert_same_state(&*merged_in_process, &*merged_restored, &format!("{kind}"));
    }
}

/// `merge_snapshots` over per-shard snapshot files equals the in-process
/// sharded run on the same input and seed — the acceptance criterion for
/// multi-process reduction — for **all eight** summary kinds. The files
/// are built by hand from the documented partition: chunk `c` of the
/// stream goes to shard `c % N`.
#[test]
fn merge_snapshots_equals_in_process_sharded_run() {
    let pts = spiral(2000);
    let (shards, chunk) = (4, 128);
    for &kind in &SummaryKind::ALL {
        let builder = SummaryBuilder::new(kind).with_r(16);
        let engine = ShardedIngest::new(builder, shards).with_chunk(chunk);
        let in_process = engine.run(&pts);
        // Each "gateway" summarises its own chunks and writes one file.
        let files: Vec<Vec<u8>> = (0..shards)
            .map(|shard| {
                let mut s = builder.build_mergeable();
                for piece in pts.chunks(chunk).skip(shard).step_by(shards) {
                    s.insert_batch(piece);
                }
                s.encode_snapshot()
            })
            .collect();
        // Reducing the four shard "files" out of process reproduces it.
        let merged = engine.merge_snapshots(&files).unwrap();
        assert_same_state(
            &*in_process.summary,
            &*merged.summary,
            &format!("{kind}: merge_snapshots"),
        );
        assert_eq!(in_process.shards.len(), merged.shards.len());
        for (a, b) in in_process.shards.iter().zip(&merged.shards) {
            assert_eq!(a.points_seen, b.points_seen, "{kind}");
            assert_eq!(a.sample_size, b.sample_size, "{kind}");
            assert_eq!(a.error_bound, b.error_bound, "{kind}");
        }
    }
}

/// Sharded runs report wall time (the new observability satellite).
#[test]
fn shard_runs_report_elapsed_wall_time() {
    let pts = spiral(5000);
    let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 2);
    let run = engine.run(&pts);
    assert!(run.elapsed > std::time::Duration::ZERO);
}

/// Supervised stream runs report wall time too, from the first chunk
/// dealt to the reduce, so it includes the wait that detects a stall.
#[test]
fn supervised_runs_report_elapsed_wall_time() {
    use std::time::Duration;
    let pts = spiral(5000);
    let engine =
        ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 2).with_chunk(64);
    let clean = SupervisedIngest::new(engine).run_stream(pts.iter().copied());
    assert!(clean.run.elapsed > Duration::ZERO);
    let deadline = Duration::from_millis(100);
    let stalled = SupervisedIngest::new(engine)
        .with_checkpoint_interval(256)
        .with_stall_timeout(deadline)
        .with_fault_plan(FaultPlan::new().stall(0, 6, Duration::from_millis(400)))
        .run_stream(pts.iter().copied());
    assert!(!stalled.is_degraded());
    assert!(
        stalled.run.elapsed >= deadline,
        "elapsed {:?} misses the {deadline:?} stall deadline",
        stalled.run.elapsed
    );
}

fn all_kind_snapshots() -> Vec<(SummaryKind, Vec<u8>)> {
    let pts = spiral(300);
    SummaryKind::ALL
        .iter()
        .map(|&kind| {
            let mut s = SummaryBuilder::new(kind).with_r(16).build_mergeable();
            s.insert_batch(&pts);
            (kind, s.encode_snapshot())
        })
        .collect()
}

/// Bit-flip fuzzing: every single-bit corruption of every backend's
/// snapshot (and a windowed chain's) must yield a typed error — never a
/// panic, never a silently-accepted summary.
#[test]
fn bit_flipped_snapshots_are_rejected() {
    let mut snapshots = all_kind_snapshots();
    let mut w = SummaryBuilder::new(SummaryKind::Uniform)
        .with_r(16)
        .windowed(WindowConfig::last_n(100).with_granularity(32));
    w.insert_batch(&spiral(300));
    let windowed_bytes = Snapshot::encode(&w);

    for (kind, bytes) in &snapshots {
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    SummaryBuilder::restore(&corrupt).is_err(),
                    "{kind}: flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }
    for byte in 0..windowed_bytes.len() {
        let mut corrupt = windowed_bytes.clone();
        corrupt[byte] ^= 1 << (byte % 8);
        assert!(
            WindowedSummary::decode(&corrupt).is_err(),
            "windowed: flip at byte {byte} went undetected"
        );
    }
    // Keep the originals decodable (the fuzz loop must not be vacuous).
    for (kind, bytes) in snapshots.drain(..) {
        assert!(SummaryBuilder::restore(&bytes).is_ok(), "{kind}");
    }
    assert!(WindowedSummary::decode(&windowed_bytes).is_ok());
}

/// Truncation at every prefix length is a typed error.
#[test]
fn truncated_snapshots_are_rejected() {
    for (kind, bytes) in all_kind_snapshots() {
        for len in 0..bytes.len() {
            match SummaryBuilder::restore(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("{kind}: truncation to {len} bytes decoded"),
            }
        }
    }
}

/// Kind-tag swaps: decoding any backend's bytes as any *other* concrete
/// backend is a typed `KindMismatch`, and an unknown tag (e.g. from a
/// newer library) is `UnknownKind` even with a valid checksum.
#[test]
fn kind_tag_swaps_are_rejected() {
    use streamhull::{
        AdaptiveHull, ClusterHull, ExactHull, FixedBudgetAdaptiveHull, FrozenHull,
        NaiveUniformHull, RadialHull, UniformHull,
    };
    let snapshots = all_kind_snapshots();
    let decode_as = |kind: SummaryKind, bytes: &[u8]| -> Result<(), SnapshotError> {
        match kind {
            SummaryKind::Exact => ExactHull::decode(bytes).map(|_| ()),
            SummaryKind::UniformNaive => NaiveUniformHull::decode(bytes).map(|_| ()),
            SummaryKind::Uniform => UniformHull::decode(bytes).map(|_| ()),
            SummaryKind::Radial => RadialHull::decode(bytes).map(|_| ()),
            SummaryKind::Frozen => FrozenHull::decode(bytes).map(|_| ()),
            SummaryKind::Adaptive => AdaptiveHull::decode(bytes).map(|_| ()),
            SummaryKind::AdaptiveFixedBudget => FixedBudgetAdaptiveHull::decode(bytes).map(|_| ()),
            SummaryKind::Cluster => ClusterHull::decode(bytes).map(|_| ()),
        }
    };
    for (stored_kind, bytes) in &snapshots {
        assert_eq!(snapshot::peek_kind(bytes), Ok(Some(*stored_kind)));
        for &as_kind in &SummaryKind::ALL {
            let result = decode_as(as_kind, bytes);
            if as_kind == *stored_kind {
                assert!(result.is_ok(), "{stored_kind} as itself");
            } else {
                assert!(
                    matches!(result, Err(SnapshotError::KindMismatch { .. })),
                    "{stored_kind} decoded as {as_kind}: {result:?}"
                );
            }
        }
    }

    // Unknown tags with a *recomputed* (valid) checksum: the tag dispatch
    // itself must reject them, not just the checksum. Tag 9 is retired (it
    // once marked checkpoint envelopes), so no backend owns it.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    let (_, bytes) = &snapshots[0];
    for tag in [9, 77] {
        let mut patched = bytes.clone();
        patched[6] = tag;
        let body_len = patched.len() - 8;
        let checksum = fnv1a64(&patched[..body_len]);
        patched[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            SummaryBuilder::restore(&patched).unwrap_err(),
            SnapshotError::UnknownKind(tag)
        );
        assert_eq!(
            snapshot::peek_kind(&patched),
            Err(SnapshotError::UnknownKind(tag))
        );
    }

    // A windowed snapshot is not a plain summary.
    let mut w = SummaryBuilder::new(SummaryKind::Exact).windowed(WindowConfig::last_n(10));
    w.insert(Point2::new(1.0, 1.0));
    let werr = SummaryBuilder::restore(&Snapshot::encode(&w)).unwrap_err();
    assert!(matches!(werr, SnapshotError::KindMismatch { .. }));
}

/// The error type is a real `std::error::Error` with stable, readable
/// messages (operators read these out of crashed-recovery logs).
#[test]
fn snapshot_errors_display_usefully() {
    let err: Box<dyn std::error::Error> = Box::new(SnapshotError::BadMagic);
    assert!(err.to_string().contains("magic"));
    assert!(SnapshotError::UnsupportedVersion(9)
        .to_string()
        .contains('9'));
    assert!(SnapshotError::UnknownKind(42).to_string().contains("42"));
}

/// Adversarial (checksum-valid) payloads — corruption the FNV checksum
/// cannot catch because the attacker recomputes it. Structural validation
/// must reject these before any code path can panic (the review-found
/// gap: the bit-flip fuzz only covers corruption of *valid* snapshots).
#[test]
fn forged_checksum_valid_payloads_are_rejected() {
    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]);
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    // Cluster snapshot with r forged to 0: must not decode into a summary
    // that panics when its first cluster opens.
    let cluster = ClusterHull::new(ClusterHullConfig::new(2).with_r(16));
    let mut bytes = Snapshot::encode(&cluster);
    bytes[24..28].copy_from_slice(&0u32.to_le_bytes()); // payload r field
    reseal(&mut bytes);
    match SummaryBuilder::restore(&bytes) {
        Err(SnapshotError::Malformed(_)) => {}
        other => panic!("forged cluster r must be Malformed, got {other:?}"),
    }

    // Uniform snapshot with a run extremum forged to NaN: the live insert
    // boundary would never admit it, and a restored NaN would panic the
    // merge/collector paths later.
    let mut uniform = UniformHull::new(8);
    uniform.insert(Point2::new(1.0, 2.0));
    let mut bytes = Snapshot::encode(&uniform);
    bytes[44..52].copy_from_slice(&f64::NAN.to_le_bytes()); // first run point.x
    reseal(&mut bytes);
    match UniformHull::decode(&bytes) {
        Err(SnapshotError::Malformed(_)) => {}
        other => panic!("forged NaN extremum must be Malformed, got {other:?}"),
    }

    // A direction count forged above the 2^20 ceiling must be rejected
    // before anything is allocated for it: for both uniform kinds, and for
    // the substrate embedded in an adaptive snapshot (after a valid grid
    // shape: r u32, depth u32, queue tag u8).
    let origin = Point2::new(1.0, 2.0);
    let mut naive = NaiveUniformHull::new(8);
    naive.insert(origin);
    let mut uniform = UniformHull::new(8);
    uniform.insert(origin);
    let mut adaptive = AdaptiveHull::with_r(8);
    adaptive.insert(origin);
    for (name, clean, at) in [
        ("uniform-naive", naive.encode_snapshot(), 16),
        ("uniform", uniform.encode_snapshot(), 16),
        ("adaptive substrate", adaptive.encode_snapshot(), 25),
    ] {
        assert_eq!(clean[at..at + 4], 8u32.to_le_bytes(), "{name}: r offset");
        for forged in [u32::MAX, (1 << 20) + 1] {
            let mut bytes = clean.clone();
            bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            reseal(&mut bytes);
            match SummaryBuilder::restore(&bytes) {
                Err(SnapshotError::Malformed(_)) => {}
                other => panic!("{name}: forged r = {forged} must be Malformed, got {other:?}"),
            }
        }
    }

    // A fixed-budget leaf whose depth disagrees with its span: the leaf
    // overlap test reads a leaf's width from its depth. After one point
    // the leaves are the 8 sectors at depth 0; the last leaf (lo u64,
    // hi u64, depth u32, two points) ends the payload.
    let mut fixed = FixedBudgetAdaptiveHull::new(8);
    fixed.insert(origin);
    let mut bytes = fixed.encode_snapshot();
    let at = bytes.len() - 8 - 52 + 16;
    assert_eq!(
        bytes[at..at + 4],
        0u32.to_le_bytes(),
        "last leaf depth offset"
    );
    bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut bytes);
    match SummaryBuilder::restore(&bytes) {
        Err(SnapshotError::Malformed(_)) => {}
        other => panic!("forged leaf depth must be Malformed, got {other:?}"),
    }

    // Adjacent adaptive leaves that disagree on their shared endpoint: the
    // summary stores one extremum per boundary direction. After one point
    // the trees are 8 leaves (tag u8, then the extrema at both ends); move
    // the right end of sector 0's leaf, which sector 1's leaf starts at.
    let mut bytes = adaptive.encode_snapshot();
    let at = bytes.len() - 8 - 8 * 33 + 17;
    assert_eq!(bytes[at - 17], 0, "first leaf tag offset");
    assert_eq!(
        bytes[at..at + 8],
        origin.x.to_le_bytes(),
        "first leaf's right end"
    );
    bytes[at..at + 8].copy_from_slice(&5.0f64.to_le_bytes());
    reseal(&mut bytes);
    match SummaryBuilder::restore(&bytes) {
        Err(SnapshotError::Malformed(_)) => {}
        other => panic!("disagreeing adjacent leaves must be Malformed, got {other:?}"),
    }

    // The queue byte of an adaptive snapshot (after r u32 and depth u32)
    // is always 0: the summary has one unrefinement queue, and 1 named the
    // retired bucket queue.
    let mut bytes = adaptive.encode_snapshot();
    assert_eq!(bytes[24], 0, "adaptive queue byte offset");
    bytes[24] = 1;
    reseal(&mut bytes);
    match SummaryBuilder::restore(&bytes) {
        Err(SnapshotError::Malformed(_)) => {}
        other => panic!("adaptive queue byte 1 must be Malformed, got {other:?}"),
    }

    // So is the queue byte of the builder a window snapshot embeds (after
    // kind u8, r u32, has-depth u8 and depth u32).
    let mut window = SummaryBuilder::new(SummaryKind::Adaptive)
        .with_r(8)
        .windowed(WindowConfig::last_n(100).with_granularity(32));
    window.insert_batch(&spiral(80));
    let mut bytes = Snapshot::encode(&window);
    assert_eq!(bytes[26], 0, "window builder queue byte offset");
    bytes[26] = 1;
    reseal(&mut bytes);
    match WindowedSummary::decode(&bytes) {
        Err(SnapshotError::Malformed(_)) => {}
        other => panic!("window builder queue byte 1 must be Malformed, got {other:?}"),
    }
}
