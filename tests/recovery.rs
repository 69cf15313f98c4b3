#![recursion_limit = "1024"]
//! Chaos tests for `core::recovery`: deterministic fault injection
//! through `FaultPlan`, checkpoint-replay recovery equality, graceful
//! degradation accounting, and the recovery invariants as property
//! tests.
//!
//! The central claim under test: because snapshot restore is bit-exact
//! (PR 5) and replay re-dispatches the exact buffered chunks in order,
//! a recovered run is **bit-identical** to the fault-free run — for
//! every summary kind, not just `Exact` — and a degraded run accounts
//! for every stream point (`Σ per-shard seen + lost == stream length`).

use proptest::prelude::*;
use std::time::Duration;
use streamhull::prelude::*;
use streamhull::{DetectedFault, ShardStatus};

fn spiral(n: usize) -> Vec<Point2> {
    (0..n)
        .map(|i| {
            let t = 2.399963229728653 * i as f64;
            let rad = 1.0 + 0.01 * i as f64;
            Point2::new(rad * t.cos(), rad * t.sin())
        })
        .collect()
}

fn assert_runs_equal(a: &ShardRun, b: &ShardRun, label: &str) {
    assert_eq!(
        a.summary.hull_ref().vertices(),
        b.summary.hull_ref().vertices(),
        "{label}: hull"
    );
    assert_eq!(a.summary.points_seen(), b.summary.points_seen(), "{label}");
    assert_eq!(a.summary.sample_size(), b.summary.sample_size(), "{label}");
    assert_eq!(a.summary.error_bound(), b.summary.error_bound(), "{label}");
    assert_eq!(a.shards.len(), b.shards.len(), "{label}");
    for (x, y) in a.shards.iter().zip(&b.shards) {
        assert_eq!(x.points_seen, y.points_seen, "{label}: shard stats");
        assert_eq!(x.sample_size, y.sample_size, "{label}: shard stats");
        assert_eq!(x.error_bound, y.error_bound, "{label}: shard stats");
    }
}

/// A mid-stream crash recovers via checkpoint replay to a result
/// bit-identical to the fault-free run — for all eight kinds.
#[test]
fn crash_recovery_is_bit_identical_for_every_kind() {
    let pts = spiral(4000);
    for &kind in &SummaryKind::ALL {
        let engine = ShardedIngest::new(SummaryBuilder::new(kind).with_r(16), 3).with_chunk(128);
        let clean = engine.run(&pts);
        let run = SupervisedIngest::new(engine)
            .with_checkpoint_interval(512)
            .with_fault_plan(FaultPlan::new().crash(1, 10))
            .run_stream(pts.iter().copied());
        assert!(!run.is_degraded(), "{kind}");
        assert_eq!(run.report.total_retries(), 1, "{kind}");
        assert_runs_equal(&run.run, &clean, &format!("{kind}: crash recovery"));
        assert_eq!(
            run.error_bound(),
            clean.error_bound(),
            "{kind}: composed bound unchanged"
        );
    }
}

/// A stall past the configured deadline is detected, the stuck epoch is
/// abandoned, and replay recovers the identical result.
#[test]
fn stall_recovery_detects_and_replays() {
    let pts = spiral(3000);
    let engine =
        ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 2).with_chunk(64);
    let clean = engine.run(&pts);
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(256)
        .with_stall_timeout(Duration::from_millis(150))
        .with_fault_plan(FaultPlan::new().stall(0, 6, Duration::from_millis(1500)))
        .run_stream(pts.iter().copied());
    assert!(!run.is_degraded());
    assert!(
        run.report
            .events
            .iter()
            .any(|e| matches!(e.fault, DetectedFault::Stall)),
        "stall must be detected: {:?}",
        run.report.events
    );
    assert_runs_equal(&run.run, &clean, "stall recovery");
}

/// A corrupted checkpoint is rejected by validation (typed
/// `SnapshotError`), the shard restarts from the previous valid one, and
/// the result is unchanged.
#[test]
fn corrupt_checkpoint_is_rejected_and_recovered() {
    let pts = spiral(4000);
    let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 2).with_chunk(100);
    let clean = engine.run(&pts);
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(300)
        .with_fault_plan(FaultPlan::new().corrupt_checkpoint(1, 2, 17))
        .run_stream(pts.iter().copied());
    assert!(!run.is_degraded());
    assert_eq!(run.report.checkpoints_rejected, 1);
    assert!(
        run.report
            .events
            .iter()
            .any(|e| matches!(e.fault, DetectedFault::CorruptCheckpoint(_))),
        "{:?}",
        run.report.events
    );
    assert!(run.report.checkpoints_taken > run.report.checkpoints_rejected);
    assert_runs_equal(&run.run, &clean, "corrupt checkpoint recovery");
}

/// A scripted non-finite burst is detected by the validating ingest
/// path, dropped, and the run continues — equal to the clean run, with
/// the drop counted and attributed.
#[test]
fn non_finite_burst_is_sanitized_and_counted() {
    let pts = spiral(3000);
    let engine =
        ShardedIngest::new(SummaryBuilder::new(SummaryKind::Cluster).with_r(16), 2).with_chunk(64);
    let clean = engine.run(&pts);
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(512)
        .with_fault_plan(FaultPlan::new().non_finite_burst(1, 3, 5))
        .run_stream(pts.iter().copied());
    assert!(!run.is_degraded());
    assert_eq!(run.report.injected_non_finite, 5);
    assert_eq!(run.report.dropped_non_finite, 5);
    assert_eq!(run.report.total_retries(), 0, "sanitising needs no restart");
    assert!(run
        .report
        .events
        .iter()
        .any(|e| matches!(e.fault, DetectedFault::NonFinite { dropped: 5 })));
    assert_runs_equal(&run.run, &clean, "non-finite sanitize");
}

/// Dirty streams built with the `streamgen` fault adapters flow through
/// the same sanitize path: the supervised result over the dirty stream
/// equals the clean-stream run, and every injected NaN is counted.
#[test]
fn stream_fault_adapters_drive_the_sanitize_path() {
    let clean_pts = spiral(2000);
    let dirty: Vec<Point2> =
        streamhull::streamgen::NonFiniteBursts::seeded(clean_pts.iter().copied(), 7, 2000, 200, 3)
            .collect();
    let injected = (dirty.len() - clean_pts.len()) as u64;
    assert!(injected > 0, "the seeded adapter must fire");
    let engine =
        ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 2).with_chunk(64);
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(512)
        .run_stream(dirty.iter().copied());
    assert!(!run.is_degraded());
    assert_eq!(run.report.dropped_non_finite, injected);
    // NaN positions shift the chunk boundaries, so the dirty run is not
    // chunk-for-chunk the clean run — but every point is accounted.
    let seen: u64 = run.report.shards.iter().map(|s| s.points_seen).sum();
    assert_eq!(seen, clean_pts.len() as u64);
}

/// Exhausted retries quarantine the shard and the run completes degraded
/// with honest geometry: the lost points widen `error_bound` (the
/// outward spiral guarantees the lost suffix sticks out of the merged
/// hull), and the report pins exactly what is missing.
#[test]
fn exhausted_retries_degrade_with_widened_bound() {
    let mut pts = spiral(4000);
    // Plant an extreme point inside the doomed range (index 3050 lives in
    // chunk 30 → shard 0): its loss must visibly widen the bound.
    pts[3050] = Point2::new(1000.0, 0.0);
    let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 2).with_chunk(100);
    let clean = engine.run(&pts);
    // Three scripted crashes at the same chunk: the first fires on
    // dispatch, the remaining ones re-fire on each replay.
    let plan = FaultPlan::new().crash(0, 30).crash(0, 30).crash(0, 30);
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(400)
        .with_retry_policy(RetryPolicy::new(2))
        .with_fault_plan(plan)
        .run_stream(pts.iter().copied());
    assert!(run.is_degraded());
    assert_eq!(run.report.shards[0].status, ShardStatus::Quarantined);
    assert_eq!(run.report.shards[1].status, ShardStatus::Healthy);
    assert!(run.report.lost_points > 0);
    let seen: u64 = run.report.shards.iter().map(|s| s.points_seen).sum();
    assert_eq!(seen + run.report.lost_points, pts.len() as u64);
    // Exact backends have a composed bound of 0; the degraded bound must
    // widen to cover the lost suffix, which spirals outward.
    assert_eq!(clean.summary.error_bound(), Some(0.0));
    let widened = run.error_bound().expect("lost geometry is traced");
    assert!(
        widened > 900.0,
        "losing the planted outlier must widen the bound past its reach, got {widened}"
    );
    // The widened bound really covers the lost points: every lost-hull
    // vertex is within `widened` of the merged hull.
    for &v in run.report.lost_hull().vertices() {
        assert!(run.run.summary.hull_ref().distance_to_point(v) <= widened + 1e-12);
    }
    // Quarantine still keeps the checkpointed prefix: the merged summary
    // saw more than shard 1 alone.
    assert!(run.run.summary.points_seen() > 0);
}

/// Evicting past the replay bound is safe while no fault needs the
/// evicted chunks — but once one does, the loss is accounted and the
/// error bound honestly withdrawn (`None`), never silently wrong.
#[test]
fn replay_bound_overflow_is_accounted_not_silent() {
    let pts = spiral(4000);
    let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 2).with_chunk(50);
    // Huge checkpoint interval: the buffer can only shed chunks past the
    // bound, and a late crash then finds its history gone.
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(1_000_000)
        .with_replay_bound(2)
        .with_fault_plan(FaultPlan::new().crash(0, 30))
        .run_stream(pts.iter().copied());
    assert!(run.is_degraded());
    assert!(run.report.lost_points > 0);
    assert_eq!(
        run.error_bound(),
        None,
        "traceless loss must withdraw the bound, not fake one"
    );
    let seen: u64 = run.report.shards.iter().map(|s| s.points_seen).sum();
    assert_eq!(seen + run.report.lost_points, pts.len() as u64);
    // Without a fault, the same bound just evicts quietly and loses
    // nothing.
    let engine2 = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 2).with_chunk(50);
    let calm = SupervisedIngest::new(engine2)
        .with_checkpoint_interval(1_000_000)
        .with_replay_bound(2)
        .run_stream(pts.iter().copied());
    assert!(!calm.is_degraded());
    assert_eq!(calm.report.lost_points, 0);
}

/// A poisoned (non-finite-burst) chunk replayed after a crash must not
/// double-count its sanitized drops: on a fully recovered run the
/// dropped-non-finite tally equals the injected tally exactly.
#[test]
fn replayed_poison_chunk_accounting() {
    let pts: Vec<Point2> = (0..2000)
        .map(|i| {
            let t = i as f64 * 0.1;
            Point2::new(t.cos(), t.sin())
        })
        .collect();
    let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 2).with_chunk(100);
    // Poison chunk 0 (shard 0), then crash shard 0 at chunk 2 — before a
    // checkpoint (interval 10_000 -> none taken) covers chunk 0, so the
    // replay re-ingests the poisoned chunk.
    let plan = FaultPlan::new().non_finite_burst(0, 0, 5).crash(0, 2);
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(10_000)
        .with_fault_plan(plan)
        .run_stream(pts.iter().copied());
    assert!(!run.is_degraded());
    assert_eq!(
        run.report.dropped_non_finite, run.report.injected_non_finite,
        "dropped_non_finite should equal injected on a recovered run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Any single `CrashShard` fault, at any chunk, under any checkpoint
    // interval, recovers to a run equal to the fault-free run —
    // bit-identical hull, stats, and bounds (exact and adaptive kinds).
    #[test]
    fn any_single_crash_recovers_exactly(
        shards in 1usize..4,
        chunk in 16usize..96,
        at_chunk in 0u64..20,
        interval in 1u64..600,
        n in 500usize..2500,
    ) {
        let pts = spiral(n);
        let crash_shard = (at_chunk % shards as u64) as usize;
        for &kind in &[SummaryKind::Exact, SummaryKind::Adaptive] {
            let engine = ShardedIngest::new(SummaryBuilder::new(kind).with_r(8), shards)
                .with_chunk(chunk);
            let clean = engine.run(&pts);
            let run = SupervisedIngest::new(engine)
                .with_checkpoint_interval(interval)
                .with_fault_plan(FaultPlan::new().crash(crash_shard, at_chunk))
                .run_stream(pts.iter().copied());
            prop_assert!(!run.is_degraded(), "{}", kind);
            prop_assert_eq!(
                run.run.summary.hull_ref().vertices(),
                clean.summary.hull_ref().vertices(),
                "{}: recovered hull differs", kind
            );
            prop_assert_eq!(run.run.summary.points_seen(), clean.summary.points_seen());
            prop_assert_eq!(run.run.summary.sample_size(), clean.summary.sample_size());
            prop_assert_eq!(run.run.summary.error_bound(), clean.summary.error_bound());
        }
    }

    // Exhausted retries always yield a degraded-but-accounted run:
    // per-shard seen plus reported lost points sum to the stream
    // length, and the run never panics.
    #[test]
    fn exhausted_retries_account_every_point(
        shards in 1usize..4,
        chunk in 16usize..96,
        at_chunk in 0u64..20,
        n in 500usize..2500,
        interval in 1u64..600,
    ) {
        let pts = spiral(n);
        let crash_shard = (at_chunk % shards as u64) as usize;
        let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), shards)
            .with_chunk(chunk);
        let run = SupervisedIngest::new(engine)
            .with_checkpoint_interval(interval)
            .with_retry_policy(RetryPolicy::none())
            .with_fault_plan(FaultPlan::new().crash(crash_shard, at_chunk))
            .run_stream(pts.iter().copied());
        let seen: u64 = run.report.shards.iter().map(|s| s.points_seen).sum();
        prop_assert_eq!(
            seen + run.report.lost_points,
            pts.len() as u64,
            "accounting leak: report {:?}", run.report.shards
        );
        // The fault fires iff the stream reaches the scripted chunk.
        let chunks = pts.len().div_ceil(chunk);
        if at_chunk < chunks as u64 {
            prop_assert!(run.is_degraded());
            prop_assert_eq!(run.report.shards[crash_shard].status, ShardStatus::Quarantined);
            prop_assert!(run.report.lost_points > 0);
        } else {
            prop_assert!(!run.is_degraded());
        }
    }
}

/// The crash events of a run, as `(shard, chunk)` pairs.
fn crash_sites(run: &SupervisedRun) -> Vec<(usize, u64)> {
    let events = run.report.events.iter();
    let crashes = events.filter(|e| matches!(e.fault, DetectedFault::WorkerPanic));
    crashes.map(|e| (e.shard, e.chunk)).collect()
}

/// A crash at chunk `c` is attributed to `c` on every run, whether the
/// supervisor finds the dead worker while draining its acknowledgements
/// or while blocked sending it the next hand-off: it books the dead
/// epoch's acknowledgements first and names the first chunk of that
/// shard the epoch never acknowledged.
#[test]
fn crashes_are_attributed_to_the_injected_chunk() {
    let pts = spiral(20_000);
    let engine = |shards| {
        ShardedIngest::new(
            SummaryBuilder::new(SummaryKind::Adaptive).with_r(16),
            shards,
        )
        .with_chunk(64)
    };
    let cases = [(2, 1, 5), (3, 2, 11), (2, 0, 40), (3, 0, 99)];
    for (shards, shard, at_chunk) in cases {
        let clean = engine(shards).run(&pts);
        for interval in [256, 8192] {
            for rep in 0..25 {
                let run = SupervisedIngest::new(engine(shards))
                    .with_checkpoint_interval(interval)
                    .with_fault_plan(FaultPlan::new().crash(shard, at_chunk))
                    .run_stream(pts.iter().copied());
                let label = format!(
                    "crash({shard}, {at_chunk}), N = {shards}, interval {interval}, run {rep}"
                );
                assert_eq!(crash_sites(&run), [(shard, at_chunk)], "{label}");
                assert_runs_equal(&run.run, &clean, &label);
            }
        }
    }
    // Found by a blocked send: the first hand-off holds the worker for
    // 30 ms, so the supervisor queues the next one and blocks on the
    // third before the worker reaches the crash.
    for rep in 0..10 {
        let plan = FaultPlan::new()
            .stall(0, 0, Duration::from_millis(30))
            .crash(0, 4);
        let run = SupervisedIngest::new(engine(2))
            .with_checkpoint_interval(256)
            .with_fault_plan(plan)
            .run_stream(pts.iter().copied());
        assert_eq!(crash_sites(&run), [(0, 4)], "blocked send, run {rep}");
        assert_runs_equal(&run.run, &engine(2).run(&pts), "blocked send");
    }
}

/// Bit-level equality of two runs: hull, bound and per-shard stats.
fn assert_runs_bit_equal(a: &ShardRun, b: &ShardRun, label: &str) {
    let bits = |r: &ShardRun| -> Vec<(u64, u64)> {
        let hull = r.summary.hull_ref().vertices().iter();
        hull.map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
    };
    assert_eq!(bits(a), bits(b), "{label}: hull bits");
    let bound = |r: &ShardRun| r.error_bound().map(f64::to_bits);
    assert_eq!(bound(a), bound(b), "{label}: bound bits");
    assert_runs_equal(a, b, label);
    for (x, y) in a.shards.iter().zip(&b.shards) {
        let bound = |s: &ShardStats| s.error_bound.map(f64::to_bits);
        assert_eq!(bound(x), bound(y), "{label}: shard bound bits");
    }
}

/// Hand-offs carry several chunks, yet the partition, every
/// `insert_batch`, the checkpoints and the replays stay per chunk.
/// Hand-offs of 1, 2, 4 and 8 chunks (a checkpoint every that many of a
/// shard's chunks) and one capped at 2 by the replay bound, over 1, 2 and
/// 3 shards and a stream that ends in a partial chunk: a fault-free run
/// equals `ShardedIngest::run`, and a crash at the first, a middle and the
/// last chunk of a hand-off recovers bit-identically, replaying no more
/// than the two hand-offs in flight to the worker.
#[test]
fn hand_offs_keep_per_chunk_semantics() {
    const CHUNK: usize = 64;
    let pts = spiral(CHUNK * 150 + 37);
    // (chunks per checkpoint, replay bound, chunks per hand-off)
    let configs = [(1, 0, 1), (2, 0, 2), (4, 0, 4), (8, 0, 8), (8, 2, 2)];
    for shards in 1..=3 {
        let engine = ShardedIngest::new(
            SummaryBuilder::new(SummaryKind::Adaptive).with_r(16),
            shards,
        )
        .with_chunk(CHUNK);
        let reference = engine.run(&pts);
        for (stride, bound, hand_off) in configs {
            let supervised = || {
                SupervisedIngest::new(engine)
                    .with_checkpoint_interval((stride * CHUNK) as u64)
                    .with_replay_bound(bound)
            };
            let label = format!("{shards} shards, checkpoint every {stride} chunks, bound {bound}");
            let clean = supervised().run_stream(pts.iter().copied());
            assert!(
                clean.report.events.is_empty(),
                "{label}: {:?}",
                clean.report.events
            );
            assert_runs_bit_equal(&clean.run, &reference, &label);
            // Crash in the second checkpoint interval of the last shard.
            // Under the replay bound only the interval's first chunk is
            // recoverable for certain: acknowledged chunks past the bound
            // may be evicted before a later crash needs them.
            let offsets: Vec<usize> = if bound == 0 {
                let mut o = vec![0, hand_off / 2, hand_off - 1];
                o.dedup();
                o
            } else {
                vec![0]
            };
            let shard = shards - 1;
            for offset in offsets {
                let local = (stride + offset) as u64;
                let at_chunk = local * shards as u64 + shard as u64;
                let run = supervised()
                    .with_fault_plan(FaultPlan::new().crash(shard, at_chunk))
                    .run_stream(pts.iter().copied());
                let label = format!("{label}: crash at chunk {at_chunk}");
                assert!(!run.is_degraded(), "{label}");
                assert_eq!(crash_sites(&run), [(shard, at_chunk)], "{label}");
                assert_runs_bit_equal(&run.run, &reference, &label);
                let replayed = run.report.shards[shard].replayed_chunks;
                assert!(
                    (1..=2 * hand_off as u64).contains(&replayed),
                    "{label}: replayed {replayed} chunks, hand-offs of {hand_off}"
                );
            }
        }
    }
}

/// A slow but healthy worker is not a stall: four 40 ms holds inside one
/// 8-chunk hand-off keep the worker busy for 160 ms while the supervisor
/// waits to send it more, but every chunk's acknowledgement restarts the
/// 100 ms deadline.
#[test]
fn a_busy_hand_off_is_not_a_stall() {
    let pts = spiral(12_000);
    let engine =
        ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 2).with_chunk(64);
    let clean = engine.run(&pts);
    // Shard 0's second hand-off holds its chunks 8..16; hold on 9..13.
    let mut plan = FaultPlan::new();
    for local in 9..13_u64 {
        plan = plan.stall(0, local * 2, Duration::from_millis(40));
    }
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(512)
        .with_stall_timeout(Duration::from_millis(100))
        .with_fault_plan(plan)
        .run_stream(pts.iter().copied());
    assert!(run.report.events.is_empty(), "{:?}", run.report.events);
    assert_eq!(run.report.total_retries(), 0);
    assert!(run.run.elapsed >= Duration::from_millis(160));
    assert_runs_bit_equal(&run.run, &clean, "slow hand-off");
}

/// A crash or stall scripted for a later chunk of the hand-off (or of the
/// queued one) that a crash cut short has not acted on the run: the
/// replay acts it out, so every scripted crash is reported at its chunk.
#[test]
fn faults_behind_a_crash_in_flight_still_fire() {
    let pts = spiral(20_000);
    for (shards, first, second) in [(2, 2, 8), (2, 2, 20), (3, 4, 13)] {
        let engine = ShardedIngest::new(
            SummaryBuilder::new(SummaryKind::Adaptive).with_r(16),
            shards,
        )
        .with_chunk(64);
        let clean = engine.run(&pts);
        let shard = (first % shards as u64) as usize;
        for rep in 0..10 {
            let run = SupervisedIngest::new(engine)
                .with_checkpoint_interval(512)
                .with_fault_plan(FaultPlan::new().crash(shard, first).crash(shard, second))
                .run_stream(pts.iter().copied());
            let label = format!("crashes at {first} and {second}, N = {shards}, run {rep}");
            assert_eq!(
                crash_sites(&run),
                [(shard, first), (shard, second)],
                "{label}"
            );
            assert_runs_bit_equal(&run.run, &clean, &label);
        }
    }
}
