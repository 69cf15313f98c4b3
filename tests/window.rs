//! Property-based correctness of the sliding-window subsystem: for every
//! backend, a [`WindowedSummary`]'s answer is compared against an
//! [`ExactHull`] rebuilt from only the in-window suffix of the stream.
//!
//! The contract under test (window.rs):
//!
//! * the answer covers **every** in-window point — staleness only ever
//!   *adds* old points (enlarging the hull), it never loses recent ones;
//! * for `LastN` the accounting is exact: `merged - stale == min(n, len)`;
//! * the composed error bound holds against the exact in-window hull;
//! * every reported hull vertex is an actual stream point from the
//!   covered span;
//! * batch boundaries are invisible, even when a batch straddles bucket
//!   seals and expiry (the "expiry races the batch boundary" case);
//! * a query that resumes from the chain's collector checkpoints answers
//!   bit-identically to a snapshot-restored twin, which holds none;
//! * the auto-tick clock stamps the i-th point `i`: explicit stamps build
//!   the same chain, and `LastN(n)` merges what `LastDur(n - 0.5)` does.

use proptest::prelude::*;
use streamhull::prelude::*;
use streamhull::telemetry::names;

fn vertex_bits(hull: &ConvexPolygon) -> Vec<(u64, u64)> {
    hull.vertices()
        .iter()
        .map(|v| (v.x.to_bits(), v.y.to_bits()))
        .collect()
}

fn bound_bits(bound: Option<f64>) -> Option<u64> {
    bound.map(f64::to_bits)
}

/// Queries `live` (warm: it resumes from the checkpoints its earlier
/// queries left) and a twin decoded from its snapshot (cold: a restored
/// chain has no checkpoints), and requires bit-identical answers.
fn warm_matches_cold(live: &WindowedSummary, label: &str) -> Result<(), TestCaseError> {
    let twin = WindowedSummary::decode(&Snapshot::encode(live)).expect("snapshot decodes");
    let (warm, cold) = (live.query_window(), twin.query_window());
    prop_assert_eq!(
        warm.summary.encode_snapshot(),
        cold.summary.encode_snapshot(),
        "{}: collector bytes",
        label
    );
    prop_assert_eq!(
        vertex_bits(warm.hull()),
        vertex_bits(cold.hull()),
        "{}: hull",
        label
    );
    prop_assert_eq!(
        bound_bits(warm.error_bound()),
        bound_bits(cold.error_bound()),
        "{}: bound",
        label
    );
    prop_assert_eq!(warm.merged_points, cold.merged_points, "{}", label);
    prop_assert_eq!(warm.stale_points, cold.stale_points, "{}", label);
    prop_assert_eq!(
        warm.stale_duration.to_bits(),
        cold.stale_duration.to_bits(),
        "{}",
        label
    );
    prop_assert_eq!(warm.buckets, cold.buckets, "{}", label);
    prop_assert_eq!(
        bound_bits(warm.bucket_bound_max),
        bound_bits(cold.bucket_bound_max),
        "{}",
        label
    );
    // The windows' own accessors query again: the live one resumes from
    // the checkpoints the query above just saved.
    prop_assert_eq!(
        vertex_bits(live.hull_ref()),
        vertex_bits(twin.hull_ref()),
        "{}: hull_ref",
        label
    );
    prop_assert_eq!(
        bound_bits(live.error_bound()),
        bound_bits(twin.error_bound()),
        "{}: error_bound",
        label
    );
    Ok(())
}

fn pt_strategy() -> impl Strategy<Value = Point2> {
    prop_oneof![
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        (-4i32..4, -4i32..4).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
        // Skinny band: stresses adaptive refinement inside buckets.
        (-50.0f64..50.0, -0.5f64..0.5).prop_map(|(x, y)| Point2::new(x, y)),
    ]
}

fn stream_strategy(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(pt_strategy(), 1..max)
}

/// The chain knobs, kept small so seals, carries, and expiry all fire
/// inside short proptest streams.
fn chain_strategy() -> impl Strategy<Value = (usize, usize)> {
    // (granularity g, buckets_per_level k)
    (1usize..24, 1usize..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn last_n_answers_match_exact_suffix_for_every_kind(
        pts in stream_strategy(300),
        n in 1u64..200,
        (g, k) in chain_strategy(),
        chunk in 1usize..64,
    ) {
        let in_window = (n as usize).min(pts.len());
        let suffix = &pts[pts.len() - in_window..];
        let mut exact_suffix = ExactHull::new();
        exact_suffix.insert_batch(suffix);
        let truth = exact_suffix.hull();

        for &kind in &SummaryKind::ALL {
            let config = WindowConfig::last_n(n)
                .with_granularity(g)
                .with_buckets_per_level(k);
            let mut w = SummaryBuilder::new(kind).with_r(8).windowed(config);
            for c in pts.chunks(chunk) {
                w.insert_batch(c);
            }
            prop_assert_eq!(w.points_seen(), pts.len() as u64, "{}", kind);
            let ans = w.query_window();

            // Exact LastN accounting: covered = window + staleness.
            prop_assert_eq!(
                ans.merged_points - ans.stale_points,
                in_window as u64,
                "{}: accounting", kind
            );
            // The covered span is the last `merged_points` points; every
            // reported vertex must be inside its exact hull (vertices are
            // actual stream points of the span).
            let span = &pts[pts.len() - ans.merged_points as usize..];
            let mut exact_span = ExactHull::new();
            exact_span.insert_batch(span);
            for &v in ans.hull().vertices() {
                prop_assert!(
                    exact_span.hull_ref().contains_linear(v),
                    "{}: vertex {:?} outside the covered span", kind, v
                );
            }
            // The composed bound holds against the exact in-window hull:
            // the window hull misses no in-window point by more than it.
            if let Some(bound) = ans.error_bound() {
                let err = ans.hull().directed_hausdorff_from(&truth);
                prop_assert!(
                    err <= bound + 1e-9,
                    "{}: window error {} > composed bound {}", kind, err, bound
                );
            }
            // Exact backend: coverage is literal containment.
            if kind == SummaryKind::Exact {
                for &p in suffix {
                    prop_assert!(
                        ans.hull().contains_linear(p),
                        "exact: lost in-window point {:?}", p
                    );
                }
            }
        }
    }

    #[test]
    fn window_batch_is_observably_identical_to_loop(
        pts in stream_strategy(250),
        n in 1u64..150,
        (g, k) in chain_strategy(),
        chunk in 1usize..70,
    ) {
        // Batches race bucket seals *and* expiry: with g and chunk drawn
        // independently, chunks straddle seal points and points expire
        // mid-batch. The chain must come out bit-identical to the
        // per-point loop for every kind.
        for &kind in &SummaryKind::ALL {
            let config = WindowConfig::last_n(n)
                .with_granularity(g)
                .with_buckets_per_level(k);
            let builder = SummaryBuilder::new(kind).with_r(8);
            let mut looped = builder.windowed(config);
            for &p in &pts {
                looped.insert(p);
            }
            let mut batched = builder.windowed(config);
            batched.insert_batch(&[]);
            for c in pts.chunks(chunk) {
                batched.insert_batch(c);
            }
            prop_assert_eq!(looped.points_seen(), batched.points_seen(), "{}", kind);
            prop_assert_eq!(looped.bucket_count(), batched.bucket_count(), "{}", kind);
            prop_assert_eq!(looped.sample_size(), batched.sample_size(), "{}", kind);
            prop_assert_eq!(
                looped.hull_ref().vertices(),
                batched.hull_ref().vertices(),
                "{}: window hull", kind
            );
            let (a, b) = (looped.query_window(), batched.query_window());
            prop_assert_eq!(a.merged_points, b.merged_points, "{}", kind);
            prop_assert_eq!(a.stale_points, b.stale_points, "{}", kind);
            prop_assert_eq!(a.buckets, b.buckets, "{}", kind);
            prop_assert_eq!(a.error_bound(), b.error_bound(), "{}", kind);
        }
    }

    #[test]
    fn warm_queries_match_a_cold_restored_twin(
        pts in stream_strategy(240),
        (g, k) in chain_strategy(),
        (n, dur) in (1u64..120, 1.0f64..40.0),
        (chunk, gaps, steps) in (
            1usize..40,
            // Chunks between queries: short gaps query between consecutive
            // chunks; long ones let the oldest buckets expire and high
            // levels carry before the next query.
            prop::collection::vec(prop_oneof![1usize..3, 6usize..40], 1..40),
            // LastDur clock steps per chunk; 0 makes consecutive bursts
            // share one timestamp.
            prop::collection::vec(prop_oneof![Just(0.0), 0.25f64..4.0], 1..40),
        ),
    ) {
        let chunks: Vec<&[Point2]> = pts.chunks(chunk).collect();
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(8);
            for config in [WindowConfig::last_n(n), WindowConfig::last_dur(dur)] {
                let config = config.with_granularity(g).with_buckets_per_level(k);
                let mut w = builder.windowed(config);
                let mut gap = gaps.iter().cycle();
                let mut due = *gap.next().unwrap();
                let mut t = 0.0;
                for (c, &piece) in chunks.iter().enumerate() {
                    match config.policy {
                        WindowPolicy::LastN(_) => w.insert_batch(piece),
                        WindowPolicy::LastDur(_) => {
                            // One burst: the whole chunk shares a timestamp.
                            t += steps[c % steps.len()];
                            w.insert_batch_at(piece, t);
                        }
                    }
                    due -= 1;
                    if due == 0 || c + 1 == chunks.len() {
                        warm_matches_cold(&w, &format!("{kind} {:?} after chunk {c}", config.policy))?;
                        due = *gap.next().unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn last_dur_covers_the_time_suffix(
        pts in stream_strategy(250),
        dur in 1.0f64..200.0,
        (g, k) in chain_strategy(),
        burst in 1usize..20,
        gap in 0.5f64..30.0,
    ) {
        // Bursty clock: points arrive in flushes of `burst` at the same
        // timestamp, `gap` apart — whole flushes expire at once.
        let stamped: Vec<(Point2, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, (i / burst) as f64 * gap))
            .collect();
        let clock = stamped.last().unwrap().1;
        let start = clock - dur;
        let suffix: Vec<Point2> = stamped
            .iter()
            .filter(|&&(_, t)| t >= start)
            .map(|&(p, _)| p)
            .collect();
        prop_assert!(!suffix.is_empty(), "newest point is always in window");

        let config = WindowConfig::last_dur(dur)
            .with_granularity(g)
            .with_buckets_per_level(k);
        let mut w = SummaryBuilder::new(SummaryKind::Exact).windowed(config);
        for (p, t) in &stamped {
            w.insert_at(*p, *t);
        }
        let ans = w.query_window();
        // Coverage: no in-window point may be lost, ever.
        for &p in &suffix {
            prop_assert!(
                ans.hull().contains_linear(p),
                "lost in-window point {:?} (dur {}, clock {})", p, dur, clock
            );
        }
        prop_assert!(ans.merged_points >= suffix.len() as u64);
        prop_assert!(ans.merged_points <= pts.len() as u64);
        prop_assert!(ans.stale_duration >= 0.0 && ans.stale_duration.is_finite());
        // Exact backend composes to a zero bound.
        prop_assert_eq!(ans.error_bound(), Some(0.0));
        // Same stream through insert_batch_timestamped: identical chain.
        let mut batched = SummaryBuilder::new(SummaryKind::Exact).windowed(config);
        for c in stamped.chunks(17) {
            batched.insert_batch_timestamped(c);
        }
        prop_assert_eq!(
            w.hull_ref().vertices(),
            batched.hull_ref().vertices(),
            "timestamped batch must match the insert_at loop"
        );
    }

    #[test]
    fn stream_index_stamps_match_the_auto_tick_clock(
        pts in stream_strategy(250),
        n in 1u64..150,
        (g, k) in chain_strategy(),
        chunk in 1usize..70,
    ) {
        // Auto-ticked ingestion stamps the i-th stream point `i`; feeding
        // those stamps through `insert_batch_timestamped` must build the
        // same chain, byte for byte, under either policy.
        let stamped: Vec<(Point2, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64))
            .collect();
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(8);
            for config in [WindowConfig::last_n(n), WindowConfig::last_dur(n as f64)] {
                let config = config.with_granularity(g).with_buckets_per_level(k);
                let label = format!("{kind} {:?}", config.policy);
                let mut ticked = builder.windowed(config);
                for c in pts.chunks(chunk) {
                    ticked.insert_batch(c);
                }
                let mut explicit = builder.windowed(config);
                for c in stamped.chunks(chunk) {
                    explicit.insert_batch_timestamped(c);
                }
                prop_assert_eq!(
                    ticked.now().map(f64::to_bits),
                    Some(((pts.len() - 1) as f64).to_bits()),
                    "{}: clock", label
                );
                prop_assert_eq!(
                    Snapshot::encode(&ticked),
                    Snapshot::encode(&explicit),
                    "{}: chain bytes", label
                );
                let (a, b) = (ticked.query_window(), explicit.query_window());
                prop_assert_eq!(vertex_bits(a.hull()), vertex_bits(b.hull()), "{}: hull", label);
                prop_assert_eq!(
                    bound_bits(a.error_bound()),
                    bound_bits(b.error_bound()),
                    "{}: bound", label
                );
                prop_assert_eq!(a.merged_points, b.merged_points, "{}", label);
                prop_assert_eq!(a.stale_points, b.stale_points, "{}", label);
            }
        }
    }

    #[test]
    fn last_n_and_last_dur_agree_on_the_auto_tick_clock(
        pts in stream_strategy(300),
        n in 1u64..200,
        (g, k) in chain_strategy(),
        chunk in 1usize..64,
    ) {
        // On the auto-tick clock `LastDur(n - 0.5)` expires exactly the
        // buckets `LastN(n)` expires, so both merge the same chain. Only
        // the staleness accounting differs: `window_points` is exact for
        // the count window and a lower bound for the time window, which
        // counts all but the straddling bucket's newest point as stale.
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(8);
            let shape = |c: WindowConfig| c.with_granularity(g).with_buckets_per_level(k);
            let mut count = builder.windowed(shape(WindowConfig::last_n(n)));
            let mut time = builder.windowed(shape(WindowConfig::last_dur(n as f64 - 0.5)));
            for c in pts.chunks(chunk) {
                count.insert_batch(c);
                time.insert_batch(c);
            }
            prop_assert_eq!(count.bucket_count(), time.bucket_count(), "{}", kind);
            let (a, b) = (count.query_window(), time.query_window());
            prop_assert_eq!(vertex_bits(a.hull()), vertex_bits(b.hull()), "{}: hull", kind);
            prop_assert_eq!(
                bound_bits(a.error_bound()),
                bound_bits(b.error_bound()),
                "{}: bound", kind
            );
            prop_assert_eq!(a.merged_points, b.merged_points, "{}", kind);
            prop_assert_eq!(a.buckets, b.buckets, "{}", kind);
            let in_window = n.min(pts.len() as u64);
            prop_assert_eq!(a.window_points(), in_window, "{}: LastN is exact", kind);
            prop_assert!(
                (1..=in_window).contains(&b.window_points()),
                "{}: LastDur counts {} of {} in-window points", kind, b.window_points(), in_window
            );
        }
    }

    #[test]
    fn tiny_streams_single_bucket_and_no_expiry(
        pts in stream_strategy(40),
        extra in 0u64..100,
    ) {
        // Window at least as large as the stream: nothing expires, the
        // answer covers everything exactly, staleness is zero.
        let n = pts.len() as u64 + extra;
        for &kind in &SummaryKind::ALL {
            let mut w = SummaryBuilder::new(kind)
                .with_r(8)
                .windowed(WindowConfig::last_n(n).with_granularity(64));
            w.insert_batch(&pts);
            // Streams up to 40 points with g = 64: a single (open) bucket.
            prop_assert_eq!(w.bucket_count(), 1, "{}", kind);
            let ans = w.query_window();
            prop_assert_eq!(ans.merged_points, pts.len() as u64, "{}", kind);
            prop_assert_eq!(ans.stale_points, 0, "{}", kind);
            prop_assert_eq!(ans.stale_duration.to_bits(), 0.0f64.to_bits(), "{}", kind);
            // One bucket, no expiry: the window summary must agree with a
            // plain whole-stream summary of the same kind on sample size.
            let mut plain = SummaryBuilder::new(kind).with_r(8).build();
            plain.insert_batch(&pts);
            prop_assert_eq!(w.sample_size(), plain.sample_size(), "{}", kind);
        }
    }

}

/// Everything a differential check compares: the chain's snapshot bytes,
/// the query answer bit for bit, and the scrape's lifecycle counters.
fn chain_record(w: &WindowedSummary, tel: Telemetry) -> (Vec<u8>, String, [u64; 3]) {
    let ans = w.query_window();
    let answer = format!(
        "hull {:?} bound {:?} merged {} stale {} buckets {}",
        vertex_bits(ans.hull()),
        bound_bits(ans.error_bound()),
        ans.merged_points,
        ans.stale_points,
        ans.buckets
    );
    let scrape = tel.scrape();
    let counters = [
        names::WINDOW_SEALS,
        names::WINDOW_MERGES,
        names::WINDOW_EXPIRIES,
    ]
    .map(|name| scrape.counter_total(name));
    (Snapshot::encode(w), answer, counters)
}

#[test]
fn batches_closing_many_buckets_match_the_per_point_loop() {
    // Batches of 512 to 4,096 points close 2 to 64 full buckets each, so
    // on a multi-core host they build them on scoped threads for the
    // kinds whose buckets pay for it (adaptive, adaptive-2r and cluster
    // from 512 points, uniform and exact from 4,096; uniform-naive,
    // frozen and radial stay inline), in windows shorter than one batch:
    // expiries and multi-level carries fire inside a batch. Each chain
    // must equal the per-point loop's, under `LastN` (auto-tick), under
    // `LastDur` fed individual timestamps, and under `LastDur` fed one
    // timestamp per batch.
    let mut pts: Vec<Point2> = streamgen::Drift::new(
        29,
        9_000,
        Point2::new(0.0, 0.0),
        Point2::new(256.0, 64.0),
        1.0,
    )
    .collect();
    pts[5_000] = Point2::new(f64::NAN, 1.0);
    let sizes = [512, 4_096, 777, 2_048, 512, 1_000];
    let mut batches = Vec::new();
    let mut start = 0;
    for &size in sizes.iter().cycle() {
        let end = (start + size).min(pts.len());
        batches.push(start..end);
        start = end;
        if start == pts.len() {
            break;
        }
    }
    let stamp = |i: usize| (i / 3) as f64 * 0.5;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "available parallelism {workers}: the {} path ran",
        if workers > 1 { "fan-out" } else { "inline" }
    );
    for kind in SummaryKind::ALL {
        for g in [64, 256] {
            let builder = SummaryBuilder::new(kind).with_r(16);
            for policy in ["last_n", "timestamped", "at"] {
                let config = match policy {
                    "last_n" => WindowConfig::last_n(1_500),
                    "timestamped" => WindowConfig::last_dur(600.0),
                    _ => WindowConfig::last_dur(150.0),
                }
                .with_granularity(g);
                let label = format!("{kind} g={g} {policy}");
                let [(mut looped, lt), (mut batched, bt)] = [(); 2].map(|()| {
                    let tel = Telemetry::new();
                    (builder.windowed(config).with_telemetry(tel), tel)
                });
                for (b, range) in batches.iter().enumerate() {
                    let batch = &pts[range.clone()];
                    match policy {
                        "last_n" => {
                            batch.iter().for_each(|&p| looped.insert(p));
                            batched.insert_batch(batch);
                        }
                        "timestamped" => {
                            let stamped: Vec<(Point2, f64)> =
                                range.clone().map(|i| (pts[i], stamp(i))).collect();
                            stamped.iter().for_each(|&(p, t)| looped.insert_at(p, t));
                            batched.insert_batch_timestamped(&stamped);
                        }
                        _ => {
                            let t = 100.0 * b as f64;
                            batch.iter().for_each(|&p| looped.insert_at(p, t));
                            batched.insert_batch_at(batch, t);
                        }
                    }
                    // After every batch: a later expiry can drop the
                    // buckets a wrong batch built.
                    let (want, got) = (chain_record(&looped, lt), chain_record(&batched, bt));
                    assert!(want.0 == got.0, "{label}, batch {b}: chain bytes");
                    assert_eq!(want.1, got.1, "{label}, batch {b}: answer");
                    assert_eq!(want.2, got.2, "{label}, batch {b}: seals, merges, expiries");
                }
                assert_eq!(looped.points_seen(), pts.len() as u64 - 1, "{label}");
                let counters = chain_record(&looped, lt).2;
                assert!(counters[1] > 0 && counters[2] > 0, "{label}: {counters:?}");
            }
        }
    }
}

#[test]
fn empty_stream_empty_window() {
    for &kind in &SummaryKind::ALL {
        let w = SummaryBuilder::new(kind)
            .with_r(8)
            .windowed(WindowConfig::last_n(10));
        let ans = w.query_window();
        assert!(ans.is_empty(), "{kind}");
        assert_eq!(ans.buckets, 0, "{kind}");
        assert_eq!(ans.stale_points, 0, "{kind}");
        assert!(ans.hull().is_empty(), "{kind}");
        assert_eq!(w.bucket_count(), 0, "{kind}");
    }
}
