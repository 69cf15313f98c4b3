//! End-to-end tests for the resource-governed [`TenantEngine`]: spilled
//! tenants restore bit-exactly (the spilled/never-spilled twins stay
//! indistinguishable even under further ingestion), corrupt spills
//! quarantine exactly the affected tenant, and the byte budget plus the
//! `seen == ingested + shed` ledger hold under arbitrary traffic.

#![recursion_limit = "1024"]

use proptest::prelude::*;
use std::collections::HashMap;
use streamhull::prelude::*;
use streamhull::streamgen::TenantTraffic;

fn pt_strategy() -> impl Strategy<Value = Point2> {
    prop_oneof![
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        (-4i32..4, -4i32..4).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
        // Skinny band: stresses adaptive refinement.
        (-50.0f64..50.0, -0.5f64..0.5).prop_map(|(x, y)| Point2::new(x, y)),
    ]
}

fn stream_strategy(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(pt_strategy(), 1..max)
}

/// Builder for one of the eight kinds, with a per-case `r` and seed so
/// the shared-table paths (frozen fan, radial sectors) vary too.
fn builder_for(kind_idx: usize, rexp: u32, seed: u64) -> SummaryBuilder {
    let kind = SummaryKind::ALL[kind_idx];
    SummaryBuilder::new(kind).with_r(1 << rexp).with_seed(seed)
}

/// A summary's observable answers (hull vertices, error bound, sample
/// size, points seen), captured with bit-exact float identity, and its
/// accounted footprint.
type Fingerprint = ((Vec<(u64, u64)>, Option<u64>, usize, u64), usize);

fn fingerprint(s: &dyn HullSummary) -> Fingerprint {
    let verts: Vec<(u64, u64)> = s
        .hull()
        .vertices()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    let bound = s.error_bound().map(f64::to_bits);
    (
        (verts, bound, s.sample_size(), s.points_seen()),
        s.approx_bytes(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Tentpole guarantee: spill -> idle -> touch -> restore is invisible.
    // A tenant that went cold and came back answers identically (hull
    // vertices, error bound, sample size, points seen — all bit-exact) to
    // a bare summary that never spilled, accounts the same `approx_bytes`
    // as a tenant that never spilled, and stays identical under further
    // ingestion. Runs over all eight backends.
    #[test]
    fn spilled_tenant_is_bit_identical_to_never_spilled_twin(
        kind_idx in 0usize..SummaryKind::ALL.len(),
        rexp in 3u32..6,
        seed in 0u64..1_000_000,
        before in stream_strategy(120),
        after in stream_strategy(60),
    ) {
        let builder = builder_for(kind_idx, rexp, seed);
        let config = TenantConfig::new(builder).with_idle_ticks(1);
        let mut engine = TenantEngine::new(config);
        let id = StreamId(7);
        engine.insert_batch(id, &before).unwrap();

        // Two never-spilled twins ingest the same stream: a bare summary,
        // and a tenant of an engine that never ticks. Only the tenant
        // shares frozen fans and radial sector tables the way the spilled
        // tenant does, so only its footprint is comparable.
        let mut twin = builder.build();
        twin.insert_batch(&before);
        let mut hot = TenantEngine::new(config);
        hot.insert_batch(id, &before).unwrap();

        // Idle the tenant past the spill threshold. The idle sweep only
        // takes spills that shrink the footprint; tiny streams whose
        // envelope would not are forced cold through the explicit hook.
        engine.tick();
        engine.tick();
        if engine.tier(id) != Some(Tier::Cold) {
            prop_assert!(engine.spill(id), "forced spill of a hot tenant must succeed");
        }
        prop_assert_eq!(engine.tier(id), Some(Tier::Cold), "tenant should have spilled");
        let restored = fingerprint(engine.summary(id).unwrap());
        prop_assert_eq!(engine.tier(id), Some(Tier::Hot), "touch should restore");
        prop_assert_eq!(&restored.0, &fingerprint(twin.as_ref()).0);
        prop_assert_eq!(&restored, &fingerprint(hot.summary(id).unwrap()));

        // Restoration must not perturb future behaviour either.
        engine.insert_batch(id, &after).unwrap();
        twin.insert_batch(&after);
        hot.insert_batch(id, &after).unwrap();
        let resumed = fingerprint(engine.summary(id).unwrap());
        prop_assert_eq!(&resumed.0, &fingerprint(twin.as_ref()).0);
        prop_assert_eq!(&resumed, &fingerprint(hot.summary(id).unwrap()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Corruption blast radius: flip any byte of any tenant's spilled
    // envelope and only that tenant is quarantined — the touch returns a
    // typed [`AdmissionError::Quarantined`] carrying the error
    // `SummaryBuilder::restore` gives for the same bytes, never panics,
    // and every other tenant keeps serving queries.
    #[test]
    fn corrupt_spill_quarantines_exactly_one_tenant(
        kind_idx in 0usize..SummaryKind::ALL.len(),
        victim in 0u64..8,
        offset in 0usize..10_000,
        mask in 1u8..255,
        pts in stream_strategy(80),
    ) {
        let builder = builder_for(kind_idx, 4, 42);
        let config = TenantConfig::new(builder).with_idle_ticks(1);
        let mut engine = TenantEngine::new(config);
        for t in 0..8u64 {
            engine.insert_batch(StreamId(t), &pts).unwrap();
        }
        engine.tick();
        engine.tick(); // idle spill takes whoever it shrinks ...
        for t in 0..8u64 {
            engine.spill(StreamId(t)); // ... the hook forces the rest cold
        }
        prop_assert_eq!(engine.cold_count(), 8);

        let id = StreamId(victim);
        let len = engine.spilled_bytes(id).unwrap().len();
        prop_assert!(engine.corrupt_spill(id, offset % len, mask));
        let corrupt = engine.spilled_bytes(id).unwrap().to_vec();
        let want = SummaryBuilder::restore(&corrupt).err();
        prop_assert!(want.is_some(), "a corrupt envelope must not restore");

        match engine.summary(id) {
            Err(AdmissionError::Quarantined { stream, error }) => {
                prop_assert_eq!(stream, id);
                prop_assert_eq!(Some(error), want);
            }
            other => prop_assert!(false, "expected Quarantined, got {:?}", other.map(|_| ())),
        }
        prop_assert_eq!(engine.tier(id), Some(Tier::Quarantined));
        prop_assert_eq!(engine.quarantined_count(), 1);

        // Everyone else restores and serves.
        for t in 0..8u64 {
            if t == victim {
                continue;
            }
            let s = engine.summary(StreamId(t)).unwrap();
            prop_assert_eq!(s.points_seen(), pts.iter().filter(|p| p.is_finite()).count() as u64);
        }
        // The poisoned tenant stays addressable: stats survive, and the
        // operator can evict it to clear the quarantine.
        prop_assert_eq!(engine.stats(id).unwrap().tier, Tier::Quarantined);
        prop_assert!(engine.remove(id).is_some());
        prop_assert_eq!(engine.quarantined_count(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Governance ledger: under arbitrary interleaved traffic and a tight
    // budget, every policy keeps `bytes_in_use <= budget` at each call
    // boundary and accounts every point exactly
    // (`seen == ingested + shed`, globally and per tenant).
    #[test]
    fn budget_and_ledger_hold_under_arbitrary_traffic(
        policy_idx in 0usize..3,
        traffic in prop::collection::vec((0u64..64, pt_strategy()), 1..600),
    ) {
        let policy = [
            OverloadPolicy::Reject,
            OverloadPolicy::ShedOldest,
            OverloadPolicy::DegradeToCoarser,
        ][policy_idx];
        let budget = 24 * 1024;
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
            .with_budget_bytes(budget)
            .with_policy(policy);
        let mut engine = TenantEngine::new(config);
        for (t, p) in &traffic {
            // Reject is allowed to refuse work; the error must be typed,
            // and the budget must hold either way.
            let _ = engine.insert(StreamId(*t), *p);
            prop_assert!(engine.bytes_in_use() <= budget);
        }
        let report = engine.pressure_report();
        prop_assert!(report.bytes_in_use <= budget);
        // The peak records the transient ingest-then-enforce overshoot;
        // it can exceed the budget by one write's growth, never shrink
        // below the settled figure.
        prop_assert!(report.bytes_peak >= report.bytes_in_use);
        prop_assert_eq!(report.points_seen, report.points_ingested + report.points_shed);
        let ids: Vec<StreamId> = engine.ids().collect();
        for id in ids {
            let st = engine.stats(id).unwrap();
            prop_assert_eq!(st.seen, st.ingested + st.shed);
        }
    }
}

/// Under [`OverloadPolicy::Reject`] a refused backfill is never
/// half-taken: the ledger and the registry are exactly as before the call,
/// the run's points are counted as rejected, and the budget holds.
/// Refused into a known tenant, the footprint and the tier are unchanged
/// too. Refused into a new id, the id stays unregistered; the governor's
/// relief — a bit-exact spill of the idle tenant, which it runs before
/// refusing any write — is the only trace, exactly as a refused
/// `insert_batch` of the same points leaves it.
#[test]
fn refused_absorb_leaves_the_engine_untouched() {
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact))
        .with_budget_bytes(4096)
        .with_policy(OverloadPolicy::Reject);
    let mut engine = TenantEngine::new(config);
    let mut twin = TenantEngine::new(config);
    let seed = [
        Point2::new(0.0, 0.0),
        Point2::new(1.0, 0.0),
        Point2::new(0.0, 1.0),
    ];
    engine.insert_batch(StreamId(1), &seed).unwrap();
    twin.insert_batch(StreamId(1), &seed).unwrap();
    let seed_state = fingerprint(engine.summary(StreamId(1)).unwrap());
    let archive: Vec<Point2> = (0..2000)
        .map(|i| {
            let t = std::f64::consts::TAU * i as f64 / 2000.0;
            Point2::new(t.cos(), t.sin())
        })
        .collect();
    let sharded = ShardedIngest::new(*engine.config().builder(), 2);
    let run = SupervisedIngest::new(sharded).run_stream(archive.iter().copied());
    assert_eq!(run.run.summary.points_seen(), 2000);

    let ledger = |e: &TenantEngine| {
        let r = e.pressure_report();
        let t = e.stats(StreamId(1)).unwrap();
        (
            r.streams_admitted,
            r.points_seen,
            r.points_ingested,
            r.points_shed,
            (t.seen, t.ingested, t.shed),
        )
    };
    for id in [StreamId(1), StreamId(2)] {
        let before = ledger(&engine);
        let bytes = engine.bytes_in_use();
        let rejected = engine.pressure_report().points_rejected;
        let err = engine.absorb(id, &run).unwrap_err();
        assert!(
            matches!(err, AdmissionError::OverBudget { .. }),
            "{id}: {err}"
        );
        assert!(twin.insert_batch(id, &archive).is_err(), "{id}");
        assert_eq!(ledger(&engine), before, "{id}: ledger moved");
        assert_eq!(
            engine.pressure_report().points_rejected,
            rejected + 2000,
            "{id}: the run's points are rejected"
        );
        assert!(engine.bytes_in_use() <= 4096, "{id}: budget breached");
        assert!(!engine.contains(StreamId(2)), "{id}");
        assert_eq!(engine.tier(StreamId(2)), None, "{id}");
        if id == StreamId(1) {
            assert_eq!(engine.bytes_in_use(), bytes, "{id}: footprint moved");
            assert_eq!(engine.tier(id), Some(Tier::Hot), "{id}: tier moved");
        }
        assert_eq!(engine.bytes_in_use(), twin.bytes_in_use(), "{id}");
        assert_eq!(engine.tier(StreamId(1)), twin.tier(StreamId(1)), "{id}");
        assert_eq!(ledger(&engine), ledger(&twin), "{id}");
        assert_eq!(
            fingerprint(engine.summary(StreamId(1)).unwrap()),
            seed_state,
            "{id}: tenant 1 differs from its pre-absorb state"
        );
        twin.summary(StreamId(1)).unwrap();
    }
}

/// An overflowing bulk batch plays out the same way every time: the shed
/// prefix is admitted, evicted and logged in first-appearance order, so
/// two engines fed the same batch log identical `(stream, action)`
/// sequences. A batch the queue bound refuses books its finite points
/// only and logs each stream's share as `Rejected`, like every other
/// refusal.
#[test]
fn overflowing_bulk_batches_are_deterministic_and_book_finite_points() {
    // 12 pairs over a 4-point queue: the shed 8-pair prefix holds 8
    // streams, more than the 3 the registry admits at once.
    let prefix = [7u64, 2, 9, 4, 0, 5, 8, 1];
    let traffic: Vec<(StreamId, Point2)> = prefix
        .iter()
        .chain(&[3, 6, 7, 2])
        .enumerate()
        .map(|(i, &id)| (StreamId(id), Point2::new(i as f64, (i * i) as f64)))
        .collect();
    let log = || {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact))
            .with_queue_points(4)
            .with_max_streams(3)
            .with_policy(OverloadPolicy::ShedOldest);
        let mut engine = TenantEngine::new(config);
        engine.ingest_bulk(&traffic).unwrap();
        let report = engine.pressure_report();
        assert_eq!(report.points_shed, 8);
        assert_eq!(
            report.points_seen,
            report.points_ingested + report.points_shed
        );
        report.events
    };
    // `PressureAction` has no `PartialEq`; its `Debug` text is exact.
    let text = |log: &[PressureEvent]| -> Vec<(StreamId, String)> {
        log.iter()
            .map(|ev| (ev.stream, format!("{:?}", ev.action)))
            .collect()
    };
    let first = log();
    assert_eq!(
        text(&first),
        text(&log()),
        "one batch, two different event logs"
    );
    let shed_order: Vec<u64> = first
        .iter()
        .filter(|ev| matches!(ev.action, PressureAction::ShedPoints { .. }))
        .map(|ev| ev.stream.0)
        .collect();
    assert_eq!(
        shed_order, prefix,
        "shed prefix not in first-appearance order"
    );

    // A refused 6-pair batch holding 2 NaN points books 4, per stream.
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact)).with_queue_points(4);
    let mut engine = TenantEngine::new(config);
    let nan = Point2::new(f64::NAN, 0.0);
    let batch = [
        (StreamId(1), Point2::new(0.0, 0.0)),
        (StreamId(2), nan),
        (StreamId(1), nan),
        (StreamId(3), Point2::new(1.0, 1.0)),
        (StreamId(1), Point2::new(2.0, 0.0)),
        (StreamId(2), Point2::new(0.0, 3.0)),
    ];
    assert!(matches!(
        engine.ingest_bulk(&batch),
        Err(AdmissionError::QueueFull {
            offered: 6,
            capacity: 4
        })
    ));
    assert!(engine.is_empty());
    let report = engine.pressure_report();
    assert_eq!(report.points_rejected, 4, "only finite points are booked");
    let rejected: Vec<(StreamId, u64)> = report
        .events
        .iter()
        .map(|ev| match ev.action {
            PressureAction::Rejected { points } => (ev.stream, points),
            ref other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(
        rejected,
        [(StreamId(1), 2), (StreamId(2), 1), (StreamId(3), 1)]
    );
}

/// `traffic` grouped per stream in first-appearance order, the order in
/// which `ingest_bulk` writes its groups.
fn first_appearance_groups(traffic: &[(StreamId, Point2)]) -> Vec<(StreamId, Vec<Point2>)> {
    let mut slot: HashMap<StreamId, usize> = HashMap::new();
    let mut groups: Vec<(StreamId, Vec<Point2>)> = Vec::new();
    for &(id, p) in traffic {
        let g = *slot.entry(id).or_insert_with(|| {
            groups.push((id, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(p);
    }
    groups
}

/// A fleet batch large enough to fan its summary writes out over worker
/// threads lands exactly as its groups written one `insert_batch` at a
/// time in first-appearance order: the same pressure report (events and
/// their ticks, `bytes_peak`, spills, restores, admissions) and, per
/// stream, the same stats, query token and spilled bytes. The batch
/// carries non-finite points (one stream gets nothing else), cold tenants
/// it restores, and, three quarters in, a tenant whose corrupted envelope
/// quarantines it at its group. Under `Reject` the batch stops there: the
/// groups before it are booked, the groups after it are untouched, and
/// the clock does not advance. Under `ShedOldest` that tenant's finite
/// points are shed and the rest of the batch is written.
#[test]
fn bulk_batch_equals_group_by_group_writes() {
    const CORRUPT: StreamId = StreamId(1_000_000);
    const ALL_NAN: StreamId = StreamId(1_000_001);
    let nan = Point2::new(f64::NAN, 0.0);
    let mut traffic: Vec<(StreamId, Point2)> = TenantTraffic::new(2801, 20_000, 4_096)
        .enumerate()
        .map(|(i, (s, p))| (StreamId(s), if i % 97 == 0 { nan } else { p }))
        .collect();
    traffic.insert(100, (ALL_NAN, Point2::new(1.0, f64::INFINITY)));
    let late = traffic.len() * 3 / 4;
    for k in 0..8 {
        let p = if k == 3 {
            nan
        } else {
            Point2::new(k as f64, 1.0)
        };
        traffic.insert(late + 8 * k, (CORRUPT, p));
    }
    let groups = first_appearance_groups(&traffic);
    let at = groups.iter().position(|(id, _)| *id == CORRUPT).unwrap();
    let finite = |pts: &[Point2]| pts.iter().filter(|p| p.is_finite()).count() as u64;
    let shed = finite(&groups[at].1);
    assert_eq!(shed, 7);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{} points in {} groups, available parallelism {workers}: the {} path ran",
        traffic.len(),
        groups.len(),
        if workers > 1 { "fan-out" } else { "inline" }
    );

    for policy in [OverloadPolicy::Reject, OverloadPolicy::ShedOldest] {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(32))
            .with_policy(policy);
        // 64 preloaded streams with every fourth spilled cold, and a
        // spilled tenant whose envelope is then corrupted.
        let [mut bulk, mut reference] = [(); 2].map(|()| {
            let mut engine = TenantEngine::new(config);
            for s in (0..64).chain([CORRUPT.0]) {
                let pts: Vec<Point2> = (0..400)
                    .map(|i| {
                        let t = i as f64 * 0.0157;
                        Point2::new(s as f64 + 3.0 * t.cos(), 2.0 * t.sin())
                    })
                    .collect();
                engine.insert_batch(StreamId(s), &pts).unwrap();
            }
            for s in (0..64).step_by(4).chain([CORRUPT.0]) {
                assert!(engine.spill(StreamId(s)));
            }
            assert!(engine.corrupt_spill(CORRUPT, 12, 0xA5));
            engine
        });
        let clock = bulk.clock();
        let before: Vec<String> = groups
            .iter()
            .map(|(id, _)| format!("{:?}", bulk.stats(*id)))
            .collect();

        let outcome = bulk.ingest_bulk(&traffic);
        let mut refused = None;
        for (id, pts) in &groups {
            if let Err(e) = reference.insert_batch(*id, pts) {
                assert!(refused.is_none(), "{id}: a second refusal");
                assert!(
                    matches!(e, AdmissionError::Quarantined { stream, .. } if stream == CORRUPT)
                );
                refused = Some(e);
                if policy == OverloadPolicy::Reject {
                    break;
                }
            }
        }
        let refused = refused.expect("the corrupted tenant refuses its write");
        let mut expected = reference.pressure_report();
        if policy == OverloadPolicy::Reject {
            assert_eq!(outcome, Err(refused));
            assert_eq!(bulk.clock(), clock, "a refused batch advanced the clock");
            for (g, (id, pts)) in groups.iter().enumerate() {
                let now = bulk.stats(*id);
                if g < at {
                    let was = reference.stats(*id).unwrap().seen;
                    assert_eq!(now.unwrap().seen, was, "group {g} ({id}) not booked");
                    assert!(finite(pts) == 0 || now.unwrap().ingested > 0, "{id}");
                } else if g > at {
                    assert_eq!(format!("{now:?}"), before[g], "group {g} ({id}) touched");
                }
            }
        } else {
            assert_eq!(outcome, Ok(()));
            assert_eq!(bulk.clock(), clock + 1);
            // `insert_batch` refuses the quarantined tenant's points, where
            // `ingest_bulk` sheds them right after the quarantine.
            expected.points_seen += shed;
            expected.points_shed += shed;
            let q = expected
                .events
                .iter()
                .position(|e| matches!(e.action, PressureAction::Quarantined { .. }))
                .unwrap();
            let action = PressureAction::ShedPoints { points: shed };
            expected.events.insert(
                q + 1,
                PressureEvent {
                    stream: CORRUPT,
                    tick: clock,
                    action,
                },
            );
        }
        let report = bulk.pressure_report();
        assert!(report.restores > 0 && report.streams_quarantined == 1);
        assert_eq!(format!("{report:?}"), format!("{expected:?}"), "{policy:?}");

        let mut ids: Vec<StreamId> = bulk.ids().collect();
        ids.sort_unstable();
        let mut reference_ids: Vec<StreamId> = reference.ids().collect();
        reference_ids.sort_unstable();
        assert_eq!(ids, reference_ids);
        assert!(ids.contains(&ALL_NAN));
        for &id in &ids {
            let mut want = reference.stats(id);
            if let Some(w) = want.as_mut().filter(|_| id == CORRUPT) {
                if policy == OverloadPolicy::ShedOldest {
                    w.seen += shed;
                    w.shed += shed;
                }
            }
            let got = bulk.stats(id);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{policy:?} {id}");
        }
        for &id in &ids {
            assert_eq!(bulk.query_token(id), reference.query_token(id), "{id}");
        }
        for &id in &ids {
            assert_eq!(bulk.spill(id), reference.spill(id), "{id}");
            assert_eq!(bulk.spilled_bytes(id), reference.spilled_bytes(id), "{id}");
        }
    }
}
