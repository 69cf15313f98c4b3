//! Telemetry conformance and ledger-equality tests: the Prometheus text
//! exposition obeys escaping and histogram rules, the JSON-lines export
//! is one valid object per line, a scrape reads only its own registry,
//! striped-counter merging is exact and deterministic under scoped-thread
//! contention, exporting the ledgers
//! ([`PressureReport`], [`RecoveryReport`]) into a scrape keeps it
//! conformant and sums rather than repeats, and a scrape they were
//! exported into agrees with them field-for-field — including over
//! randomized seeded tenant-pressure runs.

use proptest::prelude::*;
use streamgen::{Disk, TenantTraffic};
use streamhull::prelude::*;
use streamhull::telemetry::names;
use streamhull::DetectedFault;

// ---------------------------------------------------------------------
// A minimal JSON validator (no dependencies): accepts exactly one
// object per input string, rejecting trailing garbage.
// ---------------------------------------------------------------------

struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    fn validate_object_line(line: &'a str) -> Result<(), String> {
        let mut p = Json {
            bytes: line.as_bytes(),
            pos: 0,
        };
        p.object()?;
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let got = self.bump()?;
        if got != want {
            return Err(format!(
                "expected {:?} at byte {}, got {:?}",
                want as char,
                self.pos - 1,
                got as char
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.string()?;
            self.expect(b':')?;
            self.value()?;
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(()),
                other => return Err(format!("bad object separator {:?}", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(()),
                other => return Err(format!("bad array separator {:?}", other as char)),
            }
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek().ok_or("value expected")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string(),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.bump()? {
                b'"' => return Ok(()),
                b'\\' => match self.bump()? {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                    b'u' => {
                        for _ in 0..4 {
                            let h = self.bump()?;
                            if !h.is_ascii_hexdigit() {
                                return Err("bad \\u escape".into());
                            }
                        }
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                },
                b if b < 0x20 => return Err("raw control char in string".into()),
                _ => {}
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(|_| ())
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

// ---------------------------------------------------------------------
// Exporter conformance
// ---------------------------------------------------------------------

/// The rules every scrape obeys: counter and gauge samples sorted by
/// name then label set with no repeats; in the Prometheus text one
/// `# TYPE` line per family, directly ahead of that family's samples,
/// legal sample names and no blank line (a raw newline leaked from a
/// label); and every JSON line one valid object.
fn assert_exposition_conforms(scrape: &Scrape) {
    let counters: Vec<_> = scrape
        .counters
        .iter()
        .map(|c| (c.name, &c.labels))
        .collect();
    let gauges: Vec<_> = scrape.gauges.iter().map(|g| (g.name, &g.labels)).collect();
    for keys in [counters, gauges] {
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "samples not sorted and unique: {keys:?}"
        );
    }
    let text = scrape.to_prometheus_text();
    let mut seen_types = std::collections::HashSet::new();
    let mut family = String::new();
    for line in text.lines() {
        assert!(
            !line.is_empty(),
            "blank line in exposition (raw newline leaked from a label)"
        );
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let fam = rest.split(' ').next().unwrap();
            assert!(
                seen_types.insert(fam.to_string()),
                "duplicate TYPE for {fam}"
            );
            family = fam.to_string();
            continue;
        }
        let name = line.split(['{', ' ']).next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name {name:?}"
        );
        assert!(!name.starts_with(|c: char| c.is_ascii_digit()));
        assert!(
            name.starts_with(&family),
            "sample {name} outside its family {family}"
        );
    }
    for line in scrape.to_json_lines().lines() {
        Json::validate_object_line(line)
            .unwrap_or_else(|e| panic!("invalid JSON line ({e}): {line}"));
    }
}

/// Prometheus text rules: the [`assert_exposition_conforms`] rules, label
/// values escaped (backslash, quote, newline), histogram `_bucket` series
/// cumulative with a closing `+Inf`, `_count` equal to the last
/// cumulative bucket.
#[test]
fn prometheus_text_conforms() {
    let tel = Telemetry::new();
    let nasty = "we\"ird\\label\nvalue";
    tel.counter("streamhull_test_total", &[("backend", nasty)])
        .add(7);
    tel.gauge("streamhull_test_level", &[]).set(-3);
    let h = tel.histogram("streamhull_test_ns", &[("backend", "exact")]);
    for v in [0u64, 1, 1, 7, 100, 1_000_000, u64::MAX] {
        h.record(v);
    }
    let scrape = tel.scrape();
    assert_exposition_conforms(&scrape);
    let text = scrape.to_prometheus_text();

    // Escaping: the nasty value must round-trip with all three escapes.
    assert!(
        text.contains(r#"backend="we\"ird\\label\nvalue""#),
        "label escaping broken:\n{text}"
    );

    // Histogram: cumulative buckets, increasing le, +Inf last, _count
    // equals the final cumulative value, _sum present.
    let buckets: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("streamhull_test_ns_bucket"))
        .collect();
    assert!(!buckets.is_empty());
    let mut prev_cum = 0u64;
    let mut prev_le = f64::NEG_INFINITY;
    for line in &buckets {
        let le_raw = line
            .split("le=\"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap();
        let le = if le_raw == "+Inf" {
            f64::INFINITY
        } else {
            le_raw.parse::<f64>().unwrap()
        };
        assert!(le > prev_le, "le not increasing: {line}");
        prev_le = le;
        let cum: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(cum >= prev_cum, "bucket not cumulative: {line}");
        prev_cum = cum;
    }
    assert!(prev_le.is_infinite(), "last bucket must be +Inf");
    assert_eq!(prev_cum, 7, "+Inf bucket must count every observation");
    let count_line = text
        .lines()
        .find(|l| l.starts_with("streamhull_test_ns_count"))
        .unwrap();
    assert_eq!(count_line.rsplit(' ').next().unwrap(), "7");
    assert!(text
        .lines()
        .any(|l| l.starts_with("streamhull_test_ns_sum")));
}

/// JSON-lines: every line of the export parses as one complete JSON
/// object — even with hostile label values — and each sample kind is
/// exported once per sample.
#[test]
fn json_lines_conform() {
    let tel = Telemetry::new();
    tel.counter(
        "streamhull_test_total",
        &[("k", "quote\" slash\\ tab\t newline\n ctrl\u{1}")],
    )
    .inc();
    tel.gauge("streamhull_test_level", &[]).add(-12);
    tel.histogram("streamhull_test_ns", &[]).record(42);
    let out = tel.scrape().to_json_lines();
    let mut lines = 0;
    for line in out.lines() {
        Json::validate_object_line(line)
            .unwrap_or_else(|e| panic!("invalid JSON line ({e}): {line}"));
        lines += 1;
    }
    for kind in ["counter", "gauge", "histogram"] {
        assert!(
            out.contains(&format!("{{\"kind\":\"{kind}\",")),
            "no {kind} line exported"
        );
    }
    assert_eq!(lines, 3, "one line per sample");
}

/// A scrape reads only its own registry: summaries fed outside it —
/// whose batch kernels bump the process-wide certificate tallies — leave
/// a second scrape equal to the first.
#[test]
fn a_scrape_reads_only_its_registry() {
    let tel = Telemetry::new();
    tel.counter(names::INGEST_POINTS, &[("backend", "exact")])
        .add(3);
    let before = tel.scrape();
    let pts: Vec<Point2> = Disk::new(16, 20_000, 1.0).collect();
    for kind in [
        SummaryKind::Adaptive,
        SummaryKind::Uniform,
        SummaryKind::Exact,
    ] {
        let mut summary = SummaryBuilder::new(kind).with_r(32).build();
        summary.insert_batch(&pts);
        assert!(summary.hull_ref().len() >= 3, "{kind:?}");
    }
    assert_eq!(tel.scrape(), before, "a scrape must read only its registry");
}

/// `streamhull_query_answers_total` counts answers served: queries on an
/// unknown stream add nothing, and summed over kinds the answers equal
/// the cache hits plus misses that `cache_stats()` exports.
#[test]
fn query_answers_count_only_served_answers() {
    let tel = Telemetry::new();
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
        .with_telemetry(tel);
    let mut q = QueryEngine::new(TenantEngine::new(config));
    for (i, p) in Disk::new(17, 600, 1.0).enumerate() {
        q.tenants_mut().insert(StreamId(i as u64 % 3), p).unwrap();
    }
    let unknown = StreamId(99);
    assert!(q.width(unknown).is_err());
    assert!(q.diameter(unknown).is_err());
    assert!(q.extent(unknown, Vec2::new(1.0, 0.0)).is_err());
    assert_eq!(
        tel.scrape().counter_total(names::QUERY_ANSWERS),
        0,
        "a refused query is not an answer served"
    );
    for id in (0..3).map(StreamId) {
        q.width(id).unwrap();
        q.width(id).unwrap();
        q.diameter(id).unwrap();
        q.extent(id, Vec2::new(0.0, 1.0)).unwrap();
    }
    q.top_k_extent(Vec2::new(1.0, 0.0), 2).unwrap();
    q.separation_join(0.5).unwrap();
    assert!(q.width(unknown).is_err());
    let stats = q.cache_stats();
    assert!(stats.hits >= 3 && stats.misses >= 9);
    let mut scrape = tel.scrape();
    stats.export_to(&mut scrape);
    assert_eq!(
        scrape.counter_total(names::QUERY_ANSWERS),
        scrape.counter_total(names::QUERY_CACHE_HITS)
            + scrape.counter_total(names::QUERY_CACHE_MISSES)
    );
}

// ---------------------------------------------------------------------
// Registry merge determinism under contention
// ---------------------------------------------------------------------

/// Striped counters must merge exactly under scoped-thread contention —
/// no lost updates, no double counting — and a quiesced registry must
/// scrape identically (same values, same deterministic sample order)
/// no matter how the threads interleaved registration and updates.
#[test]
fn merge_is_exact_and_deterministic_under_contention() {
    let tel = Telemetry::new();
    let threads = 8u64;
    let per_thread = 10_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                // Every thread races registration of the same families
                // plus its own label set, and hammers the shared one.
                let shared = tel.counter("streamhull_contended_total", &[]);
                let own = tel.counter("streamhull_contended_total", &[("thread", &t.to_string())]);
                let hist = tel.histogram("streamhull_contended_ns", &[]);
                let gauge = tel.gauge("streamhull_contended_level", &[]);
                for i in 0..per_thread {
                    shared.inc();
                    own.add(2);
                    hist.record(i % 1024);
                    gauge.add(1);
                }
            });
        }
    });
    let a = tel.scrape();
    let b = tel.scrape();
    assert_eq!(a, b, "quiesced scrapes must be identical");
    assert_eq!(
        a.counter_with("streamhull_contended_total", &[]),
        Some(threads * per_thread)
    );
    for t in 0..threads {
        assert_eq!(
            a.counter_with("streamhull_contended_total", &[("thread", &t.to_string())]),
            Some(2 * per_thread),
            "thread {t} lost updates"
        );
    }
    let hist = a
        .histograms
        .iter()
        .find(|h| h.name == "streamhull_contended_ns")
        .unwrap();
    assert_eq!(hist.count, threads * per_thread);
    assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
    assert_eq!(
        a.gauge_value("streamhull_contended_level"),
        Some((threads * per_thread) as i64)
    );
    // Deterministic order: sorted by name, then label set.
    let mut sorted = a.counters.clone();
    sorted.sort_by(|x, y| x.name.cmp(y.name).then_with(|| x.labels.cmp(&y.labels)));
    assert_eq!(a.counters, sorted, "counter sample order not canonical");
}

// ---------------------------------------------------------------------
// Ledger equality
// ---------------------------------------------------------------------

fn assert_scrape_matches_report(scrape: &Scrape, report: &PressureReport) {
    let pairs: [(&str, u64); 8] = [
        (names::TENANT_POINTS_SEEN, report.points_seen),
        (names::TENANT_POINTS_INGESTED, report.points_ingested),
        (names::TENANT_POINTS_SHED, report.points_shed),
        (names::TENANT_POINTS_REJECTED, report.points_rejected),
        (names::TENANT_EVICTIONS, report.streams_shed),
        (names::TENANT_DEGRADATIONS, report.streams_degraded),
        (names::TENANT_QUARANTINES, report.streams_quarantined),
        (names::TENANT_EVENTS_DROPPED, report.events_dropped),
    ];
    for (name, want) in pairs {
        assert_eq!(
            scrape.counter_total(name),
            want,
            "scrape disagrees with ledger on {name}"
        );
    }
    assert_eq!(
        scrape.counter_with(names::TENANT_STREAMS, &[("outcome", "admitted")]),
        Some(report.streams_admitted)
    );
    assert_eq!(
        scrape.counter_with(names::TENANT_STREAMS, &[("outcome", "rejected")]),
        Some(report.streams_rejected)
    );
    assert_eq!(
        scrape.counter_with(names::TENANT_TIER_OPS, &[("kind", "spill")]),
        Some(report.spills)
    );
    assert_eq!(
        scrape.counter_with(names::TENANT_TIER_OPS, &[("kind", "restore")]),
        Some(report.restores)
    );
    assert_eq!(
        scrape.counter_with(names::TENANT_TIER_BYTES, &[("kind", "spill")]),
        Some(report.spilled_bytes)
    );
    assert_eq!(
        scrape.gauge_value(names::TENANT_BYTES_IN_USE),
        Some(report.bytes_in_use as i64)
    );
    assert_eq!(
        scrape.gauge_value(names::TENANT_BYTES_PEAK),
        Some(report.bytes_peak as i64)
    );
    let residency = [
        (names::TENANT_HOT_STREAMS, report.hot_streams),
        (names::TENANT_COLD_STREAMS, report.cold_streams),
        (
            names::TENANT_QUARANTINED_STREAMS,
            report.quarantined_streams,
        ),
    ];
    for (name, want) in residency {
        assert_eq!(scrape.gauge_value(name), Some(want as i64), "{name}");
    }
}

/// A seeded supervised chaos run with every fault kind — crash, stall,
/// corrupt checkpoint, non-finite burst: a scrape the run's
/// [`RecoveryReport`] was exported into equals the report's tallies, and
/// each `faults_total{kind}` equals the count of that [`DetectedFault`]
/// variant in the report's fault log.
#[test]
fn recovery_scrape_equals_report() {
    let pts: Vec<Point2> = (0..20_000)
        .map(|i| {
            let t = i as f64 * 0.004;
            Point2::new(t.cos() * 2.0, t.sin())
        })
        .collect();
    let tel = Telemetry::new();
    let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 4)
        .with_chunk(256)
        .with_telemetry(tel);
    // Chunk c routes to shard c % 4.
    let plan = FaultPlan::new()
        .crash(1, 5)
        .stall(3, 11, std::time::Duration::from_millis(1_500))
        .corrupt_checkpoint(2, 1, 17)
        .non_finite_burst(0, 8, 5);
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(1_024)
        .with_stall_timeout(std::time::Duration::from_millis(150))
        .with_fault_plan(plan)
        .run_stream(pts.iter().copied());
    assert!(!run.is_degraded());
    let mut scrape = tel.scrape();
    run.report.export_to(&mut scrape);
    assert_eq!(
        scrape.counter_with(names::RECOVERY_CHECKPOINTS, &[("outcome", "taken")]),
        Some(run.report.checkpoints_taken)
    );
    assert_eq!(
        scrape.counter_with(names::RECOVERY_CHECKPOINTS, &[("outcome", "rejected")]),
        Some(run.report.checkpoints_rejected)
    );
    assert_eq!(
        scrape.counter_total(names::RECOVERY_REPLAYED_CHUNKS),
        run.report.replayed_chunks
    );
    assert_eq!(
        scrape.counter_total(names::RECOVERY_REPLAYED_POINTS),
        run.report.replayed_points
    );
    assert_eq!(
        scrape.counter_total(names::RECOVERY_LOST_POINTS),
        run.report.lost_points
    );
    assert_eq!(
        scrape.counter_total(names::RECOVERY_DROPPED_NON_FINITE),
        run.report.dropped_non_finite
    );
    assert_eq!(
        scrape.counter_total(names::RECOVERY_INJECTED_NON_FINITE),
        run.report.injected_non_finite
    );
    let count = |pick: fn(&DetectedFault) -> bool| {
        run.report.events.iter().filter(|e| pick(&e.fault)).count() as u64
    };
    let kinds: [(&str, u64); 4] = [
        ("panic", count(|f| matches!(f, DetectedFault::WorkerPanic))),
        ("stall", count(|f| matches!(f, DetectedFault::Stall))),
        (
            "corrupt_checkpoint",
            count(|f| matches!(f, DetectedFault::CorruptCheckpoint(_))),
        ),
        (
            "non_finite",
            count(|f| matches!(f, DetectedFault::NonFinite { .. })),
        ),
    ];
    for (kind, want) in kinds {
        assert!(want >= 1, "the plan must have fired a {kind} fault");
        assert_eq!(
            scrape.counter_with(names::RECOVERY_FAULTS, &[("kind", kind)]),
            Some(want),
            "faults_total{{kind={kind}}} disagrees with the fault log"
        );
    }
    assert_eq!(
        scrape.counter_total(names::RECOVERY_FAULTS),
        run.report.events.len() as u64
    );
}

/// Exporting the ledgers into a scrape that already holds push samples:
/// the registry itself holds no ledger series, every ledger series is
/// written even at zero, the exposition stays conformant, and a second
/// export of the same reports doubles every ledger counter and gauge
/// (samples sum, they never repeat) while the push samples stay put.
#[test]
fn exported_ledgers_conform_and_sum() {
    let tel = Telemetry::new();
    let builder = SummaryBuilder::new(SummaryKind::Adaptive).with_r(16);
    let pts: Vec<Point2> = (0..4_000)
        .map(|i| {
            let t = i as f64 * 0.01;
            Point2::new(t.cos() * 3.0, t.sin())
        })
        .collect();
    let ledger = |name: &str| {
        name.starts_with("streamhull_tenant_") || name.starts_with("streamhull_recovery_")
    };

    // Fresh engine, fault-free run: every series is there, at zero.
    let mut engine = TenantEngine::new(
        TenantConfig::new(builder)
            .with_budget_bytes(8 * 1024)
            .with_idle_ticks(1)
            .with_telemetry(tel),
    );
    let supervised = |plan: FaultPlan| {
        SupervisedIngest::new(
            ShardedIngest::new(builder, 2)
                .with_chunk(128)
                .with_telemetry(tel),
        )
        .with_checkpoint_interval(512)
        .with_fault_plan(plan)
        .run_stream(pts.iter().copied())
    };
    let clean = supervised(FaultPlan::new());
    let mut fresh = Scrape::default();
    engine.pressure_report().export_to(&mut fresh);
    clean.report.export_to(&mut fresh);
    assert_eq!(
        fresh.counter_with(names::TENANT_STREAMS, &[("outcome", "rejected")]),
        Some(0)
    );
    assert_eq!(
        fresh.gauge_value(names::TENANT_QUARANTINED_STREAMS),
        Some(0)
    );
    for kind in ["panic", "stall", "corrupt_checkpoint", "non_finite"] {
        assert_eq!(
            fresh.counter_with(names::RECOVERY_FAULTS, &[("kind", kind)]),
            Some(0),
            "faults_total{{kind={kind}}} missing"
        );
    }
    assert_exposition_conforms(&fresh);

    // A busy engine and a faulted run over a registry full of push samples.
    for (i, chunk) in pts.chunks(50).enumerate() {
        let _ = engine.insert_batch(StreamId(i as u64 % 40), chunk);
        engine.tick();
    }
    let faulted = supervised(FaultPlan::new().crash(1, 3).non_finite_burst(0, 6, 4));
    let report = engine.pressure_report();
    assert!(report.spills > 0 && report.points_rejected > 0);
    assert!(!faulted.report.events.is_empty());
    let pushed = tel.scrape();
    assert!(
        pushed.counters.iter().all(|c| !ledger(c.name))
            && pushed.gauges.iter().all(|g| !ledger(g.name)),
        "the registry must hold no copy of a ledger"
    );
    assert!(pushed.counter_total(names::INGEST_POINTS) > 0);

    let mut once = pushed.clone();
    report.export_to(&mut once);
    faulted.report.export_to(&mut once);
    assert_exposition_conforms(&once);
    assert_scrape_matches_report(&once, &report);

    let mut twice = once.clone();
    report.export_to(&mut twice);
    faulted.report.export_to(&mut twice);
    assert_exposition_conforms(&twice);
    assert_eq!(twice.counters.len(), once.counters.len());
    assert_eq!(twice.gauges.len(), once.gauges.len());
    for (a, b) in once.counters.iter().zip(&twice.counters) {
        let want = if ledger(a.name) { 2 * a.value } else { a.value };
        assert_eq!((b.name, &b.labels, b.value), (a.name, &a.labels, want));
    }
    for (a, b) in once.gauges.iter().zip(&twice.gauges) {
        let want = if ledger(a.name) { 2 * a.value } else { a.value };
        assert_eq!((b.name, &b.labels, b.value), (a.name, &a.labels, want));
    }
    assert_eq!(twice.histograms, once.histograms);
}

/// One randomized tenant-pressure scenario (single proptest parameter:
/// the vendored proptest macro's recursion cost grows steeply with the
/// argument count, so the dimensions are packed by `prop_map`).
#[derive(Clone, Debug)]
struct StormCfg {
    seed: u64,
    streams: u64,
    points: usize,
    budget_kb: usize,
    policy: OverloadPolicy,
    event_cap: usize,
}

fn storm_cfg() -> impl Strategy<Value = StormCfg> {
    // Two nested triples: the vendored proptest implements `Strategy`
    // for tuples up to arity 4 only.
    (
        (0u64..1_000_000, 1u64..120, 100usize..1_500),
        (2usize..48, 0usize..3, 1usize..32),
    )
        .prop_map(
            |((seed, streams, points), (budget_kb, policy_ix, event_cap))| StormCfg {
                seed,
                streams,
                points,
                budget_kb,
                policy: [
                    OverloadPolicy::Reject,
                    OverloadPolicy::ShedOldest,
                    OverloadPolicy::DegradeToCoarser,
                ][policy_ix],
                event_cap,
            },
        )
}

// Over randomized seeded tenant-pressure runs — any policy, tight or
// loose budgets, overflowing event ledgers — a scrape taken at the end
// agrees exactly with the `PressureReport`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tenant_scrape_equals_report(cfg in storm_cfg()) {
        let StormCfg { seed, streams, points, budget_kb, policy, event_cap } = cfg;
        let tel = Telemetry::new();
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
            .with_budget_bytes(budget_kb * 1024)
            .with_policy(policy)
            .with_idle_ticks(1)
            .with_event_capacity(event_cap)
            .with_telemetry(tel);
        let mut engine = TenantEngine::new(config);
        let traffic: Vec<(StreamId, Point2)> = TenantTraffic::new(seed, streams, points)
            .map(|(t, p)| (StreamId(t), p))
            .collect();
        for chunk in traffic.chunks(200) {
            // Reject-policy engines may refuse work; the ledger and the
            // scrape must agree either way.
            let _ = engine.ingest_bulk(chunk);
            engine.tick();
        }
        // Touch a survivor (restore path), then remove one (gauge path).
        let first = engine.ids().next();
        if let Some(id) = first {
            let _ = engine.summary(id);
            engine.remove(id);
        }
        let report = engine.pressure_report();
        let mut scrape = tel.scrape();
        report.export_to(&mut scrape);
        assert_scrape_matches_report(&scrape, &report);
    }
}
