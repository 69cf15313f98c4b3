//! Live observability drill: attach one [`Telemetry`] registry to the
//! whole stack — sharded ingestion, sliding windows, supervised
//! recovery, and a tenant-pressure storm — scrape it *mid-run*, and
//! render the engines' own ledgers ([`PressureReport`],
//! [`RecoveryReport`]) into each scrape with their `export_to`. The
//! closing scrape also carries the process-wide interior-certificate
//! tallies, exported from `hot::snapshot()`.
//!
//! Run: `cargo run --release --example observe_pressure`
//!
//! The default drill is the CI chaos mode: every periodic scrape must be
//! non-empty and schema-valid (Prometheus text lines parse, JSON lines
//! are one object per line) and show the pressure ledger field for
//! field. The closing scrape carries both ledgers — the storm's and the
//! supervised run's — and the certificate tallies, the way one process
//! exports one `/metrics` endpoint. `--dump` additionally prints the full
//! Prometheus exposition.

use streamgen::TenantTraffic;
use streamhull::prelude::*;
use streamhull::telemetry::{hot, names};

const SEED: u64 = 20040614;

/// Light schema check over the Prometheus exposition: every non-comment
/// line is `name{labels} value` with a numeric value, every comment is a
/// well-formed `# HELP` / `# TYPE`, and at least one sample exists.
fn assert_prometheus_schema(text: &str) -> usize {
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "malformed comment line: {line}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without value: {line}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "non-numeric value in: {line}"
        );
        let name = series.split('{').next().unwrap_or(series);
        assert!(
            name.starts_with("streamhull_"),
            "foreign metric name in: {line}"
        );
        samples += 1;
    }
    assert!(samples > 0, "scrape rendered no samples");
    samples
}

/// One valid JSON object per line, and nothing else.
fn assert_json_lines_schema(text: &str) -> usize {
    let mut lines = 0usize;
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        assert!(line.contains("\"kind\""), "line lacks a kind field: {line}");
        lines += 1;
    }
    assert!(lines > 0, "JSON-lines export was empty");
    lines
}

/// The acceptance gate: a scrape the `PressureReport` was exported into
/// shows every one of its tallies.
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
        Some(report.streams_admitted),
        "admitted streams disagree"
    );
    assert_eq!(
        scrape.counter_with(names::TENANT_TIER_OPS, &[("kind", "spill")]),
        Some(report.spills),
        "spills disagree"
    );
    assert_eq!(
        scrape.counter_with(names::TENANT_TIER_OPS, &[("kind", "restore")]),
        Some(report.restores),
        "restores disagree"
    );
    assert_eq!(
        scrape.counter_with(names::TENANT_TIER_BYTES, &[("kind", "spill")]),
        Some(report.spilled_bytes),
        "spilled bytes disagree"
    );
    assert_eq!(
        scrape.gauge_value(names::TENANT_BYTES_IN_USE),
        Some(report.bytes_in_use as i64),
        "bytes in use disagree"
    );
}

/// Phase 1: instrumented sharded + windowed ingestion, so the scrape
/// carries per-backend throughput histograms and window lifecycle
/// counters alongside the tenant ledger.
fn instrumented_ingest(tel: Telemetry) {
    let points: Vec<Point2> = (0..40_000)
        .map(|i| {
            let t = i as f64 * 0.003;
            Point2::new(t.cos() * (2.0 + t * 0.01), t.sin())
        })
        .collect();
    let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(32), 4)
        .with_telemetry(tel);
    let run = engine.run(&points);
    assert!(run.summary.hull_ref().len() >= 8);

    let mut w = SummaryBuilder::new(SummaryKind::Adaptive)
        .with_r(16)
        .windowed(WindowConfig::last_n(2_000).with_granularity(200))
        .with_telemetry(tel);
    for &p in &points[..10_000] {
        w.insert(p);
    }
    let ans = w.query_window();
    assert!(ans.merged_points >= 2_000);

    let scrape = tel.scrape();
    assert_eq!(
        scrape.counter_with(names::INGEST_POINTS, &[("backend", "adaptive")]),
        Some(points.len() as u64),
        "sharded ingest under-counted"
    );
    assert!(
        scrape.counter_total(names::WINDOW_SEALS) > 0,
        "window chain left no seal trail"
    );
    let chunk_ns = scrape
        .histograms
        .iter()
        .find(|h| h.name == names::INGEST_CHUNK_NS)
        .expect("chunk ns histogram missing");
    // One latency sample per chunk, and whole-chunk ns keep `_sum`
    // exact, so the mean ns/point is a ratio.
    let ns_per_point = chunk_ns.sum as f64 / points.len() as f64;
    println!(
        "ok  ingest     {} points across 4 shards: {} batches, {:.1} ns/pt (chunk histogram, log2 buckets)",
        points.len(),
        chunk_ns.count,
        ns_per_point,
    );
}

/// Phase 2: supervised recovery under deterministic chaos; a scrape the
/// run's [`RecoveryReport`] is exported into shows its tallies. Returns
/// the report for the closing scrape.
fn supervised_chaos(tel: Telemetry) -> RecoveryReport {
    let pts: Vec<Point2> = (0..30_000)
        .map(|i| {
            let t = i as f64 * 0.002;
            Point2::new(t.cos() * 3.0, t.sin() * (1.0 + t * 0.01))
        })
        .collect();
    let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 4).with_telemetry(tel);
    let run = SupervisedIngest::new(engine)
        .with_checkpoint_interval(2_048)
        .with_stall_timeout(std::time::Duration::from_millis(150))
        .with_fault_plan(
            FaultPlan::new()
                .crash(2, 6) // chunk 6 routes to shard 2
                .stall(1, 9, std::time::Duration::from_millis(1_500)), // chunk 9 -> shard 1
        )
        .run_stream(pts.iter().copied());
    assert!(!run.is_degraded(), "seeded faults must fully recover");

    let mut scrape = tel.scrape();
    run.report.export_to(&mut scrape);
    let pairs: [(&str, u64); 5] = [
        (names::RECOVERY_REPLAYED_CHUNKS, run.report.replayed_chunks),
        (names::RECOVERY_REPLAYED_POINTS, run.report.replayed_points),
        (names::RECOVERY_LOST_POINTS, run.report.lost_points),
        (
            names::RECOVERY_DROPPED_NON_FINITE,
            run.report.dropped_non_finite,
        ),
        (
            names::RECOVERY_INJECTED_NON_FINITE,
            run.report.injected_non_finite,
        ),
    ];
    for (name, want) in pairs {
        assert_eq!(
            scrape.counter_total(name),
            want,
            "scrape disagrees with RecoveryReport on {name}"
        );
    }
    assert_eq!(
        scrape.counter_with(names::RECOVERY_CHECKPOINTS, &[("outcome", "taken")]),
        Some(run.report.checkpoints_taken),
        "checkpoints taken disagree"
    );
    assert_eq!(
        scrape.counter_with(names::RECOVERY_CHECKPOINTS, &[("outcome", "rejected")]),
        Some(run.report.checkpoints_rejected),
        "checkpoints rejected disagree"
    );
    assert!(
        scrape.counter_total(names::RECOVERY_FAULTS) >= 2,
        "crash + stall left no fault trail"
    );
    println!(
        "ok  recovery   crash+stall recovered: {} faults, {} checkpoints, {} chunks replayed — scrape == report",
        scrape.counter_total(names::RECOVERY_FAULTS),
        run.report.checkpoints_taken,
        run.report.replayed_chunks,
    );
    run.report
}

/// Phase 3: the tenant-pressure storm with periodic live scrapes, closed
/// by one scrape carrying the storm's ledger and `recovery`, the
/// supervised run's.
fn pressure_storm(tel: Telemetry, recovery: &RecoveryReport, dump: bool) {
    let budget = 2 * 1024 * 1024;
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
        .with_budget_bytes(budget)
        .with_policy(OverloadPolicy::DegradeToCoarser)
        .with_idle_ticks(2)
        .with_event_capacity(64)
        .with_telemetry(tel);
    let mut engine = TenantEngine::new(config);

    let traffic: Vec<(StreamId, Point2)> = TenantTraffic::new(SEED, 20_000, 200_000)
        .map(|(t, p)| (StreamId(t), p))
        .collect();
    let mut live_scrapes = 0usize;
    for (i, chunk) in traffic.chunks(20_000).enumerate() {
        engine
            .ingest_bulk(chunk)
            .expect("degrading engines never abort");
        engine.tick();
        // Live scrape mid-storm, the ledger exported into it: non-empty,
        // schema-valid, and showing the ledger at this call boundary.
        let report = engine.pressure_report();
        let mut scrape = tel.scrape();
        report.export_to(&mut scrape);
        assert!(!scrape.is_empty(), "mid-run scrape was empty");
        assert_prometheus_schema(&scrape.to_prometheus_text());
        assert_json_lines_schema(&scrape.to_json_lines());
        assert_scrape_matches_report(&scrape, &report);
        live_scrapes += 1;
        if i % 4 == 0 {
            println!(
                "    t={:>2}  bytes {:>7}/{budget}  hot {:>5} cold {:>5}  degraded {:>4}  events dropped {:>4}",
                i,
                scrape.gauge_value(names::TENANT_BYTES_IN_USE).unwrap_or(0),
                scrape.gauge_value(names::TENANT_HOT_STREAMS).unwrap_or(0),
                scrape.gauge_value(names::TENANT_COLD_STREAMS).unwrap_or(0),
                scrape.counter_total(names::TENANT_DEGRADATIONS),
                scrape.counter_total(names::TENANT_EVENTS_DROPPED),
            );
        }
    }

    // Corrupt one cold envelope (the lowest cold id, so every run picks
    // the same one): the quarantine must land in the report and the
    // scrape alike.
    let victim = engine
        .ids()
        .filter(|&id| engine.tier(id) == Some(Tier::Cold))
        .min()
        .expect("storm left no cold tier");
    let len = engine.spilled_bytes(victim).unwrap().len();
    assert!(engine.corrupt_spill(victim, len / 2, 0x40));
    assert!(engine.summary(victim).is_err());

    let report = engine.pressure_report();
    let cert = hot::snapshot();
    let mut scrape = tel.scrape();
    report.export_to(&mut scrape);
    recovery.export_to(&mut scrape);
    cert.export_to(&mut scrape);
    assert_scrape_matches_report(&scrape, &report);
    assert_eq!(scrape.counter_total(names::TENANT_QUARANTINES), 1);
    assert_eq!(
        scrape.counter_with(names::RECOVERY_CHECKPOINTS, &[("outcome", "taken")]),
        Some(recovery.checkpoints_taken),
        "the closing scrape must carry the supervised run's ledger too"
    );
    assert_eq!(
        (
            scrape.counter_total(names::CERT_HITS),
            scrape.counter_total(names::CERT_REFRESHES)
        ),
        (cert.cert_hits, cert.cert_refreshes),
        "the closing scrape must carry the exported certificate tallies"
    );
    let prom = scrape.to_prometheus_text();
    let samples = assert_prometheus_schema(&prom);
    let json_lines = assert_json_lines_schema(&scrape.to_json_lines());
    println!(
        "ok  storm      {} live scrapes; final scrape shows PressureReport + RecoveryReport ({} admitted, {} degraded, {} spills, {} events dropped)",
        live_scrapes,
        report.streams_admitted,
        report.streams_degraded,
        report.spills,
        report.events_dropped,
    );
    println!(
        "    exporters: {samples} Prometheus samples, {json_lines} JSON lines, cert hit rate {:.2}",
        cert.hit_rate()
    );
    if dump {
        println!("\n--- Prometheus exposition ---\n{prom}");
    }
}

fn main() {
    let dump = std::env::args().any(|a| a == "--dump");
    // One registry across the whole stack, and both ledgers exported into
    // the closing scrape: every phase lands in one exposition, the way one
    // process exports one /metrics endpoint.
    let tel = Telemetry::new();
    instrumented_ingest(tel);
    let recovery = supervised_chaos(tel);
    pressure_storm(tel, &recovery, dump);
    println!("\nobservability drill passed: every scrape schema-valid, final scrape shows both ledgers exactly");
}
