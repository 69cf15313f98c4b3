//! Per-layer probes: each layer run alone on the workload's own input,
//! timed from outside through public calls.
//!
//! The traced run reports every per-layer metric on every workload. The
//! probes supply them; a workload whose traced passes measure a metric
//! directly (the dashboard's cache, for one) replaces the probe's figure
//! with its own. Lower layers are run as extra steps on the same input —
//! a bare `insert_batch` under the windowed ingest, plain per-stream
//! summaries under the tenant engine — so each layer's tax is its cost
//! minus the layer below on identical work.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use streamhull::geom::calipers;
use streamhull::prelude::*;
use streamhull::telemetry::{hot, names};

use crate::report::{put, Metrics};
use crate::stats;
use crate::workloads::{builder, stream_backfill, stream_window};

/// Pairs for the fleet probes, at most this many.
const PAIR_CAP: usize = 262_144;
/// Streams a flat stream is dealt over for the fleet probes.
const PAIR_STREAMS: u64 = 2048;
/// Consecutive points dealt to one stream.
const PAIR_RUN: usize = 32;
/// Points for the window probe, at most this many.
const WINDOW_CAP: usize = 262_144;
/// Streams the separation-join probe runs over (the join is quadratic).
const JOIN_STREAMS: u64 = 1024;
const BATCH: usize = 4096;
const IDLE_TICKS: u64 = 16;
/// Summaries and hulls sampled for the codec and calipers probes.
const SAMPLED: usize = 256;
/// Streams sampled for the token and cache probes.
const SAMPLED_IDS: usize = 1024;
const REPS: usize = 3;

/// A workload's input, as the probes see it.
pub struct ProbeInput<'a> {
    /// The points as one flat stream.
    pub points: Cow<'a, [Point2]>,
    /// The workload's ingest chunk size.
    pub chunk: usize,
    /// The points as fleet traffic.
    pub pairs: Vec<(StreamId, Point2)>,
    /// A separation-join threshold that yields real pairs on this input.
    pub join_threshold: f64,
}

/// Deals a flat stream over 2048 streams in runs of 32 points, for the
/// fleet probes of the stream workloads.
pub fn pairs_of(points: &[Point2]) -> Vec<(StreamId, Point2)> {
    points
        .iter()
        .take(PAIR_CAP)
        .enumerate()
        .map(|(i, &p)| (StreamId((i / PAIR_RUN) as u64 % PAIR_STREAMS), p))
        .collect()
}

/// Runs every probe on `input`.
pub fn run(input: &ProbeInput<'_>) -> Metrics {
    let mut m = Metrics::new();
    let pairs = &input.pairs[..input.pairs.len().min(PAIR_CAP)];
    let bare = bare(&input.points, input.chunk, &mut m);
    let plain = per_stream(pairs, &mut m);
    tenant_and_serving(pairs, plain, &mut m);
    join(pairs, input.join_threshold, &mut m);
    window(&input.points[..input.points.len().min(WINDOW_CAP)], &mut m);
    recovery(&input.points, bare, &mut m);
    m
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Bare `insert_batch` into one summary on one thread, in `chunk`-point
/// batches: ns per point (median of three) and the interior-certificate
/// hits per point.
fn bare(points: &[Point2], chunk: usize, m: &mut Metrics) -> f64 {
    let mut per_pt = Vec::with_capacity(REPS);
    let mut cert = 0.0;
    for _ in 0..REPS {
        let mut s = builder().build();
        let before = hot::snapshot();
        let t = Instant::now();
        for c in points.chunks(chunk) {
            s.insert_batch(c);
        }
        per_pt.push(ns(t) / points.len().max(1) as f64);
        black_box(s.hull_ref());
        let hits = hot::snapshot().cert_hits - before.cert_hits;
        cert = hits as f64 / points.len().max(1) as f64;
    }
    let v = stats::median(&per_pt);
    put(m, "summaries.batch_ns_per_pt", v, REPS);
    put(m, "summaries.cert_hit_frac", cert, 1);
    v
}

/// Groups a batch per stream in first-appearance order, as
/// `TenantEngine::ingest_bulk` does.
fn group(batch: &[(StreamId, Point2)]) -> Vec<(StreamId, Vec<Point2>)> {
    let mut slot: HashMap<StreamId, usize> = HashMap::new();
    let mut out: Vec<(StreamId, Vec<Point2>)> = Vec::new();
    for &(id, p) in batch {
        let i = *slot.entry(id).or_insert_with(|| {
            out.push((id, Vec::new()));
            out.len() - 1
        });
        out[i].1.push(p);
    }
    out
}

/// Plain per-stream summaries fed the same groups the tenant engine
/// sees: construction, hull rebuild, size, codec and calipers costs.
/// Returns the plain feed cost in ns per point.
fn per_stream(pairs: &[(StreamId, Point2)], m: &mut Metrics) -> f64 {
    let batches: Vec<Vec<(StreamId, Vec<Point2>)>> = pairs.chunks(BATCH).map(group).collect();
    let mut fleet: HashMap<StreamId, Box<dyn Mergeable + Send + Sync>> = HashMap::new();
    let (mut build_ns, mut hull_ns) = (Vec::new(), Vec::new());
    let mut feed_ns = 0.0;
    for (g, (id, pts)) in batches.iter().flatten().enumerate() {
        let t = Instant::now();
        match fleet.get_mut(id) {
            Some(s) => s.insert_batch(pts),
            None => {
                let mut s = builder().build_mergeable();
                s.insert_batch(pts);
                fleet.insert(*id, s);
                build_ns.push(ns(t));
            }
        }
        feed_ns += ns(t);
        if g % 16 == 0 {
            if let Some(s) = fleet.get(id) {
                let t = Instant::now();
                black_box(s.hull_ref());
                hull_ns.push(ns(t));
            }
        }
    }
    put(
        m,
        "summaries.build_ns",
        stats::median(&build_ns),
        build_ns.len(),
    );
    put(
        m,
        "summaries.hull_ns",
        stats::median(&hull_ns),
        hull_ns.len(),
    );
    let mut small = builder().build();
    let first: Vec<Point2> = pairs.iter().take(4).map(|&(_, p)| p).collect();
    small.insert_batch(&first);
    put(m, "summaries.bytes", small.approx_bytes() as f64, 1);

    let mut ids: Vec<StreamId> = fleet.keys().copied().collect();
    ids.sort_unstable();
    let step = (ids.len() / SAMPLED).max(1);
    let (mut enc, mut dec, mut size) = (Vec::new(), Vec::new(), Vec::new());
    let mut hulls = Vec::new();
    for id in ids.iter().step_by(step) {
        let s = &fleet[id];
        let t = Instant::now();
        let bytes = s.encode_snapshot();
        enc.push(ns(t));
        let t = Instant::now();
        let restored = SummaryBuilder::restore(&bytes);
        dec.push(ns(t));
        black_box(restored.is_ok());
        size.push(bytes.len() as f64);
        hulls.push(s.hull());
    }
    put(m, "snapshot.encode_ns", stats::median(&enc), enc.len());
    put(m, "snapshot.decode_ns", stats::median(&dec), dec.len());
    put(
        m,
        "snapshot.envelope_bytes",
        stats::median(&size),
        size.len(),
    );

    let mut calipers_ns = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        for h in &hulls {
            black_box(calipers::width(h));
            black_box(calipers::diameter(h));
        }
        calipers_ns.push(ns(t) / (2 * hulls.len().max(1)) as f64);
    }
    put(
        m,
        "geom.calipers_ns",
        stats::median(&calipers_ns),
        2 * hulls.len(),
    );
    feed_ns / pairs.len().max(1) as f64
}

/// Sorted stream ids of `q`'s fleet, thinned to at most `SAMPLED_IDS`.
fn sample_ids(q: &QueryEngine) -> Vec<StreamId> {
    let mut ids: Vec<StreamId> = q.tenants().ids().collect();
    ids.sort_unstable();
    let step = (ids.len() / SAMPLED_IDS).max(1);
    ids.into_iter().step_by(step).collect()
}

/// The tenant engine alone (`ingest_bulk` in 4096-pair batches, a
/// `tick()` after each), its tax over plain summaries, then the serving
/// layer on top of the same fleet.
fn tenant_and_serving(pairs: &[(StreamId, Point2)], plain_ns: f64, m: &mut Metrics) {
    let config = TenantConfig::new(builder())
        .with_idle_ticks(IDLE_TICKS)
        .with_telemetry(Telemetry::new());
    let mut q = QueryEngine::new(TenantEngine::new(config));
    let (mut ingest_ns, mut tick_us) = (0.0, Vec::new());
    for batch in pairs.chunks(BATCH) {
        let t = Instant::now();
        black_box(q.tenants_mut().ingest_bulk(batch).is_ok());
        ingest_ns += ns(t);
        let t = Instant::now();
        q.tenants_mut().tick();
        tick_us.push(ns(t) / 1e3);
    }
    let per_pt = ingest_ns / pairs.len().max(1) as f64;
    put(m, "tenant.ingest_ns_per_pt", per_pt, pairs.len());
    put(m, "tenant.tax_ns_per_pt", per_pt - plain_ns, pairs.len());
    put(m, "tenant.tick_us", stats::median(&tick_us), tick_us.len());
    let report = q.tenants().pressure_report();
    put(m, "tenant.new_streams", report.streams_admitted as f64, 1);
    put(m, "tenant.spills", report.spills as f64, 1);
    put(m, "tenant.restores", report.restores as f64, 1);
    put(m, "tenant.hot_streams", q.tenants().hot_count() as f64, 1);
    put(m, "tenant.cold_streams", q.tenants().cold_count() as f64, 1);

    // Tokens: the first sweep restores cold streams; the second times
    // the hot path.
    let ids = sample_ids(&q);
    for &id in &ids {
        black_box(q.tenants_mut().query_token(id).is_ok());
    }
    let t = Instant::now();
    for &id in &ids {
        black_box(q.tenants_mut().query_token(id).is_ok());
    }
    put(
        m,
        "tenant.token_ns",
        ns(t) / ids.len().max(1) as f64,
        ids.len(),
    );

    // Cache: each sampled stream's first `width` misses, the repeat hits.
    let before = q.cache_stats();
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for &id in &ids {
        let t = Instant::now();
        black_box(q.width(id).is_ok());
        miss.push(ns(t));
        let t = Instant::now();
        black_box(q.width(id).is_ok());
        hit.push(ns(t));
    }
    let after = q.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    put(
        m,
        "serving.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        ids.len() * 2,
    );
    put(m, "serving.hit_ns", stats::median(&hit), hit.len());
    put(m, "serving.miss_ns", stats::median(&miss), miss.len());

    let (mut topk_ms, mut pruned) = (Vec::new(), 0.0);
    for rep in 0..REPS {
        let dir = Vec2::new(1.0, rep as f64 * 0.5);
        let t = Instant::now();
        if let Ok(top) = q.top_k_extent(dir, 10) {
            topk_ms.push(ns(t) / 1e6);
            pruned = top.pruned as f64 / top.scanned.max(1) as f64;
        }
    }
    put(m, "serving.topk_ms", stats::median(&topk_ms), topk_ms.len());
    put(m, "serving.topk_pruned_frac", pruned, 1);
}

/// `separation_join` over the first 1024 stream ids of the traffic.
fn join(pairs: &[(StreamId, Point2)], threshold: f64, m: &mut Metrics) {
    let config = TenantConfig::new(builder()).with_telemetry(Telemetry::new());
    let mut q = QueryEngine::new(TenantEngine::new(config));
    let some: Vec<(StreamId, Point2)> = pairs
        .iter()
        .copied()
        .filter(|(id, _)| id.0 < JOIN_STREAMS)
        .collect();
    for batch in some.chunks(BATCH) {
        black_box(q.tenants_mut().ingest_bulk(batch).is_ok());
    }
    let t = Instant::now();
    let (join_ms, frac) = match q.separation_join(threshold) {
        Ok(j) => (
            ns(t) / 1e6,
            j.exact_tests as f64 / j.scanned_pairs.max(1) as f64,
        ),
        Err(_) => (0.0, 0.0),
    };
    put(m, "serving.join_ms", join_ms, 1);
    put(m, "serving.join_exact_frac", frac, 1);
}

/// The windowed summary alone, configured as in `stream_window`, and its
/// tax over a bare summary fed the same chunks.
fn window(points: &[Point2], m: &mut Metrics) {
    let tel = Telemetry::new();
    let size = (points.len() as u64 / 4).clamp(1, 65_536);
    let mut w = builder()
        .windowed(stream_window::config(size))
        .with_telemetry(tel);
    let mut insert_ns = 0.0;
    let (mut query_us, mut buckets, mut merge_us, mut stale) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (c, chunk) in points.chunks(stream_window::CHUNK).enumerate() {
        let t = Instant::now();
        w.insert_batch(chunk);
        insert_ns += ns(t);
        if c % stream_window::QUERY_EVERY == stream_window::QUERY_EVERY - 1 {
            let t = Instant::now();
            let answer = w.query_window();
            let us = ns(t) / 1e3;
            query_us.push(us);
            buckets.push(answer.buckets as f64);
            merge_us.push(us / answer.buckets.max(1) as f64);
            stale.push(answer.stale_points as f64);
        }
    }
    let insert = insert_ns / points.len().max(1) as f64;
    let mut scratch = Metrics::new();
    let bare = bare(points, stream_window::CHUNK, &mut scratch);
    let n = query_us.len();
    put(m, "window.insert_ns_per_pt", insert, points.len());
    put(m, "window.tax_ns_per_pt", insert - bare, points.len());
    put(m, "window.query_us", stats::median(&query_us), n);
    put(m, "window.buckets", stats::median(&buckets), n);
    put(m, "window.merge_us", stats::median(&merge_us), n);
    put(m, "window.stale_points", stats::median(&stale), n);
    let scrape = tel.scrape();
    put(
        m,
        "window.seals",
        scrape.counter_total(names::WINDOW_SEALS) as f64,
        1,
    );
    put(
        m,
        "window.merges",
        scrape.counter_total(names::WINDOW_MERGES) as f64,
        1,
    );
    put(
        m,
        "window.expiries",
        scrape.counter_total(names::WINDOW_EXPIRIES) as f64,
        1,
    );
}

/// Mean of histogram `name` across its label sets.
fn hist_mean(scrape: &Scrape, name: &str) -> (f64, usize) {
    let (sum, count) = scrape
        .histograms
        .iter()
        .filter(|h| h.name == name)
        .fold((0u64, 0u64), |(s, c), h| (s + h.sum, c + h.count));
    (sum as f64 / count.max(1) as f64, count as usize)
}

/// Supervised sharded ingest with one scripted crash, configured as in
/// `stream_backfill`; its speed-up over the bare single-thread summary.
fn recovery(points: &[Point2], bare_ns: f64, m: &mut Metrics) {
    let tel = Telemetry::new();
    let mut per_pt = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let sup = stream_backfill::supervised(points.len(), tel);
        let t = Instant::now();
        let run = sup.run_stream(points.iter().copied());
        per_pt.push(ns(t) / points.len().max(1) as f64);
        last = Some(run.report);
    }
    let run_ns = stats::median(&per_pt);
    put(m, "recovery.run_ns_per_pt", run_ns, REPS);
    put(m, "parallel.speedup_vs_bare", bare_ns / run_ns, REPS);
    let report = last.expect("REPS is at least 1");
    put(
        m,
        "recovery.checkpoints",
        report.checkpoints_taken as f64,
        1,
    );
    put(
        m,
        "recovery.replayed_points",
        report.replayed_points as f64,
        1,
    );
    let scrape = tel.scrape();
    let (enc, n_enc) = hist_mean(&scrape, names::CHECKPOINT_ENCODE_NS);
    let (dec, n_dec) = hist_mean(&scrape, names::CHECKPOINT_DECODE_NS);
    put(m, "recovery.checkpoint_encode_ns", enc, n_enc);
    put(m, "recovery.checkpoint_decode_ns", dec, n_dec);
}
