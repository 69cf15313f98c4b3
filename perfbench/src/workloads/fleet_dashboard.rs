//! `fleet_dashboard`: the read-heavy fleet.
//! Why: the serving cache does most of the work and writes invalidate it.
//!
//! Setup preloads 8k interior-heavy streams (32 uniform points in a unit
//! disk each) and warms the query cache. A pass is 16 rounds and one
//! `top_k_extent(·, 10)`; a round is a 64-pair trickle `ingest_bulk` into
//! the hottest 10% of the streams (one point in eight extends its
//! stream's hull), then 4 refreshes of 64 point queries (`width`,
//! `diameter`, or `extent` along one of 8 directions) on a skewed choice
//! of stream. One `separation_join` runs after the timed phase.

use std::time::Instant;

use streamhull::prelude::*;
use streamhull::streamgen::{Disk, TenantTraffic};

use super::{builder, check_stream, directions, Cx, Pipeline, Scale};
use crate::check::Checker;
use crate::probes::ProbeInput;
use crate::report::{put, Metrics};
use crate::stats::Rng;
use crate::trace::Layer;

const POINTS_PER_STREAM: usize = 32;
const TRICKLE: usize = 64;
const REFRESHES: usize = 4;
const QUERIES: usize = 64;
const ROUNDS_PER_PASS: usize = 16;
const TOP_K: usize = 10;
/// Share of queries aimed at the hot 10% of the streams.
const HOT_QUERY_SHARE: f64 = 0.8;
/// Join threshold: stream hulls are unit disks scattered over a
/// 200 × 200 square, so pairs closer than this exist at every seed.
const JOIN_THRESHOLD: f64 = 0.5;
/// Every `SAMPLE`-th stream id is mirrored by an exact reference.
const SAMPLE: u64 = 7;
/// Most trickle points fall well inside their stream's hull ...
const INTERIOR_RADIUS: f64 = 0.5;
/// ... and one in this many lands just beyond it, on a circle that grows
/// by `OUTWARD_GROWTH` per round, so every such write changes the hull.
/// Either way the cost of a write stays the same however long the run.
const OUTWARD_EVERY: usize = 8;
const OUTWARD_GROWTH: f64 = 1e-6;
const BATCH: usize = 4096;

/// State of the `fleet_dashboard` workload.
pub struct FleetDashboard {
    seed: u64,
    streams: u64,
    hot: u64,
    centers: Vec<Point2>,
    preload: Vec<(StreamId, Point2)>,
    preload_errors: Vec<String>,
    q: QueryEngine,
    round: u64,
    trickle: Vec<(StreamId, Point2)>,
    exact: Vec<(StreamId, ExactHull)>,
    /// Trickle points of sampled streams not yet added to the references.
    pending: Vec<(StreamId, Point2)>,
}

/// A uniform point in the disk of radius `radius` around `c`.
fn disk_point(rng: &mut Rng, c: Point2, radius: f64) -> Point2 {
    let r = radius * rng.unit().sqrt();
    let a = rng.unit() * std::f64::consts::TAU;
    Point2::new(c.x + r * a.cos(), c.y + r * a.sin())
}

impl FleetDashboard {
    fn round(&mut self, cx: &mut Cx) {
        let mut rng = Rng::new(self.seed, self.round);
        cx.tr.op = self.round;
        self.trickle.clear();
        for i in 0..TRICKLE {
            let id = rng.below(self.hot);
            let c = self.centers[id as usize];
            let p = if i % OUTWARD_EVERY == 0 {
                // Beyond every earlier point of the stream: a new extreme
                // that changes the hull and invalidates cached answers.
                let radius = 1.0 + OUTWARD_GROWTH * self.round as f64;
                let a = rng.unit() * std::f64::consts::TAU;
                Point2::new(c.x + radius * a.cos(), c.y + radius * a.sin())
            } else {
                disk_point(&mut rng, c, INTERIOR_RADIUS)
            };
            self.trickle.push((StreamId(id), p));
        }
        self.round += 1;
        let (q, trickle) = (&mut self.q, &self.trickle);
        let r = cx.ingest(Layer::Tenant, "ingest_bulk", trickle.len(), || {
            q.tenants_mut().ingest_bulk(trickle)
        });
        cx.ck.op("ingest_bulk", r);
        if !self.exact.is_empty() {
            let sampled = trickle.iter().filter(|(id, _)| id.0 % SAMPLE == 0);
            self.pending.extend(sampled);
        }

        let dirs = directions();
        for _ in 0..REFRESHES {
            let t = Instant::now();
            cx.tr.enter(Layer::Serving, "refresh");
            for _ in 0..QUERIES {
                let id = StreamId(if rng.unit() < HOT_QUERY_SHARE {
                    rng.below(self.hot)
                } else {
                    rng.below(self.streams)
                });
                let r = match rng.below(2 + dirs.len() as u64) {
                    0 => cx.serve(q, "width", |q| q.width(id).map(drop)),
                    1 => cx.serve(q, "diameter", |q| q.diameter(id).map(drop)),
                    k => {
                        let dir = dirs[k as usize - 2];
                        cx.serve(q, "extent", |q| q.extent(id, dir).map(drop))
                    }
                };
                cx.ck.op("query", r);
            }
            cx.tr.exit();
            cx.refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
}

impl Pipeline for FleetDashboard {
    fn setup(seed: u64, scale: Scale, tel: Telemetry) -> Self {
        let streams: u64 = scale.pick(8192, 256);
        let gen = TenantTraffic::new(seed, streams, 0);
        let centers: Vec<Point2> = (0..streams).map(|s| gen.center(s)).collect();
        let mut preload = Vec::with_capacity(streams as usize * POINTS_PER_STREAM);
        for (s, c) in centers.iter().enumerate() {
            let stream_seed = Rng::new(seed, s as u64).next_u64();
            let disk = Disk::new(stream_seed, POINTS_PER_STREAM, 1.0);
            preload.extend(disk.map(|p| (StreamId(s as u64), Point2::new(c.x + p.x, c.y + p.y))));
        }
        let config = TenantConfig::new(builder()).with_telemetry(tel);
        let mut q = QueryEngine::new(TenantEngine::new(config));
        let mut preload_errors: Vec<String> = preload
            .chunks(BATCH)
            .filter_map(|b| q.tenants_mut().ingest_bulk(b).err())
            .map(|e| format!("preload ingest_bulk: {e}"))
            .collect();
        // Warm the cache: every stream, every query kind once.
        for s in 0..streams {
            let id = StreamId(s);
            let mut answers = vec![q.width(id).map(drop), q.diameter(id).map(drop)];
            answers.extend(directions().map(|d| q.extent(id, d).map(drop)));
            preload_errors.extend(
                answers
                    .into_iter()
                    .filter_map(Result::err)
                    .map(|e| format!("cache warm-up: {e}")),
            );
        }
        FleetDashboard {
            seed,
            streams,
            hot: gen.hot_streams(),
            centers,
            preload,
            preload_errors,
            q,
            round: 0,
            trickle: Vec::with_capacity(TRICKLE),
            exact: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn params(&self) -> String {
        format!(
            "streams={},points_per_stream={POINTS_PER_STREAM},trickle={TRICKLE},interior_radius={INTERIOR_RADIUS},outward_every={OUTWARD_EVERY},refreshes={REFRESHES}x{QUERIES},hot_query_share={HOT_QUERY_SHARE},top_k_every={ROUNDS_PER_PASS},join_threshold={JOIN_THRESHOLD},r=32",
            self.streams
        )
    }

    fn reference(&mut self) {
        let mut exact: Vec<(StreamId, ExactHull)> = (0..self.streams)
            .step_by(SAMPLE as usize)
            .map(|s| (StreamId(s), ExactHull::new()))
            .collect();
        for &(id, p) in &self.preload {
            if id.0 % SAMPLE == 0 {
                exact[(id.0 / SAMPLE) as usize].1.insert(p);
            }
        }
        self.exact = exact;
    }

    fn pass(&mut self, cx: &mut Cx) {
        let cache = self.q.cache_stats();
        for _ in 0..ROUNDS_PER_PASS {
            self.round(cx);
        }
        let dir = directions()[(self.round / ROUNDS_PER_PASS as u64) as usize % 8];
        let t = Instant::now();
        let q = &mut self.q;
        let r = cx.tr.span(Layer::Serving, "top_k_extent", || {
            q.top_k_extent(dir, TOP_K)
        });
        cx.push("scan_ms", t.elapsed().as_secs_f64() * 1e3);
        if let Some(top) = cx.ck.op("top_k_extent", r) {
            cx.acc("topk.pruned", top.pruned as f64);
            cx.acc("topk.scanned", top.scanned as f64);
        }
        cx.cache_delta(cache, self.q.cache_stats());
        // Bring the exact references up to date (check work, not timed).
        let t = Instant::now();
        for (id, p) in self.pending.drain(..) {
            self.exact[(id.0 / SAMPLE) as usize].1.insert(p);
        }
        cx.excluded_ns += t.elapsed().as_nanos() as u64;
    }

    fn after(&mut self, cx: &mut Cx) {
        let t = Instant::now();
        let q = &mut self.q;
        let r = cx.tr.span(Layer::Serving, "separation_join", || {
            q.separation_join(JOIN_THRESHOLD)
        });
        cx.push("join_ms", t.elapsed().as_secs_f64() * 1e3);
        if let Some(join) = cx.ck.op("separation_join", r) {
            cx.ck.expect(!join.pairs.is_empty(), || {
                "separation_join found no pairs".to_string()
            });
            let frac = join.exact_tests as f64 / join.scanned_pairs.max(1) as f64;
            cx.push("join_exact_frac", frac);
        }
    }

    fn check(&mut self, ck: &mut Checker, _traced: bool) {
        for e in &self.preload_errors {
            ck.expect(false, || e.clone());
        }
        for (id, exact) in &self.exact {
            check_stream(ck, &mut self.q, *id, exact);
        }
    }

    fn state_bytes(&self) -> f64 {
        self.q.tenants().bytes_in_use() as f64
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            points: self
                .preload
                .iter()
                .map(|&(_, p)| p)
                .collect::<Vec<_>>()
                .into(),
            chunk: BATCH,
            pairs: self.preload.clone(),
            join_threshold: JOIN_THRESHOLD,
        }
    }

    fn native(&self, cx: &Cx, m: &mut Metrics) {
        cx.put_serving(m);
        let (topk_ms, n) = cx.median("scan_ms");
        put(m, "serving.topk_ms", topk_ms, n);
        let (pruned, _) = cx.mean("topk.pruned");
        let (scanned, _) = cx.mean("topk.scanned");
        put(m, "serving.topk_pruned_frac", pruned / scanned.max(1.0), n);
        let (join_ms, n) = cx.median("join_ms");
        put(m, "serving.join_ms", join_ms, n);
        let (exact_frac, n) = cx.median("join_exact_frac");
        put(m, "serving.join_exact_frac", exact_frac, n);
    }

    fn notes(&self, cx: &Cx, out: &mut Vec<(String, f64, &'static str, usize)>) {
        let (scan, n) = cx.median("scan_ms");
        out.push(("scan_p50_ms".into(), scan, "ms", n));
    }
}
