//! The four workloads and the loop that times them.
//!
//! A workload is set up (inputs generated, any preload ingested), warms
//! up, then runs *passes* — a fixed unit of work each — back to back in a
//! closed loop with one client thread until the run length is used up.
//! Untraced timings are scaled to a reference host speed (see
//! [`host_speed`]). Checks against exact references run after the timed
//! phase. A traced run alternates untraced passes with traced ones on a
//! second, identically set up state that has a live `Telemetry` registry
//! attached, and then runs the per-layer probes on the workload's own
//! input.

pub mod fleet_dashboard;
pub mod fleet_ingest;
pub mod stream_backfill;
pub mod stream_window;

use std::collections::BTreeMap;
use std::time::Instant;

use streamhull::geom::{calipers, locate};
use streamhull::prelude::*;

use crate::check::{Checker, RATED_POINTS};
use crate::probes::{self, ProbeInput};
use crate::report::{self, put, Metrics, Outcome};
use crate::stats;
use crate::trace::{Layer, Tracer};

/// Setups per run, at least; `setup_s` is their median. A run keeps
/// setting up until `SETUP_SECONDS` are spent or `MAX_SETUPS` are done,
/// so a quick setup is timed often enough for a steady median.
pub const SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_SECONDS: f64 = 1.0;
/// Share of the run length spent warming up before the timed phase.
pub const WARMUP_SHARE: f64 = 0.1;
/// Refreshes a full-size run collects at least, so that ten or more lie
/// beyond the 99th percentile `refresh_p99_us` reports.
pub const MIN_REFRESHES: usize = 1010;
/// Spans kept in the traced run's ring.
pub const SPAN_RING: usize = 1 << 16;
/// In traced passes, one serving call in this many is spanned and timed.
pub const SERVE_SAMPLE: u64 = 8;

/// Input sizes: `Full` for measurement, `Tiny` for the benchmark's tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Small inputs that exercise every path in well under a second.
    Tiny,
}

impl Scale {
    /// `full` or `tiny`, by scale.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// The workloads, by command-line name.
pub const NAMES: [&str; 4] = [
    "fleet_ingest",
    "fleet_dashboard",
    "stream_window",
    "stream_backfill",
];

/// The summary every workload runs: the paper's adaptive hull at `r = 32`.
pub fn builder() -> SummaryBuilder {
    SummaryBuilder::new(SummaryKind::Adaptive).with_r(32)
}

/// Eight query directions, evenly spread over a half turn.
pub fn directions() -> [Vec2; 8] {
    std::array::from_fn(|k| {
        let a = k as f64 * std::f64::consts::PI / 8.0;
        Vec2::new(a.cos(), a.sin())
    })
}

/// Per-pass context: the tracer, failure accounting for in-loop calls,
/// and the samples the end-to-end and per-layer metrics are made from.
pub struct Cx {
    /// Span recorder (disabled in untraced passes).
    pub tr: Tracer,
    /// Typed errors from calls made inside passes.
    pub ck: Checker,
    /// Points accepted by ingest calls in the current pass.
    pub ingest_points: u64,
    /// Time spent inside ingest calls in the current pass.
    pub ingest_ns: u64,
    /// Time inside the current pass spent on check bookkeeping; excluded
    /// from the pass's wall time.
    pub excluded_ns: u64,
    /// Refresh latencies, in µs.
    pub refresh_us: Vec<f64>,
    /// Low-volume sample series, recorded in every pass.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// High-volume per-layer accumulators `(sum, count)`, traced passes
    /// only.
    pub acc: BTreeMap<&'static str, (f64, u64)>,
    /// Serving calls made, for sampling.
    pub served: u64,
}

impl Cx {
    fn new(traced: bool) -> Cx {
        Cx {
            tr: Tracer::new(traced, SPAN_RING),
            ck: Checker::default(),
            ingest_points: 0,
            ingest_ns: 0,
            excluded_ns: 0,
            refresh_us: Vec::new(),
            series: BTreeMap::new(),
            acc: BTreeMap::new(),
            served: 0,
        }
    }

    /// Runs an ingest call of `points` points inside a span, timing it
    /// toward `ingest_pts_per_s`.
    pub fn ingest<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        points: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let r = self.tr.span(layer, name, f);
        self.ingest_ns += t.elapsed().as_nanos() as u64;
        self.ingest_points += points as u64;
        r
    }

    /// Adds `v` to a per-layer accumulator (traced passes only).
    pub fn acc(&mut self, name: &'static str, v: f64) {
        if self.tr.on() {
            let e = self.acc.entry(name).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
    }

    /// Mean of an accumulator and its count.
    pub fn mean(&self, name: &str) -> (f64, usize) {
        self.acc
            .get(name)
            .map_or((0.0, 0), |&(s, n)| (s / n.max(1) as f64, n as usize))
    }

    /// Appends to a sample series.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    /// Median of a series and its length.
    pub fn median(&self, name: &str) -> (f64, usize) {
        self.series
            .get(name)
            .map_or((0.0, 0), |v| (stats::median(v), v.len()))
    }

    /// Runs one serving call. In traced passes every
    /// `SERVE_SAMPLE`-th call gets its own span and is timed as a cache
    /// hit or miss from the `cache_stats` delta; timing every call would
    /// cost as much as a cache hit.
    pub fn serve<T>(
        &mut self,
        q: &mut QueryEngine,
        name: &'static str,
        f: impl FnOnce(&mut QueryEngine) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        self.served += 1;
        if !self.tr.on() || !self.served.is_multiple_of(SERVE_SAMPLE) {
            return f(q);
        }
        let before = q.cache_stats().hits;
        let t = Instant::now();
        let r = self.tr.span(Layer::Serving, name, || f(q));
        let ns = t.elapsed().as_nanos() as f64;
        let hit = q.cache_stats().hits > before;
        self.acc(
            if hit {
                "serving.hit_ns"
            } else {
                "serving.miss_ns"
            },
            ns,
        );
        r
    }

    /// Tallies the cache hits and misses between two `cache_stats`
    /// readings (traced passes only).
    pub fn cache_delta(&mut self, before: QueryCacheStats, after: QueryCacheStats) {
        self.acc("serving.hits", (after.hits - before.hits) as f64);
        self.acc("serving.misses", (after.misses - before.misses) as f64);
    }

    /// Sets the cache metrics from the traced passes' tallies; a timing
    /// with no sampled call of its kind keeps the probe's figure.
    pub fn put_serving(&self, m: &mut Metrics) {
        let sum = |name: &str| self.acc.get(name).map_or(0.0, |a| a.0);
        let calls = sum("serving.hits") + sum("serving.misses");
        if calls > 0.0 {
            put(
                m,
                "serving.hit_frac",
                sum("serving.hits") / calls,
                calls as usize,
            );
        }
        for name in ["serving.hit_ns", "serving.miss_ns"] {
            if let (ns, n @ 1..) = self.mean(name) {
                put(m, name, ns, n);
            }
        }
    }
}

/// One workload.
pub trait Pipeline: Sized {
    /// Generates the inputs from `seed` and ingests any preload; engines
    /// record into `tel`.
    fn setup(seed: u64, scale: Scale, tel: Telemetry) -> Self;
    /// The workload parameters, for the replay token.
    fn params(&self) -> String;
    /// Builds the exact references (kept out of `setup_s`).
    fn reference(&mut self) {}
    /// One pass: a fixed unit of work.
    fn pass(&mut self, cx: &mut Cx);
    /// Work done once after the timed phase.
    fn after(&mut self, _cx: &mut Cx) {}
    /// Checks the final state against the exact references; `traced`
    /// enables the checks that need an extra run.
    fn check(&mut self, ck: &mut Checker, traced: bool);
    /// Bytes the engine accounts for at the end of a pass.
    fn state_bytes(&self) -> f64;
    /// The workload's input, for the per-layer probes.
    fn probe_input(&self) -> ProbeInput<'_>;
    /// Per-layer metrics measured by the traced passes themselves; they
    /// replace the probes' figures.
    fn native(&self, _cx: &Cx, _m: &mut Metrics) {}
    /// Informational figures printed beside the end-to-end metrics.
    fn notes(&self, _cx: &Cx, _out: &mut Vec<(String, f64, &'static str, usize)>) {}
}

/// Runs workload `name`. `None` for an unknown name.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Option<Outcome> {
    Some(match name {
        "fleet_ingest" => {
            drive::<fleet_ingest::FleetIngest>(NAMES[0], seed, seconds, traced, scale)
        }
        "fleet_dashboard" => {
            drive::<fleet_dashboard::FleetDashboard>(NAMES[1], seed, seconds, traced, scale)
        }
        "stream_window" => {
            drive::<stream_window::StreamWindow>(NAMES[2], seed, seconds, traced, scale)
        }
        "stream_backfill" => {
            drive::<stream_backfill::StreamBackfill>(NAMES[3], seed, seconds, traced, scale)
        }
        _ => return None,
    })
}

/// Times one pass of `st`; returns its wall time in seconds (check
/// bookkeeping excluded) and its ingest rate in points per second.
fn time_pass<P: Pipeline>(st: &mut P, cx: &mut Cx, tel: Telemetry) -> (f64, f64) {
    cx.ingest_points = 0;
    cx.ingest_ns = 0;
    cx.excluded_ns = 0;
    let t = Instant::now();
    cx.tr.enter(Layer::Bench, "pass");
    st.pass(cx);
    if cx.tr.on() {
        let _ = cx.tr.span(Layer::Telemetry, "scrape", || tel.scrape());
    }
    cx.tr.exit();
    let wall = (t.elapsed().as_nanos() as u64).saturating_sub(cx.excluded_ns);
    let rate = cx.ingest_points as f64 / (cx.ingest_ns.max(1) as f64 * 1e-9);
    (wall as f64 * 1e-9, rate)
}

fn drive<P: Pipeline>(
    name: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Outcome {
    // Untraced runs scale every timing to the reference host speed (see
    // `host_speed`); the raw figures go to the notes.
    let speed = || if traced { 1.0 } else { host_speed() };
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut state: Option<P> = None;
    while setup_s.len() < SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(state.take());
        let t = Instant::now();
        state = Some(P::setup(seed, scale, Telemetry::disabled()));
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(raw * speed());
        raw_setup_s.push(raw);
    }
    let mut plain = state.expect("SETUPS is at least 1");
    plain.reference();
    let tel = Telemetry::new();
    let mut shadow = traced.then(|| P::setup(seed, scale, tel));

    // An untimed warm-up: the first seconds after set-up run measurably
    // slower (fresh allocations, cold caches).
    let mut cw = Cx::new(false);
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < seconds * WARMUP_SHARE {
        plain.pass(&mut cw);
        if let Some(st) = shadow.as_mut() {
            st.pass(&mut cw);
        }
    }

    // The timed phase: at least three passes per state, then until the
    // run length is used up; an untraced run also collects enough
    // refreshes for its p99.
    let (mut cu, mut ct) = (Cx::new(false), Cx::new(true));
    let (mut walls_u, mut walls_t, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_walls, mut raw_rates, mut raw_refresh, mut speeds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0u64.. {
        match shadow.as_mut().filter(|_| i % 2 == 1) {
            Some(st) => {
                ct.tr.op = i;
                walls_t.push(time_pass(st, &mut ct, tel).0);
            }
            None => {
                cu.tr.op = i;
                let first = cu.refresh_us.len();
                let (wall, rate) = time_pass(&mut plain, &mut cu, Telemetry::disabled());
                let f = speed();
                for r in &mut cu.refresh_us[first..] {
                    raw_refresh.push(*r);
                    *r *= f;
                }
                walls_u.push(wall * f);
                rates.push(rate / f);
                raw_walls.push(wall);
                raw_rates.push(rate);
                speeds.push(f);
            }
        }
        let enough = walls_u.len() >= 3
            && if traced {
                walls_t.len() >= 3
            } else {
                cu.refresh_us.len() >= scale.pick(MIN_REFRESHES, 0)
            };
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Self time per layer over the traced passes; their sum is the traced
    // passes' wall time.
    let self_ns = Layer::ALL.map(|l| ct.tr.self_ns(l) as f64);
    plain.after(&mut cu);
    if let Some(st) = shadow.as_mut() {
        st.after(&mut ct);
    }

    let mut ck = Checker::default();
    plain.check(&mut ck, traced);
    for c in [&cw.ck, &cu.ck, &ct.ck] {
        ck.attempted += c.attempted;
        ck.failed += c.failed;
        ck.failures.extend(c.failures.iter().cloned());
    }

    let mut out = Outcome {
        workload: name,
        seed,
        params: plain.params(),
        traced,
        ..Outcome::default()
    };
    let m = &mut out.metrics;
    if let Some(st) = shadow.as_ref() {
        *m = probes::run(&plain.probe_input());
        st.native(&ct, m);
        let traced_ns: f64 = self_ns.iter().sum();
        for (layer, ns) in Layer::ALL.into_iter().zip(self_ns) {
            put(m, self_frac_name(layer), ns / traced_ns, walls_t.len());
        }
        let overhead = stats::median(&walls_t) / stats::median(&walls_u);
        put(
            m,
            "telemetry.overhead",
            overhead,
            walls_t.len() + walls_u.len(),
        );
        put(
            m,
            "summaries.error_obs_rel",
            stats::max(&ck.obs_rel),
            ck.obs_rel.len(),
        );
        out.spans = Some(ct.tr.to_json());
    } else {
        put(m, "setup_s", stats::median(&setup_s), setup_s.len());
        put(m, "ingest_pts_per_s", stats::median(&rates), rates.len());
        let n = cu.refresh_us.len();
        put(m, "refresh_p50_us", stats::median(&cu.refresh_us), n);
        put(
            m,
            "refresh_p99_us",
            stats::percentile(&cu.refresh_us, 99.0),
            n,
        );
        let beyond = stats::beyond(n, 99.0);
        out.notes.push((
            "refresh_samples_beyond_p99".into(),
            beyond as f64,
            "count",
            n,
        ));
        put(m, "wall_s", stats::median(&walls_u), walls_u.len());
        put(m, "state_bytes", plain.state_bytes(), 1);
        put(m, "peak_rss_mb", report::peak_rss_mb(), 1);
        put(
            m,
            "error_bound_rel",
            stats::median(&ck.bound_rel),
            ck.bound_rel.len(),
        );
        plain.notes(&cu, &mut out.notes);
        let raw = [
            (
                "raw_setup_s",
                stats::median(&raw_setup_s),
                "s",
                raw_setup_s.len(),
            ),
            (
                "raw_ingest_pts_per_s",
                stats::median(&raw_rates),
                "pts/s",
                raw_rates.len(),
            ),
            ("raw_refresh_p50_us", stats::median(&raw_refresh), "us", n),
            (
                "raw_refresh_p99_us",
                stats::percentile(&raw_refresh, 99.0),
                "us",
                n,
            ),
            (
                "raw_wall_s",
                stats::median(&raw_walls),
                "s",
                raw_walls.len(),
            ),
            ("host_speed", stats::median(&speeds), "1", speeds.len()),
        ];
        out.notes
            .extend(raw.map(|(name, v, unit, n)| (name.to_string(), v, unit, n)));
        out.series = vec![
            ("pass_raw_wall_s", raw_walls),
            ("pass_raw_ingest_pts_per_s", raw_rates),
            ("pass_host_speed", speeds),
        ];
    }
    out.attempted = ck.attempted;
    out.failed = ck.failed;
    out.failures = ck.failures;
    out
}

/// Calibration kernel time on the reference host, in ns.
pub const CAL_REF_NS: f64 = 300_000.0;
/// Calibration kernel runs per reading; the fastest counts.
const CAL_RUNS: usize = 4;

/// The host's speed now relative to the reference host: `CAL_REF_NS` ÷
/// the fastest of a few runs of `calibrate`. On a shared host the same
/// code runs up to 1.5× slower for minutes at a time; timings multiplied
/// by this factor, taken right after each pass, are steadier across runs
/// than the raw ones, and a change to the library still moves them in
/// full, since the kernel calls none of its code.
pub fn host_speed() -> f64 {
    let fastest = (0..CAL_RUNS).map(|_| calibrate()).fold(f64::MAX, f64::min);
    CAL_REF_NS / fastest
}

/// A fixed, benchmark-owned mix of the work the workloads do — hashing
/// into a table, float math, a sort — timed in ns.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut rng = stats::Rng::new(7, 7);
    let mut table: std::collections::HashMap<u64, u64> =
        std::collections::HashMap::with_capacity(1024);
    let mut v: Vec<f64> = Vec::with_capacity(4096);
    for _ in 0..4096 {
        let x = rng.next_u64();
        *table.entry(x % 1024).or_insert(0) += x;
        v.push(((x >> 11) as f64).sqrt().sin());
    }
    v.sort_by(f64::total_cmp);
    std::hint::black_box((table.len(), v[0]));
    t.elapsed().as_nanos() as f64
}

fn self_frac_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Bench => "trace.unattributed_frac",
        Layer::Geom => "geom.self_frac",
        Layer::Summaries => "summaries.self_frac",
        Layer::Recovery => "recovery.self_frac",
        Layer::Window => "window.self_frac",
        Layer::Snapshot => "snapshot.self_frac",
        Layer::Tenant => "tenant.self_frac",
        Layer::Serving => "serving.self_frac",
        Layer::Telemetry => "telemetry.self_frac",
    }
}

/// Checks one fleet stream against its exact hull: the width, diameter
/// and extent estimates must contain the exact values, and the summary's
/// hull must lie within its reported error bound.
pub fn check_stream(ck: &mut Checker, q: &mut QueryEngine, id: StreamId, reference: &ExactHull) {
    let exact = reference.hull_ref();
    let diam = calipers::diameter(exact).map_or(0.0, |(_, _, d)| d);
    if let Some(w) = ck.op("width", q.width(id)) {
        ck.estimate("width", &w, calipers::width(exact), diam);
    }
    if let Some(d) = ck.op("diameter", q.diameter(id)) {
        match d {
            Some(pair) => ck.estimate("diameter", &pair.estimate, diam, diam),
            None => ck.expect(false, || format!("diameter of {id}: no answer")),
        }
    }
    for dir in directions() {
        let unit = QDir::quantize(dir)
            .expect("unit directions quantize")
            .unit();
        if let Some(e) = ck.op("extent", q.extent(id, dir)) {
            ck.estimate("extent", &e, locate::directional_extent(exact, unit), diam);
        }
    }
    let bound = ck
        .op("error_bound", q.tenants_mut().error_bound(id))
        .flatten();
    if let Some(hull) = ck.op("hull", q.tenants_mut().hull(id)) {
        let rated = reference.points_seen() >= RATED_POINTS;
        ck.hull_error("stream hull", &hull, exact, bound, rated);
    }
}
