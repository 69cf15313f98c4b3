//! Zero-dependency observability: counters, gauges and log-scale
//! histograms, with Prometheus-text and JSON-lines exporters.
//!
//! # Design
//!
//! Hot-path measurements (ingest, window, checkpoint codec, query
//! answers, latency and scans) are pushed into the registry, and a scrape
//! reads only that registry. Every other fact has one record elsewhere,
//! which renders itself into a scrape with `export_to(&mut Scrape)`:
//!
//! * the ledgers, [`PressureReport`](crate::tenant::PressureReport) and
//!   [`RecoveryReport`](crate::recovery::RecoveryReport);
//! * the query cache's hits and misses,
//!   [`QueryCacheStats`](crate::queries::serving::QueryCacheStats);
//! * the process-wide interior-certificate tallies,
//!   [`hot::HotKernelStats`] (from [`hot::snapshot`]).
//!
//! Each report's event log is its one event trail, and both trails keep
//! the *oldest* events. The tenant trail keeps the first
//! [`with_event_capacity`](crate::tenant::TenantConfig::with_event_capacity)
//! events and counts the rest in `events_dropped`; its exact tallies are
//! unaffected by the bound. The recovery trail keeps every fault, because
//! `streamhull_recovery_faults_total{kind}` is counted from it.
//!
//! The whole layer hangs off a [`Telemetry`] handle, which is `Copy` and
//! two machine words wide: either *disabled* (every operation is a branch
//! on `None` and nothing else — this is the path the benches compare
//! against) or a reference to a leaked, process-lifetime registry.
//! Leaking is deliberate: the engines that carry the handle
//! (`ShardedIngest`, `TenantConfig`, …) are `Copy` and flow across scoped
//! threads, so the registry must be `'static`; a registry is a few KiB of
//! instrument cells, created once per process (or per test — tests get
//! isolated registries precisely *because* each [`Telemetry::new`] is its
//! own arena).
//!
//! Hot-path cost model:
//! * counters are striped over [`STRIPES`] cache-line-aligned atomics
//!   (stripe chosen once per thread), so an increment is one relaxed
//!   `fetch_add` with no sharing between concurrent shard workers;
//! * histograms are fixed log₂-bucket arrays — recording is two relaxed
//!   adds and an `ilog2`;
//! * instrument *registration* takes a mutex and should happen once, up
//!   front; handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Copy`
//!   and free to pass into worker closures.

use std::cell::Cell;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of cache-line-aligned stripes per counter. Each thread is
/// assigned one stripe round-robin on first use; scrapes sum all of them.
pub const STRIPES: usize = 8;

/// Number of log₂ buckets per histogram. Bucket `0` holds exact zeros,
/// bucket `i` holds values in `[2^(i-1), 2^i)`, and the last bucket
/// absorbs everything at or above `2^(HIST_BUCKETS-2)` (≈ 1.07 s when the
/// unit is nanoseconds).
pub const HIST_BUCKETS: usize = 32;

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The stripe this thread writes counters through (assigned once,
/// round-robin, on the thread's first increment).
fn stripe_id() -> usize {
    STRIPE.with(|slot| {
        let cur = slot.get();
        if cur != usize::MAX {
            return cur;
        }
        let id = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
        slot.set(id);
        id
    })
}

#[repr(align(64))]
struct Stripe(AtomicU64);

struct CounterCell {
    stripes: [Stripe; STRIPES],
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            stripes: std::array::from_fn(|_| Stripe(AtomicU64::new(0))),
        }
    }

    fn add(&self, n: u64) {
        self.stripes[stripe_id()].0.fetch_add(n, Ordering::Relaxed);
    }

    fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

struct GaugeCell(AtomicI64);

struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// Log₂ bucket index for `v` (see [`HIST_BUCKETS`] for the layout).
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((v.ilog2() as usize) + 1).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` as a Prometheus `le` label
/// (`2^i - 1`; the final bucket is `+Inf`).
fn bucket_le(i: usize) -> String {
    if i + 1 == HIST_BUCKETS {
        "+Inf".to_owned()
    } else {
        ((1u64 << i) - 1).to_string()
    }
}

/// A label set as call sites write it: `(key, value)` pairs in any order.
type Labels<'a> = &'a [(&'static str, &'a str)];

/// Canonical instrument identity: name plus label set, labels sorted by
/// key so registration order and call-site label order don't matter.
#[derive(Clone, PartialEq, Eq)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl Key {
    fn new(name: &'static str, labels: Labels) -> Self {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_owned())).collect();
        labels.sort_by(|a, b| a.0.cmp(b.0));
        Key { name, labels }
    }
}

struct Inner {
    counters: Mutex<Vec<(Key, &'static CounterCell)>>,
    gauges: Mutex<Vec<(Key, &'static GaugeCell)>>,
    hists: Mutex<Vec<(Key, &'static HistCell)>>,
}

/// Monotonic counter handle (`Copy`; no-op when its registry is
/// disabled). Obtain via [`Telemetry::counter`].
#[derive(Clone, Copy)]
pub struct Counter(Option<&'static CounterCell>);

impl Counter {
    /// A counter that ignores every increment.
    pub const fn noop() -> Self {
        Counter(None)
    }

    /// Add `n` (relaxed atomic on a per-thread stripe).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = self.0 {
            cell.add(n);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Counter({})",
            if self.0.is_some() { "live" } else { "noop" }
        )
    }
}

/// Gauge handle: a settable signed level (`Copy`; no-op when disabled).
#[derive(Clone, Copy)]
pub struct Gauge(Option<&'static GaugeCell>);

impl Gauge {
    /// A gauge that ignores every update.
    pub const fn noop() -> Self {
        Gauge(None)
    }

    /// Set the current level.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = self.0 {
            cell.0.store(v, Ordering::Relaxed);
        }
    }

    /// Adjust the current level by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = self.0 {
            cell.0.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Gauge({})",
            if self.0.is_some() { "live" } else { "noop" }
        )
    }
}

/// Log₂-bucket histogram handle (`Copy`; no-op when disabled).
#[derive(Clone, Copy)]
pub struct Histogram(Option<&'static HistCell>);

impl Histogram {
    /// A histogram that ignores every observation.
    pub const fn noop() -> Self {
        Histogram(None)
    }

    /// `true` when observations are actually recorded. Hot paths use
    /// this to skip taking timestamps for a no-op sink.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = self.0 {
            cell.record(v);
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram({})",
            if self.0.is_some() { "live" } else { "noop" }
        )
    }
}

/// The observability handle threaded through the engines.
///
/// `Copy` and cheap to pass by value; [`Telemetry::disabled`] (also the
/// `Default`) is a compile-time-const no-op whose every operation is a
/// single branch, which is what the `telemetry_overhead` bench dimension
/// compares the instrumented path against.
///
/// ```
/// use adaptive_hull::telemetry::Telemetry;
///
/// let tel = Telemetry::new();
/// let pts = tel.counter("streamhull_ingest_points_total", &[("backend", "exact")]);
/// pts.add(128);
///
/// let scrape = tel.scrape();
/// assert_eq!(scrape.counter_total("streamhull_ingest_points_total"), 128);
/// ```
#[derive(Clone, Copy, Default)]
pub struct Telemetry {
    inner: Option<&'static Inner>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Telemetry {
    /// A live registry. The registry is leaked (process lifetime) so the
    /// handle stays `Copy` across the `Copy` engines; create one per
    /// process, or one per test for isolation.
    pub fn new() -> Self {
        let inner: &'static Inner = Box::leak(Box::new(Inner {
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            hists: Mutex::new(Vec::new()),
        }));
        Telemetry { inner: Some(inner) }
    }

    /// The no-op handle: every instrument it hands out ignores updates.
    pub const fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Register (or look up) the counter `name` with `labels`.
    /// Registration locks a mutex — do it once up front, then hand the
    /// `Copy` handle to the hot path.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Counter {
        match self.inner {
            None => Counter(None),
            Some(inner) => {
                let key = Key::new(name, labels);
                let mut reg = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
                if let Some((_, cell)) = reg.iter().find(|(k, _)| *k == key) {
                    return Counter(Some(cell));
                }
                let cell: &'static CounterCell = Box::leak(Box::new(CounterCell::new()));
                reg.push((key, cell));
                Counter(Some(cell))
            }
        }
    }

    /// Register (or look up) the gauge `name` with `labels`.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Gauge {
        match self.inner {
            None => Gauge(None),
            Some(inner) => {
                let key = Key::new(name, labels);
                let mut reg = inner.gauges.lock().unwrap_or_else(|e| e.into_inner());
                if let Some((_, cell)) = reg.iter().find(|(k, _)| *k == key) {
                    return Gauge(Some(cell));
                }
                let cell: &'static GaugeCell = Box::leak(Box::new(GaugeCell(AtomicI64::new(0))));
                reg.push((key, cell));
                Gauge(Some(cell))
            }
        }
    }

    /// Register (or look up) the histogram `name` with `labels`.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Histogram {
        match self.inner {
            None => Histogram(None),
            Some(inner) => {
                let key = Key::new(name, labels);
                let mut reg = inner.hists.lock().unwrap_or_else(|e| e.into_inner());
                if let Some((_, cell)) = reg.iter().find(|(k, _)| *k == key) {
                    return Histogram(Some(cell));
                }
                let cell: &'static HistCell = Box::leak(Box::new(HistCell::new()));
                reg.push((key, cell));
                Histogram(Some(cell))
            }
        }
    }

    /// Snapshot every instrument of this registry into a [`Scrape`] with
    /// a deterministic (sorted) sample order. Reads nothing outside the
    /// registry. Cheap enough to call mid-run; counters are summed across
    /// stripes at this point.
    pub fn scrape(&self) -> Scrape {
        let mut scrape = Scrape::default();
        let Some(inner) = self.inner else {
            return scrape;
        };
        {
            let reg = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
            for (key, cell) in reg.iter() {
                scrape.counters.push(CounterSample {
                    name: key.name,
                    labels: key.labels.clone(),
                    value: cell.value(),
                });
            }
        }
        {
            let reg = inner.gauges.lock().unwrap_or_else(|e| e.into_inner());
            for (key, cell) in reg.iter() {
                scrape.gauges.push(GaugeSample {
                    name: key.name,
                    labels: key.labels.clone(),
                    value: cell.0.load(Ordering::Relaxed),
                });
            }
        }
        {
            let reg = inner.hists.lock().unwrap_or_else(|e| e.into_inner());
            for (key, cell) in reg.iter() {
                let buckets: Vec<u64> = cell
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                let count = buckets.iter().sum();
                scrape.histograms.push(HistogramSample {
                    name: key.name,
                    labels: key.labels.clone(),
                    buckets,
                    count,
                    sum: cell.sum.load(Ordering::Relaxed),
                });
            }
        }
        let sort_key =
            |name: &'static str, labels: &[(&'static str, String)]| (name, labels.to_vec());
        scrape
            .counters
            .sort_by(|a, b| sort_key(a.name, &a.labels).cmp(&sort_key(b.name, &b.labels)));
        scrape
            .gauges
            .sort_by(|a, b| sort_key(a.name, &a.labels).cmp(&sort_key(b.name, &b.labels)));
        scrape
            .histograms
            .sort_by(|a, b| sort_key(a.name, &a.labels).cmp(&sort_key(b.name, &b.labels)));
        scrape
    }
}

/// One counter sample in a [`Scrape`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label set.
    pub labels: Vec<(&'static str, String)>,
    /// Stripe-summed value at scrape time.
    pub value: u64,
}

/// One gauge sample in a [`Scrape`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label set.
    pub labels: Vec<(&'static str, String)>,
    /// Level at scrape time.
    pub value: i64,
}

/// One histogram sample in a [`Scrape`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: &'static str,
    /// Sorted label set.
    pub labels: Vec<(&'static str, String)>,
    /// Raw (non-cumulative) per-bucket counts, [`HIST_BUCKETS`] long.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A point-in-time snapshot of a registry: every instrument, sorted by
/// name then labels, plus whatever records were exported into it.
#[derive(Clone, Debug, Default, PartialEq)]
#[must_use]
pub struct Scrape {
    /// Counter samples, sorted.
    pub counters: Vec<CounterSample>,
    /// Gauge samples, sorted.
    pub gauges: Vec<GaugeSample>,
    /// Histogram samples, sorted.
    pub histograms: Vec<HistogramSample>,
}

impl Scrape {
    /// Sum of `name` across every label set (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// The counter `name` with exactly `labels` (order-insensitive).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let mut want: Vec<(&str, &str)> = labels.to_vec();
        want.sort_by(|a, b| a.0.cmp(b.0));
        self.counters
            .iter()
            .find(|c| {
                c.name == name
                    && c.labels.len() == want.len()
                    && c.labels
                        .iter()
                        .zip(want.iter())
                        .all(|((k, v), (wk, wv))| k == wk && v == wv)
            })
            .map(|c| c.value)
    }

    /// The gauge `name` with an empty label set.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && g.labels.is_empty())
            .map(|g| g.value)
    }

    /// Adds `v` to the counter `name{labels}`: summed into the sample
    /// already there, or inserted at its sorted position.
    pub(crate) fn add_counter(&mut self, name: &'static str, labels: Labels, v: u64) {
        let labels = Key::new(name, labels).labels;
        let at = self
            .counters
            .binary_search_by(|c| (c.name, &c.labels).cmp(&(name, &labels)));
        match at {
            Ok(i) => self.counters[i].value += v,
            Err(i) => self.counters.insert(
                i,
                CounterSample {
                    name,
                    labels,
                    value: v,
                },
            ),
        }
    }

    /// Adds `v` to the gauge `name{labels}` like [`add_counter`](Self::add_counter).
    pub(crate) fn add_gauge(&mut self, name: &'static str, labels: Labels, v: i64) {
        let labels = Key::new(name, labels).labels;
        let at = self
            .gauges
            .binary_search_by(|g| (g.name, &g.labels).cmp(&(name, &labels)));
        match at {
            Ok(i) => self.gauges[i].value += v,
            Err(i) => self.gauges.insert(
                i,
                GaugeSample {
                    name,
                    labels,
                    value: v,
                },
            ),
        }
    }

    /// `true` when nothing has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render in the Prometheus text exposition format: `# TYPE` lines,
    /// escaped label values, and cumulative `_bucket{le=…}` series plus
    /// `_sum`/`_count` for histograms.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last = "";
        for c in &self.counters {
            if c.name != last {
                let _ = writeln!(out, "# TYPE {} counter", c.name);
                last = c.name;
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                c.name,
                fmt_label_set(&c.labels, None),
                c.value
            );
        }
        last = "";
        for g in &self.gauges {
            if g.name != last {
                let _ = writeln!(out, "# TYPE {} gauge", g.name);
                last = g.name;
            }
            let _ = writeln!(
                out,
                "{}{} {}",
                g.name,
                fmt_label_set(&g.labels, None),
                g.value
            );
        }
        last = "";
        for h in &self.histograms {
            if h.name != last {
                let _ = writeln!(out, "# TYPE {} histogram", h.name);
                last = h.name;
            }
            let mut cum = 0u64;
            for (i, b) in h.buckets.iter().enumerate() {
                cum += b;
                let le = bucket_le(i);
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    fmt_label_set(&h.labels, Some(("le", &le))),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                h.name,
                fmt_label_set(&h.labels, None),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                h.name,
                fmt_label_set(&h.labels, None),
                h.count
            );
        }
        out
    }

    /// Render as JSON lines: one self-contained JSON object per line
    /// (`kind` discriminates `counter` / `gauge` / `histogram`), suitable
    /// for appending to a log stream.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let _ = write!(
                out,
                "{{\"kind\":\"counter\",\"name\":\"{}\"",
                json_escape(c.name)
            );
            json_labels(&mut out, &c.labels);
            let _ = writeln!(out, ",\"value\":{}}}", c.value);
        }
        for g in &self.gauges {
            let _ = write!(
                out,
                "{{\"kind\":\"gauge\",\"name\":\"{}\"",
                json_escape(g.name)
            );
            json_labels(&mut out, &g.labels);
            let _ = writeln!(out, ",\"value\":{}}}", g.value);
        }
        for h in &self.histograms {
            let _ = write!(
                out,
                "{{\"kind\":\"histogram\",\"name\":\"{}\"",
                json_escape(h.name)
            );
            json_labels(&mut out, &h.labels);
            let _ = write!(
                out,
                ",\"count\":{},\"sum\":{},\"buckets\":[",
                h.count, h.sum
            );
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    let _ = write!(out, ",");
                }
                let _ = write!(out, "{b}");
            }
            let _ = writeln!(out, "]}}");
        }
        out
    }
}

/// Render a label set as `{k="v",…}` (empty string for no labels),
/// appending `extra` (used for histogram `le`) last.
fn fmt_label_set(labels: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", k, prom_escape(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", k, prom_escape(v));
    }
    out.push('}');
    out
}

/// Escape a Prometheus label value: backslash, double-quote, newline.
fn prom_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape a JSON string body (quotes, backslashes, control characters).
fn json_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            _ => out.push(c),
        }
    }
    out
}

/// Append `,"labels":{…}` for a sample's label set.
fn json_labels(out: &mut String, labels: &[(&'static str, String)]) {
    let _ = write!(out, ",\"labels\":{{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            let _ = write!(out, ",");
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    let _ = write!(out, "}}");
}

/// Canonical metric names, so instrumentation sites, the README table,
/// tests, and dashboards agree on spelling. Label conventions:
/// `backend` = summary kind label, `outcome` = result class of a
/// multi-way operation, `kind` = fault/spill subtype.
/// The `RECOVERY_*` and `TENANT_*` series are written by the reports'
/// `export_to`, the `QUERY_CACHE_*` series by
/// [`QueryCacheStats::export_to`](crate::queries::serving::QueryCacheStats::export_to)
/// and the `CERT_*` series by
/// [`HotKernelStats::export_to`](crate::telemetry::hot::HotKernelStats::export_to);
/// all others are pushed into the registry.
pub mod names {
    /// Points accepted by a backend's batch path (`backend` label).
    pub const INGEST_POINTS: &str = "streamhull_ingest_points_total";
    /// Whole-chunk ingest latency in ns (`backend` label, histogram, one
    /// sample per chunk, so `_count` is the chunk count): `_sum` over
    /// [`INGEST_POINTS`] is the exact mean ns/point.
    pub const INGEST_CHUNK_NS: &str = "streamhull_ingest_chunk_ns";

    /// Window generation seals (bucket boundaries crossed).
    pub const WINDOW_SEALS: &str = "streamhull_window_seals_total";
    /// Same-size bucket merges in the exponential-histogram chain.
    pub const WINDOW_MERGES: &str = "streamhull_window_merges_total";
    /// Buckets expired off the tail of the window.
    pub const WINDOW_EXPIRIES: &str = "streamhull_window_expiries_total";
    /// How far the oldest retained bucket reaches behind `now`, in ticks,
    /// set on every expiry sweep (gauge).
    pub const WINDOW_STALENESS: &str = "streamhull_window_staleness_ticks";

    /// Checkpoint snapshot encode latency in ns (histogram).
    pub const CHECKPOINT_ENCODE_NS: &str = "streamhull_checkpoint_encode_ns";
    /// Checkpoint snapshot decode/verify latency in ns (histogram).
    pub const CHECKPOINT_DECODE_NS: &str = "streamhull_checkpoint_decode_ns";

    /// Faults observed by the supervisor (`kind` label).
    pub const RECOVERY_FAULTS: &str = "streamhull_recovery_faults_total";
    /// Checkpoints accepted / rejected (`outcome` label).
    pub const RECOVERY_CHECKPOINTS: &str = "streamhull_recovery_checkpoints_total";
    /// Chunks replayed from checkpoint.
    pub const RECOVERY_REPLAYED_CHUNKS: &str = "streamhull_recovery_replayed_chunks_total";
    /// Points replayed from checkpoint.
    pub const RECOVERY_REPLAYED_POINTS: &str = "streamhull_recovery_replayed_points_total";
    /// Points lost to unrecoverable faults.
    pub const RECOVERY_LOST_POINTS: &str = "streamhull_recovery_lost_points_total";
    /// Non-finite coordinates dropped at the door.
    pub const RECOVERY_DROPPED_NON_FINITE: &str = "streamhull_recovery_dropped_non_finite_total";
    /// Non-finite coordinates injected by the fault plan.
    pub const RECOVERY_INJECTED_NON_FINITE: &str = "streamhull_recovery_injected_non_finite_total";

    /// Tenant admission outcomes (`outcome` label: `admitted` /
    /// `rejected`).
    pub const TENANT_STREAMS: &str = "streamhull_tenant_streams_total";
    /// Finite points offered to admitted tenants (`== ingested + shed`).
    pub const TENANT_POINTS_SEEN: &str = "streamhull_tenant_points_seen_total";
    /// Points ingested across all tenants.
    pub const TENANT_POINTS_INGESTED: &str = "streamhull_tenant_points_ingested_total";
    /// Points shed by overload policy.
    pub const TENANT_POINTS_SHED: &str = "streamhull_tenant_points_shed_total";
    /// Points refused with a typed error.
    pub const TENANT_POINTS_REJECTED: &str = "streamhull_tenant_points_rejected_total";
    /// Spill / restore operations (`kind` label: `spill` / `restore`).
    pub const TENANT_TIER_OPS: &str = "streamhull_tenant_tier_ops_total";
    /// Bytes moved by spill / restore (`kind` label).
    pub const TENANT_TIER_BYTES: &str = "streamhull_tenant_tier_bytes_total";
    /// Streams evicted under memory pressure.
    pub const TENANT_EVICTIONS: &str = "streamhull_tenant_evictions_total";
    /// Accuracy degradations applied by overload policy.
    pub const TENANT_DEGRADATIONS: &str = "streamhull_tenant_degradations_total";
    /// Streams quarantined on corrupt state.
    pub const TENANT_QUARANTINES: &str = "streamhull_tenant_quarantines_total";
    /// Ledger events dropped by the bounded `PressureReport` trail.
    pub const TENANT_EVENTS_DROPPED: &str = "streamhull_tenant_events_dropped_total";
    /// Estimated summary bytes currently resident (gauge).
    pub const TENANT_BYTES_IN_USE: &str = "streamhull_tenant_bytes_in_use";
    /// High-water mark of accounted bytes (gauge).
    pub const TENANT_BYTES_PEAK: &str = "streamhull_tenant_bytes_peak";
    /// Streams currently in the hot tier (gauge).
    pub const TENANT_HOT_STREAMS: &str = "streamhull_tenant_hot_streams";
    /// Streams currently spilled cold (gauge).
    pub const TENANT_COLD_STREAMS: &str = "streamhull_tenant_cold_streams";
    /// Streams currently quarantined (gauge).
    pub const TENANT_QUARANTINED_STREAMS: &str = "streamhull_tenant_quarantined_streams";

    /// Analytic answers served by the query layer (`kind` label: `width` /
    /// `diameter` / `extent` / `bbox` / `incircle`).
    pub const QUERY_ANSWERS: &str = "streamhull_query_answers_total";
    /// Answers served straight from the generation-keyed query cache.
    pub const QUERY_CACHE_HITS: &str = "streamhull_query_cache_hits_total";
    /// Answers recomputed on the summary hull (then cached).
    pub const QUERY_CACHE_MISSES: &str = "streamhull_query_cache_misses_total";
    /// Per-answer serving latency in ns (histogram).
    pub const QUERY_LATENCY_NS: &str = "streamhull_query_latency_ns";
    /// Streams examined by top-k fleet scans.
    pub const QUERY_TOPK_SCANNED: &str = "streamhull_query_topk_scanned_total";
    /// Streams discharged by the bbox upper bound in top-k scans.
    pub const QUERY_TOPK_PRUNED: &str = "streamhull_query_topk_pruned_total";
    /// Separation-join pair outcomes (`outcome` label: `bbox_reject` /
    /// `incircle_accept` / `exact`).
    pub const QUERY_JOIN_PAIRS: &str = "streamhull_query_join_pairs_total";

    /// Points answered by a cached interior certificate, process-wide.
    pub const CERT_HITS: &str = "streamhull_cert_hits_total";
    /// Interior-certificate rebuilds after a miss, process-wide.
    pub const CERT_REFRESHES: &str = "streamhull_cert_refreshes_total";
}

/// Process-wide hot-kernel tallies.
///
/// The interior-certificate cache lives inside per-batch kernel loops
/// that have no `Telemetry` handle (and must not pay a lookup); instead
/// each batch flushes its hit/refresh counts here — two relaxed adds per
/// *batch*, not per point. Cumulative for the process lifetime, so tests
/// assert on deltas, not absolutes. A registry scrape never reads them; a
/// caller writes a [`snapshot`](crate::telemetry::hot::snapshot) into a
/// scrape with
/// [`HotKernelStats::export_to`](crate::telemetry::hot::HotKernelStats::export_to).
pub mod hot {
    use super::{names, Scrape};
    use std::sync::atomic::{AtomicU64, Ordering};

    static CERT_HITS: AtomicU64 = AtomicU64::new(0);
    static CERT_REFRESHES: AtomicU64 = AtomicU64::new(0);

    /// Interior-certificate cache outcomes since process start.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    #[must_use]
    pub struct HotKernelStats {
        /// Points answered by a cached interior certificate (no hull
        /// rebuild, no exact predicate).
        pub cert_hits: u64,
        /// Certificate rebuilds after a miss.
        pub cert_refreshes: u64,
    }

    impl HotKernelStats {
        /// Hits per certificate outcome, `0.0` when nothing ran.
        pub fn hit_rate(&self) -> f64 {
            let total = self.cert_hits + self.cert_refreshes;
            if total == 0 {
                0.0
            } else {
                self.cert_hits as f64 / total as f64
            }
        }

        /// Writes the `streamhull_cert_*` series into `scrape`, summed
        /// into samples already there.
        pub fn export_to(&self, scrape: &mut Scrape) {
            scrape.add_counter(names::CERT_HITS, &[], self.cert_hits);
            scrape.add_counter(names::CERT_REFRESHES, &[], self.cert_refreshes);
        }
    }

    /// Flush one batch's certificate tallies (called from the kernel's
    /// batch epilogue).
    pub(crate) fn record_cert(hits: u64, refreshes: u64) {
        if hits > 0 {
            CERT_HITS.fetch_add(hits, Ordering::Relaxed);
        }
        if refreshes > 0 {
            CERT_REFRESHES.fetch_add(refreshes, Ordering::Relaxed);
        }
    }

    /// Current process-wide tallies.
    pub fn snapshot() -> HotKernelStats {
        HotKernelStats {
            cert_hits: CERT_HITS.load(Ordering::Relaxed),
            cert_refreshes: CERT_REFRESHES.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_scrapes_empty() {
        let tel = Telemetry::disabled();
        let c = tel.counter("x_total", &[]);
        c.add(5);
        tel.gauge("g", &[]).set(7);
        tel.histogram("h", &[]).record(3);
        assert!(tel.scrape().is_empty());
    }

    #[test]
    fn counter_registration_dedups_and_label_order_is_canonical() {
        let tel = Telemetry::new();
        let a = tel.counter("c_total", &[("b", "2"), ("a", "1")]);
        let b = tel.counter("c_total", &[("a", "1"), ("b", "2")]);
        a.add(3);
        b.add(4);
        let s = tel.scrape();
        assert_eq!(s.counters.len(), 1);
        assert_eq!(
            s.counter_with("c_total", &[("b", "2"), ("a", "1")]),
            Some(7)
        );
    }

    #[test]
    fn histogram_buckets_cover_zero_small_and_saturating_values() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let tel = Telemetry::new();
        let h = tel.histogram("lat_ns", &[]);
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        let s = tel.scrape();
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].count, 6);
        assert_eq!(s.histograms[0].buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn prometheus_text_escapes_and_orders() {
        let tel = Telemetry::new();
        tel.counter("m_total", &[("path", "a\\b\"c\nd")]).inc();
        tel.gauge("level", &[]).set(-3);
        tel.histogram("lat_ns", &[]).record(2);
        let text = tel.scrape().to_prometheus_text();
        assert!(text.contains("# TYPE m_total counter"));
        assert!(text.contains("m_total{path=\"a\\\\b\\\"c\\nd\"} 1"));
        assert!(text.contains("level -3"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_ns_count 1"));
        assert!(text.contains("lat_ns_sum 2"));
    }

    #[test]
    fn json_lines_one_object_per_line() {
        let tel = Telemetry::new();
        tel.counter("m_total", &[("k", "v\"q")]).inc();
        let out = tel.scrape().to_json_lines();
        for line in out.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
        }
        assert!(out.contains("\"k\":\"v\\\"q\""));
    }

    #[test]
    fn hot_stats_export_sums_into_a_scrape() {
        let stats = hot::HotKernelStats {
            cert_hits: 5,
            cert_refreshes: 2,
        };
        let mut s = Scrape::default();
        stats.export_to(&mut s);
        stats.export_to(&mut s);
        assert_eq!(s.counter_total(names::CERT_HITS), 10);
        assert_eq!(s.counter_total(names::CERT_REFRESHES), 4);
        assert!(s.to_prometheus_text().contains(
            "# TYPE streamhull_cert_hits_total counter\nstreamhull_cert_hits_total 10\n"
        ));
    }

    #[test]
    fn striped_counters_merge_across_threads() {
        let tel = Telemetry::new();
        let c = tel.counter("threads_total", &[]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(tel.scrape().counter_total("threads_total"), 8000);
    }
}
