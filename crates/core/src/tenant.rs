//! Resource-governed multi-tenant summary engine.
//!
//! The paper's premise is that one summary is a tiny, bounded-memory
//! stand-in for one unbounded stream. A service holds *millions* of them —
//! one per user, sensor, or shard key — and at that scale the binding
//! constraint is no longer a single summary's `2r + 1` sample but the
//! fleet's total footprint. [`TenantEngine`] is the governed registry for
//! that fleet:
//!
//! * **Accounting & quotas** — every summary reports
//!   [`approx_bytes`](crate::summary::HullSummary::approx_bytes); the
//!   engine tracks a global budget and per-tenant caps and refuses work
//!   past quota with a typed [`AdmissionError`], never a panic or abort.
//! * **Admission control & load shedding** — overload resolves by explicit
//!   [`OverloadPolicy`]: reject with an error, shed the coldest work, or
//!   degrade hot streams to a cheaper backend (snapshot round-trip, with
//!   the error bound honestly widened — or withdrawn when the donor had
//!   none). Everything shed, degraded, or refused is tallied in a
//!   [`PressureReport`], the resource-pressure mirror of
//!   [`crate::recovery::RecoveryReport`].
//! * **Hot/cold tiering** — idle streams spill to
//!   [`snapshot`] envelopes on an idle-tick policy and
//!   restore bit-exactly on touch. A corrupt or truncated spill is caught
//!   by the hardened decode path and quarantines *only that tenant*; every
//!   other stream keeps serving.
//! * **Shared immutable tables** — the frozen direction fan and the radial
//!   sector table are pure functions of `(r, seed)` and `r`; the engine
//!   builds each once and shares the allocation across every stream of
//!   that configuration (and re-interns it on restore), so a million
//!   radial tenants carry one sector table, not a million.
//! * **Bulk interleaved ingest** — `(stream, point)` traffic is grouped
//!   per stream in first-appearance order, so one batch is one
//!   deterministic sequence of writes. On an ungoverned engine those
//!   writes commute, and a large batch feeds its summaries on scoped
//!   threads with the same result.
//! * **Backfill** — [`TenantEngine::absorb`] merges a finished
//!   [`SupervisedRun`] (an archive replayed through
//!   [`SupervisedIngest`](crate::recovery::SupervisedIngest), which
//!   recovers from shard crashes and stalls) into one stream. It is a
//!   write like any other: it takes the engine's single write path, so
//!   the gate, the caps, the budget and the `Reject`-policy rollback
//!   apply to it exactly as to [`TenantEngine::insert_batch`].
//!
//! A tenant's [`error_bound`](TenantEngine::error_bound) follows
//! [`Mergeable`]'s one composition rule: its backfilled runs and its state
//! before a degrade are parallel parts carried as the largest of their
//! bounds, and the live summary adds its own bound on top.
//!
//! A refused write is never half-taken, and `seen == ingested + shed`
//! holds globally and per tenant at every call boundary.
//!
//! The [`PressureReport`] is the governor's only ledger, and its event
//! log the only event trail: a scrape shows the `streamhull_tenant_*`
//! series once [`PressureReport::export_to`] renders them from a report,
//! so the two agree by construction.
//!
//! This module is a declared **no-panic zone** (enforced by `hull-lint`):
//! every overload, corruption, and quota outcome is a value, not a crash.

use crate::builder::{SummaryBuilder, SummaryKind};
use crate::frozen::FrozenHull;
use crate::fxhash::FxBuild;
use crate::radial::RadialHull;
use crate::recovery::SupervisedRun;
use crate::snapshot::{self, SnapshotError};
use crate::summary::{chain_bound, parallel_bound, HullSummary, Mergeable};
use crate::telemetry::{names, Scrape, Telemetry};
use geom::{ConvexPolygon, Point2, Vec2};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::mem;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// The fewest points a worker takes when an ungoverned bulk batch fans
/// its summary writes out ([`TenantEngine::ingest_bulk`]), so a batch
/// fans out from twice this size. A scoped spawn and join costs about
/// 9 µs, and a young stream about 1 µs a point (2-vCPU x86-64 host).
const WORKER_POINTS: usize = 512;

/// Identifies one tenant stream. Plain `u64` newtype: dense ids, hash
/// keys, and foreign keys from an upstream router all work unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for StreamId {
    fn from(v: u64) -> Self {
        StreamId(v)
    }
}

/// What the engine does when the global budget (or a bounded ingest
/// queue) cannot absorb more work after spilling idle streams.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Refuse the work with a typed [`AdmissionError`]. Nothing already
    /// admitted is touched; the caller decides what to drop.
    #[default]
    Reject,
    /// Evict the least-recently-touched tenants (and drop the oldest
    /// points of an over-long bulk batch) until the budget holds. The
    /// engine never errors; everything dropped is tallied.
    ShedOldest,
    /// Swap the coldest streams' backends for the cheaper fallback kind
    /// via a snapshot round-trip, honestly widening (or withdrawing) each
    /// victim's error bound; evicts as a last resort if even the degraded
    /// fleet cannot fit.
    DegradeToCoarser,
}

/// Why the engine refused work. Every variant is a recoverable value —
/// the no-panic zone's contract is that quota pressure and corruption
/// surface here, never as a crash.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionError {
    /// The registry already holds `limit` streams and the policy is
    /// [`OverloadPolicy::Reject`].
    StreamLimit {
        /// Configured `max_streams`.
        limit: usize,
    },
    /// The global byte budget is exhausted and spilling idle streams was
    /// not enough (policy [`OverloadPolicy::Reject`]).
    OverBudget {
        /// Bytes in use after spill relief.
        in_use: usize,
        /// The configured global budget.
        budget: usize,
    },
    /// This tenant's own byte cap is exhausted.
    TenantCap {
        /// The tenant at cap.
        stream: StreamId,
        /// Its current footprint.
        bytes: usize,
        /// The configured per-tenant cap.
        cap: usize,
    },
    /// The tenant's spilled state failed the hardened decode — it is
    /// quarantined and no longer serves until dropped.
    Quarantined {
        /// The poisoned tenant.
        stream: StreamId,
        /// What the decoder rejected.
        error: SnapshotError,
    },
    /// A bulk batch exceeded the bounded ingest queue under
    /// [`OverloadPolicy::Reject`]. Nothing from the batch was admitted.
    QueueFull {
        /// Points offered in the batch.
        offered: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The stream is not registered (query-path errors only; ingest
    /// registers on first touch).
    UnknownStream {
        /// The unknown id.
        stream: StreamId,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::StreamLimit { limit } => {
                write!(f, "stream registry full ({limit} streams)")
            }
            AdmissionError::OverBudget { in_use, budget } => {
                write!(
                    f,
                    "global budget exhausted ({in_use} B in use, budget {budget} B)"
                )
            }
            AdmissionError::TenantCap { stream, bytes, cap } => {
                write!(f, "tenant {stream} at cap ({bytes} B, cap {cap} B)")
            }
            AdmissionError::Quarantined { stream, error } => {
                write!(f, "tenant {stream} quarantined: {error}")
            }
            AdmissionError::QueueFull { offered, capacity } => {
                write!(
                    f,
                    "ingest queue full ({offered} points offered, capacity {capacity})"
                )
            }
            AdmissionError::UnknownStream { stream } => {
                write!(f, "unknown stream {stream}")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Where a tenant's state currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Live summary in memory.
    Hot,
    /// Spilled to a snapshot envelope; restores bit-exactly on touch.
    Cold,
    /// Its envelope failed the hardened decode; refuses to serve.
    Quarantined,
}

/// One resource event, in the order it happened (log bounded by
/// [`TenantConfig::with_event_capacity`]; overflow is counted, not kept).
#[derive(Clone, Debug)]
pub struct PressureEvent {
    /// The tenant involved.
    pub stream: StreamId,
    /// Engine clock when it happened.
    pub tick: u64,
    /// What happened.
    pub action: PressureAction,
}

/// What a [`PressureEvent`] records.
#[derive(Clone, Debug)]
pub enum PressureAction {
    /// Hot summary written out to a snapshot envelope.
    Spilled {
        /// Envelope size.
        bytes: usize,
    },
    /// Envelope decoded back to a hot summary.
    Restored {
        /// Envelope size.
        bytes: usize,
    },
    /// Points dropped by load shedding.
    ShedPoints {
        /// How many.
        points: u64,
    },
    /// The whole tenant evicted by [`OverloadPolicy::ShedOldest`] (or as
    /// the degrade ladder's last resort).
    Evicted {
        /// Points the evicted summary had consumed.
        seen: u64,
    },
    /// Backend swapped for the cheaper fallback kind.
    Degraded {
        /// Donor backend name.
        from: &'static str,
        /// Fallback backend name.
        to: &'static str,
    },
    /// Spilled state failed the hardened decode.
    Quarantined {
        /// The decode error.
        error: SnapshotError,
    },
    /// Work refused with a typed error under [`OverloadPolicy::Reject`].
    Rejected {
        /// Points refused.
        points: u64,
    },
}

/// Running tallies of everything the governor did — the resource-pressure
/// mirror of [`crate::recovery::RecoveryReport`]: exact
/// counts first, a bounded event log for the narrative.
#[derive(Clone, Debug, Default)]
pub struct PressureReport {
    /// Configured global budget (0 = unbounded).
    pub budget_bytes: usize,
    /// Accounted bytes at the time the report was taken.
    pub bytes_in_use: usize,
    /// High-water mark of accounted bytes.
    pub bytes_peak: usize,
    /// Streams in the hot tier when the report was taken.
    pub hot_streams: usize,
    /// Streams spilled cold when the report was taken.
    pub cold_streams: usize,
    /// Streams quarantined when the report was taken.
    pub quarantined_streams: usize,
    /// Streams ever admitted.
    pub streams_admitted: u64,
    /// Stream registrations refused ([`OverloadPolicy::Reject`]).
    pub streams_rejected: u64,
    /// Whole tenants evicted by shedding.
    pub streams_shed: u64,
    /// Tenants degraded to the fallback backend.
    pub streams_degraded: u64,
    /// Tenants quarantined by corrupt spills.
    pub streams_quarantined: u64,
    /// Finite points offered to admitted tenants (`== points_ingested +
    /// points_shed`, the exact-accounting invariant).
    pub points_seen: u64,
    /// Points actually fed to summaries.
    pub points_ingested: u64,
    /// Points dropped by load shedding.
    pub points_shed: u64,
    /// Points refused with a typed error (not counted in `points_seen`).
    pub points_rejected: u64,
    /// Hot → cold transitions.
    pub spills: u64,
    /// Cold → hot transitions.
    pub restores: u64,
    /// Total envelope bytes written by spills.
    pub spilled_bytes: u64,
    /// The governor's event trail, oldest first, bounded by
    /// [`TenantConfig::with_event_capacity`] (default 256); the
    /// [`telemetry`](crate::telemetry) module docs state what it keeps.
    pub events: Vec<PressureEvent>,
    /// Events the bounded trail did not keep.
    pub events_dropped: u64,
}

impl PressureReport {
    /// Writes this report's `streamhull_tenant_*` series into `scrape`,
    /// every one even at zero, summed into samples already there (so
    /// several engines' reports exported into one scrape add up).
    pub fn export_to(&self, scrape: &mut Scrape) {
        let counters = [
            (names::TENANT_POINTS_SEEN, self.points_seen),
            (names::TENANT_POINTS_INGESTED, self.points_ingested),
            (names::TENANT_POINTS_SHED, self.points_shed),
            (names::TENANT_POINTS_REJECTED, self.points_rejected),
            (names::TENANT_EVICTIONS, self.streams_shed),
            (names::TENANT_DEGRADATIONS, self.streams_degraded),
            (names::TENANT_QUARANTINES, self.streams_quarantined),
            (names::TENANT_EVENTS_DROPPED, self.events_dropped),
        ];
        for (name, n) in counters {
            scrape.add_counter(name, &[], n);
        }
        let streams = [
            ("admitted", self.streams_admitted),
            ("rejected", self.streams_rejected),
        ];
        for (outcome, n) in streams {
            scrape.add_counter(names::TENANT_STREAMS, &[("outcome", outcome)], n);
        }
        for (kind, n) in [("spill", self.spills), ("restore", self.restores)] {
            scrape.add_counter(names::TENANT_TIER_OPS, &[("kind", kind)], n);
        }
        let spill = [("kind", "spill")];
        scrape.add_counter(names::TENANT_TIER_BYTES, &spill, self.spilled_bytes);
        let gauges = [
            (names::TENANT_BYTES_IN_USE, self.bytes_in_use),
            (names::TENANT_BYTES_PEAK, self.bytes_peak),
            (names::TENANT_HOT_STREAMS, self.hot_streams),
            (names::TENANT_COLD_STREAMS, self.cold_streams),
            (names::TENANT_QUARANTINED_STREAMS, self.quarantined_streams),
        ];
        for (name, level) in gauges {
            scrape.add_gauge(name, &[], level as i64);
        }
    }

    /// `true` when resource pressure cost anything: points or streams
    /// shed, backends degraded, tenants quarantined, or work rejected.
    pub fn is_degraded(&self) -> bool {
        self.points_shed > 0
            || self.points_rejected > 0
            || self.streams_shed > 0
            || self.streams_rejected > 0
            || self.streams_degraded > 0
            || self.streams_quarantined > 0
    }
}

/// Per-tenant observability snapshot (cheap: no restore, no decode).
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct TenantStats {
    /// The tenant.
    pub stream: StreamId,
    /// Where its state lives right now.
    pub tier: Tier,
    /// Accounted footprint (hot: `approx_bytes`; cold: envelope length;
    /// quarantined: 0 — the poisoned envelope is dropped).
    pub bytes: usize,
    /// Finite points offered (`== ingested + shed`).
    pub seen: u64,
    /// Points fed to the summary.
    pub ingested: u64,
    /// Points dropped by shedding.
    pub shed: u64,
    /// Whether the backend was degraded to the fallback kind.
    pub degraded: bool,
    /// Engine clock at last touch.
    pub last_touch: u64,
}

/// Configuration for a [`TenantEngine`].
#[derive(Clone, Copy, Debug)]
pub struct TenantConfig {
    builder: SummaryBuilder,
    budget_bytes: usize,
    tenant_cap_bytes: usize,
    max_streams: usize,
    idle_ticks: u64,
    policy: OverloadPolicy,
    queue_points: usize,
    event_capacity: usize,
    telemetry: Telemetry,
}

impl TenantConfig {
    /// Governed engine over summaries built by `builder`, with everything
    /// unbounded and [`OverloadPolicy::Reject`] — budget-free by default,
    /// governed once you set caps. [`OverloadPolicy::DegradeToCoarser`]
    /// falls back to a radial histogram at a quarter of the builder's `r`
    /// (min 4): the cheapest backend in this crate that still carries a
    /// live `O(D/r)` error bound.
    pub fn new(builder: SummaryBuilder) -> Self {
        TenantConfig {
            builder,
            budget_bytes: 0,
            tenant_cap_bytes: 0,
            max_streams: 0,
            idle_ticks: 2,
            policy: OverloadPolicy::Reject,
            queue_points: 0,
            event_capacity: 256,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Global byte budget across all tenants, hot and cold (0 = unbounded).
    pub fn with_budget_bytes(mut self, bytes: usize) -> Self {
        self.budget_bytes = bytes;
        self
    }

    /// Per-tenant byte cap (0 = unbounded).
    pub fn with_tenant_cap_bytes(mut self, bytes: usize) -> Self {
        self.tenant_cap_bytes = bytes;
        self
    }

    /// Maximum registered streams (0 = unbounded).
    pub fn with_max_streams(mut self, n: usize) -> Self {
        self.max_streams = n;
        self
    }

    /// Ticks of idleness before [`TenantEngine::tick`] spills a hot
    /// stream (minimum 1).
    pub fn with_idle_ticks(mut self, ticks: u64) -> Self {
        self.idle_ticks = ticks.max(1);
        self
    }

    /// The overload policy.
    pub fn with_policy(mut self, policy: OverloadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bounded ingest queue: the most points one
    /// [`TenantEngine::ingest_bulk`] batch may carry (0 = unbounded).
    /// Overflow rejects or sheds oldest-first per the policy
    /// ([`OverloadPolicy::DegradeToCoarser`] treats the queue as advisory
    /// — it relieves memory, not arrival rate).
    pub fn with_queue_points(mut self, points: usize) -> Self {
        self.queue_points = points;
        self
    }

    /// Capacity of the [`PressureReport`] event log.
    pub fn with_event_capacity(mut self, events: usize) -> Self {
        self.event_capacity = events;
        self
    }

    /// Attaches a [`Telemetry`] registry, in which a
    /// [`QueryEngine`](crate::queries::QueryEngine) over the engine
    /// records its query instruments. The governor's tallies and events
    /// stay in the [`PressureReport`]; a scrape shows them once
    /// [`PressureReport::export_to`] writes them in.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The builder for new tenants.
    pub fn builder(&self) -> &SummaryBuilder {
        &self.builder
    }

    /// The global budget (0 = unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The overload policy.
    pub fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// The attached telemetry registry (disabled by default).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry
    }

    /// Whether a budget, a tenant cap or a stream limit is set: then one
    /// write's enforcement can spill, evict or degrade a tenant that a
    /// later write touches.
    fn governed(&self) -> bool {
        self.budget_bytes != 0 || self.tenant_cap_bytes != 0 || self.max_streams != 0
    }
}

enum Residency {
    Hot(Box<dyn Mergeable + Send + Sync>),
    Cold(Vec<u8>),
    Quarantined(SnapshotError),
}

impl fmt::Debug for Residency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Residency::Hot(s) => write!(f, "Hot({})", s.name()),
            Residency::Cold(b) => write!(f, "Cold({} B)", b.len()),
            Residency::Quarantined(e) => write!(f, "Quarantined({e})"),
        }
    }
}

#[derive(Debug)]
struct Tenant {
    id: StreamId,
    residency: Residency,
    /// Identity of the live summary *object*: stamped from the engine-wide
    /// monotone counter whenever the slot's summary is created or replaced
    /// (admission, cold→hot restore, write rollback, degradation). The
    /// serving layer keys caches on `(epoch, hull_generation)` — the
    /// generation counter alone may restart when a snapshot round trip or
    /// a rebuild replaces the object, but never within one epoch.
    epoch: u64,
    /// Accounted footprint; kept in lockstep with the engine totals.
    bytes: usize,
    last_touch: u64,
    seen: u64,
    ingested: u64,
    shed: u64,
    degraded: bool,
    /// How far the tenant's points may lie from the hull of the points its
    /// live summary ingested: the largest of the backfilled runs' bounds
    /// and, after a degrade, the donor's composed bound (parallel parts).
    /// `None` once a donor had no bound, so the composed bound is honestly
    /// withdrawn.
    carried_bound: Option<f64>,
}

/// What one write feeds a tenant: a batch of points, or a finished
/// supervised run to merge in.
#[derive(Clone, Copy)]
enum Feed<'a> {
    Points(&'a [Point2]),
    Run(&'a SupervisedRun),
}

/// The direction fans and sector tables an engine shares across its
/// tenants: one allocation per configuration, not per stream.
#[derive(Debug, Default)]
struct SharedTables {
    /// Shared frozen direction fans, one per `(r, seed)`.
    fans: HashMap<(u32, u64), Arc<[Vec2]>>,
    /// Shared radial sector tables, one per `r`.
    sectors: HashMap<u32, Arc<[(Vec2, bool)]>>,
}

impl SharedTables {
    /// Builds a summary for `builder`, sharing the frozen fan / radial
    /// sector table.
    fn build(&mut self, builder: &SummaryBuilder) -> Box<dyn Mergeable + Send + Sync> {
        match builder.kind() {
            SummaryKind::Frozen => {
                let key = (builder.r(), builder.seed());
                let fan = self
                    .fans
                    .entry(key)
                    .or_insert_with(|| builder.frozen_fan().into())
                    .clone();
                Box::new(FrozenHull::from_shared_units(fan))
            }
            SummaryKind::Radial => {
                let r = builder.r().max(4);
                let table = self
                    .sectors
                    .entry(r)
                    .or_insert_with(|| RadialHull::sector_bounds(r))
                    .clone();
                Box::new(RadialHull::with_shared_bounds(r, table))
            }
            _ => builder.build_mergeable(),
        }
    }

    /// Hardened decode with table re-interning: a restored frozen/radial
    /// summary's private fan or sector table is swapped for the shared
    /// allocation when bit-identical. Opens (and checksums) the envelope
    /// once; the errors are those of
    /// [`SummaryBuilder::restore`](crate::builder::SummaryBuilder::restore).
    fn decode(&self, bytes: &[u8]) -> Result<Box<dyn Mergeable + Send + Sync>, SnapshotError> {
        let (tag, payload) = snapshot::open(bytes)?;
        match snapshot::summary_kind(tag)? {
            SummaryKind::Frozen => {
                let mut f = snapshot::read_payload(payload, FrozenHull::from_snapshot_payload)?;
                for table in self.fans.values() {
                    f.intern_directions(table);
                }
                Ok(Box::new(f))
            }
            SummaryKind::Radial => {
                let mut h = snapshot::read_payload(payload, RadialHull::from_snapshot_payload)?;
                if let Some(table) = self.sectors.get(&h.r()) {
                    h.intern_bounds(table);
                }
                Ok(Box::new(h))
            }
            kind => snapshot::restore_payload(kind, payload),
        }
    }
}

/// The governed multi-tenant engine. See the [module docs](self) for the
/// full contract; in one sentence: millions of per-stream summaries in a
/// slab, under a byte budget that degrades gracefully instead of
/// crashing.
#[derive(Debug)]
pub struct TenantEngine {
    config: TenantConfig,
    /// Slab storage: stable indices, `free` recycles evicted slots.
    slots: Vec<Option<Tenant>>,
    free: Vec<usize>,
    /// Id → slot lookup on every write and every query: keyed FxHash
    /// (see [`crate::fxhash`]) — ~4x cheaper than SipHash on the u64 key,
    /// still per-engine seeded.
    index: HashMap<StreamId, usize, FxBuild>,
    tables: SharedTables,
    clock: u64,
    /// Source of [`Tenant::epoch`] stamps; see that field for the contract.
    next_epoch: u64,
    bytes_in_use: usize,
    hot: usize,
    cold: usize,
    quarantined: usize,
    report: PressureReport,
    /// Workers an ungoverned bulk batch may feed its summaries on: the
    /// host's available parallelism, read once (each read costs
    /// microseconds).
    threads: usize,
}

impl TenantEngine {
    /// Creates an engine from its configuration.
    pub fn new(config: TenantConfig) -> Self {
        let mut report = PressureReport {
            budget_bytes: config.budget_bytes,
            ..PressureReport::default()
        };
        report.events.reserve(config.event_capacity.min(4096));
        TenantEngine {
            config,
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            tables: SharedTables::default(),
            clock: 0,
            next_epoch: 0,
            bytes_in_use: 0,
            hot: 0,
            cold: 0,
            quarantined: 0,
            report,
            threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TenantConfig {
        &self.config
    }

    /// Registered streams (hot + cold + quarantined).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` when no streams are registered.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Hot (live in memory) streams.
    pub fn hot_count(&self) -> usize {
        self.hot
    }

    /// Cold (spilled) streams.
    pub fn cold_count(&self) -> usize {
        self.cold
    }

    /// Quarantined streams.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined
    }

    /// Accounted bytes across all tenants (hot summaries at
    /// `approx_bytes`, cold envelopes at their length).
    pub fn bytes_in_use(&self) -> usize {
        self.bytes_in_use
    }

    /// The engine clock (advanced by [`tick`](Self::tick) and once per
    /// [`ingest_bulk`](Self::ingest_bulk) batch it does not refuse).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: StreamId) -> bool {
        self.index.contains_key(&id)
    }

    /// All registered ids (arbitrary order; collect and sort for
    /// deterministic walks).
    pub fn ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.index.keys().copied()
    }

    /// Current tier of `id`, if registered.
    pub fn tier(&self, id: StreamId) -> Option<Tier> {
        let t = self.tenant(id)?;
        Some(match t.residency {
            Residency::Hot(_) => Tier::Hot,
            Residency::Cold(_) => Tier::Cold,
            Residency::Quarantined(_) => Tier::Quarantined,
        })
    }

    /// Per-tenant counters, if registered.
    pub fn stats(&self, id: StreamId) -> Option<TenantStats> {
        let t = self.tenant(id)?;
        Some(TenantStats {
            stream: t.id,
            tier: match t.residency {
                Residency::Hot(_) => Tier::Hot,
                Residency::Cold(_) => Tier::Cold,
                Residency::Quarantined(_) => Tier::Quarantined,
            },
            bytes: t.bytes,
            seen: t.seen,
            ingested: t.ingested,
            shed: t.shed,
            degraded: t.degraded,
            last_touch: t.last_touch,
        })
    }

    /// The report so far, with live byte and residency levels filled in.
    pub fn pressure_report(&self) -> PressureReport {
        let mut r = self.report.clone();
        r.bytes_in_use = self.bytes_in_use;
        r.budget_bytes = self.config.budget_bytes;
        r.hot_streams = self.hot;
        r.cold_streams = self.cold;
        r.quarantined_streams = self.quarantined;
        r
    }

    /// Feeds one point (registering the stream if new). Non-finite points
    /// are silently dropped — the summaries' own contract.
    pub fn insert(&mut self, id: StreamId, p: Point2) -> Result<(), AdmissionError> {
        self.write(id, Feed::Points(&[p]))
    }

    /// Feeds a batch into one stream (registering it if new).
    pub fn insert_batch(&mut self, id: StreamId, points: &[Point2]) -> Result<(), AdmissionError> {
        self.write(id, Feed::Points(points))
    }

    /// Bulk interleaved ingest: `(stream, point)` traffic in arrival
    /// order. Points are grouped per stream (first-appearance order, so
    /// the outcome is deterministic), the bounded queue policy is applied
    /// up front, and each group is then written as
    /// [`insert_batch`](Self::insert_batch) writes it, in that order.
    /// Under a shedding or degrading policy, per-stream failures (a
    /// quarantined tenant, the stream limit) shed that stream's points
    /// instead of failing the batch.
    ///
    /// A batch that is taken advances the idle clock by one. A refused
    /// batch returns its error with the clock unchanged: a
    /// [`QueueFull`](AdmissionError::QueueFull) batch has written
    /// nothing, and a write refused under [`OverloadPolicy::Reject`]
    /// leaves the groups before it written and the groups after it
    /// untouched.
    ///
    /// On an ungoverned engine (no budget, tenant cap or stream limit:
    /// the default configuration) the groups' writes commute, so a batch
    /// of 1,024 points or more runs the summaries' `insert_batch` calls
    /// on scoped threads, up to the host's available parallelism, and
    /// joins them before returning. Admission, restores, events and the
    /// ledger stay on the caller's thread in group order, so every result
    /// (summaries, epochs, events, `bytes_peak`) is the same for any
    /// number of workers.
    pub fn ingest_bulk(&mut self, traffic: &[(StreamId, Point2)]) -> Result<(), AdmissionError> {
        let finite_count = |pts: &[Point2]| pts.iter().filter(|p| p.is_finite()).count() as u64;
        let cap = self.config.queue_points;
        let mut start = 0;
        if cap != 0 && traffic.len() > cap {
            match self.config.policy {
                OverloadPolicy::Reject => {
                    // The whole batch is refused atomically, booked like
                    // any refusal: finite points, one event per stream.
                    for (id, pts) in Grouped::new(traffic).iter() {
                        let n = finite_count(pts);
                        if n > 0 {
                            self.report.points_rejected += n;
                            self.push_event(id, PressureAction::Rejected { points: n });
                        }
                    }
                    return Err(AdmissionError::QueueFull {
                        offered: traffic.len(),
                        capacity: cap,
                    });
                }
                OverloadPolicy::ShedOldest => {
                    // Shed the oldest points of the batch; tally them on
                    // their tenants (admitting cheaply where possible).
                    start = traffic.len() - cap;
                    for (id, pts) in Grouped::new(&traffic[..start]).iter() {
                        self.shed_points(id, finite_count(pts));
                    }
                }
                // Degrading relieves memory, not arrival rate: take the
                // whole batch.
                OverloadPolicy::DegradeToCoarser => {}
            }
        }
        let groups = Grouped::new(&traffic[start..]);
        if self.config.governed() {
            for (id, pts) in groups.iter() {
                match self.write(id, Feed::Points(pts)) {
                    Ok(()) => {}
                    Err(e) if self.config.policy == OverloadPolicy::Reject => return Err(e),
                    // Shedding/degrading engines never fail a bulk batch:
                    // the failing stream's points are shed and tallied.
                    Err(_) => self.shed_points(id, finite_count(pts)),
                }
            }
        } else {
            self.write_groups(&groups)?;
        }
        self.clock += 1;
        Ok(())
    }

    /// Advances the idle clock and spills every hot stream untouched for
    /// [`TenantConfig::with_idle_ticks`] ticks. Cost is one pass over the
    /// slab — call it between batches, not per point.
    pub fn tick(&mut self) {
        self.clock += 1;
        let idle = self.config.idle_ticks;
        let clock = self.clock;
        let victims: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let t = slot.as_ref()?;
                match t.residency {
                    Residency::Hot(_) if clock.saturating_sub(t.last_touch) >= idle => Some(i),
                    _ => None,
                }
            })
            .collect();
        for idx in victims {
            self.spill_slot(idx);
        }
    }

    /// Spills one stream to its snapshot envelope now (idempotent; `false`
    /// if unknown or not hot).
    pub fn spill(&mut self, id: StreamId) -> bool {
        match self.index.get(&id) {
            Some(&idx) => self.spill_slot_inner(idx, true),
            None => false,
        }
    }

    /// The spilled envelope of a cold stream (`None` when hot, unknown, or
    /// quarantined) — the chaos hooks' read side.
    pub fn spilled_bytes(&self, id: StreamId) -> Option<&[u8]> {
        match &self.tenant(id)?.residency {
            Residency::Cold(bytes) => Some(bytes),
            _ => None,
        }
    }

    /// Deterministic chaos hook: XORs `mask` into byte `offset` of `id`'s
    /// spilled envelope. `false` if the stream is not cold, `offset` is
    /// out of range, or `mask == 0` (a no-op flip would *not* corrupt).
    /// The next touch must then surface a typed decode error and
    /// quarantine exactly this tenant.
    pub fn corrupt_spill(&mut self, id: StreamId, offset: usize, mask: u8) -> bool {
        if mask == 0 {
            return false;
        }
        let Some(&idx) = self.index.get(&id) else {
            return false;
        };
        let Some(Some(t)) = self.slots.get_mut(idx) else {
            return false;
        };
        match &mut t.residency {
            Residency::Cold(bytes) => match bytes.get_mut(offset) {
                Some(b) => {
                    *b ^= mask;
                    true
                }
                None => false,
            },
            _ => false,
        }
    }

    /// Borrows a stream's summary, restoring it from its envelope first if
    /// cold (bit-exact) and touching its idle clock.
    pub fn summary(&mut self, id: StreamId) -> Result<&dyn HullSummary, AdmissionError> {
        let idx = self.lookup(id)?;
        self.make_hot(idx)?;
        self.touch(idx);
        match self.slots.get(idx).and_then(|s| s.as_ref()) {
            Some(Tenant {
                residency: Residency::Hot(s),
                ..
            }) => Ok(s.as_ref()),
            _ => Err(AdmissionError::UnknownStream { stream: id }),
        }
    }

    /// A stream's current hull (restores it if cold).
    pub fn hull(&mut self, id: StreamId) -> Result<ConvexPolygon, AdmissionError> {
        Ok(self.summary(id)?.hull())
    }

    /// The stream's cache-validation token: `(epoch, hull_generation)`.
    ///
    /// Two equal tokens guarantee the stream's hull is unchanged; any
    /// hull-affecting mutation advances the generation, and any
    /// replacement of the summary *object* (cold→hot restore, write
    /// rollback, degradation, re-admission after eviction) advances the
    /// epoch — so a restarted generation counter can never alias a stale
    /// token. A cold stream is restored first, which itself bumps the
    /// epoch.
    pub fn query_token(&mut self, id: StreamId) -> Result<(u64, u64), AdmissionError> {
        let idx = self.lookup(id)?;
        self.make_hot(idx)?;
        self.touch(idx);
        match self.slots.get(idx).and_then(|s| s.as_ref()) {
            Some(Tenant {
                residency: Residency::Hot(s),
                epoch,
                ..
            }) => Ok((*epoch, s.hull_generation())),
            _ => Err(AdmissionError::UnknownStream { stream: id }),
        }
    }

    /// The tenant-facing error bound: the bound carried from degradations
    /// and backfills, then the live summary's own bound — `None` when
    /// either side offers no guarantee (degrading *widens* the bound, it
    /// never invents one).
    pub fn error_bound(&mut self, id: StreamId) -> Result<Option<f64>, AdmissionError> {
        let idx = self.lookup(id)?;
        self.make_hot(idx)?;
        match self.slots.get(idx).and_then(|s| s.as_ref()) {
            Some(t) => {
                let own = match &t.residency {
                    Residency::Hot(s) => s.error_bound(),
                    _ => None,
                };
                Ok(chain_bound([t.carried_bound, own]))
            }
            None => Err(AdmissionError::UnknownStream { stream: id }),
        }
    }

    /// Backfills `id` (registering it if new) from a finished supervised
    /// run: the run's merged summary is merged into the tenant, the
    /// tenant's carried bound becomes the larger of itself and the run's
    /// composed [`error_bound`](SupervisedRun::error_bound) (or is
    /// withdrawn when the run has none), and the points the run lost are
    /// tallied as shed.
    ///
    /// This is the engine's single write path, the one behind
    /// [`insert_batch`](Self::insert_batch): the run's points are gated,
    /// capped, and budgeted like any batch, and a refused backfill is never
    /// half-taken — under [`OverloadPolicy::Reject`] the merge is rolled
    /// back bit-exactly (a new id is unregistered again) and the run's
    /// points are counted as rejected.
    pub fn absorb(&mut self, id: StreamId, run: &SupervisedRun) -> Result<(), AdmissionError> {
        self.write(id, Feed::Run(run))
    }

    /// Drops a stream entirely (any tier — including quarantined, which is
    /// how an operator clears a poisoned tenant). Returns its final stats.
    pub fn remove(&mut self, id: StreamId) -> Option<TenantStats> {
        let stats = self.stats(id)?;
        let idx = self.index.remove(&id)?;
        if let Some(slot) = self.slots.get_mut(idx) {
            if let Some(t) = slot.take() {
                self.bytes_in_use -= t.bytes;
                match t.residency {
                    Residency::Hot(_) => self.hot -= 1,
                    Residency::Cold(_) => self.cold -= 1,
                    Residency::Quarantined(_) => self.quarantined -= 1,
                }
            }
            self.free.push(idx);
        }
        Some(stats)
    }

    // ---- internals -----------------------------------------------------

    fn tenant(&self, id: StreamId) -> Option<&Tenant> {
        let &idx = self.index.get(&id)?;
        self.slots.get(idx)?.as_ref()
    }

    fn lookup(&self, id: StreamId) -> Result<usize, AdmissionError> {
        self.index
            .get(&id)
            .copied()
            .ok_or(AdmissionError::UnknownStream { stream: id })
    }

    fn note_peak(&mut self) {
        if self.bytes_in_use > self.report.bytes_peak {
            self.report.bytes_peak = self.bytes_in_use;
        }
    }

    fn touch(&mut self, idx: usize) {
        let clock = self.clock;
        if let Some(Some(t)) = self.slots.get_mut(idx) {
            t.last_touch = clock;
        }
    }

    /// The next summary-object epoch (engine-wide monotone, never reused
    /// — a re-admitted stream id can't alias an evicted tenant's epoch).
    fn fresh_epoch(&mut self) -> u64 {
        let e = self.next_epoch;
        self.next_epoch += 1;
        e
    }

    fn push_event(&mut self, stream: StreamId, action: PressureAction) {
        if self.report.events.len() < self.config.event_capacity {
            let tick = self.clock;
            self.report.events.push(PressureEvent {
                stream,
                tick,
                action,
            });
        } else {
            self.report.events_dropped += 1;
        }
    }

    /// Slot of `id`, registering a fresh tenant if new. Respects
    /// `max_streams` (under a shedding policy the coldest tenant makes
    /// room; under `Reject` the registration errors).
    fn admit(&mut self, id: StreamId) -> Result<usize, AdmissionError> {
        if let Some(&idx) = self.index.get(&id) {
            return Ok(idx);
        }
        let limit = self.config.max_streams;
        if limit != 0 && self.index.len() >= limit {
            match self.config.policy {
                OverloadPolicy::Reject => {
                    self.report.streams_rejected += 1;
                    self.push_event(id, PressureAction::Rejected { points: 0 });
                    return Err(AdmissionError::StreamLimit { limit });
                }
                _ => {
                    // Make room: evict the least-recently-touched tenant.
                    if let Some(victim) = self.coldest() {
                        self.evict_slot(victim);
                    }
                }
            }
        }
        let builder = self.config.builder;
        let summary = self.tables.build(&builder);
        let bytes = summary.approx_bytes();
        let epoch = self.fresh_epoch();
        let tenant = Tenant {
            id,
            residency: Residency::Hot(summary),
            epoch,
            bytes,
            last_touch: self.clock,
            seen: 0,
            ingested: 0,
            shed: 0,
            degraded: false,
            carried_bound: Some(0.0),
        };
        let idx = match self.free.pop() {
            Some(i) => {
                if let Some(slot) = self.slots.get_mut(i) {
                    *slot = Some(tenant);
                }
                i
            }
            None => {
                self.slots.push(Some(tenant));
                self.slots.len() - 1
            }
        };
        self.index.insert(id, idx);
        self.hot += 1;
        self.bytes_in_use += bytes;
        self.report.streams_admitted += 1;
        self.note_peak();
        Ok(idx)
    }

    /// Hot → cold. `true` if a spill happened.
    fn spill_slot(&mut self, idx: usize) -> bool {
        self.spill_slot_inner(idx, false)
    }

    /// `force: false` refuses counterproductive spills: a tiny summary's
    /// envelope can be *larger* than its live footprint, and an
    /// engine-initiated spill (idle tick, budget relief) that grows
    /// `bytes_in_use` would let a tick breach the budget with no write to
    /// answer for it. The explicit [`TenantEngine::spill`] hook forces the
    /// spill anyway (the chaos tests need a cold envelope to corrupt).
    fn spill_slot_inner(&mut self, idx: usize, force: bool) -> bool {
        let Some(Some(t)) = self.slots.get_mut(idx) else {
            return false;
        };
        let Residency::Hot(s) = &t.residency else {
            return false;
        };
        let envelope = s.encode_snapshot();
        let env_len = envelope.len();
        let freed = t.bytes;
        if !force && env_len >= freed {
            return false;
        }
        t.residency = Residency::Cold(envelope);
        t.bytes = env_len;
        let id = t.id;
        self.hot -= 1;
        self.cold += 1;
        self.bytes_in_use = self.bytes_in_use + env_len - freed;
        self.report.spills += 1;
        self.report.spilled_bytes += env_len as u64;
        self.note_peak();
        self.push_event(id, PressureAction::Spilled { bytes: env_len });
        true
    }

    /// Cold → hot (bit-exact), quarantining the tenant on a failed decode.
    fn make_hot(&mut self, idx: usize) -> Result<(), AdmissionError> {
        // Decode straight from the stored envelope; replacing the
        // residency below drops it.
        let (id, env_len, decoded) = match self.slots.get(idx).and_then(|s| s.as_ref()) {
            Some(t) => match &t.residency {
                Residency::Hot(_) => return Ok(()),
                Residency::Quarantined(e) => {
                    return Err(AdmissionError::Quarantined {
                        stream: t.id,
                        error: e.clone(),
                    })
                }
                Residency::Cold(bytes) => (t.id, bytes.len(), self.tables.decode(bytes)),
            },
            None => {
                return Err(AdmissionError::UnknownStream {
                    stream: StreamId(u64::MAX),
                })
            }
        };
        match decoded {
            Ok(summary) => {
                let live = summary.approx_bytes();
                let epoch = self.fresh_epoch();
                if let Some(Some(t)) = self.slots.get_mut(idx) {
                    t.residency = Residency::Hot(summary);
                    t.epoch = epoch;
                    self.bytes_in_use = self.bytes_in_use + live - t.bytes;
                    t.bytes = live;
                }
                self.cold -= 1;
                self.hot += 1;
                self.report.restores += 1;
                self.note_peak();
                self.push_event(id, PressureAction::Restored { bytes: env_len });
                Ok(())
            }
            Err(error) => {
                // Quarantine exactly this tenant: drop the poisoned
                // envelope, keep the error, keep serving everyone else.
                if let Some(Some(t)) = self.slots.get_mut(idx) {
                    self.bytes_in_use -= t.bytes;
                    t.bytes = 0;
                    t.residency = Residency::Quarantined(error.clone());
                }
                self.cold -= 1;
                self.quarantined += 1;
                self.report.streams_quarantined += 1;
                self.push_event(
                    id,
                    PressureAction::Quarantined {
                        error: error.clone(),
                    },
                );
                Err(AdmissionError::Quarantined { stream: id, error })
            }
        }
    }

    /// Records `n` finite points offered to `id` as shed (admitting the
    /// tenant best-effort so the per-tenant ledger stays exact).
    fn shed_points(&mut self, id: StreamId, n: u64) {
        if n == 0 {
            return;
        }
        if let Ok(idx) = self.admit(id) {
            if let Some(Some(t)) = self.slots.get_mut(idx) {
                t.seen += n;
                t.shed += n;
            }
        }
        self.report.points_seen += n;
        self.report.points_shed += n;
        self.push_event(id, PressureAction::ShedPoints { points: n });
    }

    /// The single write path behind `insert`/`insert_batch`/`ingest_bulk`
    /// and `absorb`.
    fn write(&mut self, id: StreamId, feed: Feed<'_>) -> Result<(), AdmissionError> {
        // Non-finite points are silently dropped up front — the same
        // contract every summary honours — so the engine ledger counts
        // finite points only and `seen == ingested + shed` stays exact.
        let finite;
        let feed = match feed {
            Feed::Points(points) => {
                finite = finite_points(points);
                Feed::Points(&finite)
            }
            feed => feed,
        };
        // `n` points enter the summary if the write is kept; a run's lost
        // points never reach it and are shed instead.
        let (n, lost) = match feed {
            Feed::Points(points) => (points.len() as u64, 0),
            Feed::Run(run) => (run.run.summary.points_seen(), run.report.lost_points),
        };
        // Reject-policy engines gate *before* mutating: once at budget (and
        // spilling cannot relieve), the points are refused, not half-taken.
        if self.config.policy == OverloadPolicy::Reject && self.over_budget() {
            self.spill_coldest_until_under();
            if self.over_budget() {
                self.report.points_rejected += n;
                self.push_event(id, PressureAction::Rejected { points: n });
                return Err(AdmissionError::OverBudget {
                    in_use: self.bytes_in_use,
                    budget: self.config.budget_bytes,
                });
            }
        }
        let was_known = self.index.contains_key(&id);
        let idx = self.admit(id)?;
        // Per-tenant cap gate.
        let cap = self.config.tenant_cap_bytes;
        if cap != 0 {
            let at_cap = match self.slots.get(idx).and_then(|s| s.as_ref()) {
                Some(t) => t.bytes >= cap,
                None => false,
            };
            if at_cap {
                match self.config.policy {
                    OverloadPolicy::Reject => {
                        let bytes = self.slots.get(idx).and_then(|s| s.as_ref());
                        let bytes = bytes.map(|t| t.bytes).unwrap_or(0);
                        self.report.points_rejected += n;
                        self.push_event(id, PressureAction::Rejected { points: n });
                        return Err(AdmissionError::TenantCap {
                            stream: id,
                            bytes,
                            cap,
                        });
                    }
                    OverloadPolicy::ShedOldest => {
                        self.shed_points(id, n + lost);
                        self.touch(idx);
                        return Ok(());
                    }
                    OverloadPolicy::DegradeToCoarser => {
                        self.degrade_slot(idx);
                        let still = match self.slots.get(idx).and_then(|s| s.as_ref()) {
                            Some(t) => t.bytes >= cap,
                            None => false,
                        };
                        if still {
                            self.shed_points(id, n + lost);
                            self.touch(idx);
                            return Ok(());
                        }
                    }
                }
            }
        }
        let was_cold = matches!(
            self.slots
                .get(idx)
                .and_then(|s| s.as_ref())
                .map(|t| &t.residency),
            Some(Residency::Cold(_))
        );
        self.make_hot(idx)?;
        // A Reject-policy engine may only discover the breach *after* the
        // summary absorbed the batch (growth is not predictable up front),
        // so it keeps a pre-write envelope and undoes the whole write —
        // bit-exactly, restores being lossless — when enforcement fails.
        let undo = if self.config.policy == OverloadPolicy::Reject
            && self.config.budget_bytes != 0
            && was_known
        {
            match self.slots.get(idx).and_then(|s| s.as_ref()) {
                Some(t) => match &t.residency {
                    Residency::Hot(s) => Some(s.encode_snapshot()),
                    _ => None,
                },
                None => None,
            }
        } else {
            None
        };
        if let Some(Some(t)) = self.slots.get_mut(idx) {
            if let Residency::Hot(s) = &mut t.residency {
                let before = t.bytes;
                match feed {
                    Feed::Points(points) => s.insert_batch(points),
                    Feed::Run(run) => s.merge_from(&*run.run.summary),
                }
                let after = s.approx_bytes();
                t.bytes = after;
                t.seen += n;
                t.ingested += n;
                self.bytes_in_use = self.bytes_in_use + after - before;
            }
        }
        self.touch(idx);
        self.report.points_seen += n;
        self.report.points_ingested += n;
        self.note_peak();
        match self.enforce_budget(Some(idx)) {
            Ok(()) => {
                if let Feed::Run(run) = feed {
                    self.settle_run(id, run);
                }
                Ok(())
            }
            Err(e) => {
                let rolled_back = if was_known {
                    match &undo {
                        Some(envelope) => self.unwrite(idx, envelope, was_cold, n),
                        None => false,
                    }
                } else {
                    self.forget_admission(id, n)
                };
                if rolled_back {
                    Err(AdmissionError::OverBudget {
                        in_use: self.bytes_in_use,
                        budget: self.config.budget_bytes,
                    })
                } else {
                    Err(e)
                }
            }
        }
    }

    /// An ungoverned engine's bulk writes, in three phases. With no
    /// budget, cap or stream limit, a write touches only its own tenant
    /// and the ledger's sums, so the groups' summary writes commute:
    ///
    /// 1. on the caller's thread, in group order, each tenant is admitted
    ///    and restored exactly as [`write`](Self::write) does it (epochs,
    ///    events, quarantines), and its summary is moved out of its slot;
    ///    a refused group stops the batch under `Reject` and is shed
    ///    otherwise;
    /// 2. [`insert_groups`] feeds every summary its group;
    /// 3. back in group order, each summary returns to its slot and the
    ///    ledger is booked, replaying the byte trajectory of group-by-group
    ///    writes so that `bytes_peak` is theirs as well.
    fn write_groups(&mut self, groups: &Grouped) -> Result<(), AdmissionError> {
        let (bytes, peak) = (self.bytes_in_use, self.report.bytes_peak);
        let mut writes = Vec::with_capacity(groups.groups.len());
        let mut refused = Ok(());
        for (id, pts) in groups.iter() {
            let before = self.bytes_in_use;
            let taken = self.take_for_write(id);
            let mut write = GroupWrite {
                points: finite_points(pts),
                prepared: self.bytes_in_use as isize - before as isize,
                summary: None,
                bytes: 0,
            };
            match taken {
                Ok(summary) => write.summary = Some(summary),
                Err(e) if self.config.policy == OverloadPolicy::Reject => refused = Err(e),
                Err(_) => self.shed_points(id, write.points.len() as u64),
            }
            writes.push(write);
            if refused.is_err() {
                break;
            }
        }
        insert_groups(&mut writes, self.threads);
        self.bytes_in_use = bytes;
        self.report.bytes_peak = peak;
        for write in writes {
            self.bytes_in_use = self.bytes_in_use.saturating_add_signed(write.prepared);
            self.note_peak();
            let Some((idx, summary)) = write.summary else {
                continue;
            };
            let n = write.points.len() as u64;
            if let Some(Some(t)) = self.slots.get_mut(idx) {
                t.residency = Residency::Hot(summary);
                self.bytes_in_use = self.bytes_in_use + write.bytes - t.bytes;
                t.bytes = write.bytes;
                t.seen += n;
                t.ingested += n;
                t.last_touch = self.clock;
            }
            self.report.points_seen += n;
            self.report.points_ingested += n;
            self.note_peak();
        }
        refused
    }

    /// Phase 1 of [`write_groups`](Self::write_groups) for one tenant:
    /// admits and restores it, then moves its summary out of its slot
    /// (an empty envelope holds the place until phase 3 puts it back).
    fn take_for_write(
        &mut self,
        id: StreamId,
    ) -> Result<(usize, Box<dyn Mergeable + Send + Sync>), AdmissionError> {
        let idx = self.admit(id)?;
        self.make_hot(idx)?;
        let t = self.slots.get_mut(idx).and_then(Option::as_mut);
        let t = t.ok_or(AdmissionError::UnknownStream { stream: id })?;
        match mem::replace(&mut t.residency, Residency::Cold(Vec::new())) {
            Residency::Hot(summary) => Ok((idx, summary)),
            other => {
                t.residency = other;
                Err(AdmissionError::UnknownStream { stream: id })
            }
        }
    }

    /// Books a kept backfill: the run is one more parallel part, so the
    /// carried bound becomes the larger of itself and the run's composed
    /// bound (or is withdrawn when the run has none), and the points the
    /// run lost are tallied as shed. Overload relief may have evicted the
    /// tenant by now; the report still counts the lost points.
    fn settle_run(&mut self, id: StreamId, run: &SupervisedRun) {
        let bound = run.error_bound();
        let lost = run.report.lost_points;
        if let Some(&idx) = self.index.get(&id) {
            if let Some(Some(t)) = self.slots.get_mut(idx) {
                t.carried_bound = parallel_bound([t.carried_bound, bound]);
                t.seen += lost;
                t.shed += lost;
            }
        }
        if lost > 0 {
            self.report.points_seen += lost;
            self.report.points_shed += lost;
            self.push_event(id, PressureAction::ShedPoints { points: lost });
        }
    }

    /// Undoes one rejected write by restoring the tenant's pre-write
    /// state (bit-exact: the hot summary decoded from the envelope, or
    /// the envelope itself if the tenant was cold before the write) and
    /// withdrawing the write's ledger entries, re-recording the points as
    /// rejected. `false` (nothing undone) only if the pre-write envelope
    /// fails to decode — it was encoded from live state moments ago, so
    /// that path is effectively unreachable, and the engine then keeps
    /// the ingested state rather than corrupt it.
    fn unwrite(&mut self, idx: usize, envelope: &[u8], was_cold: bool, n: u64) -> bool {
        let summary = if was_cold {
            None
        } else {
            match self.tables.decode(envelope) {
                Ok(s) => Some(s),
                Err(_) => return false,
            }
        };
        let epoch = self.fresh_epoch();
        let Some(Some(t)) = self.slots.get_mut(idx) else {
            return false;
        };
        let id = t.id;
        let before = t.bytes;
        let currently_cold = matches!(t.residency, Residency::Cold(_));
        let after = match summary {
            // Hot before the write: back to the decoded pre-write summary.
            Some(s) => {
                if currently_cold {
                    self.cold -= 1;
                    self.hot += 1;
                }
                let after = s.approx_bytes();
                t.residency = Residency::Hot(s);
                t.epoch = epoch;
                after
            }
            // Cold before the write: back to the envelope, so the restore
            // the write forced does not leak footprint past the refusal.
            None => {
                if !currently_cold {
                    self.hot -= 1;
                    self.cold += 1;
                }
                t.residency = Residency::Cold(envelope.to_vec());
                envelope.len()
            }
        };
        t.bytes = after;
        t.seen -= n;
        t.ingested -= n;
        self.bytes_in_use = self.bytes_in_use + after - before;
        self.report.points_seen -= n;
        self.report.points_ingested -= n;
        self.report.points_rejected += n;
        self.push_event(id, PressureAction::Rejected { points: n });
        true
    }

    /// Undoes a rejected write that also admitted `id`: the slot goes away
    /// entirely, so a refused first write leaves no half-admitted tenant.
    fn forget_admission(&mut self, id: StreamId, n: u64) -> bool {
        if self.config.policy != OverloadPolicy::Reject {
            return false;
        }
        if self.remove(id).is_none() {
            return false;
        }
        self.report.streams_admitted = self.report.streams_admitted.saturating_sub(1);
        self.report.points_seen -= n;
        self.report.points_ingested -= n;
        self.report.points_rejected += n;
        self.push_event(id, PressureAction::Rejected { points: n });
        true
    }

    fn over_budget(&self) -> bool {
        let budget = self.config.budget_bytes;
        budget != 0 && self.bytes_in_use > budget
    }

    /// Spill relief low-water mark: an eighth of hysteresis below the
    /// budget, so relief is not re-triggered by the very next write.
    fn low_water(&self) -> usize {
        let b = self.config.budget_bytes;
        b.saturating_sub(b / 8)
    }

    /// Tenants in coldness order (least-recently-touched first; id breaks
    /// ties, so the order — and everything the governor does — is
    /// deterministic).
    fn coldness_order(&self) -> Vec<usize> {
        let mut order: Vec<(u64, u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|t| (t.last_touch, t.id.0, i)))
            .collect();
        order.sort_unstable();
        order.into_iter().map(|(_, _, i)| i).collect()
    }

    fn coldest(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|t| (t.last_touch, t.id.0, i)))
            .min()
            .map(|(_, _, i)| i)
    }

    fn spill_coldest_until_under(&mut self) {
        let target = self.low_water();
        if self.bytes_in_use <= target {
            return;
        }
        for idx in self.coldness_order() {
            if self.bytes_in_use <= target {
                break;
            }
            self.spill_slot(idx);
        }
    }

    fn evict_slot(&mut self, idx: usize) {
        let Some(Some(t)) = self.slots.get_mut(idx) else {
            return;
        };
        let id = t.id;
        let seen = t.seen;
        self.push_event(id, PressureAction::Evicted { seen });
        self.report.streams_shed += 1;
        self.remove(id);
    }

    /// Swaps a tenant's backend for the degrade fallback (a radial
    /// histogram at a quarter of the configured `r`, min 4) via an
    /// in-memory merge (sample round-trip). The round trip is one more
    /// stage, so the carried bound becomes the donor's composed bound at
    /// hand-off — or is withdrawn when the donor has none. `true` if the
    /// tenant was degraded by this call.
    fn degrade_slot(&mut self, idx: usize) -> bool {
        let already = match self.slots.get(idx).and_then(|s| s.as_ref()) {
            Some(t) => t.degraded,
            None => true,
        };
        if already || self.make_hot(idx).is_err() {
            return false;
        }
        let fallback_r = (self.config.builder.r() / 4).max(4);
        let mut coarse = self
            .tables
            .build(&SummaryBuilder::new(SummaryKind::Radial).with_r(fallback_r));
        let epoch = self.fresh_epoch();
        let Some(Some(t)) = self.slots.get_mut(idx) else {
            return false;
        };
        let Residency::Hot(old) = &t.residency else {
            return false;
        };
        let from = old.name();
        let donor_bound = chain_bound([t.carried_bound, old.error_bound()]);
        coarse.merge_from(&**old);
        let to = coarse.name();
        let before = t.bytes;
        let after = coarse.approx_bytes();
        t.residency = Residency::Hot(coarse);
        t.epoch = epoch;
        t.bytes = after;
        t.degraded = true;
        t.carried_bound = donor_bound;
        let id = t.id;
        self.bytes_in_use = self.bytes_in_use + after - before;
        self.report.streams_degraded += 1;
        self.note_peak();
        self.push_event(id, PressureAction::Degraded { from, to });
        true
    }

    /// The graceful-degradation ladder, run after every write: spill idle
    /// state first (free — restores are bit-exact), then apply the policy:
    /// `Reject` errors, `ShedOldest` evicts coldest-first, and
    /// `DegradeToCoarser` swaps backends coldest-first, evicting only if
    /// even the fully degraded fleet cannot fit. On success the engine is
    /// at or under budget.
    fn enforce_budget(&mut self, keep: Option<usize>) -> Result<(), AdmissionError> {
        if !self.over_budget() {
            return Ok(());
        }
        self.spill_coldest_until_under();
        if !self.over_budget() {
            return Ok(());
        }
        let target = self.low_water();
        match self.config.policy {
            OverloadPolicy::Reject => Err(AdmissionError::OverBudget {
                in_use: self.bytes_in_use,
                budget: self.config.budget_bytes,
            }),
            OverloadPolicy::ShedOldest => {
                for idx in self.coldness_order() {
                    if self.bytes_in_use <= target {
                        break;
                    }
                    if Some(idx) == keep {
                        continue;
                    }
                    self.evict_slot(idx);
                }
                // Last resort: the active tenant alone exceeds the budget.
                if self.over_budget() {
                    if let Some(idx) = keep {
                        self.evict_slot(idx);
                    }
                }
                Ok(())
            }
            OverloadPolicy::DegradeToCoarser => {
                for idx in self.coldness_order() {
                    if self.bytes_in_use <= target {
                        break;
                    }
                    self.degrade_slot(idx);
                    self.spill_slot(idx);
                }
                if self.over_budget() {
                    // Even the degraded fleet cannot fit: shed.
                    for idx in self.coldness_order() {
                        if self.bytes_in_use <= target {
                            break;
                        }
                        if Some(idx) == keep {
                            continue;
                        }
                        self.evict_slot(idx);
                    }
                    if self.over_budget() {
                        if let Some(idx) = keep {
                            self.evict_slot(idx);
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// `(stream, point)` traffic grouped per stream in first-appearance order,
/// so admission, eviction, shedding and the event log follow the batch.
/// A counting sort over a keyed FxHash index lays the groups back to back
/// in one point buffer: a batch costs a few allocations, not one per
/// stream.
struct Grouped {
    /// Each stream with the end of its group in `points`.
    groups: Vec<(StreamId, usize)>,
    points: Vec<Point2>,
}

impl Grouped {
    fn new(traffic: &[(StreamId, Point2)]) -> Self {
        let mut slot: HashMap<StreamId, usize, FxBuild> = HashMap::default();
        // Each stream's point count, then its group's start, then its end.
        let mut groups: Vec<(StreamId, usize)> = Vec::new();
        let mut which = Vec::with_capacity(traffic.len());
        for &(id, _) in traffic {
            let g = *slot.entry(id).or_insert_with(|| {
                groups.push((id, 0));
                groups.len() - 1
            });
            groups[g].1 += 1;
            which.push(g);
        }
        let mut start = 0;
        for group in &mut groups {
            let count = group.1;
            group.1 = start;
            start += count;
        }
        let mut points = vec![Point2::ORIGIN; traffic.len()];
        for (&(_, p), &g) in traffic.iter().zip(&which) {
            points[groups[g].1] = p;
            groups[g].1 += 1;
        }
        Grouped { groups, points }
    }

    /// The groups in first-appearance order.
    fn iter(&self) -> impl Iterator<Item = (StreamId, &[Point2])> {
        let mut start = 0;
        self.groups.iter().map(move |&(id, end)| {
            let points = &self.points[start..end];
            start = end;
            (id, points)
        })
    }
}

/// One group of an ungoverned bulk batch
/// ([`TenantEngine::write_groups`]).
struct GroupWrite<'a> {
    /// The group's finite points.
    points: Cow<'a, [Point2]>,
    /// What admitting or restoring the tenant did to `bytes_in_use`
    /// (negative when a failed restore dropped its envelope).
    prepared: isize,
    /// The tenant's slot and its summary, moved out for the insert;
    /// `None` when the group was refused or shed.
    summary: Option<(usize, Box<dyn Mergeable + Send + Sync>)>,
    /// The summary's `approx_bytes` after the insert.
    bytes: usize,
}

/// Phase 2 of [`TenantEngine::write_groups`]: every summary's
/// `insert_batch` and `approx_bytes`. The groups are cut into contiguous
/// runs of about equal point counts, one per worker and each of at least
/// [`WORKER_POINTS`] points; the caller's thread takes the first run and
/// scoped threads the others. Every summary is written by one thread in
/// its group's order, so the result does not depend on the cut.
fn insert_groups(writes: &mut [GroupWrite<'_>], threads: usize) {
    fn insert(run: &mut [GroupWrite<'_>]) {
        for write in run {
            if let Some((_, summary)) = &mut write.summary {
                summary.insert_batch(&write.points);
                write.bytes = summary.approx_bytes();
            }
        }
    }
    let points: usize = writes.iter().map(|w| w.points.len()).sum();
    let workers = threads.min(points / WORKER_POINTS);
    if workers < 2 {
        insert(writes);
        return;
    }
    let share = points.div_ceil(workers);
    let mut runs = Vec::with_capacity(workers);
    let mut rest = writes;
    while !rest.is_empty() {
        let (mut cut, mut taken) = (0, 0);
        while cut < rest.len() && taken < share {
            taken += rest[cut].points.len();
            cut += 1;
        }
        let (run, tail) = mem::take(&mut rest).split_at_mut(cut);
        runs.push(run);
        rest = tail;
    }
    let mut runs = runs.into_iter();
    std::thread::scope(|scope| {
        let first = runs.next();
        let workers: Vec<_> = runs.map(|run| scope.spawn(move || insert(run))).collect();
        if let Some(run) = first {
            insert(run);
        }
        for worker in workers {
            worker.join().expect("tenant insert worker panicked"); // lint:allow(no-panic): re-raising a worker panic on the caller is the only sound way to surface it
        }
    });
}

/// `points` without its non-finite ones (borrowed when all are finite):
/// what every summary keeps of a batch, so the ledger counts it exactly.
fn finite_points(points: &[Point2]) -> Cow<'_, [Point2]> {
    if points.iter().all(|p| p.is_finite()) {
        Cow::Borrowed(points)
    } else {
        Cow::Owned(points.iter().copied().filter(|p| p.is_finite()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, cx: f64, cy: f64, r: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = core::f64::consts::TAU * i as f64 / n as f64;
                Point2::new(cx + r * t.cos(), cy + r * t.sin())
            })
            .collect()
    }

    fn engine(kind: SummaryKind) -> TenantEngine {
        TenantEngine::new(TenantConfig::new(SummaryBuilder::new(kind).with_r(16)))
    }

    #[test]
    fn ingest_and_query_roundtrip() {
        let mut e = engine(SummaryKind::Adaptive);
        e.insert_batch(StreamId(7), &ring(100, 0.0, 0.0, 2.0))
            .unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e.tier(StreamId(7)), Some(Tier::Hot));
        let s = e.stats(StreamId(7)).unwrap();
        assert_eq!(s.seen, 100);
        assert_eq!(s.ingested, 100);
        assert_eq!(s.shed, 0);
        assert!(e.hull(StreamId(7)).unwrap().len() >= 3);
        assert!(e.error_bound(StreamId(7)).unwrap().is_some());
    }

    #[test]
    fn non_finite_points_not_counted() {
        let mut e = engine(SummaryKind::Exact);
        e.insert_batch(
            StreamId(1),
            &[
                Point2::new(0.0, 0.0),
                Point2::new(f64::NAN, 1.0),
                Point2::new(1.0, f64::INFINITY),
                Point2::new(2.0, 2.0),
            ],
        )
        .unwrap();
        let s = e.stats(StreamId(1)).unwrap();
        assert_eq!(s.seen, 2);
        assert_eq!(s.ingested, 2);
    }

    #[test]
    fn shared_tables_one_allocation_per_config() {
        // 50 radial tenants: the sector table is charged to none of them
        // once shared, so per-tenant cost is near the bucket array alone.
        let mut e = engine(SummaryKind::Radial);
        for i in 0..50 {
            e.insert_batch(StreamId(i), &ring(8, i as f64, 0.0, 1.0))
                .unwrap();
        }
        let solo = {
            let h = RadialHull::new(16);
            h.approx_bytes()
        };
        let shared = e.stats(StreamId(0)).unwrap().bytes;
        assert!(
            shared < solo,
            "shared-table tenant ({shared} B) should be cheaper than solo ({solo} B)"
        );
    }

    #[test]
    fn idle_tick_spills_and_restores_bit_exactly() {
        let mut e = engine(SummaryKind::Adaptive);
        let pts = ring(200, 1.0, -2.0, 3.0);
        e.insert_batch(StreamId(1), &pts).unwrap();
        let hull_before = e.hull(StreamId(1)).unwrap();
        let bound_before = e.error_bound(StreamId(1)).unwrap();
        e.tick();
        e.tick();
        assert_eq!(e.tier(StreamId(1)), Some(Tier::Cold));
        let hull_after = e.hull(StreamId(1)).unwrap(); // touch restores
        assert_eq!(e.tier(StreamId(1)), Some(Tier::Hot));
        assert_eq!(hull_before.vertices(), hull_after.vertices());
        let bound_after = e.error_bound(StreamId(1)).unwrap();
        assert_eq!(
            bound_before.map(f64::to_bits),
            bound_after.map(f64::to_bits),
            "restore must be bit-exact"
        );
        let report = e.pressure_report();
        assert_eq!(report.spills, 1);
        assert_eq!(report.restores, 1);
        assert!(!report.is_degraded(), "spill/restore is not degradation");
    }

    #[test]
    fn corrupt_spill_quarantines_only_that_tenant() {
        let mut e = engine(SummaryKind::Uniform);
        for i in 0..10 {
            e.insert_batch(StreamId(i), &ring(50, i as f64, 0.0, 1.0))
                .unwrap();
        }
        assert!(e.spill(StreamId(3)));
        assert!(e.corrupt_spill(StreamId(3), 9, 0xA5));
        let err = e.hull(StreamId(3)).unwrap_err();
        assert!(matches!(err, AdmissionError::Quarantined { stream, .. } if stream == StreamId(3)));
        assert_eq!(e.tier(StreamId(3)), Some(Tier::Quarantined));
        assert_eq!(e.quarantined_count(), 1);
        // Every other tenant keeps serving.
        for i in (0..10).filter(|&i| i != 3) {
            assert!(e.hull(StreamId(i)).unwrap().len() >= 3, "tenant {i}");
        }
        // Further writes to the poisoned tenant stay typed errors.
        assert!(matches!(
            e.insert(StreamId(3), Point2::new(0.0, 0.0)),
            Err(AdmissionError::Quarantined { .. })
        ));
        // An operator can clear it.
        assert!(e.remove(StreamId(3)).is_some());
        assert_eq!(e.quarantined_count(), 0);
        e.insert(StreamId(3), Point2::new(0.0, 0.0)).unwrap();
    }

    #[test]
    fn reject_policy_errors_past_budget() {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact))
            .with_budget_bytes(4096)
            .with_policy(OverloadPolicy::Reject);
        let mut e = TenantEngine::new(config);
        let mut refused = 0u64;
        for i in 0..200 {
            if e.insert_batch(StreamId(i), &ring(40, i as f64 * 10.0, 0.0, 1.0))
                .is_err()
            {
                refused += 1;
            }
        }
        assert!(refused > 0, "a 4 KB budget cannot hold 200 exact tenants");
        let r = e.pressure_report();
        assert!(r.is_degraded());
        assert!(r.points_rejected > 0);
        // Rejected points are not part of the seen ledger.
        assert_eq!(r.points_seen, r.points_ingested + r.points_shed);
    }

    #[test]
    fn shed_policy_never_errors_and_keeps_budget() {
        let budget = 64 * 1024;
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Uniform).with_r(16))
            .with_budget_bytes(budget)
            .with_policy(OverloadPolicy::ShedOldest);
        let mut e = TenantEngine::new(config);
        for i in 0..500 {
            e.insert_batch(StreamId(i), &ring(30, i as f64, 0.0, 1.0))
                .expect("shedding engines never error");
            assert!(
                e.bytes_in_use() <= budget,
                "budget must hold at every checkpoint"
            );
        }
        let r = e.pressure_report();
        assert!(r.streams_shed > 0, "pressure must have shed someone");
        assert_eq!(r.points_seen, r.points_ingested + r.points_shed);
        // Live tenants keep exact per-tenant ledgers.
        for id in e.ids().collect::<Vec<_>>() {
            let s = e.stats(id).unwrap();
            assert_eq!(s.seen, s.ingested + s.shed, "tenant {id}");
        }
    }

    #[test]
    fn degrade_policy_swaps_backend_and_widens_bound() {
        let budget = 48 * 1024;
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(32))
            .with_budget_bytes(budget)
            .with_policy(OverloadPolicy::DegradeToCoarser);
        let mut e = TenantEngine::new(config);
        for i in 0..300 {
            e.insert_batch(StreamId(i), &ring(40, 0.0, 0.0, 2.0))
                .unwrap();
            assert!(e.bytes_in_use() <= budget);
        }
        let r = e.pressure_report();
        assert!(
            r.streams_degraded > 0,
            "pressure must have degraded someone"
        );
        // Find a degraded survivor and check its story is honest.
        let degraded: Vec<StreamId> = e
            .ids()
            .filter(|&id| e.stats(id).map(|s| s.degraded).unwrap_or(false))
            .collect();
        assert!(!degraded.is_empty());
        let id = degraded[0];
        let summary_name = e.summary(id).unwrap().name();
        assert_eq!(summary_name, "radial", "fallback backend took over");
        // An adaptive donor has a bound, so the composed bound survives —
        // wider than a fresh radial bound alone would claim.
        let composed = e.error_bound(id).unwrap().expect("donor had a bound");
        let own = e.summary(id).unwrap().error_bound().unwrap();
        assert!(
            composed > own,
            "carried donor bound lost: {composed} vs {own}"
        );
    }

    #[test]
    fn frozen_degrade_withdraws_bound() {
        // A frozen donor has no bound, so degrading must *withdraw* the
        // bound, not invent one from the fallback backend.
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Frozen).with_r(16));
        let mut e = TenantEngine::new(config);
        e.insert_batch(StreamId(9), &ring(60, 0.0, 0.0, 1.0))
            .unwrap();
        let idx = e.lookup(StreamId(9)).unwrap();
        assert!(e.degrade_slot(idx));
        assert_eq!(e.summary(StreamId(9)).unwrap().name(), "radial");
        assert_eq!(e.error_bound(StreamId(9)).unwrap(), None);
    }

    #[test]
    fn tenant_cap_gates_single_stream() {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact))
            .with_tenant_cap_bytes(2048)
            .with_policy(OverloadPolicy::Reject);
        let mut e = TenantEngine::new(config);
        let mut hit_cap = false;
        for chunk in 0..200 {
            let pts = ring(50, 0.0, 0.0, 1.0 + chunk as f64);
            match e.insert_batch(StreamId(1), &pts) {
                Ok(()) => {}
                Err(AdmissionError::TenantCap { stream, .. }) => {
                    assert_eq!(stream, StreamId(1));
                    hit_cap = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(
            hit_cap,
            "an exact tenant on growing rings must hit a 2 KB cap"
        );
    }

    #[test]
    fn max_streams_limit() {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Radial).with_r(8))
            .with_max_streams(3);
        let mut e = TenantEngine::new(config);
        for i in 0..3 {
            e.insert(StreamId(i), Point2::new(i as f64, 0.0)).unwrap();
        }
        assert!(matches!(
            e.insert(StreamId(99), Point2::new(0.0, 0.0)),
            Err(AdmissionError::StreamLimit { limit: 3 })
        ));
        // Under a shedding policy the registry makes room instead.
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Radial).with_r(8))
            .with_max_streams(3)
            .with_policy(OverloadPolicy::ShedOldest);
        let mut e = TenantEngine::new(config);
        for i in 0..5 {
            e.tick();
            e.insert(StreamId(i), Point2::new(i as f64, 0.0)).unwrap();
        }
        assert_eq!(e.len(), 3);
        assert!(!e.contains(StreamId(0)), "coldest tenant made room");
    }

    #[test]
    fn bulk_ingest_groups_and_queues() {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact))
            .with_queue_points(6)
            .with_policy(OverloadPolicy::ShedOldest);
        let mut e = TenantEngine::new(config);
        let traffic: Vec<(StreamId, Point2)> = (0..10)
            .map(|i| (StreamId(i % 2), Point2::new(i as f64, (i * i) as f64)))
            .collect();
        e.ingest_bulk(&traffic).unwrap();
        // 4 oldest points shed, 6 newest ingested; ledger exact.
        let r = e.pressure_report();
        assert_eq!(r.points_shed, 4);
        assert_eq!(r.points_ingested, 6);
        assert_eq!(r.points_seen, 10);
        let a = e.stats(StreamId(0)).unwrap();
        let b = e.stats(StreamId(1)).unwrap();
        assert_eq!(a.seen + b.seen, 10);
        assert_eq!(a.seen, a.ingested + a.shed);
        assert_eq!(b.seen, b.ingested + b.shed);

        // Reject policy refuses the whole over-long batch, atomically.
        let config =
            TenantConfig::new(SummaryBuilder::new(SummaryKind::Exact)).with_queue_points(6);
        let mut e = TenantEngine::new(config);
        assert!(matches!(
            e.ingest_bulk(&traffic),
            Err(AdmissionError::QueueFull {
                offered: 10,
                capacity: 6
            })
        ));
        assert!(e.is_empty());
    }

    #[test]
    fn bulk_ingest_matches_per_stream_ingest() {
        // Interleaved bulk traffic over more than a thousand streams, with
        // non-finite points mixed in, must land bit-identically to the
        // same points fed point by point: the same ledger per tenant and
        // the same snapshot bytes, whatever the number of workers, which
        // leaves the pressure report unchanged too.
        let mut serial = engine(SummaryKind::Adaptive);
        let streams = 1_200u64;
        let mut traffic = Vec::new();
        for i in 0..6_000u64 {
            // A scrambled stream order: first appearance is not id order.
            let id = StreamId(i * 7_919 % streams);
            let t = i as f64 * 0.1;
            let p = match i % 97 {
                0 => Point2::new(f64::NAN, t),
                1 => Point2::new(t, f64::INFINITY),
                _ => Point2::new(t.cos() * (1.0 + i as f64), t.sin()),
            };
            traffic.push((id, p));
        }
        for &(id, p) in &traffic {
            serial.insert(id, p).unwrap();
        }
        let ids = (0..streams).map(StreamId);
        let stats: Vec<String> = ids
            .clone()
            .map(|id| format!("{:?}", serial.stats(id).unwrap()))
            .collect();
        let envelopes: Vec<Vec<u8>> = ids
            .clone()
            .map(|id| {
                assert!(serial.spill(id));
                serial.spilled_bytes(id).unwrap().to_vec()
            })
            .collect();
        let mut reports = Vec::new();
        for threads in [1, 2, 3, 5] {
            let mut bulk = engine(SummaryKind::Adaptive);
            bulk.threads = threads;
            bulk.ingest_bulk(&traffic).unwrap();
            assert_eq!(bulk.len(), streams as usize);
            reports.push(format!("{:?}", bulk.pressure_report()));
            for (i, id) in ids.clone().enumerate() {
                let a = format!("{:?}", bulk.stats(id).unwrap());
                assert_eq!(a, stats[i], "stream {id}, {threads} workers");
                assert!(bulk.spill(id));
                assert_eq!(
                    bulk.spilled_bytes(id),
                    Some(&envelopes[i][..]),
                    "stream {id}, {threads} workers"
                );
            }
        }
        reports.dedup();
        assert_eq!(reports.len(), 1, "the report depends on the workers");
    }

    #[test]
    fn absorb_composes_with_sharded_recovery() {
        use crate::parallel::ShardedIngest;
        use crate::recovery::{FaultPlan, RetryPolicy, SupervisedIngest};
        let pts = ring(5000, 0.0, 0.0, 4.0);
        let mut e = engine(SummaryKind::Adaptive);
        let sharded = ShardedIngest::new(e.config().builder, 4);
        let plain = SupervisedIngest::new(sharded).with_retry_policy(RetryPolicy::none());
        e.absorb(StreamId(1), &plain.run_stream(pts.iter().copied()))
            .unwrap();
        let crashing = SupervisedIngest::new(ShardedIngest::new(e.config().builder, 2))
            .with_checkpoint_interval(1024)
            .with_fault_plan(FaultPlan::new().crash(1, 3));
        let run = crashing.run_stream(pts.iter().copied());
        assert_eq!(run.report.lost_points, 0);
        e.absorb(StreamId(2), &run).unwrap();
        let s1 = e.stats(StreamId(1)).unwrap();
        assert_eq!(s1.seen, 5000);
        assert_eq!(s1.seen, s1.ingested + s1.shed);
        // Both tenants carry honest (widened) bounds from their backfills.
        assert!(e.error_bound(StreamId(1)).unwrap().is_some());
        assert!(e.error_bound(StreamId(2)).unwrap().is_some());
        let d1 = geom::calipers::diameter(&e.hull(StreamId(1)).unwrap())
            .unwrap()
            .2;
        assert!((d1 - 8.0).abs() < 0.1);
    }

    #[test]
    fn absorbed_runs_carry_the_larger_run_bound() {
        use crate::parallel::ShardedIngest;
        use crate::recovery::SupervisedIngest;
        let mut e = engine(SummaryKind::Adaptive);
        let ingest = SupervisedIngest::new(ShardedIngest::new(e.config().builder, 2));
        let small = ingest.run_stream(ring(2000, 0.0, 0.0, 1.0));
        let large = ingest.run_stream(ring(2000, 0.5, 0.0, 8.0));
        let (a, b) = (small.error_bound().unwrap(), large.error_bound().unwrap());
        assert!(0.0 < a && a < b, "{a} vs {b}");
        e.absorb(StreamId(3), &large).unwrap();
        e.absorb(StreamId(3), &small).unwrap();
        // Two runs are parallel parts: the larger bound, not the sum.
        let idx = e.lookup(StreamId(3)).unwrap();
        let carried = e.slots[idx].as_ref().unwrap().carried_bound;
        assert_eq!(carried, Some(b));
        let own = e.summary(StreamId(3)).unwrap().error_bound();
        assert_eq!(
            e.error_bound(StreamId(3)).unwrap(),
            chain_bound([Some(b), own])
        );
    }

    #[test]
    fn absorb_books_a_degraded_run_as_shed() {
        use crate::parallel::ShardedIngest;
        use crate::recovery::{FaultPlan, RetryPolicy, SupervisedIngest};
        let pts = ring(4000, 0.0, 0.0, 1.0);
        let mut e = engine(SummaryKind::Exact);
        let run = SupervisedIngest::new(ShardedIngest::new(e.config().builder, 2).with_chunk(100))
            .with_checkpoint_interval(200)
            .with_retry_policy(RetryPolicy::none())
            .with_fault_plan(FaultPlan::new().crash(0, 4))
            .run_stream(pts.iter().copied());
        let lost = run.report.lost_points;
        assert!(lost > 0, "a quarantined shard loses points");
        e.absorb(StreamId(5), &run).unwrap();
        let s = e.stats(StreamId(5)).unwrap();
        assert_eq!(s.seen, 4000);
        assert_eq!(s.shed, lost);
        assert_eq!(s.ingested, 4000 - lost);
        let r = e.pressure_report();
        assert_eq!(r.points_seen, r.points_ingested + r.points_shed);
    }

    #[test]
    fn pressure_event_log_is_bounded() {
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Radial).with_r(8))
            .with_event_capacity(5);
        let mut e = TenantEngine::new(config);
        for i in 0..50 {
            e.insert(StreamId(i), Point2::new(i as f64, 0.0)).unwrap();
            e.spill(StreamId(i));
        }
        let r = e.pressure_report();
        assert_eq!(r.events.len(), 5);
        assert!(r.events_dropped > 0);
        assert_eq!(r.spills, 50);
    }

    /// Every `PressureReport` tally must be readable, exactly, from a
    /// scrape it was exported into — including after a quarantine.
    #[test]
    fn scrape_mirrors_pressure_report_exactly() {
        let tel = Telemetry::new();
        let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
            .with_policy(OverloadPolicy::ShedOldest)
            .with_budget_bytes(6 * 1024)
            .with_idle_ticks(1)
            .with_event_capacity(4)
            .with_telemetry(tel);
        let mut e = TenantEngine::new(config);
        for i in 0..12u64 {
            e.insert_batch(StreamId(i), &ring(80, i as f64 * 4.0, 0.0, 1.5))
                .unwrap();
            e.tick();
        }
        // Corrupt one cold envelope so the next touch quarantines it.
        let cold = e
            .ids()
            .find(|&id| e.tier(id) == Some(Tier::Cold))
            .expect("idle ticks must have spilled someone");
        assert!(e.corrupt_spill(cold, 12, 0xA5));
        assert!(e.summary(cold).is_err());

        let report = e.pressure_report();
        let mut scrape = tel.scrape();
        report.export_to(&mut scrape);
        let c = |name: &str| scrape.counter_total(name);
        let g = |name: &str| scrape.gauge_value(name).unwrap_or(0);
        assert_eq!(
            scrape.counter_with(names::TENANT_STREAMS, &[("outcome", "admitted")]),
            Some(report.streams_admitted)
        );
        assert_eq!(c(names::TENANT_POINTS_SEEN), report.points_seen);
        assert_eq!(c(names::TENANT_POINTS_INGESTED), report.points_ingested);
        assert_eq!(c(names::TENANT_POINTS_SHED), report.points_shed);
        assert_eq!(c(names::TENANT_POINTS_REJECTED), report.points_rejected);
        assert_eq!(c(names::TENANT_EVICTIONS), report.streams_shed);
        assert_eq!(c(names::TENANT_DEGRADATIONS), report.streams_degraded);
        assert_eq!(c(names::TENANT_QUARANTINES), report.streams_quarantined);
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
        assert_eq!(c(names::TENANT_EVENTS_DROPPED), report.events_dropped);
        assert!(report.events_dropped > 0, "capacity 4 must overflow");
        assert_eq!(g(names::TENANT_BYTES_IN_USE), report.bytes_in_use as i64);
        assert_eq!(g(names::TENANT_BYTES_PEAK), report.bytes_peak as i64);
        assert_eq!(g(names::TENANT_HOT_STREAMS), e.hot_count() as i64);
        assert_eq!(g(names::TENANT_COLD_STREAMS), e.cold_count() as i64);
        assert_eq!(
            g(names::TENANT_QUARANTINED_STREAMS),
            e.quarantined_count() as i64
        );
        assert_eq!(report.streams_quarantined, 1);
    }
}
