//! # streamhull
//!
//! A single-pass, small-space summary library for two-dimensional point
//! streams, implementing Hershberger & Suri, *"Adaptive sampling for
//! geometric problems over data streams"* (PODS 2004 / Computational
//! Geometry 39 (2008) 191–208).
//!
//! The headline structure is [`AdaptiveHull`]: it retains at most `2r + 1`
//! stream points yet keeps its convex hull within `O(D/r²)` of the true
//! convex hull of *everything seen*, where `D` is the diameter — provably
//! optimal, and an order of magnitude better than uniform direction
//! sampling at equal space. Updates cost `O(log r)` amortized for typical
//! streams.
//!
//! ## Quick start
//!
//! ```
//! use streamhull::prelude::*;
//!
//! let mut hull = AdaptiveHull::with_r(32);
//! for i in 0..10_000 {
//!     let t = i as f64 * 0.01;
//!     hull.insert(Point2::new(16.0 * t.cos(), t.sin()));
//! }
//!
//! // ≤ 2r + 1 points stored, answers extremal queries about the stream:
//! assert!(hull.sample_size() <= 65);
//! let poly = hull.hull_ref(); // cached: repeated queries don't rebuild
//! let (_, _, diameter) = streamhull::geom::calipers::diameter(poly).unwrap();
//! assert!((diameter - 32.0).abs() < 0.05);
//! ```
//!
//! ## Any summary, chosen at runtime
//!
//! Every backend — exact, uniform (naive and searchable), radial, frozen,
//! adaptive (threshold- and budget-driven), cluster — implements the
//! object-safe [`HullSummary`] trait and is constructible through
//! [`SummaryBuilder`], so harnesses, services, and ablations drive all of
//! them through one code path:
//!
//! ```
//! use streamhull::prelude::*;
//!
//! let kind: SummaryKind = "adaptive".parse().unwrap(); // e.g. from a CLI flag
//! let mut summary = SummaryBuilder::new(kind).with_r(32).build();
//! summary.insert_batch(&[Point2::new(0.0, 0.0), Point2::new(4.0, 3.0)]);
//! assert_eq!(summary.points_seen(), 2);
//! // The live guarantee, straight from the summary:
//! assert!(summary.error_bound().is_some());
//! ```
//!
//! ## Sharded ingestion and merging
//!
//! Every summary is [`Mergeable`]: shard a stream across workers or
//! gateways, summarise each shard independently (summaries are `Send +
//! Sync`), then merge at a collector. The shards are parallel parts, so
//! the merged hull's error against the union stream is at most the
//! largest shard's error plus the collector's own `O(D/r²)` bound
//! ([`ShardRun::error_bound`](adaptive_hull::parallel::ShardRun::error_bound))
//! — verified by the shard-merge property tests and the bound-honesty
//! suite. [`ShardedIngest`] runs that pattern on worker threads with one
//! partition (chunk `c` to shard `c % N`), so a slice run, a fault-free
//! [`SupervisedIngest`] run over an iterator (the one streaming path) and
//! a reduce of per-shard snapshot files all give the same bits.
//!
//! ```
//! use streamhull::prelude::*;
//!
//! let builder = SummaryBuilder::new(SummaryKind::Adaptive).with_r(16);
//! let (mut a, mut b) = (builder.build_mergeable(), builder.build_mergeable());
//! a.insert_batch(&[Point2::new(0.0, 0.0), Point2::new(1.0, 2.0)]); // shard 1
//! b.insert_batch(&[Point2::new(5.0, 1.0), Point2::new(3.0, 4.0)]); // shard 2
//! a.merge_from(&b);
//! assert_eq!(a.points_seen(), 4);
//! ```
//!
//! ## Sliding windows: summaries that forget
//!
//! Production traffic mostly asks about the *recent* stream — "extent of
//! the last `N` points / last `T` seconds". [`WindowedSummary`] wraps any
//! backend in an exponential-histogram chain of buckets that expire as
//! the window slides; [`query_window`](WindowedSummary::query_window)
//! reports the window hull together with a composed error bound and an
//! explicit **staleness bound** (at most `stale_points` points older than
//! the window may be included — a window answer is approximate only at
//! its oldest edge, and the slack shrinks as you refine the chain):
//!
//! ```
//! use streamhull::prelude::*;
//!
//! let mut w = SummaryBuilder::new(SummaryKind::Adaptive)
//!     .with_r(16)
//!     .windowed(WindowConfig::last_n(500).with_granularity(50));
//! for i in 0..5000 {
//!     let t = i as f64 * 0.02;
//!     w.insert(Point2::new(t.cos() + i as f64 * 0.01, t.sin()));
//! }
//! let ans = w.query_window();
//! assert!(ans.merged_points >= 500); // the whole window is covered …
//! assert!(ans.stale_points < 500);   // … plus bounded staleness
//! assert!(ans.error_bound().is_some());
//! ```
//!
//! ## Fault-tolerant ingestion
//!
//! [`SupervisedIngest`] is how a stream reaches the sharded engine's
//! workers: per-shard checkpointing (via the snapshot codec), fault
//! detection (worker panics, stalls, corrupt checkpoints, non-finite
//! floods), and checkpoint-replay recovery under a deterministic
//! [`RetryPolicy`] — when retries exhaust, the run completes *degraded*
//! with an exact [`RecoveryReport`] of what was lost instead of
//! panicking; a worker fault is never re-raised on the caller. Faults are
//! injected deterministically through a [`FaultPlan`] so the whole chaos
//! matrix replays in CI:
//!
//! ```
//! use streamhull::prelude::*;
//!
//! let pts: Vec<Point2> = (0..20_000)
//!     .map(|i| {
//!         let t = i as f64 * 0.01;
//!         Point2::new(t.cos() * 3.0, t.sin())
//!     })
//!     .collect();
//! let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 4);
//! let run = SupervisedIngest::new(engine)
//!     .with_checkpoint_interval(2048)
//!     .with_fault_plan(FaultPlan::new().crash(2, 6)) // deterministic chaos (chunk 6 -> shard 2)
//!     .run_stream(pts.iter().copied());
//! assert!(!run.is_degraded()); // recovered: bit-identical to fault-free
//! assert_eq!(run.report.total_retries(), 1);
//! ```
//!
//! ## Multi-tenant operation under a memory budget
//!
//! A service holds one summary per user or sensor — millions of them.
//! [`TenantEngine`] governs that fleet: per-tenant quotas and a global
//! byte budget (every summary reports
//! [`approx_bytes`](HullSummary::approx_bytes)), typed [`AdmissionError`]s
//! instead of panics, an explicit [`OverloadPolicy`] (reject / shed
//! oldest / degrade to a coarser backend with the error bound honestly
//! widened), idle-stream spill to snapshot envelopes with bit-exact
//! restore, per-tenant quarantine of corrupt spills, and an exact
//! [`PressureReport`] ledger — the resource-pressure mirror of
//! [`RecoveryReport`]. Backfill a stream from an archive with
//! [`TenantEngine::absorb`], which merges a finished [`SupervisedRun`]
//! through the same governed write path:
//!
//! ```
//! use streamhull::prelude::*;
//!
//! let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
//!     .with_budget_bytes(64 * 1024)
//!     .with_policy(OverloadPolicy::DegradeToCoarser);
//! let mut engine = TenantEngine::new(config);
//! for i in 0..200u64 {
//!     let pts: Vec<Point2> = (0..50)
//!         .map(|j| {
//!             let t = j as f64 * 0.13;
//!             Point2::new(i as f64 + t.cos(), t.sin())
//!         })
//!         .collect();
//!     engine.insert_batch(StreamId(i), &pts).unwrap(); // shedding/degrading engines never abort
//! }
//! let report = engine.pressure_report();
//! assert!(report.bytes_in_use <= 64 * 1024); // the budget holds at every call boundary
//! assert_eq!(report.points_seen, report.points_ingested + report.points_shed);
//!
//! let archive: Vec<Point2> = (0..4096).map(|j| Point2::new(j as f64, 0.5)).collect();
//! let sharded = ShardedIngest::new(*engine.config().builder(), 2);
//! let run = SupervisedIngest::new(sharded).run_stream(archive.iter().copied());
//! engine.absorb(StreamId(1_000), &run).unwrap();
//! assert_eq!(engine.stats(StreamId(1_000)).unwrap().seen, 4096);
//! ```
//!
//! ## Observability
//!
//! [`Telemetry`] is a zero-dependency metrics registry — striped relaxed
//! counters, gauges and log-scale histograms — threaded through every
//! engine above for hot-path measurements. Attach one handle and scrape a
//! consistent snapshot of that registry mid-run, as Prometheus text or
//! JSON lines; a detached handle ([`Telemetry::disabled`]) makes every
//! instrument a single-branch no-op, so uninstrumented hot paths pay
//! nothing. The ledgers — [`PressureReport`] and [`RecoveryReport`] — and
//! the query cache's [`QueryCacheStats`] are not copied into the
//! registry: `export_to` renders each record into the scrape, so the two
//! agree by construction:
//!
//! ```
//! use streamhull::prelude::*;
//!
//! let tel = Telemetry::new();
//! let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16))
//!     .with_telemetry(tel);
//! let mut engine = TenantEngine::new(config);
//! engine.insert(StreamId(1), Point2::new(1.0, 2.0)).unwrap();
//! let mut scrape = tel.scrape();
//! engine.pressure_report().export_to(&mut scrape);
//! assert_eq!(
//!     scrape.counter_total("streamhull_tenant_points_ingested_total"),
//!     engine.pressure_report().points_ingested,
//! );
//! assert!(scrape.to_prometheus_text().contains("streamhull_tenant_points_ingested_total 1"));
//! ```
//!
//! ## Querying: the serving layer
//!
//! [`QueryEngine`] wraps a [`TenantEngine`] and answers dashboard-grade
//! analytics — width, diameter, farthest pair, directional extent — by
//! rotating calipers on each stream's cached hull. Every answer is an
//! [`Estimate`] whose interval `[lo, hi]` contains the exact-stream truth
//! (`lo` is the computed value — the sample hull sits *inside* the true
//! hull — and `hi` adds twice the summary's live error bound). Answers are
//! memoised under `(stream, hull generation, kind, quantized direction)`,
//! so ingestion invalidates the cache for free and a repeated query is one
//! hash lookup:
//!
//! ```
//! use streamhull::prelude::*;
//!
//! let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(32));
//! let mut q = QueryEngine::new(TenantEngine::new(config));
//! for i in 0..1000u64 {
//!     let t = i as f64 * 0.013;
//!     q.tenants_mut()
//!         .insert(StreamId(i % 4), Point2::new(8.0 * t.cos(), t.sin()))
//!         .unwrap();
//! }
//!
//! // Per-stream analytics with error bars (the diameter answer also
//! // carries its farthest pair, `d.a` and `d.b`):
//! let d = q.diameter(StreamId(0)).unwrap().unwrap();
//! assert!(d.estimate.lo <= d.estimate.value && d.estimate.value <= d.estimate.hi);
//! let w = q.width(StreamId(0)).unwrap();
//! assert!(w.value <= d.estimate.value, "width never exceeds diameter");
//!
//! // The generation-keyed cache: a repeated query is a hit, and the
//! // answer is bit-identical to the fresh computation.
//! let again = q.diameter(StreamId(0)).unwrap().unwrap();
//! assert_eq!(again, d);
//! assert!(q.cache_stats().hits >= 1);
//!
//! // Fleet analytics: top-k by extent (bbox-pruned) and separation joins
//! // (bbox/incircle certificates before any exact polygon distance).
//! let top = q.top_k_extent(Vec2::new(1.0, 0.0), 2).unwrap();
//! assert_eq!(top.entries.len(), 2);
//! let join = q.separation_join(1.0).unwrap();
//! assert_eq!(join.pairs.len(), 6, "all four interleaved streams overlap");
//! ```
//!
//! ## Crate map
//!
//! * [`geom`] — planar geometry substrate (robust predicates, hulls,
//!   calipers, tangent searches, polygon clipping);
//! * [`streamgen`] — synthetic stream workloads (the paper's disk / square
//!   / ellipse / changing-distribution experiments, plus adversarial ones);
//! * [`adaptive_hull`] — the summaries: exact, uniform, radial, frozen,
//!   cluster, and the static/streaming/fixed-budget adaptive samplers,
//!   with the [`SummaryBuilder`] registry, sharded ingestion (slices
//!   through [`ShardedIngest`], iterators through [`SupervisedIngest`]),
//!   the tenant engine and its serving layer ([`queries`];
//!   the §6 queries themselves are [`geom`] kernels on a summary's
//!   [`hull_ref`](HullSummary::hull_ref)), and error metrics
//!   ([`metrics`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adaptive_hull;
pub use geom;
pub use streamgen;

pub use adaptive_hull::{metrics, queries, recovery, snapshot, telemetry, tenant, viz, window};
pub use adaptive_hull::{
    AdaptiveHull, AdaptiveHullConfig, AdmissionError, ClusterHull, ClusterHullConfig,
    DetectedFault, Estimate, ExactHull, Fault, FaultEvent, FaultPlan, FixedBudgetAdaptiveHull,
    FrozenHull, HullCache, HullSummary, HullSummaryExt, JoinAnswer, JoinCertificate, JoinPair,
    Mergeable, NaiveUniformHull, NonFiniteInput, OverloadPolicy, PairAnswer, PressureAction,
    PressureEvent, PressureReport, QDir, QueryCacheStats, QueryEngine, QueryError, RadialHull,
    RecoveryAction, RecoveryReport, RetryPolicy, ShardHealth, ShardRun, ShardStats, ShardStatus,
    ShardedIngest, Snapshot, SnapshotError, StreamId, SummaryBuilder, SummaryKind,
    SupervisedIngest, SupervisedRun, Telemetry, TenantConfig, TenantEngine, TenantStats, Tier,
    TopKAnswer, TopKEntry, UniformHull, WindowAnswer, WindowConfig, WindowPolicy, WindowedSummary,
};
pub use adaptive_hull::{Counter, Gauge, Histogram, Scrape};
pub use geom::{ConvexPolygon, Point2, Vec2};

/// Everything most applications need.
pub mod prelude {
    pub use crate::{
        AdaptiveHull, AdaptiveHullConfig, AdmissionError, ClusterHull, ClusterHullConfig,
        ConvexPolygon, Estimate, ExactHull, Fault, FaultPlan, FixedBudgetAdaptiveHull, FrozenHull,
        HullSummary, HullSummaryExt, JoinAnswer, JoinCertificate, JoinPair, Mergeable,
        NaiveUniformHull, NonFiniteInput, OverloadPolicy, PairAnswer, Point2, PressureAction,
        PressureEvent, PressureReport, QDir, QueryCacheStats, QueryEngine, QueryError, RadialHull,
        RecoveryReport, RetryPolicy, Scrape, ShardRun, ShardStats, ShardedIngest, Snapshot,
        SnapshotError, StreamId, SummaryBuilder, SummaryKind, SupervisedIngest, SupervisedRun,
        Telemetry, TenantConfig, TenantEngine, TenantStats, Tier, TopKAnswer, TopKEntry,
        UniformHull, Vec2, WindowAnswer, WindowConfig, WindowPolicy, WindowedSummary,
    };
}
