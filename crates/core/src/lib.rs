//! # sh-core — adaptive sampling convex-hull summaries
//!
//! Rust implementation of Hershberger & Suri, *"Adaptive sampling for
//! geometric problems over data streams"* (PODS 2004 / Computational
//! Geometry 39 (2008)).
//!
//! The flagship type is [`AdaptiveHull`]: a single-pass summary keeping at
//! most `2r + 1` stream points whose convex hull is within `O(D/r²)` of the
//! true hull (`D` = diameter), with `O(log r)`-flavoured per-point cost.
//! Baselines and substrates:
//!
//! * [`ExactHull`] — exact insert-only hull (ground truth, not small-space);
//! * [`NaiveUniformHull`] / [`UniformHull`] — `O(D/r)` uniform direction
//!   sampling (§3, the FKZ baseline);
//! * [`RadialHull`] — Cormode–Muthukrishnan radial histogram baseline;
//! * [`FrozenHull`] — fixed direction set ("partially adaptive", Table 1);
//! * [`adaptive`] — the static and streaming adaptive schemes (§4, §5);
//! * [`parallel`] — the sharded ingestion engine ([`ShardedIngest`]):
//!   one chunk → shard partition (chunk `c` to shard `c % N`) shared by
//!   every entry point, and a deterministic [`Mergeable`] reduce;
//! * [`window`] — sliding-window summaries ([`WindowedSummary`]): extent
//!   queries over the last `N` points / last `T` time units of the stream
//!   via an exponential-histogram chain of buckets, over any backend;
//! * [`snapshot`] — versioned binary snapshot/restore for every backend
//!   (and windowed chains): checkpoint shards, ship summaries across
//!   processes, recover after crashes
//!   ([`SummaryBuilder::restore`](builder::SummaryBuilder::restore),
//!   [`ShardedIngest::merge_snapshots`](parallel::ShardedIngest::merge_snapshots));
//! * [`recovery`] — fault-tolerant supervised ingestion
//!   ([`SupervisedIngest`]): per-shard checkpoints that are the
//!   summary's own snapshot, validated by a full restore whose state the
//!   supervisor keeps, deterministic fault injection
//!   ([`FaultPlan`]), checkpoint-replay recovery under a
//!   [`RetryPolicy`] (a restart cap), and degraded completion with a
//!   [`RecoveryReport`];
//! * [`tenant`] — the resource-governed multi-tenant engine
//!   ([`TenantEngine`]): millions of per-stream summaries under a byte
//!   budget, with per-tenant quotas, admission control, load shedding
//!   ([`OverloadPolicy`]), hot/cold spill with hardened bit-exact restore
//!   and per-tenant quarantine, backfill from a [`SupervisedRun`] through
//!   the same write path, and a [`PressureReport`] ledger;
//! * [`telemetry`] — zero-dependency observability ([`Telemetry`]):
//!   striped counters, gauges and log-scale histograms threaded through
//!   the engines above, with Prometheus-text and JSON-lines exporters and
//!   a [`telemetry::Scrape`] snapshot API into which the ledgers
//!   ([`PressureReport`], [`RecoveryReport`]), the query cache's
//!   [`QueryCacheStats`] and the kernels' certificate tallies are
//!   exported;
//! * [`queries`] — the §6 queries, which are [`geom`] kernels
//!   (`calipers`, `locate`, `distance`, `clip`) applied to a summary's
//!   cached [`hull_ref`](HullSummary::hull_ref), and the serving layer
//!   ([`queries::serving::QueryEngine`]): cached, error-bounded analytics
//!   over a whole [`TenantEngine`] fleet with bbox/incircle-pruned
//!   top-k scans and separation joins;
//! * [`metrics`] — the error measures of §2/§7 (uncertainty triangles,
//!   points-outside, Hausdorff error vs the exact hull);
//! * [`viz`] — SVG rendering of hulls, sample directions and uncertainty
//!   triangles (Fig. 10).
//!
//! Every summary implements the object-safe [`HullSummary`] trait (plus
//! [`Mergeable`] for sharded ingestion) and can be constructed at runtime
//! through [`SummaryBuilder`]:
//!
//! ```
//! use adaptive_hull::{HullSummary, SummaryBuilder, SummaryKind};
//! use geom::Point2;
//!
//! let mut summary = SummaryBuilder::new(SummaryKind::Adaptive).with_r(32).build();
//! summary.insert_batch(&[Point2::new(0.0, 1.0), Point2::new(2.0, 0.5)]);
//! assert!(summary.hull_ref().len() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub(crate) mod batch;
pub mod builder;
pub mod cluster;
pub mod exact;
pub mod frozen;
pub(crate) mod fxhash;
pub mod metrics;
pub mod parallel;
pub mod queries;
pub mod radial;
pub mod recovery;
pub mod snapshot;
pub mod summary;
pub mod telemetry;
pub mod tenant;
pub mod uniform;
pub mod viz;
pub mod window;

pub use adaptive::{AdaptiveHull, AdaptiveHullConfig, FixedBudgetAdaptiveHull};
pub use builder::{SummaryBuilder, SummaryKind};
pub use cluster::{ClusterHull, ClusterHullConfig};
pub use exact::ExactHull;
pub use frozen::FrozenHull;
pub use parallel::{ShardRun, ShardStats, ShardedIngest};
pub use queries::serving::{
    Estimate, JoinAnswer, JoinCertificate, JoinPair, PairAnswer, QDir, QueryCacheStats,
    QueryEngine, QueryError, TopKAnswer, TopKEntry,
};
pub use radial::RadialHull;
pub use recovery::{
    DetectedFault, Fault, FaultEvent, FaultPlan, RecoveryAction, RecoveryReport, RetryPolicy,
    ShardHealth, ShardStatus, SupervisedIngest, SupervisedRun,
};
pub use snapshot::{Snapshot, SnapshotError};
pub use summary::{GenCache, HullCache, HullSummary, HullSummaryExt, Mergeable, NonFiniteInput};
pub use telemetry::{Counter, Gauge, Histogram, Scrape, Telemetry};
pub use tenant::{
    AdmissionError, OverloadPolicy, PressureAction, PressureEvent, PressureReport, StreamId,
    TenantConfig, TenantEngine, TenantStats, Tier,
};
pub use uniform::{NaiveUniformHull, UniformHull};
pub use window::{WindowAnswer, WindowConfig, WindowPolicy, WindowedSummary};
