//! Runtime construction of hull summaries: [`SummaryKind`] names every
//! summary implementation in the crate and [`SummaryBuilder`] turns a kind
//! plus parameters into a boxed [`HullSummary`] / [`Mergeable`] trait
//! object — "any summary, chosen at runtime".
//!
//! This is what lets the bench harness, the tenant engine and its
//! serving layer ([`QueryEngine`](crate::queries::QueryEngine)), examples,
//! and tests drive every backend through one code path instead of
//! hand-rolled per-type dispatch. Feed built summaries in chunks via
//! [`insert_batch`](crate::summary::HullSummary::insert_batch) where the
//! stream allows it: every kind overrides it with a batched fast path that
//! is observably identical to the per-point loop but amortises pre-hull
//! filtering, point location, and cache invalidation across the chunk
//! (see the trait docs; the `throughput` bench bin records the win):
//!
//! ```
//! use adaptive_hull::{HullSummary, SummaryBuilder, SummaryKind};
//! use geom::Point2;
//!
//! let mut summaries: Vec<Box<dyn HullSummary + Send + Sync>> = SummaryKind::ALL
//!     .iter()
//!     .map(|&kind| SummaryBuilder::new(kind).with_r(16).build())
//!     .collect();
//! for s in &mut summaries {
//!     s.insert_batch(&[Point2::new(0.0, 0.0), Point2::new(3.0, 4.0)]);
//!     assert_eq!(s.points_seen(), 2);
//! }
//! ```

use crate::adaptive::stream::{AdaptiveHull, AdaptiveHullConfig};
use crate::cluster::{ClusterHull, ClusterHullConfig};
use crate::exact::ExactHull;
use crate::frozen::FrozenHull;
use crate::radial::RadialHull;
use crate::summary::{HullSummary, Mergeable};
use crate::uniform::{NaiveUniformHull, UniformHull};
use crate::FixedBudgetAdaptiveHull;
use core::f64::consts::TAU;
use core::fmt;
use core::str::FromStr;
use geom::Vec2;

/// Every summary implementation in this crate, nameable at runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SummaryKind {
    /// [`ExactHull`] — ground truth, not small-space.
    Exact,
    /// [`NaiveUniformHull`] — `O(r)`-per-point FKZ baseline (§3).
    UniformNaive,
    /// [`UniformHull`] — the searchable `O(log r)` structure (§3.1).
    Uniform,
    /// [`RadialHull`] — Cormode–Muthukrishnan radial histogram (§1.2).
    Radial,
    /// [`FrozenHull`] — fixed direction fan ("partially adaptive").
    Frozen,
    /// [`AdaptiveHull`] — the streaming adaptive scheme (§5, the paper's
    /// main result).
    Adaptive,
    /// [`FixedBudgetAdaptiveHull`] — exactly `2r` directions (§7).
    AdaptiveFixedBudget,
    /// [`ClusterHull`] — the §8 / ALENEX'06 shape summary.
    Cluster,
}

impl SummaryKind {
    /// Every kind, in a stable order (for ablations and conformance
    /// sweeps).
    pub const ALL: [SummaryKind; 8] = [
        SummaryKind::Exact,
        SummaryKind::UniformNaive,
        SummaryKind::Uniform,
        SummaryKind::Radial,
        SummaryKind::Frozen,
        SummaryKind::Adaptive,
        SummaryKind::AdaptiveFixedBudget,
        SummaryKind::Cluster,
    ];

    /// Stable lowercase label (also what [`FromStr`] parses).
    pub fn label(self) -> &'static str {
        match self {
            SummaryKind::Exact => "exact",
            SummaryKind::UniformNaive => "uniform-naive",
            SummaryKind::Uniform => "uniform",
            SummaryKind::Radial => "radial",
            SummaryKind::Frozen => "frozen",
            SummaryKind::Adaptive => "adaptive",
            SummaryKind::AdaptiveFixedBudget => "adaptive-2r",
            SummaryKind::Cluster => "cluster",
        }
    }
}

impl fmt::Display for SummaryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for SummaryKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SummaryKind::ALL
            .iter()
            .copied()
            .find(|k| k.label() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = SummaryKind::ALL.iter().map(|k| k.label()).collect();
                format!("unknown summary kind {s:?}; expected one of {known:?}")
            })
    }
}

/// Builds any [`SummaryKind`] as a boxed trait object.
///
/// Unused knobs are ignored by kinds that do not need them (`depth` only
/// affects the adaptive scheme, `seed` only kinds with randomised
/// structure — today the frozen fan's rotation). The cluster summary
/// keeps at most 4 clusters, or the budget a restored builder carries.
#[derive(Clone, Copy, Debug)]
pub struct SummaryBuilder {
    kind: SummaryKind,
    r: u32,
    depth: Option<u32>,
    seed: u64,
    max_clusters: usize,
}

impl SummaryBuilder {
    /// A builder for `kind` with the defaults `r = 16`, paper depth,
    /// seed 0, and 4 clusters.
    pub fn new(kind: SummaryKind) -> Self {
        SummaryBuilder {
            kind,
            r: 16,
            depth: None,
            seed: 0,
            max_clusters: 4,
        }
    }

    /// Sets the direction/sector parameter `r`.
    pub fn with_r(mut self, r: u32) -> Self {
        self.r = r;
        self
    }

    /// Sets the refinement-tree height limit (adaptive kinds).
    pub fn with_depth(mut self, depth: u32) -> Self {
        self.depth = Some(depth);
        self
    }

    /// Seed for kinds with randomised structure (frozen fan rotation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The kind this builder produces.
    pub fn kind(&self) -> SummaryKind {
        self.kind
    }

    /// The configured `r`.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the summary as a plain [`HullSummary`] trait object.
    pub fn build(&self) -> Box<dyn HullSummary + Send + Sync> {
        self.build_mergeable()
    }

    /// The direction fan a [`SummaryKind::Frozen`] build uses: a uniform
    /// fan rotated by a seed-derived phase (the frozen scheme needs *some*
    /// a-priori direction set, and rotating it exercises its sensitivity
    /// to fan placement). Exposed so the tenant engine can compute the fan
    /// once per `(r, seed)` and share it across every stream.
    pub(crate) fn frozen_fan(&self) -> Vec<Vec2> {
        let phase = (self.seed as f64 / u64::MAX as f64) * TAU / self.r as f64;
        (0..self.r)
            .map(|j| Vec2::from_angle(phase + TAU * j as f64 / self.r as f64))
            .collect()
    }

    /// Builds a sliding-window wrapper around this summary configuration:
    /// the window's buckets (and its query collectors) are each built by
    /// this builder, so any kind windows through one code path (see
    /// [`window`](crate::window)).
    pub fn windowed(&self, config: crate::window::WindowConfig) -> crate::window::WindowedSummary {
        crate::window::WindowedSummary::new(*self, config)
    }

    /// Builds the summary with the [`Mergeable`] capability exposed, for
    /// sharded / distributed ingestion (every kind in this crate merges).
    pub fn build_mergeable(&self) -> Box<dyn Mergeable + Send + Sync> {
        match self.kind {
            SummaryKind::Exact => Box::new(ExactHull::new()),
            SummaryKind::UniformNaive => Box::new(NaiveUniformHull::new(self.r)),
            SummaryKind::Uniform => Box::new(UniformHull::new(self.r)),
            SummaryKind::Radial => Box::new(RadialHull::new(self.r)),
            SummaryKind::Frozen => Box::new(FrozenHull::from_units(self.frozen_fan())),
            SummaryKind::Adaptive => Box::new(AdaptiveHull::new(self.adaptive_config())),
            SummaryKind::AdaptiveFixedBudget => Box::new(FixedBudgetAdaptiveHull::new(self.r)),
            SummaryKind::Cluster => Box::new(ClusterHull::new(
                ClusterHullConfig::new(self.max_clusters).with_r(self.r),
            )),
        }
    }

    /// Reconstructs a summary from a snapshot produced by
    /// [`Snapshot::encode`](crate::snapshot::Snapshot::encode) or
    /// [`Mergeable::encode_snapshot`],
    /// choosing the backend from the envelope's kind tag alone — the
    /// restore side of checkpointing, crash recovery, and cross-process
    /// shard shipping:
    ///
    /// ```
    /// use adaptive_hull::{Mergeable, SummaryBuilder, SummaryKind};
    /// use geom::Point2;
    ///
    /// let mut original = SummaryBuilder::new(SummaryKind::Adaptive).with_r(16).build_mergeable();
    /// original.insert_batch(&[Point2::new(0.0, 0.0), Point2::new(3.0, 4.0)]);
    /// let bytes = original.encode_snapshot();           // checkpoint …
    /// let restored = SummaryBuilder::restore(&bytes).unwrap(); // … recover
    /// assert_eq!(restored.name(), "adaptive");
    /// assert_eq!(restored.points_seen(), 2);
    /// assert_eq!(restored.hull_ref().vertices(), original.hull_ref().vertices());
    /// ```
    ///
    /// Corrupted, truncated, or version-skewed bytes yield a typed
    /// [`SnapshotError`](crate::snapshot::SnapshotError) — never a panic.
    /// Windowed snapshots are not plain summaries; decode those with
    /// [`WindowedSummary::decode`](crate::snapshot::Snapshot::decode).
    pub fn restore(
        bytes: &[u8],
    ) -> Result<Box<dyn Mergeable + Send + Sync>, crate::snapshot::SnapshotError> {
        crate::snapshot::restore_mergeable(bytes)
    }

    /// Snapshot payload of the builder itself (embedded in windowed
    /// snapshots so a restored chain builds future buckets and query
    /// collectors identically).
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{kind_tag, put_u32, put_u64, put_u8};
        put_u8(out, kind_tag(self.kind));
        put_u32(out, self.r);
        put_u8(out, self.depth.is_some() as u8);
        put_u32(out, self.depth.unwrap_or(0));
        // The adaptive payload's queue byte, always 0 (see
        // `AdaptiveHull::snapshot_payload`).
        put_u8(out, 0);
        put_u64(out, self.seed);
        put_u64(out, self.max_clusters as u64);
    }

    /// Inverse of [`SummaryBuilder::snapshot_payload`].
    pub(crate) fn from_snapshot_payload(
        reader: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let tag = reader.u8()?;
        let kind = *SummaryKind::ALL
            .get(tag as usize)
            .ok_or(SnapshotError::Malformed("unknown builder kind"))?;
        let r = reader.u32()?;
        let has_depth = reader.u8()? != 0;
        let depth = reader.u32()?;
        if reader.u8()? != 0 {
            return Err(SnapshotError::Malformed("unknown queue kind"));
        }
        let seed = reader.u64()?;
        let max_clusters = reader.u64()? as usize;
        if r < 4 || max_clusters < 1 {
            return Err(SnapshotError::Malformed("invalid builder parameters"));
        }
        let adaptive_kind = matches!(
            kind,
            SummaryKind::Adaptive | SummaryKind::AdaptiveFixedBudget | SummaryKind::Cluster
        );
        if adaptive_kind && (!r.is_power_of_two() || !(8..=1 << 20).contains(&r)) {
            return Err(SnapshotError::Malformed(
                "adaptive kinds need power-of-two r >= 8",
            ));
        }
        if has_depth && depth > 32 {
            return Err(SnapshotError::Malformed("depth exceeds the grid limit"));
        }
        Ok(SummaryBuilder {
            kind,
            r,
            depth: has_depth.then_some(depth),
            seed,
            max_clusters,
        })
    }

    fn adaptive_config(&self) -> AdaptiveHullConfig {
        let mut config = AdaptiveHullConfig::new(self.r);
        if let Some(depth) = self.depth {
            config = config.with_depth(depth);
        }
        config
    }
}

impl From<AdaptiveHullConfig> for SummaryBuilder {
    /// An adaptive-kind builder carrying the config's `r` and depth.
    fn from(config: AdaptiveHullConfig) -> Self {
        let mut b = SummaryBuilder::new(SummaryKind::Adaptive).with_r(config.r);
        if let Some(depth) = config.depth {
            b = b.with_depth(depth);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::HullSummaryExt;
    use geom::Point2;

    fn spiral(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = 2.399963229728653 * i as f64;
                let rad = 1.0 + 0.01 * i as f64;
                Point2::new(rad * t.cos(), rad * t.sin())
            })
            .collect()
    }

    #[test]
    fn every_kind_builds_and_ingests() {
        let pts = spiral(500);
        for &kind in &SummaryKind::ALL {
            let mut s = SummaryBuilder::new(kind).with_r(16).build();
            s.insert_batch(&pts);
            assert_eq!(s.points_seen(), 500, "{kind}");
            assert_eq!(s.name(), kind.label(), "{kind}");
            assert!(s.hull_ref().len() >= 3, "{kind}");
        }
    }

    #[test]
    fn batched_ingestion_matches_per_point_loop_for_every_kind() {
        // Deterministic spot check of the insert_batch contract across the
        // registry (the heavy randomised version lives in
        // tests/proptest_summaries.rs): identical hull, sample size, seen
        // count, and error bound for chunked vs per-point feeding.
        let mut pts = spiral(400);
        // Interior-heavy tail so the skip/pre-hull fast paths engage.
        pts.extend((0..800).map(|i| {
            let t = i as f64 * 0.618;
            Point2::new(t.cos() * 2.0, t.sin() * 2.0)
        }));
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(16);
            let mut one = builder.build();
            for &p in &pts {
                one.insert(p);
            }
            let mut batched = builder.build();
            for chunk in pts.chunks(97) {
                batched.insert_batch(chunk);
            }
            assert_eq!(one.points_seen(), batched.points_seen(), "{kind}");
            assert_eq!(one.sample_size(), batched.sample_size(), "{kind}");
            assert_eq!(
                one.hull_ref().vertices(),
                batched.hull_ref().vertices(),
                "{kind}"
            );
            assert_eq!(one.error_bound(), batched.error_bound(), "{kind}");
        }
    }

    #[test]
    fn labels_round_trip_through_fromstr() {
        for &kind in &SummaryKind::ALL {
            assert_eq!(kind.label().parse::<SummaryKind>().unwrap(), kind);
        }
        assert!("no-such-kind".parse::<SummaryKind>().is_err());
    }

    #[test]
    fn every_kind_merges() {
        let pts = spiral(600);
        let (a, b) = pts.split_at(300);
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(16);
            let mut left = builder.build_mergeable();
            let mut right = builder.build_mergeable();
            left.insert_batch(a);
            right.insert_batch(b);
            left.merge_from(&right);
            assert_eq!(left.points_seen(), 600, "{kind}");
        }
    }

    #[test]
    fn extend_from_works_on_built_objects() {
        let mut s = SummaryBuilder::new(SummaryKind::Adaptive).with_r(8).build();
        let dyn_ref: &mut dyn HullSummary = &mut *s;
        dyn_ref.extend_from(spiral(100));
        assert_eq!(s.points_seen(), 100);
        assert!(s.sample_size() <= 17);
    }

    #[test]
    fn builder_from_adaptive_config() {
        let b: SummaryBuilder = AdaptiveHullConfig::new(32).with_depth(3).into();
        assert_eq!(b.kind(), SummaryKind::Adaptive);
        assert_eq!(b.r(), 32);
        let mut s = b.build();
        s.insert_batch(&spiral(200));
        assert!(s.sample_size() <= 65);
    }

    #[test]
    fn built_summaries_are_sendable() {
        let pts = spiral(200);
        let mut s = SummaryBuilder::new(SummaryKind::Adaptive).with_r(8).build();
        let handle = std::thread::spawn(move || {
            s.insert_batch(&pts);
            s.points_seen()
        });
        assert_eq!(handle.join().unwrap(), 200);
    }
}
