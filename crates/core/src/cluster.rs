//! ClusterHull — the paper's §8 extension (developed by the authors in
//! "Summarizing spatial data streams using ClusterHulls", ALENEX 2006):
//! a *shape* summary that reveals cavities and multiple components which a
//! single convex hull hides ("if the points formed an 'L' shape, then the
//! convex hull approximation hides the cavity").
//!
//! This is a faithful-in-spirit, simplified implementation: the stream is
//! partitioned online into at most `k` clusters, each summarised by its
//! own [`AdaptiveHull`]; when over budget, the pair of clusters whose
//! union hull has the smallest *cost increase* is merged (cost = hull area
//! plus a perimeter² term, the ALENEX paper's objective, which prefers
//! merging nearby/overlapping clusters and resists bridging distant
//! blobs). Merging re-summarises the union of the two samples, so the
//! whole structure remains a single-pass, `O(k·r)`-point summary.

use crate::adaptive::stream::{AdaptiveHull, AdaptiveHullConfig};
use crate::batch::incircle;
use crate::summary::{GenCache, HullCache, HullSummary, Mergeable};
use geom::{ConvexPolygon, Point2};
use std::collections::HashMap;

/// Configuration for [`ClusterHull`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterHullConfig {
    /// Maximum number of clusters `k`.
    pub max_clusters: usize,
    /// Adaptive-hull parameter per cluster.
    pub r: u32,
    /// Weight of the perimeter² term in the cost objective. The ALENEX
    /// paper's objective is `area + w·perimeter²`; `w = 0.05` works well
    /// for blob-like data.
    pub perimeter_weight: f64,
    /// A point within `join_factor · perimeter` of its nearest cluster
    /// joins it directly instead of opening a (transient) new cluster.
    pub join_factor: f64,
}

impl ClusterHullConfig {
    /// Sensible defaults for `k` clusters.
    pub fn new(max_clusters: usize) -> Self {
        assert!(max_clusters >= 1);
        ClusterHullConfig {
            max_clusters,
            r: 16,
            perimeter_weight: 0.05,
            join_factor: 0.1,
        }
    }

    /// Sets the per-cluster adaptive parameter.
    pub fn with_r(mut self, r: u32) -> Self {
        self.r = r;
        self
    }
}

#[derive(Debug, Clone)]
struct Cluster {
    /// Stable identity surviving `swap_remove` reordering; the pairwise
    /// merge-cost cache is keyed by id pairs.
    id: u64,
    summary: AdaptiveHull,
    hull: ConvexPolygon, // cached; refreshed on change
    /// Generation `hull` (and every derived cache below) was computed at —
    /// interior points leave the summary's hull untouched, so per-point
    /// recomputation is skipped unless the generation advanced (the
    /// dominant cost of cluster ingestion before this check).
    hull_gen: u64,
    /// Axis-aligned bounding box of `hull` (`min_x, min_y, max_x, max_y`):
    /// the hull lies inside it, so the distance from a query point to the
    /// box lower-bounds the distance to the hull — an O(1) reject for the
    /// nearest-cluster scan.
    bbox: (f64, f64, f64, f64),
    /// Inscribed circle of `hull` (`center, radius²`) from the batch
    /// machinery: a point inside it is strictly inside the hull, i.e. its
    /// distance is exactly 0 — an O(1) accept for the common "point lands
    /// in an existing cluster" case.
    incircle: Option<(Point2, f64)>,
    /// Cached `hull.perimeter()` (the join margin reads it per insert).
    perimeter: f64,
    /// Cached cost `area + w·perimeter²` under the configured weight.
    cost: f64,
}

impl Cluster {
    fn new(id: u64, r: u32, w: f64, p: Point2) -> Self {
        let mut summary = AdaptiveHull::new(AdaptiveHullConfig::new(r));
        summary.insert(p);
        let mut c = Cluster {
            id,
            summary,
            hull: ConvexPolygon::empty(),
            hull_gen: u64::MAX,
            bbox: (0.0, 0.0, 0.0, 0.0),
            incircle: None,
            perimeter: 0.0,
            cost: 0.0,
        };
        c.refresh(w);
        c
    }

    fn insert(&mut self, p: Point2, w: f64) {
        self.summary.insert(p);
        self.refresh(w);
    }

    /// Recomputes the hull clone and every derived cache iff the summary's
    /// hull generation advanced since the last refresh.
    fn refresh(&mut self, w: f64) {
        let gen = self.summary.hull_generation();
        if gen == self.hull_gen {
            return;
        }
        self.hull = self.summary.hull();
        self.hull_gen = gen;
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for v in self.hull.vertices() {
            min_x = min_x.min(v.x);
            min_y = min_y.min(v.y);
            max_x = max_x.max(v.x);
            max_y = max_y.max(v.y);
        }
        self.bbox = (min_x, min_y, max_x, max_y);
        self.incircle = incircle(&self.hull);
        self.perimeter = self.hull.perimeter();
        self.cost = self.hull.area() + w * self.perimeter * self.perimeter;
    }

    /// Squared distance from `p` to the bounding box (0 inside): a lower
    /// bound on `hull.distance_to_point(p)²` because the hull is contained
    /// in the box.
    #[inline]
    fn bbox_dist_sq(&self, p: Point2) -> f64 {
        let (min_x, min_y, max_x, max_y) = self.bbox;
        let dx = (min_x - p.x).max(p.x - max_x).max(0.0);
        let dy = (min_y - p.y).max(p.y - max_y).max(0.0);
        dx * dx + dy * dy
    }

    /// Exact containment (`distance == 0`) with O(1) filters in front:
    /// the inscribed-circle accept, the bbox reject, then the `O(log h)`
    /// fan search. Agrees with `hull.distance_to_point(p) == 0.0` on every
    /// input.
    #[inline]
    fn contains(&self, p: Point2) -> bool {
        if let Some((c, r2)) = self.incircle {
            if (p - c).norm_sq() <= r2 {
                return true;
            }
        }
        let (min_x, min_y, max_x, max_y) = self.bbox;
        if p.x < min_x || p.x > max_x || p.y < min_y || p.y > max_y {
            return false;
        }
        geom::locate::contains(&self.hull, p)
    }
}

/// Merge-cost cache entry: the cost delta of merging an id pair, valid
/// while both clusters still sit at the recorded hull generations.
#[derive(Clone, Copy, Debug)]
struct PairCost {
    gen_lo: u64,
    gen_hi: u64,
    delta: f64,
}

/// Online cluster-of-hulls shape summary (paper §8 / ALENEX'06 follow-up).
///
/// # Example
/// ```
/// use adaptive_hull::cluster::{ClusterHull, ClusterHullConfig};
/// use adaptive_hull::HullSummary;
/// use geom::Point2;
///
/// let mut ch = ClusterHull::new(ClusterHullConfig::new(4).with_r(8));
/// for i in 0..200 {
///     let t = i as f64 * 0.1;
///     ch.insert(Point2::new(t.cos(), t.sin()));           // ring at origin
///     ch.insert(Point2::new(50.0 + t.sin(), t.cos()));    // blob far away
/// }
/// // The two components stay separate (possibly split into <= 4 pieces
/// // while the budget allows); the gap between them is never covered.
/// assert!(ch.cluster_count() <= 4);
/// assert!(ch.covers(Point2::new(0.0, 0.0)));
/// assert!(ch.covers(Point2::new(50.0, 0.0)));
/// assert!(!ch.covers(Point2::new(25.0, 0.0)));
/// ```
#[derive(Debug, Clone)]
pub struct ClusterHull {
    config: ClusterHullConfig,
    clusters: Vec<Cluster>,
    seen: u64,
    /// Cache of the union hull reported through [`HullSummary::hull_ref`].
    cache: HullCache,
    distinct: GenCache<usize>,
    /// Next cluster id (monotone; ids are never reused).
    next_id: u64,
    /// Pairwise merge-cost deltas keyed by `(id_lo, id_hi)`. Entries stay
    /// valid while both clusters' hull generations are unchanged, so a
    /// budget trip only recomputes the rows touched by clusters that
    /// actually changed since the last trip instead of re-hulling all
    /// O(k²) pairs.
    pair_costs: HashMap<(u64, u64), PairCost>,
    /// Scratch for the union-of-samples point set (reused across merges).
    merge_scratch: Vec<Point2>,
    /// Scratch for the monotone chain inside `assign_hull_of`.
    hull_scratch: Vec<Point2>,
    /// Reused polygon buffer for candidate union hulls.
    trial_hull: ConvexPolygon,
}

impl ClusterHull {
    /// Creates an empty cluster summary.
    pub fn new(config: ClusterHullConfig) -> Self {
        ClusterHull {
            config,
            clusters: Vec::new(),
            seen: 0,
            cache: HullCache::new(),
            distinct: GenCache::new(),
            next_id: 0,
            pair_costs: HashMap::new(),
            merge_scratch: Vec::new(),
            hull_scratch: Vec::new(),
            trial_hull: ConvexPolygon::empty(),
        }
    }

    /// Number of clusters currently maintained.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// The per-cluster hulls.
    pub fn hulls(&self) -> Vec<ConvexPolygon> {
        self.clusters.iter().map(|c| c.hull.clone()).collect()
    }

    /// Sum of the cluster hull areas — the "shape area". For cavity-laden
    /// or multi-component streams this is far below the single-hull area.
    pub fn total_area(&self) -> f64 {
        self.clusters.iter().map(|c| c.hull.area()).sum()
    }

    /// `true` iff `p` lies in some cluster hull (the summarised shape).
    /// This is the shape query; [`HullSummary::hull_ref`] reports the
    /// single convex hull over all clusters instead.
    pub fn covers(&self, p: Point2) -> bool {
        self.clusters
            .iter()
            .any(|c| geom::locate::contains(&c.hull, p))
    }

    /// All stored sample points across the clusters.
    pub fn all_sample_points(&self) -> Vec<Point2> {
        self.clusters
            .iter()
            .flat_map(|c| c.summary.sample_points())
            .collect()
    }

    /// One point without cache bookkeeping (the caller invalidates: per
    /// point for `insert`, once per batch for `insert_batch`).
    fn insert_impl(&mut self, p: Point2) {
        assert!(p.is_finite(), "ClusterHull requires finite coordinates");
        self.seen += 1;
        let w = self.config.perimeter_weight;
        // Assign to the cluster whose hull is nearest (0 when inside),
        // picking exactly the cluster the plain O(k·h) distance scan
        // would: the first index attaining the strict minimum, with an
        // early exit at distance 0.
        //
        // Pass 1 — containment: a cluster containing `p` has distance 0,
        // which beats every earlier (strictly positive) distance and ends
        // the plain scan, so the *first containing cluster* is the winner
        // whenever one exists. Containment is O(1) for the bulk of points
        // (inscribed-circle accept / bbox reject) and O(log h) otherwise —
        // no exact distances at all on this path, which is the hot one:
        // in steady state almost every point lands inside some cluster.
        let mut best: Option<(usize, f64)> = None;
        for (i, c) in self.clusters.iter().enumerate() {
            if c.contains(p) {
                best = Some((i, 0.0));
                break;
            }
        }
        // Pass 2 — `p` escapes every hull: now the exact nearest matters.
        // The bbox lower bound skips clusters that provably cannot beat
        // the incumbent (only a strictly smaller distance displaces it),
        // and the containment test inside `distance_to_point` is skipped —
        // pass 1 already proved `p` outside.
        if best.is_none() {
            for (i, c) in self.clusters.iter().enumerate() {
                if let Some((_, bd)) = best {
                    if c.bbox_dist_sq(p) >= bd * bd {
                        continue;
                    }
                }
                let d = c.hull.boundary_distance(p);
                if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, d));
                }
            }
        }
        // Join the nearest cluster when inside it or within the join
        // margin of its boundary (prevents steady-state churn where every
        // boundary point spawns a transient cluster).
        if let Some((i, d)) = best {
            let margin = self.config.join_factor * self.clusters[i].perimeter;
            if d <= margin {
                self.clusters[i].insert(p, w);
                return;
            }
        }
        // Reaching here means no cluster exists yet, or the nearest one is
        // beyond its join margin (a contained point has d = 0 <= margin and
        // joined above): open a new cluster, then enforce the budget by
        // merging the cheapest pair. (Opening first and merging after lets
        // the cost objective decide whether the point really belongs to
        // its nearest cluster.)
        let id = self.next_id;
        self.next_id += 1;
        self.clusters.push(Cluster::new(id, self.config.r, w, p));
        while self.clusters.len() > self.config.max_clusters {
            self.merge_cheapest_pair();
        }
    }

    /// Snapshot payload: the configuration, stream accounting, and each
    /// cluster as `(stable id, nested AdaptiveHull envelope)` — the same
    /// codec all the way down. The derived per-cluster caches (hull, bbox,
    /// incircle, cost) and the pairwise merge-cost cache are pure
    /// memoisations of that state and are recomputed on restore (the
    /// pairwise cache eagerly, so `approx_bytes` survives the round trip).
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_bytes, put_f64, put_u32, put_u64, Snapshot};
        put_u64(out, self.config.max_clusters as u64);
        put_u32(out, self.config.r);
        put_f64(out, self.config.perimeter_weight);
        put_f64(out, self.config.join_factor);
        put_u64(out, self.seen);
        put_u64(out, self.next_id);
        put_u64(out, self.clusters.len() as u64);
        for c in &self.clusters {
            put_u64(out, c.id);
            put_bytes(out, &c.summary.encode());
        }
    }

    /// Inverse of [`ClusterHull::snapshot_payload`].
    pub(crate) fn from_snapshot_payload(
        reader: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{Snapshot, SnapshotError};
        let max_clusters = reader.u64()? as usize;
        if max_clusters < 1 {
            return Err(SnapshotError::Malformed("cluster budget must be >= 1"));
        }
        let r = reader.u32()?;
        if !r.is_power_of_two() || !(8..=1 << 20).contains(&r) {
            // Mirrors the per-cluster AdaptiveHull grid assert: without
            // this, a checksum-valid forged payload would decode Ok and
            // panic on the first insert that opens a cluster.
            return Err(SnapshotError::Malformed("cluster r outside the grid range"));
        }
        let perimeter_weight = reader.f64()?;
        let join_factor = reader.f64()?;
        let seen = reader.u64()?;
        let next_id = reader.u64()?;
        let cluster_count = reader.count(16)?;
        if cluster_count > max_clusters {
            return Err(SnapshotError::Malformed("more clusters than the budget"));
        }
        let config = ClusterHullConfig {
            max_clusters,
            r,
            perimeter_weight,
            join_factor,
        };
        let mut s = ClusterHull::new(config);
        s.seen = seen;
        s.next_id = next_id;
        let mut ids_seen = Vec::with_capacity(cluster_count);
        for _ in 0..cluster_count {
            let id = reader.u64()?;
            if id >= next_id || ids_seen.contains(&id) {
                return Err(SnapshotError::Malformed("invalid cluster id"));
            }
            ids_seen.push(id);
            let summary = AdaptiveHull::decode(reader.bytes()?)?;
            let mut cluster = Cluster {
                id,
                summary,
                hull: ConvexPolygon::empty(),
                hull_gen: u64::MAX,
                bbox: (0.0, 0.0, 0.0, 0.0),
                incircle: None,
                perimeter: 0.0,
                cost: 0.0,
            };
            cluster.refresh(perimeter_weight);
            s.clusters.push(cluster);
        }
        // The pairwise merge-cost cache holds every pair of live clusters
        // once a merge has happened (each merge prices all pairs, then
        // drops the loser's rows), so re-price them: the restored summary
        // then accounts the same `approx_bytes` as the original.
        if s.next_id > s.clusters.len() as u64 {
            let n = s.clusters.len();
            for i in 0..n {
                for j in i + 1..n {
                    s.pair_delta(i, j);
                }
            }
        }
        Ok(s)
    }

    /// The cost delta of merging clusters `i` and `j`, served from the
    /// pairwise cache when both clusters are unchanged since it was
    /// computed, recomputed (and re-cached) otherwise.
    fn pair_delta(&mut self, i: usize, j: usize) -> f64 {
        let (a, b) = (&self.clusters[i], &self.clusters[j]);
        let (key, gen_lo, gen_hi) = if a.id < b.id {
            ((a.id, b.id), a.hull_gen, b.hull_gen)
        } else {
            ((b.id, a.id), b.hull_gen, a.hull_gen)
        };
        if let Some(e) = self.pair_costs.get(&key) {
            if e.gen_lo == gen_lo && e.gen_hi == gen_hi {
                return e.delta;
            }
        }
        self.merge_scratch.clear();
        self.merge_scratch.extend(a.summary.sample_points());
        self.merge_scratch.extend(b.summary.sample_points());
        let mut trial = core::mem::replace(&mut self.trial_hull, ConvexPolygon::empty());
        trial.assign_hull_of(&self.merge_scratch, &mut self.hull_scratch);
        let per = trial.perimeter();
        let w = self.config.perimeter_weight;
        let merged_cost = trial.area() + w * per * per;
        self.trial_hull = trial;
        let delta = merged_cost - self.clusters[i].cost - self.clusters[j].cost;
        self.pair_costs.insert(
            key,
            PairCost {
                gen_lo,
                gen_hi,
                delta,
            },
        );
        delta
    }

    /// Merges the pair of clusters minimising the cost increase
    /// `cost(A ∪ B) − cost(A) − cost(B)`.
    ///
    /// Pair deltas are served from [`ClusterHull::pair_costs`]: between
    /// budget trips only the clusters that absorbed points (or the freshly
    /// opened one) have advanced generations, so the quadratic re-hulling
    /// of every pair collapses to the handful of changed rows.
    fn merge_cheapest_pair(&mut self) {
        let n = self.clusters.len();
        debug_assert!(n >= 2);
        let mut best = (0usize, 1usize, f64::INFINITY);
        for i in 0..n {
            for j in (i + 1)..n {
                let delta = self.pair_delta(i, j);
                if delta < best.2 {
                    best = (i, j, delta);
                }
            }
        }
        let (i, j, _) = best;
        let cj = self.clusters.swap_remove(j); // j > i, i stays valid
                                               // Absorb the loser wholesale: its stored sample is re-summarised
                                               // and the points it consumed-but-dropped are carried into the
                                               // survivor's seen-count, so per-cluster accounting never loses the
                                               // points an absorbed cluster had already digested.
        self.clusters[i].summary.merge_from(&cj.summary);
        let w = self.config.perimeter_weight;
        self.clusters[i].refresh(w);
        // Drop cache rows referencing the dead id; rows touching the
        // survivor self-invalidate through its advanced generation.
        let dead = cj.id;
        self.pair_costs
            .retain(|&(lo, hi), _| lo != dead && hi != dead);
    }
}

impl HullSummary for ClusterHull {
    fn insert(&mut self, p: Point2) {
        // Non-finite points are dropped, not counted (see `HullSummary`).
        if !p.is_finite() {
            return;
        }
        self.insert_impl(p);
        self.cache.invalidate();
    }

    fn insert_batch(&mut self, points: &[Point2]) {
        if points.iter().any(|p| !p.is_finite()) {
            // Drop non-finite points up front (the loop path drops them one
            // by one); recursing on the all-finite remainder preserves the
            // batch == loop equivalence contract.
            let finite: Vec<Point2> = points.iter().copied().filter(|p| p.is_finite()).collect();
            self.insert_batch(&finite);
            return;
        }
        // Clustering is order- and interior-sensitive (an interior point
        // still joins and grows a cluster), so no pre-hull reduction is
        // sound; the batch win is one union-hull cache invalidation per
        // chunk instead of per point.
        if points.is_empty() {
            return;
        }
        for &p in points {
            self.insert_impl(p);
        }
        self.cache.invalidate();
    }

    /// The single convex hull over every stored sample point — what the
    /// summary looks like when flattened to the common interface. The
    /// multi-component shape structure stays available through
    /// [`ClusterHull::hulls`] and [`ClusterHull::covers`].
    fn hull_ref(&self) -> &ConvexPolygon {
        self.cache
            .get_or_rebuild(|| ConvexPolygon::hull_of(&self.all_sample_points()))
    }

    fn hull_generation(&self) -> u64 {
        self.cache.generation()
    }

    fn sample_size(&self) -> usize {
        self.distinct.get_or_compute(self.cache.generation(), || {
            self.clusters.iter().map(|c| c.summary.sample_size()).sum()
        })
    }

    fn points_seen(&self) -> u64 {
        self.seen
    }

    fn approx_bytes(&self) -> usize {
        // Each cluster carries a full adaptive summary plus cached
        // geometry (hull, bbox, incircle); the pairwise merge-cost cache
        // rides on top. Dominates the trait default by design: a cluster
        // summary's envelope serializes every member hull, and spilling
        // must shrink the accounted footprint.
        let clusters: usize = self
            .clusters
            .iter()
            .map(|c| c.summary.approx_bytes() + 128 + c.hull.len() * size_of::<Point2>())
            .sum();
        192 + clusters + self.pair_costs.len() * 48
    }

    fn name(&self) -> &'static str {
        "cluster"
    }
}

impl Mergeable for ClusterHull {
    fn sample_points(&self) -> Vec<Point2> {
        self.all_sample_points()
    }

    fn absorb_seen(&mut self, n: u64) {
        self.seen += n;
    }

    fn encode_snapshot(&self) -> Vec<u8> {
        crate::snapshot::Snapshot::encode(self)
    }

    fn clone_box(&self) -> Box<dyn Mergeable + Send + Sync> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(cx: f64, cy: f64, rad: f64, n: usize, seed: u64) -> Vec<Point2> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let (x, y) = loop {
                    let x = next() * 2.0 - 1.0;
                    let y = next() * 2.0 - 1.0;
                    if x * x + y * y <= 1.0 {
                        break (x, y);
                    }
                };
                Point2::new(cx + x * rad, cy + y * rad)
            })
            .collect()
    }

    #[test]
    fn separated_blobs_stay_separate() {
        let mut ch = ClusterHull::new(ClusterHullConfig::new(4).with_r(8));
        let blobs = [
            blob(0.0, 0.0, 1.0, 500, 1),
            blob(20.0, 0.0, 1.0, 500, 2),
            blob(0.0, 20.0, 1.0, 500, 3),
        ];
        // Interleave so clustering cannot rely on arrival order.
        for i in 0..500 {
            for b in &blobs {
                ch.insert(b[i]);
            }
        }
        // Three blobs, up to one transient extra (budget is 4; the cost
        // objective never prefers a cross-blob merge while same-blob pairs
        // exist).
        let k = ch.cluster_count();
        assert!((3..=4).contains(&k), "expected 3-4 clusters, got {k}");
        // Each blob centre is covered, the gaps are not.
        assert!(ch.covers(Point2::new(0.0, 0.0)));
        assert!(ch.covers(Point2::new(20.0, 0.0)));
        assert!(ch.covers(Point2::new(0.0, 20.0)));
        assert!(!ch.covers(Point2::new(10.0, 0.0)));
        assert!(!ch.covers(Point2::new(10.0, 10.0)));
        assert_eq!(ch.points_seen(), 1500);
    }

    #[test]
    fn budget_forces_merging_of_nearest() {
        let mut ch = ClusterHull::new(ClusterHullConfig::new(2).with_r(8));
        for p in blob(0.0, 0.0, 1.0, 300, 4) {
            ch.insert(p);
        }
        for p in blob(3.0, 0.0, 1.0, 300, 5) {
            ch.insert(p);
        }
        for p in blob(50.0, 0.0, 1.0, 300, 6) {
            ch.insert(p);
        }
        assert!(ch.cluster_count() <= 2);
        // The two near blobs merged; the far one kept its own cluster:
        // total area stays far below a single hull bridging to x = 50.
        let single = {
            let mut all = blob(0.0, 0.0, 1.0, 300, 4);
            all.extend(blob(3.0, 0.0, 1.0, 300, 5));
            all.extend(blob(50.0, 0.0, 1.0, 300, 6));
            ConvexPolygon::hull_of(&all).area()
        };
        assert!(
            ch.total_area() < single / 3.0,
            "cluster area {} vs single hull {single}",
            ch.total_area()
        );
    }

    #[test]
    fn l_shape_cavity_is_preserved() {
        // The §8 motivating example: an L-shaped stream. A single hull
        // covers the cavity; the cluster hulls should not.
        let mut ch = ClusterHull::new(ClusterHullConfig::new(6).with_r(8));
        let mut s = 9u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut all = Vec::new();
        for _ in 0..4000 {
            // Vertical bar [0,1]x[0,10] and horizontal bar [0,10]x[0,1].
            let p = if next() < 0.5 {
                Point2::new(next(), next() * 10.0)
            } else {
                Point2::new(next() * 10.0, next())
            };
            all.push(p);
            ch.insert(p);
        }
        let single_area = ConvexPolygon::hull_of(&all).area(); // ~50
        let cluster_area = ch.total_area(); // ideal L area = 19
        assert!(
            cluster_area < single_area * 0.75,
            "clusters {cluster_area} should beat single hull {single_area}"
        );
        // The far corner of the cavity must be outside the summarised shape
        // (a single hull would cover it).
        assert!(
            !ch.covers(Point2::new(8.0, 8.0)),
            "cavity corner must stay uncovered"
        );
        // The shape itself is well covered: clusters tile the bars with
        // convex pieces (tiny gaps between adjacent pieces are possible, so
        // measure coverage over the actual stream with a small margin).
        let near = all
            .iter()
            .filter(|p| ch.hulls().iter().any(|h| h.distance_to_point(**p) <= 0.3))
            .count();
        assert!(
            near * 100 >= all.len() * 95,
            "only {near}/{} stream points near the summarised shape",
            all.len()
        );
    }

    #[test]
    fn sample_budget_is_bounded() {
        let mut ch = ClusterHull::new(ClusterHullConfig::new(5).with_r(8));
        for p in blob(0.0, 0.0, 5.0, 3000, 10) {
            ch.insert(p);
        }
        assert!(ch.sample_size() <= 5 * (2 * 8 + 1));
    }

    #[test]
    fn degenerate_streams() {
        let mut ch = ClusterHull::new(ClusterHullConfig::new(3));
        for _ in 0..50 {
            ch.insert(Point2::new(1.0, 1.0));
        }
        assert_eq!(ch.cluster_count(), 1);
        assert!(ch.covers(Point2::new(1.0, 1.0)));
        assert!(!ch.covers(Point2::new(1.1, 1.0)));
        // A single coincident cluster has exactly zero area.
        assert_eq!(ch.total_area().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn merging_carries_absorbed_seen_counts() {
        // Regression: merge_cheapest_pair used to drop the absorbed
        // cluster's consumed-but-not-stored count (`let _ = carried;`), so
        // after any merge the per-cluster accounting under-reported the
        // stream. The invariant: every stream point is consumed by exactly
        // one cluster summary, so the per-cluster seen-counts always sum
        // to the whole summary's.
        let mut ch = ClusterHull::new(ClusterHullConfig::new(2).with_r(8));
        // Three well-separated dense blobs under a budget of 2 force
        // merges of clusters that have each digested (and dropped) many
        // points.
        for i in 0..400 {
            for (j, b) in [
                blob(0.0, 0.0, 1.0, 400, 21),
                blob(6.0, 0.0, 1.0, 400, 22),
                blob(0.0, 6.0, 1.0, 400, 23),
            ]
            .iter()
            .enumerate()
            {
                ch.insert(b[i]);
                let _ = j;
            }
        }
        let per_cluster: u64 = ch.clusters.iter().map(|c| c.summary.points_seen()).sum();
        assert_eq!(
            per_cluster,
            ch.points_seen(),
            "cluster summaries forgot {} absorbed points",
            ch.points_seen() as i64 - per_cluster as i64
        );
        assert_eq!(ch.points_seen(), 1200);
    }

    #[test]
    fn prefiltered_assignment_matches_plain_scan() {
        // The incircle accept + bbox reject must leave the nearest-cluster
        // decision exactly as the plain O(k·h) distance scan made it; feed
        // an adversarial mixture and compare against a reference scan done
        // with distance_to_point on the live hulls before each insert.
        let mut ch = ClusterHull::new(ClusterHullConfig::new(4).with_r(8));
        let pts: Vec<Point2> = blob(0.0, 0.0, 2.0, 300, 31)
            .into_iter()
            .zip(blob(9.0, 1.0, 2.0, 300, 32))
            .flat_map(|(a, b)| [a, b])
            .collect();
        for &p in &pts {
            // Reference decision on the current state.
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in ch.clusters.iter().enumerate() {
                let d = c.hull.distance_to_point(p);
                if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, d));
                }
                if d == 0.0 {
                    break;
                }
            }
            let expect_join = best
                .map(|(i, d)| d <= ch.config.join_factor * ch.clusters[i].perimeter)
                .unwrap_or(false);
            let counts_before: Vec<u64> = ch
                .clusters
                .iter()
                .map(|c| c.summary.points_seen())
                .collect();
            let k_before = ch.cluster_count();
            ch.insert(p);
            if expect_join {
                let (i, _) = best.unwrap();
                assert_eq!(ch.cluster_count(), k_before, "joined, no new cluster");
                assert_eq!(
                    ch.clusters[i].summary.points_seen(),
                    counts_before[i] + 1,
                    "prefilter sent the point to a different cluster"
                );
            }
        }
    }
}
