//! The "partially adaptive" hull of the paper's fourth experiment
//! (Table 1, "Changing ellipse"): adaptive sample directions are chosen on
//! a training prefix, then *frozen* — the extrema keep updating but the
//! directions never change. The paper uses it as a cautionary baseline:
//! a direction set tuned to the wrong distribution performs roughly as
//! poorly as plain uniform sampling.

use crate::batch::{incircle, BatchScratch, CertCache, BATCH_LEAF, PREFILTER_MIN_DIRS};
use crate::summary::{GenCache, HullCache, HullSummary, Mergeable};
use geom::{ConvexPolygon, Point2, Vec2};
use std::sync::Arc;

/// A hull summary with an arbitrary *fixed* set of sample directions.
///
/// The fan is immutable for the life of the summary, so it is stored
/// behind an [`Arc`]: a fleet of frozen summaries over the same fan (the
/// multi-tenant engine, [`crate::tenant`]) shares **one** direction-table
/// allocation instead of one per stream.
#[derive(Clone, Debug)]
pub struct FrozenHull {
    dirs: Arc<[Vec2]>,
    extrema: Vec<Point2>,
    /// Cached support values `extrema[i].dot(dirs[i])` (see
    /// [`NaiveUniformHull`](crate::uniform::NaiveUniformHull): same
    /// branch-light scan).
    dots: Vec<f64>,
    seen: u64,
    cache: HullCache,
    distinct: GenCache<usize>,
    scratch: BatchScratch,
}

impl FrozenHull {
    /// Creates a frozen hull from `(direction, initial extremum)` pairs —
    /// typically the output of
    /// [`FixedBudgetAdaptiveHull::directions`](crate::adaptive::fixed_budget::FixedBudgetAdaptiveHull::directions)
    /// after a training phase.
    pub fn from_directions(pairs: Vec<(Vec2, Point2)>) -> Self {
        let (dirs, extrema): (Vec<Vec2>, Vec<Point2>) = pairs.into_iter().unzip();
        let dots = extrema.iter().zip(&dirs).map(|(e, &u)| e.dot(u)).collect();
        FrozenHull {
            dirs: dirs.into(),
            extrema,
            dots,
            seen: 0,
            cache: HullCache::new(),
            distinct: GenCache::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Creates a frozen hull with the given directions and no extrema yet
    /// (the first point will own all of them).
    pub fn from_units(dirs: Vec<Vec2>) -> Self {
        FrozenHull::from_shared_units(dirs.into())
    }

    /// Like [`FrozenHull::from_units`], but over a direction table owned
    /// elsewhere: every summary built from the same `Arc` shares the one
    /// allocation (and [`HullSummary::approx_bytes`] stops charging for it).
    pub fn from_shared_units(dirs: Arc<[Vec2]>) -> Self {
        FrozenHull {
            dirs,
            extrema: Vec::new(),
            dots: Vec::new(),
            seen: 0,
            cache: HullCache::new(),
            distinct: GenCache::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Re-points `dirs` at `table` when the two fans are bit-identical —
    /// the restore path of the tenant engine dedupes the per-stream fan a
    /// snapshot necessarily carries back into the shared table. A no-op
    /// (and harmless) on any mismatch.
    pub(crate) fn intern_directions(&mut self, table: &Arc<[Vec2]>) {
        if Arc::ptr_eq(&self.dirs, table) || self.dirs.len() != table.len() {
            return;
        }
        let same = self
            .dirs
            .iter()
            .zip(table.iter())
            .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits());
        if same {
            self.dirs = table.clone();
        }
    }

    /// Number of fixed directions.
    pub fn direction_count(&self) -> usize {
        self.dirs.len()
    }

    /// The extremum for direction `i` (`None` before the first point when
    /// constructed via [`FrozenHull::from_units`]).
    pub fn extremum(&self, i: usize) -> Option<Point2> {
        self.extrema.get(i).copied()
    }

    /// The `i`-th fixed direction.
    pub fn direction(&self, i: usize) -> Option<Vec2> {
        self.dirs.get(i).copied()
    }

    /// The direction scan without seen/cache bookkeeping; `true` iff any
    /// extremum changed.
    #[inline]
    fn scan(&mut self, p: Point2) -> bool {
        if self.extrema.is_empty() {
            self.extrema = vec![p; self.dirs.len()];
            self.dots = self.dirs.iter().map(|&u| p.dot(u)).collect();
            return true;
        }
        let mut changed = false;
        for ((e, d), u) in self
            .extrema
            .iter_mut()
            .zip(self.dots.iter_mut())
            .zip(self.dirs.iter())
        {
            let nd = p.dot(*u);
            if nd > *d {
                *e = p;
                *d = nd;
                changed = true;
            }
        }
        changed
    }
}

impl FrozenHull {
    /// Snapshot payload: the frozen direction fan (arbitrary unit vectors,
    /// stored bit-exactly — a seed-rotated fan restores without knowing
    /// the seed), the extrema, and the seen count.
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_point, put_u64, put_vec2};
        put_u64(out, self.seen);
        put_u64(out, self.dirs.len() as u64);
        for &d in self.dirs.iter() {
            put_vec2(out, d);
        }
        put_u64(out, self.extrema.len() as u64);
        for &e in &self.extrema {
            put_point(out, e);
        }
    }

    /// Inverse of [`FrozenHull::snapshot_payload`].
    pub(crate) fn from_snapshot_payload(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let seen = r.u64()?;
        let dir_count = r.count(16)?;
        let mut dirs = Vec::with_capacity(dir_count);
        for _ in 0..dir_count {
            dirs.push(r.vec2()?);
        }
        let ext_count = r.count(16)?;
        if ext_count != 0 && ext_count != dirs.len() {
            return Err(SnapshotError::Malformed("extrema count must be 0 or dirs"));
        }
        let mut extrema = Vec::with_capacity(ext_count);
        for _ in 0..ext_count {
            extrema.push(r.point()?);
        }
        let mut s = if extrema.is_empty() {
            FrozenHull::from_units(dirs)
        } else {
            FrozenHull::from_directions(dirs.into_iter().zip(extrema).collect())
        };
        s.seen = seen;
        Ok(s)
    }
}

impl HullSummary for FrozenHull {
    fn insert(&mut self, p: Point2) {
        // Non-finite points are dropped, not counted (see `HullSummary`).
        if !p.is_finite() {
            return;
        }
        self.seen += 1;
        if self.scan(p) {
            self.cache.invalidate();
        }
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
        if points.len() <= BATCH_LEAF {
            for &p in points {
                self.insert(p);
            }
            return;
        }
        let mut changed = false;
        if self.dirs.len() >= PREFILTER_MIN_DIRS {
            // Large fans: reduce the chunk to its hull-boundary points
            // first (only they can beat any direction — ties included).
            let mut scratch = core::mem::take(&mut self.scratch);
            match scratch.boundary_survivors(points) {
                None => {
                    // Non-finite input: replicate the loop's NaN semantics.
                    for &p in points {
                        self.insert(p);
                    }
                }
                Some(survivors) => {
                    self.seen += points.len() as u64;
                    for &p in survivors {
                        changed |= self.scan(p);
                    }
                }
            }
            self.scratch = scratch;
        } else {
            // Small fans: interior certificate of the hull of extrema (a
            // certified point is strictly dominated in every direction, so
            // the scan would be a no-op; see `batch.rs`).
            let mut cert = CertCache::new(32);
            for &p in points {
                self.seen += 1;
                if cert.covers(p, || incircle(&ConvexPolygon::hull_of(&self.extrema))) {
                    continue;
                }
                if self.scan(p) {
                    changed = true;
                    cert.invalidate();
                }
            }
        }
        if changed {
            self.cache.invalidate();
        }
    }

    fn hull_ref(&self) -> &ConvexPolygon {
        self.cache
            .get_or_rebuild(|| ConvexPolygon::hull_of(&self.extrema))
    }

    fn hull_generation(&self) -> u64 {
        self.cache.generation()
    }

    fn sample_size(&self) -> usize {
        self.distinct.get_or_compute(self.cache.generation(), || {
            crate::uniform::distinct_points(&self.extrema).len()
        })
    }

    fn points_seen(&self) -> u64 {
        self.seen
    }

    fn name(&self) -> &'static str {
        "frozen"
    }

    // `error_bound` stays `None`: a frozen fan tuned to the wrong
    // distribution carries no live guarantee — the paper's Table 1 point.

    fn approx_bytes(&self) -> usize {
        // The fan is charged only when this summary is its sole owner —
        // shared tables cost the fleet one allocation, not one per stream.
        let fan = if Arc::strong_count(&self.dirs) > 1 {
            0
        } else {
            self.dirs.len() * core::mem::size_of::<Vec2>()
        };
        128 + fan
            + self.extrema.len() * core::mem::size_of::<Point2>()
            + self.dots.len() * core::mem::size_of::<f64>()
    }
}

impl Mergeable for FrozenHull {
    fn sample_points(&self) -> Vec<Point2> {
        crate::uniform::distinct_points(&self.extrema)
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
    use crate::adaptive::fixed_budget::FixedBudgetAdaptiveHull;

    #[test]
    fn tracks_extrema_in_its_directions() {
        let dirs = vec![
            Vec2::new(1.0, 0.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(-1.0, 0.0),
        ];
        let mut f = FrozenHull::from_units(dirs);
        f.insert(Point2::new(0.0, 0.0));
        f.insert(Point2::new(5.0, 1.0));
        f.insert(Point2::new(-2.0, 7.0));
        assert_eq!(f.extremum(0), Some(Point2::new(5.0, 1.0)));
        assert_eq!(f.extremum(1), Some(Point2::new(-2.0, 7.0)));
        assert_eq!(f.extremum(2), Some(Point2::new(-2.0, 7.0)));
        assert_eq!(f.points_seen(), 3);
    }

    #[test]
    fn freeze_after_training() {
        // Train a fixed-budget hull on a vertical segment cloud, freeze,
        // then feed a horizontal one: the frozen hull should describe the
        // horizontal extent poorly (that is its entire point).
        let mut trainer = FixedBudgetAdaptiveHull::new(8);
        for i in 0..500 {
            let t = i as f64 / 500.0;
            trainer.insert(Point2::new((t * 37.0).sin() * 0.1, t * 20.0 - 10.0));
        }
        let mut frozen = FrozenHull::from_directions(trainer.directions());
        let n_dirs = frozen.direction_count();
        assert!(n_dirs >= 8);
        for i in 0..500 {
            let t = i as f64 / 500.0;
            frozen.insert(Point2::new(t * 40.0 - 20.0, (t * 57.0).sin() * 0.1));
        }
        assert_eq!(frozen.direction_count(), n_dirs, "directions never change");
        // It still sees the x extremes (some direction has positive x
        // component), so the hull diameter is roughly right...
        let d = geom::calipers::diameter(&frozen.hull()).unwrap().2;
        assert!(d > 30.0);
    }

    #[test]
    fn sample_size_deduplicates() {
        let mut f = FrozenHull::from_units(vec![
            Vec2::new(1.0, 0.0),
            Vec2::new(1.0, 0.1),
            Vec2::new(1.0, -0.1),
        ]);
        f.insert(Point2::new(0.0, 0.0));
        f.insert(Point2::new(10.0, 0.0));
        // One point owns all three directions.
        assert_eq!(f.sample_size(), 1);
    }
}
