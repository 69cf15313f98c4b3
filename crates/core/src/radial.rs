//! Radial histogram hull — the Cormode–Muthukrishnan baseline (§1.2).
//!
//! The plane is divided into `r` angular sectors around a fixed origin (the
//! first stream point); each sector keeps the point farthest from the
//! origin. The hull of the kept points approximates the convex hull with
//! error `O(D/r)`, like uniform direction sampling but with a different
//! failure mode (it is sensitive to where the origin lands).

use crate::summary::{HullCache, HullSummary, Mergeable};
use core::f64::consts::TAU;
use geom::dyadic::fan_unit;
use geom::{ConvexPolygon, Point2, Vec2};
use std::sync::Arc;

/// `true` iff the angle of `(x, y)` under the `atan2().rem_euclid(TAU)`
/// convention lies in the lower half-turn `[π, 2π)`. The zero vector never
/// reaches this (callers reject `p == origin` first).
#[inline]
fn lower_half(x: f64, y: f64) -> bool {
    y < 0.0 || (y == 0.0 && x < 0.0) // lint:allow(float-cmp): exact half-turn boundary — either signed zero lands the π ray in the lower half iff x < 0, matching atan2().rem_euclid(TAU) bit-for-bit
}

/// Radial-histogram convex hull summary.
#[derive(Clone, Debug)]
pub struct RadialHull {
    r: u32,
    origin: Option<Point2>,
    /// Farthest point per sector (`None` = sector empty so far).
    buckets: Vec<Option<(f64, Point2)>>,
    /// Sector boundary directions `(cos, sin)(2πj/r)` with a precomputed
    /// half-turn flag, in ascending angular order — the lookup table for
    /// the trig-free [`sector`](RadialHull::sector_of) search. A pure
    /// function of `r`, held behind an [`Arc`] so a fleet of same-`r`
    /// summaries ([`crate::tenant`]) shares one table allocation.
    bounds: Arc<[(Vec2, bool)]>,
    seen: u64,
    cache: HullCache,
}

impl RadialHull {
    /// Creates the summary with `r >= 4` angular sectors.
    pub fn new(r: u32) -> Self {
        assert!(r >= 4, "need at least 4 sectors, got {r}");
        RadialHull::with_shared_bounds(r, RadialHull::sector_bounds(r))
    }

    /// The sector-boundary lookup table for `r` sectors — build it once and
    /// hand the same `Arc` to [`RadialHull::with_shared_bounds`] for every
    /// stream of a fleet.
    pub fn sector_bounds(r: u32) -> Arc<[(Vec2, bool)]> {
        (0..r)
            .map(|j| {
                let d = fan_unit(u64::from(j), u64::from(r));
                (d, lower_half(d.x, d.y))
            })
            .collect()
    }

    /// Like [`RadialHull::new`], but sharing a boundary table owned
    /// elsewhere (must come from [`RadialHull::sector_bounds`]`(r)`; a
    /// table of the wrong length is discarded and recomputed, so the
    /// constructor is total apart from the `r >= 4` contract).
    pub fn with_shared_bounds(r: u32, bounds: Arc<[(Vec2, bool)]>) -> Self {
        assert!(r >= 4, "need at least 4 sectors, got {r}");
        let bounds = if bounds.len() == r as usize {
            bounds
        } else {
            RadialHull::sector_bounds(r)
        };
        RadialHull {
            r,
            origin: None,
            buckets: vec![None; r as usize],
            bounds,
            seen: 0,
            cache: HullCache::new(),
        }
    }

    /// Re-points `bounds` at `table` when it matches (same length — the
    /// table is a pure function of `r`, so same length means bit-identical
    /// contents). Restore-path dedup for the tenant engine.
    pub(crate) fn intern_bounds(&mut self, table: &Arc<[(Vec2, bool)]>) {
        if !Arc::ptr_eq(&self.bounds, table) && table.len() == self.r as usize {
            self.bounds = table.clone();
        }
    }

    /// Number of sectors.
    pub fn r(&self) -> u32 {
        self.r
    }

    /// The origin (first stream point), if any input has been seen.
    pub fn origin(&self) -> Option<Point2> {
        self.origin
    }

    /// The sector index `p` falls in relative to the current origin
    /// (`None` before the first point, or for `p` equal to the origin).
    ///
    /// Exposed for the property tests pinning the trig-free assignment
    /// against the direct `⌊angle/(2π/r)⌋` formula.
    pub fn sector_of(&self, p: Point2) -> Option<usize> {
        let origin = self.origin?;
        // distance_sq is a sum of squares, so `<= 0.0` is exactly the
        // "p coincides with the origin" test (and rejects nothing else).
        if origin.distance_sq(p) <= 0.0 {
            return None;
        }
        Some(self.sector(p, origin))
    }

    /// Sector of `p` around `origin` — **no trig in the hot loop**: where
    /// the v1 formula computed `⌊atan2(v)·r/2π⌋` per point, this compares
    /// `v` against the precomputed boundary directions. A boundary at or
    /// below `v`'s angle is detected by half-turn flag (one comparison)
    /// or, within the same half-turn (spans < π, so the sign of the cross
    /// product is the sign of the angle difference), by one cross product.
    /// The boundaries are in ascending angular order, so the count of
    /// boundaries not exceeding `v` is a partition point: `O(log r)`
    /// multiply/compare steps, no `atan2`, no division.
    fn sector(&self, p: Point2, origin: Point2) -> usize {
        let v = p - origin;
        let vh = lower_half(v.x, v.y);
        let count = self.bounds.partition_point(|&(d, dh)| {
            if dh != vh {
                // Different half-turns: the boundary precedes `v` iff it
                // is the upper-half one.
                !dh
            } else {
                d.cross(v) >= 0.0
            }
        });
        // `bounds[0]` is angle 0 and always counted, so `count >= 1`.
        count - 1
    }

    /// One point without cache bookkeeping; `true` iff the sample changed.
    ///
    /// No chunk pre-hull here: the per-sector *farthest-from-origin* winner
    /// need not lie on the chunk's convex hull (a narrow sector can be won
    /// by an interior point), so every point must be bucketed — the batch
    /// win is the deferred single cache invalidation.
    #[inline]
    fn insert_inner(&mut self, p: Point2) -> bool {
        // Non-finite points are dropped, not counted (see `HullSummary`).
        if !p.is_finite() {
            return false;
        }
        self.seen += 1;
        let origin = match self.origin {
            None => {
                self.origin = Some(p);
                return true;
            }
            Some(o) => o,
        };
        let d2 = origin.distance_sq(p);
        // Sum of squares: `<= 0.0` is exactly the duplicate-origin test.
        if d2 <= 0.0 {
            return false;
        }
        let s = self.sector(p, origin);
        match &mut self.buckets[s] {
            slot @ None => {
                *slot = Some((d2, p));
                true
            }
            Some((best, q)) => {
                if d2 > *best {
                    *best = d2;
                    *q = p;
                    true
                } else {
                    false
                }
            }
        }
    }
}

impl RadialHull {
    /// Snapshot payload: `r`, seen count, the origin, and each sector's
    /// stored point (the cached distance is recomputed on restore with the
    /// exact expression that produced it, so it is bit-identical).
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_point, put_u32, put_u64, put_u8};
        put_u32(out, self.r);
        put_u64(out, self.seen);
        put_u8(out, self.origin.is_some() as u8);
        if let Some(o) = self.origin {
            put_point(out, o);
        }
        for bucket in &self.buckets {
            put_u8(out, bucket.is_some() as u8);
            if let Some((_, p)) = bucket {
                put_point(out, *p);
            }
        }
    }

    /// Inverse of [`RadialHull::snapshot_payload`].
    pub(crate) fn from_snapshot_payload(
        reader: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let r = reader.u32()?;
        if r < 4 || r as u64 > reader.remaining() as u64 {
            return Err(SnapshotError::Malformed("implausible radial sector count"));
        }
        let seen = reader.u64()?;
        let origin = if reader.u8()? != 0 {
            Some(reader.point()?)
        } else {
            None
        };
        let mut s = RadialHull::new(r);
        s.seen = seen;
        s.origin = origin;
        for bucket in &mut s.buckets {
            if reader.u8()? != 0 {
                let p = reader.point()?;
                let o = origin.ok_or(SnapshotError::Malformed("occupied sector without origin"))?;
                *bucket = Some((o.distance_sq(p), p));
            }
        }
        Ok(s)
    }
}

impl HullSummary for RadialHull {
    fn insert(&mut self, p: Point2) {
        if self.insert_inner(p) {
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
        let mut changed = false;
        for &p in points {
            changed |= self.insert_inner(p);
        }
        if changed {
            self.cache.invalidate();
        }
    }

    fn hull_ref(&self) -> &ConvexPolygon {
        self.cache.get_or_rebuild(|| {
            let mut pts: Vec<Point2> = self.buckets.iter().flatten().map(|&(_, p)| p).collect();
            if let Some(o) = self.origin {
                pts.push(o);
            }
            ConvexPolygon::hull_of(&pts)
        })
    }

    fn hull_generation(&self) -> u64 {
        self.cache.generation()
    }

    fn sample_size(&self) -> usize {
        let occupied = self.buckets.iter().flatten().count();
        occupied + usize::from(self.origin.is_some())
    }

    fn points_seen(&self) -> u64 {
        self.seen
    }

    fn name(&self) -> &'static str {
        "radial"
    }

    fn error_bound(&self) -> Option<f64> {
        // Every stream point shares a sector with a stored point at least
        // as far from the origin, so it lies within `R·sin(θ0)` of the
        // segment origin→stored (Cormode–Muthukrishnan, `O(D/r)`).
        let r_max = self
            .buckets
            .iter()
            .flatten()
            .map(|&(d2, _)| d2)
            .fold(0.0f64, f64::max)
            .sqrt();
        Some(r_max * (TAU / self.r as f64).sin())
    }

    fn approx_bytes(&self) -> usize {
        // The boundary table is charged only when this summary is its sole
        // owner — a shared table costs the fleet one allocation.
        let table = if Arc::strong_count(&self.bounds) > 1 {
            0
        } else {
            self.bounds.len() * core::mem::size_of::<(Vec2, bool)>()
        };
        96 + table + self.buckets.len() * core::mem::size_of::<Option<(f64, Point2)>>()
    }
}

impl Mergeable for RadialHull {
    fn sample_points(&self) -> Vec<Point2> {
        let mut pts: Vec<Point2> = self.buckets.iter().flatten().map(|&(_, p)| p).collect();
        if let Some(o) = self.origin {
            pts.push(o);
        }
        pts
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

    #[test]
    fn keeps_farthest_per_sector() {
        let mut h = RadialHull::new(4);
        h.insert(Point2::new(0.0, 0.0)); // origin
        h.insert(Point2::new(1.0, 0.1));
        h.insert(Point2::new(3.0, 0.1)); // same sector, farther
        h.insert(Point2::new(2.0, 0.1)); // same sector, nearer: ignored
        assert_eq!(h.sample_size(), 2);
        let hull = h.hull();
        assert!(hull.vertices().contains(&Point2::new(3.0, 0.1)));
        assert!(!hull.vertices().contains(&Point2::new(2.0, 0.1)));
    }

    #[test]
    fn error_is_bounded_on_circle() {
        use crate::exact::ExactHull;
        let pts: Vec<Point2> = (0..2000)
            .map(|i| {
                let t = TAU * (i as f64) * 0.618033988749895;
                Point2::new(4.0 * t.cos(), 4.0 * t.sin())
            })
            .collect();
        let mut h = RadialHull::new(32);
        let mut e = ExactHull::new();
        // Seed the origin near the centre for a fair radial run.
        h.insert(Point2::new(0.1, 0.0));
        e.insert(Point2::new(0.1, 0.0));
        for &q in &pts {
            h.insert(q);
            e.insert(q);
        }
        let err = h.hull().directed_hausdorff_from(&e.hull());
        let d = 8.0;
        assert!(err <= TAU * d / 32.0, "radial error {err} too large");
        assert!(h.sample_size() <= 33);
    }

    #[test]
    fn degenerate_streams() {
        let mut h = RadialHull::new(8);
        for _ in 0..5 {
            h.insert(Point2::new(1.0, 1.0));
        }
        assert_eq!(h.sample_size(), 1);
        assert_eq!(h.hull().len(), 1);
        assert_eq!(h.points_seen(), 5);
    }

    #[test]
    fn collinear_stream() {
        let mut h = RadialHull::new(8);
        for i in 0..100 {
            h.insert(Point2::new(i as f64, 0.0));
        }
        let hull = h.hull();
        assert_eq!(hull.len(), 2);
        assert!((geom::calipers::diameter(&hull).unwrap().2 - 99.0).abs() < 1e-12);
    }

    /// The v1 trig formula the cross-product search replaced.
    fn sector_atan2(r: u32, v: geom::Vec2) -> usize {
        let ang = v.angle().rem_euclid(TAU);
        let idx = (ang / TAU * r as f64).floor() as usize;
        idx.min(r as usize - 1)
    }

    #[test]
    fn sector_matches_atan2_formula_on_dense_sweep() {
        // Dense angular sweep at several radii, deliberately avoiding the
        // exact boundary angles (where the two formulas may legitimately
        // disagree by one ulp of rounding); the axis directions themselves
        // are covered by the cardinal cases below.
        for r in [4u32, 5, 8, 16, 32, 37] {
            let mut h = RadialHull::new(r);
            h.insert(Point2::new(0.0, 0.0));
            for k in 0..4096 {
                let ang = TAU * (k as f64 + 0.13) / 4096.0;
                for rad in [1e-6, 1.0, 1e9] {
                    let v = geom::Vec2::from_angle(ang) * rad;
                    let p = Point2::new(v.x, v.y);
                    assert_eq!(
                        h.sector_of(p),
                        Some(sector_atan2(r, v)),
                        "r={r} ang={ang} rad={rad}"
                    );
                }
            }
        }
    }

    #[test]
    fn sector_cardinal_directions() {
        // The four axis directions hit sector boundaries head on; the
        // assignment must stay in range and halve the plane consistently
        // with the atan2 convention for r = 4 (whose boundaries are exactly
        // representable directions (±1, 0), (0, ±1)).
        let mut h = RadialHull::new(4);
        h.insert(Point2::new(0.0, 0.0));
        assert_eq!(h.sector_of(Point2::new(2.0, 0.0)), Some(0));
        assert_eq!(h.sector_of(Point2::new(0.0, 2.0)), Some(1));
        assert_eq!(h.sector_of(Point2::new(-2.0, 0.0)), Some(2));
        assert_eq!(h.sector_of(Point2::new(0.0, -2.0)), Some(3));
        assert_eq!(h.sector_of(Point2::new(0.0, 0.0)), None, "origin itself");
    }
}
