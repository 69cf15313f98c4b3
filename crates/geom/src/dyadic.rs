//! Exact dyadic direction arithmetic.
//!
//! The adaptive sampling scheme of Hershberger–Suri only ever uses sample
//! directions of the form `θ = j·θ0 + m·θ0/2^d` with `θ0 = 2π/r` — i.e.
//! bisections of the `r` uniform sectors down to a depth limit `k`. Rather
//! than juggling floating-point angles (where `a/2 + b/2` may not equal the
//! true bisector and equality tests rot), we index every expressible
//! direction by an integer on a circle of resolution `R = r·2^k`.
//!
//! [`DirGrid`] owns the parameters; [`Dir`] is an index on that circle; and
//! [`DirRange`] is a closed angular interval with exact midpoint bisection.
//! Unit vectors are derived on demand (and are the *only* place floating
//! point enters), always through [`fan_unit`]: a read of one shared
//! 4,096-direction table for every power-of-two fan that fits it, one
//! `sin_cos` otherwise.

use crate::point::Vec2;
use core::f64::consts::TAU;
use std::sync::OnceLock;

/// Largest number of uniform directions any summary accepts (`2^20`).
pub const MAX_R: u32 = 1 << 20;

/// Angle `2π·index/count` of direction `index` in a fan of `count` evenly
/// spaced directions.
#[inline]
fn fan_angle(index: u64, count: u64) -> f64 {
    TAU * (index as f64) / (count as f64)
}

/// Size of the shared direction table behind [`fan_unit`] (`2^12`
/// directions, 64 KiB).
const TABLE_DIRS: u64 = 1 << 12;

/// `Vec2::from_angle(fan_angle(i, TABLE_DIRS))` for every `i`, built once
/// per process on first use.
fn unit_table() -> &'static [Vec2] {
    static TABLE: OnceLock<Box<[Vec2]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..TABLE_DIRS)
            .map(|i| Vec2::from_angle(fan_angle(i, TABLE_DIRS)))
            .collect()
    })
}

/// Unit vector of direction `index` in a fan of `count` evenly spaced
/// directions: the one formula behind every direction unit vector in the
/// workspace. [`DirGrid::unit`] evaluates it on the refined circle and the
/// uniform summaries' direction tables on the `r`-fan; scaling `index` and
/// `count` by the same power of two is exact, so a table for `r`
/// directions is bit-equal to the grid's units at the uniform directions
/// of every depth.
///
/// The same exactness serves the formula from one shared table: when
/// `count` is a power of two no larger than 4,096 and `index < count`, the
/// unit is entry `index · (4096 / count)` of a table built once with this
/// formula at `count = 4096`, and no `sin_cos` is paid. Every other
/// `(index, count)` evaluates the formula directly.
#[inline]
pub fn fan_unit(index: u64, count: u64) -> Vec2 {
    if count.is_power_of_two() && count <= TABLE_DIRS && index < count {
        unit_table()[(index * (TABLE_DIRS / count)) as usize]
    } else {
        Vec2::from_angle(fan_angle(index, count))
    }
}

/// The shared table behind [`fan_unit`], viewed as a fan of `count`
/// directions: `(table, stride)` with entry `index · stride` bit-equal to
/// `fan_unit(index, count)` for every `index < count`. `None` unless
/// `count` is a power of two no larger than 4,096.
pub fn shared_fan(count: u64) -> Option<(&'static [Vec2], usize)> {
    (count.is_power_of_two() && count <= TABLE_DIRS)
        .then(|| (unit_table(), (TABLE_DIRS / count) as usize))
}

/// A direction index on a circle subdivided into `resolution` equal parts.
///
/// `Dir(n)` denotes the angle `2π·n / resolution` for the grid it belongs
/// to. Wrap-around is handled by the grid's arithmetic helpers, never by the
/// raw index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dir(pub u64);

/// The set of directions expressible as depth-`<= k` dyadic refinements of
/// `r` uniform directions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirGrid {
    /// Number of uniform (top-level) directions; must be a power of two >= 4.
    r: u32,
    /// Maximum refinement depth `k`.
    depth: u32,
    /// `r << depth`: number of grid steps around the full circle.
    resolution: u64,
}

impl DirGrid {
    /// Creates a grid with `r` uniform directions and refinement depth
    /// limit `depth`.
    ///
    /// # Panics
    /// Panics unless `r` is a power of two with `8 <= r <= 2^20`
    /// ([`MAX_R`]) and `depth <= 32`. Powers of two keep sector bisection
    /// exact; `r >= 8` keeps each sector's angular span below `π/4`, which
    /// the streaming update's pruning proof (see `sh-core`) relies on.
    pub fn new(r: u32, depth: u32) -> Self {
        assert!(r.is_power_of_two(), "r must be a power of two, got {r}");
        assert!((8..=MAX_R).contains(&r), "r must be in [8, 2^20], got {r}");
        assert!(depth <= 32, "depth must be <= 32, got {depth}");
        DirGrid {
            r,
            depth,
            resolution: (r as u64) << depth,
        }
    }

    /// Grid with the paper's recommended depth `k = log2 r`.
    pub fn with_default_depth(r: u32) -> Self {
        Self::new(r, r.trailing_zeros())
    }

    /// Number of uniform directions `r`.
    #[inline]
    pub fn r(&self) -> u32 {
        self.r
    }

    /// Refinement depth limit `k`.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Total number of grid steps on the circle (`r · 2^depth`).
    #[inline]
    pub fn resolution(&self) -> u64 {
        self.resolution
    }

    /// Number of grid steps per uniform sector (`2^depth`).
    #[inline]
    pub fn sector_steps(&self) -> u64 {
        1u64 << self.depth
    }

    /// The `j`-th uniform direction (`j·θ0`), for `j < r`.
    #[inline]
    pub fn uniform_dir(&self, j: u32) -> Dir {
        debug_assert!(j < self.r);
        Dir((j as u64) << self.depth)
    }

    /// The uniform sector index containing (the start of) `d`:
    /// `floor(d / 2^depth) mod r`.
    #[inline]
    pub fn sector_of(&self, d: Dir) -> u32 {
        debug_assert!(d.0 < self.resolution);
        (d.0 >> self.depth) as u32
    }

    /// Angle of `d` in radians, in `[0, 2π)`.
    #[inline]
    pub fn angle(&self, d: Dir) -> f64 {
        debug_assert!(d.0 < self.resolution);
        fan_angle(d.0, self.resolution)
    }

    /// Unit vector of direction `d` ([`fan_unit`]: a table read while the
    /// resolution is at most 4,096, one `sin_cos` above it).
    #[inline]
    pub fn unit(&self, d: Dir) -> Vec2 {
        debug_assert!(d.0 < self.resolution);
        fan_unit(d.0, self.resolution)
    }

    /// Adds `steps` grid steps to `d`, wrapping around the circle.
    #[inline]
    pub fn add(&self, d: Dir, steps: u64) -> Dir {
        Dir((d.0 + steps) % self.resolution)
    }

    /// Number of grid steps walking counterclockwise from `a` to `b`
    /// (in `[0, resolution)`).
    #[inline]
    pub fn ccw_steps(&self, a: Dir, b: Dir) -> u64 {
        debug_assert!(a.0 < self.resolution && b.0 < self.resolution);
        (b.0 + self.resolution - a.0) % self.resolution
    }

    /// Converts an angle in radians (any value) to the nearest grid
    /// direction at or below it (floor).
    pub fn floor_dir(&self, theta: f64) -> Dir {
        let t = theta.rem_euclid(TAU) / TAU; // in [0,1)
        let idx = (t * self.resolution as f64).floor() as u64;
        Dir(idx.min(self.resolution - 1))
    }

    /// Converts an angle to the nearest grid direction (rounding).
    pub fn round_dir(&self, theta: f64) -> Dir {
        let t = theta.rem_euclid(TAU) / TAU;
        let idx = (t * self.resolution as f64).round() as u64;
        Dir(idx % self.resolution)
    }

    /// `true` iff `d` lies on the counterclockwise closed arc from `lo`
    /// to `hi` (the arc swept going ccw from `lo`; if `lo == hi` only that
    /// single direction is in the arc).
    #[inline]
    pub fn in_ccw_arc(&self, d: Dir, lo: Dir, hi: Dir) -> bool {
        self.ccw_steps(lo, d) <= self.ccw_steps(lo, hi)
    }

    /// Iterator over uniform direction indices `j` whose direction lies on
    /// the ccw closed arc from `lo` to `hi`.
    pub fn uniform_dirs_in_arc(&self, lo: Dir, hi: Dir) -> impl Iterator<Item = u32> + '_ {
        let step = self.sector_steps();
        // First uniform direction at or after `lo` (ccw).
        let first = Dir((lo.0.div_ceil(step) % self.r as u64) * step);
        let span = self.ccw_steps(lo, hi);
        let offset = self.ccw_steps(lo, first);
        let count = if offset > span {
            0
        } else {
            (span - offset) / step + 1
        };
        let r = self.r;
        let first_j = (first.0 / step) as u32;
        (0..count as u32).map(move |i| (first_j + i) % r)
    }
}

/// A closed angular interval `[lo, hi]` on a [`DirGrid`], spanning at most
/// one uniform sector, with exact dyadic bisection.
///
/// `depth` is how many bisections produced it (0 = a full uniform sector).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirRange {
    /// Left (clockwise) end.
    pub lo: Dir,
    /// Right (counterclockwise) end. `hi = lo + span`, may wrap mod R.
    pub hi: Dir,
    /// Number of bisections from a uniform sector (`span = 2^(k - depth)`).
    pub depth: u32,
}

impl DirRange {
    /// The full uniform sector `j` on `grid`.
    pub fn sector(grid: &DirGrid, j: u32) -> Self {
        let lo = grid.uniform_dir(j);
        let hi = grid.add(lo, grid.sector_steps());
        DirRange { lo, hi, depth: 0 }
    }

    /// Number of grid steps spanned.
    #[inline]
    pub fn span(&self, grid: &DirGrid) -> u64 {
        grid.ccw_steps(self.lo, self.hi)
    }

    /// The exact midpoint direction. Only valid while the range is
    /// bisectable (span >= 2 grid steps).
    #[inline]
    pub fn mid(&self, grid: &DirGrid) -> Dir {
        let span = self.span(grid);
        debug_assert!(span >= 2, "range no longer bisectable");
        grid.add(self.lo, span / 2)
    }

    /// `true` while the range can be bisected further within the grid's
    /// depth limit.
    #[inline]
    pub fn bisectable(&self, grid: &DirGrid) -> bool {
        self.depth < grid.depth() && self.span(grid) >= 2
    }

    /// Splits into `(left, right)` halves sharing the midpoint.
    pub fn bisect(&self, grid: &DirGrid) -> (DirRange, DirRange) {
        let m = self.mid(grid);
        (
            DirRange {
                lo: self.lo,
                hi: m,
                depth: self.depth + 1,
            },
            DirRange {
                lo: m,
                hi: self.hi,
                depth: self.depth + 1,
            },
        )
    }

    /// Angular width in radians.
    #[inline]
    pub fn width(&self, grid: &DirGrid) -> f64 {
        TAU * self.span(grid) as f64 / grid.resolution() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_dirs_are_evenly_spaced() {
        let g = DirGrid::new(16, 4);
        assert_eq!(g.resolution(), 256);
        for j in 0..16 {
            let d = g.uniform_dir(j);
            assert_eq!(d.0, (j as u64) * 16);
            let expect = TAU * j as f64 / 16.0;
            assert!((g.angle(d) - expect).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        DirGrid::new(12, 2);
    }

    #[test]
    fn wrap_arithmetic() {
        let g = DirGrid::new(8, 2); // resolution 32
        let a = Dir(30);
        let b = g.add(a, 5);
        assert_eq!(b, Dir(3));
        assert_eq!(g.ccw_steps(a, b), 5);
        assert_eq!(g.ccw_steps(b, a), 27);
    }

    #[test]
    fn arc_membership() {
        let g = DirGrid::new(8, 2);
        // Arc from 30 ccw to 3 (wrapping).
        let (lo, hi) = (Dir(30), Dir(3));
        assert!(g.in_ccw_arc(Dir(30), lo, hi));
        assert!(g.in_ccw_arc(Dir(0), lo, hi));
        assert!(g.in_ccw_arc(Dir(3), lo, hi));
        assert!(!g.in_ccw_arc(Dir(4), lo, hi));
        assert!(!g.in_ccw_arc(Dir(29), lo, hi));
    }

    #[test]
    fn uniform_dirs_in_wrapping_arc() {
        let g = DirGrid::new(8, 2); // sectors of 4 steps; uniform dirs at 0,4,...,28
        let found: Vec<u32> = g.uniform_dirs_in_arc(Dir(27), Dir(5)).collect();
        assert_eq!(found, vec![7, 0, 1]);
        let none: Vec<u32> = g.uniform_dirs_in_arc(Dir(5), Dir(7)).collect();
        assert!(none.is_empty());
        let single: Vec<u32> = g.uniform_dirs_in_arc(Dir(4), Dir(4)).collect();
        assert_eq!(single, vec![1]);
        let all: Vec<u32> = g.uniform_dirs_in_arc(Dir(0), Dir(31)).collect();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn sector_bisection_is_exact() {
        let g = DirGrid::new(16, 4);
        let s = DirRange::sector(&g, 3);
        assert_eq!(s.span(&g), 16);
        let (l, r) = s.bisect(&g);
        assert_eq!(l.lo, s.lo);
        assert_eq!(l.hi, r.lo);
        assert_eq!(r.hi, s.hi);
        assert_eq!(l.span(&g), 8);
        assert_eq!(r.span(&g), 8);
        assert_eq!(l.depth, 1);
        // Bisect down to the depth limit.
        let mut cur = l;
        while cur.bisectable(&g) {
            cur = cur.bisect(&g).0;
        }
        assert_eq!(cur.span(&g), 1);
        assert_eq!(cur.depth, 4);
    }

    #[test]
    fn last_sector_wraps() {
        let g = DirGrid::new(8, 3);
        let s = DirRange::sector(&g, 7);
        assert_eq!(s.lo, Dir(56));
        assert_eq!(s.hi, Dir(0));
        assert_eq!(s.span(&g), 8);
        let m = s.mid(&g);
        assert_eq!(m, Dir(60));
    }

    #[test]
    fn floor_and_round_dir() {
        let g = DirGrid::new(8, 0); // resolution 8, steps of 45 degrees
        assert_eq!(g.floor_dir(0.0), Dir(0));
        assert_eq!(g.floor_dir(TAU / 8.0 + 0.01), Dir(1));
        assert_eq!(g.floor_dir(-0.01), Dir(7));
        assert_eq!(g.round_dir(TAU / 8.0 * 0.6), Dir(1));
        assert_eq!(g.round_dir(TAU - 0.01), Dir(0));
    }

    #[test]
    fn default_depth_matches_paper() {
        let g = DirGrid::with_default_depth(64);
        assert_eq!(g.depth(), 6);
        assert_eq!(g.resolution(), 64 * 64);
    }

    #[test]
    fn width_of_ranges() {
        let g = DirGrid::new(8, 2);
        let s = DirRange::sector(&g, 0);
        assert!((s.width(&g) - TAU / 8.0).abs() < 1e-15);
        let (l, _) = s.bisect(&g);
        assert!((l.width(&g) - TAU / 16.0).abs() < 1e-15);
    }
}
