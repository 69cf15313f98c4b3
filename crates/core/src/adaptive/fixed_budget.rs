//! The fixed-budget adaptive variant used in the paper's experiments (§7).
//!
//! For a fair comparison against a uniform hull with `2r` directions, the
//! paper modifies the adaptive algorithm to maintain *exactly* `2r` sample
//! directions: it refines maximum-weight edges even when their weight is
//! below the threshold, and unrefines minimum-weight refinements when over
//! budget. This module implements that variant as a self-contained
//! structure (a flat, cyclic list of dyadic leaf edges rebalanced greedily
//! after every insertion), independent of the threshold-driven
//! [`AdaptiveHull`](crate::adaptive::stream::AdaptiveHull) — which also
//! makes it a useful cross-check of the tree-based implementation.

use crate::adaptive::stream::{hull_of_ccw_samples, PreparedArc};
use crate::adaptive::weight::{slant, uncertainty, weight};
use crate::batch::{incircle, CertCache, BATCH_LEAF};
use crate::summary::{GenCache, HullCache, HullSummary, Mergeable};
use crate::uniform::{BeatenArc, UniformEffect, UniformHull};
use geom::dyadic::{DirGrid, DirRange};
use geom::{ConvexPolygon, Point2, UncertaintyTriangle, Vec2};

/// A leaf edge of the flattened refinement forest.
#[derive(Clone, Copy, Debug)]
struct Leaf {
    range: DirRange,
    a: Point2,
    b: Point2,
}

/// Adaptive hull with a hard budget of `2r` sample directions
/// (`r` uniform + `r` adaptive), per §7's experimental setup.
#[derive(Clone, Debug)]
pub struct FixedBudgetAdaptiveHull {
    grid: DirGrid,
    uniform: UniformHull,
    /// Cyclic tiling of the direction circle by leaf edges, ordered by
    /// `range.lo`. Empty until the first point.
    leaves: Vec<Leaf>,
    /// Target number of *extra* (adaptive) directions; total budget is
    /// `r + extra_budget`.
    extra_budget: usize,
    cache: HullCache,
    distinct: GenCache<usize>,
}

impl FixedBudgetAdaptiveHull {
    /// Creates the summary with `r` uniform directions and `r` adaptive
    /// ones (total `2r`, the paper's experimental configuration).
    pub fn new(r: u32) -> Self {
        FixedBudgetAdaptiveHull {
            grid: DirGrid::with_default_depth(r),
            uniform: UniformHull::new(r),
            leaves: Vec::new(),
            extra_budget: r as usize,
            cache: HullCache::new(),
            distinct: GenCache::new(),
        }
    }

    /// Number of uniform directions.
    pub fn r(&self) -> u32 {
        self.grid.r()
    }

    /// Number of currently active adaptive directions.
    pub fn adaptive_direction_count(&self) -> usize {
        self.leaves.len().saturating_sub(self.grid.r() as usize)
    }

    /// All active sample directions with their stored extrema (used to
    /// build a [`FrozenHull`](crate::frozen::FrozenHull) for the "partially
    /// adaptive" comparison).
    pub fn directions(&self) -> Vec<(Vec2, Point2)> {
        self.leaves
            .iter()
            .map(|leaf| (self.grid.unit(leaf.range.lo), leaf.a))
            .collect()
    }

    /// Uncertainty triangles of the non-degenerate edges.
    pub fn uncertainty_triangles(&self) -> Vec<UncertaintyTriangle> {
        self.leaves
            .iter()
            .filter(|l| l.a != l.b)
            .map(|l| uncertainty(&self.grid, &l.range, l.a, l.b))
            .collect()
    }

    /// Distinct stored sample points in direction order.
    pub fn sample_points(&self) -> Vec<Point2> {
        let mut pts: Vec<Point2> = Vec::new();
        for leaf in &self.leaves {
            for p in [leaf.a, leaf.b] {
                if pts.last() != Some(&p) {
                    pts.push(p);
                }
            }
        }
        while pts.len() > 1 && pts.first() == pts.last() {
            pts.pop();
        }
        pts
    }

    fn leaf_weight(&self, leaf: &Leaf) -> f64 {
        weight(
            slant(&self.grid, &leaf.range, leaf.a, leaf.b),
            leaf.range.depth,
            self.grid.r(),
            self.uniform.perimeter(),
        )
    }

    /// Weight the merged parent of leaves `i` and `i+1` would have, if they
    /// are dyadic siblings; `None` otherwise.
    fn merge_weight(&self, i: usize) -> Option<f64> {
        let l1 = self.leaves[i];
        let l2 = self.leaves[(i + 1) % self.leaves.len()];
        if l1.range.depth != l2.range.depth || l1.range.depth == 0 || l1.range.hi != l2.range.lo {
            return None;
        }
        // Sibling check: l1 must be the left child of their common parent,
        // i.e. its offset within the sector is aligned to the parent span.
        let span = l1.range.span(&self.grid);
        let offset = l1.range.lo.0 % self.grid.sector_steps();
        if !offset.is_multiple_of(2 * span) {
            return None;
        }
        let parent = DirRange {
            lo: l1.range.lo,
            hi: l2.range.hi,
            depth: l1.range.depth - 1,
        };
        Some(weight(
            slant(&self.grid, &parent, l1.a, l2.b),
            parent.depth,
            self.grid.r(),
            self.uniform.perimeter(),
        ))
    }

    fn split_leaf(&mut self, i: usize) {
        let leaf = self.leaves[i];
        let mid = leaf.range.mid(&self.grid);
        let um = self.grid.unit(mid);
        let t = if leaf.a.dot(um) >= leaf.b.dot(um) {
            leaf.a
        } else {
            leaf.b
        };
        let (lr, rr) = leaf.range.bisect(&self.grid);
        self.leaves[i] = Leaf {
            range: lr,
            a: leaf.a,
            b: t,
        };
        self.leaves.insert(
            i + 1,
            Leaf {
                range: rr,
                a: t,
                b: leaf.b,
            },
        );
    }

    fn merge_pair(&mut self, i: usize) {
        let n = self.leaves.len();
        let l1 = self.leaves[i];
        let l2 = self.leaves[(i + 1) % n];
        let parent = DirRange {
            lo: l1.range.lo,
            hi: l2.range.hi,
            depth: l1.range.depth - 1,
        };
        self.leaves[i] = Leaf {
            range: parent,
            a: l1.a,
            b: l2.b,
        };
        self.leaves.remove((i + 1) % n);
    }

    /// Greedy rebalance toward the budget: split the max-weight bisectable
    /// leaf while under budget; merge the min-weight sibling pair while
    /// over; then perform strictly improving swaps.
    fn rebalance(&mut self) {
        let best_split = |this: &Self| -> Option<(usize, f64)> {
            this.leaves
                .iter()
                .enumerate()
                .filter(|(_, l)| l.a != l.b && l.range.bisectable(&this.grid))
                .map(|(i, l)| (i, this.leaf_weight(l)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
        };
        let best_merge = |this: &Self| -> Option<(usize, f64)> {
            (0..this.leaves.len())
                .filter_map(|i| this.merge_weight(i).map(|w| (i, w)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
        };

        // Reach the budget.
        while self.adaptive_direction_count() < self.extra_budget {
            match best_split(self) {
                Some((i, w)) if w > f64::NEG_INFINITY => self.split_leaf(i),
                _ => break, // everything degenerate or at the depth cap
            }
        }
        while self.adaptive_direction_count() > self.extra_budget {
            match best_merge(self) {
                Some((i, _)) => self.merge_pair(i),
                None => break,
            }
        }
        // Improving swaps: move budget from low-value refinements to
        // high-value ones (this is what lets the sample directions migrate
        // when the distribution changes, §7 "changing ellipse").
        for _ in 0..(2 * self.grid.r() as usize) {
            let (Some((mi, mw)), Some((si, sw))) = (best_merge(self), best_split(self)) else {
                break;
            };
            // Strict improvement with hysteresis so we never oscillate.
            if sw <= mw + 1e-9 {
                break;
            }
            // Merging shifts indices; merge first, then re-find the split
            // candidate (cheap and simple).
            self.merge_pair(mi);
            let _ = si;
            if let Some((i, _)) = best_split(self) {
                self.split_leaf(i);
            }
        }
    }

    fn update_leaves(&mut self, q: Point2, arc: &BeatenArc) {
        let arc = PreparedArc::new(arc);
        let grid = self.grid;
        for leaf in &mut self.leaves {
            if !arc.overlaps(&grid, &leaf.range) {
                continue;
            }
            let ul = grid.unit(leaf.range.lo);
            let ur = grid.unit(leaf.range.hi);
            if q.dot(ul) > leaf.a.dot(ul) {
                leaf.a = q;
            }
            if q.dot(ur) > leaf.b.dot(ur) {
                leaf.b = q;
            }
        }
    }

    /// Snapshot payload: grid shape, adaptive budget, the uniform
    /// substrate, and the flat cyclic leaf tiling (ranges stored as raw
    /// grid steps — the flat structure has no tree to reconstruct them
    /// from).
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_point, put_u32, put_u64};
        put_u32(out, self.grid.r());
        put_u32(out, self.grid.depth());
        put_u64(out, self.extra_budget as u64);
        self.uniform.snapshot_payload(out);
        put_u64(out, self.leaves.len() as u64);
        for leaf in &self.leaves {
            put_u64(out, leaf.range.lo.0);
            put_u64(out, leaf.range.hi.0);
            put_u32(out, leaf.range.depth);
            put_point(out, leaf.a);
            put_point(out, leaf.b);
        }
    }

    /// Inverse of [`FixedBudgetAdaptiveHull::snapshot_payload`].
    pub(crate) fn from_snapshot_payload(
        reader: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        use geom::dyadic::Dir;
        let r = reader.u32()?;
        let depth = reader.u32()?;
        if !r.is_power_of_two() || !(8..=geom::dyadic::MAX_R).contains(&r) || depth > 32 {
            return Err(SnapshotError::Malformed("invalid adaptive grid shape"));
        }
        let extra_budget = reader.u64()? as usize;
        let grid = DirGrid::new(r, depth);
        let uniform = UniformHull::from_snapshot_payload(reader)?;
        if uniform.r() != r {
            return Err(SnapshotError::Malformed("uniform r disagrees with grid"));
        }
        let leaf_count = reader.count(52)?;
        let mut leaves = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            let lo = reader.u64()?;
            let hi = reader.u64()?;
            let leaf_depth = reader.u32()?;
            if lo >= grid.resolution() || hi >= grid.resolution() || leaf_depth > grid.depth() {
                return Err(SnapshotError::Malformed("leaf range outside the grid"));
            }
            let range = DirRange {
                lo: Dir(lo),
                hi: Dir(hi),
                depth: leaf_depth,
            };
            if range.span(&grid) != grid.sector_steps() >> leaf_depth {
                // Every live leaf is dyadic, and the arc test reads its
                // width from its depth.
                return Err(SnapshotError::Malformed(
                    "leaf span disagrees with its depth",
                ));
            }
            let a = reader.point()?;
            let b = reader.point()?;
            if !(a.is_finite() && b.is_finite()) {
                // Leaf endpoints pass the uniform substrate's finite
                // assert on every live path (see the tree decoder).
                return Err(SnapshotError::Malformed("non-finite leaf endpoint"));
            }
            leaves.push(Leaf { range, a, b });
        }
        Ok(FixedBudgetAdaptiveHull {
            grid,
            uniform,
            leaves,
            extra_budget,
            cache: HullCache::new(),
            distinct: GenCache::new(),
        })
    }

    /// One point without cache bookkeeping; `true` iff state changed.
    fn insert_inner(&mut self, q: Point2) -> bool {
        match self.uniform.insert_detailed(q) {
            UniformEffect::First => {
                self.leaves = (0..self.grid.r())
                    .map(|j| Leaf {
                        range: DirRange::sector(&self.grid, j),
                        a: q,
                        b: q,
                    })
                    .collect();
                true
            }
            UniformEffect::Interior => false, // sample unchanged: keep the cache
            UniformEffect::Outside { arc, .. } => {
                self.update_leaves(q, &arc);
                self.rebalance();
                true
            }
        }
    }
}

impl HullSummary for FixedBudgetAdaptiveHull {
    fn insert(&mut self, q: Point2) {
        // Non-finite points are dropped, not counted (see `HullSummary`).
        if !q.is_finite() {
            return;
        }
        if self.insert_inner(q) {
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
            for &q in points {
                if self.insert_inner(q) {
                    self.cache.invalidate();
                }
            }
            return;
        }
        // Same interior-certificate fast path as `AdaptiveHull` (see
        // there): certified points are exactly the `Interior` no-ops, the
        // cert tracks the uniform substrate's hull generation, and this
        // summary's own cache invalidations coalesce into one per batch.
        let mut cert = CertCache::new(8);
        let mut changed = false;
        for &q in points {
            if cert.covers(q, || incircle(self.uniform.hull_ref())) {
                self.uniform.add_seen(1);
                continue;
            }
            let before = self.uniform.hull_generation();
            changed |= self.insert_inner(q);
            if self.uniform.hull_generation() != before {
                cert.invalidate();
            }
        }
        if changed {
            self.cache.invalidate();
        }
    }

    fn hull_ref(&self) -> &ConvexPolygon {
        self.cache
            .get_or_rebuild(|| hull_of_ccw_samples(&self.sample_points()))
    }

    fn hull_generation(&self) -> u64 {
        self.cache.generation()
    }

    fn sample_size(&self) -> usize {
        self.distinct.get_or_compute(self.cache.generation(), || {
            let mut pts = self.sample_points();
            pts.sort_by(|a, b| a.lex_cmp(*b));
            pts.dedup();
            pts.len()
        })
    }

    fn points_seen(&self) -> u64 {
        self.uniform.points_seen()
    }

    fn approx_bytes(&self) -> usize {
        // Uniform substrate plus the cyclic leaf tiling (up to `2r` edges,
        // each a direction range and two endpoints).
        self.uniform.approx_bytes() + 64 + self.leaves.len() * size_of::<Leaf>()
    }

    fn name(&self) -> &'static str {
        "adaptive-2r"
    }

    fn error_bound(&self) -> Option<f64> {
        // The budgeted variant may unrefine below the weight threshold, so
        // only the uniform substrate's Lemma 3.2 guarantee is always live:
        // the tallest uncertainty triangle over the r uniform directions.
        self.uniform.error_bound()
    }
}

impl Mergeable for FixedBudgetAdaptiveHull {
    fn sample_points(&self) -> Vec<Point2> {
        FixedBudgetAdaptiveHull::sample_points(self)
    }

    fn absorb_seen(&mut self, n: u64) {
        self.uniform.add_seen(n);
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
    use core::f64::consts::TAU;

    fn ellipse_pts(seed: u64, n: usize, aspect: f64, rot: f64) -> Vec<Point2> {
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
                Point2::ORIGIN + geom::Vec2::new(x * aspect, y).rotate(rot)
            })
            .collect()
    }

    #[test]
    fn budget_is_respected() {
        let mut h = FixedBudgetAdaptiveHull::new(16);
        for q in ellipse_pts(1, 3000, 16.0, 0.1) {
            h.insert(q);
            assert!(
                h.adaptive_direction_count() <= 16,
                "budget exceeded: {}",
                h.adaptive_direction_count()
            );
        }
        // With an aspect-16 ellipse the budget should be fully used.
        assert_eq!(h.adaptive_direction_count(), 16);
        assert_eq!(h.leaves.len(), 32);
    }

    #[test]
    fn leaves_always_tile_the_circle() {
        let mut h = FixedBudgetAdaptiveHull::new(8);
        for (i, q) in ellipse_pts(2, 1000, 8.0, 0.3).into_iter().enumerate() {
            h.insert(q);
            if i % 19 != 0 || h.leaves.is_empty() {
                continue;
            }
            let mut expected = geom::dyadic::Dir(0);
            for leaf in &h.leaves {
                assert_eq!(leaf.range.lo, expected, "gap at insertion {i}");
                expected = leaf.range.hi;
            }
            assert_eq!(expected, geom::dyadic::Dir(0), "tiling must close");
            // Shared endpoints.
            for w in h.leaves.windows(2) {
                assert_eq!(w[0].b, w[1].a, "endpoint mismatch at insertion {i}");
            }
        }
    }

    #[test]
    fn matches_uniform_2r_on_disk_roughly() {
        use crate::exact::ExactHull;
        use crate::uniform::NaiveUniformHull;
        // On a disk, adaptive-r and uniform-2r should be comparable
        // (paper Table 1 row 1: adaptive at most ~25% worse).
        let pts = ellipse_pts(3, 20000, 1.0, 0.0); // aspect 1 = disk
        let mut ada = FixedBudgetAdaptiveHull::new(16);
        let mut uni = NaiveUniformHull::new(32);
        let mut ex = ExactHull::new();
        for &q in &pts {
            ada.insert(q);
            uni.insert(q);
            ex.insert(q);
        }
        let truth = ex.hull();
        let ae = ada.hull().directed_hausdorff_from(&truth);
        let ue = uni.hull().directed_hausdorff_from(&truth);
        assert!(
            ae < ue * 3.0,
            "adaptive {ae} vs uniform {ue}: should be comparable"
        );
    }

    #[test]
    fn beats_uniform_on_rotated_ellipse() {
        use crate::exact::ExactHull;
        use crate::uniform::NaiveUniformHull;
        let rot = TAU / 32.0 / 4.0;
        let pts = ellipse_pts(4, 20000, 16.0, rot);
        let mut ada = FixedBudgetAdaptiveHull::new(16);
        let mut uni = NaiveUniformHull::new(32);
        let mut ex = ExactHull::new();
        for &q in &pts {
            ada.insert(q);
            uni.insert(q);
            ex.insert(q);
        }
        let truth = ex.hull();
        let ae = ada.hull().directed_hausdorff_from(&truth);
        let ue = uni.hull().directed_hausdorff_from(&truth);
        assert!(
            ae < ue,
            "adaptive {ae} should beat uniform {ue} on the ellipse"
        );
    }

    #[test]
    fn directions_migrate_on_changing_distribution() {
        // First a vertical ellipse, then a containing horizontal one: the
        // adaptive directions should end up concentrated near the x axis.
        let mut h = FixedBudgetAdaptiveHull::new(16);
        for q in ellipse_pts(5, 2000, 4.0, core::f64::consts::FRAC_PI_2) {
            h.insert(q);
        }
        for q in ellipse_pts(6, 2000, 16.0, 0.0)
            .into_iter()
            .map(|p| Point2::new(p.x, p.y * 5.0 / 3.0))
        {
            h.insert(q);
        }
        // For a long horizontal ellipse the *flat* top and bottom produce
        // the long hull edges, so refinement concentrates on directions
        // near ±y. Count adaptive (depth > 0) leaves within 45° of ±y.
        let near_y = h
            .leaves
            .iter()
            .filter(|l| l.range.depth > 0)
            .filter(|l| {
                let ang = h.grid.angle(l.range.lo);
                (ang - TAU / 4.0).abs() < TAU / 8.0 || (ang - 3.0 * TAU / 4.0).abs() < TAU / 8.0
            })
            .count();
        let total_adaptive = h.leaves.iter().filter(|l| l.range.depth > 0).count();
        assert!(
            near_y * 2 >= total_adaptive,
            "directions should migrate to the flat ±y sides: {near_y}/{total_adaptive}"
        );
    }

    #[test]
    fn degenerate_streams() {
        let mut h = FixedBudgetAdaptiveHull::new(8);
        for _ in 0..10 {
            h.insert(Point2::new(2.0, 2.0));
        }
        assert_eq!(h.sample_size(), 1);
        let mut h2 = FixedBudgetAdaptiveHull::new(8);
        for i in 0..100 {
            h2.insert(Point2::new(i as f64, 0.0));
        }
        assert_eq!(h2.hull().len(), 2);
    }
}
