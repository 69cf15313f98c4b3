//! The streaming adaptive hull — the paper's main result (§5, Theorem 5.4).
//!
//! # Structure
//!
//! A [`UniformHull`] maintains the extrema in the `r` uniform directions,
//! the hull `A` of those extrema, and its perimeter `P`. On top of it, one
//! *refinement tree* per uniform sector `[jθ0, (j+1)θ0]` records adaptively
//! chosen bisection directions (§5.1). A tree node covers a dyadic
//! direction range; an internal node's bisecting direction is an *active
//! adaptive sample direction* whose extremum is the shared endpoint of its
//! children, and each leaf is a hull edge between the extrema at its range
//! boundaries.
//!
//! The trees are stored as their leaves alone: one 48-byte record per
//! leaf, linked in direction order around the circle. A record holds the
//! extremum at the leaf's left boundary (its right extremum is the next
//! record's), that direction's unit vector, the leaf's depth, and the
//! depth and queue tag of the internal node whose bisector that boundary
//! is. Sector `j`'s first leaf is record `j`. Internal nodes and ranges
//! are derived from the dyadic grid on each walk: a node of depth `d` is a
//! leaf iff its first record's leaf has depth `d`, and it ends at the
//! first later record that starts a sector or splits a node shallower than
//! `d`. A refinement allocates one record and a collapse frees the records
//! inside the node, so every boundary's extremum is stored once.
//!
//! # Per-point update (Algorithm AdaptiveHull, §5.2)
//!
//! 1. If `q` is inside `A` it cannot beat any active direction (every
//!    stored extremum dominates `A`'s support at its own direction):
//!    discard after one `O(log r)` point location. This implements step 1 —
//!    the "ring of uncertainty triangles" is exactly the intersection of
//!    the supporting half-planes at all active directions.
//! 2. Otherwise [`UniformHull::insert_detailed`] reports the *beaten arc*:
//!    the continuous range of directions in which `q` beats the stored
//!    support. Only sectors intersecting the arc can contain affected
//!    refinement-tree nodes (the arc is computed against `A ⊆ A'`, hence a
//!    superset of the directions beaten against the adaptive hull `A'`).
//! 3. Each affected tree is updated recursively: leaves merge `q` into
//!    beaten endpoints and re-refine while `w(e) > 1` (bounded by the depth
//!    cap `k`); internal nodes whose subtree changed refresh their
//!    unrefinement threshold or collapse immediately when `w(e) <= 1`
//!    (steps 3/5).
//! 4. Since `P` may have grown, due entries are drained from the
//!    unrefinement queue (step 4): an indexed heap of exact thresholds, so
//!    a node unrefines as soon as its weight reaches 1, never earlier.

use crate::adaptive::queue::{HeapQueue, Tags, UNTAGGED};
use crate::adaptive::weight::{slant_between, unrefine_threshold, weight};
use crate::batch::{incircle, CertCache, BATCH_LEAF};
use crate::summary::{GenCache, HullCache, HullSummary, Mergeable};
use crate::uniform::{BeatenArc, UniformEffect, UniformHull};
use core::f64::consts::TAU;
use geom::dyadic::{DirGrid, DirRange, MAX_R};
use geom::{ConvexPolygon, Point2, UncertaintyTriangle, Vec2};

/// Configuration for [`AdaptiveHull`].
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveHullConfig {
    /// Number of uniform sample directions (power of two, `>= 8`).
    pub r: u32,
    /// Refinement-tree height limit `k` (`None` = the paper's `log2 r`).
    pub depth: Option<u32>,
}

impl AdaptiveHullConfig {
    /// Default configuration for a given `r`.
    pub fn new(r: u32) -> Self {
        AdaptiveHullConfig { r, depth: None }
    }

    /// Sets the tree height limit.
    pub fn with_depth(mut self, k: u32) -> Self {
        self.depth = Some(k);
        self
    }
}

/// One leaf of the refinement forest, named by its left boundary direction.
///
/// The boundary is a sector's first direction (records `0..r`) or the
/// bisector of exactly one internal node, which the record stands for in
/// the unrefinement queue. Its unit vector is read once, when the boundary
/// is made: from the substrate's table for a sector, from
/// [`DirGrid::unit`] for a bisector (a shared-table read up to 4,096 grid
/// directions, one `sin_cos` above).
#[derive(Clone, Copy, Debug)]
struct Leaf {
    /// Stored extremum at the left boundary.
    pt: Point2,
    /// Unit vector of the left boundary direction.
    unit: Vec2,
    /// Next leaf counterclockwise (the last leaf links to record 0); a
    /// freed record links the free list instead.
    next: u32,
    /// Previous leaf.
    prev: u32,
    /// Queue tag of the internal node whose bisector is the boundary.
    tag: u32,
    /// Bisections from the sector down to this leaf.
    depth: u8,
    /// Depth of the internal node whose bisector is the boundary (unused
    /// at a sector's first direction).
    split: u8,
}

// Two depths and three links fill the record to 48 bytes.
const _: () = assert!(size_of::<Leaf>() == 48);

/// End of the free list.
const NIL: u32 = u32::MAX;

impl Tags for Vec<Leaf> {
    fn tag(&self, id: u32) -> u32 {
        self[id as usize].tag
    }

    fn set_tag(&mut self, id: u32, tag: u32) {
        self[id as usize].tag = tag;
    }
}

/// Padding of the overlap test between a direction range and a beaten
/// arc: the arc is floating point, so near-misses count as overlaps.
const ARC_PAD: f64 = 1e-9;

/// A beaten arc prepared once per outside point for the padded overlap
/// test that both adaptive backends run on every tree node or leaf they
/// visit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PreparedArc {
    /// Arc start angle, in `[0, 2π]` (`2π` through `rem_euclid` rounding).
    start: f64,
    /// Ccw span `(end − start) mod 2π`, at most `π`.
    span: f64,
}

impl PreparedArc {
    pub(crate) fn new(arc: &BeatenArc) -> Self {
        PreparedArc {
            start: arc.start,
            span: (arc.end - arc.start).rem_euclid(TAU),
        }
    }

    /// Does `range` intersect the arc padded by [`ARC_PAD`]?
    #[inline]
    pub(crate) fn overlaps(&self, grid: &DirGrid, range: &DirRange) -> bool {
        let r_start = grid.angle(range.lo);
        ccw_offset(r_start - ARC_PAD, self.start) <= dyadic_width(grid, range) + 2.0 * ARC_PAD
            || ccw_offset(self.start - ARC_PAD, r_start) <= self.span + 2.0 * ARC_PAD
    }
}

/// Angular width of a dyadic range, read from its depth: it spans
/// `sector_steps >> depth` grid steps. Bit-equal to [`DirRange::width`]
/// without its modulo.
#[inline]
fn dyadic_width(grid: &DirGrid, range: &DirRange) -> f64 {
    TAU * (grid.sector_steps() >> range.depth) as f64 / grid.resolution() as f64
}

/// `(x − s) mod 2π` with one conditional wrap in place of
/// `rem_euclid(TAU)`. The overlap test keeps `x − s` in
/// `(−2π, 2π + ARC_PAD]`, where `fmod` returns `x − s` or its exact
/// difference with `2π` (Sterbenz), and a negative remainder takes the
/// same `+ 2π` as `rem_euclid`: the result is bit-identical.
#[inline]
fn ccw_offset(s: f64, x: f64) -> f64 {
    let d = x - s;
    if d < 0.0 {
        d + TAU
    } else if d >= TAU {
        d - TAU
    } else {
        d
    }
}

/// The hull of both adaptive backends' `sample_points()`, which a
/// direction-ordered leaf walk lists in weakly convex ccw order: one
/// linear [`ConvexPolygon::assign_hull_of_ccw_cycle`] pass, which falls
/// back to the sort on any reflex turn. Bit-identical to
/// `ConvexPolygon::hull_of(samples)` either way.
pub(crate) fn hull_of_ccw_samples(samples: &[Point2]) -> ConvexPolygon {
    let mut hull = ConvexPolygon::empty();
    hull.assign_hull_of_ccw_cycle(samples, &mut Vec::new());
    hull
}

/// What one outside point carries from leaf to leaf.
///
/// Adjacent leaves share their boundary's record, and a leaf tests each
/// end against the extremum stored before this point arrived. A leaf that
/// beats its right end writes `q` into the record its right neighbour
/// tests next, so the visit remembers that boundary as beaten. Leaves are
/// visited in direction order from a padding sector before the arc, whose
/// first boundary `q` cannot beat, so no leaf ends at a record a later
/// leaf has already written.
struct Visit {
    q: Point2,
    arc: PreparedArc,
    /// The right end the previous leaf beat, or [`NIL`].
    carried: u32,
}

/// The streaming adaptive-sampling convex hull summary (Theorem 5.4).
///
/// Keeps at most `2r + 1` stream points; the hull of the sample is within
/// `O(D/r²)` of the true convex hull at all times.
///
/// # Example
/// ```
/// use adaptive_hull::{AdaptiveHull, AdaptiveHullConfig, HullSummary};
/// use geom::Point2;
///
/// let mut hull = AdaptiveHull::new(AdaptiveHullConfig::new(16));
/// for i in 0..1000 {
///     let t = i as f64 * 0.1;
///     hull.insert(Point2::new(t.cos() * 10.0, t.sin() * 3.0));
/// }
/// assert!(hull.sample_size() <= 2 * 16 + 1);
/// let poly = hull.hull();
/// assert!(poly.len() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveHull {
    grid: DirGrid,
    uniform: UniformHull,
    /// Leaf records; empty until the first point, then sector `j`'s first
    /// leaf is record `j`.
    leaves: Vec<Leaf>,
    /// First freed record, or [`NIL`].
    free: u32,
    queue: HeapQueue,
    internal_count: usize,
    cache: HullCache,
    distinct: GenCache<usize>,
}

impl AdaptiveHull {
    /// Creates the summary.
    pub fn new(config: AdaptiveHullConfig) -> Self {
        let depth = config.depth.unwrap_or_else(|| config.r.trailing_zeros());
        let grid = DirGrid::new(config.r, depth);
        AdaptiveHull {
            grid,
            uniform: UniformHull::new(config.r),
            leaves: Vec::new(),
            free: NIL,
            queue: HeapQueue::new(),
            internal_count: 0,
            cache: HullCache::new(),
            distinct: GenCache::new(),
        }
    }

    /// Convenience constructor with defaults.
    pub fn with_r(r: u32) -> Self {
        Self::new(AdaptiveHullConfig::new(r))
    }

    /// Number of uniform directions `r`.
    pub fn r(&self) -> u32 {
        self.grid.r()
    }

    /// The direction grid in use.
    pub fn grid(&self) -> &DirGrid {
        &self.grid
    }

    /// Number of active adaptive sample directions (= internal tree nodes).
    pub fn adaptive_direction_count(&self) -> usize {
        self.internal_count
    }

    /// The underlying uniform structure (perimeter `P`, uniform extrema).
    pub fn uniform(&self) -> &UniformHull {
        &self.uniform
    }

    // ------------------------------------------------------------------
    // Leaf-record plumbing
    // ------------------------------------------------------------------

    fn leaf(&self, i: u32) -> &Leaf {
        &self.leaves[i as usize]
    }

    fn leaf_mut(&mut self, i: u32) -> &mut Leaf {
        &mut self.leaves[i as usize]
    }

    /// The record at the right end of the node of depth `depth` whose first
    /// leaf is `lo`: the first later record that starts a sector or splits
    /// a shallower node. Walks the records inside the node.
    fn end_of(&self, lo: u32, depth: u32) -> u32 {
        let r = self.grid.r();
        let mut cur = self.leaf(lo).next;
        while cur >= r && u32::from(self.leaf(cur).split) >= depth {
            cur = self.leaf(cur).next;
        }
        cur
    }

    /// The internal node bisected at record `mid`, as its first record,
    /// the record at its right end, and its depth.
    fn node_at(&self, mid: u32) -> (u32, u32, u32) {
        let r = self.grid.r();
        let depth = u32::from(self.leaf(mid).split);
        let mut lo = self.leaf(mid).prev;
        while lo >= r && u32::from(self.leaf(lo).split) >= depth {
            lo = self.leaf(lo).prev;
        }
        (lo, self.end_of(mid, depth), depth)
    }

    /// `ℓ̃` of the edge between the extrema stored at records `lo` and
    /// `hi`, over the range they bound.
    fn slant(&self, lo: u32, hi: u32) -> f64 {
        let (a, b) = (self.leaf(lo), self.leaf(hi));
        slant_between(a.unit, b.unit, a.pt, b.pt)
    }

    /// Makes the `r` sector leaves, each storing `pt` at both ends.
    fn seed_sectors(&mut self, pt: Point2) {
        let r = self.grid.r();
        self.leaves = (0..r)
            .map(|j| Leaf {
                pt,
                unit: self.uniform.unit(j),
                next: (j + 1) % r,
                prev: (j + r - 1) % r,
                tag: UNTAGGED,
                depth: 0,
                split: 0,
            })
            .collect();
    }

    /// Links a new record after `lo` and returns its index, reusing a
    /// freed record when there is one.
    fn insert_after(&mut self, lo: u32, mut leaf: Leaf) -> u32 {
        let hi = self.leaf(lo).next;
        (leaf.prev, leaf.next) = (lo, hi);
        let id = if self.free == NIL {
            let id = u32::try_from(self.leaves.len()).expect("leaf record overflow");
            self.leaves.push(leaf);
            id
        } else {
            let id = self.free;
            self.free = self.leaf(id).next;
            *self.leaf_mut(id) = leaf;
            id
        };
        self.leaf_mut(lo).next = id;
        self.leaf_mut(hi).prev = id;
        id
    }

    /// Collapses the internal node of depth `depth` spanning records `lo`
    /// to `hi` back into a leaf (unrefinement): frees every record strictly
    /// between them, each the bisector of an internal node inside, with
    /// its queue entry.
    fn collapse(&mut self, lo: u32, hi: u32, depth: u32) {
        let mut cur = self.leaf(lo).next;
        while cur != hi {
            let next = self.leaf(cur).next;
            self.queue.remove(cur, &mut self.leaves);
            self.internal_count -= 1;
            self.leaf_mut(cur).next = self.free;
            self.free = cur;
            cur = next;
        }
        self.leaf_mut(hi).prev = lo;
        let leaf = self.leaf_mut(lo);
        leaf.next = hi;
        leaf.depth = depth as u8;
    }

    /// Refines the leaf at record `lo`, of range `range`, while its weight
    /// exceeds 1 (depth-capped). The mid extremum is chosen among the
    /// stored endpoints — exactly the information available in a single
    /// pass (§5.2 step 5).
    fn try_refine(&mut self, lo: u32, range: DirRange) {
        let (left, right) = (*self.leaf(lo), *self.leaf(self.leaf(lo).next));
        let (a, b) = (left.pt, right.pt);
        if a == b || !range.bisectable(&self.grid) {
            return;
        }
        let p = self.uniform.perimeter();
        let s = slant_between(left.unit, right.unit, a, b);
        if weight(s, range.depth, self.grid.r(), p) <= 1.0 {
            return;
        }
        // The forest's only unit lookup: a new bisector's, kept in its
        // record for every later visit.
        let um = self.grid.unit(range.mid(&self.grid));
        let t = if a.dot(um) >= b.dot(um) { a } else { b };
        let mid = self.insert_after(
            lo,
            Leaf {
                pt: t,
                unit: um,
                next: NIL,
                prev: NIL,
                tag: UNTAGGED,
                depth: range.depth as u8 + 1,
                split: range.depth as u8,
            },
        );
        self.leaf_mut(lo).depth += 1;
        self.internal_count += 1;
        self.queue.push(
            unrefine_threshold(s, range.depth, self.grid.r()),
            mid,
            &mut self.leaves,
        );
        let (lr, rr) = range.bisect(&self.grid);
        self.try_refine(lo, lr);
        self.try_refine(mid, rr);
    }

    /// Recursive update with the visit's point of the node of range
    /// `range` whose first leaf is record `lo`. Returns whether anything
    /// under it changed, and the record at its right end.
    fn update_node(&mut self, lo: u32, range: DirRange, v: &mut Visit) -> (bool, u32) {
        if !v.arc.overlaps(&self.grid, &range) {
            return (false, self.end_of(lo, range.depth));
        }
        let leaf = *self.leaf(lo);
        if u32::from(leaf.depth) == range.depth {
            let hi = leaf.next;
            let right = *self.leaf(hi);
            let (q, ul, ur) = (v.q, leaf.unit, right.unit);
            let beats_l = lo == v.carried || q.dot(ul) > leaf.pt.dot(ul);
            let beats_r = q.dot(ur) > right.pt.dot(ur);
            v.carried = if beats_r { hi } else { NIL };
            if !beats_l && !beats_r {
                return (false, hi);
            }
            if beats_l {
                self.leaf_mut(lo).pt = q;
            }
            if beats_r {
                self.leaf_mut(hi).pt = q;
            }
            self.try_refine(lo, range);
            return (true, hi);
        }
        let (left, right) = range.bisect(&self.grid);
        let (cl, mid) = self.update_node(lo, left, v);
        let (cr, hi) = self.update_node(mid, right, v);
        if !(cl || cr) {
            return (false, hi);
        }
        // Endpoints may have moved: re-evaluate this node.
        let s = self.slant(lo, hi);
        let p = self.uniform.perimeter();
        if weight(s, range.depth, self.grid.r(), p) <= 1.0 {
            self.collapse(lo, hi, range.depth);
        } else {
            self.queue.push(
                unrefine_threshold(s, range.depth, self.grid.r()),
                mid,
                &mut self.leaves,
            );
        }
        (true, hi)
    }

    /// Step 4: unrefine everything whose threshold the grown perimeter has
    /// passed. Every entry carries its node's current threshold, so each
    /// popped node collapses as it is.
    fn drain_queue(&mut self) {
        let p = self.uniform.perimeter();
        while let Some((threshold, mid)) = self.queue.pop_due(p, &mut self.leaves) {
            let (lo, hi, depth) = self.node_at(mid);
            debug_assert_eq!(
                threshold.to_bits(),
                self.threshold(lo, hi, depth).to_bits(),
                "a queued threshold went stale"
            );
            self.collapse(lo, hi, depth);
        }
    }

    /// The unrefinement threshold of the internal node of depth `depth`
    /// spanning records `lo` to `hi`, which its queue entry must carry.
    fn threshold(&self, lo: u32, hi: u32, depth: u32) -> f64 {
        unrefine_threshold(self.slant(lo, hi), depth, self.grid.r())
    }

    /// Circular range of sector indices whose trees the arc may touch
    /// (padded one sector each side for floating-point safety).
    fn sectors_for_arc(&self, arc: &PreparedArc) -> (u32, u32) {
        let r = self.grid.r();
        let theta0 = TAU / r as f64;
        let s_start = (arc.start / theta0).floor() as i64;
        let sectors_spanned = (arc.span / theta0).ceil() as i64 + 1;
        let first = (s_start - 1).rem_euclid(r as i64) as u32;
        let count = (sectors_spanned + 2).min(r as i64) as u32;
        (first, count)
    }

    // ------------------------------------------------------------------
    // Introspection used by metrics, tests, and visualisation
    // ------------------------------------------------------------------

    /// Every leaf in direction order, from sector 0's first, with the
    /// record at its right end.
    fn edges(&self) -> impl Iterator<Item = (&Leaf, &Leaf)> {
        let first = (!self.leaves.is_empty()).then_some(0);
        core::iter::successors(first, |&i| {
            Some(self.leaf(i).next).filter(|&next| next != 0)
        })
        .map(|i| {
            let leaf = self.leaf(i);
            (leaf, self.leaf(leaf.next))
        })
    }

    /// Calls `f(lo, mid, hi, depth)` for every internal node under the
    /// node of depth `depth` whose first leaf is record `lo`, children
    /// first; returns the record at its right end.
    fn visit_internal(&self, lo: u32, depth: u32, f: &mut impl FnMut(u32, u32, u32, u32)) -> u32 {
        if u32::from(self.leaf(lo).depth) == depth {
            return self.leaf(lo).next;
        }
        let mid = self.visit_internal(lo, depth + 1, f);
        let hi = self.visit_internal(mid, depth + 1, f);
        f(lo, mid, hi, depth);
        hi
    }

    /// Every internal node as `(lo, mid, hi, depth)`: its first record,
    /// its bisector's record, the record at its right end, and its depth.
    fn internal_nodes(&self) -> Vec<(u32, u32, u32, u32)> {
        let mut out = Vec::with_capacity(self.internal_count);
        if !self.leaves.is_empty() {
            for j in 0..self.grid.r() {
                self.visit_internal(j, 0, &mut |lo, mid, hi, depth| {
                    out.push((lo, mid, hi, depth))
                });
            }
        }
        out
    }

    /// The uncertainty triangles of the current adaptive hull's
    /// (non-degenerate) edges — the paper's per-edge error certificates.
    pub fn uncertainty_triangles(&self) -> Vec<UncertaintyTriangle> {
        self.edges()
            .filter(|(l, r)| l.pt != r.pt)
            .map(|(l, r)| UncertaintyTriangle::new(l.pt, r.pt, l.unit, r.unit))
            .collect()
    }

    /// Distinct stored sample points, in direction order: one walk over the
    /// leaf records, skipping each extremum equal to the one before it
    /// (vertex leaves, cross-sector repeats) and the wrap-around repeats of
    /// the first point.
    pub fn sample_points(&self) -> Vec<Point2> {
        let mut pts = Vec::with_capacity(self.grid.r() as usize + self.internal_count);
        for (leaf, _) in self.edges() {
            if pts.last() != Some(&leaf.pt) {
                pts.push(leaf.pt);
            }
        }
        while pts.len() > 1 && pts.first() == pts.last() {
            pts.pop();
        }
        pts
    }

    /// Verifies the structural invariants (used heavily in tests): the
    /// leaf records link into one circle whose leaves tile each sector in
    /// order, every boundary's unit and split depth match the grid, sector
    /// boundary extrema agree with the uniform extrema, every internal node
    /// still deserves to exist (`w > 1`), and the unrefinement queue holds
    /// exactly one entry per internal node, carrying its current threshold.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.queue.len() != self.internal_count {
            return Err(format!(
                "{} queue entries for {} internal nodes",
                self.queue.len(),
                self.internal_count
            ));
        }
        if self.leaves.is_empty() {
            return Ok(());
        }
        let r = self.grid.r();
        let k = self.grid.depth();
        let steps = self.grid.sector_steps();
        // 1. The records link into one circle of r + (internal nodes)
        //    leaves that tile each sector in order, from its first record.
        let mut live = 0usize;
        for j in 0..r {
            let (mut cur, mut offset) = (j, 0u64);
            loop {
                let leaf = self.leaf(cur);
                let dir = geom::dyadic::Dir(u64::from(j) * steps + offset);
                let want = if offset == 0 {
                    self.uniform.unit(j)
                } else {
                    // A boundary `offset` into the sector bisects the node
                    // of depth k − 1 − (trailing zeros of `offset`).
                    let split = k - 1 - offset.trailing_zeros();
                    if u32::from(leaf.split) != split {
                        return Err(format!(
                            "{dir:?} splits at depth {}, not {split}",
                            leaf.split
                        ));
                    }
                    self.grid.unit(dir)
                };
                if (leaf.unit.x.to_bits(), leaf.unit.y.to_bits())
                    != (want.x.to_bits(), want.y.to_bits())
                {
                    return Err(format!(
                        "{dir:?} caches unit {:?}, the grid's is {want:?}",
                        leaf.unit
                    ));
                }
                if u32::from(leaf.depth) > k {
                    return Err(format!("leaf at {dir:?} is below the depth cap"));
                }
                let span = steps >> leaf.depth;
                if offset % span != 0 || self.leaf(leaf.next).prev != cur {
                    return Err(format!(
                        "record {cur} at {dir:?} is mislinked or misaligned"
                    ));
                }
                live += 1;
                offset += span;
                cur = leaf.next;
                if offset >= steps {
                    break;
                }
                if cur < r {
                    return Err(format!("sector {j} ends early at record {cur}"));
                }
            }
            if offset != steps || cur != (j + 1) % r {
                return Err(format!("sector {j}'s leaves do not tile it"));
            }
        }
        if live != r as usize + self.internal_count {
            return Err(format!(
                "{live} leaves for {} internal nodes",
                self.internal_count
            ));
        }
        // 2. Sector boundary extrema match the uniform structure.
        for j in 0..r {
            let a = self.leaf(j).pt;
            let e = self.uniform.extremum(j).expect("uniform initialised");
            let u = self.uniform.unit(j);
            if (e.dot(u) - a.dot(u)).abs() > 1e-9 * e.dot(u).abs().max(1.0) {
                return Err(format!(
                    "sector {j} boundary extremum mismatch: tree {a:?} vs uniform {e:?}"
                ));
            }
        }
        // 3. Every internal node has weight > 1 after draining and is
        //    queued under its current threshold.
        let p = self.uniform.perimeter();
        for (lo, mid, hi, depth) in self.internal_nodes() {
            let s = self.slant(lo, hi);
            let w = weight(s, depth, r, p);
            if w <= 1.0 - 1e-9 {
                return Err(format!(
                    "internal node at record {mid} has weight {w} <= 1 (should have unrefined)"
                ));
            }
            let key = self.queue.key(mid, &self.leaves).map(f64::to_bits);
            let want = self.threshold(lo, hi, depth);
            if key != Some(want.to_bits()) {
                return Err(format!(
                    "internal node at record {mid} is queued under {key:?}, its threshold is {want}"
                ));
            }
        }
        Ok(())
    }
}

impl AdaptiveHull {
    /// Snapshot payload: grid shape, a queue byte (always 0, which keeps
    /// earlier heap-queue snapshots decodable; decode rejects any other
    /// value), the uniform substrate, and every refinement tree in
    /// preorder, each leaf with the extrema at both its boundaries.
    ///
    /// Nodes carry no explicit ranges on the wire: a root's range is its
    /// sector and children are the parent's bisection, so the decoder
    /// rebuilds them exactly. The unrefinement queue is **not** encoded:
    /// it holds exactly one entry per internal node, carrying the threshold
    /// the node's endpoints determine, so the decoder re-seeds that same
    /// entry for every internal node from its restored endpoints. A
    /// restored summary therefore has the original's queue length and
    /// `approx_bytes` as well as its behaviour — pinned by the round-trip
    /// property tests in `tests/failure_injection.rs` and the spill twins
    /// in `tests/tenant.rs`.
    pub(crate) fn snapshot_payload(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_u32, put_u8};
        put_u32(out, self.grid.r());
        put_u32(out, self.grid.depth());
        put_u8(out, 0);
        self.uniform.snapshot_payload(out);
        put_u8(out, !self.leaves.is_empty() as u8);
        if !self.leaves.is_empty() {
            for j in 0..self.grid.r() {
                self.write_node(j, 0, out);
            }
        }
    }

    /// Writes the node of depth `depth` whose first leaf is record `lo`;
    /// returns the record at its right end.
    fn write_node(&self, lo: u32, depth: u32, out: &mut Vec<u8>) -> u32 {
        use crate::snapshot::{put_point, put_u8};
        let leaf = self.leaf(lo);
        if u32::from(leaf.depth) == depth {
            put_u8(out, 0);
            put_point(out, leaf.pt);
            put_point(out, self.leaf(leaf.next).pt);
            return leaf.next;
        }
        put_u8(out, 1);
        let mid = self.write_node(lo, depth + 1, out);
        self.write_node(mid, depth + 1, out)
    }

    /// Inverse of [`AdaptiveHull::snapshot_payload`]. Adjacent leaves must
    /// store the same extremum, bit for bit, at the boundary they share:
    /// the records keep one per boundary.
    pub(crate) fn from_snapshot_payload(
        reader: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let r = reader.u32()?;
        let depth = reader.u32()?;
        if !r.is_power_of_two() || !(8..=MAX_R).contains(&r) || depth > 32 {
            return Err(SnapshotError::Malformed("invalid adaptive grid shape"));
        }
        if reader.u8()? != 0 {
            return Err(SnapshotError::Malformed("unknown queue kind"));
        }
        let grid = DirGrid::new(r, depth);
        let uniform = UniformHull::from_snapshot_payload(reader)?;
        if uniform.r() != r {
            return Err(SnapshotError::Malformed("uniform r disagrees with grid"));
        }
        let mut s = AdaptiveHull {
            grid,
            uniform,
            leaves: Vec::new(),
            free: NIL,
            queue: HeapQueue::new(),
            internal_count: 0,
            cache: HullCache::new(),
            distinct: GenCache::new(),
        };
        let has_roots = reader.u8()? != 0;
        if has_roots {
            s.seed_sectors(Point2::ORIGIN);
            // The extremum the previous leaf stored at its right end.
            let mut right_end = None;
            for j in 0..r {
                s.read_node(reader, j, DirRange::sector(&s.grid, j), &mut right_end)?;
            }
            if right_end.is_some_and(|b| !same_bits(b, s.leaf(0).pt)) {
                return Err(SnapshotError::Malformed("adjacent leaves disagree"));
            }
            // Re-seed the unrefinement queue: one entry per internal node
            // with its current threshold, as the live summary holds it.
            for (lo, mid, hi, depth) in s.internal_nodes() {
                let t = s.threshold(lo, hi, depth);
                s.queue.push(t, mid, &mut s.leaves);
            }
        }
        Ok(s)
    }

    /// Reads the node of range `range` whose first leaf is record `lo`.
    fn read_node(
        &mut self,
        reader: &mut crate::snapshot::Reader<'_>,
        lo: u32,
        range: DirRange,
        right_end: &mut Option<Point2>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        match reader.u8()? {
            0 => {
                let a = reader.point()?;
                let b = reader.point()?;
                if !(a.is_finite() && b.is_finite()) {
                    // Tree endpoints pass the uniform substrate's finite
                    // assert on every live path; forged non-finite points
                    // would panic later query/merge code.
                    return Err(SnapshotError::Malformed("non-finite tree endpoint"));
                }
                if right_end.replace(b).is_some_and(|prev| !same_bits(prev, a)) {
                    return Err(SnapshotError::Malformed("adjacent leaves disagree"));
                }
                let leaf = self.leaf_mut(lo);
                leaf.pt = a;
                leaf.depth = range.depth as u8;
            }
            1 => {
                if !range.bisectable(&self.grid) {
                    return Err(SnapshotError::Malformed("refinement below the depth cap"));
                }
                let mid = self.insert_after(
                    lo,
                    Leaf {
                        pt: Point2::ORIGIN,
                        unit: self.grid.unit(range.mid(&self.grid)),
                        next: NIL,
                        prev: NIL,
                        tag: UNTAGGED,
                        depth: 0,
                        split: range.depth as u8,
                    },
                );
                self.internal_count += 1;
                let (lr, rr) = range.bisect(&self.grid);
                self.read_node(reader, lo, lr, right_end)?;
                self.read_node(reader, mid, rr, right_end)?;
            }
            _ => return Err(SnapshotError::Malformed("unknown tree node tag")),
        }
        Ok(())
    }
}

/// `true` iff `a` and `b` are the same point bit for bit.
fn same_bits(a: Point2, b: Point2) -> bool {
    (a.x.to_bits(), a.y.to_bits()) == (b.x.to_bits(), b.y.to_bits())
}

impl AdaptiveHull {
    /// One point of Algorithm AdaptiveHull without cache bookkeeping;
    /// returns `true` iff the summarised state changed (the caller decides
    /// when to invalidate — per point for `insert`, once per batch for
    /// `insert_batch`).
    fn insert_inner(&mut self, q: Point2) -> bool {
        match self.uniform.insert_detailed(q) {
            UniformEffect::First => {
                self.seed_sectors(q);
                true
            }
            UniformEffect::Interior => false, // sample unchanged: keep the cache
            UniformEffect::Outside { arc, .. } => {
                let arc = PreparedArc::new(&arc);
                let (first, count) = self.sectors_for_arc(&arc);
                let r = self.grid.r();
                let mut visit = Visit {
                    q,
                    arc,
                    carried: NIL,
                };
                for i in 0..count {
                    let j = (first + i) % r;
                    self.update_node(j, DirRange::sector(&self.grid, j), &mut visit);
                }
                self.drain_queue();
                true
            }
        }
    }
}

impl HullSummary for AdaptiveHull {
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
        // Interior-certificate fast path: a point inside the inscribed
        // circle of `A` is exactly one step 1 would discard after its
        // O(log r) point location — discard it here for two multiplies,
        // bump the seen-count like the `Interior` branch, and keep the
        // `HullCache` untouched. The certificate rebuilds only when the
        // uniform substrate's hull generation advances; all invalidations
        // of this summary's own cache coalesce into one per batch.
        // Non-finite points never pass the certificate and panic inside
        // `insert_detailed` exactly like the loop.
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
        // The uniform substrate plus the refinement forest, charged as the
        // explicit tree it stands for: a 72-byte node for each of the r
        // sector roots and for both children of every internal node, an
        // 8-byte root handle per sector, and 32 bytes per queue entry.
        // That is an upper bound on the live leaf records (48 bytes, one per
        // root and one per internal node) and the 16-byte queue entries the
        // summary holds. Measured with a counting allocator, an r = 32
        // summary of one hot `fleet_ingest` stream (47 points, 12 samples)
        // charges 7,824 B and holds 4,224 B of heap, and one of a 1M-point
        // annulus charges 7,776 B and holds 4,864 B. Unlike the trait
        // default it stays above the snapshot envelope, so spilling an idle
        // adaptive tenant genuinely shrinks its accounted footprint.
        let roots = if self.leaves.is_empty() {
            0
        } else {
            self.grid.r() as usize
        };
        self.uniform.approx_bytes()
            + 64
            + (roots + 2 * self.internal_count) * 72
            + self.queue.len() * 32
            + roots * 8
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn error_bound(&self) -> Option<f64> {
        // Corollary 5.2 / Theorem 5.4: d∞ = 16πP/r² with P the live
        // perimeter of the uniformly sampled hull. The uniform substrate
        // sees every point and its extrema are sample points, so its
        // Lemma 3.2 certificate bounds this hull too; report the smaller.
        let r = self.grid.r() as f64;
        let paper = 16.0 * core::f64::consts::PI * self.uniform.perimeter() / (r * r);
        self.uniform.error_bound().map(|cert| cert.min(paper))
    }
}

impl Mergeable for AdaptiveHull {
    fn sample_points(&self) -> Vec<Point2> {
        AdaptiveHull::sample_points(self)
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

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    fn lcg_points(seed: u64, n: usize, sx: f64, sy: f64) -> Vec<Point2> {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| p((next() - 0.5) * sx, (next() - 0.5) * sy))
            .collect()
    }

    fn feed(hull: &mut AdaptiveHull, pts: &[Point2], check_every: usize) {
        for (i, &q) in pts.iter().enumerate() {
            hull.insert(q);
            if check_every > 0 && i % check_every == 0 {
                hull.check_invariants()
                    .unwrap_or_else(|e| panic!("after point {i}: {e}"));
            }
        }
        hull.check_invariants().expect("final invariants");
    }

    #[test]
    fn single_point_stream() {
        let mut h = AdaptiveHull::with_r(8);
        h.insert(p(3.0, 4.0));
        h.check_invariants().unwrap();
        assert_eq!(h.sample_size(), 1);
        assert_eq!(h.hull().len(), 1);
        assert_eq!(h.adaptive_direction_count(), 0);
    }

    #[test]
    fn duplicate_points_stay_degenerate() {
        let mut h = AdaptiveHull::with_r(8);
        for _ in 0..100 {
            h.insert(p(1.0, 1.0));
        }
        assert_eq!(h.sample_size(), 1);
        assert_eq!(h.points_seen(), 100);
    }

    #[test]
    fn collinear_stream() {
        let mut h = AdaptiveHull::with_r(16);
        let pts: Vec<Point2> = (0..200)
            .map(|i| p(i as f64 * 0.1, i as f64 * 0.2))
            .collect();
        feed(&mut h, &pts, 7);
        let hull = h.hull();
        assert_eq!(hull.len(), 2, "collinear stream has a segment hull");
        let d = geom::calipers::diameter(&hull).unwrap().2;
        let expect = p(0.0, 0.0).distance(p(19.9, 39.8));
        assert!((d - expect).abs() < 1e-9);
    }

    #[test]
    fn random_cloud_invariants_and_budget() {
        for r in [8u32, 16, 32] {
            let mut h = AdaptiveHull::with_r(r);
            let pts = lcg_points(42 + r as u64, 3000, 20.0, 20.0);
            feed(&mut h, &pts, 31);
            assert!(
                h.sample_size() <= (2 * r + 1) as usize,
                "r={r}: sample {} exceeds 2r+1",
                h.sample_size()
            );
            assert!(
                h.adaptive_direction_count() <= (r + 1) as usize,
                "r={r}: {} adaptive directions exceeds r+1",
                h.adaptive_direction_count()
            );
        }
    }

    #[test]
    fn skinny_ellipse_budget_and_invariants() {
        // The adaptive scheme's home turf: aspect-16 ellipse.
        let mut s = 7u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point2> = (0..5000)
            .map(|_| {
                let (x, y) = loop {
                    let x = next() * 2.0 - 1.0;
                    let y = next() * 2.0 - 1.0;
                    if x * x + y * y <= 1.0 {
                        break (x, y);
                    }
                };
                let v = geom::Vec2::new(x * 16.0, y).rotate(0.13);
                Point2::ORIGIN + v
            })
            .collect();
        let r = 16u32;
        let mut h = AdaptiveHull::with_r(r);
        feed(&mut h, &pts, 53);
        assert!(
            h.sample_size() <= (2 * r + 1) as usize,
            "sample {}",
            h.sample_size()
        );
        assert!(
            h.adaptive_direction_count() > 0,
            "ellipse must trigger refinement"
        );
    }

    #[test]
    fn approx_hull_is_inside_exact_hull() {
        use crate::exact::ExactHull;
        let pts = lcg_points(5, 2000, 30.0, 10.0);
        let mut a = AdaptiveHull::with_r(16);
        let mut e = ExactHull::new();
        for &q in &pts {
            a.insert(q);
            e.insert(q);
        }
        let exact = e.hull();
        for &v in a.hull().vertices() {
            assert!(
                exact.contains_linear(v),
                "adaptive hull vertex {v:?} outside the exact hull"
            );
        }
        // Every sample is an actual input point.
        for s in a.sample_points() {
            assert!(pts.contains(&s), "sample {s:?} is not an input point");
        }
    }

    #[test]
    fn error_bound_on_circle_stream() {
        use crate::exact::ExactHull;
        // Points on a circle of radius R: D = 2R. The adaptive error must be
        // O(D/r²) with a modest constant (16π P / r² is the paper's d_∞).
        let pts: Vec<Point2> = (0..4000)
            .map(|i| {
                let t = TAU * (i as f64) * 0.618033988749895;
                p(5.0 * t.cos(), 5.0 * t.sin())
            })
            .collect();
        for r in [16u32, 32, 64] {
            let mut a = AdaptiveHull::with_r(r);
            let mut e = ExactHull::new();
            for &q in &pts {
                a.insert(q);
                e.insert(q);
            }
            let err = a.hull().directed_hausdorff_from(&e.hull());
            let d = 10.0;
            let bound =
                16.0 * core::f64::consts::PI * core::f64::consts::PI * d / (r as f64 * r as f64);
            assert!(err <= bound, "r={r}: error {err} > {bound}");
        }
    }

    #[test]
    fn adaptive_beats_uniform_on_rotated_ellipse() {
        use crate::exact::ExactHull;
        use crate::uniform::NaiveUniformHull;
        let mut s = 11u64;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let rot = TAU / 32.0 / 4.0; // θ0/4 for r = 32
        let pts: Vec<Point2> = (0..20000)
            .map(|_| {
                let (x, y) = loop {
                    let x = next() * 2.0 - 1.0;
                    let y = next() * 2.0 - 1.0;
                    if x * x + y * y <= 1.0 {
                        break (x, y);
                    }
                };
                let v = geom::Vec2::new(x * 16.0, y).rotate(rot);
                Point2::ORIGIN + v
            })
            .collect();
        // Equal sample budget: uniform with 2r directions vs adaptive r.
        let mut uni = NaiveUniformHull::new(32);
        let mut ada = AdaptiveHull::with_r(16);
        let mut exact = ExactHull::new();
        for &q in &pts {
            uni.insert(q);
            ada.insert(q);
            exact.insert(q);
        }
        let truth = exact.hull();
        let ue = uni.hull().directed_hausdorff_from(&truth);
        let ae = ada.hull().directed_hausdorff_from(&truth);
        assert!(
            ae < ue,
            "adaptive ({ae}) should beat uniform ({ue}) on the rotated ellipse"
        );
    }

    #[test]
    fn spiral_stress() {
        let mut h = AdaptiveHull::with_r(16);
        let pts: Vec<Point2> = (0..2000)
            .map(|i| {
                let t = 2.399963229728653 * i as f64;
                let rad = 1.0 + 0.01 * i as f64;
                p(rad * t.cos(), rad * t.sin())
            })
            .collect();
        feed(&mut h, &pts, 101);
        assert!(h.sample_size() <= 33, "sample {}", h.sample_size());
        // The final hull approximates a disk of radius ~21.
        let d = geom::calipers::diameter(&h.hull()).unwrap().2;
        assert!(d > 38.0 && d < 42.5, "diameter {d}");
    }

    #[test]
    fn merge_from_preserves_error_bound() {
        use crate::exact::ExactHull;
        // Two gateways each see half the stream; the collector merges.
        let all = lcg_points(99, 4000, 30.0, 10.0);
        let (first, second) = all.split_at(2000);
        let r = 16u32;
        let mut g1 = AdaptiveHull::with_r(r);
        let mut g2 = AdaptiveHull::with_r(r);
        for &p in first {
            g1.insert(p);
        }
        for &p in second {
            g2.insert(p);
        }
        let mut merged = g1.clone();
        merged.merge_from(&g2);
        merged.check_invariants().unwrap();
        assert_eq!(merged.points_seen(), 4000);
        assert!(merged.sample_size() <= (2 * r + 1) as usize);

        let mut exact = ExactHull::new();
        for &p in &all {
            exact.insert(p);
        }
        let err = merged.hull().directed_hausdorff_from(&exact.hull());
        // Sum of three O(D/r²) terms with the paper constant is generous.
        let bound = 3.0 * 16.0 * core::f64::consts::PI * merged.uniform().perimeter()
            / (r as f64 * r as f64);
        assert!(err <= bound, "merged error {err} > {bound}");
        // Merge must dominate neither direction: merged hull contains both
        // parts' hulls up to their own error (sanity: vertices inside exact).
        for &v in merged.hull().vertices() {
            assert!(exact.hull().contains_linear(v));
        }
    }

    #[test]
    fn depth_zero_is_uniform_sampling() {
        // k = 0 disables refinement: behaves like the uniform hull (§5.1).
        let pts = lcg_points(13, 1000, 10.0, 3.0);
        let mut h = AdaptiveHull::new(AdaptiveHullConfig::new(16).with_depth(0));
        let mut u = UniformHull::new(16);
        for &q in &pts {
            h.insert(q);
            u.insert(q);
        }
        assert_eq!(h.adaptive_direction_count(), 0);
        assert_eq!(h.hull().vertices(), u.hull().vertices());
    }

    #[test]
    fn uncertainty_triangles_cover_all_points() {
        // Invariant behind step 1: every stream point is inside the union
        // of the adaptive hull and its uncertainty triangles, *at the time
        // it arrives*. We verify a weaker but testable form: at the end, every
        // point is within the max triangle height of the hull.
        let pts = lcg_points(17, 1500, 12.0, 12.0);
        let mut h = AdaptiveHull::with_r(16);
        for &q in &pts {
            h.insert(q);
        }
        let hull = h.hull();
        let max_h = h
            .uncertainty_triangles()
            .iter()
            .map(|t| t.height())
            .fold(0.0f64, f64::max);
        // Lemma 5.1/Corollary 5.2: discarded points may additionally sit up
        // to d_∞ = 16πP/r² beyond the current supporting lines.
        let slack = 16.0 * core::f64::consts::PI * h.uniform().perimeter() / (16.0f64 * 16.0);
        for &q in &pts {
            let d = hull.distance_to_point(q);
            assert!(
                d <= max_h + slack,
                "point {q:?} lies {d} outside, max uncertainty {max_h} + slack {slack}"
            );
        }
    }

    /// An r = 32 summary of one hot `fleet_ingest` stream (seed 1, stream
    /// 119: 47 points, 12 samples) reached 27 internal nodes, so the node
    /// arena that held its trees grew to 128 slots of 72 bytes: 9,216 B.
    /// Its leaf records and queue must reserve at most half of that.
    #[test]
    fn a_hot_fleet_stream_reserves_at_most_half_the_node_arena() {
        use streamgen::TenantTraffic;
        let pts: Vec<Point2> = TenantTraffic::new(1, 50_000, 262_144)
            .filter(|&(stream, _)| stream == 119)
            .map(|(_, q)| q)
            .collect();
        assert_eq!(pts.len(), 47);
        let mut h = AdaptiveHull::with_r(32);
        let mut most = 0;
        for &q in &pts {
            h.insert(q);
            most = most.max(h.adaptive_direction_count());
        }
        h.check_invariants().unwrap();
        assert_eq!((h.sample_size(), most), (12, 27));
        let reserved = h.leaves.capacity() * size_of::<Leaf>() + h.queue.reserved_bytes();
        assert!(reserved <= 9_216 / 2, "{reserved} B reserved");
    }

    /// Every dyadic range of `grid`: each sector and its bisections down to
    /// the depth cap.
    fn all_ranges(grid: &DirGrid) -> Vec<DirRange> {
        let mut out = Vec::new();
        let mut stack: Vec<DirRange> = (0..grid.r()).map(|j| DirRange::sector(grid, j)).collect();
        while let Some(range) = stack.pop() {
            if range.bisectable(grid) {
                let (left, right) = range.bisect(grid);
                stack.extend([left, right]);
            }
            out.push(range);
        }
        out
    }

    /// Pushes `x` and its two `f64` neighbours that lie in `[0, 2π]`.
    fn push_with_neighbours(out: &mut Vec<f64>, x: f64) {
        out.extend(
            [x.next_down(), x, x.next_up()]
                .into_iter()
                .filter(|y| (0.0..=TAU).contains(y)),
        );
    }

    /// The prepared arc test against the `rem_euclid` closure both
    /// backends ran before it, on every node range of r ∈ {8, 32, 128} at
    /// depths 0, 3 and the default. Every width, and every wrapped offset
    /// at the listed starts, is checked bit for bit against the
    /// reference's, which makes those decisions equal for any span. The
    /// decisions themselves, which also pin where `overlaps` pads each
    /// half, are compared over the full product of ranges, starts and
    /// spans, plus the starts where each decision flips, on every grid but
    /// the largest (32,640 ranges), where the product would take seconds.
    #[test]
    fn prepared_arc_decides_like_the_rem_euclid_reference() {
        const PAD: f64 = 1e-9;
        let contains = |s: f64, span: f64, x: f64| ((x - s).rem_euclid(TAU)) <= span + 2.0 * PAD;
        let reference = |grid: &DirGrid, range: &DirRange, start: f64, span: f64| {
            let a_start = grid.angle(range.lo);
            let a_span = range.width(grid);
            contains(a_start - PAD, a_span, start) || contains(start - PAD, span, a_start)
        };
        let pi = core::f64::consts::PI;
        for (r, depths) in [(8u32, &[0, 3][..]), (32, &[0, 3, 5]), (128, &[0, 3, 7])] {
            for &depth in depths {
                let grid = DirGrid::new(r, depth);
                let ranges = all_ranges(&grid);
                assert_eq!(ranges.len() as u64, u64::from(r) * ((2 << depth) - 1));
                // Arc starts: the ends of `[0, 2π]` and every sector
                // boundary with its neighbours.
                let mut starts = vec![0.0, f64::from_bits(1), TAU.next_down(), TAU];
                for j in 0..r {
                    push_with_neighbours(&mut starts, grid.angle(grid.uniform_dir(j)));
                }
                // Spans: zero, one ulp, every node width with its
                // neighbours, and up to the widest beaten arc, `π`.
                let mut spans = vec![0.0, f64::from_bits(1), pi.next_down(), pi];
                for range in ranges.iter().filter(|range| range.lo.0 == 0) {
                    push_with_neighbours(&mut spans, range.width(&grid));
                }
                for range in &ranges {
                    let (got, want) = (dyadic_width(&grid, range), range.width(&grid));
                    assert_eq!(got.to_bits(), want.to_bits(), "{range:?}: width");
                }
                // The deepest ranges start at every direction any range
                // starts at.
                for range in ranges.iter().filter(|range| range.depth == depth) {
                    let a = grid.angle(range.lo);
                    for &start in &starts {
                        for (s, x) in [(a - PAD, start), (start - PAD, a)] {
                            assert_eq!(
                                ccw_offset(s, x).to_bits(),
                                (x - s).rem_euclid(TAU).to_bits(),
                                "r = {r}, depth = {depth}, {range:?}, start {start:e}: ({x:e} - {s:e}) mod 2π"
                            );
                        }
                    }
                }
                if ranges.len() > 2048 {
                    continue;
                }
                for range in &ranges {
                    // Plus the starts where this range's decision flips:
                    // its padded ends, and one span below its padded start.
                    let (a, w) = (grid.angle(range.lo), range.width(&grid));
                    let mut ends = Vec::new();
                    push_with_neighbours(&mut ends, (a - PAD).rem_euclid(TAU));
                    push_with_neighbours(&mut ends, (a + w + PAD).rem_euclid(TAU));
                    for &span in &spans {
                        let mut edges = ends.clone();
                        push_with_neighbours(&mut edges, (a - span - PAD).rem_euclid(TAU));
                        for &start in starts.iter().chain(&edges) {
                            assert_eq!(
                                PreparedArc { start, span }.overlaps(&grid, range),
                                reference(&grid, range, start, span),
                                "r = {r}, depth = {depth}, {range:?}, start {start:e}, span {span:e}"
                            );
                        }
                    }
                }
            }
        }
    }
}
