//! The identities the sort- and trigonometry-free ingestion paths rest on,
//! pinned bit for bit:
//!
//! * `fan_unit` equals its formula `Vec2::from_angle(2π·index/count)`:
//!   exhaustively on the shared 4,096-direction table (every power-of-two
//!   `count <= 4096`, every `index < count`), and on sampled pairs that
//!   must bypass the table. This is the test that pins the formula;
//! * the uniform summaries' direction tables equal the dyadic grid's unit
//!   vectors at the uniform directions, at every depth. Where both fans
//!   fit the table this compares two table reads; it pins the scaling
//!   identity the table rests on, and table against formula only where
//!   the grid's resolution exceeds 4,096;
//! * the linear extrema-hull pass (`assign_hull_of_ccw_cycle`) equals
//!   `ConvexPolygon::hull_of` on run-owner sequences — real ones taken from
//!   `UniformHull`, and synthetic ones with repeats, collinear owners,
//!   signed zeros and deliberately broken convexity;
//! * `UniformHull::error_bound`, whose Lemma 3.2 prefilter builds only the
//!   uncertainty triangles that could be the tallest, equals the reference
//!   fold of `metrics::uniform_uncertainty_triangles` to its tallest
//!   height, and both adaptive backends' `hull_ref`, rebuilt by the linear
//!   pass over their direction-ordered samples, equals `hull_of` of those
//!   samples — on streams translated far from the origin and at large `r`,
//!   where rounding is largest.
//!
//! The adaptive leaf records' cached boundary units are checked by
//! `AdaptiveHull::check_invariants`, which the summary proptests call.
//!
//! A change to any of these sort-free or prefiltered paths extends this
//! file with its reference and these far-translated, large-`r` inputs.

use core::f64::consts::TAU;
use geom::dyadic::{fan_unit, DirGrid};
use geom::hull::monotone_chain_with;
use proptest::prelude::*;
use streamhull::metrics::uniform_uncertainty_triangles;
use streamhull::prelude::*;
use streamhull::streamgen::{Annulus, CirclePoints, Drift};

fn bits(p: Point2) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

fn vertex_bits(poly: &ConvexPolygon) -> Vec<(u64, u64)> {
    poly.vertices().iter().copied().map(bits).collect()
}

/// `assign_hull_of_ccw_cycle` (into a polygon holding stale vertices)
/// against `hull_of`, bit for bit.
fn check_cycle(cycle: &[Point2]) -> TestCaseResult {
    let want = ConvexPolygon::hull_of(cycle);
    let mut got = ConvexPolygon::hull_of(&[Point2::new(7.0, 7.0), Point2::new(8.0, 9.0)]);
    let mut scratch = vec![Point2::new(1.0, 1.0)];
    got.assign_hull_of_ccw_cycle(cycle, &mut scratch);
    prop_assert_eq!(vertex_bits(&got), vertex_bits(&want), "cycle {:?}", cycle);
    Ok(())
}

/// Small deterministic generator for the synthetic cycles.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A weakly convex ccw cycle on a small lattice — the inclusive hull
/// boundary, so collinear owners appear — with repeats, a random start,
/// zeros of random sign and, when `break_it`, one perturbation that may
/// destroy convexity: a swap, an interior point, a reversal, or a cycle
/// winding twice (the whole cycle repeated, or every second point — a
/// star when the length is odd).
fn synthetic_cycle(seed: u64, n: usize, span: i32, break_it: bool) -> Vec<Point2> {
    let mut rng = Lcg(seed);
    let side = 2 * span as u64 + 1;
    let mut pts: Vec<Point2> = (0..n)
        .map(|_| {
            let x = rng.below(side) as i32 - span;
            let y = rng.below(side) as i32 - span;
            Point2::new(x as f64, y as f64)
        })
        .collect();
    let mut boundary = Vec::new();
    monotone_chain_with(&mut pts, &mut boundary, true);
    // A fully collinear input lists its middle points twice, once per
    // chain: that is a cycle doubling back, which must fall back.
    let mut cycle = Vec::new();
    for p in boundary {
        for _ in 0..=rng.below(3) {
            let flip = |v: f64, rng: &mut Lcg| {
                if v.to_bits() == 0 && rng.below(2) == 0 {
                    -0.0
                } else {
                    v
                }
            };
            let x = flip(p.x, &mut rng);
            let y = flip(p.y, &mut rng);
            cycle.push(Point2::new(x, y));
        }
    }
    if cycle.is_empty() {
        return cycle;
    }
    let start = rng.below(cycle.len() as u64) as usize;
    cycle.rotate_left(start);
    if break_it {
        let len = cycle.len() as u64;
        match rng.below(5) {
            0 => {
                let (i, j) = (rng.below(len) as usize, rng.below(len) as usize);
                cycle.swap(i, j);
            }
            1 => {
                let i = rng.below(len) as usize;
                cycle.insert(i, Point2::new(0.0, 0.0));
            }
            2 => cycle.reverse(),
            3 => cycle.extend(cycle.clone()),
            _ => {
                let len = cycle.len();
                cycle = (0..len).map(|i| cycle[2 * i % len]).collect();
            }
        }
    }
    cycle
}

fn pt_strategy() -> impl Strategy<Value = Point2> {
    prop_oneof![
        (-50.0f64..50.0, -50.0f64..50.0).prop_map(|(x, y)| Point2::new(x, y)),
        // Lattice points: repeated and collinear extrema, and zeros.
        (-3i32..4, -3i32..4).prop_map(|(x, y)| Point2::new(x as f64, y as f64)),
        // Negative zeros on either axis.
        (-3i32..4, 0i32..2).prop_map(|(v, axis)| {
            if axis == 0 {
                Point2::new(-0.0, v as f64)
            } else {
                Point2::new(v as f64, -0.0)
            }
        }),
        // Skinny band: long runs and near-collinear owners.
        (-50.0f64..50.0, -0.01f64..0.01).prop_map(|(x, y)| Point2::new(x, y)),
    ]
}

fn unit_bits(v: Vec2) -> (u64, u64) {
    (v.x.to_bits(), v.y.to_bits())
}

/// `fan_unit(index, count)` against its formula, bit for bit.
fn assert_fan_unit_is_the_formula(index: u64, count: u64) {
    let want = Vec2::from_angle(TAU * index as f64 / count as f64);
    assert_eq!(
        unit_bits(fan_unit(index, count)),
        unit_bits(want),
        "fan_unit({index}, {count})"
    );
}

#[test]
fn fan_unit_table_reads_equal_the_formula() {
    // Every pair the shared table serves.
    let mut pairs = 0;
    for log_count in 0..=12 {
        let count = 1u64 << log_count;
        for index in 0..count {
            assert_fan_unit_is_the_formula(index, count);
            pairs += 1;
        }
    }
    assert_eq!(pairs, 8191);
    // Pairs the table must not serve: counts above the cap, counts that
    // are not powers of two, and indices at or past the count.
    for count in [1u64 << 13, 1 << 20] {
        for index in [0, 1, 2, 3, 4095, 4096, count / 3, count / 2 + 1, count - 1] {
            assert_fan_unit_is_the_formula(index, count);
        }
    }
    for count in [5u64, 12, 100] {
        for index in 0..=count {
            assert_fan_unit_is_the_formula(index, count);
        }
    }
    for (index, count) in [(1, 1), (8, 8), (9, 8), (33, 32), (4096, 4096), (5000, 4096)] {
        assert_fan_unit_is_the_formula(index, count);
    }
}

#[test]
fn uniform_direction_tables_equal_the_grid_units() {
    for log_r in 3..=12u32 {
        let r = 1u32 << log_r;
        let uniform = UniformHull::new(r);
        let naive = NaiveUniformHull::new(r);
        for depth in 0..=log_r + 2 {
            let grid = DirGrid::new(r, depth);
            for j in 0..r {
                let want = grid.unit(grid.uniform_dir(j));
                for (who, got) in [("uniform", uniform.unit(j)), ("naive", naive.unit(j))] {
                    assert_eq!(
                        unit_bits(got),
                        unit_bits(want),
                        "{who}: r = {r}, depth = {depth}, j = {j}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extrema_hull_pass_matches_hull_of_on_real_run_owners(
        pts in prop::collection::vec(pt_strategy(), 1..120),
        rexp in 2u32..7,
    ) {
        let r = 1u32 << rexp; // 4..64
        let mut u = UniformHull::new(r);
        for &q in &pts {
            u.insert(q);
            let owners: Vec<Point2> = u.runs().iter().map(|run| run.point).collect();
            check_cycle(&owners)?;
            let want = ConvexPolygon::hull_of(&owners);
            prop_assert_eq!(vertex_bits(u.hull_ref()), vertex_bits(&want));
        }
    }

    #[test]
    fn extrema_hull_pass_matches_hull_of_on_synthetic_cycles(
        seed in 0u64..u64::MAX,
        n in 1usize..40,
        span in 1i32..6,
        break_it in 0u32..4,
    ) {
        check_cycle(&synthetic_cycle(seed, n, span, break_it == 0))?;
    }
}

/// Fan sizes for the certificate identity: every power of two from 4 to
/// 4,096, and three sizes that bypass the shared fan table.
const CERT_RS: [u32; 14] = [
    4, 8, 12, 16, 32, 64, 100, 128, 256, 512, 1000, 1024, 2048, 4096,
];

/// The streams the certificate and adaptive-rebuild identities run on,
/// before translation: a drift, an annulus, tiny clouds, integer-snapped
/// and signed-zero points, a duplicate flood, and `2r` points on a circle
/// (every uncertainty triangle the same height, up to rounding) for
/// `r <= 512`.
fn identity_streams(r: u32) -> Vec<(&'static str, Vec<Point2>)> {
    let mut rng = Lcg(0x1d3a);
    let mut unit = move || rng.next() as f64 / (1u64 << 31) as f64 * 2.0 - 1.0;
    let mut streams = vec![
        (
            "drift",
            Drift::new(3, 500, Point2::new(0.0, 0.0), Point2::new(256.0, 64.0), 1.0).collect(),
        ),
        ("annulus", Annulus::new(5, 500, 0.95, 1.0).collect()),
    ];
    for (name, n) in [
        ("2 points", 2),
        ("3 points", 3),
        ("7 points", 7),
        ("40 points", 40),
    ] {
        let pts = (0..n).map(|_| Point2::new(10.0 * unit(), 10.0 * unit()));
        streams.push((name, pts.collect()));
    }
    let snapped = (0..300).map(|_| Point2::new((8.0 * unit()).round(), (8.0 * unit()).round()));
    streams.push(("integer-snapped", snapped.collect()));
    // Negative zeros first, so they own their directions against the
    // positive copies that follow.
    let mut zeros = Vec::new();
    for v in [1.0, -1.0, 2.5, -3.0] {
        zeros.push(Point2::new(-0.0, v));
        zeros.push(Point2::new(v, -0.0));
    }
    zeros.push(Point2::new(-0.0, -0.0));
    for v in [1.0, -1.0, 2.5, -3.0] {
        zeros.push(Point2::new(0.0, v));
        zeros.push(Point2::new(v, 0.0));
    }
    zeros.push(Point2::new(0.5, 0.5));
    streams.push(("signed zeros", zeros));
    let distinct: Vec<Point2> = (0..6).map(|_| Point2::new(unit(), unit())).collect();
    let flood = (0..300).map(|i| distinct[(i * 7 + i / 5) % distinct.len()]);
    streams.push(("duplicate flood", flood.collect()));
    // Each point takes O(r) to insert here, so the circle stops at
    // r = 512 to keep the debug build quick.
    if r <= 512 {
        streams.push((
            "circle of 2r",
            CirclePoints::new(2 * r as usize, 5.0).collect(),
        ));
    }
    streams
}

/// A coordinate remapping applied to a whole stream.
type Remap = fn(Point2) -> Point2;

/// Each stream as given, translated by 10⁹ and by 10¹², and offset by
/// 10⁶ at scale 10⁻⁶: far from the origin the apex computation cancels
/// most, which is what the prefilter's rounding margin must cover.
fn identity_inputs(r: u32) -> Vec<(String, Vec<Point2>)> {
    let variants: [(&str, Remap); 4] = [
        ("as given", |p| p),
        ("moved by (1e9, -1e9)", |p| {
            Point2::new(p.x + 1e9, p.y - 1e9)
        }),
        ("moved by (1e12, 1e12)", |p| {
            Point2::new(p.x + 1e12, p.y + 1e12)
        }),
        ("1e6 + 1e-6·p", |p| {
            Point2::new(1e6 + 1e-6 * p.x, 1e6 + 1e-6 * p.y)
        }),
    ];
    let mut out = Vec::new();
    for (name, pts) in identity_streams(r) {
        for (variant, map) in variants {
            out.push((
                format!("{name}, {variant}"),
                pts.iter().map(|&p| map(p)).collect(),
            ));
        }
    }
    out
}

/// Whether to check after the first `seen` of `len` points: every one of
/// the first 32, then every eighth up to 512, and the last.
fn checkpoint(seen: usize, len: usize) -> bool {
    seen <= 32 || (seen <= 512 && seen.is_multiple_of(8)) || seen == len
}

/// The reference certificate: every uncertainty triangle, folded to the
/// tallest height.
fn folded_certificate(u: &UniformHull) -> f64 {
    uniform_uncertainty_triangles(u)
        .iter()
        .map(|t| t.height())
        .fold(0.0, f64::max)
}

#[test]
fn prefiltered_certificate_equals_the_triangle_fold() {
    let (mut checked, mut nonzero) = (0usize, 0usize);
    for r in CERT_RS {
        for (name, pts) in identity_inputs(r) {
            let mut u = UniformHull::new(r);
            for (i, &q) in pts.iter().enumerate() {
                u.insert(q);
                if !checkpoint(i + 1, pts.len()) {
                    continue;
                }
                let got = u.error_bound().expect("the uniform hull reports a bound");
                let want = folded_certificate(&u);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "r = {r}, {name}, after {} points: {got} vs the fold's {want}",
                    i + 1
                );
                checked += 1;
                nonzero += usize::from(want > 0.0);
            }
        }
    }
    // Most checks must see real triangles, not empty or flat hulls.
    assert!(
        nonzero * 2 > checked,
        "{nonzero} of {checked} checks had a triangle"
    );
}

#[test]
fn adaptive_rebuilds_equal_hull_of_their_samples() {
    fn check(who: &str, name: &str, r: u32, h: &dyn HullSummary, samples: &[Point2]) {
        assert_eq!(
            vertex_bits(h.hull_ref()),
            vertex_bits(&ConvexPolygon::hull_of(samples)),
            "{who}, r = {r}, {name}"
        );
    }
    // Samples with an `x` of -0.0 send the linear pass to its sort.
    let mut fell_back = 0;
    // The adaptive backends take powers of two from 8; the budgeted
    // variant rebalances in O(r²) per insert, so its sweep stops at 128.
    for r in [8u32, 16, 32, 64, 128, 1024] {
        for (name, pts) in identity_inputs(r) {
            let mut adaptive = AdaptiveHull::with_r(r);
            let mut budget = (r <= 128).then(|| FixedBudgetAdaptiveHull::new(r));
            for (i, &q) in pts.iter().enumerate() {
                adaptive.insert(q);
                if let Some(b) = budget.as_mut() {
                    b.insert(q);
                }
                if !checkpoint(i + 1, pts.len()) {
                    continue;
                }
                let samples = adaptive.sample_points();
                check("adaptive", &name, r, &adaptive, &samples);
                fell_back +=
                    usize::from(samples.iter().any(|p| p.x.to_bits() == (-0.0f64).to_bits()));
                if let Some(b) = budget.as_ref() {
                    check("adaptive-2r", &name, r, b, &b.sample_points());
                }
            }
        }
    }
    assert!(fell_back > 0, "no check reached the sort fallback");
}
