//! # sh-bench — the experiment harness
//!
//! Shared machinery for regenerating every table and figure of the paper:
//! workload construction (with the seeds recorded in `EXPERIMENTS.md`),
//! metric collection, and plain-text table/CSV formatting. The binaries
//! (`table1`, `lower_bound`, `error_scaling`, `figures`) are thin wrappers
//! over this module.
//! [`schema`] is the one schema of the `throughput` bench document, which
//! the `throughput` bin renders and the `check_schema` bin validates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod schema;

use adaptive_hull::metrics::{self, ProbeStats, TriangleStats};
use adaptive_hull::{
    FixedBudgetAdaptiveHull, FrozenHull, HullSummary, NaiveUniformHull, SummaryBuilder,
};
use geom::Point2;
use streamgen::{Changing, Disk, Ellipse, Square};

/// Default stream length: the paper uses 10⁵ points per experiment.
pub const TABLE1_N: usize = 100_000;

/// Default seed for every Table 1 workload (recorded in EXPERIMENTS.md).
pub const TABLE1_SEED: u64 = 20040614; // PODS 2004 publication date homage

/// The paper's `r` for the uniform hull in Table 1 (adaptive uses `r/2`).
pub const TABLE1_R: u32 = 32;

/// One row of a Table-1-style comparison.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Workload label (e.g. "square rotated by θ0/4").
    pub label: String,
    /// Left algorithm (uniform or partial) metrics.
    pub left: RowMetrics,
    /// Right algorithm (adaptive) metrics.
    pub right: RowMetrics,
}

/// Metrics for one algorithm on one workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowMetrics {
    /// Max uncertainty triangle height.
    pub max_height: f64,
    /// Mean uncertainty triangle height.
    pub avg_height: f64,
    /// Max distance of an arriving point from the current hull.
    pub max_outside: f64,
    /// Percent of points outside the current hull on arrival.
    pub pct_outside: f64,
    /// Final sample size.
    pub samples: usize,
}

impl RowMetrics {
    fn from_parts(tri: TriangleStats, probe: ProbeStats, samples: usize) -> Self {
        RowMetrics {
            max_height: tri.max_height,
            avg_height: tri.mean_height,
            max_outside: probe.max_distance,
            pct_outside: probe.percent_outside(),
            samples,
        }
    }
}

/// The Table 1 workloads, in paper order. `theta0` is `2π/TABLE1_R`.
pub fn table1_workloads(n: usize, seed: u64) -> Vec<(String, Vec<Point2>)> {
    let theta0 = core::f64::consts::TAU / TABLE1_R as f64;
    let mut out: Vec<(String, Vec<Point2>)> = Vec::new();
    out.push(("disk".into(), Disk::new(seed, n, 1.0).collect()));
    for (name, frac) in [
        ("0", 0.0),
        ("theta0/4", 0.25),
        ("theta0/3", 1.0 / 3.0),
        ("theta0/2", 0.5),
    ] {
        let rot = theta0 * frac;
        out.push((
            format!("square rot {name}"),
            streamgen::Rotate::new(Square::new(seed ^ 0x51, n, 1.0), rot).collect(),
        ));
    }
    for (name, frac) in [
        ("0", 0.0),
        ("theta0/4", 0.25),
        ("theta0/3", 1.0 / 3.0),
        ("theta0/2", 0.5),
    ] {
        let rot = theta0 * frac;
        out.push((
            format!("ellipse rot {name}"),
            Ellipse::new(seed ^ 0xe1, n, 16.0, rot).collect(),
        ));
    }
    out
}

/// The changing-distribution workloads (Table 1 part 4).
pub fn changing_workloads(n: usize, seed: u64) -> Vec<(String, Vec<Point2>)> {
    let theta0 = core::f64::consts::TAU / TABLE1_R as f64;
    [
        ("0", 0.0),
        ("theta0/4", 0.25),
        ("theta0/3", 1.0 / 3.0),
        ("theta0/2", 0.5),
    ]
    .into_iter()
    .map(|(name, frac)| {
        (
            format!("changing ellipse rot {name}"),
            Changing::new(seed ^ 0xc4, 2 * n, 16.0, theta0 * frac).collect(),
        )
    })
    .collect()
}

/// Runs the uniform(2r)-vs-adaptive(r) comparison on one workload.
pub fn compare_uniform_adaptive(points: &[Point2], r: u32) -> (RowMetrics, RowMetrics) {
    let warmup = points.len() / 100;
    let mut uni = NaiveUniformHull::new(2 * r);
    let probe_u = metrics::run_with_probe_warmup(&mut uni, points, warmup);
    let tri_u = metrics::triangle_stats(&metrics::naive_uniform_uncertainty_triangles(&uni));
    let left = RowMetrics::from_parts(tri_u, probe_u, uni.sample_size());

    let mut ada = FixedBudgetAdaptiveHull::new(r);
    let probe_a = metrics::run_with_probe_warmup(&mut ada, points, warmup);
    let tri_a = metrics::triangle_stats(&ada.uncertainty_triangles());
    let right = RowMetrics::from_parts(tri_a, probe_a, ada.sample_size());
    (left, right)
}

/// Runs the partial(train-then-freeze)-vs-adaptive comparison on a
/// two-phase workload (Table 1 part 4): the partial scheme trains on the
/// first half and freezes its directions for the second half.
pub fn compare_partial_adaptive(points: &[Point2], r: u32) -> (RowMetrics, RowMetrics) {
    let half = points.len() / 2;
    let warmup = points.len() / 100;

    // Partial: adaptive on the first half...
    let mut trainer = FixedBudgetAdaptiveHull::new(r);
    let mut probe = ProbeStats::default();
    let p1 = metrics::run_with_probe_warmup(&mut trainer, &points[..half], warmup);
    // ...then frozen directions on the second half.
    let mut frozen = FrozenHull::from_directions(trainer.directions());
    let p2 = metrics::run_with_probe(&mut frozen, &points[half..]);
    probe.total = p1.total + p2.total;
    probe.outside = p1.outside + p2.outside;
    probe.sum_distance = p1.sum_distance + p2.sum_distance;
    probe.max_distance = p1.max_distance.max(p2.max_distance);
    // Uncertainty triangles of the frozen hull: the (stale) trained
    // direction fan applied to the final extrema.
    let tri = frozen_triangle_stats(&frozen);
    let left = RowMetrics::from_parts(tri, probe, frozen.sample_size());

    // Fully adaptive over the whole stream.
    let mut ada = FixedBudgetAdaptiveHull::new(r);
    let probe_a = metrics::run_with_probe_warmup(&mut ada, points, warmup);
    let tri_a = metrics::triangle_stats(&ada.uncertainty_triangles());
    let right = RowMetrics::from_parts(tri_a, probe_a, ada.sample_size());
    (left, right)
}

/// Uncertainty statistics for a frozen hull: group its (direction-sorted)
/// extrema into ownership runs, then measure each hull edge's triangle.
fn frozen_triangle_stats(frozen: &FrozenHull) -> TriangleStats {
    use geom::UncertaintyTriangle;
    let n = frozen.direction_count();
    if n == 0 {
        return TriangleStats::default();
    }
    // Directions are stored in angular order by construction.
    let pairs: Vec<(geom::Vec2, Point2)> = (0..n)
        .filter_map(|i| match (frozen.direction(i), frozen.extremum(i)) {
            (Some(u), Some(e)) => Some((u, e)),
            _ => None,
        })
        .collect();
    if pairs.len() < 2 {
        return TriangleStats::default();
    }
    let mut tris: Vec<UncertaintyTriangle> = Vec::new();
    for i in 0..pairs.len() {
        let (u1, p1) = pairs[i];
        let (u2, p2) = pairs[(i + 1) % pairs.len()];
        if p1 == p2 {
            continue;
        }
        tris.push(UncertaintyTriangle::new(p1, p2, u1, u2));
    }
    metrics::triangle_stats(&tris)
}

/// Formats a Table-1-style block as aligned plain text.
pub fn format_table(title: &str, rows: &[Table1Row], left_name: &str, right_name: &str) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "## {title}");
    let _ = writeln!(
        s,
        "{:<28} {:>11} {:>11} {:>11} {:>11} {:>9} {:>9} {:>8} {:>8} {:>5} {:>5}",
        "workload",
        format!("maxH {left_name}"),
        format!("maxH {right_name}"),
        format!("avgH {left_name}"),
        format!("avgH {right_name}"),
        format!("maxD {left_name}"),
        format!("maxD {right_name}"),
        format!("%out {left_name}"),
        format!("%out {right_name}"),
        format!("n {left_name}"),
        format!("n {right_name}"),
    );
    for row in rows {
        let _ = writeln!(
            s,
            "{:<28} {:>11.5} {:>11.5} {:>11.5} {:>11.5} {:>9.4} {:>9.4} {:>8.2} {:>8.2} {:>5} {:>5}",
            row.label,
            row.left.max_height,
            row.right.max_height,
            row.left.avg_height,
            row.right.avg_height,
            row.left.max_outside,
            row.right.max_outside,
            row.left.pct_outside,
            row.right.pct_outside,
            row.left.samples,
            row.right.samples,
        );
    }
    s
}

/// Outcome of streaming one workload through one runtime-chosen summary.
#[derive(Clone, Debug)]
#[must_use = "a summary run carries the measured error and timing; dropping it discards the experiment"]
pub struct SummaryRun {
    /// The summary's reported name.
    pub name: &'static str,
    /// Final Hausdorff error against the exact hull of the stream.
    pub error: f64,
    /// The summary's own live error bound, when it has one. Soundness
    /// (`error <= error_bound`) is asserted by the conformance tests.
    pub error_bound: Option<f64>,
    /// Final sample size.
    pub samples: usize,
}

/// Streams `points` through a summary built from `builder` and measures
/// it against `truth` (the exact hull of the same stream, computed once
/// by the caller and shared across kinds and `r` values) — the generic,
/// builder-driven path used by `error_scaling`.
pub fn run_builder(
    builder: &SummaryBuilder,
    points: &[Point2],
    truth: &geom::ConvexPolygon,
) -> SummaryRun {
    let mut summary = builder.build();
    summary.insert_batch(points);
    SummaryRun {
        name: summary.name(),
        error: metrics::hausdorff_error(summary.hull_ref(), truth),
        error_bound: summary.error_bound(),
        samples: summary.sample_size(),
    }
}

/// Writes a string to `target/experiments/<name>` (creating directories)
/// and echoes the path.
pub fn write_output(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write experiment output");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_requested_sizes() {
        let w = table1_workloads(1000, 1);
        assert_eq!(w.len(), 9);
        for (name, pts) in &w {
            assert_eq!(pts.len(), 1000, "{name}");
        }
        let c = changing_workloads(500, 1);
        assert_eq!(c.len(), 4);
        for (_, pts) in &c {
            assert_eq!(pts.len(), 1000);
        }
    }

    #[test]
    fn compare_runs_end_to_end_small() {
        let pts: Vec<Point2> = Ellipse::new(3, 3000, 16.0, 0.05).collect();
        let (uni, ada) = compare_uniform_adaptive(&pts, 16);
        assert!(uni.samples <= 32 && ada.samples <= 33);
        assert!(uni.max_height > 0.0 && ada.max_height > 0.0);
        // The headline: adaptive no worse than uniform on its best-case
        // workload (rotated skinny ellipse).
        assert!(ada.max_height <= uni.max_height * 1.5);
    }

    #[test]
    fn run_builder_is_generic_over_kinds() {
        use adaptive_hull::{ExactHull, SummaryKind};
        let pts: Vec<Point2> = Disk::new(9, 2000, 1.0).collect();
        let mut exact = ExactHull::new();
        exact.insert_batch(&pts);
        let truth = exact.hull();
        for &kind in &SummaryKind::ALL {
            let run = run_builder(&SummaryBuilder::new(kind).with_r(16), &pts, &truth);
            assert_eq!(run.name, kind.label());
            assert!(run.samples >= 1, "{kind}");
            if let Some(bound) = run.error_bound {
                assert!(
                    run.error <= bound + 1e-9,
                    "{kind}: error {} exceeds its own bound {bound}",
                    run.error
                );
            }
        }
    }

    #[test]
    fn table_formatting_is_stable() {
        let rows = vec![Table1Row {
            label: "disk".into(),
            left: RowMetrics {
                max_height: 1.0,
                ..Default::default()
            },
            right: RowMetrics {
                max_height: 2.0,
                ..Default::default()
            },
        }];
        let s = format_table("T", &rows, "uni", "ada");
        assert!(s.contains("disk"));
        assert!(s.contains("maxH uni"));
    }
}
