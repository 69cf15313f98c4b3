//! Ablation of the tree height limit `k`, the design knob the paper calls
//! out (§5.1: "the tree height parameter can be used to control the degree
//! of adaptive sampling" — `k = 0` is uniform sampling, `k = log2 r` is the
//! recommended maximum), measured for accuracy against the exact hull.
//!
//! Usage: `cargo run -p sh-bench --release --bin ablation [n]`

use adaptive_hull::adaptive::AdaptiveHullConfig;
use adaptive_hull::{AdaptiveHull, ExactHull, HullSummary};
use bench_harness::write_output;
use geom::Point2;
use streamgen::Ellipse;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);
    let r = 32u32;
    let pts: Vec<Point2> = Ellipse::new(4242, n, 16.0, 0.12).collect();
    let mut exact = ExactHull::new();
    for &p in &pts {
        exact.insert(p);
    }
    let truth = exact.hull();

    let mut out = String::new();
    out.push_str(&format!(
        "Ablation on aspect-16 ellipse (rot 0.12), n = {n}, r = {r}\n\n\
         ## Tree height limit k (k = 0 is uniform sampling; paper recommends log2 r = {})\n",
        r.trailing_zeros()
    ));
    out.push_str(&format!(
        "{:>4} {:>14} {:>10} {:>14}\n",
        "k", "hausdorff err", "samples", "adaptive dirs"
    ));
    for k in 0..=r.trailing_zeros() + 2 {
        let mut a = AdaptiveHull::new(AdaptiveHullConfig::new(r).with_depth(k.min(32)));
        for &p in &pts {
            a.insert(p);
        }
        let err = a.hull().directed_hausdorff_from(&truth);
        out.push_str(&format!(
            "{k:>4} {err:>14.6e} {:>10} {:>14}\n",
            a.sample_size(),
            a.adaptive_direction_count()
        ));
    }
    out.push_str(
        "\nExpectations: error drops steeply from k = 0 and plateaus around\n\
         k = log2 r (deeper trees cannot help once every edge's weight is <= 1).\n",
    );
    println!("{out}");
    let path = write_output("ablation.txt", &out);
    eprintln!("written to {}", path.display());
}
