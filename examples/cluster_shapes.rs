//! The §8 extension in action: summarising a stream whose shape a single
//! convex hull cannot capture — an "L" of habitat detections plus a
//! detached colony. The [`ClusterHull`] keeps a handful of adaptive hulls
//! and exposes the cavity and the disconnection; a single hull reports
//! almost triple the area and swallows both.
//!
//! Run: `cargo run --release --example cluster_shapes`

use streamhull::prelude::*;

struct Lcg(u64);
impl Lcg {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn main() {
    let mut rng = Lcg(2006); // ALENEX 2006, the ClusterHull paper
    let mut clusters = ClusterHull::new(ClusterHullConfig::new(6).with_r(16));
    // The flat comparison hull is built through the runtime registry: the
    // cluster summary is itself a SummaryKind (try swapping the two).
    let mut single = SummaryBuilder::new(SummaryKind::Adaptive)
        .with_r(32)
        .build();

    let n = 60_000usize;
    let mut kept = Vec::new();
    for i in 0..n {
        let u = rng.next_f64();
        let p = if u < 0.45 {
            // Vertical bar of the L.
            Point2::new(rng.next_f64(), rng.next_f64() * 10.0)
        } else if u < 0.9 {
            // Horizontal bar of the L.
            Point2::new(rng.next_f64() * 10.0, rng.next_f64())
        } else {
            // Detached colony to the north-east.
            Point2::new(14.0 + rng.next_f64() * 2.0, 12.0 + rng.next_f64() * 2.0)
        };
        clusters.insert(p);
        single.insert(p);
        if i % 37 == 0 {
            kept.push(p);
        }
    }

    let single_hull = single.hull_ref();
    println!("stream points          : {n}");
    println!("single adaptive hull   : area {:.1}", single_hull.area());
    println!(
        "cluster hulls ({})      : total area {:.1}  ({} stored points)",
        clusters.cluster_count(),
        clusters.total_area(),
        clusters.sample_size()
    );
    for (i, h) in clusters.hulls().iter().enumerate() {
        println!(
            "  cluster {i}: {} vertices, area {:.2}, perimeter {:.2}",
            h.len(),
            h.area(),
            h.perimeter()
        );
    }

    // The cavity and the gap are visible to the cluster summary only.
    for probe in [
        Point2::new(7.0, 7.0),  // inside the L's cavity
        Point2::new(12.0, 6.0), // between the L and the colony
    ] {
        println!(
            "probe {probe:?}: single hull says inside = {}, clusters say inside = {}",
            streamhull::geom::locate::contains(single_hull, probe),
            clusters.covers(probe),
        );
        assert!(streamhull::geom::locate::contains(single_hull, probe));
        assert!(!clusters.covers(probe));
    }
    assert!(clusters.total_area() < single_hull.area() * 0.5);
}
