//! Sensor-network scenario from the paper's introduction: "report the
//! smallest convex region in which a chemical leak has been sensed."
//!
//! A field of sensors reports positions where a spreading plume is
//! detected. Detections arrive at **two gateways**, each keeping its own
//! bounded-memory summary (built through [`SummaryBuilder`] as a
//! [`Mergeable`] trait object); every hour a collector merges the gateway
//! shards and queries the combined region — the sharded-ingestion story
//! the `Mergeable` capability exists for. We also watch for the moment
//! the plume region reaches a protected site.
//!
//! Run: `cargo run --release --example sensor_leak`

use streamhull::geom::{distance, locate};
use streamhull::prelude::*;

/// A deterministic pseudo-random generator so the demo is reproducible.
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
    let mut rng = Lcg(2024);
    let builder = SummaryBuilder::new(SummaryKind::Adaptive).with_r(16);
    // 33-point summaries on each gateway.
    let mut gateways: Vec<Box<dyn Mergeable + Send + Sync>> =
        vec![builder.build_mergeable(), builder.build_mergeable()];

    // The protected site: a small depot 6 km east of the leak origin.
    let depot = ConvexPolygon::hull_of(&[
        Point2::new(5.8, -0.2),
        Point2::new(6.2, -0.2),
        Point2::new(6.2, 0.2),
        Point2::new(5.8, 0.2),
    ]);

    let mut breach_reported = false;
    let hours = 48usize;
    let reports_per_hour = 500usize;
    println!("hour  detections  region_area  spread_eastward  depot_distance");
    for h in 0..hours {
        // The plume grows anisotropically (wind blows east): detections are
        // spread over an ellipse whose x-radius grows faster than y.
        let rx = 0.5 + 0.15 * h as f64;
        let ry = 0.3 + 0.04 * h as f64;
        for _ in 0..reports_per_hour {
            let (x, y) = loop {
                let x = rng.next_f64() * 2.0 - 1.0;
                let y = rng.next_f64() * 2.0 - 1.0;
                if x * x + y * y <= 1.0 {
                    break (x, y);
                }
            };
            // Wind skews the cloud eastward. Sensors in the west report to
            // gateway 0, the rest to gateway 1.
            let p = Point2::new(x * rx + 0.35 * rx, y * ry);
            let shard = usize::from(p.x >= 0.0);
            gateways[shard].insert(p);
        }

        // Hourly collection: merge the gateway shards into a fresh
        // collector summary of the same kind.
        let mut plume = builder.build_mergeable();
        for g in &gateways {
            plume.merge_from(g.as_ref());
        }

        let region = plume.hull_ref();
        let area = region.area();
        let east = locate::directional_extent(region, Vec2::new(1.0, 0.0));
        let dist = distance::min_distance(region, &depot);
        // min_distance is non-negative, so `<= 0.0` is exactly the
        // "separation lost" test without a raw float equality.
        let breached = dist <= 0.0;
        if h % 6 == 0 || (breached && !breach_reported) {
            println!(
                "{h:>4}  {:>10}  {area:>11.2}  {east:>15.2}  {dist:>14.3}",
                plume.points_seen()
            );
        }
        if breached && !breach_reported {
            breach_reported = true;
            println!(
                "  !! hour {h}: plume region reached the depot \
                 (separation certificate lost)"
            );
        }

        if h + 1 == hours {
            println!(
                "\nfinal summary: {} stored points (merged from gateways \
                 holding {} and {}) describe the region of",
                plume.sample_size(),
                gateways[0].sample_size(),
                gateways[1].sample_size(),
            );
            println!(
                "{} detections; area {:.2} km^2; live error bound {:.3} km.",
                plume.points_seen(),
                region.area(),
                plume.error_bound().unwrap_or(f64::NAN),
            );
            assert_eq!(
                plume.points_seen(),
                (hours * reports_per_hour) as u64,
                "merge must carry the full seen-count"
            );
        }
    }
    assert!(breach_reported, "demo expects the plume to reach the depot");
}
