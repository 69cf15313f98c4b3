//! Spatial-database scenario (paper §1: terabyte-scale surveys like the
//! Sloan Digital Sky Survey force single-pass algorithms): stream a large
//! synthetic catalogue once and keep live estimates of its spatial extent,
//! comparing every backend at equal-ish memory through one generic loop —
//! the summaries are built by [`SummaryBuilder`] and driven as
//! `dyn HullSummary` trait objects.
//!
//! Run: `cargo run --release --example sky_survey_extent`

use streamhull::geom::{calipers, locate};
use streamhull::metrics;
use streamhull::prelude::*;

fn main() {
    let n = 1_000_000usize;
    let r = 32u32;

    // Synthetic "survey stripe": a long, slightly curved band of objects
    // (like a scan stripe on the celestial sphere), plus sparse outliers.
    let mut seed = 20081117u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };

    // One generic fleet: exact (unbounded baseline), adaptive (r), and
    // uniform at double the directions (same memory budget as adaptive).
    let mut fleet: Vec<Box<dyn HullSummary + Send + Sync>> = vec![
        SummaryBuilder::new(SummaryKind::Exact).build(),
        SummaryBuilder::new(SummaryKind::Adaptive).with_r(r).build(),
        SummaryBuilder::new(SummaryKind::UniformNaive)
            .with_r(2 * r)
            .build(),
    ];

    let mut batch = Vec::with_capacity(10_000);
    for i in 0..n {
        let t = next() * 100.0;
        let band = Point2::new(t, 0.002 * t * t - 0.1 * t + (next() - 0.5) * 0.8);
        let p = if i % 50_000 == 17 {
            // A rare outlier (e.g. a mislabeled object far off the stripe).
            Point2::new(t, band.y + 20.0 * (next() - 0.5))
        } else {
            band
        };
        batch.push(p);
        if batch.len() == batch.capacity() {
            for s in &mut fleet {
                s.insert_batch(&batch);
            }
            batch.clear();
        }
    }
    for s in &mut fleet {
        s.insert_batch(&batch);
    }

    let exact = &fleet[0];
    let truth = exact.hull_ref().clone();
    let d_exact = calipers::diameter(&truth).unwrap().2;
    println!("objects streamed      : {n}");
    println!("true diameter         : {d_exact:.4}");

    for s in &fleet {
        let hull = s.hull_ref();
        println!(
            "{:>13} summary : {:>5} stored points, diameter {:.4} (rel err {:.2e}), \
             hull err {:.4}{}",
            s.name(),
            s.sample_size(),
            calipers::diameter(hull).unwrap().2,
            metrics::diameter_error(hull, &truth),
            metrics::hausdorff_error(hull, &truth),
            match s.error_bound() {
                Some(b) => format!(", live bound {b:.4}"),
                None => String::new(),
            },
        );
        // Every summary's measured error must respect its own live bound.
        if let Some(bound) = s.error_bound() {
            assert!(metrics::hausdorff_error(hull, &truth) <= bound + 1e-9);
        }
    }

    let adaptive = &fleet[1];
    let uniform = &fleet[2];
    for angle_deg in [0.0, 30.0, 60.0, 90.0] {
        let dir = Vec2::from_angle(angle_deg * core::f64::consts::PI / 180.0);
        println!(
            "extent @ {angle_deg:>4.0} deg     : exact {:>8.4}  adaptive {:>8.4}",
            locate::directional_extent(&truth, dir),
            locate::directional_extent(adaptive.hull_ref(), dir),
        );
    }

    assert!(
        metrics::hausdorff_error(adaptive.hull_ref(), &truth)
            <= metrics::hausdorff_error(uniform.hull_ref(), &truth) * 2.0
    );
}
