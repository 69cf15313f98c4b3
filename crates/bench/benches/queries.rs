//! Query costs on sampled hulls (paper §6: `O(r)` for diameter/width/
//! overlap, `O(log r)` for directional extent, membership, separation
//! probes), measured on the `geom` kernels a summary's hull feeds.

use adaptive_hull::{AdaptiveHull, HullSummary};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geom::{calipers, clip, distance, locate, ConvexPolygon, Point2, Vec2};
use streamgen::{Ellipse, Translate};

fn build_hull(r: u32, seed: u64, dx: f64) -> ConvexPolygon {
    let mut h = AdaptiveHull::with_r(r);
    for p in Translate::new(Ellipse::new(seed, 20_000, 8.0, 0.3), Vec2::new(dx, 0.0)) {
        h.insert(p);
    }
    h.hull()
}

fn bench_queries(c: &mut Criterion) {
    for r in [16u32, 64, 256] {
        let a = build_hull(r, 21, 0.0);
        let b = build_hull(r, 22, 20.0);
        let mut group = c.benchmark_group("queries");

        group.bench_with_input(BenchmarkId::new("diameter", r), &a, |bch, a| {
            bch.iter(|| calipers::diameter(a).map(|(_, _, d)| d))
        });
        group.bench_with_input(BenchmarkId::new("width", r), &a, |bch, a| {
            bch.iter(|| calipers::width(a))
        });
        group.bench_with_input(BenchmarkId::new("directional_extent", r), &a, |bch, a| {
            let dir = Vec2::from_angle(0.7);
            bch.iter(|| locate::directional_extent(a, dir))
        });
        group.bench_with_input(BenchmarkId::new("contains_point", r), &a, |bch, a| {
            let q = Point2::new(0.1, 0.1);
            bch.iter(|| locate::contains(a, q))
        });
        group.bench_with_input(
            BenchmarkId::new("min_distance", r),
            &(&a, &b),
            |bch, (a, b)| bch.iter(|| distance::min_distance(a, b)),
        );
        group.bench_with_input(
            BenchmarkId::new("overlap_area", r),
            &(&a, &b),
            |bch, (a, b)| bch.iter(|| clip::overlap_area(a, b)),
        );
        group.finish();
    }
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_queries
}
criterion_main!(benches);
