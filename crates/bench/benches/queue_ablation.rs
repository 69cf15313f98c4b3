//! Ablation (paper §5.3): exact binary-heap unrefinement queue vs the
//! Matias power-of-two bucket queue (`PriQ(r) = O(log r)` vs `O(B)` per
//! move for `B` live buckets, `O(1)` to pop), on a growing stream where
//! the perimeter keeps increasing and unrefinement actually fires
//! (outward spiral).

use adaptive_hull::adaptive::{AdaptiveHullConfig, QueueKind};
use adaptive_hull::{AdaptiveHull, HullSummary};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use geom::Point2;
use streamgen::{Ellipse, Spiral};

fn bench_queues(c: &mut Criterion) {
    let n = 50_000;
    let spiral: Vec<Point2> = Spiral::new(n, 1.0, 0.002).collect();
    let ellipse: Vec<Point2> = Ellipse::new(31, n, 16.0, 0.2).collect();

    for (wname, pts) in [("spiral", &spiral), ("ellipse", &ellipse)] {
        let mut group = c.benchmark_group(format!("queue_ablation/{wname}"));
        group.throughput(Throughput::Elements(n as u64));
        for r in [64u32, 256, 1024] {
            for (label, kind) in [("heap", QueueKind::Heap), ("bucket", QueueKind::Bucket)] {
                group.bench_with_input(BenchmarkId::new(label, r), &(r, kind), |b, &(r, kind)| {
                    b.iter(|| {
                        let mut h = AdaptiveHull::new(AdaptiveHullConfig::new(r).with_queue(kind));
                        for &p in pts {
                            h.insert(p);
                        }
                        h.adaptive_direction_count()
                    })
                });
            }
        }
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
    targets = bench_queues
}
criterion_main!(benches);
