//! The serving layer end to end: a governed fleet of sensor clusters,
//! per-stream analytics with error bars, fleet scans with geometric
//! pruning, and the generation-keyed cache paying for itself.
//!
//! Sixty-four stations each stream a noisy disk of readings. We ingest
//! through the [`TenantEngine`], wrap it in a [`QueryEngine`], and then:
//!
//! 1. serve width / diameter / extent with error intervals, showing the
//!    repeat query is a cache hit with a bit-identical answer;
//! 2. rank stations by extent with the bbox-pruned top-k scan;
//! 3. find all station pairs closer than a threshold with the
//!    certificate-driven separation join;
//! 4. ingest more points and show the cache invalidates itself.
//!
//! Run: `cargo run --release --example query_serving`

use streamgen::{Disk, Translate};
use streamhull::prelude::*;

fn main() {
    let stations = 64u64;
    let per_station = 2_000usize;
    let builder = SummaryBuilder::new(SummaryKind::Adaptive).with_r(32);
    let mut q = QueryEngine::new(TenantEngine::new(TenantConfig::new(builder)));

    // An 8×8 grid of stations, 2.0 apart, each a unit-ish disk of
    // readings whose radius varies with the station id — neighbouring
    // coverage ranges from overlapping to ~0.8 apart, so the join below
    // exercises every certificate.
    for id in 0..stations {
        let (gx, gy) = ((id % 8) as f64, (id / 8) as f64);
        let radius = 0.6 + 0.5 * (id % 7) as f64 / 7.0;
        let pts: Vec<Point2> = Translate::new(
            Disk::new(1000 + id, per_station, radius),
            Vec2::new(2.0 * gx, 2.0 * gy),
        )
        .collect();
        q.tenants_mut()
            .insert_batch(StreamId(id), &pts)
            .expect("ungoverned config admits every station");
    }

    // 1. Per-stream analytics with error intervals, cold then cached.
    let id = StreamId(27);
    let cold = q.width(id).expect("station 27 is admitted");
    let warm = q.width(id).expect("station 27 is admitted");
    assert_eq!(cold, warm, "a cache hit is bit-identical");
    let pair = q
        .diameter(id)
        .expect("station 27 is admitted")
        .expect("station 27 has points");
    println!("station 27:");
    println!(
        "  width    {:.4}  (truth in [{:.4}, {:.4}])",
        cold.value, cold.lo, cold.hi
    );
    println!(
        "  diameter {:.4}  (truth in [{:.4}, {:.4}]), between {:?} and {:?}",
        pair.estimate.value, pair.estimate.lo, pair.estimate.hi, pair.a, pair.b
    );
    let stats = q.cache_stats();
    println!(
        "  cache: {} hits / {} misses / {} entries\n",
        stats.hits, stats.misses, stats.entries
    );

    // 2. Fleet ranking: top 5 stations by extent along +x.
    let top = q
        .top_k_extent(Vec2::new(1.0, 0.0), 5)
        .expect("finite direction");
    println!(
        "top-5 extent along +x ({} scanned, {} pruned by bbox bound):",
        top.scanned, top.pruned
    );
    for e in &top.entries {
        println!("  {:?}  extent {:.4}", e.id, e.estimate.value);
    }

    // 3. Separation join: stations whose coverage comes within 0.35.
    let join = q.separation_join(0.35).expect("finite threshold");
    println!(
        "\npairs within 0.35: {} of {} scanned ({} bbox-rejected, {} incircle-accepted, {} exact tests)",
        join.pairs.len(),
        join.scanned_pairs,
        join.bbox_rejects,
        join.incircle_accepts,
        join.exact_tests
    );
    for p in join.pairs.iter().take(5) {
        println!(
            "  {:?} – {:?}  distance {:.4} ({:?})",
            p.a, p.b, p.distance, p.certificate
        );
    }

    // 4. Ingestion invalidates for free: the generation moves on, the
    //    stale entry stops matching, the next query recomputes.
    let before = q.cache_stats();
    q.tenants_mut()
        .insert(id, Point2::new(100.0, 100.0))
        .expect("station 27 is admitted");
    let widened = q.width(id).expect("station 27 is admitted");
    let after = q.cache_stats();
    assert!(widened.value > cold.value, "the far point widened the hull");
    assert_eq!(
        after.misses,
        before.misses + 1,
        "stale entry stopped matching"
    );
    println!(
        "\nafter ingesting an outlier: width {:.4} -> {:.4} (recomputed, not served stale)",
        cold.value, widened.value
    );
}
