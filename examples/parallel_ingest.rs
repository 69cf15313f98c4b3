//! Sharded parallel ingestion: feed one heavy stream through N worker
//! shards and merge deterministically — the `core::parallel` engine end
//! to end, plus the `Chunks` adapter for hand-rolled batched feeding.
//!
//! Run: `cargo run --release --example parallel_ingest`

use streamgen::{Chunks, Disk};
use streamhull::prelude::*;

fn main() {
    let n = 400_000usize;
    let seed = 20040614;
    let builder = SummaryBuilder::new(SummaryKind::Adaptive).with_r(32);

    // Baseline: one summary fed in chunks through the stream adapter
    // (batched ingestion, single core).
    let mut single = builder.build();
    let t = std::time::Instant::now();
    for chunk in Chunks::new(Disk::new(seed, n, 1.0), 1024) {
        single.insert_batch(&chunk);
    }
    let single_secs = t.elapsed().as_secs_f64();

    // Sharded: the engine splits the stream across scoped worker threads
    // and merges the shard summaries in deterministic shard order.
    let shards = std::thread::available_parallelism().map_or(4, |p| p.get().clamp(2, 8));
    let pts: Vec<Point2> = Disk::new(seed, n, 1.0).collect();
    let engine = ShardedIngest::new(builder, shards).with_chunk(1024);
    let t = std::time::Instant::now();
    let run = engine.run(&pts);
    let sharded_secs = t.elapsed().as_secs_f64();

    assert_eq!(run.summary.points_seen(), n as u64);
    // Determinism contract: same input + same shard count => same summary.
    let again = engine.run(&pts);
    assert_eq!(
        run.summary.hull_ref().vertices(),
        again.summary.hull_ref().vertices(),
        "sharded ingestion must not depend on thread scheduling"
    );

    println!("{n} points, adaptive r=32");
    println!(
        "  single (batched):      {:>8.1}ms  {:>6.1}M pts/s",
        single_secs * 1e3,
        n as f64 / single_secs / 1e6
    );
    println!(
        "  sharded ({shards} workers):   {:>8.1}ms  {:>6.1}M pts/s",
        sharded_secs * 1e3,
        n as f64 / sharded_secs / 1e6
    );
    println!(
        "  merged: {} stored points, error bound {:.2e} (composed with the shards: {:.2e})",
        run.summary.sample_size(),
        run.summary.error_bound().unwrap_or(f64::NAN),
        run.error_bound().unwrap_or(f64::NAN),
    );
    for (i, s) in run.shards.iter().enumerate() {
        println!(
            "    shard {i}: {} pts, {} stored, bound {:.2e}",
            s.points_seen,
            s.sample_size,
            s.error_bound.unwrap_or(f64::NAN)
        );
    }
}
