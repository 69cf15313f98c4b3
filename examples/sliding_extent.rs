//! Sliding-window extent tracking: "how big is the fleet *right now*?"
//!
//! A sensor blob drifts across the plane, reporting in bursts. The
//! whole-stream hull keeps growing — it remembers everywhere the fleet
//! has ever been — while a [`WindowedSummary`] over the last 60 time
//! units forgets the old track and stays tight around the current
//! position. The example prints both extents side by side, then the
//! bucket-count/staleness/error trade-off of the exponential-histogram
//! chain (the table recorded in `EXPERIMENTS.md`).
//!
//! Run: `cargo run --release --example sliding_extent`

use streamgen::{Drift, Timestamped};
use streamhull::geom::locate;
use streamhull::prelude::*;

fn main() {
    let n = 400_000usize;
    let builder = SummaryBuilder::new(SummaryKind::Adaptive).with_r(32);

    // The fleet: a Gaussian blob drifting 0 → 1000 on x, reporting in
    // bursts of 64 readings 0.001 apart, 0.5 between bursts.
    let stream: Vec<(Point2, f64)> = Timestamped::bursty(
        Drift::new(42, n, Point2::new(0.0, 0.0), Point2::new(1000.0, 0.0), 2.0),
        0.0,
        64,
        0.001,
        0.5,
    )
    .collect();

    // Window: the last 60 time units of telemetry.
    let mut windowed = builder.windowed(WindowConfig::last_dur(60.0).with_granularity(512));
    // Whole-stream reference summary (never forgets).
    let mut global = builder.build();

    println!("tracking a drifting fleet: window = last 60.0 time units\n");
    println!(
        "{:>9} {:>16} {:>16} {:>9} {:>9} {:>12}",
        "time", "window x-extent", "global x-extent", "buckets", "stale≤", "err bound"
    );
    let x = Vec2::new(1.0, 0.0);
    for chunk in stream.chunks(n / 8) {
        windowed.insert_batch_timestamped(chunk);
        global.insert_batch(&chunk.iter().map(|&(p, _)| p).collect::<Vec<_>>());
        let ans = windowed.query_window();
        println!(
            "{:>9.1} {:>16.1} {:>16.1} {:>9} {:>9} {:>12.4}",
            windowed.now().unwrap_or(0.0),
            locate::directional_extent(ans.hull(), x),
            locate::directional_extent(global.hull_ref(), x),
            ans.buckets,
            ans.stale_points,
            ans.error_bound().unwrap_or(f64::NAN),
        );
    }
    println!("\nthe global extent only ever grows; the window extent stays ~the blob's width");

    // The loop's queries left collector checkpoints behind, so this query
    // resumes from them; a snapshot-restored twin holds none and merges
    // every bucket. The answers agree bit for bit.
    let twin = WindowedSummary::decode(&Snapshot::encode(&windowed)).expect("snapshot decodes");
    let (warm, cold) = (windowed.query_window(), twin.query_window());
    let bits = |ans: &WindowAnswer| -> Vec<(u64, u64)> {
        let vertices = ans.hull().vertices().iter();
        vertices.map(|v| (v.x.to_bits(), v.y.to_bits())).collect()
    };
    assert_eq!(
        bits(&warm),
        bits(&cold),
        "warm and cold window hulls differ"
    );
    assert_eq!(
        warm.error_bound().map(f64::to_bits),
        cold.error_bound().map(f64::to_bits)
    );
    assert_eq!(warm.merged_points, cold.merged_points);
    assert_eq!(warm.stale_points, cold.stale_points);
    println!("a snapshot-restored twin (no query checkpoints) answers bit-identically");

    // Chain-shape trade-off: more buckets per level (k) = finer chain =
    // tighter staleness, at more memory and query-time merging. This is
    // the table EXPERIMENTS.md records.
    println!("\nbucket-count / staleness / error trade-off (LastN(50_000), g = 512):");
    println!(
        "{:>3} {:>9} {:>9} {:>13} {:>12} {:>10}",
        "k", "buckets", "stale≤", "stale frac", "err bound", "stored pts"
    );
    let points: Vec<Point2> = stream.iter().map(|&(p, _)| p).collect();
    for k in [1usize, 2, 4, 8] {
        let mut w = builder.windowed(
            WindowConfig::last_n(50_000)
                .with_granularity(512)
                .with_buckets_per_level(k),
        );
        for chunk in points.chunks(4096) {
            w.insert_batch(chunk);
        }
        let ans = w.query_window();
        println!(
            "{:>3} {:>9} {:>9} {:>12.1}% {:>12.4} {:>10}",
            k,
            ans.buckets,
            ans.stale_points,
            100.0 * ans.stale_points as f64 / 50_000.0,
            ans.error_bound().unwrap_or(f64::NAN),
            w.sample_size(),
        );
    }
    println!("\nstaleness shrinks as k grows — and so does the composed error bound");
    println!("(finer buckets have smaller perimeters, so the per-bucket terms shrink");
    println!("faster than their count grows); the price is stored points and");
    println!("query-time merging.");
}
