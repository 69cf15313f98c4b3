//! Quickstart: summarise a two-million-point stream with 65 points and
//! answer extremal queries about the whole stream.
//!
//! The front-door path end to end: pick a backend **at runtime** through
//! [`SummaryBuilder`], feed the stream in chunks through the batched fast
//! path ([`insert_batch`](HullSummary::insert_batch)), then ask the §6
//! queries against the cached hull and read the live error guarantee.
//! Swap `SummaryKind::Adaptive` for any other kind (or parse one from a
//! CLI flag, as shown) and everything below still works.
//!
//! Run: `cargo run --release --example quickstart`

use streamhull::geom::{calipers, locate};
use streamhull::prelude::*;

fn main() {
    // A stream too big to want to keep around: two million points from a
    // slowly rotating, drifting ellipse.
    let n = 2_000_000usize;
    let points = (0..n).map(|i| {
        let t = i as f64 * 1e-5;
        let (s, c) = (i as f64 * 0.7).sin_cos();
        Point2::new(
            t.cos() * (10.0 * c) - t.sin() * s + t, // drifting x
            t.sin() * (10.0 * c) + t.cos() * s,
        )
    });

    // The backend is a runtime value — a config file or CLI flag away.
    let kind: SummaryKind = "adaptive".parse().expect("known summary kind");
    let builder = SummaryBuilder::new(kind).with_r(32);
    // Keeps at most 2*32+1 = 65 points.
    let mut summary: Box<dyn HullSummary + Send + Sync> = builder.build();
    // Same backend, but only remembering the last 100k points (see the
    // `sliding_extent` example for the full windowed story).
    let mut recent = builder.windowed(WindowConfig::last_n(100_000).with_granularity(1024));

    // Chunked feeding engages the batched fast paths (interior
    // certificate + pre-hull); `streamgen::Chunks` does the same for any
    // unmaterialised stream.
    let mut buf = Vec::with_capacity(4096);
    for p in points {
        buf.push(p);
        if buf.len() == buf.capacity() {
            summary.insert_batch(&buf);
            recent.insert_batch(&buf);
            buf.clear();
        }
    }
    summary.insert_batch(&buf);
    recent.insert_batch(&buf);

    println!("summary backend    : {}", summary.name());
    println!("stream points seen : {}", summary.points_seen());
    println!(
        "points stored      : {} (bound: 2r+1 = 65)",
        summary.sample_size()
    );

    // Repeated queries share one generation-counted cached hull — no
    // rebuild, no clone.
    let hull = summary.hull_ref();
    let (a, b, d) = calipers::diameter(hull).expect("non-degenerate stream");
    println!("diameter           : {d:.3}  between {a:?} and {b:?}");
    println!("width              : {:.3}", calipers::width(hull));
    println!(
        "extent along x     : {:.3}",
        locate::directional_extent(hull, Vec2::new(1.0, 0.0))
    );
    println!(
        "extent along y     : {:.3}",
        locate::directional_extent(hull, Vec2::new(0.0, 1.0))
    );
    let (min, max) = calipers::bounding_box(hull).unwrap();
    println!("bounding box       : {min:?} .. {max:?}");
    println!(
        "origin inside hull : {}",
        locate::contains(hull, Point2::ORIGIN)
    );

    // The guarantee, live from the summary itself: the true hull of all
    // 2M points is within `error_bound` of the 65-point summary
    // (Theorem 5.4's O(D/r²), computed from the current perimeter).
    if let Some(bound) = summary.error_bound() {
        println!("live error bound   : {bound:.4}");
    }

    // The windowed variant answers the same queries about only the
    // recent stream — and its extent is much tighter than the global one
    // here, because the ellipse drifts.
    let ans = recent.query_window();
    println!(
        "windowed (last {}k): x-extent {:.3} over {} pts in {} buckets (≤ {} stale)",
        100,
        locate::directional_extent(ans.hull(), Vec2::new(1.0, 0.0)),
        ans.merged_points,
        ans.buckets,
        ans.stale_points,
    );
}
