//! Bound honesty along every composition path: wherever the stack
//! composes summaries, the observed Hausdorff error against the exact
//! hull must stay within the reported `error_bound()`.
//!
//! Bounds compose by one rule (`Mergeable`'s docs): parallel parts by max,
//! chained stages by sum, and no bound if any part has none. This suite
//! checks the four paths that compose, for `adaptive`, `adaptive-2r`,
//! `uniform`, `radial` and `exact` at `r ∈ {8, 32, 128}`, on inputs chosen
//! to stress the bound: a thin segment cloud, an aspect-64 ellipse, an
//! outward spiral (every point leaves the previous hull), a regime switch,
//! a drifting cloud and a duplicate flood.
//!
//! * a `LastN` or `LastDur` window chain's query, against the window;
//! * a degraded `run_stream` whose crashed shard is quarantined, against
//!   the **whole** stream, so the lost points' excess is checked;
//! * `TenantEngine::absorb` of two runs after direct inserts;
//! * `DegradeToCoarser` tenants under a small budget (a tenant that shed
//!   points covers less than it was sent, so it is skipped).
//!
//! The slack is `1e-9` of the truth's diameter: a degraded run's bound can
//! equal its observed error exactly (the lost excess *is* a distance).

use streamhull::geom::calipers;
use streamhull::prelude::*;
use streamhull::streamgen::{Changing, Drift, Ellipse, SegmentCloud, Spiral};

const N: usize = 2000;

const KINDS: [SummaryKind; 5] = [
    SummaryKind::Adaptive,
    SummaryKind::AdaptiveFixedBudget,
    SummaryKind::Uniform,
    SummaryKind::Radial,
    SummaryKind::Exact,
];

const RS: [u32; 3] = [8, 32, 128];

fn inputs() -> Vec<(&'static str, Vec<Point2>)> {
    let octagon: Vec<Point2> = (0..8)
        .map(|i| {
            let t = i as f64 * std::f64::consts::FRAC_PI_4 + 0.2;
            Point2::new(5.0 * t.cos(), 3.0 * t.sin())
        })
        .collect();
    // Mostly one hull vertex, repeated; the other corners now and then.
    let flood = (0..N)
        .map(|i| {
            if i % 50 == 0 {
                octagon[(i / 50) % 8]
            } else {
                octagon[0]
            }
        })
        .collect();
    vec![
        (
            "segment",
            SegmentCloud::new(3, N, Point2::new(-50.0, -3.0), Point2::new(50.0, 3.0), 0.01)
                .collect(),
        ),
        ("ellipse64", Ellipse::new(5, N, 64.0, 0.3).collect()),
        ("spiral", Spiral::new(N, 1.0, 0.01).collect()),
        ("changing", Changing::new(7, N, 16.0, 0.1).collect()),
        (
            "drift",
            Drift::new(11, N, Point2::new(0.0, 0.0), Point2::new(256.0, 64.0), 1.0).collect(),
        ),
        ("duplicates", flood),
    ]
}

/// Every `(label, builder, input)` row of the matrix.
fn matrix() -> Vec<(String, SummaryBuilder, Vec<Point2>)> {
    let mut rows = Vec::new();
    for kind in KINDS {
        for r in RS {
            for (name, pts) in inputs() {
                let builder = SummaryBuilder::new(kind).with_r(r);
                rows.push((format!("{kind}/r{r}/{name}"), builder, pts));
            }
        }
    }
    rows
}

/// Panics unless every point of `truth` lies within the reported bound of
/// `hull`, up to `1e-9` of the truth's diameter.
fn assert_honest(label: &str, hull: &ConvexPolygon, truth: &[Point2], bound: Option<f64>) {
    let exact = ConvexPolygon::hull_of(truth);
    let diameter = calipers::diameter(&exact).map_or(0.0, |(_, _, d)| d);
    let bound = bound.unwrap_or_else(|| panic!("{label}: no error bound reported"));
    let observed = hull.directed_hausdorff_from(&exact);
    assert!(
        observed <= bound + 1e-9 * diameter,
        "{label}: observed error {observed} above reported bound {bound} (D = {diameter})"
    );
}

fn supervised(builder: SummaryBuilder, chunk: usize) -> SupervisedIngest {
    SupervisedIngest::new(ShardedIngest::new(builder, 2).with_chunk(chunk))
}

#[test]
fn window_chains_are_honest() {
    let window = 500;
    let rows = matrix();
    let per_block = rows.len() / (KINDS.len() * RS.len());
    for (i, (label, builder, pts)) in rows.into_iter().enumerate() {
        // The policy alternates from input to input and flips from one
        // (kind, r) block to the next, so every input meets both. On the
        // auto-tick clock `LastDur(n - 0.5)` covers the last n points too.
        let count_window = (i + i / per_block).is_multiple_of(2);
        let (label, config) = if count_window {
            (
                format!("{label}/last_n"),
                WindowConfig::last_n(window as u64),
            )
        } else {
            let dur = window as f64 - 0.5;
            (format!("{label}/last_dur"), WindowConfig::last_dur(dur))
        };
        let mut chain = builder.windowed(config.with_granularity(32));
        for chunk in pts.chunks(64) {
            chain.insert_batch(chunk);
        }
        let answer = chain.query_window();
        if count_window {
            assert!(
                answer.window_points() >= window as u64,
                "{label}: LastN covers {} in-window points",
                answer.window_points()
            );
        }
        let in_window = &pts[pts.len() - window..];
        assert_honest(&label, answer.hull(), in_window, answer.error_bound());
    }
}

#[test]
fn degraded_runs_are_honest_against_the_whole_stream() {
    for (label, builder, pts) in matrix() {
        // Shard 0 crashes on chunk 8 with no retries left: it keeps its
        // 300-point checkpoint, and its later points are lost.
        let run = supervised(builder, 100)
            .with_checkpoint_interval(300)
            .with_retry_policy(RetryPolicy::none())
            .with_fault_plan(FaultPlan::new().crash(0, 8))
            .run_stream(pts.iter().copied());
        assert!(run.is_degraded(), "{label}");
        assert!(run.report.lost_points > 0, "{label}");
        assert_honest(&label, run.run.summary.hull_ref(), &pts, run.error_bound());
    }
}

#[test]
fn absorbed_runs_are_honest() {
    for (label, builder, pts) in matrix() {
        let third = pts.len() / 3;
        let mut engine = TenantEngine::new(TenantConfig::new(builder));
        let id = StreamId(1);
        engine.insert_batch(id, &pts[..third]).unwrap();
        for part in [&pts[third..2 * third], &pts[2 * third..]] {
            let run = supervised(builder, 64).run_stream(part.iter().copied());
            engine.absorb(id, &run).unwrap();
        }
        let bound = engine.error_bound(id).unwrap();
        assert_honest(&label, &engine.hull(id).unwrap(), &pts, bound);
    }
}

#[test]
fn degraded_tenants_are_honest() {
    let streams = 8u64;
    let mut degraded = 0;
    for (label, builder, pts) in matrix() {
        // Room for about three full-size tenants of this configuration.
        let mut probe = builder.build();
        probe.insert_batch(&pts[..pts.len() / streams as usize]);
        let config = TenantConfig::new(builder)
            .with_budget_bytes(3 * probe.approx_bytes())
            .with_policy(OverloadPolicy::DegradeToCoarser);
        let mut engine = TenantEngine::new(config);
        let mut sent: Vec<Vec<Point2>> = vec![Vec::new(); streams as usize];
        for (c, chunk) in pts.chunks(50).enumerate() {
            let s = c as u64 % streams;
            engine.insert_batch(StreamId(s), chunk).unwrap();
            sent[s as usize].extend_from_slice(chunk);
        }
        for s in 0..streams {
            let id = StreamId(s);
            let Some(stats) = engine.stats(id).filter(|t| t.shed == 0) else {
                continue;
            };
            degraded += usize::from(stats.degraded);
            let bound = engine.error_bound(id).unwrap();
            let row = format!("{label}/tenant{s}");
            assert_honest(&row, &engine.hull(id).unwrap(), &sent[s as usize], bound);
        }
    }
    assert!(degraded >= 200, "only {degraded} degraded tenants checked");
}
