//! Ingestion throughput: the per-point cost of every summary backend,
//! per-point loop vs `insert_batch` vs sharded parallel ingestion, plus the
//! price of live telemetry on that hot path.
//!
//! Workloads (all seeded with `TABLE1_SEED`, lengths exact):
//!
//! * `interior` — uniform disk: after warm-up almost every point lands
//!   inside the current hull of extrema, the batched fast path's best case
//!   (whole chunks are proven interior from `O(h_chunk)` point locations);
//! * `boundary` — thin annulus (`0.95 ≤ ρ ≤ 1`): points keep landing in
//!   the gaps between the sampled hull and the circle, so most of them
//!   take the heavy "beats directions" path;
//! * `rotating` — uniform ellipse whose orientation advances by a full
//!   revolution over the stream: the extrema migrate constantly (the §7
//!   "changing distribution" stressor);
//! * `clustered` — four interleaved Gaussian blobs on a wide square: the
//!   `cluster` backend's focused workload (multiple live clusters, so the
//!   per-insert nearest-cluster scan and the merge machinery both run
//!   hot); other backends see it as a multi-modal stressor.
//!
//! Three sections, whose names, keys and checks are the one schema in
//! `bench_harness::schema`:
//!
//! * `results` — loop vs batch on every workload and backend, one thread;
//! * `parallel` — `ShardedIngest` over the `interior` and `clustered`
//!   workloads for every backend and `--threads` count: shard the stream,
//!   summarise shards on scoped threads, merge in deterministic shard
//!   order. **Interpreting it**: on a single-CPU host the 2/4-shard rows
//!   measure pure engine overhead (they time-slice one core — expect
//!   ≤ 1×); the recorded `host_cpus` field says what the committed numbers
//!   mean. On an `N`-core host the workers run truly in parallel and the
//!   scaling column is the multi-core story;
//! * `telemetry_overhead` — the 1-shard engine on the `interior` workload
//!   with a live registry against the no-op handle, per backend.
//!
//! The window, snapshot, recovery, tenant and serving layers are measured
//! on the real pipeline by `perfbench/` (`adaptive`, `r = 32`), not here.
//!
//! Output: one table per section on stdout and `BENCH_throughput.json`
//! (see `EXPERIMENTS.md` for how baselines are compared across PRs). CI
//! runs it at the baseline's `--n 200000` with `--reps 2 --threads 1,2`,
//! then `check_schema` on the output.

use adaptive_hull::telemetry::names;
use adaptive_hull::{
    ShardRun, ShardedIngest, SummaryBuilder, SummaryKind, SupervisedIngest, Telemetry,
};
use bench_harness::schema::{self, Rows, Value, PARALLEL_WORKLOADS};
use bench_harness::TABLE1_SEED;
use geom::Point2;
use std::time::Instant;

/// Median of sorted samples (assumes non-empty).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Interleaved timing of the 1-shard engine with and without a live
/// telemetry registry. This dimension needs more care than the others:
/// the claimed margin (≤ 3%) is *below* the noise of a single ~2 ms
/// engine pass (thread spawn and scheduler jitter are worth several
/// percent at that scale), and below the slow frequency/throttle drift
/// a shared container sees across a multi-second run. So each timed
/// sample amortises enough back-to-back passes to take ~30 ms, the two
/// arms alternate, and the estimator is the **median of per-pair
/// ratios**: adjacent samples share the machine's throttle state, so
/// the pairwise ratio cancels drift that per-arm aggregates (mins or
/// medians alike) cannot. Returns the no-op arm's median ns/pt and the
/// overhead ratio.
fn time_telemetry_overhead(
    builder: &SummaryBuilder,
    pts: &[Point2],
    chunk: usize,
    reps: usize,
) -> (f64, f64) {
    let tel = Telemetry::new();
    let noop_engine = ShardedIngest::new(*builder, 1).with_chunk(chunk);
    let inst_engine = ShardedIngest::new(*builder, 1)
        .with_chunk(chunk)
        .with_telemetry(tel);
    // Warm both arms (allocator, caches, lazy registration), and size a
    // sample from the warm-up pass so one measurement is ~30 ms.
    let warm = Instant::now();
    let _ = noop_engine.run(pts);
    let pass_secs = warm.elapsed().as_secs_f64();
    let _ = inst_engine.run(pts);
    let passes = ((0.03 / pass_secs.max(1e-9)) as usize).clamp(1, 24);
    let samples = (reps * 5).max(15);
    let mut noop = Vec::with_capacity(samples);
    let mut ratios = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..passes {
            let _ = noop_engine.run(pts);
        }
        let noop_ns = start.elapsed().as_nanos() as f64 / (passes * pts.len().max(1)) as f64;
        let start = Instant::now();
        for _ in 0..passes {
            let _ = inst_engine.run(pts);
        }
        let inst_ns = start.elapsed().as_nanos() as f64 / (passes * pts.len().max(1)) as f64;
        noop.push(noop_ns);
        ratios.push(inst_ns / noop_ns);
    }
    // The instrumented arm must actually have instrumented something,
    // or the ratio proves nothing.
    let scrape = tel.scrape();
    assert!(
        scrape.counter_total(names::INGEST_POINTS) > 0,
        "{}: instrumented run recorded no points",
        builder.kind()
    );
    (median(&mut noop), median(&mut ratios))
}

fn workloads(n: usize, seed: u64) -> Vec<(&'static str, Vec<Point2>)> {
    use streamgen::{Annulus, Disk, Ellipse, Gaussian, Translate};
    let interior: Vec<Point2> = Disk::new(seed, n, 1.0).collect();
    let boundary: Vec<Point2> = Annulus::new(seed ^ 0xb0, n, 0.95, 1.0).collect();
    let rotating: Vec<Point2> = Ellipse::new(seed ^ 0x07, n, 8.0, 0.0)
        .enumerate()
        .map(|(i, p)| {
            let phi = core::f64::consts::TAU * i as f64 / n.max(1) as f64;
            Point2::ORIGIN + (p - Point2::ORIGIN).rotate(phi)
        })
        .collect();
    // Four well-separated Gaussian blobs, interleaved so clustering can
    // never rely on arrival order; exact length n.
    let centers = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (30.0, 30.0)];
    let per_blob = n / centers.len() + 1;
    let blobs: Vec<Vec<Point2>> = centers
        .iter()
        .enumerate()
        .map(|(i, &(cx, cy))| {
            Translate::new(
                Gaussian::new(seed ^ (0xc1 + i as u64), per_blob, 1.0),
                geom::Vec2::new(cx, cy),
            )
            .collect()
        })
        .collect();
    let clustered: Vec<Point2> = (0..n).map(|i| blobs[i % 4][i / 4]).collect();
    vec![
        ("interior", interior),
        ("boundary", boundary),
        ("rotating", rotating),
        ("clustered", clustered),
    ]
}

/// Best-of-`reps` wall-clock nanoseconds per point for one ingestion mode.
fn time_ns_per_point(
    builder: &SummaryBuilder,
    pts: &[Point2],
    chunk: Option<usize>,
    reps: usize,
) -> (f64, u64, Vec<Point2>) {
    let mut best = f64::INFINITY;
    let mut seen = 0;
    let mut hull = Vec::new();
    for _ in 0..reps.max(1) {
        let mut s = builder.build();
        let start = Instant::now();
        match chunk {
            None => {
                for &p in pts {
                    s.insert(p);
                }
            }
            Some(c) => {
                for piece in pts.chunks(c.max(1)) {
                    s.insert_batch(piece);
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / pts.len().max(1) as f64;
        if ns < best {
            best = ns;
        }
        seen = s.points_seen();
        hull = s.hull_ref().vertices().to_vec();
    }
    (best, seen, hull)
}

/// Best-of-`reps` wall-clock nanoseconds per point for a sharded run.
fn time_sharded_ns_per_point(
    builder: &SummaryBuilder,
    pts: &[Point2],
    shards: usize,
    chunk: usize,
    reps: usize,
) -> f64 {
    let engine = ShardedIngest::new(*builder, shards).with_chunk(chunk);
    // One partition for every entry point: the zero-copy slice run and a
    // fault-free supervised streaming run must agree bit for bit (checked
    // once, outside the timed loop).
    let vertex_bits = |run: &ShardRun| -> Vec<(u64, u64)> {
        let hull = run.summary.hull_ref();
        hull.vertices()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    };
    let supervised = SupervisedIngest::new(engine).run_stream(pts.iter().copied());
    assert!(!supervised.is_degraded(), "fault-free bench run degraded");
    assert_eq!(
        vertex_bits(&engine.run(pts)),
        vertex_bits(&supervised.run),
        "{}/{shards}: run and the supervised stream diverged",
        builder.kind()
    );
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let run = engine.run(pts);
        // The engine reports its own wall time now (PR 5): one timing
        // source for the bench, the checkpoint logic, and operators.
        let ns = run.elapsed.as_nanos() as f64 / pts.len().max(1) as f64;
        assert_eq!(
            run.summary.points_seen(),
            pts.len() as u64,
            "sharded run lost points"
        );
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Measures every section: rows in `schema::SECTIONS` order, each row's
/// values in its section's key order.
fn run(n: usize, chunk: usize, reps: usize, r: u32, threads: &[usize]) -> Rows {
    use Value::{Label, Num};
    let mut rows: Rows = Default::default();
    let [results, parallel, telemetry] = &mut rows;
    let sets = workloads(n, TABLE1_SEED);
    for &(wname, ref pts) in &sets {
        let len = pts.len() as f64;
        for &kind in &SummaryKind::ALL {
            let builder = SummaryBuilder::new(kind).with_r(r);
            let (loop_ns, loop_seen, loop_hull) = time_ns_per_point(&builder, pts, None, reps);
            let (batch_ns, batch_seen, batch_hull) =
                time_ns_per_point(&builder, pts, Some(chunk), reps);
            // The bench doubles as an end-to-end equivalence check: the
            // batched run must reproduce the loop's observable state.
            assert_eq!(loop_seen, batch_seen, "{wname}/{kind}: seen diverged");
            assert_eq!(loop_hull, batch_hull, "{wname}/{kind}: hull diverged");
            results.push(vec![
                Label(wname),
                Label(kind.label()),
                Num(r.into()),
                Num(len),
                Num(1.0),
                Num(loop_ns),
                Num(batch_ns),
                Num(1e9 / loop_ns),
                Num(1e9 / batch_ns),
                Num(loop_ns / batch_ns),
            ]);
            if !PARALLEL_WORKLOADS.contains(&wname) {
                continue;
            }
            let sharded: Vec<f64> = threads
                .iter()
                .map(|&t| time_sharded_ns_per_point(&builder, pts, t, chunk, reps))
                .collect();
            // Scaling is against the 1-shard run: null when `--threads`
            // omitted 1, rather than a fabricated 1.0.
            let one = threads.iter().position(|&t| t == 1).map(|i| sharded[i]);
            for (&t, &ns) in threads.iter().zip(&sharded) {
                parallel.push(vec![
                    Label(wname),
                    Label(kind.label()),
                    Num(r.into()),
                    Num(len),
                    Num(t as f64),
                    Num(ns),
                    Num(1e9 / ns),
                    one.map_or(Value::Null, |base| Num(base / ns)),
                ]);
            }
        }
    }
    let interior = &sets[0].1;
    for &kind in &SummaryKind::ALL {
        let builder = SummaryBuilder::new(kind).with_r(r);
        let (noop_ns, overhead) = time_telemetry_overhead(&builder, interior, chunk, reps);
        telemetry.push(vec![
            Label(kind.label()),
            Num(r.into()),
            Num(interior.len() as f64),
            Num(noop_ns),
            Num(noop_ns * overhead),
            Num(overhead),
        ]);
    }
    rows
}

fn main() {
    let mut n = 200_000usize;
    let mut chunk = 1024usize;
    let mut reps = 3usize;
    let mut r = 32u32;
    let mut threads = vec![1usize, 2, 4];
    let mut out_path = String::from("BENCH_throughput.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut grab = || args.next().expect("flag needs a value");
        match flag.as_str() {
            "--n" => n = grab().parse().expect("--n"),
            "--chunk" => chunk = grab().parse().expect("--chunk"),
            "--reps" => reps = grab().parse().expect("--reps"),
            "--r" => r = grab().parse().expect("--r"),
            "--threads" => {
                threads = grab()
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4"))
                    .collect();
                assert!(!threads.is_empty(), "--threads needs at least one count");
            }
            "--out" => out_path = grab(),
            other => {
                panic!("unknown flag {other:?} (supported: --n --chunk --reps --r --threads --out)")
            }
        }
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rows = run(n, chunk, reps, r, &threads);
    println!("host has {host_cpus} cpu(s); scaling_vs_1 is against the 1-shard engine run");
    for (section, rows) in schema::SECTIONS.iter().zip(&rows) {
        print!("{}", schema::render_table(section, rows));
    }
    let header = [
        n as u64,
        chunk as u64,
        reps as u64,
        TABLE1_SEED,
        host_cpus as u64,
    ];
    let json = schema::render_json(header, &threads, &rows);
    std::fs::write(&out_path, &json).expect("write throughput JSON");
    println!("\nwrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_harness::json::parse;

    #[test]
    fn smoke_run_renders_a_document_that_passes_the_schema() {
        let threads = [1usize, 2];
        let rows = run(2000, 256, 1, 16, &threads);
        let json = schema::render_json([2000, 256, 1, TABLE1_SEED, 1], &threads, &rows);
        let doc = parse(&json).expect("the emitter writes valid JSON");
        let found = schema::validate(&doc).unwrap_or_else(|e| panic!("{e}\n{json}"));
        let kinds = SummaryKind::ALL.len();
        assert_eq!(
            found.rows,
            [
                4 * kinds,
                PARALLEL_WORKLOADS.len() * kinds * threads.len(),
                kinds
            ]
        );
    }

    #[test]
    fn workloads_have_exact_lengths_and_finite_points() {
        let w = workloads(500, 1);
        assert_eq!(w.len(), 4);
        for (name, pts) in w {
            assert_eq!(pts.len(), 500, "{name}");
            assert!(pts.iter().all(|p| p.is_finite()), "{name}");
        }
    }

    #[test]
    fn clustered_workload_is_genuinely_multimodal() {
        use adaptive_hull::{ClusterHull, ClusterHullConfig, HullSummary};
        let pts = &workloads(4000, TABLE1_SEED)[3].1;
        let mut ch = ClusterHull::new(ClusterHullConfig::new(4).with_r(8));
        ch.insert_batch(pts);
        assert!(ch.cluster_count() >= 3, "blobs must stay separate");
        assert!(
            !ch.covers(Point2::new(15.0, 15.0)),
            "inter-blob gap covered"
        );
    }
}
