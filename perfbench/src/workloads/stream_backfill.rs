//! `stream_backfill`: replaying an archive.
//! Why: the only workload that runs the parallel and recovery layers.
//!
//! Input: a boundary-heavy `Annulus(0.95, 1.0)` archive of 4M points,
//! generated once. A pass replays it through `SupervisedIngest::run_stream`
//! on 2 shards with the default checkpoint interval and one scripted worker
//! crash, so checkpoint encode, decode and replay all run; then 32
//! refreshes read the backfilled hull (width, diameter and 8 extents).

use std::hint::black_box;
use std::time::Instant;

use streamhull::geom::{calipers, locate};
use streamhull::prelude::*;
use streamhull::streamgen::Annulus;

use super::{builder, directions, Cx, Pipeline, Scale};
use crate::check::Checker;
use crate::probes::{self, ProbeInput};
use crate::trace::Layer;

/// Shards (worker threads). Fixed, so outputs match on every host.
pub const SHARDS: usize = 2;
const REFRESHES: usize = 32;

/// The supervised engine with one scripted crash, at a chunk two thirds
/// into a stream of `n` points (after several checkpoints).
pub fn supervised(n: usize, tel: Telemetry) -> SupervisedIngest {
    let engine = ShardedIngest::new(builder(), SHARDS).with_telemetry(tel);
    let chunks = n.div_ceil(engine.chunk()) as u64;
    let at_chunk = (chunks * 2 / 3) | 1;
    let shard = (at_chunk % SHARDS as u64) as usize;
    SupervisedIngest::new(engine).with_fault_plan(FaultPlan::new().crash(shard, at_chunk))
}

/// State of the `stream_backfill` workload.
pub struct StreamBackfill {
    tel: Telemetry,
    archive: Vec<Point2>,
    exact: Option<ExactHull>,
    last: Option<SupervisedRun>,
}

impl Pipeline for StreamBackfill {
    fn setup(seed: u64, scale: Scale, tel: Telemetry) -> Self {
        let n = scale.pick(4_000_000, 65_536);
        StreamBackfill {
            tel,
            archive: Annulus::new(seed, n, 0.95, 1.0).collect(),
            exact: None,
            last: None,
        }
    }

    fn params(&self) -> String {
        format!(
            "points={},annulus=(0.95,1.0),shards={SHARDS},checkpoint_interval=default,crashes=1,refreshes={REFRESHES},r=32",
            self.archive.len()
        )
    }

    fn reference(&mut self) {
        let mut exact = ExactHull::new();
        exact.insert_batch(&self.archive);
        self.exact = Some(exact);
    }

    fn pass(&mut self, cx: &mut Cx) {
        let t = Instant::now();
        drop(self.last.take());
        cx.excluded_ns += t.elapsed().as_nanos() as u64;

        let sup = supervised(self.archive.len(), self.tel);
        let archive = &self.archive;
        let run = cx.ingest(Layer::Recovery, "run_stream", archive.len(), || {
            sup.run_stream(archive.iter().copied())
        });
        cx.ck.ops(1);
        cx.ck.expect(!run.is_degraded(), || {
            format!(
                "supervised run degraded: {} points lost",
                run.report.lost_points
            )
        });
        let dirs = directions();
        for i in 0..REFRESHES {
            let t = Instant::now();
            cx.tr.enter(Layer::Bench, "refresh");
            let hull = cx
                .tr
                .span(Layer::Summaries, "hull_ref", || run.run.summary.hull_ref());
            black_box(cx.tr.span(Layer::Geom, "width", || calipers::width(hull)));
            black_box(
                cx.tr
                    .span(Layer::Geom, "diameter", || calipers::diameter(hull)),
            );
            for k in 0..dirs.len() {
                let dir = dirs[(k + i) % dirs.len()];
                let e = cx.tr.span(Layer::Geom, "directional_extent", || {
                    locate::directional_extent(hull, dir)
                });
                black_box(e);
            }
            cx.tr.exit();
            cx.refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        cx.ck.ops(REFRESHES as u64 * (2 + dirs.len() as u64));
        self.last = Some(run);
    }

    fn check(&mut self, ck: &mut Checker, traced: bool) {
        let (Some(run), Some(exact)) = (self.last.as_ref(), self.exact.as_ref()) else {
            ck.expect(false, || "no pass ran".to_string());
            return;
        };
        let (hull, exact) = (run.run.summary.hull_ref(), exact.hull_ref());
        let bound = run.error_bound();
        ck.hull_error("backfill", hull, exact, bound, true);
        // The serving layer's interval contract, applied to the backfill:
        // the sample hull's value, widened by twice the bound, brackets
        // the exact value.
        let diam = calipers::diameter(exact).map_or(0.0, |(_, _, d)| d);
        let interval = |value: f64| Estimate {
            value,
            lo: value,
            hi: value + 2.0 * bound.unwrap_or(f64::INFINITY),
        };
        let approx_diam = calipers::diameter(hull).map_or(0.0, |(_, _, d)| d);
        ck.estimate("backfill diameter", &interval(approx_diam), diam, diam);
        let width = interval(calipers::width(hull));
        ck.estimate("backfill width", &width, calipers::width(exact), diam);
        for dir in directions() {
            let e = interval(locate::directional_extent(hull, dir));
            ck.estimate(
                "backfill extent",
                &e,
                locate::directional_extent(exact, dir),
                diam,
            );
        }
        if traced {
            // A recovered run must be bit-identical to a fault-free run
            // under the retry-free policy.
            let engine = ShardedIngest::new(builder(), SHARDS);
            let clean = SupervisedIngest::new(engine)
                .with_retry_policy(RetryPolicy::none())
                .run_stream(self.archive.iter().copied());
            ck.expect(!clean.is_degraded(), || {
                "fault-free run degraded".to_string()
            });
            ck.expect(
                clean.run.summary.hull_ref().vertices() == hull.vertices(),
                || "recovered hull differs from the fault-free hull".to_string(),
            );
        }
    }

    fn state_bytes(&self) -> f64 {
        self.last
            .as_ref()
            .map_or(0.0, |r| r.run.summary.approx_bytes() as f64)
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            points: self.archive.as_slice().into(),
            chunk: ShardedIngest::new(builder(), SHARDS).chunk(),
            pairs: probes::pairs_of(&self.archive),
            join_threshold: 0.5,
        }
    }
}
