//! `stream_window`: one drifting sensor stream.
//! Why: the window layer dominates; the governor and serving layers idle.
//!
//! Input: a 1M-point `Drift` stream fed in 512-point chunks into a
//! `WindowedSummary` over the last 65536 points with granularity 256;
//! `query_window` runs after every second chunk. One pass feeds the
//! whole stream into a fresh window. The window's state is reported as
//! its mean `approx_bytes` over the pass's queries: at any single point
//! it depends on how many hull points the live buckets happen to keep.

use std::time::Instant;

use streamhull::prelude::*;
use streamhull::streamgen::Drift;

use super::{builder, Cx, Pipeline, Scale};
use crate::check::{Checker, RATED_POINTS};
use crate::probes::{self, ProbeInput};
use crate::trace::Layer;

/// Points per `insert_batch` chunk.
pub const CHUNK: usize = 512;
/// Sealing granularity of the bucket chain.
pub const GRANULARITY: usize = 256;
/// Chunks between window queries.
pub const QUERY_EVERY: usize = 2;
/// Every `CHECK_EVERY`-th query of the first pass is checked.
const CHECK_EVERY: usize = 8;

/// The window configuration every windowed run here uses.
pub fn config(window: u64) -> WindowConfig {
    WindowConfig::last_n(window).with_granularity(GRANULARITY)
}

/// State of the `stream_window` workload.
pub struct StreamWindow {
    tel: Telemetry,
    window: u64,
    points: Vec<Point2>,
    /// Sampled answers of the first pass: `(points fed, answer)`.
    answers: Vec<(usize, WindowAnswer)>,
    passes: u64,
    /// Mean `approx_bytes` over the last pass's queries.
    bytes: f64,
}

impl Pipeline for StreamWindow {
    fn setup(seed: u64, scale: Scale, tel: Telemetry) -> Self {
        let (n, window) = scale.pick((1_048_576, 65_536), (16_384, 4_096));
        let points = Drift::new(
            seed,
            n,
            Point2::new(0.0, 0.0),
            Point2::new(256.0, 64.0),
            1.0,
        )
        .collect();
        StreamWindow {
            tel,
            window,
            points,
            answers: Vec::new(),
            passes: 0,
            bytes: 0.0,
        }
    }

    fn params(&self) -> String {
        format!(
            "points={},drift=(0,0)->(256,64),sigma=1,window=last_n({}),granularity={GRANULARITY},chunk={CHUNK},query_every={QUERY_EVERY},r=32",
            self.points.len(),
            self.window
        )
    }

    fn pass(&mut self, cx: &mut Cx) {
        let mut w = builder()
            .windowed(config(self.window))
            .with_telemetry(self.tel);
        let keep = self.passes == 0;
        self.passes += 1;
        let (mut queries, mut bytes) = (0usize, 0usize);
        for (c, chunk) in self.points.chunks(CHUNK).enumerate() {
            cx.tr.op = c as u64;
            cx.ingest(Layer::Window, "insert_batch", chunk.len(), || {
                w.insert_batch(chunk)
            });
            cx.ck.ops(1);
            if c % QUERY_EVERY != QUERY_EVERY - 1 {
                continue;
            }
            let t = Instant::now();
            cx.tr.enter(Layer::Bench, "refresh");
            let answer = cx
                .tr
                .span(Layer::Window, "query_window", || w.query_window());
            cx.tr
                .span(Layer::Summaries, "hull_ref", || answer.hull().len());
            cx.tr.exit();
            cx.refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
            cx.ck.ops(1);
            bytes += w.approx_bytes();
            if keep && queries % CHECK_EVERY == 0 {
                self.answers.push(((c + 1) * CHUNK, answer));
            }
            queries += 1;
        }
        self.bytes = bytes as f64 / queries.max(1) as f64;
    }

    fn check(&mut self, ck: &mut Checker, _traced: bool) {
        for (fed, answer) in &self.answers {
            let fed = (*fed).min(self.points.len());
            let start = fed.saturating_sub(self.window as usize);
            let want = (fed - start) as u64;
            ck.expect(answer.window_points() >= want, || {
                format!(
                    "window answer after {fed} points covers {} of {want} window points",
                    answer.window_points()
                )
            });
            let mut exact = ExactHull::new();
            exact.insert_batch(&self.points[start..fed]);
            let (hull, bound) = (answer.hull(), answer.error_bound());
            ck.hull_error(
                "window",
                hull,
                exact.hull_ref(),
                bound,
                want >= RATED_POINTS,
            );
        }
    }

    fn state_bytes(&self) -> f64 {
        self.bytes
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            points: self.points.as_slice().into(),
            chunk: CHUNK,
            pairs: probes::pairs_of(&self.points),
            join_threshold: 0.5,
        }
    }
}
