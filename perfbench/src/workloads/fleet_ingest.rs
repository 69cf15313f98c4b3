//! `fleet_ingest`: the write-heavy fleet.
//! Why: summary construction and spill/restore (tenant, snapshot) dominate.
//!
//! Input: `TenantTraffic` over 50k streams, 10% of the ids carrying 90%
//! of the points. One pass builds a fresh engine (`idle_ticks = 16`; the
//! default of 2 thrashes on this traffic) and feeds the whole input in
//! 4096-pair `ingest_bulk` batches, each followed by a `tick()` and one
//! refresh: `width` on 8 streams the batch just wrote.

use std::time::Instant;

use streamhull::prelude::*;
use streamhull::streamgen::TenantTraffic;

use super::{builder, check_stream, Cx, Pipeline, Scale};
use crate::check::Checker;
use crate::probes::ProbeInput;
use crate::report::Metrics;
use crate::trace::Layer;

const BATCH: usize = 4096;
const IDLE_TICKS: u64 = 16;
const REFRESH_STREAMS: usize = 8;
/// Every `SAMPLE`-th stream id is mirrored by an exact reference.
const SAMPLE: u64 = 61;

/// State of the `fleet_ingest` workload.
pub struct FleetIngest {
    tel: Telemetry,
    streams: u64,
    traffic: Vec<(StreamId, Point2)>,
    /// The last pass's engine, kept for the checks.
    engine: Option<QueryEngine>,
    /// `bytes_in_use` at the end of the last pass.
    bytes: usize,
    exact: Vec<(StreamId, ExactHull)>,
}

impl Pipeline for FleetIngest {
    fn setup(seed: u64, scale: Scale, tel: Telemetry) -> Self {
        let (streams, n) = scale.pick((50_000, 262_144), (2_000, 16_384));
        let traffic = TenantTraffic::new(seed, streams, n)
            .map(|(s, p)| (StreamId(s), p))
            .collect();
        FleetIngest {
            tel,
            streams,
            traffic,
            engine: None,
            bytes: 0,
            exact: Vec::new(),
        }
    }

    fn params(&self) -> String {
        format!(
            "streams={},points={},skew=0.1/0.9,batch={BATCH},idle_ticks={IDLE_TICKS},r=32",
            self.streams,
            self.traffic.len()
        )
    }

    fn reference(&mut self) {
        let mut exact: Vec<(StreamId, ExactHull)> = (0..self.streams)
            .step_by(SAMPLE as usize)
            .map(|s| (StreamId(s), ExactHull::new()))
            .collect();
        for &(id, p) in &self.traffic {
            if id.0 % SAMPLE == 0 {
                exact[(id.0 / SAMPLE) as usize].1.insert(p);
            }
        }
        exact.retain(|(_, e)| e.points_seen() > 0);
        self.exact = exact;
    }

    fn pass(&mut self, cx: &mut Cx) {
        // Freeing the previous pass's fleet is not this pass's work.
        let t = Instant::now();
        drop(self.engine.take());
        cx.excluded_ns += t.elapsed().as_nanos() as u64;
        let config = TenantConfig::new(builder())
            .with_idle_ticks(IDLE_TICKS)
            .with_telemetry(self.tel);
        let mut q = QueryEngine::new(TenantEngine::new(config));
        let mut ids: Vec<StreamId> = Vec::with_capacity(REFRESH_STREAMS);
        let cache = q.cache_stats();
        for batch in self.traffic.chunks(BATCH) {
            let r = cx.ingest(Layer::Tenant, "ingest_bulk", batch.len(), || {
                q.tenants_mut().ingest_bulk(batch)
            });
            cx.ck.op("ingest_bulk", r);
            let t = Instant::now();
            cx.tr.span(Layer::Tenant, "tick", || q.tenants_mut().tick());
            cx.acc("tenant.tick_us", t.elapsed().as_secs_f64() * 1e6);
            cx.ck.ops(1);

            ids.clear();
            for &(id, _) in batch {
                if !ids.contains(&id) {
                    ids.push(id);
                    if ids.len() == REFRESH_STREAMS {
                        break;
                    }
                }
            }
            let t = Instant::now();
            cx.tr.enter(Layer::Serving, "refresh");
            for &id in &ids {
                let r = cx.serve(&mut q, "width", |q| q.width(id));
                cx.ck.op("width", r);
            }
            cx.tr.exit();
            cx.refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        cx.cache_delta(cache, q.cache_stats());
        self.bytes = q.tenants().bytes_in_use();
        self.engine = Some(q);
    }

    fn check(&mut self, ck: &mut Checker, _traced: bool) {
        let Some(q) = self.engine.as_mut() else {
            ck.expect(false, || "no pass ran".to_string());
            return;
        };
        for (id, exact) in &self.exact {
            check_stream(ck, q, *id, exact);
        }
    }

    fn state_bytes(&self) -> f64 {
        self.bytes as f64
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            points: self
                .traffic
                .iter()
                .map(|&(_, p)| p)
                .collect::<Vec<_>>()
                .into(),
            chunk: BATCH,
            pairs: self.traffic.clone(),
            join_threshold: 0.5,
        }
    }

    fn native(&self, cx: &Cx, m: &mut Metrics) {
        cx.put_serving(m);
    }
}
