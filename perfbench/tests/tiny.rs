//! The benchmark's own tests: at tiny sizes every workload reports every
//! named metric with no failed operation, and the checker can fail.

use perfbench::check::Checker;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Scale, NAMES};
use streamhull::geom::calipers;
use streamhull::prelude::*;

fn assert_complete(name: &str, traced: bool) {
    let out = workloads::run(name, 7, 0.0, traced, Scale::Tiny).expect("known workload");
    let defs = if traced { PER_LAYER } else { END_TO_END };
    for d in defs {
        let v = out
            .metrics
            .get(d.name)
            .unwrap_or_else(|| panic!("{name}: {} missing", d.name));
        assert!(v.value.is_finite(), "{name}: {} = {}", d.name, v.value);
        let line = format!("metric {} = ", d.name);
        let printed = out.lines().into_iter().find(|l| l.starts_with(&line));
        let printed = printed.unwrap_or_else(|| panic!("{name}: {} not printed", d.name));
        assert!(printed.contains(&format!(" {} (n=", d.unit)), "{printed}");
    }
    assert_eq!(out.metrics.len(), defs.len(), "{name}: extra metrics");
    assert!(out.attempted > 0, "{name}: nothing attempted");
    assert_eq!(out.failed, 0, "{name}: failures {:?}", out.failures);
    assert!(out.correct());
    let json = out.json_line();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for name in NAMES {
        assert_complete(name, false);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    for name in NAMES {
        assert_complete(name, true);
    }
}

#[test]
fn end_to_end_timings_are_positive() {
    for name in NAMES {
        let out = workloads::run(name, 3, 0.0, false, Scale::Tiny).expect("known workload");
        for metric in ["setup_s", "ingest_pts_per_s", "refresh_p50_us", "wall_s"] {
            assert!(out.metrics[metric].value > 0.0, "{name}: {metric}");
        }
    }
}

#[test]
fn a_shrunken_estimate_interval_is_counted_as_a_failure() {
    // A real serving answer on a stream the summary cannot hold exactly.
    let config = TenantConfig::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(32));
    let mut q = QueryEngine::new(TenantEngine::new(config));
    let pts: Vec<Point2> = (0..4000)
        .map(|i| {
            let t = i as f64 * 0.618_033_988_749_895 * std::f64::consts::TAU;
            Point2::new(3.0 * t.cos(), t.sin())
        })
        .collect();
    q.tenants_mut().insert_batch(StreamId(1), &pts).unwrap();
    let mut exact = ExactHull::new();
    exact.insert_batch(&pts);
    let truth = calipers::width(exact.hull_ref());
    let diam = calipers::diameter(exact.hull_ref()).unwrap().2;
    let est = q.width(StreamId(1)).unwrap();

    let mut ck = Checker::default();
    ck.estimate("width", &est, truth, diam);
    assert_eq!(
        ck.failed, 0,
        "the served interval holds: {est:?} vs {truth}"
    );

    // Keep only the upper half of the interval: the truth sits near the
    // lower end (the observed error is far below the bound), so the
    // shrunken interval misses it.
    let mid = 0.5 * (est.lo + est.hi);
    assert!(truth < mid, "{est:?} vs {truth}");
    let shrunk = Estimate {
        value: mid,
        lo: mid,
        hi: est.hi,
    };
    ck.estimate("width", &shrunk, truth, diam);
    assert_eq!((ck.attempted, ck.failed), (2, 1));
}
