//! `BENCH_pipeline.json`, the trajectory of paired perfbench medians, is
//! complete: every record names every workload and end-to-end metric that
//! `BENCHMARK.json` declares, with the declared unit, and gives a finite,
//! positive parent and change median for each.

use bench_harness::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

fn load(name: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("parsing {name}: {e}"))
}

fn str_at<'a>(value: &'a Json, key: &str, at: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{at}: `{key}` is not a string"))
}

fn arr_at<'a>(value: &'a Json, key: &str, at: &str) -> &'a [Json] {
    value
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{at}: `{key}` is not an array"))
}

fn num_at(value: &Json, key: &str, at: &str) -> f64 {
    value
        .get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("{at}: `{key}` is not a number"))
}

fn is_commit(s: &str) -> bool {
    s.len() == 40 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

#[test]
fn every_record_covers_the_declared_benchmark() {
    let bench = load("BENCHMARK.json");
    let workloads: Vec<&str> = arr_at(&bench, "workloads", "BENCHMARK.json")
        .iter()
        .map(|w| str_at(w, "name", "BENCHMARK.json workload"))
        .collect();
    let units: BTreeMap<&str, &str> = arr_at(&bench, "end_to_end", "BENCHMARK.json")
        .iter()
        .map(|m| {
            let at = "BENCHMARK.json end_to_end";
            (str_at(m, "name", at), str_at(m, "unit", at))
        })
        .collect();
    assert!(!workloads.is_empty() && !units.is_empty());

    let pipeline = load("BENCH_pipeline.json");
    let records = arr_at(&pipeline, "records", "BENCH_pipeline.json");
    assert!(!records.is_empty(), "BENCH_pipeline.json has no record");
    for (i, record) in records.iter().enumerate() {
        let at = format!("record {i}");
        for key in ["parent_commit", "change_commit"] {
            let commit = str_at(record, key, &at);
            assert!(
                is_commit(commit),
                "{at}: `{key}` {commit:?} is not a commit id"
            );
        }
        let seconds = num_at(record, "run_seconds", &at);
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "{at}: run_seconds {seconds}"
        );
        let runs = arr_at(record, "workloads", &at);
        let names: Vec<&str> = runs.iter().map(|w| str_at(w, "name", &at)).collect();
        for w in &workloads {
            let n = names.iter().filter(|name| *name == w).count();
            assert_eq!(n, 1, "{at}: workload {w} appears {n} times");
        }
        for run in runs {
            let at = format!("{at}, {}", str_at(run, "name", &at));
            let pairs = num_at(run, "pairs", &at) as usize;
            assert!(pairs >= 1, "{at}: no pair");
            assert_eq!(
                arr_at(run, "seeds", &at).len(),
                pairs,
                "{at}: one seed per pair"
            );
            let metrics = arr_at(run, "metrics", &at);
            let mut seen = BTreeMap::new();
            for m in metrics {
                let name = str_at(m, "name", &at);
                let at = format!("{at}, {name}");
                let want = units
                    .get(name)
                    .unwrap_or_else(|| panic!("{at}: not an end-to-end metric"));
                assert_eq!(str_at(m, "unit", &at), *want, "{at}: unit");
                for side in ["parent", "change"] {
                    let median = num_at(m, side, &at);
                    assert!(
                        median.is_finite() && median > 0.0,
                        "{at}: {side} median {median}"
                    );
                }
                *seen.entry(name).or_insert(0) += 1;
            }
            for name in units.keys() {
                assert_eq!(seen.get(name), Some(&1), "{at}: metric {name} once");
            }
        }
    }
}
