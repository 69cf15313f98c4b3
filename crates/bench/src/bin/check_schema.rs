//! Validates a `throughput` bench JSON document against the one schema in
//! `bench_harness::schema` and, given a baseline, gates its rates — the
//! single checker CI and local runs share.
//!
//! ```text
//! check_schema <run.json> [--baseline BENCH_throughput.json]
//! ```
//!
//! Schema: the header, then the `results`, `parallel` and
//! `telemetry_overhead` sections with every key of every row checked. The
//! schema carries the telemetry gate: a `telemetry_overhead` row whose
//! instrumented-over-no-op ratio exceeds 1.25 fails, and one past the
//! documented 1.03 warns without failing, because shared runners add noise
//! that a best-of local run does not see.
//!
//! Regression gate (`--baseline`): the baseline must pass the same schema,
//! so a baseline that lost a gated section or records a rate of zero fails
//! instead of gating nothing. Then every row of a gated section (`results`
//! on `points_per_sec_batch`, `parallel` on `points_per_sec`, keyed by
//! workload, backend and thread count) must keep its rate within the
//! tolerance of the baseline's: default 40 % slower fails, overridable via
//! the `THROUGHPUT_REGRESSION_TOLERANCE` env var (e.g. `0.5` fails only a
//! regression past 50 %). Rows with `threads > 1` only warn: CI machines
//! disagree about core counts, so a multi-thread slowdown is signal, not a
//! gate. A baseline row with `threads == 1` that the run lacks fails the
//! gate, so a run cannot pass by dropping gated rows; a missing
//! `threads > 1` row, or a run row with no baseline, is reported and
//! skipped.
//!
//! Exit code 0 = pass (warnings allowed), 1 = schema or gate failure.

use bench_harness::json::{parse, Json};
use bench_harness::schema::{validate, Section, SECTIONS};
use std::process::ExitCode;

/// Default fractional regression that fails the gate (0.40 = new
/// throughput below 60% of baseline fails).
const DEFAULT_TOLERANCE: f64 = 0.40;

/// Indexes a gated section's rows by identity, with their rates.
fn index_rows(doc: &Json, section: &Section, rate: &str) -> Vec<((String, f64), f64)> {
    doc.get(section.name)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|row| {
            let rate = row.get(rate).and_then(Json::as_num).unwrap_or(f64::NAN);
            (section.identify(row), rate)
        })
        .collect()
}

/// The regression gate: validates the baseline, then compares the run's
/// rate per row identity against it, failing on a gated (`threads == 1`)
/// baseline row the run lacks. The run is assumed validated.
fn check_regressions(run: &Json, baseline: &Json, tolerance: f64) -> Result<(), String> {
    validate(baseline).map_err(|e| format!("baseline: {e}"))?;
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let mut compared = 0usize;

    for section in &SECTIONS {
        let Some(rate) = section.rate() else {
            continue;
        };
        let name = section.name;
        let run_idx = index_rows(run, section, rate);
        let base_idx = index_rows(baseline, section, rate);
        for ((id, threads), _) in &base_idx {
            if run_idx.iter().any(|((k, _), _)| k == id) {
                continue;
            }
            // CI runs a subset of the recorded thread counts, so only a
            // missing serial row means the run skipped gated work.
            if *threads > 1.0 {
                println!("note: {name} baseline row {id} absent from the run; skipped");
            } else {
                failures.push(format!("{name} {id}: baseline row missing from the run"));
            }
        }
        for ((id, threads), new_rate) in &run_idx {
            let Some((_, base_rate)) = base_idx.iter().find(|((k, _), _)| k == id) else {
                println!("note: {name} row {id} has no baseline; skipped");
                continue;
            };
            compared += 1;
            let ratio = new_rate / base_rate;
            if ratio < 1.0 - tolerance {
                let msg = format!(
                    "{name} {id}: {new_rate:.0} pts/s is {:.0}% below baseline {base_rate:.0}",
                    (1.0 - ratio) * 100.0
                );
                // Multi-thread rows measure whatever cores the host has;
                // they inform, they don't gate.
                if *threads > 1.0 {
                    warnings.push(msg);
                } else {
                    failures.push(msg);
                }
            }
        }
    }
    for w in &warnings {
        println!("warning (threads>1, not gated): {w}");
    }
    if !failures.is_empty() {
        return Err(format!(
            "throughput regression gate failed ({} of {compared} compared rows):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    println!(
        "regression gate ok: {compared} rows compared, tolerance {:.0}%, {} warnings",
        tolerance * 100.0,
        warnings.len()
    );
    Ok(())
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let path = args
        .next()
        .ok_or("usage: check_schema <run.json> [--baseline <baseline.json>]")?;
    let mut baseline_path = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--baseline" => {
                baseline_path = Some(args.next().ok_or("--baseline needs a path")?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    let doc = read(&path)?;
    let found = validate(&doc)?;
    for w in &found.warnings {
        println!("warning: {w}");
    }
    let counts: Vec<String> = SECTIONS
        .iter()
        .zip(found.rows)
        .map(|(section, rows)| format!("{rows} {} rows", section.name))
        .collect();
    println!("schema ok: {}", counts.join(", "));

    if let Some(base_path) = baseline_path {
        let tolerance = match std::env::var("THROUGHPUT_REGRESSION_TOLERANCE") {
            Ok(v) => v
                .parse::<f64>()
                .ok()
                .filter(|t| (0.0..1.0).contains(t))
                .ok_or_else(|| {
                    format!(
                        "THROUGHPUT_REGRESSION_TOLERANCE must be a fraction in [0, 1), got {v:?}"
                    )
                })?,
            Err(_) => DEFAULT_TOLERANCE,
        };
        check_regressions(&doc, &read(&base_path)?, tolerance)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("check_schema: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc(batch_rate: f64, sharded_rate: f64) -> Json {
        let text = format!(
            r#"{{
              "bench": "throughput", "n": 1000, "chunk": 64, "reps": 1,
              "seed": 1, "host_cpus": 1, "threads": [1, 2],
              "results": [
                {{"workload": "interior", "backend": "exact", "r": 16, "n": 1000,
                  "threads": 1, "per_point_ns": 20, "batched_ns": 0.5,
                  "points_per_sec_loop": 1000, "points_per_sec_batch": {batch_rate},
                  "speedup": 1.0}}
              ],
              "parallel": [
                {{"workload": "interior", "backend": "exact", "r": 16, "n": 1000,
                  "threads": 1, "sharded_ns": 10, "points_per_sec": {sharded_rate},
                  "scaling_vs_1": 1.0}},
                {{"workload": "interior", "backend": "exact", "r": 16, "n": 1000,
                  "threads": 2, "sharded_ns": 10, "points_per_sec": 50,
                  "scaling_vs_1": 0.5}},
                {{"workload": "clustered", "backend": "exact", "r": 16, "n": 1000,
                  "threads": 1, "sharded_ns": 10, "points_per_sec": 100,
                  "scaling_vs_1": null}}
              ],
              "telemetry_overhead": [
                {{"backend": "exact", "r": 16, "n": 1000,
                  "noop_ns": 50.0, "instrumented_ns": 50.5, "overhead": 1.010}}
              ]
            }}"#
        );
        parse(&text).unwrap()
    }

    /// Sets `key` of row `i` in `section` to `value`.
    fn set(doc: &mut Json, section: &str, i: usize, key: &str, value: Json) {
        if let Json::Obj(map) = doc {
            if let Some(Json::Arr(rows)) = map.get_mut(section) {
                if let Json::Obj(row) = &mut rows[i] {
                    row.insert(key.into(), value);
                }
            }
        }
    }

    /// Removes the `section` rows matching `pred` from `doc`.
    fn drop_rows(doc: &mut Json, section: &str, pred: impl Fn(&Json) -> bool) {
        if let Json::Obj(map) = doc {
            if let Some(Json::Arr(rows)) = map.get_mut(section) {
                rows.retain(|row| !pred(row));
            }
        }
    }

    #[test]
    fn schema_accepts_the_reference_shape() {
        let found = validate(&sample_doc(2000.0, 100.0)).unwrap();
        assert_eq!(found.rows, [1, 3, 1]);
        assert!(found.warnings.is_empty(), "{:?}", found.warnings);
    }

    #[test]
    fn checked_in_baseline_passes_the_schema() {
        let text = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_throughput.json"
        ));
        let found = validate(&parse(text).unwrap()).unwrap();
        assert_eq!(found.rows, [32, 48, 8]);
    }

    #[test]
    fn schema_rejects_missing_sections() {
        let doc = parse(r#"{"bench": "throughput"}"#).unwrap();
        assert!(validate(&doc).is_err());
        let mut doc = sample_doc(2000.0, 100.0);
        drop_rows(&mut doc, "telemetry_overhead", |_| true);
        let err = validate(&doc).unwrap_err();
        assert!(
            err.contains("telemetry_overhead must be a non-empty"),
            "{err}"
        );
    }

    #[test]
    fn schema_rejects_rows_off_the_spec() {
        let reject = |section: &str, i: usize, key: &str, value: Json, expect: &str| {
            let mut doc = sample_doc(2000.0, 100.0);
            set(&mut doc, section, i, key, value);
            let err = validate(&doc).unwrap_err();
            assert!(err.contains(expect), "{section}.{key}: {err}");
        };
        reject("results", 0, "threads", Json::Num(2.0), "must be 1");
        reject(
            "parallel",
            1,
            "threads",
            Json::Num(4.0),
            "not in the header",
        );
        let boundary = Json::Str("boundary".into());
        reject("parallel", 0, "workload", boundary, "workloads must be");
        let uniform = Json::Str("uniform".into());
        reject("telemetry_overhead", 0, "backend", uniform, "backends");
        reject("results", 0, "speedup", Json::Null, "above zero");
    }

    #[test]
    fn telemetry_overhead_gate_fails_on_blowup() {
        let mut doc = sample_doc(2000.0, 100.0);
        set(
            &mut doc,
            "telemetry_overhead",
            0,
            "overhead",
            Json::Num(1.1),
        );
        let found = validate(&doc).unwrap();
        assert_eq!(found.warnings.len(), 1, "past 1.03 warns");
        set(
            &mut doc,
            "telemetry_overhead",
            0,
            "overhead",
            Json::Num(1.6),
        );
        let err = validate(&doc).unwrap_err();
        assert!(err.contains("exceeds the 1.25 limit"), "{err}");
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond_it() {
        let baseline = sample_doc(2000.0, 100.0);
        // 30% slower: within the 40% default.
        check_regressions(&sample_doc(1400.0, 100.0), &baseline, 0.40).unwrap();
        // 50% slower on a serial row: gate fails.
        let err = check_regressions(&sample_doc(1000.0, 100.0), &baseline, 0.40).unwrap_err();
        assert!(err.contains("regression gate failed"), "{err}");
        // Tighter tolerance via the env override path (exercised directly).
        assert!(check_regressions(&sample_doc(1400.0, 100.0), &baseline, 0.10).is_err());
    }

    #[test]
    fn gate_fails_when_the_run_drops_a_serial_row() {
        let baseline = sample_doc(2000.0, 100.0);
        let mut run = sample_doc(2000.0, 100.0);
        drop_rows(&mut run, "results", |row| {
            row.get("backend").and_then(Json::as_str) == Some("exact")
        });
        let err = check_regressions(&run, &baseline, 0.40).unwrap_err();
        assert!(err.contains("baseline row missing from the run"), "{err}");
        let mut run = sample_doc(2000.0, 100.0);
        drop_rows(&mut run, "parallel", |row| {
            row.get("workload").and_then(Json::as_str) == Some("clustered")
        });
        assert!(check_regressions(&run, &baseline, 0.40).is_err());
    }

    #[test]
    fn gate_passes_when_the_run_drops_a_multithread_row() {
        let baseline = sample_doc(2000.0, 100.0);
        let mut run = sample_doc(2000.0, 100.0);
        drop_rows(&mut run, "parallel", |row| {
            row.get("threads")
                .and_then(Json::as_num)
                .is_some_and(|t| t > 1.0)
        });
        check_regressions(&run, &baseline, 0.40).unwrap();
    }

    #[test]
    fn gate_warns_but_passes_on_multithread_regressions() {
        let baseline = sample_doc(2000.0, 100.0);
        // The threads-2 parallel row collapses in the run.
        let mut run = sample_doc(2000.0, 100.0);
        set(&mut run, "parallel", 1, "points_per_sec", Json::Num(1.0));
        check_regressions(&run, &baseline, 0.40).unwrap();
    }

    #[test]
    fn gate_rejects_a_baseline_without_its_gated_sections() {
        let run = sample_doc(2000.0, 100.0);
        let mut baseline = sample_doc(2000.0, 100.0);
        drop_rows(&mut baseline, "results", |_| true);
        drop_rows(&mut baseline, "parallel", |_| true);
        let err = check_regressions(&run, &baseline, 0.40).unwrap_err();
        assert!(
            err.contains("baseline: results must be a non-empty"),
            "{err}"
        );
    }

    #[test]
    fn gate_rejects_a_baseline_with_zero_rates() {
        let run = sample_doc(2000.0, 100.0);
        let baseline = sample_doc(0.0, 0.0);
        let err = check_regressions(&run, &baseline, 0.40).unwrap_err();
        assert!(err.contains("baseline: results"), "{err}");
        assert!(
            err.contains("points_per_sec_batch must be a number above zero"),
            "{err}"
        );
    }
}
