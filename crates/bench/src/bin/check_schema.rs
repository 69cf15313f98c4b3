//! Validates a `throughput` bench JSON document and (optionally) gates it
//! against a recorded baseline — the single schema/regression checker CI
//! and local runs share, replacing the inline Python that used to live in
//! the workflow file.
//!
//! ```text
//! check_schema <run.json> [--baseline BENCH_throughput.json]
//! ```
//!
//! Schema: the full PR 2–10 shape (serial `results`, `window`,
//! `parallel`, `snapshot`, `recovery`, `tenant_scan`, `query_scan`, and
//! `telemetry_overhead` sections with their per-row keys). The
//! `recovery` section records supervised-ingestion overhead per
//! checkpoint interval, `tenant_scan` records multi-tenant fleet
//! capacity (bytes/stream, streams/GB) and the spill/restore round
//! trip, and `query_scan` records serving-layer point queries cold vs
//! cached plus top-k pruning counters; all three are schema-checked but
//! not regression-gated (the gate stays on the serial and parallel
//! throughput rows). A `query_scan` row whose `cache_speedup` falls
//! below the documented 10× warns without failing — query timings on
//! shared runners jitter, and the bit-identity assertions live in the
//! bench itself. The `telemetry_overhead` section carries its own
//! absolute gate: the instrumented hot path must stay within
//! [`TELEMETRY_OVERHEAD_FAIL`] of the no-op-handle path on every backend
//! (overridable via `TELEMETRY_OVERHEAD_LIMIT`); rows past the 1.03
//! ratio the docs claim warn without failing, because shared CI runners
//! add noise that a best-of-local run does not see.
//!
//! Regression gate (`--baseline`): every `(workload, backend)` serial row
//! must keep `points_per_sec_batch` within the tolerance of the recorded
//! baseline — default 40% slower fails, overridable via the
//! `THROUGHPUT_REGRESSION_TOLERANCE` env var (e.g. `0.5` = fail below
//! 50% of baseline remaining… i.e. a >50% regression). Parallel rows with
//! `threads > 1` only warn: CI machines disagree about core counts, so a
//! multi-thread slowdown is signal, not a gate. A baseline row with
//! `threads == 1` that the run lacks fails the gate, so a run cannot pass
//! by dropping gated rows; a missing `threads > 1` row, or a run row with
//! no baseline, is reported and skipped.
//!
//! Exit code 0 = pass (warnings allowed), 1 = schema or gate failure.

use bench_harness::json::{parse, Json};
use std::process::ExitCode;

/// Default fractional regression that fails the gate (0.40 = new
/// throughput below 60% of baseline fails).
const DEFAULT_TOLERANCE: f64 = 0.40;

/// Instrumented-vs-no-op ratio past which the `telemetry_overhead`
/// section fails outright. Loose on purpose: the documented claim is
/// ≤ 1.03 (warned past that), but shared CI runners jitter far more
/// than the instrumentation costs, so only a blow-up fails the build.
const TELEMETRY_OVERHEAD_FAIL: f64 = 1.25;

/// Instrumented-vs-no-op ratio past which a row warns — the bound the
/// recorded baseline and the README claim.
const TELEMETRY_OVERHEAD_WARN: f64 = 1.03;

/// Cached-vs-cold speedup below which a `query_scan` row warns — the
/// bound the README's serving-layer section documents. Warn-only:
/// shared runners jitter, and the cache-correctness (bit-identity)
/// assertions run inside the bench itself.
const QUERY_CACHE_SPEEDUP_WARN: f64 = 10.0;

fn get_num(row: &Json, key: &str) -> Result<f64, String> {
    row.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric key {key:?} in {row:?}"))
}

fn get_str<'a>(row: &'a Json, key: &str) -> Result<&'a str, String> {
    row.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string key {key:?} in {row:?}"))
}

fn require_keys(rows: &[Json], keys: &[&str], section: &str) -> Result<(), String> {
    for row in rows {
        for key in keys {
            if row.get(key).is_none() {
                return Err(format!("{section}: row missing key {key:?}: {row:?}"));
            }
        }
    }
    Ok(())
}

/// Structural validation of one throughput document; returns the set of
/// serial backends for cross-section checks.
fn check_schema(doc: &Json) -> Result<(), String> {
    if doc.get("bench").and_then(Json::as_str) != Some("throughput") {
        return Err("bench field must be \"throughput\"".into());
    }
    for key in ["n", "chunk", "reps", "seed", "host_cpus"] {
        get_num(doc, key)?;
    }
    let threads = doc
        .get("threads")
        .and_then(Json::as_arr)
        .ok_or("threads must be an array")?;
    if threads.is_empty() {
        return Err("threads array must not be empty".into());
    }
    let thread_counts: Vec<f64> = threads.iter().filter_map(Json::as_num).collect();

    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("results must be an array")?;
    if results.is_empty() {
        return Err("results section must not be empty".into());
    }
    require_keys(
        results,
        &[
            "workload",
            "backend",
            "threads",
            "points_per_sec_loop",
            "points_per_sec_batch",
            "speedup",
        ],
        "results",
    )?;
    #[allow(clippy::float_cmp)]
    for row in results {
        // lint:allow(float-cmp): "threads" is an integer count serialised as a JSON number; small-integer equality is exact in f64
        if get_num(row, "threads")? != 1.0 {
            return Err(format!("serial row with threads != 1: {row:?}"));
        }
    }
    let backends: Vec<&str> = {
        let mut b: Vec<&str> = results
            .iter()
            .map(|r| get_str(r, "backend"))
            .collect::<Result<_, _>>()?;
        b.sort_unstable();
        b.dedup();
        b
    };

    let parallel = doc
        .get("parallel")
        .and_then(Json::as_arr)
        .ok_or("parallel must be an array")?;
    if parallel.is_empty() {
        return Err("parallel section must not be empty".into());
    }
    require_keys(
        parallel,
        &[
            "workload",
            "backend",
            "threads",
            "sharded_ns",
            "points_per_sec",
            "scaling_vs_1",
        ],
        "parallel",
    )?;
    let mut par_workloads: Vec<&str> = Vec::new();
    for row in parallel {
        let t = get_num(row, "threads")?;
        if !thread_counts.contains(&t) {
            return Err(format!("parallel row with unlisted thread count: {row:?}"));
        }
        par_workloads.push(get_str(row, "workload")?);
    }
    par_workloads.sort_unstable();
    par_workloads.dedup();
    if par_workloads != ["clustered", "interior"] {
        return Err(format!(
            "parallel workloads must be interior+clustered, got {par_workloads:?}"
        ));
    }

    let window = doc
        .get("window")
        .and_then(Json::as_arr)
        .ok_or("window must be an array")?;
    if window.is_empty() {
        return Err("window section must not be empty".into());
    }
    require_keys(
        window,
        &[
            "backend",
            "window",
            "granularity",
            "windowed_ns",
            "points_per_sec",
            "query_ns",
            "buckets",
            "stale_points",
        ],
        "window",
    )?;
    let mut win_backends: Vec<&str> = Vec::new();
    for row in window {
        if get_str(row, "workload")? != "window_scan" {
            return Err(format!("window row with wrong workload: {row:?}"));
        }
        if get_num(row, "window")? < 1.0 || get_num(row, "buckets")? < 1.0 {
            return Err(format!("degenerate window row: {row:?}"));
        }
        if get_num(row, "stale_points")? < 0.0 {
            return Err(format!("negative staleness: {row:?}"));
        }
        win_backends.push(get_str(row, "backend")?);
    }
    win_backends.sort_unstable();
    win_backends.dedup();
    if win_backends != backends {
        return Err(format!(
            "window backends {win_backends:?} != serial backends {backends:?}"
        ));
    }

    let snapshot = doc
        .get("snapshot")
        .and_then(Json::as_arr)
        .ok_or("snapshot must be an array")?;
    if snapshot.is_empty() {
        return Err("snapshot section must not be empty".into());
    }
    require_keys(
        snapshot,
        &["backend", "snapshot_bytes", "encode_ns", "decode_ns"],
        "snapshot",
    )?;
    let mut snap_backends: Vec<&str> = Vec::new();
    for row in snapshot {
        if get_num(row, "snapshot_bytes")? < 24.0 {
            return Err(format!("snapshot smaller than an envelope: {row:?}"));
        }
        if get_num(row, "encode_ns")? <= 0.0 || get_num(row, "decode_ns")? <= 0.0 {
            return Err(format!("non-positive snapshot latency: {row:?}"));
        }
        snap_backends.push(get_str(row, "backend")?);
    }
    snap_backends.sort_unstable();
    snap_backends.dedup();
    if snap_backends != backends {
        return Err(format!(
            "snapshot backends {snap_backends:?} != serial backends {backends:?}"
        ));
    }

    let recovery = doc
        .get("recovery")
        .and_then(Json::as_arr)
        .ok_or("recovery must be an array")?;
    if recovery.is_empty() {
        return Err("recovery section must not be empty".into());
    }
    require_keys(
        recovery,
        &[
            "backend",
            "shards",
            "checkpoint_interval",
            "supervised_ns",
            "points_per_sec",
            "overhead_vs_run",
            "checkpoints",
        ],
        "recovery",
    )?;
    let mut rec_backends: Vec<&str> = Vec::new();
    for row in recovery {
        if get_num(row, "checkpoint_interval")? < 1.0 || get_num(row, "shards")? < 1.0 {
            return Err(format!("degenerate recovery row: {row:?}"));
        }
        if get_num(row, "supervised_ns")? <= 0.0 || get_num(row, "overhead_vs_run")? <= 0.0 {
            return Err(format!("non-positive recovery timing: {row:?}"));
        }
        if get_num(row, "checkpoints")? < 0.0 {
            return Err(format!("negative checkpoint count: {row:?}"));
        }
        rec_backends.push(get_str(row, "backend")?);
    }
    rec_backends.sort_unstable();
    rec_backends.dedup();
    if rec_backends != backends {
        return Err(format!(
            "recovery backends {rec_backends:?} != serial backends {backends:?}"
        ));
    }

    let tenant = doc
        .get("tenant_scan")
        .and_then(Json::as_arr)
        .ok_or("tenant_scan must be an array")?;
    if tenant.is_empty() {
        return Err("tenant_scan section must not be empty".into());
    }
    require_keys(
        tenant,
        &[
            "backend",
            "streams",
            "bulk_ns",
            "points_per_sec",
            "bytes_per_stream",
            "streams_per_gb",
            "spill_ns",
            "restore_ns",
        ],
        "tenant_scan",
    )?;
    let mut ten_backends: Vec<&str> = Vec::new();
    for row in tenant {
        if get_num(row, "streams")? < 1.0 {
            return Err(format!("degenerate tenant_scan row: {row:?}"));
        }
        if get_num(row, "bulk_ns")? <= 0.0
            || get_num(row, "spill_ns")? <= 0.0
            || get_num(row, "restore_ns")? <= 0.0
        {
            return Err(format!("non-positive tenant_scan timing: {row:?}"));
        }
        // A summary can't be lighter than its snapshot envelope header,
        // and a claimed capacity must be consistent with the footprint.
        if get_num(row, "bytes_per_stream")? < 24.0 {
            return Err(format!("tenant footprint below an envelope: {row:?}"));
        }
        if get_num(row, "streams_per_gb")? < 1.0 {
            return Err(format!("degenerate tenant capacity: {row:?}"));
        }
        ten_backends.push(get_str(row, "backend")?);
    }
    ten_backends.sort_unstable();
    ten_backends.dedup();
    if ten_backends != backends {
        return Err(format!(
            "tenant_scan backends {ten_backends:?} != serial backends {backends:?}"
        ));
    }

    let query = doc
        .get("query_scan")
        .and_then(Json::as_arr)
        .ok_or("query_scan must be an array")?;
    if query.is_empty() {
        return Err("query_scan section must not be empty".into());
    }
    require_keys(
        query,
        &[
            "backend",
            "streams",
            "queries",
            "cold_ns",
            "queries_per_sec_cold",
            "cached_ns",
            "queries_per_sec_cached",
            "cache_speedup",
            "topk_ns",
            "topk_scanned",
            "topk_pruned",
        ],
        "query_scan",
    )?;
    let mut query_backends: Vec<&str> = Vec::new();
    for row in query {
        if get_str(row, "workload")? != "query_scan" {
            return Err(format!("query_scan row with wrong workload: {row:?}"));
        }
        let streams = get_num(row, "streams")?;
        if streams < 1.0 || get_num(row, "queries")? < 1.0 {
            return Err(format!("degenerate query_scan row: {row:?}"));
        }
        if get_num(row, "cold_ns")? <= 0.0 || get_num(row, "cached_ns")? <= 0.0 {
            return Err(format!("non-positive query latency: {row:?}"));
        }
        let speedup = get_num(row, "cache_speedup")?;
        if speedup <= 0.0 {
            return Err(format!("degenerate cache speedup: {row:?}"));
        }
        if speedup < QUERY_CACHE_SPEEDUP_WARN {
            println!(
                "warning: query cache speedup {speedup:.2} below the documented \
                 {QUERY_CACHE_SPEEDUP_WARN:.0}x bound (backend {:?}) — noise, or a \
                 serving-layer cache regression",
                get_str(row, "backend")?
            );
        }
        // The bbox pass visits the whole fleet; pruning can at most
        // discharge everything that pass admitted.
        let scanned = get_num(row, "topk_scanned")?;
        let pruned = get_num(row, "topk_pruned")?;
        if scanned < 1.0 || scanned > streams {
            return Err(format!("top-k scan out of range: {row:?}"));
        }
        if pruned < 0.0 || pruned > scanned {
            return Err(format!("top-k pruned more than it scanned: {row:?}"));
        }
        query_backends.push(get_str(row, "backend")?);
    }
    query_backends.sort_unstable();
    query_backends.dedup();
    if query_backends != backends {
        return Err(format!(
            "query_scan backends {query_backends:?} != serial backends {backends:?}"
        ));
    }

    let overhead_limit =
        match std::env::var("TELEMETRY_OVERHEAD_LIMIT") {
            Ok(v) => v.parse::<f64>().ok().filter(|t| *t >= 1.0).ok_or_else(|| {
                format!("TELEMETRY_OVERHEAD_LIMIT must be a ratio >= 1.0, got {v:?}")
            })?,
            Err(_) => TELEMETRY_OVERHEAD_FAIL,
        };
    let tel = doc
        .get("telemetry_overhead")
        .and_then(Json::as_arr)
        .ok_or("telemetry_overhead must be an array")?;
    if tel.is_empty() {
        return Err("telemetry_overhead section must not be empty".into());
    }
    require_keys(
        tel,
        &["backend", "noop_ns", "instrumented_ns", "overhead"],
        "telemetry_overhead",
    )?;
    let mut tel_backends: Vec<&str> = Vec::new();
    for row in tel {
        if get_num(row, "noop_ns")? <= 0.0 || get_num(row, "instrumented_ns")? <= 0.0 {
            return Err(format!("non-positive telemetry timing: {row:?}"));
        }
        let overhead = get_num(row, "overhead")?;
        if overhead <= 0.0 {
            return Err(format!("degenerate telemetry overhead: {row:?}"));
        }
        if overhead > overhead_limit {
            return Err(format!(
                "telemetry overhead {overhead:.3} exceeds the {overhead_limit:.2} limit: {row:?}"
            ));
        }
        if overhead > TELEMETRY_OVERHEAD_WARN {
            println!(
                "warning: telemetry overhead {overhead:.3} past the documented \
                 {TELEMETRY_OVERHEAD_WARN:.2} bound (backend {:?}) — noise, or a hot-path \
                 instrumentation regression",
                get_str(row, "backend")?
            );
        }
        tel_backends.push(get_str(row, "backend")?);
    }
    tel_backends.sort_unstable();
    tel_backends.dedup();
    if tel_backends != backends {
        return Err(format!(
            "telemetry_overhead backends {tel_backends:?} != serial backends {backends:?}"
        ));
    }

    println!(
        "schema ok: {} serial rows, {} window rows, {} sharded rows, {} snapshot rows, \
         {} recovery rows, {} tenant rows, {} query rows, {} telemetry rows",
        results.len(),
        window.len(),
        parallel.len(),
        snapshot.len(),
        recovery.len(),
        tenant.len(),
        query.len(),
        tel.len()
    );
    Ok(())
}

/// A `(workload, backend, threads)` row key.
type RowKey = (String, String, i64);

/// Indexes rows by `(workload, backend, threads)`.
fn index_rows(rows: &[Json], rate_key: &str) -> Result<Vec<(RowKey, f64)>, String> {
    rows.iter()
        .map(|row| {
            Ok((
                (
                    get_str(row, "workload")?.to_string(),
                    get_str(row, "backend")?.to_string(),
                    get_num(row, "threads")? as i64,
                ),
                get_num(row, rate_key)?,
            ))
        })
        .collect()
}

/// The regression gate: compares the run's throughput per
/// `(workload, backend, threads)` against the recorded baseline, and
/// fails on a gated (`threads == 1`) baseline row the run lacks.
fn check_regressions(run: &Json, baseline: &Json, tolerance: f64) -> Result<(), String> {
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let mut compared = 0usize;

    let sections: [(&str, &str); 2] = [
        ("results", "points_per_sec_batch"),
        ("parallel", "points_per_sec"),
    ];
    for (section, rate_key) in sections {
        let run_rows = run.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        let base_rows = baseline.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        let run_idx = index_rows(run_rows, rate_key)?;
        let base_idx = index_rows(base_rows, rate_key)?;
        for (key, _) in &base_idx {
            if run_idx.iter().any(|(k, _)| k == key) {
                continue;
            }
            // CI runs a subset of the recorded thread counts, so only a
            // missing serial row means the run skipped gated work.
            if key.2 > 1 {
                println!("note: {section} baseline row {key:?} absent from the run; skipped");
            } else {
                failures.push(format!(
                    "{section} {key:?}: baseline row missing from the run"
                ));
            }
        }
        for (key, new_rate) in &run_idx {
            let Some((_, base_rate)) = base_idx.iter().find(|(k, _)| k == key) else {
                println!("note: {section} row {key:?} has no baseline; skipped");
                continue;
            };
            compared += 1;
            if *base_rate <= 0.0 {
                continue;
            }
            let ratio = new_rate / base_rate;
            if ratio < 1.0 - tolerance {
                let msg = format!(
                    "{section} {key:?}: {new_rate:.0} pts/s is {:.0}% below baseline {base_rate:.0}",
                    (1.0 - ratio) * 100.0
                );
                // Multi-thread rows measure whatever cores the host has;
                // they inform, they don't gate.
                if key.2 > 1 {
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

    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    check_schema(&doc)?;

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
        let base_text =
            std::fs::read_to_string(&base_path).map_err(|e| format!("read {base_path}: {e}"))?;
        let baseline = parse(&base_text).map_err(|e| format!("{base_path}: {e}"))?;
        check_regressions(&doc, &baseline, tolerance)?;
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
                {{"workload": "interior", "backend": "exact", "threads": 1,
                  "points_per_sec_loop": 1000, "points_per_sec_batch": {batch_rate},
                  "speedup": 1.0}}
              ],
              "window": [
                {{"workload": "window_scan", "backend": "exact", "window": 100,
                  "granularity": 10, "windowed_ns": 10, "points_per_sec": 1,
                  "query_ns": 5, "buckets": 3, "stale_points": 0}}
              ],
              "parallel": [
                {{"workload": "interior", "backend": "exact", "threads": 1,
                  "sharded_ns": 10, "points_per_sec": {sharded_rate}, "scaling_vs_1": 1.0}},
                {{"workload": "interior", "backend": "exact", "threads": 2,
                  "sharded_ns": 10, "points_per_sec": 50, "scaling_vs_1": 0.5}},
                {{"workload": "clustered", "backend": "exact", "threads": 1,
                  "sharded_ns": 10, "points_per_sec": 100, "scaling_vs_1": 1.0}}
              ],
              "snapshot": [
                {{"backend": "exact", "snapshot_bytes": 100, "encode_ns": 5,
                  "decode_ns": 7}}
              ],
              "recovery": [
                {{"backend": "exact", "r": 16, "n": 1000, "shards": 2,
                  "checkpoint_interval": 512, "supervised_ns": 12,
                  "points_per_sec": 1, "overhead_vs_run": 1.2,
                  "checkpoints": 3}}
              ],
              "tenant_scan": [
                {{"backend": "exact", "r": 16, "streams": 500, "n": 1000,
                  "bulk_ns": 80, "points_per_sec": 12500000,
                  "bytes_per_stream": 200.5, "streams_per_gb": 4987531,
                  "spill_ns": 900, "restore_ns": 1100}}
              ],
              "query_scan": [
                {{"workload": "query_scan", "backend": "exact", "r": 16,
                  "streams": 62, "n": 1000, "threads": 1, "queries": 186,
                  "cold_ns": 2000, "queries_per_sec_cold": 500000,
                  "cached_ns": 100, "queries_per_sec_cached": 10000000,
                  "cache_speedup": 20.0, "topk_ns": 40000,
                  "topk_scanned": 62, "topk_pruned": 48}}
              ],
              "telemetry_overhead": [
                {{"backend": "exact", "r": 16, "n": 1000,
                  "noop_ns": 50.0, "instrumented_ns": 50.5, "overhead": 1.010}}
              ]
            }}"#
        );
        parse(&text).unwrap()
    }

    #[test]
    fn schema_accepts_the_reference_shape() {
        check_schema(&sample_doc(2000.0, 100.0)).unwrap();
    }

    #[test]
    fn schema_rejects_missing_sections() {
        let doc = parse(r#"{"bench": "throughput"}"#).unwrap();
        assert!(check_schema(&doc).is_err());
    }

    #[test]
    fn telemetry_overhead_gate_fails_on_blowup() {
        let mut doc = sample_doc(2000.0, 100.0);
        if let Json::Obj(map) = &mut doc {
            if let Some(Json::Arr(rows)) = map.get_mut("telemetry_overhead") {
                if let Json::Obj(row) = &mut rows[0] {
                    row.insert("overhead".into(), Json::Num(1.6));
                }
            }
        }
        let err = check_schema(&doc).unwrap_err();
        assert!(err.contains("telemetry overhead"), "{err}");
    }

    #[test]
    fn query_scan_schema_rejects_impossible_pruning() {
        let mut doc = sample_doc(2000.0, 100.0);
        if let Json::Obj(map) = &mut doc {
            if let Some(Json::Arr(rows)) = map.get_mut("query_scan") {
                if let Json::Obj(row) = &mut rows[0] {
                    // More pruned than scanned: the bound pass can't
                    // discharge candidates it never admitted.
                    row.insert("topk_pruned".into(), Json::Num(63.0));
                }
            }
        }
        let err = check_schema(&doc).unwrap_err();
        assert!(err.contains("pruned more than it scanned"), "{err}");
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

    /// Removes the `section` rows matching `pred` from `doc`.
    fn drop_rows(doc: &mut Json, section: &str, pred: impl Fn(&Json) -> bool) {
        if let Json::Obj(map) = doc {
            if let Some(Json::Arr(rows)) = map.get_mut(section) {
                rows.retain(|row| !pred(row));
            }
        }
    }

    #[test]
    fn gate_fails_when_the_run_drops_a_serial_row() {
        let baseline = sample_doc(2000.0, 100.0);
        let mut run = sample_doc(2000.0, 100.0);
        drop_rows(&mut run, "results", |row| {
            get_str(row, "backend") == Ok("exact")
        });
        let err = check_regressions(&run, &baseline, 0.40).unwrap_err();
        assert!(err.contains("baseline row missing from the run"), "{err}");
        let mut run = sample_doc(2000.0, 100.0);
        drop_rows(&mut run, "parallel", |row| {
            get_str(row, "workload") == Ok("clustered")
        });
        assert!(check_regressions(&run, &baseline, 0.40).is_err());
    }

    #[test]
    fn gate_passes_when_the_run_drops_a_multithread_row() {
        let baseline = sample_doc(2000.0, 100.0);
        let mut run = sample_doc(2000.0, 100.0);
        drop_rows(&mut run, "parallel", |row| {
            get_num(row, "threads").is_ok_and(|t| t > 1.0)
        });
        check_regressions(&run, &baseline, 0.40).unwrap();
    }

    #[test]
    fn gate_warns_but_passes_on_multithread_regressions() {
        let baseline = sample_doc(2000.0, 100.0);
        // threads=2 parallel row collapses (50 in both docs — make the run's
        // worse): rebuild with a slower threads-2 row by editing the doc.
        let mut run = sample_doc(2000.0, 100.0);
        if let Json::Obj(map) = &mut run {
            if let Some(Json::Arr(rows)) = map.get_mut("parallel") {
                if let Json::Obj(row) = &mut rows[1] {
                    row.insert("points_per_sec".into(), Json::Num(1.0));
                }
            }
        }
        check_regressions(&run, &baseline, 0.40).unwrap();
    }
}
