//! Metric names, the host record, and the output: human-readable lines,
//! a results file, and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit, as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("ingest_pts_per_s", "pts/s"),
    def("refresh_p50_us", "us"),
    def("refresh_p99_us", "us"),
    def("wall_s", "s"),
    def("state_bytes", "B"),
    def("peak_rss_mb", "MiB"),
    def("error_bound_rel", "1"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("summaries.batch_ns_per_pt", "ns/pt"),
    def("summaries.cert_hit_frac", "1"),
    def("summaries.build_ns", "ns"),
    def("summaries.hull_ns", "ns"),
    def("summaries.bytes", "B"),
    def("summaries.error_obs_rel", "1"),
    def("geom.calipers_ns", "ns"),
    def("recovery.run_ns_per_pt", "ns/pt"),
    def("parallel.speedup_vs_bare", "1"),
    def("recovery.checkpoints", "count"),
    def("recovery.replayed_points", "count"),
    def("recovery.checkpoint_encode_ns", "ns"),
    def("recovery.checkpoint_decode_ns", "ns"),
    def("window.insert_ns_per_pt", "ns/pt"),
    def("window.tax_ns_per_pt", "ns/pt"),
    def("window.query_us", "us"),
    def("window.buckets", "count"),
    def("window.merge_us", "us"),
    def("window.seals", "count"),
    def("window.merges", "count"),
    def("window.expiries", "count"),
    def("window.stale_points", "count"),
    def("snapshot.encode_ns", "ns"),
    def("snapshot.decode_ns", "ns"),
    def("snapshot.envelope_bytes", "B"),
    def("tenant.ingest_ns_per_pt", "ns/pt"),
    def("tenant.tax_ns_per_pt", "ns/pt"),
    def("tenant.tick_us", "us"),
    def("tenant.new_streams", "count"),
    def("tenant.spills", "count"),
    def("tenant.restores", "count"),
    def("tenant.hot_streams", "count"),
    def("tenant.cold_streams", "count"),
    def("tenant.token_ns", "ns"),
    def("serving.hit_frac", "1"),
    def("serving.hit_ns", "ns"),
    def("serving.miss_ns", "ns"),
    def("serving.topk_ms", "ms"),
    def("serving.topk_pruned_frac", "1"),
    def("serving.join_ms", "ms"),
    def("serving.join_exact_frac", "1"),
    def("telemetry.overhead", "1"),
    def("trace.unattributed_frac", "1"),
    def("geom.self_frac", "1"),
    def("summaries.self_frac", "1"),
    def("recovery.self_frac", "1"),
    def("window.self_frac", "1"),
    def("snapshot.self_frac", "1"),
    def("tenant.self_frac", "1"),
    def("serving.self_frac", "1"),
    def("telemetry.self_frac", "1"),
];

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, Value>;

/// Sets `name` to `value` from `samples` samples.
pub fn put(m: &mut Metrics, name: &'static str, value: f64, samples: usize) {
    m.insert(name, Value { value, samples });
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Workload parameters, as recorded in the replay token.
    pub params: String,
    /// `true` for the traced run (per-layer metrics).
    pub traced: bool,
    /// The reported metrics: every end-to-end metric untraced, every
    /// per-layer metric traced.
    pub metrics: Metrics,
    /// Informational figures printed beside the metrics but kept out of
    /// the JSON line: `(name, value, unit, samples)`.
    pub notes: Vec<(String, f64, &'static str, usize)>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Failed operations and checks.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
    /// The span file's contents (traced runs).
    pub spans: Option<String>,
    /// Per-pass series behind the medians, for the results file.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// The metric table this run must report.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// `true` when no operation or check failed and every metric the run
    /// owes is present and finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.defs().iter().all(|d| {
                self.metrics
                    .get(d.name)
                    .is_some_and(|v| v.value.is_finite())
            })
    }

    /// The replay token: workload, parameters and seed.
    pub fn replay_token(&self) -> String {
        format!("{}({}) seed={}", self.workload, self.params, self.seed)
    }

    /// Human-readable report lines.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![
            format!("replay_token {}", self.replay_token()),
            format!("host {}", host_record()),
        ];
        for d in self.defs() {
            let v = self.metrics.get(d.name).copied().unwrap_or(Value {
                value: f64::NAN,
                samples: 0,
            });
            out.push(format!(
                "metric {} = {} {} (n={})",
                d.name, v.value, d.unit, v.samples
            ));
        }
        for (name, value, unit, n) in &self.notes {
            out.push(format!("metric {name} = {value} {unit} (n={n})"));
        }
        out.push(format!(
            "metric fail_frac = {} 1 (n={})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.attempted
        ));
        for f in &self.failures {
            out.push(format!("failure {f}"));
        }
        out
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut m = String::new();
        for (i, d) in self.defs().iter().enumerate() {
            let v = self.metrics.get(d.name).map_or(0.0, |v| v.value);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                json_num(v),
                d.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            m
        )
    }

    /// The results file: replay token, host record, every metric with its
    /// sample count, and the failures.
    pub fn results_json(&self) -> String {
        let mut metrics = String::new();
        let all = self
            .defs()
            .iter()
            .map(|d| (d.name.to_string(), d.unit))
            .chain(self.notes.iter().map(|n| (n.0.clone(), n.2)));
        for (i, (name, unit)) in all.enumerate() {
            let (value, samples) = match self.metrics.get(name.as_str()) {
                Some(v) => (v.value, v.samples),
                None => self
                    .notes
                    .iter()
                    .find(|n| n.0 == name)
                    .map_or((f64::NAN, 0), |n| (n.1, n.3)),
            };
            let _ = write!(
                metrics,
                "{}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                if i == 0 { "" } else { "," },
                name,
                json_num(value),
                unit,
                samples
            );
        }
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let series: Vec<String> = self
            .series
            .iter()
            .map(|(name, v)| {
                let v: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
                format!("\"{name}\": [{}]", v.join(", "))
            })
            .collect();
        format!(
            "{{\n  \"replay_token\": {{\"workload\": \"{}\", \"params\": {}, \"seed\": {}}},\n  \"traced\": {},\n  \"host\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": {{{}\n  }},\n  \"series\": {{{}}}\n}}\n",
            self.workload,
            json_str(&self.params),
            self.seed,
            self.traced,
            host_record(),
            self.attempted,
            self.failed,
            failures.join(", "),
            metrics,
            series.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host the figures were measured on: CPU count, CPU model, compiler
/// and source commit, as a JSON object. The repository's older
/// `BENCH_throughput.json` was recorded with `host_cpus: 1` and measures
/// other things; it is not a baseline for these metrics.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"git_commit\": {}}}",
        nproc,
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_commit())
    )
}

/// The checked-out commit, read from `.git` in the working directory;
/// `"unknown"` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process in MiB (`VmHWM`); one process
/// runs one workload, so all of it is that workload's.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
