//! The one schema of the `throughput` bench document.
//!
//! [`SECTIONS`] lists each array of rows: its name, its row keys in output
//! order, the decimals each number is written with, and the check each
//! value must pass. The `throughput` bin renders its JSON and its stdout
//! tables from it ([`render_json`], [`render_table`]); the `check_schema`
//! bin validates runs and baselines against it ([`validate`]) and gates the
//! keys marked [`Check::Rate`]; the `throughput` smoke test parses its own
//! output and runs the same [`validate`]. Each key name is written here,
//! once.
//!
//! A valid document has `"bench": "throughput"`, the positive numeric
//! [`HEADER`] fields, a non-empty `threads` list, and every section
//! non-empty, each key of each row passing its check. Two checks span rows:
//! a section whose workload key lists workloads covers exactly those, and
//! every section covers the same backends as the first.

use crate::json::Json;
use std::fmt::Write as _;

/// The header key naming the benchmark.
const BENCH_KEY: &str = "bench";

/// The value of the header's `bench` key.
const BENCH: &str = "throughput";

/// Run parameters in the document header, each a positive number.
pub const HEADER: [&str; 5] = ["n", "chunk", "reps", "seed", "host_cpus"];

/// The header's list of thread counts, and each row's thread-count key.
const THREADS: &str = "threads";

/// Instrumented-over-no-op cost ratio above which a `telemetry_overhead`
/// row fails. Loose on purpose: shared runners jitter far more than the
/// instruments cost, so only a blow-up (a lock, a per-point syscall) fails.
const TELEMETRY_OVERHEAD_FAIL: f64 = 1.25;

/// Ratio above which a `telemetry_overhead` row warns: the bound the
/// README claims for the instrumented hot path.
const TELEMETRY_OVERHEAD_WARN: f64 = 1.03;

/// The workloads the `parallel` section shards (the boundary and rotating
/// adversaries exercise the same engine machinery).
pub const PARALLEL_WORKLOADS: [&str; 2] = ["interior", "clustered"];

/// What one row value must satisfy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    /// The workload label. A non-empty list is the exact set of workloads
    /// the section covers.
    Workload(&'static [&'static str]),
    /// The backend label. Every section covers the same backends.
    Backend,
    /// The thread count: 1 in a serial section, else one of the header's
    /// `threads`.
    Threads {
        /// Whether the section is single-threaded.
        serial: bool,
    },
    /// A number above zero.
    Positive,
    /// A number above zero that the regression gate compares with the
    /// baseline's.
    Rate,
    /// A number above zero, or `null` when the run has no 1-thread row to
    /// scale against.
    PositiveOrNull,
    /// A cost ratio above zero: fails above `fail`, warns above `warn`.
    Ratio {
        /// The documented bound; a row above it warns.
        warn: f64,
        /// The gate; a row above it fails.
        fail: f64,
    },
}

/// One row key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Key {
    /// The key's name in the document.
    pub name: &'static str,
    /// Decimal places the emitter writes a number with.
    pub decimals: usize,
    /// What the value must satisfy.
    pub check: Check,
}

const fn key(name: &'static str, decimals: usize, check: Check) -> Key {
    Key {
        name,
        decimals,
        check,
    }
}

const BACKEND: Key = key("backend", 0, Check::Backend);
const R: Key = key("r", 0, Check::Positive);
const N: Key = key("n", 0, Check::Positive);

/// One array of rows in the document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Section {
    /// The array's name in the document.
    pub name: &'static str,
    /// Every row's keys, in output order.
    pub keys: &'static [Key],
}

/// Per-point ingestion cost on one thread: the `insert` loop against
/// chunked `insert_batch`, on every workload and backend.
const RESULTS: Section = Section {
    name: "results",
    keys: &[
        key("workload", 0, Check::Workload(&[])),
        BACKEND,
        R,
        N,
        key(THREADS, 0, Check::Threads { serial: true }),
        key("per_point_ns", 2, Check::Positive),
        key("batched_ns", 2, Check::Positive),
        key("points_per_sec_loop", 0, Check::Positive),
        key("points_per_sec_batch", 0, Check::Rate),
        key("speedup", 3, Check::Positive),
    ],
};

/// Sharded ingestion (`ShardedIngest::run`) per shard count, on the
/// [`PARALLEL_WORKLOADS`].
const PARALLEL: Section = Section {
    name: "parallel",
    keys: &[
        key("workload", 0, Check::Workload(&PARALLEL_WORKLOADS)),
        BACKEND,
        R,
        N,
        key(THREADS, 0, Check::Threads { serial: false }),
        key("sharded_ns", 2, Check::Positive),
        key("points_per_sec", 0, Check::Rate),
        key("scaling_vs_1", 3, Check::PositiveOrNull),
    ],
};

/// The 1-shard hot path with a live telemetry registry against the no-op
/// handle.
const TELEMETRY_OVERHEAD: Section = Section {
    name: "telemetry_overhead",
    keys: &[
        BACKEND,
        R,
        N,
        key("noop_ns", 2, Check::Positive),
        key("instrumented_ns", 2, Check::Positive),
        key(
            "overhead",
            3,
            Check::Ratio {
                warn: TELEMETRY_OVERHEAD_WARN,
                fail: TELEMETRY_OVERHEAD_FAIL,
            },
        ),
    ],
};

/// Every section, in document order.
pub const SECTIONS: [Section; 3] = [RESULTS, PARALLEL, TELEMETRY_OVERHEAD];

/// Rows of every section, in [`SECTIONS`] order.
pub type Rows = [Vec<Vec<Value>>; SECTIONS.len()];

/// One row value, given in its section's key order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A workload or backend label (printable ASCII, written unescaped).
    Label(&'static str),
    /// A number, written with its key's decimals.
    Num(f64),
    /// No value.
    Null,
}

impl Value {
    fn render(self, key: &Key, quote: bool) -> String {
        match self {
            Value::Label(s) => {
                debug_assert!(s.chars().all(|c| c.is_ascii_graphic() || c == ' '));
                if quote {
                    format!("\"{s}\"")
                } else {
                    s.to_string()
                }
            }
            Value::Num(x) => format!("{x:.*}", key.decimals),
            Value::Null => "null".to_string(),
        }
    }
}

fn checked_zip<'a>(
    section: &Section,
    row: &'a [Value],
) -> impl Iterator<Item = (&'static Key, &'a Value)> {
    assert_eq!(
        row.len(),
        section.keys.len(),
        "{}: one value per key",
        section.name
    );
    section.keys.iter().zip(row)
}

/// Renders a throughput document: `header` holds the [`HEADER`] values,
/// `threads` the thread counts, and `rows` each section's rows.
pub fn render_json(header: [u64; HEADER.len()], threads: &[usize], rows: &Rows) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"{BENCH_KEY}\": \"{BENCH}\",");
    for (name, value) in HEADER.iter().zip(header) {
        let _ = writeln!(out, "  \"{name}\": {value},");
    }
    let list: Vec<String> = threads.iter().map(ToString::to_string).collect();
    let _ = writeln!(out, "  \"{THREADS}\": [{}],", list.join(", "));
    for (s, (section, rows)) in SECTIONS.iter().zip(rows).enumerate() {
        let _ = writeln!(out, "  \"{}\": [", section.name);
        for (i, row) in rows.iter().enumerate() {
            let cells: Vec<String> = checked_zip(section, row)
                .map(|(k, v)| format!("\"{}\": {}", k.name, v.render(k, true)))
                .collect();
            let comma = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(out, "    {{{}}}{comma}", cells.join(", "));
        }
        let comma = if s + 1 == SECTIONS.len() { "" } else { "," };
        let _ = writeln!(out, "  ]{comma}");
    }
    out.push_str("}\n");
    out
}

/// Renders one section's rows as an aligned text table headed by the key
/// names: labels left-aligned, numbers right-aligned.
pub fn render_table(section: &Section, rows: &[Vec<Value>]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            checked_zip(section, row)
                .map(|(k, v)| v.render(k, false))
                .collect()
        })
        .collect();
    let widths: Vec<usize> = section
        .keys
        .iter()
        .enumerate()
        .map(|(c, k)| {
            cells
                .iter()
                .map(|row| row[c].len())
                .fold(k.name.len(), usize::max)
        })
        .collect();
    let line = |texts: Vec<&str>| -> String {
        let parts: Vec<String> = texts
            .iter()
            .zip(section.keys)
            .zip(&widths)
            .map(|((text, k), &w)| match k.check {
                Check::Workload(_) | Check::Backend => format!("{text:<w$}"),
                _ => format!("{text:>w$}"),
            })
            .collect();
        parts.join("  ")
    };
    let mut out = format!("\n{}\n", section.name);
    out.push_str(&line(section.keys.iter().map(|k| k.name).collect()));
    out.push('\n');
    for row in &cells {
        out.push_str(&line(row.iter().map(String::as_str).collect()));
        out.push('\n');
    }
    out
}

impl Section {
    /// The key the regression gate compares in this section, if any.
    pub fn rate(&self) -> Option<&'static str> {
        self.keys
            .iter()
            .find(|k| k.check == Check::Rate)
            .map(|k| k.name)
    }

    /// A row's identity across runs — its workload, backend and thread
    /// count, joined by `/` (`?` for a missing one) — and its thread count
    /// (1 in a section without one).
    pub fn identify(&self, row: &Json) -> (String, f64) {
        let mut parts = Vec::new();
        let mut threads = 1.0;
        for k in self.keys {
            let value = row.get(k.name);
            match k.check {
                Check::Workload(_) | Check::Backend => {
                    parts.push(value.and_then(Json::as_str).unwrap_or("?").to_string());
                }
                Check::Threads { .. } => {
                    threads = value.and_then(Json::as_num).unwrap_or(f64::NAN);
                    parts.push(format!("{threads}"));
                }
                _ => {}
            }
        }
        (parts.join("/"), threads)
    }
}

impl Check {
    /// Checks one value against the header's thread counts: a problem
    /// fails the document, a warning passes it.
    fn apply(self, value: &Json, threads: &[f64]) -> Result<Option<String>, String> {
        let positive = || match value.as_num() {
            Some(x) if x > 0.0 => Ok(x),
            _ => Err(format!("must be a number above zero, got {value:?}")),
        };
        match self {
            Check::Workload(_) | Check::Backend => match value.as_str() {
                Some(s) if !s.is_empty() => Ok(None),
                _ => Err(format!("must be a label, got {value:?}")),
            },
            Check::Threads { serial } => {
                let t = positive()?;
                #[allow(clippy::float_cmp)]
                // lint:allow(float-cmp): thread counts are integers serialised as JSON numbers; small-integer equality is exact in f64
                let one = t == 1.0;
                if serial && one || !serial && threads.contains(&t) {
                    Ok(None)
                } else if serial {
                    Err(format!("must be 1 in a serial section, got {t}"))
                } else {
                    Err(format!("{t} is not in the header's {THREADS} {threads:?}"))
                }
            }
            Check::Positive | Check::Rate => positive().map(|_| None),
            Check::PositiveOrNull if *value == Json::Null => Ok(None),
            Check::PositiveOrNull => positive().map(|_| None),
            Check::Ratio { warn, fail } => {
                let x = positive()?;
                if x > fail {
                    Err(format!("{x:.3} exceeds the {fail:.2} limit"))
                } else if x > warn {
                    Ok(Some(format!(
                        "{x:.3} is past the documented {warn:.2} bound"
                    )))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// What [`validate`] found in a valid document.
#[derive(Clone, Debug, PartialEq)]
pub struct Validation {
    /// Row count of each section, in [`SECTIONS`] order.
    pub rows: [usize; SECTIONS.len()],
    /// Values past a warn bound (a warning does not fail the document).
    pub warnings: Vec<String>,
}

/// Sorted, deduplicated labels.
fn label_set(mut labels: Vec<&str>) -> Vec<&str> {
    labels.sort_unstable();
    labels.dedup();
    labels
}

/// Validates a throughput document (a run or a baseline) against
/// [`SECTIONS`]; the error names the first problem.
pub fn validate(doc: &Json) -> Result<Validation, String> {
    if doc.get(BENCH_KEY).and_then(Json::as_str) != Some(BENCH) {
        return Err(format!("{BENCH_KEY} field must be {BENCH:?}"));
    }
    for name in HEADER {
        if !doc
            .get(name)
            .and_then(Json::as_num)
            .is_some_and(|x| x > 0.0)
        {
            return Err(format!("header field {name:?} must be a number above zero"));
        }
    }
    let threads: Vec<f64> = doc
        .get(THREADS)
        .and_then(Json::as_arr)
        .filter(|list| !list.is_empty())
        .ok_or(format!("{THREADS} must be a non-empty array"))?
        .iter()
        .map(|t| t.as_num().ok_or(format!("{THREADS} must hold numbers")))
        .collect::<Result<_, _>>()?;

    let mut found = Validation {
        rows: [0; SECTIONS.len()],
        warnings: Vec::new(),
    };
    let mut all_backends: Option<Vec<&str>> = None;
    for (s, section) in SECTIONS.iter().enumerate() {
        let rows = doc
            .get(section.name)
            .and_then(Json::as_arr)
            .filter(|rows| !rows.is_empty())
            .ok_or(format!("{} must be a non-empty array", section.name))?;
        let mut only: &[&str] = &[];
        let mut workloads = Vec::new();
        let mut backends = Vec::new();
        for row in rows {
            for k in section.keys {
                let at = |e: String| {
                    let id = section.identify(row).0;
                    format!("{} {id}: {} {e}", section.name, k.name)
                };
                let value = row.get(k.name).ok_or_else(|| at("is missing".into()))?;
                if let Some(w) = k.check.apply(value, &threads).map_err(at)? {
                    found.warnings.push(at(w));
                }
                match k.check {
                    Check::Workload(list) => {
                        only = list;
                        workloads.extend(value.as_str());
                    }
                    Check::Backend => backends.extend(value.as_str()),
                    _ => {}
                }
            }
        }
        let (got, want) = (label_set(workloads), label_set(only.to_vec()));
        if !only.is_empty() && got != want {
            return Err(format!(
                "{} workloads must be {want:?}, got {got:?}",
                section.name
            ));
        }
        let backends = label_set(backends);
        let first = all_backends.get_or_insert_with(|| backends.clone());
        if *first != backends {
            return Err(format!(
                "{} backends {backends:?} != {} backends {first:?}",
                section.name, SECTIONS[0].name
            ));
        }
        found.rows[s] = rows.len();
    }
    Ok(found)
}
