//! Zone configuration: which files each rule applies to. Paths are
//! workspace-relative and `/`-separated; membership is by exact match or
//! directory prefix.

/// Where each rule applies. [`Config::workspace`] is the checked-in policy
/// for this repository; tests build bespoke configs for the fixture corpus.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Files/dirs exempt from the float-cmp rule (exact-arithmetic
    /// modules whose *job* is bit-level float comparison).
    pub float_cmp_allow: Vec<String>,
    /// Files/dirs declared panic-free (rule 2 applies only here).
    pub no_panic_zones: Vec<String>,
    /// Crate roots that must carry `#![forbid(unsafe_code)]`.
    pub crate_roots: Vec<String>,
    /// Directories never scanned by the workspace walk.
    pub skip_dirs: Vec<String>,
    /// Directories whose files are test code (all rules except
    /// forbid-unsafe are off there; tests may unwrap and compare floats).
    pub test_dirs: Vec<String>,
}

fn matches_entry(path: &str, entry: &str) -> bool {
    path == entry || (entry.ends_with('/') && path.starts_with(entry))
}

impl Config {
    /// The policy for this workspace (see README "Robustness & lint
    /// policy" for the prose version).
    pub fn workspace() -> Self {
        Config {
            float_cmp_allow: vec![
                // Exact-arithmetic kernels: float filters with expansion
                // fallbacks compare representation-exactly by design.
                "crates/geom/src/predicates.rs".into(),
                "crates/geom/src/expansion.rs".into(),
                "crates/geom/src/dyadic.rs".into(),
            ],
            no_panic_zones: vec![
                // Geometry kernels: a predicate that panics takes a
                // million-stream serving process down with it.
                "crates/geom/src/".into(),
                // Snapshot decode runs on untrusted bytes; the failure
                // mode must be a typed SnapshotError, never a panic.
                "crates/core/src/snapshot.rs".into(),
                // The sharded engine owns worker threads; a panic here
                // poisons every shard of every stream.
                "crates/core/src/parallel.rs".into(),
                // The whole point of the supervisor is surviving faults:
                // it must degrade with a RecoveryReport, never panic
                // (the injected-crash site carries an explicit allow).
                "crates/core/src/recovery.rs".into(),
                // The tenant governor's contract is "quota pressure and
                // corruption are values, never crashes": every admission,
                // shedding, spill, and quarantine outcome must be typed.
                "crates/core/src/tenant.rs".into(),
                // Telemetry rides inside every hot path above; an
                // instrument that can panic turns observability into the
                // outage it was meant to explain.
                "crates/core/src/telemetry.rs".into(),
                // The serving layer answers dashboard queries against the
                // governed fleet: a refused stream is a typed QueryError
                // or a counted skip in fleet scans, never a panic.
                "crates/core/src/queries/serving.rs".into(),
                // Fixture corpus: lets CI demonstrate the rule from the
                // CLI (the workspace walk never descends into fixtures).
                "crates/lint/fixtures/no_panic".into(),
            ],
            crate_roots: vec![
                "src/lib.rs".into(),
                "crates/geom/src/lib.rs".into(),
                "crates/core/src/lib.rs".into(),
                "crates/stream/src/lib.rs".into(),
                "crates/bench/src/lib.rs".into(),
                "crates/lint/src/lib.rs".into(),
                // Fixture corpus (same trick as the no-panic fixtures).
                "crates/lint/fixtures/forbid_unsafe".into(),
            ],
            skip_dirs: vec![
                "target".into(),
                "vendor".into(),
                ".git".into(),
                "crates/lint/fixtures".into(),
            ],
            test_dirs: vec!["tests/".into(), "crates/lint/tests/".into()],
        }
    }

    /// `true` when the float-cmp rule applies to `path` (i.e. the path is
    /// *not* in the exact-arithmetic allowlist).
    pub fn float_cmp_applies(&self, path: &str) -> bool {
        !self
            .float_cmp_allow
            .iter()
            .any(|e| matches_entry(path, e) || path.starts_with(e.as_str()))
    }

    /// `true` when `path` lies in a declared no-panic zone.
    pub fn no_panic_applies(&self, path: &str) -> bool {
        self.no_panic_zones
            .iter()
            .any(|e| matches_entry(path, e) || path.starts_with(e.as_str()))
    }

    /// `true` when `path` is a crate root (forbid-unsafe rule).
    pub fn is_crate_root(&self, path: &str) -> bool {
        self.crate_roots
            .iter()
            .any(|e| matches_entry(path, e) || path.starts_with(e.as_str()))
    }

    /// `true` when `path` is test code (integration test dirs; in-file
    /// `#[cfg(test)]` regions are handled separately by the engine).
    pub fn is_test_path(&self, path: &str) -> bool {
        self.test_dirs
            .iter()
            .any(|e| path.starts_with(e.as_str()) || path.contains("/tests/"))
    }

    /// `true` when the workspace walk must not descend into `path`.
    pub fn is_skipped(&self, path: &str) -> bool {
        self.skip_dirs
            .iter()
            .any(|e| matches_entry(path, e) || path.starts_with(&format!("{e}/")))
    }
}
