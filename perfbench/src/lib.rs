//! Pipeline benchmark for streamhull: four workloads driven through every
//! layer — summaries, shard/supervise, window, tenant governor, serving —
//! with end-to-end metrics from an untraced run and per-layer attribution
//! from a traced one. See `README.md` for the metrics and how to run it.

pub mod check;
pub mod probes;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
