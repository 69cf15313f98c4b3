//! Adaptive sampling (papers §4 and §5): the static scheme, the streaming
//! scheme, and the fixed-budget variant used by the paper's experiments.

pub mod fixed_budget;
pub(crate) mod queue;
pub mod static_;
pub mod stream;
pub mod weight;

pub use fixed_budget::FixedBudgetAdaptiveHull;
pub use static_::adaptive_sample_static;
pub use stream::{AdaptiveHull, AdaptiveHullConfig};
