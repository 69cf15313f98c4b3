//! Correctness checks against exact references, and failure accounting.
//!
//! Every public call the benchmark makes is an attempted operation; a
//! typed error from one is a failure. Every check is an attempted
//! operation as well, and fails when:
//!
//! * an [`Estimate`] interval does not contain the exact value;
//! * the observed Hausdorff error exceeds the reported error bound;
//! * a window answer does not cover its window;
//! * a supervised run is degraded, or a recovered run's hull differs from
//!   the fault-free one.
//!
//! The checker also collects, per checked answer, the reported bound and
//! the observed error as shares of the exact hull's diameter.

use std::fmt::Display;

use streamhull::geom::calipers;
use streamhull::{ConvexPolygon, Estimate};

/// Slack for floating-point rounding in interval and bound checks, as a
/// share of the exact hull's diameter. Far below any real violation.
pub const TOLERANCE: f64 = 1e-9;

/// Points an answer must cover for its error ratios to be recorded.
pub const RATED_POINTS: u64 = 32;

/// Failure accounting plus the error ratios of checked answers.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that returned an error, plus checks that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Reported error bound ÷ exact diameter, per checked answer.
    pub bound_rel: Vec<f64>,
    /// Observed Hausdorff error ÷ exact diameter, per checked answer.
    pub obs_rel: Vec<f64>,
}

impl Checker {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Counts one call; an `Err` is a failure. Returns the `Ok` value.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts `n` calls that cannot fail.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one check of `ok`; `what` describes a failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Checks that `est` contains `truth`, allowing rounding slack
    /// relative to `scale` (the exact diameter).
    pub fn estimate(&mut self, what: &str, est: &Estimate, truth: f64, scale: f64) {
        let slack = TOLERANCE * scale.max(f64::MIN_POSITIVE);
        let ok = est.lo - slack <= truth && truth <= est.hi + slack;
        self.expect(ok, || {
            format!("{what}: exact {truth} outside [{}, {}]", est.lo, est.hi)
        });
    }

    /// Checks the observed Hausdorff error of `approx` against `exact`
    /// under the reported `bound`. When `rated`, also records both as
    /// shares of the exact diameter; callers rate answers over at least
    /// [`RATED_POINTS`] points, since on a handful of points the ratios
    /// swing with the points' shape. A missing bound is a failure: every
    /// workload runs the adaptive summary, which always reports one.
    pub fn hull_error(
        &mut self,
        what: &str,
        approx: &ConvexPolygon,
        exact: &ConvexPolygon,
        bound: Option<f64>,
        rated: bool,
    ) {
        let observed = approx.directed_hausdorff_from(exact);
        let diameter = calipers::diameter(exact).map_or(0.0, |(_, _, d)| d);
        let Some(bound) = bound else {
            self.expect(false, || format!("{what}: no error bound reported"));
            return;
        };
        let slack = TOLERANCE * diameter.max(f64::MIN_POSITIVE);
        self.expect(observed <= bound + slack, || {
            format!("{what}: observed error {observed} above bound {bound}")
        });
        if rated && diameter > 0.0 {
            self.bound_rel.push(bound / diameter);
            self.obs_rel.push(observed / diameter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamhull::Point2;

    #[test]
    fn a_shrunken_interval_is_a_failure() {
        let mut ck = Checker::default();
        let est = Estimate {
            value: 1.0,
            lo: 1.0,
            hi: 1.2,
        };
        ck.estimate("width", &est, 1.1, 2.0);
        assert_eq!((ck.attempted, ck.failed), (1, 0));
        // The same answer with its interval shrunk below the truth.
        let shrunk = Estimate { hi: 1.05, ..est };
        ck.estimate("width", &shrunk, 1.1, 2.0);
        assert_eq!((ck.attempted, ck.failed), (2, 1));
        assert!(ck.failures[0].contains("outside"));
    }

    #[test]
    fn an_error_above_the_bound_is_a_failure() {
        let square = |h: f64| {
            ConvexPolygon::from_ccw(vec![
                Point2::new(0.0, 0.0),
                Point2::new(h, 0.0),
                Point2::new(h, h),
                Point2::new(0.0, h),
            ])
            .expect("a square is convex")
        };
        let mut ck = Checker::default();
        ck.hull_error("inner", &square(0.9), &square(1.0), Some(0.2), true);
        ck.hull_error("inner", &square(0.9), &square(1.0), Some(0.01), true);
        ck.hull_error("inner", &square(0.9), &square(1.0), Some(0.2), false);
        ck.hull_error("inner", &square(0.9), &square(1.0), None, true);
        assert_eq!((ck.attempted, ck.failed), (4, 2));
        assert_eq!(ck.obs_rel.len(), 2);
    }

    #[test]
    fn typed_errors_count() {
        let mut ck = Checker::default();
        assert_eq!(ck.op::<u8, String>("ok", Ok(3)), Some(3));
        assert_eq!(ck.op::<u8, String>("bad", Err("nope".into())), None);
        assert_eq!((ck.attempted, ck.failed), (2, 1));
    }
}
