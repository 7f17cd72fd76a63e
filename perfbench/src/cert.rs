//! The duality-gap certificate and the solve loop that stops on it.
//!
//! After a round with utility `U` and worst violation
//! `viol = max(max_resource_violation, max_path_violation)`, the round is
//! certified when `viol ≤ DELTA` and `D − U ≤ EPSILON·|D|`, where
//! `D = D(μ, λ)` is the dual function (Eq. 6) at the solver's current
//! prices. Weak duality gives `D ≥ U*`, so a certified allocation is
//! within `EPSILON` of optimal utility and within `DELTA` of every
//! constraint. `D` is evaluated only on rounds that pass the cheap
//! violation test.

use crate::trace::Spans;
use lla_core::{IterationReport, Problem};
use std::time::Instant;

/// Constraint tolerance of a certified allocation.
pub const DELTA: f64 = 1e-3;
/// Relative duality-gap tolerance of a certified allocation.
pub const EPSILON: f64 = 1e-4;

/// The worst constraint violation a round reports.
pub fn violation(report: &IterationReport) -> f64 {
    report.max_resource_violation.max(report.max_path_violation)
}

/// Worst violation of `lats`, recomputed with the problem's own (naive)
/// constraint walks — the independent re-check of a certificate.
pub fn naive_violation(problem: &Problem, lats: &[Vec<f64>]) -> f64 {
    problem.max_resource_violation(lats).max(problem.max_path_violation(lats))
}

/// Whether utility `u` is within `EPSILON` of the upper bound `dual`.
pub fn gap_closed(u: f64, dual: f64) -> bool {
    dual - u <= EPSILON * dual.abs()
}

/// A solver driven one round at a time.
pub trait Rounds {
    /// Runs one round and reports its utility and violations.
    fn round(&mut self, spans: &Spans) -> IterationReport;
    /// `D(μ, λ)` at the current prices (an upper bound on optimal utility).
    fn dual(&mut self, spans: &Spans) -> f64;
}

/// The outcome of [`solve_to_cert`].
#[derive(Debug, Clone, Copy)]
pub struct Solve {
    pub rounds: usize,
    pub certified: bool,
    pub wall_s: f64,
    /// The last `D(μ, λ)` evaluated (NaN if none was).
    pub dual: f64,
}

/// Runs rounds until the first certified round or `cap` rounds.
pub fn solve_to_cert(solver: &mut impl Rounds, cap: usize, spans: &Spans) -> Solve {
    let t0 = Instant::now();
    let mut out = Solve { rounds: 0, certified: false, wall_s: 0.0, dual: f64::NAN };
    while out.rounds < cap {
        let report = solver.round(spans);
        out.rounds += 1;
        if violation(&report) <= DELTA {
            let _s = spans.enter("certify");
            out.dual = solver.dual(spans);
            if gap_closed(report.utility, out.dual) {
                out.certified = true;
                break;
            }
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_test_is_relative_to_the_bound() {
        assert!(gap_closed(99.995, 100.0));
        assert!(!gap_closed(99.9, 100.0));
        // A slightly infeasible allocation may exceed the bound.
        assert!(gap_closed(100.01, 100.0));
        assert!(gap_closed(-100.005, -100.0));
    }
}
