//! The round book both in-process drivers keep: the convergence detector,
//! the shared `lla_opt_*` series and checkpoint validation.
//!
//! [`Optimizer`](crate::Optimizer) and
//! [`ShardedOptimizer`](crate::ShardedOptimizer) run different round
//! bodies but close every round the same way, so each owns a
//! [`RoundBook`], implements [`Driver`], and forwards its public
//! `has_converged` and `run_to_convergence` here.
//!
//! The detector's thresholds are the constants below. The paper's §6
//! prototype stops refining once utility moves by less than 1%;
//! [`CONVERGENCE_TOL`] is four orders of magnitude stricter, and
//! [`PRICE_TOL`] also waits for the prices to settle, so a slow price
//! drift whose utility effect per round is tiny is not mistaken for a
//! fixed point.

use crate::optimizer::{IterationReport, OptimizerState, RunOutcome, StateImportError};
use crate::problem::Problem;
use lla_telemetry::{Counter, Gauge, MetricsRegistry};

/// Relative utility change (`|ΔU| ≤ tol · max(|U|, 1)`) below which a
/// round counts toward convergence.
pub(crate) const CONVERGENCE_TOL: f64 = 1e-6;

/// Consecutive below-[`CONVERGENCE_TOL`] rounds required to converge.
pub(crate) const CONVERGENCE_WINDOW: usize = 10;

/// Convergence also requires the last price update's largest relative
/// movement (`|Δprice|/(1+price)`) to be at most this.
pub(crate) const PRICE_TOL: f64 = 1e-4;

/// Slack on `max_r (usage_r − B_r)` and `max_p (path_latency/C − 1)`
/// when declaring an allocation feasible.
pub(crate) const FEASIBILITY_TOL: f64 = 1e-3;

/// What the round book needs from a driver.
pub(crate) trait Driver {
    fn book(&self) -> &RoundBook;
    /// One round, ending in [`RoundBook::close_round`].
    fn round(&mut self) -> IterationReport;
    /// The largest relative price movement of the last update.
    fn price_movement(&self) -> f64;
    /// Full feasibility walk, for when no round has cached violations
    /// since the last out-of-band change.
    fn feasible_walk(&self) -> bool;
}

/// Convergence state of one driver plus its shared metric handles.
#[derive(Debug, Clone)]
pub(crate) struct RoundBook {
    /// Rounds executed over the driver's lifetime.
    pub(crate) iteration: usize,
    /// Consecutive rounds whose relative utility change stayed within
    /// [`CONVERGENCE_TOL`].
    below_tol: usize,
    last_utility: f64,
    /// `(max_resource_violation, max_path_violation)` of the last round;
    /// cleared by any out-of-band change so [`feasible`] can skip the
    /// full walk on the hot path.
    last_violations: Option<(f64, f64)>,
    /// Boxed so an un-instrumented driver stays one pointer wider.
    series: Option<Box<SharedSeries>>,
}

/// `(name, help)` of the shared counters: rounds, plan lowerings and
/// gamma doublings.
pub(crate) const COUNTERS: [(&str, &str); 3] = [
    ("lla_opt_iterations_total", "optimizer iterations executed"),
    (
        "lla_opt_plan_lowerings_total",
        "compiled-plan (re-)lowering epochs (membership/problem mutations)",
    ),
    ("lla_opt_gamma_doublings_total", "adaptive step-size growth events across all duals"),
];

/// `(name, help)` of the shared gauges: the round's utility and
/// violations, then its largest relative price step.
pub(crate) const GAUGES: [(&str, &str); 4] = [
    ("lla_opt_utility", "total utility after the last iteration"),
    ("lla_opt_max_resource_violation", "max_r (usage_r - B_r) after the last iteration"),
    ("lla_opt_max_path_violation", "max_p (path_latency/C - 1) after the last iteration"),
    ("lla_opt_last_max_rel_price_step", "largest relative price movement of the last update"),
];

/// Handles for [`COUNTERS`] and [`GAUGES`], in table order.
#[derive(Debug, Clone)]
struct SharedSeries {
    counters: [Counter; 3],
    gauges: [Gauge; 4],
    /// Gamma doublings already mirrored into the counter.
    doublings_seen: u64,
}

impl RoundBook {
    /// A book at iteration 0 whose first round is compared to `utility`.
    pub(crate) fn new(utility: f64) -> Self {
        RoundBook {
            iteration: 0,
            below_tol: 0,
            last_utility: utility,
            last_violations: None,
            series: None,
        }
    }

    /// Registers the shared series on `registry`; only doublings beyond
    /// the driver's current total `gamma_doublings` are counted.
    pub(crate) fn attach(&mut self, registry: &MetricsRegistry, gamma_doublings: u64) {
        self.series = Some(Box::new(SharedSeries {
            counters: COUNTERS.map(|(name, help)| registry.counter(name, help)),
            gauges: GAUGES.map(|(name, help)| registry.gauge(name, help)),
            doublings_seen: gamma_doublings,
        }));
    }

    pub(crate) fn count_lowering(&self) {
        if let Some(series) = &self.series {
            let [_, lowerings, _] = &series.counters;
            lowerings.inc();
        }
    }

    /// Closes a round: caches its violations, feeds the detector, advances
    /// the iteration counter and publishes the shared series.
    pub(crate) fn close_round(
        &mut self,
        utility: f64,
        (max_resource_violation, max_path_violation): (f64, f64),
        price_step: f64,
        gamma_doublings: u64,
    ) -> IterationReport {
        let report = IterationReport {
            iteration: self.iteration,
            utility,
            max_resource_violation,
            max_path_violation,
        };
        self.last_violations = Some((max_resource_violation, max_path_violation));
        let delta = (utility - self.last_utility).abs();
        if delta <= CONVERGENCE_TOL * utility.abs().max(1.0) {
            self.below_tol += 1;
        } else {
            self.below_tol = 0;
        }
        self.last_utility = utility;
        self.iteration += 1;
        if let Some(series) = self.series.as_deref_mut() {
            let [rounds, _, doublings] = &series.counters;
            rounds.inc();
            doublings.add(gamma_doublings - series.doublings_seen);
            series.doublings_seen = gamma_doublings;
            let values = [utility, max_resource_violation, max_path_violation, price_step];
            for (gauge, value) in series.gauges.iter().zip(values) {
                gauge.set(value);
            }
        }
        report
    }

    pub(crate) fn rearm(&mut self) {
        self.below_tol = 0;
        self.last_violations = None;
    }

    /// Re-arms and compares the next round to `utility` (after a
    /// membership change or a checkpoint restore).
    pub(crate) fn restart(&mut self, utility: f64) {
        self.last_utility = utility;
        self.rearm();
    }
}

/// Feasibility of the current allocation: the last round's cached
/// violations (identical by construction), else a full walk.
pub(crate) fn feasible<D: Driver>(d: &D) -> bool {
    match d.book().last_violations {
        Some((res, path)) => res <= FEASIBILITY_TOL && path <= FEASIBILITY_TOL,
        None => d.feasible_walk(),
    }
}

/// Utility stable for [`CONVERGENCE_WINDOW`] rounds, prices quiescent and
/// the allocation feasible.
pub(crate) fn has_converged<D: Driver>(d: &D) -> bool {
    if d.book().below_tol < CONVERGENCE_WINDOW || d.price_movement() > PRICE_TOL {
        return false;
    }
    feasible(d)
}

pub(crate) fn run_to_convergence<D: Driver>(d: &mut D, max_iters: usize) -> RunOutcome {
    for executed in 1..=max_iters {
        d.round();
        if has_converged(d) {
            let final_utility = d.book().last_utility;
            return RunOutcome {
                converged: true,
                iterations: executed,
                final_utility,
                feasible: true,
            };
        }
    }
    RunOutcome {
        converged: false,
        iterations: max_iters,
        final_utility: d.book().last_utility,
        feasible: d.feasible_walk(),
    }
}

/// Checks a checkpoint against `problem` before either driver restores
/// it: topology epoch (when both sides know one), latency-matrix shape,
/// then the per-resource price count.
pub(crate) fn validate_state(
    state: &OptimizerState,
    problem: &Problem,
    expected_epoch: Option<u64>,
) -> Result<(), StateImportError> {
    if let (Some(expected), Some(found)) = (expected_epoch, state.epoch()) {
        if expected != found {
            return Err(StateImportError::EpochMismatch { expected, found });
        }
    }
    let (tasks, lats) = (problem.tasks(), state.lats());
    if lats.len() != tasks.len() {
        return Err(StateImportError::TaskCountMismatch {
            expected: tasks.len(),
            found: lats.len(),
        });
    }
    for (t, (task, row)) in tasks.iter().zip(lats).enumerate() {
        if row.len() != task.len() {
            let (expected, found) = (task.len(), row.len());
            return Err(StateImportError::RowShapeMismatch { task: t, expected, found });
        }
    }
    let (expected, found) = (problem.resources().len(), state.prices().mus().len());
    if found != expected {
        return Err(StateImportError::ResourceCountMismatch { expected, found });
    }
    Ok(())
}
