//! The round book both in-process drivers keep: the stopping rule (the
//! duality-gap [`Certificate`], whose δ and ε are the only stopping
//! constants), the shared `lla_opt_*` series and checkpoint validation.
//! [`Optimizer`](crate::Optimizer) and
//! [`ShardedOptimizer`](crate::ShardedOptimizer) each own a [`RoundBook`],
//! implement [`Driver`], and forward `certify`, `has_converged` and
//! `run_to_convergence` here. Both keep their latencies flat and build
//! the nested rows of their public reports through [`nested_rows`].

use crate::optimizer::{IterationReport, OptimizerState, RunOutcome, StateImportError};
use crate::problem::Problem;
use lla_telemetry::{Counter, Gauge, MetricsRegistry};
use serde::{Deserialize, Serialize};

/// δ: slack on `max_r (usage_r − B_r)` and `max_p (path_latency/C − 1)`
/// when declaring an allocation feasible.
pub const FEASIBILITY_TOL: f64 = 1e-3;

/// ε: relative duality gap `(D − U)/|D|` of a certified allocation.
pub(crate) const GAP_TOL: f64 = 1e-4;

/// A duality-gap certificate of the current allocation. By weak duality
/// (Eqs. 5–6) `D(μ, λ)` at any prices bounds every feasible allocation's
/// utility, so one that [`holds`](Self::holds) is within ε of optimal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Certificate {
    /// Total utility `U` of the current allocation.
    pub utility: f64,
    /// The dual function `D(μ, λ)` (Eq. 6) at the current prices.
    pub dual: f64,
    /// `D − U`.
    pub gap: f64,
    /// `max(max_r (usage_r − B_r), max_p (path_latency/C − 1))`.
    pub viol: f64,
    /// Concave tasks whose damped fixed point stopped at its iteration
    /// cap while `dual` was evaluated (see
    /// [`DualReport::capped_fixed_points`](crate::DualReport::capped_fixed_points));
    /// `dual` is exact only when this is 0. [`holds`](Self::holds) does not
    /// read it.
    pub capped_fixed_points: usize,
}

impl Certificate {
    /// `viol ≤ δ` (1e-3) and `D − U ≤ ε·|D|` (ε = 1e-4).
    pub fn holds(&self) -> bool {
        self.viol <= FEASIBILITY_TOL && self.gap <= GAP_TOL * self.dual.abs()
    }
}

/// What the round book needs from a driver.
pub(crate) trait Driver {
    fn book(&self) -> &RoundBook;
    /// One round, ending in [`RoundBook::close_round`].
    fn round(&mut self) -> IterationReport;
    /// The current allocation's worst violation by a full walk.
    fn violation_walk(&self) -> f64;
    /// `D(μ, λ)` on the driver's own plans, in a `certify` scope, and
    /// the concave tasks whose fixed point hit its cap.
    fn dual(&self) -> (f64, usize);
}

/// One driver's last utility and violations and shared metric handles.
#[derive(Debug, Clone)]
pub(crate) struct RoundBook {
    /// Rounds executed over the driver's lifetime.
    pub(crate) iteration: usize,
    /// Utility of the current allocation.
    utility: f64,
    /// `(max_resource_violation, max_path_violation)` of the last round;
    /// cleared by any out-of-band change so [`violation`] can skip the
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
    /// A book at iteration 0 over an allocation of utility `utility`.
    pub(crate) fn new(utility: f64) -> Self {
        RoundBook { iteration: 0, utility, last_violations: None, series: None }
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

    /// Closes a round: caches its utility and violations, advances the
    /// iteration counter and publishes the shared series.
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
        self.utility = utility;
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

    /// Drops the cached violations after an out-of-band edit.
    pub(crate) fn invalidate(&mut self) {
        self.last_violations = None;
    }

    /// Takes a new current utility (after a membership change or restore).
    pub(crate) fn restart(&mut self, utility: f64) {
        self.utility = utility;
        self.invalidate();
    }
}

/// The current worst violation: the last round's, else a full walk.
pub(crate) fn violation<D: Driver>(d: &D) -> f64 {
    match d.book().last_violations {
        Some((res, path)) => res.max(path),
        None => d.violation_walk(),
    }
}

/// Whether the current allocation is within δ of every constraint.
pub(crate) fn feasible<D: Driver>(d: &D) -> bool {
    violation(d) <= FEASIBILITY_TOL
}

/// The certificate of the current allocation.
pub(crate) fn certify<D: Driver>(d: &D) -> Certificate {
    let (utility, (dual, capped_fixed_points)) = (d.book().utility, d.dual());
    Certificate { utility, dual, gap: dual - utility, viol: violation(d), capped_fixed_points }
}

/// Whether the current allocation is certified (`D` only if feasible).
pub(crate) fn has_converged<D: Driver>(d: &D) -> bool {
    feasible(d) && certify(d).holds()
}

/// Runs rounds until one is certified or `max_iters` have run, with `D`
/// only after rounds whose violation passes δ.
pub(crate) fn run_to_convergence<D: Driver>(d: &mut D, max_iters: usize) -> RunOutcome {
    let mut iterations = 0;
    let converged = loop {
        if iterations == max_iters {
            break false;
        }
        d.round();
        iterations += 1;
        if has_converged(d) {
            break true;
        }
    };
    RunOutcome { converged, iterations, final_utility: d.book().utility, feasible: feasible(d) }
}

/// One latency row per task, built from each task's flat slice of a
/// driver's store: the nested shape of the public edge (allocations,
/// checkpoints, KKT and health reports), which no round reads.
pub(crate) fn nested_rows<'a>(
    num_tasks: usize,
    rows: impl IntoIterator<Item = (usize, &'a [f64])>,
) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); num_tasks];
    for (t, row) in rows {
        out[t] = row.to_vec();
    }
    out
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
