//! Schedulability analysis via LLA (§5.4), decided by weak duality.
//!
//! The paper reads schedulability off a run's (non-)convergence, which
//! slowly damping fluctuations can pass for. Here each verdict is a proof
//! from the dual bound `D(μ, λ)`, evaluated every round:
//!
//! - **Schedulable**: a round's [`Certificate`] holds.
//! - **Unschedulable**: every utility is non-increasing, and every
//!   allocation meeting the constraints lies inside the
//!   [`clamping_box`](crate::allocation::clamping_box) (bounded above by
//!   the critical time and the caps the allocator enforces), so it has
//!   utility at least `U_floor = Σ_i U_i(hi_i)`, and by weak duality so
//!   has `D` at any prices. `D` below `U_floor` (by a relative ε, so
//!   rounding cannot fake it) or an empty box (`lo > hi`) proves that no
//!   such allocation exists.
//! - **Inconclusive**: the budget ran out with neither proof.
//!
//! The probe runs the configured [`OptimizerConfig`]. Under the default
//! market-clearing sweep a schedulable problem certifies within a few
//! dozen rounds (Figure 7's schedulable twin in 22), and a constraint
//! that no price can clear — least shares above `B_r`, or latency
//! floors above `C_i` on a path — doubles its price each round, which
//! drives `D` below `U_floor`. Under the paper's gradient method the
//! twin parks near utility −528 (optimum −446.6) and stays
//! `Inconclusive` after 2000 rounds.
//!
//! Both proofs need `D` itself, `L` at its maximiser, which the closed
//! form gives exactly for linear utilities. A concave task's maximiser is
//! a damped fixed point that stops at a relative 1e-10 or after 60
//! passes; `L` at it bounds `D` from below, so for a plan with a concave
//! task the verdicts are exact only up to that fixed point's residual.

use crate::allocation::{subtask_box, AllocationSettings};
use crate::optimizer::{Optimizer, OptimizerConfig};
use crate::problem::Problem;
use crate::round_book::{Certificate, GAP_TOL};
use serde::{Deserialize, Serialize};

/// Configuration for [`analyze_schedulability`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulabilityConfig {
    /// Optimizer configuration for the probe run.
    pub optimizer: OptimizerConfig,
    /// Iteration budget for the probe run.
    pub max_iters: usize,
}

impl Default for SchedulabilityConfig {
    fn default() -> Self {
        SchedulabilityConfig { optimizer: OptimizerConfig::default(), max_iters: 2_000 }
    }
}

/// The verdict of a schedulability probe (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulabilityVerdict {
    /// A round was certified.
    Schedulable {
        /// Rounds until the certificate held.
        iterations: usize,
        /// Utility of the certified allocation.
        utility: f64,
        /// Its duality gap `D − U`.
        gap: f64,
    },
    /// Weak duality proved that no allocation meets the constraints.
    Unschedulable {
        /// Rounds until the proof (0 for an empty box).
        iterations: usize,
        /// The dual bound below the floor (`−∞` for an empty box).
        dual: f64,
        /// `U_floor = Σ_i U_i(hi_i)` over the clamping box.
        utility_floor: f64,
    },
    /// The budget ran out with neither proof, or was zero.
    Inconclusive {
        /// Rounds run (the budget).
        iterations: usize,
        /// The last round's certificate (the initial point's if none ran).
        certificate: Certificate,
        /// `U_floor`, which `certificate.dual` did not undercut.
        utility_floor: f64,
    },
}

impl SchedulabilityVerdict {
    /// Whether the verdict is [`Schedulable`](SchedulabilityVerdict::Schedulable).
    pub fn is_schedulable(&self) -> bool {
        matches!(self, SchedulabilityVerdict::Schedulable { .. })
    }
}

/// Probes the schedulability of `problem` (§5.4): runs LLA for up to
/// `max_iters` rounds and returns the first proof either way (see the
/// [module docs](self)).
pub fn analyze_schedulability(
    problem: Problem,
    config: &SchedulabilityConfig,
) -> SchedulabilityVerdict {
    let (utility_floor, empty) = utility_floor(&problem, &config.optimizer.allocation);
    if empty {
        return SchedulabilityVerdict::Unschedulable {
            iterations: 0,
            dual: f64::NEG_INFINITY,
            utility_floor,
        };
    }
    let mut opt = Optimizer::new(problem, config.optimizer);
    for iterations in 1..=config.max_iters {
        opt.step();
        let cert = opt.certify();
        if cert.holds() {
            return SchedulabilityVerdict::Schedulable {
                iterations,
                utility: cert.utility,
                gap: cert.gap,
            };
        }
        if cert.dual < utility_floor - GAP_TOL * utility_floor.abs() {
            return SchedulabilityVerdict::Unschedulable {
                iterations,
                dual: cert.dual,
                utility_floor,
            };
        }
    }
    SchedulabilityVerdict::Inconclusive {
        iterations: config.max_iters,
        certificate: opt.certify(),
        utility_floor,
    }
}

/// `(U_floor, empty)`: `Σ_i U_i(hi_i)` over the clamping box (an empty
/// subtask box collapsed to `hi = lo`, as the allocator clamps), and
/// whether any subtask's box is empty.
fn utility_floor(problem: &Problem, settings: &AllocationSettings) -> (f64, bool) {
    let (mut floor, mut empty) = (0.0, false);
    for task in problem.tasks() {
        let hi: Vec<f64> = (0..task.len())
            .map(|s| {
                let model = problem.share_model(task.subtask_id(s));
                let (lo, cap) = subtask_box(problem, task, s, model, settings);
                empty |= cap < lo;
                cap.max(lo)
            })
            .collect();
        floor += task.utility(&hi);
    }
    (floor, empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationSettings;
    use crate::ids::{ResourceId, TaskId};
    use crate::resource::{Resource, ResourceKind};
    use crate::task::TaskBuilder;
    use crate::utility::UtilityFn;

    fn problem(critical_time: f64, num_tasks: usize) -> Problem {
        problem_with(critical_time, num_tasks, None)
    }

    fn problem_with(critical_time: f64, num_tasks: usize, utility: Option<UtilityFn>) -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut tasks = Vec::new();
        for i in 0..num_tasks {
            let mut b = TaskBuilder::new(format!("t{i}"));
            let a = b.subtask("a", ResourceId::new(0), 2.0);
            let c = b.subtask("b", ResourceId::new(1), 3.0);
            b.edge(a, c).unwrap();
            b.critical_time(critical_time);
            if let Some(u) = &utility {
                b.utility(u.clone());
            }
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        Problem::new(resources, tasks).unwrap()
    }

    fn config() -> SchedulabilityConfig {
        SchedulabilityConfig {
            optimizer: OptimizerConfig {
                allocation: AllocationSettings { throughput_floor: false },
                ..OptimizerConfig::default()
            },
            ..SchedulabilityConfig::default()
        }
    }

    #[test]
    fn generous_deadlines_are_schedulable() {
        let verdict = analyze_schedulability(problem(60.0, 2), &config());
        assert!(verdict.is_schedulable(), "verdict: {verdict:?}");
    }

    #[test]
    fn impossible_deadlines_are_unschedulable() {
        // 8 tasks × (share >= demand/C) with C = 7ms: each subtask needs
        // share >= 3/7 on resource 0 alone — wildly over capacity.
        let verdict = analyze_schedulability(problem(7.0, 8), &config());
        match verdict {
            SchedulabilityVerdict::Unschedulable { iterations, dual, utility_floor } => {
                assert!(iterations > 0);
                assert!(
                    dual < utility_floor,
                    "the proof is D < U_floor: {dual} vs {utility_floor}"
                );
            }
            other => panic!("expected unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn empty_box_is_unschedulable_without_a_round() {
        // A 1 ms cap on a subtask whose share bound alone needs 3 ms.
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0)];
        let mut b = TaskBuilder::new("capped");
        b.subtask_with_max_latency("a", ResourceId::new(0), 2.0, 1.0);
        b.critical_time(50.0);
        let p = Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap();
        match analyze_schedulability(p, &config()) {
            SchedulabilityVerdict::Unschedulable { iterations: 0, dual, utility_floor } => {
                assert_eq!(dual, f64::NEG_INFINITY);
                assert!(utility_floor.is_finite());
            }
            other => panic!("expected unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn concave_tasks_get_the_same_proofs() {
        let quadratic = UtilityFn::Quadratic { offset: 0.0, lin: 1.0, quad: 0.01 };
        let generous = problem_with(60.0, 2, Some(quadratic.clone()));
        assert!(analyze_schedulability(generous, &config()).is_schedulable());
        match analyze_schedulability(problem_with(7.0, 8, Some(quadratic)), &config()) {
            SchedulabilityVerdict::Unschedulable { dual, utility_floor, .. } => {
                assert!(dual < utility_floor, "{dual} vs {utility_floor}");
            }
            other => panic!("expected unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_is_inconclusive() {
        let config = SchedulabilityConfig { max_iters: 0, ..config() };
        match analyze_schedulability(problem(7.0, 8), &config) {
            SchedulabilityVerdict::Inconclusive { iterations: 0, certificate, utility_floor } => {
                // Zero prices bound the utility by its value at the box's
                // lower corner, far above the floor.
                assert!(certificate.dual >= utility_floor, "{certificate:?} vs {utility_floor}");
                assert!(!certificate.holds());
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn verdict_reports_iterations_for_schedulable() {
        match analyze_schedulability(problem(80.0, 1), &config()) {
            SchedulabilityVerdict::Schedulable { iterations, utility, gap } => {
                assert!(iterations > 0);
                assert!(utility.is_finite());
                assert!(gap <= 1e-4 * (utility + gap).abs(), "gap {gap} at utility {utility}");
            }
            other => panic!("expected schedulable, got {other:?}"),
        }
    }
}
