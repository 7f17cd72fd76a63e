//! Schedulability analysis via LLA (§5.4).
//!
//! LLA doubles as a schedulability test: on a schedulable workload the
//! utility converges and both constraint families are satisfied; on an
//! unschedulable workload the utility and share sums keep fluctuating and —
//! decisively — the critical-path latencies exceed the critical times by a
//! large factor (1.75–2.41× in the paper's Figure 7 experiment).
//!
//! A run that does not converge is judged over its last 50 rounds
//! (`ASSESSMENT_WINDOW`): when the mean critical-path ratio of some task,
//! or the mean usage/availability of some resource, exceeds 1.1
//! (`VIOLATION_THRESHOLD`, below the 1.75× the paper observes on its
//! unschedulable workload) the verdict is
//! [`Unschedulable`](SchedulabilityVerdict::Unschedulable), otherwise
//! [`Inconclusive`](SchedulabilityVerdict::Inconclusive).

use crate::optimizer::{Optimizer, OptimizerConfig};
use crate::problem::Problem;
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

/// Mean critical-path or usage/availability ratio above which a
/// non-converged run is declared unschedulable (`1.0` = exactly at the
/// constraint).
const VIOLATION_THRESHOLD: f64 = 1.1;

/// Trailing rounds over which the ratios of a non-converged run are
/// averaged.
const ASSESSMENT_WINDOW: usize = 50;

/// The verdict of a schedulability probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulabilityVerdict {
    /// LLA converged to a feasible allocation.
    Schedulable {
        /// Iterations until convergence.
        iterations: usize,
        /// Converged total utility.
        utility: f64,
    },
    /// LLA did not converge and constraints are persistently violated —
    /// critical paths beyond critical times and/or share sums beyond
    /// resource availability (the two symptoms of §5.4's Figure 7).
    Unschedulable {
        /// Smallest per-task mean critical-path/critical-time ratio over
        /// the assessment window.
        min_violation_ratio: f64,
        /// Largest per-task mean ratio.
        max_violation_ratio: f64,
        /// Largest per-resource mean usage/availability ratio.
        max_resource_ratio: f64,
    },
    /// The budget elapsed without convergence but also without decisive
    /// constraint violations (possibly slow convergence — §5.4 warns that
    /// dampening fluctuations alone can be mistaken for this), or the
    /// budget was zero and no round ran.
    Inconclusive {
        /// Utility oscillation amplitude over the assessment window.
        oscillation: f64,
    },
}

impl SchedulabilityVerdict {
    /// Whether the verdict is [`Schedulable`](SchedulabilityVerdict::Schedulable).
    pub fn is_schedulable(&self) -> bool {
        matches!(self, SchedulabilityVerdict::Schedulable { .. })
    }
}

/// Probes the schedulability of `problem` by running LLA and inspecting
/// convergence and critical-path ratios, per §5.4.
pub fn analyze_schedulability(
    problem: Problem,
    config: &SchedulabilityConfig,
) -> SchedulabilityVerdict {
    let mut opt_cfg = config.optimizer;
    opt_cfg.record_trace = true;
    let mut opt = Optimizer::new(problem, opt_cfg);
    let outcome = opt.run_to_convergence(config.max_iters);

    if outcome.converged {
        return SchedulabilityVerdict::Schedulable {
            iterations: outcome.iterations,
            utility: outcome.final_utility,
        };
    }

    // Average the per-task critical-path ratios and per-resource
    // usage/availability ratios over the trailing window. Depending on the
    // workload, persistent infeasibility shows up as stretched paths, as
    // over-committed resources, or both.
    let trace = opt.trace();
    if trace.is_empty() {
        return SchedulabilityVerdict::Inconclusive { oscillation: 0.0 };
    }
    let window = ASSESSMENT_WINDOW.min(trace.len());
    let records = &trace.records()[trace.len() - window..];
    let num_tasks = opt.problem().tasks().len();
    let num_resources = opt.problem().resources().len();
    let mut mean_ratio = vec![0.0f64; num_tasks];
    let mut mean_usage = vec![0.0f64; num_resources];
    for rec in records {
        for (t, &r) in rec.critical_path_ratio.iter().enumerate() {
            mean_ratio[t] += r;
        }
        for (r, &u) in rec.resource_usage.iter().enumerate() {
            mean_usage[r] += u;
        }
    }
    for m in mean_ratio.iter_mut().chain(&mut mean_usage) {
        *m /= window as f64;
    }
    let max_ratio = mean_ratio.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min_ratio = mean_ratio.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_resource_ratio = opt
        .problem()
        .resources()
        .iter()
        .map(|r| mean_usage[r.id().index()] / r.availability().max(1e-9))
        .fold(f64::NEG_INFINITY, f64::max);

    if max_ratio > VIOLATION_THRESHOLD || max_resource_ratio > VIOLATION_THRESHOLD {
        SchedulabilityVerdict::Unschedulable {
            min_violation_ratio: min_ratio,
            max_violation_ratio: max_ratio,
            max_resource_ratio,
        }
    } else {
        SchedulabilityVerdict::Inconclusive { oscillation: trace.utility_oscillation(window) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationSettings;
    use crate::ids::{ResourceId, TaskId};
    use crate::resource::{Resource, ResourceKind};
    use crate::task::TaskBuilder;

    fn problem(critical_time: f64, num_tasks: usize) -> Problem {
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
            SchedulabilityVerdict::Unschedulable {
                min_violation_ratio,
                max_violation_ratio,
                max_resource_ratio,
            } => {
                assert!(max_violation_ratio > 1.1 || max_resource_ratio > 1.1);
                assert!(min_violation_ratio <= max_violation_ratio);
            }
            other => panic!("expected unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_is_inconclusive() {
        let config = SchedulabilityConfig { max_iters: 0, ..config() };
        let verdict = analyze_schedulability(problem(7.0, 8), &config);
        assert_eq!(verdict, SchedulabilityVerdict::Inconclusive { oscillation: 0.0 });
    }

    #[test]
    fn verdict_reports_iterations_for_schedulable() {
        match analyze_schedulability(problem(80.0, 1), &config()) {
            SchedulabilityVerdict::Schedulable { iterations, utility } => {
                assert!(iterations > 0);
                assert!(utility.is_finite());
            }
            other => panic!("expected schedulable, got {other:?}"),
        }
    }
}
