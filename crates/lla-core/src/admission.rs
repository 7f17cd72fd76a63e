//! Admission control layered on top of LLA (§3.2).
//!
//! The paper scopes admission control out but notes it "is layered on top
//! of our approach". This module provides that layer: a candidate task is
//! admitted by *probing* — solve the optimization with the candidate
//! included and admit only if LLA converges to a feasible allocation
//! (§5.4's schedulability test), optionally also requiring that the
//! incumbent tasks' total utility not degrade by more than a configured
//! fraction.

use crate::error::ModelError;
use crate::optimizer::Optimizer;
use crate::problem::{MembershipReport, Problem};
use crate::schedulability::{analyze_schedulability, SchedulabilityConfig, SchedulabilityVerdict};
use crate::task::TaskBuilder;

/// Policy for [`probe_admission`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdmissionConfig {
    /// The schedulability probe configuration.
    pub schedulability: SchedulabilityConfig,
    /// Maximum tolerated relative drop of the incumbents' utility
    /// (`0.2` = the already-admitted tasks may lose up to 20% of their
    /// current total utility). `None` admits on schedulability alone.
    pub max_incumbent_degradation: Option<f64>,
}

/// The outcome of an admission probe.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionDecision {
    /// The candidate fits: the expanded problem is returned ready to run,
    /// along with the utilities before and after.
    Admit {
        /// The problem including the admitted task (dense ids preserved).
        problem: Problem,
        /// Incumbents' utility before admission (at their converged
        /// allocation).
        incumbent_utility_before: f64,
        /// Incumbents' utility after admission (candidate excluded).
        incumbent_utility_after: f64,
        /// Total utility after admission (candidate included).
        total_utility: f64,
        /// How dense indices moved (nothing did — incumbents keep their
        /// ids; the candidate's id is in
        /// [`MembershipReport::added_task`]). Feed this to
        /// [`PriceState::remap`](crate::PriceState::remap) to splice the
        /// newcomer into a running optimizer warm.
        remap: MembershipReport,
    },
    /// The expanded system is unschedulable (or could not be shown
    /// schedulable within the probe budget).
    RejectUnschedulable {
        /// The probe's verdict.
        verdict: SchedulabilityVerdict,
    },
    /// Schedulable, but the incumbents would lose more utility than the
    /// policy tolerates.
    RejectDegradation {
        /// Incumbents' utility before admission.
        before: f64,
        /// Incumbents' utility with the candidate admitted.
        after: f64,
    },
}

impl AdmissionDecision {
    /// Whether the candidate was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admit { .. })
    }
}

/// Probes whether `candidate` can join `problem` without breaking it.
///
/// The candidate keeps its builder form because its
/// [`TaskId`](crate::TaskId) is assigned here (dense, one past the
/// incumbents).
///
/// # Errors
///
/// Propagates [`ModelError`]s from building the candidate (invalid graph
/// or parameters, unknown resources).
pub fn probe_admission(
    problem: &Problem,
    candidate: &TaskBuilder,
    config: &AdmissionConfig,
) -> Result<AdmissionDecision, ModelError> {
    let mut expanded = problem.clone();
    let remap = expanded.add_task(candidate)?;

    // Schedulability probe on the expanded system.
    let verdict = analyze_schedulability(expanded.clone(), &config.schedulability);
    if !verdict.is_schedulable() {
        return Ok(AdmissionDecision::RejectUnschedulable { verdict });
    }

    // Converged utilities before and after for the degradation policy.
    let mut before_opt = Optimizer::new(problem.clone(), config.schedulability.optimizer);
    before_opt.run_to_convergence(config.schedulability.max_iters);
    let before = before_opt.utility();

    let mut after_opt = Optimizer::new(expanded.clone(), config.schedulability.optimizer);
    after_opt.run_to_convergence(config.schedulability.max_iters);
    let alloc = after_opt.allocation();
    let incumbent_after: f64 = problem
        .tasks()
        .iter()
        .map(|t| expanded.tasks()[t.id().index()].utility(&alloc.lats()[t.id().index()]))
        .sum();
    let total = after_opt.utility();

    if let Some(max_drop) = config.max_incumbent_degradation {
        let drop = (before - incumbent_after) / before.abs().max(1.0);
        if drop > max_drop {
            return Ok(AdmissionDecision::RejectDegradation { before, after: incumbent_after });
        }
    }

    Ok(AdmissionDecision::Admit {
        problem: expanded,
        incumbent_utility_before: before,
        incumbent_utility_after: incumbent_after,
        total_utility: total,
        remap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ResourceId, TaskId};
    use crate::optimizer::OptimizerConfig;
    use crate::prices::StepSizePolicy;
    use crate::resource::{Resource, ResourceKind};
    use crate::utility::UtilityFn;

    fn base_problem(n_tasks: usize) -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut tasks = Vec::new();
        for i in 0..n_tasks {
            let mut b = TaskBuilder::new(format!("t{i}"));
            let a = b.subtask("a", ResourceId::new(0), 2.0);
            let c = b.subtask("b", ResourceId::new(1), 3.0);
            b.edge(a, c).unwrap();
            b.critical_time(60.0).utility(UtilityFn::linear_for_deadline(2.0, 60.0));
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        Problem::new(resources, tasks).unwrap()
    }

    fn candidate(critical_time: f64, wcet: f64) -> TaskBuilder {
        let mut b = TaskBuilder::new("candidate");
        let a = b.subtask("a", ResourceId::new(0), wcet);
        let c = b.subtask("b", ResourceId::new(1), wcet);
        b.edge(a, c).unwrap();
        b.critical_time(critical_time).utility(UtilityFn::linear_for_deadline(2.0, critical_time));
        b
    }

    fn config() -> AdmissionConfig {
        AdmissionConfig {
            schedulability: SchedulabilityConfig {
                optimizer: OptimizerConfig {
                    step_policy: StepSizePolicy::sign_adaptive(1.0),
                    ..OptimizerConfig::default()
                },
                max_iters: 5_000,
            },
            max_incumbent_degradation: None,
        }
    }

    #[test]
    fn light_candidate_is_admitted() {
        let problem = base_problem(2);
        let decision = probe_admission(&problem, &candidate(60.0, 2.0), &config()).unwrap();
        match decision {
            AdmissionDecision::Admit { problem, total_utility, .. } => {
                assert_eq!(problem.tasks().len(), 3);
                assert!(total_utility.is_finite());
            }
            other => panic!("expected admit, got {other:?}"),
        }
    }

    #[test]
    fn impossible_candidate_is_rejected() {
        // WCET 20ms with a 25ms two-stage deadline on congested CPUs.
        let problem = base_problem(6);
        let decision = probe_admission(&problem, &candidate(25.0, 20.0), &config()).unwrap();
        assert!(
            matches!(decision, AdmissionDecision::RejectUnschedulable { .. }),
            "expected rejection, got {decision:?}"
        );
    }

    #[test]
    fn degradation_policy_rejects_greedy_candidate() {
        let problem = base_problem(2);
        // A heavy but schedulable candidate that squeezes the incumbents.
        let greedy = candidate(60.0, 8.0);
        let lenient = probe_admission(&problem, &greedy, &config()).unwrap();
        assert!(lenient.is_admitted(), "schedulable candidate should pass without policy");

        let strict = AdmissionConfig { max_incumbent_degradation: Some(0.02), ..config() };
        let decision = probe_admission(&problem, &greedy, &strict).unwrap();
        assert!(
            matches!(decision, AdmissionDecision::RejectDegradation { .. }),
            "2% degradation budget should reject: {decision:?}"
        );
    }

    #[test]
    fn admitted_problem_is_runnable() {
        let problem = base_problem(1);
        let decision = probe_admission(&problem, &candidate(60.0, 3.0), &config()).unwrap();
        let AdmissionDecision::Admit { problem, .. } = decision else {
            panic!("expected admit");
        };
        let mut opt = Optimizer::new(problem, config().schedulability.optimizer);
        assert!(opt.run_to_convergence(5_000).converged);
    }

    #[test]
    fn admit_reports_identity_remap_with_new_id() {
        let problem = base_problem(2);
        let decision = probe_admission(&problem, &candidate(60.0, 2.0), &config()).unwrap();
        let AdmissionDecision::Admit { remap, .. } = decision else {
            panic!("expected admit");
        };
        assert_eq!(remap.added_task, Some(TaskId::new(2)));
        assert_eq!(remap.task_map, vec![Some(0), Some(1)], "incumbents keep their ids");
        assert!(remap.resource_map.iter().enumerate().all(|(i, m)| *m == Some(i)));
    }

    #[test]
    fn admit_then_evict_is_bit_identical_to_never_admitting() {
        // Regression: splicing a task in via the admission remap and then
        // removing it again must leave the incumbents' problem — and the
        // allocation a fresh solve produces — exactly as if the candidate
        // had never existed.
        let problem = base_problem(2);
        let mut baseline = Optimizer::new(problem.clone(), config().schedulability.optimizer);
        baseline.run(400);

        let decision = probe_admission(&problem, &candidate(60.0, 2.0), &config()).unwrap();
        let AdmissionDecision::Admit { problem: expanded, remap, .. } = decision else {
            panic!("expected admit");
        };
        let mut churned = expanded;
        churned.remove_task(remap.added_task.unwrap()).unwrap();
        assert_eq!(churned, problem, "admit+evict must round-trip the problem exactly");

        let mut after = Optimizer::new(churned, config().schedulability.optimizer);
        after.run(400);
        assert_eq!(
            baseline.allocation().lats(),
            after.allocation().lats(),
            "incumbent allocations must be bit-identical"
        );
    }

    #[test]
    fn invalid_candidate_propagates_model_error() {
        let problem = base_problem(1);
        let mut b = TaskBuilder::new("broken");
        b.subtask("a", ResourceId::new(9), 1.0); // unknown resource
        b.critical_time(10.0);
        assert!(probe_admission(&problem, &b, &config()).is_err());
    }
}
