//! Integration tests for the layers built around the core algorithm:
//! deadline-slicing baselines, the workload-spec format, and admission
//! control.

use lla::baselines::{all_baselines, evaluate};
use lla::core::{
    probe_admission, AdmissionConfig, AdmissionDecision, Optimizer, OptimizerConfig, ResourceId,
    SchedulabilityConfig, StepSizePolicy, TaskBuilder, UtilityFn,
};
use lla::workloads::{base_workload, RandomWorkloadConfig};

fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        ..OptimizerConfig::default()
    }
}

/// LLA's converged utility dominates every baseline that happens to be
/// feasible, across random workloads.
#[test]
fn lla_dominates_feasible_baselines() {
    let mut feasible_baselines_seen = 0;
    for seed in 0..15u64 {
        let cfg = RandomWorkloadConfig { seed, target_load: 0.7, ..Default::default() };
        let problem = cfg.generate().unwrap();
        let mut opt = Optimizer::new(problem.clone(), opt_config());
        let outcome = opt.run_to_convergence(15_000);
        assert!(outcome.converged, "seed {seed} did not converge");
        let lla_utility = opt.utility();

        for baseline in all_baselines() {
            let report = evaluate(&problem, baseline.as_ref());
            if report.feasible {
                feasible_baselines_seen += 1;
                assert!(
                    lla_utility >= report.utility - 1e-6,
                    "seed {seed}: {} beat LLA ({} > {lla_utility})",
                    report.name,
                    report.utility
                );
            }
        }
    }
    assert!(
        feasible_baselines_seen > 0,
        "the comparison needs at least some feasible baseline runs"
    );
}

/// On the paper's congested base workload, no slicing baseline is
/// feasible while LLA converges feasibly — the §7 positioning, asserted.
#[test]
fn baselines_fail_where_lla_succeeds() {
    let problem = base_workload();
    for baseline in all_baselines() {
        let report = evaluate(&problem, baseline.as_ref());
        assert!(
            !report.feasible,
            "{} unexpectedly feasible on the congested base workload",
            report.name
        );
        assert!(report.max_resource_violation > 0.1);
    }
    let mut opt = Optimizer::new(problem, opt_config());
    let outcome = opt.run_to_convergence(5_000);
    assert!(outcome.converged && outcome.feasible);
}

/// The shipped example spec files parse, round-trip, and optimize.
#[test]
fn shipped_spec_files_work() {
    for name in ["trading", "patient_monitoring"] {
        let path = format!("examples/workloads/{name}.lla");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let problem = lla::spec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        // Round-trip.
        let again = lla::spec::parse(&lla::spec::write(&problem)).expect("round-trip");
        assert_eq!(again.num_subtasks(), problem.num_subtasks());
        // And the workload is actually schedulable.
        let mut opt = Optimizer::new(problem, opt_config());
        let outcome = opt.run_to_convergence(15_000);
        assert!(outcome.converged, "{path} must be schedulable: {outcome:?}");
    }
}

/// Spec round-trips preserve optimization behaviour on random workloads:
/// the re-parsed problem converges to the same utility.
#[test]
fn spec_roundtrip_preserves_optimization() {
    for seed in 0..8u64 {
        let problem = RandomWorkloadConfig { seed, ..Default::default() }.generate().unwrap();
        let reparsed = lla::spec::parse(&lla::spec::write(&problem)).expect("round-trip");

        let mut a = Optimizer::new(problem, opt_config());
        let mut b = Optimizer::new(reparsed, opt_config());
        a.run(400);
        b.run(400);
        assert!(
            (a.utility() - b.utility()).abs() < 1e-9,
            "seed {seed}: utilities diverged after round-trip: {} vs {}",
            a.utility(),
            b.utility()
        );
    }
}

/// Admission control fills the system until the probe starts rejecting,
/// and the last admitted configuration still converges.
#[test]
fn admission_fills_until_capacity() {
    let mut problem = base_workload();
    let admission = AdmissionConfig {
        schedulability: SchedulabilityConfig { optimizer: opt_config(), max_iters: 8_000 },
        max_incumbent_degradation: None,
    };

    let candidate = || {
        let mut b = TaskBuilder::new("extra");
        let a = b.subtask("a", ResourceId::new(3), 2.0);
        let c = b.subtask("b", ResourceId::new(7), 2.0);
        b.edge(a, c).unwrap();
        b.critical_time(70.0).utility(UtilityFn::linear_for_deadline(2.0, 70.0));
        b
    };

    let mut admitted = 0;
    for _ in 0..12 {
        match probe_admission(&problem, &candidate(), &admission).unwrap() {
            AdmissionDecision::Admit { problem: expanded, .. } => {
                problem = expanded;
                admitted += 1;
            }
            AdmissionDecision::RejectUnschedulable { .. }
            | AdmissionDecision::RejectDegradation { .. } => break,
        }
    }
    assert!(admitted >= 1, "at least one extra task should fit");
    assert!(admitted < 12, "capacity must eventually reject");

    let mut opt = Optimizer::new(problem, opt_config());
    let outcome = opt.run_to_convergence(10_000);
    assert!(outcome.converged, "system after admissions must still converge: {outcome:?}");
}
