//! Admission control layered on top of LLA (§3.2's "admission control is
//! layered on top of our approach").
//!
//! The ward system from `examples/workloads/patient_monitoring.lla` is
//! running; new monitoring tasks arrive one by one. Each is *probed*:
//! admitted only if the expanded system remains schedulable and the
//! already-admitted tasks lose at most 25% of their utility.
//!
//! Run with `cargo run --example admission_control`.

use lla::core::{
    probe_admission, AdmissionConfig, AdmissionDecision, Optimizer, OptimizerConfig, ResourceId,
    SchedulabilityConfig, StepSizePolicy, TaskBuilder, TriggerSpec, UtilityFn,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string("examples/workloads/patient_monitoring.lla")?;
    let mut problem = lla::spec::parse(&text)?;
    println!(
        "starting system: {} tasks on {} resources",
        problem.tasks().len(),
        problem.resources().len()
    );

    let admission = AdmissionConfig {
        schedulability: SchedulabilityConfig {
            optimizer: OptimizerConfig {
                step_policy: StepSizePolicy::sign_adaptive(1.0),
                ..OptimizerConfig::default()
            },
            max_iters: 8_000,
        },
        max_incumbent_degradation: Some(0.25),
    };

    // A stream of new bedside monitors wanting in.
    let candidate = |i: usize| {
        let mut b = TaskBuilder::new(format!("monitor{i}"));
        let sample = b.subtask("sample", ResourceId::new(0), 6.0);
        let classify = b.subtask("classify", ResourceId::new(1), 8.0);
        b.edge(sample, classify).expect("valid indices");
        b.critical_time(250.0)
            .utility(UtilityFn::linear_for_deadline(1.5, 250.0))
            .trigger(TriggerSpec::Periodic { period: 60.0 });
        b
    };

    let mut admitted = 0usize;
    for i in 0..10 {
        match probe_admission(&problem, &candidate(i), &admission)? {
            AdmissionDecision::Admit {
                problem: expanded,
                incumbent_utility_before,
                incumbent_utility_after,
                total_utility,
                ..
            } => {
                println!(
                    "monitor{i}: ADMIT   (incumbents {incumbent_utility_before:.1} -> \
                     {incumbent_utility_after:.1}, total {total_utility:.1})"
                );
                problem = expanded;
                admitted += 1;
            }
            AdmissionDecision::RejectUnschedulable { verdict } => {
                println!("monitor{i}: REJECT  unschedulable ({verdict:?})");
                break;
            }
            AdmissionDecision::RejectDegradation { before, after } => {
                println!(
                    "monitor{i}: REJECT  incumbents would drop {before:.1} -> {after:.1} \
                     (more than the 25% budget)"
                );
                break;
            }
        }
    }

    println!(
        "\nadmitted {admitted} extra monitors; final system has {} tasks",
        problem.tasks().len()
    );
    let mut opt = Optimizer::new(problem, admission.schedulability.optimizer);
    let outcome = opt.run_to_convergence(10_000);
    println!(
        "final run: converged={} utility={:.1} feasible={}",
        outcome.converged, outcome.final_utility, outcome.feasible
    );
    assert!(admitted >= 1, "the ward should have room for at least one more monitor");
    assert!(outcome.converged);
    Ok(())
}
