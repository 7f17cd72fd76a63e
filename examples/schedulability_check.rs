//! Using LLA as a schedulability test (§5.4).
//!
//! Builds progressively heavier variants of a workload and asks
//! [`analyze_schedulability`] for a verdict. Each verdict is a proof from
//! the dual bound `D(μ, λ)`: a certified allocation (feasible, with
//! `D − U` within `1e-4·|D|`) means schedulable; `D` below `U_floor`, the
//! least utility any allocation inside the clamping box can have, means
//! unschedulable.
//!
//! Run with `cargo run --example schedulability_check`.

use lla::core::{
    analyze_schedulability, Problem, Resource, ResourceId, ResourceKind, SchedulabilityConfig,
    SchedulabilityVerdict, TaskBuilder, TaskId, UtilityFn,
};

/// `n` identical two-stage pipelines over two CPUs with the given deadline.
fn workload(n: usize, deadline: f64) -> Problem {
    let resources = vec![
        Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
        Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
    ];
    let mut tasks = Vec::new();
    for i in 0..n {
        let mut b = TaskBuilder::new(format!("pipeline{i}"));
        let a = b.subtask("stage0", ResourceId::new(0), 2.0);
        let c = b.subtask("stage1", ResourceId::new(1), 3.0);
        b.edge(a, c).expect("valid indices");
        b.critical_time(deadline).utility(UtilityFn::linear_for_deadline(2.0, deadline));
        tasks.push(b.build(TaskId::new(i)).expect("valid task"));
    }
    Problem::new(resources, tasks).expect("valid problem")
}

fn main() {
    let config = SchedulabilityConfig::default();
    println!("deadline 60ms, scaling the number of pipelines on 2 CPUs:\n");
    let mut last_schedulable = 0;
    for n in [2usize, 4, 8, 16, 32] {
        let verdict = analyze_schedulability(workload(n, 60.0), &config);
        let text = match &verdict {
            SchedulabilityVerdict::Schedulable { iterations, utility, gap } => {
                last_schedulable = n;
                format!(
                    "SCHEDULABLE   (certified in {iterations} iters, utility {utility:.1}, \
                     gap {gap:.2e})"
                )
            }
            SchedulabilityVerdict::Unschedulable { iterations, dual, utility_floor } => format!(
                "UNSCHEDULABLE (proved in {iterations} iters: D = {dual:.1} < \
                 U_floor = {utility_floor:.1})"
            ),
            SchedulabilityVerdict::Inconclusive { certificate, utility_floor, .. } => format!(
                "INCONCLUSIVE  (D = {:.1}, U = {:.1}, U_floor = {utility_floor:.1})",
                certificate.dual, certificate.utility
            ),
        };
        println!("  {n:>3} pipelines: {text}");
    }

    // Capacity math: each pipeline needs >= (2+1)/60 + (3+1)/60 of its
    // stage CPUs just to exist within the deadline; the binding stage is
    // stage1 with 4/60 per task, so ~15 tasks saturate CPU1 even before
    // accounting for the deadline split. The verdicts must bracket that.
    assert!(last_schedulable >= 4, "small counts must be schedulable");
    let verdict = analyze_schedulability(workload(32, 60.0), &config);
    assert!(
        !verdict.is_schedulable(),
        "32 pipelines on 2 CPUs with 60ms deadlines cannot be schedulable"
    );
    println!("\nverdicts bracket the capacity limit as expected");
}
