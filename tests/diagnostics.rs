//! Integration tests for the online convergence-diagnostics engine: the
//! four canonical run shapes — feasible/converging (the Figure 6
//! scenarios), overloaded/diverging (Figure 7), step-size thrash, and a
//! partition-induced stall — must classify correctly from nothing but
//! the [`DiagSample`](lla::telemetry::DiagSample) stream.

use lla::core::{
    Optimizer, OptimizerConfig, PriceMethod, Problem, Resource, ResourceId, ResourceKind,
    StepSizePolicy, TaskBuilder, TaskId,
};
use lla::dist::{Address, DistConfig, DistributedLla, FaultPlan, RobustnessConfig};
use lla::telemetry::{Diagnosis, DiagnosticsEngine, Verdict, DIVERGENCE_FACTOR};
use lla::workloads::scaled_workload;

/// Steps `problem` by the paper's gradient method under `policy` for up
/// to `iters` iterations through [`DiagnosticsEngine::diagnose_run`] (the
/// path `lla telemetry --diagnose` takes) and returns its diagnosis.
fn diagnose_run(problem: Problem, policy: StepSizePolicy, iters: usize) -> Diagnosis {
    let names: Vec<String> = problem.resources().iter().map(|r| r.name().to_string()).collect();
    let config = OptimizerConfig {
        price_method: PriceMethod::Gradient,
        step_policy: policy,
        ..Default::default()
    };
    let mut opt = Optimizer::new(problem, config);
    DiagnosticsEngine::new().with_resource_names(names).diagnose_run(iters, || {
        opt.step();
        (opt.diag_sample(), opt.has_converged())
    })
}

/// Scenario 1 — feasible workloads converge and the classifier says so.
/// These are exactly the Figure 6 scaling points (3, 6, and 12 tasks
/// with deadlines scaled to stay schedulable).
#[test]
fn fig6_scenarios_classify_as_converging() {
    for replication in [1, 2, 4] {
        let problem = scaled_workload(replication, true);
        let tasks = problem.tasks().len();
        let d = diagnose_run(problem, StepSizePolicy::sign_adaptive(1.0), 4_000);
        assert_eq!(d.verdict, Verdict::Converging, "fig6 point with {tasks} tasks: {}", d.render());
        assert!(d.confident, "fig6 point with {tasks} tasks ran long enough to be confident");
        assert_eq!(d.frozen_fraction, 0.0);
        assert!(
            d.violation_factor < DIVERGENCE_FACTOR,
            "converged point must be (near-)feasible: {}",
            d.render()
        );
    }
}

/// Scenario 2 — the Figure 7 regime: the 6-task workload *without*
/// deadline scaling is unschedulable, and the paper's point is that
/// sustained non-convergence IS the schedulability verdict. The engine
/// must name it `diverging`, not merely "not converged".
#[test]
fn overloaded_fig7_scenario_classifies_as_diverging() {
    let problem = scaled_workload(2, false);
    let d = diagnose_run(problem, StepSizePolicy::adaptive(1.0), 600);
    assert_eq!(d.verdict, Verdict::Diverging, "{}", d.render());
    assert!(d.confident);
    assert!(
        d.violation_factor >= DIVERGENCE_FACTOR,
        "diverging needs a sustained violation: {}",
        d.render()
    );
    // The evidence rows name the resources, noisiest price loop first.
    assert!(!d.evidence.is_empty());
    assert!(d.evidence[0].mean_price.is_finite());
}

/// Scenario 3 — step-size thrash: an aggressive adaptive γ on a tight
/// workload keeps straddling the congestion boundary, doubling and
/// resetting every few iterations while the utility rings. The verdict
/// must be `gamma-thrash`, which tells the operator to lower the
/// initial step size — distinct from plain `oscillating`, which would
/// point at a *fixed* γ chosen too large.
#[test]
fn aggressive_adaptive_step_classifies_as_gamma_thrash() {
    let problem = scaled_workload(2, true);
    let policy = StepSizePolicy::Adaptive { initial: 8.0, factor: 2.0, max: 512.0 };
    let d = diagnose_run(problem, policy, 600);
    assert_eq!(d.verdict, Verdict::GammaThrash, "{}", d.render());
    assert!(d.confident);
    assert!(d.gamma_doubling_density >= lla::telemetry::GAMMA_THRASH_DENSITY);
}

/// Two tasks over two CPUs, comfortably schedulable — the deployment
/// used for the partition-stall scenario.
fn small_problem() -> Problem {
    let resources = vec![
        Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
        Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
    ];
    let mut tasks = Vec::new();
    for (i, c) in [(0usize, 40.0), (1usize, 60.0)] {
        let mut b = TaskBuilder::new(format!("t{i}"));
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let d = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, d).unwrap();
        b.critical_time(c);
        tasks.push(b.build(TaskId::new(i)).unwrap());
    }
    Problem::new(resources, tasks).unwrap()
}

/// Scenario 4 — partition-induced stall: with a staleness TTL armed, a
/// full controller↔resource partition freezes every agent onto its
/// last-known-good state. Samples taken during the partition must
/// classify as `stalled` with the frozen-agent evidence to match.
#[test]
fn partition_stall_classifies_as_stalled() {
    let mut dist = DistributedLla::new(
        small_problem(),
        DistConfig {
            robustness: RobustnessConfig { staleness_ttl: 30.0, ..Default::default() },
            ..DistConfig::default()
        },
    );
    // Partition everything from round 500 for 100 rounds.
    let plan = FaultPlan::new().partition(
        5_000.0,
        1_000.0,
        [Address::Controller(0), Address::Controller(1)],
        [Address::Resource(0), Address::Resource(1)],
    );
    dist.schedule_faults(&plan);

    let names: Vec<String> =
        dist.problem().resources().iter().map(|r| r.name().to_string()).collect();
    let mut engine = DiagnosticsEngine::new().with_resource_names(names);

    // Converge well before the partition and take a clean window there.
    dist.run_rounds(460);
    let healthy_before = {
        let mut warm = DiagnosticsEngine::new();
        for _ in 0..16 {
            dist.run_rounds(1);
            warm.push(dist.diag_sample());
        }
        warm.diagnose()
    };
    // Advance into the partition (it starts at round 500; the staleness
    // TTL expires three rounds later), then sample through its heart.
    dist.run_rounds(30);
    for _ in 0..40 {
        dist.run_rounds(1);
        engine.push(dist.diag_sample());
    }
    let d = engine.diagnose();
    assert_eq!(d.verdict, Verdict::Stalled, "{}", d.render());
    assert!(d.confident);
    assert!(
        d.frozen_fraction >= lla::telemetry::STALL_FROZEN_FRACTION,
        "stall must be evidenced by frozen agents: {}",
        d.render()
    );
    // Contrast: the same deployment read as converging before the TTL
    // expired (the partition starts at round 500, TTL expires 3 rounds
    // later — the pre-partition window is clean).
    assert_eq!(healthy_before.verdict, Verdict::Converging, "{}", healthy_before.render());
}
