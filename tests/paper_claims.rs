//! End-to-end assertions of the paper's headline evaluation claims, one
//! per table/figure (fast variants of the `lla-bench` experiments).

use lla::core::{
    analyze_schedulability, Aggregation, Optimizer, OptimizerConfig, PriceMethod,
    SchedulabilityConfig, SchedulabilityVerdict, StepSizePolicy,
};
use lla::sim::{ClosedLoop, ClosedLoopConfig, SimConfig};
use lla::workloads::{
    base_workload, base_workload_with, prototype_workload, scaled_workload, PrototypeParams,
};
use lla_bench::run_fig7;

/// The paper's gradient method under `policy`.
fn paper_config(policy: StepSizePolicy) -> OptimizerConfig {
    OptimizerConfig {
        price_method: PriceMethod::Gradient,
        step_policy: policy,
        ..OptimizerConfig::default()
    }
}

/// Table 1: LLA converges on the base workload with every critical path
/// within 1% of its critical time and all resources near congestion.
#[test]
fn table1_critical_paths_and_congestion() {
    let mut opt = Optimizer::new(base_workload(), paper_config(StepSizePolicy::adaptive(1.0)));
    let outcome = opt.run_to_convergence(3_000);
    assert!(outcome.converged, "base workload must converge: {outcome:?}");

    let alloc = opt.allocation();
    for task in opt.problem().tasks() {
        let cp = alloc.task_latency(task);
        let c = task.critical_time();
        assert!(cp <= c * 1.001, "{}: critical path {cp} exceeds {c}", task.name());
        assert!(cp >= c * 0.99, "{}: critical path {cp} more than 1% below {c}", task.name());
    }
    for r in opt.problem().resources() {
        let usage = opt.problem().resource_usage(r.id(), alloc.lats());
        assert!(usage > 0.95, "resource {} not near congestion: {usage}", r.id());
        assert!(usage <= 1.0 + 1e-3, "resource {} overloaded: {usage}", r.id());
    }
}

/// §5.2: the *sum* aggregation variant converges just like path-weighted
/// (the paper reports no difference in convergence properties).
#[test]
fn sum_variant_converges_like_path_weighted() {
    for aggregation in [Aggregation::Sum, Aggregation::PathWeighted] {
        let mut opt = Optimizer::new(
            base_workload_with(aggregation, 2.0),
            paper_config(StepSizePolicy::sign_adaptive(1.0)),
        );
        let outcome = opt.run_to_convergence(3_000);
        assert!(outcome.converged, "{aggregation:?} must converge");
        assert!(outcome.feasible);
    }
}

/// Figure 5: γ = 10 oscillates with much larger amplitude than γ = 1; the
/// adaptive policy converges while the fixed ones have not.
#[test]
fn fig5_step_size_behaviour() {
    let mut oscillations = Vec::new();
    for gamma in [1.0, 10.0] {
        let mut opt = Optimizer::new(base_workload(), paper_config(StepSizePolicy::fixed(gamma)));
        opt.run(800);
        oscillations.push(opt.trace().utility_oscillation(200));
    }
    assert!(
        oscillations[1] > 10.0 * oscillations[0].max(0.01),
        "gamma=10 must oscillate much harder than gamma=1: {oscillations:?}"
    );

    let mut adaptive = Optimizer::new(base_workload(), paper_config(StepSizePolicy::adaptive(1.0)));
    let outcome = adaptive.run_to_convergence(800);
    assert!(outcome.converged, "adaptive must converge within 800 iterations");
}

/// Figure 6: scaled workloads converge and utility grows linearly with
/// the number of tasks (per task-and-deadline-scale utility constant).
#[test]
fn fig6_linear_utility_scaling() {
    let mut normalized = Vec::new();
    for replication in [1usize, 2, 4] {
        let mut opt = Optimizer::new(
            scaled_workload(replication, true),
            paper_config(StepSizePolicy::sign_adaptive(1.0)),
        );
        let outcome = opt.run_to_convergence(8_000);
        assert!(outcome.converged, "replication {replication} must converge");
        normalized.push(outcome.final_utility / (3.0 * replication as f64 * replication as f64));
    }
    let spread = normalized.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - normalized.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread < 0.5,
        "normalized utilities must be near-equal (linear growth): {normalized:?}"
    );
}

/// Figure 7 / §5.4: the unscaled 6-task workload is proved unschedulable
/// by weak duality (its dual bound falls below the least utility any
/// allocation in the clamping box can have), and the paper's symptom
/// shows: share sums far above capacity.
#[test]
fn fig7_unschedulable_detection() {
    let gradient = SchedulabilityConfig {
        optimizer: paper_config(StepSizePolicy::adaptive(1.0)),
        ..SchedulabilityConfig::default()
    };
    let verdict = analyze_schedulability(scaled_workload(2, false), &gradient);
    match verdict {
        SchedulabilityVerdict::Unschedulable { dual, utility_floor, .. } => {
            assert!(dual < utility_floor, "the proof is D < U_floor: {dual} vs {utility_floor}");
        }
        other => panic!("expected unschedulable, got {other:?}"),
    }
    let max_resource_ratio =
        run_fig7(300).resource_ratios.into_iter().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max_resource_ratio > 1.5,
        "resource overload should be pronounced: {max_resource_ratio}"
    );

    // And the schedulable counterpart is certified (with a budget that
    // covers the 6-task workload's convergence).
    let schedulable_config = SchedulabilityConfig {
        optimizer: paper_config(StepSizePolicy::sign_adaptive(1.0)),
        max_iters: 5_000,
    };
    let verdict = analyze_schedulability(scaled_workload(2, true), &schedulable_config);
    assert!(verdict.is_schedulable(), "scaled critical times must be schedulable: {verdict:?}");
}

/// §5.4's caveat: slow convergence can look like neither verdict. Under
/// the paper's gradient probe (adaptive γ, 2000 rounds) Figure 7's
/// schedulable twin parks on a feasible allocation with utility near
/// −528, against a certified optimum of −446.6 (`sign_adaptive(1.0)`
/// reaches it in 373 rounds). The gap stays open and the dual bound
/// stays far above the floor, so neither proof arrives and the verdict
/// is `Inconclusive`. (The default market-clearing probe certifies the
/// twin; `tests/clearing.rs` checks it.)
#[test]
fn fig7_slow_schedulable_twin_is_inconclusive() {
    let gradient = SchedulabilityConfig {
        optimizer: paper_config(StepSizePolicy::adaptive(1.0)),
        ..SchedulabilityConfig::default()
    };
    let verdict = analyze_schedulability(scaled_workload(2, true), &gradient);
    match verdict {
        SchedulabilityVerdict::Inconclusive { iterations, certificate, utility_floor } => {
            assert_eq!(iterations, 2_000);
            assert!(certificate.viol <= 1e-3, "the twin is feasible: {certificate:?}");
            assert!(certificate.gap > 1e-4 * certificate.dual.abs(), "{certificate:?}");
            assert!(certificate.dual > utility_floor, "{certificate:?} vs {utility_floor}");
        }
        other => panic!("expected inconclusive, got {other:?}"),
    }
}

/// Figure 8: error correction moves the fast tasks to their minimum
/// sustainable share (0.2) and hands the surplus to the slow tasks (0.25).
#[test]
fn fig8_error_correction_share_migration() {
    let params = PrototypeParams::default();
    let mut cl = ClosedLoop::new(
        prototype_workload(&params),
        paper_config(StepSizePolicy::sign_adaptive(1.0)),
        SimConfig::default(),
        ClosedLoopConfig { window: 5_000.0, correction_enabled: false, ..Default::default() },
    );
    cl.run_windows(2);
    let before = cl.history().last().unwrap().clone();
    cl.set_correction_enabled(true);
    cl.run_windows(14);
    let after = cl.history().last().unwrap();

    // Pre-correction: worst-case model allocation (ours: 0.286/0.164;
    // paper: 0.26/0.19 — model lag handling differs slightly).
    assert!(before.shares[0][0] > 0.25, "fast pre-correction share too low");
    assert!(before.shares[2][0] < 0.20, "slow pre-correction share too high");

    // Post-correction: the paper's converged state, exactly.
    assert!(
        (after.shares[0][0] - params.fast_min_share()).abs() < 0.01,
        "fast share must reach the 0.2 floor: {}",
        after.shares[0][0]
    );
    assert!(
        (after.shares[2][0] - 0.25).abs() < 0.01,
        "slow share must reach 0.25: {}",
        after.shares[2][0]
    );
    // No deadline misses at any point.
    for rec in cl.history() {
        for &m in &rec.miss_rate {
            assert!(m < 0.01, "deadline misses appeared: {:?}", rec.miss_rate);
        }
    }
}

/// §6.4: the optimizer's per-iteration cost is far below the 100ms-scale
/// periods it manages (the paper reports <1% computation overhead).
#[test]
fn optimizer_iteration_is_cheap() {
    let mut opt = Optimizer::new(base_workload(), paper_config(StepSizePolicy::adaptive(1.0)));
    let start = std::time::Instant::now();
    opt.run(1_000);
    let per_iter = start.elapsed().as_secs_f64() / 1_000.0;
    // Debug builds are slow; 1ms/iteration is still <1% of a 100ms period
    // at the paper's once-a-minute re-optimization cadence.
    assert!(per_iter < 1e-3, "iteration took {per_iter}s");
}
