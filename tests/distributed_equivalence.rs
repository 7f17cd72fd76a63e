//! Distributed-vs-centralized integration tests: the message-passing
//! deployments must match the centralized optimizer exactly under a
//! perfect synchronous network (the gradient protocol round for round,
//! market clearing one round late), and degrade gracefully (not
//! catastrophically) under loss, jitter, and delay.

use lla::core::{
    AllocationSettings, Optimizer, OptimizerConfig, PriceMethod, Problem, Resource, ResourceId,
    ResourceKind, StepSizePolicy, TaskBuilder, TaskId, UtilityFn,
};
use lla::dist::{DistConfig, DistributedLla, NetworkModel};
use lla::workloads::{base_workload, RandomWorkloadConfig};

fn settings() -> AllocationSettings {
    AllocationSettings::default()
}

fn centralized_reference(rounds: usize) -> Vec<f64> {
    let mut opt = Optimizer::new(
        base_workload(),
        OptimizerConfig {
            price_method: PriceMethod::Gradient,
            step_policy: StepSizePolicy::adaptive(1.0),
            allocation: settings(),
            ..OptimizerConfig::default()
        },
    );
    opt.run(rounds).into_iter().map(|r| r.utility).collect()
}

#[test]
fn virtual_runtime_matches_centralized_on_base_workload() {
    let rounds = 600;
    let mut dist = DistributedLla::new(
        base_workload(),
        DistConfig {
            price_method: PriceMethod::Gradient,
            step_policy: StepSizePolicy::adaptive(1.0),
            allocation: settings(),
            ..DistConfig::default()
        },
    );
    dist.run_rounds(rounds);
    let reference = centralized_reference(rounds);
    for (round, (d, c)) in dist.utilities().iter().zip(&reference).enumerate() {
        assert!(
            (d - c).abs() < 1e-9,
            "divergence at round {round}: distributed {d} vs centralized {c}"
        );
    }
}

#[test]
fn virtual_runtime_matches_centralized_on_random_workloads() {
    for seed in [1u64, 7, 42] {
        let cfg = RandomWorkloadConfig { seed, num_tasks: 3, ..Default::default() };
        let rounds = 300;

        let mut dist = DistributedLla::new(
            cfg.generate().unwrap(),
            DistConfig {
                price_method: PriceMethod::Gradient,
                step_policy: StepSizePolicy::adaptive(1.0),
                allocation: settings(),
                ..DistConfig::default()
            },
        );
        dist.run_rounds(rounds);

        let mut opt = Optimizer::new(
            cfg.generate().unwrap(),
            OptimizerConfig {
                price_method: PriceMethod::Gradient,
                step_policy: StepSizePolicy::adaptive(1.0),
                allocation: settings(),
                ..OptimizerConfig::default()
            },
        );
        opt.run(rounds);
        assert!(
            (dist.utility() - opt.utility()).abs() < 1e-9,
            "seed {seed}: distributed {} vs centralized {}",
            dist.utility(),
            opt.utility()
        );
    }
}

#[test]
fn heavy_loss_degrades_gracefully() {
    // 30% loss with the sign-adaptive policy: the system still lands on
    // the centralized optimum and stays feasible. (The paper's
    // congestion-only heuristic parks ~20% short under the same loss —
    // see the step-policy ablation in EXPERIMENTS.md.)
    let mut reference = Optimizer::new(
        base_workload(),
        OptimizerConfig {
            price_method: PriceMethod::Gradient,
            step_policy: StepSizePolicy::sign_adaptive(1.0),
            allocation: settings(),
            ..OptimizerConfig::default()
        },
    );
    reference.run_to_convergence(5_000);

    let mut dist = DistributedLla::new(
        base_workload(),
        DistConfig {
            price_method: PriceMethod::Gradient,
            step_policy: StepSizePolicy::sign_adaptive(1.0),
            allocation: settings(),
            network: NetworkModel::lossy(0.5, 1.0, 0.3),
            seed: 17,
            ..DistConfig::default()
        },
    );
    dist.run_rounds(4_000);
    assert!(dist.messages_dropped() > 1_000, "loss must actually occur");

    let gap = (dist.utility() - reference.utility()).abs() / reference.utility().abs().max(1.0);
    assert!(gap < 0.02, "30% loss should still reach the optimum: gap {gap}");
    assert!(
        dist.problem().is_feasible(dist.allocation().lats(), 2e-2),
        "allocation under loss must be (near) feasible"
    );
}

#[test]
fn cross_round_delay_still_converges() {
    // Delays exceeding a round: every agent works with stale state.
    let mut dist = DistributedLla::new(
        base_workload(),
        DistConfig {
            price_method: PriceMethod::Gradient,
            step_policy: StepSizePolicy::adaptive(1.0),
            allocation: settings(),
            network: NetworkModel::lossy(15.0, 10.0, 0.0),
            seed: 23,
            round_length: 10.0,
            tick_jitter: 0.0,
            ..DistConfig::default()
        },
    );
    dist.run_rounds(4_000);
    assert!(
        dist.problem().is_feasible(dist.allocation().lats(), 2e-2),
        "stale-price operation must still reach (near) feasibility"
    );
}

/// Whether `a` and `b` agree to 1e-12 relative.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// The workloads of the exactness cases: the paper's base workload and
/// three random ones.
fn exactness_workloads() -> Vec<(String, Problem)> {
    let mut workloads = vec![("base".to_string(), base_workload())];
    for seed in [1u64, 7, 42] {
        let cfg = RandomWorkloadConfig { seed, num_tasks: 3, ..Default::default() };
        workloads.push((format!("seed {seed}"), cfg.generate().unwrap()));
    }
    workloads
}

#[test]
fn clearing_deployment_runs_the_optimizer_sweeps_one_round_late() {
    for (name, problem) in exactness_workloads() {
        let mut opt = Optimizer::new(
            problem.clone(),
            OptimizerConfig { allocation: settings(), ..OptimizerConfig::default() },
        );
        let mut dist = DistributedLla::new(
            problem,
            DistConfig { allocation: settings(), ..DistConfig::default() },
        );
        // The controllers tick first: round 1 allocates at zero prices.
        dist.run_rounds(1);
        for k in 1..=30 {
            let report = opt.step();
            dist.run_rounds(1);
            let u = *dist.utilities().last().unwrap();
            assert!(
                close(u, report.utility),
                "{name} round {k}: utility {u} vs {}",
                report.utility
            );
            let (d, c) = (dist.allocation(), opt.allocation());
            for (t, (dr, cr)) in d.lats().iter().zip(c.lats()).enumerate() {
                for (s, (a, b)) in dr.iter().zip(cr).enumerate() {
                    assert!(close(*a, *b), "{name} round {k}: lat[{t}][{s}] {a} vs {b}");
                }
            }
        }
    }
}

/// Three CPUs shared by a linear task and three concave ones (two
/// quadratics and a smooth inelastic utility), with room to spare.
fn concave_problem() -> Problem {
    let resources = (0..3)
        .map(|r| Resource::new(ResourceId::new(r), ResourceKind::Cpu).with_lag(1.0))
        .collect();
    let utilities = [
        (60.0, UtilityFn::linear_for_deadline(2.0, 60.0)),
        (80.0, UtilityFn::Quadratic { offset: 200.0, lin: 0.5, quad: 0.01 }),
        (100.0, UtilityFn::smooth_inelastic(10.0, 100.0, 6.0)),
        (70.0, UtilityFn::Quadratic { offset: 50.0, lin: 0.0, quad: 0.02 }),
    ];
    let tasks = utilities
        .into_iter()
        .enumerate()
        .map(|(k, (critical_time, utility))| {
            let mut b = TaskBuilder::new(format!("t{k}"));
            let a = b.subtask("a", ResourceId::new(k % 3), 2.0);
            let c = b.subtask("b", ResourceId::new((k + 1) % 3), 3.0);
            let d = b.subtask("c", ResourceId::new((k + 2) % 3), 2.5);
            b.edge(a, c).unwrap();
            b.edge(a, d).unwrap();
            b.critical_time(critical_time).utility(utility);
            b.build(TaskId::new(k)).unwrap()
        })
        .collect();
    Problem::new(resources, tasks).unwrap()
}

/// The certified `D(μ, λ)` of a centralized clearing solve of `problem`,
/// an upper bound on the optimal utility any solver's allocation is
/// judged against.
fn certified_dual(problem: &Problem) -> f64 {
    let mut opt = Optimizer::new(
        problem.clone(),
        OptimizerConfig { allocation: settings(), ..OptimizerConfig::default() },
    );
    assert!(opt.run_to_convergence(200).converged, "the centralized solve certifies");
    opt.certify().dual
}

/// The deployment's worst violation and its utility's gap to `dual`,
/// relative to `|dual|`.
fn violation_and_gap(dist: &DistributedLla, dual: f64) -> (f64, f64) {
    let (problem, lats) = (dist.problem(), dist.allocation());
    let viol =
        problem.max_resource_violation(lats.lats()).max(problem.max_path_violation(lats.lats()));
    (viol, (dual - dist.utility()) / dual.abs())
}

#[test]
fn clearing_deployment_certifies_concave_utilities() {
    let dual = certified_dual(&concave_problem());
    let mut dist = DistributedLla::new(
        concave_problem(),
        DistConfig { allocation: settings(), ..DistConfig::default() },
    );
    for _ in 0..50 {
        dist.run_rounds(1);
        let (viol, gap) = violation_and_gap(&dist, dual);
        if viol <= 1e-3 && gap <= 1e-4 {
            return;
        }
    }
    let (viol, gap) = violation_and_gap(&dist, dual);
    panic!("no certified round in 50: viol {viol}, gap {gap}");
}

#[test]
fn clearing_deployment_converges_under_loss_jitter_and_delay() {
    let dual = certified_dual(&base_workload());
    let cases = [
        (
            "30% loss",
            DistConfig {
                network: NetworkModel::lossy(0.5, 1.0, 0.3),
                seed: 17,
                ..DistConfig::default()
            },
        ),
        ("tick jitter", DistConfig { tick_jitter: 0.4, seed: 5, ..DistConfig::default() }),
        (
            "cross-round delay",
            DistConfig {
                network: NetworkModel::lossy(15.0, 10.0, 0.0),
                seed: 23,
                ..DistConfig::default()
            },
        ),
    ];
    for (name, config) in cases {
        let mut dist =
            DistributedLla::new(base_workload(), DistConfig { allocation: settings(), ..config });
        dist.run_rounds(400);
        let (viol, gap) = violation_and_gap(&dist, dual);
        assert!(viol <= 1e-3, "{name}: violation {viol}");
        assert!(gap.abs() <= 1e-3, "{name}: utility {} vs D {dual}", dist.utility());
    }
}
