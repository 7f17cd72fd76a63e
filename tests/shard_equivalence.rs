//! The sharded hierarchy must be indistinguishable from the monolithic
//! optimizer: one shard is *bit-identical*, and any partition tracks the
//! monolithic price/allocation trajectory to 1e-9 on the paper workloads
//! (Figures 6 and 7), the large-scale random generator, and the clustered
//! generator under both planted and affinity-recovered partitions. A
//! seeded property sweep then checks that *random* shard partitions
//! preserve feasibility and KKT residuals.

use lla::core::{
    dual_value, Optimizer, OptimizerConfig, PriceMethod, Problem, ShardSpec, ShardedOptimizer,
    StepSizePolicy,
};
use lla::workloads::{
    clustered_workload, large_scale_workload, partition_by_affinity, scaled_workload,
    RandomWorkloadConfig, TaskShape,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 24;

/// Per-property master seeds: independent streams, stable across runs.
fn cases(salt: u64) -> impl Iterator<Item = StdRng> {
    (0..CASES as u64).map(move |i| StdRng::seed_from_u64(salt.wrapping_mul(0x9e37_79b9) + i))
}

/// The paper's gradient method (`tests/clearing.rs` covers the
/// market-clearing sweep's shard equivalence).
fn config() -> OptimizerConfig {
    OptimizerConfig {
        price_method: PriceMethod::Gradient,
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        ..OptimizerConfig::default()
    }
}

fn max_alloc_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    assert_eq!(a.len(), b.len(), "task count mismatch");
    let mut worst = 0.0_f64;
    for (ta, tb) in a.iter().zip(b) {
        assert_eq!(ta.len(), tb.len(), "subtask count mismatch");
        for (&x, &y) in ta.iter().zip(tb) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

/// Steps a monolithic [`Optimizer`] and a [`ShardedOptimizer`] over the
/// same problem in lockstep and asserts the allocations never drift apart
/// by more than `tol` (absolute, per latency entry).
fn check_tracks(problem: &Problem, spec: ShardSpec, iters: usize, tol: f64, what: &str) {
    let shards = spec.num_shards();
    let mut mono = Optimizer::new(problem.clone(), config());
    let mut sharded =
        ShardedOptimizer::new(problem.clone(), config(), spec).expect("spec is a partition");
    for round in 0..iters {
        mono.step();
        sharded.step();
        if round % 50 == 0 || round + 1 == iters {
            let diff = max_alloc_diff(mono.allocation().lats(), sharded.allocation().lats());
            assert!(
                diff <= tol,
                "{what}: {shards}-shard allocation drifted {diff:.3e} > {tol:.0e} \
                 from monolithic at round {round}"
            );
        }
    }
    let du = (mono.utility() - sharded.utility()).abs();
    assert!(du <= tol * mono.utility().abs().max(1.0), "{what}: utility drifted {du:.3e}");
}

/// One shard runs the exact same kernels in the exact same order as the
/// monolithic optimizer, so the trajectories are equal bit for bit — not
/// merely within tolerance.
#[test]
fn single_shard_is_bitwise_identical_on_fig6() {
    let problem = scaled_workload(2, true);
    let mut mono = Optimizer::new(problem.clone(), config());
    let mut sharded = ShardedOptimizer::new(
        problem.clone(),
        config(),
        ShardSpec::contiguous(problem.tasks().len(), 1),
    )
    .expect("single shard is a partition");
    for round in 0..300 {
        let mr = mono.step();
        let sr = sharded.step();
        assert_eq!(mono.allocation().lats(), sharded.allocation().lats(), "round {round}");
        assert_eq!(mr.utility.to_bits(), sr.utility.to_bits(), "utility bits at {round}");
        assert_eq!(
            mr.max_resource_violation.to_bits(),
            sr.max_resource_violation.to_bits(),
            "resource violation bits at {round}"
        );
        assert_eq!(
            mr.max_path_violation.to_bits(),
            sr.max_path_violation.to_bits(),
            "path violation bits at {round}"
        );
    }
}

/// Figure 6 scaling points (§5.3, schedulable): sharded allocations pin to
/// the monolithic trajectory within 1e-9 at every checked round.
#[test]
fn sharded_tracks_monolithic_on_fig6_scaling() {
    for (replication, shards) in [(1usize, 3usize), (2, 2), (4, 3)] {
        let problem = scaled_workload(replication, true);
        let spec = ShardSpec::contiguous(problem.tasks().len(), shards);
        check_tracks(&problem, spec, 500, 1e-9, "fig6");
    }
}

/// Figure 7's unschedulable workload (§5.4): even where no feasible point
/// exists and prices keep climbing, the sharded trajectory stays pinned.
#[test]
fn sharded_tracks_monolithic_on_fig7_unschedulable() {
    let problem = scaled_workload(2, false);
    let spec = ShardSpec::contiguous(problem.tasks().len(), 2);
    check_tracks(&problem, spec, 400, 1e-9, "fig7");
}

/// The large-scale random generator with a contiguous 4-way partition.
#[test]
fn sharded_tracks_monolithic_on_large_scale() {
    let problem = large_scale_workload(200, 11).expect("valid config");
    let spec = ShardSpec::contiguous(problem.tasks().len(), 4);
    check_tracks(&problem, spec, 300, 1e-9, "large_scale");
}

/// The clustered generator under both the planted cluster partition and
/// the affinity-recovered one (which should coincide, but is validated
/// independently here against the monolithic trajectory).
#[test]
fn sharded_tracks_monolithic_on_clustered_partitions() {
    let (problem, planted) = clustered_workload(80, 4, 7).expect("valid geometry");
    check_tracks(&problem, planted, 300, 1e-9, "clustered/planted");
    let affinity = partition_by_affinity(&problem, 4);
    check_tracks(&problem, affinity, 300, 1e-9, "clustered/affinity");
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// `ShardedOptimizer::certify` evaluates `D(μ, λ)` on the shard plans
/// memoised in its problem; at 1, 2 and 4 shards it matches the monolithic
/// certificate to 1e-9 relative, and `dual_value` at the sharded driver's
/// own exported prices bit for bit.
#[test]
fn sharded_certificate_matches_monolithic() {
    let (clustered, _) = clustered_workload(80, 4, 7).expect("valid geometry");
    let large = large_scale_workload(200, 11).expect("valid config");
    for (what, problem) in [("clustered", clustered), ("large_scale", large)] {
        for shards in [1usize, 2, 4] {
            let spec = ShardSpec::contiguous(problem.tasks().len(), shards);
            let mut mono = Optimizer::new(problem.clone(), config());
            let mut sharded =
                ShardedOptimizer::new(problem.clone(), config(), spec).expect("partition");
            for round in 0..=200 {
                if round % 40 == 0 {
                    let (m, s) = (mono.certify(), sharded.certify());
                    let at = format!("{what}, {shards} shards, round {round}");
                    assert!(rel(m.dual, s.dual) <= 1e-9, "{at}: dual {} vs {}", m.dual, s.dual);
                    assert!(rel(m.utility, s.utility) <= 1e-9, "{at}: {m:?} vs {s:?}");
                    assert!((m.viol - s.viol).abs() <= 1e-9, "{at}: {m:?} vs {s:?}");
                    let state = sharded.export_state();
                    let settings = config().allocation;
                    let own = dual_value(sharded.problem(), state.prices(), &settings).value;
                    assert_eq!(
                        own.to_bits(),
                        s.dual.to_bits(),
                        "{at}: dual_value {own} vs {}",
                        s.dual
                    );
                }
                mono.step();
                sharded.step();
            }
        }
    }
}

fn random_shape(rng: &mut StdRng) -> TaskShape {
    match rng.gen_range(0usize..5) {
        0 => TaskShape::Chain,
        1 => TaskShape::FanOut,
        2 => TaskShape::Diamond,
        3 => TaskShape::RandomDag,
        _ => TaskShape::Mixed,
    }
}

fn random_workload(rng: &mut StdRng) -> RandomWorkloadConfig {
    RandomWorkloadConfig {
        num_resources: rng.gen_range(2usize..=8),
        num_tasks: rng.gen_range(1usize..=5),
        min_subtasks: 2,
        max_subtasks: 6,
        shape: random_shape(rng),
        exec_time_range: (1.0, 6.0),
        lag: 1.0,
        target_load: rng.gen_range(0.5f64..0.95),
        deadline_headroom: rng.gen_range(1.2f64..3.0),
        seed: rng.gen(),
    }
}

/// Draws a uniformly random partition of `num_tasks` tasks into at most
/// `max_shards` groups, dropping empty groups.
fn random_partition(rng: &mut StdRng, num_tasks: usize, max_shards: usize) -> ShardSpec {
    let k = rng.gen_range(1..=max_shards.min(num_tasks).max(1));
    let mut groups = vec![Vec::new(); k];
    for t in 0..num_tasks {
        groups[rng.gen_range(0..k)].push(t);
    }
    groups.retain(|g| !g.is_empty());
    ShardSpec::from_groups(groups)
}

/// Random shard partitions preserve feasibility and KKT residuals: on
/// every constructively-schedulable random workload, a randomly sharded
/// optimizer converges to a feasible point, and its KKT residuals match
/// the monolithic optimizer run for the same number of rounds to 1e-6.
#[test]
fn random_partitions_preserve_feasibility_and_kkt() {
    for mut rng in cases(17) {
        let cfg = random_workload(&mut rng);
        let problem = cfg.generate().expect("valid config");
        let spec = random_partition(&mut rng, problem.tasks().len(), 3);
        let shards = spec.num_shards();

        let mut sharded =
            ShardedOptimizer::new(problem.clone(), config(), spec).expect("spec is a partition");
        let outcome = sharded.run_to_convergence(15_000);
        assert!(outcome.converged, "{shards}-shard run did not converge on {cfg:?}: {outcome:?}");
        assert!(
            problem.is_feasible(sharded.allocation().lats(), 1e-2),
            "infeasible at convergence on {cfg:?} with {shards} shards"
        );

        let mut mono = Optimizer::new(problem.clone(), config());
        mono.run(sharded.iterations());
        let diff = max_alloc_diff(mono.allocation().lats(), sharded.allocation().lats());
        assert!(diff <= 1e-9, "allocation drifted {diff:.3e} on {cfg:?} with {shards} shards");

        let mk = mono.kkt();
        let sk = sharded.kkt();
        for (m, s, what) in [
            (mk.max_stationarity_residual, sk.max_stationarity_residual, "stationarity"),
            (mk.max_resource_violation, sk.max_resource_violation, "resource violation"),
            (mk.max_path_violation, sk.max_path_violation, "path violation"),
            (
                mk.max_complementary_slackness,
                sk.max_complementary_slackness,
                "complementary slackness",
            ),
        ] {
            assert!(
                (m - s).abs() <= 1e-6 * m.abs().max(s.abs()).max(1.0),
                "KKT {what} drifted: monolithic {m} vs sharded {s} on {cfg:?} ({shards} shards)"
            );
        }
    }
}
