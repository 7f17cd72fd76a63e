//! Randomized property tests over generated workloads and inputs.
//!
//! Formerly written against `proptest`; the offline build environment
//! cannot fetch it, so the same properties are now driven by an explicit
//! seeded RNG (the vendored `rand` stub). Every case derives from a fixed
//! master seed, so failures are exactly reproducible; the case count per
//! property matches the old `ProptestConfig::with_cases(24)`.
//!
//! The random workload generator guarantees schedulability by
//! construction (a witness allocation exists), so LLA's convergence and
//! feasibility can be asserted for *every* generated instance.

use lla::core::{
    compose_path_percentile, dual_value, lagrangian_value, AllocationSettings, Optimizer,
    OptimizerConfig, PriceState, ResourceId, ShareModel, StepSizePolicy, SubtaskGraph, TaskBuilder,
    TaskId, UtilityFn,
};
use lla::workloads::{RandomWorkloadConfig, TaskShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 24;

/// Per-property master seeds: independent streams, stable across runs.
fn cases(salt: u64) -> impl Iterator<Item = StdRng> {
    (0..CASES as u64).map(move |i| StdRng::seed_from_u64(salt.wrapping_mul(0x9e37_79b9) + i))
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

/// LLA converges on every constructively-schedulable random workload,
/// and the result is feasible.
#[test]
fn lla_converges_on_random_schedulable_workloads() {
    for mut rng in cases(1) {
        let cfg = random_workload(&mut rng);
        let problem = cfg.generate().expect("valid config");
        let mut opt = Optimizer::new(
            problem,
            OptimizerConfig {
                step_policy: StepSizePolicy::sign_adaptive(1.0),
                ..OptimizerConfig::default()
            },
        );
        let outcome = opt.run_to_convergence(15_000);
        assert!(outcome.converged, "did not converge on {cfg:?}: {outcome:?}");
        assert!(
            opt.problem().is_feasible(opt.allocation().lats(), 1e-2),
            "infeasible at convergence on {cfg:?}: resource {:?}, path {:?}",
            opt.problem().max_resource_violation(opt.allocation().lats()),
            opt.problem().max_path_violation(opt.allocation().lats())
        );
    }
}

/// Weak duality: for any prices, the dual value dominates the utility
/// of the witness (feasible) allocation.
#[test]
fn weak_duality_on_random_workloads() {
    for mut rng in cases(2) {
        let cfg = random_workload(&mut rng);
        let mu_scale = rng.gen_range(0.0f64..200.0);
        let problem = cfg.generate().expect("valid config");
        let settings = AllocationSettings::default();
        let mut prices = PriceState::new(&problem, StepSizePolicy::fixed(1.0));
        for r in 0..problem.resources().len() {
            prices.set_mu(r, mu_scale * (r as f64 + 1.0) / problem.resources().len() as f64);
        }
        // The generator guarantees this witness is feasible.
        let mut n_r = vec![0usize; problem.resources().len()];
        for t in problem.tasks() {
            for s in t.subtasks() {
                n_r[s.resource().index()] += 1;
            }
        }
        let witness: Vec<Vec<f64>> = problem
            .tasks()
            .iter()
            .map(|t| {
                t.subtasks()
                    .iter()
                    .map(|s| {
                        let share = cfg.target_load / n_r[s.resource().index()] as f64;
                        (s.exec_time() + cfg.lag) / share
                    })
                    .collect()
            })
            .collect();
        assert!(problem.is_feasible(&witness, 1e-9));
        let primal = problem.total_utility(&witness);
        let dual = dual_value(&problem, &prices, &settings);
        assert!(
            dual.value >= primal - 1e-6,
            "weak duality violated on {cfg:?}: dual {} < primal {primal}",
            dual.value
        );
    }
}

/// The allocator's output maximizes the Lagrangian over the clamping
/// box: no unilateral in-box perturbation of any subtask latency may
/// increase it.
#[test]
fn allocation_maximizes_lagrangian() {
    for mut rng in cases(3) {
        let cfg = random_workload(&mut rng);
        let mu = rng.gen_range(1.0f64..100.0);
        let delta = rng.gen_range(0.05f64..2.0);
        let problem = cfg.generate().expect("valid config");
        let settings = AllocationSettings::default();
        let mut prices = PriceState::new(&problem, StepSizePolicy::fixed(1.0));
        for r in 0..problem.resources().len() {
            prices.set_mu(r, mu);
        }
        let maximizer = dual_value(&problem, &prices, &settings).maximizer();
        let base = lagrangian_value(&problem, &maximizer, &prices);
        for (t, task) in problem.tasks().iter().enumerate() {
            let (lo, hi) = lla::core::clamping_box(&problem, task, &settings);
            for s in 0..task.len() {
                for sign in [-1.0, 1.0] {
                    let mut perturbed = maximizer.clone();
                    let candidate = (perturbed[t][s] + sign * delta).clamp(lo[s], hi[s]);
                    if (candidate - perturbed[t][s]).abs() < 1e-12 {
                        continue; // already at the box boundary
                    }
                    perturbed[t][s] = candidate;
                    let l = lagrangian_value(&problem, &perturbed, &prices);
                    assert!(
                        l <= base + 1e-7,
                        "perturbing ({t},{s}) by {} raised L: {l} > {base} on {cfg:?}",
                        sign * delta
                    );
                }
            }
        }
    }
}

/// Share model: `share_for_latency` and `latency_for_share` are exact
/// inverses, and the share function is strictly decreasing and convex.
#[test]
fn share_model_inverse_and_convex() {
    for mut rng in cases(4) {
        let exec = rng.gen_range(0.1f64..50.0);
        let lag = rng.gen_range(0.0f64..10.0);
        let correction = rng.gen_range(-20.0f64..20.0);
        let lat = rng.gen_range(0.1f64..500.0);
        let mut m = ShareModel::new(exec, lag).expect("valid");
        m.set_correction(correction);
        let lat = lat + correction.max(0.0) + 0.1; // stay in the valid domain
        let share = m.share_for_latency(lat);
        if share.is_finite() && share > 0.0 {
            assert!((m.latency_for_share(share) - lat).abs() < 1e-6 * lat.max(1.0));
            // Strict decrease.
            let share2 = m.share_for_latency(lat * 1.01);
            assert!(share2 < share);
            // Convexity via midpoint.
            let a = lat;
            let b = lat * 2.0;
            let mid = m.share_for_latency((a + b) / 2.0);
            let chord = (m.share_for_latency(a) + m.share_for_latency(b)) / 2.0;
            assert!(mid <= chord + 1e-12);
        }
    }
}

/// Percentile composition: the per-subtask percentile recombines to
/// the requested end-to-end percentile for any path length.
#[test]
fn percentile_composition_roundtrip() {
    for mut rng in cases(5) {
        let p = rng.gen_range(0.1f64..100.0);
        let n = rng.gen_range(1usize..10);
        let q = compose_path_percentile(p, n);
        assert!((0.0..=100.0 + 1e-9).contains(&q));
        assert!(q >= p - 1e-9, "per-subtask percentile must not be below end-to-end");
        let back = (q / 100.0).powi(n as i32) * 100.0;
        assert!((back - p).abs() < 1e-6, "p={p} n={n} q={q} back={back}");
    }
}

/// Random DAGs: the DP-computed path weights agree with explicit path
/// enumeration, and every path runs root to leaf.
#[test]
fn graph_weights_match_enumeration() {
    for mut rng in cases(6) {
        let n = rng.gen_range(1usize..9);
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((rng.gen_range(0..i), i));
            if i >= 2 && rng.gen_bool(0.4) {
                let extra = rng.gen_range(0..i);
                edges.push((extra, i));
            }
        }
        let g = SubtaskGraph::new(TaskId::new(0), n, &edges).expect("valid DAG");
        for v in 0..n {
            let count = g.paths().iter().filter(|p| p.subtasks().contains(&v)).count();
            assert_eq!(g.path_weight(v), count, "weight mismatch at node {v}");
        }
        for path in g.paths() {
            assert_eq!(path.subtasks()[0], g.root());
            let last = *path.subtasks().last().unwrap();
            assert!(g.successors(last).is_empty());
        }
    }
}

/// The spec parser never panics, whatever garbage it is fed — it
/// either produces a problem or a structured error.
#[test]
fn spec_parser_is_panic_free() {
    for mut rng in cases(7) {
        let len = rng.gen_range(0usize..=300);
        let input: String = (0..len)
            .map(|_| {
                // Mostly printable ASCII with occasional multi-byte and
                // control characters, approximating proptest's `\PC`.
                match rng.gen_range(0usize..20) {
                    0 => '\u{e9}',   // é
                    1 => '\u{4e16}', // 世
                    2 => '\t',
                    3 => '\n',
                    _ => char::from(rng.gen_range(0x20u8..0x7f)),
                }
            })
            .collect();
        let _ = lla::spec::parse(&input);
    }
}

/// Spec parser robustness against syntactically-plausible fragments.
#[test]
fn spec_parser_handles_fragmented_declarations() {
    const KEYWORDS: [&str; 5] = ["resource", "task", "subtask", "edge", "chain"];
    const TOKEN_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=.";
    for mut rng in cases(8) {
        let keyword = KEYWORDS[rng.gen_range(0usize..KEYWORDS.len())];
        let n_tokens = rng.gen_range(0usize..5);
        let tokens: Vec<String> = (0..n_tokens)
            .map(|_| {
                let len = rng.gen_range(0usize..=8);
                (0..len)
                    .map(|_| TOKEN_CHARS[rng.gen_range(0usize..TOKEN_CHARS.len())] as char)
                    .collect()
            })
            .collect();
        let line = format!("{keyword} {}", tokens.join(" "));
        let _ = lla::spec::parse(&line);
    }
}

/// Schedulability is monotone in the deadline scale: if a workload is
/// schedulable, relaxing every critical time keeps it schedulable
/// (probed through the generator's headroom knob).
#[test]
fn schedulability_monotone_in_headroom() {
    use lla::core::{analyze_schedulability, SchedulabilityConfig};
    for mut rng in cases(9) {
        let seed: u64 = rng.gen();
        let load = rng.gen_range(0.6f64..0.9);
        let config = SchedulabilityConfig {
            optimizer: OptimizerConfig {
                step_policy: StepSizePolicy::sign_adaptive(1.0),
                ..OptimizerConfig::default()
            },
            max_iters: 15_000,
        };
        let tight = RandomWorkloadConfig {
            seed,
            target_load: load,
            num_tasks: 3,
            deadline_headroom: 1.3,
            ..Default::default()
        };
        let relaxed = RandomWorkloadConfig { deadline_headroom: 2.6, ..tight };
        let tight_verdict = analyze_schedulability(tight.generate().unwrap(), &config);
        if tight_verdict.is_schedulable() {
            let relaxed_verdict = analyze_schedulability(relaxed.generate().unwrap(), &config);
            assert!(
                relaxed_verdict.is_schedulable(),
                "relaxing deadlines must preserve schedulability (seed {seed}): {relaxed_verdict:?}"
            );
        }
    }
}

/// Price projection: prices never go negative whatever the allocation.
#[test]
fn prices_stay_nonnegative() {
    for mut rng in cases(10) {
        let cfg = random_workload(&mut rng);
        let iters = rng.gen_range(1usize..60);
        let problem = cfg.generate().expect("valid config");
        let mut opt = Optimizer::new(
            problem,
            OptimizerConfig {
                step_policy: StepSizePolicy::adaptive(1.0),
                ..OptimizerConfig::default()
            },
        );
        for _ in 0..iters {
            opt.step();
        }
        for r in 0..opt.problem().resources().len() {
            assert!(opt.prices().mu(r) >= 0.0);
        }
        for (t, task) in opt.problem().tasks().iter().enumerate() {
            for p in 0..task.graph().paths().len() {
                assert!(opt.prices().lambda(t, p) >= 0.0);
            }
        }
    }
}

/// A light two-subtask chain for churn tests: small demand relative to the
/// generated workload's execution times, so joining it keeps the instance
/// schedulable, and a linear utility so the objective stays concave.
fn random_churn_task(tag: usize, n_resources: usize, rng: &mut StdRng) -> TaskBuilder {
    let r1 = rng.gen_range(0..n_resources);
    let r2 = rng.gen_range(0..n_resources);
    let mut b = TaskBuilder::new(format!("churn-{tag}"));
    b.subtask("a", ResourceId::new(r1), rng.gen_range(0.2f64..0.6));
    b.subtask("b", ResourceId::new(r2), rng.gen_range(0.2f64..0.6));
    b.edge(0, 1).expect("two-subtask chain");
    let ct = rng.gen_range(80.0f64..200.0);
    b.critical_time(ct)
        .utility(UtilityFn::Linear { offset: 2.0 * ct, slope: -rng.gen_range(0.2f64..1.0) });
    b
}

/// Membership churn keeps ids dense: after any random interleaving of
/// `add_task` / `remove_task`, live task ids are exactly `0..n`, every
/// removal's remap report is a dense bijection onto the survivors, and the
/// price state stays aligned with the topology (stepping never indexes out
/// of bounds).
#[test]
fn membership_churn_keeps_ids_dense() {
    for mut rng in cases(11) {
        let cfg = random_workload(&mut rng);
        let problem = cfg.generate().expect("valid config");
        let n_resources = problem.resources().len();
        let mut expected = problem.tasks().len();
        let mut opt = Optimizer::new(problem, OptimizerConfig::default());
        let ops = rng.gen_range(3usize..10);
        for k in 0..ops {
            let n = opt.problem().tasks().len();
            if n == 0 || rng.gen_bool(0.6) {
                let id = opt
                    .add_task(&random_churn_task(k, n_resources, &mut rng))
                    .expect("churn task is valid");
                assert_eq!(id.index(), n, "a join takes the next dense id");
                expected += 1;
            } else {
                let victim = TaskId::new(rng.gen_range(0..n));
                let report = opt.remove_task(victim).expect("victim is live");
                assert!(report.task_map[victim.index()].is_none(), "victim leaves the map");
                let mut survivors: Vec<usize> = report.task_map.iter().flatten().copied().collect();
                survivors.sort_unstable();
                assert_eq!(
                    survivors,
                    (0..n - 1).collect::<Vec<_>>(),
                    "remap is a dense bijection onto 0..{}",
                    n - 1
                );
                expected -= 1;
            }
            assert_eq!(opt.problem().tasks().len(), expected, "live count tracks churn");
            opt.step();
            for t in 0..expected {
                for p in 0..opt.problem().tasks()[t].graph().paths().len() {
                    assert!(opt.prices().lambda(t, p).is_finite(), "prices track topology");
                }
            }
        }
    }
}

/// Warm-started convergence matches a cold solve: after converging, joining
/// a task and continuing from the warm duals must land within tolerance of
/// a fresh optimizer solving the mutated problem from scratch (the problem
/// is concave, so both must find the same optimum).
#[test]
fn warm_started_convergence_matches_cold_solve() {
    for mut rng in cases(12) {
        let cfg = RandomWorkloadConfig {
            target_load: rng.gen_range(0.4f64..0.7),
            ..random_workload(&mut rng)
        };
        let problem = cfg.generate().expect("valid config");
        let n_resources = problem.resources().len();
        let config = OptimizerConfig {
            step_policy: StepSizePolicy::sign_adaptive(1.0),
            ..OptimizerConfig::default()
        };
        let mut warm = Optimizer::new(problem, config);
        assert!(warm.run_to_convergence(15_000).converged, "pre-churn solve converges");
        warm.add_task(&random_churn_task(0, n_resources, &mut rng)).expect("valid join");
        let warm_out = warm.run_to_convergence(20_000);
        assert!(warm_out.converged, "warm restart converges on {cfg:?}");

        let mut cold = Optimizer::new(warm.problem().clone(), config);
        assert!(cold.run_to_convergence(20_000).converged, "cold solve converges");

        let scale = cold.utility().abs().max(1.0);
        assert!(
            (warm.utility() - cold.utility()).abs() <= 0.05 * scale,
            "warm {} vs cold {} diverge beyond 5% on {cfg:?}",
            warm.utility(),
            cold.utility()
        );
        assert!(
            warm.problem().is_feasible(warm.allocation().lats(), 1e-2),
            "warm-started allocation is feasible"
        );
    }
}

/// `remove_task(add_task(p, t))` round-trips: joining a task and
/// immediately removing it restores a problem equal to the original, and
/// the removal report is the identity on the survivors.
#[test]
fn add_then_remove_round_trips_the_problem() {
    for mut rng in cases(13) {
        let cfg = random_workload(&mut rng);
        let problem = cfg.generate().expect("valid config");
        let n_resources = problem.resources().len();
        let before = problem.clone();
        let mut opt = Optimizer::new(problem, OptimizerConfig::default());
        let id = opt
            .add_task(&random_churn_task(99, n_resources, &mut rng))
            .expect("churn task is valid");
        let report = opt.remove_task(id).expect("just added");
        assert_eq!(*opt.problem(), before, "round-trip restores the problem");
        for (old, new) in report.task_map.iter().enumerate().take(before.tasks().len()) {
            assert_eq!(*new, Some(old), "survivors keep their ids");
        }
        assert_eq!(report.task_map[id.index()], None, "the round-tripped task is gone");
    }
}
