//! The market-clearing price method (`PriceMethod::Clearing`, the
//! default): a one-shard `ShardedOptimizer` repeats the `Optimizer` bit
//! for bit and more shards agree with it to 1e-9 through membership and
//! availability edits; the clustered instance the gradient method cannot
//! certify certifies in a few sweeps on both drivers; the schedulability
//! probe proves Figure 7's twins either way; concave utilities certify;
//! constraints no price can clear keep finite prices while the probe
//! proves the problem unschedulable; and the rounds' bits are pinned as
//! digests.

use lla::core::{
    analyze_schedulability, AllocationSettings, IterationReport, Optimizer, OptimizerConfig,
    OptimizerState, Problem, Resource, ResourceId, ResourceKind, ResourceOwner,
    SchedulabilityConfig, SchedulabilityVerdict, ShardSpec, ShardedOptimizer, TaskBuilder, TaskId,
    UtilityFn,
};
use lla::workloads::{
    clustered_workload, large_scale_workload, scaled_workload, ClusteredWorkloadConfig,
    RandomWorkloadConfig, TaskShape,
};

fn config() -> OptimizerConfig {
    OptimizerConfig { record_trace: false, ..OptimizerConfig::default() }
}

fn assert_reports_bitwise(a: &IterationReport, b: &IterationReport, what: &str) {
    assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{what}: utility");
    let (ra, rb) = (a.max_resource_violation, b.max_resource_violation);
    assert_eq!(ra.to_bits(), rb.to_bits(), "{what}: resource violation");
    let (pa, pb) = (a.max_path_violation, b.max_path_violation);
    assert_eq!(pa.to_bits(), pb.to_bits(), "{what}: path violation");
}

/// Every price and latency of `a` within `tol` (relative to the larger of
/// 1 and the value) of `b`'s.
fn assert_states_close(a: &OptimizerState, b: &OptimizerState, tol: f64, what: &str) {
    let close = |x: f64, y: f64| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0);
    for (r, (&x, &y)) in a.prices().mus().iter().zip(b.prices().mus()).enumerate() {
        assert!(close(x, y), "{what}: μ_{r} {x} vs {y}");
    }
    for (t, (ra, rb)) in a.lats().iter().zip(b.lats()).enumerate() {
        for (p, (&x, &y)) in a.prices().lambdas(t).iter().zip(b.prices().lambdas(t)).enumerate() {
            assert!(close(x, y), "{what}: λ of task {t} path {p}: {x} vs {y}");
        }
        for (s, (&x, &y)) in ra.iter().zip(rb).enumerate() {
            assert!(close(x, y), "{what}: latency of task {t} subtask {s}: {x} vs {y}");
        }
    }
}

/// A one-path task over `resource` that re-joins the problem.
fn joiner(resource: ResourceId) -> TaskBuilder {
    let mut b = TaskBuilder::new("joiner");
    let a = b.subtask("a", resource, 2.0);
    let c = b.subtask("b", resource, 1.0);
    b.edge(a, c).unwrap();
    b.critical_time(90.0).utility(UtilityFn::linear_for_deadline(2.0, 90.0));
    b
}

/// A resource the contiguous two-shard spec of `problem` prices at the
/// coordinator and that subtasks run on.
fn shared_resource(problem: &Problem) -> ResourceId {
    let spec = ShardSpec::contiguous(problem.tasks().len(), 2);
    let opt = ShardedOptimizer::new(problem.clone(), config(), spec).unwrap();
    let shared = (0..problem.resources().len()).find(|&r| {
        opt.resource_owner(r) == ResourceOwner::Coordinator
            && !problem.subtasks_on(ResourceId::new(r)).is_empty()
    });
    ResourceId::new(shared.expect("the clustered workload shares its backbone"))
}

#[test]
fn sharded_clearing_matches_the_optimizer() {
    let (problem, clusters) = clustered_workload(80, 4, 7).expect("valid geometry");
    let n = problem.tasks().len();

    // One shard: the same sweep, bit for bit.
    let mut mono = Optimizer::new(problem.clone(), config());
    let mut one = ShardedOptimizer::new(problem.clone(), config(), ShardSpec::contiguous(n, 1))
        .expect("one shard is a partition");
    for round in 0..10 {
        let (a, b) = (mono.step(), one.step());
        let what = format!("one shard, round {round}");
        assert_reports_bitwise(&a, &b, &what);
        let (sa, sb) = (mono.export_state(), one.export_state());
        assert_eq!(sa.prices().mus(), sb.prices().mus(), "{what}: μ");
        for t in 0..n {
            assert_eq!(sa.prices().lambdas(t), sb.prices().lambdas(t), "{what}: λ of task {t}");
        }
        assert_eq!(sa.lats(), sb.lats(), "{what}: latencies");
    }

    // More shards: the coordinator's terms come in shard order, so the
    // drivers agree to rounding, through a join, a leave and a dip on a
    // shared resource.
    let interleaved = ShardSpec::from_groups(vec![
        (0..n).filter(|t| t % 3 == 0).collect(),
        (0..n).filter(|t| t % 3 != 0).collect(),
    ]);
    let shared = shared_resource(&problem);
    for (what, spec) in [
        ("two shards", ShardSpec::contiguous(n, 2)),
        ("four shards", ShardSpec::contiguous(n, 4)),
        ("interleaved", interleaved),
        ("clusters", clusters),
    ] {
        let mut mono = Optimizer::new(problem.clone(), config());
        let mut sharded = ShardedOptimizer::new(problem.clone(), config(), spec).unwrap();
        for round in 0..40 {
            match round {
                10 => {
                    mono.add_task(&joiner(shared)).unwrap();
                    sharded.add_task(&joiner(shared), Some(0)).unwrap();
                }
                20 => {
                    mono.remove_task(TaskId::new(5)).unwrap();
                    sharded.remove_task(TaskId::new(5)).unwrap();
                }
                30 => {
                    mono.set_resource_availability(shared, 0.8).unwrap();
                    sharded.set_resource_availability(shared, 0.8).unwrap();
                }
                _ => {}
            }
            let (a, b) = (mono.step(), sharded.step());
            let at = format!("{what}, round {round}");
            assert!((a.utility - b.utility).abs() <= 1e-9 * a.utility.abs().max(1.0), "{at}");
            assert_states_close(&mono.export_state(), &sharded.export_state(), 1e-9, &at);
        }
        assert!(sharded.has_converged(), "{what}: the dip re-certifies within ten sweeps");
    }
}

/// Instance 18 of the sharded benchmark's seed 4: a clustered 2000-task
/// problem on which the gradient method's adaptive γ settles into a
/// limit cycle that never certifies.
fn clustered_instance_18() -> (Problem, usize) {
    let num_tasks = 2_000;
    let seed = 4u64.wrapping_mul(1_000_003).wrapping_add(18);
    let per_cluster = num_tasks / 4;
    let config = ClusteredWorkloadConfig {
        num_clusters: 4,
        tasks_per_cluster: per_cluster,
        resources_per_cluster: 3 * per_cluster,
        backbone_links: num_tasks / 25,
        cross_traffic: 0.1,
        base: RandomWorkloadConfig {
            num_resources: 3 * num_tasks,
            num_tasks,
            min_subtasks: 3,
            max_subtasks: 6,
            shape: TaskShape::Mixed,
            exec_time_range: (1.0, 8.0),
            lag: 1.0,
            target_load: 0.85,
            deadline_headroom: 1.5,
            seed,
        },
    };
    let (problem, _) = config.generate().expect("valid clustered config");
    (problem, num_tasks)
}

#[test]
fn clustered_instance_18_certifies_in_a_few_sweeps() {
    let (problem, n) = clustered_instance_18();
    let mut mono = Optimizer::new(problem.clone(), config());
    let outcome = mono.run_to_convergence(10);
    assert!(outcome.converged, "Optimizer: {outcome:?}, {:?}", mono.certify());
    let spec = ShardSpec::contiguous(n, 2);
    let mut sharded = ShardedOptimizer::new(problem, config(), spec).unwrap();
    let outcome = sharded.run_to_convergence(10);
    assert!(outcome.converged, "ShardedOptimizer: {outcome:?}, {:?}", sharded.certify());
}

#[test]
fn default_probe_proves_both_fig7_twins() {
    let probe = SchedulabilityConfig::default();
    let verdict = analyze_schedulability(scaled_workload(2, true), &probe);
    assert!(verdict.is_schedulable(), "the scaled twin: {verdict:?}");
    match analyze_schedulability(scaled_workload(2, false), &probe) {
        SchedulabilityVerdict::Unschedulable { iterations, dual, utility_floor } => {
            assert!(iterations > 0);
            assert!(dual < utility_floor, "the proof is D < U_floor: {dual} vs {utility_floor}");
        }
        other => panic!("the unscaled workload: expected unschedulable, got {other:?}"),
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

#[test]
fn concave_utilities_certify() {
    let mut opt = Optimizer::new(concave_problem(), config());
    let outcome = opt.run_to_convergence(100);
    let cert = opt.certify();
    assert!(outcome.converged && cert.holds(), "{outcome:?}, {cert:?}");
}

/// Resources 0–2 carry one three-hop path whose latency floors add up
/// past its critical time; resource 3 carries three tasks whose least
/// shares add up past its availability.
fn unclearable_problem() -> Problem {
    let resources = (0..4)
        .map(|r| Resource::new(ResourceId::new(r), ResourceKind::Cpu).with_lag(1.0))
        .collect();
    let mut late = TaskBuilder::new("late");
    let hops: Vec<usize> = (0..3).map(|r| late.subtask("hop", ResourceId::new(r), 2.0)).collect();
    late.edge(hops[0], hops[1]).unwrap();
    late.edge(hops[1], hops[2]).unwrap();
    // Each hop needs at least 3 ms (a share of at most 1), so 9 ms > 8.
    late.critical_time(8.0).utility(UtilityFn::linear_for_deadline(2.0, 8.0));
    let mut tasks = vec![late.build(TaskId::new(0)).unwrap()];
    for k in 1..4 {
        let mut b = TaskBuilder::new(format!("heavy{k}"));
        b.subtask("s", ResourceId::new(3), 3.0);
        // At its 10 ms cap each takes a share of 0.4: 1.2 in all.
        b.critical_time(10.0).utility(UtilityFn::linear_for_deadline(2.0, 10.0));
        tasks.push(b.build(TaskId::new(k)).unwrap());
    }
    Problem::new(resources, tasks).unwrap()
}

#[test]
fn unclearable_constraints_keep_finite_prices_and_prove_unschedulability() {
    let config =
        OptimizerConfig { allocation: AllocationSettings { throughput_floor: false }, ..config() };
    let mut opt = Optimizer::new(unclearable_problem(), config);
    opt.run(3_000);
    let prices = opt.prices();
    assert!(prices.mus().iter().all(|mu| mu.is_finite()), "{:?}", prices.mus());
    assert!(prices.mu(3) > 1e6, "the overloaded resource's price grows: {}", prices.mu(3));
    assert!(prices.lambda(0, 0).is_finite() && prices.lambda(0, 0) > 1e6, "{prices:?}");
    assert!(opt.certify().dual.is_finite());

    let probe = SchedulabilityConfig { optimizer: config, ..SchedulabilityConfig::default() };
    match analyze_schedulability(unclearable_problem(), &probe) {
        SchedulabilityVerdict::Unschedulable { iterations, dual, utility_floor } => {
            assert!(iterations > 0, "the box is not empty: the prices prove it");
            assert!(dual < utility_floor, "{dual} vs {utility_floor}");
        }
        other => panic!("expected unschedulable, got {other:?}"),
    }
}

/// FNV-1a over the bit patterns of `values`, folded into `hash`.
fn fold_bits(hash: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(hash, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `hash` folded with a round's report.
fn fold_report(hash: u64, report: &IterationReport) -> u64 {
    let IterationReport { iteration, utility, max_resource_violation, max_path_violation } =
        *report;
    fold_bits(hash, [iteration as f64, utility, max_resource_violation, max_path_violation])
}

/// `hash` folded with an exported state's μ, then every λ row, then
/// every latency row.
fn fold_state(hash: u64, state: &OptimizerState) -> u64 {
    let mut h = fold_bits(hash, state.prices().mus().iter().copied());
    for t in 0..state.lats().len() {
        h = fold_bits(h, state.prices().lambdas(t).iter().copied());
    }
    fold_bits(h, state.lats().iter().flatten().copied())
}

/// `rounds` clearing rounds of an `Optimizer` with a trace, each round's
/// report, largest price move and trace record (utility, usage and
/// critical-path ratios) folded, then the final state.
fn optimizer_digest(problem: Problem, rounds: usize) -> u64 {
    let mut opt = Optimizer::new(problem, OptimizerConfig { record_trace: true, ..config() });
    let mut h = FNV_OFFSET;
    for _ in 0..rounds {
        h = fold_report(h, &opt.step());
        h = fold_bits(h, [opt.prices().last_max_rel_step()]);
        let record = opt.trace().records().last().expect("a traced round keeps its record");
        h = fold_bits(h, [record.utility]);
        h = fold_bits(h, record.resource_usage.iter().copied());
        h = fold_bits(h, record.critical_path_ratio.iter().copied());
    }
    fold_state(h, &opt.export_state())
}

/// The flat instance of the hot-path tests, 2000 tasks.
fn flat_2k() -> Problem {
    large_scale_workload(2_000, 3).expect("valid config")
}

/// A flat instance whose critical times sit 2% above the witness
/// allocation's critical paths, so the first sweep leaves paths late at
/// `λ = 0`.
fn tight_problem() -> Problem {
    RandomWorkloadConfig {
        num_resources: 200,
        num_tasks: 400,
        min_subtasks: 3,
        max_subtasks: 6,
        shape: TaskShape::Mixed,
        exec_time_range: (1.0, 8.0),
        lag: 1.0,
        target_load: 0.85,
        deadline_headroom: 1.02,
        seed: 11,
    }
    .generate()
    .expect("valid config")
}

/// Clearing rounds are pinned bit for bit: every report, price move and
/// trace record of a run and its final prices and latencies, as FNV
/// digests recorded before the λ block, the allocation and the
/// measurement were fused into one task pass. Covers a flat instance,
/// concave utilities, tight critical times (paths priced from the first
/// sweep on, the task pass's slow route) and a two-shard driver.
#[test]
fn clearing_rounds_keep_their_bits() {
    assert_eq!(optimizer_digest(flat_2k(), 6), 0x61a9_72f4_55a2_5a25, "flat 2k");
    assert_eq!(optimizer_digest(concave_problem(), 40), 0xe890_e253_2042_1d69, "concave");

    let problem = tight_problem();
    let mut opt = Optimizer::new(problem.clone(), config());
    opt.step();
    let priced = (0..problem.tasks().len())
        .flat_map(|t| opt.prices().lambdas(t).to_vec())
        .filter(|&lp| lp > 0.0)
        .count();
    assert!(priced > 0, "tight critical times leave some path late after the first sweep");
    assert_eq!(optimizer_digest(problem, 12), 0xc36e_6845_5e23_1ec2, "tight");

    let problem = flat_2k();
    let spec = ShardSpec::contiguous(problem.tasks().len(), 2);
    let mut sharded = ShardedOptimizer::new(problem, config(), spec).expect("partition");
    let mut h = FNV_OFFSET;
    for _ in 0..6 {
        h = fold_report(h, &sharded.step());
    }
    assert_eq!(fold_state(h, &sharded.export_state()), 0x19d5_9580_94a1_9ebb, "two shards");
}
