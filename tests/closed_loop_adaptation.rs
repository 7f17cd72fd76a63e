//! Closed-loop integration: LLA running continuously against the
//! simulator, adapting to model error, workload steps, and resource
//! variation — the "runs continuously and adapts" claims of §1 and §4.4.

use lla::core::{
    Optimizer, OptimizerConfig, Problem, Resource, ResourceId, ResourceKind, StepSizePolicy,
    TaskBuilder, TaskId, TriggerSpec, UtilityFn,
};
use lla::sim::{ClosedLoop, ClosedLoopConfig, SimConfig, Simulator};
use lla::workloads::{prototype_workload, PrototypeParams, RandomWorkloadConfig, TaskShape};

fn opt_config() -> OptimizerConfig {
    OptimizerConfig {
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        ..OptimizerConfig::default()
    }
}

/// Two pipelines on two CPUs, comfortably loaded.
fn two_pipeline_problem(period: f64) -> Problem {
    let resources: Vec<Resource> = (0..2)
        .map(|i| {
            Resource::new(ResourceId::new(i), ResourceKind::Cpu)
                .with_lag(2.0)
                .with_availability(0.9)
        })
        .collect();
    let mut tasks = Vec::new();
    for i in 0..2 {
        let mut b = TaskBuilder::new(format!("t{i}"));
        let a = b.subtask("a", ResourceId::new(0), 4.0);
        let c = b.subtask("b", ResourceId::new(1), 4.0);
        b.edge(a, c).unwrap();
        b.critical_time(150.0)
            .utility(UtilityFn::negative_latency())
            .trigger(TriggerSpec::Periodic { period });
        tasks.push(b.build(TaskId::new(i)).unwrap());
    }
    Problem::new(resources, tasks).unwrap()
}

#[test]
fn corrections_converge_to_a_fixed_point() {
    let mut cl = ClosedLoop::new(
        prototype_workload(&PrototypeParams::default()),
        opt_config(),
        SimConfig::default(),
        ClosedLoopConfig { window: 5_000.0, correction_enabled: true, ..Default::default() },
    );
    cl.run_windows(14);
    // The last few windows should barely move the corrections.
    let n = cl.history().len();
    let a = &cl.history()[n - 2];
    let b = &cl.history()[n - 1];
    for (ra, rb) in a.corrections.iter().zip(&b.corrections) {
        for (&ea, &eb) in ra.iter().zip(rb) {
            assert!((ea - eb).abs() < 0.5, "correction still drifting: {ea} -> {eb}");
        }
    }
    // And the loop state matches a fresh solve at those corrections.
    let mut fresh = Optimizer::new(prototype_workload(&PrototypeParams::default()), opt_config());
    for (t, row) in b.corrections.iter().enumerate() {
        for (s, &e) in row.iter().enumerate() {
            fresh.set_correction(lla::core::SubtaskId::new(TaskId::new(t), s), e);
        }
    }
    let outcome = fresh.run_to_convergence(20_000);
    assert!(outcome.converged);
    let fresh_shares =
        fresh.allocation().shares(fresh.problem(), &fresh.problem().tasks()[0].clone());
    assert!(
        (fresh_shares[0] - b.shares[0][0]).abs() < 0.02,
        "loop fixed point {} differs from fresh solve {}",
        b.shares[0][0],
        fresh_shares[0]
    );
}

#[test]
fn workload_rate_step_reconverges() {
    // Start at a low rate, then double task 0's arrival rate mid-run: the
    // throughput floor rises, and the loop must reallocate without
    // accumulating deadline misses in the steady state.
    let mut cl = ClosedLoop::new(
        two_pipeline_problem(40.0),
        opt_config(),
        SimConfig::default(),
        ClosedLoopConfig { window: 2_000.0, correction_enabled: true, ..Default::default() },
    );
    cl.run_windows(5);
    let misses_before: f64 = cl.history().last().unwrap().miss_rate.iter().sum();
    assert!(misses_before < 0.01);
    cl.run_windows(8);
    let last = cl.history().last().unwrap();
    for &m in &last.miss_rate {
        assert!(m < 0.02, "steady state must not miss deadlines: {:?}", last.miss_rate);
    }
}

#[test]
fn availability_drop_is_absorbed() {
    // Simulator keeps running while the optimizer loses resource capacity;
    // the shares the loop enacts still fit and the loop remains stable.
    let problem = two_pipeline_problem(40.0);
    let mut opt = Optimizer::new(problem.clone(), opt_config());
    opt.run_to_convergence(5_000);
    let shares0 = ClosedLoop::enactable_shares(&opt);
    let mut sim = Simulator::new(problem.clone(), &shares0, SimConfig::default());
    sim.run_for(5_000.0);
    assert_eq!(sim.dropped(), 0);

    // CPU 1 loses a third of its capacity.
    opt.set_resource_availability(ResourceId::new(1), 0.6).unwrap();
    let outcome = opt.run_to_convergence(20_000);
    assert!(outcome.converged, "must re-converge after availability drop: {outcome:?}");
    // The certified allocation is within δ = 1e-3 of the new capacity;
    // the loop scales what it enacts onto the capacity itself.
    let certified = opt.problem().resource_usage(ResourceId::new(1), opt.allocation().lats());
    assert!(certified <= 0.6 + 1e-3, "certified allocation beyond δ: {certified}");
    let shares1 = ClosedLoop::enactable_shares(&opt);
    let usage: f64 = shares1.iter().map(|row| row[1]).sum();
    assert!(usage <= 0.6 + 1e-6, "new allocation must fit the degraded capacity: {usage}");
    sim.enact_shares(&shares1);
    sim.reset_stats();
    sim.run_for(10_000.0);
    for t in 0..2 {
        assert!(sim.completions(t) > 0);
        assert_eq!(sim.deadline_misses(t), 0, "task {t} missed deadlines after adaptation");
    }
}

#[test]
fn enacted_shares_fit_every_resource() {
    // Certified allocations of this instance overshoot resources by up to
    // δ; every allocation the loop enacts must still fit.
    let problem = RandomWorkloadConfig {
        num_resources: 24,
        num_tasks: 12,
        min_subtasks: 3,
        max_subtasks: 6,
        shape: TaskShape::Mixed,
        exec_time_range: (1.0, 8.0),
        lag: 1.0,
        target_load: 0.85,
        deadline_headroom: 1.5,
        seed: 1,
    }
    .generate()
    .unwrap();
    let mut cl = ClosedLoop::new(
        problem,
        OptimizerConfig::default(),
        SimConfig::default(),
        ClosedLoopConfig { window: 500.0, correction_enabled: true, ..Default::default() },
    );
    let fits = |cl: &ClosedLoop| {
        let problem = cl.optimizer().problem();
        let mut usage = vec![0.0; problem.resources().len()];
        for (task, row) in problem.tasks().iter().zip(cl.current_shares()) {
            for (sub, share) in task.subtasks().iter().zip(row) {
                usage[sub.resource().index()] += share;
            }
        }
        problem.resources().iter().zip(usage).all(|(r, u)| u <= r.availability() + 1e-12)
    };
    let overshoot = |cl: &ClosedLoop| {
        cl.optimizer().problem().max_resource_violation(cl.optimizer().allocation().lats())
    };
    assert!(cl.optimizer().has_converged());
    let mut overshot = overshoot(&cl) > 0.0;
    assert!(fits(&cl), "initial enactment overfills a resource");
    for window in 0..4 {
        cl.step_window();
        overshot |= overshoot(&cl) > 0.0;
        assert!(fits(&cl), "window {window} enacted shares past a resource's availability");
    }
    assert!(overshot, "no certified allocation overshot: the check would be vacuous");
}

#[test]
fn bursty_arrivals_are_sustained() {
    // Bursts stress the generalization that jobs may be released without
    // waiting for previous ones: queues must drain between bursts.
    let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0)];
    let mut b = TaskBuilder::new("bursty");
    b.subtask("s", ResourceId::new(0), 2.0);
    b.critical_time(200.0)
        .utility(UtilityFn::negative_latency())
        .trigger(TriggerSpec::Bursty { period: 50.0, burst: 5 });
    let problem = Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap();

    let mut opt = Optimizer::new(problem.clone(), opt_config());
    opt.run_to_convergence(5_000);
    let shares: Vec<Vec<f64>> =
        problem.tasks().iter().map(|t| opt.allocation().shares(&problem, t)).collect();
    // Throughput floor: 5 jobs per 50ms at 2ms each needs share >= 0.2.
    assert!(shares[0][0] >= 0.2 - 1e-9, "throughput floor violated: {}", shares[0][0]);

    let mut sim = Simulator::new(problem, &shares, SimConfig::default());
    sim.run_for(20_000.0);
    assert_eq!(sim.dropped(), 0, "bursts must be sustained");
    assert!(sim.in_flight() <= 5, "queue must drain between bursts");
    assert_eq!(sim.deadline_misses(0), 0);
}
