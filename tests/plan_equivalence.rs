//! The compiled iteration plan must be indistinguishable from the naive
//! nested-`Vec` code paths it replaces: identical allocations, identical
//! price trajectories, and diagnostics (utility, usage, Lagrangian, KKT)
//! matching to 1e-12 on randomly generated problems — and the opt-in
//! parallel allocation kernel must be *bit-identical* to the sequential
//! one across long seeded runs, including a membership epoch mid-run. The
//! dual value an optimizer's memoised plan computes must be bit-identical
//! to the naive evaluation across every `Problem` mutator.

use lla_core::{
    allocate_latencies, dual_value, kkt_report, lagrangian_value, AllocationSettings, Optimizer,
    OptimizerConfig, Plan, PriceState, Problem, Resource, ResourceId, ResourceKind, StepSizePolicy,
    SubtaskId, TaskBuilder, TaskId, UtilityFn,
};
use lla_workloads::{large_scale_workload, RandomWorkloadConfig, TaskShape};

fn close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0), "{what}: {a} vs {b}");
}

/// Runs `rounds` LLA rounds twice — once through the naive nested-`Vec`
/// path, once through the compiled plan — and checks every intermediate
/// quantity against the other side.
fn check_equivalence(problem: &Problem, rounds: usize) {
    let settings = AllocationSettings::default();
    let policy = StepSizePolicy::sign_adaptive(1.0);

    let mut naive_prices = PriceState::new(problem, policy);
    let mut naive_lats = problem.initial_allocation();

    let plan = Plan::lower(problem, &settings);
    let mut scratch = plan.scratch();
    let mut plan_prices = PriceState::new(problem, policy);
    let mut plan_lats = problem.initial_allocation();

    for round in 0..rounds {
        naive_lats = allocate_latencies(problem, &naive_prices, &settings, &naive_lats);
        naive_prices.update(problem, &naive_lats);

        plan.flatten_into(&plan_lats, scratch.prev_mut());
        plan.allocate_into(&plan_prices, &mut scratch);
        plan.unflatten_into(scratch.lats(), &mut plan_lats);
        plan.price_update(&mut plan_prices, &mut scratch);

        assert_eq!(naive_lats, plan_lats, "allocation diverged at round {round}");
        assert_eq!(naive_prices, plan_prices, "prices diverged at round {round}");

        close(
            problem.total_utility(&naive_lats),
            plan.total_utility(scratch.lats()),
            "total utility",
        );
        for (r, res) in problem.resources().iter().enumerate() {
            close(
                problem.resource_usage(res.id(), &naive_lats),
                scratch.usage()[r],
                "resource usage",
            );
        }
        close(
            problem.max_resource_violation(&naive_lats),
            plan.max_resource_violation(scratch.usage()),
            "max resource violation",
        );
        close(
            problem.max_path_violation(&naive_lats),
            plan.max_path_violation(scratch.path_lat()),
            "max path violation",
        );

        if round % 5 == 0 {
            close(
                lagrangian_value(problem, &naive_lats, &naive_prices),
                plan.lagrangian_value(scratch.lats(), &plan_prices),
                "Lagrangian",
            );
            let naive_kkt = kkt_report(problem, &naive_lats, &naive_prices, &settings, 1e-9);
            let flat: Vec<f64> = scratch.lats().to_vec();
            let plan_kkt = plan.kkt_report(&flat, &plan_prices, 1e-9, &mut scratch);
            close(
                naive_kkt.max_stationarity_residual,
                plan_kkt.max_stationarity_residual,
                "KKT stationarity",
            );
            close(
                naive_kkt.max_resource_violation,
                plan_kkt.max_resource_violation,
                "KKT resource violation",
            );
            close(naive_kkt.max_path_violation, plan_kkt.max_path_violation, "KKT path violation");
            close(
                naive_kkt.max_complementary_slackness,
                plan_kkt.max_complementary_slackness,
                "KKT complementary slackness",
            );
        }
    }
}

#[test]
fn plan_matches_naive_on_random_problems() {
    for seed in 0..6 {
        let cfg = RandomWorkloadConfig {
            num_tasks: 6,
            num_resources: 10,
            shape: TaskShape::Mixed,
            seed,
            ..Default::default()
        };
        let problem = cfg.generate().expect("valid config");
        check_equivalence(&problem, 25);
    }
}

#[test]
fn plan_matches_naive_on_every_shape_family() {
    for (i, shape) in
        [TaskShape::Chain, TaskShape::FanOut, TaskShape::Diamond, TaskShape::RandomDag]
            .into_iter()
            .enumerate()
    {
        let cfg = RandomWorkloadConfig {
            num_tasks: 5,
            shape,
            target_load: 0.95,
            seed: 100 + i as u64,
            ..Default::default()
        };
        let problem = cfg.generate().expect("valid config");
        check_equivalence(&problem, 20);
    }
}

/// Drives the sequential and threaded allocation kernels side by side for
/// 200 rounds and demands *bitwise* identical latencies and prices every
/// round. A membership epoch (admit one task, retire another) lands at
/// round 100; both sides re-lower the plan and must stay identical after
/// it. `RAYON_NUM_THREADS` forces real multi-worker fan-out even on
/// single-core CI runners.
#[test]
fn parallel_allocation_is_bit_identical_to_sequential() {
    std::env::set_var("RAYON_NUM_THREADS", "5");
    let settings = AllocationSettings::default();
    let policy = StepSizePolicy::sign_adaptive(1.0);

    // Large enough that `allocate_into` takes the parallel path when the
    // feature is on (the workspace test suite enables it).
    let mut problem = large_scale_workload(600, 11).expect("valid config");
    assert!(problem.num_subtasks() >= 2048, "workload must clear the parallel threshold");

    let mut plan = Plan::lower(&problem, &settings);
    let mut seq = plan.scratch();
    let mut par = plan.scratch();
    let mut seq_prices = PriceState::new(&problem, policy);
    let mut par_prices = PriceState::new(&problem, policy);
    let init = problem.initial_allocation();
    plan.flatten_into(&init, seq.prev_mut());
    plan.flatten_into(&init, par.prev_mut());

    for round in 0..200 {
        if round == 100 {
            // Membership epoch: admit a newcomer and retire task 3, then
            // re-lower the plan — exactly what the optimizer does when its
            // epoch check fires.
            let mut b = TaskBuilder::new("newcomer");
            let a = b.subtask("n0", ResourceId::new(0), 2.0);
            let c = b.subtask("n1", ResourceId::new(1), 3.0);
            b.edge(a, c).expect("valid edge");
            b.critical_time(400.0);
            let add = problem.add_task(&b).expect("admission");
            seq_prices = seq_prices.remap(&problem, &add);
            par_prices = par_prices.remap(&problem, &add);
            let remove = problem.remove_task(TaskId::new(3)).expect("retirement");
            seq_prices = seq_prices.remap(&problem, &remove);
            par_prices = par_prices.remap(&problem, &remove);

            assert_ne!(plan.epoch(), problem.epoch(), "mutation must stale the plan");
            plan = Plan::lower(&problem, &settings);
            seq = plan.scratch();
            par = plan.scratch();
            let init = problem.initial_allocation();
            plan.flatten_into(&init, seq.prev_mut());
            plan.flatten_into(&init, par.prev_mut());
        }

        plan.allocate_seq(&seq_prices, &mut seq);
        plan.price_update(&mut seq_prices, &mut seq);

        plan.allocate_into(&par_prices, &mut par);
        plan.price_update(&mut par_prices, &mut par);

        assert_eq!(seq.lats(), par.lats(), "latencies diverged at round {round}");
        assert_eq!(seq_prices, par_prices, "prices diverged at round {round}");

        // Next round allocates from this round's output.
        let l: Vec<f64> = seq.lats().to_vec();
        seq.prev_mut().copy_from_slice(&l);
        let l: Vec<f64> = par.lats().to_vec();
        par.prev_mut().copy_from_slice(&l);
    }
}

/// Asserts that `dual_value` equals the naive evaluation — the allocation
/// step from the initial allocation, then the Lagrangian over the nested
/// walk — bit for bit, value and maximiser.
fn assert_dual_is_naive(problem: &Problem, prices: &PriceState, what: &str) {
    let settings = OptimizerConfig::default().allocation;
    let dual = dual_value(problem, prices, &settings);
    let maximizer = allocate_latencies(problem, prices, &settings, &problem.initial_allocation());
    let value = lagrangian_value(problem, &maximizer, prices);
    assert_eq!(dual.value.to_bits(), value.to_bits(), "{what}: {} vs {value}", dual.value);
    assert_eq!(dual.maximizer, maximizer, "{what}: maximiser differs");
}

/// A workload with a concave-utility task (so the allocation reads its
/// initial-allocation start) and a trailing resource nothing runs on (so
/// it can be retired).
fn memo_problem() -> Problem {
    let mut problem = large_scale_workload(30, 5).expect("valid config");
    let mut b = TaskBuilder::new("concave");
    let root = b.subtask("root", ResourceId::new(0), 2.0);
    for (i, r) in [1, 2].into_iter().enumerate() {
        let leaf = b.subtask(format!("leaf{i}"), ResourceId::new(r), 1.5);
        b.edge(root, leaf).expect("valid edge");
    }
    b.critical_time(400.0).utility(UtilityFn::Quadratic { offset: 500.0, lin: 0.5, quad: 0.01 });
    problem.add_task(&b).expect("admission");
    let spare = ResourceId::new(problem.resources().len());
    problem.add_resource(Resource::new(spare, ResourceKind::Cpu).with_lag(1.0)).expect("dense id");
    problem
}

fn memo_config() -> OptimizerConfig {
    OptimizerConfig { record_trace: false, ..OptimizerConfig::default() }
}

/// `dual_value` on an optimizer's problem (which carries the optimizer's
/// memoised plan) matches the naive walk before each mutator, right after
/// it (the edit must drop the memo), and after the next step (which
/// re-lowers and re-installs it); a clone taken before the edit keeps the
/// plan that describes it.
#[test]
fn memoised_plan_dual_matches_naive_across_every_mutator() {
    type Mutator = fn(&mut Optimizer);
    fn first_subtask(o: &Optimizer) -> SubtaskId {
        o.problem().tasks()[0].subtask_id(0)
    }
    fn last_resource(o: &Optimizer) -> ResourceId {
        ResourceId::new(o.problem().resources().len() - 1)
    }
    let mutators: [(&str, Mutator); 9] = [
        ("set_resource_availability", |o| {
            o.set_resource_availability(ResourceId::new(1), 0.7).expect("valid availability")
        }),
        ("set_resource_replicas", |o| {
            // The optimizer has no replica setter: edit a clone of its
            // problem (which shares the memo) and carry the state over.
            let mut problem = o.problem().clone();
            problem.set_resource_replicas(ResourceId::new(2), 2).expect("valid replicas");
            let state = o.export_state();
            *o = Optimizer::new(problem, memo_config());
            o.import_state(state);
        }),
        ("set_correction", |o| o.set_correction(first_subtask(o), -0.5)),
        ("set_demand_scale", |o| o.set_demand_scale(first_subtask(o), 1.2)),
        ("add_task", |o| {
            let mut b = TaskBuilder::new("late");
            b.subtask("s", ResourceId::new(3), 1.0);
            b.critical_time(300.0);
            o.add_task(&b).expect("admission");
        }),
        ("remove_task", |o| {
            o.remove_task(TaskId::new(2)).expect("known task");
        }),
        ("add_resource", |o| {
            let id = ResourceId::new(o.problem().resources().len());
            o.add_resource(Resource::new(id, ResourceKind::Cpu).with_lag(0.5)).expect("dense id");
        }),
        ("retire_resource", |o| {
            o.retire_resource(last_resource(o)).expect("spare resource is idle");
        }),
        ("reassign_resource", |o| {
            o.reassign_resource(ResourceId::new(4), last_resource(o)).expect("known resources");
        }),
    ];
    for (name, mutate) in mutators {
        let mut opt = Optimizer::new(memo_problem(), memo_config());
        opt.run(40);
        assert_dual_is_naive(opt.problem(), opt.prices(), &format!("before {name}"));
        let (clone, clone_prices) = (opt.problem().clone(), opt.prices().clone());
        mutate(&mut opt);
        assert_dual_is_naive(opt.problem(), opt.prices(), &format!("right after {name}"));
        assert_dual_is_naive(&clone, &clone_prices, &format!("clone taken before {name}"));
        opt.step();
        assert_dual_is_naive(opt.problem(), opt.prices(), &format!("step after {name}"));
    }
}
