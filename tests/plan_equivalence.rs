//! The compiled iteration plan must be indistinguishable from the naive
//! nested-`Vec` code paths it replaces: identical allocations, identical
//! price trajectories, and diagnostics (utility, usage, violations)
//! matching to 1e-12 on randomly generated problems — and the opt-in
//! parallel allocation kernel must be *bit-identical* to the sequential
//! one across long seeded runs, including a membership epoch mid-run. The
//! dual value an optimizer's memoised plan computes must be bit-identical
//! to the naive evaluation across every `Problem` mutator, and so must the
//! dual of the optimizer's certificate; the same holds for the shard plans
//! a `ShardedOptimizer` memoises, on contiguous and interleaved partitions
//! and across the sharded driver's edits.

use lla_core::{
    allocate_latencies, dual_value, lagrangian_value, AllocationSettings, Optimizer,
    OptimizerConfig, Plan, PriceState, Problem, Resource, ResourceId, ResourceKind, ResourceOwner,
    ShardSpec, ShardedOptimizer, StepSizePolicy, SubtaskId, TaskBuilder, TaskId, UtilityFn,
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

        scratch.prev_mut().copy_from_slice(&plan_lats.concat());
        plan.allocate_into(&plan_prices, &mut scratch);
        for (t, row) in plan_lats.iter_mut().enumerate() {
            row.copy_from_slice(&scratch.lats()[plan.task_range(t)]);
        }
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
    let _env = RAYON_ENV.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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
    seq.prev_mut().copy_from_slice(&init.concat());
    par.prev_mut().copy_from_slice(&init.concat());

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
            seq.prev_mut().copy_from_slice(&init.concat());
            par.prev_mut().copy_from_slice(&init.concat());
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
    assert_eq!(dual.maximizer(), maximizer, "{what}: maximiser differs");
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

type Mutator = fn(&mut Optimizer);

/// Every `Problem` mutator, applied through an optimizer (or, for the
/// replica count, which has no optimizer setter, through a clone of its
/// problem with the state carried over).
fn mutators() -> [(&'static str, Mutator); 9] {
    fn first_subtask(o: &Optimizer) -> SubtaskId {
        o.problem().tasks()[0].subtask_id(0)
    }
    fn last_resource(o: &Optimizer) -> ResourceId {
        ResourceId::new(o.problem().resources().len() - 1)
    }
    [
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
    ]
}

/// `dual_value` on an optimizer's problem (which carries the optimizer's
/// memoised plan) matches the naive walk before each mutator, right after
/// it (the edit must drop the memo), and after the next step (which
/// re-lowers and re-installs it); a clone taken before the edit keeps the
/// plan that describes it.
#[test]
fn memoised_plan_dual_matches_naive_across_every_mutator() {
    for (name, mutate) in mutators() {
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

/// `Optimizer::certify` evaluates `D(μ, λ)` on the optimizer's own plan,
/// or on a temporary one while an edit has left it stale; either way its
/// dual is `dual_value` at the same prices, bit for bit.
#[test]
fn certify_dual_is_dual_value_bit_for_bit() {
    let settings = memo_config().allocation;
    let assert_same = |opt: &Optimizer, what: &str| {
        let (cert, want) = (opt.certify(), dual_value(opt.problem(), opt.prices(), &settings));
        assert_eq!(cert.dual.to_bits(), want.value.to_bits(), "{what}: {cert:?} vs {}", want.value);
        assert_eq!(cert.gap, cert.dual - opt.utility(), "{what}");
    };
    for (name, mutate) in mutators() {
        let mut opt = Optimizer::new(memo_problem(), memo_config());
        assert_same(&opt, &format!("before any round, {name}"));
        opt.run(40);
        assert_same(&opt, &format!("before {name}"));
        mutate(&mut opt);
        assert_same(&opt, &format!("right after {name}"));
        opt.step();
        assert_same(&opt, &format!("step after {name}"));
    }
}

/// [`memo_problem`] plus a task alone on a resource of its own, so every
/// partition has a resource exactly one shard touches. Its two stages
/// share that resource, which keeps it priced (`μ_solo > 0`), so `D`
/// reads its `B_r`.
fn sharded_memo_problem() -> (Problem, ResourceId) {
    let mut problem = memo_problem();
    let solo = ResourceId::new(problem.resources().len());
    problem.add_resource(Resource::new(solo, ResourceKind::Cpu).with_lag(1.0)).expect("dense id");
    let mut b = TaskBuilder::new("solo");
    let first = b.subtask("first", solo, 2.0);
    let second = b.subtask("second", solo, 2.0);
    b.edge(first, second).expect("valid edge");
    b.critical_time(40.0);
    problem.add_task(&b).expect("admission");
    (problem, solo)
}

/// Contiguous 2- and 4-shard specs and an interleaved one.
fn shard_specs(tasks: usize) -> [(&'static str, ShardSpec); 3] {
    let interleaved = (0..3).map(|k| (k..tasks).step_by(3).collect()).collect();
    [
        ("2 contiguous shards", ShardSpec::contiguous(tasks, 2)),
        ("4 contiguous shards", ShardSpec::contiguous(tasks, 4)),
        ("3 interleaved shards", ShardSpec::from_groups(interleaved)),
    ]
}

type ShardMutator = fn(&mut ShardedOptimizer, ResourceId);

/// The sharded driver's edits: a join into shard 0 (which leaves a
/// contiguous shard non-contiguous), a leave, an availability dip on a
/// resource one shard touches (which re-lowers that shard only), and a
/// checkpoint restore.
fn shard_mutators() -> [(&'static str, ShardMutator); 4] {
    [
        ("add_task into shard 0", |o, _| {
            let mut b = TaskBuilder::new("late");
            b.subtask("s", ResourceId::new(3), 1.0);
            b.critical_time(300.0);
            o.add_task(&b, Some(0)).expect("admission");
        }),
        ("remove_task", |o, _| {
            o.remove_task(TaskId::new(2)).expect("known task");
        }),
        ("availability dip", |o, solo| {
            assert!(matches!(o.resource_owner(solo.index()), ResourceOwner::Shard(_)));
            assert!(
                o.export_state().prices().mu(solo.index()) > 0.0,
                "the solo resource is priced"
            );
            o.set_resource_availability(solo, 0.6).expect("valid availability");
        }),
        ("try_import_state", |o, _| {
            let mut ahead = o.clone();
            ahead.run(7);
            o.try_import_state(ahead.export_state(), None).expect("same shape");
        }),
    ]
}

/// The sharded twin of `memoised_plan_dual_matches_naive_across_every_mutator`:
/// a `ShardedOptimizer`'s problem carries its shard plans, and
/// `dual_value` at the driver's exported prices matches the naive walk
/// before each edit, right after it (which re-installs the plans), after
/// the next round, and on a clone of the problem taken before the edit.
#[test]
fn sharded_memo_dual_matches_naive_across_every_mutator() {
    let (problem, solo) = sharded_memo_problem();
    for (spec_name, spec) in shard_specs(problem.tasks().len()) {
        for (name, mutate) in shard_mutators() {
            let what = |when: &str| format!("{spec_name}, {when} {name}");
            let mut opt = ShardedOptimizer::new(problem.clone(), memo_config(), spec.clone())
                .expect("partition");
            opt.run(40);
            let prices = opt.export_state().prices().clone();
            assert_dual_is_naive(opt.problem(), &prices, &what("before"));
            let clone = opt.problem().clone();
            mutate(&mut opt, solo);
            let after = opt.export_state().prices().clone();
            assert_dual_is_naive(opt.problem(), &after, &what("right after"));
            assert_dual_is_naive(&clone, &prices, &what("clone taken before"));
            opt.step();
            let stepped = opt.export_state().prices().clone();
            assert_dual_is_naive(opt.problem(), &stepped, &what("step after"));
        }
    }
}

/// The sharded twin of `certify_dual_is_dual_value_bit_for_bit`:
/// `ShardedOptimizer::certify` evaluates `D(μ, λ)` on its shard plans at
/// the authoritative μ and the shards' λ rows, which is `dual_value` at
/// the exported prices, bit for bit, across the same edits.
#[test]
fn sharded_certify_dual_is_dual_value_bit_for_bit() {
    let settings = memo_config().allocation;
    let assert_same = |opt: &ShardedOptimizer, what: &str| {
        let state = opt.export_state();
        let (cert, want) = (opt.certify(), dual_value(opt.problem(), state.prices(), &settings));
        assert_eq!(cert.dual.to_bits(), want.value.to_bits(), "{what}: {cert:?} vs {}", want.value);
        assert_eq!(cert.capped_fixed_points, want.capped_fixed_points, "{what}");
        assert_eq!(cert.gap, cert.dual - opt.utility(), "{what}");
    };
    let (problem, solo) = sharded_memo_problem();
    for (spec_name, spec) in shard_specs(problem.tasks().len()) {
        for (name, mutate) in shard_mutators() {
            let what = |when: &str| format!("{spec_name}, {when} {name}");
            let mut opt = ShardedOptimizer::new(problem.clone(), memo_config(), spec.clone())
                .expect("partition");
            assert_same(&opt, &what("before any round,"));
            opt.run(40);
            assert_same(&opt, &what("before"));
            mutate(&mut opt, solo);
            assert_same(&opt, &what("right after"));
            opt.step();
            assert_same(&opt, &what("step after"));
        }
    }
}

/// Builds `count` tasks that interleave Linear, Quadratic and
/// ExponentialPenalty utilities over six resources. Every task fans a root
/// out to three leaves, and every third task puts a middle stage before
/// them, so a root lies on three paths and its λ-sum adds three terms.
/// The utilities are flat (`|f′|` well below the λ-sum), so a change of
/// summation order that moves the λ-sum's last bit moves the latency too.
fn mixed_builders(count: usize) -> Vec<TaskBuilder> {
    (0..count)
        .map(|k| {
            let r = |i: usize| ResourceId::new((k + i) % 6);
            let mut b = TaskBuilder::new(format!("mixed{k}"));
            let root = b.subtask("root", r(0), 1.0 + 0.25 * k as f64);
            let head = if k % 3 == 2 {
                let mid = b.subtask("mid", r(1), 1.5);
                b.edge(root, mid).expect("valid edge");
                mid
            } else {
                root
            };
            for leaf in 0..3 {
                let s = b.subtask(format!("leaf{leaf}"), r(2 + leaf), 0.5 + 0.5 * leaf as f64);
                b.edge(head, s).expect("valid edge");
            }
            b.critical_time(30.0 + 7.0 * k as f64).utility(match k % 3 {
                0 => UtilityFn::Linear { offset: 400.0, slope: -0.05 - 0.01 * k as f64 },
                1 => UtilityFn::Quadratic { offset: 500.0, lin: 0.05, quad: 0.001 },
                _ => UtilityFn::ExponentialPenalty { offset: 300.0, a: 0.5, b: 0.02 },
            });
            b
        })
        .collect()
}

/// The problem made of `builders[k]` for every `k` in `pick`, in that
/// order, over the same six resources, with a latency correction on the
/// root of builders 0, 1, 4, 5 and 8.
fn mixed_problem(builders: &[TaskBuilder], pick: &[usize]) -> Problem {
    let resources = (0..6)
        .map(|r| Resource::new(ResourceId::new(r), ResourceKind::Cpu).with_lag(0.5))
        .collect();
    let tasks = pick
        .iter()
        .enumerate()
        .map(|(id, &k)| builders[k].build(TaskId::new(id)).expect("valid task"))
        .collect();
    let mut problem = Problem::new(resources, tasks).expect("valid problem");
    for (local, _) in pick.iter().enumerate().filter(|(_, &k)| k % 4 < 2) {
        let s = problem.tasks()[local].subtask_id(0);
        problem.set_correction(s, 0.3);
    }
    problem
}

/// Nonzero starting duals, the same on both sides: λ = 0.1, 0.2, 0.3 on
/// each task's three paths, whose sum depends on its order
/// (`0.1 + 0.2 + 0.3 ≠ 0.3 + 0.2 + 0.1` in `f64`), and a μ on every
/// resource high enough to keep the roots inside their clamping boxes.
fn seed_duals(problem: &Problem, prices: &mut PriceState) {
    for (t, task) in problem.tasks().iter().enumerate() {
        for p in 0..task.graph().paths().len() {
            prices.set_lambda(t, p, [0.1, 0.2, 0.3][p % 3]);
        }
    }
    for r in 0..problem.resources().len() {
        prices.set_mu(r, 20.0 + r as f64);
    }
}

fn assert_bits(a: &[f64], b: &[f64], what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{what}: {a:?} vs {b:?}");
}

/// Asserts that two price states agree bit for bit on μ, λ, both step
/// sizes and the three counters (and on everything else by `PartialEq`).
fn assert_prices_bitwise(problem: &Problem, got: &PriceState, want: &PriceState, what: &str) {
    assert_bits(got.mus(), want.mus(), &format!("{what}: μ"));
    let res = 0..problem.resources().len();
    let gammas = |p: &PriceState| res.clone().map(|r| p.gamma_r(r)).collect::<Vec<_>>();
    assert_bits(&gammas(got), &gammas(want), &format!("{what}: γ_r"));
    for (t, task) in problem.tasks().iter().enumerate() {
        assert_bits(got.lambdas(t), want.lambdas(t), &format!("{what}: λ row {t}"));
        let paths = 0..task.graph().paths().len();
        let gammas = |p: &PriceState| paths.clone().map(|i| p.gamma_p(t, i)).collect::<Vec<_>>();
        assert_bits(&gammas(got), &gammas(want), &format!("{what}: γ_p row {t}"));
    }
    assert_eq!(
        got.last_max_rel_step().to_bits(),
        want.last_max_rel_step().to_bits(),
        "{what}: last_max_rel_step"
    );
    assert_eq!(got.rejected_samples(), want.rejected_samples(), "{what}: rejected samples");
    assert_eq!(got.gamma_doublings(), want.gamma_doublings(), "{what}: γ doublings");
    assert_eq!(got, want, "{what}: price state");
}

/// The round at which the first task's latencies are overwritten after
/// the allocation, on both sides: its root at 0 (below its correction)
/// makes its resource's usage infinite, and a leaf at ∞ makes a path
/// infinitely long, so that round's price step meets a non-finite μ and
/// λ gradient.
const POISONED_ROUND: usize = 4;

/// Which plan kernels a run drives.
#[derive(Clone, Copy, Debug)]
enum Driver {
    /// `allocate_seq` + `price_update` on the full plan.
    Sequential,
    /// `allocate_par` (three workers) + `price_update` on the full plan.
    Parallel,
    /// A `lower_subset` plan over the even tasks, with resources of odd
    /// index unowned: `allocate_seq`, `owned_resource_steps`, the unowned
    /// μ steps as a coordinator takes them, then `path_price_steps`.
    Shard,
}

/// Serialises the tests that set `RAYON_NUM_THREADS`.
static RAYON_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `rounds` rounds of `driver` against `allocate_latencies` +
/// `PriceState::update` on the problem the plan describes, comparing
/// latencies and duals bit for bit after every round.
fn check_bit_identity(driver: Driver, policy: StepSizePolicy, rounds: usize) {
    let builders = mixed_builders(9);
    let all: Vec<usize> = (0..builders.len()).collect();
    let full = mixed_problem(&builders, &all);
    let settings = AllocationSettings::default();
    let (plan, reference) = match driver {
        Driver::Sequential | Driver::Parallel => (Plan::lower(&full, &settings), full.clone()),
        Driver::Shard => {
            let even: Vec<usize> = all.iter().copied().filter(|k| k % 2 == 0).collect();
            (Plan::lower_subset(&full, &settings, &even), mixed_problem(&builders, &even))
        }
    };
    let owned: Vec<bool> = (0..reference.resources().len()).map(|r| r % 2 == 0).collect();
    let what = |round: usize| format!("{driver:?} under {policy:?}, round {round}");

    let mut want_prices = PriceState::new(&reference, policy);
    seed_duals(&reference, &mut want_prices);
    let mut got_prices = want_prices.clone();
    let mut want_lats = reference.initial_allocation();
    let mut scratch = plan.scratch();
    scratch.prev_mut().copy_from_slice(&want_lats.concat());

    for round in 0..rounds {
        want_lats = allocate_latencies(&reference, &want_prices, &settings, &want_lats);
        match driver {
            Driver::Sequential | Driver::Shard => plan.allocate_seq(&got_prices, &mut scratch),
            Driver::Parallel => plan.allocate_par(&got_prices, &mut scratch),
        }
        if round == POISONED_ROUND {
            // Task 0 is linear, so no fixed point reads these as a warm
            // start in the next round.
            let first = plan.task_range(0);
            for (row, flat) in [(0, first.start), (want_lats[0].len() - 1, first.end - 1)] {
                let poison = if row == 0 { 0.0 } else { f64::INFINITY };
                want_lats[0][row] = poison;
                scratch.lats_mut()[flat] = poison;
            }
        }
        let flat = want_lats.concat();
        assert_bits(scratch.lats(), &flat, &format!("{}: latencies", what(round)));

        want_prices.update(&reference, &want_lats);
        match driver {
            Driver::Sequential | Driver::Parallel => {
                plan.price_update(&mut got_prices, &mut scratch);
            }
            Driver::Shard => {
                plan.owned_resource_steps(&mut got_prices, &mut scratch, &owned);
                for (r, _) in owned.iter().enumerate().filter(|(_, &own)| !own) {
                    let grad = plan.availability()[r] - scratch.usage()[r];
                    got_prices.apply_resource_step(r, grad);
                    scratch.congested_mut()[r] = grad < 0.0;
                }
                plan.path_price_steps(&mut got_prices, &mut scratch);
            }
        }
        assert_prices_bitwise(&reference, &got_prices, &want_prices, &what(round));

        let lats = scratch.lats().to_vec();
        scratch.prev_mut().copy_from_slice(&lats);
    }
    assert!(got_prices.rejected_samples() > 0, "{}: no gradient was rejected", what(rounds));
}

/// The plan's flat kernels — λ-sum scatter, linear pass, concave fixed
/// points, the resource and path passes — step by step equal the nested
/// reference bit for bit on a plan mixing all three utility families,
/// under every step-size policy, through the sequential, threaded and
/// shard (owned-mask) drivers, including a round with non-finite
/// gradients.
#[test]
fn flat_kernels_are_bit_identical_to_the_reference() {
    let _env = RAYON_ENV.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    std::env::set_var("RAYON_NUM_THREADS", "3");
    for policy in [
        StepSizePolicy::fixed(0.5),
        StepSizePolicy::adaptive(1.0),
        StepSizePolicy::sign_adaptive(1.0),
    ] {
        for driver in [Driver::Sequential, Driver::Parallel, Driver::Shard] {
            check_bit_identity(driver, policy, 12);
        }
    }
}
