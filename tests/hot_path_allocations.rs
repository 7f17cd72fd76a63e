//! Heap-allocation budgets of the hot paths, counted by this binary's
//! global allocator: an `Optimizer::step` without a trace allocates
//! nothing, and neither does a `ShardedOptimizer::step_timed` under the
//! default market-clearing price method; `D(μ, λ)` on a driver's memoised plans grows the thread's
//! working buffers to the problem and then allocates nothing for
//! `certify` and only the flat maximiser and its row offsets for
//! `dual_value`, the same at any problem size, for an `Optimizer` and a
//! `ShardedOptimizer` alike; and a `DistributedLla` round in wire mode
//! moves every message without touching the heap. Deploying one costs
//! what its agents need: telemetry that is off allocates nothing, set-up
//! stays under a flat number of allocations per agent, and a resource
//! agent's bytes do not grow with the deployment. `Optimizer::new` makes
//! the same number of allocations at any task count. A `Problem` clone
//! copies a few flat tables and blocks per task, the same per task at any
//! size. Each test runs on a thread of its own, so its first evaluation
//! starts from empty buffers.

use lla::core::{
    dual_value, Optimizer, OptimizerConfig, PriceMethod, Problem, Resource, ResourceId,
    ResourceKind, ShardSpec, ShardedOptimizer, TaskBuilder, TaskId,
};
use lla::dist::agents::{DeploymentContext, ResourceAgent};
use lla::dist::{
    Address, AgentTelemetry, DistConfig, DistTelemetry, DistributedLla, AGENT_METRICS,
};
use lla::telemetry::{
    AgentScope, Counter, Event, EventLog, Gauge, Histogram, MetricsRegistry, Profiler,
    SpanRecorder, TelemetryHub, TraceCtx,
};
use lla::workloads::{large_scale_workload, RandomWorkloadConfig, TaskShape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts allocations, and the bytes they request, made on the current
/// thread, so the test harness's own threads do not disturb a
/// measurement.
struct Counting;

/// What a measured closure allocated: calls into the allocator and the
/// bytes they requested (a `realloc` counts its new size).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tally {
    count: usize,
    bytes: usize,
}

thread_local! {
    static ALLOCATIONS: Cell<Tally> = const { Cell::new(Tally { count: 0, bytes: 0 }) };
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS
        .try_with(|t| t.set(Tally { count: t.get().count + 1, bytes: t.get().bytes + bytes }));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with what it allocated.
fn tally<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    (out, Tally { count: after.count - before.count, bytes: after.bytes - before.bytes })
}

/// Runs `f` and returns its result with the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (out, t) = tally(f);
    (out, t.count)
}

#[test]
fn step_allocates_nothing_and_dual_value_stays_flat() {
    let problem = large_scale_workload(100, 3).expect("valid config");
    let tasks = problem.tasks().len();
    let config = OptimizerConfig { record_trace: false, ..OptimizerConfig::default() };
    let mut opt = Optimizer::new(problem, config);
    // The first round lowers the plan; rounds after it reuse everything.
    opt.run(5);

    let ((), n) = allocations(|| {
        for _ in 0..50 {
            opt.step();
        }
    });
    assert_eq!(n, 0, "50 steps made {n} heap allocations");

    // The first evaluation grows the thread's working buffers (five, or six
    // with a concave task's warm start); the report adds the flat
    // maximiser and its row offsets.
    let (first, n) = allocations(|| dual_value(opt.problem(), opt.prices(), &config.allocation));
    assert!(n <= 8, "the first dual_value made {n} allocations at {tasks} tasks");
    let (dual, n) = allocations(|| dual_value(opt.problem(), opt.prices(), &config.allocation));
    assert_eq!(n, 2, "dual_value made {n} allocations at {tasks} tasks with its buffers grown");
    assert_eq!(dual, first);
    assert_eq!(dual.maximizer().len(), tasks);
}

#[test]
fn certify_allocates_a_constant_number_of_buffers() {
    let counts: Vec<usize> = [100, 400]
        .into_iter()
        .map(|tasks| {
            let problem = large_scale_workload(tasks, 3).expect("valid config");
            let config = OptimizerConfig { record_trace: false, ..OptimizerConfig::default() };
            let mut opt = Optimizer::new(problem, config);
            opt.run(5);
            // The first value-only dual grows the working buffers, and the
            // larger problem grows every one of them again.
            let (cert, n) = allocations(|| opt.certify());
            assert!(cert.dual.is_finite());
            let ((), steps) = allocations(|| {
                for _ in 0..20 {
                    opt.step();
                    opt.certify();
                }
            });
            assert_eq!(steps, 0, "steps and certificates must allocate nothing");
            n
        })
        .collect();
    assert_eq!(counts[0], counts[1], "certify allocations grew with the task count");
    assert!(counts[0] <= 6, "certify made {} allocations", counts[0]);
}

/// A two-shard driver's problem carries its shard plans, so `dual_value`
/// at its exported prices makes the same allocations at 200 and at 2000
/// tasks (the first call at each size grows the working buffers), and
/// `certify` none once they have grown.
#[test]
fn sharded_dual_value_allocates_the_same_at_any_size() {
    let counts: Vec<(usize, usize)> = [200, 2000]
        .into_iter()
        .map(|tasks| {
            let problem = large_scale_workload(tasks, 3).expect("valid config");
            let config = OptimizerConfig { record_trace: false, ..OptimizerConfig::default() };
            let spec = ShardSpec::contiguous(tasks, 2);
            let mut opt = ShardedOptimizer::new(problem, config, spec).expect("partition");
            opt.run(5);
            let state = opt.export_state();
            let dual = || dual_value(opt.problem(), state.prices(), &config.allocation);
            let (first, grown) = allocations(dual);
            let (again, n) = allocations(dual);
            assert_eq!(again, first);
            assert_eq!(again.maximizer().len(), tasks);
            let (cert, certify) = allocations(|| opt.certify());
            assert_eq!(cert.dual.to_bits(), again.value.to_bits());
            assert_eq!(certify, 0, "certify allocated {certify} times at {tasks} tasks");
            (grown, n)
        })
        .collect();
    assert_eq!(counts[0], counts[1], "dual_value allocations grew with the task count");
    assert!(counts[0].0 <= 8 && counts[0].1 == 2, "dual_value allocations: {:?}", counts[0]);
}

/// Market-clearing rounds (the default price method) allocate nothing
/// once the sweep's term buffers have grown to the largest resource and
/// path: an `Optimizer::step` and a two-shard `ShardedOptimizer::step_timed`
/// (whose decomposition lives in a buffer the driver reuses), at 200 and
/// at 2000 tasks. A clearing round computes its latencies in its task
/// pass, which never fans out; at 2000 tasks the gradient round's
/// allocation kernel does (this binary builds lla-core with `parallel`),
/// and spawning the workers allocates, so the gradient count is nonzero
/// there.
#[test]
fn clearing_rounds_allocate_nothing() {
    for tasks in [200, 2000] {
        let problem = large_scale_workload(tasks, 3).expect("valid config");
        let config = OptimizerConfig { record_trace: false, ..OptimizerConfig::default() };
        let steps = |config: OptimizerConfig| {
            let mut opt = Optimizer::new(problem.clone(), config);
            opt.run(5);
            allocations(|| {
                for _ in 0..20 {
                    opt.step();
                }
            })
            .1
        };
        let n = steps(config);
        let fan_out = steps(OptimizerConfig { price_method: PriceMethod::Gradient, ..config });
        assert_eq!(fan_out == 0, tasks == 200, "{fan_out} allocations in 20 gradient steps");
        assert_eq!(n, 0, "20 clearing steps made {n} heap allocations at {tasks} tasks");

        let spec = ShardSpec::contiguous(tasks, 2);
        let mut sharded = ShardedOptimizer::new(problem, config, spec).expect("partition");
        for _ in 0..5 {
            sharded.step_timed();
        }
        let ((), n) = allocations(|| {
            for _ in 0..20 {
                let (_, timing) = sharded.step_timed();
                assert_eq!(timing.shard_ns.len(), 2);
            }
        });
        assert_eq!(n, 0, "20 sharded clearing rounds made {n} heap allocations at {tasks} tasks");
    }
}

#[test]
fn dist_round_allocates_nothing_in_wire_mode() {
    let problem = large_scale_workload(100, 3).expect("valid config");
    let config = DistConfig { wire_mode: true, ..DistConfig::default() };
    let mut dist = DistributedLla::new(problem, config);
    // Warm-up: the runtime's queues, outbox and frame buffer, and the
    // facade's round rows, reach their working sizes.
    dist.run_rounds(5);
    let sent = dist.messages_sent();

    let ((), n) = allocations(|| dist.run_rounds(10));
    assert!(dist.messages_sent() > sent, "the rounds must move messages");
    assert_eq!(dist.frames_rejected(), 0);
    // The utility history gains one entry per round and doubles its
    // capacity when full: from 5 entries to 15 it grows once, at the 9th.
    // That is the only allocation allowed; messages, events, frames and
    // the round's utility rows make none.
    assert!(n <= 1, "10 wire-mode rounds made {n} heap allocations");
}

/// Telemetry that is switched off costs nothing: every disabled handle
/// holds no shared cell, so building, cloning, updating and dropping one
/// allocate nothing, and a scope on a disabled registry formats no series
/// name. That covers the bundle each deployed agent carries.
#[test]
fn disabled_telemetry_allocates_nothing() {
    let ((), n) = allocations(|| {
        let counter = Counter::disabled();
        counter.clone().inc();
        let gauge = Gauge::disabled();
        gauge.clone().set(1.5);
        let histogram = Histogram::disabled();
        histogram.clone().observe(1.5);
        let events = EventLog::disabled();
        events.clone().emit(Event::new(0.0, "off"));
        let spans = SpanRecorder::disabled();
        spans.clone().instant("off", "track", 0.0, TraceCtx::NONE);
        let profiler = Profiler::disabled();
        drop(profiler.clone().scope("off"));
        let registry = MetricsRegistry::disabled();
        registry.clone().counter_with("lla_off_total", "off", &[("agent", "off")]).inc();
        drop(TelemetryHub::disabled().clone());
        let tel = DistTelemetry::disabled();
        tel.clone().messages_sent.inc();
        let scope = AgentScope::new(&registry, "resource[0]", AGENT_METRICS);
        scope.inc(0);
        let agent = AgentTelemetry::new(&tel, Address::Resource(0), 0.0);
        agent.inc(0);
        assert_eq!(counter.get() + tel.messages_sent.get() + agent.emitted(), 0);
    });
    assert_eq!(n, 0, "disabled telemetry made {n} heap allocations");
}

/// Deploying costs what the agents need: at most 25 allocations per agent
/// (controllers, resource agents and the control plane) with telemetry
/// off, at 50 and at 200 tasks.
#[test]
fn dist_setup_allocations_stay_flat_per_agent() {
    for tasks in [50, 200] {
        let problem = large_scale_workload(tasks, 3).expect("valid config");
        let agents = problem.tasks().len() + problem.resources().len() + 1;
        let config = DistConfig { wire_mode: true, ..DistConfig::default() };
        let (dist, n) = allocations(|| DistributedLla::new(problem, config));
        assert_eq!(dist.rounds(), 0);
        assert!(
            n <= 25 * agents,
            "DistributedLla::new made {n} allocations for {agents} agents at {tasks} tasks"
        );
    }
}

/// `Optimizer::new` keeps its latencies in one flat store and lowers no
/// plan: it makes the same number of allocations at 200 tasks as at
/// 2000. One row per task would add 1800.
#[test]
fn optimizer_setup_allocations_do_not_grow_with_the_tasks() {
    let counts: Vec<usize> = [200, 2_000]
        .into_iter()
        .map(|tasks| {
            let problem = flat(tasks);
            let (opt, n) = allocations(|| Optimizer::new(problem, OptimizerConfig::default()));
            assert_eq!(opt.iterations(), 0);
            n
        })
        .collect();
    assert_eq!(counts[0], counts[1], "Optimizer::new made {counts:?} allocations");
}

/// `tasks` single-subtask tasks, each on a resource of its own, plus a
/// shared resource 0 that hosts the second subtask of tasks 0 and 1 only:
/// the same hosted set at any size.
fn two_on_shared_resource(tasks: usize) -> Problem {
    let resources = (0..=tasks)
        .map(|r| Resource::new(ResourceId::new(r), ResourceKind::Cpu).with_lag(1.0))
        .collect();
    let tasks = (0..tasks)
        .map(|t| {
            let mut b = TaskBuilder::new(format!("t{t}"));
            let head = b.subtask("head", ResourceId::new(t + 1), 2.0);
            if t < 2 {
                let tail = b.subtask("tail", ResourceId::new(0), 2.0);
                b.edge(head, tail).expect("acyclic");
            }
            b.critical_time(60.0);
            b.build(TaskId::new(t)).expect("valid task")
        })
        .collect();
    Problem::new(resources, tasks).expect("valid problem")
}

/// A resource agent holds the state of its own resource: the duals of
/// one resource and its hosted subtasks, with no per-task or per-resource
/// table. Its construction allocates the same bytes for a deployment of
/// 50 tasks as for one of 400 hosting the same subtasks on it.
#[test]
fn resource_agent_bytes_do_not_grow_with_the_deployment() {
    let config = DistConfig::default();
    let tallies: Vec<Tally> = [50, 400]
        .into_iter()
        .map(|tasks| {
            let problem = Arc::new(two_on_shared_resource(tasks));
            let ctx = Arc::new(DeploymentContext::new(problem, &config, DistTelemetry::disabled()));
            let (agent, t) = tally(|| ResourceAgent::new(&ctx, 0));
            assert_eq!(agent.mu(), 0.0);
            t
        })
        .collect();
    assert_eq!(tallies[0], tallies[1], "ResourceAgent::new grew with the deployment");
}

/// A flat random instance: three resources per task, three to six
/// subtasks per task in mixed shapes (perfbench's `flat-cold` family).
fn flat(tasks: usize) -> Problem {
    let config = RandomWorkloadConfig {
        num_resources: 3 * tasks,
        num_tasks: tasks,
        min_subtasks: 3,
        max_subtasks: 6,
        shape: TaskShape::Mixed,
        exec_time_range: (1.0, 8.0),
        lag: 1.0,
        target_load: 0.85,
        deadline_headroom: 1.5,
        seed: 11,
    };
    config.generate().expect("valid config")
}

/// What one `Problem::clone` allocates per task, at 1k and 4k tasks.
fn clone_tallies_per_task() -> Vec<(usize, f64, f64)> {
    [1_000, 4_000]
        .into_iter()
        .map(|tasks| {
            let problem = flat(tasks);
            let (copy, t) = tally(|| problem.clone());
            assert_eq!(copy, problem);
            (tasks, t.count as f64 / tasks as f64, t.bytes as f64 / tasks as f64)
        })
        .collect()
}

/// The task model is stored flat: a clone makes at most 12 allocations
/// per task at any size (11.5 measured: the names of the task, its
/// subtasks and its three resources, the subtask and weight arrays and one
/// graph block). One `Vec` per resource row of `S_r` would add about 1.8.
#[test]
fn problem_clone_allocations_stay_flat_per_task() {
    for (tasks, per_task, _) in clone_tallies_per_task() {
        assert!(
            per_task <= 12.0,
            "Problem::clone made {per_task:.2} allocations per task at {tasks}"
        );
    }
}

/// A clone requests at most 1.6 KB per task, and the same per task
/// (within 10%) at 1k and 4k tasks.
#[test]
fn problem_bytes_per_task_do_not_grow() {
    let tallies = clone_tallies_per_task();
    for &(tasks, _, bytes) in &tallies {
        assert!(bytes <= 1_600.0, "Problem::clone requested {bytes:.0} B per task at {tasks}");
    }
    let (small, large) = (tallies[0].2, tallies[1].2);
    assert!(
        (large - small).abs() <= 0.1 * small,
        "bytes per task moved from {small:.0} to {large:.0} between 1k and 4k tasks"
    );
}
