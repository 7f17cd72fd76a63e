//! Seeded instance generation for each workload, and the guard that
//! refuses to time an instance LLA cannot certify.
//!
//! The guard checks two things before any clock starts:
//!
//! * the generator's witness allocation (every subtask on `r` gets an
//!   equal slice of `target_load · B_r`) is feasible, so the instance is
//!   schedulable;
//! * the throughput-floor demand `Σ rate·WCET` on every resource stays at
//!   most `FLOOR_MARGIN · B_r`. Above `B_r` the allocator's upper clamps
//!   cannot all hold and the solve stalls at a fixed violation while the
//!   dual falls, which reads as "slow" rather than "unschedulable".

use crate::Report;
use lla_core::{Problem, ShardSpec, TaskBuilder, TaskId};
use lla_workloads::{ClusteredWorkloadConfig, RandomWorkloadConfig, TaskShape};

/// Largest admitted throughput-floor load as a share of `B_r`.
pub const FLOOR_MARGIN: f64 = 0.8;

/// Flat random instance with three resources per task. The scaling
/// sweep's one resource per two tasks overloads the throughput floor, and
/// with one or two per task the busiest resource of some seeds passes
/// or nears `FLOOR_MARGIN`.
pub fn flat(num_tasks: usize, seed: u64) -> RandomWorkloadConfig {
    RandomWorkloadConfig {
        num_resources: (3 * num_tasks).max(8),
        num_tasks,
        min_subtasks: 3,
        max_subtasks: 6,
        shape: TaskShape::Mixed,
        exec_time_range: (1.0, 8.0),
        lag: 1.0,
        target_load: 0.85,
        deadline_headroom: 1.5,
        seed,
    }
}

/// Four clusters with three resources per task each (as [`flat`]), a
/// shared backbone of `num_tasks / 25` links, and 10% cross-traffic over
/// it.
pub fn clustered(num_tasks: usize, seed: u64) -> ClusteredWorkloadConfig {
    let clusters = 4;
    let per_cluster = num_tasks / clusters;
    ClusteredWorkloadConfig {
        num_clusters: clusters,
        tasks_per_cluster: per_cluster,
        resources_per_cluster: (3 * per_cluster).max(16),
        backbone_links: (num_tasks / 25).max(2),
        cross_traffic: 0.1,
        base: RandomWorkloadConfig { seed, ..flat(num_tasks, seed) },
    }
}

/// A generated instance that passed the guard.
#[derive(Debug)]
pub struct Instance {
    pub problem: Problem,
    /// Largest `Σ rate·WCET / B_r` over resources.
    pub floor_load: f64,
}

/// Notes the first instance's size, the instance count, and the largest
/// throughput-floor load over all of them (the guard's margin).
pub fn describe<'a>(report: &mut Report, instances: impl IntoIterator<Item = &'a Instance>) {
    let instances: Vec<&Instance> = instances.into_iter().collect();
    let p = &instances[0].problem;
    let subtasks: usize = p.tasks().iter().map(|t| t.len()).sum();
    let floor = instances.iter().map(|i| i.floor_load).fold(0.0, f64::max);
    report.notes.push(("instances", instances.len().to_string()));
    report.notes.push(("tasks", p.tasks().len().to_string()));
    report.notes.push(("subtasks", subtasks.to_string()));
    report.notes.push(("resources", p.resources().len().to_string()));
    report.notes.push(("floor_load_max", format!("{floor:.4}")));
}

pub fn generate_flat(cfg: &RandomWorkloadConfig) -> Instance {
    let problem = cfg.generate().expect("flat workload config is valid");
    guard(problem, cfg.target_load, cfg.lag)
}

pub fn generate_clustered(cfg: &ClusteredWorkloadConfig) -> (Instance, ShardSpec) {
    let (problem, spec) = cfg.generate().expect("clustered workload config is valid");
    (guard(problem, cfg.base.target_load, cfg.base.lag), spec)
}

/// Checks witness feasibility and the throughput-floor margin; exits the
/// process with an error rather than time an unschedulable instance.
fn guard(problem: Problem, target_load: f64, lag: f64) -> Instance {
    let nr = problem.resources().len();
    let mut count = vec![0usize; nr];
    let mut floor = vec![0.0f64; nr];
    for task in problem.tasks() {
        let rate = task.trigger().mean_rate();
        for s in task.subtasks() {
            count[s.resource().index()] += 1;
            floor[s.resource().index()] += rate * s.exec_time();
        }
    }
    let witness: Vec<Vec<f64>> = problem
        .tasks()
        .iter()
        .map(|t| {
            t.subtasks()
                .iter()
                .map(|s| {
                    let r = s.resource().index();
                    let share =
                        target_load * problem.resources()[r].availability() / count[r] as f64;
                    (s.exec_time() + lag) / share
                })
                .collect()
        })
        .collect();
    if !problem.is_feasible(&witness, 1e-9) {
        fail("witness allocation is infeasible: the instance is not schedulable");
    }
    let (worst, floor_load) = problem
        .resources()
        .iter()
        .enumerate()
        .map(|(r, res)| (r, floor[r] / res.availability()))
        .fold((0, 0.0), |a, b| if b.1 > a.1 { b } else { a });
    if floor_load > FLOOR_MARGIN {
        fail(&format!(
            "throughput-floor load {floor_load:.4}·B on resource {worst} ({} subtasks) exceeds \
             the {FLOOR_MARGIN} margin: the floor would stall the solve",
            count[worst]
        ));
    }
    eprintln!(
        "instance guard: witness feasible, throughput-floor load {floor_load:.4}·B \
         (margin {FLOOR_MARGIN})"
    );
    Instance { problem, floor_load }
}

fn fail(msg: &str) -> ! {
    eprintln!("instance guard: {msg}");
    std::process::exit(2);
}

/// A builder that re-creates `id`'s task (same subtasks, edges, deadline,
/// utility, trigger and aggregation), for removing and re-admitting it.
pub fn builder_of(problem: &Problem, id: TaskId) -> TaskBuilder {
    let task = &problem.tasks()[id.index()];
    let mut b = TaskBuilder::new(task.name());
    for s in task.subtasks() {
        b.subtask(s.name(), s.resource(), s.exec_time());
    }
    for v in 0..task.len() {
        for &w in task.graph().successors(v) {
            b.edge(v, w).expect("edges of a valid task are valid");
        }
    }
    b.critical_time(task.critical_time())
        .utility(task.utility_fn().clone())
        .trigger(task.trigger())
        .aggregation(task.aggregation())
        .percentile(task.percentile());
    b
}
