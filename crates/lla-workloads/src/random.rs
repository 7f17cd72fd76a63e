//! Seeded random workload generation with a constructive schedulability
//! guarantee.
//!
//! The generator first draws task structures (DAG shape, resource
//! assignment, execution times), then builds a *witness allocation*: every
//! subtask on resource `r` gets an equal slice of `target_load · B_r`
//! share, which determines a witness latency per subtask. Critical times
//! are set to `deadline_headroom ×` the witness critical-path latency, so
//! the witness itself satisfies both constraint families — the generated
//! workload is schedulable by construction. Property tests use this to
//! assert that LLA converges on *every* generated workload.

use lla_core::{
    Aggregation, ModelError, Problem, Resource, ResourceId, ResourceKind, SubtaskGraph, Task,
    TaskBuilder, TaskId, TriggerSpec, UtilityFn,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The DAG shape family a generated task is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskShape {
    /// A linear pipeline (client/server style).
    Chain,
    /// Root → relay → many leaves (push/multicast style).
    FanOut,
    /// Root → several parallel branches → join (aggregation style).
    Diamond,
    /// Random DAG: each node gets at least one earlier predecessor.
    RandomDag,
    /// Cycle deterministically through the other four shapes.
    Mixed,
}

/// Configuration for [`RandomWorkloadConfig::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWorkloadConfig {
    /// Number of resources (half CPUs, half links).
    pub num_resources: usize,
    /// Number of tasks.
    pub num_tasks: usize,
    /// Minimum subtasks per task (≥ 1).
    pub min_subtasks: usize,
    /// Maximum subtasks per task (inclusive).
    pub max_subtasks: usize,
    /// Task DAG shape family.
    pub shape: TaskShape,
    /// Uniform range of subtask execution times (ms).
    pub exec_time_range: (f64, f64),
    /// Scheduling lag of every resource (ms).
    pub lag: f64,
    /// Fraction of each resource's availability consumed by the witness
    /// allocation, in `(0, 1)`. Values near 1 put resources "close to
    /// congestion" as in §5.1.
    pub target_load: f64,
    /// Critical time = headroom × witness critical-path latency (> 1).
    pub deadline_headroom: f64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl Default for RandomWorkloadConfig {
    fn default() -> Self {
        RandomWorkloadConfig {
            num_resources: 8,
            num_tasks: 4,
            min_subtasks: 3,
            max_subtasks: 8,
            shape: TaskShape::Mixed,
            exec_time_range: (1.0, 8.0),
            lag: 1.0,
            target_load: 0.9,
            deadline_headroom: 1.5,
            seed: 42,
        }
    }
}

/// A large-scale benchmark workload with `num_tasks` tasks over a resource
/// pool that grows proportionally (one resource per two tasks, minimum 8,
/// rounded up to an even count so the CPU/link split stays balanced).
///
/// This is the scaling-sweep entry point used by `lla-bench`: per-resource
/// contention stays roughly constant as the task count grows, so iteration
/// cost — not congestion collapse — dominates the measurement at 100, 1 000
/// and 10 000 tasks. Generation is deterministic given `(num_tasks, seed)`.
pub fn large_scale_workload(num_tasks: usize, seed: u64) -> Result<Problem, ModelError> {
    let num_resources = (num_tasks / 2).max(8).next_multiple_of(2);
    RandomWorkloadConfig {
        num_resources,
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
    .generate()
}

pub(crate) struct TaskDraft {
    pub(crate) resources: Vec<ResourceId>,
    pub(crate) exec_times: Vec<f64>,
    pub(crate) edges: Vec<(usize, usize)>,
}

impl RandomWorkloadConfig {
    /// Generates the workload.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for out-of-range
    /// configuration (empty ranges, loads outside `(0, 1)`, headroom ≤ 1).
    pub fn generate(&self) -> Result<Problem, ModelError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);

        let resources: Vec<Resource> = (0..self.num_resources)
            .map(|i| {
                let kind = if i % 2 == 0 { ResourceKind::Cpu } else { ResourceKind::NetworkLink };
                Resource::new(ResourceId::new(i), kind).with_lag(self.lag)
            })
            .collect();

        // Phase 1: draw structures, every task from the whole resource set.
        let pool: Vec<usize> = (0..self.num_resources).collect();
        let mut drafts = Vec::with_capacity(self.num_tasks);
        for t in 0..self.num_tasks {
            drafts.push(self.draw_task_in_pool(t, &mut rng, &pool)?);
        }

        self.assemble(resources, &drafts)
    }

    /// Phases 2–3 of generation: witness allocation → critical times →
    /// [`Problem`]. Shared with the clustered generator in
    /// [`partition`](crate::partition), which draws its own structures.
    pub(crate) fn assemble(
        &self,
        resources: Vec<Resource>,
        drafts: &[TaskDraft],
    ) -> Result<Problem, ModelError> {
        // Phase 2: witness allocation. Count subtasks per resource.
        let mut per_resource = vec![0usize; resources.len()];
        for d in drafts {
            for r in &d.resources {
                per_resource[r.index()] += 1;
            }
        }
        // Witness latency per subtask: equal share split of the target load.
        let witness: Vec<Vec<f64>> = drafts
            .iter()
            .map(|d| {
                d.resources
                    .iter()
                    .zip(&d.exec_times)
                    .map(|(r, c)| {
                        let n_r = per_resource[r.index()] as f64;
                        let b_r = 1.0; // generated resources have B_r = 1
                        let share = self.target_load * b_r / n_r;
                        (c + self.lag) / share
                    })
                    .collect()
            })
            .collect();

        // Phase 3: critical times from the witness critical path.
        let mut tasks: Vec<Task> = Vec::with_capacity(drafts.len());
        for (t, d) in drafts.iter().enumerate() {
            let id = TaskId::new(t);
            let graph = SubtaskGraph::new(id, d.resources.len(), &d.edges)?;
            let (_, witness_cp) = graph.critical_path(&witness[t]);
            let ct = self.deadline_headroom * witness_cp;

            let mut b = TaskBuilder::new(format!("rand{t}"));
            for (s, (r, c)) in d.resources.iter().zip(&d.exec_times).enumerate() {
                b.subtask(format!("rand{t}s{s}"), *r, *c);
            }
            for &(a, c) in &d.edges {
                b.edge(a, c)?;
            }
            b.critical_time(ct)
                .utility(UtilityFn::linear_for_deadline(2.0, ct))
                .trigger(TriggerSpec::Periodic { period: 100.0 })
                .aggregation(Aggregation::PathWeighted);
            tasks.push(b.build(id)?);
        }

        Problem::new(resources, tasks)
    }

    fn validate(&self) -> Result<(), ModelError> {
        if self.num_resources == 0 {
            return Err(ModelError::InvalidParameter { what: "num_resources", value: 0.0 });
        }
        if self.num_tasks == 0 {
            return Err(ModelError::InvalidParameter { what: "num_tasks", value: 0.0 });
        }
        if self.min_subtasks == 0 || self.min_subtasks > self.max_subtasks {
            return Err(ModelError::InvalidParameter {
                what: "subtask count range",
                value: self.min_subtasks as f64,
            });
        }
        if !(self.target_load > 0.0 && self.target_load < 1.0) {
            return Err(ModelError::InvalidParameter {
                what: "target load",
                value: self.target_load,
            });
        }
        if self.deadline_headroom <= 1.0 {
            return Err(ModelError::InvalidParameter {
                what: "deadline headroom",
                value: self.deadline_headroom,
            });
        }
        let (lo, hi) = self.exec_time_range;
        if !(lo > 0.0 && hi >= lo) {
            return Err(ModelError::InvalidParameter { what: "exec time range", value: lo });
        }
        Ok(())
    }

    /// Draws one task whose resources come from `pool` (global resource
    /// indices). The clustered generator in [`partition`](crate::partition)
    /// uses this to confine a cluster's tasks to the cluster's resource
    /// slice.
    pub(crate) fn draw_task_in_pool(
        &self,
        index: usize,
        rng: &mut StdRng,
        pool: &[usize],
    ) -> Result<TaskDraft, ModelError> {
        let n = rng.gen_range(self.min_subtasks..=self.max_subtasks);
        let shape = match self.shape {
            TaskShape::Mixed => match index % 4 {
                0 => TaskShape::Chain,
                1 => TaskShape::FanOut,
                2 => TaskShape::Diamond,
                _ => TaskShape::RandomDag,
            },
            s => s,
        };
        let edges = match shape {
            TaskShape::Chain | TaskShape::Mixed => (1..n).map(|i| (i - 1, i)).collect(),
            TaskShape::FanOut => {
                // 0 -> 1 -> {2..n}; degenerate sizes fall back to a chain.
                if n <= 2 {
                    (1..n).map(|i| (i - 1, i)).collect()
                } else {
                    let mut e = vec![(0, 1)];
                    e.extend((2..n).map(|i| (1, i)));
                    e
                }
            }
            TaskShape::Diamond => {
                if n <= 2 {
                    (1..n).map(|i| (i - 1, i)).collect()
                } else {
                    // 0 -> {1..n-1} -> n-1? Use 0 -> mid -> last.
                    let mut e = Vec::new();
                    for i in 1..n - 1 {
                        e.push((0, i));
                        e.push((i, n - 1));
                    }
                    e
                }
            }
            TaskShape::RandomDag => {
                let mut e = Vec::new();
                for i in 1..n {
                    let pred = rng.gen_range(0..i);
                    e.push((pred, i));
                    // Occasionally add a second precedence edge.
                    if i >= 2 && rng.gen_bool(0.3) {
                        let extra = rng.gen_range(0..i);
                        if extra != pred {
                            e.push((extra, i));
                        }
                    }
                }
                e
            }
        };

        // Distinct resources within a task when possible (§2.1 assumption).
        let mut resources: Vec<ResourceId> = if n <= pool.len() {
            // Rejection-sample n distinct picks: n is at most the subtask
            // cap while the pool scales with the workload (hundreds of
            // thousands of resources at the 1M-task point), so a full
            // O(|pool|) shuffle per task would dominate generation.
            let mut picks: Vec<usize> = Vec::with_capacity(n);
            while picks.len() < n {
                let c = pool[rng.gen_range(0..pool.len())];
                if !picks.contains(&c) {
                    picks.push(c);
                }
            }
            picks.into_iter().map(ResourceId::new).collect()
        } else {
            (0..n).map(|_| ResourceId::new(pool[rng.gen_range(0..pool.len())])).collect()
        };
        // Stable order is irrelevant to the math; shuffle for variety.
        resources.shuffle(rng);

        let (lo, hi) = self.exec_time_range;
        let exec_times: Vec<f64> =
            (0..n).map(|_| if lo == hi { lo } else { rng.gen_range(lo..hi) }).collect();

        Ok(TaskDraft { resources, exec_times, edges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomWorkloadConfig::default();
        let a = cfg.generate().unwrap();
        let b = cfg.generate().unwrap();
        assert_eq!(a.tasks().len(), b.tasks().len());
        for (ta, tb) in a.tasks().iter().zip(b.tasks()) {
            assert_eq!(ta.critical_time(), tb.critical_time());
            for (sa, sb) in ta.subtasks().iter().zip(tb.subtasks()) {
                assert_eq!(sa.resource(), sb.resource());
                assert_eq!(sa.exec_time(), sb.exec_time());
            }
        }
    }

    /// FNV-1a over everything a generated problem is built from: each
    /// resource's kind, lag and availability, and each task's name,
    /// critical time, utility, trigger, subtasks (resource, execution
    /// time) and root-to-leaf paths.
    fn fingerprint(p: &Problem) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in p.resources() {
            eat(format!("{:?}", r.kind()).as_bytes());
            eat(&r.lag().to_bits().to_le_bytes());
            eat(&r.availability().to_bits().to_le_bytes());
        }
        for t in p.tasks() {
            eat(t.name().as_bytes());
            eat(&t.critical_time().to_bits().to_le_bytes());
            eat(format!("{:?}{:?}", t.utility_fn(), t.trigger()).as_bytes());
            for sub in t.subtasks() {
                eat(&(sub.resource().index() as u64).to_le_bytes());
                eat(&sub.exec_time().to_bits().to_le_bytes());
            }
            for path in t.graph().paths() {
                for &s in path.subtasks() {
                    eat(&(s as u64).to_le_bytes());
                }
                eat(b";");
            }
        }
        h
    }

    /// Generation is byte-identical for existing seeds: flat workloads
    /// (the default config, the large-scale sweep, every shape) and
    /// clustered ones (the sweep and the default config).
    #[test]
    fn generated_problems_match_pinned_hashes() {
        let flat = [
            RandomWorkloadConfig::default().generate().unwrap(),
            large_scale_workload(2_000, 1).unwrap(),
            RandomWorkloadConfig {
                num_resources: 1_500,
                num_tasks: 500,
                max_subtasks: 6,
                target_load: 0.85,
                seed: 7,
                ..RandomWorkloadConfig::default()
            }
            .generate()
            .unwrap(),
        ];
        let clustered = [
            crate::clustered_workload(400, 4, 3).unwrap().0,
            crate::ClusteredWorkloadConfig::default().generate().unwrap().0,
        ];
        let hashes: Vec<u64> = flat.iter().chain(&clustered).map(fingerprint).collect();
        let pinned = [
            0xb623_3ace_99db_90b3,
            0x738b_72b7_e1d4_75b6,
            0x4534_cbd3_19f3_1df4,
            0x35b1_5a9f_556a_a613,
            0x3884_b4ab_8e4d_186b,
        ];
        assert_eq!(hashes, pinned, "generated problems changed: {hashes:x?}");
    }

    /// `target_load` scales the witness latencies and nothing else: two
    /// loads draw the same resources, subtasks, execution times and
    /// graphs, and differ only in critical times (by the inverse load
    /// ratio) and the utility offsets derived from them. The robustness
    /// sweep's load axis is therefore a deadline-slack axis.
    #[test]
    fn target_load_only_scales_critical_times_and_utility_offsets() {
        let (low, high) = (0.5, 0.95);
        for seed in 0..20 {
            let at = |target_load| {
                let cfg = RandomWorkloadConfig {
                    target_load,
                    num_tasks: 5,
                    deadline_headroom: 1.4,
                    seed,
                    ..Default::default()
                };
                cfg.generate().unwrap()
            };
            let (a, b) = (at(low), at(high));
            assert_eq!(a.resources(), b.resources());
            assert_eq!(a.tasks().len(), b.tasks().len());
            for (ta, tb) in a.tasks().iter().zip(b.tasks()) {
                assert_eq!(ta.name(), tb.name());
                assert_eq!(ta.trigger(), tb.trigger());
                assert_eq!(ta.aggregation(), tb.aggregation());
                assert_eq!(ta.subtasks(), tb.subtasks());
                assert_eq!(ta.graph().paths(), tb.graph().paths());
                let ratio = tb.critical_time() / ta.critical_time();
                assert!((ratio - low / high).abs() < 1e-12, "seed {seed}: ratio {ratio}");
                match (ta.utility_fn(), tb.utility_fn()) {
                    (
                        UtilityFn::Linear { offset: oa, slope: sa },
                        UtilityFn::Linear { offset: ob, slope: sb },
                    ) => {
                        assert_eq!(sa, sb);
                        assert!((ob / oa - ratio).abs() < 1e-12, "seed {seed}");
                    }
                    other => panic!("unexpected utilities {other:?}"),
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = RandomWorkloadConfig::default().generate().unwrap();
        let b = RandomWorkloadConfig { seed: 43, ..Default::default() }.generate().unwrap();
        let ca: Vec<f64> = a.tasks().iter().map(|t| t.critical_time()).collect();
        let cb: Vec<f64> = b.tasks().iter().map(|t| t.critical_time()).collect();
        assert_ne!(ca, cb);
    }

    #[test]
    fn witness_allocation_is_feasible() {
        // Rebuild the witness and verify the constructive guarantee.
        for seed in 0..20 {
            let cfg = RandomWorkloadConfig { seed, ..Default::default() };
            let p = cfg.generate().unwrap();
            // Reconstruct: equal split of target load per resource.
            let mut n_r = vec![0usize; p.resources().len()];
            for t in p.tasks() {
                for s in t.subtasks() {
                    n_r[s.resource().index()] += 1;
                }
            }
            let lats: Vec<Vec<f64>> = p
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
            assert!(
                p.is_feasible(&lats, 1e-9),
                "witness must be feasible (seed {seed}): resource violation {}, path violation {}",
                p.max_resource_violation(&lats),
                p.max_path_violation(&lats)
            );
        }
    }

    #[test]
    fn shapes_produce_valid_graphs() {
        for shape in [
            TaskShape::Chain,
            TaskShape::FanOut,
            TaskShape::Diamond,
            TaskShape::RandomDag,
            TaskShape::Mixed,
        ] {
            let cfg = RandomWorkloadConfig { shape, num_tasks: 8, ..Default::default() };
            let p = cfg.generate().unwrap();
            assert_eq!(p.tasks().len(), 8);
            for t in p.tasks() {
                assert!(!t.graph().paths().is_empty());
            }
        }
    }

    #[test]
    fn chain_shape_is_actually_chains() {
        let cfg = RandomWorkloadConfig { shape: TaskShape::Chain, ..Default::default() };
        let p = cfg.generate().unwrap();
        for t in p.tasks() {
            assert!(t.graph().is_chain());
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let base = RandomWorkloadConfig::default();
        assert!(RandomWorkloadConfig { num_tasks: 0, ..base }.generate().is_err());
        assert!(RandomWorkloadConfig { target_load: 1.5, ..base }.generate().is_err());
        assert!(RandomWorkloadConfig { deadline_headroom: 1.0, ..base }.generate().is_err());
        assert!(RandomWorkloadConfig { min_subtasks: 5, max_subtasks: 3, ..base }
            .generate()
            .is_err());
        assert!(RandomWorkloadConfig { exec_time_range: (0.0, 1.0), ..base }.generate().is_err());
    }

    #[test]
    fn large_scale_workload_scales_resources_and_stays_feasible() {
        let p = large_scale_workload(100, 7).unwrap();
        assert_eq!(p.tasks().len(), 100);
        assert_eq!(p.resources().len(), 50);
        // Same constructive guarantee as the underlying generator.
        let init = p.initial_allocation();
        assert!(init.iter().all(|row| !row.is_empty()));
        let small = large_scale_workload(4, 7).unwrap();
        assert_eq!(small.resources().len(), 8, "resource pool is floored at 8");
    }

    #[test]
    fn more_subtasks_than_resources_is_allowed() {
        let cfg = RandomWorkloadConfig {
            num_resources: 2,
            min_subtasks: 5,
            max_subtasks: 6,
            ..Default::default()
        };
        let p = cfg.generate().unwrap();
        for t in p.tasks() {
            assert!(t.len() >= 5);
        }
    }
}
