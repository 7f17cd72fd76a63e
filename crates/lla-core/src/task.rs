//! Tasks: end-to-end distributed applications with timeliness constraints.

use crate::error::ModelError;
use crate::graph::SubtaskGraph;
use crate::ids::{PathId, ResourceId, SubtaskId, TaskId};
use crate::percentile::PercentileSpec;
use crate::subtask::Subtask;
use crate::utility::UtilityFn;
use serde::{Deserialize, Serialize};

/// How a task's per-subtask latencies are aggregated into the scalar the
/// utility function is applied to (§3.2).
///
/// The true objective uses the critical path (Eq. 1), but the critical path
/// may change as latencies change, making the objective non-concave. The
/// paper proposes two tractable variations:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Aggregation {
    /// Utility of the *sum* of all subtask latencies in the task.
    Sum,
    /// Utility of the *weighted* sum where each subtask's weight is the
    /// number of root-to-leaf paths it belongs to.
    #[default]
    PathWeighted,
}

/// The arrival pattern of a task's triggering events.
///
/// Used by the simulator to release job sets and by the optimizer to derive
/// throughput floors. All times in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TriggerSpec {
    /// One job set every `period` milliseconds.
    Periodic {
        /// Inter-arrival time in milliseconds.
        period: f64,
    },
    /// Poisson arrivals with the given rate (job sets per millisecond).
    Poisson {
        /// Mean arrival rate in job sets per millisecond.
        rate: f64,
    },
    /// Bursts of `burst` job sets released together every `period`
    /// milliseconds — the paper's generalization where jobs of a subtask may
    /// be released without waiting for previous jobs to finish.
    Bursty {
        /// Inter-burst time in milliseconds.
        period: f64,
        /// Number of job sets per burst.
        burst: usize,
    },
}

impl TriggerSpec {
    /// Mean arrival rate in job sets per millisecond.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            TriggerSpec::Periodic { period } => 1.0 / period,
            TriggerSpec::Poisson { rate } => rate,
            TriggerSpec::Bursty { period, burst } => burst as f64 / period,
        }
    }

    /// Validates the arrival parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive periods or
    /// rates, or a zero burst size.
    pub fn validate(&self) -> Result<(), ModelError> {
        match *self {
            TriggerSpec::Periodic { period } => {
                if !period.is_finite() || period <= 0.0 {
                    return Err(ModelError::InvalidParameter {
                        what: "trigger period",
                        value: period,
                    });
                }
            }
            TriggerSpec::Poisson { rate } => {
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(ModelError::InvalidParameter { what: "trigger rate", value: rate });
                }
            }
            TriggerSpec::Bursty { period, burst } => {
                if !period.is_finite() || period <= 0.0 {
                    return Err(ModelError::InvalidParameter {
                        what: "trigger period",
                        value: period,
                    });
                }
                if burst == 0 {
                    return Err(ModelError::InvalidParameter { what: "burst size", value: 0.0 });
                }
            }
        }
        Ok(())
    }
}

impl Default for TriggerSpec {
    /// The paper's simulation default: periodic events every 100ms.
    fn default() -> Self {
        TriggerSpec::Periodic { period: 100.0 }
    }
}

/// An end-to-end task: a subtask DAG, a critical time, and a utility.
///
/// Construct with [`TaskBuilder`]. A `Task` is immutable once built; the
/// optimizer treats it as the specification of one distributed application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    id: TaskId,
    name: String,
    subtasks: Vec<Subtask>,
    graph: SubtaskGraph,
    critical_time: f64,
    utility: UtilityFn,
    aggregation: Aggregation,
    trigger: TriggerSpec,
    percentile: PercentileSpec,
    weights: Vec<f64>,
}

impl Task {
    /// The task identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The subtasks, indexed by their per-task index.
    pub fn subtasks(&self) -> &[Subtask] {
        &self.subtasks
    }

    /// The validated precedence graph.
    pub fn graph(&self) -> &SubtaskGraph {
        &self.graph
    }

    /// The critical time `C_i` (deadline) in milliseconds.
    pub fn critical_time(&self) -> f64 {
        self.critical_time
    }

    /// The utility function applied to the aggregated latency.
    pub fn utility_fn(&self) -> &UtilityFn {
        &self.utility
    }

    /// The aggregation variant (sum or path-weighted).
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// The triggering-event arrival specification.
    pub fn trigger(&self) -> TriggerSpec {
        self.trigger
    }

    /// The latency statistic the utility is computed from.
    pub fn percentile(&self) -> PercentileSpec {
        self.percentile
    }

    /// Number of subtasks.
    pub fn len(&self) -> usize {
        self.subtasks.len()
    }

    /// Whether the task has no subtasks (never true for a built task).
    pub fn is_empty(&self) -> bool {
        self.subtasks.is_empty()
    }

    /// The aggregation weight `w_s` of each subtask (1 for
    /// [`Aggregation::Sum`]; the path count for
    /// [`Aggregation::PathWeighted`]).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The aggregated latency `Σ_s w_s · lat_s` the utility is applied to.
    ///
    /// # Panics
    ///
    /// Panics if `lats.len()` differs from the number of subtasks.
    pub fn aggregate_latency(&self, lats: &[f64]) -> f64 {
        assert_eq!(lats.len(), self.subtasks.len());
        lats.iter().zip(&self.weights).map(|(l, w)| l * w).sum()
    }

    /// The task utility `U_i = f_i(Σ w_s · lat_s)` for the given latencies.
    pub fn utility(&self, lats: &[f64]) -> f64 {
        self.utility.value(self.aggregate_latency(lats))
    }

    /// `(path index, latency)` of the critical path under `lats`.
    pub fn critical_path(&self, lats: &[f64]) -> (usize, f64) {
        self.graph.critical_path(lats)
    }

    /// Convenience: the subtask id for per-task index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn subtask_id(&self, idx: usize) -> SubtaskId {
        assert!(idx < self.subtasks.len());
        SubtaskId::new(self.id, idx)
    }

    /// The id of path `p` of this task's [graph](Self::graph): the graph
    /// names no task, so path ids always follow the task's current id.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn path_id(&self, p: usize) -> PathId {
        assert!(p < self.graph.paths().len(), "path index out of range");
        PathId::new(self.id, p)
    }

    /// Rebuilds this task under a new dense id with remapped resource
    /// indices: `resource_map[old] == Some(new)` moves a binding,
    /// `None` means the resource left the problem.
    ///
    /// The precedence graph carries no ids, so only the task id and each
    /// subtask's `(id, resource)` need rewriting.
    pub(crate) fn remapped(
        &self,
        id: TaskId,
        resource_map: &[Option<usize>],
    ) -> Result<Task, ModelError> {
        let mut subtasks = Vec::with_capacity(self.subtasks.len());
        for (i, s) in self.subtasks.iter().enumerate() {
            let old = s.resource().index();
            let new = resource_map
                .get(old)
                .copied()
                .flatten()
                .ok_or(ModelError::UnknownResource { subtask: s.id(), resource: s.resource() })?;
            subtasks.push(s.rebound(SubtaskId::new(id, i), ResourceId::new(new)));
        }
        Ok(Task { id, subtasks, ..self.clone() })
    }
}

/// Incremental builder for [`Task`] ([C-BUILDER]).
///
/// # Example
/// ```
/// use lla_core::{Aggregation, ResourceId, TaskBuilder, TaskId, TriggerSpec, UtilityFn};
/// let mut b = TaskBuilder::new("client-server");
/// let req = b.subtask("request", ResourceId::new(0), 3.0);
/// let serve = b.subtask("serve", ResourceId::new(1), 2.0);
/// b.edge(req, serve)?;
/// let task = b
///     .critical_time(53.0)
///     .utility(UtilityFn::linear_for_deadline(2.0, 53.0))
///     .trigger(TriggerSpec::Periodic { period: 100.0 })
///     .aggregation(Aggregation::PathWeighted)
///     .build(TaskId::new(0))?;
/// assert_eq!(task.len(), 2);
/// # Ok::<(), lla_core::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    name: String,
    specs: Vec<(String, ResourceId, f64, Option<f64>)>,
    edges: Vec<(usize, usize)>,
    critical_time: f64,
    utility: Option<UtilityFn>,
    aggregation: Aggregation,
    trigger: TriggerSpec,
    percentile: PercentileSpec,
}

impl TaskBuilder {
    /// Starts building a task with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskBuilder {
            name: name.into(),
            specs: Vec::new(),
            edges: Vec::new(),
            critical_time: 0.0,
            utility: None,
            aggregation: Aggregation::default(),
            trigger: TriggerSpec::default(),
            percentile: PercentileSpec::default(),
        }
    }

    /// Adds a subtask with the given WCET (ms) on `resource`; returns its
    /// per-task index for use in [`edge`](Self::edge).
    pub fn subtask(
        &mut self,
        name: impl Into<String>,
        resource: ResourceId,
        exec_time: f64,
    ) -> usize {
        self.specs.push((name.into(), resource, exec_time, None));
        self.specs.len() - 1
    }

    /// Adds a subtask with a latency cap (throughput floor); see
    /// [`Subtask::with_max_latency`](crate::Subtask::with_max_latency).
    pub fn subtask_with_max_latency(
        &mut self,
        name: impl Into<String>,
        resource: ResourceId,
        exec_time: f64,
        max_latency: f64,
    ) -> usize {
        self.specs.push((name.into(), resource, exec_time, Some(max_latency)));
        self.specs.len() - 1
    }

    /// Adds a precedence edge between two previously added subtasks.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownSubtaskIndex`] if either endpoint has
    /// not been added yet, or [`ModelError::SelfLoop`] if `from == to`.
    pub fn edge(&mut self, from: usize, to: usize) -> Result<&mut Self, ModelError> {
        let len = self.specs.len();
        if from >= len {
            return Err(ModelError::UnknownSubtaskIndex { index: from, len });
        }
        if to >= len {
            return Err(ModelError::UnknownSubtaskIndex { index: to, len });
        }
        if from == to {
            return Err(ModelError::SelfLoop { index: from });
        }
        self.edges.push((from, to));
        Ok(self)
    }

    /// Adds a chain of edges `a -> b -> c -> ...` in one call.
    ///
    /// # Errors
    ///
    /// Same as [`edge`](Self::edge).
    pub fn chain(&mut self, indices: &[usize]) -> Result<&mut Self, ModelError> {
        for w in indices.windows(2) {
            self.edge(w[0], w[1])?;
        }
        Ok(self)
    }

    /// Sets the critical time `C_i` (deadline) in milliseconds.
    pub fn critical_time(&mut self, critical_time: f64) -> &mut Self {
        self.critical_time = critical_time;
        self
    }

    /// Sets the utility function.
    pub fn utility(&mut self, utility: UtilityFn) -> &mut Self {
        self.utility = Some(utility);
        self
    }

    /// Sets the aggregation variant (defaults to
    /// [`Aggregation::PathWeighted`]).
    pub fn aggregation(&mut self, aggregation: Aggregation) -> &mut Self {
        self.aggregation = aggregation;
        self
    }

    /// Sets the triggering-event specification (defaults to periodic 100ms).
    pub fn trigger(&mut self, trigger: TriggerSpec) -> &mut Self {
        self.trigger = trigger;
        self
    }

    /// Sets the latency statistic (defaults to worst case).
    pub fn percentile(&mut self, percentile: PercentileSpec) -> &mut Self {
        self.percentile = percentile;
        self
    }

    /// Validates everything and produces the immutable [`Task`].
    ///
    /// If no utility was set, defaults to the paper's
    /// `f(lat) = 2·C − lat`.
    ///
    /// # Errors
    ///
    /// Any [`ModelError`] from graph validation, subtask validation, or
    /// invalid critical time / utility / trigger parameters.
    pub fn build(&self, id: TaskId) -> Result<Task, ModelError> {
        if self.specs.is_empty() {
            return Err(ModelError::EmptyTask { task: id });
        }
        if !self.critical_time.is_finite() || self.critical_time <= 0.0 {
            return Err(ModelError::InvalidParameter {
                what: "critical time (C_i)",
                value: self.critical_time,
            });
        }
        let utility = match &self.utility {
            Some(u) => u.clone(),
            None => UtilityFn::linear_for_deadline(2.0, self.critical_time),
        };
        if !utility.is_valid() {
            return Err(ModelError::InvalidParameter {
                what: "utility function shape",
                value: f64::NAN,
            });
        }
        self.trigger.validate()?;
        self.percentile.validate()?;

        let graph = SubtaskGraph::new(id, self.specs.len(), &self.edges)?;
        let subtasks: Vec<Subtask> = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, (name, res, exec, cap))| {
                let mut s =
                    Subtask::new(SubtaskId::new(id, i), *res, *exec).with_name(name.clone());
                if let Some(c) = cap {
                    s = s.with_max_latency(*c);
                }
                s
            })
            .collect();
        for s in &subtasks {
            s.validate()?;
        }

        let weights: Vec<f64> = match self.aggregation {
            Aggregation::Sum => vec![1.0; subtasks.len()],
            Aggregation::PathWeighted => {
                (0..subtasks.len()).map(|i| graph.path_weight(i) as f64).collect()
            }
        };

        Ok(Task {
            id,
            name: self.name.clone(),
            subtasks,
            graph,
            critical_time: self.critical_time,
            utility,
            aggregation: self.aggregation,
            trigger: self.trigger,
            percentile: self.percentile,
            weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_task(aggregation: Aggregation) -> Task {
        let mut b = TaskBuilder::new("t");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let c = b.subtask("b", ResourceId::new(1), 3.0);
        let d = b.subtask("c", ResourceId::new(2), 4.0);
        b.edge(a, c).unwrap();
        b.edge(a, d).unwrap();
        b.critical_time(45.0).aggregation(aggregation);
        b.build(TaskId::new(0)).unwrap()
    }

    #[test]
    fn builder_produces_valid_task() {
        let t = simple_task(Aggregation::PathWeighted);
        assert_eq!(t.len(), 3);
        assert_eq!(t.graph().paths().len(), 2);
        assert_eq!(t.critical_time(), 45.0);
        assert_eq!(t.subtask_id(1).index(), 1);
    }

    #[test]
    fn default_utility_is_paper_linear() {
        let t = simple_task(Aggregation::Sum);
        // f(lat) = 2C - lat => f(0) = 90.
        assert_eq!(t.utility_fn().value(0.0), 90.0);
    }

    #[test]
    fn weights_sum_variant() {
        let t = simple_task(Aggregation::Sum);
        assert_eq!(t.weights(), &[1.0, 1.0, 1.0]);
        assert_eq!(t.aggregate_latency(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn weights_path_weighted_variant() {
        let t = simple_task(Aggregation::PathWeighted);
        // Root is on both paths.
        assert_eq!(t.weights(), &[2.0, 1.0, 1.0]);
        assert_eq!(t.aggregate_latency(&[1.0, 2.0, 3.0]), 2.0 + 2.0 + 3.0);
    }

    #[test]
    fn utility_composes_aggregation() {
        let t = simple_task(Aggregation::PathWeighted);
        let lats = [5.0, 10.0, 20.0];
        let agg = t.aggregate_latency(&lats);
        assert_eq!(t.utility(&lats), 90.0 - agg);
    }

    #[test]
    fn critical_path_of_task() {
        let t = simple_task(Aggregation::Sum);
        let (idx, lat) = t.critical_path(&[5.0, 10.0, 20.0]);
        assert_eq!(lat, 25.0);
        assert_eq!(t.graph().path(idx).subtasks(), &[0, 2]);
    }

    #[test]
    fn build_rejects_missing_critical_time() {
        let mut b = TaskBuilder::new("t");
        b.subtask("a", ResourceId::new(0), 1.0);
        assert!(matches!(
            b.build(TaskId::new(0)),
            Err(ModelError::InvalidParameter { what: "critical time (C_i)", .. })
        ));
    }

    #[test]
    fn build_rejects_empty_task() {
        let b = TaskBuilder::new("t");
        assert!(matches!(b.build(TaskId::new(0)), Err(ModelError::EmptyTask { .. })));
    }

    #[test]
    fn edge_rejects_unknown_index() {
        let mut b = TaskBuilder::new("t");
        b.subtask("a", ResourceId::new(0), 1.0);
        assert!(b.edge(0, 3).is_err());
        assert!(b.edge(0, 0).is_err());
    }

    #[test]
    fn chain_builder_matches_manual_edges() {
        let mut b = TaskBuilder::new("t");
        let s: Vec<usize> =
            (0..4).map(|i| b.subtask(format!("s{i}"), ResourceId::new(i), 1.0)).collect();
        b.chain(&s).unwrap();
        let t = b.critical_time(10.0).build(TaskId::new(1)).unwrap();
        assert!(t.graph().is_chain());
    }

    #[test]
    fn trigger_rates() {
        assert!((TriggerSpec::Periodic { period: 100.0 }.mean_rate() - 0.01).abs() < 1e-12);
        assert!((TriggerSpec::Poisson { rate: 0.04 }.mean_rate() - 0.04).abs() < 1e-12);
        assert!((TriggerSpec::Bursty { period: 100.0, burst: 5 }.mean_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn trigger_validation() {
        assert!(TriggerSpec::Periodic { period: 0.0 }.validate().is_err());
        assert!(TriggerSpec::Poisson { rate: -1.0 }.validate().is_err());
        assert!(TriggerSpec::Bursty { period: 10.0, burst: 0 }.validate().is_err());
        assert!(TriggerSpec::default().validate().is_ok());
    }

    #[test]
    fn invalid_utility_rejected_at_build() {
        let mut b = TaskBuilder::new("t");
        b.subtask("a", ResourceId::new(0), 1.0);
        b.critical_time(10.0).utility(UtilityFn::Linear { offset: 0.0, slope: 1.0 });
        assert!(b.build(TaskId::new(0)).is_err());
    }
}
