//! The constrained optimization problem (§3): tasks, resources, and the
//! structural indices LLA needs (subtask↔resource maps, share models).

use crate::error::ModelError;
use crate::ids::{ResourceId, SubtaskId, TaskId};
use crate::plan::Plan;
use crate::resource::Resource;
use crate::share::ShareModel;
use crate::task::{Task, TaskBuilder};
use std::sync::Arc;

/// How dense indices moved across one membership change
/// ([`Problem::add_task`], [`Problem::remove_task`],
/// [`Problem::add_resource`], [`Problem::retire_resource`]).
///
/// `task_map[old] == Some(new)` says the task at dense index `old` before
/// the change now sits at `new`; `None` means it left the problem. The
/// resource map reads the same way. Newly added members appear only in
/// `added_task` / `added_resource` (they had no old index).
///
/// Warm-start consumers ([`PriceState::remap`](crate::PriceState::remap))
/// use the report to carry duals across the change.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipReport {
    /// Old task index → new task index (`None` = removed).
    pub task_map: Vec<Option<usize>>,
    /// Old resource index → new resource index (`None` = retired).
    pub resource_map: Vec<Option<usize>>,
    /// Id assigned to a task added by this change, if any.
    pub added_task: Option<TaskId>,
    /// Id assigned to a resource added by this change, if any.
    pub added_resource: Option<ResourceId>,
}

impl MembershipReport {
    /// An identity report for a problem with `tasks` tasks and `resources`
    /// resources: nothing moved, nothing added.
    pub fn identity(tasks: usize, resources: usize) -> Self {
        MembershipReport {
            task_map: (0..tasks).map(Some).collect(),
            resource_map: (0..resources).map(Some).collect(),
            added_task: None,
            added_resource: None,
        }
    }
}

/// A validated system: a set of [`Resource`]s and a set of [`Task`]s whose
/// subtasks consume them.
///
/// The objective is `max Σ_i U_i` (Eq. 2) subject to the resource
/// constraints `Σ_{s∈S_r} share_r(s, lat_s) ≤ B_r` (Eq. 3) and the critical
/// time constraints `Σ_{s∈p} lat_s ≤ C_i` for every path (Eq. 4).
///
/// `Problem` owns one [`ShareModel`] per subtask (WCET plus the lag of the
/// resource it runs on) and exposes it mutably so the online
/// error-correction loop (§6.3) can update the additive correction while
/// the optimizer runs.
#[derive(Clone)]
pub struct Problem {
    resources: Vec<Resource>,
    tasks: Vec<Task>,
    /// `subtasks_on[r]` lists every subtask running on resource `r`.
    subtasks_on: Vec<Vec<SubtaskId>>,
    /// `share_models[t][s]` for subtask `s` of task `t`.
    share_models: Vec<Vec<ShareModel>>,
    /// Mutation epoch: bumped by every `&mut self` mutator so compiled
    /// iteration plans ([`crate::plan::Plan`]) know when to rebuild.
    /// Excluded from equality — two problems that describe the same
    /// system compare equal regardless of their edit histories.
    epoch: u64,
    /// The compiled plan of this problem at this epoch, installed by the
    /// [`Optimizer`](crate::Optimizer) that owns the problem so
    /// [`dual_value`](crate::dual_value) can evaluate on it. Cleared by
    /// every epoch bump, shared by clones, excluded from equality, and
    /// never filled by `dual_value` itself (see [`crate::plan`]).
    plan: Option<Arc<Plan>>,
}

impl std::fmt::Debug for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Problem")
            .field("resources", &self.resources)
            .field("tasks", &self.tasks)
            .field("subtasks_on", &self.subtasks_on)
            .field("share_models", &self.share_models)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl PartialEq for Problem {
    fn eq(&self, other: &Self) -> bool {
        self.resources == other.resources
            && self.tasks == other.tasks
            && self.subtasks_on == other.subtasks_on
            && self.share_models == other.share_models
    }
}

impl Problem {
    /// Assembles and validates a problem.
    ///
    /// Resource and task ids must be dense (`resources[i].id() == i`,
    /// `tasks[i].id() == i`) so that internal tables can be flat vectors.
    ///
    /// # Errors
    ///
    /// * [`ModelError::NonDenseResourceIds`] / [`ModelError::NonDenseTaskIds`]
    ///   when ids do not match positions.
    /// * [`ModelError::UnknownResource`] when a subtask references a missing
    ///   resource.
    /// * Any parameter-validation error from resources or subtasks.
    pub fn new(resources: Vec<Resource>, tasks: Vec<Task>) -> Result<Self, ModelError> {
        for (i, r) in resources.iter().enumerate() {
            if r.id().index() != i {
                return Err(ModelError::NonDenseResourceIds { resource: r.id(), expected: i });
            }
            r.validate()?;
        }
        for (i, t) in tasks.iter().enumerate() {
            if t.id().index() != i {
                return Err(ModelError::NonDenseTaskIds { task: t.id(), expected: i });
            }
        }

        let mut subtasks_on = vec![Vec::new(); resources.len()];
        let mut share_models = Vec::with_capacity(tasks.len());
        for t in &tasks {
            let mut models = Vec::with_capacity(t.len());
            for s in t.subtasks() {
                let r = s.resource();
                if r.index() >= resources.len() {
                    return Err(ModelError::UnknownResource { subtask: s.id(), resource: r });
                }
                subtasks_on[r.index()].push(s.id());
                models.push(ShareModel::new(s.exec_time(), resources[r.index()].lag())?);
            }
            share_models.push(models);
        }

        Ok(Problem { resources, tasks, subtasks_on, share_models, epoch: 0, plan: None })
    }

    /// Moves the mutation epoch forward and drops the memoised plan,
    /// which described the problem before the edit.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.plan = None;
    }

    /// Memoises `plan`, lowered from this problem at its current epoch.
    pub(crate) fn install_plan(&mut self, plan: Arc<Plan>) {
        debug_assert_eq!(plan.epoch(), self.epoch, "memoised plan must match the epoch");
        self.plan = Some(plan);
    }

    /// The memoised plan, if the owning optimizer installed one since the
    /// last edit.
    pub(crate) fn plan(&self) -> Option<&Plan> {
        self.plan.as_deref()
    }

    /// The mutation epoch: a counter bumped by every mutating method so
    /// callers holding a compiled [`crate::plan::Plan`] can detect
    /// staleness cheaply. Epochs only move forward within one `Problem`
    /// value; clones inherit the current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The resources, indexed by [`ResourceId::index`].
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// The tasks, indexed by [`TaskId::index`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// A single resource.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// Updates a resource's availability `B_r` at runtime (LLA adapts and
    /// re-converges).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownResourceId`] if the id is out of
    /// range, or [`ModelError::InvalidParameter`] if `availability` is
    /// non-finite or outside `[0, 1]`. On error nothing changes — the
    /// epoch does not advance.
    pub fn set_resource_availability(
        &mut self,
        id: ResourceId,
        availability: f64,
    ) -> Result<(), ModelError> {
        let len = self.resources.len();
        let slot = self
            .resources
            .get_mut(id.index())
            .ok_or(ModelError::UnknownResourceId { resource: id, len })?;
        slot.set_availability(availability)?;
        self.bump_epoch();
        Ok(())
    }

    /// Updates a resource's replica count at runtime (elastic capacity:
    /// effective `B_r` becomes `replicas × base availability`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownResourceId`] if the id is out of
    /// range, or [`ModelError::InvalidParameter`] if `replicas == 0`. On
    /// error nothing changes — the epoch does not advance.
    pub fn set_resource_replicas(
        &mut self,
        id: ResourceId,
        replicas: u32,
    ) -> Result<(), ModelError> {
        let len = self.resources.len();
        let slot = self
            .resources
            .get_mut(id.index())
            .ok_or(ModelError::UnknownResourceId { resource: id, len })?;
        slot.set_replicas(replicas)?;
        self.bump_epoch();
        Ok(())
    }

    /// A single task.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The subtasks competing for resource `r` (`S_r` in the paper).
    pub fn subtasks_on(&self, r: ResourceId) -> &[SubtaskId] {
        &self.subtasks_on[r.index()]
    }

    /// The share model of a subtask.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn share_model(&self, s: SubtaskId) -> &ShareModel {
        &self.share_models[s.task().index()][s.index()]
    }

    /// Sets the additive latency error correction `ê` for a subtask (§6.3).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_correction(&mut self, s: SubtaskId, correction: f64) {
        self.share_models[s.task().index()][s.index()].set_correction(correction);
        self.bump_epoch();
    }

    /// Sets the multiplicative demand correction for a subtask (the
    /// demand-scaling alternative to the paper's additive model).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_demand_scale(&mut self, s: SubtaskId, scale: f64) {
        self.share_models[s.task().index()][s.index()].set_demand_scale(scale);
        self.bump_epoch();
    }

    /// Total number of subtasks across all tasks.
    pub fn num_subtasks(&self) -> usize {
        self.tasks.iter().map(Task::len).sum()
    }

    /// Total number of root-to-leaf paths across all tasks.
    pub fn num_paths(&self) -> usize {
        self.tasks.iter().map(|t| t.graph().paths().len()).sum()
    }

    /// Sum of shares demanded on resource `r` by the given allocation
    /// (left-hand side of Eq. 3). `lats[t][s]` is the latency of subtask `s`
    /// of task `t`.
    pub fn resource_usage(&self, r: ResourceId, lats: &[Vec<f64>]) -> f64 {
        self.subtasks_on[r.index()]
            .iter()
            .map(|sid| {
                self.share_models[sid.task().index()][sid.index()]
                    .share_for_latency(lats[sid.task().index()][sid.index()])
            })
            .sum()
    }

    /// `Σ_i U_i` for the given allocation (the paper's objective, Eq. 2,
    /// under the chosen aggregation variant).
    pub fn total_utility(&self, lats: &[Vec<f64>]) -> f64 {
        self.tasks.iter().map(|t| t.utility(&lats[t.id().index()])).sum()
    }

    /// The largest resource-constraint violation
    /// `max_r (usage_r − B_r)` — positive means at least one resource is
    /// congested.
    pub fn max_resource_violation(&self, lats: &[Vec<f64>]) -> f64 {
        self.resources
            .iter()
            .map(|r| self.resource_usage(r.id(), lats) - r.availability())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The largest path-constraint violation as a fraction:
    /// `max_p (path_latency / C_i − 1)` — positive means at least one path
    /// misses its critical time.
    pub fn max_path_violation(&self, lats: &[Vec<f64>]) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for t in &self.tasks {
            let tl = &lats[t.id().index()];
            for p in t.graph().paths() {
                worst = worst.max(p.latency(tl) / t.critical_time() - 1.0);
            }
        }
        worst
    }

    /// Whether the allocation satisfies both constraint families within
    /// tolerance `tol` (relative for paths, absolute in share for
    /// resources).
    pub fn is_feasible(&self, lats: &[Vec<f64>], tol: f64) -> bool {
        self.max_resource_violation(lats) <= tol && self.max_path_violation(lats) <= tol
    }

    /// The worst constraint-violation *factor* of the allocation: `max`
    /// over resources of `usage/B_r` and over tasks of `critical_path/C_i`
    /// (the deadline constraint is per *path*, so the longest path is the
    /// binding one). ≤ 1 means every constraint holds. A zero-availability
    /// resource reports `∞` while it carries load and 0 while idle.
    pub fn worst_violation_factor(&self, lats: &[Vec<f64>]) -> f64 {
        let mut worst = 0.0f64;
        for res in &self.resources {
            let usage = self.resource_usage(res.id(), lats);
            let availability = res.availability();
            worst = worst.max(if availability > 0.0 {
                usage / availability
            } else if usage > 0.0 {
                f64::INFINITY
            } else {
                0.0
            });
        }
        for task in &self.tasks {
            let (_, cp) = task.graph().critical_path(&lats[task.id().index()]);
            worst = worst.max(cp / task.critical_time());
        }
        worst
    }

    /// Rebuilds `subtasks_on` from the current task set, in the same order
    /// [`Problem::new`] builds it (tasks in id order, subtasks in index
    /// order) so membership changes round-trip to structurally identical
    /// problems.
    fn rebuild_subtasks_on(&mut self) {
        let mut subtasks_on = vec![Vec::new(); self.resources.len()];
        for t in &self.tasks {
            for s in t.subtasks() {
                subtasks_on[s.resource().index()].push(s.id());
            }
        }
        self.subtasks_on = subtasks_on;
    }

    /// Admits a new task online, assigning it the next dense id.
    ///
    /// Existing tasks keep their indices; share-model corrections are
    /// untouched. On error the problem is unchanged.
    ///
    /// # Errors
    ///
    /// Any build-validation error from the builder, or
    /// [`ModelError::UnknownResource`] if a subtask references a resource
    /// not in the problem.
    pub fn add_task(&mut self, builder: &TaskBuilder) -> Result<MembershipReport, ModelError> {
        let id = TaskId::new(self.tasks.len());
        let task = builder.build(id)?;
        // Validate resources and build share models before mutating.
        let mut models = Vec::with_capacity(task.len());
        for s in task.subtasks() {
            let r = s.resource();
            if r.index() >= self.resources.len() {
                return Err(ModelError::UnknownResource { subtask: s.id(), resource: r });
            }
            models.push(ShareModel::new(s.exec_time(), self.resources[r.index()].lag())?);
        }
        for s in task.subtasks() {
            self.subtasks_on[s.resource().index()].push(s.id());
        }
        self.tasks.push(task);
        self.share_models.push(models);
        self.bump_epoch();
        let mut report = MembershipReport::identity(self.tasks.len() - 1, self.resources.len());
        report.added_task = Some(id);
        Ok(report)
    }

    /// Removes a task online, re-densifying the ids of every later task.
    ///
    /// Surviving tasks keep their share models (including online
    /// corrections); only ids shift.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownTask`] if `id` is out of range.
    pub fn remove_task(&mut self, id: TaskId) -> Result<MembershipReport, ModelError> {
        let idx = id.index();
        if idx >= self.tasks.len() {
            return Err(ModelError::UnknownTask { task: id, len: self.tasks.len() });
        }
        let mut report = MembershipReport::identity(self.tasks.len(), self.resources.len());
        report.task_map[idx] = None;
        for m in report.task_map[idx + 1..].iter_mut() {
            *m = m.map(|i| i - 1);
        }
        self.tasks.remove(idx);
        self.share_models.remove(idx);
        let identity: Vec<Option<usize>> = (0..self.resources.len()).map(Some).collect();
        for i in idx..self.tasks.len() {
            self.tasks[i] = self.tasks[i]
                .remapped(TaskId::new(i), &identity)
                .expect("identity resource map cannot fail");
        }
        self.rebuild_subtasks_on();
        self.bump_epoch();
        Ok(report)
    }

    /// Adds a resource online. Its id must be the next dense index.
    ///
    /// # Errors
    ///
    /// [`ModelError::NonDenseResourceIds`] if the id is not
    /// `resources.len()`, or any parameter-validation error.
    pub fn add_resource(&mut self, resource: Resource) -> Result<MembershipReport, ModelError> {
        if resource.id().index() != self.resources.len() {
            return Err(ModelError::NonDenseResourceIds {
                resource: resource.id(),
                expected: self.resources.len(),
            });
        }
        resource.validate()?;
        let id = resource.id();
        self.resources.push(resource);
        self.subtasks_on.push(Vec::new());
        self.bump_epoch();
        let mut report = MembershipReport::identity(self.tasks.len(), self.resources.len() - 1);
        report.added_resource = Some(id);
        Ok(report)
    }

    /// Retires a resource online, re-densifying the ids of every later
    /// resource and rewriting subtask bindings accordingly.
    ///
    /// The resource must be empty — drain it first with
    /// [`Problem::reassign_resource`].
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownResourceId`] if `id` is out of range, or
    /// [`ModelError::ResourceInUse`] if subtasks still run on it.
    pub fn retire_resource(&mut self, id: ResourceId) -> Result<MembershipReport, ModelError> {
        let idx = id.index();
        if idx >= self.resources.len() {
            return Err(ModelError::UnknownResourceId { resource: id, len: self.resources.len() });
        }
        if !self.subtasks_on[idx].is_empty() {
            return Err(ModelError::ResourceInUse {
                resource: id,
                subtasks: self.subtasks_on[idx].len(),
            });
        }
        let mut report = MembershipReport::identity(self.tasks.len(), self.resources.len());
        report.resource_map[idx] = None;
        for m in report.resource_map[idx + 1..].iter_mut() {
            *m = m.map(|i| i - 1);
        }
        self.resources.remove(idx);
        for i in idx..self.resources.len() {
            self.resources[i] = self.resources[i].reindexed(ResourceId::new(i));
        }
        for i in 0..self.tasks.len() {
            self.tasks[i] = self.tasks[i]
                .remapped(TaskId::new(i), &report.resource_map)
                .expect("retired resource hosts no subtasks");
        }
        self.rebuild_subtasks_on();
        self.bump_epoch();
        Ok(report)
    }

    /// Moves every subtask running on `from` over to `to` (drain before
    /// retirement), rebuilding their share models with the destination's
    /// lag while preserving corrections and demand scales. Returns how
    /// many subtasks moved.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownResourceId`] if either id is out of range.
    pub fn reassign_resource(
        &mut self,
        from: ResourceId,
        to: ResourceId,
    ) -> Result<usize, ModelError> {
        for id in [from, to] {
            if id.index() >= self.resources.len() {
                return Err(ModelError::UnknownResourceId {
                    resource: id,
                    len: self.resources.len(),
                });
            }
        }
        if from == to || self.subtasks_on[from.index()].is_empty() {
            return Ok(0);
        }
        let moved: Vec<SubtaskId> = self.subtasks_on[from.index()].clone();
        let mut map: Vec<Option<usize>> = (0..self.resources.len()).map(Some).collect();
        map[from.index()] = Some(to.index());
        let lag = self.resources[to.index()].lag();
        for &sid in &moved {
            let t = sid.task().index();
            let old = &self.share_models[t][sid.index()];
            let mut model = ShareModel::new(old.exec_time(), lag)?;
            model.set_correction(old.correction());
            model.set_demand_scale(old.demand_scale());
            self.share_models[t][sid.index()] = model;
        }
        let hosts: std::collections::BTreeSet<usize> =
            moved.iter().map(|s| s.task().index()).collect();
        for t in hosts {
            self.tasks[t] = self.tasks[t].remapped(TaskId::new(t), &map)?;
        }
        self.rebuild_subtasks_on();
        self.bump_epoch();
        Ok(moved.len())
    }

    /// An initial feasible-leaning allocation: every subtask gets an equal
    /// slice of its task's critical time along the longest path through it.
    ///
    /// This is only a starting point — LLA converges from any positive
    /// allocation; a reasonable start merely saves iterations.
    pub fn initial_allocation(&self) -> Vec<Vec<f64>> {
        self.tasks.iter().map(|t| self.initial_task_row(t)).collect()
    }

    /// The [`initial_allocation`](Self::initial_allocation) row for a
    /// single task, without materialising the whole matrix. Checkpoint
    /// exporters and online admission use this to avoid an O(subtasks)
    /// allocation per event.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn initial_task_allocation(&self, id: TaskId) -> Vec<f64> {
        self.initial_task_row(&self.tasks[id.index()])
    }

    fn initial_task_row(&self, t: &Task) -> Vec<f64> {
        // Longest path length (in hops) determines the even split.
        let max_len = t.graph().paths().iter().map(|p| p.len()).max().unwrap_or(1);
        let slice = t.critical_time() / max_len as f64;
        vec![slice; t.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;
    use crate::resource::ResourceKind;
    use crate::task::TaskBuilder;

    fn two_cpu_problem() -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu)
                .with_lag(2.0)
                .with_availability(0.8),
        ];
        let mut b = TaskBuilder::new("a");
        let s0 = b.subtask("x", ResourceId::new(0), 2.0);
        let s1 = b.subtask("y", ResourceId::new(1), 3.0);
        b.edge(s0, s1).unwrap();
        b.critical_time(30.0);
        let t0 = b.build(TaskId::new(0)).unwrap();

        let mut b = TaskBuilder::new("b");
        b.subtask("z", ResourceId::new(1), 4.0);
        b.critical_time(20.0);
        let t1 = b.build(TaskId::new(1)).unwrap();

        Problem::new(resources, vec![t0, t1]).unwrap()
    }

    #[test]
    fn indices_are_built() {
        let p = two_cpu_problem();
        assert_eq!(p.num_subtasks(), 3);
        assert_eq!(p.num_paths(), 2);
        assert_eq!(p.subtasks_on(ResourceId::new(0)).len(), 1);
        assert_eq!(p.subtasks_on(ResourceId::new(1)).len(), 2);
    }

    #[test]
    fn share_models_use_resource_lag() {
        let p = two_cpu_problem();
        let sid = p.tasks()[0].subtask_id(1); // on resource 1, lag 2
        assert_eq!(p.share_model(sid).demand(), 3.0 + 2.0);
    }

    #[test]
    fn resource_usage_sums_shares() {
        let p = two_cpu_problem();
        let lats = vec![vec![10.0, 10.0], vec![10.0]];
        // Resource 1 hosts T0.1 (demand 5) and T1.0 (demand 6).
        let expected = 5.0 / 10.0 + 6.0 / 10.0;
        assert!((p.resource_usage(ResourceId::new(1), &lats) - expected).abs() < 1e-12);
    }

    #[test]
    fn violations_and_feasibility() {
        let p = two_cpu_problem();
        // Generous latencies: feasible.
        let ok = vec![vec![14.0, 14.0], vec![18.0]];
        assert!(p.is_feasible(&ok, 1e-9), "usage r1 = 5/14 + 6/18 = 0.69 <= 0.8");
        // Tiny latencies: resource 1 blows past availability.
        let bad = vec![vec![3.0, 3.0], vec![3.0]];
        assert!(p.max_resource_violation(&bad) > 0.0);
        // Long latencies: path constraint violated for task 1 (C=20).
        let late = vec![vec![10.0, 10.0], vec![25.0]];
        assert!(p.max_path_violation(&late) > 0.0);
        assert!(!p.is_feasible(&late, 1e-9));
    }

    #[test]
    fn initial_allocation_respects_deadlines() {
        let p = two_cpu_problem();
        let init = p.initial_allocation();
        assert!(p.max_path_violation(&init) <= 1e-9);
        // Task 0 longest path has 2 hops: each slice is 15.
        assert_eq!(init[0], vec![15.0, 15.0]);
        assert_eq!(init[1], vec![20.0]);
    }

    #[test]
    fn correction_is_mutable_through_problem() {
        let mut p = two_cpu_problem();
        let sid = p.tasks()[0].subtask_id(0);
        p.set_correction(sid, -2.5);
        assert_eq!(p.share_model(sid).correction(), -2.5);
    }

    #[test]
    fn rejects_unknown_resource() {
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu)];
        let mut b = TaskBuilder::new("t");
        b.subtask("x", ResourceId::new(9), 1.0);
        b.critical_time(10.0);
        let t = b.build(TaskId::new(0)).unwrap();
        assert!(matches!(
            Problem::new(resources, vec![t]),
            Err(ModelError::UnknownResource { .. })
        ));
    }

    #[test]
    fn rejects_non_dense_ids() {
        let resources = vec![Resource::new(ResourceId::new(1), ResourceKind::Cpu)];
        assert!(matches!(
            Problem::new(resources, vec![]),
            Err(ModelError::NonDenseResourceIds { .. })
        ));

        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu)];
        let mut b = TaskBuilder::new("t");
        b.subtask("x", ResourceId::new(0), 1.0);
        b.critical_time(10.0);
        let t = b.build(TaskId::new(5)).unwrap();
        assert!(matches!(
            Problem::new(resources, vec![t]),
            Err(ModelError::NonDenseTaskIds { .. })
        ));
    }

    fn third_task() -> TaskBuilder {
        let mut b = TaskBuilder::new("c");
        b.subtask("w", ResourceId::new(0), 1.5);
        b.critical_time(25.0);
        b
    }

    #[test]
    fn add_task_assigns_next_dense_id() {
        let mut p = two_cpu_problem();
        let report = p.add_task(&third_task()).unwrap();
        assert_eq!(report.added_task, Some(TaskId::new(2)));
        assert_eq!(report.task_map, vec![Some(0), Some(1)]);
        assert_eq!(p.tasks().len(), 3);
        assert_eq!(p.tasks()[2].id(), TaskId::new(2));
        assert_eq!(p.subtasks_on(ResourceId::new(0)).len(), 2);
        // Equivalent to building the expanded problem from scratch.
        let rebuilt = Problem::new(p.resources().to_vec(), p.tasks().to_vec()).unwrap();
        assert_eq!(p, rebuilt);
    }

    #[test]
    fn add_task_rejects_unknown_resource_without_mutating() {
        let mut p = two_cpu_problem();
        let before = p.clone();
        let mut b = TaskBuilder::new("bad");
        b.subtask("x", ResourceId::new(9), 1.0);
        b.critical_time(10.0);
        assert!(matches!(p.add_task(&b), Err(ModelError::UnknownResource { .. })));
        assert_eq!(p, before);
    }

    #[test]
    fn remove_task_redensifies_ids() {
        let mut p = two_cpu_problem();
        p.add_task(&third_task()).unwrap();
        let report = p.remove_task(TaskId::new(0)).unwrap();
        assert_eq!(report.task_map, vec![None, Some(0), Some(1)]);
        assert_eq!(p.tasks().len(), 2);
        for (i, t) in p.tasks().iter().enumerate() {
            assert_eq!(t.id().index(), i);
            for (j, s) in t.subtasks().iter().enumerate() {
                assert_eq!(s.id(), SubtaskId::new(t.id(), j));
            }
        }
        assert!(matches!(
            p.remove_task(TaskId::new(7)),
            Err(ModelError::UnknownTask { len: 2, .. })
        ));
    }

    #[test]
    fn add_remove_round_trips_to_equivalent_problem() {
        let mut p = two_cpu_problem();
        let before = p.clone();
        let report = p.add_task(&third_task()).unwrap();
        p.remove_task(report.added_task.unwrap()).unwrap();
        assert_eq!(p, before);
    }

    #[test]
    fn retire_requires_drained_resource() {
        let mut p = two_cpu_problem();
        assert!(matches!(
            p.retire_resource(ResourceId::new(1)),
            Err(ModelError::ResourceInUse { subtasks: 2, .. })
        ));
        let moved = p.reassign_resource(ResourceId::new(1), ResourceId::new(0)).unwrap();
        assert_eq!(moved, 2);
        assert!(p.subtasks_on(ResourceId::new(1)).is_empty());
        // Moved subtasks pick up the destination lag (1.0, not 2.0).
        let sid = p.tasks()[0].subtask_id(1);
        assert_eq!(p.share_model(sid).demand(), 3.0 + 1.0);
        let report = p.retire_resource(ResourceId::new(1)).unwrap();
        assert_eq!(report.resource_map, vec![Some(0), None]);
        assert_eq!(p.resources().len(), 1);
        assert!(p
            .tasks()
            .iter()
            .all(|t| t.subtasks().iter().all(|s| s.resource() == ResourceId::new(0))));
        // The shrunken problem still validates from scratch.
        Problem::new(p.resources().to_vec(), p.tasks().to_vec()).unwrap();
    }

    #[test]
    fn add_resource_must_be_dense() {
        let mut p = two_cpu_problem();
        let r = Resource::new(ResourceId::new(5), ResourceKind::Cpu);
        assert!(matches!(p.add_resource(r), Err(ModelError::NonDenseResourceIds { .. })));
        let r = Resource::new(ResourceId::new(2), ResourceKind::Cpu).with_lag(0.5);
        let report = p.add_resource(r).unwrap();
        assert_eq!(report.added_resource, Some(ResourceId::new(2)));
        assert!(p.subtasks_on(ResourceId::new(2)).is_empty());
    }

    #[test]
    fn reassign_preserves_corrections() {
        let mut p = two_cpu_problem();
        let sid = p.tasks()[1].subtask_id(0); // on resource 1
        p.set_correction(sid, -0.75);
        p.set_demand_scale(sid, 1.25);
        p.reassign_resource(ResourceId::new(1), ResourceId::new(0)).unwrap();
        assert_eq!(p.share_model(sid).correction(), -0.75);
        assert_eq!(p.share_model(sid).demand_scale(), 1.25);
    }

    #[test]
    fn epoch_bumps_on_every_mutation_but_not_equality() {
        let mut p = two_cpu_problem();
        let before = p.clone();
        assert_eq!(p.epoch(), 0);
        p.set_resource_availability(ResourceId::new(0), 0.9).unwrap();
        assert_eq!(p.epoch(), 1);
        p.set_correction(p.tasks()[0].subtask_id(0), -0.5);
        assert_eq!(p.epoch(), 2);
        p.set_demand_scale(p.tasks()[0].subtask_id(0), 1.1);
        assert_eq!(p.epoch(), 3);
        let report = p.add_task(&third_task()).unwrap();
        assert_eq!(p.epoch(), 4);
        p.remove_task(report.added_task.unwrap()).unwrap();
        assert_eq!(p.epoch(), 5);
        // Equality ignores the epoch: undo the scalar edits and the
        // problem compares equal to its pristine clone again.
        p.set_resource_availability(
            ResourceId::new(0),
            before.resource(ResourceId::new(0)).availability(),
        )
        .unwrap();
        p.set_correction(p.tasks()[0].subtask_id(0), 0.0);
        p.set_demand_scale(p.tasks()[0].subtask_id(0), 1.0);
        assert_eq!(p, before);
        assert_ne!(p.epoch(), before.epoch());
    }

    #[test]
    fn replica_count_scales_capacity_and_bumps_epoch() {
        let mut p = two_cpu_problem();
        let before = p.epoch();
        p.set_resource_replicas(ResourceId::new(1), 3).unwrap();
        assert_eq!(p.epoch(), before + 1);
        assert!((p.resource(ResourceId::new(1)).availability() - 2.4).abs() < 1e-12);
        // The violation margin widens with the extra replicas.
        let lats = vec![vec![3.0, 3.0], vec![3.0]];
        let scaled = p.max_resource_violation(&lats);
        p.set_resource_replicas(ResourceId::new(1), 1).unwrap();
        assert!(scaled < p.max_resource_violation(&lats));
    }

    #[test]
    fn runtime_mutators_reject_bad_input_without_bumping_epoch() {
        let mut p = two_cpu_problem();
        let epoch = p.epoch();
        for bad in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            assert!(p.set_resource_availability(ResourceId::new(0), bad).is_err());
        }
        assert!(matches!(
            p.set_resource_availability(ResourceId::new(9), 0.5),
            Err(ModelError::UnknownResourceId { len: 2, .. })
        ));
        assert!(p.set_resource_replicas(ResourceId::new(0), 0).is_err());
        assert!(matches!(
            p.set_resource_replicas(ResourceId::new(9), 2),
            Err(ModelError::UnknownResourceId { len: 2, .. })
        ));
        assert_eq!(p.epoch(), epoch, "rejected mutations must not dirty compiled plans");
        assert_eq!(p.resource(ResourceId::new(0)).availability(), 1.0);
    }

    #[test]
    fn initial_task_allocation_matches_matrix_row() {
        let p = two_cpu_problem();
        let full = p.initial_allocation();
        for t in p.tasks() {
            assert_eq!(p.initial_task_allocation(t.id()), full[t.id().index()]);
        }
    }

    #[test]
    fn total_utility_sums_tasks() {
        let p = two_cpu_problem();
        let lats = vec![vec![5.0, 5.0], vec![4.0]];
        // Default utility 2C - weighted lat; both tasks are chains so
        // weights are 1.
        let expected = (60.0 - 10.0) + (40.0 - 4.0);
        assert!((p.total_utility(&lats) - expected).abs() < 1e-12);
    }
}
