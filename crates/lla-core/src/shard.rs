//! Sharded hierarchical price optimization: per-shard price-discovery
//! loops coordinated only through the prices of shared resources.
//!
//! A flat [`Optimizer`](crate::optimizer::Optimizer) walks every task and
//! every resource each iteration; at million-task scale both the walk and
//! the membership-churn re-lowering cost become O(problem). Following the
//! price-discovery decomposition of Agrawal et al. ("Allocation of
//! Fungible Resources via a Fast, Scalable Price Discovery Method"), a
//! [`ShardedOptimizer`] partitions the task set into shards that each run
//! the full LLA iteration over a *subset plan* ([`Plan::lower_subset`]),
//! and reconciles the prices of resources used by more than one shard in
//! a deterministic coordinator round.
//!
//! # Resource ownership
//!
//! Every resource has exactly one price authority, its
//! [`ResourceOwner`]:
//!
//! - **`Shard(k)`** — every subtask on the resource belongs to shard `k`;
//!   the shard applies the μ step (Eq. 8) locally, exactly as the
//!   monolithic optimizer would.
//! - **`Coordinator`** — the resource is shared between shards (or used
//!   by none); the coordinator sums the shards' partial usages *in shard
//!   order*, applies one μ step, and broadcasts the new price and
//!   congestion bit back to every shard touching the resource.
//!
//! # The three-phase round
//!
//! One [`step`](ShardedOptimizer::step) is:
//!
//! 1. **Shard-local** (fans out across shards under the `parallel`
//!    feature): latency allocation over the shard plan, then the plan's
//!    resource pass — usage into shard scratch, μ steps for *owned*
//!    resources only.
//! 2. **Coordinator** (sequential, deterministic): per coordinator-owned
//!    resource in ascending index order, aggregate usage → one μ step →
//!    broadcast μ + congestion to touching shards.
//! 3. **Path steps** (fans out): each shard runs the plan's path pass —
//!    path latencies, path violations and λ steps (Eq. 9) — with the
//!    now-complete congestion bits.
//!
//! Because every kernel reuses the plan module's bit-exact CSR kernels
//! and all cross-shard reductions run in fixed shard order, a one-shard
//! `ShardedOptimizer` is **bit-identical** to the monolithic `Optimizer`.
//! Multi-shard runs differ from the monolithic fold only by the
//! reassociation of shared-resource usage sums (a few ulps per round);
//! `tests/shard_equivalence.rs` pins the resulting allocations to within
//! `1e-9` of the monolithic ones.
//!
//! # Incremental re-lowering
//!
//! Plan invalidation is per-shard, not per-problem: a membership epoch
//! re-lowers only the mutated shard's plan (reusing its
//! [`PlanScratch`] pool via [`PlanScratch::resize_for`]), so churn cost
//! is O(shard), not O(problem). The invariants:
//!
//! - `add_task` appends to one shard → re-lower that shard only.
//! - `remove_task` splices the owning shard → re-lower that shard only
//!   (other shards' plans hold no global task indices; only their task
//!   *lists* are remapped, which is index arithmetic).
//! - `set_resource_availability(r)` re-lowers every shard *touching* `r`
//!   (clamping boxes are lowered from `B_r`), and no others.
//!
//! Re-lowerings publish to the same `lla_opt_plan_lowerings_total`
//! counter as the monolithic optimizer, so the telemetry contract — "one
//! membership change, one shard lowered" — is directly observable.

use crate::error::ModelError;
use crate::ids::{ResourceId, TaskId};
use crate::lagrangian::{kkt_report, KktReport};
use crate::optimizer::{
    Allocation, IterationReport, OptimizerConfig, OptimizerState, RunOutcome, StateImportError,
};
use crate::plan::{Plan, PlanScratch};
use crate::prices::PriceState;
use crate::problem::{MembershipReport, Problem};
use crate::round_book::{self, Driver, RoundBook};
use crate::task::{Task, TaskBuilder};
use lla_telemetry::{Counter, Gauge, MetricsRegistry, Profiler};

/// Which authority applies the μ price step for a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceOwner {
    /// Exclusive to one shard: the shard prices it locally.
    Shard(usize),
    /// Shared between shards (or used by none): the coordinator prices it
    /// from aggregated usage.
    Coordinator,
}

/// A partition of a problem's task set into shards.
///
/// Groups are disjoint, jointly cover every task, and each group is
/// nonempty; group order defines shard order and the order *within* a
/// group defines the shard's plan-local task order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    groups: Vec<Vec<usize>>,
}

impl ShardSpec {
    /// Contiguous equal-size blocks: shard `w` of `k` gets tasks
    /// `[n·w/k, n·(w+1)/k)`. The shard count is clamped to the task count
    /// (and to at least one) so no group is empty.
    pub fn contiguous(num_tasks: usize, num_shards: usize) -> ShardSpec {
        let k = num_shards.clamp(1, num_tasks.max(1));
        ShardSpec {
            groups: (0..k)
                .map(|w| (num_tasks * w / k..num_tasks * (w + 1) / k).collect())
                .collect(),
        }
    }

    /// Wraps explicit task groups; validated against the problem by
    /// [`ShardedOptimizer::new`].
    pub fn from_groups(groups: Vec<Vec<usize>>) -> ShardSpec {
        ShardSpec { groups }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.groups.len()
    }

    /// The task groups (global task indices).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }
}

/// One shard: a subset plan over its tasks, its flat latency state, a
/// price state holding λ rows for its tasks plus a full-width μ mirror,
/// and per-round diagnostics.
#[derive(Debug, Clone)]
struct Shard {
    /// Global task indices in plan-local order.
    tasks: Vec<usize>,
    plan: Plan,
    scratch: PlanScratch,
    /// λ rows for `tasks` (plan-local order); μ entries for *all* global
    /// resources. Authoritative for owned resources, a mirror refreshed
    /// by the coordinator broadcast for shared ones.
    prices: PriceState,
    /// Persistent flat latencies in plan order (`scratch` is transient —
    /// re-lowerings reset it, this survives them).
    lats: Vec<f64>,
    /// `owned[r]`: this shard is `r`'s price authority.
    owned: Vec<bool>,
    /// `touches[r]`: any of this shard's subtasks runs on `r`.
    touches: Vec<bool>,
    /// Per-round outputs of the shard-local phase.
    utility: f64,
    res_violation: f64,
    path_violation: f64,
}

impl Shard {
    /// Phase 1: allocation + usage, owned-resource μ steps and their
    /// violations + utility.
    /// `inner_parallel` permits the plan's own threaded allocator (only
    /// safe when shards are not already fanned out across threads).
    fn local_step(&mut self, inner_parallel: bool) {
        self.scratch.prev_mut().copy_from_slice(&self.lats);
        if inner_parallel {
            self.plan.allocate_into(&self.prices, &mut self.scratch);
        } else {
            self.plan.allocate_seq(&self.prices, &mut self.scratch);
        }
        self.lats.copy_from_slice(self.scratch.lats());
        self.res_violation =
            self.plan.owned_resource_steps(&mut self.prices, &mut self.scratch, &self.owned);
        self.utility = self.plan.total_utility(self.scratch.lats());
    }

    /// Phase 3: path latencies, path violations and λ steps with the
    /// coordinator-completed congestion bits.
    fn path_steps(&mut self) {
        self.path_violation = self.plan.path_price_steps(&mut self.prices, &mut self.scratch);
    }
}

/// The sharded driver's own series on top of the shared `lla_opt_*`
/// ones kept by its [`RoundBook`].
#[derive(Debug, Clone)]
struct ShardSeries {
    coordinator_rounds: Counter,
    shards: Gauge,
    coordinated_resources: Gauge,
}

/// Wall-clock decomposition of one sequentially executed round, from
/// [`ShardedOptimizer::step_timed`].
#[derive(Debug, Clone)]
pub struct ShardStepTiming {
    /// Per-shard nanoseconds (local allocation + μ steps + λ steps).
    pub shard_ns: Vec<f64>,
    /// Coordinator-round nanoseconds (aggregate, step, broadcast).
    pub coordinator_ns: f64,
}

impl ShardStepTiming {
    /// Modeled cost of the round with one free core per shard: the
    /// slowest shard plus the sequential coordinator round.
    pub fn critical_path_ns(&self) -> f64 {
        self.shard_ns.iter().fold(0.0_f64, |a, &b| a.max(b)) + self.coordinator_ns
    }
}

/// The sharded hierarchical LLA driver (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ShardedOptimizer {
    problem: Problem,
    config: OptimizerConfig,
    shards: Vec<Shard>,
    /// Price authority per resource.
    owner: Vec<ResourceOwner>,
    /// Coordinator-owned resource indices, ascending (shared + unused).
    coordinated: Vec<usize>,
    /// Authoritative duals for coordinator-owned resources (λ-row free).
    coordinator: PriceState,
    /// `B_r` mirror for the coordinator round, refreshed on availability
    /// mutations.
    availability: Vec<f64>,
    /// Global task index → owning shard.
    task_shard: Vec<usize>,
    /// Convergence detector and the shared `lla_opt_*` series.
    book: RoundBook,
    /// Shard and coordinator series (`None` until
    /// [`attach_telemetry`](Self::attach_telemetry)).
    series: Option<Box<ShardSeries>>,
    /// Phase profiler (disabled by default; see
    /// [`attach_profiler`](Self::attach_profiler)).
    profiler: Profiler,
}

impl ShardedOptimizer {
    /// Partitions `problem` by `spec`, lowers one subset plan per shard,
    /// and classifies every resource's price authority.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] when the spec is not a partition
    /// of the task set (empty, out-of-range, duplicated, or uncovered
    /// task indices; an empty group).
    pub fn new(
        problem: Problem,
        config: OptimizerConfig,
        spec: ShardSpec,
    ) -> Result<Self, ModelError> {
        let nt = problem.tasks().len();
        let nr = problem.resources().len();
        if spec.groups.is_empty() {
            return Err(ModelError::InvalidParameter { what: "shard count", value: 0.0 });
        }
        let mut task_shard = vec![usize::MAX; nt];
        for (k, group) in spec.groups.iter().enumerate() {
            if group.is_empty() {
                return Err(ModelError::InvalidParameter {
                    what: "empty shard group",
                    value: k as f64,
                });
            }
            for &t in group {
                if t >= nt {
                    return Err(ModelError::InvalidParameter {
                        what: "shard task index",
                        value: t as f64,
                    });
                }
                if task_shard[t] != usize::MAX {
                    return Err(ModelError::InvalidParameter {
                        what: "task assigned to two shards",
                        value: t as f64,
                    });
                }
                task_shard[t] = k;
            }
        }
        if let Some(t) = task_shard.iter().position(|&s| s == usize::MAX) {
            return Err(ModelError::InvalidParameter {
                what: "task not covered by any shard",
                value: t as f64,
            });
        }

        // Ownership: exclusive to a shard iff every subtask on the
        // resource belongs to it.
        let mut owner = vec![ResourceOwner::Coordinator; nr];
        for (r, res) in problem.resources().iter().enumerate() {
            let mut touching = None;
            let mut shared = false;
            for sid in problem.subtasks_on(res.id()) {
                let s = task_shard[sid.task().index()];
                match touching {
                    None => touching = Some(s),
                    Some(prev) if prev != s => {
                        shared = true;
                        break;
                    }
                    Some(_) => {}
                }
            }
            if let (Some(s), false) = (touching, shared) {
                owner[r] = ResourceOwner::Shard(s);
            }
        }
        let coordinated: Vec<usize> =
            (0..nr).filter(|&r| owner[r] == ResourceOwner::Coordinator).collect();

        let init = problem.initial_allocation();
        let book = RoundBook::new(problem.total_utility(&init));
        let shards = spec
            .groups
            .iter()
            .enumerate()
            .map(|(k, group)| {
                let plan = Plan::lower_subset(&problem, &config.allocation, group);
                let scratch = plan.scratch();
                let prices = PriceState::for_shard(&problem, group, config.step_policy);
                let lats: Vec<f64> = group.iter().flat_map(|&t| init[t].iter().copied()).collect();
                let touches = touch_set(&problem, group);
                let owned: Vec<bool> =
                    (0..nr).map(|r| owner[r] == ResourceOwner::Shard(k)).collect();
                Shard {
                    tasks: group.clone(),
                    plan,
                    scratch,
                    prices,
                    lats,
                    owned,
                    touches,
                    utility: 0.0,
                    res_violation: f64::NEG_INFINITY,
                    path_violation: f64::NEG_INFINITY,
                }
            })
            .collect();
        let coordinator = PriceState::for_shard(&problem, &[], config.step_policy);
        let availability = problem.resources().iter().map(|r| r.availability()).collect();
        Ok(ShardedOptimizer {
            problem,
            config,
            shards,
            owner,
            coordinated,
            coordinator,
            availability,
            task_shard,
            book,
            series: None,
            profiler: Profiler::disabled(),
        })
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The driver configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The price authority for resource `r`.
    pub fn resource_owner(&self, r: usize) -> ResourceOwner {
        self.owner[r]
    }

    /// Resources priced by the coordinator because more than one shard
    /// uses them (excludes unused resources, which the coordinator also
    /// owns but which never congest).
    pub fn num_shared_resources(&self) -> usize {
        self.coordinated
            .iter()
            .filter(|&&r| self.shards.iter().filter(|sh| sh.touches[r]).count() >= 2)
            .count()
    }

    /// The shard owning task `id`.
    pub fn shard_of(&self, id: TaskId) -> usize {
        self.task_shard[id.index()]
    }

    /// Global task indices of shard `k`, in plan-local order.
    pub fn shard_tasks(&self, k: usize) -> &[usize] {
        &self.shards[k].tasks
    }

    /// Total iterations executed over the driver's lifetime.
    pub fn iterations(&self) -> usize {
        self.book.iteration
    }

    /// The current total utility (recomputed from shard latencies, summed
    /// in shard order).
    pub fn utility(&self) -> f64 {
        self.shards.iter().map(|sh| sh.plan.total_utility(&sh.lats)).sum()
    }

    /// The current allocation, reassembled in global task order.
    pub fn allocation(&self) -> Allocation {
        Allocation::from_lats(self.nested_lats())
    }

    /// The largest relative price movement of the most recent step, over
    /// every shard and the coordinator.
    pub fn max_rel_price_step(&self) -> f64 {
        self.shards
            .iter()
            .map(|sh| sh.prices.last_max_rel_step())
            .fold(self.coordinator.last_max_rel_step(), f64::max)
    }

    /// Cumulative adaptive step-size growth events over every shard and
    /// the coordinator.
    pub fn gamma_doublings(&self) -> u64 {
        self.shards.iter().map(|sh| sh.prices.gamma_doublings()).sum::<u64>()
            + self.coordinator.gamma_doublings()
    }

    /// Registers the optimizer metric family on `registry` (same series
    /// names as the monolithic optimizer, plus shard gauges) and starts
    /// publishing from every subsequent [`step`](Self::step) and shard
    /// re-lowering. Lowerings performed before attachment (including the
    /// initial ones in [`new`](Self::new)) are not back-counted.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.book.attach(registry, self.gamma_doublings());
        let series = ShardSeries {
            coordinator_rounds: registry.counter(
                "lla_opt_coordinator_rounds_total",
                "shared-price reconciliation rounds executed by the shard coordinator",
            ),
            shards: registry.gauge("lla_opt_shards", "shards in the sharded optimizer"),
            coordinated_resources: registry.gauge(
                "lla_opt_coordinated_resources",
                "resources priced by the coordinator (shared across shards or unused)",
            ),
        };
        series.shards.set(self.shards.len() as f64);
        series.coordinated_resources.set(self.coordinated.len() as f64);
        self.series = Some(Box::new(series));
    }

    /// Starts charging per-phase wall time and call counts to
    /// `profiler`: every round opens a `round` scope with
    /// `allocation_phase` (per-shard `shard_local` children, attributed
    /// from worker threads under the `parallel` feature),
    /// `coordinator` (with a `broadcast` child), `path_phase`
    /// (`shard_path` children), and `merge` nested under it; shard
    /// re-lowerings open a `plan_lower` scope. Purely passive, and a
    /// disabled profiler costs one branch per scope.
    pub fn attach_profiler(&mut self, profiler: &Profiler) {
        self.profiler = profiler.clone();
    }

    /// Stops profiling (recorded scopes stay in the profiler).
    pub fn detach_profiler(&mut self) {
        self.profiler = Profiler::disabled();
    }

    /// Executes one three-phase round (see the [module docs](self)).
    pub fn step(&mut self) -> IterationReport {
        let _prof = self.profiler.scope("round");
        self.allocation_phase();
        let coord_violation = self.coordinator_round();
        self.path_phase();
        self.merge_round(coord_violation)
    }

    /// [`step`](Self::step) with a wall-clock decomposition of the round,
    /// executed strictly sequentially (one shard at a time regardless of
    /// the `parallel` feature) so each shard's cost is measured in
    /// isolation. The shard-scaling bench uses this for its critical-path
    /// efficiency model: with one free core per shard, a round costs
    /// `max_s(shard_ns[s]) + coordinator_ns`.
    pub fn step_timed(&mut self) -> (IterationReport, ShardStepTiming) {
        let mut shard_ns = vec![0.0; self.shards.len()];
        for (s, sh) in self.shards.iter_mut().enumerate() {
            let t0 = std::time::Instant::now();
            sh.local_step(false);
            shard_ns[s] += t0.elapsed().as_secs_f64() * 1e9;
        }
        let t0 = std::time::Instant::now();
        let coord_violation = self.coordinator_round();
        let coordinator_ns = t0.elapsed().as_secs_f64() * 1e9;
        for (s, sh) in self.shards.iter_mut().enumerate() {
            let t0 = std::time::Instant::now();
            sh.path_steps();
            shard_ns[s] += t0.elapsed().as_secs_f64() * 1e9;
        }
        (self.merge_round(coord_violation), ShardStepTiming { shard_ns, coordinator_ns })
    }

    /// Deterministic tail of a round: fixed-shard-order reduction of
    /// utility/violations, convergence bookkeeping, telemetry.
    fn merge_round(&mut self, coord_violation: f64) -> IterationReport {
        let _prof = self.profiler.scope("merge");
        let mut utility = 0.0;
        let mut res_v = f64::NEG_INFINITY;
        let mut path_v = f64::NEG_INFINITY;
        for sh in &self.shards {
            utility += sh.utility;
            res_v = res_v.max(sh.res_violation);
            path_v = path_v.max(sh.path_violation);
        }
        res_v = res_v.max(coord_violation);
        if let Some(series) = &self.series {
            series.coordinator_rounds.inc();
        }
        let (price_step, doublings) = (self.max_rel_price_step(), self.gamma_doublings());
        self.book.close_round(&self.config, utility, (res_v, path_v), price_step, doublings)
    }

    /// Phase 1: shard-local allocation + owned μ steps. Fans out one
    /// worker per shard under the `parallel` feature; single-shard runs
    /// keep the plan's *inner* task-level fan-out instead.
    fn allocation_phase(&mut self) {
        let _prof = self.profiler.scope("allocation_phase");
        #[cfg(feature = "parallel")]
        if self.shards.len() > 1 {
            let ctx = self.profiler.ctx();
            let profiler = &self.profiler;
            rayon::scope(|s| {
                for sh in self.shards.iter_mut() {
                    s.spawn(move || {
                        let _shard_prof = profiler.scope_in(ctx, "shard_local");
                        sh.local_step(false);
                    });
                }
            });
            return;
        }
        for sh in self.shards.iter_mut() {
            let _shard_prof = self.profiler.scope("shard_local");
            sh.local_step(true);
        }
    }

    /// Phase 2: the deterministic coordinator round. For each
    /// coordinator-owned resource in ascending index order: sum the
    /// shards' partial usages in shard order, apply one μ step, broadcast
    /// price + congestion bit to every shard touching the resource.
    /// Returns the worst resource violation over coordinator-owned
    /// resources.
    fn coordinator_round(&mut self) -> f64 {
        let _prof = self.profiler.scope("coordinator");
        self.coordinator.reset_step_tracking();
        let mut worst = f64::NEG_INFINITY;
        for &r in &self.coordinated {
            let mut total = 0.0;
            for sh in &self.shards {
                total += sh.scratch.usage()[r];
            }
            let g = self.availability[r] - total;
            let congested = g < 0.0;
            self.coordinator.apply_resource_step(r, g);
            worst = worst.max(total - self.availability[r]);
            let mu = self.coordinator.mu(r);
            let _bcast_prof = self.profiler.scope("broadcast");
            for sh in self.shards.iter_mut() {
                if sh.touches[r] {
                    sh.prices.set_mu(r, mu);
                    sh.scratch.congested_mut()[r] = congested;
                }
            }
        }
        worst
    }

    /// Phase 3: per-shard λ steps (fans out under `parallel`).
    fn path_phase(&mut self) {
        let _prof = self.profiler.scope("path_phase");
        #[cfg(feature = "parallel")]
        if self.shards.len() > 1 {
            let ctx = self.profiler.ctx();
            let profiler = &self.profiler;
            rayon::scope(|s| {
                for sh in self.shards.iter_mut() {
                    s.spawn(move || {
                        let _shard_prof = profiler.scope_in(ctx, "shard_path");
                        sh.path_steps();
                    });
                }
            });
            return;
        }
        for sh in self.shards.iter_mut() {
            let _shard_prof = self.profiler.scope("shard_path");
            sh.path_steps();
        }
    }

    /// Whether the convergence criterion currently holds (the same
    /// criterion as [`Optimizer::has_converged`](crate::Optimizer::has_converged):
    /// utility stable for the window, prices quiescent, allocation
    /// feasible).
    pub fn has_converged(&self) -> bool {
        round_book::has_converged(self)
    }

    /// Runs exactly `iters` rounds (batch mode).
    pub fn run(&mut self, iters: usize) -> Vec<IterationReport> {
        (0..iters).map(|_| self.step()).collect()
    }

    /// Runs until convergence or until `max_iters` rounds elapse.
    pub fn run_to_convergence(&mut self, max_iters: usize) -> RunOutcome {
        round_book::run_to_convergence(self, max_iters)
    }

    /// KKT optimality diagnostics at the current point, evaluated over
    /// the reassembled global state (cold path).
    pub fn kkt(&self) -> KktReport {
        let state = self.export_state();
        kkt_report(&self.problem, state.lats(), state.prices(), &self.config.allocation, 1e-9)
    }

    /// Re-arms the convergence detector (call after any external change
    /// to the problem).
    pub fn rearm(&mut self) {
        self.book.rearm();
    }

    /// Admits a task mid-run into `shard` (or the least-loaded shard when
    /// `None`; ties break to the lowest index). Only the receiving
    /// shard's plan is re-lowered — O(shard), not O(problem) — and its
    /// scratch pool is resized in place. Incumbent shards keep their
    /// plans, latencies, and duals untouched; resources newly shared by
    /// the join are reclassified to the coordinator with their full
    /// adaptive dual state transferred.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidParameter`] for an out-of-range shard index,
    /// or any error from [`Problem::add_task`]; the driver is unchanged
    /// on error.
    pub fn add_task(
        &mut self,
        builder: &TaskBuilder,
        shard: Option<usize>,
    ) -> Result<TaskId, ModelError> {
        let k = match shard {
            Some(k) if k < self.shards.len() => k,
            Some(k) => {
                return Err(ModelError::InvalidParameter { what: "shard index", value: k as f64 })
            }
            None => self.least_loaded_shard(),
        };
        let report = self.problem.add_task(builder)?;
        let id = report.added_task.expect("add_task reports the new id");
        let gt = id.index();
        self.task_shard.push(k);
        let task = &self.problem.tasks()[gt];
        let (paths, touched) = (task.graph().paths().len(), task_resources(task));
        {
            let sh = &mut self.shards[k];
            sh.tasks.push(gt);
            sh.prices.push_lambda_row(paths);
            for &r in &touched {
                sh.touches[r] = true;
            }
        }
        for &r in &touched {
            self.reclassify(r);
        }
        self.relower_shard(k);
        let newcomer = self.problem.initial_task_allocation(id);
        self.shards[k].lats.extend_from_slice(&newcomer);
        debug_assert_eq!(self.shards[k].lats.len(), self.shards[k].plan.num_subtasks());
        self.book.restart(self.utility());
        Ok(id)
    }

    /// Removes a task mid-run. Every shard's task list is remapped to the
    /// re-densified global indices (index arithmetic only); **only the
    /// owning shard's plan is re-lowered**. Resources left exclusive (or
    /// unused) by the departure are reclassified with dual-state
    /// transfer.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::remove_task`]; the driver is unchanged
    /// on error.
    pub fn remove_task(&mut self, id: TaskId) -> Result<MembershipReport, ModelError> {
        let old_gt = id.index();
        if old_gt >= self.problem.tasks().len() {
            return Err(ModelError::UnknownTask { task: id, len: self.problem.tasks().len() });
        }
        let k = self.task_shard[old_gt];
        let touched = task_resources(&self.problem.tasks()[old_gt]);
        let report = self.problem.remove_task(id)?;

        let nt = self.problem.tasks().len();
        let mut remapped = vec![usize::MAX; nt];
        for (old, m) in report.task_map.iter().enumerate() {
            if let Some(new) = *m {
                remapped[new] = self.task_shard[old];
            }
        }
        self.task_shard = remapped;

        {
            // Splice the departed task out of its shard while the *old*
            // plan's layout is still installed.
            let sh = &mut self.shards[k];
            let local = sh.tasks.iter().position(|&t| t == old_gt).expect("shard tracks its task");
            let range = sh.plan.task_range(local);
            sh.lats.drain(range);
            sh.prices.remove_lambda_row(local);
            sh.tasks.remove(local);
        }
        for sh in self.shards.iter_mut() {
            for t in sh.tasks.iter_mut() {
                *t = report.task_map[*t].expect("surviving tasks keep an index");
            }
        }
        self.shards[k].touches = touch_set(&self.problem, &self.shards[k].tasks);
        for &r in &touched {
            if let Some(nr) = report.resource_map[r] {
                self.reclassify(nr);
            }
        }
        self.relower_shard(k);
        debug_assert_eq!(self.shards[k].lats.len(), self.shards[k].plan.num_subtasks());
        self.book.restart(self.utility());
        Ok(report)
    }

    /// Updates a resource's availability `B_r` mid-run. Clamping boxes
    /// are lowered from `B_r`, so every shard *touching* the resource is
    /// re-lowered (scratch pools reused); untouched shards keep their
    /// plans.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::set_resource_availability`]; the driver
    /// is unchanged on error.
    pub fn set_resource_availability(
        &mut self,
        id: ResourceId,
        availability: f64,
    ) -> Result<(), ModelError> {
        self.problem.set_resource_availability(id, availability)?;
        let r = id.index();
        self.availability[r] = self.problem.resources()[r].availability();
        for k in 0..self.shards.len() {
            if self.shards[k].touches[r] {
                self.relower_shard(k);
            }
        }
        self.rearm();
        Ok(())
    }

    /// Exports the full mutable state — shard λ rows and owner-side μ
    /// duals gathered into one global [`PriceState`], latencies in global
    /// task order — in the exact format [`Optimizer::export_state`]
    /// produces, so the distributed runtime's checkpoint/restore and a
    /// monolithic failover replacement work unchanged on top.
    ///
    /// [`Optimizer::export_state`]: crate::Optimizer::export_state
    pub fn export_state(&self) -> OptimizerState {
        let mut prices = PriceState::new(&self.problem, self.config.step_policy);
        for r in 0..self.problem.resources().len() {
            let raw = match self.owner[r] {
                ResourceOwner::Shard(s) => self.shards[s].prices.resource_dual_raw(r),
                ResourceOwner::Coordinator => self.coordinator.resource_dual_raw(r),
            };
            prices.set_resource_dual_raw(r, raw);
        }
        let mut rejected = 0;
        for sh in &self.shards {
            rejected += sh.prices.rejected_samples();
            for (local, &gt) in sh.tasks.iter().enumerate() {
                for p in 0..sh.plan.num_task_paths(local) {
                    prices.set_path_dual_raw(gt, p, sh.prices.path_dual_raw(local, p));
                }
            }
        }
        rejected += self.coordinator.rejected_samples();
        prices.set_bookkeeping(self.max_rel_price_step(), rejected, self.gamma_doublings());
        OptimizerState::from_parts(prices, self.nested_lats(), self.book.iteration)
    }

    /// Restores state captured by [`export_state`](Self::export_state)
    /// (or by a monolithic [`Optimizer`](crate::Optimizer) over an equal
    /// problem): global duals are scattered back to their owners and
    /// mirrors, λ rows to their shards' local rows.
    ///
    /// # Errors
    ///
    /// The same shape/epoch validation as
    /// [`Optimizer::try_import_state`](crate::Optimizer::try_import_state);
    /// the driver is untouched on error.
    pub fn try_import_state(
        &mut self,
        state: OptimizerState,
        expected_epoch: Option<u64>,
    ) -> Result<(), StateImportError> {
        round_book::validate_state(&state, &self.problem, expected_epoch)?;
        for r in 0..self.problem.resources().len() {
            let raw = state.prices().resource_dual_raw(r);
            match self.owner[r] {
                ResourceOwner::Shard(s) => self.shards[s].prices.set_resource_dual_raw(r, raw),
                ResourceOwner::Coordinator => self.coordinator.set_resource_dual_raw(r, raw),
            }
            for sh in self.shards.iter_mut() {
                if sh.touches[r] {
                    sh.prices.set_mu(r, raw.0);
                }
            }
        }
        for sh in self.shards.iter_mut() {
            for (local, &gt) in sh.tasks.iter().enumerate() {
                for p in 0..sh.plan.num_task_paths(local) {
                    sh.prices.set_path_dual_raw(local, p, state.prices().path_dual_raw(gt, p));
                }
                let range = sh.plan.task_range(local);
                sh.lats[range].copy_from_slice(&state.lats()[gt]);
            }
        }
        self.book.iteration = state.iteration();
        self.book.restart(self.utility());
        Ok(())
    }

    /// The shard with the fewest tasks (ties break to the lowest index).
    fn least_loaded_shard(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .min_by_key(|(k, sh)| (sh.tasks.len(), *k))
            .expect("at least one shard")
            .0
    }

    /// Re-lowers shard `k`'s plan against the live problem, reusing its
    /// scratch pool, and counts the lowering in telemetry.
    fn relower_shard(&mut self, k: usize) {
        let _prof = self.profiler.scope("plan_lower");
        let sh = &mut self.shards[k];
        let plan = Plan::lower_subset(&self.problem, &self.config.allocation, &sh.tasks);
        sh.scratch.resize_for(&plan);
        sh.plan = plan;
        self.book.count_lowering();
    }

    /// Recomputes resource `r`'s price authority from the current touch
    /// sets, transferring the full raw dual state `(μ, γ, last_grad)` on
    /// an ownership change and refreshing every toucher's μ mirror.
    fn reclassify(&mut self, r: usize) {
        let mut touchers = (0..self.shards.len()).filter(|&k| self.shards[k].touches[r]);
        let first = touchers.next();
        let new_owner = match (first, touchers.next()) {
            (Some(k), None) => ResourceOwner::Shard(k),
            _ => ResourceOwner::Coordinator,
        };
        if new_owner != self.owner[r] {
            let raw = match self.owner[r] {
                ResourceOwner::Shard(j) => self.shards[j].prices.resource_dual_raw(r),
                ResourceOwner::Coordinator => self.coordinator.resource_dual_raw(r),
            };
            match new_owner {
                ResourceOwner::Shard(j) => self.shards[j].prices.set_resource_dual_raw(r, raw),
                ResourceOwner::Coordinator => self.coordinator.set_resource_dual_raw(r, raw),
            }
            self.owner[r] = new_owner;
            for (k, sh) in self.shards.iter_mut().enumerate() {
                sh.owned[r] = new_owner == ResourceOwner::Shard(k);
            }
            self.coordinated = (0..self.owner.len())
                .filter(|&x| self.owner[x] == ResourceOwner::Coordinator)
                .collect();
            if let Some(series) = &self.series {
                series.coordinated_resources.set(self.coordinated.len() as f64);
            }
        }
        let mu = match self.owner[r] {
            ResourceOwner::Shard(j) => self.shards[j].prices.mu(r),
            ResourceOwner::Coordinator => self.coordinator.mu(r),
        };
        for sh in self.shards.iter_mut() {
            if sh.touches[r] {
                sh.prices.set_mu(r, mu);
            }
        }
    }

    /// Reassembles the flat shard latencies into global task order.
    fn nested_lats(&self) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); self.problem.tasks().len()];
        for sh in &self.shards {
            for (local, &gt) in sh.tasks.iter().enumerate() {
                out[gt] = sh.lats[sh.plan.task_range(local)].to_vec();
            }
        }
        out
    }
}

/// `touches[r]` for a shard holding `tasks`: whether any of their subtasks
/// runs on resource `r`.
fn touch_set(problem: &Problem, tasks: &[usize]) -> Vec<bool> {
    let mut touches = vec![false; problem.resources().len()];
    for &t in tasks {
        for sub in problem.tasks()[t].subtasks() {
            touches[sub.resource().index()] = true;
        }
    }
    touches
}

/// The distinct resource indices `task` runs on, ascending.
fn task_resources(task: &Task) -> Vec<usize> {
    let mut rs: Vec<usize> = task.subtasks().iter().map(|s| s.resource().index()).collect();
    rs.sort_unstable();
    rs.dedup();
    rs
}

impl Driver for ShardedOptimizer {
    fn book(&self) -> &RoundBook {
        &self.book
    }

    fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    fn round(&mut self) -> IterationReport {
        self.step()
    }

    fn price_movement(&self) -> f64 {
        self.max_rel_price_step()
    }

    fn feasible_walk(&self) -> bool {
        self.problem.is_feasible(&self.nested_lats(), self.config.feasibility_tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocationSettings;
    use crate::optimizer::Optimizer;
    use crate::resource::{Resource, ResourceKind};
    use crate::round_book::{COUNTERS, GAUGES};
    use crate::utility::UtilityFn;

    /// Four two-stage tasks over four CPUs: tasks {0,1} live on CPUs
    /// {0,1}, tasks {2,3} on CPUs {2,3}, and every task's second stage
    /// also crosses the shared link (resource 4).
    fn clustered_problem() -> Problem {
        let mut resources: Vec<Resource> = (0..4)
            .map(|i| Resource::new(ResourceId::new(i), ResourceKind::Cpu).with_lag(1.0))
            .collect();
        resources.push(Resource::new(ResourceId::new(4), ResourceKind::NetworkLink).with_lag(0.5));
        let mut tasks = Vec::new();
        for i in 0..4usize {
            let cpu = |n: usize| ResourceId::new(2 * (i / 2) + n);
            let mut b = TaskBuilder::new(format!("t{i}"));
            let a = b.subtask("a", cpu(0), 2.0);
            let c = b.subtask("b", cpu(1), 3.0);
            let l = b.subtask("l", ResourceId::new(4), 1.0);
            b.edge(a, c).unwrap();
            b.edge(c, l).unwrap();
            let ct = 50.0 + 10.0 * i as f64;
            b.critical_time(ct).utility(UtilityFn::linear_for_deadline(2.0, ct));
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        Problem::new(resources, tasks).unwrap()
    }

    fn config() -> OptimizerConfig {
        OptimizerConfig {
            allocation: AllocationSettings { throughput_floor: false, ..Default::default() },
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn spec_validation_rejects_non_partitions() {
        let p = clustered_problem();
        let bad = |groups: Vec<Vec<usize>>| {
            ShardedOptimizer::new(p.clone(), config(), ShardSpec::from_groups(groups)).unwrap_err()
        };
        assert!(matches!(bad(vec![]), ModelError::InvalidParameter { what: "shard count", .. }));
        assert!(matches!(
            bad(vec![vec![0, 1, 2, 3], vec![]]),
            ModelError::InvalidParameter { what: "empty shard group", .. }
        ));
        assert!(matches!(
            bad(vec![vec![0, 1], vec![2, 9]]),
            ModelError::InvalidParameter { what: "shard task index", .. }
        ));
        assert!(matches!(
            bad(vec![vec![0, 1, 2], vec![2, 3]]),
            ModelError::InvalidParameter { what: "task assigned to two shards", .. }
        ));
        assert!(matches!(
            bad(vec![vec![0, 1], vec![3]]),
            ModelError::InvalidParameter { what: "task not covered by any shard", .. }
        ));
    }

    #[test]
    fn ownership_classifies_exclusive_shared_and_unused() {
        let mut p = clustered_problem();
        p.add_resource(Resource::new(ResourceId::new(5), ResourceKind::Cpu).with_lag(1.0)).unwrap();
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let opt = ShardedOptimizer::new(p, config(), spec).unwrap();
        assert_eq!(opt.resource_owner(0), ResourceOwner::Shard(0));
        assert_eq!(opt.resource_owner(1), ResourceOwner::Shard(0));
        assert_eq!(opt.resource_owner(2), ResourceOwner::Shard(1));
        assert_eq!(opt.resource_owner(3), ResourceOwner::Shard(1));
        assert_eq!(opt.resource_owner(4), ResourceOwner::Coordinator, "link is shared");
        assert_eq!(opt.resource_owner(5), ResourceOwner::Coordinator, "unused goes upstream");
        assert_eq!(opt.num_shared_resources(), 1);
    }

    #[test]
    fn single_shard_is_bit_identical_to_monolithic() {
        let p = clustered_problem();
        let mut mono = Optimizer::new(p.clone(), config());
        let mut sharded =
            ShardedOptimizer::new(p.clone(), config(), ShardSpec::contiguous(4, 1)).unwrap();
        for i in 0..400 {
            let a = mono.step();
            let b = sharded.step();
            assert_eq!(a.utility, b.utility, "utility diverged at step {i}");
            assert_eq!(a.max_resource_violation, b.max_resource_violation, "step {i}");
            assert_eq!(a.max_path_violation, b.max_path_violation, "step {i}");
        }
        assert_eq!(mono.allocation(), sharded.allocation());
        let state = sharded.export_state();
        assert_eq!(state.prices().mus(), mono.prices().mus());
        for t in 0..4 {
            assert_eq!(state.prices().lambdas(t), mono.prices().lambdas(t));
        }
        assert_eq!(mono.has_converged(), sharded.has_converged());
    }

    #[test]
    fn single_shard_publishes_the_same_shared_series_as_monolithic() {
        let p = clustered_problem();
        let mut mono = Optimizer::new(p.clone(), config());
        let mut sharded = ShardedOptimizer::new(p, config(), ShardSpec::contiguous(4, 1)).unwrap();
        // Both drivers count only lowerings after attachment; the
        // monolithic one lowers lazily on its first round, the sharded one
        // eagerly in `new`, so each runs one round before attaching.
        mono.step();
        sharded.step();
        let (mono_reg, shard_reg) = (MetricsRegistry::new(), MetricsRegistry::new());
        mono.attach_telemetry(&mono_reg);
        sharded.attach_telemetry(&shard_reg);
        let mut late = TaskBuilder::new("late");
        late.subtask("s", ResourceId::new(4), 1.0);
        late.critical_time(80.0).utility(UtilityFn::linear_for_deadline(1.0, 80.0));
        for round in 0..300 {
            if round == 150 {
                // A join re-lowers the whole plan and the one shard alike.
                mono.add_task(&late).unwrap();
                sharded.add_task(&late, None).unwrap();
            }
            mono.step();
            sharded.step();
            for (name, _) in COUNTERS {
                let (a, b) = (mono_reg.counter(name, "").get(), shard_reg.counter(name, "").get());
                assert_eq!(a, b, "{name} differs after round {round}");
            }
            for (name, _) in GAUGES {
                let (a, b) = (mono_reg.gauge(name, "").get(), shard_reg.gauge(name, "").get());
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} differs after round {round}: {a} vs {b}"
                );
            }
        }
        assert_eq!(mono_reg.counter("lla_opt_plan_lowerings_total", "").get(), 1);
        assert!(mono_reg.counter("lla_opt_gamma_doublings_total", "").get() > 0);
    }

    #[test]
    fn two_shards_track_monolithic_within_tolerance() {
        let p = clustered_problem();
        let mut mono = Optimizer::new(p.clone(), config());
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut sharded = ShardedOptimizer::new(p, config(), spec).unwrap();
        mono.run(600);
        sharded.run(600);
        let (ma, sa) = (mono.allocation(), sharded.allocation());
        for t in 0..4 {
            for s in 0..3 {
                let (x, y) = (ma.latency(t, s), sa.latency(t, s));
                assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "task {t} sub {s}: {x} vs {y}");
            }
        }
        let kkt = sharded.kkt();
        assert!(kkt.max_resource_violation <= 1e-6, "{kkt:?}");
        assert!(kkt.max_path_violation <= 1e-6, "{kkt:?}");
    }

    #[test]
    fn sharded_converges_and_is_feasible() {
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut sharded = ShardedOptimizer::new(p, config(), spec).unwrap();
        let outcome = sharded.run_to_convergence(5_000);
        assert!(outcome.converged, "sharded LLA must converge on a schedulable workload");
        assert!(outcome.feasible);
    }

    #[test]
    fn add_task_relowers_only_the_receiving_shard() {
        let registry = MetricsRegistry::new();
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut opt = ShardedOptimizer::new(p, config(), spec).unwrap();
        opt.attach_telemetry(&registry);
        opt.run(10);
        let mut b = TaskBuilder::new("late");
        b.subtask("s", ResourceId::new(0), 1.0);
        b.critical_time(60.0).utility(UtilityFn::linear_for_deadline(1.0, 60.0));
        let id = opt.add_task(&b, Some(0)).unwrap();
        assert_eq!(opt.shard_of(id), 0);
        let c = registry.counter("lla_opt_plan_lowerings_total", "");
        assert_eq!(c.get(), 1, "exactly one shard re-lowered on a join");
        assert_eq!(opt.shard_tasks(0), &[0, 1, 4]);
        assert_eq!(opt.shard_tasks(1), &[2, 3]);
        opt.run(10);
        assert_eq!(c.get(), 1, "steady-state rounds never re-lower");
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn remove_task_relowers_only_the_owning_shard() {
        let registry = MetricsRegistry::new();
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut opt = ShardedOptimizer::new(p, config(), spec).unwrap();
        opt.attach_telemetry(&registry);
        opt.run(10);
        let report = opt.remove_task(TaskId::new(1)).unwrap();
        assert_eq!(report.task_map, vec![Some(0), None, Some(1), Some(2)]);
        let c = registry.counter("lla_opt_plan_lowerings_total", "");
        assert_eq!(c.get(), 1, "only the owning shard re-lowers on a leave");
        assert_eq!(opt.shard_tasks(0), &[0]);
        assert_eq!(opt.shard_tasks(1), &[1, 2], "other shards remap indices without re-lowering");
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn availability_change_relowers_only_touching_shards() {
        let registry = MetricsRegistry::new();
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut opt = ShardedOptimizer::new(p, config(), spec).unwrap();
        opt.attach_telemetry(&registry);
        opt.run(10);
        let c = registry.counter("lla_opt_plan_lowerings_total", "");
        // CPU 0 is touched only by shard 0.
        opt.set_resource_availability(ResourceId::new(0), 0.8).unwrap();
        assert_eq!(c.get(), 1);
        // The shared link is touched by both shards.
        opt.set_resource_availability(ResourceId::new(4), 0.9).unwrap();
        assert_eq!(c.get(), 3);
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn join_reclassifies_ownership_and_transfers_duals() {
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut opt = ShardedOptimizer::new(p, config(), spec).unwrap();
        opt.run(50);
        let mu_before = opt.export_state().prices().mu(2);
        // A shard-0 task landing on CPU 2 makes it shared: ownership moves
        // Shard(1) → Coordinator with the μ carried over.
        let mut b = TaskBuilder::new("crosser");
        b.subtask("x", ResourceId::new(2), 1.0);
        b.critical_time(70.0).utility(UtilityFn::linear_for_deadline(1.0, 70.0));
        opt.add_task(&b, Some(0)).unwrap();
        assert_eq!(opt.resource_owner(2), ResourceOwner::Coordinator);
        assert_eq!(opt.export_state().prices().mu(2), mu_before, "dual state must transfer");
        // Removing the crosser hands CPU 2 back to shard 1.
        let id = TaskId::new(4);
        opt.remove_task(id).unwrap();
        assert_eq!(opt.resource_owner(2), ResourceOwner::Shard(1));
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn export_state_imports_into_monolithic_and_continues_exactly() {
        let p = clustered_problem();
        let mut sharded =
            ShardedOptimizer::new(p.clone(), config(), ShardSpec::contiguous(4, 1)).unwrap();
        sharded.run(120);
        let state = sharded.export_state();
        let mut mono = Optimizer::new(p, config());
        mono.try_import_state(state, None).unwrap();
        assert_eq!(mono.iterations(), 120);
        for i in 0..150 {
            let a = sharded.step();
            let b = mono.step();
            assert_eq!(a.utility, b.utility, "handoff diverged at step {i}");
        }
    }

    #[test]
    fn import_state_roundtrips_through_sharded() {
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut a = ShardedOptimizer::new(p.clone(), config(), spec.clone()).unwrap();
        a.run(80);
        let state = a.export_state();
        let mut b = ShardedOptimizer::new(p, config(), spec).unwrap();
        b.try_import_state(state, None).unwrap();
        assert_eq!(b.iterations(), 80);
        for i in 0..100 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra.utility, rb.utility, "restore diverged at step {i}");
        }
    }

    #[test]
    fn import_state_rejects_bad_shapes() {
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 1], vec![2, 3]]);
        let mut opt = ShardedOptimizer::new(p.clone(), config(), spec).unwrap();
        let pristine = opt.export_state();
        let mut mono = Optimizer::new(p, config());
        let mut short = mono.export_state();
        short = OptimizerState::from_parts(
            short.prices().clone(),
            short.lats()[..3].to_vec(),
            short.iteration(),
        );
        assert_eq!(
            opt.try_import_state(short, None),
            Err(StateImportError::TaskCountMismatch { expected: 4, found: 3 })
        );
        assert_eq!(
            opt.try_import_state(pristine.clone().with_epoch(3), Some(7)),
            Err(StateImportError::EpochMismatch { expected: 7, found: 3 })
        );
        // A failed import leaves the driver untouched.
        let after = opt.export_state();
        assert_eq!(after.prices(), pristine.prices());
        assert_eq!(after.lats(), pristine.lats());
        let _ = mono.step();
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_shard_fanout_is_bit_identical_to_sequential_merge() {
        // With the feature on, multi-shard rounds fan out one thread per
        // shard; determinism must not depend on the worker count because
        // every cross-shard reduction happens in fixed shard order.
        let p = clustered_problem();
        let spec = ShardSpec::from_groups(vec![vec![0, 2], vec![1, 3]]);
        let mut a = ShardedOptimizer::new(p.clone(), config(), spec.clone()).unwrap();
        let mut b = ShardedOptimizer::new(p, config(), spec).unwrap();
        for _ in 0..200 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra.utility, rb.utility);
        }
        assert_eq!(a.allocation(), b.allocation());
    }
}
