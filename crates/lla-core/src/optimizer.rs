//! The LLA optimizer: the iteration loop tying allocation and pricing
//! together (§4.1).
//!
//! LLA solves the optimization problem iteratively. A single iteration
//! consists of **latency allocation** (each task controller predicts
//! optimal latencies at fixed prices) and **price computation** (each
//! resource and path adjusts its price at fixed latencies). The algorithm
//! iterates indefinitely; allocations may be enacted periodically or when
//! significant changes occur. [`Optimizer`] embodies this loop in a single
//! address space; the `lla-dist` crate runs the same steps as
//! message-passing actors.

use crate::allocation::AllocationSettings;
use crate::error::ModelError;
use crate::ids::{ResourceId, TaskId};
use crate::lagrangian::{kkt_report, KktReport};
use crate::plan::{Plan, PlanScratch};
use crate::prices::{PriceState, StepSizePolicy};
use crate::problem::{MembershipReport, Problem};
use crate::resource::Resource;
use crate::round_book::{self, Driver, RoundBook};
use crate::task::{Task, TaskBuilder};
use crate::trace::{Trace, TraceRecord};
use lla_telemetry::{
    DiagSample, HealthSnapshot, Histogram, MetricsRegistry, Profiler, ResourceHealth,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the [`Optimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Step-size policy for price updates (paper's best: adaptive, γ₀ = 1).
    pub step_policy: StepSizePolicy,
    /// Latency-allocation solver settings.
    pub allocation: AllocationSettings,
    /// Relative utility-change threshold for convergence detection (the
    /// paper's prototype stops refining below 1% = `0.01`).
    pub convergence_tol: f64,
    /// Number of consecutive below-threshold iterations required.
    pub convergence_window: usize,
    /// Feasibility tolerance used when declaring convergence.
    pub feasibility_tol: f64,
    /// Price-quiescence tolerance: convergence additionally requires the
    /// last price update's largest relative movement
    /// (`|Δprice|/(1+price)`) to fall below this. Guards against declaring
    /// convergence mid-way through a slow price drift whose effect on
    /// utility per iteration is tiny.
    pub price_tol: f64,
    /// Whether to record a full [`Trace`] (cheap; on by default).
    pub record_trace: bool,
    /// Maximum trace records to retain (`None` = unbounded). When set,
    /// the trace downsamples by stride doubling so long soaks keep a
    /// uniform, bounded history (see [`Trace::bounded`]).
    #[serde(default)]
    pub trace_capacity: Option<usize>,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            step_policy: StepSizePolicy::default(),
            allocation: AllocationSettings::default(),
            convergence_tol: 1e-6,
            convergence_window: 10,
            feasibility_tol: 1e-3,
            price_tol: 1e-4,
            record_trace: true,
            trace_capacity: None,
        }
    }
}

/// The latencies LLA has assigned to every subtask, plus derived views.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    lats: Vec<Vec<f64>>,
}

impl Allocation {
    /// Wraps raw per-task latency vectors.
    pub fn from_lats(lats: Vec<Vec<f64>>) -> Self {
        Allocation { lats }
    }

    /// `lats[t][s]`: latency of subtask `s` of task `t`, in milliseconds.
    pub fn lats(&self) -> &[Vec<f64>] {
        &self.lats
    }

    /// Latency of one subtask.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn latency(&self, task: usize, subtask: usize) -> f64 {
        self.lats[task][subtask]
    }

    /// The end-to-end (critical-path) latency of a task under this
    /// allocation.
    pub fn task_latency(&self, task: &Task) -> f64 {
        task.critical_path(&self.lats[task.id().index()]).1
    }

    /// The share each subtask of `task` demands under this allocation.
    pub fn shares(&self, problem: &Problem, task: &Task) -> Vec<f64> {
        let t = task.id().index();
        (0..task.len())
            .map(|s| problem.share_model(task.subtask_id(s)).share_for_latency(self.lats[t][s]))
            .collect()
    }
}

/// Summary of one optimizer iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// Iteration number (0-based, monotonically increasing over the
    /// optimizer's lifetime).
    pub iteration: usize,
    /// Total utility after the allocation step.
    pub utility: f64,
    /// `max_r (usage_r − B_r)`.
    pub max_resource_violation: f64,
    /// `max_p (path_latency/C − 1)`.
    pub max_path_violation: f64,
}

/// Outcome of [`Optimizer::run_to_convergence`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Whether the convergence criterion fired within the budget.
    pub converged: bool,
    /// Iterations actually executed in this call.
    pub iterations: usize,
    /// Utility at the last iteration.
    pub final_utility: f64,
    /// Whether the final allocation satisfies both constraint families.
    pub feasible: bool,
}

/// The LLA optimization loop over a [`Problem`].
///
/// See the crate-level documentation for a complete example. The optimizer
/// is deliberately *online*: [`Optimizer::step`] can be called forever, the
/// problem can be mutated between steps
/// ([`set_resource_availability`](Optimizer::set_resource_availability),
/// [`set_correction`](Optimizer::set_correction)), and the convergence
/// detector re-arms automatically after every change.
#[derive(Debug, Clone)]
pub struct Optimizer {
    problem: Problem,
    prices: PriceState,
    lats: Vec<Vec<f64>>,
    config: OptimizerConfig,
    trace: Trace,
    /// Convergence detector and the shared `lla_opt_*` series.
    book: RoundBook,
    /// Compiled iteration plan + scratch, lowered lazily and re-lowered
    /// whenever [`Problem::epoch`] moves past the plan's snapshot. The
    /// plan is shared with the problem's memo slot.
    plan: Option<Box<PlanCtx>>,
    /// Histograms for [`PHASES`] (`None` unless
    /// [`attach_telemetry`](Optimizer::attach_telemetry) got a live
    /// registry — the plain path reads no clock).
    phases: Option<Box<[Histogram; 3]>>,
    /// Phase profiler (disabled by default — a disabled handle's scopes
    /// are branch-on-bool no-ops, see
    /// [`attach_profiler`](Optimizer::attach_profiler)).
    profiler: Profiler,
}

#[derive(Debug, Clone)]
struct PlanCtx {
    plan: Arc<Plan>,
    scratch: PlanScratch,
    /// `scratch.lats` holds `lats` flattened, so the next allocation can
    /// start from it without re-flattening. Cleared when the plan is
    /// re-lowered or the latencies are replaced from outside a step.
    warm: bool,
}

/// Wall-clock bucket bounds for the per-phase step timings (seconds):
/// 1 µs … 1 s, one decade per bucket.
const PHASE_SECONDS_BOUNDS: [f64; 7] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// `(name, help)` of the optimizer's own series on top of the shared
/// ones: the wall time of a step's three phases.
const PHASES: [(&str, &str); 3] = [
    (
        "lla_opt_phase_allocate_seconds",
        "wall-clock cost of the latency-allocation phase per iteration",
    ),
    ("lla_opt_phase_price_seconds", "wall-clock cost of the price-computation phase per iteration"),
    (
        "lla_opt_phase_diagnostics_seconds",
        "wall-clock cost of utility/violation/trace bookkeeping per iteration",
    ),
];

impl Optimizer {
    /// Creates an optimizer with the problem's
    /// [`initial_allocation`](Problem::initial_allocation) and zero prices.
    pub fn new(problem: Problem, config: OptimizerConfig) -> Self {
        let lats = problem.initial_allocation();
        let prices = PriceState::new(&problem, config.step_policy);
        let last_utility = problem.total_utility(&lats);
        Optimizer {
            problem,
            prices,
            lats,
            config,
            trace: Trace::bounded(config.trace_capacity),
            book: RoundBook::new(last_utility),
            plan: None,
            phases: None,
            profiler: Profiler::disabled(),
        }
    }

    /// Registers the optimizer metric family on `registry` and starts
    /// publishing from every subsequent [`step`](Optimizer::step). With a
    /// disabled registry the handles no-op and phase timing is skipped,
    /// so the residual overhead is a few branches per iteration.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        // Mirror only doublings that happen from now on.
        self.book.attach(registry, self.prices.gamma_doublings());
        let phase = |(name, help)| registry.histogram(name, help, &PHASE_SECONDS_BOUNDS);
        self.phases = registry.is_enabled().then(|| Box::new(PHASES.map(phase)));
    }

    /// Starts charging per-kernel wall time and call counts to
    /// `profiler`: every [`step`](Optimizer::step) opens a `step` scope
    /// with `allocate` / `price` / `lagrangian` / `trace` children, plan
    /// (re-)lowering a `plan_lower` scope, and [`kkt`](Optimizer::kkt) a
    /// `kkt` scope. Purely passive — it never touches a float the
    /// algorithm uses — and a disabled profiler costs one branch per
    /// scope.
    pub fn attach_profiler(&mut self, profiler: &Profiler) {
        self.profiler = profiler.clone();
    }

    /// Stops profiling (recorded scopes stay in the profiler).
    pub fn detach_profiler(&mut self) {
        self.profiler = Profiler::disabled();
    }

    /// The problem being optimized.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The current dual variables.
    pub fn prices(&self) -> &PriceState {
        &self.prices
    }

    /// The current allocation.
    pub fn allocation(&self) -> Allocation {
        Allocation::from_lats(self.lats.clone())
    }

    /// The current total utility.
    pub fn utility(&self) -> f64 {
        self.problem.total_utility(&self.lats)
    }

    /// The recorded trace (empty when `record_trace` is off).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total iterations executed over the optimizer's lifetime.
    pub fn iterations(&self) -> usize {
        self.book.iteration
    }

    /// Updates a resource's availability `B_r` mid-run; LLA adapts.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownResourceId`] or
    /// [`ModelError::InvalidParameter`] (non-finite or out-of-`[0, 1]`
    /// availability); the optimizer state is untouched on error.
    pub fn set_resource_availability(
        &mut self,
        r: crate::ids::ResourceId,
        availability: f64,
    ) -> Result<(), ModelError> {
        self.problem.set_resource_availability(r, availability)?;
        self.rearm();
        Ok(())
    }

    /// Updates a subtask's additive latency error correction `ê` (§6.3).
    pub fn set_correction(&mut self, s: crate::ids::SubtaskId, correction: f64) {
        self.problem.set_correction(s, correction);
        self.rearm();
    }

    /// Updates a subtask's multiplicative demand correction (the
    /// demand-scaling alternative to §6.3's additive model).
    pub fn set_demand_scale(&mut self, s: crate::ids::SubtaskId, scale: f64) {
        self.problem.set_demand_scale(s, scale);
        self.rearm();
    }

    /// Re-arms the convergence detector (call after any external change to
    /// the problem).
    pub fn rearm(&mut self) {
        self.book.rearm();
    }

    /// Admits a task mid-run with warm-started duals: incumbents keep
    /// their prices and latencies; the newcomer starts from the problem's
    /// initial allocation and zero duals. Returns the new task's id.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::add_task`]; the optimizer is unchanged on
    /// error.
    pub fn add_task(&mut self, builder: &TaskBuilder) -> Result<TaskId, ModelError> {
        let report = self.problem.add_task(builder)?;
        let id = report.added_task.expect("add_task reports the new id");
        self.prices = self.prices.remap(&self.problem, &report);
        self.lats.push(self.problem.initial_task_allocation(id));
        self.book.restart(self.utility());
        Ok(id)
    }

    /// Discards the dual state and restarts every price (and step size)
    /// from the initial point, keeping the current allocation.
    ///
    /// Warm duals are normally the point of online membership — but duals
    /// that integrated a *sustained-infeasible* gradient are poisoned:
    /// they grow without bound while the overload lasts, and once load is
    /// shed the re-bound constraints leave them decaying at a near-zero
    /// rate (`γ·slack` with `slack → 0`), parking the allocation far from
    /// the optimum indefinitely. Overload shedding therefore resets the
    /// prices (see [`governed_step`](crate::overload::governed_step));
    /// re-convergence is then bounded by the cold-start rate.
    pub fn reset_prices(&mut self) {
        self.prices = PriceState::new(&self.problem, self.config.step_policy);
    }

    /// Removes a task mid-run; survivors keep warm duals and latencies
    /// under their re-densified ids. Returns the id-remap report.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::remove_task`]; the optimizer is unchanged
    /// on error.
    pub fn remove_task(&mut self, id: TaskId) -> Result<MembershipReport, ModelError> {
        let report = self.problem.remove_task(id)?;
        self.prices = self.prices.remap(&self.problem, &report);
        let mut lats = vec![Vec::new(); self.problem.tasks().len()];
        for (old, m) in report.task_map.iter().enumerate() {
            if let Some(new) = *m {
                lats[new] = std::mem::take(&mut self.lats[old]);
            }
        }
        self.lats = lats;
        self.book.restart(self.utility());
        Ok(report)
    }

    /// Adds a resource mid-run (it starts unpriced and empty). Returns the
    /// new resource's id.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::add_resource`].
    pub fn add_resource(&mut self, resource: Resource) -> Result<ResourceId, ModelError> {
        let report = self.problem.add_resource(resource)?;
        let id = report.added_resource.expect("add_resource reports the new id");
        self.prices = self.prices.remap(&self.problem, &report);
        self.book.restart(self.utility());
        Ok(id)
    }

    /// Retires a (drained) resource mid-run; surviving resources keep warm
    /// duals under their re-densified ids. Returns the id-remap report.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::retire_resource`].
    pub fn retire_resource(&mut self, id: ResourceId) -> Result<MembershipReport, ModelError> {
        let report = self.problem.retire_resource(id)?;
        self.prices = self.prices.remap(&self.problem, &report);
        self.book.restart(self.utility());
        Ok(report)
    }

    /// Moves every subtask on `from` over to `to` (drain before
    /// retirement); share models are rebuilt with the destination lag.
    /// Returns how many subtasks moved.
    ///
    /// # Errors
    ///
    /// Any error from [`Problem::reassign_resource`].
    pub fn reassign_resource(
        &mut self,
        from: ResourceId,
        to: ResourceId,
    ) -> Result<usize, ModelError> {
        let moved = self.problem.reassign_resource(from, to)?;
        if moved > 0 {
            self.rearm();
        }
        Ok(moved)
    }

    /// Lowers (or re-lowers) the iteration plan when absent or stale, and
    /// memoises it in the problem for [`dual_value`](crate::dual_value).
    fn ensure_plan(&mut self) {
        if self.plan.as_ref().is_some_and(|ctx| ctx.plan.epoch() == self.problem.epoch()) {
            return;
        }
        let _prof = self.profiler.scope("plan_lower");
        let plan = Arc::new(Plan::lower(&self.problem, &self.config.allocation));
        match &mut self.plan {
            // Re-lowering reuses the existing scratch pool: membership
            // epochs resize the buffers in place instead of reallocating
            // them all per epoch.
            Some(ctx) => {
                ctx.scratch.resize_for(&plan);
                ctx.plan = Arc::clone(&plan);
                ctx.warm = false;
            }
            None => {
                let scratch = plan.scratch();
                self.plan =
                    Some(Box::new(PlanCtx { plan: Arc::clone(&plan), scratch, warm: false }));
            }
        }
        self.problem.install_plan(plan);
        self.book.count_lowering();
    }

    /// Executes one LLA iteration: latency allocation at current prices,
    /// then price computation at the new latencies.
    ///
    /// Runs over the compiled [`Plan`] (lowered lazily, re-lowered when the
    /// problem's mutation epoch moves), so the hot loop touches only flat
    /// arrays and reusable scratch — zero per-iteration heap allocation —
    /// while remaining bit-identical to the naive nested evaluation.
    pub fn step(&mut self) -> IterationReport {
        self.ensure_plan();
        let _step_prof = self.profiler.scope("step");
        // Phase timing only when telemetry is attached to a *live*
        // registry; the plain path performs no clock reads at all.
        let timed = self.phases.is_some();
        let mut ctx = self.plan.take().expect("ensure_plan always installs a plan");
        let PlanCtx { plan, scratch, warm } = &mut *ctx;
        let t0 = timed.then(Instant::now);
        {
            let _prof = self.profiler.scope("allocate");
            if *warm {
                scratch.advance();
            } else {
                plan.flatten_into(&self.lats, scratch.prev_mut());
                *warm = true;
            }
            plan.allocate_into(&self.prices, scratch);
            plan.unflatten_into(scratch.lats(), &mut self.lats);
        }
        let t1 = timed.then(Instant::now);
        let violations = {
            let _prof = self.profiler.scope("price");
            plan.price_update(&mut self.prices, scratch)
        };
        let t2 = timed.then(Instant::now);

        let lagr_prof = self.profiler.scope("lagrangian");
        let utility = plan.total_utility(scratch.lats());
        drop(lagr_prof);
        let _trace_prof = self.profiler.scope("trace");
        if self.config.record_trace {
            self.trace.push(TraceRecord {
                iteration: self.book.iteration,
                utility,
                resource_usage: scratch.usage().to_vec(),
                critical_path_ratio: plan.critical_path_ratios(scratch.path_lat()),
            });
        }
        self.plan = Some(ctx);

        let (price_step, doublings) =
            (self.prices.last_max_rel_step(), self.prices.gamma_doublings());
        let report =
            self.book.close_round(&self.config, utility, violations, price_step, doublings);
        if let (Some(phases), Some(t0), Some(t1), Some(t2)) = (&self.phases, t0, t1, t2) {
            let spans = [t1 - t0, t2 - t1, t2.elapsed()];
            for (histogram, span) in phases.iter().zip(spans) {
                histogram.observe(span.as_secs_f64());
            }
        }
        report
    }

    /// Whether the convergence criterion currently holds: utility stable
    /// for `convergence_window` iterations, prices quiescent, *and* the
    /// allocation feasible.
    pub fn has_converged(&self) -> bool {
        round_book::has_converged(self)
    }

    /// Runs exactly `iters` iterations (batch mode).
    pub fn run(&mut self, iters: usize) -> Vec<IterationReport> {
        (0..iters).map(|_| self.step()).collect()
    }

    /// Runs until convergence or until `max_iters` iterations elapse.
    pub fn run_to_convergence(&mut self, max_iters: usize) -> RunOutcome {
        round_book::run_to_convergence(self, max_iters)
    }

    /// KKT optimality diagnostics at the current point.
    pub fn kkt(&self) -> KktReport {
        let _prof = self.profiler.scope("kkt");
        kkt_report(&self.problem, &self.lats, &self.prices, &self.config.allocation, 1e-9)
    }

    /// A point-in-time [`HealthSnapshot`]: convergence + feasibility
    /// state, the KKT residuals of [`kkt`](Optimizer::kkt), the worst
    /// constraint-violation factor over resources (`usage/B_r`) and paths
    /// (`latency/C_i`), and per-resource price + usage.
    ///
    /// The shed/membership/failover counts are zero here — a centralized
    /// optimizer has no such events; deployment layers (`lla-dist`,
    /// `lla-bench`) overwrite those fields from their own counters.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let kkt = self.kkt();
        let resources = self
            .problem
            .resources()
            .iter()
            .map(|res| ResourceHealth {
                name: res.name().to_owned(),
                price: self.prices.mu(res.id().index()),
                usage: self.problem.resource_usage(res.id(), &self.lats),
                availability: res.availability(),
            })
            .collect();
        HealthSnapshot {
            converged: self.has_converged(),
            feasible: round_book::feasible(self),
            iteration: self.book.iteration as u64,
            utility: self.problem.total_utility(&self.lats),
            max_stationarity_residual: kkt.max_stationarity_residual,
            max_resource_violation: kkt.max_resource_violation,
            max_path_violation: kkt.max_path_violation,
            max_complementary_slackness: kkt.max_complementary_slackness,
            worst_violation_factor: self.worst_violation_factor(),
            resources,
            shed_count: 0,
            membership_changes: 0,
            failovers: 0,
        }
    }

    /// The worst constraint-violation factor at the current point (see
    /// [`Problem::worst_violation_factor`]).
    pub fn worst_violation_factor(&self) -> f64 {
        self.problem.worst_violation_factor(&self.lats)
    }

    /// One [`DiagSample`] for the convergence-diagnostics engine
    /// (`lla_telemetry::DiagnosticsEngine`): iteration counter, utility,
    /// worst violation factor, cumulative gamma doublings, last relative
    /// price step, and the per-resource prices. `frozen_agents` is zero
    /// here — a centralized optimizer has no staleness freezes; the
    /// distributed facade overwrites that field from its own counters.
    pub fn diag_sample(&self) -> DiagSample {
        DiagSample {
            iteration: self.book.iteration as u64,
            utility: self.problem.total_utility(&self.lats),
            worst_violation_factor: self.worst_violation_factor(),
            gamma_doublings: self.prices.gamma_doublings(),
            max_rel_price_step: self.prices.last_max_rel_step(),
            frozen_agents: 0,
            prices: self.prices.mus().to_vec(),
        }
    }

    /// Exports the optimizer's mutable state (prices, latencies, iteration
    /// counter) for failover or migration: a replacement optimizer created
    /// over an equal problem and restored from this state continues the
    /// run exactly where this one left off.
    pub fn export_state(&self) -> OptimizerState {
        OptimizerState {
            prices: self.prices.clone(),
            lats: self.lats.clone(),
            iteration: self.book.iteration,
            epoch: None,
        }
    }

    /// Restores state captured with [`export_state`](Self::export_state).
    ///
    /// The trace and convergence window restart empty (they are
    /// diagnostics, not algorithm state).
    ///
    /// # Panics
    ///
    /// Panics if the state's shape does not match the problem.
    pub fn import_state(&mut self, state: OptimizerState) {
        if let Err(e) = self.try_import_state(state, None) {
            panic!("state shape mismatch: {e}");
        }
    }

    /// Fallible counterpart of [`import_state`](Self::import_state):
    /// validates the state's shape against the problem and — when
    /// `expected_epoch` is given — the topology epoch the state was
    /// captured under against the importer's. A stale checkpoint (taken
    /// before a membership change) carries duals indexed for a different
    /// task/resource layout; silently restoring them poisons the price
    /// iteration, so callers get a typed error and the optimizer is left
    /// untouched.
    ///
    /// A state with no epoch tag ([`OptimizerState::epoch`] is `None`)
    /// skips the epoch check — pre-epoch checkpoints validate by shape
    /// alone.
    ///
    /// # Errors
    ///
    /// [`StateImportError::EpochMismatch`] when both epochs are known and
    /// differ; [`StateImportError::TaskCountMismatch`] /
    /// [`StateImportError::RowShapeMismatch`] when the latency matrix does
    /// not match the problem; [`StateImportError::ResourceCountMismatch`]
    /// when the resource prices do not.
    pub fn try_import_state(
        &mut self,
        state: OptimizerState,
        expected_epoch: Option<u64>,
    ) -> Result<(), StateImportError> {
        round_book::validate_state(&state, &self.problem, expected_epoch)?;
        self.book.iteration = state.iteration;
        self.book.restart(self.problem.total_utility(&state.lats));
        self.prices = state.prices;
        self.lats = state.lats;
        if let Some(ctx) = &mut self.plan {
            ctx.warm = false;
        }
        Ok(())
    }
}

impl Driver for Optimizer {
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
        self.prices.last_max_rel_step()
    }

    fn feasible_walk(&self) -> bool {
        self.problem.is_feasible(&self.lats, self.config.feasibility_tol)
    }
}

/// Why a checkpointed [`OptimizerState`] was rejected on import: the
/// typed alternative to the legacy `import_state` panic, so failover
/// paths can fall back to a fresh start instead of restoring bad duals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateImportError {
    /// The checkpoint was captured under a different topology epoch than
    /// the importer runs at — its duals index a different membership.
    EpochMismatch {
        /// The importer's current topology epoch.
        expected: u64,
        /// The epoch the checkpoint was captured under.
        found: u64,
    },
    /// The state's latency matrix has a different task count than the
    /// problem.
    TaskCountMismatch {
        /// Tasks in the importing problem.
        expected: usize,
        /// Task rows in the checkpoint.
        found: usize,
    },
    /// One task's latency row has the wrong subtask count.
    RowShapeMismatch {
        /// The offending task index.
        task: usize,
        /// Subtasks in the importing problem's task.
        expected: usize,
        /// Entries in the checkpoint row.
        found: usize,
    },
    /// Per-resource state in the checkpoint covers a different resource
    /// count than the problem.
    ResourceCountMismatch {
        /// Resources in the importing problem.
        expected: usize,
        /// Resources covered by the checkpoint.
        found: usize,
    },
}

impl std::fmt::Display for StateImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StateImportError::EpochMismatch { expected, found } => {
                write!(f, "checkpoint epoch {found} does not match topology epoch {expected}")
            }
            StateImportError::TaskCountMismatch { expected, found } => {
                write!(f, "checkpoint has {found} task rows, problem has {expected}")
            }
            StateImportError::RowShapeMismatch { task, expected, found } => {
                write!(f, "task {task} row has {found} entries, problem expects {expected}")
            }
            StateImportError::ResourceCountMismatch { expected, found } => {
                write!(f, "checkpoint covers {found} resources, problem has {expected}")
            }
        }
    }
}

impl std::error::Error for StateImportError {}

/// The mutable state of an [`Optimizer`], as captured by
/// [`Optimizer::export_state`]. The problem specification itself travels
/// separately (it is configuration, not state).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
    prices: PriceState,
    lats: Vec<Vec<f64>>,
    iteration: usize,
    /// Topology epoch the state was captured under, when the capturing
    /// driver tracks one (`None` for plain centralized exports).
    epoch: Option<u64>,
}

impl OptimizerState {
    /// Assembles a state from its parts. Lets other drivers of the LLA
    /// iteration — e.g. a distributed task controller writing a
    /// checkpoint — capture their state in the same format the
    /// [`Optimizer`] exports, so one restore path serves both.
    pub fn from_parts(prices: PriceState, lats: Vec<Vec<f64>>, iteration: usize) -> Self {
        OptimizerState { prices, lats, iteration, epoch: None }
    }

    /// Tags the state with the topology epoch it was captured under, so
    /// [`Optimizer::try_import_state`] can reject stale checkpoints.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// The topology-epoch tag, if the capturing driver set one.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// The captured price state.
    pub fn prices(&self) -> &PriceState {
        &self.prices
    }

    /// The captured latency assignment.
    pub fn lats(&self) -> &[Vec<f64>] {
        &self.lats
    }

    /// The captured iteration counter.
    pub fn iteration(&self) -> usize {
        self.iteration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ResourceId, TaskId};
    use crate::resource::{Resource, ResourceKind};
    use crate::task::TaskBuilder;
    use crate::utility::UtilityFn;

    /// Two tasks sharing two CPUs, comfortably schedulable.
    fn small_problem() -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut tasks = Vec::new();
        for (i, c) in [(0usize, 40.0), (1usize, 60.0)] {
            let mut b = TaskBuilder::new(format!("t{i}"));
            let a = b.subtask("a", ResourceId::new(0), 2.0);
            let d = b.subtask("b", ResourceId::new(1), 3.0);
            b.edge(a, d).unwrap();
            b.critical_time(c).utility(UtilityFn::linear_for_deadline(2.0, c));
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

    /// A concave utility makes each allocation start from the previous
    /// one, so the optimizer's flat warm start must track the naive round
    /// (`allocate_latencies` from the last latencies, then
    /// `PriceState::update`) bit for bit: across rounds, a checkpoint
    /// restore that replaces the latencies, and a join that re-lowers.
    #[test]
    fn steps_match_the_naive_round_with_concave_utilities() {
        use crate::allocation::allocate_latencies;
        let mut p = small_problem();
        for t in 0..2 {
            let mut b = TaskBuilder::new(format!("q{t}"));
            let a = b.subtask("a", ResourceId::new(t), 1.5);
            let d = b.subtask("b", ResourceId::new(1 - t), 2.5);
            b.edge(a, d).unwrap();
            b.critical_time(50.0).utility(UtilityFn::Quadratic {
                offset: 200.0,
                lin: 0.5,
                quad: 0.01,
            });
            p.add_task(&b).unwrap();
        }
        let settings = config().allocation;
        let mut opt = Optimizer::new(p, config());
        let mut prices = PriceState::new(opt.problem(), config().step_policy);
        let mut lats = opt.problem().initial_allocation();
        let mut checkpoint = None;
        for round in 0..60 {
            if round == 10 {
                checkpoint = Some(opt.export_state());
            }
            if round == 20 {
                let state = checkpoint.take().unwrap();
                (prices, lats) = (state.prices.clone(), state.lats.clone());
                opt.import_state(state);
            }
            if round == 40 {
                let mut b = TaskBuilder::new("late");
                b.subtask("s", ResourceId::new(0), 1.0);
                b.critical_time(45.0).utility(UtilityFn::linear_for_deadline(1.0, 45.0));
                let id = opt.add_task(&b).unwrap();
                let mut report = MembershipReport::identity(id.index(), 2);
                report.added_task = Some(id);
                prices = prices.remap(opt.problem(), &report);
                lats.push(opt.problem().initial_task_allocation(id));
            }
            opt.step();
            lats = allocate_latencies(opt.problem(), &prices, &settings, &lats);
            prices.update(opt.problem(), &lats);
            assert_eq!(opt.allocation().lats(), &lats[..], "latencies diverged at round {round}");
            assert_eq!(opt.prices(), &prices, "prices diverged at round {round}");
        }
    }

    #[test]
    fn converges_on_schedulable_problem() {
        let mut opt = Optimizer::new(small_problem(), config());
        let outcome = opt.run_to_convergence(5_000);
        assert!(outcome.converged, "LLA must converge on a schedulable workload");
        assert!(outcome.feasible);
    }

    #[test]
    fn telemetry_publishes_iterations_and_health_gauges() {
        let registry = MetricsRegistry::new();
        let mut opt = Optimizer::new(small_problem(), config());
        opt.attach_telemetry(&registry);
        opt.run(50);
        let text = registry.prometheus_text();
        assert!(text.contains("lla_opt_iterations_total 50"), "missing iteration count:\n{text}");
        // The plan lowered exactly once (no membership churn).
        assert!(text.contains("lla_opt_plan_lowerings_total 1"));
        // Gauges mirror the optimizer's own view.
        let g = registry.gauge("lla_opt_utility", "");
        assert!((g.get() - opt.utility()).abs() < 1e-12);
        // Phase histograms saw one observation per iteration.
        let h = registry.histogram("lla_opt_phase_allocate_seconds", "", &PHASE_SECONDS_BOUNDS);
        assert_eq!(h.count(), 50);
    }

    #[test]
    fn telemetry_counts_plan_relowering_on_membership_change() {
        let registry = MetricsRegistry::new();
        let mut opt = Optimizer::new(small_problem(), config());
        opt.attach_telemetry(&registry);
        opt.run(5);
        let mut b = TaskBuilder::new("late");
        b.subtask("s", ResourceId::new(0), 1.0);
        b.critical_time(50.0).utility(UtilityFn::linear_for_deadline(1.0, 50.0));
        opt.add_task(&b).unwrap();
        opt.run(5);
        let c = registry.counter("lla_opt_plan_lowerings_total", "");
        assert_eq!(c.get(), 2, "initial lowering + one re-lowering after the join");
    }

    #[test]
    fn telemetry_attached_to_disabled_registry_records_nothing() {
        let registry = MetricsRegistry::disabled();
        let mut opt = Optimizer::new(small_problem(), config());
        opt.attach_telemetry(&registry);
        let mut plain = Optimizer::new(small_problem(), config());
        opt.run(100);
        plain.run(100);
        // Bit-identical to the un-instrumented run.
        assert_eq!(opt.utility(), plain.utility());
        assert_eq!(registry.prometheus_text(), "");
    }

    #[test]
    fn diag_sample_mirrors_optimizer_state() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run(50);
        let s = opt.diag_sample();
        assert_eq!(s.iteration, 50);
        assert_eq!(s.utility, opt.utility());
        assert_eq!(s.gamma_doublings, opt.prices().gamma_doublings());
        assert_eq!(s.max_rel_price_step, opt.prices().last_max_rel_step());
        assert_eq!(s.prices, opt.prices().mus());
        assert_eq!(s.frozen_agents, 0);
        assert_eq!(s.worst_violation_factor, opt.worst_violation_factor());
        // The factor agrees with the health snapshot's.
        assert_eq!(s.worst_violation_factor, opt.health_snapshot().worst_violation_factor);
    }

    #[test]
    fn trace_capacity_bounds_the_trace() {
        let cfg = OptimizerConfig { trace_capacity: Some(32), ..config() };
        let mut opt = Optimizer::new(small_problem(), cfg);
        opt.run(500);
        assert!(opt.trace().len() <= 32, "trace grew to {}", opt.trace().len());
        assert_eq!(opt.trace().seen(), 500);
        // The retained records still span the whole run.
        assert_eq!(opt.trace().records()[0].iteration, 0);
        assert!(opt.trace().records().last().unwrap().iteration >= 400);
    }

    #[test]
    fn health_snapshot_matches_kkt_and_convergence_state() {
        let mut opt = Optimizer::new(small_problem(), config());
        let outcome = opt.run_to_convergence(5_000);
        assert!(outcome.converged);
        let h = opt.health_snapshot();
        let kkt = opt.kkt();
        assert!(h.converged && h.feasible && h.healthy());
        assert_eq!(h.max_stationarity_residual, kkt.max_stationarity_residual);
        assert_eq!(h.max_resource_violation, kkt.max_resource_violation);
        assert_eq!(h.max_path_violation, kkt.max_path_violation);
        assert_eq!(h.max_complementary_slackness, kkt.max_complementary_slackness);
        assert_eq!(h.resources.len(), 2);
        assert!(h.worst_violation_factor <= 1.0 + 1e-6);
        for (r, res) in h.resources.iter().zip(opt.problem().resources()) {
            assert_eq!(r.availability, res.availability());
            assert!(r.usage <= r.availability + 1e-6);
        }
    }

    #[test]
    fn converged_allocation_is_feasible_and_kkt_clean() {
        let mut opt = Optimizer::new(small_problem(), config());
        let outcome = opt.run_to_convergence(5_000);
        assert!(outcome.converged);
        let kkt = opt.kkt();
        assert!(kkt.max_resource_violation <= 1e-6, "resource violated: {kkt:?}");
        assert!(kkt.max_path_violation <= 1e-6, "path violated: {kkt:?}");
        // Complementary slackness is approximate at finite step sizes.
        assert!(kkt.max_complementary_slackness < 0.5, "slackness too large: {kkt:?}");
    }

    #[test]
    fn utility_improves_over_initial() {
        let mut opt = Optimizer::new(small_problem(), config());
        let initial = opt.utility();
        opt.run_to_convergence(5_000);
        assert!(
            opt.utility() >= initial - 1e-9,
            "optimization should not end below the initial utility"
        );
    }

    #[test]
    fn trace_is_recorded() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run(25);
        assert_eq!(opt.trace().len(), 25);
        assert_eq!(opt.iterations(), 25);
    }

    #[test]
    fn trace_can_be_disabled() {
        let mut cfg = config();
        cfg.record_trace = false;
        let mut opt = Optimizer::new(small_problem(), cfg);
        opt.run(10);
        assert!(opt.trace().is_empty());
    }

    #[test]
    fn availability_drop_reconverges_to_lower_utility() {
        let mut opt = Optimizer::new(small_problem(), config());
        let first = opt.run_to_convergence(5_000);
        assert!(first.converged);
        let u_before = opt.utility();
        // Halve resource 0's availability; re-converge.
        opt.set_resource_availability(ResourceId::new(0), 0.5).unwrap();
        assert!(!opt.has_converged(), "detector must re-arm after a change");
        let second = opt.run_to_convergence(10_000);
        assert!(second.converged, "must re-converge after availability change");
        assert!(
            opt.utility() <= u_before + 1e-6,
            "less resource cannot increase utility: {} > {u_before}",
            opt.utility()
        );
    }

    #[test]
    fn correction_shifts_allocation() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run_to_convergence(5_000);
        let lat_before = opt.allocation().latency(0, 0);
        // Model over-predicted by 1ms: corrected model reaches the same
        // latency with less share, so the optimizer can lower latencies.
        let sid = opt.problem().tasks()[0].subtask_id(0);
        opt.set_correction(sid, -1.0);
        opt.run_to_convergence(5_000);
        let lat_after = opt.allocation().latency(0, 0);
        assert!(
            lat_after < lat_before,
            "negative correction should reduce assigned latency ({lat_after} !< {lat_before})"
        );
    }

    #[test]
    fn allocation_views() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run_to_convergence(5_000);
        let alloc = opt.allocation();
        let task = &opt.problem().tasks()[0];
        let shares = alloc.shares(opt.problem(), task);
        assert_eq!(shares.len(), 2);
        for (s, &lat) in shares.iter().zip(&alloc.lats()[0]) {
            assert!(*s > 0.0 && *s <= 1.0, "share {s} out of range");
            assert!(lat > 0.0);
        }
        assert!(alloc.task_latency(task) <= task.critical_time() + 1e-6);
    }

    #[test]
    fn failover_continues_exactly() {
        // Run half the iterations, export, import into a fresh optimizer,
        // and verify the trajectories coincide step by step.
        let mut primary = Optimizer::new(small_problem(), config());
        primary.run(120);
        let state = primary.export_state();

        let mut replacement = Optimizer::new(small_problem(), config());
        replacement.import_state(state);
        assert_eq!(replacement.iterations(), 120);

        for i in 0..200 {
            let a = primary.step();
            let b = replacement.step();
            assert!(
                (a.utility - b.utility).abs() < 1e-12,
                "failover diverged at step {i}: {} vs {}",
                a.utility,
                b.utility
            );
        }
    }

    #[test]
    fn warm_add_task_keeps_incumbent_duals_and_reconverges() {
        let mut opt = Optimizer::new(small_problem(), config());
        assert!(opt.run_to_convergence(5_000).converged);
        let mu_before = opt.prices().mus().to_vec();

        let mut b = TaskBuilder::new("late-joiner");
        b.subtask("solo", ResourceId::new(0), 1.0);
        b.critical_time(50.0).utility(UtilityFn::linear_for_deadline(2.0, 50.0));
        let id = opt.add_task(&b).unwrap();
        assert_eq!(id, TaskId::new(2));
        assert_eq!(opt.prices().mus(), &mu_before[..], "incumbent duals must carry over");
        assert!(!opt.has_converged(), "membership change must re-arm the detector");
        assert!(opt.run_to_convergence(10_000).converged, "warm restart must re-converge");
        assert_eq!(opt.allocation().lats().len(), 3);
    }

    #[test]
    fn warm_remove_task_shifts_survivor_state() {
        let mut opt = Optimizer::new(small_problem(), config());
        assert!(opt.run_to_convergence(5_000).converged);
        let lat1 = opt.allocation().lats()[1].clone();
        let report = opt.remove_task(TaskId::new(0)).unwrap();
        assert_eq!(report.task_map, vec![None, Some(0)]);
        assert_eq!(opt.allocation().lats()[0], lat1, "survivor keeps its latencies");
        assert!(opt.run_to_convergence(10_000).converged);
    }

    #[test]
    fn warm_matches_cold_solve_within_tolerance() {
        // Converge, churn a task in, re-converge warm; a cold solve of the
        // final problem must land on (essentially) the same utility.
        let mut warm = Optimizer::new(small_problem(), config());
        warm.run_to_convergence(5_000);
        let mut b = TaskBuilder::new("late");
        b.subtask("s", ResourceId::new(1), 2.0);
        b.critical_time(45.0).utility(UtilityFn::linear_for_deadline(2.0, 45.0));
        warm.add_task(&b).unwrap();
        assert!(warm.run_to_convergence(20_000).converged);

        let mut cold = Optimizer::new(warm.problem().clone(), config());
        assert!(cold.run_to_convergence(20_000).converged);
        let (wu, cu) = (warm.utility(), cold.utility());
        assert!(
            (wu - cu).abs() <= 1e-2 * cu.abs().max(1.0),
            "warm {wu} vs cold {cu} differ beyond tolerance"
        );
    }

    #[test]
    fn warm_retire_resource_after_drain() {
        let mut opt = Optimizer::new(small_problem(), config());
        opt.run_to_convergence(5_000);
        let moved = opt.reassign_resource(ResourceId::new(1), ResourceId::new(0)).unwrap();
        assert_eq!(moved, 2);
        let report = opt.retire_resource(ResourceId::new(1)).unwrap();
        assert_eq!(report.resource_map, vec![Some(0), None]);
        assert_eq!(opt.problem().resources().len(), 1);
        assert!(opt.run_to_convergence(20_000).converged, "must re-converge on one resource");
    }

    #[test]
    #[should_panic(expected = "state shape mismatch")]
    fn import_state_rejects_foreign_shape() {
        let mut opt = Optimizer::new(small_problem(), config());
        let mut state = Optimizer::new(small_problem(), config()).export_state();
        state.lats.pop();
        opt.import_state(state);
    }

    #[test]
    fn try_import_state_returns_typed_shape_errors() {
        let mut opt = Optimizer::new(small_problem(), config());
        let pristine = opt.export_state();

        let mut missing_row = pristine.clone();
        missing_row.lats.pop();
        assert_eq!(
            opt.try_import_state(missing_row, None),
            Err(StateImportError::TaskCountMismatch { expected: 2, found: 1 })
        );

        let mut short_row = pristine.clone();
        short_row.lats[1].pop();
        assert_eq!(
            opt.try_import_state(short_row, None),
            Err(StateImportError::RowShapeMismatch { task: 1, expected: 2, found: 1 })
        );
        // Failed imports leave the optimizer untouched.
        assert_eq!(opt.export_state(), pristine);
    }

    #[test]
    fn try_import_state_validates_topology_epoch() {
        let mut opt = Optimizer::new(small_problem(), config());
        let tagged = opt.export_state().with_epoch(3);
        assert_eq!(tagged.epoch(), Some(3));

        // A stale epoch is rejected even though the shape fits.
        assert_eq!(
            opt.try_import_state(tagged.clone(), Some(7)),
            Err(StateImportError::EpochMismatch { expected: 7, found: 3 })
        );
        // Matching epochs and untagged legacy states import fine.
        assert!(opt.try_import_state(tagged, Some(3)).is_ok());
        assert!(opt.try_import_state(opt.export_state(), Some(9)).is_ok());
        // Errors render human-readably for event payloads.
        let msg = StateImportError::EpochMismatch { expected: 7, found: 3 }.to_string();
        assert!(msg.contains('7') && msg.contains('3'), "{msg}");
    }
}
