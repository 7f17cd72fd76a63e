//! Compiled structure-of-arrays iteration plan for the LLA hot path.
//!
//! [`Optimizer::step`](crate::optimizer::Optimizer::step) conceptually walks
//! `tasks → graphs → paths → subtasks` through nested heap structures every
//! iteration, re-deriving clamping boxes and memberships and allocating
//! fresh latency matrices each round. The per-round *math* is tiny — a few
//! multiplies per subtask — so at 10k-task scale the pointer chasing and
//! allocator traffic dominate wall-clock (§5.3 of the paper claims
//! convergence in *iterations* is scale-free; this module makes the
//! per-iteration cost scale-free in structure too).
//!
//! [`Plan::lower`] flattens a [`Problem`] once into dense CSR-style index
//! arrays (task→subtask, task→path→subtask, subtask→resource) plus
//! per-subtask constants (demand `m·(c_s+l_r)`, correction `ê`, clamping
//! box, aggregation weight) and per-task descriptors (critical time,
//! utility). Every per-iteration primitive — latency allocation, price
//! update, utility, violations, Lagrangian, KKT residuals — then runs over
//! flat `&[f64]`/`&[u32]` slices with zero heap allocation, using the
//! reusable buffers of a [`PlanScratch`].
//!
//! # Bit-identity with the naive path
//!
//! Every kernel replicates the *exact* expression forms and iteration
//! orders of the nested reference implementation (`allocate_task`,
//! `PriceState::update`, `Problem::resource_usage`, …): sums fold
//! left-to-right from `-0.0` (as `Iterator::sum` does) in the same element
//! order, the allocator keeps
//! the reference's skip-zero-λ accumulation, and clamping boxes are lowered
//! by calling [`clamping_box`] itself. IEEE-754 arithmetic is deterministic
//! for a fixed operation sequence, so plan-evaluated results are
//! bit-identical to the naive path — preserving the byte-determinism
//! contracts of checkpoint/restore and the churn soak.
//!
//! # Fused price passes
//!
//! The price step (Eqs. 8–9) is one sweep over the subtasks and two
//! passes. The *usage sweep* walks subtasks in plan order and adds each
//! share to its resource's usage. The *resource pass* walks resources in
//! index order: gradient `B_r − usage_r`, congestion bit, μ step, and
//! `usage_r − B_r` folded into the worst resource violation. The *path
//! pass* walks paths in plan order: one walk over the path's subtasks sums
//! its latency and tests it for a congested resource, then the pass folds
//! `latency/C_i − 1` into the worst path violation and applies the λ step.
//! λ is indexed by the plan's own path index, which equals the price
//! state's flat path index (see [`crate::prices`]).
//!
//! The passes are bit-identical to the naive walks (`Problem::resource_usage`
//! and `Path::latency` per constraint, then [`PriceState::update`]),
//! because:
//!
//! - every sum adds the same terms in the same order from the same start:
//!   `Problem::subtasks_on` lists a resource's subtasks in (task, subtask)
//!   order, which is plan order for the full problem and for a subset
//!   plan whose tasks ascend (every `ShardSpec` the crates build does);
//! - a μ step reads only its own resource's usage and a λ step only its
//!   own path's latency and congestion bit, so folding violations and
//!   stepping inside the walks changes no operand, and the `max` and
//!   doubling-count reductions are order-free on finite values anyway;
//! - the path pass starts only after the resource pass (and, in a sharded
//!   round, the coordinator broadcast), so every congestion bit is set
//!   before the first λ step reads one.
//!
//! # Invalidation
//!
//! A plan snapshots the problem at a [`Problem::epoch`]. Owners compare
//! `plan.epoch() != problem.epoch()` and re-lower on mismatch; every
//! `&mut self` mutator of `Problem` (availability/correction/demand-scale
//! edits and all membership operations) bumps the epoch.
//!
//! # The memoised plan
//!
//! A `Problem` has one memo slot for its plan, so the certificate
//! ([`dual_value`](crate::lagrangian::dual_value)) can evaluate on the
//! plan the optimizer already holds instead of walking the nested
//! problem. The rule:
//!
//! - the owner installs it: [`Optimizer`](crate::optimizer::Optimizer)
//!   shares each plan it lowers with its problem (one `Arc`, no copy);
//! - the epoch bump clears it, so a memo always describes the problem it
//!   sits in;
//! - clones share it, so a problem cloned before an edit keeps the plan
//!   that still describes it;
//! - `dual_value` reads it when its settings and the prices' shape match,
//!   and otherwise (e.g. under a
//!   [`ShardedOptimizer`](crate::shard::ShardedOptimizer), which installs
//!   none) walks the nested problem. It never lowers or fills the memo:
//!   caching a plan there would keep a full-problem plan alive beside
//!   every shard plan, and lowering one per call is no faster than the
//!   walk.
//!
//! # Parallelism (`parallel` feature)
//!
//! With the opt-in `parallel` feature, [`Plan::allocate_into`] fans the
//! per-task allocation out across a worker pool: tasks are split into
//! contiguous ranges and each worker writes its tasks' latencies into a
//! disjoint `split_at_mut` slice of the output. Task allocations are
//! mutually independent (they read shared prices and write only their own
//! rows), and every cross-task reduction (usage, utility, price steps)
//! stays sequential in fixed order — so parallel output is **bit-identical**
//! to sequential regardless of worker count.

use crate::allocation::{clamping_box, AllocationSettings};
use crate::ids::TaskId;
use crate::lagrangian::KktReport;
use crate::prices::PriceState;
use crate::problem::Problem;
use crate::utility::UtilityFn;

/// Fan out the parallel allocator only past this many subtasks; below it
/// thread startup dwarfs the work and the sequential kernel wins.
#[cfg(feature = "parallel")]
const PARALLEL_MIN_SUBTASKS: usize = 2048;

/// `Σ_s w_s·lat_s`, replicating `Task::aggregate_latency` exactly.
fn dot(lats: &[f64], weight: &[f64]) -> f64 {
    lats.iter().zip(weight).map(|(l, w)| l * w).sum()
}

/// The shared single-task allocation kernel (Eq. 7 + damped fixed point),
/// operating on dense plan arrays. Used by both [`Plan`] (global slices)
/// and [`TaskPlan`] (single-task slices). Replicates
/// [`crate::allocation::allocate_task`] expression-for-expression.
///
/// `path_off` holds `num_paths + 1` offsets into `path_subs`; `path_subs`
/// holds task-local subtask indices. `lambdas` is the task's λ row and
/// `mus` the global μ vector (indexed through `sub_res`).
#[allow(clippy::too_many_arguments)]
fn allocate_kernel(
    utility: &UtilityFn,
    settings: &AllocationSettings,
    weight: &[f64],
    demand: &[f64],
    correction: &[f64],
    lo: &[f64],
    hi: &[f64],
    sub_res: &[u32],
    path_off: &[usize],
    path_subs: &[u32],
    lambdas: &[f64],
    mus: &[f64],
    previous: &[f64],
    lambda_sum: &mut [f64],
    out: &mut [f64],
) {
    let n = out.len();
    debug_assert_eq!(previous.len(), n, "allocation shape mismatch");

    // Σ_{p∋s} λ_p with the reference's skip of zero-price paths.
    lambda_sum.fill(0.0);
    for (p, &lp) in lambdas.iter().enumerate() {
        if lp != 0.0 {
            for &s in &path_subs[path_off[p]..path_off[p + 1]] {
                lambda_sum[s as usize] += lp;
            }
        }
    }

    let solve_pass = |a: f64, dst: &mut [f64]| {
        let fprime = utility.derivative(a);
        for s in 0..n {
            let mu = mus[sub_res[s] as usize];
            let pressure = -weight[s] * fprime + lambda_sum[s];
            // `ShareModel::stationary_latency` inlined over the dense
            // demand/correction arrays (identical expression).
            let stationary = if pressure <= 0.0 {
                None
            } else {
                Some(correction[s] + (mu.max(0.0) * demand[s] / pressure).sqrt())
            };
            dst[s] = stationary.unwrap_or(hi[s]).clamp(lo[s], hi[s]);
        }
    };

    if matches!(utility, UtilityFn::Linear { .. }) {
        // f' is constant: a single pass is exact.
        solve_pass(0.0, out);
        return;
    }

    // General concave utility: damped fixed point on the aggregate A.
    let mut a = dot(previous, weight);
    for _ in 0..settings.fixed_point_max_iters {
        solve_pass(a, out);
        let a_new = dot(out, weight);
        let next = (1.0 - settings.damping) * a + settings.damping * a_new;
        if (next - a).abs() <= settings.fixed_point_tol * a.abs().max(1.0) {
            a = next;
            break;
        }
        a = next;
    }
    solve_pass(a, out);
}

/// Reusable scratch buffers for one [`Plan`]'s iteration kernels.
///
/// Sized by [`Plan::scratch`]; owning one per optimizer (or per thread)
/// makes every per-iteration primitive allocation-free.
#[derive(Debug, Clone)]
pub struct PlanScratch {
    pub(crate) prev: Vec<f64>,
    pub(crate) lats: Vec<f64>,
    pub(crate) lambda: Vec<f64>,
    pub(crate) usage: Vec<f64>,
    pub(crate) path_lat: Vec<f64>,
    pub(crate) congested: Vec<bool>,
}

impl PlanScratch {
    /// The flat latency vector written by the most recent
    /// [`Plan::allocate_into`].
    pub fn lats(&self) -> &[f64] {
        &self.lats
    }

    /// Mutable access to the flat latency vector (e.g. to seed it via
    /// [`Plan::flatten_into`]).
    pub fn lats_mut(&mut self) -> &mut [f64] {
        &mut self.lats
    }

    /// Mutable access to the warm-start buffer read by
    /// [`Plan::allocate_into`].
    pub fn prev_mut(&mut self) -> &mut [f64] {
        &mut self.prev
    }

    /// Per-resource usage written by the most recent resource pass
    /// ([`Plan::price_update`] or [`Plan::owned_resource_steps`]).
    pub fn usage(&self) -> &[f64] {
        &self.usage
    }

    /// Per-path latencies written by the most recent path pass
    /// ([`Plan::price_update`] or [`Plan::path_price_steps`]).
    pub fn path_lat(&self) -> &[f64] {
        &self.path_lat
    }

    /// Congestion bits written by the most recent price phase (indexed by
    /// global resource).
    pub fn congested(&self) -> &[bool] {
        &self.congested
    }

    /// Mutable congestion bits — a sharded coordinator broadcasts shared-
    /// resource congestion into each shard's scratch through this.
    pub fn congested_mut(&mut self) -> &mut [bool] {
        &mut self.congested
    }

    /// Makes the latencies of the last allocation the warm start of the
    /// next one by swapping the `prev` and `lats` buffers (the next
    /// allocation overwrites every entry of `lats`).
    pub(crate) fn advance(&mut self) {
        std::mem::swap(&mut self.prev, &mut self.lats);
    }

    /// Resizes this scratch in place to fit `plan`, reusing existing
    /// buffer capacity. Re-lowerings call this instead of
    /// [`Plan::scratch`] so a membership epoch does not reallocate every
    /// scratch buffer; contents are reset to zero.
    pub fn resize_for(&mut self, plan: &Plan) {
        fn fit(v: &mut Vec<f64>, n: usize) {
            v.clear();
            v.resize(n, 0.0);
        }
        let ns = plan.num_subtasks();
        let nr = plan.num_resources();
        fit(&mut self.prev, ns);
        fit(&mut self.lats, ns);
        fit(&mut self.lambda, ns);
        fit(&mut self.usage, nr);
        fit(&mut self.path_lat, plan.num_paths());
        self.congested.clear();
        self.congested.resize(nr, false);
    }
}

/// A compiled, structure-of-arrays lowering of one [`Problem`] at one
/// mutation epoch (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct Plan {
    epoch: u64,
    settings: AllocationSettings,
    /// `task_sub_off[t]..task_sub_off[t+1]` is task `t`'s slice of every
    /// per-subtask array (`len == num_tasks + 1`).
    task_sub_off: Vec<usize>,
    /// `task_path_off[t]..task_path_off[t+1]` is task `t`'s global path
    /// index range (`len == num_tasks + 1`).
    task_path_off: Vec<usize>,
    /// `path_sub_off[pp]..path_sub_off[pp+1]` is global path `pp`'s slice
    /// of `path_subs` (`len == num_paths + 1`).
    path_sub_off: Vec<usize>,
    /// Task-local subtask indices in root-to-leaf order.
    path_subs: Vec<u32>,
    /// Global subtask → hosting resource index.
    sub_res: Vec<u32>,
    demand: Vec<f64>,
    correction: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    weight: Vec<f64>,
    critical_time: Vec<f64>,
    utility: Vec<UtilityFn>,
    availability: Vec<f64>,
}

impl Plan {
    /// Lowers `problem` into a dense iteration plan, snapshotting its
    /// current [`Problem::epoch`].
    pub fn lower(problem: &Problem, settings: &AllocationSettings) -> Plan {
        Self::lower_impl(problem, settings, None)
    }

    /// Lowers only the given global task indices (plan-local task order =
    /// slice order), keeping **global** resource indexing: `sub_res` and
    /// the per-resource arrays still index the full resource set, so a
    /// subset plan shares μ vectors and usage/congestion layouts with
    /// every other subset of the same problem. Resources untouched by the
    /// subset have usage `-0.0`, the empty sum. A resource's usage adds
    /// its shares in plan order, which is the naive walk's order when
    /// `tasks` ascends (see [`usage_into`](Self::usage_into)). This is the
    /// shard lowering used by
    /// [`ShardedOptimizer`](crate::shard::ShardedOptimizer): re-lowering
    /// one shard after a membership epoch costs O(shard subtasks +
    /// resources), not O(problem).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` contains an out-of-range index.
    pub fn lower_subset(problem: &Problem, settings: &AllocationSettings, tasks: &[usize]) -> Plan {
        Self::lower_impl(problem, settings, Some(tasks))
    }

    fn lower_impl(
        problem: &Problem,
        settings: &AllocationSettings,
        subset: Option<&[usize]>,
    ) -> Plan {
        let nt_global = problem.tasks().len();
        let ns_global = problem.num_subtasks();
        let np_global = problem.num_paths();
        assert!(ns_global < u32::MAX as usize, "problem too large for u32 subtask indices");
        let nt = subset.map_or(nt_global, <[usize]>::len);

        let mut task_sub_off = Vec::with_capacity(nt + 1);
        let mut task_path_off = Vec::with_capacity(nt + 1);
        let mut path_sub_off = Vec::with_capacity(if subset.is_some() { 1 } else { np_global + 1 });
        let mut path_subs = Vec::new();
        let mut demand = Vec::new();
        let mut correction = Vec::new();
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let mut weight = Vec::new();
        let mut sub_res = Vec::new();
        let mut critical_time = Vec::with_capacity(nt);
        let mut utility = Vec::with_capacity(nt);
        task_sub_off.push(0);
        task_path_off.push(0);
        path_sub_off.push(0);
        let mut lower_task = |gt: usize| {
            let task = &problem.tasks()[gt];
            let (lo_t, hi_t) = clamping_box(problem, task, settings);
            for s in 0..task.len() {
                let model = problem.share_model(task.subtask_id(s));
                demand.push(model.demand());
                correction.push(model.correction());
                sub_res.push(task.subtasks()[s].resource().index() as u32);
            }
            lo.extend_from_slice(&lo_t);
            hi.extend_from_slice(&hi_t);
            weight.extend_from_slice(task.weights());
            for path in task.graph().paths() {
                path_subs.extend(path.subtasks().iter().map(|&s| s as u32));
                path_sub_off.push(path_subs.len());
            }
            task_sub_off.push(demand.len());
            task_path_off.push(path_sub_off.len() - 1);
            critical_time.push(task.critical_time());
            utility.push(task.utility_fn().clone());
        };
        match subset {
            Some(tasks) => tasks.iter().for_each(|&gt| lower_task(gt)),
            None => (0..nt_global).for_each(&mut lower_task),
        }

        let availability = problem.resources().iter().map(|r| r.availability()).collect();
        Plan {
            epoch: problem.epoch(),
            settings: *settings,
            task_sub_off,
            task_path_off,
            path_sub_off,
            path_subs,
            sub_res,
            demand,
            correction,
            lo,
            hi,
            weight,
            critical_time,
            utility,
            availability,
        }
    }

    /// The [`Problem::epoch`] this plan was lowered at; a mismatch with the
    /// live problem means the plan is stale and must be re-lowered.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The allocation settings the plan's clamping boxes were lowered with.
    pub fn settings(&self) -> &AllocationSettings {
        &self.settings
    }

    /// Number of tasks in the lowered problem.
    pub fn num_tasks(&self) -> usize {
        self.task_sub_off.len() - 1
    }

    /// Number of resources in the lowered problem.
    pub fn num_resources(&self) -> usize {
        self.availability.len()
    }

    /// Total number of subtasks (the length of every flat latency vector).
    pub fn num_subtasks(&self) -> usize {
        *self.task_sub_off.last().expect("offsets are never empty")
    }

    /// Total number of root-to-leaf paths.
    pub fn num_paths(&self) -> usize {
        self.path_sub_off.len() - 1
    }

    /// Task `t`'s range within the flat per-subtask arrays.
    pub fn task_range(&self, t: usize) -> std::ops::Range<usize> {
        self.task_sub_off[t]..self.task_sub_off[t + 1]
    }

    /// Allocates scratch buffers sized for this plan.
    pub fn scratch(&self) -> PlanScratch {
        PlanScratch {
            prev: vec![0.0; self.num_subtasks()],
            lats: vec![0.0; self.num_subtasks()],
            lambda: vec![0.0; self.num_subtasks()],
            usage: vec![0.0; self.num_resources()],
            path_lat: vec![0.0; self.num_paths()],
            congested: vec![false; self.num_resources()],
        }
    }

    /// Copies a nested `lats[t][s]` matrix into a flat plan-ordered vector.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn flatten_into(&self, nested: &[Vec<f64>], flat: &mut [f64]) {
        assert_eq!(nested.len(), self.num_tasks(), "plan shape mismatch");
        for (t, row) in nested.iter().enumerate() {
            flat[self.task_sub_off[t]..self.task_sub_off[t + 1]].copy_from_slice(row);
        }
    }

    /// Copies a flat plan-ordered vector back into a nested `lats[t][s]`
    /// matrix, reusing the existing row buffers.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn unflatten_into(&self, flat: &[f64], nested: &mut [Vec<f64>]) {
        assert_eq!(nested.len(), self.num_tasks(), "plan shape mismatch");
        for (t, row) in nested.iter_mut().enumerate() {
            row.copy_from_slice(&flat[self.task_sub_off[t]..self.task_sub_off[t + 1]]);
        }
    }

    /// One latency-allocation step over the whole problem:
    /// reads `scratch.prev`, writes `scratch.lats`. Dispatches to the
    /// threaded kernel when the `parallel` feature is on and the problem is
    /// large enough to amortize fan-out; results are bit-identical either
    /// way.
    pub fn allocate_into(&self, prices: &PriceState, scratch: &mut PlanScratch) {
        #[cfg(feature = "parallel")]
        if self.num_subtasks() >= PARALLEL_MIN_SUBTASKS {
            self.allocate_par(prices, scratch);
            return;
        }
        self.allocate_seq(prices, scratch);
    }

    /// The sequential latency-allocation kernel (always available; the
    /// reference for the bit-identity contract).
    pub fn allocate_seq(&self, prices: &PriceState, scratch: &mut PlanScratch) {
        debug_assert_eq!(prices.num_paths(), self.num_paths(), "price/plan path count mismatch");
        let PlanScratch { prev, lats, lambda, .. } = scratch;
        for t in 0..self.num_tasks() {
            let range = self.task_range(t);
            self.allocate_one(t, prices, prev, &mut lambda[range.clone()], &mut lats[range]);
        }
    }

    /// The threaded latency-allocation kernel: contiguous task ranges fan
    /// out over `rayon::current_num_threads()` workers, each writing a
    /// disjoint slice of `scratch.lats`. Bit-identical to
    /// [`allocate_seq`](Self::allocate_seq) for any worker count because
    /// tasks are independent and no cross-task reduction happens here.
    #[cfg(feature = "parallel")]
    pub fn allocate_par(&self, prices: &PriceState, scratch: &mut PlanScratch) {
        debug_assert_eq!(prices.num_paths(), self.num_paths(), "price/plan path count mismatch");
        let nt = self.num_tasks();
        let workers = rayon::current_num_threads().min(nt.max(1));
        if workers <= 1 {
            self.allocate_seq(prices, scratch);
            return;
        }
        let PlanScratch { prev, lats, lambda, .. } = scratch;
        let prev: &[f64] = prev;
        rayon::scope(|s| {
            let mut rest_lats: &mut [f64] = lats;
            let mut rest_lambda: &mut [f64] = lambda;
            let mut t0 = 0usize;
            for w in 0..workers {
                let t1 = nt * (w + 1) / workers;
                if t1 == t0 {
                    continue;
                }
                let nsub = self.task_sub_off[t1] - self.task_sub_off[t0];
                let (chunk_lats, rl) = std::mem::take(&mut rest_lats).split_at_mut(nsub);
                rest_lats = rl;
                let (chunk_lambda, rb) = std::mem::take(&mut rest_lambda).split_at_mut(nsub);
                rest_lambda = rb;
                let base = self.task_sub_off[t0];
                let range = t0..t1;
                s.spawn(move || {
                    for t in range {
                        let a = self.task_sub_off[t] - base;
                        let b = self.task_sub_off[t + 1] - base;
                        self.allocate_one(
                            t,
                            prices,
                            prev,
                            &mut chunk_lambda[a..b],
                            &mut chunk_lats[a..b],
                        );
                    }
                });
                t0 = t1;
            }
        });
    }

    /// Runs the allocation kernel for one task over plan slices.
    fn allocate_one(
        &self,
        t: usize,
        prices: &PriceState,
        prev_all: &[f64],
        lambda_sum: &mut [f64],
        out: &mut [f64],
    ) {
        let sub = self.task_range(t);
        let paths = self.task_path_off[t]..self.task_path_off[t + 1];
        allocate_kernel(
            &self.utility[t],
            &self.settings,
            &self.weight[sub.clone()],
            &self.demand[sub.clone()],
            &self.correction[sub.clone()],
            &self.lo[sub.clone()],
            &self.hi[sub.clone()],
            &self.sub_res[sub.clone()],
            &self.path_sub_off[paths.start..=paths.end],
            &self.path_subs,
            prices.lambdas(t),
            prices.mus(),
            &prev_all[sub],
            lambda_sum,
            out,
        );
    }

    /// Per-resource usage `Σ_{s∈S_r} share(lat_s)` into `usage`
    /// (`num_resources` long), replicating [`Problem::resource_usage`]:
    /// one sweep over the subtasks in plan order adds each share to its
    /// resource's sum, which starts at `-0.0` as `Iterator::sum` does.
    /// `Problem::subtasks_on` lists a resource's subtasks in (task,
    /// subtask) order, which is plan order for the full problem and for
    /// a subset listed in ascending task order, so each sum adds the same
    /// terms in the same order as the naive walk.
    pub fn usage_into(&self, lats: &[f64], usage: &mut [f64]) {
        usage.fill(-0.0);
        for (s, &r) in self.sub_res.iter().enumerate() {
            let eff = lats[s] - self.correction[s];
            usage[r as usize] += if eff <= 0.0 { f64::INFINITY } else { self.demand[s] / eff };
        }
    }

    /// Global path `pp`'s subtasks, as task-local subtask indices.
    #[inline]
    fn path_subtasks(&self, pp: usize) -> &[u32] {
        &self.path_subs[self.path_sub_off[pp]..self.path_sub_off[pp + 1]]
    }

    /// `Σ_{s∈p} lat_s` for global path `pp` of the task whose subtasks
    /// start at flat index `base`, replicating
    /// [`crate::graph::Path::latency`].
    #[inline]
    fn path_latency(&self, base: usize, pp: usize, lats: &[f64]) -> f64 {
        self.path_subtasks(pp).iter().map(|&s| lats[base + s as usize]).sum()
    }

    /// One full price-computation step (Eqs. 8–9) over the plan, from
    /// `scratch.lats`: the usage sweep and the resource pass with every
    /// resource owned, then
    /// the path pass. Fills `scratch.usage`, `scratch.path_lat` and
    /// `scratch.congested`, applies the same per-resource / per-path steps
    /// in the same order as [`PriceState::update`], and returns
    /// `(max_r (usage_r − B_r), max_p (path_latency/C_i − 1))`.
    pub fn price_update(&self, prices: &mut PriceState, scratch: &mut PlanScratch) -> (f64, f64) {
        let resource = self.resource_pass(prices, scratch, None);
        (resource, self.path_price_steps(prices, scratch))
    }

    /// The shard-local resource half of the price phase: the resource
    /// pass with μ steps (Eq. 8) and congestion bits **only** for
    /// resources marked in `owned`. Every entry of `scratch.usage` is
    /// written, so unowned entries hold this plan's *partial* usage for a
    /// coordinator to aggregate; their μ steps and congestion bits come
    /// from the coordinator round. Returns the worst violation
    /// `usage_r − B_r` over owned resources. With every resource owned
    /// this is bit-identical to the resource half of
    /// [`price_update`](Self::price_update).
    pub fn owned_resource_steps(
        &self,
        prices: &mut PriceState,
        scratch: &mut PlanScratch,
        owned: &[bool],
    ) -> f64 {
        self.resource_pass(prices, scratch, Some(owned))
    }

    /// The usage sweep, then the resource pass: per resource in index
    /// order, gradient `B_r − usage_r` → congestion bit → μ step →
    /// violation (for `owned` resources only, when given).
    fn resource_pass(
        &self,
        prices: &mut PriceState,
        scratch: &mut PlanScratch,
        owned: Option<&[bool]>,
    ) -> f64 {
        debug_assert_eq!(prices.num_paths(), self.num_paths(), "price/plan path count mismatch");
        let PlanScratch { lats, usage, congested, .. } = scratch;
        self.usage_into(lats, usage);
        prices.reset_step_tracking();
        let mut worst = f64::NEG_INFINITY;
        for (r, &u) in usage.iter().enumerate() {
            if owned.is_none_or(|owned| owned[r]) {
                let g = self.availability[r] - u;
                congested[r] = g < 0.0;
                prices.apply_resource_step(r, g);
                worst = worst.max(u - self.availability[r]);
            }
        }
        worst
    }

    /// The per-path half of the price phase (Eq. 9), the path pass: per
    /// path in plan order, one walk over its subtasks for the latency
    /// (summed from `-0.0` as `Iterator::sum` does) and the congestion
    /// test, then violation → λ step.
    /// It reads the congestion bits already in `scratch`: the monolithic
    /// step sets them all in its resource pass, and sharded drivers call
    /// this *after* the coordinator has broadcast shared-resource
    /// congestion into `scratch.congested`. Returns the worst path
    /// violation `path_latency/C_i − 1`.
    pub fn path_price_steps(&self, prices: &mut PriceState, scratch: &mut PlanScratch) -> f64 {
        debug_assert_eq!(prices.num_paths(), self.num_paths(), "price/plan path count mismatch");
        let PlanScratch { lats, path_lat, congested, .. } = scratch;
        let mut worst = f64::NEG_INFINITY;
        for t in 0..self.num_tasks() {
            let ct = self.critical_time[t];
            let base = self.task_sub_off[t];
            for pp in self.task_path_range(t) {
                let (mut pl, mut traverses_congested) = (-0.0f64, false);
                for &s in self.path_subtasks(pp) {
                    let gs = base + s as usize;
                    pl += lats[gs];
                    traverses_congested |= congested[self.sub_res[gs] as usize];
                }
                path_lat[pp] = pl;
                worst = worst.max(pl / ct - 1.0);
                prices.step_path(pp, 1.0 - pl / ct, traverses_congested);
            }
        }
        worst
    }

    /// The dual function `D(μ, λ)` (Eq. 6) and its maximising latencies
    /// (nested `[t][s]`), evaluated exactly as the naive
    /// [`dual_value`](crate::lagrangian::dual_value) does: one allocation
    /// step from the problem's initial allocation, then the Lagrangian.
    /// Allocates the three allocation buffers and the nested maximiser
    /// only.
    pub(crate) fn dual(&self, prices: &PriceState) -> (f64, Vec<Vec<f64>>) {
        let ns = self.num_subtasks();
        let mut scratch = PlanScratch {
            prev: vec![0.0; ns],
            lats: vec![0.0; ns],
            lambda: vec![0.0; ns],
            usage: Vec::new(),
            path_lat: Vec::new(),
            congested: Vec::new(),
        };
        for t in 0..self.num_tasks() {
            // `Problem::initial_allocation`: an even split of `C_i` along
            // the task's longest path (in hops).
            let hops = self.task_path_range(t).map(|pp| self.path_subtasks(pp).len());
            let slice = self.critical_time[t] / hops.max().unwrap_or(1) as f64;
            scratch.prev[self.task_range(t)].fill(slice);
        }
        self.allocate_into(prices, &mut scratch);
        let value = self.lagrangian_value(&scratch.lats, prices);
        let maximizer = (0..self.num_tasks()).map(|t| scratch.lats[self.task_range(t)].to_vec());
        (value, maximizer.collect())
    }

    /// Whether `prices` has this plan's shape: one μ per resource and one
    /// λ row per plan task with the task's path count.
    pub(crate) fn fits(&self, prices: &PriceState) -> bool {
        prices.mus().len() == self.num_resources() && prices.row_offsets() == self.task_path_off
    }

    /// Per-resource availability `B_r` as lowered (global resource order).
    pub fn availability(&self) -> &[f64] {
        &self.availability
    }

    /// Number of root-to-leaf paths of plan-local task `t`.
    pub fn num_task_paths(&self, t: usize) -> usize {
        self.task_path_off[t + 1] - self.task_path_off[t]
    }

    /// Plan-local task `t`'s range within the flat per-path arrays.
    pub fn task_path_range(&self, t: usize) -> std::ops::Range<usize> {
        self.task_path_off[t]..self.task_path_off[t + 1]
    }

    /// `Σ_i U_i` over a flat latency vector, replicating
    /// [`Problem::total_utility`].
    pub fn total_utility(&self, lats: &[f64]) -> f64 {
        (0..self.num_tasks())
            .map(|t| {
                let sub = self.task_range(t);
                let a = dot(&lats[sub.clone()], &self.weight[sub]);
                self.utility[t].value(a)
            })
            .sum()
    }

    /// `max_r (usage_r − B_r)` from a precomputed usage vector,
    /// replicating [`Problem::max_resource_violation`].
    pub fn max_resource_violation(&self, usage: &[f64]) -> f64 {
        usage.iter().zip(&self.availability).map(|(u, b)| u - b).fold(f64::NEG_INFINITY, f64::max)
    }

    /// `max_p (path_latency/C_i − 1)` from precomputed path latencies,
    /// replicating [`Problem::max_path_violation`].
    pub fn max_path_violation(&self, path_lat: &[f64]) -> f64 {
        let mut worst = f64::NEG_INFINITY;
        for t in 0..self.num_tasks() {
            let ct = self.critical_time[t];
            for &pl in &path_lat[self.task_path_off[t]..self.task_path_off[t + 1]] {
                worst = worst.max(pl / ct - 1.0);
            }
        }
        worst
    }

    /// Per-task `critical_path_latency / C_i` ratios (trace column) from
    /// precomputed path latencies, replicating
    /// [`crate::task::Task::critical_path`]'s strict-`>` tie-break.
    pub fn critical_path_ratios(&self, path_lat: &[f64]) -> Vec<f64> {
        (0..self.num_tasks())
            .map(|t| {
                let mut best = f64::NEG_INFINITY;
                for &pl in &path_lat[self.task_path_off[t]..self.task_path_off[t + 1]] {
                    if pl > best {
                        best = pl;
                    }
                }
                best / self.critical_time[t]
            })
            .collect()
    }

    /// The Lagrangian (Eq. 5) over a flat latency vector, replicating
    /// [`crate::lagrangian::lagrangian_value`].
    pub fn lagrangian_value(&self, lats: &[f64], prices: &PriceState) -> f64 {
        debug_assert_eq!(prices.num_paths(), self.num_paths(), "price/plan path count mismatch");
        let mut value = self.total_utility(lats);
        let mut usage = vec![0.0; self.num_resources()];
        self.usage_into(lats, &mut usage);
        for (r, &u) in usage.iter().enumerate() {
            value -= prices.mu(r) * (u - self.availability[r]);
        }
        for t in 0..self.num_tasks() {
            let base = self.task_sub_off[t];
            let lambdas = prices.lambdas(t);
            for (p, pp) in self.task_path_range(t).enumerate() {
                let pl = self.path_latency(base, pp, lats);
                value -= lambdas[p] * (pl - self.critical_time[t]);
            }
        }
        value
    }

    /// KKT residuals (see [`crate::lagrangian::kkt_report`]) over a flat
    /// latency vector, using `scratch.lambda` as the Σλ accumulator. The
    /// per-task path walk computes λ-sums, complementary slackness, and
    /// path violations in one pass (`max` is order-independent, so the
    /// report matches the naive two-pass form).
    pub fn kkt_report(
        &self,
        lats: &[f64],
        prices: &PriceState,
        boundary_tol: f64,
        scratch: &mut PlanScratch,
    ) -> KktReport {
        let (stat, comp, worst_path) = self.kkt_task_terms(lats, prices, boundary_tol, scratch);
        let mut comp = comp;
        let mut worst_res = f64::NEG_INFINITY;
        let mut usage = vec![0.0; self.num_resources()];
        self.usage_into(lats, &mut usage);
        for (r, &usage) in usage.iter().enumerate() {
            comp = comp.max((prices.mu(r) * (self.availability[r] - usage)).abs());
            worst_res = worst_res.max(usage - self.availability[r]);
        }
        KktReport {
            max_stationarity_residual: stat,
            max_resource_violation: worst_res.max(0.0),
            max_path_violation: worst_path.max(0.0),
            max_complementary_slackness: comp,
        }
    }

    /// The per-task terms of [`kkt_report`](Self::kkt_report):
    /// `(max stationarity residual, max path complementary slackness,
    /// worst path violation)` over this plan's tasks. Sharded drivers sum
    /// resource usage across shards separately (a single shard sees only
    /// partial usage of shared resources, so the per-resource terms cannot
    /// be evaluated shard-locally).
    pub(crate) fn kkt_task_terms(
        &self,
        lats: &[f64],
        prices: &PriceState,
        boundary_tol: f64,
        scratch: &mut PlanScratch,
    ) -> (f64, f64, f64) {
        debug_assert_eq!(prices.num_paths(), self.num_paths(), "price/plan path count mismatch");
        let mut stat = 0.0f64;
        let mut comp = 0.0f64;
        let mut worst_path = f64::NEG_INFINITY;
        for t in 0..self.num_tasks() {
            let sub = self.task_range(t);
            let base = sub.start;
            let tl = &lats[sub.clone()];
            let a = dot(tl, &self.weight[sub.clone()]);
            let fprime = self.utility[t].derivative(a);
            let ct = self.critical_time[t];
            let lambda_sum = &mut scratch.lambda[sub];
            lambda_sum.fill(0.0);
            // Note: the KKT reference accumulates λ WITHOUT the
            // allocator's zero-skip; replicate that here.
            for (p, pp) in self.task_path_range(t).enumerate() {
                let lp = prices.lambda(t, p);
                let mut pl = 0.0;
                for &s in self.path_subtasks(pp) {
                    lambda_sum[s as usize] += lp;
                    pl += lats[base + s as usize];
                }
                let slack = 1.0 - pl / ct;
                comp = comp.max((lp * slack).abs());
                worst_path = worst_path.max(pl / ct - 1.0);
            }
            for (s, &lat) in tl.iter().enumerate() {
                let gs = base + s;
                if lat - self.lo[gs] <= boundary_tol || self.hi[gs] - lat <= boundary_tol {
                    continue;
                }
                let eff = lat - self.correction[gs];
                let dshare =
                    if eff <= 0.0 { f64::NEG_INFINITY } else { -self.demand[gs] / (eff * eff) };
                let mu = prices.mu(self.sub_res[gs] as usize);
                let residual = self.weight[gs] * fprime - lambda_sum[s] - mu * dshare;
                stat = stat.max(residual.abs());
            }
        }
        (stat, comp, worst_path)
    }
}

/// A single-task lowering for distributed task controllers: the same dense
/// allocation kernel as [`Plan`], but holding only one task's constants so
/// an agent does not pay O(problem) memory per controller.
#[derive(Debug, Clone)]
pub struct TaskPlan {
    settings: AllocationSettings,
    utility: UtilityFn,
    critical_time: f64,
    weight: Vec<f64>,
    demand: Vec<f64>,
    correction: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Local subtask → global resource index.
    sub_res: Vec<u32>,
    /// `path_off[p]..path_off[p+1]` is path `p`'s slice of `path_subs`.
    path_off: Vec<usize>,
    /// Task-local subtask indices in root-to-leaf order.
    path_subs: Vec<u32>,
}

impl TaskPlan {
    /// Lowers one task of `problem` into a dense single-task plan.
    pub fn lower(problem: &Problem, id: TaskId, settings: &AllocationSettings) -> TaskPlan {
        let task = problem.task(id);
        let (lo, hi) = clamping_box(problem, task, settings);
        let n = task.len();
        let mut demand = Vec::with_capacity(n);
        let mut correction = Vec::with_capacity(n);
        let mut sub_res = Vec::with_capacity(n);
        for s in 0..n {
            let model = problem.share_model(task.subtask_id(s));
            demand.push(model.demand());
            correction.push(model.correction());
            sub_res.push(task.subtasks()[s].resource().index() as u32);
        }
        let mut path_off = Vec::with_capacity(task.graph().paths().len() + 1);
        let mut path_subs = Vec::new();
        path_off.push(0);
        for path in task.graph().paths() {
            path_subs.extend(path.subtasks().iter().map(|&s| s as u32));
            path_off.push(path_subs.len());
        }
        TaskPlan {
            settings: *settings,
            utility: task.utility_fn().clone(),
            critical_time: task.critical_time(),
            weight: task.weights().to_vec(),
            demand,
            correction,
            lo,
            hi,
            sub_res,
            path_off,
            path_subs,
        }
    }

    /// Number of subtasks of the lowered task.
    pub fn len(&self) -> usize {
        self.weight.len()
    }

    /// Whether the lowered task has no subtasks.
    pub fn is_empty(&self) -> bool {
        self.weight.is_empty()
    }

    /// Number of root-to-leaf paths of the lowered task.
    pub fn num_paths(&self) -> usize {
        self.path_off.len() - 1
    }

    /// The task's critical time `C_i`.
    pub fn critical_time(&self) -> f64 {
        self.critical_time
    }

    /// `Σ_{s∈p} lat_s` for local path `p`, replicating
    /// [`crate::graph::Path::latency`].
    pub fn path_latency(&self, p: usize, lats: &[f64]) -> f64 {
        self.path_subs[self.path_off[p]..self.path_off[p + 1]]
            .iter()
            .map(|&s| lats[s as usize])
            .sum()
    }

    /// Whether local path `p` traverses a resource flagged in `congested`
    /// (indexed by global resource index).
    pub fn path_traverses(&self, p: usize, congested: &[bool]) -> bool {
        self.path_subs[self.path_off[p]..self.path_off[p + 1]]
            .iter()
            .any(|&s| congested[self.sub_res[s as usize] as usize])
    }

    /// One latency-allocation step for this task (bit-identical to
    /// [`crate::allocation::allocate_task`]). `t` is the task's index for
    /// λ lookups; `lambda_scratch` and `out` must both be `len()` long.
    pub fn allocate_into(
        &self,
        t: usize,
        prices: &PriceState,
        previous: &[f64],
        lambda_scratch: &mut [f64],
        out: &mut [f64],
    ) {
        allocate_kernel(
            &self.utility,
            &self.settings,
            &self.weight,
            &self.demand,
            &self.correction,
            &self.lo,
            &self.hi,
            &self.sub_res,
            &self.path_off,
            &self.path_subs,
            prices.lambdas(t),
            prices.mus(),
            previous,
            lambda_scratch,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{allocate_latencies, allocate_task};
    use crate::ids::ResourceId;
    use crate::lagrangian::{kkt_report, lagrangian_value};
    use crate::prices::StepSizePolicy;
    use crate::resource::{Resource, ResourceKind};
    use crate::task::TaskBuilder;
    use crate::utility::UtilityFn;

    fn diamond_problem() -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(2.0),
            Resource::new(ResourceId::new(2), ResourceKind::NetworkLink).with_lag(0.5),
        ];
        let mut b0 = TaskBuilder::new("diamond");
        let a = b0.subtask("a", ResourceId::new(0), 2.0);
        let b = b0.subtask("b", ResourceId::new(1), 3.0);
        let c = b0.subtask("c", ResourceId::new(2), 1.0);
        let d = b0.subtask("d", ResourceId::new(0), 1.5);
        b0.edge(a, b).unwrap();
        b0.edge(a, c).unwrap();
        b0.edge(b, d).unwrap();
        b0.edge(c, d).unwrap();
        b0.critical_time(60.0);
        b0.utility(UtilityFn::Quadratic { offset: 100.0, lin: 0.5, quad: 0.01 });
        let mut b1 = TaskBuilder::new("chain");
        let x = b1.subtask("x", ResourceId::new(1), 2.0);
        let y = b1.subtask("y", ResourceId::new(2), 2.0);
        b1.edge(x, y).unwrap();
        b1.critical_time(40.0);
        let tasks = vec![b0.build(TaskId::new(0)).unwrap(), b1.build(TaskId::new(1)).unwrap()];
        Problem::new(resources, tasks).unwrap()
    }

    fn priced(p: &Problem) -> PriceState {
        let mut prices = PriceState::new(p, StepSizePolicy::adaptive(1.0));
        for r in 0..p.resources().len() {
            prices.set_mu(r, 3.0 + r as f64);
        }
        prices.set_lambda(0, 0, 0.7);
        prices.set_lambda(1, 0, 0.2);
        prices
    }

    #[test]
    fn plan_allocation_is_bit_identical_to_naive() {
        let p = diamond_problem();
        let prices = priced(&p);
        let settings = AllocationSettings::default();
        let prev = p.initial_allocation();
        let naive = allocate_latencies(&p, &prices, &settings, &prev);

        let plan = Plan::lower(&p, &settings);
        let mut scratch = plan.scratch();
        plan.flatten_into(&prev, scratch.prev_mut());
        plan.allocate_seq(&prices, &mut scratch);
        let mut nested = p.initial_allocation();
        plan.unflatten_into(scratch.lats(), &mut nested);
        assert_eq!(naive, nested, "plan allocation must match naive bitwise");
    }

    #[test]
    fn plan_price_update_is_bit_identical_to_naive() {
        let p = diamond_problem();
        let settings = AllocationSettings::default();
        let lats = p.initial_allocation();
        let mut naive_prices = priced(&p);
        naive_prices.update(&p, &lats);

        let plan = Plan::lower(&p, &settings);
        let mut scratch = plan.scratch();
        plan.flatten_into(&lats, scratch.lats_mut());
        let mut plan_prices = priced(&p);
        plan.price_update(&mut plan_prices, &mut scratch);
        assert_eq!(naive_prices, plan_prices, "plan price step must match naive bitwise");
    }

    #[test]
    fn plan_diagnostics_match_naive() {
        let p = diamond_problem();
        let prices = priced(&p);
        let settings = AllocationSettings::default();
        let lats = p.initial_allocation();
        let plan = Plan::lower(&p, &settings);
        let mut scratch = plan.scratch();
        let flat = {
            let mut f = vec![0.0; plan.num_subtasks()];
            plan.flatten_into(&lats, &mut f);
            f
        };
        assert_eq!(plan.total_utility(&flat), p.total_utility(&lats));
        assert_eq!(plan.lagrangian_value(&flat, &prices), lagrangian_value(&p, &lats, &prices));
        scratch.lats_mut().copy_from_slice(&flat);
        let violations = plan.price_update(&mut prices.clone(), &mut scratch);
        assert_eq!(plan.max_resource_violation(&scratch.usage), p.max_resource_violation(&lats));
        assert_eq!(plan.max_path_violation(&scratch.path_lat), p.max_path_violation(&lats));
        assert_eq!(violations, (p.max_resource_violation(&lats), p.max_path_violation(&lats)));
        let naive_kkt = kkt_report(&p, &lats, &prices, &settings, 1e-9);
        let plan_kkt = plan.kkt_report(&flat, &prices, 1e-9, &mut scratch);
        assert_eq!(naive_kkt, plan_kkt);
    }

    #[test]
    fn task_plan_matches_allocate_task() {
        let p = diamond_problem();
        let prices = priced(&p);
        let settings = AllocationSettings::default();
        let prev = p.initial_allocation();
        for (t, task) in p.tasks().iter().enumerate() {
            let naive = allocate_task(&p, task, &prices, &settings, &prev[t]);
            let tp = TaskPlan::lower(&p, task.id(), &settings);
            let mut lambda = vec![0.0; tp.len()];
            let mut out = vec![0.0; tp.len()];
            tp.allocate_into(t, &prices, &prev[t], &mut lambda, &mut out);
            assert_eq!(naive, out, "task plan must match allocate_task bitwise");
        }
    }

    #[test]
    fn stale_epoch_detected_after_mutation() {
        let mut p = diamond_problem();
        let settings = AllocationSettings::default();
        let plan = Plan::lower(&p, &settings);
        assert_eq!(plan.epoch(), p.epoch());
        p.set_resource_availability(ResourceId::new(0), 0.8).unwrap();
        assert_ne!(plan.epoch(), p.epoch(), "mutation must invalidate the plan");
        let rebuilt = Plan::lower(&p, &settings);
        assert_eq!(rebuilt.epoch(), p.epoch());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_allocation_is_bit_identical_to_sequential() {
        let p = diamond_problem();
        let prices = priced(&p);
        let settings = AllocationSettings::default();
        let plan = Plan::lower(&p, &settings);
        let prev = p.initial_allocation();
        let mut seq = plan.scratch();
        plan.flatten_into(&prev, seq.prev_mut());
        plan.allocate_seq(&prices, &mut seq);
        let mut par = plan.scratch();
        plan.flatten_into(&prev, par.prev_mut());
        plan.allocate_par(&prices, &mut par);
        assert_eq!(seq.lats(), par.lats());
    }
}
