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
//! [`Plan::lower`] flattens a [`Problem`] once, in one walk over its
//! tasks, into dense index arrays (task→subtask, task→path, path→subtask
//! with *plan-wide* subtask indices, subtask→resource) plus
//! per-subtask constants (demand `m·(c_s+l_r)`, correction `ê`, clamping
//! box, aggregation weight, and `−w_s·f′` for a linear task), per-path
//! critical times and per-task descriptors (critical time, utility). Every
//! per-iteration primitive — latency allocation, price update, utility,
//! violations, Lagrangian, KKT residuals — then runs over flat
//! `&[f64]`/`&[u32]` slices with zero heap allocation, using the reusable
//! buffers of a [`PlanScratch`].
//!
//! # Bit-identity with the naive path
//!
//! Every kernel replicates the *exact* expression forms and iteration
//! orders of the nested reference implementation (`allocate_task`,
//! `PriceState::update`, `Problem::resource_usage`, …): sums fold
//! left-to-right from `-0.0` (as `Iterator::sum` does) in the same element
//! order, the allocator keeps the reference's skip-zero-λ accumulation,
//! and clamping boxes are lowered by the code of [`clamping_box`] itself
//! (its per-subtask half, `subtask_box`).
//! IEEE-754 arithmetic is deterministic for a fixed operation sequence, so
//! plan-evaluated results are bit-identical to the naive path — preserving
//! the byte-determinism contracts of checkpoint/restore and the churn
//! soak.
//!
//! # One pass per phase
//!
//! A round is a few flat passes, each over one index space with no
//! per-task or per-path set-up:
//!
//! - **allocation** — one λ-sum scatter over the flat λ array in path
//!   order (skipped outright when no path has a price), then one pass over
//!   every subtask: `pressure = (−w_s·f′) + Σλ`, then
//!   `clamp(ê + sqrt(μ⁺·m/pressure))`. `−w_s·f′` is a lowered constant,
//!   exact for a linear task, whose `f′` is constant. A concave task then
//!   re-solves its own slice by the damped fixed point on its aggregate,
//!   through the same formula;
//! - **usage sweep** — subtasks in plan order, each share added to its
//!   resource's usage;
//! - **resource pass** — one [`PriceState`] batch over the resources in
//!   index order: gradient `B_r − usage_r`, congestion bit, μ step, and
//!   `usage_r − B_r` folded into the worst resource violation;
//! - **path walk** — per path, one walk over its subtasks sums its latency
//!   and tests it for a congested resource. The plan stores the path
//!   lists shortest first, and the walk follows that storage order, so
//!   its inner loop runs the same trip count path after path;
//! - **path pass** — one `PriceState` batch over the paths in plan order:
//!   `latency/C_i − 1` folded into the worst path violation, then the λ
//!   step. λ is indexed by the plan's own path index, which equals the
//!   price state's flat path index (see [`crate::prices`]).
//!
//! The batches match the step-size policy once per pass and keep the
//! price state's bookkeeping in locals; the step rule itself is the one
//! the single-step API runs (see [`crate::prices`]).
//!
//! The passes are bit-identical to the nested reference
//! ([`allocate_task`](crate::allocation::allocate_task) per task, then
//! `Problem::resource_usage` and `Path::latency` per constraint and
//! [`PriceState::update`]), because:
//!
//! - every sum adds the same terms in the same order from the same start:
//!   a subtask's λ-sum gets its task's paths in path order, as the
//!   reference's per-task scatter does, and with no price anywhere every
//!   λ-sum is the fill's `0.0`, which the pass then adds as a constant;
//!   `Problem::subtasks_on` lists a resource's subtasks in (task,
//!   subtask) order, which is plan order for the full problem and for a
//!   subset plan whose tasks ascend (every `ShardSpec` the crates build
//!   does);
//! - the lowered `−w_s·f′` is the very product the reference computes
//!   each time (`f′(0)` of a linear utility is its slope);
//! - a μ step reads only its own resource's usage and a λ step only its
//!   own path's latency and congestion bit, so walking paths in another
//!   order, folding violations and stepping inside the passes changes no
//!   operand, and the `max` and doubling-count reductions are order-free
//!   on finite values anyway;
//! - the path pass starts only after the resource pass (and, in a sharded
//!   round, the coordinator broadcast), so every congestion bit is set
//!   before the first λ step reads one.
//!
//! # Market clearing
//!
//! Under [`PriceMethod::Clearing`](crate::prices::PriceMethod) a round
//! runs its price passes first and steps nothing (the `clearing`
//! submodule holds them and their solvers):
//!
//! - **pressures** — `−w_s·f′ + Σλ` per subtask, into the λ-sum buffer
//!   (a concave task's `f′` at the previous allocation's aggregate);
//! - **μ block** — per resource, one walk over its row of the lowered
//!   resource → subtask index (`res_off`/`res_subs`, plan order, which is
//!   `Problem::subtasks_on` order when the plan's tasks ascend) gathers
//!   the share terms, and an exact piecewise-linear solve sets `μ_r`;
//! - **task pass** — one visit per task in plan order runs the task's
//!   **λ block** (per path in path order, a safeguarded Newton solve sets
//!   `λ_p`, and its change enters the pressures of the path's subtasks
//!   before the task's next path), its allocation at the new prices and
//!   its **measurement**: shares into the usage sums, path latencies and
//!   utility. A linear task with no λ is allocated first and its paths
//!   are screened on that allocation; only a late path takes the solve
//!   (see `Plan::clear_paths_and_allocate`). The violations are then
//!   folded without a step.

//! # Invalidation
//!
//! A plan snapshots the problem at a [`Problem::epoch`]. Owners compare
//! `plan.epoch() != problem.epoch()` and re-lower on mismatch; every
//! `&mut self` mutator of `Problem` (availability/correction/demand-scale
//! edits and all membership operations) bumps the epoch.
//!
//! # The memoised plan
//!
//! A `Problem` has one memo slot, so the certificate
//! ([`dual_value`](crate::lagrangian::dual_value)) can evaluate on the
//! plans its driver already holds instead of walking the nested problem.
//! The memo is a list of parts, each an `Arc<Plan>` the driver owns (no
//! second copy) with the global tasks it lowers, stamped with the problem
//! epoch it describes. The rule:
//!
//! - the driver installs it: [`Optimizer`](crate::optimizer::Optimizer)
//!   its one full plan, each time it lowers one;
//!   [`ShardedOptimizer`](crate::shard::ShardedOptimizer) its shard plans,
//!   after `new` and after each edit (a membership edit re-lowers one
//!   shard, an availability edit the shards touching the resource);
//! - the epoch bump clears it, so a memo always describes the problem it
//!   sits in;
//! - clones share it, so a problem cloned before an edit keeps the plans
//!   that still describe it;
//! - `dual_value` reads it when its settings and the prices' shape match,
//!   and otherwise walks the nested problem (a `DistributedLla`'s problems
//!   carry none). It never lowers or fills the memo: caching a plan there
//!   would keep a full-problem plan alive beside every shard plan, and
//!   lowering one per call is no faster than the walk.
//!
//! One evaluation of `D(μ, λ)` runs over the parts, and `dual_value`,
//! `Optimizer::certify` and `ShardedOptimizer::certify` all call it. Each
//! part allocates its tasks from the initial allocation at the global μ
//! and its own tasks' λ rows; then the utility sum, each resource's usage
//! sum and the λ terms are reduced in global (task, subtask) order, with
//! `B_r` read from the live problem (a shard plan an availability edit
//! did not touch still holds the old `availability`). The value is
//! therefore bit-identical to the naive walk on any partition: interleaved
//! groups, and a shard that `add_task` left non-contiguous. The
//! allocation is the sequential kernel, so an evaluation spawns no thread,
//! and its working buffers are one set per thread, reused across calls:
//! an evaluation allocates nothing once they have grown to the problem.
//!
//! # Parallelism (`parallel` feature)
//!
//! With the opt-in `parallel` feature, [`Plan::allocate_into`] fans the
//! allocation out across a worker pool: tasks are split into contiguous
//! ranges and each worker runs the allocation passes on its range,
//! writing its tasks' latencies into a disjoint `split_at_mut` slice of
//! the output. Task allocations are
//! mutually independent (they read shared prices and write only their own
//! rows), and every cross-task reduction (usage, utility, price steps)
//! stays sequential in fixed order — so parallel output is **bit-identical**
//! to sequential regardless of worker count.

use crate::allocation::{
    clamping_box, subtask_box, AllocationSettings, DAMPING, FIXED_POINT_MAX_ITERS, FIXED_POINT_TOL,
};
use crate::ids::TaskId;
use crate::prices::PriceState;
use crate::problem::Problem;
use crate::utility::UtilityFn;
use std::cell::RefCell;
use std::sync::Arc;

mod clearing;

pub(crate) use clearing::{clear_resource, ShareTerm};
pub use clearing::{PathTerm, ResourcePlan};

/// Fan out the parallel allocator only past this many subtasks; below it
/// thread startup dwarfs the work and the sequential kernel wins.
#[cfg(feature = "parallel")]
const PARALLEL_MIN_SUBTASKS: usize = 2048;

/// `Σ_s w_s·lat_s`, replicating `Task::aggregate_latency` exactly.
fn dot(lats: &[f64], weight: &[f64]) -> f64 {
    lats.iter().zip(weight).map(|(l, w)| l * w).sum()
}

/// One range's columns of the per-subtask constants the allocation reads
/// (the same range of every array), for [`Plan`] and [`TaskPlan`] alike.
#[derive(Clone, Copy)]
struct SubtaskCols<'a> {
    demand: &'a [f64],
    correction: &'a [f64],
    lo: &'a [f64],
    hi: &'a [f64],
    sub_res: &'a [u32],
}

impl SubtaskCols<'_> {
    /// Eq. 7 and the clamp for every subtask `s` of the range: the
    /// pressure is `neg_wf(s) + Σλ` (with `neg_wf(s) = −w_s·f′`) and the
    /// latency `ê + sqrt(μ⁺·m/pressure)`, or `hi` when there is no
    /// pressure, clamped to `[lo, hi]`. `lambda_sum` holds the range's
    /// λ-sums, or is `None` when every one is the fill's `0.0` (no path of
    /// the range has a price), which adds that `0.0` without reading a
    /// buffer. The only copy of the allocation formula; it is
    /// `ShareModel::stationary_latency` over the dense arrays, with the
    /// expressions of [`allocate_task`](crate::allocation::allocate_task)
    /// in their order.
    #[inline(always)]
    fn solve(
        &self,
        neg_wf: impl Fn(usize) -> f64,
        lambda_sum: Option<&[f64]>,
        mus: &[f64],
        out: &mut [f64],
    ) {
        match lambda_sum {
            Some(lambda_sum) => {
                let lambda_sum = &lambda_sum[..out.len()];
                self.solve_pass(neg_wf, |s| lambda_sum[s], mus, out);
            }
            None => self.solve_pass(neg_wf, |_| 0.0, mus, out),
        }
    }

    /// [`solve`](Self::solve)'s loop, with the λ-sum of subtask `s` read
    /// through `lambda_sum(s)`.
    #[inline(always)]
    fn solve_pass(
        &self,
        neg_wf: impl Fn(usize) -> f64,
        lambda_sum: impl Fn(usize) -> f64,
        mus: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        let (demand, correction) = (&self.demand[..n], &self.correction[..n]);
        let (lo, hi, sub_res) = (&self.lo[..n], &self.hi[..n], &self.sub_res[..n]);
        for s in 0..n {
            let pressure = neg_wf(s) + lambda_sum(s);
            let lat = if pressure <= 0.0 {
                hi[s]
            } else {
                correction[s] + (mus[sub_res[s] as usize].max(0.0) * demand[s] / pressure).sqrt()
            };
            out[s] = lat.clamp(lo[s], hi[s]);
        }
    }
}

/// The damped fixed point of a concave task's aggregate `A = Σ_s w_s·lat_s`
/// (see [`crate::allocation`]): warm-started from `previous`, each pass
/// `solve(f′(A), out)` writes the allocation at `A`, and the last pass
/// leaves the allocation at the final `A` in `out`. Returns whether the
/// iteration stopped at `FIXED_POINT_MAX_ITERS` rather than on its
/// tolerance.
fn fixed_point(
    utility: &UtilityFn,
    weight: &[f64],
    previous: &[f64],
    out: &mut [f64],
    mut solve: impl FnMut(f64, &mut [f64]),
) -> bool {
    debug_assert_eq!(previous.len(), out.len(), "allocation shape mismatch");
    let mut a = dot(previous, weight);
    let mut capped = true;
    for _ in 0..FIXED_POINT_MAX_ITERS {
        solve(utility.derivative(a), out);
        let a_new = dot(out, weight);
        let next = (1.0 - DAMPING) * a + DAMPING * a_new;
        if (next - a).abs() <= FIXED_POINT_TOL * a.abs().max(1.0) {
            a = next;
            capped = false;
            break;
        }
        a = next;
    }
    solve(utility.derivative(a), out);
    capped
}

/// Reusable scratch buffers for one [`Plan`]'s iteration kernels.
///
/// Sized by [`Plan::scratch`]; owning one per optimizer (or per thread)
/// makes every per-iteration primitive allocation-free.
#[derive(Debug, Clone)]
pub struct PlanScratch {
    pub(crate) prev: Vec<f64>,
    pub(crate) lats: Vec<f64>,
    /// Per subtask: the allocation's λ-sums; in a market-clearing round,
    /// the sweep's pressures `−w_s·f′ + Σλ` instead, until the task pass
    /// re-allocates a task over its own.
    pub(crate) lambda: Vec<f64>,
    pub(crate) usage: Vec<f64>,
    pub(crate) path_lat: Vec<f64>,
    /// Per path: whether it traverses a congested resource (the path
    /// pass's congestion signal for the λ steps).
    pub(crate) path_congested: Vec<bool>,
    pub(crate) congested: Vec<bool>,
    /// The sweep's breakpoint terms of one resource and one path, and
    /// the sorted breakpoints of one resource; they grow to the largest
    /// resource and path and are then reused.
    pub(crate) terms: Vec<ShareTerm>,
    pub(crate) path_terms: Vec<PathTerm>,
    pub(crate) breakpoints: Vec<(f64, f64)>,
}

impl PlanScratch {
    /// The flat latency vector written by the most recent
    /// [`Plan::allocate_into`].
    pub fn lats(&self) -> &[f64] {
        &self.lats
    }

    /// Mutable access to the flat latency vector.
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

    /// Opens a round on a driver's latency store: the store's buffer
    /// becomes the warm start `prev`, and the store holds a spare buffer
    /// until [`end_round`](Self::end_round).
    pub(crate) fn begin_round(&mut self, store: &mut Vec<f64>) {
        std::mem::swap(store, &mut self.prev);
    }

    /// Closes a round: the store takes the round's allocation `lats` and
    /// the scratch keeps the spare buffer, which the next allocation
    /// overwrites entry by entry.
    pub(crate) fn end_round(&mut self, store: &mut Vec<f64>) {
        std::mem::swap(store, &mut self.lats);
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
        self.path_congested.clear();
        self.path_congested.resize(plan.num_paths(), false);
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
    /// Global path `pp`'s `(start, length)` in `path_subs`.
    path_span: Vec<(u32, u32)>,
    /// Every path's global (plan-wide) subtask indices in root-to-leaf
    /// order, the paths stored shortest first (plan order among equal
    /// lengths), so the path walk streams them with the same trip count
    /// path after path.
    path_subs: Vec<u32>,
    /// The global path indices in `path_subs` order.
    walk_order: Vec<u32>,
    /// `(length, paths)` runs of `path_subs`, in order.
    walk_runs: Vec<(usize, usize)>,
    /// Global path → its task's critical time `C_i`.
    path_ct: Vec<f64>,
    /// Global subtask → hosting resource index.
    sub_res: Vec<u32>,
    demand: Vec<f64>,
    correction: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    weight: Vec<f64>,
    /// `−w_s·f′` of a linear task's subtask, the constant half of its
    /// allocation pressure; `0.0` (unread) for a concave task's subtask.
    neg_wf: Vec<f64>,
    /// Plan-local indices of the tasks with a non-linear (concave)
    /// utility, ascending: the tasks the allocation re-solves by fixed
    /// point after its linear pass.
    concave: Vec<u32>,
    critical_time: Vec<f64>,
    utility: Vec<UtilityFn>,
    availability: Vec<f64>,
    /// `res_subs[res_off[r]..res_off[r+1]]`: the plan's subtasks on
    /// resource `r` in plan order (`Problem::subtasks_on` order when the
    /// plan's tasks ascend), the rows the market-clearing μ block walks.
    res_off: Vec<u32>,
    res_subs: Vec<u32>,
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

    /// The one walk over the lowered tasks that fills every array, each
    /// presized to its final length. A first pass over the tasks counts
    /// their subtasks and their paths by length, which places every path
    /// in its length run of `path_subs` before the walk reaches it.
    fn lower_impl(
        problem: &Problem,
        settings: &AllocationSettings,
        subset: Option<&[usize]>,
    ) -> Plan {
        let tasks = problem.tasks();
        let nt = subset.map_or(tasks.len(), <[usize]>::len);
        // Plan-local task `t`'s global index.
        let global = |t: usize| subset.map_or(t, |subset| subset[t]);
        let (mut ns, mut by_len) = (0, Vec::<usize>::new());
        for gt in (0..nt).map(global) {
            ns += tasks[gt].len();
            for path in tasks[gt].graph().paths() {
                let len = path.subtasks().len();
                if by_len.len() <= len {
                    by_len.resize(len + 1, 0);
                }
                by_len[len] += 1;
            }
        }
        let np: usize = by_len.iter().sum();
        // `run_at[l]`/`walk_at[l]`: where the next path of length `l` goes
        // in `path_subs`/`walk_order`.
        let (mut run_at, mut walk_at) = (Vec::with_capacity(by_len.len()), Vec::new());
        let (mut subs_total, mut paths_total) = (0usize, 0usize);
        for (len, &n) in by_len.iter().enumerate() {
            run_at.push(subs_total);
            walk_at.push(paths_total);
            subs_total += len * n;
            paths_total += n;
        }
        assert!(
            ns < u32::MAX as usize && subs_total < u32::MAX as usize,
            "problem too large for u32 subtask indices"
        );
        let walk_runs = by_len.iter().enumerate().filter(|&(_, &n)| n > 0).map(|(l, &n)| (l, n));

        let mut task_sub_off = Vec::with_capacity(nt + 1);
        let mut task_path_off = Vec::with_capacity(nt + 1);
        let mut path_span = Vec::with_capacity(np);
        let mut path_subs = vec![0u32; subs_total];
        let mut walk_order = vec![0u32; np];
        let mut path_ct = Vec::with_capacity(np);
        let mut sub_res = Vec::with_capacity(ns);
        let mut demand = Vec::with_capacity(ns);
        let mut correction = Vec::with_capacity(ns);
        let mut lo = Vec::with_capacity(ns);
        let mut hi = Vec::with_capacity(ns);
        let mut weight = Vec::with_capacity(ns);
        let mut neg_wf = Vec::with_capacity(ns);
        let mut concave = Vec::new();
        let mut critical_time = Vec::with_capacity(nt);
        let mut utility = Vec::with_capacity(nt);
        task_sub_off.push(0);
        task_path_off.push(0);
        for gt in (0..nt).map(global) {
            let task = &tasks[gt];
            let base = demand.len() as u32;
            let ct = task.critical_time();
            for (s, sub) in task.subtasks().iter().enumerate() {
                let model = problem.share_model(task.subtask_id(s));
                let (lo_s, cap) = subtask_box(problem, task, s, model, settings);
                let hi_s = cap.max(lo_s);
                demand.push(model.demand());
                correction.push(model.correction());
                lo.push(lo_s);
                hi.push(hi_s);
                sub_res.push(sub.resource().index() as u32);
            }
            weight.extend_from_slice(task.weights());
            match task.utility_fn() {
                f @ UtilityFn::Linear { .. } => {
                    let fprime = f.derivative(0.0);
                    neg_wf.extend(task.weights().iter().map(|w| -w * fprime));
                }
                _ => {
                    concave.push(critical_time.len() as u32);
                    neg_wf.resize(demand.len(), 0.0);
                }
            }
            for path in task.graph().paths() {
                let len = path.subtasks().len();
                let at = run_at[len];
                for (slot, &s) in path_subs[at..at + len].iter_mut().zip(path.subtasks()) {
                    *slot = base + s as u32;
                }
                run_at[len] += len;
                walk_order[walk_at[len]] = path_span.len() as u32;
                walk_at[len] += 1;
                path_span.push((at as u32, len as u32));
                path_ct.push(ct);
            }
            task_sub_off.push(demand.len());
            task_path_off.push(path_ct.len());
            critical_time.push(ct);
            utility.push(task.utility_fn().clone());
        }

        let availability: Vec<f64> = problem.resources().iter().map(|r| r.availability()).collect();
        // The resource → subtask rows, by a counting sort in plan order.
        let mut res_off = vec![0u32; availability.len() + 1];
        for &r in &sub_res {
            res_off[r as usize + 1] += 1;
        }
        for r in 0..availability.len() {
            res_off[r + 1] += res_off[r];
        }
        let mut res_subs = vec![0u32; ns];
        let mut next = res_off[..availability.len()].to_vec();
        for (s, &r) in sub_res.iter().enumerate() {
            res_subs[next[r as usize] as usize] = s as u32;
            next[r as usize] += 1;
        }
        Plan {
            epoch: problem.epoch(),
            settings: *settings,
            task_sub_off,
            task_path_off,
            path_span,
            path_subs,
            walk_order,
            walk_runs: walk_runs.collect(),
            path_ct,
            sub_res,
            demand,
            correction,
            lo,
            hi,
            weight,
            neg_wf,
            concave,
            critical_time,
            utility,
            availability,
            res_off,
            res_subs,
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
        self.path_span.len()
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
            path_congested: vec![false; self.num_paths()],
            congested: vec![false; self.num_resources()],
            terms: Vec::new(),
            path_terms: Vec::new(),
            breakpoints: Vec::new(),
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
        let PlanScratch { prev, lats, lambda, .. } = scratch;
        let (mus, lambdas) = (prices.mus(), prices.flat_lambdas());
        self.allocate_tasks(0..self.num_tasks(), mus, lambdas, prev, lambda, lats);
    }

    /// The threaded latency-allocation kernel: contiguous task ranges fan
    /// out over `rayon::current_num_threads()` workers, each running
    /// [`allocate_seq`](Self::allocate_seq)'s passes on its range and
    /// writing a disjoint slice of `scratch.lats`. Bit-identical to
    /// `allocate_seq` for any worker count because tasks are independent
    /// and no cross-task reduction happens here.
    #[cfg(feature = "parallel")]
    pub fn allocate_par(&self, prices: &PriceState, scratch: &mut PlanScratch) {
        let nt = self.num_tasks();
        let workers = rayon::current_num_threads().min(nt.max(1));
        if workers <= 1 {
            self.allocate_seq(prices, scratch);
            return;
        }
        let PlanScratch { prev, lats, lambda, .. } = scratch;
        let prev: &[f64] = prev;
        let (mus, lambdas) = (prices.mus(), prices.flat_lambdas());
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
                let tasks = t0..t1;
                s.spawn(move || {
                    self.allocate_tasks(tasks, mus, lambdas, prev, chunk_lambda, chunk_lats);
                });
                t0 = t1;
            }
        });
    }

    /// The allocation of a contiguous task range whose subtasks are
    /// `lambda_sum` and `out` (both start at the range's first subtask;
    /// `prev` is the whole plan's warm start), at resource prices `mus`
    /// (global resource order) and path prices `lambdas` (the plan's flat
    /// path order):
    ///
    /// 1. one λ-sum scatter over the range's paths in plan order, adding
    ///    each nonzero `λ_p` to its subtasks (the reference's skip of
    ///    zero-price paths) — skipped, buffer and all, when no path of the
    ///    range has a price;
    /// 2. one pass over the range's subtasks with the lowered `−w_s·f′`,
    ///    exact for every linear task;
    /// 3. the damped fixed point over each concave task's own slice,
    ///    overwriting what the linear pass wrote there.
    ///
    /// Returns how many concave tasks' fixed points stopped at the
    /// iteration cap.
    fn allocate_tasks(
        &self,
        tasks: std::ops::Range<usize>,
        mus: &[f64],
        lambdas: &[f64],
        prev: &[f64],
        lambda_sum: &mut [f64],
        out: &mut [f64],
    ) -> usize {
        debug_assert_eq!(lambdas.len(), self.num_paths(), "price/plan path count mismatch");
        let subs = self.task_sub_off[tasks.start]..self.task_sub_off[tasks.end];
        let paths = self.task_path_off[tasks.start]..self.task_path_off[tasks.end];
        let base = subs.start;
        let lambdas = &lambdas[paths.clone()];
        let lambda_sum = if lambdas.iter().all(|&lp| lp == 0.0) {
            None
        } else {
            lambda_sum.fill(0.0);
            for (pp, &lp) in paths.zip(lambdas) {
                if lp != 0.0 {
                    for &gs in self.path_subtasks(pp) {
                        lambda_sum[gs as usize - base] += lp;
                    }
                }
            }
            Some(&*lambda_sum)
        };

        let neg_wf = &self.neg_wf[subs.clone()];
        self.cols(subs).solve(|s| neg_wf[s], lambda_sum, mus, out);

        let first = self.concave.partition_point(|&t| (t as usize) < tasks.start);
        let mut capped = 0;
        for &t in self.concave[first..].iter().take_while(|&&t| (t as usize) < tasks.end) {
            let range = self.task_range(t as usize);
            let local = range.start - base..range.end - base;
            let (cols, weight) = (self.cols(range.clone()), &self.weight[range.clone()]);
            let lambda_sum = lambda_sum.map(|l| &l[local.clone()]);
            capped += usize::from(fixed_point(
                &self.utility[t as usize],
                weight,
                &prev[range],
                &mut out[local],
                |f, dst| {
                    cols.solve(|s| -weight[s] * f, lambda_sum, mus, dst);
                },
            ));
        }
        capped
    }

    /// The allocation columns of the subtasks in `range`.
    fn cols(&self, range: std::ops::Range<usize>) -> SubtaskCols<'_> {
        SubtaskCols {
            demand: &self.demand[range.clone()],
            correction: &self.correction[range.clone()],
            lo: &self.lo[range.clone()],
            hi: &self.hi[range.clone()],
            sub_res: &self.sub_res[range],
        }
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
        self.add_usage(0..self.num_subtasks(), lats, usage);
    }

    /// Global path `pp`'s subtasks, as global subtask indices.
    #[inline]
    fn path_subtasks(&self, pp: usize) -> &[u32] {
        let (at, len) = self.path_span[pp];
        &self.path_subs[at as usize..(at + len) as usize]
    }

    /// `Σ_{s∈p} lat_s` for global path `pp`, replicating
    /// [`crate::graph::Path::latency`].
    #[inline]
    fn path_latency(&self, pp: usize, lats: &[f64]) -> f64 {
        self.path_subtasks(pp).iter().map(|&s| lats[s as usize]).sum()
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
    /// violation (for `owned` resources only, when given), in one
    /// [`PriceState`] batch.
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
        prices.step_resources(&self.availability, usage, owned, congested)
    }

    /// The per-path half of the price phase (Eq. 9), the path pass: one
    /// walk per path in plan order over its subtasks for the latency
    /// (summed from `-0.0` as `Iterator::sum` does) and the congestion
    /// test, then one [`PriceState`] batch of violations and λ steps.
    /// It reads the congestion bits already in `scratch`: the monolithic
    /// step sets them all in its resource pass, and sharded drivers call
    /// this *after* the coordinator has broadcast shared-resource
    /// congestion into `scratch.congested`. Returns the worst path
    /// violation `path_latency/C_i − 1`.
    pub fn path_price_steps(&self, prices: &mut PriceState, scratch: &mut PlanScratch) -> f64 {
        debug_assert_eq!(prices.num_paths(), self.num_paths(), "price/plan path count mismatch");
        let PlanScratch { lats, path_lat, path_congested, congested, .. } = scratch;
        self.walk_paths(|pp, path| {
            let (mut pl, mut traverses_congested) = (-0.0f64, false);
            for &gs in path {
                pl += lats[gs as usize];
                traverses_congested |= congested[self.sub_res[gs as usize] as usize];
            }
            path_lat[pp] = pl;
            path_congested[pp] = traverses_congested;
        });
        prices.step_paths(path_lat, &self.path_ct, path_congested)
    }

    /// Calls `visit(pp, subtasks)` for every path in `path_subs` storage
    /// order (shortest first), with its global index and global subtask
    /// indices.
    #[inline(always)]
    fn walk_paths(&self, mut visit: impl FnMut(usize, &[u32])) {
        let (mut rest, mut ids) = (&self.path_subs[..], self.walk_order.iter());
        for &(len, paths) in &self.walk_runs {
            let (run, tail) = rest.split_at(len * paths);
            rest = tail;
            for (path, &pp) in run.chunks_exact(len).zip(ids.by_ref()) {
                visit(pp as usize, path);
            }
        }
    }

    /// Writes `Problem::initial_allocation`'s rows of the concave tasks
    /// into `prev` (plan order): an even split of `C_i` along the task's
    /// longest path, in hops. The only entries a fresh allocation reads.
    fn initial_concave_into(&self, prev: &mut [f64]) {
        for &t in &self.concave {
            let t = t as usize;
            let hops = self.task_path_range(t).map(|pp| self.path_subtasks(pp).len());
            let slice = self.critical_time[t] / hops.max().unwrap_or(1) as f64;
            prev[self.task_range(t)].fill(slice);
        }
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
        (0..self.num_tasks()).map(|t| self.task_utility(t, lats)).sum()
    }

    /// Task `t`'s utility `U_t(Σ_s w_s·lat_s)`, replicating
    /// `Task::utility`.
    fn task_utility(&self, t: usize, lats: &[f64]) -> f64 {
        let sub = self.task_range(t);
        self.utility[t].value(dot(&lats[sub.clone()], &self.weight[sub]))
    }

    /// Adds the share of each subtask in `subs` (`ShareModel::share_for_latency`
    /// at its latency) to its resource's usage, in plan order.
    #[inline]
    fn add_usage(&self, subs: std::ops::Range<usize>, lats: &[f64], usage: &mut [f64]) {
        let (res, lats) = (&self.sub_res[subs.clone()], &lats[subs.clone()]);
        let (demand, correction) = (&self.demand[subs.clone()], &self.correction[subs]);
        for (((&r, &lat), &m), &e) in res.iter().zip(lats).zip(demand).zip(correction) {
            let eff = lat - e;
            usage[r as usize] += if eff <= 0.0 { f64::INFINITY } else { m / eff };
        }
    }

    /// `max_r (usage_r − B_r)` from a precomputed usage vector,
    /// replicating [`Problem::max_resource_violation`].
    pub fn max_resource_violation(&self, usage: &[f64]) -> f64 {
        usage.iter().zip(&self.availability).map(|(u, b)| u - b).fold(f64::NEG_INFINITY, f64::max)
    }

    /// `max_p (path_latency/C_i − 1)` from precomputed path latencies,
    /// replicating [`Problem::max_path_violation`].
    pub fn max_path_violation(&self, path_lat: &[f64]) -> f64 {
        path_lat
            .iter()
            .zip(&self.path_ct)
            .fold(f64::NEG_INFINITY, |worst, (pl, ct)| worst.max(pl / ct - 1.0))
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
}

/// A run of consecutive global tasks, starting at `global`, that part
/// `part` lowers as the consecutive plan-local `tasks`.
#[derive(Debug, Clone)]
struct Run {
    part: usize,
    tasks: std::ops::Range<usize>,
    global: usize,
}

/// The Lagrangian (Eq. 5) over the latencies of one or more plans that
/// jointly lower a problem, reduced as
/// [`lagrangian_value`](crate::lagrangian::lagrangian_value) walks the
/// nested problem: `runs` list every task once, in global task order, and
/// `part(k)` gives part `k`'s plan, its flat latencies and its flat λ (both
/// in the plan's order). The utility sum, each resource's usage sum and
/// the λ terms all run in global (task, subtask) order, which is the order
/// of `Problem::subtasks_on`, with one flat pass per run; `mus`,
/// `availability(r)` and `usage` are by global resource.
fn lagrangian_in<'a>(
    runs: &[Run],
    part: impl Fn(usize) -> (&'a Plan, &'a [f64], &'a [f64]),
    mus: &[f64],
    availability: impl Fn(usize) -> f64,
    usage: &mut [f64],
) -> f64 {
    let utilities = runs.iter().flat_map(|run| {
        let (plan, lats, _) = part(run.part);
        run.tasks.clone().map(move |t| plan.task_utility(t, lats))
    });
    let mut value: f64 = utilities.sum();
    usage.fill(-0.0);
    for run in runs {
        let (plan, lats, _) = part(run.part);
        plan.add_usage(
            plan.task_sub_off[run.tasks.start]..plan.task_sub_off[run.tasks.end],
            lats,
            usage,
        );
    }
    for (r, (&u, &mu)) in usage.iter().zip(mus).enumerate() {
        value -= mu * (u - availability(r));
    }
    for run in runs {
        let (plan, lats, lambdas) = part(run.part);
        let paths = plan.task_path_off[run.tasks.start]..plan.task_path_off[run.tasks.end];
        for (pp, &lp) in paths.clone().zip(&lambdas[paths]) {
            value -= lp * (plan.path_latency(pp, lats) - plan.path_ct[pp]);
        }
    }
    value
}

/// Where [`PlanMemo::dual`] reads the path prices λ.
#[derive(Clone, Copy)]
pub(crate) enum PathPrices<'a> {
    /// One price state with a λ row per global task (an `Optimizer`'s, or
    /// one exported from a `ShardedOptimizer`).
    Global(&'a PriceState),
    /// Part `k`'s own price state, with a λ row per plan-local task (a
    /// shard's).
    PerPart(&'a dyn Fn(usize) -> &'a PriceState),
}

/// The working buffers of [`PlanMemo::dual`], one set per thread: every
/// evaluation on the thread reuses them instead of allocating and freeing
/// them per call (buffers freed after each call let the allocator return
/// the heap top to the system, and the next set-up pays for fresh pages).
/// They grow to the largest problem the thread evaluates.
#[derive(Debug, Default)]
struct DualScratch {
    mus: Vec<f64>,
    lambdas: Vec<f64>,
    prev: Vec<f64>,
    lambda_sum: Vec<f64>,
    lats: Vec<f64>,
    usage: Vec<f64>,
}

thread_local! {
    static DUAL_SCRATCH: RefCell<DualScratch> = RefCell::default();
}

/// What `D(μ, λ)` is evaluated on: the plans a driver lowered for a
/// problem, at one epoch (see [the memoised plan](self#the-memoised-plan)).
/// The parts are the driver's own `Arc`s; together they lower every task
/// of the problem once.
#[derive(Debug)]
pub(crate) struct PlanMemo {
    /// The [`Problem::epoch`] the memo describes (a part its driver did
    /// not re-lower may carry an older one).
    epoch: u64,
    parts: Vec<Arc<Plan>>,
    /// Every task once, in global order.
    runs: Vec<Run>,
    num_tasks: usize,
    /// Part `k`'s subtasks and paths start at `sub_base[k]` and
    /// `path_base[k]` of the evaluation's flat buffers (one entry more
    /// than there are parts).
    sub_base: Vec<usize>,
    path_base: Vec<usize>,
}

impl PlanMemo {
    /// The memo of one plan of the whole of `problem`, lowered at its
    /// current epoch.
    pub(crate) fn whole(problem: &Problem, plan: Arc<Plan>) -> Self {
        debug_assert_eq!(plan.epoch(), problem.epoch(), "a whole plan must be current");
        let run = Run { part: 0, tasks: 0..plan.num_tasks(), global: 0 };
        Self::new(problem, vec![plan], vec![run])
    }

    /// The memo of shard plans of `problem` at its current epoch: each
    /// part lowers the global tasks listed with it, in plan-local order.
    pub(crate) fn sharded<'a>(
        problem: &Problem,
        parts: impl IntoIterator<Item = (&'a Arc<Plan>, &'a [usize])>,
    ) -> Self {
        let mut locate = vec![(usize::MAX, 0); problem.tasks().len()];
        let mut plans = Vec::new();
        for (k, (plan, tasks)) in parts.into_iter().enumerate() {
            debug_assert_eq!(plan.num_tasks(), tasks.len(), "shard plan and task list disagree");
            for (local, &t) in tasks.iter().enumerate() {
                locate[t] = (k, local);
            }
            plans.push(Arc::clone(plan));
        }
        let mut runs: Vec<Run> = Vec::new();
        for (global, &(part, local)) in locate.iter().enumerate() {
            assert_ne!(part, usize::MAX, "the parts must cover task {global}");
            match runs.last_mut() {
                Some(run) if run.part == part && run.tasks.end == local => run.tasks.end += 1,
                _ => runs.push(Run { part, tasks: local..local + 1, global }),
            }
        }
        Self::new(problem, plans, runs)
    }

    fn new(problem: &Problem, parts: Vec<Arc<Plan>>, runs: Vec<Run>) -> Self {
        assert!(!parts.is_empty(), "a memo has at least one part");
        let (mut sub_base, mut path_base) = (vec![0], vec![0]);
        for plan in &parts {
            sub_base.push(sub_base[sub_base.len() - 1] + plan.num_subtasks());
            path_base.push(path_base[path_base.len() - 1] + plan.num_paths());
        }
        PlanMemo {
            epoch: problem.epoch(),
            parts,
            runs,
            num_tasks: problem.tasks().len(),
            sub_base,
            path_base,
        }
    }

    /// The problem epoch the memo describes.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The allocation settings every part was lowered with.
    pub(crate) fn settings(&self) -> &AllocationSettings {
        self.parts[0].settings()
    }

    /// Number of tasks the parts lower.
    pub(crate) fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// `D(μ, λ)` (Eq. 6) of `problem`, bit-identical to the naive
    /// [`dual_value`](crate::lagrangian::dual_value) walk: every part
    /// allocates its tasks from the initial allocation at the global
    /// resource prices `mu(r)` and its tasks' λ rows from `lambdas`; then
    /// [`lagrangian_in`] reduces the Lagrangian in global order with `B_r`
    /// read from `problem` (a part lowered before an availability edit it
    /// was not re-lowered for holds the old one).
    ///
    /// Returns `(D, concave tasks whose fixed point hit its cap)`, or
    /// `None` when `lambdas` does not have one row per task with the
    /// task's path count. With `maximizer`, also writes the maximising
    /// latencies in global (task, subtask) order and their row offsets
    /// there. Allocates nothing once the thread's working buffers have
    /// grown to the problem, and nothing more with `maximizer`'s vectors
    /// large enough.
    pub(crate) fn dual(
        &self,
        problem: &Problem,
        mu: impl Fn(usize) -> f64,
        lambdas: PathPrices<'_>,
        maximizer: Option<(&mut Vec<f64>, &mut Vec<usize>)>,
    ) -> Option<(f64, usize)> {
        debug_assert_eq!(problem.epoch(), self.epoch, "the memo must describe the problem");
        if let PathPrices::Global(prices) = lambdas {
            if prices.row_offsets().len() != self.num_tasks + 1 {
                return None;
            }
        }
        DUAL_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.dual_in(&mut scratch, problem, mu, lambdas, maximizer),
            Err(_) => self.dual_in(&mut DualScratch::default(), problem, mu, lambdas, maximizer),
        })
    }

    /// [`dual`](Self::dual) in the given working buffers.
    fn dual_in(
        &self,
        scratch: &mut DualScratch,
        problem: &Problem,
        mu: impl Fn(usize) -> f64,
        lambdas: PathPrices<'_>,
        maximizer: Option<(&mut Vec<f64>, &mut Vec<usize>)>,
    ) -> Option<(f64, usize)> {
        let DualScratch { mus, lambdas: gathered, prev, lambda_sum, lats, usage } = scratch;
        let resources = problem.resources();
        let k_end = self.parts.len();
        let (ns, np) = (self.sub_base[k_end], self.path_base[k_end]);
        mus.clear();
        mus.extend((0..resources.len()).map(mu));
        gathered.resize(np, 0.0);
        for run in &self.runs {
            let plan = &self.parts[run.part];
            let (prices, rows) = match lambdas {
                PathPrices::Global(prices) => (prices, run.global..run.global + run.tasks.len()),
                PathPrices::PerPart(prices) => (prices(run.part), run.tasks.clone()),
            };
            let src = prices.row_offsets().get(rows.start..=rows.end)?;
            let dst = &plan.task_path_off[run.tasks.start..=run.tasks.end];
            if src.iter().zip(dst).any(|(s, d)| s - src[0] != d - dst[0]) {
                return None;
            }
            let base = self.path_base[run.part];
            gathered[base + dst[0]..base + dst[dst.len() - 1]]
                .copy_from_slice(&prices.flat_lambdas()[src[0]..src[src.len() - 1]]);
        }
        // Only a concave task reads its warm start.
        let concave = self.parts.iter().any(|plan| !plan.concave.is_empty());
        prev.resize(if concave { ns } else { 0 }, 0.0);
        lambda_sum.resize(ns, 0.0);
        lats.resize(ns, 0.0);
        usage.resize(resources.len(), 0.0);

        let mut capped = 0;
        for (k, plan) in self.parts.iter().enumerate() {
            let (subs, paths) = (self.subs(k), self.paths(k));
            let prev = match prev.get_mut(subs.clone()) {
                Some(prev) => {
                    plan.initial_concave_into(prev);
                    &*prev
                }
                None => &[],
            };
            capped += plan.allocate_tasks(
                0..plan.num_tasks(),
                mus,
                &gathered[paths],
                prev,
                &mut lambda_sum[subs.clone()],
                &mut lats[subs],
            );
        }
        let (lats, gathered) = (&lats[..], &gathered[..]);
        let part = |k: usize| (&*self.parts[k], &lats[self.subs(k)], &gathered[self.paths(k)]);
        let availability = |r: usize| resources[r].availability();
        let value = lagrangian_in(&self.runs, part, mus, availability, usage);

        if let Some((flat, offsets)) = maximizer {
            flat.clear();
            flat.reserve(lats.len());
            offsets.clear();
            offsets.reserve(self.num_tasks + 1);
            offsets.push(0);
            for run in &self.runs {
                let (plan, lats, _) = part(run.part);
                let (base, start) = (flat.len(), plan.task_sub_off[run.tasks.start]);
                flat.extend_from_slice(&lats[start..plan.task_sub_off[run.tasks.end]]);
                let ends = &plan.task_sub_off[run.tasks.start + 1..=run.tasks.end];
                offsets.extend(ends.iter().map(|&end| base + end - start));
            }
        }
        Some((value, capped))
    }

    /// Part `k`'s window of the evaluation's per-subtask buffers.
    fn subs(&self, k: usize) -> std::ops::Range<usize> {
        self.sub_base[k]..self.sub_base[k + 1]
    }

    /// Part `k`'s window of the evaluation's per-path buffer.
    fn paths(&self, k: usize) -> std::ops::Range<usize> {
        self.path_base[k]..self.path_base[k + 1]
    }
}

/// A single-task lowering for distributed task controllers: the same dense
/// allocation kernel as [`Plan`], but holding only one task's constants so
/// an agent does not pay O(problem) memory per controller.
#[derive(Debug, Clone)]
pub struct TaskPlan {
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

    /// The task's per-subtask columns.
    fn cols(&self) -> SubtaskCols<'_> {
        SubtaskCols {
            demand: &self.demand,
            correction: &self.correction,
            lo: &self.lo,
            hi: &self.hi,
            sub_res: &self.sub_res,
        }
    }

    /// Local path `p`'s task-local subtask indices, root to leaf.
    fn path(&self, p: usize) -> &[u32] {
        &self.path_subs[self.path_off[p]..self.path_off[p + 1]]
    }

    /// `Σ_{s∈p} lat_s` for local path `p`, replicating
    /// [`crate::graph::Path::latency`].
    pub fn path_latency(&self, p: usize, lats: &[f64]) -> f64 {
        self.path(p).iter().map(|&s| lats[s as usize]).sum()
    }

    /// Whether local path `p` traverses a resource flagged in `congested`
    /// (indexed by global resource index).
    pub fn path_traverses(&self, p: usize, congested: &[bool]) -> bool {
        self.path(p).iter().any(|&s| congested[self.sub_res[s as usize] as usize])
    }

    /// One latency-allocation step for this task (bit-identical to
    /// [`crate::allocation::allocate_task`]): the λ-sum scatter over the
    /// task's paths, then [`Plan`]'s allocation pass over its subtasks
    /// (once for a linear utility, by fixed point for a concave one). `t`
    /// is the task's index for λ lookups; `lambda_scratch` and `out` must
    /// both be `len()` long.
    pub fn allocate_into(
        &self,
        t: usize,
        prices: &PriceState,
        previous: &[f64],
        lambda_scratch: &mut [f64],
        out: &mut [f64],
    ) {
        lambda_scratch.fill(0.0);
        for (p, &lp) in prices.lambdas(t).iter().enumerate() {
            if lp != 0.0 {
                for &s in self.path(p) {
                    lambda_scratch[s as usize] += lp;
                }
            }
        }
        let cols = self.cols();
        let lambda_sum = Some(&*lambda_scratch);
        let solve = |f: f64, dst: &mut [f64]| {
            cols.solve(|s| -self.weight[s] * f, lambda_sum, prices.mus(), dst);
        };
        match self.utility {
            UtilityFn::Linear { .. } => solve(self.utility.derivative(0.0), out),
            _ => {
                fixed_point(&self.utility, &self.weight, previous, out, solve);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{allocate_latencies, allocate_task};
    use crate::ids::ResourceId;
    use crate::lagrangian::lagrangian_value;
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
        scratch.prev_mut().copy_from_slice(&prev.concat());
        plan.allocate_seq(&prices, &mut scratch);
        let nested: Vec<Vec<f64>> =
            (0..plan.num_tasks()).map(|t| scratch.lats()[plan.task_range(t)].to_vec()).collect();
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
        scratch.lats_mut().copy_from_slice(&lats.concat());
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
        let flat = lats.concat();
        assert_eq!(plan.total_utility(&flat), p.total_utility(&lats));
        scratch.lats_mut().copy_from_slice(&flat);
        let violations = plan.price_update(&mut prices.clone(), &mut scratch);
        assert_eq!(plan.max_resource_violation(&scratch.usage), p.max_resource_violation(&lats));
        assert_eq!(plan.max_path_violation(&scratch.path_lat), p.max_path_violation(&lats));
        assert_eq!(violations, (p.max_resource_violation(&lats), p.max_path_violation(&lats)));
    }

    /// One memo over parts that lower the tasks out of order, one of them
    /// before an availability edit on a resource only the other touches:
    /// `D` and its maximiser equal the naive walk's bit for bit.
    #[test]
    fn memo_dual_is_bit_identical_to_naive_on_any_partition() {
        let mut p = diamond_problem();
        let settings = AllocationSettings::default();
        let chain = Arc::new(Plan::lower_subset(&p, &settings, &[1]));
        // Only the diamond task runs on resource 0.
        p.set_resource_availability(ResourceId::new(0), 0.7).unwrap();
        let diamond = Arc::new(Plan::lower_subset(&p, &settings, &[0]));
        let parts = [(&chain, &[1usize][..]), (&diamond, &[0][..])];
        let memo = PlanMemo::sharded(&p, parts);
        let prices = priced(&p);
        let (mut flat, mut offsets) = (Vec::new(), Vec::new());
        let maximizer = Some((&mut flat, &mut offsets));
        let global = PathPrices::Global(&prices);
        let (value, capped) = memo.dual(&p, |r| prices.mu(r), global, maximizer).unwrap();

        let naive = allocate_latencies(&p, &prices, &settings, &p.initial_allocation());
        let want = lagrangian_value(&p, &naive, &prices);
        assert_eq!(value.to_bits(), want.to_bits(), "{value} vs {want}");
        assert_eq!(flat, naive.concat());
        assert_eq!(offsets, [0, 4, 6]);
        assert_eq!(capped, 0, "the quadratic task's fixed point converges");
        // Rows of the wrong shape are refused rather than misread.
        let other = PriceState::new(&p, StepSizePolicy::adaptive(1.0));
        let mut chains = diamond_problem();
        chains.remove_task(TaskId::new(0)).unwrap();
        let mut b = TaskBuilder::new("second chain");
        let x = b.subtask("x", ResourceId::new(1), 2.0);
        let y = b.subtask("y", ResourceId::new(2), 2.0);
        b.edge(x, y).unwrap();
        chains.add_task(b.critical_time(40.0)).unwrap();
        // Two one-path rows where the memo expects a two-path row first.
        let misfit = PriceState::new(&chains, StepSizePolicy::adaptive(1.0));
        assert!(memo.dual(&p, |r| other.mu(r), PathPrices::Global(&other), None).is_some());
        assert!(memo.dual(&p, |r| misfit.mu(r), PathPrices::Global(&misfit), None).is_none());
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
        seq.prev_mut().copy_from_slice(&prev.concat());
        plan.allocate_seq(&prices, &mut seq);
        let mut par = plan.scratch();
        par.prev_mut().copy_from_slice(&prev.concat());
        plan.allocate_par(&prices, &mut par);
        assert_eq!(seq.lats(), par.lats());
    }
}
