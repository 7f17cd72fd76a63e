//! Market clearing: the [`PriceMethod::Clearing`](crate::prices::PriceMethod)
//! sweep, one block coordinate minimisation of the dual `D(μ, λ)` (Eq. 6)
//! per round.
//!
//! The dual separates by constraint: `∂D/∂μ_r = B_r − usage_r` and
//! `∂D/∂λ_p = C_i − lat_p`, so each price can be set to clear its own
//! constraint at the others' prices instead of stepping along the
//! gradient:
//!
//! - **μ block** — for fixed λ, a subtask's share depends on its own
//!   resource's price alone. With `x = 1/√μ_r` and pressure
//!   `P_s = −w_s·f′ + Σλ`, a linear subtask's share is
//!   `clamp(x·√(m_s·P_s), m_s/(hi_s − ê_s), m_s/(lo_s − ê_s))`, so
//!   `usage_r(x)` is nondecreasing and piecewise linear and one walk over
//!   its sorted breakpoints solves `usage_r = B_r` exactly
//!   ([`clear_resource`]). A resource whose usage at the box's lower
//!   latency edge fits takes `μ_r = 0`.
//! - **λ block** — for fixed μ, a path's latency is nonincreasing in its
//!   own `λ_p`; a safeguarded Newton iteration inside the bracket
//!   `[0, λ at which every subtask of the path sits at lo]` solves
//!   `lat_p = C_i` ([`clear_path`]). The paths of a task share subtasks,
//!   so they are cleared Gauss–Seidel, in path order, each at the λ its
//!   predecessors just set.
//!
//! The λ block runs task by task in one pass with the allocation and the
//! measurement ([`Plan::clear_paths_and_allocate`]). A concave task's
//! `−w_s·f′(A)` is held at the aggregate of the previous allocation for
//! the sweep; its allocation then runs its damped fixed point as usual.
//!
//! Both blocks are local to the agent that owns the price, so a
//! distributed deployment runs the same solves: a [`ResourcePlan`] clears
//! one resource's `μ_r` from the pressures its subtasks' controllers
//! report, and [`TaskPlan::clear_lambdas`] clears one task's λ at the μ
//! its controller holds. A constraint that no price can clear (minimum
//! shares above `B_r`, or `Σ lo > C_i` on a path) doubles its price each
//! sweep up to [`PRICE_CAP`], which drives `D` to `−∞` and lets
//! [`analyze_schedulability`](crate::analyze_schedulability) prove the
//! problem unschedulable.

use super::{dot, Plan, PlanScratch, SubtaskCols, TaskPlan};
use crate::allocation::{subtask_box, AllocationSettings};
use crate::ids::ResourceId;
use crate::prices::PriceState;
use crate::problem::Problem;
use crate::utility::UtilityFn;

/// The price an unclearable constraint first takes from zero.
const PRICE_SEED: f64 = 1.0;

/// The price past which an unclearable constraint stops doubling, so
/// prices stay finite however long a run lasts.
const PRICE_CAP: f64 = 1e100;

/// Relative tolerance `|lat_p − C_i| ≤ PATH_TOL·C_i` of the λ solve.
const PATH_TOL: f64 = 1e-12;

/// Iteration cap of the λ solve. Every step Newton cannot take halves
/// the bracket; a solve that reaches the cap keeps its last point, which
/// the next sweep starts from.
const PATH_MAX_ITERS: usize = 200;

/// The next price of a constraint no price can clear.
fn grow(price: f64) -> f64 {
    (2.0 * price).clamp(PRICE_SEED, PRICE_CAP)
}

/// One subtask's share as a function of `x = 1/√μ_r`:
/// `clamp(a·x, lo, hi)` (the constant `lo` when `a` is 0, which is a
/// subtask with no pressure sitting at its latency cap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShareTerm {
    /// `√(m_s·P_s)`, or 0 when `P_s ≤ 0`.
    pub(crate) a: f64,
    /// The share at the latency cap, `m_s/(hi_s − ê_s)`.
    pub(crate) lo: f64,
    /// The share at the latency floor, `m_s/(lo_s − ê_s)`.
    pub(crate) hi: f64,
}

impl ShareTerm {
    /// The term of a subtask of demand `m` under pressure `p`, with share
    /// bounds `lo` and `hi` from [`share_bounds`].
    #[inline]
    fn new(m: f64, p: f64, lo: f64, hi: f64) -> Self {
        ShareTerm { a: if p > 0.0 { (m * p).sqrt() } else { 0.0 }, lo, hi }
    }
}

/// The `(share at the latency cap, share at the latency floor)` of a
/// subtask of demand `m` and correction `e` with latency box
/// `[lat_lo, lat_hi]`.
#[inline]
fn share_bounds(m: f64, e: f64, lat_lo: f64, lat_hi: f64) -> (f64, f64) {
    (m / (lat_hi - e), m / (lat_lo - e))
}

/// The `μ_r` at which `Σ clamp(a·x, lo, hi) = b` with `x = 1/√μ_r`; 0
/// when the usage at `μ_r = 0` (every share at its `hi`) fits `b`, and
/// `prev` doubled when the least usage (every share at its `lo`) does
/// not. `breakpoints` is a reusable buffer.
pub(crate) fn clear_resource(
    terms: &[ShareTerm],
    breakpoints: &mut Vec<(f64, f64)>,
    b: f64,
    prev: f64,
) -> f64 {
    let (mut least, mut most) = (0.0, 0.0);
    for t in terms {
        least += t.lo;
        most += if t.a > 0.0 { t.hi } else { t.lo };
    }
    if most <= b {
        return 0.0;
    }
    if least >= b {
        return grow(prev);
    }
    // Each rising term adds its slope at x = lo/a and takes it away at
    // x = hi/a; between breakpoints usage(x) = level + slope·x.
    breakpoints.clear();
    for t in terms.iter().filter(|t| t.a > 0.0) {
        breakpoints.push((t.lo / t.a, t.a));
        breakpoints.push((t.hi / t.a, -t.a));
    }
    breakpoints.sort_unstable_by(|p, q| p.0.total_cmp(&q.0).then(p.1.total_cmp(&q.1)));
    let (mut level, mut slope) = (least, 0.0);
    let (mut from, mut to) = (0.0, f64::INFINITY);
    for &(x, ds) in breakpoints.iter() {
        if level + slope * x >= b {
            to = x;
            break;
        }
        slope += ds;
        level -= ds * x;
        from = x;
    }
    // No breakpoint lies inside (from, to): classify every term on it
    // afresh, so the root does not carry the walk's running sums.
    let (mut level, mut slope) = (0.0, 0.0);
    for t in terms {
        if t.a > 0.0 && t.hi / t.a <= from {
            level += t.hi;
        } else if t.a <= 0.0 || t.lo / t.a >= to {
            level += t.lo;
        } else {
            slope += t.a;
        }
    }
    let x = if slope > 0.0 {
        ((b - level) / slope).clamp(from, to)
    } else if to.is_finite() {
        to
    } else {
        from
    };
    if x > 0.0 {
        1.0 / (x * x)
    } else {
        grow(prev)
    }
}

/// One subtask's latency as a function of its path's `λ`:
/// `clamp(ê + √(k/(p0 + λ)), lo, hi)` — the allocation kernel's formula —
/// or `hi` while `p0 + λ ≤ 0`. Public only as the element of the reusable
/// buffer [`TaskPlan::clear_lambdas`] takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathTerm {
    /// The correction `ê_s`.
    pub(crate) e: f64,
    /// `μ_r⁺·m_s`.
    pub(crate) k: f64,
    /// The latency box.
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    /// The pressure without this path's λ.
    pub(crate) p0: f64,
}

impl PathTerm {
    /// `(latency, ∂latency/∂λ)` at `lambda`.
    #[inline]
    fn latency(&self, lambda: f64) -> (f64, f64) {
        let p = self.p0 + lambda;
        if p <= 0.0 {
            return (self.hi, 0.0);
        }
        let lat = self.e + (self.k / p).sqrt();
        if lat >= self.hi {
            (self.hi, 0.0)
        } else if lat <= self.lo {
            (self.lo, 0.0)
        } else {
            (lat, -0.5 * (lat - self.e) / p)
        }
    }

    /// The λ from which the term sits at `lo`.
    fn floor_from(&self) -> f64 {
        if self.k > 0.0 {
            let gap = self.lo - self.e;
            self.k / (gap * gap) - self.p0
        } else {
            -self.p0
        }
    }
}

/// The `λ_p ≥ 0` at which `Σ latency = ct`: 0 when the path meets `ct`
/// at `λ_p = 0`, and `prev` doubled when it misses `ct` with every
/// subtask at its floor. A safeguarded Newton iteration inside a bracket
/// whose right end puts every subtask at its floor; it starts from
/// `prev` when `prev` lies inside.
pub(crate) fn clear_path(terms: &[PathTerm], ct: f64, prev: f64) -> f64 {
    let eval = |lambda: f64| {
        let (lat, slope) = terms.iter().fold((0.0, 0.0), |(l, d), t| {
            let (lt, dt) = t.latency(lambda);
            (l + lt, d + dt)
        });
        (lat - ct, slope)
    };
    let (g0, d0) = eval(0.0);
    if g0 <= 0.0 {
        return 0.0;
    }
    if terms.iter().map(|t| t.lo).sum::<f64>() > ct {
        return grow(prev);
    }
    let mut right = terms.iter().map(PathTerm::floor_from).fold(0.0, f64::max);
    // Rounding at the floor can leave the path a hair late there.
    for _ in 0..64 {
        if eval(right).0 <= 0.0 {
            break;
        }
        right = 2.0 * right + f64::MIN_POSITIVE;
    }
    let mut left = 0.0;
    let (mut x, (mut g, mut d)) =
        if prev > left && prev < right { (prev, eval(prev)) } else { (0.0, (g0, d0)) };
    for _ in 0..PATH_MAX_ITERS {
        if g.abs() <= PATH_TOL * ct {
            break;
        }
        if g > 0.0 {
            left = x;
        } else {
            right = x;
        }
        let newton = x - g / d;
        let next =
            if d < 0.0 && newton > left && newton < right { newton } else { 0.5 * (left + right) };
        if next == x {
            break;
        }
        x = next;
        (g, d) = eval(x);
    }
    x
}

impl SubtaskCols<'_> {
    /// The new λ of one path, whose subtasks (indices into these columns)
    /// are `path`: cleared from `old` against `ct` at resource prices
    /// `mus`, after which it replaces `old` in the path's `pressure`
    /// entries. `terms` is a reusable buffer.
    fn clear_path_lambda(
        &self,
        path: &[u32],
        mus: &[f64],
        ct: f64,
        old: f64,
        pressure: &mut [f64],
        terms: &mut Vec<PathTerm>,
    ) -> f64 {
        terms.clear();
        for &s in path {
            let s = s as usize;
            terms.push(PathTerm {
                e: self.correction[s],
                k: mus[self.sub_res[s] as usize].max(0.0) * self.demand[s],
                lo: self.lo[s],
                hi: self.hi[s],
                p0: pressure[s] - old,
            });
        }
        let new = clear_path(terms, ct, old);
        if new != old {
            for &s in path {
                pressure[s as usize] = (pressure[s as usize] - old) + new;
            }
        }
        new
    }
}

impl PlanScratch {
    /// The sweep's pressures, from [`Plan::clear_resources`] until the
    /// task pass re-allocates a task over them.
    pub(crate) fn pressure(&self) -> &[f64] {
        &self.lambda
    }
}

impl Plan {
    /// The first half of a market-clearing round: the sweep's pressures,
    /// then the μ block over every resource (only those with `owned[r]`,
    /// when a mask is given), each clearing its own usage against `B_r`.
    /// [`clear_paths_and_allocate`](Self::clear_paths_and_allocate) is the
    /// second half.
    pub(crate) fn clear_resources(
        &self,
        prices: &mut PriceState,
        scratch: &mut PlanScratch,
        owned: Option<&[bool]>,
    ) {
        prices.reset_step_tracking();
        self.sweep_pressures(prices, scratch);
        let PlanScratch { lambda: pressure, terms, breakpoints, .. } = scratch;
        for r in 0..self.num_resources() {
            if owned.is_some_and(|owned| !owned[r]) {
                continue;
            }
            terms.clear();
            self.push_terms(r, pressure, terms);
            let mu = clear_resource(terms, breakpoints, self.availability[r], prices.mu(r));
            prices.clear_mu(r, mu);
        }
    }

    /// The sweep's pressures into `scratch.lambda` (the allocation's
    /// λ-sum buffer): `−w_s·f′` (a concave task's at the aggregate of
    /// `scratch.prev`) plus every λ of the paths through the subtask.
    fn sweep_pressures(&self, prices: &PriceState, scratch: &mut PlanScratch) {
        let PlanScratch { prev, lambda: pressure, .. } = scratch;
        pressure.copy_from_slice(&self.neg_wf);
        for &t in &self.concave {
            let range = self.task_range(t as usize);
            let a = dot(&prev[range.clone()], &self.weight[range.clone()]);
            let fprime = self.utility[t as usize].derivative(a);
            for s in range {
                pressure[s] = -self.weight[s] * fprime;
            }
        }
        for (pp, &lp) in prices.flat_lambdas().iter().enumerate() {
            if lp != 0.0 {
                for &s in self.path_subtasks(pp) {
                    pressure[s as usize] += lp;
                }
            }
        }
    }

    /// Appends the share terms of this plan's subtasks on resource `r`,
    /// in plan order.
    pub(crate) fn push_terms(&self, r: usize, pressure: &[f64], terms: &mut Vec<ShareTerm>) {
        for &s in &self.res_subs[self.res_off[r] as usize..self.res_off[r + 1] as usize] {
            let s = s as usize;
            let m = self.demand[s];
            let (lo, hi) = share_bounds(m, self.correction[s], self.lo[s], self.hi[s]);
            terms.push(ShareTerm::new(m, pressure[s], lo, hi));
        }
    }

    /// The second half of a market-clearing round, one pass over the
    /// tasks in plan order at the μ the first half (and, for a shard, the
    /// coordinator) set. Per task: the λ block (each path, in path order,
    /// clears its latency against `C_i`, and its new λ enters the
    /// pressures the task's next path sees), the allocation at the new
    /// prices, and the measurement: its shares added to `scratch.usage`,
    /// its path latencies into `scratch.path_lat` and its utility into
    /// the returned `Σ_i U_i`.
    ///
    /// A linear task whose λs are all `+0.0` is allocated first, with no
    /// λ-sum, and its paths are screened by summing that allocation in
    /// path order. At `λ = 0` each term of a path's λ solve is the
    /// allocation's latency, so a path that meets `C_i` there keeps `λ = 0`
    /// (`clear_path`'s first test), and a task none of whose paths is late
    /// keeps its prices and its allocation. From the first late path on,
    /// and for a task that holds a price or is concave, the paths take the
    /// λ solve and the task is re-allocated at its new λs.
    pub(crate) fn clear_paths_and_allocate(
        &self,
        prices: &mut PriceState,
        scratch: &mut PlanScratch,
    ) -> f64 {
        let PlanScratch {
            prev, lats, lambda: pressure, usage, path_lat, path_terms: terms, ..
        } = scratch;
        let all = self.cols(0..self.num_subtasks());
        let mut concave = self.concave.iter().peekable();
        usage.fill(-0.0);
        let mut utility = -0.0;
        for t in 0..self.num_tasks() {
            let (subs, paths) = (self.task_range(t), self.task_path_range(t));
            let linear = concave.next_if(|&&c| c as usize == t).is_none();
            // `+0.0` exactly: the λ solve writes `+0.0` over a `-0.0`.
            let unpriced = prices.flat_lambdas()[paths.clone()].iter().all(|lp| lp.to_bits() == 0);
            // The first path the λ solve visits.
            let late = if linear && unpriced {
                let neg_wf = &self.neg_wf[subs.clone()];
                let out = &mut lats[subs.clone()];
                self.cols(subs.clone()).solve(|s| neg_wf[s], None, prices.mus(), out);
                paths
                    .clone()
                    .find(|&pp| {
                        path_lat[pp] = self.path_latency(pp, lats);
                        path_lat[pp] - self.path_ct[pp] > 0.0
                    })
                    .unwrap_or(paths.end)
            } else {
                paths.start
            };
            if late < paths.end {
                for pp in late..paths.end {
                    let (path, ct) = (self.path_subtasks(pp), self.path_ct[pp]);
                    let old = prices.flat_lambdas()[pp];
                    let new = all.clear_path_lambda(path, prices.mus(), ct, old, pressure, terms);
                    prices.clear_lambda(pp, new);
                }
                let (mus, lambdas) = (prices.mus(), prices.flat_lambdas());
                let (sums, out) = (&mut pressure[subs.clone()], &mut lats[subs.clone()]);
                self.allocate_tasks(t..t + 1, mus, lambdas, prev, sums, out);
                for pp in paths {
                    path_lat[pp] = self.path_latency(pp, lats);
                }
            }
            self.add_usage(subs, lats, usage);
            utility += self.task_utility(t, lats);
        }
        utility
    }

    /// The violations of a round measured by
    /// [`clear_paths_and_allocate`](Self::clear_paths_and_allocate):
    /// `(max_r (usage_r − B_r), max_p (path_latency/C_i − 1))`, over the
    /// resources with `owned[r]` only, when a mask is given.
    pub(crate) fn clearing_violations(
        &self,
        scratch: &PlanScratch,
        owned: Option<&[bool]>,
    ) -> (f64, f64) {
        let usage = &scratch.usage;
        let resource = match owned {
            None => self.max_resource_violation(usage),
            Some(owned) => (0..usage.len())
                .filter(|&r| owned[r])
                .map(|r| usage[r] - self.availability[r])
                .fold(f64::NEG_INFINITY, f64::max),
        };
        (resource, self.max_path_violation(&scratch.path_lat))
    }
}

impl TaskPlan {
    /// The market-clearing pressures `P_s = −w_s·f′ + Σ_{p∋s} λ_p` of the
    /// task's subtasks into `pressure`, rebuilt the way
    /// `Plan::sweep_pressures` builds them: a concave task's `f′` at the
    /// aggregate of `previous`, then each nonzero λ of row `t` added in
    /// path order. These are what a controller reports with its
    /// latencies, so that the resource agents can clear their μ.
    pub fn pressures_into(
        &self,
        t: usize,
        prices: &PriceState,
        previous: &[f64],
        pressure: &mut [f64],
    ) {
        let fprime = match self.utility {
            UtilityFn::Linear { .. } => self.utility.derivative(0.0),
            _ => self.utility.derivative(dot(previous, &self.weight)),
        };
        for (p, &w) in pressure.iter_mut().zip(&self.weight) {
            *p = -w * fprime;
        }
        for (p, &lp) in prices.lambdas(t).iter().enumerate() {
            if lp != 0.0 {
                for &s in self.path(p) {
                    pressure[s as usize] += lp;
                }
            }
        }
    }

    /// The λ block of the market-clearing sweep for this task (row `t` of
    /// `prices`): each path, in path order, clears its latency against
    /// `C_i` at the μ held in `prices`, and its new λ enters the pressures
    /// the next path sees — the λ block of `Plan::clear_paths_and_allocate`
    /// over one task, with no screen. Starts
    /// from [`pressures_into`](Self::pressures_into) at `previous`;
    /// `pressure` is left holding the block's last pressures and `terms`
    /// is a reusable buffer.
    pub fn clear_lambdas(
        &self,
        t: usize,
        prices: &mut PriceState,
        previous: &[f64],
        pressure: &mut [f64],
        terms: &mut Vec<PathTerm>,
    ) {
        self.pressures_into(t, prices, previous, pressure);
        let cols = self.cols();
        for p in 0..self.num_paths() {
            let old = prices.lambda(t, p);
            let ct = self.critical_time;
            let new = cols.clear_path_lambda(self.path(p), prices.mus(), ct, old, pressure, terms);
            prices.set_lambda(t, p, new);
        }
    }
}

/// A single-resource lowering for a distributed resource agent: the μ
/// block of the market-clearing sweep over the subtasks one resource
/// hosts, the resource-side counterpart of [`TaskPlan`]. It holds each
/// hosted subtask's demand and share bounds in [`Problem::subtasks_on`]
/// order (O(hosted subtasks), lowered by the code of
/// [`clamping_box`](crate::clamping_box)), plus the solve's reusable
/// breakpoint buffer.
#[derive(Debug, Clone)]
pub struct ResourcePlan {
    availability: f64,
    demand: Vec<f64>,
    /// One term per hosted subtask: the share bounds are lowered, the
    /// slope is rewritten from the pressures on every solve.
    terms: Vec<ShareTerm>,
    breakpoints: Vec<(f64, f64)>,
}

impl ResourcePlan {
    /// Lowers the subtasks `problem` hosts on resource `r`.
    pub fn lower(problem: &Problem, r: ResourceId, settings: &AllocationSettings) -> ResourcePlan {
        let hosted = problem.subtasks_on(r);
        let mut demand = Vec::with_capacity(hosted.len());
        let mut terms = Vec::with_capacity(hosted.len());
        for &sid in hosted {
            let model = problem.share_model(sid);
            let task = problem.task(sid.task());
            let (lo, cap) = subtask_box(problem, task, sid.index(), model, settings);
            let m = model.demand();
            let (at_cap, at_floor) = share_bounds(m, model.correction(), lo, cap.max(lo));
            demand.push(m);
            terms.push(ShareTerm { a: 0.0, lo: at_cap, hi: at_floor });
        }
        ResourcePlan {
            availability: problem.resource(r).availability(),
            demand,
            terms,
            breakpoints: Vec::new(),
        }
    }

    /// The `μ_r` at which the hosted subtasks' usage meets `B_r`, at
    /// `pressure` (one per hosted subtask, in lowering order), by the
    /// breakpoint walk of `Plan::clear_resources`: 0 when the usage at
    /// the latency floors fits, `prev` doubled when the usage at the caps
    /// does not.
    pub fn clear_mu(&mut self, pressure: &[f64], prev: f64) -> f64 {
        debug_assert_eq!(pressure.len(), self.demand.len(), "one pressure per hosted subtask");
        for ((term, &m), &p) in self.terms.iter_mut().zip(&self.demand).zip(pressure) {
            *term = ShareTerm::new(m, p, term.lo, term.hi);
        }
        clear_resource(&self.terms, &mut self.breakpoints, self.availability, prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic generator for the random terms.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.next()
        }
    }

    /// The root of a nondecreasing (or, with `rising = false`,
    /// nonincreasing) `f` on `[lo, hi]` by plain bisection.
    fn bisect(f: impl Fn(f64) -> f64, mut lo: f64, mut hi: f64, rising: bool) -> f64 {
        for _ in 0..400 {
            let mid = 0.5 * (lo + hi);
            if (f(mid) < 0.0) == rising {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    fn usage(terms: &[ShareTerm], x: f64) -> f64 {
        terms.iter().map(|t| if t.a > 0.0 { (t.a * x).clamp(t.lo, t.hi) } else { t.lo }).sum()
    }

    #[test]
    fn mu_solve_matches_bisection_on_random_terms() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let mut breakpoints = Vec::new();
        let (mut solved, mut free, mut grown) = (0, 0, 0);
        for case in 0..2_000 {
            let n = 1 + (rng.next() * 12.0) as usize;
            let terms: Vec<ShareTerm> = (0..n)
                .map(|_| {
                    let lo = rng.range(0.001, 0.2);
                    let a = if rng.next() < 0.1 { 0.0 } else { rng.range(0.01, 5.0) };
                    ShareTerm { a, lo, hi: lo + rng.range(0.0, 0.8) }
                })
                .collect();
            let b = rng.range(0.0, 0.6 * n as f64);
            let mu = clear_resource(&terms, &mut breakpoints, b, 3.0);
            let (least, most) = (usage(&terms, 0.0), usage(&terms, f64::INFINITY));
            if most <= b {
                assert_eq!(mu, 0.0, "case {case}: the lower edge fits");
                free += 1;
            } else if least >= b {
                assert_eq!(mu, 6.0, "case {case}: an overloaded resource doubles its price");
                grown += 1;
            } else {
                let top =
                    terms.iter().filter(|t| t.a > 0.0).map(|t| t.hi / t.a).fold(0.0, f64::max);
                let x = bisect(|x| usage(&terms, x) - b, 0.0, top, true);
                let want = 1.0 / (x * x);
                assert!(
                    (mu - want).abs() <= 1e-9 * want,
                    "case {case}: μ {mu} vs bisection {want}"
                );
                let cleared = usage(&terms, 1.0 / mu.sqrt());
                assert!((cleared - b).abs() <= 1e-12 * b.max(1.0), "case {case}: {cleared} vs {b}");
                solved += 1;
            }
        }
        assert!(solved > 500 && free > 50 && grown > 50, "{solved} {free} {grown}");
    }

    fn path_latency(terms: &[PathTerm], lambda: f64) -> f64 {
        terms.iter().map(|t| t.latency(lambda).0).sum()
    }

    #[test]
    fn lambda_solve_matches_bisection_on_random_terms() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut solved, mut free, mut grown) = (0, 0, 0);
        for case in 0..2_000 {
            let n = 1 + (rng.next() * 6.0) as usize;
            let terms: Vec<PathTerm> = (0..n)
                .map(|_| {
                    let e = rng.range(-0.5, 0.5);
                    let lo = e + rng.range(0.5, 5.0);
                    let k = if rng.next() < 0.05 { 0.0 } else { rng.range(0.01, 400.0) };
                    PathTerm { e, k, lo, hi: lo + rng.range(0.0, 60.0), p0: rng.range(0.05, 3.0) }
                })
                .collect();
            let ct = rng.range(0.5, 1.2) * path_latency(&terms, 0.0);
            let prev = if rng.next() < 0.5 { 0.0 } else { rng.range(0.0, 50.0) };
            let lambda = clear_path(&terms, ct, prev);
            let floor: f64 = terms.iter().map(|t| t.lo).sum();
            if path_latency(&terms, 0.0) <= ct {
                assert_eq!(lambda, 0.0, "case {case}: a path on time keeps no price");
                free += 1;
            } else if floor > ct {
                assert_eq!(lambda, (2.0 * prev).max(PRICE_SEED), "case {case}");
                grown += 1;
            } else {
                let top = terms.iter().map(PathTerm::floor_from).fold(0.0, f64::max);
                let want = bisect(|l| path_latency(&terms, l) - ct, 0.0, top, false);
                let got = path_latency(&terms, lambda);
                assert!((got - ct).abs() <= 1e-10 * ct, "case {case}: latency {got} vs {ct}");
                // Where the latency is flat in λ any λ on the flat clears
                // it; elsewhere the roots agree.
                let at = path_latency(&terms, want);
                assert!((at - ct).abs() <= 1e-9 * ct, "case {case}: bisection missed");
                if terms.iter().all(|t| t.latency(want).1 < 0.0) {
                    assert!((lambda - want).abs() <= 1e-7 * want.max(1.0), "{lambda} vs {want}");
                }
                solved += 1;
            }
        }
        assert!(solved > 500 && free > 50 && grown > 20, "{solved} {free} {grown}");
    }

    #[test]
    fn unclearable_prices_stay_finite() {
        let mut price = 0.0;
        for _ in 0..5_000 {
            price = grow(price);
        }
        assert_eq!(price, PRICE_CAP);
    }
}
