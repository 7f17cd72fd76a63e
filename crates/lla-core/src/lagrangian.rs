//! The Lagrangian (Eq. 5), the dual function (Eq. 6), and KKT diagnostics.
//!
//! These are not needed to *run* LLA — the optimizer only needs the
//! allocation and price steps — but they are the mathematical backbone of
//! the algorithm's correctness, and this module exposes them so tests (and
//! users) can verify that a converged allocation is actually optimal:
//! stationarity residuals vanish, complementary slackness holds, and the
//! duality gap closes.

use crate::allocation::{allocate_task_capped, clamping_box, AllocationSettings};
use crate::plan::PathPrices;
use crate::prices::PriceState;
use crate::problem::Problem;

/// Evaluates the Lagrangian (Eq. 5) at the given primal/dual point:
///
/// ```text
/// L = Σ_i U_i − Σ_r μ_r(Σ_{s∈S_r} share − B_r) − Σ_p λ_p(Σ_{s∈p} lat_s − C_i)
/// ```
pub fn lagrangian_value(problem: &Problem, lats: &[Vec<f64>], prices: &PriceState) -> f64 {
    let mut value = problem.total_utility(lats);
    for r in problem.resources() {
        let usage = problem.resource_usage(r.id(), lats);
        value -= prices.mu(r.id().index()) * (usage - r.availability());
    }
    for task in problem.tasks() {
        let t = task.id().index();
        let tl = &lats[t];
        for (p, path) in task.graph().paths().iter().enumerate() {
            value -= prices.lambda(t, p) * (path.latency(tl) - task.critical_time());
        }
    }
    value
}

/// The dual function `D(μ, λ) = max_lat L(lat, μ, λ)` (Eq. 6), evaluated by
/// running the latency-allocation step, together with the maximizing
/// allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DualReport {
    /// The dual value `D(μ, λ)`.
    pub value: f64,
    /// How many concave tasks' damped fixed points stopped at their
    /// iteration cap instead of their tolerance. On such a task the
    /// maximiser is not exact, so `value` may fall short of `D`.
    pub capped_fixed_points: usize,
    /// The maximising latencies, flat in (task, subtask) order.
    lats: Vec<f64>,
    /// Task `t`'s latencies are `lats[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<usize>,
}

impl DualReport {
    /// The allocation achieving the value, as one row per task (built
    /// from the flat buffer on each call).
    pub fn maximizer(&self) -> Vec<Vec<f64>> {
        self.offsets.windows(2).map(|w| self.lats[w[0]..w[1]].to_vec()).collect()
    }
}

/// Computes the dual function at the given prices.
///
/// By weak duality, `D(μ, λ) ≥ Σ U_i` for every *feasible* allocation; the
/// gap closes at the optimum. This is the quantity the price-update step
/// descends.
///
/// When the problem carries the plans its driver memoised — an
/// [`Optimizer`](crate::Optimizer)'s full plan or a
/// [`ShardedOptimizer`](crate::ShardedOptimizer)'s shard plans — lowered
/// with `settings`, and `prices` has the problem's shape, the value is
/// computed on those plans: bit-identical to the nested walk, with a
/// constant number of allocations at any problem size. Otherwise (e.g. for
/// a `DistributedLla`'s problems, which carry none) it walks the nested
/// problem. This function never lowers or memoises a plan itself.
pub fn dual_value(
    problem: &Problem,
    prices: &PriceState,
    settings: &AllocationSettings,
) -> DualReport {
    let shaped = prices.mus().len() == problem.resources().len();
    if let Some(memo) = problem.memo().filter(|m| shaped && m.settings() == settings) {
        let (mut lats, mut offsets) = (Vec::new(), Vec::new());
        let maximizer = Some((&mut lats, &mut offsets));
        let global = PathPrices::Global(prices);
        if let Some((value, capped)) = memo.dual(problem, |r| prices.mu(r), global, maximizer) {
            return DualReport { value, capped_fixed_points: capped, lats, offsets };
        }
    }
    let start = problem.initial_allocation();
    let mut capped_fixed_points = 0;
    let maximizer: Vec<Vec<f64>> = problem
        .tasks()
        .iter()
        .map(|task| {
            let t = task.id().index();
            let (lats, capped) = allocate_task_capped(problem, task, prices, settings, &start[t]);
            capped_fixed_points += usize::from(capped);
            lats
        })
        .collect();
    let value = lagrangian_value(problem, &maximizer, prices);
    let mut offsets = Vec::with_capacity(maximizer.len() + 1);
    offsets.push(0);
    for row in &maximizer {
        offsets.push(offsets[offsets.len() - 1] + row.len());
    }
    DualReport { value, capped_fixed_points, lats: maximizer.concat(), offsets }
}

/// KKT optimality diagnostics at a primal/dual point.
///
/// At an exact optimum all four residuals are zero (stationarity is only
/// required for latencies strictly inside their clamping box).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KktReport {
    /// `max_s |w_s f'(A) − Σλ_p − μ_r ∂share/∂lat|` over interior subtasks.
    pub max_stationarity_residual: f64,
    /// `max_r (usage_r − B_r)`, clamped below at 0.
    pub max_resource_violation: f64,
    /// `max_p (path_latency/C_i − 1)`, clamped below at 0.
    pub max_path_violation: f64,
    /// `max` over constraints of `|multiplier · slack|` (complementary
    /// slackness).
    pub max_complementary_slackness: f64,
}

impl KktReport {
    /// Whether all residuals are below `tol`.
    pub fn is_optimal(&self, tol: f64) -> bool {
        self.max_stationarity_residual <= tol
            && self.max_resource_violation <= tol
            && self.max_path_violation <= tol
            && self.max_complementary_slackness <= tol
    }
}

/// Computes KKT residuals for the allocation `lats` at prices `prices`.
///
/// Subtasks whose latency sits on (or within `boundary_tol` of) its
/// clamping box are excluded from the stationarity residual: at a clamp the
/// gradient need not vanish.
pub fn kkt_report(
    problem: &Problem,
    lats: &[Vec<f64>],
    prices: &PriceState,
    settings: &AllocationSettings,
    boundary_tol: f64,
) -> KktReport {
    // One pass per task covers both the Σλ accumulation and the per-path
    // complementary slackness (`max` accumulation is order-independent, so
    // folding paths here matches a separate walk).
    let mut stat = 0.0f64;
    let mut comp = 0.0f64;
    for task in problem.tasks() {
        let t = task.id().index();
        let tl = &lats[t];
        let a = task.aggregate_latency(tl);
        let fprime = task.utility_fn().derivative(a);
        let (lo, hi) = clamping_box(problem, task, settings);

        let mut lambda_sum = vec![0.0; task.len()];
        for (p, path) in task.graph().paths().iter().enumerate() {
            let lp = prices.lambda(t, p);
            for &s in path.subtasks() {
                lambda_sum[s] += lp;
            }
            let slack = 1.0 - path.latency(tl) / task.critical_time();
            comp = comp.max((lp * slack).abs());
        }

        for s in 0..task.len() {
            let lat = tl[s];
            if lat - lo[s] <= boundary_tol || hi[s] - lat <= boundary_tol {
                continue;
            }
            let model = problem.share_model(task.subtask_id(s));
            let mu = prices.mu(task.subtasks()[s].resource().index());
            let residual = task.weights()[s] * fprime - lambda_sum[s] - mu * model.dshare_dlat(lat);
            stat = stat.max(residual.abs());
        }
    }

    for r in problem.resources() {
        let slack = r.availability() - problem.resource_usage(r.id(), lats);
        comp = comp.max((prices.mu(r.id().index()) * slack).abs());
    }

    KktReport {
        max_stationarity_residual: stat,
        max_resource_violation: problem.max_resource_violation(lats).max(0.0),
        max_path_violation: problem.max_path_violation(lats).max(0.0),
        max_complementary_slackness: comp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ResourceId, TaskId};
    use crate::prices::StepSizePolicy;
    use crate::resource::{Resource, ResourceKind};
    use crate::task::TaskBuilder;

    fn problem() -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut b = TaskBuilder::new("t");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let c = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, c).unwrap();
        b.critical_time(30.0);
        Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap()
    }

    #[test]
    fn lagrangian_equals_utility_at_zero_prices() {
        let p = problem();
        let prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        let lats = vec![vec![10.0, 10.0]];
        assert!((lagrangian_value(&p, &lats, &prices) - p.total_utility(&lats)).abs() < 1e-12);
    }

    #[test]
    fn lagrangian_penalizes_congestion_with_positive_prices() {
        let p = problem();
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 5.0);
        // Congested allocation: share for subtask 0 = 3/2 > B = 1.
        let tight = vec![vec![2.0, 10.0]];
        let relaxed = vec![vec![10.0, 10.0]];
        let l_tight = lagrangian_value(&p, &tight, &prices);
        let u_tight = p.total_utility(&tight);
        // With share > B on resource 0 the penalty term is negative.
        assert!(l_tight < u_tight);
        let l_rel = lagrangian_value(&p, &relaxed, &prices);
        let u_rel = p.total_utility(&relaxed);
        // With slack the penalty is a bonus (mu * positive slack).
        assert!(l_rel > u_rel);
    }

    #[test]
    fn dual_dominates_feasible_primal() {
        // Weak duality: D(mu, lambda) >= utility of any feasible allocation.
        let p = problem();
        let settings = AllocationSettings { throughput_floor: false };
        let feasible = vec![vec![12.0, 12.0]]; // usage ~ 0.25+0.33, paths 24 < 30
        assert!(p.is_feasible(&feasible, 1e-9));
        let primal = p.total_utility(&feasible);
        for mu in [0.0, 1.0, 10.0, 100.0] {
            let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
            prices.set_mu(0, mu);
            prices.set_mu(1, mu * 0.5);
            let dual = dual_value(&p, &prices, &settings);
            assert!(
                dual.value >= primal - 1e-9,
                "weak duality violated at mu={mu}: {} < {primal}",
                dual.value
            );
        }
    }

    #[test]
    fn dual_maximizer_maximizes_lagrangian() {
        // Perturbing the maximizer must not increase the Lagrangian.
        let p = problem();
        let settings = AllocationSettings { throughput_floor: false };
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 20.0);
        prices.set_mu(1, 20.0);
        let dual = dual_value(&p, &prices, &settings);
        let maximizer = dual.maximizer();
        let base = lagrangian_value(&p, &maximizer, &prices);
        for (t, s) in [(0usize, 0usize), (0, 1)] {
            for delta in [-0.5, 0.5] {
                let mut perturbed = maximizer.clone();
                perturbed[t][s] = (perturbed[t][s] + delta).max(0.1);
                let lv = lagrangian_value(&p, &perturbed, &prices);
                assert!(lv <= base + 1e-9, "perturbation increased L: {lv} > {base}");
            }
        }
    }

    #[test]
    fn kkt_flags_infeasible_allocation() {
        let p = problem();
        let prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        let settings = AllocationSettings::default();
        let bad = vec![vec![20.0, 20.0]]; // path 40 > 30
        let report = kkt_report(&p, &bad, &prices, &settings, 1e-9);
        assert!(report.max_path_violation > 0.0);
        assert!(!report.is_optimal(1e-6));
    }

    #[test]
    fn kkt_stationarity_zero_at_allocator_output() {
        let p = problem();
        let settings = AllocationSettings { throughput_floor: false };
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 30.0);
        prices.set_mu(1, 30.0);
        let dual = dual_value(&p, &prices, &settings);
        let report = kkt_report(&p, &dual.maximizer(), &prices, &settings, 1e-9);
        assert!(
            report.max_stationarity_residual < 1e-8,
            "allocator output must satisfy stationarity, got {}",
            report.max_stationarity_residual
        );
    }
}
