//! The Lagrangian (Eq. 5), the dual function (Eq. 6), and KKT diagnostics.
//!
//! These are not needed to *run* LLA — the optimizer only needs the
//! allocation and price steps — but they are the mathematical backbone of
//! the algorithm's correctness, and this module exposes them so tests (and
//! users) can verify that a converged allocation is actually optimal:
//! stationarity residuals vanish, complementary slackness holds, and the
//! duality gap closes.

use crate::allocation::{allocate_latencies, clamping_box, AllocationSettings};
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
    /// The allocation achieving it.
    pub maximizer: Vec<Vec<f64>>,
}

/// Computes the dual function at the given prices.
///
/// By weak duality, `D(μ, λ) ≥ Σ U_i` for every *feasible* allocation; the
/// gap closes at the optimum. This is the quantity the price-update step
/// descends.
///
/// When the problem carries the plan its [`Optimizer`](crate::Optimizer)
/// memoised, lowered with `settings` and shaped like `prices`, the value is
/// computed on that plan (bit-identical, without the nested walk);
/// otherwise — e.g. for a problem driven by a
/// [`ShardedOptimizer`](crate::ShardedOptimizer) — by the naive walk.
/// This function never lowers or memoises a plan itself.
pub fn dual_value(
    problem: &Problem,
    prices: &PriceState,
    settings: &AllocationSettings,
) -> DualReport {
    if let Some(plan) = problem.plan().filter(|p| p.settings() == settings && p.fits(prices)) {
        let (value, maximizer) = plan.dual(prices);
        return DualReport { value, maximizer };
    }
    let start = problem.initial_allocation();
    let maximizer = allocate_latencies(problem, prices, settings, &start);
    let value = lagrangian_value(problem, &maximizer, prices);
    DualReport { value, maximizer }
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
        let settings = AllocationSettings { throughput_floor: false, ..Default::default() };
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
        let settings = AllocationSettings { throughput_floor: false, ..Default::default() };
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 20.0);
        prices.set_mu(1, 20.0);
        let dual = dual_value(&p, &prices, &settings);
        let base = lagrangian_value(&p, &dual.maximizer, &prices);
        for (t, s) in [(0usize, 0usize), (0, 1)] {
            for delta in [-0.5, 0.5] {
                let mut perturbed = dual.maximizer.clone();
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
        let settings = AllocationSettings { throughput_floor: false, ..Default::default() };
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 30.0);
        prices.set_mu(1, 30.0);
        let dual = dual_value(&p, &prices, &settings);
        let report = kkt_report(&p, &dual.maximizer, &prices, &settings, 1e-9);
        assert!(
            report.max_stationarity_residual < 1e-8,
            "allocator output must satisfy stationarity, got {}",
            report.max_stationarity_residual
        );
    }
}
