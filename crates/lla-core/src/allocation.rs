//! Latency allocation: the per-task-controller half of an LLA iteration
//! (§4.2).
//!
//! Given resource prices `μ_r` and path prices `λ_p`, each task controller
//! maximizes the Lagrangian over its own subtask latencies by solving the
//! stationarity condition (Eq. 7)
//!
//! ```text
//! 0 = ∂U_i/∂lat_s − Σ_{p∋s} λ_p − μ_r · ∂share_r(s, lat_s)/∂lat_s
//! ```
//!
//! With `U_i = f_i(A)` for the aggregate `A = Σ_s w_s·lat_s` and the share
//! model of Eq. 10 this yields the closed form
//! `lat_s = ê_s + sqrt(μ_r·(c_s+l_r) / (−w_s·f'(A) + Σ_{p∋s} λ_p))`.
//!
//! For the paper's linear utilities `f'` is constant and the solve is a
//! single pass. For general concave utilities `A` couples the subtasks of a
//! task, and we run a damped fixed-point iteration on `A`; concavity makes
//! `−f'(A)` non-decreasing in `A`, which keeps the iteration stable. The
//! iteration is fixed: damping `DAMPING` = 0.5 (`A ← (A + A_new)/2`),
//! stopping once a step moves `A` by at most `FIXED_POINT_TOL` = 1e-10
//! relative, or after `FIXED_POINT_MAX_ITERS` = 60 steps. The compiled
//! kernels in `plan.rs` run the same iteration with the same constants.
//!
//! Latencies are clamped to a box `[lat_lo, lat_hi]`:
//!
//! * `lat_lo` keeps any single subtask's share within the resource
//!   availability `B_r`;
//! * `lat_hi` is the tightest of the task's critical time, the subtask's
//!   explicit cap, and (optionally) the *throughput floor* — the latency at
//!   which the share equals `rate · WCET`, below which jobs would queue
//!   unboundedly (§6.2).

use crate::prices::PriceState;
use crate::problem::Problem;
use crate::share::ShareModel;
use crate::task::Task;
use crate::utility::UtilityFn;
use serde::{Deserialize, Serialize};

/// Relative convergence tolerance of the fixed-point iteration on the
/// aggregate latency.
pub(crate) const FIXED_POINT_TOL: f64 = 1e-10;

/// Maximum fixed-point iterations for non-linear utilities.
pub(crate) const FIXED_POINT_MAX_ITERS: usize = 60;

/// Damping factor of the fixed point: `A ← (1−d)·A + d·A_new`.
pub(crate) const DAMPING: f64 = 0.5;

/// Settings of the latency-allocation solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationSettings {
    /// Enforce `share ≥ rate · WCET` via a latency upper clamp.
    pub throughput_floor: bool,
}

impl Default for AllocationSettings {
    fn default() -> Self {
        AllocationSettings { throughput_floor: true }
    }
}

/// Computes new latencies for every subtask of every task, given the
/// current prices — one latency-allocation step of LLA across all task
/// controllers.
///
/// `previous` warm-starts the aggregate for non-linear utilities and must
/// have the problem's shape (`previous[t].len() == tasks[t].len()`).
///
/// # Panics
///
/// Panics if `previous` does not match the problem's shape.
pub fn allocate_latencies(
    problem: &Problem,
    prices: &PriceState,
    settings: &AllocationSettings,
    previous: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    assert_eq!(previous.len(), problem.tasks().len(), "allocation shape mismatch");
    problem
        .tasks()
        .iter()
        .map(|t| allocate_task(problem, t, prices, settings, &previous[t.id().index()]))
        .collect()
}

/// The per-subtask latency bounds `[lat_lo, lat_hi]` the allocator clamps
/// to for one task.
///
/// `lat_lo` bounds a subtask's share by the availability of its resource;
/// `lat_hi` is the tightest of the critical time, the explicit per-subtask
/// cap, and the throughput floor (when enabled). An infeasible box
/// (`lo > hi`) collapses to `hi = lo`: the share bound wins and the price
/// dynamics surface the congestion.
pub fn clamping_box(
    problem: &Problem,
    task: &Task,
    settings: &AllocationSettings,
) -> (Vec<f64>, Vec<f64>) {
    (0..task.len())
        .map(|s| {
            let (lo, cap) =
                subtask_box(problem, task, s, problem.share_model(task.subtask_id(s)), settings);
            (lo, cap.max(lo))
        })
        .unzip()
}

/// Subtask `s`'s `(lat_lo, cap)` of [`clamping_box`] given its share
/// `model`, before an empty box (`cap < lat_lo`) collapses to `lat_lo`.
pub(crate) fn subtask_box(
    problem: &Problem,
    task: &Task,
    s: usize,
    model: &ShareModel,
    settings: &AllocationSettings,
) -> (f64, f64) {
    let sub = &task.subtasks()[s];
    let b_r = problem.resource(sub.resource()).availability().max(1e-9);
    let lo = model.min_latency(b_r).max(f64::MIN_POSITIVE);
    let mut cap = task.critical_time();
    if let Some(c) = sub.max_latency() {
        cap = cap.min(c);
    }
    if settings.throughput_floor {
        let min_share = task.trigger().mean_rate() * sub.exec_time();
        if min_share > 0.0 {
            cap = cap.min(model.min_latency(min_share));
        }
    }
    (lo, cap)
}

/// Latency allocation for a single task controller (Algorithm "Latency
/// Allocation" in §4.2).
///
/// # Panics
///
/// Panics if `previous.len()` differs from the task's subtask count.
pub fn allocate_task(
    problem: &Problem,
    task: &Task,
    prices: &PriceState,
    settings: &AllocationSettings,
    previous: &[f64],
) -> Vec<f64> {
    allocate_task_capped(problem, task, prices, settings, previous).0
}

/// [`allocate_task`], and whether a concave task's fixed point stopped at
/// `FIXED_POINT_MAX_ITERS` instead of on its tolerance.
pub(crate) fn allocate_task_capped(
    problem: &Problem,
    task: &Task,
    prices: &PriceState,
    settings: &AllocationSettings,
    previous: &[f64],
) -> (Vec<f64>, bool) {
    let n = task.len();
    assert_eq!(previous.len(), n, "allocation shape mismatch");
    let t = task.id().index();

    // Σ_{p∋s} λ_p for every subtask: accumulate over the task's paths.
    let mut lambda_sum = vec![0.0; n];
    for (p, path) in task.graph().paths().iter().enumerate() {
        let lp = prices.lambda(t, p);
        if lp != 0.0 {
            for &s in path.subtasks() {
                lambda_sum[s] += lp;
            }
        }
    }

    let (lo, hi) = clamping_box(problem, task, settings);

    let weights = task.weights();
    let solve_pass = |a: f64, out: &mut Vec<f64>| {
        let fprime = task.utility_fn().derivative(a);
        for s in 0..n {
            let sub = &task.subtasks()[s];
            let model = problem.share_model(task.subtask_id(s));
            let mu = prices.mu(sub.resource().index());
            let pressure = -weights[s] * fprime + lambda_sum[s];
            let lat = model.stationary_latency(mu, pressure).unwrap_or(hi[s]).clamp(lo[s], hi[s]);
            out[s] = lat;
        }
    };

    let mut lats = vec![0.0; n];
    if matches!(task.utility_fn(), UtilityFn::Linear { .. }) {
        // f' is constant: a single pass is exact.
        solve_pass(0.0, &mut lats);
        return (lats, false);
    }

    // General concave utility: damped fixed point on the aggregate A.
    let mut a = task.aggregate_latency(previous);
    let mut capped = true;
    for _ in 0..FIXED_POINT_MAX_ITERS {
        solve_pass(a, &mut lats);
        let a_new = task.aggregate_latency(&lats);
        let next = (1.0 - DAMPING) * a + DAMPING * a_new;
        if (next - a).abs() <= FIXED_POINT_TOL * a.abs().max(1.0) {
            a = next;
            capped = false;
            break;
        }
        a = next;
    }
    solve_pass(a, &mut lats);
    (lats, capped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ResourceId, TaskId};
    use crate::prices::StepSizePolicy;
    use crate::resource::{Resource, ResourceKind};
    use crate::task::{TaskBuilder, TriggerSpec};

    fn problem_with(utility: Option<UtilityFn>) -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut b = TaskBuilder::new("t");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let c = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, c).unwrap();
        b.critical_time(40.0);
        if let Some(u) = utility {
            b.utility(u);
        }
        Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap()
    }

    #[test]
    fn linear_utility_closed_form_matches_stationarity() {
        let p = problem_with(None); // f = 2C - lat, f' = -1
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 4.0);
        prices.set_mu(1, 9.0);
        let settings = AllocationSettings { throughput_floor: false };
        let prev = p.initial_allocation();
        let lats = allocate_latencies(&p, &prices, &settings, &prev);
        // d = 1 (w=1, f'=-1, lambda=0): lat_s = sqrt(mu * demand).
        assert!((lats[0][0] - (4.0f64 * 3.0).sqrt()).abs() < 1e-9);
        assert!((lats[0][1] - (9.0f64 * 4.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn zero_prices_push_latency_to_upper_clamp() {
        let p = problem_with(None);
        let prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        let settings = AllocationSettings { throughput_floor: false };
        let prev = p.initial_allocation();
        let lats = allocate_latencies(&p, &prices, &settings, &prev);
        // mu = 0 => stationary latency 0 => clamped to the *lower* bound
        // (share = B_r): with B=1, lo = demand.
        assert!((lats[0][0] - 3.0).abs() < 1e-9);
        assert!((lats[0][1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lambda_pressure_reduces_latency() {
        let p = problem_with(None);
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 100.0);
        let settings = AllocationSettings { throughput_floor: false };
        let prev = p.initial_allocation();
        let base = allocate_latencies(&p, &prices, &settings, &prev)[0][0];
        prices.set_lambda(0, 0, 3.0);
        let pressured = allocate_latencies(&p, &prices, &settings, &prev)[0][0];
        assert!(pressured < base, "path price must push latencies down: {pressured} !< {base}");
        // d goes from 1 to 4 => lat shrinks by factor 2.
        assert!((base / pressured - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_never_exceeds_critical_time() {
        let p = problem_with(None);
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 1e9);
        prices.set_mu(1, 1e9);
        let settings = AllocationSettings { throughput_floor: false };
        let prev = p.initial_allocation();
        let lats = allocate_latencies(&p, &prices, &settings, &prev);
        for &l in &lats[0] {
            assert!(l <= 40.0 + 1e-9);
        }
    }

    #[test]
    fn throughput_floor_caps_latency() {
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(5.0)];
        let mut b = TaskBuilder::new("fast");
        b.subtask("s", ResourceId::new(0), 5.0);
        b.critical_time(1000.0).trigger(TriggerSpec::Periodic { period: 25.0 }); // 40/s
        let p = Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap();
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 1e9); // enormous price => wants huge latency
        let settings = AllocationSettings::default();
        let prev = p.initial_allocation();
        let lats = allocate_latencies(&p, &prices, &settings, &prev);
        // min share = 0.04/ms * 5ms = 0.2 => lat cap = (5+5)/0.2 = 50ms.
        assert!((lats[0][0] - 50.0).abs() < 1e-9);
        let share = p.share_model(p.tasks()[0].subtask_id(0)).share_for_latency(lats[0][0]);
        assert!(share >= 0.2 - 1e-12, "throughput floor share violated");
    }

    #[test]
    fn nonlinear_utility_fixed_point_satisfies_stationarity() {
        let u = UtilityFn::Quadratic { offset: 200.0, lin: 1.0, quad: 0.05 };
        let p = problem_with(Some(u));
        let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        prices.set_mu(0, 50.0);
        prices.set_mu(1, 50.0);
        let settings = AllocationSettings { throughput_floor: false };
        let prev = p.initial_allocation();
        let lats = allocate_latencies(&p, &prices, &settings, &prev);
        let task = &p.tasks()[0];
        let a = task.aggregate_latency(&lats[0]);
        let fprime = task.utility_fn().derivative(a);
        // Check Eq. 7 at the solution for each unclamped subtask.
        for (s, &lat) in lats[0].iter().enumerate() {
            let model = p.share_model(task.subtask_id(s));
            let mu = prices.mu(task.subtasks()[s].resource().index());
            let residual = task.weights()[s] * fprime - 0.0 - mu * model.dshare_dlat(lat);
            assert!(
                residual.abs() < 1e-6,
                "stationarity residual {residual} too large for subtask {s}"
            );
        }
    }

    #[test]
    fn higher_mu_means_higher_latency_lower_share() {
        let p = problem_with(None);
        let settings = AllocationSettings { throughput_floor: false };
        let prev = p.initial_allocation();
        let mut last = 0.0;
        for mu in [1.0, 4.0, 16.0, 64.0] {
            let mut prices = PriceState::new(&p, StepSizePolicy::fixed(1.0));
            prices.set_mu(0, mu);
            let lat = allocate_latencies(&p, &prices, &settings, &prev)[0][0];
            assert!(lat > last, "latency must rise with resource price");
            last = lat;
        }
    }

    /// The premise of the schedulability probe's infeasibility proof:
    /// every allocation that meets the resource and path constraints, the
    /// per-subtask caps and (when enabled) the throughput floor lies inside
    /// [`clamping_box`].
    #[test]
    fn every_feasible_allocation_lies_inside_the_box() {
        use rand::{Rng, SeedableRng};
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::NetworkLink)
                .with_lag(0.5)
                .with_availability(0.8),
        ];
        let mut chain = TaskBuilder::new("chain");
        let a = chain.subtask("a", ResourceId::new(0), 2.0);
        let b = chain.subtask("b", ResourceId::new(1), 3.0);
        chain.edge(a, b).unwrap();
        chain.critical_time(60.0);
        let mut capped = TaskBuilder::new("capped");
        capped.subtask_with_max_latency("s", ResourceId::new(0), 1.0, 30.0);
        capped.critical_time(50.0).trigger(TriggerSpec::Periodic { period: 40.0 });
        let mut fan = TaskBuilder::new("fan");
        let root = fan.subtask("root", ResourceId::new(1), 1.0);
        for (name, r, c) in [("l0", 0, 1.0), ("l1", 1, 2.0)] {
            let leaf = fan.subtask(name, ResourceId::new(r), c);
            fan.edge(root, leaf).unwrap();
        }
        fan.critical_time(80.0).trigger(TriggerSpec::Periodic { period: 25.0 });
        let builders = [chain, capped, fan];
        let tasks = builders.iter().enumerate().map(|(i, b)| b.build(TaskId::new(i)).unwrap());
        let tasks = tasks.collect();
        let p = Problem::new(resources, tasks).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut met = [0usize; 2];
        for _ in 0..20_000 {
            let lats: Vec<Vec<f64>> = p
                .tasks()
                .iter()
                .map(|t| (0..t.len()).map(|_| rng.gen_range(0.0..t.critical_time())).collect())
                .collect();
            if !p.is_feasible(&lats, 0.0) {
                continue;
            }
            for (k, throughput_floor) in [false, true].into_iter().enumerate() {
                let settings = AllocationSettings { throughput_floor };
                let meets = p.tasks().iter().all(|t| {
                    t.subtasks().iter().enumerate().all(|(s, sub)| {
                        let lat = lats[t.id().index()][s];
                        let share = p.share_model(t.subtask_id(s)).share_for_latency(lat);
                        sub.max_latency().is_none_or(|cap| lat <= cap)
                            && (!throughput_floor
                                || share >= t.trigger().mean_rate() * sub.exec_time())
                    })
                });
                if !meets {
                    continue;
                }
                met[k] += 1;
                for t in p.tasks() {
                    let (lo, hi) = clamping_box(&p, t, &settings);
                    for (s, &lat) in lats[t.id().index()].iter().enumerate() {
                        assert!(
                            lo[s] <= lat && lat <= hi[s],
                            "{lat} outside [{}, {}]",
                            lo[s],
                            hi[s]
                        );
                    }
                }
            }
        }
        assert!(met.iter().all(|&n| n >= 100), "too few feasible samples: {met:?}");
    }
}
