//! Price computation (§4.3): the dual variables and the paper's
//! projected-gradient steps.
//!
//! A price is associated with each resource (`μ_r`) and each path (`λ_p`)
//! and reflects its level of congestion. The in-process drivers move the
//! prices by one of two [`PriceMethod`]s. The default,
//! [`PriceMethod::Clearing`], sets every price so that its own constraint
//! clears at the others' prices, one block sweep per round (the plan's
//! market clearing, DESIGN.md §18); it reads no step size. Under
//! [`PriceMethod::Gradient`] — the paper's method, and the only one the
//! distributed agents run — prices are adjusted opposite to the gradient
//! of the dual objective and projected onto `[0, ∞)`:
//!
//! ```text
//! μ_r(t+1) = [ μ_r(t) − γ_r · (B_r − Σ_{s∈S_r} share_r(s, lat_s)) ]⁺   (Eq. 8)
//! λ_p(t+1) = [ λ_p(t) − γ_p · (1 − Σ_{s∈p} lat_s / C_i) ]⁺            (Eq. 9)
//! ```
//!
//! Step sizes trade convergence speed against oscillation. The paper's
//! adaptive heuristic (§5.2) doubles a resource's step size — and that of
//! every path traversing it — for as long as the resource stays congested,
//! and reverts to the initial value as soon as it decongests. The
//! [`StepSizePolicy`] is read only under [`PriceMethod::Gradient`].
//!
//! # Flat dual layout
//!
//! Resource duals (μ, γ_r, last gradient) are three arrays indexed by
//! resource. Path duals (λ, γ_p, last gradient) are three contiguous
//! arrays too, cut into one row per task by an offset table:
//! `row_off[t]..row_off[t+1]` is task `t`'s row. Rows follow task order —
//! global task order in a full-shape state ([`PriceState::new`]), the
//! shard's plan-local order in a shard's state — and a
//! [`Plan`](crate::plan::Plan) numbers paths the same way, task by task
//! and path by path within each task. So `row_off` equals the plan's
//! per-task path offsets, and the flat index `row_off[t] + p` of path `p`
//! of row `t` *is* the plan's path index: the plan's path pass steps λ by
//! its own loop index, with no per-row lookup. The index-based API
//! (`lambda(t, p)`, `lambdas(t)`, `apply_path_step(t, p, …)`) maps onto
//! the flat arrays and checks `p` against its row.
//!
//! # One step rule, two drivers
//!
//! A dual step (Eq. 8 or 9 plus the policy's step-size rule) is written
//! once, in the `#[inline]` `step_dual`, over one entry's `(price, γ,
//! last gradient)` and a `StepTally` of the round's largest relative
//! move, growth events and rejected samples. The single-step API
//! ([`apply_resource_step`](PriceState::apply_resource_step),
//! [`apply_path_step`](PriceState::apply_path_step)) that distributed
//! agents call wraps it for one entry. The batch passes a plan runs
//! (`step_resources`, `step_paths`) match the policy once, keep the tally
//! in a local for the whole pass and store it back at the end, so each
//! step is a few flops on the entry's own three slots.

use crate::problem::{MembershipReport, Problem};
use serde::{Deserialize, Serialize};

/// How price-update step sizes `γ_r`, `γ_p` are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StepSizePolicy {
    /// A single fixed step size for all resources and paths (the paper's
    /// baseline, evaluated at γ ∈ {0.1, 1, 10} in Figure 5).
    Fixed {
        /// The step size γ.
        gamma: f64,
    },
    /// The paper's adaptive heuristic: start at `initial`; while a resource
    /// is congested multiply its γ (and that of paths through it) by
    /// `factor` each iteration, capped at `max`; revert to `initial` on
    /// decongestion.
    Adaptive {
        /// Initial (and post-decongestion) step size.
        initial: f64,
        /// Multiplicative growth factor per congested iteration (paper: 2).
        factor: f64,
        /// Upper cap preventing numeric blow-up.
        max: f64,
    },
    /// Sign-adaptive (Rprop-style) step sizes — our extension.
    ///
    /// The paper's heuristic only accelerates the *congested* direction; a
    /// price that overshot decays at rate `γ·slack`, and near equilibrium
    /// the slack is tiny, so recovery can take tens of thousands of
    /// iterations. This variant grows a price's step size whenever its
    /// gradient keeps the same sign on consecutive iterations (in either
    /// direction) and resets it when the sign flips. EXPERIMENTS.md
    /// compares the two.
    SignAdaptive {
        /// Initial (and post-flip) step size.
        initial: f64,
        /// Multiplicative growth factor per same-sign iteration.
        factor: f64,
        /// Upper cap preventing numeric blow-up.
        max: f64,
    },
}

impl StepSizePolicy {
    /// A fixed step size.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not strictly positive and finite.
    pub fn fixed(gamma: f64) -> Self {
        assert!(gamma.is_finite() && gamma > 0.0, "step size must be positive");
        StepSizePolicy::Fixed { gamma }
    }

    /// The paper's adaptive heuristic with doubling, capped at 64× the
    /// initial step size.
    ///
    /// The paper reports the best results for `initial = 1`. The cap is our
    /// addition: without it a long congestion episode grows γ so large that
    /// prices overshoot by orders of magnitude and take thousands of
    /// iterations to decay back (the projected-gradient decay rate is
    /// proportional to the — small — constraint slack near equilibrium).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not strictly positive and finite.
    pub fn adaptive(initial: f64) -> Self {
        assert!(initial.is_finite() && initial > 0.0, "step size must be positive");
        StepSizePolicy::Adaptive { initial, factor: 2.0, max: 64.0 * initial }
    }

    /// The sign-adaptive extension with doubling, capped at 64× the
    /// initial step size.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not strictly positive and finite.
    pub fn sign_adaptive(initial: f64) -> Self {
        assert!(initial.is_finite() && initial > 0.0, "step size must be positive");
        StepSizePolicy::SignAdaptive { initial, factor: 2.0, max: 64.0 * initial }
    }

    /// The starting step size under this policy.
    pub fn initial_gamma(&self) -> f64 {
        match *self {
            StepSizePolicy::Fixed { gamma } => gamma,
            StepSizePolicy::Adaptive { initial, .. } => initial,
            StepSizePolicy::SignAdaptive { initial, .. } => initial,
        }
    }

    /// The step size of a dual's next step, from its current `gamma`, the
    /// new gradient `grad`, the previous gradient `last_grad` and its
    /// current `price`. `grow` is the adaptive heuristic's congestion
    /// signal: the resource's own (`grad < 0`) for μ, and whether the path
    /// traverses a congested resource for λ.
    #[inline(always)]
    fn next_gamma(self, gamma: f64, grad: f64, last_grad: f64, price: f64, grow: bool) -> f64 {
        match self {
            StepSizePolicy::Fixed { gamma } => gamma,
            StepSizePolicy::Adaptive { initial, factor, max } => {
                // Paper §5.2: double while congested, revert on decongestion.
                if grow {
                    (gamma * factor).min(max)
                } else {
                    initial
                }
            }
            StepSizePolicy::SignAdaptive { initial, factor, max } => {
                // Grow while the gradient sign persists (and the projected
                // price is actually moving); reset on a sign flip.
                let same = grad.signum() == last_grad.signum();
                let moving = grad < 0.0 || price > 0.0;
                if same && moving && last_grad != 0.0 {
                    (gamma * factor).min(max)
                } else {
                    initial
                }
            }
        }
    }
}

/// Folds `x` into a running maximum `acc` that is never NaN: the same
/// value as `acc.max(x)` (a NaN `x` is ignored, a tie keeps `acc`) as a
/// single compare, so the loop-carried chain is one `maxsd` long.
#[inline(always)]
fn fold_max(acc: f64, x: f64) -> f64 {
    if x > acc {
        x
    } else {
        acc
    }
}

/// Runs `$body` with `$policy` (a local [`StepSizePolicy`]) rebound in
/// each arm to a value of that arm's variant, so a batch loop written once
/// compiles once per policy and `next_gamma`'s `match` folds out of it.
macro_rules! per_policy {
    ($policy:ident, $body:expr) => {
        match $policy {
            StepSizePolicy::Fixed { gamma } => {
                let $policy = StepSizePolicy::Fixed { gamma };
                $body
            }
            StepSizePolicy::Adaptive { initial, factor, max } => {
                let $policy = StepSizePolicy::Adaptive { initial, factor, max };
                $body
            }
            StepSizePolicy::SignAdaptive { initial, factor, max } => {
                let $policy = StepSizePolicy::SignAdaptive { initial, factor, max };
                $body
            }
        }
    };
}

/// The bookkeeping every dual step feeds: the largest relative price move
/// since the last [`reset_step_tracking`](PriceState::reset_step_tracking),
/// the step-size growth events and the rejected non-finite samples.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StepTally {
    max_rel_step: f64,
    doublings: u64,
    rejected: u64,
}

/// One projected-gradient step of one dual (Eq. 8 for a μ, Eq. 9 for a λ)
/// with the policy's step-size rule: the only definition of a step, shared
/// by the single-step API and the batch passes. A non-finite `grad` is
/// dropped (counted in `tally.rejected`) and the price kept. Returns the
/// new price.
#[inline(always)]
fn step_dual(
    policy: StepSizePolicy,
    price: &mut f64,
    gamma: &mut f64,
    last_grad: &mut f64,
    grad: f64,
    grow: bool,
    tally: &mut StepTally,
) -> f64 {
    // A NaN/∞ gradient (zero-availability resource after a fault, corrupt
    // message) would poison the price and `last_grad` permanently; drop
    // the sample and keep the previous finite price.
    if !grad.is_finite() {
        tally.rejected += 1;
        return *price;
    }
    let prev_gamma = *gamma;
    *gamma = policy.next_gamma(prev_gamma, grad, *last_grad, *price, grow);
    // Only the multiply arm can raise γ (the other arms hold or reset to
    // `initial`), so a strict increase is exactly a doubling event.
    tally.doublings += u64::from(*gamma > prev_gamma);
    let new = (*price - *gamma * grad).max(0.0);
    // The relative move `|Δ|/(1 + new)` is at most `|Δ|` (`new ≥ 0`), so
    // the divide runs only for a move that could raise the running max;
    // a price that stays put (most of them, near the optimum) skips it.
    let moved = (new - *price).abs();
    if moved > tally.max_rel_step {
        tally.max_rel_step = fold_max(tally.max_rel_step, moved / (1.0 + new));
    }
    *price = new;
    *last_grad = grad;
    new
}

impl Default for StepSizePolicy {
    /// Adaptive with initial γ = 1, the configuration the paper found best.
    fn default() -> Self {
        StepSizePolicy::adaptive(1.0)
    }
}

/// How the in-process drivers move the prices each round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PriceMethod {
    /// One block sweep of the dual per round: every resource sets `μ_r`
    /// so that its usage meets `B_r`, then every path sets `λ_p` so that
    /// its latency meets `C_i` (see [`crate::plan`]'s market clearing).
    /// The step-size policy is not read.
    #[default]
    Clearing,
    /// The paper's projected-gradient steps (Eqs. 8–9) under the
    /// configured [`StepSizePolicy`].
    Gradient,
}

/// The dual variables of LLA: one `μ_r` per resource and one `λ_p` per
/// root-to-leaf path, plus their per-entity adaptive step sizes.
///
/// Path duals live in three flat arrays (λ, γ_p, last gradient) cut into
/// one row per task by `row_off`, so a flat path index is the
/// [`Plan`](crate::plan::Plan)'s global path index (see the
/// [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct PriceState {
    mu: Vec<f64>,
    gamma_r: Vec<f64>,
    last_grad_r: Vec<f64>,
    /// `row_off[t]..row_off[t+1]` is λ row `t`'s window of the three path
    /// arrays (`len == rows + 1`).
    row_off: Vec<usize>,
    lambda: Vec<f64>,
    gamma_p: Vec<f64>,
    last_grad_p: Vec<f64>,
    tally: StepTally,
    policy: StepSizePolicy,
}

impl PriceState {
    /// Initializes zero prices for every resource and path of `problem`.
    pub fn new(problem: &Problem, policy: StepSizePolicy) -> Self {
        let rows = problem.tasks().iter().map(|t| t.graph().paths().len());
        Self::with_rows(problem.resources().len(), rows, policy)
    }

    /// A zero price for one resource, at index 0, and no λ row: the duals
    /// of a distributed resource agent, which prices its own resource
    /// alone. Its index never changes, so the state carries across
    /// membership epochs as it is.
    pub fn single_resource(policy: StepSizePolicy) -> Self {
        Self::with_rows(1, std::iter::empty(), policy)
    }

    /// Zero prices for `resources` resources and one λ row per entry of
    /// `rows` (its path count), every step size at the policy's initial
    /// value.
    pub(crate) fn with_rows(
        resources: usize,
        rows: impl ExactSizeIterator<Item = usize>,
        policy: StepSizePolicy,
    ) -> Self {
        let g0 = policy.initial_gamma();
        let mut row_off = Vec::with_capacity(rows.len() + 1);
        row_off.push(0);
        let mut paths = 0;
        for n in rows {
            paths += n;
            row_off.push(paths);
        }
        PriceState {
            mu: vec![0.0; resources],
            gamma_r: vec![g0; resources],
            last_grad_r: vec![0.0; resources],
            row_off,
            lambda: vec![0.0; paths],
            gamma_p: vec![g0; paths],
            last_grad_p: vec![0.0; paths],
            tally: StepTally { max_rel_step: f64::INFINITY, doublings: 0, rejected: 0 },
            policy,
        }
    }

    /// λ row `t`'s window of the flat path arrays.
    fn row(&self, t: usize) -> std::ops::Range<usize> {
        self.row_off[t]..self.row_off[t + 1]
    }

    /// The flat index of path `p` of λ row `t`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the row (a flat index would otherwise
    /// silently alias the next row).
    fn path_index(&self, t: usize, p: usize) -> usize {
        let row = self.row(t);
        assert!(p < row.len(), "path {p} out of range for a λ row of {} paths", row.len());
        row.start + p
    }

    /// Total number of path duals (the length of the flat λ array).
    pub(crate) fn num_paths(&self) -> usize {
        self.lambda.len()
    }

    /// The λ row offsets (`len == rows + 1`); equal to a plan's per-task
    /// path offsets when the rows are in that plan's task order.
    pub(crate) fn row_offsets(&self) -> &[usize] {
        &self.row_off
    }

    /// Warm-starts a price state for a problem produced by a membership
    /// change: surviving resources keep `μ_r`, step size, and last
    /// gradient; surviving tasks keep their whole `λ` row; newcomers start
    /// from zero prices at the initial step size.
    ///
    /// A surviving task whose path count changed (it was rebuilt with a
    /// different graph) also restarts fresh — stale per-path duals for a
    /// different path set would be meaningless.
    pub fn remap(&self, problem: &Problem, report: &MembershipReport) -> PriceState {
        let mut next = PriceState::new(problem, self.policy);
        next.carry_resources(self, &report.resource_map);
        for (old, m) in report.task_map.iter().enumerate() {
            if let Some(new) = *m {
                let (from, to) = (self.row(old), next.row(new));
                if from.len() == to.len() {
                    next.lambda[to.clone()].copy_from_slice(&self.lambda[from.clone()]);
                    next.gamma_p[to.clone()].copy_from_slice(&self.gamma_p[from.clone()]);
                    next.last_grad_p[to].copy_from_slice(&self.last_grad_p[from]);
                }
            }
        }
        next
    }

    /// Copies `old`'s resource duals (μ, step size, last gradient) and
    /// diagnostic tally into this fresh state, resource by resource along
    /// `resource_map`.
    fn carry_resources(&mut self, old: &PriceState, resource_map: &[Option<usize>]) {
        for (from, m) in resource_map.iter().enumerate() {
            if let Some(to) = *m {
                self.mu[to] = old.mu[from];
                self.gamma_r[to] = old.gamma_r[from];
                self.last_grad_r[to] = old.last_grad_r[from];
            }
        }
        self.tally = old.tally;
    }

    /// How many non-finite price samples have been rejected (see
    /// [`set_mu`](Self::set_mu) and the step appliers). A nonzero count
    /// under faults means the guards saved the duals from NaN/∞ poisoning.
    pub fn rejected_samples(&self) -> u64 {
        self.tally.rejected
    }

    /// How many step-size growth events the adaptive policies have taken
    /// (the `γ ← min(γ·factor, max)` arm actually increasing `γ`). Always
    /// zero under [`StepSizePolicy::Fixed`]. Telemetry reads deltas of
    /// this to expose a doubling rate.
    pub fn gamma_doublings(&self) -> u64 {
        self.tally.doublings
    }

    /// The largest relative price movement `|Δprice|/(1 + price)` of the
    /// most recent [`update`](Self::update) — the optimizer's price
    /// quiescence signal. `∞` before the first update.
    pub fn last_max_rel_step(&self) -> f64 {
        self.tally.max_rel_step
    }

    /// The resource price `μ_r` for resource index `r`.
    pub fn mu(&self, r: usize) -> f64 {
        self.mu[r]
    }

    /// All resource prices, indexed by resource.
    pub fn mus(&self) -> &[f64] {
        &self.mu
    }

    /// The path price `λ_p` for path `p` of task `t`.
    pub fn lambda(&self, t: usize, p: usize) -> f64 {
        self.lambdas(t)[p]
    }

    /// All path prices of task `t`.
    pub fn lambdas(&self, t: usize) -> &[f64] {
        &self.lambda[self.row(t)]
    }

    /// Every path price, in flat path order (a plan's path index).
    pub(crate) fn flat_lambdas(&self) -> &[f64] {
        &self.lambda
    }

    /// Overwrites the resource price (used by the distributed runtime when
    /// a price message arrives).
    ///
    /// A non-finite value is rejected — `NaN.max(0.0)` would poison `μ_r`
    /// for the rest of the run — keeping the previous finite price and
    /// bumping [`rejected_samples`](Self::rejected_samples).
    pub fn set_mu(&mut self, r: usize, value: f64) {
        if !value.is_finite() {
            self.tally.rejected += 1;
            return;
        }
        self.mu[r] = value.max(0.0);
    }

    /// Overwrites a path price (used by the distributed runtime). Rejects
    /// non-finite values like [`set_mu`](Self::set_mu).
    pub fn set_lambda(&mut self, t: usize, p: usize, value: f64) {
        if !value.is_finite() {
            self.tally.rejected += 1;
            return;
        }
        let i = self.path_index(t, p);
        self.lambda[i] = value.max(0.0);
    }

    /// The step-size policy these duals evolve under.
    pub fn policy(&self) -> StepSizePolicy {
        self.policy
    }

    /// Shard-shaped price state (crate-internal, used by
    /// [`crate::shard::ShardedOptimizer`]): a full-size μ/γ_r mirror over
    /// **every** global resource — so plan kernels can index it with
    /// global `sub_res` ids — but λ rows only for the shard's `tasks`
    /// (plan-local row order = slice order).
    pub(crate) fn for_shard(problem: &Problem, tasks: &[usize], policy: StepSizePolicy) -> Self {
        let rows = tasks.iter().map(|&t| problem.tasks()[t].graph().paths().len());
        Self::with_rows(problem.resources().len(), rows, policy)
    }

    /// Raw `(μ, γ, last_grad)` triple for resource `r` — ownership
    /// transfers between a shard and its coordinator move the *full*
    /// adaptive state, not just the price.
    pub(crate) fn resource_dual_raw(&self, r: usize) -> (f64, f64, f64) {
        (self.mu[r], self.gamma_r[r], self.last_grad_r[r])
    }

    /// Installs a raw resource-dual triple taken from
    /// [`resource_dual_raw`](Self::resource_dual_raw).
    pub(crate) fn set_resource_dual_raw(&mut self, r: usize, raw: (f64, f64, f64)) {
        self.mu[r] = raw.0;
        self.gamma_r[r] = raw.1;
        self.last_grad_r[r] = raw.2;
    }

    /// Raw `(λ, γ, last_grad)` triple for path `p` of λ-row `row`.
    pub(crate) fn path_dual_raw(&self, row: usize, p: usize) -> (f64, f64, f64) {
        let i = self.path_index(row, p);
        (self.lambda[i], self.gamma_p[i], self.last_grad_p[i])
    }

    /// Installs a raw path-dual triple taken from
    /// [`path_dual_raw`](Self::path_dual_raw).
    pub(crate) fn set_path_dual_raw(&mut self, row: usize, p: usize, raw: (f64, f64, f64)) {
        let i = self.path_index(row, p);
        self.lambda[i] = raw.0;
        self.gamma_p[i] = raw.1;
        self.last_grad_p[i] = raw.2;
    }

    /// Copies `src`'s λ rows `src_rows` (λ, γ and last gradient) over
    /// this state's rows from `dst_row` on, as three slice copies; the
    /// rows must have the same path counts.
    ///
    /// # Panics
    ///
    /// Panics if the row windows differ in length.
    pub(crate) fn copy_path_rows(
        &mut self,
        dst_row: usize,
        src: &PriceState,
        src_rows: std::ops::Range<usize>,
    ) {
        let from = src.row_off[src_rows.start]..src.row_off[src_rows.end];
        let at = self.row_off[dst_row];
        let to = at..at + from.len();
        debug_assert_eq!(self.row_off[dst_row + src_rows.len()], to.end, "row shapes must match");
        self.lambda[to.clone()].copy_from_slice(&src.lambda[from.clone()]);
        self.gamma_p[to.clone()].copy_from_slice(&src.gamma_p[from.clone()]);
        self.last_grad_p[to].copy_from_slice(&src.last_grad_p[from]);
    }

    /// Appends a fresh zero-dual λ row of `paths` entries (a task joining
    /// a shard is appended at the end of its plan-local order).
    pub(crate) fn push_lambda_row(&mut self, paths: usize) {
        let n = self.lambda.len() + paths;
        self.lambda.resize(n, 0.0);
        self.gamma_p.resize(n, self.policy.initial_gamma());
        self.last_grad_p.resize(n, 0.0);
        self.row_off.push(n);
    }

    /// Removes λ row `row`, shifting later rows down (a task leaving a
    /// shard; plan-local order of the survivors is preserved).
    pub(crate) fn remove_lambda_row(&mut self, row: usize) {
        let window = self.row(row);
        let len = window.len();
        self.lambda.drain(window.clone());
        self.gamma_p.drain(window.clone());
        self.last_grad_p.drain(window);
        self.row_off.remove(row + 1);
        for off in &mut self.row_off[row + 1..] {
            *off -= len;
        }
    }

    /// Sets `μ_r` to a cleared price, folding the move into the round's
    /// largest relative price step.
    #[inline]
    pub(crate) fn clear_mu(&mut self, r: usize, value: f64) {
        self.tally.max_rel_step =
            fold_max(self.tally.max_rel_step, (value - self.mu[r]).abs() / (1.0 + value));
        self.mu[r] = value;
    }

    /// Sets the λ of flat path index `i` to a cleared price, like
    /// [`clear_mu`](Self::clear_mu).
    #[inline]
    pub(crate) fn clear_lambda(&mut self, i: usize, value: f64) {
        self.tally.max_rel_step =
            fold_max(self.tally.max_rel_step, (value - self.lambda[i]).abs() / (1.0 + value));
        self.lambda[i] = value;
    }

    /// Overwrites the diagnostic bookkeeping (used when assembling a
    /// global state from shard states for checkpoint export).
    pub(crate) fn set_bookkeeping(
        &mut self,
        last_max_rel_step: f64,
        rejected: u64,
        doublings: u64,
    ) {
        self.tally = StepTally { max_rel_step: last_max_rel_step, doublings, rejected };
    }

    /// Remediation hook for gamma-thrash (supervisor §12): resets every
    /// per-entity step size back to the policy's initial value and clamps
    /// the adaptive growth cap to `initial × max_multiple`. A multiple of
    /// `1.0` degrades the policy to effectively fixed; repeated calls can
    /// only tighten the cap. Prices and gradients are untouched — only
    /// the step-size machinery is calmed. No-op cap for
    /// [`StepSizePolicy::Fixed`].
    ///
    /// # Panics
    ///
    /// Panics if `max_multiple < 1` or non-finite.
    pub fn calm_gammas(&mut self, max_multiple: f64) {
        assert!(
            max_multiple.is_finite() && max_multiple >= 1.0,
            "gamma clamp multiple must be ≥ 1"
        );
        let g0 = self.policy.initial_gamma();
        match &mut self.policy {
            StepSizePolicy::Fixed { .. } => {}
            StepSizePolicy::Adaptive { initial, max, .. }
            | StepSizePolicy::SignAdaptive { initial, max, .. } => {
                *max = max.min(*initial * max_multiple);
            }
        }
        self.gamma_r.fill(g0);
        self.gamma_p.fill(g0);
    }

    /// The current step size of resource `r` (for introspection/tests).
    pub fn gamma_r(&self, r: usize) -> f64 {
        self.gamma_r[r]
    }

    /// The current step size of path `p` of task `t`.
    pub fn gamma_p(&self, t: usize, p: usize) -> f64 {
        self.gamma_p[self.path_index(t, p)]
    }

    /// Performs one full price-computation step (Eqs. 8–9) for the given
    /// allocation, including the adaptive step-size heuristic when the
    /// policy selects it.
    ///
    /// `lats[t][s]` is the latency allocated to subtask `s` of task `t`.
    pub fn update(&mut self, problem: &Problem, lats: &[Vec<f64>]) {
        // Dual gradients: resource slack (Eq. 8) and relative path slack
        // (Eq. 9). Gradients are price-independent, so the resource pass
        // computes-and-applies in one walk and the path pass enumerates
        // each task's paths exactly once per round.
        let mut congested = vec![false; problem.resources().len()];
        self.reset_step_tracking();
        for (r, res) in problem.resources().iter().enumerate() {
            let g = res.availability() - problem.resource_usage(res.id(), lats);
            congested[r] = g < 0.0;
            self.apply_resource_step(r, g);
        }
        for (t, task) in problem.tasks().iter().enumerate() {
            let tl = &lats[task.id().index()];
            for (p, path) in task.graph().paths().iter().enumerate() {
                let grad = 1.0 - path.latency(tl) / task.critical_time();
                let traverses_congested = path
                    .subtasks()
                    .iter()
                    .any(|&s| congested[task.subtasks()[s].resource().index()]);
                self.apply_path_step(t, p, grad, traverses_congested);
            }
        }
    }

    /// Resets the [`last_max_rel_step`](Self::last_max_rel_step) tracker;
    /// distributed drivers call this at round boundaries before applying
    /// per-entity steps.
    pub fn reset_step_tracking(&mut self) {
        self.tally.max_rel_step = 0.0;
    }

    /// Applies one resource price step (Eq. 8) given the dual gradient
    /// `grad = B_r − usage_r`, including this policy's step-size
    /// adaptation. This is the operation a distributed resource agent
    /// performs locally. Returns the new `μ_r`.
    #[inline]
    pub fn apply_resource_step(&mut self, r: usize, grad: f64) -> f64 {
        step_dual(
            self.policy,
            &mut self.mu[r],
            &mut self.gamma_r[r],
            &mut self.last_grad_r[r],
            grad,
            grad < 0.0,
            &mut self.tally,
        )
    }

    /// Applies one path price step (Eq. 9) given the relative slack
    /// `grad = 1 − path_latency/C_i` and whether the path traverses a
    /// congested resource (needed by the paper's adaptive heuristic; the
    /// resource's congestion bit travels with its price message in the
    /// distributed runtime). This is the operation a task controller
    /// performs locally. Returns the new `λ_p`.
    pub fn apply_path_step(
        &mut self,
        t: usize,
        p: usize,
        grad: f64,
        traverses_congested: bool,
    ) -> f64 {
        let i = self.path_index(t, p);
        step_dual(
            self.policy,
            &mut self.lambda[i],
            &mut self.gamma_p[i],
            &mut self.last_grad_p[i],
            grad,
            traverses_congested,
            &mut self.tally,
        )
    }

    /// The batch form of [`apply_resource_step`](Self::apply_resource_step):
    /// for every resource `r` in index order — only those with `owned[r]`
    /// when a mask is given — the gradient `availability[r] − usage[r]`,
    /// its congestion bit into `congested[r]`, and one μ step. Returns the
    /// worst violation `usage_r − B_r` over the stepped resources
    /// (`-∞` if none).
    pub(crate) fn step_resources(
        &mut self,
        availability: &[f64],
        usage: &[f64],
        owned: Option<&[bool]>,
        congested: &mut [bool],
    ) -> f64 {
        match owned {
            None => self.step_resources_where(availability, usage, congested, |_| true),
            Some(owned) => {
                let owned = &owned[..self.mu.len()];
                self.step_resources_where(availability, usage, congested, |r| owned[r])
            }
        }
    }

    /// [`step_resources`](Self::step_resources) over the resources `r`
    /// with `take(r)`, compiled once per mask and per policy.
    #[inline(always)]
    fn step_resources_where(
        &mut self,
        availability: &[f64],
        usage: &[f64],
        congested: &mut [bool],
        take: impl Fn(usize) -> bool,
    ) -> f64 {
        let n = self.mu.len();
        let (availability, usage, congested) =
            (&availability[..n], &usage[..n], &mut congested[..n]);
        let (mu, gamma, last_grad) =
            (&mut self.mu[..], &mut self.gamma_r[..n], &mut self.last_grad_r[..n]);
        let mut tally = self.tally;
        let mut worst = f64::NEG_INFINITY;
        let policy = self.policy;
        per_policy!(policy, {
            for r in 0..n {
                if !take(r) {
                    continue;
                }
                let grad = availability[r] - usage[r];
                congested[r] = grad < 0.0;
                step_dual(
                    policy,
                    &mut mu[r],
                    &mut gamma[r],
                    &mut last_grad[r],
                    grad,
                    grad < 0.0,
                    &mut tally,
                );
                worst = fold_max(worst, usage[r] - availability[r]);
            }
        });
        self.tally = tally;
        worst
    }

    /// The batch form of [`apply_path_step`](Self::apply_path_step): for
    /// every path `i` in flat order, the relative slack
    /// `1 − latency[i]/critical_time[i]` and one λ step with congestion
    /// signal `traverses_congested[i]`. Returns the worst path violation
    /// `latency_i/C_i − 1` (`-∞` if there are no paths).
    pub(crate) fn step_paths(
        &mut self,
        latency: &[f64],
        critical_time: &[f64],
        traverses_congested: &[bool],
    ) -> f64 {
        let n = self.lambda.len();
        let (latency, critical_time, traverses_congested) =
            (&latency[..n], &critical_time[..n], &traverses_congested[..n]);
        let (lambda, gamma, last_grad) =
            (&mut self.lambda[..], &mut self.gamma_p[..n], &mut self.last_grad_p[..n]);
        let mut tally = self.tally;
        let mut worst = f64::NEG_INFINITY;
        let policy = self.policy;
        per_policy!(policy, {
            for i in 0..n {
                let (pl, ct) = (latency[i], critical_time[i]);
                worst = fold_max(worst, pl / ct - 1.0);
                let grad = 1.0 - pl / ct;
                let grow = traverses_congested[i];
                step_dual(
                    policy,
                    &mut lambda[i],
                    &mut gamma[i],
                    &mut last_grad[i],
                    grad,
                    grow,
                    &mut tally,
                );
            }
        });
        self.tally = tally;
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ResourceId, TaskId};
    use crate::resource::{Resource, ResourceKind};
    use crate::task::TaskBuilder;

    fn problem() -> Problem {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
        ];
        let mut b = TaskBuilder::new("t");
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let c = b.subtask("b", ResourceId::new(1), 2.0);
        b.edge(a, c).unwrap();
        b.critical_time(20.0);
        Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap()
    }

    #[test]
    fn single_resource_duals_step_and_carry_like_the_full_remap() {
        let p = problem();
        let policy = StepSizePolicy::adaptive(1.0);
        let (mut full, mut own) =
            (PriceState::new(&p, policy), PriceState::single_resource(policy));
        assert_eq!(own.num_paths(), 0, "a one-resource state has no λ");
        for grad in [-1.0, -0.5, 0.25] {
            assert_eq!(
                full.apply_resource_step(1, grad).to_bits(),
                own.apply_resource_step(0, grad).to_bits()
            );
        }
        // Resource 1 moves to index 0, resource 0 is gone; the one-resource
        // state carries over unchanged.
        let report = MembershipReport {
            task_map: vec![Some(0)],
            resource_map: vec![None, Some(0)],
            added_task: None,
            added_resource: None,
        };
        let full = full.remap(&p, &report);
        assert_eq!(own.mu(0).to_bits(), full.mu(0).to_bits());
        assert_eq!(own.gamma_r(0), full.gamma_r(0));
        assert_eq!(own.gamma_doublings(), full.gamma_doublings());
    }

    #[test]
    fn gamma_doublings_count_growth_events() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::adaptive(1.0));
        assert_eq!(s.gamma_doublings(), 0);
        s.apply_resource_step(0, -1.0); // congested: γ 1 → 2
        s.apply_resource_step(0, -1.0); // γ 2 → 4
        assert_eq!(s.gamma_doublings(), 2);
        s.apply_resource_step(0, 1.0); // decongested: reset, not a doubling
        assert_eq!(s.gamma_doublings(), 2);
        s.apply_path_step(0, 0, -0.5, true); // congested path: γ 1 → 2
        assert_eq!(s.gamma_doublings(), 3);
        // The counter travels through Clone and remap.
        assert_eq!(s.clone().gamma_doublings(), 3);
        let id = MembershipReport::identity(1, 2);
        assert_eq!(s.remap(&p, &id).gamma_doublings(), 3);
    }

    #[test]
    fn fixed_policy_never_doubles() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::fixed(0.5));
        for _ in 0..10 {
            s.apply_resource_step(0, -1.0);
        }
        assert_eq!(s.gamma_doublings(), 0);
    }

    #[test]
    fn doublings_stop_at_the_gamma_cap() {
        let p = problem();
        // adaptive(1.0): factor 2, max 64 → exactly 6 doublings reach it.
        let mut s = PriceState::new(&p, StepSizePolicy::adaptive(1.0));
        for _ in 0..20 {
            s.apply_resource_step(0, -1.0);
        }
        assert_eq!(s.gamma_doublings(), 6);
        assert_eq!(s.gamma_r(0), 64.0);
    }

    #[test]
    fn prices_start_at_zero() {
        let p = problem();
        let s = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        assert_eq!(s.mus(), &[0.0, 0.0]);
        assert_eq!(s.lambdas(0), &[0.0]);
    }

    #[test]
    fn congested_resource_price_rises() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        // Tiny latencies => shares (3/1) each => heavy congestion.
        let lats = vec![vec![1.0, 1.0]];
        s.update(&p, &lats);
        assert!(s.mu(0) > 0.0, "price of congested resource must rise");
        assert!(s.mu(1) > 0.0);
    }

    #[test]
    fn uncongested_resource_price_projected_to_zero() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        // Generous latencies => usage << B_r, gradient positive, price would
        // go negative but is projected onto zero.
        let lats = vec![vec![9.0, 9.0]];
        s.update(&p, &lats);
        assert_eq!(s.mu(0), 0.0);
    }

    #[test]
    fn path_price_rises_when_deadline_missed() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        // Path latency 30 > C = 20 => negative slack => lambda rises.
        let lats = vec![vec![15.0, 15.0]];
        s.update(&p, &lats);
        assert!(s.lambda(0, 0) > 0.0);
    }

    #[test]
    fn path_price_stays_zero_with_slack() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        let lats = vec![vec![5.0, 5.0]];
        s.update(&p, &lats);
        assert_eq!(s.lambda(0, 0), 0.0);
    }

    #[test]
    fn fixed_policy_never_changes_gamma() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::fixed(0.5));
        let lats = vec![vec![1.0, 1.0]]; // congested
        for _ in 0..5 {
            s.update(&p, &lats);
        }
        assert_eq!(s.gamma_r(0), 0.5);
        assert_eq!(s.gamma_p(0, 0), 0.5);
    }

    #[test]
    fn adaptive_gamma_doubles_under_congestion_and_reverts() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::adaptive(1.0));
        let congested = vec![vec![1.0, 1.0]];
        s.update(&p, &congested);
        assert_eq!(s.gamma_r(0), 2.0);
        assert_eq!(s.gamma_p(0, 0), 2.0, "paths through congested resources double too");
        s.update(&p, &congested);
        assert_eq!(s.gamma_r(0), 4.0);
        // Decongest: gamma reverts to initial immediately.
        let relaxed = vec![vec![9.0, 9.0]];
        s.update(&p, &relaxed);
        assert_eq!(s.gamma_r(0), 1.0);
        assert_eq!(s.gamma_p(0, 0), 1.0);
    }

    #[test]
    fn adaptive_gamma_is_capped() {
        let p = problem();
        let policy = StepSizePolicy::Adaptive { initial: 1.0, factor: 2.0, max: 8.0 };
        let mut s = PriceState::new(&p, policy);
        let congested = vec![vec![1.0, 1.0]];
        for _ in 0..10 {
            s.update(&p, &congested);
        }
        assert_eq!(s.gamma_r(0), 8.0);
    }

    #[test]
    fn setters_project_to_nonnegative() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::default());
        s.set_mu(0, -3.0);
        assert_eq!(s.mu(0), 0.0);
        s.set_lambda(0, 0, -1.0);
        assert_eq!(s.lambda(0, 0), 0.0);
        s.set_mu(1, 2.5);
        assert_eq!(s.mu(1), 2.5);
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn fixed_policy_rejects_zero() {
        let _ = StepSizePolicy::fixed(0.0);
    }

    #[test]
    fn non_finite_samples_are_rejected_not_absorbed() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::fixed(1.0));
        s.set_mu(0, 3.0);
        s.set_mu(0, f64::NAN);
        s.set_mu(0, f64::INFINITY);
        assert_eq!(s.mu(0), 3.0, "non-finite set_mu must keep the previous price");
        s.set_lambda(0, 0, 1.5);
        s.set_lambda(0, 0, f64::NEG_INFINITY);
        assert_eq!(s.lambda(0, 0), 1.5);
        let before = s.clone();
        assert_eq!(s.apply_resource_step(0, f64::NAN), 3.0);
        assert_eq!(s.apply_path_step(0, 0, f64::INFINITY, false), 1.5);
        assert_eq!(s.mus(), before.mus(), "rejected gradients must not move prices");
        assert_eq!(s.rejected_samples(), 5);
        // Finite samples still flow normally afterwards.
        s.apply_resource_step(0, -1.0);
        assert_eq!(s.mu(0), 4.0);
        assert_eq!(s.rejected_samples(), 5);
    }

    #[test]
    fn remap_carries_survivor_duals_and_zeroes_newcomers() {
        let mut p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::adaptive(1.0));
        // Resource 0 congested (share 3/1) and the path late (26 > C=20),
        // so both a μ and a λ move off zero.
        let congested = vec![vec![1.0, 25.0]];
        for _ in 0..3 {
            s.update(&p, &congested);
        }
        let (mu0, mu1) = (s.mu(0), s.mu(1));
        let lam = s.lambda(0, 0);
        assert!(mu0 > 0.0 && lam > 0.0);

        // Admit a second task: survivors keep duals, the newcomer is fresh.
        let mut b = TaskBuilder::new("new");
        b.subtask("n", ResourceId::new(0), 1.0);
        b.critical_time(15.0);
        let report = p.add_task(&b).unwrap();
        let warm = s.remap(&p, &report);
        assert_eq!(warm.mu(0), mu0);
        assert_eq!(warm.mu(1), mu1);
        assert_eq!(warm.gamma_r(0), s.gamma_r(0));
        assert_eq!(warm.lambda(0, 0), lam);
        assert_eq!(warm.lambda(1, 0), 0.0, "newcomer starts with zero duals");
        assert_eq!(warm.gamma_p(1, 0), 1.0);

        // Remove the original task: the newcomer shifts to index 0 with its
        // (zero) duals; resource prices persist.
        let report = p.remove_task(TaskId::new(0)).unwrap();
        let warm2 = warm.remap(&p, &report);
        assert_eq!(warm2.mu(0), mu0);
        assert_eq!(warm2.lambda(0, 0), 0.0);
    }

    #[test]
    fn calm_gammas_resets_steps_and_clamps_growth() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::adaptive(1.0));
        let congested = vec![vec![1.0, 1.0]];
        for _ in 0..4 {
            s.update(&p, &congested);
        }
        assert!(s.gamma_r(0) > 1.0);
        let mu_before = s.mu(0);
        s.calm_gammas(2.0);
        assert_eq!(s.gamma_r(0), 1.0, "steps revert to initial");
        assert_eq!(s.gamma_p(0, 0), 1.0);
        assert_eq!(s.mu(0), mu_before, "prices are untouched");
        match s.policy() {
            StepSizePolicy::Adaptive { max, .. } => assert_eq!(max, 2.0),
            other => panic!("policy variant changed: {other:?}"),
        }
        // Future growth respects the tightened cap.
        for _ in 0..6 {
            s.update(&p, &congested);
        }
        assert!(s.gamma_r(0) <= 2.0);
        // Calming again can only tighten, never widen.
        s.calm_gammas(64.0);
        match s.policy() {
            StepSizePolicy::Adaptive { max, .. } => assert_eq!(max, 2.0),
            other => panic!("policy variant changed: {other:?}"),
        }
    }

    #[test]
    fn calm_gammas_is_a_cap_noop_for_fixed() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::fixed(0.5));
        s.calm_gammas(1.0);
        assert_eq!(s.policy(), StepSizePolicy::fixed(0.5));
        assert_eq!(s.gamma_r(0), 0.5);
    }

    /// A task of `paths` root-to-leaf paths over resources 0 and 1.
    fn fan_task(paths: usize) -> TaskBuilder {
        let mut b = TaskBuilder::new("fan");
        let root = b.subtask("root", ResourceId::new(0), 1.0);
        for i in 0..paths {
            let leaf = b.subtask(format!("leaf{i}"), ResourceId::new(1), 1.0);
            b.edge(root, leaf).unwrap();
        }
        b.critical_time(50.0);
        b
    }

    /// A seeded sequence of row pushes and removals, remaps across task
    /// and resource membership changes, calms and raw dual writes leaves
    /// the flat state equal to one rebuilt from scratch with the same rows
    /// and values.
    #[test]
    fn flat_rows_survive_edits_and_equal_a_fresh_rebuild() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        let mut p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::adaptive(1.0));
        let g0 = 1.0;
        let mut max = 64.0;
        // The expected (λ, γ, last_grad) rows and (μ, γ, last_grad) duals.
        let mut rows: Vec<Vec<(f64, f64, f64)>> = vec![vec![(0.0, g0, 0.0)]];
        let mut res = vec![(0.0, g0, 0.0); 2];
        for step in 0..400 {
            match next(7) {
                0 => {
                    let paths = 1 + next(4);
                    let report = p.add_task(&fan_task(paths)).unwrap();
                    assert_eq!(report.added_task.unwrap().index(), rows.len());
                    s.push_lambda_row(paths);
                    rows.push(vec![(0.0, g0, 0.0); paths]);
                }
                1 if rows.len() > 1 => {
                    let row = next(rows.len());
                    p.remove_task(TaskId::new(row)).unwrap();
                    s.remove_lambda_row(row);
                    rows.remove(row);
                }
                2 => {
                    let paths = 1 + next(4);
                    let report = p.add_task(&fan_task(paths)).unwrap();
                    s = s.remap(&p, &report);
                    rows.push(vec![(0.0, g0, 0.0); paths]);
                }
                3 if rows.len() > 1 => {
                    let row = next(rows.len());
                    let report = p.remove_task(TaskId::new(row)).unwrap();
                    s = s.remap(&p, &report);
                    rows.remove(row);
                }
                4 if res.len() < 6 => {
                    let id = ResourceId::new(res.len());
                    let report =
                        p.add_resource(Resource::new(id, ResourceKind::Cpu).with_lag(1.0)).unwrap();
                    s = s.remap(&p, &report);
                    res.push((0.0, g0, 0.0));
                }
                5 => {
                    let multiple = [1.0, 4.0, 32.0, 128.0][next(4)];
                    s.calm_gammas(multiple);
                    max = f64::min(max, g0 * multiple);
                    res.iter_mut().for_each(|d| d.1 = g0);
                    rows.iter_mut().flatten().for_each(|d| d.1 = g0);
                }
                _ => {
                    let v = (step + 1) as f64;
                    let row = next(rows.len());
                    let path = next(rows[row].len());
                    s.set_path_dual_raw(row, path, (v, v + 0.5, -v));
                    rows[row][path] = (v, v + 0.5, -v);
                    let r = next(res.len());
                    s.set_resource_dual_raw(r, (v, 2.0 * v, v - 1.0));
                    res[r] = (v, 2.0 * v, v - 1.0);
                }
            }
        }
        assert_eq!(s.policy(), StepSizePolicy::Adaptive { initial: g0, factor: 2.0, max });
        let mut rebuilt = PriceState::new(&p, s.policy());
        for (r, &d) in res.iter().enumerate() {
            rebuilt.set_resource_dual_raw(r, d);
        }
        for (row, duals) in rows.iter().enumerate() {
            assert_eq!(s.lambdas(row).len(), duals.len(), "row {row} length");
            for (path, &d) in duals.iter().enumerate() {
                rebuilt.set_path_dual_raw(row, path, d);
            }
        }
        assert_eq!(s, rebuilt);
    }

    #[test]
    fn sign_adaptive_grows_on_persistent_gradient() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::sign_adaptive(1.0));
        let congested = vec![vec![1.0, 1.0]];
        s.update(&p, &congested); // first update: last grad was 0 => reset
        assert_eq!(s.gamma_r(0), 1.0);
        s.update(&p, &congested); // same sign => double
        assert_eq!(s.gamma_r(0), 2.0);
        s.update(&p, &congested);
        assert_eq!(s.gamma_r(0), 4.0);
    }

    #[test]
    fn sign_adaptive_grows_during_decay_and_resets_on_flip() {
        let p = problem();
        let mut s = PriceState::new(&p, StepSizePolicy::sign_adaptive(1.0));
        // Drive mu up with a congested allocation.
        let congested = vec![vec![1.0, 1.0]];
        for _ in 0..6 {
            s.update(&p, &congested);
        }
        let high = s.mu(0);
        assert!(high > 1.0);
        // Decongest: gradient flips sign => gamma resets, then grows while
        // mu decays — the asymmetry fix over the paper's heuristic.
        let relaxed = vec![vec![9.0, 9.0]];
        s.update(&p, &relaxed);
        assert_eq!(s.gamma_r(0), 1.0, "sign flip resets gamma");
        s.update(&p, &relaxed);
        assert_eq!(s.gamma_r(0), 2.0, "persistent positive slack grows gamma");
        assert!(s.mu(0) < high, "price must decay");
    }
}
