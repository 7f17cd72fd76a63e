//! Overload detection and utility-aware load shedding.
//!
//! LLA prices transient congestion away, but a workload that is simply
//! unschedulable (Σ demand > capacity at every feasible latency) keeps the
//! violation factor positive forever — prices climb without bound and no
//! allocation step can fix it. The paper layers admission control on top of
//! the continuously running algorithm (§3.2); this module is the runtime
//! counterpart: detect *sustained* infeasibility, shed the elastic task
//! with the lowest marginal utility per unit of share reclaimed, and apply
//! hysteresis (an admit/evict cool-down) so the membership never flaps.
//!
//! The detector deliberately keys on the violation factor over a window of
//! iterations rather than a single sample: one congested iteration is
//! normal during re-convergence after churn; N consecutive ones are not.
//! An iteration counts as overloaded when its violation factor exceeds
//! `OVERLOAD_VIOLATION` = 0.05, fifty times the optimizer's feasibility
//! tolerance.

use crate::ids::TaskId;
use crate::optimizer::{IterationReport, Optimizer};
use crate::problem::Problem;

/// Violation factor (max of absolute resource violation and relative
/// path violation) above which an iteration counts as overloaded.
const OVERLOAD_VIOLATION: f64 = 0.05;

/// Tuning knobs for [`OverloadMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Consecutive overloaded iterations before the monitor declares
    /// sustained overload and recommends shedding.
    pub sustain_iters: usize,
    /// Iterations after any membership action (admit or evict) during
    /// which no further shedding or admission is recommended — the
    /// hysteresis band that prevents flapping while prices re-settle.
    pub cooldown_iters: usize,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig { sustain_iters: 50, cooldown_iters: 200 }
    }
}

/// Sustained-infeasibility detector with admit/evict hysteresis.
///
/// Feed it every [`IterationReport`]; it recommends shedding only after
/// [`OverloadConfig::sustain_iters`] consecutive violating iterations and
/// never during a cool-down window.
#[derive(Debug, Clone)]
pub struct OverloadMonitor {
    config: OverloadConfig,
    streak: usize,
    cooldown: usize,
    evictions: u64,
}

impl OverloadMonitor {
    /// A monitor with the given configuration.
    pub fn new(config: OverloadConfig) -> Self {
        OverloadMonitor { config, streak: 0, cooldown: 0, evictions: 0 }
    }

    /// Records one iteration. Returns `true` when the monitor recommends
    /// shedding load *now* (sustained overload and not cooling down).
    pub fn observe(&mut self, report: &IterationReport) -> bool {
        let cooling = self.cooldown > 0;
        if cooling {
            self.cooldown -= 1;
        }
        let factor = report.max_resource_violation.max(report.max_path_violation);
        if factor > OVERLOAD_VIOLATION {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        self.is_overloaded() && !cooling
    }

    /// Whether the overload streak currently exceeds the sustain window.
    pub fn is_overloaded(&self) -> bool {
        self.streak >= self.config.sustain_iters
    }

    /// The current run of consecutive violating observations. Supervisors
    /// read this to escalate remediation: the longer the streak survives
    /// past `sustain_iters`, the more victims a shedding round takes.
    pub fn overload_streak(&self) -> usize {
        self.streak
    }

    /// Whether the hysteresis cool-down is active.
    pub fn in_cooldown(&self) -> bool {
        self.cooldown > 0
    }

    /// Whether an admission should be allowed right now: not overloaded
    /// and not inside the post-action cool-down. Gating admissions on the
    /// same hysteresis as evictions is what prevents admit/evict flapping.
    pub fn can_admit(&self) -> bool {
        self.cooldown == 0 && !self.is_overloaded()
    }

    /// Records that a task was evicted; restarts the streak and the
    /// cool-down.
    pub fn note_eviction(&mut self) {
        self.evictions += 1;
        self.streak = 0;
        self.cooldown = self.config.cooldown_iters;
    }

    /// Records that a task was admitted; starts the cool-down so the
    /// newcomer cannot be evicted before prices re-settle.
    pub fn note_admission(&mut self) {
        self.cooldown = self.config.cooldown_iters;
    }

    /// Total evictions recorded over the monitor's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// Ranks elastic tasks by marginal utility per unit of share reclaimed,
/// cheapest-to-evict first: `|f_i'(agg_lat)| / Σ_s share(lat_s)`.
///
/// A small score means losing little utility per unit of capacity freed —
/// the utility-aware eviction order. Inelastic tasks (hard deadlines,
/// [`UtilityFn::is_inelastic`](crate::UtilityFn::is_inelastic)) are never
/// ranked. Ties break on the lower task id so the order is deterministic.
pub fn shed_ranking(problem: &Problem, lats: &[Vec<f64>]) -> Vec<(TaskId, f64)> {
    let mut out = Vec::new();
    for t in problem.tasks() {
        if t.utility_fn().is_inelastic() {
            continue;
        }
        let ti = t.id().index();
        let marginal = t.utility_fn().derivative(t.aggregate_latency(&lats[ti])).abs();
        let share: f64 = (0..t.len())
            .map(|s| problem.share_model(t.subtask_id(s)).share_for_latency(lats[ti][s]))
            .sum();
        out.push((t.id(), marginal / share.max(1e-12)));
    }
    out.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    out
}

/// The elastic task shedding would evict next (lowest
/// [`shed_ranking`] score), or `None` if every task is inelastic.
pub fn select_victim(problem: &Problem, lats: &[Vec<f64>]) -> Option<TaskId> {
    shed_ranking(problem, lats).first().map(|&(id, _)| id)
}

/// One governed iteration: step the optimizer, let the monitor watch, and
/// shed the lowest-value elastic task when overload is sustained. An
/// eviction also resets the dual state ([`Optimizer::reset_prices`]) —
/// prices that integrated a sustained-infeasible gradient are arbitrarily
/// inflated and would stall the survivors' re-convergence.
///
/// Returns the iteration report and, if shedding happened, the evicted
/// task's id *as it was before removal* (survivor ids shift down per
/// [`Optimizer::remove_task`]'s report).
pub fn governed_step(
    opt: &mut Optimizer,
    monitor: &mut OverloadMonitor,
) -> (IterationReport, Option<TaskId>) {
    let report = opt.step();
    let mut evicted = None;
    if monitor.observe(&report) {
        if let Some(victim) = select_victim(opt.problem(), opt.allocation().lats()) {
            opt.remove_task(victim).expect("victim id comes from the live problem");
            // Shedding only happens after *sustained* overload, which is
            // exactly when the duals are poisoned: they integrated an
            // unsatisfiable gradient for the whole detection window and
            // would otherwise decay at a near-zero rate once the freed
            // constraints re-bind (γ·slack with slack ≈ 0), stalling far
            // from the optimum. Restart them; the survivors re-converge
            // at the cold-start rate, which is bounded.
            opt.reset_prices();
            monitor.note_eviction();
            evicted = Some(victim);
        }
    }
    (report, evicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ResourceId;
    use crate::optimizer::OptimizerConfig;
    use crate::resource::{Resource, ResourceKind};
    use crate::task::TaskBuilder;
    use crate::utility::UtilityFn;
    use crate::AllocationSettings;

    fn report(violation: f64) -> IterationReport {
        IterationReport {
            iteration: 0,
            utility: 0.0,
            max_resource_violation: violation,
            max_path_violation: 0.0,
        }
    }

    fn task(name: &str, exec: f64, c: f64, slope: f64) -> TaskBuilder {
        let mut b = TaskBuilder::new(name);
        b.subtask("s", ResourceId::new(0), exec);
        b.critical_time(c).utility(UtilityFn::Linear { offset: 2.0 * c, slope });
        b
    }

    fn one_cpu(tasks: Vec<TaskBuilder>) -> Problem {
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0)];
        let tasks = tasks
            .iter()
            .enumerate()
            .map(|(i, b)| b.build(crate::TaskId::new(i)).unwrap())
            .collect();
        Problem::new(resources, tasks).unwrap()
    }

    #[test]
    fn monitor_requires_sustained_violation() {
        let mut m = OverloadMonitor::new(OverloadConfig { sustain_iters: 3, cooldown_iters: 5 });
        assert!(!m.observe(&report(1.0)));
        assert!(!m.observe(&report(1.0)));
        assert!(m.observe(&report(1.0)), "third consecutive violation trips the monitor");
        // A single clean iteration resets the streak.
        assert!(!m.observe(&report(0.0)));
        assert!(!m.observe(&report(1.0)));
        assert!(!m.is_overloaded());
    }

    #[test]
    fn hysteresis_blocks_consecutive_actions() {
        let mut m = OverloadMonitor::new(OverloadConfig { sustain_iters: 1, cooldown_iters: 3 });
        assert!(m.observe(&report(1.0)));
        m.note_eviction();
        assert!(m.in_cooldown());
        assert!(!m.can_admit());
        // Still violating, but the cool-down gates any further action.
        assert!(!m.observe(&report(1.0)));
        assert!(!m.observe(&report(1.0)));
        assert!(!m.observe(&report(1.0)));
        assert!(m.observe(&report(1.0)), "cool-down expired, still overloaded");
        assert_eq!(m.evictions(), 1);
    }

    #[test]
    fn ranking_prefers_low_marginal_utility_and_skips_inelastic() {
        let cheap = task("cheap", 2.0, 40.0, -0.5);
        let dear = task("dear", 2.0, 40.0, -4.0);
        let mut hard = task("hard", 2.0, 40.0, -1.0);
        hard.utility(UtilityFn::smooth_inelastic(10.0, 40.0, 8.0));
        let p = one_cpu(vec![dear, cheap, hard]);
        let lats = p.initial_allocation();
        let ranking = shed_ranking(&p, &lats);
        assert_eq!(ranking.len(), 2, "inelastic task must not be ranked");
        assert_eq!(ranking[0].0, crate::TaskId::new(1), "cheap task evicts first");
        assert_eq!(select_victim(&p, &lats), Some(crate::TaskId::new(1)));
    }

    #[test]
    fn governed_loop_sheds_until_feasible_without_flapping() {
        // Five elastic tasks on one CPU, far too much demand: the governed
        // loop must evict the cheapest tasks one by one (cool-down apart)
        // until the remainder is schedulable, and then stop evicting.
        let tasks: Vec<TaskBuilder> =
            (0..5).map(|i| task(&format!("t{i}"), 6.0, 10.0, -(1.0 + i as f64))).collect();
        let p = one_cpu(tasks);
        let cfg = OptimizerConfig {
            allocation: AllocationSettings { throughput_floor: false },
            ..OptimizerConfig::default()
        };
        let mut opt = Optimizer::new(p, cfg);
        let mut monitor =
            OverloadMonitor::new(OverloadConfig { sustain_iters: 30, cooldown_iters: 100 });
        let mut evictions = Vec::new();
        for _ in 0..5_000 {
            let (_, evicted) = governed_step(&mut opt, &mut monitor);
            if let Some(id) = evicted {
                evictions.push(id);
            }
        }
        assert!(!evictions.is_empty(), "overloaded system must shed");
        assert!(evictions.len() < 5, "shedding must stop before evicting everyone");
        assert!(
            opt.problem().max_resource_violation(opt.allocation().lats()) < 0.05,
            "remaining tasks must be schedulable"
        );
        // Lowest-slope (cheapest) task goes first: slope -1 is task 0.
        assert_eq!(evictions[0], crate::TaskId::new(0));
        // No flapping: once feasible, a long quiet tail with no evictions.
        let before = monitor.evictions();
        for _ in 0..1_000 {
            let (_, evicted) = governed_step(&mut opt, &mut monitor);
            assert!(evicted.is_none(), "stable system must not evict");
        }
        assert_eq!(monitor.evictions(), before);
    }
}
