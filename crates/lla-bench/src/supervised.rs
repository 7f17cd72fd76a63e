//! Supervised chaos soak: closed-loop self-healing vs shedding-only.
//!
//! Two failure scenarios where PR 4's shedding-only governor cannot
//! recover, run twice each — once with just the overload monitor (the
//! pre-supervisor status quo) and once under the
//! [`SupervisorEngine`]:
//!
//! 1. **Gamma thrash** — a hard-deadline service workload near (but
//!    under) congestion, driven by an over-aggressive sign-adaptive
//!    step policy (initial 4, growth factor 8, cap 2048). The step
//!    sizes grow and reset forever and utility rings, but the system is
//!    *feasible*: there is no sustained overload, and every task is
//!    inelastic anyway, so the shedding-only arm has no lever at all.
//!    The supervisor broadcasts a gamma-calm (reset + growth clamp) and
//!    the run settles.
//! 2. **Inelastic overload** — a service workload whose tasks all carry
//!    hard deadlines (smooth-inelastic utilities). Two heavy joins push
//!    demand past capacity; shedding cannot touch inelastic tasks
//!    ([`select_victim`] returns `None`), so
//!    the shedding-only arm diverges forever. The supervisor provisions
//!    elastic replicas on the priciest saturated resource and the run
//!    becomes feasible again.
//!
//! Both arms of both scenarios run the same seeded lossy network, the
//! same join script, and the same diagnostic cadence, so the emitted
//! `supervised_soak.csv` is byte-deterministic and the comparison is
//! apples-to-apples.

use crate::{paper_dist_config, Series};
use lla_core::{
    select_victim, OverloadMonitor, ResourceId, ResourceKind, StepSizePolicy, TaskBuilder,
    UtilityFn,
};
use lla_core::{Problem, Resource};
use lla_dist::supervisor::{CHECK_INTERVAL_ROUNDS, SUPERVISOR_OVERLOAD, SUPERVISOR_WINDOW};
use lla_dist::{
    DistConfig, DistributedLla, NetworkModel, Remediation, SupervisorConfig, SupervisorEngine,
};
use lla_telemetry::{DiagnosticsEngine, Verdict};

/// Supervision checks per soak stage (× [`CHECK_INTERVAL_ROUNDS`] rounds
/// each).
const CHECKS_PER_STAGE: usize = 120;

/// Checks counted into the tail-utility mean (the "end-to-end" figure).
const TAIL_CHECKS: usize = 20;

/// Message loss probability on every link (the chaos flavor both arms
/// share).
const LOSS: f64 = 0.05;

/// One arm (supervised or shedding-only) of one scenario.
#[derive(Debug, Clone)]
pub struct ArmOutcome {
    /// Final diagnostic verdict over the arm's last window.
    pub verdict: Verdict,
    /// Utility at the final check.
    pub final_utility: f64,
    /// Mean utility over the last 20 checks.
    pub tail_utility: f64,
    /// Remediations the supervisor applied (empty for shedding-only).
    pub remediations: Vec<Remediation>,
    /// Tasks the shedding-only monitor evicted (empty when supervised).
    pub sheds: usize,
    /// Total replicas across resources at the end of the run.
    pub total_replicas: u32,
}

/// One scenario's A/B result.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Scenario name (`gamma-thrash` or `inelastic-overload`).
    pub scenario: &'static str,
    /// The closed-loop arm.
    pub supervised: ArmOutcome,
    /// The status-quo arm (overload monitor + shedding only).
    pub shedding_only: ArmOutcome,
}

impl Comparison {
    /// The headline claim: the supervised arm ends converging with at
    /// least the shedding-only arm's end-to-end utility.
    pub fn supervised_wins(&self) -> bool {
        self.supervised.verdict == Verdict::Converging
            && self.shedding_only.verdict != Verdict::Converging
            && self.supervised.tail_utility >= self.shedding_only.tail_utility
    }
}

/// The full soak report.
#[derive(Debug, Clone)]
pub struct SupervisedSoakReport {
    /// Per-scenario A/B results.
    pub comparisons: Vec<Comparison>,
    /// Per-check samples of both arms of both scenarios
    /// (`supervised_soak.csv`; byte-deterministic for a fixed seed).
    pub series: Series,
}

/// Numeric verdict code for the CSV (stable across versions).
fn verdict_code(v: Verdict) -> f64 {
    match v {
        Verdict::Converging => 0.0,
        Verdict::Oscillating => 1.0,
        Verdict::GammaThrash => 2.0,
        Verdict::Diverging => 3.0,
        Verdict::Stalled => 4.0,
    }
}

/// A hard-deadline service task: one subtask on `resource`, demand
/// `exec` ms, deadline 50 ms, smooth-inelastic utility — shedding will
/// never evict it.
fn inelastic_task(idx: usize, resource: usize, exec: f64) -> TaskBuilder {
    let mut b = TaskBuilder::new(format!("svc-{idx}"));
    b.subtask("s", ResourceId::new(resource), exec);
    b.critical_time(50.0).utility(UtilityFn::smooth_inelastic(100.0, 50.0, 8.0));
    b
}

/// A one-resource problem hosting three hard-deadline services of
/// `exec` ms demand each.
fn inelastic_problem(exec: f64) -> Problem {
    let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0)];
    let tasks = (0..3)
        .map(|i| {
            inelastic_task(i, 0, exec).build(lla_core::TaskId::new(i)).expect("static workload")
        })
        .collect();
    Problem::new(resources, tasks).expect("static workload")
}

/// The thrash scenario's problem: feasible but close enough to
/// congestion that an over-aggressive step policy rings forever.
fn thrash_problem() -> Problem {
    inelastic_problem(10.0)
}

/// The overload scenario's starting problem: 60% load, headroom for the
/// two heavy joins to overwhelm.
fn overload_problem() -> Problem {
    inelastic_problem(8.0)
}

/// One scenario script: the deployment, the step policy, and the joins
/// (by check index) both arms must replay identically.
struct Scenario {
    name: &'static str,
    problem: fn() -> Problem,
    policy: StepSizePolicy,
    /// `(check index, builder index)` join events; builders come from
    /// [`Scenario::join_task`].
    joins: Vec<(usize, usize)>,
    join_task: fn(usize) -> TaskBuilder,
    /// Whether the supervised arm may provision/retire replicas.
    elastic: bool,
    seed: u64,
}

fn thrash_scenario() -> Scenario {
    Scenario {
        name: "gamma-thrash",
        problem: thrash_problem,
        // The sign-adaptive heuristic with the growth factor cranked
        // from 2 to 8 and the cap from 64× to 512×: near congestion the
        // steps overshoot, reset on the sign flip, and overshoot again.
        policy: StepSizePolicy::SignAdaptive { initial: 4.0, factor: 8.0, max: 2048.0 },
        joins: Vec::new(),
        join_task: |_| unreachable!("no joins in the thrash scenario"),
        // Capacity is not the problem here; keep the A/B on the calm
        // remediation alone.
        elastic: false,
        seed: 2008,
    }
}

fn overload_scenario() -> Scenario {
    Scenario {
        name: "inelastic-overload",
        problem: overload_problem,
        policy: StepSizePolicy::sign_adaptive(1.0),
        // Two heavy joins early on: 0.6 + 2 × 0.4 ≈ 1.4× capacity.
        joins: vec![(10, 3), (12, 4)],
        join_task: |idx| inelastic_task(idx, 0, 18.0),
        elastic: true,
        seed: 2008,
    }
}

fn build_dist(sc: &Scenario) -> DistributedLla {
    DistributedLla::new(
        (sc.problem)(),
        DistConfig {
            network: NetworkModel::lossy(0.5, 1.0, LOSS),
            seed: sc.seed,
            ..paper_dist_config(sc.policy)
        },
    )
}

/// Drives one arm through the scenario script. `supervisor: None` is the
/// shedding-only arm: the same overload monitor and diagnostic cadence
/// the supervisor uses internally, but eviction is the only lever.
fn run_arm(
    sc: &Scenario,
    mut supervisor: Option<SupervisorEngine>,
    series: &mut Series,
    scenario_code: f64,
) -> ArmOutcome {
    let mut dist = build_dist(sc);
    let mut diag = DiagnosticsEngine::with_window(SUPERVISOR_WINDOW);
    let mut monitor = OverloadMonitor::new(SUPERVISOR_OVERLOAD);
    let mut sheds = 0usize;
    let arm_code = f64::from(supervisor.is_some());

    for check in 0..CHECKS_PER_STAGE {
        for &(at, idx) in &sc.joins {
            if at == check {
                dist.join_task(&(sc.join_task)(idx)).expect("join script is valid");
                monitor.note_admission();
            }
        }
        dist.run_rounds(CHECK_INTERVAL_ROUNDS);
        let verdict;
        match supervisor.as_mut() {
            Some(sup) => {
                sup.check(&mut dist);
                verdict = sup.diagnosis().verdict;
            }
            None => {
                diag.push(dist.diag_sample());
                verdict = diag.diagnose().verdict;
                if monitor.observe(&dist.report()) {
                    let lats = dist.allocation();
                    if let Some(victim) = select_victim(dist.problem(), lats.lats()) {
                        let slot = dist.task_slots()[victim.index()];
                        dist.evict_task(slot).expect("victim is live");
                        monitor.note_eviction();
                        sheds += 1;
                    }
                }
            }
        }
        let remediations =
            supervisor.as_ref().map_or(0, |s| s.actions().len()) as f64 + sheds as f64;
        series.push(vec![
            scenario_code,
            arm_code,
            check as f64,
            dist.rounds() as f64,
            dist.utility(),
            verdict_code(verdict),
            remediations,
            f64::from(total_replicas(&dist)),
        ]);
    }

    let tail: Vec<f64> = (0..TAIL_CHECKS)
        .map(|i| {
            let u = dist.utilities();
            u[u.len() - 1 - i * CHECK_INTERVAL_ROUNDS]
        })
        .collect();
    let verdict = match supervisor.as_ref() {
        Some(sup) => sup.diagnosis().verdict,
        None => diag.diagnose().verdict,
    };
    ArmOutcome {
        verdict,
        final_utility: dist.utility(),
        tail_utility: tail.iter().sum::<f64>() / tail.len() as f64,
        remediations: supervisor.map_or_else(Vec::new, |s| s.actions().to_vec()),
        sheds,
        total_replicas: total_replicas(&dist),
    }
}

fn total_replicas(dist: &DistributedLla) -> u32 {
    dist.problem().resources().iter().map(lla_core::Resource::replicas).sum()
}

/// Runs both scenarios, both arms each, and assembles the report.
pub fn run_supervised_soak() -> SupervisedSoakReport {
    let mut series = Series::new(&[
        "scenario",
        "supervised",
        "check",
        "round",
        "utility",
        "verdict",
        "actions",
        "replicas",
    ]);
    let mut comparisons = Vec::new();
    for (code, sc) in [thrash_scenario(), overload_scenario()].into_iter().enumerate() {
        let shedding_only = run_arm(&sc, None, &mut series, code as f64);
        let sup = SupervisorEngine::new(SupervisorConfig {
            elastic: sc.elastic,
            ..SupervisorConfig::default()
        });
        let supervised = run_arm(&sc, Some(sup), &mut series, code as f64);
        comparisons.push(Comparison { scenario: sc.name, supervised, shedding_only });
    }
    SupervisedSoakReport { comparisons, series }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lla_dist::RemediationKind;

    #[test]
    fn supervised_recovers_where_shedding_only_cannot() {
        let report = run_supervised_soak();
        for cmp in &report.comparisons {
            assert!(
                cmp.supervised_wins(),
                "{}: supervised {:?} (tail {:.2}) vs shedding-only {:?} (tail {:.2})",
                cmp.scenario,
                cmp.supervised.verdict,
                cmp.supervised.tail_utility,
                cmp.shedding_only.verdict,
                cmp.shedding_only.tail_utility,
            );
        }
        let thrash = &report.comparisons[0];
        assert!(
            thrash.supervised.remediations.iter().any(|r| r.kind == RemediationKind::GammaCalm),
            "thrash must be remediated by a gamma calm"
        );
        let overload = &report.comparisons[1];
        assert!(
            overload.supervised.remediations.iter().any(|r| r.kind == RemediationKind::Provision),
            "inelastic overload must be remediated by elastic capacity"
        );
        assert_eq!(overload.shedding_only.sheds, 0, "inelastic tasks must never be shed");
        assert!(overload.supervised.total_replicas > 1, "capacity must have grown");
    }

    #[test]
    fn soak_report_is_deterministic() {
        let a = run_supervised_soak();
        let b = run_supervised_soak();
        assert_eq!(a.series.to_csv(), b.series.to_csv());
    }
}
