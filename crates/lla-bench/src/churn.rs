//! Chaos soak: Poisson task churn composed with the fault-injection
//! layer (crash/restart, a partition, message loss) on the virtual
//! clock, plus a deliberate overload phase exercising utility-aware
//! load shedding.
//!
//! The driver runs one [`DistributedLla`] deployment through three
//! stages:
//!
//! 1. **Warmup** — the base workload converges under loss.
//! 2. **Churn** — seeded Poisson join/leave events splice tasks in and
//!    out of the *running* deployment while a controller crashes and
//!    restarts and a partition separates it from a resource. After every
//!    membership event the driver measures rounds-to-reconverge against
//!    a centralized oracle solved on that epoch's exact problem.
//! 3. **Shedding** — heavy elastic tasks join until demand exceeds
//!    capacity; an [`OverloadMonitor`] watching the dense allocation
//!    evicts the lowest-marginal-utility elastic task (with hysteresis)
//!    until the survivors are schedulable again.
//!
//! Everything runs on the seeded virtual runtime, so the emitted
//! `churn_sweep.csv` is byte-deterministic for a fixed config.

use crate::{paper_dist_config, Series};
use lla_core::{
    select_victim, shed_ranking, Optimizer, OverloadConfig, OverloadMonitor, ResourceId,
    StepSizePolicy, TaskBuilder, UtilityFn,
};
use lla_dist::{
    Address, DistConfig, DistTelemetry, DistributedLla, FaultPlan, NetworkModel, RobustnessConfig,
};
use lla_telemetry::{Diagnosis, DiagnosticsEngine, Event as TelemetryEvent, TelemetryHub};
use lla_workloads::base_workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One protocol round of virtual time (ms), matching
/// [`DistConfig::round_length`]'s default.
const ROUND: f64 = 10.0;

/// Rounds per re-convergence probe: the gap against the oracle is
/// sampled once per chunk, so `rounds_to_reconverge` is quantized to
/// this resolution.
const PROBE_CHUNK: usize = 10;

/// Tuning for [`run_churn_soak`].
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Seed for the churn process (event spacing, join/leave coin,
    /// departure choice) *and* the network.
    pub seed: u64,
    /// Message loss probability on every link.
    pub loss: f64,
    /// Number of Poisson churn (join/leave) events.
    pub churn_events: usize,
    /// Mean inter-event spacing in rounds (exponential).
    pub mean_gap_rounds: f64,
    /// Per-event cap on rounds to re-converge; exceeding it is reported
    /// as a failure by the soak tests.
    pub reconverge_cap_rounds: usize,
    /// Relative utility gap against the per-epoch oracle counted as
    /// "re-converged".
    pub gap_tolerance: f64,
    /// Schedule the chaos faults (controller crash/restart plus a
    /// controller↔resource partition) during the churn stage.
    pub with_faults: bool,
    /// Run the overload/shedding stage after the churn stage.
    pub with_shedding: bool,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            seed: 2008,
            loss: 0.10,
            churn_events: 20,
            mean_gap_rounds: 60.0,
            reconverge_cap_rounds: 2_000,
            gap_tolerance: 0.05,
            with_faults: true,
            with_shedding: true,
        }
    }
}

/// What happened at one soak event (one CSV row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SoakEventKind {
    /// A task joined the running deployment (slot).
    Join(usize),
    /// A task left voluntarily (slot).
    Leave(usize),
    /// The overload monitor evicted a task (slot).
    Shed(usize),
}

impl SoakEventKind {
    /// Numeric code used in the CSV (1 join, 2 leave, 3 shed).
    pub fn code(&self) -> f64 {
        match self {
            SoakEventKind::Join(_) => 1.0,
            SoakEventKind::Leave(_) => 2.0,
            SoakEventKind::Shed(_) => 3.0,
        }
    }

    /// The protocol slot the event concerns.
    pub fn slot(&self) -> usize {
        match self {
            SoakEventKind::Join(s) | SoakEventKind::Leave(s) | SoakEventKind::Shed(s) => *s,
        }
    }
}

/// Per-event measurement.
#[derive(Debug, Clone, Copy)]
pub struct SoakEvent {
    /// What happened.
    pub kind: SoakEventKind,
    /// Protocol round at which the event was injected.
    pub round: usize,
    /// Topology epoch after the event.
    pub epoch: u64,
    /// Live tasks after the event.
    pub n_tasks: usize,
    /// Rounds until the deployment's utility re-entered
    /// [`ChurnConfig::gap_tolerance`] of the per-epoch oracle
    /// (quantized to the 10-round probe chunk); `None` if the cap elapsed
    /// first.
    pub rounds_to_reconverge: Option<usize>,
    /// Deployment utility at re-convergence (or at the cap).
    pub u_dist: f64,
    /// Centralized oracle utility for this epoch's problem.
    pub u_oracle: f64,
    /// `|u_dist − u_oracle| / max(|u_oracle|, 1)` at re-convergence.
    pub gap: f64,
}

/// Everything the soak produced.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Per-event measurements, in injection order (churn then shedding).
    pub events: Vec<SoakEvent>,
    /// The CSV series (`churn_sweep.csv`).
    pub series: Series,
    /// Slots evicted by the shedder, in eviction order.
    pub shed_slots: Vec<usize>,
    /// `true` iff an evicted slot was ever re-admitted or the monitor
    /// acted during its own cool-down — the flapping the hysteresis
    /// must prevent.
    pub flapped: bool,
    /// Largest re-convergence gap over all events that did converge.
    pub max_settled_gap: f64,
    /// Total protocol rounds the soak ran.
    pub rounds: usize,
    /// Convergence diagnosis over the soak's final sample window (one
    /// [`DiagSample`](lla_telemetry::DiagSample) per 10-round probe
    /// chunk): a healthy soak ends `converging` — the classifier sees
    /// through the churn it just survived.
    pub diagnosis: Diagnosis,
}

impl SoakReport {
    /// Whether every event re-converged within the cap.
    pub fn all_reconverged(&self) -> bool {
        self.events.iter().all(|e| e.rounds_to_reconverge.is_some())
    }
}

/// A light churn task: a two-subtask chain with small demand, elastic
/// linear utility, and per-index variety in resources, deadline, and
/// slope. Index-determined, so the candidate stream is reproducible.
fn churn_task(idx: usize) -> TaskBuilder {
    let r1 = idx % 8;
    let r2 = (idx + 3) % 8;
    let mut b = TaskBuilder::new(format!("churn-{idx}"));
    b.subtask("a", ResourceId::new(r1), 0.4 + (idx % 3) as f64 * 0.2);
    b.subtask("b", ResourceId::new(r2), 0.4);
    b.edge(0, 1).expect("two-subtask chain");
    let ct = 120.0 + (idx % 5) as f64 * 20.0;
    // Small demand and a strongly positive offset: the deployment's
    // total utility stays far from zero across every epoch, so the
    // relative oracle gap stays well-conditioned.
    b.critical_time(ct)
        .utility(UtilityFn::Linear { offset: 3.0 * ct, slope: -(0.4 + (idx % 4) as f64 * 0.2) });
    b
}

/// A heavy elastic task used to force overload in the shedding stage:
/// large demand on one resource, slope rising with the index so the
/// shed order (lowest marginal utility first) is `idx` order.
fn heavy_task(idx: usize) -> TaskBuilder {
    let mut b = TaskBuilder::new(format!("heavy-{idx}"));
    b.subtask("h", ResourceId::new(idx % 2), 40.0);
    // Near-flat utility: high share, negligible marginal value — these
    // are unambiguously the cheapest evictions in the shed ranking, so
    // the soak can assert the shedder never touches anything else.
    b.critical_time(60.0)
        .utility(UtilityFn::Linear { offset: 120.0, slope: -(0.02 + idx as f64 * 0.01) });
    b
}

/// Draws an exponential inter-event gap (in rounds, at least 1).
fn exp_gap(rng: &mut StdRng, mean_rounds: f64) -> usize {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (-u.ln() * mean_rounds).ceil().max(1.0) as usize
}

/// Centralized oracle: the current (dense) problem solved to
/// convergence by the paper's gradient method with the same step policy
/// the deployment uses.
fn oracle_utility(dist: &DistributedLla, policy: StepSizePolicy) -> f64 {
    let mut opt = Optimizer::new(dist.problem().clone(), crate::paper_optimizer_config(policy));
    opt.run_to_convergence(20_000);
    opt.utility()
}

/// Runs chunks of rounds until the utility gap against `u_oracle`
/// drops under `tol`, up to `cap` rounds. Returns
/// `(rounds_run_to_settle, u_dist, gap)`; the first component is `None`
/// when the cap elapsed without settling.
fn settle(
    dist: &mut DistributedLla,
    diag: &mut DiagnosticsEngine,
    u_oracle: f64,
    tol: f64,
    cap: usize,
) -> (Option<usize>, f64, f64) {
    let mut run = 0;
    loop {
        dist.run_rounds(PROBE_CHUNK);
        diag.push(dist.diag_sample());
        run += PROBE_CHUNK;
        let u = dist.utility();
        let gap = (u - u_oracle).abs() / u_oracle.abs().max(1.0);
        if gap < tol {
            return (Some(run), u, gap);
        }
        if run >= cap {
            return (None, u, gap);
        }
    }
}

/// Runs the full chaos soak. See the module docs for the stages.
///
/// The returned [`SoakReport`] carries every assertion input the soak
/// tests need; the function itself never panics on a missed bound, so
/// the harness can also be used to *chart* degradation beyond the
/// asserted envelope.
pub fn run_churn_soak(config: &ChurnConfig) -> SoakReport {
    run_churn_soak_instrumented(config, &TelemetryHub::disabled())
}

/// [`run_churn_soak`] with telemetry: the deployment shares the hub's
/// metrics registry and event log, and the soak driver itself emits a
/// `shed` event (victim slot + marginal utility from the shed ranking)
/// per eviction. Because every event is stamped with the *virtual*
/// clock, two soaks with the same config produce byte-identical JSONL
/// event logs — the determinism the golden-file CI test pins down.
pub fn run_churn_soak_instrumented(config: &ChurnConfig, hub: &TelemetryHub) -> SoakReport {
    let tel = DistTelemetry::from_hub(hub);
    let policy = StepSizePolicy::sign_adaptive(1.0);
    let mut dist = DistributedLla::with_telemetry(
        base_workload(),
        DistConfig {
            network: NetworkModel::lossy(0.5, 1.0, config.loss),
            seed: config.seed,
            robustness: RobustnessConfig {
                checkpoint_interval: 5.0 * ROUND,
                retransmit_interval: ROUND,
                ..RobustnessConfig::default()
            },
            ..paper_dist_config(policy)
        },
        tel.clone(),
    );
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5bd1_e995);

    // Chaos faults on the absolute virtual clock, placed inside the
    // churn stage: controller 0 crashes for 30 rounds at round 900, and
    // rounds 1500–1560 partition controller 1 from resource 0.
    if config.with_faults {
        let plan = FaultPlan::new()
            .crash_for(900.0 * ROUND, 30.0 * ROUND, Address::Controller(0))
            .partition(
                1_500.0 * ROUND,
                60.0 * ROUND,
                [Address::Controller(1)],
                [Address::Resource(0)],
            );
        dist.schedule_faults(&plan);
    }

    // Online convergence diagnostics, fed one sample per probe chunk so
    // the classifier tracks the soak at the same cadence the oracle-gap
    // probes do. Resource slots never churn here, so the per-resource
    // price evidence stays aligned across epochs.
    let names: Vec<String> =
        dist.problem().resources().iter().map(|r| r.name().to_string()).collect();
    let mut diag = DiagnosticsEngine::new().with_resource_names(names);

    // Stage 1: warmup under loss.
    let warmup = 600;
    for _ in 0..warmup / PROBE_CHUNK {
        dist.run_rounds(PROBE_CHUNK);
        diag.push(dist.diag_sample());
    }
    let mut round = warmup;

    let mut events: Vec<SoakEvent> = Vec::new();
    let mut live_extras: Vec<usize> = Vec::new(); // joined slots still live
    let mut next_candidate = 0usize;

    // Stage 2: Poisson churn.
    for _ in 0..config.churn_events {
        round += {
            let gap = exp_gap(&mut rng, config.mean_gap_rounds);
            dist.run_rounds(gap);
            gap
        };
        // Join when nothing extra is live or on a fair coin; cap the
        // extra population so the workload stays schedulable.
        let join = live_extras.is_empty() || (live_extras.len() < 6 && rng.gen_bool(0.5));
        let kind = if join {
            let builder = churn_task(next_candidate);
            next_candidate += 1;
            let slot = dist.join_task(&builder).expect("churn candidates are valid");
            live_extras.push(slot);
            SoakEventKind::Join(slot)
        } else {
            let pick = rng.gen_range(0..live_extras.len());
            let slot = live_extras.remove(pick);
            dist.leave_task(slot).expect("slot came from the live set");
            SoakEventKind::Leave(slot)
        };
        let u_oracle = oracle_utility(&dist, policy);
        let (settled, u_dist, gap) = settle(
            &mut dist,
            &mut diag,
            u_oracle,
            config.gap_tolerance,
            config.reconverge_cap_rounds,
        );
        round += settled.unwrap_or(config.reconverge_cap_rounds);
        events.push(SoakEvent {
            kind,
            round,
            epoch: dist.epoch(),
            n_tasks: dist.problem().tasks().len(),
            rounds_to_reconverge: settled,
            u_dist,
            u_oracle,
            gap,
        });
    }

    // Stage 3: overload + utility-aware shedding with hysteresis.
    let mut shed_slots = Vec::new();
    let mut flapped = false;
    if config.with_shedding {
        let mut monitor =
            OverloadMonitor::new(OverloadConfig { sustain_iters: 30, cooldown_iters: 120 });
        // Three heavy joins push demand past capacity. Each join starts
        // the admit cool-down, so the monitor cannot evict before
        // prices re-settle (hysteresis on both edges).
        let mut heavy_slots = Vec::new();
        for i in 0..3 {
            let slot = dist.join_task(&heavy_task(i)).expect("heavy candidates are valid");
            monitor.note_admission();
            heavy_slots.push(slot);
            dist.run_rounds(5);
            round += 5;
        }
        // Governed loop: one observation per round, eviction only on a
        // sustained violation outside the cool-down.
        for step in 0..1_500usize {
            dist.run_rounds(1);
            round += 1;
            if (step + 1).is_multiple_of(PROBE_CHUNK) {
                diag.push(dist.diag_sample());
            }
            if monitor.observe(&dist.report()) {
                let lats = dist.allocation();
                if monitor.in_cooldown() {
                    flapped = true; // the monitor must never act while cooling
                }
                let Some(victim) = select_victim(dist.problem(), lats.lats()) else {
                    break;
                };
                let marginal = shed_ranking(dist.problem(), lats.lats())
                    .iter()
                    .find(|&&(id, _)| id == victim)
                    .map_or(f64::NAN, |&(_, m)| m);
                let slot = dist.task_slots()[victim.index()];
                if shed_slots.contains(&slot) {
                    flapped = true; // a shed slot can never still be live
                }
                tel.sheds.inc();
                tel.events.emit(
                    TelemetryEvent::new(dist.runtime().now(), "shed")
                        .with("slot", slot)
                        .with("marginal_utility", marginal),
                );
                dist.evict_task(slot).expect("victim is live");
                monitor.note_eviction();
                shed_slots.push(slot);
                live_extras.retain(|&s| s != slot);
                let u_oracle = oracle_utility(&dist, policy);
                let (settled, u_dist, gap) = settle(
                    &mut dist,
                    &mut diag,
                    u_oracle,
                    config.gap_tolerance,
                    config.reconverge_cap_rounds,
                );
                round += settled.unwrap_or(config.reconverge_cap_rounds);
                events.push(SoakEvent {
                    kind: SoakEventKind::Shed(slot),
                    round,
                    epoch: dist.epoch(),
                    n_tasks: dist.problem().tasks().len(),
                    rounds_to_reconverge: settled,
                    u_dist,
                    u_oracle,
                    gap,
                });
            }
        }
        // Quiet tail: a stable system must not keep evicting, and every
        // eviction must have hit a heavy slot (lowest marginal utility),
        // never a light churn task or a base task.
        flapped |= shed_slots.iter().any(|s| !heavy_slots.contains(s));
    }

    let mut series = Series::new(&[
        "event",
        "kind",
        "slot",
        "round",
        "epoch",
        "n_tasks",
        "rounds_to_reconverge",
        "u_dist",
        "u_oracle",
        "gap",
    ]);
    for (i, e) in events.iter().enumerate() {
        series.push(vec![
            i as f64,
            e.kind.code(),
            e.kind.slot() as f64,
            e.round as f64,
            e.epoch as f64,
            e.n_tasks as f64,
            e.rounds_to_reconverge.map_or(-1.0, |r| r as f64),
            e.u_dist,
            e.u_oracle,
            e.gap,
        ]);
    }

    let max_settled_gap = events
        .iter()
        .filter(|e| e.rounds_to_reconverge.is_some())
        .map(|e| e.gap)
        .fold(0.0, f64::max);
    SoakReport {
        events,
        series,
        shed_slots,
        flapped,
        max_settled_gap,
        rounds: round,
        diagnosis: diag.diagnose(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed soak that still exercises every stage, cheap enough
    /// for the default test run (the full soak lives in
    /// `tests/churn_soak.rs` behind `#[ignore]`).
    fn quick_config() -> ChurnConfig {
        ChurnConfig { churn_events: 4, mean_gap_rounds: 30.0, ..ChurnConfig::default() }
    }

    #[test]
    fn quick_soak_reconverges_and_sheds_cleanly() {
        let report = run_churn_soak(&quick_config());
        assert!(report.all_reconverged(), "events: {:#?}", report.events);
        assert!(report.max_settled_gap < 0.05);
        assert!(!report.flapped, "shed slots: {:?}", report.shed_slots);
        assert!(!report.shed_slots.is_empty(), "the overload stage must shed");
        assert_eq!(report.events.len(), 4 + report.shed_slots.len());
        // After shedding restores schedulability the diagnostics window
        // must read as a settled run again.
        assert_eq!(report.diagnosis.verdict, lla_telemetry::Verdict::Converging);
        assert!(report.diagnosis.confident);
        assert_eq!(report.diagnosis.frozen_fraction, 0.0);
    }

    #[test]
    fn soak_is_deterministic() {
        let a = run_churn_soak(&quick_config());
        let b = run_churn_soak(&quick_config());
        assert_eq!(a.series.to_csv(), b.series.to_csv());
    }
}
