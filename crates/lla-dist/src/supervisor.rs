//! Closed-loop self-healing: a supervisor that watches the deployment's
//! convergence diagnostics and applies graduated remediation.
//!
//! The [`SupervisorEngine`] closes the loop that PR 5 left open: the
//! [`DiagnosticsEngine`] can already
//! *classify* a run (converging / oscillating / gamma-thrash / diverging
//! / stalled), and PR 4's overload governor can already *shed*; this
//! module turns those read-only verdicts into deterministic actions on
//! the live deployment:
//!
//! | condition (sustained)        | remediation                                     |
//! |------------------------------|-------------------------------------------------|
//! | gamma thrash                 | [`GammaCalm`](crate::protocol::Message::GammaCalm) broadcast — reset adaptive steps, clamp growth; escalates by tightening the clamp |
//! | divergence                   | checkpoint rollback — brief scripted crash of every live controller, restoring epoch-validated checkpoints on restart |
//! | stall (frozen / pinned)      | [`DualResync`](crate::protocol::Message::DualResync) probe — every agent re-announces its duals, refreshing staleness clocks |
//! | sustained overload           | provision an elastic replica on the priciest saturated resource; if capacity is exhausted, escalating utility-aware shedding |
//! | high price + saturation      | provision an elastic replica (price-driven capacity) |
//! | idle replica + zero price    | retire an elastic replica (wide hysteresis band)    |
//!
//! Every action flows through the same facade paths ordinary membership
//! uses (topology epochs + reliable control-plane dissemination), every
//! decision input is derived from the virtual clock and seeded state, and
//! the engine itself draws no randomness — two seeded supervised runs are
//! bit-identical, and a disabled supervisor touches nothing at all (the
//! deployment's event log stays byte-identical to an unsupervised run).
//!
//! All policy thresholds are documented `pub const`s (mirroring the
//! diagnostics module); [`SupervisorConfig`] carries them so individual
//! deployments can tune without recompiling.

use lla_core::{select_victim, IterationReport, OverloadConfig, OverloadMonitor};
use lla_telemetry::{
    AgentScope, AlertSeverity, DiagnosticsEngine, Event as TelemetryEvent, Verdict,
};

use crate::fault::FaultPlan;
use crate::fleet::{AGENT_METRICS, M_TICKS};
use crate::protocol::Address;
use crate::system::DistributedLla;

/// Rounds between supervisor checks (diagnostic sample + possible
/// action). Five rounds ≈ one price/latency settling exchange.
pub const CHECK_INTERVAL_ROUNDS: usize = 5;

/// Diagnostic window, in checks, fed to the verdict classifier.
pub const SUPERVISOR_WINDOW: usize = 32;

/// Checks skipped after any remediation before the next one may fire —
/// the hysteresis that lets an action take effect before it is judged.
pub const ACTION_COOLDOWN_CHECKS: u32 = 8;

/// First gamma-calm clamp: adaptive step sizes may grow to at most this
/// multiple of their initial value after the calm.
pub const CALM_INITIAL_MULTIPLE: f64 = 8.0;

/// Each escalated calm tightens the clamp by this factor.
pub const CALM_TIGHTEN: f64 = 0.5;

/// The clamp never tightens below this multiple (γ pinned at initial).
pub const CALM_FLOOR_MULTIPLE: f64 = 1.0;

/// Rollback outage length, in rounds: how long controllers stay down
/// during a checkpoint-rollback remediation.
pub const ROLLBACK_OUTAGE_ROUNDS: f64 = 0.5;

/// Price at or above which a resource is provision-eligible.
pub const PROVISION_PRICE_THRESHOLD: f64 = 1.0;

/// Usage/availability at or above which a pricey resource counts as
/// saturated (the admission probe for placement).
pub const PROVISION_USAGE_FRACTION: f64 = 0.95;

/// Consecutive checks of price-over-threshold saturation before a
/// replica is provisioned.
pub const PROVISION_SUSTAIN_CHECKS: u32 = 6;

/// Price at or below which a replica counts as idle (retire-eligible).
pub const RETIRE_PRICE_EPSILON: f64 = 1e-6;

/// Usage/availability at or below which a zero-price resource counts as
/// idle. The wide gap to [`PROVISION_USAGE_FRACTION`] is the
/// provision/retire hysteresis band.
pub const RETIRE_USAGE_FRACTION: f64 = 0.4;

/// Consecutive idle checks before a replica is retired (longer than the
/// provision sustain: capacity is cheap, thrash is not).
pub const RETIRE_SUSTAIN_CHECKS: u32 = 12;

/// Replica ceiling per resource.
pub const MAX_REPLICAS: u32 = 8;

/// New frame rejections attributed to one sender within a single check
/// interval that trigger quarantine. One or two rejections are what
/// random corruption produces; a sustained per-sender stream is either a
/// sick agent or an adversary, and either way its traffic is poison.
pub const QUARANTINE_REJECTION_THRESHOLD: u64 = 3;

/// Checks a quarantined agent stays silenced. On release the supervisor
/// broadcasts a [`DualResync`](crate::protocol::Message::DualResync) so
/// the rehabilitated agent (and everyone who stopped hearing from it)
/// re-announces immediately instead of waiting out staleness TTLs.
pub const QUARANTINE_RELEASE_CHECKS: u32 = 4;

/// Supervisor policy knobs. [`Default`] wires the documented consts;
/// `enabled: false` makes the engine inert (no samples, no actions — the
/// deployment behaves bit-identically to an unsupervised run).
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Master switch; `false` disables sampling and every action.
    pub enabled: bool,
    /// Rounds between checks ([`CHECK_INTERVAL_ROUNDS`]).
    pub check_interval_rounds: usize,
    /// Diagnostic window in checks ([`SUPERVISOR_WINDOW`]).
    pub window: usize,
    /// Checks skipped after an action ([`ACTION_COOLDOWN_CHECKS`]).
    pub action_cooldown_checks: u32,
    /// Replica ceiling per resource ([`MAX_REPLICAS`]).
    pub max_replicas: u32,
    /// Provision price bar ([`PROVISION_PRICE_THRESHOLD`]).
    pub provision_price_threshold: f64,
    /// Whether elastic capacity (provision/retire) is allowed; with
    /// `false` the supervisor falls back to shedding alone.
    pub elastic: bool,
    /// Overload detector settings, counted in *checks* (not rounds).
    pub overload: OverloadConfig,
    /// Per-sender rejection delta per check that triggers quarantine
    /// ([`QUARANTINE_REJECTION_THRESHOLD`]).
    pub quarantine_rejection_threshold: u64,
    /// Quarantine term, in checks ([`QUARANTINE_RELEASE_CHECKS`]).
    pub quarantine_release_checks: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            enabled: true,
            check_interval_rounds: CHECK_INTERVAL_ROUNDS,
            window: SUPERVISOR_WINDOW,
            action_cooldown_checks: ACTION_COOLDOWN_CHECKS,
            max_replicas: MAX_REPLICAS,
            provision_price_threshold: PROVISION_PRICE_THRESHOLD,
            elastic: true,
            overload: OverloadConfig {
                violation_threshold: 0.05,
                sustain_iters: 6,
                cooldown_iters: 24,
            },
            quarantine_rejection_threshold: QUARANTINE_REJECTION_THRESHOLD,
            quarantine_release_checks: QUARANTINE_RELEASE_CHECKS,
        }
    }
}

impl SupervisorConfig {
    /// An inert supervisor: no samples taken, no actions applied.
    pub fn disabled() -> Self {
        SupervisorConfig { enabled: false, ..SupervisorConfig::default() }
    }
}

/// Stable remediation names (events, CSV, and report surfaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemediationKind {
    /// Broadcast step-size reset + growth clamp.
    GammaCalm,
    /// Scripted controller outage restoring epoch-valid checkpoints.
    Rollback,
    /// Broadcast dual re-announcement probe.
    DualResync,
    /// Utility-aware eviction of the lowest-marginal elastic task.
    Shed,
    /// Elastic replica added to a saturated, pricey resource.
    Provision,
    /// Elastic replica removed from an idle, price-free resource.
    Retire,
    /// Sender silenced for repeatedly emitting invalid frames.
    Quarantine,
    /// Dual re-sync probe triggered by a firing critical SLO alert from
    /// the fleet collector.
    AlertProbe,
}

impl RemediationKind {
    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            RemediationKind::GammaCalm => "gamma-calm",
            RemediationKind::Rollback => "rollback",
            RemediationKind::DualResync => "dual-resync",
            RemediationKind::Shed => "shed",
            RemediationKind::Provision => "provision",
            RemediationKind::Retire => "retire",
            RemediationKind::Quarantine => "quarantine",
            RemediationKind::AlertProbe => "alert-probe",
        }
    }
}

/// One action the supervisor applied.
#[derive(Debug, Clone, PartialEq)]
pub struct Remediation {
    /// Protocol round at which the action fired.
    pub round: usize,
    /// What was done.
    pub kind: RemediationKind,
    /// Affected slot (resource for provision/retire, task for shed).
    pub slot: Option<usize>,
    /// Action magnitude: clamp multiple, replica count, victims shed.
    pub value: f64,
}

/// The closed-loop supervisor. Drive it by alternating
/// [`DistributedLla::run_rounds`] with [`check`](Self::check), or let
/// [`run_supervised`] do the pacing.
#[derive(Debug)]
pub struct SupervisorEngine {
    config: SupervisorConfig,
    diag: DiagnosticsEngine,
    monitor: OverloadMonitor,
    checks: usize,
    cooldown: u32,
    calm_multiple: f64,
    shed_batch: usize,
    provision_streak: u32,
    retire_streak: (usize, u32),
    actions: Vec<Remediation>,
    /// Per-sender rejected-frame totals at the previous check, for the
    /// quarantine policy's delta computation.
    last_rejections: Vec<(Address, u64)>,
    /// Quarantined agents and the checks left until release.
    quarantined: Vec<(Address, u32)>,
    /// Consecutive checks that saw new retransmit give-ups.
    give_up_strikes: u32,
    /// Give-up counter total at the previous check.
    last_give_ups: u64,
    /// The supervisor's own fleet scope (`agent="supervisor"` on the
    /// deployment's registry), created lazily on the first check since
    /// the engine is constructed before it meets a deployment.
    scope: Option<AgentScope>,
}

impl SupervisorEngine {
    /// A supervisor with the given policy.
    pub fn new(config: SupervisorConfig) -> Self {
        let diag = DiagnosticsEngine::with_window(config.window);
        let monitor = OverloadMonitor::new(config.overload);
        SupervisorEngine {
            config,
            diag,
            monitor,
            checks: 0,
            cooldown: 0,
            calm_multiple: CALM_INITIAL_MULTIPLE,
            shed_batch: 1,
            provision_streak: 0,
            retire_streak: (usize::MAX, 0),
            actions: Vec::new(),
            last_rejections: Vec::new(),
            quarantined: Vec::new(),
            give_up_strikes: 0,
            last_give_ups: 0,
            scope: None,
        }
    }

    /// The active policy.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Every remediation applied so far, in order.
    pub fn actions(&self) -> &[Remediation] {
        &self.actions
    }

    /// Checks performed so far.
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// The latest diagnosis of the supervisor's own window.
    pub fn diagnosis(&self) -> lla_telemetry::Diagnosis {
        self.diag.diagnose()
    }

    /// One supervision step: sample the deployment, classify, and apply
    /// at most one remediation class (graduated, cooldown-gated).
    /// Returns the actions applied this check (empty on a healthy or
    /// cooling system).
    pub fn check(&mut self, dist: &mut DistributedLla) -> Vec<Remediation> {
        if !self.config.enabled {
            return Vec::new();
        }
        self.checks += 1;
        self.scope
            .get_or_insert_with(|| {
                AgentScope::new(&dist.dist_telemetry().registry, "supervisor", AGENT_METRICS)
            })
            .inc(M_TICKS);
        let sample = dist.diag_sample();
        self.diag.push(sample);

        // The overload detector observes every check, cooldown or not —
        // its sustain counter must track real time.
        let lats = dist.allocation();
        let report = IterationReport {
            iteration: self.checks,
            utility: dist.utility(),
            max_resource_violation: dist.problem().max_resource_violation(lats.lats()),
            max_path_violation: dist.problem().max_path_violation(lats.lats()),
        };
        let overloaded = self.monitor.observe(&report);

        // The quarantine book runs every check, cooldown or not: releases
        // are a scheduled obligation and an actively hostile sender must
        // not enjoy the hysteresis granted to convergence remediation.
        let mut fired = Vec::new();
        self.quarantine_step(dist, &mut fired);

        if self.cooldown > 0 {
            self.cooldown -= 1;
            self.actions.extend(fired.iter().cloned());
            return fired;
        }

        let diagnosis = self.diag.diagnose();
        if !fired.is_empty() {
            // A quarantine action this check: skip convergence remediation
            // (the traffic change must settle first) but start the cooldown.
            self.cooldown = self.config.action_cooldown_checks;
            self.actions.extend(fired.iter().cloned());
            return fired;
        }
        if overloaded {
            // Sustained overload outranks the verdict: it *causes*
            // divergence, and capacity/shedding (not rollback) is the
            // graduated response to it.
            self.remediate_overload(dist, &mut fired);
        } else {
            self.shed_batch = 1;
        }
        // Verdict-driven remediation — also the fallback when overload
        // remediation is exhausted (every task inelastic, capacity at
        // the ceiling): a thrash or stall verdict still gets its cure.
        if fired.is_empty() {
            if diagnosis.confident {
                match diagnosis.verdict {
                    Verdict::Stalled => self.remediate_stall(dist, &mut fired),
                    Verdict::GammaThrash => self.remediate_thrash(dist, &mut fired),
                    Verdict::Diverging => self.remediate_divergence(dist, &mut fired),
                    Verdict::Converging | Verdict::Oscillating => {
                        // A settled window ends the calm-escalation episode.
                        if diagnosis.verdict == Verdict::Converging {
                            self.calm_multiple = CALM_INITIAL_MULTIPLE;
                        }
                    }
                }
            }
            if fired.is_empty() {
                self.alert_step(dist, &mut fired);
            }
            if fired.is_empty() && !overloaded {
                self.elastic_step(dist, &mut fired);
            }
        }
        if !fired.is_empty() {
            self.cooldown = self.config.action_cooldown_checks;
        }
        self.actions.extend(fired.iter().cloned());
        fired
    }

    fn record(
        &mut self,
        dist: &DistributedLla,
        kind: RemediationKind,
        slot: Option<usize>,
        value: f64,
        fired: &mut Vec<Remediation>,
    ) {
        let tel = dist.dist_telemetry();
        tel.remediations.inc();
        let mut ev = TelemetryEvent::new(dist.runtime().now(), "remediation")
            .with("action", kind.as_str())
            .with("value", value);
        if let Some(s) = slot {
            ev = ev.with("slot", s);
        }
        tel.events.emit(ev);
        fired.push(Remediation { round: dist.rounds(), kind, slot, value });
    }

    /// Fleet-alert-driven remediation: when the collector has a firing
    /// *critical* SLO alert (e.g. sustained fleet overload seen through
    /// the telemetry plane rather than the facade's own books), broadcast
    /// a dual re-sync probe so every agent re-announces its duals and the
    /// fleet's view of the pressure refreshes. Warning-severity alerts
    /// are observability signals only. A no-op without a collector —
    /// deployments with shipping off behave exactly as before.
    fn alert_step(&mut self, dist: &mut DistributedLla, fired: &mut Vec<Remediation>) {
        let critical =
            dist.firing_alerts().iter().filter(|a| a.severity == AlertSeverity::Critical).count();
        if critical == 0 {
            return;
        }
        dist.broadcast_dual_resync();
        self.record(dist, RemediationKind::AlertProbe, None, critical as f64, fired);
    }

    /// Adversarial-traffic maintenance, run every check:
    ///
    /// 1. Quarantine terms count down; an expired term releases the agent
    ///    and broadcasts a dual re-sync so it warms back in immediately.
    /// 2. Any sender whose attributed frame-rejection count grew by
    ///    [`quarantine_rejection_threshold`](SupervisorConfig::quarantine_rejection_threshold)
    ///    or more since the last check is quarantined.
    /// 3. Retransmit give-ups escalate: the first striking check gets a
    ///    dual re-sync (the abandoned update's information re-flows with
    ///    the next announcements); repeated strikes quarantine the worst
    ///    rejection offender if one exists — an agent that both starves
    ///    the reliable path of acks and emits garbage is presumed sick.
    fn quarantine_step(&mut self, dist: &mut DistributedLla, fired: &mut Vec<Remediation>) {
        let mut released = false;
        self.quarantined.retain_mut(|(addr, left)| {
            if *left > 1 {
                *left -= 1;
                return true;
            }
            released |= dist.release_agent(*addr);
            false
        });
        if released {
            dist.broadcast_dual_resync();
            self.record(dist, RemediationKind::DualResync, None, 0.0, fired);
        }

        let current = dist.frame_rejections_by_sender();
        for &(addr, total) in &current {
            let before =
                self.last_rejections.iter().find(|&&(a, _)| a == addr).map_or(0, |&(_, n)| n);
            let delta = total.saturating_sub(before);
            if delta >= self.config.quarantine_rejection_threshold {
                self.quarantine(dist, addr, delta, fired);
            }
        }
        self.last_rejections = current;

        let give_ups = dist.dist_telemetry().retransmit_give_ups.get();
        let fresh_give_ups = give_ups.saturating_sub(self.last_give_ups);
        self.last_give_ups = give_ups;
        if fresh_give_ups == 0 {
            self.give_up_strikes = 0;
            return;
        }
        self.give_up_strikes += 1;
        if self.give_up_strikes == 1 {
            dist.broadcast_dual_resync();
            self.record(dist, RemediationKind::DualResync, None, fresh_give_ups as f64, fired);
        } else if let Some(&(addr, total)) =
            self.last_rejections.iter().max_by_key(|&&(_, n)| n).filter(|&&(_, n)| n > 0)
        {
            self.quarantine(dist, addr, total, fired);
        } else {
            dist.broadcast_dual_resync();
            self.record(dist, RemediationKind::DualResync, None, fresh_give_ups as f64, fired);
        }
    }

    /// Quarantines `addr` (idempotent) and records the action.
    fn quarantine(
        &mut self,
        dist: &mut DistributedLla,
        addr: Address,
        rejections: u64,
        fired: &mut Vec<Remediation>,
    ) {
        if !dist.quarantine_agent(addr) {
            return;
        }
        self.quarantined.push((addr, self.config.quarantine_release_checks.max(1)));
        let slot = match addr {
            Address::Resource(s) | Address::Controller(s) => Some(s),
            Address::ControlPlane | Address::Collector => None,
        };
        self.record(dist, RemediationKind::Quarantine, slot, rejections as f64, fired);
    }

    /// Stall: frozen agents or pinned prices while infeasible. A dual
    /// re-sync probe makes every agent re-announce immediately, which
    /// refreshes staleness clocks without waiting for tick phases.
    fn remediate_stall(&mut self, dist: &mut DistributedLla, fired: &mut Vec<Remediation>) {
        dist.broadcast_dual_resync();
        self.diag.clear();
        self.record(dist, RemediationKind::DualResync, None, 0.0, fired);
    }

    /// Gamma thrash: adaptive steps repeatedly doubling and resetting.
    /// Calm resets them and clamps future growth; each escalation within
    /// an episode tightens the clamp by [`CALM_TIGHTEN`].
    fn remediate_thrash(&mut self, dist: &mut DistributedLla, fired: &mut Vec<Remediation>) {
        let clamp = self.calm_multiple;
        dist.broadcast_gamma_calm(clamp);
        self.calm_multiple = (clamp * CALM_TIGHTEN).max(CALM_FLOOR_MULTIPLE);
        self.diag.clear();
        self.record(dist, RemediationKind::GammaCalm, None, clamp, fired);
    }

    /// Divergence: sustained constraint violation with no downward
    /// trend — the duals are poisoned. A brief scripted outage of every
    /// live controller forces a restart; each controller restores its
    /// last epoch-valid checkpoint (warm rollback) or restarts cold if
    /// validation rejects it.
    fn remediate_divergence(&mut self, dist: &mut DistributedLla, fired: &mut Vec<Remediation>) {
        let now = dist.runtime().now();
        let outage = ROLLBACK_OUTAGE_ROUNDS * dist.config().round_length;
        let mut plan = FaultPlan::new();
        let slots: Vec<usize> = dist.task_slots().to_vec();
        for &slot in &slots {
            plan = plan.crash_for(now + 1e-9, outage, Address::Controller(slot));
        }
        dist.schedule_faults(&plan);
        self.diag.clear();
        self.record(dist, RemediationKind::Rollback, None, slots.len() as f64, fired);
    }

    /// Sustained overload: capacity first (provision the priciest
    /// saturated resource), shedding as the fallback — and the shed
    /// batch escalates on every consecutive overloaded action.
    fn remediate_overload(&mut self, dist: &mut DistributedLla, fired: &mut Vec<Remediation>) {
        if self.try_provision(dist, fired) {
            return;
        }
        let batch = self.shed_batch;
        for _ in 0..batch {
            let lats = dist.allocation();
            let Some(victim) = select_victim(dist.problem(), lats.lats()) else {
                break;
            };
            let slot = dist.task_slots()[victim.index()];
            dist.evict_task(slot).expect("victim is live");
            self.monitor.note_eviction();
            self.record(dist, RemediationKind::Shed, Some(slot), batch as f64, fired);
        }
        if fired.is_empty() {
            // Every task is inelastic and capacity is exhausted: nothing
            // graduated is left. Surface it rather than spin.
            dist.dist_telemetry().events.emit(
                TelemetryEvent::new(dist.runtime().now(), "remediation_exhausted")
                    .with("violation", self.diag.diagnose().violation_factor),
            );
        } else {
            self.shed_batch += 1;
        }
    }

    /// Price-driven elastic capacity outside overload: provision on a
    /// sustained pricey+saturated signal, retire on a sustained
    /// idle+price-free signal. The provision and retire bars are far
    /// apart ([`PROVISION_USAGE_FRACTION`] vs [`RETIRE_USAGE_FRACTION`])
    /// so the loop cannot flap.
    fn elastic_step(&mut self, dist: &mut DistributedLla, fired: &mut Vec<Remediation>) {
        if !self.config.elastic {
            return;
        }
        if self.provision_candidate(dist).is_some() {
            self.provision_streak += 1;
            if self.provision_streak >= PROVISION_SUSTAIN_CHECKS {
                self.try_provision(dist, fired);
            }
        } else {
            self.provision_streak = 0;
        }
        if !fired.is_empty() {
            return;
        }
        if let Some(slot) = self.retire_candidate(dist) {
            let streak = if self.retire_streak.0 == slot { self.retire_streak.1 + 1 } else { 1 };
            self.retire_streak = (slot, streak);
            if streak >= RETIRE_SUSTAIN_CHECKS {
                let replicas = dist.resource_replicas(slot).expect("candidate is live") - 1;
                dist.set_resource_replicas(slot, replicas).expect("candidate is live");
                self.retire_streak = (usize::MAX, 0);
                self.record(dist, RemediationKind::Retire, Some(slot), f64::from(replicas), fired);
            }
        } else {
            self.retire_streak = (usize::MAX, 0);
        }
    }

    /// The priciest saturated resource still under the replica ceiling,
    /// as `(slot, price)` — the admission probe for placement.
    fn provision_candidate(&self, dist: &mut DistributedLla) -> Option<(usize, f64)> {
        let lats = dist.allocation();
        let mut best: Option<(usize, f64)> = None;
        for dense in 0..dist.problem().resources().len() {
            let slot = dist.resource_slots()[dense];
            let Some(mu) = dist.resource_price(slot) else { continue };
            let problem = dist.problem();
            let r = &problem.resources()[dense];
            let usage = problem.resource_usage(r.id(), lats.lats());
            let saturated =
                r.availability() > 0.0 && usage / r.availability() >= PROVISION_USAGE_FRACTION;
            if mu >= self.config.provision_price_threshold
                && saturated
                && r.replicas() < self.config.max_replicas
                && best.is_none_or(|(_, b)| mu > b)
            {
                best = Some((slot, mu));
            }
        }
        best
    }

    /// An idle elastic resource: more than one replica, zero price, low
    /// usage. Lowest-price first; dense order breaks ties.
    fn retire_candidate(&self, dist: &mut DistributedLla) -> Option<usize> {
        let lats = dist.allocation();
        for dense in 0..dist.problem().resources().len() {
            let slot = dist.resource_slots()[dense];
            let Some(mu) = dist.resource_price(slot) else { continue };
            let problem = dist.problem();
            let r = &problem.resources()[dense];
            let usage = problem.resource_usage(r.id(), lats.lats());
            if r.replicas() > 1
                && mu <= RETIRE_PRICE_EPSILON
                && r.availability() > 0.0
                && usage / r.availability() <= RETIRE_USAGE_FRACTION
            {
                return Some(slot);
            }
        }
        None
    }

    /// Provisions one replica on the current candidate; `true` if an
    /// action fired.
    fn try_provision(&mut self, dist: &mut DistributedLla, fired: &mut Vec<Remediation>) -> bool {
        if !self.config.elastic {
            return false;
        }
        let Some((slot, _)) = self.provision_candidate(dist) else {
            return false;
        };
        let replicas = dist.resource_replicas(slot).expect("candidate is live") + 1;
        dist.set_resource_replicas(slot, replicas).expect("candidate is live");
        self.monitor.note_admission();
        self.provision_streak = 0;
        self.record(dist, RemediationKind::Provision, Some(slot), f64::from(replicas), fired);
        true
    }
}

/// Runs `rounds` protocol rounds with supervision interleaved every
/// [`check_interval_rounds`](SupervisorConfig::check_interval_rounds).
/// With a disabled supervisor this is exactly
/// [`DistributedLla::run_rounds`] — same rounds, same messages, same
/// event log bytes. Returns the remediations applied during this span.
pub fn run_supervised(
    dist: &mut DistributedLla,
    sup: &mut SupervisorEngine,
    rounds: usize,
) -> Vec<Remediation> {
    if !sup.config().enabled {
        dist.run_rounds(rounds);
        return Vec::new();
    }
    let interval = sup.config().check_interval_rounds.max(1);
    let mut fired = Vec::new();
    let mut done = 0;
    while done < rounds {
        let chunk = interval.min(rounds - done);
        dist.run_rounds(chunk);
        done += chunk;
        fired.extend(sup.check(dist));
    }
    fired
}
