//! Fleet-telemetry soak: a seeded distributed run with the telemetry
//! plane *on* (per-agent reports shipped every round over a lossy
//! network) and a scripted overload window in the middle, so the
//! default `fleet-overload` SLO rule must walk pending → firing while
//! the window is open and resolve after capacity recovers.
//!
//! Everything is derived from the virtual clock and seeded state, so
//! two soaks with the same config produce byte-identical alert
//! timelines — the determinism the golden-file CI smoke test pins.

use crate::paper_dist_config;
use lla_core::StepSizePolicy;
use lla_dist::fault::FaultPlan;
use lla_dist::{DistConfig, DistTelemetry, DistributedLla, NetworkModel};
use lla_telemetry::{Event, TelemetryHub};
use lla_workloads::base_workload;

/// One protocol round of virtual time (the deployment default).
const ROUND: f64 = 10.0;

/// Configuration of the fleet-telemetry soak.
#[derive(Debug, Clone, Copy)]
pub struct FleetSoakConfig {
    /// Network + tick seed.
    pub seed: u64,
    /// Message-loss probability (also applied to telemetry reports).
    pub loss: f64,
    /// Duplication probability (exercises the collector's seq dedupe).
    pub duplication: f64,
    /// Rounds before the overload window opens.
    pub warmup_rounds: usize,
    /// Rounds the overload window stays open.
    pub overload_rounds: usize,
    /// Rounds run after capacity recovers.
    pub recovery_rounds: usize,
    /// Availability multiplier during the window (< 1 starves resource 0
    /// below demand, which is what makes its agent report overload).
    pub availability_drop: f64,
}

impl Default for FleetSoakConfig {
    fn default() -> Self {
        FleetSoakConfig {
            seed: 2008,
            loss: 0.05,
            duplication: 0.05,
            warmup_rounds: 150,
            overload_rounds: 80,
            recovery_rounds: 150,
            availability_drop: 0.35,
        }
    }
}

impl FleetSoakConfig {
    /// Virtual time at which the overload window opens.
    pub fn overload_start(&self) -> f64 {
        self.warmup_rounds as f64 * ROUND
    }

    /// Virtual time at which capacity recovers.
    pub fn overload_end(&self) -> f64 {
        (self.warmup_rounds + self.overload_rounds) as f64 * ROUND
    }
}

/// What the soak observed, derived entirely from virtual-clock state.
#[derive(Debug, Clone)]
pub struct FleetSoakReport {
    /// The rendered fleet panel at the end of the run: the collector's
    /// per-agent table plus the alert timeline ([`crate::render::fleet_panel`]).
    pub panel: String,
    /// Every `alert` event, in emission order.
    pub alerts: Vec<Event>,
    /// Whether `fleet-overload` was in the Firing state at some point
    /// while the window was open (grace: one round past close, since the
    /// collector evaluates at phase 0.9 of the round). Episode-based: an
    /// alert that entered Firing before the window opened and stayed
    /// firing through it counts — the transition event itself may
    /// predate the scripted fault when the fleet is organically noisy.
    pub fired_during_overload: bool,
    /// Whether every firing episode overlapping the window resolved —
    /// the scripted overload did not leave the alert stuck firing. The
    /// fleet may still flap organically after recovery (the base
    /// workload under loss trips the zero-threshold rule on transient
    /// congestion); those episodes show up in `firing_at_end`, not here.
    pub resolved_after_recovery: bool,
    /// Alerts still firing when the soak ended.
    pub firing_at_end: usize,
    /// Collector merge accounting: reports merged into the fleet view.
    pub reports_merged: u64,
    /// Duplicate/old reports discarded by sequence dedupe.
    pub reports_stale: u64,
    /// Reports counted lost (gaps older than the reorder horizon).
    pub reports_lost: u64,
    /// Watermark regressions the collector refused (0 in a healthy run).
    pub watermark_regressions: u64,
}

/// Runs the fleet soak: base workload, telemetry shipping every round,
/// loss + duplication on every message (reports included), and an
/// availability drop on resource 0 over the configured window.
pub fn run_fleet_soak(config: &FleetSoakConfig, hub: &TelemetryHub) -> FleetSoakReport {
    let problem = base_workload();
    let original_availability = problem.resources()[0].availability();
    let mut dist = DistributedLla::with_telemetry(
        problem,
        DistConfig {
            network: NetworkModel::lossy(0.5, 1.0, config.loss)
                .with_duplication(config.duplication),
            seed: config.seed,
            report_cadence: ROUND,
            ..paper_dist_config(StepSizePolicy::default())
        },
        DistTelemetry::from_hub(hub),
    );
    let plan = FaultPlan::new()
        .set_availability(
            config.overload_start(),
            0,
            original_availability * config.availability_drop,
        )
        .set_availability(config.overload_end(), 0, original_availability);
    dist.schedule_faults(&plan);
    dist.run_rounds(config.warmup_rounds + config.overload_rounds + config.recovery_rounds);

    let firing = dist.firing_alerts();
    let alerts: Vec<Event> =
        hub.events.snapshot().into_iter().filter(|e| e.kind == "alert").collect();
    let view = dist.fleet_view().expect("the soak runs with shipping on");
    let panel = crate::render::fleet_panel(view, &alerts, 100);
    let (merged, stale, lost, regressions) = (
        view.reports_merged(),
        view.reports_stale(),
        view.reports_lost(),
        view.watermark_regressions(),
    );
    // Reconstruct the rule's Firing episodes as (entered, left) virtual-time
    // intervals; an episode still open at the end of the soak runs to +inf.
    let mut episodes: Vec<(f64, f64)> = Vec::new();
    let mut entered: Option<f64> = None;
    for e in &alerts {
        if e.field("rule").map(ToString::to_string) != Some("fleet-overload".to_owned()) {
            continue;
        }
        match e.field("state").map(ToString::to_string).as_deref() {
            Some("firing") => entered = entered.or(Some(e.time)),
            Some("resolved") => {
                if let Some(start) = entered.take() {
                    episodes.push((start, e.time));
                }
            }
            _ => {}
        }
    }
    if let Some(start) = entered {
        episodes.push((start, f64::INFINITY));
    }
    let window = (config.overload_start(), config.overload_end() + ROUND);
    let overlapping: Vec<(f64, f64)> = episodes
        .iter()
        .copied()
        .filter(|&(entered, left)| entered <= window.1 && left >= window.0)
        .collect();
    let fired_during_overload = !overlapping.is_empty();
    let resolved_after_recovery =
        fired_during_overload && overlapping.iter().all(|&(_, left)| left.is_finite());
    FleetSoakReport {
        panel,
        alerts,
        fired_during_overload,
        resolved_after_recovery,
        firing_at_end: firing.len(),
        reports_merged: merged,
        reports_stale: stale,
        reports_lost: lost,
        watermark_regressions: regressions,
    }
}

impl FleetSoakReport {
    /// The alert timeline as JSONL (one event per line), the byte-stable
    /// artifact the golden CI test diffs.
    pub fn alerts_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.alerts {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_soak_fires_and_resolves_the_overload_alert() {
        let hub = TelemetryHub::recording();
        let report = run_fleet_soak(&FleetSoakConfig::default(), &hub);
        assert!(report.fired_during_overload, "alerts: {}", report.alerts_jsonl());
        assert!(report.resolved_after_recovery, "alerts: {}", report.alerts_jsonl());
        assert_eq!(report.watermark_regressions, 0, "watermarks are monotone per agent");
        assert!(report.reports_merged > 0, "reports flow despite loss");
        assert!(report.reports_stale > 0, "duplication must exercise seq dedupe");
    }

    #[test]
    fn fleet_soak_alert_timeline_is_byte_deterministic() {
        let config = FleetSoakConfig::default();
        let hub_a = TelemetryHub::recording();
        let a = run_fleet_soak(&config, &hub_a);
        let hub_b = TelemetryHub::recording();
        let b = run_fleet_soak(&config, &hub_b);
        assert_eq!(a.alerts_jsonl(), b.alerts_jsonl());
        assert_eq!(a.panel, b.panel);
        assert_eq!(hub_a.events.to_jsonl(), hub_b.events.to_jsonl());
    }
}
