//! The fleet telemetry plane: per-agent scoped metrics shipped over the
//! wire to a collector agent with a deterministic SLO alerting engine.
//!
//! Every [`ResourceAgent`](crate::agents::ResourceAgent) and
//! [`TaskController`](crate::agents::TaskController) carries an
//! [`AgentTelemetry`]: a per-agent [`AgentScope`] of counters (labeled
//! `agent="resource[r]"` / `agent="controller[t]"` series on the shared
//! registry) plus, when shipping is enabled, a [`DeltaTracker`] that
//! periodically drains the deltas into a
//! [`Message::TelemetryReport`] addressed to [`Address::Collector`].
//! Reports ride the same simulated network — and, in wire mode, the same
//! validated codec — as protocol traffic, so they are lost, duplicated,
//! reordered, partitioned, and corrupted exactly like data-plane
//! messages.
//!
//! The [`CollectorAgent`] merges whatever arrives into a deterministic
//! fleet view (a [`TelemetryCollector`]) and evaluates declarative
//! [`SloRule`]s on the virtual clock every tick, emitting
//! pending → firing → resolved alert transitions as structured events.
//! Shipping defaults *off* ([`DistConfig::report_cadence`] `= 0.0`):
//! with it off no collector is registered, no report is ever sent, and a
//! deployment is byte-identical to one built before this module existed.
//!
//! [`DistConfig::report_cadence`]: crate::system::DistConfig::report_cadence

use crate::protocol::{Address, Message};
use crate::runtime::{Actor, Outbox};
use crate::telemetry::DistTelemetry;
use lla_telemetry::{
    AgentScope, AlertCmp, AlertSeverity, DeltaTracker, FiringAlert, MetricDef, SloEngine, SloRule,
    TelemetryCollector, TelemetryReport,
};

/// Dictionary slot: agent ticks executed (dormant agents excluded).
pub const M_TICKS: usize = 0;
/// Dictionary slot: resource price (μ) gradient steps applied.
pub const M_PRICE_UPDATES: usize = 1;
/// Dictionary slot: controller latency re-allocations computed.
pub const M_LATENCY_UPDATES: usize = 2;
/// Dictionary slot: protocol messages delivered to the agent.
pub const M_MESSAGES_IN: usize = 3;
/// Dictionary slot: protocol messages the agent handed to the network.
pub const M_MESSAGES_OUT: usize = 4;
/// Dictionary slot: ticks spent frozen on last-known-good state.
pub const M_DEGRADED_TICKS: usize = 5;
/// Dictionary slot: resource ticks that saw usage exceed availability —
/// the overload signal the default SLO rules alert on.
pub const M_OVERLOADED_TICKS: usize = 6;
/// Dictionary slot: message values refused by numeric guardrails.
pub const M_VALUE_REJECTIONS: usize = 7;
/// Dictionary slot: controller checkpoints written.
pub const M_CHECKPOINTS: usize = 8;

/// The fleet metric dictionary, shared verbatim by every reporting agent
/// and the collector: reports carry `M_*` slot indices, not names.
pub const AGENT_METRICS: &[MetricDef] = &[
    MetricDef { name: "ticks", help: "agent ticks executed" },
    MetricDef { name: "price_updates", help: "resource price gradient steps applied" },
    MetricDef { name: "latency_updates", help: "controller latency re-allocations computed" },
    MetricDef { name: "messages_in", help: "protocol messages delivered to the agent" },
    MetricDef { name: "messages_out", help: "protocol messages handed to the network" },
    MetricDef { name: "degraded_ticks", help: "ticks spent frozen on last-known-good state" },
    MetricDef { name: "overloaded_ticks", help: "resource ticks with usage above availability" },
    MetricDef { name: "value_rejections", help: "message values refused by numeric guardrails" },
    MetricDef { name: "checkpoints", help: "controller checkpoints written" },
];

/// Shipping state for one agent: how often to report and what has
/// already been shipped.
#[derive(Debug, Clone)]
struct Shipper {
    tracker: DeltaTracker,
    cadence: f64,
    next_at: f64,
}

/// One agent's slice of the fleet telemetry plane: a scoped counter set
/// plus (when shipping is enabled) the delta tracker that drains it onto
/// the wire.
///
/// The scope writes are passive — labeled counters on the shared
/// registry, no messages, no randomness — so an agent with shipping
/// disabled behaves bit-identically to an uninstrumented one. The
/// shipping books (sequence number, shipped totals) are treated as
/// *durable* agent state: they survive [`Actor::on_crash`] untouched, so
/// the per-agent sequence stays monotone across restarts and the
/// collector never sees a sequence rewind.
#[derive(Debug, Clone)]
pub struct AgentTelemetry {
    scope: AgentScope,
    shipper: Option<Shipper>,
}

impl AgentTelemetry {
    /// A scope labeled `agent = addr` on `tel`'s registry; shipping every
    /// `cadence` virtual ms (`0.0` disables shipping entirely). On a
    /// disabled registry without shipping it holds nothing and allocates
    /// nothing: the inert default of an agent built outside a deployment.
    pub fn new(tel: &DistTelemetry, addr: Address, cadence: f64) -> Self {
        let scope = AgentScope::new(&tel.registry, addr, AGENT_METRICS);
        let shipper = (cadence > 0.0).then(|| Shipper {
            tracker: DeltaTracker::new(AGENT_METRICS.len()),
            cadence,
            next_at: cadence,
        });
        AgentTelemetry { scope, shipper }
    }

    /// Increment dictionary slot `slot` by one.
    pub fn inc(&self, slot: usize) {
        self.scope.inc(slot);
    }

    /// Increment dictionary slot `slot` by `n`.
    pub fn add(&self, slot: usize, n: u64) {
        self.scope.add(slot, n);
    }

    /// Reports emitted so far (the last shipped sequence number).
    pub fn emitted(&self) -> u64 {
        self.shipper.as_ref().map_or(0, |s| s.tracker.emitted())
    }

    /// If shipping is enabled and the cadence has elapsed, drains the
    /// scope's deltas into a [`Message::TelemetryReport`] from `from` and
    /// queues it for [`Address::Collector`]. Called at the end of the
    /// owning agent's tick, so the watermark covers every update through
    /// `now` inclusive.
    pub fn maybe_report(&mut self, now: f64, from: Address, outbox: &mut Outbox) {
        let Some(shipper) = self.shipper.as_mut() else {
            return;
        };
        if now < shipper.next_at {
            return;
        }
        shipper.next_at = now + shipper.cadence;
        let report = shipper.tracker.drain(&self.scope, now);
        let deltas = report
            .deltas
            .iter()
            .map(|&(slot, delta)| (slot as u8, u32::try_from(delta).unwrap_or(u32::MAX)))
            .collect();
        outbox.send(
            Address::Collector,
            Message::TelemetryReport { from, seq: report.seq, watermark: report.watermark, deltas },
        );
    }
}

/// The default alert rules a deployment installs when shipping is
/// enabled. All thresholds compare the *per-evaluation delta* (one
/// collector tick, i.e. one round):
///
/// * `fleet-overload` (critical) — any resource tick saw usage above
///   availability, sustained for two rounds. The supervisor treats a
///   firing critical alert as a remediation trigger.
/// * `fleet-degraded` (warning) — agents are freezing on stale state.
/// * `fleet-value-rejections` (warning) — guardrails are refusing
///   in-flight values; fires immediately (each rejection is discrete
///   evidence of corruption or hostility).
pub fn default_slo_rules(round_length: f64) -> Vec<SloRule> {
    vec![
        SloRule {
            name: "fleet-overload".to_owned(),
            metric: "overloaded_ticks".to_owned(),
            agent: None,
            cmp: AlertCmp::Gt,
            threshold: 0.0,
            for_ms: 2.0 * round_length,
            severity: AlertSeverity::Critical,
        },
        SloRule {
            name: "fleet-degraded".to_owned(),
            metric: "degraded_ticks".to_owned(),
            agent: None,
            cmp: AlertCmp::Gt,
            threshold: 0.0,
            for_ms: 2.0 * round_length,
            severity: AlertSeverity::Warning,
        },
        SloRule {
            name: "fleet-value-rejections".to_owned(),
            metric: "value_rejections".to_owned(),
            agent: None,
            cmp: AlertCmp::Gt,
            threshold: 0.0,
            for_ms: 0.0,
            severity: AlertSeverity::Warning,
        },
    ]
}

/// The fleet telemetry collector, deployed at [`Address::Collector`]
/// when shipping is enabled. Purely a sink: it ingests
/// [`Message::TelemetryReport`]s in `on_message`, and on every tick
/// evaluates the SLO rules against the merged view and re-publishes the
/// fleet tables into the shared registry. It never sends a message, so
/// its presence cannot perturb the protocol.
#[derive(Debug)]
pub struct CollectorAgent {
    fleet: TelemetryCollector,
    slo: SloEngine,
    tel: DistTelemetry,
}

impl CollectorAgent {
    /// A collector over the [`AGENT_METRICS`] dictionary with the given
    /// alert rules, publishing into `tel`'s registry and event log.
    pub fn new(tel: DistTelemetry, rules: Vec<SloRule>) -> Self {
        CollectorAgent {
            fleet: TelemetryCollector::new(AGENT_METRICS),
            slo: SloEngine::new(rules),
            tel,
        }
    }

    /// The merged fleet view.
    pub fn fleet(&self) -> &TelemetryCollector {
        &self.fleet
    }

    /// The alert engine (rules, states, firing set).
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// Replace the alert rule set; all alert state resets to inactive.
    pub fn set_rules(&mut self, rules: Vec<SloRule>) {
        self.slo.set_rules(rules);
    }

    /// Every currently-firing alert.
    pub fn firing(&self) -> Vec<FiringAlert> {
        self.slo.firing()
    }
}

impl Actor for CollectorAgent {
    fn on_tick(&mut self, now: f64, _outbox: &mut Outbox) {
        self.slo.evaluate(now, &self.fleet, &self.tel.events);
        self.fleet.export_into(&self.tel.registry);
    }

    fn on_message(&mut self, _now: f64, msg: Message, _outbox: &mut Outbox) {
        if let Message::TelemetryReport { from, seq, watermark, deltas } = msg {
            let report = TelemetryReport {
                agent: from.to_string(),
                seq,
                watermark,
                deltas: deltas.iter().map(|&(s, d)| (s as usize, u64::from(d))).collect(),
            };
            self.fleet.ingest(&report);
        }
    }

    // A crashed collector keeps its merged view: the fleet tables are an
    // *observer's* books, and wiping them would turn every post-restart
    // report into a spurious duplicate (agents' sequence numbers are
    // durable). Semantically the collector checkpoints its view on every
    // merge.

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(agent: &mut AgentTelemetry, now: f64, from: Address) -> Vec<(Address, Message)> {
        let mut outbox = Outbox::default();
        agent.maybe_report(now, from, &mut outbox);
        outbox.into_messages()
    }

    #[test]
    fn disabled_agent_telemetry_never_ships() {
        let tel = DistTelemetry::disabled();
        let mut agent = AgentTelemetry::new(&tel, Address::Resource(0), 0.0);
        agent.inc(M_TICKS);
        assert!(tick(&mut agent, 1e9, Address::Resource(0)).is_empty());
        assert_eq!(agent.emitted(), 0);
    }

    #[test]
    fn cadence_gates_reports_and_deltas_are_slot_encoded() {
        // A live registry: scope increments on a disabled registry are
        // no-ops, so shipping only carries content when telemetry is on.
        let hub = lla_telemetry::TelemetryHub::recording();
        let tel = DistTelemetry::from_hub(&hub);
        let mut agent = AgentTelemetry::new(&tel, Address::Resource(3), 10.0);
        agent.inc(M_TICKS);
        agent.add(M_MESSAGES_OUT, 4);
        assert!(tick(&mut agent, 5.0, Address::Resource(3)).is_empty(), "before the cadence");
        let msgs = tick(&mut agent, 10.0, Address::Resource(3));
        assert_eq!(msgs.len(), 1);
        let (to, msg) = &msgs[0];
        assert_eq!(*to, Address::Collector);
        match msg {
            Message::TelemetryReport { from, seq, watermark, deltas } => {
                assert_eq!(*from, Address::Resource(3));
                assert_eq!(*seq, 1);
                assert_eq!(*watermark, 10.0);
                assert_eq!(deltas, &[(M_TICKS as u8, 1), (M_MESSAGES_OUT as u8, 4)]);
            }
            other => panic!("expected a telemetry report, got {other:?}"),
        }
        // Idle period: the next report still ships (empty deltas) so the
        // collector's watermark keeps advancing.
        let msgs = tick(&mut agent, 20.0, Address::Resource(3));
        match &msgs[0].1 {
            Message::TelemetryReport { seq, deltas, .. } => {
                assert_eq!(*seq, 2);
                assert!(deltas.is_empty());
            }
            other => panic!("expected a telemetry report, got {other:?}"),
        }
        assert_eq!(agent.emitted(), 2);
    }

    #[test]
    fn collector_merges_reports_and_default_rules_fire_on_overload() {
        use lla_telemetry::{AlertState, TelemetryHub};
        let hub = TelemetryHub::recording();
        let tel = DistTelemetry::from_hub(&hub);
        let mut collector = CollectorAgent::new(tel, default_slo_rules(10.0));
        let mut outbox = Outbox::default();
        let overload = |seq: u64, watermark: f64, n: u32| Message::TelemetryReport {
            from: Address::Resource(0),
            seq,
            watermark,
            deltas: if n > 0 { vec![(M_OVERLOADED_TICKS as u8, n)] } else { vec![] },
        };
        // Baseline evaluation, then two rounds of sustained overload.
        collector.on_message(9.0, overload(1, 9.0, 0), &mut outbox);
        collector.on_tick(9.0, &mut outbox);
        collector.on_message(19.0, overload(2, 19.0, 1), &mut outbox);
        collector.on_tick(19.0, &mut outbox);
        assert_eq!(collector.slo().state(0), AlertState::Pending { since: 19.0 });
        collector.on_message(29.0, overload(3, 29.0, 1), &mut outbox);
        collector.on_tick(29.0, &mut outbox);
        collector.on_message(39.0, overload(4, 39.0, 1), &mut outbox);
        collector.on_tick(39.0, &mut outbox);
        assert_eq!(collector.firing().len(), 1);
        assert_eq!(collector.firing()[0].rule, "fleet-overload");
        // Recovery resolves.
        collector.on_message(49.0, overload(5, 49.0, 0), &mut outbox);
        collector.on_tick(49.0, &mut outbox);
        assert!(collector.firing().is_empty());
        assert!(outbox.is_empty(), "the collector must never send");
        // The fleet view exported into the shared registry.
        let text = hub.metrics.prometheus_text();
        assert!(
            text.contains("lla_fleet_overloaded_ticks_total{agent=\"resource[0]\"} 3"),
            "{text}"
        );
        // The alert timeline landed in the event log.
        assert_eq!(hub.events.count_kind("alert"), 3, "pending, firing, resolved");
    }
}
