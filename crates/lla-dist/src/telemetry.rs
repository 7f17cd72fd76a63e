//! Telemetry wiring for the distributed runtime and agents.
//!
//! [`DistTelemetry`] bundles the counter handles and the event log that
//! the runtime, the agents, and the
//! [`DistributedLla`](crate::system::DistributedLla) facade all share. Every handle is cheap to clone
//! (`Arc`s inside) and collapses to a branch-on-bool no-op when built
//! from a disabled hub, so the default deployment carries telemetry at
//! zero algorithmic cost — instrumentation is strictly *passive*: it
//! never sends messages, draws randomness, or touches a float the
//! algorithm uses, which is what keeps the perfect-network runs
//! bit-equivalent to the centralized optimizer.
//!
//! Frequency discipline: high-rate facts (messages, retransmits,
//! checkpoint saves, degraded ticks) are counters only; *transitions and
//! rare discrete facts* (crash, restart, partition, membership, shed,
//! checkpoint restore, staleness-freeze enter/exit) are additionally
//! emitted as [`Event`](lla_telemetry::Event)s stamped with the virtual
//! clock — which is why a fixed-seed chaos soak yields a byte-identical
//! JSONL event log on every run.

use lla_telemetry::{Counter, EventLog, MetricsRegistry, Profiler, SpanRecorder, TelemetryHub};

/// Shared counter handles + event log for the `lla-dist` layer.
#[derive(Debug, Clone)]
pub struct DistTelemetry {
    /// The registry every handle was created on — kept so per-agent
    /// [`AgentScope`](lla_telemetry::AgentScope)s and the fleet
    /// collector's export can register labeled series on the same
    /// surface. Disabled registries yield no-op handles, preserving the
    /// zero-cost default.
    pub registry: MetricsRegistry,
    /// Virtual-clock-stamped structured events.
    pub events: EventLog,
    /// Causal spans: one trace per tick-initiated message chain, stamped
    /// with the virtual clock (disabled by default; see
    /// [`with_spans`](Self::with_spans)).
    pub spans: SpanRecorder,
    /// Phase profiler for the event loop: `tick` / `dispatch` scopes per
    /// processed runtime event (disabled by default; see
    /// [`with_profiler`](Self::with_profiler)). Wall-clock only — never
    /// part of the deterministic virtual-clock exports.
    pub profiler: Profiler,
    /// Messages handed to the network.
    pub messages_sent: Counter,
    /// Messages dropped by random network loss.
    pub messages_dropped: Counter,
    /// Extra copies injected by network duplication.
    pub messages_duplicated: Counter,
    /// Deliveries scheduled to arrive before an earlier send to the same
    /// destination (out-of-order arrivals).
    pub messages_reordered: Counter,
    /// Messages dropped at send time by an active partition.
    pub dropped_by_partition: Counter,
    /// Deliveries discarded because the receiver was crashed.
    pub dropped_at_crashed: Counter,
    /// Crash faults executed.
    pub crashes: Counter,
    /// Restart faults executed.
    pub restarts: Counter,
    /// Controller checkpoints written to the store.
    pub checkpoint_saves: Counter,
    /// Controller restarts that restored from a checkpoint (failovers).
    pub checkpoint_restores: Counter,
    /// Transitions into staleness-TTL degraded mode (freezes).
    pub staleness_freezes: Counter,
    /// Ticks skipped while degraded (frozen, holding last-known-good).
    pub degraded_ticks: Counter,
    /// Reliable-dissemination retransmissions (unacked updates resent).
    pub retransmits: Counter,
    /// Pending updates abandoned after exhausting the retransmit budget.
    pub retransmit_give_ups: Counter,
    /// Checkpoint restores refused by epoch/shape validation.
    pub checkpoint_rejections: Counter,
    /// Membership changes applied through the facade.
    pub membership_changes: Counter,
    /// Tasks shed by the overload governor.
    pub sheds: Counter,
    /// Epoch applications where an agent's warm duals survived the jump.
    pub warm_start_hits: Counter,
    /// Remediation actions taken by the supervisor.
    pub remediations: Counter,
    /// Elastic replicas provisioned by the supervisor.
    pub replica_provisions: Counter,
    /// Elastic replicas retired by the supervisor.
    pub replica_retires: Counter,
    /// Frames corrupted in flight by injected network corruption.
    pub frames_corrupted: Counter,
    /// Frames refused by the wire codec's decode → validate pipeline.
    pub frames_rejected: Counter,
    /// Message values refused by agent-side numeric guardrails.
    pub values_rejected: Counter,
    /// Agents quarantined by the supervisor for repeated invalid traffic.
    pub agent_quarantines: Counter,
}

impl DistTelemetry {
    /// Registers the `lla_dist_*` metric family on `registry` and pairs
    /// it with `events`.
    pub fn new(registry: &MetricsRegistry, events: EventLog) -> Self {
        let c = |name, help| registry.counter(name, help);
        DistTelemetry {
            registry: registry.clone(),
            events,
            spans: SpanRecorder::disabled(),
            profiler: Profiler::disabled(),
            messages_sent: c("lla_dist_messages_sent_total", "messages handed to the network"),
            messages_dropped: c(
                "lla_dist_messages_dropped_total",
                "messages dropped by random network loss",
            ),
            messages_duplicated: c(
                "lla_dist_messages_duplicated_total",
                "extra copies injected by network duplication",
            ),
            messages_reordered: c(
                "lla_dist_messages_reordered_total",
                "deliveries scheduled before an earlier send to the same destination",
            ),
            dropped_by_partition: c(
                "lla_dist_messages_dropped_partition_total",
                "messages dropped at send time by an active partition",
            ),
            dropped_at_crashed: c(
                "lla_dist_messages_dropped_crashed_total",
                "deliveries discarded because the receiver was crashed",
            ),
            crashes: c("lla_dist_crashes_total", "crash faults executed"),
            restarts: c("lla_dist_restarts_total", "restart faults executed"),
            checkpoint_saves: c(
                "lla_dist_checkpoint_saves_total",
                "controller checkpoints written to the store",
            ),
            checkpoint_restores: c(
                "lla_dist_checkpoint_restores_total",
                "controller restarts restored from a checkpoint (failovers)",
            ),
            staleness_freezes: c(
                "lla_dist_staleness_freezes_total",
                "transitions into staleness-TTL degraded mode",
            ),
            degraded_ticks: c(
                "lla_dist_degraded_ticks_total",
                "agent ticks skipped while frozen on last-known-good prices",
            ),
            retransmits: c(
                "lla_dist_retransmits_total",
                "reliable-dissemination retransmissions (unacked updates resent)",
            ),
            retransmit_give_ups: c(
                "lla_dist_retransmit_give_ups_total",
                "pending updates abandoned after exhausting the retransmit budget",
            ),
            checkpoint_rejections: c(
                "lla_dist_checkpoint_rejections_total",
                "checkpoint restores refused by epoch/shape validation",
            ),
            membership_changes: c(
                "lla_dist_membership_changes_total",
                "membership changes applied through the facade",
            ),
            sheds: c("lla_dist_sheds_total", "tasks shed by the overload governor"),
            warm_start_hits: c(
                "lla_dist_warm_start_hits_total",
                "epoch applications where an agent's warm duals survived",
            ),
            remediations: c(
                "lla_dist_remediations_total",
                "remediation actions taken by the supervisor",
            ),
            replica_provisions: c(
                "lla_dist_replica_provisions_total",
                "elastic replicas provisioned by the supervisor",
            ),
            replica_retires: c(
                "lla_dist_replica_retires_total",
                "elastic replicas retired by the supervisor",
            ),
            frames_corrupted: c(
                "lla_dist_frames_corrupted_total",
                "frames corrupted in flight by injected network corruption",
            ),
            frames_rejected: c(
                "lla_dist_frames_rejected_total",
                "frames refused by the wire codec's decode/validate pipeline",
            ),
            values_rejected: c(
                "lla_dist_values_rejected_total",
                "message values refused by agent-side numeric guardrails",
            ),
            agent_quarantines: c(
                "lla_dist_agent_quarantines_total",
                "agents quarantined by the supervisor for repeated invalid traffic",
            ),
        }
    }

    /// Handles built from a [`TelemetryHub`] (registry + event log +
    /// span recorder — spans stay off unless the hub opted in).
    pub fn from_hub(hub: &TelemetryHub) -> Self {
        DistTelemetry::new(&hub.metrics, hub.events.clone()).with_spans(hub.spans.clone())
    }

    /// Replace the span channel (builder style) — usually with
    /// [`SpanRecorder::recording()`].
    #[must_use]
    pub fn with_spans(mut self, spans: SpanRecorder) -> Self {
        self.spans = spans;
        self
    }

    /// Replace the profiler channel (builder style) — usually with
    /// [`Profiler::recording()`].
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// All-no-op handles (the default for an un-instrumented deployment).
    pub fn disabled() -> Self {
        DistTelemetry::new(&MetricsRegistry::disabled(), EventLog::disabled())
    }
}
