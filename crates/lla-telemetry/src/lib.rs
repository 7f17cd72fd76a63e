//! # `lla-telemetry` — observability primitives for the LLA stack
//!
//! LLA is a *continuously-running* online optimizer: in production there is
//! no final answer, only a trajectory. The operational signals are the dual
//! variables themselves — prices, violation factors, convergence state —
//! plus the plumbing counters of the distributed runtime (drops,
//! retransmits, checkpoint restores). This crate provides the three pieces
//! every layer shares:
//!
//! * [`MetricsRegistry`] — counters, gauges, and fixed-bucket histograms
//!   behind cheap cloneable handles. Handles are lock-free on the hot path
//!   (plain atomics) and collapse to a one-branch no-op when the registry
//!   is disabled. Exposition is deterministic Prometheus text.
//! * [`EventLog`] / [`Event`] — structured, timestamped events. The
//!   distributed runtime stamps events with its *virtual* clock, so chaos
//!   soaks produce byte-identical JSONL logs across runs with the same
//!   seed; the optimizer hot path uses wall-clock histograms instead and
//!   never writes events.
//! * [`HealthSnapshot`] — the "is it converged and feasible right now?"
//!   answer: KKT residual norms, worst violation factor, per-resource
//!   price + usage, and shed/membership/failover counts.
//! * [`SpanRecorder`] / [`TraceCtx`] — causal spans on the virtual clock
//!   with Chrome `trace_event` export and per-round critical-path
//!   extraction, same no-op-when-disabled handle discipline.
//!
//! Every handle keeps its shared state behind an `Arc` in an `Option`
//! that is `None` when disabled: a disabled [`Counter`], [`Gauge`],
//! [`Histogram`], [`EventLog`], [`SpanRecorder`], [`Profiler`] or
//! [`MetricsRegistry`] holds nothing, so building, cloning and dropping it
//! allocate nothing and touch no atomic, and every operation on it is one
//! branch. Telemetry that is off costs nothing to thread through a
//! deployment of thousands of agents.
//! * [`Profiler`] — hierarchical scoped-guard phase profiling: self and
//!   total nanoseconds plus call counts per scope path, thread-aware
//!   accumulation, folded-stack flamegraph export, and a deterministic
//!   call-count tree kept separate from the wall-clock timings.
//! * [`DiagnosticsEngine`] — an online classifier over per-round
//!   [`DiagSample`]s: `Converging | Oscillating | GammaThrash |
//!   Diverging | Stalled`, with per-resource price evidence.
//! * [`TelemetryCollector`] / [`AgentScope`] — the fleet telemetry plane:
//!   per-agent scoped counters (labeled series keyed by an `agent`
//!   label), delta-encoded watermarked [`TelemetryReport`]s, and a
//!   loss/dup/reorder-tolerant collector producing a deterministic fleet
//!   view.
//! * [`SloEngine`] — declarative [`SloRule`]s evaluated over the fleet
//!   view on the virtual clock, driving a pending → firing → resolved
//!   alert state machine whose transitions are byte-deterministic events.
//!
//! The crate is deliberately dependency-free (std only) so it can sit
//! below `lla-core` in the workspace graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collect;
pub mod diagnostics;
pub mod events;
pub mod health;
pub mod profile;
pub mod registry;
pub mod slo;
pub mod spans;

pub use collect::{
    AgentScope, AgentView, DeltaTracker, IngestOutcome, MetricDef, TelemetryCollector,
    TelemetryReport, MAX_REORDER_HORIZON,
};
pub use diagnostics::{
    DiagSample, Diagnosis, DiagnosticsEngine, Verdict, DIVERGENCE_FACTOR, GAMMA_THRASH_DENSITY,
    OSCILLATION_BAND, STALL_FROZEN_FRACTION,
};
pub use events::{Event, EventLog, Value};
pub use health::{HealthSnapshot, ResourceHealth, HEALTHY_MAX_VIOLATION_FACTOR};
pub use profile::{PhaseScope, ProfileCtx, ProfileFrame, ProfileGuard, ProfileSnapshot, Profiler};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use slo::{AlertCmp, AlertSeverity, AlertState, FiringAlert, SloEngine, SloRule};
pub use spans::{PathStep, RoundCriticalPath, Span, SpanRecorder, TraceCtx};

/// One bundle of the two telemetry channels — a metrics registry and an
/// event log — so call sites thread a single handle through a stack.
///
/// Every channel is cheap to clone (`Arc`s inside) and supports a
/// disabled mode that holds nothing and in which every operation is a
/// one-branch no-op, so a `TelemetryHub::disabled()` can be threaded
/// unconditionally.
#[derive(Debug, Clone)]
pub struct TelemetryHub {
    /// Counter/gauge/histogram registry (Prometheus text exposition).
    pub metrics: MetricsRegistry,
    /// Structured event stream (JSONL exposition).
    pub events: EventLog,
    /// Causal span recorder (Chrome trace exposition). Disabled by
    /// default even in a recording hub — spans accumulate per message, so
    /// long soaks opt in explicitly via [`with_spans`](Self::with_spans).
    pub spans: SpanRecorder,
}

impl TelemetryHub {
    /// A hub that records metrics and events (spans stay off; see
    /// [`with_spans`](Self::with_spans)).
    pub fn recording() -> Self {
        TelemetryHub {
            metrics: MetricsRegistry::new(),
            events: EventLog::recording(),
            spans: SpanRecorder::disabled(),
        }
    }

    /// A hub whose every operation is a no-op.
    pub fn disabled() -> Self {
        TelemetryHub {
            metrics: MetricsRegistry::disabled(),
            events: EventLog::disabled(),
            spans: SpanRecorder::disabled(),
        }
    }

    /// Replace the span channel (builder style) — usually with
    /// [`SpanRecorder::recording()`].
    #[must_use]
    pub fn with_spans(mut self, spans: SpanRecorder) -> Self {
        self.spans = spans;
        self
    }

    /// Whether any channel is live.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.events.is_enabled() || self.spans.is_enabled()
    }
}

/// Render a float the way every exporter in this crate does: Rust's
/// shortest-roundtrip `Display`, which is deterministic across platforms
/// for the same bit pattern. Non-finite values render as Prometheus
/// spellings (`+Inf`, `-Inf`, `NaN`).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}
