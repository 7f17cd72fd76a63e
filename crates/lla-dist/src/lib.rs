//! # `lla-dist` — distributed emulation of LLA
//!
//! The paper's algorithm is distributed by construction (§4.1): every
//! resource computes its own price and every task controller allocates its
//! own latencies, coordinated only through price/latency messages. This
//! crate deploys exactly that structure:
//!
//! * [`protocol`] — the `Price`/`Latency` message protocol and actor
//!   addresses.
//! * [`codec`] — a zero-dependency validated wire codec: every message
//!   encodes to a length-prefixed, CRC-checksummed frame and decodes
//!   through a strict `decode → validate` pipeline returning typed
//!   [`FrameError`]s, so no NaN price or absurd id ever crosses the wire
//!   boundary into agent state.
//! * [`network`] — a seeded delay/jitter/loss model standing in for a real
//!   network, plus [`FrameCorruptor`]: seeded
//!   byte-flip/truncation/field-fuzz corruption of encoded frames for
//!   adversarial-input soaks.
//! * [`runtime`] — a deterministic virtual-time actor runtime.
//! * [`fault`] — [`FaultPlan`]: scheduled partitions,
//!   crashes/restarts, and availability drops on the virtual clock,
//!   enforced by the runtime.
//! * [`agents`] — [`ResourceAgent`](agents::ResourceAgent) (price
//!   computation, Eq. 8), [`TaskController`](agents::TaskController)
//!   (path prices + latency allocation, Eq. 7/9), and
//!   [`ControlPlaneAgent`] (reliable
//!   availability dissemination); the first two are thin wrappers over
//!   `lla-core`'s primitives so the distributed and centralized code paths
//!   share one implementation. Controllers checkpoint into a
//!   [`CheckpointStore`] and degrade gracefully
//!   when prices go stale (see [`RobustnessConfig`]).
//! * [`supervisor`] — [`SupervisorEngine`]: closed-loop self-healing —
//!   diagnostic verdicts drive graduated remediation (gamma calm,
//!   checkpoint rollback, dual re-sync, escalating shedding) and
//!   price-driven elastic replica capacity.
//! * [`fleet`] — the fleet telemetry plane: per-agent
//!   [`AgentTelemetry`] scopes shipped as
//!   delta-encoded, watermarked `TelemetryReport` frames to a
//!   [`CollectorAgent`] that merges them into a
//!   deterministic fleet view and evaluates SLO alert rules.
//! * [`system`] — [`DistributedLla`]: a full deployment on the virtual
//!   runtime. With a perfect network and round-based ticking it is
//!   **bit-equivalent** to the centralized [`lla_core::Optimizer`] (tested);
//!   with delay/jitter/loss it exercises LLA's tolerance to stale prices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
pub mod codec;
pub mod fault;
pub mod fleet;
pub mod network;
pub mod protocol;
pub mod runtime;
pub mod supervisor;
pub mod system;
pub mod telemetry;

pub use agents::{
    CheckpointStore, ControlPlaneAgent, ControllerCheckpoint, MembershipCause, RobustnessConfig,
    TopologyEpoch, TopologyStore,
};
pub use codec::{decode, decode_frame, encode, FrameError};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fleet::{default_slo_rules, AgentTelemetry, CollectorAgent, AGENT_METRICS};
pub use network::{CorruptionModel, FrameCorruptor, NetworkModel, NetworkSampler};
pub use protocol::{Address, Message};
pub use runtime::{Actor, Outbox, VirtualRuntime};
pub use supervisor::{
    run_supervised, Remediation, RemediationKind, SupervisorConfig, SupervisorEngine,
};
pub use system::{DistConfig, DistributedLla};
pub use telemetry::DistTelemetry;
