//! # `lla` — Lagrangian Latency Assignment
//!
//! A complete implementation of *"Online Optimization for Latency
//! Assignment in Distributed Real-Time Systems"* (Lumezanu, Bhola, Astley —
//! ICDCS 2008): a distributed, continuously running, price-based
//! optimization that assigns per-subtask latencies (and thereby
//! proportional-share scheduling parameters) to distributed soft real-time
//! applications so that total system utility is maximized, subject to
//! resource-capacity and end-to-end deadline constraints.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] (`lla-core`) — the task/subtask/utility model and the LLA
//!   optimizer itself.
//! * [`sim`] (`lla-sim`) — a discrete-event proportional-share scheduling
//!   simulator, streaming latency statistics, and the online
//!   model-error-correction closed loop.
//! * [`dist`] (`lla-dist`) — distributed deployments of the algorithm:
//!   actor-based emulation on a deterministic virtual-time runtime.
//! * [`workloads`] (`lla-workloads`) — the paper's evaluation workloads
//!   and a random schedulable-workload generator.
//! * [`baselines`] (`lla-baselines`) — the classical deadline-slicing
//!   baselines the paper positions against (§7).
//! * [`spec`] (`lla-spec`) — a declarative text format for workload
//!   specifications, driving the `lla-cli` binary.
//! * [`telemetry`] (`lla-telemetry`) — zero-dependency metrics registry,
//!   structured event log, and health exposition shared by every layer.
//!
//! ## Quickstart
//!
//! ```rust
//! use lla::core::{Optimizer, OptimizerConfig};
//! use lla::workloads::base_workload;
//!
//! let mut opt = Optimizer::new(base_workload(), OptimizerConfig::default());
//! let outcome = opt.run_to_convergence(3_000);
//! assert!(outcome.converged);
//! // Every task meets its critical time.
//! let alloc = opt.allocation();
//! for task in opt.problem().tasks() {
//!     assert!(alloc.task_latency(task) <= task.critical_time() * 1.001);
//! }
//! ```
//!
//! See `examples/` for end-to-end scenarios (program trading, sensor
//! fusion, patient monitoring) and `crates/lla-bench` for the binaries that
//! regenerate every table and figure of the paper's evaluation.

#![forbid(unsafe_code)]

pub use lla_baselines as baselines;
pub use lla_core as core;
pub use lla_dist as dist;
pub use lla_sim as sim;
pub use lla_spec as spec;
pub use lla_telemetry as telemetry;
pub use lla_workloads as workloads;
