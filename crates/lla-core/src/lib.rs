//! # `lla-core` — Lagrangian Latency Assignment
//!
//! Core model and algorithm of *"Online Optimization for Latency Assignment
//! in Distributed Real-Time Systems"* (Lumezanu, Bhola, Astley — ICDCS 2008).
//!
//! Distributed soft real-time applications are modeled as [`Task`]s composed
//! of [`Subtask`]s arranged in a precedence DAG (a [`SubtaskGraph`]). Each
//! subtask consumes exactly one [`Resource`] (CPU or network link) under
//! proportional-share scheduling. The timeliness requirement of a task is a
//! non-increasing, concave [`UtilityFn`] of its end-to-end latency, bounded
//! by a *critical time* (deadline).
//!
//! The [`Optimizer`] implements **LLA**: an iterative, price-based dual
//! decomposition. Each iteration performs
//!
//! 1. **latency allocation** — every task controller solves a local
//!    stationarity condition for its subtask latencies given current
//!    resource prices `μ_r` and path prices `λ_p`
//!    ([`allocation`]), and
//! 2. **price computation** — every resource and path adjusts its price:
//!    by default it sets the price that clears its own constraint at the
//!    others' prices (a market-clearing sweep, [`PriceMethod::Clearing`]),
//!    or it takes the paper's projected-gradient step on the dual
//!    ([`prices`]) with the adaptive step-size heuristic
//!    ([`PriceMethod::Gradient`]).
//!
//! The algorithm runs continuously and adapts to workload and resource
//! variations; it converges when they stabilize.
//!
//! ## Example
//!
//! ```rust
//! use lla_core::{
//!     Aggregation, Optimizer, OptimizerConfig, Problem, Resource, ResourceId,
//!     ResourceKind, StepSizePolicy, TaskBuilder, TaskId, UtilityFn,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two CPUs, one task: a two-stage pipeline with a 20ms deadline.
//! let cpus = vec![
//!     Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
//!     Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
//! ];
//! let mut b = TaskBuilder::new("pipeline");
//! let s0 = b.subtask("stage0", ResourceId::new(0), 2.0);
//! let s1 = b.subtask("stage1", ResourceId::new(1), 3.0);
//! b.edge(s0, s1)?;
//! let task = b
//!     .critical_time(20.0)
//!     .utility(UtilityFn::linear_for_deadline(2.0, 20.0))
//!     .aggregation(Aggregation::PathWeighted)
//!     .build(TaskId::new(0))?;
//!
//! let problem = Problem::new(cpus, vec![task])?;
//! let mut opt = Optimizer::new(problem, OptimizerConfig {
//!     step_policy: StepSizePolicy::adaptive(1.0),
//!     ..OptimizerConfig::default()
//! });
//! let outcome = opt.run_to_convergence(2_000);
//! assert!(outcome.converged);
//! // The allocation respects the deadline.
//! let lat = opt.allocation().task_latency(&opt.problem().tasks()[0]);
//! assert!(lat <= 20.0 + 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod allocation;
pub mod error;
pub mod graph;
pub mod ids;
pub mod lagrangian;
pub mod optimizer;
pub mod overload;
pub mod percentile;
pub mod plan;
pub mod prices;
pub mod problem;
pub mod resource;
mod round_book;
pub mod schedulability;
pub mod shard;
pub mod share;
pub mod subtask;
pub mod task;
pub mod trace;
pub mod utility;

pub use admission::{probe_admission, AdmissionConfig, AdmissionDecision};
pub use allocation::{allocate_latencies, allocate_task, clamping_box, AllocationSettings};
pub use error::ModelError;
pub use graph::{Path, PathIter, Paths, SubtaskGraph};
pub use ids::{PathId, ResourceId, SubtaskId, TaskId};
pub use lagrangian::{dual_value, kkt_report, lagrangian_value, DualReport, KktReport};
pub use optimizer::{
    Allocation, IterationReport, Optimizer, OptimizerConfig, OptimizerState, RunOutcome,
    StateImportError,
};
pub use overload::{governed_step, select_victim, shed_ranking, OverloadConfig, OverloadMonitor};
pub use percentile::{compose_path_percentile, PercentileSpec};
pub use plan::{Plan, PlanScratch, ResourcePlan, TaskPlan};
pub use prices::{PriceMethod, PriceState, StepSizePolicy};
pub use problem::{MembershipReport, Problem};
pub use resource::{Resource, ResourceKind};
pub use round_book::{Certificate, FEASIBILITY_TOL};
pub use schedulability::{analyze_schedulability, SchedulabilityConfig, SchedulabilityVerdict};
pub use shard::{ResourceOwner, ShardSpec, ShardStepTiming, ShardedOptimizer};
pub use share::ShareModel;
pub use subtask::Subtask;
pub use task::{Aggregation, Task, TaskBuilder, TriggerSpec};
pub use trace::Trace;
pub use utility::UtilityFn;
