//! # `lla-bench` — experiment harness for the LLA reproduction
//!
//! One binary per table/figure of the paper's evaluation (§5–§6), each
//! built on the experiment functions in this library:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1_base_workload` | Table 1 (optimization results on the base workload) |
//! | `fig5_stepsize` | Figure 5 (fixed vs adaptive step sizes) |
//! | `fig6_scalability` | Figure 6 (convergence as tasks scale 3→6→12) |
//! | `fig7_schedulability` | Figure 7 (unschedulable workload detection) |
//! | `fig8_error_correction` | Figure 8 (prototype with model error correction) |
//!
//! Binaries print a human-readable summary and write the raw series as CSV
//! under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod corruption;
pub mod fleet;
pub mod render;
pub mod supervised;

use lla_core::{
    Aggregation, Allocation, AllocationSettings, Optimizer, OptimizerConfig, PriceMethod,
    StepSizePolicy,
};
use lla_dist::DistConfig;
use lla_sim::{ClosedLoop, ClosedLoopConfig, SimConfig};
use lla_telemetry::{HealthSnapshot, ProfileSnapshot, Profiler};
use lla_workloads::{base_workload_with, prototype_workload, scaled_workload, PrototypeParams};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The optimizer configuration used across the simulation experiments
/// (§5): the paper's defaults — adaptive step size starting at γ = 1,
/// path-weighted utility handled by the workload itself.
pub fn paper_optimizer_config(policy: StepSizePolicy) -> OptimizerConfig {
    OptimizerConfig {
        price_method: PriceMethod::Gradient,
        step_policy: policy,
        allocation: AllocationSettings::default(),
        ..OptimizerConfig::default()
    }
}

/// The deployment configuration of the distributed experiments: the
/// paper's protocol (§4), gradient price steps under `policy`, the step
/// rule the soaks' remediations act on and their recorded series follow.
pub fn paper_dist_config(policy: StepSizePolicy) -> DistConfig {
    DistConfig { price_method: PriceMethod::Gradient, step_policy: policy, ..DistConfig::default() }
}

/// A rendered experiment series: column headers plus rows of numbers.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Column names.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
}

impl Series {
    /// Creates an empty series with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Series { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header count.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            let mut first = true;
            for v in row {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "{v:.6}");
                first = false;
            }
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under `results/<name>.csv` (creating the directory),
    /// returning the path written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, name: &str) -> std::io::Result<std::path::PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Result of the Table 1 experiment.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// The converged optimizer (problem + allocation inside).
    pub utility: f64,
    /// Iterations to convergence.
    pub iterations: usize,
    /// Whether convergence was reached.
    pub converged: bool,
    /// Final allocation.
    pub allocation: Allocation,
    /// Per-task `(critical path latency, critical time)`.
    pub critical: Vec<(f64, f64)>,
    /// Per-resource share sums.
    pub usage: Vec<f64>,
}

/// Runs the Table 1 experiment: LLA with adaptive γ on the base workload.
pub fn run_table1(aggregation: Aggregation, max_iters: usize) -> Table1Result {
    run_table1_health(aggregation, max_iters).0
}

/// [`run_table1`] plus the converged optimizer's [`HealthSnapshot`] — the
/// telemetry-driven readout of the same run: convergence and feasibility
/// flags, KKT residual norms, and per-resource price/usage/utilization.
pub fn run_table1_health(
    aggregation: Aggregation,
    max_iters: usize,
) -> (Table1Result, HealthSnapshot) {
    let problem = base_workload_with(aggregation, 2.0);
    let mut opt = Optimizer::new(problem, paper_optimizer_config(StepSizePolicy::adaptive(1.0)));
    let outcome = opt.run_to_convergence(max_iters);
    let health = opt.health_snapshot();
    let allocation = opt.allocation();
    let critical: Vec<(f64, f64)> = opt
        .problem()
        .tasks()
        .iter()
        .map(|t| (allocation.task_latency(t), t.critical_time()))
        .collect();
    let usage: Vec<f64> = opt
        .problem()
        .resources()
        .iter()
        .map(|r| opt.problem().resource_usage(r.id(), allocation.lats()))
        .collect();
    let result = Table1Result {
        utility: opt.utility(),
        iterations: opt.iterations(),
        converged: outcome.converged,
        allocation,
        critical,
        usage,
    };
    (result, health)
}

/// One Figure 5 series.
#[derive(Debug, Clone)]
pub struct Fig5Series {
    /// Utility after each iteration.
    pub utilities: Vec<f64>,
    /// Whether the final allocation satisfies both constraint families
    /// within 0.1% — an infeasible allocation reports an *inflated*
    /// utility, so cross-series utility comparisons are only meaningful
    /// among feasible ones.
    pub feasible: bool,
}

/// Runs one Figure 5 series: utility per iteration under the given step
/// policy, for `iters` iterations.
pub fn run_fig5_series(policy: StepSizePolicy, iters: usize) -> Fig5Series {
    let problem = base_workload_with(Aggregation::PathWeighted, 2.0);
    let mut opt = Optimizer::new(problem, paper_optimizer_config(policy));
    let utilities: Vec<f64> = opt.run(iters).into_iter().map(|r| r.utility).collect();
    let feasible = opt.problem().is_feasible(opt.allocation().lats(), 1e-3);
    Fig5Series { utilities, feasible }
}

/// Result of one Figure 6 scaling point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Number of tasks.
    pub tasks: usize,
    /// Whether LLA converged within the budget.
    pub converged: bool,
    /// Iterations to convergence (or the budget).
    pub iterations: usize,
    /// First iteration after which the utility stays within 1% of its
    /// final mean — how the paper's Figure 6 "flattening" reads.
    pub settling: Option<usize>,
    /// Final utility.
    pub utility: f64,
    /// Wall-clock time of the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Mean wall-clock cost of one iteration, in microseconds.
    pub us_per_iteration: f64,
}

/// Runs the Figure 6 experiment: replicate the base workload (scaling
/// critical times to preserve schedulability) and measure convergence.
///
/// Uses the sign-adaptive policy: the paper's congestion-only heuristic
/// fails to formally converge on the 12-task point (see EXPERIMENTS.md).
pub fn run_fig6_point(replication: usize, max_iters: usize) -> ScalePoint {
    let problem = scaled_workload(replication, true);
    let tasks = problem.tasks().len();
    let mut opt =
        Optimizer::new(problem, paper_optimizer_config(StepSizePolicy::sign_adaptive(1.0)));
    let start = Instant::now();
    let outcome = opt.run_to_convergence(max_iters);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    ScalePoint {
        tasks,
        converged: outcome.converged,
        iterations: outcome.iterations,
        settling: opt.trace().settling_iteration(0.01),
        utility: outcome.final_utility,
        wall_ms,
        us_per_iteration: wall_ms * 1e3 / outcome.iterations.max(1) as f64,
    }
}

/// Runs one Figure 6 point with a recording [`Profiler`] attached and
/// returns the scope-tree snapshot: a `plan_lower` root, a `step` root
/// with `allocate` / `price` / `lagrangian` / `trace` children, and a
/// `kkt` root from the final optimality check.
///
/// The run is fully deterministic (fixed workload, fixed policy), so the
/// snapshot's *call counts* are identical on every run and pinned by a
/// golden test; the wall-clock fields are this machine's.
pub fn run_fig6_profile(replication: usize, max_iters: usize) -> ProfileSnapshot {
    let problem = scaled_workload(replication, true);
    let mut opt =
        Optimizer::new(problem, paper_optimizer_config(StepSizePolicy::sign_adaptive(1.0)));
    let profiler = Profiler::recording();
    opt.attach_profiler(&profiler);
    opt.run_to_convergence(max_iters);
    std::hint::black_box(opt.kkt());
    profiler.snapshot()
}

/// Result of the Figure 7 schedulability experiment.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Utility and per-resource share sums per iteration.
    pub series: Series,
    /// Whether the run converged (the paper's point: it must not).
    pub converged: bool,
    /// Mean critical-path/critical-time ratio per task over the last 50
    /// iterations (paper reports 1.75–2.41).
    pub violation_ratios: Vec<f64>,
    /// Mean share-sum/availability ratio per resource over the last 50
    /// iterations — where the infeasibility parks under our clamped
    /// allocator.
    pub resource_ratios: Vec<f64>,
}

/// Runs the Figure 7 experiment: the 6-task workload *without* scaling
/// critical times, which is unschedulable.
pub fn run_fig7(iterations: usize) -> Fig7Result {
    let problem = scaled_workload(2, false);
    let num_resources = problem.resources().len();
    let num_tasks = problem.tasks().len();
    let mut opt = Optimizer::new(problem, paper_optimizer_config(StepSizePolicy::adaptive(1.0)));
    let mut headers: Vec<String> = vec!["iteration".into(), "utility".into()];
    headers.extend((0..num_resources).map(|r| format!("usage_r{r}")));
    let mut series = Series { headers, rows: Vec::new() };
    for _ in 0..iterations {
        let rep = opt.step();
        let lats = opt.allocation();
        let mut row = vec![rep.iteration as f64, rep.utility];
        for r in opt.problem().resources() {
            row.push(opt.problem().resource_usage(r.id(), lats.lats()));
        }
        series.rows.push(row);
    }
    let converged = opt.has_converged();
    let trace = opt.trace();
    let window = 50.min(trace.len()).max(1);
    let mut ratios = vec![0.0; num_tasks];
    let mut res_ratios = vec![0.0; num_resources];
    for rec in &trace.records()[trace.len() - window..] {
        for (t, &r) in rec.critical_path_ratio.iter().enumerate() {
            ratios[t] += r / window as f64;
        }
        for (r, &u) in rec.resource_usage.iter().enumerate() {
            let b = opt.problem().resources()[r].availability().max(1e-9);
            res_ratios[r] += u / b / window as f64;
        }
    }
    Fig7Result { series, converged, violation_ratios: ratios, resource_ratios: res_ratios }
}

/// Result of the Figure 8 closed-loop experiment.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Per-window series: time, fast/slow shares, corrections.
    pub series: Series,
    /// Fast-subtask share before error correction.
    pub fast_before: f64,
    /// Fast-subtask share at the end.
    pub fast_after: f64,
    /// Slow-subtask share before error correction.
    pub slow_before: f64,
    /// Slow-subtask share at the end.
    pub slow_after: f64,
}

/// Runs the Figure 8 experiment: the §6.2 prototype workload in the
/// closed loop, enabling error correction after `warmup_windows`.
pub fn run_fig8(warmup_windows: usize, corrected_windows: usize, window_ms: f64) -> Fig8Result {
    let problem = prototype_workload(&PrototypeParams::default());
    let mut cl = ClosedLoop::new(
        problem,
        paper_optimizer_config(StepSizePolicy::sign_adaptive(1.0)),
        SimConfig::default(),
        ClosedLoopConfig { window: window_ms, correction_enabled: false, ..Default::default() },
    );
    cl.run_windows(warmup_windows);
    cl.set_correction_enabled(true);
    cl.run_windows(corrected_windows);

    let mut series = Series::new(&[
        "time_ms",
        "fast_share",
        "slow_share",
        "fast_correction",
        "slow_correction",
        "utility",
    ]);
    for rec in cl.history() {
        series.push(vec![
            rec.time,
            rec.shares[0][0],
            rec.shares[2][0],
            rec.corrections[0][0],
            rec.corrections[2][0],
            rec.utility,
        ]);
    }
    let before = &cl.history()[warmup_windows.saturating_sub(1)];
    let after = cl.history().last().expect("windows ran");
    Fig8Result {
        fast_before: before.shares[0][0],
        fast_after: after.shares[0][0],
        slow_before: before.shares[2][0],
        slow_after: after.shares[2][0],
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_roundtrip() {
        let mut s = Series::new(&["a", "b"]);
        s.push(vec![1.0, 2.0]);
        let csv = s.to_csv();
        assert!(csv.starts_with("a,b\n1.000000,2.000000\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn series_rejects_ragged_rows() {
        let mut s = Series::new(&["a"]);
        s.push(vec![1.0, 2.0]);
    }

    #[test]
    fn table1_converges_and_respects_deadlines() {
        let result = run_table1(Aggregation::PathWeighted, 3_000);
        assert!(result.converged);
        for &(cp, c) in &result.critical {
            assert!(cp <= c * 1.001, "critical path {cp} vs critical time {c}");
            // The paper: critical path within 1% below the critical time.
            assert!(cp >= c * 0.97, "critical path {cp} should be near {c}");
        }
    }

    #[test]
    fn table1_health_snapshot_is_healthy() {
        let (result, health) = run_table1_health(Aggregation::PathWeighted, 3_000);
        assert!(health.converged && health.feasible, "{health}");
        assert!(health.healthy(), "{health}");
        assert_eq!(health.utility, result.utility);
        assert_eq!(health.resources.len(), result.usage.len());
        for (r, &usage) in health.resources.iter().zip(&result.usage) {
            assert_eq!(r.usage, usage, "snapshot usage must match the Table 1 readout");
        }
    }

    #[test]
    fn fig6_points_converge() {
        let p = run_fig6_point(2, 4_000);
        assert_eq!(p.tasks, 6);
        assert!(p.converged);
    }
}
