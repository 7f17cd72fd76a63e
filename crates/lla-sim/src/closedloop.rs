//! The closed loop: optimizer ⇄ simulator with online error correction
//! (§6.3–6.4).
//!
//! Each *window* the loop (1) lets the simulator run under the currently
//! enacted shares, (2) compares measured high-percentile subtask latencies
//! against the uncorrected model predictions and folds the difference into
//! per-subtask [`ErrorCorrector`]s, (3) pushes the smoothed corrections
//! into the optimizer's share models, (4) re-runs LLA to convergence and
//! enacts the new shares. This reproduces the paper's prototype experiment
//! (Figure 8): with correction disabled the optimizer allocates according
//! to the conservative worst-case model; once enabled, it discovers that
//! the fast tasks meet their critical times with less share and hands the
//! surplus to the slow tasks.

use crate::correction::ErrorCorrector;
use crate::simulator::{SimConfig, Simulator};
use lla_core::{Optimizer, OptimizerConfig, Problem};
use lla_telemetry::{Counter, Gauge, MetricsRegistry};

/// Windows of [`WindowRecord`]s a loop keeps: the newest ones, so a loop
/// meant to run forever does not grow by its per-subtask matrices every
/// window. The paper's Figure 8 reads all 20 of its windows.
const HISTORY_WINDOWS: usize = 20;

/// How measured deviations are folded back into the share model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionMode {
    /// The paper's model (§6.3): an additive latency error `ê` with
    /// exponential smoothing, so `lat = (c+l)/share + ê`.
    Additive,
    /// A multiplicative alternative: scale the modeled demand so
    /// `lat = m·(c+l)/share`, with `m` the smoothed measured/predicted
    /// latency ratio.
    DemandScaling,
}

/// LLA iteration budget per window (and for the initial solve).
const OPTIMIZER_ITERS: usize = 2_000;

/// Exponential smoothing weight of every error corrector.
const CORRECTION_ALPHA: f64 = 0.3;

/// Minimum measured samples before a subtask's correction updates.
const MIN_SAMPLES: usize = 10;

/// Lower clamp on enacted shares (the fluid scheduler needs > 0).
const MIN_SHARE: f64 = 1e-4;

/// Configuration of the closed loop.
///
/// The loop's remaining parameters are fixed: each window re-runs LLA
/// for at most 2000 rounds, correctors smooth with weight 0.3, a
/// subtask's correction updates only once it has 10 measured samples,
/// and enacted shares are clamped to at least `1e-4`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoopConfig {
    /// Measurement window length (simulated milliseconds).
    pub window: f64,
    /// Whether error correction starts enabled.
    pub correction_enabled: bool,
    /// How corrections are applied to the share model.
    pub correction_mode: CorrectionMode,
    /// Enact a new allocation only when some share changed by at least
    /// this relative amount (§4.4: "allocations may be only enacted
    /// periodically or when significant changes occur"). `0` enacts every
    /// window.
    pub enact_threshold: f64,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            window: 1_000.0,
            correction_enabled: false,
            correction_mode: CorrectionMode::Additive,
            enact_threshold: 0.0,
        }
    }
}

/// Telemetry recorded at the end of each window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// Simulation time at the window's end (ms).
    pub time: f64,
    /// Optimizer utility after re-optimization.
    pub utility: f64,
    /// Enacted shares `shares[t][s]` for the next window.
    pub shares: Vec<Vec<f64>>,
    /// Smoothed error corrections `ê[t][s]` (ms).
    pub corrections: Vec<Vec<f64>>,
    /// Measured high-percentile subtask latencies (ms; `NaN` when a subtask
    /// saw no samples in the window).
    pub measured: Vec<Vec<f64>>,
    /// Fraction of completed job sets that missed their critical time.
    pub miss_rate: Vec<f64>,
    /// Whether the re-optimized allocation was actually enacted (it is
    /// skipped when no share moved by at least the enactment threshold).
    pub enacted: bool,
}

/// Metric handles the loop publishes into at the end of each window.
#[derive(Debug)]
struct LoopTelemetry {
    windows: Counter,
    enactments: Counter,
    utility: Gauge,
    worst_miss_rate: Gauge,
    dropped: Gauge,
}

impl LoopTelemetry {
    fn new(registry: &MetricsRegistry) -> Self {
        LoopTelemetry {
            windows: registry
                .counter("lla_sim_windows_total", "measure/correct/re-optimize windows completed"),
            enactments: registry.counter(
                "lla_sim_enactments_total",
                "allocations actually pushed to the simulator",
            ),
            utility: registry.gauge("lla_sim_utility", "optimizer utility after the last window"),
            worst_miss_rate: registry.gauge(
                "lla_sim_worst_miss_rate",
                "worst per-task deadline miss fraction in the last window",
            ),
            dropped: registry
                .gauge("lla_sim_dropped_jobs", "job sets dropped by the simulator so far"),
        }
    }
}

/// The optimizer-in-the-loop driver.
#[derive(Debug)]
pub struct ClosedLoop {
    optimizer: Optimizer,
    simulator: Simulator,
    correctors: Vec<Vec<ErrorCorrector>>,
    config: ClosedLoopConfig,
    history: Vec<WindowRecord>,
    /// The shares the simulator is currently running with (may lag the
    /// optimizer's when the enactment threshold suppresses small changes).
    enacted: Vec<Vec<f64>>,
    enactments: usize,
    tel: Option<LoopTelemetry>,
}

impl ClosedLoop {
    /// Builds the loop: runs LLA once on the uncorrected model and enacts
    /// the resulting shares into a fresh simulator.
    pub fn new(
        problem: Problem,
        optimizer_config: OptimizerConfig,
        sim_config: SimConfig,
        config: ClosedLoopConfig,
    ) -> Self {
        let mut optimizer = Optimizer::new(problem.clone(), optimizer_config);
        optimizer.run_to_convergence(OPTIMIZER_ITERS);
        let shares = Self::enactable_shares(&optimizer);
        let simulator = Simulator::new(problem.clone(), &shares, sim_config);
        let correctors = problem
            .tasks()
            .iter()
            .map(|t| (0..t.len()).map(|_| ErrorCorrector::new(CORRECTION_ALPHA)).collect())
            .collect();
        ClosedLoop {
            optimizer,
            simulator,
            correctors,
            config,
            history: Vec::new(),
            enacted: shares,
            enactments: 1,
            tel: None,
        }
    }

    /// Registers the `lla_sim_*` metric family on `registry` and keeps it
    /// updated at the end of every window. Also forwards the optimizer's
    /// own `lla_opt_*` instrumentation to the same registry.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        self.tel = Some(LoopTelemetry::new(registry));
        self.optimizer.attach_telemetry(registry);
    }

    /// The shares the loop enacts for `optimizer`'s allocation: each
    /// clamped to `[MIN_SHARE, 1]`, then scaled down in proportion on any
    /// resource whose shares sum past its availability. A certified
    /// allocation may overshoot a resource by up to 1e-3, and a
    /// proportional-share resource isolates its sessions (§3.2) only
    /// while their shares fit its availability.
    pub fn enactable_shares(optimizer: &Optimizer) -> Vec<Vec<f64>> {
        let (problem, alloc) = (optimizer.problem(), optimizer.allocation());
        let mut shares: Vec<Vec<f64>> = problem
            .tasks()
            .iter()
            .map(|task| {
                alloc.shares(problem, task).into_iter().map(|s| s.clamp(MIN_SHARE, 1.0)).collect()
            })
            .collect();
        let mut usage = vec![0.0; problem.resources().len()];
        for (task, row) in problem.tasks().iter().zip(&shares) {
            for (sub, &share) in task.subtasks().iter().zip(row) {
                usage[sub.resource().index()] += share;
            }
        }
        let scale: Vec<f64> = problem
            .resources()
            .iter()
            .zip(&usage)
            .map(|(r, &used)| if used > r.availability() { r.availability() / used } else { 1.0 })
            .collect();
        for (task, row) in problem.tasks().iter().zip(&mut shares) {
            for (sub, share) in task.subtasks().iter().zip(row) {
                *share *= scale[sub.resource().index()];
            }
        }
        shares
    }

    /// The optimizer (for inspection).
    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// The simulator (for inspection).
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }

    /// Recorded telemetry, one record per completed window, oldest first:
    /// the most recent 20 windows (a longer run drops the oldest).
    pub fn history(&self) -> &[WindowRecord] {
        &self.history
    }

    /// Enables or disables error correction (Figure 8 toggles this at
    /// t = 277s).
    pub fn set_correction_enabled(&mut self, enabled: bool) {
        self.config.correction_enabled = enabled;
    }

    /// Whether correction is currently enabled.
    pub fn correction_enabled(&self) -> bool {
        self.config.correction_enabled
    }

    /// The shares the simulator is currently running with.
    pub fn current_shares(&self) -> Vec<Vec<f64>> {
        self.enacted.clone()
    }

    /// Number of times a new allocation was actually pushed to the
    /// simulator (including the initial one).
    pub fn enactments(&self) -> usize {
        self.enactments
    }

    /// Runs one measure → correct → re-optimize → enact window and returns
    /// the record.
    pub fn step_window(&mut self) -> &WindowRecord {
        self.simulator.run_for(self.config.window);

        let problem = self.optimizer.problem();
        let mut measured = Vec::with_capacity(problem.tasks().len());
        let mut additive_updates = Vec::new();
        let mut scale_updates = Vec::new();
        for task in problem.tasks() {
            let t = task.id().index();
            let mut row = Vec::with_capacity(task.len());
            #[allow(clippy::needless_range_loop)] // `s` indexes three parallel tables
            for s in 0..task.len() {
                let stats = self.simulator.subtask_stats(t, s);
                let q = stats.quantile_estimate();
                row.push(q.unwrap_or(f64::NAN));
                if self.config.correction_enabled && stats.count() >= MIN_SAMPLES {
                    if let Some(q) = q {
                        let sid = task.subtask_id(s);
                        let model = problem.share_model(sid);
                        match self.config.correction_mode {
                            CorrectionMode::Additive => {
                                // Uncorrected model prediction at the share
                                // the simulator actually ran with.
                                let predicted = model.raw_demand() / self.enacted[t][s];
                                // Keep the corrected latency at the
                                // *throughput floor* share positive, so the
                                // allocator's upper clamp stays meaningful;
                                // larger negative errors would claim the
                                // subtask needs less share than its
                                // sustainable minimum, which the floor
                                // forbids anyway.
                                let min_share = (task.trigger().mean_rate()
                                    * task.subtasks()[s].exec_time())
                                .max(1e-9);
                                let floor = -0.95 * model.raw_demand() / min_share;
                                let e = self.correctors[t][s].update(q, predicted).max(floor);
                                additive_updates.push((sid, e));
                            }
                            CorrectionMode::DemandScaling => {
                                let predicted = model.raw_demand() / self.enacted[t][s];
                                // The corrector smooths (ratio − 1).
                                let est = self.correctors[t][s].update(q / predicted, 1.0);
                                let scale = (1.0 + est).clamp(0.05, 10.0);
                                scale_updates.push((sid, scale));
                            }
                        }
                    }
                }
            }
            measured.push(row);
        }
        for (sid, e) in additive_updates {
            self.optimizer.set_correction(sid, e);
        }
        for (sid, m) in scale_updates {
            self.optimizer.set_demand_scale(sid, m);
        }

        self.optimizer.run_to_convergence(OPTIMIZER_ITERS);
        let shares = Self::enactable_shares(&self.optimizer);
        // §4.4 batch mode: enact only on significant change.
        let max_rel_change = shares
            .iter()
            .flatten()
            .zip(self.enacted.iter().flatten())
            .map(|(new, old)| (new - old).abs() / old.max(1e-12))
            .fold(0.0f64, f64::max);
        let enact = max_rel_change >= self.config.enact_threshold;
        if enact {
            self.simulator.enact_shares(&shares);
            self.enacted = shares;
            self.enactments += 1;
        }
        let shares = self.enacted.clone();

        let problem = self.optimizer.problem();
        let miss_rate: Vec<f64> = (0..problem.tasks().len())
            .map(|t| {
                let done = self.simulator.completions(t);
                if done == 0 {
                    0.0
                } else {
                    self.simulator.deadline_misses(t) as f64 / done as f64
                }
            })
            .collect();
        let corrections: Vec<Vec<f64>> = self
            .correctors
            .iter()
            .map(|row| row.iter().map(ErrorCorrector::estimate).collect())
            .collect();

        if let Some(tel) = &self.tel {
            tel.windows.inc();
            if enact {
                tel.enactments.inc();
            }
            tel.utility.set(self.optimizer.utility());
            tel.worst_miss_rate.set(miss_rate.iter().copied().fold(0.0, f64::max));
            tel.dropped.set(self.simulator.dropped() as f64);
        }

        self.simulator.reset_stats();
        if self.history.len() == HISTORY_WINDOWS {
            self.history.remove(0);
        }
        self.history.push(WindowRecord {
            time: self.simulator.now(),
            utility: self.optimizer.utility(),
            shares,
            corrections,
            measured,
            miss_rate,
            enacted: enact,
        });
        self.history.last().expect("just pushed")
    }

    /// Runs `n` windows.
    pub fn run_windows(&mut self, n: usize) {
        for _ in 0..n {
            self.step_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lla_core::{
        Aggregation, AllocationSettings, Resource, ResourceId, ResourceKind, StepSizePolicy,
        TaskBuilder, TaskId, TriggerSpec, UtilityFn,
    };

    /// Two pipeline tasks on two CPUs, moderately loaded.
    fn problem() -> Problem {
        let resources: Vec<Resource> = (0..2)
            .map(|i| {
                Resource::new(ResourceId::new(i), ResourceKind::Cpu)
                    .with_lag(2.0)
                    .with_availability(0.9)
            })
            .collect();
        let mut tasks = Vec::new();
        for i in 0..2 {
            let mut b = TaskBuilder::new(format!("t{i}"));
            let a = b.subtask("a", ResourceId::new(0), 4.0);
            let c = b.subtask("b", ResourceId::new(1), 4.0);
            b.edge(a, c).unwrap();
            b.critical_time(120.0)
                .utility(UtilityFn::negative_latency())
                .trigger(TriggerSpec::Periodic { period: 40.0 })
                .aggregation(Aggregation::Sum);
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        Problem::new(resources, tasks).unwrap()
    }

    fn opt_config() -> OptimizerConfig {
        OptimizerConfig {
            step_policy: StepSizePolicy::adaptive(1.0),
            allocation: AllocationSettings::default(),
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn loop_runs_and_records() {
        let mut cl = ClosedLoop::new(
            problem(),
            opt_config(),
            SimConfig::default(),
            ClosedLoopConfig { window: 500.0, ..Default::default() },
        );
        cl.run_windows(3);
        assert_eq!(cl.history().len(), 3);
        let rec = &cl.history()[2];
        assert!(rec.time > 1_499.0);
        assert!(rec.utility.is_finite());
        assert_eq!(rec.shares.len(), 2);
    }

    #[test]
    fn history_keeps_the_newest_windows() {
        let config = ClosedLoopConfig { window: 100.0, ..Default::default() };
        let mut cl = ClosedLoop::new(problem(), opt_config(), SimConfig::default(), config);
        cl.run_windows(HISTORY_WINDOWS + 2);
        let last = cl.step_window().clone();
        let history = cl.history();
        assert_eq!(history.len(), HISTORY_WINDOWS);
        assert_eq!(history.last(), Some(&last), "the newest record comes last");
        assert_eq!(last.time, 100.0 * (HISTORY_WINDOWS + 3) as f64);
        assert_eq!(history[0].time, 400.0, "windows 1 to 3 were dropped");
    }

    #[test]
    fn telemetry_publishes_window_metrics() {
        let registry = MetricsRegistry::new();
        let mut cl = ClosedLoop::new(
            problem(),
            opt_config(),
            SimConfig::default(),
            ClosedLoopConfig { window: 500.0, ..Default::default() },
        );
        cl.attach_telemetry(&registry);
        cl.run_windows(3);
        let text = registry.prometheus_text();
        assert!(text.contains("lla_sim_windows_total 3"), "missing window counter:\n{text}");
        // The loop forwards the optimizer's own instrumentation too.
        assert!(text.contains("lla_opt_iterations_total"), "missing optimizer metrics:\n{text}");
        let last = cl.history().last().unwrap();
        assert!(text.contains(&format!("lla_sim_utility {}", last.utility)));
    }

    #[test]
    fn corrections_stay_zero_when_disabled() {
        let mut cl = ClosedLoop::new(
            problem(),
            opt_config(),
            SimConfig::default(),
            ClosedLoopConfig { window: 500.0, correction_enabled: false, ..Default::default() },
        );
        cl.run_windows(2);
        for rec in cl.history() {
            for row in &rec.corrections {
                for &e in row {
                    assert_eq!(e, 0.0);
                }
            }
        }
    }

    #[test]
    fn enabling_correction_discovers_overprediction() {
        let mut cl = ClosedLoop::new(
            problem(),
            opt_config(),
            SimConfig::default(),
            ClosedLoopConfig { window: 1_000.0, correction_enabled: false, ..Default::default() },
        );
        cl.run_windows(2);
        cl.set_correction_enabled(true);
        cl.run_windows(6);
        let last = cl.history().last().unwrap();
        // The worst-case model over-predicts under unsynchronized releases:
        // corrections should be negative for at least some subtasks.
        let any_negative = last.corrections.iter().flatten().any(|&e| e < -0.1);
        assert!(any_negative, "expected negative corrections, got {:?}", last.corrections);
    }

    #[test]
    fn demand_scaling_mode_also_discovers_overprediction() {
        let mut cl = ClosedLoop::new(
            problem(),
            opt_config(),
            SimConfig::default(),
            ClosedLoopConfig {
                window: 1_000.0,
                correction_enabled: true,
                correction_mode: CorrectionMode::DemandScaling,
                ..Default::default()
            },
        );
        cl.run_windows(8);
        // The worst-case model over-predicts, so learned scales fall
        // below 1 for at least some subtasks.
        let problem_ref = cl.optimizer().problem();
        let any_shrunk = problem_ref
            .tasks()
            .iter()
            .flat_map(|t| (0..t.len()).map(|s| problem_ref.share_model(t.subtask_id(s))))
            .any(|m| m.demand_scale() < 0.9);
        assert!(any_shrunk, "expected demand scales below 1");
        for rec in cl.history() {
            for &m in &rec.miss_rate {
                assert!(m < 0.05, "missed deadlines under demand scaling: {:?}", rec.miss_rate);
            }
        }
    }

    #[test]
    fn enact_threshold_suppresses_small_changes() {
        // Asymmetric fast/slow workload: corrections shift shares between
        // the classes early on, then stabilize.
        let mut cl = ClosedLoop::new(
            lla_workloads::prototype_workload(&Default::default()),
            opt_config(),
            SimConfig::default(),
            ClosedLoopConfig {
                window: 2_000.0,
                correction_enabled: true,
                enact_threshold: 0.02,
                ..Default::default()
            },
        );
        cl.run_windows(14);
        // Early windows enact (corrections move shares); once converged the
        // changes fall below 2% and enactment stops.
        let last = cl.history().last().unwrap();
        assert!(!last.enacted, "steady state should stop enacting");
        assert!(
            cl.enactments() < cl.history().len(),
            "some windows must have been suppressed: {} enactments over {} windows",
            cl.enactments(),
            cl.history().len()
        );
        // And at least one post-warmup window did enact.
        assert!(cl.history().iter().any(|r| r.enacted));
    }

    #[test]
    fn deadline_misses_stay_low_on_feasible_workload() {
        let mut cl = ClosedLoop::new(
            problem(),
            opt_config(),
            SimConfig::default(),
            ClosedLoopConfig { window: 1_000.0, ..Default::default() },
        );
        cl.run_windows(5);
        for rec in cl.history() {
            for &m in &rec.miss_rate {
                assert!(m < 0.05, "miss rate {m} too high: {:?}", rec.miss_rate);
            }
        }
    }
}
