//! The discrete-event simulator: tasks releasing job sets through their
//! subtask DAGs onto fluid proportional-share resources.
//!
//! This is the substrate standing in for the paper's RTSJ prototype
//! (§6.1): it executes the *actual* queueing dynamics — unsynchronized job
//! releases, work-conserving surplus distribution, FIFO queueing within a
//! subtask — whose deviation from the worst-case share model is precisely
//! what the online error correction (§6.3) is designed to absorb.

use crate::arrivals::ArrivalProcess;
use crate::ps::{FluidJob, PsResource};
use crate::stats::{Histogram, LatencyStats};
use lla_core::Problem;
use lla_telemetry::Profiler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Completion tolerance on remaining fluid work (milliseconds).
const COMPLETION_EPS: f64 = 1e-9;
/// Tolerance when matching arrival instants (milliseconds).
const TIME_EPS: f64 = 1e-9;

/// How a job's actual service demand relates to the subtask's WCET.
///
/// Real systems rarely consume their worst case on every job; the gap is
/// one of the model inaccuracies the online error correction (§6.3)
/// absorbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecTimeModel {
    /// Every job takes exactly `factor × WCET` (1.0 = worst case).
    Deterministic {
        /// Fraction of WCET.
        factor: f64,
    },
    /// Per-job demand uniform in `[lo, hi] × WCET` (seeded, reproducible).
    Uniform {
        /// Lower fraction of WCET.
        lo: f64,
        /// Upper fraction of WCET.
        hi: f64,
    },
}

impl Default for ExecTimeModel {
    fn default() -> Self {
        ExecTimeModel::Deterministic { factor: 1.0 }
    }
}

/// The high quantile tracked by the latency statistics of worst-case
/// tasks (the paper's error correction samples above the 90th
/// percentile); a task with a percentile spec tracks its own.
const WORST_CASE_QUANTILE: f64 = 0.9;

/// Configuration of the [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Seed for stochastic arrival processes and execution-time sampling.
    pub seed: u64,
    /// Maximum in-flight job sets per task; beyond it new releases are
    /// dropped (and counted), bounding memory under overload.
    pub max_in_flight: usize,
    /// Actual per-job service demand relative to WCET.
    pub exec_model: ExecTimeModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 1, max_in_flight: 10_000, exec_model: ExecTimeModel::default() }
    }
}

#[derive(Debug)]
struct JobSetState {
    task: usize,
    dispatched_at: f64,
    pending_preds: Vec<usize>,
    pending_leaves: usize,
}

/// The discrete-event simulation engine.
///
/// Owns a clone of the [`Problem`] (task structure and resource
/// parameters), one [`PsResource`] per resource, and one arrival process
/// per task. Shares are *enacted* via [`Simulator::enact_shares`] — in the
/// closed loop this is the optimizer's output.
#[derive(Debug)]
pub struct Simulator {
    problem: Problem,
    config: SimConfig,
    resources: Vec<PsResource>,
    /// `session_of[t][s]` is the session index of subtask `s` of task `t`
    /// on its resource.
    session_of: Vec<Vec<usize>>,
    /// `subtask_of[r][session]` is the `(task, subtask)` owning a session.
    subtask_of: Vec<Vec<(usize, usize)>>,
    arrivals: Vec<ArrivalProcess>,
    now: f64,
    next_set_id: u64,
    in_flight: HashMap<u64, JobSetState>,
    in_flight_per_task: Vec<usize>,
    subtask_stats: Vec<Vec<LatencyStats>>,
    task_stats: Vec<LatencyStats>,
    task_hists: Vec<Histogram>,
    completions: Vec<u64>,
    deadline_misses: Vec<u64>,
    dropped: u64,
    exec_rng: StdRng,
    /// Phase profiler for the event loop (disabled by default; see
    /// [`attach_profiler`](Self::attach_profiler)). Wall-clock only —
    /// it never reads or influences simulation state.
    profiler: Profiler,
}

impl Simulator {
    /// Creates a simulator over `problem` with the given initial shares
    /// (`shares[t][s] > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `shares` does not match the problem's shape or contains
    /// non-positive entries.
    pub fn new(problem: Problem, shares: &[Vec<f64>], config: SimConfig) -> Self {
        assert_eq!(shares.len(), problem.tasks().len(), "share shape mismatch");
        let mut resources: Vec<PsResource> = problem
            .resources()
            .iter()
            .map(|r| PsResource::new(r.availability().max(1e-6)))
            .collect();
        let mut session_of = Vec::with_capacity(problem.tasks().len());
        let mut subtask_of: Vec<Vec<(usize, usize)>> = vec![Vec::new(); problem.resources().len()];
        for task in problem.tasks() {
            let t = task.id().index();
            assert_eq!(shares[t].len(), task.len(), "share shape mismatch");
            let mut sess = Vec::with_capacity(task.len());
            for (s, sub) in task.subtasks().iter().enumerate() {
                let r = sub.resource().index();
                let idx = resources[r].add_session(shares[t][s]);
                debug_assert_eq!(idx, subtask_of[r].len());
                subtask_of[r].push((t, s));
                sess.push(idx);
            }
            session_of.push(sess);
        }
        let arrivals: Vec<ArrivalProcess> = problem
            .tasks()
            .iter()
            .map(|t| ArrivalProcess::new(t.trigger(), config.seed ^ (t.id().index() as u64)))
            .collect();
        // Per-subtask measurement quantiles (§2.1): a task tracking the
        // p-th end-to-end percentile needs each subtask measured at the
        // composed per-subtask percentile for its (longest) path length;
        // worst-case tasks fall back to the fixed high quantile.
        let subtask_stats: Vec<Vec<LatencyStats>> = problem
            .tasks()
            .iter()
            .map(|t| {
                (0..t.len())
                    .map(|s| {
                        let q = match t.percentile().per_subtask(t.graph().max_path_len_through(s))
                        {
                            Some(p) => (p / 100.0).clamp(0.01, 0.999),
                            None => WORST_CASE_QUANTILE,
                        };
                        LatencyStats::new(q)
                    })
                    .collect()
            })
            .collect();
        let task_stats: Vec<LatencyStats> = problem
            .tasks()
            .iter()
            .map(|t| {
                let q = match t.percentile() {
                    lla_core::PercentileSpec::Percentile(p) => (p / 100.0).clamp(0.01, 0.999),
                    _ => WORST_CASE_QUANTILE,
                };
                LatencyStats::new(q)
            })
            .collect();
        let n_tasks = problem.tasks().len();
        let task_hists = (0..n_tasks).map(|_| Histogram::for_latencies()).collect();
        Simulator {
            problem,
            config,
            resources,
            session_of,
            subtask_of,
            arrivals,
            now: 0.0,
            next_set_id: 0,
            in_flight: HashMap::new(),
            in_flight_per_task: vec![0; n_tasks],
            subtask_stats,
            task_stats,
            task_hists,
            completions: vec![0; n_tasks],
            deadline_misses: vec![0; n_tasks],
            dropped: 0,
            exec_rng: StdRng::seed_from_u64(config.seed.wrapping_add(0x5eed)),
            profiler: Profiler::disabled(),
        }
    }

    /// Starts charging the event loop's phases to `profiler`: every
    /// [`run_until`](Self::run_until) event opens a `sim_event` scope
    /// with `advance` / `completions` / `arrivals` children. Purely
    /// passive; a disabled profiler costs one branch per scope.
    pub fn attach_profiler(&mut self, profiler: &Profiler) {
        self.profiler = profiler.clone();
    }

    /// Stops profiling (recorded scopes stay in the profiler).
    pub fn detach_profiler(&mut self) {
        self.profiler = Profiler::disabled();
    }

    /// Current simulation time (milliseconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The simulated problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Enacts a new share assignment (`shares[t][s] > 0`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or non-positive shares.
    pub fn enact_shares(&mut self, shares: &[Vec<f64>]) {
        assert_eq!(shares.len(), self.session_of.len(), "share shape mismatch");
        for (t, task) in self.problem.tasks().iter().enumerate() {
            assert_eq!(shares[t].len(), task.len(), "share shape mismatch");
            for (s, sub) in task.subtasks().iter().enumerate() {
                self.resources[sub.resource().index()]
                    .set_share(self.session_of[t][s], shares[t][s]);
            }
        }
    }

    /// Latency statistics of one subtask.
    pub fn subtask_stats(&self, task: usize, subtask: usize) -> &LatencyStats {
        &self.subtask_stats[task][subtask]
    }

    /// End-to-end latency statistics of one task.
    pub fn task_stats(&self, task: usize) -> &LatencyStats {
        &self.task_stats[task]
    }

    /// Full end-to-end latency distribution of one task (log-bucketed
    /// histogram; supports arbitrary quantile queries).
    pub fn task_histogram(&self, task: usize) -> &Histogram {
        &self.task_hists[task]
    }

    /// Completed job sets per task.
    pub fn completions(&self, task: usize) -> u64 {
        self.completions[task]
    }

    /// Job sets that finished after their critical time.
    pub fn deadline_misses(&self, task: usize) -> u64 {
        self.deadline_misses[task]
    }

    /// Job sets dropped because the per-task in-flight cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Job sets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Clears all latency statistics and counters (not the queues) — used
    /// at measurement-window boundaries.
    pub fn reset_stats(&mut self) {
        for ts in &mut self.subtask_stats {
            for s in ts {
                s.reset();
            }
        }
        for s in &mut self.task_stats {
            s.reset();
        }
        for h in &mut self.task_hists {
            h.reset();
        }
        self.completions.iter_mut().for_each(|c| *c = 0);
        self.deadline_misses.iter_mut().for_each(|c| *c = 0);
        self.dropped = 0;
    }

    /// Replaces a task's arrival specification mid-run (workload step).
    pub fn set_trigger(&mut self, task: usize, spec: lla_core::TriggerSpec) {
        self.arrivals[task].set_spec(spec);
    }

    /// Runs the simulation until `t_end` (absolute simulation time).
    pub fn run_until(&mut self, t_end: f64) {
        while self.now < t_end - TIME_EPS {
            let t_arr =
                self.arrivals.iter().map(ArrivalProcess::peek).fold(f64::INFINITY, f64::min);
            let t_comp = self
                .resources
                .iter()
                .filter_map(PsResource::next_completion)
                .map(|(dt, _)| self.now + dt)
                .fold(f64::INFINITY, f64::min);
            let t_next = t_arr.min(t_comp).min(t_end);
            debug_assert!(t_next >= self.now - TIME_EPS, "time went backwards");

            let dt = (t_next - self.now).max(0.0);
            let _event_prof = self.profiler.scope("sim_event");
            {
                let _prof = self.profiler.scope("advance");
                for r in &mut self.resources {
                    r.advance(dt);
                }
            }
            self.now = t_next;

            {
                let _prof = self.profiler.scope("completions");
                self.drain_completions();
            }
            let _prof = self.profiler.scope("arrivals");
            self.drain_arrivals();
        }
    }

    /// Runs the simulation for `duration` more milliseconds.
    pub fn run_for(&mut self, duration: f64) {
        let t_end = self.now + duration;
        self.run_until(t_end);
    }

    fn drain_completions(&mut self) {
        // Keep draining: a completion may release a successor on another
        // resource whose queue head could already be complete only if its
        // demand were zero, which construction forbids — a single pass per
        // resource suffices, but successors released *now* must still be
        // enqueued before time advances, which happens here.
        for r in 0..self.resources.len() {
            let done = self.resources[r].pop_completed(COMPLETION_EPS);
            for (session, job) in done {
                self.handle_completion(r, session, job);
            }
        }
    }

    fn handle_completion(&mut self, resource: usize, session: usize, job: FluidJob) {
        let (t, s) = self.subtask_of[resource][session];
        self.subtask_stats[t][s].record(self.now - job.released_at);

        let task = &self.problem.tasks()[t];
        let graph = task.graph();
        let critical_time = task.critical_time();
        let is_leaf = graph.successors(s).is_empty();
        let successors: Vec<usize> = graph.successors(s).to_vec();

        let mut finished = false;
        if let Some(set) = self.in_flight.get_mut(&job.set_id) {
            for &succ in &successors {
                set.pending_preds[succ] -= 1;
            }
            if is_leaf {
                set.pending_leaves -= 1;
                if set.pending_leaves == 0 {
                    finished = true;
                }
            }
        }

        // Release successors whose predecessors are all complete.
        for &succ in &successors {
            let ready =
                self.in_flight.get(&job.set_id).is_some_and(|set| set.pending_preds[succ] == 0);
            if ready {
                self.release(job.set_id, t, succ);
            }
        }

        if finished {
            let set = self.in_flight.remove(&job.set_id).expect("set exists");
            let latency = self.now - set.dispatched_at;
            self.task_stats[t].record(latency);
            self.task_hists[t].record(latency);
            self.completions[t] += 1;
            if latency > critical_time {
                self.deadline_misses[t] += 1;
            }
            self.in_flight_per_task[set.task] -= 1;
        }
    }

    fn drain_arrivals(&mut self) {
        for t in 0..self.arrivals.len() {
            while self.arrivals[t].peek() <= self.now + TIME_EPS {
                let (_, batch) = self.arrivals[t].next_batch();
                for _ in 0..batch {
                    self.dispatch(t);
                }
            }
        }
    }

    fn dispatch(&mut self, t: usize) {
        if self.in_flight_per_task[t] >= self.config.max_in_flight {
            self.dropped += 1;
            return;
        }
        let task = &self.problem.tasks()[t];
        let graph = task.graph();
        let set_id = self.next_set_id;
        self.next_set_id += 1;
        let pending_preds: Vec<usize> =
            (0..task.len()).map(|s| graph.predecessors(s).len()).collect();
        self.in_flight.insert(
            set_id,
            JobSetState {
                task: t,
                dispatched_at: self.now,
                pending_preds,
                pending_leaves: graph.leaves().len(),
            },
        );
        self.in_flight_per_task[t] += 1;
        let root = graph.root();
        self.release(set_id, t, root);
    }

    fn release(&mut self, set_id: u64, t: usize, s: usize) {
        let task = &self.problem.tasks()[t];
        let sub = &task.subtasks()[s];
        let demand = sub.exec_time()
            * match self.config.exec_model {
                ExecTimeModel::Deterministic { factor } => factor,
                ExecTimeModel::Uniform { lo, hi } => {
                    if hi > lo {
                        self.exec_rng.gen_range(lo..=hi)
                    } else {
                        lo
                    }
                }
            };
        let job = FluidJob { set_id, remaining: demand, released_at: self.now };
        self.resources[sub.resource().index()].enqueue(self.session_of[t][s], job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lla_core::{
        Aggregation, Resource, ResourceId, ResourceKind, TaskBuilder, TaskId, TriggerSpec,
        UtilityFn,
    };

    /// One task, one subtask, periodic arrivals — analytically checkable.
    fn single_problem(period: f64, wcet: f64) -> Problem {
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu)];
        let mut b = TaskBuilder::new("t");
        b.subtask("s", ResourceId::new(0), wcet);
        b.critical_time(1000.0)
            .utility(UtilityFn::negative_latency())
            .trigger(TriggerSpec::Periodic { period })
            .aggregation(Aggregation::Sum);
        Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap()
    }

    #[test]
    fn isolated_job_latency_is_work_over_rate() {
        // Single session, full resource => rate 1 => latency = WCET.
        let p = single_problem(100.0, 5.0);
        let mut sim = Simulator::new(p, &[vec![0.5]], SimConfig::default());
        sim.run_until(1000.0);
        let stats = sim.subtask_stats(0, 0);
        assert_eq!(stats.count(), 10);
        // Work conserving: alone on the resource, served at full rate.
        assert!((stats.mean().unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(sim.completions(0), 10);
        assert_eq!(sim.deadline_misses(0), 0);
    }

    #[test]
    fn two_competing_tasks_share_proportionally() {
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu)];
        let mut tasks = Vec::new();
        for i in 0..2 {
            let mut b = TaskBuilder::new(format!("t{i}"));
            b.subtask("s", ResourceId::new(0), 4.0);
            b.critical_time(1000.0)
                .utility(UtilityFn::negative_latency())
                .trigger(TriggerSpec::Periodic { period: 10.0 });
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        let p = Problem::new(resources, tasks).unwrap();
        // Both tasks release at t=0, 10, 20, ... with equal shares: each
        // runs at rate 0.5 while both are backlogged => both 4ms jobs finish
        // at t=8 (latency 8); the resource idles 8..10.
        let mut sim = Simulator::new(p, &[vec![0.5], vec![0.5]], SimConfig::default());
        sim.run_until(100.0);
        for t in 0..2 {
            let m = sim.subtask_stats(t, 0).mean().unwrap();
            assert!((m - 8.0).abs() < 1e-9, "task {t} mean {m}");
        }
    }

    #[test]
    fn chain_precedence_is_respected() {
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu),
        ];
        let mut b = TaskBuilder::new("chain");
        let a = b.subtask("a", ResourceId::new(0), 3.0);
        let c = b.subtask("b", ResourceId::new(1), 2.0);
        b.edge(a, c).unwrap();
        b.critical_time(1000.0).trigger(TriggerSpec::Periodic { period: 50.0 });
        let p = Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap();
        let mut sim = Simulator::new(p, &[vec![0.5, 0.5]], SimConfig::default());
        sim.run_until(500.0);
        // End-to-end = 3 + 2 = 5ms (each stage alone on its resource).
        assert!((sim.task_stats(0).mean().unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(sim.completions(0), 10);
    }

    #[test]
    fn fanout_completes_when_all_leaves_finish() {
        let resources: Vec<Resource> =
            (0..3).map(|i| Resource::new(ResourceId::new(i), ResourceKind::Cpu)).collect();
        let mut b = TaskBuilder::new("fan");
        let root = b.subtask("r", ResourceId::new(0), 1.0);
        let l1 = b.subtask("l1", ResourceId::new(1), 2.0);
        let l2 = b.subtask("l2", ResourceId::new(2), 7.0);
        b.edge(root, l1).unwrap();
        b.edge(root, l2).unwrap();
        b.critical_time(1000.0).trigger(TriggerSpec::Periodic { period: 100.0 });
        let p = Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap();
        let mut sim = Simulator::new(p, &[vec![0.9, 0.9, 0.9]], SimConfig::default());
        sim.run_until(300.0);
        // End-to-end = 1 + max(2, 7) = 8.
        assert!((sim.task_stats(0).mean().unwrap() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn queueing_appears_when_share_below_throughput_floor() {
        // Task 0 (WCET 5ms every 10ms) needs share 0.5 but gets 0.2 while a
        // heavy competitor (WCET 6ms every 10ms, share 0.8) keeps the
        // resource saturated => task 0's queue grows without bound.
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu)];
        let mut tasks = Vec::new();
        for (i, wcet) in [(0usize, 5.0), (1usize, 6.0)] {
            let mut b = TaskBuilder::new(format!("t{i}"));
            b.subtask("s", ResourceId::new(0), wcet);
            b.critical_time(10_000.0)
                .utility(UtilityFn::negative_latency())
                .trigger(TriggerSpec::Periodic { period: 10.0 });
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        let p = Problem::new(resources, tasks).unwrap();
        let mut sim = Simulator::new(p, &[vec![0.2], vec![0.8]], SimConfig::default());
        sim.run_until(2_000.0);
        // Task 0 is underprovisioned (rate 0.25 < 0.5 needed): its backlog
        // grows without bound and latencies exceed the competitor's.
        let slow = sim.subtask_stats(0, 0).max().unwrap();
        let fast = sim.subtask_stats(1, 0).max().unwrap();
        assert!(slow > 10.0 * fast, "underprovisioned task should queue: {slow} vs {fast}");
        assert!(sim.in_flight() > 10, "backlog should accumulate");
    }

    #[test]
    fn overload_cap_drops_sets() {
        let p = single_problem(1.0, 5.0); // 5x overload
        let cfg = SimConfig { max_in_flight: 50, ..Default::default() };
        let mut sim = Simulator::new(p, &[vec![0.9]], cfg);
        sim.run_until(2_000.0);
        assert!(sim.dropped() > 0, "cap must drop sets under overload");
        assert!(sim.in_flight() <= 50);
    }

    #[test]
    fn bursty_arrivals_release_batches() {
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu)];
        let mut b = TaskBuilder::new("burst");
        b.subtask("s", ResourceId::new(0), 1.0);
        b.critical_time(1000.0).trigger(TriggerSpec::Bursty { period: 100.0, burst: 4 });
        let p = Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap();
        let mut sim = Simulator::new(p, &[vec![1.0]], SimConfig::default());
        sim.run_until(100.0);
        // One burst of 4 jobs at t = 0, each 1ms, FIFO: latencies 1,2,3,4.
        let s = sim.subtask_stats(0, 0);
        assert_eq!(s.count(), 4);
        assert!((s.mean().unwrap() - 2.5).abs() < 1e-9);
        assert!((s.max().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn enacting_higher_share_lowers_latency() {
        let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu)];
        let mut tasks = Vec::new();
        for i in 0..2 {
            let mut b = TaskBuilder::new(format!("t{i}"));
            b.subtask("s", ResourceId::new(0), 5.0);
            b.critical_time(10_000.0).trigger(TriggerSpec::Periodic { period: 20.0 });
            tasks.push(b.build(TaskId::new(i)).unwrap());
        }
        let p = Problem::new(resources, tasks).unwrap();
        let mut sim = Simulator::new(p, &[vec![0.5], vec![0.5]], SimConfig::default());
        sim.run_until(1_000.0);
        let before = sim.subtask_stats(0, 0).mean().unwrap();
        sim.reset_stats();
        sim.enact_shares(&[vec![0.8], vec![0.2]]);
        sim.run_until(2_000.0);
        let after = sim.subtask_stats(0, 0).mean().unwrap();
        assert!(after < before, "more share must not slow a task: {after} !< {before}");
    }

    #[test]
    fn percentile_spec_selects_measurement_quantile() {
        use lla_core::PercentileSpec;
        // Bursts of 2 jobs (1ms each) at full share: latencies alternate
        // 1ms and 2ms, so the median is ~1ms while a high percentile is
        // ~2ms.
        let build = |spec: PercentileSpec| {
            let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu)];
            let mut b = TaskBuilder::new("t");
            b.subtask("s", ResourceId::new(0), 1.0);
            b.critical_time(1000.0)
                .trigger(TriggerSpec::Bursty { period: 100.0, burst: 2 })
                .percentile(spec);
            Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap()
        };
        let mut median_sim = Simulator::new(
            build(PercentileSpec::Percentile(50.0)),
            &[vec![1.0]],
            SimConfig::default(),
        );
        let mut worst_sim =
            Simulator::new(build(PercentileSpec::WorstCase), &[vec![1.0]], SimConfig::default());
        median_sim.run_until(20_000.0);
        worst_sim.run_until(20_000.0);
        let median = median_sim.subtask_stats(0, 0).quantile_estimate().unwrap();
        let high = worst_sim.subtask_stats(0, 0).quantile_estimate().unwrap();
        assert!(median < 1.6, "median-tracking estimate too high: {median}");
        assert!(high > 1.6, "default 90th-percentile estimate too low: {high}");
    }

    #[test]
    fn composed_percentile_used_on_longer_paths() {
        use lla_core::PercentileSpec;
        // A 2-stage chain tracking the end-to-end median must measure each
        // subtask at the composed ~70.7th percentile, above the median.
        let resources = vec![
            Resource::new(ResourceId::new(0), ResourceKind::Cpu),
            Resource::new(ResourceId::new(1), ResourceKind::Cpu),
        ];
        let mut b = TaskBuilder::new("t");
        let a = b.subtask("a", ResourceId::new(0), 1.0);
        let c = b.subtask("b", ResourceId::new(1), 1.0);
        b.edge(a, c).unwrap();
        b.critical_time(1000.0)
            .trigger(TriggerSpec::Bursty { period: 100.0, burst: 2 })
            .percentile(PercentileSpec::Percentile(50.0));
        let p = Problem::new(resources, vec![b.build(TaskId::new(0)).unwrap()]).unwrap();
        let mut sim = Simulator::new(p, &[vec![1.0, 1.0]], SimConfig::default());
        sim.run_until(20_000.0);
        // Stage 0 latencies alternate 1 and 2ms; the 70.7th percentile of
        // that stream is 2ms (above the 1.?ms median).
        let q = sim.subtask_stats(0, 0).quantile_estimate().unwrap();
        assert!(q > 1.5, "composed percentile should sit in the upper half: {q}");
    }

    #[test]
    fn task_histogram_tracks_distribution() {
        let p = single_problem(10.0, 2.0);
        let mut sim = Simulator::new(p, &[vec![0.5]], SimConfig::default());
        sim.run_until(10_000.0);
        let h = sim.task_histogram(0);
        assert_eq!(h.count(), sim.completions(0));
        // All jobs take exactly 2ms (alone on the resource, rate 1); any
        // quantile lands on the 2ms bucket within resolution.
        let median = h.quantile(0.5).unwrap();
        assert!((median - 2.0).abs() / 2.0 < 0.15, "median {median}");
        sim.reset_stats();
        assert_eq!(sim.task_histogram(0).count(), 0);
    }

    #[test]
    fn uniform_exec_model_varies_demand() {
        let p = single_problem(100.0, 10.0);
        let cfg = SimConfig {
            exec_model: ExecTimeModel::Uniform { lo: 0.4, hi: 0.8 },
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(p, &[vec![0.5]], cfg);
        sim.run_until(50_000.0);
        let stats = sim.subtask_stats(0, 0);
        // Alone on the resource at rate 1: latency == sampled demand.
        assert!(stats.min().unwrap() >= 4.0 - 1e-9, "min {:?}", stats.min());
        assert!(stats.max().unwrap() <= 8.0 + 1e-9, "max {:?}", stats.max());
        let mean = stats.mean().unwrap();
        assert!((mean - 6.0).abs() < 0.3, "mean {mean} should be near 6");
    }

    #[test]
    fn exec_model_is_deterministic_per_seed() {
        let cfg = SimConfig {
            exec_model: ExecTimeModel::Uniform { lo: 0.5, hi: 1.0 },
            seed: 9,
            ..SimConfig::default()
        };
        let mut a = Simulator::new(single_problem(50.0, 5.0), &[vec![0.5]], cfg);
        let mut b = Simulator::new(single_problem(50.0, 5.0), &[vec![0.5]], cfg);
        a.run_until(5_000.0);
        b.run_until(5_000.0);
        assert_eq!(a.subtask_stats(0, 0).mean(), b.subtask_stats(0, 0).mean());
    }

    #[test]
    fn reset_stats_clears_counters() {
        let p = single_problem(10.0, 2.0);
        let mut sim = Simulator::new(p, &[vec![0.5]], SimConfig::default());
        sim.run_until(100.0);
        assert!(sim.completions(0) > 0);
        sim.reset_stats();
        assert_eq!(sim.completions(0), 0);
        assert_eq!(sim.subtask_stats(0, 0).count(), 0);
    }
}
