//! The four workloads, and what they share: the round drivers the
//! certificate loop runs, and the per-layer metric set every traced run
//! prints.

pub mod closed;
pub mod dist;
pub mod flat;
pub mod sharded;

use crate::cert::{solve_to_cert, Rounds, Solve};
use crate::stats::{median, peak_rss_mb, quantile, Metric};
use crate::trace::{total_of, Node, Spans};
use crate::Report;
use lla_core::{
    dual_value, AllocationSettings, IterationReport, Optimizer, OptimizerConfig, Problem,
    ShardedOptimizer,
};
use lla_telemetry::Profiler;
use std::collections::BTreeMap;
use std::time::Instant;

/// Rounds a solve may take before it counts as failed.
pub const ROUND_CAP: usize = 20_000;

/// The optimizer configuration of every workload: the library default
/// with the per-round trace off (it copies every resource's usage each
/// round, which a time-to-solution deployment does not keep).
pub fn optimizer_config() -> OptimizerConfig {
    OptimizerConfig { record_trace: false, ..OptimizerConfig::default() }
}

/// The in-process optimizer, certified at its own prices.
pub struct OptRounds<'a> {
    pub opt: &'a mut Optimizer,
    pub settings: AllocationSettings,
    /// Profiles the first round alone, to separate the plan lowering the
    /// optimizer performs lazily there from the solve.
    pub lower_probe: Option<Profiler>,
    /// Seconds the first round spent lowering the plan (with a probe).
    pub lower_s: f64,
}

impl<'a> OptRounds<'a> {
    pub fn new(opt: &'a mut Optimizer, settings: AllocationSettings, probe: bool) -> Self {
        OptRounds { opt, settings, lower_probe: probe.then(Profiler::recording), lower_s: 0.0 }
    }
}

impl Rounds for OptRounds<'_> {
    fn round(&mut self, spans: &Spans) -> IterationReport {
        let _s = spans.enter("Optimizer::step");
        let Some(probe) = self.lower_probe.take() else { return self.opt.step() };
        self.opt.attach_profiler(&probe);
        let report = self.opt.step();
        self.opt.detach_profiler();
        self.lower_s = frame_total_ns(&probe, "plan_lower") / 1e9;
        report
    }

    fn dual(&mut self, spans: &Spans) -> f64 {
        let _s = spans.enter("dual_value");
        dual_value(self.opt.problem(), self.opt.prices(), &self.settings).value
    }
}

/// A cold in-process solve and the optimizer it left behind.
pub struct Cold {
    pub opt: Optimizer,
    pub solve: Solve,
    /// `Optimizer::new` plus the plan lowering of the first round.
    pub setup_s: f64,
    /// The solve's wall time without that lowering.
    pub solve_s: f64,
}

/// Solves a clone of `problem` from a cold start to its first certified
/// round. With `profiler` the optimizer reports every round's phases to
/// it; without, only the first round is profiled, for its lowering.
pub fn cold_solve(problem: &Problem, spans: &Spans, profiler: Option<&Profiler>) -> Cold {
    let config = optimizer_config();
    let problem = problem.clone();
    let (mut opt, new_s) = {
        let _s = spans.enter("Optimizer::new");
        timed(|| Optimizer::new(problem, config))
    };
    if let Some(p) = profiler {
        opt.attach_profiler(p);
    }
    let mut rounds = OptRounds::new(&mut opt, config.allocation, profiler.is_none());
    let solve = solve_to_cert(&mut rounds, ROUND_CAP, spans);
    let lower_s = match profiler {
        Some(p) => frame_total_ns(p, "plan_lower") / 1e9,
        None => rounds.lower_s,
    };
    opt.detach_profiler();
    Cold { opt, solve, setup_s: new_s + lower_s, solve_s: solve.wall_s - lower_s }
}

/// The sharded optimizer, certified at its exported global prices.
pub struct ShardRounds<'a> {
    pub opt: &'a mut ShardedOptimizer,
    /// Whether rounds fan the shards out over threads (`step`) or run
    /// them one after the other (`step_timed`, the same arithmetic).
    pub fan_out: bool,
}

impl Rounds for ShardRounds<'_> {
    fn round(&mut self, spans: &Spans) -> IterationReport {
        let _s = spans.enter("ShardedOptimizer::step");
        if self.fan_out {
            self.opt.step()
        } else {
            self.opt.step_timed().0
        }
    }

    fn dual(&mut self, spans: &Spans) -> f64 {
        let state = {
            let _s = spans.enter("export_state");
            self.opt.export_state()
        };
        let _s = spans.enter("dual_value");
        dual_value(self.opt.problem(), state.prices(), &self.opt.config().allocation).value
    }
}

/// Per-layer metrics every traced run prints, with their units. Layer
/// timings that exist on one deployment path only are reported as extra
/// lines and in the artifact instead (a workload that bypasses a layer
/// has no time to report for it); the counts and ratios below read 0
/// where the workload bypasses their layer.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("optimizer.round_us", "us"),
    ("optimizer.allocate_us", "us"),
    ("optimizer.price_us", "us"),
    ("optimizer.lagrangian_us", "us"),
    ("plan.lower_ms", "ms"),
    ("plan.allocate_speedup_2t", "ratio"),
    ("certify.dual_ms", "ms"),
    ("certify.calls", "count"),
    ("shard.measured_speedup", "ratio"),
    ("shard.modeled_speedup", "ratio"),
    ("shard.shared_resources", "count"),
    ("shard.recert_rounds_p50", "count"),
    ("shard.recert_rounds_p90", "count"),
    ("runtime.messages_per_round", "count"),
    ("codec.overhead_frac", "ratio"),
    ("codec.frames_rejected", "count"),
    ("closedloop.reopt_iters_per_window", "count"),
    ("sim.jobs_per_window", "count"),
    ("sim.deadline_miss_frac", "ratio"),
    ("obs.traced_overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
];

/// Collects per-layer values by name; unset names print as 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    extra: Vec<Metric>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, value);
    }

    /// A layer-specific timing outside the common per-layer set.
    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extra.push(Metric::new(name, value, unit));
    }

    pub fn finish(self) -> (Vec<Metric>, Vec<Metric>) {
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, *self.values.get(name).unwrap_or(&0.0), unit))
            .collect();
        (metrics, self.extra)
    }
}

/// Fills the `optimizer.*` and `plan.lower_ms` metrics from the
/// [`Optimizer`] profiler scopes grafted into `nodes`.
pub fn optimizer_phases(layers: &mut Layers, nodes: &BTreeMap<String, Node>) {
    let (step_ns, steps) = total_of(nodes, "step");
    let per_step = |name: &str| total_of(nodes, name).0 as f64 / steps.max(1) as f64 / 1e3;
    layers.set("optimizer.round_us", step_ns as f64 / steps.max(1) as f64 / 1e3);
    layers.set("optimizer.allocate_us", per_step("allocate"));
    layers.set("optimizer.price_us", per_step("price"));
    layers.set("optimizer.lagrangian_us", per_step("lagrangian"));
    plan_lowering(layers, nodes);
}

/// The `optimizer.*` and `plan.*` metrics of the in-process kernels on
/// `problem`, from a profiled cold solve kept out of the workload's own
/// span tree (for workloads that reach the kernels only indirectly).
pub fn kernel_layers(layers: &mut Layers, problem: &Problem, report: &mut Report) {
    let spans = Spans::on();
    let profiler = Profiler::recording();
    let mut cold = {
        let _s = spans.enter("kernels");
        let cold = cold_solve(problem, &spans, Some(&profiler));
        spans.graft("Optimizer::step", &profiler.snapshot());
        cold
    };
    report.count_solve(&cold.solve);
    optimizer_phases(layers, &spans.nodes());
    layers.set("plan.allocate_speedup_2t", allocate_speedup_2t(&mut cold.opt, 20));
}

/// `plan.lower_ms`: mean wall time of a `plan_lower` scope.
pub fn plan_lowering(layers: &mut Layers, nodes: &BTreeMap<String, Node>) {
    let (ns, lowers) = total_of(nodes, "plan_lower");
    if lowers > 0 {
        layers.set("plan.lower_ms", ns as f64 / lowers as f64 / 1e6);
    }
}

/// Ratio of allocate time per round at one plan worker to two, over
/// `rounds` further steps of `opt` (its state moves on; the kernels' cost
/// per round does not depend on it).
pub fn allocate_speedup_2t(opt: &mut Optimizer, rounds: usize) -> f64 {
    let mut per_round = [0.0f64; 2];
    for (i, threads) in ["1", "2"].into_iter().enumerate() {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let profiler = Profiler::recording();
        opt.attach_profiler(&profiler);
        opt.run(rounds);
        opt.detach_profiler();
        per_round[i] = frame_total_ns(&profiler, "allocate");
    }
    std::env::set_var("RAYON_NUM_THREADS", "1");
    per_round[0] / per_round[1].max(1.0)
}

/// Inclusive nanoseconds over every `name` scope of `profiler`.
pub fn frame_total_ns(profiler: &Profiler, name: &str) -> f64 {
    profiler.snapshot().frames.iter().filter(|f| f.name == name).map(|f| f.total_ns as f64).sum()
}

/// The `k`-th instance seed derived from the run's `--seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// A small seeded generator (splitmix64) for the benchmark's own draws.
#[derive(Debug, Clone)]
pub struct Draws(u64);

impl Draws {
    pub fn new(seed: u64) -> Self {
        Draws(seed ^ 0x5EED_BE7C_4A11_0C8D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % n as u64) as usize
    }
}

/// The measurement window of a run, started after instance generation.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    end: Instant,
}

impl Budget {
    pub fn start(seconds: f64) -> Self {
        Budget { end: Instant::now() + std::time::Duration::from_secs_f64(seconds.max(0.0)) }
    }

    pub fn spent(&self) -> bool {
        Instant::now() >= self.end
    }
}

/// Wall seconds of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The end-to-end metrics of an untraced run: medians of its set-ups,
/// cold solves (seconds) and their rounds, and the process's peak memory.
/// The certified operations' mean, median and p90 (milliseconds) are
/// printed beside them but not reported as metrics: they follow how many
/// of a run's re-certifications take a hundred rounds rather than one,
/// and on top of the host's drift that spread them past 25% between
/// seeds.
pub fn end_to_end(
    report: &mut Report,
    setups: &[f64],
    colds: &[f64],
    rounds: &[f64],
    ops_ms: &[f64],
) {
    let mean = ops_ms.iter().sum::<f64>() / ops_ms.len() as f64;
    report.notes.push(("operations", ops_ms.len().to_string()));
    report.notes.push(("cert_ms_mean", mean.to_string()));
    report.notes.push(("cert_ms_p50", median(ops_ms).to_string()));
    report.notes.push(("cert_ms_p90", quantile(ops_ms, 0.9).to_string()));
    report.metrics = vec![
        Metric::new("setup_s", median(setups), "s"),
        Metric::new("time_to_cert_s", median(colds), "s"),
        Metric::new("rounds_to_cert", median(rounds), "count"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
}

/// `certify.dual_ms` and `certify.calls` from the recorded spans.
pub fn certify_layers(layers: &mut Layers, nodes: &BTreeMap<String, Node>) {
    let (ns, calls) = total_of(nodes, "certify");
    layers.set("certify.calls", calls as f64);
    if calls > 0 {
        layers.set("certify.dual_ms", ns as f64 / calls as f64 / 1e6);
    }
}

/// Seconds of self time in the spans whose paths start with `prefix`.
pub fn accounted(nodes: &BTreeMap<String, Node>, prefix: &str) -> f64 {
    nodes.iter().filter(|(p, _)| p.starts_with(prefix)).map(|(_, n)| n.self_ns as f64).sum::<f64>()
        / 1e9
}

/// `obs.traced_overhead_frac` and `trace.accounted_frac` of a traced run
/// whose traced operations took `traced_s` in all, `accounted_s` of it
/// inside layer spans, and whose untraced runs of the same operations
/// took `plain_s`.
pub fn coverage(layers: &mut Layers, accounted_s: f64, plain_s: f64, traced_s: f64) {
    layers.set("obs.traced_overhead_frac", traced_s / plain_s - 1.0);
    layers.set("trace.accounted_frac", accounted_s / plain_s);
}

/// Moves a traced run's layers and spans into its report.
pub fn finish(report: &mut Report, layers: Layers, nodes: BTreeMap<String, Node>) {
    let (metrics, extra) = layers.finish();
    report.metrics = metrics;
    report.extra = extra;
    report.spans = nodes;
}
