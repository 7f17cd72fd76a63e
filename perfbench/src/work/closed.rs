//! `closed-loop`: `ClosedLoop` with error correction on over a generated
//! instance, stepping 1000-simulated-ms windows (measure → correct →
//! re-optimise → enact) until the budget is spent, and certifying the
//! re-optimised allocation after every window. The only workload that
//! runs `lla-sim`; its `Simulator::run_until` scans every arrival and
//! resource per event, so a window's cost grows ~n².

use super::{
    accounted, certify_layers, cold_solve, coverage, end_to_end, finish, kernel_layers,
    optimizer_config, sub_seed, timed, Budget, Layers, OptRounds, ROUND_CAP,
};
use crate::cert::{gap_closed, naive_violation, solve_to_cert, DELTA};
use crate::instances::{describe, generate_flat, Instance};
use crate::trace::Spans;
use crate::{Ctx, Report};
use lla_core::dual_value;
use lla_sim::{ClosedLoop, ClosedLoopConfig, SimConfig, Simulator};
use lla_telemetry::MetricsRegistry;
use lla_workloads::RandomWorkloadConfig;

const WINDOW_MS: f64 = 1_000.0;
/// Windows every run completes, whatever the budget, so their counts can
/// be compared across runs of a seed.
const MIN_WINDOWS: usize = 12;

fn build(inst: &Instance, seed: u64) -> ClosedLoop {
    ClosedLoop::new(
        inst.problem.clone(),
        optimizer_config(),
        SimConfig { seed, ..SimConfig::default() },
        ClosedLoopConfig { window: WINDOW_MS, correction_enabled: true, ..Default::default() },
    )
}

/// Whether the loop's current allocation is certified at its optimizer's
/// prices, with its worst violation.
fn certified(cl: &ClosedLoop, spans: &Spans) -> (bool, f64) {
    let _s = spans.enter("certify");
    let opt = cl.optimizer();
    let viol = naive_violation(opt.problem(), opt.allocation().lats());
    let dual = {
        let _s = spans.enter("dual_value");
        dual_value(opt.problem(), opt.prices(), &optimizer_config().allocation).value
    };
    (viol <= DELTA && gap_closed(opt.utility(), dual), viol)
}

/// Certifies the allocation a window left behind. Returns whether a
/// certificate was reached, the worst violation, and whether the loop's
/// own convergence test had already reached it. When it had not, a copy
/// of the loop's optimizer keeps solving until it does; that time counts
/// toward the window, as the wait for a certified allocation.
fn certify_window(cl: &ClosedLoop, spans: &Spans) -> (bool, f64, bool) {
    let (ok, viol) = certified(cl, spans);
    if ok {
        return (true, viol, true);
    }
    let mut opt = cl.optimizer().clone();
    let settings = optimizer_config().allocation;
    let solve = solve_to_cert(&mut OptRounds::new(&mut opt, settings, false), ROUND_CAP, spans);
    (solve.certified, naive_violation(opt.problem(), opt.allocation().lats()), false)
}

/// Mean deadline-miss rate over a window's tasks.
fn miss_rate(cl: &ClosedLoop) -> f64 {
    let record = cl.history().last().expect("a window ran");
    record.miss_rate.iter().sum::<f64>() / record.miss_rate.len().max(1) as f64
}

/// Instances per run for the cold solves (a few milliseconds each, so
/// many instances cost little and steady their median).
const INSTANCES: u64 = 48;
/// The first `LOOPS` instances also get a loop; windows go to them in
/// turn.
const LOOPS: usize = 12;

pub fn run(ctx: &Ctx) -> Report {
    let n = ctx.size(120, 8);
    let instances: Vec<Instance> = (0..INSTANCES)
        .map(|k| {
            let cfg = RandomWorkloadConfig {
                num_resources: 2 * n,
                ..crate::instances::flat(n, sub_seed(ctx.seed, k))
            };
            generate_flat(&cfg)
        })
        .collect();
    let mut report = Report::default();
    describe(&mut report, &instances);
    let sim_seed = |k: usize| sub_seed(ctx.seed, INSTANCES + k as u64);
    if ctx.trace {
        traced(ctx, &instances, sim_seed, &mut report);
    } else {
        measure(ctx, &instances, sim_seed, &mut report);
    }
    report
}

fn measure(
    ctx: &Ctx,
    instances: &[Instance],
    sim_seed: impl Fn(usize) -> u64,
    report: &mut Report,
) {
    let spans = Spans::off();
    let budget = Budget::start(ctx.seconds);
    let mut setups = Vec::new();
    let mut loops: Vec<ClosedLoop> = (0..LOOPS)
        .map(|k| {
            let (cl, s) = timed(|| build(&instances[k], sim_seed(k)));
            setups.push(s);
            cl
        })
        .collect();
    let mut solves = Vec::new();
    let mut rounds: Vec<Option<usize>> = vec![None; instances.len()];
    let mut repeats_ok = true;
    let mut window_ms = Vec::new();
    let mut misses = Vec::new();
    let (mut worst_viol, mut direct_windows) = (0.0f64, 0);
    while window_ms.len() < MIN_WINDOWS || !budget.spent() {
        let w = window_ms.len();
        let cl = &mut loops[w % LOOPS];
        let ((ok, viol, direct), s) = timed(|| {
            cl.step_window();
            certify_window(cl, &spans)
        });
        report.count(ok);
        worst_viol = worst_viol.max(viol);
        direct_windows += usize::from(direct);
        window_ms.push(s * 1e3);
        misses.push(miss_rate(cl));

        // A cold solve and a set-up beside each window, over the
        // instances in turn, so both sample the whole run.
        let k = w % instances.len();
        let cold = cold_solve(&instances[k].problem, &spans, None);
        report.count_solve(&cold.solve);
        repeats_ok &= *rounds[k].get_or_insert(cold.solve.rounds) == cold.solve.rounds;
        solves.push(cold.solve_s);
        setups.push(timed(|| build(&instances[k % LOOPS], sim_seed(k % LOOPS))).1);
    }
    report.check(
        format!("naive re-check of every window's allocation (worst violation {worst_viol:.2e})"),
        worst_viol <= DELTA,
    );
    report.check("rounds_to_cert repeats across cold solves", repeats_ok);
    let listed: Vec<String> =
        rounds[..MIN_WINDOWS].iter().map(|r| r.expect("solved in every run").to_string()).collect();
    report.deterministic.push(("rounds_to_cert", listed.join(",")));
    let rounds: Vec<f64> = rounds.iter().flatten().map(|&r| r as f64).collect();
    let first: Vec<String> = misses[..MIN_WINDOWS].iter().map(|m| format!("{m:e}")).collect();
    report.deterministic.push(("deadline_miss_rates", first.join(",")));
    report.notes.push(("windows", window_ms.len().to_string()));
    report.notes.push(("windows_certified_by_the_loop", direct_windows.to_string()));
    report.notes.push((
        "deadline_miss_frac",
        format!("{:e}", misses.iter().sum::<f64>() / misses.len() as f64),
    ));
    end_to_end(report, &setups, &solves, &rounds, &window_ms);
}

/// Sum of the optimizer's phase histograms (seconds) and its iteration
/// counter, as the loop's telemetry publishes them.
fn reopt_totals(registry: &MetricsRegistry) -> (f64, u64) {
    let phases = ["allocate", "price", "diagnostics"];
    let secs = phases
        .iter()
        .map(|p| registry.histogram(&format!("lla_opt_phase_{p}_seconds"), "", &[1.0]).sum())
        .sum();
    (secs, registry.counter("lla_opt_iterations_total", "").get())
}

/// Alternates an untraced and a traced loop of `MIN_WINDOWS` windows
/// over the instances until the budget is spent, then runs the
/// simulator alone at the last loop's shares. The loop's telemetry
/// (its optimizer's phase histograms and iteration counter) gives the
/// re-optimisation time inside each traced window.
fn traced(ctx: &Ctx, instances: &[Instance], sim_seed: impl Fn(usize) -> u64, report: &mut Report) {
    let mut layers = Layers::default();
    let spans = Spans::on();
    let budget = Budget::start(ctx.seconds);
    let (mut plain_s, mut traced_s, mut setup_s, mut reps) = (0.0, 0.0, 0.0, 0);
    let (mut iters, mut reopt_s) = (0, 0.0);
    let mut last = None;
    while reps == 0 || !budget.spent() {
        let k = reps % LOOPS;
        let mut plain = build(&instances[k], sim_seed(k));
        plain_s += timed(|| plain.run_windows(MIN_WINDOWS)).1;
        drop(plain);

        let registry = MetricsRegistry::new();
        let (mut cl, s) = {
            let _s = spans.enter("ClosedLoop::new");
            timed(|| build(&instances[k], sim_seed(k)))
        };
        setup_s += s;
        cl.attach_telemetry(&registry);
        let _w = spans.enter("windows");
        for _ in 0..MIN_WINDOWS {
            let (before_s, before_iters) = reopt_totals(&registry);
            let ((), s) = timed(|| {
                let _w = spans.enter("step_window");
                cl.step_window();
            });
            traced_s += s;
            let (after_s, after_iters) = reopt_totals(&registry);
            spans.graft_time(
                "step_window",
                "reoptimise",
                after_iters - before_iters,
                ((after_s - before_s) * 1e9) as u64,
            );
            report.count(certify_window(&cl, &spans).0);
        }
        let (s, i) = reopt_totals(&registry);
        reopt_s += s;
        iters += i;
        last = Some((k, cl));
        reps += 1;
    }
    let windows = (reps * MIN_WINDOWS) as f64;
    report.notes.push(("traced_windows", windows.to_string()));
    layers.set("closedloop.reopt_iters_per_window", iters as f64 / windows);
    layers.extra("closedloop.setup_ms", setup_s * 1e3 / reps as f64, "ms");
    layers.extra("closedloop.reopt_ms_per_window", reopt_s * 1e3 / windows, "ms");

    // The simulator alone, through its public calls, at the last loop's
    // enacted shares.
    let (k, cl) = last.expect("at least one traced loop");
    let problem = &instances[k].problem;
    let mut sim = Simulator::new(
        problem.clone(),
        &cl.current_shares(),
        SimConfig { seed: sim_seed(k), ..SimConfig::default() },
    );
    let tasks = problem.tasks().len();
    let (mut jobs, mut missed, mut sim_s) = (0u64, 0u64, 0.0);
    {
        let _s = spans.enter("simulator");
        for _ in 0..MIN_WINDOWS {
            let ((), s) = timed(|| {
                let _w = spans.enter("Simulator::run_for");
                sim.run_for(WINDOW_MS);
            });
            sim_s += s;
            jobs += (0..tasks).map(|t| sim.completions(t)).sum::<u64>();
            missed += (0..tasks).map(|t| sim.deadline_misses(t)).sum::<u64>();
            sim.reset_stats();
        }
    }
    layers.set("sim.jobs_per_window", jobs as f64 / MIN_WINDOWS as f64);
    layers.set("sim.deadline_miss_frac", missed as f64 / jobs.max(1) as f64);
    layers.extra("sim.ms_per_window", sim_s * 1e3 / MIN_WINDOWS as f64, "ms");
    report.deterministic.push(("sim_jobs", jobs.to_string()));
    report.deterministic.push(("sim_misses", missed.to_string()));

    kernel_layers(&mut layers, problem, report);
    let nodes = spans.nodes();
    certify_layers(&mut layers, &nodes);
    coverage(&mut layers, accounted(&nodes, "windows;step_window"), plain_s, traced_s);
    finish(report, layers, nodes);
}
