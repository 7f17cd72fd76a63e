//! `dist-wire`: `DistributedLla` on a perfect network with every delivery
//! round-tripping through the wire codec, deployed and solved from a cold
//! start repeatedly until the budget is spent. This is the runtime, agents
//! and codec workload, and the one whose set-up dominates: every agent
//! holds its own copy of the whole `Problem`.
//!
//! The controllers' λ prices are not public, so the certificate's upper
//! bound `D` comes from an untimed in-process `Optimizer` reference solve
//! of the same instance; any `D(μ, λ)` bounds the optimum, whichever
//! solver produced the allocation it is compared with.

use super::{
    accounted, certify_layers, cold_solve, coverage, end_to_end, finish, kernel_layers,
    optimizer_config, sub_seed, timed, Budget, Layers, ROUND_CAP,
};
use crate::cert::{naive_violation, solve_to_cert, Rounds, Solve, DELTA};
use crate::instances::{describe, flat, generate_flat, Instance};
use crate::stats::rss_mb;
use crate::trace::{total_of, Spans};
use crate::{Ctx, Report};
use lla_core::IterationReport;
use lla_dist::{DistConfig, DistTelemetry, DistributedLla};
use lla_telemetry::Profiler;

fn config(wire_mode: bool) -> DistConfig {
    let opt = optimizer_config();
    DistConfig {
        step_policy: opt.step_policy,
        allocation: opt.allocation,
        wire_mode,
        ..DistConfig::default()
    }
}

/// The deployment, certified against the reference bound.
struct DistRounds<'a> {
    dist: &'a mut DistributedLla,
    bound: f64,
}

impl Rounds for DistRounds<'_> {
    fn round(&mut self, spans: &Spans) -> IterationReport {
        {
            let _s = spans.enter("run_rounds");
            self.dist.run_rounds(1);
        }
        let _s = spans.enter("viol");
        let alloc = self.dist.allocation();
        let problem = self.dist.problem();
        IterationReport {
            iteration: self.dist.rounds() - 1,
            utility: problem.total_utility(alloc.lats()),
            max_resource_violation: problem.max_resource_violation(alloc.lats()),
            max_path_violation: problem.max_path_violation(alloc.lats()),
        }
    }

    fn dual(&mut self, _spans: &Spans) -> f64 {
        self.bound
    }
}

/// A deployment solved to its certificate.
struct Deployed {
    dist: DistributedLla,
    setup_s: f64,
    solve: Solve,
}

fn deploy_and_solve(
    inst: &Instance,
    bound: f64,
    wire: bool,
    spans: &Spans,
    tel: Option<DistTelemetry>,
) -> Deployed {
    let problem = inst.problem.clone();
    let (mut dist, setup_s) = {
        let _s = spans.enter("DistributedLla::new");
        timed(|| match tel {
            Some(tel) => DistributedLla::with_telemetry(problem, config(wire), tel),
            None => DistributedLla::new(problem, config(wire)),
        })
    };
    let solve = solve_to_cert(&mut DistRounds { dist: &mut dist, bound }, ROUND_CAP, spans);
    Deployed { dist, setup_s, solve }
}

/// Instances per run, deployed in turn.
const INSTANCES: u64 = 32;

/// An instance with its reference upper bound.
struct Bounded {
    inst: Instance,
    bound: f64,
}

pub fn run(ctx: &Ctx) -> Report {
    let n = ctx.size(100, 8);
    let mut report = Report::default();
    let instances: Vec<Bounded> = (0..INSTANCES)
        .map(|k| {
            let inst = generate_flat(&flat(n, sub_seed(ctx.seed, k)));
            let reference = cold_solve(&inst.problem, &Spans::off(), None);
            report.count_solve(&reference.solve);
            Bounded { inst, bound: reference.solve.dual }
        })
        .collect();
    describe(&mut report, instances.iter().map(|b| &b.inst));
    if ctx.trace {
        traced(ctx, &instances, &mut report);
    } else {
        measure(ctx, &instances, &mut report);
    }
    report
}

fn measure(ctx: &Ctx, instances: &[Bounded], report: &mut Report) {
    let spans = Spans::off();
    let budget = Budget::start(ctx.seconds);
    let (mut setups, mut solves) = (Vec::new(), Vec::new());
    let mut first: Vec<Option<(usize, u64)>> = vec![None; instances.len()];
    let mut repeats_ok = true;
    let mut worst_viol = 0.0f64;
    let mut rejected = 0;
    while solves.len() < 2 * instances.len() || !budget.spent() {
        let k = solves.len() % instances.len();
        let d = deploy_and_solve(&instances[k].inst, instances[k].bound, true, &spans, None);
        report.count_solve(&d.solve);
        worst_viol = worst_viol.max(naive_violation(d.dist.problem(), d.dist.allocation().lats()));
        rejected += d.dist.frames_rejected();
        let counts = (d.solve.rounds, d.dist.messages_sent());
        repeats_ok &= *first[k].get_or_insert(counts) == counts;
        setups.push(d.setup_s);
        solves.push(d.solve.wall_s);
    }
    report.check(
        format!("naive re-check of every certificate (worst violation {worst_viol:.2e})"),
        worst_viol <= DELTA,
    );
    report.check("codec rejected no frame", rejected == 0);
    report.check("rounds and messages repeat across deployments", repeats_ok);
    let counts: Vec<(usize, u64)> = first.iter().map(|c| c.expect("every instance ran")).collect();
    let listed =
        |f: fn(&(usize, u64)) -> String| counts.iter().map(f).collect::<Vec<_>>().join(",");
    report.deterministic.push(("rounds_to_cert", listed(|c| c.0.to_string())));
    report.deterministic.push(("messages", listed(|c| c.1.to_string())));
    let rounds: Vec<f64> = counts.iter().map(|c| c.0 as f64).collect();
    let ms: Vec<f64> = solves.iter().map(|s| s * 1e3).collect();
    end_to_end(report, &setups, &solves, &rounds, &ms);
}

/// Alternates untraced wire-off, untraced wire-on and traced wire-on
/// deployments over the instances until the budget is spent; the
/// runtime's `tick`/`dispatch` profiler scopes are grafted under each
/// traced `run_rounds`.
fn traced(ctx: &Ctx, instances: &[Bounded], report: &mut Report) {
    let mut layers = Layers::default();
    let spans = Spans::on();
    let profiler = Profiler::recording();
    let budget = Budget::start(ctx.seconds);
    // Solve time with the codec off and on, and the whole untraced and
    // traced deployments.
    let (mut off_s, mut on_s, mut plain_s, mut traced_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut messages, mut rounds, mut rejected, mut deploy_s, mut rss_after) =
        (0, 0, 0, 0.0, 0.0f64);
    let mut reps = 0;
    while reps == 0 || !budget.spent() {
        let Bounded { inst, bound } = &instances[reps % instances.len()];
        let off = deploy_and_solve(inst, *bound, false, &Spans::off(), None);
        report.count_solve(&off.solve);
        off_s += off.solve.wall_s;
        drop(off.dist);
        let on = deploy_and_solve(inst, *bound, true, &Spans::off(), None);
        report.count_solve(&on.solve);
        on_s += on.solve.wall_s;
        plain_s += on.setup_s + on.solve.wall_s;
        drop(on.dist);
        let tel = DistTelemetry::disabled().with_profiler(profiler.clone());
        let d = {
            let _s = spans.enter("cold_solve");
            let d = deploy_and_solve(inst, *bound, true, &spans, Some(tel));
            spans.graft("run_rounds", &profiler.snapshot());
            d
        };
        profiler.reset();
        rss_after = rss_after.max(rss_mb());
        report.count_solve(&d.solve);
        if d.solve.rounds != on.solve.rounds {
            report.check(format!("traced deployment {reps} takes the untraced rounds"), false);
        }
        traced_s += d.setup_s + d.solve.wall_s;
        deploy_s += d.setup_s;
        messages += d.dist.messages_sent();
        rounds += d.solve.rounds;
        rejected += d.dist.frames_rejected();
        reps += 1;
    }
    report.notes.push(("traced_deployments", reps.to_string()));
    report.check("codec rejected no frame", rejected == 0);
    layers.set("codec.overhead_frac", on_s / off_s - 1.0);
    let nodes = spans.nodes();
    let (tick_ns, ticks) = total_of(&nodes, "tick");
    let (dispatch_ns, dispatches) = total_of(&nodes, "dispatch");
    let (round_ns, _) = total_of(&nodes, "run_rounds");
    layers.set("runtime.messages_per_round", messages as f64 / rounds.max(1) as f64);
    layers.set("codec.frames_rejected", rejected as f64);
    layers.extra("dist.deploy_s", deploy_s / reps as f64, "s");
    layers.extra("dist.rss_mb_after_deploy", rss_after, "MiB");
    layers.extra("dist.round_ms", round_ns as f64 / rounds.max(1) as f64 / 1e6, "ms");
    layers.extra("runtime.tick_us", tick_ns as f64 / ticks.max(1) as f64 / 1e3, "us");
    layers.extra("runtime.dispatch_us", dispatch_ns as f64 / dispatches.max(1) as f64 / 1e3, "us");
    kernel_layers(&mut layers, &instances[0].inst.problem, report);
    certify_layers(&mut layers, &nodes);
    coverage(&mut layers, accounted(&nodes, "cold_solve;"), plain_s, traced_s);
    finish(report, layers, nodes);
}
