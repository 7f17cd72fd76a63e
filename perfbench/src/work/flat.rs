//! `flat-cold`: the in-process `Optimizer` solving flat instances from a
//! cold start, each several times, until the budget is spent. One
//! instance (~22k subtasks over 15k resources) is a working set beyond
//! L2, with random resource access; the coordinator, runtime, codec,
//! re-lowering and simulator are all bypassed.
//!
//! A run solves `INSTANCES` instances drawn from sub-seeds of `--seed`
//! and reports medians over them: one instance's rounds to a certificate,
//! and how many of those rounds pay for a dual evaluation, depend on its
//! single worst constraint and swing by 2x between seeds.

use super::{
    accounted, allocate_speedup_2t, certify_layers, cold_solve, coverage, end_to_end, finish,
    optimizer_phases, sub_seed, Budget, Layers,
};
use crate::cert::{naive_violation, DELTA};
use crate::instances::{describe, flat, generate_flat, Instance};
use crate::trace::Spans;
use crate::{Ctx, Report};
use lla_telemetry::Profiler;

const INSTANCES: u64 = 24;

pub fn run(ctx: &Ctx) -> Report {
    let n = ctx.size(5_000, 40);
    let instances: Vec<Instance> =
        (0..INSTANCES).map(|k| generate_flat(&flat(n, sub_seed(ctx.seed, k)))).collect();
    let mut report = Report::default();
    describe(&mut report, &instances);
    if ctx.trace {
        traced(ctx, &instances, &mut report);
    } else {
        measure(ctx, &instances, &mut report);
    }
    report
}

fn measure(ctx: &Ctx, instances: &[Instance], report: &mut Report) {
    let spans = Spans::off();
    let budget = Budget::start(ctx.seconds);
    let (mut setups, mut solves) = (Vec::new(), Vec::new());
    let mut rounds: Vec<Option<usize>> = vec![None; instances.len()];
    let mut repeats_ok = true;
    let mut worst_viol = 0.0f64;
    let mut passes = 0;
    while passes < 2 || !budget.spent() {
        for (k, inst) in instances.iter().enumerate() {
            let cold = cold_solve(&inst.problem, &spans, None);
            report.count_solve(&cold.solve);
            worst_viol =
                worst_viol.max(naive_violation(&inst.problem, cold.opt.allocation().lats()));
            repeats_ok &= *rounds[k].get_or_insert(cold.solve.rounds) == cold.solve.rounds;
            setups.push(cold.setup_s);
            solves.push(cold.solve_s);
        }
        passes += 1;
    }
    report.check(
        format!("naive re-check of every certificate (worst violation {worst_viol:.2e})"),
        worst_viol <= DELTA,
    );
    report.check("rounds_to_cert repeats across passes", repeats_ok);
    let rounds: Vec<f64> =
        rounds.iter().map(|r| r.expect("every instance solved") as f64).collect();
    let listed: Vec<String> = rounds.iter().map(|r| r.to_string()).collect();
    report.deterministic.push(("rounds_to_cert", listed.join(",")));
    let ms: Vec<f64> = solves.iter().map(|s| s * 1e3).collect();
    end_to_end(report, &setups, &solves, &rounds, &ms);
}

/// Alternates untraced and traced cold solves over the instances until
/// the budget is spent; the library profiler's scopes are grafted under
/// each traced `Optimizer::step`.
fn traced(ctx: &Ctx, instances: &[Instance], report: &mut Report) {
    let mut layers = Layers::default();
    let spans = Spans::on();
    let profiler = Profiler::recording();
    let budget = Budget::start(ctx.seconds);
    let (mut plain_s, mut traced_s, mut reps) = (0.0, 0.0, 0);
    let mut last = None;
    while reps == 0 || !budget.spent() {
        let inst = &instances[reps % instances.len()];
        let plain = cold_solve(&inst.problem, &Spans::off(), None);
        report.count_solve(&plain.solve);
        plain_s += plain.setup_s + plain.solve_s;
        let cold = {
            let _s = spans.enter("cold_solve");
            let cold = cold_solve(&inst.problem, &spans, Some(&profiler));
            spans.graft("Optimizer::step", &profiler.snapshot());
            cold
        };
        profiler.reset();
        report.count_solve(&cold.solve);
        if cold.solve.rounds != plain.solve.rounds {
            report.check(format!("traced solve {reps} takes the untraced rounds"), false);
        }
        traced_s += cold.setup_s + cold.solve_s;
        last = Some(cold.opt);
        reps += 1;
    }
    report.notes.push(("traced_solves", reps.to_string()));
    let nodes = spans.nodes();
    optimizer_phases(&mut layers, &nodes);
    let mut opt = last.expect("at least one traced solve");
    layers.set("plan.allocate_speedup_2t", allocate_speedup_2t(&mut opt, 20));
    certify_layers(&mut layers, &nodes);
    coverage(&mut layers, accounted(&nodes, "cold_solve;"), plain_s, traced_s);
    finish(report, layers, nodes);
}
