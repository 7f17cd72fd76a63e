//! `sharded-churn`: `ShardedOptimizer`s with two shards on clustered
//! instances. Seeded disturbances go to `CHURNED` warm optimizers in turn
//! until the budget is spent, each followed by a warm re-certification;
//! cold certified solves of the instances are spread among them. The
//! disturbances cycle through:
//!
//! * shared-backbone availability 1.0 → 0.9 → 1.0;
//! * cluster-local availability 1.0 → 0.9 → 1.0;
//! * `remove_task`, then `add_task` of the same task.
//!
//! The only workload that puts writes beside reads: it exercises the
//! coordinator, incremental re-lowering and the certificate on a warm
//! start. Measured runs step the shards one after the other
//! (`step_timed`, the same arithmetic as `step`): with the two-thread
//! fan-out, run-to-run throughput swung 3x on the shared two-core host.
//! Traced runs use the fan-out and report its speedup.

use super::{
    accounted, certify_layers, coverage, end_to_end, finish, frame_total_ns, optimizer_config,
    plan_lowering, sub_seed, timed, Budget, Draws, Layers, ShardRounds, ROUND_CAP,
};
use crate::cert::{naive_violation, solve_to_cert, Solve, DELTA};
use crate::instances::{builder_of, clustered, describe, generate_clustered, Instance};
use crate::stats::{median, quantile};
use crate::trace::{total_of, Node, Spans};
use crate::{Ctx, Report};
use lla_core::{ResourceId, ShardSpec, ShardedOptimizer, TaskBuilder, TaskId};
use lla_telemetry::Profiler;
use std::collections::BTreeMap;

const SHARDS: usize = 2;
/// Instances per run. Spreading the cold solves and disturbances over
/// many instances makes a run's medians average over instances rather
/// than hang on one instance's hardest resource.
const INSTANCES: u64 = 32;
/// The first `CHURNED` instances keep their optimizer for the
/// disturbances; all of them are cold-solved.
const CHURNED: usize = 16;
/// Disturbances every run completes, whatever the budget, so their
/// re-certification rounds can be compared across runs of a seed.
const MIN_DISTURBANCES: usize = 48;

/// An instance and where its resources sit.
struct Churn {
    inst: Instance,
    spec: ShardSpec,
    /// Cluster-local resources are `0..backbone_base`; the backbone
    /// follows.
    backbone_base: usize,
    backbone_links: usize,
}

impl Churn {
    fn generate(n: usize, seed: u64) -> Self {
        let cfg = clustered(n, seed);
        let (inst, _) = generate_clustered(&cfg);
        Churn {
            inst,
            spec: ShardSpec::contiguous(n, SHARDS),
            backbone_base: cfg.num_clusters * cfg.resources_per_cluster,
            backbone_links: cfg.backbone_links,
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let n = ctx.size(2_000, 80).next_multiple_of(4);
    let churns: Vec<Churn> =
        (0..INSTANCES).map(|k| Churn::generate(n, sub_seed(ctx.seed, k))).collect();
    let mut report = Report::default();
    describe(&mut report, churns.iter().map(|c| &c.inst));
    report.notes.push(("backbone_links", churns[0].backbone_links.to_string()));
    if ctx.trace {
        traced(ctx, &churns, &mut report);
    } else {
        measure(ctx, &churns, &mut report);
    }
    report
}

fn build(churn: &Churn) -> ShardedOptimizer {
    ShardedOptimizer::new(churn.inst.problem.clone(), optimizer_config(), churn.spec.clone())
        .expect("a contiguous spec partitions the tasks")
}

/// One disturbance: what changes, applied to the optimizer.
enum Change {
    Availability(usize, f64),
    Remove(usize),
    Add(Box<TaskBuilder>),
}

/// The seeded disturbance stream, cycling through the six changes.
struct Disturbances {
    draws: Draws,
    step: usize,
    dipped: usize,
    pending: Option<TaskBuilder>,
}

impl Disturbances {
    fn new(seed: u64) -> Self {
        Disturbances { draws: Draws::new(seed), step: 0, dipped: 0, pending: None }
    }

    fn next(&mut self, churn: &Churn, opt: &ShardedOptimizer) -> Change {
        let change = match self.step % 6 {
            0 => {
                self.dipped = churn.backbone_base + self.draws.below(churn.backbone_links);
                Change::Availability(self.dipped, 0.9)
            }
            2 => {
                self.dipped = self.draws.below(churn.backbone_base);
                Change::Availability(self.dipped, 0.9)
            }
            1 | 3 => Change::Availability(self.dipped, 1.0),
            4 => {
                let t = self.draws.below(opt.problem().tasks().len());
                self.pending = Some(builder_of(opt.problem(), TaskId::new(t)));
                Change::Remove(t)
            }
            _ => Change::Add(Box::new(self.pending.take().expect("a removal precedes each add"))),
        };
        self.step += 1;
        change
    }
}

fn apply(opt: &mut ShardedOptimizer, change: &Change, spans: &Spans) {
    match change {
        Change::Availability(r, b) => {
            let _s = spans.enter("set_resource_availability");
            opt.set_resource_availability(ResourceId::new(*r), *b)
                .expect("availability in (0, 1] is valid");
        }
        Change::Remove(t) => {
            let _s = spans.enter("remove_task");
            opt.remove_task(TaskId::new(*t)).expect("the drawn task exists");
        }
        Change::Add(b) => {
            let _s = spans.enter("add_task");
            opt.add_task(b, None).expect("a removed task re-admits");
        }
    }
}

/// One disturbance and its re-certification.
struct Recert {
    mutate_s: f64,
    total_s: f64,
    solve: Solve,
}

fn disturb(
    opt: &mut ShardedOptimizer,
    stream: &mut Disturbances,
    churn: &Churn,
    spans: &Spans,
    fan_out: bool,
) -> Recert {
    let change = stream.next(churn, opt);
    let ((mutate_s, solve), total_s) = timed(|| {
        let ((), mutate_s) = timed(|| apply(opt, &change, spans));
        (mutate_s, solve_to_cert(&mut ShardRounds { opt, fan_out }, ROUND_CAP, spans))
    });
    Recert { mutate_s, total_s, solve }
}

/// A run's cold solves (set-up plus solve), spread through the run.
struct Colds {
    setups: Vec<f64>,
    solves: Vec<f64>,
    /// Rounds of each instance's first cold solve.
    rounds: Vec<Option<usize>>,
    repeats_ok: bool,
    worst_viol: f64,
}

impl Colds {
    fn new(instances: usize) -> Self {
        Colds {
            setups: Vec::new(),
            solves: Vec::new(),
            rounds: vec![None; instances],
            repeats_ok: true,
            worst_viol: 0.0,
        }
    }

    fn run(&mut self, k: usize, churn: &Churn, report: &mut Report) -> ShardedOptimizer {
        let (mut opt, setup_s) = timed(|| build(churn));
        let rounds = &mut ShardRounds { opt: &mut opt, fan_out: false };
        let solve = solve_to_cert(rounds, ROUND_CAP, &Spans::off());
        report.count_solve(&solve);
        let viol = naive_violation(opt.problem(), opt.allocation().lats());
        self.worst_viol = self.worst_viol.max(viol);
        self.setups.push(setup_s);
        self.solves.push(solve.wall_s);
        self.repeats_ok &= *self.rounds[k].get_or_insert(solve.rounds) == solve.rounds;
        opt
    }
}

/// A cold solve of the next instance after every `COLD_EVERY`
/// disturbances, so cold solves sample the whole run.
const COLD_EVERY: usize = 4;

fn measure(ctx: &Ctx, churns: &[Churn], report: &mut Report) {
    let spans = Spans::off();
    let budget = Budget::start(ctx.seconds);
    let mut colds = Colds::new(churns.len());
    let mut opts: Vec<ShardedOptimizer> =
        (0..CHURNED).map(|k| colds.run(k, &churns[k], report)).collect();
    let shared: Vec<String> = opts.iter().map(|o| o.num_shared_resources().to_string()).collect();
    report.notes.push(("shared_resources", shared.join(",")));

    let mut streams: Vec<Disturbances> =
        (0..CHURNED).map(|k| Disturbances::new(sub_seed(ctx.seed, INSTANCES + k as u64))).collect();
    let (mut recert_ms, mut rounds) = (Vec::new(), Vec::new());
    let mut worst_viol = 0.0f64;
    while recert_ms.len() < MIN_DISTURBANCES || !budget.spent() {
        let k = recert_ms.len() % CHURNED;
        let opt = &mut opts[k];
        let r = disturb(opt, &mut streams[k], &churns[k], &spans, false);
        report.count_solve(&r.solve);
        worst_viol = worst_viol.max(naive_violation(opt.problem(), opt.allocation().lats()));
        recert_ms.push(r.total_s * 1e3);
        rounds.push(r.solve.rounds);
        if recert_ms.len() % COLD_EVERY == 0 {
            let j = (CHURNED + recert_ms.len() / COLD_EVERY - 1) % churns.len();
            colds.run(j, &churns[j], report);
        }
    }
    worst_viol = worst_viol.max(colds.worst_viol);
    report.check(
        format!("naive re-check of every certificate (worst violation {worst_viol:.2e})"),
        worst_viol <= DELTA,
    );
    report.check("rounds_to_cert repeats across cold solves", colds.repeats_ok);
    // Instances every run cold-solves, whatever the budget.
    let always = CHURNED + MIN_DISTURBANCES / COLD_EVERY;
    let listed: Vec<String> = colds.rounds[..always]
        .iter()
        .map(|r| r.expect("solved in every run").to_string())
        .collect();
    report.deterministic.push(("rounds_to_cert", listed.join(",")));
    let first: Vec<String> = rounds[..MIN_DISTURBANCES].iter().map(|r| r.to_string()).collect();
    report.deterministic.push(("recert_rounds", first.join(",")));
    report.notes.push(("disturbances", recert_ms.len().to_string()));
    let cold_rounds: Vec<f64> = colds.rounds.iter().flatten().map(|&r| r as f64).collect();
    end_to_end(report, &colds.setups, &colds.solves, &cold_rounds, &recert_ms);
}

/// Alternates untraced and traced set-ups plus cold solves over the
/// instances for half the budget, then traces `MIN_DISTURBANCES`
/// disturbances on the last instance and measures the shard speedups.
fn traced(ctx: &Ctx, churns: &[Churn], report: &mut Report) {
    let mut layers = Layers::default();
    let spans = Spans::on();
    let profiler = Profiler::recording();
    let budget = Budget::start(ctx.seconds / 2.0);
    let (mut plain_s, mut traced_s, mut reps) = (0.0, 0.0, 0);
    let mut last = None;
    while reps == 0 || !budget.spent() {
        let k = reps % churns.len();
        let ((plain, _), plain_wall) = timed(|| {
            let mut opt = build(&churns[k]);
            let rounds = &mut ShardRounds { opt: &mut opt, fan_out: true };
            let solve = solve_to_cert(rounds, ROUND_CAP, &Spans::off());
            (solve, opt)
        });
        report.count_solve(&plain);
        plain_s += plain_wall;
        let ((cold, opt), wall) = timed(|| {
            let _s = spans.enter("cold_solve");
            let mut opt = {
                let _s = spans.enter("ShardedOptimizer::new");
                build(&churns[k])
            };
            opt.attach_profiler(&profiler);
            let cold =
                solve_to_cert(&mut ShardRounds { opt: &mut opt, fan_out: true }, ROUND_CAP, &spans);
            spans.graft("ShardedOptimizer::step", &profiler.snapshot());
            (cold, opt)
        });
        profiler.reset();
        report.count_solve(&cold);
        if cold.rounds != plain.rounds {
            report.check(format!("traced cold solve {reps} takes the untraced rounds"), false);
        }
        traced_s += wall;
        last = Some((k, opt));
        reps += 1;
    }
    report.notes.push(("traced_cold_solves", reps.to_string()));
    let cold_nodes = spans.nodes();
    round_phases(&mut layers, &cold_nodes);
    coverage(&mut layers, accounted(&cold_nodes, "cold_solve;"), plain_s, traced_s);

    let (k, mut opt) = last.expect("at least one traced solve");
    let mut stream = Disturbances::new(sub_seed(ctx.seed, INSTANCES + k as u64));
    let (mut mutate_ms, mut rounds) = (Vec::new(), Vec::new());
    {
        let _s = spans.enter("churn");
        for _ in 0..MIN_DISTURBANCES {
            let r = disturb(&mut opt, &mut stream, &churns[k], &spans, true);
            report.count_solve(&r.solve);
            mutate_ms.push(r.mutate_s * 1e3);
            rounds.push(r.solve.rounds as f64);
        }
        spans.graft("ShardedOptimizer::step", &profiler.snapshot());
    }
    opt.detach_profiler();
    let listed: Vec<String> = rounds.iter().map(|r| r.to_string()).collect();
    report.deterministic.push(("recert_rounds", listed.join(",")));
    layers.set("shard.recert_rounds_p50", median(&rounds));
    layers.set("shard.recert_rounds_p90", quantile(&rounds, 0.9));
    layers.extra("shard.mutate_ms_p50", median(&mutate_ms), "ms");
    layers.extra("shard.mutate_ms_p90", quantile(&mutate_ms, 0.9), "ms");
    layers.set("shard.shared_resources", opt.num_shared_resources() as f64);
    speedups(&mut layers, &mut opt);

    let nodes = spans.nodes();
    plan_lowering(&mut layers, &nodes);
    certify_layers(&mut layers, &nodes);
    finish(report, layers, nodes);
}

/// The `optimizer.*` and `shard.*` per-round timings of the sharded
/// round's phases, from the profiler scopes grafted into `nodes`.
fn round_phases(layers: &mut Layers, nodes: &BTreeMap<String, Node>) {
    let (round_ns, rounds) = total_of(nodes, "round");
    let per = |ns: u64| ns as f64 / rounds.max(1) as f64 / 1e3;
    let coordinator = total_of(nodes, "coordinator").0;
    let path = total_of(nodes, "path_phase").0;
    layers.set("optimizer.round_us", per(round_ns));
    layers.set("optimizer.allocate_us", per(total_of(nodes, "allocation_phase").0));
    layers.set("optimizer.price_us", per(coordinator + path));
    layers.set("optimizer.lagrangian_us", per(total_of(nodes, "merge").0));
    layers.extra("shard.round_us", per(round_ns), "us");
    layers.extra("shard.coordinator_us", per(coordinator), "us");
}

/// Measured (sequential `step_timed` over parallel `step`) and modeled
/// (Σ shard / critical path) shard speedups, and the 1-vs-2-thread
/// allocation ratio, over a few warm rounds each.
fn speedups(layers: &mut Layers, opt: &mut ShardedOptimizer) {
    const ROUNDS: usize = 20;
    let (_, par_s) = timed(|| opt.run(ROUNDS));
    let mut local_max = 0.0;
    let mut modeled = 0.0;
    let (_, seq_s) = timed(|| {
        for _ in 0..ROUNDS {
            let (_, t) = opt.step_timed();
            let sum: f64 = t.shard_ns.iter().sum::<f64>() + t.coordinator_ns;
            local_max += t.shard_ns.iter().fold(0.0f64, |a, &b| a.max(b));
            modeled += sum / t.critical_path_ns();
        }
    });
    layers.extra("shard.seq_round_us", seq_s / ROUNDS as f64 * 1e6, "us");
    layers.extra("shard.local_us_max", local_max / ROUNDS as f64 / 1e3, "us");
    layers.set("shard.measured_speedup", seq_s / par_s);
    layers.set("shard.modeled_speedup", modeled / ROUNDS as f64);

    let mut alloc = [0.0; 2];
    for (i, threads) in ["1", "2"].into_iter().enumerate() {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let profiler = Profiler::recording();
        opt.attach_profiler(&profiler);
        opt.run(ROUNDS);
        opt.detach_profiler();
        alloc[i] = frame_total_ns(&profiler, "allocation_phase");
    }
    std::env::set_var("RAYON_NUM_THREADS", "1");
    layers.set("plan.allocate_speedup_2t", alloc[0] / alloc[1].max(1.0));
}
