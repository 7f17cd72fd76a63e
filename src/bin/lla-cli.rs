//! `lla-cli` — run LLA on a workload specification file.
//!
//! ```text
//! lla-cli check <spec>                         parse and summarize
//! lla-cli optimize <spec> [options]            run LLA to convergence
//! lla-cli schedulability <spec> [options]      §5.4 schedulability verdict
//! lla-cli simulate <spec> [options]            closed loop with error correction
//! lla-cli telemetry <spec> [options]           run to convergence, expose health
//! lla-cli profile <spec> [options]             run to convergence, report
//!                                              where the wall time went
//! lla-cli fleet <spec> [options]               distributed run with the fleet
//!                                              telemetry plane on: per-agent
//!                                              table, SLO alert log, or
//!                                              labeled Prometheus exposition
//!
//! options:
//!   --iters N          iteration budget (default 10000)
//!   --policy P         clearing | adaptive | sign | fixed=<gamma>
//!                      (default clearing: market-clearing sweeps; the
//!                      others take the paper's gradient steps)
//!   --csv FILE         write the optimizer trace as CSV
//!   --windows N        closed-loop windows (simulate; default 10)
//!   --window MS        window length in ms (simulate; default 2000)
//!   --no-correction    disable online model error correction (simulate)
//!   --format F         text | prometheus | json   (telemetry; default text)
//!                      text | folded | json       (profile; default text)
//!   --top N            rows in the profile table (profile; default 10)
//!   --diagnose         classify the run's convergence behavior
//!                      (telemetry; text and json formats); exits 3 when
//!                      the verdict is diverging or stalled, so scripts
//!                      and CI gates can alert on an unhealthy run
//!   --rounds N         protocol rounds to run (fleet; default 200)
//!   --seed S           network seed (fleet; default 0)
//!   --loss P           network loss probability in [0,1) (fleet; default 0)
//! ```
//!
//! `fleet` runs the spec on the virtual-time distributed deployment with
//! per-agent telemetry shipping enabled (one report per round), its
//! agents moving their prices as `--policy` says. `--format text` prints
//! the price method, the collector's merged per-agent table plus the alert
//! timeline; `--format json` emits the alert events as JSONL; `--format
//! prometheus` dumps the full exposition including the `agent`-labeled
//! fleet series. Exits 3 while any SLO alert is still firing at the end
//! of the run, so CI gates can alert on an unhealthy fleet.
//!
//! `profile --format folded` emits folded stacks (`a;b;c <ns>` lines) that
//! any flamegraph renderer consumes directly.
//!
//! See `crates/lla-spec` for the specification format and
//! `examples/workloads/*.lla` for samples.

use lla::core::{
    analyze_schedulability, Optimizer, OptimizerConfig, PriceMethod, Problem, SchedulabilityConfig,
    StepSizePolicy,
};
use lla::sim::{ClosedLoop, ClosedLoopConfig, SimConfig};
use lla::telemetry::{DiagnosticsEngine, MetricsRegistry, Profiler, Verdict};
use std::process::ExitCode;

struct Options {
    spec_path: String,
    iters: usize,
    optimizer: OptimizerConfig,
    csv: Option<String>,
    windows: usize,
    window_ms: f64,
    correction: bool,
    format: OutputFormat,
    diagnose: bool,
    top: usize,
    rounds: usize,
    seed: u64,
    loss: f64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Prometheus,
    Json,
    Folded,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lla-cli <check|optimize|schedulability|simulate|telemetry|profile|fleet> \
         <spec.lla> [--iters N] [--policy clearing|adaptive|sign|fixed=G] [--csv FILE] \
         [--windows N] [--window MS] [--no-correction] \
         [--format text|prometheus|json|folded] [--top N] [--diagnose] \
         [--rounds N] [--seed S] [--loss P]"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        spec_path: String::new(),
        iters: 10_000,
        optimizer: OptimizerConfig::default(),
        csv: None,
        windows: 10,
        window_ms: 2_000.0,
        correction: true,
        format: OutputFormat::Text,
        diagnose: false,
        top: 10,
        rounds: 200,
        seed: 0,
        loss: 0.0,
    };
    let mut it = args.iter();
    opts.spec_path = it.next().ok_or("missing spec path")?.clone();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" => {
                opts.iters = it
                    .next()
                    .ok_or("--iters needs a value")?
                    .parse()
                    .map_err(|_| "--iters must be an integer")?;
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                let gradient = |step_policy| OptimizerConfig {
                    price_method: PriceMethod::Gradient,
                    step_policy,
                    ..OptimizerConfig::default()
                };
                opts.optimizer = match v.as_str() {
                    "clearing" => OptimizerConfig::default(),
                    "adaptive" => gradient(StepSizePolicy::adaptive(1.0)),
                    "sign" => gradient(StepSizePolicy::sign_adaptive(1.0)),
                    other => match other.strip_prefix("fixed=") {
                        Some(g) => gradient(StepSizePolicy::fixed(
                            g.parse().map_err(|_| "fixed=<gamma> needs a number")?,
                        )),
                        None => return Err(format!("unknown policy `{other}`")),
                    },
                };
            }
            "--csv" => opts.csv = Some(it.next().ok_or("--csv needs a path")?.clone()),
            "--windows" => {
                opts.windows = it
                    .next()
                    .ok_or("--windows needs a value")?
                    .parse()
                    .map_err(|_| "--windows must be an integer")?;
            }
            "--window" => {
                opts.window_ms = it
                    .next()
                    .ok_or("--window needs a value")?
                    .parse()
                    .map_err(|_| "--window must be a number (ms)")?;
            }
            "--no-correction" => opts.correction = false,
            "--diagnose" => opts.diagnose = true,
            "--rounds" => {
                opts.rounds = it
                    .next()
                    .ok_or("--rounds needs a value")?
                    .parse()
                    .map_err(|_| "--rounds must be an integer")?;
            }
            "--seed" => {
                opts.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
            }
            "--loss" => {
                opts.loss = it
                    .next()
                    .ok_or("--loss needs a value")?
                    .parse()
                    .map_err(|_| "--loss must be a probability")?;
                if !(0.0..1.0).contains(&opts.loss) {
                    return Err("--loss must be in [0, 1)".to_owned());
                }
            }
            "--top" => {
                opts.top = it
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|_| "--top must be an integer")?;
            }
            "--format" => {
                opts.format = match it.next().ok_or("--format needs a value")?.as_str() {
                    "text" => OutputFormat::Text,
                    "prometheus" => OutputFormat::Prometheus,
                    "json" => OutputFormat::Json,
                    "folded" => OutputFormat::Folded,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn load(path: &str) -> Result<Problem, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    lla_spec::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn summarize(problem: &Problem) {
    println!(
        "{} resources, {} tasks, {} subtasks, {} paths",
        problem.resources().len(),
        problem.tasks().len(),
        problem.num_subtasks(),
        problem.num_paths()
    );
    for task in problem.tasks() {
        println!(
            "  task {:>12}: {} subtasks, {} paths, critical time {}ms, rate {:.3}/s",
            task.name(),
            task.len(),
            task.graph().paths().len(),
            task.critical_time(),
            task.trigger().mean_rate() * 1_000.0
        );
    }
}

fn cmd_optimize(opts: &Options) -> Result<(), String> {
    let problem = load(&opts.spec_path)?;
    let mut opt = Optimizer::new(problem, opts.optimizer);
    let outcome = opt.run_to_convergence(opts.iters);
    println!(
        "converged: {} after {} iterations, utility {:.3}, feasible {}",
        outcome.converged, outcome.iterations, outcome.final_utility, outcome.feasible
    );
    let cert = opt.certify();
    println!(
        "certificate: dual {:.3}, gap {:.3e}, violation {:.3e}, capped fixed points {}",
        cert.dual, cert.gap, cert.viol, cert.capped_fixed_points
    );
    let alloc = opt.allocation();
    for task in opt.problem().tasks() {
        println!(
            "task {:>12}: end-to-end {:>8.2}ms / {}ms",
            task.name(),
            alloc.task_latency(task),
            task.critical_time()
        );
        let shares = alloc.shares(opt.problem(), task);
        for (s, sub) in task.subtasks().iter().enumerate() {
            println!(
                "    {:>12} @ {:>10}: latency {:>8.2}ms share {:.4}",
                sub.name(),
                opt.problem().resource(sub.resource()).name(),
                alloc.latency(task.id().index(), s),
                shares[s]
            );
        }
    }
    for r in opt.problem().resources() {
        println!(
            "resource {:>10}: usage {:.4} / {:.2}",
            r.name(),
            opt.problem().resource_usage(r.id(), alloc.lats()),
            r.availability()
        );
    }
    if let Some(path) = &opts.csv {
        std::fs::write(path, opt.trace().to_csv())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote trace to {path}");
    }
    Ok(())
}

fn cmd_telemetry(opts: &Options) -> Result<ExitCode, String> {
    let problem = load(&opts.spec_path)?;
    let registry = MetricsRegistry::new();
    let mut opt = Optimizer::new(problem, opts.optimizer);
    opt.attach_telemetry(&registry);
    if opts.diagnose {
        // Step manually so every iteration feeds the diagnostics engine;
        // a certified run stops once the engine's window lies past the
        // first certified round.
        let names: Vec<String> =
            opt.problem().resources().iter().map(|r| r.name().to_string()).collect();
        let diagnosis =
            DiagnosticsEngine::new().with_resource_names(names).diagnose_run(opts.iters, || {
                opt.step();
                (opt.diag_sample(), opt.has_converged())
            });
        match opts.format {
            OutputFormat::Text => print!("{}", diagnosis.render()),
            OutputFormat::Json => println!("{}", diagnosis.to_json()),
            OutputFormat::Prometheus | OutputFormat::Folded => {
                return Err("--diagnose supports --format text|json".to_owned())
            }
        }
        // An unhealthy verdict is a distinct, scriptable exit code (3),
        // separated from usage errors (2) and I/O failures (1).
        return Ok(match diagnosis.verdict {
            Verdict::Diverging | Verdict::Stalled => ExitCode::from(3),
            _ => ExitCode::SUCCESS,
        });
    }
    opt.run_to_convergence(opts.iters);
    match opts.format {
        OutputFormat::Text => println!("{}", opt.health_snapshot()),
        OutputFormat::Prometheus => print!("{}", registry.prometheus_text()),
        OutputFormat::Json => println!("{}", opt.health_snapshot().to_json()),
        OutputFormat::Folded => {
            return Err("telemetry supports --format text|prometheus|json".to_owned())
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Nanoseconds with an adaptive unit, for the profile table.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn cmd_profile(opts: &Options) -> Result<(), String> {
    let problem = load(&opts.spec_path)?;
    let mut opt = Optimizer::new(problem, opts.optimizer);
    let profiler = Profiler::recording();
    opt.attach_profiler(&profiler);
    let outcome = opt.run_to_convergence(opts.iters);
    let snapshot = profiler.snapshot();
    match opts.format {
        OutputFormat::Text => {
            println!(
                "converged: {} after {} iterations (wall {})",
                outcome.converged,
                outcome.iterations,
                fmt_ns(snapshot.root_total_ns())
            );
            let frames = snapshot.top_self(opts.top);
            let total = snapshot.root_total_ns().max(1) as f64;
            let path_width =
                frames.iter().map(|f| f.path.chars().count()).max().unwrap_or(5).max(5);
            println!(
                "{:>path_width$} {:>10} {:>10} {:>10} {:>7}",
                "phase", "calls", "total", "self", "self%"
            );
            for f in &frames {
                println!(
                    "{:>path_width$} {:>10} {:>10} {:>10} {:>6.1}%",
                    f.path,
                    f.calls,
                    fmt_ns(f.total_ns),
                    fmt_ns(f.self_ns),
                    f.self_ns as f64 / total * 100.0
                );
            }
        }
        OutputFormat::Folded => print!("{}", snapshot.folded_ns()),
        OutputFormat::Json => println!("{}", snapshot.to_json()),
        OutputFormat::Prometheus => {
            return Err("profile supports --format text|folded|json".to_owned())
        }
    }
    Ok(())
}

/// How `config` moves the prices: `clearing`, or `gradient (<policy>)`.
fn method_label(config: &OptimizerConfig) -> String {
    match config.price_method {
        PriceMethod::Clearing => "clearing".to_owned(),
        PriceMethod::Gradient => format!("gradient ({:?})", config.step_policy),
    }
}

fn cmd_fleet(opts: &Options) -> Result<ExitCode, String> {
    use lla::dist::{DistConfig, DistTelemetry, DistributedLla, NetworkModel};
    let problem = load(&opts.spec_path)?;
    let hub = lla::telemetry::TelemetryHub::recording();
    let OptimizerConfig { price_method, step_policy, allocation, .. } = opts.optimizer;
    let config = DistConfig {
        price_method,
        step_policy,
        allocation,
        network: if opts.loss > 0.0 {
            NetworkModel::lossy(0.5, 1.0, opts.loss)
        } else {
            NetworkModel::perfect()
        },
        seed: opts.seed,
        report_cadence: DistConfig::default().round_length,
        ..DistConfig::default()
    };
    let mut dist = DistributedLla::with_telemetry(problem, config, DistTelemetry::from_hub(&hub));
    dist.run_rounds(opts.rounds);
    let firing = dist.firing_alerts();
    let alerts: Vec<lla::telemetry::Event> =
        hub.events.snapshot().into_iter().filter(|e| e.kind == "alert").collect();
    match opts.format {
        OutputFormat::Text => {
            println!("price method: {}", method_label(&opts.optimizer));
            let view = dist.fleet_view().expect("fleet plane is on");
            print!("{}", view.render_table());
            if alerts.is_empty() {
                println!("alerts: none");
            } else {
                println!("alerts:");
                for e in &alerts {
                    let s = |k: &str| match e.field(k) {
                        Some(v) => v.to_string(),
                        None => "?".to_owned(),
                    };
                    println!(
                        "  t={:>8.1} {:<9} {} ({} {})",
                        e.time,
                        s("state"),
                        s("rule"),
                        s("metric"),
                        s("value")
                    );
                }
            }
            for f in &firing {
                println!("FIRING: {} ({}) since t={:.1}", f.rule, f.severity.as_str(), f.since);
            }
        }
        OutputFormat::Json => {
            for e in &alerts {
                println!("{}", e.to_json());
            }
        }
        OutputFormat::Prometheus => print!("{}", hub.metrics.prometheus_text()),
        OutputFormat::Folded => {
            return Err("fleet supports --format text|json|prometheus".to_owned())
        }
    }
    // A fleet still in alert at the end of the run is scriptably
    // unhealthy — same exit-code contract as `telemetry --diagnose`.
    Ok(if firing.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(3) })
}

fn cmd_schedulability(opts: &Options) -> Result<(), String> {
    let problem = load(&opts.spec_path)?;
    let config = SchedulabilityConfig { optimizer: opts.optimizer, max_iters: opts.iters };
    let verdict = analyze_schedulability(problem, &config);
    println!("{verdict:?}");
    Ok(())
}

fn cmd_simulate(opts: &Options) -> Result<(), String> {
    let problem = load(&opts.spec_path)?;
    let mut cl = ClosedLoop::new(
        problem,
        opts.optimizer,
        SimConfig::default(),
        ClosedLoopConfig {
            window: opts.window_ms,
            correction_enabled: opts.correction,
            ..Default::default()
        },
    );
    // Each window prints as it runs: the loop keeps only its newest
    // windows, and a long run must still print every one.
    println!("{:>10} {:>12} {:>14}", "time_s", "utility", "miss_rates");
    let mut csv = String::from("time_ms,utility\n");
    for _ in 0..opts.windows {
        let rec = cl.step_window();
        csv.push_str(&format!("{},{}\n", rec.time, rec.utility));
        println!(
            "{:>10.1} {:>12.2} {:>14}",
            rec.time / 1_000.0,
            rec.utility,
            rec.miss_rate
                .iter()
                .map(|m| format!("{:.1}%", m * 100.0))
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    if let Some(path) = &opts.csv {
        std::fs::write(path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote window telemetry to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let opts = match parse_args(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match command.as_str() {
        "check" => load(&opts.spec_path).map(|p| summarize(&p)).map(|()| ExitCode::SUCCESS),
        "optimize" => cmd_optimize(&opts).map(|()| ExitCode::SUCCESS),
        "schedulability" => cmd_schedulability(&opts).map(|()| ExitCode::SUCCESS),
        "simulate" => cmd_simulate(&opts).map(|()| ExitCode::SUCCESS),
        "telemetry" => cmd_telemetry(&opts),
        "profile" => cmd_profile(&opts).map(|()| ExitCode::SUCCESS),
        "fleet" => cmd_fleet(&opts),
        _ => {
            return usage();
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
