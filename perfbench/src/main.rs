//! Time-to-certificate benchmark for the LLA deployment paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flat-cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each workload generates its instance from `--seed`, measures for
//! `--seconds`, certifies every solve (see [`cert`]), and prints one JSON
//! object as its last stdout line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! certificate or correctness check prints `"correct": false` and exits
//! with status 1. See `perfbench/README.md` for the workloads and metrics.

mod cert;
mod instances;
mod stats;
mod trace;
mod work;

use stats::Metric;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Instance-size multiplier (1 = the documented sizes; the smoke
    /// tests shrink it).
    pub scale: f64,
    /// Where a traced run writes its artifact.
    pub out: PathBuf,
}

impl Ctx {
    /// `n` scaled by `--scale`, at least `min`.
    pub fn size(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Solves attempted (cold solves plus re-certifications).
    pub attempted: u64,
    /// Solves that hit their round cap uncertified.
    pub failed: u64,
    /// Named correctness checks.
    pub checks: Vec<(String, bool)>,
    /// Counts that must repeat exactly for a seed.
    pub deterministic: Vec<(&'static str, String)>,
    /// Facts about the instance (sizes, floor margin).
    pub notes: Vec<(&'static str, String)>,
    /// Layer-specific timings of a traced run that are not per-layer
    /// metrics of every workload.
    pub extra: Vec<Metric>,
    pub spans: BTreeMap<String, trace::Node>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Counts one attempted solve, failed unless `certified`.
    pub fn count(&mut self, certified: bool) {
        self.attempted += 1;
        self.failed += u64::from(!certified);
    }

    pub fn count_solve(&mut self, solve: &cert::Solve) {
        self.count(solve.certified);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

const WORKLOADS: [&str; 4] = ["flat-cold", "sharded-churn", "dist-wire", "closed-loop"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scale <f>] [--out <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut args = std::env::args().skip(1);
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        out: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => ctx.workload = value,
            "--seed" => ctx.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => ctx.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => ctx.trace = value == "1",
            "--scale" => ctx.scale = value.parse().unwrap_or_else(|_| usage()),
            "--out" => ctx.out = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) || ctx.seconds <= 0.0 || ctx.scale <= 0.0 {
        usage();
    }
    ctx
}

fn main() {
    let ctx = parse_args();
    // One plan worker: on the shared two-core host a two-worker allocate
    // is slower at these sizes and its wall time swings with whatever
    // else runs there (README, "Threads"). Traced runs measure the
    // two-worker allocate beside it.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let report = match ctx.workload.as_str() {
        "flat-cold" => work::flat::run(&ctx),
        "sharded-churn" => work::sharded::run(&ctx),
        "dist-wire" => work::dist::run(&ctx),
        "closed-loop" => work::closed::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    if ctx.trace {
        write_artifact(&ctx, &report);
    }
    print_report(&report);
    if !report.correct() {
        std::process::exit(1);
    }
}

fn print_report(report: &Report) {
    for (k, v) in &report.notes {
        println!("note {k} = {v}");
    }
    for (name, ok) in &report.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    let det: Vec<String> = report.deterministic.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("deterministic {}", det.join(" "));
    for m in report.metrics.iter().chain(&report.extra) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// A JSON number (non-finite values, which a correct run never reports,
/// become `null` so the line stays parseable).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Writes the traced run's per-layer self-time table and folded stacks
/// under `<out>/<workload>/`.
fn write_artifact(ctx: &Ctx, report: &Report) {
    let dir = ctx.out.join(&ctx.workload);
    std::fs::create_dir_all(&dir).expect("artifact directory is writable");
    let total: u64 = report.spans.values().map(|n| n.self_ns).sum();
    let mut table = String::from("layer\tself_ms\tshare\n");
    for (layer, ns) in trace::layer_table(&report.spans) {
        table.push_str(&format!(
            "{layer}\t{:.3}\t{:.4}\n",
            ns as f64 / 1e6,
            ns as f64 / total.max(1) as f64
        ));
    }
    std::fs::write(dir.join("layers.tsv"), &table).expect("artifact is writable");
    std::fs::write(dir.join("folded.txt"), trace::folded(&report.spans))
        .expect("artifact is writable");
    let metrics: String = report
        .metrics
        .iter()
        .chain(&report.extra)
        .map(|m| format!("{}\t{}\t{}\n", m.name, m.value, m.unit))
        .collect();
    std::fs::write(dir.join("metrics.tsv"), metrics).expect("artifact is writable");
    println!("trace artifact {} ({} span paths)", dir.display(), report.spans.len());
    print!("{table}");
}
