//! Regenerates **Figure 7**: using LLA to test the schedulability of a
//! workload (§5.4).
//!
//! The 6-task workload keeps the *original* critical times (no
//! overprovisioning) and is unschedulable. The paper's observations: even
//! after 100 iterations neither the utility nor the per-resource share
//! sums converge; the fluctuations dampen slowly (which could be mistaken
//! for slow convergence), but the critical-path latencies sit at
//! 1.75–2.41× their critical times. Here the verdict is a proof: the dual
//! bound `D(μ, λ)` falls below `U_floor`, the least utility of any
//! allocation inside the clamping box.

use lla_bench::{paper_optimizer_config, run_fig7};
use lla_core::{
    analyze_schedulability, SchedulabilityConfig, SchedulabilityVerdict, StepSizePolicy,
};
use lla_workloads::scaled_workload;

fn main() {
    const ITERS: usize = 300;
    let result = run_fig7(ITERS);

    println!("=== Figure 7: schedulability test on the unscaled 6-task workload ===\n");
    println!("converged after {ITERS} iterations: {}", result.converged);
    println!("\nper-task mean critical-path / critical-time ratio (last 50 iterations):");
    for (t, r) in result.violation_ratios.iter().enumerate() {
        println!("  task {}: {:.2}x", t + 1, r);
    }
    println!("\nper-resource mean share-sum / availability ratio (last 50 iterations):");
    for (r, u) in result.resource_ratios.iter().enumerate() {
        println!("  R{r}: {u:.2}x");
    }
    let max_res = result.resource_ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min_res = result.resource_ratios.iter().cloned().fold(f64::INFINITY, f64::min);

    let utility: Vec<f64> = result.series.rows.iter().map(|r| r[1]).collect();
    let usage0: Vec<f64> = result.series.rows.iter().map(|r| r[2]).collect();
    println!("\nnon-convergence, visualized (min..max per series):");
    print!(
        "{}",
        lla_bench::render::spark_table(
            &[("utility", utility.as_slice()), ("usage R0", usage0.as_slice())],
            60,
        )
    );

    match result.series.write_csv("fig7_schedulability") {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("csv not written: {e}"),
    }

    // The paper's §5.4 verdict via the schedulability API, proved by weak
    // duality on the paper's gradient method.
    let probe = SchedulabilityConfig {
        optimizer: paper_optimizer_config(StepSizePolicy::adaptive(1.0)),
        ..SchedulabilityConfig::default()
    };
    let verdict = analyze_schedulability(scaled_workload(2, false), &probe);
    println!("\nschedulability verdict: {verdict:?}");
    let proof = match verdict {
        SchedulabilityVerdict::Unschedulable { iterations, dual, utility_floor } => {
            println!(
                "  after {iterations} rounds the dual bound D = {dual:.1} is below\n  \
                 U_floor = {utility_floor:.1}, the least utility of any allocation in the\n  \
                 clamping box: no allocation meets every constraint"
            );
            dual < utility_floor
        }
        _ => false,
    };

    println!("\npaper claims:");
    println!("  does not converge: {}", if !result.converged { "YES" } else { "NO" });
    println!(
        "  constraints persistently violated well beyond capacity\n\
         \x20   (paper: critical paths at 1.75-2.41x critical time; ours: share sums at\n\
         \x20   {:.2}-{:.2}x availability — under our clamped allocator the infeasibility\n\
         \x20   parks on the resource constraints): {}",
        min_res,
        max_res,
        if max_res > 1.1 { "YES" } else { "NO" }
    );
    println!("  proved unschedulable (D < U_floor): {}", if proof { "YES" } else { "NO" });
}
