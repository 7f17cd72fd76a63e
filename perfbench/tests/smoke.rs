//! Seconds-long smoke runs of every workload at a small size: each run
//! certifies, prints every declared metric with its unit, repeats its
//! deterministic counts for a seed, and (traced) writes its artifact.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["flat-cold", "sharded-churn", "dist-wire", "closed-loop"];

const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("time_to_cert_s", "s"),
    ("rounds_to_cert", "count"),
    ("peak_rss_mb", "MiB"),
];

const PER_LAYER: [(&str, &str); 21] = [
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

struct Run {
    stdout: String,
}

impl Run {
    fn last_line(&self) -> &str {
        self.stdout.lines().last().expect("the run prints its result")
    }

    fn line_starting(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{}", self.stdout))
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke")
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_lla-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "0.05"])
        .arg("--out")
        .arg(out_dir())
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    Run { stdout }
}

/// Checks the result line's shape: the four keys, a certified run, and
/// exactly `expected` metrics with their units.
fn check_result(workload: &str, run: &Run, expected: &[(&str, &str)]) {
    let line = run.last_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {line}");
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{workload}: {line}");
    for (name, unit) in expected {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = line.find(&needle).unwrap_or_else(|| panic!("{workload}: no {name} in {line}"));
        let rest = &line[at + needle.len()..];
        let entry = &rest[..rest.find('}').expect("the entry closes")];
        let (value, unit_part) = entry.split_once(", ").expect("value, then unit");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("{workload}: {name} in {line}"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(unit_part, format!("\"unit\": \"{unit}\""), "{workload}: {name}");
    }
    assert_eq!(line.matches("\"value\": ").count(), expected.len(), "{workload}: {line}");
}

#[test]
fn every_workload_certifies_reports_its_metrics_and_repeats_its_counts() {
    for workload in WORKLOADS {
        let first = run(workload, 3, false);
        check_result(workload, &first, &END_TO_END);
        for (name, _) in END_TO_END {
            let needle = format!("\"{name}\": {{\"value\": 0.0,");
            assert!(!first.last_line().contains(&needle), "{workload}: {name} reads 0");
        }
        let again = run(workload, 3, false);
        assert_eq!(
            first.line_starting("deterministic"),
            again.line_starting("deterministic"),
            "{workload}: counts differ between runs of one seed"
        );
        assert!(!first.stdout.contains("FAILED"), "{workload}:\n{}", first.stdout);
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_the_artifact() {
    for workload in WORKLOADS {
        let traced = run(workload, 5, true);
        check_result(workload, &traced, &PER_LAYER);
        let dir = out_dir().join(workload);
        for file in ["layers.tsv", "folded.txt", "metrics.tsv"] {
            let text = std::fs::read_to_string(dir.join(file))
                .unwrap_or_else(|e| panic!("{workload}: {file}: {e}"));
            assert!(text.lines().count() > 1, "{workload}: {file} is empty");
        }
    }
}

#[test]
fn metric_names_match_the_benchmark_manifest() {
    let manifest = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json sits beside the benchmark directory");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(manifest.contains(&format!("\"name\": \"{workload}\"")), "{workload}");
    }
}
