//! End-to-end tests of the `lla-cli` binary against the shipped workload
//! spec files.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lla-cli"))
}

#[test]
fn check_summarizes_spec() {
    let out = cli().args(["check", "examples/workloads/trading.lla"]).output().expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("4 resources, 2 tasks"), "unexpected summary: {stdout}");
    assert!(stdout.contains("trading"));
}

#[test]
fn optimize_converges_and_reports() {
    let out = cli()
        .args(["optimize", "examples/workloads/trading.lla", "--iters", "20000"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("converged: true"), "did not converge: {stdout}");
    assert!(stdout.contains("feasible true"));
    assert!(stdout.contains("capped fixed points"), "no certificate line: {stdout}");
    assert!(stdout.contains("strategy"));
}

#[test]
fn schedulability_verdict_prints() {
    let out = cli()
        .args(["schedulability", "examples/workloads/patient_monitoring.lla"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Schedulable"), "verdict: {stdout}");
}

#[test]
fn schedulability_with_zero_budget_is_inconclusive() {
    let out = cli()
        .args(["schedulability", "examples/workloads/trading.lla", "--iters", "0"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Inconclusive"), "verdict: {stdout}");
}

#[test]
fn simulate_runs_windows() {
    let out = cli()
        .args([
            "simulate",
            "examples/workloads/patient_monitoring.lla",
            "--windows",
            "3",
            "--window",
            "500",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Three window rows plus the header.
    assert_eq!(stdout.lines().count(), 4, "output: {stdout}");
}

#[test]
fn telemetry_reports_health() {
    let out = cli()
        .args(["telemetry", "examples/workloads/trading.lla", "--iters", "20000"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("health: OK"), "unhealthy snapshot: {stdout}");
    assert!(stdout.contains("converged=true"), "snapshot: {stdout}");
    assert!(stdout.contains("kkt residuals:"), "snapshot: {stdout}");
}

#[test]
fn telemetry_prometheus_format_exposes_metrics() {
    let out = cli()
        .args(["telemetry", "examples/workloads/trading.lla", "--format", "prometheus"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lla_opt_iterations_total"), "metrics: {stdout}");
    assert!(stdout.contains("lla_opt_utility"), "metrics: {stdout}");
}

#[test]
fn telemetry_json_format_is_one_object() {
    let out = cli()
        .args([
            "telemetry",
            "examples/workloads/trading.lla",
            "--iters",
            "20000",
            "--format",
            "json",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim().starts_with('{') && stdout.trim().ends_with('}'), "json: {stdout}");
    assert!(stdout.contains("\"converged\": true"), "json: {stdout}");
    assert!(stdout.contains("\"resources\": ["), "json: {stdout}");

    let out = cli()
        .args(["telemetry", "examples/workloads/trading.lla", "--format", "bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn telemetry_diagnose_exit_code_gates_on_verdict() {
    // Healthy run: the diagnosis prints and the process exits 0.
    let out = cli()
        .args(["telemetry", "examples/workloads/trading.lla", "--iters", "20000", "--diagnose"])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("diagnosis: converging"), "diagnosis: {stdout}");

    // Overloaded deployment: the verdict is diverging and the exit code
    // is 3 — distinct from usage errors (2) and I/O failures (1), so CI
    // gates can alert on an unhealthy run specifically.
    let spec = std::env::temp_dir().join("lla_cli_overloaded.lla");
    std::fs::write(
        &spec,
        "resource cpu kind=cpu lag=1.0 availability=1.0\n\
         task a critical=50 utility=inelastic umax=100 sharpness=8 trigger=periodic period=50\n\
         \x20 subtask s resource=cpu exec=40.0\n\
         task b critical=50 utility=inelastic umax=100 sharpness=8 trigger=periodic period=50\n\
         \x20 subtask s resource=cpu exec=40.0\n\
         task c critical=50 utility=inelastic umax=100 sharpness=8 trigger=periodic period=50\n\
         \x20 subtask s resource=cpu exec=40.0\n",
    )
    .expect("write spec");
    let out = cli()
        .args(["telemetry", spec.to_str().expect("utf-8 path"), "--iters", "600", "--diagnose"])
        .output()
        .expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "diagnosis: {stdout}");
    assert!(stdout.contains("diagnosis: diverging"), "diagnosis: {stdout}");
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn missing_file_fails_cleanly() {
    let out = cli().args(["check", "no/such/file.lla"]).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot read"), "stderr: {stderr}");
}

#[test]
fn bad_arguments_print_usage() {
    let out = cli().output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = cli().args(["optimize"]).output().expect("spawn");
    assert!(!out.status.success());

    let out = cli()
        .args(["optimize", "examples/workloads/trading.lla", "--policy", "bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn fixed_policy_flag_parses() {
    let out = cli()
        .args([
            "optimize",
            "examples/workloads/patient_monitoring.lla",
            "--policy",
            "fixed=2.5",
            "--iters",
            "200",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn fleet_runs_the_selected_price_method() {
    let fleet = |extra: &[&str]| {
        cli().args(["fleet", "examples/workloads/trading.lla"]).args(extra).output().expect("spawn")
    };
    // Market clearing (the default): the zero-price first round
    // overloads the CPUs, the alert resolves once the prices clear.
    let out = fleet(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("price method: clearing"), "{stdout}");
    assert!(stdout.contains("resolved  fleet-overload"), "{stdout}");
    // The paper's gradient steps are still above availability after the
    // 200 rounds, so the alert is firing at exit.
    let out = fleet(&["--policy", "adaptive"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(3), "stdout: {stdout}");
    assert!(stdout.contains("price method: gradient (Adaptive"), "{stdout}");
    assert!(stdout.contains("FIRING: fleet-overload"), "{stdout}");
}
