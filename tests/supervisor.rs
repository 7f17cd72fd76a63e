//! Integration tests for the closed-loop supervisor: seeded determinism
//! of supervised runs (identical event logs and remediation sequences),
//! bit-identity of a *disabled* supervisor with the plain round driver,
//! and an end-to-end thrash recovery.
//!
//! The determinism properties were sketched for `proptest`; the offline
//! build environment cannot fetch it, so — like
//! `tests/proptest_invariants.rs` — the same properties are driven by an
//! explicit seeded RNG with a fixed case count.

use lla_core::{
    PriceMethod, Problem, Resource, ResourceId, ResourceKind, StepSizePolicy, TaskBuilder, TaskId,
    UtilityFn,
};
use lla_dist::{
    run_supervised, DistConfig, DistTelemetry, DistributedLla, NetworkModel, RemediationKind,
    SupervisorConfig, SupervisorEngine,
};
use lla_telemetry::{TelemetryHub, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 8;

/// Per-property master seeds: independent streams, stable across runs.
fn cases(salt: u64) -> impl Iterator<Item = StdRng> {
    (0..CASES as u64).map(move |i| StdRng::seed_from_u64(salt.wrapping_mul(0x9e37_79b9) + i))
}

/// Three hard-deadline services on one CPU, near congestion: with an
/// over-aggressive step policy this deployment gamma-thrashes, which
/// keeps the supervisor busy enough for determinism checks to bite.
fn thrash_problem() -> Problem {
    let resources = vec![Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0)];
    let tasks = (0..3)
        .map(|i| {
            let mut b = TaskBuilder::new(format!("svc-{i}"));
            b.subtask("s", ResourceId::new(0), 10.0);
            b.critical_time(50.0).utility(UtilityFn::smooth_inelastic(100.0, 50.0, 8.0));
            b.build(TaskId::new(i)).expect("static workload")
        })
        .collect();
    Problem::new(resources, tasks).expect("static workload")
}

/// The gradient protocol under an over-aggressive step policy: the step
/// sizes thrash, which is what GammaCalm remediates.
fn thrash_config(seed: u64, loss: f64) -> DistConfig {
    DistConfig {
        price_method: PriceMethod::Gradient,
        step_policy: StepSizePolicy::SignAdaptive { initial: 4.0, factor: 8.0, max: 2048.0 },
        network: NetworkModel::lossy(0.5, 1.0, loss),
        seed,
        ..DistConfig::default()
    }
}

/// One supervised run: returns the event JSONL, the remediation log
/// rendered to stable strings, and the final utility bits.
fn supervised_run(config: &DistConfig, rounds: usize) -> (String, Vec<String>, u64) {
    let hub = TelemetryHub::recording();
    let mut dist =
        DistributedLla::with_telemetry(thrash_problem(), *config, DistTelemetry::from_hub(&hub));
    let mut sup = SupervisorEngine::new(SupervisorConfig::default());
    run_supervised(&mut dist, &mut sup, rounds);
    let actions = sup
        .actions()
        .iter()
        .map(|r| format!("{}@{}:{:?}/{}", r.kind.as_str(), r.round, r.slot, r.value))
        .collect();
    (hub.events.to_jsonl(), actions, dist.utility().to_bits())
}

/// Two supervised runs from the same seed are bit-identical: same event
/// log bytes, same remediations at the same rounds, same utility.
#[test]
fn same_seed_supervised_runs_are_bit_identical() {
    for mut rng in cases(6) {
        let config = thrash_config(rng.gen(), rng.gen_range(0.0f64..0.15));
        let (jsonl_a, actions_a, bits_a) = supervised_run(&config, 200);
        let (jsonl_b, actions_b, bits_b) = supervised_run(&config, 200);
        assert!(!jsonl_a.is_empty(), "instrumented runs must record events");
        assert_eq!(jsonl_a, jsonl_b, "same-seed supervised runs must emit identical JSONL");
        assert_eq!(actions_a, actions_b, "same-seed runs must apply identical remediations");
        assert_eq!(bits_a, bits_b, "same-seed runs must land on the same utility bits");
    }
}

/// A disabled supervisor is *exactly* `run_rounds`: same event log
/// bytes, same utility bits, zero remediations — supervision costs
/// nothing unless it is switched on.
#[test]
fn disabled_supervisor_matches_plain_run_byte_for_byte() {
    for mut rng in cases(7) {
        let config = thrash_config(rng.gen(), rng.gen_range(0.0f64..0.15));

        let hub_plain = TelemetryHub::recording();
        let mut plain = DistributedLla::with_telemetry(
            thrash_problem(),
            config,
            DistTelemetry::from_hub(&hub_plain),
        );
        plain.run_rounds(200);

        let hub_disabled = TelemetryHub::recording();
        let mut disabled = DistributedLla::with_telemetry(
            thrash_problem(),
            config,
            DistTelemetry::from_hub(&hub_disabled),
        );
        let mut sup = SupervisorEngine::new(SupervisorConfig::disabled());
        let fired = run_supervised(&mut disabled, &mut sup, 200);

        assert!(fired.is_empty(), "a disabled supervisor must not act");
        assert_eq!(sup.checks(), 0, "a disabled supervisor must not even sample");
        assert_eq!(
            hub_plain.events.to_jsonl(),
            hub_disabled.events.to_jsonl(),
            "disabled supervision must leave the event stream untouched"
        );
        assert_eq!(
            plain.utility().to_bits(),
            disabled.utility().to_bits(),
            "disabled supervision must leave the trajectory untouched"
        );
    }
}

/// End-to-end thrash recovery: the calm remediation fires and the run
/// ends converging, where the unsupervised deployment rings forever
/// (that contrast is asserted in the `lla-bench` supervised A/B).
#[test]
fn supervisor_calms_gamma_thrash_end_to_end() {
    let mut dist = DistributedLla::new(thrash_problem(), thrash_config(2008, 0.05));
    // Capacity is not the problem in a thrash: keep the supervisor on the
    // calm remediation alone, as the `lla-bench` A/B does.
    let mut sup =
        SupervisorEngine::new(SupervisorConfig { elastic: false, ..SupervisorConfig::default() });
    let fired = run_supervised(&mut dist, &mut sup, 600);
    assert!(
        fired.iter().any(|r| r.kind == RemediationKind::GammaCalm),
        "thrash must draw at least one gamma-calm: {fired:?}"
    );
    let diagnosis = sup.diagnosis();
    assert_eq!(
        diagnosis.verdict,
        Verdict::Converging,
        "supervised thrash run must end converging: {diagnosis:?}"
    );
}
