//! Integration tests for the hierarchical phase profiler: a disabled
//! handle must leave an optimizer run byte-identical, the seeded Figure 6
//! run's call tree is pinned against a committed golden folded-stack
//! file, worker threads must accumulate into the shared tree under the
//! `parallel` feature, the profiler must attribute nearly all of the
//! step's wall time to its child phases, and the profile frames must
//! merge cleanly into the Chrome trace export.

use lla::core::{Optimizer, OptimizerConfig, ShardSpec, ShardedOptimizer, StepSizePolicy};
use lla::telemetry::{ProfileSnapshot, Profiler, SpanRecorder, TraceCtx};
use lla::workloads::scaled_workload;
use lla_bench::run_fig6_profile;

fn config() -> OptimizerConfig {
    OptimizerConfig {
        step_policy: StepSizePolicy::sign_adaptive(1.0),
        ..OptimizerConfig::default()
    }
}

/// A disabled profiler handle is pure control flow: attaching one must
/// not perturb the trajectory, the trace, or the health snapshot by a
/// single byte relative to an un-instrumented run.
#[test]
fn disabled_profiler_leaves_the_run_byte_identical() {
    let problem = scaled_workload(2, true);

    let mut plain = Optimizer::new(problem.clone(), config());
    let plain_outcome = plain.run_to_convergence(3_000);

    let mut profiled = Optimizer::new(problem, config());
    let profiler = Profiler::disabled();
    profiled.attach_profiler(&profiler);
    let profiled_outcome = profiled.run_to_convergence(3_000);

    assert_eq!(plain_outcome.iterations, profiled_outcome.iterations);
    assert_eq!(plain_outcome.final_utility.to_bits(), profiled_outcome.final_utility.to_bits());
    assert_eq!(
        plain.trace().to_csv(),
        profiled.trace().to_csv(),
        "disabled profiler must not perturb the optimizer trace"
    );
    assert_eq!(plain.health_snapshot().to_json(), profiled.health_snapshot().to_json());
    assert!(profiler.snapshot().is_empty(), "disabled profiler records nothing");
}

/// The call-count side of the profile is deterministic (the wall-clock
/// side is not), so the seeded Figure 6 run's folded call stacks are
/// pinned byte-for-byte. Regenerate deliberately with
/// `LLA_REGEN_GOLDEN=1 cargo test --test profiler`.
#[test]
fn fig6_profile_call_tree_matches_golden_file() {
    let snapshot = run_fig6_profile(1, 8_000);
    let folded = snapshot.folded_calls();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig6_profile_calls.folded");
    if std::env::var_os("LLA_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &folded).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden file present (LLA_REGEN_GOLDEN=1 cargo test --test profiler regenerates it)",
    );
    assert_eq!(
        folded, golden,
        "profile call tree drifted from tests/golden/fig6_profile_calls.folded; \
         if the change is intentional, regenerate the golden file"
    );
}

/// The profiler must attribute nearly all of the optimizer step's
/// inclusive wall time to its child phases (allocate / price /
/// lagrangian / trace) — unattributed self time is scope-management
/// overhead plus the step's own glue. Release builds clear 95%; debug
/// builds pay relatively more per guard, so the floor is looser there.
#[test]
fn fig6_profile_attributes_step_time_to_phases() {
    assert_step_phases_attributed(&run_fig6_profile(4, 8_000));
}

/// The same under the default market-clearing price method, whose round
/// runs `price` (the pressures and the μ block) and then `allocate` (the
/// task pass: λ block, allocation, measurement and utility), each once.
#[test]
fn clearing_profile_attributes_step_time_to_phases() {
    let mut opt = Optimizer::new(scaled_workload(4, true), OptimizerConfig::default());
    let profiler = Profiler::recording();
    opt.attach_profiler(&profiler);
    opt.run(400);
    assert_step_phases_attributed(&profiler.snapshot());
}

/// At least 95% (80% in debug builds) of the `step` scope's time lies in
/// its phases, and every phase runs once per step.
fn assert_step_phases_attributed(snapshot: &ProfileSnapshot) {
    let attributed =
        snapshot.attributed_fraction("step").expect("step scope present with nonzero time");
    let floor = if cfg!(debug_assertions) { 0.80 } else { 0.95 };
    assert!(
        attributed >= floor,
        "profiler attributes only {:.1}% of step time to phases (floor {:.0}%):\n{}",
        attributed * 100.0,
        floor * 100.0,
        snapshot.folded_ns()
    );
    let step_calls = snapshot.frames.iter().find(|f| f.path == "step").expect("step frame").calls;
    for phase in ["step;allocate", "step;price", "step;lagrangian", "step;trace"] {
        let f = snapshot
            .frames
            .iter()
            .find(|f| f.path == phase)
            .unwrap_or_else(|| panic!("missing frame {phase}"));
        assert_eq!(f.calls, step_calls, "{phase} runs once per step");
    }
}

/// Under the `parallel` feature the sharded allocation phase runs in
/// rayon workers; `scope_in` re-anchors those threads so per-shard work
/// lands under the coordinator round in the one shared tree. (Without
/// the feature the same scopes run sequentially — the assertions hold
/// either way, which is the point: one tree, same shape.)
#[test]
fn sharded_round_profile_accumulates_across_threads() {
    const ROUNDS: u64 = 40;
    let problem = scaled_workload(4, true);
    let shards = 4;
    let mut sharded = ShardedOptimizer::new(
        problem.clone(),
        config(),
        ShardSpec::contiguous(problem.tasks().len(), shards),
    )
    .expect("contiguous spec partitions the tasks");
    let profiler = Profiler::recording();
    sharded.attach_profiler(&profiler);
    for _ in 0..ROUNDS {
        sharded.step();
    }
    let snapshot = profiler.snapshot();
    let calls = |path: &str| {
        snapshot
            .frames
            .iter()
            .find(|f| f.path == path)
            .unwrap_or_else(|| panic!("missing frame {path}:\n{}", snapshot.folded_calls()))
            .calls
    };
    assert_eq!(calls("round"), ROUNDS);
    assert_eq!(calls("round;allocation_phase"), ROUNDS);
    assert_eq!(
        calls("round;allocation_phase;shard_local"),
        ROUNDS * shards as u64,
        "every shard's local step must land in the shared tree"
    );
    assert_eq!(calls("round;coordinator"), ROUNDS);
    // Broadcast runs once per coordinated resource per round.
    let broadcast = calls("round;coordinator;broadcast");
    assert!(
        broadcast >= ROUNDS && broadcast % ROUNDS == 0,
        "broadcast fires a fixed number of times per round, got {broadcast} over {ROUNDS} rounds"
    );
}

/// Profile frames ride along in the Chrome trace export as their own
/// `profiler` track without disturbing the span events.
#[test]
fn profile_frames_merge_into_chrome_trace() {
    let spans = SpanRecorder::recording();
    spans.span("tick", "agent", 0.0, 1.0, TraceCtx::NONE);
    let profiler = Profiler::recording();
    {
        let _outer = profiler.scope("round");
        let _inner = profiler.scope("allocate");
    }
    let json = spans.to_chrome_json_with_profile(&profiler.snapshot());
    assert!(json.contains("\"traceEvents\""), "chrome trace shape:\n{json}");
    assert!(json.contains("\"name\":\"tick\""), "span events retained:\n{json}");
    assert!(json.contains("\"name\":\"profiler\""), "profiler track named:\n{json}");
    assert!(json.contains("\"name\":\"round\""), "profile frames exported:\n{json}");
    assert!(json.contains("\"calls\":1"), "frame args carry call counts:\n{json}");
    // The plain export is untouched — byte-compatible with the golden.
    assert!(!spans.to_chrome_json().contains("profiler"));
}
