//! Fault-injection integration tests: the distributed deployment must
//! survive controller crashes (restoring from checkpoints), degrade
//! gracefully through network partitions (hold, don't oscillate), and
//! disseminate availability changes reliably over a lossy network.

use lla::core::{
    AllocationSettings, Optimizer, OptimizerConfig, Problem, Resource, ResourceId, ResourceKind,
    TaskBuilder, TaskId,
};
use lla::dist::agents::TaskController;
use lla::dist::{
    Address, ControlPlaneAgent, DistConfig, DistributedLla, FaultPlan, NetworkModel,
    RobustnessConfig,
};

/// Two tasks sharing two CPUs, comfortably schedulable.
fn problem() -> Problem {
    let resources = vec![
        Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
        Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
    ];
    let mut tasks = Vec::new();
    for (i, c) in [(0usize, 40.0), (1usize, 60.0)] {
        let mut b = TaskBuilder::new(format!("t{i}"));
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let d = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, d).unwrap();
        b.critical_time(c);
        tasks.push(b.build(TaskId::new(i)).unwrap());
    }
    Problem::new(resources, tasks).unwrap()
}

fn settings() -> AllocationSettings {
    AllocationSettings { throughput_floor: false }
}

fn config() -> DistConfig {
    DistConfig { allocation: settings(), ..DistConfig::default() }
}

fn centralized_optimum() -> f64 {
    let mut opt = Optimizer::new(
        problem(),
        OptimizerConfig { allocation: settings(), ..OptimizerConfig::default() },
    );
    opt.run_to_convergence(5_000);
    opt.utility()
}

/// Acceptance (a): a controller crashes mid-run and restarts from its
/// periodic checkpoint; the system re-converges to within 2% of the
/// centralized optimizer's utility.
#[test]
fn controller_crash_restart_reconverges_from_checkpoint() {
    let mut dist = DistributedLla::new(
        problem(),
        DistConfig {
            robustness: RobustnessConfig {
                checkpoint_interval: 50.0, // every 5 controller ticks
                ..Default::default()
            },
            ..config()
        },
    );
    // Crash controller 0 at t=4005 (mid-round 401), 10 rounds of downtime.
    let plan = FaultPlan::new().crash_for(4_005.0, 100.0, Address::Controller(0));
    dist.schedule_faults(&plan);

    dist.run_rounds(400);
    assert!(!dist.checkpoints().is_empty(), "checkpoints must be written");
    let before_crash = dist.utility();

    dist.run_rounds(400);
    assert_eq!(dist.runtime().crashes(), 1);
    assert_eq!(dist.runtime().restarts(), 1);
    assert!(!dist.runtime().is_crashed(Address::Controller(0)));

    let reference = centralized_optimum();
    let achieved = dist.utility();
    let gap = (achieved - reference).abs() / reference.abs().max(1.0);
    assert!(
        gap < 0.02,
        "post-restart utility {achieved} not within 2% of centralized {reference} (gap {gap})"
    );
    // Re-convergence, not just survival: the final utility is as good as
    // the pre-crash operating point.
    assert!(
        achieved >= before_crash - 0.02 * before_crash.abs().max(1.0),
        "restart lost utility: {achieved} vs pre-crash {before_crash}"
    );
    assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
}

/// A crash *without* checkpoints also re-converges (resource agents
/// re-learn latencies from traffic; the controller restarts from the
/// initial point) — it just starts from further away.
#[test]
fn controller_crash_without_checkpoint_still_reconverges() {
    let mut dist = DistributedLla::new(problem(), config());
    let plan = FaultPlan::new().crash_for(4_005.0, 100.0, Address::Controller(0));
    dist.schedule_faults(&plan);
    dist.run_rounds(1_200);

    let reference = centralized_optimum();
    let gap = (dist.utility() - reference).abs() / reference.abs().max(1.0);
    assert!(gap < 0.02, "gap {gap} after checkpoint-less restart");
    assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
}

/// Acceptance (b): during a partition, controllers past the staleness TTL
/// freeze — they hold their last-known-good latencies instead of
/// integrating stale prices — and recover within bounded virtual rounds
/// after the partition heals.
#[test]
fn partition_degrades_gracefully_and_recovers_after_heal() {
    let mut dist = DistributedLla::new(
        problem(),
        DistConfig {
            robustness: RobustnessConfig {
                staleness_ttl: 30.0, // 3 rounds
                ..Default::default()
            },
            ..config()
        },
    );
    // Partition all controllers from all resources for 40 rounds.
    let controllers = vec![Address::Controller(0), Address::Controller(1)];
    let resources = vec![Address::Resource(0), Address::Resource(1)];
    let plan = FaultPlan::new().partition(5_000.0, 400.0, controllers, resources);
    dist.schedule_faults(&plan);

    dist.run_rounds(500);
    let converged = dist.utility();

    // Let the TTL expire (staleness > 30 ms from t=5030 on), then verify
    // the hold: the allocation must not move at all for the rest of the
    // partition — graceful degradation, not oscillation.
    dist.run_rounds(6);
    let held = dist.allocation().lats().to_vec();
    for _ in 0..34 {
        dist.run_rounds(1);
        assert_eq!(
            dist.allocation().lats(),
            held.as_slice(),
            "degraded controllers must hold last-known-good latencies"
        );
    }
    for t in 0..2 {
        let ctl = dist
            .runtime_mut()
            .actor_as::<TaskController>(Address::Controller(t))
            .expect("controller registered");
        assert!(ctl.is_degraded(), "controller {t} should be degraded mid-partition");
        assert!(ctl.degraded_ticks() > 0);
    }
    assert!(dist.runtime().dropped_by_partition() > 0);

    // Heal at t=5400; bounded recovery: within 50 rounds the system is
    // back at the converged utility and the controllers left degraded
    // mode.
    dist.run_rounds(50);
    for t in 0..2 {
        let ctl = dist
            .runtime_mut()
            .actor_as::<TaskController>(Address::Controller(t))
            .expect("controller registered");
        assert!(!ctl.is_degraded(), "controller {t} should have recovered after heal");
    }
    let recovered = dist.utility();
    let gap = (recovered - converged).abs() / converged.abs().max(1.0);
    assert!(gap < 0.005, "recovery gap {gap}: {recovered} vs pre-partition {converged}");
    assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
}

/// Acceptance (c): an availability update disseminated through the
/// control plane over a 30%-loss network converges to the same allocation
/// as the idealized lossless out-of-band path.
#[test]
fn reliable_availability_update_survives_heavy_loss() {
    let mut lossy = DistributedLla::new(
        problem(),
        DistConfig { network: NetworkModel::lossy(0.5, 1.0, 0.3), seed: 17, ..config() },
    );
    let mut ideal = DistributedLla::new(problem(), config());

    lossy.run_rounds(800);
    ideal.run_rounds(800);
    // Reliable dissemination under loss vs out-of-band bypass.
    lossy.set_resource_availability(ResourceId::new(0), 0.5).unwrap();
    ideal.set_resource_availability_bypass(ResourceId::new(0), 0.5).unwrap();
    lossy.run_rounds(3_000);
    ideal.run_rounds(3_000);

    assert!(lossy.messages_dropped() > 1_000, "loss must actually occur");
    let cp = lossy
        .runtime_mut()
        .actor_as::<ControlPlaneAgent>(Address::ControlPlane)
        .expect("control plane registered");
    assert_eq!(cp.sequences_assigned(), 1);
    assert_eq!(cp.pending_updates(), 0, "every agent must have acked the update");

    // The update reached the agents: the lossy run's allocation respects
    // the degraded availability…
    let usage = lossy.problem().resource_usage(ResourceId::new(0), lossy.allocation().lats());
    assert!(usage <= 0.5 + 1e-2, "usage {usage} exceeds degraded availability");

    // …and lands on the same allocation as the lossless bypass path.
    let a = lossy.allocation();
    let b = ideal.allocation();
    for (t, (la, lb)) in a.lats().iter().zip(b.lats().iter()).enumerate() {
        for (s, (x, y)) in la.iter().zip(lb.iter()).enumerate() {
            let rel = (x - y).abs() / y.abs().max(1.0);
            assert!(rel < 0.05, "task {t} subtask {s}: lossy {x} vs ideal {y} (rel {rel})");
        }
    }
    let ugap = (lossy.utility() - ideal.utility()).abs() / ideal.utility().abs().max(1.0);
    assert!(ugap < 0.02, "utility gap {ugap} between reliable-lossy and ideal paths");
}

/// Duplicated and reordered control traffic must not double-apply
/// updates: sequence-number dedup makes at-least-once delivery apply
/// exactly once, and the protocol still converges.
#[test]
fn duplication_and_reordering_do_not_break_convergence() {
    let mut dist = DistributedLla::new(
        problem(),
        DistConfig {
            network: NetworkModel::lossy(0.5, 1.0, 0.1)
                .with_duplication(0.2)
                .with_reordering(0.05, 25.0),
            seed: 29,
            ..config()
        },
    );
    dist.run_rounds(800);
    dist.set_resource_availability(ResourceId::new(0), 0.5).unwrap();
    dist.run_rounds(3_000);
    assert!(dist.runtime().messages_duplicated() > 100, "duplication must be active");

    let usage = dist.problem().resource_usage(ResourceId::new(0), dist.allocation().lats());
    assert!(usage <= 0.5 + 1e-2, "usage {usage} exceeds degraded availability");
    assert!(dist.problem().is_feasible(dist.allocation().lats(), 1e-2));
}
