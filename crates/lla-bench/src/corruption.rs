//! Corruption sweep: adversarial wire-level noise vs the validated
//! codec, A/B against a clean wire-mode run.
//!
//! Each arm runs the same comfortably schedulable deployment in wire
//! mode — every delivery encoded to a length-prefixed, CRC-checksummed
//! frame and re-decoded — under a sustained seeded corruption rate. The
//! corruptor flips bits, truncates frames, and fuzzes payload fields
//! *with a fixed checksum* (an in-path attacker, not line noise), so a
//! small fraction of forgeries decode clean and must be absorbed by the
//! dual dynamics rather than the codec.
//!
//! Invariants checked per arm, machine-verifiable from the emitted CSV:
//!
//! 1. **Accounting** — `rejected + forged-deliveries == corrupted`:
//!    every corrupted frame is either refused by the decode → validate
//!    pipeline or decoded bit-clean; nothing is silently lost.
//! 2. **No poisoning** — every price `μ_r` stays finite; a NaN or
//!    infinity in [`PriceState`](lla_core::PriceState) would mean a
//!    malformed value crossed the guardrails.
//! 3. **Re-convergence** — at every rate at or below
//!    [`RECONVERGENCE_RATE_CEILING`] the tail diagnostic verdict is
//!    `converging` and the allocation is feasible, despite the sustained
//!    corruption. Higher rates are reported but not required to settle:
//!    with enough forged-but-valid frames delivered per round, recovery
//!    is the supervisor's job (quarantine), not the codec's.

use crate::{paper_dist_config, Series};
use lla_core::{Problem, Resource, ResourceId, ResourceKind, StepSizePolicy, TaskBuilder, TaskId};
use lla_dist::{DistConfig, DistributedLla};
use lla_telemetry::{DiagnosticsEngine, Verdict};

/// Corruption rates swept, in ascending order. The first entry is the
/// clean baseline.
pub const SWEEP_RATES: [f64; 5] = [0.0, 0.005, 0.01, 0.02, 0.05];

/// Highest rate at which the unsupervised protocol is required to stay
/// converging and feasible (the paper-level robustness claim).
pub const RECONVERGENCE_RATE_CEILING: f64 = 0.02;

/// Rounds run before the tail diagnostic window is sampled.
pub const SOAK_ROUNDS: usize = 4_000;

/// Samples in the tail diagnostic window.
pub const TAIL_SAMPLES: usize = 16;

/// One corruption rate's outcome.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Corruption probability per frame.
    pub rate: f64,
    /// Frames mutated in flight.
    pub corrupted: u64,
    /// Frames refused by decode → validate.
    pub rejected: u64,
    /// Corrupted frames that decoded clean (checksum-fixed forgeries).
    pub forged_deliveries: u64,
    /// Tail diagnostic verdict.
    pub verdict: Verdict,
    /// Worst constraint-violation factor in the final sample (≤ 1 is
    /// feasible).
    pub violation: f64,
    /// Utility at the final round.
    pub utility: f64,
    /// Whether every price stayed finite.
    pub prices_finite: bool,
}

impl SweepPoint {
    /// Invariant 1: every corrupted frame is accounted for.
    pub fn accounting_holds(&self) -> bool {
        self.rejected + self.forged_deliveries == self.corrupted
    }

    /// Whether this point must re-converge (rate at or below the
    /// ceiling) and does.
    pub fn reconvergence_holds(&self) -> bool {
        self.rate > RECONVERGENCE_RATE_CEILING
            || (self.verdict == Verdict::Converging && self.violation <= 1.05)
    }

    /// All required invariants for this point.
    pub fn passes(&self) -> bool {
        self.accounting_holds() && self.prices_finite && self.reconvergence_holds()
    }
}

/// The full sweep: per-rate outcomes plus the CSV series.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One point per entry of [`SWEEP_RATES`].
    pub points: Vec<SweepPoint>,
    /// Machine-readable series (one row per rate).
    pub series: Series,
}

impl SweepReport {
    /// Whether every point passed its required invariants.
    pub fn all_pass(&self) -> bool {
        self.points.iter().all(SweepPoint::passes)
    }
}

/// Two pipelines over two CPUs with generous deadlines — schedulable
/// with slack, so the clean wire-mode run genuinely converges and every
/// degradation in the sweep is attributable to the injected corruption.
pub fn sweep_problem() -> Problem {
    let resources = vec![
        Resource::new(ResourceId::new(0), ResourceKind::Cpu).with_lag(1.0),
        Resource::new(ResourceId::new(1), ResourceKind::Cpu).with_lag(1.0),
    ];
    let mut tasks = Vec::new();
    for (i, critical) in [(0usize, 40.0), (1usize, 60.0)] {
        let mut b = TaskBuilder::new(format!("t{i}"));
        let a = b.subtask("a", ResourceId::new(0), 2.0);
        let d = b.subtask("b", ResourceId::new(1), 3.0);
        b.edge(a, d).expect("static workload");
        b.critical_time(critical);
        tasks.push(b.build(TaskId::new(i)).expect("static workload"));
    }
    Problem::new(resources, tasks).expect("static workload")
}

/// Runs one arm at the given sustained corruption rate.
pub fn run_arm(rate: f64, seed: u64) -> SweepPoint {
    let config = DistConfig {
        seed,
        wire_mode: true,
        corruption: rate,
        ..paper_dist_config(StepSizePolicy::default())
    };
    let mut dist = DistributedLla::new(sweep_problem(), config);
    dist.run_rounds(SOAK_ROUNDS);
    let mut tail = DiagnosticsEngine::new();
    for _ in 0..TAIL_SAMPLES {
        dist.run_rounds(1);
        tail.push(dist.diag_sample());
    }
    let diag = tail.diagnose();
    let sample = dist.diag_sample();
    SweepPoint {
        rate,
        corrupted: dist.frames_corrupted(),
        rejected: dist.frames_rejected(),
        forged_deliveries: dist.corrupted_delivered(),
        verdict: diag.verdict,
        violation: sample.worst_violation_factor,
        utility: dist.utility(),
        prices_finite: sample.prices.iter().all(|p| p.is_finite()),
    }
}

/// Runs the whole sweep with a fixed seed per rate (deterministic; the
/// CSV is byte-stable across runs).
pub fn run_sweep(seed: u64) -> SweepReport {
    let mut series = Series::new(&[
        "rate",
        "corrupted",
        "rejected",
        "forged_deliveries",
        "converging",
        "violation",
        "utility",
        "prices_finite",
    ]);
    let points: Vec<SweepPoint> = SWEEP_RATES.iter().map(|&rate| run_arm(rate, seed)).collect();
    for p in &points {
        series.push(vec![
            p.rate,
            p.corrupted as f64,
            p.rejected as f64,
            p.forged_deliveries as f64,
            f64::from(p.verdict == Verdict::Converging),
            p.violation,
            p.utility,
            f64::from(p.prices_finite),
        ]);
    }
    SweepReport { points, series }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_arm_converges_with_zero_corruption() {
        let p = run_arm(0.0, 7);
        assert_eq!(p.corrupted, 0);
        assert_eq!(p.rejected, 0);
        assert_eq!(p.forged_deliveries, 0);
        assert!(p.passes(), "{p:?}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_sweep(7);
        let b = run_sweep(7);
        assert_eq!(a.series.to_csv(), b.series.to_csv());
    }
}
