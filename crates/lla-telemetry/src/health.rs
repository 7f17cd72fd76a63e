//! Health exposition: the "is it converged and feasible right now?" answer.
//!
//! [`HealthSnapshot`] is plain data — constructed by whoever owns an
//! optimizer or a distributed deployment (`lla_core::Optimizer::
//! health_snapshot`, the CLI, `lla-bench`) and rendered here as human
//! text or JSON. Keeping it data-only lets this crate stay below
//! `lla-core` in the dependency graph.

use crate::fmt_f64;
use std::fmt;
use std::fmt::Write as _;

/// Per-resource health: dual price, usage, and availability.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceHealth {
    /// Resource name (as in the problem spec).
    pub name: String,
    /// Current dual price `μ_r`.
    pub price: f64,
    /// Current usage `Σ c/l` over hosted subtasks.
    pub usage: f64,
    /// Availability bound `B_r`.
    pub availability: f64,
}

impl ResourceHealth {
    /// `usage / availability` — >1 means the resource is over-subscribed.
    pub fn utilization_factor(&self) -> f64 {
        if self.availability > 0.0 {
            self.usage / self.availability
        } else {
            f64::INFINITY
        }
    }
}

/// A point-in-time health summary of an LLA deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Has the optimizer met its convergence criterion?
    pub converged: bool,
    /// Are all resource and path constraints within tolerance?
    pub feasible: bool,
    /// Iterations (or rounds) completed so far.
    pub iteration: u64,
    /// Current aggregate utility.
    pub utility: f64,
    /// KKT residual: worst stationarity violation.
    pub max_stationarity_residual: f64,
    /// KKT residual: worst resource-capacity violation.
    pub max_resource_violation: f64,
    /// KKT residual: worst path-deadline violation.
    pub max_path_violation: f64,
    /// KKT residual: worst complementary-slackness violation.
    pub max_complementary_slackness: f64,
    /// Worst constraint-violation *factor* across resources
    /// (`usage/B_r`) and paths (`latency/C_i`); ≤1 means feasible.
    pub worst_violation_factor: f64,
    /// Per-resource price + usage.
    pub resources: Vec<ResourceHealth>,
    /// Tasks shed by the overload governor so far.
    pub shed_count: u64,
    /// Membership changes (joins/leaves/evictions) applied so far.
    pub membership_changes: u64,
    /// Failovers (crash → checkpoint restore) observed so far.
    pub failovers: u64,
}

/// Largest [`HealthSnapshot::worst_violation_factor`] a snapshot may
/// report and still count as [`healthy`](HealthSnapshot::healthy).
///
/// A factor of 1 means a constraint is exactly tight; the extra 1e-3
/// mirrors the optimizer's feasibility tolerance (the constant
/// `FEASIBILITY_TOL` = 1e-3 in `lla-core`), so "healthy" and "feasible"
/// agree at the boundary instead of flapping on float noise.
pub const HEALTHY_MAX_VIOLATION_FACTOR: f64 = 1.001;

impl HealthSnapshot {
    /// Healthy means converged, feasible, *and* the reported worst
    /// violation factor within [`HEALTHY_MAX_VIOLATION_FACTOR`] — the
    /// factor guard catches a snapshot whose feasibility bit was computed
    /// against different (or stale) tolerances upstream.
    pub fn healthy(&self) -> bool {
        self.converged
            && self.feasible
            && self.worst_violation_factor <= HEALTHY_MAX_VIOLATION_FACTOR
    }

    /// One JSON object (stable field order).
    pub fn to_json(&self) -> String {
        fn jf(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_owned()
            }
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"converged\": {},", self.converged);
        let _ = writeln!(out, "  \"feasible\": {},", self.feasible);
        let _ = writeln!(out, "  \"healthy\": {},", self.healthy());
        let _ = writeln!(out, "  \"iteration\": {},", self.iteration);
        let _ = writeln!(out, "  \"utility\": {},", jf(self.utility));
        let _ = writeln!(
            out,
            "  \"kkt\": {{\"stationarity\": {}, \"resource_violation\": {}, \
             \"path_violation\": {}, \"complementary_slackness\": {}}},",
            jf(self.max_stationarity_residual),
            jf(self.max_resource_violation),
            jf(self.max_path_violation),
            jf(self.max_complementary_slackness)
        );
        let _ = writeln!(out, "  \"worst_violation_factor\": {},", jf(self.worst_violation_factor));
        let _ = writeln!(out, "  \"resources\": [");
        for (i, r) in self.resources.iter().enumerate() {
            let comma = if i + 1 < self.resources.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"price\": {}, \"usage\": {}, \
                 \"availability\": {}}}{comma}",
                r.name,
                jf(r.price),
                jf(r.usage),
                jf(r.availability)
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"shed_count\": {},", self.shed_count);
        let _ = writeln!(out, "  \"membership_changes\": {},", self.membership_changes);
        let _ = writeln!(out, "  \"failovers\": {}", self.failovers);
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for HealthSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "health: {} (converged={}, feasible={}) at iteration {}",
            if self.healthy() { "OK" } else { "DEGRADED" },
            self.converged,
            self.feasible,
            self.iteration
        )?;
        writeln!(f, "utility: {}", fmt_f64(self.utility))?;
        writeln!(
            f,
            "kkt residuals: stationarity={:.3e} resource={:.3e} path={:.3e} \
             compl-slack={:.3e}",
            self.max_stationarity_residual,
            self.max_resource_violation,
            self.max_path_violation,
            self.max_complementary_slackness
        )?;
        writeln!(f, "worst violation factor: {:.4}", self.worst_violation_factor)?;
        for r in &self.resources {
            writeln!(
                f,
                "  resource {:<12} price={:>10.4} usage={:>8.4}/{:<8.4} ({:.1}%)",
                r.name,
                r.price,
                r.usage,
                r.availability,
                100.0 * r.utilization_factor()
            )?;
        }
        write!(
            f,
            "counts: shed={} membership={} failovers={}",
            self.shed_count, self.membership_changes, self.failovers
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> HealthSnapshot {
        HealthSnapshot {
            converged: true,
            feasible: true,
            iteration: 42,
            utility: 3.5,
            max_stationarity_residual: 1e-7,
            max_resource_violation: 0.0,
            max_path_violation: 0.0,
            max_complementary_slackness: 2e-8,
            worst_violation_factor: 0.97,
            resources: vec![ResourceHealth {
                name: "cpu0".into(),
                price: 1.25,
                usage: 0.9,
                availability: 1.0,
            }],
            shed_count: 1,
            membership_changes: 3,
            failovers: 0,
        }
    }

    #[test]
    fn healthy_requires_converged_and_feasible() {
        let mut s = snapshot();
        assert!(s.healthy());
        s.feasible = false;
        assert!(!s.healthy());
        s.feasible = true;
        s.converged = false;
        assert!(!s.healthy());
    }

    #[test]
    fn healthy_violation_factor_boundary() {
        let mut s = snapshot();
        // Exactly at the documented threshold: still healthy (inclusive).
        s.worst_violation_factor = HEALTHY_MAX_VIOLATION_FACTOR;
        assert!(s.healthy());
        // The smallest representable step above it: degraded, even with
        // the converged/feasible bits set.
        s.worst_violation_factor = HEALTHY_MAX_VIOLATION_FACTOR.next_up();
        assert!(!s.healthy());
        // Exactly tight constraints (factor 1.0) are healthy.
        s.worst_violation_factor = 1.0;
        assert!(s.healthy());
        // NaN must never pass a health check.
        s.worst_violation_factor = f64::NAN;
        assert!(!s.healthy());
    }

    #[test]
    fn json_contains_all_sections() {
        let j = snapshot().to_json();
        for key in ["\"converged\": true", "\"kkt\"", "\"resources\"", "\"shed_count\": 1", "cpu0"]
        {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn utilization_factor_handles_zero_availability() {
        let r = ResourceHealth { name: "x".into(), price: 0.0, usage: 1.0, availability: 0.0 };
        assert_eq!(r.utilization_factor(), f64::INFINITY);
    }
}
