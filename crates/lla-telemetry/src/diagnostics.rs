//! Online convergence diagnostics for the LLA price loop.
//!
//! The paper's §5 claim is that *non*-convergence is itself the
//! schedulability signal — so an operator needs more than a boolean: they
//! need to know **how** a run is failing to settle. This module consumes
//! a stream of [`DiagSample`]s (one per iteration or per distributed
//! round) and classifies the recent window as one of five [`Verdict`]s,
//! with per-resource price evidence attached:
//!
//! * `Converging` — utility flat or settling, constraints satisfied.
//! * `Oscillating` — utility ringing beyond [`OSCILLATION_BAND`] without
//!   step-size churn; typically a fixed γ chosen too large (Fig. 5's
//!   γ = 10 curve).
//! * `GammaThrash` — the adaptive heuristic repeatedly doubling and
//!   resetting step sizes (doubling density ≥ [`GAMMA_THRASH_DENSITY`])
//!   while utility rings: the congestion boundary is being straddled.
//! * `Diverging` — worst violation factor stuck at or above
//!   [`DIVERGENCE_FACTOR`] with no downward trend: the workload is
//!   overloaded (Fig. 7's regime).
//! * `Stalled` — agents frozen by staleness TTLs (partition) or prices
//!   pinned while constraints are still violated: the loop is not even
//!   trying anymore.
//!
//! The engine is data-driven — plain floats and counters in, verdict out
//! — so it sits here in `lla-telemetry`, below `lla-core`, and serves the
//! centralized optimizer, the distributed facade, and the bench/CLI
//! surfaces identically. All thresholds are documented `pub const`s;
//! classification is pure and deterministic.

use crate::events::{json_escape, json_value, Value};
use crate::fmt_f64;
use std::collections::VecDeque;
use std::fmt;

/// Default number of recent samples retained and classified.
pub const DEFAULT_WINDOW: usize = 32;

/// Below this many samples the engine reports `Converging` with
/// [`Diagnosis::confident`] set to `false` — too little evidence.
pub const MIN_SAMPLES: usize = 8;

/// Relative utility peak-to-peak (`(max − min) / max(1, |mean|)`) above
/// which a window counts as ringing.
pub const OSCILLATION_BAND: f64 = 0.01;

/// Worst violation factor at or above which a non-improving window is
/// diverging. 1.05 sits well above the feasibility tolerance (1 + 1e-3)
/// so transient overshoot does not trip it.
pub const DIVERGENCE_FACTOR: f64 = 1.05;

/// Violation-factor slope (per sample) below which a violating window
/// counts as "still improving" and is given more time before being
/// declared diverging.
pub const DIVERGENCE_SLOPE_TOL: f64 = -1e-3;

/// Gamma doubling events per sample (summed over all resources and
/// paths) at or above which step-size adaptation counts as thrashing.
pub const GAMMA_THRASH_DENSITY: f64 = 0.5;

/// Fraction of window samples with `frozen_agents > 0` at or above which
/// the run counts as stalled (partition-induced staleness freezes).
pub const STALL_FROZEN_FRACTION: f64 = 0.5;

/// Mean relative price step below which prices count as pinned; pinned
/// prices while constraints are violated is a (silent) stall.
pub const STALL_PRICE_STEP: f64 = 1e-12;

/// One observation of the loop's state, taken once per iteration
/// (centralized) or per round (distributed).
#[derive(Debug, Clone, PartialEq)]
pub struct DiagSample {
    /// Iteration or round index.
    pub iteration: u64,
    /// Aggregate utility at this sample.
    pub utility: f64,
    /// Worst constraint violation factor (usage/availability and
    /// latency/deadline maxima); ≤ 1 means feasible.
    pub worst_violation_factor: f64,
    /// Cumulative step-size growth events (`PriceState::gamma_doublings`).
    pub gamma_doublings: u64,
    /// Largest relative price movement of the most recent update.
    pub max_rel_price_step: f64,
    /// Agents currently frozen by staleness TTLs (0 when centralized).
    pub frozen_agents: u64,
    /// Per-resource prices `μ_r` (may be empty if unavailable).
    pub prices: Vec<f64>,
}

/// The classification of a window of [`DiagSample`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Settling or settled; constraints satisfied or improving.
    Converging,
    /// Utility ringing without step-size churn (γ too large).
    Oscillating,
    /// Adaptive step sizes repeatedly doubling and resetting.
    GammaThrash,
    /// Sustained constraint violation with no downward trend.
    Diverging,
    /// Frozen agents or pinned prices while infeasible.
    Stalled,
}

impl Verdict {
    /// Stable lowercase name (used in JSON and CSV surfaces).
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Converging => "converging",
            Verdict::Oscillating => "oscillating",
            Verdict::GammaThrash => "gamma-thrash",
            Verdict::Diverging => "diverging",
            Verdict::Stalled => "stalled",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-resource price evidence over the classified window.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceEvidence {
    /// Resource index.
    pub index: usize,
    /// Resource name if known (empty otherwise).
    pub name: String,
    /// Mean price over the window.
    pub mean_price: f64,
    /// Price variance over the window.
    pub price_variance: f64,
    /// Least-squares price slope per sample.
    pub price_trend: f64,
}

/// The result of classifying a window, with the statistics that drove
/// the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// The verdict for the window.
    pub verdict: Verdict,
    /// Number of samples classified.
    pub samples: usize,
    /// `false` when fewer than [`MIN_SAMPLES`] samples were available.
    pub confident: bool,
    /// Relative utility peak-to-peak over the window.
    pub utility_oscillation: f64,
    /// Worst violation factor at the latest sample.
    pub violation_factor: f64,
    /// Least-squares violation-factor slope per sample.
    pub violation_trend: f64,
    /// Gamma doubling events per sample over the window.
    pub gamma_doubling_density: f64,
    /// Mean of `max_rel_price_step` over the window.
    pub mean_price_step: f64,
    /// Fraction of samples with frozen agents.
    pub frozen_fraction: f64,
    /// Per-resource price statistics, highest variance first.
    pub evidence: Vec<ResourceEvidence>,
}

impl Diagnosis {
    /// Multi-line human rendering (the `--diagnose` / dashboard block).
    pub fn render(&self) -> String {
        let mut out = format!(
            "diagnosis: {}{}\n  samples {}  utility-osc {:.4}  violation {:.4} \
             (trend {:+.2e}/sample)\n  gamma-doublings {:.2}/sample  \
             price-step {:.2e}  frozen {:.0}%\n",
            self.verdict,
            if self.confident { "" } else { " (low confidence)" },
            self.samples,
            self.utility_oscillation,
            self.violation_factor,
            self.violation_trend,
            self.gamma_doubling_density,
            self.mean_price_step,
            self.frozen_fraction * 100.0,
        );
        for ev in &self.evidence {
            let label = if ev.name.is_empty() {
                format!("resource[{}]", ev.index)
            } else {
                ev.name.clone()
            };
            out.push_str(&format!(
                "  {label:>14}: mean price {:.4}  variance {:.3e}  trend {:+.2e}/sample\n",
                ev.mean_price, ev.price_variance, ev.price_trend
            ));
        }
        out
    }

    /// One JSON object with stable key order (non-finite floats → null).
    pub fn to_json(&self) -> String {
        let f = |v: f64| json_value(&Value::F64(v));
        let mut out = format!(
            "{{\"verdict\":\"{}\",\"samples\":{},\"confident\":{},\
             \"utility_oscillation\":{},\"violation_factor\":{},\
             \"violation_trend\":{},\"gamma_doubling_density\":{},\
             \"mean_price_step\":{},\"frozen_fraction\":{},\"evidence\":[",
            self.verdict,
            self.samples,
            self.confident,
            f(self.utility_oscillation),
            f(self.violation_factor),
            f(self.violation_trend),
            f(self.gamma_doubling_density),
            f(self.mean_price_step),
            f(self.frozen_fraction),
        );
        for (i, ev) in self.evidence.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"name\":\"{}\",\"mean_price\":{},\
                 \"price_variance\":{},\"price_trend\":{}}}",
                ev.index,
                json_escape(&ev.name),
                f(ev.mean_price),
                f(ev.price_variance),
                f(ev.price_trend),
            ));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (osc {} viol {} doublings {}/sample)",
            self.verdict,
            fmt_f64(self.utility_oscillation),
            fmt_f64(self.violation_factor),
            fmt_f64(self.gamma_doubling_density)
        )
    }
}

/// Sliding-window classifier over [`DiagSample`]s.
///
/// Push one sample per iteration/round; [`diagnose`](Self::diagnose) at
/// any point classifies the retained window. The engine holds at most
/// `window` samples, so long soaks run in constant memory.
#[derive(Debug, Clone)]
pub struct DiagnosticsEngine {
    window: usize,
    resource_names: Vec<String>,
    samples: VecDeque<DiagSample>,
}

impl Default for DiagnosticsEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DiagnosticsEngine {
    /// An engine with the [`DEFAULT_WINDOW`].
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// An engine retaining the last `window` samples (clamped to ≥ 2).
    pub fn with_window(window: usize) -> Self {
        DiagnosticsEngine {
            window: window.max(2),
            resource_names: Vec::new(),
            samples: VecDeque::new(),
        }
    }

    /// Attach resource names for the evidence listing (builder style).
    #[must_use]
    pub fn with_resource_names(mut self, names: Vec<String>) -> Self {
        self.resource_names = names;
        self
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Push one sample, evicting the oldest beyond the window.
    pub fn push(&mut self, sample: DiagSample) {
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Drop all retained samples (e.g. across a membership epoch).
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Feeds up to `max_rounds` rounds and classifies the result. Each
    /// call of `round` runs one round and returns its sample and whether
    /// the round was certified. A run that gets certified stops once the
    /// whole window lies after its first certified round, so the settling
    /// transient before the certificate does not colour the verdict.
    pub fn diagnose_run(
        &mut self,
        max_rounds: usize,
        mut round: impl FnMut() -> (DiagSample, bool),
    ) -> Diagnosis {
        let mut since_certified = None;
        for _ in 0..max_rounds {
            let (sample, certified) = round();
            self.push(sample);
            since_certified = match since_certified {
                None => certified.then_some(0),
                Some(n) => Some(n + 1),
            };
            if since_certified == Some(self.window) {
                break;
            }
        }
        self.diagnose()
    }

    /// Classify the retained window.
    ///
    /// Rules are checked in precedence order: explicit freezes (Stalled),
    /// step-size churn (GammaThrash), sustained violation (Diverging),
    /// pinned-while-infeasible (Stalled), ringing (Oscillating), else
    /// Converging. With fewer than [`MIN_SAMPLES`] samples the verdict is
    /// `Converging` with `confident: false`.
    pub fn diagnose(&self) -> Diagnosis {
        let n = self.samples.len();
        let confident = n >= MIN_SAMPLES;
        let utilities: Vec<f64> = self.samples.iter().map(|s| s.utility).collect();
        let violations: Vec<f64> = self.samples.iter().map(|s| s.worst_violation_factor).collect();
        let utility_oscillation = relative_oscillation(&utilities);
        let violation_factor = violations.last().copied().unwrap_or(0.0);
        let violation_trend = slope(&violations);
        let gamma_doubling_density = if n >= 2 {
            let first = self.samples.front().expect("n >= 2").gamma_doublings;
            let last = self.samples.back().expect("n >= 2").gamma_doublings;
            last.saturating_sub(first) as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let mean_price_step = if n == 0 {
            0.0
        } else {
            self.samples.iter().map(|s| s.max_rel_price_step).sum::<f64>() / n as f64
        };
        let frozen_fraction = if n == 0 {
            0.0
        } else {
            self.samples.iter().filter(|s| s.frozen_agents > 0).count() as f64 / n as f64
        };

        let verdict = if !confident {
            Verdict::Converging
        } else if frozen_fraction >= STALL_FROZEN_FRACTION {
            Verdict::Stalled
        } else if gamma_doubling_density >= GAMMA_THRASH_DENSITY
            && utility_oscillation >= OSCILLATION_BAND
        {
            Verdict::GammaThrash
        } else if violation_factor >= DIVERGENCE_FACTOR && violation_trend >= DIVERGENCE_SLOPE_TOL {
            Verdict::Diverging
        } else if mean_price_step <= STALL_PRICE_STEP && violation_factor > 1.0 + 1e-3 {
            Verdict::Stalled
        } else if utility_oscillation >= OSCILLATION_BAND {
            Verdict::Oscillating
        } else {
            Verdict::Converging
        };

        Diagnosis {
            verdict,
            samples: n,
            confident,
            utility_oscillation,
            violation_factor,
            violation_trend,
            gamma_doubling_density,
            mean_price_step,
            frozen_fraction,
            evidence: self.evidence(),
        }
    }

    fn evidence(&self) -> Vec<ResourceEvidence> {
        let num_resources = self.samples.iter().map(|s| s.prices.len()).min().unwrap_or(0);
        let mut out = Vec::with_capacity(num_resources);
        for r in 0..num_resources {
            let series: Vec<f64> = self.samples.iter().map(|s| s.prices[r]).collect();
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            let variance =
                series.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / series.len() as f64;
            out.push(ResourceEvidence {
                index: r,
                name: self.resource_names.get(r).cloned().unwrap_or_default(),
                mean_price: mean,
                price_variance: variance,
                price_trend: slope(&series),
            });
        }
        // Highest variance first — the noisiest price loop leads the
        // evidence. Stable order on ties (sort by index is the input).
        out.sort_by(|a, b| {
            b.price_variance.partial_cmp(&a.price_variance).unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

/// `(max − min) / max(1, |mean|)` — scale-free peak-to-peak. 0 for
/// fewer than 2 samples or any non-finite input.
fn relative_oscillation(series: &[f64]) -> f64 {
    if series.len() < 2 || series.iter().any(|v| !v.is_finite()) {
        return 0.0;
    }
    let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for &v in series {
        min = min.min(v);
        max = max.max(v);
        sum += v;
    }
    let mean = sum / series.len() as f64;
    (max - min) / mean.abs().max(1.0)
}

/// Least-squares slope per sample index; 0 for fewer than 2 samples or
/// any non-finite input.
fn slope(series: &[f64]) -> f64 {
    let n = series.len();
    if n < 2 || series.iter().any(|v| !v.is_finite()) {
        return 0.0;
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = series.iter().sum::<f64>() / nf;
    let (mut num, mut den) = (0.0, 0.0);
    for (i, &y) in series.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iteration: u64) -> DiagSample {
        DiagSample {
            iteration,
            utility: 10.0,
            worst_violation_factor: 0.9,
            gamma_doublings: 0,
            max_rel_price_step: 1e-6,
            frozen_agents: 0,
            prices: vec![1.0, 2.0],
        }
    }

    #[test]
    fn few_samples_is_low_confidence_converging() {
        let mut eng = DiagnosticsEngine::new();
        for i in 0..(MIN_SAMPLES as u64 - 1) {
            eng.push(sample(i));
        }
        let d = eng.diagnose();
        assert_eq!(d.verdict, Verdict::Converging);
        assert!(!d.confident);
    }

    #[test]
    fn flat_feasible_window_converges() {
        let mut eng = DiagnosticsEngine::new();
        for i in 0..16 {
            eng.push(sample(i));
        }
        let d = eng.diagnose();
        assert_eq!(d.verdict, Verdict::Converging);
        assert!(d.confident);
        assert_eq!(d.samples, 16);
        assert!(d.utility_oscillation < OSCILLATION_BAND);
    }

    #[test]
    fn certified_run_stops_one_window_past_the_certificate() {
        // Rounds 0..10 thrash, round 10 is the first certified one, and
        // the run stops once the window holds only rounds 11..=42.
        let mut eng = DiagnosticsEngine::with_window(32);
        let mut next = 0;
        let d = eng.diagnose_run(1_000, || {
            let mut s = sample(next);
            if next < 10 {
                s.utility = 10.0 + if next % 2 == 0 { 1.0 } else { -1.0 };
                s.gamma_doublings = 2 * next;
            } else {
                s.gamma_doublings = 20;
            }
            next += 1;
            (s, next > 10)
        });
        assert_eq!(next, 43, "rounds run");
        assert_eq!(d.samples, 32);
        assert_eq!(d.verdict, Verdict::Converging);
        // A run never certified spends its whole budget.
        let mut rounds = 0;
        DiagnosticsEngine::new().diagnose_run(50, || {
            rounds += 1;
            (sample(rounds), false)
        });
        assert_eq!(rounds, 50);
    }

    #[test]
    fn ringing_utility_without_doublings_oscillates() {
        let mut eng = DiagnosticsEngine::new();
        for i in 0..16 {
            let mut s = sample(i);
            s.utility = 10.0 + if i % 2 == 0 { 1.0 } else { -1.0 };
            eng.push(s);
        }
        assert_eq!(eng.diagnose().verdict, Verdict::Oscillating);
    }

    #[test]
    fn doubling_density_with_ringing_is_gamma_thrash() {
        let mut eng = DiagnosticsEngine::new();
        for i in 0..16 {
            let mut s = sample(i);
            s.utility = 10.0 + if i % 2 == 0 { 1.0 } else { -1.0 };
            s.gamma_doublings = 2 * i; // 2 growth events per sample
            eng.push(s);
        }
        let d = eng.diagnose();
        assert_eq!(d.verdict, Verdict::GammaThrash);
        assert!(d.gamma_doubling_density >= GAMMA_THRASH_DENSITY);
    }

    #[test]
    fn sustained_violation_without_improvement_diverges() {
        let mut eng = DiagnosticsEngine::new();
        for i in 0..16 {
            let mut s = sample(i);
            s.worst_violation_factor = 1.8;
            s.utility = 5.0;
            eng.push(s);
        }
        assert_eq!(eng.diagnose().verdict, Verdict::Diverging);
    }

    #[test]
    fn improving_violation_is_not_yet_diverging() {
        let mut eng = DiagnosticsEngine::new();
        for i in 0..16 {
            let mut s = sample(i);
            // 1.8 → 1.05, dropping 0.05/sample: clearly improving.
            s.worst_violation_factor = 1.8 - 0.05 * i as f64;
            eng.push(s);
        }
        assert_ne!(eng.diagnose().verdict, Verdict::Diverging);
    }

    #[test]
    fn frozen_agents_stall() {
        let mut eng = DiagnosticsEngine::new();
        for i in 0..16 {
            let mut s = sample(i);
            s.frozen_agents = u64::from(i >= 4); // 12/16 frozen
            eng.push(s);
        }
        let d = eng.diagnose();
        assert_eq!(d.verdict, Verdict::Stalled);
        assert!(d.frozen_fraction >= STALL_FROZEN_FRACTION);
    }

    #[test]
    fn pinned_prices_while_infeasible_stall() {
        let mut eng = DiagnosticsEngine::new();
        for i in 0..16 {
            let mut s = sample(i);
            s.worst_violation_factor = 1.02; // violating, below DIVERGENCE_FACTOR
            s.max_rel_price_step = 0.0;
            eng.push(s);
        }
        assert_eq!(eng.diagnose().verdict, Verdict::Stalled);
    }

    #[test]
    fn window_evicts_oldest_samples() {
        let mut eng = DiagnosticsEngine::with_window(4);
        for i in 0..10 {
            eng.push(sample(i));
        }
        assert_eq!(eng.len(), 4);
        let d = eng.diagnose();
        assert_eq!(d.samples, 4);
        // 4 < MIN_SAMPLES → low confidence even after 10 pushes.
        assert!(!d.confident);
        eng.clear();
        assert!(eng.is_empty());
    }

    #[test]
    fn evidence_is_sorted_by_variance_and_named() {
        let mut eng =
            DiagnosticsEngine::new().with_resource_names(vec!["cpu".to_owned(), "disk".to_owned()]);
        for i in 0..16 {
            let mut s = sample(i);
            // disk's price swings (and utility rings with it); cpu's is flat.
            s.prices = vec![1.0, if i % 2 == 0 { 5.0 } else { 1.0 }];
            s.utility = 10.0 + if i % 2 == 0 { 1.0 } else { -1.0 };
            eng.push(s);
        }
        let d = eng.diagnose();
        assert_eq!(d.evidence.len(), 2);
        assert_eq!(d.evidence[0].name, "disk");
        assert_eq!(d.evidence[0].index, 1);
        assert!(d.evidence[0].price_variance > d.evidence[1].price_variance);
        let text = d.render();
        assert!(text.contains("disk"), "{text}");
        let json = d.to_json();
        assert!(json.starts_with("{\"verdict\":\"oscillating\""), "{json}");
        assert!(json.contains("\"name\":\"disk\""), "{json}");
    }

    #[test]
    fn verdict_names_are_stable() {
        assert_eq!(Verdict::Converging.to_string(), "converging");
        assert_eq!(Verdict::Oscillating.to_string(), "oscillating");
        assert_eq!(Verdict::GammaThrash.to_string(), "gamma-thrash");
        assert_eq!(Verdict::Diverging.to_string(), "diverging");
        assert_eq!(Verdict::Stalled.to_string(), "stalled");
    }

    #[test]
    fn slope_and_oscillation_are_robust_to_non_finite() {
        assert_eq!(slope(&[1.0, f64::NAN, 2.0]), 0.0);
        assert_eq!(relative_oscillation(&[1.0, f64::INFINITY]), 0.0);
        assert_eq!(slope(&[1.0]), 0.0);
        assert!((slope(&[0.0, 1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
