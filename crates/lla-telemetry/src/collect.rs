//! Fleet telemetry collection: per-agent metric scopes, delta-encoded
//! watermarked reports, and a loss/dup/reorder-tolerant collector.
//!
//! A distributed deployment has no shared memory: each agent owns a small
//! [`AgentScope`] of counters (labeled series in a [`MetricsRegistry`],
//! keyed by an `agent` label) and periodically drains the *deltas* since
//! its last report into a [`TelemetryReport`] stamped with a virtual-clock
//! watermark. A [`TelemetryCollector`] on the other side of a lossy
//! network merges reports into a deterministic fleet view:
//!
//! * **Seq dedupe** — reports carry a per-agent sequence number starting
//!   at 1; a duplicate delivery is counted `stale` and never re-merged.
//! * **Reorder/loss tolerance** — a gap in the sequence provisionally
//!   counts the skipped reports as `lost` and remembers them as *holes*;
//!   a late report filling a hole is merged (counter deltas are additive,
//!   so order does not matter) and un-counted from `lost`. Holes beyond
//!   [`MAX_REORDER_HORIZON`] stay lost for good (bounded memory).
//! * **Watermark monotonicity** — each agent's watermark only advances;
//!   a merged report with an older watermark is counted in
//!   `watermark_regressions` instead of rewinding the clock. The fleet
//!   watermark is the minimum over agents: everything before it has been
//!   accounted for on every reporting agent.
//!
//! At quiescence (no reports in flight, no holes evicted) the accounting
//! identity `merged + lost == emitted` holds per agent, and
//! `merged + stale == deliveries` holds unconditionally — every emitted
//! report and every delivered frame lands in exactly one bucket.

use crate::fmt_f64;
use crate::registry::{Counter, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

/// One slot in the fleet metric dictionary, shared verbatim between the
/// reporting agents and the collector — reports carry slot indices, not
/// names, so the wire format stays tiny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Base name; exposed as `lla_agent_{name}_total` on the agent side
    /// and `lla_fleet_{name}_total` in the collector's fleet export.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
}

/// How many un-merged sequence holes the collector remembers per agent
/// before the oldest is declared permanently lost (bounded buffers).
pub const MAX_REORDER_HORIZON: usize = 64;

/// An agent's scoped counter set: one labeled counter series per
/// dictionary slot, all carrying this agent's `agent` label. A scope on a
/// disabled registry keeps no label and no series — building it formats
/// nothing and allocates nothing — and its slots read 0, so scopes can be
/// threaded unconditionally.
#[derive(Debug, Clone)]
pub struct AgentScope {
    /// The `agent` label (empty on a disabled registry).
    agent: String,
    /// One series per dictionary slot (none on a disabled registry).
    counters: Vec<Counter>,
    /// The dictionary's length.
    slots: usize,
}

impl AgentScope {
    /// Registers this agent's labeled series for every dictionary slot.
    /// The label is rendered only when `registry` is enabled.
    pub fn new(
        registry: &MetricsRegistry,
        agent: impl fmt::Display,
        dictionary: &[MetricDef],
    ) -> Self {
        let slots = dictionary.len();
        if !registry.is_enabled() {
            return AgentScope { agent: String::new(), counters: Vec::new(), slots };
        }
        let agent = agent.to_string();
        let counters = dictionary
            .iter()
            .map(|def| {
                registry.counter_with(
                    &format!("lla_agent_{}_total", def.name),
                    def.help,
                    &[("agent", &agent)],
                )
            })
            .collect();
        AgentScope { agent, counters, slots }
    }

    /// The agent label this scope is keyed by (empty on a disabled
    /// registry).
    pub fn agent(&self) -> &str {
        &self.agent
    }

    /// Increment slot `slot` by one.
    pub fn inc(&self, slot: usize) {
        self.add(slot, 1);
    }

    /// Increment slot `slot` by `n` (a no-op on a disabled registry).
    pub fn add(&self, slot: usize, n: u64) {
        if !self.counters.is_empty() {
            self.counters[slot].add(n);
        }
    }

    /// Current value of every slot, in dictionary order (all 0 on a
    /// disabled registry).
    pub fn totals(&self) -> Vec<u64> {
        (0..self.slots).map(|slot| self.counters.get(slot).map_or(0, Counter::get)).collect()
    }
}

/// One delta-encoded, watermarked telemetry report.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// The reporting agent's label.
    pub agent: String,
    /// Per-agent sequence number, starting at 1 and never reused.
    pub seq: u64,
    /// Virtual-clock time this report covers through: every scope update
    /// up to this instant is reflected in the cumulative deltas shipped
    /// so far.
    pub watermark: f64,
    /// `(dictionary slot, delta since the previous report)` pairs, slots
    /// strictly increasing; zero deltas are omitted.
    pub deltas: Vec<(usize, u64)>,
}

/// Agent-side shipping state: tracks what has already been reported so
/// each drain emits only deltas.
#[derive(Debug, Clone)]
pub struct DeltaTracker {
    seq: u64,
    shipped: Vec<u64>,
}

impl DeltaTracker {
    /// A tracker for a scope with `slots` dictionary slots.
    pub fn new(slots: usize) -> Self {
        DeltaTracker { seq: 0, shipped: vec![0; slots] }
    }

    /// Number of reports drained so far (== the last emitted `seq`).
    pub fn emitted(&self) -> u64 {
        self.seq
    }

    /// Drains the deltas accumulated in `scope` since the last drain into
    /// a report watermarked at `watermark`. Always emits (advancing the
    /// sequence) so the collector's watermark keeps moving through idle
    /// periods.
    pub fn drain(&mut self, scope: &AgentScope, watermark: f64) -> TelemetryReport {
        self.seq += 1;
        let totals = scope.totals();
        let mut deltas = Vec::new();
        for (slot, (&total, shipped)) in totals.iter().zip(self.shipped.iter_mut()).enumerate() {
            if total > *shipped {
                deltas.push((slot, total - *shipped));
                *shipped = total;
            }
        }
        TelemetryReport { agent: scope.agent().to_owned(), seq: self.seq, watermark, deltas }
    }
}

/// What [`TelemetryCollector::ingest`] did with a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// In-order (or ahead-of-order) merge; any skipped sequence numbers
    /// were provisionally counted lost.
    Merged,
    /// A late report that filled a sequence hole: merged, and un-counted
    /// from `lost`.
    MergedLate,
    /// A duplicate (or beyond-horizon late) report: dropped, counted
    /// `stale`.
    Stale,
}

/// The collector's view of one reporting agent.
#[derive(Debug, Clone)]
pub struct AgentView {
    last_seq: u64,
    holes: BTreeSet<u64>,
    watermark: f64,
    totals: Vec<u64>,
}

impl AgentView {
    fn new(slots: usize) -> Self {
        AgentView {
            last_seq: 0,
            holes: BTreeSet::new(),
            watermark: f64::NEG_INFINITY,
            totals: vec![0; slots],
        }
    }

    /// Highest sequence number merged from this agent.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Sequence numbers below `last_seq` still awaited (counted lost
    /// until they arrive).
    pub fn holes(&self) -> usize {
        self.holes.len()
    }

    /// This agent's watermark, if any report has been merged.
    pub fn watermark(&self) -> Option<f64> {
        (self.watermark != f64::NEG_INFINITY).then_some(self.watermark)
    }

    /// Merged total for one dictionary slot.
    pub fn total(&self, slot: usize) -> u64 {
        self.totals[slot]
    }
}

/// Merges [`TelemetryReport`]s into a deterministic fleet view. See the
/// module docs for the tolerance and accounting semantics.
#[derive(Debug, Clone)]
pub struct TelemetryCollector {
    dictionary: Vec<MetricDef>,
    agents: BTreeMap<String, AgentView>,
    merged: u64,
    stale: u64,
    lost: u64,
    watermark_regressions: u64,
}

impl TelemetryCollector {
    /// A collector over the given metric dictionary.
    pub fn new(dictionary: &[MetricDef]) -> Self {
        TelemetryCollector {
            dictionary: dictionary.to_vec(),
            agents: BTreeMap::new(),
            merged: 0,
            stale: 0,
            lost: 0,
            watermark_regressions: 0,
        }
    }

    /// The metric dictionary this collector was built over.
    pub fn dictionary(&self) -> &[MetricDef] {
        &self.dictionary
    }

    /// Merge one report. Deltas for out-of-dictionary slots are ignored
    /// (a newer reporter shipping slots this collector does not know).
    pub fn ingest(&mut self, report: &TelemetryReport) -> IngestOutcome {
        let slots = self.dictionary.len();
        let view = self.agents.entry(report.agent.clone()).or_insert_with(|| AgentView::new(slots));
        if report.seq == 0 || report.seq <= view.last_seq && !view.holes.contains(&report.seq) {
            // Duplicate of a merged report, or late beyond the horizon.
            self.stale += 1;
            return IngestOutcome::Stale;
        }
        let late = report.seq <= view.last_seq;
        if late {
            view.holes.remove(&report.seq);
            // It was provisionally lost; it made it after all.
            self.lost -= 1;
        } else {
            for missing in view.last_seq + 1..report.seq {
                view.holes.insert(missing);
                self.lost += 1;
            }
            // Bounded memory: forget the oldest holes — they stay lost,
            // and should they arrive anyway they count stale.
            while view.holes.len() > MAX_REORDER_HORIZON {
                view.holes.pop_first();
            }
            view.last_seq = report.seq;
        }
        for &(slot, delta) in &report.deltas {
            if slot < slots {
                view.totals[slot] += delta;
            }
        }
        // Monotonicity: the watermark never rewinds. A late report's
        // older watermark is expected and not a regression; a *newer*
        // sequence carrying an older watermark is.
        if report.watermark >= view.watermark {
            view.watermark = report.watermark;
        } else if !late {
            self.watermark_regressions += 1;
        }
        self.merged += 1;
        if late {
            IngestOutcome::MergedLate
        } else {
            IngestOutcome::Merged
        }
    }

    /// Labels of every agent that has ever reported, sorted.
    pub fn agent_labels(&self) -> Vec<&str> {
        self.agents.keys().map(String::as_str).collect()
    }

    /// The view of one agent.
    pub fn agent(&self, label: &str) -> Option<&AgentView> {
        self.agents.get(label)
    }

    /// Fleet-aggregate total for one dictionary slot (sum over agents).
    pub fn fleet_total(&self, slot: usize) -> u64 {
        self.agents.values().map(|v| v.totals[slot]).sum()
    }

    /// The fleet watermark: the minimum per-agent watermark — everything
    /// before it is reflected on every reporting agent. `None` until
    /// every known agent has merged at least one report.
    pub fn fleet_watermark(&self) -> Option<f64> {
        let mut min = f64::INFINITY;
        for view in self.agents.values() {
            min = min.min(view.watermark()?);
        }
        (min != f64::INFINITY).then_some(min)
    }

    /// Reports merged (including late hole-fills).
    pub fn reports_merged(&self) -> u64 {
        self.merged
    }

    /// Duplicate/beyond-horizon deliveries dropped.
    pub fn reports_stale(&self) -> u64 {
        self.stale
    }

    /// Reports currently presumed lost (holes plus evicted holes).
    pub fn reports_lost(&self) -> u64 {
        self.lost
    }

    /// Merged reports whose watermark would have rewound an agent's clock.
    pub fn watermark_regressions(&self) -> u64 {
        self.watermark_regressions
    }

    /// The value the SLO engine evaluates: an agent's (or, with `None`,
    /// the fleet-aggregate) total for the named dictionary metric.
    pub fn metric_value(&self, metric: &str, agent: Option<&str>) -> Option<f64> {
        let slot = self.dictionary.iter().position(|d| d.name == metric)?;
        match agent {
            Some(label) => Some(self.agents.get(label)?.totals[slot] as f64),
            None => Some(self.fleet_total(slot) as f64),
        }
    }

    /// A deterministic fixed-width fleet table: one row per agent, a
    /// fleet-aggregate row, and the report accounting line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{:<18} {:>12} {:>6}", "agent", "watermark", "seq");
        for def in &self.dictionary {
            let _ = write!(out, " {:>14}", def.name);
        }
        out.push('\n');
        for (label, view) in &self.agents {
            let wm = view.watermark().map_or("-".to_owned(), fmt_f64);
            let _ = write!(out, "{label:<18} {wm:>12} {:>6}", view.last_seq);
            for slot in 0..self.dictionary.len() {
                let _ = write!(out, " {:>14}", view.totals[slot]);
            }
            out.push('\n');
        }
        let wm = self.fleet_watermark().map_or("-".to_owned(), fmt_f64);
        let _ = write!(out, "{:<18} {wm:>12} {:>6}", format!("fleet ({})", self.agents.len()), "-");
        for slot in 0..self.dictionary.len() {
            let _ = write!(out, " {:>14}", self.fleet_total(slot));
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "reports: merged={} stale={} lost={} watermark_regressions={}",
            self.merged, self.stale, self.lost, self.watermark_regressions
        );
        out
    }

    /// Publishes the fleet view into a registry as `agent`-labeled
    /// `lla_fleet_*` series plus the `lla_telemetry_reports_*` accounting
    /// family. Idempotent: repeated exports top counters up to the
    /// current totals.
    pub fn export_into(&self, registry: &MetricsRegistry) {
        for (label, view) in &self.agents {
            let labels = [("agent", label.as_str())];
            for (slot, def) in self.dictionary.iter().enumerate() {
                let c = registry.counter_with(
                    &format!("lla_fleet_{}_total", def.name),
                    def.help,
                    &labels,
                );
                c.add(view.totals[slot].saturating_sub(c.get()));
            }
            registry
                .gauge_with(
                    "lla_fleet_watermark_ms",
                    "per-agent telemetry watermark (virtual ms)",
                    &labels,
                )
                .set(view.watermark().unwrap_or(0.0));
        }
        for (name, help, value) in [
            ("lla_telemetry_reports_merged_total", "telemetry reports merged", self.merged),
            (
                "lla_telemetry_reports_stale_total",
                "duplicate telemetry reports dropped",
                self.stale,
            ),
            ("lla_telemetry_reports_lost_total", "telemetry reports presumed lost", self.lost),
            (
                "lla_telemetry_watermark_regressions_total",
                "merged reports that would have rewound a watermark",
                self.watermark_regressions,
            ),
        ] {
            let c = registry.counter(name, help);
            c.add(value.saturating_sub(c.get()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DICT: &[MetricDef] = &[
        MetricDef { name: "ticks", help: "ticks" },
        MetricDef { name: "updates", help: "updates" },
    ];

    fn report(agent: &str, seq: u64, watermark: f64, deltas: &[(usize, u64)]) -> TelemetryReport {
        TelemetryReport { agent: agent.into(), seq, watermark, deltas: deltas.to_vec() }
    }

    #[test]
    fn scope_drain_emits_only_deltas_and_always_advances_seq() {
        let reg = MetricsRegistry::new();
        let scope = AgentScope::new(&reg, "resource[0]", DICT);
        let mut tracker = DeltaTracker::new(DICT.len());
        scope.inc(0);
        scope.add(1, 3);
        let r1 = tracker.drain(&scope, 10.0);
        assert_eq!(r1.seq, 1);
        assert_eq!(r1.deltas, vec![(0, 1), (1, 3)]);
        // Nothing new: empty deltas, but seq and watermark still advance.
        let r2 = tracker.drain(&scope, 20.0);
        assert_eq!((r2.seq, r2.watermark), (2, 20.0));
        assert!(r2.deltas.is_empty());
        scope.inc(1);
        assert_eq!(tracker.drain(&scope, 30.0).deltas, vec![(1, 1)]);
        assert_eq!(tracker.emitted(), 3);
    }

    #[test]
    fn scope_on_a_disabled_registry_keeps_nothing_and_reads_zero() {
        let scope = AgentScope::new(&MetricsRegistry::disabled(), "resource[0]", DICT);
        scope.inc(0);
        scope.add(1, 3);
        assert_eq!(scope.agent(), "", "no label is rendered");
        assert_eq!(scope.clone().totals(), vec![0, 0]);
        let report = DeltaTracker::new(DICT.len()).drain(&scope, 10.0);
        assert!(report.deltas.is_empty());
    }

    #[test]
    fn in_order_reports_merge_exactly_once() {
        let mut col = TelemetryCollector::new(DICT);
        assert_eq!(col.ingest(&report("a", 1, 10.0, &[(0, 2)])), IngestOutcome::Merged);
        assert_eq!(col.ingest(&report("a", 2, 20.0, &[(0, 1), (1, 5)])), IngestOutcome::Merged);
        let view = col.agent("a").unwrap();
        assert_eq!((view.total(0), view.total(1)), (3, 5));
        assert_eq!(view.watermark(), Some(20.0));
        assert_eq!((col.reports_merged(), col.reports_stale(), col.reports_lost()), (2, 0, 0));
    }

    #[test]
    fn duplicates_are_stale_and_never_double_merge() {
        let mut col = TelemetryCollector::new(DICT);
        let r = report("a", 1, 10.0, &[(0, 2)]);
        col.ingest(&r);
        assert_eq!(col.ingest(&r), IngestOutcome::Stale);
        assert_eq!(col.agent("a").unwrap().total(0), 2);
        assert_eq!((col.reports_merged(), col.reports_stale()), (1, 1));
    }

    #[test]
    fn gaps_count_lost_and_late_fills_reclaim_them() {
        let mut col = TelemetryCollector::new(DICT);
        col.ingest(&report("a", 1, 10.0, &[(0, 1)]));
        // seq 2 and 3 skipped: provisionally lost.
        assert_eq!(col.ingest(&report("a", 4, 40.0, &[(0, 1)])), IngestOutcome::Merged);
        assert_eq!(col.reports_lost(), 2);
        assert_eq!(col.agent("a").unwrap().holes(), 2);
        // seq 2 arrives late: merged, reclaimed from lost, watermark holds.
        assert_eq!(col.ingest(&report("a", 2, 20.0, &[(1, 7)])), IngestOutcome::MergedLate);
        assert_eq!(col.reports_lost(), 1);
        assert_eq!(col.agent("a").unwrap().total(1), 7);
        assert_eq!(col.agent("a").unwrap().watermark(), Some(40.0));
        assert_eq!(col.watermark_regressions(), 0);
        // A second copy of the late report is now a duplicate.
        assert_eq!(col.ingest(&report("a", 2, 20.0, &[(1, 7)])), IngestOutcome::Stale);
        // merged + lost accounts for the 4 emitted; merged + stale for the 4 delivered
        // (seq 1, seq 4, seq 2, and the duplicate copy of seq 2).
        assert_eq!(col.reports_merged() + col.reports_lost(), 4);
        assert_eq!(col.reports_merged() + col.reports_stale(), 4);
    }

    #[test]
    fn watermark_never_rewinds_and_regressions_are_counted() {
        let mut col = TelemetryCollector::new(DICT);
        col.ingest(&report("a", 1, 50.0, &[]));
        // Newer seq with an older watermark: merged, clock holds, flagged.
        col.ingest(&report("a", 2, 30.0, &[]));
        assert_eq!(col.agent("a").unwrap().watermark(), Some(50.0));
        assert_eq!(col.watermark_regressions(), 1);
    }

    #[test]
    fn holes_beyond_the_horizon_stay_lost() {
        let mut col = TelemetryCollector::new(DICT);
        col.ingest(&report("a", 1, 1.0, &[]));
        // Skip far past the horizon: seq 2..=HORIZON+2 all missing.
        let far = MAX_REORDER_HORIZON as u64 + 3;
        col.ingest(&report("a", far, far as f64, &[]));
        assert_eq!(col.reports_lost(), far - 2);
        assert_eq!(col.agent("a").unwrap().holes(), MAX_REORDER_HORIZON);
        // seq 2 was evicted from the hole set: it arrives but counts stale.
        assert_eq!(col.ingest(&report("a", 2, 2.0, &[])), IngestOutcome::Stale);
        assert_eq!(col.reports_lost(), far - 2);
    }

    #[test]
    fn fleet_watermark_is_the_minimum_over_agents() {
        let mut col = TelemetryCollector::new(DICT);
        col.ingest(&report("a", 1, 30.0, &[(0, 1)]));
        assert_eq!(col.fleet_watermark(), Some(30.0));
        col.ingest(&report("b", 1, 10.0, &[(0, 2)]));
        assert_eq!(col.fleet_watermark(), Some(10.0));
        assert_eq!(col.fleet_total(0), 3);
        assert_eq!(col.metric_value("ticks", None), Some(3.0));
        assert_eq!(col.metric_value("ticks", Some("a")), Some(1.0));
        assert_eq!(col.metric_value("nope", None), None);
    }

    #[test]
    fn export_into_is_idempotent_and_labeled() {
        let mut col = TelemetryCollector::new(DICT);
        col.ingest(&report("resource[0]", 1, 10.0, &[(0, 4)]));
        let reg = MetricsRegistry::new();
        col.export_into(&reg);
        col.export_into(&reg);
        let text = reg.prometheus_text();
        assert!(text.contains("lla_fleet_ticks_total{agent=\"resource[0]\"} 4"), "{text}");
        assert!(text.contains("lla_fleet_watermark_ms{agent=\"resource[0]\"} 10"), "{text}");
        assert!(text.contains("lla_telemetry_reports_merged_total 1"), "{text}");
    }

    #[test]
    fn render_table_is_deterministic() {
        let mut col = TelemetryCollector::new(DICT);
        col.ingest(&report("b", 1, 20.0, &[(1, 2)]));
        col.ingest(&report("a", 1, 10.0, &[(0, 1)]));
        let t1 = col.render_table();
        let t2 = col.render_table();
        assert_eq!(t1, t2);
        // Agents render in sorted order.
        assert!(t1.find("a ").unwrap() < t1.find("b ").unwrap(), "{t1}");
        assert!(t1.contains("reports: merged=2 stale=0 lost=0"), "{t1}");
    }
}
