//! Metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are registered once by
//! name and then cloned freely; updates touch only atomics, never the
//! registry lock, so agents and the optimizer hot path can increment
//! without contention. A handle obtained from a disabled registry keeps
//! the same API but holds nothing: its shared cell is `None`, so building,
//! cloning and dropping it allocate nothing and touch no atomic, and every
//! update is one branch.

use crate::fmt_f64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    /// The series' shared cell (`None` when disabled).
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A free-standing no-op counter (not attached to any registry).
    pub fn disabled() -> Self {
        Counter { cell: None }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (always 0 for a disabled counter).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge {
    /// The series' shared cell (`None` when disabled).
    bits: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A free-standing no-op gauge.
    pub fn disabled() -> Self {
        Gauge { bits: None }
    }

    /// Set the gauge.
    pub fn set(&self, v: f64) {
        if let Some(bits) = &self.bits {
            bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (always 0.0 for a disabled gauge).
    pub fn get(&self) -> f64 {
        self.bits.as_ref().map_or(0.0, |bits| f64::from_bits(bits.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite upper bounds, strictly increasing; an implicit `+Inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    /// One count per bound plus the overflow bucket (non-cumulative).
    buckets: Vec<AtomicU64>,
    /// Sum of observed values, accumulated as bits via compare-exchange.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram. Bucket bounds are set at registration and
/// never change; observation is two atomic ops plus a compare-exchange
/// loop for the running sum.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// The series' shared buckets (`None` when disabled: no finite bucket,
    /// nothing observed).
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(bounds.iter().all(|b| b.is_finite()), "histogram bounds must be finite");
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Some(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets,
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            })),
        }
    }

    /// A free-standing no-op histogram with no finite buckets.
    pub fn disabled() -> Self {
        Histogram { core: None }
    }

    /// Record one observation. Values equal to a bound land in that
    /// bound's bucket (Prometheus `le` semantics); values above every
    /// bound land in the implicit `+Inf` bucket.
    pub fn observe(&self, v: f64) {
        let Some(core) = &self.core else { return };
        let idx = core.bounds.iter().position(|&b| v <= b).unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core.as_ref().map_or(0, |core| core.count.load(Ordering::Relaxed))
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.core.as_ref().map_or(0.0, |core| f64::from_bits(core.sum_bits.load(Ordering::Relaxed)))
    }

    /// The finite upper bounds this histogram was registered with.
    pub fn bounds(&self) -> &[f64] {
        self.core.as_ref().map_or(&[], |core| &core.bounds)
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the implicit
    /// `+Inf` overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        match &self.core {
            Some(core) => core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            None => vec![0],
        }
    }
}

#[derive(Debug, Clone)]
enum MetricKind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl MetricKind {
    fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter(_) => "counter",
            MetricKind::Gauge(_) => "gauge",
            MetricKind::Histogram(_) => "histogram",
        }
    }
}

/// One metric *family*: a `# HELP`/`# TYPE` header plus one series per
/// label set. The unlabeled series uses the empty label key; all series
/// in a family share one metric kind.
#[derive(Debug, Clone)]
struct Metric {
    help: &'static str,
    series: BTreeMap<String, MetricKind>,
}

/// Renders a label set as its canonical exposition key: pairs sorted by
/// label name, values escaped, joined as `a="x",b="y"`. The empty slice
/// renders as the empty string (the unlabeled series).
///
/// # Panics
///
/// Panics on an invalid label name (must match `[a-zA-Z_][a-zA-Z0-9_]*`),
/// a duplicate label name, or the reserved histogram label `le` — label
/// names come from code, so these are programming errors.
fn render_label_key(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    for (i, (name, _)) in pairs.iter().enumerate() {
        let mut chars = name.chars();
        let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
        assert!(head_ok && tail_ok, "invalid label name {name:?}");
        assert!(*name != "le", "label name \"le\" is reserved for histogram buckets");
        assert!(i == 0 || pairs[i - 1].0 != *name, "duplicate label name {name:?}");
    }
    let mut out = String::new();
    for (i, (name, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{name}=\"{}\"", escape_label_value(value));
    }
    out
}

/// Joins a series' label key with an extra pair (used to splice `le` into
/// histogram bucket lines).
fn join_label_keys(key: &str, extra: &str) -> String {
    if key.is_empty() {
        extra.to_owned()
    } else {
        format!("{key},{extra}")
    }
}

/// The registry: a name → metric table behind a mutex that is touched
/// only at registration and exposition time, never on update.
///
/// Cloning shares the underlying table; `MetricsRegistry::disabled()`
/// holds no table, hands out no-op handles without formatting or
/// recording a series name, and renders an empty exposition.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    /// The shared family table (`None` when disabled).
    table: Option<Arc<Mutex<BTreeMap<String, Metric>>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A live registry.
    pub fn new() -> Self {
        MetricsRegistry { table: Some(Arc::new(Mutex::new(BTreeMap::new()))) }
    }

    /// A registry whose handles are all no-ops.
    pub fn disabled() -> Self {
        MetricsRegistry { table: None }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.table.is_some()
    }

    /// Registers (or looks up) a series in `name`'s family, creating the
    /// family on first registration. All series in a family must share
    /// one metric kind. `None` on a disabled registry, which formats
    /// nothing.
    fn series(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> MetricKind,
    ) -> Option<MetricKind> {
        let table = self.table.as_ref()?;
        let key = render_label_key(labels);
        let mut table = table.lock().expect("metrics registry poisoned");
        let family = table
            .entry(name.to_owned())
            .or_insert_with(|| Metric { help, series: BTreeMap::new() });
        if let Some(existing) = family.series.values().next() {
            let existing = existing.type_name();
            let entry = family.series.entry(key).or_insert_with(make);
            assert!(
                entry.type_name() == existing,
                "metric {name:?} already registered with a different kind"
            );
            Some(entry.clone())
        } else {
            Some(family.series.entry(key).or_insert_with(make).clone())
        }
    }

    /// Register (or look up) a counter. Re-registering the same name
    /// returns a handle to the same cell; re-registering under a
    /// different metric kind panics.
    pub fn counter(&self, name: &str, help: &'static str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a labeled counter series. The same
    /// `(name, labels)` pair shares one cell; label order is irrelevant
    /// (pairs are canonicalized by label name).
    pub fn counter_with(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, || {
            MetricKind::Counter(Counter { cell: Some(Arc::new(AtomicU64::new(0))) })
        }) {
            None => Counter::disabled(),
            Some(MetricKind::Counter(c)) => c,
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &'static str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a labeled gauge series.
    pub fn gauge_with(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, || {
            MetricKind::Gauge(Gauge { bits: Some(Arc::new(AtomicU64::new(0f64.to_bits()))) })
        }) {
            None => Gauge::disabled(),
            Some(MetricKind::Gauge(g)) => g,
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Register (or look up) a histogram with the given finite, strictly
    /// increasing bucket bounds. A later registration under the same name
    /// returns the original handle (its bounds win).
    pub fn histogram(&self, name: &str, help: &'static str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, &[], bounds)
    }

    /// Register (or look up) a labeled histogram series.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self
            .series(name, help, labels, || MetricKind::Histogram(Histogram::with_bounds(bounds)))
        {
            None => Histogram::disabled(),
            Some(MetricKind::Histogram(h)) => h,
            Some(_) => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Prometheus text exposition (version 0.0.4). Metric families are
    /// sorted by name, so the output is deterministic for a given set of
    /// values. `# HELP` text and label values are escaped per the
    /// text-format spec ([`escape_help`], [`escape_label_value`]).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let Some(table) = &self.table else { return out };
        let table = table.lock().expect("metrics registry poisoned");
        for (name, metric) in table.iter() {
            let Some(first) = metric.series.values().next() else { continue };
            let _ = writeln!(out, "# HELP {name} {}", escape_help(metric.help));
            let _ = writeln!(out, "# TYPE {name} {}", first.type_name());
            for (key, series) in metric.series.iter() {
                // The unlabeled series renders bare; labeled series carry
                // their canonical `{a="x",b="y"}` key.
                let braced = if key.is_empty() { String::new() } else { format!("{{{key}}}") };
                match series {
                    MetricKind::Counter(c) => {
                        let _ = writeln!(out, "{name}{braced} {}", c.get());
                    }
                    MetricKind::Gauge(g) => {
                        let _ = writeln!(out, "{name}{braced} {}", fmt_f64(g.get()));
                    }
                    MetricKind::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (bound, c) in h.bounds().iter().zip(&counts) {
                            cumulative += c;
                            let le = format!("le=\"{}\"", escape_label_value(&fmt_f64(*bound)));
                            let _ = writeln!(
                                out,
                                "{name}_bucket{{{}}} {cumulative}",
                                join_label_keys(key, &le)
                            );
                        }
                        cumulative += counts.last().copied().unwrap_or(0);
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{{}}} {cumulative}",
                            join_label_keys(key, "le=\"+Inf\"")
                        );
                        let _ = writeln!(out, "{name}_sum{braced} {}", fmt_f64(h.sum()));
                        let _ = writeln!(out, "{name}_count{braced} {}", h.count());
                    }
                }
            }
        }
        out
    }
}

/// Escape `# HELP` text per the Prometheus text-format spec (version
/// 0.0.4): backslash → `\\`, line feed → `\n`. Help text lives to the
/// end of its comment line, so these are the only two escapes defined.
pub fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a label value per the Prometheus text-format spec: backslash →
/// `\\`, double quote → `\"`, line feed → `\n`. The built-in `le` values
/// never need escaping, but exposition applies this unconditionally so
/// any future label stays spec-conformant.
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_disabled_counter_does_not() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("lla_test_total", "test counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // A second registration under the same name shares the cell.
        let c2 = reg.counter("lla_test_total", "test counter");
        c2.inc();
        assert_eq!(c.get(), 6);

        let off = MetricsRegistry::disabled().counter("lla_test_total", "x");
        off.inc();
        assert_eq!(off.get(), 0);
    }

    #[test]
    fn disabled_handles_read_zero_and_enabled_clones_share_one_cell() {
        let (c, g, h) = (Counter::disabled(), Gauge::disabled(), Histogram::disabled());
        c.inc();
        c.add(3);
        g.set(2.5);
        h.observe(1.0);
        assert_eq!(c.clone().get(), 0);
        assert_eq!(g.clone().get(), 0.0);
        assert_eq!((h.count(), h.sum(), h.bucket_counts()), (0, 0.0, vec![0]));
        assert!(h.bounds().is_empty());
        let off = MetricsRegistry::disabled();
        off.counter_with("lla_off_total", "off", &[("agent", "a")]).inc();
        assert!(!off.clone().is_enabled());
        assert_eq!(off.prometheus_text(), "", "a disabled registry records no series");

        let reg = MetricsRegistry::new();
        let c = reg.counter("lla_shared_total", "shared");
        let twin = c.clone();
        twin.add(2);
        c.inc();
        assert_eq!((c.get(), twin.get()), (3, 3));
        let g = reg.gauge("lla_shared_gauge", "shared");
        g.clone().set(-1.5);
        assert_eq!(g.get(), -1.5);
        let h = reg.histogram("lla_shared_seconds", "shared", &[1.0]);
        h.clone().observe(0.5);
        assert_eq!(h.bucket_counts(), vec![1, 0]);
        assert!(reg.clone().prometheus_text().contains("lla_shared_total 3\n"));
    }

    #[test]
    fn gauge_stores_last_value() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("lla_test_gauge", "test gauge");
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
        let off = MetricsRegistry::disabled().gauge("x", "x");
        off.set(9.0);
        assert_eq!(off.get(), 0.0);
    }

    #[test]
    fn histogram_bucket_boundaries_follow_le_semantics() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lla_test_seconds", "test histogram", &[0.1, 1.0, 10.0]);
        // Exactly on a bound → that bucket (le is inclusive).
        h.observe(0.1);
        // Strictly inside a bucket.
        h.observe(0.5);
        // Upper finite bound.
        h.observe(10.0);
        // Above every bound → overflow bucket.
        h.observe(11.0);
        // Below the first bound.
        h.observe(0.0);
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 21.6).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_exposes_zero_counts() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lla_empty_seconds", "empty histogram", &[1.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.bucket_counts(), vec![0, 0]);
        let text = reg.prometheus_text();
        assert!(text.contains("lla_empty_seconds_bucket{le=\"1\"} 0"));
        assert!(text.contains("lla_empty_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("lla_empty_seconds_count 0"));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("lla_bad", "bad", &[1.0, 0.5]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("lla_same_name", "a");
        let _ = reg.gauge("lla_same_name", "b");
    }

    #[test]
    fn prometheus_text_is_sorted_and_cumulative() {
        let reg = MetricsRegistry::new();
        reg.counter("lla_b_total", "second").add(2);
        reg.gauge("lla_a_gauge", "first").set(0.5);
        let h = reg.histogram("lla_c_seconds", "third", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(99.0);
        let text = reg.prometheus_text();
        let a = text.find("lla_a_gauge").unwrap();
        let b = text.find("lla_b_total").unwrap();
        let c = text.find("lla_c_seconds").unwrap();
        assert!(a < b && b < c, "families must be name-sorted");
        assert!(text.contains("lla_c_seconds_bucket{le=\"1\"} 1"));
        assert!(text.contains("lla_c_seconds_bucket{le=\"2\"} 2"));
        assert!(text.contains("lla_c_seconds_bucket{le=\"+Inf\"} 3"));
        // Deterministic: a second render is byte-identical.
        assert_eq!(text, reg.prometheus_text());
    }

    #[test]
    fn help_text_is_escaped_per_spec() {
        let reg = MetricsRegistry::new();
        reg.counter("lla_weird_total", "line one\nline two with a \\ backslash").inc();
        let text = reg.prometheus_text();
        assert!(
            text.contains("# HELP lla_weird_total line one\\nline two with a \\\\ backslash"),
            "{text}"
        );
        // The embedded newline must not have split the HELP comment.
        assert_eq!(text.lines().count(), 3, "HELP, TYPE, and one sample: {text}");
    }

    #[test]
    fn labeled_series_share_a_family_and_render_canonically() {
        let reg = MetricsRegistry::new();
        reg.counter("lla_l_total", "labeled").add(1);
        reg.counter_with("lla_l_total", "labeled", &[("agent", "resource[0]")]).add(2);
        // Label order is canonicalized: (b, a) and (a, b) share one cell.
        let c1 = reg.counter_with("lla_l_total", "labeled", &[("b", "2"), ("a", "1")]);
        let c2 = reg.counter_with("lla_l_total", "labeled", &[("a", "1"), ("b", "2")]);
        c1.add(3);
        c2.add(4);
        assert_eq!(c1.get(), 7);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE lla_l_total counter"));
        assert_eq!(text.matches("# TYPE lla_l_total").count(), 1, "one header per family");
        assert!(text.contains("lla_l_total 1\n"));
        assert!(text.contains("lla_l_total{agent=\"resource[0]\"} 2"));
        assert!(text.contains("lla_l_total{a=\"1\",b=\"2\"} 7"));
    }

    #[test]
    fn labeled_histogram_splices_le_after_series_labels() {
        let reg = MetricsRegistry::new();
        let h =
            reg.histogram_with("lla_lh_seconds", "labeled histogram", &[("shard", "3")], &[1.0]);
        h.observe(0.5);
        h.observe(2.0);
        let text = reg.prometheus_text();
        assert!(text.contains("lla_lh_seconds_bucket{shard=\"3\",le=\"1\"} 1"), "{text}");
        assert!(text.contains("lla_lh_seconds_bucket{shard=\"3\",le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("lla_lh_seconds_sum{shard=\"3\"} 2.5"), "{text}");
        assert!(text.contains("lla_lh_seconds_count{shard=\"3\"} 2"), "{text}");
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter_with("lla_h_total", "hostile", &[("agent", "a\\b\"c\nd")]).inc();
        let text = reg.prometheus_text();
        assert!(text.contains("lla_h_total{agent=\"a\\\\b\\\"c\\nd\"} 1"), "{text}");
        // The raw newline must not have leaked into the exposition.
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn labeled_kind_mismatch_within_a_family_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter_with("lla_mix", "a", &[("agent", "x")]);
        let _ = reg.gauge_with("lla_mix", "a", &[("agent", "y")]);
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn invalid_label_names_are_rejected() {
        let _ = render_label_key(&[("0bad", "v")]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_name_is_reserved() {
        let _ = render_label_key(&[("le", "v")]);
    }

    #[test]
    fn escape_functions_cover_the_spec_cases() {
        assert_eq!(escape_help("plain"), "plain");
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        // HELP text does not escape quotes — label values do.
        assert_eq!(escape_help("say \"hi\""), "say \"hi\"");
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }
}
