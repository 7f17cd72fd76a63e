//! Integration tests for the telemetry layer: health exposition from a
//! converged Table 1 run, byte-determinism of the chaos-soak event
//! stream and of the causal-trace export (both pinned against committed
//! golden files so any accidental nondeterminism or schema drift fails
//! CI), and full-stack Prometheus text-format conformance over every
//! metric the optimizer and the distributed runtime register.

use lla_bench::churn::{run_churn_soak_instrumented, ChurnConfig};
use lla_bench::run_table1_health;
use lla_core::{
    Aggregation, Optimizer, OptimizerConfig, PriceMethod, Problem, Resource, ResourceId,
    ResourceKind, TaskBuilder, TaskId,
};
use lla_dist::{DistConfig, DistTelemetry, DistributedLla, NetworkModel};
use lla_telemetry::{SpanRecorder, TelemetryHub};

/// The small-but-eventful soak used for the golden event log: a couple of
/// churn events close together, faults on, shedding on.
fn golden_config() -> ChurnConfig {
    ChurnConfig {
        seed: 2008,
        loss: 0.10,
        churn_events: 2,
        mean_gap_rounds: 25.0,
        reconverge_cap_rounds: 2_000,
        gap_tolerance: 0.05,
        with_faults: true,
        with_shedding: true,
    }
}

#[test]
fn table1_health_snapshot_reports_converged_and_feasible() {
    let (result, health) = run_table1_health(Aggregation::PathWeighted, 3_000);
    assert!(health.converged, "Table 1 run must converge");
    assert!(health.feasible, "Table 1 run must be feasible");
    assert!(health.healthy(), "snapshot must be healthy: {health}");
    assert_eq!(health.utility, result.utility, "snapshot utility mirrors the run");
    // The snapshot's KKT residuals are the optimizer's own diagnostics.
    assert!(health.max_stationarity_residual.is_finite());
    // A certified allocation is within δ = 1e-3 of every constraint (this
    // run certifies at round 370 with one resource 8.7e-4 over).
    assert!(health.max_resource_violation <= 1e-3, "resources over capacity: {health}");
    assert!(health.max_path_violation <= 1e-3, "deadlines violated: {health}");
    // Every resource row carries a live price/usage pair.
    assert!(!health.resources.is_empty());
    for r in &health.resources {
        assert!(r.usage >= 0.0 && r.usage <= r.availability + 1e-3, "resource {}: {r:?}", r.name);
    }
    let rendered = health.to_string();
    assert!(rendered.contains("health: OK"), "render: {rendered}");
}

#[test]
fn chaos_soak_event_stream_is_byte_deterministic() {
    let config = golden_config();
    let hub_a = TelemetryHub::recording();
    let report_a = run_churn_soak_instrumented(&config, &hub_a);
    let hub_b = TelemetryHub::recording();
    let report_b = run_churn_soak_instrumented(&config, &hub_b);

    let jsonl_a = hub_a.events.to_jsonl();
    let jsonl_b = hub_b.events.to_jsonl();
    assert!(!jsonl_a.is_empty(), "instrumented soak must record events");
    assert_eq!(jsonl_a, jsonl_b, "same-seed soak runs must emit identical JSONL");
    assert_eq!(report_a.series.to_csv(), report_b.series.to_csv());
}

#[test]
fn chaos_soak_event_stream_matches_golden_file() {
    let hub = TelemetryHub::recording();
    let _report = run_churn_soak_instrumented(&golden_config(), &hub);
    let jsonl = hub.events.to_jsonl();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/churn_soak_events.jsonl");
    if std::env::var_os("LLA_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &jsonl).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden file present (LLA_REGEN_GOLDEN=1 cargo test --test telemetry regenerates it)",
    );
    assert_eq!(
        jsonl, golden,
        "event stream drifted from tests/golden/churn_soak_events.jsonl; \
         if the change is intentional, regenerate the golden file"
    );
}

/// Two tasks over two CPUs — the compact deployment behind the golden
/// causal trace.
fn trace_problem() -> Problem {
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

/// One seeded, lossy, span-traced run of the compact deployment; returns
/// the Chrome `trace_event` JSON export.
fn traced_run_chrome_json() -> String {
    let hub = TelemetryHub::recording().with_spans(SpanRecorder::recording());
    let mut dist = DistributedLla::with_telemetry(
        trace_problem(),
        DistConfig {
            price_method: PriceMethod::Gradient,
            network: NetworkModel::lossy(0.5, 1.0, 0.2),
            seed: 7,
            ..DistConfig::default()
        },
        DistTelemetry::from_hub(&hub),
    );
    dist.run_rounds(12);
    hub.spans.to_chrome_json()
}

/// Same-seed runs on the virtual clock must export *byte-identical*
/// Chrome traces — spans are stamped with virtual time and recorded in
/// deterministic event order, so there is nothing wall-clock-dependent
/// to drift.
#[test]
fn causal_trace_export_is_byte_deterministic() {
    let a = traced_run_chrome_json();
    let b = traced_run_chrome_json();
    assert!(a.contains("\"traceEvents\""), "export is a Chrome trace: {a}");
    assert!(a.contains("\"name\":\"price\""), "trace must contain price deliveries");
    assert!(a.contains("\"name\":\"drop\""), "the 20% loss model must surface drop spans");
    assert_eq!(a, b, "same-seed traced runs must export identical JSON");
}

/// The committed golden trace pins the export byte-for-byte: schema
/// drift, span-order drift, or any nondeterminism fails here first.
/// Regenerate deliberately with `LLA_REGEN_GOLDEN=1 cargo test --test
/// telemetry`.
#[test]
fn causal_trace_export_matches_golden_file() {
    let json = traced_run_chrome_json();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dist_trace.json");
    if std::env::var_os("LLA_REGEN_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden file present (LLA_REGEN_GOLDEN=1 cargo test --test telemetry regenerates it)",
    );
    assert_eq!(
        json, golden,
        "causal trace drifted from tests/golden/dist_trace.json; \
         if the change is intentional, regenerate the golden file"
    );
}

/// Validates one Prometheus text-format (0.0.4) exposition: every family
/// has exactly one `# HELP` immediately followed by one `# TYPE`, names
/// are legal, every sample parses (bare or labeled — label values are
/// scanned escape-aware, so quotes/backslashes/newlines inside values
/// must be escaped per spec), label sets are unique within a family, and
/// histogram buckets are cumulative and end at `+Inf` with a matching
/// `_count` — per labeled series.
fn assert_prometheus_conformant(text: &str) {
    fn legal_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || "_:".contains(c))
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_:".contains(c))
    }

    fn legal_label_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }

    /// Splits one sample line into `(metric name, label pairs, value)`,
    /// unescaping label values with an escape-aware scan (a naive
    /// split-on-space or split-on-brace misparses values containing
    /// spaces, braces, or escaped quotes).
    fn parse_sample(line: &str) -> (&str, Vec<(String, String)>, &str) {
        let bytes = line.as_bytes();
        let name_end = bytes
            .iter()
            .position(|&b| b == b'{' || b == b' ')
            .unwrap_or_else(|| panic!("sample has no value: {line:?}"));
        let name = &line[..name_end];
        let mut labels = Vec::new();
        let mut i = name_end;
        if bytes[i] == b'{' {
            i += 1;
            loop {
                let label_start = i;
                while i < bytes.len() && bytes[i] != b'=' {
                    i += 1;
                }
                let label = &line[label_start..i];
                assert!(legal_label_name(label), "illegal label name {label:?} in {line:?}");
                i += 1; // '='
                assert_eq!(bytes.get(i), Some(&b'"'), "label value must be quoted: {line:?}");
                i += 1;
                // UTF-8 continuation bytes never collide with ASCII, so a
                // byte scan for the structural characters is safe.
                let mut value = Vec::new();
                loop {
                    match bytes.get(i) {
                        Some(b'\\') => {
                            let esc = bytes.get(i + 1);
                            match esc {
                                Some(b'\\') => value.push(b'\\'),
                                Some(b'"') => value.push(b'"'),
                                Some(b'n') => value.push(b'\n'),
                                other => panic!("illegal escape \\{other:?} in {line:?}"),
                            }
                            i += 2;
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            value.push(b);
                            i += 1;
                        }
                        None => panic!("unterminated label value in {line:?}"),
                    }
                }
                let value = String::from_utf8(value).expect("exposition is UTF-8");
                labels.push((label.to_owned(), value));
                match bytes.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => {
                        i += 1;
                        break;
                    }
                    other => panic!("expected ',' or '}}', got {other:?} in {line:?}"),
                }
            }
        }
        assert_eq!(bytes.get(i), Some(&b' '), "value must follow the series in {line:?}");
        (name, labels, &line[i + 1..])
    }

    let mut families = 0usize;
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        // Family header: HELP first ...
        let rest = line
            .strip_prefix("# HELP ")
            .unwrap_or_else(|| panic!("expected a # HELP line opening a family, got: {line:?}"));
        let (name, help) = rest.split_once(' ').expect("HELP carries name and text");
        assert!(legal_name(name), "illegal metric name {name:?}");
        assert!(!help.is_empty(), "{name}: HELP text must not be empty");
        // ... then TYPE ...
        let type_line = lines.next().expect("TYPE follows HELP");
        let rest = type_line
            .strip_prefix("# TYPE ")
            .unwrap_or_else(|| panic!("{name}: expected # TYPE, got {type_line:?}"));
        let (type_name, kind) = rest.split_once(' ').expect("TYPE carries name and kind");
        assert_eq!(type_name, name, "TYPE must name the same family as HELP");
        assert!(["counter", "gauge", "histogram"].contains(&kind), "{name}: unknown TYPE {kind:?}");
        // ... then the samples, until the next family starts.
        let mut samples = Vec::new();
        while let Some(&next) = lines.peek() {
            if next.starts_with('#') {
                break;
            }
            samples.push(lines.next().expect("peeked"));
        }
        assert!(!samples.is_empty(), "{name}: family exposes no samples");
        match kind {
            "counter" | "gauge" => {
                let mut seen: Vec<Vec<(String, String)>> = Vec::new();
                for s in &samples {
                    let (n, labels, v) = parse_sample(s);
                    assert_eq!(n, name, "{name}: sample must name its family, got {s:?}");
                    assert!(
                        labels.windows(2).all(|w| w[0].0 < w[1].0),
                        "{name}: label names must be sorted and unique, got {s:?}"
                    );
                    assert!(!seen.contains(&labels), "{name}: duplicate label set {s:?}");
                    seen.push(labels);
                    if kind == "counter" {
                        v.parse::<u64>().unwrap_or_else(|_| {
                            panic!(
                                "{name}: counter value must be a non-negative integer, got {v:?}"
                            )
                        });
                    } else {
                        assert!(
                            v.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&v),
                            "{name}: unparseable gauge value {v:?}"
                        );
                    }
                }
            }
            "histogram" => {
                // One bucket/sum/count book per labeled series: the label
                // set minus `le` identifies the series.
                #[derive(Default)]
                struct Series {
                    cumulative: Option<u64>,
                    last_le: f64,
                    saw_inf: bool,
                    sum: Option<f64>,
                    count: Option<u64>,
                }
                let mut series: Vec<(Vec<(String, String)>, Series)> = Vec::new();
                fn book(
                    series: &mut Vec<(Vec<(String, String)>, Series)>,
                    key: Vec<(String, String)>,
                ) -> usize {
                    match series.iter().position(|(k, _)| *k == key) {
                        Some(i) => i,
                        None => {
                            series.push((
                                key,
                                Series { last_le: f64::NEG_INFINITY, ..Series::default() },
                            ));
                            series.len() - 1
                        }
                    }
                }
                for s in &samples {
                    let (n, mut labels, v) = parse_sample(s);
                    if n == format!("{name}_bucket") {
                        let le_at = labels
                            .iter()
                            .position(|(k, _)| k == "le")
                            .unwrap_or_else(|| panic!("{name}: bucket without le: {s:?}"));
                        let (_, le) = labels.remove(le_at);
                        let idx = book(&mut series, labels);
                        let st = &mut series[idx].1;
                        assert!(!st.saw_inf, "{name}: no bucket may follow +Inf");
                        let c: u64 = v.parse().expect("bucket count");
                        assert!(
                            st.cumulative.is_none_or(|prev| c >= prev),
                            "{name}: bucket counts must be cumulative"
                        );
                        st.cumulative = Some(c);
                        if le == "+Inf" {
                            st.saw_inf = true;
                        } else {
                            let le: f64 = le.parse().expect("finite le bound");
                            assert!(le > st.last_le, "{name}: le bounds must increase");
                            st.last_le = le;
                        }
                    } else if n == format!("{name}_sum") {
                        let idx = book(&mut series, labels);
                        series[idx].1.sum = Some(v.parse::<f64>().expect("sum"));
                    } else if n == format!("{name}_count") {
                        let idx = book(&mut series, labels);
                        series[idx].1.count = Some(v.parse::<u64>().expect("count"));
                    } else {
                        panic!("{name}: unexpected histogram sample {s:?}");
                    }
                }
                for (key, st) in &series {
                    assert!(st.saw_inf, "{name}{key:?}: histogram must end with a +Inf bucket");
                    assert!(st.sum.is_some(), "{name}{key:?}: missing _sum");
                    assert_eq!(
                        st.count.expect("missing _count"),
                        st.cumulative.expect("buckets present"),
                        "{name}{key:?}: _count must equal the +Inf bucket"
                    );
                }
            }
            _ => unreachable!(),
        }
        families += 1;
    }
    assert!(families > 0, "exposition must not be empty");
}

/// Full-stack conformance: run the centralized optimizer *and* a lossy
/// distributed deployment against one shared registry — with the phase
/// profiler's summary gauges published alongside — then validate the
/// entire exposition: every counter, gauge, and histogram any layer
/// registers.
#[test]
fn prometheus_exposition_is_conformant_for_every_registered_metric() {
    let hub = TelemetryHub::recording();
    let mut opt = Optimizer::new(trace_problem(), OptimizerConfig::default());
    opt.attach_telemetry(&hub.metrics);
    let profiler = lla_telemetry::Profiler::recording();
    opt.attach_profiler(&profiler);
    for _ in 0..50 {
        opt.step();
    }
    let mut dist = DistributedLla::with_telemetry(
        trace_problem(),
        DistConfig {
            network: NetworkModel::lossy(0.5, 1.0, 0.2),
            seed: 7,
            report_cadence: 10.0,
            ..DistConfig::default()
        },
        DistTelemetry::from_hub(&hub),
    );
    dist.run_rounds(50);
    profiler.publish_summary(&hub.metrics);

    let text = hub.metrics.prometheus_text();
    assert!(text.contains("lla_dist_messages_sent_total"), "dist family present:\n{text}");
    assert!(
        text.contains("lla_agent_ticks_total{agent=\"controller[0]\"}"),
        "per-agent labeled series present:\n{text}"
    );
    assert!(
        text.contains("lla_fleet_ticks_total{agent="),
        "collector-merged fleet series present:\n{text}"
    );
    assert!(text.contains("# TYPE"), "typed exposition:\n{text}");
    assert!(
        text.contains("lla_profile_self_seconds_allocate"),
        "profiler self-time gauges present:\n{text}"
    );
    assert!(text.contains("lla_profile_calls_step"), "profiler call-count gauges present:\n{text}");
    assert_prometheus_conformant(&text);
    // The disabled registry exposes nothing at all — and trivially
    // conforms.
    assert_eq!(lla_telemetry::MetricsRegistry::disabled().prometheus_text(), "");
}

/// Hostile label *values* — embedded quotes, backslashes, newlines,
/// spaces, braces, commas, even a spoofed `le="…"` — must escape into a
/// conformant exposition: the registry owns the escaping, and the
/// validator's escape-aware scanner must round-trip every value.
#[test]
fn labeled_exposition_with_hostile_label_values_is_conformant() {
    let reg = lla_telemetry::MetricsRegistry::new();
    let hostile = [
        "quote\"quote",
        "back\\slash",
        "multi\nline",
        "spaced out",
        "{brace,le=\"0.5\"} 9",
        "trailing\\",
    ];
    for (i, v) in hostile.iter().enumerate() {
        reg.counter_with("lla_test_hostile_total", "hostile counter labels", &[("agent", v)])
            .add(i as u64 + 1);
        reg.gauge_with("lla_test_hostile_ms", "hostile gauge labels", &[("agent", v)])
            .set(i as f64);
    }
    reg.histogram_with(
        "lla_test_hostile_seconds",
        "hostile histogram labels",
        &[("agent", hostile[0])],
        &[0.1, 1.0],
    )
    .observe(0.5);
    let text = reg.prometheus_text();
    assert_prometheus_conformant(&text);
    assert!(text.contains(r#"agent="quote\"quote""#), "quotes escaped: {text}");
    assert!(text.contains(r#"agent="back\\slash""#), "backslashes escaped: {text}");
    assert!(text.contains(r#"agent="multi\nline""#), "newlines escaped: {text}");
    assert_eq!(text.matches('\n').count(), text.lines().count(), "no raw newline survives");
}

#[test]
fn chaos_soak_counters_match_event_stream() {
    let hub = TelemetryHub::recording();
    let report = run_churn_soak_instrumented(&golden_config(), &hub);
    let text = hub.metrics.prometheus_text();
    // Counter values surface through the Prometheus exposition.
    assert!(text.contains("lla_dist_messages_sent_total"), "metrics: {text}");
    let sheds = report.shed_slots.len() as u64;
    assert_eq!(hub.events.count_kind("shed") as u64, sheds, "shed events mirror the report");
    // Membership churn: every join/leave/evict is both counted and logged.
    let membership_events = hub.events.count_kind("task_join")
        + hub.events.count_kind("task_leave")
        + hub.events.count_kind("task_evict");
    assert!(membership_events > 0, "soak must exercise membership churn");
}
