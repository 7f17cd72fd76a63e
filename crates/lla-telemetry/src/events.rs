//! Structured runtime events and the JSONL event log.
//!
//! An [`Event`] is a timestamp, a static kind, and an ordered list of
//! typed fields. Inside `lla-dist` the timestamp is the *virtual* clock,
//! so a chaos soak with a fixed seed produces a byte-identical JSONL log
//! on every run — the event stream doubles as a correctness oracle (see
//! the golden-file test in `tests/telemetry.rs`).

use crate::fmt_f64;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, slots, epochs).
    U64(u64),
    /// Float (times, utilities, prices).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free text (addresses, notes).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{}", fmt_f64(*v)),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn json_value(v: &Value) -> String {
    match v {
        Value::U64(v) => format!("{v}"),
        Value::F64(v) if v.is_finite() => format!("{v}"),
        Value::F64(_) => "null".to_owned(),
        Value::Bool(v) => format!("{v}"),
        Value::Str(v) => format!("\"{}\"", json_escape(v)),
    }
}

/// One structured event: a timestamp (virtual or wall clock — the emitter
/// decides, and `lla-dist` always uses virtual time), a static kind, and
/// ordered fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Timestamp in the emitter's clock domain.
    pub time: f64,
    /// Event kind, e.g. `"crash"`, `"task_join"`, `"shed"`.
    pub kind: &'static str,
    /// Ordered key/value fields; order is preserved in exposition.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new event with no fields.
    pub fn new(time: f64, kind: &'static str) -> Self {
        Event { time, kind, fields: Vec::new() }
    }

    /// Append a field (builder style).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// One JSON object, e.g.
    /// `{"t":125.5,"kind":"crash","addr":"controller:0"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"t\":");
        out.push_str(&json_value(&Value::F64(self.time)));
        out.push_str(",\"kind\":\"");
        out.push_str(&json_escape(self.kind));
        out.push('"');
        for (k, v) in &self.fields {
            out.push_str(",\"");
            out.push_str(&json_escape(k));
            out.push_str("\":");
            out.push_str(&json_value(v));
        }
        out.push('}');
        out
    }

    /// Human-oriented single line, e.g.
    /// `[    125.500] crash addr=controller:0`.
    pub fn render_line(&self) -> String {
        let mut out = format!("[{:>11.3}] {}", self.time, self.kind);
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        out
    }
}

#[derive(Debug)]
struct LogState {
    events: Vec<Event>,
    /// Maximum retained events (`None` = unbounded append).
    capacity: Option<usize>,
    /// Accept one event in every `stride` emissions.
    stride: u64,
    /// Total events offered via `emit` (kept or not).
    seen: u64,
}

impl LogState {
    /// What every reader of a disabled log sees.
    const EMPTY: LogState = LogState { events: Vec::new(), capacity: None, stride: 1, seen: 0 };
}

/// A shared, append-only event log. Cloning shares the buffer. A disabled
/// log holds no buffer (building and cloning it allocate nothing) and
/// drops every event at a branch; an echoing log additionally renders
/// each event to stderr as it arrives (used by the `lla-bench` bins to
/// keep human progress off stdout).
///
/// A [`bounded`](Self::bounded) log keeps at most `capacity` events by
/// the same stride-doubling downsampling as `lla-core`'s bounded
/// `Trace`: when the buffer fills, every other event is dropped and the
/// sampling stride doubles, so the kept events always span the whole run
/// at uniform (power-of-two) spacing, oldest first.
#[derive(Debug, Clone)]
pub struct EventLog {
    echo_stderr: bool,
    /// The shared buffer (`None` when disabled).
    state: Option<Arc<Mutex<LogState>>>,
}

impl EventLog {
    fn with_capacity(capacity: Option<usize>) -> Self {
        EventLog {
            echo_stderr: false,
            state: Some(Arc::new(Mutex::new(LogState {
                capacity: capacity.map(|c| c.max(2)),
                ..LogState::EMPTY
            }))),
        }
    }

    /// A log that records events without bound.
    pub fn recording() -> Self {
        EventLog::with_capacity(None)
    }

    /// A log keeping at most `capacity` events (clamped to ≥ 2) by
    /// stride-doubling downsampling.
    pub fn bounded(capacity: usize) -> Self {
        EventLog::with_capacity(Some(capacity))
    }

    /// A log that drops everything.
    pub fn disabled() -> Self {
        EventLog { echo_stderr: false, state: None }
    }

    /// Runs `read` on the buffer (an empty one when disabled).
    fn read<R>(&self, read: impl FnOnce(&LogState) -> R) -> R {
        match &self.state {
            Some(state) => read(&state.lock().expect("event log poisoned")),
            None => read(&LogState::EMPTY),
        }
    }

    /// Also render each recorded event to stderr as it arrives.
    #[must_use]
    pub fn with_stderr_echo(mut self) -> Self {
        self.echo_stderr = true;
        self
    }

    /// Whether this log records anything.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// The capacity this log was created with (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.read(|s| s.capacity)
    }

    /// The current downsampling stride: one in every `stride` emitted
    /// events is retained (always 1 for an unbounded log).
    pub fn stride(&self) -> u64 {
        self.read(|s| s.stride)
    }

    /// Total events offered to [`emit`](Self::emit), including ones the
    /// downsampler dropped (0 for a disabled log).
    pub fn seen(&self) -> u64 {
        self.read(|s| s.seen)
    }

    /// Record one event (no-op when disabled). Bounded logs keep it only
    /// on the current stride, and compact (drop every other event,
    /// double the stride) when full.
    pub fn emit(&self, event: Event) {
        let Some(state) = &self.state else { return };
        if self.echo_stderr {
            eprintln!("{}", event.render_line());
        }
        let mut state = state.lock().expect("event log poisoned");
        let keep = state.seen.is_multiple_of(state.stride);
        state.seen += 1;
        if !keep {
            return;
        }
        state.events.push(event);
        if let Some(cap) = state.capacity {
            if state.events.len() >= cap {
                // Keep indices 0, 2, 4, … — the survivors are exactly
                // the events aligned to the doubled stride.
                let mut i = 0;
                state.events.retain(|_| {
                    let keep = i % 2 == 0;
                    i += 1;
                    keep
                });
                state.stride *= 2;
            }
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.read(|s| s.events.len())
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of recorded events of the given kind.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.read(|s| s.events.iter().filter(|e| e.kind == kind).count())
    }

    /// A clone of the recorded events, in emission order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.read(|s| s.events.clone())
    }

    /// The whole log as JSONL: one `Event::to_json` object per line. For
    /// virtual-clock events this rendering is byte-deterministic given
    /// the same seed.
    pub fn to_jsonl(&self) -> String {
        self.read(|state| {
            let mut out = String::new();
            for e in state.events.iter() {
                out.push_str(&e.to_json());
                out.push('\n');
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_preserves_field_order_and_escapes() {
        let e = Event::new(12.5, "note")
            .with("slot", 3usize)
            .with("text", "a \"quoted\"\nline")
            .with("ok", true)
            .with("gap", 0.125);
        assert_eq!(
            e.to_json(),
            "{\"t\":12.5,\"kind\":\"note\",\"slot\":3,\
             \"text\":\"a \\\"quoted\\\"\\nline\",\"ok\":true,\"gap\":0.125}"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null_json() {
        let e = Event::new(0.0, "x").with("v", f64::INFINITY);
        assert!(e.to_json().contains("\"v\":null"));
    }

    #[test]
    fn log_records_in_order_and_disabled_log_drops() {
        let log = EventLog::recording();
        log.emit(Event::new(1.0, "a"));
        log.emit(Event::new(2.0, "b").with("n", 7u64));
        assert_eq!(log.len(), 2);
        assert_eq!(log.count_kind("a"), 1);
        assert_eq!(log.to_jsonl(), "{\"t\":1,\"kind\":\"a\"}\n{\"t\":2,\"kind\":\"b\",\"n\":7}\n");

        let off = EventLog::disabled();
        off.emit(Event::new(1.0, "a"));
        assert!(off.is_empty());
        assert_eq!(off.to_jsonl(), "");
    }

    #[test]
    fn clones_share_the_buffer() {
        let log = EventLog::recording();
        let other = log.clone();
        other.emit(Event::new(1.0, "shared"));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn bounded_log_wraparound_boundary_compacts_and_doubles_stride() {
        let log = EventLog::bounded(8);
        assert_eq!(log.capacity(), Some(8));
        // One below capacity: nothing compacted yet.
        for i in 0..7u64 {
            log.emit(Event::new(i as f64, "e").with("i", i));
        }
        assert_eq!(log.len(), 7);
        assert_eq!(log.stride(), 1);
        // The 8th emission is the wraparound boundary: the buffer fills,
        // every other event is dropped, and the stride doubles.
        log.emit(Event::new(7.0, "e").with("i", 7u64));
        assert_eq!(log.len(), 4, "compaction halves the buffer");
        assert_eq!(log.stride(), 2);
        assert_eq!(log.seen(), 8);
        let kept: Vec<u64> = log
            .snapshot()
            .iter()
            .map(|e| match e.field("i") {
                Some(Value::U64(v)) => *v,
                other => panic!("unexpected field {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![0, 2, 4, 6], "survivors align to the doubled stride");
    }

    #[test]
    fn bounded_log_keeps_oldest_first_order_across_many_wraps() {
        let log = EventLog::bounded(16);
        for i in 0..1000u64 {
            log.emit(Event::new(i as f64, "e").with("i", i));
            assert!(log.len() <= 16, "len {} exceeded capacity at emit {i}", log.len());
        }
        assert_eq!(log.seen(), 1000);
        assert!(log.stride() >= 64, "stride {} too small", log.stride());
        let kept: Vec<u64> = log
            .snapshot()
            .iter()
            .map(|e| match e.field("i") {
                Some(Value::U64(v)) => *v,
                other => panic!("unexpected field {other:?}"),
            })
            .collect();
        assert_eq!(kept[0], 0, "the first event always survives");
        assert!(*kept.last().unwrap() >= 1000 - 2 * log.stride());
        for w in kept.windows(2) {
            assert_eq!(w[1] - w[0], log.stride(), "non-uniform spacing: {kept:?}");
        }
    }

    #[test]
    fn bounded_capacity_is_clamped_to_two() {
        let log = EventLog::bounded(0);
        assert_eq!(log.capacity(), Some(2));
        for i in 0..10u64 {
            log.emit(Event::new(i as f64, "e"));
        }
        assert!(log.len() <= 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn unbounded_log_never_strides() {
        let log = EventLog::recording();
        for i in 0..100u64 {
            log.emit(Event::new(i as f64, "e"));
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.stride(), 1);
        assert_eq!(log.seen(), 100);
        assert_eq!(log.capacity(), None);
    }

    #[test]
    fn render_line_covers_every_value_variant() {
        let e = Event::new(125.5, "crash")
            .with("count", 3u64)
            .with("gap", 0.125)
            .with("frozen", true)
            .with("addr", "controller[0]");
        assert_eq!(
            e.render_line(),
            "[    125.500] crash count=3 gap=0.125 frozen=true addr=controller[0]"
        );
        // Non-finite floats render with the Prometheus spellings.
        let inf = Event::new(0.0, "x").with("v", f64::INFINITY).with("w", f64::NEG_INFINITY);
        assert_eq!(inf.render_line(), "[      0.000] x v=+Inf w=-Inf");
    }
}
