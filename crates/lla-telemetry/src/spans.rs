//! Causal spans on the virtual clock: trace recording, Chrome
//! `trace_event` export, and per-round critical-path extraction.
//!
//! A [`Span`] is an interval `[start, end]` on the emitter's clock with a
//! trace id and a parent span id, so one price-dissemination chain —
//! tick → message delivery → handling → ack — reads as a single causal
//! tree. Inside `lla-dist` every timestamp is the *virtual* clock and
//! span/trace ids come from deterministic counters, so a seeded run
//! produces a byte-identical Chrome trace JSON on every execution (pinned
//! by a golden file in `tests/telemetry.rs`).
//!
//! Recording follows the same no-op-when-disabled handle pattern as
//! [`MetricsRegistry`](crate::MetricsRegistry): a
//! [`SpanRecorder::disabled()`] drops every span at a branch and hands
//! back [`TraceCtx::NONE`], so instrumented code threads the recorder
//! unconditionally. Recording never sends messages, never draws
//! randomness, and never touches algorithm floats — the passivity
//! invariant the lla-dist identity tests assert.

use crate::events::{json_escape, json_value, Value};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Causal context propagated alongside (never inside) protocol messages:
/// the trace a span belongs to and the parent span id for its children.
///
/// `TraceCtx` is an envelope-level companion — `lla-dist` carries it next
/// to each queued delivery rather than widening `Message`, so the wire
/// protocol, message equality, and message counts are untouched by
/// tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Trace id; `0` means "no trace" (recording disabled or root).
    pub trace: u64,
    /// Parent span id for children; `0` means "no parent".
    pub span: u64,
}

impl TraceCtx {
    /// The absent context: new spans recorded under it open a new trace.
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0 };

    /// Whether this context carries no trace.
    pub fn is_none(&self) -> bool {
        self.trace == 0
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the recorder (ids start at 1).
    pub id: u64,
    /// Trace this span belongs to (trace ids start at 1).
    pub trace: u64,
    /// Parent span id, `0` for a trace root.
    pub parent: u64,
    /// Static name, e.g. `"tick"`, `"price"`, `"drop"`.
    pub name: &'static str,
    /// Index into [`SpanRecorder::track_names`] — the rendering lane,
    /// usually the address of the agent the span executes on.
    pub track: usize,
    /// Start time in the emitter's clock domain (virtual ms in lla-dist).
    pub start: f64,
    /// End time; `end == start` marks an instant span.
    pub end: f64,
    /// Ordered key/value fields; order is preserved in exposition.
    pub fields: Vec<(&'static str, Value)>,
}

impl Span {
    /// The span's duration (`end - start`).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug, Default)]
struct SpanStore {
    spans: Vec<Span>,
    tracks: Vec<String>,
    next_trace: u64,
}

impl SpanStore {
    fn intern(&mut self, track: &str) -> usize {
        if let Some(i) = self.tracks.iter().position(|t| t == track) {
            return i;
        }
        self.tracks.push(track.to_owned());
        self.tracks.len() - 1
    }
}

/// A shared span recorder. Cloning shares the buffer; a disabled recorder
/// holds no buffer (building and cloning it allocate nothing), drops
/// every span at a branch and returns [`TraceCtx::NONE`], so instrumented
/// code needs no `Option` plumbing.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    /// The shared store (`None` when disabled).
    core: Option<Arc<Mutex<SpanStore>>>,
}

impl SpanRecorder {
    /// A recorder that records spans.
    pub fn recording() -> Self {
        SpanRecorder { core: Some(Arc::new(Mutex::new(SpanStore::default()))) }
    }

    /// A recorder whose every operation is a no-op.
    pub fn disabled() -> Self {
        SpanRecorder { core: None }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Runs `read` on the store (an empty one when disabled).
    fn read<R>(&self, read: impl FnOnce(&SpanStore) -> R) -> R {
        match &self.core {
            Some(core) => read(&core.lock().expect("span store poisoned")),
            None => read(&SpanStore::default()),
        }
    }

    /// Record a span and return the context its children should use.
    ///
    /// If `parent` carries no trace a fresh trace id is allocated and the
    /// span becomes that trace's root. Disabled recorders return
    /// [`TraceCtx::NONE`] without recording.
    pub fn span(
        &self,
        name: &'static str,
        track: &str,
        start: f64,
        end: f64,
        parent: TraceCtx,
    ) -> TraceCtx {
        self.span_with(name, track, start, end, parent, Vec::new())
    }

    /// [`span`](Self::span) with attached fields.
    pub fn span_with(
        &self,
        name: &'static str,
        track: &str,
        start: f64,
        end: f64,
        parent: TraceCtx,
        fields: Vec<(&'static str, Value)>,
    ) -> TraceCtx {
        let Some(core) = &self.core else { return TraceCtx::NONE };
        let mut store = core.lock().expect("span store poisoned");
        let trace = if parent.trace == 0 {
            store.next_trace += 1;
            store.next_trace
        } else {
            parent.trace
        };
        let id = store.spans.len() as u64 + 1;
        let track = store.intern(track);
        store.spans.push(Span { id, trace, parent: parent.span, name, track, start, end, fields });
        TraceCtx { trace, span: id }
    }

    /// Record an instant span (`end == start`).
    pub fn instant(&self, name: &'static str, track: &str, at: f64, parent: TraceCtx) -> TraceCtx {
        self.span(name, track, at, at, parent)
    }

    /// [`instant`](Self::instant) with attached fields.
    pub fn instant_with(
        &self,
        name: &'static str,
        track: &str,
        at: f64,
        parent: TraceCtx,
        fields: Vec<(&'static str, Value)>,
    ) -> TraceCtx {
        self.span_with(name, track, at, at, parent, fields)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.read(|store| store.spans.len())
    }

    /// Whether the recorder holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A clone of the recorded spans, in record order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.read(|store| store.spans.clone())
    }

    /// Track names in interning order; [`Span::track`] indexes this list.
    pub fn track_names(&self) -> Vec<String> {
        self.read(|store| store.tracks.clone())
    }

    /// Distinct trace ids in first-seen order.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.read(|store| {
            let mut out: Vec<u64> = Vec::new();
            for s in &store.spans {
                if !out.contains(&s.trace) {
                    out.push(s.trace);
                }
            }
            out
        })
    }

    /// Export every span as Chrome `trace_event` JSON, loadable in
    /// Perfetto or `chrome://tracing`.
    ///
    /// Tracks become threads (one `thread_name` metadata event per track),
    /// spans become `"ph":"X"` complete events with microsecond
    /// timestamps (`virtual ms × 1000`). Output is byte-deterministic for
    /// a given recording: one event per line, record order preserved.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        self.write_chrome_events(&mut out, &mut first);
        out.push_str("\n]}\n");
        out
    }

    /// [`to_chrome_json`](Self::to_chrome_json) with the frames of a
    /// profiler snapshot merged in as a second process (`pid` 2, track
    /// "profiler"): each scope node becomes one `"ph":"X"` event whose
    /// microsecond duration is its inclusive time and whose start is laid
    /// out depth-first — children nest inside their parent and siblings
    /// abut — so the aggregate tree renders as a flamegraph alongside the
    /// virtual-clock spans.
    pub fn to_chrome_json_with_profile(&self, profile: &crate::profile::ProfileSnapshot) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        self.write_chrome_events(&mut out, &mut first);
        if !profile.is_empty() {
            push_event_sep(&mut out, &mut first);
            out.push_str(
                "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"thread_name\",\
                 \"args\":{\"name\":\"profiler\"}}",
            );
            // (start µs, consumed µs) per open ancestor; frames arrive in
            // depth-first order so a stack reconstructs the layout.
            let mut stack: Vec<(f64, f64)> = Vec::new();
            let mut root_cursor = 0.0_f64;
            for f in &profile.frames {
                stack.truncate(f.depth);
                let total_us = f.total_ns as f64 / 1_000.0;
                let start = match stack.last_mut() {
                    Some((parent_start, consumed)) => {
                        let start = *parent_start + *consumed;
                        *consumed += total_us;
                        start
                    }
                    None => {
                        let start = root_cursor;
                        root_cursor += total_us;
                        start
                    }
                };
                stack.push((start, 0.0));
                push_event_sep(&mut out, &mut first);
                out.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":{},\"dur\":{},\"name\":\"{}\",\
                     \"args\":{{\"calls\":{},\"self_ns\":{}}}}}",
                    json_value(&Value::F64(start)),
                    json_value(&Value::F64(total_us)),
                    json_escape(&f.path),
                    f.calls,
                    f.self_ns
                ));
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the track-metadata and span events shared by both Chrome
    /// exporters (byte-identical to the historical single-process form).
    fn write_chrome_events(&self, out: &mut String, first: &mut bool) {
        let Some(core) = &self.core else { return };
        let store = core.lock().expect("span store poisoned");
        for (tid, name) in store.tracks.iter().enumerate() {
            push_event_sep(out, first);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ));
        }
        for s in &store.spans {
            push_event_sep(out, first);
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\
                 \"args\":{{\"trace\":{},\"span\":{}",
                s.track,
                json_value(&Value::F64(s.start * 1_000.0)),
                json_value(&Value::F64(s.duration() * 1_000.0)),
                json_escape(s.name),
                s.trace,
                s.id,
            ));
            if s.parent != 0 {
                out.push_str(&format!(",\"parent\":{}", s.parent));
            }
            for (k, v) in &s.fields {
                out.push_str(&format!(",\"{}\":{}", json_escape(k), json_value(v)));
            }
            out.push_str("}}");
        }
    }

    /// The critical path of one trace: the root-to-leaf parent chain
    /// ending at the trace's latest-ending span (earliest-recorded span
    /// wins ties). Empty if the trace id is unknown.
    pub fn critical_path(&self, trace: u64) -> Vec<PathStep> {
        self.read(|store| critical_chain(store, trace))
    }

    /// Group traces into rounds of `round_length` by their root span's
    /// start time and report, per round, the chain that gated it: the
    /// critical path of the trace with the latest span end in the round.
    ///
    /// The `gating_track` is the track of the longest step on that chain —
    /// for the distributed runtime, the resource/controller whose inbound
    /// link delay dominated the round.
    ///
    /// # Panics
    ///
    /// Panics if `round_length` is not strictly positive.
    pub fn round_critical_paths(&self, round_length: f64) -> Vec<RoundCriticalPath> {
        assert!(round_length > 0.0, "round_length must be positive");
        let Some(core) = &self.core else { return Vec::new() };
        let store = core.lock().expect("span store poisoned");
        // Per trace: the round of its root and its latest span end.
        let mut traces: Vec<(u64, u64, f64)> = Vec::new(); // (trace, round, latest_end)
        for s in &store.spans {
            if s.parent == 0 {
                traces.push(((s.trace), (s.start / round_length).floor() as u64, f64::MIN));
            }
        }
        for s in &store.spans {
            if let Some(t) = traces.iter_mut().find(|(trace, _, _)| *trace == s.trace) {
                if s.end > t.2 {
                    t.2 = s.end;
                }
            }
        }
        let mut rounds: Vec<u64> = traces.iter().map(|&(_, round, _)| round).collect();
        rounds.sort_unstable();
        rounds.dedup();
        let mut out = Vec::with_capacity(rounds.len());
        for round in rounds {
            let mut gating: Option<(u64, f64)> = None;
            for &(trace, r, end) in &traces {
                if r == round && gating.is_none_or(|(_, best)| end > best) {
                    gating = Some((trace, end));
                }
            }
            let (trace, end) = gating.expect("round has at least one trace");
            let chain = critical_chain(&store, trace);
            let gating_track = chain
                .iter()
                .max_by(|a, b| {
                    (a.end - a.start).partial_cmp(&(b.end - b.start)).expect("finite durations")
                })
                .map(|s| s.track.clone())
                .unwrap_or_default();
            out.push(RoundCriticalPath { round, trace, end, gating_track, chain });
        }
        out
    }
}

fn push_event_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

fn critical_chain(store: &SpanStore, trace: u64) -> Vec<PathStep> {
    let mut leaf: Option<&Span> = None;
    for s in &store.spans {
        if s.trace == trace && leaf.is_none_or(|best| s.end > best.end) {
            leaf = Some(s);
        }
    }
    let Some(leaf) = leaf else {
        return Vec::new();
    };
    let mut chain = Vec::new();
    let mut cur = Some(leaf);
    while let Some(s) = cur {
        chain.push(PathStep {
            name: s.name,
            track: store.tracks.get(s.track).cloned().unwrap_or_default(),
            start: s.start,
            end: s.end,
        });
        // Span ids are 1-based indices into the record-order vec.
        cur = if s.parent == 0 { None } else { store.spans.get(s.parent as usize - 1) };
    }
    chain.reverse();
    chain
}

/// One step of a critical path, root-first.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The span's name.
    pub name: &'static str,
    /// The span's track name (agent address in lla-dist).
    pub track: String,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// The chain that gated one round's settling.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundCriticalPath {
    /// Round index (`floor(root_start / round_length)`).
    pub round: u64,
    /// The gating trace's id.
    pub trace: u64,
    /// When the round's last causal chain ended.
    pub end: f64,
    /// Track of the longest step on the chain — the bottleneck
    /// resource/link for the round.
    pub gating_track: String,
    /// The gating chain itself, root-first.
    pub chain: Vec<PathStep>,
}

impl fmt::Display for RoundCriticalPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {:>4}: gated by {} (end {:.3})", self.round, self.gating_track, self.end)?;
        for (i, step) in self.chain.iter().enumerate() {
            let sep = if i == 0 { "  " } else { " → " };
            write!(f, "{sep}{}[{}]", step.name, step.track)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_and_returns_none() {
        let rec = SpanRecorder::disabled();
        let ctx = rec.span("tick", "a", 0.0, 1.0, TraceCtx::NONE);
        assert_eq!(ctx, TraceCtx::NONE);
        assert!(ctx.is_none());
        assert!(rec.is_empty());
        assert!(!rec.is_enabled());
        assert_eq!(rec.to_chrome_json(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n");
    }

    #[test]
    fn spans_chain_parents_and_allocate_traces() {
        let rec = SpanRecorder::recording();
        let root = rec.span("tick", "resource[0]", 0.0, 0.0, TraceCtx::NONE);
        assert_eq!(root, TraceCtx { trace: 1, span: 1 });
        let child = rec.span("price", "controller[0]", 0.0, 1.5, root);
        assert_eq!(child, TraceCtx { trace: 1, span: 2 });
        let other = rec.span("tick", "resource[1]", 2.0, 2.0, TraceCtx::NONE);
        assert_eq!(other.trace, 2, "rootless spans open fresh traces");
        let spans = rec.snapshot();
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[1].trace, 1);
        assert_eq!(rec.trace_ids(), vec![1, 2]);
        assert_eq!(rec.track_names(), vec!["resource[0]", "controller[0]", "resource[1]"]);
    }

    #[test]
    fn chrome_json_is_deterministic_and_wellformed() {
        let build = || {
            let rec = SpanRecorder::recording();
            let root = rec.span("tick", "resource[0]", 1.25, 1.25, TraceCtx::NONE);
            rec.span_with(
                "price",
                "controller[1]",
                1.25,
                3.0,
                root,
                vec![("from", Value::from("resource[0]")), ("dup", Value::from(true))],
            );
            rec.to_chrome_json()
        };
        let a = build();
        assert_eq!(a, build(), "same recording must render byte-identically");
        assert!(a.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(a.contains(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"resource[0]\"}}"
        ));
        assert!(a.contains("\"ts\":1250,\"dur\":0,\"name\":\"tick\""));
        assert!(a.contains("\"ts\":1250,\"dur\":1750,\"name\":\"price\""));
        assert!(a.contains("\"parent\":1,\"from\":\"resource[0]\",\"dup\":true"));
        assert!(a.ends_with("\n]}\n"));
    }

    #[test]
    fn critical_path_walks_to_latest_leaf() {
        let rec = SpanRecorder::recording();
        let root = rec.span("tick", "controller[0]", 0.0, 0.0, TraceCtx::NONE);
        // Fast branch ends at 1.0; slow branch at 4.0 with a deeper chain.
        let fast = rec.span("latency", "resource[0]", 0.0, 1.0, root);
        rec.span("handle", "resource[0]", 1.0, 1.0, fast);
        let slow = rec.span("latency", "resource[1]", 0.0, 3.5, root);
        rec.span("handle", "resource[1]", 3.5, 4.0, slow);
        let chain = rec.critical_path(root.trace);
        let names: Vec<_> = chain.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["tick", "latency", "handle"]);
        assert_eq!(chain[1].track, "resource[1]", "slow branch wins");
        assert!(rec.critical_path(99).is_empty());
    }

    #[test]
    fn round_critical_paths_name_the_bottleneck_resource() {
        // Constructed workload: two rounds of length 10. In round 0 the
        // link into resource[1] is slowest; in round 1, resource[0].
        let rec = SpanRecorder::recording();
        let t0 = rec.span("tick", "controller[0]", 2.5, 2.5, TraceCtx::NONE);
        rec.span("latency", "resource[0]", 2.5, 3.0, t0);
        rec.span("latency", "resource[1]", 2.5, 7.75, t0);
        let t1 = rec.span("tick", "controller[0]", 12.5, 12.5, TraceCtx::NONE);
        rec.span("latency", "resource[0]", 12.5, 19.0, t1);
        rec.span("latency", "resource[1]", 12.5, 13.0, t1);
        let rounds = rec.round_critical_paths(10.0);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].round, 0);
        assert_eq!(rounds[0].gating_track, "resource[1]");
        assert_eq!(rounds[0].end, 7.75);
        assert_eq!(rounds[1].round, 1);
        assert_eq!(rounds[1].gating_track, "resource[0]");
        let line = rounds[1].to_string();
        assert!(line.contains("gated by resource[0]"), "{line}");
        assert!(line.contains("tick[controller[0]] → latency[resource[0]]"), "{line}");
    }

    #[test]
    #[should_panic(expected = "round_length must be positive")]
    fn round_paths_reject_zero_length() {
        let _ = SpanRecorder::recording().round_critical_paths(0.0);
    }

    #[test]
    fn clones_share_the_buffer() {
        let rec = SpanRecorder::recording();
        let other = rec.clone();
        other.instant("x", "t", 1.0, TraceCtx::NONE);
        assert_eq!(rec.len(), 1);
    }
}
