//! Hierarchical scoped-guard phase profiler.
//!
//! [`Profiler`] attributes wall-clock nanoseconds and call counts to a
//! tree of named scopes: entering a scope pushes it onto an implicit
//! per-thread stack, dropping the guard pops it and charges the elapsed
//! time to the node identified by the *path* of enclosing scopes. The
//! same handle discipline as the rest of the crate applies — a disabled
//! handle holds no tree, and every operation on it is one branch that
//! reads no clock, takes no lock, and allocates nothing, so
//! `Profiler::disabled()` can be built, cloned and threaded through hot
//! loops unconditionally.
//!
//! ## Determinism split
//!
//! The node tree and its **call counts** are deterministic: they depend
//! only on which code paths executed, never on how long they took, and
//! every exporter sorts sibling scopes by name (interning order may vary
//! when worker threads race to create nodes). Wall-clock **timings** are
//! inherently non-deterministic and are kept in separate fields and
//! separate exporters ([`ProfileSnapshot::folded_ns`] vs
//! [`ProfileSnapshot::folded_calls`]), so golden tests pin the
//! calls-folded output byte-for-byte while flamegraphs read the ns
//! variant.
//!
//! ## Phases
//!
//! A scope whose body is a run of consecutive children opens them as
//! phases ([`Profiler::phases`]): ending one phase and starting the next
//! share one clock read, and the last phase ends with the scope. Two
//! guards per child would read the clock twice per child, and each read,
//! like each guard's lock, lands partly in the parent's self time; at a
//! few microseconds per optimizer step that overhead was 16–20% of the
//! step in release builds.
//!
//! ## Threads
//!
//! Accumulation is thread-aware: the scope stack lives in thread-local
//! storage while the node tree is shared behind the handle's `Arc`, so
//! guards on different threads charge the same tree concurrently. A
//! worker thread starts with an empty stack; fan-out call sites capture
//! a [`ProfileCtx`] with [`Profiler::ctx`] before spawning and re-anchor
//! via [`Profiler::scope_in`] so worker scopes nest under the spawning
//! scope instead of becoming roots.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::registry::MetricsRegistry;

/// Sentinel node index meaning "no parent" (a root scope).
const NONE: usize = usize::MAX;

thread_local! {
    /// (profiler core address, current node index) for the innermost
    /// open scope on this thread. The address disambiguates profilers:
    /// a guard from another [`Profiler`] instance leaves this profiler's
    /// scopes rooted rather than chaining onto foreign node indices.
    static CURRENT: Cell<(usize, usize)> = const { Cell::new((0, NONE)) };
}

/// One node of the scope tree.
#[derive(Debug)]
struct Node {
    name: &'static str,
    children: Vec<usize>,
    calls: u64,
    total_ns: u64,
}

#[derive(Debug, Default)]
struct Tree {
    nodes: Vec<Node>,
    roots: Vec<usize>,
}

impl Tree {
    /// Finds or creates the child of `parent` (or a root when `parent`
    /// is [`NONE`]) named `name`, and returns its index.
    fn intern(&mut self, parent: usize, name: &'static str) -> usize {
        let siblings = if parent == NONE { &self.roots } else { &self.nodes[parent].children };
        if let Some(&idx) = siblings.iter().find(|&&c| self.nodes[c].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node { name, children: Vec::new(), calls: 0, total_ns: 0 });
        if parent == NONE {
            self.roots.push(idx);
        } else {
            self.nodes[parent].children.push(idx);
        }
        idx
    }
}

#[derive(Debug, Default)]
struct ProfCore {
    tree: Mutex<Tree>,
}

/// Cheap cloneable handle to a shared scope tree (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub struct Profiler {
    /// The shared tree (`None` when disabled).
    core: Option<Arc<ProfCore>>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::disabled()
    }
}

/// A captured "current scope" anchor for re-rooting worker-thread scopes
/// under the capturing thread's innermost open scope
/// ([`Profiler::ctx`] / [`Profiler::scope_in`]).
#[derive(Debug, Clone, Copy)]
pub struct ProfileCtx(usize);

impl ProfileCtx {
    /// Anchor at the tree root (worker scopes become top-level).
    pub const ROOT: ProfileCtx = ProfileCtx(NONE);
}

impl Profiler {
    /// A recording profiler with an empty scope tree.
    pub fn recording() -> Self {
        Profiler { core: Some(Arc::new(ProfCore::default())) }
    }

    /// A profiler whose every operation is a one-branch no-op: no
    /// clock reads, no locks, no allocation.
    pub fn disabled() -> Self {
        Profiler { core: None }
    }

    /// Whether scopes record anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a scope named `name` nested under this thread's innermost
    /// open scope (a root scope if none is open). The returned guard
    /// charges elapsed nanoseconds and one call to the node on drop.
    #[must_use = "the guard's lifetime is the measured interval"]
    pub fn scope(&self, name: &'static str) -> ProfileGuard {
        let Some(core) = &self.core else { return ProfileGuard::OFF };
        let saved = CURRENT.with(Cell::get);
        let parent = if saved.0 == core_addr(core) { saved.1 } else { NONE };
        enter(core, parent, name, saved)
    }

    /// Opens a scope nested under the captured anchor `ctx` instead of
    /// this thread's stack — the fan-out entry point for worker threads.
    #[must_use = "the guard's lifetime is the measured interval"]
    pub fn scope_in(&self, ctx: ProfileCtx, name: &'static str) -> ProfileGuard {
        let Some(core) = &self.core else { return ProfileGuard::OFF };
        enter(core, ctx.0, name, CURRENT.with(Cell::get))
    }

    /// Opens scope `name` (as [`scope`](Self::scope)) whose body runs as
    /// consecutive child phases, each begun by [`PhaseScope::phase`]; see
    /// the [module docs](self#phases).
    #[must_use = "the guard's lifetime is the measured interval"]
    pub fn phases(&self, name: &'static str) -> PhaseScope {
        PhaseScope { outer: self.scope(name), phase: None }
    }

    /// Captures this thread's innermost open scope as an anchor for
    /// [`scope_in`](Self::scope_in) on worker threads.
    pub fn ctx(&self) -> ProfileCtx {
        let Some(core) = &self.core else { return ProfileCtx::ROOT };
        let (owner, node) = CURRENT.with(Cell::get);
        ProfileCtx(if owner == core_addr(core) { node } else { NONE })
    }

    /// Discards all recorded nodes (handles stay valid).
    pub fn reset(&self) {
        if let Some(core) = &self.core {
            *core.tree.lock().expect("profiler tree poisoned") = Tree::default();
        }
    }

    /// A deterministic-ordered snapshot of the scope tree (siblings
    /// sorted by name, depth-first).
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut frames = Vec::new();
        if let Some(core) = &self.core {
            let tree = core.tree.lock().expect("profiler tree poisoned");
            let mut roots = tree.roots.clone();
            roots.sort_by_key(|&r| tree.nodes[r].name);
            for r in roots {
                flatten(&tree, r, 0, "", &mut frames);
            }
        }
        ProfileSnapshot { frames }
    }

    /// Publishes per-scope-name summary gauges (`lla_profile_*`) onto
    /// `registry`: self seconds, total seconds, and call counts,
    /// aggregated over every node sharing a scope name. Scope names are
    /// sanitized into the metric name (`[a-zA-Z0-9_:]` kept, everything
    /// else becomes `_`).
    pub fn publish_summary(&self, registry: &MetricsRegistry) {
        let snap = self.snapshot();
        let mut by_name: Vec<(&str, u64, u64, u64)> = Vec::new();
        for f in &snap.frames {
            match by_name.iter_mut().find(|(n, ..)| *n == f.name) {
                Some(row) => {
                    row.1 += f.self_ns;
                    row.2 += f.total_ns;
                    row.3 += f.calls;
                }
                None => by_name.push((f.name, f.self_ns, f.total_ns, f.calls)),
            }
        }
        for (name, self_ns, total_ns, calls) in by_name {
            let base = sanitize_metric_name(name);
            registry
                .gauge(
                    &format!("lla_profile_self_seconds_{base}"),
                    "profiler: self wall-clock seconds attributed to this scope name",
                )
                .set(self_ns as f64 / 1e9);
            registry
                .gauge(
                    &format!("lla_profile_total_seconds_{base}"),
                    "profiler: total (inclusive) wall-clock seconds for this scope name",
                )
                .set(total_ns as f64 / 1e9);
            registry
                .gauge(
                    &format!("lla_profile_calls_{base}"),
                    "profiler: times scopes with this name were entered",
                )
                .set(calls as f64);
        }
    }
}

/// The address that tells one profiler's scopes from another's on a
/// thread's stack.
fn core_addr(core: &Arc<ProfCore>) -> usize {
    Arc::as_ptr(core) as usize
}

/// Enters scope `name` under `parent` of `core`'s tree, saving the
/// thread's previous innermost scope for the guard to restore.
fn enter(
    core: &Arc<ProfCore>,
    parent: usize,
    name: &'static str,
    saved: (usize, usize),
) -> ProfileGuard {
    let node = {
        let mut tree = core.tree.lock().expect("profiler tree poisoned");
        let node = tree.intern(parent, name);
        tree.nodes[node].calls += 1;
        node
    };
    CURRENT.with(|c| c.set((core_addr(core), node)));
    ProfileGuard { core: Some(Arc::clone(core)), node, saved, start: Some(Instant::now()) }
}

fn sanitize_metric_name(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' }).collect()
}

fn flatten(tree: &Tree, idx: usize, depth: usize, prefix: &str, out: &mut Vec<ProfileFrame>) {
    let node = &tree.nodes[idx];
    let path =
        if prefix.is_empty() { node.name.to_string() } else { format!("{prefix};{}", node.name) };
    let child_ns: u64 = node.children.iter().map(|&c| tree.nodes[c].total_ns).sum();
    out.push(ProfileFrame {
        name: node.name,
        path: path.clone(),
        depth,
        calls: node.calls,
        total_ns: node.total_ns,
        self_ns: node.total_ns.saturating_sub(child_ns),
    });
    let mut children = node.children.clone();
    children.sort_by_key(|&c| tree.nodes[c].name);
    for c in children {
        flatten(tree, c, depth + 1, &path, out);
    }
}

/// Guard for one open scope; dropping it closes the scope and charges
/// the elapsed interval (see [`Profiler::scope`]).
#[derive(Debug)]
pub struct ProfileGuard {
    core: Option<Arc<ProfCore>>,
    node: usize,
    saved: (usize, usize),
    start: Option<Instant>,
}

impl ProfileGuard {
    /// The guard of a disabled profiler: dropping it does nothing.
    const OFF: ProfileGuard = ProfileGuard { core: None, node: 0, saved: (0, 0), start: None };
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        let Some(core) = self.core.take() else { return };
        let ns = self.start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        {
            let mut tree = core.tree.lock().expect("profiler tree poisoned");
            tree.nodes[self.node].total_ns += ns;
        }
        let saved = self.saved;
        CURRENT.with(|c| c.set(saved));
    }
}

/// A scope run as consecutive child phases (see [`Profiler::phases`]).
/// Dropping it ends the running phase and the scope at one clock read.
#[derive(Debug)]
pub struct PhaseScope {
    outer: ProfileGuard,
    /// The running phase's node and start.
    phase: Option<(usize, Instant)>,
}

impl PhaseScope {
    /// Ends the running phase, if any, and begins phase `name` as a child
    /// of the scope at the same instant. Scopes opened during the phase
    /// nest under it.
    pub fn phase(&mut self, name: &'static str) {
        let Some(core) = &self.outer.core else { return };
        let now = Instant::now();
        let node = {
            let mut tree = core.tree.lock().expect("profiler tree poisoned");
            if let Some((node, start)) = self.phase.take() {
                tree.nodes[node].total_ns += (now - start).as_nanos() as u64;
            }
            let node = tree.intern(self.outer.node, name);
            tree.nodes[node].calls += 1;
            node
        };
        CURRENT.with(|c| c.set((core_addr(core), node)));
        self.phase = Some((node, now));
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        let Some(core) = self.outer.core.take() else { return };
        let now = Instant::now();
        // A poisoned tree only loses this interval: drop must not panic.
        if let Ok(mut tree) = core.tree.lock() {
            if let Some((node, start)) = self.phase.take() {
                tree.nodes[node].total_ns += (now - start).as_nanos() as u64;
            }
            if let Some(start) = self.outer.start {
                tree.nodes[self.outer.node].total_ns += (now - start).as_nanos() as u64;
            }
        }
        let saved = self.outer.saved;
        CURRENT.with(|c| c.set(saved));
    }
}

/// One flattened scope-tree node in deterministic (name-sorted DFS)
/// order.
#[derive(Debug, Clone)]
pub struct ProfileFrame {
    /// Scope name (the last path segment).
    pub name: &'static str,
    /// `;`-joined path from the root scope (folded-stack convention).
    pub path: String,
    /// Nesting depth (0 = root scope).
    pub depth: usize,
    /// Times the scope was entered. Deterministic.
    pub calls: u64,
    /// Inclusive wall-clock nanoseconds. Non-deterministic.
    pub total_ns: u64,
    /// Exclusive nanoseconds (total minus children). Non-deterministic.
    pub self_ns: u64,
}

/// Deterministic-ordered flattened view of a [`Profiler`]'s tree, with
/// the exporters (folded stacks, top-N, JSON, Chrome trace events).
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// Frames in name-sorted depth-first order.
    pub frames: Vec<ProfileFrame>,
}

impl ProfileSnapshot {
    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Folded-stack flamegraph text weighted by **self nanoseconds** —
    /// one `path;to;scope <self_ns>` line per node, ready for
    /// `flamegraph.pl` / speedscope / inferno. Non-deterministic values;
    /// deterministic line order.
    pub fn folded_ns(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            out.push_str(&format!("{} {}\n", f.path, f.self_ns));
        }
        out
    }

    /// Folded-stack text weighted by **call counts** — the fully
    /// deterministic variant golden tests pin byte-for-byte.
    pub fn folded_calls(&self) -> String {
        let mut out = String::new();
        for f in &self.frames {
            out.push_str(&format!("{} {}\n", f.path, f.calls));
        }
        out
    }

    /// The `n` frames with the largest self time, descending (ties
    /// broken by path so the order stays deterministic).
    pub fn top_self(&self, n: usize) -> Vec<&ProfileFrame> {
        let mut sorted: Vec<&ProfileFrame> = self.frames.iter().collect();
        sorted.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
        sorted.truncate(n);
        sorted
    }

    /// Total nanoseconds across root scopes (the denominator for
    /// attribution shares).
    pub fn root_total_ns(&self) -> u64 {
        self.frames.iter().filter(|f| f.depth == 0).map(|f| f.total_ns).sum()
    }

    /// Fraction of `path`'s inclusive time attributed to its children
    /// (1.0 − self/total); `None` when the path is absent or never
    /// accumulated time.
    pub fn attributed_fraction(&self, path: &str) -> Option<f64> {
        let f = self.frames.iter().find(|f| f.path == path)?;
        (f.total_ns > 0).then(|| 1.0 - f.self_ns as f64 / f.total_ns as f64)
    }

    /// JSON document: a flat array of frame objects in deterministic
    /// order (`path` encodes the hierarchy).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"profile\":[\n");
        for (i, f) in self.frames.iter().enumerate() {
            let comma = if i + 1 < self.frames.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"depth\":{},\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}{comma}\n",
                crate::events::json_escape(&f.path),
                f.depth,
                f.calls,
                f.total_ns,
                f.self_ns
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_share_boundaries_and_nest_scopes() {
        let p = Profiler::recording();
        {
            let mut step = p.phases("step");
            step.phase("a");
            drop(p.scope("inner"));
            step.phase("b");
        }
        drop(p.scope("after"));
        let snap = p.snapshot();
        let paths: Vec<(&str, u64)> =
            snap.frames.iter().map(|f| (f.path.as_str(), f.calls)).collect();
        assert_eq!(
            paths,
            [("after", 1), ("step", 1), ("step;a", 1), ("step;a;inner", 1), ("step;b", 1)]
        );
        let total = |path: &str| snap.frames.iter().find(|f| f.path == path).unwrap().total_ns;
        assert!(total("step") >= total("step;a") + total("step;b"));
        // A disabled handle's phases record nothing.
        let off = Profiler::disabled();
        off.phases("step").phase("a");
        assert!(off.snapshot().is_empty());
    }

    fn spin(profiler: &Profiler) {
        let _outer = profiler.scope("outer");
        for _ in 0..3 {
            let _inner = profiler.scope("inner");
        }
        let _other = profiler.scope("tail");
    }

    #[test]
    fn hierarchy_and_counts() {
        let p = Profiler::recording();
        spin(&p);
        spin(&p);
        let snap = p.snapshot();
        let paths: Vec<(&str, u64)> =
            snap.frames.iter().map(|f| (f.path.as_str(), f.calls)).collect();
        assert_eq!(
            paths,
            vec![("outer", 2), ("outer;inner", 6), ("outer;tail", 2)],
            "calls tree must be exact and name-sorted"
        );
        assert_eq!(snap.folded_calls(), "outer 2\nouter;inner 6\nouter;tail 2\n");
    }

    #[test]
    fn self_time_excludes_children() {
        let p = Profiler::recording();
        {
            let _outer = p.scope("outer");
            let _inner = p.scope("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = p.snapshot();
        let outer = snap.frames.iter().find(|f| f.path == "outer").unwrap();
        let inner = snap.frames.iter().find(|f| f.path == "outer;inner").unwrap();
        assert!(inner.total_ns >= 1_000_000, "sleep must be charged to inner");
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let p = Profiler::disabled();
        spin(&p);
        assert!(p.snapshot().is_empty());
        assert_eq!(p.snapshot().folded_calls(), "");
        assert!(!p.is_enabled());
    }

    #[test]
    fn sibling_profilers_do_not_chain() {
        let a = Profiler::recording();
        let b = Profiler::recording();
        let _ga = a.scope("a_scope");
        {
            // b's scope opens while a's is current on this thread; it
            // must root in b's tree, not nest under a's node index.
            let _gb = b.scope("b_scope");
        }
        drop(_ga);
        assert_eq!(a.snapshot().folded_calls(), "a_scope 1\n");
        assert_eq!(b.snapshot().folded_calls(), "b_scope 1\n");
    }

    #[test]
    fn worker_threads_accumulate_into_shared_tree() {
        let p = Profiler::recording();
        let _round = p.scope("round");
        let ctx = p.ctx();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = p.clone();
                s.spawn(move || {
                    let _g = p.scope_in(ctx, "worker");
                    let _n = p.scope("nested");
                });
            }
        });
        drop(_round);
        let snap = p.snapshot();
        let worker = snap.frames.iter().find(|f| f.path == "round;worker").unwrap();
        let nested = snap.frames.iter().find(|f| f.path == "round;worker;nested").unwrap();
        assert_eq!(worker.calls, 4);
        assert_eq!(nested.calls, 4);
    }

    #[test]
    fn reset_clears_tree() {
        let p = Profiler::recording();
        spin(&p);
        p.reset();
        assert!(p.snapshot().is_empty());
        spin(&p);
        assert_eq!(p.snapshot().frames[0].calls, 1);
    }

    #[test]
    fn top_self_orders_by_self_time() {
        let p = Profiler::recording();
        {
            let _a = p.scope("slow");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _b = p.scope("fast");
        }
        let snap = p.snapshot();
        let top = snap.top_self(1);
        assert_eq!(top[0].path, "slow");
    }

    #[test]
    fn publish_summary_registers_gauges() {
        let p = Profiler::recording();
        spin(&p);
        let registry = MetricsRegistry::new();
        p.publish_summary(&registry);
        let text = registry.prometheus_text();
        assert!(text.contains("lla_profile_self_seconds_outer"));
        assert!(text.contains("lla_profile_calls_inner 3"));
        assert!(text.contains("lla_profile_total_seconds_tail"));
    }

    #[test]
    fn json_export_is_wellformed_and_ordered() {
        let p = Profiler::recording();
        spin(&p);
        let json = p.snapshot().to_json();
        assert!(json.starts_with("{\"profile\":[\n"));
        assert!(json.contains("\"path\":\"outer;inner\",\"depth\":1,\"calls\":3"));
        assert!(json.ends_with("]}\n"));
    }
}
