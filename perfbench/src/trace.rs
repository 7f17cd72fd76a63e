//! In-memory span tree recorded by the benchmark around its calls into
//! the library, plus the library's own public profiler snapshots grafted
//! under the span that contained them.
//!
//! Spans are aggregated by path (`a;b;c`): each node keeps its call count,
//! inclusive time, and self time (inclusive minus children). A disabled
//! recorder makes no clock reads. The tree is written out once, at the end
//! of a traced run, as folded stacks and a per-layer self-time table.

use lla_telemetry::ProfileSnapshot;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Default, Clone, Copy)]
pub struct Node {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    path: String,
    start: Instant,
    child_ns: u64,
}

#[derive(Debug, Default)]
struct Tree {
    stack: Vec<Open>,
    nodes: BTreeMap<String, Node>,
}

impl Tree {
    fn child_path(&self, child: &str) -> String {
        match self.stack.last() {
            Some(open) => format!("{};{child}", open.path),
            None => child.to_owned(),
        }
    }
}

/// The span recorder; `Spans::off()` for untraced runs.
#[derive(Debug)]
pub struct Spans {
    tree: Option<RefCell<Tree>>,
}

/// Closes its span on drop.
#[must_use = "the guard's lifetime is the measured interval"]
pub struct SpanGuard<'a> {
    spans: &'a Spans,
}

impl Spans {
    pub fn off() -> Self {
        Spans { tree: None }
    }

    pub fn on() -> Self {
        Spans { tree: Some(RefCell::new(Tree::default())) }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if let Some(tree) = &self.tree {
            let mut tree = tree.borrow_mut();
            let path = match tree.stack.last() {
                Some(parent) => format!("{};{name}", parent.path),
                None => name.to_owned(),
            };
            tree.stack.push(Open { path, start: Instant::now(), child_ns: 0 });
        }
        SpanGuard { spans: self }
    }

    /// Grafts a library profiler snapshot under the already-closed child
    /// span `child` of the innermost open span (or the root span `child`
    /// when none is open): its frames become children of that node, and
    /// their root time leaves the node's self time.
    pub fn graft(&self, child: &str, snapshot: &ProfileSnapshot) {
        let Some(tree) = &self.tree else { return };
        let mut tree = tree.borrow_mut();
        let node_path = tree.child_path(child);
        let node = tree.nodes.get_mut(&node_path).expect("graft under a recorded span");
        node.self_ns = node.self_ns.saturating_sub(snapshot.root_total_ns());
        for f in &snapshot.frames {
            let n = tree.nodes.entry(format!("{node_path};{}", f.path)).or_default();
            n.calls += f.calls;
            n.total_ns += f.total_ns;
            n.self_ns += f.self_ns;
        }
    }

    /// Like [`graft`](Self::graft) for a time measured by a library
    /// instrument that is not a scope tree: `ns` over `calls` becomes the
    /// child `name` of the recorded span `child`.
    pub fn graft_time(&self, child: &str, name: &str, calls: u64, ns: u64) {
        let Some(tree) = &self.tree else { return };
        let mut tree = tree.borrow_mut();
        let node_path = tree.child_path(child);
        let node = tree.nodes.get_mut(&node_path).expect("graft under a recorded span");
        node.self_ns = node.self_ns.saturating_sub(ns);
        let n = tree.nodes.entry(format!("{node_path};{name}")).or_default();
        n.calls += calls;
        n.total_ns += ns;
        n.self_ns += ns;
    }

    /// The aggregated nodes, keyed by path.
    pub fn nodes(&self) -> BTreeMap<String, Node> {
        self.tree.as_ref().map(|t| t.borrow().nodes.clone()).unwrap_or_default()
    }

    fn close(&self) {
        let Some(tree) = &self.tree else { return };
        let mut tree = tree.borrow_mut();
        let open = tree.stack.pop().expect("span guards close in order");
        let total = open.start.elapsed().as_nanos() as u64;
        if let Some(parent) = tree.stack.last_mut() {
            parent.child_ns += total;
        }
        let node = tree.nodes.entry(open.path).or_default();
        node.calls += 1;
        node.total_ns += total;
        node.self_ns += total.saturating_sub(open.child_ns);
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.spans.close();
    }
}

/// Sum of inclusive time and calls over nodes whose last segment is
/// `segment` (nested occurrences of the same name are not double counted
/// because span names never nest under themselves).
pub fn total_of(nodes: &BTreeMap<String, Node>, segment: &str) -> (u64, u64) {
    nodes
        .iter()
        .filter(|(p, _)| last(p) == segment)
        .fold((0, 0), |(ns, c), (_, n)| (ns + n.total_ns, c + n.calls))
}

fn last(path: &str) -> &str {
    path.rsplit(';').next().unwrap_or(path)
}

/// The crate::module that owns the work a span or profiler scope
/// measures.
pub fn layer_of(segment: &str) -> &'static str {
    match segment {
        "Optimizer::new" | "Optimizer::step" | "step" | "trace" | "kkt" => "lla-core::optimizer",
        "allocate" | "plan_lower" | "lagrangian" | "shard_local" => "lla-core::plan",
        "price" | "path_phase" | "shard_path" => "lla-core::prices",
        "ShardedOptimizer::new"
        | "ShardedOptimizer::step"
        | "round"
        | "allocation_phase"
        | "coordinator"
        | "broadcast"
        | "merge"
        | "export_state" => "lla-core::shard",
        "set_resource_availability" | "remove_task" | "add_task" => "lla-core::shard+problem",
        "certify" | "dual_value" | "viol" => "lla-core::lagrangian",
        "DistributedLla::new" => "lla-dist::system",
        "run_rounds" | "dispatch" => "lla-dist::runtime",
        "tick" => "lla-dist::agents",
        "ClosedLoop::new" | "step_window" => "lla-sim::closedloop",
        "Simulator::run_for" => "lla-sim::simulator",
        "reoptimise" => "lla-core::optimizer",
        _ => "perfbench",
    }
}

/// Per-layer self time, descending.
pub fn layer_table(nodes: &BTreeMap<String, Node>) -> Vec<(&'static str, u64)> {
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (path, node) in nodes {
        *by_layer.entry(layer_of(last(path))).or_default() += node.self_ns;
    }
    let mut rows: Vec<_> = by_layer.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

/// Folded stacks weighted by self nanoseconds, one `path ns` line per
/// node (flamegraph.pl / speedscope input).
pub fn folded(nodes: &BTreeMap<String, Node>) -> String {
    nodes.iter().map(|(p, n)| format!("{p} {}\n", n.self_ns)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::on();
        {
            let _a = spans.enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _b = spans.enter("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let nodes = spans.nodes();
        let outer = nodes["outer"];
        let inner = nodes["outer;inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::off();
        drop(spans.enter("x"));
        assert!(spans.nodes().is_empty());
    }
}
