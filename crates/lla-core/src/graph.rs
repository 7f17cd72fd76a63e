//! Subtask precedence graphs: DAGs with a unique root.
//!
//! Edges represent precedence — either data transmission or a logical
//! ordering constraint. A *path* is a root-to-leaf sequence of subtasks; the
//! end-to-end latency of a task instance is determined by its paths, and the
//! *critical path* is the path of maximum latency.
//!
//! A validated graph keeps everything in one boxed slice: successor and
//! predecessor lists and the paths as CSR rows (an offset table plus a flat
//! index array), next to the leaves, the topological order and the path
//! weights. Every accessor returns a slice of that block, so a graph is one
//! heap allocation and a clone one copy (DESIGN §9.10).

use crate::error::ModelError;
use crate::ids::TaskId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A root-to-leaf path through a task's subtask graph: a view of one row
/// of the graph's path table.
///
/// Holds the per-task subtask indices in root-to-leaf order. The path's
/// [`PathId`](crate::PathId) comes from the owning task
/// ([`Task::path_id`](crate::Task::path_id)); the graph itself names no
/// task, so a task that changes id keeps correct path ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path<'a> {
    index: usize,
    subtasks: &'a [usize],
}

impl<'a> Path<'a> {
    /// The path's index within its task's path enumeration.
    pub fn index(self) -> usize {
        self.index
    }

    /// Subtask indices (within the owning task) in root-to-leaf order.
    pub fn subtasks(self) -> &'a [usize] {
        self.subtasks
    }

    /// Number of subtasks on this path.
    pub fn len(self) -> usize {
        self.subtasks.len()
    }

    /// Whether the path is empty (never true for a valid graph).
    pub fn is_empty(self) -> bool {
        self.subtasks.is_empty()
    }

    /// Sum of the given per-subtask latencies along this path.
    pub fn latency(self, lats: &[f64]) -> f64 {
        self.subtasks.iter().map(|&s| lats[s]).sum()
    }
}

/// The root-to-leaf paths of a [`SubtaskGraph`], in enumeration order: a
/// view of the graph's path table ([`SubtaskGraph::paths`]).
#[derive(Clone, Copy)]
pub struct Paths<'a> {
    rows: Rows<'a, usize>,
}

impl<'a> Paths<'a> {
    /// Number of paths.
    pub fn len(self) -> usize {
        self.rows.len()
    }

    /// Whether there are no paths (never true for a valid graph).
    pub fn is_empty(self) -> bool {
        self.rows.len() == 0
    }

    /// Path `index`, or `None` when out of range.
    pub fn get(self, index: usize) -> Option<Path<'a>> {
        (index < self.len()).then(|| Path { index, subtasks: self.rows.row(index) })
    }

    /// The paths in enumeration order.
    pub fn iter(self) -> PathIter<'a> {
        PathIter { paths: self, next: 0 }
    }
}

impl<'a> IntoIterator for Paths<'a> {
    type Item = Path<'a>;
    type IntoIter = PathIter<'a>;

    fn into_iter(self) -> PathIter<'a> {
        self.iter()
    }
}

impl PartialEq for Paths<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Paths<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(Path::subtasks)).finish()
    }
}

/// Iterator over [`Paths`].
#[derive(Debug, Clone)]
pub struct PathIter<'a> {
    paths: Paths<'a>,
    next: usize,
}

impl<'a> Iterator for PathIter<'a> {
    type Item = Path<'a>;

    fn next(&mut self) -> Option<Path<'a>> {
        let path = self.paths.get(self.next)?;
        self.next += 1;
        Some(path)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.paths.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PathIter<'_> {}

/// CSR rows: row `i` is `data[off[i]..off[i + 1]]`.
pub(crate) struct Rows<'a, T> {
    off: &'a [usize],
    data: &'a [T],
}

impl<T> Clone for Rows<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Rows<'_, T> {}

impl<'a, T> Rows<'a, T> {
    pub(crate) fn new(off: &'a [usize], data: &'a [T]) -> Self {
        Rows { off, data }
    }

    pub(crate) fn len(self) -> usize {
        self.off.len() - 1
    }

    pub(crate) fn row(self, i: usize) -> &'a [T] {
        &self.data[self.off[i]..self.off[i + 1]]
    }
}

/// Lists the rows as nested lists, the way a `Vec<Vec<T>>` prints.
impl<T: fmt::Debug> fmt::Debug for Rows<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries((0..self.len()).map(|i| self.row(i))).finish()
    }
}

/// A validated subtask precedence DAG with a unique root.
///
/// Construction enumerates all root-to-leaf paths and computes, for every
/// subtask, the number of paths it belongs to (the *path weight* `w_s` used
/// by the path-weighted utility variant, §3.2 of the paper).
///
/// # Example
/// ```
/// use lla_core::{SubtaskGraph, TaskId};
/// // A fan-out: 0 -> 1, 0 -> 2.
/// let g = SubtaskGraph::new(TaskId::new(0), 3, &[(0, 1), (0, 2)])?;
/// assert_eq!(g.root(), 0);
/// assert_eq!(g.paths().len(), 2);
/// assert_eq!(g.path(1).subtasks(), &[0, 2]);
/// assert_eq!(g.path_weight(0), 2); // the root lies on both paths
/// assert_eq!(g.path_weight(1), 1);
/// # Ok::<(), lla_core::ModelError>(())
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct SubtaskGraph {
    n: usize,
    root: usize,
    edges: usize,
    leaves: usize,
    paths: usize,
    /// The whole graph, section after section (lengths from the fields
    /// above; `*_off` tables are relative to their own index array):
    /// `succ_off[n+1] succ[edges] pred_off[n+1] pred[edges] leaves[leaves]
    /// topo[n] weights[n] path_off[paths+1] path_subs[..]`.
    block: Box<[usize]>,
}

impl SubtaskGraph {
    /// Builds and validates a subtask graph over `n` subtasks with the given
    /// precedence edges `(from, to)`.
    ///
    /// A single isolated subtask (`n == 1`, no edges) is a valid graph with
    /// one trivial path.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownSubtaskIndex`] if an edge endpoint is `>= n`.
    /// * [`ModelError::SelfLoop`] if an edge connects a node to itself.
    /// * [`ModelError::GraphCycle`] if the edges contain a cycle.
    /// * [`ModelError::NoUniqueRoot`] if there is not exactly one node with
    ///   in-degree zero.
    /// * [`ModelError::UnreachableSubtask`] if some node cannot be reached
    ///   from the root.
    /// * [`ModelError::EmptyTask`] if `n == 0`.
    pub fn new(task: TaskId, n: usize, edges: &[(usize, usize)]) -> Result<Self, ModelError> {
        if n == 0 {
            return Err(ModelError::EmptyTask { task });
        }
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n {
                return Err(ModelError::UnknownSubtaskIndex { index: a, len: n });
            }
            if b >= n {
                return Err(ModelError::UnknownSubtaskIndex { index: b, len: n });
            }
            if a == b {
                return Err(ModelError::SelfLoop { index: a });
            }
            // Duplicate edges are idempotent in a precedence relation.
            if !succ[a].contains(&b) {
                succ[a].push(b);
                pred[b].push(a);
            }
        }

        // Unique root: exactly one node with in-degree 0.
        let roots: Vec<usize> = (0..n).filter(|&v| pred[v].is_empty()).collect();
        if roots.len() != 1 {
            return Err(ModelError::NoUniqueRoot { task, roots: roots.len() });
        }
        let root = roots[0];

        // Kahn topological sort; detects cycles.
        let mut indeg: Vec<usize> = pred.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = vec![root];
        let mut topo = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            topo.push(v);
            for &w in &succ[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        if topo.len() != n {
            // Remaining nodes are on a cycle or unreachable-from-root with a
            // nonzero in-degree; a cycle is the only way Kahn stalls when
            // every non-root node has in-degree > 0.
            return Err(ModelError::GraphCycle { task });
        }

        // Reachability from the root.
        let mut reach = vec![false; n];
        let mut stack = vec![root];
        reach[root] = true;
        while let Some(v) = stack.pop() {
            for &w in &succ[v] {
                if !reach[w] {
                    reach[w] = true;
                    stack.push(w);
                }
            }
        }
        if let Some(v) = (0..n).find(|&v| !reach[v]) {
            return Err(ModelError::UnreachableSubtask {
                subtask: crate::ids::SubtaskId::new(task, v),
            });
        }

        let leaves: Vec<usize> = (0..n).filter(|&v| succ[v].is_empty()).collect();

        // Enumerate all root-to-leaf paths by DFS into CSR rows.
        let (mut path_off, mut path_subs) = (vec![0], Vec::new());
        let mut current = vec![root];
        Self::enumerate(&succ, root, &mut current, &mut path_off, &mut path_subs);

        // Path weights: number of paths each node lies on. Computed by DP so
        // the weights stay cheap even when enumeration is the expensive part:
        // w(v) = paths_from_root_to(v) * paths_from(v)_to_any_leaf.
        let mut to_node = vec![0usize; n];
        to_node[root] = 1;
        for &v in &topo {
            for &w in &succ[v] {
                to_node[w] += to_node[v];
            }
        }
        let mut from_node = vec![0usize; n];
        for &v in topo.iter().rev() {
            if succ[v].is_empty() {
                from_node[v] = 1;
            } else {
                from_node[v] = succ[v].iter().map(|&w| from_node[w]).sum();
            }
        }
        debug_assert_eq!(to_node[root] * from_node[root], path_off.len() - 1, "root weight");

        let edges: usize = succ.iter().map(Vec::len).sum();
        let paths = path_off.len() - 1;
        let mut block = Vec::with_capacity(
            4 * n + 2 + 2 * edges + leaves.len() + path_off.len() + path_subs.len(),
        );
        for lists in [&succ, &pred] {
            block.push(0);
            let mut at = 0;
            for list in lists {
                at += list.len();
                block.push(at);
            }
            block.extend(lists.iter().flatten());
        }
        block.extend(&leaves);
        block.extend(&topo);
        block.extend((0..n).map(|v| to_node[v] * from_node[v]));
        block.extend(&path_off);
        block.extend(&path_subs);
        debug_assert_eq!(block.len(), block.capacity());
        Ok(SubtaskGraph {
            n,
            root,
            edges,
            leaves: leaves.len(),
            paths,
            block: block.into_boxed_slice(),
        })
    }

    fn enumerate(
        succ: &[Vec<usize>],
        v: usize,
        current: &mut Vec<usize>,
        path_off: &mut Vec<usize>,
        path_subs: &mut Vec<usize>,
    ) {
        if succ[v].is_empty() {
            path_subs.extend_from_slice(current);
            path_off.push(path_subs.len());
            return;
        }
        for &w in &succ[v] {
            current.push(w);
            Self::enumerate(succ, w, current, path_off, path_subs);
            current.pop();
        }
    }

    /// Builds a linear chain `0 -> 1 -> ... -> n-1`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyTask`] if `n == 0`.
    pub fn chain(task: TaskId, n: usize) -> Result<Self, ModelError> {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Self::new(task, n, &edges)
    }

    /// Where each section of the block starts: successor rows, predecessor
    /// rows, leaves, topological order, weights, path rows.
    fn sections(&self) -> [usize; 6] {
        let (n, e) = (self.n, self.edges);
        let succ = 0;
        let pred = succ + n + 1 + e;
        let leaves = pred + n + 1 + e;
        let topo = leaves + self.leaves;
        let weights = topo + n;
        let paths = weights + n;
        [succ, pred, leaves, topo, weights, paths]
    }

    /// The CSR rows whose offset table starts at `at` and has `rows + 1`
    /// entries, its index array following it.
    fn rows_at(&self, at: usize, rows: usize) -> Rows<'_, usize> {
        let (off, rest) = self.block[at..].split_at(rows + 1);
        Rows::new(off, &rest[..off[rows]])
    }

    fn succ(&self) -> Rows<'_, usize> {
        self.rows_at(self.sections()[0], self.n)
    }

    fn pred(&self) -> Rows<'_, usize> {
        self.rows_at(self.sections()[1], self.n)
    }

    /// Number of subtasks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no subtasks (never true for a validated graph).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The unique root (start subtask) index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Indices of the leaf (end) subtasks.
    pub fn leaves(&self) -> &[usize] {
        let at = self.sections()[2];
        &self.block[at..at + self.leaves]
    }

    /// Successors of subtask `v`.
    pub fn successors(&self, v: usize) -> &[usize] {
        self.succ().row(v)
    }

    /// Predecessors of subtask `v`.
    pub fn predecessors(&self, v: usize) -> &[usize] {
        self.pred().row(v)
    }

    /// A topological order of the subtasks (root first).
    pub fn topological_order(&self) -> &[usize] {
        let at = self.sections()[3];
        &self.block[at..at + self.n]
    }

    /// All root-to-leaf paths, in enumeration order matching their
    /// [`PathId`](crate::PathId) indices.
    pub fn paths(&self) -> Paths<'_> {
        Paths { rows: Rows::new(self.path_off(), self.path_subs()) }
    }

    /// Path `p` of [`paths`](Self::paths).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn path(&self, p: usize) -> Path<'_> {
        self.paths().get(p).expect("path index out of range")
    }

    fn path_off(&self) -> &[usize] {
        let at = self.sections()[5];
        &self.block[at..at + self.paths + 1]
    }

    fn path_subs(&self) -> &[usize] {
        &self.block[self.sections()[5] + self.paths + 1..]
    }

    /// Number of root-to-leaf paths the subtask `v` lies on (`w_s`).
    pub fn path_weight(&self, v: usize) -> usize {
        self.weights()[v]
    }

    fn weights(&self) -> &[usize] {
        let at = self.sections()[4];
        &self.block[at..at + self.n]
    }

    /// Whether the graph is a simple chain (every node has at most one
    /// successor and one predecessor).
    pub fn is_chain(&self) -> bool {
        self.paths == 1 && self.path_subs().len() == self.n
    }

    /// The number of subtasks on the *longest* root-to-leaf path passing
    /// through `v`.
    ///
    /// Used by the latency-percentile machinery (§2.1): when a task's
    /// utility is computed from the `p`-th end-to-end percentile, each
    /// subtask must use the per-subtask percentile for its path length;
    /// with heterogeneous path lengths the longest one is the conservative
    /// choice.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn max_path_len_through(&self, v: usize) -> usize {
        assert!(v < self.n, "subtask index out of range");
        let succ = self.succ();
        // Longest chain of hops from the root to v and from v to a leaf.
        let mut to_node = vec![0usize; self.n];
        for &u in self.topological_order() {
            for &w in succ.row(u) {
                to_node[w] = to_node[w].max(to_node[u] + 1);
            }
        }
        let mut from_node = vec![0usize; self.n];
        for &u in self.topological_order().iter().rev() {
            for &w in succ.row(u) {
                from_node[u] = from_node[u].max(from_node[w] + 1);
            }
        }
        to_node[v] + from_node[v] + 1
    }

    /// Returns `(path index, latency)` of the critical path — the
    /// root-to-leaf path of maximum total latency — for the given
    /// per-subtask latencies.
    ///
    /// # Panics
    ///
    /// Panics if `lats.len()` differs from the number of subtasks.
    pub fn critical_path(&self, lats: &[f64]) -> (usize, f64) {
        assert_eq!(lats.len(), self.n, "latency vector length mismatch");
        let mut best = (0, f64::NEG_INFINITY);
        for p in self.paths() {
            let l = p.latency(lats);
            if l > best.1 {
                best = (p.index(), l);
            }
        }
        best
    }
}

/// Prints the graph's lists the way the nested-`Vec` layout did.
impl fmt::Debug for SubtaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubtaskGraph")
            .field("n", &self.n)
            .field("succ", &self.succ())
            .field("pred", &self.pred())
            .field("root", &self.root)
            .field("leaves", &self.leaves())
            .field("topo", &self.topological_order())
            .field("paths", &self.paths())
            .field("weights", &self.weights())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TaskId {
        TaskId::new(0)
    }

    #[test]
    fn single_node_graph() {
        let g = SubtaskGraph::new(t(), 1, &[]).unwrap();
        assert_eq!(g.root(), 0);
        assert_eq!(g.leaves(), &[0]);
        assert_eq!(g.paths().len(), 1);
        assert_eq!(g.path(0).subtasks(), &[0]);
        assert_eq!(g.path_weight(0), 1);
        assert!(g.is_chain());
    }

    #[test]
    fn chain_graph() {
        let g = SubtaskGraph::chain(t(), 4).unwrap();
        assert!(g.is_chain());
        assert_eq!(g.paths().len(), 1);
        assert_eq!(g.path(0).subtasks(), &[0, 1, 2, 3]);
        for v in 0..4 {
            assert_eq!(g.path_weight(v), 1);
        }
        assert_eq!(g.leaves(), &[3]);
    }

    #[test]
    fn fanout_tree_paths_and_weights() {
        // 0 -> 1 -> {2,3,4}: the push/multicast shape of the paper's Task 1.
        let g = SubtaskGraph::new(t(), 5, &[(0, 1), (1, 2), (1, 3), (1, 4)]).unwrap();
        assert_eq!(g.paths().len(), 3);
        assert_eq!(g.path_weight(0), 3);
        assert_eq!(g.path_weight(1), 3);
        assert_eq!(g.path_weight(2), 1);
        assert!(!g.is_chain());
    }

    #[test]
    fn diamond_join_counts_paths_through_join() {
        // 0 -> {1,2} -> 3.
        let g = SubtaskGraph::new(t(), 4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(g.paths().len(), 2);
        assert_eq!(g.path_weight(0), 2);
        assert_eq!(g.path_weight(3), 2);
        assert_eq!(g.path_weight(1), 1);
        assert_eq!(g.leaves(), &[3]);
    }

    #[test]
    fn cycle_is_rejected() {
        // 0 -> 1 -> 2 -> 1 is a cycle.
        let err = SubtaskGraph::new(t(), 3, &[(0, 1), (1, 2), (2, 1)]).unwrap_err();
        assert!(matches!(err, ModelError::GraphCycle { .. }));
    }

    #[test]
    fn two_roots_rejected() {
        let err = SubtaskGraph::new(t(), 3, &[(0, 2), (1, 2)]).unwrap_err();
        assert!(matches!(err, ModelError::NoUniqueRoot { roots: 2, .. }));
    }

    #[test]
    fn zero_roots_rejected() {
        // 0 <-> 1 cycle means no in-degree-0 node.
        let err = SubtaskGraph::new(t(), 2, &[(0, 1), (1, 0)]).unwrap_err();
        assert!(matches!(err, ModelError::NoUniqueRoot { roots: 0, .. }));
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = SubtaskGraph::new(t(), 2, &[(0, 5)]).unwrap_err();
        assert!(matches!(err, ModelError::UnknownSubtaskIndex { index: 5, len: 2 }));
    }

    #[test]
    fn self_loop_rejected() {
        let err = SubtaskGraph::new(t(), 2, &[(1, 1)]).unwrap_err();
        assert!(matches!(err, ModelError::SelfLoop { index: 1 }));
    }

    #[test]
    fn empty_graph_rejected() {
        let err = SubtaskGraph::new(t(), 0, &[]).unwrap_err();
        assert!(matches!(err, ModelError::EmptyTask { .. }));
    }

    #[test]
    fn unreachable_node_rejected() {
        // Node 2 is a second root... actually 2 isolated => 2 roots.
        // Build: 0 -> 1, and 2 -> 3 with an edge 1 -> 2 missing; node 2 is a
        // root too, so craft reachability failure differently: 0->1, 3->2,
        // 1->3 missing gives roots {0,3}. A genuinely unreachable node with a
        // unique root requires in-degree > 0 but no path from root, which in
        // an acyclic graph is impossible. So reachability failures only arise
        // with cycles, already covered; assert the validator agrees.
        let g = SubtaskGraph::new(t(), 4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.topological_order().len(), 4);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = SubtaskGraph::new(t(), 2, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.paths().len(), 1);
    }

    #[test]
    fn critical_path_selects_longest() {
        let g = SubtaskGraph::new(t(), 4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let (idx, lat) = g.critical_path(&[1.0, 5.0, 2.0, 9.0]);
        assert_eq!(lat, 10.0);
        assert_eq!(g.path(idx).subtasks(), &[0, 3]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = SubtaskGraph::new(t(), 5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap();
        let topo = g.topological_order();
        let pos = |v: usize| topo.iter().position(|&x| x == v).unwrap();
        for v in 0..5 {
            for &w in g.successors(v) {
                assert!(pos(v) < pos(w), "edge {v}->{w} violated");
            }
        }
    }

    #[test]
    fn weights_sum_rule() {
        // Sum over leaves of weight == number of paths.
        let g = SubtaskGraph::new(t(), 6, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]).unwrap();
        let total: usize = g.leaves().iter().map(|&v| g.path_weight(v)).sum();
        assert_eq!(total, g.paths().len());
    }

    #[test]
    fn path_latency_sums_members() {
        let g = SubtaskGraph::chain(t(), 3).unwrap();
        assert_eq!(g.path(0).latency(&[1.0, 2.0, 4.0]), 7.0);
    }

    #[test]
    fn max_path_len_through_chain() {
        let g = SubtaskGraph::chain(t(), 4).unwrap();
        for v in 0..4 {
            assert_eq!(g.max_path_len_through(v), 4);
        }
    }

    #[test]
    fn max_path_len_through_mixed_lengths() {
        // 0 -> 1 (leaf), 0 -> 2 -> 3 (leaf): lengths 2 and 3.
        let g = SubtaskGraph::new(t(), 4, &[(0, 1), (0, 2), (2, 3)]).unwrap();
        assert_eq!(g.max_path_len_through(0), 3, "root lies on the length-3 path");
        assert_eq!(g.max_path_len_through(1), 2, "short leaf only sees its own path");
        assert_eq!(g.max_path_len_through(2), 3);
        assert_eq!(g.max_path_len_through(3), 3);
    }

    #[test]
    fn max_path_len_matches_enumeration() {
        let g =
            SubtaskGraph::new(t(), 6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]).unwrap();
        for v in 0..6 {
            let expected = g
                .paths()
                .iter()
                .filter(|p| p.subtasks().contains(&v))
                .map(Path::len)
                .max()
                .unwrap();
            assert_eq!(g.max_path_len_through(v), expected, "node {v}");
        }
    }
}
