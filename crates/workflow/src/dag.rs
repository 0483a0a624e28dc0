//! Directed acyclic task graphs for individual workflow types.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::TaskTypeId;

/// Errors produced when constructing or validating a [`Dag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The graph has no nodes.
    Empty,
    /// An edge referenced a node index outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// An edge connects a node to itself.
    SelfLoop(usize),
    /// The same edge was specified more than once.
    DuplicateEdge(usize, usize),
    /// The edge set contains a cycle, so the graph is not a DAG.
    Cycle,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "workflow graph has no nodes"),
            DagError::NodeOutOfRange { node, num_nodes } => write!(
                f,
                "edge references node {node} but the graph has {num_nodes} nodes"
            ),
            DagError::SelfLoop(n) => write!(f, "node {n} has a self-loop"),
            DagError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            DagError::Cycle => write!(f, "task graph contains a cycle"),
        }
    }
}

impl std::error::Error for DagError {}

/// The task graph of one workflow type.
///
/// Nodes are *task instances*; each node is labelled with the [`TaskTypeId`]
/// of the microservice that processes it. Edges are precedence constraints:
/// a node becomes ready once **all** of its predecessors have completed
/// (AND-join semantics, as in scientific workflow systems).
///
/// The structure is immutable after construction and validated to be a
/// non-empty DAG.
///
/// # Examples
///
/// A diamond `0 → {1,2} → 3`:
///
/// ```
/// use workflow::{Dag, TaskTypeId};
///
/// let t = |i| TaskTypeId::new(i);
/// let dag = Dag::new(vec![t(0), t(1), t(2), t(0)],
///                    vec![(0, 1), (0, 2), (1, 3), (2, 3)])?;
/// assert_eq!(dag.entry_nodes(), &[0]);
/// assert_eq!(dag.fan_in(3), 2);
/// assert_eq!(dag.successors(0), &[1, 2]);
/// # Ok::<(), workflow::DagError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dag {
    task_types: Vec<TaskTypeId>,
    edges: Vec<(usize, usize)>,
    successors: Vec<Vec<usize>>,
    fan_in: Vec<usize>,
    entry_nodes: Vec<usize>,
    exit_nodes: Vec<usize>,
    topo_order: Vec<usize>,
}

impl Dag {
    /// Builds a DAG from node labels and precedence edges.
    ///
    /// # Errors
    ///
    /// Returns a [`DagError`] when the node set is empty, an edge references
    /// a missing node, an edge is a self-loop or duplicated, or the edges
    /// form a cycle.
    pub fn new(task_types: Vec<TaskTypeId>, edges: Vec<(usize, usize)>) -> Result<Self, DagError> {
        let n = task_types.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        let mut successors = vec![Vec::new(); n];
        let mut fan_in = vec![0usize; n];
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &edges {
            for node in [a, b] {
                if node >= n {
                    return Err(DagError::NodeOutOfRange { node, num_nodes: n });
                }
            }
            if a == b {
                return Err(DagError::SelfLoop(a));
            }
            if !seen.insert((a, b)) {
                return Err(DagError::DuplicateEdge(a, b));
            }
            successors[a].push(b);
            fan_in[b] += 1;
        }

        // Kahn's algorithm: validates acyclicity and yields a deterministic
        // topological order (ready nodes processed in index order).
        let mut indegree = fan_in.clone();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut topo_order = Vec::with_capacity(n);
        let mut cursor = 0;
        ready.sort_unstable();
        while cursor < ready.len() {
            let u = ready[cursor];
            cursor += 1;
            topo_order.push(u);
            for &v in &successors[u] {
                indegree[v] -= 1;
                if indegree[v] == 0 {
                    ready.push(v);
                }
            }
        }
        if topo_order.len() != n {
            return Err(DagError::Cycle);
        }

        let entry_nodes: Vec<usize> = (0..n).filter(|&i| fan_in[i] == 0).collect();
        let exit_nodes: Vec<usize> = (0..n).filter(|&i| successors[i].is_empty()).collect();

        Ok(Dag {
            task_types,
            edges,
            successors,
            fan_in,
            entry_nodes,
            exit_nodes,
            topo_order,
        })
    }

    /// Builds a linear chain over the given task types (a pipeline workflow).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::Empty`] when `task_types` is empty.
    pub fn chain(task_types: Vec<TaskTypeId>) -> Result<Self, DagError> {
        let edges = (1..task_types.len()).map(|i| (i - 1, i)).collect();
        Dag::new(task_types, edges)
    }

    /// Number of task nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.task_types.len()
    }

    /// The task type processed at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    #[must_use]
    pub fn task_type(&self, node: usize) -> TaskTypeId {
        self.task_types[node]
    }

    /// All node labels, indexed by node.
    #[must_use]
    pub fn task_types(&self) -> &[TaskTypeId] {
        &self.task_types
    }

    /// Nodes with no predecessors — the tasks released when a workflow
    /// request arrives.
    #[must_use]
    pub fn entry_nodes(&self) -> &[usize] {
        &self.entry_nodes
    }

    /// Nodes with no successors — the workflow is complete when all of these
    /// have finished.
    #[must_use]
    pub fn exit_nodes(&self) -> &[usize] {
        &self.exit_nodes
    }

    /// Direct successors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    #[must_use]
    pub fn successors(&self, node: usize) -> &[usize] {
        &self.successors[node]
    }

    /// Number of predecessors of `node` (the AND-join width).
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.num_nodes()`.
    #[must_use]
    pub fn fan_in(&self, node: usize) -> usize {
        self.fan_in[node]
    }

    /// A deterministic topological ordering of the nodes.
    #[must_use]
    pub fn topo_order(&self) -> &[usize] {
        &self.topo_order
    }

    /// Length (in nodes) of the longest path through the DAG — the workflow's
    /// critical-path depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut dist = vec![1usize; self.num_nodes()];
        for &u in &self.topo_order {
            for &v in &self.successors[u] {
                dist[v] = dist[v].max(dist[u] + 1);
            }
        }
        dist.into_iter().max().unwrap_or(0)
    }

    /// Renders the DAG in Graphviz DOT format. Node labels come from
    /// `task_names` when provided (indexed by [`TaskTypeId`]), otherwise the
    /// numeric task-type index is used.
    ///
    /// # Examples
    ///
    /// ```
    /// use workflow::{Dag, TaskTypeId};
    ///
    /// let dag = Dag::chain(vec![TaskTypeId::new(0), TaskTypeId::new(1)])?;
    /// let dot = dag.to_dot("wf", None);
    /// assert!(dot.contains("digraph wf"));
    /// assert!(dot.contains("n0 -> n1"));
    /// # Ok::<(), workflow::DagError>(())
    /// ```
    #[must_use]
    pub fn to_dot(&self, name: &str, task_names: Option<&[String]>) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        for (node, &tt) in self.task_types.iter().enumerate() {
            let label = task_names
                .and_then(|names| names.get(tt.index()).cloned())
                .unwrap_or_else(|| format!("task{}", tt.index()));
            let _ = writeln!(out, "  n{node} [label=\"{label}\"];");
        }
        for &(a, b) in &self.edges {
            let _ = writeln!(out, "  n{a} -> n{b};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskTypeId {
        TaskTypeId::new(i)
    }

    #[test]
    fn chain_builds_pipeline() {
        let d = Dag::chain(vec![t(0), t(1), t(2)]).unwrap();
        assert_eq!(d.entry_nodes(), &[0]);
        assert_eq!(d.exit_nodes(), &[2]);
        assert_eq!(d.depth(), 3);
        assert_eq!(d.topo_order(), &[0, 1, 2]);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Dag::new(vec![], vec![]), Err(DagError::Empty));
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = Dag::new(vec![t(0)], vec![(0, 1)]).unwrap_err();
        assert_eq!(
            err,
            DagError::NodeOutOfRange {
                node: 1,
                num_nodes: 1
            }
        );
    }

    #[test]
    fn self_loop_rejected() {
        let err = Dag::new(vec![t(0), t(1)], vec![(1, 1)]).unwrap_err();
        assert_eq!(err, DagError::SelfLoop(1));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let err = Dag::new(vec![t(0), t(1)], vec![(0, 1), (0, 1)]).unwrap_err();
        assert_eq!(err, DagError::DuplicateEdge(0, 1));
    }

    #[test]
    fn cycle_rejected() {
        let err = Dag::new(vec![t(0), t(1), t(2)], vec![(0, 1), (1, 2), (2, 0)]).unwrap_err();
        assert_eq!(err, DagError::Cycle);
    }

    #[test]
    fn diamond_join_semantics() {
        let d = Dag::new(
            vec![t(0), t(1), t(2), t(3)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        assert_eq!(d.fan_in(3), 2);
        assert_eq!(d.entry_nodes(), &[0]);
        assert_eq!(d.exit_nodes(), &[3]);
        assert_eq!(d.depth(), 3);
    }

    #[test]
    fn multiple_entries_and_exits() {
        // 0 → 2, 1 → 2, 2 → {3, 4}
        let d = Dag::new(vec![t(0); 5], vec![(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
        assert_eq!(d.entry_nodes(), &[0, 1]);
        assert_eq!(d.exit_nodes(), &[3, 4]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let d = Dag::new(vec![t(0); 6], vec![(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &n) in d.topo_order().iter().enumerate() {
                p[n] = i;
            }
            p
        };
        for &(a, b) in &d.edges {
            assert!(pos[a] < pos[b]);
        }
    }

    #[test]
    fn dot_export_contains_all_nodes_and_edges() {
        let d = Dag::new(
            vec![t(0), t(1), t(2), t(0)],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap();
        let names = vec!["A".to_string(), "B".to_string(), "C".to_string()];
        let dot = d.to_dot("diamond", Some(&names));
        assert!(dot.starts_with("digraph diamond {"));
        for edge in ["n0 -> n1", "n0 -> n2", "n1 -> n3", "n2 -> n3"] {
            assert!(dot.contains(edge), "missing {edge} in {dot}");
        }
        assert!(dot.contains("label=\"A\""));
        assert!(dot.matches("label=\"A\"").count() == 2); // nodes 0 and 3
    }

    #[test]
    fn depth_of_parallel_graph_is_one() {
        let d = Dag::new(vec![t(0), t(1), t(2)], vec![]).unwrap();
        assert_eq!(d.depth(), 1);
        assert_eq!(d.entry_nodes().len(), 3);
    }
}
