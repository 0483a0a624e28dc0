//! Property-based tests for DAG construction, bursts and arrival traces.

use desim::SimTime;
use proptest::prelude::*;
use workflow::{Arrival, ArrivalTrace, BurstSpec, Dag, TaskTypeId, WorkflowTypeId};

/// Generates a random DAG by sampling forward edges over `n` nodes
/// (edges only go from lower to higher indices, so acyclicity holds by
/// construction and `Dag::new` must accept it).
fn dag_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..12).prop_flat_map(|n| {
        let all_edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect();
        proptest::sample::subsequence(all_edges, 0..=n * (n - 1) / 2)
            .prop_map(move |edges| (n, edges))
    })
}

proptest! {
    /// Forward-edge graphs are always accepted, and the topological order
    /// respects every edge.
    #[test]
    fn forward_edge_graphs_are_valid_dags((n, edges) in dag_strategy()) {
        let labels = vec![TaskTypeId::new(0); n];
        let dag = Dag::new(labels, edges.clone()).expect("forward edges are acyclic");
        let mut pos = vec![0usize; n];
        for (i, &node) in dag.topo_order().iter().enumerate() {
            pos[node] = i;
        }
        for &(a, b) in &edges {
            prop_assert!(pos[a] < pos[b], "edge ({a},{b}) violated");
        }
    }

    /// Entry nodes have no incoming edges; exit nodes no outgoing; fan-in
    /// matches the edge multiset.
    #[test]
    fn structural_queries_match_edges((n, edges) in dag_strategy()) {
        let dag = Dag::new(vec![TaskTypeId::new(0); n], edges.clone()).unwrap();
        for node in 0..n {
            let indeg = edges.iter().filter(|&&(_, b)| b == node).count();
            let outdeg = edges.iter().filter(|&&(a, _)| a == node).count();
            prop_assert_eq!(dag.fan_in(node), indeg);
            prop_assert_eq!(dag.entry_nodes().contains(&node), indeg == 0);
            prop_assert_eq!(dag.exit_nodes().contains(&node), outdeg == 0);
        }
    }

    /// Depth is between 1 and n, and equals 1 exactly for edgeless graphs.
    #[test]
    fn depth_is_bounded((n, edges) in dag_strategy()) {
        let dag = Dag::new(vec![TaskTypeId::new(0); n], edges.clone()).unwrap();
        prop_assert!(dag.depth() >= 1 && dag.depth() <= n);
        if edges.is_empty() {
            prop_assert_eq!(dag.depth(), 1);
        } else {
            prop_assert!(dag.depth() >= 2);
        }
    }

    /// Adding a back edge to any forward-edge DAG with at least one edge
    /// creates a cycle that must be rejected.
    #[test]
    fn back_edge_creates_cycle((n, edges) in dag_strategy()) {
        prop_assume!(!edges.is_empty());
        let (a, b) = edges[0];
        let mut bad = edges.clone();
        bad.push((b, a));
        let result = Dag::new(vec![TaskTypeId::new(0); n], bad);
        prop_assert!(result.is_err());
    }

    /// Burst traces contain exactly the requested number of arrivals per
    /// type, all at time zero.
    #[test]
    fn burst_trace_counts(counts in proptest::collection::vec(0usize..50, 1..6)) {
        let burst = BurstSpec::new(counts.clone());
        let trace = burst.trace();
        prop_assert_eq!(trace.counts(counts.len()), counts);
        prop_assert!(trace.arrivals().iter().all(|a| a.time.is_zero()));
    }

    /// Merging traces preserves all arrivals and global time order.
    #[test]
    fn merge_preserves_arrivals(
        times_a in proptest::collection::vec(0u64..1000, 0..30),
        times_b in proptest::collection::vec(0u64..1000, 0..30),
    ) {
        let mut a: ArrivalTrace = times_a
            .iter()
            .map(|&t| Arrival::new(SimTime::from_millis(t), WorkflowTypeId::new(0)))
            .collect();
        let b: ArrivalTrace = times_b
            .iter()
            .map(|&t| Arrival::new(SimTime::from_millis(t), WorkflowTypeId::new(1)))
            .collect();
        a.merge(b);
        prop_assert_eq!(a.len(), times_a.len() + times_b.len());
        for pair in a.arrivals().windows(2) {
            prop_assert!(pair[0].time <= pair[1].time);
        }
    }
}
