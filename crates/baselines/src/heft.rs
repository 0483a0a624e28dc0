//! HEFT-style priority allocation — `heft` in the paper's figures.

use rl::policy::allocation_largest_remainder;
use workflow::Ensemble;

use crate::{Observation, Policy};

/// The HEFT adaptation described in §VI-D of the paper.
///
/// HEFT (heterogeneous earliest finish time; Yu, Buyya & Ramamohanarao) is a
/// task-machine scheduling algorithm: tasks get priorities by *upward rank*
/// — mean computation time plus the maximum rank of any successor — and
/// machines are assigned in priority order. The MIRAS paper adapts it to
/// window-based allocation: "At the beginning of each time window we make
/// resource allocation decisions based on both task number and task
/// priority." Concretely, each task type's weight is
/// `rank_u(j) · (w_j + 1)`, and the budget is divided proportionally.
///
/// # Examples
///
/// ```
/// use baselines::{HeftAllocator, Observation, Policy};
/// use workflow::Ensemble;
///
/// let mut heft = HeftAllocator::new(&Ensemble::msd(), 14);
/// let m = heft.allocate(&Observation::first(&[10.0, 0.0, 0.0, 0.0]));
/// assert!(m.iter().sum::<usize>() <= 14);
/// // The backlogged queue receives the most consumers.
/// assert_eq!(m.iter().max(), Some(&m[0]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HeftAllocator {
    /// Upward rank per task type, aggregated (maximum) over all workflows.
    ranks: Vec<f64>,
    budget: usize,
}

impl HeftAllocator {
    /// Creates a HEFT allocator for `ensemble` with total budget `budget`.
    #[must_use]
    pub fn new(ensemble: &Ensemble, budget: usize) -> Self {
        let j = ensemble.num_task_types();
        let mut ranks = vec![0.0f64; j];
        for wf in ensemble.workflows() {
            let dag = &wf.dag;
            // Upward rank per node, computed in reverse topological order:
            // rank(n) = cost(type(n)) + max over successors rank(succ).
            let mut node_rank = vec![0.0f64; dag.num_nodes()];
            for &n in dag.topo_order().iter().rev() {
                let cost = ensemble.task_type(dag.task_type(n)).mean_service_secs;
                let succ_max = dag
                    .successors(n)
                    .iter()
                    .map(|&s| node_rank[s])
                    .fold(0.0, f64::max);
                node_rank[n] = cost + succ_max;
            }
            for (n, &r) in node_rank.iter().enumerate() {
                let t = dag.task_type(n).index();
                ranks[t] = ranks[t].max(r);
            }
        }
        HeftAllocator { ranks, budget }
    }
}

impl Policy for HeftAllocator {
    fn name(&self) -> &str {
        "heft"
    }

    fn allocate(&mut self, obs: &Observation) -> Vec<usize> {
        let wip = obs.wip;
        assert_eq!(wip.len(), self.ranks.len(), "WIP dimension mismatch");
        // Weight = priority × (backlog + 1): queues with no work still keep
        // a small claim so the first tasks of high-rank workflows are not
        // starved when they arrive mid-window.
        let weights: Vec<f64> = self
            .ranks
            .iter()
            .zip(wip)
            .map(|(&r, &w)| r * (w.max(0.0) + 1.0))
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return vec![0; self.ranks.len()];
        }
        let dist: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        allocation_largest_remainder(&dist, self.budget)
    }

    fn consumer_budget(&self) -> usize {
        self.budget
    }

    fn num_task_types(&self) -> usize {
        self.ranks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upstream_tasks_have_higher_rank() {
        // In a chain A → B → C, rank(A) > rank(B) > rank(C).
        let heft = HeftAllocator::new(&Ensemble::msd(), 14);
        let ranks = heft.ranks;
        // Task A (0) starts both Type1 (A→B→C) and Type2 (A→C→D).
        // Its rank must exceed C's (2), which is near the end everywhere.
        assert!(ranks[0] > ranks[2], "{ranks:?}");
    }

    #[test]
    fn ligo_entry_stages_outrank_coire() {
        let heft = HeftAllocator::new(&Ensemble::ligo(), 30);
        let ranks = heft.ranks;
        // DataFind (0) heads two long chains; Coire (7) is terminal.
        assert!(ranks[0] > ranks[7], "{ranks:?}");
    }

    #[test]
    fn allocation_tracks_backlog_and_priority() {
        let mut heft = HeftAllocator::new(&Ensemble::msd(), 14);
        let balanced = heft.allocate(&Observation::first(&[5.0, 5.0, 5.0, 5.0]));
        let skewed = heft.allocate(&Observation::first(&[50.0, 5.0, 5.0, 5.0]));
        assert!(skewed[0] > balanced[0], "{balanced:?} vs {skewed:?}");
    }

    #[test]
    fn budget_respected_and_fully_used() {
        let mut heft = HeftAllocator::new(&Ensemble::ligo(), 30);
        let m = heft.allocate(&Observation::first(&[1.0; 9]));
        assert_eq!(m.iter().sum::<usize>(), 30);
    }

    #[test]
    fn zero_wip_still_allocates_by_priority() {
        let mut heft = HeftAllocator::new(&Ensemble::msd(), 14);
        let m = heft.allocate(&Observation::first(&[0.0; 4]));
        assert_eq!(m.iter().sum::<usize>(), 14);
        assert!(m[0] >= m[3], "{m:?}");
    }
}
