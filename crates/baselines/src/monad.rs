//! MONAD: model-predictive-control resource allocation (Nguyen & Nahrstedt,
//! ICAC 2017) — `monad` in the paper's figures.

use microsim::WindowMetrics;

use crate::{Observation, Policy};

/// The MONAD allocator: one-step model-predictive control over an
/// online-identified linear performance model.
///
/// MONAD identifies, per microservice, a linear model of how WIP evolves:
/// `ŵ_j(k+1) = w_j(k) + â_j − d̂_j · m_j(k)`, where `â_j` is the estimated
/// per-window task inflow and `d̂_j` the per-consumer drain rate. Both are
/// tracked with exponential moving averages from observed transitions. Each
/// window it picks the allocation minimising the *predicted next-window*
/// cost `Σ_j max(0, ŵ_j(k+1))²` by greedy marginal assignment (optimal for
/// this separable convex objective).
///
/// The quadratic cost makes MONAD chase the currently largest queues — the
/// short-horizon behaviour the paper criticises: "MONAD focuses on
/// short-term returns and is not suitable to yield a global optimal
/// solution" (§VI-D).
///
/// # Examples
///
/// ```
/// use baselines::{MonadAllocator, Observation, Policy};
///
/// let mut monad = MonadAllocator::new(4, 14, 30.0);
/// let m = monad.allocate(&Observation::first(&[40.0, 5.0, 5.0, 0.0]));
/// assert!(m.iter().sum::<usize>() <= 14);
/// // The big queue dominates the one-step objective.
/// assert!(m[0] >= m[3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MonadAllocator {
    /// Estimated per-window task inflow per queue.
    inflow: Vec<f64>,
    /// Estimated per-consumer, per-window drain per queue.
    drain: Vec<f64>,
    smoothing: f64,
    budget: usize,
}

impl MonadAllocator {
    /// Creates a MONAD allocator for `num_task_types` queues with total
    /// budget `budget` and `window_secs`-second windows.
    ///
    /// The drain estimate starts from the optimistic prior of one task per
    /// consumer per 4 seconds and is corrected online.
    ///
    /// # Panics
    ///
    /// Panics if `num_task_types` is zero.
    #[must_use]
    pub fn new(num_task_types: usize, budget: usize, window_secs: f64) -> Self {
        assert!(num_task_types > 0, "need at least one task type");
        MonadAllocator {
            inflow: vec![0.0; num_task_types],
            drain: vec![window_secs / 4.0; num_task_types],
            smoothing: 0.3,
            budget,
        }
    }

    /// The current per-queue inflow estimates (tasks per window).
    #[must_use]
    pub fn inflow_estimates(&self) -> &[f64] {
        &self.inflow
    }

    /// The current per-consumer drain estimates (tasks per window).
    #[must_use]
    pub fn drain_estimates(&self) -> &[f64] {
        &self.drain
    }

    /// Predicted next-window cost of one queue under `m` consumers.
    fn queue_cost(&self, j: usize, wip: f64, m: usize) -> f64 {
        let predicted = (wip + self.inflow[j] - self.drain[j] * m as f64).max(0.0);
        predicted * predicted
    }

    /// Updates the linear model from an observed transition
    /// `w(k) → w(k+1)` under the previously applied allocation.
    fn identify(&mut self, previous: &WindowMetrics, wip_now: &[f64]) {
        for (j, &w_after) in wip_now.iter().enumerate() {
            let w_before = previous.wip.get(j).copied().unwrap_or(0) as f64;
            let m = previous.action_applied.get(j).copied().unwrap_or(0) as f64;
            // Observed net change decomposes as inflow − drain·m. With one
            // equation and two unknowns per step, attribute the change to
            // drain when consumers were present and the queue was backlogged,
            // otherwise to inflow.
            if m > 0.0 && w_before > 0.0 {
                let drained = (w_before + self.inflow[j] - w_after).max(0.0);
                let observed_drain = (drained / m).max(0.0);
                self.drain[j] =
                    (1.0 - self.smoothing) * self.drain[j] + self.smoothing * observed_drain;
            } else {
                let observed_inflow = (w_after - w_before).max(0.0);
                self.inflow[j] =
                    (1.0 - self.smoothing) * self.inflow[j] + self.smoothing * observed_inflow;
            }
        }
    }
}

impl Policy for MonadAllocator {
    fn name(&self) -> &str {
        "monad"
    }

    fn allocate(&mut self, obs: &Observation) -> Vec<usize> {
        let wip = obs.wip;
        let j = self.inflow.len();
        assert_eq!(wip.len(), j, "WIP dimension mismatch");
        if let Some(prev) = obs.previous {
            self.identify(prev, wip);
        }
        // Greedy marginal assignment on the separable convex cost.
        let mut alloc = vec![0usize; j];
        for _ in 0..self.budget {
            let mut best_gain = 0.0;
            let mut best_j = None;
            for idx in 0..j {
                let gain = self.queue_cost(idx, wip[idx], alloc[idx])
                    - self.queue_cost(idx, wip[idx], alloc[idx] + 1);
                if gain > best_gain {
                    best_gain = gain;
                    best_j = Some(idx);
                }
            }
            match best_j {
                // No queue benefits from another consumer: stop early —
                // MONAD does not allocate beyond predicted need.
                None => break,
                Some(idx) => alloc[idx] += 1,
            }
        }
        alloc
    }

    fn consumer_budget(&self) -> usize {
        self.budget
    }

    fn num_task_types(&self) -> usize {
        self.inflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(wip: Vec<usize>, action: Vec<usize>) -> WindowMetrics {
        let n = wip.len();
        WindowMetrics {
            window_index: 0,
            wip,
            reward: 0.0,
            action_applied: action,
            constraint_violated: false,
            arrivals: vec![0; n],
            completions: vec![0; n],
            mean_response_secs: vec![None; n],
        }
    }

    #[test]
    fn biggest_queue_gets_priority() {
        let mut monad = MonadAllocator::new(3, 9, 30.0);
        let m = monad.allocate(&Observation::first(&[100.0, 10.0, 0.0]));
        assert!(m[0] > m[1], "{m:?}");
        assert!(m[1] >= m[2], "{m:?}");
    }

    #[test]
    fn stops_allocating_when_queues_are_empty() {
        let mut monad = MonadAllocator::new(3, 9, 30.0);
        let m = monad.allocate(&Observation::first(&[0.0, 0.0, 0.0]));
        // Zero predicted cost everywhere: no consumers needed.
        assert_eq!(m.iter().sum::<usize>(), 0);
    }

    #[test]
    fn drain_estimate_adapts_to_observations() {
        let mut monad = MonadAllocator::new(1, 4, 30.0);
        let initial_drain = monad.drain_estimates()[0];
        // Previous window: WIP 20 with 2 consumers; now WIP 16 → the pair
        // drained ~4, i.e. 2 per consumer — slower than the prior of 7.5.
        let prev = metrics(vec![20], vec![2]);
        let _ = monad.allocate(&Observation::new(&[16.0], Some(&prev), 1));
        assert!(monad.drain_estimates()[0] < initial_drain);
    }

    #[test]
    fn inflow_estimate_adapts_when_unserved() {
        let mut monad = MonadAllocator::new(1, 4, 30.0);
        // No consumers, queue grew from 0 to 12: inflow must rise.
        let prev = metrics(vec![0], vec![0]);
        let _ = monad.allocate(&Observation::new(&[12.0], Some(&prev), 1));
        assert!(monad.inflow_estimates()[0] > 0.0);
    }

    #[test]
    fn budget_never_exceeded() {
        let mut monad = MonadAllocator::new(4, 14, 30.0);
        let m = monad.allocate(&Observation::first(&[1000.0, 1000.0, 1000.0, 1000.0]));
        assert!(m.iter().sum::<usize>() <= 14);
    }

    #[test]
    fn marginal_assignment_equalises_large_queues() {
        let mut monad = MonadAllocator::new(2, 10, 30.0);
        let m = monad.allocate(&Observation::first(&[500.0, 500.0]));
        // Symmetric queues: split within one consumer of even.
        assert!((m[0] as i64 - m[1] as i64).abs() <= 1, "{m:?}");
    }
}
