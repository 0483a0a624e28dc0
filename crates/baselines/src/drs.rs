//! DRS: Jackson open-queueing-network resource scheduling (Fu et al.,
//! ICDCS 2015) — `stream` in the paper's comparison figures.

use workflow::Ensemble;

use crate::{Observation, Policy};

/// The DRS allocator.
///
/// DRS models each microservice as an M/M/m queue in a Jackson open network.
/// Given per-queue arrival-rate estimates `λ_j` and service rates `μ_j`, it
/// chooses the consumer vector minimising the network's total expected
/// sojourn time `Σ_j λ_j · T_j(m_j)` under `Σ_j m_j ≤ C`, where `T_j` is the
/// Erlang-C expected response time of an M/m/m queue. The minimisation is
/// the standard greedy marginal-benefit allocation (optimal because
/// `λ·T(m)` is convex in `m`).
///
/// Arrival rates are derived from the workflow ensemble's routing (every
/// type-`i` workflow visits task `j` a fixed number of times) applied to an
/// exponentially averaged estimate of per-workflow arrival rates — DRS
/// assumes steady-state flows, which is exactly why the paper finds it "does
/// not react responsively to condition changes".
///
/// # Examples
///
/// ```
/// use baselines::{DrsAllocator, Observation, Policy};
/// use workflow::Ensemble;
///
/// let mut drs = DrsAllocator::new(&Ensemble::msd(), 14, 30.0);
/// let m = drs.allocate(&Observation::first(&[5.0, 5.0, 5.0, 5.0]));
/// assert!(m.iter().sum::<usize>() <= 14);
/// ```
#[derive(Debug, Clone)]
pub struct DrsAllocator {
    /// Service rate per consumer of each task type (requests/s).
    mu: Vec<f64>,
    /// Visits of each task type per workflow-type request.
    visits: Vec<Vec<f64>>, // [workflow][task]
    /// EWMA of per-workflow arrival rates (requests/s).
    lambda_wf: Vec<f64>,
    /// EWMA smoothing factor for arrival estimates.
    smoothing: f64,
    window_secs: f64,
    budget: usize,
}

impl DrsAllocator {
    /// Creates a DRS allocator for `ensemble` with total budget `budget` and
    /// decision windows of `window_secs` seconds.
    ///
    /// Arrival estimates start from the ensemble's default rates.
    #[must_use]
    pub fn new(ensemble: &Ensemble, budget: usize, window_secs: f64) -> Self {
        let j = ensemble.num_task_types();
        let mu = ensemble
            .task_types()
            .iter()
            .map(|t| 1.0 / t.mean_service_secs)
            .collect();
        let visits = ensemble
            .workflows()
            .iter()
            .map(|w| {
                let mut v = vec![0.0; j];
                for &tt in w.dag.task_types() {
                    v[tt.index()] += 1.0;
                }
                v
            })
            .collect();
        DrsAllocator {
            mu,
            visits,
            lambda_wf: ensemble.default_arrival_rates().to_vec(),
            smoothing: 0.3,
            window_secs,
            budget,
        }
    }

    /// Current per-task arrival-rate estimates `λ_j` (requests/s).
    #[must_use]
    pub fn task_arrival_rates(&self) -> Vec<f64> {
        let j = self.mu.len();
        let mut lambda = vec![0.0; j];
        for (wf, rate) in self.lambda_wf.iter().enumerate() {
            for (t, v) in self.visits[wf].iter().enumerate() {
                lambda[t] += rate * v;
            }
        }
        lambda
    }

    /// Expected M/M/m response time (Erlang-C): `W_q + 1/μ`, or infinity
    /// when the queue is unstable (`λ ≥ m·μ`). Delegates to
    /// [`crate::queueing`], which the differential validation harness also
    /// checks the simulator against.
    fn expected_response(lambda: f64, mu: f64, m: usize) -> f64 {
        if lambda <= 0.0 {
            return 1.0 / mu;
        }
        crate::queueing::mmc_mean_response(lambda, mu, m)
    }

    /// Total weighted sojourn-time objective for an allocation.
    fn objective(&self, lambda: &[f64], alloc: &[usize]) -> f64 {
        lambda
            .iter()
            .zip(&self.mu)
            .zip(alloc)
            .map(|((&l, &mu), &m)| {
                if l <= 0.0 {
                    0.0
                } else {
                    l * Self::expected_response(l, mu, m)
                }
            })
            .sum()
    }
}

impl Policy for DrsAllocator {
    fn name(&self) -> &str {
        "stream"
    }

    fn allocate(&mut self, obs: &Observation) -> Vec<usize> {
        let j = self.mu.len();
        assert_eq!(obs.wip.len(), j, "WIP dimension mismatch");

        // Update workflow arrival estimates from the last window.
        if let Some(metrics) = obs.previous {
            for (est, &count) in self.lambda_wf.iter_mut().zip(&metrics.arrivals) {
                let observed = count as f64 / self.window_secs;
                *est = (1.0 - self.smoothing) * *est + self.smoothing * observed;
            }
        }

        let lambda = self.task_arrival_rates();
        // Greedy marginal-benefit allocation: hand out consumers one at a
        // time to the queue whose objective improves the most.
        let mut alloc = vec![0usize; j];
        for _ in 0..self.budget {
            let current = self.objective(&lambda, &alloc);
            let mut best_gain = f64::NEG_INFINITY;
            let mut best_j = 0;
            for idx in 0..j {
                alloc[idx] += 1;
                let with = self.objective(&lambda, &alloc);
                alloc[idx] -= 1;
                let gain = if current.is_infinite() && with.is_infinite() {
                    // Both unstable: prefer stabilising the largest offered
                    // load first.
                    lambda[idx] / self.mu[idx] - alloc[idx] as f64
                } else {
                    current - with
                };
                if gain > best_gain {
                    best_gain = gain;
                    best_j = idx;
                }
            }
            alloc[best_j] += 1;
        }
        alloc
    }

    fn consumer_budget(&self) -> usize {
        self.budget
    }

    fn num_task_types(&self) -> usize {
        self.mu.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsim::WindowMetrics;

    #[test]
    fn erlang_c_reduces_to_mm1() {
        // For m = 1, E[T] = 1 / (μ − λ).
        let t = DrsAllocator::expected_response(0.5, 1.0, 1);
        assert!((t - 2.0).abs() < 1e-9);
    }

    #[test]
    fn erlang_c_unstable_is_infinite() {
        assert!(DrsAllocator::expected_response(2.0, 1.0, 1).is_infinite());
        assert!(DrsAllocator::expected_response(2.0, 1.0, 2).is_infinite());
        assert!(DrsAllocator::expected_response(2.0, 1.0, 3).is_finite());
    }

    #[test]
    fn more_servers_never_hurt() {
        let mut last = f64::INFINITY;
        for m in 1..10 {
            let t = DrsAllocator::expected_response(1.5, 1.0, m);
            assert!(t <= last + 1e-12, "m={m}");
            last = t;
        }
    }

    #[test]
    fn allocation_uses_full_budget_and_stabilises_queues() {
        let ensemble = Ensemble::msd();
        let mut drs = DrsAllocator::new(&ensemble, 14, 30.0);
        let alloc = drs.allocate(&Observation::first(&[0.0; 4]));
        assert_eq!(alloc.iter().sum::<usize>(), 14);
        // Every queue with demand must be stable under the default rates.
        let lambda = drs.task_arrival_rates();
        for ((&l, &m), tt) in lambda.iter().zip(&alloc).zip(ensemble.task_types()) {
            let mu = 1.0 / tt.mean_service_secs;
            assert!(
                (m as f64) * mu > l,
                "unstable queue {}: m={m}, λ={l}, μ={mu}",
                tt.name
            );
        }
    }

    #[test]
    fn heavier_queues_get_more_consumers() {
        let ensemble = Ensemble::msd();
        let mut drs = DrsAllocator::new(&ensemble, 14, 30.0);
        let alloc = drs.allocate(&Observation::first(&[0.0; 4]));
        // Task C (index 2) is visited by all three workflows with the
        // largest mean service time, so it should receive the most.
        let max = alloc.iter().copied().max().unwrap();
        assert_eq!(alloc[2], max, "{alloc:?}");
    }

    #[test]
    fn arrival_estimates_track_observations() {
        let ensemble = Ensemble::msd();
        let mut drs = DrsAllocator::new(&ensemble, 14, 30.0);
        let before = drs.task_arrival_rates();
        let metrics = WindowMetrics {
            window_index: 0,
            wip: vec![0; 4],
            reward: 1.0,
            action_applied: vec![0; 4],
            constraint_violated: false,
            arrivals: vec![90, 0, 0], // a burst of Type1
            completions: vec![0; 3],
            mean_response_secs: vec![None; 3],
        };
        let _ = drs.allocate(&Observation::new(&[0.0; 4], Some(&metrics), 1));
        let after = drs.task_arrival_rates();
        // Type1 = A → B → C: those queues' estimates grow.
        assert!(after[0] > before[0]);
        assert!(after[1] > before[1]);
        assert!(after[2] > before[2]);
    }

    #[test]
    fn ligo_allocation_within_budget() {
        let ensemble = Ensemble::ligo();
        let mut drs = DrsAllocator::new(&ensemble, 30, 30.0);
        let alloc = drs.allocate(&Observation::first(&[1.0; 9]));
        assert_eq!(alloc.iter().sum::<usize>(), 30);
        // Inspiral (index 2) is the heavy stage shared by all workflows.
        let max = alloc.iter().copied().max().unwrap();
        assert_eq!(alloc[2], max, "{alloc:?}");
    }
}
