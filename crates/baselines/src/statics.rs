//! Static reference allocators.

use rl::policy::{allocation_largest_remainder, distribution_from_allocation};

use crate::{Observation, Policy};

/// Splits the budget evenly across task types, ignoring the observed state.
///
/// # Examples
///
/// ```
/// use baselines::{Observation, Policy, UniformAllocator};
///
/// let mut u = UniformAllocator::new(4, 14);
/// let m = u.allocate(&Observation::first(&[0.0; 4]));
/// assert_eq!(m.iter().sum::<usize>(), 14);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformAllocator {
    num_task_types: usize,
    budget: usize,
}

impl UniformAllocator {
    /// Creates a uniform allocator over `num_task_types` task types.
    ///
    /// # Panics
    ///
    /// Panics if `num_task_types` is zero.
    #[must_use]
    pub fn new(num_task_types: usize, budget: usize) -> Self {
        assert!(num_task_types > 0, "need at least one task type");
        UniformAllocator {
            num_task_types,
            budget,
        }
    }
}

impl Policy for UniformAllocator {
    fn name(&self) -> &str {
        "uniform"
    }

    fn allocate(&mut self, _obs: &Observation) -> Vec<usize> {
        let even = vec![1.0 / self.num_task_types as f64; self.num_task_types];
        allocation_largest_remainder(&even, self.budget)
    }

    fn consumer_budget(&self) -> usize {
        self.budget
    }

    fn num_task_types(&self) -> usize {
        self.num_task_types
    }
}

/// Allocates consumers proportionally to each queue's share of total WIP —
/// the simplest adaptive heuristic and a useful floor for the learned
/// policies.
///
/// # Examples
///
/// ```
/// use baselines::{Observation, Policy, WipProportionalAllocator};
///
/// let mut p = WipProportionalAllocator::new(2, 10);
/// let m = p.allocate(&Observation::first(&[30.0, 10.0]));
/// assert_eq!(m, vec![8, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WipProportionalAllocator {
    num_task_types: usize,
    budget: usize,
}

impl WipProportionalAllocator {
    /// Creates a WIP-proportional allocator.
    ///
    /// # Panics
    ///
    /// Panics if `num_task_types` is zero.
    #[must_use]
    pub fn new(num_task_types: usize, budget: usize) -> Self {
        assert!(num_task_types > 0, "need at least one task type");
        WipProportionalAllocator {
            num_task_types,
            budget,
        }
    }
}

impl Policy for WipProportionalAllocator {
    fn name(&self) -> &str {
        "wip-proportional"
    }

    fn allocate(&mut self, obs: &Observation) -> Vec<usize> {
        let wip = obs.wip;
        assert_eq!(wip.len(), self.num_task_types, "WIP dimension mismatch");
        let counts: Vec<usize> = wip.iter().map(|&w| w.max(0.0).round() as usize).collect();
        let dist = distribution_from_allocation(&counts);
        allocation_largest_remainder(&dist, self.budget)
    }

    fn consumer_budget(&self) -> usize {
        self.budget
    }

    fn num_task_types(&self) -> usize {
        self.num_task_types
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_splits_evenly_with_remainder() {
        let mut u = UniformAllocator::new(3, 14);
        let m = u.allocate(&Observation::first(&[1.0, 2.0, 3.0]));
        assert_eq!(m.iter().sum::<usize>(), 14);
        assert!(m.iter().all(|&x| x == 4 || x == 5));
    }

    #[test]
    fn proportional_follows_backlog() {
        let mut p = WipProportionalAllocator::new(3, 12);
        let m = p.allocate(&Observation::first(&[60.0, 30.0, 30.0]));
        assert_eq!(m, vec![6, 3, 3]);
    }

    #[test]
    fn proportional_handles_all_zero_wip() {
        let mut p = WipProportionalAllocator::new(4, 14);
        let m = p.allocate(&Observation::first(&[0.0; 4]));
        assert_eq!(m.iter().sum::<usize>(), 14);
    }

    #[test]
    fn budgets_are_respected() {
        let mut u = UniformAllocator::new(5, 7);
        let mut p = WipProportionalAllocator::new(5, 7);
        for wip in [[0.0; 5], [100.0, 0.0, 0.0, 0.0, 0.0]] {
            assert!(u.allocate(&Observation::first(&wip)).iter().sum::<usize>() <= 7);
            assert!(p.allocate(&Observation::first(&wip)).iter().sum::<usize>() <= 7);
        }
    }
}
