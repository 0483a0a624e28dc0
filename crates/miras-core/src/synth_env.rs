//! The learnt model wrapped as a synthetic training environment.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rl::policy::allocation_largest_remainder;
use rl::{Environment, Transition as RlTransition};

use crate::{RefinedModel, TransitionDataset};

/// A synthetic environment that steps the refined environment model instead
/// of the real cluster (paper §IV-D: "we train a deep reinforcement learning
/// agent by letting it interact with the learnt environment model instead of
/// the actual real environment").
///
/// Initial states are drawn from the collected dataset; rewards follow the
/// paper's `r = 1 − Σ_j ŵ_j`.
///
/// This is the single-environment reference: the trainer's rollout engine
/// steps a [`BatchedSyntheticEnv`](crate::BatchedSyntheticEnv), whose every
/// lane the tests hold to this type bit for bit.
///
/// # Examples
///
/// ```
/// use miras_core::{DynamicsModel, MirasConfig, RefinedModel, SyntheticEnv,
///                  Transition, TransitionDataset};
/// use rl::Environment;
///
/// let mut data = TransitionDataset::new(2);
/// for i in 0..40 {
///     data.push(Transition {
///         state: vec![i as f64, 1.0],
///         action: vec![1.0, 1.0],
///         next_state: vec![i as f64 * 0.5, 1.0],
///     });
/// }
/// let mut model = DynamicsModel::new(2, &MirasConfig::smoke_test(0));
/// model.train(&data, 5, 16);
/// let refined = RefinedModel::fit(model, &data, 10.0);
/// let mut env = SyntheticEnv::new(refined, data, 14, 3);
/// let s = env.reset();
/// let t = env.step(&[0.5, 0.5]);
/// assert_eq!(t.next_state.len(), s.len());
/// ```
#[derive(Debug)]
pub struct SyntheticEnv {
    model: RefinedModel,
    init_states: TransitionDataset,
    consumer_budget: usize,
    state: Vec<f64>,
    /// Per-dimension cap on predicted states: 1.2 × the largest WIP observed
    /// in the dataset. Open-loop neural rollouts compound one-step error and
    /// can diverge far outside the training distribution (visible in the
    /// paper's own Fig. 5 iterative traces); clamping keeps the policy
    /// training inside the region where the model is meaningful.
    state_cap: Vec<f64>,
    rng: SmallRng,
    lend_triggers: u64,
    /// Reused per-step buffer for the f64 view of the discretised
    /// allocation, so stepping does not allocate it afresh each call.
    action_buf: Vec<f64>,
}

impl SyntheticEnv {
    /// Creates a synthetic environment.
    ///
    /// `init_states` provides the initial-state distribution (states
    /// observed on the real system); `consumer_budget` is the constraint
    /// `C` used to discretise actions.
    ///
    /// # Panics
    ///
    /// Panics if `init_states` is empty or its dimensionality differs from
    /// the model's.
    #[must_use]
    pub fn new(
        model: RefinedModel,
        init_states: TransitionDataset,
        consumer_budget: usize,
        seed: u64,
    ) -> Self {
        assert!(!init_states.is_empty(), "need initial states to sample");
        assert_eq!(
            init_states.state_dim(),
            model.model().state_dim(),
            "dimension mismatch"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let state = init_states.sample_state(&mut rng);
        let j = init_states.state_dim();
        let mut state_cap = vec![0.0f64; j];
        for t in init_states.transitions() {
            for (cap, &v) in state_cap.iter_mut().zip(&t.state) {
                *cap = cap.max(v);
            }
        }
        for cap in &mut state_cap {
            *cap = (*cap * 1.2).max(10.0);
        }
        SyntheticEnv {
            model,
            init_states,
            consumer_budget,
            state,
            state_cap,
            rng,
            lend_triggers: 0,
            action_buf: Vec::with_capacity(j),
        }
    }
}

impl Environment for SyntheticEnv {
    fn state_dim(&self) -> usize {
        self.model.model().state_dim()
    }

    fn action_dim(&self) -> usize {
        self.model.model().state_dim()
    }

    fn reset(&mut self) -> Vec<f64> {
        self.state = self.init_states.sample_state(&mut self.rng);
        self.state.clone()
    }

    fn step(&mut self, action: &[f64]) -> RlTransition {
        let allocation = allocation_largest_remainder(action, self.consumer_budget);
        self.action_buf.clear();
        self.action_buf.extend(allocation.iter().map(|&v| v as f64));
        // Mirror the `state[j] < τ_j` test RefinedModel::predict applies, so
        // the trigger count matches the lends actually performed.
        let triggers = self
            .state
            .iter()
            .zip(self.model.tau())
            .filter(|(s, tau)| *s < tau)
            .count() as u64;
        self.lend_triggers += triggers;
        let mut next = self
            .model
            .predict(&self.state, &self.action_buf, &mut self.rng);
        for (v, &cap) in next.iter_mut().zip(&self.state_cap) {
            *v = v.min(cap);
        }
        let reward = microsim::reward_from_total_wip(next.iter().sum::<f64>());
        // The prediction is the single materialisation: copy it into the
        // stored state and hand the buffer itself to the caller.
        self.state.copy_from_slice(&next);
        RlTransition {
            next_state: next,
            reward,
        }
    }
}

#[cfg(test)]
impl SyntheticEnv {
    /// Number of Lend–Giveback trigger firings observed so far (state
    /// dimensions entering a step below their `τ_j` refinement threshold,
    /// summed over steps). Zero for an unrefined model.
    #[must_use]
    pub(crate) fn lend_triggers(&self) -> u64 {
        self.lend_triggers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicsModel, MirasConfig, Transition};
    use rand::Rng;

    /// Builds a synthetic env over drain dynamics s' = max(0, s − 2a) + 1.
    fn build(seed: u64) -> SyntheticEnv {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut data = TransitionDataset::new(2);
        for _ in 0..400 {
            let s = vec![rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)];
            let a = vec![
                rng.gen_range(0.0f64..7.0).floor(),
                rng.gen_range(0.0f64..7.0).floor(),
            ];
            let next = vec![
                (s[0] - 2.0 * a[0]).max(0.0) + 1.0,
                (s[1] - 2.0 * a[1]).max(0.0) + 1.0,
            ];
            data.push(Transition {
                state: s,
                action: a,
                next_state: next,
            });
        }
        let mut config = MirasConfig::smoke_test(seed);
        config.model_hidden = vec![32, 32];
        let mut model = DynamicsModel::new(2, &config);
        model.train(&data, 40, 32);
        let refined = RefinedModel::fit(model, &data, 10.0);
        SyntheticEnv::new(refined, data, 14, seed)
    }

    #[test]
    fn reset_samples_dataset_states() {
        let mut env = build(0);
        for _ in 0..10 {
            let s = env.reset();
            assert_eq!(s.len(), 2);
            assert!(s.iter().all(|&v| (0.0..20.0).contains(&v)));
        }
    }

    #[test]
    fn reward_matches_predicted_wip() {
        let mut env = build(1);
        let _ = env.reset();
        let t = env.step(&[0.5, 0.5]);
        let expected = 1.0 - t.next_state.iter().sum::<f64>();
        assert!((t.reward - expected).abs() < 1e-12);
    }

    #[test]
    fn more_consumers_drain_more_wip() {
        // On the learnt drain dynamics, allocating the full budget should
        // reduce WIP more than allocating nothing.
        let mut env = build(2);

        let mut total_full = 0.0;
        let mut total_none = 0.0;
        for _ in 0..20 {
            let s = env.reset();
            let start: f64 = s.iter().sum();
            let t_full = env.step(&[0.5, 0.5]);
            total_full += t_full.next_state.iter().sum::<f64>() - start;

            // Rewind to a comparable state.
            env.state = s.clone();
            let t_none = env.step(&[0.0, 0.0]);
            total_none += t_none.next_state.iter().sum::<f64>() - start;
        }
        assert!(
            total_full < total_none,
            "full {total_full} vs none {total_none}"
        );
    }

    #[test]
    fn states_remain_non_negative_over_rollout() {
        let mut env = build(3);
        let _ = env.reset();
        for i in 0..50 {
            let a = if i % 2 == 0 { [1.0, 0.0] } else { [0.0, 1.0] };
            let t = env.step(&a);
            assert!(t.next_state.iter().all(|&v| v >= 0.0));
        }
    }
}
