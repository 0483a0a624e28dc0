//! Extension: ensembles of environment models.
//!
//! The paper trains a single neural environment model; its own Fig. 5 shows
//! the open-loop rollouts of that model drifting from ground truth through
//! cumulative error. The canonical mitigation in model-based RL (Nagabandi
//! et al., the paper's reference \[25\], and later MBPO-style methods) is an
//! *ensemble*: several models trained from different initialisations, whose
//! mean prediction is lower-variance and whose disagreement flags states
//! where the model should not be trusted. This module provides that
//! extension; the `ablation_model_ensemble` benchmark measures how much it
//! narrows the iterative-prediction gap of Fig. 5.

use serde::{Deserialize, Serialize};

use crate::{DynamicsModel, MirasConfig, TransitionDataset};

/// An ensemble of independently initialised environment models.
///
/// # Examples
///
/// ```
/// use miras_core::{EnsembleDynamics, MirasConfig, Transition, TransitionDataset};
///
/// let mut data = TransitionDataset::new(2);
/// for i in 0..64 {
///     let s = vec![(i % 8) as f64, (i / 8) as f64];
///     let next = vec![s[0] * 0.5, s[1] * 0.5];
///     data.push(Transition { state: s, action: vec![1.0, 1.0], next_state: next });
/// }
/// let mut ensemble = EnsembleDynamics::new(2, &MirasConfig::smoke_test(0), 3);
/// ensemble.train(&data, 10, 16);
/// let pred = ensemble.predict_mean(&[4.0, 2.0], &[1.0, 1.0]);
/// assert_eq!(pred.len(), 2);
/// let sigma = ensemble.disagreement(&[4.0, 2.0], &[1.0, 1.0]);
/// assert!(sigma >= 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleDynamics {
    members: Vec<DynamicsModel>,
    state_dim: usize,
}

impl EnsembleDynamics {
    /// Creates `n_members` models with distinct weight initialisations.
    ///
    /// # Panics
    ///
    /// Panics if `n_members` is zero.
    #[must_use]
    pub fn new(state_dim: usize, config: &MirasConfig, n_members: usize) -> Self {
        assert!(n_members > 0, "ensemble needs at least one member");
        let members = (0..n_members)
            .map(|i| {
                let mut member_config = config.clone();
                member_config.seed = config.seed.wrapping_add(1 + i as u64);
                DynamicsModel::new(state_dim, &member_config)
            })
            .collect();
        EnsembleDynamics { members, state_dim }
    }

    /// Trains every member on the dataset; returns the mean of the members'
    /// final-epoch losses. Members share the data but differ in weight
    /// initialisation and minibatch shuffling, which is the standard
    /// deep-ensemble recipe.
    ///
    /// Members are independent, so they train on scoped threads (up to the
    /// `NN_NUM_THREADS` budget, see [`nn::threads`]), each with nested
    /// kernel parallelism disabled. Every member's minibatch schedule is
    /// derived from its own seed and losses are reduced in member order, so
    /// the result is bit-identical to serial training for any thread count.
    pub fn train(&mut self, data: &TransitionDataset, epochs: usize, batch: usize) -> f64 {
        let n = self.members.len();
        let threads = nn::threads::effective_threads().min(n);
        let mut losses = vec![0.0; n];
        if threads <= 1 {
            for (m, loss) in self.members.iter_mut().zip(losses.iter_mut()) {
                *loss = m.train(data, epochs, batch);
            }
        } else {
            let chunk = n.div_ceil(threads);
            std::thread::scope(|scope| {
                for (members, chunk_losses) in
                    self.members.chunks_mut(chunk).zip(losses.chunks_mut(chunk))
                {
                    scope.spawn(move || {
                        nn::threads::with_serial(|| {
                            for (m, loss) in members.iter_mut().zip(chunk_losses.iter_mut()) {
                                *loss = m.train(data, epochs, batch);
                            }
                        });
                    });
                }
            });
        }
        losses.iter().sum::<f64>() / n as f64
    }

    /// The ensemble-mean prediction of the next state.
    ///
    /// # Panics
    ///
    /// Panics if any member is untrained or dimensions mismatch.
    #[must_use]
    pub fn predict_mean(&self, state: &[f64], action: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.state_dim];
        for m in &self.members {
            for (a, v) in acc.iter_mut().zip(m.predict(state, action)) {
                *a += v;
            }
        }
        let n = self.members.len() as f64;
        acc.into_iter().map(|v| v / n).collect()
    }

    /// One member's prediction (e.g. for trajectory-sampling schemes that
    /// pick a random member per rollout).
    ///
    /// # Panics
    ///
    /// Panics if `member` is out of range or the model is untrained.
    #[must_use]
    pub fn predict_member(&self, member: usize, state: &[f64], action: &[f64]) -> Vec<f64> {
        self.members[member].predict(state, action)
    }

    /// Epistemic disagreement: the mean (over dimensions) standard deviation
    /// of member predictions. Large values flag out-of-distribution
    /// `(state, action)` pairs where the learnt dynamics should not be
    /// trusted.
    ///
    /// # Panics
    ///
    /// Panics if any member is untrained.
    #[must_use]
    pub fn disagreement(&self, state: &[f64], action: &[f64]) -> f64 {
        let preds: Vec<Vec<f64>> = self
            .members
            .iter()
            .map(|m| m.predict(state, action))
            .collect();
        let n = preds.len() as f64;
        let mut total = 0.0;
        for d in 0..self.state_dim {
            let mean: f64 = preds.iter().map(|p| p[d]).sum::<f64>() / n;
            let var: f64 = preds.iter().map(|p| (p[d] - mean).powi(2)).sum::<f64>() / n;
            total += var.sqrt();
        }
        total / self.state_dim as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn toy_dataset(n: usize, seed: u64) -> TransitionDataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = TransitionDataset::new(2);
        for _ in 0..n {
            let s: Vec<f64> = vec![rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)];
            let a: Vec<f64> = vec![rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)];
            let next = vec![
                (s[0] - 2.0 * a[0]).max(0.0) + 1.0,
                (s[1] - 2.0 * a[1]).max(0.0) + 1.0,
            ];
            d.push(Transition {
                state: s,
                action: a,
                next_state: next,
            });
        }
        d
    }

    #[test]
    fn members_differ_but_agree_in_distribution() {
        let data = toy_dataset(400, 0);
        let mut ens = EnsembleDynamics::new(2, &MirasConfig::smoke_test(1), 3);
        let _ = ens.train(&data, 40, 32);
        let s = [10.0, 10.0];
        let a = [2.0, 2.0];
        // Members were initialised differently, so their predictions are not
        // identical…
        let p0 = ens.predict_member(0, &s, &a);
        let p1 = ens.predict_member(1, &s, &a);
        assert_ne!(p0, p1);
        // …but in-distribution disagreement is small relative to the scale.
        assert!(ens.disagreement(&s, &a) < 5.0);
    }

    #[test]
    fn disagreement_grows_out_of_distribution() {
        let data = toy_dataset(400, 2);
        let mut ens = EnsembleDynamics::new(2, &MirasConfig::smoke_test(3), 4);
        let _ = ens.train(&data, 40, 32);
        let inside = ens.disagreement(&[10.0, 10.0], &[2.0, 2.0]);
        let outside = ens.disagreement(&[500.0, 500.0], &[2.0, 2.0]);
        assert!(
            outside > inside,
            "outside {outside} should exceed inside {inside}"
        );
    }

    #[test]
    fn mean_prediction_is_average_of_members() {
        let data = toy_dataset(200, 4);
        let mut ens = EnsembleDynamics::new(2, &MirasConfig::smoke_test(5), 3);
        let _ = ens.train(&data, 10, 32);
        let s = [5.0, 5.0];
        let a = [1.0, 1.0];
        let mean = ens.predict_mean(&s, &a);
        let manual: Vec<f64> = (0..2)
            .map(|d| {
                (0..3)
                    .map(|m| ens.predict_member(m, &s, &a)[d])
                    .sum::<f64>()
                    / 3.0
            })
            .collect();
        for (x, y) in mean.iter().zip(&manual) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn train_is_deterministic_with_threads() {
        // Two identical seeded runs must produce bitwise-identical losses and
        // equal trained members, even when member training fans out across
        // scoped threads. Members derive their minibatch schedule from their
        // own seed, so the thread schedule cannot perturb results.
        let run = || {
            let data = toy_dataset(200, 12);
            let mut ens = EnsembleDynamics::new(2, &MirasConfig::smoke_test(13), 4);
            let loss = ens.train(&data, 15, 32);
            (loss, ens)
        };
        let (loss_a, ens_a) = run();
        let (loss_b, ens_b) = run();
        assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        assert_eq!(ens_a, ens_b);
    }

    #[test]
    #[should_panic(expected = "ensemble needs at least one member")]
    fn empty_ensemble_panics() {
        let _ = EnsembleDynamics::new(2, &MirasConfig::smoke_test(11), 0);
    }
}
