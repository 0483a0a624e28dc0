//! Acting-side weight snapshots and the executable policies made from them.

use nn::{Matrix, Mlp};
use serde::{Deserialize, Serialize};

use super::Ddpg;
use crate::{AdaptiveParamNoise, RunningNorm};

impl Ddpg {
    /// A frozen, self-contained copy of the *acting-side* weights: the
    /// deterministic actor, the observation normaliser it acts through, and
    /// (under parameter-space exploration) the current noise scale σ.
    ///
    /// This is the unit of the distributed trainer's versioned weight
    /// broadcast: the learner snapshots it after each ordered merge, stamps
    /// a version number on it, and rollout workers act on the copy without
    /// ever touching the live agent.
    #[must_use]
    pub fn policy_weights(&self) -> PolicyWeights {
        PolicyWeights {
            actor: self.actor.clone(),
            obs_norm: self.obs_norm.clone(),
            sigma: self.param_noise.as_ref().map(AdaptiveParamNoise::sigma),
        }
    }
}

/// The acting-side weights of a [`Ddpg`] agent, frozen at a point in time
/// (see [`Ddpg::policy_weights`]).
///
/// A `PolicyWeights` value is immutable and self-contained — it carries the
/// actor network, the running observation normaliser, and the
/// parameter-noise scale σ (when parameter-space exploration is configured).
/// Turn it into an executable policy with [`PolicyWeights::perturbed`]:
/// one fresh weight-space perturbation, as the lockstep loop draws at each
/// wave boundary (the actor as-is when no σ is configured).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyWeights {
    actor: Mlp,
    obs_norm: RunningNorm,
    sigma: Option<f64>,
}

impl PolicyWeights {
    /// An executable exploratory policy: a copy of the actor with one
    /// weight-space perturbation of scale σ drawn from `rng` (the same
    /// Gaussian perturbation [`Ddpg::resample_perturbation`] applies at a
    /// rollout boundary, drawn with the ziggurat sampler — this is the hot
    /// path of distributed rollout workers, which re-perturb at every wave).
    /// With no σ — greedy exploration — the actor is used as-is and `rng`
    /// is not consumed.
    #[must_use]
    pub fn perturbed<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> FrozenPolicy {
        let mut actor = self.actor.clone();
        if let Some(sigma) = self.sigma {
            actor.add_parameter_noise_fast(sigma, rng);
        }
        FrozenPolicy {
            actor,
            obs_norm: self.obs_norm.clone(),
        }
    }

    /// The greedy (noise-free) executable policy for these weights.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn greedy(&self) -> FrozenPolicy {
        FrozenPolicy {
            actor: self.actor.clone(),
            obs_norm: self.obs_norm.clone(),
        }
    }
}

/// An immutable executable policy derived from a [`PolicyWeights`]
/// snapshot: states pass through the frozen observation normaliser and one
/// (possibly noise-perturbed) actor forward. Unlike
/// [`Ddpg::act_exploratory_batch`] it keeps **no** clocks, recent-state
/// window, or RNG — acting on a `FrozenPolicy` is a pure function of the
/// snapshot, which is what makes distributed rollout waves replayable.
#[derive(Debug, Clone)]
pub struct FrozenPolicy {
    actor: Mlp,
    obs_norm: RunningNorm,
}

impl FrozenPolicy {
    /// Actions for a batch of lane states (row `i` of `states` is lane
    /// `i`'s state, row `i` of the result its action distribution), through
    /// one batched actor forward.
    ///
    /// # Panics
    ///
    /// Panics if `states` has no rows or a column count other than the
    /// normaliser's dimension.
    #[must_use]
    pub fn act_batch(&self, states: &Matrix) -> Matrix {
        assert!(states.rows() > 0, "need at least one lane");
        assert_eq!(
            states.cols(),
            self.obs_norm.dim(),
            "state dimension mismatch"
        );
        let mut z = Matrix::zeros(states.rows(), states.cols());
        for r in 0..states.rows() {
            self.obs_norm.normalize_slice(states.row(r), z.row_mut(r));
        }
        self.actor.forward(&z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DdpgConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config(seed: u64) -> DdpgConfig {
        DdpgConfig::small_test(seed)
    }

    /// The greedy frozen policy reproduces [`Ddpg::act`] bit for bit, row
    /// by row — it is the same normaliser and actor, just detached.
    #[test]
    fn frozen_greedy_policy_matches_act() {
        let mut agent = Ddpg::new(2, 3, config(50));
        for i in 0..20 {
            let s = [i as f64 * 0.3, 1.0];
            let a = agent.act_exploratory(&s);
            agent.observe(&s, &a, a[0], &s);
        }
        let frozen = agent.policy_weights().greedy();
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 0.5]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let batch = frozen.act_batch(&Matrix::from_rows(&refs));
        for (i, s) in rows.iter().enumerate() {
            let expected = agent.act(s);
            assert_eq!(expected.as_slice(), batch.row(i), "row {i}");
        }
    }

    /// Perturbing frozen weights is a pure function of the RNG state: two
    /// perturbations from identically seeded streams act identically, a
    /// different stream acts differently.
    #[test]
    fn frozen_perturbation_is_deterministic_in_the_rng() {
        let agent = Ddpg::new(2, 3, config(51));
        let weights = agent.policy_weights();
        let s = Matrix::from_rows(&[&[0.4, 0.6], &[5.0, 1.0]]);
        let mut a = weights
            .perturbed(&mut SmallRng::seed_from_u64(9))
            .act_batch(&s);
        let b = weights
            .perturbed(&mut SmallRng::seed_from_u64(9))
            .act_batch(&s);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = weights
            .perturbed(&mut SmallRng::seed_from_u64(10))
            .act_batch(&s);
        assert_ne!(a.as_slice(), c.as_slice());
        // The perturbation never leaks back into the snapshot.
        a = weights.greedy().act_batch(&s);
        let d = agent.policy_weights().greedy().act_batch(&s);
        assert_eq!(a.as_slice(), d.as_slice());
    }
}
