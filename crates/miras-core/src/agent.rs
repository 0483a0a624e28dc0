//! The deployable MIRAS agent: state in, consumer allocation out.

use nn::{Mlp, PackedMlp};
use rl::policy::allocation_largest_remainder;
use rl::RunningNorm;
use serde::{Deserialize, Serialize};

/// A trained MIRAS resource-allocation policy.
///
/// This is what gets deployed after training: the greedy actor network plus
/// the consumer budget. [`MirasAgent::allocate`] maps an observed WIP vector
/// to consumer counts with the largest-remainder rule (the paper's
/// `m_j = ⌊C · a_j⌋` floor, plus the consumers the floor would discard), so
/// the allocation always satisfies the budget.
///
/// The actor is held only as a [`PackedMlp`], packed once when the agent
/// is built or decoded, so every decision runs the tiled batch-1 forward;
/// its decisions are bitwise those of the unpacked [`Mlp`].
///
/// Agents serialize with serde for checkpointing, the actor in its
/// [`Mlp`] shape: the JSON is the same as an agent holding the [`Mlp`]
/// would write.
///
/// # Examples
///
/// ```
/// use miras_core::MirasAgent;
/// use nn::{Activation, Mlp};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
/// let actor = Mlp::new(&[4, 8, 4], Activation::Relu, Activation::Softmax, &mut rng);
/// let agent = MirasAgent::new(actor, 14);
/// let m = agent.allocate(&[10.0, 2.0, 3.0, 0.0]);
/// assert!(m.iter().sum::<usize>() <= 14);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MirasAgent {
    #[serde(with = "packed_actor")]
    actor: PackedMlp,
    obs_norm: Option<RunningNorm>,
    consumer_budget: usize,
}

/// The actor's serde shape: written as the [`Mlp`] it was packed from,
/// and read as an [`Mlp`] that must pass [`Mlp::validate`] before it is
/// packed, so a malformed actor is a decode error, never a panic.
mod packed_actor {
    use nn::{Mlp, PackedMlp};
    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub(super) fn serialize<S: Serializer>(actor: &PackedMlp, s: S) -> Result<S::Ok, S::Error> {
        actor.unpack().serialize(s)
    }

    pub(super) fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<PackedMlp, D::Error> {
        let actor = Mlp::deserialize(d)?;
        actor
            .validate()
            .map_err(|e| D::Error::custom(format!("unusable actor: {e}")))?;
        Ok(PackedMlp::new(&actor))
    }
}

impl MirasAgent {
    /// Packs a trained actor network for deployment.
    ///
    /// # Panics
    ///
    /// Panics if the actor's input and output dimensions differ (state and
    /// action spaces are both the `J` task types).
    #[must_use]
    pub fn new(actor: Mlp, consumer_budget: usize) -> Self {
        assert_eq!(
            actor.input_dim(),
            actor.output_dim(),
            "MIRAS actor maps J-dim WIP to J-dim allocation distribution"
        );
        MirasAgent {
            actor: PackedMlp::new(&actor),
            obs_norm: None,
            consumer_budget,
        }
    }

    /// Packs a trained actor with the observation normaliser it was
    /// trained with. Without it, raw WIP magnitudes would be far outside
    /// the input distribution the network saw during training. Unchecked:
    /// parts decoded from a file go through [`MirasAgent::validate`].
    pub(crate) fn from_parts(actor: &Mlp, obs_norm: RunningNorm, consumer_budget: usize) -> Self {
        MirasAgent {
            actor: PackedMlp::new(actor),
            obs_norm: Some(obs_norm),
            consumer_budget,
        }
    }

    /// Checks that a deserialized agent can decide: an actor (well formed,
    /// as decoding checked before packing it) mapping `J` task types to `J`
    /// allocation shares, and a well-formed normaliser over the same `J`.
    /// [`MirasAgent::new`] asserts the same; a decoded agent bypasses it.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (input, output) = (self.actor.input_dim(), self.actor.output_dim());
        if input != output {
            return Err(format!("actor maps {input} task types to {output}"));
        }
        if let Some(norm) = &self.obs_norm {
            norm.validate().map_err(|e| format!("normaliser: {e}"))?;
            if norm.dim() != input {
                return Err(format!(
                    "normaliser over {} dimensions for {input} task types",
                    norm.dim()
                ));
            }
        }
        Ok(())
    }

    /// The number of task types `J` this agent controls.
    #[must_use]
    pub fn num_task_types(&self) -> usize {
        self.actor.input_dim()
    }

    /// The consumer budget `C` the allocation respects.
    #[must_use]
    pub fn consumer_budget(&self) -> usize {
        self.consumer_budget
    }

    /// The policy's softmax distribution over task types for `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the number of task types.
    #[must_use]
    pub fn distribution(&self, state: &[f64]) -> Vec<f64> {
        assert_eq!(state.len(), self.num_task_types(), "state dim mismatch");
        match &self.obs_norm {
            Some(norm) => self.actor.forward_one(&norm.normalize(state)),
            None => self.actor.forward_one(state),
        }
    }

    /// Consumer counts for `state`: the largest-remainder discretisation of
    /// `C · a`, so `Σ_j m_j ≤ C` holds.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the number of task types.
    #[must_use]
    pub fn allocate(&self, state: &[f64]) -> Vec<usize> {
        allocation_largest_remainder(&self.distribution(state), self.consumer_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::Activation;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn agent(seed: u64) -> MirasAgent {
        let mut rng = SmallRng::seed_from_u64(seed);
        let actor = Mlp::new(&[4, 16, 4], Activation::Relu, Activation::Softmax, &mut rng);
        MirasAgent::new(actor, 14)
    }

    #[test]
    fn allocation_respects_budget_for_any_state() {
        let a = agent(0);
        for scale in [0.0, 1.0, 100.0, 10000.0] {
            let m = a.allocate(&[scale, scale / 2.0, 0.0, scale * 2.0]);
            assert!(m.iter().sum::<usize>() <= 14, "{m:?}");
        }
    }

    #[test]
    fn distribution_is_simplex() {
        let a = agent(1);
        let d = a.distribution(&[3.0, 1.0, 4.0, 1.0]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(d.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn serde_round_trip() {
        let a = agent(2);
        let json = serde_json::to_string(&a).unwrap();
        let back: MirasAgent = serde_json::from_str(&json).unwrap();
        assert_eq!(back.consumer_budget(), 14);
        let s = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(a.allocate(&s), back.allocate(&s));
    }

    #[test]
    #[should_panic(expected = "state dim mismatch")]
    fn wrong_state_dim_panics() {
        let a = agent(3);
        let _ = a.allocate(&[1.0, 2.0]);
    }
}
