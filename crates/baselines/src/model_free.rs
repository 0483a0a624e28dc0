//! Model-free DDPG — `rl` in the paper's figures.
//!
//! The paper's sample-efficiency comparison (§VI-D): train vanilla DDPG
//! *directly* against the real environment, with the same number of real
//! interactions MIRAS received. Without the learnt environment model to
//! multiply experience, the budget is far too small and the policy fails to
//! converge — which is exactly the phenomenon the benchmark reproduces.

use miras_core::ClusterEnvAdapter;
use rl::policy::allocation_largest_remainder;
use rl::{Ddpg, DdpgConfig, Environment};

use crate::{Observation, Policy};

/// A [`Policy`] produced by model-free DDPG training.
#[derive(Debug)]
pub struct ModelFreeDdpg {
    agent: Ddpg,
    budget: usize,
}

impl ModelFreeDdpg {
    /// Wraps a trained agent.
    #[must_use]
    pub fn new(agent: Ddpg, budget: usize) -> Self {
        ModelFreeDdpg { agent, budget }
    }

    /// Read access to the wrapped agent.
    #[must_use]
    pub fn agent(&self) -> &Ddpg {
        &self.agent
    }
}

impl Policy for ModelFreeDdpg {
    fn name(&self) -> &str {
        "rl"
    }

    fn allocate(&mut self, obs: &Observation) -> Vec<usize> {
        allocation_largest_remainder(&self.agent.act(obs.wip), self.budget)
    }

    fn consumer_budget(&self) -> usize {
        self.budget
    }

    fn num_task_types(&self) -> usize {
        self.agent.actor().input_dim()
    }
}

/// Trains DDPG directly on the real environment for `real_steps`
/// interactions (resetting every `reset_every` steps, like MIRAS's
/// collection phase) and returns the resulting allocator.
///
/// "To guarantee fairness, we train DDPG models using the same number of
/// interactions with MIRAS" (§VI-D). Every interaction feeds the replay
/// buffer and triggers one gradient step — the standard online DDPG loop.
/// When `episode_burst_max` is set, each episode opens with a random burst
/// of up to that many requests per workflow type, mirroring MIRAS's
/// collection conditions so neither learner sees a regime the other didn't.
///
/// # Examples
///
/// ```
/// use baselines::{train_model_free, Observation, Policy};
/// use microsim::{EnvConfig, MicroserviceEnv};
/// use miras_core::ClusterEnvAdapter;
/// use rl::DdpgConfig;
/// use workflow::Ensemble;
///
/// let ensemble = Ensemble::msd();
/// let config = EnvConfig::for_ensemble(&ensemble).with_seed(0);
/// let mut env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config));
/// let mut policy = train_model_free(&mut env, 40, 20, DdpgConfig::small_test(1), None);
/// let m = policy.allocate(&Observation::first(&[5.0; 4]));
/// assert!(m.iter().sum::<usize>() <= 14);
/// ```
pub fn train_model_free(
    env: &mut ClusterEnvAdapter,
    real_steps: usize,
    reset_every: usize,
    config: DdpgConfig,
    episode_burst_max: Option<&[usize]>,
) -> ModelFreeDdpg {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let j = env.state_dim();
    let budget = env.consumer_budget();
    let mut burst_rng = SmallRng::seed_from_u64(config.seed.wrapping_add(0xB0B));
    let mut agent = Ddpg::new(j, j, config);
    let inject = |env: &mut ClusterEnvAdapter, rng: &mut SmallRng| {
        if let Some(max) = episode_burst_max {
            let n = env.env().num_workflow_types();
            let sizes: Vec<usize> = (0..n)
                .map(|i| match max.get(i) {
                    Some(&m) if m > 0 => rng.gen_range(0..=m),
                    _ => 0,
                })
                .collect();
            env.env_mut().inject_burst(&workflow::BurstSpec::new(sizes));
        }
    };
    let mut s = env.reset();
    inject(env, &mut burst_rng);
    for step in 0..real_steps {
        if step > 0 && reset_every > 0 && step % reset_every == 0 {
            s = env.reset();
            inject(env, &mut burst_rng);
            agent.resample_perturbation();
        }
        let a = agent.act_exploratory(&s);
        let t = env.step(&a);
        agent.observe(&s, &a, t.reward, &t.next_state);
        let _ = agent.train_step();
        s = t.next_state;
    }
    // The transitions are real interactions; discard them from the adapter's
    // model-data log so a subsequent MIRAS run is not contaminated.
    let _ = env.take_transitions();
    ModelFreeDdpg::new(agent, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsim::{EnvConfig, MicroserviceEnv};
    use workflow::Ensemble;

    fn env(seed: u64) -> ClusterEnvAdapter {
        let ensemble = Ensemble::msd();
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config))
    }

    #[test]
    fn training_consumes_exactly_the_step_budget() {
        let mut e = env(0);
        let before = e.env().window_index();
        let _ = train_model_free(&mut e, 30, 10, DdpgConfig::small_test(1), None);
        // Each training step is one real window.
        assert_eq!(e.env().window_index() - before, 30);
    }

    #[test]
    fn trained_policy_respects_budget() {
        let mut e = env(2);
        let mut policy = train_model_free(
            &mut e,
            25,
            10,
            DdpgConfig::small_test(3),
            Some(&[20, 20, 20]),
        );
        for wip in [[0.0; 4], [100.0, 3.0, 0.0, 44.0]] {
            let m = policy.allocate(&Observation::first(&wip));
            assert!(m.iter().sum::<usize>() <= 14);
        }
        assert_eq!(policy.name(), "rl");
    }

    #[test]
    fn adapter_log_is_cleared_after_training() {
        let mut e = env(4);
        let _ = train_model_free(&mut e, 10, 5, DdpgConfig::small_test(5), None);
        assert!(e.take_transitions().is_empty());
    }
}
