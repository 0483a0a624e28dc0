//! The DDPG learner: acting, experience, the minibatch update.

use nn::{Activation, Adam, Matrix, Mlp};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use telemetry::Telemetry;

use super::{Critic, DdpgConfig, Exploration, TrainError, TrainHealth, TrainStats};
use crate::policy::project_to_simplex;
use crate::{AdaptiveParamNoise, OrnsteinUhlenbeck, ReplayBuffer, RunningNorm, StoredTransition};

/// A DDPG agent (Lillicrap et al.) with the paper's constraint-aware actor
/// and parameter-space exploration.
///
/// The actor's output layer is a softmax over action dimensions, so actions
/// are always probability distributions; converting them into consumer
/// counts (`m_j = ⌊C · a_j⌋`, [`crate::policy::allocation_floor`]) can never
/// exceed the consumer budget.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Ddpg {
    pub(super) actor: Mlp,
    pub(super) actor_target: Mlp,
    pub(super) perturbed_actor: Mlp,
    pub(super) critic: Critic,
    pub(super) critic_target: Critic,
    pub(super) actor_opt: Adam,
    pub(super) critic_trunk_opt: Adam,
    pub(super) critic_head_opt: Adam,
    pub(super) replay: ReplayBuffer,
    pub(super) config: DdpgConfig,
    pub(super) param_noise: Option<AdaptiveParamNoise>,
    pub(super) action_noise: Option<OrnsteinUhlenbeck>,
    pub(super) obs_norm: RunningNorm,
    pub(super) reward_norm: RunningNorm,
    pub(super) recent_states: Vec<Vec<f64>>,
    pub(super) steps_since_resample: usize,
    pub(super) rng: SmallRng,
    pub(super) telemetry: Telemetry,
    pub(super) train_steps_done: u64,
    /// Reused buffer for the normalised state in [`Ddpg::act_exploratory`],
    /// so single-lane rollouts stop allocating it every step. Pure scratch:
    /// excluded from snapshots and never read across calls.
    pub(super) norm_buf: Vec<f64>,
}

/// One sampled minibatch, normalised for the networks. `targets` holds each
/// row's reward until [`Ddpg::critic_targets`] adds the bootstrap term.
struct Minibatch {
    states: Matrix,
    next_states: Matrix,
    actions: Matrix,
    targets: Matrix,
}

/// How often (in train steps) the expensive target-network divergence
/// diagnostic is sampled when telemetry is enabled.
const TARGET_DIVERGENCE_EVERY: u64 = 100;

/// Maximum number of recent states kept for parameter-noise adaption.
const RECENT_STATES_CAP: usize = 128;

/// How often (in train steps) [`Ddpg::try_train_step`] scans network
/// weights for non-finite values. A full scan walks every parameter, so it
/// is sampled rather than run per step; a NaN weight also shows up as a NaN
/// loss on the very next minibatch that touches it.
const WEIGHT_CHECK_EVERY: u64 = 50;

/// Global gradient-norm clip of every Adam optimiser.
const GRAD_CLIP_NORM: f64 = 10.0;

/// Initial parameter-noise standard deviation.
const PARAM_NOISE_INITIAL_SIGMA: f64 = 0.05;

/// Action-space distance the parameter-noise scale is adapted to track.
const PARAM_NOISE_DELTA: f64 = 0.1;

/// Multiplicative parameter-noise adaption factor (> 1).
const PARAM_NOISE_ALPHA: f64 = 1.01;

impl Ddpg {
    /// Creates an agent for `state_dim`-dimensional states and
    /// `action_dim`-dimensional (simplex) actions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the config is degenerate.
    #[must_use]
    pub fn new(state_dim: usize, action_dim: usize, config: DdpgConfig) -> Self {
        assert!(
            state_dim > 0 && action_dim > 0,
            "dimensions must be positive"
        );
        assert!(config.batch_size > 0, "batch size must be positive");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut actor_sizes = vec![state_dim];
        actor_sizes.extend_from_slice(&config.hidden);
        actor_sizes.push(action_dim);
        let actor = Mlp::new(
            &actor_sizes,
            Activation::Relu,
            Activation::Softmax,
            &mut rng,
        );
        let critic = Critic::new(state_dim, action_dim, &config.hidden, &mut rng);
        let actor_target = actor.clone();
        let critic_target = critic.clone();
        let perturbed_actor = actor.clone();

        let mk = |lr: f64| Adam::new(lr).with_clip_norm(GRAD_CLIP_NORM);

        let (param_noise, action_noise) = match config.exploration {
            Exploration::ParamNoise { .. } => (
                Some(AdaptiveParamNoise::new(
                    PARAM_NOISE_INITIAL_SIGMA,
                    PARAM_NOISE_DELTA,
                    PARAM_NOISE_ALPHA,
                )),
                None,
            ),
            Exploration::ActionNoise { theta, sigma } => {
                (None, Some(OrnsteinUhlenbeck::new(action_dim, theta, sigma)))
            }
        };

        let mut agent = Ddpg {
            actor_opt: mk(config.actor_lr),
            critic_trunk_opt: mk(config.critic_lr),
            critic_head_opt: mk(config.critic_lr),
            replay: ReplayBuffer::new(config.buffer_capacity),
            actor,
            actor_target,
            perturbed_actor,
            critic,
            critic_target,
            param_noise,
            action_noise,
            obs_norm: RunningNorm::new(state_dim),
            reward_norm: RunningNorm::new(1),
            recent_states: Vec::new(),
            steps_since_resample: 0,
            config,
            rng,
            telemetry: Telemetry::noop(),
            train_steps_done: 0,
            norm_buf: Vec::new(),
        };
        agent.resample_perturbation();
        agent
    }

    /// The greedy (deterministic) policy: a probability distribution over
    /// action dimensions. States pass through the running observation
    /// normaliser (as in OpenAI Baselines' DDPG, which the paper used).
    #[must_use]
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        self.actor.forward_one(&self.obs_norm.normalize(state))
    }

    /// An exploratory action according to the configured strategy. The
    /// result is always a valid distribution (action noise is projected back
    /// onto the simplex).
    pub fn act_exploratory(&mut self, state: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.act_exploratory_into(state, &mut out);
        out
    }

    /// [`Ddpg::act_exploratory`] writing into a caller-owned buffer
    /// (cleared and refilled), so tight rollout loops reuse one action
    /// allocation. Bitwise-identical results and RNG consumption.
    pub(crate) fn act_exploratory_into(&mut self, state: &[f64], out: &mut Vec<f64>) {
        self.remember_state(state);
        let mut z = std::mem::take(&mut self.norm_buf);
        self.obs_norm.normalize_into(state, &mut z);
        match &self.config.exploration {
            Exploration::ParamNoise { resample_every, .. } => {
                let resample_every = *resample_every;
                self.steps_since_resample += 1;
                if self.steps_since_resample >= resample_every {
                    self.adapt_and_resample();
                }
                self.perturbed_actor.forward_one_into(&z, out);
            }
            Exploration::ActionNoise { .. } => {
                self.actor.forward_one_into(&z, out);
                let noise = self
                    .action_noise
                    .as_mut()
                    .expect("action noise configured")
                    .sample(&mut self.rng);
                for (ai, ni) in out.iter_mut().zip(&noise) {
                    *ai += ni;
                }
                let projected = project_to_simplex(out);
                out.clear();
                out.extend_from_slice(&projected);
            }
        }
        self.norm_buf = z;
    }

    /// Exploratory actions for a whole batch of lockstep rollout lanes: row
    /// `i` of `states` is lane `i`'s state, row `i` of the result its action.
    ///
    /// The batch is processed with **one** actor forward instead of
    /// `states.rows()` separate GEMV calls — the point of lockstep rollouts.
    /// At batch size 1 this consumes RNG and mutates internal state exactly
    /// like one [`Ddpg::act_exploratory`] call, so `Lockstep(1)` training is
    /// bit-identical to sequential training. For larger batches the
    /// parameter-noise resample clock ticks once per *batched* step (all
    /// lanes share the same perturbation, resampled on the shared schedule)
    /// and, under action noise, OU draws are consumed in lane order —
    /// deterministic, but a different stream interleaving than B separate
    /// sequential rollouts would produce.
    ///
    /// # Panics
    ///
    /// Panics if `states` has no rows or a column count other than the
    /// agent's state dimension.
    pub fn act_exploratory_batch(&mut self, states: &Matrix) -> Matrix {
        assert!(states.rows() > 0, "need at least one lane");
        assert_eq!(
            states.cols(),
            self.obs_norm.dim(),
            "state dimension mismatch"
        );
        for r in 0..states.rows() {
            self.remember_state(states.row(r));
        }
        let mut z = Matrix::zeros(states.rows(), states.cols());
        for r in 0..states.rows() {
            self.obs_norm.normalize_slice(states.row(r), z.row_mut(r));
        }
        match &self.config.exploration {
            Exploration::ParamNoise { resample_every, .. } => {
                let resample_every = *resample_every;
                self.steps_since_resample += 1;
                if self.steps_since_resample >= resample_every {
                    self.adapt_and_resample();
                }
                self.perturbed_actor.forward(&z)
            }
            Exploration::ActionNoise { .. } => {
                let mut a = self.actor.forward(&z);
                for r in 0..a.rows() {
                    let noise = self
                        .action_noise
                        .as_mut()
                        .expect("action noise configured")
                        .sample(&mut self.rng);
                    let row = a.row_mut(r);
                    for (ai, ni) in row.iter_mut().zip(&noise) {
                        *ai += ni;
                    }
                    let projected = project_to_simplex(row);
                    row.copy_from_slice(&projected);
                }
                a
            }
        }
    }

    /// The raw (pre-projection) noisy action for the exploration ablation:
    /// with action noise this may leave the simplex — i.e. violate the
    /// consumer budget. Under parameter noise this is
    /// [`Ddpg::act_exploratory`].
    pub fn act_exploratory_unprojected(&mut self, state: &[f64]) -> Vec<f64> {
        match &self.config.exploration {
            Exploration::ActionNoise { .. } => {
                let mut a = self.actor.forward_one(&self.obs_norm.normalize(state));
                let noise = self
                    .action_noise
                    .as_mut()
                    .expect("action noise configured")
                    .sample(&mut self.rng);
                for (ai, ni) in a.iter_mut().zip(&noise) {
                    *ai += ni;
                }
                a
            }
            _ => self.act_exploratory(state),
        }
    }

    /// Records a transition in the replay buffer.
    ///
    /// Transitions containing non-finite values are rejected by the buffer
    /// (see [`ReplayBuffer::push`]); each rejection increments the
    /// `replay.rejected_nonfinite` telemetry counter so poisoned inputs are
    /// visible instead of silently corrupting later minibatches.
    pub fn observe(&mut self, state: &[f64], action: &[f64], reward: f64, next_state: &[f64]) {
        let stored = self.replay.push(StoredTransition {
            state: state.to_vec(),
            action: action.to_vec(),
            reward,
            next_state: next_state.to_vec(),
        });
        if stored {
            // Running statistics are only fed accepted data, so a poisoned
            // observation cannot corrupt the normalisers either.
            self.obs_norm.update(state);
            self.reward_norm.update(&[reward]);
        } else {
            self.telemetry.counter("replay.rejected_nonfinite", 1);
        }
    }

    /// Records one transition per lockstep lane, in lane order: row `i` of
    /// each matrix and `rewards[i]` form lane `i`'s transition. Equivalent
    /// to `rows` sequential [`Ddpg::observe`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the row or reward counts disagree.
    pub fn observe_batch(
        &mut self,
        states: &Matrix,
        actions: &Matrix,
        rewards: &[f64],
        next_states: &Matrix,
    ) {
        let b = states.rows();
        assert_eq!(actions.rows(), b, "action row count mismatch");
        assert_eq!(next_states.rows(), b, "next-state row count mismatch");
        assert_eq!(rewards.len(), b, "reward count mismatch");
        for (r, &reward) in rewards.iter().enumerate() {
            self.observe(states.row(r), actions.row(r), reward, next_states.row(r));
        }
    }

    /// Runs one minibatch update (critic, actor, target networks). Returns
    /// `None` while the replay buffer holds fewer than `batch_size`
    /// transitions.
    pub fn train_step(&mut self) -> Option<TrainStats> {
        let b = self.config.batch_size;
        if self.replay.len() < b {
            return None;
        }
        let mut batch = self.assemble_batch(b);
        self.critic_targets(&mut batch);
        let critic_loss = self.critic_step(&batch);
        let mean_q = self.actor_step(&batch.states);
        self.polyak_update();

        self.train_steps_done += 1;
        if self.telemetry.is_enabled() {
            self.telemetry.counter("ddpg.train_steps", 1);
            self.telemetry.gauge("ddpg.critic_loss", critic_loss);
            self.telemetry.gauge("ddpg.mean_q", mean_q);
            self.telemetry.observe("ddpg.critic_loss", critic_loss);
            if self
                .train_steps_done
                .is_multiple_of(TARGET_DIVERGENCE_EVERY)
            {
                self.telemetry
                    .gauge("ddpg.target_divergence", self.target_divergence());
            }
        }

        Some(TrainStats {
            critic_loss,
            mean_q,
        })
    }

    /// Samples `b` transitions. Replay stores raw states; they are
    /// normalised with the *current* running statistics at batch-build
    /// time, straight into the batch rows.
    fn assemble_batch(&mut self, b: usize) -> Minibatch {
        let batch = self.replay.sample(b, &mut self.rng);
        let mut states = Matrix::zeros(b, self.obs_norm.dim());
        let mut next_states = Matrix::zeros(b, self.obs_norm.dim());
        let mut actions = Matrix::zeros(b, batch[0].action.len());
        let mut targets = Matrix::zeros(b, 1);
        for (i, t) in batch.iter().enumerate() {
            self.obs_norm.normalize_slice(&t.state, states.row_mut(i));
            self.obs_norm
                .normalize_slice(&t.next_state, next_states.row_mut(i));
            actions.row_mut(i).copy_from_slice(&t.action);
            if self.config.normalize_rewards {
                self.reward_norm
                    .normalize_slice(&[t.reward], targets.row_mut(i));
            } else {
                targets.set(i, 0, t.reward);
            }
        }
        Minibatch {
            states,
            next_states,
            actions,
            targets,
        }
    }

    /// Critic target: y = r + γ · Q'(s', μ'(s')).
    fn critic_targets(&self, batch: &mut Minibatch) {
        let next_actions = self.actor_target.forward(&batch.next_states);
        let next_q = self.critic_target.q(&batch.next_states, &next_actions);
        for (i, y) in batch.targets.as_mut_slice().iter_mut().enumerate() {
            *y += self.config.gamma * next_q.get(i, 0);
        }
    }

    /// One MSE step of the critic toward the targets; returns its loss
    /// before the update.
    fn critic_step(&mut self, batch: &Minibatch) -> f64 {
        self.critic.train(
            &batch.states,
            &batch.actions,
            &batch.targets,
            &mut self.critic_trunk_opt,
            &mut self.critic_head_opt,
        )
    }

    /// Actor: ascend ∂Q/∂a through the deterministic policy gradient, plus
    /// an entropy bonus that prevents softmax-vertex collapse. Loss =
    /// −Q − β·H(a); with H = −Σ a ln a the output gradient is
    /// −∂Q/∂a + β (ln a + 1), averaged over the batch. Returns the mean
    /// Q(s, μ(s)) before the update.
    fn actor_step(&mut self, states: &Matrix) -> f64 {
        let beta = self.config.entropy_weight;
        let inv_b = 1.0 / states.rows() as f64;
        let trace = self.actor.forward_cached(states);
        let policy_actions = trace.output();
        let (q, mut d_out) = self.critic.q_and_action_gradient(states, policy_actions);
        let q_sum: f64 = q.as_slice().iter().sum();
        d_out.scale_in_place(-inv_b);
        if beta > 0.0 {
            for r in 0..d_out.rows() {
                for c in 0..d_out.cols() {
                    let a = policy_actions.get(r, c).max(1e-8);
                    let g = d_out.get(r, c) + beta * (a.ln() + 1.0) * inv_b;
                    d_out.set(r, c, g);
                }
            }
        }
        let mut grads = self.actor.param_gradients(&trace, &d_out);
        self.actor.apply_gradients(&mut grads, &mut self.actor_opt);
        q_sum * inv_b
    }

    /// Moves every target network a step `tau` toward its online network.
    fn polyak_update(&mut self) {
        self.actor_target
            .soft_update_from(&self.actor, self.config.tau);
        self.critic_target
            .soft_update_from(&self.critic, self.config.tau);
    }

    /// Runs one minibatch update under the divergence watchdog.
    ///
    /// Semantically [`Ddpg::train_step`] followed by `health.check` — plus a
    /// periodic (every `WEIGHT_CHECK_EVERY` steps) scan of all network
    /// weights for non-finite values. Returns `Ok(None)` while the replay
    /// buffer is still filling.
    ///
    /// # Errors
    ///
    /// Propagates the watchdog's [`TrainError`]s; additionally raises
    /// [`TrainError::NonFiniteWeights`] when the weight scan finds NaN/±∞.
    /// On error the agent's weights are in an unknown (possibly poisoned)
    /// state — the caller is expected to roll back to a checkpoint.
    pub fn try_train_step(
        &mut self,
        health: &mut TrainHealth,
    ) -> Result<Option<TrainStats>, TrainError> {
        let Some(stats) = self.train_step() else {
            return Ok(None);
        };
        let step = self.train_steps_done;
        health.check(step, &stats)?;
        if step.is_multiple_of(WEIGHT_CHECK_EVERY) && !self.weights_are_finite() {
            return Err(TrainError::NonFiniteWeights { step });
        }
        Ok(Some(stats))
    }

    /// Whether every weight of every network (actor, critic, targets) is
    /// finite. A full parameter walk — prefer the sampled check inside
    /// [`Ddpg::try_train_step`] on hot paths.
    #[must_use]
    pub(crate) fn weights_are_finite(&self) -> bool {
        let mlp_ok = |m: &Mlp| m.flat_params().iter().all(|w| w.is_finite());
        let critic_ok = |c: &Critic| mlp_ok(&c.trunk) && mlp_ok(&c.head);
        mlp_ok(&self.actor)
            && mlp_ok(&self.actor_target)
            && critic_ok(&self.critic)
            && critic_ok(&self.critic_target)
    }

    /// Halves the parameter-noise scale (no-op under other exploration
    /// strategies). The watchdog calls this after a rollback: divergence
    /// under parameter noise usually means exploration kicked the policy
    /// somewhere the critic cannot follow, so the retry explores more
    /// gently.
    pub fn halve_param_noise(&mut self) {
        if let Some(noise) = &mut self.param_noise {
            noise.scale_sigma(0.5);
        }
    }

    /// Replaces the agent's RNG stream with one seeded from `seed` and
    /// draws a fresh perturbation from it. Used after a rollback so the
    /// retry does not replay the exact random choices that led to the
    /// failure.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.resample_perturbation();
    }

    /// Mean absolute parameter gap between the actor and its Polyak target —
    /// a read-only diagnostic of how far the target network lags.
    #[must_use]
    pub(crate) fn target_divergence(&self) -> f64 {
        let a = self.actor.flat_params();
        let t = self.actor_target.flat_params();
        if a.is_empty() {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = a.len() as f64;
        a.iter().zip(&t).map(|(x, y)| (x - y).abs()).sum::<f64>() / n
    }

    /// Attaches a telemetry handle: each train step records its critic loss
    /// and mean Q, sigma adaptions emit `ddpg.sigma_adapt` events, and the
    /// target-network divergence is sampled periodically. Recording is
    /// observability-only — training results stay bit-identical.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The current parameter-noise scale, when parameter noise is active.
    #[must_use]
    pub fn param_noise_sigma(&self) -> Option<f64> {
        self.param_noise.as_ref().map(AdaptiveParamNoise::sigma)
    }

    /// Read access to the greedy actor network.
    #[must_use]
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The running observation normaliser (fed by [`Ddpg::observe`]).
    #[must_use]
    pub fn obs_normalizer(&self) -> &RunningNorm {
        &self.obs_norm
    }

    /// Folds a state into the observation normaliser without storing a
    /// transition — used when collecting environment-model data that never
    /// enters the replay buffer (MIRAS's collection phase).
    pub fn observe_state(&mut self, state: &[f64]) {
        self.obs_norm.update(state);
    }

    /// Mutable access to the replay buffer. This is a fault-injection /
    /// testing hook (e.g. poisoning a batch via
    /// [`ReplayBuffer::push_unchecked`] to exercise the divergence
    /// watchdog); normal experience flows through [`Ddpg::observe`].
    pub fn replay_mut(&mut self) -> &mut ReplayBuffer {
        &mut self.replay
    }

    /// Forces a fresh perturbation of the exploration actor (e.g. at episode
    /// boundaries).
    pub fn resample_perturbation(&mut self) {
        if let Some(noise) = &self.param_noise {
            let sigma = noise.sigma();
            self.perturbed_actor.copy_params_from(&self.actor);
            self.perturbed_actor
                .add_parameter_noise(sigma, &mut self.rng);
        }
        if let Some(ou) = &mut self.action_noise {
            ou.reset();
        }
        self.steps_since_resample = 0;
    }

    fn remember_state(&mut self, state: &[f64]) {
        if self.recent_states.len() >= RECENT_STATES_CAP {
            self.recent_states.remove(0);
        }
        self.recent_states.push(state.to_vec());
    }

    /// Measures the action-space distance the current perturbation induces
    /// on recent states, adapts sigma, and re-perturbs.
    fn adapt_and_resample(&mut self) {
        if let Some(noise) = &mut self.param_noise {
            if !self.recent_states.is_empty() {
                let normed: Vec<Vec<f64>> = self
                    .recent_states
                    .iter()
                    .map(|s| self.obs_norm.normalize(s))
                    .collect();
                let rows: Vec<&[f64]> = normed.iter().map(Vec::as_slice).collect();
                let states = Matrix::from_rows(&rows);
                let clean = self.actor.forward(&states);
                let noisy = self.perturbed_actor.forward(&states);
                let diff = &clean - &noisy;
                let mse = diff.as_slice().iter().map(|&v| v * v).sum::<f64>()
                    / diff.as_slice().len() as f64;
                let distance = mse.sqrt();
                noise.adapt(distance);
                if self.telemetry.is_enabled() {
                    let sigma = noise.sigma();
                    self.telemetry.gauge("ddpg.sigma", sigma);
                    self.telemetry.event(
                        "ddpg.sigma_adapt",
                        &[
                            ("sigma", telemetry::Value::Float(sigma)),
                            ("action_distance", telemetry::Value::Float(distance)),
                        ],
                    );
                }
            }
        }
        self.resample_perturbation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> DdpgConfig {
        DdpgConfig::small_test(seed)
    }

    #[test]
    fn actions_are_distributions() {
        let agent = Ddpg::new(3, 4, config(0));
        let a = agent.act(&[1.0, 2.0, 3.0]);
        assert_eq!(a.len(), 4);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(a.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn exploratory_actions_stay_on_simplex() {
        let mut cfg = config(1);
        cfg.exploration = Exploration::ActionNoise {
            theta: 0.15,
            sigma: 0.4,
        };
        let mut agent = Ddpg::new(2, 3, cfg);
        for i in 0..50 {
            let a = agent.act_exploratory(&[i as f64, 0.0]);
            assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(a.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn unprojected_action_noise_leaves_simplex() {
        let mut cfg = config(2);
        cfg.exploration = Exploration::ActionNoise {
            theta: 0.15,
            sigma: 0.5,
        };
        let mut agent = Ddpg::new(2, 3, cfg);
        let mut violated = false;
        for i in 0..100 {
            let a = agent.act_exploratory_unprojected(&[i as f64, 1.0]);
            let sum: f64 = a.iter().sum();
            if (sum - 1.0).abs() > 1e-6 || a.iter().any(|&p| p < 0.0) {
                violated = true;
            }
        }
        assert!(violated, "raw action noise should violate the simplex");
    }

    #[test]
    fn param_noise_perturbs_policy() {
        let mut agent = Ddpg::new(2, 3, config(3));
        let s = [0.5, -0.5];
        let clean = agent.act(&s);
        let noisy = agent.act_exploratory(&s);
        let dist: f64 = clean.iter().zip(&noisy).map(|(a, b)| (a - b).abs()).sum();
        assert!(dist > 0.0, "perturbed actor should differ");
    }

    #[test]
    fn train_step_needs_enough_data() {
        let mut agent = Ddpg::new(2, 2, config(4));
        assert!(agent.train_step().is_none());
        for i in 0..8 {
            agent.observe(&[i as f64, 0.0], &[0.5, 0.5], 0.0, &[i as f64 + 1.0, 0.0]);
        }
        assert!(agent.train_step().is_some());
    }

    #[test]
    fn learns_reward_maximising_action_on_bandit() {
        // A stateless bandit: reward = a[0] (first dimension as large as
        // possible). DDPG should push the policy toward (1, 0).
        let mut cfg = config(5);
        cfg.actor_lr = 1e-2;
        cfg.critic_lr = 1e-2;
        let mut agent = Ddpg::new(1, 2, cfg);
        let s = [1.0];
        for _ in 0..1200 {
            let a = agent.act_exploratory(&s);
            let reward = a[0];
            agent.observe(&s, &a, reward, &s);
            agent.train_step();
        }
        let a = agent.act(&s);
        assert!(a[0] > 0.7, "policy did not concentrate: {a:?}");
    }

    #[test]
    fn target_networks_track_online_networks() {
        let mut agent = Ddpg::new(2, 2, config(8));
        for i in 0..16 {
            agent.observe(&[i as f64, 0.0], &[0.5, 0.5], 1.0, &[i as f64, 1.0]);
        }
        let before = agent.actor_target.flat_params();
        for _ in 0..20 {
            agent.train_step();
        }
        let after = agent.actor_target.flat_params();
        assert_ne!(before, after, "target should move");
    }

    #[test]
    fn sigma_adapts_over_time() {
        let mut agent = Ddpg::new(2, 2, config(9));
        let initial = agent.param_noise_sigma().unwrap();
        for i in 0..100 {
            let _ = agent.act_exploratory(&[i as f64 * 0.01, 0.0]);
        }
        let later = agent.param_noise_sigma().unwrap();
        assert_ne!(initial, later, "sigma should adapt");
    }

    #[test]
    fn entropy_bonus_resists_vertex_collapse() {
        // An adversarial critic signal that always favours dimension 0 drives
        // an unregularised softmax actor to the one-hot vertex; with the
        // entropy bonus it stays strictly inside the simplex.
        let train = |beta: f64| {
            let mut cfg = config(11);
            cfg.entropy_weight = beta;
            cfg.actor_lr = 1e-2;
            cfg.critic_lr = 1e-2;
            let mut agent = Ddpg::new(1, 3, cfg);
            let s = [1.0];
            for _ in 0..800 {
                let a = agent.act_exploratory(&s);
                // Reward grows with a[0] without bound preference elsewhere.
                agent.observe(&s, &a, 5.0 * a[0], &s);
                agent.train_step();
            }
            agent.act(&s)
        };
        let collapsed = train(0.0);
        let regularised = train(1.0);
        let min_collapsed = collapsed.iter().cloned().fold(f64::INFINITY, f64::min);
        let min_regularised = regularised.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            min_regularised > min_collapsed,
            "entropy should keep mass on all dimensions: {collapsed:?} vs {regularised:?}"
        );
        assert!(min_regularised > 1e-3, "{regularised:?}");
    }

    #[test]
    fn observation_normalizer_feeds_from_observe() {
        let mut agent = Ddpg::new(2, 2, config(12));
        assert_eq!(agent.obs_normalizer().count(), 0);
        agent.observe(&[1.0, 2.0], &[0.5, 0.5], 0.0, &[1.0, 2.0]);
        agent.observe_state(&[3.0, 4.0]);
        assert_eq!(agent.obs_normalizer().count(), 2);
    }

    #[test]
    fn twin_critic_trains_and_converges_toward_true_value() {
        // Constant reward 1 with γ = 0.9: the true Q is 10 everywhere, and
        // the critic must converge near it.
        let mut agent = Ddpg::new(2, 2, config(13));
        // A 32-state ring with constant reward: every next state is itself
        // an observed state, so the observation normaliser covers the whole
        // bootstrap domain.
        for i in 0..32u32 {
            let s = [f64::from(i), f64::from(i % 4)];
            let next = [f64::from((i + 1) % 32), f64::from((i + 1) % 4)];
            agent.observe(&s, &[0.5, 0.5], 1.0, &next);
        }
        let mut last = None;
        for _ in 0..400 {
            last = agent.train_step();
        }
        let q = last.unwrap().mean_q;
        assert!((q - 10.0).abs() < 3.0, "Q {q}");
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let drive = |agent: &mut Ddpg, start: usize, steps: usize| {
            let mut outs = Vec::new();
            for i in start..start + steps {
                let s = [i as f64 * 0.1, 1.0];
                let a = agent.act_exploratory(&s);
                agent.observe(&s, &a, a[0], &s);
                let stats = agent.train_step();
                outs.push((a, stats));
            }
            outs
        };
        let mut uninterrupted = Ddpg::new(2, 2, config(21));
        let mut resumed = Ddpg::new(2, 2, config(21));
        drive(&mut uninterrupted, 0, 25);
        drive(&mut resumed, 0, 25);
        // Round-trip through JSON mid-run.
        let json = serde_json::to_string(&resumed.snapshot()).unwrap();
        let mut resumed = Ddpg::from_snapshot(serde_json::from_str(&json).unwrap());
        let a = drive(&mut uninterrupted, 25, 25);
        let b = drive(&mut resumed, 25, 25);
        assert_eq!(a, b);
        assert_eq!(uninterrupted.snapshot(), resumed.snapshot());
    }

    #[test]
    fn poisoned_replay_trips_watchdog_via_try_train_step() {
        let mut agent = Ddpg::new(2, 2, config(22));
        for i in 0..8 {
            let s = [i as f64, 0.0];
            agent.observe(&s, &[0.5, 0.5], 0.0, &s);
        }
        // Inject a NaN batch the validated path would have rejected.
        for _ in 0..8 {
            agent.replay_mut().push_unchecked(StoredTransition {
                state: vec![0.0, 0.0],
                action: vec![0.5, 0.5],
                reward: f64::NAN,
                next_state: vec![0.0, 0.0],
            });
        }
        let mut health = TrainHealth::new(0.99, 1e4, 0);
        let mut tripped = false;
        for _ in 0..50 {
            if agent.try_train_step(&mut health).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "NaN batch must trip the watchdog");
    }

    #[test]
    fn recovery_helpers_halve_sigma_and_reseed() {
        let mut agent = Ddpg::new(2, 2, config(23));
        let sigma = agent.param_noise_sigma().unwrap();
        agent.halve_param_noise();
        assert!((agent.param_noise_sigma().unwrap() - sigma / 2.0).abs() < 1e-15);
        // Reseeding with the same seed gives identical subsequent streams.
        let mut twin = agent.clone();
        agent.reseed(99);
        twin.reseed(99);
        let s = [0.3, 0.7];
        assert_eq!(agent.act_exploratory(&s), twin.act_exploratory(&s));
    }

    #[test]
    fn observe_rejects_non_finite_and_counts() {
        use telemetry::{JsonlSink, Recorder, Telemetry};
        let sink = JsonlSink::in_memory();
        let mut agent = Ddpg::new(2, 2, config(24));
        agent.set_telemetry(Telemetry::new(sink.clone()));
        agent.observe(&[0.0, 0.0], &[0.5, 0.5], f64::NAN, &[1.0, 1.0]);
        assert_eq!(agent.replay.len(), 0);
        assert_eq!(agent.obs_normalizer().count(), 0);
        agent.observe(&[0.0, 0.0], &[0.5, 0.5], 1.0, &[1.0, 1.0]);
        assert_eq!(agent.replay.len(), 1);
        Recorder::flush(&*sink);
        let text = String::from_utf8(sink.take_output()).unwrap();
        assert!(text.contains("replay.rejected_nonfinite"));
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let run = |seed| {
            let mut agent = Ddpg::new(2, 2, config(seed));
            let mut outs = Vec::new();
            for i in 0..30 {
                let s = [i as f64 * 0.1, 1.0];
                let a = agent.act_exploratory(&s);
                agent.observe(&s, &a, a[0], &s);
                agent.train_step();
                outs.push(a);
            }
            outs
        };
        assert_eq!(run(42), run(42));
    }
}
