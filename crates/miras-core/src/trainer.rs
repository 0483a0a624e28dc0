//! The iterative model-based training loop (paper §IV-E, Algorithm 2),
//! with crash-safe checkpointing and a divergence watchdog.

use std::fmt;
use std::path::Path;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rl::{Ddpg, Environment, TrainError, TrainHealth};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{CheckpointError, CheckpointPayload, CHECKPOINT_VERSION};
use crate::rollout::{run_rollouts, RolloutParams};
use crate::{
    ClusterEnvAdapter, DynamicsModel, MirasAgent, MirasConfig, RefinedModel, TransitionDataset,
};

/// Why a self-healing training driver ultimately gave up.
#[derive(Debug)]
pub enum TrainerError {
    /// The divergence watchdog kept firing after every allowed recovery
    /// attempt (see [`MirasTrainer::run_iteration_recovering`]).
    Train(TrainError),
    /// The rollback checkpoint could not be saved or reloaded.
    Checkpoint(CheckpointError),
}

impl fmt::Display for TrainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainerError::Train(e) => write!(f, "training diverged beyond recovery: {e}"),
            TrainerError::Checkpoint(e) => write!(f, "checkpoint failure during recovery: {e}"),
        }
    }
}

impl std::error::Error for TrainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainerError::Train(e) => Some(e),
            TrainerError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<TrainError> for TrainerError {
    fn from(e: TrainError) -> Self {
        TrainerError::Train(e)
    }
}

impl From<CheckpointError> for TrainerError {
    fn from(e: CheckpointError) -> Self {
        TrainerError::Checkpoint(e)
    }
}

/// What happened during one outer iteration of Algorithm 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Real-environment steps collected this iteration.
    pub steps_collected: usize,
    /// Total transitions in the dataset `D` after collection.
    pub dataset_size: usize,
    /// Final-epoch model training MSE (standardised space).
    pub model_loss: f64,
    /// Mean return per synthetic rollout during the inner policy loop.
    pub synthetic_return_mean: f64,
    /// Number of synthetic rollouts actually run (early stop may cut the
    /// budget short).
    pub rollouts_run: usize,
    /// Aggregated reward of the greedy policy evaluated on the *real*
    /// environment for the configured number of steps (the y-axis of the
    /// paper's Fig. 6).
    pub eval_return: f64,
    /// Current parameter-noise scale, when parameter noise is in use.
    pub exploration_sigma: Option<f64>,
}

/// Drives Algorithm 2: collect real interactions with the current policy →
/// retrain the environment model → train the policy against the refined
/// model → evaluate — repeated until the policy performs well.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct MirasTrainer {
    config: MirasConfig,
    agent: Ddpg,
    model: DynamicsModel,
    dataset: TransitionDataset,
    iteration: usize,
    consumer_budget: usize,
    rng: SmallRng,
    telemetry: telemetry::Telemetry,
    lend_triggers_total: u64,
}

impl MirasTrainer {
    /// Creates a trainer sized for the given real environment.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) text if
    /// [`MirasConfig::validate`] rejects `config`.
    #[must_use]
    pub fn new(env: &ClusterEnvAdapter, config: MirasConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let j = env.state_dim();
        let mut ddpg_config = config.ddpg.clone();
        ddpg_config.seed = config.seed;
        let agent = Ddpg::new(j, j, ddpg_config);
        let model = DynamicsModel::new(j, &config);
        MirasTrainer {
            agent,
            model,
            dataset: TransitionDataset::new(j),
            iteration: 0,
            consumer_budget: env.consumer_budget(),
            rng: SmallRng::seed_from_u64(config.seed.wrapping_add(0xA11CE)),
            config,
            telemetry: telemetry::Telemetry::noop(),
            lend_triggers_total: 0,
        }
    }

    /// Attaches a telemetry handle and cascades it into the DDPG learner.
    /// Each [`run_iteration`](MirasTrainer::run_iteration) then emits an
    /// `iteration` event carrying the full [`IterationReport`] plus the
    /// iteration's Lend–Giveback trigger count and the synthetic-vs-real
    /// per-step reward gap. Recording never changes training results.
    pub fn set_telemetry(&mut self, telemetry: telemetry::Telemetry) {
        self.agent.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The accumulated dataset `D`.
    #[must_use]
    pub fn dataset(&self) -> &TransitionDataset {
        &self.dataset
    }

    /// Snapshot of the current greedy policy as a deployable agent,
    /// including the observation normaliser it was trained with.
    #[must_use]
    pub fn agent(&self) -> MirasAgent {
        MirasAgent::from_parts(
            self.agent.actor(),
            self.agent.obs_normalizer().clone(),
            self.consumer_budget,
        )
    }

    /// The refined model built from the current model and dataset (useful
    /// for model-accuracy evaluations, Fig. 5).
    ///
    /// # Panics
    ///
    /// Panics if no data has been collected yet.
    #[must_use]
    pub(crate) fn refined_model(&self) -> RefinedModel {
        if self.config.refine_enabled {
            RefinedModel::fit(
                self.model.clone(),
                &self.dataset,
                self.config.refine_percentile,
            )
        } else {
            RefinedModel::unrefined(self.model.clone())
        }
    }

    /// Runs one outer iteration of Algorithm 2 against the real environment.
    ///
    /// Divergence checks run with the default watchdog policy but treat a
    /// detection as fatal; use the self-healing
    /// [`run_iteration_recovering`](MirasTrainer::run_iteration_recovering)
    /// to handle divergence as a recoverable error instead.
    ///
    /// # Panics
    ///
    /// Panics if training produces non-finite losses or weights or the
    /// critic loss blows up.
    pub fn run_iteration(&mut self, real_env: &mut ClusterEnvAdapter) -> IterationReport {
        let mut health = TrainHealth::default_policy();
        self.try_run_iteration(real_env, &mut health)
            .expect("training diverged; use try_run_iteration to recover")
    }

    /// Runs one outer iteration of Algorithm 2, reporting divergence as a
    /// recoverable [`TrainError`] instead of panicking.
    ///
    /// The watchdog `health` monitors every DDPG update: non-finite losses
    /// or weights and EWMA critic-loss blow-ups abort the iteration. Pass a
    /// watchdog that lives across iterations so its critic-loss baseline
    /// carries over. On `Err`, the trainer has performed part of the
    /// iteration's updates; roll back to a checkpoint before retrying
    /// (see [`run_iteration_recovering`](MirasTrainer::run_iteration_recovering)).
    ///
    /// # Errors
    ///
    /// Returns the [`TrainError`] raised by the first unhealthy DDPG update.
    pub(crate) fn try_run_iteration(
        &mut self,
        real_env: &mut ClusterEnvAdapter,
        health: &mut TrainHealth,
    ) -> Result<IterationReport, TrainError> {
        // 1. Collect real interactions, resetting periodically (§VI-A3).
        //    The first iteration uses random allocations (the untrained
        //    policy's near-constant actions carry no action-response
        //    information for the model); later iterations use the current
        //    exploratory policy with a small random-action fraction mixed in.
        use rand::Rng;
        let steps = self.config.real_steps_per_iter;
        let random_only = self.config.initial_random_collection && self.iteration == 0;
        let j = real_env.state_dim();
        let mut random_dist = vec![1.0 / j as f64; j];
        let mut s = real_env.reset();
        self.inject_collection_burst(real_env);
        for step in 0..steps {
            if step > 0 && step % self.config.reset_every == 0 {
                s = real_env.reset();
                self.inject_collection_burst(real_env);
                self.agent.resample_perturbation();
            }
            self.agent.observe_state(&s);
            if step % 4 == 0 {
                let raw: Vec<f64> = (0..j).map(|_| self.rng.gen_range(0.0..1.0)).collect();
                random_dist = rl::policy::project_to_simplex(&raw);
            }
            let use_random = random_only
                || self
                    .rng
                    .gen_bool(self.config.random_action_fraction.clamp(0.0, 1.0));
            let a = if use_random {
                random_dist.clone()
            } else {
                self.agent.act_exploratory(&s)
            };
            let t = real_env.step(&a);
            s = t.next_state;
        }
        real_env.drain_into(&mut self.dataset);

        // 2. Retrain the environment model on the grown dataset.
        let model_loss = self.model.train_with_telemetry(
            &self.dataset,
            self.config.model_epochs,
            self.config.model_batch,
            &self.telemetry,
        );

        // 3. Inner loop: improve the policy against the refined model.
        let refined = self.refined_model();
        let synth_seed = self
            .config
            .seed
            .wrapping_add(0xBEEF)
            .wrapping_add(self.iteration as u64);
        let params = RolloutParams {
            lanes: self.config.lanes,
            rollout_len: self.config.rollout_len,
            rollouts: self.config.rollouts_per_iter,
            patience: self.config.inner_patience,
            consumer_budget: self.consumer_budget,
            synth_seed,
        };
        let outcome = run_rollouts(
            &mut self.agent,
            refined,
            &self.dataset,
            &params,
            health,
            &self.telemetry,
        )?;
        let (returns, lend_triggers) = (outcome.returns, outcome.lend_triggers);
        let synthetic_return_mean = if returns.is_empty() {
            0.0
        } else {
            returns.iter().sum::<f64>() / returns.len() as f64
        };

        // 4. Evaluate the greedy policy on the real environment.
        let eval_return = self.evaluate(real_env, self.config.eval_steps);
        // Evaluation transitions are real interactions too — keep them.
        real_env.drain_into(&mut self.dataset);

        let report = IterationReport {
            iteration: self.iteration,
            steps_collected: steps,
            dataset_size: self.dataset.len(),
            model_loss,
            synthetic_return_mean,
            rollouts_run: returns.len(),
            eval_return,
            exploration_sigma: self.agent.param_noise_sigma(),
        };
        self.lend_triggers_total += lend_triggers;
        if self.telemetry.is_enabled() {
            // Per-step reward means make the synthetic-vs-real gap
            // comparable across rollout/evaluation budgets.
            let synth_mean_step = if self.config.rollout_len > 0 {
                synthetic_return_mean / self.config.rollout_len as f64
            } else {
                0.0
            };
            let real_mean_step = if self.config.eval_steps > 0 {
                eval_return / self.config.eval_steps as f64
            } else {
                0.0
            };
            if let Ok(serde::value::Value::Object(mut fields)) = serde::value::to_value(&report) {
                fields.push((
                    "lend_triggers".to_string(),
                    serde::value::Value::UInt(lend_triggers),
                ));
                fields.push((
                    "reward_gap_per_step".to_string(),
                    serde::value::Value::Float(synth_mean_step - real_mean_step),
                ));
                self.telemetry
                    .event_struct("iteration", &serde::value::Value::Object(fields));
            }
            self.telemetry.counter("trainer.iterations", 1);
        }
        self.iteration += 1;
        Ok(report)
    }

    /// Atomically persists the complete training state — agent, model,
    /// dataset, RNG streams, iteration index, and the real environment's
    /// simulator state — so [`resume`](MirasTrainer::resume) can continue
    /// bit-identically after a crash.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the file cannot be written.
    pub fn save_checkpoint(
        &self,
        real_env: &ClusterEnvAdapter,
        path: &Path,
    ) -> Result<(), CheckpointError> {
        CheckpointPayload {
            version: CHECKPOINT_VERSION,
            config: self.config.clone(),
            iteration: self.iteration,
            consumer_budget: self.consumer_budget,
            dataset: self.dataset.clone(),
            model: self.model.clone(),
            agent: self.agent.snapshot(),
            trainer_rng_state: self.rng.state(),
            lend_triggers_total: self.lend_triggers_total,
            adapter: real_env.snapshot(),
        }
        .save(path)
    }

    /// Reloads a checkpoint written by
    /// [`save_checkpoint`](MirasTrainer::save_checkpoint), returning the
    /// trainer *and* the real-environment adapter exactly as they were at
    /// save time. Continuing the loop from the pair is bit-identical to a
    /// run that was never interrupted. Telemetry is not persisted — call
    /// [`set_telemetry`](MirasTrainer::set_telemetry) on the restored pair
    /// to keep recording.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the file is missing, truncated or
    /// corrupt, and [`CheckpointError::Mismatch`] if it is of another
    /// format version than this build writes (a version-1 checkpoint's
    /// policy line still serves).
    ///
    /// # Panics
    ///
    /// Panics if `ensemble` does not match the checkpointed simulator state.
    pub fn resume(
        path: &Path,
        ensemble: workflow::Ensemble,
    ) -> Result<(MirasTrainer, ClusterEnvAdapter), CheckpointError> {
        Ok(Self::restore(CheckpointPayload::load(path)?, ensemble))
    }

    /// Materialises a trainer + adapter pair from a loaded payload.
    fn restore(
        payload: CheckpointPayload,
        ensemble: workflow::Ensemble,
    ) -> (Self, ClusterEnvAdapter) {
        let adapter = ClusterEnvAdapter::from_snapshot(ensemble, payload.adapter);
        let trainer = MirasTrainer {
            config: payload.config,
            agent: Ddpg::from_snapshot(payload.agent),
            model: payload.model,
            dataset: payload.dataset,
            iteration: payload.iteration,
            consumer_budget: payload.consumer_budget,
            rng: SmallRng::from_state(payload.trainer_rng_state),
            telemetry: telemetry::Telemetry::noop(),
            lend_triggers_total: payload.lend_triggers_total,
        };
        (trainer, adapter)
    }

    /// Runs one outer iteration with automatic divergence recovery: the
    /// state is checkpointed to `checkpoint_path` first, and when the
    /// watchdog fires the trainer (and the real environment) roll back to
    /// that checkpoint, parameter-noise σ is halved, the agent's noise
    /// stream is re-seeded so the retry explores a different trajectory,
    /// and the iteration is retried — up to `max_retries` times. Every
    /// recovery emits a `recovery` telemetry event (iteration, attempt,
    /// error kind, post-halving σ) and bumps the `trainer.recoveries`
    /// counter.
    ///
    /// If the *current* state is itself unserializable (e.g. NaNs already
    /// smuggled into the replay buffer by an external fault), the refresh
    /// of the rollback point is skipped and the previous good checkpoint at
    /// `checkpoint_path` — if any — remains the rollback target, exactly as
    /// after a crash.
    ///
    /// A rollback resets the environment adapter's telemetry handle (it is
    /// not part of the checkpoint); reattach with
    /// [`ClusterEnvAdapter::set_telemetry`] afterwards if the environment
    /// was recording.
    ///
    /// # Errors
    ///
    /// Returns [`TrainerError::Train`] when every retry diverged, or
    /// [`TrainerError::Checkpoint`] when the rollback checkpoint could not
    /// be saved or reloaded.
    pub fn run_iteration_recovering(
        &mut self,
        real_env: &mut ClusterEnvAdapter,
        health: &mut TrainHealth,
        checkpoint_path: &Path,
        max_retries: usize,
    ) -> Result<IterationReport, TrainerError> {
        match self.save_checkpoint(real_env, checkpoint_path) {
            Ok(()) => {}
            // Unserializable state means the poison is already aboard; the
            // stale-but-good checkpoint stays the rollback point.
            Err(CheckpointError::Corrupt(_)) if checkpoint_path.exists() => {}
            Err(e) => return Err(e.into()),
        }
        let mut attempt = 0usize;
        loop {
            match self.try_run_iteration(real_env, health) {
                Ok(report) => return Ok(report),
                Err(e) => {
                    attempt += 1;
                    let telemetry = self.telemetry.clone();
                    if attempt > max_retries {
                        return Err(e.into());
                    }
                    // Roll back both the trainer and the environment to the
                    // pre-iteration state, then perturb the exploration so
                    // the retry does not deterministically re-diverge.
                    let payload = CheckpointPayload::load(checkpoint_path)?;
                    let ensemble = real_env.env().cluster().ensemble().clone();
                    let (trainer, env) = Self::restore(payload, ensemble);
                    *self = trainer;
                    *real_env = env;
                    self.set_telemetry(telemetry.clone());
                    self.agent.halve_param_noise();
                    let recovery_seed = self
                        .config
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(0xD1DE ^ attempt as u64);
                    self.agent.reseed(recovery_seed);
                    health.reset();
                    telemetry.event(
                        "recovery",
                        &[
                            ("iteration", telemetry::Value::UInt(self.iteration as u64)),
                            ("attempt", telemetry::Value::UInt(attempt as u64)),
                            ("kind", telemetry::Value::String(e.kind().to_string())),
                            (
                                "sigma",
                                telemetry::Value::Float(
                                    self.agent.param_noise_sigma().unwrap_or(f64::NAN),
                                ),
                            ),
                        ],
                    );
                    telemetry.counter("trainer.recoveries", 1);
                }
            }
        }
    }

    /// Mutable access to the underlying DDPG learner. Exposed so
    /// fault-injection tests (and the resilience benchmark) can poison the
    /// replay buffer or inspect optimizer state; production drivers should
    /// not need it.
    pub fn agent_mut(&mut self) -> &mut Ddpg {
        &mut self.agent
    }

    /// Injects a random episode-opening burst when collection bursts are
    /// configured.
    fn inject_collection_burst(&mut self, real_env: &mut ClusterEnvAdapter) {
        use rand::Rng;
        if let Some(max) = self.config.collect_burst_max.clone() {
            // Half of the episodes stay burst-free so the policy keeps
            // seeing the steady-state regime.
            if self.rng.gen_bool(0.5) {
                return;
            }
            // Tolerate configs reused across ensembles with a different
            // number of workflow types: missing entries burst zero requests.
            let n = real_env.env().num_workflow_types();
            let sizes: Vec<usize> = (0..n)
                .map(|i| match max.get(i) {
                    Some(&m) if m > 0 => self.rng.gen_range(0..=m),
                    _ => 0,
                })
                .collect();
            real_env
                .env_mut()
                .inject_burst(&workflow::BurstSpec::new(sizes));
        }
    }

    /// Aggregated reward of the greedy policy over `steps` real-environment
    /// steps, starting from a reset (the paper's per-iteration evaluation).
    pub fn evaluate(&mut self, real_env: &mut ClusterEnvAdapter, steps: usize) -> f64 {
        let mut s = real_env.reset();
        let mut total = 0.0;
        for _ in 0..steps {
            let a = self.agent.act(&s);
            let t = real_env.step(&a);
            total += t.reward;
            s = t.next_state;
        }
        total
    }

    /// Collects `steps` transitions using uniformly random allocations —
    /// used to bootstrap model-accuracy studies (Fig. 5) where the paper
    /// selects actions randomly.
    pub fn collect_random(&mut self, real_env: &mut ClusterEnvAdapter, steps: usize) {
        use rand::Rng;
        let j = real_env.state_dim();
        let _ = real_env.reset();
        let mut current: Vec<f64> = vec![1.0 / j as f64; j];
        for step in 0..steps {
            if step > 0 && step % self.config.reset_every == 0 {
                let _ = real_env.reset();
            }
            // The paper varies random actions every 4 steps.
            if step % 4 == 0 {
                let raw: Vec<f64> = (0..j).map(|_| self.rng.gen_range(0.0..1.0)).collect();
                current = rl::policy::project_to_simplex(&raw);
            }
            let _ = real_env.step(&current);
        }
        real_env.drain_into(&mut self.dataset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsim::{EnvConfig, MicroserviceEnv};
    use workflow::Ensemble;

    fn real_env(seed: u64) -> ClusterEnvAdapter {
        let ensemble = Ensemble::msd();
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, config))
    }

    #[test]
    fn one_iteration_produces_sane_report() {
        let mut env = real_env(0);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(1));
        let report = trainer.run_iteration(&mut env);
        assert_eq!(report.iteration, 0);
        assert_eq!(report.steps_collected, 30);
        // Collection steps plus evaluation steps land in the dataset.
        assert_eq!(report.dataset_size, 35);
        assert!(report.model_loss.is_finite());
        assert!(report.eval_return.is_finite());
        assert!(report.rollouts_run >= 1);
        assert!(report.exploration_sigma.is_some());
    }

    /// `Ddpg::new` refuses a zero batch size itself, but a zero lane count
    /// would otherwise build a trainer whose first iteration panics.
    #[test]
    #[should_panic(expected = "invalid MirasConfig.lanes: lockstep lane count must be positive")]
    fn a_config_that_fails_validate_panics_at_construction() {
        let env = real_env(0);
        let mut config = MirasConfig::smoke_test(1);
        config.lanes = 0;
        let _ = MirasTrainer::new(&env, config);
    }

    #[test]
    fn dataset_grows_across_iterations() {
        let mut env = real_env(2);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(3));
        let r1 = trainer.run_iteration(&mut env);
        let r2 = trainer.run_iteration(&mut env);
        assert!(r2.dataset_size > r1.dataset_size);
        assert_eq!(r2.iteration, 1);
    }

    #[test]
    fn agent_respects_budget_after_training() {
        let mut env = real_env(4);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(5));
        let _ = trainer.run_iteration(&mut env);
        let agent = trainer.agent();
        for wip in [[0.0; 4], [50.0; 4], [3.0, 100.0, 0.0, 7.0]] {
            let m = agent.allocate(&wip);
            assert!(m.iter().sum::<usize>() <= 14);
        }
    }

    #[test]
    fn collect_random_fills_dataset() {
        let mut env = real_env(6);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(7));
        trainer.collect_random(&mut env, 40);
        assert_eq!(trainer.dataset().len(), 40);
    }

    #[test]
    fn refined_model_reflects_config_flag() {
        let mut env = real_env(8);
        let config = MirasConfig {
            refine_enabled: false,
            ..MirasConfig::smoke_test(9)
        };
        let mut trainer = MirasTrainer::new(&env, config);
        let _ = trainer.run_iteration(&mut env);
        assert!(!trainer.refined_model().is_enabled());
    }

    #[test]
    fn evaluation_is_reproducible_for_same_seeds() {
        let run = |seed| {
            let mut env = real_env(seed);
            let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(seed));
            let r = trainer.run_iteration(&mut env);
            r.eval_return
        };
        assert_eq!(run(10), run(10));
    }

    /// Wide lockstep waves must run the full rollout budget and produce a
    /// healthy report (values differ from sequential by design: exploration
    /// randomness is consumed in lane order).
    #[test]
    fn lockstep_wide_runs_full_budget() {
        let mut env = real_env(23);
        let mut trainer = MirasTrainer::new(
            &env,
            MirasConfig::smoke_test(24).try_with_lockstep(3).unwrap(),
        );
        let report = trainer.run_iteration(&mut env);
        // smoke_test has rollouts_per_iter = 4 and no patience: one full
        // 3-lane wave plus one 1-lane remainder wave.
        assert_eq!(report.rollouts_run, 4);
        assert!(report.model_loss.is_finite());
        assert!(report.eval_return.is_finite());
        assert!(report.synthetic_return_mean.is_finite());
    }

    fn temp_checkpoint(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("miras_trainer_test_{name}.json"))
    }

    #[test]
    fn resumed_training_is_bit_identical_to_uninterrupted() {
        let path = temp_checkpoint("bit_identical");
        // Uninterrupted reference: three iterations straight through.
        let mut ref_env = real_env(11);
        let mut reference = MirasTrainer::new(&ref_env, MirasConfig::smoke_test(12));
        let _ = reference.run_iteration(&mut ref_env);
        let ref_r2 = reference.run_iteration(&mut ref_env);
        let ref_r3 = reference.run_iteration(&mut ref_env);

        // "Crashed" run: one iteration, checkpoint, drop everything.
        let mut env = real_env(11);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(12));
        let _ = trainer.run_iteration(&mut env);
        trainer.save_checkpoint(&env, &path).unwrap();
        drop(trainer);
        drop(env);

        // Resume from disk and continue.
        let (mut resumed, mut env) = MirasTrainer::resume(&path, Ensemble::msd()).unwrap();
        let r2 = resumed.run_iteration(&mut env);
        let r3 = resumed.run_iteration(&mut env);
        assert_eq!(r2, ref_r2);
        assert_eq!(r3, ref_r3);
        // Not just the reports: the full agent state matches bit for bit.
        assert_eq!(
            resumed.agent_mut().snapshot(),
            reference.agent_mut().snapshot()
        );
        // And the two environments are in identical simulator states.
        assert_eq!(env.snapshot(), ref_env.snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_deployable_agent_matches_trainer_agent() {
        let path = temp_checkpoint("deployable");
        let mut env = real_env(21);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(22));
        let _ = trainer.run_iteration(&mut env);
        trainer.save_checkpoint(&env, &path).unwrap();
        let payload = crate::CheckpointPayload::load(&path).unwrap();
        assert_eq!(payload.iteration(), 1);
        // The agent extracted straight from the payload is the exact agent
        // a full resume would deploy (actor, normaliser and budget).
        assert_eq!(payload.deployable_agent(), trainer.agent());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn policy_line_holds_the_deployable_agent_of_the_same_file() {
        let path = temp_checkpoint("policy_line");
        let mut env = real_env(23);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(24));
        let _ = trainer.run_iteration(&mut env);
        let _ = trainer.run_iteration(&mut env);
        trainer.save_checkpoint(&env, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (line, _) = text.split_once('\n').expect("a policy line");
        let payload = crate::CheckpointPayload::load(&path).unwrap();
        assert_eq!(
            crate::decode_policy_line(line.as_bytes()).unwrap(),
            (payload.deployable_agent(), 2)
        );
        // A policy file of the same agent is exactly that line.
        let policy = temp_checkpoint("policy_file");
        crate::save_policy(&policy, &trainer.agent(), 2).unwrap();
        assert_eq!(
            std::fs::read_to_string(&policy).unwrap(),
            format!("{line}\n")
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&policy).ok();
    }

    #[test]
    fn truncated_checkpoint_is_rejected_as_corrupt() {
        let path = temp_checkpoint("truncated");
        let mut env = real_env(13);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(14));
        let _ = trainer.run_iteration(&mut env);
        trainer.save_checkpoint(&env, &path).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = MirasTrainer::resume(&path, Ensemble::msd()).unwrap_err();
        assert!(
            matches!(err, crate::CheckpointError::Corrupt(_)),
            "expected Corrupt, got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_save_leaves_no_temp_file() {
        let path = temp_checkpoint("atomic");
        let mut env = real_env(15);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(16));
        let _ = trainer.run_iteration(&mut env);
        trainer.save_checkpoint(&env, &path).unwrap();
        assert!(path.exists());
        assert!(!std::path::Path::new(&format!("{}.tmp", path.display())).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn watchdog_detects_poisoned_replay_and_recovering_driver_heals() {
        use rl::StoredTransition;
        let path = temp_checkpoint("recovery");
        let sink = telemetry::JsonlSink::in_memory();
        let mut env = real_env(17);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(18));
        trainer.set_telemetry(telemetry::Telemetry::new(sink.clone()));
        let mut health = rl::TrainHealth::default_policy();

        // A healthy first iteration establishes a baseline.
        let r1 = trainer
            .run_iteration_recovering(&mut env, &mut health, &path, 2)
            .unwrap();
        assert!(r1.eval_return.is_finite());

        // Poison the replay buffer behind the validation layer's back —
        // the stand-in for any divergence source inside an iteration. Many
        // copies so the next sampled batch almost surely hits one.
        let sigma_before = trainer.agent_mut().param_noise_sigma().unwrap();
        for _ in 0..24 {
            trainer
                .agent_mut()
                .replay_mut()
                .push_unchecked(StoredTransition {
                    state: vec![f64::NAN; 4],
                    action: vec![0.25; 4],
                    reward: f64::NAN,
                    next_state: vec![f64::NAN; 4],
                });
        }
        let r2 = trainer
            .run_iteration_recovering(&mut env, &mut health, &path, 3)
            .expect("rollback + retry heals the poisoned run");
        assert!(r2.model_loss.is_finite());
        assert!(r2.eval_return.is_finite());
        // The rollback restored the pre-poison checkpoint and halved σ.
        let sigma_after = trainer.agent_mut().param_noise_sigma().unwrap();
        assert!(
            sigma_after < sigma_before,
            "σ should shrink on recovery: {sigma_before} -> {sigma_after}"
        );

        // The recovery is visible in telemetry.
        trainer.set_telemetry(telemetry::Telemetry::noop());
        sink.try_flush().unwrap();
        let out = String::from_utf8(sink.take_output()).unwrap();
        assert!(out.contains("\"recovery\""), "no recovery event in {out}");
        assert!(out.contains("non_finite"), "no error kind in {out}");
        assert!(out.contains("trainer.recoveries"), "no counter in {out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_iteration_recovering_gives_up_after_retry_budget() {
        let path = temp_checkpoint("gives_up");
        let mut env = real_env(19);
        let mut trainer = MirasTrainer::new(&env, MirasConfig::smoke_test(20));
        let mut health = rl::TrainHealth::default_policy();
        let _ = trainer
            .run_iteration_recovering(&mut env, &mut health, &path, 1)
            .unwrap();
        // A zero-retry budget with a poisoned buffer must surface
        // TrainerError::Train instead of retrying.
        use rl::StoredTransition;
        for _ in 0..24 {
            trainer
                .agent_mut()
                .replay_mut()
                .push_unchecked(StoredTransition {
                    state: vec![f64::NAN; 4],
                    action: vec![0.25; 4],
                    reward: f64::NAN,
                    next_state: vec![f64::NAN; 4],
                });
        }
        let err = trainer
            .run_iteration_recovering(&mut env, &mut health, &path, 0)
            .unwrap_err();
        assert!(matches!(err, TrainerError::Train(_)), "got {err}");
        std::fs::remove_file(&path).ok();
    }
}
