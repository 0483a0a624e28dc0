//! MIRAS hyper-parameters.

use microsim::ConfigError;
use rl::{DdpgConfig, Exploration};
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the full MIRAS pipeline (model + policy + loop).
///
/// [`MirasConfig::msd_paper`] and [`MirasConfig::ligo_paper`] mirror §VI-A3
/// of the paper; [`MirasConfig::msd_fast`] / [`MirasConfig::ligo_fast`] are
/// proportionally scaled-down versions used by the benchmark harness where
/// wall-clock matters more than exact scale, and
/// [`MirasConfig::smoke_test`] is a miniature for unit tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MirasConfig {
    /// Hidden-layer widths of the environment model (paper: `[20; 3]` for
    /// MSD, `[20]` for LIGO — the smaller LIGO model avoids overfitting).
    pub model_hidden: Vec<usize>,
    /// Environment-model training epochs per outer iteration.
    pub model_epochs: usize,
    /// Minibatch size for model training.
    pub model_batch: usize,
    /// Percentile `p` for the refinement thresholds τ (and `100 − p` for ω;
    /// Algorithm 1).
    pub refine_percentile: f64,
    /// Whether Lend–Giveback refinement is applied (the refinement ablation
    /// turns this off).
    pub refine_enabled: bool,
    /// Real-environment steps collected per outer iteration (paper: 1000
    /// for MSD, 2000 for LIGO).
    pub real_steps_per_iter: usize,
    /// Reset the real environment every this many collection steps
    /// (paper: 25).
    pub reset_every: usize,
    /// Length of one synthetic rollout (paper: 25 for MSD, 10 for LIGO).
    pub rollout_len: usize,
    /// Number of synthetic rollouts per outer iteration (the paper trains
    /// "until performance stops improving"; we run a fixed budget with an
    /// early-stop patience below).
    pub rollouts_per_iter: usize,
    /// Stop the inner loop early when the mean synthetic return has not
    /// improved for this many consecutive rollouts (0 disables).
    pub inner_patience: usize,
    /// Steps used when evaluating the policy on the real environment
    /// (paper: 25 for MSD, 100 for LIGO).
    pub eval_steps: usize,
    /// Collect the first iteration's real transitions with uniformly random
    /// allocations (changed every 4 steps, as in the paper's §VI-B model
    /// study). An untrained policy produces near-constant actions, from
    /// which the environment model cannot identify the action response.
    pub initial_random_collection: bool,
    /// During later collection iterations, replace this fraction of policy
    /// actions with random ones, keeping persistent action-space coverage
    /// for the model.
    pub random_action_fraction: f64,
    /// When set, each collection episode starts with a random request burst
    /// of up to `max[i]` requests per workflow type. The evaluation protocol
    /// (§VI-D) front-loads large bursts; on the paper's real testbed the
    /// slow task times meant ordinary collection already visited such
    /// high-WIP states, while this emulator needs them injected explicitly
    /// (see DESIGN.md, substitutions).
    pub collect_burst_max: Option<Vec<usize>>,
    /// DDPG hyper-parameters.
    pub ddpg: DdpgConfig,
    /// Synthetic rollouts the inner loop steps in lockstep, through batched
    /// model and actor forwards (see
    /// [`BatchedSyntheticEnv`](crate::BatchedSyntheticEnv)). Every preset
    /// runs one lane, consuming the RNG streams in the order of the
    /// textbook loop; [`try_with_lockstep`](MirasConfig::try_with_lockstep)
    /// sets more. Bit-stable at any count, but more than one lane consumes
    /// exploration randomness in lane order, so it is a *throughput*
    /// option, not a replay of the one-lane run.
    pub lanes: usize,
    /// Master seed.
    pub seed: u64,
}

impl MirasConfig {
    /// Paper-faithful configuration for the MSD ensemble (§VI-A3).
    #[must_use]
    pub fn msd_paper(seed: u64) -> Self {
        MirasConfig {
            model_hidden: vec![20, 20, 20],
            model_epochs: 60,
            model_batch: 64,
            refine_percentile: 10.0,
            refine_enabled: true,
            real_steps_per_iter: 1000,
            reset_every: 25,
            rollout_len: 25,
            rollouts_per_iter: 120,
            inner_patience: 30,
            eval_steps: 25,
            initial_random_collection: true,
            random_action_fraction: 0.1,
            collect_burst_max: Some(vec![400, 250, 400]),
            ddpg: DdpgConfig::paper(256, seed),
            lanes: 1,
            seed,
        }
    }

    /// Paper-faithful configuration for the LIGO ensemble (§VI-A3).
    #[must_use]
    pub fn ligo_paper(seed: u64) -> Self {
        MirasConfig {
            model_hidden: vec![20],
            model_epochs: 60,
            model_batch: 64,
            refine_percentile: 10.0,
            refine_enabled: true,
            real_steps_per_iter: 2000,
            reset_every: 25,
            rollout_len: 10,
            rollouts_per_iter: 150,
            inner_patience: 30,
            eval_steps: 100,
            initial_random_collection: true,
            random_action_fraction: 0.1,
            collect_burst_max: Some(vec![150, 150, 80, 80]),
            ddpg: {
                let mut d = DdpgConfig::paper(512, seed);
                // The 9-dimensional LIGO action space needs a stronger
                // entropy bonus to stay off the softmax vertices (found by
                // the entropy sweep recorded in EXPERIMENTS.md).
                d.entropy_weight = 4.0;
                d
            },
            lanes: 1,
            seed,
        }
    }

    /// Configuration for the GPU inference-serving ensemble
    /// ([`workflow::Ensemble::gpu_serve`]): MSD-sized state/action spaces
    /// (6 task types vs MSD's 4), so it reuses the MSD network shapes with
    /// burst collection sized to the three request classes.
    #[must_use]
    pub fn gpu_serve_paper(seed: u64) -> Self {
        let mut c = MirasConfig::msd_paper(seed);
        c.collect_burst_max = Some(vec![300, 120, 40]);
        c
    }

    /// A proportionally scaled-down GPU-serving configuration for the
    /// benchmark harness.
    #[must_use]
    pub fn gpu_serve_fast(seed: u64) -> Self {
        let mut c = MirasConfig::gpu_serve_paper(seed);
        c.real_steps_per_iter = 250;
        c.model_epochs = 150;
        c.rollouts_per_iter = 100;
        c.ddpg = DdpgConfig::paper(64, seed);
        c
    }

    /// A proportionally scaled-down MSD configuration for the benchmark
    /// harness (same structure, smaller step and network budgets).
    #[must_use]
    pub fn msd_fast(seed: u64) -> Self {
        let mut c = MirasConfig::msd_paper(seed);
        c.real_steps_per_iter = 250;
        c.model_epochs = 150;
        c.rollouts_per_iter = 100;
        c.ddpg = DdpgConfig::paper(64, seed);
        c
    }

    /// A proportionally scaled-down LIGO configuration for the benchmark
    /// harness.
    #[must_use]
    pub fn ligo_fast(seed: u64) -> Self {
        let mut c = MirasConfig::ligo_paper(seed);
        c.real_steps_per_iter = 450;
        c.model_epochs = 150;
        c.rollouts_per_iter = 150;
        c.eval_steps = 50;
        c.ddpg = DdpgConfig::paper(96, seed);
        c.ddpg.entropy_weight = 4.0;
        c
    }

    /// A miniature configuration for unit tests and doctests.
    #[must_use]
    pub fn smoke_test(seed: u64) -> Self {
        MirasConfig {
            model_hidden: vec![16],
            model_epochs: 8,
            model_batch: 16,
            refine_percentile: 10.0,
            refine_enabled: true,
            real_steps_per_iter: 30,
            reset_every: 10,
            rollout_len: 8,
            rollouts_per_iter: 4,
            inner_patience: 0,
            eval_steps: 5,
            initial_random_collection: true,
            random_action_fraction: 0.1,
            collect_burst_max: None,
            ddpg: DdpgConfig::small_test(seed),
            lanes: 1,
            seed,
        }
    }

    /// Checks the counts a run divides or batches by; a training state
    /// with one of them at zero would resume, then panic mid-iteration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Miras`] naming the first of `lanes`, `reset_every`,
    /// `model_batch` and `ddpg.batch_size` that is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let counts = [
            ("lanes", self.lanes, "lockstep lane count must be positive"),
            (
                "reset_every",
                self.reset_every,
                "reset period must be positive",
            ),
            (
                "model_batch",
                self.model_batch,
                "model minibatch size must be positive",
            ),
            (
                "ddpg.batch_size",
                self.ddpg.batch_size,
                "DDPG minibatch size must be positive",
            ),
        ];
        match counts.into_iter().find(|&(_, count, _)| count == 0) {
            Some((field, _, reason)) => Err(ConfigError::Miras { field, reason }),
            None => Ok(()),
        }
    }

    /// Returns a copy running the inner loop as `lanes` lockstep rollout
    /// lanes (batched model and actor forwards).
    ///
    /// # Errors
    ///
    /// [`ConfigError::Miras`] if `lanes` is zero (a zero-lane inner loop
    /// would make no progress).
    pub fn try_with_lockstep(mut self, lanes: usize) -> Result<Self, ConfigError> {
        if lanes == 0 {
            return Err(ConfigError::Miras {
                field: "lanes",
                reason: "lockstep lane count must be positive",
            });
        }
        self.lanes = lanes;
        Ok(self)
    }

    /// Kept for callers written against the retired actor–learner engine:
    /// refuses a zero worker or lane count as it always did, then returns
    /// [`try_with_lockstep(lanes)`](MirasConfig::try_with_lockstep).
    /// `workers` is otherwise ignored: every rollout runs on the calling
    /// thread, `lanes` wide.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Miras`] if `workers` or `lanes` is zero. Both errors
    /// still name `rollout_mode`, the field this builder set before
    /// [`lanes`](MirasConfig::lanes) replaced it.
    pub fn try_with_distributed(self, workers: usize, lanes: usize) -> Result<Self, ConfigError> {
        if workers == 0 {
            return Err(ConfigError::Miras {
                field: "rollout_mode",
                reason: "distributed worker count must be positive",
            });
        }
        if lanes == 0 {
            return Err(ConfigError::Miras {
                field: "rollout_mode",
                reason: "distributed lane count must be positive",
            });
        }
        self.try_with_lockstep(lanes)
    }

    /// Returns a copy using action-space instead of parameter-space noise
    /// (ablation A3).
    ///
    /// # Panics
    ///
    /// Panics with a [`ConfigError::Miras`] unless `theta` and `sigma` are
    /// finite and non-negative — a NaN noise parameter would poison every
    /// exploration draw.
    #[must_use]
    pub fn with_action_noise(mut self, theta: f64, sigma: f64) -> Self {
        if !(theta.is_finite() && theta >= 0.0 && sigma.is_finite() && sigma >= 0.0) {
            let err = ConfigError::Miras {
                field: "ddpg.exploration",
                reason: "action noise parameters must be finite and non-negative",
            };
            panic!("{err}");
        }
        self.ddpg.exploration = Exploration::ActionNoise { theta, sigma };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_section_vi() {
        let msd = MirasConfig::msd_paper(0);
        assert_eq!(msd.model_hidden, vec![20, 20, 20]);
        assert_eq!(msd.real_steps_per_iter, 1000);
        assert_eq!(msd.rollout_len, 25);
        assert_eq!(msd.eval_steps, 25);
        assert_eq!(msd.ddpg.hidden, vec![256, 256, 256]);

        let ligo = MirasConfig::ligo_paper(0);
        assert_eq!(ligo.model_hidden, vec![20]); // one layer: overfitting fix
        assert_eq!(ligo.real_steps_per_iter, 2000);
        assert_eq!(ligo.rollout_len, 10);
        assert_eq!(ligo.eval_steps, 100);
        assert_eq!(ligo.ddpg.hidden, vec![512, 512, 512]);

        for preset in [
            MirasConfig::msd_paper,
            MirasConfig::ligo_paper,
            MirasConfig::gpu_serve_paper,
            MirasConfig::gpu_serve_fast,
            MirasConfig::msd_fast,
            MirasConfig::ligo_fast,
            MirasConfig::smoke_test,
        ] {
            assert_eq!(preset(0).validate(), Ok(()));
        }
    }

    #[test]
    fn ablation_builders() {
        let c = MirasConfig::msd_paper(0).with_action_noise(0.15, 0.2);
        assert_eq!(
            c.ddpg.exploration,
            Exploration::ActionNoise {
                theta: 0.15,
                sigma: 0.2
            }
        );
    }

    #[test]
    fn seed_and_refinement_builders() {
        let c = MirasConfig::msd_paper(42);
        assert_eq!(c.seed, 42);
        assert_eq!(c.ddpg.seed, 42);
        assert!(
            c.refine_enabled,
            "refinement is on unless a caller clears it"
        );
    }

    #[test]
    #[should_panic(
        expected = "invalid MirasConfig.ddpg.exploration: action noise parameters must be finite and non-negative"
    )]
    fn nan_action_noise_panics() {
        let _ = MirasConfig::smoke_test(0).with_action_noise(f64::NAN, 0.2);
    }

    #[test]
    fn try_builders_share_the_config_error_enum() {
        let err = MirasConfig::smoke_test(0)
            .try_with_lockstep(0)
            .err()
            .unwrap();
        assert_eq!(
            err,
            ConfigError::Miras {
                field: "lanes",
                reason: "lockstep lane count must be positive",
            }
        );
        assert!(err.to_string().starts_with("invalid MirasConfig."));
        let ok = MirasConfig::smoke_test(0).try_with_lockstep(4).unwrap();
        assert_eq!(ok.lanes, 4);
    }

    #[test]
    fn distributed_builder_is_a_lockstep_shim() {
        for workers in [1, 2, 4] {
            for lanes in [1, 3, 16] {
                assert_eq!(
                    MirasConfig::smoke_test(0).try_with_distributed(workers, lanes),
                    MirasConfig::smoke_test(0).try_with_lockstep(lanes),
                    "workers={workers} lanes={lanes}"
                );
            }
        }
        for (workers, lanes) in [(0, 4), (2, 0), (0, 0)] {
            let err = MirasConfig::smoke_test(0)
                .try_with_distributed(workers, lanes)
                .err()
                .unwrap();
            assert!(
                matches!(
                    err,
                    ConfigError::Miras {
                        field: "rollout_mode",
                        ..
                    }
                ),
                "expected rollout_mode error for workers={workers} lanes={lanes}, got {err}"
            );
        }
        // The inline engine explores with action noise per lane, so the
        // shim takes it like any other exploration mode.
        let ok = MirasConfig::smoke_test(0)
            .with_action_noise(0.15, 0.2)
            .try_with_distributed(2, 4)
            .unwrap();
        assert_eq!(ok.lanes, 4);
    }
}
