//! MIRAS hyper-parameters.

use microsim::ConfigError;
use rl::{DdpgConfig, Exploration};
use serde::{Deserialize, Serialize};

/// The rollout engine's lane count in its serialised/config form (see
/// [`RolloutMode::lanes`]). The three variants are kept so every
/// checkpoint and config ever written keeps loading; the engine only sees
/// the lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RolloutMode {
    /// One rollout at a time: the engine at one lane, consuming every RNG
    /// stream in the order of the textbook loop.
    #[default]
    Sequential,
    /// `B` rollout lanes stepped in lockstep through batched model and
    /// actor forwards (see
    /// [`BatchedSyntheticEnv`](crate::BatchedSyntheticEnv)). Bit-stable at
    /// any `B`; `B > 1` consumes exploration randomness in lane order, so
    /// it is a *throughput* option, not a replay of the one-lane run.
    Lockstep(usize),
    /// Decode-only: written by builds that still had an actor–learner
    /// engine (`workers ≥ 2` asynchronous rollout workers), so that their
    /// configs and checkpoints keep decoding. Nothing builds it any more
    /// ([`MirasConfig::try_with_distributed`] returns `Lockstep(lanes)`).
    ///
    /// `workers = 1` always ran inline, exactly as `Lockstep(lanes)`, and
    /// still does: its checkpoints resume. A `workers ≥ 2` run's results
    /// depended on a recorded version schedule that no engine can replay
    /// now, so [`MirasTrainer::resume`](crate::MirasTrainer::resume)
    /// refuses its checkpoints; their policies still serve.
    Distributed {
        /// Number of asynchronous rollout workers the run used.
        workers: usize,
        /// Lockstep lanes per worker.
        lanes: usize,
    },
}

impl RolloutMode {
    /// The lane count the rollout engine runs at.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            RolloutMode::Sequential => 1,
            RolloutMode::Lockstep(lanes) | RolloutMode::Distributed { lanes, .. } => lanes,
        }
    }
}

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
    /// Learning rate for the environment model.
    pub model_lr: f64,
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
    /// How the inner loop's synthetic rollouts execute. Defaults to
    /// [`RolloutMode::Sequential`]; absent in older checkpoints/configs,
    /// hence the serde default.
    #[serde(default)]
    pub rollout_mode: RolloutMode,
    /// Master seed.
    pub seed: u64,
}

impl MirasConfig {
    /// Paper-faithful configuration for the MSD ensemble (§VI-A3).
    #[must_use]
    pub fn msd_paper(seed: u64) -> Self {
        MirasConfig {
            model_hidden: vec![20, 20, 20],
            model_lr: 3e-3,
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
            rollout_mode: RolloutMode::Sequential,
            seed,
        }
    }

    /// Paper-faithful configuration for the LIGO ensemble (§VI-A3).
    #[must_use]
    pub fn ligo_paper(seed: u64) -> Self {
        MirasConfig {
            model_hidden: vec![20],
            model_lr: 3e-3,
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
            rollout_mode: RolloutMode::Sequential,
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
        let mut ddpg = DdpgConfig::small_test(seed);
        ddpg.exploration = Exploration::ParamNoise {
            initial_sigma: 0.05,
            delta: 0.1,
            alpha: 1.01,
            resample_every: 10,
        };
        MirasConfig {
            model_hidden: vec![16],
            model_lr: 3e-3,
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
            ddpg,
            rollout_mode: RolloutMode::Sequential,
            seed,
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
                field: "rollout_mode",
                reason: "lockstep lane count must be positive",
            });
        }
        self.rollout_mode = RolloutMode::Lockstep(lanes);
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
    /// [`ConfigError::Miras`] if `workers` or `lanes` is zero.
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
                field: "rollout_mode",
                reason: "lockstep lane count must be positive",
            }
        );
        assert!(err.to_string().starts_with("invalid MirasConfig."));
        let ok = MirasConfig::smoke_test(0).try_with_lockstep(4).unwrap();
        assert_eq!(ok.rollout_mode, RolloutMode::Lockstep(4));
    }

    #[test]
    fn every_mode_maps_to_one_engine_shape() {
        assert_eq!(RolloutMode::Sequential.lanes(), 1);
        assert_eq!(RolloutMode::Lockstep(3).lanes(), 3);
        let mode = RolloutMode::Distributed {
            workers: 2,
            lanes: 16,
        };
        assert_eq!(mode.lanes(), 16);
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
        assert_eq!(ok.rollout_mode, RolloutMode::Lockstep(4));
    }
}
