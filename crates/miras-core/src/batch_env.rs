//! Batched lockstep synthetic environments.
//!
//! [`BatchedSyntheticEnv`] runs `B` independent synthetic-rollout *lanes*
//! over one refined model. Each lockstep step performs ONE `B×(2J)` batched
//! dynamics forward instead of `B` separate GEMV-shaped calls, which is what
//! lets the inner policy loop of Algorithm 2 reach the tiled GEMM kernels.
//!
//! Lane `i` owns its own `SmallRng` stream, seeded
//! `seed.wrapping_add(i · 0x9E3779B97F4A7C15)` (a Weyl-style split), so:
//!
//! * lane 0's stream is *exactly* the stream a [`SyntheticEnv`] built from
//!   the same seed would consume — a one-lane batched env reproduces the
//!   sequential env bit for bit;
//! * lanes never share randomness, so results are independent of how the
//!   batched forwards are scheduled.
//!
//! [`SyntheticEnv`]: crate::SyntheticEnv

use nn::Matrix;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rl::policy::allocation_largest_remainder;
use telemetry::Telemetry;

use crate::{RefinedModel, TransitionDataset};

/// `B` synthetic-environment lanes stepped in lockstep through one batched
/// model forward per step.
///
/// # Examples
///
/// ```
/// use miras_core::{BatchedSyntheticEnv, DynamicsModel, MirasConfig, RefinedModel,
///                  Transition, TransitionDataset};
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
/// let mut env = BatchedSyntheticEnv::new(refined, data, 14, 3, 4);
/// env.reset(4);
/// let actions = nn::Matrix::from_vec(4, 2, vec![0.5; 8]);
/// let rewards = env.step(&actions).to_vec();
/// assert_eq!(rewards.len(), 4);
/// ```
#[derive(Debug)]
pub struct BatchedSyntheticEnv {
    model: RefinedModel,
    init_states: TransitionDataset,
    consumer_budget: usize,
    /// Current per-lane states, `active × J`.
    states: Matrix,
    /// Scratch: next per-lane states, `active × J`.
    next_states: Matrix,
    /// Scratch: discretised per-lane actions, `active × J`.
    actions_f64: Matrix,
    /// Per-lane reward of the latest step.
    rewards: Vec<f64>,
    /// Per-dimension clamp, identical to the sequential env's
    /// (1.2 × max observed WIP, floor 10).
    state_cap: Vec<f64>,
    /// One RNG stream per configured lane; streams persist across resets.
    rngs: Vec<SmallRng>,
    /// Number of lanes live since the last [`BatchedSyntheticEnv::reset`].
    active: usize,
    telemetry: Telemetry,
    lend_triggers: u64,
}

impl BatchedSyntheticEnv {
    /// Multiplier applied to the lane index when splitting the synth seed
    /// into per-lane streams (the golden-ratio Weyl increment). Lane 0 gets
    /// the unmodified seed, so it replays the sequential env's stream.
    pub(crate) const LANE_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a `lanes`-lane environment. Mirroring the sequential
    /// [`SyntheticEnv::new`](crate::SyntheticEnv::new), each lane samples an
    /// initial state from the dataset at construction (consuming one draw
    /// from its stream), so lane 0's stream stays aligned with a sequential
    /// env built from the same seed.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero, `init_states` is empty, or its
    /// dimensionality differs from the model's.
    #[must_use]
    pub fn new(
        model: RefinedModel,
        init_states: TransitionDataset,
        consumer_budget: usize,
        seed: u64,
        lanes: usize,
    ) -> Self {
        assert!(lanes > 0, "need at least one lane");
        assert!(!init_states.is_empty(), "need initial states to sample");
        assert_eq!(
            init_states.state_dim(),
            model.model().state_dim(),
            "dimension mismatch"
        );
        let j = init_states.state_dim();
        let mut rngs: Vec<SmallRng> = (0..lanes)
            .map(|i| {
                SmallRng::seed_from_u64(
                    seed.wrapping_add((i as u64).wrapping_mul(Self::LANE_SEED_STRIDE)),
                )
            })
            .collect();
        let mut states = Matrix::zeros(lanes, j);
        for (i, rng) in rngs.iter_mut().enumerate() {
            states
                .row_mut(i)
                .copy_from_slice(&init_states.sample_state(rng));
        }
        let mut state_cap = vec![0.0f64; j];
        for t in init_states.transitions() {
            for (cap, &v) in state_cap.iter_mut().zip(&t.state) {
                *cap = cap.max(v);
            }
        }
        for cap in &mut state_cap {
            *cap = (*cap * 1.2).max(10.0);
        }
        BatchedSyntheticEnv {
            model,
            init_states,
            consumer_budget,
            states,
            next_states: Matrix::zeros(0, 0),
            actions_f64: Matrix::zeros(0, 0),
            rewards: Vec::with_capacity(lanes),
            state_cap,
            rngs,
            active: lanes,
            telemetry: Telemetry::noop(),
            lend_triggers: 0,
        }
    }

    /// Attaches a telemetry handle: steps are timed under the
    /// `synth.batch_step` span, lane occupancy is exported as gauges and
    /// step and Lend-trigger counts as counters.
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Current per-lane states (`active × J`).
    #[must_use]
    pub fn states(&self) -> &Matrix {
        &self.states
    }

    /// Per-lane rewards from the latest [`BatchedSyntheticEnv::step`].
    #[must_use]
    pub(crate) fn rewards(&self) -> &[f64] {
        &self.rewards
    }

    /// Total Lend–Giveback trigger firings across all lanes and steps.
    #[must_use]
    pub(crate) fn lend_triggers(&self) -> u64 {
        self.lend_triggers
    }

    /// Starts a new wave: resamples initial states for the first `active`
    /// lanes (in lane order, each from its own stream) and parks the rest.
    ///
    /// # Panics
    ///
    /// Panics if `active` is zero or exceeds the configured lane count.
    pub fn reset(&mut self, active: usize) {
        assert!(
            active > 0 && active <= self.rngs.len(),
            "active lanes out of range"
        );
        self.active = active;
        let j = self.init_states.state_dim();
        self.states.resize(active, j);
        for (i, rng) in self.rngs.iter_mut().take(active).enumerate() {
            self.states
                .row_mut(i)
                .copy_from_slice(&self.init_states.sample_state(rng));
        }
    }

    /// Steps all active lanes in lockstep: discretises each lane's action,
    /// counts Lend triggers, runs ONE batched refined-model forward for the
    /// whole wave, clamps, computes rewards and advances every lane's state.
    ///
    /// Returns the per-lane rewards; the new states are available through
    /// [`BatchedSyntheticEnv::states`].
    ///
    /// Per lane this performs exactly the operations of the sequential
    /// [`SyntheticEnv::step`](crate::SyntheticEnv), in the same order with
    /// respect to that lane's RNG stream, so a one-lane env is bit-identical
    /// to the sequential env.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is not `active × J`.
    pub fn step(&mut self, actions: &Matrix) -> &[f64] {
        let j = self.init_states.state_dim();
        assert_eq!(
            (actions.rows(), actions.cols()),
            (self.active, j),
            "actions must be active × J"
        );
        let _span = self.telemetry.span("synth.batch_step");
        self.actions_f64.resize(self.active, j);
        let mut triggers_total = 0u64;
        for i in 0..self.active {
            let allocation = allocation_largest_remainder(actions.row(i), self.consumer_budget);
            for (dst, &v) in self.actions_f64.row_mut(i).iter_mut().zip(&allocation) {
                *dst = v as f64;
            }
            let triggers = self
                .states
                .row(i)
                .iter()
                .zip(self.model.tau())
                .filter(|(s, tau)| *s < tau)
                .count() as u64;
            triggers_total += triggers;
        }
        self.lend_triggers += triggers_total;

        self.model.predict_batch_into(
            &self.states,
            &self.actions_f64,
            &mut self.rngs[..self.active],
            &mut self.next_states,
        );

        self.rewards.clear();
        for i in 0..self.active {
            let row = self.next_states.row_mut(i);
            for (v, &cap) in row.iter_mut().zip(&self.state_cap) {
                // Same expression as the sequential env (NaN-robust `min`).
                *v = v.min(cap);
            }
            self.rewards
                .push(microsim::reward_from_total_wip(row.iter().sum::<f64>()));
        }
        std::mem::swap(&mut self.states, &mut self.next_states);

        if self.telemetry.is_enabled() {
            self.telemetry.counter("synth.steps", self.active as u64);
            self.telemetry
                .counter("synth.lend_triggers", triggers_total);
            self.telemetry
                .gauge("synth.active_lanes", self.active as f64);
            self.telemetry.gauge("synth.lanes", self.rngs.len() as f64);
        }
        &self.rewards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicsModel, MirasConfig, SyntheticEnv, Transition};
    use rand::Rng;
    use rl::Environment;

    /// Drain dynamics s' = max(0, s − 2a) + 1 with a trained model.
    fn fixture(seed: u64) -> (RefinedModel, TransitionDataset) {
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
        model.train(&data, 30, 32);
        (RefinedModel::fit(model, &data, 10.0), data)
    }

    /// One lane replays the sequential env bit for bit: same construction
    /// draw, same reset draws, same per-step predictions and rewards.
    #[test]
    fn single_lane_matches_sequential_env_bitwise() {
        let (refined, data) = fixture(0);
        let mut seq = SyntheticEnv::new(refined.clone(), data.clone(), 14, 42);
        let mut batched = BatchedSyntheticEnv::new(refined, data, 14, 42, 1);

        for _ in 0..3 {
            let s_seq = seq.reset();
            batched.reset(1);
            assert_eq!(s_seq.as_slice(), batched.states().row(0));
            for step in 0..10 {
                let phase = step as f64 / 10.0;
                let action = [0.3 + 0.4 * phase, 0.7 - 0.4 * phase];
                let t = seq.step(&action);
                let actions = Matrix::from_rows(&[&action]);
                let rewards = batched.step(&actions).to_vec();
                assert_eq!(t.next_state.as_slice(), batched.states().row(0));
                assert_eq!(t.reward.to_bits(), rewards[0].to_bits());
            }
        }
        assert_eq!(seq.lend_triggers(), batched.lend_triggers());
    }

    /// Each lane of a wide env evolves exactly as a sequential env seeded
    /// with that lane's split seed.
    #[test]
    fn every_lane_matches_its_split_seeded_sequential_env() {
        let (refined, data) = fixture(1);
        let lanes = 4usize;
        let seed = 7u64;
        let mut batched = BatchedSyntheticEnv::new(refined.clone(), data.clone(), 14, seed, lanes);
        let mut seqs: Vec<SyntheticEnv> = (0..lanes)
            .map(|i| {
                let lane_seed = seed
                    .wrapping_add((i as u64).wrapping_mul(BatchedSyntheticEnv::LANE_SEED_STRIDE));
                SyntheticEnv::new(refined.clone(), data.clone(), 14, lane_seed)
            })
            .collect();

        batched.reset(lanes);
        let seq_states: Vec<Vec<f64>> = seqs.iter_mut().map(SyntheticEnv::reset).collect();
        for (i, s) in seq_states.iter().enumerate() {
            assert_eq!(s.as_slice(), batched.states().row(i), "lane {i} reset");
        }
        for step in 0..8 {
            let action_rows: Vec<Vec<f64>> = (0..lanes)
                .map(|i| {
                    let x = (i + step) as f64 * 0.1;
                    vec![0.2 + x % 0.6, 0.8 - x % 0.6]
                })
                .collect();
            let refs: Vec<&[f64]> = action_rows.iter().map(Vec::as_slice).collect();
            let actions = Matrix::from_rows(&refs);
            let rewards = batched.step(&actions).to_vec();
            for (i, seq) in seqs.iter_mut().enumerate() {
                let t = seq.step(&action_rows[i]);
                assert_eq!(
                    t.next_state.as_slice(),
                    batched.states().row(i),
                    "lane {i} step {step}"
                );
                assert_eq!(t.reward.to_bits(), rewards[i].to_bits(), "lane {i}");
            }
        }
        let seq_triggers: u64 = seqs.iter().map(SyntheticEnv::lend_triggers).sum();
        assert_eq!(seq_triggers, batched.lend_triggers());
    }

    /// Partial waves step only the active prefix of lanes.
    #[test]
    fn partial_wave_steps_active_prefix() {
        let (refined, data) = fixture(2);
        let mut env = BatchedSyntheticEnv::new(refined, data, 14, 3, 8);
        env.reset(3);
        assert_eq!(env.states().rows(), 3);
        let actions = Matrix::from_vec(3, 2, vec![0.5; 6]);
        let rewards = env.step(&actions).to_vec();
        assert_eq!(rewards.len(), 3);
        assert!(rewards.iter().all(|r| r.is_finite()));
    }

    #[test]
    #[should_panic(expected = "active lanes out of range")]
    fn resetting_beyond_lanes_panics() {
        let (refined, data) = fixture(3);
        let mut env = BatchedSyntheticEnv::new(refined, data, 14, 0, 2);
        env.reset(3);
    }
}
