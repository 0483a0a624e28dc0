//! The rollout engine: the inner policy loop of Algorithm 2 ("train the
//! policy against the refined model"), shaped by its lane count.
//!
//! The rollout budget is consumed in *waves* of up to `lanes` synthetic
//! rollouts stepped in lockstep over a [`BatchedSyntheticEnv`], so each
//! step runs ONE batched dynamics forward and ONE batched actor forward for
//! the whole wave, and the agent performs one train step per active lane
//! per environment step (the data-to-update ratio of the textbook
//! one-rollout-at-a-time loop). The live agent acts (normaliser updates,
//! parameter noise ticking and adapting mid-wave) and trains after every
//! step, on the calling thread.
//!
//! The engine is bit-stable at any lane count. At `lanes = 1` every RNG
//! stream is consumed in the order of the textbook loop over a
//! [`SyntheticEnv`](crate::SyntheticEnv), which the tests below hold it to.

use nn::Matrix;
use rl::{Ddpg, TrainError, TrainHealth};
use telemetry::Telemetry;

use crate::{BatchedSyntheticEnv, RefinedModel, TransitionDataset};

/// Everything one inner loop needs, minus the mutable learner state
/// ([`run_rollouts`] borrows the agent and watchdog).
#[derive(Debug)]
pub(crate) struct RolloutParams {
    /// Lockstep lanes per wave.
    pub lanes: usize,
    /// Steps per synthetic rollout.
    pub rollout_len: usize,
    /// Rollout budget for the loop.
    pub rollouts: usize,
    /// Early-stop patience on completed-rollout returns (0 = off).
    pub patience: usize,
    /// Consumer budget `C`.
    pub consumer_budget: usize,
    /// The iteration's synthetic-rollout seed.
    pub synth_seed: u64,
}

/// Number of waves a rollout budget of `rollouts` takes at `lanes` lanes
/// per wave (the last wave may be narrower).
#[must_use]
fn total_waves(rollouts: usize, lanes: usize) -> usize {
    assert!(lanes > 0, "need at least one lane");
    rollouts.div_ceil(lanes)
}

/// Lanes active in wave `wave`: full waves of `lanes`, except a narrower
/// final wave when `lanes` does not divide `rollouts`.
#[must_use]
fn active_lanes(wave: usize, rollouts: usize, lanes: usize) -> usize {
    lanes.min(rollouts - (wave * lanes).min(rollouts))
}

/// What one inner loop produced.
#[derive(Debug)]
pub(crate) struct RolloutOutcome {
    /// Per-rollout returns, in lane-within-wave order; its length is the
    /// number of rollouts run (early stop may cut the budget short).
    pub returns: Vec<f64>,
    /// Lend–Giveback triggers across all waves.
    pub lend_triggers: u64,
}

/// The bookkeeping every completed wave goes through: per-rollout
/// returns, the Lend-trigger sum, and the early-stop patience rule.
#[derive(Debug)]
struct WaveAccounting {
    patience: usize,
    best: f64,
    stale: usize,
    returns: Vec<f64>,
    lend_triggers: u64,
}

impl WaveAccounting {
    fn new(patience: usize) -> Self {
        WaveAccounting {
            patience,
            best: f64::NEG_INFINITY,
            stale: 0,
            returns: Vec::new(),
            lend_triggers: 0,
        }
    }

    /// Books one completed wave: its lanes' returns in lane order plus the
    /// Lend triggers it fired. Returns `false` when the loop must stop —
    /// Algorithm 2's "until performance of the policy stops improving":
    /// `patience` consecutive rollouts (0 disables the rule) that did not
    /// beat the best return so far. The rule can fire mid-wave; the lanes
    /// after the one that exhausted it are not booked.
    fn record_wave(&mut self, totals: &[f64], lend_triggers: u64) -> bool {
        self.lend_triggers += lend_triggers;
        for &total in totals {
            self.returns.push(total);
            if self.patience == 0 {
                continue;
            }
            if total > self.best {
                self.best = total;
                self.stale = 0;
            } else {
                self.stale += 1;
                if self.stale >= self.patience {
                    return false;
                }
            }
        }
        true
    }

    fn into_outcome(self) -> RolloutOutcome {
        RolloutOutcome {
            returns: self.returns,
            lend_triggers: self.lend_triggers,
        }
    }
}

/// Runs one inner policy loop of Algorithm 2 (see the
/// [module docs](self)).
///
/// # Errors
///
/// Returns the [`TrainError`] raised by the first unhealthy DDPG update.
///
/// # Panics
///
/// Panics if `params.lanes` is zero.
pub(crate) fn run_rollouts(
    agent: &mut Ddpg,
    refined: RefinedModel,
    dataset: &TransitionDataset,
    params: &RolloutParams,
    health: &mut TrainHealth,
    telemetry: &Telemetry,
) -> Result<RolloutOutcome, TrainError> {
    let mut env = BatchedSyntheticEnv::new(
        refined,
        dataset.clone(),
        params.consumer_budget,
        params.synth_seed,
        params.lanes,
    );
    env.set_telemetry(telemetry.clone());
    let mut accounting = WaveAccounting::new(params.patience);
    let mut prev_states = Matrix::zeros(0, 0);
    let mut totals: Vec<f64> = Vec::with_capacity(params.lanes);
    for wave in 0..total_waves(params.rollouts, params.lanes) {
        let active = active_lanes(wave, params.rollouts, params.lanes);
        let lend_before = env.lend_triggers();
        env.reset(active);
        agent.resample_perturbation();
        totals.clear();
        totals.resize(active, 0.0);
        for _ in 0..params.rollout_len {
            // The step swaps the env's state buffers, so keep a copy of
            // the pre-step states for the replay transitions.
            prev_states.resize(env.states().rows(), env.states().cols());
            prev_states
                .as_mut_slice()
                .copy_from_slice(env.states().as_slice());
            let actions = agent.act_exploratory_batch(&prev_states);
            env.step(&actions);
            agent.observe_batch(&prev_states, &actions, env.rewards(), env.states());
            for (t, &r) in totals.iter_mut().zip(env.rewards()) {
                *t += r;
            }
            for _ in 0..active {
                let _ = agent.try_train_step(health)?;
            }
        }
        if !accounting.record_wave(&totals, env.lend_triggers() - lend_before) {
            break;
        }
    }
    Ok(accounting.into_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicsModel, MirasConfig, SyntheticEnv, Transition};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use rl::{DdpgConfig, Environment};

    /// A fresh agent plus a trained drain-dynamics model
    /// (`s' = max(0, s − 2a) + 1`) and the dataset it was fitted on.
    fn fixture(seed: u64) -> Fixture {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut data = TransitionDataset::new(2);
        for _ in 0..300 {
            let s: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..20.0)).collect();
            let a: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0f64..7.0).floor()).collect();
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
        let mut model = DynamicsModel::new(2, &MirasConfig::smoke_test(seed));
        model.train(&data, 20, 32);
        let agent = Ddpg::new(2, 2, DdpgConfig::small_test(seed));
        (agent, RefinedModel::fit(model, &data, 10.0), data)
    }

    fn params(lanes: usize, patience: usize) -> RolloutParams {
        RolloutParams {
            lanes,
            rollout_len: 6,
            rollouts: 12,
            patience,
            consumer_budget: 14,
            synth_seed: 7,
        }
    }

    type Fixture = (Ddpg, RefinedModel, TransitionDataset);

    /// Runs the engine on a copy of the fixture's agent.
    fn run(fx: &Fixture, params: &RolloutParams, telemetry: &Telemetry) -> (Ddpg, RolloutOutcome) {
        let mut agent = Ddpg::from_snapshot(fx.0.snapshot());
        let mut health = TrainHealth::default_policy();
        let outcome = run_rollouts(
            &mut agent,
            fx.1.clone(),
            &fx.2,
            params,
            &mut health,
            telemetry,
        )
        .unwrap();
        (agent, outcome)
    }

    /// Rollouts the patience rule books out of a flat return sequence.
    fn booked(returns: &[f64], patience: usize) -> usize {
        let mut accounting = WaveAccounting::new(patience);
        let _ = accounting.record_wave(returns, 0);
        accounting.into_outcome().returns.len()
    }

    /// The engine's reference semantics: at one lane the inline body is the
    /// textbook loop of Algorithm 2 — one rollout at a time over a
    /// `SyntheticEnv`, one train step per environment step — bit for bit.
    #[test]
    fn inline_one_lane_matches_the_textbook_loop() {
        for seed in [0u64, 1, 2] {
            let fx = fixture(seed);
            let p = params(1, 0);
            let (agent, outcome) = run(&fx, &p, &Telemetry::noop());

            let (mut reference, refined, data) = fx;
            let mut health = TrainHealth::default_policy();
            let mut synth = SyntheticEnv::new(refined, data, p.consumer_budget, p.synth_seed);
            let mut returns = Vec::new();
            for _ in 0..p.rollouts {
                let mut s = synth.reset();
                reference.resample_perturbation();
                let mut total = 0.0;
                for _ in 0..p.rollout_len {
                    let a = reference.act_exploratory(&s);
                    let t = synth.step(&a);
                    reference.observe(&s, &a, t.reward, &t.next_state);
                    let _ = reference.try_train_step(&mut health).unwrap();
                    total += t.reward;
                    s = t.next_state;
                }
                returns.push(total);
            }
            assert_eq!(outcome.returns, returns, "seed {seed}");
            assert_eq!(outcome.lend_triggers, synth.lend_triggers(), "seed {seed}");
            assert_eq!(agent.snapshot(), reference.snapshot(), "seed {seed}");
        }
    }

    #[test]
    fn patience_counts_consecutive_non_improving_rollouts_in_lane_order() {
        // Improvements reset the count; a tie is not an improvement.
        let returns = [-5.0, -4.0, -4.5, -3.0, -3.0, -3.5, -1.0];
        assert_eq!(booked(&returns, 2), 6);
        assert_eq!(booked(&returns, 3), returns.len());
        // The very first rollout always improves on "nothing yet".
        assert_eq!(booked(&[-9.0, -9.5], 1), 2);
        // Zero disables the rule.
        assert_eq!(booked(&[3.0, 2.0, 1.0, 0.0], 0), 4);

        // Waves are booked lane by lane, so the count carries across wave
        // boundaries and can run out mid-wave: lanes after the stop are
        // dropped, the wave's Lend triggers are not.
        let mut accounting = WaveAccounting::new(2);
        assert!(accounting.record_wave(&[-2.0, -1.0, -1.5], 4));
        assert!(!accounting.record_wave(&[-1.2, -0.5, -0.1], 3));
        let outcome = accounting.into_outcome();
        assert_eq!(outcome.returns, vec![-2.0, -1.0, -1.5, -1.2]);
        assert_eq!(outcome.lend_triggers, 7);
    }

    /// Inline at three lanes: early stop only truncates, so the run with
    /// patience books exactly the prefix the rule picks out of the
    /// unlimited run's returns — here a mid-wave stop.
    #[test]
    fn inline_run_stops_where_the_patience_rule_says() {
        let fx = fixture(1);
        let (_, full) = run(&fx, &params(3, 0), &Telemetry::noop());
        assert_eq!(full.returns.len(), 12);
        let stop = booked(&full.returns, 2);
        assert!(
            stop < 12 && !stop.is_multiple_of(3),
            "want a mid-wave stop: {stop}"
        );

        let (_, cut) = run(&fx, &params(3, 2), &Telemetry::noop());
        assert_eq!(cut.returns, full.returns[..stop]);
    }

    #[test]
    fn wave_plan_partitions_the_rollout_budget() {
        assert_eq!(total_waves(10, 4), 3);
        assert_eq!(active_lanes(0, 10, 4), 4);
        assert_eq!(active_lanes(1, 10, 4), 4);
        assert_eq!(active_lanes(2, 10, 4), 2);
        assert_eq!(total_waves(8, 4), 2);
        assert_eq!(active_lanes(1, 8, 4), 4);
        assert_eq!(total_waves(1, 16), 1);
        assert_eq!(active_lanes(0, 1, 16), 1);
        // Every wave's active count sums back to the budget.
        for (rollouts, lanes) in [(10, 4), (64, 16), (5, 8), (7, 1)] {
            let sum: usize = (0..total_waves(rollouts, lanes))
                .map(|g| active_lanes(g, rollouts, lanes))
                .sum();
            assert_eq!(sum, rollouts, "rollouts={rollouts} lanes={lanes}");
        }
    }
}
