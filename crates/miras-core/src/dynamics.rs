//! The learnt environment model `f̂_Φ` (paper §IV-C1).

use nn::{Activation, Adam, Matrix, Mlp};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dataset::{Standardizer, TransitionDataset};
use crate::MirasConfig;

/// The neural environment model: `ŝ(k+1) = f̂_Φ(s(k), a(k))`.
///
/// Inputs are the standardised concatenation `[s ‖ a]`; the output is the
/// standardised next state, de-standardised and clamped at zero on
/// prediction (WIP is non-negative). Trained by minimising the paper's
/// one-step squared error (Eq. 2) with Adam.
///
/// # Examples
///
/// ```
/// use miras_core::{DynamicsModel, MirasConfig, Transition, TransitionDataset};
///
/// let mut data = TransitionDataset::new(2);
/// for i in 0..64 {
///     let s = vec![i as f64 % 8.0, (i / 8) as f64];
///     // Toy dynamics: each consumer removes one WIP unit.
///     let a = vec![1.0, 2.0];
///     let next = vec![(s[0] - a[0]).max(0.0), (s[1] - a[1]).max(0.0)];
///     data.push(Transition { state: s, action: a, next_state: next });
/// }
/// let mut model = DynamicsModel::new(2, &MirasConfig::smoke_test(0));
/// let loss = model.train(&data, 20, 16);
/// assert!(loss.is_finite());
/// let pred = model.predict(&[5.0, 5.0], &[1.0, 2.0]);
/// assert_eq!(pred.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicsModel {
    net: Mlp,
    state_dim: usize,
    state_scaler: Option<Standardizer>,
    action_scaler: Option<Standardizer>,
    target_scaler: Option<Standardizer>,
    /// Serialized so a resumed training run continues with the exact Adam
    /// moments of the interrupted one (bit-identical checkpoint/resume).
    optimizer: Adam,
    seed: u64,
}

/// Adam learning rate of the environment model.
const MODEL_LR: f64 = 3e-3;

impl DynamicsModel {
    /// Creates an untrained model for `state_dim`-dimensional systems using
    /// the hidden sizes from `config`.
    #[must_use]
    pub fn new(state_dim: usize, config: &MirasConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(0x5EED));
        let mut sizes = vec![2 * state_dim];
        sizes.extend_from_slice(&config.model_hidden);
        sizes.push(state_dim);
        let net = Mlp::new(&sizes, Activation::Relu, Activation::Linear, &mut rng);
        DynamicsModel {
            net,
            state_dim,
            state_scaler: None,
            action_scaler: None,
            target_scaler: None,
            optimizer: Adam::new(MODEL_LR).with_clip_norm(10.0),
            seed: config.seed,
        }
    }

    /// State dimensionality `J`.
    #[must_use]
    pub(crate) fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Trains on the dataset for `epochs` epochs with the given minibatch
    /// size; returns the final epoch's mean squared error (in standardised
    /// target space).
    ///
    /// Each call refits the standardisation scalers to the (grown) dataset
    /// and continues training the same network — the incremental retraining
    /// of Algorithm 2, line 4.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its dimensionality differs.
    pub fn train(&mut self, data: &TransitionDataset, epochs: usize, batch: usize) -> f64 {
        self.train_with_telemetry(data, epochs, batch, &telemetry::Telemetry::noop())
    }

    /// Like [`DynamicsModel::train`], additionally emitting one
    /// `model.epoch` event (epoch index + mean standardised MSE) per epoch
    /// and a `model.train_secs` timing span through `telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or its dimensionality differs.
    pub fn train_with_telemetry(
        &mut self,
        data: &TransitionDataset,
        epochs: usize,
        batch: usize,
        telemetry: &telemetry::Telemetry,
    ) -> f64 {
        assert_eq!(data.state_dim(), self.state_dim, "dimension mismatch");
        let _span = telemetry.span("model.train_secs");
        let (x, y, s_scaler, a_scaler, y_scaler) = data.training_matrices();
        self.state_scaler = Some(s_scaler);
        self.action_scaler = Some(a_scaler);
        self.target_scaler = Some(y_scaler);

        let n = x.rows();
        let batch = batch.max(1).min(n);
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_add(n as u64));
        let mut last_loss = f64::NAN;
        for epoch in 0..epochs.max(1) {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(batch) {
                let xb_rows: Vec<&[f64]> = chunk.iter().map(|&i| x.row(i)).collect();
                let yb_rows: Vec<&[f64]> = chunk.iter().map(|&i| y.row(i)).collect();
                let xb = Matrix::from_rows(&xb_rows);
                let yb = Matrix::from_rows(&yb_rows);
                epoch_loss += self.net.train_mse(&xb, &yb, &mut self.optimizer);
                batches += 1;
            }
            last_loss = epoch_loss / batches as f64;
            telemetry.event(
                "model.epoch",
                &[
                    ("epoch", telemetry::Value::UInt(epoch as u64)),
                    ("loss", telemetry::Value::Float(last_loss)),
                ],
            );
        }
        last_loss
    }

    /// Predicts the next state for one `(state, action)` pair. Outputs are
    /// clamped at zero (WIP is non-negative).
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or the inputs have the wrong
    /// dimensionality.
    #[must_use]
    pub fn predict(&self, state: &[f64], action: &[f64]) -> Vec<f64> {
        assert_eq!(state.len(), self.state_dim, "state dimension mismatch");
        assert_eq!(action.len(), self.state_dim, "action dimension mismatch");
        let s_scaler = self.state_scaler.as_ref().expect("model not trained yet");
        let a_scaler = self.action_scaler.as_ref().expect("model not trained yet");
        let y_scaler = self.target_scaler.as_ref().expect("model not trained yet");
        let mut input = s_scaler.transform(state);
        input.extend(a_scaler.transform(action));
        let z = self.net.forward_one(&input);
        y_scaler
            .inverse(&z)
            .into_iter()
            .map(|v| v.max(0.0))
            .collect()
    }

    /// Batched [`DynamicsModel::predict`]: one network forward for a whole
    /// row-batch of `(state, action)` pairs, written into `out` (resized to
    /// `B × J`). Row `i` of the result is bitwise-equal to
    /// `predict(states.row(i), actions.row(i))` — standardisation, the
    /// de-standardisation and the zero clamp are elementwise, and the GEMM
    /// core guarantees row-wise equivalence of the batched forward.
    ///
    /// All intermediates come from the pooled matrix buffers, so a
    /// steady-state call performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained, the two input batches disagree on
    /// row count, or either has the wrong width.
    pub(crate) fn predict_batch_into(&self, states: &Matrix, actions: &Matrix, out: &mut Matrix) {
        let j = self.state_dim;
        assert_eq!(states.cols(), j, "state dimension mismatch");
        assert_eq!(actions.cols(), j, "action dimension mismatch");
        assert_eq!(states.rows(), actions.rows(), "batch size mismatch");
        let s_scaler = self.state_scaler.as_ref().expect("model not trained yet");
        let a_scaler = self.action_scaler.as_ref().expect("model not trained yet");
        let y_scaler = self.target_scaler.as_ref().expect("model not trained yet");
        let b = states.rows();
        let mut input = Matrix::zeros(b, 2 * j);
        for r in 0..b {
            let (zs, za) = input.row_mut(r).split_at_mut(j);
            s_scaler.transform_into(states.row(r), zs);
            a_scaler.transform_into(actions.row(r), za);
        }
        self.net.forward_into(&input, out);
        for r in 0..b {
            let row = out.row_mut(r);
            y_scaler.inverse_in_place(row);
            for v in row {
                *v = v.max(0.0);
            }
        }
    }

    /// Mean squared one-step prediction error on a held-out dataset, in raw
    /// (de-standardised) WIP units.
    ///
    /// # Panics
    ///
    /// Panics if the model is untrained or `data` is empty.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn evaluate(&self, data: &TransitionDataset) -> f64 {
        assert!(!data.is_empty(), "cannot evaluate on empty dataset");
        let mut total = 0.0;
        for t in data.transitions() {
            let pred = self.predict(&t.state, &t.action);
            total += pred
                .iter()
                .zip(&t.next_state)
                .map(|(&p, &y)| (p - y) * (p - y))
                .sum::<f64>()
                / self.state_dim as f64;
        }
        total / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;
    use rand::Rng;

    /// A dataset from linear toy dynamics `s' = max(0, s − a) + 1`.
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
    fn learns_toy_dynamics() {
        let train = toy_dataset(600, 0);
        let test = toy_dataset(100, 1);
        let mut config = MirasConfig::smoke_test(2);
        config.model_hidden = vec![32, 32];
        let mut model = DynamicsModel::new(2, &config);
        model.train(&train, 60, 32);
        let mse = model.evaluate(&test);
        assert!(mse < 2.0, "test MSE {mse}");
    }

    #[test]
    fn predictions_are_non_negative() {
        let train = toy_dataset(200, 3);
        let mut model = DynamicsModel::new(2, &MirasConfig::smoke_test(4));
        model.train(&train, 10, 32);
        for s0 in [0.0, 1.0, 50.0] {
            let pred = model.predict(&[s0, 0.0], &[5.0, 5.0]);
            assert!(pred.iter().all(|&v| v >= 0.0), "{pred:?}");
        }
    }

    #[test]
    fn retraining_improves_fit() {
        let train = toy_dataset(400, 5);
        let mut model = DynamicsModel::new(2, &MirasConfig::smoke_test(6));
        model.train(&train, 2, 32);
        let early = model.evaluate(&train);
        model.train(&train, 40, 32);
        let late = model.evaluate(&train);
        assert!(late < early, "early {early}, late {late}");
    }

    #[test]
    #[should_panic(expected = "model not trained yet")]
    fn predicting_untrained_panics() {
        let model = DynamicsModel::new(2, &MirasConfig::smoke_test(7));
        let _ = model.predict(&[0.0, 0.0], &[0.0, 0.0]);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let train = toy_dataset(100, 8);
        let mut model = DynamicsModel::new(2, &MirasConfig::smoke_test(9));
        model.train(&train, 5, 32);
        let json = serde_json::to_string(&model).unwrap();
        let back: DynamicsModel = serde_json::from_str(&json).unwrap();
        let p1 = model.predict(&[3.0, 4.0], &[1.0, 1.0]);
        let p2 = back.predict(&[3.0, 4.0], &[1.0, 1.0]);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
