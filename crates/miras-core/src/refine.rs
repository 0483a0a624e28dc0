//! Model refinement: the Lend–Giveback procedure (paper §IV-C2, Alg. 1).

use nn::Matrix;
use rand::Rng;

use crate::{DynamicsModel, TransitionDataset};

/// The refined environment model.
///
/// Near the WIP ≈ 0 boundary the raw neural model is dominated by the
/// system's randomness and produces "inappropriate" outputs that mislead the
/// policy (§IV-C2). The refinement exploits the loose coupling between
/// microservices: for each dimension `j` whose WIP is below the threshold
/// `τ_j`, it *lends* `ρ_j ~ U(τ_j, ω_j)` tasks to that dimension, queries
/// the model in the well-sampled region, then *gives back* the lent tasks
/// from the prediction. Thresholds come from the `p`- and
/// `(100 − p)`-percentiles of the collected dataset.
///
/// # Examples
///
/// ```
/// use miras_core::{DynamicsModel, MirasConfig, RefinedModel, Transition, TransitionDataset};
/// use rand::SeedableRng;
///
/// let mut data = TransitionDataset::new(2);
/// for i in 0..50 {
///     let s = vec![i as f64, (50 - i) as f64];
///     data.push(Transition { state: s.clone(), action: vec![1.0, 1.0],
///                            next_state: s });
/// }
/// let mut model = DynamicsModel::new(2, &MirasConfig::smoke_test(0));
/// model.train(&data, 5, 16);
/// let refined = RefinedModel::fit(model, &data, 10.0);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let pred = refined.predict(&[0.0, 25.0], &[1.0, 1.0], &mut rng);
/// assert!(pred.iter().all(|&v| v >= 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RefinedModel {
    model: DynamicsModel,
    /// Lower (lend-trigger) threshold per dimension: τ_j.
    tau: Vec<f64>,
    /// Upper threshold per dimension: ω_j.
    omega: Vec<f64>,
    /// When false the wrapper passes predictions through unrefined (the
    /// refinement ablation).
    enabled: bool,
}

impl RefinedModel {
    /// Wraps `model`, deriving thresholds from the dataset: `τ_j` is the
    /// `p`-percentile and `ω_j` the `(100 − p)`-percentile of `w_j` in `D`
    /// (Algorithm 1, initialisation).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or `p` is outside `(0, 50)`.
    #[must_use]
    pub fn fit(model: DynamicsModel, data: &TransitionDataset, p: f64) -> Self {
        assert!(p > 0.0 && p < 50.0, "percentile must be in (0, 50)");
        assert!(!data.is_empty(), "cannot fit thresholds on empty dataset");
        let j = model.state_dim();
        let mut tau = Vec::with_capacity(j);
        let mut omega = Vec::with_capacity(j);
        for dim in 0..j {
            let lo = data.state_percentile(dim, p);
            let hi = data.state_percentile(dim, 100.0 - p);
            tau.push(lo);
            // Guarantee a non-degenerate lend interval even for dimensions
            // whose WIP barely varies.
            omega.push(hi.max(lo + 1.0));
        }
        RefinedModel {
            model,
            tau,
            omega,
            enabled: true,
        }
    }

    /// Wraps `model` with refinement disabled — predictions pass through
    /// the raw network (ablation A2).
    #[must_use]
    pub(crate) fn unrefined(model: DynamicsModel) -> Self {
        let j = model.state_dim();
        RefinedModel {
            model,
            tau: vec![0.0; j],
            omega: vec![1.0; j],
            enabled: false,
        }
    }

    /// Whether Lend–Giveback is active.
    #[cfg(test)]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The lend-trigger thresholds τ.
    #[must_use]
    pub fn tau(&self) -> &[f64] {
        &self.tau
    }

    /// The wrapped raw model.
    #[must_use]
    pub(crate) fn model(&self) -> &DynamicsModel {
        &self.model
    }

    /// Predicts `ŝ(k+1)` with per-dimension Lend–Giveback (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if the wrapped model is untrained or dimensions mismatch.
    #[must_use]
    pub fn predict<R: Rng + ?Sized>(&self, state: &[f64], action: &[f64], rng: &mut R) -> Vec<f64> {
        let base = self.model.predict(state, action);
        if !self.enabled {
            return base;
        }
        let mut out = base;
        for j in 0..state.len() {
            if state[j] < self.tau[j] {
                // Lend: push dimension j into the well-sampled region.
                let rho = if self.omega[j] > self.tau[j] {
                    rng.gen_range(self.tau[j]..self.omega[j])
                } else {
                    self.tau[j]
                };
                let mut lent = state.to_vec();
                lent[j] += rho;
                let pred = self.model.predict(&lent, action);
                // Giveback: remove the lent tasks from this dimension only.
                out[j] = (pred[j] - rho).max(0.0);
            }
        }
        out
    }

    /// Batched [`RefinedModel::predict`] over `B` lanes, each with its own
    /// RNG stream: one base model forward for all lanes plus one forward for
    /// *all* lend queries across all lanes (GEMM rows are independent, so
    /// batching the queries cannot change any value).
    ///
    /// Row `i` of `out` is bitwise-equal to
    /// `predict(states.row(i), actions.row(i), &mut rngs[i])`: the lend
    /// draws for lane `i` are taken from `rngs[i]` in ascending-dimension
    /// order, exactly as the sequential path draws them, and the model
    /// itself never consumes randomness.
    ///
    /// # Panics
    ///
    /// Panics if the wrapped model is untrained, dimensions mismatch, or
    /// `rngs.len() != states.rows()`.
    pub(crate) fn predict_batch_into<R: Rng>(
        &self,
        states: &Matrix,
        actions: &Matrix,
        rngs: &mut [R],
        out: &mut Matrix,
    ) {
        assert_eq!(states.rows(), rngs.len(), "one RNG stream per lane");
        self.model.predict_batch_into(states, actions, out);
        if !self.enabled {
            return;
        }
        let j_dim = self.tau.len();
        // Lend: collect every below-threshold (lane, dimension) pair, with
        // its ρ drawn lane-major / dimension-ascending so each lane consumes
        // its stream in the sequential order.
        let mut queries: Vec<(usize, usize, f64)> = Vec::new();
        for (i, rng) in rngs.iter_mut().enumerate() {
            let s = states.row(i);
            for (j, &sj) in s.iter().enumerate().take(j_dim) {
                if sj < self.tau[j] {
                    let rho = if self.omega[j] > self.tau[j] {
                        rng.gen_range(self.tau[j]..self.omega[j])
                    } else {
                        self.tau[j]
                    };
                    queries.push((i, j, rho));
                }
            }
        }
        if queries.is_empty() {
            return;
        }
        let mut lent_states = Matrix::zeros(queries.len(), j_dim);
        let mut lent_actions = Matrix::zeros(queries.len(), j_dim);
        for (r, &(i, j, rho)) in queries.iter().enumerate() {
            let row = lent_states.row_mut(r);
            row.copy_from_slice(states.row(i));
            row[j] += rho;
            lent_actions.row_mut(r).copy_from_slice(actions.row(i));
        }
        let mut pred = Matrix::zeros(0, 0);
        self.model
            .predict_batch_into(&lent_states, &lent_actions, &mut pred);
        // Giveback.
        for (r, &(i, j, rho)) in queries.iter().enumerate() {
            out.row_mut(i)[j] = (pred.row(r)[j] - rho).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MirasConfig, Transition};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Dynamics where each consumer drains ~2 WIP per window and one new
    /// task arrives: s' = max(0, s − 2a) + 1.
    fn drain_dataset(n: usize, seed: u64) -> TransitionDataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = TransitionDataset::new(2);
        for _ in 0..n {
            let s = vec![rng.gen_range(0.0..30.0), rng.gen_range(0.0..30.0)];
            let a = vec![
                rng.gen_range(0.0f64..4.0).floor(),
                rng.gen_range(0.0f64..4.0).floor(),
            ];
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

    fn trained_model(data: &TransitionDataset, seed: u64) -> DynamicsModel {
        let mut config = MirasConfig::smoke_test(seed);
        config.model_hidden = vec![32, 32];
        let mut m = DynamicsModel::new(2, &config);
        m.train(data, 40, 32);
        m
    }

    #[test]
    fn thresholds_come_from_percentiles() {
        let data = drain_dataset(500, 0);
        let model = trained_model(&data, 1);
        let refined = RefinedModel::fit(model, &data, 10.0);
        for j in 0..2 {
            assert!(refined.tau()[j] < refined.omega[j]);
            assert!(refined.tau()[j] >= 0.0);
            // 10th percentile of U(0,30) is around 3.
            assert!(refined.tau()[j] < 8.0);
            assert!(refined.omega[j] > 20.0);
        }
    }

    #[test]
    fn refinement_only_touches_boundary_dimensions() {
        let data = drain_dataset(500, 2);
        let model = trained_model(&data, 3);
        let refined = RefinedModel::fit(model.clone(), &data, 10.0);
        let mut rng = SmallRng::seed_from_u64(4);
        // Both dimensions far from the boundary: refined == raw.
        let s = [15.0, 15.0];
        let a = [2.0, 2.0];
        let raw = model.predict(&s, &a);
        let ref_pred = refined.predict(&s, &a, &mut rng);
        assert_eq!(raw, ref_pred);
    }

    #[test]
    fn refined_boundary_prediction_reflects_drain_rate() {
        // At s_j = 0 the true dynamics with a = 2 stay near the boundary:
        // s' = max(0, 0 − 4) + 1 = 1. An unrefined net extrapolates here;
        // the refined model evaluates at s_j ≈ 15 and gives back, landing
        // near the true small value.
        let data = drain_dataset(800, 5);
        let model = trained_model(&data, 6);
        let refined = RefinedModel::fit(model, &data, 10.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut max_err: f64 = 0.0;
        for _ in 0..20 {
            let pred = refined.predict(&[0.0, 20.0], &[3.0, 1.0], &mut rng);
            // True: dim0 → 1 (drained), dim1 → 19.
            max_err = max_err.max((pred[0] - 1.0).abs());
            assert!(pred[0] >= 0.0);
        }
        assert!(max_err < 6.0, "boundary error {max_err}");
    }

    #[test]
    fn unrefined_passthrough() {
        let data = drain_dataset(200, 8);
        let model = trained_model(&data, 9);
        let refined = RefinedModel::unrefined(model.clone());
        assert!(!refined.is_enabled());
        let mut rng = SmallRng::seed_from_u64(10);
        let s = [0.0, 0.0];
        let a = [1.0, 1.0];
        assert_eq!(refined.predict(&s, &a, &mut rng), model.predict(&s, &a));
    }

    #[test]
    fn predictions_never_negative() {
        let data = drain_dataset(300, 11);
        let model = trained_model(&data, 12);
        let refined = RefinedModel::fit(model, &data, 10.0);
        let mut rng = SmallRng::seed_from_u64(13);
        for s0 in [0.0, 0.5, 1.0, 2.0] {
            let pred = refined.predict(&[s0, s0], &[3.0, 3.0], &mut rng);
            assert!(pred.iter().all(|&v| v >= 0.0), "{pred:?}");
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 50)")]
    fn bad_percentile_panics() {
        let data = drain_dataset(50, 14);
        let model = trained_model(&data, 15);
        let _ = RefinedModel::fit(model, &data, 60.0);
    }
}
