//! The transition dataset `D` collected from the real environment.

use nn::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One `(s(k), m(k), s(k+1))` tuple, with the action stored as the *applied
/// consumer allocation* (the physical control input, §IV-C1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// WIP per task type before the window.
    pub state: Vec<f64>,
    /// Consumers allocated per task type during the window.
    pub action: Vec<f64>,
    /// WIP per task type after the window.
    pub next_state: Vec<f64>,
}

/// Per-dimension standardisation statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// Fits mean/std per column of `rows`. Degenerate (constant) columns get
    /// unit scale so standardisation stays invertible.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    #[must_use]
    pub(crate) fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit on an empty dataset");
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut mean = vec![0.0; dim];
        for row in rows {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v / n;
            }
        }
        let mut std = vec![0.0; dim];
        for row in rows {
            for ((s, &v), &m) in std.iter_mut().zip(row).zip(&mean) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt();
            if *s < 1e-8 {
                *s = 1.0;
            }
        }
        Standardizer { mean, std }
    }

    /// `(x − μ) / σ` per dimension.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted dimensionality.
    #[must_use]
    pub(crate) fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        x.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((&v, &m), &s)| (v - m) / s)
            .collect()
    }

    /// The inverse of [`Standardizer::transform`].
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` differs from the fitted dimensionality.
    #[must_use]
    pub(crate) fn inverse(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.mean.len(), "dimension mismatch");
        z.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((&v, &m), &s)| v * s + m)
            .collect()
    }

    /// Allocation-free [`Standardizer::transform`] into a caller buffer.
    /// Bitwise-identical to `transform` (same per-element expression).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `out.len()` differ from the fitted
    /// dimensionality.
    pub(crate) fn transform_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        assert_eq!(out.len(), self.mean.len(), "output dimension mismatch");
        for (((o, &v), &m), &s) in out.iter_mut().zip(x).zip(&self.mean).zip(&self.std) {
            *o = (v - m) / s;
        }
    }

    /// Allocation-free [`Standardizer::inverse`] applied in place.
    /// Bitwise-identical to `inverse` (same per-element expression).
    ///
    /// # Panics
    ///
    /// Panics if `z.len()` differs from the fitted dimensionality.
    pub(crate) fn inverse_in_place(&self, z: &mut [f64]) {
        assert_eq!(z.len(), self.mean.len(), "dimension mismatch");
        for ((v, &m), &s) in z.iter_mut().zip(&self.mean).zip(&self.std) {
            *v = *v * s + m;
        }
    }
}

/// The growing dataset `D` of real-environment transitions (Algorithm 2,
/// line 3), with percentile queries used by the refinement thresholds.
///
/// # Examples
///
/// ```
/// use miras_core::{Transition, TransitionDataset};
///
/// let mut d = TransitionDataset::new(4);
/// d.push(Transition {
///     state: vec![1.0, 2.0, 3.0, 4.0],
///     action: vec![4.0, 4.0, 4.0, 2.0],
///     next_state: vec![0.0, 1.0, 2.0, 3.0],
/// });
/// assert_eq!(d.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TransitionDataset {
    state_dim: usize,
    transitions: Vec<Transition>,
}

impl TransitionDataset {
    /// Creates an empty dataset for `state_dim`-dimensional states.
    #[must_use]
    pub fn new(state_dim: usize) -> Self {
        TransitionDataset {
            state_dim,
            transitions: Vec::new(),
        }
    }

    /// State (and action) dimensionality `J`.
    #[must_use]
    pub(crate) fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Number of stored transitions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Appends a transition.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn push(&mut self, t: Transition) {
        assert_eq!(t.state.len(), self.state_dim, "state dimension mismatch");
        assert_eq!(t.action.len(), self.state_dim, "action dimension mismatch");
        assert_eq!(
            t.next_state.len(),
            self.state_dim,
            "next-state dimension mismatch"
        );
        self.transitions.push(t);
    }

    /// The stored transitions.
    #[must_use]
    pub(crate) fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The `p`-th percentile (0–100, nearest-rank) of state dimension `j`
    /// across the dataset — used for the refinement thresholds τ_j, ω_j.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, `j` is out of range, or `p` is
    /// outside `[0, 100]`.
    #[must_use]
    pub(crate) fn state_percentile(&self, j: usize, p: f64) -> f64 {
        assert!(!self.is_empty(), "percentile of empty dataset");
        assert!(j < self.state_dim, "dimension out of range");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let mut values: Vec<f64> = self.transitions.iter().map(|t| t.state[j]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite WIP"));
        let rank = ((p / 100.0) * (values.len() - 1) as f64).round() as usize;
        values[rank]
    }

    /// Builds `(inputs, targets)` matrices for model training, standardised
    /// with the returned scalers: inputs are `[ŝ ‖ â]` (standardised state
    /// and action), targets the standardised next state.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    #[must_use]
    pub(crate) fn training_matrices(
        &self,
    ) -> (Matrix, Matrix, Standardizer, Standardizer, Standardizer) {
        assert!(!self.is_empty(), "cannot build matrices from empty dataset");
        let states: Vec<Vec<f64>> = self.transitions.iter().map(|t| t.state.clone()).collect();
        let actions: Vec<Vec<f64>> = self.transitions.iter().map(|t| t.action.clone()).collect();
        let nexts: Vec<Vec<f64>> = self
            .transitions
            .iter()
            .map(|t| t.next_state.clone())
            .collect();
        let s_scaler = Standardizer::fit(&states);
        let a_scaler = Standardizer::fit(&actions);
        let y_scaler = Standardizer::fit(&nexts);

        let mut x = Matrix::zeros(self.len(), 2 * self.state_dim);
        let mut y = Matrix::zeros(self.len(), self.state_dim);
        for (i, t) in self.transitions.iter().enumerate() {
            let zs = s_scaler.transform(&t.state);
            let za = a_scaler.transform(&t.action);
            let zy = y_scaler.transform(&t.next_state);
            x.row_mut(i)[..self.state_dim].copy_from_slice(&zs);
            x.row_mut(i)[self.state_dim..].copy_from_slice(&za);
            y.row_mut(i).copy_from_slice(&zy);
        }
        (x, y, s_scaler, a_scaler, y_scaler)
    }

    /// Samples a random transition's state — the synthetic environment's
    /// initial-state distribution.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    #[must_use]
    pub(crate) fn sample_state<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        assert!(!self.is_empty(), "cannot sample from empty dataset");
        self.transitions[rng.gen_range(0..self.len())].state.clone()
    }
}

impl Extend<Transition> for TransitionDataset {
    fn extend<I: IntoIterator<Item = Transition>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn t(s: f64) -> Transition {
        Transition {
            state: vec![s, 2.0 * s],
            action: vec![1.0, 1.0],
            next_state: vec![s + 1.0, 2.0 * s + 1.0],
        }
    }

    #[test]
    fn standardizer_round_trips() {
        let rows = vec![vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 20.0]];
        let s = Standardizer::fit(&rows);
        for row in &rows {
            let back = s.inverse(&s.transform(row));
            for (a, b) in row.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn standardizer_zero_variance_is_safe() {
        let rows = vec![vec![5.0], vec![5.0]];
        let s = Standardizer::fit(&rows);
        let z = s.transform(&[5.0]);
        assert_eq!(z, vec![0.0]);
        assert_eq!(s.inverse(&z), vec![5.0]);
    }

    #[test]
    fn standardized_columns_have_zero_mean_unit_std() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64, -3.0 * i as f64]).collect();
        let s = Standardizer::fit(&rows);
        let z: Vec<Vec<f64>> = rows.iter().map(|r| s.transform(r)).collect();
        for c in 0..2 {
            let mean: f64 = z.iter().map(|r| r[c]).sum::<f64>() / z.len() as f64;
            let var: f64 = z.iter().map(|r| (r[c] - mean).powi(2)).sum::<f64>() / z.len() as f64;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut d = TransitionDataset::new(2);
        for i in 0..101 {
            d.push(t(i as f64));
        }
        let p10 = d.state_percentile(0, 10.0);
        let p90 = d.state_percentile(0, 90.0);
        assert!((p10 - 10.0).abs() < 1.0);
        assert!((p90 - 90.0).abs() < 1.0);
        assert!(p10 < p90);
    }

    #[test]
    fn training_matrices_shapes_and_inverse() {
        let mut d = TransitionDataset::new(2);
        for i in 0..10 {
            d.push(t(i as f64));
        }
        let (x, y, _s, _a, y_scaler) = d.training_matrices();
        assert_eq!((x.rows(), x.cols()), (10, 4));
        assert_eq!((y.rows(), y.cols()), (10, 2));
        // Targets invert back to the raw next states.
        let raw = y_scaler.inverse(y.row(3));
        assert!((raw[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sample_state_draws_from_dataset() {
        let mut d = TransitionDataset::new(2);
        for i in 0..5 {
            d.push(t(i as f64));
        }
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..20 {
            let s = d.sample_state(&mut rng);
            assert!(s[0] >= 0.0 && s[0] < 5.0);
            assert_eq!(s[1], 2.0 * s[0]);
        }
    }

    #[test]
    #[should_panic(expected = "state dimension mismatch")]
    fn wrong_dimension_panics() {
        let mut d = TransitionDataset::new(3);
        d.push(t(1.0));
    }
}
