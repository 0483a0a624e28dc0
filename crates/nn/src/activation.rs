//! Layer activation functions and their backward passes.

use serde::{Deserialize, Serialize};

use crate::Matrix;

/// The activation applied after a layer's affine transform.
///
/// `Softmax` is row-wise (per sample); the paper uses it at the actor's
/// output layer to turn the policy into a categorical distribution over task
/// types, which enforces the consumer-budget constraint by construction
/// (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit, `max(0, x)` — the paper's hidden activation.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Row-wise softmax.
    Softmax,
}

impl Activation {
    /// Applies the activation to pre-activations `z`.
    #[must_use]
    pub fn forward(self, z: &Matrix) -> Matrix {
        let mut out = z.clone();
        self.forward_in_place(&mut out);
        out
    }

    /// Applies the activation in place, turning pre-activations into outputs.
    pub(crate) fn forward_in_place(self, z: &mut Matrix) {
        for r in 0..z.rows() {
            self.apply_row(z.row_mut(r));
        }
    }

    /// Applies the activation to one row of pre-activations in place.
    ///
    /// Every activation in this crate is at most row-wise (softmax) — this
    /// is what lets the layer kernel fuse the activation into the matrix
    /// product one cache-hot output row at a time.
    pub(crate) fn apply_row(self, row: &mut [f64]) {
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                for v in row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            Activation::Tanh => {
                for v in row.iter_mut() {
                    *v = v.tanh();
                }
            }
            Activation::Sigmoid => {
                for v in row.iter_mut() {
                    *v = 1.0 / (1.0 + (-*v).exp());
                }
            }
            Activation::Softmax => {
                // Stabilise against overflow before exponentiating.
                let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for v in row.iter_mut() {
                    *v = (*v - max).exp();
                    sum += *v;
                }
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Backward pass: given the activation output `y` and the loss gradient
    /// with respect to `y`, returns the gradient with respect to the
    /// pre-activations `z`.
    ///
    /// # Panics
    ///
    /// Panics if `y` and `d_out` shapes differ.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn backward(self, y: &Matrix, d_out: &Matrix) -> Matrix {
        let mut d = d_out.clone();
        self.backward_in_place(y, &mut d);
        d
    }

    /// In-place backward pass: `d` holds the gradient with respect to the
    /// output `y` on entry and the gradient with respect to the
    /// pre-activations on exit.
    ///
    /// # Panics
    ///
    /// Panics if `y` and `d` shapes differ.
    pub(crate) fn backward_in_place(self, y: &Matrix, d: &mut Matrix) {
        assert_eq!(
            (y.rows(), y.cols()),
            (d.rows(), d.cols()),
            "activation backward shape mismatch"
        );
        match self {
            Activation::Linear => {}
            Activation::Relu => {
                // d/dz relu = 1 where the output is positive.
                for (g, &v) in d.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    if v <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for (g, &v) in d.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *g *= 1.0 - v * v;
                }
            }
            Activation::Sigmoid => {
                for (g, &v) in d.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *g *= v * (1.0 - v);
                }
            }
            Activation::Softmax => {
                // Jacobian-vector product per row:
                // dz_i = y_i * (dy_i − Σ_j dy_j · y_j)
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let dr = d.row_mut(r);
                    let dot: f64 = yr.iter().zip(dr.iter()).map(|(&a, &b)| a * b).sum();
                    for (g, &v) in dr.iter_mut().zip(yr) {
                        *g = v * (*g - dot);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(act: Activation, z: &[f64], d_out: &[f64]) -> Vec<f64> {
        // Numerical gradient of L = Σ d_out · act(z) with respect to z.
        let eps = 1e-6;
        let mut grad = vec![0.0; z.len()];
        for i in 0..z.len() {
            let mut zp = z.to_vec();
            let mut zm = z.to_vec();
            zp[i] += eps;
            zm[i] -= eps;
            let fp = act.forward(&Matrix::row_vector(&zp));
            let fm = act.forward(&Matrix::row_vector(&zm));
            let lp: f64 = fp.row(0).iter().zip(d_out).map(|(&y, &d)| y * d).sum();
            let lm: f64 = fm.row(0).iter().zip(d_out).map(|(&y, &d)| y * d).sum();
            grad[i] = (lp - lm) / (2.0 * eps);
        }
        grad
    }

    fn check_gradient(act: Activation) {
        let z = [0.5, -1.2, 2.0, 0.01];
        let d_out = [1.0, -0.5, 0.25, 2.0];
        let y = act.forward(&Matrix::row_vector(&z));
        let analytic = act.backward(&y, &Matrix::row_vector(&d_out));
        let numeric = finite_diff(act, &z, &d_out);
        for (a, n) in analytic.row(0).iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-5, "{act:?}: analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn linear_gradient_matches() {
        check_gradient(Activation::Linear);
    }

    #[test]
    fn relu_gradient_matches() {
        check_gradient(Activation::Relu);
    }

    #[test]
    fn tanh_gradient_matches() {
        check_gradient(Activation::Tanh);
    }

    #[test]
    fn sigmoid_gradient_matches() {
        check_gradient(Activation::Sigmoid);
    }

    #[test]
    fn softmax_gradient_matches() {
        check_gradient(Activation::Softmax);
    }

    #[test]
    fn in_place_matches_allocating_paths() {
        let z = Matrix::from_rows(&[&[0.3, -0.7, 1.9], &[-0.2, 0.0, 4.0]]);
        let d_out = Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.1, 0.2, -0.3]]);
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Softmax,
        ] {
            let y = act.forward(&z);
            let mut y2 = z.clone();
            act.forward_in_place(&mut y2);
            assert_eq!(y, y2, "{act:?} forward");

            let d = act.backward(&y, &d_out);
            let mut d2 = d_out.clone();
            act.backward_in_place(&y, &mut d2);
            assert_eq!(d, d2, "{act:?} backward");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let z = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let y = Activation::Softmax.forward(&z);
        for r in 0..y.rows() {
            let sum: f64 = y.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(y.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let y1 = Activation::Softmax.forward(&Matrix::row_vector(&[1.0, 2.0]));
        let y2 = Activation::Softmax.forward(&Matrix::row_vector(&[1001.0, 1002.0]));
        for (a, b) in y1.row(0).iter().zip(y2.row(0)) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(y2.row(0).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn relu_clamps_negatives() {
        let y = Activation::Relu.forward(&Matrix::row_vector(&[-1.0, 0.0, 2.0]));
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
    }
}
