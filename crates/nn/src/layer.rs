//! Fully connected layers.

use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::{Activation, Matrix};

/// A fully connected layer: `y = act(x · Wᵀ + b)`.
///
/// `W` has shape `(fan_out, fan_in)`; inputs are row-major batches of shape
/// `(batch, fan_in)`.
///
/// Weights are initialised with He/Xavier-style scaling chosen by the
/// activation (He for ReLU, Xavier otherwise).
///
/// The forward pass runs as a single fused kernel: the tiled `x · Wᵀ`
/// product applies the bias broadcast and the activation to each output row
/// while it is still cache-hot, and `Dense::infer_into` reuses the
/// caller's output buffer, so a steady-state forward pass does not allocate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

/// Gradients of a layer's parameters.
#[derive(Debug, Clone)]
pub struct DenseGrads {
    /// Gradient of the loss with respect to the weight matrix.
    pub d_weights: Matrix,
    /// Gradient of the loss with respect to the bias.
    pub d_bias: Vec<f64>,
}

impl DenseGrads {
    /// Scales all gradients in place.
    pub(crate) fn scale_in_place(&mut self, s: f64) {
        self.d_weights.scale_in_place(s);
        for b in &mut self.d_bias {
            *b *= s;
        }
    }
}

/// The layer epilogue, run once on each finished row of `x · Wᵀ`: adds
/// the bias, then applies the activation. Shared by [`Dense`] and
/// `PackedMlp`, so both finish a row with the same operations.
pub(crate) fn finish_row(row: &mut [f64], bias: &[f64], activation: Activation) {
    for (v, &b) in row.iter_mut().zip(bias) {
        *v += b;
    }
    activation.apply_row(row);
}

impl Dense {
    /// Rebuilds a layer from its parts (the inverse of packing, see
    /// `PackedMlp::unpack`).
    pub(crate) fn from_parts(weights: Matrix, bias: Vec<f64>, activation: Activation) -> Self {
        Dense {
            weights,
            bias,
            activation,
        }
    }

    /// Creates a layer with `fan_in` inputs and `fan_out` outputs.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            fan_in > 0 && fan_out > 0,
            "layer dimensions must be positive"
        );
        let std = match activation {
            // He initialisation suits ReLU; Xavier everything else.
            Activation::Relu => (2.0 / fan_in as f64).sqrt(),
            _ => (1.0 / fan_in as f64).sqrt(),
        };
        let normal = Normal::new(0.0, std).expect("valid std");
        let data: Vec<f64> = (0..fan_in * fan_out).map(|_| normal.sample(rng)).collect();
        Dense {
            weights: Matrix::from_vec(fan_out, fan_in, data),
            bias: vec![0.0; fan_out],
            activation,
        }
    }

    /// Input width.
    #[must_use]
    pub(crate) fn fan_in(&self) -> usize {
        self.weights.cols()
    }

    /// Output width.
    #[must_use]
    pub(crate) fn fan_out(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation.
    #[must_use]
    pub(crate) fn activation(&self) -> Activation {
        self.activation
    }

    /// The weight matrix, one row per output unit (`fan_out × fan_in`).
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector, one entry per output unit.
    #[must_use]
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Checks what a deserialized layer must hold before it can run: a
    /// non-empty `fan_out × fan_in` weight matrix backed by exactly that
    /// many entries, one bias per output, and only finite parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let (rows, cols) = (self.weights.rows(), self.weights.cols());
        if rows == 0 || cols == 0 {
            return Err(format!("empty {rows}×{cols} weight matrix"));
        }
        if rows.checked_mul(cols) != Some(self.weights.as_slice().len()) {
            return Err(format!(
                "{rows}×{cols} weight matrix holds {} entries",
                self.weights.as_slice().len()
            ));
        }
        if self.bias.len() != rows {
            return Err(format!("{} biases for {rows} outputs", self.bias.len()));
        }
        if !self
            .weights
            .as_slice()
            .iter()
            .chain(&self.bias)
            .all(|v| v.is_finite())
        {
            return Err("non-finite parameter".to_string());
        }
        Ok(())
    }

    /// Number of trainable parameters.
    #[must_use]
    pub(crate) fn num_params(&self) -> usize {
        self.weights.as_slice().len() + self.bias.len()
    }

    /// Forward pass over a batch (fused product + bias + activation).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.fan_in()`.
    #[must_use]
    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.infer_into(x, &mut out);
        out
    }

    /// Forward pass into `out`, reusing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.fan_in()`.
    pub(crate) fn infer_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.fan_in(), "input width mismatch");
        x.matmul_transpose_fused_into(&self.weights, out, &|row: &mut [f64]| {
            finish_row(row, &self.bias, self.activation);
        });
    }

    /// Backward pass: given the layer's forward `input` and `output` and
    /// `d_out = ∂L/∂y`, returns `(∂L/∂x, parameter gradients)`.
    ///
    /// The caller keeps the forward values (see `Mlp::forward_cached`'s
    /// trace) instead of this layer cloning them into a cache; the output
    /// alone is enough to invert every activation's derivative, and the
    /// pre-activations are never needed.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn backward(
        &self,
        input: &Matrix,
        output: &Matrix,
        d_out: &Matrix,
    ) -> (Matrix, DenseGrads) {
        let mut d_z = d_out.clone();
        self.activation.backward_in_place(output, &mut d_z);
        (self.input_gradient(&d_z), self.param_gradients(input, &d_z))
    }

    /// The parameter half of the backward pass: with `z = x · Wᵀ + b` and
    /// `d_z = ∂L/∂z`, `dW = d_zᵀ · x` and `db` is the column sums of `d_z`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    #[must_use]
    pub(crate) fn param_gradients(&self, input: &Matrix, d_z: &Matrix) -> DenseGrads {
        DenseGrads {
            d_weights: d_z.transpose_matmul(input),
            d_bias: d_z.column_sums(),
        }
    }

    /// The input half of the backward pass: `∂L/∂x = d_z · W`.
    ///
    /// # Panics
    ///
    /// Panics if `d_z.cols() != self.fan_out()`.
    #[must_use]
    pub(crate) fn input_gradient(&self, d_z: &Matrix) -> Matrix {
        d_z.matmul(&self.weights)
    }

    /// Columns `[start, start + width)` of [`Dense::input_gradient`],
    /// computed from those input features' weights alone. Every output
    /// element of a product is its own ascending-`k` sum, so the result is
    /// bitwise the slice of the full gradient.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `fan_in` or `d_z.cols() != self.fan_out()`.
    #[must_use]
    pub(crate) fn input_gradient_columns(
        &self,
        d_z: &Matrix,
        start: usize,
        width: usize,
    ) -> Matrix {
        if start == 0 && width == self.fan_in() {
            self.input_gradient(d_z)
        } else {
            d_z.matmul(&self.weights.columns(start, width))
        }
    }

    /// Immutable views of the parameter buffers: `[weights, bias]`.
    #[must_use]
    pub(crate) fn params(&self) -> [&[f64]; 2] {
        [self.weights.as_slice(), &self.bias]
    }

    /// Mutable views of the parameter buffers: `[weights, bias]`.
    pub(crate) fn params_mut(&mut self) -> [&mut [f64]; 2] {
        [self.weights.as_mut_slice(), &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shapes() {
        let layer = Dense::new(3, 5, Activation::Relu, &mut rng());
        let x = Matrix::zeros(4, 3);
        let y = layer.infer(&x);
        assert_eq!((y.rows(), y.cols()), (4, 5));
    }

    #[test]
    fn fused_forward_matches_unfused_reference() {
        let layer = Dense::new(5, 4, Activation::Tanh, &mut rng());
        // Batch sizes on both sides of the small-matrix threshold.
        for batch in [1usize, 2, 4, 9, 33] {
            let mut x = Matrix::zeros(batch, 5);
            for r in 0..batch {
                for c in 0..5 {
                    x.set(r, c, ((r * 5 + c) as f64).sin());
                }
            }
            let fused = layer.infer(&x);
            let w = Matrix::from_vec(4, 5, layer.params()[0].to_vec());
            let unfused = layer.activation().forward(
                &x.naive_matmul_transpose(&w)
                    .add_row_broadcast(layer.params()[1]),
            );
            assert_eq!(fused, unfused, "batch {batch}");
        }
    }

    #[test]
    fn infer_into_reuses_buffer() {
        let layer = Dense::new(3, 2, Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[0.1, -0.4, 0.7]]);
        let mut out = Matrix::zeros(7, 7);
        layer.infer_into(&x, &mut out);
        assert_eq!(out, layer.infer(&x));
    }

    /// Finite-difference check of every gradient a Dense layer produces.
    #[test]
    fn gradients_match_finite_differences() {
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng());
        let x = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[-0.1, 0.9, 0.2]]);
        let d_out = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.25]]);

        let y = layer.infer(&x);
        let (d_input, grads) = layer.backward(&x, &y, &d_out);

        let loss = |l: &Dense, x: &Matrix| -> f64 {
            let y = l.infer(x);
            y.as_slice()
                .iter()
                .zip(d_out.as_slice())
                .map(|(&a, &b)| a * b)
                .sum()
        };
        let eps = 1e-6;

        // Weight gradients.
        for i in 0..layer.weights.as_slice().len() {
            let orig = layer.weights.as_slice()[i];
            layer.weights.as_mut_slice()[i] = orig + eps;
            let lp = loss(&layer, &x);
            layer.weights.as_mut_slice()[i] = orig - eps;
            let lm = loss(&layer, &x);
            layer.weights.as_mut_slice()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.d_weights.as_slice()[i];
            assert!((numeric - analytic).abs() < 1e-5, "dW[{i}]");
        }

        // Bias gradients.
        for i in 0..layer.bias.len() {
            let orig = layer.bias[i];
            layer.bias[i] = orig + eps;
            let lp = loss(&layer, &x);
            layer.bias[i] = orig - eps;
            let lm = loss(&layer, &x);
            layer.bias[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - grads.d_bias[i]).abs() < 1e-5, "db[{i}]");
        }

        // Input gradients.
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                xm.set(r, c, x.get(r, c) - eps);
                let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
                assert!((numeric - d_input.get(r, c)).abs() < 1e-5, "dx[{r},{c}]");
            }
        }
    }

    #[test]
    fn grads_accumulate_and_scale() {
        let layer = Dense::new(2, 2, Activation::Linear, &mut rng());
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let y = layer.infer(&x);
        let d_out = Matrix::from_rows(&[&[1.0, -1.0]]);
        let (_, mut g1) = layer.backward(&x, &y, &d_out);
        g1.scale_in_place(0.5);
        let (_, g_ref) = layer.backward(&x, &y, &d_out);
        assert_eq!(g1.d_weights, g_ref.d_weights.scale(0.5));
        let half_bias: Vec<f64> = g_ref.d_bias.iter().map(|b| b * 0.5).collect();
        assert_eq!(g1.d_bias, half_bias);
    }

    #[test]
    fn he_init_scales_with_fan_in() {
        let wide = Dense::new(1000, 10, Activation::Relu, &mut rng());
        let narrow = Dense::new(10, 10, Activation::Relu, &mut rng());
        let wide_norm =
            wide.weights.frobenius_norm() / (wide.weights.as_slice().len() as f64).sqrt();
        let narrow_norm =
            narrow.weights.frobenius_norm() / (narrow.weights.as_slice().len() as f64).sqrt();
        assert!(wide_norm < narrow_norm);
    }

    #[test]
    fn params_expose_all_buffers() {
        let layer = Dense::new(4, 3, Activation::Linear, &mut rng());
        let [w, b] = layer.params();
        assert_eq!(w.len(), 12);
        assert_eq!(b.len(), 3);
        assert_eq!(layer.num_params(), 15);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let layer = Dense::new(3, 2, Activation::Linear, &mut rng());
        let _ = layer.infer(&Matrix::zeros(1, 4));
    }
}
