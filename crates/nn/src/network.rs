//! Multi-layer perceptrons.

use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::{Activation, Adam, Dense, DenseGrads, Matrix};

/// A multi-layer perceptron: a stack of [`Dense`] layers.
///
/// All hidden layers share one activation; the output layer has its own
/// (the paper's models use ReLU hidden layers with linear outputs for the
/// environment model and critic, and a softmax output for the actor).
///
/// # Examples
///
/// ```
/// use nn::{Activation, Matrix, Mlp};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let net = Mlp::new(&[4, 20, 20, 4], Activation::Relu, Activation::Linear, &mut rng);
/// assert_eq!(net.input_dim(), 4);
/// assert_eq!(net.output_dim(), 4);
/// let y = net.forward(&Matrix::zeros(2, 4));
/// assert_eq!((y.rows(), y.cols()), (2, 4));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Per-layer values recorded by [`Mlp::forward_cached`] for the backward
/// pass: `values[0]` is the input batch and `values[i + 1]` is layer `i`'s
/// output.
///
/// Each layer's input/output pair is stored exactly once (a layer's output
/// *is* the next layer's input), replacing the per-layer cache that used to
/// clone both sides of every boundary.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    values: Vec<Matrix>,
}

impl ForwardTrace {
    /// The network output (last recorded value).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (never produced by `forward_cached`).
    #[must_use]
    pub fn output(&self) -> &Matrix {
        self.values.last().expect("non-empty trace")
    }

    /// Consumes the trace, keeping only the network output.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (never produced by `forward_cached`).
    #[must_use]
    pub fn into_output(mut self) -> Matrix {
        self.values.pop().expect("non-empty trace")
    }

    /// Layer `i`'s forward input.
    #[must_use]
    pub(crate) fn layer_input(&self, i: usize) -> &Matrix {
        &self.values[i]
    }

    /// Layer `i`'s forward output.
    #[must_use]
    pub(crate) fn layer_output(&self, i: usize) -> &Matrix {
        &self.values[i + 1]
    }

    /// Number of layers traced.
    #[must_use]
    pub(crate) fn num_layers(&self) -> usize {
        self.values.len() - 1
    }
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `&[4, 20, 20, 4]` for
    /// two 20-neuron hidden layers between a 4-dim input and 4-dim output.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let last = sizes.len() - 2;
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i == last { output } else { hidden };
                Dense::new(w[0], w[1], act, rng)
            })
            .collect();
        Mlp { layers }
    }

    /// Wraps layers that chain (see [`Mlp::validate`]).
    pub(crate) fn from_layers(layers: Vec<Dense>) -> Self {
        Mlp { layers }
    }

    /// The layers, input side first.
    pub(crate) fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Input dimensionality.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.layers[0].fan_in()
    }

    /// Output dimensionality.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].fan_out()
    }

    /// Checks that a deserialized network can run: at least one layer,
    /// every layer well formed with finite parameters, and each layer's
    /// input as wide as the previous layer's output. [`Mlp::new`] always
    /// builds such a network; a decoded one may not.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("network has no layers".to_string());
        }
        for (i, layer) in self.layers.iter().enumerate() {
            layer.validate().map_err(|e| format!("layer {i}: {e}"))?;
            if i > 0 && layer.fan_in() != self.layers[i - 1].fan_out() {
                return Err(format!(
                    "layer {i} takes {} inputs but layer {} gives {}",
                    layer.fan_in(),
                    i - 1,
                    self.layers[i - 1].fan_out()
                ));
            }
        }
        Ok(())
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub(crate) fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Inference forward pass. Ping-pongs between two pooled buffers, so it
    /// performs no steady-state allocation beyond the returned matrix.
    ///
    /// Because every GEMM path accumulates each output element in
    /// ascending-k order from `0.0`, row `i` of the result is bitwise-equal
    /// to [`Mlp::forward_one`] of row `i`, whatever the batch size or kernel
    /// dispatch.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// Inference forward pass into `out`, reusing its buffer. Intermediate
    /// activations ping-pong between pooled buffers, so a steady-state call
    /// performs no allocation at all.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        let (last, init) = self.layers.split_last().expect("at least one layer");
        if init.is_empty() {
            last.infer_into(x, out);
            return;
        }
        let (first, mids) = init.split_first().expect("non-empty");
        let mut cur = first.infer(x);
        let mut next = Matrix::zeros(0, 0);
        for layer in mids {
            layer.infer_into(&cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        last.infer_into(&cur, out);
    }

    /// Forward pass for a single sample given as a slice.
    #[must_use]
    pub fn forward_one(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_one_into(x, &mut out);
        out
    }

    /// Forward pass for a single sample, writing the output into `out`
    /// (cleared and refilled). Routes through pooled matrix buffers, so a
    /// steady-state call with a pre-sized `out` performs no allocation.
    pub fn forward_one_into(&self, x: &[f64], out: &mut Vec<f64>) {
        let row = Matrix::row_vector(x);
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(&row, &mut y);
        out.clear();
        out.extend_from_slice(y.row(0));
    }

    /// Forward pass that records the per-layer value chain for
    /// [`Mlp::backward`].
    #[must_use]
    pub fn forward_cached(&self, x: &Matrix) -> ForwardTrace {
        let mut values = Vec::with_capacity(self.layers.len() + 1);
        values.push(x.clone());
        for layer in &self.layers {
            let out = layer.infer(values.last().expect("non-empty"));
            values.push(out);
        }
        ForwardTrace { values }
    }

    /// Backward pass: given the trace from [`Mlp::forward_cached`] and the
    /// loss gradient at the output, returns the gradient at the input and
    /// the per-layer parameter gradients (in layer order).
    ///
    /// # Panics
    ///
    /// Panics if the trace does not match the number of layers.
    #[must_use]
    pub fn backward(&self, trace: &ForwardTrace, d_out: &Matrix) -> (Matrix, Vec<DenseGrads>) {
        self.backprop(trace, d_out, true, Some((0, self.input_dim())))
    }

    /// The parameter half of [`Mlp::backward`]: the same per-layer
    /// gradients, without the first layer's input gradient that a training
    /// step never reads.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not match the number of layers.
    #[must_use]
    pub fn param_gradients(&self, trace: &ForwardTrace, d_out: &Matrix) -> Vec<DenseGrads> {
        self.backprop(trace, d_out, true, None).1
    }

    /// The input half of [`Mlp::backward`], for input columns
    /// `[start, start + width)` only: no layer's `d_zᵀ · x` weight-gradient
    /// product is formed, and the first layer multiplies by just those
    /// columns of its weights. Bitwise the matching columns of the full
    /// input gradient.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not match the number of layers or the range
    /// exceeds the input dimension.
    #[must_use]
    pub fn input_gradient_columns(
        &self,
        trace: &ForwardTrace,
        d_out: &Matrix,
        start: usize,
        width: usize,
    ) -> Matrix {
        self.backprop(trace, d_out, false, Some((start, width))).0
    }

    /// Gradient of `Σ d_out ⊙ f(x)` with respect to the input `x`.
    #[must_use]
    pub fn input_gradient(&self, x: &Matrix, d_out: &Matrix) -> Matrix {
        self.input_gradient_columns(&self.forward_cached(x), d_out, 0, self.input_dim())
    }

    /// The one backward loop. `d` is layer `i`'s `∂L/∂y` on entry to its
    /// iteration and its `∂L/∂z` after the activation's in-place backward;
    /// each half of the layer's gradient is formed only when asked for.
    /// `input` names the input columns whose gradient to return; with
    /// `None` the returned matrix is the first layer's `∂L/∂z`, which
    /// callers discard.
    fn backprop(
        &self,
        trace: &ForwardTrace,
        d_out: &Matrix,
        params: bool,
        input: Option<(usize, usize)>,
    ) -> (Matrix, Vec<DenseGrads>) {
        assert_eq!(
            trace.num_layers(),
            self.layers.len(),
            "trace length mismatch"
        );
        let mut grads = Vec::with_capacity(if params { self.layers.len() } else { 0 });
        let mut d = d_out.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            layer
                .activation()
                .backward_in_place(trace.layer_output(i), &mut d);
            if params {
                grads.push(layer.param_gradients(trace.layer_input(i), &d));
            }
            if i > 0 {
                d = layer.input_gradient(&d);
            } else if let Some((start, width)) = input {
                d = layer.input_gradient_columns(&d, start, width);
            }
        }
        grads.reverse();
        (d, grads)
    }

    /// Applies parameter gradients with the optimizer, honouring its global
    /// gradient-norm clip if configured. The gradients are scaled in place
    /// when clipping engages (they are consumed by this call).
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the number of layers.
    pub fn apply_gradients(&mut self, grads: &mut [DenseGrads], opt: &mut Adam) {
        assert_eq!(grads.len(), self.layers.len(), "gradient count mismatch");
        if let Some(clip) = opt.clip_norm() {
            let norm_sq: f64 = grads
                .iter()
                .map(|g| {
                    g.d_weights.as_slice().iter().map(|&v| v * v).sum::<f64>()
                        + g.d_bias.iter().map(|&v| v * v).sum::<f64>()
                })
                .sum();
            let norm = norm_sq.sqrt();
            if norm > clip {
                let scale = clip / norm;
                for g in grads.iter_mut() {
                    g.scale_in_place(scale);
                }
            }
        }
        for (i, (layer, g)) in self.layers.iter_mut().zip(grads.iter()).enumerate() {
            let [w, b] = layer.params_mut();
            opt.update(2 * i, w, g.d_weights.as_slice());
            opt.update(2 * i + 1, b, &g.d_bias);
        }
    }

    /// One step of mean-squared-error training on a batch; returns the MSE
    /// before the update.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` row counts differ or `y.cols()` differs from
    /// the output dimension.
    pub fn train_mse(&mut self, x: &Matrix, y: &Matrix, opt: &mut Adam) -> f64 {
        assert_eq!(x.rows(), y.rows(), "sample count mismatch");
        assert_eq!(y.cols(), self.output_dim(), "target width mismatch");
        let trace = self.forward_cached(x);
        let mut d_out = trace.output() - y;
        let n = (x.rows() * y.cols()) as f64;
        let loss = d_out.as_slice().iter().map(|&v| v * v).sum::<f64>() / n;
        // d(MSE)/d(pred) = 2 (pred − y) / n
        d_out.scale_in_place(2.0 / n);
        let mut grads = self.param_gradients(&trace, &d_out);
        self.apply_gradients(&mut grads, opt);
        loss
    }

    /// Mean-squared error of predictions on a batch (no update).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent (see [`Mlp::train_mse`]).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn mse(&self, x: &Matrix, y: &Matrix) -> f64 {
        assert_eq!(x.rows(), y.rows(), "sample count mismatch");
        let pred = self.forward(x);
        let diff = &pred - y;
        diff.as_slice().iter().map(|&v| v * v).sum::<f64>() / (x.rows() * y.cols()) as f64
    }

    /// Adds i.i.d. Gaussian noise with standard deviation `sigma` to every
    /// parameter — the perturbation primitive behind parameter-space
    /// exploration (Plappert et al., used by the paper in §IV-D).
    pub fn add_parameter_noise<R: Rng + ?Sized>(&mut self, sigma: f64, rng: &mut R) {
        if sigma <= 0.0 {
            return;
        }
        let normal = Normal::new(0.0, sigma).expect("valid sigma");
        for layer in &mut self.layers {
            for buf in layer.params_mut() {
                for p in buf.iter_mut() {
                    *p += normal.sample(rng);
                }
            }
        }
    }

    /// Polyak soft update: `θ ← τ·θ_src + (1 − τ)·θ` (DDPG target networks).
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn soft_update_from(&mut self, src: &Mlp, tau: f64) {
        assert_eq!(self.layers.len(), src.layers.len(), "architecture mismatch");
        for (dst, s) in self.layers.iter_mut().zip(&src.layers) {
            let src_params = s.params();
            for (dbuf, sbuf) in dst.params_mut().into_iter().zip(src_params) {
                assert_eq!(dbuf.len(), sbuf.len(), "architecture mismatch");
                for (d, &v) in dbuf.iter_mut().zip(sbuf) {
                    *d = tau * v + (1.0 - tau) * *d;
                }
            }
        }
    }

    /// Copies all parameters from `src` (τ = 1 soft update).
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn copy_params_from(&mut self, src: &Mlp) {
        self.soft_update_from(src, 1.0);
    }

    /// Flattens all parameters into one vector (diagnostics and distance
    /// computations).
    #[must_use]
    pub fn flat_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            for buf in layer.params() {
                out.extend_from_slice(buf);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn learns_linear_function() {
        let mut net = Mlp::new(
            &[2, 16, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(0),
        );
        let mut opt = crate::Adam::new(5e-3);
        let mut r = rng(1);
        for _ in 0..800 {
            let rows: Vec<Vec<f64>> = (0..16)
                .map(|_| vec![r.gen_range(-1.0..1.0), r.gen_range(-1.0..1.0)])
                .collect();
            let x = Matrix::from_rows(&rows.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
            let y_rows: Vec<Vec<f64>> =
                rows.iter().map(|v| vec![3.0 * v[0] - 2.0 * v[1]]).collect();
            let y = Matrix::from_rows(&y_rows.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
            net.train_mse(&x, &y, &mut opt);
        }
        let test = Matrix::from_rows(&[&[0.5, -0.5]]);
        let pred = net.forward(&test).get(0, 0);
        assert!((pred - 2.5).abs() < 0.2, "pred = {pred}");
    }

    #[test]
    fn forward_cached_matches_forward() {
        let net = Mlp::new(
            &[3, 8, 8, 2],
            Activation::Relu,
            Activation::Linear,
            &mut rng(20),
        );
        let x = Matrix::from_rows(&[&[0.3, -0.7, 0.1], &[1.0, 2.0, -0.5]]);
        let trace = net.forward_cached(&x);
        assert_eq!(trace.num_layers(), 3);
        assert_eq!(trace.layer_input(0), &x);
        assert_eq!(trace.output(), &net.forward(&x));
        // Consecutive trace entries share storage of the chain:
        // layer i's output is layer i+1's input.
        for i in 0..trace.num_layers() - 1 {
            assert_eq!(trace.layer_output(i), trace.layer_input(i + 1));
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_diff() {
        let net = Mlp::new(
            &[3, 8, 2],
            Activation::Tanh,
            Activation::Linear,
            &mut rng(2),
        );
        let x = Matrix::from_rows(&[&[0.3, -0.7, 0.1]]);
        let d_out = Matrix::from_rows(&[&[1.0, -0.5]]);
        let analytic = net.input_gradient(&x, &d_out);
        let eps = 1e-6;
        for c in 0..3 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            xm.set(0, c, x.get(0, c) - eps);
            let f = |m: &Matrix| -> f64 {
                net.forward(m)
                    .row(0)
                    .iter()
                    .zip(d_out.row(0))
                    .map(|(&a, &b)| a * b)
                    .sum()
            };
            let numeric = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!((numeric - analytic.get(0, c)).abs() < 1e-5);
        }
    }

    /// The halves of the backward pass are the full pass minus work: same
    /// bits, for a batch on the packed-GEMM path and one on the small path.
    #[test]
    fn backward_halves_match_full_backward_bitwise() {
        let net = Mlp::new(
            &[6, 20, 20, 3],
            Activation::Relu,
            Activation::Softmax,
            &mut rng(30),
        );
        let mut r = rng(31);
        for batch in [1usize, 3, 64] {
            let random = |cols: usize, r: &mut SmallRng| {
                let data = (0..batch * cols).map(|_| r.gen_range(-1.0..1.0)).collect();
                Matrix::from_vec(batch, cols, data)
            };
            let (x, d_out) = (random(6, &mut r), random(3, &mut r));
            let trace = net.forward_cached(&x);
            let (d_in, grads) = net.backward(&trace, &d_out);

            let params_only = net.param_gradients(&trace, &d_out);
            assert_eq!(params_only.len(), grads.len());
            for (a, b) in params_only.iter().zip(&grads) {
                assert_eq!(a.d_weights, b.d_weights, "batch {batch}");
                assert_eq!(a.d_bias, b.d_bias, "batch {batch}");
            }

            assert_eq!(net.input_gradient(&x, &d_out), d_in, "batch {batch}");
            for (start, width) in [(0, 6), (0, 2), (2, 3), (5, 1)] {
                assert_eq!(
                    net.input_gradient_columns(&trace, &d_out, start, width),
                    d_in.columns(start, width),
                    "batch {batch}, columns {start}+{width}"
                );
            }
        }
    }

    #[test]
    fn soft_update_converges_to_source() {
        let mut a = Mlp::new(
            &[2, 4, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(3),
        );
        let b = Mlp::new(
            &[2, 4, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(4),
        );
        for _ in 0..200 {
            a.soft_update_from(&b, 0.1);
        }
        let diff: f64 = a
            .flat_params()
            .iter()
            .zip(b.flat_params())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-6);
    }

    #[test]
    fn copy_params_is_exact() {
        let mut a = Mlp::new(
            &[2, 4, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(5),
        );
        let b = Mlp::new(
            &[2, 4, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(6),
        );
        a.copy_params_from(&b);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    #[test]
    fn parameter_noise_perturbs_all_layers() {
        let clean = Mlp::new(
            &[2, 4, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(7),
        );
        let mut noisy = clean.clone();
        noisy.add_parameter_noise(0.1, &mut rng(8));
        let changed = clean
            .flat_params()
            .iter()
            .zip(noisy.flat_params())
            .filter(|(a, b)| (*a - *b).abs() > 1e-12)
            .count();
        assert_eq!(changed, clean.num_params());
    }

    #[test]
    fn zero_sigma_noise_is_identity() {
        let clean = Mlp::new(
            &[2, 4, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(9),
        );
        let mut noisy = clean.clone();
        noisy.add_parameter_noise(0.0, &mut rng(10));
        assert_eq!(clean.flat_params(), noisy.flat_params());
    }

    #[test]
    fn gradient_clipping_bounds_update() {
        // Adam moves each parameter by lr·|g|/(|g| + ε) on its first step, so
        // a gradient clipped to norm `clip` ≪ ε moves the parameters by at
        // most lr·clip/ε, while an unclipped one moves each by ~lr.
        let step_with = |opt: &mut crate::Adam| {
            let mut net = Mlp::new(
                &[1, 1],
                Activation::Linear,
                Activation::Linear,
                &mut rng(11),
            );
            let before = net.flat_params();
            // Enormous targets produce enormous gradients.
            let x = Matrix::row_vector(&[1.0]);
            let y = Matrix::row_vector(&[1e9]);
            let _ = net.train_mse(&x, &y, opt);
            before
                .iter()
                .zip(&net.flat_params())
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        let clipped = step_with(&mut crate::Adam::new(1.0).with_clip_norm(1e-9));
        assert!(clipped <= 1e-9 / 1e-8 * 1.0001, "clipped step = {clipped}");
        let unclipped = step_with(&mut crate::Adam::new(1.0));
        assert!(unclipped > 1.0, "unclipped step = {unclipped}");
    }

    #[test]
    fn mse_decreases_during_training() {
        let mut net = Mlp::new(
            &[1, 8, 1],
            Activation::Relu,
            Activation::Linear,
            &mut rng(12),
        );
        let x = Matrix::from_rows(&[&[-1.0], &[0.0], &[1.0], &[2.0]]);
        let y = Matrix::from_rows(&[&[-2.0], &[0.0], &[2.0], &[4.0]]);
        let mut opt = crate::Adam::new(1e-2);
        let before = net.mse(&x, &y);
        for _ in 0..300 {
            net.train_mse(&x, &y, &mut opt);
        }
        let after = net.mse(&x, &y);
        assert!(after < before * 0.1, "before {before}, after {after}");
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let net = Mlp::new(
            &[3, 10, 2],
            Activation::Relu,
            Activation::Linear,
            &mut rng(17),
        );
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3]]);
        // serde_json float parsing may differ in the last ulp.
        for (a, b) in net
            .forward(&x)
            .as_slice()
            .iter()
            .zip(back.forward(&x).as_slice())
        {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }
}
