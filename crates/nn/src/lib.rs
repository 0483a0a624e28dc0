//! A minimal dense neural-network library.
//!
//! This crate replaces TensorFlow in the MIRAS reproduction. It implements
//! exactly what the paper's models need (§IV-C, §IV-D):
//!
//! * row-major [`Matrix`] math over `f64`,
//! * fully connected [`Dense`] layers with ReLU / tanh / softmax / linear
//!   activations ([`Activation`]),
//! * multi-layer perceptrons ([`Mlp`]) with forward, backward, and
//!   mean-squared-error training,
//! * an inference-only [`PackedMlp`] whose weights are packed into the
//!   GEMM panel layout once, for bit-identical batch-1 forwards,
//! * the [`Adam`] optimizer with global-norm gradient clipping,
//! * parameter-space utilities used by DDPG: Gaussian parameter
//!   perturbation ([`Mlp::add_parameter_noise`]) and Polyak soft target
//!   updates ([`Mlp::soft_update_from`]),
//! * serde serialization of trained models.
//!
//! # Performance
//!
//! The compute core is built for throughput on CPU:
//!
//! * all three matrix products run through one cache-blocked,
//!   register-tiled GEMM with a packed right-hand side (`kernels`); the
//!   layer forward pass fuses bias and activation into the product,
//! * matrix buffers are recycled through a thread-local scratch pool, so
//!   steady-state training does not allocate,
//! * large products and coarse-grained training loops parallelise with
//!   `std::thread::scope`, governed by the `NN_NUM_THREADS` environment
//!   variable (see [`threads`]); results are bit-identical for any thread
//!   count.
//!
//! # Examples
//!
//! Fit `y = 2x` with a tiny network:
//!
//! ```
//! use nn::{Activation, Adam, Matrix, Mlp};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Relu, Activation::Linear, &mut rng);
//! let mut opt = Adam::new(1e-2);
//! let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
//! let y = Matrix::from_rows(&[&[0.0], &[2.0], &[4.0], &[6.0]]);
//! for _ in 0..500 {
//!     net.train_mse(&x, &y, &mut opt);
//! }
//! let pred = net.forward(&Matrix::from_rows(&[&[1.5]]));
//! assert!((pred.get(0, 0) - 3.0).abs() < 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod kernels;
mod layer;
mod matrix;
mod network;
mod optimizer;
mod packed;
mod scratch;
pub mod threads;

pub use activation::Activation;
pub use layer::{Dense, DenseGrads};
pub use matrix::Matrix;
pub use network::{ForwardTrace, Mlp};
pub use optimizer::Adam;
pub use packed::PackedMlp;
