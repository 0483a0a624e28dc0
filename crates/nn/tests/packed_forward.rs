//! The packed batch-1 forward against the unpacked one: `PackedMlp` must
//! return exactly the bits of `Mlp::forward_one` for every activation, at
//! widths below, at, between and above multiples of the 16-wide kernel
//! panel, on zero, ordinary and huge inputs.
//!
//! Both forwards sum each output's products in ascending order from `0.0`
//! and finish it with the same bias-and-activation epilogue, so the
//! comparison is on `f64::to_bits`, not within a tolerance.

use nn::{Activation, Mlp, PackedMlp};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Layer widths: 1, 4 and 7 fit in one partial panel; 20 and 96 leave a
/// partial last panel; 64 and 256 fill whole panels.
const WIDTHS: [usize; 7] = [1, 4, 7, 20, 64, 96, 256];

const ACTIVATIONS: [Activation; 5] = [
    Activation::Linear,
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Softmax,
];

/// How an input row is drawn.
#[derive(Debug, Clone, Copy)]
enum Inputs {
    Zeros,
    Unit,
    /// Magnitudes up to 1e6, the scale of raw WIP counts.
    Large,
    /// Magnitudes from 1e-300 to 1e300, with some exact zeros and some
    /// `±f64::MAX`: products overflow to infinity and sums to NaN.
    Extreme,
}

const INPUTS: [Inputs; 4] = [Inputs::Zeros, Inputs::Unit, Inputs::Large, Inputs::Extreme];

fn input(rng: &mut SmallRng, dim: usize, kind: Inputs) -> Vec<f64> {
    (0..dim)
        .map(|_| match kind {
            Inputs::Zeros => 0.0,
            Inputs::Unit => rng.gen_range(-1.0..1.0),
            Inputs::Large => rng.gen_range(-1e6..1e6),
            Inputs::Extreme => {
                let sign = if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 };
                match rng.gen_range(0..5) {
                    0 => 0.0,
                    1 => sign * f64::MAX,
                    _ => sign * 10f64.powi(rng.gen_range(-300..=300)),
                }
            }
        })
        .collect()
}

/// Asserts the packed forward of `x` is bitwise the unpacked one, and
/// returns how many of its outputs are NaN.
fn assert_bitwise(net: &Mlp, packed: &PackedMlp, x: &[f64], what: &str) -> usize {
    let expected = net.forward_one(x);
    let actual = packed.forward_one(x);
    assert_eq!(actual.len(), expected.len(), "{what}");
    for (j, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(
            a.to_bits(),
            e.to_bits(),
            "{what}: output {j} is {a} packed, {e} unpacked"
        );
    }
    actual.iter().filter(|v| v.is_nan()).count()
}

/// Every width as hidden width and as input/output width, under every
/// activation as both the hidden and the output activation. The extreme
/// inputs must reach NaN somewhere, or the sweep would not show that
/// non-finite sums agree too.
#[test]
fn every_width_and_activation_is_bitwise_the_unpacked_forward() {
    let mut rng = SmallRng::seed_from_u64(47);
    let mut nans = 0;
    for (i, &hidden) in WIDTHS.iter().enumerate() {
        for (a, &act) in ACTIVATIONS.iter().enumerate() {
            let io = WIDTHS[(i + a) % WIDTHS.len()];
            let net = Mlp::new(&[io, hidden, hidden, io], act, act, &mut rng);
            let packed = PackedMlp::new(&net);
            for kind in INPUTS {
                for _ in 0..4 {
                    let x = input(&mut rng, io, kind);
                    let what = format!("{io}-{hidden}-{hidden}-{io} {act:?} {kind:?}");
                    nans += assert_bitwise(&net, &packed, &x, &what);
                }
            }
        }
    }
    assert!(nans > 0, "no extreme input produced a NaN output");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random depths, widths, activation pairs and inputs.
    #[test]
    fn random_networks_are_bitwise_the_unpacked_forward(
        widths in proptest::collection::vec(0usize..WIDTHS.len(), 2..=5),
        hidden in 0usize..ACTIVATIONS.len(),
        output in 0usize..ACTIVATIONS.len(),
        kind in 0usize..INPUTS.len(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sizes: Vec<usize> = widths.iter().map(|&w| WIDTHS[w]).collect();
        let net = Mlp::new(&sizes, ACTIVATIONS[hidden], ACTIVATIONS[output], &mut rng);
        let packed = PackedMlp::new(&net);
        prop_assert_eq!(&packed.unpack(), &net);
        let x = input(&mut rng, sizes[0], INPUTS[kind]);
        assert_bitwise(&net, &packed, &x, &format!("{sizes:?}"));
    }
}
