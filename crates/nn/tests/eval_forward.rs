//! The tape-free eval forward is the tape path, bit for bit.
//!
//! `MlpResNet::infer_into` replaces the recorded forward on every eval
//! call, and the fleet scheduler batches rows through it, so two things
//! must hold exactly: the tape-free logits equal the logits
//! `forward_with_features` records on a `Tape`, and row `i` of a batched
//! forward equals the batch-1 forward of row `i` — at every batch shape
//! around the kernels' register blocks, every [`SimdTier`] and matmul
//! widths 1 and 8.

use nazar_nn::{MlpResNet, Mode, ModelArch};
use nazar_tensor::{simd, SimdTier, Tape, Tensor, Workspace};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Batch sizes on both sides of the 4- and 8-row register blocks, plus the
/// benchmark's 160.
const BATCHES: [usize; 7] = [1, 2, 3, 4, 5, 33, 160];

const TIERS: [SimdTier; 3] = [SimdTier::Off, SimdTier::Exact, SimdTier::Fast];

/// A model whose BN layers left their initial state (a train-mode pass
/// moves the running statistics, then the affine parameters are shifted).
fn perturbed_model(arch: ModelArch, seed: u64) -> MlpResNet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let input_dim = arch.input_dim;
    let mut model = MlpResNet::new(arch, &mut rng);
    let warm = Tensor::rand_uniform(&mut rng, &[32, input_dim], -3.0, 3.0);
    let _ = model.logits(&warm, Mode::Train);
    model.visit_bn(&mut |bn| {
        let width = bn.width();
        let gamma = Tensor::rand_uniform(&mut rng, &[width], 0.5, 1.5);
        let beta = Tensor::rand_uniform(&mut rng, &[width], -0.5, 0.5);
        *bn.gamma_mut().value_mut() = gamma;
        *bn.beta_mut().value_mut() = beta;
    });
    model
}

/// `(features, logits)` as the tape records them in eval mode.
fn tape_forward(model: &mut MlpResNet, x: &Tensor) -> (Tensor, Tensor) {
    let tape = Tape::new();
    let xv = tape.leaf(x.clone());
    let (features, logits) = model.forward_with_features(&tape, &xv, Mode::Eval);
    (features.value(), logits.value())
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tape_free_forward_is_the_tape_forward_bitwise(
        input_dim in 1usize..48,
        classes in 2usize..45,
        hidden_pick in 0usize..5,
        blocks in 0usize..4,
        seed in 0u64..1_000,
    ) {
        // Widths on both sides of the 16- and 32-column panels.
        let hidden = [8, 16, 33, 64, 96][hidden_pick];
        let arch = ModelArch {
            input_dim,
            num_classes: classes,
            hidden,
            blocks,
            name: "probe".into(),
        };
        let mut model = perturbed_model(arch, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let mut ws = Workspace::new();
        let env = simd::env_tier();

        for n in BATCHES {
            let x = Tensor::rand_uniform(&mut rng, &[n, input_dim], -2.0, 2.0);
            let (tape_features, tape_logits) = tape_forward(&mut model, &x);

            // The public eval entry points are the tape-free forward.
            let logits = model.logits(&x, Mode::Eval);
            prop_assert!(bits(logits.data()) == bits(tape_logits.data()), "logits n={n}");
            prop_assert_eq!(logits.dims(), tape_logits.dims());
            let features = model.features(&x);
            prop_assert!(bits(features.data()) == bits(tape_features.data()), "features n={n}");
            prop_assert_eq!(features.dims(), tape_features.dims());
            prop_assert_eq!(model.predict(&x), tape_logits.argmax_axis1().unwrap());

            for tier in TIERS {
                // Off and Exact are the same arithmetic; Fast contracts
                // roundings, so it is held to the tape only when the tape
                // itself runs Fast (`NAZAR_TENSOR_SIMD=fast`).
                let same_arithmetic = tier == env || (tier != SimdTier::Fast && env != SimdTier::Fast);
                let mut one_thread = vec![f32::NAN; n * classes];
                model.infer_into_with(x.data(), n, &mut one_thread, &mut ws, 1, tier);
                if same_arithmetic {
                    prop_assert!(
                        bits(&one_thread) == bits(tape_logits.data()),
                        "tier {tier:?} n={n} vs tape"
                    );
                }
                let mut eight_threads = vec![f32::NAN; n * classes];
                model.infer_into_with(x.data(), n, &mut eight_threads, &mut ws, 8, tier);
                prop_assert!(
                    bits(&eight_threads) == bits(&one_thread),
                    "tier {tier:?} n={n}: 8 threads vs 1"
                );

                // A row does not see its batch-mates.
                let mut row = vec![f32::NAN; classes];
                for i in 0..n {
                    let xi = &x.data()[i * input_dim..(i + 1) * input_dim];
                    model.infer_into_with(xi, 1, &mut row, &mut ws, 1, tier);
                    prop_assert!(
                        bits(&row) == bits(&one_thread[i * classes..(i + 1) * classes]),
                        "tier {tier:?} n={n}: row {i} batched vs alone"
                    );
                }
            }
        }
    }
}

#[test]
fn empty_batch_yields_empty_logits() {
    let mut model = perturbed_model(ModelArch::tiny(6, 3), 1);
    let x = Tensor::zeros(&[0, 6]);
    assert_eq!(model.logits(&x, Mode::Eval).dims(), &[0, 3]);
    assert_eq!(model.features(&x).dims(), &[0, 16]);
}

#[test]
fn eval_forward_leaves_the_model_untouched() {
    // Running statistics move only in Train/Adapt; an eval forward of any
    // batch size is a pure function of the model.
    let mut model = perturbed_model(ModelArch::resnet18_analog(10, 4), 2);
    let mut rng = SmallRng::seed_from_u64(9);
    let probe = Tensor::rand_uniform(&mut rng, &[5, 10], -1.0, 1.0);
    let before = model.logits(&probe, Mode::Eval);
    let big = Tensor::rand_uniform(&mut rng, &[64, 10], -4.0, 4.0);
    let _ = model.logits(&big, Mode::Eval);
    let _ = model.features(&big);
    assert_eq!(before, model.logits(&probe, Mode::Eval));
}
