//! The tape-free TENT step is the tape's step, bit for bit.
//!
//! `TentStep` replaces the recorded BN-only step in every TENT job, so k
//! consecutive steps each way — the tape's `forward(Mode::Adapt)` →
//! `mean_entropy` → `backward` → `collect_grads` → Adam with only the BN
//! affine parameters trainable, against `TentStep::step` → Adam — must
//! leave every BN layer's γ, β, running mean and running variance with the
//! same bits after every step. Models: `tiny` and the three `resnet*`
//! presets, at 3, 8 and 40 classes (so the head has a column tail), over
//! batch sizes around the kernels' register blocks and the benchmark's
//! 160, in every [`SimdTier`] whose kernels the tape's tier equals
//! bitwise (CI runs this file under each `NAZAR_TENSOR_SIMD`). Two more
//! batches check the statistics' edge cases: a channel with zero variance,
//! and statistics that overflow, which the fold must not take in.

use nazar_nn::{mean_entropy, Adam, Layer, MlpResNet, Mode, ModelArch, Optimizer, TentStep};
use nazar_tensor::{simd, SimdTier, Tape, Tensor};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const TIERS: [SimdTier; 3] = [SimdTier::Off, SimdTier::Exact, SimdTier::Fast];

/// Steps each way per case.
const STEPS: usize = 3;

/// Every BN layer's γ, β, running mean and running variance, as bits.
fn bn_bits(model: &mut MlpResNet) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    model.visit_bn(&mut |bn| {
        for t in [
            bn.gamma().value(),
            bn.beta().value(),
            bn.running_mean(),
            bn.running_var(),
        ] {
            out.push(bn_bits_of(t));
        }
    });
    out
}

/// `model` in the TENT configuration: BN affine parameters trainable,
/// everything else frozen.
fn tent_frozen(mut model: MlpResNet) -> MlpResNet {
    model.set_all_trainable(false);
    model.set_bn_affine_trainable(true);
    model
}

/// Whether `tier`'s matmul kernels are bitwise the env tier's, which the
/// tape runs: `off` and `exact` are one class, `fast` another.
fn same_kernels_as_the_tape(tier: SimdTier) -> bool {
    let fused = |t: SimdTier| simd::effective(t) == SimdTier::Fast;
    fused(tier) == fused(simd::env_tier())
}

/// Runs `STEPS` steps on `x` both ways from `model` in every tier the
/// tape can be compared with, asserting equal BN state after each.
fn assert_steps_equal(model: &MlpResNet, x: &Tensor, what: &str) {
    let n = x.nrows().unwrap();
    for tier in TIERS.into_iter().filter(|&t| same_kernels_as_the_tape(t)) {
        let mut tape_model = tent_frozen(model.clone());
        let mut step_model = tent_frozen(model.clone());
        let (mut tape_opt, mut step_opt) = (Adam::new(1e-2), Adam::new(1e-2));
        let mut state = TentStep::new();
        state.prepare_with(&step_model, tier);
        for step in 0..STEPS {
            let tape = Tape::new();
            let xv = tape.constant(x);
            let logits = tape_model.forward(&tape, &xv, Mode::Adapt);
            let grads = mean_entropy(&logits).backward();
            tape_model.collect_grads(&grads);
            tape_opt.step(&mut tape_model);
            tape_model.zero_grads();

            state.step(&mut step_model, x.data(), n);
            step_opt.step(&mut step_model);
            step_model.zero_grads();

            assert!(
                bn_bits(&mut step_model) == bn_bits(&mut tape_model),
                "{what}: tier {tier:?}, step {step}: BN state differs from the tape's"
            );
        }
    }
}

#[test]
fn the_step_is_the_tape_step_bitwise_across_models_classes_and_batches() {
    let presets: [fn(usize, usize) -> ModelArch; 4] = [
        ModelArch::tiny,
        ModelArch::resnet18_analog,
        ModelArch::resnet34_analog,
        ModelArch::resnet50_analog,
    ];
    let mut rng = SmallRng::seed_from_u64(41);
    for preset in presets {
        for classes in [3, 8, 40] {
            let arch = preset(24, classes);
            let name = arch.name.clone();
            let model = MlpResNet::new(arch, &mut rng);
            for n in [2, 3, 4, 5, 33, 63, 64, 65, 160] {
                let x = Tensor::randn(&mut rng, &[n, 24], 0.3, 1.5);
                assert_steps_equal(&model, &x, &format!("{name} c{classes} n{n}"));
            }
        }
    }
}

#[test]
fn a_zero_variance_channel_and_overflowing_statistics_step_as_the_tape_does() {
    let mut rng = SmallRng::seed_from_u64(43);
    let mut model = MlpResNet::new(ModelArch::resnet34_analog(16, 40), &mut rng);
    // Stem output channel 5 reads no input and has zero bias: it is 0 in
    // every row, so its batch variance is exactly zero.
    let mut first = true;
    model.visit_params(&mut |p| {
        if std::mem::take(&mut first) {
            let m = p.value().dims()[1];
            for row in p.value_mut().data_mut().chunks_exact_mut(m) {
                row[5] = 0.0;
            }
        }
    });
    let x = Tensor::randn(&mut rng, &[64, 16], 0.0, 1.0);
    assert_steps_equal(&model, &x, "zero-variance channel");

    // Inputs near 1e25 overflow every stem channel's variance (the centered
    // squares pass f32::MAX) while the means stay finite; near f32::MAX
    // the means overflow too.
    let model = MlpResNet::new(ModelArch::resnet34_analog(16, 40), &mut rng);
    for scale in [1e25f32, 3e38] {
        let x = Tensor::randn(&mut rng, &[33, 16], 0.0, 1.0).map(|v| v * scale);
        assert_steps_equal(&model, &x, &format!("overflow at {scale:e}"));
        // The fold keeps the running variance of every overflowed channel.
        let mut stepped = tent_frozen(model.clone());
        let before = stem_running_var(&mut stepped);
        let mut state = TentStep::new();
        state.prepare(&stepped);
        state.step(&mut stepped, x.data(), 33);
        assert_eq!(
            stem_running_var(&mut stepped),
            before,
            "overflow at {scale:e}: the stem BN took in a non-finite variance"
        );
    }
}

/// The stem BN layer's running variance, as bits.
fn stem_running_var(model: &mut MlpResNet) -> Vec<u32> {
    let mut out = None;
    model.visit_bn(&mut |bn| {
        out.get_or_insert_with(|| bn_bits_of(bn.running_var()));
    });
    out.expect("a stem BN layer")
}

fn bn_bits_of(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
#[should_panic(expected = "not prepared for")]
fn a_step_on_a_model_of_another_shape_panics() {
    let mut rng = SmallRng::seed_from_u64(47);
    let model = MlpResNet::new(ModelArch::tiny(8, 3), &mut rng);
    let mut other = MlpResNet::new(ModelArch::tiny(8, 5), &mut rng);
    let mut state = TentStep::new();
    state.prepare(&model);
    state.step(&mut other, &[0.5; 16], 2);
}
