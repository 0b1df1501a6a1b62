//! Core layers: `Linear`, `BatchNorm1d`, and the `Layer` trait.

use crate::init::Init;
use crate::param::Param;
use nazar_tensor::{kernels, Gradients, SimdTier, Tape, Tensor, Var, Workspace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Forward-pass mode.
///
/// The distinction matters only for [`BatchNorm1d`]:
///
/// * `Train` — normalize with batch statistics and update running statistics.
/// * `Eval`  — normalize with the stored running statistics.
/// * `Adapt` — TENT-style test-time adaptation: normalize with the *test*
///   batch's statistics (and fold them into the running statistics so the
///   adapted state can be exported as a [`crate::BnPatch`]). Gradients flow
///   only to parameters left trainable by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Training with batch statistics and running-stat updates.
    Train,
    /// Inference with frozen running statistics.
    Eval,
    /// Test-time adaptation (batch statistics, running-stat updates).
    Adapt,
}

/// A neural-network layer that can run forward passes and expose parameters.
pub trait Layer {
    /// Runs the layer on `x`, recording operations on `tape`.
    fn forward(&mut self, tape: &Tape, x: &Var, mode: Mode) -> Var;

    /// Visits every parameter (trainable or not) exactly once.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Copies gradients for all parameters from a completed backward pass.
    fn collect_grads(&mut self, grads: &Gradients) {
        self.visit_params(&mut |p| p.collect_grad(grads));
    }

    /// Clears all accumulated gradients.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of scalar weights.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// A fully connected layer: `y = x W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    weight: Param,
    bias: Param,
}

impl Linear {
    /// Creates a `[fan_in] -> [fan_out]` layer with the given initializer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize, init: Init) -> Self {
        Linear {
            weight: Param::new(init.sample(rng, fan_in, fan_out)),
            bias: Param::new(Tensor::zeros(&[fan_out])),
        }
    }

    /// The weight matrix parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// The bias vector parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.weight.value().dims()[0]
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.weight.value().dims()[1]
    }

    /// The weight and the bias, mutably (the tape-free step sets their
    /// gradients).
    pub(crate) fn params_mut(&mut self) -> (&mut Param, &mut Param) {
        (&mut self.weight, &mut self.bias)
    }

    /// Tape-free `out = x W + b` for row-major `x: [n, fan_in]`, the same
    /// matmul kernel and the same `+ b` as [`Layer::forward`] records.
    /// `threads == 0` leaves the worker count to the kernel's own policy.
    pub(crate) fn eval_into(
        &self,
        x: &[f32],
        n: usize,
        out: &mut [f32],
        ws: &mut Workspace,
        threads: usize,
        tier: SimdTier,
    ) {
        let (k, m) = (self.fan_in(), self.fan_out());
        let threads = match threads {
            0 => kernels::auto_threads(n, k, m),
            t => t,
        };
        let w = self.weight.value().data();
        kernels::matmul_into_tier(x, w, n, k, m, out, ws, threads, tier);
        for row in out.chunks_exact_mut(m) {
            kernels::add_assign(row, self.bias.value().data());
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, tape: &Tape, x: &Var, _mode: Mode) -> Var {
        let w = self.weight.bind(tape);
        let b = self.bias.bind(tape);
        x.matmul(&w).add_row(&b)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

/// One-dimensional batch normalization over the feature axis.
///
/// Maintains running mean/variance with exponential momentum and learns an
/// affine transform (γ, β). This layer is the unit of adaptation in Nazar:
/// TENT updates only γ/β plus the statistics, and [`crate::BnPatch`]
/// serializes exactly this state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
}

impl BatchNorm1d {
    /// Creates a BN layer over `width` features (γ=1, β=0, stats at N(0,1)).
    pub fn new(width: usize) -> Self {
        BatchNorm1d {
            gamma: Param::new(Tensor::ones(&[width])),
            beta: Param::new(Tensor::zeros(&[width])),
            running_mean: Tensor::zeros(&[width]),
            running_var: Tensor::ones(&[width]),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        self.gamma.value().len()
    }

    /// The affine scale parameter γ.
    pub fn gamma(&self) -> &Param {
        &self.gamma
    }

    /// Mutable γ (used when applying BN patches).
    pub fn gamma_mut(&mut self) -> &mut Param {
        &mut self.gamma
    }

    /// The affine shift parameter β.
    pub fn beta(&self) -> &Param {
        &self.beta
    }

    /// Mutable β (used when applying BN patches).
    pub fn beta_mut(&mut self) -> &mut Param {
        &mut self.beta
    }

    /// Running mean estimate.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance estimate.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// The running mean and variance, to overwrite in place (used when
    /// applying BN patches).
    pub fn running_stats_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.running_mean, &mut self.running_var)
    }

    /// Marks only the affine parameters (γ, β) trainable or frozen.
    pub fn set_affine_trainable(&mut self, trainable: bool) {
        self.gamma.set_trainable(trainable);
        self.beta.set_trainable(trainable);
    }

    /// Tape-free batch-statistic forward of row-major `x: [n, width]`
    /// into `y`, the [`Mode::Adapt`] / [`Mode::Train`] arithmetic of
    /// [`Layer::forward`] without a tape: the same kernel, then the same
    /// fold of the batch statistics into the running ones. `stats` is
    /// `2 * width` floats: the batch mean, then `sqrt(var + eps)`, which
    /// the backward reads; `var` is `width` floats of scratch.
    pub(crate) fn batch_forward_into(
        &mut self,
        x: &[f32],
        n: usize,
        y: &mut [f32],
        stats: &mut [f32],
        var: &mut [f32],
    ) {
        let d = self.width();
        let (mean, std) = stats.split_at_mut(d);
        kernels::batch_norm_into(
            x,
            n,
            d,
            self.gamma.value().data(),
            self.beta.value().data(),
            self.eps,
            kernels::BnStats {
                mean: &mut *mean,
                std,
                var: &mut *var,
            },
            y,
        );
        self.fold_batch_stats(mean, var);
    }

    /// Folds observed batch statistics into the running estimates, in
    /// place: `r = r * (1 - m) + batch * m` per feature. A channel whose
    /// batch statistic is non-finite (a poisoned batch) keeps its previous
    /// running value — one bad batch must not poison the layer's state
    /// permanently (DESIGN.md §9). A zero-variance channel is fine: eps
    /// keeps the normalization bounded.
    fn fold_batch_stats(&mut self, mean: &[f32], var: &[f32]) {
        let m = self.momentum;
        let fold = |r: f32, b: f32| {
            if b.is_finite() {
                r * (1.0 - m) + b * m
            } else {
                r
            }
        };
        let d = self.width();
        assert!(
            mean.len() == d && var.len() == d && self.running_mean.len() == d,
            "bn running statistics width drifted"
        );
        kernels::zip_assign(self.running_mean.data_mut(), mean, fold);
        kernels::zip_assign(self.running_var.data_mut(), var, fold);
    }

    /// Tape-free eval-mode transform of row-major `x: [n, width]` into
    /// `out`: `(x - mean) / sqrt(var + eps) * γ + β` on the running
    /// statistics, in the order [`Layer::forward`] records it. `std` is
    /// `width` floats of scratch.
    pub(crate) fn eval_into(&self, x: &[f32], out: &mut [f32], std: &mut [f32], tier: SimdTier) {
        let eps = self.eps;
        kernels::map_into(self.running_var.data(), std, |v| (v + eps).sqrt());
        kernels::bn_eval_into(
            x,
            self.width(),
            self.running_mean.data(),
            std,
            self.gamma.value().data(),
            self.beta.value().data(),
            out,
            tier,
        );
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, tape: &Tape, x: &Var, mode: Mode) -> Var {
        let gamma = self.gamma.bind(tape);
        let beta = self.beta.bind(tape);
        if mode == Mode::Eval {
            // Eval: constants, no gradient path through the statistics.
            let mean = tape.constant(&self.running_mean);
            let std = tape.constant(self.running_var.add_scalar(self.eps).map(f32::sqrt));
            let x_hat = x.sub_row(&mean).div_row(&std);
            return x_hat.mul_row(&gamma).add_row(&beta);
        }
        let (y, mean, var) = x.batch_norm(&gamma, &beta, self.eps);
        self.fold_batch_stats(mean.data(), var.data());
        y
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_matches_manual() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut lin = Linear::new(&mut rng, 3, 2, Init::KaimingNormal);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let y = lin.forward(&tape, &xv, Mode::Eval).value();
        let expected = x
            .matmul(lin.weight().value())
            .unwrap()
            .add_row(lin.bias().value())
            .unwrap();
        assert!(y.approx_eq(&expected, 1e-6));
    }

    #[test]
    fn batchnorm_train_normalizes_batch() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 20.0, 5.0, 30.0], &[3, 2]).unwrap();
        let tape = Tape::new();
        let xv = tape.leaf(x);
        let y = bn.forward(&tape, &xv, Mode::Train).value();
        let mean = y.mean_axis0().unwrap();
        let var = y.var_axis0().unwrap();
        assert!(mean.approx_eq(&Tensor::zeros(&[2]), 1e-4), "mean {mean}");
        assert!(var.approx_eq(&Tensor::ones(&[2]), 1e-2), "var {var}");
    }

    #[test]
    fn batchnorm_updates_running_stats_in_train_and_adapt_only() {
        for (mode, expect_update) in [
            (Mode::Train, true),
            (Mode::Adapt, true),
            (Mode::Eval, false),
        ] {
            let mut bn = BatchNorm1d::new(1);
            let before = bn.running_mean().clone();
            let x = Tensor::from_vec(vec![5.0, 7.0], &[2, 1]).unwrap();
            let tape = Tape::new();
            let xv = tape.leaf(x);
            let _ = bn.forward(&tape, &xv, mode);
            let changed = !bn.running_mean().approx_eq(&before, 1e-9);
            assert_eq!(changed, expect_update, "mode {mode:?}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let (mean, var) = bn.running_stats_mut();
        *mean = Tensor::from_vec(vec![4.0], &[1]).unwrap();
        *var = Tensor::from_vec(vec![9.0], &[1]).unwrap();
        let x = Tensor::from_vec(vec![7.0], &[1, 1]).unwrap();
        let tape = Tape::new();
        let xv = tape.leaf(x);
        let y = bn.forward(&tape, &xv, Mode::Eval).value();
        // (7 - 4) / 3 = 1
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_affine_freeze_controls_gradients() {
        let mut bn = BatchNorm1d::new(2);
        bn.set_affine_trainable(false);
        let tape = Tape::new();
        let xv = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let y = bn.forward(&tape, &xv, Mode::Adapt);
        let grads = y.mul(&y).sum_all().backward();
        bn.collect_grads(&grads);
        assert!(bn.gamma().grad().is_none());
        assert!(bn.beta().grad().is_none());

        bn.set_affine_trainable(true);
        let tape = Tape::new();
        let xv = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let y = bn.forward(&tape, &xv, Mode::Adapt);
        let grads = y.mul(&y).sum_all().backward();
        bn.collect_grads(&grads);
        assert!(bn.gamma().grad().is_some());
    }

    #[test]
    fn batchnorm_running_stats_survive_poisoned_batches() {
        // Regression (satellite 2): a NaN batch used to poison the running
        // statistics permanently; poisoned channels now keep their previous
        // running values.
        let mut bn = BatchNorm1d::new(2);
        let clean_mean = bn.running_mean().clone();
        let clean_var = bn.running_var().clone();
        let x = Tensor::from_vec(vec![f32::NAN, 1.0, f32::NAN, 3.0], &[2, 2]).unwrap();
        let tape = Tape::new();
        let xv = tape.leaf(x);
        let _ = bn.forward(&tape, &xv, Mode::Adapt);
        // Channel 0 (poisoned) unchanged; channel 1 updated and finite.
        assert_eq!(bn.running_mean().data()[0], clean_mean.data()[0]);
        assert_eq!(bn.running_var().data()[0], clean_var.data()[0]);
        assert!(bn.running_mean().data()[1] != clean_mean.data()[1]);
        assert!(bn.running_mean().data().iter().all(|v| v.is_finite()));
        assert!(bn.running_var().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batchnorm_zero_variance_channel_stays_finite() {
        // A constant channel has zero batch variance; eps must keep the
        // normalized output and the running stats finite.
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(vec![2.0, 2.0, 2.0], &[3, 1]).unwrap();
        let tape = Tape::new();
        let xv = tape.leaf(x);
        let y = bn.forward(&tape, &xv, Mode::Train).value();
        assert!(y.data().iter().all(|v| v.is_finite()), "{y}");
        assert!(bn.running_var().data()[0].is_finite());
    }

    #[test]
    fn layer_num_params_counts_weights_and_biases() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut lin = Linear::new(&mut rng, 4, 3, Init::KaimingNormal);
        assert_eq!(lin.num_params(), 4 * 3 + 3);
        let mut bn = BatchNorm1d::new(5);
        assert_eq!(bn.num_params(), 10);
    }
}
