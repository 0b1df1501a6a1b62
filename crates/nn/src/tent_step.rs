//! TENT's BN-only step and the training step, without a tape.
//!
//! [`TentStep`] runs one step of either objective over the out-parameter
//! kernels, the way [`MlpResNet::infer_into`] runs the eval forward:
//!
//! * **BN-only mean entropy** ([`TentStep::step`]), TENT. Each step of a
//!   job runs the same frozen `Linear` weights, so [`TentStep::prepare`]
//!   packs them once per job — each weight's forward panels and, above the
//!   stem, the panels of its transpose for the input gradient. The step is
//!   bitwise the tape's `forward(Mode::Adapt)` →
//!   [`mean_entropy`](crate::mean_entropy) → `backward` → `collect_grads`
//!   with only the BN affine parameters trainable.
//! * **Full-parameter cross-entropy** ([`TentStep::train_step`]), one
//!   batch of [`train_epoch`](crate::train::train_epoch). The weights change
//!   every step, so it packs them every step, as the tape's products do.
//!   It is bitwise the tape's `forward(Mode::Train)` →
//!   [`cross_entropy`](crate::cross_entropy) → `backward` →
//!   `collect_grads`.
//!
//! Both run the same kernels as the tape, in the same order. The
//! batch-norm forward, its backward and the fold into the running
//! statistics are the functions the tape node and [`BatchNorm1d`] call.

use crate::layers::{BatchNorm1d, Layer, Linear};
use crate::model::{MlpResNet, ResidualBlock};
use crate::param::Param;
use nazar_tensor::kernels::{self, PackedB};
use nazar_tensor::{simd, SimdTier, Tensor, Workspace};

/// Scratch, batch statistics and packed weights for the tape-free
/// BN-only TENT step and training step.
///
/// [`TentStep::prepare`] packs a model's frozen `Linear` weights;
/// [`TentStep::step`] then runs one TENT step on a batch.
/// [`TentStep::train_step`] packs the weights itself and runs one
/// cross-entropy step. The buffers grow to the largest batch stepped and
/// are reused, so a state kept across jobs allocates nothing after its
/// first, and packing again reuses the panels.
#[derive(Debug, Default)]
pub struct TentStep {
    /// The forward panels of each `Linear`: the stem, each block's two,
    /// then the head.
    forward: Vec<PackedB>,
    /// The panels of each `Wᵀ` above the stem, in the same order.
    backward: Vec<PackedB>,
    /// Per BN layer (the stem's, then each block's two): its input.
    bn_in: Vec<Vec<f32>>,
    /// Per BN layer: the output of the ReLU after it (after the skip add
    /// for a block's second). The stem's is block 0's input, and a
    /// block's second is the next block's (or the head's) input.
    relu_out: Vec<Vec<f32>>,
    /// Per BN layer: the batch mean, then `sqrt(var + eps)`.
    stats: Vec<Vec<f32>>,
    /// One BN layer's batch variance.
    var: Vec<f32>,
    /// The logits, then their log-softmax.
    lp: Vec<f32>,
    /// `exp` of the log-softmax.
    p: Vec<f32>,
    /// Gradient buffers, `[n, hidden]` (the third also `[n, classes]`).
    grads: [Vec<f32>; 3],
    /// The BN input gradient's `2 * hidden` floats of scratch.
    bn_scratch: Vec<f32>,
    /// The tier the last packing ran for; the weight gradients run it.
    tier: SimdTier,
    /// Gradient tensors [`TentStep::reclaim_grads`] took back from a
    /// model, for the next step to zero and set again.
    spare_grads: Vec<Tensor>,
    ws: Workspace,
}

/// What a step differentiates.
#[derive(Clone, Copy)]
enum Loss<'a> {
    /// TENT's mean prediction entropy, for the BN affine parameters only.
    Entropy,
    /// Cross-entropy against these targets, one per row, for every
    /// parameter.
    CrossEntropy(&'a [usize]),
}

impl TentStep {
    /// An empty state; [`TentStep::prepare`] it before a step.
    pub fn new() -> Self {
        TentStep::default()
    }

    /// Packs `model`'s `Linear` weights for the steps of one job, for the
    /// kernel tier the tape runs (`NAZAR_TENSOR_SIMD`).
    pub fn prepare(&mut self, model: &MlpResNet) {
        self.prepare_with(model, simd::env_tier());
    }

    /// [`TentStep::prepare`] for an explicit [`SimdTier`] — the hook the
    /// equivalence tests sweep within one process. The steps run in that
    /// tier.
    pub fn prepare_with(&mut self, model: &MlpResNet, tier: SimdTier) {
        self.tier = tier;
        let linears = linears(model);
        self.forward.resize_with(linears.len(), PackedB::new);
        for (packed, lin) in self.forward.iter_mut().zip(&linears) {
            packed.pack(weight(lin), lin.fan_in(), lin.fan_out(), tier);
        }
        self.backward.resize_with(linears.len() - 1, PackedB::new);
        for (packed, lin) in self.backward.iter_mut().zip(&linears[1..]) {
            packed.pack_transposed(weight(lin), lin.fan_out(), lin.fan_in(), tier);
        }
    }

    /// One BN-only TENT step on the `n` rows of `x: [n, input_dim]`: the
    /// [`Mode::Adapt`](crate::Mode::Adapt) forward, which folds each BN
    /// layer's batch statistics into its running ones, then the gradient of
    /// the mean prediction entropy with respect to every BN γ and β, set as
    /// that parameter's gradient. An optimizer step applies them.
    ///
    /// The `Linear` weights are the ones the last
    /// [`TentStep::prepare`] packed: TENT never changes them, and a caller
    /// that does must prepare again.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, `x` is not `n * input_dim` long, or `model`
    /// does not have the shape of the prepared one.
    pub fn step(&mut self, model: &mut MlpResNet, x: &[f32], n: usize) {
        assert!(n > 0, "a TENT step needs a non-empty batch");
        self.size_for(model, x, n);
        self.forward_pass(model, x, n);
        self.backward_pass(model, x, n, Loss::Entropy);
    }

    /// One step of [`train_epoch`](crate::train::train_epoch) on the batch
    /// `x: [n, input_dim]` with one target class per row: packs the
    /// model's current weights, runs the
    /// [`Mode::Train`](crate::Mode::Train) forward, which folds each BN
    /// layer's batch statistics into its running ones, then the gradient
    /// of the mean cross-entropy with respect to every parameter, set as
    /// the gradient of each trainable one. Returns the mean loss. An
    /// optimizer step applies the gradients.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty, `x` is not `targets.len() *
    /// input_dim` long, or a target is not a class of `model`.
    pub fn train_step(&mut self, model: &mut MlpResNet, x: &[f32], targets: &[usize]) -> f32 {
        let n = targets.len();
        let classes = model.arch().num_classes;
        assert!(n > 0, "a training step needs a non-empty batch");
        assert!(
            targets.iter().all(|&t| t < classes),
            "a training target is out of range for {classes} classes"
        );
        self.prepare_with(model, simd::env_tier());
        self.size_for(model, x, n);
        self.forward_pass(model, x, n);
        // The `nll_loss` node's value, from the log-softmax.
        let mut loss = 0.0;
        for (lp_row, &t) in self.lp.chunks_exact(classes).zip(targets) {
            loss -= lp_row[t];
        }
        self.backward_pass(model, x, n, Loss::CrossEntropy(targets));
        loss / n as f32
    }

    /// Takes every gradient out of `model`, as
    /// [`Layer::zero_grads`](crate::Layer::zero_grads) clears them, and
    /// keeps the tensors for the next step's gradients, so a training loop
    /// allocates none after its first step.
    pub(crate) fn reclaim_grads(&mut self, model: &mut MlpResNet) {
        let spare = &mut self.spare_grads;
        model.visit_params(&mut |p| spare.extend(p.take_grad()));
    }

    /// Checks `x` and the packed shapes against `model`, and sizes the
    /// buffers for `n` rows.
    fn size_for(&mut self, model: &MlpResNet, x: &[f32], n: usize) {
        let arch = model.arch();
        let (width, classes, blocks) = (arch.hidden, arch.num_classes, arch.blocks);
        assert_eq!(x.len(), n * arch.input_dim, "step input length");
        let linears = linears(model);
        assert!(
            self.forward.len() == linears.len()
                && self
                    .forward
                    .iter()
                    .zip(&linears)
                    .all(|(packed, lin)| { packed.dims() == (lin.fan_in(), lin.fan_out()) }),
            "TENT step on a model it was not prepared for"
        );
        let layers = 1 + 2 * blocks;
        let act = n * width;
        for bufs in [&mut self.bn_in, &mut self.relu_out] {
            bufs.resize_with(layers, Vec::new);
            for buf in bufs.iter_mut() {
                buf.resize(act, 0.0);
            }
        }
        self.stats.resize_with(layers, Vec::new);
        for buf in &mut self.stats {
            buf.resize(2 * width, 0.0);
        }
        for buf in &mut self.grads {
            buf.resize(act.max(n * classes), 0.0);
        }
        self.var.resize(width, 0.0);
        self.bn_scratch.resize(2 * width, 0.0);
        self.lp.resize(n * classes, 0.0);
        self.p.resize(n * classes, 0.0);
    }

    /// The batch-statistic forward ([`Mode::Adapt`](crate::Mode::Adapt)
    /// and [`Mode::Train`](crate::Mode::Train) are one arithmetic) through
    /// the logits' `exp(log_softmax)`.
    fn forward_pass(&mut self, model: &mut MlpResNet, x: &[f32], n: usize) {
        let (linears, mut bns) = layers(model);
        let blocks = (linears.len() - 2) / 2;
        linear(&self.forward[0], linears[0], x, n, &mut self.bn_in[0]);
        bns[0].batch_forward_into(
            &self.bn_in[0],
            n,
            &mut self.relu_out[0],
            &mut self.stats[0],
            &mut self.var,
        );
        kernels::map_assign(&mut self.relu_out[0], relu);
        for j in 0..blocks {
            let (l1, l2) = (1 + 2 * j, 2 + 2 * j);
            let (done, rest) = self.relu_out.split_at_mut(l1);
            let (mid, out) = rest.split_at_mut(1);
            let (input, mid, out) = (&done[2 * j], &mut mid[0], &mut out[0]);
            linear(
                &self.forward[l1],
                linears[l1],
                input,
                n,
                &mut self.bn_in[l1],
            );
            bns[l1].batch_forward_into(&self.bn_in[l1], n, mid, &mut self.stats[l1], &mut self.var);
            kernels::map_assign(mid, relu);
            linear(&self.forward[l2], linears[l2], mid, n, &mut self.bn_in[l2]);
            bns[l2].batch_forward_into(&self.bn_in[l2], n, out, &mut self.stats[l2], &mut self.var);
            kernels::zip_assign(out, input, |y, skip| relu(y + skip));
        }
        let features = &self.relu_out[2 * blocks];
        let head = &*linears[linears.len() - 1];
        linear(
            &self.forward[2 * blocks + 1],
            head,
            features,
            n,
            &mut self.lp,
        );
        let classes = head.fan_out();
        for (lp_row, p_row) in self
            .lp
            .chunks_exact_mut(classes)
            .zip(self.p.chunks_exact_mut(classes))
        {
            // `log_softmax`, then `exp`, as the tape's nodes compute them.
            let lse = kernels::log_sum_exp(lp_row, 1.0);
            for (lp, p) in lp_row.iter_mut().zip(p_row) {
                *lp -= lse;
                *p = lp.exp();
            }
        }
    }

    /// The backward of `loss` from the logits: `dX` through every
    /// `Linear` above the stem, the ReLUs, the skip adds and the BN
    /// layers. Sets each BN γ and β gradient, and for cross-entropy each
    /// `Linear`'s weight and bias gradients too, which need the stem BN's
    /// input gradient. The stem gets no `dX`: its input `x` is a constant.
    fn backward_pass(&mut self, model: &mut MlpResNet, x: &[f32], n: usize, loss: Loss<'_>) {
        let classes = model.arch().num_classes;
        let width = model.arch().hidden;
        let blocks = model.arch().blocks;
        let tier = self.tier;
        let spare = &mut self.spare_grads;
        let (mut lins, mut bns) = layers(model);
        let full = matches!(loss, Loss::CrossEntropy(_));
        let [ga, gb, gc] = &mut self.grads;
        let (ga, gb, gc) = (&mut ga[..n * width], &mut gb[..n * width], gc);

        let g_logits = &mut gc[..n * classes];
        match loss {
            // `scale(-1/n)` ← `sum_all` ← `mul(p, lp)` ← `exp` ←
            // `log_softmax`, each into the slot the tape zeroes: `p` is
            // the forward's `exp(lp)`, which the tape's log-softmax rule
            // recomputes.
            Loss::Entropy => {
                let c = -1.0 / n as f32;
                let g_sum = 0.0 + c * 1.0;
                let g_pm = 0.0 + g_sum;
                for ((grow, lp_row), p_row) in g_logits
                    .chunks_exact_mut(classes)
                    .zip(self.lp.chunks_exact(classes))
                    .zip(self.p.chunks_exact(classes))
                {
                    for ((g, &lp), &p) in grow.iter_mut().zip(lp_row).zip(p_row) {
                        let g_p = 0.0 + g_pm * lp;
                        *g = (0.0 + g_pm * p) + g_p * p;
                    }
                    log_softmax_backward(grow, p_row);
                }
            }
            // `nll_loss` ← `log_softmax`: the loss rule adds `-1/n` at
            // each row's target into a zeroed slot.
            Loss::CrossEntropy(targets) => {
                let coef = -1.0 / n as f32;
                for ((grow, p_row), &t) in g_logits
                    .chunks_exact_mut(classes)
                    .zip(self.p.chunks_exact(classes))
                    .zip(targets)
                {
                    grow.fill(0.0);
                    grow[t] += coef;
                    log_softmax_backward(grow, p_row);
                }
            }
        }
        let head = 2 * blocks + 1;
        if full {
            linear_backward(
                lins[head],
                &self.relu_out[2 * blocks],
                g_logits,
                n,
                tier,
                spare,
            );
        }
        // The head's `add_row` passes the gradient on as it is; its
        // matmul's dX enters a zeroed slot, and the ReLU below adds it to
        // another.
        self.backward[2 * blocks].matmul_into(
            g_logits,
            n,
            ga,
            kernels::auto_threads(n, classes, width),
        );
        relu_backward(ga, &self.relu_out[2 * blocks]);
        let gc = &mut gc[..n * width];
        for j in (0..blocks).rev() {
            let (l1, l2) = (1 + 2 * j, 2 + 2 * j);
            // `ga` is the gradient at the skip add: `bn2`'s output and the
            // block input each take a copy, so `ga` serves as both until
            // lin1's dX is added into the block input's.
            bn_backward(
                bns[l2],
                ga,
                &self.bn_in[l2],
                &self.stats[l2],
                Some(gb),
                &mut self.bn_scratch,
                spare,
            );
            if full {
                linear_backward(lins[l2], &self.relu_out[l1], gb, n, tier, spare);
            }
            self.backward[l2 - 1].matmul_into(gb, n, gc, kernels::auto_threads(n, width, width));
            relu_backward(gc, &self.relu_out[l1]);
            bn_backward(
                bns[l1],
                gc,
                &self.bn_in[l1],
                &self.stats[l1],
                Some(gb),
                &mut self.bn_scratch,
                spare,
            );
            if full {
                linear_backward(lins[l1], &self.relu_out[2 * j], gb, n, tier, spare);
            }
            let threads = kernels::auto_threads(n, width, width);
            self.backward[l1 - 1].matmul_add_into(gb, n, ga, &mut self.ws, threads);
            relu_backward(ga, &self.relu_out[2 * j]);
        }
        bn_backward(
            bns[0],
            ga,
            &self.bn_in[0],
            &self.stats[0],
            full.then_some(&mut *gb),
            &mut self.bn_scratch,
            spare,
        );
        if full {
            linear_backward(lins[0], x, gb, n, tier, spare);
        }
    }
}

/// The log-softmax rule in place: `g` holds one row's gradient at the
/// log-probabilities and gets the row's at the logits, `g - p · Σ g` with
/// `p = exp(lp)`. The tape adds that into a zeroed slot, which changes no
/// bit: `g` is never `-0.0` (both losses start it from `+0`), so neither
/// is the difference.
fn log_softmax_backward(g: &mut [f32], p: &[f32]) {
    let s: f32 = g.iter().sum();
    for (gv, &pv) in g.iter_mut().zip(p) {
        *gv -= pv * s;
    }
}

/// A `Linear`'s weight and bias gradients for the gradient `g: [n,
/// fan_out]` at its output and its input `x: [n, fan_in]`, as the tape's
/// matmul and `add_row` rules compute them: `xᵀ · g` and the column sums
/// of `g`, each into a zeroed tensor. Set only on a trainable parameter.
fn linear_backward(
    lin: &mut Linear,
    x: &[f32],
    g: &[f32],
    n: usize,
    tier: SimdTier,
    spare: &mut Vec<Tensor>,
) {
    let (k, m) = (lin.fan_in(), lin.fan_out());
    let mut g_weight = zeros(spare, &[k, m]);
    kernels::matmul_at_b_into_tier(x, g, n, k, m, g_weight.data_mut(), tier);
    let mut g_bias = zeros(spare, &[m]);
    kernels::sum_axis0_assign(g, n, m, g_bias.data_mut());
    let (weight, bias) = lin.params_mut();
    set_grad(weight, g_weight);
    set_grad(bias, g_bias);
}

/// A zeroed tensor of `dims`: a spare one of that shape, or a new one.
fn zeros(spare: &mut Vec<Tensor>, dims: &[usize]) -> Tensor {
    match spare.iter().rposition(|t| t.dims() == dims) {
        Some(at) => {
            let mut t = spare.swap_remove(at);
            t.data_mut().fill(0.0);
            t
        }
        None => Tensor::zeros(dims),
    }
}

/// Sets `grad` on `param` if it is trainable, as `collect_grads` would.
fn set_grad(param: &mut Param, grad: Tensor) {
    if param.trainable() {
        param.set_grad(grad);
    }
}

/// `out = x · W + b` over `lin`'s packed forward panels.
fn linear(packed: &PackedB, lin: &Linear, x: &[f32], n: usize, out: &mut [f32]) {
    let (k, m) = packed.dims();
    packed.matmul_into(x, n, &mut out[..n * m], kernels::auto_threads(n, k, m));
    for row in out[..n * m].chunks_exact_mut(m) {
        kernels::add_assign(row, lin.bias().value().data());
    }
}

/// The ReLU's backward in place: `g` where the ReLU passed its input
/// (`out > 0` exactly when the input was), `0` elsewhere. The tape adds
/// `g` into a zeroed slot, which changes no bit: every gradient reaching
/// a ReLU is a matrix product summed from `+0`, or such a sum added to
/// another, so never `-0.0`.
fn relu_backward(g: &mut [f32], out: &[f32]) {
    for (gv, &y) in g.iter_mut().zip(out) {
        *gv = if y > 0.0 { *gv } else { 0.0 };
    }
}

/// The batch-statistic BN node's backward for the output gradient `g`:
/// β's and γ's gradients, each summed into a zeroed tensor and set on the
/// parameter, and, when asked, `∂/∂x` written into `gx`.
#[allow(clippy::too_many_arguments)]
fn bn_backward(
    bn: &mut BatchNorm1d,
    g: &[f32],
    x: &[f32],
    stats: &[f32],
    gx: Option<&mut [f32]>,
    scratch: &mut [f32],
    spare: &mut Vec<Tensor>,
) {
    let d = bn.width();
    let (mean, std) = stats.split_at(d);
    let mut g_beta = zeros(spare, &[d]);
    kernels::sum_axis0_assign(g, x.len() / d, d, g_beta.data_mut());
    let mut g_gamma = zeros(spare, &[d]);
    kernels::batch_norm_gamma_grad(g, x, d, mean, std, g_gamma.data_mut());
    if let Some(gx) = gx {
        let gamma = bn.gamma().value().data();
        kernels::batch_norm_input_grad(g, x, d, mean, std, gamma, gx, true, scratch);
    }
    set_grad(bn.beta_mut(), g_beta);
    set_grad(bn.gamma_mut(), g_gamma);
}

fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// A `Linear`'s weight, row-major `[fan_in, fan_out]`.
fn weight(lin: &Linear) -> &[f32] {
    lin.weight().value().data()
}

/// The model's `Linear`s in forward order: the stem, each block's two,
/// the head.
fn linears(model: &MlpResNet) -> Vec<&Linear> {
    let mut out = vec![&model.stem];
    for block in &model.blocks {
        out.extend([&block.lin1, &block.lin2]);
    }
    out.push(&model.head);
    out
}

/// [`linears`], mutably, and the BN layers in forward order, as
/// [`MlpResNet::visit_bn`] visits them.
fn layers(model: &mut MlpResNet) -> (Vec<&mut Linear>, Vec<&mut BatchNorm1d>) {
    let mut lins = vec![&mut model.stem];
    let mut bns = vec![&mut model.stem_bn];
    for ResidualBlock {
        lin1,
        bn1,
        lin2,
        bn2,
    } in &mut model.blocks
    {
        lins.extend([lin1, lin2]);
        bns.extend([bn1, bn2]);
    }
    lins.push(&mut model.head);
    (lins, bns)
}
