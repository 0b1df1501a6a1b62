//! Residual MLP classifiers standing in for the paper's ResNet models.

use crate::error::{NnError, Result};
use crate::init::Init;
use crate::layers::{BatchNorm1d, Layer, Linear, Mode};
use crate::param::Param;
use nazar_tensor::{kernels, simd, SimdTier, Tape, Tensor, Var, Workspace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Architecture description for an [`MlpResNet`].
///
/// The three `resnet*_analog` presets preserve the *capacity ordering* of
/// ResNet18/34/50 (the property the paper's Figure 8b relies on: smaller
/// models generalize worse over mixed distributions) without pretending to
/// be convolutional networks — see DESIGN.md substitution S1.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelArch {
    /// Input feature width.
    pub input_dim: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Hidden width of the residual trunk.
    pub hidden: usize,
    /// Number of residual blocks.
    pub blocks: usize,
    /// Human-readable architecture name (e.g. `"resnet50-analog"`).
    pub name: String,
}

impl ModelArch {
    /// A tiny architecture for unit tests and doc examples.
    pub fn tiny(input_dim: usize, num_classes: usize) -> Self {
        ModelArch {
            input_dim,
            num_classes,
            hidden: 16,
            blocks: 1,
            name: "tiny".into(),
        }
    }

    /// Analog of ResNet18 (smallest capacity).
    pub fn resnet18_analog(input_dim: usize, num_classes: usize) -> Self {
        ModelArch {
            input_dim,
            num_classes,
            hidden: 64,
            blocks: 2,
            name: "resnet18-analog".into(),
        }
    }

    /// Analog of ResNet34 (middle capacity).
    pub fn resnet34_analog(input_dim: usize, num_classes: usize) -> Self {
        ModelArch {
            input_dim,
            num_classes,
            hidden: 96,
            blocks: 3,
            name: "resnet34-analog".into(),
        }
    }

    /// Analog of ResNet50 (largest capacity; the paper's default model).
    pub fn resnet50_analog(input_dim: usize, num_classes: usize) -> Self {
        ModelArch {
            input_dim,
            num_classes,
            hidden: 128,
            blocks: 4,
            name: "resnet50-analog".into(),
        }
    }

    /// Validates the architecture parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArch`] when any dimension is zero.
    pub fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("input_dim", self.input_dim),
            ("num_classes", self.num_classes),
            ("hidden", self.hidden),
        ] {
            if v == 0 {
                return Err(NnError::InvalidArch {
                    reason: format!("{what} must be nonzero"),
                });
            }
        }
        Ok(())
    }
}

/// A pre-activation-style residual block: two Linear+BN stages with a skip
/// connection, mirroring the basic block of a ResNet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidualBlock {
    pub(crate) lin1: Linear,
    pub(crate) bn1: BatchNorm1d,
    pub(crate) lin2: Linear,
    pub(crate) bn2: BatchNorm1d,
}

impl ResidualBlock {
    /// Creates a width-preserving residual block.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, width: usize) -> Self {
        ResidualBlock {
            lin1: Linear::new(rng, width, width, Init::KaimingNormal),
            bn1: BatchNorm1d::new(width),
            lin2: Linear::new(rng, width, width, Init::KaimingNormal),
            bn2: BatchNorm1d::new(width),
        }
    }

    fn visit_bn(&mut self, f: &mut dyn FnMut(&mut BatchNorm1d)) {
        f(&mut self.bn1);
        f(&mut self.bn2);
    }

    /// Tape-free eval of the block on `h: [n, width]`, in place, with the
    /// rest of the activation scratch in `acts`.
    fn eval_in_place(&self, h: &mut [f32], n: usize, acts: &mut EvalActs<'_>, ws: &mut Workspace) {
        let EvalActs {
            a,
            b,
            std,
            threads,
            tier,
        } = acts;
        self.lin1.eval_into(h, n, a, ws, *threads, *tier);
        self.bn1.eval_into(a, b, std, *tier);
        kernels::map_assign(b, relu);
        self.lin2.eval_into(b, n, a, ws, *threads, *tier);
        self.bn2.eval_into(a, b, std, *tier);
        kernels::zip_assign(h, b, |skip, y| relu(y + skip));
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, tape: &Tape, x: &Var, mode: Mode) -> Var {
        let h = self.lin1.forward(tape, x, mode);
        let h = self.bn1.forward(tape, &h, mode).relu();
        let h = self.lin2.forward(tape, &h, mode);
        let h = self.bn2.forward(tape, &h, mode);
        h.add(x).relu()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.lin1.visit_params(f);
        self.bn1.visit_params(f);
        self.lin2.visit_params(f);
        self.bn2.visit_params(f);
    }
}

fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// What the tape-free eval forward carries from layer to layer besides
/// the running activations: two `[n, hidden]` buffers, one `[hidden]`
/// buffer for a BN layer's `sqrt(var + eps)`, and the kernel dispatch.
struct EvalActs<'a> {
    a: &'a mut [f32],
    b: &'a mut [f32],
    std: &'a mut [f32],
    threads: usize,
    tier: SimdTier,
}

/// A residual MLP image classifier.
///
/// The structure is `stem Linear → BN → ReLU → residual blocks → head`,
/// i.e. a ResNet with 1-D "images". Exposes the penultimate features for
/// Mahalanobis-style detectors and the BN state for [`crate::BnPatch`]es.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpResNet {
    arch: ModelArch,
    pub(crate) stem: Linear,
    pub(crate) stem_bn: BatchNorm1d,
    pub(crate) blocks: Vec<ResidualBlock>,
    pub(crate) head: Linear,
}

impl MlpResNet {
    /// Builds a freshly initialized model for the given architecture.
    ///
    /// # Panics
    ///
    /// Panics if the architecture fails [`ModelArch::validate`]; construct
    /// presets via [`ModelArch`] to avoid invalid configurations.
    pub fn new<R: Rng + ?Sized>(arch: ModelArch, rng: &mut R) -> Self {
        arch.validate().expect("invalid model architecture");
        let stem = Linear::new(rng, arch.input_dim, arch.hidden, Init::KaimingNormal);
        let stem_bn = BatchNorm1d::new(arch.hidden);
        let blocks = (0..arch.blocks)
            .map(|_| ResidualBlock::new(rng, arch.hidden))
            .collect();
        let head = Linear::new(rng, arch.hidden, arch.num_classes, Init::XavierUniform);
        MlpResNet {
            arch,
            stem,
            stem_bn,
            blocks,
            head,
        }
    }

    /// The architecture this model was built from.
    pub fn arch(&self) -> &ModelArch {
        &self.arch
    }

    /// Forward pass returning `(penultimate_features, logits)`.
    pub fn forward_with_features(&mut self, tape: &Tape, x: &Var, mode: Mode) -> (Var, Var) {
        let h = self.stem.forward(tape, x, mode);
        let mut h = self.stem_bn.forward(tape, &h, mode).relu();
        for block in &mut self.blocks {
            h = block.forward(tape, &h, mode);
        }
        let logits = self.head.forward(tape, &h, mode);
        (h, logits)
    }

    /// The eval-mode forward, tape-free: logits of row-major
    /// `x: [n, input_dim]` into `logits: [n, num_classes]`.
    ///
    /// This is the one inference path — [`MlpResNet::logits`] in
    /// [`Mode::Eval`], [`MlpResNet::features`], [`MlpResNet::predict`] and
    /// [`MlpResNet::predict_proba`] all run it — over the same kernels, in
    /// the same operation order, as [`MlpResNet::forward_with_features`]
    /// records on a tape, so the two agree bitwise. Activations live in one
    /// buffer taken from `ws` and handed back; a caller that keeps its
    /// workspace (the fleet scheduler's chunk scratch) allocates nothing
    /// after its largest batch. Eval-mode BN reads running statistics and
    /// the matmul accumulates each output element in `p = 0..k` order
    /// whatever the row count, so a row's logits do not depend on the rows
    /// batched with it.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with `n` and the architecture.
    pub fn infer_into(&self, x: &[f32], n: usize, logits: &mut [f32], ws: &mut Workspace) {
        self.infer_into_with(x, n, logits, ws, 0, simd::env_tier());
    }

    /// [`MlpResNet::infer_into`] with an explicit matmul worker count
    /// (`0` = the kernel's own policy) and [`SimdTier`] — the hook the
    /// equivalence tests sweep within one process.
    pub fn infer_into_with(
        &self,
        x: &[f32],
        n: usize,
        logits: &mut [f32],
        ws: &mut Workspace,
        threads: usize,
        tier: SimdTier,
    ) {
        assert_eq!(logits.len(), n * self.arch.num_classes, "logits length");
        let acts = self.eval_trunk(x, n, ws, threads, tier);
        let features = &acts[..n * self.arch.hidden];
        self.head.eval_into(features, n, logits, ws, threads, tier);
        ws.recycle(acts);
    }

    /// Stem → BN → ReLU → residual blocks, tape-free. Returns the
    /// activation buffer taken from `ws`, whose first `n * hidden` floats
    /// are the penultimate features; the caller recycles it.
    fn eval_trunk(
        &self,
        x: &[f32],
        n: usize,
        ws: &mut Workspace,
        threads: usize,
        tier: SimdTier,
    ) -> Vec<f32> {
        assert_eq!(x.len(), n * self.arch.input_dim, "input length");
        let width = self.arch.hidden;
        let mut buf = ws.take_filled_later(3 * n * width + width);
        let (h, rest) = buf.split_at_mut(n * width);
        let (a, rest) = rest.split_at_mut(n * width);
        let (b, std) = rest.split_at_mut(n * width);
        self.stem.eval_into(x, n, a, ws, threads, tier);
        self.stem_bn.eval_into(a, h, std, tier);
        kernels::map_assign(h, relu);
        let mut acts = EvalActs {
            a,
            b,
            std,
            threads,
            tier,
        };
        for block in &self.blocks {
            block.eval_in_place(h, n, &mut acts, ws);
        }
        buf
    }

    /// Convenience inference: logits for a batch, in the given mode.
    ///
    /// [`Mode::Eval`] is [`MlpResNet::infer_into`] on this thread's shared
    /// workspace; the other modes (batch statistics, running-stat updates)
    /// record a tape.
    pub fn logits(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode != Mode::Eval {
            let tape = Tape::new();
            let xv = tape.constant(x);
            let (_, logits) = self.forward_with_features(&tape, &xv, mode);
            return logits.value();
        }
        let n = batch_rows(x);
        let mut logits = Tensor::zeros(&[n, self.arch.num_classes]);
        Workspace::with_thread_local(|ws| self.infer_into(x.data(), n, logits.data_mut(), ws));
        logits
    }

    /// Penultimate-layer features for a batch (eval mode).
    pub fn features(&mut self, x: &Tensor) -> Tensor {
        let n = batch_rows(x);
        let mut features = Tensor::zeros(&[n, self.arch.hidden]);
        Workspace::with_thread_local(|ws| {
            let acts = self.eval_trunk(x.data(), n, ws, 0, simd::env_tier());
            let len = features.len();
            features.data_mut().copy_from_slice(&acts[..len]);
            ws.recycle(acts);
        });
        features
    }

    /// Softmax probabilities for a batch (eval mode).
    pub fn predict_proba(&mut self, x: &Tensor) -> Tensor {
        self.logits(x, Mode::Eval)
            .softmax_rows()
            .expect("logits are a matrix")
    }

    /// Argmax class predictions for a batch (eval mode).
    pub fn predict(&mut self, x: &Tensor) -> Vec<usize> {
        self.logits(x, Mode::Eval)
            .argmax_axis1()
            .expect("logits are a matrix")
    }

    /// Visits every BN layer in a deterministic order (stem first).
    pub fn visit_bn(&mut self, f: &mut dyn FnMut(&mut BatchNorm1d)) {
        f(&mut self.stem_bn);
        for block in &mut self.blocks {
            block.visit_bn(f);
        }
    }

    /// Number of BN layers.
    pub fn num_bn_layers(&mut self) -> usize {
        let mut n = 0;
        self.visit_bn(&mut |_| n += 1);
        n
    }

    /// Number of scalar weights living in BN layers (γ, β only).
    pub fn num_bn_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_bn(&mut |bn| n += bn.width() * 2);
        n
    }

    /// Freezes or unfreezes every parameter in the model.
    pub fn set_all_trainable(&mut self, trainable: bool) {
        self.visit_params(&mut |p| p.set_trainable(trainable));
    }

    /// Freezes or unfreezes only the BN affine parameters.
    ///
    /// `model.set_all_trainable(false)` followed by
    /// `model.set_bn_affine_trainable(true)` is the TENT configuration.
    pub fn set_bn_affine_trainable(&mut self, trainable: bool) {
        self.visit_bn(&mut |bn| bn.set_affine_trainable(trainable));
    }
}

/// Row count of an `[n, d]` batch.
///
/// # Panics
///
/// Panics if `x` is not a matrix.
fn batch_rows(x: &Tensor) -> usize {
    match *x.dims() {
        [n, _] => n,
        ref dims => panic!("model input must be an [n, d] batch, got {dims:?}"),
    }
}

impl Layer for MlpResNet {
    fn forward(&mut self, tape: &Tape, x: &Var, mode: Mode) -> Var {
        self.forward_with_features(tape, x, mode).1
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.stem.visit_params(f);
        self.stem_bn.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model() -> MlpResNet {
        let mut rng = SmallRng::seed_from_u64(3);
        MlpResNet::new(ModelArch::resnet18_analog(8, 5), &mut rng)
    }

    #[test]
    fn arch_presets_preserve_capacity_ordering() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut m18 = MlpResNet::new(ModelArch::resnet18_analog(16, 10), &mut rng);
        let mut m34 = MlpResNet::new(ModelArch::resnet34_analog(16, 10), &mut rng);
        let mut m50 = MlpResNet::new(ModelArch::resnet50_analog(16, 10), &mut rng);
        assert!(m18.num_params() < m34.num_params());
        assert!(m34.num_params() < m50.num_params());
    }

    #[test]
    fn validate_rejects_zero_dims() {
        assert!(ModelArch {
            input_dim: 0,
            ..ModelArch::tiny(4, 2)
        }
        .validate()
        .is_err());
        assert!(ModelArch {
            num_classes: 0,
            ..ModelArch::tiny(4, 2)
        }
        .validate()
        .is_err());
        assert!(ModelArch::tiny(4, 2).validate().is_ok());
    }

    #[test]
    fn logits_shape_matches_classes() {
        let mut m = model();
        let x = Tensor::zeros(&[3, 8]);
        let logits = m.logits(&x, Mode::Eval);
        assert_eq!(logits.dims(), &[3, 5]);
        assert_eq!(m.predict(&x).len(), 3);
    }

    #[test]
    fn bn_params_are_small_fraction_of_model() {
        // The paper's efficiency argument (§3.4): BN layers are a tiny
        // fraction of model weights (217x smaller for ResNet50).
        let mut m = MlpResNet::new(
            ModelArch::resnet50_analog(64, 40),
            &mut SmallRng::seed_from_u64(0),
        );
        let total = m.num_params();
        let bn = m.num_bn_params();
        assert!(
            bn * 20 < total,
            "bn {bn} should be well under 5% of {total}"
        );
    }

    #[test]
    fn num_bn_layers_counts_stem_and_blocks() {
        let mut m = model(); // resnet18-analog: 2 blocks * 2 + stem = 5
        assert_eq!(m.num_bn_layers(), 5);
    }

    #[test]
    fn tent_freeze_configuration() {
        let mut m = model();
        m.set_all_trainable(false);
        m.set_bn_affine_trainable(true);
        let mut trainable = 0;
        m.visit_params(&mut |p| {
            if p.trainable() {
                trainable += p.len();
            }
        });
        assert_eq!(trainable, m.num_bn_params());
    }

    #[test]
    fn tent_freeze_computes_bn_gradients_only_and_bitwise() {
        // One Adapt-mode entropy step, all-trainable against the TENT
        // freeze. Each returns, in `visit_params` order, whether the
        // parameter was trainable when bound and what the tape held for it.
        let step = |tent_freeze: bool| {
            let mut m = model();
            if tent_freeze {
                m.set_all_trainable(false);
                m.set_bn_affine_trainable(true);
            }
            let mut rng = SmallRng::seed_from_u64(5);
            let tape = Tape::new();
            let x = tape.constant(Tensor::randn(&mut rng, &[6, 8], 0.0, 1.0));
            let loss = crate::loss::mean_entropy(&m.forward(&tape, &x, Mode::Adapt));
            let grads = loss.backward();
            let mut bound_trainable = Vec::new();
            m.visit_params(&mut |p| bound_trainable.push(p.trainable()));
            // Unfreeze before collecting, so `collect_grad` copies whatever
            // buffer the tape holds for each parameter, frozen or not.
            m.set_all_trainable(true);
            m.collect_grads(&grads);
            let mut collected = Vec::new();
            m.visit_params(&mut |p| collected.push(p.grad().cloned()));
            (bound_trainable, collected)
        };
        let (_, full) = step(false);
        let (bn_affine, tent) = step(true);
        assert_eq!(full.len(), tent.len());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ((is_bn, full_grad), tent_grad) in bn_affine.iter().zip(&full).zip(&tent) {
            let full_grad = full_grad.as_ref().expect("all-trainable gradient");
            match (is_bn, tent_grad) {
                (true, Some(tent_grad)) => assert_eq!(bits(tent_grad), bits(full_grad)),
                (true, None) => panic!("a BN affine parameter lost its gradient"),
                (false, Some(_)) => panic!("the tape held a gradient for a frozen Linear"),
                (false, None) => {}
            }
        }
        assert_eq!(bn_affine.iter().filter(|&&t| t).count(), 2 * 5);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let mut m = model();
        let x = Tensor::from_vec((0..16).map(|i| i as f32 / 8.0).collect(), &[2, 8]).unwrap();
        let before = m.logits(&x, Mode::Eval);
        let json = serde_json::to_string(&m).unwrap();
        let mut m2: MlpResNet = serde_json::from_str(&json).unwrap();
        let after = m2.logits(&x, Mode::Eval);
        assert!(before.approx_eq(&after, 1e-6));
    }

    /// `json` with every number rewritten as the shortest decimal of the
    /// `f32` it holds (`-0.12232813`, not the exact `f64` expansion), as
    /// a writer that formats `f32`s emits it.
    fn shortest_f32_form(json: &str) -> String {
        let (mut out, mut num, mut in_str) = (String::new(), String::new(), false);
        for c in json.chars().chain([' ']) {
            let starts = c.is_ascii_digit() || c == '-';
            if !in_str && (starts || !num.is_empty() && "+.eE".contains(c)) {
                num.push(c);
                continue;
            }
            if !num.is_empty() {
                let v: f64 = num.parse().unwrap();
                out += &(v as f32).to_string();
                num.clear();
            }
            in_str ^= c == '"';
            out.push(c);
        }
        out.pop();
        out
    }

    #[test]
    fn a_model_survives_a_json_round_trip_bitwise_in_either_float_form() {
        let mut m = model();
        // Move the running statistics off their initial values.
        let mut rng = SmallRng::seed_from_u64(8);
        let _ = m.logits(&Tensor::randn(&mut rng, &[6, 8], 0.0, 1.0), Mode::Train);
        let bits = |m: &mut MlpResNet| {
            let mut out = Vec::new();
            m.visit_params(&mut |p| out.extend(p.value().data().iter().map(|v| v.to_bits())));
            m.visit_bn(&mut |bn| {
                for t in [bn.running_mean(), bn.running_var()] {
                    out.extend(t.data().iter().map(|v| v.to_bits()));
                }
            });
            out
        };
        let json = serde_json::to_string(&m).unwrap();
        let short = shortest_f32_form(&json);
        assert!(short.len() < json.len(), "the rewrite shortened nothing");
        for text in [&json, &short] {
            let mut back: MlpResNet = serde_json::from_str(text).unwrap();
            assert_eq!(bits(&mut back), bits(&mut m));
            assert_eq!(back.arch(), m.arch());
        }
    }

    #[test]
    fn features_have_hidden_width() {
        let mut m = model();
        let f = m.features(&Tensor::zeros(&[2, 8]));
        assert_eq!(f.dims(), &[2, 64]);
    }
}
