//! The tape-free training step is the tape's training loop, bit for bit.
//!
//! `train_epoch` runs [`TentStep::train_step`] on each batch. The oracle
//! here is the loop it replaced: per batch a `Tape` on one pool for the
//! epoch, `forward(Mode::Train)` → `cross_entropy` → `backward` →
//! `collect_grads` → the optimizer → `zero_grads`. A full
//! `train_until_converged` runs each way, and so do single epochs; after
//! each, every weight, bias, γ, β and running statistic must have the same
//! bits, and so must each epoch's mean loss and the best validation
//! accuracy. The cases cover `tiny` at 8 classes and `resnet34_analog` at
//! 40 (the head's 8-column tail), batch sizes 2, 16 and 64, row counts
//! that leave a trailing batch of one row (BN with `n = 1`) or a partial
//! one, SGD with momentum and weight decay, and Adam.
//!
//! The comparison runs in the test process, at its `NAZAR_NUM_THREADS`.
//! `trained_models_agree_at_1_and_4_threads` reruns it in child processes
//! at 1 and 4 threads, and checks that both trained the same models.

use nazar_nn::train::{evaluate, train_epoch, train_until_converged};
use nazar_nn::{cross_entropy, Adam, Layer, MlpResNet, Mode, ModelArch, Optimizer, Sgd, TentStep};
use nazar_tensor::{Tape, TapePool, Tensor};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::process::Command;

/// The tape's `train_epoch`, as it ran before the tape-free step.
fn tape_epoch<R: Rng + ?Sized>(
    model: &mut MlpResNet,
    optimizer: &mut dyn Optimizer,
    xs: &Tensor,
    ys: &[usize],
    batch_size: usize,
    rng: &mut R,
) -> f32 {
    let n = xs.nrows().unwrap();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let pool = TapePool::new();
    let mut total_loss = 0.0;
    let mut batches = 0;
    for chunk in order.chunks(batch_size) {
        let by: Vec<usize> = chunk.iter().map(|&i| ys[i]).collect();
        let tape = Tape::with_pool(&pool);
        let xv = tape.constant_rows(xs, chunk.iter().copied());
        let logits = model.forward(&tape, &xv, Mode::Train);
        let loss = cross_entropy(&logits, &by);
        total_loss += loss.value().item().unwrap();
        let grads = loss.backward();
        model.collect_grads(&grads);
        optimizer.step(model);
        model.zero_grads();
        batches += 1;
    }
    if batches == 0 {
        0.0
    } else {
        total_loss / batches as f32
    }
}

/// `train_until_converged` over [`tape_epoch`].
#[allow(clippy::too_many_arguments)]
fn tape_until_converged<R: Rng + ?Sized>(
    model: &mut MlpResNet,
    optimizer: &mut dyn Optimizer,
    data: &Data,
    batch_size: usize,
    max_epochs: usize,
    patience: usize,
    rng: &mut R,
) -> f32 {
    let mut best = 0.0f32;
    let mut since_best = 0;
    for _ in 0..max_epochs {
        tape_epoch(model, optimizer, &data.x, &data.y, batch_size, rng);
        let acc = evaluate(model, &data.val_x, &data.val_y).accuracy;
        if acc > best + 1e-4 {
            best = acc;
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= patience {
                break;
            }
        }
    }
    best
}

/// A training split and a validation split of Gaussian clusters.
struct Data {
    x: Tensor,
    y: Vec<usize>,
    val_x: Tensor,
    val_y: Vec<usize>,
}

fn clusters(rng: &mut SmallRng, dim: usize, classes: usize, rows: usize) -> (Tensor, Vec<usize>) {
    let centers = Tensor::randn(rng, &[classes, dim], 0.0, 1.5);
    let y: Vec<usize> = (0..rows).map(|i| i % classes).collect();
    let mut x = Tensor::randn(rng, &[rows, dim], 0.0, 1.0);
    for (row, &c) in x.data_mut().chunks_exact_mut(dim).zip(&y) {
        for (v, &m) in row.iter_mut().zip(centers.row(c).unwrap()) {
            *v += m;
        }
    }
    (x, y)
}

fn data(seed: u64, dim: usize, classes: usize, rows: usize) -> Data {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (x, y) = clusters(&mut rng, dim, classes, rows);
    let (val_x, val_y) = clusters(&mut rng, dim, classes, 2 * classes + 3);
    Data { x, y, val_x, val_y }
}

/// Every parameter's value and every BN layer's running statistics, as
/// bits, in `visit_params` order.
fn model_bits(model: &mut MlpResNet) -> Vec<u32> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.extend(p.value().data().iter().map(|v| v.to_bits())));
    model.visit_bn(&mut |bn| {
        for t in [bn.running_mean(), bn.running_var()] {
            out.extend(t.data().iter().map(|v| v.to_bits()));
        }
    });
    out
}

/// FNV-1a over the bits, for the cross-process comparison.
fn digest(bits: &[u32]) -> u64 {
    bits.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        b.to_le_bytes().iter().fold(h, |h, &byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
        })
    })
}

#[derive(Clone, Copy, Debug)]
enum Opt {
    /// SGD with momentum and weight decay, as the base models train.
    Sgd,
    Adam,
}

impl Opt {
    fn build(self) -> Box<dyn Optimizer> {
        match self {
            Opt::Sgd => Box::new(Sgd::with_momentum(0.05, 0.9).with_weight_decay(4e-4)),
            Opt::Adam => Box::new(Adam::new(3e-3)),
        }
    }
}

struct Case {
    arch: fn(usize, usize) -> ModelArch,
    classes: usize,
    rows: usize,
    batch: usize,
    opt: Opt,
}

const DIM: usize = 12;

/// `(preset, classes, rows, batch, optimizer)`: each batch size with a
/// trailing one-row batch and with a trailing partial batch.
fn cases() -> Vec<Case> {
    let tiny = ModelArch::tiny as fn(usize, usize) -> ModelArch;
    let r34 = ModelArch::resnet34_analog as fn(usize, usize) -> ModelArch;
    [
        (tiny, 8, 41, 2, Opt::Sgd),
        (tiny, 8, 81, 16, Opt::Sgd),
        (tiny, 8, 90, 16, Opt::Adam),
        (tiny, 8, 129, 64, Opt::Sgd),
        (tiny, 8, 100, 64, Opt::Sgd),
        (r34, 40, 41, 2, Opt::Sgd),
        (r34, 40, 97, 16, Opt::Sgd),
        (r34, 40, 129, 64, Opt::Sgd),
        (r34, 40, 150, 64, Opt::Sgd),
    ]
    .into_iter()
    .map(|(arch, classes, rows, batch, opt)| Case {
        arch,
        classes,
        rows,
        batch,
        opt,
    })
    .collect()
}

fn name(case: &Case) -> String {
    let arch = (case.arch)(DIM, case.classes).name;
    format!(
        "{arch} c{} rows {} batch {} {:?}",
        case.classes, case.rows, case.batch, case.opt
    )
}

#[test]
fn each_epoch_is_the_tape_epoch_bitwise() {
    for (seed, case) in cases().iter().enumerate() {
        let what = name(case);
        let data = data(seed as u64, DIM, case.classes, case.rows);
        let mut rng = SmallRng::seed_from_u64(100 + seed as u64);
        let model = MlpResNet::new((case.arch)(DIM, case.classes), &mut rng);
        let (mut tape_model, mut step_model) = (model.clone(), model);
        let (mut tape_opt, mut step_opt) = (case.opt.build(), case.opt.build());
        let (mut tape_rng, mut step_rng) = (rng.clone(), rng);
        for epoch in 0..3 {
            let tape_loss = tape_epoch(
                &mut tape_model,
                tape_opt.as_mut(),
                &data.x,
                &data.y,
                case.batch,
                &mut tape_rng,
            );
            let step_loss = train_epoch(
                &mut step_model,
                step_opt.as_mut(),
                &data.x,
                &data.y,
                case.batch,
                &mut step_rng,
            );
            assert_eq!(
                step_loss.to_bits(),
                tape_loss.to_bits(),
                "{what}, epoch {epoch}: loss {step_loss} against the tape's {tape_loss}"
            );
            assert!(
                model_bits(&mut step_model) == model_bits(&mut tape_model),
                "{what}, epoch {epoch}: the model differs from the tape's"
            );
        }
    }
}

#[test]
fn a_trained_model_is_the_tape_trained_model_bitwise() {
    for (seed, case) in cases().iter().enumerate() {
        let what = name(case);
        let data = data(50 + seed as u64, DIM, case.classes, case.rows);
        let mut rng = SmallRng::seed_from_u64(200 + seed as u64);
        let model = MlpResNet::new((case.arch)(DIM, case.classes), &mut rng);
        let (mut tape_model, mut step_model) = (model.clone(), model);
        let (mut tape_opt, mut step_opt) = (case.opt.build(), case.opt.build());
        let (mut tape_rng, mut step_rng) = (rng.clone(), rng);
        let (epochs, patience) = (6, 3);
        let tape_best = tape_until_converged(
            &mut tape_model,
            tape_opt.as_mut(),
            &data,
            case.batch,
            epochs,
            patience,
            &mut tape_rng,
        );
        let step_best = train_until_converged(
            &mut step_model,
            step_opt.as_mut(),
            &data.x,
            &data.y,
            &data.val_x,
            &data.val_y,
            case.batch,
            epochs,
            patience,
            &mut step_rng,
        );
        assert_eq!(
            step_best.to_bits(),
            tape_best.to_bits(),
            "{what}: best validation accuracy"
        );
        let bits = model_bits(&mut step_model);
        assert!(
            bits == model_bits(&mut tape_model),
            "{what}: the trained model differs from the tape's"
        );
        // Both runs drew the same shuffles.
        assert_eq!(step_rng.next_u64(), tape_rng.next_u64(), "{what}: rng");
        println!("digest of {what}: {:016x}", digest(&bits));
    }
}

#[test]
fn trained_models_agree_at_1_and_4_threads() {
    let run = |threads: &str| {
        let out = Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "a_trained_model_is_the_tape_trained_model_bitwise",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("NAZAR_NUM_THREADS", threads)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "at {threads} threads: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // The harness prints `test <name> ... ` before the first line.
        let digests: Vec<String> = stdout
            .lines()
            .filter_map(|l| l.find("digest of ").map(|at| l[at..].to_owned()))
            .collect();
        assert_eq!(
            digests.len(),
            cases().len(),
            "at {threads} threads: {stdout}"
        );
        digests
    };
    assert_eq!(run("1"), run("4"));
}

#[test]
fn a_step_sets_gradients_only_on_trainable_parameters() {
    // `collect_grads` skips a frozen parameter; so does the step, and the
    // gradients it does set are the all-trainable ones.
    let mut rng = SmallRng::seed_from_u64(7);
    let data = data(7, DIM, 8, 16);
    let mut model = MlpResNet::new(ModelArch::tiny(DIM, 8), &mut rng);
    let grads = |model: &mut MlpResNet| {
        let mut state = TentStep::new();
        state.train_step(model, data.x.data(), &data.y);
        let mut out = Vec::new();
        model.visit_params(&mut |p| {
            out.push(
                p.grad()
                    .map(|g| g.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()),
            );
            p.zero_grad();
        });
        out
    };
    let all = grads(&mut model.clone());
    assert!(all.iter().all(Option::is_some));
    model.set_all_trainable(false);
    model.set_bn_affine_trainable(true);
    let mut trainable = Vec::new();
    model.visit_params(&mut |p| trainable.push(p.trainable()));
    let bn_only = grads(&mut model);
    for ((t, all), bn) in trainable.iter().zip(&all).zip(&bn_only) {
        match t {
            true => assert_eq!(bn, all),
            false => assert!(bn.is_none(), "a frozen parameter got a gradient"),
        }
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn a_target_past_the_classes_panics() {
    let mut rng = SmallRng::seed_from_u64(9);
    let mut model = MlpResNet::new(ModelArch::tiny(4, 3), &mut rng);
    TentStep::new().train_step(&mut model, &[0.5; 8], &[0, 3]);
}
