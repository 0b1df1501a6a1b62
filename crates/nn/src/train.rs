//! Batched training and evaluation loops.

use crate::error::{NnError, Result};
use crate::layers::{Layer, Mode};
use crate::loss::cross_entropy;
use crate::model::MlpResNet;
use crate::optim::Optimizer;
use nazar_tensor::{Tape, TapePool, Tensor};
use rand::seq::SliceRandom;
use rand::Rng;

/// Evaluation summary produced by [`evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Overall top-1 accuracy in `[0, 1]`.
    pub accuracy: f32,
    /// Number of examples evaluated.
    pub count: usize,
    /// Per-class `(correct, total)` tallies indexed by class id.
    pub per_class: Vec<(usize, usize)>,
}

impl EvalReport {
    /// Per-class accuracy, `None` for classes never seen.
    pub fn class_accuracy(&self, class: usize) -> Option<f32> {
        self.per_class.get(class).and_then(|&(c, t)| {
            if t == 0 {
                None
            } else {
                Some(c as f32 / t as f32)
            }
        })
    }
}

/// Runs one epoch of shuffled mini-batch SGD and returns the mean loss.
///
/// # Panics
///
/// Panics if `xs` is not an `[n, d]` matrix with `n == ys.len()` or if
/// `batch_size` is zero.
pub fn train_epoch<R: Rng + ?Sized>(
    model: &mut MlpResNet,
    optimizer: &mut dyn Optimizer,
    xs: &Tensor,
    ys: &[usize],
    batch_size: usize,
    rng: &mut R,
) -> f32 {
    assert!(batch_size > 0, "batch_size must be nonzero");
    let n = xs.nrows().expect("train_epoch expects [n, d] inputs");
    assert_eq!(n, ys.len(), "one target per input row required");

    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);

    // One pool for the epoch: each batch's tape reuses the last one's buffers.
    let pool = TapePool::new();
    let mut total_loss = 0.0;
    let mut batches = 0;
    for chunk in order.chunks(batch_size) {
        let by: Vec<usize> = chunk.iter().map(|&i| ys[i]).collect();

        let tape = Tape::with_pool(&pool);
        let xv = tape.constant_rows(xs, chunk.iter().copied());
        let logits = model.forward(&tape, &xv, Mode::Train);
        let loss = cross_entropy(&logits, &by);
        total_loss += loss.value().item().expect("scalar loss");
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

/// Trains until the validation accuracy stops improving or `max_epochs` runs
/// out; returns the best validation accuracy observed.
///
/// This mirrors the paper's "trained from scratch until convergence" setup
/// (§5.2) with simple early stopping.
#[allow(clippy::too_many_arguments)]
pub fn train_until_converged<R: Rng + ?Sized>(
    model: &mut MlpResNet,
    optimizer: &mut dyn Optimizer,
    train_x: &Tensor,
    train_y: &[usize],
    val_x: &Tensor,
    val_y: &[usize],
    batch_size: usize,
    max_epochs: usize,
    patience: usize,
    rng: &mut R,
) -> f32 {
    let mut best = 0.0f32;
    let mut since_best = 0;
    for _ in 0..max_epochs {
        train_epoch(model, optimizer, train_x, train_y, batch_size, rng);
        let acc = evaluate(model, val_x, val_y).accuracy;
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

/// Evaluates top-1 accuracy with per-class tallies (eval mode).
///
/// # Panics
///
/// Panics if `xs` is not an `[n, d]` matrix with `n == ys.len()`.
pub fn evaluate(model: &mut MlpResNet, xs: &Tensor, ys: &[usize]) -> EvalReport {
    let n = xs.nrows().expect("evaluate expects [n, d] inputs");
    assert_eq!(n, ys.len(), "one target per input row required");
    let num_classes = model.arch().num_classes;
    let mut per_class = vec![(0usize, 0usize); num_classes];
    let mut correct = 0;
    // Evaluate in chunks to bound the forward-pass working set.
    let chunk_size = 256;
    let mut i = 0;
    while i < n {
        let end = (i + chunk_size).min(n);
        let bx = xs.slice_rows(i, end).expect("valid rows");
        let preds = model.predict(&bx);
        for (j, &pred) in preds.iter().enumerate() {
            let truth = ys[i + j];
            if truth < num_classes {
                per_class[truth].1 += 1;
                if pred == truth {
                    per_class[truth].0 += 1;
                    correct += 1;
                }
            }
        }
        i = end;
    }
    EvalReport {
        accuracy: if n == 0 {
            0.0
        } else {
            correct as f32 / n as f32
        },
        count: n,
        per_class,
    }
}

/// Validates that a dataset pair is consistent (same row/target counts).
///
/// # Errors
///
/// Returns [`NnError::BatchMismatch`] on inconsistency.
pub fn check_dataset(xs: &Tensor, ys: &[usize]) -> Result<()> {
    let n = xs.nrows().map_err(|_| NnError::BatchMismatch {
        inputs: 0,
        targets: ys.len(),
    })?;
    if n != ys.len() {
        return Err(NnError::BatchMismatch {
            inputs: n,
            targets: ys.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelArch;
    use crate::optim::Sgd;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Builds a 3-class linearly separable dataset.
    fn toy_dataset(rng: &mut SmallRng, n_per_class: usize) -> (Tensor, Vec<usize>) {
        let centers = [
            [3.0, 0.0, 0.0, 0.0],
            [0.0, 3.0, 0.0, 0.0],
            [0.0, 0.0, 3.0, 0.0],
        ];
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                let noise = Tensor::randn(rng, &[4], 0.0, 0.3);
                let row: Vec<f32> = center
                    .iter()
                    .zip(noise.data())
                    .map(|(&c, &e)| c + e)
                    .collect();
                rows.push(row);
                ys.push(c);
            }
        }
        (Tensor::stack_rows(&rows).unwrap(), ys)
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let mut rng = SmallRng::seed_from_u64(0);
        let (xs, ys) = toy_dataset(&mut rng, 30);
        let mut model = MlpResNet::new(ModelArch::tiny(4, 3), &mut rng);
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        for _ in 0..30 {
            train_epoch(&mut model, &mut opt, &xs, &ys, 16, &mut rng);
        }
        let report = evaluate(&mut model, &xs, &ys);
        assert!(report.accuracy > 0.95, "accuracy {}", report.accuracy);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (xs, ys) = toy_dataset(&mut rng, 20);
        let mut model = MlpResNet::new(ModelArch::tiny(4, 3), &mut rng);
        let mut opt = Sgd::new(0.05);
        let first = train_epoch(&mut model, &mut opt, &xs, &ys, 16, &mut rng);
        let mut last = first;
        for _ in 0..15 {
            last = train_epoch(&mut model, &mut opt, &xs, &ys, 16, &mut rng);
        }
        assert!(last < first, "loss {last} !< {first}");
    }

    #[test]
    fn early_stopping_converges() {
        let mut rng = SmallRng::seed_from_u64(2);
        let (xs, ys) = toy_dataset(&mut rng, 25);
        let (vx, vy) = toy_dataset(&mut rng, 10);
        let mut model = MlpResNet::new(ModelArch::tiny(4, 3), &mut rng);
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let best = train_until_converged(
            &mut model, &mut opt, &xs, &ys, &vx, &vy, 16, 100, 5, &mut rng,
        );
        assert!(best > 0.9, "best {best}");
    }

    #[test]
    fn eval_report_per_class_tallies_sum_to_count() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (xs, ys) = toy_dataset(&mut rng, 10);
        let mut model = MlpResNet::new(ModelArch::tiny(4, 3), &mut rng);
        let report = evaluate(&mut model, &xs, &ys);
        let total: usize = report.per_class.iter().map(|&(_, t)| t).sum();
        assert_eq!(total, report.count);
        assert!(report.class_accuracy(0).is_some());
        assert!(report.class_accuracy(99).is_none());
    }

    #[test]
    fn check_dataset_detects_mismatch() {
        let xs = Tensor::zeros(&[3, 2]);
        assert!(check_dataset(&xs, &[0, 1]).is_err());
        assert!(check_dataset(&xs, &[0, 1, 2]).is_ok());
    }
}
