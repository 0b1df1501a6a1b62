//! Loss functions used in training and self-supervised adaptation.

use nazar_tensor::{Tensor, Var};

/// Cross-entropy loss over raw logits.
///
/// Equivalent to `log_softmax` followed by negative log-likelihood, which is
/// both numerically stable and differentiable on the tape.
///
/// # Panics
///
/// Panics if `targets.len()` differs from the logit row count (propagated
/// from [`Var::nll_loss`]).
pub fn cross_entropy(logits: &Var, targets: &[usize]) -> Var {
    logits.log_softmax().nll_loss(targets)
}

/// Mean prediction entropy over a batch of logits — the TENT objective
/// (Eq. 2 of the paper): `H(θ; x) = -Σ_c p_θ(ŷ_c|x) log p_θ(ŷ_c|x)`,
/// averaged over the batch.
///
/// # Panics
///
/// Panics if `logits` is not a non-empty `[n, c]` matrix.
pub fn mean_entropy(logits: &Var) -> Var {
    let n = match logits.dims()[..] {
        [n, _] => n as f32,
        ref dims => panic!("mean_entropy expects [n, c] logits, got {dims:?}"),
    };
    let lp = logits.log_softmax();
    let p = lp.exp();
    p.mul(&lp).sum_all().scale(-1.0 / n)
}

/// Entropy of each row of a (non-differentiable) logit matrix, in nats.
///
/// Used by entropy-score drift detectors, which only need values.
///
/// Numeric policy (DESIGN.md §9): a row whose logits are degenerate (any
/// NaN, or all `-Inf`) has no defined softmax; such rows report the maximum
/// entropy `ln(c)` — "the model knows nothing here" — rather than emitting
/// NaN into detector score streams.
///
/// # Panics
///
/// Panics if `logits` is not an `[n, c]` matrix.
pub fn entropy_of_logits(logits: &Tensor) -> Vec<f32> {
    let lp = logits
        .log_softmax_rows()
        .expect("entropy_of_logits expects [n, c] logits");
    let (n, c) = (lp.nrows().unwrap(), lp.ncols().unwrap());
    let max_entropy = (c as f32).ln();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let row = &lp.data()[i * c..(i + 1) * c];
        if row.iter().any(|l| l.is_nan()) || row.iter().all(|l| !l.is_finite()) {
            out.push(max_entropy);
            continue;
        }
        // exp(-Inf) * -Inf = 0 * -Inf = NaN, so a masked-out class would
        // otherwise propagate NaN despite contributing zero probability.
        let h = -row
            .iter()
            .filter(|l| l.is_finite())
            .map(|&l| l.exp() * l)
            .sum::<f32>();
        out.push(if h.is_finite() { h } else { max_entropy });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_tensor::Tape;

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let tape = Tape::new();
        let confident = tape.leaf(Tensor::from_vec(vec![20.0, 0.0, 0.0], &[1, 3]).unwrap());
        let loss = cross_entropy(&confident, &[0]).value().item().unwrap();
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn cross_entropy_of_uniform_is_ln_c() {
        let tape = Tape::new();
        let uniform = tape.leaf(Tensor::zeros(&[1, 4]));
        let loss = cross_entropy(&uniform, &[2]).value().item().unwrap();
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn mean_entropy_is_maximal_for_uniform_logits() {
        let tape = Tape::new();
        let uniform = tape.leaf(Tensor::zeros(&[2, 4]));
        let h = mean_entropy(&uniform).value().item().unwrap();
        assert!((h - 4.0f32.ln()).abs() < 1e-5);

        let confident = tape.leaf(Tensor::from_vec(vec![30.0, 0.0, 0.0, 0.0], &[1, 4]).unwrap());
        let h2 = mean_entropy(&confident).value().item().unwrap();
        assert!(h2 < 1e-3);
    }

    #[test]
    fn entropy_gradient_reduces_entropy() {
        // One TENT-style gradient step on raw logits must lower entropy.
        let tape = Tape::new();
        let logits0 = Tensor::from_vec(vec![1.0, 0.5, 0.0], &[1, 3]).unwrap();
        let x = tape.leaf(logits0.clone());
        let h = mean_entropy(&x);
        let grads = h.backward();
        let g = grads.get(&x).unwrap();
        let stepped = logits0.sub(&g.scale(0.5)).unwrap();

        let before = entropy_of_logits(&logits0)[0];
        let after = entropy_of_logits(&stepped)[0];
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn degenerate_logit_rows_report_max_entropy() {
        // Regression (satellite 2): NaN / all -Inf rows produced NaN
        // entropies that poisoned entropy-score detectors downstream.
        let logits = Tensor::from_vec(
            vec![
                f32::NAN,
                0.0,
                1.0,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                f32::NEG_INFINITY,
                30.0,
                0.0,
                0.0,
            ],
            &[3, 3],
        )
        .unwrap();
        let h = entropy_of_logits(&logits);
        let ln_c = 3.0f32.ln();
        assert!((h[0] - ln_c).abs() < 1e-6, "NaN row: {h:?}");
        assert!((h[1] - ln_c).abs() < 1e-6, "all -Inf row: {h:?}");
        assert!(h[2] < 1e-3 && h[2].is_finite(), "confident row: {h:?}");
    }

    #[test]
    fn entropy_of_logits_matches_mean_entropy() {
        let tape = Tape::new();
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let per_row = entropy_of_logits(&logits);
        let mean = per_row.iter().sum::<f32>() / 2.0;
        let v = mean_entropy(&tape.leaf(logits)).value().item().unwrap();
        assert!((mean - v).abs() < 1e-5);
    }
}
