//! Trainable parameters.

use nazar_tensor::{Gradients, Tape, Tensor, Var};
use serde::{Deserialize, Serialize};

/// A trainable tensor: value, accumulated gradient, and a trainability flag.
///
/// During a forward pass, the owning layer calls [`Param::bind`] to register
/// the value on the tape; after `backward`, [`Param::collect_grad`] copies
/// the tape's gradient into the parameter, where an [`crate::Optimizer`]
/// consumes it.
///
/// Freezing (`set_trainable(false)`) is how TENT restricts adaptation to the
/// batch-normalization affine parameters: a frozen parameter still takes
/// part in the forward pass, but it is bound as a tape constant, so the
/// backward pass computes no gradient for it at all.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    value: Tensor,
    #[serde(skip)]
    grad: Option<Tensor>,
    trainable: bool,
    // The tape node id from the most recent `bind`, not the `Var` itself:
    // a plain index keeps `Param` (and everything holding one) `Send`, so
    // fleets and the orchestrator can run models on scoped worker threads.
    #[serde(skip)]
    last_id: Option<usize>,
}

impl Param {
    /// Wraps a tensor as a trainable parameter.
    pub fn new(value: Tensor) -> Self {
        Param {
            value,
            grad: None,
            trainable: true,
            last_id: None,
        }
    }

    /// The current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable access to the value (used by optimizers and patches).
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// The accumulated gradient, if any.
    pub fn grad(&self) -> Option<&Tensor> {
        self.grad.as_ref()
    }

    /// Whether the parameter receives gradients.
    pub fn trainable(&self) -> bool {
        self.trainable
    }

    /// Enables or disables gradient accumulation for this parameter.
    pub fn set_trainable(&mut self, trainable: bool) {
        self.trainable = trainable;
    }

    /// Registers the value on `tape` — a leaf when trainable, a constant
    /// when frozen, copied into the tape's pool — and remembers its node
    /// id.
    pub fn bind(&mut self, tape: &Tape) -> Var {
        let var = if self.trainable {
            tape.leaf(&self.value)
        } else {
            tape.constant(&self.value)
        };
        self.last_id = Some(var.id());
        var
    }

    /// Accumulates this parameter's gradient from a completed backward pass.
    ///
    /// No-op if the parameter is frozen or did not participate. Accumulation
    /// is in place: the first collect clones the tape gradient, subsequent
    /// collects add into the existing buffer.
    pub fn collect_grad(&mut self, grads: &Gradients) {
        if !self.trainable {
            return;
        }
        let Some(id) = self.last_id else { return };
        let Some(g) = grads.by_id(id) else { return };
        match &mut self.grad {
            Some(acc) => acc.add_assign(g).expect("param gradient shape drifted"),
            empty => *empty = Some(g.clone()),
        }
    }

    /// Split borrow of the accumulated gradient and the mutable value.
    ///
    /// Optimizers use this to apply in-place update rules without cloning
    /// the gradient first.
    pub fn grad_and_value_mut(&mut self) -> (Option<&Tensor>, &mut Tensor) {
        (self.grad.as_ref(), &mut self.value)
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad = None;
    }

    /// Takes the accumulated gradient out, leaving none, as
    /// [`Param::zero_grad`] does.
    pub(crate) fn take_grad(&mut self) -> Option<Tensor> {
        self.grad.take()
    }

    /// Replaces the accumulated gradient (used by gradient clipping).
    pub fn set_grad(&mut self, grad: Tensor) {
        self.grad = Some(grad);
    }

    /// Number of scalar weights in this parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nazar_tensor::Tape;

    #[test]
    fn frozen_params_do_not_collect() {
        let tape = Tape::new();
        let mut p = Param::new(Tensor::from_vec(vec![2.0], &[1, 1]).unwrap());
        p.set_trainable(false);
        let v = p.bind(&tape);
        let loss = v.mul(&v).sum_all();
        let grads = loss.backward();
        assert!(grads.get(&v).is_none(), "a frozen parameter is a constant");
        p.collect_grad(&grads);
        assert!(p.grad().is_none());
    }

    #[test]
    fn grads_accumulate_across_batches() {
        let mut p = Param::new(Tensor::from_vec(vec![2.0], &[1, 1]).unwrap());
        for _ in 0..2 {
            let tape = Tape::new();
            let v = p.bind(&tape);
            let loss = v.mul(&v).sum_all(); // d/dp p^2 = 2p = 4
            let grads = loss.backward();
            p.collect_grad(&grads);
        }
        assert_eq!(p.grad().unwrap().data(), &[8.0]);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn serde_round_trip_keeps_value_only() {
        let mut p = Param::new(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let tape = Tape::new();
        let v = p.bind(&tape);
        let grads = v.sum_all().backward();
        p.collect_grad(&grads);
        let json = serde_json::to_string(&p).unwrap();
        let q: Param = serde_json::from_str(&json).unwrap();
        assert_eq!(q.value(), p.value());
        assert!(q.grad().is_none());
    }
}
