//! Reverse-mode automatic differentiation on a tape.
//!
//! The tape owns every intermediate [`Tensor`] produced during a forward
//! pass. Each [`Var`] is a lightweight handle (tape pointer + node id).
//! Because parents always have lower node ids than their children, the
//! backward pass is a single reverse sweep over the node vector.
//!
//! The backward returns the gradients of the leaves — the parameters,
//! and the inputs of input-gradient detectors (ODIN, Generalized-ODIN).
//!
//! A value nothing will differentiate with respect to — a frozen weight,
//! an input batch, a running statistic — is registered with
//! [`Tape::constant`] instead. A node needs a gradient if and only if one
//! of its parents does, and the backward sweep computes and allocates
//! nothing for the rest: BN-only adaptation pays no weight-gradient
//! product for a frozen `Linear`, and no input-gradient product below the
//! first trainable node.
//!
//! Every node value and gradient buffer comes from the tape's
//! [`TapePool`] and goes back to it when the tape and its [`Gradients`]
//! drop. A loop that runs one tape per step on a shared pool — TENT and
//! MEMO steps, a training epoch — allocates its buffers in the first step
//! and reuses them in every later one.

use crate::kernels;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The recorded operation that produced a node.
///
/// Constant payloads (e.g. the scalar in `AddScalar`) are kept for `Debug`
/// output even when the backward rule does not need them.
#[derive(Debug, Clone)]
#[allow(dead_code)]
enum Op {
    Leaf,
    Add(usize, usize),
    AddRow(usize, usize),
    SubRow(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MulRow(usize, usize),
    DivRow(usize, usize),
    Scale(usize, f32),
    AddScalar(usize, f32),
    Matmul(usize, usize),
    Relu(usize),
    Exp(usize),
    Ln(usize),
    Sqrt(usize),
    LogSoftmax(usize),
    MeanAxis0(usize),
    SumAll(usize),
    MeanAll(usize),
    NllLoss(usize, Vec<usize>),
    /// [`Var::batch_norm`]; `stats` holds the `[d]` batch mean, then the
    /// `[d]` batch `sqrt(var + eps)`.
    BatchNorm {
        x: usize,
        gamma: usize,
        beta: usize,
        stats: Vec<f32>,
    },
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
    /// Whether the backward sweep computes a gradient for this node: set
    /// for [`Tape::leaf`], clear for [`Tape::constant`], and for any other
    /// node the OR over its parents.
    needs_grad: bool,
}

/// Buffers that outlive the tapes drawing on them.
///
/// A [`Tape`] takes every node value, and its backward sweep every
/// gradient buffer, from its pool; dropping the tape and its
/// [`Gradients`] hands them back, together with the emptied node and
/// gradient lists. The tapes of a step loop share a pool
/// ([`Tape::with_pool`]), so after the first step a step finds every
/// buffer it needs already here and allocates none of them.
///
/// The pool holds what one tape used, not the most any tape ever did:
/// starting a tape on it frees the buffers that sat unused through the
/// whole of the previous one. It is freed with its last handle; a
/// [`Tape::new`] tape has a pool of its own. A handle may move between
/// threads, so a pool can outlive the thread that filled it.
#[derive(Clone, Default)]
pub struct TapePool {
    inner: Arc<Mutex<PoolInner>>,
}

#[derive(Default)]
struct PoolInner {
    /// Free buffers, one stack per capacity, capacities ascending.
    free: Vec<FreeStack>,
    /// The node list of the last tape dropped, emptied.
    nodes: Vec<Node>,
    /// The gradient list of the last [`Gradients`] dropped, emptied.
    grads: Vec<Option<Tensor>>,
}

/// The free buffers of one capacity.
struct FreeStack {
    cap: usize,
    bufs: Vec<Vec<f32>>,
    /// How many of `bufs` no take has reached since the last tape
    /// started: the stack's low-water mark.
    idle: usize,
}

impl fmt::Debug for TapePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TapePool({} buffers)", self.buffers())
    }
}

impl TapePool {
    /// An empty pool.
    pub fn new() -> Self {
        TapePool::default()
    }

    /// The pool's contents. No update of them can stop part-way — each
    /// moves whole buffers and lists — so a poisoned lock is taken as it
    /// is.
    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of buffers waiting in the pool.
    pub(crate) fn buffers(&self) -> usize {
        self.lock().free.iter().map(|s| s.bufs.len()).sum()
    }

    /// A buffer of exactly `len` elements with unspecified contents: the
    /// pooled one of least capacity that fits, or a new one if none fits
    /// within twice `len` — so a small tape after a large one leaves the
    /// large buffers idle for the next tape to free.
    fn take(&self, len: usize) -> Vec<f32> {
        let mut inner = self.lock();
        let fits = inner.free.partition_point(|s| s.cap < len);
        let Some(mut buf) = inner.free[fits..]
            .iter_mut()
            .take_while(|s| s.cap <= len.saturating_mul(2))
            .find_map(|s| {
                let buf = s.bufs.pop()?;
                s.idle = s.idle.min(s.bufs.len());
                Some(buf)
            })
        else {
            return vec![0.0; len];
        };
        // A recycled buffer keeps its old length, so this zero-fills only
        // capacity no value has used yet.
        buf.resize(len, 0.0);
        buf
    }

    /// `take` as the output allocator of the `Tensor` `*_in` operations.
    fn alloc(&self) -> impl FnOnce(usize) -> Vec<f32> + '_ {
        |len| self.take(len)
    }

    fn recycle(&self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let mut inner = self.lock();
        match inner.free.binary_search_by_key(&cap, |s| s.cap) {
            Ok(i) => inner.free[i].bufs.push(buf),
            Err(i) => inner.free.insert(
                i,
                FreeStack {
                    cap,
                    bufs: vec![buf],
                    idle: 0,
                },
            ),
        }
    }
}

impl PoolInner {
    /// Frees the buffers no take reached since the last call. A step loop
    /// takes the same buffers every step, so this frees nothing there; a
    /// smaller tape after a larger one gives the difference back.
    fn trim(&mut self) {
        for stack in &mut self.free {
            stack.bufs.truncate(stack.bufs.len() - stack.idle);
            stack.idle = stack.bufs.len();
        }
        self.free.retain(|s| !s.bufs.is_empty());
    }
}

#[derive(Default)]
struct TapeInner {
    nodes: Vec<Node>,
    pool: TapePool,
}

impl Drop for TapeInner {
    fn drop(&mut self) {
        let mut nodes = std::mem::take(&mut self.nodes);
        for node in nodes.drain(..) {
            self.pool.recycle(node.value.into_data());
            if let Op::BatchNorm { stats, .. } = node.op {
                self.pool.recycle(stats);
            }
        }
        let mut pool = self.pool.lock();
        if nodes.capacity() > pool.nodes.capacity() {
            pool.nodes = nodes;
        }
    }
}

/// A gradient tape for reverse-mode automatic differentiation.
///
/// Create leaves with [`Tape::leaf`], compose [`Var`] operations, then call
/// [`Var::backward`] on a scalar result to obtain [`Gradients`].
///
/// # Example
///
/// ```
/// use nazar_tensor::{Tape, Tensor};
///
/// let tape = Tape::new();
/// let w = tape.leaf(Tensor::from_vec(vec![2.0], &[1, 1]).unwrap());
/// let x = tape.leaf(Tensor::from_vec(vec![3.0], &[1, 1]).unwrap());
/// let y = w.matmul(&x).sum_all();
/// let grads = y.backward();
/// assert_eq!(grads.get(&w).unwrap().data(), &[3.0]);
/// assert_eq!(grads.get(&x).unwrap().data(), &[2.0]);
/// ```
#[derive(Clone, Default)]
pub struct Tape {
    inner: Rc<RefCell<TapeInner>>,
}

impl fmt::Debug for Tape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tape({} nodes)", self.inner.borrow().nodes.len())
    }
}

impl Tape {
    /// Creates an empty tape with a pool of its own.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Creates an empty tape that takes its buffers from `pool` and hands
    /// them back to it when it drops. The pool first frees the buffers
    /// the previous tape on it left unused.
    pub fn with_pool(pool: &TapePool) -> Self {
        let nodes = {
            let mut inner = pool.lock();
            inner.trim();
            std::mem::take(&mut inner.nodes)
        };
        Tape {
            inner: Rc::new(RefCell::new(TapeInner {
                nodes,
                pool: pool.clone(),
            })),
        }
    }

    /// Number of nodes currently recorded.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Whether the tape has recorded any node.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registers `value` as a differentiable leaf and returns its handle.
    /// An owned tensor moves onto the tape as it is. A borrowed one — a
    /// parameter, a data set — is copied into a buffer from the tape's
    /// pool, never cloned.
    pub fn leaf<'a>(&self, value: impl Into<Cow<'a, Tensor>>) -> Var {
        self.register(value.into(), true)
    }

    /// Registers `value`, moved or copied as by [`Tape::leaf`], as a leaf
    /// no gradient is wanted for. It takes part in the forward pass like
    /// any other; [`Var::backward`] computes nothing for it, nor for any
    /// node built from constants alone, and [`Gradients::get`] returns
    /// `None` for them.
    pub fn constant<'a>(&self, value: impl Into<Cow<'a, Tensor>>) -> Var {
        self.register(value.into(), false)
    }

    /// [`Tape::constant`] of the given rows of the matrix `value`, in
    /// order — a mini-batch, gathered straight into a pooled buffer.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not a matrix or a row is out of bounds.
    pub fn constant_rows(&self, value: &Tensor, rows: impl ExactSizeIterator<Item = usize>) -> Var {
        let d = value
            .ncols()
            .unwrap_or_else(|e| panic!("constant_rows: {e}"));
        let n = rows.len();
        let mut data = self.inner.borrow().pool.take(n * d);
        for (out, i) in data.chunks_exact_mut(d.max(1)).zip(rows) {
            let row = value
                .row(i)
                .unwrap_or_else(|e| panic!("constant_rows: {e}"));
            out.copy_from_slice(row);
        }
        self.push(Tensor::from_raw(data, &[n, d]), Op::Leaf, false)
    }

    fn register(&self, value: Cow<'_, Tensor>, needs_grad: bool) -> Var {
        let value = match value {
            Cow::Owned(value) => value,
            Cow::Borrowed(value) => value.map_in(self.inner.borrow().pool.alloc(), |v| v),
        };
        self.push(value, Op::Leaf, needs_grad)
    }

    fn push(&self, value: Tensor, op: Op, needs_grad: bool) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        inner.nodes.push(Node {
            value,
            op,
            needs_grad,
        });
        Var {
            tape: self.clone(),
            id,
        }
    }
}

/// The gradients of a backward root with respect to the tape's leaves,
/// indexed by the [`Var`] they belong to.
///
/// Dropping them hands their buffers back to the tape's [`TapePool`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
    pool: TapePool,
}

impl Gradients {
    /// The gradient of the backward root with respect to `var`, if `var`
    /// is a [`Tape::leaf`] that participated in the computation: `None`
    /// for a [`Tape::constant`] and for every operation's output.
    pub fn get(&self, var: &Var) -> Option<&Tensor> {
        self.by_id(var.id)
    }

    /// The gradient for the node with the given tape id.
    ///
    /// Parameters that must remain `Send` (e.g. model weights shared across
    /// scoped threads) record the plain [`Var::id`] instead of holding a
    /// `Var` (whose tape pointer is an `Rc`), and look their gradient up
    /// here after the backward pass.
    pub fn by_id(&self, id: usize) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }
}

impl Drop for Gradients {
    fn drop(&mut self) {
        let mut grads = std::mem::take(&mut self.grads);
        for g in grads.drain(..).flatten() {
            self.pool.recycle(g.into_data());
        }
        let mut pool = self.pool.lock();
        if grads.capacity() > pool.grads.capacity() {
            pool.grads = grads;
        }
    }
}

/// A handle to a node on a [`Tape`].
///
/// `Var` is cheap to clone (a reference-counted tape pointer and an index).
/// All arithmetic records a new node; nothing mutates in place.
///
/// # Panics
///
/// Operations panic when operand shapes are incompatible or when combining
/// variables from different tapes — both are programmer errors in model code,
/// mirroring the panic-on-shape-mismatch convention of mainstream tensor
/// libraries.
#[derive(Clone)]
pub struct Var {
    tape: Tape,
    id: usize,
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Var(id={}, shape={:?})", self.id, self.dims())
    }
}

impl Var {
    /// A snapshot of this node's value.
    pub fn value(&self) -> Tensor {
        self.tape.inner.borrow().nodes[self.id].value.clone()
    }

    /// The dimensions of this node's value, without copying the value.
    pub fn dims(&self) -> Vec<usize> {
        self.tape.inner.borrow().nodes[self.id]
            .value
            .dims()
            .to_vec()
    }

    /// The node id on its tape (stable for the tape's lifetime).
    pub fn id(&self) -> usize {
        self.id
    }

    fn same_tape(&self, other: &Var) {
        assert!(
            Rc::ptr_eq(&self.tape.inner, &other.tape.inner),
            "cannot combine vars from different tapes"
        );
    }

    fn binary(&self, other: &Var, op: fn(usize, usize) -> Op, name: &str) -> Var {
        self.same_tape(other);
        // Operands are read in place on the tape, not copied out of it.
        let (value, needs_grad) = {
            let inner = self.tape.inner.borrow();
            let (a, b) = (&inner.nodes[self.id], &inner.nodes[other.id]);
            let (av, bv, alloc) = (&a.value, &b.value, inner.pool.alloc());
            let value = match op(0, 0) {
                Op::Add(..) => av.zip_with_in(bv, alloc, |x, y| x + y),
                Op::AddRow(..) => av.broadcast_row_in("add_row", bv, alloc, |x, y| x + y),
                Op::SubRow(..) => av.broadcast_row_in("sub_row", bv, alloc, |x, y| x - y),
                Op::Sub(..) => av.zip_with_in(bv, alloc, |x, y| x - y),
                Op::Mul(..) => av.zip_with_in(bv, alloc, |x, y| x * y),
                Op::MulRow(..) => av.broadcast_row_in("mul_row", bv, alloc, |x, y| x * y),
                Op::DivRow(..) => av.broadcast_row_in("div_row", bv, alloc, |x, y| x / y),
                Op::Matmul(..) => av.matmul_in(bv, alloc),
                _ => unreachable!(),
            };
            (value, a.needs_grad || b.needs_grad)
        };
        let value = value.unwrap_or_else(|e| panic!("{name}: {e}"));
        self.tape.push(value, op(self.id, other.id), needs_grad)
    }

    /// Records `op` with the value `f` computes from this node's, read in
    /// place on the tape, into a buffer from the tape's pool.
    fn unary(&self, op: Op, f: impl FnOnce(&Tensor, &TapePool) -> Tensor) -> Var {
        let (value, needs_grad) = {
            let inner = self.tape.inner.borrow();
            let node = &inner.nodes[self.id];
            (f(&node.value, &inner.pool), node.needs_grad)
        };
        self.tape.push(value, op, needs_grad)
    }

    /// [`Var::unary`] for an elementwise `f`.
    fn map(&self, op: Op, f: impl Fn(f32) -> f32) -> Var {
        self.unary(op, |x, pool| x.map_in(pool.alloc(), f))
    }

    /// [`Var::unary`] for a scalar result.
    fn scalar(&self, op: Op, f: impl FnOnce(&Tensor) -> f32) -> Var {
        self.unary(op, |x, pool| Tensor::full_in(&[], f(x), pool.alloc()))
    }

    /// Elementwise sum. See [`Tensor::add`].
    pub fn add(&self, other: &Var) -> Var {
        self.binary(other, Op::Add, "add")
    }

    /// Adds a `[d]` vector variable to every row of this `[n, d]` variable.
    pub fn add_row(&self, other: &Var) -> Var {
        self.binary(other, Op::AddRow, "add_row")
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Var) -> Var {
        self.binary(other, Op::Sub, "sub")
    }

    /// Subtracts a `[d]` vector variable from every row of this `[n, d]` variable.
    pub fn sub_row(&self, other: &Var) -> Var {
        self.binary(other, Op::SubRow, "sub_row")
    }

    /// Elementwise product.
    pub fn mul(&self, other: &Var) -> Var {
        self.binary(other, Op::Mul, "mul")
    }

    /// Multiplies every row of this `[n, d]` variable by a `[d]` variable.
    pub fn mul_row(&self, other: &Var) -> Var {
        self.binary(other, Op::MulRow, "mul_row")
    }

    /// Divides every row of this `[n, d]` variable by a `[d]` variable.
    pub fn div_row(&self, other: &Var) -> Var {
        self.binary(other, Op::DivRow, "div_row")
    }

    /// Matrix product.
    pub fn matmul(&self, other: &Var) -> Var {
        self.binary(other, Op::Matmul, "matmul")
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&self, c: f32) -> Var {
        self.map(Op::Scale(self.id, c), |x| x * c)
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&self, c: f32) -> Var {
        self.map(Op::AddScalar(self.id, c), |x| x + c)
    }

    /// Rectified linear unit, elementwise.
    pub fn relu(&self) -> Var {
        self.map(Op::Relu(self.id), |v| v.max(0.0))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        self.map(Op::Exp(self.id), f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        self.map(Op::Ln(self.id), f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        self.map(Op::Sqrt(self.id), f32::sqrt)
    }

    /// Row-wise log-softmax of an `[n, c]` logit matrix.
    pub fn log_softmax(&self) -> Var {
        self.unary(Op::LogSoftmax(self.id), |x, pool| {
            x.log_softmax_rows_in(pool.alloc())
                .unwrap_or_else(|e| panic!("log_softmax: {e}"))
        })
    }

    /// Column means of an `[n, d]` matrix, as a `[d]` vector.
    pub fn mean_axis0(&self) -> Var {
        self.unary(Op::MeanAxis0(self.id), |x, pool| {
            x.mean_axis0_in(pool.alloc())
                .unwrap_or_else(|e| panic!("mean_axis0: {e}"))
        })
    }

    /// Sum of all elements, as a scalar variable.
    pub fn sum_all(&self) -> Var {
        self.scalar(Op::SumAll(self.id), Tensor::sum_all)
    }

    /// Mean of all elements, as a scalar variable.
    pub fn mean_all(&self) -> Var {
        self.scalar(Op::MeanAll(self.id), |x| {
            x.mean_all().unwrap_or_else(|e| panic!("mean_all: {e}"))
        })
    }

    /// Negative log-likelihood loss over row-wise log-probabilities.
    ///
    /// `self` must be an `[n, c]` log-probability matrix (e.g. produced by
    /// [`Var::log_softmax`]); `targets` gives the true class per row. The
    /// result is the scalar `-(1/n) Σᵢ logp[i, targetᵢ]`.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the row count or a target is
    /// out of class range.
    pub fn nll_loss(&self, targets: &[usize]) -> Var {
        self.scalar(Op::NllLoss(self.id, targets.to_vec()), |lp| {
            let (n, c) = (
                lp.nrows().expect("nll_loss: rank-2 input"),
                lp.ncols().unwrap(),
            );
            assert_eq!(targets.len(), n, "nll_loss: one target per row required");
            let mut acc = 0.0;
            for (i, &t) in targets.iter().enumerate() {
                assert!(t < c, "nll_loss: target {t} out of range for {c} classes");
                acc -= lp.data()[i * c + t];
            }
            acc / n as f32
        })
    }

    /// Batch-statistic batch normalization of this `[n, d]` variable:
    /// `y = (x - mean) / sqrt(var + eps) * γ + β` over the batch's column
    /// mean and (population) variance, for `[d]` variables γ and β.
    /// Returns `y` with the batch mean and variance, which the caller folds
    /// into its running statistics.
    ///
    /// One node, with a hand-written backward, for what the composition
    /// `x.mean_axis0()` → `sub_row` → `mul` → `mean_axis0` →
    /// `add_scalar(eps)` → `sqrt` → `div_row` → `mul_row(γ)` → `add_row(β)`
    /// records in nine. Forward and backward perform the composition's
    /// float operations in its order, so every value and every gradient is
    /// bitwise the composition's (the oracle in `kernel_equivalence.rs`).
    /// The node keeps `y` and the per-column mean and standard deviation;
    /// the backward recomputes the centered values from `x`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a non-empty `[n, d]` matrix, γ or β is not
    /// `[d]`, or the three come from different tapes.
    pub fn batch_norm(&self, gamma: &Var, beta: &Var, eps: f32) -> (Var, Tensor, Tensor) {
        self.same_tape(gamma);
        self.same_tape(beta);
        let (y, op, mean, var, needs_grad) = {
            let inner = self.tape.inner.borrow();
            let [x, g, b] = [self.id, gamma.id, beta.id].map(|id| &inner.nodes[id]);
            let (n, d) = match *x.value.dims() {
                [n, d] if n > 0 && d > 0 => (n, d),
                ref dims => {
                    panic!("batch_norm: input must be a non-empty [n, d] batch, got {dims:?}")
                }
            };
            assert!(
                g.value.dims() == [d] && b.value.dims() == [d],
                "batch_norm: γ and β must be [{d}], got {:?} and {:?}",
                g.value.dims(),
                b.value.dims()
            );
            let mut stats = inner.pool.take(2 * d);
            let mut y = inner.pool.take(n * d);
            let mut var = vec![0.0; d];
            let (mean, std) = stats.split_at_mut(d);
            kernels::mean_axis0_into(x.value.data(), n, d, mean);
            // The squared centered values borrow `y` until the output
            // overwrites them.
            for (yrow, xrow) in y.chunks_exact_mut(d).zip(x.value.data().chunks_exact(d)) {
                for ((o, &v), &m) in yrow.iter_mut().zip(xrow).zip(&*mean) {
                    let c = v - m;
                    *o = c * c;
                }
            }
            kernels::mean_axis0_into(&y, n, d, &mut var);
            for (s, &v) in std.iter_mut().zip(&var) {
                *s = (v + eps).sqrt();
            }
            let (gamma_v, beta_v) = (g.value.data(), b.value.data());
            for (yrow, xrow) in y.chunks_exact_mut(d).zip(x.value.data().chunks_exact(d)) {
                for (((((o, &v), &m), &s), &ga), &be) in yrow
                    .iter_mut()
                    .zip(xrow)
                    .zip(&*mean)
                    .zip(&*std)
                    .zip(gamma_v)
                    .zip(beta_v)
                {
                    *o = (v - m) / s * ga + be;
                }
            }
            let mean = Tensor::from_raw(mean.to_vec(), &[d]);
            let op = Op::BatchNorm {
                x: self.id,
                gamma: gamma.id,
                beta: beta.id,
                stats,
            };
            let needs_grad = x.needs_grad || g.needs_grad || b.needs_grad;
            let var = Tensor::from_raw(var, &[d]);
            (Tensor::from_raw(y, &[n, d]), op, mean, var, needs_grad)
        };
        (self.tape.push(y, op, needs_grad), mean, var)
    }

    /// Runs the backward pass from this (scalar) variable.
    ///
    /// Returns the gradient of `self` with respect to every
    /// [`Tape::leaf`] that contributed to it. The sweep computes a
    /// gradient for every node with a leaf among its ancestors, and hands
    /// an operation's buffer back to the tape's [`TapePool`] once the node
    /// has passed it on to its parents — no later node reads it — so the
    /// buffers live at once are the leaves' and a frontier's, not one per
    /// node. A [`Tape::constant`], and a node built from constants alone,
    /// gets no buffer and costs no work: each contribution to such a
    /// parent is skipped.
    ///
    /// The sweep is written over the in-place [`kernels`]: each node's
    /// contribution is accumulated directly into its parents' gradient
    /// buffers (taken from the pool), and the matmul backward adds
    /// `g · bᵀ` and `aᵀ · g` into them through
    /// [`kernels::matmul_a_bt_into`] and [`kernels::matmul_at_b_into`].
    /// Skipping a contribution never reorders the ones that remain, so a
    /// gradient that is computed is bitwise the one the all-leaves tape
    /// gives.
    ///
    /// # Panics
    ///
    /// Panics if `self` does not hold exactly one element.
    pub fn backward(&self) -> Gradients {
        let inner = self.tape.inner.borrow();
        let (nodes, pool) = (&inner.nodes, &inner.pool);
        let root = &nodes[self.id].value;
        assert_eq!(root.len(), 1, "backward requires a scalar root");
        let needs = |id: usize| nodes[id].needs_grad;
        let mut grads = std::mem::take(&mut pool.lock().grads);
        grads.resize(nodes.len(), None);
        if needs(self.id) {
            grads[self.id] = Some(Tensor::full_in(root.dims(), 1.0, pool.alloc()));
        }
        #[cfg(test)]
        tests::SWEPT.with(|swept| swept.borrow_mut().clear());

        for id in (0..=self.id).rev() {
            // Parents always have lower ids, so the split borrows this
            // node's gradient immutably while parents stay writable.
            let (parents, rest) = grads.split_at_mut(id);
            // A node that needs no gradient never received one. A node
            // with one parent needs a gradient exactly when the parent
            // does, so only the multi-parent rules check each side.
            let Some(g) = rest[0].as_ref() else { continue };
            #[cfg(test)]
            tests::SWEPT.with(|swept| swept.borrow_mut().insert(id, tests::bits(g)));
            let node = &nodes[id];
            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    if needs(*a) {
                        acc_copy(parents, *a, g, pool);
                    }
                    if needs(*b) {
                        acc_copy(parents, *b, g, pool);
                    }
                }
                Op::AddRow(a, b) => {
                    if needs(*b) {
                        let (n, d) = row_dims(g);
                        kernels::sum_axis0_assign(
                            g.data(),
                            n,
                            d,
                            slot(parents, *b, nodes, pool).data_mut(),
                        );
                    }
                    if needs(*a) {
                        acc_copy(parents, *a, g, pool);
                    }
                }
                Op::SubRow(a, b) => {
                    if needs(*b) {
                        let (_, d) = row_dims(g);
                        let gb = slot(parents, *b, nodes, pool);
                        for row in g.data().chunks_exact(d) {
                            for (o, &x) in gb.data_mut().iter_mut().zip(row) {
                                *o -= x;
                            }
                        }
                    }
                    if needs(*a) {
                        acc_copy(parents, *a, g, pool);
                    }
                }
                Op::Sub(a, b) => {
                    if needs(*a) {
                        acc_copy(parents, *a, g, pool);
                    }
                    if needs(*b) {
                        axpy(slot(parents, *b, nodes, pool), -1.0, g);
                    }
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
                    if needs(*a) {
                        kernels::fma_assign(
                            slot(parents, *a, nodes, pool).data_mut(),
                            g.data(),
                            bv.data(),
                        );
                    }
                    if needs(*b) {
                        kernels::fma_assign(
                            slot(parents, *b, nodes, pool).data_mut(),
                            g.data(),
                            av.data(),
                        );
                    }
                }
                Op::MulRow(a, b) => {
                    let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
                    let (_, d) = row_dims(g);
                    if needs(*a) {
                        let ga = slot(parents, *a, nodes, pool);
                        for (orow, grow) in ga
                            .data_mut()
                            .chunks_exact_mut(d)
                            .zip(g.data().chunks_exact(d))
                        {
                            kernels::fma_assign(orow, grow, bv.data());
                        }
                    }
                    if needs(*b) {
                        let gb = slot(parents, *b, nodes, pool);
                        for (grow, arow) in g.data().chunks_exact(d).zip(av.data().chunks_exact(d))
                        {
                            kernels::fma_assign(gb.data_mut(), grow, arow);
                        }
                    }
                }
                Op::DivRow(a, b) => {
                    let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
                    let (_, d) = row_dims(g);
                    if needs(*a) {
                        let ga = slot(parents, *a, nodes, pool);
                        for (orow, grow) in ga
                            .data_mut()
                            .chunks_exact_mut(d)
                            .zip(g.data().chunks_exact(d))
                        {
                            for ((o, &gv), &b) in orow.iter_mut().zip(grow).zip(bv.data()) {
                                *o += gv / b;
                            }
                        }
                    }
                    if needs(*b) {
                        // d/db (a/b) = -a / b^2, summed over the broadcast rows.
                        let gb = slot(parents, *b, nodes, pool);
                        for (grow, arow) in g.data().chunks_exact(d).zip(av.data().chunks_exact(d))
                        {
                            for (((o, &gv), &a), &b) in
                                gb.data_mut().iter_mut().zip(grow).zip(arow).zip(bv.data())
                            {
                                *o -= gv * a / (b * b);
                            }
                        }
                    }
                }
                Op::Scale(a, c) => axpy(slot(parents, *a, nodes, pool), *c, g),
                Op::AddScalar(a, _) => acc_copy(parents, *a, g, pool),
                Op::Matmul(a, b) => {
                    let (av, bv) = (&nodes[*a].value, &nodes[*b].value);
                    let (n, k) = row_dims(av);
                    let (_, m) = row_dims(bv);
                    if needs(*a) {
                        let ga = slot(parents, *a, nodes, pool);
                        Workspace::with_thread_local(|ws| {
                            let (g, b) = (g.data(), bv.data());
                            kernels::matmul_a_bt_into(g, b, n, m, k, ga.data_mut(), ws);
                        });
                    }
                    if needs(*b) {
                        let gb = slot(parents, *b, nodes, pool);
                        kernels::matmul_at_b_into(av.data(), g.data(), n, k, m, gb.data_mut());
                    }
                }
                Op::Relu(a) => {
                    let av = &nodes[*a].value;
                    let ga = slot(parents, *a, nodes, pool);
                    for ((o, &gv), &x) in ga.data_mut().iter_mut().zip(g.data()).zip(av.data()) {
                        if x > 0.0 {
                            *o += gv;
                        }
                    }
                }
                Op::Exp(a) => {
                    kernels::fma_assign(
                        slot(parents, *a, nodes, pool).data_mut(),
                        g.data(),
                        node.value.data(),
                    );
                }
                Op::Ln(a) => {
                    let av = &nodes[*a].value;
                    let ga = slot(parents, *a, nodes, pool);
                    for ((o, &gv), &x) in ga.data_mut().iter_mut().zip(g.data()).zip(av.data()) {
                        *o += gv / x;
                    }
                }
                Op::Sqrt(a) => {
                    let ga = slot(parents, *a, nodes, pool);
                    for ((o, &gv), &y) in ga
                        .data_mut()
                        .iter_mut()
                        .zip(g.data())
                        .zip(node.value.data())
                    {
                        *o += gv * (0.5 / y);
                    }
                }
                Op::LogSoftmax(a) => {
                    // d logsoftmax: g - softmax(a) * rowsum(g)
                    let (_, c) = row_dims(&node.value);
                    let ga = slot(parents, *a, nodes, pool);
                    for ((orow, grow), lprow) in ga
                        .data_mut()
                        .chunks_exact_mut(c)
                        .zip(g.data().chunks_exact(c))
                        .zip(node.value.data().chunks_exact(c))
                    {
                        let s: f32 = grow.iter().sum();
                        for ((o, &gv), &lp) in orow.iter_mut().zip(grow).zip(lprow) {
                            *o += gv - lp.exp() * s;
                        }
                    }
                }
                Op::MeanAxis0(a) => {
                    let (n, d) = row_dims(&nodes[*a].value);
                    let inv_n = 1.0 / n as f32;
                    for orow in slot(parents, *a, nodes, pool)
                        .data_mut()
                        .chunks_exact_mut(d)
                    {
                        kernels::axpy_into(inv_n, g.data(), orow);
                    }
                }
                Op::SumAll(a) => {
                    let c = g.data()[0];
                    slot(parents, *a, nodes, pool).map_inplace(|x| x + c);
                }
                Op::MeanAll(a) => {
                    let c = g.data()[0] / nodes[*a].value.len() as f32;
                    slot(parents, *a, nodes, pool).map_inplace(|x| x + c);
                }
                Op::NllLoss(a, targets) => {
                    let (n, c) = row_dims(&nodes[*a].value);
                    let coef = -g.data()[0] / n as f32;
                    let ga = slot(parents, *a, nodes, pool);
                    for (i, &t) in targets.iter().enumerate() {
                        ga.data_mut()[i * c + t] += coef;
                    }
                }
                Op::BatchNorm {
                    x,
                    gamma,
                    beta,
                    stats,
                } => {
                    let (xv, gamma_v) = (&nodes[*x].value, nodes[*gamma].value.data());
                    let (n, d) = row_dims(xv);
                    let (mean, std) = stats.split_at(d);
                    let rows = || g.data().chunks_exact(d).zip(xv.data().chunks_exact(d));
                    if needs(*beta) {
                        kernels::sum_axis0_assign(
                            g.data(),
                            n,
                            d,
                            slot(parents, *beta, nodes, pool).data_mut(),
                        );
                    }
                    if needs(*gamma) {
                        // ∂/∂γ = Σᵢ g · x̂, x̂ recomputed as the forward did.
                        let gg = slot(parents, *gamma, nodes, pool).data_mut();
                        for (grow, xrow) in rows() {
                            for ((((o, &gv), &v), &m), &s) in
                                gg.iter_mut().zip(grow).zip(xrow).zip(mean).zip(std)
                            {
                                *o += gv * ((v - m) / s);
                            }
                        }
                    }
                    if needs(*x) {
                        batch_norm_input_grad(parents, *x, g, xv, gamma_v, stats, pool);
                    }
                }
            }
            if !matches!(node.op, Op::Leaf) {
                if let Some(done) = rest[0].take() {
                    pool.recycle(done.into_data());
                }
            }
        }
        Gradients {
            grads,
            pool: pool.clone(),
        }
    }
}

/// `grads[x] += ∂/∂x` for [`Var::batch_norm`], performing the float
/// operations of the composition's backward in its order. With the
/// centered values `c = x − mean` recomputed and `s = sqrt(var + eps)`,
/// every gradient the composition starts in a zeroed slot keeps its `0 +`:
///
/// * `∂x̂ = 0 + g·γ`, then `∂c = 0 + ∂x̂/s`;
/// * `∂s = Σᵢ −(∂x̂·c)/(s·s)` from zero, in row order;
/// * `∂(var + eps) = 0 + ∂s·(0.5/s)`, `∂var` a copy of it, and
///   `k = ∂(c·c) = 0 + (1/n)·∂var`, one value per column;
/// * `∂c += k·c` twice, once per operand of the `c·c` product;
/// * `∂mean = Σᵢ −∂c` from zero, in row order;
/// * `∂x` takes `∂c` (a copy into an empty slot, else `+=`), then
///   `+= (1/n)·∂mean`.
fn batch_norm_input_grad(
    grads: &mut [Option<Tensor>],
    x: usize,
    g: &Tensor,
    xv: &Tensor,
    gamma: &[f32],
    stats: &[f32],
    pool: &TapePool,
) {
    let (n, d) = row_dims(xv);
    let (mean, std) = stats.split_at(d);
    let inv_n = 1.0 / n as f32;
    let rows = || g.data().chunks_exact(d).zip(xv.data().chunks_exact(d));
    // `k` is ∂/∂std until the second loop makes it ∂/∂(c·c).
    let mut k = pool.take(d);
    k.fill(0.0);
    for (grow, xrow) in rows() {
        for (((((o, &gv), &v), &m), &s), &ga) in k
            .iter_mut()
            .zip(grow)
            .zip(xrow)
            .zip(mean)
            .zip(std)
            .zip(gamma)
        {
            let g_xhat = 0.0 + gv * ga;
            *o -= g_xhat * (v - m) / (s * s);
        }
    }
    for (o, &s) in k.iter_mut().zip(std) {
        let g_var = 0.0 + *o * (0.5 / s);
        *o = 0.0 + inv_n * g_var;
    }
    let mut g_mean = pool.take(d);
    g_mean.fill(0.0);
    let empty = grads[x].is_none();
    // An empty slot takes `c` as it is: its stale contents are never read.
    let gx = grads[x].get_or_insert_with(|| Tensor::from_raw(pool.take(xv.len()), xv.dims()));
    for (orow, (grow, xrow)) in gx.data_mut().chunks_exact_mut(d).zip(rows()) {
        for (((((((o, &gv), &v), &m), &s), &ga), &kj), gm) in orow
            .iter_mut()
            .zip(grow)
            .zip(xrow)
            .zip(mean)
            .zip(std)
            .zip(gamma)
            .zip(&k)
            .zip(g_mean.iter_mut())
        {
            let c = v - m;
            let mut g_c = 0.0 + (0.0 + gv * ga) / s;
            g_c += kj * c;
            g_c += kj * c;
            *gm -= g_c;
            *o = if empty { g_c } else { *o + g_c };
        }
    }
    for orow in gx.data_mut().chunks_exact_mut(d) {
        kernels::axpy_into(inv_n, &g_mean, orow);
    }
    pool.recycle(k);
    pool.recycle(g_mean);
}

/// Rows and columns of a rank-2 node value (backward-pass internal).
fn row_dims(t: &Tensor) -> (usize, usize) {
    (
        t.nrows().expect("backward: rank-2 value"),
        t.ncols().expect("backward: rank-2 value"),
    )
}

/// The gradient accumulator for node `id`, zeroed from `pool` on first
/// use.
fn slot<'g>(
    grads: &'g mut [Option<Tensor>],
    id: usize,
    nodes: &[Node],
    pool: &TapePool,
) -> &'g mut Tensor {
    grads[id].get_or_insert_with(|| Tensor::full_in(nodes[id].value.dims(), 0.0, pool.alloc()))
}

/// `grads[id] += g`, into a copy of `g` from `pool` if `id` has no
/// gradient yet.
fn acc_copy(grads: &mut [Option<Tensor>], id: usize, g: &Tensor, pool: &TapePool) {
    match &mut grads[id] {
        Some(acc) => acc
            .add_assign(g)
            .expect("gradient accumulation shape mismatch"),
        empty => *empty = Some(g.map_in(pool.alloc(), |v| v)),
    }
}

/// `acc += alpha * g`.
fn axpy(acc: &mut Tensor, alpha: f32, g: &Tensor) {
    acc.axpy_assign(alpha, g)
        .expect("gradient accumulation shape mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    thread_local! {
        /// Every gradient the last backward sweep on this thread computed,
        /// by node id, as the sweep reached it: complete, and before an
        /// operation's goes back to the pool.
        pub(super) static SWEPT: RefCell<BTreeMap<usize, Vec<u32>>> =
            const { RefCell::new(BTreeMap::new()) };
    }

    pub(super) fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The backward from `root`, and what its sweep computed.
    fn sweep(root: &Var) -> (Gradients, BTreeMap<usize, Vec<u32>>) {
        let grads = root.backward();
        (grads, SWEPT.with(|swept| swept.take()))
    }

    /// Central finite-difference gradient of a scalar function of a tensor.
    fn fd<F: Fn(&Tensor) -> f32>(f: F, x0: &Tensor, eps: f32) -> Tensor {
        let mut out = Tensor::zeros(x0.dims());
        for i in 0..x0.len() {
            let mut p = x0.clone();
            p.data_mut()[i] += eps;
            let mut m = x0.clone();
            m.data_mut()[i] -= eps;
            out.data_mut()[i] = (f(&p) - f(&m)) / (2.0 * eps);
        }
        out
    }

    #[test]
    fn grad_matmul_chain() {
        let mut rng = SmallRng::seed_from_u64(1);
        let x0 = Tensor::randn(&mut rng, &[3, 4], 0.0, 1.0);
        let w0 = Tensor::randn(&mut rng, &[4, 2], 0.0, 1.0);

        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let w = tape.leaf(w0.clone());
        let y = x.matmul(&w).relu().sum_all();
        let grads = y.backward();

        let w0c = w0.clone();
        let nx = fd(
            |x| x.matmul(&w0c).unwrap().map(|v| v.max(0.0)).sum_all(),
            &x0,
            1e-2,
        );
        assert!(grads.get(&x).unwrap().approx_eq(&nx, 1e-2));

        let x0c = x0.clone();
        let nw = fd(
            |w| x0c.matmul(w).unwrap().map(|v| v.max(0.0)).sum_all(),
            &w0,
            1e-2,
        );
        assert!(grads.get(&w).unwrap().approx_eq(&nw, 1e-2));
    }

    #[test]
    fn grad_log_softmax_nll() {
        let mut rng = SmallRng::seed_from_u64(2);
        let x0 = Tensor::randn(&mut rng, &[4, 3], 0.0, 1.0);
        let targets = vec![0usize, 2, 1, 1];

        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let loss = x.log_softmax().nll_loss(&targets);
        let grads = loss.backward();

        let t = targets.clone();
        let n = fd(
            |x| {
                let lp = x.log_softmax_rows().unwrap();
                let c = lp.ncols().unwrap();
                -t.iter()
                    .enumerate()
                    .map(|(i, &ti)| lp.data()[i * c + ti])
                    .sum::<f32>()
                    / t.len() as f32
            },
            &x0,
            1e-2,
        );
        assert!(grads.get(&x).unwrap().approx_eq(&n, 1e-2));
    }

    #[test]
    fn grad_entropy_objective() {
        // The TENT objective: H = -(1/n) Σ_i Σ_c p log p with p = softmax(x).
        let mut rng = SmallRng::seed_from_u64(3);
        let x0 = Tensor::randn(&mut rng, &[3, 4], 0.0, 1.5);

        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let lp = x.log_softmax();
        let p = lp.exp();
        let h = p.mul(&lp).sum_all().scale(-1.0 / 3.0);
        let grads = h.backward();

        let n = fd(
            |x| {
                let lp = x.log_softmax_rows().unwrap();
                let p = lp.map(f32::exp);
                -p.mul(&lp).unwrap().sum_all() / 3.0
            },
            &x0,
            1e-2,
        );
        assert!(grads.get(&x).unwrap().approx_eq(&n, 5e-2));
    }

    #[test]
    fn grad_batchnorm_composite() {
        // x_hat = (x - mean0(x)) / sqrt(var0(x) + eps), gamma/beta affine.
        let mut rng = SmallRng::seed_from_u64(4);
        let x0 = Tensor::randn(&mut rng, &[5, 3], 1.0, 2.0);
        let gamma0 = Tensor::randn(&mut rng, &[3], 1.0, 0.1);
        let beta0 = Tensor::randn(&mut rng, &[3], 0.0, 0.1);
        let eps = 1e-5;

        let bn = |x: &Tensor, gamma: &Tensor, beta: &Tensor| -> f32 {
            let mean = x.mean_axis0().unwrap();
            let var = x.var_axis0().unwrap();
            let std = var.add_scalar(eps).map(f32::sqrt);
            let xh = x.sub_row(&mean).unwrap().div_row(&std).unwrap();
            let y = xh.mul_row(gamma).unwrap().add_row(beta).unwrap();
            y.map(|v| v * v).sum_all()
        };

        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let gamma = tape.leaf(gamma0.clone());
        let beta = tape.leaf(beta0.clone());
        let mean = x.mean_axis0();
        let centered = x.sub_row(&mean);
        let var = centered.mul(&centered).mean_axis0();
        let std = var.add_scalar(eps).sqrt();
        let xh = centered.div_row(&std);
        let y = xh.mul_row(&gamma).add_row(&beta);
        let out = y.mul(&y).sum_all();
        let grads = out.backward();

        let (g0, b0) = (gamma0.clone(), beta0.clone());
        let nx = fd(|x| bn(x, &g0, &b0), &x0, 1e-2);
        assert!(
            grads.get(&x).unwrap().approx_eq(&nx, 6e-2),
            "x grad mismatch: {:?} vs {:?}",
            grads.get(&x).unwrap(),
            nx
        );

        let (x0c, b0) = (x0.clone(), beta0.clone());
        let ng = fd(|g| bn(&x0c, g, &b0), &gamma0, 1e-3);
        assert!(grads.get(&gamma).unwrap().approx_eq(&ng, 5e-2));

        let (x0c, g0) = (x0, gamma0);
        let nb = fd(|b| bn(&x0c, &g0, b), &beta0, 1e-3);
        assert!(grads.get(&beta).unwrap().approx_eq(&nb, 5e-2));
    }

    #[test]
    fn grad_batch_norm_node() {
        // The fused node against central differences of the same function,
        // with x also used beside the BN so its gradient sums two paths.
        let mut rng = SmallRng::seed_from_u64(5);
        let x0 = Tensor::randn(&mut rng, &[6, 3], 1.0, 2.0);
        let gamma0 = Tensor::randn(&mut rng, &[3], 1.0, 0.1);
        let beta0 = Tensor::randn(&mut rng, &[3], 0.0, 0.1);
        let eps = 1e-5;

        let f = |x: &Tensor, gamma: &Tensor, beta: &Tensor| -> f32 {
            let mean = x.mean_axis0().unwrap();
            let std = x.var_axis0().unwrap().add_scalar(eps).map(f32::sqrt);
            let xh = x.sub_row(&mean).unwrap().div_row(&std).unwrap();
            let y = xh.mul_row(gamma).unwrap().add_row(beta).unwrap();
            y.map(|v| v * v).sum_all() + x.sum_all()
        };

        let tape = Tape::new();
        let x = tape.leaf(&x0);
        let gamma = tape.leaf(&gamma0);
        let beta = tape.leaf(&beta0);
        let (y, mean, var) = x.batch_norm(&gamma, &beta, eps);
        assert!(mean.approx_eq(&x0.mean_axis0().unwrap(), 1e-6));
        assert!(var.approx_eq(&x0.var_axis0().unwrap(), 1e-5));
        let grads = y.mul(&y).sum_all().add(&x.sum_all()).backward();

        let nx = fd(|x| f(x, &gamma0, &beta0), &x0, 1e-2);
        assert!(
            grads.get(&x).unwrap().approx_eq(&nx, 6e-2),
            "x grad mismatch: {:?} vs {:?}",
            grads.get(&x).unwrap(),
            nx
        );
        let ng = fd(|g| f(&x0, g, &beta0), &gamma0, 1e-3);
        assert!(grads.get(&gamma).unwrap().approx_eq(&ng, 5e-2));
        let nb = fd(|b| f(&x0, &gamma0, b), &beta0, 1e-3);
        assert!(grads.get(&beta).unwrap().approx_eq(&nb, 5e-2));
    }

    #[test]
    fn a_shared_pool_serves_every_step_after_the_first() {
        // Three identical steps on one pool: the first fills it, and each
        // later step takes back exactly what the one before returned.
        let mut rng = SmallRng::seed_from_u64(6);
        let x0 = Tensor::randn(&mut rng, &[8, 4], 0.0, 1.0);
        let w0 = Tensor::randn(&mut rng, &[4, 4], 0.0, 1.0);
        let (gamma0, beta0) = (Tensor::ones(&[4]), Tensor::zeros(&[4]));
        let pool = TapePool::new();
        let mut pooled = Vec::new();
        let mut grads_seen = Vec::new();
        for _ in 0..3 {
            let tape = Tape::with_pool(&pool);
            let x = tape.constant_rows(&x0, 1..7);
            let w = tape.constant(&w0);
            let gamma = tape.leaf(&gamma0);
            let beta = tape.leaf(&beta0);
            let (y, _, _) = x.matmul(&w).batch_norm(&gamma, &beta, 1e-5);
            let grads = y
                .relu()
                .log_softmax()
                .nll_loss(&[0, 1, 2, 3, 0, 1])
                .backward();
            grads_seen.push(grads.get(&gamma).unwrap().clone());
            drop((grads, tape, x, w, gamma, beta, y));
            pooled.push(pool.buffers());
        }
        assert!(pooled[0] > 0);
        assert_eq!(pooled[1], pooled[0]);
        assert_eq!(pooled[2], pooled[0]);
        assert_eq!(grads_seen[1], grads_seen[0]);
        assert_eq!(grads_seen[2], grads_seen[0]);
    }

    #[test]
    fn a_pool_holds_what_the_last_tape_used() {
        // One 64-row tape, then 8-row ones: the first small tape takes none
        // of the large buffers (over twice its sizes), and the next frees
        // them before it starts.
        let pool = TapePool::new();
        let step = |rows: usize| {
            let tape = Tape::with_pool(&pool);
            // Borrowed, so the tape copies it into a buffer of the pool's.
            let x0 = Tensor::ones(&[rows, 4]);
            let x = tape.leaf(&x0);
            let grads = x.mul(&x).relu().sum_all().backward();
            assert_eq!(grads.get(&x).unwrap().dims(), x0.dims());
        };
        let large_buffers = || {
            let inner = pool.lock();
            let large = inner.free.iter().filter(|s| s.cap >= 64 * 4);
            large.map(|s| s.bufs.len()).sum::<usize>()
        };
        step(64);
        let (after_large, large) = (pool.buffers(), large_buffers());
        assert!(large > 0);
        step(8);
        assert!(pool.buffers() > after_large, "the small tape made its own");
        assert_eq!(large_buffers(), large, "the small tape took a large buffer");
        let after_small = pool.buffers();
        step(8);
        assert_eq!(large_buffers(), 0);
        let settled = pool.buffers();
        assert!(settled < after_small);
        step(8);
        assert_eq!(pool.buffers(), settled);
    }

    #[test]
    fn grad_accumulates_over_reused_vars() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![3.0], &[1, 1]).unwrap());
        let y = x.add(&x).sum_all(); // y = 2x
        let grads = y.backward();
        assert_eq!(grads.get(&x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn grad_exp_ln_sqrt() {
        let x0 = Tensor::from_vec(vec![0.5, 1.5, 2.5, 4.0], &[2, 2]).unwrap();
        let tape = Tape::new();
        let x = tape.leaf(x0.clone());
        let y = x.exp().ln().sqrt().sum_all(); // sqrt(x) summed
        let grads = y.backward();
        let n = fd(|x| x.map(f32::sqrt).sum_all(), &x0, 1e-3);
        assert!(grads.get(&x).unwrap().approx_eq(&n, 1e-2));
    }

    #[test]
    fn grad_mean_axis0_broadcasts_evenly() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[4, 2]));
        let y = x.mean_axis0().sum_all();
        let grads = y.backward();
        assert!(grads
            .get(&x)
            .unwrap()
            .approx_eq(&Tensor::full(&[4, 2], 0.25), 1e-6));
    }

    #[test]
    #[should_panic(expected = "different tapes")]
    fn mixing_tapes_panics() {
        let t1 = Tape::new();
        let t2 = Tape::new();
        let a = t1.leaf(Tensor::ones(&[1]));
        let b = t2.leaf(Tensor::ones(&[1]));
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic(expected = "scalar root")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2, 2]));
        let _ = x.backward();
    }

    /// The vars of [`pruning_graph`] the differential test names.
    struct PruningGraph {
        tape: Tape,
        loss: Var,
        /// Registered through `fixed`: constants in one build, leaves in
        /// the other.
        fixed: Vec<Var>,
        /// Computed from `fixed` values alone.
        untrainable: Vec<Var>,
        /// Leaves in both builds.
        trainable: Vec<Var>,
        /// Operations downstream of a trainable leaf.
        downstream: Vec<Var>,
    }

    /// A frozen-`Linear` → batch-stat BN → frozen-`Linear` → eval BN →
    /// residual → entropy + NLL graph that puts a gradient-free operand on
    /// each side of every two-parent op. `fixed` registers the values a
    /// BN-only adaptation would freeze.
    fn pruning_graph(fixed: fn(&Tape, Tensor) -> Var) -> PruningGraph {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut randn = |dims: &[usize], mean: f32| Tensor::randn(&mut rng, dims, mean, 1.0);
        let tape = Tape::new();
        let x = fixed(&tape, randn(&[5, 4], 0.0));
        let w1 = fixed(&tape, randn(&[4, 3], 0.0));
        let b1 = fixed(&tape, randn(&[3], 0.0));
        let gamma = tape.leaf(randn(&[3], 1.0));
        let beta = tape.leaf(randn(&[3], 0.0));
        let w2 = fixed(&tape, randn(&[3, 3], 0.0));
        let b2 = fixed(&tape, randn(&[3], 0.0));
        let mean2 = fixed(&tape, randn(&[3], 0.0));
        let std2 = fixed(&tape, randn(&[3], 0.0).map(|v| v.abs() + 0.5));
        let gamma2 = tape.leaf(randn(&[3], 1.0));
        let w3 = tape.leaf(randn(&[4, 3], 0.0));
        let std3 = tape.leaf(randn(&[3], 0.0).map(|v| v.abs() + 0.5));
        let mean3 = tape.leaf(randn(&[3], 0.0));

        let h = x.matmul(&w1).add_row(&b1);
        let mean = h.mean_axis0();
        let centered = h.sub_row(&mean);
        let var = centered.mul(&centered).mean_axis0();
        let x_hat = centered.div_row(&var.add_scalar(1e-5).sqrt());
        let y = x_hat.mul_row(&gamma).add_row(&beta).relu();
        let z = y.matmul(&w2).add_row(&b2);
        let z = z.sub_row(&mean2).div_row(&std2).mul_row(&gamma2);
        let r = z.add(&y).add(&h).sub(&x_hat);
        let r = x_hat.sub(&r).mul(&h).add(&h.mul(&r));
        let side = x.matmul(&w3).add(&h.div_row(&std3)).add(&h.sub_row(&mean3));
        let lp = r.add(&side).log_softmax();
        let entropy = lp.exp().mul(&lp).sum_all().scale(-0.2);
        let loss = entropy.add(&lp.nll_loss(&[0, 2, 1, 1, 0]));
        PruningGraph {
            tape,
            loss,
            fixed: vec![x, w1, b1, w2, b2, mean2, std2],
            untrainable: vec![h, mean, centered, var, x_hat],
            trainable: vec![gamma, beta, gamma2, w3, std3, mean3],
            downstream: vec![y, z, r, side, lp],
        }
    }

    #[test]
    fn constants_prune_the_sweep_and_leave_the_rest_bitwise_equal() {
        let all_leaves = pruning_graph(|tape, t| tape.leaf(t));
        let pruned = pruning_graph(|tape, t| tape.constant(t));
        assert_eq!(all_leaves.tape.len(), pruned.tape.len());
        assert!(pruned.loss.value().data()[0].is_finite());
        let (full, full_swept) = sweep(&all_leaves.loss);
        let (grads, swept) = sweep(&pruned.loss);

        // The all-leaves sweep reaches every node; the pruned one none
        // built from constants alone, and every other.
        assert_eq!(full_swept.len(), all_leaves.tape.len());
        for var in pruned.fixed.iter().chain(&pruned.untrainable) {
            assert!(
                !swept.contains_key(&var.id()),
                "gradient computed for {var:?}"
            );
        }
        for var in pruned.trainable.iter().chain(&pruned.downstream) {
            assert!(swept.contains_key(&var.id()), "gradient pruned for {var:?}");
        }
        assert!(swept.len() < pruned.tape.len() - pruned.fixed.len());

        // `Gradients` keeps the leaves' gradients only: operations hand
        // theirs back during the sweep.
        for var in all_leaves.fixed.iter().chain(&all_leaves.trainable) {
            assert!(full.get(var).is_some(), "all-leaves tape lost {var:?}");
        }
        for var in all_leaves.untrainable.iter().chain(&all_leaves.downstream) {
            assert!(full.get(var).is_none(), "{var:?} kept its gradient");
        }
        for var in pruned.fixed.iter().chain(&pruned.trainable) {
            let leaf = pruned.trainable.iter().any(|t| t.id() == var.id());
            assert_eq!(grads.get(var).is_some(), leaf, "{var:?}");
        }

        // The two tapes number their nodes alike: every gradient the
        // pruned sweep computes — leaves' and operations' — is the
        // all-leaves one, bit for bit.
        for (id, g) in &swept {
            assert_eq!(Some(g), full_swept.get(id), "node {id}");
        }
        for (pruned_var, full_var) in pruned.trainable.iter().zip(&all_leaves.trainable) {
            assert_eq!(pruned_var.id(), full_var.id());
            let (g, reference) = (grads.get(pruned_var), full.get(full_var));
            assert_eq!(g.map(bits), reference.map(bits), "{pruned_var:?}");
        }
    }

    #[test]
    fn a_root_built_from_constants_has_no_gradients() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 2]));
        let loss = x.mul(&x).sum_all();
        let grads = loss.backward();
        assert!(grads.get(&loss).is_none());
        assert!(grads.get(&x).is_none());
    }

    #[test]
    fn leaf_gradients_available_for_inputs() {
        // ODIN needs ∂loss/∂input — verify leaves receive gradients.
        let tape = Tape::new();
        let input = tape.leaf(Tensor::from_vec(vec![1.0, -2.0], &[1, 2]).unwrap());
        let loss = input.log_softmax().nll_loss(&[0]);
        let grads = loss.backward();
        assert!(grads.get(&input).is_some());
    }
}
