//! Reverse-mode automatic differentiation on a tape.
//!
//! The tape owns every intermediate [`Tensor`] produced during a forward
//! pass. Each [`Var`] is a lightweight handle (tape pointer + node id).
//! Because parents always have lower node ids than their children, the
//! backward pass is a single reverse sweep over the node vector.
//!
//! Leaves also receive gradients, which is what makes input-gradient
//! detectors (ODIN, Generalized-ODIN) implementable downstream.
//!
//! A value nothing will differentiate with respect to — a frozen weight,
//! an input batch, a running statistic — is registered with
//! [`Tape::constant`] instead. A node needs a gradient if and only if one
//! of its parents does, and the backward sweep computes and allocates
//! nothing for the rest: BN-only adaptation pays no weight-gradient
//! product for a frozen `Linear`, and no input-gradient product below the
//! first trainable node.

use crate::kernels;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

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
    Neg(usize),
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

#[derive(Debug, Default)]
struct TapeInner {
    nodes: Vec<Node>,
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
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
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
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Registers `value` as a leaf no gradient is wanted for. It takes
    /// part in the forward pass like any other; [`Var::backward`] computes
    /// nothing for it, nor for any node built from constants alone, and
    /// [`Gradients::get`] returns `None` for them.
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false)
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

    fn value(&self, id: usize) -> Tensor {
        self.inner.borrow().nodes[id].value.clone()
    }
}

/// Accumulated gradients, indexed by the [`Var`] they belong to.
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the backward root with respect to `var`, if `var`
    /// participated in the computation and needs one: `None` for a
    /// [`Tape::constant`] and for every node computed from constants
    /// alone.
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
        write!(f, "Var(id={}, shape={})", self.id, self.value().shape())
    }
}

impl Var {
    /// A snapshot of this node's value.
    pub fn value(&self) -> Tensor {
        self.tape.value(self.id)
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
            let value = match op(0, 0) {
                Op::Add(..) => a.value.add(&b.value),
                Op::AddRow(..) => a.value.add_row(&b.value),
                Op::SubRow(..) => a.value.sub_row(&b.value),
                Op::Sub(..) => a.value.sub(&b.value),
                Op::Mul(..) => a.value.mul(&b.value),
                Op::MulRow(..) => a.value.mul_row(&b.value),
                Op::DivRow(..) => a.value.div_row(&b.value),
                Op::Matmul(..) => a.value.matmul(&b.value),
                _ => unreachable!(),
            };
            (value, a.needs_grad || b.needs_grad)
        };
        let value = value.unwrap_or_else(|e| panic!("{name}: {e}"));
        self.tape.push(value, op(self.id, other.id), needs_grad)
    }

    /// Records `op` with the value `f` computes from this node's, read in
    /// place on the tape.
    fn unary(&self, op: Op, f: impl FnOnce(&Tensor) -> Tensor) -> Var {
        let (value, needs_grad) = {
            let inner = self.tape.inner.borrow();
            let node = &inner.nodes[self.id];
            (f(&node.value), node.needs_grad)
        };
        self.tape.push(value, op, needs_grad)
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

    /// Elementwise negation.
    pub fn neg(&self) -> Var {
        self.unary(Op::Neg(self.id), |x| x.scale(-1.0))
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&self, c: f32) -> Var {
        self.unary(Op::Scale(self.id, c), |x| x.scale(c))
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&self, c: f32) -> Var {
        self.unary(Op::AddScalar(self.id, c), |x| x.add_scalar(c))
    }

    /// Rectified linear unit, elementwise.
    pub fn relu(&self) -> Var {
        self.unary(Op::Relu(self.id), |x| x.map(|v| v.max(0.0)))
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        self.unary(Op::Exp(self.id), |x| x.map(f32::exp))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        self.unary(Op::Ln(self.id), |x| x.map(f32::ln))
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Var {
        self.unary(Op::Sqrt(self.id), |x| x.map(f32::sqrt))
    }

    /// Row-wise log-softmax of an `[n, c]` logit matrix.
    pub fn log_softmax(&self) -> Var {
        self.unary(Op::LogSoftmax(self.id), |x| {
            x.log_softmax_rows()
                .unwrap_or_else(|e| panic!("log_softmax: {e}"))
        })
    }

    /// Column means of an `[n, d]` matrix, as a `[d]` vector.
    pub fn mean_axis0(&self) -> Var {
        self.unary(Op::MeanAxis0(self.id), |x| {
            x.mean_axis0().unwrap_or_else(|e| panic!("mean_axis0: {e}"))
        })
    }

    /// Sum of all elements, as a scalar variable.
    pub fn sum_all(&self) -> Var {
        self.unary(Op::SumAll(self.id), |x| Tensor::scalar(x.sum_all()))
    }

    /// Mean of all elements, as a scalar variable.
    pub fn mean_all(&self) -> Var {
        self.unary(Op::MeanAll(self.id), |x| {
            Tensor::scalar(x.mean_all().unwrap_or_else(|e| panic!("mean_all: {e}")))
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
        self.unary(Op::NllLoss(self.id, targets.to_vec()), |lp| {
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
            Tensor::scalar(acc / n as f32)
        })
    }

    /// Runs the backward pass from this (scalar) variable.
    ///
    /// Returns the gradients of `self` with respect to every node that
    /// contributed to it and needs one — every [`Tape::leaf`] and every
    /// node with a leaf among its ancestors. A [`Tape::constant`], and a
    /// node built from constants alone, gets no buffer and costs no work:
    /// each contribution to such a parent is skipped.
    ///
    /// The sweep is written over the in-place [`kernels`]: each node's
    /// contribution is accumulated directly into its parents' gradient
    /// buffers (allocated once per node that needs one), and the matmul
    /// backward adds `g · bᵀ` and `aᵀ · g` into them through
    /// [`kernels::matmul_a_bt_into`] and [`kernels::matmul_at_b_into`].
    /// Skipping a contribution never reorders the ones that remain, so a
    /// gradient that is computed is bitwise the one the all-leaves tape
    /// gives.
    ///
    /// # Panics
    ///
    /// Panics if `self` does not hold exactly one element.
    pub fn backward(&self) -> Gradients {
        let root = self.value();
        assert_eq!(root.len(), 1, "backward requires a scalar root");
        let inner = self.tape.inner.borrow();
        let needs = |id: usize| inner.nodes[id].needs_grad;
        let mut grads: Vec<Option<Tensor>> = vec![None; inner.nodes.len()];
        if needs(self.id) {
            grads[self.id] = Some(Tensor::full(root.dims(), 1.0));
        }

        for id in (0..=self.id).rev() {
            // Parents always have lower ids, so the split borrows this
            // node's gradient immutably while parents stay writable.
            let (parents, rest) = grads.split_at_mut(id);
            // A node that needs no gradient never received one. A node
            // with one parent needs a gradient exactly when the parent
            // does, so only the two-parent rules check each side.
            let Some(g) = rest[0].as_ref() else { continue };
            let node = &inner.nodes[id];
            match &node.op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    if needs(*a) {
                        acc_copy(parents, *a, g);
                    }
                    if needs(*b) {
                        acc_copy(parents, *b, g);
                    }
                }
                Op::AddRow(a, b) => {
                    if needs(*b) {
                        let (n, d) = row_dims(g);
                        let gb = slot(parents, *b, &inner.nodes[*b].value);
                        kernels::sum_axis0_assign(g.data(), n, d, gb.data_mut());
                    }
                    if needs(*a) {
                        acc_copy(parents, *a, g);
                    }
                }
                Op::SubRow(a, b) => {
                    if needs(*b) {
                        let (_, d) = row_dims(g);
                        let gb = slot(parents, *b, &inner.nodes[*b].value);
                        for row in g.data().chunks_exact(d) {
                            for (o, &x) in gb.data_mut().iter_mut().zip(row) {
                                *o -= x;
                            }
                        }
                    }
                    if needs(*a) {
                        acc_copy(parents, *a, g);
                    }
                }
                Op::Sub(a, b) => {
                    if needs(*a) {
                        acc_copy(parents, *a, g);
                    }
                    if needs(*b) {
                        acc_axpy(parents, *b, &inner.nodes[*b].value, -1.0, g);
                    }
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (&inner.nodes[*a].value, &inner.nodes[*b].value);
                    if needs(*a) {
                        let ga = slot(parents, *a, av);
                        kernels::fma_assign(ga.data_mut(), g.data(), bv.data());
                    }
                    if needs(*b) {
                        let gb = slot(parents, *b, bv);
                        kernels::fma_assign(gb.data_mut(), g.data(), av.data());
                    }
                }
                Op::MulRow(a, b) => {
                    let (av, bv) = (&inner.nodes[*a].value, &inner.nodes[*b].value);
                    let (_, d) = row_dims(g);
                    if needs(*a) {
                        let ga = slot(parents, *a, av);
                        for (orow, grow) in ga
                            .data_mut()
                            .chunks_exact_mut(d)
                            .zip(g.data().chunks_exact(d))
                        {
                            kernels::fma_assign(orow, grow, bv.data());
                        }
                    }
                    if needs(*b) {
                        let gb = slot(parents, *b, bv);
                        for (grow, arow) in g.data().chunks_exact(d).zip(av.data().chunks_exact(d))
                        {
                            kernels::fma_assign(gb.data_mut(), grow, arow);
                        }
                    }
                }
                Op::DivRow(a, b) => {
                    let (av, bv) = (&inner.nodes[*a].value, &inner.nodes[*b].value);
                    let (_, d) = row_dims(g);
                    if needs(*a) {
                        let ga = slot(parents, *a, av);
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
                        let gb = slot(parents, *b, bv);
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
                Op::Neg(a) => acc_axpy(parents, *a, &inner.nodes[*a].value, -1.0, g),
                Op::Scale(a, c) => acc_axpy(parents, *a, &inner.nodes[*a].value, *c, g),
                Op::AddScalar(a, _) => acc_copy(parents, *a, g),
                Op::Matmul(a, b) => {
                    let (av, bv) = (&inner.nodes[*a].value, &inner.nodes[*b].value);
                    let (n, k) = row_dims(av);
                    let (_, m) = row_dims(bv);
                    if needs(*a) {
                        let ga = slot(parents, *a, av);
                        Workspace::with_thread_local(|ws| {
                            let (g, b) = (g.data(), bv.data());
                            kernels::matmul_a_bt_into(g, b, n, m, k, ga.data_mut(), ws);
                        });
                    }
                    if needs(*b) {
                        let gb = slot(parents, *b, bv);
                        kernels::matmul_at_b_into(av.data(), g.data(), n, k, m, gb.data_mut());
                    }
                }
                Op::Relu(a) => {
                    let av = &inner.nodes[*a].value;
                    let ga = slot(parents, *a, av);
                    for ((o, &gv), &x) in ga.data_mut().iter_mut().zip(g.data()).zip(av.data()) {
                        if x > 0.0 {
                            *o += gv;
                        }
                    }
                }
                Op::Exp(a) => {
                    let ga = slot(parents, *a, &inner.nodes[*a].value);
                    kernels::fma_assign(ga.data_mut(), g.data(), node.value.data());
                }
                Op::Ln(a) => {
                    let av = &inner.nodes[*a].value;
                    let ga = slot(parents, *a, av);
                    for ((o, &gv), &x) in ga.data_mut().iter_mut().zip(g.data()).zip(av.data()) {
                        *o += gv / x;
                    }
                }
                Op::Sqrt(a) => {
                    let ga = slot(parents, *a, &inner.nodes[*a].value);
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
                    let ga = slot(parents, *a, &inner.nodes[*a].value);
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
                    let av = &inner.nodes[*a].value;
                    let (n, d) = row_dims(av);
                    let inv_n = 1.0 / n as f32;
                    let ga = slot(parents, *a, av);
                    for orow in ga.data_mut().chunks_exact_mut(d) {
                        kernels::axpy_into(inv_n, g.data(), orow);
                    }
                }
                Op::SumAll(a) => {
                    let c = g.data()[0];
                    let ga = slot(parents, *a, &inner.nodes[*a].value);
                    ga.map_inplace(|x| x + c);
                }
                Op::MeanAll(a) => {
                    let av = &inner.nodes[*a].value;
                    let c = g.data()[0] / av.len() as f32;
                    let ga = slot(parents, *a, av);
                    ga.map_inplace(|x| x + c);
                }
                Op::NllLoss(a, targets) => {
                    let av = &inner.nodes[*a].value;
                    let (n, c) = row_dims(av);
                    let coef = -g.data()[0] / n as f32;
                    let ga = slot(parents, *a, av);
                    for (i, &t) in targets.iter().enumerate() {
                        ga.data_mut()[i * c + t] += coef;
                    }
                }
            }
        }
        Gradients { grads }
    }
}

/// Rows and columns of a rank-2 node value (backward-pass internal).
fn row_dims(t: &Tensor) -> (usize, usize) {
    (
        t.nrows().expect("backward: rank-2 value"),
        t.ncols().expect("backward: rank-2 value"),
    )
}

/// The gradient accumulator for node `id`, created zeroed on first use.
fn slot<'g>(grads: &'g mut [Option<Tensor>], id: usize, value: &Tensor) -> &'g mut Tensor {
    grads[id].get_or_insert_with(|| Tensor::zeros(value.dims()))
}

/// `grads[id] += g`.
fn acc_copy(grads: &mut [Option<Tensor>], id: usize, g: &Tensor) {
    match &mut grads[id] {
        Some(acc) => acc
            .add_assign(g)
            .expect("gradient accumulation shape mismatch"),
        empty => *empty = Some(g.clone()),
    }
}

/// `grads[id] += alpha * g`.
fn acc_axpy(grads: &mut [Option<Tensor>], id: usize, value: &Tensor, alpha: f32, g: &Tensor) {
    slot(grads, id, value)
        .axpy_assign(alpha, g)
        .expect("gradient accumulation shape mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
        /// Leaves in both builds, and nodes downstream of one.
        trainable: Vec<Var>,
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
            trainable: vec![gamma, beta, gamma2, w3, std3, mean3, y, z, r, side, lp],
        }
    }

    #[test]
    fn constants_prune_the_sweep_and_leave_the_rest_bitwise_equal() {
        let all_leaves = pruning_graph(|tape, t| tape.leaf(t));
        let pruned = pruning_graph(|tape, t| tape.constant(t));
        assert_eq!(all_leaves.tape.len(), pruned.tape.len());
        assert!(pruned.loss.value().data()[0].is_finite());
        let full = all_leaves.loss.backward();
        let grads = pruned.loss.backward();

        for var in all_leaves
            .fixed
            .iter()
            .chain(&all_leaves.untrainable)
            .chain(&all_leaves.trainable)
        {
            assert!(full.get(var).is_some(), "all-leaves tape lost {var:?}");
        }
        for var in pruned.fixed.iter().chain(&pruned.untrainable) {
            assert!(grads.get(var).is_none(), "gradient computed for {var:?}");
        }
        for var in &pruned.trainable {
            assert!(grads.get(var).is_some(), "gradient pruned for {var:?}");
        }
        // The two tapes number their nodes alike: every gradient the pruned
        // sweep still computes is the all-leaves one, bit for bit.
        let mut surviving = 0;
        for id in 0..pruned.tape.len() {
            let Some(g) = grads.by_id(id) else { continue };
            let reference = full.by_id(id).expect("all-leaves gradient");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(reference), "node {id}");
            surviving += 1;
        }
        assert!(surviving > pruned.trainable.len());
        assert!(surviving < pruned.tape.len() - pruned.fixed.len());
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
