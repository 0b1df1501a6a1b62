//! Dense, row-major `f32` tensors.

use crate::error::{Result, TensorError};
use crate::kernels;
use crate::shape::Shape;
use crate::workspace::Workspace;
use rand::Rng;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;

/// A dense, row-major tensor: a flat `Vec<f32>` plus a [`Shape`].
///
/// `Tensor` is deliberately simple. All operations allocate their output
/// (there is no view machinery); the sizes involved in the Nazar
/// experiments are small enough that clarity wins.
///
/// Fallible operations (shape mismatches and the like) return
/// [`TensorError`]; infallible convenience wrappers panic only on programmer
/// error and document it.
///
/// # Example
///
/// ```
/// use nazar_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c.data(), a.data());
/// # Ok::<(), nazar_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the number of elements implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// A scalar tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// A tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Self::full(dims, 0.0)
    }

    /// A tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// [`Tensor::full`] in the buffer `alloc` hands out.
    pub(crate) fn full_in(
        dims: &[usize],
        value: f32,
        alloc: impl FnOnce(usize) -> Vec<f32>,
    ) -> Self {
        let shape = Shape::new(dims);
        let mut data = alloc(shape.len());
        data.fill(value);
        Tensor { data, shape }
    }

    /// A tensor of `dims` over `data`, whose length the caller made the
    /// product of `dims` (the tape's pooled values).
    pub(crate) fn from_raw(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        debug_assert_eq!(data.len(), shape.len(), "from_raw length");
        Tensor { data, shape }
    }

    /// The `n`-by-`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A tensor of i.i.d. samples from `N(mean, std^2)` (Box–Muller).
    pub fn randn<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], mean: f32, std: f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.len();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(mean + std * r * theta.cos());
            if data.len() < n {
                data.push(mean + std * r * theta.sin());
            }
        }
        Tensor { data, shape }
    }

    /// A tensor of i.i.d. samples from `U[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(rng: &mut R, dims: &[usize], lo: f32, hi: f32) -> Self {
        let shape = Shape::new(dims);
        let data: Vec<f32> = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { data, shape }
    }

    /// Stacks equal-length 1-D rows into an `[n, d]` matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if `rows` is empty or the rows disagree on length.
    pub fn stack_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let first = rows
            .first()
            .ok_or(TensorError::Empty { op: "stack_rows" })?;
        let d = first.len();
        let mut data = Vec::with_capacity(rows.len() * d);
        for r in rows {
            if r.len() != d {
                return Err(TensorError::ShapeMismatch {
                    op: "stack_rows",
                    lhs: vec![d],
                    rhs: vec![r.len()],
                });
            }
            data.extend_from_slice(r);
        }
        Tensor::from_vec(data, &[rows.len(), d])
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying flat buffer, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer as a host vector.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn nrows(&self) -> Result<usize> {
        self.expect_rank("nrows", 2)?;
        self.shape.dim(0)
    }

    /// Number of columns of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn ncols(&self) -> Result<usize> {
        self.expect_rank("ncols", 2)?;
        self.shape.dim(1)
    }

    /// Borrow row `i` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or out-of-range rows.
    pub fn row(&self, i: usize) -> Result<&[f32]> {
        let (n, d) = (self.nrows()?, self.ncols()?);
        if i >= n {
            return Err(TensorError::IndexOutOfBounds { index: i, bound: n });
        }
        Ok(&self.data[i * d..(i + 1) * d])
    }

    /// The single value of a scalar (or single-element) tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor holds more than one element.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() != 1 {
            return Err(TensorError::LengthMismatch {
                expected: 1,
                actual: self.data.len(),
            });
        }
        Ok(self.data[0])
    }

    fn expect_rank(&self, op: &'static str, rank: usize) -> Result<()> {
        if self.shape.rank() != rank {
            return Err(TensorError::RankMismatch {
                op,
                expected: rank,
                actual: self.shape.rank(),
            });
        }
        Ok(())
    }

    fn expect_same_shape(&self, op: &'static str, other: &Tensor) -> Result<()> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Copies the given rows of a rank-2 tensor into a new matrix.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or out-of-range row indices.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Tensor> {
        let d = self.ncols()?;
        let mut data = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            data.extend_from_slice(self.row(i)?);
        }
        Tensor::from_vec(data, &[indices.len(), d])
    }

    /// Copies the contiguous row range `start..end` of a rank-2 tensor.
    ///
    /// Equivalent to `select_rows` over `(start..end)` but a single slice
    /// copy — the batching loops use this for sequential mini-batches.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or an out-of-range/backwards range.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        let (n, d) = (self.nrows()?, self.ncols()?);
        if start > end || end > n {
            return Err(TensorError::IndexOutOfBounds {
                index: end.max(start),
                bound: n,
            });
        }
        Tensor::from_vec(self.data[start * d..end * d].to_vec(), &[end - start, d])
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        self.map_in(fresh, f)
    }

    /// [`Tensor::map`] into the buffer `alloc` hands out (see [`fresh`]).
    pub(crate) fn map_in(
        &self,
        alloc: impl FnOnce(usize) -> Vec<f32>,
        f: impl Fn(f32) -> f32,
    ) -> Tensor {
        let mut data = alloc(self.data.len());
        kernels::map_into(&self.data, &mut data, f);
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place, without allocating.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        kernels::map_assign(&mut self.data, f);
    }

    /// Combines two same-shape tensors elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.zip_with_in(other, fresh, f)
    }

    /// [`Tensor::zip_with`] into the buffer `alloc` hands out.
    pub(crate) fn zip_with_in(
        &self,
        other: &Tensor,
        alloc: impl FnOnce(usize) -> Vec<f32>,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        self.expect_same_shape("zip_with", other)?;
        let mut data = alloc(self.data.len());
        kernels::zip_into(&self.data, &other.data, &mut data, f);
        Ok(Tensor {
            data,
            shape: self.shape.clone(),
        })
    }

    /// Combines this tensor with `other` elementwise in place:
    /// `self[i] = f(self[i], other[i])`, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<()> {
        self.expect_same_shape("zip_inplace", other)?;
        kernels::zip_assign(&mut self.data, &other.data, f);
        Ok(())
    }

    /// In-place elementwise sum: `self += other`, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.expect_same_shape("add_assign", other)?;
        kernels::add_assign(&mut self.data, &other.data);
        Ok(())
    }

    /// In-place scaled accumulation: `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy_assign(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.expect_same_shape("axpy_assign", other)?;
        kernels::axpy_into(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// In-place scaling: `self *= c`, without allocating.
    pub fn scale_assign(&mut self, c: f32) {
        kernels::scale_assign(&mut self.data, c);
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a * b)
    }

    /// Elementwise quotient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_with(other, |a, b| a / b)
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// Adds `c` to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x + c)
    }

    /// Clamps every element to `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    // ------------------------------------------------------------------
    // Row-broadcast operations ([n, d] combined with [d])
    // ------------------------------------------------------------------

    /// Adds a `[d]` vector to every row of an `[n, d]` matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a matrix or `row` is not `[d]`.
    pub fn add_row(&self, row: &Tensor) -> Result<Tensor> {
        self.broadcast_row_in("add_row", row, fresh, |a, b| a + b)
    }

    /// Subtracts a `[d]` vector from every row of an `[n, d]` matrix.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a matrix or `row` is not `[d]`.
    pub fn sub_row(&self, row: &Tensor) -> Result<Tensor> {
        self.broadcast_row_in("sub_row", row, fresh, |a, b| a - b)
    }

    /// Multiplies every row of an `[n, d]` matrix by a `[d]` vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a matrix or `row` is not `[d]`.
    pub fn mul_row(&self, row: &Tensor) -> Result<Tensor> {
        self.broadcast_row_in("mul_row", row, fresh, |a, b| a * b)
    }

    /// Divides every row of an `[n, d]` matrix by a `[d]` vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a matrix or `row` is not `[d]`.
    pub fn div_row(&self, row: &Tensor) -> Result<Tensor> {
        self.broadcast_row_in("div_row", row, fresh, |a, b| a / b)
    }

    /// `f(self[i, j], row[j])` into the buffer `alloc` hands out: the
    /// kernel of the four row-broadcast operations, named `op` in errors.
    pub(crate) fn broadcast_row_in(
        &self,
        op: &'static str,
        row: &Tensor,
        alloc: impl FnOnce(usize) -> Vec<f32>,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        let d = self.ncols()?;
        if row.shape.rank() != 1 || row.len() != d {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: row.dims().to_vec(),
            });
        }
        let mut data = alloc(self.data.len());
        for (out, chunk) in data.chunks_exact_mut(d).zip(self.data.chunks_exact(d)) {
            kernels::zip_into(chunk, &row.data, out, &f);
        }
        Ok(Tensor {
            data,
            shape: self.shape.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product of `[n, k] x [k, m] -> [n, m]`.
    ///
    /// Thin wrapper over [`kernels::matmul_into`] (tiled, packed-B,
    /// row-parallel); scratch comes from the thread-local [`Workspace`].
    ///
    /// # Errors
    ///
    /// Returns an error unless both tensors are matrices with matching
    /// inner dimension.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_in(other, fresh)
    }

    /// [`Tensor::matmul`] into the buffer `alloc` hands out.
    pub(crate) fn matmul_in(
        &self,
        other: &Tensor,
        alloc: impl FnOnce(usize) -> Vec<f32>,
    ) -> Result<Tensor> {
        let (n, k) = (self.nrows()?, self.ncols()?);
        let (k2, m) = (other.nrows()?, other.ncols()?);
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let mut out = alloc(n * m);
        Workspace::with_thread_local(|ws| {
            kernels::matmul_into(&self.data, &other.data, n, k, m, &mut out, ws);
        });
        Tensor::from_vec(out, &[n, m])
    }

    /// Euclidean norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty tensor.
    pub fn mean_all(&self) -> Result<f32> {
        if self.data.is_empty() {
            return Err(TensorError::Empty { op: "mean_all" });
        }
        let n = self.data.len();
        if n > kernels::F32_EXACT_COUNT {
            // `n as f32` rounds above 2^24, silently biasing the mean at
            // fleet scale; accumulate and divide in f64, round once.
            let sum: f64 = self.data.iter().map(|&x| f64::from(x)).sum();
            return Ok((sum / n as f64) as f32);
        }
        Ok(self.sum_all() / n as f32)
    }

    /// Column sums of an `[n, d]` matrix, as a `[d]` vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_axis0(&self) -> Result<Tensor> {
        let (n, d) = (self.nrows()?, self.ncols()?);
        let mut out = vec![0.0f32; d];
        kernels::sum_axis0_into(&self.data, n, d, &mut out);
        Tensor::from_vec(out, &[d])
    }

    /// Column means of an `[n, d]` matrix, as a `[d]` vector.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or when the matrix has zero rows.
    pub fn mean_axis0(&self) -> Result<Tensor> {
        self.mean_axis0_in(fresh)
    }

    /// [`Tensor::mean_axis0`] into the buffer `alloc` hands out. Above the
    /// exact-count range the column sums and the division run in `f64`
    /// (see `mean_all` and [`kernels::mean_axis0_into`]).
    pub(crate) fn mean_axis0_in(&self, alloc: impl FnOnce(usize) -> Vec<f32>) -> Result<Tensor> {
        let (n, d) = (self.nrows()?, self.ncols()?);
        if n == 0 {
            return Err(TensorError::Empty { op: "mean_axis0" });
        }
        let mut data = alloc(d);
        kernels::mean_axis0_into(&self.data, n, d, &mut data);
        Tensor::from_vec(data, &[d])
    }

    /// Population variance of each column of an `[n, d]` matrix.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or when the matrix has zero rows.
    pub fn var_axis0(&self) -> Result<Tensor> {
        let n = self.nrows()?;
        if n == 0 {
            return Err(TensorError::Empty { op: "var_axis0" });
        }
        let mean = self.mean_axis0()?;
        let centered = self.sub_row(&mean)?;
        let sq = centered.map(|x| x * x);
        sq.mean_axis0()
    }

    /// Row sums of an `[n, d]` matrix, as an `[n]` vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn sum_axis1(&self) -> Result<Tensor> {
        let (n, d) = (self.nrows()?, self.ncols()?);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(self.data[i * d..(i + 1) * d].iter().sum());
        }
        Tensor::from_vec(out, &[n])
    }

    /// Maximum of each row of an `[n, d]` matrix.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or zero-width rows.
    pub fn max_axis1(&self) -> Result<Tensor> {
        let (n, d) = (self.nrows()?, self.ncols()?);
        if d == 0 {
            return Err(TensorError::Empty { op: "max_axis1" });
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let m = self.data[i * d..(i + 1) * d]
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            out.push(m);
        }
        Tensor::from_vec(out, &[n])
    }

    /// Index of the maximum of each row of an `[n, d]` matrix.
    ///
    /// Ties resolve to the lowest index.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or zero-width rows.
    pub fn argmax_axis1(&self) -> Result<Vec<usize>> {
        let d = self.ncols()?;
        if d == 0 {
            return Err(TensorError::Empty { op: "argmax_axis1" });
        }
        Ok(self.data.chunks_exact(d).map(kernels::argmax).collect())
    }

    /// Vertically concatenates rank-2 tensors with equal column counts.
    ///
    /// # Errors
    ///
    /// Returns an error if `parts` is empty or column counts disagree.
    pub fn concat_rows(parts: &[&Tensor]) -> Result<Tensor> {
        let first = parts
            .first()
            .ok_or(TensorError::Empty { op: "concat_rows" })?;
        let d = first.ncols()?;
        let mut data = Vec::new();
        let mut rows = 0;
        for p in parts {
            if p.ncols()? != d {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            rows += p.nrows()?;
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(data, &[rows, d])
    }

    /// Splits a rank-2 tensor into chunks of at most `chunk_rows` rows.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices; panics if `chunk_rows == 0`.
    pub fn split_rows(&self, chunk_rows: usize) -> Result<Vec<Tensor>> {
        assert!(chunk_rows > 0, "chunk_rows must be nonzero");
        let (n, d) = (self.nrows()?, self.ncols()?);
        let mut out = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + chunk_rows).min(n);
            let slice = self.data()[start * d..end * d].to_vec();
            out.push(Tensor::from_vec(slice, &[end - start, d])?);
            start = end;
        }
        Ok(out)
    }

    /// Row means of an `[n, d]` matrix, as an `[n]` vector.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or zero-width rows.
    pub fn mean_axis1(&self) -> Result<Tensor> {
        let d = self.ncols()?;
        if d == 0 {
            return Err(TensorError::Empty { op: "mean_axis1" });
        }
        if d > kernels::F32_EXACT_COUNT {
            // See `mean_all`: f64 accumulation once the row width exceeds
            // the f32-exact integer range.
            let n = self.nrows()?;
            let mut data = Vec::with_capacity(n);
            for row in self.data.chunks_exact(d) {
                let sum: f64 = row.iter().map(|&x| f64::from(x)).sum();
                data.push((sum / d as f64) as f32);
            }
            return Tensor::from_vec(data, &[n]);
        }
        Ok(self.sum_axis1()?.scale(1.0 / d as f32))
    }

    /// Copies the given columns of a rank-2 tensor into a new matrix.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or out-of-range column indices.
    pub fn select_cols(&self, indices: &[usize]) -> Result<Tensor> {
        let (n, d) = (self.nrows()?, self.ncols()?);
        for &j in indices {
            if j >= d {
                return Err(TensorError::IndexOutOfBounds { index: j, bound: d });
            }
        }
        let mut data = Vec::with_capacity(n * indices.len());
        for i in 0..n {
            let row = &self.data()[i * d..(i + 1) * d];
            for &j in indices {
                data.push(row[j]);
            }
        }
        Tensor::from_vec(data, &[n, indices.len()])
    }

    // ------------------------------------------------------------------
    // Softmax family (numerically stable)
    // ------------------------------------------------------------------

    /// Row-wise softmax of an `[n, c]` logit matrix.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or zero-width rows.
    pub fn softmax_rows(&self) -> Result<Tensor> {
        Ok(self.log_softmax_rows()?.map(f32::exp))
    }

    /// Row-wise log-softmax of an `[n, c]` logit matrix.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or zero-width rows.
    pub fn log_softmax_rows(&self) -> Result<Tensor> {
        self.log_softmax_rows_in(fresh)
    }

    /// [`Tensor::log_softmax_rows`] into the buffer `alloc` hands out.
    pub(crate) fn log_softmax_rows_in(
        &self,
        alloc: impl FnOnce(usize) -> Vec<f32>,
    ) -> Result<Tensor> {
        let (n, c) = (self.nrows()?, self.ncols()?);
        if c == 0 {
            return Err(TensorError::Empty {
                op: "log_softmax_rows",
            });
        }
        let mut out = alloc(n * c);
        for (orow, row) in out.chunks_exact_mut(c).zip(self.data.chunks_exact(c)) {
            // At t = 1.0 the shared helper's divide/multiply by the
            // temperature are bitwise no-ops, so this is the historical
            // max-shifted formula exactly.
            let lse = kernels::log_sum_exp(row, 1.0);
            for (o, &x) in orow.iter_mut().zip(row) {
                *o = x - lse;
            }
        }
        Tensor::from_vec(out, &[n, c])
    }

    // ------------------------------------------------------------------
    // Test helpers
    // ------------------------------------------------------------------

    /// Whether all elements differ by at most `tol` from `other`'s.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape.same_as(&other.shape)
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// The allocating API's output buffer: `len` zeros, freshly allocated.
/// The crate-private `*_in` operations take any `alloc(len)` that returns
/// exactly `len` elements, all of which they overwrite — the tape passes
/// one that recycles its pool's buffers.
fn fresh(len: usize) -> Vec<f32> {
    vec![0.0; len]
}

// Hand-written serde impls for the default f32 tensor, matching the wire
// format the former `#[derive(Serialize, Deserialize)]` produced (a map of
// "data" and "shape") so persisted patches/checkpoints keep round-tripping.
impl Serialize for Tensor {
    fn to_value(&self) -> Value {
        let data: Vec<f32> = self.data.as_slice().to_vec();
        Value::Map(vec![
            ("data".to_string(), data.to_value()),
            ("shape".to_string(), self.shape.to_value()),
        ])
    }
}

impl Deserialize for Tensor {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let entries = v
            .as_map()
            .ok_or_else(|| DeError::type_mismatch("map for Tensor", v))?;
        let data: Vec<f32> = serde::value_get(entries, "data")
            .map(Deserialize::from_value)
            .transpose()?
            .ok_or_else(|| DeError::missing_field("data", "Tensor"))?;
        let shape: Shape = serde::value_get(entries, "shape")
            .map(Deserialize::from_value)
            .transpose()?
            .ok_or_else(|| DeError::missing_field("shape", "Tensor"))?;
        if data.len() != shape.len() {
            return Err(DeError::custom(format!(
                "Tensor data length {} does not match shape {:?}",
                data.len(),
                shape.dims()
            )));
        }
        Ok(Tensor { data, shape })
    }
}

// What `Tape::leaf` and `Tape::constant` take: an owned tensor or a borrow.
impl From<Tensor> for Cow<'_, Tensor> {
    fn from(t: Tensor) -> Self {
        Cow::Owned(t)
    }
}

impl<'a> From<&'a Tensor> for Cow<'a, Tensor> {
    fn from(t: &'a Tensor) -> Self {
        Cow::Borrowed(t)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}(", self.shape)?;
        let preview: Vec<String> = self
            .data
            .iter()
            .take(8)
            .map(|x| format!("{x:.4}"))
            .collect();
        write!(f, "{}", preview.join(", "))?;
        if self.data.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn m(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn matmul_identity_and_known_product() {
        let a = m(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        let b = m(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dim() {
        let a = m(&[1.0; 6], &[2, 3]);
        let b = m(&[1.0; 4], &[2, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn row_broadcast_ops() {
        let a = m(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = m(&[10.0, 20.0], &[2]);
        assert_eq!(a.add_row(&r).unwrap().data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.mul_row(&r).unwrap().data(), &[10.0, 40.0, 30.0, 80.0]);
        assert_eq!(a.sub_row(&r).unwrap().data(), &[-9.0, -18.0, -7.0, -16.0]);
    }

    #[test]
    fn reductions() {
        let a = m(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum_all(), 21.0);
        assert_eq!(a.mean_all().unwrap(), 3.5);
        assert_eq!(a.sum_axis0().unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.mean_axis0().unwrap().data(), &[2.5, 3.5, 4.5]);
        assert_eq!(a.sum_axis1().unwrap().data(), &[6.0, 15.0]);
        assert_eq!(a.max_axis1().unwrap().data(), &[3.0, 6.0]);
        assert_eq!(a.argmax_axis1().unwrap(), vec![2, 2]);
    }

    #[test]
    fn var_axis0_matches_population_variance() {
        let a = m(&[1.0, 10.0, 3.0, 20.0], &[2, 2]);
        let v = a.var_axis0().unwrap();
        assert!(v.approx_eq(&m(&[1.0, 25.0], &[2]), 1e-6));
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        let a = m(&[1000.0, 1001.0, 999.0, -1000.0, -1001.0, -999.0], &[2, 3]);
        let p = a.softmax_rows().unwrap();
        for i in 0..2 {
            let s: f32 = p.row(i).unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {i} sums to {s}");
        }
        assert!(p.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let mut rng = SmallRng::seed_from_u64(7);
        let a = Tensor::randn(&mut rng, &[4, 5], 0.0, 2.0);
        let lp = a.log_softmax_rows().unwrap();
        let p = a.softmax_rows().unwrap();
        assert!(lp.map(f32::exp).approx_eq(&p, 1e-5));
    }

    #[test]
    fn select_rows_copies_requested_rows() {
        let a = m(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let s = a.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.data(), &[5.0, 6.0, 1.0, 2.0]);
        assert!(a.select_rows(&[3]).is_err());
    }

    #[test]
    fn stack_rows_validates_widths() {
        let t = Tensor::stack_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(t.dims(), &[2, 2]);
        assert!(Tensor::stack_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Tensor::stack_rows(&[]).is_err());
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = m(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = m(&[5.0, 6.0], &[1, 2]);
        let c = Tensor::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        let parts = c.split_rows(2).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        assert!(Tensor::concat_rows(&[]).is_err());
        assert!(Tensor::concat_rows(&[&a, &m(&[1.0], &[1, 1])]).is_err());
    }

    #[test]
    fn mean_axis1_and_select_cols() {
        let a = m(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.mean_axis1().unwrap().data(), &[2.0, 5.0]);
        let s = a.select_cols(&[2, 0]).unwrap();
        assert_eq!(s.data(), &[3.0, 1.0, 6.0, 4.0]);
        assert!(a.select_cols(&[3]).is_err());
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = SmallRng::seed_from_u64(42);
        let t = Tensor::randn(&mut rng, &[10_000], 2.0, 3.0);
        let mean = t.mean_all().unwrap();
        let var = t.map(|x| (x - mean) * (x - mean)).mean_all().unwrap();
        assert!((mean - 2.0).abs() < 0.15, "mean {mean}");
        assert!((var - 9.0).abs() < 0.6, "var {var}");
    }

    #[test]
    fn display_previews_values() {
        let t = m(&[1.0, 2.0], &[2]);
        let s = t.to_string();
        assert!(s.contains("1.0000") && s.contains("2.0000"));
    }
}
