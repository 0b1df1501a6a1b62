//! Allocation-free tensor kernels over raw `f32` slices.
//!
//! Every kernel writes into a caller-provided output (`*_into`) or mutates
//! in place (`*_assign`), so hot loops — the autograd backward sweep, the
//! optimizers, TENT adaptation — can recycle buffers through a
//! [`Workspace`] instead of allocating per operation.
//! The allocating [`Tensor`](crate::Tensor) methods are thin wrappers over
//! these kernels.
//!
//! # Determinism
//!
//! [`matmul_into`] tiles and packs its right-hand operand for cache
//! locality and splits output rows across threads, but accumulates every
//! output element in the same `p = 0..k` order as the textbook
//! `i, p, j` triple loop. Its results are therefore bitwise identical to
//! the naive loop regardless of tiling or thread count. The two backward
//! products of a tape matmul keep the same contract in the `off` and
//! `exact` tiers: [`matmul_a_bt_into`] (dX) runs [`matmul_into`]'s
//! packed-panel kernel on `bᵀ`, its panels packed straight from the rows
//! of `b`, and equals the dot-product loop; a [`PackedB`] holds either
//! operand's panels across calls, and a product on it is bitwise the
//! per-call one; [`matmul_at_b_into`] (dW)
//! accumulates 4-row × 32-column register tiles of `out` over the rows of
//! `a` and `g` in order, and equals the row loop
//! `out[p, :] += a[i, p] · g[i, :]`. [`sum_axis0_into`] and
//! [`mean_axis0_into`] equal a row-ordered accumulation.

use crate::parallel::{num_threads, par_row_bands};
use crate::simd::{self, BandB, SimdTier};
use crate::workspace::Workspace;
use std::ops::Range;

/// Column-tile width of the packed-B matmul micro-kernel.
const TILE_COLS: usize = 16;

/// Column-panel width of the SIMD matmul (two AVX-512 registers).
const SIMD_PANEL: usize = 32;

/// Largest integer count exactly representable in an `f32` (2^24). Above
/// this, `count as f32` silently rounds, so mean/variance denominators and
/// count-weighted sums that feed detection thresholds switch to `f64`.
pub const F32_EXACT_COUNT: usize = 1 << 24;

/// Rows per matmul register block. Together with [`TILE_COLS`] this gives
/// the micro-kernel `4 x 16 = 64` independent accumulator lanes, enough
/// to keep the FMA pipeline full — a single row's tile is one dependency
/// chain and stalls on floating-point add latency.
const MICRO_ROWS: usize = 4;

/// Minimum multiply-add count before the matmul goes multi-threaded;
/// below this the scoped-thread spawn overhead dominates. Measured on the
/// two-core reference host, `exact` tier: one spawn-and-join of two bands
/// costs ≈ 65 µs (a 64×96×96 product, 2^19.2 multiply-adds, takes 15 µs on
/// one worker and 82 µs on two; 160×128×128, 2^21.3, takes 82 against
/// 114 µs), and two workers first draw level at 256³ = 2^24 (395 µs each
/// way), winning 1.5× at 384³ and 1.9× at 512³.
const PAR_MIN_MULADDS: usize = 1 << 24;

/// `out = a · b` for row-major `a: [n, k]`, `b: [k, m]`, `out: [n, m]`.
///
/// Packs `b` into column panels (scratch from `ws`, as [`PackedB`] packs
/// them) and row-blocks the output across up to [`num_threads`] scoped
/// threads. See the module docs for the determinism guarantee.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn matmul_into(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    matmul_into_threads(a, b, n, k, m, out, ws, auto_threads(n, k, m));
}

/// The worker count [`matmul_into`] picks for an `[n, k] x [k, m]`
/// product: [`num_threads`] from `PAR_MIN_MULADDS` (2^24) multiply-adds
/// up, one below it.
pub fn auto_threads(n: usize, k: usize, m: usize) -> usize {
    // `saturating_mul`: at fleet scale the muladd count can exceed
    // `usize::MAX / 2` in theory; saturation errs toward "go parallel"
    // instead of wrapping to a tiny count and silently serializing.
    if n.saturating_mul(k).saturating_mul(m) >= PAR_MIN_MULADDS {
        num_threads()
    } else {
        1
    }
}

/// [`matmul_into`] with an explicit thread count (primarily for the
/// determinism tests; `threads <= 1` forces the sequential path).
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn matmul_into_threads(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ws: &mut Workspace,
    threads: usize,
) {
    matmul_into_tier(a, b, n, k, m, out, ws, threads, simd::env_tier());
}

/// [`matmul_into_threads`] with an explicit [`SimdTier`] instead of the
/// latched `NAZAR_TENSOR_SIMD` default — the hook the equivalence suite
/// uses to sweep scalar/exact/fast within one process.
///
/// `SimdTier::Off` (or any vector tier on a CPU without AVX-512F) runs the
/// scalar packed-panel kernel; `Exact` runs the bitwise-identical vector
/// kernel; `Fast` runs the FMA-contracted kernel.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn matmul_into_tier(
    a: &[f32],
    b: &[f32],
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ws: &mut Workspace,
    threads: usize,
    tier: SimdTier,
) {
    assert_eq!(a.len(), n * k, "matmul lhs length");
    assert_eq!(b.len(), k * m, "matmul rhs length");
    assert_eq!(out.len(), n * m, "matmul out length");
    matmul_from(a, BSource::Rows(b), n, k, m, out, ws, threads, tier);
}

/// Where a product reads its right-hand operand `B: [k, m]` from when it
/// packs it.
#[derive(Debug, Clone, Copy)]
enum BSource<'a> {
    /// `B` row-major: element `(p, j)` at `p * m + j` — the forward `x · w`.
    Rows(&'a [f32]),
    /// `Bᵀ` row-major (`[m, k]`): element `(p, j)` at `j * k + p` — the
    /// weight of the backward `g · wᵀ`, read in place.
    Transposed(&'a [f32]),
}

/// The packed-panel product `out = a · B` behind [`matmul_into_tier`] and
/// [`matmul_a_bt_into_tier`], reading `B: [k, m]` from either its rows or
/// its transpose (lengths checked by the callers). It packs `B` into
/// scratch from `ws` as [`PackedB`] does and runs [`PackedB`]'s product,
/// except that a vector-tier product of fewer than 4 rows (the batch-1
/// forward) reads `B`'s rows in place and packs nothing.
#[allow(clippy::too_many_arguments)]
fn matmul_from(
    a: &[f32],
    b: BSource<'_>,
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ws: &mut Workspace,
    threads: usize,
    tier: SimdTier,
) {
    let tier = simd::effective(tier);
    if let BSource::Rows(b) = b {
        if tier.is_vector() && n < MICRO_ROWS && m > 0 && k > 0 {
            par_row_bands(out, n, m, threads, |first_row, band| {
                let handled = simd::matmul_band(tier, a, BandB::Rows(b), k, m, first_row, band);
                debug_assert!(handled, "vector tier was verified available");
            });
            return;
        }
    }
    let mut packed = PackedB {
        panels: ws.take_filled_later(k * m),
        ..PackedB::default()
    };
    packed.fill(b, k, m, tier);
    packed.product(a, n, out, threads);
    ws.recycle(packed.panels);
}

/// A right-hand matmul operand `B: [k, m]` packed once into the column
/// panels the matmul kernels read, for products that reuse it: the frozen
/// weights of an adaptation job, whose every step multiplies by the same
/// `W` (forward) and `Wᵀ` (the input gradient).
///
/// The panels are the ones [`matmul_into`] and [`matmul_a_bt_into`] pack
/// per call, by the same code, for the tier given at packing (clamped to
/// the CPU): p-major, panel `[j0, j0 + w)` at offset `j0 * k`, 32 columns
/// wide under a vector tier and 16 under `off`, the last one as wide as
/// what is left. A product on them runs the same kernels in that tier, so
/// it is bitwise the unpacked product of the same tier at any thread
/// count. Packing again reuses the buffer.
#[derive(Debug, Clone, Default)]
pub struct PackedB {
    panels: Vec<f32>,
    k: usize,
    m: usize,
    tier: SimdTier,
}

impl PackedB {
    /// An empty operand; pack it before use.
    pub fn new() -> Self {
        PackedB::default()
    }

    /// Packs row-major `b: [k, m]` — the `w` of a forward `x · w` — for
    /// `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `k * m` long.
    pub fn pack(&mut self, b: &[f32], k: usize, m: usize, tier: SimdTier) {
        assert_eq!(b.len(), k * m, "packed operand length");
        self.fill(BSource::Rows(b), k, m, tier);
    }

    /// Packs `B = bᵀ: [k, m]` from row-major `b: [m, k]` — the `w` of a
    /// backward `g · wᵀ`, as [`matmul_a_bt_into`] reads it — for `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `k * m` long.
    pub fn pack_transposed(&mut self, b: &[f32], k: usize, m: usize, tier: SimdTier) {
        assert_eq!(b.len(), k * m, "packed operand length");
        self.fill(BSource::Transposed(b), k, m, tier);
    }

    /// `(k, m)`: the inner and output widths of a product with it.
    pub fn dims(&self) -> (usize, usize) {
        (self.k, self.m)
    }

    /// `out = a · B` for row-major `a: [n, k]`, `out: [n, m]`, over up to
    /// `threads` row bands.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with `n` and the packed shape.
    pub fn matmul_into(&self, a: &[f32], n: usize, out: &mut [f32], threads: usize) {
        assert_eq!(a.len(), n * self.k, "packed matmul lhs length");
        assert_eq!(out.len(), n * self.m, "packed matmul out length");
        self.product(a, n, out, threads);
    }

    /// `out += a · B`: the product into scratch from `ws`, then one add
    /// into `out` — [`matmul_a_bt_into`]'s operations, in its order.
    ///
    /// # Panics
    ///
    /// Panics if a slice length disagrees with `n` and the packed shape.
    pub fn matmul_add_into(
        &self,
        a: &[f32],
        n: usize,
        out: &mut [f32],
        ws: &mut Workspace,
        threads: usize,
    ) {
        let mut product = ws.take_filled_later(out.len());
        self.matmul_into(a, n, &mut product, threads);
        add_assign(out, &product);
        ws.recycle(product);
    }

    /// Packs `b` into this operand's panels, sized `k * m`.
    fn fill(&mut self, b: BSource<'_>, k: usize, m: usize, tier: SimdTier) {
        let tier = simd::effective(tier);
        (self.k, self.m, self.tier) = (k, m, tier);
        self.panels.resize(k * m, 0.0);
        if k == 0 {
            return;
        }
        let panels = &mut self.panels[..];
        // Full panels at a constant width, so `pack_panel` sizes its
        // copies at compile time; then the narrower last one.
        let full = if tier.is_vector() {
            let full = m - m % SIMD_PANEL;
            for (j0, panel) in (0..full)
                .step_by(SIMD_PANEL)
                .zip(panels.chunks_exact_mut(SIMD_PANEL * k))
            {
                pack_panel(b, k, m, j0, SIMD_PANEL, panel, tier);
            }
            full
        } else {
            let full = m - m % TILE_COLS;
            for (j0, panel) in (0..full)
                .step_by(TILE_COLS)
                .zip(panels.chunks_exact_mut(TILE_COLS * k))
            {
                pack_panel(b, k, m, j0, TILE_COLS, panel, tier);
            }
            full
        };
        if full < m {
            pack_panel(b, k, m, full, m - full, &mut panels[full * k..], tier);
        }
    }

    /// `out = a · B`, lengths checked by the callers.
    fn product(&self, a: &[f32], n: usize, out: &mut [f32], threads: usize) {
        let (k, m, tier) = (self.k, self.m, self.tier);
        if n == 0 || m == 0 {
            return;
        }
        if k == 0 {
            out.fill(0.0);
            return;
        }
        let panels: &[f32] = &self.panels;
        par_row_bands(out, n, m, threads, |first_row, band| {
            if !simd::matmul_band(tier, a, BandB::Packed(panels), k, m, first_row, band) {
                scalar_band(a, panels, k, m, first_row, band);
            }
        });
    }
}

/// The scalar packed-panel kernel over one band of output rows: register
/// blocks of [`MICRO_ROWS`] rows × [`TILE_COLS`] columns, then the rows
/// left over one at a time; a narrower last panel accumulates in place.
/// Every output element is a sum from zero over `p = 0..k` in order.
fn scalar_band(a: &[f32], packed: &[f32], k: usize, m: usize, first_row: usize, band: &mut [f32]) {
    let band_rows = band.len() / m;
    let mut r = 0;
    // Register-blocked main loop: MICRO_ROWS rows per iteration.
    while r + MICRO_ROWS <= band_rows {
        let i = first_row + r;
        let out_block = &mut band[r * m..(r + MICRO_ROWS) * m];
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut j0 = 0;
        while j0 < m {
            let w = (m - j0).min(TILE_COLS);
            let panel = &packed[j0 * k..j0 * k + w * k];
            if w == TILE_COLS {
                let mut acc = [[0.0f32; TILE_COLS]; MICRO_ROWS];
                for ((((bb, &p0), &p1), &p2), &p3) in panel
                    .chunks_exact(TILE_COLS)
                    .zip(a0)
                    .zip(a1)
                    .zip(a2)
                    .zip(a3)
                {
                    let bb: &[f32; TILE_COLS] = bb.try_into().expect("exact chunk");
                    for t in 0..TILE_COLS {
                        let bv = bb[t];
                        acc[0][t] += p0 * bv;
                        acc[1][t] += p1 * bv;
                        acc[2][t] += p2 * bv;
                        acc[3][t] += p3 * bv;
                    }
                }
                for (q, accq) in acc.iter().enumerate() {
                    out_block[q * m + j0..q * m + j0 + TILE_COLS].copy_from_slice(accq);
                }
            } else {
                for q in 0..MICRO_ROWS {
                    let a_row = &a[(i + q) * k..(i + q + 1) * k];
                    let tile = &mut out_block[q * m + j0..q * m + j0 + w];
                    tile.fill(0.0);
                    for (p, &ap) in a_row.iter().enumerate() {
                        let brow = &panel[p * w..(p + 1) * w];
                        for (ac, &bv) in tile.iter_mut().zip(brow) {
                            *ac += ap * bv;
                        }
                    }
                }
            }
            j0 += w;
        }
        r += MICRO_ROWS;
    }
    // Remaining 1..MICRO_ROWS rows, one at a time.
    for (rr, out_row) in band[r * m..].chunks_mut(m).enumerate() {
        let row = first_row + r + rr;
        let a_row = &a[row * k..(row + 1) * k];
        let mut j0 = 0;
        while j0 < m {
            let w = (m - j0).min(TILE_COLS);
            let panel = &packed[j0 * k..j0 * k + w * k];
            if w == TILE_COLS {
                let mut acc = [0.0f32; TILE_COLS];
                for (bb, &ap) in panel.chunks_exact(TILE_COLS).zip(a_row) {
                    let bb: &[f32; TILE_COLS] = bb.try_into().expect("exact chunk");
                    for (ac, &bv) in acc.iter_mut().zip(bb) {
                        *ac += ap * bv;
                    }
                }
                out_row[j0..j0 + TILE_COLS].copy_from_slice(&acc);
            } else {
                let tile = &mut out_row[j0..j0 + w];
                tile.fill(0.0);
                for (p, &ap) in a_row.iter().enumerate() {
                    let brow = &panel[p * w..(p + 1) * w];
                    for (ac, &bv) in tile.iter_mut().zip(brow) {
                        *ac += ap * bv;
                    }
                }
            }
            j0 += w;
        }
    }
}

/// Copies columns `[j0, j0 + w)` of `B: [k, m]` into `panel`, p-major
/// (`panel[p * w + c] = B[p, j0 + c]`) — the layout both matmul kernels
/// read. From `B`'s rows that is one slice copy per `p`; from `Bᵀ` it is a
/// transpose of `w` contiguous rows, in registers under a vector tier.
/// Inlined so that a constant `w` sizes the copies.
#[inline(always)]
fn pack_panel(
    b: BSource<'_>,
    k: usize,
    m: usize,
    j0: usize,
    w: usize,
    panel: &mut [f32],
    tier: SimdTier,
) {
    match b {
        BSource::Rows(b) => {
            for (p, dst) in panel.chunks_exact_mut(w).enumerate() {
                dst.copy_from_slice(&b[p * m + j0..p * m + j0 + w]);
            }
        }
        BSource::Transposed(bt) => {
            let rows = &bt[j0 * k..(j0 + w) * k];
            if !simd::pack_transposed(tier, rows, k, w, panel) {
                for (c, row) in rows.chunks_exact(k).enumerate() {
                    for (p, &v) in row.iter().enumerate() {
                        panel[p * w + c] = v;
                    }
                }
            }
        }
    }
}

/// `out += aᵀ · g` for row-major `a: [n, k]`, `g: [n, m]`, `out: [k, m]`.
///
/// Equivalent to `aᵀ · g` without materializing the transpose; each
/// output element accumulates over `i = 0..n` in order, matching the
/// reference product. Accumulates into `out`, so zero it first for a plain
/// product — the autograd sweep exploits the `+=` to fuse gradient
/// accumulation.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn matmul_at_b_into(a: &[f32], g: &[f32], n: usize, k: usize, m: usize, out: &mut [f32]) {
    matmul_at_b_into_tier(a, g, n, k, m, out, simd::env_tier());
}

/// [`matmul_at_b_into`] with an explicit [`SimdTier`] — the hook the
/// equivalence suite sweeps within one process.
///
/// A vector tier covers `out`'s rows in 4-row register tiles, the `m %
/// 32` tail columns on masked lanes (`simd::matmul_at_b_tiles`); the `k %
/// 4` tail rows — all of `out` in the `off` tier — run the row loop
/// `out[p, j] += a[i, p] · g[i, j]`, the oracle. Either way every element
/// gets its `i = 0..n` terms in order, so `exact` is bitwise `off`.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn matmul_at_b_into_tier(
    a: &[f32],
    g: &[f32],
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    tier: SimdTier,
) {
    assert_eq!(a.len(), n * k, "matmul_at_b lhs length");
    assert_eq!(g.len(), n * m, "matmul_at_b rhs length");
    assert_eq!(out.len(), k * m, "matmul_at_b out length");
    let rows = if simd::matmul_at_b_tiles(tier, a, g, n, k, m, out) {
        k - k % MICRO_ROWS
    } else {
        0
    };
    at_b_rows(a, g, n, k, m, out, rows..k);
}

/// The row loop of [`matmul_at_b_into_tier`] over rows `ps` of `out`.
fn at_b_rows(
    a: &[f32],
    g: &[f32],
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ps: Range<usize>,
) {
    if ps.is_empty() || m == 0 {
        return;
    }
    for (a_row, g_row) in a.chunks_exact(k).zip(g.chunks_exact(m)).take(n) {
        for p in ps.clone() {
            let ap = a_row[p];
            for (o, &gv) in out[p * m..(p + 1) * m].iter_mut().zip(g_row) {
                *o += ap * gv;
            }
        }
    }
}

/// `out += g · bᵀ` for row-major `g: [n, m]`, `b: [k, m]`, `out: [n, k]`.
///
/// Runs the forward's packed-panel kernel with `bᵀ` as its right-hand
/// operand, packing `bᵀ`'s column panels straight from the rows of `b`,
/// into scratch from `ws`, then adds the product into `out` (zero it first
/// for a plain product). Every output element is therefore a sum from zero
/// of the products over `j = 0..m` in order — in the panels' lanes, the
/// `k % 32` column tail's masked ones included — followed by one add into
/// `out`: the operations of the textbook
/// dot-product loop, in its order. So the result is bitwise that loop's in
/// the `off` and `exact` tiers, at any thread count.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn matmul_a_bt_into(
    g: &[f32],
    b: &[f32],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f32],
    ws: &mut Workspace,
) {
    let threads = auto_threads(n, m, k);
    matmul_a_bt_into_tier(g, b, n, m, k, out, ws, threads, simd::env_tier());
}

/// [`matmul_a_bt_into`] with an explicit thread count and [`SimdTier`] —
/// the hook the equivalence suite sweeps within one process.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
#[allow(clippy::too_many_arguments)]
pub fn matmul_a_bt_into_tier(
    g: &[f32],
    b: &[f32],
    n: usize,
    m: usize,
    k: usize,
    out: &mut [f32],
    ws: &mut Workspace,
    threads: usize,
    tier: SimdTier,
) {
    assert_eq!(g.len(), n * m, "matmul_a_bt lhs length");
    assert_eq!(b.len(), k * m, "matmul_a_bt rhs length");
    assert_eq!(out.len(), n * k, "matmul_a_bt out length");
    let mut product = ws.take_filled_later(n * k);
    matmul_from(
        g,
        BSource::Transposed(b),
        n,
        m,
        k,
        &mut product,
        ws,
        threads,
        tier,
    );
    add_assign(out, &product);
    ws.recycle(product);
}

/// `out[i] = a[i] + b[i]`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    zip_into(a, b, out, |x, y| x + y);
}

/// `dst[i] += src[i]` — the in-place gradient-accumulation primitive.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "add_assign length");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// `y[i] += alpha * x[i]` (the BLAS `axpy`).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn axpy_into(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy length");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `dst[i] *= c`.
pub fn scale_assign(dst: &mut [f32], c: f32) {
    for d in dst.iter_mut() {
        *d *= c;
    }
}

/// `dst[i] += a[i] * b[i]` — fused multiply-accumulate, the workhorse of
/// the backward sweep's product-rule contributions.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn fma_assign(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), a.len(), "fma lhs length");
    assert_eq!(dst.len(), b.len(), "fma rhs length");
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d += x * y;
    }
}

/// Column sums of row-major `a: [n, d]` into `out: [d]`, accumulating
/// rows in `i = 0..n` order (bitwise identical to the naive loop).
///
/// # Panics
///
/// Panics if the slice lengths disagree with the given dimensions.
pub fn sum_axis0_into(a: &[f32], n: usize, d: usize, out: &mut [f32]) {
    assert_eq!(out.len(), d, "sum_axis0 out length");
    out.fill(0.0);
    sum_axis0_assign(a, n, d, out);
}

/// Accumulating variant of [`sum_axis0_into`]: `out[j] += Σᵢ a[i, j]`
/// without zeroing `out` first — the backward sweep fuses row-broadcast
/// gradient reduction into the existing accumulator this way.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the given dimensions.
pub fn sum_axis0_assign(a: &[f32], n: usize, d: usize, out: &mut [f32]) {
    assert_eq!(a.len(), n * d, "sum_axis0 input length");
    assert_eq!(out.len(), d, "sum_axis0 out length");
    for row in a.chunks_exact(d) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
}

/// Column means of row-major `a: [n, d]` into `out: [d]`: the column sums
/// of [`sum_axis0_into`] times `1 / n`. Above [`F32_EXACT_COUNT`] rows,
/// where `n as f32` rounds, each column is summed in row order in `f64`
/// and divided there, rounding once.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the given dimensions.
pub fn mean_axis0_into(a: &[f32], n: usize, d: usize, out: &mut [f32]) {
    if n <= F32_EXACT_COUNT {
        sum_axis0_into(a, n, d, out);
        scale_assign(out, 1.0 / n as f32);
        return;
    }
    assert_eq!(a.len(), n * d, "mean_axis0 input length");
    assert_eq!(out.len(), d, "mean_axis0 out length");
    for (j, o) in out.iter_mut().enumerate() {
        let mut sum = 0.0f64;
        for row in a.chunks_exact(d) {
            sum += f64::from(row[j]);
        }
        *o = (sum / n as f64) as f32;
    }
}

/// `out[i] = f(src[i])` — the elementwise map kernel.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn map_into(src: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    assert_eq!(src.len(), out.len(), "map length");
    for (o, &s) in out.iter_mut().zip(src) {
        *o = f(s);
    }
}

/// `dst[i] = f(dst[i])` — elementwise map in place.
pub fn map_assign(dst: &mut [f32], f: impl Fn(f32) -> f32) {
    for d in dst.iter_mut() {
        *d = f(*d);
    }
}

/// `out[i] = f(a[i], b[i])` — the elementwise zip kernel.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn zip_into(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.len(), b.len(), "zip lhs/rhs length");
    assert_eq!(a.len(), out.len(), "zip out length");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// `dst[i] = f(dst[i], src[i])` — elementwise zip in place.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn zip_assign(dst: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32) {
    assert_eq!(dst.len(), src.len(), "zip_assign length");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f(*d, s);
    }
}

/// Index of the largest element of `row`; ties (and rows a NaN leads)
/// resolve to the lowest index, `0` for an empty row.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (j, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = j;
        }
    }
    best
}

/// Temperature-aware, max-shifted log-sum-exp of one row:
/// `t * ln(Σⱼ exp((x[j] - max) / t)) + max`.
///
/// This is the *single* numerically-stable LSE in the workspace — both
/// `nazar_nn::loss` (log-softmax / entropy, `t = 1.0`) and the
/// energy-score detector (`t = temperature`) route through it, so the two
/// crates can never drift apart numerically again. At `t = 1.0` the
/// division and multiplication by `t` are bitwise no-ops, which keeps the
/// historical log-softmax results (and the golden traces pinned on them)
/// unchanged.
///
/// Edge cases follow IEEE semantics: an empty row yields `-inf`; a row
/// containing NaN yields NaN (callers that need sanitized scores clamp
/// afterwards, as the detectors do).
pub fn log_sum_exp(row: &[f32], t: f32) -> f32 {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        // All -inf (or empty): Σ exp = 0, LSE = -inf. Skip the sum so
        // `(-inf - -inf)` cannot manufacture NaN.
        return f32::NEG_INFINITY;
    }
    row.iter().map(|&v| ((v - max) / t).exp()).sum::<f32>().ln() * t + max
}

/// In-place softmax of one row: max-shift, exponentiate, normalize.
///
/// The max scan and the exp/sum reduction are scalar in every tier (vector
/// max intrinsics disagree with `f32::max` on NaN, and the sum must keep
/// `j = 0..d` order); the subtract and divide stages vectorize under any
/// vector tier and are lane-independent, so the result is bitwise
/// identical across all tiers.
pub fn softmax_row_tier(row: &mut [f32], tier: SimdTier) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !simd::sub_scalar(tier, row, max) {
        for v in row.iter_mut() {
            *v -= max;
        }
    }
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = v.exp();
        sum += *v;
    }
    if !simd::div_scalar(tier, row, sum) {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Fused batch-norm inference kernel over row-major `x: [n, d]`:
/// `out[i, j] = (x[i, j] - mean[j]) / std[j] * gamma[j] + beta[j]`.
///
/// Reproduces the eval-mode arithmetic of `nazar_nn`'s `BatchNorm1d`
/// (subtract, divide by `sqrt(var + eps)` precomputed by the caller,
/// scale, shift — in exactly that order) without the autograd tape; the
/// tape-free eval forward runs it after every linear stage. Every stage
/// is lane-independent, so scalar and vector tiers agree bitwise.
///
/// # Panics
///
/// Panics if slice lengths disagree with `d` or each other.
#[allow(clippy::too_many_arguments)]
pub fn bn_eval_into(
    x: &[f32],
    d: usize,
    mean: &[f32],
    std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    tier: SimdTier,
) {
    assert!(d > 0 && x.len().is_multiple_of(d), "bn_eval input length");
    assert_eq!(x.len(), out.len(), "bn_eval out length");
    assert_eq!(mean.len(), d, "bn_eval mean length");
    assert_eq!(std.len(), d, "bn_eval std length");
    assert_eq!(gamma.len(), d, "bn_eval gamma length");
    assert_eq!(beta.len(), d, "bn_eval beta length");
    if simd::bn_eval_rows(tier, x, d, mean, std, gamma, beta, out) {
        return;
    }
    for (row, orow) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        for j in 0..d {
            orow[j] = (row[j] - mean[j]) / std[j] * gamma[j] + beta[j];
        }
    }
}

/// Batch-statistic batch normalization of row-major `x: [n, d]` into
/// `y`: `y = (x - mean) / std * γ + β` over the batch's column `mean` and
/// population `var`, with `std = sqrt(var + eps)`; `mean`, `std` and `var`
/// (`d` each) are written too. The forward of
/// [`Var::batch_norm`](crate::Var::batch_norm), and of the tape-free
/// adaptation step, which must agree with it bitwise: `mean` and `var` are
/// [`mean_axis0_into`]'s, over `x` and over the squared centered values,
/// and each output is subtract, divide, scale, shift, in that order.
///
/// # Panics
///
/// Panics if a slice length disagrees with `n` and `d`.
#[allow(clippy::too_many_arguments)]
pub fn batch_norm_into(
    x: &[f32],
    n: usize,
    d: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    stats: BnStats<'_>,
    y: &mut [f32],
) {
    let BnStats { mean, std, var } = stats;
    assert_eq!(y.len(), n * d, "batch_norm out length");
    assert!(
        gamma.len() == d && beta.len() == d && std.len() == d && var.len() == d,
        "batch_norm widths"
    );
    mean_axis0_into(x, n, d, mean);
    // The squared centered values borrow `y` until the output overwrites
    // them.
    for (yrow, xrow) in y.chunks_exact_mut(d).zip(x.chunks_exact(d)) {
        for ((o, &v), &m) in yrow.iter_mut().zip(xrow).zip(&*mean) {
            let c = v - m;
            *o = c * c;
        }
    }
    mean_axis0_into(y, n, d, var);
    for (s, &v) in std.iter_mut().zip(&*var) {
        *s = (v + eps).sqrt();
    }
    for (yrow, xrow) in y.chunks_exact_mut(d).zip(x.chunks_exact(d)) {
        for (((((o, &v), &m), &s), &ga), &be) in yrow
            .iter_mut()
            .zip(xrow)
            .zip(&*mean)
            .zip(&*std)
            .zip(gamma)
            .zip(beta)
        {
            *o = (v - m) / s * ga + be;
        }
    }
}

/// The per-column batch statistics [`batch_norm_into`] writes: `mean`,
/// `std = sqrt(var + eps)` and `var`, `d` floats each.
#[derive(Debug)]
pub struct BnStats<'a> {
    /// Column means.
    pub mean: &'a mut [f32],
    /// Column `sqrt(var + eps)`.
    pub std: &'a mut [f32],
    /// Column population variances.
    pub var: &'a mut [f32],
}

/// `out += ∂/∂γ` of [`batch_norm_into`] for the output gradient `g`:
/// `Σᵢ g · x̂` over the rows in order, `x̂ = (x - mean) / std` recomputed
/// as the forward computed it. `g` and `x` are row-major `[n, d]`.
///
/// # Panics
///
/// Panics if `out`, `mean` or `std` is not `d` long.
pub fn batch_norm_gamma_grad(
    g: &[f32],
    x: &[f32],
    d: usize,
    mean: &[f32],
    std: &[f32],
    out: &mut [f32],
) {
    assert!(
        out.len() == d && mean.len() == d && std.len() == d,
        "batch_norm_gamma_grad widths"
    );
    for (grow, xrow) in g.chunks_exact(d).zip(x.chunks_exact(d)) {
        for ((((o, &gv), &v), &m), &s) in out.iter_mut().zip(grow).zip(xrow).zip(mean).zip(std) {
            *o += gv * ((v - m) / s);
        }
    }
}

/// `∂/∂x` of [`batch_norm_into`] for the output gradient `g` into `out`,
/// performing the float operations of the nine-node composition's
/// backward (`mean_axis0` → `sub_row` → `mul` → `mean_axis0` →
/// `add_scalar(eps)` → `sqrt` → `div_row` → `mul_row(γ)` → `add_row(β)`)
/// in its order. With the centered values `c = x − mean` recomputed and
/// `s = std`, every gradient the composition starts in a zeroed slot keeps
/// its `0 +`:
///
/// * `∂x̂ = 0 + g·γ`, then `∂c = 0 + ∂x̂/s`;
/// * `∂s = Σᵢ −(∂x̂·c)/(s·s)` from zero, in row order;
/// * `∂(var + eps) = 0 + ∂s·(0.5/s)`, `∂var` a copy of it, and
///   `k = ∂(c·c) = 0 + (1/n)·∂var`, one value per column;
/// * `∂c += k·c` twice, once per operand of the `c·c` product;
/// * `∂mean = Σᵢ −∂c` from zero, in row order;
/// * `∂x` takes `∂c` (written over `out` when `fresh`, else added to it),
///   then `+= (1/n)·∂mean`.
///
/// `scratch` is `2 d` floats.
///
/// # Panics
///
/// Panics if a slice length disagrees with `d` and the row count of `x`.
#[allow(clippy::too_many_arguments)]
pub fn batch_norm_input_grad(
    g: &[f32],
    x: &[f32],
    d: usize,
    mean: &[f32],
    std: &[f32],
    gamma: &[f32],
    out: &mut [f32],
    fresh: bool,
    scratch: &mut [f32],
) {
    assert!(
        d > 0 && x.len().is_multiple_of(d),
        "batch_norm_input_grad x length"
    );
    assert!(
        g.len() == x.len() && out.len() == x.len(),
        "batch_norm_input_grad lengths"
    );
    assert!(
        mean.len() == d && std.len() == d && gamma.len() == d && scratch.len() == 2 * d,
        "batch_norm_input_grad widths"
    );
    let n = x.len() / d;
    let inv_n = 1.0 / n as f32;
    let rows = || g.chunks_exact(d).zip(x.chunks_exact(d));
    // `k` is ∂/∂std until the second loop makes it ∂/∂(c·c).
    let (k, g_mean) = scratch.split_at_mut(d);
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
    g_mean.fill(0.0);
    for (orow, (grow, xrow)) in out.chunks_exact_mut(d).zip(rows()) {
        for (((((((o, &gv), &v), &m), &s), &ga), &kj), gm) in orow
            .iter_mut()
            .zip(grow)
            .zip(xrow)
            .zip(mean)
            .zip(std)
            .zip(gamma)
            .zip(&*k)
            .zip(g_mean.iter_mut())
        {
            let c = v - m;
            let mut g_c = 0.0 + (0.0 + gv * ga) / s;
            g_c += kj * c;
            g_c += kj * c;
            *gm -= g_c;
            *o = if fresh { g_c } else { *o + g_c };
        }
    }
    for orow in out.chunks_exact_mut(d) {
        axpy_into(inv_n, g_mean, orow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook `i, p, j` product every matmul kernel must match.
    fn naive_matmul(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for p in 0..k {
                let ap = a[i * k + p];
                for j in 0..m {
                    out[i * m + j] += ap * b[p * m + j];
                }
            }
        }
        out
    }

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) * scale)
            .collect()
    }

    #[test]
    fn matmul_matches_naive_bitwise_across_shapes() {
        let mut ws = Workspace::new();
        for &(n, k, m) in &[(1, 1, 1), (3, 5, 7), (8, 8, 8), (13, 9, 17), (2, 64, 31)] {
            let a = ramp(n * k, 0.25);
            let b = ramp(k * m, 0.5);
            let mut out = vec![f32::NAN; n * m];
            matmul_into(&a, &b, n, k, m, &mut out, &mut ws);
            assert_eq!(out, naive_matmul(&a, &b, n, k, m), "shape {n}x{k}x{m}");
        }
    }

    #[test]
    fn parallel_matmul_is_bitwise_deterministic() {
        let (n, k, m) = (37, 29, 41);
        let a = ramp(n * k, 0.125);
        let b = ramp(k * m, 0.25);
        let mut ws = Workspace::new();
        let mut single = vec![0.0f32; n * m];
        matmul_into_threads(&a, &b, n, k, m, &mut single, &mut ws, 1);
        for threads in [2, 3, 8] {
            let mut multi = vec![0.0f32; n * m];
            matmul_into_threads(&a, &b, n, k, m, &mut multi, &mut ws, threads);
            assert_eq!(single, multi, "threads {threads}");
        }
    }

    /// Naive transpose of row-major `[n, m]`.
    fn naive_transpose(src: &[f32], n: usize, m: usize) -> Vec<f32> {
        let mut dst = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                dst[j * n + i] = src[i * m + j];
            }
        }
        dst
    }

    #[test]
    fn at_b_matches_transpose_then_matmul() {
        let (n, k, m) = (6, 4, 5);
        let a = ramp(n * k, 0.5);
        let g = ramp(n * m, 0.25);
        let mut out = vec![0.0f32; k * m];
        matmul_at_b_into(&a, &g, n, k, m, &mut out);
        // Reference: transpose a, then naive product.
        assert_eq!(out, naive_matmul(&naive_transpose(&a, n, k), &g, k, n, m));
    }

    #[test]
    fn a_bt_matches_matmul_then_transpose() {
        let (n, m, k) = (5, 7, 3);
        let g = ramp(n * m, 0.5);
        let b = ramp(k * m, 0.25);
        let mut out = vec![0.0f32; n * k];
        matmul_a_bt_into(&g, &b, n, m, k, &mut out, &mut Workspace::new());
        assert_eq!(out, naive_matmul(&g, &naive_transpose(&b, k, m), n, m, k));
    }

    #[test]
    fn backward_products_are_bitwise_across_tiles_and_tails_in_exact() {
        // Shapes straddling the 4-row block and the 32-column panel, plus
        // non-finite and signed-zero inputs: the exact tier must equal the
        // scalar tier bit for bit, tails and tiles alike.
        let mut ws = Workspace::new();
        for &(n, k, m) in &[
            (1, 4, 32),
            (3, 7, 33),
            (8, 36, 64),
            (5, 33, 97),
            (64, 96, 96),
        ] {
            let mut a = ramp(n * k, 0.25);
            let mut g = ramp(n * m, 0.5);
            a[0] = -0.0;
            g[m - 1] = f32::NAN;
            if n * k > 5 {
                a[5] = f32::INFINITY;
            }
            let entry = ramp(k * m, 0.125);
            let dw: Vec<Vec<u32>> = [SimdTier::Off, SimdTier::Exact]
                .iter()
                .map(|&tier| {
                    let mut out = entry.clone();
                    matmul_at_b_into_tier(&a, &g, n, k, m, &mut out, tier);
                    out.iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            assert_eq!(dw[0], dw[1], "dW {n}x{k}x{m}");
            // dX of the same node: g [n, m] · w [k, m]ᵀ, with w = entry.
            let dx: Vec<Vec<u32>> = [SimdTier::Off, SimdTier::Exact]
                .iter()
                .map(|&tier| {
                    let mut out = vec![0.0f32; n * k];
                    matmul_a_bt_into_tier(&g, &entry, n, m, k, &mut out, &mut ws, 1, tier);
                    out.iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            assert_eq!(dx[0], dx[1], "dX {n}x{m}x{k}");
        }
    }

    #[test]
    fn elementwise_kernels_behave() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [10.0f32, 20.0, 30.0];
        let mut out = [0.0f32; 3];
        add_into(&a, &b, &mut out);
        assert_eq!(out, [11.0, 22.0, 33.0]);
        add_assign(&mut out, &a);
        assert_eq!(out, [12.0, 24.0, 36.0]);
        axpy_into(0.5, &b, &mut out);
        assert_eq!(out, [17.0, 34.0, 51.0]);
        scale_assign(&mut out, 2.0);
        assert_eq!(out, [34.0, 68.0, 102.0]);
        map_into(&a, &mut out, |x| x * x);
        assert_eq!(out, [1.0, 4.0, 9.0]);
        map_assign(&mut out, |x| x + 1.0);
        assert_eq!(out, [2.0, 5.0, 10.0]);
        zip_assign(&mut out, &a, |x, y| x - y);
        assert_eq!(out, [1.0, 3.0, 7.0]);
    }

    #[test]
    fn sum_axis0_matches_row_order_accumulation() {
        let a = ramp(6 * 5, 0.5);
        let mut out = vec![f32::NAN; 5];
        sum_axis0_into(&a, 6, 5, &mut out);
        let mut expect = vec![0.0f32; 5];
        for i in 0..6 {
            for j in 0..5 {
                expect[j] += a[i * 5 + j];
            }
        }
        assert_eq!(out, expect);
    }

    #[test]
    fn degenerate_matmul_shapes() {
        let mut ws = Workspace::new();
        // k == 0: the product is all zeros.
        let mut out = vec![7.0f32; 6];
        matmul_into(&[], &[], 2, 0, 3, &mut out, &mut ws);
        assert!(out.iter().all(|&v| v == 0.0));
        // n == 0: nothing to write.
        let mut empty: Vec<f32> = Vec::new();
        matmul_into(&[], &[1.0, 2.0], 0, 1, 2, &mut empty, &mut ws);
    }
}
