//! Runtime-dispatched SIMD inner kernels (`std::arch`, AVX-512).
//!
//! This is the only module in the crate allowed to use `unsafe` — every
//! other module is `#![deny(unsafe_code)]`-clean, and every unsafe block
//! here is a `std::arch` intrinsic call guarded by runtime feature
//! detection. The scalar kernels in [`crate::kernels`] remain the
//! always-available oracle: the equivalence suite asserts the exact tier
//! bitwise against them and the fast tier within an ULP envelope.
//!
//! # Tiers
//!
//! Dispatch is a three-way [`SimdTier`], chosen once per process from the
//! `NAZAR_TENSOR_SIMD` environment variable (see [`env_tier`]):
//!
//! * **`off`** — scalar kernels only. Always available; the oracle.
//! * **`exact`** (default when AVX-512F is present) — vectorized kernels
//!   that are *bitwise identical* to the scalar path. The matmul (and dX,
//!   which runs it on a transposed operand) and the dW tiles use separate
//!   multiply + add intrinsics (never FMA, which contracts the rounding
//!   step) and accumulate each output lane in the scalar loop's order, so
//!   the workspace-wide bitwise-determinism contract (golden traces,
//!   1-vs-N-thread diffs) holds unchanged. The matmul's `m % 32` column
//!   tail runs the same register blocks on masked lanes: a lane past the
//!   last column loads zero and is never stored.
//! * **`fast`** (opt-in) — FMA-contracted; the forward's register blocks
//!   grow to 8 rows. Not bitwise: each fused multiply-add skips one
//!   rounding, so results drift from the oracle by an
//!   accumulation-length-scaled ULP bound.
//!   Golden-trace byte-diff jobs must not enable this tier. Within the
//!   tier a row's result still does not depend on the row count or the
//!   thread band it lands in (the row tail runs the same fused chain, and
//!   the matmul's column tail the unfused one in every row).
//!
//! Elementwise lane-independent kernels (the batch-norm eval fuse, the
//! softmax subtract/divide stages) are bitwise in *both* vector tiers —
//! each lane performs exactly the scalar op sequence — so they dispatch
//! whenever any vector tier is active.
//!
//! On non-x86_64 targets, or when AVX-512F is absent, every entry point
//! reports "not handled" and callers fall through to the scalar path.

use std::sync::OnceLock;

/// Vector-width (f32 lanes) of one AVX-512 register.
#[cfg(target_arch = "x86_64")]
const LANES: usize = 16;

/// Column-panel width of the SIMD matmul: two AVX-512 registers.
#[cfg(target_arch = "x86_64")]
const PANEL: usize = 32;

/// SIMD dispatch tier, selected by `NAZAR_TENSOR_SIMD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdTier {
    /// Scalar kernels only (the oracle path).
    Off,
    /// Vectorized, bitwise identical to scalar (mul + add, no FMA).
    #[default]
    Exact,
    /// Vectorized with FMA contraction — fastest, ULP-bounded vs scalar.
    Fast,
}

impl SimdTier {
    /// Parses a `NAZAR_TENSOR_SIMD` value.
    ///
    /// # Errors
    ///
    /// Names the rejected value and the accepted spellings.
    pub fn parse(s: &str) -> Result<SimdTier, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "scalar" | "none" => Ok(SimdTier::Off),
            "exact" | "1" | "on" => Ok(SimdTier::Exact),
            "fast" | "fma" => Ok(SimdTier::Fast),
            _ => Err(format!("{s:?} is not one of off, exact, fast")),
        }
    }

    /// Canonical knob spelling for this tier.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Off => "off",
            SimdTier::Exact => "exact",
            SimdTier::Fast => "fast",
        }
    }

    /// Whether this tier uses vector kernels at all.
    pub fn is_vector(self) -> bool {
        self != SimdTier::Off
    }
}

/// Whether the running CPU supports the AVX-512F kernels in this module.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Clamps a requested tier to what the CPU supports.
pub fn effective(requested: SimdTier) -> SimdTier {
    if requested.is_vector() && !available() {
        SimdTier::Off
    } else {
        requested
    }
}

/// Process-wide tier from `NAZAR_TENSOR_SIMD`, read once and latched.
///
/// Unset means [`SimdTier::Exact`]; so does a value [`SimdTier::parse`]
/// rejects, after one stderr line saying so. The result is clamped by
/// [`effective`], so hosts without AVX-512F silently run the scalar path.
/// Tests that need to sweep tiers in one process use the explicit `*_tier`
/// kernel entry points instead of this knob.
pub fn env_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let requested = match std::env::var("NAZAR_TENSOR_SIMD").map(|v| SimdTier::parse(&v)) {
            Ok(Ok(tier)) => tier,
            Ok(Err(e)) => {
                eprintln!("nazar-tensor: NAZAR_TENSOR_SIMD: {e}; using exact");
                SimdTier::Exact
            }
            Err(_) => SimdTier::Exact,
        };
        effective(requested)
    })
}

/// Where a matmul band reads its right-hand operand `B: [k, m]` from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BandB<'a> {
    /// All of `B` in column panels, each p-major at offset `j0 * k`: the
    /// full 32-column panels, then one panel as wide as the `m % 32`
    /// column tail (`crate::kernels::PackedB`'s vector layout).
    Packed(&'a [f32]),
    /// `B` row-major, read in place: element `(p, j)` at `p * m + j`. For
    /// a product with no register block (the batch-1 forward), which then
    /// packs nothing.
    Rows(&'a [f32]),
}

/// Vectorized `out = a · B` over one band of output rows; returns `false`
/// when the tier/CPU cannot run it, in which case the caller must run the
/// scalar kernel instead.
///
/// The full 32-column panels run register blocks of 4 rows (`exact`) or 8
/// (`fast`) when `b` is [`BandB::Packed`]; the rows left over run one at a
/// time. The `m % 32` column tail runs register blocks for every row, on
/// masked lanes, mul then add in both tiers. Every output lane
/// accumulates from zero in the oracle's `p = 0..k` order.
#[allow(unused_variables)]
pub(crate) fn matmul_band(
    tier: SimdTier,
    a: &[f32],
    b: BandB<'_>,
    k: usize,
    m: usize,
    first_row: usize,
    band: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !effective(tier).is_vector() {
            return false;
        }
        // Safety: `effective` verified avx512f above.
        unsafe {
            match tier {
                SimdTier::Fast => x86::matmul_band::<true>(a, b, k, m, first_row, band),
                _ => x86::matmul_band::<false>(a, b, k, m, first_row, band),
            }
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Vectorized `out += aᵀ · g` (`a: [n, k]`, `g: [n, m]`, `out: [k, m]`)
/// over `out`'s rows `0..k - k % 4` in tiles of 4 rows, leaving the
/// `k % 4` tail rows untouched. A tile is 32 columns, or the `m % 32`
/// tail columns on masked lanes (loaded as zero, never stored). Each tile
/// is loaded from `out`, gets `a[i, p] · g[i, ..]` added for `i = 0..n` in
/// order, and is stored back, so the exact tier is bitwise the scalar row
/// loop. The fast tier contracts each step of a 32-column tile to an FMA;
/// the tail runs mul then add in both tiers, as the forward's column tail
/// does. `g`'s rows are read in place. Returns `false` when vector
/// kernels are unavailable.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
#[allow(unused_variables)]
pub(crate) fn matmul_at_b_tiles(
    tier: SimdTier,
    a: &[f32],
    g: &[f32],
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !effective(tier).is_vector() {
            return false;
        }
        assert_eq!(a.len(), n * k, "matmul_at_b_tiles lhs length");
        assert_eq!(g.len(), n * m, "matmul_at_b_tiles rhs length");
        assert_eq!(out.len(), k * m, "matmul_at_b_tiles out length");
        // Safety: `effective` verified avx512f, the lengths are checked.
        unsafe {
            match tier {
                SimdTier::Fast => x86::matmul_at_b_tiles::<true>(a, g, n, k, m, out),
                _ => x86::matmul_at_b_tiles::<false>(a, g, n, k, m, out),
            }
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Packs `w` columns of `B` from its transpose: `rows` holds `w` rows of
/// `Bᵀ` (each `k` long, row-major) and `panel[p * w + c] = rows[c * k + p]`
/// — the p-major column panel [`matmul_band`] reads — by 16×16 register
/// transposes. Pure data movement, so every tier agrees. Returns `false`
/// when vector kernels are unavailable or `w` is not a multiple of 16.
///
/// # Panics
///
/// Panics if `rows` or `panel` is not `w * k` long.
#[allow(unused_variables)]
pub(crate) fn pack_transposed(
    tier: SimdTier,
    rows: &[f32],
    k: usize,
    w: usize,
    panel: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !effective(tier).is_vector() || !w.is_multiple_of(LANES) {
            return false;
        }
        assert_eq!(rows.len(), w * k, "pack_transposed rows length");
        assert_eq!(panel.len(), w * k, "pack_transposed panel length");
        // Safety: `effective` verified avx512f, the lengths are checked.
        unsafe { x86::pack_transposed(rows, k, w, panel) }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Vectorized batch-norm eval fuse:
/// `out[i, j] = (x[i, j] - mean[j]) / std[j] * gamma[j] + beta[j]`.
///
/// Lane-independent (sub/div/mul/add per element, no reduction), so the
/// result is bitwise identical to the scalar kernel in both vector tiers.
/// Returns `false` when vector kernels are unavailable.
#[allow(clippy::too_many_arguments, unused_variables)]
pub fn bn_eval_rows(
    tier: SimdTier,
    x: &[f32],
    d: usize,
    mean: &[f32],
    std: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !effective(tier).is_vector() {
            return false;
        }
        // Safety: `effective` verified avx512f above.
        unsafe { x86::bn_eval_rows(x, d, mean, std, gamma, beta, out) }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Vectorized elementwise subtract-scalar (`row[j] -= sub`) — the max-shift
/// stage of the softmax kernel (the max scan itself stays scalar: vector
/// max intrinsics disagree with `f32::max` on NaN propagation). Bitwise
/// identical to the scalar loop in both vector tiers. Returns `false` when
/// unavailable.
#[allow(unused_variables)]
pub fn sub_scalar(tier: SimdTier, row: &mut [f32], sub: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !effective(tier).is_vector() {
            return false;
        }
        // Safety: `effective` verified avx512f above.
        unsafe { x86::sub_scalar(row, sub) }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Vectorized elementwise divide-by-scalar (`row[j] /= div`), the closing
/// stage of the softmax kernel. Bitwise vs the scalar loop (IEEE division
/// per lane). Returns `false` when unavailable.
#[allow(unused_variables)]
pub fn div_scalar(tier: SimdTier, row: &mut [f32], div: f32) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if !effective(tier).is_vector() {
            return false;
        }
        // Safety: `effective` verified avx512f above.
        unsafe { x86::div_scalar(row, div) }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BandB, LANES, PANEL};
    use std::arch::x86_64::*;

    /// One `a · B` step of an accumulator lane: mul then add in the exact
    /// tier (bitwise the scalar `acc += a * b`), one fused multiply-add in
    /// the fast tier.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn mul_add<const FMA: bool>(acc: __m512, av: __m512, bv: __m512) -> __m512 {
        if FMA {
            _mm512_fmadd_ps(av, bv, acc)
        } else {
            _mm512_add_ps(acc, _mm512_mul_ps(av, bv))
        }
    }

    /// The matmul over one row band; see [`super::matmul_band`]. Register
    /// blocks are 4 rows in the exact tier and 8 in the fast one. Exact is
    /// bitwise the scalar oracle. Fast is not — each fused multiply-add
    /// skips a rounding — but every output lane of the full panels is the
    /// same fused `p = 0..k` chain in a block and in the row tail, and
    /// every lane of the column tail the same unfused one, so a row's
    /// result does not depend on the row count or the band split, as in
    /// the other tiers.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and that `a` and `b` cover
    /// the dimensions implied by `k`, `m`, `first_row`, and `band`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_band<const FMA: bool>(
        a: &[f32],
        b: BandB<'_>,
        k: usize,
        m: usize,
        first_row: usize,
        band: &mut [f32],
    ) {
        let rows = if FMA { 8 } else { 4 };
        let band_rows = band.len() / m;
        let full = m - m % PANEL;
        let mut r = 0;
        if let BandB::Packed(packed) = b {
            while r + rows <= band_rows {
                let i = first_row + r;
                for j0 in (0..full).step_by(PANEL) {
                    let panel = &packed[j0 * k..(j0 + PANEL) * k];
                    let block = &mut band[r * m + j0..];
                    if FMA {
                        panel_block::<true, 8>(a, i, k, panel, m, block);
                    } else {
                        panel_block::<false, 4>(a, i, k, panel, m, block);
                    }
                }
                r += rows;
            }
        }
        row_tail::<FMA>(a, b, k, m, first_row + r, &mut band[r * m..]);
        if full < m {
            let (tail, stride) = match b {
                BandB::Packed(packed) => (&packed[full * k..], m - full),
                BandB::Rows(b) => (&b[full..], m),
            };
            col_tail(a, tail, stride, k, m, first_row, band);
        }
    }

    /// `R` rows × one full 32-column panel: `out[q * m + c] = Σₚ a[i + q,
    /// p] · panel[p * 32 + c]`, every lane in `p = 0..k` order.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `a` holds rows `i..i + R` of length
    /// `k`, `panel` is `32 k` long, and `out` holds `R` rows of stride `m`
    /// from its first column.
    #[target_feature(enable = "avx512f")]
    unsafe fn panel_block<const FMA: bool, const R: usize>(
        a: &[f32],
        i: usize,
        k: usize,
        panel: &[f32],
        m: usize,
        out: &mut [f32],
    ) {
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        for p in 0..k {
            // SAFETY: `panel` is `32 k` long and `p < k`; `a` holds rows
            // `i..i + R` (the caller's contract, from `matmul_band`'s
            // block loop, which stops at the band's last whole block).
            let b0 = _mm512_loadu_ps(panel.as_ptr().add(p * PANEL));
            let b1 = _mm512_loadu_ps(panel.as_ptr().add(p * PANEL + LANES));
            for (q, lanes) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.get_unchecked((i + q) * k + p));
                lanes[0] = mul_add::<FMA>(lanes[0], av, b0);
                lanes[1] = mul_add::<FMA>(lanes[1], av, b1);
            }
        }
        for (q, lanes) in acc.iter().enumerate() {
            // SAFETY: `out` holds `R` rows of stride `m`, each with the
            // panel's 32 columns.
            let dst = out.as_mut_ptr().add(q * m);
            _mm512_storeu_ps(dst, lanes[0]);
            _mm512_storeu_ps(dst.add(LANES), lanes[1]);
        }
    }

    /// The rows left over after a band's register blocks, one at a time,
    /// over the full 32-column panels: straight from `b` (no packing) when
    /// it holds `B`'s rows, from the packed panels otherwise. Each output
    /// lane runs the chain its block kernel runs over `p = 0..k` — fused
    /// when `FMA`, mul then add otherwise — because an element's value
    /// must not depend on which rows share its block: a row's result would
    /// otherwise change with the batch it rides in and with the band
    /// split. The batch-1 forward is all row tail.
    ///
    /// # Safety
    ///
    /// Same contract as [`matmul_band`]; `rows` holds whole rows starting
    /// at row `i` of `a`.
    #[target_feature(enable = "avx512f")]
    unsafe fn row_tail<const FMA: bool>(
        a: &[f32],
        b: BandB<'_>,
        k: usize,
        m: usize,
        i: usize,
        rows: &mut [f32],
    ) {
        let full = m - m % PANEL;
        for (q, out_row) in rows.chunks_mut(m).enumerate() {
            let a_row = &a[(i + q) * k..(i + q + 1) * k];
            match b {
                BandB::Rows(b) => {
                    // Widest groups first: more independent chains hide
                    // the add latency of each.
                    let mut j0 = 0;
                    while j0 + 4 * PANEL <= full {
                        row_lanes::<FMA, 8>(a_row, &b[j0..], m, &mut out_row[j0..]);
                        j0 += 4 * PANEL;
                    }
                    if j0 + 2 * PANEL <= full {
                        row_lanes::<FMA, 4>(a_row, &b[j0..], m, &mut out_row[j0..]);
                        j0 += 2 * PANEL;
                    }
                    if j0 < full {
                        row_lanes::<FMA, 2>(a_row, &b[j0..], m, &mut out_row[j0..]);
                    }
                }
                BandB::Packed(packed) => {
                    for j0 in (0..full).step_by(PANEL) {
                        let panel = &packed[j0 * k..(j0 + PANEL) * k];
                        row_lanes::<FMA, 2>(a_row, panel, PANEL, &mut out_row[j0..]);
                    }
                }
            }
        }
    }

    /// `N` registers (`16 N` columns) of one output row: `out[j] = Σₚ
    /// a_row[p] · b[p · m + j]`, every lane in `p = 0..k` order.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    #[target_feature(enable = "avx512f")]
    unsafe fn row_lanes<const FMA: bool, const N: usize>(
        a_row: &[f32],
        b: &[f32],
        m: usize,
        out: &mut [f32],
    ) {
        assert!(out.len() >= N * LANES, "row_lanes out width");
        let mut acc = [_mm512_setzero_ps(); N];
        for (p, &ap) in a_row.iter().enumerate() {
            let av = _mm512_set1_ps(ap);
            let b_row = &b[p * m..p * m + N * LANES];
            for (q, lane) in acc.iter_mut().enumerate() {
                // SAFETY: in bounds, `b_row` was sliced to `N * LANES` floats.
                let bv = _mm512_loadu_ps(b_row.as_ptr().add(q * LANES));
                *lane = mul_add::<FMA>(*lane, av, bv);
            }
        }
        for (q, lane) in acc.iter().enumerate() {
            // SAFETY: in bounds, `out` holds at least `N * LANES` floats
            // (asserted above).
            _mm512_storeu_ps(out.as_mut_ptr().add(q * LANES), *lane);
        }
    }

    /// The `w = m % 32` column tail of every row of a band, read down
    /// `tail` (element `(p, c)` at `p * stride + c`): blocks of 8 rows,
    /// then of 4, then single rows, one register per 16 columns, the lanes
    /// past `w` masked off — loaded as zero, never stored. Each lane
    /// accumulates from zero in `p = 0..k` order, mul then add in both
    /// vector tiers: the scalar oracle's column loop, bitwise, as the
    /// column tail was before it ran in registers.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `a` holds the band's rows from row
    /// `first_row`, and `band` whole rows of `m`.
    #[target_feature(enable = "avx512f")]
    unsafe fn col_tail(
        a: &[f32],
        tail: &[f32],
        stride: usize,
        k: usize,
        m: usize,
        first_row: usize,
        band: &mut [f32],
    ) {
        let w = m % PANEL;
        assert!(
            w > 0 && tail.len() >= (k - 1) * stride + w,
            "col_tail operand length"
        );
        let band_rows = band.len() / m;
        assert!(
            a.len() >= (first_row + band_rows) * k,
            "col_tail lhs length"
        );
        let mut r = 0;
        while r < band_rows {
            let out = &mut band[r * m + m - w..];
            let i = first_row + r;
            r += match (band_rows - r, w > LANES) {
                (8.., true) => tail_block::<8, 2>(a, i, k, tail, stride, w, m, out),
                (8.., false) => tail_block::<8, 1>(a, i, k, tail, stride, w, m, out),
                (4.., true) => tail_block::<4, 2>(a, i, k, tail, stride, w, m, out),
                (4.., false) => tail_block::<4, 1>(a, i, k, tail, stride, w, m, out),
                (_, true) => tail_block::<1, 2>(a, i, k, tail, stride, w, m, out),
                (_, false) => tail_block::<1, 1>(a, i, k, tail, stride, w, m, out),
            };
        }
    }

    /// `R` rows × the `w ≤ 16 N` tail columns, in `N` masked registers a
    /// row; returns `R`.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `a` holds rows `i..i + R` of length
    /// `k`, `tail` holds `k` rows of stride `stride` and `w` valid
    /// columns, and `out` holds `R` rows of stride `m` from the tail's
    /// first column.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    unsafe fn tail_block<const R: usize, const N: usize>(
        a: &[f32],
        i: usize,
        k: usize,
        tail: &[f32],
        stride: usize,
        w: usize,
        m: usize,
        out: &mut [f32],
    ) -> usize {
        let mut masks: [__mmask16; N] = [0; N];
        for (q, mask) in masks.iter_mut().enumerate() {
            let lanes = w.saturating_sub(q * LANES).min(LANES);
            *mask = ((1u32 << lanes) - 1) as __mmask16;
        }
        let mut acc = [[_mm512_setzero_ps(); N]; R];
        for p in 0..k {
            // SAFETY: `col_tail` asserted `tail` holds `(k - 1) * stride +
            // w` floats, so row `p < k` starts in it and its `w` unmasked
            // lanes end in it; masked-off lanes are not read, so the
            // register may run past `tail`'s end. It asserted `a` holds
            // the band's rows, `i + rr` among them.
            let src = tail.as_ptr().add(p * stride);
            let mut bv = [_mm512_setzero_ps(); N];
            for (q, v) in bv.iter_mut().enumerate() {
                *v = _mm512_maskz_loadu_ps(masks[q], src.wrapping_add(q * LANES));
            }
            for (rr, lanes) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.get_unchecked((i + rr) * k + p));
                for (lane, &b) in lanes.iter_mut().zip(&bv) {
                    *lane = mul_add::<false>(*lane, av, b);
                }
            }
        }
        for (rr, lanes) in acc.iter().enumerate() {
            // SAFETY: `out` starts at the tail of row `i` and holds `R`
            // rows of stride `m`, the last ending at its tail's `w`
            // columns; only the `w` unmasked lanes are written.
            let dst = out.as_mut_ptr().add(rr * m);
            for (q, lane) in lanes.iter().enumerate() {
                _mm512_mask_storeu_ps(dst.wrapping_add(q * LANES), masks[q], *lane);
            }
        }
        R
    }

    /// Exact (`FMA = false`) or fast dW over `out`'s 4-row tiles; see
    /// [`super::matmul_at_b_tiles`]. Column panels outermost, so one panel
    /// of `g` stays in cache across the tiles that read it; the tail
    /// columns last.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `a: [n, k]`, `g: [n, m]` and
    /// `out: [k, m]` must have exactly those lengths.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_at_b_tiles<const FMA: bool>(
        a: &[f32],
        g: &[f32],
        n: usize,
        k: usize,
        m: usize,
        out: &mut [f32],
    ) {
        let rows = k - k % 4;
        let cols = m - m % PANEL;
        for j0 in (0..cols).step_by(PANEL) {
            for p0 in (0..rows).step_by(4) {
                let tile = out.as_mut_ptr().add(p0 * m + j0);
                let mut acc = [_mm512_setzero_ps(); 8];
                for q in 0..4 {
                    acc[2 * q] = _mm512_loadu_ps(tile.add(q * m));
                    acc[2 * q + 1] = _mm512_loadu_ps(tile.add(q * m + LANES));
                }
                for i in 0..n {
                    let g_row = g.as_ptr().add(i * m + j0);
                    let g0 = _mm512_loadu_ps(g_row);
                    let g1 = _mm512_loadu_ps(g_row.add(LANES));
                    let a_ip = a.as_ptr().add(i * k + p0);
                    for q in 0..4 {
                        let av = _mm512_set1_ps(*a_ip.add(q));
                        if FMA {
                            acc[2 * q] = _mm512_fmadd_ps(av, g0, acc[2 * q]);
                            acc[2 * q + 1] = _mm512_fmadd_ps(av, g1, acc[2 * q + 1]);
                        } else {
                            acc[2 * q] = _mm512_add_ps(acc[2 * q], _mm512_mul_ps(av, g0));
                            acc[2 * q + 1] = _mm512_add_ps(acc[2 * q + 1], _mm512_mul_ps(av, g1));
                        }
                    }
                }
                for q in 0..4 {
                    _mm512_storeu_ps(tile.add(q * m), acc[2 * q]);
                    _mm512_storeu_ps(tile.add(q * m + LANES), acc[2 * q + 1]);
                }
            }
        }
        if cols < m {
            if m - cols > LANES {
                at_b_tail::<2>(a, g, n, k, m, cols, out);
            } else {
                at_b_tail::<1>(a, g, n, k, m, cols, out);
            }
        }
    }

    /// dW over the `w = m - j0 ≤ 16 N` tail columns of `out`'s rows
    /// `0..k - k % 4`: tiles of 4 rows × `N` registers, the lanes past `w`
    /// masked off — loaded as zero, never stored. Each lane adds
    /// `a[i, p] · g[i, j]` for `i = 0..n` in order, mul then add: the
    /// scalar row loop, bitwise, in both vector tiers.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `a: [n, k]`, `g: [n, m]` and
    /// `out: [k, m]` must have exactly those lengths, and `j0 < m`.
    #[target_feature(enable = "avx512f")]
    unsafe fn at_b_tail<const N: usize>(
        a: &[f32],
        g: &[f32],
        n: usize,
        k: usize,
        m: usize,
        j0: usize,
        out: &mut [f32],
    ) {
        let w = m - j0;
        let mut masks: [__mmask16; N] = [0; N];
        for (r, mask) in masks.iter_mut().enumerate() {
            let lanes = w.saturating_sub(r * LANES).min(LANES);
            *mask = ((1u32 << lanes) - 1) as __mmask16;
        }
        for p0 in (0..k - k % 4).step_by(4) {
            // SAFETY: row `p0 + q < k` of `out` holds the `w` tail columns
            // from `j0`, and row `i < n` of `g` the same; a masked-off lane
            // is neither read nor written, so a register may run past a
            // row's (or the slice's) end.
            let tile = out.as_mut_ptr().add(p0 * m + j0);
            let mut acc = [[_mm512_setzero_ps(); N]; 4];
            for (q, lanes) in acc.iter_mut().enumerate() {
                for (r, lane) in lanes.iter_mut().enumerate() {
                    let src = tile.add(q * m).wrapping_add(r * LANES);
                    *lane = _mm512_maskz_loadu_ps(masks[r], src);
                }
            }
            for i in 0..n {
                let g_row = g.as_ptr().add(i * m + j0);
                let mut gv = [_mm512_setzero_ps(); N];
                for (r, v) in gv.iter_mut().enumerate() {
                    *v = _mm512_maskz_loadu_ps(masks[r], g_row.wrapping_add(r * LANES));
                }
                let a_ip = a.as_ptr().add(i * k + p0);
                for (q, lanes) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*a_ip.add(q));
                    for (lane, &gr) in lanes.iter_mut().zip(&gv) {
                        *lane = mul_add::<false>(*lane, av, gr);
                    }
                }
            }
            for (q, lanes) in acc.iter().enumerate() {
                for (r, lane) in lanes.iter().enumerate() {
                    let dst = tile.add(q * m).wrapping_add(r * LANES);
                    _mm512_mask_storeu_ps(dst, masks[r], *lane);
                }
            }
        }
    }

    /// `panel[p * w + c] = rows[c * k + p]` for `w` rows of length `k`
    /// (`w` a multiple of 16): 16×16 blocks transposed in registers, the
    /// `k % 16` trailing columns element by element.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `rows` and `panel` must be `w * k`
    /// long.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn pack_transposed(rows: &[f32], k: usize, w: usize, panel: &mut [f32]) {
        let full = k - k % LANES;
        for c0 in (0..w).step_by(LANES) {
            for p0 in (0..full).step_by(LANES) {
                let mut r = [_mm512_setzero_ps(); LANES];
                for (c, v) in r.iter_mut().enumerate() {
                    *v = _mm512_loadu_ps(rows.as_ptr().add((c0 + c) * k + p0));
                }
                let t = transpose16(r);
                for (p, v) in t.iter().enumerate() {
                    _mm512_storeu_ps(panel.as_mut_ptr().add((p0 + p) * w + c0), *v);
                }
            }
            for c in c0..c0 + LANES {
                for p in full..k {
                    panel[p * w + c] = rows[c * k + p];
                }
            }
        }
    }

    /// Transposes the 16×16 block whose rows are `r`: lane `c` of output
    /// row `p` is lane `p` of input row `c`. Interleaves pairs of rows,
    /// then pairs of pairs, then 128-bit quarters twice.
    #[target_feature(enable = "avx512f")]
    fn transpose16(r: [__m512; LANES]) -> [__m512; LANES] {
        let mut t = [_mm512_setzero_ps(); LANES];
        for i in 0..8 {
            t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
        }
        let mut u = [_mm512_setzero_ps(); LANES];
        for i in 0..4 {
            let (lo, hi) = (t[4 * i], t[4 * i + 1]);
            let (lo2, hi2) = (t[4 * i + 2], t[4 * i + 3]);
            u[4 * i] = _mm512_shuffle_ps::<0x44>(lo, lo2);
            u[4 * i + 1] = _mm512_shuffle_ps::<0xEE>(lo, lo2);
            u[4 * i + 2] = _mm512_shuffle_ps::<0x44>(hi, hi2);
            u[4 * i + 3] = _mm512_shuffle_ps::<0xEE>(hi, hi2);
        }
        for i in 0..4 {
            t[i] = _mm512_shuffle_f32x4::<0x88>(u[i], u[i + 4]);
            t[i + 4] = _mm512_shuffle_f32x4::<0xDD>(u[i], u[i + 4]);
            t[i + 8] = _mm512_shuffle_f32x4::<0x88>(u[i + 8], u[i + 12]);
            t[i + 12] = _mm512_shuffle_f32x4::<0xDD>(u[i + 8], u[i + 12]);
        }
        for i in 0..8 {
            u[i] = _mm512_shuffle_f32x4::<0x88>(t[i], t[i + 8]);
            u[i + 8] = _mm512_shuffle_f32x4::<0xDD>(t[i], t[i + 8]);
        }
        u
    }

    /// Fused batch-norm eval: per-lane `((x - mean) / std) * gamma + beta`.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available; slice bounds are checked.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn bn_eval_rows(
        x: &[f32],
        d: usize,
        mean: &[f32],
        std: &[f32],
        gamma: &[f32],
        beta: &[f32],
        out: &mut [f32],
    ) {
        let full = d - d % LANES;
        for (row, orow) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
            let mut j = 0;
            while j < full {
                let xv = _mm512_loadu_ps(row.as_ptr().add(j));
                let mv = _mm512_loadu_ps(mean.as_ptr().add(j));
                let sv = _mm512_loadu_ps(std.as_ptr().add(j));
                let gv = _mm512_loadu_ps(gamma.as_ptr().add(j));
                let bv = _mm512_loadu_ps(beta.as_ptr().add(j));
                let norm = _mm512_div_ps(_mm512_sub_ps(xv, mv), sv);
                let y = _mm512_add_ps(_mm512_mul_ps(norm, gv), bv);
                _mm512_storeu_ps(orow.as_mut_ptr().add(j), y);
                j += LANES;
            }
            for jj in full..d {
                orow[jj] = (row[jj] - mean[jj]) / std[jj] * gamma[jj] + beta[jj];
            }
        }
    }

    /// `row[j] -= c` across AVX-512 lanes (bitwise: lane-independent sub).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sub_scalar(row: &mut [f32], c: f32) {
        let full = row.len() - row.len() % LANES;
        let cv = _mm512_set1_ps(c);
        let mut j = 0;
        while j < full {
            let v = _mm512_loadu_ps(row.as_ptr().add(j));
            _mm512_storeu_ps(row.as_mut_ptr().add(j), _mm512_sub_ps(v, cv));
            j += LANES;
        }
        for v in &mut row[full..] {
            *v -= c;
        }
    }

    /// `row[j] /= c` across AVX-512 lanes (bitwise: lane-independent div).
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn div_scalar(row: &mut [f32], c: f32) {
        let full = row.len() - row.len() % LANES;
        let cv = _mm512_set1_ps(c);
        let mut j = 0;
        while j < full {
            let v = _mm512_loadu_ps(row.as_ptr().add(j));
            _mm512_storeu_ps(row.as_mut_ptr().add(j), _mm512_div_ps(v, cv));
            j += LANES;
        }
        for v in &mut row[full..] {
            *v /= c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_parsing_covers_knob_spellings() {
        assert_eq!(SimdTier::parse("off"), Ok(SimdTier::Off));
        assert_eq!(SimdTier::parse("0"), Ok(SimdTier::Off));
        assert_eq!(SimdTier::parse("EXACT"), Ok(SimdTier::Exact));
        assert_eq!(SimdTier::parse("fast"), Ok(SimdTier::Fast));
        assert_eq!(SimdTier::parse("fma"), Ok(SimdTier::Fast));
        let err = SimdTier::parse("of").expect_err("a typo is rejected");
        assert!(err.contains("\"of\""), "{err}");
        assert_eq!(SimdTier::default(), SimdTier::Exact);
    }

    #[test]
    fn pack_transposed_is_the_transpose_of_its_rows() {
        for w in [16, 32, 48] {
            for k in [1, 15, 16, 17, 40, 96] {
                let rows: Vec<f32> = (0..w * k).map(|v| v as f32).collect();
                let mut panel = vec![f32::NAN; w * k];
                if !pack_transposed(SimdTier::Exact, &rows, k, w, &mut panel) {
                    assert!(!available(), "an AVX-512 host packs {w}x{k}");
                    continue;
                }
                for c in 0..w {
                    for p in 0..k {
                        assert_eq!(panel[p * w + c], rows[c * k + p], "w {w} k {k} c {c} p {p}");
                    }
                }
            }
        }
        // The scalar tier and widths off the 16-lane grid stay with the caller.
        let mut panel = vec![0.0f32; 8];
        assert!(!pack_transposed(SimdTier::Off, &[0.0; 8], 1, 8, &mut panel));
        assert!(!pack_transposed(
            SimdTier::Exact,
            &[0.0; 8],
            1,
            8,
            &mut panel
        ));
    }

    #[test]
    fn effective_clamps_to_hardware() {
        assert_eq!(effective(SimdTier::Off), SimdTier::Off);
        if !available() {
            assert_eq!(effective(SimdTier::Exact), SimdTier::Off);
            assert_eq!(effective(SimdTier::Fast), SimdTier::Off);
        } else {
            assert_eq!(effective(SimdTier::Fast), SimdTier::Fast);
        }
    }
}
