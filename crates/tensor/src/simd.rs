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
//!   that are *bitwise identical* to the scalar path. The matmul uses
//!   separate multiply + add intrinsics (never FMA, which contracts the
//!   rounding step) and accumulates each output lane in the same
//!   `p = 0..k` order as the textbook loop, so the workspace-wide
//!   bitwise-determinism contract (golden traces, 1-vs-N-thread diffs)
//!   holds unchanged.
//! * **`fast`** (opt-in) — FMA-contracted, 8-row register blocks. Not
//!   bitwise: each fused multiply-add skips one rounding, so results
//!   drift from the oracle by an accumulation-length-scaled ULP bound.
//!   Golden-trace byte-diff jobs must not enable this tier. Within the
//!   tier a row's result still does not depend on the row count or the
//!   thread band it lands in (the row tail runs the same fused chain).
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

/// Vectorized `out = a · b` over 32-column panels; returns `false` when the
/// tier/CPU cannot handle the shape, in which case the caller must run the
/// scalar kernel instead.
///
/// `packed` must hold the full-width column panels of `b` (panel for
/// columns `[j0, j0+32)` stored p-major at offset `j0 * k`, exactly the
/// packing `crate::kernels` produces with a 32-wide tile); trailing
/// columns (`m % 32`) are read straight from `b` by a scalar loop in the
/// same `p = 0..k` order as the oracle.
#[allow(clippy::too_many_arguments, unused_variables)]
pub fn matmul_band(
    tier: SimdTier,
    a: &[f32],
    b: &[f32],
    packed: &[f32],
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
                SimdTier::Fast => x86::matmul_band_fast(a, b, packed, k, m, first_row, band),
                _ => x86::matmul_band_exact(a, b, packed, k, m, first_row, band),
            }
        }
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
    use super::{LANES, PANEL};
    use std::arch::x86_64::*;

    /// Exact-tier matmul over one row band: mul + add (no contraction),
    /// per-lane accumulation in `p = 0..k` order — bitwise identical to
    /// the scalar oracle. 4-row register blocks over 32-column panels.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX-512F is available and that `a`/`b`/`packed`
    /// cover the dimensions implied by `k`, `m`, `first_row`, and `band`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_band_exact(
        a: &[f32],
        b: &[f32],
        packed: &[f32],
        k: usize,
        m: usize,
        first_row: usize,
        band: &mut [f32],
    ) {
        let band_rows = band.len() / m;
        let full = m - m % PANEL;
        let mut r = 0;
        while r + 4 <= band_rows {
            let i = first_row + r;
            let mut j0 = 0;
            while j0 < full {
                let panel = &packed[j0 * k..j0 * k + PANEL * k];
                let mut acc = [_mm512_setzero_ps(); 8];
                for p in 0..k {
                    let b0 = _mm512_loadu_ps(panel.as_ptr().add(p * PANEL));
                    let b1 = _mm512_loadu_ps(panel.as_ptr().add(p * PANEL + LANES));
                    for q in 0..4 {
                        let av = _mm512_set1_ps(*a.get_unchecked((i + q) * k + p));
                        acc[2 * q] = _mm512_add_ps(acc[2 * q], _mm512_mul_ps(av, b0));
                        acc[2 * q + 1] = _mm512_add_ps(acc[2 * q + 1], _mm512_mul_ps(av, b1));
                    }
                }
                for q in 0..4 {
                    let dst = band.as_mut_ptr().add((r + q) * m + j0);
                    _mm512_storeu_ps(dst, acc[2 * q]);
                    _mm512_storeu_ps(dst.add(LANES), acc[2 * q + 1]);
                }
                j0 += PANEL;
            }
            if full < m {
                scalar_cols(a, b, k, m, i, full, &mut band[r * m..(r + 4) * m]);
            }
            r += 4;
        }
        row_tail::<false>(a, b, k, m, first_row + r, &mut band[r * m..]);
    }

    /// Fast-tier matmul over one row band: FMA contraction, 8-row blocks.
    /// Not bitwise vs scalar — each fused multiply-add skips a rounding —
    /// but every output lane is the same fused `p = 0..k` chain in a block
    /// and in the row tail, so the result is independent of the row count
    /// and of the band split, as in the other tiers.
    ///
    /// # Safety
    ///
    /// Same contract as [`matmul_band_exact`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_band_fast(
        a: &[f32],
        b: &[f32],
        packed: &[f32],
        k: usize,
        m: usize,
        first_row: usize,
        band: &mut [f32],
    ) {
        let band_rows = band.len() / m;
        let full = m - m % PANEL;
        let mut r = 0;
        while r + 8 <= band_rows {
            let i = first_row + r;
            let mut j0 = 0;
            while j0 < full {
                let panel = &packed[j0 * k..j0 * k + PANEL * k];
                let mut acc = [_mm512_setzero_ps(); 16];
                for p in 0..k {
                    let b0 = _mm512_loadu_ps(panel.as_ptr().add(p * PANEL));
                    let b1 = _mm512_loadu_ps(panel.as_ptr().add(p * PANEL + LANES));
                    for q in 0..8 {
                        let av = _mm512_set1_ps(*a.get_unchecked((i + q) * k + p));
                        acc[2 * q] = _mm512_fmadd_ps(av, b0, acc[2 * q]);
                        acc[2 * q + 1] = _mm512_fmadd_ps(av, b1, acc[2 * q + 1]);
                    }
                }
                for q in 0..8 {
                    let dst = band.as_mut_ptr().add((r + q) * m + j0);
                    _mm512_storeu_ps(dst, acc[2 * q]);
                    _mm512_storeu_ps(dst.add(LANES), acc[2 * q + 1]);
                }
                j0 += PANEL;
            }
            if full < m {
                scalar_cols(a, b, k, m, i, full, &mut band[r * m..(r + 8) * m]);
            }
            r += 8;
        }
        row_tail::<true>(a, b, k, m, first_row + r, &mut band[r * m..]);
    }

    /// The rows left over after a band's register blocks, one at a time:
    /// the full 32-column panels accumulate in registers straight from `b`
    /// (no packing), the `m % 32` column tail is [`scalar_cols`]. Each
    /// output lane runs the chain its block kernel runs over `p = 0..k` —
    /// fused when `FMA`, mul then add otherwise — because an element's
    /// value must not depend on which rows share its block: a row's result
    /// would otherwise change with the batch it rides in and with the band
    /// split. The batch-1 forward is all row tail.
    ///
    /// # Safety
    ///
    /// Same contract as [`matmul_band_exact`]; `rows` holds whole rows
    /// starting at row `i` of `a`.
    #[target_feature(enable = "avx512f")]
    unsafe fn row_tail<const FMA: bool>(
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        i: usize,
        rows: &mut [f32],
    ) {
        let full = m - m % PANEL;
        for (q, out_row) in rows.chunks_mut(m).enumerate() {
            let a_row = &a[(i + q) * k..(i + q + 1) * k];
            // Widest groups first: more independent chains hide the
            // add latency of each.
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
            if full < m {
                scalar_cols(a, b, k, m, i + q, full, out_row);
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
                *lane = if FMA {
                    _mm512_fmadd_ps(av, bv, *lane)
                } else {
                    _mm512_add_ps(*lane, _mm512_mul_ps(av, bv))
                };
            }
        }
        for (q, lane) in acc.iter().enumerate() {
            // SAFETY: in bounds, `out` holds at least `N * LANES` floats
            // (asserted above).
            _mm512_storeu_ps(out.as_mut_ptr().add(q * LANES), *lane);
        }
    }

    /// Scalar column tail for rows `[i, i + rows)`, columns `[j0, m)`,
    /// reading `b` directly (stride `m`) in oracle `p = 0..k` order.
    fn scalar_cols(
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        i: usize,
        j0: usize,
        out_rows: &mut [f32],
    ) {
        for (q, out_row) in out_rows.chunks_mut(m).enumerate() {
            let a_row = &a[(i + q) * k..(i + q + 1) * k];
            let tile = &mut out_row[j0..];
            tile.fill(0.0);
            for (p, &ap) in a_row.iter().enumerate() {
                let brow = &b[p * m + j0..p * m + m];
                for (o, &bv) in tile.iter_mut().zip(brow) {
                    *o += ap * bv;
                }
            }
        }
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
