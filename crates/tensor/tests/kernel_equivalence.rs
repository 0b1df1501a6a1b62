//! Property tests: every `*_into` kernel is equivalent to a naive
//! textbook reference across random shapes and data.
//!
//! The kernels are written to accumulate in the same floating-point order
//! as the references (the packed-B matmul walks `p = 0..k` per output
//! element, the reductions walk rows in order), so equality here is exact
//! (`==` per element, which treats `-0.0` and `+0.0` as equal) rather
//! than within a tolerance. A dedicated case checks that the parallel
//! matmul path is bitwise identical to the sequential one for every
//! thread count, which is what makes `NAZAR_NUM_THREADS` a pure
//! performance knob. The fused batch-statistic BN node is checked
//! against the tape composition it replaced, bit for bit.

use nazar_tensor::{kernels, simd, SimdTier, Tape, Tensor, Workspace};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic random data for a given seed.
fn data(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Textbook `[n, k] x [k, m]` matmul in `i, p, j` loop order.
fn naive_matmul(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        for p in 0..k {
            let av = a[i * k + p];
            for j in 0..m {
                out[i * m + j] += av * b[p * m + j];
            }
        }
    }
    out
}

/// The scalar `out += g · bT` dot-product loop `matmul_a_bt_into` ran
/// before it was rebuilt on the packed forward kernel — `g: [n, m]`,
/// `b: [k, m]`, `out: [n, k]`, each element a sum from zero over
/// `j = 0..m` in order, then one add into `out`. Kept here as the oracle.
fn dot_loop_a_bt(g: &[f32], b: &[f32], n: usize, m: usize, k: usize, out: &mut [f32]) {
    for i in 0..n {
        let g_row = &g[i * m..(i + 1) * m];
        for p in 0..k {
            let b_row = &b[p * m..(p + 1) * m];
            let mut acc = 0.0f32;
            for (&gv, &bv) in g_row.iter().zip(b_row) {
                acc += gv * bv;
            }
            out[i * k + p] += acc;
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_into_matches_naive(
        n in 1usize..24,
        k in 1usize..24,
        m in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let a = data(seed, n * k);
        let b = data(seed.wrapping_add(1), k * m);
        let mut ws = Workspace::new();
        let mut out = vec![0.0f32; n * m];
        kernels::matmul_into(&a, &b, n, k, m, &mut out, &mut ws);
        prop_assert_eq!(out, naive_matmul(&a, &b, n, k, m));
    }

    #[test]
    fn parallel_matmul_is_bitwise_deterministic(
        n in 1usize..40,
        k in 1usize..24,
        m in 1usize..24,
        threads in 2usize..=8,
        seed in 0u64..1_000,
    ) {
        let a = data(seed, n * k);
        let b = data(seed.wrapping_add(2), k * m);
        let mut ws = Workspace::new();
        let mut sequential = vec![0.0f32; n * m];
        kernels::matmul_into_threads(&a, &b, n, k, m, &mut sequential, &mut ws, 1);
        let mut parallel = vec![0.0f32; n * m];
        kernels::matmul_into_threads(&a, &b, n, k, m, &mut parallel, &mut ws, threads);
        prop_assert_eq!(parallel, sequential);
    }

    #[test]
    fn matmul_at_b_matches_transposed_naive(
        n in 1usize..16,
        k in 1usize..16,
        m in 1usize..16,
        seed in 0u64..1_000,
    ) {
        // out[k, m] += aT · g, accumulated over i in order — identical to
        // transposing a first and running the naive loop.
        let a = data(seed, n * k);
        let g = data(seed.wrapping_add(3), n * m);
        let mut out = vec![0.0f32; k * m];
        kernels::matmul_at_b_into(&a, &g, n, k, m, &mut out);
        let reference = naive_matmul(&naive_transpose(&a, n, k), &g, k, n, m);
        for (&o, &r) in out.iter().zip(&reference) {
            prop_assert!(o == r, "at_b {o} != reference {r}");
        }
    }

    #[test]
    fn matmul_a_bt_matches_transposed_naive(
        n in 1usize..80,
        k in 1usize..80,
        m in 1usize..80,
        threads in 1usize..=8,
        seed in 0u64..1_000,
    ) {
        // out[n, k] += g · bT: the kernel transposes `b` and runs the packed
        // forward matmul; the oracle is the dot-product loop it replaced.
        // Dims to 80 cross the 32-column panel and 4-row block edges, and
        // `out` enters non-zero so the final add is part of the check.
        let g = data(seed, n * m);
        let b = data(seed.wrapping_add(4), k * m);
        let entry = data(seed.wrapping_add(14), n * k);
        let mut reference = entry.clone();
        dot_loop_a_bt(&g, &b, n, m, k, &mut reference);
        let mut ws = Workspace::new();
        for tier in [SimdTier::Off, SimdTier::Exact] {
            let mut out = entry.clone();
            kernels::matmul_a_bt_into_tier(&g, &b, n, m, k, &mut out, &mut ws, threads, tier);
            for (i, (&o, &r)) in out.iter().zip(&reference).enumerate() {
                prop_assert!(
                    o.to_bits() == r.to_bits(),
                    "tier {tier:?} threads {threads} element {i}: {o} != oracle {r}",
                );
            }
        }
        // The fast tier contracts each multiply-add: same envelope as
        // `simd_fast_matmul_is_ulp_bounded_vs_scalar_oracle`, over the
        // accumulation length m.
        let mut fast = entry.clone();
        kernels::matmul_a_bt_into_tier(&g, &b, n, m, k, &mut fast, &mut ws, threads, SimdTier::Fast);
        let abs_g: Vec<f32> = g.iter().map(|x| x.abs()).collect();
        let abs_bt: Vec<f32> = naive_transpose(&b, k, m).iter().map(|x| x.abs()).collect();
        let abs_ref = naive_matmul(&abs_g, &abs_bt, n, m, k);
        for i in 0..n * k {
            let tol = 1e-6 + abs_ref[i] * (m as f32) * 1e-6;
            prop_assert!(
                (fast[i] - reference[i]).abs() <= tol,
                "fast {} vs oracle {} (tol {tol})", fast[i], reference[i],
            );
        }
    }

    #[test]
    fn transpose_into_matches_naive_and_round_trips(
        n in 1usize..80,
        m in 1usize..80,
        seed in 0u64..1_000,
    ) {
        let src = data(seed, n * m);
        let mut dst = vec![0.0f32; n * m];
        kernels::transpose_into(&src, n, m, &mut dst);
        prop_assert_eq!(&dst, &naive_transpose(&src, n, m));
        let mut back = vec![0.0f32; n * m];
        kernels::transpose_into(&dst, m, n, &mut back);
        prop_assert_eq!(back, src);
    }

    #[test]
    fn sum_axis0_matches_row_order_accumulation(
        n in 1usize..32,
        d in 1usize..32,
        seed in 0u64..1_000,
    ) {
        let a = data(seed, n * d);
        let mut out = vec![0.0f32; d];
        kernels::sum_axis0_into(&a, n, d, &mut out);
        let mut reference = vec![0.0f32; d];
        for row in a.chunks_exact(d) {
            for (r, &x) in reference.iter_mut().zip(row) {
                *r += x;
            }
        }
        prop_assert_eq!(out, reference);
    }

    #[test]
    fn elementwise_kernels_match_naive(len in 1usize..256, seed in 0u64..1_000) {
        let a = data(seed, len);
        let b = data(seed.wrapping_add(5), len);

        let mut add = vec![0.0f32; len];
        kernels::add_into(&a, &b, &mut add);
        let mut acc = a.clone();
        kernels::add_assign(&mut acc, &b);
        let mut axpy = b.clone();
        kernels::axpy_into(0.5, &a, &mut axpy);
        let mut fma = b.clone();
        kernels::fma_assign(&mut fma, &a, &b);
        let mut mapped = vec![0.0f32; len];
        kernels::map_into(&a, &mut mapped, |x| x * 2.0 + 1.0);
        let mut zipped = vec![0.0f32; len];
        kernels::zip_into(&a, &b, &mut zipped, |x, y| x * y);

        for i in 0..len {
            prop_assert!(add[i] == a[i] + b[i]);
            prop_assert!(acc[i] == a[i] + b[i]);
            prop_assert!(axpy[i] == b[i] + 0.5 * a[i]);
            prop_assert!(fma[i] == b[i] + a[i] * b[i]);
            prop_assert!(mapped[i] == a[i] * 2.0 + 1.0);
            prop_assert!(zipped[i] == a[i] * b[i]);
        }
    }

    #[test]
    fn workspace_recycling_does_not_change_matmul(
        n in 1usize..12,
        k in 1usize..12,
        m in 1usize..12,
        seed in 0u64..1_000,
    ) {
        // A warm workspace (dirty pooled buffers from prior calls) must
        // produce the same result as a cold one.
        let a = data(seed, n * k);
        let b = data(seed.wrapping_add(6), k * m);
        let mut cold = Workspace::new();
        let mut expected = vec![0.0f32; n * m];
        kernels::matmul_into(&a, &b, n, k, m, &mut expected, &mut cold);

        let mut warm = Workspace::new();
        warm.recycle(data(seed.wrapping_add(7), n * m + k * m + 3));
        warm.recycle(vec![7.0f32; k * m]);
        let mut out = vec![0.0f32; n * m];
        kernels::matmul_into(&a, &b, n, k, m, &mut out, &mut warm);
        prop_assert_eq!(out, expected);
    }

    // ----------------------------------------------------------------
    // SIMD tiers vs the scalar oracle (PR 9)
    // ----------------------------------------------------------------

    #[test]
    fn simd_exact_matmul_is_bitwise_vs_scalar_oracle(
        n in 1usize..48,
        k in 1usize..48,
        m in 1usize..72,
        threads in 1usize..=8,
        seed in 0u64..1_000,
    ) {
        // The exact tier (mul + add, per-lane p-order accumulation) must be
        // *bitwise* identical to the scalar kernel at every shape — panel
        // edges, remainder rows, and all thread widths included.
        let a = data(seed, n * k);
        let b = data(seed.wrapping_add(8), k * m);
        let mut ws = Workspace::new();
        let mut scalar = vec![0.0f32; n * m];
        kernels::matmul_into_tier(&a, &b, n, k, m, &mut scalar, &mut ws, 1, SimdTier::Off);
        let mut vector = vec![f32::NAN; n * m];
        kernels::matmul_into_tier(&a, &b, n, k, m, &mut vector, &mut ws, threads, SimdTier::Exact);
        prop_assert_eq!(vector, scalar);
    }

    #[test]
    fn simd_fast_matmul_is_ulp_bounded_vs_scalar_oracle(
        n in 1usize..48,
        k in 1usize..48,
        m in 1usize..72,
        seed in 0u64..1_000,
    ) {
        // The fast tier contracts one rounding per multiply-add, so the
        // worst-case drift from the oracle scales with the accumulation
        // length k: |fast - scalar| <= |a|·|b| product * k * eps-ish.
        let a = data(seed, n * k);
        let b = data(seed.wrapping_add(9), k * m);
        let mut ws = Workspace::new();
        let mut scalar = vec![0.0f32; n * m];
        kernels::matmul_into_tier(&a, &b, n, k, m, &mut scalar, &mut ws, 1, SimdTier::Off);
        let mut fast = vec![f32::NAN; n * m];
        kernels::matmul_into_tier(&a, &b, n, k, m, &mut fast, &mut ws, 1, SimdTier::Fast);
        let abs_a: Vec<f32> = a.iter().map(|x| x.abs()).collect();
        let abs_b: Vec<f32> = b.iter().map(|x| x.abs()).collect();
        let abs_ref = naive_matmul(&abs_a, &abs_b, n, k, m);
        for i in 0..n * m {
            let tol = 1e-6 + abs_ref[i] * (k as f32) * 1e-6;
            prop_assert!(
                (fast[i] - scalar[i]).abs() <= tol,
                "fast {} vs scalar {} (tol {tol})", fast[i], scalar[i],
            );
        }
    }

    #[test]
    fn matmul_rows_do_not_depend_on_their_batch_in_any_tier(
        n in 1usize..40,
        k in 1usize..48,
        m in 1usize..72,
        threads in 1usize..=8,
        seed in 0u64..1_000,
    ) {
        // Row `i` of an `[n, k] x [k, m]` product equals the one-row
        // product of row `i`, bitwise, whatever register block or thread
        // band the row landed in — in the fast tier too, which is what
        // lets a caller batch rows without changing any of them.
        let a = data(seed, n * k);
        let b = data(seed.wrapping_add(11), k * m);
        let mut ws = Workspace::new();
        for tier in [SimdTier::Off, SimdTier::Exact, SimdTier::Fast] {
            let mut batched = vec![f32::NAN; n * m];
            kernels::matmul_into_tier(&a, &b, n, k, m, &mut batched, &mut ws, threads, tier);
            let mut row = vec![f32::NAN; m];
            for i in 0..n {
                let a_row = &a[i * k..(i + 1) * k];
                kernels::matmul_into_tier(a_row, &b, 1, k, m, &mut row, &mut ws, 1, tier);
                prop_assert!(batched[i * m..(i + 1) * m] == row[..], "tier {tier:?} row {i}");
            }
        }
    }

    #[test]
    fn bn_eval_kernel_is_bitwise_across_tiers(
        n in 1usize..16,
        d in 1usize..64,
        seed in 0u64..1_000,
    ) {
        let x = data(seed, n * d);
        let mean = data(seed.wrapping_add(10), d);
        let std: Vec<f32> = data(seed.wrapping_add(11), d)
            .into_iter()
            .map(|v| v.abs() + 0.5)
            .collect();
        let gamma = data(seed.wrapping_add(12), d);
        let beta = data(seed.wrapping_add(13), d);
        // Scalar reference: exactly the BatchNorm1d eval arithmetic.
        let mut reference = vec![0.0f32; n * d];
        for (row, orow) in x.chunks_exact(d).zip(reference.chunks_exact_mut(d)) {
            for j in 0..d {
                orow[j] = (row[j] - mean[j]) / std[j] * gamma[j] + beta[j];
            }
        }
        for tier in [SimdTier::Off, SimdTier::Exact, SimdTier::Fast] {
            let mut out = vec![f32::NAN; n * d];
            kernels::bn_eval_into(&x, d, &mean, &std, &gamma, &beta, &mut out, tier);
            prop_assert_eq!(&out, &reference);
        }
    }

    #[test]
    fn softmax_row_kernel_is_bitwise_across_tiers(
        d in 1usize..80,
        seed in 0u64..1_000,
    ) {
        let row = data(seed, d);
        // Scalar reference: max-shift, exp, in-order sum, divide.
        let mut reference = row.clone();
        let max = reference.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in reference.iter_mut() {
            *v -= max;
        }
        let mut sum = 0.0f32;
        for v in reference.iter_mut() {
            *v = v.exp();
            sum += *v;
        }
        for v in reference.iter_mut() {
            *v /= sum;
        }
        for tier in [SimdTier::Off, SimdTier::Exact, SimdTier::Fast] {
            let mut out = row.clone();
            kernels::softmax_row_tier(&mut out, tier);
            prop_assert_eq!(&out, &reference);
            let total: f32 = out.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
        }
    }

    // ----------------------------------------------------------------
    // Shared log-sum-exp vs an f64 reference (PR 9 satellite 1)
    // ----------------------------------------------------------------

    #[test]
    fn log_sum_exp_tracks_f64_reference(
        d in 1usize..32,
        ti in 0usize..4,
        si in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let t = [0.5f32, 1.0, 2.0, 10.0][ti];
        let scale = [1.0f32, 50.0, 500.0, 5000.0][si];
        // Large-magnitude logits used to overflow exp() before the
        // max-shift unification; the shared helper must stay finite and
        // within f32 noise of an f64 ground truth at every scale.
        let row: Vec<f32> = data(seed, d).into_iter().map(|v| v * scale).collect();
        let got = kernels::log_sum_exp(&row, t);
        let t64 = f64::from(t);
        let max64 = row.iter().map(|&v| f64::from(v)).fold(f64::NEG_INFINITY, f64::max);
        let reference = row
            .iter()
            .map(|&v| ((f64::from(v) - max64) / t64).exp())
            .sum::<f64>()
            .ln()
            * t64
            + max64;
        prop_assert!(got.is_finite(), "LSE overflowed: {got}");
        let tol = 1e-4 * reference.abs().max(1.0);
        prop_assert!(
            (f64::from(got) - reference).abs() <= tol,
            "got {got} vs f64 reference {reference}",
        );
    }

    #[test]
    fn log_softmax_rows_matches_shared_helper(
        n in 1usize..8,
        c in 1usize..16,
        seed in 0u64..1_000,
    ) {
        // nn's log-softmax (and through it entropy_of_logits) must be the
        // shared helper at t = 1.0, bit for bit.
        let x = data(seed, n * c);
        let t = nazar_tensor::Tensor::from_vec(x.clone(), &[n, c]).unwrap();
        let lp = t.log_softmax_rows().unwrap();
        for i in 0..n {
            let row = &x[i * c..(i + 1) * c];
            let lse = kernels::log_sum_exp(row, 1.0);
            for (j, &v) in row.iter().enumerate() {
                prop_assert!(lp.data()[i * c + j] == v - lse);
            }
        }
    }
}

#[test]
fn simd_tier_reporting_is_consistent() {
    // On AVX-512 hosts the vector tiers must actually engage; elsewhere
    // they must clamp to Off (and the kernels above fall back to scalar).
    if simd::available() {
        assert_eq!(simd::effective(SimdTier::Exact), SimdTier::Exact);
    } else {
        assert_eq!(simd::effective(SimdTier::Fast), SimdTier::Off);
    }
}

// --------------------------------------------------------------------
// The fused batch-statistic BN node vs the composition it replaced
// --------------------------------------------------------------------

/// `y`, batch mean, batch variance and the gradients of x, γ and β (those
/// registered as leaves) of one batch-statistic BN forward and backward.
type BnOutcome = (Vec<Vec<u32>>, [Option<Vec<u32>>; 3]);

/// Runs batch-statistic BN on `x`, `gamma`, `beta` — leaves where `leaf`
/// says so, constants elsewhere — either as the fused node or as the
/// nine-node composition `BatchNorm1d` recorded before it, under the loss
/// `Σ y·w` (plus `Σ x·w` when `x_reused`, recorded after the BN so that
/// the BN backward adds into a gradient `x` already has).
fn bn_outcome(
    fused: bool,
    [x, gamma, beta]: [&Tensor; 3],
    leaf: [bool; 3],
    w: &Tensor,
    x_reused: bool,
) -> BnOutcome {
    let eps = 1e-5;
    let tape = Tape::new();
    let bind = |t: &Tensor, leaf: bool| if leaf { tape.leaf(t) } else { tape.constant(t) };
    let (xv, gv, bv) = (bind(x, leaf[0]), bind(gamma, leaf[1]), bind(beta, leaf[2]));
    let (y, mean, var) = if fused {
        xv.batch_norm(&gv, &bv, eps)
    } else {
        let mean = xv.mean_axis0();
        let centered = xv.sub_row(&mean);
        let var = centered.mul(&centered).mean_axis0();
        let std = var.add_scalar(eps).sqrt();
        let y = centered.div_row(&std).mul_row(&gv).add_row(&bv);
        (y, mean.value(), var.value())
    };
    let wv = tape.constant(w);
    let mut loss = y.mul(&wv).sum_all();
    if x_reused {
        loss = loss.add(&xv.mul(&wv).sum_all());
    }
    let grads = loss.backward();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let grad = |v: &nazar_tensor::Var| grads.get(v).map(bits);
    (
        vec![bits(&y.value()), bits(&mean), bits(&var)],
        [grad(&xv), grad(&gv), grad(&bv)],
    )
}

#[test]
fn fused_batch_norm_is_bitwise_the_composition() {
    let mut checked = 0;
    for n in [2usize, 3, 64, 65] {
        for d in [1usize, 13, 96] {
            for case in ["plain", "zero_variance", "non_finite"] {
                let seed = (n * 1000 + d) as u64;
                let mut x = data(seed, n * d);
                match case {
                    // Channel 0 constant: batch variance exactly zero.
                    "zero_variance" => (0..n).for_each(|i| x[i * d] = 0.75),
                    // Channel 0 holds a NaN, the last channel ±Inf.
                    "non_finite" => {
                        x[d] = f32::NAN;
                        x[d - 1] = f32::INFINITY;
                        x[(n - 1) * d + d - 1] = f32::NEG_INFINITY;
                    }
                    _ => {}
                }
                let x = Tensor::from_vec(x, &[n, d]).unwrap();
                // γ negative in places and ±0 in others, so `g·γ` makes
                // -0.0 that only the zeroed slot's `0 +` turns into +0.0.
                let mut gamma = data(seed + 1, d);
                gamma[0] = -0.0;
                if d > 2 {
                    gamma[1] = 0.0;
                }
                let gamma = Tensor::from_vec(gamma, &[d]).unwrap();
                let beta = Tensor::from_vec(data(seed + 2, d), &[d]).unwrap();
                // The upstream gradient holds +0.0, -0.0 and signed values.
                let mut w = data(seed + 3, n * d);
                w[0] = -0.0;
                w[n * d - 1] = 0.0;
                w[n * d / 2] = -0.0;
                let w = Tensor::from_vec(w, &[n, d]).unwrap();
                for mask in 0..8 {
                    let leaf = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
                    for x_reused in [false, true] {
                        let inputs = [&x, &gamma, &beta];
                        let fused = bn_outcome(true, inputs, leaf, &w, x_reused);
                        let oracle = bn_outcome(false, inputs, leaf, &w, x_reused);
                        assert_eq!(
                            fused, oracle,
                            "n {n} d {d} {case} leaves {leaf:?} x reused {x_reused}"
                        );
                        for (has, wanted) in fused.1.iter().zip(leaf) {
                            assert_eq!(has.is_some(), wanted, "gradient presence");
                        }
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 4 * 3 * 3 * 8 * 2);
}
