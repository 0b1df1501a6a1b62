//! CRC-32 (IEEE 802.3) — the workspace's one implementation, shared by
//! `nazar-store`'s chunk footers and `nazar-net`'s frame trailers.
//!
//! Two kernels compute the same values. From 64 bytes on an
//! x86-64 CPU with `pclmulqdq` and `sse4.1`, [`crc32`] folds the input
//! 4×128 bits at a time with carry-less multiplies and finishes with a
//! Barrett reduction (Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ", Intel 2009). Shorter inputs, the folded
//! input's last < 16 bytes, and every other CPU take slice-by-8 over
//! compile-time tables: the byte-at-a-time loop, eight input bytes per step.

/// Inputs from this length on take the carry-less-multiply kernel where
/// the CPU has it: the kernel's first step loads four 16-byte blocks.
const CLMUL_MIN_LEN: usize = 64;

/// `tables[0]` is the classic byte-at-a-time table; `tables[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, which lets eight
/// input bytes fold into the state with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let folded = if uses_clmul(bytes.len()) {
        clmul_update(!0, bytes)
    } else {
        None
    };
    !folded.unwrap_or_else(|| table_update(!0, bytes))
}

/// Whether [`crc32`] runs the carry-less-multiply kernel on `len` bytes.
fn uses_clmul(len: usize) -> bool {
    len >= CLMUL_MIN_LEN && clmul_detected()
}

/// Whether the running CPU has the features the carry-less-multiply
/// kernel enables.
fn clmul_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The CRC state after `bytes`, starting from `state`, by slice-by-8.
fn table_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let (words, rest) = bytes.as_chunks::<8>();
    for w in words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in rest {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The CRC state after `bytes`, starting from `state`, by the
/// carry-less-multiply kernel; `None` where this CPU lacks its features.
#[allow(unsafe_code)]
fn clmul_update(state: u32, bytes: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if clmul_detected() {
        // SAFETY: `clmul::update` is safe but for its target features,
        // `pclmulqdq` and `sse4.1`, and `clmul_detected` just found both on
        // the running CPU. It reads `bytes` through safe slice operations
        // only, so no input can make it read out of bounds.
        return Some(unsafe { clmul::update(state, bytes) });
    }
    let _ = (state, bytes);
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants of the bit-reflected polynomial 0xEDB88320 (the
    // Intel paper's k1..k5, each x^n mod P(x) reflected and shifted left
    // by one): K1/K2 fold a register across 512 bits, K3/K4 across 128,
    // K5 takes 96 bits to 64.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// P(x), reflected, with its x^32 term.
    const P_X: i64 = 0x1_DB71_0641;
    /// μ = ⌊x^64 / P(x)⌋, reflected: the Barrett reduction's quotient.
    const MU: i64 = 0x1_F701_1641;

    /// One 16-byte block as a register, byte `i` in lane byte `i`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `acc` carried 128 bits (or 512, by `keys`) forward onto `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The CRC state after `bytes`, starting from `state`: four
    /// accumulators over 64-byte strides, merged into one, then 16-byte
    /// blocks, then reduced to 32 bits; the last < 16 bytes go through the
    /// tables. Inputs under 64 bytes go through the tables whole.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return super::table_update(state, bytes);
        };
        let mut x = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (strides, singles) = rest.as_chunks::<4>();
        for stride in strides {
            for (acc, block) in x.iter_mut().zip(stride) {
                *acc = fold(*acc, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(x[0], x[1], k3k4);
        acc = fold(acc, x[2], k3k4);
        acc = fold(acc, x[3], k3k4);
        for block in singles {
            acc = fold(acc, load(block), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
            _mm_srli_si128::<8>(acc),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is the upper half of R ⊕ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::table_update(c, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One step of the bit-at-a-time CRC-32 (IEEE) definition.
    fn crc32_fold(state: u32, byte: u8) -> u32 {
        let mut c = state ^ u32::from(byte);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        c
    }

    /// Whether this CPU has what the carry-less-multiply kernel enables,
    /// detected here independently of the dispatch under test.
    fn cpu_has_clmul() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every length 0..=4096 at every start offset mod 8: both kernels,
    /// called directly, and the dispatching `crc32` agree with the bitwise
    /// definition — the tables' eight-byte loop and remainder, and the
    /// folding kernel's strides, single blocks and table tail, at unaligned
    /// starts.
    #[test]
    fn both_kernels_match_the_bitwise_definition() {
        let clmul = cpu_has_clmul();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            let mut state = 0xFFFF_FFFFu32;
            for len in 0..=4096 {
                let bytes = &buf[start..start + len];
                let want = state ^ 0xFFFF_FFFF;
                assert_eq!(
                    !table_update(!0, bytes),
                    want,
                    "tables, start {start} len {len}"
                );
                let folded = clmul_update(!0, bytes);
                assert_eq!(
                    folded.is_some(),
                    clmul,
                    "the kernel exists iff the CPU has it"
                );
                if let Some(folded) = folded {
                    assert_eq!(!folded, want, "clmul, start {start} len {len}");
                }
                assert_eq!(crc32(bytes), want, "crc32, start {start} len {len}");
                state = crc32_fold(state, buf[start + len]);
            }
        }
    }

    /// On a CPU with the features, `crc32` runs the folding kernel from
    /// `CLMUL_MIN_LEN` bytes on and the tables below it, so an x86 host
    /// cannot quietly test only the tables.
    #[test]
    fn crc32_dispatches_to_clmul_from_its_threshold() {
        let clmul = cpu_has_clmul();
        assert!(!uses_clmul(CLMUL_MIN_LEN - 1));
        for len in [CLMUL_MIN_LEN, CLMUL_MIN_LEN + 1, 864, 4096] {
            assert_eq!(uses_clmul(len), clmul, "len {len}");
        }
        assert_eq!(clmul_update(!0, &[7; CLMUL_MIN_LEN]).is_some(), clmul);
    }
}
