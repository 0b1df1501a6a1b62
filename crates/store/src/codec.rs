//! Columnar codecs for chunk sections.
//!
//! Each chunk section (one dict-code column, the drift bitmap, the
//! timestamp column) is encoded independently by one of the codecs here
//! and tagged with its codec id in the chunk header, so old chunks stay
//! readable when new codecs are added. Dict codes are small integers by
//! construction (dictionary encoding caps them at the column's distinct
//! count), so bitpacking and run-length encoding both routinely beat raw
//! little-endian storage; the writer keeps whichever is smaller,
//! deterministically, with ties going to bitpack. Raw columns are only
//! read: older builds could write them.
//!
//! Decoding never panics: every malformed input maps to
//! [`StoreError`](crate::StoreError) through [`CodecError`], per the
//! workspace's typed-error policy (DESIGN.md §9).

/// CRC-32 (IEEE) of `bytes` — the chunk-footer checksum.
pub use nazar_log::crc::crc32;
use nazar_log::varint::{get_varint, put_varint, VarintError};

/// Codec id: raw little-endian `u32`s, 4 bytes per value.
pub const CODEC_RAW: u8 = 0;
/// Codec id: fixed-width bitpacking, LSB-first within each byte.
pub const CODEC_BITPACK: u8 = 1;
/// Codec id: run-length encoding as `(varint value, varint run)` pairs.
pub const CODEC_RLE: u8 = 2;
/// Codec id: zigzag-delta varints (timestamp columns).
pub const CODEC_TS_DELTA: u8 = 3;
/// Codec id: LSB-first bool bitmap (drift-flag sections).
pub const CODEC_BITMAP: u8 = 4;

/// A section failed to decode. Carried up into
/// [`StoreError::Corrupt`](crate::StoreError::Corrupt) with the chunk key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended before the declared row count was produced.
    Truncated,
    /// The codec id byte names no known codec (or one invalid here).
    UnknownCodec(u8),
    /// A declared width/run/length is impossible (e.g. bit width > 32).
    InvalidEncoding(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "section ends before declared row count"),
            CodecError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            CodecError::InvalidEncoding(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Varints (`nazar_log::varint`, the workspace's one LEB128) and zigzag
// ---------------------------------------------------------------------------

impl From<VarintError> for CodecError {
    fn from(err: VarintError) -> Self {
        match err {
            VarintError::Truncated => CodecError::Truncated,
            VarintError::Overflow => CodecError::InvalidEncoding("varint overflows u64"),
        }
    }
}

/// Zigzag-maps a signed delta to an unsigned varint-friendly value.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// u32 column codecs (dict codes)
// ---------------------------------------------------------------------------

/// Test-only: the writer no longer emits raw columns, but their decoder
/// stays for stores written by builds that did.
#[cfg(test)]
fn encode_raw(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_raw(bytes: &[u8], rows: usize) -> Result<Vec<u32>, CodecError> {
    if bytes.len() != rows * 4 {
        return Err(CodecError::Truncated);
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn encode_bitpack(values: &[u32]) -> Vec<u8> {
    let max = values.iter().copied().max().unwrap_or(0);
    let width = (32 - max.leading_zeros()) as u8; // 0..=32
    let mut out = Vec::with_capacity(1 + (values.len() * width as usize).div_ceil(8));
    out.push(width);
    if width == 0 {
        return out; // all zeros, no payload
    }
    let mut acc = 0u64;
    let mut bits = 0u32;
    for &v in values {
        acc |= u64::from(v) << bits;
        bits += u32::from(width);
        while bits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        out.push((acc & 0xFF) as u8);
    }
    out
}

/// Decodes a bitpacked column: eight `width`-bit codes fill exactly
/// `width` bytes, so every whole group of eight unpacks from word reads
/// at constant offsets, in a kernel specialised for its width
/// ([`unpack_groups`]); only the last `rows % 8` codes take the byte loop.
fn decode_bitpack(bytes: &[u8], rows: usize) -> Result<Vec<u32>, CodecError> {
    let (&width, payload) = bytes.split_first().ok_or(CodecError::Truncated)?;
    if width > 32 {
        return Err(CodecError::InvalidEncoding("bitpack width > 32"));
    }
    if width == 0 {
        return Ok(vec![0; rows]);
    }
    let width = usize::from(width);
    if payload.len() != (rows * width).div_ceil(8) {
        return Err(CodecError::Truncated);
    }
    let mut out = vec![0u32; rows];
    let (groups, tail) = out.as_chunks_mut::<8>();
    let (group_bytes, tail_bytes) = payload.split_at(groups.len() * width);
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_groups::<$w>(group_bytes, groups),)*
                _ => {}
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
              17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32);
    // The last `rows % 8` codes: LSB-first, a byte at a time.
    let mut next = tail_bytes.iter();
    let mut acc = 0u64;
    let mut bits = 0usize;
    for slot in tail {
        while bits < width {
            acc |= u64::from(next.next().copied().unwrap_or(0)) << bits;
            bits += 8;
        }
        *slot = (acc & low_bits(width)) as u32;
        acc >>= width;
        bits -= width;
    }
    Ok(out)
}

/// A `u64` with its low `width` (≤ 32) bits set.
#[inline(always)]
fn low_bits(width: usize) -> u64 {
    (1u64 << width) - 1
}

/// Unpacks whole groups of eight `W`-bit codes, one group per `W` bytes of
/// `payload`, into `out`. `W` is a constant, so every shift and mask of
/// [`unpack_group`] is too.
#[inline(always)]
fn unpack_groups<const W: usize>(payload: &[u8], out: &mut [[u32; 8]]) {
    for (group, dst) in payload.as_chunks::<W>().0.iter().zip(out) {
        *dst = unpack_group::<W>(group);
    }
}

/// One group of eight `W`-bit codes. Below width 8 the group is one
/// little-endian `u64`; from width 8 each code is read from the `u64`
/// window at byte `min(j·W / 8, W − 8)`, which holds all of its bits.
#[inline(always)]
fn unpack_group<const W: usize>(group: &[u8; W]) -> [u32; 8] {
    let mask = low_bits(W);
    if W < 8 {
        let mut word = [0u8; 8];
        word[..W].copy_from_slice(group);
        let word = u64::from_le_bytes(word);
        std::array::from_fn(|j| ((word >> (j * W)) & mask) as u32)
    } else {
        std::array::from_fn(|j| {
            let at = (j * W / 8).min(W - 8);
            let mut window = [0u8; 8];
            window.copy_from_slice(&group[at..at + 8]);
            ((u64::from_le_bytes(window) >> (j * W - 8 * at)) & mask) as u32
        })
    }
}

fn encode_rle(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut runs: Vec<(u32, u64)> = Vec::new();
    for &v in values {
        match runs.last_mut() {
            Some((run_v, n)) if *run_v == v => *n += 1,
            _ => runs.push((v, 1)),
        }
    }
    put_varint(&mut out, runs.len() as u64);
    for (v, n) in runs {
        put_varint(&mut out, u64::from(v));
        put_varint(&mut out, n);
    }
    out
}

fn decode_rle(bytes: &[u8], rows: usize) -> Result<Vec<u32>, CodecError> {
    let mut pos = 0usize;
    let n_runs = get_varint(bytes, &mut pos)?;
    let mut out = Vec::with_capacity(rows);
    for _ in 0..n_runs {
        let v = get_varint(bytes, &mut pos)?;
        let n = get_varint(bytes, &mut pos)?;
        let v = u32::try_from(v).map_err(|_| CodecError::InvalidEncoding("rle value > u32"))?;
        if n as usize > rows - out.len() {
            return Err(CodecError::InvalidEncoding("rle runs exceed row count"));
        }
        out.resize(out.len() + n as usize, v);
    }
    if out.len() != rows || pos != bytes.len() {
        return Err(CodecError::Truncated);
    }
    Ok(out)
}

/// Encodes a `u32` column, returning `(codec id, bytes)`: both bitpack
/// and RLE, keeping the smaller (ties to bitpack) — a deterministic,
/// data-only decision, so the same rows always produce the same chunk
/// bytes at any thread count.
pub fn encode_u32s(values: &[u32]) -> (u8, Vec<u8>) {
    let bp = encode_bitpack(values);
    let rle = encode_rle(values);
    if rle.len() < bp.len() {
        (CODEC_RLE, rle)
    } else {
        (CODEC_BITPACK, bp)
    }
}

/// Decodes a `u32` column section of exactly `rows` values.
///
/// # Errors
///
/// Any malformed input returns a [`CodecError`]; this function never
/// panics, whatever the bytes.
pub fn decode_u32s(codec: u8, bytes: &[u8], rows: usize) -> Result<Vec<u32>, CodecError> {
    match codec {
        CODEC_RAW => decode_raw(bytes, rows),
        CODEC_BITPACK => decode_bitpack(bytes, rows),
        CODEC_RLE => decode_rle(bytes, rows),
        other => Err(CodecError::UnknownCodec(other)),
    }
}

// ---------------------------------------------------------------------------
// Drift-flag bitmap (LSB-first)
// ---------------------------------------------------------------------------

/// Encodes bools as an LSB-first bitmap (bit `i % 8` of byte `i / 8`).
pub fn encode_bools(flags: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; flags.len().div_ceil(8)];
    for (i, &f) in flags.iter().enumerate() {
        if f {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

/// Decodes an LSB-first bitmap of exactly `rows` bools, a byte (eight
/// flags) at a time.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] when the byte length does not match
/// `rows`, or [`CodecError::InvalidEncoding`] when padding bits are set.
pub fn decode_bools(codec: u8, bytes: &[u8], rows: usize) -> Result<Vec<bool>, CodecError> {
    if codec != CODEC_BITMAP {
        return Err(CodecError::UnknownCodec(codec));
    }
    if bytes.len() != rows.div_ceil(8) {
        return Err(CodecError::Truncated);
    }
    if !rows.is_multiple_of(8) {
        if let Some(&last) = bytes.last() {
            if last >> (rows % 8) != 0 {
                return Err(CodecError::InvalidEncoding("bitmap padding bits set"));
            }
        }
    }
    let mut out = vec![false; rows];
    let (groups, tail) = out.as_chunks_mut::<8>();
    for (dst, &byte) in groups.iter_mut().zip(bytes) {
        *dst = std::array::from_fn(|j| byte >> j & 1 != 0);
    }
    if let Some(&last) = bytes.get(groups.len()) {
        for (j, slot) in tail.iter_mut().enumerate() {
            *slot = last >> j & 1 != 0;
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Timestamps: zigzag-delta varints
// ---------------------------------------------------------------------------

/// Encodes timestamps as a varint first value plus zigzag-varint deltas.
/// Wrapping arithmetic makes the round trip exact for every `u64`.
pub fn encode_timestamps(ts: &[u64]) -> (u8, Vec<u8>) {
    let mut out = Vec::with_capacity(ts.len() * 2);
    if let Some(&first) = ts.first() {
        put_varint(&mut out, first);
        let mut prev = first;
        for &t in &ts[1..] {
            put_varint(&mut out, zigzag(t.wrapping_sub(prev) as i64));
            prev = t;
        }
    }
    (CODEC_TS_DELTA, out)
}

/// Decodes a timestamp section of exactly `rows` values into a pre-sized
/// buffer. Where none of the next eight bytes has its continuation bit
/// set, all eight deltas come from one word read; every other varint goes
/// through [`get_varint`].
///
/// # Errors
///
/// Any malformed input returns a [`CodecError`]; never panics.
pub fn decode_timestamps(codec: u8, bytes: &[u8], rows: usize) -> Result<Vec<u64>, CodecError> {
    if codec != CODEC_TS_DELTA {
        return Err(CodecError::UnknownCodec(codec));
    }
    let mut pos = 0usize;
    let mut out = vec![0u64; rows];
    if let Some((first, rest)) = out.split_first_mut() {
        *first = get_varint(bytes, &mut pos)?;
        let mut prev = *first;
        let (groups, tail) = rest.as_chunks_mut::<8>();
        for group in groups {
            let word = bytes.get(pos..).and_then(<[u8]>::first_chunk::<8>);
            match word.map(|&word| u64::from_le_bytes(word)) {
                Some(word) if word & 0x8080_8080_8080_8080 == 0 => {
                    // Eight one-byte varints: unzigzag every byte at once,
                    // leaving each delta as an `i8` in its own byte.
                    let halves = (word >> 1) & 0x3F3F_3F3F_3F3F_3F3F;
                    let signs = (word & 0x0101_0101_0101_0101) * 0xFF;
                    let deltas = (halves ^ signs).to_le_bytes();
                    for (slot, delta) in group.iter_mut().zip(deltas) {
                        prev = prev.wrapping_add(delta as i8 as u64);
                        *slot = prev;
                    }
                    pos += 8;
                }
                _ => {
                    for slot in group {
                        prev = prev.wrapping_add(unzigzag(get_varint(bytes, &mut pos)?) as u64);
                        *slot = prev;
                    }
                }
            }
        }
        for slot in tail {
            prev = prev.wrapping_add(unzigzag(get_varint(bytes, &mut pos)?) as u64);
            *slot = prev;
        }
    }
    if pos != bytes.len() {
        return Err(CodecError::Truncated);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn varint_round_trip_boundaries() {
        // Timestamps whose first value and zigzag deltas sit on every varint
        // length boundary round-trip exactly.
        let ts = [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
            0,
        ];
        for start in 0..ts.len() {
            let (codec, bytes) = encode_timestamps(&ts[start..]);
            assert_eq!(
                decode_timestamps(codec, &bytes, ts.len() - start).unwrap(),
                &ts[start..]
            );
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 continuation bytes encode more than 64 bits: the shared
        // varint's typed errors map onto this crate's.
        assert_eq!(
            decode_timestamps(CODEC_TS_DELTA, &[0xFFu8; 10], 1),
            Err(CodecError::InvalidEncoding("varint overflows u64"))
        );
        assert_eq!(
            decode_timestamps(CODEC_TS_DELTA, &[0x80], 1),
            Err(CodecError::Truncated)
        );
    }

    fn column_cases() -> Vec<Vec<u32>> {
        vec![
            vec![],
            vec![0],
            vec![0; 100],
            vec![u32::MAX; 3],
            (0..1000).map(|i| i % 7).collect(),
            vec![5, 5, 5, 9, 9, 0, 0, 0, 0, 1],
            (0..257).collect(),
        ]
    }

    /// `values` under every `u32` column codec as `(codec id, bytes)`:
    /// the writer's pick, then each codec a chunk section can carry.
    fn encoded_every_way(values: &[u32]) -> [(u8, Vec<u8>); 4] {
        [
            encode_u32s(values),
            (CODEC_RAW, encode_raw(values)),
            (CODEC_BITPACK, encode_bitpack(values)),
            (CODEC_RLE, encode_rle(values)),
        ]
    }

    #[test]
    fn u32_codecs_round_trip() {
        for values in column_cases() {
            for (codec, bytes) in encoded_every_way(&values) {
                assert_eq!(
                    decode_u32s(codec, &bytes, values.len()).as_deref(),
                    Ok(&values[..]),
                    "codec {codec} failed on {values:?}"
                );
            }
        }
    }

    #[test]
    fn auto_never_larger_than_bitpack() {
        for values in column_cases() {
            let (_, auto) = encode_u32s(&values);
            let (rle, bp) = (encode_rle(&values), encode_bitpack(&values));
            assert_eq!(auto.len(), rle.len().min(bp.len()));
        }
    }

    #[test]
    fn u32_decode_rejects_malformed() {
        // Wrong length for raw.
        assert!(decode_u32s(CODEC_RAW, &[1, 2, 3], 1).is_err());
        // Bitpack width over 32.
        assert!(decode_u32s(CODEC_BITPACK, &[33, 0, 0], 2).is_err());
        // RLE runs longer than the row count.
        let mut rle = Vec::new();
        put_varint(&mut rle, 1);
        put_varint(&mut rle, 7);
        put_varint(&mut rle, 100);
        assert!(decode_u32s(CODEC_RLE, &rle, 3).is_err());
        // Unknown codec id.
        assert_eq!(decode_u32s(200, &[], 0), Err(CodecError::UnknownCodec(200)));
    }

    #[test]
    fn bitmap_round_trip_and_padding_check() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let flags: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let bytes = encode_bools(&flags);
            assert_eq!(decode_bools(CODEC_BITMAP, &bytes, n), Ok(flags));
        }
        // A set padding bit must be rejected (torn-write detection aid).
        assert!(decode_bools(CODEC_BITMAP, &[0b1000_0000], 3).is_err());
    }

    #[test]
    fn timestamps_round_trip_including_decreasing() {
        for ts in [
            vec![],
            vec![42],
            vec![5, 5, 5],
            vec![100, 50, 200, 0, u64::MAX],
            (0..500u64).map(|i| i * 3600).collect(),
        ] {
            let (codec, bytes) = encode_timestamps(&ts);
            assert_eq!(decode_timestamps(codec, &bytes, ts.len()), Ok(ts));
        }
    }

    #[test]
    fn timestamp_decode_rejects_trailing_bytes() {
        let (codec, mut bytes) = encode_timestamps(&[1, 2, 3]);
        bytes.push(0);
        assert!(decode_timestamps(codec, &bytes, 3).is_err());
    }

    // -- Oracles: the byte-at-a-time decoders the group and word kernels
    // replaced, kept to check that the kernels decode the same values and
    // fail with the same errors.

    fn oracle_bitpack(bytes: &[u8], rows: usize) -> Result<Vec<u32>, CodecError> {
        let &width = bytes.first().ok_or(CodecError::Truncated)?;
        if width > 32 {
            return Err(CodecError::InvalidEncoding("bitpack width > 32"));
        }
        if width == 0 {
            return Ok(vec![0; rows]);
        }
        let payload = &bytes[1..];
        if payload.len() != (rows * width as usize).div_ceil(8) {
            return Err(CodecError::Truncated);
        }
        let mask = if width == 32 {
            u64::from(u32::MAX)
        } else {
            (1u64 << width) - 1
        };
        let mut out = Vec::with_capacity(rows);
        let mut acc = 0u64;
        let mut bits = 0u32;
        let mut next = 0usize;
        for _ in 0..rows {
            while bits < u32::from(width) {
                acc |= u64::from(payload[next]) << bits;
                next += 1;
                bits += 8;
            }
            out.push((acc & mask) as u32);
            acc >>= width;
            bits -= u32::from(width);
        }
        Ok(out)
    }

    fn oracle_bools(codec: u8, bytes: &[u8], rows: usize) -> Result<Vec<bool>, CodecError> {
        if codec != CODEC_BITMAP {
            return Err(CodecError::UnknownCodec(codec));
        }
        if bytes.len() != rows.div_ceil(8) {
            return Err(CodecError::Truncated);
        }
        if !rows.is_multiple_of(8) {
            if let Some(&last) = bytes.last() {
                if last >> (rows % 8) != 0 {
                    return Err(CodecError::InvalidEncoding("bitmap padding bits set"));
                }
            }
        }
        Ok((0..rows)
            .map(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
            .collect())
    }

    fn oracle_timestamps(codec: u8, bytes: &[u8], rows: usize) -> Result<Vec<u64>, CodecError> {
        if codec != CODEC_TS_DELTA {
            return Err(CodecError::UnknownCodec(codec));
        }
        let mut pos = 0usize;
        let mut out = Vec::with_capacity(rows);
        if rows > 0 {
            let first = get_varint(bytes, &mut pos)?;
            out.push(first);
            let mut prev = first;
            for _ in 1..rows {
                let delta = unzigzag(get_varint(bytes, &mut pos)?);
                prev = prev.wrapping_add(delta as u64);
                out.push(prev);
            }
        }
        if pos != bytes.len() {
            return Err(CodecError::Truncated);
        }
        Ok(out)
    }

    /// A xorshift stream: reproducible random bytes without an RNG crate.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// `section` and its damaged variants: every truncation, one extra
    /// trailing byte, and the last byte's top bit set (a padding bit
    /// wherever the last byte is padded).
    fn damaged(section: &[u8]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = (0..section.len()).map(|n| section[..n].to_vec()).collect();
        out.push([section, &[0x5A]].concat());
        if let Some((&last, head)) = section.split_last() {
            out.push([head, &[last | 0x80]].concat());
        }
        out.push(section.to_vec());
        out
    }

    /// A bitpack section of width `width` over `rows` random codes, its
    /// payload bytes (padding bits included) drawn at random.
    fn random_bitpack(width: u8, rows: usize, next: &mut impl FnMut() -> u64) -> Vec<u8> {
        let len = (rows * usize::from(width)).div_ceil(8);
        let mut section = vec![width];
        section.extend((0..len).map(|_| next() as u8));
        section
    }

    #[test]
    fn bitpack_kernels_equal_the_oracle_at_every_width() {
        let mut next = xorshift(0x5EED);
        let lengths = (0..=70).chain([8_192]);
        for width in 0..=32u8 {
            for rows in lengths.clone() {
                let section = random_bitpack(width, rows, &mut next);
                let decoded = decode_bitpack(&section, rows);
                assert_eq!(
                    decoded,
                    oracle_bitpack(&section, rows),
                    "width {width}, {rows} rows"
                );
                assert_eq!(decoded.map(|v| v.len()), Ok(rows));
                // An encoded column round-trips through both.
                let max = if width == 0 {
                    0
                } else {
                    u32::MAX >> (32 - width)
                };
                let values: Vec<u32> = (0..rows).map(|_| next() as u32 & max).collect();
                let encoded = encode_bitpack(&values);
                if values.iter().any(|&v| v > max >> 1) {
                    assert_eq!(encoded[0], width);
                }
                assert_eq!(decode_bitpack(&encoded, rows).as_deref(), Ok(&values[..]));
            }
        }
    }

    /// Zigzag deltas whose varints are `1 + i % 10` bytes long, signs
    /// alternating, so the sequence decreases, grows and wraps.
    fn timestamps_with_delta_lengths(
        start: u64,
        rows: usize,
        next: &mut impl FnMut() -> u64,
    ) -> Vec<u64> {
        let mut ts = Vec::with_capacity(rows);
        let mut t = start;
        for i in 0..rows {
            ts.push(t);
            let bytes = 1 + (next() % 10) as u32;
            let bits = (7 * bytes).min(64);
            let low = if bytes == 1 {
                0
            } else {
                1u64 << (7 * (bytes - 1))
            };
            let span = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let z = (low | next()) & span;
            let z = if i % 3 == 0 { z & 0x7F } else { z };
            t = t.wrapping_add(unzigzag(z) as u64);
        }
        ts
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn decoders_equal_their_oracles_on_random_sections(
            seed in 0u64..u64::MAX,
            rows in 0usize..80,
            width in 0u8..=34,
        ) {
            let mut next = xorshift(seed);
            // Bitpack, widths past 32 included.
            for section in damaged(&random_bitpack(width, rows, &mut next)) {
                proptest::prop_assert_eq!(
                    decode_bitpack(&section, rows),
                    oracle_bitpack(&section, rows)
                );
            }
            // Random `u32` columns, in runs of a random length so RLE is
            // kept now and then, through every column codec.
            let max = u32::MAX.checked_shr(32 - u32::from(width.min(32))).unwrap_or(0);
            let run = 1 + (next() % 8) as usize;
            let mut values = Vec::with_capacity(rows);
            while values.len() < rows {
                values.resize((values.len() + run).min(rows), next() as u32 & max);
            }
            for (codec, section) in encoded_every_way(&values) {
                proptest::prop_assert_eq!(
                    (codec, decode_u32s(codec, &section, rows)),
                    (codec, Ok(values.clone()))
                );
            }
            // Bitmaps.
            let flags: Vec<bool> = (0..rows).map(|_| next().is_multiple_of(3)).collect();
            for section in damaged(&encode_bools(&flags)) {
                for codec in [CODEC_BITMAP, CODEC_RAW] {
                    proptest::prop_assert_eq!(
                        decode_bools(codec, &section, rows),
                        oracle_bools(codec, &section, rows)
                    );
                }
            }
            // Timestamps: deltas of one to ten bytes, and raw noise.
            let ts = timestamps_with_delta_lengths(next(), rows, &mut next);
            let (codec, section) = encode_timestamps(&ts);
            proptest::prop_assert_eq!(decode_timestamps(codec, &section, rows), Ok(ts));
            let noise: Vec<u8> = (0..rows + 3).map(|_| next() as u8).collect();
            for section in damaged(&section).into_iter().chain(damaged(&noise)) {
                for codec in [CODEC_TS_DELTA, CODEC_BITMAP] {
                    proptest::prop_assert_eq!(
                        decode_timestamps(codec, &section, rows),
                        oracle_timestamps(codec, &section, rows)
                    );
                }
            }
        }
    }

    #[test]
    fn timestamp_kernel_takes_single_byte_runs_and_long_deltas_alike() {
        let mut next = xorshift(7);
        for rows in [0, 1, 8, 9, 17, 64, 1000] {
            // Every delta a single byte: the word path end to end.
            let steady: Vec<u64> = (0..rows as u64)
                .map(|i| 1_000 + i * 60 - (i % 4) * 100)
                .collect();
            // Runs of single-byte deltas broken by long and wrapping ones.
            let mixed = timestamps_with_delta_lengths(u64::MAX - 5, rows, &mut next);
            let decreasing: Vec<u64> = (0..rows as u64).rev().collect();
            for ts in [steady, mixed, decreasing] {
                let (codec, bytes) = encode_timestamps(&ts);
                assert_eq!(decode_timestamps(codec, &bytes, rows), Ok(ts.clone()));
                assert_eq!(oracle_timestamps(codec, &bytes, rows), Ok(ts));
            }
        }
    }
}
