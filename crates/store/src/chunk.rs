//! The versioned on-disk chunk format.
//!
//! A chunk is one sealed block of rows, column-by-column:
//!
//! ```text
//! magic    "NZSC"                          4 bytes
//! version  u16 LE (currently 1)            2
//! columns  u16 LE                          2
//! rows     u32 LE                          4
//! drifted  u32 LE                          4
//! ts_min   u64 LE                          8
//! ts_max   u64 LE                          8
//! sections (columns + 2 of them, in order:
//!           each dict-code column, drift bitmap, timestamps)
//!   codec  u8
//!   len    u32 LE
//!   bytes  len bytes
//! crc32    u32 LE over everything above    4
//! ```
//!
//! Every field is length-prefixed and the whole chunk is covered by the
//! CRC-32 footer, so torn writes and bit flips surface as typed
//! [`StoreError`]s, never panics, and new codecs can
//! ship under new ids without a version bump.

use crate::codec::{
    crc32, decode_bools, decode_timestamps, decode_u32s, encode_bools, encode_timestamps,
    encode_u32s, CODEC_BITMAP,
};
use crate::{Result, StoreError};

/// Chunk magic bytes.
pub const CHUNK_MAGIC: [u8; 4] = *b"NZSC";
/// Current chunk format version.
pub const CHUNK_VERSION: u16 = 1;

/// Decoded chunk payload: the columnar rows of one sealed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkData {
    /// Per-column *global* dict codes (codes index the manifest's
    /// dictionaries, so chunks never need local code remapping).
    pub columns: Vec<Vec<u32>>,
    /// Per-row drift flags.
    pub drift: Vec<bool>,
    /// Per-row timestamps.
    pub timestamps: Vec<u64>,
}

impl ChunkData {
    /// Rows in the chunk.
    pub fn rows(&self) -> usize {
        self.timestamps.len()
    }

    /// Drift-flagged rows in the chunk.
    pub fn drifted(&self) -> usize {
        self.drift.iter().filter(|&&d| d).count()
    }

    /// Min/max timestamp (`(0, 0)` for an empty chunk).
    pub fn ts_range(&self) -> (u64, u64) {
        if self.timestamps.is_empty() {
            return (0, 0);
        }
        // One branch-free pass, which vectorises where `Iterator::min`
        // and `max` do not.
        self.timestamps
            .iter()
            .fold((u64::MAX, u64::MIN), |(min, max), &t| {
                (min.min(t), max.max(t))
            })
    }
}

/// Raw vs encoded byte sizes, per column family — the compression
/// accounting `store_scale` reports and the obs byte counters track.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// Raw bytes of dict-code columns (4 per value).
    pub dict_raw: u64,
    /// Encoded bytes of dict-code columns.
    pub dict_encoded: u64,
    /// Raw bytes of drift flags (1 per row).
    pub flag_raw: u64,
    /// Encoded bytes of drift flags.
    pub flag_encoded: u64,
    /// Raw bytes of timestamps (8 per row).
    pub ts_raw: u64,
    /// Encoded bytes of timestamps.
    pub ts_encoded: u64,
}

impl EncodeStats {
    /// Raw bytes across all families.
    pub fn raw_total(&self) -> u64 {
        self.dict_raw + self.flag_raw + self.ts_raw
    }

    /// Encoded bytes across all families.
    pub fn encoded_total(&self) -> u64 {
        self.dict_encoded + self.flag_encoded + self.ts_encoded
    }

    /// Accumulates another chunk's stats.
    pub fn add(&mut self, other: &EncodeStats) {
        self.dict_raw += other.dict_raw;
        self.dict_encoded += other.dict_encoded;
        self.flag_raw += other.flag_raw;
        self.flag_encoded += other.flag_encoded;
        self.ts_raw += other.ts_raw;
        self.ts_encoded += other.ts_encoded;
    }
}

fn put_section(out: &mut Vec<u8>, codec: u8, bytes: &[u8]) {
    out.push(codec);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encodes `data` into chunk bytes, each dict-code column in the smaller
/// of bitpack and RLE ([`encode_u32s`]).
///
/// Deterministic: the same rows always produce the same bytes, at any
/// thread count — chunk bytes participate in golden traces.
pub fn encode_chunk(data: &ChunkData) -> (Vec<u8>, EncodeStats) {
    let rows = data.rows();
    let (ts_min, ts_max) = data.ts_range();
    let mut out = Vec::with_capacity(32 + rows * (data.columns.len() + 2));
    out.extend_from_slice(&CHUNK_MAGIC);
    out.extend_from_slice(&CHUNK_VERSION.to_le_bytes());
    out.extend_from_slice(&(data.columns.len() as u16).to_le_bytes());
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(data.drifted() as u32).to_le_bytes());
    out.extend_from_slice(&ts_min.to_le_bytes());
    out.extend_from_slice(&ts_max.to_le_bytes());

    let mut stats = EncodeStats::default();
    for column in &data.columns {
        let (codec, bytes) = encode_u32s(column);
        stats.dict_raw += column.len() as u64 * 4;
        stats.dict_encoded += bytes.len() as u64;
        put_section(&mut out, codec, &bytes);
    }
    let flags = encode_bools(&data.drift);
    stats.flag_raw += data.drift.len() as u64;
    stats.flag_encoded += flags.len() as u64;
    put_section(&mut out, CODEC_BITMAP, &flags);
    let (ts_codec, ts_bytes) = encode_timestamps(&data.timestamps);
    stats.ts_raw += data.timestamps.len() as u64 * 8;
    stats.ts_encoded += ts_bytes.len() as u64;
    put_section(&mut out, ts_codec, &ts_bytes);

    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    (out, stats)
}

/// The fixed-size header fields of a chunk, available without decoding
/// the column sections (recovery verifies these against the manifest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Format version.
    pub version: u16,
    /// Column-section count (schema width).
    pub columns: usize,
    /// Row count.
    pub rows: usize,
    /// Drift-flagged row count.
    pub drifted: usize,
    /// Minimum timestamp (0 when empty).
    pub ts_min: u64,
    /// Maximum timestamp (0 when empty).
    pub ts_max: u64,
    /// The CRC-32 footer, checked against the bytes above it.
    pub crc32: u32,
}

const HEADER_LEN: usize = 4 + 2 + 2 + 4 + 4 + 8 + 8;

fn corrupt(key: &str, reason: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        key: key.to_string(),
        reason: reason.into(),
    }
}

/// Checks magic, version and the CRC-32 footer, returning the header.
/// This is the cheap integrity gate recovery runs over every chunk the
/// manifest lists; `key` only labels errors.
pub fn verify_chunk(key: &str, bytes: &[u8]) -> Result<ChunkHeader> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(corrupt(key, "shorter than header + footer"));
    }
    if bytes[..4] != CHUNK_MAGIC {
        return Err(corrupt(key, "bad magic"));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CHUNK_VERSION {
        return Err(StoreError::UnsupportedVersion {
            key: key.to_string(),
            version,
        });
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes([
        bytes[bytes.len() - 4],
        bytes[bytes.len() - 3],
        bytes[bytes.len() - 2],
        bytes[bytes.len() - 1],
    ]);
    let actual = crc32(body);
    if stored != actual {
        return Err(StoreError::ChecksumMismatch {
            key: key.to_string(),
            expected: stored,
            actual,
        });
    }
    Ok(ChunkHeader {
        version,
        columns: u16::from_le_bytes([bytes[6], bytes[7]]) as usize,
        rows: u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize,
        drifted: u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize,
        ts_min: u64::from_le_bytes([
            bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
        ]),
        ts_max: u64::from_le_bytes([
            bytes[24], bytes[25], bytes[26], bytes[27], bytes[28], bytes[29], bytes[30], bytes[31],
        ]),
        crc32: stored,
    })
}

fn get_section<'b>(key: &str, bytes: &'b [u8], pos: &mut usize) -> Result<(u8, &'b [u8])> {
    let end = bytes.len();
    if *pos + 5 > end {
        return Err(corrupt(key, "section header past end of chunk"));
    }
    let codec = bytes[*pos];
    let len = u32::from_le_bytes([
        bytes[*pos + 1],
        bytes[*pos + 2],
        bytes[*pos + 3],
        bytes[*pos + 4],
    ]) as usize;
    *pos += 5;
    if *pos + len > end {
        return Err(corrupt(key, "section body past end of chunk"));
    }
    let body = &bytes[*pos..*pos + len];
    *pos += len;
    Ok((codec, body))
}

/// Fully decodes chunk `bytes` (verifying the checksum first).
///
/// # Errors
///
/// Every malformed input — wrong magic, bad checksum, truncated or
/// overlong sections, invalid codec payloads — returns a typed
/// [`StoreError`]; this function never panics.
pub fn decode_chunk(key: &str, bytes: &[u8]) -> Result<ChunkData> {
    let header = verify_chunk(key, bytes)?;
    let body_end = bytes.len() - 4;
    let mut pos = HEADER_LEN;
    let mut columns = Vec::with_capacity(header.columns);
    for ci in 0..header.columns {
        let (codec, section) = get_section(key, bytes, &mut pos)?;
        let column = decode_u32s(codec, section, header.rows)
            .map_err(|e| corrupt(key, format!("column {ci}: {e}")))?;
        columns.push(column);
    }
    let (codec, section) = get_section(key, bytes, &mut pos)?;
    let drift = decode_bools(codec, section, header.rows)
        .map_err(|e| corrupt(key, format!("drift: {e}")))?;
    // `decode_bools` has checked the padding bits zero, so the section's
    // set bits are exactly the drifted rows.
    let drifted: usize = section.iter().map(|byte| byte.count_ones() as usize).sum();
    let (codec, section) = get_section(key, bytes, &mut pos)?;
    let timestamps = decode_timestamps(codec, section, header.rows)
        .map_err(|e| corrupt(key, format!("timestamps: {e}")))?;
    if pos != body_end {
        return Err(corrupt(key, "trailing bytes after last section"));
    }
    let data = ChunkData {
        columns,
        drift,
        timestamps,
    };
    if drifted != header.drifted {
        return Err(corrupt(key, "drifted count disagrees with header"));
    }
    if header.rows > 0 && data.ts_range() != (header.ts_min, header.ts_max) {
        return Err(corrupt(key, "timestamp range disagrees with header"));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{CODEC_BITPACK, CODEC_RLE, CODEC_TS_DELTA};

    fn sample() -> ChunkData {
        ChunkData {
            columns: vec![
                (0..64).map(|i| i % 5).collect(),
                (0..64).map(|i| i / 9).collect(),
            ],
            drift: (0..64).map(|i| i % 3 == 0).collect(),
            timestamps: (0..64u64).map(|i| 1000 + i * 60).collect(),
        }
    }

    /// The sample's first column bitpacks smaller, its second (runs of
    /// nine) run-length encodes smaller: one chunk carries both codecs.
    #[test]
    fn chunk_round_trip_all_codecs() {
        let data = sample();
        let (bytes, stats) = encode_chunk(&data);
        assert_eq!(stats.raw_total(), 64 * (2 * 4 + 1 + 8));
        assert_eq!(decode_chunk("k", &bytes).as_ref(), Ok(&data));
        let header = verify_chunk("k", &bytes).expect("verify");
        assert_eq!(header.rows, 64);
        assert_eq!(header.drifted, data.drifted());
        assert_eq!((header.ts_min, header.ts_max), data.ts_range());
        let mut pos = HEADER_LEN;
        let codecs: Vec<u8> = (0..4)
            .map(|_| get_section("k", &bytes, &mut pos).expect("section").0)
            .collect();
        assert_eq!(
            codecs,
            [CODEC_BITPACK, CODEC_RLE, CODEC_BITMAP, CODEC_TS_DELTA]
        );
    }

    #[test]
    fn empty_chunk_round_trips() {
        let data = ChunkData {
            columns: vec![vec![], vec![], vec![]],
            drift: vec![],
            timestamps: vec![],
        };
        let (bytes, _) = encode_chunk(&data);
        assert_eq!(decode_chunk("k", &bytes), Ok(data));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (bytes, _) = encode_chunk(&sample());
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x40;
            assert!(
                decode_chunk("k", &mutated).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let (bytes, _) = encode_chunk(&sample());
        for len in 0..bytes.len() {
            assert!(
                decode_chunk("k", &bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn future_version_gets_typed_error() {
        let (mut bytes, _) = encode_chunk(&sample());
        bytes[4] = 99; // version low byte
                       // (checksum is now stale too, but version is checked first)
        assert!(matches!(
            decode_chunk("k", &bytes),
            Err(StoreError::UnsupportedVersion { version: 99, .. })
        ));
    }
}
