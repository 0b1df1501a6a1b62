//! Unsigned LEB128 varints — the workspace's one implementation, shared by
//! `nazar-store`'s chunk codecs and `nazar-net`'s wire format.

/// Why a varint failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The bytes ended inside the varint.
    Truncated,
    /// The varint runs past ten bytes or encodes more than 64 bits.
    Overflow,
}

/// Appends `v` as an unsigned LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint at `*pos`, advancing it.
///
/// # Errors
///
/// [`VarintError::Truncated`] if `bytes` ends first,
/// [`VarintError::Overflow`] if the value does not fit a `u64`.
#[inline]
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(VarintError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(VarintError::Overflow);
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 10 continuation bytes encode more than 64 bits.
        let buf = [0xFFu8; 10];
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Err(VarintError::Overflow));
        // As does an eleventh byte after ten that fit.
        let mut buf = vec![0x80u8; 10];
        buf.push(0x00);
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), Err(VarintError::Overflow));
        assert_eq!(get_varint(&[0x80], &mut 0), Err(VarintError::Truncated));
    }
}
