//! The one byte framing of the service's durable files. Each file starts
//! with an 8-byte magic naming its kind (`ICNJRNL1` for the
//! [`crate::journal`], `ICNSPILL` for a [`crate::spill`] entry), then
//! holds frames of `[u32 payload length][u32 CRC-32][payload]`,
//! little-endian: many in a journal, exactly one in a spill entry.
//!
//! One length bound holds on both sides: [`encode`] refuses what
//! [`decode`] would, so nothing is written that a restart would throw
//! away. Empty payloads are refused too: the CRC of no bytes is 0, so a
//! zeroed region would otherwise decode as endless empty frames.

/// Largest payload a frame may carry. Journal records and result bodies
/// are far below it; a frame claiming more is corruption.
pub const MAX_PAYLOAD_BYTES: usize = 16 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — first-party, table-driven.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        let idx = (crc ^ u32::from(b)) & 0xFF;
        crc = (crc >> 8) ^ TABLE[idx as usize];
    }
    !crc
}

/// The standard CRC-32 lookup table, built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Append one frame carrying `payload` to `out`.
///
/// # Errors
/// `InvalidInput` when the payload is empty or longer than
/// [`MAX_PAYLOAD_BYTES`]; `out` is then left unchanged.
pub fn encode(payload: &[u8], out: &mut Vec<u8>) -> std::io::Result<()> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if len > 0 && payload.len() <= MAX_PAYLOAD_BYTES => len,
        _ => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes is outside 1..={MAX_PAYLOAD_BYTES}",
                    payload.len()
                ),
            ))
        }
    };
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Decode the frame at the front of `raw`, returning its payload and the
/// bytes after it. `None` when the frame is truncated, fails its
/// checksum, or claims a length [`encode`] would refuse.
#[must_use]
pub fn decode(raw: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32::from_le_bytes(raw.get(..4)?.try_into().ok()?) as usize;
    let want_crc = u32::from_le_bytes(raw.get(4..8)?.try_into().ok()?);
    if len == 0 || len > MAX_PAYLOAD_BYTES {
        return None;
    }
    let payload = raw.get(8..8 + len)?;
    if crc32(payload) != want_crc {
        return None;
    }
    Some((payload, raw.get(8 + len..)?))
}
