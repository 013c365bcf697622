//! Stream framing: length prefix, version, kind, checksum.
//!
//! Layout of one frame on the wire:
//!
//! ```text
//! [len: u32 LE] [version: u8] [kind: u8] [crc: u32 LE] [payload ...]
//!  └─ bytes after the length field: 6 + payload.len()
//!                                   └─ CRC-32 (IEEE) over version ‖ kind ‖ payload
//! ```
//!
//! Every field is checked on decode: a truncated buffer, an unknown
//! version, an unknown kind, an oversized length, or a checksum mismatch
//! each produce a [`CodecError`] — a single flipped bit anywhere in a frame
//! is always detected, which is what lets the transport treat stream
//! corruption as a *detectable* fault in the sense of the paper's
//! assumption 4.

use crate::wire::CodecError;

/// Current wire-format version.
pub(crate) const FRAME_VERSION: u8 = 1;

/// Upper bound on the post-length-field frame size; larger claims are
/// rejected before any allocation (they are corruption in this system,
/// whose messages are a few KiB).
pub(crate) const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Bytes between the length field and the payload.
pub(crate) const HEADER_LEN: usize = 6;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An application payload.
    Data,
    /// A liveness beacon; carries no payload.
    Heartbeat,
    /// Orderly close announcement; carries no payload.
    Bye,
    /// Orderly close of *one* link on a multiplexed session; the payload is
    /// the closing link's 9-byte demux tag. On a dedicated per-link socket
    /// this is equivalent to [`FrameKind::Bye`].
    LinkBye,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::Heartbeat => 1,
            FrameKind::Bye => 2,
            FrameKind::LinkBye => 3,
        }
    }

    fn from_byte(byte: u8) -> Result<Self, CodecError> {
        match byte {
            0 => Ok(FrameKind::Data),
            1 => Ok(FrameKind::Heartbeat),
            2 => Ok(FrameKind::Bye),
            3 => Ok(FrameKind::LinkBye),
            other => Err(CodecError::msg(format!("unknown frame kind {other:#04x}"))),
        }
    }
}

/// The IEEE 802.3 generator polynomial, bit-reflected.
const CRC_POLY: u32 = 0xEDB8_8320;

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[t][b] = crc of byte b followed by t zero bytes, so sixteen
    // lookups can consume sixteen input bytes per step (slicing-by-16).
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// `a·b mod P` in GF(2), both operands bit-reflected (bit 31 is `x^0`).
const fn mul_mod_p(mut a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    while a != 0 {
        if a & (1 << 31) != 0 {
            product ^= b;
        }
        a <<= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
    }
    product
}

/// `X2N[k] = x^(2^k) mod P`, the power table the lane merge is built from.
const fn x2n_table() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = x2n_table();

/// `x^(8·n) mod P`: multiplying a CRC register by it is what running `n`
/// zero bytes through the register does (zlib's `crc32_combine_gen`).
fn shift_for_bytes(n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = n as u64;
    let mut k = 3; // 8·n = n·2^3
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// Parts at least this long are checksummed as four interleaved lanes.
const LANE_MIN: usize = 4096;

/// Lane length granule: a lane is whole slicing steps, and rounding it
/// keeps `x^(8·lane)` a product of few table powers.
const LANE_GRANULE: usize = 256;

/// One slicing-by-16 step: the raw register after the 16 bytes of `chunk`.
#[inline(always)]
fn step16(crc: u32, chunk: &[u8; 16]) -> u32 {
    let t = &CRC_TABLES;
    let w = |i: usize| u32::from_le_bytes([chunk[i], chunk[i + 1], chunk[i + 2], chunk[i + 3]]);
    let (a, b, c, d) = (w(0) ^ crc, w(4), w(8), w(12));
    t[15][(a & 0xFF) as usize]
        ^ t[14][((a >> 8) & 0xFF) as usize]
        ^ t[13][((a >> 16) & 0xFF) as usize]
        ^ t[12][(a >> 24) as usize]
        ^ t[11][(b & 0xFF) as usize]
        ^ t[10][((b >> 8) & 0xFF) as usize]
        ^ t[9][((b >> 16) & 0xFF) as usize]
        ^ t[8][(b >> 24) as usize]
        ^ t[7][(c & 0xFF) as usize]
        ^ t[6][((c >> 8) & 0xFF) as usize]
        ^ t[5][((c >> 16) & 0xFF) as usize]
        ^ t[4][(c >> 24) as usize]
        ^ t[3][(d & 0xFF) as usize]
        ^ t[2][((d >> 8) & 0xFF) as usize]
        ^ t[1][((d >> 16) & 0xFF) as usize]
        ^ t[0][(d >> 24) as usize]
}

/// Runs `bytes` through the raw register `crc`, slicing-by-16.
fn update16(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        crc = step16(crc, chunk.try_into().expect("16-byte chunk"));
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Runs `bytes` through the raw register `crc` as four lanes of `lane`
/// bytes each, advanced in one interleaved loop so the four table-lookup
/// chains overlap, then merged: the register after lanes `A‖B` is
/// `reg(A)·x^(8·|B|) ^ reg₀(B)`, where `reg₀` starts from zero. The
/// `len % (4·lane)` tail goes through [`update16`].
fn update_lanes(crc: u32, bytes: &[u8]) -> u32 {
    let lane = bytes.len() / 4 / LANE_GRANULE * LANE_GRANULE;
    let (lanes, tail) = bytes.split_at(4 * lane);
    let (l0, rest) = lanes.split_at(lane);
    let (l1, rest) = rest.split_at(lane);
    let (l2, l3) = rest.split_at(lane);
    let (mut c0, mut c1, mut c2, mut c3) = (crc, 0u32, 0u32, 0u32);
    let quads = l0
        .chunks_exact(16)
        .zip(l1.chunks_exact(16))
        .zip(l2.chunks_exact(16).zip(l3.chunks_exact(16)));
    for ((a, b), (c, d)) in quads {
        c0 = step16(c0, a.try_into().expect("16-byte chunk"));
        c1 = step16(c1, b.try_into().expect("16-byte chunk"));
        c2 = step16(c2, c.try_into().expect("16-byte chunk"));
        c3 = step16(c3, d.try_into().expect("16-byte chunk"));
    }
    let shift = shift_for_bytes(lane);
    let merged = mul_mod_p(shift, mul_mod_p(shift, mul_mod_p(shift, c0) ^ c1) ^ c2) ^ c3;
    update16(merged, tail)
}

/// CRC-32 (IEEE 802.3) over the concatenation of the given parts.
///
/// Every frame is checksummed on both the encode and the decode hot path,
/// so this is the per-byte price of `S_FT`'s longer messages. A part of at
/// least `LANE_MIN` (4 KiB) bytes is split into four equal lanes checksummed
/// in one interleaved slicing-by-16 loop, and the lane registers are merged
/// by the GF(2) shift `x^(8n) mod P` (zlib's `crc32_combine`, from a
/// `const`-built table of `x^(2^k) mod P`); shorter parts run plain
/// slicing-by-16. Either way the value is the one bytewise CRC-32 of the
/// same bytes, so the frame format — and `FRAME_VERSION` — is unchanged.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = !0u32;
    for part in parts {
        crc = if part.len() >= LANE_MIN {
            update_lanes(crc, part)
        } else {
            update16(crc, part)
        };
    }
    !crc
}

/// Encodes one complete frame, length prefix included.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + HEADER_LEN + payload.len());
    encode_frame_into(kind, payload, &mut out);
    out
}

/// Appends one complete frame to `out` without allocating a fresh buffer —
/// the pooled-buffer variant of [`encode_frame`].
pub(crate) fn encode_frame_into(kind: FrameKind, payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_with(kind, out, |buf| buf.extend_from_slice(payload));
}

/// Appends one complete frame to `out`, letting `write_payload` serialize
/// the payload *directly into the frame buffer* — no intermediate payload
/// `Vec`, no concatenation copy.
///
/// The length and CRC fields are written as placeholders, the payload is
/// encoded in place, and both fields are patched afterwards; the CRC is
/// computed over the split parts exactly as [`decode_frame_body`] checks it.
pub(crate) fn encode_frame_with(
    kind: FrameKind,
    out: &mut Vec<u8>,
    write_payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]); // length, patched below
    out.push(FRAME_VERSION);
    out.push(kind.to_byte());
    out.extend_from_slice(&[0u8; 4]); // crc, patched below
    write_payload(out);
    let len = (out.len() - start - 4) as u32;
    let crc = crc32(&[&out[start + 4..start + 6], &out[start + 4 + HEADER_LEN..]]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 6..start + 10].copy_from_slice(&crc.to_le_bytes());
}

/// The 10-byte wire header for a frame around `payload` —
/// `[len][version][kind][crc]` — ready to travel ahead of the payload in a
/// vectored write, so header and payload never get copied into one buffer.
pub fn frame_header(kind: FrameKind, payload: &[u8]) -> [u8; 4 + HEADER_LEN] {
    let kind_byte = kind.to_byte();
    let crc = crc32(&[&[FRAME_VERSION, kind_byte], payload]);
    let len = (HEADER_LEN + payload.len()) as u32;
    let mut header = [0u8; 4 + HEADER_LEN];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4] = FRAME_VERSION;
    header[5] = kind_byte;
    header[6..].copy_from_slice(&crc.to_le_bytes());
    header
}

/// Decodes one frame from the front of `input`, advancing it past the
/// frame.
///
/// # Errors
///
/// [`CodecError`] on truncation, oversized length, unknown version or
/// kind, or checksum mismatch. `input` is only advanced on success.
pub fn decode_frame(input: &mut &[u8]) -> Result<(FrameKind, Vec<u8>), CodecError> {
    let buf = *input;
    if buf.len() < 4 {
        return Err(CodecError::msg(format!(
            "truncated frame: {} bytes, need 4-byte length",
            buf.len()
        )));
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if len < HEADER_LEN {
        return Err(CodecError::msg(format!(
            "frame length {len} shorter than header"
        )));
    }
    if len > MAX_FRAME_LEN {
        return Err(CodecError::msg(format!(
            "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
        )));
    }
    if buf.len() < 4 + len {
        return Err(CodecError::msg(format!(
            "truncated frame: {} bytes, need {}",
            buf.len(),
            4 + len
        )));
    }
    let body = &buf[4..4 + len];
    let (kind, payload) = decode_frame_body(body)?;
    *input = &buf[4 + len..];
    Ok((kind, payload.to_vec()))
}

/// Decodes a frame body (the bytes *after* the length field) — the form a
/// stream reader has after reading a length-delimited chunk.
///
/// # Errors
///
/// [`CodecError`] on truncation, unknown version or kind, or checksum
/// mismatch.
pub fn decode_frame_body(body: &[u8]) -> Result<(FrameKind, &[u8]), CodecError> {
    if body.len() < HEADER_LEN {
        return Err(CodecError::msg(format!(
            "truncated frame body: {} bytes, need {HEADER_LEN}",
            body.len()
        )));
    }
    let version = body[0];
    if version != FRAME_VERSION {
        return Err(CodecError::msg(format!(
            "unknown frame version {version} (expected {FRAME_VERSION})"
        )));
    }
    let kind = FrameKind::from_byte(body[1])?;
    let stated_crc = u32::from_le_bytes(body[2..6].try_into().expect("4 bytes"));
    let payload = &body[HEADER_LEN..];
    let actual_crc = crc32(&[&body[..2], payload]);
    if stated_crc != actual_crc {
        return Err(CodecError::msg(format!(
            "checksum mismatch: stated {stated_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_known_vector() {
        // "123456789" -> 0xCBF43926, the standard CRC-32 check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn frame_round_trip() {
        for kind in [
            FrameKind::Data,
            FrameKind::Heartbeat,
            FrameKind::Bye,
            FrameKind::LinkBye,
        ] {
            let payload = b"hello frame";
            let bytes = encode_frame(kind, payload);
            let mut input = &bytes[..];
            let (got_kind, got_payload) = decode_frame(&mut input).unwrap();
            assert_eq!(got_kind, kind);
            assert_eq!(got_payload, payload);
            assert!(input.is_empty());
        }
    }

    #[test]
    fn consecutive_frames_decode_in_order() {
        let mut stream = encode_frame(FrameKind::Data, b"one");
        stream.extend_from_slice(&encode_frame(FrameKind::Heartbeat, b""));
        stream.extend_from_slice(&encode_frame(FrameKind::Data, b"two"));
        let mut input = &stream[..];
        assert_eq!(decode_frame(&mut input).unwrap().1, b"one");
        assert_eq!(decode_frame(&mut input).unwrap().0, FrameKind::Heartbeat);
        assert_eq!(decode_frame(&mut input).unwrap().1, b"two");
        assert!(input.is_empty());
    }

    #[test]
    fn in_place_framing_matches_encode_frame() {
        let payload = b"zero copy payload";
        let classic = encode_frame(FrameKind::Data, payload);
        let mut buf = vec![0xAA; 3]; // an existing prefix must survive
        encode_frame_with(FrameKind::Data, &mut buf, |out| {
            out.extend_from_slice(payload);
        });
        assert_eq!(&buf[..3], &[0xAA; 3]);
        assert_eq!(&buf[3..], classic.as_slice());
    }

    #[test]
    fn split_header_matches_encode_frame() {
        for kind in [FrameKind::Data, FrameKind::Heartbeat, FrameKind::Bye] {
            let payload = b"vectored";
            let mut frame = frame_header(kind, payload).to_vec();
            frame.extend_from_slice(payload);
            assert_eq!(frame, encode_frame(kind, payload));
        }
    }

    #[test]
    fn any_truncation_rejected() {
        let bytes = encode_frame(FrameKind::Data, b"payload bytes");
        for cut in 0..bytes.len() {
            let mut input = &bytes[..cut];
            assert!(decode_frame(&mut input).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn any_single_bit_flip_rejected() {
        let bytes = encode_frame(FrameKind::Data, b"integrity!");
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[byte_idx] ^= 1 << bit;
                let mut input = &corrupted[..];
                // A flip may turn the length field into a larger claim (a
                // truncation error) or corrupt the body (version, kind or
                // crc error) — either way it must never decode cleanly to
                // the original payload.
                match decode_frame(&mut input) {
                    Err(_) => {}
                    Ok((_, payload)) => {
                        panic!("flip at byte {byte_idx} bit {bit} decoded: {payload:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bytes = encode_frame(FrameKind::Data, b"x");
        bytes[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut input = &bytes[..];
        let err = decode_frame(&mut input).unwrap_err();
        assert!(err.0.contains("maximum"), "{err}");
    }
}
