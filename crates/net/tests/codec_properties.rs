//! Property tests of the wire codec and frame format: every encoded value
//! survives the round trip, and every truncation or corruption is
//! *rejected*, never silently mis-decoded — the codec-level face of
//! "a faulty message must be detectable".

use aoft_net::frame::{crc32, decode_frame, encode_frame, FrameKind};
use aoft_net::wire::{from_bytes, to_bytes, Wire};
use proptest::prelude::*;

/// A payload exercising every `Wire` combinator: scalars, strings,
/// options, nesting.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    id: u32,
    signed: i64,
    flag: bool,
    name: String,
    values: Vec<i32>,
    nested: Vec<Option<Vec<u16>>>,
}

impl Wire for Sample {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.signed.encode(out);
        self.flag.encode(out);
        self.name.encode(out);
        self.values.encode(out);
        self.nested.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, aoft_net::CodecError> {
        Ok(Sample {
            id: u32::decode(input)?,
            signed: i64::decode(input)?,
            flag: bool::decode(input)?,
            name: String::decode(input)?,
            values: Vec::decode(input)?,
            nested: Vec::decode(input)?,
        })
    }
}

fn sample_strategy() -> impl Strategy<Value = Sample> {
    let name = prop::collection::vec(0u8..26, 0..12).prop_map(|v| {
        v.into_iter()
            .map(|c| (b'a' + c) as char)
            .collect::<String>()
    });
    let slot = (any::<bool>(), prop::collection::vec(0u16..512, 0..6))
        .prop_map(|(filled, v)| filled.then_some(v));
    (
        (any::<u32>(), any::<i64>(), any::<bool>()),
        (
            name,
            prop::collection::vec(-1000i32..1000, 0..24),
            prop::collection::vec(slot, 0..6),
        ),
    )
        .prop_map(|((id, signed, flag), (name, values, nested))| Sample {
            id,
            signed,
            flag,
            name,
            values,
            nested,
        })
}

/// The reference implementation: CRC-32 (IEEE 802.3) straight from the
/// definition, byte by byte and bit by bit — the fast path must agree.
fn bytewise_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exact round trip through the value codec.
    #[test]
    fn wire_round_trips(sample in sample_strategy()) {
        let bytes = to_bytes(&sample);
        prop_assert_eq!(from_bytes::<Sample>(&bytes).unwrap(), sample);
    }

    /// Every strict prefix of an encoding is rejected — truncation can
    /// never decode to a (wrong) value.
    #[test]
    fn wire_truncation_rejected(sample in sample_strategy()) {
        let bytes = to_bytes(&sample);
        for cut in 0..bytes.len() {
            prop_assert!(
                from_bytes::<Sample>(&bytes[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
    }

    /// Frames round-trip for every kind and payload, from a bare header up
    /// past the lengths whose checksum runs as interleaved lanes.
    #[test]
    fn frame_round_trips(
        payload in prop::collection::vec(any::<u8>(), 0..20_000),
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => FrameKind::Data,
            1 => FrameKind::Heartbeat,
            _ => FrameKind::Bye,
        };
        let frame = encode_frame(kind, &payload);
        let mut input = frame.as_slice();
        let (got_kind, got_payload) = decode_frame(&mut input).unwrap();
        prop_assert_eq!(got_kind, kind);
        prop_assert_eq!(got_payload, payload);
        prop_assert!(input.is_empty(), "decoder must consume the whole frame");
    }

    /// Any single corrupted byte in the frame body is caught — by the
    /// checksum, the version check, or the kind tag — never delivered.
    #[test]
    fn frame_corruption_rejected(
        payload in prop::collection::vec(any::<u8>(), 1..20_000),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let frame = encode_frame(FrameKind::Data, &payload);
        // Corrupt past the 4-byte length prefix: length corruption is a
        // different failure (misframing) handled by the stream layer.
        let body_start = 4;
        let pos = body_start + pos_seed % (frame.len() - body_start);
        let mut bad = frame.clone();
        bad[pos] ^= flip;
        let mut input = bad.as_slice();
        match decode_frame(&mut input) {
            Err(_) => {}
            Ok((kind, got)) => prop_assert!(
                false,
                "corrupt byte {} delivered as {:?} ({} bytes)", pos, kind, got.len()
            ),
        }
    }

    /// `crc32` over any split of any bytes is the CRC-32 of their
    /// concatenation, whichever of its paths each part takes.
    #[test]
    fn crc_matches_bytewise_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..65_537),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
        parts in 1usize..=3,
    ) {
        let (mut a, mut b) = (cut_a % (bytes.len() + 1), cut_b % (bytes.len() + 1));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let expected = bytewise_crc32(&bytes);
        let got = match parts {
            1 => crc32(&[&bytes]),
            2 => crc32(&[&bytes[..a], &bytes[a..]]),
            _ => crc32(&[&bytes[..a], &bytes[a..b], &bytes[b..]]),
        };
        prop_assert_eq!(got, expected);
    }

    /// A truncated frame never yields a value: the decoder asks for more
    /// bytes (incomplete) or errors, but cannot produce a payload.
    #[test]
    fn frame_truncation_rejected(payload in prop::collection::vec(any::<u8>(), 0..64)) {
        let frame = encode_frame(FrameKind::Data, &payload);
        for cut in 0..frame.len() {
            let mut input = &frame[..cut];
            prop_assert!(
                decode_frame(&mut input).is_err(),
                "truncated frame ({} of {} bytes) decoded", cut, frame.len()
            );
        }
    }
}
