//! Property tests of the live-fire injection seam: adversary mutations are
//! *semantic*, so every frame an injector lets through must remain
//! indistinguishable from an honest one to the codec layer — valid CRC,
//! well-formed `Msg`, exact byte round trip. Corruption that the framing or
//! checksum could reject would never reach the predicates, and the whole
//! point of the campaign is to exercise Φ_P/Φ_F/Φ_C, not CRC32.

use aoft_adv::FrameInjector;
use aoft_faults::{FaultKind, FaultPlan, FaultSpec, Trigger};
use aoft_hypercube::NodeId;
use aoft_net::frame::{decode_frame, decode_frame_body, encode_frame, FrameKind};
use aoft_net::wire::{from_bytes, to_bytes};
use aoft_net::LinkId;
use aoft_sim::Ticks;
use aoft_sort::{Block, LbsWire, Msg};
use proptest::prelude::*;

fn block_strategy() -> impl Strategy<Value = Block> {
    prop::collection::vec(-10_000i32..10_000, 0..16).prop_map(Block::from_wire)
}

fn lbs_strategy() -> impl Strategy<Value = LbsWire> {
    let slot = (any::<bool>(), block_strategy()).prop_map(|(filled, b)| filled.then_some(b));
    (0u32..8, 0u32..16, prop::collection::vec(slot, 0..8)).prop_map(
        |(span_start, block_len, slots)| LbsWire {
            span_start,
            block_len,
            slots,
        },
    )
}

fn msg_strategy() -> impl Strategy<Value = Msg> {
    (0u8..3, block_strategy(), lbs_strategy()).prop_map(|(tag, data, lbs)| match tag {
        0 => Msg::Data(data),
        1 => Msg::Tagged { data, lbs },
        _ => Msg::Lbs(lbs),
    })
}

fn kind_strategy() -> impl Strategy<Value = FaultKind> {
    prop::sample::select(FaultKind::ALL.to_vec())
}

/// One spec of each kind, firing on every send so the mutation path (not
/// the passthrough) is what's exercised.
fn spec(kind: FaultKind, seed: u64) -> FaultSpec {
    *FaultPlan::new()
        .with_fault(NodeId::new(0), kind, Trigger::always(), seed)
        .specs()
        .last()
        .expect("plan holds the spec just added")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a Definition-3 adversary does to a frame, every payload it
    /// delivers still encodes to a frame with a valid CRC and decodes back
    /// to a well-formed `Msg` — the attack is invisible below the
    /// predicate layer.
    #[test]
    fn mutated_frames_survive_the_codec(
        msg in msg_strategy(),
        kind in kind_strategy(),
        seed in 0u64..1024,
        burst in 1usize..4,
    ) {
        let mut injector =
            FrameInjector::new(&spec(kind, seed), LinkId { from: 0, to: 1, tag: 0 });
        for _ in 0..burst {
            let outcome = injector
                .intercept(&msg, Ticks::ZERO)
                .expect("adversary mutations stay within the Msg value space");
            prop_assert_eq!(outcome.dropped, outcome.deliver.is_empty());
            for delivered in &outcome.deliver {
                let body = to_bytes(delivered);
                let framed = encode_frame(FrameKind::Data, &body);

                let mut cursor = &framed[..];
                let (fkind, payload) = decode_frame(&mut cursor)
                    .expect("mutated frame passes version, length and CRC checks");
                prop_assert_eq!(fkind, FrameKind::Data);
                prop_assert!(cursor.is_empty());
                let decoded: Msg =
                    from_bytes(&payload).expect("mutated payload is a well-formed Msg");
                prop_assert_eq!(&decoded, delivered);

                // `decode_frame_body` sees the frame past its 4-byte
                // length prefix — the zero-copy path the TCP reader takes.
                let (fkind, body_ref) = decode_frame_body(&framed[4..])
                    .expect("zero-copy decode agrees with the buffered one");
                prop_assert_eq!(fkind, FrameKind::Data);
                prop_assert_eq!(body_ref, &body[..]);
            }
        }
    }

    /// Same plan, same link, same payload stream → byte-identical mutation
    /// decisions: the campaign is replayable from (plan, seeds) alone.
    #[test]
    fn injection_is_deterministic(
        msgs in prop::collection::vec(msg_strategy(), 1..6),
        kind in kind_strategy(),
        seed in 0u64..1024,
    ) {
        let link = LinkId { from: 0, to: 2, tag: 1 };
        let mut a = FrameInjector::new(&spec(kind, seed), link);
        let mut b = FrameInjector::new(&spec(kind, seed), link);
        for msg in &msgs {
            let left = a.intercept(msg, Ticks::ZERO).expect("codec-clean");
            let right = b.intercept(msg, Ticks::ZERO).expect("codec-clean");
            prop_assert_eq!(left, right);
        }
    }
}
