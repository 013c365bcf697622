//! Acceptance tests for the zero-copy hot path: the borrowed [`MsgView`]
//! decoder must agree with the owned decoder on every wire image (valid or
//! truncated), and the global wire-buffer pool must have reclaimed every
//! lease once a TCP run drains — the "no steady-state allocations" claim,
//! observed from outside.

mod common;

use std::time::{Duration, Instant};

use aoft::net::wire::{from_bytes, to_bytes};
use aoft::net::{pool, MuxTransport};
use aoft::sort::{Algorithm, Block, LbsWire, Msg, MsgView, SortBuilder};
use proptest::prelude::*;

/// Assembles a `Msg` from raw generated parts. `kind` selects the variant;
/// the slot list carries a presence flag per slot so absent (`None`)
/// piggyback entries are exercised too.
fn build_msg(
    kind: u8,
    data_keys: Vec<i32>,
    header: (u32, u32),
    slots: Vec<(bool, Vec<i32>)>,
) -> Msg {
    let data = Block::from_wire(data_keys);
    let (span_start, block_len) = header;
    let lbs = LbsWire {
        span_start,
        block_len,
        slots: slots
            .into_iter()
            .map(|(filled, keys)| filled.then(|| Block::from_wire(keys)))
            .collect(),
    };
    match kind {
        0 => Msg::Data(data),
        1 => Msg::Tagged { data, lbs },
        _ => Msg::Lbs(lbs),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The borrowed view decodes every encodable message to exactly the
    /// value the owned decoder produces, and materializing it re-encodes
    /// byte-identically — zero-copy must be an optimization, never a
    /// semantic fork.
    #[test]
    fn view_decode_equals_owned_decode(
        kind in 0u8..3,
        data_keys in prop::collection::vec(-1000i32..1000, 0..12),
        header in (0u32..16, 0u32..8),
        slots in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(-1000i32..1000, 0..8)),
            0..5,
        ),
    ) {
        let msg = build_msg(kind, data_keys, header, slots);
        let bytes = to_bytes(&msg);

        let owned = from_bytes::<Msg>(&bytes).expect("owned decode of own encoding");
        let view = MsgView::parse(&bytes).expect("view parse of own encoding");
        prop_assert_eq!(&view.to_msg(), &owned);
        prop_assert_eq!(&owned, &msg);

        // Round-trip through the view is byte-identical.
        prop_assert_eq!(to_bytes(&view.to_msg()), bytes);
    }

    /// Both decoders accept and reject the same byte strings: every strict
    /// prefix of a valid encoding gets the same verdict from the view as
    /// from the owned path (a view that accepted garbage the owned decoder
    /// rejects would be an attack surface, not an optimization).
    #[test]
    fn view_and_owned_agree_on_truncations(
        kind in 0u8..3,
        data_keys in prop::collection::vec(-1000i32..1000, 0..12),
        header in (0u32..16, 0u32..8),
        slots in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(-1000i32..1000, 0..8)),
            0..5,
        ),
    ) {
        let msg = build_msg(kind, data_keys, header, slots);
        let bytes = to_bytes(&msg);
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            let owned_ok = from_bytes::<Msg>(prefix).is_ok();
            let view_ok = MsgView::parse(prefix).is_ok();
            prop_assert_eq!(
                owned_ok, view_ok,
                "decoders disagree at cut {} of {}", cut, bytes.len()
            );
        }
    }
}

/// Every wire buffer leased from the global pool during a full d=4 `S_FT`
/// run over loopback TCP comes back: once the tx servicers drain, the
/// outstanding-lease count returns to zero. This is the steady-state
/// allocation discipline observed end to end — buffers cycle through the
/// pool instead of being allocated per message.
#[test]
fn pool_reclaims_all_leases_after_d4_tcp_run() {
    let keys: Vec<i32> = (0..64i32).map(|x| x.wrapping_mul(-61) % 53).collect();
    let transport = MuxTransport::loopback(16).expect("bind loopback listener");
    let report = SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys.clone())
        .nodes(16)
        .recv_timeout(Duration::from_millis(1500))
        .run_on(transport)
        .expect("clean d=4 TCP run");
    let expected = common::sorted(&keys);
    assert_eq!(report.output(), expected.as_slice());

    // Tx servicers may still be flushing their last frames when run_on
    // returns; give them a bounded moment to hand their leases back.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let outstanding = pool::outstanding();
        if outstanding == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pool leaked {outstanding} lease(s) after the run drained"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
