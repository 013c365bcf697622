//! What multiplexing adds to the wire, pinned to the codec: for any
//! assignment of message sequences to links, interleaving those links over
//! one mux session puts on the socket, per link and in send order, exactly
//! `wire::to_bytes(msg)` behind a 9-byte demux tag — the tag is the *only*
//! thing mux adds to a Data frame — every frame decodes with
//! `frame::decode_frame`, and every link ends in a `LinkBye`.
//!
//! Also the failure-semantics half of the same claim: one session death
//! surfaces on *every* link the session carried, because the session is
//! the unit of failure detection.

use std::collections::BTreeMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use aoft_net::frame::{decode_frame, FrameKind};
use aoft_net::wire::to_bytes;
use aoft_net::{CancelToken, LinkId, MuxConfig, MuxTransport, NetError, Transport};
use proptest::prelude::*;

/// Hour-long heartbeats keep every captured stream pure data, so the byte
/// comparisons below are deterministic.
fn quiet_mux() -> MuxTransport {
    let config = MuxConfig {
        heartbeat_interval: Duration::from_secs(3600),
        heartbeat_timeout: Duration::from_secs(7200),
        ..MuxConfig::default()
    };
    MuxTransport::bind(config).expect("bind mux")
}

/// Sends each link's messages through one mux session dialed at a raw
/// listener (round-robin interleaved across links), closes everything, and
/// returns the per-link Data payloads captured off the single socket,
/// demux tags stripped, plus whether each link ended in a LinkBye.
fn capture_mux(per_link: &[Vec<Vec<i64>>]) -> BTreeMap<u8, (Vec<Vec<u8>>, bool)> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind raw listener");
    let addr = listener.local_addr().expect("listener addr");
    let transport = quiet_mux();
    transport.set_peer(9, addr);
    let links: Vec<LinkId> = (0..per_link.len())
        .map(|tag| LinkId {
            from: 3,
            to: 9,
            tag: tag as u8,
        })
        .collect();
    let txs: Vec<_> = links
        .iter()
        .map(|&link| {
            Transport::<Vec<i64>>::connect_tx(&transport, link, Duration::from_secs(5))
                .expect("dial the raw listener")
        })
        .collect();
    let (mut socket, _) = listener.accept().expect("accept the session dial");
    // Interleave across links so frames genuinely share the session.
    let rounds = per_link.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for (tx, msgs) in txs.iter().zip(per_link) {
            if let Some(msg) = msgs.get(round) {
                tx.send(msg.clone()).expect("queue a frame");
            }
        }
    }
    drop(txs); // per-link LinkBye
    drop(transport); // flush, session Bye, EOF
    let mut bytes = Vec::new();
    socket.read_to_end(&mut bytes).expect("read until EOF");

    // Preamble: magic(8) lo(4) hi(4) dialer(4) count(2) + count entries.
    assert!(bytes.len() >= 22, "stream must start with the preamble");
    assert_eq!(&bytes[..8], b"AOFTMUX\x01", "session magic");
    let manifest = u16::from_le_bytes(bytes[20..22].try_into().unwrap()) as usize;
    let mut input = &bytes[22 + manifest * 9..];

    let mut streams: BTreeMap<u8, (Vec<Vec<u8>>, bool)> = BTreeMap::new();
    let mut saw_session_bye = false;
    while !input.is_empty() {
        let (kind, payload) = decode_frame(&mut input).expect("captured stream parses as frames");
        match kind {
            FrameKind::Data => {
                assert!(payload.len() >= 9, "data frame carries its demux tag");
                let tag = payload[8]; // LinkId handshake layout: from, to, tag
                let entry = streams.entry(tag).or_default();
                assert!(!entry.1, "no data after a link's LinkBye");
                entry.0.push(payload[9..].to_vec());
            }
            FrameKind::LinkBye => {
                assert_eq!(payload.len(), 9, "link bye payload is the demux tag");
                streams.entry(payload[8]).or_default().1 = true;
            }
            FrameKind::Heartbeat => {}
            FrameKind::Bye => {
                saw_session_bye = true;
                assert!(input.is_empty(), "session Bye ends the stream");
            }
        }
    }
    assert!(saw_session_bye, "orderly shutdown ends in a session Bye");
    streams
}

fn per_link_strategy() -> impl Strategy<Value = Vec<Vec<Vec<i64>>>> {
    prop::collection::vec(
        prop::collection::vec(prop::collection::vec(any::<i64>(), 0..24), 1..5),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleaving N links over one mux session preserves each link's
    /// message stream exactly as the codec encodes it.
    #[test]
    fn mux_interleaving_preserves_each_links_codec_stream(per_link in per_link_strategy()) {
        let mux_streams = capture_mux(&per_link);
        prop_assert_eq!(mux_streams.len(), per_link.len(), "one stream per link");
        for (tag, msgs) in per_link.iter().enumerate() {
            let tag = tag as u8;
            let (mux_payloads, closed) = &mux_streams[&tag];
            prop_assert!(*closed, "link {tag} must end in a LinkBye");
            let encoded: Vec<Vec<u8>> = msgs.iter().map(to_bytes).collect();
            prop_assert_eq!(
                mux_payloads, &encoded,
                "link {} payload stream is not its messages' encodings", tag
            );
        }
    }
}

/// One session death is every link's death: when the single socket a peer
/// pair shares goes silent, each link the session carried reports
/// `PeerDead` — collapsing a pair's links onto one socket must not narrow
/// detection.
#[test]
fn session_death_fans_out_to_every_link() {
    let config = MuxConfig {
        heartbeat_interval: Duration::from_millis(10),
        heartbeat_timeout: Duration::from_millis(150),
        ..MuxConfig::default()
    };
    let transport = MuxTransport::bind(config).expect("bind mux");
    let cancel = CancelToken::new();
    // A raw peer completes the session preamble for pair (2, 9) and then
    // goes silent forever. Local label 9 is the accept side.
    let raw = TcpStream::connect(transport.local_addr()).expect("dial the transport");
    {
        use std::io::Write;
        let mut buf = Vec::new();
        buf.extend_from_slice(b"AOFTMUX\x01");
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&9u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        (&raw).write_all(&buf).expect("write preamble");
    }
    let rxs: Vec<_> = (0..4u8)
        .map(|tag| {
            Transport::<u64>::connect_rx(
                &transport,
                LinkId {
                    from: 2,
                    to: 9,
                    tag,
                },
                Duration::from_secs(5),
            )
            .expect("attach rx")
        })
        .collect();
    for (tag, rx) in rxs.iter().enumerate() {
        let err = rx
            .recv_deadline(Duration::from_secs(5), &cancel)
            .expect_err("silent session must fail the link");
        assert!(
            matches!(err, NetError::PeerDead { .. }),
            "link {tag}: got {err}"
        );
    }
    drop(raw);
}
