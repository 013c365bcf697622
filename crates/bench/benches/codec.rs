//! Wire-codec and transport microbenchmarks.
//!
//! Three questions the transport layer must answer cheaply:
//!
//! * how fast does a realistic `S_FT` message (`Msg::Tagged`, data + LBS)
//!   encode to frame bytes?
//! * how fast does the receive path validate and decode it (checksum
//!   included)?
//! * what does one framed message cost end-to-end over a loopback mux
//!   session (send → socket → checksum → demux → decode → recv)?

use std::time::Duration;

use aoft_net::frame::{decode_frame, encode_frame, FrameKind};
use aoft_net::wire::{from_bytes, to_bytes};
use aoft_net::{CancelToken, LinkId, MuxTransport, Transport};
use aoft_sort::{Block, LbsWire, Msg};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// A representative stage message: an `m`-key block plus a full-span LBS
/// with half its slots filled.
fn tagged_msg(m: usize, span: usize) -> Msg {
    let block = Block::from_unsorted((0..m as i32).map(|x| x.wrapping_mul(-31)).collect());
    let slots = (0..span)
        .map(|i| (i % 2 == 0).then(|| block.clone()))
        .collect();
    Msg::Tagged {
        data: block.clone(),
        lbs: LbsWire {
            span_start: 0,
            block_len: m as u32,
            slots,
        },
    }
}

fn codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.warm_up_time(Duration::from_secs_f64(0.3));
    group.measurement_time(Duration::from_secs_f64(1.0));

    for &(m, span) in &[(8usize, 8usize), (64, 8), (64, 64)] {
        let msg = tagged_msg(m, span);
        let payload = to_bytes(&msg);
        let frame = encode_frame(FrameKind::Data, &payload);
        group.throughput(Throughput::Bytes(frame.len() as u64));

        let label = format!("m{m}_span{span}");
        group.bench_with_input(BenchmarkId::new("encode", &label), &msg, |b, msg| {
            b.iter(|| encode_frame(FrameKind::Data, &to_bytes(black_box(msg))));
        });
        group.bench_with_input(BenchmarkId::new("decode", &label), &frame, |b, frame| {
            b.iter(|| {
                let mut input = frame.as_slice();
                let (_, payload) = decode_frame(&mut input).expect("valid frame");
                from_bytes::<Msg>(&payload).expect("valid payload")
            });
        });
    }
    group.finish();
}

fn mux_rtt(c: &mut Criterion) {
    let mut group = c.benchmark_group("mux_loopback");
    group.warm_up_time(Duration::from_secs_f64(0.3));
    group.measurement_time(Duration::from_secs_f64(1.0));

    let transport = MuxTransport::loopback(2).expect("bind loopback");
    let deadline = Duration::from_secs(2);
    let there = LinkId {
        from: 0,
        to: 1,
        tag: 0,
    };
    let back = LinkId {
        from: 1,
        to: 0,
        tag: 0,
    };
    let tx_there = Transport::<Msg>::connect_tx(&transport, there, deadline).unwrap();
    let rx_there = Transport::<Msg>::connect_rx(&transport, there, deadline).unwrap();
    let tx_back = Transport::<Msg>::connect_tx(&transport, back, deadline).unwrap();
    let rx_back = Transport::<Msg>::connect_rx(&transport, back, deadline).unwrap();
    let cancel = CancelToken::new();

    let msg = tagged_msg(8, 8);
    group.throughput(Throughput::Elements(1));
    group.bench_function("round_trip_m8_span8", |b| {
        b.iter(|| {
            tx_there.send(msg.clone()).expect("send there");
            let echoed = rx_there
                .recv_deadline(Duration::from_secs(5), &cancel)
                .expect("recv there");
            tx_back.send(echoed).expect("send back");
            rx_back
                .recv_deadline(Duration::from_secs(5), &cancel)
                .expect("recv back")
        });
    });
    group.finish();
}

criterion_group!(benches, codec, mux_rtt);
criterion_main!(benches);
