//! Fuzzing the UDP ingest path: whatever datagram arrives on the wire —
//! truncated preambles, out-of-universe ids, duplicated or badly delayed
//! frames — classification is total, every reject lands in a counter,
//! and the runtime behind the socket keeps working.
//!
//! Three layers, matching the three places untrusted bytes cross a
//! boundary:
//!
//! 1. **Pure framing** — [`decode_datagram`] over arbitrary byte strings
//!    is a total function agreeing with a by-hand classification, and
//!    [`encode_datagram`] → [`decode_datagram`] is the identity.
//! 2. **The socket read loop** — raw datagrams shoved at a live
//!    [`UdpTransport`] from a plain socket: nothing panics, and
//!    `delivered + malformed + unknown_sender + unknown_dest` accounts
//!    for every datagram the endpoint ingested.
//! 3. **The runtime** — decoded frames replayed with duplicates and
//!    reordering through [`NodeRuntime::handle`] under a
//!    `max_round_lag` guard: `stale_frames` counts exactly the frames
//!    the guard rejects, duplicates included. A sketch frame that
//!    decodes but names another geometry than the receiver's is dropped
//!    like a lost one, and every truncation and bit flip of a sketch
//!    frame aged up to the saturation clamp is merged or refused, never
//!    fatal.

use dynagg_core::config::{ResetConfig, SketchConfig};
use dynagg_core::count_sketch::CountSketch;
use dynagg_core::count_sketch_reset::CountSketchReset;
use dynagg_core::invert_average::InvertAverage;
use dynagg_core::mass::Mass;
use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_core::wire::WireMessage;
use dynagg_node::runtime::{Envelope, FrameHeader, FrameKind, NodeRuntime, RuntimeConfig};
use dynagg_node::transport::{
    decode_datagram, encode_datagram, DatagramCheck, Transport, UdpMesh, DGRAM_PREAMBLE_BYTES,
};
use proptest::prelude::*;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Classify a datagram the slow, obvious way (the spec the fast decoder
/// must agree with).
fn classify_by_hand(bytes: &[u8], universe: usize) -> &'static str {
    if bytes.len() < DGRAM_PREAMBLE_BYTES {
        return "truncated";
    }
    let from = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let to = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if from as usize >= universe {
        "unknown_sender"
    } else if to as usize >= universe {
        "unknown_dest"
    } else {
        "frame"
    }
}

proptest! {
    /// `decode_datagram` is total and agrees with the by-hand spec on
    /// ANY byte input and ANY universe size, and a `Frame` result
    /// re-derives its ids from the exact preamble bytes.
    #[test]
    fn decode_is_total_and_matches_spec(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        universe in 0usize..1024,
    ) {
        let got = decode_datagram(&bytes, universe);
        let want = classify_by_hand(&bytes, universe);
        match got {
            DatagramCheck::Frame { from, to, payload } => {
                prop_assert_eq!(want, "frame");
                prop_assert_eq!(from.to_le_bytes(), [bytes[0], bytes[1], bytes[2], bytes[3]]);
                prop_assert_eq!(to.to_le_bytes(), [bytes[4], bytes[5], bytes[6], bytes[7]]);
                prop_assert_eq!(payload, &bytes[DGRAM_PREAMBLE_BYTES..]);
            }
            DatagramCheck::Truncated => prop_assert_eq!(want, "truncated"),
            DatagramCheck::UnknownSender => prop_assert_eq!(want, "unknown_sender"),
            DatagramCheck::UnknownDest => prop_assert_eq!(want, "unknown_dest"),
        }
    }

    /// encode → decode is the identity for every in-universe envelope.
    #[test]
    fn encode_decode_roundtrip(
        from in 0u32..512,
        to in 0u32..512,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let env = Envelope { from, to, payload: payload.clone(), raw_bytes: payload.len() };
        let mut buf = Vec::new();
        encode_datagram(&env, &mut buf);
        prop_assert_eq!(buf.len(), DGRAM_PREAMBLE_BYTES + payload.len());
        match decode_datagram(&buf, 512) {
            DatagramCheck::Frame { from: f, to: t, payload: p } => {
                prop_assert_eq!(f, from);
                prop_assert_eq!(t, to);
                prop_assert_eq!(p, &payload[..]);
            }
            other => prop_assert!(false, "roundtrip lost the frame: {:?}", other),
        }
    }
}

/// Fire `datagrams` from a plain socket at `target`'s ingest loop and
/// drain until every one is accounted for (loopback delivery of a small
/// burst is reliable; the deadline is a hang guard, not a loss budget).
fn shove_and_drain(
    datagrams: &[Vec<u8>],
    target: &mut dynagg_node::transport::UdpTransport,
) -> Vec<dynagg_node::transport::RecvFrame> {
    let gun = UdpSocket::bind("127.0.0.1:0").expect("bind sender socket");
    let addr = target.local_addr().expect("target address");
    for d in datagrams {
        gun.send_to(d, addr).expect("loopback send");
    }
    let mut out = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = target.stats();
        let processed = s.delivered + s.rejected();
        if processed >= datagrams.len() as u64 || Instant::now() > deadline {
            return out;
        }
        target.recv_wait(Duration::from_millis(20), &mut out);
    }
}

proptest! {
    /// Arbitrary raw datagrams at a live socket: the read loop never
    /// panics, every delivered frame is one the pure decoder calls a
    /// `Frame`, and the counters account for the whole burst —
    /// `delivered + malformed + unknown_sender + unknown_dest` equals
    /// the number of datagrams sent, bucket by bucket.
    #[test]
    fn socket_ingest_accounts_for_every_datagram(
        datagrams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..12),
    ) {
        let universe = 8usize;
        let mut mesh = UdpMesh::new(1, universe).expect("bind loopback socket");
        let target = &mut mesh[0];
        let got = shove_and_drain(&datagrams, target);

        let mut want_frames = 0u64;
        let mut want = dynagg_node::transport::TransportStats::default();
        for d in &datagrams {
            match decode_datagram(d, universe) {
                DatagramCheck::Frame { .. } => want_frames += 1,
                DatagramCheck::Truncated => want.malformed += 1,
                DatagramCheck::UnknownSender => want.unknown_sender += 1,
                DatagramCheck::UnknownDest => want.unknown_dest += 1,
            }
        }
        let s = target.stats();
        prop_assert_eq!(s.delivered, want_frames, "every well-formed datagram delivered");
        prop_assert_eq!(s.malformed, want.malformed);
        prop_assert_eq!(s.unknown_sender, want.unknown_sender);
        prop_assert_eq!(s.unknown_dest, want.unknown_dest);
        prop_assert_eq!(got.len() as u64, want_frames);
        for f in &got {
            prop_assert!((f.from as usize) < universe);
            prop_assert!((f.to as usize) < universe);
        }
    }
}

/// The four reject/accept classes, deterministically, through a real
/// socket — the smoke version of the property above, with known bytes.
#[test]
fn socket_rejects_are_counted_and_dropped() {
    let mut mesh = UdpMesh::new(1, 4).expect("bind loopback socket");

    let mut valid = Vec::new();
    let mut frame = Vec::new();
    FrameHeader { kind: FrameKind::Initiation, sender_round: 1 }.encode(&mut frame);
    Mass::new(0.5, 1.0).encode(&mut frame);
    encode_datagram(&Envelope { from: 1, to: 2, payload: frame, raw_bytes: 0 }, &mut valid);

    let mut bad_sender = valid.clone();
    bad_sender[0..4].copy_from_slice(&9u32.to_le_bytes());
    let mut bad_dest = valid.clone();
    bad_dest[4..8].copy_from_slice(&7u32.to_le_bytes());
    let truncated = valid[..DGRAM_PREAMBLE_BYTES - 1].to_vec();

    // Two copies of the valid frame: duplication is a delivery mode UDP
    // is allowed to have, and ingest must treat each copy as a frame.
    let burst = vec![valid.clone(), truncated, bad_sender, valid.clone(), bad_dest, Vec::new()];
    let got = shove_and_drain(&burst, &mut mesh[0]);

    let s = mesh[0].stats();
    assert_eq!(s.delivered, 2, "both copies of the valid frame arrive");
    assert_eq!(s.malformed, 2, "empty + truncated");
    assert_eq!(s.unknown_sender, 1);
    assert_eq!(s.unknown_dest, 1);
    assert_eq!(got.len(), 2);
    for f in &got {
        assert_eq!((f.from, f.to), (1, 2));
        assert_eq!(f.payload.len(), valid.len() - DGRAM_PREAMBLE_BYTES);
    }
}

proptest! {
    /// Duplicated and reordered frames through the runtime under a
    /// staleness guard: `handle` never panics, and `stale_frames` counts
    /// exactly the frames whose round lags by more than the guard —
    /// counting every duplicate separately.
    #[test]
    fn runtime_stale_accounting_survives_dup_and_reorder(
        rounds in proptest::collection::vec(0u32..24, 1..32),
        lag in 0u64..8,
        advance_to in 200u64..2_000,
    ) {
        let mut cfg = RuntimeConfig::for_node(0, 100);
        cfg.max_round_lag = Some(lag);
        let mut rt = NodeRuntime::new(cfg, PushSumRevert::new(3.0, 0.1));
        rt.set_peers(&[1, 2]);
        let mut sink = Vec::new();
        rt.poll(advance_to, &mut sink); // runtime is now at some round > 0
        let local = rt.round();

        // `rounds` is an arbitrary sequence: duplicates and arbitrary
        // order are the point, not an accident.
        let mut want_stale = 0u64;
        for &r in &rounds {
            let mut payload = Vec::new();
            FrameHeader { kind: FrameKind::Initiation, sender_round: r }.encode(&mut payload);
            Mass::new(0.25, 1.0).encode(&mut payload);
            let res = rt.handle(1, &payload);
            prop_assert!(res.is_ok(), "well-formed frame never errors");
            if u64::from(r).saturating_add(lag) < local {
                want_stale += 1;
            }
        }
        prop_assert_eq!(rt.stale_frames(), want_stale, "guard counts each stale copy");
        prop_assert!(rt.estimate().is_some(), "runtime still estimating after the storm");

        // Garbage *after* the storm is still diagnosed, not fatal.
        prop_assert!(rt.handle(2, &[0xFF; 3]).is_err());
    }

    /// The full gauntlet: arbitrary datagrams decoded off the wire and —
    /// when they decode — fed straight into a runtime. No byte string
    /// reachable through the socket can panic the node behind it.
    #[test]
    fn decoded_datagrams_never_panic_the_runtime(
        datagrams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..96), 1..16),
    ) {
        let mut rt = NodeRuntime::new(RuntimeConfig::for_node(2, 100), PushSumRevert::new(7.0, 0.1));
        rt.set_peers(&[0, 1]);
        for d in &datagrams {
            if let DatagramCheck::Frame { from, payload, .. } = decode_datagram(d, 4) {
                let _ = rt.handle(from, payload); // must never panic
            }
        }
        // And a well-formed frame afterwards still lands.
        let mut good = Vec::new();
        FrameHeader { kind: FrameKind::Initiation, sender_round: 0 }.encode(&mut good);
        Mass::new(0.5, 1.0).encode(&mut good);
        prop_assert!(rt.handle(1, &good).is_ok());
    }
}

proptest! {
    /// Sketch frames whose oldest cell sits at or near the saturation
    /// clamp, through the runtime: every truncation is refused, every
    /// single-bit flip is merged or refused without a panic, and an age
    /// byte one past the clamp — the code the one-byte stamp window gave
    /// up, which no encoder emits — is refused with the state untouched.
    #[test]
    fn sketch_frames_aged_to_the_clamp_survive_truncations_and_bit_flips(
        aged in prop_oneof![0u16..8, 120u16..130, 248u16..262],
    ) {
        let reset = ResetConfig::paper(1000, 7);
        // The sender's own cell stays pinned at 0; the cell it heard from
        // a third host ages once per emitted snapshot.
        let mut sender = CountSketchReset::counting(reset, 1);
        let heard = CountSketchReset::counting(reset, 2).emit_snapshot();
        sender.absorb(&heard);
        let mut snapshot = sender.emit_snapshot();
        for _ in 0..aged {
            snapshot = sender.emit_snapshot();
        }
        // 253 is `dynagg_sketch::age::MAX_FINITE_AGE`, spelled out because
        // this crate reaches the sketch crate only through `dynagg_core`.
        let oldest = snapshot.finite_cells().map(|(_, _, age)| age).max().expect("two cells");
        prop_assert_eq!(u16::from(oldest), (aged + 1).min(253), "ages saturate at the clamp");
        let mut frame = Vec::new();
        FrameHeader { kind: FrameKind::Initiation, sender_round: 0 }.encode(&mut frame);
        let body_at = frame.len();
        snapshot.encode(&mut frame);

        let receiver = || {
            NodeRuntime::new(RuntimeConfig::for_node(0, 100), CountSketchReset::counting(reset, 0))
        };
        let mut rt = receiver();
        prop_assert!(rt.handle(1, &frame).is_ok(), "the sender's own frame merges");
        prop_assert_eq!(rt.protocol().ages().finite_cells().count(), 3);
        for cut in body_at..frame.len() {
            prop_assert!(rt.handle(1, &frame[..cut]).is_err(), "prefix {} decoded", cut);
        }
        let mut flipped = frame.clone();
        for bit in body_at * 8..frame.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = rt.handle(1, &flipped); // must never panic
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        prop_assert!(rt.estimate().is_some(), "runtime still estimating after the storm");

        // The last byte of the frame is an age (planes end in ages); one
        // past the clamp is not an age any more.
        let mut rt = receiver();
        let before = rt.protocol().ages().clone();
        *flipped.last_mut().expect("non-empty frame") = 254;
        prop_assert!(rt.handle(1, &flipped).is_err());
        prop_assert_eq!(rt.protocol().ages(), &before);
    }
}

/// A well-formed sketch frame of foreign geometry — a differently
/// configured peer, or thirteen forged bytes — must cost the receiver
/// nothing: `handle` returns without a reply and the protocol state is
/// what it was. (It used to decode a valid 2 × 2 matrix and then die on
/// the merge's bin-count assertion, taking the worker with it.)
#[test]
fn foreign_geometry_sketch_frames_are_dropped_like_lost_ones() {
    // 2 bins × 2 registers against the receivers' 64 bins: header (m = 2,
    // l = 1), then one finite cell of age 4 at (0, 0) as planes — mask
    // 0b01, bin bitmap 0b01, the age — and as PCSA registers.
    const AGES_2X2: [u8; 8] = [2, 0, 0, 0, 1, 0b01, 0b01, 4];
    const PCSA_2X2: [u8; 7] = [2, 0, 0, 0, 1, 0b01, 0b10];
    let frame = |kind: FrameKind, body: &[u8]| {
        let mut payload = Vec::new();
        FrameHeader { kind, sender_round: 0 }.encode(&mut payload);
        payload.extend_from_slice(body);
        payload
    };
    let mut invert_body = vec![1u8];
    Mass::new(0.5, 3.0).encode(&mut invert_body);
    invert_body.extend_from_slice(&AGES_2X2);

    for kind in [FrameKind::Initiation, FrameKind::Reply] {
        let reset = ResetConfig::paper(1000, 7);
        let mut rt =
            NodeRuntime::new(RuntimeConfig::for_node(0, 100), CountSketchReset::counting(reset, 0));
        let before = rt.protocol().ages().clone();
        assert_eq!(rt.handle(1, &frame(kind, &AGES_2X2)), Ok(None));
        assert_eq!(rt.protocol().ages(), &before, "Count-Sketch-Reset state untouched");

        let mut rt = NodeRuntime::new(
            RuntimeConfig::for_node(0, 100),
            InvertAverage::new(25.0, 0.05, reset, 0),
        );
        let before = rt.protocol().clone();
        assert_eq!(rt.handle(1, &frame(kind, &invert_body)).map(|r| r.is_some()), Ok(false));
        assert_eq!(rt.protocol().counter().ages(), before.counter().ages());
        assert_eq!(
            rt.protocol().avg_estimate().map(f64::to_bits),
            before.avg_estimate().map(f64::to_bits),
            "the mass riding on a dropped frame is lost with it"
        );

        let mut rt = NodeRuntime::new(
            RuntimeConfig::for_node(0, 100),
            CountSketch::counting(SketchConfig::paper(1000, 7), 0),
        );
        let before = rt.protocol().sketch().clone();
        assert_eq!(rt.handle(1, &frame(kind, &PCSA_2X2)), Ok(None));
        assert_eq!(rt.protocol().sketch(), &before, "Sketch-Count state untouched");
    }
}
