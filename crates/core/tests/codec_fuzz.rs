//! Fuzz suite for the hardened frame codec.
//!
//! The fault-injection subsystem flips bits in encoded frames between
//! encode and decode, so the decoder is a direct attack surface: it must
//! never panic, and every corruption must surface as a *typed* error so
//! the receiver can drop the frame and account for it. These properties
//! are the contract the chaos plans rely on.
//!
//! The world decides a corrupted frame's fate from its flip positions
//! alone ([`codec::FlipVerdict`]'s syndrome table), so that verdict is
//! pinned here against the real encode → flip → decode path and against
//! [`flips_pass_crc`], a table-free oracle.

use ia_core::codec::{self, CodecError, FRAME_CRC_BYTES};
use ia_core::protocol::AdMessage;
use ia_core::{AdId, Advertisement, GossipParams, PeerId};
use ia_des::{SimDuration, SimTime};
use ia_geo::Point;
use proptest::prelude::*;

/// Strategy for arbitrary valid messages (mirrors what protocols emit).
fn arb_message() -> impl Strategy<Value = AdMessage> {
    (
        (
            any::<u32>(),
            any::<u32>(),
            (0.0..10_000.0f64, 0.0..10_000.0f64),
            0u64..10_u64.pow(12),
            1.0..5000.0f64,
        ),
        (
            1u64..10_u64.pow(12),
            proptest::collection::vec(any::<u32>(), 0..8),
            0usize..512,
            proptest::collection::vec(any::<u64>(), 0..20),
            proptest::option::of((any::<u32>(), 1.0..5000.0f64)),
        ),
    )
        .prop_map(
            |((issuer, seq, (x, y), t_us, r0), (d0_us, topics, payload, users, flood))| {
                let params = GossipParams::paper();
                let mut ad = Advertisement::new(
                    AdId::new(PeerId(issuer), seq),
                    Point::new(x, y),
                    SimTime::from_micros(t_us),
                    r0,
                    SimDuration::from_micros(d0_us),
                    topics,
                    payload,
                    &params,
                );
                for u in users {
                    ad.sketches.insert(u);
                }
                match flood {
                    Some((wave, fr)) => AdMessage::flood(ad, wave, fr),
                    None => AdMessage::gossip(ad),
                }
            },
        )
}

proptest! {
    /// Clean frames round-trip bit-exactly.
    #[test]
    fn clean_frame_roundtrips(msg in arb_message()) {
        let frame = codec::encode_frame(&msg);
        prop_assert_eq!(frame.len(),
            codec::message_encoded_len(&msg) + FRAME_CRC_BYTES);
        prop_assert_eq!(codec::decode_frame(&frame).expect("clean frame"), msg);
    }

    /// encode → corrupt → decode either returns a typed error or (when
    /// the flips cancel out and restore the original bytes) round-trips
    /// bit-exactly. Never a panic, never a silently different message.
    #[test]
    fn corrupted_frame_is_error_or_exact(
        msg in arb_message(),
        flips in proptest::collection::vec((any::<u16>(), 0u8..8), 1..12),
    ) {
        let frame = codec::encode_frame(&msg);
        let mut dirty = frame.clone();
        for (pos, bit) in flips {
            let i = pos as usize % dirty.len();
            dirty[i] ^= 1 << bit;
        }
        match codec::decode_frame(&dirty) {
            Err(_) => {} // typed rejection — the normal outcome
            Ok(back) => {
                // Only reachable when every flip was cancelled by a twin.
                prop_assert_eq!(&dirty, &frame, "checksum escape");
                prop_assert_eq!(back, msg);
            }
        }
    }

    /// Arbitrary garbage never panics either decoder entry point.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = codec::decode(&bytes);
        let _ = codec::decode_frame(&bytes);
    }

    /// Truncating a valid frame anywhere yields a typed error.
    #[test]
    fn truncation_is_typed(msg in arb_message(), frac in 0.0..1.0f64) {
        let frame = codec::encode_frame(&msg);
        let cut = ((frame.len() as f64) * frac) as usize;
        let r = codec::decode_frame(&frame[..cut.min(frame.len() - 1)]);
        prop_assert!(matches!(
            r,
            Err(CodecError::Truncated { .. }) | Err(CodecError::ChecksumMismatch { .. })
        ), "got {r:?}");
    }
}

/// The most flips one corrupted frame gets (`MAX_FLIPS` in the
/// experiments crate's scenario module).
const MAX_FLIPS: usize = 64;

/// Flip positions over a frame of `frame_len` bytes from raw draws, in
/// one of five shapes: anywhere; only in the CRC trailer; alternating
/// body and trailer; anywhere with every other position repeated at the
/// end (some pairs cancel); every position repeated (all cancel).
fn flip_positions(frame_len: usize, raw: &[u64], shape: u8) -> Vec<u64> {
    let frame_bits = frame_len as u64 * 8;
    let body_bits = frame_bits - FRAME_CRC_BYTES as u64 * 8;
    let trailer = |r: u64| body_bits + r % (FRAME_CRC_BYTES as u64 * 8);
    let mut bits: Vec<u64> = match shape {
        1 => raw.iter().map(|&r| trailer(r)).collect(),
        2 => raw
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if i % 2 == 0 {
                    r % body_bits
                } else {
                    trailer(r)
                }
            })
            .collect(),
        _ => raw.iter().map(|&r| r % frame_bits).collect(),
    };
    if shape >= 3 {
        bits.truncate(MAX_FLIPS / 2);
        let step = if shape == 3 { 2 } else { 1 };
        let repeats: Vec<u64> = bits.iter().step_by(step).rev().copied().collect();
        bits.extend(repeats);
    }
    bits
}

/// Flip `bits` in `frame`, bit `i` being bit `i % 8` of byte `i / 8`.
fn flip(frame: &mut [u8], bits: &[u64]) {
    for &b in bits {
        frame[(b / 8) as usize] ^= 1 << (b % 8);
    }
}

/// The oracle for [`codec::FlipVerdict`]: would a frame of `frame_len`
/// bytes with `bits` flipped still pass its CRC check? CRC-32 is affine
/// over GF(2), so the flips change a body's CRC by
/// `crc32(e) ^ crc32(0…0)`, `e` being the body's flip pattern; the check
/// passes iff that change equals the flips of the CRC trailer.
fn flips_pass_crc(frame_len: usize, bits: &[u64]) -> bool {
    let body_len = frame_len - FRAME_CRC_BYTES;
    let mut pattern = vec![0u8; frame_len];
    flip(&mut pattern, bits);
    let (body, trailer) = pattern.split_at(body_len);
    let change = codec::crc32(body) ^ codec::crc32(&vec![0; body_len]);
    change == u32::from_le_bytes(trailer.try_into().unwrap())
}

/// Does decoding `frame` with `bits` flipped get past the CRC check?
fn decode_passes_crc(frame: &[u8], bits: &[u64]) -> bool {
    let mut dirty = frame.to_vec();
    flip(&mut dirty, bits);
    !matches!(
        codec::decode_frame(&dirty),
        Err(CodecError::ChecksumMismatch { .. })
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The oracle's verdict equals the frame path's: true iff decoding
    /// the flipped frame gets past the CRC check.
    #[test]
    fn flip_verdict_matches_frame_decode(
        msg in arb_message(),
        raw in proptest::collection::vec(any::<u64>(), 1..MAX_FLIPS + 1),
        shape in 0u8..5,
    ) {
        let frame = codec::encode_frame(&msg);
        let bits = flip_positions(frame.len(), &raw, shape);
        let passes = decode_passes_crc(&frame, &bits);
        prop_assert_eq!(flips_pass_crc(frame.len(), &bits), passes);
        if shape == 4 {
            prop_assert!(passes, "cancelling pairs must restore the frame");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The syndrome-table verdict equals the frame path's and the
    /// oracle's, and passes a crafted CRC escape (body flips plus the
    /// trailer flips equal to the CRC change they cause). One verdict
    /// serves frames of several lengths in turn, so its table is rebuilt
    /// between calls, and back again.
    #[test]
    fn syndrome_verdict_matches_frame_decode(
        frames in proptest::collection::vec(
            (
                arb_message(),
                proptest::collection::vec(any::<u64>(), 1..MAX_FLIPS + 1),
                0u8..5,
            ),
            1..6,
        ),
    ) {
        let mut verdict = codec::FlipVerdict::new();
        for round in 0..2 {
            for (msg, raw, shape) in &frames {
                let frame = codec::encode_frame(msg);
                let shape = (shape + round) % 5;
                let bits = flip_positions(frame.len(), raw, shape);
                let passes = decode_passes_crc(&frame, &bits);
                prop_assert_eq!(verdict.passes(frame.len(), &bits), passes);
                prop_assert_eq!(flips_pass_crc(frame.len(), &bits), passes);

                let body_len = frame.len() - FRAME_CRC_BYTES;
                let body_bits = body_len as u64 * 8;
                let mut escape: Vec<u64> = raw.iter().take(16).map(|&r| r % body_bits).collect();
                let mut dirty = frame.clone();
                flip(&mut dirty, &escape);
                let change = codec::crc32(&dirty[..body_len]) ^ codec::crc32(&frame[..body_len]);
                escape.extend((0..32).filter(|k| change >> k & 1 == 1).map(|k| body_bits + k));
                prop_assert!(decode_passes_crc(&frame, &escape));
                prop_assert!(verdict.passes(frame.len(), &escape));
            }
        }
    }
}

/// A real CRC escape: body flips plus the trailer flips equal to their
/// syndrome. The verdict must pass it, and so must the receiver's CRC
/// check; random flip sets essentially never reach this case.
#[test]
fn crafted_crc_escape_passes_verdict_and_check() {
    let params = GossipParams::paper();
    let ad = Advertisement::new(
        AdId::new(PeerId(4), 2),
        Point::new(1200.0, 800.0),
        SimTime::from_secs(5.0),
        700.0,
        SimDuration::from_secs(600.0),
        vec![1, 5],
        64,
        &params,
    );
    let clean = codec::encode_frame(&AdMessage::gossip(ad));
    let body_len = clean.len() - FRAME_CRC_BYTES;
    let body_bits = body_len as u64 * 8;
    let mut bits = vec![3, 100, 517, body_bits - 1];

    let mut dirty = clean.clone();
    flip(&mut dirty, &bits);
    let trailer = |f: &[u8]| u32::from_le_bytes(f[body_len..].try_into().unwrap());
    // CRC-32 is affine, so the syndrome is the CRC change the flips cause.
    let syndrome = codec::crc32(&dirty[..body_len]) ^ trailer(&clean);
    assert_ne!(syndrome, 0);
    bits.extend(
        (0..32)
            .filter(|k| syndrome >> k & 1 == 1)
            .map(|k| body_bits + k),
    );
    assert!(bits.len() <= MAX_FLIPS);

    let mut escaped = clean.clone();
    flip(&mut escaped, &bits);
    assert_ne!(escaped, clean);
    let mut verdict = codec::FlipVerdict::new();
    assert!(verdict.passes(clean.len(), &bits));
    assert!(flips_pass_crc(clean.len(), &bits));
    assert!(
        decode_passes_crc(&clean, &bits),
        "the crafted frame must get past the CRC check"
    );
    // One trailer flip fewer is caught.
    bits.pop();
    assert!(!verdict.passes(clean.len(), &bits));
    assert!(!flips_pass_crc(clean.len(), &bits));
}

/// A frame whose sketch shape escapes the CRC as one the packed bundle
/// cannot hold (`F = 0`, `F·L > 256`, `L > 56`) decodes to
/// `InvalidField`, never a panic.
#[test]
fn crc_escape_to_an_over_cap_sketch_shape_is_an_invalid_field() {
    let params = GossipParams::paper();
    let ad = Advertisement::new(
        AdId::new(PeerId(4), 2),
        Point::new(1200.0, 800.0),
        SimTime::from_secs(5.0),
        700.0,
        SimDuration::from_secs(600.0),
        vec![1, 5],
        64,
        &params,
    );
    let clean = codec::encode_frame(&AdMessage::gossip(ad));
    let body_len = clean.len() - FRAME_CRC_BYTES;
    let body_bits = body_len as u64 * 8;
    // The 67-byte header, then two topics (a u16 count and two u32s),
    // then the sketch count F and the sketch length L, both 16.
    let f_byte = 67 + 2 + 2 * 4;
    assert_eq!(clean[f_byte..f_byte + 2], [16, 16]);
    let (f_bit, l_bit) = (f_byte as u64 * 8, (f_byte + 1) as u64 * 8);
    // F 16 → 0 and → 17 (272 bits); L 16 → 48 (768 bits) and → 80.
    for flips in [
        vec![f_bit + 4],
        vec![f_bit],
        vec![l_bit + 5],
        vec![l_bit + 6],
    ] {
        let mut dirty = clean.clone();
        flip(&mut dirty, &flips);
        let syndrome = codec::crc32(&dirty[..body_len]) ^ codec::crc32(&clean[..body_len]);
        let mut bits = flips.clone();
        bits.extend(
            (0..32)
                .filter(|k| syndrome >> k & 1 == 1)
                .map(|k| body_bits + k),
        );
        assert!(codec::FlipVerdict::new().passes(clean.len(), &bits));
        let mut escaped = clean.clone();
        flip(&mut escaped, &bits);
        assert_eq!(
            codec::decode_frame(&escaped),
            Err(CodecError::InvalidField("sketch shape")),
            "flips {flips:?}"
        );
    }
}
