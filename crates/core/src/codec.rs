//! Binary wire codec for advertisement messages.
//!
//! The simulator only needs message *sizes*, but a credible release of
//! this system must be able to put an [`AdMessage`] on a real radio.
//! This module defines the canonical little-endian encoding:
//!
//! ```text
//! magic  u16  0xAD5E
//! flags  u8   bit0 = flood info present
//! issuer u32 | seq u32                      (AdId)
//! issue_pos  f64 x2
//! issue_time u64 (micros)
//! initial_radius f64 | initial_duration u64
//! radius f64         | duration u64
//! topics: u16 count, u32 each
//! sketches: u8 F, u8 L, ceil(F*L/8) bit-packed bytes, u64 family seed
//!           (sketch i at bits i*L.., LSB first; F*L <= 256, L <= 56)
//! payload: u32 length, then the content bytes
//! flood info (if flagged): u32 wave, f64 radius
//! ```
//!
//! The simulator carries no actual content, so encoding writes
//! `payload_bytes` zero bytes and decoding recovers only the length —
//! semantically what the protocols need.
//!
//! This module is the single source of truth for message sizes: the
//! traffic accounting in `AdMessage::bytes` delegates to
//! [`message_encoded_len`], built on [`ad_encoded_len`], and a test pins
//! `encode(msg).len() == message_encoded_len(msg)` exactly.

use crate::ad::Advertisement;
use crate::ids::{AdId, PeerId};
use crate::protocol::{AdMessage, FloodInfo};
use ia_des::{SimDuration, SimTime};
use ia_geo::Point;
use ia_sketch::FmBundle;
use std::fmt;

/// Wire-format magic number.
pub const MAGIC: u16 = 0xAD5E;

/// Size of the frame checksum trailer appended by [`encode_frame`].
pub const FRAME_CRC_BYTES: usize = 4;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    Truncated { needed: usize, have: usize },
    /// The magic number did not match.
    BadMagic(u16),
    /// A field held an impossible value.
    InvalidField(&'static str),
    /// The frame checksum trailer did not match the body
    /// ([`decode_frame`] only).
    ChecksumMismatch { expected: u32, found: u32 },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated message: needed {needed} bytes, have {have}")
            }
            CodecError::BadMagic(m) => write!(f, "bad magic 0x{m:04X}"),
            CodecError::InvalidField(name) => write!(f, "invalid field: {name}"),
            CodecError::ChecksumMismatch { expected, found } => write!(
                f,
                "frame checksum mismatch: expected 0x{expected:08X}, found 0x{found:08X}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// Reflected CRC-32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Byte-at-a-time CRC-32 table, built at compile time: entry `i` is the
/// remainder of the 8-bit value `i` shifted through the polynomial.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
///
/// Table-driven, one lookup per byte. Fault-injected runs decide most
/// corrupted frames with a [`FlipVerdict`] and compute this only for
/// the rare flip set that passes it. The codec tests pin it against the
/// bitwise form.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = crc32_step(crc, b);
    }
    !crc
}

/// One byte through the reflected CRC-32 register.
fn crc32_step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize]
}

/// Decides whether bit flips in a frame from [`encode_frame`] get past
/// [`decode_frame`]'s CRC check, from the flip positions alone, without
/// building the frame.
///
/// CRC-32 is affine over GF(2): flipping body bit `b` changes the CRC by
/// a syndrome `S_b` that depends only on `b` and the body length, and
/// flipping trailer bit `j` changes the stored CRC by `1 << j`. So the
/// check still passes iff the XOR of every flip's change is zero. For
/// body bit `i` of the last body byte, `S` is one register step over the
/// byte `1 << i`; each byte further from the end adds one register step
/// `Z` over a zero byte, so `S_b = Z(S_{b+8})` builds the table from the
/// end, 8 entries per body byte.
///
/// The table is kept for the last frame length asked about and rebuilt
/// (in its own buffer) when the length changes. A verdict is then one
/// table read or shift and one XOR per flip. A position listed twice
/// cancels, as on the real frame.
#[derive(Debug, Clone, Default)]
pub struct FlipVerdict {
    /// Frame length the table is for; 0 before the first verdict.
    frame_len: usize,
    /// `syndromes[b]`: the CRC change flipping body bit `b` causes.
    syndromes: Vec<u32>,
}

impl FlipVerdict {
    pub fn new() -> Self {
        FlipVerdict::default()
    }

    /// Would a frame of `frame_len` bytes, with the bits at positions
    /// `bits` flipped (bit `i` is bit `i % 8` of byte `i / 8`), still
    /// pass the CRC check?
    ///
    /// Panics if `frame_len` is shorter than the trailer or a position
    /// lies outside the frame.
    pub fn passes(&mut self, frame_len: usize, bits: &[u64]) -> bool {
        let body_len = frame_len
            .checked_sub(FRAME_CRC_BYTES)
            .expect("frame shorter than its CRC trailer");
        if frame_len != self.frame_len {
            self.rekey(frame_len, body_len);
        }
        let body_bits = body_len as u64 * 8;
        let mut residue = 0u32;
        for &b in bits {
            residue ^= if b < body_bits {
                self.syndromes[b as usize]
            } else {
                assert!(b < frame_len as u64 * 8, "bit {b} outside the frame");
                1 << (b - body_bits)
            };
        }
        residue == 0
    }

    fn rekey(&mut self, frame_len: usize, body_len: usize) {
        self.frame_len = frame_len;
        self.syndromes.clear();
        self.syndromes.resize(body_len * 8, 0);
        for b in (0..body_len * 8).rev() {
            self.syndromes[b] = match self.syndromes.get(b + 8) {
                Some(&later) => crc32_step(later, 0),
                None => CRC32_TABLE[1 << (b % 8)],
            };
        }
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A writer sized for `msg`'s frame, its CRC trailer included.
    fn for_frame(msg: &AdMessage) -> Self {
        Writer {
            buf: Vec::with_capacity(message_encoded_len(msg) + FRAME_CRC_BYTES),
        }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated {
                needed: self.pos + n,
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Encode a message into bytes.
pub fn encode(msg: &AdMessage) -> Vec<u8> {
    let ad = &msg.ad;
    let mut w = Writer::for_frame(msg);
    w.u16(MAGIC);
    w.u8(msg.flood.is_some() as u8);
    w.u32(ad.id.issuer.0);
    w.u32(ad.id.seq);
    w.f64(ad.issue_pos.x);
    w.f64(ad.issue_pos.y);
    w.u64(ad.issue_time.as_micros());
    w.f64(ad.initial_radius);
    w.u64(ad.initial_duration.as_micros());
    w.f64(ad.radius);
    w.u64(ad.duration.as_micros());
    w.u16(ad.topics.len() as u16);
    for &t in ad.topics.iter() {
        w.u32(t);
    }
    // The bundle's memory layout is the wire's: its packed bytes, cut to
    // the `F·L` bits it holds.
    let sketches = &ad.sketches;
    w.u8(sketches.num_sketches() as u8);
    w.u8(sketches.sketch_len());
    let packed = sketches.packed();
    w.buf
        .extend_from_slice(&packed[..sketches.size_bits().div_ceil(8)]);
    w.u64(ad.sketches.family_seed());
    w.u32(ad.payload_bytes as u32);
    w.buf.resize(w.buf.len() + ad.payload_bytes, 0); // opaque content
    if let Some(flood) = msg.flood {
        w.u32(flood.wave);
        w.f64(flood.radius);
    }
    w.buf
}

/// Decode a message from bytes.
pub fn decode(bytes: &[u8]) -> Result<AdMessage, CodecError> {
    let mut r = Reader::new(bytes);
    let magic = r.u16()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let flags = r.u8()?;
    let issuer = PeerId(r.u32()?);
    let seq = r.u32()?;
    let issue_pos = Point::new(r.f64()?, r.f64()?);
    if !issue_pos.is_finite() {
        return Err(CodecError::InvalidField("issue_pos"));
    }
    let issue_time = SimTime::from_micros(r.u64()?);
    let initial_radius = r.f64()?;
    let initial_duration = SimDuration::from_micros(r.u64()?);
    let radius = r.f64()?;
    let duration = SimDuration::from_micros(r.u64()?);
    if !(initial_radius > 0.0 && radius > 0.0 && radius.is_finite()) {
        return Err(CodecError::InvalidField("radius"));
    }
    if initial_duration.is_zero() || duration.is_zero() {
        return Err(CodecError::InvalidField("duration"));
    }
    let n_topics = r.u16()? as usize;
    let mut topics = Vec::with_capacity(n_topics);
    for _ in 0..n_topics {
        topics.push(r.u32()?);
    }
    let f = r.u8()? as usize;
    let l = r.u8()?;
    // Only a shape the packed bundle holds decodes: `F ≥ 1`, `L` in
    // 1..=56 and `F·L ≤ 256` (`FmBundle::fits`).
    if !FmBundle::fits(f, l) {
        return Err(CodecError::InvalidField("sketch shape"));
    }
    let packed = r.take((f * l as usize).div_ceil(8))?;
    let family_seed = r.u64()?;
    let payload_bytes = r.u32()? as usize;
    let _content = r.take(payload_bytes)?;
    let flood = if flags & 1 != 0 {
        Some(FloodInfo {
            wave: r.u32()?,
            radius: r.f64()?,
        })
    } else {
        None
    };

    // The wire state, field for field; the checks above stand in for
    // `Advertisement::new`'s, and topics are normalised as it does.
    topics.sort_unstable();
    topics.dedup();
    let ad = Advertisement {
        id: AdId::new(issuer, seq),
        issue_pos,
        issue_time,
        initial_radius,
        initial_duration,
        radius,
        duration,
        topics: topics.into(),
        payload_bytes,
        sketches: FmBundle::from_packed(family_seed, f, l, packed),
    };
    Ok(AdMessage { ad, flood })
}

/// Encode a message as a checked link-layer frame: the [`encode`] body
/// followed by a little-endian CRC-32 trailer over it.
///
/// The frame check sequence is a *link-layer* concern, so it rides
/// outside [`message_encoded_len`] — traffic accounting (and with it the
/// calibrated airtime/collision thresholds) counts message bodies, the
/// same way byte counts conventionally exclude the 802.11 FCS.
pub fn encode_frame(msg: &AdMessage) -> Vec<u8> {
    let mut buf = encode(msg);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decode a checked frame produced by [`encode_frame`]: verify the CRC-32
/// trailer, then decode the body.
///
/// Any corruption of body or trailer surfaces as a typed error — never a
/// panic — so a receiver can drop the frame and account for it.
pub fn decode_frame(bytes: &[u8]) -> Result<AdMessage, CodecError> {
    if bytes.len() < FRAME_CRC_BYTES {
        return Err(CodecError::Truncated {
            needed: FRAME_CRC_BYTES,
            have: bytes.len(),
        });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - FRAME_CRC_BYTES);
    let found = u32::from_le_bytes(trailer.try_into().unwrap());
    let expected = crc32(body);
    if found != expected {
        return Err(CodecError::ChecksumMismatch { expected, found });
    }
    decode(body)
}

/// Exact encoded size of an advertisement in a gossip message,
/// without allocating.
pub fn ad_encoded_len(ad: &Advertisement) -> usize {
    let fixed = 2 + 1          // magic + flags
        + 8                    // AdId
        + 16                   // issue_pos
        + 8                    // issue_time
        + 8 + 8                // initial radius + duration
        + 8 + 8; // current radius + duration
    let topics = 2 + 4 * ad.topics.len();
    let sketches = 2 + ad.sketches.size_bits().div_ceil(8) + 8;
    let payload = 4 + ad.payload_bytes;
    fixed + topics + sketches + payload
}

/// Exact encoded size of a full message.
pub fn message_encoded_len(msg: &AdMessage) -> usize {
    ad_encoded_len(&msg.ad) + if msg.flood.is_some() { 12 } else { 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interest::UserProfile;
    use crate::params::GossipParams;
    use crate::rank;

    fn sample_ad() -> Advertisement {
        let params = GossipParams::paper();
        let mut ad = Advertisement::new(
            AdId::new(PeerId(3), 7),
            Point::new(2500.0, 1234.5),
            SimTime::from_secs(10.0),
            1000.0,
            SimDuration::from_secs(1800.0),
            vec![2, 9, 4],
            200,
            &params,
        );
        // Populate sketches and enlargement so non-default state survives.
        for uid in 0..25u64 {
            rank::process_interest(&mut ad, &UserProfile::new(uid, vec![2]));
        }
        ad
    }

    #[test]
    fn gossip_roundtrip() {
        let msg = AdMessage::gossip(sample_ad());
        let bytes = encode(&msg);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn flood_roundtrip() {
        let msg = AdMessage::flood(sample_ad(), 42, 987.5);
        let back = decode(&encode(&msg)).expect("decode");
        assert_eq!(back, msg);
        assert_eq!(back.flood.unwrap().wave, 42);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&AdMessage::gossip(sample_ad()));
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(CodecError::BadMagic(_))));
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode(&AdMessage::flood(sample_ad(), 1, 500.0));
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(
                matches!(r, Err(CodecError::Truncated { .. })),
                "cut at {cut} gave {r:?}"
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn corrupted_radius_rejected() {
        let msg = AdMessage::gossip(sample_ad());
        let mut bytes = encode(&msg);
        // radius field: 2 magic + 1 flags + 8 id + 16 pos + 8 time +
        // 8 r0 + 8 d0 = offset 51.
        for b in &mut bytes[51..59] {
            *b = 0;
        }
        assert_eq!(decode(&bytes), Err(CodecError::InvalidField("radius")));
    }

    /// A sketch shape the packed bundle cannot hold is an invalid field,
    /// whatever the F and L bytes say; one it can hold is not.
    #[test]
    fn every_sketch_shape_the_bundle_cannot_hold_is_an_invalid_field() {
        let mut bytes = encode(&AdMessage::gossip(sample_ad()));
        // The 67-byte header and three topics, then F and L.
        let f_byte = 67 + 2 + 3 * 4;
        assert_eq!(bytes[f_byte..f_byte + 2], [16, 16]);
        let shape = Err(CodecError::InvalidField("sketch shape"));
        for f in 0..=u8::MAX {
            for l in 0..=u8::MAX {
                bytes[f_byte] = f;
                bytes[f_byte + 1] = l;
                let fits = FmBundle::fits(f as usize, l);
                assert_eq!(decode(&bytes) == shape, !fits, "{f} x {l}");
            }
        }
    }

    #[test]
    fn encoded_size_is_exact() {
        for msg in [
            AdMessage::gossip(sample_ad()),
            AdMessage::flood(sample_ad(), 3, 800.0),
        ] {
            assert_eq!(encode(&msg).len(), message_encoded_len(&msg));
            // Traffic accounting delegates here, so it is exact too.
            assert_eq!(msg.bytes(), message_encoded_len(&msg));
        }
    }

    #[test]
    fn crc32_matches_ieee_check_value() {
        // The classic CRC-32/IEEE check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_size() {
        let msg = AdMessage::flood(sample_ad(), 2, 700.0);
        let frame = encode_frame(&msg);
        assert_eq!(frame.len(), message_encoded_len(&msg) + FRAME_CRC_BYTES);
        assert_eq!(decode_frame(&frame).expect("decode"), msg);
    }

    /// Known answer: the exact frame of an interest-processed ad, frozen
    /// from the build before the FM bundle kept its bitmaps as plain
    /// `u64`s. Pins the bit-packed sketch bytes and the family seed on
    /// the wire.
    #[test]
    fn frame_bytes_match_reference() {
        let frame = encode_frame(&AdMessage::flood(sample_ad(), 2, 700.0));
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        // Header, topics, sketches, family seed and payload length...
        let head = concat!(
            "5ead010300000007000000000000000088a34000000000004a93408096980000",
            "0000000000000000408f4000d2496b000000001db5246817b49740f746c2a200",
            "000000030002000000040000000900000010101700070007061f007f000f000f",
            "003f007f002f001f007f003f000f008f001f01d0eee50ddc1a0000c8000000",
        );
        // ...then 200 zero content bytes, flood info and the CRC trailer.
        let tail = "020000000000000000e08540490548c4";
        assert_eq!(hex, format!("{head}{}{tail}", "00".repeat(200)));
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let msg = AdMessage::gossip(sample_ad());
        let frame = encode_frame(&msg);
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut dirty = frame.clone();
                dirty[byte] ^= 1 << bit;
                let r = decode_frame(&dirty);
                assert!(
                    matches!(r, Err(CodecError::ChecksumMismatch { .. })),
                    "flip at byte {byte} bit {bit} gave {r:?}"
                );
            }
        }
    }

    #[test]
    fn truncated_frame_is_typed_not_panic() {
        let frame = encode_frame(&AdMessage::gossip(sample_ad()));
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CodecError::Truncated {
                needed: 10,
                have: 3
            }
            .to_string(),
            "truncated message: needed 10 bytes, have 3"
        );
        assert_eq!(CodecError::BadMagic(0xBEEF).to_string(), "bad magic 0xBEEF");
        assert_eq!(
            CodecError::InvalidField("x").to_string(),
            "invalid field: x"
        );
        assert_eq!(
            CodecError::ChecksumMismatch {
                expected: 0xDEADBEEF,
                found: 0
            }
            .to_string(),
            "frame checksum mismatch: expected 0xDEADBEEF, found 0x00000000"
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::params::GossipParams;
    use proptest::prelude::*;

    /// The bitwise CRC-32: eight shift-and-conditional-xor steps per
    /// byte. The oracle for the table-driven [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb != 0 {
                    crc ^= CRC32_POLY;
                }
            }
        }
        !crc
    }

    proptest! {
        /// Arbitrary (valid) messages round-trip exactly.
        #[test]
        fn roundtrip(
            issuer in any::<u32>(),
            seq in any::<u32>(),
            x in 0.0..10_000.0f64,
            y in 0.0..10_000.0f64,
            t_us in 0u64..10_u64.pow(12),
            r0 in 1.0..5000.0f64,
            d0_us in 1u64..10_u64.pow(12),
            topics in proptest::collection::vec(any::<u32>(), 0..10),
            payload in 0usize..512,
            users in proptest::collection::vec(any::<u64>(), 0..30),
            flood in proptest::option::of((any::<u32>(), 1.0..5000.0f64)),
        ) {
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
            let msg = match flood {
                Some((wave, fr)) => AdMessage::flood(ad, wave, fr),
                None => AdMessage::gossip(ad),
            };
            let back = decode(&encode(&msg)).expect("decode");
            prop_assert_eq!(back, msg);
        }

        /// The table-driven CRC-32 equals the bitwise definition.
        #[test]
        fn crc32_table_matches_bitwise(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }

        /// Random garbage never panics the decoder.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
        }
    }
}
