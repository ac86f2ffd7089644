//! Fixed-layout byte codec and checksummed artifact framing.
//!
//! The encoding is deliberately boring: little-endian fixed-width
//! integers, length-prefixed strings and sequences, one tag byte per
//! enum/option. There is no schema negotiation — the frame carries a
//! format version, and any mismatch (or any truncation or bit flip,
//! caught by the frame's length and checksum) makes decoding fail
//! cleanly so the caller recomputes instead of trusting a stale or
//! damaged artifact.

/// Magic prefix of every artifact file: "DAR2", the second frame
/// layout of the disengage artifact. The first, "DART", summed the
/// payload with byte-serial FNV-1a; its frames fail [`header_matches`]
/// and recompute.
const MAGIC: [u8; 4] = *b"DAR2";

/// Bytes before the payload: magic, version, payload length, checksum.
pub(crate) const HEADER_LEN: usize = 24;

/// Append-only byte encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    /// Consumes the encoder, returning the raw payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16` little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` (the cast is lossless on all
    /// supported targets).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` by exact bit pattern — decoding reproduces the
    /// value bit for bit, which the byte-identity contract requires.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes an `Option` as a tag byte plus the payload.
    pub fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Enc, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    /// Writes a length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Enc, &T)) {
        self.usize(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Cursor-based decoder over a borrowed payload. Every method returns
/// `Option`: running off the end, an invalid tag, or malformed UTF-8
/// yields `None` and the caller treats the artifact as corrupt.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Upper bound accepted for any length prefix, so a corrupted length
/// fails fast instead of attempting a multi-gigabyte allocation.
const MAX_LEN: u64 = 1 << 32;

impl<'a> Dec<'a> {
    /// A decoder at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Whether the cursor consumed the whole payload (trailing bytes
    /// mean the artifact does not match the expected layout).
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting tags other than 0/1.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a `usize`, bounding the value so corrupted lengths cannot
    /// trigger runaway allocations.
    pub fn usize(&mut self) -> Option<usize> {
        let v = self.u64()?;
        if v > MAX_LEN {
            return None;
        }
        Some(v as usize)
    }

    /// Reads an `f64` by exact bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Reads an `Option` written by [`Enc::opt`].
    pub fn opt<T>(&mut self, mut f: impl FnMut(&mut Dec<'a>) -> Option<T>) -> Option<Option<T>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(f(self)?)),
            _ => None,
        }
    }

    /// Reads a length-prefixed sequence written by [`Enc::seq`].
    pub fn seq<T>(&mut self, mut f: impl FnMut(&mut Dec<'a>) -> Option<T>) -> Option<Vec<T>> {
        let len = self.usize()?;
        // Cap the pre-allocation by what the buffer could possibly
        // hold (each element is at least one byte).
        let mut out = Vec::with_capacity(len.min(self.buf.len() - self.pos));
        for _ in 0..len {
            out.push(f(self)?);
        }
        Some(out)
    }
}

/// Wraps an encoded payload in the on-disk frame:
/// `MAGIC ∥ version ∥ payload_len ∥ checksum(payload) ∥ payload`.
pub fn frame(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Checks a frame's header without reading its payload: the magic, the
/// version, and a declared payload length that leaves the frame exactly
/// `frame_len` bytes long. A frame that passes can still fail
/// [`unframe`]'s checksum.
pub(crate) fn header_matches(version: u32, header: &[u8; HEADER_LEN], frame_len: u64) -> bool {
    let mut dec = Dec::new(header);
    dec.take(4) == Some(&MAGIC[..])
        && dec.u32() == Some(version)
        && dec.u64().and_then(|len| len.checked_add(HEADER_LEN as u64)) == Some(frame_len)
}

/// Validates a frame and returns the payload slice. `None` on any
/// mismatch: wrong magic, wrong version, truncated or over-long body,
/// or checksum failure.
pub fn unframe(version: u32, bytes: &[u8]) -> Option<&[u8]> {
    let (header, payload) = bytes.split_first_chunk::<HEADER_LEN>()?;
    if !header_matches(version, header, bytes.len() as u64) {
        return None;
    }
    let sum = u64::from_le_bytes(*header.last_chunk::<8>()?);
    (checksum(payload) == sum).then_some(payload)
}

/// Multipliers of the checksum's lane round and final mix (odd, so
/// multiplying by one is a bijection of `u64`).
const K1: u64 = 0x9e37_79b1_85eb_ca87;
const K2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// The four lanes' starting states.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Absorbs one 8-byte word into a lane. For a fixed word the step is a
/// bijection of the lane state, and for a fixed state a bijection of
/// the word (add, rotate and odd multiply all are).
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(K2))
        .rotate_left(31)
        .wrapping_mul(K1)
}

/// The frame checksum: little-endian 8-byte words dealt round-robin to
/// four independent lanes (so the lanes' multiplies overlap), the last
/// 1–7 bytes zero-padded into one more word, then the lanes and the
/// payload length folded into one digest.
///
/// Every step is a bijection of the state it updates, so a change
/// confined to one word — in particular any single-byte corruption —
/// changes exactly one lane's final state and therefore the digest.
/// Wider damage is caught with the odds of a 64-bit collision.
fn checksum(payload: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (words, tail) = payload.as_chunks::<8>();
    let (stripes, rest) = words.as_chunks::<4>();
    for stripe in stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe) {
            *lane = round(*lane, u64::from_le_bytes(*word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(rest) {
        *lane = round(*lane, u64::from_le_bytes(*word));
    }
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        lanes[rest.len()] = round(lanes[rest.len()], u64::from_le_bytes(padded));
    }
    let [a, b, c, d] = lanes;
    let mut h = a
        .rotate_left(1)
        .wrapping_add(b.rotate_left(7))
        .wrapping_add(c.rotate_left(12))
        .wrapping_add(d.rotate_left(18));
    // The length tells apart payloads whose zero-padded tails agree.
    h = (h ^ payload.len() as u64).wrapping_mul(K1);
    h ^= h >> 29;
    h = h.wrapping_mul(K2);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.bool(true);
        enc.u16(512);
        enc.u32(70_000);
        enc.u64(1 << 40);
        enc.f64(-0.125);
        enc.str("héllo");
        enc.opt(&Some(3u8), |e, v| e.u8(*v));
        enc.opt(&None::<u8>, |e, v| e.u8(*v));
        enc.seq(&[1u64, 2, 3], |e, v| e.u64(*v));
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8(), Some(7));
        assert_eq!(dec.bool(), Some(true));
        assert_eq!(dec.u16(), Some(512));
        assert_eq!(dec.u32(), Some(70_000));
        assert_eq!(dec.u64(), Some(1 << 40));
        assert_eq!(dec.f64(), Some(-0.125));
        assert_eq!(dec.str().as_deref(), Some("héllo"));
        assert_eq!(dec.opt(|d| d.u8()), Some(Some(3)));
        assert_eq!(dec.opt(|d| d.u8()), Some(None));
        assert_eq!(dec.seq(|d| d.u64()), Some(vec![1, 2, 3]));
        assert!(dec.at_end());
    }

    #[test]
    fn truncation_yields_none_not_panic() {
        let mut enc = Enc::new();
        enc.str("a longer payload string");
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Dec::new(&bytes[..cut]);
            assert!(dec.str().is_none(), "cut at {cut} must fail cleanly");
        }
    }

    #[test]
    fn corrupted_length_is_bounded() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.usize(), None);
    }

    #[test]
    fn frame_round_trip_and_checksum() {
        let payload = b"stage artifact bytes".to_vec();
        let framed = frame(3, &payload);
        assert_eq!(unframe(3, &framed), Some(payload.as_slice()));

        // Version mismatch.
        assert_eq!(unframe(4, &framed), None);

        // Any single bit flip in the body is detected.
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            assert_eq!(unframe(3, &bad), None, "flip at byte {i} undetected");
        }

        // Truncation at every length is detected.
        for cut in 0..framed.len() {
            assert_eq!(unframe(3, &framed[..cut]), None);
        }

        // Trailing garbage is detected.
        let mut long = framed.clone();
        long.push(0);
        assert_eq!(unframe(3, &long), None);
    }

    /// A payload of `n` bytes that differ from their neighbours.
    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn checksum_digests_are_pinned() {
        // Empty, a lone tail byte, three words and a 7-byte tail, one
        // full four-lane stripe, a stripe plus a tail byte, and three
        // stripes plus a word and a 4-byte tail.
        let pinned = [
            (0, 0x5417_2cb1_9908_27e8),
            (1, 0x0c92_2a11_57b5_c443),
            (31, 0x43e4_2ae2_628c_974d),
            (32, 0x3a20_27b9_3bda_d4a4),
            (33, 0xa7eb_e413_2f2f_2aa4),
            (100, 0x778f_dc59_60ef_b730),
        ];
        for (n, digest) in pinned {
            assert_eq!(checksum(&sample(n)), digest, "{n}-byte payload");
        }
    }

    #[test]
    fn every_bit_flip_and_cut_of_a_four_lane_frame_is_rejected() {
        let payload = sample(100);
        let framed = frame(3, &payload);
        assert_eq!(unframe(3, &framed), Some(payload.as_slice()));
        for i in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[i] ^= 1 << bit;
                assert_eq!(unframe(3, &bad), None, "bit {bit} of byte {i} flipped");
            }
        }
        for cut in 0..framed.len() {
            assert_eq!(unframe(3, &framed[..cut]), None, "cut at {cut} undetected");
        }
    }
}
