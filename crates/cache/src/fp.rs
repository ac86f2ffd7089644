//! Stable 64-bit fingerprints via streaming FNV-1a.
//!
//! FNV-1a is not collision-resistant against adversaries, but cache
//! keys here hash trusted configuration (a few dozen fields), not
//! attacker-controlled bulk data, and what matters is *stability*: the
//! same inputs must produce the same fingerprint in every process, on
//! every platform, forever. The algorithm is frozen by its two
//! published constants, so golden fingerprints can be pinned in tests.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A finished fingerprint: a stable 64-bit digest, displayed as 16
/// lowercase hex digits (the on-disk artifact file name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// The 16-digit lowercase hex form used for file names.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl core::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Streaming FNV-1a hasher. Every `write_*` method is
/// self-delimiting (strings and byte slices are length-prefixed), so
/// distinct field sequences cannot collide by concatenation — e.g.
/// `("ab", "c")` and `("a", "bc")` hash differently.
#[derive(Debug, Clone)]
pub struct Fp {
    state: u64,
}

impl Fp {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fp {
        Fp { state: FNV_OFFSET }
    }

    fn byte(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Hashes raw bytes without a length prefix. Prefer the typed
    /// writers, which delimit themselves; this is for digesting one
    /// whole byte string (a golden output) and for the writers' own use.
    pub fn write_raw(&mut self, bytes: &[u8]) -> &mut Fp {
        for &b in bytes {
            self.byte(b);
        }
        self
    }

    /// Hashes a `u8`.
    pub fn write_u8(&mut self, v: u8) -> &mut Fp {
        self.byte(v);
        self
    }

    /// Hashes a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) -> &mut Fp {
        self.byte(v as u8);
        self
    }

    /// Hashes a `u32` little-endian.
    pub fn write_u32(&mut self, v: u32) -> &mut Fp {
        self.write_raw(&v.to_le_bytes())
    }

    /// Hashes a `u64` little-endian.
    pub fn write_u64(&mut self, v: u64) -> &mut Fp {
        self.write_raw(&v.to_le_bytes())
    }

    /// Hashes an `f64` by exact bit pattern (no rounding, `-0.0` and
    /// `0.0` are distinct — a config that flips the sign bit is a
    /// different config).
    pub fn write_f64(&mut self, v: f64) -> &mut Fp {
        self.write_u64(v.to_bits())
    }

    /// Hashes a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) -> &mut Fp {
        self.write_u64(s.len() as u64);
        self.write_raw(s.as_bytes())
    }

    /// Folds a finished sub-fingerprint in (used to chain upstream
    /// artifact fingerprints into downstream stage keys).
    pub fn write_fp(&mut self, fp: Fingerprint) -> &mut Fp {
        self.write_u64(fp.0)
    }

    /// Finishes the digest.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Default for Fp {
    fn default() -> Fp {
        Fp::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference digests for the frozen FNV-1a 64 parameters.
        let raw = |bytes: &[u8]| Fp::new().write_raw(bytes).finish().0;
        assert_eq!(raw(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(raw(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(raw(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let mut a = Fp::new();
        a.write_str("ab").write_str("c");
        let mut b = Fp::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_is_sixteen_zero_padded_digits() {
        let fp = Fingerprint(0x0123_4567_89ab_cdef);
        assert_eq!(fp.to_hex(), "0123456789abcdef");
        assert_eq!(Fingerprint(0xab).to_hex(), "00000000000000ab");
    }

    #[test]
    fn f64_uses_exact_bits() {
        let mut a = Fp::new();
        a.write_f64(0.0);
        let mut b = Fp::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
