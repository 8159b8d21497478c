//! The workspace's word hasher, for the signature table on the
//! prediction hot path.

use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative word hasher (the rotate-xor-multiply step of FxHash):
/// a handful of cycles per word where std's SipHash costs tens of
/// nanoseconds per key. The table it serves holds job signatures, not
/// attacker-chosen input, so flooding resistance buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

/// Builds [`WordHasher`]s for a `HashMap`.
pub(crate) type WordBuildHasher = BuildHasherDefault<WordHasher>;

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, w: u32) {
        self.write_u64(u64::from(w));
    }

    fn write_i64(&mut self, w: i64) {
        self.write_u64(w as u64);
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits, which a multiply
        // mixes least; rotate the well-mixed middle bits down.
        self.0.rotate_left(26)
    }
}
