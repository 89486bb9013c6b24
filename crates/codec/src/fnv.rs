//! FNV-1a (64-bit), the workspace's one non-cryptographic hash.
//!
//! Trace and stats digests, gossip message ids, client idempotency tokens
//! and [`Xoshiro256pp::fork`](crate::rng::Xoshiro256pp::fork) all fold
//! bytes through this hasher, so each of them is a stable function of its
//! input on every platform.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a.
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// A hasher that continues from `state` instead of the offset basis.
    #[must_use]
    pub(crate) const fn with_state(state: u64) -> Self {
        Fnv1a(state)
    }

    /// The FNV-1a hash of `bytes`.
    #[must_use]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write(bytes);
        h.finish()
    }

    /// Folds `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Folds the little-endian bytes of `v` into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current state.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_64_bit_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
