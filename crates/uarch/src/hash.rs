//! A multiplicative hasher for address-keyed maps.
//!
//! The replay looks up simulated addresses (TLB pages, interpreter branch
//! sites) hundreds of times per request. Those keys are not chosen by
//! an adversary, so SipHash's flooding resistance buys nothing there and
//! costs most of each lookup. One multiply by an odd constant mixes the key
//! into the high bits; `finish` rotates them down, because the table picks
//! buckets with the low bits.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the golden-ratio constant).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative hasher for integer keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct AddrHasher(u64);

impl AddrHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `HashMap` keyed by simulated addresses, hashed with [`AddrHasher`].
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = AddrHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Stub and line addresses are 8- or 64-byte aligned; their hashes
        // must still fill every low-bit bucket of a small table.
        let mut seen = [false; 64];
        for i in 0..1024u64 {
            seen[(hash_of(0xd000_0000 + i * 64) & 63) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some of 64 buckets stayed empty");
    }
}
