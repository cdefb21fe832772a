//! Content fingerprints.
//!
//! The hash reuses [`bytecode::Fnv`] — the same FNV-1a family behind
//! [`bytecode::FuncFacts::block_hashes`], which the stale-profile matcher in
//! [`crate::stale`] already relies on — so every structural fingerprint in
//! the system comes from one hasher.

use bytecode::Fnv;

/// Content hash of a serialized chunk: length-prefixed FNV-1a over the
/// raw bytes. This is the chunk id of the content-addressed package
/// store — two chunks share an id exactly when their bytes are equal
/// (modulo hash collisions; the store additionally keeps a per-chunk
/// CRC-32, so a collision is detected, not silently merged).
pub fn chunk_fingerprint(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.u64(bytes.len() as u64);
    for &b in bytes {
        h.u8(b);
    }
    h.finish()
}
