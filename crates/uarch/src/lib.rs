//! Micro-architecture simulators.
//!
//! The paper's Fig. 5 reports Jump-Start's steady-state effect as miss-rate
//! reductions on branch prediction, I-cache, I-TLB, D-cache, D-TLB and LLC.
//! Those metrics come from real Broadwell hardware; this crate supplies the
//! simulated stand-ins the executor drives instead:
//!
//! * [`Cache`] — set-associative LRU cache (L1I/L1D/shared LLC) over one
//!   flat array of `sets × ways` tags, indexed by shift and mask; each set
//!   keeps its ways in recency order, with the same outcomes as true LRU
//!   over use ticks,
//! * [`Tlb`] — fully-associative LRU TLB (an [`AddrMap`] from page to slot
//!   plus an intrusive LRU list: O(1) access, and no hashing when the page
//!   is the most recently used one),
//! * [`TlbHierarchy`] — two-level I-TLB with mixed 4 KiB/2 MiB page sizes,
//! * [`BranchPredictor`] — gshare direction predictor plus a 4-way BTB
//!   (recency-ordered sets, like the caches),
//! * [`CoreModel`] — one core's fetch/load/store/branch interface with a
//!   cycle cost model,
//! * [`MissReport`] — snapshotting and comparing miss rates between runs,
//! * [`AddrMap`] — an address-keyed map hashed with one multiply
//!   ([`AddrHasher`]) instead of SipHash, for every map the replay's
//!   per-access path reaches.
//!
//! Addresses are plain `u64`s in a flat simulated address space; the JIT's
//! code cache hands out code addresses and the executor synthesizes data
//! addresses for objects and repo metadata.

mod branch;
mod cache;
mod core_model;
mod hash;
mod metrics;
mod tlb;

pub use branch::BranchPredictor;
pub use cache::{Cache, CacheConfig};
pub use core_model::{CoreModel, CoreParams};
pub use hash::{AddrHasher, AddrMap};
pub use metrics::{AccessStats, MissReport};
pub use tlb::{Tlb, TlbHierarchy, TlbLevel};

/// Seeded address streams shared by the parity tests.
#[cfg(test)]
mod streams {
    /// `n` unit indices (lines or pages) drawn below `span`, in runs: each
    /// index repeats 1–4 times back to back, and one run in eight walks up
    /// to eight consecutive indices. Uniform random streams almost never
    /// repeat a key back to back; these reach every recency fast path.
    pub(crate) fn run_heavy(seed: u64, span: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut out = Vec::with_capacity(n + 32);
        while out.len() < n {
            let r = next();
            let base = r % span;
            let walk = if r >> 61 == 0 { 1 + (r >> 8) % 8 } else { 1 };
            for k in 0..walk {
                let repeats = 1 + (next() >> 11) % 4;
                for _ in 0..repeats {
                    out.push(base + k);
                }
            }
        }
        out.truncate(n);
        out
    }
}
