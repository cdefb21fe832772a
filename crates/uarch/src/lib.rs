//! Micro-architecture simulators.
//!
//! The paper's Fig. 5 reports Jump-Start's steady-state effect as miss-rate
//! reductions on branch prediction, I-cache, I-TLB, D-cache, D-TLB and LLC.
//! Those metrics come from real Broadwell hardware; this crate supplies the
//! simulated stand-ins the executor drives instead:
//!
//! * [`Cache`] — set-associative, true-LRU cache (L1I/L1D/shared LLC) over
//!   one flat array of `sets × ways` entries, indexed by shift and mask,
//! * [`Tlb`] — fully-associative LRU TLB (an [`AddrMap`] from page to slot
//!   plus an intrusive LRU list: O(1) access),
//! * [`TlbHierarchy`] — two-level I-TLB with mixed 4 KiB/2 MiB page sizes,
//! * [`BranchPredictor`] — gshare direction predictor plus a 4-way BTB,
//! * [`CoreModel`] — one core's fetch/load/store/branch interface with a
//!   cycle cost model,
//! * [`MissReport`] — snapshotting and comparing miss rates between runs,
//! * [`AddrMap`] / [`AddrSet`] — address-keyed maps hashed with one
//!   multiply ([`AddrHasher`]) instead of SipHash, for every map the
//!   replay's per-access path reaches.
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
pub use hash::{AddrHasher, AddrMap, AddrSet};
pub use metrics::{AccessStats, MissReport};
pub use tlb::{Tlb, TlbHierarchy, TlbLevel};
