//! **HHVM Jump-Start** — sharing JIT profile data across VM executions.
//!
//! This crate is the paper's primary contribution (§III–§VI): a practical
//! mechanism for collecting a *profile-data package* on a few seeder
//! servers and reusing it across a large fleet of consumers, so each
//! server starts executing optimized code before serving its first
//! request.
//!
//! * [`ProfilePackage`] / [`PackageMeta`] — the four §IV-B data categories
//!   (repo preload lists, tier-1 JIT profile, optimized-code profile,
//!   precomputed intermediate results like the function order), with a
//!   checksummed binary wire format of exactly one readable version
//!   ([`wire`] errors surface corruption and version skew),
//! * [`build_package`] — the seeder's serialization step (Fig. 3b),
//! * [`consume`] — the consumer workflow (Fig. 3c): deserialize, preload
//!   units, install property orders, then JIT *all* optimized code in
//!   parallel before serving. It is one stage sequence with three
//!   adapters: [`consume`] over a decoded package, [`consume_bytes`] over
//!   sealed bytes (timing the decode into the boot), [`consume_chunked`]
//!   over a [`Manifest`] and a [`ChunkPool`], decoding function records
//!   lazily either side of the serve-ready point. One staged admission
//!   serves every source: each stage lints the records it decodes and
//!   repairs only the flagged ones, so a stale chunked package stays lazy
//!   and boots as its [`reassemble`]d bytes do,
//! * [`Validator`] — seeder-side validation incl. coverage thresholds and
//!   a static profile lint via the `analysis` crate (§VI-A.1, §VI-B),
//! * [`PackageStore`] — multiple randomized packages per (region, bucket)
//!   (§VI-A.2),
//! * [`BootController`] — automatic no-Jump-Start fallback (§VI-A.3).
//!
//! Fault injection for the reliability experiments lives in
//! [`Poison`]: a package can be marked as triggering a compile-time or a
//! latent runtime JIT bug, which is how the §VI scenarios are simulated.

pub mod chunk;
mod config;
mod consumer;
mod crc32;
mod fallback;
mod package;
mod pipeline;
mod seeder;
mod store;
mod validate;
pub mod wire;

pub use chunk::{
    chunk_package, delta_against, reassemble, Chunk, ChunkId, ChunkKind, ChunkPool, ChunkedPackage,
    DeltaReport, LazyLoader, Manifest, ManifestEntry,
};
pub use config::{FuncSort, JumpStartOptions, PropReorder};
pub use consumer::{
    consume, consume_bytes, consume_chunked, ChunkBootStats, ConsumerError, ConsumerOutcome,
};
pub use crc32::crc32;
pub use fallback::{BootController, BootDecision};
pub use package::{Coverage, PackageMeta, Poison, PreloadLists, ProfilePackage};
pub use pipeline::{
    early_serve_prefix_by_heat, BootStats, CacheStats, EarlyServe, TemplateCache, WorkerStats,
};
pub use seeder::{build_package, SeederInputs};
pub use store::{CellDedup, PackageStore, PublishReceipt, StoredPackage};
pub use validate::{ValidationError, ValidationReport, Validator};
