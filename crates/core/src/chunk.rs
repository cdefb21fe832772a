//! Content-addressed package chunks: delta distribution + lazy decode.
//!
//! Consecutive releases share most of their function profiles, yet the
//! baseline distribution path re-sends the full [`ProfilePackage`] to
//! every consumer on every push. This module slices the canonical
//! serialized payload into *chunks* keyed by a content hash, so
//!
//! * the store deduplicates identical chunks across pushes (a churn-0.1
//!   release re-uses the unchanged ~90% of function records),
//! * a push ships a small [`Manifest`] plus only the chunks the receiver
//!   does not already hold ([`delta_against`]),
//! * a consumer boot with `early_serve_frac < 1` decodes only the hot
//!   chunks' bytes before serve-start ([`LazyLoader`]), leaving the cold
//!   tail to the background pipeline.
//!
//! The chunk boundaries are the payload's natural record boundaries
//! (see [`ProfilePackage::encoded_len`]): one *head* chunk (meta +
//! preload + function count), one chunk per function record in `FuncId`
//! order, one *tail* chunk (ctx profile, orders).
//! Because chunks are byte slices of the canonical encoding,
//! [`reassemble`] is lossless by construction: concatenating the chunks
//! reproduces the monolithic sealed bytes exactly, which the manifest's
//! payload CRC re-verifies end to end.
//!
//! Chunk ids are length-prefixed FNV-1a ([`analysis::chunk_fingerprint`]
//! — the same hasher family as every structural fingerprint in the
//! system); each chunk additionally carries a CRC-32, so an id collision
//! is detected at reassembly, never silently merged.

use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};

use bytes::Bytes;

use bytecode::FuncId;
use jit::TierProfile;

use crate::crc32::crc32;
use crate::package::{
    self, head_encoded_len, read_func_record, read_head, read_tail, sorted_funcs, PackageMeta,
    PreloadLists, ProfilePackage,
};
use crate::wire::{
    begin_sealed, finish_sealed, unseal, Reader, WireError, Writer, ENVELOPE_LEN, HEADER_LEN,
};

/// Content hash of a chunk's bytes ([`analysis::chunk_fingerprint`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub u64);

impl std::fmt::Display for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// One content-addressed chunk: a byte slice of the canonical payload.
/// The bytes are a zero-copy view of the sealed package buffer.
#[derive(Clone, Debug)]
pub struct Chunk {
    /// Content hash of `bytes`.
    pub id: ChunkId,
    /// The raw payload slice.
    pub bytes: Bytes,
}

/// What a manifest entry describes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkKind {
    /// Package meta + preload lists + function-record count.
    Head,
    /// One function's tier-profile record.
    Func {
        /// The function the record profiles.
        func: FuncId,
        /// Summed block counters — the consumer ranks compile order by
        /// this without decoding the chunk.
        heat: u64,
        /// Every function the record's call-target profile references.
        /// The lazy decoder closes the hot set over these so inline
        /// templates always find their callee profiles decoded.
        callees: Vec<FuncId>,
    },
    /// Ctx profile, prop orders, function order.
    Tail,
}

/// One row of the manifest: identity, length and checksum of a chunk,
/// plus what it holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Content hash of the chunk bytes.
    pub id: ChunkId,
    /// Chunk length in bytes.
    pub len: u32,
    /// CRC-32 of the chunk bytes (collision guard for the FNV id).
    pub crc: u32,
    /// What the chunk holds.
    pub kind: ChunkKind,
}

/// The chunk manifest of one package: everything a consumer needs to
/// fetch, verify, reassemble and *lazily* decode the package.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Region the package was collected in (mirrors the head meta).
    pub region: u32,
    /// Semantic bucket (mirrors the head meta).
    pub bucket: u32,
    /// Seeder that produced the package (mirrors the head meta).
    pub seeder_id: u64,
    /// Collection timestamp (mirrors the head meta).
    pub created_ms: u64,
    /// Function count of the repo the profile was collected against; a
    /// consumer on a different release must fall back to the monolithic
    /// lint-and-repair path instead of lazy decode.
    pub repo_funcs: u32,
    /// Total payload length (sum of all chunk lengths).
    pub payload_len: u32,
    /// CRC-32 of the whole payload — the same checksum the monolithic
    /// envelope carries, re-verified after reassembly.
    pub payload_crc: u32,
    /// Chunks in payload order: head, function records in `FuncId`
    /// order, tail.
    pub entries: Vec<ManifestEntry>,
    /// Indices into `entries` of the function chunks, hottest first
    /// (ties broken by `FuncId`, exactly like
    /// [`TierProfile::heat_ranked`]) — the hot-rank order the lazy
    /// decoder walks.
    pub hot_rank: Vec<u32>,
}

/// Distinguishes a manifest payload from a package payload under the
/// shared envelope magic.
const MANIFEST_TAG: u32 = 0x4d_4e_46_31; // "MNF1"

/// Version of the manifest payload encoding itself.
const MANIFEST_VERSION: u32 = 1;

impl Manifest {
    /// Function-chunk entries as `(entry index, func, heat)`.
    pub fn func_entries(&self) -> impl Iterator<Item = (usize, FuncId, u64)> + '_ {
        self.entries.iter().enumerate().filter_map(|(i, e)| {
            if let ChunkKind::Func { func, heat, .. } = &e.kind {
                Some((i, *func, *heat))
            } else {
                None
            }
        })
    }

    /// The head and tail entries. `entries` is a public field, so a
    /// hand-built manifest can be shorter or differently shaped than
    /// [`Manifest::decode`] allows; every lazy-decode step asks here first.
    pub(crate) fn ends(&self) -> Result<(&ManifestEntry, &ManifestEntry), WireError> {
        match self.entries.as_slice() {
            [head, .., tail] if head.kind == ChunkKind::Head && tail.kind == ChunkKind::Tail => {
                Ok((head, tail))
            }
            _ => Err(WireError::Corrupt(format!(
                "manifest of {} entries has no head and tail",
                self.entries.len()
            ))),
        }
    }

    /// Number of function chunks.
    pub fn func_count(&self) -> usize {
        self.entries.len().saturating_sub(2)
    }

    /// Compile order by descending heat — what
    /// [`TierProfile::functions_by_heat`] would return, available
    /// without decoding a single function chunk.
    pub fn funcs_by_heat(&self) -> Vec<FuncId> {
        self.hot_rank
            .iter()
            .filter_map(|&i| match &self.entries[i as usize].kind {
                ChunkKind::Func { func, .. } => Some(*func),
                _ => None,
            })
            .collect()
    }

    /// Per-function heat, read off the manifest.
    pub fn heat_map(&self) -> HashMap<FuncId, u64> {
        self.func_entries().map(|(_, f, h)| (f, h)).collect()
    }

    /// Fraction of payload bytes a lazy boot decodes before serve-start
    /// at `frac`: head + tail + the early-serve prefix of the hot rank,
    /// closed over callees — priced off the manifest alone, without
    /// touching a single chunk. This is exactly the set
    /// [`LazyLoader::hot_closure`] decodes for the same fraction.
    pub fn early_decode_frac(&self, frac: f64) -> f64 {
        if self.payload_len == 0 {
            return 1.0;
        }
        let order = self.funcs_by_heat();
        let hot_count = crate::pipeline::early_serve_prefix_by_heat(&self.heat_map(), &order, frac);
        let by_func: HashMap<FuncId, usize> = self.func_entries().map(|(i, f, _)| (f, i)).collect();
        let mut seen: HashSet<usize> = HashSet::new();
        let mut stack: Vec<usize> = order[..hot_count]
            .iter()
            .filter_map(|f| by_func.get(f).copied())
            .collect();
        seen.extend(stack.iter().copied());
        while let Some(i) = stack.pop() {
            if let ChunkKind::Func { callees, .. } = &self.entries[i].kind {
                for c in callees {
                    if let Some(&j) = by_func.get(c) {
                        if seen.insert(j) {
                            stack.push(j);
                        }
                    }
                }
            }
        }
        let mut bytes: u64 = seen.iter().map(|&i| self.entries[i].len as u64).sum();
        bytes += self.entries.first().map_or(0, |e| e.len as u64);
        bytes += self.entries.last().map_or(0, |e| e.len as u64);
        (bytes as f64 / self.payload_len as f64).min(1.0)
    }

    /// Exact size [`Manifest::encode`] produces, envelope included.
    pub fn wire_len(&self) -> usize {
        self.encoded_len() + ENVELOPE_LEN
    }

    /// Exact payload size of the encoded manifest, mirroring the writer.
    pub fn encoded_len(&self) -> usize {
        // tag, version, region, bucket, repo_funcs, payload_len,
        // payload_crc (u32) + seeder, created (u64).
        let mut len = 7 * 4 + 2 * 8;
        len += 4; // entry count
        for e in &self.entries {
            len += 1 + 8 + 4 + 4; // kind tag, id, len, crc
            if let ChunkKind::Func { callees, .. } = &e.kind {
                len += 4 + 8 + 4 + 4 * callees.len(); // func, heat, callee seq
            }
        }
        len + 4 + 4 * self.hot_rank.len()
    }

    /// Encodes to the sealed wire format (shared envelope, manifest tag).
    pub fn encode(&self) -> Bytes {
        let payload_len = self.encoded_len();
        let mut w = Writer::with_capacity(payload_len + ENVELOPE_LEN);
        begin_sealed(&mut w, payload_len);
        w.u32(MANIFEST_TAG);
        w.u32(MANIFEST_VERSION);
        w.u32(self.region);
        w.u32(self.bucket);
        w.u64(self.seeder_id);
        w.u64(self.created_ms);
        w.u32(self.repo_funcs);
        w.u32(self.payload_len);
        w.u32(self.payload_crc);
        w.seq(self.entries.len());
        for e in &self.entries {
            match &e.kind {
                ChunkKind::Head => w.u8(0),
                ChunkKind::Func { .. } => w.u8(1),
                ChunkKind::Tail => w.u8(2),
            }
            w.u64(e.id.0);
            w.u32(e.len);
            w.u32(e.crc);
            if let ChunkKind::Func {
                func,
                heat,
                callees,
            } = &e.kind
            {
                w.u32(func.0);
                w.u64(*heat);
                w.seq(callees.len());
                for c in callees {
                    w.u32(c.0);
                }
            }
        }
        w.seq(self.hot_rank.len());
        for &i in &self.hot_rank {
            w.u32(i);
        }
        debug_assert_eq!(
            w.len(),
            payload_len + ENVELOPE_LEN - 4,
            "encoded_len must mirror the writer exactly"
        );
        finish_sealed(w)
    }

    /// Decodes and structurally validates a sealed manifest.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on envelope corruption, version skew, or
    /// any structural violation: wrong chunk-kind shape, duplicate chunk
    /// ids, length totals that disagree with the payload length, or a
    /// hot-rank that is not a permutation of the function chunks.
    pub fn decode(data: &[u8]) -> Result<Manifest, WireError> {
        let payload = unseal(data)?;
        let mut r = Reader::new(payload);
        if r.u32()? != MANIFEST_TAG {
            return Err(WireError::Corrupt("not a chunk manifest".into()));
        }
        let version = r.u32()?;
        if version != MANIFEST_VERSION {
            return Err(WireError::Corrupt(format!(
                "manifest version {version} (supported: {MANIFEST_VERSION})"
            )));
        }
        let region = r.u32()?;
        let bucket = r.u32()?;
        let seeder_id = r.u64()?;
        let created_ms = r.u64()?;
        let repo_funcs = r.u32()?;
        let payload_len = r.u32()?;
        let payload_crc = r.u32()?;
        let n = r.seq()?;
        if n < 2 {
            return Err(WireError::Corrupt(format!("{n} chunk entries")));
        }
        let mut entries = Vec::with_capacity(n.min(1 << 16));
        let mut seen_ids = HashSet::with_capacity(n.min(1 << 16));
        let mut last_func: Option<FuncId> = None;
        let mut len_sum = 0u64;
        for i in 0..n {
            let tag = r.u8()?;
            let id = ChunkId(r.u64()?);
            let len = r.u32()?;
            let crc = r.u32()?;
            let kind = match tag {
                0 if i == 0 => ChunkKind::Head,
                2 if i == n - 1 => ChunkKind::Tail,
                1 if i > 0 && i < n - 1 => {
                    let func = FuncId(r.u32()?);
                    let heat = r.u64()?;
                    let nc = r.seq()?;
                    let mut callees = Vec::with_capacity(nc.min(1 << 12));
                    for _ in 0..nc {
                        callees.push(FuncId(r.u32()?));
                    }
                    // Function records are canonical: strictly ascending
                    // FuncId, so a duplicated function is corruption.
                    package::ascending(&mut last_func, func, "function chunk")?;
                    ChunkKind::Func {
                        func,
                        heat,
                        callees,
                    }
                }
                t => {
                    return Err(WireError::Corrupt(format!(
                        "chunk kind {t} at entry {i}/{n}"
                    )))
                }
            };
            if !seen_ids.insert(id) {
                return Err(WireError::Corrupt(format!("duplicate chunk {id}")));
            }
            len_sum += len as u64;
            entries.push(ManifestEntry { id, len, crc, kind });
        }
        if len_sum != payload_len as u64 {
            return Err(WireError::Corrupt(format!(
                "chunk lengths sum to {len_sum}, payload is {payload_len}"
            )));
        }
        let nr = r.seq()?;
        if nr != n - 2 {
            return Err(WireError::Corrupt(format!(
                "hot-rank of {nr} over {} function chunks",
                n - 2
            )));
        }
        let mut hot_rank = Vec::with_capacity(nr.min(1 << 16));
        let mut seen_rank = HashSet::with_capacity(nr.min(1 << 16));
        for _ in 0..nr {
            let i = r.u32()?;
            let is_func = entries
                .get(i as usize)
                .is_some_and(|e| matches!(e.kind, ChunkKind::Func { .. }));
            if !is_func || !seen_rank.insert(i) {
                return Err(WireError::Corrupt(format!("hot-rank index {i}")));
            }
            hot_rank.push(i);
        }
        if r.remaining() != 0 {
            return Err(WireError::Corrupt(format!(
                "{} trailing manifest bytes",
                r.remaining()
            )));
        }
        Ok(Manifest {
            region,
            bucket,
            seeder_id,
            created_ms,
            repo_funcs,
            payload_len,
            payload_crc,
            entries,
            hot_rank,
        })
    }
}

/// A package split into chunks, plus the monolithic sealed bytes the
/// chunks were sliced from (all zero-copy views of one buffer).
#[derive(Clone, Debug)]
pub struct ChunkedPackage {
    /// The manifest describing the chunks.
    pub manifest: Manifest,
    /// Chunks parallel to `manifest.entries`.
    pub chunks: Vec<Chunk>,
    /// The monolithic sealed encoding (envelope included).
    pub sealed: Bytes,
}

/// Splits a package into content-addressed chunks at its record
/// boundaries. `repo_funcs` is the function count of the repo the
/// profile was collected against (the lazy-decode release guard).
///
/// The chunks are byte slices of the canonical [`ProfilePackage::serialize`]
/// output, so reassembling them reproduces the monolithic encoding
/// byte for byte.
pub fn chunk_package(pkg: &ProfilePackage, repo_funcs: usize) -> ChunkedPackage {
    let sealed = pkg.serialize();
    let payload_len = sealed.len() - ENVELOPE_LEN;
    let _span = telemetry::span!("package-chunk", "bytes" => payload_len);
    // `serialize` just sealed the payload's CRC into the envelope trailer.
    let trailer = sealed
        .last_chunk()
        .expect("a sealed envelope ends in its CRC");
    let payload_crc = u32::from_le_bytes(*trailer);

    let funcs = sorted_funcs(&pkg.tier);
    let refs = package::hash_refs(&pkg.tier);
    let mut entries = Vec::with_capacity(funcs.len() + 2);
    let mut chunks = Vec::with_capacity(funcs.len() + 2);
    let mut pos = HEADER_LEN;
    let mut push = |pos: &mut usize, len: usize, kind: ChunkKind| {
        let bytes = sealed.slice(*pos..*pos + len);
        *pos += len;
        let id = ChunkId(analysis::chunk_fingerprint(&bytes));
        entries.push(ManifestEntry {
            id,
            len: len as u32,
            crc: crc32(&bytes),
            kind,
        });
        chunks.push(Chunk { id, bytes });
    };

    push(&mut pos, head_encoded_len(pkg), ChunkKind::Head);
    let mut rank: Vec<(u64, FuncId, u32)> = Vec::with_capacity(funcs.len());
    for (f, p) in funcs {
        let heat: u64 = p.block_counts.iter().sum();
        let mut callees: Vec<FuncId> = p.call_targets().iter().map(|&((_, f), _)| f).collect();
        callees.sort_unstable();
        callees.dedup();
        // Entry index of this function chunk: head + funcs pushed so far.
        rank.push((heat, *f, (1 + rank.len()) as u32));
        push(
            &mut pos,
            package::func_record_len(p, &refs),
            ChunkKind::Func {
                func: *f,
                heat,
                callees,
            },
        );
    }
    push(&mut pos, package::tail_encoded_len(pkg), ChunkKind::Tail);
    debug_assert_eq!(
        pos,
        HEADER_LEN + payload_len,
        "chunk boundaries must tile the payload exactly"
    );

    // Hottest first, FuncId tie-break — identical to heat_ranked().
    rank.sort_by_key(|&(heat, f, _)| (std::cmp::Reverse(heat), f));
    let hot_rank = rank.into_iter().map(|(_, _, i)| i).collect();

    ChunkedPackage {
        manifest: Manifest {
            region: pkg.meta.region,
            bucket: pkg.meta.bucket,
            seeder_id: pkg.meta.seeder_id,
            created_ms: pkg.meta.created_ms,
            repo_funcs: repo_funcs as u32,
            payload_len: payload_len as u32,
            payload_crc,
            entries,
            hot_rank,
        },
        chunks,
        sealed,
    }
}

/// A content-addressed pool of chunks, keyed by chunk id. The values are
/// shared [`Bytes`] views, so a pool holding every chunk of ten pushes
/// that share 90% of their records costs ~one package of backing memory.
#[derive(Clone, Debug, Default)]
pub struct ChunkPool {
    map: HashMap<ChunkId, Bytes>,
}

impl ChunkPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a chunk; returns `false` when the id was already present
    /// (the bytes are deduplicated — first insert wins).
    pub fn insert(&mut self, chunk: &Chunk) -> bool {
        match self.map.entry(chunk.id) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(chunk.bytes.clone());
                true
            }
        }
    }

    /// The chunk bytes for `id`, if pooled.
    pub fn get(&self, id: ChunkId) -> Option<&Bytes> {
        self.map.get(&id)
    }

    /// Whether `id` is pooled.
    pub fn contains(&self, id: ChunkId) -> bool {
        self.map.contains_key(&id)
    }

    /// Number of distinct chunks pooled.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total distinct bytes pooled.
    pub fn total_bytes(&self) -> u64 {
        self.map.values().map(|b| b.len() as u64).sum()
    }
}

/// Looks up, verifies and returns one chunk from a pool.
fn fetch_verified<'p>(pool: &'p ChunkPool, e: &ManifestEntry) -> Result<&'p Bytes, WireError> {
    let bytes = pool
        .get(e.id)
        .ok_or_else(|| WireError::Corrupt(format!("dangling chunk {}", e.id)))?;
    if bytes.len() != e.len as usize {
        return Err(WireError::Corrupt(format!(
            "chunk {} is {} bytes, manifest says {}",
            e.id,
            bytes.len(),
            e.len
        )));
    }
    let crc = crc32(bytes);
    if crc != e.crc {
        return Err(WireError::BadChecksum {
            expected: e.crc,
            found: crc,
        });
    }
    Ok(bytes)
}

/// Reassembles the monolithic sealed package from pooled chunks.
///
/// The output is byte-identical to the [`ProfilePackage::serialize`]
/// encoding the chunks were sliced from: every chunk is CRC-verified,
/// and the concatenated payload must match the manifest's whole-payload
/// CRC.
///
/// # Errors
///
/// Returns a [`WireError`] when a chunk is missing from the pool
/// (dangling id), a chunk's bytes disagree with the manifest, or the
/// reassembled payload fails the package checksum.
pub fn reassemble(man: &Manifest, pool: &ChunkPool) -> Result<Bytes, WireError> {
    let payload_len = man.payload_len as usize;
    let mut w = Writer::with_capacity(payload_len + ENVELOPE_LEN);
    begin_sealed(&mut w, payload_len);
    for e in &man.entries {
        w.raw(fetch_verified(pool, e)?);
    }
    let crc = crc32(&w.as_slice()[HEADER_LEN..]);
    if crc != man.payload_crc {
        return Err(WireError::BadChecksum {
            expected: man.payload_crc,
            found: crc,
        });
    }
    Ok(finish_sealed(w))
}

/// What a delta push against a receiver's chunk cache would send.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Chunks in the package.
    pub chunks_total: usize,
    /// Chunks the receiver lacked (shipped).
    pub chunks_sent: usize,
    /// Chunks served from the receiver's cache.
    pub chunks_reused: usize,
    /// Total payload bytes across all chunks.
    pub bytes_total: u64,
    /// Bytes shipped (the missing chunks).
    pub bytes_sent: u64,
    /// Bytes served from cache.
    pub bytes_reused: u64,
    /// Encoded manifest size — always shipped.
    pub manifest_bytes: u64,
}

impl DeltaReport {
    /// Bytes on the wire: manifest plus missing chunks.
    pub fn wire_bytes(&self) -> u64 {
        self.manifest_bytes + self.bytes_sent
    }

    /// Bytes the full (non-chunked) push would send: the monolithic
    /// sealed package.
    pub fn full_bytes(&self) -> u64 {
        self.bytes_total + ENVELOPE_LEN as u64
    }

    /// Wire bytes as a fraction of the full push (< 1.0 is a win).
    pub fn wire_ratio(&self) -> f64 {
        if self.full_bytes() == 0 {
            return 1.0;
        }
        self.wire_bytes() as f64 / self.full_bytes() as f64
    }
}

/// Computes the delta a push of `man` would ship to a receiver that
/// already holds `have` (e.g. the previous release's chunks).
pub fn delta_against(man: &Manifest, have: &ChunkPool) -> DeltaReport {
    let mut d = DeltaReport {
        chunks_total: man.entries.len(),
        manifest_bytes: man.wire_len() as u64,
        ..Default::default()
    };
    for e in &man.entries {
        d.bytes_total += e.len as u64;
        if have.contains(e.id) {
            d.chunks_reused += 1;
            d.bytes_reused += e.len as u64;
        } else {
            d.chunks_sent += 1;
            d.bytes_sent += e.len as u64;
        }
    }
    d
}

/// Chunk-granular lazy decoder: decodes head, tail and any subset of
/// function chunks into a [`TierProfile`], touching only those chunks'
/// bytes. The consumer's early-serve boot decodes the hot closure before
/// serve-start and leaves the rest to the background stage.
pub struct LazyLoader<'a> {
    man: &'a Manifest,
    pool: &'a ChunkPool,
    /// Function → entry index, for closure walks.
    by_func: HashMap<FuncId, usize>,
    /// The decoded head chunk, fetched and verified once on first use.
    /// Function records are id-free, so decoding any of them needs the
    /// head's directory for callee-hash resolution.
    head: OnceCell<(PackageMeta, PreloadLists, package::FuncDirectory)>,
}

impl<'a> LazyLoader<'a> {
    /// Creates a loader over a manifest and a pool holding its chunks.
    pub fn new(man: &'a Manifest, pool: &'a ChunkPool) -> Self {
        let by_func = man.func_entries().map(|(i, f, _)| (f, i)).collect();
        Self {
            man,
            pool,
            by_func,
            head: OnceCell::new(),
        }
    }

    /// The decoded head, fetching and verifying the head chunk on first
    /// use.
    fn head(&self) -> Result<&(PackageMeta, PreloadLists, package::FuncDirectory), WireError> {
        if let Some(h) = self.head.get() {
            return Ok(h);
        }
        let bytes = fetch_verified(self.pool, self.man.ends()?.0)?;
        let mut r = Reader::new(bytes);
        let head = read_head(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Corrupt("trailing bytes in head chunk".into()));
        }
        if head.2.len() != self.man.func_count() {
            return Err(WireError::Corrupt(format!(
                "head says {} function records, manifest has {}",
                head.2.len(),
                self.man.func_count()
            )));
        }
        Ok(self.head.get_or_init(|| head))
    }

    /// The manifest this loader decodes.
    pub fn manifest(&self) -> &Manifest {
        self.man
    }

    /// Entry index of `func`'s chunk, if the package profiles it.
    pub fn entry_of(&self, func: FuncId) -> Option<usize> {
        self.by_func.get(&func).copied()
    }

    /// Decodes the head chunk: meta, preload lists, function count.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the chunk is missing, corrupt, or
    /// disagrees with the manifest (function count mismatch).
    pub fn decode_head(&self) -> Result<(PackageMeta, PreloadLists), WireError> {
        let (meta, preload, _) = self.head()?;
        Ok((*meta, preload.clone()))
    }

    /// Decodes the tail chunk: the ctx profile and order lists.
    ///
    /// `_tier` is unused, since the tail carries no tier-wide table (every
    /// property access is recorded at its site, in a function chunk); the
    /// parameter is kept because the `jsbench` benchmark calls this
    /// function with it.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when the chunk is missing or corrupt.
    pub fn decode_tail(&self, _tier: &mut TierProfile) -> Result<package::TailParts, WireError> {
        let bytes = fetch_verified(self.pool, self.man.ends()?.1)?;
        let mut r = Reader::new(bytes);
        let parts = read_tail(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Corrupt("trailing bytes in tail chunk".into()));
        }
        Ok(parts)
    }

    /// Decodes the function chunks at `entry_idxs` into `tier`,
    /// returning the chunk bytes touched. Chunks already decoded into
    /// `tier` are skipped.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] when a chunk is missing, corrupt, or its
    /// record's function id disagrees with the manifest.
    pub fn decode_funcs(
        &self,
        entry_idxs: &[usize],
        tier: &mut TierProfile,
    ) -> Result<u64, WireError> {
        let mut touched = 0u64;
        for &i in entry_idxs {
            let e = &self.man.entries[i];
            let ChunkKind::Func { func, .. } = e.kind else {
                return Err(WireError::Corrupt(format!("entry {i} is not a function")));
            };
            if tier.funcs.contains_key(&func) {
                continue;
            }
            let dir = &self.head()?.2;
            let bytes = fetch_verified(self.pool, e)?;
            let mut r = Reader::new(bytes);
            let p = read_func_record(&mut r, dir)?;
            // Records are id-free: the chunk's identity is cross-checked
            // against the head directory at its record position (entry 0
            // is the head, so record index = entry index - 1).
            let ri = i - 1;
            if r.remaining() != 0
                || dir.ids.get(ri) != Some(&func)
                || dir.hashes.get(ri) != Some(&p.name_hash)
            {
                return Err(WireError::Corrupt(format!(
                    "function chunk {} does not hold {func:?}",
                    e.id
                )));
            }
            touched += bytes.len() as u64;
            tier.funcs.insert(func, p);
        }
        tier.mark_counters_dirty();
        Ok(touched)
    }

    /// The hot decode set: entry indices of `hot` plus every function
    /// transitively reachable through the manifest's callee lists.
    /// Inline templates read callee profiles out of the tier during
    /// translation, so compiling the hot set against a partial tier is
    /// only sound once this closure is decoded.
    pub fn hot_closure(&self, hot: impl IntoIterator<Item = FuncId>) -> Vec<usize> {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut stack: Vec<usize> = hot.into_iter().filter_map(|f| self.entry_of(f)).collect();
        for &i in &stack {
            seen.insert(i);
        }
        while let Some(i) = stack.pop() {
            if let ChunkKind::Func { callees, .. } = &self.man.entries[i].kind {
                for c in callees {
                    if let Some(j) = self.entry_of(*c) {
                        if seen.insert(j) {
                            stack.push(j);
                        }
                    }
                }
            }
        }
        let mut out: Vec<usize> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Every function-chunk entry index, in payload order.
    pub fn all_func_entries(&self) -> Vec<usize> {
        self.man.func_entries().map(|(i, _, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::Poison;

    fn sample() -> ProfilePackage {
        let src = r#"
            class C { public $a = 1; public $b = 2; }
            function leaf($x) { return $x + 1; }
            function mid($x) { return leaf($x) * 2; }
            function main($n) {
                $o = new C();
                $s = $o->a;
                for ($i = 0; $i < $n; $i++) { $s += mid($i) + $o->b; }
                return $s;
            }
        "#;
        let repo = hackc::compile_unit("chunk.hl", src).unwrap();
        let f = repo.func_by_name("main").unwrap().id;
        let mut vm = vm::Vm::new(&repo);
        let mut col = jit::ProfileCollector::new(&repo);
        for _ in 0..3 {
            vm.call_observed(f, &[vm::Value::Int(12)], &mut col)
                .unwrap();
            col.end_request();
        }
        let (tier, ctx) = col.finish();
        ProfilePackage {
            meta: crate::package::PackageMeta {
                region: 1,
                bucket: 2,
                seeder_id: 7,
                created_ms: 99,
                ..Default::default()
            },
            preload: PreloadLists {
                unit_order: vm.loader().load_order(),
            },
            tier,
            ctx,
            prop_orders: vec![],
            func_order: vec![f],
        }
    }

    #[test]
    fn chunks_tile_the_payload_and_reassemble_byte_identically() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        assert_eq!(cp.chunks.len(), cp.manifest.entries.len());
        assert!(cp.manifest.func_count() >= 3);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        let sealed = reassemble(&cp.manifest, &pool).unwrap();
        assert_eq!(sealed, cp.sealed);
        assert_eq!(sealed, pkg.serialize());
        // The manifest's CRC, read off the trailer, covers the payload.
        let payload = &sealed[HEADER_LEN..sealed.len() - 4];
        assert_eq!(cp.manifest.payload_crc, crc32(payload));
        // The reassembled bytes decode to the original package.
        assert_eq!(ProfilePackage::deserialize(&sealed).unwrap(), pkg);
    }

    #[test]
    fn chunk_ids_are_content_addressed() {
        let pkg = sample();
        let a = chunk_package(&pkg, 64);
        let b = chunk_package(&pkg, 64);
        // Same content, same ids.
        for (x, y) in a.chunks.iter().zip(&b.chunks) {
            assert_eq!(x.id, y.id);
        }
        // A changed function changes exactly the chunks that cover it
        // (and the head stays shared).
        let mut pkg2 = pkg.clone();
        let hot = *pkg2.tier.funcs.keys().next().unwrap();
        pkg2.tier.funcs.get_mut(&hot).unwrap().enter_count += 1;
        let c = chunk_package(&pkg2, 64);
        let ids_a: HashSet<ChunkId> = a.chunks.iter().map(|c| c.id).collect();
        let changed: usize = c.chunks.iter().filter(|ch| !ids_a.contains(&ch.id)).count();
        assert_eq!(changed, 1, "one mutated record, one new chunk");
    }

    #[test]
    fn manifest_round_trips() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        let enc = cp.manifest.encode();
        assert_eq!(enc.len(), cp.manifest.wire_len());
        let back = Manifest::decode(&enc).unwrap();
        assert_eq!(back, cp.manifest);
    }

    #[test]
    fn manifest_hot_rank_matches_heat_ranked() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        assert_eq!(cp.manifest.funcs_by_heat(), pkg.tier.functions_by_heat());
    }

    #[test]
    fn delta_between_identical_packages_ships_manifest_only() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        let d = delta_against(&cp.manifest, &pool);
        assert_eq!(d.chunks_sent, 0);
        assert_eq!(d.bytes_sent, 0);
        assert_eq!(d.wire_bytes(), cp.manifest.wire_len() as u64);
        assert!(d.wire_ratio() < 0.5);

        // Against an empty cache, everything ships.
        let d0 = delta_against(&cp.manifest, &ChunkPool::new());
        assert_eq!(d0.chunks_sent, cp.chunks.len());
        assert_eq!(d0.bytes_sent + ENVELOPE_LEN as u64, d0.full_bytes());
    }

    #[test]
    fn pool_deduplicates_identical_chunks() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        let mut pool = ChunkPool::new();
        let first: usize = cp.chunks.iter().map(|c| pool.insert(c) as usize).sum();
        assert_eq!(first, cp.chunks.len());
        let second: usize = cp.chunks.iter().map(|c| pool.insert(c) as usize).sum();
        assert_eq!(second, 0, "re-publish inserts nothing");
        assert_eq!(pool.total_bytes(), cp.manifest.payload_len as u64);
    }

    #[test]
    fn lazy_loader_decodes_subsets_that_agree_with_full_decode() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        let loader = LazyLoader::new(&cp.manifest, &pool);
        let (meta, preload) = loader.decode_head().unwrap();
        assert_eq!(meta, pkg.meta);
        assert_eq!(preload, pkg.preload);

        let mut tier = TierProfile::default();
        let (ctx, prop_orders, func_order) = loader.decode_tail(&mut tier).unwrap();
        assert_eq!(ctx, pkg.ctx);
        assert_eq!(prop_orders, pkg.prop_orders);
        assert_eq!(func_order, pkg.func_order);

        // Decode one hot function + its closure, then the rest; the
        // final tier must equal the monolithic decode.
        let hottest = cp.manifest.funcs_by_heat()[0];
        let hot = loader.hot_closure([hottest]);
        assert!(!hot.is_empty());
        let hot_bytes = loader.decode_funcs(&hot, &mut tier).unwrap();
        assert!(hot_bytes > 0);
        assert_eq!(
            tier.funcs.len(),
            hot.len(),
            "only the closure is decoded before serve"
        );
        let all = loader.all_func_entries();
        loader.decode_funcs(&all, &mut tier).unwrap();
        assert_eq!(tier, pkg.tier);
    }

    #[test]
    fn hot_closure_includes_transitive_callees() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        let loader = LazyLoader::new(&cp.manifest, &pool);
        // main → mid → leaf: seeding with just main must close over both.
        let main = pkg.func_order[0];
        let closure = loader.hot_closure([main]);
        assert!(
            closure.len() >= 3,
            "closure {closure:?} must reach mid and leaf"
        );
    }

    #[test]
    fn reassembly_rejects_dangling_and_corrupt_chunks() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        // Dangling: drop one chunk.
        let victim = cp.chunks[1].id;
        let mut partial = ChunkPool::new();
        for c in cp.chunks.iter().filter(|c| c.id != victim) {
            partial.insert(c);
        }
        assert!(matches!(
            reassemble(&cp.manifest, &partial),
            Err(WireError::Corrupt(_))
        ));
        // Corrupt: replace a chunk's bytes under its id.
        let mut bad = pool.clone();
        let mut v = cp.chunks[1].bytes.to_vec();
        v[0] ^= 0x5a;
        bad.map.insert(victim, Bytes::from(v));
        assert!(matches!(
            reassemble(&cp.manifest, &bad),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn func_chunks_survive_funcid_renumbering() {
        // A new release renumbers FuncIds wholesale (inserted/reordered
        // units). Records are id-free, so every unchanged function's
        // chunk id must survive the renumbering — this is what makes a
        // churned consecutive push a small delta instead of a full ship.
        let pkg = sample();
        let shift = |f: FuncId| FuncId(f.0 + 500);
        let mut pkg2 = pkg.clone();
        pkg2.tier.funcs = pkg
            .tier
            .funcs
            .iter()
            .map(|(f, p)| {
                let mut p = p.clone();
                p.remap_callees(shift);
                (shift(*f), p)
            })
            .collect();
        pkg2.func_order = pkg.func_order.iter().map(|f| shift(*f)).collect();

        let a = chunk_package(&pkg, 64);
        let b = chunk_package(&pkg2, 64);
        let func_ids = |cp: &ChunkedPackage| -> HashSet<ChunkId> {
            cp.chunks
                .iter()
                .zip(&cp.manifest.entries)
                .filter(|(_, e)| matches!(e.kind, ChunkKind::Func { .. }))
                .map(|(c, _)| c.id)
                .collect()
        };
        assert_eq!(
            func_ids(&a),
            func_ids(&b),
            "renumbering FuncIds must not change one function chunk"
        );
        // The renumbered package still reassembles and decodes exactly.
        let mut pool = ChunkPool::new();
        for c in &b.chunks {
            pool.insert(c);
        }
        let sealed = reassemble(&b.manifest, &pool).unwrap();
        assert_eq!(ProfilePackage::deserialize(&sealed).unwrap(), pkg2);
    }

    #[test]
    fn manifest_rejects_truncation_at_every_length() {
        let pkg = sample();
        let enc = chunk_package(&pkg, 64).manifest.encode();
        for len in 0..enc.len() {
            assert!(
                Manifest::decode(&enc[..len]).is_err(),
                "truncated manifest at {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn manifest_rejects_version_skew() {
        let pkg = sample();
        let enc = chunk_package(&pkg, 64).manifest.encode();

        // Any envelope version but the current one: rejected at unseal.
        let mut old = enc.to_vec();
        old[8..12].copy_from_slice(&(crate::wire::VERSION - 1).to_le_bytes());
        assert!(matches!(
            Manifest::decode(&old),
            Err(WireError::BadVersion { .. })
        ));

        // A future manifest payload version: structurally rejected (the
        // payload crc must be rewritten so the skew survives the envelope).
        let mut skew = enc.to_vec();
        let ver_at = HEADER_LEN + 4; // after the manifest tag
        skew[ver_at..ver_at + 4].copy_from_slice(&(MANIFEST_VERSION + 1).to_le_bytes());
        let crc = crc32(&skew[HEADER_LEN..skew.len() - 4]);
        let n = skew.len();
        skew[n - 4..].copy_from_slice(&crc.to_le_bytes());
        match Manifest::decode(&skew) {
            Err(WireError::Corrupt(msg)) => {
                assert!(msg.contains("version"), "unexpected error: {msg}")
            }
            other => panic!("future manifest version accepted: {other:?}"),
        }

        // A package payload is not a manifest (wrong leading tag).
        assert!(matches!(
            Manifest::decode(&pkg.serialize()),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn manifest_rejects_duplicate_and_reordered_chunks() {
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);

        // Duplicate chunk id: copy a function entry over its neighbor.
        let mut dup = cp.manifest.clone();
        dup.entries[2] = dup.entries[1].clone();
        if let ChunkKind::Func { func, .. } = &mut dup.entries[2].kind {
            // Keep ids strictly ascending so the duplicate-id check (not
            // the order check) is what must fire.
            *func = FuncId(func.0 + 1);
        }
        dup.payload_len = dup.entries.iter().map(|e| e.len).sum();
        match Manifest::decode(&dup.encode()) {
            Err(WireError::Corrupt(msg)) => {
                assert!(msg.contains("duplicate"), "unexpected error: {msg}")
            }
            other => panic!("duplicate chunk id accepted: {other:?}"),
        }

        // Function chunks out of FuncId order.
        let mut swapped = cp.manifest.clone();
        swapped.entries.swap(1, 2);
        assert!(matches!(
            Manifest::decode(&swapped.encode()),
            Err(WireError::Corrupt(_))
        ));

        // Chunk lengths that disagree with the payload length.
        let mut short = cp.manifest.clone();
        short.entries[1].len -= 1;
        assert!(matches!(
            Manifest::decode(&short.encode()),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn lazy_decode_rejects_head_record_mismatch() {
        // A chunk that CRC-verifies but sits at the wrong record position
        // is caught by the head-directory cross-check.
        let pkg = sample();
        let cp = chunk_package(&pkg, 64);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        // Swap two function entries' ids in a doctored manifest so entry
        // 1 points at entry 2's (valid, CRC-clean) chunk.
        let mut man = cp.manifest.clone();
        let (id1, id2) = (man.entries[1].id, man.entries[2].id);
        let (len1, len2) = (man.entries[1].len, man.entries[2].len);
        let (crc1, crc2) = (man.entries[1].crc, man.entries[2].crc);
        man.entries[1].id = id2;
        man.entries[1].len = len2;
        man.entries[1].crc = crc2;
        man.entries[2].id = id1;
        man.entries[2].len = len1;
        man.entries[2].crc = crc1;
        let loader = LazyLoader::new(&man, &pool);
        let mut tier = TierProfile::default();
        assert!(
            loader.decode_funcs(&[1], &mut tier).is_err(),
            "record/manifest mismatch must be rejected"
        );
    }

    #[test]
    fn short_manifests_are_corrupt_not_a_panic() {
        // `Manifest::decode` refuses fewer than two entries, but the
        // fields are public: a hand-built one must not index out of range.
        let cp = chunk_package(&sample(), 64);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        for keep in [0, 1] {
            let mut man = cp.manifest.clone();
            man.entries.truncate(keep);
            let loader = LazyLoader::new(&man, &pool);
            assert!(matches!(loader.decode_head(), Err(WireError::Corrupt(_))));
            assert!(matches!(
                loader.decode_tail(&mut TierProfile::default()),
                Err(WireError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn empty_package_chunks_to_head_and_tail_only() {
        let pkg = ProfilePackage {
            meta: crate::package::PackageMeta {
                poison: Poison::RuntimeCrash { per_mille: 3 },
                ..Default::default()
            },
            ..Default::default()
        };
        let cp = chunk_package(&pkg, 0);
        assert_eq!(cp.chunks.len(), 2);
        assert!(cp.manifest.hot_rank.is_empty());
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        assert_eq!(reassemble(&cp.manifest, &pool).unwrap(), pkg.serialize());
        let man = Manifest::decode(&cp.manifest.encode()).unwrap();
        assert_eq!(man, cp.manifest);
    }
}
