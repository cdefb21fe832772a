//! The profile-data package: contents and serialization (paper §IV-B).

use std::collections::{HashMap, HashSet};

use bytes::Bytes;

use bytecode::{ClassId, FuncId, StrId, UnitId};
use jit::{BranchCount, CtxProfile, FuncProfile, InlineCtx, TierProfile, TypeDist};
use vm::ValueKind;

use crate::wire::{
    begin_sealed, finish_sealed, unseal, unseal_shared, Reader, WireError, Writer, ENVELOPE_LEN,
};

/// Fault-injection marker for the §VI reliability experiments: a package
/// whose profile data triggers a JIT bug.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Poison {
    /// Healthy package.
    #[default]
    None,
    /// Deterministically crashes JIT compilation — validation (§VI-A.1)
    /// must catch this class.
    CompileCrash,
    /// Latent bug: compiles fine, but each consumer boot crashes with
    /// probability `per_mille`/1000 — the class that can slip through
    /// validation and that randomized selection (§VI-A.2) contains.
    RuntimeCrash {
        /// Crash probability in 1/1000 units.
        per_mille: u16,
    },
}

/// Profile coverage, checked against thresholds before publication
/// (§VI-B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Functions with any profile data.
    pub funcs_profiled: u64,
    /// Total block-counter mass.
    pub counter_mass: u64,
    /// Requests observed while profiling.
    pub requests: u64,
}

/// Package identification and provenance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PackageMeta {
    /// Data-center region the profile was collected in.
    pub region: u32,
    /// Semantic bucket (§II-C).
    pub bucket: u32,
    /// Which seeder produced it.
    pub seeder_id: u64,
    /// Collection timestamp (simulated ms).
    pub created_ms: u64,
    /// Coverage counters.
    pub coverage: Coverage,
    /// Fault-injection marker (always `None` in healthy operation).
    pub poison: Poison,
}

/// Repo global data to preload before compiling (§IV-B category 1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PreloadLists {
    /// Units in the order a warmed server loaded them.
    pub unit_order: Vec<UnitId>,
}

/// The complete Jump-Start package.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfilePackage {
    /// Provenance and coverage.
    pub meta: PackageMeta,
    /// Category 1: preload lists.
    pub preload: PreloadLists,
    /// Category 2: tier-1 JIT profile data.
    pub tier: TierProfile,
    /// Category 3: profile data from instrumented optimized code.
    pub ctx: CtxProfile,
    /// Category 4a (intermediate result): per-class physical property
    /// orders (own layer only), from §V-C.
    pub prop_orders: Vec<(ClassId, Vec<StrId>)>,
    /// Category 4b (intermediate result): the function-sorting order, from
    /// §V-B, computed on the seeder.
    pub func_order: Vec<FuncId>,
}

impl ProfilePackage {
    /// Serializes to the sealed wire format. The exact encoded size is
    /// computed up front ([`ProfilePackage::encoded_len`]) and the
    /// envelope is written inline, so the whole package lands in one
    /// exactly-sized buffer: no payload copy, no reallocation.
    pub fn serialize(&self) -> Bytes {
        let payload_len = self.encoded_len();
        let _span = telemetry::span!("package-serialize", "bytes" => payload_len + ENVELOPE_LEN);
        let mut w = Writer::with_capacity(payload_len + ENVELOPE_LEN);
        begin_sealed(&mut w, payload_len);
        let funcs = sorted_funcs(&self.tier);
        let refs = hash_refs(&self.tier);
        write_head(&mut w, self, &funcs);
        for (_, p) in funcs {
            write_func_record(&mut w, p, &refs);
        }
        write_tail(&mut w, self);
        debug_assert_eq!(
            w.len(),
            payload_len + ENVELOPE_LEN - 4,
            "encoded_len must mirror the writers exactly"
        );
        finish_sealed(w)
    }

    /// Exact payload size [`ProfilePackage::serialize`] will produce
    /// (excluding the envelope), mirroring the writers field for field.
    ///
    /// The payload is the concatenation of three regions — head (meta +
    /// preload + function count), one record per profiled function in
    /// `FuncId` order, and the tail (property counters, ctx profile,
    /// orders) — which is exactly how [`crate::chunk`] slices it into
    /// content-addressed chunks.
    pub fn encoded_len(&self) -> usize {
        let mut len = head_encoded_len(self);
        let refs = hash_refs(&self.tier);
        for p in self.tier.funcs.values() {
            len += func_record_len(p, &refs);
        }
        len + tail_encoded_len(self)
    }

    /// Deserializes from the sealed wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on any corruption; never panics.
    pub fn deserialize(data: &[u8]) -> Result<ProfilePackage, WireError> {
        decode_payload(&mut Reader::new(unseal(data)?))
    }

    /// Deserializes from shared bytes (a stored package): the payload is
    /// accessed as a zero-copy slice of `data`'s backing allocation —
    /// no intermediate payload `Vec`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on any corruption; never panics.
    pub fn deserialize_shared(data: &Bytes) -> Result<ProfilePackage, WireError> {
        decode_payload(&mut Reader::new_shared(&unseal_shared(data)?))
    }

    /// Exact serialized size in bytes without serializing.
    pub fn approx_size(&self) -> usize {
        self.encoded_len() + ENVELOPE_LEN
    }

    /// The profile as the static linter sees it.
    pub(crate) fn view(&self) -> analysis::ProfileView<'_> {
        analysis::ProfileView {
            tier: &self.tier,
            ctx: &self.ctx,
            unit_order: &self.preload.unit_order,
            prop_orders: &self.prop_orders,
            func_order: &self.func_order,
        }
    }
}

fn decode_payload(r: &mut Reader<'_>) -> Result<ProfilePackage, WireError> {
    let mut tier = TierProfile::default();
    let (meta, preload, dir) = read_head(r)?;
    for i in 0..dir.len() {
        let p = read_func_record(r, &dir)?;
        if p.name_hash != dir.hashes[i] {
            return Err(WireError::Corrupt(format!(
                "record {i} name hash {:#018x} disagrees with the head directory",
                p.name_hash
            )));
        }
        tier.funcs.insert(dir.ids[i], p);
    }
    let (ctx, prop_orders, func_order) = read_tail(r, &mut tier)?;
    if r.remaining() != 0 {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes",
            r.remaining()
        )));
    }
    Ok(ProfilePackage {
        meta,
        preload,
        tier,
        ctx,
        prop_orders,
        func_order,
    })
}

/// The tier's functions in `FuncId` order — the canonical record order of
/// the payload's function region (and the chunk order of
/// [`crate::chunk::chunk_package`]).
pub(crate) fn sorted_funcs(tier: &TierProfile) -> Vec<(&FuncId, &FuncProfile)> {
    let mut funcs: Vec<_> = tier.funcs.iter().collect();
    funcs.sort_by_key(|(f, _)| **f);
    funcs
}

/// Function-identity directory of the payload head: the per-record
/// `FuncId`s in payload order, plus name-hash → `FuncId` resolution for
/// the id-free call-target references inside function records.
///
/// Function records deliberately carry no raw `FuncId`s (see
/// [`write_func_record`]): a new release renumbers functions wholesale
/// when units are inserted or reordered, so any raw id embedded in a
/// record would change its bytes — and therefore its content-addressed
/// chunk ([`crate::chunk`]) — even though the profile itself is
/// unchanged. Identity lives here in the head, which every push ships
/// anyway.
#[derive(Debug, Default)]
pub(crate) struct FuncDirectory {
    /// Record-order `FuncId`s (strictly ascending — the payload's
    /// function-record order).
    pub ids: Vec<FuncId>,
    /// Name hashes parallel to `ids`.
    pub hashes: Vec<u64>,
    /// Resolution map over the usable (nonzero, unambiguous) hashes.
    by_hash: HashMap<u64, FuncId>,
}

impl FuncDirectory {
    /// Builds the directory from `(id, name_hash)` pairs in record order.
    pub fn new(pairs: Vec<(FuncId, u64)>) -> Self {
        let by_hash = usable_hashes(pairs.iter().copied());
        let (ids, hashes) = pairs.into_iter().unzip();
        Self {
            ids,
            hashes,
            by_hash,
        }
    }

    /// Number of function records in the payload.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Resolves a callee name hash back to this package's `FuncId`.
    pub fn resolve(&self, hash: u64) -> Option<FuncId> {
        self.by_hash.get(&hash).copied()
    }
}

/// The hash → id map over hashes usable as record references: nonzero
/// and unique across the package's functions. Zero (an unset hash) and
/// duplicated hashes fall back to raw-id encoding on the write side, so
/// both sides must agree on exactly this set.
fn usable_hashes(pairs: impl Iterator<Item = (FuncId, u64)>) -> HashMap<u64, FuncId> {
    let mut map: HashMap<u64, FuncId> = HashMap::new();
    let mut dup: HashSet<u64> = HashSet::new();
    for (f, h) in pairs {
        if h == 0 {
            continue;
        }
        if map.insert(h, f).is_some() {
            dup.insert(h);
        }
    }
    for h in &dup {
        map.remove(h);
    }
    map
}

/// Write-side view of which callees can be referenced by name hash —
/// the exact inverse of [`FuncDirectory::resolve`] over the same tier.
pub(crate) struct HashRefs {
    by_id: HashMap<FuncId, u64>,
}

impl HashRefs {
    /// The reference hash for `f`, if it is hash-encodable.
    fn hash_of(&self, f: FuncId) -> Option<u64> {
        self.by_id.get(&f).copied()
    }
}

/// Builds the write-side hash-reference view of a tier.
pub(crate) fn hash_refs(tier: &TierProfile) -> HashRefs {
    let usable = usable_hashes(tier.funcs.iter().map(|(f, p)| (*f, p.name_hash)));
    HashRefs {
        by_id: usable.into_iter().map(|(h, f)| (f, h)).collect(),
    }
}

/// Writes the payload head: package meta, preload lists, the count of
/// function records that follow, and the function-identity directory
/// ([`FuncDirectory`]) in record order.
pub(crate) fn write_head(w: &mut Writer, pkg: &ProfilePackage, funcs: &[(&FuncId, &FuncProfile)]) {
    w.u32(pkg.meta.region);
    w.u32(pkg.meta.bucket);
    w.u64(pkg.meta.seeder_id);
    w.u64(pkg.meta.created_ms);
    w.u64(pkg.meta.coverage.funcs_profiled);
    w.u64(pkg.meta.coverage.counter_mass);
    w.u64(pkg.meta.coverage.requests);
    match pkg.meta.poison {
        Poison::None => w.u8(0),
        Poison::CompileCrash => w.u8(1),
        Poison::RuntimeCrash { per_mille } => {
            w.u8(2);
            w.u32(per_mille as u32);
        }
    }
    w.seq(pkg.preload.unit_order.len());
    for u in &pkg.preload.unit_order {
        w.u32(u.0);
    }
    w.seq(funcs.len());
    for (f, p) in funcs {
        w.u32(f.0);
        w.u64(p.name_hash);
    }
}

/// Exact encoded size of the payload head, mirroring [`write_head`].
pub(crate) fn head_encoded_len(pkg: &ProfilePackage) -> usize {
    // meta: region, bucket (u32) + seeder, created, 3×coverage (u64).
    let mut len = 4 + 4 + 5 * 8;
    len += match pkg.meta.poison {
        Poison::RuntimeCrash { .. } => 1 + 4,
        _ => 1,
    };
    len += 4 + 4 * pkg.preload.unit_order.len();
    len += 4; // function-record count
    len + (4 + 8) * pkg.tier.funcs.len() // function-identity directory
}

/// Reads the payload head back: meta, preload, and the
/// function-identity directory.
pub(crate) fn read_head(
    r: &mut Reader<'_>,
) -> Result<(PackageMeta, PreloadLists, FuncDirectory), WireError> {
    let mut meta = PackageMeta {
        region: r.u32()?,
        bucket: r.u32()?,
        seeder_id: r.u64()?,
        created_ms: r.u64()?,
        coverage: Coverage {
            funcs_profiled: r.u64()?,
            counter_mass: r.u64()?,
            requests: r.u64()?,
        },
        poison: Poison::None,
    };
    meta.poison = match r.u8()? {
        0 => Poison::None,
        1 => Poison::CompileCrash,
        2 => Poison::RuntimeCrash {
            per_mille: r.u32()? as u16,
        },
        t => return Err(WireError::Corrupt(format!("poison tag {t}"))),
    };
    let n = r.seq()?;
    let mut unit_order = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        unit_order.push(UnitId(r.u32()?));
    }
    let nfuncs = r.seq()?;
    let mut pairs = Vec::with_capacity(nfuncs.min(1 << 20));
    for _ in 0..nfuncs {
        let f = FuncId(r.u32()?);
        pairs.push((f, r.u64()?));
    }
    if !pairs.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(WireError::Corrupt("function directory out of order".into()));
    }
    Ok((meta, PreloadLists { unit_order }, FuncDirectory::new(pairs)))
}

/// Writes the payload tail: tier-level property counters, the ctx
/// profile, property orders and the function order.
pub(crate) fn write_tail(w: &mut Writer, pkg: &ProfilePackage) {
    let mut counts: Vec<_> = pkg.tier.prop_counts.iter().collect();
    counts.sort_by_key(|((c, p), _)| (*c, *p));
    w.seq(counts.len());
    for ((c, p), n) in counts {
        w.u32(c.0);
        w.u32(p.0);
        w.u64(*n);
    }
    let mut pairs: Vec<_> = pkg.tier.prop_pairs.iter().collect();
    pairs.sort_by_key(|((c, a, b), _)| (*c, *a, *b));
    w.seq(pairs.len());
    for ((c, a, b), n) in pairs {
        w.u32(c.0);
        w.u32(a.0);
        w.u32(b.0);
        w.u64(*n);
    }
    write_ctx(w, &pkg.ctx);
    w.seq(pkg.prop_orders.len());
    for (c, order) in &pkg.prop_orders {
        w.u32(c.0);
        w.seq(order.len());
        for s in order {
            w.u32(s.0);
        }
    }
    w.seq(pkg.func_order.len());
    for f in &pkg.func_order {
        w.u32(f.0);
    }
}

/// Exact encoded size of the payload tail, mirroring [`write_tail`].
pub(crate) fn tail_encoded_len(pkg: &ProfilePackage) -> usize {
    let mut len = 4 + (4 + 4 + 8) * pkg.tier.prop_counts.len();
    len += 4 + (4 + 4 + 4 + 8) * pkg.tier.prop_pairs.len();
    len += ctx_encoded_len(&pkg.ctx);
    len += 4;
    for (_, order) in &pkg.prop_orders {
        len += 4 + 4 + 4 * order.len();
    }
    len + 4 + 4 * pkg.func_order.len()
}

/// The non-function parts decoded from the payload tail: ctx profile,
/// property orders, function order.
pub(crate) type TailParts = (CtxProfile, Vec<(ClassId, Vec<StrId>)>, Vec<FuncId>);

/// Reads the payload tail back, filling `tier`'s property counters and
/// returning the remaining package parts.
pub(crate) fn read_tail(
    r: &mut Reader<'_>,
    tier: &mut TierProfile,
) -> Result<TailParts, WireError> {
    let n = r.seq()?;
    for _ in 0..n {
        let c = ClassId(r.u32()?);
        let p = StrId(r.u32()?);
        tier.prop_counts.insert((c, p), r.u64()?);
    }
    let n = r.seq()?;
    for _ in 0..n {
        let c = ClassId(r.u32()?);
        let a = StrId(r.u32()?);
        let b = StrId(r.u32()?);
        tier.prop_pairs.insert((c, a, b), r.u64()?);
    }
    let ctx = read_ctx(r)?;
    let n = r.seq()?;
    let mut prop_orders = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let c = ClassId(r.u32()?);
        let m = r.seq()?;
        let mut order = Vec::with_capacity(m.min(1 << 12));
        for _ in 0..m {
            order.push(StrId(r.u32()?));
        }
        prop_orders.push((c, order));
    }
    let n = r.seq()?;
    let mut func_order = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        func_order.push(FuncId(r.u32()?));
    }
    Ok((ctx, prop_orders, func_order))
}

/// Exact encoded size of one function record, mirroring
/// [`write_func_record`] — the chunk length of that function's chunk.
pub(crate) fn func_record_len(p: &FuncProfile, refs: &HashRefs) -> usize {
    let mut len = 8 + 8; // enter_count, name_hash
    len += 4 + 8 * p.block_counts.len();
    len += 4 + 8 * p.block_hashes.len();
    len += 4 + 8 * p.block_opcode_hashes.len();
    len += 4;
    for targets in p.call_targets.values() {
        len += 4 + 4; // site, target count
        for f2 in targets.keys() {
            // tag + (name hash | raw id) + count
            len += 1 + if refs.hash_of(*f2).is_some() { 8 } else { 4 } + 8;
        }
    }
    len += 4 + (4 + 1 + 8 * ValueKind::ALL.len()) * p.types.len();
    len += 4;
    for classes in p.prop_site_classes.values() {
        len += 4 + 4 + (4 + 8) * classes.len();
    }
    len
}

/// Exact encoded size of the ctx-profile section, mirroring
/// [`write_ctx`].
fn ctx_encoded_len(ctx: &CtxProfile) -> usize {
    fn ictx_len(ictx: &InlineCtx) -> usize {
        match ictx {
            None => 1,
            Some(_) => 1 + 4 + 4,
        }
    }
    let mut len = 4;
    for (ictx, _, _) in ctx.branches.keys() {
        len += ictx_len(ictx) + 4 + 4 + 8 + 8;
    }
    len += 4;
    for (ictx, _) in ctx.entries.keys() {
        len += ictx_len(ictx) + 4 + 8;
    }
    len
}

/// Writes one function's tier-profile record. Records are
/// self-delimiting ([`func_record_len`]) and deliberately id-free: the
/// function's identity lives in the head directory and call targets are
/// referenced by callee *name hash* (with a raw-id fallback for refs the
/// package cannot hash), so an unchanged profile encodes to
/// byte-identical — and therefore chunk-identical — bytes even when a
/// release renumbers every `FuncId`. One record is exactly one
/// content-addressed chunk.
pub(crate) fn write_func_record(w: &mut Writer, p: &FuncProfile, refs: &HashRefs) {
    w.u64(p.enter_count);
    w.u64(p.name_hash);
    for v in [&p.block_counts, &p.block_hashes, &p.block_opcode_hashes] {
        w.seq(v.len());
        for &x in v {
            w.u64(x);
        }
    }
    let mut sites: Vec<_> = p.call_targets.iter().collect();
    sites.sort_by_key(|(s, _)| **s);
    w.seq(sites.len());
    for (s, targets) in sites {
        w.u32(*s);
        // Hash-keyed refs first (sorted by hash), raw-id fallbacks after
        // (sorted by id) — a deterministic order that does not depend on
        // the release's FuncId numbering.
        let mut ts: Vec<(u8, u64, u64)> = targets
            .iter()
            .map(|(f2, c)| match refs.hash_of(*f2) {
                Some(h) => (0u8, h, *c),
                None => (1u8, f2.0 as u64, *c),
            })
            .collect();
        ts.sort_unstable();
        w.seq(ts.len());
        for (tag, key, c) in ts {
            w.u8(tag);
            match tag {
                0 => w.u64(key),
                _ => w.u32(key as u32),
            }
            w.u64(c);
        }
    }
    let mut types: Vec<_> = p.types.iter().collect();
    types.sort_by_key(|((at, slot), _)| (*at, *slot));
    w.seq(types.len());
    for ((at, slot), dist) in types {
        w.u32(*at);
        w.u8(*slot);
        for &c in dist.counts() {
            w.u64(c);
        }
    }
    let mut props: Vec<_> = p.prop_site_classes.iter().collect();
    props.sort_by_key(|(at, _)| **at);
    w.seq(props.len());
    for (at, classes) in props {
        w.u32(*at);
        let mut cs: Vec<_> = classes.iter().collect();
        cs.sort_by_key(|(c, _)| **c);
        w.seq(cs.len());
        for (c, n) in cs {
            w.u32(c.0);
            w.u64(*n);
        }
    }
}

/// Reads one function's tier-profile record back, resolving
/// hash-keyed call-target references through the head directory. The
/// record's own `FuncId` comes from the directory position (monolithic
/// decode) or the manifest entry (lazy decode), not the record bytes.
pub(crate) fn read_func_record(
    r: &mut Reader<'_>,
    dir: &FuncDirectory,
) -> Result<FuncProfile, WireError> {
    let mut p = FuncProfile {
        enter_count: r.u64()?,
        name_hash: r.u64()?,
        ..Default::default()
    };
    for v in [
        &mut p.block_counts,
        &mut p.block_hashes,
        &mut p.block_opcode_hashes,
    ] {
        let n = r.seq()?;
        v.reserve(n.min(1 << 16));
        for _ in 0..n {
            v.push(r.u64()?);
        }
    }
    let ns = r.seq()?;
    for _ in 0..ns {
        let site = r.u32()?;
        let nt = r.seq()?;
        let mut targets = HashMap::with_capacity(nt.min(1 << 10));
        for _ in 0..nt {
            let callee = match r.u8()? {
                0 => {
                    let h = r.u64()?;
                    dir.resolve(h).ok_or_else(|| {
                        WireError::Corrupt(format!("unresolvable callee hash {h:#018x}"))
                    })?
                }
                1 => FuncId(r.u32()?),
                t => return Err(WireError::Corrupt(format!("callee ref tag {t}"))),
            };
            targets.insert(callee, r.u64()?);
        }
        p.call_targets.insert(site, targets);
    }
    let ny = r.seq()?;
    for _ in 0..ny {
        let at = r.u32()?;
        let slot = r.u8()?;
        let mut dist = TypeDist::default();
        for kind in ValueKind::ALL {
            let c = r.u64()?;
            dist.add_raw(kind, c);
        }
        p.types.insert((at, slot), dist);
    }
    let np = r.seq()?;
    for _ in 0..np {
        let at = r.u32()?;
        let nc = r.seq()?;
        let mut classes = HashMap::with_capacity(nc.min(1 << 10));
        for _ in 0..nc {
            let c = ClassId(r.u32()?);
            classes.insert(c, r.u64()?);
        }
        p.prop_site_classes.insert(at, classes);
    }
    Ok(p)
}

fn write_ctx(w: &mut Writer, ctx: &CtxProfile) {
    let mut branches: Vec<_> = ctx.branches.iter().collect();
    branches.sort_by_key(|(k, _)| **k);
    w.seq(branches.len());
    for ((ictx, f, at), b) in branches {
        write_inline_ctx(w, *ictx);
        w.u32(f.0);
        w.u32(*at);
        w.u64(b.taken);
        w.u64(b.not_taken);
    }
    let mut entries: Vec<_> = ctx.entries.iter().collect();
    entries.sort_by_key(|(k, _)| **k);
    w.seq(entries.len());
    for ((ictx, f), n) in entries {
        write_inline_ctx(w, *ictx);
        w.u32(f.0);
        w.u64(*n);
    }
}

fn read_ctx(r: &mut Reader<'_>) -> Result<CtxProfile, WireError> {
    let mut ctx = CtxProfile::default();
    let n = r.seq()?;
    for _ in 0..n {
        let ictx = read_inline_ctx(r)?;
        let f = FuncId(r.u32()?);
        let at = r.u32()?;
        let b = BranchCount {
            taken: r.u64()?,
            not_taken: r.u64()?,
        };
        ctx.branches.insert((ictx, f, at), b);
    }
    let n = r.seq()?;
    for _ in 0..n {
        let ictx = read_inline_ctx(r)?;
        let f = FuncId(r.u32()?);
        ctx.entries.insert((ictx, f), r.u64()?);
    }
    Ok(ctx)
}

fn write_inline_ctx(w: &mut Writer, ctx: InlineCtx) {
    match ctx {
        None => w.u8(0),
        Some((f, at)) => {
            w.u8(1);
            w.u32(f.0);
            w.u32(at);
        }
    }
}

fn read_inline_ctx(r: &mut Reader<'_>) -> Result<InlineCtx, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let f = FuncId(r.u32()?);
            let at = r.u32()?;
            Ok(Some((f, at)))
        }
        t => Err(WireError::Corrupt(format!("inline-ctx tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit::ProfileCollector;
    use vm::{Value, Vm};

    fn sample_package() -> ProfilePackage {
        let src = r#"
            class C { public $a = 1; public $b = 2; }
            function helper($f) { if ($f) { return 1; } return 2; }
            function main($n) {
                $o = new C();
                $s = $o->a;
                for ($i = 0; $i < $n; $i++) {
                    $s = $s + helper($i % 2) + $o->b;
                }
                return $s;
            }
        "#;
        let repo = hackc::compile_unit("p.hl", src).unwrap();
        let f = repo.func_by_name("main").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        for _ in 0..3 {
            vm.call_observed(f, &[Value::Int(20)], &mut col).unwrap();
            col.end_request();
        }
        let c = repo.class_by_name("C").unwrap().id;
        let a = repo.str_id("a").unwrap();
        let b = repo.str_id("b").unwrap();
        ProfilePackage {
            meta: PackageMeta {
                region: 3,
                bucket: 7,
                seeder_id: 42,
                created_ms: 1234,
                coverage: Coverage {
                    funcs_profiled: col.tier.profiled_count() as u64,
                    counter_mass: col.tier.total_counter_mass(),
                    requests: 3,
                },
                poison: Poison::None,
            },
            preload: PreloadLists {
                unit_order: vm.loader().load_order(),
            },
            tier: col.tier,
            ctx: col.ctx,
            prop_orders: vec![(c, vec![b, a])],
            func_order: vec![f],
        }
    }

    #[test]
    fn package_round_trips_exactly() {
        let pkg = sample_package();
        let bytes = pkg.serialize();
        let back = ProfilePackage::deserialize(&bytes).unwrap();
        assert_eq!(pkg, back);
    }

    #[test]
    fn serialization_is_deterministic() {
        let pkg = sample_package();
        assert_eq!(pkg.serialize(), pkg.serialize());
    }

    #[test]
    fn encoded_len_is_exact_and_stable() {
        for pkg in [sample_package(), ProfilePackage::default()] {
            let bytes = pkg.serialize();
            assert_eq!(bytes.len(), pkg.encoded_len() + ENVELOPE_LEN);
            assert_eq!(pkg.approx_size(), bytes.len());
            // Stability: round-tripping must not change the encoded size.
            let back = ProfilePackage::deserialize(&bytes).unwrap();
            assert_eq!(back.encoded_len(), pkg.encoded_len());
            assert_eq!(back.serialize(), bytes);
        }
    }

    #[test]
    fn func_records_round_trip_at_their_exact_length() {
        let pkg = sample_package();
        let refs = hash_refs(&pkg.tier);
        let dir = FuncDirectory::new(
            sorted_funcs(&pkg.tier)
                .iter()
                .map(|(f, p)| (**f, p.name_hash))
                .collect(),
        );
        // A collector-built profile, and a hand-built one with no opcode
        // hashes.
        let full = pkg.tier.funcs[&pkg.func_order[0]].clone();
        assert!(!full.block_opcode_hashes.is_empty() && !full.call_targets.is_empty());
        let bare = FuncProfile {
            block_opcode_hashes: Vec::new(),
            ..full.clone()
        };
        for p in [full, bare] {
            let mut w = Writer::new();
            write_func_record(&mut w, &p, &refs);
            let bytes = w.finish();
            assert_eq!(bytes.len(), func_record_len(&p, &refs));
            let mut r = Reader::new(&bytes);
            assert_eq!(read_func_record(&mut r, &dir).unwrap(), p);
            assert_eq!(r.remaining(), 0);
            // One byte short of the end of the opcode-hash vector (inside
            // its length prefix when it is empty): an error, not a panic.
            let opcode_end = 16
                + [&p.block_counts, &p.block_hashes, &p.block_opcode_hashes]
                    .map(|v| 4 + 8 * v.len())
                    .iter()
                    .sum::<usize>();
            assert!(read_func_record(&mut Reader::new(&bytes[..opcode_end - 1]), &dir).is_err());
        }
    }

    #[test]
    fn deserialize_shared_matches_plain_decode() {
        let pkg = sample_package();
        let bytes = pkg.serialize();
        let shared = ProfilePackage::deserialize_shared(&bytes).unwrap();
        let plain = ProfilePackage::deserialize(&bytes).unwrap();
        assert_eq!(shared, plain);
        assert_eq!(shared, pkg);

        // Corruption surfaces identically through the shared path.
        let mut bad = bytes.to_vec();
        bad[20] ^= 0x11;
        assert!(ProfilePackage::deserialize_shared(&Bytes::from(bad)).is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_survivable() {
        let pkg = sample_package();
        let bytes = pkg.serialize().to_vec();
        // Flip a sample of bytes: each must produce Err (never panic) or —
        // only for flips inside the magic-length prefix region — a clean
        // structured error.
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x5a;
            assert!(
                ProfilePackage::deserialize(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncations_never_panic() {
        let pkg = sample_package();
        let bytes = pkg.serialize();
        for len in (0..bytes.len()).step_by(11) {
            assert!(ProfilePackage::deserialize(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn poison_variants_round_trip() {
        for poison in [
            Poison::None,
            Poison::CompileCrash,
            Poison::RuntimeCrash { per_mille: 250 },
        ] {
            let mut pkg = sample_package();
            pkg.meta.poison = poison;
            let back = ProfilePackage::deserialize(&pkg.serialize()).unwrap();
            assert_eq!(back.meta.poison, poison);
        }
    }

    #[test]
    fn empty_package_round_trips() {
        let pkg = ProfilePackage::default();
        let back = ProfilePackage::deserialize(&pkg.serialize()).unwrap();
        assert_eq!(pkg, back);
    }

    #[test]
    fn records_reference_callees_by_name_hash_not_id() {
        // Renumber every FuncId in the package; the per-function record
        // bytes must be unaffected (identity lives in the head directory),
        // which is what keeps content-addressed chunks stable across
        // releases that insert or reorder units.
        let pkg = sample_package();
        let shift = |f: FuncId| FuncId(f.0 + 1000);
        let mut pkg2 = pkg.clone();
        pkg2.tier.funcs = pkg
            .tier
            .funcs
            .iter()
            .map(|(f, p)| {
                let mut p = p.clone();
                for targets in p.call_targets.values_mut() {
                    *targets = targets.iter().map(|(f2, c)| (shift(*f2), *c)).collect();
                }
                (shift(*f), p)
            })
            .collect();
        pkg2.func_order = pkg.func_order.iter().map(|f| shift(*f)).collect();

        // Both packages round-trip losslessly...
        assert_eq!(
            ProfilePackage::deserialize(&pkg2.serialize()).unwrap(),
            pkg2
        );
        // ... and their function-record regions are byte-identical: only
        // the head (directory ids) and tail (func_order) moved.
        let refs = hash_refs(&pkg.tier);
        let a = pkg.serialize();
        let b = pkg2.serialize();
        let head_a = head_encoded_len(&pkg);
        let funcs_len: usize = pkg
            .tier
            .funcs
            .values()
            .map(|p| func_record_len(p, &refs))
            .sum();
        use crate::wire::HEADER_LEN;
        let records_a = &a[HEADER_LEN + head_a..HEADER_LEN + head_a + funcs_len];
        let head_b = head_encoded_len(&pkg2);
        let records_b = &b[HEADER_LEN + head_b..HEADER_LEN + head_b + funcs_len];
        assert_eq!(
            records_a, records_b,
            "renumbering FuncIds must not change one record byte"
        );
    }
}
