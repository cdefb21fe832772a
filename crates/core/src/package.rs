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
    /// `FuncId` order, and the tail (ctx profile, orders) — which is
    /// exactly how [`crate::chunk`] slices it into content-addressed
    /// chunks.
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
    let (ctx, prop_orders, func_order) = read_tail(r)?;
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

/// Writes the payload tail: the ctx profile, property orders and the
/// function order.
pub(crate) fn write_tail(w: &mut Writer, pkg: &ProfilePackage) {
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
    let mut len = ctx_encoded_len(&pkg.ctx) + 4;
    for (_, order) in &pkg.prop_orders {
        len += 4 + 4 + 4 * order.len();
    }
    len + 4 + 4 * pkg.func_order.len()
}

/// The non-function parts decoded from the payload tail: ctx profile,
/// property orders, function order.
pub(crate) type TailParts = (CtxProfile, Vec<(ClassId, Vec<StrId>)>, Vec<FuncId>);

/// Reads the payload tail back.
pub(crate) fn read_tail(r: &mut Reader<'_>) -> Result<TailParts, WireError> {
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
    len += 4 + (4 + 4) * p.call_targets().chunk_by(same_site).count(); // site, target count
    for &((_, f2), _) in p.call_targets() {
        // tag + (name hash | raw id) + count
        len += 1 + if refs.hash_of(f2).is_some() { 8 } else { 4 } + 8;
    }
    len += 4 + (4 + 1 + 8 * ValueKind::ALL.len()) * p.types().len();
    len += 4 + (4 + 4) * p.prop_classes().chunk_by(same_site).count();
    len + (4 + 8) * p.prop_classes().len()
}

/// Whether two `((site, _), count)` entries belong to one site's run.
fn same_site<T>(a: &((u32, T), u64), b: &((u32, T), u64)) -> bool {
    a.0 .0 == b.0 .0
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
    for ((_, _, ictx), _) in ctx.branches() {
        len += ictx_len(ictx) + 4 + 4 + 8 + 8;
    }
    len += 4;
    for ((_, ictx), _) in ctx.entries() {
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
    let sites = p.call_targets().chunk_by(same_site);
    w.seq(sites.clone().count());
    let mut refs_of_site: Vec<(u8, u64, u64)> = Vec::new();
    for run in sites {
        w.u32(run[0].0 .0);
        // Hash-keyed refs first (sorted by hash), raw-id fallbacks after
        // (sorted by id) — a deterministic order that does not depend on
        // the release's FuncId numbering.
        refs_of_site.clear();
        refs_of_site.extend(run.iter().map(|&((_, f2), c)| match refs.hash_of(f2) {
            Some(h) => (0u8, h, c),
            None => (1u8, f2.0 as u64, c),
        }));
        refs_of_site.sort_unstable();
        w.seq(refs_of_site.len());
        for &(tag, key, c) in &refs_of_site {
            w.u8(tag);
            match tag {
                0 => w.u64(key),
                _ => w.u32(key as u32),
            }
            w.u64(c);
        }
    }
    w.seq(p.types().len());
    for ((at, slot), dist) in p.types() {
        w.u32(*at);
        w.u8(*slot);
        for &c in dist.counts() {
            w.u64(c);
        }
    }
    let sites = p.prop_classes().chunk_by(same_site);
    w.seq(sites.clone().count());
    for run in sites {
        w.u32(run[0].0 .0);
        w.seq(run.len());
        for ((_, c), n) in run {
            w.u32(c.0);
            w.u64(*n);
        }
    }
}

/// Requires `key` to follow `prev` strictly and makes it the new `prev`:
/// the decoder accepts each keyed table only in the order the encoder
/// writes it, so a duplicate key cannot silently overwrite another.
pub(crate) fn ascending<K: Ord + Copy + std::fmt::Debug>(
    prev: &mut Option<K>,
    key: K,
    what: &str,
) -> Result<(), WireError> {
    if prev.is_some_and(|p| p >= key) {
        return Err(WireError::Corrupt(format!(
            "{what} key {key:?} repeats or is out of order"
        )));
    }
    *prev = Some(key);
    Ok(())
}

/// Reads one function's tier-profile record back, resolving
/// hash-keyed call-target references through the head directory. The
/// record's own `FuncId` comes from the directory position (monolithic
/// decode) or the manifest entry (lazy decode), not the record bytes.
pub(crate) fn read_func_record(
    r: &mut Reader<'_>,
    dir: &FuncDirectory,
) -> Result<FuncProfile, WireError> {
    let mut p = FuncProfile::default();
    p.enter_count = r.u64()?;
    p.name_hash = r.u64()?;
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
    p.reserve(ns.min(1 << 16), 0, 0);
    let mut prev_site = None;
    for _ in 0..ns {
        let site = r.u32()?;
        ascending(&mut prev_site, site, "call site")?;
        let nt = r.seq()?;
        let mut prev_ref = None;
        for _ in 0..nt {
            let tag = r.u8()?;
            let key = match tag {
                0 => r.u64()?,
                1 => u64::from(r.u32()?),
                t => return Err(WireError::Corrupt(format!("callee ref tag {t}"))),
            };
            ascending(&mut prev_ref, (tag, key), "call target")?;
            let callee = match tag {
                0 => dir.resolve(key).ok_or_else(|| {
                    WireError::Corrupt(format!("unresolvable callee hash {key:#018x}"))
                })?,
                _ => FuncId(key as u32),
            };
            p.record_call(site, callee, r.u64()?);
        }
        if nt == 0 || p.call_targets_at(site).len() != nt {
            return Err(WireError::Corrupt(format!(
                "call site {site} is empty or names one callee twice"
            )));
        }
    }
    let ny = r.seq()?;
    p.reserve(0, ny.min(1 << 16), 0);
    let mut prev_type = None;
    for _ in 0..ny {
        let at = r.u32()?;
        let slot = r.u8()?;
        ascending(&mut prev_type, (at, slot), "type site")?;
        let mut dist = TypeDist::default();
        for kind in ValueKind::ALL {
            dist.add_raw(kind, r.u64()?);
        }
        p.record_types(at, slot, &dist);
    }
    let np = r.seq()?;
    p.reserve(0, 0, np.min(1 << 16));
    let mut prev_site = None;
    for _ in 0..np {
        let at = r.u32()?;
        ascending(&mut prev_site, at, "property site")?;
        let mut prev_class = None;
        for _ in 0..r.seq()? {
            let c = ClassId(r.u32()?);
            ascending(&mut prev_class, c, "receiver class")?;
            p.record_prop_class(at, c, r.u64()?);
        }
        if prev_class.is_none() {
            return Err(WireError::Corrupt(format!("property site {at} is empty")));
        }
    }
    Ok(p)
}

/// Writes the ctx profile in the wire's `(context, function, instr)`
/// order.
fn write_ctx(w: &mut Writer, ctx: &CtxProfile) {
    let mut branches: Vec<_> = ctx.branches().iter().collect();
    branches.sort_unstable_by_key(|((f, at, ictx), _)| (*ictx, *f, *at));
    w.seq(branches.len());
    for ((f, at, ictx), b) in branches {
        write_inline_ctx(w, *ictx);
        w.u32(f.0);
        w.u32(*at);
        w.u64(b.taken);
        w.u64(b.not_taken);
    }
    let mut entries: Vec<_> = ctx.entries().iter().collect();
    entries.sort_unstable_by_key(|((f, ictx), _)| (*ictx, *f));
    w.seq(entries.len());
    for ((f, ictx), n) in entries {
        write_inline_ctx(w, *ictx);
        w.u32(f.0);
        w.u64(*n);
    }
}

fn read_ctx(r: &mut Reader<'_>) -> Result<CtxProfile, WireError> {
    let n = r.seq()?;
    let mut branches = Vec::with_capacity(n.min(1 << 20));
    let mut prev = None;
    for _ in 0..n {
        let ictx = read_inline_ctx(r)?;
        let f = FuncId(r.u32()?);
        let at = r.u32()?;
        ascending(&mut prev, (ictx, f, at), "branch")?;
        let b = BranchCount {
            taken: r.u64()?,
            not_taken: r.u64()?,
        };
        branches.push(((f, at, ictx), b));
    }
    let n = r.seq()?;
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    let mut prev = None;
    for _ in 0..n {
        let ictx = read_inline_ctx(r)?;
        let f = FuncId(r.u32()?);
        ascending(&mut prev, (ictx, f), "entry")?;
        entries.push(((f, ictx), r.u64()?));
    }
    Ok(CtxProfile::from_counts(branches, entries))
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
        let (tier, ctx) = col.finish();
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
                    funcs_profiled: tier.profiled_count() as u64,
                    counter_mass: tier.total_counter_mass(),
                    requests: 3,
                },
                poison: Poison::None,
            },
            preload: PreloadLists {
                unit_order: vm.loader().load_order(),
            },
            tier,
            ctx,
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
        assert!(!full.block_opcode_hashes.is_empty() && !full.call_targets().is_empty());
        let mut bare = full.clone();
        bare.block_opcode_hashes.clear();
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
                p.remap_callees(shift);
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

    /// Record bytes with no blocks: call sites `(site, [(ref tag, key)])`,
    /// type sites `(instr, slot)` and property sites `(site, [class])`,
    /// each written in the order given.
    fn raw_record(
        calls: &[(u32, &[(u8, u64)])],
        types: &[(u32, u8)],
        props: &[(u32, &[u32])],
    ) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(1);
        w.u64(0);
        for n in [0, 0, 0, calls.len()] {
            w.seq(n);
        }
        for &(site, refs) in calls {
            w.u32(site);
            w.seq(refs.len());
            for &(tag, key) in refs {
                w.u8(tag);
                match tag {
                    0 => w.u64(key),
                    _ => w.u32(key as u32),
                }
                w.u64(1);
            }
        }
        w.seq(types.len());
        for &(at, slot) in types {
            w.u32(at);
            w.u8(slot);
            for _ in ValueKind::ALL {
                w.u64(1);
            }
        }
        w.seq(props.len());
        for &(site, classes) in props {
            w.u32(site);
            w.seq(classes.len());
            for &c in classes {
                w.u32(c);
                w.u64(1);
            }
        }
        w.finish().to_vec()
    }

    /// Ctx bytes: branches `(context, func, instr)` and entries
    /// `(context, func)`, each written in the order given.
    fn raw_ctx(branches: &[(InlineCtx, u32, u32)], entries: &[(InlineCtx, u32)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.seq(branches.len());
        for &(ictx, f, at) in branches {
            write_inline_ctx(&mut w, ictx);
            w.u32(f);
            w.u32(at);
            w.u64(2);
            w.u64(1);
        }
        w.seq(entries.len());
        for &(ictx, f) in entries {
            write_inline_ctx(&mut w, ictx);
            w.u32(f);
            w.u64(3);
        }
        w.finish().to_vec()
    }

    #[test]
    fn decoder_rejects_repeated_and_descending_keys() {
        // Raw callee 1 and the callee whose name hash is 0xfeed are one
        // function.
        let dir = FuncDirectory::new(vec![(FuncId(1), 0xfeed)]);
        let record = |bytes: Vec<u8>| read_func_record(&mut Reader::new(&bytes), &dir);
        let calls: &[(u32, &[(u8, u64)])] = &[(3, &[(0, 0xfeed), (1, 2)]), (4, &[(1, 2)])];
        let ok = record(raw_record(
            calls,
            &[(5, 0), (5, 1), (6, 0)],
            &[(6, &[1, 2]), (7, &[1])],
        ));
        assert_eq!(ok.unwrap().call_targets_at(3).len(), 2);
        for bad in [
            raw_record(&[(3, &[(1, 1)]), (3, &[(1, 2)])], &[], &[]),
            raw_record(&[(4, &[(1, 1)]), (3, &[(1, 1)])], &[], &[]),
            raw_record(&[(3, &[(1, 2), (1, 1)])], &[], &[]),
            raw_record(&[(3, &[(1, 1), (1, 1)])], &[], &[]),
            raw_record(&[(3, &[(0, 0xfeed), (1, 1)])], &[], &[]),
            raw_record(&[], &[(5, 0), (5, 0)], &[]),
            raw_record(&[], &[(5, 1), (5, 0)], &[]),
            raw_record(&[], &[(6, 0), (5, 0)], &[]),
            raw_record(&[], &[], &[(6, &[1]), (6, &[2])]),
            raw_record(&[], &[], &[(7, &[1]), (6, &[2])]),
            raw_record(&[], &[], &[(6, &[2, 1])]),
            raw_record(&[], &[], &[(6, &[1, 1])]),
            // An empty run is not a form the encoder writes.
            raw_record(&[(3, &[])], &[], &[]),
            raw_record(&[], &[], &[(6, &[])]),
        ] {
            assert!(matches!(record(bad), Err(WireError::Corrupt(_))));
        }

        let ctx = |bytes: Vec<u8>| read_ctx(&mut Reader::new(&bytes));
        let caller = Some((FuncId(9), 4));
        let wire = raw_ctx(
            &[(None, 2, 9), (None, 3, 1), (caller, 1, 3)],
            &[(None, 5), (caller, 1)],
        );
        // Kept in (function, instr, context) order.
        assert_eq!(ctx(wire).unwrap().branches()[0].0, (FuncId(1), 3, caller));
        for bad in [
            raw_ctx(&[(None, 2, 9), (None, 2, 9)], &[]),
            raw_ctx(&[(None, 2, 9), (None, 2, 8)], &[]),
            raw_ctx(&[(caller, 1, 3), (None, 2, 9)], &[]),
            raw_ctx(&[], &[(None, 5), (None, 5)]),
            raw_ctx(&[], &[(caller, 1), (None, 5)]),
        ] {
            assert!(matches!(ctx(bad), Err(WireError::Corrupt(_))));
        }
    }
}
