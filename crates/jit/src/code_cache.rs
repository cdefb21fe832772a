//! The code cache: address regions for emitted optimized translations.
//!
//! HHVM's code cache has separate areas for hot optimized code, cold paths,
//! live translations and profiling code; optimized code is placed in
//! function-sorting order (paper §II-B, Fig. 1's relocation step B→C).
//! A Jump-Start consumer emits only optimized code, so this cache has the
//! hot and cold areas alone; the live and profiling areas of a server that
//! JITs while serving are modelled by `fleet::run_server`, as byte counts.
//! Addresses here feed the I-cache/I-TLB model, so *where* a block lands
//! directly changes the measured locality.
//!
//! Placement goes through the global [`layout::pagepack`] plan:
//! with `hugepage_pack`, each function's hot part is kept inside one
//! simulated 2 MiB huge-page bin; with `global_hotcold`, optimized cold
//! parts are exiled to a dedicated `optimized_cold` region on 4 KiB pages
//! and every hot→cold terminator edge gets an 8-byte bind stub emitted
//! just ahead of the function's cold part (HHVM keeps these one-shot
//! stubs in its coldest area for the same reason: each executes once and
//! is then smashed to a direct jump, so hot text stays pure hot code).
//! With [`LayoutPlanOptions::disabled`] both fall back to the historical
//! plain bump allocation, bit-for-bit.

use std::collections::BTreeMap;

use bytecode::FuncId;
use layout::{LayoutPlanOptions, PagePackStats, PagePacker};

use crate::vasm::VasmUnit;

/// Bytes of one hot→cold bind stub (a one-shot jump island in the cold
/// region, smashed to a direct jump after its first execution).
pub const STUB_BYTES: u64 = 8;

/// A contiguous address region with bump allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First address of the region.
    pub base: u64,
    /// Bytes already allocated.
    pub used: u64,
    /// Total bytes available.
    pub capacity: u64,
}

impl Region {
    fn new(base: u64, capacity: u64) -> Self {
        Self {
            base,
            used: 0,
            capacity,
        }
    }

    fn alloc(&mut self, size: u64) -> Option<u64> {
        if self.used + size > self.capacity {
            return None;
        }
        let addr = self.base + self.used;
        self.used += size;
        Some(addr)
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }
}

/// Region sizes (bytes). Defaults are scaled-down versions of HHVM's
/// multi-hundred-MB cache (Fig. 1 shows ~500 MB total; our synthetic app
/// is ~20× smaller).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeCacheConfig {
    /// Hot optimized region capacity.
    pub hot_capacity: u64,
    /// Cold (split) region capacity.
    pub cold_capacity: u64,
}

impl Default for CodeCacheConfig {
    fn default() -> Self {
        Self {
            hot_capacity: 24 << 20,
            cold_capacity: 24 << 20,
        }
    }
}

/// One emitted (placed) translation.
#[derive(Clone, Debug)]
pub struct EmittedTranslation {
    /// The translated function.
    pub func: FuncId,
    /// The Vasm body (block indices match `placement`).
    pub vasm: VasmUnit,
    /// Per-Vasm-block (address, size); sizes come from the block encoding.
    pub placement: Vec<(u64, u32)>,
    /// Hot→cold bind stubs: `((from_block, to_block), stub address)`, one
    /// per edge, sorted by edge; each stub sits just ahead of this
    /// function's cold part. Empty unless global hot/cold splitting placed
    /// the cold part in the dedicated region.
    pub stubs: Vec<((usize, usize), u64)>,
}

impl EmittedTranslation {
    /// Where in [`EmittedTranslation::stubs`] the bind stub on the
    /// `from → to` block edge is, if the edge has one.
    pub fn stub_index(&self, from: usize, to: usize) -> Option<usize> {
        self.stubs
            .binary_search_by_key(&(from, to), |&(edge, _)| edge)
            .ok()
    }

    /// Total emitted bytes (stubs excluded).
    pub fn code_bytes(&self) -> u64 {
        self.placement.iter().map(|&(_, s)| s as u64).sum()
    }
}

/// The code cache.
#[derive(Clone, Debug)]
pub struct CodeCache {
    /// Hot optimized code (packed into huge-page bins when enabled).
    pub hot: Region,
    /// Cold split-off code when global hot/cold splitting is off.
    pub cold: Region,
    /// Optimized cold parts (4 KiB pages), when global hot/cold is on.
    pub optimized_cold: Region,
    plan: LayoutPlanOptions,
    packer: PagePacker,
    stub_count: u64,
    translations: BTreeMap<FuncId, EmittedTranslation>,
}

impl CodeCache {
    /// Creates an empty cache with the given capacities and the global
    /// layout passes *off* (historical placement). Regions are placed far
    /// apart so they never share pages.
    pub fn new(config: CodeCacheConfig) -> Self {
        Self::with_plan(config, LayoutPlanOptions::disabled())
    }

    /// Creates an empty cache placing optimized code through the given
    /// global layout plan options.
    pub fn with_plan(config: CodeCacheConfig, plan: LayoutPlanOptions) -> Self {
        Self {
            hot: Region::new(0x1000_0000, config.hot_capacity),
            cold: Region::new(0x4000_0000, config.cold_capacity),
            optimized_cold: Region::new(0xd000_0000, config.cold_capacity),
            plan,
            packer: PagePacker::new(plan),
            stub_count: 0,
            translations: BTreeMap::new(),
        }
    }

    /// The active global layout options.
    pub fn plan_options(&self) -> LayoutPlanOptions {
        self.plan
    }

    /// The address range backed by 2 MiB pages (the packed hot text), or
    /// `None` when huge-page packing is off or nothing was placed.
    pub fn huge_text_range(&self) -> Option<(u64, u64)> {
        if self.plan.hugepage_pack && self.hot.used > 0 {
            Some((self.hot.base, self.hot.used))
        } else {
            None
        }
    }

    /// Huge-page packing telemetry for the hot region.
    pub fn pack_stats(&self) -> PagePackStats {
        self.packer.stats()
    }

    /// Huge-page bins touched by the hot region.
    pub fn huge_pages_used(&self) -> u64 {
        self.packer.huge_pages_used()
    }

    /// Mean hot bytes resident per huge page.
    pub fn hot_bytes_per_huge_page(&self) -> f64 {
        self.packer.hot_bytes_per_huge_page()
    }

    /// Total hot→cold bind-stub bytes emitted into the cold region.
    pub fn stub_bytes(&self) -> u64 {
        self.stub_count * STUB_BYTES
    }

    /// Number of hot→cold stubs emitted.
    pub fn stub_count(&self) -> u64 {
        self.stub_count
    }

    /// Emits an optimized translation through the global pagepack plan,
    /// placing `hot_order` blocks contiguously in the hot region and
    /// `cold_order` blocks in a cold region. Returns `false` (emitting
    /// nothing) if a region is full — HHVM stops JITing when the cache
    /// fills (paper §IV-A). The atomic packing unit is the whole hot part,
    /// so a function's hot text never straddles a huge-page boundary
    /// (unless it exceeds one page); bind stubs ride ahead of the
    /// function's cold part in the cold region. A function emitted twice
    /// keeps its later translation.
    ///
    /// # Panics
    ///
    /// Panics if `hot_order` + `cold_order` don't cover each block exactly
    /// once.
    pub fn emit(&mut self, unit: VasmUnit, hot_order: &[usize], cold_order: &[usize]) -> bool {
        assert_eq!(
            hot_order.len() + cold_order.len(),
            unit.blocks.len(),
            "layout must cover all blocks"
        );
        let block_bytes = |b: usize| unit.block_size(&unit.blocks[b]);
        let hot_bytes: u64 = hot_order.iter().map(|&b| block_bytes(b) as u64).sum();
        let cold_bytes: u64 = cold_order.iter().map(|&b| block_bytes(b) as u64).sum();
        let mut is_cold = vec![false; unit.blocks.len()];
        for &b in cold_order {
            is_cold[b] = true;
        }
        // One stub per hot→cold terminator edge, but only when global
        // hot/cold splitting actually exiles the cold part.
        let mut stub_edges: Vec<(usize, usize)> = Vec::new();
        if self.plan.global_hotcold {
            for &b in hot_order {
                for s in unit.blocks[b].term.successors() {
                    if is_cold[s] {
                        stub_edges.push((b, s));
                    }
                }
            }
        }
        let stub_bytes = stub_edges.len() as u64 * STUB_BYTES;
        // Capacity checks before touching any state: a dry-run packer
        // tells us where the extent would end.
        let mut probe = self.packer.clone();
        let probe_off = probe.place_hot(hot_bytes);
        if probe_off + hot_bytes > self.hot.capacity {
            return false;
        }
        let cold_region = if self.plan.global_hotcold {
            &mut self.optimized_cold
        } else {
            &mut self.cold
        };
        if cold_region.free() < cold_bytes + stub_bytes {
            return false;
        }

        let hot_off = self.packer.place_hot(hot_bytes);
        let mut placement = vec![(0u64, 0u32); unit.blocks.len()];
        let mut covered = vec![false; unit.blocks.len()];
        let mut cursor = self.hot.base + hot_off;
        for &b in hot_order {
            assert!(!covered[b], "block placed twice");
            covered[b] = true;
            let size = block_bytes(b);
            placement[b] = (cursor, size);
            cursor += size as u64;
        }
        // Bind stubs first, then the cold blocks: a stub shares its cache
        // line with the cold entry it jumps to, so the one bound transfer
        // that executes it also pulls in the target's first line.
        let mut stubs: Vec<((usize, usize), u64)> = stub_edges
            .iter()
            .map(|&edge| {
                let addr = cold_region.alloc(STUB_BYTES).expect("checked free space");
                (edge, addr)
            })
            .collect();
        self.stub_count += stub_edges.len() as u64;
        // A `Cond` whose arms share a target lists its edge twice: both
        // stubs are emitted, and the later (higher) one is the edge's.
        stubs.sort_unstable_by_key(|&(edge, addr)| (edge, std::cmp::Reverse(addr)));
        stubs.dedup_by_key(|&mut (edge, _)| edge);
        for &b in cold_order {
            assert!(!covered[b], "block placed twice");
            covered[b] = true;
            let size = block_bytes(b);
            let addr = cold_region.alloc(size as u64).expect("checked free space");
            placement[b] = (addr, size);
        }
        self.hot.used = self.packer.hot_used();
        let func = unit.func;
        self.translations.insert(
            func,
            EmittedTranslation {
                func,
                vasm: unit,
                placement,
                stubs,
            },
        );
        true
    }

    /// Looks up the current translation for a function.
    pub fn translation(&self, func: FuncId) -> Option<&EmittedTranslation> {
        self.translations.get(&func)
    }

    /// All translations, in function-id order.
    pub fn translations(&self) -> &BTreeMap<FuncId, EmittedTranslation> {
        &self.translations
    }

    /// FNV-1a digest over every placed block address and size, in
    /// function-id order, plus stub addresses and the region fill levels.
    /// Two caches with the same digest have byte-identical layouts — the
    /// determinism oracle for the parallel boot pipeline (addresses feed
    /// the uarch model, so parallel emission may not move a single block).
    ///
    /// The digest keeps the words of the four-region cache this one
    /// replaced, so every recorded digest still holds: a constant `3` per
    /// translation (the optimized kind), and two zero words for the live
    /// and profiling regions, which a consumer never filled. The
    /// `optimized_cold` fill level is mixed only when nonzero, so a cache
    /// with the global layout passes disabled digests exactly like that
    /// cache did.
    pub fn layout_digest(&self) -> u64 {
        let mut h = bytecode::Fnv::new();
        let mut mix = |v: u64| h.u64(v);
        for t in self.translations.values() {
            mix(t.func.index() as u64);
            mix(3);
            for &(addr, size) in &t.placement {
                mix(addr);
                mix(size as u64);
            }
            for &((from, to), addr) in &t.stubs {
                mix(from as u64);
                mix(to as u64);
                mix(addr);
            }
        }
        for used in [self.hot.used, self.cold.used, 0, 0] {
            mix(used);
        }
        if self.optimized_cold.used > 0 {
            mix(self.optimized_cold.used);
        }
        h.finish()
    }
}

impl Default for CodeCache {
    fn default() -> Self {
        Self::new(CodeCacheConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vasm::{Term, VBlock, VInstr};

    fn unit(func: u32, nblocks: usize) -> VasmUnit {
        let mut u = VasmUnit::new(FuncId::new(func));
        for i in 0..nblocks {
            let term = if i + 1 < nblocks {
                Term::Jump(i + 1)
            } else {
                Term::Ret
            };
            u.push_block(VBlock::new(term, 10, None));
            for _ in 0..4 {
                u.push_instr(VInstr::IntArith);
            }
        }
        u
    }

    #[test]
    fn emit_places_blocks_contiguously_in_order() {
        let mut cc = CodeCache::default();
        let u = unit(0, 3);
        let sizes: Vec<u32> = u.blocks.iter().map(|b| u.block_size(b)).collect();
        assert!(cc.emit(u, &[0, 2, 1], &[]));
        let t = cc.translation(FuncId::new(0)).unwrap();
        let (a0, _) = t.placement[0];
        let (a1, _) = t.placement[1];
        let (a2, _) = t.placement[2];
        assert_eq!(a2, a0 + sizes[0] as u64);
        assert_eq!(a1, a2 + sizes[2] as u64);
    }

    #[test]
    fn cold_blocks_go_to_the_cold_region() {
        // Plan disabled: optimized cold shares the historical cold region.
        let mut cc = CodeCache::default();
        assert!(cc.emit(unit(1, 4), &[0, 1], &[2, 3]));
        let t = cc.translation(FuncId::new(1)).unwrap();
        assert!(t.placement[0].0 >= cc.hot.base && t.placement[0].0 < cc.cold.base);
        assert!(t.placement[2].0 >= cc.cold.base);
        assert!(cc.cold.used > 0);
        assert_eq!(cc.optimized_cold.used, 0);
        assert!(t.stubs.is_empty());
    }

    #[test]
    fn global_hotcold_exiles_cold_parts_with_stubs() {
        let mut cc = CodeCache::with_plan(CodeCacheConfig::default(), LayoutPlanOptions::default());
        // Blocks 0→1→2→3 in a chain; 2 and 3 go cold, so the 1→2 jump is
        // the only hot→cold terminator edge.
        assert!(cc.emit(unit(1, 4), &[0, 1], &[2, 3]));
        let t = cc.translation(FuncId::new(1)).unwrap();
        assert!(t.placement[2].0 >= cc.optimized_cold.base);
        assert_eq!(cc.cold.used, 0);
        assert!(cc.optimized_cold.used > 0);
        assert_eq!(t.stubs.len(), 1);
        let stub = t.stubs[t.stub_index(1, 2).expect("1 → 2 has a stub")].1;
        // The bind stub sits in the cold region, just ahead of the cold
        // blocks it transfers to; hot text stays pure hot code.
        assert_eq!(stub, cc.optimized_cold.base);
        assert_eq!(t.placement[2].0, stub + STUB_BYTES);
        assert_eq!(cc.stub_bytes(), STUB_BYTES);
        assert_eq!(cc.hot.used, t.code_bytes_hot());
    }

    #[test]
    fn a_cond_with_one_target_keeps_the_later_stub() {
        let mut u = unit(3, 2);
        u.blocks[0].term = Term::Cond { taken: 1, fall: 1 };
        let mut cc = CodeCache::with_plan(CodeCacheConfig::default(), LayoutPlanOptions::default());
        assert!(cc.emit(u, &[0], &[1]));
        let t = cc.translation(FuncId::new(3)).unwrap();
        assert_eq!(cc.stub_count(), 2, "both arms emit a stub");
        assert_eq!(t.stubs.len(), 1, "one entry per edge");
        assert_eq!(
            t.stubs[t.stub_index(0, 1).unwrap()].1,
            cc.optimized_cold.base + STUB_BYTES
        );
        assert_eq!(t.stub_index(1, 0), None);
    }

    #[test]
    fn disabled_plan_digests_like_the_historical_cache() {
        // The digest of a disabled-plan cache must be a pure function of
        // the same inputs the four-region cache hashed: same emissions →
        // same digest as an independently-built disabled cache, and no
        // optimized_cold/stub contribution.
        let build = || {
            let mut cc = CodeCache::default();
            assert!(cc.emit(unit(0, 3), &[0, 1, 2], &[]));
            assert!(cc.emit(unit(1, 4), &[0, 1], &[2, 3]));
            assert!(cc.emit(unit(2, 2), &[0, 1], &[]));
            cc
        };
        let a = build();
        let b = build();
        assert_eq!(a.layout_digest(), b.layout_digest());
        assert_eq!(a.optimized_cold.used, 0);
        assert_eq!(a.stub_count(), 0);
    }

    #[test]
    fn hugepage_packing_pads_instead_of_straddling() {
        // Shrink the hot region to force a boundary interaction is not
        // possible (page size is fixed at 2 MiB), so emit enough code to
        // cross one boundary: ~41-byte units never straddle it.
        let mut cc = CodeCache::with_plan(CodeCacheConfig::default(), LayoutPlanOptions::default());
        let mut emitted = 0u64;
        let mut i = 0u32;
        while emitted <= (2 << 20) + 4096 {
            let u = unit(i, 3);
            let bytes = u64::from(u.code_size());
            assert!(cc.emit(u, &[0, 1, 2], &[]));
            emitted += bytes;
            i += 1;
        }
        let page = 2u64 << 20;
        for t in cc.translations().values() {
            let start = t.placement[0].0 - cc.hot.base;
            let end = start + t.code_bytes() - 1;
            assert_eq!(start / page, end / page, "hot part straddles a bin");
        }
        assert!(cc.huge_pages_used() >= 2);
        assert!(cc.pack_stats().pad_bytes > 0, "crossing pads at least once");
    }

    #[test]
    fn regions_fill_and_reject() {
        let mut cc = CodeCache::new(CodeCacheConfig {
            hot_capacity: 40,
            cold_capacity: 40,
        });
        // Each unit(_,3) is ~3*(4*3+5) bytes > 40: rejected.
        let u = unit(2, 3);
        let order: Vec<usize> = (0..3).collect();
        assert!(!cc.emit(u, &order, &[]));
        assert_eq!((cc.hot.used, cc.cold.used), (0, 0));
        assert!(cc.translation(FuncId::new(2)).is_none());
    }

    #[test]
    #[should_panic(expected = "cover all blocks")]
    fn incomplete_layout_panics() {
        let mut cc = CodeCache::default();
        cc.emit(unit(0, 3), &[0, 1], &[]);
    }

    impl EmittedTranslation {
        fn code_bytes_hot(&self) -> u64 {
            // Test helper: bytes of blocks placed below the cold bases.
            self.placement
                .iter()
                .filter(|&&(a, _)| a < 0x4000_0000)
                .map(|&(_, s)| s as u64)
                .sum()
        }
    }
}
