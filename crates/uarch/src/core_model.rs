//! One core's memory-system model and cycle accounting.

use crate::branch::BranchPredictor;
use crate::cache::{Cache, CacheConfig};
use crate::metrics::MissReport;
use crate::tlb::{Tlb, TlbHierarchy, TlbLevel};

/// Latency parameters (cycles) for the cost model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreParams {
    /// Added cycles when an L1 (I or D) access misses but the LLC hits.
    pub llc_hit_penalty: u64,
    /// Added cycles when the LLC also misses (memory access).
    pub mem_penalty: u64,
    /// Added cycles for a TLB miss (page walk).
    pub tlb_penalty: u64,
    /// Added cycles for a first-level I-TLB miss that the shared second
    /// level catches (much cheaper than a walk).
    pub tlb_l2_penalty: u64,
    /// Added cycles for a branch misprediction (pipeline flush).
    pub mispredict_penalty: u64,
    /// Added cycles for every *taken* branch (fetch redirect bubble); this
    /// is why fallthrough layouts win even with perfect prediction.
    pub taken_penalty: u64,
    /// First-level I-TLB 4 KiB-page entries (Broadwell carries 64).
    pub itlb_entries: u32,
    /// First-level I-TLB 2 MiB-page entries (Broadwell carries 8).
    pub itlb_huge_entries: u32,
    /// Shared second-level I-TLB entries (page size tracked per entry).
    pub itlb_l2_entries: u32,
    /// D-TLB entries.
    pub dtlb_entries: u32,
}

impl Default for CoreParams {
    fn default() -> Self {
        Self {
            llc_hit_penalty: 12,
            mem_penalty: 120,
            tlb_penalty: 30,
            tlb_l2_penalty: 8,
            mispredict_penalty: 16,
            taken_penalty: 2,
            itlb_entries: 64,
            itlb_huge_entries: 8,
            itlb_l2_entries: 1024,
            dtlb_entries: 48,
        }
    }
}

/// A single core: L1I, L1D, shared-level LLC, I-TLB, D-TLB and a branch
/// predictor, plus cycle accounting.
///
/// The executor calls [`CoreModel::fetch`] for each basic block it enters,
/// [`CoreModel::load`]/[`CoreModel::store`] for data accesses, and
/// [`CoreModel::branch`] for conditional branches; each adds its miss
/// penalties to the cycle total itself. [`CoreModel::retire`] adds the
/// instructions' base cost, so [`CoreModel::cycles`] is base + penalties.
#[derive(Clone, Debug)]
pub struct CoreModel {
    params: CoreParams,
    l1i: Cache,
    l1d: Cache,
    llc: Cache,
    itlb: TlbHierarchy,
    dtlb: Tlb,
    bp: BranchPredictor,
    /// Address ranges mapped with 2 MiB pages (the code cache's packed
    /// hot text), sorted and non-overlapping.
    huge_ranges: Vec<(u64, u64)>,
    instructions: u64,
    cycles: u64,
}

impl CoreModel {
    /// Creates a core with the given latencies and default Broadwell-like
    /// geometry.
    pub fn new(params: CoreParams) -> Self {
        Self {
            params,
            l1i: Cache::new(CacheConfig::L1),
            l1d: Cache::new(CacheConfig::L1),
            llc: Cache::new(CacheConfig::LLC),
            itlb: TlbHierarchy::new(
                params.itlb_entries,
                params.itlb_huge_entries,
                params.itlb_l2_entries,
                4096,
                2 << 20,
            ),
            dtlb: Tlb::new(params.dtlb_entries, 4096),
            bp: BranchPredictor::default_size(),
            huge_ranges: Vec::new(),
            instructions: 0,
            cycles: 0,
        }
    }

    /// Declares `[start, start + len)` as backed by 2 MiB pages; code
    /// fetches inside it translate through the huge-page I-TLB entries.
    /// No-op for empty ranges.
    pub fn map_huge_range(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.huge_ranges.push((start, start + len));
        self.huge_ranges.sort_unstable();
    }

    #[inline]
    fn is_huge(&self, addr: u64) -> bool {
        self.huge_ranges.iter().any(|&(s, e)| addr >= s && addr < e)
    }

    /// Adds `n` executed instructions at `base_cycles` total.
    #[inline]
    pub fn retire(&mut self, n: u64, base_cycles: u64) {
        self.instructions += n;
        self.cycles += base_cycles;
    }

    /// Fetches `len` code bytes at `addr`, adding I-TLB and I-cache miss
    /// penalties to the cycle total.
    #[inline]
    pub fn fetch(&mut self, addr: u64, len: u32) {
        let tlb = match self.itlb.access(addr, self.is_huge(addr)) {
            TlbLevel::L1 => 0,
            TlbLevel::L2 => self.params.tlb_l2_penalty,
            TlbLevel::Walk => self.params.tlb_penalty,
        };
        let lines = walk_lines(&mut self.l1i, &mut self.llc, &self.params, addr, len);
        self.cycles += tlb + lines;
    }

    /// Loads `len` data bytes at `addr`, adding D-TLB and D-cache miss
    /// penalties to the cycle total.
    #[inline]
    pub fn load(&mut self, addr: u64, len: u32) {
        self.data_access(addr, len);
    }

    /// Stores `len` data bytes at `addr`: write-allocate, so the same path
    /// and penalties as [`CoreModel::load`].
    #[inline]
    pub fn store(&mut self, addr: u64, len: u32) {
        self.data_access(addr, len);
    }

    #[inline]
    fn data_access(&mut self, addr: u64, len: u32) {
        let tlb = if self.dtlb.access(addr) {
            0
        } else {
            self.params.tlb_penalty
        };
        let lines = walk_lines(&mut self.l1d, &mut self.llc, &self.params, addr, len);
        self.cycles += tlb + lines;
    }

    /// Resolves a conditional branch at `pc` (with the *emitted* polarity:
    /// `taken` means the fetch actually redirects), adding the mispredict
    /// and taken-redirect penalties to the cycle total.
    #[inline]
    pub fn branch(&mut self, pc: u64, taken: bool) {
        if !self.bp.branch(pc, taken) {
            self.cycles += self.params.mispredict_penalty;
        }
        if taken {
            self.cycles += self.params.taken_penalty;
        }
    }

    /// Total cycles so far (base + penalties).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Snapshot of every structure's counters.
    pub fn report(&self) -> MissReport {
        MissReport {
            branch: self.bp.stats(),
            icache: self.l1i.stats(),
            itlb: self.itlb.l1_stats(),
            itlb_l2: self.itlb.l2_stats(),
            dcache: self.l1d.stats(),
            dtlb: self.dtlb.stats(),
            llc: self.llc.stats(),
            instructions: self.instructions,
            cycles: self.cycles,
        }
    }

    /// Clears all counters (keeping learned/cached state) — used to drop
    /// warmup noise before measuring steady state.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.llc.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.bp.reset_stats();
        self.instructions = 0;
        self.cycles = 0;
    }
}

/// Touches every line of `l1` that `[addr, addr + len)` spans, filling
/// misses from `llc`; returns the miss penalty cycles.
#[inline]
fn walk_lines(l1: &mut Cache, llc: &mut Cache, p: &CoreParams, addr: u64, len: u32) -> u64 {
    let shift = l1.line_shift();
    let first = addr >> shift;
    let last = (addr + len.max(1) as u64 - 1) >> shift;
    let mut added = 0;
    for l in first..=last {
        if !l1.access(l << shift) {
            added += if llc.access(l << shift) {
                p.llc_hit_penalty
            } else {
                p.mem_penalty
            };
        }
    }
    added
}

impl Default for CoreModel {
    fn default() -> Self {
        Self::new(CoreParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::tests::TickBranchPredictor;
    use crate::cache::tests::NaiveCache;
    use crate::streams::run_heavy;
    use crate::tlb::tests::NaiveTlb;

    /// `CoreModel` rebuilt from the test-module references: tick-stamped
    /// caches, TLBs and BTB with `min_by_key` eviction, lines and pages cut
    /// by division, and the second-level I-TLB as a linear-scan TLB over
    /// `(page, size class)` keys.
    struct ReferenceCore {
        params: CoreParams,
        l1i: NaiveCache,
        l1d: NaiveCache,
        llc: NaiveCache,
        itlb_small: NaiveTlb,
        itlb_huge: NaiveTlb,
        itlb_l2: NaiveTlb,
        dtlb: NaiveTlb,
        bp: TickBranchPredictor,
        huge: Vec<(u64, u64)>,
        instructions: u64,
        cycles: u64,
    }

    impl ReferenceCore {
        fn new(params: CoreParams) -> Self {
            Self {
                params,
                l1i: NaiveCache::new(CacheConfig::L1),
                l1d: NaiveCache::new(CacheConfig::L1),
                llc: NaiveCache::new(CacheConfig::LLC),
                itlb_small: NaiveTlb::new(params.itlb_entries, 4096),
                itlb_huge: NaiveTlb::new(params.itlb_huge_entries, 2 << 20),
                itlb_l2: NaiveTlb::new(params.itlb_l2_entries, 1),
                dtlb: NaiveTlb::new(params.dtlb_entries, 4096),
                bp: TickBranchPredictor::new(12, 8),
                huge: Vec::new(),
                instructions: 0,
                cycles: 0,
            }
        }

        fn lines(&mut self, code: bool, addr: u64, len: u32) -> u64 {
            let l1 = if code { &mut self.l1i } else { &mut self.l1d };
            let mut added = 0;
            for l in addr / 64..=(addr + len.max(1) as u64 - 1) / 64 {
                if !l1.access(l * 64) {
                    added += if self.llc.access(l * 64) {
                        self.params.llc_hit_penalty
                    } else {
                        self.params.mem_penalty
                    };
                }
            }
            added
        }

        fn fetch(&mut self, addr: u64, len: u32) {
            let huge = self.huge.iter().any(|&(s, e)| addr >= s && addr < e);
            let (l1, page) = if huge {
                (&mut self.itlb_huge, 2 << 20)
            } else {
                (&mut self.itlb_small, 4096)
            };
            let tlb = if l1.access(addr) {
                0
            } else if self.itlb_l2.access((addr / page) << 1 | huge as u64) {
                self.params.tlb_l2_penalty
            } else {
                self.params.tlb_penalty
            };
            self.cycles += tlb + self.lines(true, addr, len);
        }

        fn data(&mut self, addr: u64, len: u32) {
            let tlb = if self.dtlb.access(addr) {
                0
            } else {
                self.params.tlb_penalty
            };
            self.cycles += tlb + self.lines(false, addr, len);
        }

        fn branch(&mut self, pc: u64, taken: bool) {
            if !self.bp.branch(pc, taken) {
                self.cycles += self.params.mispredict_penalty;
            }
            if taken {
                self.cycles += self.params.taken_penalty;
            }
        }

        fn report(&self) -> MissReport {
            MissReport {
                branch: self.bp.stats,
                icache: self.l1i.stats,
                itlb: self.itlb_small.stats + self.itlb_huge.stats,
                itlb_l2: self.itlb_l2.stats,
                dcache: self.l1d.stats,
                dtlb: self.dtlb.stats,
                llc: self.llc.stats,
                instructions: self.instructions,
                cycles: self.cycles,
            }
        }
    }

    #[test]
    fn core_model_matches_tick_lru_reference() {
        // 4 MiB of small-page code (starting mid-page, so 1 025 pages)
        // plus 2 MiB of huge-mapped hot text: more I-TLB keys than the
        // 1 024-entry second level holds, and a 16 MiB data footprint
        // against the 2 MiB LLC. Code lines come in runs (loop bodies
        // re-fetched back to back), data is uniform with short repeats.
        const CODE: u64 = 0x40_0800;
        const HOT: u64 = 0x200_0000;
        const DATA: u64 = 0x1000_0000;
        let lines = run_heavy(0xC0DE_5EED, (4 << 20) / 64, 150_000);
        let mut fast = CoreModel::default();
        let mut reference = ReferenceCore::new(CoreParams::default());
        fast.map_huge_range(HOT, 2 << 20);
        reference.huge.push((HOT, HOT + (2 << 20)));
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut data = DATA;
        for (i, &line) in lines.iter().enumerate() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = if x >> 62 == 0 {
                HOT + ((x >> 20) & 0x1F_FFC0)
            } else {
                CODE + line * 64 + (x >> 40) % 32
            };
            let len = 1 + (x >> 10) as u32 % 96;
            fast.fetch(pc, len);
            reference.fetch(pc, len);
            if !x.is_multiple_of(4) {
                data = DATA + ((x >> 33) & 0xFF_FFF8);
            }
            let width = [8, 16, 64][(x >> 5) as usize % 3];
            if x & 8 == 0 {
                fast.load(data, width);
            } else {
                fast.store(data, width);
            }
            reference.data(data, width);
            // One branch per code line, so repeated lines repeat a site.
            let site = pc | 60;
            let taken = !(x >> 3).is_multiple_of(3);
            fast.branch(site, taken);
            reference.branch(site, taken);
            fast.retire(len as u64 / 4 + 1, len as u64 / 2 + 1);
            reference.instructions += len as u64 / 4 + 1;
            reference.cycles += len as u64 / 2 + 1;
            if i % 10_000 == 0 {
                assert_eq!(fast.report(), reference.report(), "at step {i}");
            }
        }
        let r = reference.report();
        assert_eq!(fast.report(), r);
        // Evictions everywhere: more LLC misses than the LLC has lines,
        // and more page walks than distinct second-level keys.
        assert!(r.llc.misses > 32_768, "{:?}", r.llc);
        assert!(r.itlb_l2.misses > 1_026, "{:?}", r.itlb_l2);
        assert!(r.branch.misses > 0 && r.dtlb.misses > 0);
    }

    #[test]
    fn compact_code_fetches_cheaper_than_scattered() {
        // Fetch 64 blocks of 64B laid out contiguously vs spread over pages.
        let run = |stride: u64| {
            let mut core = CoreModel::default();
            for rep in 0..20 {
                for i in 0..64u64 {
                    core.fetch(i * stride, 64);
                }
                let _ = rep;
            }
            core.cycles()
        };
        let dense = run(64);
        let sparse = run(8192); // one block per two pages: TLB + cache pressure
        assert!(dense < sparse, "dense {dense} should beat sparse {sparse}");
    }

    #[test]
    fn hot_first_slots_beat_last_slots() {
        // Objects are 4 lines; accessing slot 0 vs slot 28 across many
        // objects shows the D-cache benefit of property reordering.
        let run = |slot: u64| {
            let mut core = CoreModel::default();
            for rep in 0..10 {
                for obj in 0..2000u64 {
                    let base = obj * 256;
                    core.load(base, 8); // header touch
                    core.load(base + slot * 8, 8);
                }
                let _ = rep;
            }
            core.cycles()
        };
        let first = run(1);
        let last = run(28);
        assert!(
            first < last,
            "first-slot {first} should beat last-slot {last}"
        );
    }

    #[test]
    fn huge_mapped_code_beats_small_pages() {
        // 1 MiB of hot code, touched block-by-block: on 4 KiB pages the
        // footprint thrashes the first-level I-TLB; mapped huge it is one
        // page.
        let run = |map_huge: bool| {
            let mut core = CoreModel::default();
            if map_huge {
                core.map_huge_range(0, 1 << 20);
            }
            for rep in 0..10 {
                for i in 0..256u64 {
                    core.fetch(i * 4096, 64);
                }
                let _ = rep;
            }
            core.report()
        };
        let small = run(false);
        let huge = run(true);
        assert!(
            huge.itlb.misses < small.itlb.misses,
            "huge {} should miss less than small {}",
            huge.itlb.misses,
            small.itlb.misses
        );
        assert!(huge.cycles < small.cycles);
    }

    #[test]
    fn mispredicts_add_cycles() {
        let mut core = CoreModel::default();
        let before = core.cycles();
        let mut x: u64 = 12345;
        for _ in 0..1000 {
            x ^= x << 13;
            x ^= x >> 7;
            core.branch(0x400, x & 1 == 0);
        }
        assert!(core.cycles() > before);
        assert!(core.report().branch.misses > 0);
    }

    #[test]
    fn retire_accumulates_instructions_and_cycles() {
        let mut core = CoreModel::default();
        core.retire(100, 150);
        let r = core.report();
        assert_eq!(r.instructions, 100);
        assert_eq!(r.cycles, 150);
        core.reset_stats();
        assert_eq!(core.report().instructions, 0);
    }
}
