//! Fully-associative, LRU translation look-aside buffers.
//!
//! Two models live here:
//!
//! * [`Tlb`] — a single-level, single-page-size TLB (used for the D-side).
//! * [`TlbHierarchy`] — a Broadwell-like two-level I-TLB with mixed page
//!   sizes: separate 4 KiB and 2 MiB first-level arrays backed by a shared
//!   second-level array that tracks the page size per entry. This is what
//!   makes huge-page hot-text packing observable in `MissReport`.
//!
//! Both are built on [`LruIndex`]: an [`AddrMap`] from key to slot plus an
//! intrusive doubly-linked LRU list over the slots, so lookup and eviction
//! are O(1) regardless of entry count and large second-level TLBs do not
//! make replay quadratic; a key that already is the most recently used one
//! returns before any hashing. Fill and eviction order exactly match the old
//! linear-scan + `min_by_key` implementation (empty slots claimed in index
//! order, then true LRU), which the parity test below pins down.

use crate::hash::AddrMap;
use crate::metrics::AccessStats;

const NIL: usize = usize::MAX;

/// Fully-associative LRU over opaque keys: O(1) `touch`.
#[derive(Clone, Debug)]
struct LruIndex {
    slot_of: AddrMap<usize>,
    key_of: Vec<u64>,
    prev: Vec<usize>,
    next: Vec<usize>,
    /// Least-recently-used live slot.
    head: usize,
    /// Most-recently-used live slot.
    tail: usize,
    /// Next never-used slot (claimed in index order, like the old
    /// `min_by_key` over zero-initialized ticks).
    next_free: usize,
}

impl LruIndex {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU needs at least one slot");
        Self {
            slot_of: AddrMap::with_capacity_and_hasher(capacity, Default::default()),
            key_of: vec![0; capacity],
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            next_free: 0,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n] = p;
        }
    }

    fn push_mru(&mut self, slot: usize) {
        self.prev[slot] = self.tail;
        self.next[slot] = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.next[self.tail] = slot;
        }
        self.tail = slot;
    }

    /// Looks up `key`, marking it most-recently-used; on miss, inserts it
    /// (evicting the LRU key if full). Returns `true` on hit. A key that
    /// already is the most recently used returns before any hashing.
    #[inline]
    fn touch(&mut self, key: u64) -> bool {
        if self.tail != NIL && self.key_of[self.tail] == key {
            return true;
        }
        self.touch_slow(key)
    }

    /// The hashing rest of [`LruIndex::touch`].
    fn touch_slow(&mut self, key: u64) -> bool {
        if let Some(&slot) = self.slot_of.get(&key) {
            if self.tail != slot {
                self.unlink(slot);
                self.push_mru(slot);
            }
            return true;
        }
        let slot = if self.next_free < self.key_of.len() {
            let s = self.next_free;
            self.next_free += 1;
            s
        } else {
            let s = self.head;
            self.slot_of.remove(&self.key_of[s]);
            self.unlink(s);
            s
        };
        self.key_of[slot] = key;
        self.slot_of.insert(key, slot);
        self.push_mru(slot);
        false
    }
}

/// A TLB with a fixed number of page entries over one page size.
#[derive(Clone, Debug)]
pub struct Tlb {
    index: LruIndex,
    /// `log2(page_bytes)`: address → page number.
    page_shift: u32,
    stats: AccessStats,
}

impl Tlb {
    /// Creates a TLB with `entries` slots over `page_bytes`-sized pages.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `page_bytes` is not a power of two.
    pub fn new(entries: u32, page_bytes: u64) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        Self {
            index: LruIndex::new(entries as usize),
            page_shift: page_bytes.trailing_zeros(),
            stats: AccessStats::default(),
        }
    }

    /// Translates one address; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let hit = self.index.touch(addr >> self.page_shift);
        if !hit {
            self.stats.misses += 1;
        }
        hit
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Clears counters but keeps contents.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

/// Which level of [`TlbHierarchy`] satisfied a translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbLevel {
    /// First-level hit (free).
    L1,
    /// First-level miss, second-level hit (small penalty).
    L2,
    /// Missed both levels: full page walk.
    Walk,
}

/// Two-level I-TLB with mixed page sizes.
///
/// First level: separate arrays for 4 KiB and 2 MiB pages (Broadwell
/// carries 64 small-page and 8 huge-page I-TLB entries). Second level: one
/// shared array whose entries track their page size, so a huge-page
/// translation never aliases a small-page one. The caller decides per
/// access which page size maps the address (the code cache publishes its
/// huge-text range).
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    l1_small: Tlb,
    l1_huge: Tlb,
    l2: LruIndex,
    l2_stats: AccessStats,
    small_page_bytes: u64,
    huge_page_bytes: u64,
}

impl TlbHierarchy {
    /// Creates a hierarchy; `l1_small`/`l1_huge`/`l2` are entry counts.
    ///
    /// # Panics
    ///
    /// Panics if any entry count is zero or a page size is not a power of
    /// two.
    pub fn new(
        l1_small: u32,
        l1_huge: u32,
        l2: u32,
        small_page_bytes: u64,
        huge_page_bytes: u64,
    ) -> Self {
        assert!(l2 > 0, "L2 TLB needs at least one entry");
        assert!(
            small_page_bytes.is_power_of_two() && huge_page_bytes.is_power_of_two(),
            "page sizes must be powers of two"
        );
        Self {
            l1_small: Tlb::new(l1_small, small_page_bytes),
            l1_huge: Tlb::new(l1_huge, huge_page_bytes),
            l2: LruIndex::new(l2 as usize),
            l2_stats: AccessStats::default(),
            small_page_bytes,
            huge_page_bytes,
        }
    }

    /// Translates `addr`, which lives on a huge page iff `huge`.
    #[inline]
    pub fn access(&mut self, addr: u64, huge: bool) -> TlbLevel {
        let l1 = if huge {
            &mut self.l1_huge
        } else {
            &mut self.l1_small
        };
        if l1.access(addr) {
            return TlbLevel::L1;
        }
        // Shared L2, page size tracked per entry: key = (page, size class).
        // Page numbers use at most 52 bits, so the tag bit is free.
        let page_bytes = if huge {
            self.huge_page_bytes
        } else {
            self.small_page_bytes
        };
        let key = (addr / page_bytes) << 1 | huge as u64;
        self.l2_stats.accesses += 1;
        if self.l2.touch(key) {
            TlbLevel::L2
        } else {
            self.l2_stats.misses += 1;
            TlbLevel::Walk
        }
    }

    /// Combined first-level counters (accesses = translations, misses =
    /// first-level misses) — the "iTLB miss rate" number.
    pub fn l1_stats(&self) -> AccessStats {
        self.l1_small.stats() + self.l1_huge.stats()
    }

    /// Second-level counters (accesses = first-level misses, misses = full
    /// page walks).
    pub fn l2_stats(&self) -> AccessStats {
        self.l2_stats
    }

    /// Clears counters but keeps contents.
    pub fn reset_stats(&mut self) {
        self.l1_small.reset_stats();
        self.l1_huge.reset_stats();
        self.l2_stats = AccessStats::default();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::streams::run_heavy;

    /// Broadwell-like I-TLB: 64×4 KiB + 8×2 MiB first level, 1024-entry
    /// shared second level (the geometry `CoreParams::default` builds).
    fn broadwell_itlb() -> TlbHierarchy {
        TlbHierarchy::new(64, 8, 1024, 4096, 2 << 20)
    }

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4, 4096);
        assert!(!t.access(100));
        assert!(t.access(4095));
        assert!(!t.access(4096));
    }

    #[test]
    fn lru_eviction_over_capacity() {
        let mut t = Tlb::new(2, 4096);
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // page 0 MRU
        assert!(!t.access(8192)); // evicts page 1
        assert!(t.access(0));
        assert!(!t.access(4096));
    }

    #[test]
    fn stats_accumulate() {
        let mut t = Tlb::new(64, 4096);
        for i in 0..100u64 {
            t.access(i * 4096);
        }
        assert_eq!(t.stats().accesses, 100);
        assert_eq!(t.stats().misses, 100);
        t.reset_stats();
        assert_eq!(t.stats().accesses, 0);
    }

    /// The old O(entries) implementation: linear scan + `min_by_key`
    /// eviction over (page, last-use-tick) pairs. Kept as the behavioral
    /// reference for the indexed version.
    pub(crate) struct NaiveTlb {
        entries: Vec<(u64, u64)>,
        page_bytes: u64,
        tick: u64,
        pub(crate) stats: AccessStats,
    }

    impl NaiveTlb {
        pub(crate) fn new(entries: u32, page_bytes: u64) -> Self {
            Self {
                entries: vec![(u64::MAX, 0); entries as usize],
                page_bytes,
                tick: 0,
                stats: AccessStats::default(),
            }
        }

        pub(crate) fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            self.stats.accesses += 1;
            let page = addr / self.page_bytes;
            if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
                e.1 = self.tick;
                return true;
            }
            self.stats.misses += 1;
            let victim = self
                .entries
                .iter_mut()
                .min_by_key(|(_, last)| *last)
                .expect("entries non-empty");
            *victim = (page, self.tick);
            false
        }
    }

    #[test]
    fn indexed_tlb_matches_naive_reference_access_for_access() {
        // Pseudo-random but deterministic address streams with enough page
        // reuse to exercise hits, refills, and repeated evictions: uniform
        // pages, then runs that repeat one page back to back (the MRU fast
        // path) and walk consecutive pages.
        for entries in [1u32, 2, 3, 8, 64] {
            // ~3x entries distinct pages; occasional far outlier.
            let span = entries as u64 * 3 + 1;
            let mut x: u64 = 0x9E37_79B9;
            let uniform: Vec<u64> = (0..20_000u64)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let page = if i % 97 == 0 { x % 10_000 } else { x % span };
                    page * 4096 + (x % 4096)
                })
                .collect();
            let runs: Vec<u64> = run_heavy(0x7AB1_E5EED, span, 20_000)
                .iter()
                .enumerate()
                .map(|(i, &page)| page * 4096 + (i as u64 * 97) % 4096)
                .collect();
            for (name, stream) in [("uniform", uniform), ("run-heavy", runs)] {
                let mut fast = Tlb::new(entries, 4096);
                let mut naive = NaiveTlb::new(entries, 4096);
                for (i, &addr) in stream.iter().enumerate() {
                    assert_eq!(
                        fast.access(addr),
                        naive.access(addr),
                        "{name}: divergence at access {i} (entries {entries})"
                    );
                }
                assert_eq!(fast.stats(), naive.stats);
            }
        }
    }

    #[test]
    fn hierarchy_l2_catches_l1_evictions() {
        // 2-entry small L1, big L2: cycling 3 pages misses L1 constantly
        // but hits L2 once warm.
        let mut h = TlbHierarchy::new(2, 1, 64, 4096, 2 << 20);
        for _ in 0..2 {
            for p in 0..3u64 {
                h.access(p * 4096, false);
            }
        }
        let l1 = h.l1_stats();
        let l2 = h.l2_stats();
        assert_eq!(l1.accesses, 6);
        assert!(l1.misses > 3, "L1 keeps missing on a 3-page cycle");
        assert_eq!(l2.accesses, l1.misses);
        assert_eq!(l2.misses, 3, "only the cold fills walk");
    }

    #[test]
    fn huge_pages_collapse_small_page_pressure() {
        // 1 MiB of hot code touched page-by-page: 256 small pages thrash a
        // 64-entry L1, but fit entirely in one huge page.
        let run = |huge: bool| {
            let mut h = broadwell_itlb();
            for rep in 0..4 {
                for i in 0..256u64 {
                    h.access(i * 4096, huge);
                }
                let _ = rep;
            }
            h.l1_stats()
        };
        let small = run(false);
        let huge = run(true);
        assert_eq!(small.misses, 1024, "256 pages > 64 entries: all miss");
        assert_eq!(huge.misses, 1, "one huge page: one cold miss");
    }

    #[test]
    fn l2_entries_distinguish_page_sizes() {
        let mut h = TlbHierarchy::new(1, 1, 8, 4096, 2 << 20);
        // Address 0 as a small page, then as a huge page: different L2
        // keys, so the huge access still walks.
        h.access(0, false);
        assert_eq!(h.access(0, true), TlbLevel::Walk);
    }

    #[test]
    fn hierarchy_reset_clears_counters_only() {
        let mut h = broadwell_itlb();
        h.access(0, false);
        h.reset_stats();
        assert_eq!(h.l1_stats(), AccessStats::default());
        assert_eq!(h.l2_stats(), AccessStats::default());
        // Contents survive: same page hits immediately.
        assert_eq!(h.access(0, false), TlbLevel::L1);
    }
}
