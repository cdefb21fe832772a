//! Set-associative cache with LRU replacement over recency-ordered ways.

use crate::metrics::AccessStats;

/// Geometry of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// 32 KiB, 64 B lines, 8-way — Broadwell L1.
    pub const L1: CacheConfig = CacheConfig {
        size_bytes: 32 * 1024,
        line_bytes: 64,
        ways: 8,
    };

    /// 2 MiB, 64 B lines, 16-way — a scaled-down LLC matching our
    /// scaled-down application footprint (see DESIGN.md §2).
    pub const LLC: CacheConfig = CacheConfig {
        size_bytes: 2 * 1024 * 1024,
        line_bytes: 64,
        ways: 16,
    };

    /// Number of sets implied by the geometry.
    pub const fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

// `Cache` cuts sets out of the address by mask: both shipped geometries
// must have power-of-two set counts.
const _: () = assert!(CacheConfig::L1.sets().is_power_of_two());
const _: () = assert!(CacheConfig::LLC.sets().is_power_of_two());

/// A set-associative cache. Tracks hits/misses; contents are tags only
/// (data values never matter for miss modeling).
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: address → line number.
    line_shift: u32,
    /// `log2(sets)`: line number → tag.
    set_shift: u32,
    /// `sets - 1`: line number → set.
    set_mask: u64,
    ways: usize,
    /// Set `s` is `tags[s * ways..(s + 1) * ways]`, most recently used
    /// first; `u64::MAX` = invalid (never-filled ways sit at the end).
    tags: Vec<u64>,
    stats: AccessStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size or the set count is not a power of two
    /// (sets and tags are cut from the address by shift and mask), or if
    /// the geometry has zero ways.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.ways > 0, "cache must have at least one way");
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two, got {sets}"
        );
        Self {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            ways: config.ways as usize,
            tags: vec![u64::MAX; (sets * config.ways) as usize],
            stats: AccessStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// `log2(line_bytes)`: the shift that turns an address into a line
    /// number.
    pub(crate) fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Accesses one byte address; returns `true` on hit. The whole line is
    /// filled on miss, evicting the set's least-recently-used way (a
    /// never-filled one while the set has any).
    ///
    /// Each set keeps its tags in recency order, so a hit moves the tag to
    /// the front and a miss drops the last way: the same hits and misses
    /// as stamping every way with a use tick and evicting the minimum.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        if self.tags[set * self.ways] == tag {
            return true;
        }
        self.refill(set, tag)
    }

    /// The rest of [`Cache::access`] once way 0 of `set` missed: an
    /// older way or a miss.
    fn refill(&mut self, set: usize, tag: u64) -> bool {
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        // Both shipped geometries get a body unrolled for their width.
        let hit = match ways.len() {
            8 => touch::<8>(ways.try_into().expect("8 ways"), tag),
            16 => touch::<16>(ways.try_into().expect("16 ways"), tag),
            _ => touch_any(ways, tag),
        };
        self.stats.misses += u64::from(!hit);
        hit
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Clears counters but keeps contents (to measure steady state after
    /// warmup).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

/// Looks `key` up in a recency-ordered set (most recently used first)
/// and moves it to the front; on a miss the last way drops out. Returns
/// `true` on hit. A hit at way 0 is one compare; otherwise every way is
/// compared and shifted without a data-dependent branch.
#[inline(always)]
pub(crate) fn touch<const W: usize>(ways: &mut [u64; W], key: u64) -> bool {
    if ways[0] == key {
        return true;
    }
    let mut way = W - 1;
    let mut hit = false;
    for (j, &k) in ways.iter().enumerate().skip(1) {
        if k == key {
            way = j;
            hit = true;
        }
    }
    let old = *ways;
    for j in 1..W {
        ways[j] = if j <= way { old[j - 1] } else { old[j] };
    }
    ways[0] = key;
    hit
}

/// [`touch`] for a set of any width.
fn touch_any(ways: &mut [u64], key: u64) -> bool {
    if ways[0] == key {
        return true;
    }
    let (hit, way) = match ways.iter().position(|&k| k == key) {
        Some(i) => (true, i),
        None => (false, ways.len() - 1),
    };
    ways.copy_within(..way, 1);
    ways[0] = key;
    hit
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::streams::run_heavy;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 bytes.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(15), "same line");
        assert!(!c.access(16), "next line");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines with (line % 4 == 0): addresses 0, 64, 128.
        c.access(0);
        c.access(64);
        c.access(0); // 0 is now MRU
        assert!(!c.access(128)); // evicts 64
        assert!(c.access(0), "0 must survive");
        assert!(!c.access(64), "64 was evicted");
    }

    /// The nested-`Vec` cache this module used to be: one vector of ways
    /// per set, sets and tags by division, each way stamped with a use
    /// tick and `min_by_key` eviction. Kept as the behavioral reference
    /// for the flat, recency-ordered version.
    pub(crate) struct NaiveCache {
        line_bytes: u64,
        sets: Vec<Vec<(u64, u64)>>,
        tick: u64,
        pub(crate) stats: AccessStats,
    }

    impl NaiveCache {
        pub(crate) fn new(config: CacheConfig) -> Self {
            Self {
                line_bytes: config.line_bytes as u64,
                sets: vec![vec![(u64::MAX, 0); config.ways as usize]; config.sets() as usize],
                tick: 0,
                stats: AccessStats::default(),
            }
        }

        pub(crate) fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            self.stats.accesses += 1;
            let line = addr / self.line_bytes;
            let set = (line % self.sets.len() as u64) as usize;
            let tag = line / self.sets.len() as u64;
            let ways = &mut self.sets[set];
            if let Some(w) = ways.iter_mut().find(|(t, _)| *t == tag) {
                w.1 = self.tick;
                return true;
            }
            self.stats.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|(_, last)| *last)
                .expect("ways is non-empty");
            *victim = (tag, self.tick);
            false
        }
    }

    #[test]
    fn flat_cache_matches_naive_reference_access_for_access() {
        let sixteen_way = CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 16,
        };
        let direct_mapped = CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 1,
        };
        for config in [
            CacheConfig::L1,
            sixteen_way,
            CacheConfig::LLC,
            direct_mapped,
        ] {
            let line_bytes = config.line_bytes as u64;
            // ~3x capacity of distinct lines, so sets keep evicting.
            let span = 3 * (config.size_bytes / config.line_bytes) as u64;
            // Uniform lines with an occasional far outlier, then the
            // run-heavy stream: repeats hit way 0, sequential walks cross
            // sets, and evictions still come from the wide span.
            let mut x: u64 = 0x9E37_79B9;
            let uniform: Vec<u64> = (0..60_000u64)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let line = if i % 97 == 0 { x % (1 << 40) } else { x % span };
                    line * line_bytes + x % line_bytes
                })
                .collect();
            let runs: Vec<u64> = run_heavy(0x5EED_CAFE, span, 60_000)
                .iter()
                .enumerate()
                .map(|(i, &line)| line * line_bytes + (i as u64 * 13) % line_bytes)
                .collect();
            for (name, stream) in [("uniform", uniform), ("run-heavy", runs)] {
                let mut fast = Cache::new(config);
                let mut naive = NaiveCache::new(config);
                for (i, &addr) in stream.iter().enumerate() {
                    assert_eq!(
                        fast.access(addr),
                        naive.access(addr),
                        "{name}: divergence at access {i} ({}-way)",
                        config.ways
                    );
                }
                assert_eq!(fast.stats(), naive.stats);
                assert!(naive.stats.misses > 0 && naive.stats.misses < naive.stats.accesses);
            }
        }
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_panics() {
        // 48 KiB / (64 B × 8 ways) = 96 sets.
        Cache::new(CacheConfig {
            size_bytes: 48 * 1024,
            line_bytes: 64,
            ways: 8,
        });
    }

    #[test]
    fn capacity_thrash_produces_misses() {
        let mut c = tiny();
        // Touch 3x capacity worth of distinct lines repeatedly: all misses
        // on a true-LRU cache with a cyclic pattern.
        for round in 0..3 {
            for line in 0..24u64 {
                c.access(line * 16);
            }
            let _ = round;
        }
        let s = c.stats();
        assert!(
            s.miss_rate() > 0.9,
            "cyclic thrash should keep missing, got {}",
            s.miss_rate()
        );
    }

    #[test]
    fn broadwell_l1_geometry() {
        assert_eq!(CacheConfig::L1.sets(), 64);
        let c = Cache::new(CacheConfig::L1);
        assert_eq!(c.config().ways, 8);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0), "contents survive reset");
    }
}
