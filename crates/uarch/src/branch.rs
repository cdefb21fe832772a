//! A gshare branch direction predictor.

use crate::cache::touch;
use crate::metrics::AccessStats;

/// BTB geometry: 128 sets (a power of two, so the set is a mask) of 4 ways.
const BTB_SETS: usize = 128;
const BTB_WAYS: usize = 4;

/// Gshare direction predictor plus a set-associative BTB.
///
/// Direction comes from a table of 2-bit saturating counters indexed by
/// `pc ^ global_history`. *Taken* branches additionally need a BTB entry
/// to redirect the front end; a BTB miss costs like a misprediction. This
/// is the mechanism by which basic-block layout affects the branch-miss
/// metric (paper Fig. 5): layouts that turn hot edges into fallthroughs
/// need fewer BTB entries.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    table: Vec<u8>,
    history: u64,
    history_bits: u32,
    /// BTB: sets of branch pcs, most recently used first; `u64::MAX` =
    /// invalid.
    btb: Vec<[u64; BTB_WAYS]>,
    stats: AccessStats, // misses = mispredictions + BTB misses on taken
}

impl BranchPredictor {
    /// Creates a predictor with `table_bits` of counters and
    /// `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `table_bits` is zero or larger than 24.
    pub fn new(table_bits: u32, history_bits: u32) -> Self {
        assert!(
            table_bits > 0 && table_bits <= 24,
            "table_bits out of range"
        );
        Self {
            table: vec![1; 1 << table_bits], // weakly not-taken
            history: 0,
            history_bits: history_bits.min(table_bits),
            btb: vec![[u64::MAX; BTB_WAYS]; BTB_SETS],
            stats: AccessStats::default(),
        }
    }

    /// A 4096-entry predictor with 8 bits of history.
    pub fn default_size() -> Self {
        Self::new(12, 8)
    }

    /// Records the outcome of the branch at `pc`; returns `true` if the
    /// prediction (direction *and* target, for taken branches) was right.
    #[inline]
    pub fn branch(&mut self, pc: u64, taken: bool) -> bool {
        self.stats.accesses += 1;
        let mask = (self.table.len() - 1) as u64;
        let hist = self.history & ((1u64 << self.history_bits) - 1);
        let idx = ((pc >> 2) ^ hist) & mask;
        let ctr = &mut self.table[idx as usize];
        let predicted_taken = *ctr >= 2;
        let mut correct = predicted_taken == taken;
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.history = (self.history << 1) | taken as u64;
        // Taken branches need a BTB hit to redirect the front end.
        if taken && !self.btb_access(pc) {
            correct = false;
        }
        if !correct {
            self.stats.misses += 1;
        }
        correct
    }

    /// Looks `pc` up in its BTB set, moving it to the front; a miss
    /// drops the set's least-recently-used way.
    fn btb_access(&mut self, pc: u64) -> bool {
        touch(&mut self.btb[(pc >> 2) as usize & (BTB_SETS - 1)], pc)
    }

    /// Prediction counters (`misses` are mispredictions).
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Clears counters but keeps learned state.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::streams::run_heavy;

    /// The predictor with the BTB this module used to have: each way a
    /// `(pc, last_use)` pair stamped from a global tick, `min_by_key`
    /// eviction. Kept as the behavioral reference for the recency-ordered
    /// sets.
    pub(crate) struct TickBranchPredictor {
        table: Vec<u8>,
        history: u64,
        history_bits: u32,
        btb: Vec<[(u64, u64); BTB_WAYS]>,
        btb_tick: u64,
        pub(crate) stats: AccessStats,
    }

    impl TickBranchPredictor {
        pub(crate) fn new(table_bits: u32, history_bits: u32) -> Self {
            Self {
                table: vec![1; 1 << table_bits],
                history: 0,
                history_bits: history_bits.min(table_bits),
                btb: vec![[(u64::MAX, 0); BTB_WAYS]; BTB_SETS],
                btb_tick: 0,
                stats: AccessStats::default(),
            }
        }

        pub(crate) fn branch(&mut self, pc: u64, taken: bool) -> bool {
            self.stats.accesses += 1;
            let mask = (self.table.len() - 1) as u64;
            let hist = self.history & ((1u64 << self.history_bits) - 1);
            let ctr = &mut self.table[(((pc >> 2) ^ hist) & mask) as usize];
            let mut correct = (*ctr >= 2) == taken;
            if taken {
                *ctr = (*ctr + 1).min(3);
            } else {
                *ctr = ctr.saturating_sub(1);
            }
            self.history = (self.history << 1) | taken as u64;
            if taken && !self.btb_access(pc) {
                correct = false;
            }
            if !correct {
                self.stats.misses += 1;
            }
            correct
        }

        fn btb_access(&mut self, pc: u64) -> bool {
            self.btb_tick += 1;
            let ways = &mut self.btb[(pc >> 2) as usize & (BTB_SETS - 1)];
            if let Some(w) = ways.iter_mut().find(|(t, _)| *t == pc) {
                w.1 = self.btb_tick;
                return true;
            }
            let victim = ways
                .iter_mut()
                .min_by_key(|(_, last)| *last)
                .expect("non-empty");
            *victim = (pc, self.btb_tick);
            false
        }
    }

    #[test]
    fn btb_matches_tick_lru_reference() {
        // Branch sites 4 bytes apart over ~3x the BTB's 512 entries, so
        // sets keep evicting; runs repeat one site back to back (way-0
        // hits) and walk neighbouring sets. Mostly taken, so the BTB is
        // consulted on most branches.
        let sites = run_heavy(0xB7B0_5EED, 3 * (BTB_SETS * BTB_WAYS) as u64, 80_000);
        let mut fast = BranchPredictor::default_size();
        let mut reference = TickBranchPredictor::new(12, 8);
        let mut x: u64 = 0x2545_F491;
        for (i, &site) in sites.iter().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (pc, taken) = (0x1000_0000 + site * 4, !x.is_multiple_of(8));
            assert_eq!(
                fast.branch(pc, taken),
                reference.branch(pc, taken),
                "divergence at branch {i}"
            );
        }
        assert_eq!(fast.stats(), reference.stats);
        let s = reference.stats;
        assert!(s.misses > 1000 && s.misses < s.accesses / 2, "{s:?}");
    }

    #[test]
    fn learns_a_monotone_branch() {
        let mut bp = BranchPredictor::default_size();
        // After warmup, an always-taken branch should predict correctly.
        for _ in 0..10 {
            bp.branch(0x1000, true);
        }
        bp.reset_stats();
        for _ in 0..100 {
            bp.branch(0x1000, true);
        }
        assert_eq!(bp.stats().misses, 0);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut bp = BranchPredictor::new(12, 8);
        let mut taken = false;
        for _ in 0..200 {
            bp.branch(0x2000, taken);
            taken = !taken;
        }
        bp.reset_stats();
        for _ in 0..100 {
            bp.branch(0x2000, taken);
            taken = !taken;
        }
        assert!(
            bp.stats().miss_rate() < 0.1,
            "history should capture period-2 patterns, got {}",
            bp.stats().miss_rate()
        );
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut bp = BranchPredictor::default_size();
        // Deterministic pseudo-random outcomes.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            bp.branch(0x3000, x & 1 == 1);
        }
        assert!(bp.stats().miss_rate() > 0.3);
    }
}
