//! Jump-Start configuration knobs.

/// Function-sorting strategy (§V-B knob).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FuncSort {
    /// C3 over the inlining-aware call graph from instrumented optimized
    /// code — what Jump-Start enables.
    #[default]
    C3InliningAware,
    /// C3 over the tier-1 call graph (pre-Jump-Start HHVM).
    C3TierOnly,
    /// Compile order = hotness order, no clustering (ablation baseline).
    SourceOrder,
}

/// Property-reordering strategy (§V-C knob).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PropReorder {
    /// Keep declared order.
    Off,
    /// Sort by access hotness (the paper's shipped design).
    #[default]
    Hotness,
    /// Group by co-access affinity (the paper's "future work" extension).
    Affinity,
}

/// All Jump-Start options. HHVM exposes these as runtime configuration
/// (§III point 2). A server runs without Jump-Start by being given no
/// package, not by an option here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JumpStartOptions {
    /// Drive basic-block layout with Vasm-level counters from instrumented
    /// optimized code (§V-A) instead of tier-1-derived estimates.
    pub accurate_bb_weights: bool,
    /// Function sorting strategy.
    pub func_sort: FuncSort,
    /// Property reordering strategy.
    pub prop_reorder: PropReorder,
    /// Coverage threshold: minimum functions profiled (§VI-B).
    pub min_funcs_profiled: u64,
    /// Coverage threshold: minimum total counter mass (§VI-B).
    pub min_counter_mass: u64,
    /// Coverage threshold: minimum requests observed (§VI-B).
    pub min_requests: u64,
    /// Healthy-boot trials the validator simulates (§VI-A.1 "remains
    /// healthy for a few minutes").
    pub validation_trials: u32,
    /// Hottest-first early-serve threshold: the consumer boot reports
    /// ready once the emitted prefix of the compile order covers this
    /// fraction of the tier profile's heat mass; the remainder compiles
    /// in the background while serving. `1.0` (default) keeps the paper's
    /// compile-everything-before-serving behavior (§IV-A).
    pub early_serve_frac: f64,
}

impl Default for JumpStartOptions {
    fn default() -> Self {
        Self {
            accurate_bb_weights: true,
            func_sort: FuncSort::C3InliningAware,
            prop_reorder: PropReorder::Hotness,
            min_funcs_profiled: 10,
            min_counter_mass: 1_000,
            min_requests: 20,
            validation_trials: 8,
            early_serve_frac: 1.0,
        }
    }
}

impl JumpStartOptions {
    /// Jump-Start on, but with none of the §V steady-state optimizations —
    /// Fig. 6's baseline configuration.
    pub fn without_optimizations() -> Self {
        Self {
            accurate_bb_weights: false,
            func_sort: FuncSort::C3TierOnly,
            prop_reorder: PropReorder::Off,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_optimizations() {
        let o = JumpStartOptions::default();
        assert!(o.accurate_bb_weights);
        assert_eq!(o.func_sort, FuncSort::C3InliningAware);
        assert_eq!(o.prop_reorder, PropReorder::Hotness);
    }

    #[test]
    fn fig6_baseline_turns_optimizations_off() {
        let o = JumpStartOptions::without_optimizations();
        assert!(!o.accurate_bb_weights);
        assert_eq!(o.prop_reorder, PropReorder::Off);
    }
}
