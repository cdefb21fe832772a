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
/// (§III point 2, §VI's kill switch).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JumpStartOptions {
    /// Master switch (the §VI last-resort kill switch).
    pub enabled: bool,
    /// Drive basic-block layout with Vasm-level counters from instrumented
    /// optimized code (§V-A) instead of tier-1-derived estimates.
    pub accurate_bb_weights: bool,
    /// Function sorting strategy.
    pub func_sort: FuncSort,
    /// Property reordering strategy.
    pub prop_reorder: PropReorder,
    /// Preload repo metadata in the package's load order before serving.
    pub preload_units: bool,
    /// Coverage threshold: minimum functions profiled (§VI-B).
    pub min_funcs_profiled: u64,
    /// Coverage threshold: minimum total counter mass (§VI-B).
    pub min_counter_mass: u64,
    /// Coverage threshold: minimum requests observed (§VI-B).
    pub min_requests: u64,
    /// Boot attempts with Jump-Start before falling back (§VI-A.3).
    pub max_boot_attempts: u32,
    /// Healthy-boot trials the validator simulates (§VI-A.1 "remains
    /// healthy for a few minutes").
    pub validation_trials: u32,
    /// Let consumers lint a package and attempt stale-profile repair
    /// instead of consuming structurally bad data blindly.
    pub lint_repair: bool,
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
            enabled: true,
            accurate_bb_weights: true,
            func_sort: FuncSort::C3InliningAware,
            prop_reorder: PropReorder::Hotness,
            preload_units: true,
            min_funcs_profiled: 10,
            min_counter_mass: 1_000,
            min_requests: 20,
            max_boot_attempts: 3,
            validation_trials: 8,
            lint_repair: true,
            early_serve_frac: 1.0,
        }
    }
}

impl JumpStartOptions {
    /// Jump-Start fully disabled (the paper's no-Jump-Start baseline).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Default::default()
        }
    }

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
        assert!(o.enabled && o.accurate_bb_weights && o.preload_units);
        assert!(o.lint_repair);
        assert_eq!(o.func_sort, FuncSort::C3InliningAware);
        assert_eq!(o.prop_reorder, PropReorder::Hotness);
    }

    #[test]
    fn fig6_baseline_turns_optimizations_off() {
        let o = JumpStartOptions::without_optimizations();
        assert!(o.enabled);
        assert!(!o.accurate_bb_weights);
        assert_eq!(o.prop_reorder, PropReorder::Off);
    }
}
