//! The JIT engine: per-function tier state and the layout pipeline.
//!
//! Mirrors HHVM's lifecycle (paper §II, Fig. 3): functions start
//! interpreted, hot ones get *profiling* translations, a retranslate-all
//! event compiles everything profiled to *optimized* code (in function-
//! sorting order), and functions discovered later get *live* translations
//! until the code cache fills.

use std::collections::HashMap;

use bytecode::{ClassId, FuncId, Repo, StrId};
use layout::{split_hot_cold, ExtTspParams, LayoutPlanOptions};

use crate::code_cache::{CodeCache, CodeCacheConfig, TransKind};
use crate::profile::{CtxProfile, TierProfile};
use crate::translate::{
    translate_live, translate_optimized, translate_profiling, InlineParams, WeightSource,
};
use crate::vasm::VasmUnit;

/// Engine configuration — the knobs Figs. 5/6 toggle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JitOptions {
    /// Calls before a function is promoted to a profiling translation.
    pub profile_trigger_calls: u64,
    /// Inlining policy for optimized code.
    pub inline: InlineParams,
    /// Layout weight source (§V-A knob: accurate with Jump-Start).
    pub weights: WeightSource,
    /// Apply Ext-TSP block reordering (vs. source block order).
    pub use_exttsp: bool,
    /// Apply hot/cold splitting.
    pub use_hotcold: bool,
    /// Blocks at or below this weight are cold (with `use_hotcold`).
    pub cold_threshold: u64,
    /// Blocks below this fraction of entry weight are cold.
    pub cold_fraction: f64,
    /// Global layout passes: huge-page packing of hot text and whole-cache
    /// hot/cold exile (the fleet kill switch).
    pub plan: LayoutPlanOptions,
    /// Code cache capacities.
    pub cache: CodeCacheConfig,
}

impl Default for JitOptions {
    fn default() -> Self {
        Self {
            profile_trigger_calls: 2,
            inline: InlineParams::default(),
            weights: WeightSource::TierOnly,
            use_exttsp: true,
            use_hotcold: true,
            cold_threshold: 0,
            cold_fraction: 0.005,
            plan: LayoutPlanOptions::default(),
            cache: CodeCacheConfig::default(),
        }
    }
}

/// Per-function tier state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuncState {
    /// Interpreted; counts calls toward the profiling trigger.
    Interp {
        /// Calls seen so far.
        calls: u64,
    },
    /// Has a profiling translation.
    Profiling,
    /// Has an optimized translation.
    Optimized,
    /// Has a live translation (post-optimization discovery).
    Live,
}

/// Bytes of code produced, by kind — the Fig. 1 curve decomposed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileSizes {
    /// Profiling-translation bytes.
    pub profiling: u64,
    /// Optimized bytes (hot region).
    pub optimized_hot: u64,
    /// Optimized bytes (cold region).
    pub optimized_cold: u64,
    /// Live-translation bytes.
    pub live: u64,
}

impl CompileSizes {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.profiling + self.optimized_hot + self.optimized_cold + self.live
    }
}

/// A block layout computed for one optimized unit, ready to emit.
///
/// Produced by [`plan_layout`] — separated from emission so the expensive
/// Ext-TSP ordering can run on translation worker threads while the single
/// emitter thread only places bytes (the consumer boot pipeline).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayoutPlan {
    /// Blocks placed in the hot region, in order.
    pub hot: Vec<usize>,
    /// Blocks split off to the cold region, in order.
    pub cold: Vec<usize>,
    /// Total bytes of the hot blocks.
    pub hot_bytes: u64,
    /// Total bytes of the cold blocks.
    pub cold_bytes: u64,
}

impl LayoutPlan {
    /// Total bytes the plan will emit.
    pub fn total_bytes(&self) -> u64 {
        self.hot_bytes + self.cold_bytes
    }
}

/// Applies the configured block layout to a translated unit: Ext-TSP (or
/// source order) then hot/cold splitting (or none). Pure function of the
/// options and the unit, so it can run on any thread.
pub fn plan_layout(options: &JitOptions, unit: &VasmUnit) -> LayoutPlan {
    let blocks = unit.layout_blocks();
    let order: Vec<usize> = if options.use_exttsp {
        layout::exttsp_order(&blocks, &unit.layout_edges(), &ExtTspParams::default())
    } else {
        (0..blocks.len()).collect()
    };
    let (hot, cold) = if options.use_hotcold {
        let weights: Vec<u64> = blocks.iter().map(|b| b.weight).collect();
        let split = split_hot_cold(
            &order,
            &weights,
            options.cold_threshold,
            options.cold_fraction,
        );
        (split.hot, split.cold)
    } else {
        (order, Vec::new())
    };
    let hot_bytes = hot.iter().map(|&b| blocks[b].size as u64).sum();
    let cold_bytes = cold.iter().map(|&b| blocks[b].size as u64).sum();
    LayoutPlan {
        hot,
        cold,
        hot_bytes,
        cold_bytes,
    }
}

/// The engine.
#[derive(Debug)]
pub struct JitEngine<'r> {
    repo: &'r Repo,
    options: JitOptions,
    /// The code cache with all emitted translations.
    pub code_cache: CodeCache,
    states: Vec<FuncState>,
    sizes: CompileSizes,
    // Whether the retranslate-all event already happened.
    optimized_phase_done: bool,
}

impl<'r> JitEngine<'r> {
    /// Creates an engine for a deployed repo.
    pub fn new(repo: &'r Repo, options: JitOptions) -> Self {
        Self {
            repo,
            options,
            code_cache: CodeCache::with_plan(options.cache, options.plan),
            states: vec![FuncState::Interp { calls: 0 }; repo.funcs().len()],
            sizes: CompileSizes::default(),
            optimized_phase_done: false,
        }
    }

    /// The engine's options.
    pub fn options(&self) -> &JitOptions {
        &self.options
    }

    /// The tier state of a function.
    pub fn state(&self, func: FuncId) -> FuncState {
        self.states[func.index()]
    }

    /// Bytes emitted so far by kind.
    pub fn sizes(&self) -> CompileSizes {
        self.sizes
    }

    /// Whether retranslate-all has happened (point "A" of Fig. 1).
    pub fn optimized_phase_done(&self) -> bool {
        self.optimized_phase_done
    }

    /// Notes a call during serving; hot functions get profiling
    /// translations before the optimize event, live translations after.
    /// Returns the bytes of code emitted (0 if none).
    pub fn note_call(&mut self, func: FuncId, truth: &CtxProfile) -> u64 {
        match self.states[func.index()] {
            FuncState::Interp { calls } => {
                let calls = calls + 1;
                self.states[func.index()] = FuncState::Interp { calls };
                if calls < self.options.profile_trigger_calls {
                    return 0;
                }
                if self.optimized_phase_done {
                    self.compile_live(func, truth)
                } else {
                    self.compile_profiling(func, truth)
                }
            }
            _ => 0,
        }
    }

    fn compile_profiling(&mut self, func: FuncId, truth: &CtxProfile) -> u64 {
        let unit = translate_profiling(self.repo, func, truth);
        let bytes = unit.code_size() as u64;
        let order: Vec<usize> = (0..unit.blocks.len()).collect();
        if self
            .code_cache
            .emit(unit, TransKind::Profiling, &order, &[])
        {
            self.states[func.index()] = FuncState::Profiling;
            self.sizes.profiling += bytes;
            bytes
        } else {
            0
        }
    }

    /// Compiles one function to live code (tracelet JIT).
    pub fn compile_live(&mut self, func: FuncId, truth: &CtxProfile) -> u64 {
        let unit = translate_live(self.repo, func, truth);
        let bytes = unit.code_size() as u64;
        let order: Vec<usize> = (0..unit.blocks.len()).collect();
        if self.code_cache.emit(unit, TransKind::Live, &order, &[]) {
            self.states[func.index()] = FuncState::Live;
            self.sizes.live += bytes;
            bytes
        } else {
            0
        }
    }

    /// The retranslate-all event: compiles every profiled function to
    /// optimized code, in `func_order` (the function-sorting output),
    /// applying the configured layout pipeline. Returns total bytes.
    ///
    /// `slot_resolver` must reflect the installed property layout.
    pub fn optimize_all(
        &mut self,
        tier: &TierProfile,
        truth: &CtxProfile,
        func_order: &[FuncId],
        slot_resolver: &dyn Fn(ClassId, StrId) -> Option<u16>,
    ) -> u64 {
        let mut total = 0;
        for &func in func_order {
            total += self.optimize_one(func, tier, truth, slot_resolver);
        }
        self.optimized_phase_done = true;
        total
    }

    /// Compiles a single function to optimized code.
    pub fn optimize_one(
        &mut self,
        func: FuncId,
        tier: &TierProfile,
        truth: &CtxProfile,
        slot_resolver: &dyn Fn(ClassId, StrId) -> Option<u16>,
    ) -> u64 {
        if !tier.funcs.contains_key(&func) {
            return 0;
        }
        let unit = translate_optimized(
            self.repo,
            func,
            tier,
            truth,
            self.options.weights,
            self.options.inline,
            slot_resolver,
        );
        self.emit_optimized(unit)
    }

    /// Lays out and emits an already-translated optimized unit (used by
    /// the Jump-Start consumer, which translates in parallel and then
    /// emits in function order).
    pub fn emit_optimized(&mut self, unit: VasmUnit) -> u64 {
        let plan = plan_layout(&self.options, &unit);
        self.emit_planned(unit, &plan)
    }

    /// Emits an optimized unit whose layout was already planned (possibly
    /// on another thread via [`plan_layout`]). Returns bytes emitted.
    pub fn emit_planned(&mut self, unit: VasmUnit, plan: &LayoutPlan) -> u64 {
        let func = unit.func;
        // Optimized code replaces any profiling translation.
        self.code_cache.evict(func);
        if self
            .code_cache
            .emit(unit, TransKind::Optimized, &plan.hot, &plan.cold)
        {
            self.states[func.index()] = FuncState::Optimized;
            self.sizes.optimized_hot += plan.hot_bytes;
            self.sizes.optimized_cold += plan.cold_bytes;
            plan.total_bytes()
        } else {
            0
        }
    }

    /// Builds the §V-B function-sorting call graph and returns the C3
    /// order over `candidates`. With `inlining_aware`, arcs come from the
    /// context-sensitive entries (Jump-Start); otherwise from tier-1
    /// call-target profiles (which never see inlined frames).
    pub fn function_order(
        &self,
        candidates: &[FuncId],
        tier: &TierProfile,
        truth: &CtxProfile,
        inlining_aware: bool,
        use_c3: bool,
    ) -> Vec<FuncId> {
        if !use_c3 {
            return candidates.to_vec();
        }
        let index_of: HashMap<FuncId, usize> = candidates
            .iter()
            .enumerate()
            .map(|(i, &f)| (f, i))
            .collect();
        let nodes: Vec<layout::FuncNode> = candidates
            .iter()
            .map(|f| {
                let weight = tier
                    .funcs
                    .get(f)
                    .map(|p| p.block_counts.iter().sum::<u64>())
                    .unwrap_or(0);
                let size = (self.repo.func(*f).code.len() as u32) * 8;
                layout::FuncNode {
                    size: size.max(16),
                    weight,
                }
            })
            .collect();
        let mut arcs: Vec<layout::CallArc> = Vec::new();
        if inlining_aware {
            for (caller, callee, w) in truth.call_arcs() {
                if let (Some(&a), Some(&b)) = (index_of.get(&caller), index_of.get(&callee)) {
                    arcs.push(layout::CallArc {
                        caller: a,
                        callee: b,
                        weight: w,
                    });
                }
            }
        } else {
            // Tier-1 view: per-site target counts, but sites whose calls
            // were inlined by the optimizer still count here (tier-1 has no
            // inlining) — while the optimized code never calls them, making
            // this graph inaccurate for tier-2 code (§V-B). We model that
            // by keeping all arcs, including the ones inlining removed.
            for (&caller, fp) in &tier.funcs {
                let Some(&a) = index_of.get(&caller) else {
                    continue;
                };
                for &((_, callee), w) in fp.call_targets() {
                    if let Some(&b) = index_of.get(&callee) {
                        arcs.push(layout::CallArc {
                            caller: a,
                            callee: b,
                            weight: w,
                        });
                    }
                }
            }
        }
        layout::c3_order(&nodes, &arcs, 16384)
            .into_iter()
            .map(|i| candidates[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileCollector;
    use vm::{Value, Vm};

    const APP: &str = r#"
        function helper($x) { if ($x > 5) { return $x; } return $x * 2; }
        function main($n) {
            $s = 0;
            for ($i = 0; $i < $n; $i++) { $s += helper($i); }
            return $s;
        }
        function rarely_used($x) { return $x; }
    "#;

    fn profiled() -> (Repo, TierProfile, CtxProfile) {
        let repo = hackc::compile_unit("t.hl", APP).unwrap();
        let f = repo.func_by_name("main").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        for _ in 0..5 {
            vm.call_observed(f, &[Value::Int(40)], &mut col).unwrap();
            col.end_request();
        }
        let (tier, ctx) = col.finish();
        (repo, tier, ctx)
    }

    #[test]
    fn tier_progression_interp_profiling_optimized() {
        let (repo, tier, ctx) = profiled();
        let f = repo.func_by_name("main").unwrap().id;
        let mut engine = JitEngine::new(&repo, JitOptions::default());
        assert_eq!(engine.state(f), FuncState::Interp { calls: 0 });
        engine.note_call(f, &ctx);
        engine.note_call(f, &ctx);
        assert_eq!(engine.state(f), FuncState::Profiling);
        assert!(engine.sizes().profiling > 0);

        let order = tier.functions_by_heat();
        let bytes = engine.optimize_all(&tier, &ctx, &order, &|_, _| None);
        assert!(bytes > 0);
        assert_eq!(engine.state(f), FuncState::Optimized);
        assert!(engine.optimized_phase_done());
    }

    #[test]
    fn post_optimize_discovery_goes_live() {
        let (repo, tier, ctx) = profiled();
        let rare = repo.func_by_name("rarely_used").unwrap().id;
        let mut engine = JitEngine::new(&repo, JitOptions::default());
        let order = tier.functions_by_heat();
        engine.optimize_all(&tier, &ctx, &order, &|_, _| None);
        assert_eq!(engine.state(rare), FuncState::Interp { calls: 0 });
        engine.note_call(rare, &ctx);
        engine.note_call(rare, &ctx);
        assert_eq!(engine.state(rare), FuncState::Live);
        assert!(engine.sizes().live > 0);
    }

    #[test]
    fn hotcold_moves_bytes_to_cold_region() {
        let (repo, tier, ctx) = profiled();
        let order = tier.functions_by_heat();
        let mut with = JitEngine::new(&repo, JitOptions::default());
        with.optimize_all(&tier, &ctx, &order, &|_, _| None);
        let mut without = JitEngine::new(
            &repo,
            JitOptions {
                use_hotcold: false,
                ..Default::default()
            },
        );
        without.optimize_all(&tier, &ctx, &order, &|_, _| None);
        assert!(with.sizes().optimized_cold > 0);
        assert_eq!(without.sizes().optimized_cold, 0);
        assert_eq!(with.sizes().total(), without.sizes().total());
    }

    #[test]
    fn function_order_c3_vs_source() {
        let (repo, tier, ctx) = profiled();
        let engine = JitEngine::new(&repo, JitOptions::default());
        let cands = tier.functions_by_heat();
        let source = engine.function_order(&cands, &tier, &ctx, true, false);
        assert_eq!(source, cands);
        let c3 = engine.function_order(&cands, &tier, &ctx, true, true);
        let mut sorted = c3.clone();
        sorted.sort();
        let mut expect = cands.clone();
        expect.sort();
        assert_eq!(sorted, expect, "C3 output is a permutation of candidates");
    }

    #[test]
    fn unprofiled_functions_are_skipped_by_optimize() {
        let (repo, tier, ctx) = profiled();
        let rare = repo.func_by_name("rarely_used").unwrap().id;
        let mut engine = JitEngine::new(&repo, JitOptions::default());
        let bytes = engine.optimize_one(rare, &tier, &ctx, &|_, _| None);
        assert_eq!(bytes, 0);
        assert_eq!(engine.state(rare), FuncState::Interp { calls: 0 });
    }
}
