//! The JIT engine: block layout and emission of a Jump-Start consumer's
//! optimized translations.
//!
//! A consumer translates every profiled function before it serves (paper
//! §IV-A), so the engine has one tier: optimized code, emitted in
//! function-sorting order. The lifecycle of a server that JITs while it
//! serves (interpreter, profiling translations, retranslate-all, live
//! translations; Fig. 1) has one model, `fleet::ServerSim`, which takes
//! its per-function code sizes from [`translate_profiling`] and
//! [`translate_live`].
//!
//! [`translate_profiling`]: crate::translate_profiling
//! [`translate_live`]: crate::translate_live

use std::collections::HashMap;

use bytecode::{FuncId, Repo};
use layout::{split_hot_cold, ExtTspParams, LayoutPlanOptions};

use crate::code_cache::{CodeCache, CodeCacheConfig};
use crate::profile::TierProfile;
use crate::translate::{InlineParams, WeightSource};
use crate::vasm::VasmUnit;

/// Blocks executed at most this many times are cold.
const COLD_THRESHOLD: u64 = 0;
/// Blocks executed less than this fraction of the entry block's count are
/// cold.
const COLD_FRACTION: f64 = 0.005;

/// Engine configuration — the knobs Figs. 5/6 toggle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JitOptions {
    /// Inlining policy for optimized code.
    pub inline: InlineParams,
    /// Layout weight source (§V-A knob: accurate with Jump-Start).
    ///
    /// A consumer boot (`jumpstart::consume` and the other two entry points)
    /// overwrites this field from `JumpStartOptions::accurate_bb_weights`,
    /// so it ignores the caller's value.
    pub weights: WeightSource,
    /// Global layout passes: huge-page packing of hot text and whole-cache
    /// hot/cold exile (the fleet kill switch).
    pub plan: LayoutPlanOptions,
    /// Code cache capacities.
    pub cache: CodeCacheConfig,
}

impl Default for JitOptions {
    fn default() -> Self {
        Self {
            inline: InlineParams::default(),
            weights: WeightSource::TierOnly,
            plan: LayoutPlanOptions::default(),
            cache: CodeCacheConfig::default(),
        }
    }
}

/// Bytes of optimized code emitted, by region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileSizes {
    /// Optimized bytes (hot region).
    pub optimized_hot: u64,
    /// Optimized bytes (cold region).
    pub optimized_cold: u64,
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

/// Lays out a translated unit: Ext-TSP block order, then hot/cold
/// splitting (a block is cold at count 0 or below 0.5% of the entry
/// block's count). Pure function of the unit, so it can run on any
/// thread.
///
/// `_options` is unused, since the block layout has no knob; the parameter
/// is kept because the `jsbench` benchmark calls this function with it.
pub fn plan_layout(_options: &JitOptions, unit: &VasmUnit) -> LayoutPlan {
    let blocks = unit.layout_blocks();
    let order = layout::exttsp_order(&blocks, &unit.layout_edges(), &ExtTspParams::default());
    let weights: Vec<u64> = blocks.iter().map(|b| b.weight).collect();
    let split = split_hot_cold(&order, &weights, COLD_THRESHOLD, COLD_FRACTION);
    let hot_bytes = split.hot.iter().map(|&b| blocks[b].size as u64).sum();
    let cold_bytes = split.cold.iter().map(|&b| blocks[b].size as u64).sum();
    LayoutPlan {
        hot: split.hot,
        cold: split.cold,
        hot_bytes,
        cold_bytes,
    }
}

/// The engine: a code cache of optimized translations and their sizes.
#[derive(Debug)]
pub struct JitEngine<'r> {
    repo: &'r Repo,
    /// The code cache with all emitted translations.
    pub code_cache: CodeCache,
    sizes: CompileSizes,
}

impl<'r> JitEngine<'r> {
    /// Creates an engine for a deployed repo.
    pub fn new(repo: &'r Repo, options: JitOptions) -> Self {
        Self {
            repo,
            code_cache: CodeCache::with_plan(options.cache, options.plan),
            sizes: CompileSizes::default(),
        }
    }

    /// Bytes emitted so far by region.
    pub fn sizes(&self) -> CompileSizes {
        self.sizes
    }

    /// Emits an optimized unit whose layout was already planned (possibly
    /// on another thread via [`plan_layout`]). Returns bytes emitted, 0
    /// when the code cache is full.
    pub fn emit_planned(&mut self, unit: VasmUnit, plan: &LayoutPlan) -> u64 {
        if self.code_cache.emit(unit, &plan.hot, &plan.cold) {
            self.sizes.optimized_hot += plan.hot_bytes;
            self.sizes.optimized_cold += plan.cold_bytes;
            plan.total_bytes()
        } else {
            0
        }
    }

    /// The C3 function order (§V-B) over `candidates`, built from the
    /// tier-1 call-target profiles. Sites whose calls the optimizer inlines
    /// still count here (tier-1 code has no inlining), while the optimized
    /// code never makes those calls; that is what makes this graph
    /// inaccurate for tier-2 code.
    pub fn tier_graph_order(&self, candidates: &[FuncId], tier: &TierProfile) -> Vec<FuncId> {
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
        layout::c3_order(&nodes, &arcs, 16384)
            .into_iter()
            .map(|i| candidates[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CtxProfile, ProfileCollector};
    use crate::translate::translate_optimized;
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
    fn hotcold_moves_bytes_to_cold_region() {
        let (repo, tier, ctx) = profiled();
        let options = JitOptions::default();
        let mut engine = JitEngine::new(&repo, options);
        let mut code_size = 0;
        for func in tier.functions_by_heat() {
            let unit = translate_optimized(
                &repo,
                func,
                &tier,
                &ctx,
                options.weights,
                options.inline,
                &|_, _| None,
            );
            code_size += unit.code_size() as u64;
            let plan = plan_layout(&options, &unit);
            assert_eq!(engine.emit_planned(unit, &plan), plan.total_bytes());
        }
        let sizes = engine.sizes();
        assert!(sizes.optimized_cold > 0, "some blocks go cold");
        assert_eq!(sizes.optimized_hot + sizes.optimized_cold, code_size);
    }

    #[test]
    fn tier_graph_order_permutes_the_candidates() {
        let (repo, tier, _) = profiled();
        let engine = JitEngine::new(&repo, JitOptions::default());
        let cands = tier.functions_by_heat();
        let mut c3 = engine.tier_graph_order(&cands, &tier);
        c3.sort();
        let mut expect = cands.clone();
        expect.sort();
        assert_eq!(c3, expect, "C3 output is a permutation of candidates");
    }
}
