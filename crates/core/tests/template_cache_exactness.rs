//! Exactness property tests for the inline-template cache: for any
//! generated application, profile, weight source and inlining policy,
//! memoized translation (shared inline-body templates) must yield a
//! VasmUnit stream identical to direct translation, and a consumer boot
//! (which always splices templates, at any thread count) must emit a code
//! cache byte-identical to a template-free translate → plan → emit loop
//! staged here from public calls. The seeder's inlining-aware function
//! order, which splices templates too, must equal the order recomputed
//! here from uncached translations.

use std::collections::HashMap;

use bytecode::FuncId;
use jit::vasm::VInstr;
use jit::{
    plan_layout, translate_optimized, translate_optimized_with, CtxProfile, InlineParams,
    JitEngine, JitOptions, TemplateSource, TierProfile, WeightSource,
};
use jumpstart::{build_package, consume, JumpStartOptions, SeederInputs, TemplateCache};
use proptest::prelude::*;
use workload::{generate, profile_run, AppParams, RequestMix};

fn no_slots(_c: bytecode::ClassId, _p: bytecode::StrId) -> Option<u16> {
    None
}

/// The §V-B inlining-aware C3 order, from uncached translations: each
/// candidate's node weighs its units' estimated block weights, scaled by
/// the share of its entries still made as real calls (the arcs that
/// survive inlining) or as request entries.
fn inlining_aware_c3_order(
    repo: &bytecode::Repo,
    tier: &TierProfile,
    ctx: &CtxProfile,
    inline: InlineParams,
) -> Vec<FuncId> {
    let candidates = tier.functions_by_heat();
    let index_of: HashMap<FuncId, usize> = candidates
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i))
        .collect();
    let mut nodes = Vec::with_capacity(candidates.len());
    let mut arcs = Vec::new();
    for (i, &func) in candidates.iter().enumerate() {
        let unit = translate_optimized(
            repo,
            func,
            tier,
            ctx,
            WeightSource::Accurate,
            inline,
            &no_slots,
        );
        nodes.push(layout::FuncNode {
            size: unit.code_size().max(16),
            weight: unit.blocks.iter().map(|b| b.est_weight).sum(),
        });
        for block in &unit.blocks {
            let mut arc = |callee: FuncId, weight: u64| {
                if let Some(&j) = index_of.get(&callee) {
                    arcs.push(layout::CallArc {
                        caller: i,
                        callee: j,
                        weight,
                    });
                }
            };
            for &instr in unit.instrs_of(block) {
                match instr {
                    VInstr::CallStatic { callee } => arc(callee, block.est_weight),
                    VInstr::CallDynamic { owner, site } => {
                        let targets = tier
                            .funcs
                            .get(&owner)
                            .map_or(&[][..], |p| p.call_targets_at(site));
                        let total: u64 = targets.iter().map(|&(_, c)| c).sum();
                        for &((_, callee), c) in targets.iter().filter(|_| total > 0) {
                            arc(callee, block.est_weight * c / total);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    let mut incoming = vec![0u64; candidates.len()];
    for a in &arcs {
        incoming[a.callee] += a.weight;
    }
    for (node, (&func, &calls)) in nodes.iter_mut().zip(candidates.iter().zip(&incoming)) {
        let enter = tier.funcs.get(&func).map_or(0, |p| p.enter_count);
        if enter > 0 {
            let remaining = calls / 1024 + ctx.entry_count(None, func);
            let fraction = (remaining as f64 / enter as f64).min(1.0);
            node.weight = (node.weight as f64 * fraction) as u64;
        }
    }
    layout::c3_order(&nodes, &arcs, 4096)
        .into_iter()
        .map(|i| candidates[i])
        .collect()
}

proptest! {
    // Each case compiles a generated app from source; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn memoized_translation_is_byte_identical(
        seed in 1u64..400,
        accurate in any::<bool>(),
        mc_idx in 0usize..3,
        threads in 1usize..5,
        requests in 60usize..140,
    ) {
        let max_callee = [0usize, 24, 96][mc_idx];
        let params = AppParams { seed, ..AppParams::tiny() };
        let app = generate(&params);
        let mix = RequestMix::new(&app, 0, 0);
        let run = profile_run(&app, &mix, requests, seed ^ 0x5a);
        let weights = if accurate {
            WeightSource::Accurate
        } else {
            WeightSource::TierOnly
        };
        let inline = InlineParams {
            enabled: max_callee > 0,
            max_callee_instrs: max_callee.max(1),
            ..Default::default()
        };
        let jit_opts = JitOptions {
            weights,
            inline,
            ..Default::default()
        };

        // (1) Unit-stream identity: every profiled function translates to
        // the same VasmUnit whether inline bodies are re-translated per
        // site or spliced from the shared template cache — including
        // functions translated after the cache is warm.
        let templates = TemplateCache::default();
        for f in run.tier.functions_by_heat() {
            let direct = translate_optimized(
                &app.repo, f, &run.tier, &run.ctx, weights, inline, &no_slots,
            );
            let cached = translate_optimized_with(
                &app.repo,
                f,
                &run.tier,
                &run.ctx,
                weights,
                inline,
                &no_slots,
                Some(&templates as &dyn TemplateSource),
            );
            prop_assert_eq!(direct, cached, "unit diverged for {:?}", f);
        }

        // (2) Whole-boot digest identity: the boot (template cache, any
        // worker count) vs a sequential reference that re-translates every
        // inline site, over the same package, order and property slots.
        let js_opts = JumpStartOptions {
            accurate_bb_weights: accurate,
            ..Default::default()
        };
        let c3_oracle = inlining_aware_c3_order(&app.repo, &run.tier, &run.ctx, inline);
        let pkg = build_package(
            SeederInputs {
                repo: &app.repo,
                tier: run.tier,
                ctx: run.ctx,
                unit_order: run.unit_order,
                requests: run.requests,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &js_opts,
            &jit_opts,
        );
        let boot = consume(&app.repo, &pkg, jit_opts, &js_opts, threads)
            .expect("healthy package boots");
        let resolver =
            |c: bytecode::ClassId, p: bytecode::StrId| boot.prop_slots.get(&(c, p)).copied();
        let mut engine = JitEngine::new(&app.repo, jit_opts);
        let (mut compiled_funcs, mut compile_bytes) = (0usize, 0u64);
        prop_assert!(!pkg.func_order.is_empty());
        for &f in pkg.func_order.iter().filter(|f| pkg.tier.funcs.contains_key(f)) {
            let unit = translate_optimized(
                &app.repo, f, &pkg.tier, &pkg.ctx, weights, inline, &resolver,
            );
            let plan = plan_layout(&jit_opts, &unit);
            let bytes = engine.emit_planned(unit, &plan);
            compiled_funcs += usize::from(bytes > 0);
            compile_bytes += bytes;
        }
        prop_assert_eq!(
            boot.engine.code_cache.layout_digest(),
            engine.code_cache.layout_digest()
        );
        prop_assert_eq!(boot.compiled_funcs, compiled_funcs);
        prop_assert_eq!(boot.compile_bytes, compile_bytes);

        // (3) The seeder's order, translated through its own template
        // cache, is the order uncached translations give.
        prop_assert_eq!(&pkg.func_order, &c3_oracle);
    }
}
