//! Exactness property tests for the inline-template cache: for any
//! generated application, profile, weight source and inlining policy,
//! memoized translation (shared inline-body templates) must yield a
//! VasmUnit stream identical to direct translation, and a consumer boot
//! (which always splices templates, at any thread count) must emit a code
//! cache byte-identical to a template-free translate → plan → emit loop
//! staged here from public calls.

use jit::{
    plan_layout, translate_optimized, translate_optimized_with, InlineParams, JitEngine,
    JitOptions, TemplateSource, WeightSource,
};
use jumpstart::{build_package, consume, JumpStartOptions, SeederInputs, TemplateCache};
use proptest::prelude::*;
use workload::{generate, profile_run, AppParams, RequestMix};

fn no_slots(_c: bytecode::ClassId, _p: bytecode::StrId) -> Option<u16> {
    None
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
    }
}
