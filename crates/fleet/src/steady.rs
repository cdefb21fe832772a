//! Steady-state measurement lab (Figs. 5 and 6).
//!
//! Builds a Jump-Start package from a ground-truth profiling run, boots a
//! consumer under a chosen configuration, then replays production traffic
//! through the micro-architecture model and reports throughput (CPI) and
//! the Fig. 5 miss metrics. Configurations differ only in the §V knobs, so
//! every delta is attributable to one mechanism.

use jit::{Executor, ExecutorConfig, JitOptions};
use jumpstart::{
    build_package, consume, BootStats, FuncSort, JumpStartOptions, PropReorder, SeederInputs,
};
use uarch::MissReport;
use workload::{App, ProfileRun, RequestMix, RequestSampler};

/// A named steady-state configuration (one bar of Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SteadyConfig {
    /// Display name.
    pub name: &'static str,
    /// Jump-Start knobs.
    pub js: JumpStartOptions,
    /// Whether this models the *no-Jump-Start* server: same optimized
    /// code eventually, but first-touch metadata order instead of the
    /// package's hot-first preload.
    pub no_jumpstart: bool,
}

impl SteadyConfig {
    /// Full Jump-Start (all §V optimizations) — Fig. 5's "Jump-Start".
    pub fn jumpstart_full() -> Self {
        Self {
            name: "jumpstart",
            js: JumpStartOptions::default(),
            no_jumpstart: false,
        }
    }

    /// Jump-Start without the §V optimizations — Fig. 6's baseline.
    pub fn jumpstart_no_opts() -> Self {
        Self {
            name: "jumpstart-no-opts",
            js: JumpStartOptions::without_optimizations(),
            no_jumpstart: false,
        }
    }

    /// No Jump-Start at all — Fig. 5's baseline / Fig. 6's first bar.
    pub fn no_jumpstart() -> Self {
        Self {
            name: "no-jumpstart",
            js: JumpStartOptions::without_optimizations(),
            no_jumpstart: true,
        }
    }

    /// Baseline plus accurate basic-block layout only (Fig. 6 bar 2).
    pub fn bb_layout_only() -> Self {
        Self {
            name: "bb-layout",
            js: JumpStartOptions {
                accurate_bb_weights: true,
                ..JumpStartOptions::without_optimizations()
            },
            no_jumpstart: false,
        }
    }

    /// Baseline plus inlining-aware function sorting only (Fig. 6 bar 3).
    pub fn func_layout_only() -> Self {
        Self {
            name: "func-layout",
            js: JumpStartOptions {
                func_sort: FuncSort::C3InliningAware,
                ..JumpStartOptions::without_optimizations()
            },
            no_jumpstart: false,
        }
    }

    /// Baseline plus property reordering only (Fig. 6 bar 4).
    pub fn prop_reorder_only() -> Self {
        Self {
            name: "prop-reorder",
            js: JumpStartOptions {
                prop_reorder: PropReorder::Hotness,
                ..JumpStartOptions::without_optimizations()
            },
            no_jumpstart: false,
        }
    }
}

/// Steady-state measurement knobs.
#[derive(Clone, Copy, Debug)]
pub struct SteadyParams {
    /// Requests replayed before counters reset (cache/predictor warmup).
    pub warm_requests: usize,
    /// Requests measured.
    pub measure_requests: usize,
    /// Worker threads for the consumer compile.
    pub threads: usize,
    /// Replay RNG seed.
    pub seed: u64,
    /// JIT options shared by all configurations.
    pub jit: JitOptions,
}

impl Default for SteadyParams {
    fn default() -> Self {
        Self {
            warm_requests: 300,
            measure_requests: 1500,
            threads: 4,
            seed: 0xface,
            jit: JitOptions::default(),
        }
    }
}

/// One configuration's measurement.
#[derive(Clone, Debug)]
pub struct SteadyOutcome {
    /// Configuration name.
    pub name: &'static str,
    /// Micro-architectural report over the measured window.
    pub report: MissReport,
    /// Functions compiled to optimized code.
    pub compiled_funcs: usize,
    /// Optimized code bytes emitted.
    pub code_bytes: u64,
    /// Optimized hot-part code bytes (excludes stubs and huge-page
    /// padding, so totals are conserved across layout configs).
    pub hot_bytes: u64,
    /// Optimized cold-part code bytes.
    pub cold_bytes: u64,
    /// Boot-phase timeline of the consumer compile (decode, lint,
    /// translate busy/stall per worker, emit, early-serve crossing).
    pub boot: BootStats,
}

/// Measures one steady-state configuration.
///
/// # Panics
///
/// Panics if the package fails to consume (healthy inputs only).
pub fn measure_steady_state(
    app: &App,
    mix: &RequestMix,
    truth: &ProfileRun,
    config: &SteadyConfig,
    params: &SteadyParams,
) -> SteadyOutcome {
    // Seeder side: package from the ground-truth run under this config.
    let pkg = build_package(
        SeederInputs {
            repo: &app.repo,
            tier: truth.tier.clone(),
            ctx: truth.ctx.clone(),
            unit_order: truth.unit_order.clone(),
            requests: truth.requests,
            region: 0,
            bucket: 0,
            seeder_id: 1,
            now_ms: 0,
        },
        &config.js,
        &params.jit,
    );
    // Consumer side: compile everything under the config's knobs.
    let outcome = consume(&app.repo, &pkg, params.jit, &config.js, params.threads)
        .expect("healthy package consumes");

    // Replay traffic through the core model.
    let mut executor = Executor::new(
        &app.repo,
        &outcome.engine.code_cache,
        &truth.tier,
        &truth.ctx,
        ExecutorConfig {
            seed: params.seed,
            ..Default::default()
        },
    );
    if config.no_jumpstart {
        // First-touch order: what the server's own lazy loading produced.
        executor.set_unit_order(&truth.unit_order);
    } else {
        executor.set_unit_order(&pkg.preload.unit_order);
    }

    let mut sampler = RequestSampler::new(params.seed ^ 0x1234);
    for _ in 0..params.warm_requests {
        let (f, _) = sampler.request(app, mix);
        executor.run_call(f);
    }
    executor.reset_stats();
    for _ in 0..params.measure_requests {
        let (f, _) = sampler.request(app, mix);
        executor.run_call(f);
    }
    let sizes = outcome.engine.sizes();
    let hot_bytes = sizes.optimized_hot;
    let cold_bytes = sizes.optimized_cold;
    SteadyOutcome {
        name: config.name,
        report: executor.report(),
        compiled_funcs: outcome.compiled_funcs,
        code_bytes: outcome.compile_bytes,
        hot_bytes,
        cold_bytes,
        boot: outcome.boot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{generate, profile_run, AppParams};

    fn lab() -> (App, RequestMix, ProfileRun) {
        let app = generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 0, 0);
        let truth = profile_run(&app, &mix, 250, 21);
        (app, mix, truth)
    }

    fn quick() -> SteadyParams {
        SteadyParams {
            warm_requests: 100,
            measure_requests: 400,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn jumpstart_beats_no_jumpstart_in_steady_state() {
        // The tiny app's code fits in L1I, so the win comes from the data
        // side (property reordering): D-cache misses must drop clearly.
        // The full-size comparison lives in the figures/bench harness.
        let (app, mix, truth) = lab();
        let params = quick();
        let js = measure_steady_state(&app, &mix, &truth, &SteadyConfig::jumpstart_full(), &params);
        let nojs = measure_steady_state(&app, &mix, &truth, &SteadyConfig::no_jumpstart(), &params);
        assert!(
            (js.report.dcache.misses as f64) < 0.9 * nojs.report.dcache.misses as f64,
            "Jump-Start should cut D-cache misses: {} vs {}",
            js.report.dcache.misses,
            nojs.report.dcache.misses
        );
        assert!(js.compiled_funcs > 5);
    }

    #[test]
    fn bb_layout_changes_hot_cold_split() {
        // At tiny-app scale I-cache misses are single digits, so assert the
        // structural effect instead: accurate weights identify more cold
        // code (never-taken inlined arms) than tier-derived estimates.
        let (app, mix, truth) = lab();
        let params = quick();
        let base = measure_steady_state(
            &app,
            &mix,
            &truth,
            &SteadyConfig::jumpstart_no_opts(),
            &params,
        );
        let bb = measure_steady_state(&app, &mix, &truth, &SteadyConfig::bb_layout_only(), &params);
        assert_eq!(
            base.hot_bytes + base.cold_bytes,
            bb.hot_bytes + bb.cold_bytes
        );
        assert!(
            bb.cold_bytes >= base.cold_bytes,
            "accurate weights should move code cold: {} vs {}",
            bb.cold_bytes,
            base.cold_bytes
        );
        // And the runs still produce valid, nonzero measurements.
        assert!(bb.report.instructions > 10_000);
        assert!(base.report.instructions > 10_000);
    }

    #[test]
    fn prop_reorder_reduces_dcache_misses() {
        let (app, mix, truth) = lab();
        let params = quick();
        let base = measure_steady_state(
            &app,
            &mix,
            &truth,
            &SteadyConfig::jumpstart_no_opts(),
            &params,
        );
        let pr = measure_steady_state(
            &app,
            &mix,
            &truth,
            &SteadyConfig::prop_reorder_only(),
            &params,
        );
        let red = pr.report.reduction_vs(&base.report);
        assert!(red[3] > -2.0, "dcache reduction {red:?} should not regress");
    }

    #[test]
    fn measurements_are_deterministic() {
        let (app, mix, truth) = lab();
        let params = quick();
        let a = measure_steady_state(&app, &mix, &truth, &SteadyConfig::jumpstart_full(), &params);
        let b = measure_steady_state(&app, &mix, &truth, &SteadyConfig::jumpstart_full(), &params);
        assert_eq!(a.report.cycles, b.report.cycles);
        assert_eq!(a.code_bytes, b.code_bytes);
    }
}
