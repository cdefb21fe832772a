//! Shared experiment plumbing for the `figures` and `js*` binaries: one
//! place that builds the bench-scale application, ground-truth profiles and
//! calibrated warmup parameters, so every regenerator measures exactly the
//! same setups.

use fleet::{build_app_model, AppModel, WarmupParams};
use jumpstart::{build_package, JumpStartOptions, ProfilePackage, SeederInputs};
use workload::{generate, profile_run, App, AppParams, ProfileRun, RequestMix};

/// Everything the evaluation experiments share.
pub struct Lab {
    /// The generated application.
    pub app: App,
    /// The measured traffic mix (region 0, bucket 0).
    pub mix: RequestMix,
    /// Ground-truth profiling run over the mix.
    pub truth: ProfileRun,
    /// A shorter, independent run standing in for a C2 seeder's limited
    /// profiling window (partial coverage, like production).
    pub seeder_run: ProfileRun,
    /// Measured per-function model for the warmup simulation.
    pub model: AppModel,
}

impl Lab {
    /// Builds the standard bench-scale lab (deterministic).
    pub fn bench_scale() -> Lab {
        Lab::with_params(&AppParams::bench(), 600)
    }

    /// Builds a smaller lab for quick smoke runs.
    pub fn small() -> Lab {
        Lab::with_params(&AppParams::tiny(), 250)
    }

    /// Builds a lab from explicit parameters.
    pub fn with_params(params: &AppParams, profile_requests: usize) -> Lab {
        let app = generate(params);
        let mix = RequestMix::new(&app, 0, 0);
        let truth = profile_run(&app, &mix, profile_requests, 21);
        let seeder_run = profile_run(&app, &mix, (profile_requests / 4).max(50), 22);
        let model = build_app_model(&app, &truth);
        Lab {
            app,
            mix,
            truth,
            seeder_run,
            model,
        }
    }

    /// A seeder package from the C2-window profiling run.
    pub fn package(&self, opts: &JumpStartOptions) -> ProfilePackage {
        build_package(
            SeederInputs {
                repo: &self.app.repo,
                tier: self.seeder_run.tier.clone(),
                ctx: self.seeder_run.ctx.clone(),
                unit_order: self.seeder_run.unit_order.clone(),
                requests: self.seeder_run.requests,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            opts,
            &jit::JitOptions::default(),
        )
    }

    /// The calibrated Fig. 4 (10-minute) warmup parameters for this app.
    pub fn warmup_fig4(&self) -> WarmupParams {
        WarmupParams {
            init_ms_nojs: 90_000,
            init_ms_js: 48_000,
            deserialize_ms: 8_000,
            profile_serve_ms: 200_000,
            relocation_ms: 60_000,
            promote_calls: 200,
            ..WarmupParams::fig4()
        }
        .with_compile_window(&self.model, 230_000)
    }

    /// The calibrated Fig. 1/2 (30-minute) lifecycle parameters.
    pub fn warmup_fig1(&self) -> WarmupParams {
        WarmupParams {
            init_ms_nojs: 120_000,
            profile_serve_ms: 340_000,
            relocation_ms: 150_000,
            promote_calls: 300,
            ..WarmupParams::fig1()
        }
        .with_compile_window(&self.model, 420_000)
    }
}
