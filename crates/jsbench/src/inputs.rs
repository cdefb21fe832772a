//! Input generation. Everything a workload runs on is made here from
//! `--seed`; the product crates receive only generated inputs.
//!
//! The sizes are spelled out field by field (not taken from
//! `AppParams::bench()` or `crates/bench`'s `Lab`) so that a later edit to
//! either cannot silently move the benchmark's inputs.

use bytes::Bytes;
use jit::JitOptions;
use jumpstart::{build_package, JumpStartOptions, ProfilePackage, SeederInputs, Validator};
use workload::{
    build_sources, churn_sources, compile_sources, profile_run, App, AppParams, ChurnParams,
    ProfileRun, RequestMix,
};

use crate::spans::Recorder;

/// Input size. `Bench` is the benchmark of record; `Tiny` exists so the
/// crate's own tests run every workload in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// 120 endpoints, ~1060 functions, 600-request profiles.
    Bench,
    /// 12 endpoints, ~50 functions, 40-request profiles.
    Tiny,
}

impl Scale {
    /// The name printed in the output header.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Tiny => "tiny",
        }
    }

    /// Requests a seeder profiles before sealing a package.
    pub fn profile_requests(self) -> usize {
        match self {
            Scale::Bench => 600,
            Scale::Tiny => 40,
        }
    }

    /// Seeder/validator options. The tiny app cannot reach the production
    /// coverage floors, so it lowers them the way the fleet benches do,
    /// and validates with one trial boot so debug-build tests stay quick.
    pub fn js_opts(self) -> JumpStartOptions {
        match self {
            Scale::Bench => JumpStartOptions::default(),
            Scale::Tiny => JumpStartOptions {
                validation_trials: 1,
                ..small_app_js_opts()
            },
        }
    }

    /// Options of the seeders and validators inside a fleet deployment,
    /// which always pushes the small app.
    pub fn fleet_js_opts(self) -> JumpStartOptions {
        match self {
            Scale::Bench => small_app_js_opts(),
            Scale::Tiny => Scale::Tiny.js_opts(),
        }
    }
}

/// Coverage floors a ~50-function app can meet.
pub fn small_app_js_opts() -> JumpStartOptions {
    JumpStartOptions {
        min_funcs_profiled: 5,
        min_counter_mass: 100,
        min_requests: 10,
        ..Default::default()
    }
}

/// Churn rate between the prior and the current release (the repo's
/// model of ~3 pushes a day).
pub const PUSH_CHURN: f64 = 0.1;

/// The seeds a run uses, all derived from `--seed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Application generator.
    pub app: u64,
    /// Release churn.
    pub churn: u64,
    /// Seeder profiling traffic.
    pub profile: u64,
    /// Replay request sampler and executor.
    pub sampler: u64,
    /// Fleet deployment (stagger, jitter, fault placement).
    pub fleet: u64,
}

/// splitmix64's output function: one well-mixed word per input word.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    /// Derives every seed from the run seed. The app keeps the run seed
    /// itself, so `--seed 42` is today's bench-scale application.
    pub fn derive(seed: u64) -> Seeds {
        let sub = |k: u64| splitmix64(seed ^ splitmix64(k));
        Seeds {
            app: seed,
            churn: sub(1),
            profile: sub(2),
            sampler: sub(3),
            fleet: sub(4),
        }
    }
}

/// The application the package workloads run on.
pub fn app_params(scale: Scale, app_seed: u64) -> AppParams {
    match scale {
        Scale::Bench => AppParams {
            seed: app_seed,
            endpoints: 120,
            helpers_per_level: [260, 340, 260],
            classes: 64,
            props_per_class: 12,
            partitions: 10,
            zipf_s: 0.8,
        },
        Scale::Tiny => small_app_params(app_seed),
    }
}

/// The small application `fleet-push` deploys (and every workload uses at
/// [`Scale::Tiny`]): the fleet simulator prices compiles from a per-function
/// model, so a bigger app only lengthens seeding.
pub fn small_app_params(app_seed: u64) -> AppParams {
    AppParams {
        seed: app_seed,
        endpoints: 12,
        helpers_per_level: [10, 10, 8],
        classes: 6,
        props_per_class: 8,
        partitions: 4,
        zipf_s: 0.8,
    }
}

/// Generates and compiles one release; `churn` edits the sources first.
pub fn build_release(params: &AppParams, churn: Option<ChurnParams>, rec: &mut Recorder) -> App {
    let files = rec.time("workload.generate", || {
        let mut files = build_sources(params);
        if let Some(churn) = &churn {
            churn_sources(&mut files, churn);
        }
        files
    });
    rec.time("hackc.compile", || compile_sources(params, &files))
}

/// The current release: the prior one churned at [`PUSH_CHURN`].
pub fn current_release(params: &AppParams, seeds: &Seeds, rec: &mut Recorder) -> App {
    let churn = ChurnParams {
        seed: seeds.churn,
        rate: PUSH_CHURN,
    };
    build_release(params, Some(churn), rec)
}

/// Seeder inputs for cell (0, 0) from a profiling run. Clones the
/// profile, so callers that time the seeder build this beforehand.
pub fn seeder_inputs<'a>(app: &'a App, run: &ProfileRun) -> SeederInputs<'a> {
    SeederInputs {
        repo: &app.repo,
        tier: run.tier.clone(),
        ctx: run.ctx.clone(),
        unit_order: run.unit_order.clone(),
        requests: run.requests,
        region: 0,
        bucket: 0,
        seeder_id: 1,
        now_ms: 0,
    }
}

/// A package sealed by one seeder, with the run it was built from.
pub struct Sealed {
    /// The seeder's profiling run.
    pub run: ProfileRun,
    /// The package.
    pub pkg: ProfilePackage,
    /// Its serialized bytes — what crosses the wire.
    pub bytes: Bytes,
}

/// Profiles `app` under cell (0, 0) traffic and returns the run.
pub fn profile(app: &App, scale: Scale, seeds: &Seeds, rec: &mut Recorder) -> ProfileRun {
    let mix = RequestMix::new(app, 0, 0);
    rec.time("vm.profile", || {
        profile_run(app, &mix, scale.profile_requests(), seeds.profile)
    })
}

/// Profiles `app`, builds the package under `opts` and serializes it.
pub fn seal(
    app: &App,
    scale: Scale,
    seeds: &Seeds,
    opts: &JumpStartOptions,
    rec: &mut Recorder,
) -> Sealed {
    let run = profile(app, scale, seeds, rec);
    let (pkg, bytes) = seal_run(app, &run, opts, rec);
    Sealed { run, pkg, bytes }
}

/// Builds and serializes the package for an existing profiling run.
pub fn seal_run(
    app: &App,
    run: &ProfileRun,
    opts: &JumpStartOptions,
    rec: &mut Recorder,
) -> (ProfilePackage, Bytes) {
    let inputs = seeder_inputs(app, run);
    let pkg = rec.time("core.seeder.build", || {
        build_package(inputs, opts, &JitOptions::default())
    });
    let bytes = rec.time("core.wire.encode", || pkg.serialize());
    (pkg, bytes)
}

/// Whether the §VI-B validator accepts the sealed bytes for `app`.
pub fn validates(app: &App, bytes: &Bytes, opts: &JumpStartOptions, rec: &mut Recorder) -> bool {
    let validator = Validator::new(*opts, JitOptions::default());
    rec.time("core.validate", || validator.validate(&app.repo, bytes))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_from_each_other_and_by_run_seed() {
        let a = Seeds::derive(42);
        let b = Seeds::derive(7);
        let all = [a.app, a.churn, a.profile, a.sampler, a.fleet];
        for (i, x) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|y| y != x));
        }
        assert_ne!(a.churn, b.churn);
        assert_eq!(a, Seeds::derive(42));
    }

    #[test]
    fn bench_scale_is_todays_bench_app() {
        assert_eq!(app_params(Scale::Bench, 42), AppParams::bench());
        assert_eq!(small_app_params(7), AppParams::tiny());
    }
}
