//! Single-server warmup simulation.
//!
//! A per-second model of one web server's life after a restart,
//! following Fig. 3's workflows exactly:
//!
//! * **No Jump-Start** (Fig. 3a): init (sequential warmup requests) →
//!   serve; hot functions get profiling translations; after the profiling
//!   request target, a retranslate-all event compiles every profiled
//!   function on background JIT threads (point A→B), then relocation
//!   (B→C); newly discovered functions get live translations.
//! * **Consumer** (Fig. 3c): deserialize → preload units → compile all
//!   optimized code on *all* cores → serve near peak immediately.
//!
//! Requests compete with compilation for cores; service time per request
//! follows each touched function's current execution mode. Everything
//! dynamic (what compiles when, how much code, how slow interp is) comes
//! from the measured [`AppModel`].
//!
//! [`run_server`] is the entry point: the step-skipping driver every
//! caller goes through. The boot window is closed-form, the server is
//! then stepped once per simulated second only while *active*
//! (compiling, loading, promoting), and as soon as
//! [`sim::ServerSim::quiescent`] proves the remaining timeline constant,
//! the tail is replicated without further stepping. The per-server state
//! machine lives in [`sim::ServerSim`] and steps over a read-only
//! [`sim::ServerPlan`] (the flat call terms, each package's boot prefix,
//! the quiescence watch): `run_server` builds one per call, a deployment
//! one per cell for all of the cell's servers. The dense stepper lives
//! on as [`reference::simulate_warmup_dense`], the equivalence oracle.

pub mod reference;
mod sim;

use workload::{App, RequestMix};

use crate::metrics::{Sample, Timeline};
use crate::model::{AppModel, WarmupParams};

pub use sim::ServerConfig;
pub(crate) use sim::ServerPlan;
use sim::ServerSim;

/// The per-second step quantum shared by both drivers (ms).
pub(crate) const STEP_MS: u64 = 1000;

/// Outcome of one server's simulated life.
#[derive(Clone, Debug)]
pub struct ServerRun {
    /// The warmup timeline (samples + lifecycle points).
    pub timeline: Timeline,
    /// Total requests served over the simulated duration.
    pub requests: f64,
    /// Serving steps the server was woken for while still active (the
    /// boot window and the fast-forwarded tail wake nobody).
    pub events: u64,
    /// Steps actually computed: `events`, plus the one steady step a
    /// fast-forward computes before replicating it.
    pub steps_executed: u64,
    /// Steps the dense reference would have computed (the denominator of
    /// the driver's work saving).
    pub steps_dense: u64,
}

/// Runs one server's simulated life — build, closed-form boot window,
/// step while active, fast-forward once quiescent — returning the
/// timeline plus serving/step accounting. This is the entry point for a
/// single server; a deployment shares one plan per cell instead of
/// building one per server.
pub fn run_server(
    app: &App,
    model: &AppModel,
    mix: &RequestMix,
    config: &ServerConfig<'_>,
) -> ServerRun {
    let plan = ServerPlan::new(app, model, mix, &config.params, config.jumpstart);
    run_planned(&plan, &config.params, config.jumpstart.map(|_| 0))
}

/// [`run_server`] over a plan built by the caller: a consumer boots the
/// plan's package `pkg`, a baseline passes `None`.
pub(crate) fn run_planned(
    plan: &ServerPlan<'_>,
    params: &WarmupParams,
    pkg: Option<usize>,
) -> ServerRun {
    let mut sim = ServerSim::new(plan, params, pkg);
    let offered_this_step = plan.offered_this_step;
    let mut samples = Vec::new();
    let mut record = |sample: Sample| {
        if sample.t_ms.is_multiple_of(params.sample_ms) {
            samples.push(sample);
        }
    };
    // The dense loop runs steps ending at STEP, 2·STEP, …, up to the
    // first boundary at or past `duration_ms`.
    let last_now = params.duration_ms.div_ceil(STEP_MS) * STEP_MS;

    let mut now = STEP_MS;
    while now <= sim.serve_start_ms.min(last_now) {
        record(sim.boot_sample(now));
        now += STEP_MS;
    }

    let mut requests = 0.0;
    let mut events = 0u64;
    let mut fast_forwarded = false;
    while now <= last_now {
        let (served, sample) = sim.serve_step(now, STEP_MS, offered_this_step);
        requests += served;
        events += 1;
        record(sample);
        now += STEP_MS;
        if now <= last_now && sim.quiescent() {
            // Provably steady: compute one more real step (the first with
            // zero compile interference) and replicate it across the
            // remaining boundaries. Bit-identical to dense stepping
            // because a quiescent `serve_step` is a pure function of
            // state that no longer changes.
            let (served, steady) = sim.serve_step(now, STEP_MS, offered_this_step);
            fast_forwarded = true;
            while now <= last_now {
                requests += served;
                record(Sample {
                    t_ms: now,
                    ..steady
                });
                now += STEP_MS;
            }
        }
    }
    let mut timeline = Timeline {
        samples,
        serve_start_ms: sim.serve_start_ms,
        ..Default::default()
    };
    sim.finish(&mut timeline);
    ServerRun {
        timeline,
        requests,
        events,
        steps_executed: events + u64::from(fast_forwarded),
        steps_dense: last_now / STEP_MS,
    }
}

/// Runs the warmup simulation, returning the timeline.
pub fn simulate_warmup(
    app: &App,
    model: &AppModel,
    mix: &RequestMix,
    config: &ServerConfig<'_>,
) -> Timeline {
    let _span = telemetry::span!(
        "simulate-warmup",
        "jumpstart" => config.jumpstart.is_some(),
        "duration_ms" => config.params.duration_ms,
    );
    run_server(app, model, mix, config).timeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{build_app_model, WarmupParams};
    use jit::JitOptions;
    use jumpstart::{build_package, JumpStartOptions, ProfilePackage, SeederInputs};
    use workload::{generate, profile_run, AppParams};

    pub(super) fn setup() -> (App, AppModel, ProfilePackage) {
        let app = generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 0, 0);
        let run = profile_run(&app, &mix, 150, 11);
        let model = build_app_model(&app, &run);
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
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        (app, model, pkg)
    }

    pub(super) fn quick_params(model: &AppModel) -> WarmupParams {
        WarmupParams {
            duration_ms: 300_000,
            sample_ms: 5_000,
            init_ms_nojs: 20_000,
            init_ms_js: 8_000,
            deserialize_ms: 2_000,
            profile_serve_ms: 60_000,
            relocation_ms: 20_000,
            ..WarmupParams::fig4()
        }
        .with_compile_window(model, 90_000)
    }

    #[test]
    fn no_jumpstart_walks_through_the_lifecycle() {
        let (app, model, _pkg) = setup();
        let mix = RequestMix::new(&app, 0, 0);
        let tl = simulate_warmup(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params: quick_params(&model),
                jumpstart: None,
            },
        );
        assert!(tl.point_a_ms.is_some(), "profiling must end");
        assert!(tl.point_b_ms.is_some(), "optimization must finish");
        assert!(tl.point_c_ms.is_some(), "relocation must finish");
        let (a, b, c) = (
            tl.point_a_ms.unwrap(),
            tl.point_b_ms.unwrap(),
            tl.point_c_ms.unwrap(),
        );
        assert!(a < b && b < c, "A < B < C");
        // Code grows over time.
        let last = tl.samples.last().unwrap();
        assert!(last.code_bytes > 0);
        // RPS eventually recovers.
        assert!(last.rps_norm > 0.9, "got {}", last.rps_norm);
    }

    #[test]
    fn jumpstart_starts_near_peak() {
        let (app, model, pkg) = setup();
        let mix = RequestMix::new(&app, 0, 0);
        let params = quick_params(&model);
        let js = simulate_warmup(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params,
                jumpstart: Some(&pkg),
            },
        );
        let nojs = simulate_warmup(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params,
                jumpstart: None,
            },
        );
        // Shortly after serving begins, the consumer is already fast.
        let early = js.at(js.serve_start_ms + 20_000).unwrap();
        assert!(early.rps_norm > 0.8, "JS early rps {}", early.rps_norm);
        let early_nojs = nojs.at(nojs.serve_start_ms + 20_000).unwrap();
        assert!(
            early.rps_norm > early_nojs.rps_norm + 0.2,
            "JS {} vs no-JS {}",
            early.rps_norm,
            early_nojs.rps_norm
        );
        // Headline: capacity loss reduced substantially.
        let loss_js = js.capacity_loss_over(params.duration_ms);
        let loss_nojs = nojs.capacity_loss_over(params.duration_ms);
        assert!(
            loss_js < 0.7 * loss_nojs,
            "JS loss {loss_js:.3} should be well below no-JS {loss_nojs:.3}"
        );
    }

    #[test]
    fn latency_improves_with_jumpstart_early_on() {
        let (app, model, pkg) = setup();
        let mix = RequestMix::new(&app, 0, 0);
        let params = quick_params(&model);
        let js = simulate_warmup(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params,
                jumpstart: Some(&pkg),
            },
        );
        let nojs = simulate_warmup(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params,
                jumpstart: None,
            },
        );
        let t = nojs.serve_start_ms + 30_000;
        let l_js = js.at(t).unwrap().latency_ms;
        let l_nojs = nojs.at(t).unwrap().latency_ms;
        assert!(
            l_nojs > 1.5 * l_js,
            "early latency: no-JS {l_nojs:.2}ms vs JS {l_js:.2}ms"
        );
    }

    #[test]
    fn early_serve_boots_earlier_and_converges() {
        let (app, model, pkg) = setup();
        let mix = RequestMix::new(&app, 0, 0);
        let full = quick_params(&model);
        let early = WarmupParams {
            early_serve_frac: 0.5,
            ..full
        };
        let tl_full = simulate_warmup(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params: full,
                jumpstart: Some(&pkg),
            },
        );
        let tl_early = simulate_warmup(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params: early,
                jumpstart: Some(&pkg),
            },
        );
        // Serving starts sooner: only the hottest prefix is priced into
        // the boot window.
        assert!(
            tl_early.serve_start_ms < tl_full.serve_start_ms,
            "early-serve {} should boot before compile-all {}",
            tl_early.serve_start_ms,
            tl_full.serve_start_ms
        );
        // And converges: background compiles finish, so the final code
        // footprint matches and throughput is near peak.
        let last_early = tl_early.samples.last().unwrap();
        let last_full = tl_full.samples.last().unwrap();
        assert_eq!(last_early.code_bytes, last_full.code_bytes);
        assert!(
            last_early.rps_norm > 0.9,
            "early-serve converges, got {}",
            last_early.rps_norm
        );
        // Early-serve never re-enters the Fig. 3a batch machinery.
        assert!(tl_early.point_b_ms.is_none());
        assert!(tl_early.point_c_ms.is_none());
    }

    #[test]
    fn code_size_curve_is_monotonic() {
        let (app, model, _pkg) = setup();
        let mix = RequestMix::new(&app, 0, 0);
        let tl = simulate_warmup(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params: quick_params(&model),
                jumpstart: None,
            },
        );
        for w in tl.samples.windows(2) {
            assert!(w[1].code_bytes >= w[0].code_bytes);
        }
    }

    #[test]
    fn quiescent_consumer_skips_most_steps() {
        let (app, model, pkg) = setup();
        let mix = RequestMix::new(&app, 0, 0);
        let run = run_server(
            &app,
            &model,
            &mix,
            &ServerConfig {
                params: quick_params(&model),
                jumpstart: Some(&pkg),
            },
        );
        assert!(run.requests > 0.0);
        assert!(
            run.steps_executed < run.steps_dense / 2,
            "a consumer should quiesce early: {} executed of {} dense",
            run.steps_executed,
            run.steps_dense
        );
    }
}
