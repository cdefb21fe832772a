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
//! **One driver, shared lives.** The per-server state machine lives in
//! [`sim::ServerSim`] and steps over a read-only [`sim::ServerPlan`] (the
//! flat call terms, each package's boot prefix, the quiescence watch).
//! Every server goes through one driver, [`Lives::run`]: the boot window
//! is closed-form, and the serving steps come from a *life*, a
//! [`sim::ServerSim`] stepped once per simulated second from the first
//! serving step and shared by every server whose serving steps it
//! provably equals. [`run_server`] is that driver with a fresh cache; a
//! deployment keeps one cache per cell, so a cell's thousands
//! of servers simulate a handful of lives. The dense stepper lives on as
//! [`reference::simulate_warmup_dense`], the equivalence oracle.
//!
//! **Why lives repeat.** Servers of one cell differ in jitter, the
//! slow-host roll and download time, and those move only the boot costs
//! (`init_ms_*`, `deserialize_ms`) and with them `serve_start_ms = s`.
//! Serving step `j` ends at `n0 + j·STEP_MS`, where `n0` is the first step
//! end after `s`. [`sim::ServerSim::serve_step`] reads absolute time in
//! three places only: a baseline's point-A test `now ≥ s +
//! profile_serve_ms`, the degrading-host factor, and the stamps of points
//! A, B and C. The state serving starts from depends on the package, not
//! on the boot costs, and everything else a step reads is state earlier
//! steps wrote from that start. So two servers take bit-identical steps
//! `j = 0, 1, …` when they agree on the [`LifeKey`]:
//!
//! * the package (or none, for a baseline);
//! * every [`WarmupParams`] field but the three boot-only costs;
//! * a baseline's point-A step `j_A = ceil((s + profile_serve_ms − n0) /
//!   STEP_MS)` (0 if due at once) — the point-A test is `j ≥ j_A` for
//!   both;
//! * `n0` itself, only when `degrade_per_mille_per_min > 0` (a healthy
//!   host's factor is exactly 1.0 at any `now`).
//!
//! Each server then takes its samples from the life's steps, shifted to
//! its own `n0` and cut at its own last step; its `requests` are the
//! life's served counts summed in step order; its points are the life's
//! step indices shifted the same way, kept when they fall inside its
//! window. A life steps lazily, up to the longest window asked of it, and
//! stops for good one step after [`sim::ServerSim::quiescent`] first
//! holds: that step repeats to the end of every window, so `events` and
//! `steps_executed` are what a per-server driver would account — the
//! steps up to quiescence, then one steady step it replicates.

pub mod reference;
mod sim;

use jumpstart::ProfilePackage;
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
    /// Serving steps the server was active for: up to and including the
    /// first one after which its state provably stops changing (the boot
    /// window and the steady tail wake nobody). These are accounted
    /// steps: servers sharing a life share their computation.
    pub events: u64,
    /// `events`, plus the one steady step replicated over the tail when
    /// the server's window reaches past it.
    pub steps_executed: u64,
    /// Steps the dense reference would have computed (the denominator of
    /// the driver's work saving).
    pub steps_dense: u64,
}

/// What fixes a server's serving steps: see the module docs.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LifeKey {
    pkg: Option<usize>,
    /// The server's calibration with the three boot-only costs zeroed.
    params: WarmupParams,
    /// A baseline's point-A step, `j_A`.
    point_a_step: Option<u64>,
    /// A degrading host's first step end, `n0`.
    first_step_ms: Option<u64>,
}

impl LifeKey {
    fn new(pkg: Option<usize>, params: &WarmupParams, serve_start_ms: u64) -> Self {
        let n0 = first_step_ms(serve_start_ms);
        Self {
            pkg,
            params: WarmupParams {
                init_ms_nojs: 0,
                init_ms_js: 0,
                deserialize_ms: 0,
                ..*params
            },
            point_a_step: pkg.is_none().then(|| {
                (serve_start_ms + params.profile_serve_ms)
                    .saturating_sub(n0)
                    .div_ceil(STEP_MS)
            }),
            first_step_ms: (params.degrade_per_mille_per_min > 0).then_some(n0),
        }
    }
}

/// The end of the first serving step: the first step end after `s`.
fn first_step_ms(serve_start_ms: u64) -> u64 {
    (serve_start_ms / STEP_MS + 1) * STEP_MS
}

/// The end of the last step the dense loop runs: the first boundary at
/// or past `duration_ms` (steps end at STEP, 2·STEP, …).
fn last_step_end(params: &WarmupParams) -> u64 {
    params.duration_ms.div_ceil(STEP_MS) * STEP_MS
}

/// The sampling boundaries in `from..=to`: step ends (multiples of
/// [`STEP_MS`]) that are multiples of `sample_ms`.
fn boundaries(from: u64, to: u64, sample_ms: u64) -> impl Iterator<Item = u64> {
    let (mut a, mut b) = (STEP_MS, sample_ms);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    // lcm(STEP_MS, sample_ms); 0 when `sample_ms` is, and then no step
    // end is a boundary.
    let every = sample_ms / a * STEP_MS;
    let (first, end) = match every {
        0 => (0, 0),
        _ => (from.div_ceil(every), to / every + 1),
    };
    (first..end.max(first)).map(move |k| k * every)
}

/// One distinct post-serve life: the steps every server of its key takes,
/// computed once.
#[derive(Debug)]
struct Life<'a> {
    key: LifeKey,
    /// The paused simulation; dropped once the life is complete.
    sim: Option<ServerSim<'a>>,
    /// End of step 0 on the clock of the server that started the life.
    n0: u64,
    /// `(served, sample)` of each computed step.
    steps: Vec<(f64, Sample)>,
    /// The first step after which the state is quiescent.
    quiescent_at: Option<usize>,
    /// `requests[k]`: the first `k` steps' served counts, summed in step
    /// order, the steady step repeating past the last computed one.
    requests: Vec<f64>,
    /// The step index of each lifecycle point stamped so far.
    points: [Option<u64>; 3],
}

impl Life<'_> {
    /// Steps until `window` steps exist or the life is complete (one
    /// step past quiescence); returns the steps computed.
    fn step_to(&mut self, window: usize, offered: f64) -> u64 {
        let Some(sim) = self.sim.as_mut() else {
            return 0;
        };
        let before = self.steps.len();
        let mut complete = false;
        while self.steps.len() < window && !complete {
            let j = self.steps.len();
            let now = self.n0 + j as u64 * STEP_MS;
            self.steps.push(sim.serve_step(now, STEP_MS, offered));
            match self.quiescent_at {
                Some(_) => complete = true,
                None => self.quiescent_at = sim.quiescent().then_some(j),
            }
        }
        let n0 = self.n0;
        self.points = sim.points().map(|p| p.map(|t| (t - n0) / STEP_MS));
        if complete {
            self.sim = None;
        }
        (self.steps.len() - before) as u64
    }

    /// The step that stands for step `j`: itself, or the steady step once
    /// the life is complete.
    fn step(&self, j: usize) -> &(f64, Sample) {
        &self.steps[j.min(self.steps.len() - 1)]
    }

    /// Requests served over the first `window` steps.
    fn requests(&mut self, window: usize) -> f64 {
        while self.requests.len() <= window {
            let k = self.requests.len() - 1;
            let served = self.step(k).0;
            self.requests.push(self.requests[k] + served);
        }
        self.requests[window]
    }
}

/// The lives of one cell's servers, stepped over the cell's plan. A
/// deployment makes one per cell, so memory stays bounded by one cell's
/// distinct lives per thread.
#[derive(Debug)]
pub(crate) struct Lives<'a> {
    plan: &'a ServerPlan<'a>,
    cache: Vec<Life<'a>>,
    /// Lives started.
    pub(crate) simulated: u64,
    /// Serving steps those lives computed.
    pub(crate) life_steps: u64,
}

impl<'a> Lives<'a> {
    /// An empty cache whose servers step over `plan`.
    pub(crate) fn new(plan: &'a ServerPlan<'a>) -> Self {
        Self {
            plan,
            cache: Vec::new(),
            simulated: 0,
            life_steps: 0,
        }
    }

    /// Where the serving steps of a server calibrated with `params` come
    /// from: the index of its life in the cache, the life started if it
    /// is new, and the server's serve start. `None` for a server that
    /// never serves: it has no life. The server's whole [`ServerRun`] is
    /// a function of the pair (see the module docs), so two servers that
    /// agree on it run alike.
    pub(crate) fn life_of(
        &mut self,
        params: &WarmupParams,
        pkg: Option<usize>,
    ) -> Option<(usize, u64)> {
        let s = self.plan.boot_window(params, pkg).serve_start_ms;
        let n0 = first_step_ms(s);
        let last_now = last_step_end(params);
        if n0 > last_now {
            return None;
        }
        let key = LifeKey::new(pkg, params, s);
        if let Some(k) = self.cache.iter().position(|l| l.key == key) {
            return Some((k, s));
        }
        self.simulated += 1;
        let window = ((last_now - n0) / STEP_MS + 1) as usize;
        let mut requests = Vec::with_capacity(window + 1);
        requests.push(0.0);
        self.cache.push(Life {
            key,
            sim: Some(ServerSim::new(self.plan, params, pkg)),
            n0,
            steps: Vec::with_capacity(window),
            quiescent_at: None,
            requests,
            points: [None; 3],
        });
        Some((self.cache.len() - 1, s))
    }

    /// Runs one server calibrated with `params`: a consumer booting the
    /// plan's package `pkg`, or a baseline. The result is the same
    /// whatever ran through the cache before it.
    pub(crate) fn run(&mut self, params: &WarmupParams, pkg: Option<usize>) -> ServerRun {
        let life = self.life_of(params, pkg);
        let plan = self.plan;
        let boot = plan.boot_window(params, pkg);
        let s = boot.serve_start_ms;
        let last_now = last_step_end(params);
        let steps_dense = last_now / STEP_MS;
        let boot_samples =
            boundaries(STEP_MS, s.min(last_now), params.sample_ms).map(|t| boot.sample(t));
        let Some((k, _)) = life else {
            return ServerRun {
                timeline: Timeline {
                    samples: boot_samples.collect(),
                    serve_start_ms: s,
                    ..Default::default()
                },
                requests: 0.0,
                events: 0,
                steps_executed: 0,
                steps_dense,
            };
        };
        let n0 = first_step_ms(s);
        let window = ((last_now - n0) / STEP_MS + 1) as usize;
        let life = &mut self.cache[k];
        self.life_steps += life.step_to(window, plan.offered_this_step);

        let samples = boot_samples
            .chain(boundaries(n0, last_now, params.sample_ms).map(|t| Sample {
                t_ms: t,
                ..life.step(((t - n0) / STEP_MS) as usize).1
            }))
            .collect();
        let [point_a_ms, point_b_ms, point_c_ms] = life
            .points
            .map(|p| p.filter(|&j| j < window as u64).map(|j| n0 + j * STEP_MS));
        // A per-server driver checks quiescence while a step remains, then
        // computes one steady step and replicates it.
        let (events, steps_executed) = match life.quiescent_at.filter(|&q| q + 1 < window) {
            Some(q) => (q as u64 + 1, q as u64 + 2),
            None => (window as u64, window as u64),
        };
        ServerRun {
            timeline: Timeline {
                samples,
                serve_start_ms: s,
                point_a_ms,
                point_b_ms,
                point_c_ms,
            },
            requests: life.requests(window),
            events,
            steps_executed,
            steps_dense,
        }
    }
}

/// Runs a batch of servers of one cell through one shared cache of
/// lives. Each server is `(calibration, package)`, the package an index
/// into `packages` (`None` for a baseline); all must agree with the
/// first on the constants the cell's plan reads (cores, offered load,
/// cycles per ms, work scale, optimized CPI, early-serve fraction). Every
/// run equals the same server's [`run_server`], in any batch order.
pub fn run_servers<'p>(
    app: &App,
    model: &AppModel,
    mix: &RequestMix,
    packages: impl IntoIterator<Item = &'p ProfilePackage>,
    servers: &[(WarmupParams, Option<usize>)],
) -> Vec<ServerRun> {
    let Some((first, _)) = servers.first() else {
        return Vec::new();
    };
    let plan = ServerPlan::new(app, model, mix, first, packages);
    let mut lives = Lives::new(&plan);
    servers
        .iter()
        .map(|(params, pkg)| lives.run(params, *pkg))
        .collect()
}

/// Runs one server's simulated life — closed-form boot window, then the
/// serving steps until they provably stop changing, the steady tail
/// replicated — returning the timeline plus serving/step accounting. This
/// is the deployment's driver with a cache of its own.
pub fn run_server(
    app: &App,
    model: &AppModel,
    mix: &RequestMix,
    config: &ServerConfig<'_>,
) -> ServerRun {
    let server = (config.params, config.jumpstart.map(|_| 0));
    let mut runs = run_servers(app, model, mix, config.jumpstart, &[server]);
    runs.pop().expect("one server")
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
    fn life_key_reads_every_field_but_the_boot_costs() {
        // Every field by name, no `..`: a field added later fails to
        // compile here until it joins one of the two lists below.
        let WarmupParams {
            duration_ms: _,
            sample_ms: _,
            cores: _,
            offered_fraction: _,
            cycles_per_ms: _,
            work_scale: _,
            interp_cpi: _,
            profiling_cpi: _,
            live_cpi: _,
            optimized_cpi: _,
            init_ms_nojs: _,
            init_ms_js: _,
            deserialize_ms: _,
            profile_serve_ms: _,
            promote_calls: _,
            jit_threads: _,
            compile_bytes_per_core_ms: _,
            relocation_ms: _,
            load_ms_per_kb: _,
            early_serve_frac: _,
            degrade_per_mille_per_min: _,
        } = WarmupParams::fig4();
        let serving: [fn(&mut WarmupParams); 18] = [
            |p| p.duration_ms += STEP_MS,
            |p| p.sample_ms *= 2,
            |p| p.cores += 1,
            |p| p.offered_fraction /= 2.0,
            |p| p.cycles_per_ms *= 2.0,
            |p| p.work_scale *= 2.0,
            |p| p.interp_cpi += 1.0,
            |p| p.profiling_cpi += 1.0,
            |p| p.live_cpi += 1.0,
            |p| p.optimized_cpi += 1.0,
            |p| p.profile_serve_ms += STEP_MS,
            |p| p.promote_calls += 1,
            |p| p.jit_threads += 1,
            |p| p.compile_bytes_per_core_ms /= 3.0,
            |p| p.relocation_ms += STEP_MS,
            |p| p.load_ms_per_kb *= 2.0,
            |p| p.early_serve_frac /= 2.0,
            |p| p.degrade_per_mille_per_min += 5,
        ];
        let boot_only: [fn(&mut WarmupParams); 3] = [
            |p| p.init_ms_nojs += 1_234,
            |p| p.init_ms_js += 1_234,
            |p| p.deserialize_ms += 1_234,
        ];
        for pkg in [None, Some(0)] {
            let key = |edit: fn(&mut WarmupParams)| {
                let mut params = WarmupParams::fig4();
                edit(&mut params);
                LifeKey::new(pkg, &params, 30_500)
            };
            let base = key(|_| {});
            for (i, &edit) in serving.iter().enumerate() {
                assert_ne!(key(edit), base, "{pkg:?}: serving field #{i}");
            }
            for (i, &edit) in boot_only.iter().enumerate() {
                assert_eq!(key(edit), base, "{pkg:?}: boot-only field #{i}");
            }
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
