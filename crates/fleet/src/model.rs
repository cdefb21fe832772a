//! Static per-application facts the warmup simulation needs, measured once
//! from the real compilation pipeline (not assumed).

use std::sync::Arc;

use bytecode::FuncId;
use jit::{translate_live, translate_optimized, translate_profiling, InlineParams, WeightSource};
use vm::{ExecObserver, Value, Vm};
use workload::{App, ProfileRun, RequestMix, RequestSampler};

/// Calibration constants for the warmup timeline.
///
/// Two presets reproduce the paper's two time scales: [`WarmupParams::fig1`]
/// (the 30-minute lifecycle of Figs. 1–2) and [`WarmupParams::fig4`] (the
/// 10-minute warmup comparison of Fig. 4). The calibrated values are
/// documented in DESIGN.md §2 — absolute times are fit to the paper's
/// curves, while every *difference* between configurations comes from
/// mechanism (compile work, parallelism, preloading).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmupParams {
    /// Simulated duration (ms).
    pub duration_ms: u64,
    /// Timeline sampling period (ms).
    pub sample_ms: u64,
    /// Cores per server (paper: 16-core Xeon D-1581).
    pub cores: u32,
    /// Offered load as a fraction of peak capacity.
    pub offered_fraction: f64,
    /// Cycles per millisecond of one core (1.8 GHz).
    pub cycles_per_ms: f64,
    /// Workload scale: each synthetic bytecode instruction stands for this
    /// many real ones (the synthetic app is ~10³ smaller than the site).
    pub work_scale: f64,
    /// Cycles per (scaled) bytecode instruction by execution mode.
    pub interp_cpi: f64,
    /// See `interp_cpi`.
    pub profiling_cpi: f64,
    /// See `interp_cpi`.
    pub live_cpi: f64,
    /// See `interp_cpi`.
    pub optimized_cpi: f64,
    /// Process initialization before serving, without Jump-Start
    /// (sequential warmup requests, §VII-A).
    pub init_ms_nojs: u64,
    /// Initialization with Jump-Start (parallel warmup requests).
    pub init_ms_js: u64,
    /// Package download + deserialize time.
    pub deserialize_ms: u64,
    /// Serving time before the retranslate-all event — point A (HHVM uses
    /// a request-count trigger; under steady load that is a fixed time).
    pub profile_serve_ms: u64,
    /// Calls before a function gets a profiling/live translation.
    pub promote_calls: u64,
    /// Background JIT worker threads while serving.
    pub jit_threads: u32,
    /// Compile throughput: emitted bytes per core-millisecond.
    pub compile_bytes_per_core_ms: f64,
    /// Relocation pause between points B and C (ms).
    pub relocation_ms: u64,
    /// Unit metadata load cost (ms per KB, lazy loading overhead folded
    /// into early requests).
    pub load_ms_per_kb: f64,
    /// Consumer early-serve threshold: the boot reports ready once this
    /// fraction of tier-profile heat mass is compiled hottest-first; the
    /// remainder compiles on background JIT threads while serving
    /// (`1.0` = classic Fig. 3c compile-all-before-serving).
    pub early_serve_frac: f64,
    /// Host degradation: per-request service time inflates by this many
    /// per-mille per minute of uptime (0 = healthy host). Models the
    /// slowly-sickening machines (thermal throttling, noisy neighbors,
    /// leaking sidecars) whose timelines must classify as `slowdown`
    /// rather than being averaged away.
    pub degrade_per_mille_per_min: u32,
}

impl WarmupParams {
    /// The 30-minute lifecycle scale of Figs. 1 and 2.
    pub fn fig1() -> Self {
        Self {
            duration_ms: 1_800_000,
            sample_ms: 10_000,
            cores: 16,
            offered_fraction: 1.0,
            cycles_per_ms: 1_800_000.0,
            work_scale: 220.0,
            interp_cpi: 40.0,
            profiling_cpi: 11.0,
            live_cpi: 5.0,
            optimized_cpi: 3.0,
            init_ms_nojs: 75_000,
            init_ms_js: 40_000,
            deserialize_ms: 12_000,
            profile_serve_ms: 380_000,
            promote_calls: 2,
            jit_threads: 3,
            compile_bytes_per_core_ms: 1.0,
            relocation_ms: 150_000,
            load_ms_per_kb: 0.25,
            early_serve_frac: 1.0,
            degrade_per_mille_per_min: 0,
        }
    }

    /// The 10-minute warmup-comparison scale of Fig. 4.
    pub fn fig4() -> Self {
        Self {
            duration_ms: 600_000,
            sample_ms: 5_000,
            profile_serve_ms: 200_000,
            relocation_ms: 60_000,
            init_ms_nojs: 60_000,
            init_ms_js: 30_000,
            deserialize_ms: 8_000,
            compile_bytes_per_core_ms: 1.0,
            ..Self::fig1()
        }
    }
}

impl WarmupParams {
    /// Sets the compile throughput so the retranslate-all batch (A→B)
    /// takes `window_ms` on the background JIT threads — the calibration
    /// hook that keeps the timeline faithful across app sizes.
    pub fn with_compile_window(mut self, model: &AppModel, window_ms: u64) -> Self {
        let core_ms = self.jit_threads as f64 * window_ms.max(1) as f64;
        self.compile_bytes_per_core_ms = (model.total_opt_bytes as f64 / core_ms).max(0.001);
        self
    }

    /// Sets the consumer early-serve threshold (`1.0` = compile all
    /// before serving).
    pub fn with_early_serve(mut self, frac: f64) -> Self {
        self.early_serve_frac = frac;
        self
    }
}

impl Default for WarmupParams {
    fn default() -> Self {
        Self::fig4()
    }
}

/// Per-function and per-endpoint facts measured from the real pipeline.
#[derive(Debug)]
pub struct AppModel {
    /// Average (unscaled) bytecode instructions per call, per function.
    pub avg_instrs: Vec<f64>,
    /// Optimized-translation bytes per function (0 = not profiled).
    pub opt_bytes: Vec<u64>,
    /// Profiling-translation bytes per function.
    pub prof_bytes: Vec<u64>,
    /// Live-translation bytes per function.
    pub live_bytes: Vec<u64>,
    /// Unit metadata bytes per function's unit (lazy-load cost).
    pub unit_bytes: Vec<u64>,
    /// Expected calls per request, per endpoint: `(func, calls)`.
    pub endpoint_calls: EndpointCalls,
    /// Functions with tier-1 profile data (the optimize-all set).
    pub profiled: Vec<FuncId>,
    /// Total optimized bytes across the optimize-all set.
    pub total_opt_bytes: u64,
}

impl AppModel {
    /// Peak (fully optimized) core-milliseconds per request, averaged over
    /// the mix.
    pub fn peak_request_core_ms(&self, app: &App, mix: &RequestMix, params: &WarmupParams) -> f64 {
        // Expectation over endpoints of optimized-mode service time.
        let mut total = 0.0;
        let mut weight = 0.0;
        let mut sampler = RequestSampler::new(99);
        let mut rng_hits = vec![0u32; self.endpoint_calls.len()];
        for _ in 0..2000 {
            let (f, _) = sampler.request(app, mix);
            if let Some(e) = app.endpoints.iter().position(|ep| ep.func == f) {
                rng_hits[e] += 1;
            }
        }
        for (e, &hits) in rng_hits.iter().enumerate() {
            if hits == 0 {
                continue;
            }
            let mut cycles = 0.0;
            for &(f, calls) in &self.endpoint_calls[e] {
                cycles +=
                    calls * self.avg_instrs[f.index()] * params.work_scale * params.optimized_cpi;
            }
            total += hits as f64 * (cycles / params.cycles_per_ms);
            weight += hits as f64;
        }
        total / weight.max(1.0)
    }
}

/// Expected calls per request, per endpoint: `(func, calls)` in
/// function order. They depend on the app alone, so every cell of a
/// deployment shares one measurement.
pub type EndpointCalls = Arc<[Vec<(FuncId, f64)>]>;

// Entries per function, indexed by `FuncId`.
struct CallCounter {
    calls: Vec<u64>,
}

impl ExecObserver for CallCounter {
    fn on_func_enter(&mut self, func: FuncId, _args: &[Value]) {
        self.calls[func.index()] += 1;
    }
}

/// Per-endpoint call vectors from real interpretation: each endpoint runs
/// on a few fixed arguments.
pub fn measure_endpoint_calls(app: &App) -> EndpointCalls {
    const TRIALS: [i64; 3] = [1, 497, 910];
    let mut vm = Vm::new(&app.repo);
    let mut counter = CallCounter {
        calls: vec![0; app.repo.funcs().len()],
    };
    app.endpoints
        .iter()
        .map(|ep| {
            for arg in TRIALS {
                vm.call_observed(ep.func, &[Value::Int(arg)], &mut counter)
                    .expect("endpoint executes");
                vm.take_output();
            }
            counter
                .calls
                .iter_mut()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(f, c)| {
                    let calls = std::mem::take(c) as f64 / TRIALS.len() as f64;
                    (FuncId::new(f as u32), calls)
                })
                .collect()
        })
        .collect()
}

/// Measures the app model: translation sizes from the real translators,
/// per-endpoint call vectors from real interpretation.
pub fn build_app_model(app: &App, run: &ProfileRun) -> AppModel {
    build_app_model_with(app, run, measure_endpoint_calls(app))
}

/// [`build_app_model`] with the endpoint call vectors measured already
/// (by [`measure_endpoint_calls`] on the same app).
pub fn build_app_model_with(
    app: &App,
    run: &ProfileRun,
    endpoint_calls: EndpointCalls,
) -> AppModel {
    let repo = &app.repo;
    let n = repo.funcs().len();
    let mut avg_instrs = vec![0f64; n];
    let mut opt_bytes = vec![0u64; n];
    let mut prof_bytes = vec![0u64; n];
    let mut live_bytes = vec![0u64; n];
    let mut unit_bytes = vec![0u64; n];

    for func in repo.funcs() {
        let i = func.id.index();
        unit_bytes[i] = vm::unit_bytes(repo, func.unit) as u64;
        let live = translate_live(repo, func.id, &run.ctx);
        live_bytes[i] = live.code_size() as u64;
        let prof = translate_profiling(repo, func.id, &run.ctx);
        prof_bytes[i] = prof.code_size() as u64;
        if let Some(fp) = run.tier.funcs.get(&func.id) {
            avg_instrs[i] = fp.avg_instrs_per_call(&repo.facts(func.id).cfg).max(1.0);
            let opt = translate_optimized(
                repo,
                func.id,
                &run.tier,
                &run.ctx,
                WeightSource::Accurate,
                InlineParams::default(),
                &|_, _| None,
            );
            opt_bytes[i] = opt.code_size() as u64;
        } else {
            avg_instrs[i] = func.code.len() as f64 * 0.6;
        }
    }

    let profiled: Vec<FuncId> = run.tier.functions_by_heat();
    let total_opt_bytes = profiled.iter().map(|f| opt_bytes[f.index()]).sum();

    AppModel {
        avg_instrs,
        opt_bytes,
        prof_bytes,
        live_bytes,
        unit_bytes,
        endpoint_calls,
        profiled,
        total_opt_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{generate, AppParams};

    fn setup() -> (App, ProfileRun) {
        let app = generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 0, 0);
        let run = workload::profile_run(&app, &mix, 120, 5);
        (app, run)
    }

    #[test]
    fn model_measures_translation_sizes() {
        let (app, run) = setup();
        let model = build_app_model(&app, &run);
        assert!(model.total_opt_bytes > 0);
        assert!(!model.profiled.is_empty());
        // Profiling code is bigger than live code for profiled functions.
        let f = model.profiled[0].index();
        assert!(model.prof_bytes[f] > model.live_bytes[f]);
        assert!(model.opt_bytes[f] > 0);
    }

    #[test]
    fn endpoint_call_vectors_cover_callees() {
        let (app, run) = setup();
        let model = build_app_model(&app, &run);
        // Every endpoint calls at least itself plus some helpers.
        for (e, calls) in model.endpoint_calls.iter().enumerate() {
            assert!(
                calls.len() >= 2,
                "endpoint {e} should reach helpers, got {calls:?}"
            );
        }
    }

    #[test]
    fn peak_request_cost_is_positive_and_small() {
        let (app, run) = setup();
        let model = build_app_model(&app, &run);
        let mix = RequestMix::new(&app, 0, 0);
        let params = WarmupParams::fig4();
        let ms = model.peak_request_core_ms(&app, &mix, &params);
        assert!(ms > 0.0, "positive request cost");
        assert!(ms < 1000.0, "sane request cost, got {ms}");
    }

    #[test]
    fn presets_differ_in_scale() {
        assert!(WarmupParams::fig1().duration_ms > WarmupParams::fig4().duration_ms);
        assert!(WarmupParams::fig1().profile_serve_ms > WarmupParams::fig4().profile_serve_ms);
    }
}
