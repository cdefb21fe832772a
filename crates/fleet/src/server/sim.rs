//! The per-server warmup state machine, shared by both drivers.
//!
//! [`ServerSim`] holds the full Fig. 3 lifecycle state (per-function
//! execution modes, the compile queue, relocation, lazy unit loads) and
//! exposes exactly one transition: [`ServerSim::serve_step`], one
//! simulated second of serving + background compilation. The dense
//! reference driver ([`super::reference`]) calls it for every second; the
//! step-skipping driver ([`super::run_server`]) calls it only while the
//! server is *active* and skips ahead once [`ServerSim::quiescent`]
//! proves no future step can change state. Because every floating-point
//! operation lives here, in one place, the two drivers agree bit for bit
//! — the equivalence proptests in `tests/event_equivalence.rs` hold with
//! `==`, not epsilons.

use jumpstart::ProfilePackage;
use workload::{App, RequestMix};

use crate::metrics::Sample;
use crate::model::{AppModel, WarmupParams};

/// Per-function execution mode in the warmup model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    Interp,
    Profiling,
    Optimized,
    Live,
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig<'p> {
    /// Calibration constants.
    pub params: WarmupParams,
    /// Boot as a Jump-Start consumer with this package.
    pub jumpstart: Option<&'p ProfilePackage>,
}

/// What the step-skipping driver watches to prove a server quiescent:
/// the reachable functions that could still be promoted and the units
/// the lazy loader will eventually touch. Built once per run (the
/// offered load is constant), scanned in O(reachable) per check.
#[derive(Debug, Default)]
struct Watch {
    dt_requests: f64,
    interp_funcs: Vec<usize>,
    loadable_units: Vec<usize>,
}

/// The simulation state (exposed for tests and incremental stepping).
#[derive(Debug)]
pub struct ServerSim<'a> {
    app: &'a App,
    model: &'a AppModel,
    pub(crate) params: WarmupParams,
    ep_probs: Vec<f64>,
    mode: Vec<Mode>,
    calls: Vec<f64>,
    unit_loaded: Vec<bool>,
    // Compile queue: (func index, bytes remaining, target mode).
    queue: std::collections::VecDeque<(usize, u64, Mode)>,
    pub(crate) code_bytes: u64,
    retranslate_started: bool,
    optimize_remaining: usize,
    relocation_left_ms: f64,
    relocating: bool,
    optimized_ready: Vec<usize>,
    optimized_phase_done: bool,
    // Early-serve consumer boot: background Jump-Start compiles complete
    // directly into Optimized (no point-B batch / relocation pause).
    consumer_bg: bool,
    bg_pending: Vec<bool>,
    is_js: bool,
    pub(crate) peak_ms_per_req: f64,
    pub(crate) serve_start_ms: u64,
    pub(crate) point_a_ms: Option<u64>,
    pub(crate) point_b_ms: Option<u64>,
    pub(crate) point_c_ms: Option<u64>,
    watch: Option<Watch>,
}

impl<'a> ServerSim<'a> {
    /// Creates the simulation for one server boot.
    pub fn new(
        app: &'a App,
        model: &'a AppModel,
        mix: &RequestMix,
        config: &ServerConfig<'_>,
    ) -> Self {
        Self::new_with_peak(app, model, mix, config, None)
    }

    /// [`ServerSim::new`] with the peak request cost supplied by the
    /// caller. The peak is a pure function of (app, mix, calibration
    /// constants) — none of which vary per server within a deployment
    /// cell — so the fleet orchestrator measures it once per cell and
    /// shares it instead of re-sampling 2000 requests per server.
    pub(crate) fn new_with_peak(
        app: &'a App,
        model: &'a AppModel,
        mix: &RequestMix,
        config: &ServerConfig<'_>,
        peak_ms_per_req: Option<f64>,
    ) -> Self {
        let params = config.params;
        let n = app.repo.funcs().len();
        let mut sim = Self {
            app,
            model,
            params,
            ep_probs: mix.probabilities(),
            mode: vec![Mode::Interp; n],
            calls: vec![0.0; n],
            unit_loaded: vec![false; app.repo.units().len()],
            queue: std::collections::VecDeque::new(),
            code_bytes: 0,
            retranslate_started: false,
            optimize_remaining: 0,
            relocation_left_ms: 0.0,
            relocating: false,
            optimized_ready: Vec::new(),
            optimized_phase_done: false,
            consumer_bg: false,
            bg_pending: vec![false; n],
            is_js: config.jumpstart.is_some(),
            peak_ms_per_req: peak_ms_per_req
                .unwrap_or_else(|| model.peak_request_core_ms(app, mix, &params)),
            serve_start_ms: 0,
            point_a_ms: None,
            point_b_ms: None,
            point_c_ms: None,
            watch: None,
        };
        sim.serve_start_ms = match config.jumpstart {
            None => params.init_ms_nojs,
            Some(pkg) => {
                // Deserialize + preload + compile on every core, then
                // parallel (shorter) init — §IV-A and §VII-A. With
                // `early_serve_frac < 1.0` only the hottest prefix of heat
                // mass is compiled inside the boot window; the remainder
                // finishes on the background JIT threads while serving.
                let order: Vec<bytecode::FuncId> = pkg
                    .tier
                    .functions_by_heat()
                    .into_iter()
                    .filter(|f| f.index() < n)
                    .collect();
                let ready =
                    jumpstart::early_serve_prefix(&pkg.tier, &order, params.early_serve_frac);
                let mut ready_bytes = 0u64;
                for f in &order[..ready] {
                    let i = f.index();
                    ready_bytes += model.opt_bytes[i];
                    // Hottest code is optimized from the first request.
                    sim.mode[i] = Mode::Optimized;
                }
                for f in &order[ready..] {
                    let i = f.index();
                    sim.bg_pending[i] = true;
                    sim.queue
                        .push_back((i, model.opt_bytes[i], Mode::Optimized));
                    sim.consumer_bg = true;
                }
                let compile_ms =
                    ready_bytes as f64 / (params.compile_bytes_per_core_ms * params.cores as f64);
                let mut preload_kb = 0.0;
                for u in &pkg.preload.unit_order {
                    if u.index() < sim.unit_loaded.len() && !sim.unit_loaded[u.index()] {
                        sim.unit_loaded[u.index()] = true;
                        preload_kb += vm::unit_bytes(&app.repo, *u) as f64 / 1024.0;
                    }
                }
                let preload_ms = preload_kb * params.load_ms_per_kb / params.cores as f64;
                sim.code_bytes = ready_bytes;
                sim.optimized_phase_done = true;
                // Consumers never run the profiling phase (Fig. 3c).
                sim.retranslate_started = true;
                params.deserialize_ms + params.init_ms_js + (compile_ms + preload_ms) as u64
            }
        };
        sim
    }

    /// Expected core-milliseconds to serve one request right now,
    /// including lazy-load overhead committed this step.
    fn service_core_ms(&mut self, dt_requests: f64) -> f64 {
        let p = &self.params;
        let mut total_cycles = 0.0;
        let mut load_ms = 0.0;
        for (e, &prob) in self.ep_probs.iter().enumerate() {
            if prob <= 0.0 {
                continue;
            }
            for &(f, calls) in &self.model.endpoint_calls[e] {
                let i = f.index();
                let cpi = match self.mode[i] {
                    Mode::Interp => p.interp_cpi,
                    Mode::Profiling => p.profiling_cpi,
                    Mode::Optimized => p.optimized_cpi,
                    Mode::Live => p.live_cpi,
                };
                total_cycles += prob * calls * self.model.avg_instrs[i] * p.work_scale * cpi;
                // Lazy unit load on first touch (amortized over this step's
                // requests).
                let u = self.app.repo.func(f).unit.index();
                if !self.unit_loaded[u] && prob * dt_requests >= 0.5 {
                    self.unit_loaded[u] = true;
                    load_ms += self.model.unit_bytes[i] as f64 / 1024.0 * p.load_ms_per_kb
                        / dt_requests.max(1.0);
                }
            }
        }
        total_cycles / p.cycles_per_ms + load_ms
    }

    /// Applies the per-function effects of serving `requests` requests.
    fn account_requests(&mut self, requests: f64, now_ms: u64) {
        let p = self.params;
        for (e, &prob) in self.ep_probs.iter().enumerate() {
            let share = prob * requests;
            if share <= 0.0 {
                continue;
            }
            for &(f, calls) in &self.model.endpoint_calls[e] {
                let i = f.index();
                self.calls[i] += share * calls;
                if self.mode[i] == Mode::Interp
                    && !self.bg_pending[i]
                    && self.calls[i] >= p.promote_calls as f64
                {
                    if self.optimized_phase_done {
                        self.queue
                            .push_back((i, self.model.live_bytes[i], Mode::Live));
                    } else if !self.retranslate_started {
                        self.queue
                            .push_back((i, self.model.prof_bytes[i], Mode::Profiling));
                    }
                    // Mark as queued so it isn't enqueued again.
                    self.mode[i] = if self.optimized_phase_done {
                        Mode::Live
                    } else {
                        Mode::Profiling
                    };
                }
            }
        }
        if !self.retranslate_started && now_ms >= self.serve_start_ms + p.profile_serve_ms {
            self.retranslate_started = true;
            self.point_a_ms = Some(now_ms);
            // Enqueue optimize-all jobs hottest-first.
            for &f in &self.model.profiled {
                let i = f.index();
                self.queue
                    .push_back((i, self.model.opt_bytes[i], Mode::Optimized));
                self.optimize_remaining += 1;
            }
        }
    }

    /// Drains the compile queue with `core_ms` of JIT-thread time;
    /// returns the core-milliseconds actually consumed.
    fn run_compilers(&mut self, mut core_ms: f64, now_ms: u64) -> f64 {
        let budget = core_ms;
        let rate = self.params.compile_bytes_per_core_ms;
        if self.relocating {
            self.relocation_left_ms -= core_ms;
            if self.relocation_left_ms <= 0.0 {
                self.relocating = false;
                self.point_c_ms = Some(now_ms);
                for &i in &self.optimized_ready {
                    self.mode[i] = Mode::Optimized;
                }
                self.optimized_ready.clear();
                self.optimized_phase_done = true;
            }
            return budget;
        }
        while core_ms > 0.0 {
            let Some((i, bytes, kind)) = self.queue.front().copied() else {
                break;
            };
            let affordable = (core_ms * rate) as u64;
            if affordable >= bytes {
                core_ms -= bytes as f64 / rate;
                self.queue.pop_front();
                self.code_bytes += bytes;
                match kind {
                    Mode::Optimized if self.consumer_bg => {
                        // Early-serve background compile: the unit goes
                        // live directly (the streaming emitter placed it
                        // at its final address — no relocation batch).
                        self.mode[i] = Mode::Optimized;
                        self.bg_pending[i] = false;
                    }
                    Mode::Optimized => {
                        self.optimized_ready.push(i);
                        self.optimize_remaining -= 1;
                        if self.optimize_remaining == 0 {
                            // Point B: relocation begins.
                            self.point_b_ms = Some(now_ms);
                            self.relocating = true;
                            self.relocation_left_ms = self.params.relocation_ms as f64;
                            return budget;
                        }
                    }
                    mode => self.mode[i] = mode,
                }
            } else {
                // Partial progress: credit the emitted bytes now so the
                // code-size curve (and its final value) reflects all work
                // done, not just each job's completion-step residual.
                self.queue.front_mut().expect("checked").1 -= affordable;
                self.code_bytes += affordable;
                core_ms = 0.0;
                break;
            }
        }
        budget - core_ms
    }

    /// A boot-window timeline sample at `now` (serving has not begun; a
    /// Jump-Start consumer's compile progress is priced into the window).
    pub(crate) fn boot_sample(&self, now: u64) -> Sample {
        let frac = if self.is_js && self.serve_start_ms > 0 {
            now as f64 / self.serve_start_ms as f64
        } else {
            0.0
        };
        Sample {
            t_ms: now,
            rps_norm: 0.0,
            latency_ms: 0.0,
            code_bytes: (self.code_bytes as f64 * frac.min(1.0)) as u64,
        }
    }

    /// One simulated step of `step` ms ending at `now`: background
    /// compilation, then serving under the remaining cores. Returns the
    /// requests served and the timeline sample describing the step (the
    /// driver decides whether `now` is a sampling boundary).
    pub(crate) fn serve_step(
        &mut self,
        now: u64,
        step: u64,
        offered_this_step: f64,
    ) -> (f64, Sample) {
        // Background compile threads (serving competes for the rest);
        // only the core time actually consumed is taken from serving.
        let used_core_ms = self.run_compilers(self.params.jit_threads as f64 * step as f64, now);
        let serve_cores = self.params.cores as f64 - used_core_ms / step as f64;
        // A degrading host serves every request slower the longer it has
        // been up — time-varying, so such a server must never be
        // fast-forwarded (see `quiescent`).
        let degrade =
            1.0 + self.params.degrade_per_mille_per_min as f64 / 1000.0 * (now as f64 / 60_000.0);
        let service_ms = (self.service_core_ms(offered_this_step) * degrade).max(0.01);
        let capacity = serve_cores * step as f64 / service_ms;
        let served = offered_this_step.min(capacity);
        self.account_requests(served, now);
        let util = (offered_this_step / capacity).min(3.0);
        let queue_factor = 1.0 + 2.0 * (util.min(1.0)).powi(3);
        let sample = Sample {
            t_ms: now,
            rps_norm: served / offered_this_step,
            latency_ms: service_ms * queue_factor,
            code_bytes: self.code_bytes,
        };
        (served, sample)
    }

    /// Copies the lifecycle markers into a finished timeline.
    pub(crate) fn finish(&self, timeline: &mut crate::metrics::Timeline) {
        timeline.point_a_ms = self.point_a_ms;
        timeline.point_b_ms = self.point_b_ms;
        timeline.point_c_ms = self.point_c_ms;
    }

    fn build_watch(&self, dt_requests: f64) -> Watch {
        let mut interp_funcs = Vec::new();
        let mut loadable_units = Vec::new();
        // Seen-bitmaps dedup in first-reached order, in linear time.
        let mut func_seen = vec![false; self.mode.len()];
        let mut unit_seen = vec![false; self.unit_loaded.len()];
        for (e, &prob) in self.ep_probs.iter().enumerate() {
            if prob <= 0.0 {
                continue;
            }
            for &(f, _) in &self.model.endpoint_calls[e] {
                let i = f.index();
                if !std::mem::replace(&mut func_seen[i], true) {
                    interp_funcs.push(i);
                }
                let u = self.app.repo.func(f).unit.index();
                if prob * dt_requests >= 0.5 && !std::mem::replace(&mut unit_seen[u], true) {
                    loadable_units.push(u);
                }
            }
        }
        Watch {
            dt_requests,
            interp_funcs,
            loadable_units,
        }
    }

    /// Whether no future [`ServerSim::serve_step`] can change any state
    /// that the timeline observes: the compile queue is drained, the
    /// batch lifecycle (retranslate → relocation) has fully completed,
    /// every unit the lazy loader will ever touch is loaded, and — when
    /// traffic flows — no reachable function is still interpreted (each
    /// such function's call counter grows every step and must eventually
    /// cross `promote_calls`). Once this holds, the per-step sample is a
    /// pure function of frozen state and the driver may replicate it.
    pub(crate) fn quiescent(&mut self, offered_this_step: f64) -> bool {
        // A degrading host's service time depends on `now`: the per-step
        // sample is never a pure function of frozen state, so the driver
        // must step it densely to the end.
        if self.params.degrade_per_mille_per_min > 0 {
            return false;
        }
        if !self.queue.is_empty()
            || self.relocating
            || !self.retranslate_started
            || !self.optimized_phase_done
        {
            return false;
        }
        if self
            .watch
            .as_ref()
            .is_none_or(|w| w.dt_requests != offered_this_step)
        {
            self.watch = Some(self.build_watch(offered_this_step));
        }
        let watch = self.watch.as_ref().expect("just built");
        if offered_this_step > 0.0
            && watch
                .interp_funcs
                .iter()
                .any(|&i| self.mode[i] == Mode::Interp)
        {
            return false;
        }
        watch.loadable_units.iter().all(|&u| self.unit_loaded[u])
    }
}
