//! The per-server warmup state machine, shared by both drivers, and the
//! read-only plan every server of a deployment cell steps over.
//!
//! [`ServerPlan`] is everything about a server's life that does not
//! depend on the server: the offered mix flattened into one term per
//! (endpoint, callee) pair, each published package's consumer boot
//! prefix, and the watch lists the quiescence proof scans. A deployment
//! builds one per cell and every server of the cell shares it;
//! [`super::run_server`] builds one per call. [`ServerPlan::boot_window`]
//! prices a server's boot window in closed form, without a simulation.
//!
//! [`ServerSim`] holds the per-server Fig. 3 lifecycle state (per-function
//! execution modes, the compile queue, relocation, lazy unit loads) and
//! exposes exactly one transition: [`ServerSim::serve_step`], one
//! simulated second of serving + background compilation. The dense
//! reference driver ([`super::reference`]) calls it for every second; the
//! shared-life driver ([`super::Lives`]) calls it once per distinct life
//! and only until one step after [`ServerSim::quiescent`] proves no
//! future step can change state. Because every floating-point operation
//! lives here, in one place, the two drivers agree bit for bit — the
//! equivalence proptests in `tests/event_equivalence.rs` hold with `==`,
//! not epsilons.
//!
//! A step does work in proportion to what changed, not to the mix: the
//! service time's cycle sum is cached and recomputed only after a write
//! to a function's mode, lazy loads are committed on the first step at a
//! given offered load, and request accounting walks only the terms whose
//! function can still be promoted. Each shortcut reproduces the full
//! nested walk bit for bit (see [`Term::base`]); the test module keeps
//! that walk as the step-level oracle.

use std::collections::HashMap;

use jumpstart::ProfilePackage;
use workload::{App, RequestMix};

use crate::metrics::Sample;
use crate::model::{AppModel, WarmupParams};

use super::STEP_MS;

/// Per-function execution mode in the warmup model. The discriminants
/// index `service_core_ms`'s CPI table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    Interp = 0,
    Profiling = 1,
    Optimized = 2,
    Live = 3,
}

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig<'p> {
    /// Calibration constants.
    pub params: WarmupParams,
    /// Boot as a Jump-Start consumer with this package.
    pub jumpstart: Option<&'p ProfilePackage>,
}

/// One (endpoint, callee) pair of the offered mix with `prob > 0`.
#[derive(Clone, Copy, Debug)]
struct Term {
    func: u32,
    /// The callee's unit (what its first call lazily loads).
    unit: u32,
    /// The endpoint's share of requests.
    prob: f64,
    /// Expected calls to `func` per request to the endpoint.
    calls: f64,
    /// `prob * calls * avg_instrs[func] * work_scale`. Rust evaluates the
    /// nested walk's `prob * calls * avg * scale * cpi` left to right, so
    /// `base * cpi` is the same bits.
    base: f64,
}

/// A published package's consumer boot, identical for every server that
/// picks the package.
#[derive(Debug)]
struct BootPlan {
    /// Function indices, hottest first (the package's heat order).
    order: Vec<usize>,
    /// `order[..ready]` is compiled inside the boot window; the rest
    /// compiles on the background JIT threads while serving.
    ready: usize,
    /// Optimized bytes of `order[..ready]`.
    ready_bytes: u64,
    /// Units the package preloads, each once, in preload order.
    preload_units: Vec<usize>,
    /// Their metadata in KiB, summed in preload order.
    preload_kb: f64,
}

/// One server's boot window in closed form: when serving starts and what
/// its boot-window samples show. It depends on the server's boot costs
/// and its package's [`BootPlan`], never on a step.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BootWindow {
    /// End of the boot window: the server serves from here on.
    pub(crate) serve_start_ms: u64,
    /// Optimized bytes compiled inside the window (0 for a baseline).
    code_bytes: u64,
}

impl BootWindow {
    /// A boot-window timeline sample at `now` (serving has not begun; a
    /// Jump-Start consumer's compile progress is priced into the window).
    pub(crate) fn sample(&self, now: u64) -> Sample {
        let frac = if self.serve_start_ms > 0 {
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
}

/// What the driver watches to prove a life quiescent: the
/// reachable functions that could still be promoted and the units the
/// lazy loader will eventually touch at the plan's offered load.
#[derive(Debug)]
struct Watch {
    interp_funcs: Vec<usize>,
    loadable_units: Vec<usize>,
}

/// The read-only part of a server's simulation, shared by every server
/// of a cell: it depends on the app, the cell's model and mix, the
/// published packages and the cell's calibration, never on a server's
/// boot-cost rolls.
#[derive(Debug)]
pub(crate) struct ServerPlan<'a> {
    model: &'a AppModel,
    /// The calibration the plan was built for; a server may differ from
    /// it only in the boot and compile costs the plan does not read.
    params: WarmupParams,
    funcs: usize,
    units: usize,
    /// Expected core-ms of one request with every function optimized.
    pub(crate) peak_ms_per_req: f64,
    /// Requests offered per [`STEP_MS`] step.
    pub(crate) offered_this_step: f64,
    /// The mix's (endpoint, callee) pairs with `prob > 0`, endpoint-major.
    terms: Vec<Term>,
    /// One boot per package, parallel to the packages the plan was given.
    boots: Vec<BootPlan>,
    watch: Watch,
}

impl<'a> ServerPlan<'a> {
    /// Builds the plan for servers of one cell. `packages` are the ones a
    /// consumer may pick; [`ServerSim::new`] takes an index into them.
    pub(crate) fn new<'p>(
        app: &App,
        model: &'a AppModel,
        mix: &RequestMix,
        params: &WarmupParams,
        packages: impl IntoIterator<Item = &'p ProfilePackage>,
    ) -> Self {
        let funcs = app.repo.funcs().len();
        let units = app.repo.units().len();
        let peak_ms_per_req = model.peak_request_core_ms(app, mix, params);
        let peak_rps = params.cores as f64 * 1000.0 / peak_ms_per_req;
        let offered = peak_rps * params.offered_fraction;
        let offered_this_step = offered * STEP_MS as f64 / 1000.0;

        let mut terms = Vec::new();
        for (e, &prob) in mix.probabilities().iter().enumerate() {
            if prob <= 0.0 {
                continue;
            }
            for &(f, calls) in &model.endpoint_calls[e] {
                let i = f.index();
                terms.push(Term {
                    func: i as u32,
                    unit: app.repo.func(f).unit.index() as u32,
                    prob,
                    calls,
                    base: prob * calls * model.avg_instrs[i] * params.work_scale,
                });
            }
        }

        // Seen-bitmaps dedup in first-reached order, in linear time.
        let mut interp_funcs = Vec::new();
        let mut loadable_units = Vec::new();
        let mut func_seen = vec![false; funcs];
        let mut unit_seen = vec![false; units];
        for t in &terms {
            let (i, u) = (t.func as usize, t.unit as usize);
            if !std::mem::replace(&mut func_seen[i], true) {
                interp_funcs.push(i);
            }
            if t.prob * offered_this_step >= 0.5 && !std::mem::replace(&mut unit_seen[u], true) {
                loadable_units.push(u);
            }
        }

        let boots = packages
            .into_iter()
            .map(|pkg| {
                let ranked = pkg.tier.heat_ranked();
                let order: Vec<bytecode::FuncId> = ranked
                    .iter()
                    .map(|&(f, _)| f)
                    .filter(|f| f.index() < funcs)
                    .collect();
                let heat: HashMap<bytecode::FuncId, u64> = ranked.into_iter().collect();
                let ready =
                    jumpstart::early_serve_prefix_by_heat(&heat, &order, params.early_serve_frac);
                let order: Vec<usize> = order.iter().map(|f| f.index()).collect();
                let ready_bytes = order[..ready].iter().map(|&i| model.opt_bytes[i]).sum();
                let mut preload_units = Vec::new();
                let mut preload_kb = 0.0;
                let mut loaded = vec![false; units];
                for u in &pkg.preload.unit_order {
                    if u.index() < units && !std::mem::replace(&mut loaded[u.index()], true) {
                        preload_units.push(u.index());
                        preload_kb += vm::unit_bytes(&app.repo, *u) as f64 / 1024.0;
                    }
                }
                BootPlan {
                    order,
                    ready,
                    ready_bytes,
                    preload_units,
                    preload_kb,
                }
            })
            .collect();

        Self {
            model,
            params: *params,
            funcs,
            units,
            peak_ms_per_req,
            offered_this_step,
            terms,
            boots,
            watch: Watch {
                interp_funcs,
                loadable_units,
            },
        }
    }

    /// The boot window of a server calibrated with `params`: a consumer of
    /// the plan's package `pkg`, or a baseline. Deserialize + preload +
    /// compile on every core, then parallel (shorter) init — §IV-A and
    /// §VII-A. With `early_serve_frac < 1.0` only the hottest prefix of
    /// heat mass is compiled inside the window; the remainder finishes on
    /// the background JIT threads while serving.
    pub(crate) fn boot_window(&self, params: &WarmupParams, pkg: Option<usize>) -> BootWindow {
        let Some(boot) = pkg.map(|k| &self.boots[k]) else {
            return BootWindow {
                serve_start_ms: params.init_ms_nojs,
                code_bytes: 0,
            };
        };
        let cores = params.cores as f64;
        let compile_ms = boot.ready_bytes as f64 / (params.compile_bytes_per_core_ms * cores);
        let preload_ms = boot.preload_kb * params.load_ms_per_kb / cores;
        BootWindow {
            serve_start_ms: params.deserialize_ms
                + params.init_ms_js
                + (compile_ms + preload_ms) as u64,
            code_bytes: boot.ready_bytes,
        }
    }

    /// Whether a server calibrated with `p` may step over this plan: it
    /// agrees on every constant the plan read.
    fn fits(&self, p: &WarmupParams) -> bool {
        let q = &self.params;
        p.cores == q.cores
            && p.offered_fraction == q.offered_fraction
            && p.cycles_per_ms == q.cycles_per_ms
            && p.work_scale == q.work_scale
            && p.optimized_cpi == q.optimized_cpi
            && p.early_serve_frac == q.early_serve_frac
    }
}

/// The simulation state of one server.
#[derive(Debug)]
pub(crate) struct ServerSim<'a> {
    plan: &'a ServerPlan<'a>,
    params: WarmupParams,
    mode: Vec<Mode>,
    calls: Vec<f64>,
    unit_loaded: Vec<bool>,
    // Compile queue: (func index, bytes remaining, target mode).
    queue: std::collections::VecDeque<(usize, u64, Mode)>,
    code_bytes: u64,
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
    pub(crate) boot: BootWindow,
    point_a_ms: Option<u64>,
    point_b_ms: Option<u64>,
    point_c_ms: Option<u64>,
    /// Indices into the plan's terms whose function was promotable when
    /// last visited, in term order. Promotable functions only ever leave.
    promotable: Vec<u32>,
    /// The service time's cycle sum under the current modes; `None`
    /// after any write to `mode`.
    cycles: Option<f64>,
    /// The `dt_requests` whose lazy loads are committed: at a fixed
    /// offered load every unit the loader touches loads on the first step.
    loaded_for: Option<f64>,
}

impl<'a> ServerSim<'a> {
    /// Creates one server's simulation over a shared plan: a Jump-Start
    /// consumer booting the plan's package `pkg`, or a baseline.
    pub(crate) fn new(plan: &'a ServerPlan<'a>, params: &WarmupParams, pkg: Option<usize>) -> Self {
        debug_assert!(plan.fits(params), "server calibration outside its plan");
        let params = *params;
        let n = plan.funcs;
        let boot = plan.boot_window(&params, pkg);
        let mut sim = Self {
            plan,
            params,
            mode: vec![Mode::Interp; n],
            calls: vec![0.0; n],
            unit_loaded: vec![false; plan.units],
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
            boot,
            point_a_ms: None,
            point_b_ms: None,
            point_c_ms: None,
            promotable: Vec::new(),
            cycles: None,
            loaded_for: None,
        };
        if let Some(boot) = pkg.map(|k| &plan.boots[k]) {
            // The boot window compiles the hottest prefix: it is optimized
            // from the first request, the rest queues for the background
            // JIT threads.
            for &i in &boot.order[..boot.ready] {
                sim.mode[i] = Mode::Optimized;
            }
            for &i in &boot.order[boot.ready..] {
                sim.bg_pending[i] = true;
                sim.queue
                    .push_back((i, plan.model.opt_bytes[i], Mode::Optimized));
            }
            sim.consumer_bg = boot.ready < boot.order.len();
            for &u in &boot.preload_units {
                sim.unit_loaded[u] = true;
            }
            sim.code_bytes = boot.ready_bytes;
            sim.optimized_phase_done = true;
            // Consumers never run the profiling phase (Fig. 3c).
            sim.retranslate_started = true;
        }
        sim.promotable = (0..plan.terms.len() as u32)
            .filter(|&k| sim.is_promotable(plan.terms[k as usize].func as usize))
            .collect();
        sim
    }

    /// Whether serving can still promote function `i`: interpreted and not
    /// already queued by the consumer boot. Once false, false forever.
    fn is_promotable(&self, i: usize) -> bool {
        self.mode[i] == Mode::Interp && !self.bg_pending[i]
    }

    /// Expected core-milliseconds to serve one request right now,
    /// including lazy-load overhead committed this step.
    fn service_core_ms(&mut self, dt_requests: f64) -> f64 {
        let p = &self.params;
        let total_cycles = match self.cycles {
            Some(cycles) => cycles,
            None => {
                // Indexed by `Mode`'s discriminant: a mixed-mode walk is
                // branch-free.
                let cpi = [p.interp_cpi, p.profiling_cpi, p.optimized_cpi, p.live_cpi];
                let mut cycles = 0.0;
                for t in &self.plan.terms {
                    cycles += t.base * cpi[self.mode[t.func as usize] as usize];
                }
                *self.cycles.insert(cycles)
            }
        };
        let mut load_ms = 0.0;
        if self.loaded_for != Some(dt_requests) {
            self.loaded_for = Some(dt_requests);
            // Lazy unit load on first touch (amortized over this step's
            // requests).
            for t in &self.plan.terms {
                let u = t.unit as usize;
                if !self.unit_loaded[u] && t.prob * dt_requests >= 0.5 {
                    self.unit_loaded[u] = true;
                    load_ms += self.plan.model.unit_bytes[t.func as usize] as f64 / 1024.0
                        * p.load_ms_per_kb
                        / dt_requests.max(1.0);
                }
            }
        }
        total_cycles / p.cycles_per_ms + load_ms
    }

    /// Applies the per-function effects of serving `requests` requests.
    fn account_requests(&mut self, requests: f64, now_ms: u64) {
        let p = self.params;
        let model = self.plan.model;
        let mut kept = 0;
        for k in 0..self.promotable.len() {
            let term = self.promotable[k];
            let t = &self.plan.terms[term as usize];
            let i = t.func as usize;
            if !self.is_promotable(i) {
                continue;
            }
            let share = t.prob * requests;
            if share > 0.0 {
                self.calls[i] += share * t.calls;
                if self.calls[i] >= p.promote_calls as f64 {
                    if self.optimized_phase_done {
                        self.queue.push_back((i, model.live_bytes[i], Mode::Live));
                    } else if !self.retranslate_started {
                        self.queue
                            .push_back((i, model.prof_bytes[i], Mode::Profiling));
                    }
                    // Mark as queued so it isn't enqueued again.
                    self.mode[i] = if self.optimized_phase_done {
                        Mode::Live
                    } else {
                        Mode::Profiling
                    };
                    self.cycles = None;
                    continue;
                }
            }
            self.promotable[kept] = term;
            kept += 1;
        }
        self.promotable.truncate(kept);
        if !self.retranslate_started && now_ms >= self.boot.serve_start_ms + p.profile_serve_ms {
            self.retranslate_started = true;
            self.point_a_ms = Some(now_ms);
            // Enqueue optimize-all jobs hottest-first.
            for &f in &model.profiled {
                let i = f.index();
                self.queue
                    .push_back((i, model.opt_bytes[i], Mode::Optimized));
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
                self.cycles = None;
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
                        self.cycles = None;
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
                    mode => {
                        self.mode[i] = mode;
                        self.cycles = None;
                    }
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

    /// The lifecycle points stamped so far: A, B and C. Each is stamped
    /// at most once, by the step that reaches it.
    pub(crate) fn points(&self) -> [Option<u64>; 3] {
        [self.point_a_ms, self.point_b_ms, self.point_c_ms]
    }

    /// Whether no future [`ServerSim::serve_step`] at the plan's offered
    /// load can change any state that the timeline observes: the compile
    /// queue is drained, the batch lifecycle (retranslate → relocation)
    /// has fully completed, every unit the lazy loader will ever touch is
    /// loaded, and — when traffic flows — no reachable function is still
    /// interpreted (each such function's call counter grows every step
    /// and must eventually cross `promote_calls`). Once this holds, the
    /// per-step sample is a pure function of frozen state and the driver
    /// may replicate it.
    pub(crate) fn quiescent(&self) -> bool {
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
        let watch = &self.plan.watch;
        if self.plan.offered_this_step > 0.0
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::{quick_params, setup};

    /// The nested walk [`ServerSim::service_core_ms`] replaced: every
    /// endpoint, every callee, every step, through the model's per-endpoint
    /// call lists and the repo's unit lookup.
    fn reference_service_core_ms(
        sim: &mut ServerSim,
        app: &App,
        ep_probs: &[f64],
        dt_requests: f64,
    ) -> f64 {
        let p = &sim.params;
        let model = sim.plan.model;
        let mut total_cycles = 0.0;
        let mut load_ms = 0.0;
        for (e, &prob) in ep_probs.iter().enumerate() {
            if prob <= 0.0 {
                continue;
            }
            for &(f, calls) in &model.endpoint_calls[e] {
                let i = f.index();
                let cpi = match sim.mode[i] {
                    Mode::Interp => p.interp_cpi,
                    Mode::Profiling => p.profiling_cpi,
                    Mode::Optimized => p.optimized_cpi,
                    Mode::Live => p.live_cpi,
                };
                total_cycles += prob * calls * model.avg_instrs[i] * p.work_scale * cpi;
                let u = app.repo.func(f).unit.index();
                if !sim.unit_loaded[u] && prob * dt_requests >= 0.5 {
                    sim.unit_loaded[u] = true;
                    load_ms += model.unit_bytes[i] as f64 / 1024.0 * p.load_ms_per_kb
                        / dt_requests.max(1.0);
                }
            }
        }
        total_cycles / p.cycles_per_ms + load_ms
    }

    /// The nested walk [`ServerSim::account_requests`] replaced: every
    /// callee's counter grows every step, promotable or not.
    fn reference_account_requests(
        sim: &mut ServerSim,
        ep_probs: &[f64],
        requests: f64,
        now_ms: u64,
    ) {
        let p = sim.params;
        let model = sim.plan.model;
        for (e, &prob) in ep_probs.iter().enumerate() {
            let share = prob * requests;
            if share <= 0.0 {
                continue;
            }
            for &(f, calls) in &model.endpoint_calls[e] {
                let i = f.index();
                sim.calls[i] += share * calls;
                if sim.mode[i] == Mode::Interp
                    && !sim.bg_pending[i]
                    && sim.calls[i] >= p.promote_calls as f64
                {
                    if sim.optimized_phase_done {
                        sim.queue.push_back((i, model.live_bytes[i], Mode::Live));
                    } else if !sim.retranslate_started {
                        sim.queue
                            .push_back((i, model.prof_bytes[i], Mode::Profiling));
                    }
                    sim.mode[i] = if sim.optimized_phase_done {
                        Mode::Live
                    } else {
                        Mode::Profiling
                    };
                }
            }
        }
        if !sim.retranslate_started && now_ms >= sim.boot.serve_start_ms + p.profile_serve_ms {
            sim.retranslate_started = true;
            sim.point_a_ms = Some(now_ms);
            for &f in &model.profiled {
                let i = f.index();
                sim.queue
                    .push_back((i, model.opt_bytes[i], Mode::Optimized));
                sim.optimize_remaining += 1;
            }
        }
    }

    /// [`ServerSim::serve_step`] written out so its service time is
    /// observable, over the cached walk or (given the app and the mix's
    /// probabilities) the reference one.
    fn step(sim: &mut ServerSim, now: u64, dt: f64, reference: Option<(&App, &[f64])>) -> f64 {
        let used_core_ms = sim.run_compilers(sim.params.jit_threads as f64 * STEP_MS as f64, now);
        let serve_cores = sim.params.cores as f64 - used_core_ms / STEP_MS as f64;
        let service = match reference {
            None => sim.service_core_ms(dt),
            Some((app, probs)) => reference_service_core_ms(sim, app, probs, dt),
        };
        let capacity = serve_cores * STEP_MS as f64 / service.max(0.01);
        let served = dt.min(capacity);
        match reference {
            None => sim.account_requests(served, now),
            Some((_, probs)) => reference_account_requests(sim, probs, served, now),
        }
        service
    }

    #[test]
    fn cached_step_matches_the_nested_walk() {
        let (app, model, pkg) = setup();
        let mix = RequestMix::new(&app, 0, 0);
        let probs = mix.probabilities();
        let full = quick_params(&model);
        let early_slow = WarmupParams {
            early_serve_frac: 0.25,
            compile_bytes_per_core_ms: full.compile_bytes_per_core_ms / 3.0,
            ..full
        };
        for (name, params, jumpstart) in [
            ("baseline", full, false),
            ("consumer", full, true),
            ("early-serve consumer", early_slow, true),
        ] {
            let plan = ServerPlan::new(&app, &model, &mix, &params, Some(&pkg));
            let pkg = jumpstart.then_some(0);
            let mut fast = ServerSim::new(&plan, &params, pkg);
            let mut slow = ServerSim::new(&plan, &params, pkg);
            let dt = plan.offered_this_step;
            let mut cached = 0;
            let mut now = (fast.boot.serve_start_ms / STEP_MS + 1) * STEP_MS;
            while now <= params.duration_ms {
                cached += usize::from(fast.cycles.is_some());
                let a = step(&mut fast, now, dt, None);
                let b = step(&mut slow, now, dt, Some((&app, &probs)));
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: service time at {now} ms");
                assert_eq!(fast.mode, slow.mode, "{name}: modes at {now} ms");
                for i in 0..fast.mode.len() {
                    if slow.is_promotable(i) {
                        assert_eq!(
                            fast.calls[i].to_bits(),
                            slow.calls[i].to_bits(),
                            "{name}: calls of function {i} at {now} ms"
                        );
                    }
                }
                now += STEP_MS;
            }
            // The cached sum served steps, and the mode writes that must
            // invalidate it (relocation end, background compiles) ran.
            assert!(cached > 0, "{name}: no step reused the cycle sum");
            if jumpstart {
                assert!(
                    fast.bg_pending.iter().all(|&b| !b),
                    "{name}: background compiles finish"
                );
            } else {
                assert!(fast.point_c_ms.is_some(), "{name}: relocation ends");
            }
        }
    }
}
