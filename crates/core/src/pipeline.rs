//! The streaming consumer compile pipeline.
//!
//! The paper's consumer "JITs all optimized code in parallel using all
//! the cores" before serving (§IV-A). The naive way — translate on N
//! threads into slots, barrier, then emit everything on one thread —
//! leaves N−1 cores idle for the whole emission phase and the barrier
//! serializes on the slowest translation. This module overlaps the two:
//!
//! * the compile order is split into chunks dealt round-robin onto
//!   per-worker work-stealing deques (hottest chunks first, so the heat
//!   mass needed for early-serve is translated earliest);
//! * workers translate and *plan the block layout* ([`jit::plan_layout`]
//!   — the expensive Ext-TSP step) off the critical emission path, then
//!   stream `(seq, unit, plan)` through a channel;
//! * the emitter thread holds a reorder buffer keyed by sequence number
//!   and places units strictly in compile order while translation is
//!   still running — so the code-cache addresses are **byte-identical**
//!   to a sequential boot (addresses feed the uarch model; parallelism
//!   may not move a single block);
//! * early serve is not this module's business: the consumer runs the
//!   pipeline once over the hot prefix of the compile order
//!   ([`early_serve_prefix`]), reports ready ([`EarlyServe`]), and runs it
//!   again over the remainder — the second run emits exactly where the
//!   first stopped;
//! * a worker panic (a poisoned package tripping a JIT bug, §VI-A) is
//!   caught with `catch_unwind` and surfaces as a clean error instead of
//!   aborting the boot, so the fallback controller still engages.
//!
//! Every phase is timed into [`BootStats`], the boot-phase telemetry the
//! `jsboot` bench binary prints and records as `BENCH_boot.json`.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use bytecode::{ClassId, FuncId, Repo, StrId};
use crossbeam::{channel, deque};
use jit::vasm::VasmUnit;
use jit::{
    plan_layout, translate_optimized_with, CtxProfile, InlineTemplate, JitEngine, JitOptions,
    LayoutPlan, TemplateKey, TemplateSource, TierProfile,
};

const TEMPLATE_SHARDS: usize = 16;

/// Sharded read-mostly cache of memoized inline-body templates, shared
/// across translation workers (the [`TemplateSource`] the JIT splices
/// from). Misses build outside any lock; a concurrent duplicate build
/// produces an identical template (translation is deterministic) and the
/// first insert wins. An exact memoization: a boot that splices templates
/// emits a byte-identical code cache to one that translates every inline
/// site afresh ([`jit::translate_optimized`], the reference).
pub struct TemplateCache {
    shards: Vec<RwLock<HashMap<TemplateKey, Arc<InlineTemplate>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for TemplateCache {
    fn default() -> Self {
        Self {
            shards: (0..TEMPLATE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl TemplateCache {
    /// Lookups served from the cache (= inline sites spliced for free).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to translate the callee body.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl TemplateSource for TemplateCache {
    fn get_or_build(
        &self,
        key: TemplateKey,
        build: &mut dyn FnMut() -> InlineTemplate,
    ) -> Arc<InlineTemplate> {
        let shard = &self.shards[key.callee.index() % TEMPLATE_SHARDS];
        if let Some(tpl) = shard.read().expect("template cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return tpl.clone();
        }
        let tpl = Arc::new(build());
        self.misses.fetch_add(1, Ordering::Relaxed);
        shard
            .write()
            .expect("template cache poisoned")
            .entry(key)
            .or_insert(tpl)
            .clone()
    }
}

/// Compile-cache telemetry for one boot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Inline sites spliced from a memoized template.
    pub template_hits: u64,
    /// Inline-body templates built (distinct callees × weight modes).
    pub template_misses: u64,
    /// Always 0; kept for the benchmark's traced pass, remove with the
    /// next benchmark PR.
    pub plan_hits: u64,
    /// Always 0; kept for the benchmark's traced pass, remove with the
    /// next benchmark PR.
    pub plan_misses: u64,
}

/// Per-worker translation telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Units this worker translated.
    pub translated: usize,
    /// Of those, units taken from another worker's deque.
    pub stolen: usize,
    /// Time spent translating and planning layout.
    pub busy_ns: u64,
    /// Time spent in steal attempts (own deque empty).
    pub steal_ns: u64,
    /// Residual wall time: lock contention, channel sends, scheduling.
    pub stall_ns: u64,
}

/// When the boot became serve-ready (§IV-A relaxed: serve once the
/// hottest `frac` of heat mass is compiled) — the boundary between the
/// consumer's two compile stages. At `frac >= 1` the first stage is the
/// whole compile order and nothing is left for the background.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EarlyServe {
    /// Configured heat-mass fraction.
    pub frac: f64,
    /// Functions emitted when the boot became ready.
    pub ready_funcs: usize,
    /// Bytes emitted when the boot became ready.
    pub ready_bytes: u64,
    /// Pipeline wall time of the serve-ready compile stage.
    pub ready_ns: u64,
    /// Functions left compiling in the background after ready.
    pub background_funcs: usize,
    /// Bytes emitted after the ready point.
    pub background_bytes: u64,
}

/// Boot-phase timeline for one consumer boot (Fig. 3c, instrumented).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BootStats {
    /// Worker threads used for translation.
    pub threads: usize,
    /// Package decode time (0 unless booted via [`crate::consume_bytes`]).
    pub decode_ns: u64,
    /// Static lint + stale-profile repair time.
    pub lint_repair_ns: u64,
    /// Property-slot resolution time (§V-C layout install).
    pub prop_slots_ns: u64,
    /// Wall time of the overlapped translate+emit phase.
    pub pipeline_ns: u64,
    /// Emitter busy time (placing blocks in the code cache).
    pub emit_ns: u64,
    /// Emitter idle time waiting on translations. In a threaded boot this
    /// is the reorder-buffer recv wait; in a sequential boot it is the
    /// translate+plan time (the emitter "waits" inline for each unit), so
    /// rows are comparable across thread counts.
    pub emit_stall_ns: u64,
    /// End-to-end boot wall time (decode excluded unless present).
    pub total_ns: u64,
    /// Functions compiled to optimized code.
    pub compiled_funcs: usize,
    /// Bytes of optimized code emitted.
    pub compile_bytes: u64,
    /// Per-worker telemetry (one entry for a sequential boot).
    pub workers: Vec<WorkerStats>,
    /// The serve-ready point (`None` only in hand-built stats).
    pub early_serve: Option<EarlyServe>,
    /// Template-cache hit/miss counters (`None` only in hand-built stats).
    pub caches: Option<CacheStats>,
}

impl BootStats {
    /// Total busy time across all workers.
    pub fn worker_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Units stolen across all workers.
    pub fn total_stolen(&self) -> usize {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Boot throughput in compiled bytes per second of pipeline wall time.
    pub fn bytes_per_sec(&self) -> f64 {
        if self.pipeline_ns == 0 {
            return 0.0;
        }
        self.compile_bytes as f64 * 1e9 / self.pipeline_ns as f64
    }

    /// Renders the phase timeline as an aligned human-readable block.
    pub fn render(&self) -> String {
        fn ms(ns: u64) -> f64 {
            ns as f64 / 1e6
        }
        let mut out = String::new();
        out.push_str(&format!(
            "boot: {} funcs, {} bytes, {} threads, {:.3} ms total\n",
            self.compiled_funcs,
            self.compile_bytes,
            self.threads,
            ms(self.total_ns)
        ));
        if self.decode_ns > 0 {
            out.push_str(&format!("  decode       {:>10.3} ms\n", ms(self.decode_ns)));
        }
        out.push_str(&format!(
            "  lint/repair  {:>10.3} ms\n  prop-slots   {:>10.3} ms\n  pipeline     {:>10.3} ms (emit {:.3} ms busy, {:.3} ms stalled)\n",
            ms(self.lint_repair_ns),
            ms(self.prop_slots_ns),
            ms(self.pipeline_ns),
            ms(self.emit_ns),
            ms(self.emit_stall_ns),
        ));
        for (i, w) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "  worker {i:<2}    {:>6} units ({} stolen)  busy {:>9.3} ms  steal {:>8.3} ms  stall {:>8.3} ms\n",
                w.translated,
                w.stolen,
                ms(w.busy_ns),
                ms(w.steal_ns),
                ms(w.stall_ns),
            ));
        }
        if let Some(c) = &self.caches {
            out.push_str(&format!(
                "  caches       templates {}/{} hit\n",
                c.template_hits,
                c.template_hits + c.template_misses,
            ));
        }
        if let Some(e) = &self.early_serve {
            out.push_str(&format!(
                "  early-serve  ready at {:.3} ms with {} funcs / {} bytes ({:.0}% heat), {} funcs / {} bytes in background\n",
                ms(e.ready_ns),
                e.ready_funcs,
                e.ready_bytes,
                e.frac * 100.0,
                e.background_funcs,
                e.background_bytes,
            ));
        }
        out
    }

    /// Serializes the stats as a JSON object (hand-rolled; the workspace
    /// has no serde).
    pub fn to_json(&self) -> String {
        let workers: Vec<String> = self
            .workers
            .iter()
            .map(|w| {
                format!(
                    "{{\"translated\":{},\"stolen\":{},\"busy_ns\":{},\"steal_ns\":{},\"stall_ns\":{}}}",
                    w.translated, w.stolen, w.busy_ns, w.steal_ns, w.stall_ns
                )
            })
            .collect();
        let early = match &self.early_serve {
            Some(e) => format!(
                "{{\"frac\":{},\"ready_funcs\":{},\"ready_bytes\":{},\"ready_ns\":{},\"background_funcs\":{},\"background_bytes\":{}}}",
                e.frac, e.ready_funcs, e.ready_bytes, e.ready_ns, e.background_funcs, e.background_bytes
            ),
            None => "null".to_string(),
        };
        let caches = match &self.caches {
            Some(c) => format!(
                "{{\"template_hits\":{},\"template_misses\":{}}}",
                c.template_hits, c.template_misses
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\"threads\":{},\"decode_ns\":{},\"lint_repair_ns\":{},\"prop_slots_ns\":{},\"pipeline_ns\":{},\"emit_ns\":{},\"emit_stall_ns\":{},\"total_ns\":{},\"compiled_funcs\":{},\"compile_bytes\":{},\"workers\":[{}],\"early_serve\":{},\"caches\":{}}}",
            self.threads,
            self.decode_ns,
            self.lint_repair_ns,
            self.prop_slots_ns,
            self.pipeline_ns,
            self.emit_ns,
            self.emit_stall_ns,
            self.total_ns,
            self.compiled_funcs,
            self.compile_bytes,
            workers.join(","),
            early,
            caches,
        )
    }

    /// Writes every field into `reg` as `boot.*` gauges (set semantics —
    /// re-recording overwrites). The inverse of [`BootStats::from_registry`].
    pub fn record(&self, reg: &telemetry::Registry) {
        reg.gauge("boot.threads").set(self.threads as u64);
        reg.gauge("boot.decode_ns").set(self.decode_ns);
        reg.gauge("boot.lint_repair_ns").set(self.lint_repair_ns);
        reg.gauge("boot.prop_slots_ns").set(self.prop_slots_ns);
        reg.gauge("boot.pipeline_ns").set(self.pipeline_ns);
        reg.gauge("boot.emit_ns").set(self.emit_ns);
        reg.gauge("boot.emit_stall_ns").set(self.emit_stall_ns);
        reg.gauge("boot.total_ns").set(self.total_ns);
        reg.gauge("boot.compiled_funcs")
            .set(self.compiled_funcs as u64);
        reg.gauge("boot.compile_bytes").set(self.compile_bytes);
        reg.gauge("boot.workers").set(self.workers.len() as u64);
        for (i, w) in self.workers.iter().enumerate() {
            reg.gauge(&format!("boot.worker.{i}.translated"))
                .set(w.translated as u64);
            reg.gauge(&format!("boot.worker.{i}.stolen"))
                .set(w.stolen as u64);
            reg.gauge(&format!("boot.worker.{i}.busy_ns"))
                .set(w.busy_ns);
            reg.gauge(&format!("boot.worker.{i}.steal_ns"))
                .set(w.steal_ns);
            reg.gauge(&format!("boot.worker.{i}.stall_ns"))
                .set(w.stall_ns);
        }
        reg.gauge("boot.early_serve.present")
            .set(self.early_serve.is_some() as u64);
        if let Some(e) = &self.early_serve {
            reg.gauge_f64("boot.early_serve.frac").set(e.frac);
            reg.gauge("boot.early_serve.ready_funcs")
                .set(e.ready_funcs as u64);
            reg.gauge("boot.early_serve.ready_bytes").set(e.ready_bytes);
            reg.gauge("boot.early_serve.ready_ns").set(e.ready_ns);
            reg.gauge("boot.early_serve.background_funcs")
                .set(e.background_funcs as u64);
            reg.gauge("boot.early_serve.background_bytes")
                .set(e.background_bytes);
        }
        reg.gauge("boot.cache.present")
            .set(self.caches.is_some() as u64);
        if let Some(c) = &self.caches {
            reg.gauge("boot.cache.template_hits").set(c.template_hits);
            reg.gauge("boot.cache.template_misses")
                .set(c.template_misses);
        }
    }

    /// Renders boot stats from the `boot.*` gauges in `reg` — BootStats is
    /// a *view* of the registry, not an independent record.
    pub fn from_registry(reg: &telemetry::Registry) -> BootStats {
        let workers = (0..reg.value_u64("boot.workers") as usize)
            .map(|i| WorkerStats {
                translated: reg.value_u64(&format!("boot.worker.{i}.translated")) as usize,
                stolen: reg.value_u64(&format!("boot.worker.{i}.stolen")) as usize,
                busy_ns: reg.value_u64(&format!("boot.worker.{i}.busy_ns")),
                steal_ns: reg.value_u64(&format!("boot.worker.{i}.steal_ns")),
                stall_ns: reg.value_u64(&format!("boot.worker.{i}.stall_ns")),
            })
            .collect();
        let early_serve = (reg.value_u64("boot.early_serve.present") == 1).then(|| EarlyServe {
            frac: reg.scalar("boot.early_serve.frac").unwrap_or(0.0),
            ready_funcs: reg.value_u64("boot.early_serve.ready_funcs") as usize,
            ready_bytes: reg.value_u64("boot.early_serve.ready_bytes"),
            ready_ns: reg.value_u64("boot.early_serve.ready_ns"),
            background_funcs: reg.value_u64("boot.early_serve.background_funcs") as usize,
            background_bytes: reg.value_u64("boot.early_serve.background_bytes"),
        });
        let caches = (reg.value_u64("boot.cache.present") == 1).then(|| CacheStats {
            template_hits: reg.value_u64("boot.cache.template_hits"),
            template_misses: reg.value_u64("boot.cache.template_misses"),
            ..Default::default()
        });
        BootStats {
            threads: reg.value_u64("boot.threads") as usize,
            decode_ns: reg.value_u64("boot.decode_ns"),
            lint_repair_ns: reg.value_u64("boot.lint_repair_ns"),
            prop_slots_ns: reg.value_u64("boot.prop_slots_ns"),
            pipeline_ns: reg.value_u64("boot.pipeline_ns"),
            emit_ns: reg.value_u64("boot.emit_ns"),
            emit_stall_ns: reg.value_u64("boot.emit_stall_ns"),
            total_ns: reg.value_u64("boot.total_ns"),
            compiled_funcs: reg.value_u64("boot.compiled_funcs") as usize,
            compile_bytes: reg.value_u64("boot.compile_bytes"),
            workers,
            early_serve,
            caches,
        }
    }
}

/// Length of the shortest prefix of `order` whose cumulative heat covers
/// `frac` of the total heat mass over `order` (heat = summed tier-1 block
/// counters). `frac >= 1` covers everything; `frac <= 0` covers nothing.
pub fn early_serve_prefix(tier: &TierProfile, order: &[FuncId], frac: f64) -> usize {
    if frac >= 1.0 {
        return order.len();
    }
    if frac <= 0.0 {
        return 0;
    }
    let heat: HashMap<FuncId, u64> = tier.heat_ranked().iter().copied().collect();
    early_serve_prefix_by_heat(&heat, order, frac)
}

/// [`early_serve_prefix`] over an externally supplied heat map — the
/// chunk-lazy boot path computes the prefix from manifest heats before
/// any function chunk is decoded, and must agree with the tier-based
/// computation exactly.
pub fn early_serve_prefix_by_heat(
    heat: &HashMap<FuncId, u64>,
    order: &[FuncId],
    frac: f64,
) -> usize {
    if frac >= 1.0 {
        return order.len();
    }
    if frac <= 0.0 {
        return 0;
    }
    let total: u64 = order
        .iter()
        .map(|f| heat.get(f).copied().unwrap_or(0))
        .sum();
    if total == 0 {
        return order.len();
    }
    let target = (frac * total as f64).ceil() as u64;
    let mut cum = 0u64;
    for (i, f) in order.iter().enumerate() {
        cum += heat.get(f).copied().unwrap_or(0);
        if cum >= target {
            return i + 1;
        }
    }
    order.len()
}

/// What the overlapped translate+emit phase produced.
#[derive(Default)]
pub(crate) struct PipelineResult {
    pub compiled_funcs: usize,
    pub compile_bytes: u64,
    pub pipeline_ns: u64,
    pub emit_ns: u64,
    pub emit_stall_ns: u64,
    pub workers: Vec<WorkerStats>,
}

impl PipelineResult {
    /// Folds a later run on the same engine and the same logical workers
    /// into this one.
    pub fn absorb(&mut self, later: PipelineResult) {
        self.compiled_funcs += later.compiled_funcs;
        self.compile_bytes += later.compile_bytes;
        self.pipeline_ns += later.pipeline_ns;
        self.emit_ns += later.emit_ns;
        self.emit_stall_ns += later.emit_stall_ns;
        for (w, x) in self.workers.iter_mut().zip(later.workers) {
            w.translated += x.translated;
            w.stolen += x.stolen;
            w.busy_ns += x.busy_ns;
            w.steal_ns += x.steal_ns;
            w.stall_ns += x.stall_ns;
        }
    }

    /// Counts one emitted unit (an empty translation emits no bytes and
    /// does not count as compiled).
    fn on_emitted(&mut self, bytes: u64) {
        if bytes > 0 {
            self.compiled_funcs += 1;
            self.compile_bytes += bytes;
        }
    }
}

/// Inputs shared by the sequential and parallel paths.
pub(crate) struct PipelineJob<'a, 'r> {
    pub repo: &'r Repo,
    pub tier: &'a TierProfile,
    pub ctx: &'a CtxProfile,
    /// Compile order, already filtered to profiled functions.
    pub work: &'a [FuncId],
    pub jit_opts: JitOptions,
    pub resolver: &'a (dyn Fn(ClassId, StrId) -> Option<u16> + Sync),
    /// Simulate a JIT compiler bug inside a worker (Poison::CompileCrash
    /// with threads > 1): the worker panics and the pipeline must surface
    /// the panic as an error, not abort.
    pub poison_crash: bool,
    /// Inline-body templates shared by the translation workers.
    pub templates: &'a TemplateCache,
    /// Per-boot metrics registry: translate/emit duration histograms and
    /// steal counters land here as the pipeline runs.
    pub metrics: telemetry::Registry,
}

/// Runs the compile pipeline, emitting into `engine` strictly in `work`
/// order. Returns `Err(())` when a worker crashed (the caller maps this
/// to `ConsumerError::JitCrash`).
pub(crate) fn run(
    job: &PipelineJob<'_, '_>,
    engine: &mut JitEngine<'_>,
    threads: usize,
) -> Result<PipelineResult, ()> {
    if threads <= 1 {
        Ok(run_sequential(job, engine))
    } else {
        run_parallel(job, engine, threads)
    }
}

fn translate_and_plan(job: &PipelineJob<'_, '_>, func: FuncId) -> (VasmUnit, LayoutPlan) {
    let _span = telemetry::span!("compile", "func" => func.index());
    let unit = translate_optimized_with(
        job.repo,
        func,
        job.tier,
        job.ctx,
        job.jit_opts.weights,
        job.jit_opts.inline,
        &job.resolver,
        Some(job.templates),
    );
    let plan = plan_layout(&job.jit_opts, &unit);
    (unit, plan)
}

fn run_sequential(job: &PipelineJob<'_, '_>, engine: &mut JitEngine<'_>) -> PipelineResult {
    let start = Instant::now();
    let mut out = PipelineResult::default();
    let mut worker = WorkerStats::default();
    let translate_hist = job.metrics.histogram("pipeline.translate_ns");
    let emit_hist = job.metrics.histogram("pipeline.emit_ns");
    let _pipeline_span = telemetry::span!("pipeline", "threads" => 1u64, "units" => job.work.len());
    for (seq, &func) in job.work.iter().enumerate() {
        let t0 = Instant::now();
        let (unit, plan) = translate_and_plan(job, func);
        let translate_ns = t0.elapsed().as_nanos() as u64;
        translate_hist.record(translate_ns);
        worker.busy_ns += translate_ns;
        worker.translated += 1;
        let t1 = Instant::now();
        let bytes = {
            let _emit_span = telemetry::span!("emit", "seq" => seq, "func" => func.index());
            engine.emit_planned(unit, &plan)
        };
        let unit_emit_ns = t1.elapsed().as_nanos() as u64;
        emit_hist.record(unit_emit_ns);
        out.emit_ns += unit_emit_ns;
        out.on_emitted(bytes);
    }
    out.pipeline_ns = start.elapsed().as_nanos() as u64;
    // The emitter waits inline for each translation; reporting that wait
    // (instead of 0) keeps the column comparable with threaded boots,
    // whose stall is the reorder-buffer recv time.
    out.emit_stall_ns = worker.busy_ns;
    out.workers = vec![worker];
    out
}

/// How many consecutive units one deque entry carries. Small enough to
/// keep workers load-balanced, large enough to amortize queue traffic.
fn chunk_len(work_len: usize, threads: usize) -> usize {
    (work_len / (threads * 4)).clamp(1, 32)
}

fn run_parallel(
    job: &PipelineJob<'_, '_>,
    engine: &mut JitEngine<'_>,
    threads: usize,
) -> Result<PipelineResult, ()> {
    let start = Instant::now();
    let total = job.work.len();
    // Opened before the workers spawn so the span brackets every compile
    // (on an oversubscribed host the main thread may not run again until
    // well after the workers have started translating).
    let _pipeline_span = telemetry::span!("pipeline", "threads" => threads, "units" => total);

    // Deal heat-ordered chunks of the compile order round-robin onto the
    // per-worker deques: worker 0 gets the hottest chunk, and early
    // chunks — the ones the reorder buffer needs first — are at the front
    // of every queue.
    let workers: Vec<deque::Worker<(usize, FuncId)>> =
        (0..threads).map(|_| deque::Worker::new_fifo()).collect();
    let chunk = chunk_len(total, threads);
    for (c, slice) in job.work.chunks(chunk).enumerate() {
        let base = c * chunk;
        for (off, &func) in slice.iter().enumerate() {
            workers[c % threads].push((base + off, func));
        }
    }
    let stealers: Vec<deque::Stealer<(usize, FuncId)>> =
        workers.iter().map(|w| w.stealer()).collect();

    let (tx, rx) = channel::unbounded::<(usize, VasmUnit, LayoutPlan)>();
    let abort = AtomicBool::new(false);
    let crashed = AtomicBool::new(false);

    let mut out = PipelineResult::default();

    out.workers = crossbeam::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(wid, own)| {
                let tx = tx.clone();
                let stealers = &stealers;
                let abort = &abort;
                let crashed = &crashed;
                s.spawn(move |_| {
                    // One trace track per worker: every compile span this
                    // thread records lands on its own timeline row.
                    let _track = telemetry::track(format!("worker {wid}"));
                    let translate_hist = job.metrics.histogram("pipeline.translate_ns");
                    let steals = job.metrics.counter("pipeline.steals");
                    let wall = Instant::now();
                    let mut stats = WorkerStats::default();
                    'work: loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        // Own queue first, then steal round-robin.
                        let (task, was_steal) = match own.pop() {
                            Some(t) => (t, false),
                            None => {
                                let t0 = Instant::now();
                                let mut found = None;
                                'steal: loop {
                                    let mut saw_retry = false;
                                    for i in 1..stealers.len() {
                                        let victim = (wid + i) % stealers.len();
                                        match stealers[victim].steal() {
                                            deque::Steal::Success(t) => {
                                                found = Some(t);
                                                break 'steal;
                                            }
                                            deque::Steal::Retry => saw_retry = true,
                                            deque::Steal::Empty => {}
                                        }
                                    }
                                    if !saw_retry || abort.load(Ordering::Relaxed) {
                                        break;
                                    }
                                }
                                stats.steal_ns += t0.elapsed().as_nanos() as u64;
                                match found {
                                    Some(t) => {
                                        steals.inc();
                                        telemetry::instant!(
                                            "steal",
                                            "worker" => wid,
                                            "seq" => t.0
                                        );
                                        (t, true)
                                    }
                                    None => break 'work,
                                }
                            }
                        };
                        let (seq, func) = task;
                        let t0 = Instant::now();
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            if job.poison_crash {
                                panic!("simulated JIT compiler bug (Poison::CompileCrash)");
                            }
                            translate_and_plan(job, func)
                        }));
                        let translate_ns = t0.elapsed().as_nanos() as u64;
                        translate_hist.record(translate_ns);
                        stats.busy_ns += translate_ns;
                        match result {
                            Ok((unit, plan)) => {
                                stats.translated += 1;
                                if was_steal {
                                    stats.stolen += 1;
                                }
                                // Send only fails when the emitter already
                                // bailed; nothing left to do then.
                                if tx.send((seq, unit, plan)).is_err() {
                                    break;
                                }
                            }
                            Err(_) => {
                                crashed.store(true, Ordering::Relaxed);
                                abort.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    let wall_ns = wall.elapsed().as_nanos() as u64;
                    stats.stall_ns = wall_ns.saturating_sub(stats.busy_ns + stats.steal_ns);
                    stats
                })
            })
            .collect();
        drop(tx);

        // The emitter: this thread. Reorder buffer keyed by sequence
        // number; units are placed the instant the in-order prefix is
        // complete, while translation continues on the workers.
        let emit_hist = job.metrics.histogram("pipeline.emit_ns");
        let mut pending: BTreeMap<usize, (VasmUnit, LayoutPlan)> = BTreeMap::new();
        let mut next_seq = 0usize;
        let mut received = 0usize;
        while received < total {
            let t0 = Instant::now();
            let Ok((seq, unit, plan)) = rx.recv() else {
                // All senders gone: a worker crashed (or aborted).
                break;
            };
            out.emit_stall_ns += t0.elapsed().as_nanos() as u64;
            received += 1;
            pending.insert(seq, (unit, plan));
            while let Some((unit, plan)) = pending.remove(&next_seq) {
                let t1 = Instant::now();
                let bytes = {
                    let _emit_span = telemetry::span!("emit", "seq" => next_seq);
                    engine.emit_planned(unit, &plan)
                };
                let unit_emit_ns = t1.elapsed().as_nanos() as u64;
                emit_hist.record(unit_emit_ns);
                out.emit_ns += unit_emit_ns;
                out.on_emitted(bytes);
                next_seq += 1;
            }
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are caught in-thread"))
            .collect()
    })
    .expect("pipeline scope does not panic");

    if crashed.load(Ordering::Relaxed) {
        return Err(());
    }
    out.pipeline_ns = start.elapsed().as_nanos() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier_with_heat(heats: &[(u32, u64)]) -> TierProfile {
        let mut t = TierProfile::default();
        for &(f, h) in heats {
            let p = t.funcs.entry(FuncId::new(f)).or_default();
            p.block_counts = vec![h];
        }
        t
    }

    #[test]
    fn early_serve_prefix_covers_heat_mass() {
        let tier = tier_with_heat(&[(0, 70), (1, 20), (2, 10)]);
        let order = vec![FuncId::new(0), FuncId::new(1), FuncId::new(2)];
        assert_eq!(early_serve_prefix(&tier, &order, 1.0), 3);
        assert_eq!(early_serve_prefix(&tier, &order, 0.0), 0);
        assert_eq!(early_serve_prefix(&tier, &order, 0.5), 1);
        assert_eq!(early_serve_prefix(&tier, &order, 0.7), 1);
        assert_eq!(early_serve_prefix(&tier, &order, 0.71), 2);
        assert_eq!(early_serve_prefix(&tier, &order, 0.95), 3);
    }

    #[test]
    fn early_serve_prefix_with_no_heat_serves_everything() {
        let tier = TierProfile::default();
        let order = vec![FuncId::new(0), FuncId::new(1)];
        assert_eq!(early_serve_prefix(&tier, &order, 0.5), 2);
    }

    #[test]
    fn chunks_cover_all_work() {
        for (len, threads) in [(1, 2), (7, 2), (100, 4), (5, 8), (1000, 16)] {
            let c = chunk_len(len, threads);
            assert!((1..=32).contains(&c));
            let covered: usize = (0..len)
                .collect::<Vec<_>>()
                .chunks(c)
                .map(<[usize]>::len)
                .sum();
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn boot_stats_json_is_well_formed() {
        let stats = BootStats {
            threads: 2,
            compiled_funcs: 3,
            compile_bytes: 100,
            workers: vec![WorkerStats::default(); 2],
            early_serve: Some(EarlyServe {
                frac: 0.5,
                ready_funcs: 1,
                ready_bytes: 40,
                ready_ns: 1000,
                background_funcs: 2,
                background_bytes: 60,
            }),
            ..Default::default()
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"threads\":2"));
        assert!(json.contains("\"early_serve\":{\"frac\":0.5"));
        assert_eq!(json.matches("\"translated\"").count(), 2);
        let rendered = stats.render();
        assert!(rendered.contains("early-serve"));
        assert!(rendered.contains("worker 0"));
    }

    #[test]
    fn boot_stats_round_trip_through_registry() {
        // Golden property of the stats-as-view design: record() followed
        // by from_registry() reproduces the struct exactly, including the
        // Option fields and the f64 fraction.
        let full = BootStats {
            threads: 3,
            decode_ns: 11,
            lint_repair_ns: 22,
            prop_slots_ns: 33,
            pipeline_ns: 44,
            emit_ns: 55,
            emit_stall_ns: 66,
            total_ns: 77,
            compiled_funcs: 5,
            compile_bytes: 1234,
            workers: vec![
                WorkerStats {
                    translated: 3,
                    stolen: 1,
                    busy_ns: 100,
                    steal_ns: 10,
                    stall_ns: 1,
                },
                WorkerStats::default(),
            ],
            early_serve: Some(EarlyServe {
                frac: 0.37,
                ready_funcs: 2,
                ready_bytes: 500,
                ready_ns: 40,
                background_funcs: 3,
                background_bytes: 734,
            }),
            caches: Some(CacheStats {
                template_hits: 7,
                template_misses: 2,
                ..Default::default()
            }),
        };
        let reg = telemetry::Registry::default();
        full.record(&reg);
        assert_eq!(BootStats::from_registry(&reg), full);

        // None variants survive too (presence markers overwrite).
        let bare = BootStats {
            threads: 1,
            workers: vec![WorkerStats::default()],
            ..Default::default()
        };
        let reg2 = telemetry::Registry::default();
        bare.record(&reg2);
        assert_eq!(BootStats::from_registry(&reg2), bare);
    }
}
