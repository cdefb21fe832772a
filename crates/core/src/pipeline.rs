//! The consumer compile stage: claim → translate → park → place.
//!
//! The paper's consumer "JITs all optimized code in parallel using all
//! the cores" before serving (§IV-A), and HHVM's own retranslate-all does
//! it in two phases — compile everything, then relocate it into the code
//! cache (Fig. 1 point B, "optimized compilation done, relocation
//! starts"). This stage has the same shape:
//!
//! * **claim** — the compile order is flat and fully known before the
//!   first worker starts, so one shared atomic cursor hands every idle
//!   worker the earliest unclaimed unit: greedy list scheduling, hottest
//!   units first. The caller translates as worker 0, so a `threads`-thread
//!   boot runs on exactly `threads` threads;
//! * **translate** — the worker translates the unit and *plans its block
//!   layout* ([`jit::plan_layout`] — the expensive Ext-TSP step), under
//!   `catch_unwind`: a worker panic (a poisoned package tripping a JIT
//!   bug, §VI-A) raises a flag that stops every worker at its next claim
//!   and surfaces as a clean error with nothing emitted, so the fallback
//!   controller still engages;
//! * **park** — the finished `(unit, plan)` goes into the slot with the
//!   unit's index in the compile order;
//! * **place** — once every worker has joined, the calling thread walks
//!   the slots in index order and emits each into the code cache. Same
//!   translation, same order, one emitting thread: the addresses are
//!   **byte-identical** at every thread count by construction (addresses
//!   feed the uarch model; parallelism may not move a single block). A
//!   1-thread boot is the same code with nothing spawned.
//!
//! Placing while translation is still running would hide only the
//! emission, and `BENCH_boot.json` measures that (`emit_ns` against
//! `pipeline_ns`) at 1.5% of the stage when this design was chosen and
//! 2–3% since, at every thread count; per-worker queues with rebalancing
//! would balance nothing the cursor does not (the queues this replaced
//! moved at most 29 of 474 units between workers per boot). Neither is
//! kept.
//!
//! Early serve is not this module's business: the consumer runs the stage
//! once over the hot prefix of the compile order
//! ([`early_serve_prefix_by_heat`]), reports ready ([`EarlyServe`]), and
//! runs it again over the remainder — the second run emits exactly where
//! the first stopped.
//!
//! Every phase is timed into [`BootStats`], the one record of a boot: the
//! `jsboot` bench binary prints it and writes it to `BENCH_boot.json`. The
//! per-unit distribution is the `compile` / `emit` spans of a traced boot
//! (`jstrace --top`).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use bytecode::{ClassId, FuncId, Repo, StrId};
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
    /// Time spent translating and planning layout.
    pub busy_ns: u64,
    /// Residual wall time: claiming, parking, lock contention, scheduling.
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
    /// Package decode time: the whole decode under
    /// [`crate::consume_bytes`], the hot chunks' decode under
    /// [`crate::consume_chunked`], 0 under [`crate::consume`].
    pub decode_ns: u64,
    /// Admission time: identity, lint and stale-profile repair, over the
    /// head and every stage.
    pub lint_repair_ns: u64,
    /// Property-slot resolution time (§V-C layout install).
    pub prop_slots_ns: u64,
    /// Wall time of the compile stage (translate + emit).
    pub pipeline_ns: u64,
    /// Emitter busy time (placing blocks in the code cache).
    pub emit_ns: u64,
    /// Time the emitter spent waiting on translations: stage start →
    /// emission start (the translate + plan time of a 1-thread boot).
    pub emit_stall_ns: u64,
    /// End-to-end boot wall time (decode excluded unless present).
    pub total_ns: u64,
    /// Functions compiled to optimized code.
    pub compiled_funcs: usize,
    /// Bytes of optimized code emitted.
    pub compile_bytes: u64,
    /// Per-worker telemetry, worker 0 (the calling thread) first.
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
                "  worker {i:<2}    {:>6} units  busy {:>9.3} ms  stall {:>8.3} ms\n",
                w.translated,
                ms(w.busy_ns),
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
                    "{{\"translated\":{},\"busy_ns\":{},\"stall_ns\":{}}}",
                    w.translated, w.busy_ns, w.stall_ns
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
}

/// Length of the shortest prefix of `order` whose cumulative heat covers
/// `frac` of the total heat mass over `order` (heat = summed tier-1 block
/// counters, [`TierProfile::heat_ranked`] or the chunk manifest's, which
/// agree exactly). `frac >= 1` covers everything; `frac <= 0` covers
/// nothing.
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

/// What one run of the compile stage produced.
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
            w.busy_ns += x.busy_ns;
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

/// Inputs of one run of the compile stage.
pub(crate) struct PipelineJob<'a, 'r> {
    pub repo: &'r Repo,
    pub tier: &'a TierProfile,
    pub ctx: &'a CtxProfile,
    /// Compile order, already filtered to profiled functions.
    pub work: &'a [FuncId],
    pub jit_opts: JitOptions,
    pub resolver: &'a (dyn Fn(ClassId, StrId) -> Option<u16> + Sync),
    /// Simulate a JIT compiler bug inside a worker (Poison::CompileCrash):
    /// the worker panics and the pipeline must surface the panic as an
    /// error, not take the process down.
    pub poison_crash: bool,
    /// Inline-body templates shared by the translation workers.
    pub templates: &'a TemplateCache,
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

/// Runs the compile stage on `threads` threads (the caller's included),
/// emitting into `engine` strictly in `work` order. Returns `Err(())` when
/// a worker crashed (the caller maps this to `ConsumerError::JitCrash`).
pub(crate) fn run(
    job: &PipelineJob<'_, '_>,
    engine: &mut JitEngine<'_>,
    threads: usize,
) -> Result<PipelineResult, ()> {
    let start = Instant::now();
    let total = job.work.len();
    let _pipeline_span = telemetry::span!("pipeline", "threads" => threads, "units" => total);

    // The cursor only hands out indices (Relaxed: it publishes nothing);
    // a parked unit reaches the emitter through its slot and the join.
    let next = AtomicUsize::new(0);
    let crashed = AtomicBool::new(false);
    let slots: Vec<OnceLock<(VasmUnit, LayoutPlan)>> =
        (0..total).map(|_| OnceLock::new()).collect();

    let worker = |wid: usize| {
        // One trace track per worker: every compile span this thread
        // records lands on its own timeline row.
        let _track = telemetry::track(format!("worker {wid}"));
        let wall = Instant::now();
        let mut stats = WorkerStats::default();
        while !crashed.load(Ordering::Relaxed) {
            let seq = next.fetch_add(1, Ordering::Relaxed);
            let Some(&func) = job.work.get(seq) else {
                break;
            };
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                if job.poison_crash {
                    panic!("simulated JIT compiler bug (Poison::CompileCrash)");
                }
                translate_and_plan(job, func)
            }));
            stats.busy_ns += t0.elapsed().as_nanos() as u64;
            match result {
                Ok(done) => {
                    stats.translated += 1;
                    assert!(slots[seq].set(done).is_ok(), "unit {seq} claimed twice");
                }
                Err(_) => crashed.store(true, Ordering::Relaxed),
            }
        }
        stats.stall_ns = (wall.elapsed().as_nanos() as u64).saturating_sub(stats.busy_ns);
        stats
    };

    let workers = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..threads)
            .map(|wid| s.spawn(move || worker(wid)))
            .collect();
        let mut stats = vec![worker(0)];
        stats.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("worker panics are caught in-thread")),
        );
        stats
    });
    if crashed.load(Ordering::Relaxed) {
        return Err(());
    }

    let mut out = PipelineResult {
        workers,
        emit_stall_ns: start.elapsed().as_nanos() as u64,
        ..Default::default()
    };
    for (seq, slot) in slots.into_iter().enumerate() {
        let (unit, plan) = slot.into_inner().expect("every claimed unit was parked");
        let t0 = Instant::now();
        let bytes = {
            let _emit_span = telemetry::span!("emit", "seq" => seq);
            engine.emit_planned(unit, &plan)
        };
        out.emit_ns += t0.elapsed().as_nanos() as u64;
        out.on_emitted(bytes);
    }
    out.pipeline_ns = start.elapsed().as_nanos() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heat_of(heats: &[(u32, u64)]) -> HashMap<FuncId, u64> {
        let mut t = TierProfile::default();
        for &(f, h) in heats {
            let p = t.funcs.entry(FuncId::new(f)).or_default();
            p.block_counts = vec![h];
        }
        t.heat_ranked().into_iter().collect()
    }

    #[test]
    fn early_serve_prefix_covers_heat_mass() {
        let heat = heat_of(&[(0, 70), (1, 20), (2, 10)]);
        let order = vec![FuncId::new(0), FuncId::new(1), FuncId::new(2)];
        let prefix = |frac| early_serve_prefix_by_heat(&heat, &order, frac);
        assert_eq!(prefix(1.0), 3);
        assert_eq!(prefix(0.0), 0);
        assert_eq!(prefix(0.5), 1);
        assert_eq!(prefix(0.7), 1);
        assert_eq!(prefix(0.71), 2);
        assert_eq!(prefix(0.95), 3);
    }

    #[test]
    fn early_serve_prefix_with_no_heat_serves_everything() {
        let order = vec![FuncId::new(0), FuncId::new(1)];
        assert_eq!(early_serve_prefix_by_heat(&heat_of(&[]), &order, 0.5), 2);
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
}
