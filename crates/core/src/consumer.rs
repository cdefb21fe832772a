//! The consumer workflow (Fig. 3c): deserialize → admit (lint, and
//! repair if the profile is stale) → preload → compile all optimized code
//! on every core (claim → translate → park → place) → ready to serve.
//!
//! [`consume`], [`consume_bytes`] and [`consume_chunked`] are adapters over
//! one stage sequence, [`boot`]; early serve is its compile-stage boundary.
//! Profile data from either source is admitted in stages by the lint
//! ([`lint_records`], [`lint_shared`]) and the stale-profile repair
//! ([`StagedRepair`]): the head settles function identity and admits the
//! ctx and orders, and each stage admits the records it decodes, repairing
//! only the ones the lint flags. A materialised package is one stage
//! holding every record.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::Instant;

use analysis::{lint_records, lint_shared, prune_orders, MatchMode, RepairReport, StagedRepair};
use bytecode::{ClassId, FuncId, Repo, StrId, UnitId};
use jit::{JitEngine, JitOptions, TierProfile, WeightSource};
use vm::ClassTable;

use crate::chunk::{ChunkPool, LazyLoader, Manifest};
use crate::config::{FuncSort, JumpStartOptions, PropReorder};
use crate::package::{Poison, ProfilePackage};
use crate::pipeline::{self, BootStats, EarlyServe, PipelineJob};
use crate::wire::WireError;

/// Consumer failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsumerError {
    /// The package failed to decode.
    Wire(WireError),
    /// The profile data triggered a (simulated) JIT compiler crash —
    /// §VI-A's widespread-bug scenario.
    JitCrash,
    /// A stage's records still failed the static lint after the
    /// stale-profile repair: the package cannot describe this repo.
    InvalidProfile {
        /// Lint diagnostics remaining after repair, in the failing stage.
        errors: usize,
        /// The first diagnostic, rendered.
        first: String,
    },
}

impl std::fmt::Display for ConsumerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsumerError::Wire(e) => write!(f, "package decode failed: {e}"),
            ConsumerError::JitCrash => write!(f, "JIT crashed while compiling profile data"),
            ConsumerError::InvalidProfile { errors, first } => {
                write!(
                    f,
                    "profile failed static lint ({errors} errors, unrepairable): {first}"
                )
            }
        }
    }
}

impl std::error::Error for ConsumerError {}

impl From<WireError> for ConsumerError {
    fn from(e: WireError) -> Self {
        ConsumerError::Wire(e)
    }
}

/// What a successful consumer boot produces: a fully-compiled engine plus
/// the state the executor needs (property slots, unit layout).
#[derive(Debug)]
pub struct ConsumerOutcome<'r> {
    /// The engine holding all optimized translations.
    pub engine: JitEngine<'r>,
    /// Physical slot per (class, property) under the installed layout.
    pub prop_slots: HashMap<(ClassId, StrId), u16>,
    /// Unit preload order applied.
    pub unit_order: Vec<UnitId>,
    /// Functions compiled to optimized code.
    pub compiled_funcs: usize,
    /// Bytes of optimized code emitted.
    pub compile_bytes: u64,
    /// Set when admission found anything — a record identity moved or
    /// dropped, or a lint finding — and repaired it (stale counters
    /// remapped, dead entries pruned) before consumption.
    pub repair: Option<RepairReport>,
    /// Boot-phase timeline: decode, lint/repair, prop slots, per-worker
    /// translate busy/stall, emit, bytes (the `jsboot` telemetry).
    pub boot: BootStats,
}

/// Resolves physical property slots for every class, honoring the
/// package's installed orders (or declared order with reordering off).
fn resolve_prop_slots(
    repo: &Repo,
    prop_orders: &[(ClassId, Vec<StrId>)],
    apply: bool,
) -> HashMap<(ClassId, StrId), u16> {
    let mut table = ClassTable::new(repo);
    if apply {
        table.install_prop_orders(prop_orders.iter().cloned());
    }
    let mut slots = HashMap::new();
    for class in repo.classes() {
        let rc = table.resolve(repo, class.id);
        for (&name, &slot) in &rc.layout.slot_by_name {
            slots.insert((class.id, name), slot as u16);
        }
    }
    slots
}

/// Chunk-level accounting of a lazy consumer boot, stale or not: a stale
/// package's records are repaired in the stage that decodes them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkBootStats {
    /// Encoded manifest size (always fetched and decoded up front).
    pub manifest_bytes: u64,
    /// Total package payload bytes across all chunks.
    pub payload_bytes: u64,
    /// Chunk bytes decoded before serve-start: head + tail + the records
    /// whose identity needs their body + the hot closure.
    pub hot_bytes: u64,
    /// Chunk bytes decoded in the background stage.
    pub cold_bytes: u64,
    /// Chunks decoded before serve-start.
    pub hot_chunks: usize,
    /// Chunks decoded in the background stage.
    pub cold_chunks: usize,
    /// Time spent decoding before serve-start (manifest-driven).
    pub hot_decode_ns: u64,
    /// Time spent decoding the cold tail in the background.
    pub cold_decode_ns: u64,
}

impl ChunkBootStats {
    /// Fraction of package payload bytes decoded before serve-start —
    /// the lazy-decode win (1.0 = the monolithic behavior).
    pub fn before_serve_frac(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 1.0;
        }
        self.hot_bytes as f64 / self.payload_bytes as f64
    }
}

/// Runs the consumer boot sequence over a deserialized package.
///
/// Translation runs on `threads` threads, the caller's included (the
/// paper: "JITing happens in parallel using all the cores", §IV-A); once
/// they have joined, the caller places the translated units in the
/// package's function order — the resulting code-cache layout is
/// byte-identical to a sequential boot.
/// With `opts.early_serve_frac < 1.0` the boot reports ready once the
/// hottest fraction of heat mass is emitted ([`BootStats::early_serve`]).
///
/// The layout weights come from `opts`: `jit_opts.weights` is overwritten
/// with [`WeightSource::Accurate`] when `opts.accurate_bb_weights` is set
/// and [`WeightSource::TierOnly`] otherwise, whatever the caller passed.
///
/// # Errors
///
/// Returns [`ConsumerError::JitCrash`] for compile-poisoned packages —
/// including when the (simulated) compiler bug panics a translation
/// worker thread, which is caught rather than aborting the boot.
pub fn consume<'r>(
    repo: &'r Repo,
    pkg: &ProfilePackage,
    jit_opts: JitOptions,
    opts: &JumpStartOptions,
    threads: usize,
) -> Result<ConsumerOutcome<'r>, ConsumerError> {
    let src = Source::Package(Cow::Borrowed(pkg));
    Ok(boot(repo, src, 0, jit_opts, opts, threads)?.0)
}

/// Runs the consumer boot sequence over a serialized package, timing the
/// decode into the boot telemetry ([`BootStats::decode_ns`]).
///
/// # Errors
///
/// As [`consume`], plus [`ConsumerError::Wire`] when decoding fails.
pub fn consume_bytes<'r>(
    repo: &'r Repo,
    data: &bytes::Bytes,
    jit_opts: JitOptions,
    opts: &JumpStartOptions,
    threads: usize,
) -> Result<ConsumerOutcome<'r>, ConsumerError> {
    let t0 = Instant::now();
    let decode_span = telemetry::span!("decode", "bytes" => data.len());
    let pkg = ProfilePackage::deserialize(data)?;
    drop(decode_span);
    let decode_ns = t0.elapsed().as_nanos() as u64;
    let src = Source::Package(Cow::Owned(pkg));
    Ok(boot(repo, src, decode_ns, jit_opts, opts, threads)?.0)
}

/// Runs the consumer boot sequence over a chunked package: decode the
/// manifest's hot closure, compile and serve, then decode and compile
/// the cold tail in the background — without ever materializing the
/// monolithic package.
///
/// With `opts.early_serve_frac < 1` only the chunks covering the hottest
/// fraction of heat mass (plus their transitive callees, so inline
/// templates always find callee profiles) are decoded before
/// serve-start; [`ChunkBootStats`] reports exactly how many bytes that
/// touched. The code-cache layout is byte-identical to a monolithic boot.
///
/// The lazy path is held to the same admission as a sealed package: the
/// head settles identity and admits the ctx and orders, and each stage
/// lints the records it decodes and repairs the ones the lint flags. A
/// stale package — typically one push behind its consumer — keeps its
/// lazy decode set, and its outcome, repair report included, is what
/// [`consume_bytes`] gives its [`reassemble`](crate::reassemble)d bytes.
///
/// # Errors
///
/// [`ConsumerError::Wire`] for missing/corrupt chunks, and otherwise as
/// [`consume_bytes`] over the reassembled bytes.
pub fn consume_chunked<'r>(
    repo: &'r Repo,
    man: &Manifest,
    pool: &ChunkPool,
    jit_opts: JitOptions,
    opts: &JumpStartOptions,
    threads: usize,
) -> Result<(ConsumerOutcome<'r>, ChunkBootStats), ConsumerError> {
    boot(repo, Source::Chunks(man, pool), 0, jit_opts, opts, threads)
}

/// Where a boot's profile comes from.
enum Source<'a> {
    /// A materialised package: every record is already decoded.
    Package(Cow<'a, ProfilePackage>),
    /// A chunked package, decoded stage by stage.
    Chunks(&'a Manifest, &'a ChunkPool),
}

/// Admits one stage's records: a materialised package's own tier
/// (`decoded` is `None`), or records just decoded, keyed by recorded id,
/// which then join the package's tier. The records are remapped through
/// identity and linted, each with its own ctx branch counters; only the
/// ones the lint flags are repaired and linted again. Returns whether the
/// lint flagged any.
fn admit_stage(
    repo: &Repo,
    repair: &mut StagedRepair<'_>,
    pkg: &mut Cow<'_, ProfilePackage>,
    mut decoded: Option<TierProfile>,
) -> Result<bool, ConsumerError> {
    if !repair.is_trivial() {
        let p = pkg.to_mut();
        repair.remap(decoded.get_or_insert_with(|| std::mem::take(&mut p.tier)));
    }
    let stage = decoded.as_ref().unwrap_or(&pkg.tier);
    let flagged: Vec<FuncId> = (stage.funcs.iter())
        .filter(|&(f, fp)| !lint_records(repo, [(f, fp)], &pkg.ctx).is_clean())
        .map(|(&f, _)| f)
        .collect();
    repair.fresh(stage.funcs.len() - flagged.len());
    if !flagged.is_empty() {
        let p = pkg.to_mut();
        let stage = decoded.as_mut().unwrap_or(&mut p.tier);
        repair.repair(stage, &flagged, &mut p.ctx);
        // The stale matcher's count inference is flow-consistent by
        // construction, so a finding now means the package cannot
        // describe this repo.
        let repaired = flagged.iter().filter_map(|f| stage.funcs.get_key_value(f));
        let relint = lint_records(repo, repaired, &p.ctx);
        if !relint.is_clean() {
            return Err(ConsumerError::InvalidProfile {
                errors: relint.error_count(),
                first: relint.diagnostics[0].to_string(),
            });
        }
    }
    if let Some(mut stage) = decoded {
        pkg.to_mut().tier.funcs.append(&mut stage.funcs);
    }
    Ok(!flagged.is_empty())
}

/// Runs an admission step under a `lint-repair` span, adding its time to
/// `ns`.
fn admitting<T>(ns: &mut u64, step: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let _span = telemetry::span!("lint-repair");
    let out = step();
    *ns += start.elapsed().as_nanos() as u64;
    out
}

/// The one consumer boot, a fixed stage sequence over either source:
/// head (identity, ctx and orders admitted) → compile order and its
/// serve-ready split → decode and admit hot → prop slots → compile hot
/// (serve-ready) → decode and admit cold → compile cold → fill in
/// `BootStats`. A materialised package is one stage, the hot one; its
/// decode stages are no-ops. `decode_ns` is what the caller already spent
/// turning bytes into the source.
fn boot<'r>(
    repo: &'r Repo,
    src: Source<'_>,
    decode_ns: u64,
    mut jit_opts: JitOptions,
    opts: &JumpStartOptions,
    threads: usize,
) -> Result<(ConsumerOutcome<'r>, ChunkBootStats), ConsumerError> {
    let boot_start = Instant::now();
    let threads = threads.max(1);
    let span_name = match src {
        Source::Package(_) => "consumer-boot",
        Source::Chunks(..) => "consumer-boot-chunked",
    };
    let _boot_span = telemetry::span!(span_name, "threads" => threads);

    let mut chunk_stats = ChunkBootStats::default();
    let (mut pkg, loader) = match src {
        Source::Package(pkg) => (pkg, None),
        Source::Chunks(man, pool) => {
            let loader = LazyLoader::new(man, pool);
            let (meta, preload) = loader.decode_head()?;
            let mut partial = ProfilePackage {
                meta,
                preload,
                ..Default::default()
            };
            (partial.ctx, partial.prop_orders, partial.func_order) =
                loader.decode_tail(&mut partial.tier)?;
            let (head, tail) = man.ends()?;
            chunk_stats.manifest_bytes = man.wire_len() as u64;
            chunk_stats.payload_bytes = man.payload_len as u64;
            chunk_stats.hot_bytes = (head.len + tail.len) as u64;
            (Cow::Owned(partial), Some(loader))
        }
    };

    let poison_crash = pkg.meta.poison == Poison::CompileCrash;
    if poison_crash && threads <= 1 {
        // A 1-thread boot hits the compiler bug on its first unit; refusing
        // here keeps a sequential validation compile from printing a
        // caught panic.
        return Err(ConsumerError::JitCrash);
    }

    // The head's admission: identity, settled from the `(id, name hash)`
    // directory before any record is admitted (only the records the name
    // cannot place are decoded for it, into the hot stage), then the ctx
    // and orders.
    let started = Instant::now();
    let head_span = telemetry::span!("admit-head");
    let dir: Vec<(FuncId, u64)> = match &loader {
        Some(l) => {
            let d = l.directory()?;
            d.ids
                .iter()
                .copied()
                .zip(d.hashes.iter().copied())
                .collect()
        }
        None => (pkg.tier.funcs.iter())
            .map(|(&f, fp)| (f, fp.name_hash))
            .collect(),
    };
    let mut repair = StagedRepair::by_name(repo, MatchMode::Full, dir);
    let mut hot = TierProfile::default();
    if let Some(l) = &loader {
        let early: Vec<usize> = (repair.second_chance().iter())
            .filter_map(|&f| l.entry_of(f))
            .collect();
        chunk_stats.hot_bytes += l.decode_funcs(&early, &mut hot)?;
    }
    repair.by_body(if loader.is_some() { &hot } else { &pkg.tier });
    // The ctx and orders, whose checks read the repo alone; a claimed
    // function's branch counters wait for its record's stage.
    let shared = lint_shared(repo, &pkg.view(), |f| repair.record_of(f).is_some());
    let mut dirty = !repair.is_trivial() || !shared.is_clean();
    // Heats are the recorded ones (summed block counters), read off the
    // manifest or the records under current ids, so either source orders
    // and splits the work identically before any record is repaired.
    let heat: HashMap<FuncId, u64> = match &loader {
        Some(l) => (l.manifest().func_entries())
            .filter_map(|(_, f, h)| Some((repair.new_id(f)?, h)))
            .collect(),
        None => (pkg.tier.funcs.iter())
            .filter_map(|(&f, fp)| Some((repair.new_id(f)?, fp.block_counts.iter().sum())))
            .collect(),
    };
    if dirty {
        let p = pkg.to_mut();
        repair.admit_ctx(&mut p.ctx);
        prune_orders(
            repo,
            &mut p.preload.unit_order,
            &mut p.func_order,
            &mut p.prop_orders,
        );
    }
    drop(head_span);
    let mut lint_repair_ns = started.elapsed().as_nanos() as u64;

    let order = if !pkg.func_order.is_empty() && opts.func_sort != FuncSort::SourceOrder {
        pkg.func_order.clone()
    } else {
        let mut ranked: Vec<(FuncId, u64)> = heat.iter().map(|(&f, &h)| (f, h)).collect();
        ranked.sort_unstable_by_key(|&(f, h)| (Reverse(h), f));
        ranked.into_iter().map(|(f, _)| f).collect()
    };
    let work: Vec<FuncId> = order.into_iter().filter(|f| heat.contains_key(f)).collect();
    let split = pipeline::early_serve_prefix_by_heat(&heat, &work, opts.early_serve_frac);

    // Hot decode: the serve-ready prefix's records plus every record
    // transitively reachable through their recorded callees. Then the
    // stage's admission, before the repo resolves any of it.
    if let Some(l) = &loader {
        let prefix = work[..split].iter().filter_map(|&f| repair.record_of(f));
        let entries = l
            .manifest()
            .closure(prefix, |c| repair.record_of(repair.map(c)));
        chunk_stats.hot_bytes += l.decode_funcs(&entries, &mut hot)?;
        chunk_stats.hot_chunks = 2 + hot.funcs.len();
        // All a lazy boot has done so far, besides admission, is
        // manifest-driven decode.
        chunk_stats.hot_decode_ns = boot_start.elapsed().as_nanos() as u64 - lint_repair_ns;
    }
    // The hot stage: those records, or a materialised package's every
    // record.
    let hot_records: Vec<FuncId> = hot.funcs.keys().copied().collect();
    let decoded = loader.is_some().then_some(hot);
    let stage = || admit_stage(repo, &mut repair, &mut pkg, decoded);
    dirty |= admitting(&mut lint_repair_ns, stage)?;

    // Property layout must be installed before any translation resolves
    // slots (the same ordering constraint HHVM has, §V-C).
    let slots_start = Instant::now();
    let slots_span = telemetry::span!("prop-slots", "orders" => pkg.prop_orders.len());
    let prop_slots = resolve_prop_slots(
        repo,
        &pkg.prop_orders,
        opts.prop_reorder != PropReorder::Off,
    );
    drop(slots_span);
    let prop_slots_ns = slots_start.elapsed().as_nanos() as u64;

    jit_opts.weights = if opts.accurate_bb_weights {
        WeightSource::Accurate
    } else {
        WeightSource::TierOnly
    };
    let mut engine = JitEngine::new(repo, jit_opts);
    let resolver = |class: ClassId, name: StrId| prop_slots.get(&(class, name)).copied();
    // Inline-body templates are per-boot and shared across the
    // translation workers; they memoize exactly, so the emitted layout is
    // byte-identical to translating every inline site afresh.
    let templates = pipeline::TemplateCache::default();
    // One compile stage: translate `work` on every thread, then emit it
    // in order, continuing on `engine` where the previous stage stopped.
    // A function whose record the repair dropped is not compiled.
    let mut compile = |pkg: &ProfilePackage, work: &[FuncId]| {
        let work: Vec<FuncId> = (work.iter().copied())
            .filter(|f| pkg.tier.funcs.contains_key(f))
            .collect();
        let job = PipelineJob {
            repo,
            tier: &pkg.tier,
            ctx: &pkg.ctx,
            work: &work,
            jit_opts,
            resolver: &resolver,
            poison_crash,
            templates: &templates,
        };
        pipeline::run(&job, &mut engine, threads).map_err(|()| ConsumerError::JitCrash)
    };

    // The stage boundary is the early-serve mechanism: once the hot
    // prefix is emitted the boot is ready and the rest is background.
    let mut done = compile(&pkg, &work[..split])?;
    let (ready_funcs, ready_bytes, ready_ns) =
        (done.compiled_funcs, done.compile_bytes, done.pipeline_ns);
    telemetry::instant!("early-serve-ready", "funcs" => ready_funcs, "bytes" => ready_bytes);

    // Cold decode: every record the hot stage did not decode, admitted as
    // one more stage.
    if let Some(l) = &loader {
        let cold_decode_start = Instant::now();
        let rest: Vec<usize> = (l.manifest().func_entries())
            .filter(|(_, f, _)| hot_records.binary_search(f).is_err())
            .map(|(i, _, _)| i)
            .collect();
        let mut cold = TierProfile::default();
        chunk_stats.cold_bytes = l.decode_funcs(&rest, &mut cold)?;
        chunk_stats.cold_chunks = l.manifest().entries.len() - chunk_stats.hot_chunks;
        chunk_stats.cold_decode_ns = cold_decode_start.elapsed().as_nanos() as u64;
        let stage = || admit_stage(repo, &mut repair, &mut pkg, Some(cold));
        dirty |= admitting(&mut lint_repair_ns, stage)?;
    }
    if split < work.len() {
        done.absorb(compile(&pkg, &work[split..])?);
    }

    let stats = BootStats {
        threads,
        decode_ns: decode_ns + chunk_stats.hot_decode_ns,
        lint_repair_ns,
        prop_slots_ns,
        pipeline_ns: done.pipeline_ns,
        emit_ns: done.emit_ns,
        emit_stall_ns: done.emit_stall_ns,
        total_ns: decode_ns + boot_start.elapsed().as_nanos() as u64,
        compiled_funcs: done.compiled_funcs,
        compile_bytes: done.compile_bytes,
        workers: done.workers,
        early_serve: Some(EarlyServe {
            frac: opts.early_serve_frac,
            ready_funcs,
            ready_bytes,
            ready_ns,
            background_funcs: done.compiled_funcs - ready_funcs,
            background_bytes: done.compile_bytes - ready_bytes,
        }),
        caches: Some(pipeline::CacheStats {
            template_hits: templates.hits(),
            template_misses: templates.misses(),
            ..Default::default()
        }),
    };
    let outcome = ConsumerOutcome {
        engine,
        prop_slots,
        unit_order: pkg.preload.unit_order.clone(),
        compiled_funcs: stats.compiled_funcs,
        compile_bytes: stats.compile_bytes,
        repair: dirty.then(|| repair.finish()),
        boot: stats,
    };
    Ok((outcome, chunk_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{reassemble, ChunkKind};
    use crate::seeder::{build_package, SeederInputs};
    use jit::ProfileCollector;
    use vm::{Value, Vm};

    fn make_package() -> (Repo, ProfilePackage) {
        let src = r#"
            class P { public $cold = 0; public $hot = 0; }
            function work($x) {
                $o = new P();
                $o->hot = $x;
                return $o->hot * 2;
            }
            function main($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s += work($i); }
                return $s;
            }
        "#;
        let repo = hackc::compile_unit("c.hl", src).unwrap();
        let f = repo.func_by_name("main").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        for _ in 0..4 {
            vm.call_observed(f, &[Value::Int(30)], &mut col).unwrap();
            col.end_request();
        }
        let order = vm.loader().load_order();
        let (tier, ctx) = col.finish();
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order: order,
                requests: 4,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        (repo, pkg)
    }

    #[test]
    fn consumer_compiles_everything_before_serving() {
        let (repo, pkg) = make_package();
        let out = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap();
        assert!(out.compiled_funcs >= 2, "main and work should be optimized");
        assert!(out.compile_bytes > 0);
        let main = repo.func_by_name("main").unwrap().id;
        assert!(out.engine.code_cache.translation(main).is_some());
    }

    #[test]
    fn parallel_consume_matches_sequential() {
        let (repo, pkg) = make_package();
        let seq = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap();
        let par = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            4,
        )
        .unwrap();
        assert_eq!(seq.compiled_funcs, par.compiled_funcs);
        assert_eq!(seq.compile_bytes, par.compile_bytes);
        // Byte-identical layout: every block lands at the address a
        // sequential boot would give it.
        assert_eq!(
            seq.engine.code_cache.layout_digest(),
            par.engine.code_cache.layout_digest()
        );
        assert_eq!(par.boot.threads, 4);
        assert_eq!(par.boot.workers.len(), 4);
        assert_eq!(
            par.boot.workers.iter().map(|w| w.translated).sum::<usize>(),
            par.compiled_funcs
        );
    }

    #[test]
    fn early_serve_reports_ready_before_full_boot() {
        let (repo, pkg) = make_package();
        let out = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions {
                early_serve_frac: 0.5,
                ..Default::default()
            },
            2,
        )
        .unwrap();
        let early = out.boot.early_serve.expect("threshold crossing recorded");
        assert!(early.ready_funcs >= 1);
        assert!(early.ready_funcs + early.background_funcs == out.compiled_funcs);
        assert!(early.ready_bytes + early.background_bytes == out.compile_bytes);
        assert!(
            early.ready_funcs < out.compiled_funcs,
            "remainder is background"
        );
        assert!(early.ready_ns <= out.boot.pipeline_ns);
        // That the full boot still compiled everything is a row of
        // `every_entry_point_boots_identically`.
    }

    #[test]
    fn prop_reorder_changes_hot_slot() {
        let (repo, pkg) = make_package();
        let class = repo.class_by_name("P").unwrap().id;
        let hot = repo.str_id("hot").unwrap();
        let with = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap();
        let without = consume(
            &repo,
            &pkg,
            JitOptions::default(),
            &JumpStartOptions {
                prop_reorder: PropReorder::Off,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        assert_eq!(
            with.prop_slots[&(class, hot)],
            0,
            "hot property moves to slot 0"
        );
        assert_eq!(
            without.prop_slots[&(class, hot)],
            1,
            "declared order keeps slot 1"
        );
    }

    #[test]
    fn compile_poison_errors_out() {
        // No worker thread to catch a panic from: every entry point must
        // refuse before the first unit.
        let (repo, mut pkg) = make_package();
        pkg.meta.poison = Poison::CompileCrash;
        let (jit, opts) = (JitOptions::default(), JumpStartOptions::default());
        let bytes = pkg.serialize();
        let (man, pool) = chunked(&pkg, &repo);
        for threads in [0, 1] {
            let errs = [
                consume(&repo, &pkg, jit, &opts, threads).unwrap_err(),
                consume_bytes(&repo, &bytes, jit, &opts, threads).unwrap_err(),
                consume_chunked(&repo, &man, &pool, jit, &opts, threads).unwrap_err(),
            ];
            assert!(
                errs.iter().all(|e| *e == ConsumerError::JitCrash),
                "threads {threads}: {errs:?}"
            );
        }
    }

    #[test]
    fn compile_poison_panic_in_worker_is_caught() {
        // With threads > 1 the simulated compiler bug panics inside a
        // translation worker; the pipeline must catch it and surface a
        // JitCrash instead of aborting the process, and every other
        // worker must see the flag and stop.
        let (repo, mut pkg) = make_package();
        pkg.meta.poison = Poison::CompileCrash;
        for threads in [2, 4, 8] {
            let err = consume(
                &repo,
                &pkg,
                JitOptions::default(),
                &JumpStartOptions::default(),
                threads,
            )
            .unwrap_err();
            assert_eq!(err, ConsumerError::JitCrash);
        }
    }

    fn chunked(pkg: &ProfilePackage, repo: &Repo) -> (crate::chunk::Manifest, ChunkPool) {
        let cp = crate::chunk::chunk_package(pkg, repo.funcs().len());
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        (cp.manifest, pool)
    }

    /// The contract of the single boot path, as one table: every entry
    /// point × early-serve fraction × thread count emits the layout a
    /// 1-thread, full-fraction `consume` does.
    #[test]
    fn every_entry_point_boots_identically() {
        let jit = JitOptions::default();
        // Only the first package has an inlinable call site.
        for ((repo, pkg), inlines) in [(make_package(), true), (make_wide_package(), false)] {
            let bytes = pkg.serialize();
            let (man, pool) = chunked(&pkg, &repo);
            let want = consume(&repo, &pkg, jit, &JumpStartOptions::default(), 1).unwrap();
            // `frac 0.0` is an empty serve-ready stage; at `threads = 8`
            // either package has fewer units than workers.
            for frac in [1.0, 0.5, 0.25, 0.0] {
                let opts = JumpStartOptions {
                    early_serve_frac: frac,
                    ..Default::default()
                };
                for threads in [1, 4, 8] {
                    let (lazy, stats) =
                        consume_chunked(&repo, &man, &pool, jit, &opts, threads).unwrap();
                    assert_eq!(
                        stats.hot_bytes + stats.cold_bytes,
                        stats.payload_bytes,
                        "every chunk is decoded exactly once"
                    );
                    let ready_funcs = lazy.boot.early_serve.map(|e| e.ready_funcs);
                    for (entry, got) in [
                        (
                            "consume",
                            consume(&repo, &pkg, jit, &opts, threads).unwrap(),
                        ),
                        (
                            "consume_bytes",
                            consume_bytes(&repo, &bytes, jit, &opts, threads).unwrap(),
                        ),
                        ("consume_chunked", lazy),
                    ] {
                        let row = format!("{entry} frac {frac} threads {threads}");
                        assert_eq!(
                            got.engine.code_cache.layout_digest(),
                            want.engine.code_cache.layout_digest(),
                            "{row}: staged emission must concatenate to the one-stage order"
                        );
                        assert_eq!(got.compiled_funcs, want.compiled_funcs, "{row}");
                        assert_eq!(got.compile_bytes, want.compile_bytes, "{row}");
                        assert_eq!(got.prop_slots, want.prop_slots, "{row}");
                        assert_eq!(got.unit_order, want.unit_order, "{row}");
                        let early = got.boot.early_serve.expect("every boot reports ready");
                        assert_eq!(
                            early.ready_funcs + early.background_funcs,
                            got.compiled_funcs,
                            "{row}"
                        );
                        assert_eq!(Some(early.ready_funcs), ready_funcs, "{row}: same split");
                        if frac == 0.0 {
                            assert_eq!(early.ready_funcs, 0, "{row}");
                        }
                        assert_eq!(got.boot.workers.len(), threads, "{row}");
                        let c = got
                            .boot
                            .caches
                            .expect("every boot reports its template cache");
                        assert_eq!(c.template_hits + c.template_misses > 0, inlines, "{row}");
                        assert_eq!(c.plan_hits + c.plan_misses, 0, "{row}");
                    }
                }
            }
        }
    }

    /// A package where the hot function's call closure does NOT cover
    /// the cold functions, so lazy decode has a real cold tail.
    fn make_wide_package() -> (Repo, ProfilePackage) {
        let src = r#"
            function hot($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s += $i * 3; }
                return $s;
            }
            function cold_a($x) { return $x + 1; }
            function cold_b($x) { return $x * 2; }
            function cold_c($x) { return $x - 4; }
        "#;
        let repo = hackc::compile_unit("w.hl", src).unwrap();
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        let hot = repo.func_by_name("hot").unwrap().id;
        for _ in 0..6 {
            vm.call_observed(hot, &[Value::Int(50)], &mut col).unwrap();
            col.end_request();
        }
        for name in ["cold_a", "cold_b", "cold_c"] {
            let f = repo.func_by_name(name).unwrap().id;
            vm.call_observed(f, &[Value::Int(1)], &mut col).unwrap();
            col.end_request();
        }
        let order = vm.loader().load_order();
        let (tier, ctx) = col.finish();
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order: order,
                requests: 9,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        (repo, pkg)
    }

    #[test]
    fn lazy_boot_decodes_only_hot_bytes_before_serve() {
        let (repo, pkg) = make_wide_package();
        let (man, pool) = chunked(&pkg, &repo);
        let opts = JumpStartOptions {
            early_serve_frac: 0.25,
            ..Default::default()
        };
        let (out, stats) =
            consume_chunked(&repo, &man, &pool, JitOptions::default(), &opts, 2).unwrap();
        assert!(
            stats.before_serve_frac() < 1.0,
            "a 0.25-frac boot must not touch the whole payload up front"
        );
        assert!(stats.cold_chunks > 0, "a cold tail exists");
        let early = out.boot.early_serve.expect("crossing recorded");
        assert!(early.ready_funcs < out.compiled_funcs);
        assert_eq!(
            early.ready_funcs + early.background_funcs,
            out.compiled_funcs
        );
    }

    /// A chunked boot ends as `consume_bytes` over its reassembled bytes
    /// does: the same outcome, or the same error. Returns the chunk
    /// accounting of a successful boot.
    fn boots_like_reassembled(
        repo: &Repo,
        (man, pool): (&Manifest, &ChunkPool),
        frac: f64,
        threads: usize,
    ) -> Option<ChunkBootStats> {
        sorted_boots_like_reassembled(repo, (man, pool), frac, threads, FuncSort::default())
    }

    /// [`boots_like_reassembled`] under a given function sort.
    fn sorted_boots_like_reassembled(
        repo: &Repo,
        (man, pool): (&Manifest, &ChunkPool),
        frac: f64,
        threads: usize,
        func_sort: FuncSort,
    ) -> Option<ChunkBootStats> {
        let (jit, opts) = (
            JitOptions::default(),
            JumpStartOptions {
                early_serve_frac: frac,
                func_sort,
                ..Default::default()
            },
        );
        let row = format!("frac {frac} threads {threads} {func_sort:?}");
        let whole = reassemble(man, pool).expect("the chunks reassemble");
        match (
            consume_chunked(repo, man, pool, jit, &opts, threads),
            consume_bytes(repo, &whole, jit, &opts, threads),
        ) {
            (Ok((got, stats)), Ok(want)) => {
                assert_eq!(
                    got.engine.code_cache.layout_digest(),
                    want.engine.code_cache.layout_digest(),
                    "{row}"
                );
                assert_eq!(got.compiled_funcs, want.compiled_funcs, "{row}");
                assert_eq!(got.compile_bytes, want.compile_bytes, "{row}");
                assert_eq!(got.prop_slots, want.prop_slots, "{row}");
                assert_eq!(got.unit_order, want.unit_order, "{row}");
                assert_eq!(got.repair, want.repair, "{row}");
                assert_eq!(
                    stats.hot_bytes + stats.cold_bytes,
                    stats.payload_bytes,
                    "{row}: every chunk is decoded exactly once"
                );
                Some(stats)
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{row}");
                None
            }
            (got, want) => panic!(
                "{row}: chunked {:?}, monolithic {:?}",
                got.map(|(o, _)| o.compiled_funcs),
                want.map(|o| o.compiled_funcs)
            ),
        }
    }

    /// Bytes of function chunks a lazy boot decoded before serve-start.
    fn hot_func_bytes(stats: &ChunkBootStats, man: &Manifest) -> u64 {
        let (head, tail) = man.ends().unwrap();
        stats.hot_bytes - u64::from(head.len + tail.len)
    }

    /// The length of `func`'s chunk.
    fn chunk_len(man: &Manifest, func: FuncId) -> u64 {
        let (i, ..) = man.func_entries().find(|&(_, f, _)| f == func).unwrap();
        u64::from(man.entries[i].len)
    }

    #[test]
    fn cold_records_face_the_lint() {
        let (repo, pkg) = make_wide_package();
        let (man, pool) = chunked(&pkg, &repo);
        let healthy = boots_like_reassembled(&repo, (&man, &pool), 0.25, 1).unwrap();
        assert_eq!(healthy.hot_chunks, 3, "head, tail, `hot`: cold_b is cold");
        let cold_b = repo.func_by_name("cold_b").unwrap().id;

        // A cold record that names a different function than the repo
        // does (the repair finds cold_b again by its body), and one that
        // profiles a function this release does not have (dropped, since
        // cold_b's own record claims its name and its body first). Either
        // is the one record identity decodes early; the boot stays lazy.
        let mut renamed = pkg.clone();
        renamed.tier.funcs.get_mut(&cold_b).unwrap().name_hash ^= 1;
        let mut beyond = pkg.clone();
        let past = FuncId::new(repo.funcs().len() as u32);
        let record = beyond.tier.funcs[&cold_b].clone();
        beyond.tier.funcs.insert(past, record);
        for (stale, second_chance) in [(renamed, cold_b), (beyond, past)] {
            let (stale_man, pool) = chunked(&stale, &repo);
            let early = chunk_len(&stale_man, second_chance);
            for (frac, threads) in [(0.25, 1), (1.0, 2)] {
                let stats = boots_like_reassembled(&repo, (&stale_man, &pool), frac, threads);
                let stats = stats.expect("the repair admits both");
                if frac < 1.0 {
                    assert!(stats.cold_chunks > 0, "{second_chance:?}: stays lazy");
                    assert_eq!(
                        hot_func_bytes(&stats, &stale_man),
                        hot_func_bytes(&healthy, &man) + early,
                        "{second_chance:?}: the clean hot set plus the early record"
                    );
                }
            }
        }

        // A manifest that lies about a chunk's function is a corrupt
        // download, whatever its bytes reassemble to.
        let mut lying = man.clone();
        for e in &mut lying.entries {
            match &mut e.kind {
                ChunkKind::Func { func, .. } if *func == cold_b => *func = past,
                _ => {}
            }
        }
        for threads in [1, 2] {
            let jit = JitOptions::default();
            let opts = JumpStartOptions {
                early_serve_frac: 0.25,
                ..Default::default()
            };
            let err = consume_chunked(&repo, &lying, &pool, jit, &opts, threads).unwrap_err();
            assert!(
                matches!(err, ConsumerError::Wire(WireError::Corrupt(_))),
                "threads {threads}: {err}"
            );
        }
    }

    /// A cold record whose function kept its id and name but changed its
    /// body: no identity check can see it, only the lint's CFG hashes.
    /// The cold stage repairs it; the hot set is the clean package's.
    #[test]
    fn a_body_stale_cold_record_is_repaired_as_in_a_monolithic_boot() {
        let (repo, mut pkg) = make_wide_package();
        let (clean_man, clean_pool) = chunked(&pkg, &repo);
        let clean = boots_like_reassembled(&repo, (&clean_man, &clean_pool), 0.25, 1).unwrap();
        let cold_b = repo.func_by_name("cold_b").unwrap().id;
        pkg.tier.funcs.get_mut(&cold_b).unwrap().block_hashes[0] ^= 1;
        let (man, pool) = chunked(&pkg, &repo);
        for (frac, threads) in [(0.25, 1), (1.0, 2)] {
            let stats = boots_like_reassembled(&repo, (&man, &pool), frac, threads).unwrap();
            if frac < 1.0 {
                assert!(stats.cold_chunks > 0, "stays lazy");
                assert_eq!(stats.hot_bytes, clean.hot_bytes);
            }
        }
        let jit = JitOptions::default();
        let out = consume_chunked(&repo, &man, &pool, jit, &Default::default(), 1).unwrap();
        let repair = out.0.repair.expect("the stale record was repaired");
        assert_eq!(repair.repaired, vec![cold_b]);
    }

    /// Releases churned at several rates: the prior release's package,
    /// chunked, boots on the current repo exactly as its reassembled
    /// bytes do, and stays lazy. Under the recorded heat order, at churn
    /// 0.1 it decodes about what it decodes on its own release before
    /// serving. (The package's C3 order names the prior release's ids,
    /// which a stale boot does not rename, so at this scale that order's
    /// serve-ready prefix closes over more records.)
    #[test]
    fn a_stale_chunked_package_boots_like_its_reassembled_bytes() {
        use workload::{generate_release, profile_run, AppParams, ChurnParams, RequestMix};
        let params = AppParams::tiny();
        let (prior, _) = generate_release(&params, &ChurnParams::none());
        let mix = RequestMix::new(&prior, 0, 0);
        let run = profile_run(&prior, &mix, 60, 21);
        let pkg = build_package(
            SeederInputs {
                repo: &prior.repo,
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
        let (man, pool) = chunked(&pkg, &prior.repo);
        let source = FuncSort::SourceOrder;
        for rate in [0.0, 0.05, 0.1, 0.4] {
            let (current, _) = generate_release(&params, &ChurnParams { seed: 3, rate });
            for (frac, threads) in [(0.25, 1), (1.0, 2)] {
                let stats = boots_like_reassembled(&current.repo, (&man, &pool), frac, threads);
                let stats = stats.unwrap_or_else(|| panic!("rate {rate}: the boot returns Ok"));
                if frac < 1.0 && rate > 0.0 {
                    assert!(stats.cold_chunks > 0, "rate {rate}: stays lazy");
                }
            }
            if rate != 0.1 {
                continue;
            }
            let band = |repo: &Repo, frac, threads| {
                sorted_boots_like_reassembled(repo, (&man, &pool), frac, threads, source)
                    .expect("source order: the boot returns Ok")
            };
            let clean = band(&prior.repo, 0.25, 1).before_serve_frac();
            for (frac, threads) in [(0.25, 1), (1.0, 2)] {
                let stale = band(&current.repo, frac, threads).before_serve_frac();
                assert!(
                    frac == 1.0 || (stale - clean).abs() <= 0.05,
                    "source order: decoded {stale:.3} before serve, clean {clean:.3}"
                );
            }
        }
    }

    /// `Manifest::entries` is public, so a hand-built manifest can list
    /// function chunks out of `FuncId` order. The loader's binary search
    /// may then miss a function, but every swapped chunk still meets the
    /// record-id cross-check against the head directory.
    #[test]
    fn chunked_boot_rejects_swapped_function_entries() {
        let (repo, pkg) = make_wide_package();
        let (man, pool) = chunked(&pkg, &repo);
        let funcs = 1..man.entries.len() - 1;
        for i in funcs.clone() {
            for j in funcs.clone().filter(|&j| j > i) {
                let mut swapped = man.clone();
                swapped.entries.swap(i, j);
                for (frac, threads) in [(0.25, 1), (1.0, 2)] {
                    let opts = JumpStartOptions {
                        early_serve_frac: frac,
                        ..Default::default()
                    };
                    let jit = JitOptions::default();
                    let err =
                        consume_chunked(&repo, &swapped, &pool, jit, &opts, threads).unwrap_err();
                    assert!(
                        matches!(err, ConsumerError::Wire(WireError::Corrupt(_))),
                        "entries {i} and {j}, frac {frac}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunked_boot_lints_orders_past_the_repo() {
        let (repo, mut pkg) = make_package();
        let past = ClassId::new(repo.classes().len() as u32 + 5);
        pkg.prop_orders.push((past, Vec::new()));
        let (man, pool) = chunked(&pkg, &repo);
        for threads in [1, 2] {
            boots_like_reassembled(&repo, (&man, &pool), 1.0, threads)
                .expect("the order is dropped");
        }
    }

    /// `Manifest::repo_funcs` admits nothing: a manifest that claims
    /// another release boots as its bytes do.
    #[test]
    fn chunked_boot_ignores_the_manifest_release_count() {
        let (repo, pkg) = make_wide_package();
        let cp = crate::chunk::chunk_package(&pkg, repo.funcs().len() + 1);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        let stats = boots_like_reassembled(&repo, (&cp.manifest, &pool), 0.25, 1).unwrap();
        assert!(
            stats.before_serve_frac() < 1.0,
            "a clean package boots lazily"
        );
    }

    #[test]
    fn chunked_boot_surfaces_missing_chunks_as_wire_errors() {
        let (repo, pkg) = make_package();
        let cp = crate::chunk::chunk_package(&pkg, repo.funcs().len());
        let mut pool = ChunkPool::new();
        // Drop one function chunk: the boot must fail with a wire error
        // (dangling chunk), which the boot controller treats like any
        // other corrupt download.
        for c in cp.chunks.iter().skip(1) {
            pool.insert(c);
        }
        // So must a hand-built manifest too short to have a head and a
        // tail (`Manifest::decode` refuses one; its fields are public).
        let mut headless = cp.manifest.clone();
        headless.entries.truncate(1);
        for man in [&cp.manifest, &headless] {
            let err = consume_chunked(
                &repo,
                man,
                &pool,
                JitOptions::default(),
                &JumpStartOptions::default(),
                1,
            )
            .unwrap_err();
            assert!(matches!(err, ConsumerError::Wire(WireError::Corrupt(_))));
        }
    }
}
