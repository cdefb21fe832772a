//! The consumer workflow (Fig. 3c): deserialize → lint (and repair, if
//! the profile is stale) → preload → compile all optimized code on every
//! core (claim → translate → park → place) → ready to serve.
//!
//! [`consume`], [`consume_bytes`] and [`consume_chunked`] are adapters over
//! one stage sequence, [`boot`]; early serve is its compile-stage boundary.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use analysis::{is_own_layer_order, lint_profile_with, repair_profile, LintOptions, RepairReport};
use bytecode::{ClassId, FuncId, Repo, StrId, UnitId};
use jit::{JitEngine, JitOptions, TierProfile, WeightSource};
use vm::ClassTable;

use crate::chunk::{ChunkKind, ChunkPool, LazyLoader, Manifest};
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
    /// The static linter found structural errors the stale-profile
    /// repairer could not fix — the package cannot describe this repo.
    InvalidProfile {
        /// Error-severity diagnostics remaining after repair.
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
    /// Set when the package failed the structural lint and was repaired
    /// (stale counters remapped, dead entries pruned) before consumption.
    pub repair: Option<RepairReport>,
    /// Boot-phase timeline: decode, lint/repair, prop slots, per-worker
    /// translate busy/stall, emit, bytes (the `jsboot` telemetry).
    pub boot: BootStats,
}

/// Consumers hold every profile — fresh or repaired — to the Kirchhoff
/// flow-conservation standard: the stale matcher's count inference
/// produces flow-consistent counters by construction, so a violation
/// after repair means the package cannot describe this repo. Type
/// feasibility stays a warning: an impossible observation skews layout
/// but cannot feed garbage into translation.
const CONSUMER_LINT: LintOptions = LintOptions {
    flow_conservation: true,
    type_feasibility: false,
};

/// Repairs a package's profile against the current repo: remaps stale
/// block counters by structural hash, drops unrepairable functions,
/// prunes dangling/phantom entries and sanitizes the order lists.
fn repair_package(repo: &Repo, pkg: &ProfilePackage) -> (ProfilePackage, RepairReport) {
    let mut fixed = pkg.clone();
    let report = repair_profile(repo, &mut fixed.tier, &mut fixed.ctx);
    let mut seen_units = HashSet::new();
    fixed
        .preload
        .unit_order
        .retain(|u| u.index() < repo.units().len() && seen_units.insert(*u));
    let mut seen_funcs = HashSet::new();
    fixed
        .func_order
        .retain(|f| f.index() < repo.funcs().len() && seen_funcs.insert(*f));
    let mut seen_classes = HashSet::new();
    fixed
        .prop_orders
        .retain(|o| prop_order_fits(repo, &mut seen_classes, o));
    (fixed, report)
}

/// Whether a package's property order can be installed on `repo`: its
/// class exists, the order permutes (a subset of) that class's own layer,
/// and no earlier order — recorded in `seen` — named the same class. The
/// monolithic boot drops the orders that fail; the lazy boot refuses them.
fn prop_order_fits(
    repo: &Repo,
    seen: &mut HashSet<ClassId>,
    (class, order): &(ClassId, Vec<StrId>),
) -> bool {
    class.index() < repo.classes().len()
        && is_own_layer_order(repo, *class, order)
        && seen.insert(*class)
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

/// Chunk-level accounting of a lazy consumer boot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkBootStats {
    /// Encoded manifest size (always fetched and decoded up front).
    pub manifest_bytes: u64,
    /// Total package payload bytes across all chunks.
    pub payload_bytes: u64,
    /// Chunk bytes decoded before serve-start: head + tail + the hot
    /// closure.
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
    Ok(boot(repo, Source::Package(pkg), 0, jit_opts, opts, threads)?.0)
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
    let pkg = ProfilePackage::deserialize_shared(data)?;
    drop(decode_span);
    let decode_ns = t0.elapsed().as_nanos() as u64;
    let src = Source::Package(&pkg);
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
/// The lazy path never lints or repairs — it is reserved for packages
/// whose manifest matches the running release (`repo_funcs`, per-record
/// name hashes). Anything stale fails fast with
/// [`ConsumerError::InvalidProfile`] and the boot controller falls back
/// to the monolithic lint-and-repair path.
///
/// # Errors
///
/// [`ConsumerError::Wire`] for missing/corrupt chunks,
/// [`ConsumerError::InvalidProfile`] for release mismatches, and
/// [`ConsumerError::JitCrash`] as in [`consume`].
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
    Package(&'a ProfilePackage),
    /// A chunked package, decoded stage by stage.
    Chunks(&'a Manifest, &'a ChunkPool),
}

fn stale(first: String) -> ConsumerError {
    ConsumerError::InvalidProfile { errors: 1, first }
}

/// Decodes the not-yet-decoded function chunks among `entries` into
/// `tier`, each behind the release guards that stand in for the lint on
/// the lazy path: no record may profile a function beyond this release
/// (checked before its chunk is touched) or name a different function
/// than the repo does. Returns the chunk bytes decoded.
fn decode_guarded(
    repo: &Repo,
    loader: &LazyLoader<'_>,
    entries: &[usize],
    tier: &mut TierProfile,
) -> Result<u64, ConsumerError> {
    let mut bytes = 0;
    for &i in entries {
        let func = match loader.manifest().entries[i].kind {
            ChunkKind::Func { func, .. } if !tier.funcs.contains_key(&func) => func,
            _ => continue,
        };
        if func.index() >= repo.funcs().len() {
            return Err(stale(format!("profile for {func:?} beyond this release")));
        }
        bytes += loader.decode_funcs(&[i], tier)?;
        let hash = tier.funcs[&func].name_hash;
        if hash != 0 && hash != bytecode::fnv_str(repo.str(repo.func(func).name)) {
            return Err(stale(format!(
                "profile for {func:?} names a different function"
            )));
        }
    }
    Ok(bytes)
}

/// The one consumer boot, a fixed stage sequence over either source:
/// acquire → lint/repair → compile order and its serve-ready split →
/// decode hot → prop slots → compile hot (serve-ready) → decode cold →
/// compile cold → fill in `BootStats`. The decode stages are no-ops for
/// a materialised package, and lint/repair runs only on one. `decode_ns`
/// is what the caller already spent turning bytes into the source.
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
        Source::Package(pkg) => (Cow::Borrowed(pkg), None),
        Source::Chunks(man, pool) => {
            // The manifest records which repo the profile was collected
            // against; another release's must not get as far as a decode.
            if man.repo_funcs as usize != repo.funcs().len() {
                return Err(stale(format!(
                    "manifest built against a {}-function release, this repo has {}",
                    man.repo_funcs,
                    repo.funcs().len()
                )));
            }
            let loader = LazyLoader::new(man, pool);
            let (meta, preload) = loader.decode_head()?;
            let mut partial = ProfilePackage {
                meta,
                preload,
                ..Default::default()
            };
            (partial.ctx, partial.prop_orders, partial.func_order) =
                loader.decode_tail(&mut partial.tier)?;
            // The orders are installed before any translation; one that
            // does not fit this release is stale data like any other.
            let mut seen = HashSet::new();
            if let Some((class, _)) = partial
                .prop_orders
                .iter()
                .find(|o| !prop_order_fits(repo, &mut seen, o))
            {
                return Err(stale(format!(
                    "property order for {class:?} does not fit this release"
                )));
            }
            let (head, tail) = man.ends()?;
            chunk_stats.manifest_bytes = man.wire_len() as u64;
            chunk_stats.payload_bytes = man.payload_len as u64;
            chunk_stats.hot_bytes = (head.len + tail.len) as u64;
            chunk_stats.hot_chunks = 2;
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

    // Static lint: refuse to feed structurally impossible profile data
    // into translation. A dirty package gets one repair attempt
    // (stale-counter remap + pruning) before the consumer gives up and
    // lets the boot controller fall back (§VI-A.3).
    let mut repair_report = None;
    let mut lint_repair_ns = 0;
    if loader.is_none() {
        let lint_start = Instant::now();
        let _lint_span = telemetry::span!("lint-repair");
        let lint = |p: &ProfilePackage| lint_profile_with(repo, &p.view(), &CONSUMER_LINT);
        if lint(&pkg).error_count() > 0 {
            let (fixed, report) = repair_package(repo, &pkg);
            let relint = lint(&fixed);
            if let Some(first) = relint.errors().next() {
                return Err(ConsumerError::InvalidProfile {
                    errors: relint.error_count(),
                    first: first.to_string(),
                });
            }
            repair_report = Some(report);
            pkg = Cow::Owned(fixed);
        }
        lint_repair_ns = lint_start.elapsed().as_nanos() as u64;
    }

    // A lazy boot reads heats (summed block counters) off the manifest —
    // no function chunk is decoded yet — and they are the tier's, so
    // either source orders and splits the work identically.
    let heat: HashMap<FuncId, u64> = match &loader {
        Some(l) => l.manifest().heat_map(),
        None => pkg.tier.heat_ranked().iter().copied().collect(),
    };
    let order = if !pkg.func_order.is_empty() && opts.func_sort != FuncSort::SourceOrder {
        pkg.func_order.clone()
    } else if let Some(l) = &loader {
        l.manifest().funcs_by_heat()
    } else {
        pkg.tier.functions_by_heat()
    };
    let work: Vec<FuncId> = order.into_iter().filter(|f| heat.contains_key(f)).collect();
    let split = pipeline::early_serve_prefix_by_heat(&heat, &work, opts.early_serve_frac);

    // Hot decode: the serve-ready prefix plus every function transitively
    // reachable through its recorded call targets.
    if let Some(l) = &loader {
        let hot_entries = l.hot_closure(work[..split].iter().copied());
        chunk_stats.hot_bytes += decode_guarded(repo, l, &hot_entries, &mut pkg.to_mut().tier)?;
        chunk_stats.hot_chunks += hot_entries.len();
        // All a lazy boot has done so far is manifest-driven decode.
        chunk_stats.hot_decode_ns = boot_start.elapsed().as_nanos() as u64;
    }

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
    let mut compile = |pkg: &ProfilePackage, work: &[FuncId]| {
        let job = PipelineJob {
            repo,
            tier: &pkg.tier,
            ctx: &pkg.ctx,
            work,
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

    if let Some(l) = &loader {
        let cold_decode_start = Instant::now();
        let rest = l.all_func_entries();
        chunk_stats.cold_bytes = decode_guarded(repo, l, &rest, &mut pkg.to_mut().tier)?;
        chunk_stats.cold_chunks = l.manifest().entries.len() - chunk_stats.hot_chunks;
        chunk_stats.cold_decode_ns = cold_decode_start.elapsed().as_nanos() as u64;
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
        repair: repair_report,
        boot: stats,
    };
    Ok((outcome, chunk_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn cold_records_face_the_release_guards() {
        let (repo, pkg) = make_wide_package();
        let jit = JitOptions::default();
        let opts = JumpStartOptions {
            early_serve_frac: 0.25,
            ..Default::default()
        };
        let (man, pool) = chunked(&pkg, &repo);
        let (_, healthy) = consume_chunked(&repo, &man, &pool, jit, &opts, 1).unwrap();
        assert_eq!(healthy.hot_chunks, 3, "head, tail, `hot`: cold_b is cold");
        let cold_b = repo.func_by_name("cold_b").unwrap().id;

        // A cold record that names a different function than the repo does.
        let mut renamed = pkg.clone();
        renamed.tier.funcs.get_mut(&cold_b).unwrap().name_hash ^= 1;
        // A cold manifest entry for a function this release does not have.
        let mut beyond = man.clone();
        for e in &mut beyond.entries {
            match &mut e.kind {
                ChunkKind::Func { func, .. } if *func == cold_b => {
                    *func = FuncId::new(repo.funcs().len() as u32);
                }
                _ => {}
            }
        }
        for (man, pool) in [chunked(&renamed, &repo), (beyond, pool)] {
            for threads in [1, 2] {
                let err = consume_chunked(&repo, &man, &pool, jit, &opts, threads).unwrap_err();
                assert!(
                    matches!(err, ConsumerError::InvalidProfile { .. }),
                    "threads {threads}: {err}"
                );
            }
        }
    }

    #[test]
    fn chunked_boot_refuses_orders_past_the_repo() {
        let (repo, mut pkg) = make_package();
        let past = ClassId::new(repo.classes().len() as u32 + 5);
        pkg.prop_orders.push((past, Vec::new()));
        let (man, pool) = chunked(&pkg, &repo);
        for threads in [1, 2] {
            let err = consume_chunked(
                &repo,
                &man,
                &pool,
                JitOptions::default(),
                &JumpStartOptions::default(),
                threads,
            )
            .unwrap_err();
            assert!(
                matches!(err, ConsumerError::InvalidProfile { .. }),
                "threads {threads}: {err}"
            );
        }
    }

    #[test]
    fn chunked_boot_rejects_release_mismatch() {
        let (repo, pkg) = make_package();
        let cp = crate::chunk::chunk_package(&pkg, repo.funcs().len() + 1);
        let mut pool = ChunkPool::new();
        for c in &cp.chunks {
            pool.insert(c);
        }
        let err = consume_chunked(
            &repo,
            &cp.manifest,
            &pool,
            JitOptions::default(),
            &JumpStartOptions::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, ConsumerError::InvalidProfile { .. }));
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
