//! `push-lazy`: the path the fleet distributes by. One op is the seeder
//! side of a push (profile → sealed, chunked, delta-priced against the
//! prior release's chunk cache) followed by the consumer side (manifest
//! in → missing chunks pooled → chunk-lazy boot at `early_serve_frac`
//! 0.25). Writes sit beside reads, so a wire-format change that helps
//! one side and costs the other shows. The lazy path never lints:
//! `analysis` reports 0 here.

use std::time::Instant;

use bytes::Bytes;
use jit::{JitOptions, TierProfile};
use jumpstart::{
    build_package, chunk_package, consume, consume_chunked, crc32, delta_against,
    early_serve_prefix_by_heat, reassemble, ChunkBootStats, ChunkPool, ChunkedPackage, DeltaReport,
    FuncSort, JumpStartOptions, LazyLoader, Manifest, ProfilePackage,
};
use workload::{App, ProfileRun};

use crate::compile::{c3_ms, exttsp_ms, staged_compile, ProfileParts};
use crate::inputs::{
    app_params, build_release, current_release, profile, seal, seal_run, seeder_inputs, validates,
    Seeds,
};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{setup_instances, timed_loop, LoopStats, OpSample, RunArgs, WorkloadResult};

/// Ops per input set run and checked but not timed.
const WARMUP_OPS: usize = 3;

/// Heat-mass fraction compiled before the consumer serves.
const EARLY_SERVE_FRAC: f64 = 0.25;

/// What set-up leaves for the loop.
pub struct PushInputs {
    /// The release being pushed.
    pub current: App,
    /// The seeder's profiling run on it.
    pub run: ProfileRun,
    /// The reference package sealed from that run.
    pub pkg: ProfilePackage,
    /// A consumer's chunk cache: every chunk of the prior release's package.
    pub cache: ChunkPool,
    /// Seeder and consumer options.
    pub opts: JumpStartOptions,
    /// Layout digest of a 1-thread monolithic `consume` of the package.
    pub ref_digest: u64,
    /// Functions that reference boot compiled.
    pub ref_funcs: usize,
    /// The delta a push of the reference package ships.
    pub ref_delta: DeltaReport,
    /// `serialize().len()` of the reference package.
    pub package_bytes: usize,
    /// Validator accepted; `crc32(reassemble(..)) == crc32(serialize())`.
    pub gates_ok: bool,
}

fn pool_with(mut pool: ChunkPool, cp: &ChunkedPackage) -> ChunkPool {
    for c in &cp.chunks {
        pool.insert(c);
    }
    pool
}

/// Builds both releases, the consumer's cache from the prior one, and
/// the reference package, boot and delta for the current one.
pub fn setup(args: &RunArgs, rec: &mut Recorder) -> PushInputs {
    let seeds = Seeds::derive(args.seed);
    let params = app_params(args.scale, seeds.app);
    let opts = JumpStartOptions {
        early_serve_frac: EARLY_SERVE_FRAC,
        ..args.scale.js_opts()
    };
    let prior = build_release(&params, None, rec);
    let prior_pkg = seal(&prior, args.scale, &seeds, &opts, rec).pkg;
    let cache = pool_with(
        ChunkPool::new(),
        &chunk_package(&prior_pkg, prior.repo.funcs().len()),
    );
    drop((prior_pkg, prior));

    let current = current_release(&params, &seeds, rec);
    let run = profile(&current, args.scale, &seeds, rec);
    let (pkg, bytes) = seal_run(&current, &run, &opts, rec);
    let validated = validates(&current, &bytes, &opts, rec);
    let cp = chunk_package(&pkg, current.repo.funcs().len());
    let pool = pool_with(cache.clone(), &cp);
    let roundtrip = rec
        .time("core.chunk.reassemble", || reassemble(&cp.manifest, &pool))
        .is_ok_and(|whole| crc32(&whole) == crc32(&bytes));
    let reference = consume(&current.repo, &pkg, JitOptions::default(), &opts, 1);
    let (ref_digest, ref_funcs) = reference.as_ref().map_or((0, 0), |o| {
        (o.engine.code_cache.layout_digest(), o.compiled_funcs)
    });
    drop(reference);
    PushInputs {
        ref_delta: delta_against(&cp.manifest, &cache),
        package_bytes: bytes.len(),
        run,
        pkg,
        current,
        cache,
        opts,
        ref_digest: ref_digest ^ u64::from(args.flip_reference),
        ref_funcs,
        gates_ok: validated && roundtrip && ref_funcs > 0,
    }
}

/// The timed sections of one op.
#[derive(Clone, Copy, Debug, Default)]
struct PushSample {
    publish_ms: f64,
    boot_ms: f64,
    serve_ready_ms: f64,
    chunks: ChunkBootStats,
    ok: bool,
}

impl PushInputs {
    fn repo_funcs(&self) -> usize {
        self.current.repo.funcs().len()
    }

    /// One op: seeder side, then consumer side.
    fn push(&self, threads: usize) -> PushSample {
        // The seeder owns its profile and the consumer its cache before
        // the push starts; cloning them is not part of it.
        let seeder = seeder_inputs(&self.current, &self.run);
        let mut pool = self.cache.clone();

        let t0 = Instant::now();
        let pkg = build_package(seeder, &self.opts, &JitOptions::default());
        let bytes = pkg.serialize();
        let cp = chunk_package(&pkg, self.repo_funcs());
        let manifest_wire: Bytes = cp.manifest.encode();
        let delta = delta_against(&cp.manifest, &self.cache);
        let publish_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let Ok(man) = Manifest::decode(&manifest_wire) else {
            return PushSample::default();
        };
        for c in &cp.chunks {
            pool.insert(c);
        }
        let fetch_ms = t1.elapsed().as_secs_f64() * 1e3;
        let boot = consume_chunked(
            &self.current.repo,
            &man,
            &pool,
            JitOptions::default(),
            &self.opts,
            threads,
        );
        let boot_ms = t1.elapsed().as_secs_f64() * 1e3;
        let Ok((out, chunks)) = boot else {
            return PushSample::default();
        };
        let ready_ns = out.boot.early_serve.map_or(u64::MAX, |e| e.ready_ns);
        let serve_ready_ms =
            fetch_ms + (chunks.hot_decode_ns + out.boot.prop_slots_ns + ready_ns) as f64 / 1e6;
        PushSample {
            publish_ms,
            boot_ms,
            serve_ready_ms,
            chunks,
            ok: out.engine.code_cache.layout_digest() == self.ref_digest
                && out.compiled_funcs == self.ref_funcs
                && delta == self.ref_delta
                && bytes.len() == self.package_bytes
                && serve_ready_ms <= boot_ms,
        }
    }

    fn op(&self, threads: usize, instance: usize) -> OpSample {
        let s = self.push(threads);
        OpSample {
            ms: s.publish_ms + s.boot_ms,
            ok: s.ok,
            units: self.ref_funcs as f64,
            instance,
        }
    }
}

/// Runs the workload: the timed loop, or the traced pass.
pub fn run(args: &RunArgs, rec: &mut Recorder) -> WorkloadResult {
    let (sets, setup_s) = setup_instances(args, |a| setup(a, rec));
    let k = sets.len();
    let mut result = WorkloadResult {
        setup_s,
        digests: vec![
            ("layout", sets[0].ref_digest),
            ("wire_bytes", sets[0].ref_delta.wire_bytes()),
        ],
        ..Default::default()
    };
    if args.trace {
        trace(&sets[0], args, rec, &mut result);
    } else {
        result.stats = timed_loop(args.seconds, WARMUP_OPS * k, k, |i| {
            sets[i % k].op(args.threads, i % k)
        });
    }
    for set in &sets {
        result.stats.gate(set.gates_ok);
    }
    result
}

/// The seeder side, a span around each layer call. Returns the chunked
/// package and the manifest as it crosses the wire.
fn staged_publish(inputs: &PushInputs, rec: &mut Recorder) -> (ChunkedPackage, bool) {
    let seeder = seeder_inputs(&inputs.current, &inputs.run);
    let pkg = rec.time("core.seeder.build", || {
        build_package(seeder, &inputs.opts, &JitOptions::default())
    });
    let bytes = rec.time("core.wire.encode", || pkg.serialize());
    // `chunk_package` serializes again inside itself; a span from outside
    // cannot separate that from the split.
    let cp = rec.time("core.chunk.split", || {
        chunk_package(&pkg, inputs.repo_funcs())
    });
    let decoded = rec.time("core.chunk.manifest_codec", || {
        Manifest::decode(&cp.manifest.encode())
    });
    let delta = rec.time("core.chunk.delta", || {
        delta_against(&cp.manifest, &inputs.cache)
    });
    let ok = decoded.is_ok_and(|m| m == cp.manifest)
        && delta == inputs.ref_delta
        && bytes.len() == inputs.package_bytes;
    (cp, ok)
}

/// The consumer side rebuilt from `LazyLoader` and the compile layers.
fn staged_lazy_boot(
    inputs: &PushInputs,
    cp: &ChunkedPackage,
    rec: &mut Recorder,
) -> Option<crate::compile::Staged> {
    let man = &cp.manifest;
    let pool = pool_with(inputs.cache.clone(), cp);
    let hot = rec.begin("core.chunk.hot_decode");
    let loader = LazyLoader::new(man, &pool);
    let mut tier = TierProfile::default();
    let decoded = loader
        .decode_head()
        .and_then(|_| loader.decode_tail(&mut tier));
    let Ok((ctx, prop_orders, func_order)) = decoded else {
        rec.end(hot);
        return None;
    };
    let order = if func_order.is_empty() || inputs.opts.func_sort == FuncSort::SourceOrder {
        man.funcs_by_heat()
    } else {
        func_order.clone()
    };
    let work: Vec<_> = order
        .into_iter()
        .filter(|f| loader.entry_of(*f).is_some())
        .collect();
    let hot_count =
        early_serve_prefix_by_heat(&man.heat_map(), &work, inputs.opts.early_serve_frac);
    let hot_entries = loader.hot_closure(work[..hot_count].iter().copied());
    let hot_ok = loader.decode_funcs(&hot_entries, &mut tier).is_ok();
    rec.end(hot);
    let cold_ok = rec
        .time("core.chunk.cold_decode", || {
            loader.decode_funcs(&loader.all_func_entries(), &mut tier)
        })
        .is_ok();
    if !(hot_ok && cold_ok) {
        return None;
    }
    let parts = ProfileParts {
        tier: &tier,
        ctx: &ctx,
        prop_orders: &prop_orders,
        func_order: &func_order,
    };
    Some(staged_compile(
        &inputs.current.repo,
        &parts,
        &inputs.opts,
        rec,
    ))
}

fn trace(inputs: &PushInputs, args: &RunArgs, rec: &mut Recorder, result: &mut WorkloadResult) {
    let iters = args.trace_iters();
    let repo = &inputs.current.repo;
    result.setup_layers(rec, args.scale.profile_requests());

    let mut stats = LoopStats::default();
    let mut staged = crate::compile::Staged::default();
    let mut last_cp = None;
    for i in 0..iters {
        rec.set_op(i as u32);
        let (cp, published) = staged_publish(inputs, rec);
        let booted = staged_lazy_boot(inputs, &cp, rec);
        stats.gate(
            published
                && booted.is_some_and(|s| {
                    s.digest == inputs.ref_digest && s.compiled_funcs == inputs.ref_funcs
                }),
        );
        staged = booted.unwrap_or_default();
        last_cp = Some(cp);
    }
    let per_op = |name: &str| median(&rec.self_ms_per_op(name));
    for (span, metric) in [
        ("core.seeder.build", "core.seeder.build_ms"),
        ("core.wire.encode", "core.wire.encode_ms"),
        ("core.chunk.split", "core.chunk.split_ms"),
        ("core.chunk.manifest_codec", "core.chunk.manifest_codec_ms"),
        ("core.chunk.delta", "core.chunk.delta_ms"),
        ("core.chunk.hot_decode", "core.chunk.hot_decode_ms"),
        ("core.chunk.cold_decode", "core.chunk.cold_decode_ms"),
        ("vm.prop_slots", "vm.prop_slots_ms"),
        ("jit.translate", "jit.translate.ms"),
        ("jit.engine.plan", "jit.engine.plan_ms"),
        ("jit.code_cache.emit", "jit.code_cache.emit_ms"),
    ] {
        result.layer(metric, per_op(span));
    }
    staged.report(result, per_op("jit.translate"));

    // The workload's own op, for the numbers its user sees.
    let mut samples = Vec::new();
    for _ in 0..iters {
        let s = inputs.push(args.threads);
        stats.gate(s.ok);
        samples.push(s);
    }
    let series = |f: fn(&PushSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    result.layer("publish_ms", series(|s| s.publish_ms));
    result.layer("boot_ms", series(|s| s.boot_ms));
    result.layer("serve_ready_ms", series(|s| s.serve_ready_ms));
    let chunks = samples.last().map(|s| s.chunks).unwrap_or_default();
    result.layer("core.chunk.before_serve_frac", chunks.before_serve_frac());
    result.layer("core.chunk.hot_chunks", chunks.hot_chunks as f64);

    let d = &inputs.ref_delta;
    result.layer("push_wire_ratio", d.wire_ratio());
    result.layer("core.chunk.manifest_bytes", d.manifest_bytes as f64);
    result.layer("core.chunk.chunks_sent", d.chunks_sent as f64);
    result.layer("core.chunk.chunks_reused", d.chunks_reused as f64);
    result.layer("package_bytes", inputs.package_bytes as f64);
    result.layer(
        "core.wire.bytes_per_func",
        inputs.package_bytes as f64 / inputs.pkg.tier.funcs.len().max(1) as f64,
    );

    if let Some(cp) = &last_cp {
        // Checksum throughput over the sealed package (every chunk fetch
        // and every reassembly pays it).
        let reps = iters * 8;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(crc32(std::hint::black_box(&cp.sealed)));
        }
        let mb = (cp.sealed.len() * reps) as f64 / 1e6;
        result.layer("core.crc32.mb_per_s", mb / t0.elapsed().as_secs_f64());
    }

    let (run, pkg) = (&inputs.run, &inputs.pkg);
    let parts = ProfileParts {
        tier: &pkg.tier,
        ctx: &pkg.ctx,
        prop_orders: &pkg.prop_orders,
        func_order: &pkg.func_order,
    };
    result.layer(
        "layout.exttsp.ms",
        median(&exttsp_ms(repo, &parts, &inputs.opts, iters)),
    );
    result.layer(
        "layout.c3.ms",
        median(&c3_ms(repo, &run.tier, &run.ctx, iters)),
    );
    result.stats = stats;
}
