//! `boot-fresh` and `boot-stale`: one consumer boot from serialized
//! package bytes (the paper's C3). The two share every line but the
//! package's age: fresh boots lint clean and never repair; stale boots
//! were sealed on the prior release, so lint fails and the stale matcher
//! repairs before compiling.

use std::collections::HashSet;
use std::time::Instant;

use analysis::{is_own_layer_order, lint_profile_with, repair_profile, LintOptions, ProfileView};
use bytecode::{ClassId, FuncId, StrId, UnitId};
use jit::JitOptions;
use jumpstart::{consume, consume_bytes, ConsumerOutcome, JumpStartOptions, ProfilePackage};
use workload::App;

use crate::compile::{c3_ms, exttsp_ms, staged_compile, ProfileParts, Staged};
use crate::inputs::{app_params, build_release, current_release, seal, validates, Sealed, Seeds};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{setup_instances, timed_loop, LoopStats, OpSample, RunArgs, WorkloadResult};

/// Ops per input set run and checked but not timed (cold caches, lazy
/// page faults).
const WARMUP_OPS: usize = 3;

/// The lint a consumer holds every package to (flow conservation on,
/// type feasibility a warning) — `core::consumer`'s private constant.
const CONSUMER_LINT: LintOptions = LintOptions {
    flow_conservation: true,
    type_feasibility: false,
};

/// What set-up leaves for the loop.
pub struct BootInputs {
    /// The release the package was sealed on.
    pub base: App,
    /// The churned release the consumer runs, when stale.
    pub current: Option<App>,
    /// The package the consumer boots from.
    pub sealed: Sealed,
    /// Consumer options.
    pub opts: JumpStartOptions,
    /// Whether the package is one release old.
    pub stale: bool,
    /// Layout digest of a 1-thread `consume` of the decoded package.
    pub ref_digest: u64,
    /// Functions that reference boot compiled.
    pub ref_funcs: usize,
    /// Whether the validator accepted the package and the reference boot
    /// repaired exactly when stale.
    pub gates_ok: bool,
}

/// Builds the release(s), seals and validates the package, and boots the
/// 1-thread reference.
pub fn setup(args: &RunArgs, stale: bool, rec: &mut Recorder) -> BootInputs {
    let seeds = Seeds::derive(args.seed);
    let params = app_params(args.scale, seeds.app);
    let opts = JumpStartOptions {
        early_serve_frac: 1.0,
        ..args.scale.js_opts()
    };
    let base = build_release(&params, None, rec);
    let sealed = seal(&base, args.scale, &seeds, &opts, rec);
    let validated = validates(&base, &sealed.bytes, &opts, rec);
    let current = stale.then(|| current_release(&params, &seeds, rec));
    let app = current.as_ref().unwrap_or(&base);
    let reference = consume(&app.repo, &sealed.pkg, JitOptions::default(), &opts, 1);
    let (ref_digest, ref_funcs, repaired) = match &reference {
        Ok(out) => (
            out.engine.code_cache.layout_digest(),
            out.compiled_funcs,
            out.repair.is_some(),
        ),
        Err(_) => (0, 0, !stale),
    };
    drop(reference);
    BootInputs {
        base,
        current,
        sealed,
        opts,
        stale,
        ref_digest: ref_digest ^ u64::from(args.flip_reference),
        ref_funcs,
        gates_ok: validated && repaired == stale && ref_funcs > 0,
    }
}

impl BootInputs {
    /// The release the consumer runs.
    pub fn app(&self) -> &App {
        self.current.as_ref().unwrap_or(&self.base)
    }

    /// Whether a boot's outcome matches the reference.
    fn check(&self, out: &Result<ConsumerOutcome<'_>, jumpstart::ConsumerError>) -> bool {
        out.as_ref().is_ok_and(|o| {
            o.engine.code_cache.layout_digest() == self.ref_digest
                && o.repair.is_some() == self.stale
                && o.compiled_funcs == self.ref_funcs
        })
    }

    /// One op: bytes in, every function emitted.
    fn boot(&self, threads: usize, instance: usize) -> OpSample {
        let t0 = Instant::now();
        let out = consume_bytes(
            &self.app().repo,
            &self.sealed.bytes,
            JitOptions::default(),
            &self.opts,
            threads,
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        OpSample {
            ms,
            ok: self.check(&out),
            units: self.ref_funcs as f64,
            instance,
        }
    }
}

/// Runs the workload: the timed loop, or the traced pass.
pub fn run(args: &RunArgs, stale: bool, rec: &mut Recorder) -> WorkloadResult {
    let (sets, setup_s) = setup_instances(args, |a| setup(a, stale, rec));
    let k = sets.len();
    let mut result = WorkloadResult {
        setup_s,
        digests: vec![("layout", sets[0].ref_digest)],
        ..Default::default()
    };
    if args.trace {
        trace(&sets[0], args, rec, &mut result);
    } else {
        result.stats = timed_loop(args.seconds, WARMUP_OPS * k, k, |i| {
            sets[i % k].boot(args.threads, i % k)
        });
    }
    for set in &sets {
        result.stats.gate(set.gates_ok);
    }
    result
}

/// A decoded package after lint and, when dirty, repair — what
/// `core::consumer` holds when it starts compiling.
struct Front {
    pkg: ProfilePackage,
    repaired: Option<Repaired>,
    /// Lint was dirty exactly when the package is stale, and the repaired
    /// profile lints flow-clean.
    ok: bool,
}

/// The repaired profile, owned because repair mutates it — what
/// `core::consumer::repair_package` builds.
struct Repaired {
    tier: jit::TierProfile,
    ctx: jit::CtxProfile,
    prop_orders: Vec<(ClassId, Vec<StrId>)>,
    func_order: Vec<FuncId>,
}

impl Front {
    fn parts(&self) -> ProfileParts<'_> {
        match &self.repaired {
            Some(r) => ProfileParts {
                tier: &r.tier,
                ctx: &r.ctx,
                prop_orders: &r.prop_orders,
                func_order: &r.func_order,
            },
            None => ProfileParts {
                tier: &self.pkg.tier,
                ctx: &self.pkg.ctx,
                prop_orders: &self.pkg.prop_orders,
                func_order: &self.pkg.func_order,
            },
        }
    }
}

/// First occurrence of each in-range id, in order.
fn dedup_in_range<T: Copy + Eq + std::hash::Hash>(
    ids: &[T],
    in_range: impl Fn(T) -> bool,
) -> Vec<T> {
    let mut seen = HashSet::new();
    ids.iter()
        .copied()
        .filter(|&id| in_range(id) && seen.insert(id))
        .collect()
}

/// Decode, lint and (when dirty) repair, a span around each layer call.
fn front(inputs: &BootInputs, rec: &mut Recorder) -> Option<Front> {
    let repo = &inputs.app().repo;
    let lint_errors =
        |view: &ProfileView<'_>| lint_profile_with(repo, view, &CONSUMER_LINT).error_count();
    let pkg = rec
        .time("core.wire.decode", || {
            ProfilePackage::deserialize_shared(&inputs.sealed.bytes)
        })
        .ok()?;
    let first_lint = if inputs.stale {
        "analysis.lint.stale"
    } else {
        "analysis.lint.clean"
    };
    let dirty = rec.time(first_lint, || {
        lint_errors(&ProfileView {
            tier: &pkg.tier,
            ctx: &pkg.ctx,
            unit_order: &pkg.preload.unit_order,
            prop_orders: &pkg.prop_orders,
            func_order: &pkg.func_order,
        }) > 0
    });
    let mut ok = dirty == inputs.stale;
    let repaired = dirty.then(|| {
        let (mut tier, mut ctx) = (pkg.tier.clone(), pkg.ctx.clone());
        rec.time("analysis.stale.repair", || {
            repair_profile(repo, &mut tier, &mut ctx)
        });
        let func_order: Vec<FuncId> =
            dedup_in_range(&pkg.func_order, |f| f.index() < repo.funcs().len());
        let unit_order: Vec<UnitId> =
            dedup_in_range(&pkg.preload.unit_order, |u| u.index() < repo.units().len());
        let mut seen = HashSet::new();
        let prop_orders: Vec<(ClassId, Vec<StrId>)> = pkg
            .prop_orders
            .iter()
            .filter(|(c, order)| {
                c.index() < repo.classes().len()
                    && is_own_layer_order(repo, *c, order)
                    && seen.insert(*c)
            })
            .cloned()
            .collect();
        // The repaired profile is held to the same lint as a fresh one.
        ok &= rec.time("analysis.lint.clean", || {
            lint_errors(&ProfileView {
                tier: &tier,
                ctx: &ctx,
                unit_order: &unit_order,
                prop_orders: &prop_orders,
                func_order: &func_order,
            }) == 0
        });
        Repaired {
            tier,
            ctx,
            prop_orders,
            func_order,
        }
    });
    Some(Front { pkg, repaired, ok })
}

/// One boot rebuilt from the layers' public functions. Returns whether
/// it matched the reference, its wall ms, and what it compiled.
fn staged_boot(inputs: &BootInputs, rec: &mut Recorder) -> (bool, f64, Staged) {
    let t0 = Instant::now();
    let op = rec.begin("core.consumer.staged");
    let staged = front(inputs, rec).map(|f| {
        let staged = staged_compile(&inputs.app().repo, &f.parts(), &inputs.opts, rec);
        (f.ok, staged)
    });
    rec.end(op);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match staged {
        Some((ok, s)) => (
            ok && s.digest == inputs.ref_digest && s.compiled_funcs == inputs.ref_funcs,
            ms,
            s,
        ),
        None => (false, ms, Staged::default()),
    }
}

/// The traced pass: staged boots with a span per layer call, then the
/// product's own boot at 1 and 2 threads and under `telemetry::capture`,
/// and the layout algorithms alone.
fn trace(inputs: &BootInputs, args: &RunArgs, rec: &mut Recorder, result: &mut WorkloadResult) {
    let iters = args.trace_iters();
    let repo = &inputs.app().repo;
    let pkg = &inputs.sealed.pkg;
    result.setup_layers(rec, args.scale.profile_requests());

    // The product's own boot of the decoded package.
    let consume_at = |threads: usize| {
        let t0 = Instant::now();
        let out = consume(repo, pkg, JitOptions::default(), &inputs.opts, threads);
        OpSample {
            ms: t0.elapsed().as_secs_f64() * 1e3,
            ok: inputs.check(&out),
            units: 0.0,
            instance: 0,
        }
    };
    // Every iteration runs each variant once, so a slow stretch of the
    // host slows all of them alike and the ratios below survive it.
    let mut stats = LoopStats::default();
    let mut staged = Staged::default();
    let [mut staged_wall, mut wall_t1, mut wall_t2, mut plain, mut captured] =
        [const { Vec::new() }; 5];
    let (mut cpu_t1, mut cpu_t2) = (0.0, 0.0);
    for i in 0..iters {
        rec.set_op(i as u32);
        let (ok, ms, s) = staged_boot(inputs, rec);
        stats.gate(ok);
        staged_wall.push(ms);
        staged = s;
        let (ms, cpu) = stats.gated(|| consume_at(1));
        wall_t1.push(ms);
        cpu_t1 += cpu;
        let (ms, cpu) = stats.gated(|| consume_at(2));
        wall_t2.push(ms);
        cpu_t2 += cpu;
        // The workload's own op, plain and inside the product's tracer.
        plain.push(stats.gated(|| inputs.boot(args.threads, 0)).0);
        captured.push(
            stats
                .gated(|| telemetry::capture(|| inputs.boot(args.threads, 0)).0)
                .0,
        );
    }

    let per_op = |name: &str| median(&rec.self_ms_per_op(name));
    let mut attributed = 0.0;
    for (span, metric) in [
        ("core.wire.decode", "core.wire.decode_ms"),
        ("analysis.lint.clean", "analysis.lint.clean_ms"),
        ("analysis.lint.stale", "analysis.lint.stale_ms"),
        ("analysis.stale.repair", "analysis.stale.repair_ms"),
        ("vm.prop_slots", "vm.prop_slots_ms"),
        ("jit.translate", "jit.translate.ms"),
        ("jit.engine.plan", "jit.engine.plan_ms"),
        ("jit.code_cache.emit", "jit.code_cache.emit_ms"),
    ] {
        let ms = per_op(span);
        result.layer(metric, ms);
        // `consume` takes a decoded package: decode is not its time.
        if span != "core.wire.decode" {
            attributed += ms;
        }
    }
    staged.report(result, per_op("jit.translate"));

    let consume_ms = median(&wall_t1);
    result.layer("core.consumer.consume_ms", consume_ms);
    result.layer(
        "core.consumer.unattributed_pct",
        100.0 * (1.0 - attributed / consume_ms),
    );
    result.layer("core.pipeline.speedup_t2", consume_ms / median(&wall_t2));
    result.layer("core.pipeline.cpu_inflation_t2", cpu_t2 / cpu_t1);
    // Staged boots time decode too; the product's `consume` does not.
    let staged_ms = median(&staged_wall) - per_op("core.wire.decode");
    result.layer("trace.overhead_pct", 100.0 * (staged_ms / consume_ms - 1.0));
    result.layer("boot_ms", median(&plain));
    result.layer(
        "telemetry.capture_overhead_pct",
        100.0 * (median(&captured) / median(&plain) - 1.0),
    );

    // Counts, from the structs the product's boot returns — at 1 thread:
    // with more, two workers can plan the same layout at once and the
    // plan cache's hit count depends on who got there first.
    let boot = consume_bytes(
        repo,
        &inputs.sealed.bytes,
        JitOptions::default(),
        &inputs.opts,
        1,
    );
    stats.gate(inputs.check(&boot));
    if let Ok(out) = &boot {
        if let Some(c) = out.boot.caches {
            let lookups = (c.plan_hits + c.plan_misses).max(1);
            result.layer(
                "layout.plan_cache_hit_frac",
                c.plan_hits as f64 / lookups as f64,
            );
        }
        if let Some(r) = &out.repair {
            let s = &r.stats;
            for (metric, v) in [
                ("analysis.stale.funcs_repaired", r.repaired.len() as u64),
                ("analysis.stale.funcs_dropped", r.dropped.len() as u64),
                ("analysis.stale.blocks_exact", s.blocks_exact),
                ("analysis.stale.blocks_opcode", s.blocks_opcode),
                ("analysis.stale.blocks_neighbor", s.blocks_neighbor),
                ("analysis.stale.blocks_anchor", s.blocks_anchor),
                ("analysis.stale.blocks_inferred", s.blocks_inferred),
            ] {
                result.layer(metric, v as f64);
            }
            result.layer(
                "analysis.stale.mass_recovered_frac",
                s.mass_matched as f64 / (s.mass_matched + s.mass_dropped).max(1) as f64,
            );
        }
    }
    drop(boot);

    // The layout algorithms alone: Ext-TSP on the units the consumer
    // compiles, C3 on the call graph the seeder sorted.
    if let Some(f) = front(inputs, &mut Recorder::new(false)) {
        result.layer(
            "layout.exttsp.ms",
            median(&exttsp_ms(repo, &f.parts(), &inputs.opts, iters)),
        );
    }
    let run = &inputs.sealed.run;
    result.layer(
        "layout.c3.ms",
        median(&c3_ms(&inputs.base.repo, &run.tier, &run.ctx, iters)),
    );

    result.layer("package_bytes", inputs.sealed.bytes.len() as f64);
    result.layer(
        "core.wire.bytes_per_func",
        inputs.sealed.bytes.len() as f64 / pkg.tier.funcs.len().max(1) as f64,
    );
    result.stats = stats;
}
