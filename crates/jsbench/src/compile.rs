//! The consumer's compile stage rebuilt from the layers' public
//! functions — property slots, translate, plan, emit, one span each — so
//! the traced pass can time every layer from outside. The emitted layout
//! digest must equal the product's own `consume`, which proves the staged
//! path does the same work.

use std::collections::HashMap;
use std::time::Instant;

use bytecode::{ClassId, FuncId, Repo, StrId};
use jit::{
    plan_layout, translate_optimized_with, CtxProfile, JitEngine, JitOptions, TierProfile,
    WeightSource,
};
use jumpstart::{FuncSort, JumpStartOptions, PropReorder, TemplateCache};
use layout::{c3_order, exttsp_order, CallArc, ExtTspParams, FuncNode};
use vm::ClassTable;

use crate::spans::Recorder;
use crate::WorkloadResult;

/// The decoded (and, when stale, repaired) profile a compile runs on.
#[derive(Clone, Copy)]
pub struct ProfileParts<'a> {
    /// Tier-1 profile.
    pub tier: &'a TierProfile,
    /// Context-sensitive profile.
    pub ctx: &'a CtxProfile,
    /// Installed property orders.
    pub prop_orders: &'a [(ClassId, Vec<StrId>)],
    /// The package's compile order (empty = by heat).
    pub func_order: &'a [FuncId],
}

/// What the staged compile produced.
#[derive(Clone, Copy, Debug, Default)]
pub struct Staged {
    /// `CodeCache::layout_digest` of the emitted code.
    pub digest: u64,
    /// Functions that emitted code.
    pub compiled_funcs: usize,
    /// Bytes emitted.
    pub compile_bytes: u64,
    /// Inline sites spliced from the template cache.
    pub template_hits: u64,
    /// Inline-body templates built.
    pub template_misses: u64,
    /// Optimized hot-region bytes.
    pub hot_bytes: u64,
    /// Optimized cold-region bytes.
    pub cold_bytes: u64,
    /// Hot→cold bind-stub bytes.
    pub stub_bytes: u64,
    /// Huge-page boundary padding bytes.
    pub pad_bytes: u64,
}

impl Staged {
    /// Reports the compile's counts as per-layer metrics; `translate_ms`
    /// is the translate self time per op the bytes are divided by.
    pub fn report(&self, result: &mut WorkloadResult, translate_ms: f64) {
        let lookups = (self.template_hits + self.template_misses).max(1);
        result.layer(
            "jit.translate.template_hit_frac",
            self.template_hits as f64 / lookups as f64,
        );
        result.layer(
            "jit.translate.bytes_per_cpu_s",
            self.compile_bytes as f64 * 1e3 / translate_ms,
        );
        result.layer("jit.code_cache.hot_bytes", self.hot_bytes as f64);
        result.layer("jit.code_cache.cold_bytes", self.cold_bytes as f64);
        result.layer("jit.code_cache.stub_bytes", self.stub_bytes as f64);
        result.layer("jit.code_cache.pad_bytes", self.pad_bytes as f64);
    }
}

/// JIT options a consumer derives from the Jump-Start options.
pub fn consumer_jit_opts(opts: &JumpStartOptions) -> JitOptions {
    JitOptions {
        weights: if opts.accurate_bb_weights {
            WeightSource::Accurate
        } else {
            WeightSource::TierOnly
        },
        ..JitOptions::default()
    }
}

/// The consumer's compile order: the package's function order (or heat
/// order), filtered to profiled functions.
pub fn work_list(parts: &ProfileParts<'_>, opts: &JumpStartOptions) -> Vec<FuncId> {
    let order = if parts.func_order.is_empty() || opts.func_sort == FuncSort::SourceOrder {
        parts.tier.functions_by_heat()
    } else {
        parts.func_order.to_vec()
    };
    order
        .into_iter()
        .filter(|f| parts.tier.funcs.contains_key(f))
        .collect()
}

/// Property slots, then translate → plan → emit for every function of
/// the work list, sequentially, each call in its own span.
pub fn staged_compile(
    repo: &Repo,
    parts: &ProfileParts<'_>,
    opts: &JumpStartOptions,
    rec: &mut Recorder,
) -> Staged {
    let prop_slots: HashMap<(ClassId, StrId), u16> = rec.time("vm.prop_slots", || {
        let mut table = ClassTable::new(repo);
        if opts.prop_reorder != PropReorder::Off {
            table.install_prop_orders(parts.prop_orders.iter().cloned());
        }
        let mut slots = HashMap::new();
        for class in repo.classes() {
            let rc = table.resolve(repo, class.id);
            for (&name, &slot) in &rc.layout.slot_by_name {
                slots.insert((class.id, name), slot as u16);
            }
        }
        slots
    });
    let resolver = |class: ClassId, name: StrId| prop_slots.get(&(class, name)).copied();

    let jit_opts = consumer_jit_opts(opts);
    let mut engine = JitEngine::new(repo, jit_opts);
    let templates = TemplateCache::default();
    let mut out = Staged::default();
    for func in work_list(parts, opts) {
        let unit = rec.time("jit.translate", || {
            translate_optimized_with(
                repo,
                func,
                parts.tier,
                parts.ctx,
                jit_opts.weights,
                jit_opts.inline,
                &resolver,
                Some(&templates),
            )
        });
        let plan = rec.time("jit.engine.plan", || plan_layout(&jit_opts, &unit));
        let bytes = rec.time("jit.code_cache.emit", || engine.emit_planned(unit, &plan));
        out.compiled_funcs += usize::from(bytes > 0);
        out.compile_bytes += bytes;
    }
    let sizes = engine.sizes();
    out.digest = engine.code_cache.layout_digest();
    out.template_hits = templates.hits();
    out.template_misses = templates.misses();
    out.hot_bytes = sizes.optimized_hot;
    out.cold_bytes = sizes.optimized_cold;
    out.stub_bytes = engine.code_cache.stub_bytes();
    out.pad_bytes = engine.code_cache.pack_stats().pad_bytes;
    out
}

/// Wall ms of `layout::exttsp_order` alone over every unit of the work
/// list, per iteration. Translation happens once, outside the timing:
/// `plan_layout` calls Ext-TSP inside itself, where a span from outside
/// cannot reach.
pub fn exttsp_ms(
    repo: &Repo,
    parts: &ProfileParts<'_>,
    opts: &JumpStartOptions,
    iters: usize,
) -> Vec<f64> {
    let jit_opts = consumer_jit_opts(opts);
    let no_slots = |_: ClassId, _: StrId| None;
    let inputs: Vec<_> = work_list(parts, opts)
        .into_iter()
        .map(|func| {
            let unit = translate_optimized_with(
                repo,
                func,
                parts.tier,
                parts.ctx,
                jit_opts.weights,
                jit_opts.inline,
                &no_slots,
                None,
            );
            (unit.layout_blocks(), unit.layout_edges())
        })
        .collect();
    let params = ExtTspParams::default();
    (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            for (blocks, edges) in &inputs {
                std::hint::black_box(exttsp_order(blocks, edges, &params));
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Wall ms of `layout::c3_order` on the inlining-aware call graph of the
/// profile (what the seeder's function sort runs), per iteration.
pub fn c3_ms(repo: &Repo, tier: &TierProfile, ctx: &CtxProfile, iters: usize) -> Vec<f64> {
    let candidates = tier.functions_by_heat();
    let index_of: HashMap<FuncId, usize> = candidates
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i))
        .collect();
    let nodes: Vec<FuncNode> = candidates
        .iter()
        .map(|f| FuncNode {
            size: ((repo.func(*f).code.len() as u32) * 8).max(16),
            weight: tier.funcs[f].block_counts.iter().sum(),
        })
        .collect();
    let arcs: Vec<CallArc> = ctx
        .call_arcs()
        .into_iter()
        .filter_map(|(caller, callee, weight)| {
            Some(CallArc {
                caller: *index_of.get(&caller)?,
                callee: *index_of.get(&callee)?,
                weight,
            })
        })
        .collect();
    (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(c3_order(&nodes, &arcs, 16384));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}
