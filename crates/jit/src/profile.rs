//! JIT profile data — the contents of the Jump-Start package (paper §IV-B).
//!
//! Two layers, matching the paper:
//!
//! * [`TierProfile`] — what HHVM's tier-1 *profiling translations* collect:
//!   counters at bytecode-level basic blocks, call-target profiles,
//!   observed operand types and property-access counts. Crucially, tier-1
//!   gives **block** counts, not **edge** counts, and it never sees
//!   inlined bodies (tier-1 does no inlining) — the two inaccuracies §V-A
//!   and §V-B fix.
//! * [`CtxProfile`] — what the seeders' *instrumented optimized code*
//!   collects (§V-A): exact branch outcomes, context-sensitive at inline
//!   depth 1, plus per-caller-site entry counts (the accurate call graph
//!   of §V-B).
//!
//! In the simulation both are gathered by one [`ProfileCollector`] driven
//! by the interpreter; production HHVM gathers them in two phases of the
//! seeder workflow (Fig. 3b).

use std::collections::HashMap;
use std::sync::OnceLock;

use bytecode::{BlockId, Cfg, ClassId, FuncId, Repo, StrId};
use vm::{ExecObserver, Value, ValueKind};

/// Marker "instruction index" under which parameter types are recorded.
pub const PARAM_SITE: u32 = u32::MAX;

/// Taken / not-taken counts of one conditional branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchCount {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times it fell through.
    pub not_taken: u64,
}

impl BranchCount {
    /// Total executions.
    pub fn total(&self) -> u64 {
        self.taken + self.not_taken
    }

    /// Probability of being taken (0.5 when never executed).
    pub fn taken_prob(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.5
        } else {
            self.taken as f64 / t as f64
        }
    }

    /// Accumulates another count.
    pub fn merge(&mut self, other: &BranchCount) {
        self.taken += other.taken;
        self.not_taken += other.not_taken;
    }
}

/// Distribution of observed [`ValueKind`]s at one profiling point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TypeDist {
    counts: [u64; ValueKind::COUNT],
}

impl TypeDist {
    /// Records one observation.
    pub fn observe(&mut self, kind: ValueKind) {
        self.counts[kind.index()] += 1;
    }

    /// Adds `count` observations at once (deserialization).
    pub fn add_raw(&mut self, kind: ValueKind, count: u64) {
        self.counts[kind.index()] += count;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The dominant kind and its share, if anything was observed.
    pub fn dominant(&self) -> Option<(ValueKind, f64)> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let (i, &c) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("array non-empty");
        Some((ValueKind::ALL[i], c as f64 / total as f64))
    }

    /// Whether a single kind covers at least `threshold` of observations.
    pub fn is_monomorphic(&self, threshold: f64) -> Option<ValueKind> {
        self.dominant()
            .and_then(|(k, share)| (share >= threshold).then_some(k))
    }

    /// Raw per-kind counts (index by [`ValueKind::index`]).
    pub fn counts(&self) -> &[u64; ValueKind::COUNT] {
        &self.counts
    }

    /// Accumulates another distribution.
    pub fn merge(&mut self, other: &TypeDist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// Tier-1 profile of a single function.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuncProfile {
    /// Times the function was entered.
    pub enter_count: u64,
    /// Execution count per bytecode basic block (indexed by [`BlockId`]).
    pub block_counts: Vec<u64>,
    /// Structural hash of each block's CFG at collection time (parallel to
    /// `block_counts`, from [`Cfg::block_hashes`]). Lets a consumer detect
    /// a profile collected against a *different* build of the function and
    /// remap counters onto the current CFG (stale-profile repair).
    pub block_hashes: Vec<u64>,
    /// FNV-1a of the function's *name* at collection time (`0` for legacy
    /// profiles). Function ids renumber wholesale across builds; the name
    /// hash is the build-stable identity the repairer keys on.
    pub name_hash: u64,
    /// Opcode-only block hashes (no immediates), parallel to
    /// `block_counts`; from [`Cfg::block_opcode_hashes`]. Second and last
    /// rung of the stale-matching ladder. The collector always fills it;
    /// it is empty only in a hand-built profile, which then matches on
    /// exact hashes alone and cannot be re-identified after a rename.
    pub block_opcode_hashes: Vec<u64>,
    /// Call-target profile per call-site instruction index.
    pub call_targets: HashMap<u32, HashMap<FuncId, u64>>,
    /// Observed operand/parameter types per (instruction, operand slot).
    pub types: HashMap<(u32, u8), TypeDist>,
    /// Observed receiver classes per property-access site.
    pub prop_site_classes: HashMap<u32, HashMap<ClassId, u64>>,
}

impl FuncProfile {
    /// Average bytecode instructions executed per invocation.
    pub fn avg_instrs_per_call(&self, cfg: &Cfg) -> f64 {
        if self.enter_count == 0 {
            return 0.0;
        }
        let total: u64 = self
            .block_counts
            .iter()
            .enumerate()
            .map(|(b, &c)| c * cfg.blocks()[b].len() as u64)
            .sum();
        total as f64 / self.enter_count as f64
    }

    /// The dominant callee at a call site, with its share.
    pub fn dominant_target(&self, site: u32) -> Option<(FuncId, f64)> {
        let targets = self.call_targets.get(&site)?;
        let total: u64 = targets.values().sum();
        if total == 0 {
            return None;
        }
        let (&f, &c) = targets.iter().max_by_key(|(_, &c)| c)?;
        Some((f, c as f64 / total as f64))
    }

    /// Accumulates another function profile.
    pub fn merge(&mut self, other: &FuncProfile) {
        self.enter_count += other.enter_count;
        if self.block_counts.len() < other.block_counts.len() {
            self.block_counts.resize(other.block_counts.len(), 0);
        }
        if self.block_hashes.is_empty() {
            self.block_hashes = other.block_hashes.clone();
        }
        if self.name_hash == 0 {
            self.name_hash = other.name_hash;
        }
        if self.block_opcode_hashes.is_empty() {
            self.block_opcode_hashes = other.block_opcode_hashes.clone();
        }
        for (i, &c) in other.block_counts.iter().enumerate() {
            self.block_counts[i] += c;
        }
        for (site, targets) in &other.call_targets {
            let e = self.call_targets.entry(*site).or_default();
            for (f, c) in targets {
                *e.entry(*f).or_insert(0) += c;
            }
        }
        for (k, d) in &other.types {
            self.types.entry(*k).or_default().merge(d);
        }
        for (site, classes) in &other.prop_site_classes {
            let e = self.prop_site_classes.entry(*site).or_default();
            for (c, n) in classes {
                *e.entry(*c).or_insert(0) += n;
            }
        }
    }
}

/// The whole tier-1 profile: per-function data plus the global property
/// hotness table used by §V-C.
#[derive(Clone, Debug, Default)]
pub struct TierProfile {
    /// Per-function profiles (absent = never profiled).
    pub funcs: HashMap<FuncId, FuncProfile>,
    /// Accesses per (class, property) — drives property reordering.
    pub prop_counts: HashMap<(ClassId, StrId), u64>,
    /// Co-access counts per (class, propA, propB) within one request —
    /// drives the affinity extension (paper §V-C "future work").
    pub prop_pairs: HashMap<(ClassId, StrId, StrId), u64>,
    // Lazily computed hottest-first (func, heat) ranking. The seeder,
    // consumer and validator all ask for the heat order of the same frozen
    // profile, so the sort is paid once; any counter mutation must call
    // `mark_counters_dirty` to drop it.
    heat_cache: OnceLock<Vec<(FuncId, u64)>>,
}

// The cache is derived state: two profiles are equal iff their counters
// are, regardless of which one has ranked itself already.
impl PartialEq for TierProfile {
    fn eq(&self, other: &TierProfile) -> bool {
        self.funcs == other.funcs
            && self.prop_counts == other.prop_counts
            && self.prop_pairs == other.prop_pairs
    }
}

impl TierProfile {
    /// Functions profiled.
    pub fn profiled_count(&self) -> usize {
        self.funcs.len()
    }

    /// Total block-counter mass, a coverage signal (paper §VI-B checks
    /// coverage before publishing).
    pub fn total_counter_mass(&self) -> u64 {
        self.funcs
            .values()
            .map(|f| f.block_counts.iter().sum::<u64>())
            .sum()
    }

    /// Accumulates another profile.
    pub fn merge(&mut self, other: &TierProfile) {
        for (f, p) in &other.funcs {
            self.funcs.entry(*f).or_default().merge(p);
        }
        for (k, c) in &other.prop_counts {
            *self.prop_counts.entry(*k).or_insert(0) += c;
        }
        for (k, c) in &other.prop_pairs {
            *self.prop_pairs.entry(*k).or_insert(0) += c;
        }
        self.mark_counters_dirty();
    }

    /// Invalidates the cached heat ranking. Must be called after any
    /// direct mutation of `funcs` block counters (the collector and the
    /// stale-profile repair both mutate in place).
    pub fn mark_counters_dirty(&mut self) {
        self.heat_cache.take();
    }

    /// Hottest-first `(function, heat)` ranking, where heat is the summed
    /// block counters. Computed once and cached until counters change.
    pub fn heat_ranked(&self) -> &[(FuncId, u64)] {
        self.heat_cache.get_or_init(|| {
            let mut v: Vec<(FuncId, u64)> = self
                .funcs
                .iter()
                .map(|(&f, p)| (f, p.block_counts.iter().sum::<u64>()))
                .collect();
            v.sort_by_key(|&(f, heat)| (std::cmp::Reverse(heat), f));
            v
        })
    }

    /// Heat (summed block counters) of one function; 0 when unprofiled.
    pub fn func_heat(&self, func: FuncId) -> u64 {
        self.heat_ranked()
            .iter()
            .find(|&&(f, _)| f == func)
            .map(|&(_, h)| h)
            .unwrap_or(0)
    }

    /// Functions sorted hottest-first by weighted block counts — the order
    /// the optimizing tier compiles them in.
    pub fn functions_by_heat(&self) -> Vec<FuncId> {
        self.heat_ranked().iter().map(|&(f, _)| f).collect()
    }
}

/// An inline context: the caller and call-site a function was entered from.
pub type InlineCtx = Option<(FuncId, u32)>;

/// Key for context-sensitive branch counters: (inline context, function,
/// branch instruction index).
pub type CtxKey = (InlineCtx, FuncId, u32);

/// Context-sensitive profile from instrumented optimized code (§V-A/B).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CtxProfile {
    /// Branch outcomes keyed by inline context.
    pub branches: HashMap<CtxKey, BranchCount>,
    /// Entry counts per (context, function) — the accurate, inlining-aware
    /// call graph of §V-B.
    pub entries: HashMap<(InlineCtx, FuncId), u64>,
}

impl CtxProfile {
    /// Taken-probability for a branch under `ctx`, falling back to the
    /// aggregate over all contexts, then to 0.5.
    pub fn taken_prob(&self, ctx: InlineCtx, func: FuncId, at: u32) -> f64 {
        if let Some(b) = self.branches.get(&(ctx, func, at)) {
            if b.total() > 0 {
                return b.taken_prob();
            }
        }
        self.aggregate_branch(func, at).taken_prob()
    }

    /// Branch counts aggregated over every context.
    pub fn aggregate_branch(&self, func: FuncId, at: u32) -> BranchCount {
        let mut total = BranchCount::default();
        for ((_, f, a), c) in &self.branches {
            if *f == func && *a == at {
                total.merge(c);
            }
        }
        total
    }

    /// Call arcs (caller → callee, weight) for the function-sorting call
    /// graph. With `inlining_aware` the arcs come from context entries
    /// (what §V-B's instrumented optimized code sees).
    pub fn call_arcs(&self) -> Vec<(FuncId, FuncId, u64)> {
        let mut arcs = Vec::new();
        for (&(ctx, callee), &w) in &self.entries {
            if let Some((caller, _)) = ctx {
                arcs.push((caller, callee, w));
            }
        }
        arcs
    }

    /// Accumulates another profile.
    pub fn merge(&mut self, other: &CtxProfile) {
        for (k, c) in &other.branches {
            self.branches.entry(*k).or_default().merge(c);
        }
        for (k, c) in &other.entries {
            *self.entries.entry(*k).or_insert(0) += c;
        }
    }
}

/// Collects [`TierProfile`] and [`CtxProfile`] while the interpreter runs.
///
/// Implements [`vm::ExecObserver`]; attach with [`vm::Vm::call_observed`].
#[derive(Debug)]
// Per-function CFG signatures computed once at first observation.
struct BlockShape {
    len: usize,
    name_hash: u64,
    exact: Vec<u64>,
    opcode: Vec<u64>,
}

pub struct ProfileCollector<'r> {
    repo: &'r Repo,
    /// Tier-1 counters.
    pub tier: TierProfile,
    /// Context-sensitive counters.
    pub ctx: CtxProfile,
    // Call stack: (func, inline ctx of this frame).
    stack: Vec<(FuncId, InlineCtx)>,
    // The call site observed immediately before the next func entry.
    pending_site: InlineCtx,
    // Block counts need sizing and signature hashes need computing exactly
    // once per function; cache them per func.
    block_shape: HashMap<FuncId, BlockShape>,
    // Properties touched in the current top-level request, for affinity.
    request_props: Vec<(ClassId, StrId)>,
}

impl<'r> ProfileCollector<'r> {
    /// Creates a collector for programs from `repo`.
    pub fn new(repo: &'r Repo) -> Self {
        Self {
            repo,
            tier: TierProfile::default(),
            ctx: CtxProfile::default(),
            stack: Vec::new(),
            pending_site: None,
            block_shape: HashMap::new(),
            request_props: Vec::new(),
        }
    }

    /// Marks a request boundary (flushes per-request affinity pairs).
    pub fn end_request(&mut self) {
        // Record unordered co-access pairs per class.
        self.request_props.sort();
        self.request_props.dedup();
        for i in 0..self.request_props.len() {
            for j in (i + 1)..self.request_props.len() {
                let (ca, pa) = self.request_props[i];
                let (cb, pb) = self.request_props[j];
                if ca == cb {
                    let key = if pa <= pb { (ca, pa, pb) } else { (ca, pb, pa) };
                    *self.tier.prop_pairs.entry(key).or_insert(0) += 1;
                }
            }
        }
        self.request_props.clear();
        self.stack.clear();
        self.pending_site = None;
    }

    fn func_profile(&mut self, func: FuncId) -> &mut FuncProfile {
        // Callers mutate counters through the returned reference.
        self.tier.mark_counters_dirty();
        let repo = self.repo;
        let shape = self.block_shape.entry(func).or_insert_with(|| {
            let f = repo.func(func);
            let cfg = Cfg::build(f);
            BlockShape {
                len: cfg.len(),
                name_hash: bytecode::fnv_str(repo.str(f.name)),
                exact: cfg.block_hashes(f, repo),
                opcode: cfg.block_opcode_hashes(f),
            }
        });
        let p = self.tier.funcs.entry(func).or_default();
        if p.block_counts.len() < shape.len {
            p.block_counts.resize(shape.len, 0);
        }
        if p.block_hashes.is_empty() {
            p.block_hashes = shape.exact.clone();
            p.name_hash = shape.name_hash;
            p.block_opcode_hashes = shape.opcode.clone();
        }
        p
    }
}

impl ExecObserver for ProfileCollector<'_> {
    fn on_func_enter(&mut self, func: FuncId, args: &[Value]) {
        let ctx = self.pending_site.take();
        self.stack.push((func, ctx));
        let p = self.func_profile(func);
        p.enter_count += 1;
        for (i, a) in args.iter().enumerate().take(8) {
            p.types
                .entry((PARAM_SITE, i as u8))
                .or_default()
                .observe(ValueKind::of(a));
        }
        *self.ctx.entries.entry((ctx, func)).or_insert(0) += 1;
    }

    fn on_block(&mut self, func: FuncId, block: BlockId) {
        let p = self.func_profile(func);
        if block.index() < p.block_counts.len() {
            p.block_counts[block.index()] += 1;
        }
    }

    fn on_branch(&mut self, func: FuncId, at: u32, taken: bool) {
        let ctx = self.stack.last().and_then(|&(_, c)| c);
        let b = self.ctx.branches.entry((ctx, func, at)).or_default();
        if taken {
            b.taken += 1;
        } else {
            b.not_taken += 1;
        }
    }

    fn on_call(&mut self, caller: FuncId, at: u32, callee: FuncId) {
        let p = self.func_profile(caller);
        *p.call_targets
            .entry(at)
            .or_default()
            .entry(callee)
            .or_insert(0) += 1;
        self.pending_site = Some((caller, at));
    }

    fn on_prop_access(&mut self, func: FuncId, at: u32, class: ClassId, prop: StrId, _write: bool) {
        *self.tier.prop_counts.entry((class, prop)).or_insert(0) += 1;
        let p = self.func_profile(func);
        *p.prop_site_classes
            .entry(at)
            .or_default()
            .entry(class)
            .or_insert(0) += 1;
        self.request_props.push((class, prop));
    }

    fn on_type_observed(&mut self, func: FuncId, at: u32, slot: u8, kind: ValueKind) {
        self.func_profile(func)
            .types
            .entry((at, slot))
            .or_default()
            .observe(kind);
    }

    fn on_func_exit(&mut self, _func: FuncId) {
        self.stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm::Vm;

    fn sample_repo() -> Repo {
        hackc_free_repo()
    }

    // A small hand-rolled repo: f(n) loops n times calling g(n%2), and g
    // branches on its argument — so g's branch behavior is context-free
    // here but the plumbing is exercised.
    fn hackc_free_repo() -> Repo {
        use bytecode::{BinOp, FuncBuilder, Instr, RepoBuilder};
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("p.hl");
        let mut g = FuncBuilder::new("g", 1);
        let zero = g.new_label();
        g.emit(Instr::GetL(0));
        g.emit_jmp_z(zero);
        g.emit(Instr::Int(1));
        g.emit(Instr::Ret);
        g.bind(zero);
        g.emit(Instr::Int(0));
        g.emit(Instr::Ret);
        let gid = b.define_func(u, g);
        let mut f = FuncBuilder::new("f", 1);
        let i = f.new_local();
        let top = f.new_label();
        let out = f.new_label();
        f.emit(Instr::Int(0));
        f.emit(Instr::SetL(i));
        f.bind(top);
        f.emit(Instr::GetL(i));
        f.emit(Instr::GetL(0));
        f.emit(Instr::Bin(BinOp::Lt));
        f.emit_jmp_z(out);
        f.emit(Instr::GetL(i));
        f.emit(Instr::Int(2));
        f.emit(Instr::Bin(BinOp::Mod));
        f.emit_raw(Instr::Call { func: gid, argc: 1 });
        f.emit(Instr::Pop);
        f.emit(Instr::IncL(i, 1));
        f.emit(Instr::Pop);
        f.emit_jmp(top);
        f.bind(out);
        f.emit(Instr::Null);
        f.emit(Instr::Ret);
        b.define_func(u, f);
        b.finish()
    }

    #[test]
    fn collector_records_blocks_calls_types() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        vm.call_observed(f, &[Value::Int(10)], &mut col).unwrap();
        col.end_request();

        let fp = &col.tier.funcs[&f];
        assert_eq!(fp.enter_count, 1);
        assert!(fp.block_counts.iter().sum::<u64>() > 10);
        // The call site saw g ten times.
        let (site, targets) = fp.call_targets.iter().next().unwrap();
        assert_eq!(targets[&g], 10);
        let _ = site;
        // Parameter type observed as Int.
        let d = &fp.types[&(PARAM_SITE, 0)];
        assert_eq!(d.is_monomorphic(0.9), Some(ValueKind::Int));

        let gp = &col.tier.funcs[&g];
        assert_eq!(gp.enter_count, 10);
    }

    #[test]
    fn ctx_profile_tracks_call_context() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        vm.call_observed(f, &[Value::Int(8)], &mut col).unwrap();
        col.end_request();
        // g entered 8 times under context (f, site).
        let ctx_entries: Vec<_> = col
            .ctx
            .entries
            .iter()
            .filter(|((ctx, func), _)| *func == g && ctx.is_some())
            .collect();
        assert_eq!(ctx_entries.len(), 1);
        assert_eq!(*ctx_entries[0].1, 8);
        // g's branch under that ctx: taken 4 (arg 0 -> jmpz taken), not 4.
        let arcs = col.ctx.call_arcs();
        assert!(arcs
            .iter()
            .any(|&(c, callee, w)| c == f && callee == g && w == 8));
    }

    #[test]
    fn branch_probabilities_come_out_right() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        vm.call_observed(f, &[Value::Int(10)], &mut col).unwrap();
        // g's jmpz at instr 1: arg alternates 0,1,... (i%2): taken when 0.
        let p = col.ctx.taken_prob(None, g, 1);
        assert!((p - 0.5).abs() < 0.01, "alternating branch ~50%, got {p}");
        // f's loop exit branch: taken once out of 11 evaluations.
        let agg = col.ctx.aggregate_branch(f, 5);
        assert_eq!(agg.taken, 1);
        assert_eq!(agg.not_taken, 10);
    }

    #[test]
    fn merge_accumulates() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let run = || {
            let mut vm = Vm::new(&repo);
            let mut col = ProfileCollector::new(&repo);
            vm.call_observed(f, &[Value::Int(5)], &mut col).unwrap();
            col.end_request();
            (col.tier, col.ctx)
        };
        let (mut t1, mut c1) = run();
        let (t2, c2) = run();
        let before = t1.funcs[&f].enter_count;
        t1.merge(&t2);
        c1.merge(&c2);
        assert_eq!(t1.funcs[&f].enter_count, before * 2);
        assert!(t1.total_counter_mass() > 0);
        assert_eq!(t1.profiled_count(), 2);
    }

    #[test]
    fn type_dist_dominance() {
        let mut d = TypeDist::default();
        for _ in 0..98 {
            d.observe(ValueKind::Int);
        }
        d.observe(ValueKind::Str);
        d.observe(ValueKind::Null);
        assert_eq!(d.is_monomorphic(0.95), Some(ValueKind::Int));
        assert_eq!(d.is_monomorphic(0.99), None);
        assert_eq!(d.total(), 100);
    }

    #[test]
    fn heat_cache_invalidates_after_counter_updates() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        vm.call_observed(f, &[Value::Int(50)], &mut col).unwrap();
        col.end_request();
        let mut tier = col.tier;
        // Prime the cache: f (the loop) is hotter than g.
        assert_eq!(tier.functions_by_heat(), vec![f, g]);
        let f_heat = tier.func_heat(f);
        assert!(f_heat > tier.func_heat(g));

        // Direct counter mutation + explicit dirty marker reranks.
        let gp = tier.funcs.get_mut(&g).unwrap();
        for c in gp.block_counts.iter_mut() {
            *c += 10 * f_heat;
        }
        tier.mark_counters_dirty();
        assert_eq!(tier.functions_by_heat(), vec![g, f]);
        assert!(tier.func_heat(g) > tier.func_heat(f));

        // merge() invalidates on its own: merging a copy doubles every
        // counter but keeps the order, and the cached ranking must show
        // the doubled heat rather than the stale one.
        let snapshot = tier.clone();
        let g_heat = tier.func_heat(g);
        tier.merge(&snapshot);
        assert_eq!(tier.func_heat(g), 2 * g_heat);

        // Collector mutation (observer callbacks) also invalidates.
        let mut col2 = ProfileCollector::new(&repo);
        col2.tier = tier;
        assert!(!col2.tier.functions_by_heat().is_empty());
        let mut vm2 = Vm::new(&repo);
        vm2.call_observed(f, &[Value::Int(1)], &mut col2).unwrap();
        assert_eq!(
            col2.tier.func_heat(f),
            col2.tier.funcs[&f].block_counts.iter().sum::<u64>()
        );
    }

    #[test]
    fn functions_by_heat_sorts_descending() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        vm.call_observed(f, &[Value::Int(50)], &mut col).unwrap();
        let order = col.tier.functions_by_heat();
        // f executes far more blocks (the loop) than g.
        assert_eq!(order[0], f);
        assert_eq!(order[1], g);
    }
}
