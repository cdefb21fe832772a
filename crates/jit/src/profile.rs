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
//! Every keyed table inside a [`FuncProfile`] or a [`CtxProfile`] is a
//! private vector sorted by strictly ascending key. A lookup is a binary
//! search, everything recorded for one site (or one branch, across its
//! contexts) is one contiguous run, and iteration is key order — the
//! order the wire format writes. Only this module touches the vectors, so
//! the sort invariant holds by construction.
//!
//! In the simulation both are gathered by one [`ProfileCollector`] driven
//! by the interpreter; production HHVM gathers them in two phases of the
//! seeder workflow (Fig. 3b).

use std::collections::HashMap;
use std::ops::{AddAssign, Range};
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
}

impl AddAssign<&BranchCount> for BranchCount {
    fn add_assign(&mut self, other: &BranchCount) {
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

    /// The dominant kind, if it covers at least `threshold` of a nonzero
    /// number of observations.
    pub fn is_monomorphic(&self, threshold: f64) -> Option<ValueKind> {
        let total = self.total();
        let (i, &c) = self.counts.iter().enumerate().max_by_key(|(_, &c)| c)?;
        (total > 0 && c as f64 / total as f64 >= threshold).then_some(ValueKind::ALL[i])
    }

    /// Raw per-kind counts (index by [`ValueKind::index`]).
    pub fn counts(&self) -> &[u64; ValueKind::COUNT] {
        &self.counts
    }
}

impl AddAssign<&TypeDist> for TypeDist {
    fn add_assign(&mut self, other: &TypeDist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// `(key, value)` pairs sorted by strictly ascending key.
#[derive(Clone, Debug, Default, PartialEq)]
struct Table<K, V>(Vec<(K, V)>);

impl<K: Ord + Copy, V: Default + for<'a> AddAssign<&'a V>> Table<K, V> {
    /// Adds `value` under `key`, inserting the key when absent.
    fn add(&mut self, key: K, value: &V) {
        match self.0.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.0[i].1 += value,
            Err(i) => {
                let mut v = V::default();
                v += value;
                self.0.insert(i, (key, v));
            }
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        let i = self.0.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
        Some(&self.0[i].1)
    }

    /// Index range of the run whose keys have `head(key) == want`; keys
    /// sort by their head first, so the run is contiguous.
    fn run_range<H: Ord>(&self, want: H, head: impl Fn(&K) -> H) -> Range<usize> {
        let lo = self.0.partition_point(|(k, _)| head(k) < want);
        let len = self.0[lo..].partition_point(|(k, _)| head(k) == want);
        lo..lo + len
    }

    fn run<H: Ord>(&self, want: H, head: impl Fn(&K) -> H) -> &[(K, V)] {
        &self.0[self.run_range(want, head)]
    }

    /// Drops the pairs `keep` rejects, keeping the order; returns how many.
    fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let before = self.0.len();
        self.0.retain(|(k, _)| keep(k));
        before - self.0.len()
    }

    /// Rewrites every key through `map`; keys that collide are summed.
    fn rekey(&mut self, map: impl Fn(K) -> K) {
        for (k, _) in &mut self.0 {
            *k = map(*k);
        }
        self.normalize();
    }

    /// Restores the invariant: sorts by key and sums equal keys.
    fn normalize(&mut self) {
        self.0.sort_by_key(|(k, _)| *k);
        self.0.dedup_by(|(k, v), (kept, sum)| {
            let same = k == kept;
            if same {
                *sum += v;
            }
            same
        });
    }
}

/// The dominant entry of one site's `(key, count)` run and its share of
/// the run's total (`None` when nothing was counted). Ties go to the
/// larger key.
fn dominant<T: Copy>(run: &[((u32, T), u64)]) -> Option<(T, f64)> {
    let total: u64 = run.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let ((_, t), c) = run.iter().max_by_key(|(_, c)| *c)?;
    Some((*t, *c as f64 / total as f64))
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
    // Call counts by (call site, callee).
    call_targets: Table<(u32, FuncId), u64>,
    // Observed operand/parameter types by (instruction, operand slot).
    types: Table<(u32, u8), TypeDist>,
    // Receiver-class counts by (property-access site, class).
    prop_classes: Table<(u32, ClassId), u64>,
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

    /// Records `count` calls from call site `site` to `callee`.
    pub fn record_call(&mut self, site: u32, callee: FuncId, count: u64) {
        self.call_targets.add((site, callee), &count);
    }

    /// Records the types observed at operand `slot` of instruction `at`
    /// ([`PARAM_SITE`] for parameters).
    pub fn record_types(&mut self, at: u32, slot: u8, dist: &TypeDist) {
        self.types.add((at, slot), dist);
    }

    /// Records `count` accesses at property site `site` on a receiver of
    /// `class`.
    pub fn record_prop_class(&mut self, site: u32, class: ClassId, count: u64) {
        self.prop_classes.add((site, class), &count);
    }

    // One observation, as the collector records it.
    fn observe_type(&mut self, at: u32, slot: u8, kind: ValueKind) {
        let mut one = TypeDist::default();
        one.observe(kind);
        self.record_types(at, slot, &one);
    }

    /// Reserves room for `calls` more call counts, `types` more type
    /// observations and `props` more receiver-class counts (a decoder
    /// knows its counts up front).
    pub fn reserve(&mut self, calls: usize, types: usize, props: usize) {
        self.call_targets.0.reserve(calls);
        self.types.0.reserve(types);
        self.prop_classes.0.reserve(props);
    }

    /// Every call count, sorted by `(site, callee)`.
    pub fn call_targets(&self) -> &[((u32, FuncId), u64)] {
        &self.call_targets.0
    }

    /// The call counts of one site, sorted by callee.
    pub fn call_targets_at(&self, site: u32) -> &[((u32, FuncId), u64)] {
        self.call_targets.run(site, |&(s, _)| s)
    }

    /// Every type observation, sorted by `(instruction, slot)`.
    pub fn types(&self) -> &[((u32, u8), TypeDist)] {
        &self.types.0
    }

    /// The types observed at operand `slot` of instruction `at`.
    pub fn type_dist(&self, at: u32, slot: u8) -> Option<&TypeDist> {
        self.types.get(&(at, slot))
    }

    /// The type observations of one instruction, sorted by slot.
    pub fn types_at(&self, at: u32) -> &[((u32, u8), TypeDist)] {
        self.types.run(at, |&(a, _)| a)
    }

    /// Every receiver-class count, sorted by `(site, class)`.
    pub fn prop_classes(&self) -> &[((u32, ClassId), u64)] {
        &self.prop_classes.0
    }

    /// The dominant callee at a call site, with its share.
    pub fn dominant_target(&self, site: u32) -> Option<(FuncId, f64)> {
        dominant(self.call_targets_at(site))
    }

    /// The dominant receiver class at a property site, with its share.
    pub fn dominant_class(&self, site: u32) -> Option<(ClassId, f64)> {
        dominant(self.prop_classes.run(site, |&(s, _)| s))
    }

    /// Drops the call counts `keep(site, callee)` rejects; returns how many.
    pub fn retain_call_targets(&mut self, mut keep: impl FnMut(u32, FuncId) -> bool) -> usize {
        self.call_targets.retain(|&(s, f)| keep(s, f))
    }

    /// Drops the type observations `keep(at, slot)` rejects; returns how many.
    pub fn retain_types(&mut self, mut keep: impl FnMut(u32, u8) -> bool) -> usize {
        self.types.retain(|&(at, slot)| keep(at, slot))
    }

    /// Drops the receiver-class counts `keep(site, class)` rejects; returns how many.
    pub fn retain_prop_classes(&mut self, mut keep: impl FnMut(u32, ClassId) -> bool) -> usize {
        self.prop_classes.retain(|&(s, c)| keep(s, c))
    }

    /// Renames every callee through `map`; counts of callees that collide
    /// at one site are summed.
    pub fn remap_callees(&mut self, map: impl Fn(FuncId) -> FuncId) {
        self.call_targets.rekey(|(s, f)| (s, map(f)));
    }
}

/// The whole tier-1 profile: one [`FuncProfile`] per profiled function.
/// Property hotness (§V-C) is not a table of its own: each access is
/// recorded once, at its site, in [`FuncProfile::prop_classes`].
#[derive(Clone, Debug, Default)]
pub struct TierProfile {
    /// Per-function profiles (absent = never profiled).
    pub funcs: HashMap<FuncId, FuncProfile>,
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

    /// Invalidates the cached heat ranking. Must be called after any
    /// direct mutation of `funcs` block counters (the stale-profile repair
    /// mutates in place; the collector marks once, in
    /// [`ProfileCollector::finish`]).
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

    /// Functions sorted hottest-first by weighted block counts — the order
    /// the optimizing tier compiles them in.
    pub fn functions_by_heat(&self) -> Vec<FuncId> {
        self.heat_ranked().iter().map(|&(f, _)| f).collect()
    }
}

/// An inline context: the caller and call-site a function was entered from.
pub type InlineCtx = Option<(FuncId, u32)>;

/// Context-sensitive profile from instrumented optimized code (§V-A/B).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CtxProfile {
    // Branch outcomes by (function, branch instruction, inline context):
    // one branch's counters under every context are one run.
    branches: Table<(FuncId, u32, InlineCtx), BranchCount>,
    // Entry counts by (function, inline context) — the accurate,
    // inlining-aware call graph of §V-B.
    entries: Table<(FuncId, InlineCtx), u64>,
}

impl CtxProfile {
    /// A profile from counters in any order; counts under equal keys are
    /// summed.
    pub fn from_counts(
        branches: Vec<((FuncId, u32, InlineCtx), BranchCount)>,
        entries: Vec<((FuncId, InlineCtx), u64)>,
    ) -> CtxProfile {
        let mut ctx = CtxProfile {
            branches: Table(branches),
            entries: Table(entries),
        };
        ctx.branches.normalize();
        ctx.entries.normalize();
        ctx
    }

    /// Records outcomes of the branch at instruction `at` of `func`,
    /// entered under `ctx`.
    pub fn record_branch(&mut self, ctx: InlineCtx, func: FuncId, at: u32, count: &BranchCount) {
        self.branches.add((func, at, ctx), count);
    }

    /// Records `count` entries into `func` under `ctx`.
    pub fn record_entry(&mut self, ctx: InlineCtx, func: FuncId, count: u64) {
        self.entries.add((func, ctx), &count);
    }

    /// Every branch counter, sorted by `(function, instruction, context)`.
    pub fn branches(&self) -> &[((FuncId, u32, InlineCtx), BranchCount)] {
        &self.branches.0
    }

    /// Every entry counter, sorted by `(function, context)`.
    pub fn entries(&self) -> &[((FuncId, InlineCtx), u64)] {
        &self.entries.0
    }

    /// Entries into `func` under `ctx` (0 when never recorded).
    pub fn entry_count(&self, ctx: InlineCtx, func: FuncId) -> u64 {
        self.entries.get(&(func, ctx)).copied().unwrap_or(0)
    }

    /// Taken-probability for a branch under `ctx`, falling back to the
    /// aggregate over all contexts, then to 0.5.
    pub fn taken_prob(&self, ctx: InlineCtx, func: FuncId, at: u32) -> f64 {
        match self.branches.get(&(func, at, ctx)) {
            Some(b) if b.total() > 0 => b.taken_prob(),
            _ => self.aggregate_branch(func, at).taken_prob(),
        }
    }

    /// Branch counts aggregated over every context: one run of the table.
    pub fn aggregate_branch(&self, func: FuncId, at: u32) -> BranchCount {
        let mut total = BranchCount::default();
        for (_, b) in self.branches.run((func, at), |&(f, a, _)| (f, a)) {
            total += b;
        }
        total
    }

    /// Call arcs (caller → callee, weight) for the function-sorting call
    /// graph, read from the context entries — what §V-B's instrumented
    /// optimized code sees. Sorted by `(callee, context)`.
    pub fn call_arcs(&self) -> Vec<(FuncId, FuncId, u64)> {
        self.entries
            .0
            .iter()
            .filter_map(|&((callee, ctx), w)| ctx.map(|(caller, _)| (caller, callee, w)))
            .collect()
    }

    /// Drops the branch counters `keep(ctx, func, at)` rejects; returns how many.
    pub fn retain_branches(
        &mut self,
        mut keep: impl FnMut(InlineCtx, FuncId, u32) -> bool,
    ) -> usize {
        self.branches.retain(|&(f, at, ctx)| keep(ctx, f, at))
    }

    /// Drops the entry counters `keep(ctx, func)` rejects; returns how many.
    pub fn retain_entries(&mut self, mut keep: impl FnMut(InlineCtx, FuncId) -> bool) -> usize {
        self.entries.retain(|&(f, ctx)| keep(ctx, f))
    }

    /// Renames every function — counted ones and inline-context callers —
    /// through `map`; counters whose keys collide are summed.
    pub fn remap_funcs(&mut self, map: impl Fn(FuncId) -> FuncId) {
        let map_ctx = |ctx: InlineCtx| ctx.map(|(caller, site)| (map(caller), site));
        self.branches
            .rekey(|(f, at, ctx)| (map(f), at, map_ctx(ctx)));
        self.entries.rekey(|(f, ctx)| (map(f), map_ctx(ctx)));
    }

    /// Replaces every branch counter of `func`, under any context, with
    /// context-free `counts` given in ascending instruction order.
    pub fn replace_branches(
        &mut self,
        func: FuncId,
        counts: impl IntoIterator<Item = (u32, BranchCount)>,
    ) {
        let run = self.branches.run_range(func, |&(f, _, _)| f);
        self.branches
            .0
            .splice(run, counts.into_iter().map(|(at, c)| ((func, at, None), c)));
        debug_assert!(self.branches.0.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

// Sentinel in `FuncState::site_of`: the instruction has no site yet.
const NO_SITE: u32 = u32::MAX;

// Operand slots a type-observation site counts densely; `vm` observes
// slots 0 and 1 of a binary op.
const SITE_SLOTS: usize = 2;

// Parameters whose types are observed on function entry.
const PARAM_SLOTS: usize = 8;

// Counters of one instruction that reported types or branch outcomes.
#[derive(Default)]
struct Site {
    types: [TypeDist; SITE_SLOTS],
    // Outcomes per inline context, first-seen order: a branch runs under
    // few contexts, so a linear scan beats any search.
    branches: Vec<(InlineCtx, BranchCount)>,
}

// Everything collected for one function, created on its first event.
struct FuncState {
    // Entry and block counts, signature hashes, call targets, receiver
    // classes and the cold type observations (see `on_type_observed`).
    profile: FuncProfile,
    // Whether a tier-1 event reached the function: one that only saw
    // branches has context counters but no `TierProfile` entry.
    in_tier: bool,
    // Parameter types, by parameter index.
    params: Vec<TypeDist>,
    // Per instruction of the function: its index in `sites`, or `NO_SITE`.
    site_of: Vec<u32>,
    sites: Vec<Site>,
}

impl FuncState {
    fn new(repo: &Repo, func: FuncId) -> FuncState {
        let f = repo.func(func);
        let cfg = Cfg::build(f);
        FuncState {
            profile: FuncProfile {
                block_counts: vec![0; cfg.len()],
                block_hashes: cfg.block_hashes(f, repo),
                name_hash: bytecode::fnv_str(repo.str(f.name)),
                block_opcode_hashes: cfg.block_opcode_hashes(f),
                ..FuncProfile::default()
            },
            in_tier: false,
            params: Vec::new(),
            site_of: vec![NO_SITE; f.code.len()],
            sites: Vec::new(),
        }
    }

    // The site of instruction `at`, created on first use; `None` when `at`
    // is not an instruction of the function.
    fn site(&mut self, at: u32) -> Option<&mut Site> {
        let i = self.site_of.get_mut(at as usize)?;
        if *i == NO_SITE {
            *i = self.sites.len() as u32;
            self.sites.push(Site::default());
        }
        Some(&mut self.sites[*i as usize])
    }
}

/// Collects [`TierProfile`] and [`CtxProfile`] while the interpreter runs.
///
/// Implements [`vm::ExecObserver`]; attach with [`vm::Vm::call_observed`],
/// call [`ProfileCollector::end_request`] after each request, and take the
/// profiles with [`ProfileCollector::finish`].
///
/// Counting is dense: per-function state sits in a vector indexed by
/// [`FuncId`], and every type observation and branch reaches its counter
/// through a per-instruction site index, so block, type and branch events
/// (most of them) neither hash nor search. Entries, calls and property
/// accesses add to sorted tables directly. The other tables are built
/// once, by `finish`.
pub struct ProfileCollector<'r> {
    repo: &'r Repo,
    // Per-function state, indexed by `FuncId`.
    funcs: Vec<Option<FuncState>>,
    // Entry counts, and the branches whose `at` is not an instruction of
    // their function.
    ctx: CtxProfile,
    // Call stack: (func, inline ctx of this frame).
    stack: Vec<(FuncId, InlineCtx)>,
    // The call site observed immediately before the next func entry.
    pending_site: InlineCtx,
}

impl<'r> ProfileCollector<'r> {
    /// Creates a collector for programs from `repo`.
    pub fn new(repo: &'r Repo) -> Self {
        let mut funcs = Vec::new();
        funcs.resize_with(repo.funcs().len(), || None);
        Self {
            repo,
            funcs,
            ctx: CtxProfile::default(),
            stack: Vec::new(),
            pending_site: None,
        }
    }

    /// Marks a request boundary: the call stack and the pending call site
    /// start afresh, so no inline context leaks into the next request.
    pub fn end_request(&mut self) {
        self.stack.clear();
        self.pending_site = None;
    }

    /// The collected profiles. Builds every sorted table once, from the
    /// dense per-site counters.
    pub fn finish(self) -> (TierProfile, CtxProfile) {
        let mut tier = TierProfile::default();
        let CtxProfile {
            branches: Table(mut branches),
            entries,
        } = self.ctx;
        for (i, state) in self.funcs.into_iter().enumerate() {
            let Some(mut state) = state else { continue };
            let func = FuncId::new(i as u32);
            for (at, &s) in state.site_of.iter().enumerate() {
                if s == NO_SITE {
                    continue;
                }
                let site = &state.sites[s as usize];
                let at = at as u32;
                for (slot, dist) in site.types.iter().enumerate() {
                    if dist.total() > 0 {
                        state.profile.record_types(at, slot as u8, dist);
                    }
                }
                branches.extend(site.branches.iter().map(|&(ctx, c)| ((func, at, ctx), c)));
            }
            for (slot, dist) in state.params.iter().enumerate() {
                if dist.total() > 0 {
                    state.profile.record_types(PARAM_SITE, slot as u8, dist);
                }
            }
            if state.in_tier {
                tier.funcs.insert(func, state.profile);
            }
        }
        tier.mark_counters_dirty();
        (tier, CtxProfile::from_counts(branches, entries.0))
    }

    fn state(&mut self, func: FuncId) -> &mut FuncState {
        let repo = self.repo;
        self.funcs[func.index()].get_or_insert_with(|| FuncState::new(repo, func))
    }

    // The state of `func` for a tier-1 event.
    fn tier_state(&mut self, func: FuncId) -> &mut FuncState {
        let state = self.state(func);
        state.in_tier = true;
        state
    }
}

impl ExecObserver for ProfileCollector<'_> {
    fn on_func_enter(&mut self, func: FuncId, args: &[Value]) {
        let ctx = self.pending_site.take();
        self.stack.push((func, ctx));
        let state = self.tier_state(func);
        state.profile.enter_count += 1;
        let observed = args.len().min(PARAM_SLOTS);
        if state.params.len() < observed {
            state.params.resize(observed, TypeDist::default());
        }
        for (dist, a) in state.params.iter_mut().zip(args) {
            dist.observe(ValueKind::of(a));
        }
        self.ctx.record_entry(ctx, func, 1);
    }

    fn on_block(&mut self, func: FuncId, block: BlockId) {
        let counts = &mut self.tier_state(func).profile.block_counts;
        if let Some(c) = counts.get_mut(block.index()) {
            *c += 1;
        }
    }

    fn on_branch(&mut self, func: FuncId, at: u32, taken: bool) {
        let ctx = self.stack.last().and_then(|&(_, c)| c);
        let outcome = BranchCount {
            taken: u64::from(taken),
            not_taken: u64::from(!taken),
        };
        let Some(site) = self.state(func).site(at) else {
            self.ctx.record_branch(ctx, func, at, &outcome);
            return;
        };
        match site.branches.iter_mut().find(|(c, _)| *c == ctx) {
            Some((_, count)) => *count += &outcome,
            None => site.branches.push((ctx, outcome)),
        }
    }

    fn on_call(&mut self, caller: FuncId, at: u32, callee: FuncId) {
        self.tier_state(caller).profile.record_call(at, callee, 1);
        self.pending_site = Some((caller, at));
    }

    fn on_prop_access(
        &mut self,
        func: FuncId,
        at: u32,
        class: ClassId,
        _prop: StrId,
        _write: bool,
    ) {
        self.tier_state(func)
            .profile
            .record_prop_class(at, class, 1);
    }

    fn on_type_observed(&mut self, func: FuncId, at: u32, slot: u8, kind: ValueKind) {
        let state = self.tier_state(func);
        if usize::from(slot) < SITE_SLOTS {
            if let Some(site) = state.site(at) {
                site.types[usize::from(slot)].observe(kind);
                return;
            }
        }
        // Not a binary-op operand (a parameter site, a slot past the
        // operands, an `at` past the code): a sorted-table insert.
        state.profile.observe_type(at, slot, kind);
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
        let (tier, _) = col.finish();

        let fp = &tier.funcs[&f];
        assert_eq!(fp.enter_count, 1);
        assert!(fp.block_counts.iter().sum::<u64>() > 10);
        // The one call site saw g ten times.
        let &((site, callee), n) = fp.call_targets().first().unwrap();
        assert_eq!((callee, n), (g, 10));
        assert_eq!(fp.dominant_target(site), Some((g, 1.0)));
        // Parameter type observed as Int.
        let d = fp.type_dist(PARAM_SITE, 0).unwrap();
        assert_eq!(d.is_monomorphic(0.9), Some(ValueKind::Int));

        let gp = &tier.funcs[&g];
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
        let (_, ctx) = col.finish();
        // g entered 8 times under context (f, site).
        let ctx_entries: Vec<_> = ctx
            .entries()
            .iter()
            .filter(|((func, ctx), _)| *func == g && ctx.is_some())
            .collect();
        assert_eq!(ctx_entries.len(), 1);
        assert_eq!(ctx_entries[0].1, 8);
        let arcs = ctx.call_arcs();
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
        let (_, ctx) = col.finish();
        // g's jmpz at instr 1: arg alternates 0,1,... (i%2): taken when 0.
        let p = ctx.taken_prob(None, g, 1);
        assert!((p - 0.5).abs() < 0.01, "alternating branch ~50%, got {p}");
        // f's loop exit branch: taken once out of 11 evaluations.
        let agg = ctx.aggregate_branch(f, 5);
        assert_eq!(agg.taken, 1);
        assert_eq!(agg.not_taken, 10);
    }

    #[test]
    fn taken_prob_prefers_the_exact_context_then_the_aggregate() {
        let (f, g) = (FuncId::new(0), FuncId::new(1));
        let mut ctx = CtxProfile::default();
        let under = |taken, not_taken| BranchCount { taken, not_taken };
        ctx.record_branch(Some((g, 3)), f, 7, &under(9, 1));
        ctx.record_branch(None, f, 7, &under(1, 9));
        ctx.record_branch(Some((g, 4)), f, 7, &under(0, 0));
        // A neighbouring branch must not leak into the run of (f, 7).
        ctx.record_branch(None, f, 8, &under(100, 0));
        assert!((ctx.taken_prob(Some((g, 3)), f, 7) - 0.9).abs() < 1e-12);
        assert!((ctx.taken_prob(None, f, 7) - 0.1).abs() < 1e-12);
        // Unseen or empty contexts fall back to the aggregate, 10 of 20.
        assert!((ctx.taken_prob(Some((g, 4)), f, 7) - 0.5).abs() < 1e-12);
        assert!((ctx.taken_prob(Some((g, 5)), f, 7) - 0.5).abs() < 1e-12);
        assert_eq!(ctx.aggregate_branch(f, 7), under(10, 10));
        assert_eq!(ctx.aggregate_branch(g, 7), BranchCount::default());
        assert_eq!(ctx.taken_prob(None, g, 7), 0.5);
    }

    #[test]
    fn tables_stay_sorted_and_sum_repeated_keys() {
        let (e, f, g) = (FuncId::new(0), FuncId::new(5), FuncId::new(2));
        let mut fp = FuncProfile::default();
        for (site, callee, n) in [(4, f, 1), (1, e, 2), (4, g, 3), (1, e, 5), (4, f, 1)] {
            fp.record_call(site, callee, n);
        }
        assert_eq!(fp.call_targets(), &[((1, e), 7), ((4, g), 3), ((4, f), 2)]);
        assert_eq!(fp.call_targets_at(4), &[((4, g), 3), ((4, f), 2)]);
        assert!(fp.call_targets_at(2).is_empty());
        assert_eq!(fp.dominant_target(4), Some((g, 0.6)));
        // Renaming f to g sums the two counts of site 4.
        fp.remap_callees(|c| if c == f { g } else { c });
        assert_eq!(fp.retain_call_targets(|site, _| site != 1), 1);
        assert_eq!(fp.call_targets(), &[((4, g), 5)]);

        let b = BranchCount::default();
        let mut ctx = CtxProfile::from_counts(
            vec![
                ((f, 4, None), b),
                ((g, 9, None), b),
                ((g, 6, Some((f, 2))), b),
                ((e, 1, None), b),
            ],
            vec![((f, None), 1), ((g, Some((f, 0))), 2), ((f, None), 3)],
        );
        assert_eq!(ctx.entries(), &[((g, Some((f, 0))), 2), ((f, None), 4)]);
        // Every counter of g, under any context, is one run.
        ctx.replace_branches(g, [(3, b), (6, b)]);
        let keys: Vec<_> = ctx.branches().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [(e, 1, None), (g, 3, None), (g, 6, None), (f, 4, None)]
        );
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
        let heat = |tier: &TierProfile, func: FuncId| {
            tier.heat_ranked()
                .iter()
                .find(|&&(x, _)| x == func)
                .map_or(0, |&(_, h)| h)
        };
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        vm.call_observed(f, &[Value::Int(50)], &mut col).unwrap();
        col.end_request();
        let (mut tier, _) = col.finish();
        // Prime the cache: f (the loop) is hotter than g.
        assert_eq!(tier.functions_by_heat(), vec![f, g]);
        let f_heat = heat(&tier, f);
        assert!(f_heat > heat(&tier, g));

        // Direct counter mutation + explicit dirty marker reranks.
        let gp = tier.funcs.get_mut(&g).unwrap();
        for c in gp.block_counts.iter_mut() {
            *c += 10 * f_heat;
        }
        tier.mark_counters_dirty();
        assert_eq!(tier.functions_by_heat(), vec![g, f]);
        assert!(heat(&tier, g) > heat(&tier, f));
    }

    #[test]
    fn functions_by_heat_sorts_descending() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        vm.call_observed(f, &[Value::Int(50)], &mut col).unwrap();
        let order = col.finish().0.functions_by_heat();
        // f executes far more blocks (the loop) than g.
        assert_eq!(order[0], f);
        assert_eq!(order[1], g);
    }

    // The collector before dense sites, kept as the parity oracle: every
    // event is a hash lookup plus a sorted-table insert, and the tables it
    // holds are the profiles.
    struct TableCollector<'r> {
        repo: &'r Repo,
        tier: TierProfile,
        ctx: CtxProfile,
        stack: Vec<(FuncId, InlineCtx)>,
        pending_site: InlineCtx,
    }

    impl<'r> TableCollector<'r> {
        fn new(repo: &'r Repo) -> Self {
            Self {
                repo,
                tier: TierProfile::default(),
                ctx: CtxProfile::default(),
                stack: Vec::new(),
                pending_site: None,
            }
        }

        fn end_request(&mut self) {
            self.stack.clear();
            self.pending_site = None;
        }

        fn func_profile(&mut self, func: FuncId) -> &mut FuncProfile {
            let repo = self.repo;
            self.tier.funcs.entry(func).or_insert_with(|| {
                let f = repo.func(func);
                let cfg = Cfg::build(f);
                FuncProfile {
                    block_counts: vec![0; cfg.len()],
                    block_hashes: cfg.block_hashes(f, repo),
                    name_hash: bytecode::fnv_str(repo.str(f.name)),
                    block_opcode_hashes: cfg.block_opcode_hashes(f),
                    ..FuncProfile::default()
                }
            })
        }
    }

    impl ExecObserver for TableCollector<'_> {
        fn on_func_enter(&mut self, func: FuncId, args: &[Value]) {
            let ctx = self.pending_site.take();
            self.stack.push((func, ctx));
            let p = self.func_profile(func);
            p.enter_count += 1;
            for (i, a) in args.iter().enumerate().take(8) {
                p.observe_type(PARAM_SITE, i as u8, ValueKind::of(a));
            }
            self.ctx.record_entry(ctx, func, 1);
        }

        fn on_block(&mut self, func: FuncId, block: BlockId) {
            if let Some(c) = self.func_profile(func).block_counts.get_mut(block.index()) {
                *c += 1;
            }
        }

        fn on_branch(&mut self, func: FuncId, at: u32, taken: bool) {
            let ctx = self.stack.last().and_then(|&(_, c)| c);
            let outcome = BranchCount {
                taken: u64::from(taken),
                not_taken: u64::from(!taken),
            };
            self.ctx.record_branch(ctx, func, at, &outcome);
        }

        fn on_call(&mut self, caller: FuncId, at: u32, callee: FuncId) {
            self.func_profile(caller).record_call(at, callee, 1);
            self.pending_site = Some((caller, at));
        }

        fn on_prop_access(&mut self, func: FuncId, at: u32, class: ClassId, _: StrId, _w: bool) {
            self.func_profile(func).record_prop_class(at, class, 1);
        }

        fn on_type_observed(&mut self, func: FuncId, at: u32, slot: u8, kind: ValueKind) {
            self.func_profile(func).observe_type(at, slot, kind);
        }

        fn on_func_exit(&mut self, _func: FuncId) {
            self.stack.pop();
        }
    }

    // Forwards every event to both collectors.
    struct Tee<'a, 'r>(&'a mut ProfileCollector<'r>, &'a mut TableCollector<'r>);

    impl ExecObserver for Tee<'_, '_> {
        fn on_func_enter(&mut self, func: FuncId, args: &[Value]) {
            self.0.on_func_enter(func, args);
            self.1.on_func_enter(func, args);
        }

        fn on_block(&mut self, func: FuncId, block: BlockId) {
            self.0.on_block(func, block);
            self.1.on_block(func, block);
        }

        fn on_branch(&mut self, func: FuncId, at: u32, taken: bool) {
            self.0.on_branch(func, at, taken);
            self.1.on_branch(func, at, taken);
        }

        fn on_call(&mut self, caller: FuncId, at: u32, callee: FuncId) {
            self.0.on_call(caller, at, callee);
            self.1.on_call(caller, at, callee);
        }

        fn on_prop_access(&mut self, func: FuncId, at: u32, class: ClassId, prop: StrId, w: bool) {
            self.0.on_prop_access(func, at, class, prop, w);
            self.1.on_prop_access(func, at, class, prop, w);
        }

        fn on_type_observed(&mut self, func: FuncId, at: u32, slot: u8, kind: ValueKind) {
            self.0.on_type_observed(func, at, slot, kind);
            self.1.on_type_observed(func, at, slot, kind);
        }

        fn on_func_exit(&mut self, func: FuncId) {
            self.0.on_func_exit(func);
            self.1.on_func_exit(func);
        }
    }

    #[test]
    fn dense_collector_matches_table_collector_on_generated_traffic() {
        use workload::{generate, AppParams, RequestMix, RequestSampler};
        let cases = [
            (7, 0, 0, 60),
            (11, 1, 2, 40),
            (2027, 2, 3, 80),
            (99, 3, 1, 25),
        ];
        for (seed, region, bucket, requests) in cases {
            let app = generate(&AppParams {
                seed,
                ..AppParams::tiny()
            });
            let mix = RequestMix::new(&app, region, bucket);
            let mut sampler = RequestSampler::new(seed + 1);
            let mut vm = Vm::new(&app.repo);
            let mut dense = ProfileCollector::new(&app.repo);
            let mut oracle = TableCollector::new(&app.repo);
            for _ in 0..requests {
                let (func, arg) = sampler.request(&app, &mix);
                vm.call_observed(func, &[arg], &mut Tee(&mut dense, &mut oracle))
                    .expect("generated requests execute");
                dense.end_request();
                oracle.end_request();
                vm.take_output();
            }
            let (tier, ctx) = dense.finish();
            assert!(tier.profiled_count() > 10 && !ctx.branches().is_empty());
            assert!(tier.funcs.values().any(|p| !p.types().is_empty()));
            assert_eq!(tier, oracle.tier, "tier-1 profile, app seed {seed}");
            assert_eq!(ctx, oracle.ctx, "context profile, app seed {seed}");
            assert_eq!(tier.functions_by_heat(), oracle.tier.functions_by_heat());
        }
    }

    #[test]
    fn observations_outside_the_code_are_recorded_exactly() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        let past = repo.func(f).code.len() as u32;
        let mut dense = ProfileCollector::new(&repo);
        let mut oracle = TableCollector::new(&repo);
        let mut tee = Tee(&mut dense, &mut oracle);
        // Only the first eight parameters are observed.
        let ten: Vec<Value> = (0..10).map(Value::Int).collect();
        tee.on_func_enter(f, &ten);
        tee.on_func_enter(f, &[Value::Null]);
        let observations = [
            (PARAM_SITE, 0, ValueKind::Str),
            (PARAM_SITE, 9, ValueKind::Int),
            (2, 2, ValueKind::Float),
            (2, 200, ValueKind::Null),
            (2, 0, ValueKind::Int),
            (past, 0, ValueKind::Bool),
            (past + 100, 1, ValueKind::Obj),
            (PARAM_SITE - 1, 0, ValueKind::Vec),
        ];
        for (at, slot, kind) in observations {
            tee.on_type_observed(f, at, slot, kind);
            tee.on_type_observed(f, at, slot, kind);
        }
        tee.on_branch(f, past, true);
        tee.on_branch(f, PARAM_SITE, false);
        tee.on_block(f, BlockId(9_999));
        tee.on_call(f, past, g);
        tee.on_prop_access(f, past, ClassId::new(0), StrId::new(0), false);
        // A function that only ever branched has context counters and no
        // tier-1 profile.
        tee.on_branch(g, 1, true);
        dense.end_request();
        oracle.end_request();

        let (tier, ctx) = dense.finish();
        assert_eq!(tier, oracle.tier);
        assert_eq!(ctx, oracle.ctx);
        let fp = &tier.funcs[&f];
        let total = |at, slot| fp.type_dist(at, slot).map(TypeDist::total);
        assert_eq!(total(PARAM_SITE, 0), Some(4));
        assert_eq!(total(PARAM_SITE, 7), Some(1));
        assert_eq!(total(PARAM_SITE, 8), None);
        assert_eq!(total(PARAM_SITE, 9), Some(2));
        assert_eq!(total(2, 200), Some(2));
        assert_eq!(total(past + 100, 1), Some(2));
        assert_eq!(ctx.aggregate_branch(f, past).taken, 1);
        assert_eq!(ctx.aggregate_branch(f, PARAM_SITE).not_taken, 1);
        assert!(!tier.funcs.contains_key(&g));
        assert_eq!(ctx.aggregate_branch(g, 1).taken, 1);
    }
}
