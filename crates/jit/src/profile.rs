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
//! the sort invariant holds by construction. One level up,
//! [`TierProfile::funcs`] is a `BTreeMap`, so iterating the functions is
//! `FuncId` order too: no consumer of a profile sorts its functions.
//!
//! In the simulation both are gathered by one [`ProfileCollector`] driven
//! by the interpreter; production HHVM gathers them in two phases of the
//! seeder workflow (Fig. 3b).

use std::collections::BTreeMap;
use std::ops::{AddAssign, Range};

use bytecode::{BlockId, Cfg, ClassId, FuncId, Instr, Repo, StrId};
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
    /// `block_counts`, from [`bytecode::FuncFacts::block_hashes`]). Lets a
    /// consumer detect a profile collected against a *different* build of
    /// the function and remap counters onto the current CFG (stale-profile
    /// repair).
    pub block_hashes: Vec<u64>,
    /// FNV-1a of the function's *name* at collection time (`0` for legacy
    /// profiles). Function ids renumber wholesale across builds; the name
    /// hash is the build-stable identity the repairer keys on.
    pub name_hash: u64,
    /// Opcode-only block hashes (no immediates), parallel to
    /// `block_counts`; from [`bytecode::FuncFacts::block_opcode_hashes`].
    /// Second and last rung of the stale-matching ladder. The collector
    /// always fills it; it is empty only in a hand-built profile, which
    /// then matches on exact hashes alone and cannot be re-identified
    /// after a rename.
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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TierProfile {
    /// Per-function profiles (absent = never profiled), in `FuncId`
    /// order.
    pub funcs: BTreeMap<FuncId, FuncProfile>,
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

    /// Hottest-first `(function, heat)` ranking, where heat is the summed
    /// block counters, `FuncId` breaking ties.
    pub fn heat_ranked(&self) -> Vec<(FuncId, u64)> {
        let mut v: Vec<(FuncId, u64)> = self
            .funcs
            .iter()
            .map(|(&f, p)| (f, p.block_counts.iter().sum::<u64>()))
            .collect();
        v.sort_by_key(|&(f, heat)| (std::cmp::Reverse(heat), f));
        v
    }

    /// Functions sorted hottest-first by weighted block counts — the order
    /// the optimizing tier compiles them in.
    pub fn functions_by_heat(&self) -> Vec<FuncId> {
        self.heat_ranked().into_iter().map(|(f, _)| f).collect()
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

    /// The branch counters of one function, sorted by `(instruction,
    /// context)`.
    pub fn branches_of(&self, func: FuncId) -> &[((FuncId, u32, InlineCtx), BranchCount)] {
        self.branches.run(func, |&(f, _, _)| f)
    }

    /// Drops the branch counters of `func` that `keep(ctx, at)` rejects;
    /// returns how many.
    pub fn retain_branches_of(
        &mut self,
        func: FuncId,
        mut keep: impl FnMut(InlineCtx, u32) -> bool,
    ) -> usize {
        let run = self.branches.run_range(func, |&(f, _, _)| f);
        let kept: Vec<_> = self.branches.0[run.clone()]
            .iter()
            .filter(|&&((_, at, ctx), _)| keep(ctx, at))
            .cloned()
            .collect();
        let dropped = run.len() - kept.len();
        if dropped > 0 {
            self.branches.0.splice(run, kept);
        }
        dropped
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

// Parameters whose types are observed on function entry.
const PARAM_SLOTS: usize = 8;

// What instruction `at` of a function counts, and where.
#[derive(Clone, Copy)]
enum Site {
    None,
    // A binary op: its operand types at this index of the collector's
    // `bins`.
    Bin(u32),
    // The function's `i`-th conditional branch: its outcomes under a
    // context are `branches[base + i]`, `base` the context's run.
    Branch(u32),
    // A call: targets, and the entries made from it, at this index of the
    // collector's `calls`.
    Call(u32),
}

// Stands for "none yet" in an index field.
const NONE: u32 = u32::MAX;

// The operand types seen at one binary op: two ints, the common case,
// as one count, and everything else in a pair of distributions (an
// index into the collector's `mixed`, `NONE` until the first).
#[derive(Clone, Copy)]
struct BinSite {
    int_pairs: u64,
    mixed: u32,
}

// Counters of one call site.
#[derive(Default)]
struct CallSite {
    // Calls per callee, first-seen order: a site calls few callees, so a
    // linear scan beats any search.
    targets: Vec<(FuncId, u64)>,
    // Entries per callee under this site's inline context, and the run of
    // that context's branch counters in the callee. The counts equal
    // `targets` unless a call failed before its callee was entered.
    entries: Vec<(FuncId, u64, u32)>,
}

// Adds one to `key`'s count in a short first-seen list.
#[inline]
fn bump<K: PartialEq>(counts: &mut Vec<(K, u64)>, key: K) {
    match counts.iter_mut().find(|(k, _)| *k == key) {
        Some((_, n)) => *n += 1,
        None => counts.push((key, 1)),
    }
}

// A run of a collector-wide counter vector: `base..base + len`.
#[derive(Clone, Copy)]
struct Run {
    base: u32,
    len: u32,
}

impl Run {
    // The index of element `i` of the run, if it has one.
    #[inline(always)]
    fn at(self, i: u32) -> Option<usize> {
        (i < self.len).then(|| (self.base + i) as usize)
    }

    fn range(self) -> Range<usize> {
        self.base as usize..(self.base + self.len) as usize
    }
}

// Everything collected for one function that is not a collector-wide
// counter run, created on its first event.
struct FuncState {
    // Entry count, signature hashes, receiver classes and the
    // observations no site holds (see `Site`); `block_counts` is filled
    // from `blocks` when the collector finishes.
    profile: FuncProfile,
    // Whether a tier-1 event reached the function: one that only saw
    // branches has context counters but no `TierProfile` entry.
    in_tier: bool,
    // Parameter types, by parameter index.
    params: Vec<TypeDist>,
    // Entries with no inline context (a request's top frame).
    root_entries: u64,
    // Its sites (one per instruction) and block counters.
    sites: Run,
    blocks: Run,
    // Conditional branches in the code.
    branch_sites: u32,
    // The inline contexts the function ran under, first-seen order, each
    // with the base of its run of `branch_sites` branch counters.
    ctxs: Vec<(InlineCtx, u32)>,
}

// A live frame as the collector sees it, settled on entry: the
// function, its context and where its counters lie.
#[derive(Clone, Copy)]
struct Frame {
    func: FuncId,
    ctx: InlineCtx,
    sites: Run,
    blocks: Run,
    // The base of the context's run of branch counters.
    branches: u32,
}

// Stands for "no frame": no function has this id.
const NO_FRAME: Frame = Frame {
    func: FuncId::new(u32::MAX),
    ctx: None,
    sites: Run { base: 0, len: 0 },
    blocks: Run { base: 0, len: 0 },
    branches: 0,
};

// The call observed immediately before the next function entry: its
// site, and that site's counters when it is a call of its function.
#[derive(Clone, Copy)]
struct PendingCall {
    ctx: (FuncId, u32),
    call: Option<u32>,
}

/// Collects [`TierProfile`] and [`CtxProfile`] while the interpreter runs.
///
/// Implements [`vm::ExecObserver`]; attach with [`vm::Vm::call_observed`],
/// call [`ProfileCollector::end_request`] after each request, and take the
/// profiles with [`ProfileCollector::finish`].
///
/// Counting is dense: each binary op, conditional branch and call has a
/// site, and each block a counter, laid out in collector-wide vectors
/// when its function is first seen; a function's branch counters get a
/// run per inline context, laid out when the context is first seen. Each
/// function entry settles, once, where the callee's sites, block
/// counters and its context's branch counters lie, and keeps that on the
/// collector's frame stack. A block, operand-type or branch event of the
/// top frame's function is then an indexed increment, and a call adds to
/// its site's short list of callees; none of them hashes, searches a
/// table, scans contexts or, once a site has seen its callees,
/// allocates. An entry finds its call site, and the callee's context,
/// through the caller's call event. Both operand types of a binary op
/// arrive in one [`ExecObserver::on_bin_types`] and find their site
/// once; two ints, the common case, are one count. An event for any
/// other function (an observer called directly may report one) finds
/// its function's state by id, and property accesses and an event at an
/// instruction of another kind add to sorted tables directly. `finish`
/// builds every other table once.
pub struct ProfileCollector<'r> {
    repo: &'r Repo,
    // Per-function state, first-seen order.
    states: Vec<FuncState>,
    // Index into `states` per `FuncId`; `NONE` before the first event.
    state_of: Vec<u32>,
    // The collector-wide counters, a run per function (per context, for
    // branches), laid out on first use.
    sites: Vec<Site>,
    blocks: Vec<u64>,
    bins: Vec<BinSite>,
    // The operand distributions of the binary ops that saw anything but
    // two ints.
    mixed: Vec<[TypeDist; 2]>,
    branches: Vec<BranchCount>,
    calls: Vec<CallSite>,
    // The branches and entries whose site is not a conditional branch or
    // a call of their function.
    ctx: CtxProfile,
    // The top frame (`NO_FRAME` when none), and the frames below it.
    top: Frame,
    frames: Vec<Frame>,
    pending: Option<PendingCall>,
}

impl<'r> ProfileCollector<'r> {
    /// Creates a collector for programs from `repo`.
    pub fn new(repo: &'r Repo) -> Self {
        Self {
            repo,
            states: Vec::new(),
            state_of: vec![NONE; repo.funcs().len()],
            sites: Vec::new(),
            blocks: Vec::new(),
            bins: Vec::new(),
            mixed: Vec::new(),
            branches: Vec::new(),
            calls: Vec::new(),
            ctx: CtxProfile::default(),
            top: NO_FRAME,
            frames: Vec::new(),
            pending: None,
        }
    }

    /// Marks a request boundary: the call stack and the pending call site
    /// start afresh, so no inline context leaks into the next request.
    pub fn end_request(&mut self) {
        self.top = NO_FRAME;
        self.frames.clear();
        self.pending = None;
    }

    /// The collected profiles. Builds every sorted table once, from the
    /// dense per-site counters.
    pub fn finish(self) -> (TierProfile, CtxProfile) {
        let mut tier = TierProfile::default();
        let CtxProfile {
            branches: Table(mut branches),
            entries: Table(mut entries),
        } = self.ctx;
        let mut states: Vec<Option<FuncState>> = self.states.into_iter().map(Some).collect();
        for (i, &s) in self.state_of.iter().enumerate() {
            let Some(mut state) = states.get_mut(s as usize).and_then(Option::take) else {
                continue;
            };
            let func = FuncId::new(i as u32);
            let profile = &mut state.profile;
            profile.block_counts = self.blocks[state.blocks.range()].to_vec();
            // Operand and parameter types come out in key order: when no
            // observation went to the table directly they are the table.
            let mut types = Vec::new();
            for (at, &site) in self.sites[state.sites.range()].iter().enumerate() {
                let at = at as u32;
                match site {
                    Site::None => {}
                    Site::Bin(s) => {
                        let site = self.bins[s as usize];
                        let mut pair = match site.mixed {
                            NONE => [TypeDist::default(); 2],
                            m => self.mixed[m as usize],
                        };
                        for (slot, dist) in pair.iter_mut().enumerate() {
                            dist.add_raw(ValueKind::Int, site.int_pairs);
                            if dist.total() > 0 {
                                types.push(((at, slot as u8), *dist));
                            }
                        }
                    }
                    Site::Branch(s) => {
                        for &(ctx, base) in &state.ctxs {
                            let c = self.branches[(base + s) as usize];
                            if c.total() > 0 {
                                branches.push(((func, at, ctx), c));
                            }
                        }
                    }
                    Site::Call(s) => {
                        let site = &self.calls[s as usize];
                        for &(callee, n) in &site.targets {
                            profile.record_call(at, callee, n);
                        }
                        let ctx = Some((func, at));
                        entries.extend(site.entries.iter().map(|&(f, n, _)| ((f, ctx), n)));
                    }
                }
            }
            if state.root_entries > 0 {
                entries.push(((func, None), state.root_entries));
            }
            for (slot, dist) in state.params.iter().enumerate() {
                if dist.total() > 0 {
                    types.push(((PARAM_SITE, slot as u8), *dist));
                }
            }
            if profile.types.0.is_empty() {
                profile.types = Table(types);
            } else {
                for ((at, slot), dist) in &types {
                    profile.record_types(*at, *slot, dist);
                }
            }
            if state.in_tier {
                tier.funcs.insert(func, state.profile);
            }
        }
        (tier, CtxProfile::from_counts(branches, entries))
    }

    // The index of `func`'s state, laid out on its first event.
    #[inline]
    fn state_index(&mut self, func: FuncId) -> u32 {
        match self.state_of[func.index()] {
            NONE => self.lay_out(func),
            s => s,
        }
    }

    // Builds `func`'s state and lays out its sites and block counters.
    #[inline(never)]
    fn lay_out(&mut self, func: FuncId) -> u32 {
        let facts = self.repo.facts(func);
        let code = &self.repo.func(func).code;
        let sites = Run {
            base: self.sites.len() as u32,
            len: code.len() as u32,
        };
        let blocks = Run {
            base: self.blocks.len() as u32,
            len: facts.cfg.len() as u32,
        };
        self.blocks.resize(self.blocks.len() + facts.cfg.len(), 0);
        let mut branch_sites = 0;
        for instr in code {
            let site = match instr {
                Instr::Bin(_) => {
                    self.bins.push(BinSite {
                        int_pairs: 0,
                        mixed: NONE,
                    });
                    Site::Bin(self.bins.len() as u32 - 1)
                }
                Instr::JmpZ(_) | Instr::JmpNZ(_) => {
                    branch_sites += 1;
                    Site::Branch(branch_sites - 1)
                }
                Instr::Call { .. } | Instr::CallMethod { .. } => {
                    self.calls.push(CallSite::default());
                    Site::Call(self.calls.len() as u32 - 1)
                }
                _ => Site::None,
            };
            self.sites.push(site);
        }
        self.states.push(FuncState {
            profile: FuncProfile {
                block_hashes: facts.block_hashes.clone(),
                name_hash: facts.name_hash,
                block_opcode_hashes: facts.block_opcode_hashes.clone(),
                ..FuncProfile::default()
            },
            in_tier: false,
            params: Vec::new(),
            root_entries: 0,
            sites,
            blocks,
            branch_sites,
            ctxs: Vec::new(),
        });
        let s = self.states.len() as u32 - 1;
        self.state_of[func.index()] = s;
        s
    }

    // The base of the branch counters of state `s` under `ctx`, laid out
    // when the context is first seen.
    fn ctx_branches(&mut self, s: u32, ctx: InlineCtx) -> u32 {
        let state = &mut self.states[s as usize];
        if let Some(&(_, base)) = state.ctxs.iter().find(|(c, _)| *c == ctx) {
            return base;
        }
        let base = self.branches.len() as u32;
        state.ctxs.push((ctx, base));
        let len = self.branches.len() + state.branch_sites as usize;
        self.branches.resize(len, BranchCount::default());
        base
    }

    // The state of `func` for a tier-1 event.
    fn tier_state(&mut self, func: FuncId) -> u32 {
        let s = self.state_index(func);
        self.states[s as usize].in_tier = true;
        s
    }

    // Instruction `at`'s site in state `s`.
    fn site(&self, s: u32, at: u32) -> Site {
        self.states[s as usize]
            .sites
            .at(at)
            .map_or(Site::None, |i| self.sites[i])
    }

    // The top frame's site at `at`, when the event is the top frame's.
    #[inline(always)]
    fn top_site(&self, func: FuncId, at: u32) -> Site {
        match self.top.sites.at(at) {
            Some(i) if func == self.top.func => self.sites[i],
            _ => Site::None,
        }
    }

    // The branch counters of the context of an entry into state `s` from
    // `pending`, counting the entry against its call site or table.
    fn settle_entry(&mut self, func: FuncId, s: u32, pending: Option<PendingCall>) -> u32 {
        let Some(PendingCall { ctx, call }) = pending else {
            self.states[s as usize].root_entries += 1;
            return self.ctx_branches(s, None);
        };
        let Some(call) = call else {
            self.ctx.record_entry(Some(ctx), func, 1);
            return self.ctx_branches(s, Some(ctx));
        };
        let site = &mut self.calls[call as usize];
        if let Some((_, n, base)) = site.entries.iter_mut().find(|(f, ..)| *f == func) {
            *n += 1;
            return *base;
        }
        let base = self.ctx_branches(s, Some(ctx));
        self.calls[call as usize].entries.push((func, 1, base));
        base
    }

    // The operand distributions of binary op `i`, laid out on first use.
    fn mixed(&mut self, i: u32) -> &mut [TypeDist; 2] {
        let site = &mut self.bins[i as usize];
        if site.mixed == NONE {
            site.mixed = self.mixed.len() as u32;
            self.mixed.push([TypeDist::default(); 2]);
        }
        &mut self.mixed[site.mixed as usize]
    }

    // Counts operand types `a` and `b` at binary op `i`.
    #[cold]
    #[inline(never)]
    fn observe_bin(&mut self, i: u32, a: ValueKind, b: ValueKind) {
        if (a, b) == (ValueKind::Int, ValueKind::Int) {
            self.bins[i as usize].int_pairs += 1;
        } else {
            let [left, right] = self.mixed(i);
            left.observe(a);
            right.observe(b);
        }
    }

    // The events of a function other than the top frame's, and those at
    // an instruction of another kind: found by id, counted in full.

    #[cold]
    #[inline(never)]
    fn block_by_id(&mut self, func: FuncId, block: BlockId) {
        let s = self.tier_state(func);
        if let Some(i) = self.states[s as usize].blocks.at(block.0) {
            self.blocks[i] += 1;
        }
    }

    #[cold]
    #[inline(never)]
    fn branch_by_id(&mut self, func: FuncId, at: u32, taken: bool) {
        let ctx = self.top.ctx;
        let s = self.state_index(func);
        let outcome = BranchCount {
            taken: u64::from(taken),
            not_taken: u64::from(!taken),
        };
        match self.site(s, at) {
            Site::Branch(i) => {
                let base = self.ctx_branches(s, ctx);
                self.branches[(base + i) as usize] += &outcome;
            }
            _ => self.ctx.record_branch(ctx, func, at, &outcome),
        }
    }

    #[cold]
    #[inline(never)]
    fn call_by_id(&mut self, caller: FuncId, at: u32, callee: FuncId) {
        let s = self.tier_state(caller);
        let call = match self.site(s, at) {
            Site::Call(i) => {
                bump(&mut self.calls[i as usize].targets, callee);
                Some(i)
            }
            _ => {
                let profile = &mut self.states[s as usize].profile;
                profile.record_call(at, callee, 1);
                None
            }
        };
        self.pending = Some(PendingCall {
            ctx: (caller, at),
            call,
        });
    }

    #[cold]
    #[inline(never)]
    fn bin_types_by_id(&mut self, func: FuncId, at: u32, a: ValueKind, b: ValueKind) {
        let s = self.tier_state(func);
        match self.site(s, at) {
            Site::Bin(i) => self.observe_bin(i, a, b),
            _ => {
                let profile = &mut self.states[s as usize].profile;
                profile.observe_type(at, 0, a);
                profile.observe_type(at, 1, b);
            }
        }
    }

    #[inline(never)]
    fn enter(&mut self, func: FuncId, args: &[Value]) {
        let pending = self.pending.take();
        let s = self.state_index(func);
        let branches = self.settle_entry(func, s, pending);
        let state = &mut self.states[s as usize];
        let frame = Frame {
            func,
            ctx: pending.map(|p| p.ctx),
            sites: state.sites,
            blocks: state.blocks,
            branches,
        };
        self.frames.push(std::mem::replace(&mut self.top, frame));
        state.in_tier = true;
        state.profile.enter_count += 1;
        let observed = args.len().min(PARAM_SLOTS);
        if state.params.len() < observed {
            state.params.resize(observed, TypeDist::default());
        }
        for (dist, a) in state.params.iter_mut().zip(args) {
            dist.observe(ValueKind::of(a));
        }
    }
}

impl ExecObserver for ProfileCollector<'_> {
    #[inline]
    fn on_func_enter(&mut self, func: FuncId, args: &[Value]) {
        self.enter(func, args);
    }

    #[inline]
    fn on_block(&mut self, func: FuncId, block: BlockId) {
        match self.top.blocks.at(block.0) {
            Some(i) if func == self.top.func => self.blocks[i] += 1,
            _ => self.block_by_id(func, block),
        }
    }

    #[inline]
    fn on_branch(&mut self, func: FuncId, at: u32, taken: bool) {
        match self.top_site(func, at) {
            Site::Branch(i) => {
                let count = &mut self.branches[(self.top.branches + i) as usize];
                count.taken += u64::from(taken);
                count.not_taken += u64::from(!taken);
            }
            _ => self.branch_by_id(func, at, taken),
        }
    }

    #[inline]
    fn on_call(&mut self, caller: FuncId, at: u32, callee: FuncId) {
        match self.top_site(caller, at) {
            Site::Call(i) => {
                bump(&mut self.calls[i as usize].targets, callee);
                self.pending = Some(PendingCall {
                    ctx: (caller, at),
                    call: Some(i),
                });
            }
            _ => self.call_by_id(caller, at, callee),
        }
    }

    #[inline]
    fn on_prop_access(
        &mut self,
        func: FuncId,
        at: u32,
        class: ClassId,
        _prop: StrId,
        _write: bool,
    ) {
        let s = self.tier_state(func);
        self.states[s as usize]
            .profile
            .record_prop_class(at, class, 1);
    }

    #[inline]
    fn on_type_observed(&mut self, func: FuncId, at: u32, slot: u8, kind: ValueKind) {
        let s = self.tier_state(func);
        match self.site(s, at) {
            Site::Bin(i) if usize::from(slot) < 2 => {
                self.mixed(i)[usize::from(slot)].observe(kind);
            }
            // Not a binary-op operand (a parameter site, a slot past the
            // operands, any other instruction, an `at` past the code): a
            // sorted-table insert.
            _ => self.states[s as usize].profile.observe_type(at, slot, kind),
        }
    }

    #[inline]
    fn on_bin_types(&mut self, func: FuncId, at: u32, a: ValueKind, b: ValueKind) {
        match self.top_site(func, at) {
            Site::Bin(i) if (a, b) == (ValueKind::Int, ValueKind::Int) => {
                self.bins[i as usize].int_pairs += 1;
            }
            Site::Bin(i) => self.observe_bin(i, a, b),
            _ => self.bin_types_by_id(func, at, a, b),
        }
    }

    #[inline]
    fn on_func_exit(&mut self, _func: FuncId) {
        self.top = self.frames.pop().unwrap_or(NO_FRAME);
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
    fn heat_ranking_follows_counter_edits() {
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
        // f (the loop) is hotter than g.
        assert_eq!(tier.functions_by_heat(), vec![f, g]);
        let f_heat = heat(&tier, f);
        assert!(f_heat > heat(&tier, g));

        // A direct counter edit reranks, with no call in between.
        let gp = tier.funcs.get_mut(&g).unwrap();
        for c in gp.block_counts.iter_mut() {
            *c += 10 * f_heat;
        }
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
                let facts = repo.facts(func);
                FuncProfile {
                    block_counts: vec![0; facts.cfg.len()],
                    block_hashes: facts.block_hashes.clone(),
                    name_hash: facts.name_hash,
                    block_opcode_hashes: facts.block_opcode_hashes.clone(),
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

        fn on_bin_types(&mut self, func: FuncId, at: u32, a: ValueKind, b: ValueKind) {
            self.0.on_bin_types(func, at, a, b);
            self.1.on_bin_types(func, at, a, b);
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

    // The profiles of both collectors, checked equal.
    fn assert_same(
        dense: ProfileCollector<'_>,
        oracle: TableCollector<'_>,
    ) -> (TierProfile, CtxProfile) {
        let (tier, ctx) = dense.finish();
        assert_eq!(tier, oracle.tier, "tier-1 profile");
        assert_eq!(ctx, oracle.ctx, "context profile");
        (tier, ctx)
    }

    // rec(n): n == 0 ? 0 : rec(n - 1), called from two sites of
    // twice(n): every frame of rec below the first runs under rec's own
    // call site, the first under one of twice's.
    fn recursive_repo() -> Repo {
        use bytecode::{BinOp, FuncBuilder, Instr, RepoBuilder};
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("r.hl");
        let rec = FuncId::new(0);
        let mut r = FuncBuilder::new("rec", 1);
        let base = r.new_label();
        r.emit(Instr::GetL(0));
        r.emit_jmp_z(base);
        r.emit(Instr::GetL(0));
        r.emit(Instr::Int(1));
        r.emit(Instr::Bin(BinOp::Sub));
        r.emit_raw(Instr::Call { func: rec, argc: 1 });
        r.emit(Instr::Ret);
        r.bind(base);
        r.emit(Instr::Int(0));
        r.emit(Instr::Ret);
        assert_eq!(b.define_func(u, r), rec);
        let mut t = FuncBuilder::new("twice", 1);
        t.emit(Instr::GetL(0));
        t.emit_raw(Instr::Call { func: rec, argc: 1 });
        t.emit(Instr::GetL(0));
        t.emit(Instr::Int(2));
        t.emit(Instr::Bin(BinOp::Add));
        t.emit_raw(Instr::Call { func: rec, argc: 1 });
        t.emit(Instr::Bin(BinOp::Add));
        t.emit(Instr::Ret);
        b.define_func(u, t);
        b.finish()
    }

    #[test]
    fn recursion_counts_each_frame_under_its_own_context() {
        let repo = recursive_repo();
        let (rec, twice) = (FuncId::new(0), FuncId::new(1));
        let mut vm = Vm::new(&repo);
        let mut dense = ProfileCollector::new(&repo);
        let mut oracle = TableCollector::new(&repo);
        for n in [0, 3, 1, 4] {
            vm.call_observed(twice, &[Value::Int(n)], &mut Tee(&mut dense, &mut oracle))
                .unwrap();
            dense.end_request();
            oracle.end_request();
        }
        // rec as a request of its own: its root context.
        vm.call_observed(rec, &[Value::Int(2)], &mut Tee(&mut dense, &mut oracle))
            .unwrap();
        let (_, ctx) = assert_same(dense, oracle);
        let contexts: Vec<InlineCtx> = ctx
            .branches_of(rec)
            .iter()
            .map(|&((_, _, c), _)| c)
            .collect();
        assert_eq!(
            contexts,
            [None, Some((rec, 5)), Some((twice, 1)), Some((twice, 5))]
        );
        // Under its own site rec branched once per frame below the
        // first: rec(m) has m of them, for m = n and n + 2 of each twice(n),
        // and 2 below the root rec(2).
        let under_rec = ctx.branches_of(rec)[1].1;
        assert_eq!(under_rec.total(), (2 + 8 + 4 + 10) + 2);
        // Of those only rec(0) takes the branch, once per call that
        // recursed at all: every one but twice(0)'s rec(0).
        assert_eq!(under_rec.taken, 8);
    }

    #[test]
    fn events_of_a_function_below_the_top_frame_count_as_its_own() {
        let repo = sample_repo();
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        let mut dense = ProfileCollector::new(&repo);
        let mut oracle = TableCollector::new(&repo);
        let mut tee = Tee(&mut dense, &mut oracle);
        tee.on_func_enter(f, &[Value::Int(4)]);
        tee.on_call(f, 11, g);
        tee.on_func_enter(g, &[Value::Int(1)]);
        // f is below the top frame (g): its block, operand, branch and call
        // events, and g's entry from a call f reported while g was on top.
        tee.on_block(f, BlockId(1));
        tee.on_bin_types(f, 4, ValueKind::Int, ValueKind::Str);
        tee.on_type_observed(f, 4, 1, ValueKind::Null);
        tee.on_branch(f, 5, true);
        tee.on_branch(f, 5, false);
        tee.on_call(f, 11, g);
        tee.on_func_enter(g, &[Value::Int(0)]);
        tee.on_branch(g, 1, true);
        tee.on_func_exit(g);
        // g's own events while it is on top again, then an unknown block.
        tee.on_block(g, BlockId(0));
        tee.on_branch(g, 1, false);
        tee.on_block(g, BlockId(9_999));
        tee.on_func_exit(g);
        tee.on_branch(f, 5, false);
        tee.on_func_exit(f);
        // No frame at all.
        tee.on_block(g, BlockId(1));
        tee.on_branch(g, 1, true);
        tee.on_func_exit(g);
        dense.end_request();
        oracle.end_request();
        let (tier, ctx) = assert_same(dense, oracle);
        assert_eq!(tier.funcs[&g].enter_count, 2);
        assert_eq!(ctx.aggregate_branch(f, 5).total(), 3);
        assert_eq!(ctx.entry_count(Some((f, 11)), g), 2);
    }

    #[test]
    fn a_request_that_failed_mid_call_leaves_no_frame_behind() {
        use bytecode::{BinOp, FuncBuilder, Instr, RepoBuilder};
        // outer(x): inner(x) + 1, inner(x): 10 / x, so x = 0 fails two
        // frames deep, after both entered and before either exited.
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("e.hl");
        let inner = FuncId::new(0);
        let mut i = FuncBuilder::new("inner", 1);
        let skip = i.new_label();
        i.emit(Instr::GetL(0));
        i.emit_jmp_nz(skip);
        i.bind(skip);
        i.emit(Instr::Int(10));
        i.emit(Instr::GetL(0));
        i.emit(Instr::Bin(BinOp::Div));
        i.emit(Instr::Ret);
        assert_eq!(b.define_func(u, i), inner);
        let mut o = FuncBuilder::new("outer", 1);
        o.emit(Instr::GetL(0));
        o.emit_raw(Instr::Call {
            func: inner,
            argc: 1,
        });
        o.emit(Instr::Int(1));
        o.emit(Instr::Bin(BinOp::Add));
        o.emit(Instr::Ret);
        let outer = b.define_func(u, o);
        let repo = b.finish();
        let mut vm = Vm::new(&repo);
        let mut dense = ProfileCollector::new(&repo);
        let mut oracle = TableCollector::new(&repo);
        for x in [5, 0, 2, 0, 0, 1] {
            let mut tee = Tee(&mut dense, &mut oracle);
            let r = vm.call_observed(outer, &[Value::Int(x)], &mut tee);
            assert_eq!(r.is_err(), x == 0);
            dense.end_request();
            oracle.end_request();
            // The next request's inner is entered under outer's site, and
            // branches there, as after a clean request.
            vm.call_observed(inner, &[Value::Int(3)], &mut Tee(&mut dense, &mut oracle))
                .unwrap();
            dense.end_request();
            oracle.end_request();
        }
        let (tier, ctx) = assert_same(dense, oracle);
        assert_eq!(tier.funcs[&inner].enter_count, 12);
        assert_eq!(ctx.entry_count(None, inner), 6);
        assert_eq!(ctx.aggregate_branch(inner, 1).total(), 12);
    }

    #[test]
    fn fuel_running_out_inside_a_fused_group_is_counted_as_executed() {
        use workload::{generate, AppParams, RequestMix, RequestSampler};
        let app = generate(&AppParams {
            seed: 5,
            ..AppParams::tiny()
        });
        let mix = RequestMix::new(&app, 0, 1);
        let mut sampler = RequestSampler::new(6);
        let mut dense = ProfileCollector::new(&app.repo);
        let mut oracle = TableCollector::new(&app.repo);
        let mut ran_out = 0;
        // Each budget stops a request somewhere else in its window, in
        // and between fused groups alike.
        for fuel in 1..160u64 {
            let options = vm::VmOptions {
                fuel,
                ..vm::VmOptions::default()
            };
            let mut vm = Vm::with_options(&app.repo, options);
            let (func, arg) = sampler.request(&app, &mix);
            let r = vm.call_observed(func, &[arg], &mut Tee(&mut dense, &mut oracle));
            ran_out += usize::from(r == Err(vm::VmError::FuelExhausted));
            dense.end_request();
            oracle.end_request();
        }
        assert!(ran_out > 100, "{ran_out} requests ran out of fuel");
        let (tier, ctx) = assert_same(dense, oracle);
        assert!(tier.profiled_count() > 5 && !ctx.branches().is_empty());
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
