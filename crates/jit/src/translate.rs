//! Bytecode → Vasm lowering for the three translation kinds.
//!
//! The *optimized* translation applies the profile-guided machinery of
//! paper §II-A: entry type guards, operand type specialization, property
//! slot specialization, and depth-1 inlining at monomorphic call sites.
//!
//! Each Vasm block carries **two** weight views:
//!
//! * `est_*` — what the layout optimizations see. With
//!   [`WeightSource::TierOnly`] (no Jump-Start), branch probabilities are
//!   *inferred from bytecode block counters* (tier-1 has no edge counts)
//!   and inlined bodies get the callee's *average* behavior scaled by call
//!   ratio (tier-1 does no inlining) — both inaccuracies the paper calls
//!   out in §V-A/§V-B. With [`WeightSource::Accurate`] (Jump-Start), the
//!   seeder's instrumented optimized code supplies exact, context-sensitive
//!   branch counts.
//! * `true_*` — ground truth, used only by the replay executor.

use std::sync::{Arc, OnceLock};

use bytecode::{BlockId, ClassId, FuncId, Instr, Repo, StrId};
use vm::ValueKind;

use crate::profile::{CtxProfile, FuncProfile, InlineCtx, TierProfile, PARAM_SITE};
use crate::vasm::{Term, VBlock, VInstr, VasmUnit};

/// Where layout weights come from (the §V-A knob).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WeightSource {
    /// Tier-1 bytecode counters only (no Jump-Start).
    TierOnly,
    /// Context-sensitive Vasm-level counters from instrumented optimized
    /// code (Jump-Start seeders).
    Accurate,
}

/// Inlining policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InlineParams {
    /// Master switch.
    pub enabled: bool,
    /// Maximum callee size in bytecode instructions.
    pub max_callee_instrs: usize,
    /// Minimum share of the dominant target at a dynamic site.
    pub min_target_share: f64,
}

impl Default for InlineParams {
    fn default() -> Self {
        Self {
            enabled: true,
            max_callee_instrs: 96,
            min_target_share: 0.95,
        }
    }
}

/// Threshold above which an operand type is considered monomorphic.
const MONO: f64 = 0.95;

/// A relocatable, site-independent translation of an inlinable callee
/// body, produced once per callee and spliced (with per-site weight
/// rescaling and branch-probability patching) at every inline site.
///
/// Everything in an inlined body except block weights and branch
/// probabilities is independent of the call site: `should_inline` rejects
/// nested inlining (`depth > 0`), so the body's instruction selection,
/// specialization and slot resolution depend only on the callee's own
/// profile. The template stores terminator targets as *template-local*
/// indices and the unscaled tier-1 block counters, so splicing is a pure
/// rebase + rescale: one copy of the body's instruction arena, plus one
/// rebased header per block.
#[derive(Clone, Debug)]
pub struct InlineTemplate {
    /// The translated body; `Term` targets and instruction spans are
    /// template-local, and its returns are still `Term::Ret` (lowered
    /// without a `RetOp`, as every inlined return is). Branch
    /// probabilities carry the TierOnly (site-independent) estimates and
    /// aggregate truth, both patched per site when spliced.
    pub body: VasmUnit,
    /// Per-block unscaled tier-1 block counter (0 for synthetic blocks
    /// such as the side-exit funnel).
    pub raw_weights: Vec<u64>,
    /// `(template block index, bytecode instruction index)` of every
    /// conditional branch, for per-site probability patching.
    pub branch_sites: Vec<(usize, u32)>,
    /// Whether the callee had tier-1 block counters (otherwise all spliced
    /// weights are 0, matching direct translation).
    pub profiled: bool,
}

/// Cache key for one memoized inline-body template.
///
/// The template contents are actually weight-mode independent (the mode
/// only affects the per-site patching done at splice time), but keying by
/// mode keeps a shared cache trivially correct if boots with different
/// weight sources ever share one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TemplateKey {
    /// The inlined callee.
    pub callee: FuncId,
    /// Weight mode of the translation requesting the template.
    pub weights: WeightSource,
}

/// A provider of memoized [`InlineTemplate`]s, shared across translation
/// worker threads. `get_or_build` returns the cached template for `key`
/// or invokes `build` (exactly once per key for well-behaved caches) and
/// caches the result.
pub trait TemplateSource: Sync {
    /// Looks up `key`, building and inserting on a miss.
    fn get_or_build(
        &self,
        key: TemplateKey,
        build: &mut dyn FnMut() -> InlineTemplate,
    ) -> Arc<InlineTemplate>;
}

/// Lazily-initialized empty profile for callees the tier never saw —
/// avoids allocating a fresh `FuncProfile` per inline site.
fn empty_func_profile() -> &'static FuncProfile {
    static CELL: OnceLock<FuncProfile> = OnceLock::new();
    CELL.get_or_init(FuncProfile::default)
}

/// Produces the optimized translation of `func`.
///
/// `slot_resolver` maps (class, property name) to the physical slot under
/// the currently-installed property layout — translation must therefore run
/// *after* property orders are installed, exactly like HHVM's consumer
/// workflow (Fig. 3c).
pub fn translate_optimized(
    repo: &Repo,
    func: FuncId,
    tier: &TierProfile,
    ctx_profile: &CtxProfile,
    weights: WeightSource,
    inline: InlineParams,
    slot_resolver: &dyn Fn(ClassId, StrId) -> Option<u16>,
) -> VasmUnit {
    translate_optimized_with(
        repo,
        func,
        tier,
        ctx_profile,
        weights,
        inline,
        slot_resolver,
        None,
    )
}

/// [`translate_optimized`] with an optional memoized inline-body template
/// cache. With `templates: Some(..)` each inlinable callee is translated
/// once per cache lifetime and spliced per site; the output is guaranteed
/// identical to the uncached translation.
#[allow(clippy::too_many_arguments)]
pub fn translate_optimized_with(
    repo: &Repo,
    func: FuncId,
    tier: &TierProfile,
    ctx_profile: &CtxProfile,
    weights: WeightSource,
    inline: InlineParams,
    slot_resolver: &dyn Fn(ClassId, StrId) -> Option<u16>,
    templates: Option<&dyn TemplateSource>,
) -> VasmUnit {
    let _span = telemetry::span!("translate-optimized", "func" => func.index());
    let mut tr = Translator {
        repo,
        tier,
        ctx_profile,
        weights,
        inline,
        slot_resolver,
        unit: VasmUnit::new(func),
        kind: Kind::Optimized,
        depth: 0,
        templates,
        branch_sites: Vec::new(),
    };
    let fp = tier
        .funcs
        .get(&func)
        .unwrap_or_else(|| empty_func_profile());
    let entry_weight = fp.enter_count;
    tr.translate_function(func, fp, None, 1.0, true);
    let mut unit = tr.unit;
    // Block weights derive from the entry count flowed through the branch
    // probabilities of the chosen weight source — so TierOnly and Accurate
    // weights differ exactly where their probability estimates differ.
    let weights_span = telemetry::span!("est-weights");
    propagate_est_weights(&mut unit, entry_weight);
    drop(weights_span);
    // The unit lives as long as the code cache that emits it: drop the
    // arena's regrowth slack.
    unit.blocks.shrink_to_fit();
    unit.instrs.shrink_to_fit();
    unit
}

/// Recomputes every block's `est_weight` by propagating `entry_weight`
/// through the `est_taken_prob` branch estimates (relaxation handles
/// loops). At most 12 passes; a pass whose output bit-equals its input is
/// a fixed point, so every later pass would repeat it and the loop stops
/// (an acyclic unit gets there after its depth plus one).
fn propagate_est_weights(unit: &mut VasmUnit, entry_weight: u64) {
    let n = unit.blocks.len();
    let mut w = vec![0f64; n];
    let mut next = vec![0f64; n];
    for _ in 0..12 {
        next.fill(0.0);
        next[0] = entry_weight as f64;
        for (i, out) in w.iter().copied().enumerate() {
            match unit.blocks[i].term {
                Term::Jump(t) => next[t] += out,
                Term::Cond { taken, fall } => {
                    let p = unit.blocks[i].est_taken_prob;
                    next[taken] += out * p;
                    next[fall] += out * (1.0 - p);
                }
                Term::Ret | Term::Exit => {}
            }
        }
        let settled = w.iter().zip(&next).all(|(a, b)| a.to_bits() == b.to_bits());
        std::mem::swap(&mut w, &mut next);
        if settled {
            break;
        }
    }
    // Fixed-point scale keeps low-traffic functions' blocks from rounding
    // to zero (which would spuriously mark them cold).
    for (i, b) in unit.blocks.iter_mut().enumerate() {
        b.est_weight = (w[i] * 1024.0).round() as u64;
    }
}

/// Produces a live (tracelet-style) translation: no guards, generic ops,
/// no inlining. `ctx_profile` supplies ground-truth branch behavior for
/// the replay (0.5 when the function was never observed).
pub fn translate_live(repo: &Repo, func: FuncId, ctx_profile: &CtxProfile) -> VasmUnit {
    translate_unoptimized(repo, func, ctx_profile, Kind::Live)
}

/// Produces a profiling translation: live code plus block counters
/// ([`VInstr::CountOp`]), bigger and slower — the tier-1 code of Fig. 3.
pub fn translate_profiling(repo: &Repo, func: FuncId, ctx_profile: &CtxProfile) -> VasmUnit {
    translate_unoptimized(repo, func, ctx_profile, Kind::Profiling)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Live,
    Profiling,
    Optimized,
}

fn translate_unoptimized(
    repo: &Repo,
    func: FuncId,
    ctx_profile: &CtxProfile,
    kind: Kind,
) -> VasmUnit {
    let mut tr = Translator {
        repo,
        tier: &EMPTY_TIER,
        ctx_profile,
        weights: WeightSource::TierOnly,
        inline: InlineParams {
            enabled: false,
            ..Default::default()
        },
        slot_resolver: &|_, _| None,
        unit: VasmUnit::new(func),
        kind,
        depth: 0,
        templates: None,
        branch_sites: Vec::new(),
    };
    tr.translate_function(func, empty_func_profile(), None, 1.0, false);
    tr.unit
}

static EMPTY_TIER: once_tier::Lazy = once_tier::Lazy;

// A tiny zero-dependency lazy static for the empty tier profile.
mod once_tier {
    use std::ops::Deref;
    use std::sync::OnceLock;

    pub struct Lazy;

    static CELL: OnceLock<crate::profile::TierProfile> = OnceLock::new();

    impl Deref for Lazy {
        type Target = crate::profile::TierProfile;

        fn deref(&self) -> &Self::Target {
            CELL.get_or_init(crate::profile::TierProfile::default)
        }
    }
}

struct Translator<'a> {
    repo: &'a Repo,
    tier: &'a TierProfile,
    ctx_profile: &'a CtxProfile,
    weights: WeightSource,
    inline: InlineParams,
    slot_resolver: &'a dyn Fn(ClassId, StrId) -> Option<u16>,
    /// The unit being built. The block being lowered into is always its
    /// last one.
    unit: VasmUnit,
    kind: Kind,
    depth: u32,
    templates: Option<&'a dyn TemplateSource>,
    /// `(vasm block, bytecode instr)` of each conditional branch emitted,
    /// recorded so the template builder knows which blocks need per-site
    /// probability patching when spliced.
    branch_sites: Vec<(usize, u32)>,
}

impl Translator<'_> {
    /// Translates one function body (outer or inlined), returning the
    /// mapping from its bytecode blocks to Vasm entry indices. `scale` is
    /// the weight multiplier for inlined bodies under TierOnly estimation.
    /// Ret terminators are kept as `Term::Ret`; the inliner rewrites them.
    /// An inlined body (`depth > 0`) lowers its returns without a `RetOp`.
    fn translate_function(
        &mut self,
        func: FuncId,
        fp: &FuncProfile,
        inline_ctx: InlineCtx,
        scale: f64,
        with_guards: bool,
    ) -> Vec<usize> {
        let f = self.repo.func(func);
        let cfg = &self.repo.facts(func).cfg;
        // Each bytecode block opens a Vasm block (plus the exit funnel), and
        // most bytecode instructions lower to one Vasm instruction: reserve
        // that much rather than regrow from empty.
        self.unit.blocks.reserve(cfg.len() + 1);
        self.unit.instrs.reserve(f.code.len());
        let profiled = self.kind == Kind::Optimized && !fp.block_counts.is_empty();
        // First pass: translate each bytecode block into one or more Vasm
        // blocks. Record the entry index per bytecode block, plus pending
        // outer-branch fixups (targets as bytecode block ids).
        let mut entry_of: Vec<usize> = Vec::with_capacity(cfg.len());
        // (vasm block idx, bc target for taken, optional bc target for fall);
        // at most one per bytecode block.
        let mut fixups: Vec<(usize, BlockId, Option<BlockId>)> = Vec::with_capacity(cfg.len());

        for (bi, bblock) in cfg.blocks().iter().enumerate() {
            let bc_id = BlockId(bi as u32);
            let est_w = if profiled {
                let raw = fp.block_counts.get(bi).copied().unwrap_or(0);
                (raw as f64 * scale) as u64
            } else {
                0
            };
            let entry = self.start_block(func, bc_id, est_w);
            let mut cur = entry;
            if bi == 0 && with_guards {
                self.emit_entry_guards(cur, func, fp);
            }
            entry_of.push(entry);
            let mut terminated = false;
            for at in bblock.start..bblock.end {
                let instr = f.code[at as usize];
                match instr {
                    Instr::Jmp(_) => {
                        let t = bblock.taken.expect("a jump has a target block");
                        self.unit.blocks[cur].term = Term::Jump(usize::MAX);
                        fixups.push((cur, t, None));
                        terminated = true;
                    }
                    Instr::JmpZ(_) | Instr::JmpNZ(_) => {
                        let t = bblock.taken.expect("a branch has a target block");
                        // A branch that ends the function falls into itself.
                        let fall = bblock.fallthrough.unwrap_or(bc_id);
                        self.emit(cur, VInstr::CmpInt);
                        self.unit.blocks[cur].term = Term::Cond {
                            taken: usize::MAX,
                            fall: usize::MAX,
                        };
                        // Branch probabilities: truth from context-sensitive
                        // measurements; estimate per the weight source.
                        let true_p = self.ctx_profile.taken_prob(inline_ctx, func, at);
                        let est_p = match self.weights {
                            WeightSource::Accurate => true_p,
                            WeightSource::TierOnly => {
                                // Inferred from block counters alone: split
                                // by target-block counts (wrong at joins).
                                if profiled {
                                    let tw = fp.block_counts.get(t.index()).copied().unwrap_or(0);
                                    let fw =
                                        fp.block_counts.get(fall.index()).copied().unwrap_or(0);
                                    if tw + fw == 0 {
                                        0.5
                                    } else {
                                        tw as f64 / (tw + fw) as f64
                                    }
                                } else {
                                    0.5
                                }
                            }
                        };
                        self.unit.blocks[cur].true_taken_prob = true_p;
                        self.unit.blocks[cur].est_taken_prob = est_p;
                        self.branch_sites.push((cur, at));
                        fixups.push((cur, t, Some(fall)));
                        terminated = true;
                    }
                    Instr::Ret => {
                        if self.depth == 0 {
                            self.emit(cur, VInstr::RetOp);
                        }
                        self.unit.blocks[cur].term = Term::Ret;
                        terminated = true;
                    }
                    Instr::Call {
                        func: callee,
                        argc: _,
                    } => {
                        if self.should_inline(func, at, callee, fp) {
                            cur = self.inline_call(cur, func, at, callee);
                        } else {
                            self.emit(cur, VInstr::CallStatic { callee });
                        }
                    }
                    Instr::CallMethod { .. } => {
                        // Monomorphic dynamic sites can be inlined behind a
                        // class guard, like HHVM's method dispatch profiles.
                        match fp.dominant_target(at) {
                            Some((target, share))
                                if share >= self.inline.min_target_share
                                    && self.should_inline(func, at, target, fp) =>
                            {
                                self.emit(cur, VInstr::GuardType { local: 0 });
                                cur = self.inline_call(cur, func, at, target);
                            }
                            _ => {
                                self.emit(
                                    cur,
                                    VInstr::CallDynamic {
                                        owner: func,
                                        site: at,
                                    },
                                );
                            }
                        }
                    }
                    other => self.lower_simple(cur, func, at, other, fp),
                }
            }
            if !terminated {
                // Fallthrough into the next bytecode block.
                let next = BlockId(bi as u32 + 1);
                self.unit.blocks[cur].term = Term::Jump(usize::MAX);
                fixups.push((cur, next, None));
            }
        }

        // Patch branch targets to Vasm indices.
        for (vi, t, fall) in fixups {
            match (&mut self.unit.blocks[vi].term, fall) {
                (Term::Jump(slot), None) => *slot = entry_of[t.index()],
                (Term::Cond { taken, fall: fslot }, Some(fb)) => {
                    *taken = entry_of[t.index()];
                    *fslot = entry_of[fb.index()];
                }
                other => unreachable!("fixup mismatch: {other:?}"),
            }
        }

        // One side-exit block per function body (guard/exception funnel).
        if self.kind == Kind::Optimized {
            let exit = self.unit.push_block(VBlock::new(Term::Exit, 0, None));
            for _ in 0..3 {
                self.emit(exit, VInstr::InterpOne);
            }
        }
        entry_of
    }

    fn start_block(&mut self, func: FuncId, bc: BlockId, est_weight: u64) -> usize {
        // `Term::Ret` is replaced when the block is finished.
        self.unit
            .push_block(VBlock::new(Term::Ret, est_weight, Some((func, bc))))
    }

    /// Appends `instr` to block `cur`, which must be the last block: a
    /// block's instructions are one span of the unit's arena.
    fn emit(&mut self, cur: usize, instr: VInstr) {
        debug_assert_eq!(
            cur + 1,
            self.unit.blocks.len(),
            "lowering into a finished block"
        );
        self.unit.push_instr(instr);
    }

    fn emit_entry_guards(&mut self, cur: usize, _func: FuncId, fp: &FuncProfile) {
        for ((_, slot), d) in fp.types_at(PARAM_SITE) {
            if d.is_monomorphic(MONO).is_some() {
                let local = u16::from(*slot);
                self.emit(cur, VInstr::GuardType { local });
            }
        }
    }

    fn should_inline(&self, caller: FuncId, at: u32, callee: FuncId, fp: &FuncProfile) -> bool {
        if !self.inline.enabled
            || self.kind != Kind::Optimized
            || callee == caller
            || self.depth > 0
        {
            return false;
        }
        let callee_f = self.repo.func(callee);
        if callee_f.code.len() > self.inline.max_callee_instrs {
            return false;
        }
        // Only inline sites that actually ran (we need some profile signal).
        fp.call_targets_at(at).iter().any(|&(_, c)| c > 0)
    }

    /// Splices `callee`'s translation in place of a call in block `cur`.
    /// Returns the continuation block index to keep emitting into.
    fn inline_call(&mut self, cur: usize, caller: FuncId, at: u32, callee: FuncId) -> usize {
        let ctx: InlineCtx = Some((caller, at));
        // Estimated scale for TierOnly: the callee's average profile scaled
        // by how often this site calls it (tier-1 has no per-site data).
        // Borrow the callee profile out of the tier (lifetime-'a), so no
        // per-site clone is needed to translate through `&mut self`.
        let tier = self.tier;
        let callee_fp = tier
            .funcs
            .get(&callee)
            .unwrap_or_else(|| empty_func_profile());
        let site_calls: u64 = tier
            .funcs
            .get(&caller)
            .map_or(0, |fp| fp.call_targets_at(at).iter().map(|&(_, c)| c).sum());
        let scale = if callee_fp.enter_count == 0 {
            0.0
        } else {
            site_calls as f64 / callee_fp.enter_count as f64
        };

        // Splice the callee body into our block vector — from the memoized
        // template when a cache is installed, else by re-translating from
        // bytecode. Under Accurate weights the context-sensitive counters
        // give per-site truth; under TierOnly the callee average is scaled.
        let mark = self.unit.blocks.len();
        if let Some(src) = self.templates {
            let key = TemplateKey {
                callee,
                weights: self.weights,
            };
            let tpl = src.get_or_build(key, &mut || {
                let _span = telemetry::span!("inline-template", "callee" => callee.index());
                self.build_inline_template(callee, callee_fp)
            });
            self.splice_template(&tpl, callee, ctx, scale);
        } else {
            self.depth += 1;
            let entry_of = self.translate_function(callee, callee_fp, ctx, scale, false);
            self.depth -= 1;
            debug_assert_eq!(entry_of.first().copied().unwrap_or(mark), mark);
        }
        let callee_entry = mark;
        // Continuation block: rest of the caller's bytecode block.
        let caller = self.unit.blocks[cur];
        let cont =
            self.unit
                .push_block(VBlock::new(Term::Ret, caller.est_weight, caller.bc_origin));
        // The callee's returns (lowered without a `RetOp`) jump to the
        // continuation.
        for b in &mut self.unit.blocks[mark..cont] {
            if b.term == Term::Ret {
                b.term = Term::Jump(cont);
            }
        }
        // Jump from the call block into the inlined entry.
        self.unit.blocks[cur].term = Term::Jump(callee_entry);
        cont
    }

    /// Translates `callee` once into a relocatable template: local branch
    /// targets, unscaled weights, TierOnly probability estimates. Built
    /// exactly like a direct depth-1 inline translation with `ctx = None`
    /// and `scale = 1.0`; everything a call site changes is re-derived in
    /// [`Self::splice_template`].
    fn build_inline_template(&self, callee: FuncId, callee_fp: &FuncProfile) -> InlineTemplate {
        let mut tr = Translator {
            repo: self.repo,
            tier: self.tier,
            ctx_profile: self.ctx_profile,
            // TierOnly bakes the site-independent estimates into the
            // template; Accurate splices patch them from per-site truth.
            weights: WeightSource::TierOnly,
            inline: self.inline,
            slot_resolver: self.slot_resolver,
            unit: VasmUnit::new(callee),
            kind: Kind::Optimized,
            depth: 1,
            templates: None,
            branch_sites: Vec::new(),
        };
        tr.translate_function(callee, callee_fp, None, 1.0, false);
        let profiled = !callee_fp.block_counts.is_empty();
        // Raw counters come straight from the profile (not back through the
        // f64 scaling), so splicing computes bit-for-bit the same
        // `(raw * scale) as u64` as direct translation.
        let raw_weights: Vec<u64> = tr
            .unit
            .blocks
            .iter()
            .map(|b| match b.bc_origin {
                Some((_, bc)) if profiled => {
                    callee_fp.block_counts.get(bc.index()).copied().unwrap_or(0)
                }
                _ => 0,
            })
            .collect();
        InlineTemplate {
            body: tr.unit,
            raw_weights,
            branch_sites: tr.branch_sites,
            profiled,
        }
    }

    /// Appends a template's body to the unit: copies its instruction arena
    /// whole, rebases each header's span and terminator targets by the
    /// splice point, rescales weights for this site, and patches branch
    /// probabilities with the context-sensitive truth (which also drives
    /// the layout estimate in Accurate mode).
    fn splice_template(
        &mut self,
        tpl: &InlineTemplate,
        callee: FuncId,
        ctx: InlineCtx,
        scale: f64,
    ) {
        let mark = self.unit.blocks.len();
        let base = self.unit.instrs.len() as u32;
        self.unit.instrs.extend_from_slice(&tpl.body.instrs);
        self.unit.blocks.reserve(tpl.body.blocks.len());
        for (tb, &raw) in tpl.body.blocks.iter().zip(&tpl.raw_weights) {
            let mut b = *tb;
            b.start += base;
            b.end += base;
            b.term = match b.term {
                Term::Jump(t) => Term::Jump(t + mark),
                Term::Cond { taken, fall } => Term::Cond {
                    taken: taken + mark,
                    fall: fall + mark,
                },
                t => t,
            };
            let est = if tpl.profiled {
                (raw as f64 * scale) as u64
            } else {
                0
            };
            b.est_weight = est;
            b.true_weight = est;
            self.unit.blocks.push(b);
        }
        for &(bi, bat) in &tpl.branch_sites {
            let true_p = self.ctx_profile.taken_prob(ctx, callee, bat);
            let b = &mut self.unit.blocks[mark + bi];
            b.true_taken_prob = true_p;
            if self.weights == WeightSource::Accurate {
                b.est_taken_prob = true_p;
            }
        }
    }

    /// Appends the lowering of one straight-line instruction to block
    /// `cur`.
    fn lower_simple(&mut self, cur: usize, func: FuncId, at: u32, instr: Instr, fp: &FuncProfile) {
        let optimized = self.kind == Kind::Optimized;
        if self.kind == Kind::Profiling {
            // Block counters land on the first instruction of each block in
            // real HHVM; per-instruction is a fine cost approximation.
            if at == 0 {
                self.emit(cur, VInstr::CountOp);
            }
        }
        match instr {
            Instr::Null | Instr::True | Instr::False | Instr::Int(_) | Instr::Double(_) => {
                self.emit(cur, VInstr::ConstSmall);
            }
            Instr::Str(_) | Instr::LitArr(_) => self.emit(cur, VInstr::ConstStr),
            Instr::Pop | Instr::Dup => self.emit(cur, VInstr::ConstSmall),
            Instr::GetL(l) => self.emit(cur, VInstr::LoadLocal(l)),
            Instr::SetL(l) => self.emit(cur, VInstr::StoreLocal(l)),
            Instr::IncL(l, _) => {
                self.emit(cur, VInstr::LoadLocal(l));
                self.emit(cur, VInstr::IntArith);
                self.emit(cur, VInstr::StoreLocal(l));
            }
            Instr::Bin(op) => {
                let spec = optimized && self.operands_monomorphic_int(func, at, fp);
                let float = optimized && self.operands_float(func, at, fp);
                self.emit(
                    cur,
                    match op {
                        bytecode::BinOp::Concat => VInstr::ConcatOp,
                        bytecode::BinOp::Eq
                        | bytecode::BinOp::Neq
                        | bytecode::BinOp::Lt
                        | bytecode::BinOp::Le
                        | bytecode::BinOp::Gt
                        | bytecode::BinOp::Ge => {
                            if spec {
                                VInstr::CmpInt
                            } else {
                                VInstr::GenCmp
                            }
                        }
                        _ => {
                            if spec {
                                VInstr::IntArith
                            } else if float {
                                VInstr::FloatArith
                            } else {
                                VInstr::GenBin
                            }
                        }
                    },
                );
            }
            Instr::Un(_) => self.emit(
                cur,
                if optimized {
                    VInstr::IntArith
                } else {
                    VInstr::GenBin
                },
            ),
            Instr::CallBuiltin { builtin, .. } => self.emit(cur, VInstr::BuiltinOp { builtin }),
            Instr::NewObj(class) => self.emit(cur, VInstr::NewObjOp { class }),
            Instr::GetProp(name) | Instr::SetProp(name) => {
                let spec = if optimized {
                    self.prop_site_slot(func, at, name, fp)
                } else {
                    None
                };
                match spec {
                    Some((class, slot)) => {
                        self.emit(cur, VInstr::GuardType { local: 0 });
                        self.emit(
                            cur,
                            if matches!(instr, Instr::GetProp(_)) {
                                VInstr::LoadProp { class, slot }
                            } else {
                                VInstr::StoreProp { class, slot }
                            },
                        );
                    }
                    None => self.emit(cur, VInstr::GenProp),
                }
            }
            Instr::This => self.emit(cur, VInstr::LoadLocal(0)),
            Instr::NewVec(_) | Instr::NewDict(_) => self.emit(cur, VInstr::NewArrOp),
            Instr::Idx | Instr::SetIdx => self.emit(cur, VInstr::IdxOp),
            Instr::Jmp(_)
            | Instr::JmpZ(_)
            | Instr::JmpNZ(_)
            | Instr::Ret
            | Instr::Call { .. }
            | Instr::CallMethod { .. } => unreachable!("handled by the block loop"),
        }
    }

    fn operands_monomorphic_int(&self, _func: FuncId, at: u32, fp: &FuncProfile) -> bool {
        let mono = |slot: u8| {
            fp.type_dist(at, slot).and_then(|d| d.is_monomorphic(MONO)) == Some(ValueKind::Int)
        };
        mono(0) && mono(1)
    }

    fn operands_float(&self, _func: FuncId, at: u32, fp: &FuncProfile) -> bool {
        let kind = |slot: u8| fp.type_dist(at, slot).and_then(|d| d.is_monomorphic(MONO));
        matches!(
            (kind(0), kind(1)),
            (Some(ValueKind::Float), Some(_)) | (Some(_), Some(ValueKind::Float))
        )
    }

    fn prop_site_slot(
        &self,
        _func: FuncId,
        at: u32,
        name: StrId,
        fp: &FuncProfile,
    ) -> Option<(ClassId, u16)> {
        let (class, share) = fp.dominant_class(at)?;
        if share < MONO {
            return None;
        }
        let slot = (self.slot_resolver)(class, name)?;
        Some((class, slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileCollector;
    use vm::{Value, Vm};

    fn profile_src(
        src: &str,
        entry: &str,
        args: &[Value],
        runs: usize,
    ) -> (Repo, TierProfile, CtxProfile) {
        let repo = hackc::compile_unit("t.hl", src).expect("compiles");
        let f = repo.func_by_name(entry).unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        for _ in 0..runs {
            vm.call_observed(f, args, &mut col).unwrap();
            col.end_request();
        }
        let (tier, ctx) = col.finish();
        (repo, tier, ctx)
    }

    #[test]
    fn monomorphic_int_ops_get_specialized() {
        let (repo, tier, ctx) = profile_src(
            "function main($n) { $s = 0; for ($i = 0; $i < $n; $i++) { $s = $s + $i; } return $s; }",
            "main",
            &[Value::Int(50)],
            3,
        );
        let f = repo.func_by_name("main").unwrap().id;
        let unit = translate_optimized(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::Accurate,
            InlineParams::default(),
            &|_, _| None,
        );
        let ints = unit
            .instrs
            .iter()
            .filter(|i| matches!(i, VInstr::IntArith))
            .count();
        let gens = unit
            .instrs
            .iter()
            .filter(|i| matches!(i, VInstr::GenBin))
            .count();
        assert!(ints > 0, "loop arithmetic should specialize to IntArith");
        assert_eq!(gens, 0, "no generic binops expected in a monomorphic loop");
        // Entry guards for the int parameter.
        assert!(unit
            .instrs_of(&unit.blocks[0])
            .iter()
            .any(|i| matches!(i, VInstr::GuardType { .. })));
    }

    /// The fixed 12-pass relaxation, kept as the oracle for
    /// `propagate_est_weights`, which stops at the first settled pass.
    fn est_weights_twelve_passes(unit: &VasmUnit, entry_weight: u64) -> Vec<u64> {
        let n = unit.blocks.len();
        let mut w = vec![0f64; n];
        for _ in 0..12 {
            let mut next = vec![0f64; n];
            next[0] = entry_weight as f64;
            for (i, out) in w.iter().copied().enumerate() {
                match unit.blocks[i].term {
                    Term::Jump(t) => next[t] += out,
                    Term::Cond { taken, fall } => {
                        let p = unit.blocks[i].est_taken_prob;
                        next[taken] += out * p;
                        next[fall] += out * (1.0 - p);
                    }
                    Term::Ret | Term::Exit => {}
                }
            }
            w = next;
        }
        w.iter().map(|x| (x * 1024.0).round() as u64).collect()
    }

    #[test]
    fn settled_weight_propagation_matches_twelve_passes() {
        let acyclic = "function main($n) {
            if ($n > 3) { $n = $n + 1; } else { $n = $n - 1; }
            if ($n > 4) { return $n * 2; }
            return $n;
        }";
        let looping = "function main($n) {
            $s = 0;
            for ($i = 0; $i < $n; $i++) { if ($i % 3 == 0) { $s = $s + $i; } }
            return $s;
        }";
        for (src, arg) in [(acyclic, 4), (acyclic, 1), (looping, 20)] {
            let (repo, tier, ctx) = profile_src(src, "main", &[Value::Int(arg)], 3);
            let f = repo.func_by_name("main").unwrap().id;
            let entry = tier.funcs[&f].enter_count;
            for ws in [WeightSource::TierOnly, WeightSource::Accurate] {
                let unit = translate_optimized(
                    &repo,
                    f,
                    &tier,
                    &ctx,
                    ws,
                    InlineParams::default(),
                    &|_, _| None,
                );
                let got: Vec<u64> = unit.blocks.iter().map(|b| b.est_weight).collect();
                assert_eq!(
                    got,
                    est_weights_twelve_passes(&unit, entry),
                    "{src} weights={ws:?}"
                );
                assert!(got[0] > 0);
            }
        }
    }

    #[test]
    fn live_translation_uses_generic_ops() {
        let (repo, _, ctx) = profile_src(
            "function main($n) { return $n + 1; }",
            "main",
            &[Value::Int(1)],
            1,
        );
        let f = repo.func_by_name("main").unwrap().id;
        let unit = translate_live(&repo, f, &ctx);
        assert!(unit.instrs.iter().any(|i| matches!(i, VInstr::GenBin)));
        assert!(!unit
            .instrs
            .iter()
            .any(|i| matches!(i, VInstr::IntArith | VInstr::GuardType { .. })));
    }

    #[test]
    fn profiling_translation_is_bigger_than_live() {
        let (repo, _, ctx) = profile_src(
            "function main($n) { if ($n > 0) { return 1; } return 0; }",
            "main",
            &[Value::Int(1)],
            1,
        );
        let f = repo.func_by_name("main").unwrap().id;
        let live = translate_live(&repo, f, &ctx);
        let prof = translate_profiling(&repo, f, &ctx);
        assert!(prof.code_size() > live.code_size());
    }

    #[test]
    fn hot_callee_gets_inlined() {
        let src = r#"
            function tiny($x) { return $x + 1; }
            function main($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s = tiny($s); }
                return $s;
            }
        "#;
        let (repo, tier, ctx) = profile_src(src, "main", &[Value::Int(30)], 2);
        let f = repo.func_by_name("main").unwrap().id;
        let inlined = translate_optimized(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::Accurate,
            InlineParams::default(),
            &|_, _| None,
        );
        let not_inlined = translate_optimized(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::Accurate,
            InlineParams {
                enabled: false,
                ..Default::default()
            },
            &|_, _| None,
        );
        let calls = |u: &VasmUnit| {
            u.instrs
                .iter()
                .filter(|i| matches!(i, VInstr::CallStatic { .. }))
                .count()
        };
        assert_eq!(calls(&inlined), 0, "the tiny callee should be inlined");
        assert_eq!(calls(&not_inlined), 1);
        assert!(inlined.blocks.len() > not_inlined.blocks.len());
    }

    #[test]
    fn tieronly_misestimates_join_probabilities() {
        // Two callers pass constant-but-different flags to a shared helper;
        // tier-1 sees a 50/50 aggregate while per-site truth is 0/100.
        let src = r#"
            function helper($flag) {
                if ($flag) { return 1; }
                return 2;
            }
            function main($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) {
                    $s = $s + helper(true) + helper(false);
                }
                return $s;
            }
        "#;
        let (repo, tier, ctx) = profile_src(src, "main", &[Value::Int(25)], 2);
        let f = repo.func_by_name("main").unwrap().id;
        let inline = InlineParams::default();
        let est = translate_optimized(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::TierOnly,
            inline,
            &|_, _| None,
        );
        let acc = translate_optimized(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::Accurate,
            inline,
            &|_, _| None,
        );
        // Find inlined conditional blocks (origin = helper).
        let helper = repo.func_by_name("helper").unwrap().id;
        let est_probs: Vec<f64> = est
            .blocks
            .iter()
            .filter(|b| {
                b.bc_origin.is_some_and(|(f2, _)| f2 == helper)
                    && matches!(b.term, Term::Cond { .. })
            })
            .map(|b| b.est_taken_prob)
            .collect();
        let acc_probs: Vec<f64> = acc
            .blocks
            .iter()
            .filter(|b| {
                b.bc_origin.is_some_and(|(f2, _)| f2 == helper)
                    && matches!(b.term, Term::Cond { .. })
            })
            .map(|b| b.est_taken_prob)
            .collect();
        assert_eq!(est_probs.len(), 2, "helper inlined twice");
        // TierOnly: both sites get the same aggregate-derived estimate.
        assert!((est_probs[0] - est_probs[1]).abs() < 1e-9);
        // Accurate: per-site truth differs sharply (one ~0, one ~1).
        assert!((acc_probs[0] - acc_probs[1]).abs() > 0.9);
        // And the accurate view matches ground truth.
        let true_probs: Vec<f64> = acc
            .blocks
            .iter()
            .filter(|b| {
                b.bc_origin.is_some_and(|(f2, _)| f2 == helper)
                    && matches!(b.term, Term::Cond { .. })
            })
            .map(|b| b.true_taken_prob)
            .collect();
        for (a, t) in acc_probs.iter().zip(true_probs.iter()) {
            assert!((a - t).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_sites_specialize_to_slots() {
        let src = r#"
            class P { public $a = 1; public $b = 2; }
            function main($n) {
                $p = new P();
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s = $s + $p->a; }
                return $s;
            }
        "#;
        let (repo, tier, ctx) = profile_src(src, "main", &[Value::Int(20)], 2);
        let f = repo.func_by_name("main").unwrap().id;
        let resolver = |_c: ClassId, name: StrId| {
            // "a" -> slot 7 under some installed order.
            (repo.str(name) == "a").then_some(7u16)
        };
        let unit = translate_optimized(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::Accurate,
            InlineParams::default(),
            &resolver,
        );
        assert!(unit
            .instrs
            .iter()
            .any(|i| matches!(i, VInstr::LoadProp { slot: 7, .. })));
    }

    /// Minimal well-behaved cache for tests: one build per key, shared
    /// thereafter.
    #[derive(Default)]
    struct MemoTemplates {
        map: std::sync::Mutex<std::collections::HashMap<TemplateKey, Arc<InlineTemplate>>>,
        builds: std::sync::atomic::AtomicUsize,
    }

    impl TemplateSource for MemoTemplates {
        fn get_or_build(
            &self,
            key: TemplateKey,
            build: &mut dyn FnMut() -> InlineTemplate,
        ) -> Arc<InlineTemplate> {
            let mut map = self.map.lock().unwrap();
            map.entry(key)
                .or_insert_with(|| {
                    self.builds
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Arc::new(build())
                })
                .clone()
        }
    }

    #[test]
    fn template_splicing_matches_direct_translation() {
        // Two call sites of the same helper with sharply different per-site
        // branch behavior (the hardest case: Accurate mode must patch
        // per-site probabilities into the shared template), plus a second
        // helper through a dynamic site.
        let src = r#"
            function helper($flag) {
                if ($flag) { return 1; }
                return 2;
            }
            function twice($x) { return $x + $x; }
            function main($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) {
                    $s = $s + helper(true) + helper(false) + twice($i);
                }
                return $s;
            }
        "#;
        let (repo, tier, ctx) = profile_src(src, "main", &[Value::Int(25)], 2);
        for ws in [WeightSource::TierOnly, WeightSource::Accurate] {
            let cache = MemoTemplates::default();
            let f = repo.func_by_name("main").unwrap().id;
            let direct = translate_optimized(
                &repo,
                f,
                &tier,
                &ctx,
                ws,
                InlineParams::default(),
                &|_, _| None,
            );
            let cached = translate_optimized_with(
                &repo,
                f,
                &tier,
                &ctx,
                ws,
                InlineParams::default(),
                &|_, _| None,
                Some(&cache),
            );
            assert_eq!(direct, cached, "weights={ws:?}");
            // helper is inlined at two sites but built once; twice at one.
            let builds = cache.builds.load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(builds, 2, "one template build per distinct callee");
        }
    }

    #[test]
    fn template_splicing_matches_with_slot_resolver() {
        // Property specialization inside an inlined body must come out of
        // the template identically (slot resolution is site-independent).
        let src = r#"
            class P { public $a = 1; public $b = 2; }
            function get_a($p) { return $p->a; }
            function main($n) {
                $p = new P();
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s = $s + get_a($p); }
                return $s;
            }
        "#;
        let (repo, tier, ctx) = profile_src(src, "main", &[Value::Int(20)], 2);
        let f = repo.func_by_name("main").unwrap().id;
        let resolver = |_c: ClassId, name: StrId| (repo.str(name) == "a").then_some(3u16);
        let cache = MemoTemplates::default();
        let direct = translate_optimized(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::Accurate,
            InlineParams::default(),
            &resolver,
        );
        let cached = translate_optimized_with(
            &repo,
            f,
            &tier,
            &ctx,
            WeightSource::Accurate,
            InlineParams::default(),
            &resolver,
            Some(&cache),
        );
        assert_eq!(direct, cached);
    }

    #[test]
    fn block_structure_has_valid_targets() {
        let src = r#"
            function leaf($a) { if ($a > 2) { return $a; } return $a * 2; }
            function main($n) {
                $t = 0;
                for ($i = 0; $i < $n; $i++) {
                    if ($i % 3 == 0) { $t += leaf($i); } else { $t -= 1; }
                }
                return $t;
            }
        "#;
        let (repo, tier, ctx) = profile_src(src, "main", &[Value::Int(30)], 1);
        let f = repo.func_by_name("main").unwrap().id;
        for ws in [WeightSource::TierOnly, WeightSource::Accurate] {
            let unit = translate_optimized(
                &repo,
                f,
                &tier,
                &ctx,
                ws,
                InlineParams::default(),
                &|_, _| None,
            );
            for b in &unit.blocks {
                for s in b.term.successors() {
                    assert!(s < unit.blocks.len(), "dangling successor");
                }
            }
            // The blocks' spans tile the arena in push order.
            let mut at = 0;
            for b in &unit.blocks {
                assert_eq!((b.start, b.start <= b.end), (at, true), "span out of order");
                at = b.end;
            }
            assert_eq!(at as usize, unit.instrs.len());
            // Only the outer function's returns carry a return sequence; an
            // inlined return became a jump to its continuation.
            let rets = unit.blocks.iter().filter(|b| b.term == Term::Ret).count();
            let ret_ops = unit.instrs.iter().filter(|&&i| i == VInstr::RetOp).count();
            assert!(rets > 0);
            assert_eq!(ret_ops, rets);
        }
    }
}
