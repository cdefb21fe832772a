//! Stale-profile repair: re-identifying and remapping counters collected
//! against an older build onto the current code.
//!
//! At scale, a consumer's repo is often one push ahead of the package it
//! downloads (the paper tolerates this on purpose — §VII-C shows profiles
//! stay useful for days of pushes). Most functions are untouched by a
//! push, so most of the package is still exact; the functions that *did*
//! change have counters indexed by ids and block positions that no longer
//! exist. This module salvages the package instead of discarding it ("Stale
//! Profile Matching", Ayupov et al., PAPERS.md), as a [`StagedRepair`]:
//!
//! 1. **Function identity**, once per package — ids renumber wholesale
//!    across builds, so records are re-identified from their `(id, name
//!    hash)` pairs against the release's name index, then (for renamed
//!    functions) by a unique whole-body opcode fingerprint, which only these
//!    second-chance records' bodies are read for. Call targets and context
//!    keys are rewritten through the resulting old→new id map; records that
//!    resolve to nothing are dropped.
//! 2. **Per-record repair**, stage by stage — each record's blocks are
//!    matched against the current [`bytecode::Cfg`] by a two-level ladder
//!    (exact structural hash, then opcode-only hash; each level pairs equal
//!    hashes in relative block order), and the matched counts become hints
//!    to [`crate::flow::infer_flow`], which constructs an exact integer
//!    circulation over the new CFG, branch splits included. A record whose
//!    counter mass mostly lands on unmatched blocks is dropped
//!    (`MIN_MATCHED_MASS`). Then the record's sites and its ctx branch
//!    counters are pruned, and a fresh record whose branch data the prune
//!    cut is rebalanced from its own counts.
//!
//! Freshness and pruning are the lint's own checks ([`crate::lint`]), so a
//! repaired record trips none of them, and a record the lint passes is left
//! as it is: a consumer repairs only what a stage's lint flags.
//! [`repair_profile`] is the whole package as one stage.

use std::collections::{BTreeMap, HashMap, VecDeque};

use bytecode::{Fnv, FuncId, Repo};
use jit::{CtxProfile, FuncProfile, TierProfile};

use crate::flow::{flow_violations, infer_flow};
use crate::lint::{
    call_target, counters_fit, ctx_branch, ctx_entry, func_ok, ignore, prop_class, type_site,
};

/// Minimum fraction of a function's counter mass that must land on
/// hash-matched blocks for the repair to be trusted.
const MIN_MATCHED_MASS: f64 = 0.5;

/// How stale functions are matched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatchMode {
    /// The full v2 pipeline: name/body identity, two-level block ladder,
    /// flow-conservation inference.
    #[default]
    Full,
    /// Drop every function that is not exactly fresh (the pre-matching
    /// baseline the `jsstale` bench compares against).
    DropStale,
}

/// Options for [`repair_profile_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairOptions {
    /// Matching mode.
    pub mode: MatchMode,
}

/// Per-level match statistics; a consumer boot that repaired hands them
/// back in its `RepairReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Functions whose profile was already exact for the current build.
    pub funcs_fresh: u64,
    /// Functions re-identified by body fingerprint after a rename.
    pub funcs_renamed: u64,
    /// Functions whose counts were kept but whose branch counters had to
    /// be resynthesized to restore flow conservation.
    pub funcs_rebalanced: u64,
    /// Blocks matched by exact structural hash.
    pub blocks_exact: u64,
    /// Blocks matched by opcode-only hash.
    pub blocks_opcode: u64,
    /// Always 0; kept for the benchmark's traced pass, remove with the
    /// next benchmark PR.
    pub blocks_neighbor: u64,
    /// Always 0; kept for the benchmark's traced pass, remove with the
    /// next benchmark PR.
    pub blocks_anchor: u64,
    /// New-CFG blocks with no match that received a nonzero inferred count.
    pub blocks_inferred: u64,
    /// Old counter entries not carried over (unmatched blocks of repaired
    /// functions plus all blocks of dropped functions).
    pub blocks_dropped: u64,
    /// Counter mass carried over through block matches.
    pub mass_matched: u64,
    /// Counter mass lost to dropped functions and unmatched blocks.
    pub mass_dropped: u64,
    /// Branch counters synthesized from inferred edge flows.
    pub branches_synthesized: u64,
}

/// What [`repair_profile`] did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepairReport {
    /// Functions whose block counters were remapped onto a changed CFG
    /// (keyed by *current-build* id after re-identification).
    pub repaired: Vec<FuncId>,
    /// Functions dropped entirely (unresolvable id, or too little counter
    /// mass survived the match), keyed by their *old* id.
    pub dropped: Vec<FuncId>,
    /// Instruction-indexed counter entries pruned because their profile
    /// point no longer exists (or can't produce them).
    pub pruned: usize,
    /// Match-ladder statistics.
    pub stats: MatchStats,
}

impl RepairReport {
    /// Whether the profile was already fully consistent.
    pub fn untouched(&self) -> bool {
        self.repaired.is_empty() && self.dropped.is_empty() && self.pruned == 0
    }
}

// One rung of the matching ladder, as stats indices.
const LEVEL_EXACT: u8 = 0;
const LEVEL_OPCODE: u8 = 1;

/// Matches old blocks to new blocks through the two-level hash ladder.
/// Returns, per new block, the matched old block index and the level that
/// matched it. Within one level, equal hashes pair up in relative block
/// order; every level only considers blocks the stricter levels left
/// unmatched.
fn match_blocks(old_counts: &[u64], levels: [(&[u64], &[u64]); 2]) -> Vec<Option<(usize, u8)>> {
    let n_old = old_counts.len();
    let n_new = levels
        .iter()
        .map(|(_, cur)| cur.len())
        .find(|&l| l > 0)
        .unwrap_or(0);
    let mut old_taken = vec![false; n_old];
    let mut assigned: Vec<Option<(usize, u8)>> = vec![None; n_new];
    for (level, &(old_h, cur_h)) in levels.iter().enumerate() {
        // A level is usable only if its arrays line up with both sides.
        if old_h.len() != n_old || cur_h.len() != n_new || old_h.is_empty() {
            continue;
        }
        let level = level as u8;
        let mut by_hash: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
        for (i, &h) in old_h.iter().enumerate() {
            if !old_taken[i] {
                by_hash.entry(h).or_default().push_back(i);
            }
        }
        for (j, slot) in assigned.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            if let Some(q) = by_hash.get_mut(&cur_h[j]) {
                if let Some(i) = q.pop_front() {
                    *slot = Some((i, level));
                    old_taken[i] = true;
                }
            }
        }
    }
    assigned
}

/// Repairs `tier` and `ctx` in place against `repo` with default options
/// (the full v2 matching pipeline).
///
/// After a successful repair the profile passes the lint, flow
/// conservation included: matched counts are turned into an exact
/// integer circulation and branch counters are resynthesized from its edge
/// flows, so repaired functions balance just like fresh ones.
pub fn repair_profile(repo: &Repo, tier: &mut TierProfile, ctx: &mut CtxProfile) -> RepairReport {
    repair_profile_with(repo, tier, ctx, &RepairOptions::default())
}

/// [`repair_profile`] with an explicit [`MatchMode`]: a [`StagedRepair`]
/// whose one stage holds every record, each one repaired.
pub fn repair_profile_with(
    repo: &Repo,
    tier: &mut TierProfile,
    ctx: &mut CtxProfile,
    opts: &RepairOptions,
) -> RepairReport {
    let dir = tier.funcs.iter().map(|(&f, fp)| (f, fp.name_hash));
    let mut repair = StagedRepair::by_name(repo, opts.mode, dir);
    repair.by_body(tier);
    repair.admit_ctx(ctx);
    repair.remap(tier);
    let all: Vec<FuncId> = tier.funcs.keys().copied().collect();
    repair.repair(tier, &all, ctx);
    repair.finish()
}

/// A profile's repair, admitted in stages. Phase 1 settles each record's
/// identity from the `(id, name hash)` pairs alone
/// ([`StagedRepair::by_name`]), reading only the second-chance records'
/// bodies ([`StagedRepair::by_body`]); [`StagedRepair::admit_ctx`] then
/// admits the ctx, and each stage's records are
/// [`remap`](StagedRepair::remap)ped and [`repair`](StagedRepair::repair)ed
/// record by record. However the records are staged, the tier, ctx and
/// report equal [`repair_profile_with`]'s.
#[derive(Debug)]
pub struct StagedRepair<'r> {
    repo: &'r Repo,
    mode: MatchMode,
    /// Recorded id → current id of every resolved record.
    resolved: BTreeMap<FuncId, FuncId>,
    /// The inverse of `resolved`, by current id: one record per function.
    claimed: Vec<Option<FuncId>>,
    /// Resolved records whose id changes.
    moved: usize,
    /// Records the name did not place, waiting for their bodies.
    second_chance: Vec<FuncId>,
    /// Phase-2 drops, by current id.
    stale_drops: Vec<FuncId>,
    report: RepairReport,
}

impl<'r> StagedRepair<'r> {
    /// Phase 1 by name over `dir`, `(recorded id, name hash)` pairs in
    /// `FuncId` order. Legacy records (no name hash) keep id-as-is
    /// semantics: in-range ids are trusted, out-of-range ids are dropped.
    /// The others are re-keyed by name hash; the ones it cannot place are
    /// the [`second_chance`](StagedRepair::second_chance).
    pub fn by_name(
        repo: &'r Repo,
        mode: MatchMode,
        dir: impl IntoIterator<Item = (FuncId, u64)>,
    ) -> Self {
        let full = mode == MatchMode::Full;
        let mut repair = StagedRepair {
            repo,
            mode,
            resolved: BTreeMap::new(),
            claimed: vec![None; repo.funcs().len()],
            moved: 0,
            second_chance: Vec::new(),
            stale_drops: Vec::new(),
            report: RepairReport::default(),
        };
        for (fid, name_hash) in dir {
            let target = if full && name_hash != 0 {
                repo.func_by_name_hash(name_hash)
            } else {
                func_ok(repo, fid).then_some(fid)
            };
            match target {
                Some(nf) if repair.claim(fid, nf) => {}
                _ if full && name_hash != 0 => repair.second_chance.push(fid),
                _ => repair.report.dropped.push(fid),
            }
        }
        repair
    }

    /// Records `old` as `new` unless a record claimed `new` first: the
    /// renaming stays one-to-one.
    fn claim(&mut self, old: FuncId, new: FuncId) -> bool {
        if self.claimed[new.index()].is_some() {
            return false;
        }
        self.claimed[new.index()] = Some(old);
        self.resolved.insert(old, new);
        self.moved += usize::from(old != new);
        true
    }

    /// The recorded ids whose bodies [`StagedRepair::by_body`] reads.
    pub fn second_chance(&self) -> &[FuncId] {
        &self.second_chance
    }

    /// Phase 1's second chance, over `records` (keyed by recorded id): a
    /// renamed function whose unique body is unchanged is identity
    /// enough. A second-chance record missing from `records` is dropped.
    pub fn by_body(&mut self, records: &TierProfile) {
        if self.second_chance.is_empty() {
            return;
        }
        let mut by_body: HashMap<u64, Option<FuncId>> = HashMap::new();
        for f in self.repo.funcs() {
            by_body
                .entry(body_hash(&self.repo.facts(f.id).block_opcode_hashes))
                .and_modify(|e| *e = None) // ambiguous body: never match on it
                .or_insert(Some(f.id));
        }
        for fid in std::mem::take(&mut self.second_chance) {
            let body = records.funcs.get(&fid).map(|fp| &fp.block_opcode_hashes);
            let target = body
                .filter(|b| !b.is_empty())
                .and_then(|b| by_body.get(&body_hash(b)).copied().flatten());
            match target {
                Some(nf) if self.claim(fid, nf) => self.report.stats.funcs_renamed += 1,
                _ => self.report.dropped.push(fid),
            }
        }
        self.report.dropped.sort_unstable();
    }

    /// Whether every record keeps its id and name, and none is dropped.
    pub fn is_trivial(&self) -> bool {
        self.moved == 0 && self.report.dropped.is_empty() && self.report.stats.funcs_renamed == 0
    }

    /// The current id of the record at recorded id `old`.
    pub fn new_id(&self, old: FuncId) -> Option<FuncId> {
        self.resolved.get(&old).copied()
    }

    /// The recorded id of the record that is now `new`.
    pub fn record_of(&self, new: FuncId) -> Option<FuncId> {
        self.claimed.get(new.index()).copied().flatten()
    }

    /// A recorded reference (a callee, a ctx key) under its current id;
    /// the id of a record that resolved to nothing stays as it is.
    pub fn map(&self, f: FuncId) -> FuncId {
        self.new_id(f).unwrap_or(f)
    }

    /// Renames `ctx` and prunes the counters no record's repair sees:
    /// every entry counter, and the branch counters of current ids no
    /// record claims. A claimed id's branch counters wait for its record:
    /// replaced uncounted if it is repaired, pruned otherwise.
    pub fn admit_ctx(&mut self, ctx: &mut CtxProfile) {
        if self.moved > 0 {
            ctx.remap_funcs(|f| self.map(f));
        }
        let repo = self.repo;
        self.report.pruned += ctx.retain_branches(|ictx, f, at| {
            self.record_of(f).is_some() || ctx_branch(repo, f, at, ictx, &mut ignore)
        }) + ctx
            .retain_entries(|ictx, callee| ctx_entry(repo, callee, ictx, &mut ignore));
    }

    /// Re-keys one stage's `records` from recorded to current ids. A
    /// record names the function it resolved to (a rename keeps its
    /// counters under the new name), its callees are renamed, and a record
    /// resolved to nothing is dropped.
    pub fn remap(&mut self, records: &mut TierProfile) {
        if self.is_trivial() {
            return;
        }
        for (fid, mut fp) in std::mem::take(&mut records.funcs) {
            let Some(new) = self.new_id(fid) else {
                self.report.stats.blocks_dropped += fp.block_counts.len() as u64;
                self.report.stats.mass_dropped += fp.block_counts.iter().sum::<u64>();
                continue;
            };
            if fp.name_hash != 0 {
                fp.name_hash = self.repo.facts(new).name_hash;
            }
            if self.moved > 0 {
                fp.remap_callees(|f| self.map(f));
            }
            records.funcs.insert(new, fp);
        }
    }

    /// Counts `n` remapped records the lint passed as fresh: the repair
    /// leaves a record as it is when neither it nor its ctx branch
    /// counters have a finding.
    pub fn fresh(&mut self, n: usize) {
        self.report.stats.funcs_fresh += n as u64;
    }

    /// Repairs the remapped records `ids` of `records` in place: phase 2
    /// (the block ladder and flow inference) when a record's counters do
    /// not fit, the prune of its sites and its ctx branch counters, then
    /// phase 3's rebalance. A record whose counter mass mostly lands on
    /// unmatched blocks is dropped.
    pub fn repair(&mut self, records: &mut TierProfile, ids: &[FuncId], ctx: &mut CtxProfile) {
        for &fid in ids {
            let fp = records.funcs.get_mut(&fid).expect("a record of the stage");
            if !self.repair_record(fid, fp, ctx) {
                records.funcs.remove(&fid);
                self.stale_drops.push(fid);
            }
        }
    }

    /// One record's [`StagedRepair::repair`]; returns whether it is kept.
    fn repair_record(&mut self, fid: FuncId, fp: &mut FuncProfile, ctx: &mut CtxProfile) -> bool {
        let (repo, r) = (self.repo, &mut self.report);
        let facts = repo.facts(fid);
        let fresh = counters_fit(fp, &facts.block_hashes);
        let prune_branches = |ctx: &mut CtxProfile| {
            ctx.retain_branches_of(fid, |ictx, at| ctx_branch(repo, fid, at, ictx, &mut ignore))
        };
        if fresh {
            r.stats.funcs_fresh += 1;
        } else {
            let total: u64 = fp.block_counts.iter().sum();
            let assigned = match_blocks(
                &fp.block_counts,
                [
                    (&fp.block_hashes, &facts.block_hashes),
                    (&fp.block_opcode_hashes, &facts.block_opcode_hashes),
                ],
            );
            let matched: u64 = assigned
                .iter()
                .flatten()
                .map(|&(i, _)| fp.block_counts[i])
                .sum();
            if self.mode == MatchMode::DropStale
                || total > 0 && (matched as f64) < MIN_MATCHED_MASS * total as f64
            {
                r.stats.blocks_dropped += fp.block_counts.len() as u64;
                r.stats.mass_dropped += total;
                r.pruned += prune_branches(ctx);
                return false;
            }
            // The ladder pairs each old block at most once.
            let hints: Vec<Option<u64>> = (assigned.iter())
                .map(|a| a.map(|(i, _)| fp.block_counts[i]))
                .collect();
            let level = |want| assigned.iter().flatten().filter(|a| a.1 == want).count() as u64;
            let (exact, opcode) = (level(LEVEL_EXACT), level(LEVEL_OPCODE));
            r.stats.blocks_exact += exact;
            r.stats.blocks_opcode += opcode;
            r.stats.blocks_dropped += fp.block_counts.len() as u64 - exact - opcode;
            r.stats.mass_matched += matched;
            r.stats.mass_dropped += total - matched;

            let sol = infer_flow(&facts.cfg, fp.enter_count, &hints);
            r.stats.blocks_inferred += sol
                .counts
                .iter()
                .zip(&hints)
                .filter(|&(&c, h)| h.is_none() && c > 0)
                .count() as u64;
            // A repaired record carries the current build's signatures.
            fp.block_counts = sol.counts;
            fp.block_hashes = facts.block_hashes.clone();
            fp.name_hash = facts.name_hash;
            fp.block_opcode_hashes = facts.block_opcode_hashes.clone();
            r.stats.branches_synthesized += sol.branches.len() as u64;
            ctx.replace_branches(fid, sol.branches);
            r.repaired.push(fid);
        }
        r.pruned += prune_func_profile(repo, fid, fp) + prune_branches(ctx);

        // Phase 3: pruning can remove part of a fresh function's branch
        // data (e.g. its caller's inline context vanished), leaving counts
        // that no longer balance. Resynthesize its branch counters from
        // its own (already consistent) counts so the flow lint passes.
        let cfg = &facts.cfg;
        if fresh && self.mode == MatchMode::Full && !flow_violations(fid, cfg, fp, ctx).is_empty() {
            let hints: Vec<Option<u64>> = fp.block_counts.iter().map(|&c| Some(c)).collect();
            let sol = infer_flow(cfg, fp.enter_count, &hints);
            fp.block_counts = sol.counts;
            r.stats.branches_synthesized += sol.branches.len() as u64;
            ctx.replace_branches(fid, sol.branches);
            r.stats.funcs_rebalanced += 1;
            r.repaired.push(fid);
        }
        true
    }

    /// The report over every stage admitted.
    pub fn finish(mut self) -> RepairReport {
        self.stale_drops.sort_unstable();
        self.report.dropped.append(&mut self.stale_drops);
        self.report.repaired.sort_unstable();
        self.report.repaired.dedup();
        self.report
    }
}

/// A whole-body fingerprint: FNV-1a over the opcode-only block hashes.
fn body_hash(block_opcode_hashes: &[u64]) -> u64 {
    let mut h = Fnv::new();
    block_opcode_hashes.iter().for_each(|&hash| h.u64(hash));
    h.finish()
}

/// Drops the instruction-indexed entries of one function profile that the
/// lint's site rules reject. Returns how many.
fn prune_func_profile(repo: &Repo, fid: FuncId, fp: &mut FuncProfile) -> usize {
    fp.retain_call_targets(|site, callee| call_target(repo, fid, site, callee, &mut ignore))
        + fp.retain_types(|at, slot| type_site(repo, fid, at, slot, &mut ignore))
        + fp.retain_prop_classes(|site, class| prop_class(repo, fid, site, class, &mut ignore))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{lint_profile, ProfileView};
    use jit::ProfileCollector;
    use vm::{Value, Vm};

    use bytecode::{BinOp, FuncBuilder, Instr, RepoBuilder};

    /// Builds one program in several "push" variants:
    /// * `guard` — v2 inserts a prologue guard block into `f`,
    /// * `shift` — a dummy function is defined first, renumbering every id,
    /// * `rename` — `f` is defined under a different name.
    fn build_repo_variant(guard: bool, shift: bool, f_name: &str) -> Repo {
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("p.hl");
        if shift {
            let mut d = FuncBuilder::new("dummy", 0);
            d.emit(Instr::Null);
            d.emit(Instr::Ret);
            b.define_func(u, d);
        }
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

        let mut f = FuncBuilder::new(f_name, 1);
        let i = f.new_local();
        if guard {
            // New guard: if (!n) return null — a new entry block shape.
            let go = f.new_label();
            f.emit(Instr::GetL(0));
            f.emit_jmp_nz(go);
            f.emit(Instr::Null);
            f.emit(Instr::Ret);
            f.bind(go);
        }
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

    fn build_repo(v2: bool) -> Repo {
        build_repo_variant(v2, false, "f")
    }

    fn collect(repo: &Repo, n: i64) -> (TierProfile, CtxProfile) {
        let f = repo.func_by_name("f").unwrap().id;
        let mut vm = Vm::new(repo);
        let mut col = ProfileCollector::new(repo);
        vm.call_observed(f, &[Value::Int(n)], &mut col).unwrap();
        col.end_request();
        col.finish()
    }

    fn lint_errors(repo: &Repo, tier: &TierProfile, ctx: &CtxProfile) -> usize {
        lint_profile(
            repo,
            &ProfileView {
                tier,
                ctx,
                unit_order: &[],
                prop_orders: &[],
                func_order: &[],
            },
        )
        .error_count()
    }

    #[test]
    fn fresh_profile_is_untouched() {
        let repo = build_repo(false);
        let (mut tier, mut ctx) = collect(&repo, 10);
        let report = repair_profile(&repo, &mut tier, &mut ctx);
        assert!(report.untouched(), "got {report:?}");
        assert!(report.stats.funcs_fresh >= 2, "got {:?}", report.stats);
    }

    #[test]
    fn stale_profile_is_remapped_onto_new_cfg() {
        let v1 = build_repo(false);
        let v2 = build_repo(true);
        let f2 = v2.func_by_name("f").unwrap().id;
        // Profile collected on v1, consumed against v2.
        let (mut tier, mut ctx) = collect(&v1, 10);
        let loop_mass_before: u64 = tier.funcs[&f2].block_counts.iter().sum();

        let report = repair_profile(&v2, &mut tier, &mut ctx);
        assert!(report.repaired.contains(&f2), "got {report:?}");
        assert!(report.dropped.is_empty());
        assert!(report.stats.blocks_exact > 0, "got {:?}", report.stats);

        let fp = &tier.funcs[&f2];
        let facts = v2.facts(f2);
        assert_eq!(fp.block_counts.len(), facts.cfg.len());
        assert_eq!(fp.block_hashes, facts.block_hashes);
        // The loop blocks are structurally unchanged, so their counter
        // mass survives the remap.
        let mass_after: u64 = fp.block_counts.iter().sum();
        assert!(
            mass_after * 2 >= loop_mass_before,
            "{mass_after} vs {loop_mass_before}"
        );

        // And the repaired profile passes the lint: inference produces
        // flow-consistent counts.
        assert_eq!(lint_errors(&v2, &tier, &ctx), 0);
    }

    #[test]
    fn renumbered_ids_are_recovered_by_name() {
        let v1 = build_repo_variant(false, false, "f");
        let v2 = build_repo_variant(false, true, "f");
        let old_f = v1.func_by_name("f").unwrap().id;
        let new_f = v2.func_by_name("f").unwrap().id;
        assert_ne!(old_f, new_f, "the push renumbered ids");
        let (mut tier, mut ctx) = collect(&v1, 10);
        let mass_before: u64 = tier.funcs[&old_f].block_counts.iter().sum();

        let report = repair_profile(&v2, &mut tier, &mut ctx);
        assert!(report.dropped.is_empty(), "got {report:?}");
        let fp = &tier.funcs[&new_f];
        // Bodies only differ in the renumbered callee id, so the opcode
        // rung matches every block and flow reproduces the counts exactly.
        let mass_after: u64 = fp.block_counts.iter().sum();
        assert_eq!(mass_after, mass_before);
        assert_eq!(lint_errors(&v2, &tier, &ctx), 0);
    }

    #[test]
    fn renamed_function_is_recovered_by_body_fingerprint() {
        let v1 = build_repo_variant(false, false, "f");
        let v2 = build_repo_variant(false, false, "f_renamed");
        let old_f = v1.func_by_name("f").unwrap().id;
        let new_f = v2.func_by_name("f_renamed").unwrap().id;
        let (mut tier, mut ctx) = collect(&v1, 10);
        let mass_before: u64 = tier.funcs[&old_f].block_counts.iter().sum();

        let report = repair_profile(&v2, &mut tier, &mut ctx);
        assert_eq!(report.stats.funcs_renamed, 1, "got {report:?}");
        assert!(report.dropped.is_empty(), "got {report:?}");
        let mass_after: u64 = tier.funcs[&new_f].block_counts.iter().sum();
        assert_eq!(mass_after, mass_before);
        assert_eq!(lint_errors(&v2, &tier, &ctx), 0);
    }

    #[test]
    fn unmatched_mass_drops_the_function() {
        let repo = build_repo(false);
        let (mut tier, mut ctx) = collect(&repo, 10);
        let f = repo.func_by_name("f").unwrap().id;
        // Pretend the profile came from a totally different function body:
        // same name, but no signature at either ladder level matches.
        let fp = tier.funcs.get_mut(&f).unwrap();
        fp.block_counts.push(99);
        for sig in [&mut fp.block_hashes, &mut fp.block_opcode_hashes] {
            sig.push(12345);
            for h in sig.iter_mut() {
                *h ^= 0xffff_ffff;
            }
        }
        let report = repair_profile(&repo, &mut tier, &mut ctx);
        assert!(report.dropped.contains(&f), "got {report:?}");
        assert!(!tier.funcs.contains_key(&f));
        assert!(report.stats.mass_dropped > 0);
    }

    #[test]
    fn duplicate_hashes_pair_in_relative_block_order() {
        // Three old blocks and two new ones, all with one opcode hash and
        // no exact match: pairs go first-to-first, the third old block has
        // no partner left.
        let assigned = match_blocks(
            &[10, 20, 30],
            [(&[1, 2, 3], &[8, 9]), (&[7, 7, 7], &[7, 7])],
        );
        assert_eq!(
            assigned,
            vec![Some((0, LEVEL_OPCODE)), Some((1, LEVEL_OPCODE))]
        );
    }

    #[test]
    fn drop_stale_mode_drops_what_full_mode_repairs() {
        let v1 = build_repo(false);
        let v2 = build_repo(true);
        let f2 = v2.func_by_name("f").unwrap().id;
        let (mut tier, mut ctx) = collect(&v1, 10);
        let report = repair_profile_with(
            &v2,
            &mut tier,
            &mut ctx,
            &RepairOptions {
                mode: MatchMode::DropStale,
            },
        );
        assert!(report.dropped.contains(&f2), "got {report:?}");
        assert!(!tier.funcs.contains_key(&f2));
    }

    #[test]
    fn dangling_functions_are_dropped() {
        let repo = build_repo(false);
        let (mut tier, mut ctx) = collect(&repo, 5);
        let mut phantom = FuncProfile::default();
        phantom.block_counts = vec![4, 2, 1];
        tier.funcs.insert(FuncId::new(1000), phantom);
        let report = repair_profile(&repo, &mut tier, &mut ctx);
        assert_eq!(report.dropped, vec![FuncId::new(1000)]);
        assert!(!tier.funcs.contains_key(&FuncId::new(1000)));
        // A function dropped at identity resolution loses all its blocks.
        assert_eq!(report.stats.blocks_dropped, 3);
        assert_eq!(report.stats.mass_dropped, 7);
    }

    #[test]
    fn phantom_sites_are_pruned() {
        let repo = build_repo(false);
        let (mut tier, mut ctx) = collect(&repo, 5);
        let f = repo.func_by_name("f").unwrap().id;
        let fp = tier.funcs.get_mut(&f).unwrap();
        // Call-target data on a non-call instruction, type data past the
        // end of the function, branch data on a non-branch.
        fp.record_call(0, f, 3);
        fp.record_types(9999, 0, &Default::default());
        ctx.record_branch(None, f, 0, &Default::default());
        let report = repair_profile(&repo, &mut tier, &mut ctx);
        assert!(report.pruned >= 3, "got {report:?}");
        let fp = &tier.funcs[&f];
        assert!(fp.call_targets_at(0).is_empty());
        assert!(fp.type_dist(9999, 0).is_none());
        assert!(!ctx.branches().iter().any(|&(k, _)| k == (f, 0, None)));
    }

    #[test]
    fn impossible_arcs_are_pruned_from_entries() {
        let repo = build_repo(false);
        let (mut tier, mut ctx) = collect(&repo, 5);
        let f = repo.func_by_name("f").unwrap().id;
        let g = repo.func_by_name("g").unwrap().id;
        // Find the real call site in f (the Call to g).
        let site = repo
            .func(f)
            .code
            .iter()
            .position(|i| matches!(i, Instr::Call { .. }))
            .unwrap() as u32;
        // Claim the site also dispatched to f — statically impossible.
        ctx.record_entry(Some((f, site)), f, 7);
        let valid_before = ctx.entry_count(Some((f, site)), g);
        assert!(valid_before > 0);
        let report = repair_profile(&repo, &mut tier, &mut ctx);
        assert!(report.pruned >= 1, "got {report:?}");
        assert_eq!(ctx.entry_count(Some((f, site)), f), 0);
        // The genuine arc survives.
        assert_eq!(ctx.entry_count(Some((f, site)), g), valid_before);
    }
}
