//! Stale-profile repair: re-identifying and remapping counters collected
//! against an older build onto the current code.
//!
//! At scale, a consumer's repo is often one push ahead of the package it
//! downloads (the paper tolerates this on purpose — §VII-C shows profiles
//! stay useful for days of pushes). Most functions are untouched by a
//! push, so most of the package is still exact; the functions that *did*
//! change have counters indexed by ids and block positions that no longer
//! exist. This module salvages the package instead of discarding it, in
//! three phases ("Stale Profile Matching", Ayupov et al., PAPERS.md):
//!
//! 1. **Function identity** — ids renumber wholesale across builds, so
//!    profiled functions are re-identified by *name hash* first, then (for
//!    renamed functions) by a unique whole-body opcode fingerprint. Call
//!    targets and context keys are rewritten through the resulting old→new
//!    id map; functions that resolve to nothing are dropped.
//! 2. **Block matching ladder** — each surviving function's blocks are
//!    matched against the current [`bytecode::Cfg`] at two levels of
//!    decreasing strictness: exact structural hash, then opcode-only hash
//!    (survives edited immediates). Each level pairs equal hashes in
//!    relative block order, so duplicate bodies line up first-to-first.
//! 3. **Flow-conservation inference** — matched counts become *hints* to
//!    [`crate::flow::infer_flow`], which constructs an exact integer
//!    circulation over the new CFG. Unmatched regions get consistent
//!    inferred counts instead of zeros, branch splits are synthesized from
//!    the edge flows, and every repaired function passes the same
//!    Kirchhoff flow lint as a fresh one.
//!
//! Functions whose counter mass mostly lands on unmatched blocks are still
//! dropped (`MIN_MATCHED_MASS`), and instruction-indexed counters (call
//! targets, types, branch outcomes) that no longer point at a matching
//! profile point are pruned, as before.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use bytecode::{Cfg, Fnv, FuncId, Instr, Repo};
use jit::{CtxProfile, FuncProfile, TierProfile, PARAM_SITE};

use crate::callgraph::CallGraph;
use crate::flow::{flow_violations, infer_flow};

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
/// After a successful repair the profile passes the *strict* lint rules,
/// including flow conservation: matched counts are turned into an exact
/// integer circulation and branch counters are resynthesized from its edge
/// flows, so repaired functions balance just like fresh ones.
pub fn repair_profile(repo: &Repo, tier: &mut TierProfile, ctx: &mut CtxProfile) -> RepairReport {
    repair_profile_with(repo, tier, ctx, &RepairOptions::default())
}

/// [`repair_profile`] with an explicit [`MatchMode`].
pub fn repair_profile_with(
    repo: &Repo,
    tier: &mut TierProfile,
    ctx: &mut CtxProfile,
    opts: &RepairOptions,
) -> RepairReport {
    let mut report = RepairReport::default();
    let graph = CallGraph::build(repo);

    // ---- Phase 1: function identity --------------------------------
    resolve_identities(repo, tier, ctx, opts.mode, &mut report);

    // ---- Phase 2: per-function block matching + flow inference -----
    let mut fids: Vec<FuncId> = tier.funcs.keys().copied().collect();
    fids.sort_by_key(|f| f.index());
    let mut stale_drops = Vec::new();
    for fid in fids {
        let fp = tier.funcs.get_mut(&fid).expect("resolved id");
        let func = repo.func(fid);
        let cfg = Cfg::build(func);
        let cur_exact = cfg.block_hashes(func, repo);
        let fresh = fp.block_counts.len() == cfg.len()
            && (fp.block_hashes.is_empty() || fp.block_hashes == cur_exact);
        if fresh {
            report.stats.funcs_fresh += 1;
            report.pruned += prune_func_profile(repo, &graph, fid, fp);
            continue;
        }
        let total: u64 = fp.block_counts.iter().sum();
        match opts.mode {
            MatchMode::DropStale => {
                report.stats.blocks_dropped += fp.block_counts.len() as u64;
                report.stats.mass_dropped += total;
                stale_drops.push(fid);
                continue;
            }
            MatchMode::Full => {
                let cur_opcode = cfg.block_opcode_hashes(func);
                let assigned = match_blocks(
                    &fp.block_counts,
                    [
                        (fp.block_hashes.as_slice(), cur_exact.as_slice()),
                        (fp.block_opcode_hashes.as_slice(), cur_opcode.as_slice()),
                    ],
                );
                let matched: u64 = assigned
                    .iter()
                    .flatten()
                    .map(|&(i, _)| fp.block_counts[i])
                    .sum();
                if total > 0 && (matched as f64) < MIN_MATCHED_MASS * total as f64 {
                    report.stats.blocks_dropped += fp.block_counts.len() as u64;
                    report.stats.mass_dropped += total;
                    stale_drops.push(fid);
                    continue;
                }
                let mut matched_old = vec![false; fp.block_counts.len()];
                let hints: Vec<Option<u64>> = assigned
                    .iter()
                    .map(|a| {
                        a.map(|(i, _)| {
                            matched_old[i] = true;
                            fp.block_counts[i]
                        })
                    })
                    .collect();
                for a in assigned.iter().flatten() {
                    match a.1 {
                        LEVEL_EXACT => report.stats.blocks_exact += 1,
                        LEVEL_OPCODE => report.stats.blocks_opcode += 1,
                        level => unreachable!("the ladder has two levels, got {level}"),
                    }
                }
                report.stats.blocks_dropped += matched_old.iter().filter(|&&m| !m).count() as u64;
                report.stats.mass_matched += matched;
                report.stats.mass_dropped += total - matched;

                let sol = infer_flow(&cfg, fp.enter_count, &hints);
                report.stats.blocks_inferred += sol
                    .counts
                    .iter()
                    .zip(&hints)
                    .filter(|&(&c, h)| h.is_none() && c > 0)
                    .count() as u64;
                fp.block_counts = sol.counts;
                fp.block_hashes = cur_exact;
                refresh_signatures(repo, fid, fp, &cfg);
                report.stats.branches_synthesized += sol.branches.len() as u64;
                ctx.replace_branches(fid, sol.branches);
                report.repaired.push(fid);
            }
        }
        let fp = tier.funcs.get_mut(&fid).expect("still present");
        report.pruned += prune_func_profile(repo, &graph, fid, fp);
    }
    stale_drops.sort_by_key(|f| f.index());
    for f in &stale_drops {
        tier.funcs.remove(f);
    }
    report.dropped.extend(stale_drops);

    report.pruned += prune_ctx(repo, &graph, ctx);

    // ---- Phase 3: flow rebalance -----------------------------------
    // Pruning can remove part of a fresh function's branch data (e.g. its
    // caller's inline context vanished), leaving counts that no longer
    // balance. Resynthesize those functions' branch counters from their
    // own (already consistent) counts so the strict flow lint passes.
    if opts.mode == MatchMode::Full {
        let mut fids: Vec<FuncId> = tier.funcs.keys().copied().collect();
        fids.sort_by_key(|f| f.index());
        let repaired: HashSet<FuncId> = report.repaired.iter().copied().collect();
        for fid in fids {
            if repaired.contains(&fid) {
                continue; // consistent by construction
            }
            let fp = tier.funcs.get_mut(&fid).expect("present");
            let cfg = Cfg::build(repo.func(fid));
            if flow_violations(fid, &cfg, fp, ctx).is_empty() {
                continue;
            }
            let hints: Vec<Option<u64>> = fp.block_counts.iter().map(|&c| Some(c)).collect();
            let sol = infer_flow(&cfg, fp.enter_count, &hints);
            fp.block_counts = sol.counts;
            report.stats.branches_synthesized += sol.branches.len() as u64;
            ctx.replace_branches(fid, sol.branches);
            report.stats.funcs_rebalanced += 1;
            report.repaired.push(fid);
        }
    }

    report.repaired.sort_by_key(|f| f.index());
    report.repaired.dedup();
    // Counters were dropped/remapped in place; any cached heat ranking on
    // the profile is stale now.
    tier.mark_counters_dirty();
    report
}

/// Re-keys the tier/ctx onto current-build function ids.
///
/// Legacy profiles (no `name_hash`) keep id-as-is semantics: in-range ids
/// are trusted, out-of-range ids are dropped. v5 profiles are re-keyed by
/// name hash; still-unresolved ones get one more chance via a unique
/// whole-body opcode fingerprint (catches renamed-but-unchanged functions).
fn resolve_identities(
    repo: &Repo,
    tier: &mut TierProfile,
    ctx: &mut CtxProfile,
    mode: MatchMode,
    report: &mut RepairReport,
) {
    let func_count = repo.funcs().len();
    let full = mode == MatchMode::Full;

    let mut by_name: HashMap<u64, Option<FuncId>> = HashMap::new();
    let mut by_body: HashMap<u64, Option<FuncId>> = HashMap::new();
    if full {
        for f in repo.funcs() {
            let name_hash = bytecode::fnv_str(repo.str(f.name));
            by_name
                .entry(name_hash)
                .and_modify(|e| *e = None) // ambiguous name: never match on it
                .or_insert(Some(f.id));
            let cfg = Cfg::build(f);
            let mut h = Fnv::new();
            for hash in cfg.block_opcode_hashes(f) {
                h.u64(hash);
            }
            by_body
                .entry(h.finish())
                .and_modify(|e| *e = None) // ambiguous body: never match on it
                .or_insert(Some(f.id));
        }
    }

    let mut old_fids: Vec<FuncId> = tier.funcs.keys().copied().collect();
    old_fids.sort_by_key(|f| f.index());
    let mut claimed: HashSet<FuncId> = HashSet::new();
    let mut resolved: Vec<(FuncId, FuncId)> = Vec::new();
    let mut second_chance: Vec<FuncId> = Vec::new();
    for &fid in &old_fids {
        let fp = &tier.funcs[&fid];
        let target = if full && fp.name_hash != 0 {
            by_name.get(&fp.name_hash).copied().flatten()
        } else if fid.index() < func_count {
            Some(fid)
        } else {
            None
        };
        match target {
            Some(nf) if claimed.insert(nf) => resolved.push((fid, nf)),
            _ if full && fp.name_hash != 0 => second_chance.push(fid),
            _ => {
                report.stats.blocks_dropped += fp.block_counts.len() as u64;
                report.stats.mass_dropped += fp.block_counts.iter().sum::<u64>();
                report.dropped.push(fid);
            }
        }
    }
    // Renamed functions: a unique, unchanged body is identity enough.
    for fid in second_chance {
        let fp = &tier.funcs[&fid];
        let target = (!fp.block_opcode_hashes.is_empty())
            .then(|| {
                let mut h = Fnv::new();
                for &hash in &fp.block_opcode_hashes {
                    h.u64(hash);
                }
                by_body.get(&h.finish()).copied().flatten()
            })
            .flatten();
        match target {
            Some(nf) if claimed.insert(nf) => {
                report.stats.funcs_renamed += 1;
                resolved.push((fid, nf));
            }
            _ => {
                report.stats.blocks_dropped += fp.block_counts.len() as u64;
                report.stats.mass_dropped += fp.block_counts.iter().sum::<u64>();
                report.dropped.push(fid);
            }
        }
    }
    report.dropped.sort_by_key(|f| f.index());

    // `claimed` keeps the renaming one-to-one: no two profiles share an id.
    let moved: HashMap<FuncId, FuncId> = resolved.iter().copied().filter(|(o, n)| o != n).collect();
    let map = |f: FuncId| moved.get(&f).copied().unwrap_or(f);
    let mut old = std::mem::take(&mut tier.funcs);
    for (fid, new) in resolved {
        let mut fp = old.remove(&fid).expect("resolved from the tier");
        if !moved.is_empty() {
            fp.remap_callees(map);
        }
        tier.funcs.insert(new, fp);
    }
    if !moved.is_empty() {
        ctx.remap_funcs(map);
    }
}

/// Refreshes a repaired profile's stored signatures to the current build.
fn refresh_signatures(repo: &Repo, fid: FuncId, fp: &mut FuncProfile, cfg: &Cfg) {
    let func = repo.func(fid);
    fp.name_hash = bytecode::fnv_str(repo.str(func.name));
    fp.block_opcode_hashes = cfg.block_opcode_hashes(func);
}

/// Drops instruction-indexed entries of one function profile whose
/// profile point doesn't exist in the current code. Returns how many.
fn prune_func_profile(repo: &Repo, graph: &CallGraph, fid: FuncId, fp: &mut FuncProfile) -> usize {
    let func = repo.func(fid);
    let func_count = repo.funcs().len();
    let class_count = repo.classes().len();
    let instr = |at: u32| func.code.get(at as usize);

    let mut pruned = fp.retain_call_targets(|site, callee| {
        matches!(
            instr(site),
            Some(Instr::Call { .. } | Instr::CallMethod { .. })
        ) && callee.index() < func_count
            && graph.can_call(fid, site, callee)
    });
    pruned += fp.retain_types(|at, slot| {
        if at == PARAM_SITE {
            (slot as u16) < func.params && slot < 8
        } else {
            slot <= 1 && matches!(instr(at), Some(Instr::Bin(_)))
        }
    });
    pruned += fp.retain_prop_classes(|site, class| {
        matches!(instr(site), Some(Instr::GetProp(_) | Instr::SetProp(_)))
            && class.index() < class_count
    });
    pruned
}

fn prune_ctx(repo: &Repo, graph: &CallGraph, ctx: &mut CtxProfile) -> usize {
    let func_count = repo.funcs().len();
    let ctx_ok = |ictx: jit::InlineCtx| match ictx {
        None => true,
        Some((caller, site)) => {
            caller.index() < func_count
                && matches!(
                    repo.func(caller).code.get(site as usize),
                    Some(Instr::Call { .. } | Instr::CallMethod { .. })
                )
        }
    };
    let pruned = ctx.retain_branches(|ictx, f, at| {
        ctx_ok(ictx)
            && f.index() < func_count
            && matches!(
                repo.func(f).code.get(at as usize),
                Some(Instr::JmpZ(_) | Instr::JmpNZ(_))
            )
    });
    pruned
        + ctx.retain_entries(|ictx, callee| {
            if callee.index() >= func_count || !ctx_ok(ictx) {
                return false;
            }
            match ictx {
                None => true,
                Some((caller, site)) => graph.can_call(caller, site, callee),
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{lint_profile_with, LintOptions, ProfileView};
    use jit::ProfileCollector;
    use vm::{Value, Vm};

    use bytecode::{BinOp, FuncBuilder, RepoBuilder};

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

    fn strict_lint_errors(repo: &Repo, tier: &TierProfile, ctx: &CtxProfile) -> usize {
        lint_profile_with(
            repo,
            &ProfileView {
                tier,
                ctx,
                unit_order: &[],
                prop_orders: &[],
                func_order: &[],
            },
            &LintOptions {
                flow_conservation: true,
                type_feasibility: false,
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
        let cfg = Cfg::build(v2.func(f2));
        assert_eq!(fp.block_counts.len(), cfg.len());
        assert_eq!(fp.block_hashes, cfg.block_hashes(v2.func(f2), &v2));
        // The loop blocks are structurally unchanged, so their counter
        // mass survives the remap.
        let mass_after: u64 = fp.block_counts.iter().sum();
        assert!(
            mass_after * 2 >= loop_mass_before,
            "{mass_after} vs {loop_mass_before}"
        );

        // And the repaired profile passes the *strict* lint: inference
        // produces flow-consistent counts, so flow conservation stays on.
        assert_eq!(strict_lint_errors(&v2, &tier, &ctx), 0);
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
        assert_eq!(strict_lint_errors(&v2, &tier, &ctx), 0);
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
        assert_eq!(strict_lint_errors(&v2, &tier, &ctx), 0);
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
