//! Flow-conservation count inference for stale-profile repair.
//!
//! [`flow_violations`] *checks* Kirchhoff flow conservation: every block's
//! execution count must equal the flow into it (function entries for the
//! entry block, predecessor edge counts elsewhere); the lint reports what
//! it finds. This module also inverts that check into **inference**: given a CFG, an entry count, and
//! *partial* per-block count hints recovered by the stale matcher, it
//! constructs an exact integer circulation over the CFG — per-block counts
//! plus per-branch edge splits — that satisfies the same conservation law
//! by construction ("Stale Profile Matching", Ayupov et al.; BOLT's
//! flow-consistent counts, PAPERS.md).
//!
//! The algorithm is a two-phase push:
//!
//! 1. **DAG pass** — distribute `enter_count` from the entry block in
//!    reverse post order over forward edges only, splitting at branches
//!    proportionally to the matched count hints of the successors (with
//!    largest-remainder integer rounding, so no flow is created or lost).
//!    At a loop header the pass prefers loop-*exit* successors: entry flow
//!    leaves a loop exactly as often as it enters, while the in-loop mass
//!    is owed to the back edges handled next.
//! 2. **Cycle pass** — for every back edge `u → v` (in outer-to-inner
//!    order), compute the loop mass still owed to the header `v` from its
//!    hint, push that amount from `v` restricted to blocks that can reach
//!    the latch `u`, and return it along the back edge. Each cycle
//!    addition is itself a circulation, so conservation is preserved
//!    exactly at every step.
//!
//! When the hints are complete and already consistent (e.g. a function
//! whose counts survived but whose branch counters were pruned), the
//! inferred solution reproduces them exactly; when they are partial, the
//! unmatched blocks receive the unique flow the matched neighborhood
//! implies along their paths.

use bytecode::{Cfg, FuncId};
use jit::{BranchCount, CtxProfile, FuncProfile};

/// A flow-consistent counter assignment for one function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowSolution {
    /// Inferred execution count per block (indexed by `BlockId`).
    pub counts: Vec<u64>,
    /// Synthesized branch splits by instruction index, ascending, for
    /// every two-successor block whose outflow is nonzero.
    pub branches: Vec<(u32, BranchCount)>,
}

/// Infers flow-consistent block counts for `cfg` from `enter_count` and
/// per-block matched-count `hints` (`None` = block was not matched).
pub fn infer_flow(cfg: &Cfg, enter_count: u64, hints: &[Option<u64>]) -> FlowSolution {
    let n = cfg.len();
    if n == 0 {
        return FlowSolution::default();
    }
    debug_assert_eq!(hints.len(), n);

    // DFS from the entry: reverse post order + back-edge detection.
    let blocks = cfg.blocks();
    let succs: Vec<Vec<usize>> = blocks
        .iter()
        .map(|b| b.successors().map(|s| s.index()).collect())
        .collect();
    let mut state = vec![0u8; n]; // 0 = white, 1 = gray, 2 = black
    let mut post: Vec<usize> = Vec::with_capacity(n);
    let mut back_edges: Vec<(usize, usize)> = Vec::new(); // (latch, header)
                                                          // Iterative DFS with an explicit (block, next-successor) stack.
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    state[0] = 1;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        if *i < succs[b].len() {
            let s = succs[b][*i];
            *i += 1;
            match state[s] {
                0 => {
                    state[s] = 1;
                    stack.push((s, 0));
                }
                1 => back_edges.push((b, s)),
                _ => {}
            }
        } else {
            state[b] = 2;
            post.push(b);
            stack.pop();
        }
    }
    let order: Vec<usize> = post.iter().rev().copied().collect(); // RPO
    let mut pos = vec![usize::MAX; n];
    for (p, &b) in order.iter().enumerate() {
        pos[b] = p;
    }
    let back: std::collections::HashSet<(usize, usize)> = back_edges.iter().copied().collect();
    // Forward (DAG) successors only; RPO is a topological order for these.
    let dag_succs: Vec<Vec<usize>> = succs
        .iter()
        .enumerate()
        .map(|(b, ss)| {
            ss.iter()
                .copied()
                .filter(|&s| !back.contains(&(b, s)))
                .collect()
        })
        .collect();

    // Per back edge: the set of blocks that can reach the latch over DAG
    // edges (the loop body, for reducible graphs). Union per header gives
    // the header's in-loop successors, which the DAG pass avoids.
    let mut reach_masks: Vec<Vec<bool>> = Vec::with_capacity(back_edges.len());
    for &(latch, _) in &back_edges {
        let mut mask = vec![false; n];
        mask[latch] = true;
        // Reverse reachability over DAG edges, walked in reverse RPO.
        for p in (0..order.len()).rev() {
            let b = order[p];
            if !mask[b] && dag_succs[b].iter().any(|&s| mask[s]) {
                mask[b] = true;
            }
        }
        reach_masks.push(mask);
    }
    let mut in_loop_succ: Vec<Vec<bool>> = vec![vec![false; n]; n];
    let mut is_header = vec![false; n];
    for (be, &(_, header)) in back_edges.iter().enumerate() {
        is_header[header] = true;
        for &s in &dag_succs[header] {
            if reach_masks[be][s] {
                in_loop_succ[header][s] = true;
            }
        }
    }

    let mut total = vec![0u64; n];
    let mut edge_flow: std::collections::HashMap<(usize, usize), u64> =
        std::collections::HashMap::new();

    let push = |start: usize,
                amount: u64,
                restrict: Option<(&[bool], usize)>,
                total: &mut [u64],
                edge_flow: &mut std::collections::HashMap<(usize, usize), u64>| {
        if amount == 0 || pos[start] == usize::MAX {
            return;
        }
        let mut pending = vec![0u64; n];
        pending[start] = amount;
        total[start] += amount;
        for &b in &order[pos[start]..] {
            let f = std::mem::take(&mut pending[b]);
            if f == 0 {
                continue;
            }
            if let Some((_, target)) = restrict {
                if b == target {
                    continue; // absorbed at the latch; returned via the back edge
                }
            }
            let eligible: Vec<usize> = dag_succs[b]
                .iter()
                .copied()
                .filter(|&s| restrict.is_none_or(|(mask, _)| mask[s]))
                .collect();
            if eligible.is_empty() {
                continue; // terminal: flow leaves the function here
            }
            // Hint-proportional weights; at a loop header route the pass's
            // flow to the loop exits (the loop body is fed by back edges).
            let mut weights: Vec<u64> = eligible.iter().map(|&s| hints[s].unwrap_or(0)).collect();
            let mut prefer_exits = false;
            if is_header[b] {
                let mixed = eligible.iter().any(|&s| in_loop_succ[b][s])
                    && eligible.iter().any(|&s| !in_loop_succ[b][s]);
                if mixed {
                    prefer_exits = true;
                    for (w, &s) in weights.iter_mut().zip(&eligible) {
                        if in_loop_succ[b][s] {
                            *w = 0;
                        }
                    }
                }
            }
            if weights.iter().all(|&w| w == 0) {
                // Unhinted: split evenly — but never back into successors the
                // header preference just excluded (the cycle pass feeds those).
                for (w, &s) in weights.iter_mut().zip(&eligible) {
                    if !prefer_exits || !in_loop_succ[b][s] {
                        *w = 1;
                    }
                }
            }
            let wsum: u128 = weights.iter().map(|&w| w as u128).sum();
            let mut given = 0u64;
            let mut amounts: Vec<u64> = weights
                .iter()
                .map(|&w| {
                    let a = ((f as u128 * w as u128) / wsum) as u64;
                    given += a;
                    a
                })
                .collect();
            // Largest-remainder: hand the rounding slack to the heaviest arm.
            if given < f {
                let heaviest = weights
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &w)| (w, std::cmp::Reverse(i)))
                    .map(|(i, _)| i)
                    .unwrap();
                amounts[heaviest] += f - given;
            }
            for (&s, &a) in eligible.iter().zip(&amounts) {
                if a > 0 {
                    *edge_flow.entry((b, s)).or_insert(0) += a;
                    pending[s] += a;
                    total[s] += a;
                }
            }
        }
    };

    // Phase 1: distribute the entry mass over the DAG.
    push(0, enter_count, None, &mut total, &mut edge_flow);

    // Phase 2: cycle flows, outermost headers first (ascending RPO).
    let mut ordered: Vec<usize> = (0..back_edges.len()).collect();
    ordered.sort_by_key(|&i| (pos[back_edges[i].1], pos[back_edges[i].0]));
    for be in ordered {
        let (latch, header) = back_edges[be];
        let owed = match (hints[header], hints[latch]) {
            (Some(h), _) => h.saturating_sub(total[header]),
            (None, Some(h)) => h.saturating_sub(total[latch]),
            (None, None) => 0,
        };
        if owed == 0 {
            continue;
        }
        if latch == header {
            // Self-loop: the circulation is the back edge itself.
            total[header] += owed;
            *edge_flow.entry((latch, header)).or_insert(0) += owed;
            continue;
        }
        if !reach_masks[be][header] {
            continue; // irreducible region the DAG cannot thread; leave it
        }
        push(
            header,
            owed,
            Some((&reach_masks[be], latch)),
            &mut total,
            &mut edge_flow,
        );
        *edge_flow.entry((latch, header)).or_insert(0) += owed;
    }

    // Synthesize branch splits from the edge flows.
    let mut branches = Vec::new();
    for (bi, b) in blocks.iter().enumerate() {
        if let (Some(t), Some(ft)) = (b.taken, b.fallthrough) {
            let at = b.end - 1;
            let (taken, not_taken) = if t == ft {
                (edge_flow.get(&(bi, t.index())).copied().unwrap_or(0), 0)
            } else {
                (
                    edge_flow.get(&(bi, t.index())).copied().unwrap_or(0),
                    edge_flow.get(&(bi, ft.index())).copied().unwrap_or(0),
                )
            };
            if taken + not_taken > 0 {
                branches.push((at, BranchCount { taken, not_taken }));
            }
        }
    }

    FlowSolution {
        counts: total,
        branches,
    }
}

/// The Kirchhoff check of one function: each block's execution count must
/// equal the flow into it (function entries for b0, predecessor edge
/// counts elsewhere). Edge counts come from the context profile's branch
/// counters aggregated over contexts; a block fed by a branch that was
/// never recorded, or whose outcomes disagree with its block, is skipped
/// as indeterminate rather than flagged. `fp` holds one counter per block
/// of `cfg`. Returns one message per violation: the lint reports each, and
/// the stale repair rebalances a function that has any.
pub fn flow_violations(fid: FuncId, cfg: &Cfg, fp: &FuncProfile, ctx: &CtxProfile) -> Vec<String> {
    let n = cfg.len();
    let mut out = Vec::new();
    let mut inflow = vec![0u64; n];
    let mut indeterminate = vec![false; n];
    inflow[0] = inflow[0].saturating_add(fp.enter_count);
    for (block, &count) in cfg.blocks().iter().zip(&fp.block_counts) {
        match (block.taken, block.fallthrough) {
            (Some(t), Some(ft)) => {
                let at = block.end - 1;
                let bc = ctx.aggregate_branch(fid, at);
                if bc.total() == 0 {
                    // No branch data: can't split this block's outflow.
                    if count > 0 {
                        indeterminate[t.index()] = true;
                        indeterminate[ft.index()] = true;
                    }
                } else if bc.total() != count {
                    out.push(format!(
                        "branch at instr {at} recorded {} outcomes but its block executed {count} times",
                        bc.total()
                    ));
                    indeterminate[t.index()] = true;
                    indeterminate[ft.index()] = true;
                } else {
                    inflow[t.index()] = inflow[t.index()].saturating_add(bc.taken);
                    inflow[ft.index()] = inflow[ft.index()].saturating_add(bc.not_taken);
                }
            }
            (Some(s), None) | (None, Some(s)) => {
                inflow[s.index()] = inflow[s.index()].saturating_add(count);
            }
            (None, None) => {}
        }
    }
    for (block, &count) in fp.block_counts.iter().enumerate().take(n) {
        if !indeterminate[block] && inflow[block] != count {
            out.push(format!(
                "block {block} executed {count} times but flow in is {}",
                inflow[block]
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytecode::{BinOp, Func, FuncBuilder, Instr, RepoBuilder};

    fn diamond() -> Func {
        // b0: cond -> b1 / b2; both join at b3.
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("t.hl");
        let mut f = FuncBuilder::new("d", 1);
        let els = f.new_label();
        let end = f.new_label();
        f.emit(Instr::GetL(0));
        f.emit_jmp_z(els);
        f.emit(Instr::Int(1));
        f.emit_jmp(end);
        f.bind(els);
        f.emit(Instr::Int(2));
        f.bind(end);
        f.emit(Instr::Ret);
        let fid = b.define_func(u, f);
        b.finish().func(fid).clone()
    }

    fn looped() -> Func {
        // b0: init; b1: header cond -> exit b3; b2: body, jmp b1.
        let mut b = RepoBuilder::new();
        let u = b.declare_unit("t.hl");
        let mut f = FuncBuilder::new("l", 1);
        let head = f.new_label();
        let exit = f.new_label();
        f.emit(Instr::Int(0));
        f.emit(Instr::SetL(0));
        f.bind(head);
        f.emit(Instr::GetL(0));
        f.emit_jmp_z(exit);
        f.emit(Instr::GetL(0));
        f.emit(Instr::Int(1));
        f.emit(Instr::Bin(BinOp::Sub));
        f.emit(Instr::SetL(0));
        f.emit_jmp(head);
        f.bind(exit);
        f.emit(Instr::Ret);
        let fid = b.define_func(u, f);
        b.finish().func(fid).clone()
    }

    fn consistent(cfg: &Cfg, enter: u64, sol: &FlowSolution) -> bool {
        let n = cfg.len();
        let mut inflow = vec![0u64; n];
        inflow[0] += enter;
        let by_at: std::collections::HashMap<u32, (u64, u64)> = sol
            .branches
            .iter()
            .map(|&(at, b)| (at, (b.taken, b.not_taken)))
            .collect();
        for (bi, b) in cfg.blocks().iter().enumerate() {
            match (b.taken, b.fallthrough) {
                (Some(t), Some(ft)) => {
                    let (bt, bnt) = by_at.get(&(b.end - 1)).copied().unwrap_or((0, 0));
                    if bt + bnt != sol.counts[bi] {
                        return false;
                    }
                    inflow[t.index()] += bt;
                    inflow[ft.index()] += bnt;
                }
                (Some(s), None) | (None, Some(s)) => inflow[s.index()] += sol.counts[bi],
                (None, None) => {}
            }
        }
        (0..n).all(|b| inflow[b] == sol.counts[b])
    }

    #[test]
    fn complete_consistent_hints_are_reproduced_exactly() {
        let f = looped();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.len(), 4);
        // 30 entries, 1200 total iterations, 30 exits.
        let hints = vec![Some(30), Some(1230), Some(1200), Some(30)];
        let sol = infer_flow(&cfg, 30, &hints);
        assert_eq!(sol.counts, vec![30, 1230, 1200, 30]);
        assert!(consistent(&cfg, 30, &sol));
    }

    #[test]
    fn partial_hints_fill_in_flow_consistently() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.len(), 4);
        // Only the arms are known: 70 vs 30. The entry and join are inferred.
        let hints = vec![None, Some(70), Some(30), None];
        let sol = infer_flow(&cfg, 100, &hints);
        assert_eq!(sol.counts, vec![100, 70, 30, 100]);
        assert!(consistent(&cfg, 100, &sol));
    }

    #[test]
    fn no_hints_still_yields_a_consistent_flow() {
        for func in [diamond(), looped()] {
            let cfg = Cfg::build(&func);
            let hints = vec![None; cfg.len()];
            let sol = infer_flow(&cfg, 64, &hints);
            assert!(consistent(&cfg, 64, &sol), "{}", func.id.index());
            assert_eq!(sol.counts[0], 64);
        }
    }

    #[test]
    fn zero_enter_count_is_all_zero() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        let sol = infer_flow(&cfg, 0, &vec![None; cfg.len()]);
        assert!(sol.counts.iter().all(|&c| c == 0));
        assert!(sol.branches.is_empty());
    }

    #[test]
    fn flow_violations_names_the_branch_and_the_blocks() {
        let f = diamond();
        let cfg = Cfg::build(&f);
        let sol = infer_flow(&cfg, 100, &[None, Some(70), Some(30), None]);
        let mut fp = FuncProfile::default();
        (fp.enter_count, fp.block_counts) = (100, sol.counts);
        let mut ctx = CtxProfile::default();
        ctx.replace_branches(f.id, sol.branches);
        let check = |fp: &FuncProfile| flow_violations(f.id, &cfg, fp, &ctx);
        assert!(check(&fp).is_empty());
        // A join block counted 5 extra times: only that block is flagged.
        fp.block_counts[3] += 5;
        assert_eq!(
            check(&fp),
            ["block 3 executed 105 times but flow in is 100"]
        );
        // An entry block that disagrees with its branch: the branch is
        // flagged and both arms become indeterminate.
        (fp.block_counts[3], fp.block_counts[0]) = (100, 101);
        assert_eq!(
            check(&fp),
            [
                "branch at instr 1 recorded 100 outcomes but its block executed 101 times",
                "block 0 executed 101 times but flow in is 100",
            ]
        );
    }
}
