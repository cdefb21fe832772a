//! Ext-TSP basic-block reordering.
//!
//! The Extended-TSP objective (Newell & Pupyrev, "Improved Basic Block
//! Reordering") scores a layout by expected locality benefit:
//!
//! * a fallthrough edge (branch lands exactly at the end of its source)
//!   earns its full weight,
//! * a short **forward** jump earns `forward_weight * w * (1 - d/forward_dist)`,
//! * a short **backward** jump earns `backward_weight * w * (1 - d/backward_dist)`,
//! * long jumps earn nothing.
//!
//! The optimizer greedily merges chains of blocks while any merge improves
//! the score, considering only chain pairs that an edge joins, then
//! concatenates remaining chains by hotness density. The entry block is
//! pinned at the front (HHVM's translations are entered at the top).

/// A block to lay out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockNode {
    /// Code size in bytes.
    pub size: u32,
    /// Execution count.
    pub weight: u64,
}

/// A weighted branch between blocks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockEdge {
    /// Source block index.
    pub src: usize,
    /// Destination block index.
    pub dst: usize,
    /// Number of times the branch was taken.
    pub weight: u64,
}

/// Tunables of the Ext-TSP objective (defaults follow the paper).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExtTspParams {
    /// Multiplier for short forward jumps.
    pub forward_weight: f64,
    /// Multiplier for short backward jumps.
    pub backward_weight: f64,
    /// Maximum rewarded forward-jump distance, in bytes.
    pub forward_dist: u64,
    /// Maximum rewarded backward-jump distance, in bytes.
    pub backward_dist: u64,
}

/// Above this block count the optimizer falls back to greedy fallthrough
/// chaining, which bounds one function's planning time: the merge loop
/// scans every neighbour entry per merge, so its cost grows quadratically —
/// on chain-shaped CFGs with 1.1 edges per block, 1.5 ms at 400 blocks,
/// 21 ms at 2 000 and 0.63 s at 10 000. No bench unit exceeds 61 blocks.
const MAX_EXACT_BLOCKS: usize = 400;

impl Default for ExtTspParams {
    fn default() -> Self {
        Self {
            forward_weight: 0.1,
            backward_weight: 0.1,
            forward_dist: 1024,
            backward_dist: 640,
        }
    }
}

/// Scores a complete layout under the Ext-TSP objective.
pub fn exttsp_score(
    blocks: &[BlockNode],
    edges: &[BlockEdge],
    order: &[usize],
    params: &ExtTspParams,
) -> f64 {
    let mut start = vec![0u64; blocks.len()];
    let mut pos = 0u64;
    for &b in order {
        start[b] = pos;
        pos += blocks[b].size as u64;
    }
    let mut score = 0.0;
    for e in edges {
        if e.weight == 0 {
            continue;
        }
        let src_end = start[e.src] + blocks[e.src].size as u64;
        let dst = start[e.dst];
        let w = e.weight as f64;
        if dst == src_end {
            score += w;
        } else if dst > src_end {
            let d = dst - src_end;
            if d < params.forward_dist {
                score += params.forward_weight * w * (1.0 - d as f64 / params.forward_dist as f64);
            }
        } else {
            let d = src_end - dst;
            if d < params.backward_dist {
                score +=
                    params.backward_weight * w * (1.0 - d as f64 / params.backward_dist as f64);
            }
        }
    }
    score
}

/// Contribution of one laid-out edge to the Ext-TSP objective: full weight
/// for an exact fallthrough, decayed weight for short forward/backward
/// jumps, nothing for long jumps. Shared by the scorer and the optimizer so
/// both produce bit-identical sums.
#[inline]
fn edge_gain(src_end: u64, dst: u64, w: f64, params: &ExtTspParams) -> f64 {
    if dst == src_end {
        w
    } else if dst > src_end {
        let d = dst - src_end;
        if d < params.forward_dist {
            params.forward_weight * w * (1.0 - d as f64 / params.forward_dist as f64)
        } else {
            0.0
        }
    } else {
        let d = src_end - dst;
        if d < params.backward_dist {
            params.backward_weight * w * (1.0 - d as f64 / params.backward_dist as f64)
        } else {
            0.0
        }
    }
}

/// Computes a block order maximizing the Ext-TSP score (greedy chain
/// merging). Block `0` (the entry) is always first in the result.
///
/// The greedy objective is identical to [`exttsp_order_reference`], but the
/// inner loop is incremental and sparse: chain scores are cached when a
/// chain is created, and the only pairs ever scored are chains that share
/// an edge (two chains no edge joins gain exactly nothing). Each chain keeps
/// its neighbours' gains in a list sorted by chain id; a merge folds the
/// absorbed chain's list into the survivor's and rescores just those pairs.
/// A pair is scored by walking the edges adjacent to the two chains in
/// global edge order, so every floating-point sum is performed in exactly
/// the reference order — the result is **bit-identical**, which the
/// consumer's code-cache layout digest depends on.
///
/// # Panics
///
/// Panics if an edge references a block index out of range.
pub fn exttsp_order(
    blocks: &[BlockNode],
    edges: &[BlockEdge],
    params: &ExtTspParams,
) -> Vec<usize> {
    let n = blocks.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let _span = telemetry::span!("exttsp-order", "blocks" => n, "edges" => edges.len());
    for e in edges {
        assert!(e.src < n && e.dst < n, "edge references unknown block");
    }
    if n > MAX_EXACT_BLOCKS {
        return greedy_fallthrough(blocks, edges);
    }

    // Chains, each a list of block indices; chain_of maps block -> chain id.
    let mut chains: Vec<Option<Vec<usize>>> = (0..n).map(|b| Some(vec![b])).collect();
    let mut chain_of: Vec<usize> = (0..n).collect();
    // Byte offset of each block within its chain, and each chain's size.
    let mut pos: Vec<u64> = vec![0; n];
    let mut chain_size: Vec<u64> = blocks.iter().map(|b| b.size as u64).collect();
    // Edge indices adjacent to each chain, ascending (global edge order).
    let mut touch: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        touch[e.src].push(i as u32);
        if e.dst != e.src {
            touch[e.dst].push(i as u32);
        }
    }

    // Score of the concatenation a ++ b (or of a alone when a == b),
    // summing edge contributions in ascending global edge index — the
    // exact iteration order of the reference `chain_score`.
    let merged_score = |a: usize,
                        b: usize,
                        chain_of: &[usize],
                        pos: &[u64],
                        chain_size: &[u64],
                        touch: &[Vec<u32>]|
     -> f64 {
        let place = |blk: usize| -> Option<u64> {
            let c = chain_of[blk];
            if c == a {
                Some(pos[blk])
            } else if c == b {
                Some(chain_size[a] + pos[blk])
            } else {
                None
            }
        };
        let mut s = 0.0;
        for ei in union_sorted(&touch[a], &touch[b]) {
            let e = &edges[ei as usize];
            let (Some(sp), Some(dp)) = (place(e.src), place(e.dst)) else {
                continue;
            };
            s += edge_gain(sp + blocks[e.src].size as u64, dp, e.weight as f64, params);
        }
        s
    };

    // Cached per-chain scores (singletons only see their self-loops).
    let mut score: Vec<f64> = (0..n)
        .map(|c| merged_score(c, c, &chain_of, &pos, &chain_size, &touch))
        .collect();

    // Gain of appending chain b after chain a. It depends only on the
    // contents of the two chains. The entry's chain can only be a prefix
    // and is never appended, so it stays chain 0 for the whole loop.
    let pair_gain = |a: usize,
                     b: usize,
                     chain_of: &[usize],
                     pos: &[u64],
                     chain_size: &[u64],
                     touch: &[Vec<u32>],
                     score: &[f64]|
     -> f64 {
        if b == 0 {
            return f64::NEG_INFINITY;
        }
        merged_score(a, b, chain_of, pos, chain_size, touch) - score[a] - score[b]
    };
    // Per chain a, the chains an edge joins it to, ascending by id, each
    // with gain(a -> c). The relation is symmetric: c is in nbr[a] exactly
    // when a is in nbr[c]. A dead chain's list is empty.
    let mut nbr: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for e in edges {
        if e.src != e.dst {
            nbr[e.src].push((e.dst, 0.0));
            nbr[e.dst].push((e.src, 0.0));
        }
    }
    for (a, list) in nbr.iter_mut().enumerate() {
        list.sort_unstable_by_key(|&(c, _)| c);
        list.dedup_by_key(|&mut (c, _)| c);
        for (c, g) in list {
            *g = pair_gain(a, *c, &chain_of, &pos, &chain_size, &touch, &score);
        }
    }

    loop {
        // Find the best merge (a, b) -> concat(a, b): the reference's scan
        // order and strict `>` tie-break, restricted to joined pairs.
        let mut best: Option<(usize, usize, f64)> = None;
        for (a, list) in nbr.iter().enumerate() {
            for &(b, g) in list {
                if g > 1e-9 && best.is_none_or(|(_, _, bg)| g > bg) {
                    best = Some((a, b, g));
                }
            }
        }
        let Some((a, b, _)) = best else { break };
        // The merged chain keeps slot `a`; its score is the pair score we
        // already agreed on (recomputed — still bit-identical).
        let new_score = merged_score(a, b, &chain_of, &pos, &chain_size, &touch);
        let cb = chains[b].take().expect("live");
        let shift = chain_size[a];
        for &blk in &cb {
            chain_of[blk] = a;
            pos[blk] += shift;
        }
        chain_size[a] += chain_size[b];
        score[a] = new_score;
        let tb = std::mem::take(&mut touch[b]);
        let ta = std::mem::take(&mut touch[a]);
        touch[a] = union_sorted(&ta, &tb).collect();
        chains[a].as_mut().expect("live").extend(cb);
        // Only pairs involving the merged chain changed: b's neighbours
        // become a's, each of them renames b to a, and both directions of
        // every such pair are rescored.
        let mut merged = std::mem::take(&mut nbr[a]);
        merged.append(&mut nbr[b]);
        merged.retain(|&(c, _)| c != a && c != b);
        merged.sort_unstable_by_key(|&(c, _)| c);
        merged.dedup_by_key(|&mut (c, _)| c);
        for (c, g) in &mut merged {
            *g = pair_gain(a, *c, &chain_of, &pos, &chain_size, &touch, &score);
            let back = pair_gain(*c, a, &chain_of, &pos, &chain_size, &touch, &score);
            let list = &mut nbr[*c];
            list.retain(|&(x, _)| x != a && x != b);
            let at = list.partition_point(|&(x, _)| x < a);
            list.insert(at, (a, back));
        }
        nbr[a] = merged;
    }

    concat_chains(chains, blocks)
}

/// Ascending union of two ascending `u32` lists, duplicates dropped.
fn union_sorted<'a>(a: &'a [u32], b: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
    let (mut i, mut j) = (0usize, 0usize);
    std::iter::from_fn(move || {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => return None,
        };
        i += usize::from(a.get(i) == Some(&next));
        j += usize::from(b.get(j) == Some(&next));
        Some(next)
    })
}

/// Final concatenation: the entry chain first, then the rest by hotness
/// density (shared by the fast path and the reference implementation).
fn concat_chains(chains: Vec<Option<Vec<usize>>>, blocks: &[BlockNode]) -> Vec<usize> {
    let mut rest: Vec<Vec<usize>> = Vec::new();
    let mut first: Option<Vec<usize>> = None;
    for c in chains.into_iter().flatten() {
        if c[0] == 0 || c.contains(&0) {
            first = Some(c);
        } else {
            rest.push(c);
        }
    }
    rest.sort_by(|a, b| {
        let da = density(a, blocks);
        let db = density(b, blocks);
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut order = first.expect("entry chain exists");
    for c in rest {
        order.extend(c);
    }
    debug_assert_eq!(order.len(), blocks.len());
    order
}

/// The original O(chains² · edges) greedy merge, kept as the executable
/// specification: [`exttsp_order`] must return bit-identical output (the
/// oracle proptests compare them). Exposed for tests and benches only.
#[doc(hidden)]
pub fn exttsp_order_reference(
    blocks: &[BlockNode],
    edges: &[BlockEdge],
    params: &ExtTspParams,
) -> Vec<usize> {
    let n = blocks.len();
    if n <= 1 {
        return (0..n).collect();
    }
    for e in edges {
        assert!(e.src < n && e.dst < n, "edge references unknown block");
    }
    if n > MAX_EXACT_BLOCKS {
        return greedy_fallthrough(blocks, edges);
    }

    // Chains, each a list of block indices; chain_of maps block -> chain id.
    let mut chains: Vec<Option<Vec<usize>>> = (0..n).map(|b| Some(vec![b])).collect();
    let mut chain_of: Vec<usize> = (0..n).collect();

    let chain_score = |chain: &[usize], blocks: &[BlockNode], edges: &[BlockEdge]| -> f64 {
        // Score of a chain in isolation: restrict to edges internal to it.
        let mut inside = vec![false; blocks.len()];
        for &b in chain {
            inside[b] = true;
        }
        let internal: Vec<BlockEdge> = edges
            .iter()
            .copied()
            .filter(|e| inside[e.src] && inside[e.dst])
            .collect();
        // Positions within the chain only.
        let mut start = vec![0u64; blocks.len()];
        let mut pos = 0u64;
        for &b in chain {
            start[b] = pos;
            pos += blocks[b].size as u64;
        }
        let mut s = 0.0;
        for e in &internal {
            let src_end = start[e.src] + blocks[e.src].size as u64;
            let dst = start[e.dst];
            let w = e.weight as f64;
            if dst == src_end {
                s += w;
            } else if dst > src_end {
                let d = dst - src_end;
                if d < params.forward_dist {
                    s += params.forward_weight * w * (1.0 - d as f64 / params.forward_dist as f64);
                }
            } else {
                let d = src_end - dst;
                if d < params.backward_dist {
                    s +=
                        params.backward_weight * w * (1.0 - d as f64 / params.backward_dist as f64);
                }
            }
        }
        s
    };

    loop {
        // Find the best merge (a, b) -> concat(a, b).
        let mut best: Option<(usize, usize, f64)> = None;
        let live: Vec<usize> = (0..chains.len()).filter(|&i| chains[i].is_some()).collect();
        for &a in &live {
            for &b in &live {
                if a == b {
                    continue;
                }
                // The entry block's chain can only be a prefix.
                if chains[b].as_ref().is_some_and(|c| c[0] == 0) {
                    continue;
                }
                // Chains no edge joins gain exactly nothing; scoring them
                // would measure only the order the sums were taken in.
                let joined = |e: &BlockEdge| {
                    let (s, d) = (chain_of[e.src], chain_of[e.dst]);
                    (s == a && d == b) || (s == b && d == a)
                };
                if !edges.iter().any(joined) {
                    continue;
                }
                let ca = chains[a].as_ref().expect("live");
                let cb = chains[b].as_ref().expect("live");
                let merged: Vec<usize> = ca.iter().chain(cb.iter()).copied().collect();
                let gain = chain_score(&merged, blocks, edges)
                    - chain_score(ca, blocks, edges)
                    - chain_score(cb, blocks, edges);
                if gain > 1e-9 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((a, b, gain));
                }
            }
        }
        match best {
            None => break,
            Some((a, b, _)) => {
                let cb = chains[b].take().expect("live");
                let ca = chains[a].as_mut().expect("live");
                for &blk in &cb {
                    chain_of[blk] = a;
                }
                ca.extend(cb);
            }
        }
    }

    // Concatenate: entry chain first, then by density (hotness per byte).
    let mut rest: Vec<Vec<usize>> = Vec::new();
    let mut first: Option<Vec<usize>> = None;
    for c in chains.into_iter().flatten() {
        if c[0] == 0 || c.contains(&0) {
            first = Some(c);
        } else {
            rest.push(c);
        }
    }
    rest.sort_by(|a, b| {
        let da = density(a, blocks);
        let db = density(b, blocks);
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut order = first.expect("entry chain exists");
    for c in rest {
        order.extend(c);
    }
    debug_assert_eq!(order.len(), n);
    order
}

fn density(chain: &[usize], blocks: &[BlockNode]) -> f64 {
    let w: u64 = chain.iter().map(|&b| blocks[b].weight).sum();
    let s: u64 = chain.iter().map(|&b| blocks[b].size as u64).sum();
    w as f64 / (s.max(1)) as f64
}

/// Near-linear fallback: chain blocks along their heaviest outgoing edges
/// (classic Pettis–Hansen-style bottom-up chaining), entry first.
fn greedy_fallthrough(blocks: &[BlockNode], edges: &[BlockEdge]) -> Vec<usize> {
    let n = blocks.len();
    let mut sorted: Vec<&BlockEdge> = edges.iter().filter(|e| e.weight > 0).collect();
    sorted.sort_by_key(|e| std::cmp::Reverse(e.weight));
    // next/prev links forming disjoint paths.
    let mut next = vec![usize::MAX; n];
    let mut prev = vec![usize::MAX; n];
    // Union-find to reject cycles.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for e in sorted {
        if e.src == e.dst || next[e.src] != usize::MAX || prev[e.dst] != usize::MAX {
            continue;
        }
        // The entry must stay a path head.
        if e.dst == 0 {
            continue;
        }
        let (rs, rd) = (find(&mut parent, e.src), find(&mut parent, e.dst));
        if rs == rd {
            continue;
        }
        parent[rs] = rd;
        next[e.src] = e.dst;
        prev[e.dst] = e.src;
    }
    // Emit: path containing entry first, then heads by weight.
    let mut order = Vec::with_capacity(n);
    let mut emitted = vec![false; n];
    let emit_path = |head: usize, order: &mut Vec<usize>, emitted: &mut Vec<bool>| {
        let mut cur = head;
        while cur != usize::MAX && !emitted[cur] {
            emitted[cur] = true;
            order.push(cur);
            cur = next[cur];
        }
    };
    emit_path(0, &mut order, &mut emitted);
    let mut heads: Vec<usize> = (0..n)
        .filter(|&b| !emitted[b] && prev[b] == usize::MAX)
        .collect();
    heads.sort_by_key(|&b| std::cmp::Reverse(blocks[b].weight));
    for h in heads {
        emit_path(h, &mut order, &mut emitted);
    }
    // Anything left (cycles fully emitted already by paths) — defensive.
    for (b, &done) in emitted.iter().enumerate() {
        if !done {
            order.push(b);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_blocks(n: usize, size: u32) -> Vec<BlockNode> {
        (0..n).map(|_| BlockNode { size, weight: 1 }).collect()
    }

    #[test]
    fn single_block_is_trivial() {
        let order = exttsp_order(&uniform_blocks(1, 16), &[], &ExtTspParams::default());
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn hot_successor_becomes_fallthrough() {
        // 0 branches to 1 (hot) and 2 (cold); the hot edge should be the
        // fallthrough: order 0,1,...
        let blocks = uniform_blocks(3, 32);
        let edges = vec![
            BlockEdge {
                src: 0,
                dst: 1,
                weight: 100,
            },
            BlockEdge {
                src: 0,
                dst: 2,
                weight: 1,
            },
        ];
        let order = exttsp_order(&blocks, &edges, &ExtTspParams::default());
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 1);
    }

    #[test]
    fn entry_is_always_first() {
        // Even when the entry is cold and an edge points into it.
        let blocks = vec![
            BlockNode {
                size: 16,
                weight: 1,
            },
            BlockNode {
                size: 16,
                weight: 1000,
            },
            BlockNode {
                size: 16,
                weight: 1000,
            },
        ];
        let edges = vec![
            BlockEdge {
                src: 1,
                dst: 2,
                weight: 1000,
            },
            BlockEdge {
                src: 2,
                dst: 0,
                weight: 500,
            },
        ];
        let order = exttsp_order(&blocks, &edges, &ExtTspParams::default());
        assert_eq!(order[0], 0);
    }

    #[test]
    fn chain_follows_heavy_path() {
        // Diamond: 0 -> 1 (90) / 2 (10), both -> 3. Expect 0,1,3 contiguous.
        let blocks = uniform_blocks(4, 16);
        let edges = vec![
            BlockEdge {
                src: 0,
                dst: 1,
                weight: 90,
            },
            BlockEdge {
                src: 0,
                dst: 2,
                weight: 10,
            },
            BlockEdge {
                src: 1,
                dst: 3,
                weight: 90,
            },
            BlockEdge {
                src: 2,
                dst: 3,
                weight: 10,
            },
        ];
        let order = exttsp_order(&blocks, &edges, &ExtTspParams::default());
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &b) in order.iter().enumerate() {
                p[b] = i;
            }
            p
        };
        assert_eq!(order[0], 0);
        assert_eq!(pos[1], 1, "hot arm should follow entry");
        assert_eq!(pos[3], 2, "join should follow hot arm");
    }

    #[test]
    fn score_rewards_fallthrough_most() {
        let blocks = uniform_blocks(2, 16);
        let edges = vec![BlockEdge {
            src: 0,
            dst: 1,
            weight: 10,
        }];
        let p = ExtTspParams::default();
        let fall = exttsp_score(&blocks, &edges, &[0, 1], &p);
        let back = exttsp_score(&blocks, &edges, &[1, 0], &p);
        assert!(fall > back);
        assert_eq!(fall, 10.0);
    }

    #[test]
    fn greedy_never_loses_to_source_order_on_diamonds() {
        let blocks = uniform_blocks(6, 32);
        let edges = vec![
            BlockEdge {
                src: 0,
                dst: 2,
                weight: 70,
            },
            BlockEdge {
                src: 0,
                dst: 1,
                weight: 30,
            },
            BlockEdge {
                src: 1,
                dst: 3,
                weight: 30,
            },
            BlockEdge {
                src: 2,
                dst: 3,
                weight: 70,
            },
            BlockEdge {
                src: 3,
                dst: 5,
                weight: 95,
            },
            BlockEdge {
                src: 3,
                dst: 4,
                weight: 5,
            },
        ];
        let p = ExtTspParams::default();
        let order = exttsp_order(&blocks, &edges, &p);
        let source: Vec<usize> = (0..6).collect();
        assert!(
            exttsp_score(&blocks, &edges, &order, &p) >= exttsp_score(&blocks, &edges, &source, &p)
        );
    }

    #[test]
    fn fallback_is_used_for_huge_functions() {
        let n = 500;
        let blocks = uniform_blocks(n, 8);
        let edges: Vec<BlockEdge> = (0..n - 1)
            .map(|i| BlockEdge {
                src: i,
                dst: i + 1,
                weight: (n - i) as u64,
            })
            .collect();
        let order = exttsp_order(&blocks, &edges, &ExtTspParams::default());
        assert_eq!(order.len(), n);
        assert_eq!(order[0], 0);
        // The chain structure should be preserved by the fallback.
        assert_eq!(order[1], 1);
        assert_eq!(order[n - 1], n - 1);
    }

    #[test]
    fn rounding_noise_never_merges_unjoined_chains() {
        // Only two self-loops: no concatenation has any gain. A loop that
        // scores unjoined pairs sees fl(x + y) - x - y ~ 7e-9 from summing
        // the heavy weights in another order, passes the 1e-9 threshold and
        // moves block 1 behind block 3.
        let blocks: Vec<BlockNode> = [36, 2, 14, 52]
            .iter()
            .map(|&size| BlockNode { size, weight: 1 })
            .collect();
        let edges = vec![
            BlockEdge {
                src: 3,
                dst: 3,
                weight: 289_406_148,
            },
            BlockEdge {
                src: 1,
                dst: 1,
                weight: 94_371_570,
            },
        ];
        let p = ExtTspParams::default();
        let order = exttsp_order(&blocks, &edges, &p);
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(order, exttsp_order_reference(&blocks, &edges, &p));
    }

    #[test]
    fn output_is_a_permutation() {
        let blocks = uniform_blocks(10, 16);
        let edges = vec![
            BlockEdge {
                src: 0,
                dst: 5,
                weight: 3,
            },
            BlockEdge {
                src: 5,
                dst: 9,
                weight: 7,
            },
            BlockEdge {
                src: 9,
                dst: 1,
                weight: 2,
            },
        ];
        let mut order = exttsp_order(&blocks, &edges, &ExtTspParams::default());
        order.sort_unstable();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }
}
