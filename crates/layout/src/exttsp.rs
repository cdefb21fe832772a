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
/// chaining, which bounds one function's planning time and memory: the
/// pair gains are one n × n matrix (1.3 MB at 400 blocks), and each merge
/// rereads every live chain's cached best. On chain-shaped CFGs with 1.1
/// edges per block, one call takes 0.39 ms at 400 blocks and 11 ms at
/// 2 000 (32 MB of gains) on a 2-core Xeon container, against 1.5 ms and
/// 17 ms when each pair re-walked both chains' edges. No bench unit
/// exceeds 61 blocks.
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
/// inner loop is incremental and sparse: the only pairs ever scored are
/// chains that share an edge (two chains no edge joins gain exactly
/// nothing). Each chain keeps two edge sets: its internal edges, whose
/// contributions concatenation cannot change (it shifts both ends alike)
/// and are cached, and the edges with exactly one end in it. A pair is
/// scored by one ascending walk over both chains' internal edges and the
/// edges joining them, which places only the joining edges and yields both
/// concatenation orders at once. Every floating-point sum is performed in
/// exactly the reference order, so the result is **bit-identical**, which
/// the consumer's code-cache layout digest depends on. Edge and neighbour
/// sets are bitsets, pair gains one n × n matrix, and each chain caches its
/// best merge, so a merge rescans only the merged chain's neighbours. All
/// state lives in a fixed number of flat arrays, so the allocations do not
/// grow with the merges.
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

    let (we, wn) = (edges.len().div_ceil(64), n.div_ceil(64));
    let mut ch = Chains {
        edges,
        blocks,
        params,
        we,
        chain_of: (0..n).collect(),
        pos: vec![0; n],
        next: vec![usize::MAX; n],
        tail: (0..n).collect(),
        size: blocks.iter().map(|b| b.size as u64).collect(),
        score: vec![0.0; n],
        inner: vec![0; n * we],
        outer: vec![0; n * we],
        contrib: vec![0.0; edges.len()],
    };
    // Per chain a, the set of chains an edge joins it to (bit c of row a),
    // and gain(a -> c) for each. Symmetric; a dead chain's row is empty.
    let mut nbr = vec![0u64; n * wn];
    let mut gain = vec![0.0; n * n];
    for (i, e) in edges.iter().enumerate() {
        let bit = 1 << (i % 64);
        if e.src == e.dst {
            // A singleton's internal edges are its self-loops.
            ch.inner[e.src * we + i / 64] |= bit;
            ch.contrib[i] = edge_gain(blocks[e.src].size as u64, 0, e.weight as f64, params);
            ch.score[e.src] += ch.contrib[i];
        } else {
            ch.outer[e.src * we + i / 64] |= bit;
            ch.outer[e.dst * we + i / 64] |= bit;
            nbr[e.src * wn + e.dst / 64] |= 1 << (e.dst % 64);
            nbr[e.dst * wn + e.src / 64] |= 1 << (e.src % 64);
        }
    }
    let rescore = |a: usize, c: usize, ch: &Chains, gain: &mut [f64]| {
        let (ac, ca) = ch.pair_scores(a, c);
        gain[a * n + c] = ch.gain(a, c, ac);
        gain[c * n + a] = ch.gain(c, a, ca);
    };
    for a in 0..n {
        for w in 0..wn {
            for c in bits(nbr[a * wn + w]).map(|k| w * 64 + k).filter(|&c| c > a) {
                rescore(a, c, &ch, &mut gain);
            }
        }
    }

    // Per chain a, its best merge (gain, b): the first maximum of row a
    // above the 1e-9 threshold, or (1e-9, usize::MAX) when there is none.
    let row_best = |a: usize, nbr: &[u64], gain: &[f64]| {
        let mut best = (1e-9, usize::MAX);
        for w in 0..wn {
            for b in bits(nbr[a * wn + w]).map(|k| w * 64 + k) {
                if gain[a * n + b] > best.0 {
                    best = (gain[a * n + b], b);
                }
            }
        }
        best
    };
    let mut best_of: Vec<_> = (0..n).map(|a| row_best(a, &nbr, &gain)).collect();
    loop {
        // Find the best merge (a, b) -> concat(a, b): the reference's
        // row-major scan order and strict `>` tie-break, over joined pairs.
        let mut best = (1e-9, usize::MAX, usize::MAX);
        for (a, &(g, b)) in best_of.iter().enumerate() {
            if g > best.0 {
                best = (g, a, b);
            }
        }
        let (_, a, b) = best;
        if a == usize::MAX {
            break;
        }
        ch.merge(a, b);
        // Only pairs involving the merged chain changed: b's neighbours
        // become a's, each of them renames b to a, and both directions of
        // every such pair are rescored in one walk.
        for w in 0..wn {
            nbr[a * wn + w] |= std::mem::take(&mut nbr[b * wn + w]);
        }
        nbr[a * wn + a / 64] &= !(1 << (a % 64));
        nbr[a * wn + b / 64] &= !(1 << (b % 64));
        for w in 0..wn {
            for c in bits(nbr[a * wn + w]).map(|k| w * 64 + k) {
                nbr[c * wn + b / 64] &= !(1 << (b % 64));
                nbr[c * wn + a / 64] |= 1 << (a % 64);
                rescore(a, c, &ch, &mut gain);
                best_of[c] = row_best(c, &nbr, &gain);
            }
        }
        best_of[a] = row_best(a, &nbr, &gain);
        best_of[b] = (1e-9, usize::MAX);
    }

    // Chain c starts with block c, and it is alive while block c is in it.
    let mut order = Vec::with_capacity(n);
    let mut ends = Vec::with_capacity(n);
    for c in (0..n).filter(|&c| ch.chain_of[c] == c) {
        let mut blk = c;
        while blk != usize::MAX {
            order.push(blk);
            blk = ch.next[blk];
        }
        ends.push(order.len());
    }
    let starts = std::iter::once(0).chain(ends.iter().copied());
    concat_chains(starts.zip(&ends).map(|(s, &e)| &order[s..e]), blocks)
}

/// Indices of the set bits of `word`, ascending.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let k = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (k < 64).then_some(k)
    })
}

/// The greedy merger's chains. Chain `c` lives in slot `c` for as long as
/// it lives; a merge appends the absorbed chain to the survivor.
struct Chains<'a> {
    edges: &'a [BlockEdge],
    blocks: &'a [BlockNode],
    params: &'a ExtTspParams,
    /// Words per edge set.
    we: usize,
    /// Per block: its chain, its byte offset in it, and the next block
    /// (`usize::MAX` at the tail).
    chain_of: Vec<usize>,
    pos: Vec<u64>,
    next: Vec<usize>,
    /// Per chain: its last block, bytes and Ext-TSP score.
    tail: Vec<usize>,
    size: Vec<u64>,
    score: Vec<f64>,
    /// Per chain, `we` words each: the set of its internal edges, and the
    /// set of edges with exactly one end in it.
    inner: Vec<u64>,
    outer: Vec<u64>,
    /// Contribution of each internal edge to its chain's score.
    contrib: Vec<f64>,
}

impl Chains<'_> {
    /// Gain of appending chain `b` after chain `a`, given the score of the
    /// concatenation. The entry's chain can only be a prefix and is never
    /// appended, so it stays chain 0 for the whole loop.
    fn gain(&self, a: usize, b: usize, merged: f64) -> f64 {
        if b == 0 {
            return f64::NEG_INFINITY;
        }
        merged - self.score[a] - self.score[b]
    }

    /// Scores of `a ++ c` and of `c ++ a`, each summing its edge
    /// contributions in ascending global edge index: the exact iteration
    /// order of the reference `chain_score`.
    fn pair_scores(&self, a: usize, c: usize) -> (f64, f64) {
        let mut sums = (0.0, 0.0);
        for w in 0..self.we {
            let (ia, ic) = (self.inner[a * self.we + w], self.inner[c * self.we + w]);
            // The edges joining a and c are the ones outer to both.
            let cross = self.outer[a * self.we + w] & self.outer[c * self.we + w];
            for k in bits(ia | ic | cross) {
                let e = w * 64 + k;
                let (ac, ca) = if cross >> k & 1 == 0 {
                    (self.contrib[e], self.contrib[e])
                } else {
                    self.cross_gains(e, a, c)
                };
                sums.0 += ac;
                sums.1 += ca;
            }
        }
        sums
    }

    /// Contributions of edge `e`, which joins chains a and c, to `a ++ c`
    /// (c's blocks shift by |a|) and to `c ++ a` (a's shift by |c|).
    fn cross_gains(&self, e: usize, a: usize, c: usize) -> (f64, f64) {
        let e = &self.edges[e];
        let (ps, pd, sa, sc) = (self.pos[e.src], self.pos[e.dst], self.size[a], self.size[c]);
        let (s_ac, d_ac, s_ca, d_ca) = if self.chain_of[e.src] == a {
            (ps, sa + pd, sc + ps, pd)
        } else {
            (sa + ps, pd, ps, sc + pd)
        };
        let (len, w) = (self.blocks[e.src].size as u64, e.weight as f64);
        (
            edge_gain(s_ac + len, d_ac, w, self.params),
            edge_gain(s_ca + len, d_ca, w, self.params),
        )
    }

    /// Appends chain `b` to chain `a`. The edges joining them turn internal
    /// at their new contributions; what stays outer is the symmetric
    /// difference of the two outer sets.
    fn merge(&mut self, a: usize, b: usize) {
        let score = self.pair_scores(a, b).0;
        let we = self.we;
        for w in 0..we {
            let cross = self.outer[a * we + w] & self.outer[b * we + w];
            for k in bits(cross) {
                self.contrib[w * 64 + k] = self.cross_gains(w * 64 + k, a, b).0;
            }
            self.inner[a * we + w] |= self.inner[b * we + w] | cross;
            self.outer[a * we + w] ^= self.outer[b * we + w];
        }
        let mut blk = b;
        while blk != usize::MAX {
            self.chain_of[blk] = a;
            self.pos[blk] += self.size[a];
            blk = self.next[blk];
        }
        self.next[self.tail[a]] = b;
        self.tail[a] = self.tail[b];
        self.size[a] += self.size[b];
        self.score[a] = score;
    }
}

/// Final concatenation: the entry chain first, then the rest by hotness
/// density, ties in the given order (shared by the fast path and the
/// reference implementation).
fn concat_chains<'c>(
    chains: impl IntoIterator<Item = &'c [usize]>,
    blocks: &[BlockNode],
) -> Vec<usize> {
    let mut rest: Vec<&[usize]> = Vec::with_capacity(blocks.len());
    let mut first: Option<&[usize]> = None;
    for c in chains {
        if c.contains(&0) {
            first = Some(c);
        } else {
            rest.push(c);
        }
    }
    rest.sort_by(|a, b| density(b, blocks).total_cmp(&density(a, blocks)));
    let mut order = Vec::with_capacity(blocks.len());
    order.extend_from_slice(first.expect("entry chain exists"));
    for c in rest {
        order.extend_from_slice(c);
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

    concat_chains(chains.iter().flatten().map(Vec::as_slice), blocks)
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
