//! Object property reordering (paper §V-C).
//!
//! Given per-property access counts collected on Jump-Start seeders, decide
//! a physical order for each class layer: hot properties first, so the
//! first cache line of the object covers as many accesses as possible.
//!
//! The paper uses "a simple hotness metric" (descending access counts) and
//! leaves affinity-based ordering as future work; both are implemented
//! here, the affinity variant for the ablation benches.

/// Access statistics for one property of one class layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropAccess<K> {
    /// Property key (e.g. an interned name id).
    pub prop: K,
    /// Total observed accesses (reads + writes).
    pub count: u64,
}

/// Orders one class layer's properties by descending hotness.
///
/// Ties preserve declared order (stable sort), so cold layouts degrade to
/// the declared layout instead of shuffling arbitrarily.
pub fn reorder_props_by_hotness<K: Clone>(props: &[PropAccess<K>]) -> Vec<K> {
    let mut idx: Vec<usize> = (0..props.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(props[i].count));
    idx.into_iter().map(|i| props[i].prop.clone()).collect()
}

/// Orders one class layer's properties using pairwise *affinity*
/// (co-access) counts, falling back to hotness inside each affinity group.
///
/// `affinity[i][j]` counts how often props `i` and `j` were accessed within
/// the same request. Greedy chaining: repeatedly take the highest-affinity
/// pair whose chain endpoints are free, as in cache-conscious structure
/// layout \[21\]. This implements the paper's "future work" suggestion and is
/// evaluated in the ablation bench.
///
/// # Panics
///
/// Panics if `affinity` is not a `props.len()` × `props.len()` matrix.
pub fn reorder_props_by_affinity<K: Clone>(
    props: &[PropAccess<K>],
    affinity: &[Vec<u64>],
) -> Vec<K> {
    let n = props.len();
    assert_eq!(affinity.len(), n, "affinity matrix must be square");
    for row in affinity {
        assert_eq!(row.len(), n, "affinity matrix must be square");
    }
    if n <= 1 {
        return props.iter().map(|p| p.prop.clone()).collect();
    }
    // Collect pairs sorted by affinity.
    let mut pairs: Vec<(usize, usize, u64)> = Vec::new();
    for (i, row) in affinity.iter().enumerate() {
        for (j, &up) in row.iter().enumerate().skip(i + 1) {
            let w = up.max(affinity[j][i]);
            if w > 0 {
                pairs.push((i, j, w));
            }
        }
    }
    pairs.sort_by_key(|&(_, _, w)| std::cmp::Reverse(w));

    // Greedy path building (same union-find trick as block chaining).
    let mut next = vec![usize::MAX; n];
    let mut prev = vec![usize::MAX; n];
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, j, _) in pairs {
        // Attach at free endpoints only.
        let (a, b) = if next[i] == usize::MAX && prev[j] == usize::MAX {
            (i, j)
        } else if next[j] == usize::MAX && prev[i] == usize::MAX {
            (j, i)
        } else {
            continue;
        };
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra == rb {
            continue;
        }
        parent[ra] = rb;
        next[a] = b;
        prev[b] = a;
    }
    // Emit chains; order chains by their total hotness.
    let mut chains: Vec<(u64, Vec<usize>)> = Vec::new();
    let mut seen = vec![false; n];
    for h in 0..n {
        if prev[h] != usize::MAX || seen[h] {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = h;
        let mut heat = 0u64;
        while cur != usize::MAX && !seen[cur] {
            seen[cur] = true;
            heat += props[cur].count;
            chain.push(cur);
            cur = next[cur];
        }
        chains.push((heat, chain));
    }
    chains.sort_by_key(|&(heat, _)| std::cmp::Reverse(heat));
    chains
        .into_iter()
        .flat_map(|(_, c)| c)
        .map(|i| props[i].prop.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(prop: &str, count: u64) -> PropAccess<String> {
        PropAccess {
            prop: prop.to_owned(),
            count,
        }
    }

    #[test]
    fn hotness_sorts_descending() {
        let props = vec![p("a", 5), p("b", 100), p("c", 20)];
        assert_eq!(reorder_props_by_hotness(&props), vec!["b", "c", "a"]);
    }

    #[test]
    fn ties_keep_declared_order() {
        let props = vec![p("a", 7), p("b", 7), p("c", 7)];
        assert_eq!(reorder_props_by_hotness(&props), vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_and_singleton_layers() {
        assert!(reorder_props_by_hotness::<String>(&[]).is_empty());
        assert_eq!(reorder_props_by_hotness(&[p("only", 0)]), vec!["only"]);
    }

    #[test]
    fn affinity_groups_co_accessed_props() {
        // a+d always together (hot pair), b+c together (cooler).
        let props = vec![p("a", 50), p("b", 40), p("c", 40), p("d", 50)];
        let mut aff = vec![vec![0u64; 4]; 4];
        aff[0][3] = 100;
        aff[1][2] = 60;
        let order = reorder_props_by_affinity(&props, &aff);
        let pos: std::collections::HashMap<&str, usize> = order
            .iter()
            .enumerate()
            .map(|(i, k)| (k.as_str(), i))
            .collect();
        assert_eq!(pos["a"].abs_diff(pos["d"]), 1, "affine pair adjacent");
        assert_eq!(pos["b"].abs_diff(pos["c"]), 1, "affine pair adjacent");
        assert!(
            pos["a"].min(pos["d"]) < pos["b"].min(pos["c"]),
            "hotter chain first"
        );
    }

    #[test]
    fn affinity_falls_back_without_pairs() {
        let props = vec![p("a", 1), p("b", 9)];
        let aff = vec![vec![0; 2]; 2];
        let order = reorder_props_by_affinity(&props, &aff);
        assert_eq!(order, vec!["b", "a"]);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn affinity_rejects_bad_matrix() {
        let props = vec![p("a", 1), p("b", 2)];
        let _ = reorder_props_by_affinity(&props, &[vec![0; 2]]);
    }
}
