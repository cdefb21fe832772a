//! Object property reordering (paper §V-C).
//!
//! Given per-property access counts collected on Jump-Start seeders, decide
//! a physical order for each class layer: hot properties first, so the
//! first cache line of the object covers as many accesses as possible.
//!
//! The paper uses "a simple hotness metric" (descending access counts) and
//! leaves affinity-based ordering as future work; only the hotness metric
//! is implemented.

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
}
