//! `exttsp_order` allocates a fixed number of times per call. Its chains,
//! edge lists and neighbour lists live in flat arrays sized up front, so
//! the count does not grow with the number of merges the greedy loop makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use layout::{exttsp_order, BlockEdge, BlockNode, ExtTspParams};

/// Counts the calling thread's allocations and reallocations.
struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// A 57-block unit, the size of the largest bench units: a spine of
/// `i -> i+1` edges, a back edge every seventh block and a self-loop every
/// eleventh. The first `hot` spine edges are heavy and the rest cold, so
/// `hot` sets how many merges the greedy loop makes.
fn unit(hot: usize) -> (Vec<BlockNode>, Vec<BlockEdge>) {
    let n = 57;
    let blocks = (0..n)
        .map(|i| BlockNode {
            size: 8 + (i as u32 * 13) % 40,
            weight: 100 + i as u64,
        })
        .collect();
    let mut edges = Vec::new();
    for i in 0..n - 1 {
        let weight = if i < hot { 10_000 - i as u64 } else { 0 };
        edges.push(BlockEdge {
            src: i,
            dst: i + 1,
            weight,
        });
        if i % 7 == 6 {
            edges.push(BlockEdge {
                src: i,
                dst: i - 5,
                weight: 30,
            });
        }
        if i % 11 == 10 {
            edges.push(BlockEdge {
                src: i,
                dst: i,
                weight: 50,
            });
        }
    }
    (blocks, edges)
}

fn allocs_of(blocks: &[BlockNode], edges: &[BlockEdge]) -> usize {
    let p = ExtTspParams::default();
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(exttsp_order(blocks, edges, &p));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn exttsp_allocations_do_not_grow_with_merges() {
    // From a handful of merges (back edges only) to one chain of 57.
    let counts: Vec<usize> = [0, 14, 28, 56]
        .iter()
        .map(|&hot| {
            let (blocks, edges) = unit(hot);
            allocs_of(&blocks, &edges)
        })
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "allocations {counts:?} vary with the merges"
    );
    // One per array of chain, edge-set and neighbour state, plus the
    // output; a loop that allocated per merge or per pair would need 56+.
    assert!(
        counts[0] <= 16,
        "allocations {counts:?} exceed the fixed budget of 16"
    );
}
