//! Layout-algorithm benchmarks: Ext-TSP vs its greedy fallback, C3, and
//! property reordering, over synthetic graphs of realistic sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use layout::{
    c3_order, exttsp_order, exttsp_score, reorder_props_by_hotness, BlockEdge, BlockNode, CallArc,
    ExtTspParams, FuncNode, PropAccess,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cfg(n: usize, seed: u64) -> (Vec<BlockNode>, Vec<BlockEdge>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let blocks = (0..n)
        .map(|_| BlockNode {
            size: rng.gen_range(8..64),
            weight: rng.gen_range(0..1000),
        })
        .collect();
    let edges = (0..2 * n)
        .map(|_| BlockEdge {
            src: rng.gen_range(0..n),
            dst: rng.gen_range(0..n),
            weight: rng.gen_range(0..500),
        })
        .collect();
    (blocks, edges)
}

fn bench_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("exttsp");
    for n in [16usize, 64, 200] {
        let (blocks, edges) = cfg(n, n as u64);
        group.bench_with_input(BenchmarkId::new("order", n), &n, |b, _| {
            b.iter(|| exttsp_order(&blocks, &edges, &ExtTspParams::default()))
        });
    }
    // The near-linear fallback on a large function.
    let (blocks, edges) = cfg(2000, 7);
    group.bench_function("order_fallback_2000", |b| {
        b.iter(|| exttsp_order(&blocks, &edges, &ExtTspParams::default()))
    });
    group.finish();

    // Quality datapoint: score improvement over source order.
    let (blocks, edges) = cfg(64, 3);
    let p = ExtTspParams::default();
    let src: Vec<usize> = (0..blocks.len()).collect();
    let opt = exttsp_order(&blocks, &edges, &p);
    println!(
        "[layout] exttsp score: source {:.0} -> optimized {:.0}",
        exttsp_score(&blocks, &edges, &src, &p),
        exttsp_score(&blocks, &edges, &opt, &p)
    );

    let mut rng = SmallRng::seed_from_u64(11);
    let n = 800;
    let funcs: Vec<FuncNode> = (0..n)
        .map(|_| FuncNode {
            size: rng.gen_range(64..2048),
            weight: rng.gen_range(0..10_000),
        })
        .collect();
    let arcs: Vec<CallArc> = (0..4 * n)
        .map(|_| CallArc {
            caller: rng.gen_range(0..n),
            callee: rng.gen_range(0..n),
            weight: rng.gen_range(0..1000),
        })
        .collect();
    let mut group = c.benchmark_group("func_sort");
    group.bench_function("c3_800", |b| b.iter(|| c3_order(&funcs, &arcs, 16384)));
    group.finish();

    let props: Vec<PropAccess<u32>> = (0..64)
        .map(|i| PropAccess {
            prop: i,
            count: ((i * 37) % 100) as u64,
        })
        .collect();
    c.bench_function("prop_reorder_hotness_64", |b| {
        b.iter(|| reorder_props_by_hotness(&props))
    });
}

criterion_group!(benches, bench_layout);
criterion_main!(benches);
