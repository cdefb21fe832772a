//! Ablation benchmarks (Fig. 6 and DESIGN.md §6): one steady-state
//! measurement per layout knob, plus the algorithm-level baseline the
//! paper compares against implicitly (hotness vs affinity property
//! ordering).

use bench::Lab;
use criterion::{criterion_group, criterion_main, Criterion};
use fleet::{measure_steady_state, SteadyConfig, SteadyParams};
use jumpstart::{FuncSort, JumpStartOptions, PropReorder};

fn bench_ablation(c: &mut Criterion) {
    let lab = Lab::small();
    let params = SteadyParams {
        warm_requests: 100,
        measure_requests: 300,
        threads: 2,
        ..Default::default()
    };

    let affinity = SteadyConfig {
        name: "prop-affinity",
        js: JumpStartOptions {
            prop_reorder: PropReorder::Affinity,
            ..JumpStartOptions::without_optimizations()
        },
        no_jumpstart: false,
    };
    let heat_order = SteadyConfig {
        name: "heat-order",
        js: JumpStartOptions {
            func_sort: FuncSort::SourceOrder,
            ..JumpStartOptions::without_optimizations()
        },
        no_jumpstart: false,
    };
    let configs = [
        SteadyConfig::jumpstart_no_opts(),
        SteadyConfig::bb_layout_only(),
        SteadyConfig::func_layout_only(),
        SteadyConfig::prop_reorder_only(),
        affinity,
        heat_order,
    ];

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    for cfg in configs {
        group.bench_function(cfg.name, |b| {
            b.iter(|| measure_steady_state(&lab.app, &lab.mix, &lab.truth, &cfg, &params))
        });
    }
    group.finish();

    let base = measure_steady_state(
        &lab.app,
        &lab.mix,
        &lab.truth,
        &SteadyConfig::jumpstart_no_opts(),
        &params,
    );
    for cfg in [SteadyConfig::prop_reorder_only(), affinity] {
        let o = measure_steady_state(&lab.app, &lab.mix, &lab.truth, &cfg, &params);
        println!(
            "[ablation] {}: {:+.2}% vs no-opts",
            o.name,
            o.report.speedup_vs(&base.report)
        );
    }
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
