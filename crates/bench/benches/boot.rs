//! Consumer boot benchmarks: the compile stage of `jumpstart::consume`,
//! sequential vs parallel, plus the zero-copy decode path
//! (`consume_bytes`).

use bench::Lab;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jit::JitOptions;
use jumpstart::{consume, consume_bytes, JumpStartOptions};

fn bench_boot(c: &mut Criterion) {
    let lab = Lab::small();
    let opts = JumpStartOptions::default();
    let pkg = lab.package(&opts);
    let bytes = pkg.serialize();
    let compile_bytes = consume(&lab.app.repo, &pkg, JitOptions::default(), &opts, 1)
        .expect("healthy package boots")
        .compile_bytes;
    println!("[boot] optimized code: {} KB", compile_bytes / 1024);

    let mut group = c.benchmark_group("boot");
    group.throughput(Throughput::Bytes(compile_bytes));
    group.bench_function("consume_seq", |b| {
        b.iter(|| consume(&lab.app.repo, &pkg, JitOptions::default(), &opts, 1).expect("boots"))
    });
    group.bench_function("consume_par4", |b| {
        b.iter(|| consume(&lab.app.repo, &pkg, JitOptions::default(), &opts, 4).expect("boots"))
    });
    group.bench_function("consume_par4_early50", |b| {
        let early = JumpStartOptions {
            early_serve_frac: 0.5,
            ..Default::default()
        };
        b.iter(|| consume(&lab.app.repo, &pkg, JitOptions::default(), &early, 4).expect("boots"))
    });
    group.bench_function("consume_bytes_par4", |b| {
        b.iter(|| {
            consume_bytes(&lab.app.repo, &bytes, JitOptions::default(), &opts, 4).expect("boots")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_boot);
criterion_main!(benches);
