//! Golden steady-state replay: a fixed request stream replayed on booted
//! consumers must reproduce these miss reports exactly.
//!
//! Every counter of a `MissReport` — instructions, cycles, and each
//! structure's accesses and misses — is a pure function of the app, the
//! package, the layout and the replay seed. A change to the executor or the
//! core model that is meant to be a pure speed-up must leave all of them
//! where they are; one that drops, repeats or reorders a simulated access
//! moves at least one.

use hhvm_jumpstart_repro::{bytecode, jit, jumpstart, layout, uarch, workload};

use bytecode::UnitId;
use jit::{CodeCache, Executor, ExecutorConfig, JitOptions};
use jumpstart::{build_package, consume, JumpStartOptions, SeederInputs};
use layout::LayoutPlanOptions;
use uarch::{AccessStats, MissReport};
use workload::{generate, profile_run, AppParams, RequestMix, RequestSampler};

const WARM_REQUESTS: usize = 40;
const MEASURE_REQUESTS: usize = 160;

fn stats(accesses: u64, misses: u64) -> AccessStats {
    AccessStats { accesses, misses }
}

/// Replays the warm-up and the measured window on one code cache.
fn replay(
    app: &workload::App,
    truth: &workload::ProfileRun,
    cache: &CodeCache,
    unit_order: &[UnitId],
) -> MissReport {
    let mix = RequestMix::new(app, 0, 0);
    let mut ex = Executor::new(
        &app.repo,
        cache,
        &truth.tier,
        &truth.ctx,
        ExecutorConfig {
            seed: 0xD1CE,
            ..Default::default()
        },
    );
    ex.set_unit_order(unit_order);
    let mut sampler = RequestSampler::new(0x5EED);
    for _ in 0..WARM_REQUESTS {
        ex.run_call(sampler.request(app, &mix).0);
    }
    ex.reset_stats();
    for _ in 0..MEASURE_REQUESTS {
        ex.run_call(sampler.request(app, &mix).0);
    }
    ex.report()
}

#[test]
fn replay_miss_reports_are_pinned() {
    let app = generate(&AppParams::tiny());
    let mix = RequestMix::new(&app, 0, 0);
    let truth = profile_run(&app, &mix, 200, 33);
    let opts = JumpStartOptions {
        min_funcs_profiled: 5,
        min_counter_mass: 100,
        min_requests: 10,
        ..Default::default()
    };
    let boot = |plan: LayoutPlanOptions| {
        let jit = JitOptions {
            plan,
            ..JitOptions::default()
        };
        let pkg = build_package(
            SeederInputs {
                repo: &app.repo,
                tier: truth.tier.clone(),
                ctx: truth.ctx.clone(),
                unit_order: truth.unit_order.clone(),
                requests: truth.requests,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &opts,
            &jit,
        );
        let out = consume(&app.repo, &pkg, jit, &opts, 1).expect("healthy boot");
        (pkg, out)
    };

    let (pkg, full) = boot(LayoutPlanOptions::default());
    assert!(
        full.engine.code_cache.stub_count() > 0,
        "the full layout stack must exercise bind stubs"
    );
    let full_report = replay(
        &app,
        &truth,
        &full.engine.code_cache,
        &pkg.preload.unit_order,
    );
    let (pkg, plain) = boot(LayoutPlanOptions::disabled());
    let plain_report = replay(
        &app,
        &truth,
        &plain.engine.code_cache,
        &pkg.preload.unit_order,
    );
    let interp_report = replay(&app, &truth, &CodeCache::default(), &truth.unit_order);

    let got = [full_report, plain_report, interp_report];
    // Captured on the nested-`Vec` caches and SipHash-keyed lookups that
    // the flat caches and dense tables replaced, which they reproduce.
    let want = [
        MissReport {
            branch: stats(51586, 7056),
            icache: stats(97754, 418),
            itlb: stats(66359, 0),
            itlb_l2: stats(0, 0),
            dcache: stats(4383, 285),
            dtlb: stats(4380, 10),
            llc: stats(703, 470),
            instructions: 515080,
            cycles: 759655,
        },
        MissReport {
            branch: stats(51586, 7794),
            icache: stats(95950, 422),
            itlb: stats(66348, 1),
            itlb_l2: stats(1, 1),
            dcache: stats(4383, 285),
            dtlb: stats(4380, 10),
            llc: stats(707, 473),
            instructions: 515080,
            cycles: 771865,
        },
        MissReport {
            branch: stats(32880, 5814),
            icache: stats(0, 0),
            itlb: stats(0, 0),
            itlb_l2: stats(0, 0),
            dcache: stats(79607, 1003),
            dtlb: stats(66497, 11),
            llc: stats(1003, 540),
            instructions: 473649,
            cycles: 6821560,
        },
    ];
    for (name, (g, w)) in ["full layout", "plan disabled", "interpreter"]
        .iter()
        .zip(got.iter().zip(&want))
    {
        assert_eq!(g, w, "{name}: replay miss report moved\n{g:#?}");
    }
}
