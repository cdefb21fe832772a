//! The fleet simulator's correctness contract, stated as properties:
//!
//! 1. **Oracle equivalence.** For any calibration, the shared-life
//!    driver ([`fleet::run_server`]) must produce a [`fleet::Timeline`]
//!    *bit-identical* to the dense per-second reference stepper
//!    ([`fleet::simulate_warmup_dense`]) — not within an epsilon. Both
//!    drivers share every floating-point operation (the `ServerSim` state
//!    machine); the driver is only allowed to skip steps it can prove
//!    would not change state, and to hand a server the steps of a life
//!    another server started only when their serving steps provably
//!    agree, so any divergence is a bug in one of those two proofs. A
//!    batch of servers through one cache of lives ([`fleet::run_servers`])
//!    must give each server exactly its lone run.
//! 2. **Shard invariance.** A deployment's report is a pure function of
//!    its parameters: running the same fleet on 1 thread or many must
//!    give byte-identical per-server stats, aggregates and digest,
//!    because all randomness is drawn from per-server streams before the
//!    fan-out and the fold takes the cells' results in gid order. The
//!    seeders, which run up to `shards` at a time, are published in one
//!    fixed order, so seeding counts, publish bytes and every cell's
//!    package order match too; and as each cell's lives and series are
//!    built once per deployment, so do the work counters.

use std::sync::OnceLock;

use fleet::{
    build_app_model, run_deployment, run_deployment_with_prior, run_server, run_servers,
    simulate_warmup_dense, AppModel, DeployParams, DeployReport, DistributionParams, FaultPlan,
    FleetShape, ServerConfig, WarmupParams,
};
use jit::JitOptions;
use jumpstart::{build_package, JumpStartOptions, ProfilePackage, SeederInputs};
use proptest::prelude::*;
use workload::{generate, generate_release, App, AppParams, ChurnParams, RequestMix};

struct Fixture {
    app: App,
    model: AppModel,
    pkg: ProfilePackage,
    /// A second package for the same cell, from another seeder's profile.
    pkg2: ProfilePackage,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let app = generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 0, 0);
        let run = workload::profile_run(&app, &mix, 150, 11);
        let model = build_app_model(&app, &run);
        let package = |run: workload::ProfileRun, seeder_id| {
            build_package(
                SeederInputs {
                    repo: &app.repo,
                    tier: run.tier,
                    ctx: run.ctx,
                    unit_order: run.unit_order,
                    requests: run.requests,
                    region: 0,
                    bucket: 0,
                    seeder_id,
                    now_ms: 0,
                },
                &JumpStartOptions::default(),
                &JitOptions::default(),
            )
        };
        let pkg2 = package(workload::profile_run(&app, &mix, 40, 12), 2);
        let pkg = package(run, 1);
        Fixture {
            app,
            model,
            pkg,
            pkg2,
        }
    })
}

fn arb_params() -> impl Strategy<Value = WarmupParams> {
    (
        (
            60_000u64..400_000, // duration_ms (incl. non-multiples of the step)
            1u64..5,            // sample every 1..5 s
            0u64..30,           // init_ms_nojs (s)
            0u64..12,           // init_ms_js (s)
            0u64..5,            // deserialize_ms (s)
        ),
        (
            10u64..90, // profile_serve_ms (s)
            0u64..30,  // relocation_ms (s)
            1u32..5,   // jit_threads
            (3u64..12, 1u64..11, 1u64..21),
        ),
    )
        .prop_map(
            |(
                (duration_ms, sample_s, init_nojs_s, init_js_s, deser_s),
                (profile_s, reloc_s, jit_threads, (offered_decile, early_decile, compile_rate)),
            )| {
                WarmupParams {
                    duration_ms,
                    sample_ms: sample_s * 1000,
                    init_ms_nojs: init_nojs_s * 1000,
                    init_ms_js: init_js_s * 1000,
                    deserialize_ms: deser_s * 1000,
                    profile_serve_ms: profile_s * 1000,
                    relocation_ms: reloc_s * 1000,
                    jit_threads,
                    // Strictly positive: offered == 0 makes rps_norm NaN in
                    // both drivers, which `Timeline == Timeline` can't see.
                    offered_fraction: offered_decile as f64 / 10.0,
                    early_serve_frac: early_decile as f64 / 10.0,
                    compile_bytes_per_core_ms: compile_rate as f64 / 4.0,
                    ..WarmupParams::fig4()
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_core_matches_dense_reference_without_jumpstart(params in arb_params()) {
        let fx = fixture();
        let mix = RequestMix::new(&fx.app, 0, 0);
        let config = ServerConfig { params, jumpstart: None };
        let dense = simulate_warmup_dense(&fx.app, &fx.model, &mix, &config);
        let run = run_server(&fx.app, &fx.model, &mix, &config);
        prop_assert_eq!(&dense, &run.timeline);
    }

    #[test]
    fn event_core_matches_dense_reference_with_jumpstart(params in arb_params()) {
        let fx = fixture();
        let mix = RequestMix::new(&fx.app, 0, 0);
        let config = ServerConfig { params, jumpstart: Some(&fx.pkg) };
        let dense = simulate_warmup_dense(&fx.app, &fx.model, &mix, &config);
        let run = run_server(&fx.app, &fx.model, &mix, &config);
        prop_assert_eq!(&dense, &run.timeline);
        // The speedup must not come from doing the same work: a consumer
        // quiesces, so most steps are skipped, never recomputed.
        prop_assert!(run.steps_executed <= run.steps_dense);
    }
}

/// One server of a cell's batch: its package (0, 1, or half the time a
/// baseline: only baselines stamp lifecycle points), its three boot costs
/// in ms (a third of them whole steps, the rest off the step grid), how
/// late its init ends in halves of the duration (at 2 it never serves;
/// at 1 its window ends where an earlier server's life is still stamping
/// points), whether it is a slow host, and its degrading rate (0, a
/// healthy host, for about four servers in five).
fn arb_server() -> impl Strategy<Value = (Option<usize>, [u64; 3], u64, bool, u32)> {
    // Whole seconds, or whole seconds plus 1..999 ms.
    let cost = || {
        (0u64..40, 0u64..3, 1u64..1000)
            .prop_map(|(s, off_grid, ms)| s * 1000 + if off_grid > 0 { ms } else { 0 })
    };
    (
        0usize..4,
        (cost(), cost(), cost()),
        0u32..8,
        0u32..6,
        0u32..40,
    )
        .prop_map(|(pkg, (a, b, c), late, slow, degrade)| {
            (
                pkg.checked_sub(2),
                [a, b, c],
                2u64.saturating_sub(u64::from(late)),
                slow == 0,
                degrade.saturating_sub(30),
            )
        })
}

proptest! {
    // Cheap cases, and a bug in how a server reads a life another server
    // stepped further shows only when a longer window goes first.
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn servers_sharing_lives_match_a_fresh_cache_and_the_dense_reference(
        base in arb_params(),
        batch in prop::collection::vec(arb_server(), 1..24),
    ) {
        let fx = fixture();
        let mix = RequestMix::new(&fx.app, 0, 0);
        let pkgs = [&fx.pkg, &fx.pkg2];
        let servers: Vec<(WarmupParams, Option<usize>)> = batch
            .iter()
            .map(|&(pkg, [init_nojs, init_js, deser], late, slow, degrade)| {
                let late_ms = late * base.duration_ms / 2;
                let params = WarmupParams {
                    init_ms_nojs: init_nojs + late_ms,
                    init_ms_js: init_js + late_ms,
                    deserialize_ms: deser,
                    compile_bytes_per_core_ms: if slow {
                        base.compile_bytes_per_core_ms / 3.0
                    } else {
                        base.compile_bytes_per_core_ms
                    },
                    degrade_per_mille_per_min: degrade,
                    ..base
                };
                (params, pkg)
            })
            .collect();
        // Forward and backward: whichever server starts a life, the
        // others read it, longer and shorter windows alike.
        let forward = run_servers(&fx.app, &fx.model, &mix, pkgs, &servers);
        let reversed: Vec<_> = servers.iter().rev().copied().collect();
        let mut backward = run_servers(&fx.app, &fx.model, &mix, pkgs, &reversed);
        backward.reverse();
        prop_assert_eq!(forward.len(), servers.len());
        prop_assert_eq!(backward.len(), servers.len());
        for ((&(params, pkg), a), b) in servers.iter().zip(&forward).zip(&backward) {
            let config = ServerConfig { params, jumpstart: pkg.map(|k| pkgs[k]) };
            let fresh = run_server(&fx.app, &fx.model, &mix, &config);
            let dense = simulate_warmup_dense(&fx.app, &fx.model, &mix, &config);
            for run in [a, b] {
                prop_assert_eq!(&run.timeline, &fresh.timeline);
                prop_assert_eq!(&run.timeline, &dense);
                prop_assert_eq!(run.requests.to_bits(), fresh.requests.to_bits());
                prop_assert_eq!(run.events, fresh.events);
                prop_assert_eq!(run.steps_executed, fresh.steps_executed);
                prop_assert_eq!(run.steps_dense, fresh.steps_dense);
            }
        }
    }
}

fn sharded_deploy_params(shards: u32) -> DeployParams {
    DeployParams::default()
        .with_cells(1, 2)
        .with_seeders(2, 120)
        .with_warmup(WarmupParams {
            duration_ms: 200_000,
            sample_ms: 5_000,
            init_ms_nojs: 20_000,
            init_ms_js: 8_000,
            deserialize_ms: 2_000,
            profile_serve_ms: 60_000,
            relocation_ms: 20_000,
            ..WarmupParams::fig4()
        })
        .with_fleet(
            FleetShape::default()
                .with_servers(9, 3)
                .with_representatives(2)
                .with_shards(shards)
                .with_stagger(45_000)
                .with_jitter(150),
        )
        .with_faults(
            FaultPlan::default()
                .with_seeder_crashes(200)
                .with_slow_consumers(150, 300),
        )
        .with_seed(0x5eed)
}

/// A push against a prior release with chunked distribution, two
/// seeders per cell, crashed and undersampled seeders: the seeding then
/// publishes some packages and drops others, in both releases.
fn prior_release_deploy(shards: u32) -> DeployReport {
    static RELEASES: OnceLock<(App, App)> = OnceLock::new();
    let (prior, current) = RELEASES.get_or_init(|| {
        let params = AppParams::tiny();
        let (prior, _) = generate_release(&params, &ChurnParams::none());
        let (current, _) = generate_release(
            &params,
            &ChurnParams {
                seed: 0x5eed,
                rate: 0.1,
            },
        );
        (prior, current)
    });
    let params = sharded_deploy_params(shards)
        .with_js_opts(JumpStartOptions {
            min_funcs_profiled: 5,
            min_counter_mass: 100,
            min_requests: 10,
            ..Default::default()
        })
        .with_distribution(DistributionParams::chunked())
        .with_faults(
            FaultPlan::default()
                .with_seeder_crashes(200)
                .with_undersampling(150)
                .with_slow_consumers(150, 300),
        )
        // At this seed one cell publishes both of its seeders' packages,
        // so their publish order shows in the report.
        .with_seed(16);
    run_deployment_with_prior(current, Some(prior), &params)
}

#[test]
fn deployment_is_invariant_under_shard_count() {
    let fx = fixture();
    let plain = |shards| run_deployment(&fx.app, &sharded_deploy_params(shards));
    let cases: [&dyn Fn(u32) -> DeployReport; 2] = [&plain, &prior_release_deploy];
    let mut seeded = Vec::new();
    for deploy in cases {
        let one = deploy(1);
        assert_eq!(one.sim.shards, 1);
        seeded.push((one.published, one.validation_failures, one.seeder_crashes));

        // 64 > 24 servers: most of those shards get no slot at all.
        for shards in [2, 3, 4, 7, 64] {
            let many = deploy(shards);

            // Same servers, same outcomes, same order — bit for bit.
            assert_eq!(one.stats, many.stats);
            assert_eq!(one.published, many.published);
            assert_eq!(one.seeder_crashes, many.seeder_crashes);
            assert_eq!(one.validation_failures, many.validation_failures);
            // Publish bytes, and the wire price of every package a
            // consumer picked.
            assert_eq!(one.distribution, many.distribution);
            assert_eq!(one.js_timelines, many.js_timelines);
            assert_eq!(one.nojs_timelines, many.nojs_timelines);
            assert_eq!(one.fleet_aggregate(), many.fleet_aggregate());
            assert_eq!(one.digest(), many.digest());

            // The warmup classification report is folded from per-shard
            // accumulators, so it must be byte-identical however the fleet
            // was sharded.
            assert_eq!(one.warmup.to_json(), many.warmup.to_json());
            assert_eq!(one.warmup.digest(), many.warmup.digest());

            // Shard count is accounting-visible only where it should be.
            assert_eq!(many.sim.shards, shards);
            assert_eq!(one.sim.events, many.sim.events);
            assert_eq!(one.sim.steps_executed, many.sim.steps_executed);
            assert_eq!(one.sim.requests, many.sim.requests);
        }
    }
    // The prior-release case exercises every seeding outcome.
    let (published, failures, crashes) = seeded[1];
    assert!(published > 0 && failures > 0 && crashes > 0, "{seeded:?}");
}

/// The publish order of a deployment run under the tracer: the seeder id
/// of every `publish` span, in order, with both releases' seeders (the
/// pushed release's first). A cell's package order is its subsequence.
fn traced_deploy(current: &App, prior: &App, params: &DeployParams) -> (DeployReport, Vec<u64>) {
    const TRACK: &str = "publish order";
    let (report, trace) = telemetry::capture(|| {
        let _track = telemetry::track(TRACK);
        run_deployment_with_prior(current, Some(prior), params)
    });
    // Only this track: other tests' deployments may be mid-span on theirs.
    let track = trace.tracks.iter().find(|t| t.name == TRACK);
    let mut work = track
        .expect("the deployment's track")
        .tree()
        .expect("closed spans");
    work.reverse();
    let mut publishes = Vec::new();
    while let Some(node) = work.pop() {
        if node.name == "publish" {
            let [("seeder", telemetry::AttrValue::U64(id))] = node.attrs[..] else {
                panic!("publish attributes {:?}", node.attrs);
            };
            publishes.push(id);
        }
        // Depth-first in start order.
        work.extend(node.children.into_iter().rev());
    }
    (report, publishes)
}

/// The pool runs every seeder, cell and server life once per deployment:
/// what the fan-out simulates and classifies is the same on any shard
/// count, and so is everything published, in the same order.
#[test]
fn deployment_work_is_invariant_under_shard_count() {
    let app_params = AppParams::tiny();
    let (prior, _) = generate_release(&app_params, &ChurnParams::none());
    let (current, _) = generate_release(
        &app_params,
        &ChurnParams {
            seed: 0xce11,
            rate: 0.1,
        },
    );
    let params = |shards| {
        sharded_deploy_params(shards)
            .with_js_opts(JumpStartOptions {
                min_funcs_profiled: 5,
                min_counter_mass: 100,
                min_requests: 10,
                ..Default::default()
            })
            .with_distribution(DistributionParams::chunked())
            .with_faults(
                FaultPlan::default()
                    .with_seeder_crashes(200)
                    .with_undersampling(150)
                    .with_slow_consumers(150, 300)
                    .with_degrading(200, 120),
            )
            .with_seed(16)
    };
    let (one, order) = traced_deploy(&current, &prior, &params(1));
    assert!(one.published > 0 && one.validation_failures > 0 && one.seeder_crashes > 0);
    assert!(
        order.len() > one.published,
        "the prior release publishes too"
    );
    assert!(one.stats.iter().any(|s| s.slow_host) && one.stats.iter().any(|s| s.degrading));
    for shards in [2, 3, 5] {
        let (many, many_order) = traced_deploy(&current, &prior, &params(shards));
        assert_eq!(one.digest(), many.digest(), "{shards} shards");
        assert_eq!(one.stats, many.stats);
        assert_eq!(
            (one.published, one.validation_failures, one.seeder_crashes),
            (
                many.published,
                many.validation_failures,
                many.seeder_crashes
            )
        );
        // Every cell's packages, published in the same order into the
        // same chunk pools.
        assert_eq!(order, many_order, "{shards} shards");
        assert_eq!(
            one.distribution.publish_bytes_new,
            many.distribution.publish_bytes_new
        );
        // Each cell's lives and classifier memo are built once, whatever
        // the shard count.
        assert_eq!(
            (one.sim.lives, one.sim.life_steps, one.sim.classified),
            (many.sim.lives, many.sim.life_steps, many.sim.classified),
            "{shards} shards"
        );
    }
}

#[test]
fn staggered_restarts_do_not_change_local_timelines() {
    // Stagger shifts when a server runs in fleet time, not what it does:
    // with jitter and faults off, every consumer of a cell is identical,
    // so their stats must match the unstaggered run exactly.
    let fx = fixture();
    let base = DeployParams::default()
        .with_cells(1, 1)
        .with_seeders(1, 120)
        .with_warmup(WarmupParams {
            duration_ms: 150_000,
            sample_ms: 5_000,
            init_ms_nojs: 20_000,
            init_ms_js: 8_000,
            deserialize_ms: 2_000,
            profile_serve_ms: 40_000,
            relocation_ms: 10_000,
            ..WarmupParams::fig4()
        })
        .with_seed(7);
    let calm = run_deployment(
        &fx.app,
        &base.with_fleet(FleetShape::default().with_servers(4, 1)),
    );
    let staggered = run_deployment(
        &fx.app,
        &base.with_fleet(
            FleetShape::default()
                .with_servers(4, 1)
                .with_stagger(60_000)
                .with_shards(2),
        ),
    );
    for (a, b) in calm.stats.iter().zip(&staggered.stats) {
        assert_eq!(a.boot_ms, b.boot_ms);
        assert_eq!(a.ready_ms, b.ready_ms);
        assert_eq!(a.capacity_loss.to_bits(), b.capacity_loss.to_bits());
        assert_eq!(a.requests.to_bits(), b.requests.to_bits());
    }
}
