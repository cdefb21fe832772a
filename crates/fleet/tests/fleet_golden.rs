//! Golden fleet digests: small deployments whose [`DeployReport::digest`]
//! and [`WarmupReport::digest`](fleet::WarmupReport::digest) are pinned to
//! literals.
//!
//! `tests/event_equivalence.rs` proves the step-skipping driver equal to
//! the dense stepper, but both drivers step the same per-server state
//! machine, so a bug inside one step (a stale cached service time, a
//! promotion skipped) moves both alike and passes there. These literals
//! catch it: any change to what a server computes moves a digest. Each
//! case covers a different path through a server's life — Jump-Start
//! consumers beside baselines that walk profiling → retranslate-all →
//! relocation, slow hosts compiling at a third of the rate, degrading
//! hosts that never quiesce, early-serve consumers compiling in the
//! background, and chunk-delta pricing against a prior release.
//!
//! A change that moves a digest on purpose must re-pin it here and say
//! why in the commit.

use fleet::{
    run_deployment, run_deployment_with_prior, DeployParams, DeployReport, DistributionParams,
    FaultPlan, FleetShape, WarmupParams,
};
use jumpstart::JumpStartOptions;
use workload::{generate, generate_release, AppParams, ChurnParams};

fn base(early_serve_frac: f64) -> DeployParams {
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
            early_serve_frac,
            ..WarmupParams::fig4()
        })
        .with_fleet(
            FleetShape::default()
                .with_servers(6, 3)
                .with_representatives(3)
                .with_stagger(30_000)
                .with_jitter(100),
        )
        .with_js_opts(JumpStartOptions {
            min_funcs_profiled: 5,
            min_counter_mass: 100,
            min_requests: 10,
            ..Default::default()
        })
        .with_seed(0x601d)
}

fn digests(report: &DeployReport) -> (u32, u32) {
    (report.digest(), report.warmup.digest())
}

/// Every baseline representative walked the whole Fig. 3a lifecycle, so
/// the relocation end (point C) is inside the pinned window.
fn baselines_relocate(report: &DeployReport) {
    assert!(!report.nojs_timelines.is_empty());
    for t in &report.nojs_timelines {
        assert!(t.point_c_ms.is_some(), "baseline must reach point C");
    }
}

#[test]
fn consumers_and_baselines_on_slow_hosts() {
    let app = generate(&AppParams::tiny());
    let params = base(1.0).with_faults(FaultPlan::default().with_slow_consumers(300, 300));
    let report = run_deployment(&app, &params);
    assert!(report.stats.iter().any(|s| s.slow_host));
    baselines_relocate(&report);
    assert_eq!(digests(&report), (0x0e7c_81d7, 0xb328_5489));
}

#[test]
fn degrading_hosts_never_quiesce() {
    let app = generate(&AppParams::tiny());
    let params = base(1.0).with_faults(FaultPlan::default().with_degrading(400, 120));
    let report = run_deployment(&app, &params);
    let degrading: Vec<_> = report.stats.iter().filter(|s| s.degrading).collect();
    assert!(!degrading.is_empty());
    for s in degrading {
        assert_eq!(s.steps_executed, s.steps_dense - s.boot_ms / 1000);
    }
    assert_eq!(digests(&report), (0xcad4_7f36, 0xaf98_5e91));
}

#[test]
fn early_serve_consumers_compile_in_the_background() {
    let app = generate(&AppParams::tiny());
    let params = base(0.25).with_faults(FaultPlan::default().with_slow_consumers(300, 300));
    let report = run_deployment(&app, &params);
    baselines_relocate(&report);
    assert_eq!(digests(&report), (0x672b_ebb3, 0xa281_107a));
}

#[test]
fn chunked_push_against_a_prior_release() {
    let app_params = AppParams::tiny();
    let (prior, _) = generate_release(&app_params, &ChurnParams::none());
    let (current, churn) = generate_release(
        &app_params,
        &ChurnParams {
            seed: 0x601d,
            rate: 0.1,
        },
    );
    assert!(churn.total_edits() > 0, "release must churn");
    let params = base(0.25).with_distribution(DistributionParams::chunked().with_link_mbps(100));
    // Three shards seed both releases' eight seeders as one job list: the
    // same literals hold.
    let sharded = params.with_fleet(params.fleet.with_shards(3));
    for params in [params, sharded] {
        let report = run_deployment_with_prior(&current, Some(&prior), &params);
        assert!(report.distribution.chunks_cached > 0);
        assert_eq!(digests(&report), (0x5389_7eb8, 0x5e1f_f337));
    }
}

#[test]
fn degenerate_shapes_return_pinned_digests() {
    let app = generate(&AppParams::tiny());
    let fleet = base(1.0).fleet;
    let cases = [
        // No cells: nothing is seeded, prepared or simulated.
        ("0x5 cells", base(1.0).with_cells(0, 5), 0),
        // One cell whose seeders publish, but no server runs.
        (
            "0+0 servers",
            base(1.0)
                .with_cells(1, 1)
                .with_fleet(fleet.with_servers(0, 0)),
            0,
        ),
        (
            "consumers only",
            base(1.0).with_fleet(fleet.with_servers(4, 0).with_shards(2)),
            8,
        ),
        (
            "baselines only",
            base(1.0).with_fleet(fleet.with_servers(0, 3).with_shards(2)),
            6,
        ),
        // `with_shards` clamps to one; a literal zero runs as one shard.
        (
            "0 shards",
            base(1.0).with_fleet(FleetShape { shards: 0, ..fleet }),
            18,
        ),
    ];
    let mut seen = Vec::new();
    for (name, params, servers) in cases {
        let report = run_deployment(&app, &params);
        assert_eq!(report.stats.len(), servers, "{name}");
        seen.push((name, digests(&report)));
    }
    assert_eq!(
        seen,
        [
            ("0x5 cells", (0xa3c1_ca20, 0xf680_bc55)),
            ("0+0 servers", (0x7afa_062f, 0xf680_bc55)),
            ("consumers only", (0xc80b_1387, 0xc878_6b77)),
            ("baselines only", (0x5864_d755, 0x889a_fc62)),
            ("0 shards", (0xc6b2_05c8, 0x8eea_0014)),
        ]
    );
}
