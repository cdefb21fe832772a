//! `fleet-push`: one whole simulated deployment (the paper's Figs. 1, 2
//! and 4, and the simulator's own host speed). Shaped like `jsfleet` —
//! 2 regions × 5 buckets, chunked distribution, churn 0.1, early serve
//! 0.25, 5% slow hosts, 120 s stagger — but with one seeder and 1000+100
//! servers per cell, so the event core (not the C2 seeding phase, which
//! every op repeats) is the larger share of the wall. No consumer boot
//! runs for real here: a boot-path optimisation should move nothing
//! beyond the seeding share.

use std::time::Instant;

use fleet::{
    build_app_model, classify_timeline, run_deployment_with_prior, simulate_cell_links,
    simulate_warmup, DeployParams, DeployReport, DistributionParams, FaultPlan, Fetch, FleetShape,
    ServerConfig, WarmupAnalysisParams, WarmupParams,
};
use jit::JitOptions;
use jumpstart::{build_package, PackageStore};
use workload::{profile_run, App, RequestMix};

use crate::inputs::{
    build_release, current_release, seeder_inputs, small_app_params, Scale, Seeds,
};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{setup_instances, timed_loop, LoopStats, OpSample, RunArgs, WorkloadResult};

/// Ops run and checked but not timed.
const WARMUP_OPS: usize = 1;

/// Requests each seeder profiles in C2.
fn seeder_requests(scale: Scale) -> usize {
    match scale {
        Scale::Bench => 150,
        Scale::Tiny => 40,
    }
}

/// The deployment's shape: (regions, buckets, consumers per cell,
/// baselines per cell).
fn shape(scale: Scale) -> (u32, u32, u32, u32) {
    match scale {
        Scale::Bench => (2, 5, 1000, 100),
        Scale::Tiny => (1, 1, 6, 2),
    }
}

fn deploy_params(args: &RunArgs, seeds: &Seeds, shards: u32, servers: (u32, u32)) -> DeployParams {
    let (regions, buckets, _, _) = shape(args.scale);
    DeployParams::default()
        .with_cells(regions, buckets)
        .with_seeders(1, seeder_requests(args.scale))
        .with_warmup(WarmupParams::fig4().with_early_serve(0.25))
        .with_distribution(DistributionParams::chunked())
        .with_fleet(
            FleetShape::default()
                .with_servers(servers.0, servers.1)
                .with_representatives(2)
                .with_shards(shards)
                .with_stagger(120_000)
                .with_jitter(150),
        )
        .with_faults(FaultPlan::default().with_slow_consumers(50, 300))
        .with_seed(seeds.fleet)
        .with_js_opts(args.scale.fleet_js_opts())
}

/// What set-up leaves for the loop.
pub struct FleetInputs {
    /// The release the fleet ran before the push (its chunks are cached).
    pub prior: App,
    /// The release being pushed.
    pub current: App,
    /// Seeds of the run.
    pub seeds: Seeds,
    /// `DeployReport::digest` of a 1-shard run of the same deployment.
    pub ref_digest: u32,
    /// Whether that run published a package in every cell.
    pub gates_ok: bool,
}

/// Generates both releases and runs the 1-shard reference deployment.
pub fn setup(args: &RunArgs, rec: &mut Recorder) -> FleetInputs {
    let seeds = Seeds::derive(args.seed);
    let params = small_app_params(seeds.app);
    let prior = build_release(&params, None, rec);
    let current = current_release(&params, &seeds, rec);
    let (regions, buckets, consumers, baselines) = shape(args.scale);
    let reference = run_deployment_with_prior(
        &current,
        Some(&prior),
        &deploy_params(args, &seeds, 1, (consumers, baselines)),
    );
    FleetInputs {
        ref_digest: reference.digest() ^ u32::from(args.flip_reference),
        gates_ok: reference.published == (regions * buckets) as usize
            && reference.validation_failures == 0,
        prior,
        current,
        seeds,
    }
}

impl FleetInputs {
    fn deploy(&self, args: &RunArgs, servers: (u32, u32)) -> (DeployReport, f64) {
        let params = deploy_params(args, &self.seeds, args.threads as u32, servers);
        let t0 = Instant::now();
        let report = run_deployment_with_prior(&self.current, Some(&self.prior), &params);
        (report, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// One op: the whole deployment on `args.threads` shards.
    fn op(&self, args: &RunArgs, instance: usize) -> (OpSample, DeployReport) {
        let (_, _, consumers, baselines) = shape(args.scale);
        let (report, ms) = self.deploy(args, (consumers, baselines));
        let sample = OpSample {
            ms,
            ok: report.digest() == self.ref_digest,
            units: report.sim.servers as f64,
            instance,
        };
        (sample, report)
    }
}

/// Runs the workload: the timed loop, or the traced pass.
pub fn run(args: &RunArgs, rec: &mut Recorder) -> WorkloadResult {
    let (sets, setup_s) = setup_instances(args, |a| setup(a, rec));
    let k = sets.len();
    let mut result = WorkloadResult {
        setup_s,
        digests: vec![("deploy", u64::from(sets[0].ref_digest))],
        ..Default::default()
    };
    if args.trace {
        trace(&sets[0], args, rec, &mut result);
    } else {
        // The first op of the process pays for cold caches and page
        // faults; the sets share code, so one warm-up op covers them.
        result.stats = timed_loop(args.seconds, WARMUP_OPS, k, |i| {
            sets[i % k].op(args, i % k).0
        });
    }
    for set in &sets {
        result.stats.gate(set.gates_ok);
    }
    result
}

fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn trace(inputs: &FleetInputs, args: &RunArgs, rec: &mut Recorder, result: &mut WorkloadResult) {
    // A deployment is seconds long: a few iterations, not one per second.
    let iters = (args.trace_iters() / 4).clamp(1, 5);
    let requests = seeder_requests(args.scale);
    result.setup_layers(rec, requests);
    let mut stats = LoopStats::default();

    // Whole ops, and the same deployment with one server of each kind
    // per cell: what is left is seeding, validation and cell set-up. The
    // two alternate, so a slow stretch of the host slows both alike.
    let mut last = None;
    let (mut full_ms, mut seed_ms) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        let (sample, report) = inputs.op(args, 0);
        stats.gate(sample.ok);
        full_ms.push(sample.ms);
        last = Some(report);
        let (report, ms) = inputs.deploy(args, (1, 1));
        stats.gate(report.published > 0);
        seed_ms.push(ms);
    }
    let report = last.expect("at least one iteration");
    let (full, seed) = (median(&full_ms), median(&seed_ms));
    let sim = report.sim;
    let duration_ms = WarmupParams::fig4().duration_ms;
    result.layer("fleet_wall_s", full / 1e3);
    result.layer("capacity_loss_js", report.mean_loss_js(duration_ms));
    result.layer("fleet.deploy.seed_s", seed / 1e3);
    result.layer(
        "fleet.deploy.us_per_server",
        (full - seed) * 1e3 / sim.servers.max(1) as f64,
    );
    result.layer("fleet.deploy.events", sim.events as f64);
    result.layer("fleet.deploy.steps_executed", sim.steps_executed as f64);
    result.layer(
        "fleet.deploy.events_per_s",
        sim.events as f64 * 1e3 / (full - seed).max(1e-6),
    );
    result.layer(
        "fleet.warmup.ttss_p50_s",
        report.warmup.js.ttss_p50.value / 1e3,
    );

    let reps = args.trace_iters();
    let aggregate_ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box((report.fleet_aggregate(), report.digest()));
            elapsed_us(t0) / 1e3
        })
        .collect();
    result.layer("fleet.report.aggregate_ms", median(&aggregate_ms));

    // One server's warmup on the event core, and its classification.
    let app = &inputs.current;
    let mix = RequestMix::new(app, 0, 0);
    let run = profile_run(app, &mix, requests, inputs.seeds.profile);
    let model = build_app_model(app, &run);
    let pkg = build_package(
        seeder_inputs(app, &run),
        &args.scale.fleet_js_opts(),
        &JitOptions::default(),
    );
    let warmup = WarmupParams::fig4().with_early_serve(0.25);
    let config = ServerConfig {
        params: warmup,
        jumpstart: Some(&pkg),
    };
    let analysis = WarmupAnalysisParams::default();
    let (mut sim_us, mut classify_us) = (Vec::new(), Vec::new());
    for _ in 0..reps * 4 {
        let t0 = Instant::now();
        let timeline = simulate_warmup(app, &model, &mix, &config);
        sim_us.push(elapsed_us(t0));
        let t0 = Instant::now();
        std::hint::black_box(classify_timeline(&timeline, warmup.duration_ms, &analysis));
        classify_us.push(elapsed_us(t0));
    }
    result.layer("fleet.server.sim_us", median(&sim_us));
    result.layer("fleet.warmup.classify_us_per_server", median(&classify_us));

    // The per-cell link model on one fetch per server of the op's fleet.
    let (regions, buckets, _, _) = shape(args.scale);
    let cells = (regions * buckets) as usize;
    let fetches: Vec<Fetch> = (0..sim.servers)
        .map(|i| Fetch {
            cell: i % cells,
            start_ms: (i as u64 * 120_000) / sim.servers.max(1) as u64,
            bytes: 30_000 + (i as u64 % 7) * 1_000,
        })
        .collect();
    let links_ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(simulate_cell_links(
                &fetches,
                cells,
                &DistributionParams::chunked(),
            ));
            elapsed_us(t0) / 1e3
        })
        .collect();
    result.layer("fleet.distribution.links_ms", median(&links_ms));

    // The chunked package store: publish the prior then the current
    // release's package into one cell, as two consecutive pushes do.
    let prior_mix = RequestMix::new(&inputs.prior, 0, 0);
    let prior_run = profile_run(&inputs.prior, &prior_mix, requests, inputs.seeds.profile);
    let prior_pkg = build_package(
        seeder_inputs(&inputs.prior, &prior_run),
        &args.scale.fleet_js_opts(),
        &JitOptions::default(),
    );
    let mut publish_ms = Vec::new();
    let mut dedup = 0.0;
    for _ in 0..reps {
        let store = PackageStore::new();
        let t0 = Instant::now();
        store.publish_chunked(&prior_pkg, inputs.prior.repo.funcs().len());
        store.publish_chunked(&pkg, app.repo.funcs().len());
        publish_ms.push(elapsed_us(t0) / 2e3);
        dedup = store.dedup_stats(0, 0).dedup_ratio();
    }
    result.layer("core.store.publish_ms", median(&publish_ms));
    result.layer("core.store.dedup_ratio", dedup);
    result.stats = stats;
}
