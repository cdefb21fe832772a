//! `jsfleet` — paper-scale fleet benchmark: one full C1/C2/C3 push over
//! thousands of simulated servers, sharded over threads.
//!
//! The default run deploys across 2 regions x 5 semantic buckets (the 10
//! partitions of §IV-A) with 200 Jump-Start consumers and 20 baselines
//! per cell — 2200 servers, millions of simulated requests — staggered,
//! jittered, and with a 5% degraded-host tail. It prints the headline
//! numbers and writes `BENCH_fleet.json` (events/sec, wall time, fleet
//! p50/p95/p99 boot and ready times, capacity loss) for the CI gate.
//!
//! `events` and `events_per_sec` count accounted server steps: each
//! server's steps up to quiescence, as if it were stepped alone. Servers
//! of a cell share their post-serve lives, so far fewer steps are
//! simulated; `lives` and `life_steps` say how many lives and steps were.
//!
//! Usage:
//!   jsfleet              paper-scale run, writes BENCH_fleet.json
//!   jsfleet --check      CI smoke: small fleet on 1, 2 and 3 shards (3
//!                        threads for 4 seeders), asserts the reports are
//!                        bit-identical, the digest equals its pinned
//!                        value and the work counters are equal and sane
//!                        (the same lives, life steps and classified
//!                        timelines on every shard count, no more lives
//!                        than servers and no more life steps than
//!                        accounted steps). Writes nothing. Exits nonzero
//!                        on any violation.
//!   jsfleet --shards N   override the shard (thread) count
//!   jsfleet --servers N  override consumers per cell
//!   jsfleet --trace F    additionally write the representative servers'
//!                        Chrome trace (Perfetto-loadable) to F

use std::fmt::Write as _;
use std::time::Instant;

use fleet::{
    run_deployment, run_deployment_with_prior, ArmSummary, DeployParams, DeployReport,
    DistributionParams, FaultPlan, FleetShape, WarmupClass, WarmupParams,
};
use jumpstart::JumpStartOptions;
use telemetry::AggStat;
use workload::{generate, generate_release, App, AppParams, ChurnParams};

fn usage() -> ! {
    eprintln!("usage: jsfleet [--check] [--shards N] [--servers N] [--trace FILE]");
    std::process::exit(2);
}

fn lenient_js_opts() -> JumpStartOptions {
    // The synthetic app is small; production-scale validation floors
    // would reject every package outright.
    JumpStartOptions {
        min_funcs_profiled: 5,
        min_counter_mass: 100,
        min_requests: 10,
        ..Default::default()
    }
}

/// The small fleet's [`DeployReport::digest`]: every per-server outcome
/// of `--check`'s run. A change that moves it changes what the fleet
/// computes and must re-pin it with the reason.
const CHECK_DIGEST: u32 = 0x30a1_a28a;

/// The release churn between consecutive pushes the distribution model
/// prices deltas against (matches the paper's ~3 pushes/day cadence).
const PUSH_CHURN: f64 = 0.1;

/// The previous and current release of the same app: consumers hold the
/// previous release's chunks in cache when the current push arrives.
fn consecutive_releases(params: &AppParams, seed: u64) -> (App, App) {
    let (prior, _) = generate_release(params, &ChurnParams::none());
    let (current, _) = generate_release(
        params,
        &ChurnParams {
            seed,
            rate: PUSH_CHURN,
        },
    );
    (prior, current)
}

fn paper_scale(shards: u32, servers_per_cell: u32) -> DeployParams {
    DeployParams::default()
        .with_cells(2, 5)
        .with_seeders(3, 150)
        .with_warmup(WarmupParams::fig4().with_early_serve(0.25))
        .with_distribution(DistributionParams::chunked())
        .with_fleet(
            FleetShape::default()
                .with_servers(servers_per_cell, servers_per_cell / 10)
                .with_representatives(2)
                .with_shards(shards)
                .with_stagger(120_000)
                .with_jitter(150),
        )
        .with_faults(FaultPlan::default().with_slow_consumers(50, 300))
        .with_seed(0xf1ee7)
        .with_js_opts(lenient_js_opts())
}

fn small_fleet(shards: u32) -> DeployParams {
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
                .with_servers(6, 2)
                .with_shards(shards)
                .with_stagger(30_000)
                .with_jitter(100),
        )
        .with_faults(FaultPlan::default().with_slow_consumers(200, 300))
        .with_seed(0xc11ec)
        .with_js_opts(lenient_js_opts())
}

fn stat_json(out: &mut String, name: &str, stat: Option<&AggStat>) {
    match stat {
        Some(s) => {
            let _ = write!(
                out,
                "\"{name}\":{{\"n\":{},\"mean\":{:.3},\"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3},\"min\":{:.3},\"max\":{:.3}}}",
                s.n, s.mean, s.p50, s.p95, s.p99, s.min, s.max
            );
        }
        None => {
            let _ = write!(out, "\"{name}\":{{\"n\":0}}");
        }
    }
}

/// Per-class server counts for one arm, as a JSON object — the same
/// numbers `jswarmup` reports, so the two benches can't drift apart.
fn class_counts_json(out: &mut String, name: &str, arm: &ArmSummary) {
    let _ = write!(out, "\"{name}\":{{");
    for (i, c) in WarmupClass::all().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", c.name(), arm.counts.get(c));
    }
    out.push('}');
}

fn print_summary(report: &DeployReport, wall_ms: f64, events_per_sec: f64) {
    let sim = report.sim;
    println!(
        "  {} servers on {} shard(s): {} events, {} steps computed of {} dense ({:.1}x saved)",
        sim.servers,
        sim.shards,
        sim.events,
        sim.steps_executed,
        sim.steps_dense,
        sim.steps_dense as f64 / sim.steps_executed.max(1) as f64,
    );
    println!(
        "  {} distinct lives simulated {} steps for them all",
        sim.lives, sim.life_steps,
    );
    println!(
        "  {:.2}M simulated requests in {:.0} ms wall ({:.0} events/sec)",
        sim.requests / 1e6,
        wall_ms,
        events_per_sec,
    );
    let agg = report.fleet_aggregate();
    if let Some(boot) = agg.stat("server.boot_ms") {
        println!(
            "  boot_ms  p50 {:>8.0}  p95 {:>8.0}  p99 {:>8.0}",
            boot.p50, boot.p95, boot.p99
        );
    }
    if let Some(ready) = agg.stat("server.ready_ms") {
        println!(
            "  ready_ms p50 {:>8.0}  p95 {:>8.0}  p99 {:>8.0}  ({}/{} reached 0.9 rps)",
            ready.p50, ready.p95, ready.p99, ready.n, agg.servers
        );
    }
    println!(
        "  capacity-loss reduction vs no-Jump-Start: {:.1}% (paper: 54.9%)",
        report.capacity_loss_reduction(600_000)
    );
    let w = &report.warmup;
    println!(
        "  warmup classes: js {}/{} warmup, no-js {}/{} (report digest 0x{:08x})",
        w.js.counts.get(WarmupClass::Warmup),
        w.js.counts.total(),
        w.nojs.counts.get(WarmupClass::Warmup),
        w.nojs.counts.total(),
        w.digest(),
    );
    let d = &report.distribution;
    if d.enabled {
        println!(
            "  distribution: {:.2} MB on wire of {:.2} MB full ({:.0}% saved), \
             chunk-cache hit rate {:.0}%, download mean {:.0} ms / max {} ms",
            d.bytes_on_wire as f64 / 1e6,
            d.bytes_full as f64 / 1e6,
            (1.0 - d.wire_ratio()) * 100.0,
            d.cache_hit_rate() * 100.0,
            d.mean_download_ms,
            d.max_download_ms,
        );
    }
}

fn check() {
    let app = generate(&AppParams::tiny());
    println!("jsfleet --check: small fleet, shard invariance + counters");

    let t0 = Instant::now();
    let one = run_deployment(&app, &small_fleet(1));
    let wall_one = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let two = run_deployment(&app, &small_fleet(2));
    let wall_two = t1.elapsed().as_secs_f64() * 1e3;
    // 4 seeding jobs on 3 shards: one thread runs two of them.
    let three = run_deployment(&app, &small_fleet(3));

    assert_eq!(
        one.digest(),
        CHECK_DIGEST,
        "the small fleet's digest moved: 0x{:08x}, pinned 0x{CHECK_DIGEST:08x}",
        one.digest(),
    );
    for many in [&two, &three] {
        let shards = many.sim.shards;
        assert_eq!(
            many.digest(),
            CHECK_DIGEST,
            "digest must not depend on shard count ({shards} shards)"
        );
        assert_eq!(
            one.stats, many.stats,
            "per-server stats must not depend on shard count ({shards} shards)"
        );
        assert_eq!(
            one.fleet_aggregate(),
            many.fleet_aggregate(),
            "aggregates must not depend on shard count ({shards} shards)"
        );
        // Each cell's lives and classifier memo are built once per
        // deployment, whichever thread runs the cell.
        assert_eq!(
            (one.sim.lives, one.sim.life_steps, one.sim.classified),
            (many.sim.lives, many.sim.life_steps, many.sim.classified),
            "work counters must not depend on shard count ({shards} shards)"
        );
    }
    for run in [&one, &two, &three] {
        let (sim, shards) = (run.sim, run.sim.shards);
        assert!(
            sim.lives <= sim.servers as u64,
            "more lives than servers ({shards} shards)"
        );
        assert!(
            sim.life_steps <= sim.steps_executed,
            "lives computed more steps than the servers account ({shards} shards)"
        );
    }
    assert!(one.published > 0, "seeding must publish packages");
    assert!(one.sim.requests > 0.0, "fleet must serve requests");
    assert!(
        one.sim.steps_executed < one.sim.steps_dense,
        "the driver must skip provably-idle steps"
    );
    assert!(
        one.stats.iter().any(|s| s.slow_host),
        "fault plan must place degraded hosts"
    );
    assert!(
        one.sim.classified < one.sim.servers as u64,
        "repeated timelines must be answered by the classifier memo"
    );
    let reduction = one.capacity_loss_reduction(200_000);
    assert!(
        reduction > 10.0,
        "Jump-Start must reduce capacity loss, got {reduction:.1}%"
    );

    // Distribution model: chunk deltas beat full sends, and the link
    // simulation stays shard-invariant.
    let (prior, current) = consecutive_releases(&AppParams::tiny(), 0xc11ec);
    let chunked = run_deployment_with_prior(
        &current,
        Some(&prior),
        &small_fleet(1).with_distribution(DistributionParams::chunked()),
    );
    let chunked_sharded = run_deployment_with_prior(
        &current,
        Some(&prior),
        &small_fleet(2).with_distribution(DistributionParams::chunked()),
    );
    assert_eq!(
        chunked.digest(),
        chunked_sharded.digest(),
        "distribution plan must not depend on shard count"
    );
    let full = run_deployment_with_prior(
        &current,
        Some(&prior),
        &small_fleet(1).with_distribution(DistributionParams::full()),
    );
    assert!(
        chunked.distribution.bytes_on_wire < full.distribution.bytes_on_wire,
        "chunk deltas must ship fewer bytes than full packages"
    );
    assert!(
        chunked.distribution.chunks_cached > 0,
        "consumer caches must absorb unchanged chunks"
    );
    assert!(
        chunked
            .stats
            .iter()
            .filter(|s| s.jumpstart)
            .all(|s| s.download_ms > 0 && s.bytes_on_wire > 0),
        "every consumer fetch must be priced and scheduled"
    );

    println!(
        "  fold: {} distinct timelines for {} servers",
        one.sim.classified, one.sim.servers
    );
    for run in [&one, &two, &three] {
        println!(
            "  fan-out on {} shard(s): {} lives, {} life steps for {} accounted",
            run.sim.shards, run.sim.lives, run.sim.life_steps, run.sim.steps_executed
        );
    }
    println!(
        "  ok: digest 0x{:08x}, {} servers ({}/{} classified), reduction {:.1}%, wire ratio {:.2}, wall {:.0}+{:.0} ms",
        one.digest(),
        one.sim.servers,
        one.sim.classified,
        one.sim.servers,
        reduction,
        chunked.distribution.wire_ratio(),
        wall_one,
        wall_two,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check_mode = false;
    let mut shards: Option<u32> = None;
    let mut servers: Option<u32> = None;
    let mut trace_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check_mode = true,
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => shards = Some(n),
                None => usage(),
            },
            "--servers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => servers = Some(n),
                None => usage(),
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p.clone()),
                None => usage(),
            },
            _ => usage(),
        }
    }

    if check_mode {
        check();
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = shards.unwrap_or(cores as u32);
    let servers_per_cell = servers.unwrap_or(200);
    let params = paper_scale(shards, servers_per_cell);
    println!(
        "jsfleet: {} regions x {} buckets, {}+{} servers/cell, {} shard(s), {} hardware core(s)",
        params.regions,
        params.buckets,
        params.fleet.servers_per_cell,
        params.fleet.baselines_per_cell,
        params.fleet.shards,
        cores,
    );

    // Consecutive releases: consumers hold the prior push's chunks.
    let (prior, app) = consecutive_releases(&AppParams::tiny(), params.seed);
    let t0 = Instant::now();
    let report = run_deployment_with_prior(&app, Some(&prior), &params);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let events_per_sec = report.sim.events as f64 / (wall_ms / 1e3).max(1e-9);
    print_summary(&report, wall_ms, events_per_sec);

    if let Some(path) = &trace_path {
        std::fs::write(path, report.to_chrome_trace()).expect("write trace");
        println!("wrote {path}");
    }

    let agg = report.fleet_aggregate();
    let sim = report.sim;
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"cores\":{cores},\"shards\":{},\"regions\":{},\"buckets\":{},\
         \"servers\":{},\"consumers\":{},\"baselines\":{},\
         \"published\":{},\"validation_failures\":{},\"seeder_crashes\":{},\
         \"events\":{},\"steps_executed\":{},\"steps_dense\":{},\
         \"lives\":{},\"life_steps\":{},\
         \"total_requests\":{:.0},\"wall_ms\":{wall_ms:.1},\"events_per_sec\":{events_per_sec:.0},\
         \"digest\":{},",
        sim.shards,
        params.regions,
        params.buckets,
        sim.servers,
        report.stats.iter().filter(|s| s.jumpstart).count(),
        report.stats.iter().filter(|s| !s.jumpstart).count(),
        report.published,
        report.validation_failures,
        report.seeder_crashes,
        sim.events,
        sim.steps_executed,
        sim.steps_dense,
        sim.lives,
        sim.life_steps,
        sim.requests,
        report.digest(),
    );
    stat_json(&mut json, "boot_ms", agg.stat("server.boot_ms"));
    json.push(',');
    stat_json(&mut json, "ready_ms", agg.stat("server.ready_ms"));
    json.push(',');
    stat_json(&mut json, "capacity_loss", agg.stat("server.capacity_loss"));
    json.push(',');
    stat_json(&mut json, "download_ms", agg.stat("server.download_ms"));
    let d = &report.distribution;
    let _ = write!(
        json,
        ",\"early_serve_frac\":{},\"distribution\":{{\"chunked\":{},\"push_churn\":{PUSH_CHURN},\
         \"bytes_full\":{},\"bytes_on_wire\":{},\"manifest_bytes\":{},\"wire_ratio\":{:.4},\
         \"chunks_sent\":{},\"chunks_cached\":{},\"cache_hit_rate\":{:.4},\
         \"store_dedup_ratio\":{:.4},\"mean_download_ms\":{:.1},\"max_download_ms\":{}}}",
        params.warmup.early_serve_frac,
        d.chunked,
        d.bytes_full,
        d.bytes_on_wire,
        d.manifest_bytes,
        d.wire_ratio(),
        d.chunks_sent,
        d.chunks_cached,
        d.cache_hit_rate(),
        d.store_dedup_ratio(),
        d.mean_download_ms,
        d.max_download_ms,
    );
    let _ = write!(
        json,
        ",\"mean_loss_js\":{:.4},\"mean_loss_nojs\":{:.4},\"capacity_loss_reduction_pct\":{:.2}",
        report.mean_loss_js(params.warmup.duration_ms),
        report.mean_loss_nojs(params.warmup.duration_ms),
        report.capacity_loss_reduction(params.warmup.duration_ms),
    );
    json.push_str(",\"warmup_classes\":{");
    class_counts_json(&mut json, "js", &report.warmup.js);
    json.push(',');
    class_counts_json(&mut json, "nojs", &report.warmup.nojs);
    let _ = write!(json, "}},\"warmup_digest\":{}}}", report.warmup.digest());
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");
}
