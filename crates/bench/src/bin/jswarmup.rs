//! `jswarmup` — statistically rigorous warmup classification over the
//! paper-scale fleet.
//!
//! Fig. 1/2 readings taken off one representative server with ad-hoc
//! thresholds can silently misreport: "VM Warmup Blows Hot and Cold"
//! shows real VMs often never settle, settle non-monotonically, or get
//! *slower*. This bench runs the PELT-based per-server classifier
//! (`fleet::warmup`) over whole deployments and proves the properties CI
//! gates on:
//!
//! * fault-free arm: ≥95% of Jump-Start consumers classify `warmup`,
//!   none `slowdown`, and the js time-to-steady-state p50 (with
//!   bootstrap CI) sits strictly below the no-js arm;
//! * faulted arm: degrading-host victims classify `slowdown` /
//!   `no-steady-state` — a fleet-mean curve would average them away,
//!   per-server classification must not;
//! * the full `WarmupReport` (class counts, TTSS CIs, median fleet
//!   curve) is byte-identical across runs and shard counts.
//!
//! Usage:
//!   jswarmup             paper-scale sweep (fault-free + faulted arms),
//!                        writes BENCH_warmup.json
//!   jswarmup --check     CI smoke: small fleet, asserts shard-invariant
//!                        byte-identical reports, the pinned digest, sane
//!                        classes, and that degrading victims never read
//!                        as settled.
//!                        Writes nothing unless --trace is given.
//!   jswarmup --shards N  override the shard (thread) count
//!   jswarmup --servers N override consumers per cell
//!   jswarmup --trace F   write the representatives' Chrome trace to F
//!                        (the input `jstrace --warmup` consumes)

use std::fmt::Write as _;
use std::time::Instant;

use fleet::{
    run_deployment, ArmSummary, DeployParams, DeployReport, FaultPlan, FleetShape, WarmupClass,
    WarmupParams, WarmupReport,
};
use jumpstart::JumpStartOptions;
use workload::{generate, AppParams};

fn usage() -> ! {
    eprintln!("usage: jswarmup [--check] [--shards N] [--servers N] [--trace FILE]");
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

/// The small fleet's [`WarmupReport::digest`], a CRC of `--check`'s
/// whole report. A change that moves it changes what the fleet computes
/// and must re-pin it with the reason.
const CHECK_DIGEST: u32 = 0xb264_7c21;

/// The fault-free paper-scale arm: 2 regions x 5 buckets, staggered and
/// jittered but with no fault plan, so every class other than `warmup`
/// in the js arm is a classifier finding, not an injected one.
fn clean_arm(shards: u32, servers_per_cell: u32) -> DeployParams {
    DeployParams::default()
        .with_cells(2, 5)
        .with_seeders(3, 150)
        .with_warmup(WarmupParams::fig4().with_early_serve(0.25))
        .with_fleet(
            FleetShape::default()
                .with_servers(servers_per_cell, servers_per_cell / 10)
                .with_representatives(2)
                .with_shards(shards)
                .with_stagger(120_000)
                .with_jitter(150),
        )
        .with_seed(0x3a9e)
        .with_js_opts(lenient_js_opts())
}

/// The faulted arm: same fleet with slow hosts (boot late, then serve
/// fine — still `warmup`) and degrading hosts (service time inflates
/// with uptime — must classify `slowdown`/`no-steady-state`).
fn faulted_arm(shards: u32, servers_per_cell: u32) -> DeployParams {
    clean_arm(shards, servers_per_cell).with_faults(
        FaultPlan::default()
            .with_slow_consumers(100, 300)
            .with_degrading(150, 120),
    )
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
                .with_servers(8, 2)
                .with_shards(shards)
                .with_stagger(30_000)
                .with_jitter(100),
        )
        .with_seed(0xc11ec)
        .with_js_opts(lenient_js_opts())
}

/// Count of servers a per-server classifier may never report on a
/// healthy fleet read: settled means `warmup` or `flat`.
fn settled(arm: &ArmSummary) -> u32 {
    arm.counts.get(WarmupClass::Warmup) + arm.counts.get(WarmupClass::Flat)
}

fn print_arm(label: &str, arm: &ArmSummary) {
    let total = arm.counts.total().max(1);
    let mut classes = String::new();
    for c in WarmupClass::all() {
        let n = arm.counts.get(c);
        if n > 0 {
            let _ = write!(classes, " {}={n}", c.name());
        }
    }
    println!(
        "  {label:<5} {} servers:{classes}  ({:.1}% warmup)",
        arm.counts.total(),
        arm.counts.get(WarmupClass::Warmup) as f64 / total as f64 * 100.0,
    );
    if arm.ttss_n > 0 {
        println!(
            "        ttss p50 {:>7.0} ms [{:.0}, {:.0}]  p95 {:>7.0} ms  p99 {:>7.0} ms  (n={})",
            arm.ttss_p50.value,
            arm.ttss_p50.lo,
            arm.ttss_p50.hi,
            arm.ttss_p95.value,
            arm.ttss_p99.value,
            arm.ttss_n,
        );
    }
}

/// Degrading-host victims and how many of them the classifier let slip
/// through as settled (`warmup`/`flat`) — the number CI pins to zero.
fn victim_counts(report: &DeployReport) -> (u32, u32) {
    let mut victims = 0;
    let mut slipped = 0;
    for s in report.stats.iter().filter(|s| s.degrading) {
        victims += 1;
        if matches!(s.class, WarmupClass::Warmup | WarmupClass::Flat) {
            slipped += 1;
        }
    }
    (victims, slipped)
}

fn check(trace_path: Option<&str>) {
    let app = generate(&AppParams::tiny());
    println!("jswarmup --check: small fleet, classification + shard invariance");

    let one = run_deployment(&app, &small_fleet(1));
    let two = run_deployment(&app, &small_fleet(2));
    assert_eq!(
        one.warmup.to_json(),
        two.warmup.to_json(),
        "WarmupReport must be byte-identical across shard counts"
    );
    assert_eq!(one.warmup.digest(), two.warmup.digest());
    assert_eq!(
        one.warmup.digest(),
        CHECK_DIGEST,
        "the small fleet's warmup digest moved: 0x{:08x}, pinned 0x{CHECK_DIGEST:08x}",
        one.warmup.digest(),
    );
    let rerun = run_deployment(&app, &small_fleet(1));
    assert_eq!(
        one.warmup.to_json(),
        rerun.warmup.to_json(),
        "WarmupReport must be byte-identical across runs"
    );

    let w = &one.warmup;
    assert!(w.js.counts.total() > 0 && w.nojs.counts.total() > 0);
    assert_eq!(
        w.js.counts.get(WarmupClass::Slowdown),
        0,
        "fault-free js consumers must never classify slowdown"
    );
    assert!(
        w.js.counts.get(WarmupClass::Warmup) > 0,
        "js consumers must classify warmup"
    );
    assert!(
        w.js.ttss_n > 0 && w.nojs.ttss_n > 0,
        "both arms must produce steady-state times"
    );
    assert!(
        w.js.ttss_p50.value < w.nojs.ttss_p50.value,
        "js must reach steady state before no-js: {} vs {}",
        w.js.ttss_p50.value,
        w.nojs.ttss_p50.value
    );
    assert!(
        !w.js.median_curve.is_empty(),
        "median fleet curve must be populated"
    );

    // Degrading hosts: per-server classification must not let a
    // monotonically-worsening victim read as settled.
    let faulted = run_deployment(
        &app,
        &small_fleet(1).with_faults(FaultPlan::default().with_degrading(1000, 120)),
    );
    let (victims, slipped) = victim_counts(&faulted);
    assert!(victims > 0, "fault plan must place degrading hosts");
    assert_eq!(
        slipped, 0,
        "{slipped}/{victims} degrading victims read as settled"
    );

    if let Some(path) = trace_path {
        std::fs::write(path, one.to_chrome_trace()).expect("write trace");
        println!("  wrote {path}");
    }
    println!(
        "  ok: digest 0x{:08x}, js ttss p50 {:.0} ms < nojs {:.0} ms, {} degrading victims all flagged",
        w.digest(),
        w.js.ttss_p50.value,
        w.nojs.ttss_p50.value,
        victims,
    );
}

/// Embeds a [`WarmupReport`] (already JSON) as a named object field.
fn arm_json(out: &mut String, name: &str, report: &WarmupReport) {
    let _ = write!(
        out,
        "\"{name}\":{},\"{name}_digest\":{}",
        report.to_json(),
        report.digest()
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
        check(trace_path.as_deref());
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = shards.unwrap_or(cores as u32);
    let servers_per_cell = servers.unwrap_or(100);
    println!(
        "jswarmup: 2 regions x 5 buckets, {servers_per_cell}+{} servers/cell, {shards} shard(s), {cores} hardware core(s)",
        servers_per_cell / 10,
    );
    let app = generate(&AppParams::tiny());

    let t0 = Instant::now();
    let clean = run_deployment(&app, &clean_arm(shards, servers_per_cell));
    println!("fault-free arm:");
    print_arm("js", &clean.warmup.js);
    print_arm("no-js", &clean.warmup.nojs);

    // Byte-identical across shard counts (and therefore across runs:
    // the same params at a different shard count is both at once).
    let alt_shards = if shards == 1 { 2 } else { shards - 1 };
    let resharded = run_deployment(&app, &clean_arm(alt_shards, servers_per_cell));
    let reproducible = clean.warmup.to_json() == resharded.warmup.to_json();
    println!("  reproducible across {shards} vs {alt_shards} shard(s): {reproducible}");

    let faulted = run_deployment(&app, &faulted_arm(shards, servers_per_cell));
    let (victims, slipped) = victim_counts(&faulted);
    println!("faulted arm (slow 10%, degrading 15%):");
    print_arm("js", &faulted.warmup.js);
    print_arm("no-js", &faulted.warmup.nojs);
    println!("  {victims} degrading victims, {slipped} misread as settled");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("  {wall_ms:.0} ms wall for 3 deployments");

    if let Some(path) = &trace_path {
        std::fs::write(path, clean.to_chrome_trace()).expect("write trace");
        println!("wrote {path}");
    }

    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"cores\":{cores},\"shards\":{shards},\"servers\":{},\"regions\":2,\"buckets\":5,\
         \"wall_ms\":{wall_ms:.1},\"reproducible\":{reproducible},",
        clean.sim.servers,
    );
    arm_json(&mut json, "clean", &clean.warmup);
    json.push(',');
    arm_json(&mut json, "faulted", &faulted.warmup);
    let _ = write!(
        json,
        ",\"degrading_victims\":{victims},\"victims_settled\":{slipped},\
         \"faulted_settled_js\":{},\"faulted_total_js\":{}}}",
        settled(&faulted.warmup.js),
        faulted.warmup.js.counts.total(),
    );
    std::fs::write("BENCH_warmup.json", &json).expect("write BENCH_warmup.json");
    println!("wrote BENCH_warmup.json");
}
