//! `jslayout` — global code layout benchmark: huge-page packing and
//! whole-cache hot/cold splitting, priced in modeled iTLB and I-cache
//! misses.
//!
//! Sweeps the layout ablation ladder on one application:
//!
//! * `baseline`    — hotness-order function sort, no global plan (the
//!   pre-BOLT bump allocator),
//! * `c3`          — C3 inlining-aware function clustering, no global plan,
//! * `c3+hotcold`  — plus whole-cache cold exile: every function's cold
//!   part moves to the 4 KiB-page cold region behind an 8-byte stub,
//! * `c3+hotcold+hugepages` — plus 2 MiB huge-page packing of hot text
//!   (the full stack; `LayoutPlanOptions::default()`).
//!
//! Each ablation boots a consumer from a ground-truth package, replays
//! steady-state traffic through the two-level iTLB core model, and
//! reports miss rates, modeled IPC, and the packing accounting (stub
//! bytes, huge-page padding, hot bytes per huge page). Every ablation is
//! booted twice and its layout digest compared, so the committed numbers
//! double as a plan-determinism certificate.
//!
//! Usage:
//!   jslayout           full run at bench scale, writes BENCH_layout.json
//!   jslayout --small   same sweep on the small lab (quick)
//!   jslayout --check   CI smoke: small lab; asserts the kill switch
//!                      reproduces plain bump placement (no pads, no
//!                      stubs, hot region == code bytes), the full stack
//!                      does not regress iTLB misses vs either baseline,
//!                      every ablation retires the same instruction count,
//!                      and every ablation's plan is byte-identically
//!                      reproducible across two boots. Writes nothing.

use bench::Lab;
use jit::{Executor, ExecutorConfig, JitOptions};
use jumpstart::{build_package, consume, FuncSort, JumpStartOptions, SeederInputs};
use layout::LayoutPlanOptions;
use uarch::MissReport;
use workload::{RequestMix, RequestSampler};

const WARM_REQUESTS: usize = 600;
const MEASURE_REQUESTS: usize = 600;
const REPLAY_SEED: u64 = 0xD1CE;
const SAMPLER_SEED: u64 = 0x5EED;
const THREADS: usize = 2;

/// One rung of the ablation ladder.
struct Ablation {
    name: &'static str,
    js: JumpStartOptions,
    jit: JitOptions,
}

fn ablations() -> Vec<Ablation> {
    vec![
        Ablation {
            name: "baseline",
            js: JumpStartOptions {
                func_sort: FuncSort::SourceOrder,
                ..JumpStartOptions::default()
            },
            jit: JitOptions {
                plan: LayoutPlanOptions::disabled(),
                ..JitOptions::default()
            },
        },
        Ablation {
            name: "c3",
            js: JumpStartOptions::default(),
            jit: JitOptions {
                plan: LayoutPlanOptions::disabled(),
                ..JitOptions::default()
            },
        },
        Ablation {
            name: "c3+hotcold",
            js: JumpStartOptions::default(),
            jit: JitOptions {
                plan: LayoutPlanOptions {
                    hugepage_pack: false,
                    global_hotcold: true,
                },
                ..JitOptions::default()
            },
        },
        Ablation {
            name: "c3+hotcold+hugepages",
            js: JumpStartOptions::default(),
            jit: JitOptions::default(),
        },
    ]
}

/// One ablation's measurement.
struct Row {
    name: &'static str,
    plan: LayoutPlanOptions,
    compiled_funcs: usize,
    report: MissReport,
    /// Optimized hot-part code bytes (pure code: no stubs, no padding).
    hot_code_bytes: u64,
    /// Optimized cold-part code bytes.
    cold_code_bytes: u64,
    /// Hot→cold transfer stubs resident in hot text.
    stub_bytes: u64,
    /// Huge-page boundary padding inserted by the packer.
    pad_bytes: u64,
    /// Hot region fill (code + stubs + padding).
    hot_region_used: u64,
    /// OptimizedCold region fill (zero when the plan is off).
    cold_region_used: u64,
    huge_pages: u64,
    hot_bytes_per_huge_page: f64,
    digest: u64,
}

/// Boots a consumer from a ground-truth package under the ablation's
/// knobs and returns the code-cache layout digest (plan determinism).
fn boot_digest(lab: &Lab, a: &Ablation) -> u64 {
    let (_, outcome) = boot(lab, a);
    outcome.engine.code_cache.layout_digest()
}

fn boot<'a>(
    lab: &'a Lab,
    a: &Ablation,
) -> (jumpstart::ProfilePackage, jumpstart::ConsumerOutcome<'a>) {
    let pkg = build_package(
        SeederInputs {
            repo: &lab.app.repo,
            tier: lab.truth.tier.clone(),
            ctx: lab.truth.ctx.clone(),
            unit_order: lab.truth.unit_order.clone(),
            requests: lab.truth.requests,
            region: 0,
            bucket: 0,
            seeder_id: 1,
            now_ms: 0,
        },
        &a.js,
        &a.jit,
    );
    let outcome = consume(&lab.app.repo, &pkg, a.jit, &a.js, THREADS).expect("healthy boot");
    (pkg, outcome)
}

/// Boots and replays steady-state traffic through the core model.
fn run_ablation(lab: &Lab, a: &Ablation) -> Row {
    let (pkg, outcome) = boot(lab, a);
    let cc = &outcome.engine.code_cache;
    let stats = cc.pack_stats();
    let sizes = outcome.engine.sizes();

    let mix = RequestMix::new(&lab.app, 0, 0);
    let mut executor = Executor::new(
        &lab.app.repo,
        cc,
        &lab.truth.tier,
        &lab.truth.ctx,
        ExecutorConfig {
            seed: REPLAY_SEED,
            ..Default::default()
        },
    );
    executor.set_unit_order(&pkg.preload.unit_order);
    let mut sampler = RequestSampler::new(SAMPLER_SEED);
    for _ in 0..WARM_REQUESTS {
        let (f, _) = sampler.request(&lab.app, &mix);
        executor.run_call(f);
    }
    executor.reset_stats();
    for _ in 0..MEASURE_REQUESTS {
        let (f, _) = sampler.request(&lab.app, &mix);
        executor.run_call(f);
    }

    Row {
        name: a.name,
        plan: cc.plan_options(),
        compiled_funcs: outcome.compiled_funcs,
        report: executor.report(),
        hot_code_bytes: sizes.optimized_hot,
        cold_code_bytes: sizes.optimized_cold,
        stub_bytes: cc.stub_bytes(),
        pad_bytes: stats.pad_bytes,
        hot_region_used: cc.hot.used,
        cold_region_used: cc.optimized_cold.used,
        huge_pages: cc.huge_pages_used(),
        hot_bytes_per_huge_page: cc.hot_bytes_per_huge_page(),
        digest: cc.layout_digest(),
    }
}

fn ipc(r: &MissReport) -> f64 {
    r.instructions as f64 / r.cycles.max(1) as f64
}

fn row_json(r: &Row) -> String {
    let m = &r.report;
    format!(
        concat!(
            "{{\"name\": \"{}\", \"hugepage_pack\": {}, \"global_hotcold\": {}, ",
            "\"compiled_funcs\": {}, \"instructions\": {}, \"cycles\": {}, \"ipc\": {:.4}, ",
            "\"itlb_accesses\": {}, \"itlb_misses\": {}, \"itlb_miss_rate\": {:.6}, ",
            "\"itlb_walks\": {}, \"itlb_walk_mpki\": {:.4}, ",
            "\"icache_misses\": {}, \"icache_miss_rate\": {:.6}, ",
            "\"hot_code_bytes\": {}, \"cold_code_bytes\": {}, \"stub_bytes\": {}, ",
            "\"pad_bytes\": {}, \"hot_region_used\": {}, \"cold_region_used\": {}, ",
            "\"huge_pages\": {}, \"hot_bytes_per_huge_page\": {:.0}, ",
            "\"layout_digest\": \"{:#018x}\"}}"
        ),
        r.name,
        r.plan.hugepage_pack,
        r.plan.global_hotcold,
        r.compiled_funcs,
        m.instructions,
        m.cycles,
        ipc(m),
        m.itlb.accesses,
        m.itlb.misses,
        m.itlb.miss_rate(),
        m.itlb_l2.misses,
        m.itlb_l2.mpki(m.instructions),
        m.icache.misses,
        m.icache.miss_rate(),
        r.hot_code_bytes,
        r.cold_code_bytes,
        r.stub_bytes,
        r.pad_bytes,
        r.hot_region_used,
        r.cold_region_used,
        r.huge_pages,
        r.hot_bytes_per_huge_page,
        r.digest,
    )
}

fn find<'a>(rows: &'a [Row], name: &str) -> &'a Row {
    rows.iter().find(|r| r.name == name).expect("ablation row")
}

fn usage() -> ! {
    eprintln!("usage: jslayout [--small | --check]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut small = false;
    for a in &args {
        match a.as_str() {
            "--check" => check = true,
            "--small" => small = true,
            bad => {
                eprintln!("jslayout: unknown argument `{bad}`");
                usage();
            }
        }
    }
    let small = check || small;

    let lab = if small {
        Lab::small()
    } else {
        Lab::bench_scale()
    };
    let lab_name = if small { "small" } else { "bench" };
    println!("jslayout: {lab_name} lab");

    let ladder = ablations();
    let mut rows = Vec::new();
    for a in &ladder {
        let row = run_ablation(&lab, a);
        println!(
            "{:>22}: IPC {:.4}, iTLB L1 {:>6} misses ({:.4}%), walks {:>5}, icache {:>6}, {} huge pages, {} stub B, {} pad B",
            row.name,
            ipc(&row.report),
            row.report.itlb.misses,
            row.report.itlb.miss_rate() * 100.0,
            row.report.itlb_l2.misses,
            row.report.icache.misses,
            row.huge_pages,
            row.stub_bytes,
            row.pad_bytes,
        );
        rows.push(row);
    }

    // Plan determinism: a second, independent boot of every ablation must
    // land every byte in the same place.
    let mut reproducible = true;
    for (a, row) in ladder.iter().zip(&rows) {
        let second = boot_digest(&lab, a);
        if second != row.digest {
            eprintln!(
                "{}: layout digest NOT reproducible ({:#x} vs {:#x})",
                a.name, row.digest, second
            );
            reproducible = false;
        }
    }
    println!(
        "plan determinism: {}",
        if reproducible {
            "all ablations byte-identical across two boots"
        } else {
            "FAILED"
        }
    );

    if check {
        assert!(reproducible, "layout plans must be reproducible");
        for r in &rows {
            assert!(r.report.instructions > 10_000, "{}: empty replay", r.name);
            assert!(r.compiled_funcs > 0);
            // Layout moves cycles, never instructions: the same request
            // stream retires the same count under every ablation. A replay
            // that drops or repeats an instruction breaks this first.
            assert_eq!(
                r.report.instructions, rows[0].report.instructions,
                "{}: retired instructions differ from {}",
                r.name, rows[0].name
            );
        }
        println!(
            "check ok: every ablation retires {} instructions",
            rows[0].report.instructions
        );
        // Kill switch = today's plain bump allocator: no boundary padding,
        // no stubs, no cold-region exile, and the hot region holds exactly
        // the emitted code bytes.
        for name in ["baseline", "c3"] {
            let r = find(&rows, name);
            assert_eq!(r.pad_bytes, 0, "{name}: disabled plan must not pad");
            assert_eq!(r.stub_bytes, 0, "{name}: disabled plan must not emit stubs");
            assert_eq!(
                r.cold_region_used, 0,
                "{name}: disabled plan must not exile cold parts"
            );
            assert_eq!(
                r.hot_region_used, r.hot_code_bytes,
                "{name}: disabled plan must place with a plain bump pointer"
            );
            assert_eq!(r.huge_pages, 0, "{name}: disabled plan models small pages");
        }
        println!("check ok: kill switch reproduces plain bump placement");
        // The full stack must not regress modeled iTLB behavior against
        // either baseline (small-lab code mostly fits, so this is a
        // no-regression gate; the strict win is gated on the committed
        // bench-scale BENCH_layout.json).
        let base = find(&rows, "baseline");
        let c3 = find(&rows, "c3");
        let full = find(&rows, "c3+hotcold+hugepages");
        assert!(
            full.report.itlb.miss_rate() <= base.report.itlb.miss_rate()
                && full.report.itlb.miss_rate() <= c3.report.itlb.miss_rate(),
            "full stack regressed the iTLB L1 miss rate: {:.6} vs base {:.6} / c3 {:.6}",
            full.report.itlb.miss_rate(),
            base.report.itlb.miss_rate(),
            c3.report.itlb.miss_rate(),
        );
        assert!(
            full.report.itlb_l2.misses <= base.report.itlb_l2.misses
                && full.report.itlb_l2.misses <= c3.report.itlb_l2.misses,
            "full stack regressed page walks: {} vs base {} / c3 {}",
            full.report.itlb_l2.misses,
            base.report.itlb_l2.misses,
            c3.report.itlb_l2.misses,
        );
        println!(
            "check ok: full stack iTLB ({} L1 misses, {} walks) <= baseline ({}, {}) and c3 ({}, {})",
            full.report.itlb.misses,
            full.report.itlb_l2.misses,
            base.report.itlb.misses,
            base.report.itlb_l2.misses,
            c3.report.itlb.misses,
            c3.report.itlb_l2.misses,
        );
        // Packing actually engaged: hot text is on huge pages and the
        // cold exile moved bytes behind stubs.
        assert!(full.huge_pages >= 1, "hot text must occupy huge pages");
        let hc = find(&rows, "c3+hotcold");
        assert!(
            hc.cold_region_used > 0 && hc.stub_bytes > 0,
            "global hot/cold must exile cold parts behind stubs"
        );
        println!(
            "check ok: full stack packs {} huge page(s)",
            full.huge_pages
        );
        return;
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"layout\",\n");
    json.push_str(&format!("  \"lab\": \"{lab_name}\",\n"));
    json.push_str(&format!("  \"reproducible\": {reproducible},\n"));
    json.push_str(&format!(
        "  \"warm_requests\": {WARM_REQUESTS},\n  \"measure_requests\": {MEASURE_REQUESTS},\n"
    ));
    json.push_str("  \"ablations\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str("    ");
        json.push_str(&row_json(r));
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_layout.json", &json).expect("write BENCH_layout.json");
    println!("wrote BENCH_layout.json");
}
