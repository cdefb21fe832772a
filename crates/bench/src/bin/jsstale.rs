//! `jsstale` — stale-profile matching benchmark (§VII-C profile
//! longevity).
//!
//! Collects a profile on the base release of the bench application, churns
//! the sources at a sweep of rates (the workload crate's release model:
//! renames, deletions, insertions, reorders, block splits/merges), and
//! repairs the stale profile against each churned repo under two modes:
//!
//! * `full` — the v2 matcher: name/body function identity, the two-rung
//!   (exact, opcode) block ladder and flow-conservation count inference,
//! * `drop` — drop every stale function (what a matcher-less consumer does).
//!
//! For each (rate, mode) it reports recovered counter-mass fraction, the
//! match-ladder histogram, and whether the repaired profile passes the
//! lint (flow conservation included) — repaired functions are held to
//! the same Kirchhoff standard as fresh ones. At one representative rate
//! it also boots a consumer on the churned repo from each repaired
//! package and replays traffic through the micro-architecture model, so
//! the counter-mass win is priced in steady-state CPI.
//!
//! Usage:
//!   jsstale           full run: small + bench sections, writes
//!                     BENCH_stale.json
//!   jsstale --small   small section only (quick), writes BENCH_stale.json
//!   jsstale --check   CI smoke: small sweep; asserts zero churn is a
//!                     no-op repair, every full-mode repair is flow-clean,
//!                     full-mode recovery dominates the drop baseline, and
//!                     recovery at churn 0.1 has not regressed below the
//!                     committed BENCH_stale.json. Writes nothing.

use analysis::{
    lint_profile, repair_profile_with, MatchMode, ProfileView, RepairOptions, RepairReport,
};
use jit::{Executor, ExecutorConfig, JitOptions};
use jumpstart::{build_package, consume, JumpStartOptions, SeederInputs};
use uarch::MissReport;
use workload::{
    generate, generate_release, profile_run, App, AppParams, ChurnParams, ChurnReport, ProfileRun,
    RequestMix, RequestSampler,
};

const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];
const CHURN_SEED: u64 = 0xC0DE;
const UARCH_RATE: f64 = 0.1;
/// The acceptance floor: at churn 0.1 the full matcher must recover at
/// least this fraction of the pre-churn counter mass.
const MIN_RECOVERED_AT_0P1: f64 = 0.8;

struct ModeRow {
    mode: &'static str,
    mass_after: u64,
    recovered: f64,
    report: RepairReport,
    flow_clean: bool,
}

struct RateRow {
    rate: f64,
    churn: ChurnReport,
    modes: Vec<ModeRow>,
}

struct UarchRow {
    mode: &'static str,
    compiled_funcs: usize,
    report: MissReport,
}

struct Section {
    lab: &'static str,
    mass_before: u64,
    sweep: Vec<RateRow>,
    uarch: Vec<UarchRow>,
}

/// Repairs a clone of the collected profile against `release` under
/// `mode` and grades the result.
fn repair_against(
    release: &App,
    run: &ProfileRun,
    mode: MatchMode,
    name: &'static str,
    mass_before: u64,
) -> (ModeRow, jit::TierProfile, jit::CtxProfile) {
    let mut tier = run.tier.clone();
    let mut ctx = run.ctx.clone();
    let report = repair_profile_with(&release.repo, &mut tier, &mut ctx, &RepairOptions { mode });
    let mass_after = tier.total_counter_mass();
    let errors = lint_profile(
        &release.repo,
        &ProfileView {
            tier: &tier,
            ctx: &ctx,
            unit_order: &[],
            prop_orders: &[],
            func_order: &[],
        },
    )
    .error_count();
    (
        ModeRow {
            mode: name,
            mass_after,
            recovered: mass_after as f64 / mass_before.max(1) as f64,
            report,
            flow_clean: errors == 0,
        },
        tier,
        ctx,
    )
}

/// Boots a consumer on the churned repo from a package carrying the
/// repaired profile, then replays traffic through the core model.
fn replay(
    release: &App,
    truth: &ProfileRun,
    tier: jit::TierProfile,
    ctx: jit::CtxProfile,
) -> (usize, MissReport) {
    let unit_order: Vec<bytecode::UnitId> = truth
        .unit_order
        .iter()
        .copied()
        .filter(|u| u.index() < release.repo.units().len())
        .collect();
    let opts = JumpStartOptions::default();
    let jit_opts = JitOptions::default();
    let pkg = build_package(
        SeederInputs {
            repo: &release.repo,
            tier,
            ctx,
            unit_order,
            requests: truth.requests,
            region: 0,
            bucket: 0,
            seeder_id: 1,
            now_ms: 0,
        },
        &opts,
        &jit_opts,
    );
    let outcome = consume(&release.repo, &pkg, jit_opts, &opts, 2).expect("repaired package boots");
    let mix = RequestMix::new(release, 0, 0);
    let mut executor = Executor::new(
        &release.repo,
        &outcome.engine.code_cache,
        &truth.tier,
        &truth.ctx,
        ExecutorConfig {
            seed: 0xD1CE,
            ..Default::default()
        },
    );
    executor.set_unit_order(&pkg.preload.unit_order);
    let mut sampler = RequestSampler::new(0x5EED);
    for _ in 0..150 {
        let (f, _) = sampler.request(release, &mix);
        executor.run_call(f);
    }
    executor.reset_stats();
    for _ in 0..600 {
        let (f, _) = sampler.request(release, &mix);
        executor.run_call(f);
    }
    (outcome.compiled_funcs, executor.report())
}

fn run_section(lab: &'static str, params: &AppParams, requests: usize) -> Section {
    eprintln!("[{lab}] generating base release + profile ({requests} requests)...");
    let base = generate(params);
    let mix = RequestMix::new(&base, 0, 0);
    let run = profile_run(&base, &mix, requests, 21);
    let mass_before = run.tier.total_counter_mass();

    let mut sweep = Vec::new();
    let mut uarch = Vec::new();
    for &rate in &RATES {
        let (release, churn) = generate_release(
            params,
            &ChurnParams {
                seed: CHURN_SEED,
                rate,
            },
        );
        let mut modes = Vec::new();
        for (mode, name) in [(MatchMode::Full, "full"), (MatchMode::DropStale, "drop")] {
            let (row, tier, ctx) = repair_against(&release, &run, mode, name, mass_before);
            println!(
                "[{lab}] rate={rate:<4} {name:>6}: recovered {:>5.1}% ({} repaired, {} dropped, flow {})",
                row.recovered * 100.0,
                row.report.repaired.len(),
                row.report.dropped.len(),
                if row.flow_clean { "clean" } else { "DIRTY" },
            );
            // Steady-state replay at the representative rate: price the
            // recovered mass in CPI on the churned release.
            if rate == UARCH_RATE {
                let truth = profile_run(&release, &RequestMix::new(&release, 0, 0), requests, 23);
                let (compiled_funcs, report) = replay(&release, &truth, tier, ctx);
                println!(
                    "[{lab}]   uarch {name}: {compiled_funcs} funcs, CPI {:.4}, icache misses {}",
                    report.cycles as f64 / report.instructions.max(1) as f64,
                    report.icache.misses,
                );
                uarch.push(UarchRow {
                    mode: name,
                    compiled_funcs,
                    report,
                });
            }
            modes.push(row);
        }
        sweep.push(RateRow { rate, churn, modes });
    }
    Section {
        lab,
        mass_before,
        sweep,
        uarch,
    }
}

fn recovered_at(section: &Section, rate: f64, mode: &str) -> f64 {
    section
        .sweep
        .iter()
        .find(|r| r.rate == rate)
        .and_then(|r| r.modes.iter().find(|m| m.mode == mode))
        .map(|m| m.recovered)
        .expect("sweep covers the rate")
}

fn mode_json(m: &ModeRow) -> String {
    let s = &m.report.stats;
    format!(
        concat!(
            "{{\"mode\": \"{}\", \"mass_after\": {}, \"recovered\": {:.4}, ",
            "\"funcs_repaired\": {}, \"funcs_dropped\": {}, \"pruned\": {}, \"flow_clean\": {}, ",
            "\"stats\": {{\"funcs_fresh\": {}, \"funcs_renamed\": {}, \"funcs_rebalanced\": {}, ",
            "\"blocks_exact\": {}, \"blocks_opcode\": {}, ",
            "\"blocks_inferred\": {}, \"blocks_dropped\": {}, ",
            "\"mass_matched\": {}, \"mass_dropped\": {}, \"branches_synthesized\": {}}}}}"
        ),
        m.mode,
        m.mass_after,
        m.recovered,
        m.report.repaired.len(),
        m.report.dropped.len(),
        m.report.pruned,
        m.flow_clean,
        s.funcs_fresh,
        s.funcs_renamed,
        s.funcs_rebalanced,
        s.blocks_exact,
        s.blocks_opcode,
        s.blocks_inferred,
        s.blocks_dropped,
        s.mass_matched,
        s.mass_dropped,
        s.branches_synthesized,
    )
}

fn section_json(s: &Section) -> String {
    let mut j = String::new();
    j.push_str(&format!(
        "{{\n      \"lab\": \"{}\",\n      \"mass_before\": {},\n      \"sweep\": [\n",
        s.lab, s.mass_before
    ));
    for (i, r) in s.sweep.iter().enumerate() {
        let c = &r.churn;
        j.push_str(&format!(
            concat!(
                "        {{\"rate\": {}, \"churn\": {{\"renamed\": {}, \"deleted\": {}, ",
                "\"inserted\": {}, \"files_reordered\": {}, \"branches_inserted\": {}, ",
                "\"cold_paths_removed\": {}}}, \"modes\": ["
            ),
            r.rate,
            c.funcs_renamed,
            c.funcs_deleted,
            c.funcs_inserted,
            c.files_reordered,
            c.branches_inserted,
            c.cold_paths_removed,
        ));
        for (k, m) in r.modes.iter().enumerate() {
            j.push_str(&mode_json(m));
            if k + 1 < r.modes.len() {
                j.push_str(", ");
            }
        }
        j.push_str(if i + 1 < s.sweep.len() {
            "]},\n"
        } else {
            "]}\n"
        });
    }
    j.push_str("      ],\n      \"uarch\": [\n");
    for (i, u) in s.uarch.iter().enumerate() {
        let r = &u.report;
        j.push_str(&format!(
            concat!(
                "        {{\"mode\": \"{}\", \"compiled_funcs\": {}, \"cycles\": {}, ",
                "\"instructions\": {}, \"cpi\": {:.4}, \"icache_misses\": {}, ",
                "\"dcache_misses\": {}, \"branch_misses\": {}, \"itlb_misses\": {}}}"
            ),
            u.mode,
            u.compiled_funcs,
            r.cycles,
            r.instructions,
            r.cycles as f64 / r.instructions.max(1) as f64,
            r.icache.misses,
            r.dcache.misses,
            r.branch.misses,
            r.itlb.misses,
        ));
        j.push_str(if i + 1 < s.uarch.len() { ",\n" } else { "\n" });
    }
    j.push_str("      ]\n    }");
    j
}

/// The number under top-level `key` of the committed baseline document.
fn baseline_value(doc: &str, key: &str) -> Option<f64> {
    telemetry::json::parse(doc).ok()?.get(key)?.as_f64()
}

fn usage() -> ! {
    eprintln!("usage: jsstale [--small | --check]");
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
                eprintln!("jsstale: unknown argument `{bad}`");
                usage();
            }
        }
    }

    let small_section = run_section("small", &AppParams::tiny(), 250);

    if check {
        // Zero churn is the same release: repair must be a perfect no-op.
        let zero = &small_section.sweep[0];
        assert_eq!(zero.rate, 0.0);
        for m in &zero.modes {
            assert!(
                m.report.untouched(),
                "churn 0 must leave the profile untouched under {}: {:?}",
                m.mode,
                m.report
            );
            assert_eq!(m.mass_after, small_section.mass_before);
        }
        // Every full-mode repair ends flow-clean: inferred counts satisfy
        // the same Kirchhoff lint fresh profiles do.
        for r in &small_section.sweep {
            let full = r.modes.iter().find(|m| m.mode == "full").unwrap();
            assert!(
                full.flow_clean,
                "full repair at rate {} left flow-conservation errors",
                r.rate
            );
            let drop = r.modes.iter().find(|m| m.mode == "drop").unwrap();
            assert!(
                full.recovered >= drop.recovered,
                "full matcher recovered less than the drop baseline at rate {}: {:.3} < {:.3}",
                r.rate,
                full.recovered,
                drop.recovered
            );
        }
        let at_0p1 = recovered_at(&small_section, UARCH_RATE, "full");
        assert!(
            at_0p1 >= MIN_RECOVERED_AT_0P1,
            "full matcher recovered only {:.1}% at churn {UARCH_RATE} (floor {:.0}%)",
            at_0p1 * 100.0,
            MIN_RECOVERED_AT_0P1 * 100.0
        );
        println!(
            "check ok: churn 0 untouched, all full repairs flow-clean, full >= drop, {:.1}% recovered at churn {UARCH_RATE}",
            at_0p1 * 100.0
        );
        // Regression gate against the committed baseline (small section):
        // a matcher change must not lose already-achieved recovery.
        match std::fs::read_to_string("BENCH_stale.json") {
            Ok(doc) => {
                let committed = baseline_value(&doc, "small_recovered_at_0p1")
                    .expect("BENCH_stale.json has small_recovered_at_0p1");
                assert!(
                    at_0p1 >= committed - 0.02,
                    "recovered mass at churn {UARCH_RATE} regressed: {at_0p1:.4} vs committed {committed:.4}"
                );
                println!(
                    "check ok: recovery at churn {UARCH_RATE} holds the committed baseline ({at_0p1:.4} vs {committed:.4})"
                );
            }
            Err(_) => println!("check note: no committed BENCH_stale.json, baseline gate skipped"),
        }
        // The uarch replay ran and produced real measurements.
        for u in &small_section.uarch {
            assert!(u.report.instructions > 10_000, "{}: empty replay", u.mode);
            assert!(u.compiled_funcs > 0);
        }
        println!("check ok: steady-state replay measured for full and drop repairs");
        return;
    }

    let bench_section = if small {
        None
    } else {
        Some(run_section("bench", &AppParams::bench(), 600))
    };

    let small_at = recovered_at(&small_section, UARCH_RATE, "full");
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"stale\",\n");
    json.push_str(&format!("  \"churn_seed\": {CHURN_SEED},\n"));
    json.push_str(&format!(
        "  \"rates\": [{}],\n",
        RATES.map(|r| r.to_string()).join(", ")
    ));
    json.push_str(&format!("  \"small_recovered_at_0p1\": {small_at:.4},\n"));
    if let Some(b) = &bench_section {
        let bench_at = recovered_at(b, UARCH_RATE, "full");
        json.push_str(&format!("  \"bench_recovered_at_0p1\": {bench_at:.4},\n"));
    }
    json.push_str("  \"sections\": {\n    \"small\": ");
    json.push_str(&section_json(&small_section));
    if let Some(b) = &bench_section {
        json.push_str(",\n    \"bench\": ");
        json.push_str(&section_json(b));
    }
    json.push_str("\n  }\n}\n");
    std::fs::write("BENCH_stale.json", &json).expect("write BENCH_stale.json");
    println!("wrote BENCH_stale.json");
}
