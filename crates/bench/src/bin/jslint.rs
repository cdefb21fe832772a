//! `jslint` — static lint of a Jump-Start profile package (§VI).
//!
//! The `analysis` crate's profile linter decides, without compiling or
//! booting anything, whether a package's profile data can possibly
//! describe the deployed repo. This tool runs it against the bench-scale
//! application and prints its diagnostics, every one an error.
//!
//! Usage:
//!   jslint            lint a freshly built package (expected clean)
//!   jslint --full     same, at full bench scale instead of the small lab
//!   jslint --demo     inject one corruption of each class the acceptance
//!                     criteria name (dangling id, flow-conservation
//!                     violation, stale CFG) and verify the linter flags
//!                     each AND the seeder validator rejects each as a
//!                     static-lint failure carrying the printed report's
//!                     error count and first line. Exits nonzero on any
//!                     miss.

use analysis::{lint_profile, LintReport, ProfileView, Rule};
use bytecode::FuncId;
use jit::{FuncProfile, JitOptions};
use jumpstart::{JumpStartOptions, ProfilePackage, ValidationError, Validator};

fn view(pkg: &ProfilePackage) -> ProfileView<'_> {
    ProfileView {
        tier: &pkg.tier,
        ctx: &pkg.ctx,
        unit_order: &pkg.preload.unit_order,
        prop_orders: &pkg.prop_orders,
        func_order: &pkg.func_order,
    }
}

fn print_report(report: &LintReport) {
    for d in &report.diagnostics {
        println!("  {d}");
    }
    println!("  -> {} errors", report.error_count());
}

/// One injected corruption: a name, a mutation, and the rule it must trip.
struct Corruption {
    name: &'static str,
    rule: Rule,
    mutate: fn(&mut ProfilePackage),
}

/// The lowest-id profile `keep` accepts, so every run corrupts the same
/// function.
fn lowest_profile(pkg: &mut ProfilePackage, keep: fn(&FuncProfile) -> bool) -> &mut FuncProfile {
    pkg.tier
        .funcs
        .values_mut()
        .find(|p| keep(p))
        .expect("lab profile has a function to corrupt")
}

fn inject_dangling_id(pkg: &mut ProfilePackage) {
    // Reference a function id past the end of the repo's function table,
    // as if the profile came from a build with more functions.
    let max = pkg.tier.funcs.last_key_value().map_or(0, |(f, _)| f.0);
    let donor = lowest_profile(pkg, |_| true).clone();
    pkg.tier.funcs.insert(FuncId::new(max + 10_000), donor);
}

fn inject_flow_violation(pkg: &mut ProfilePackage) {
    // Perturb one block counter so inflow no longer matches the block's
    // own count (a Kirchhoff violation — bit flip / torn write model).
    let prof = lowest_profile(pkg, |p| {
        p.block_counts.len() >= 2 && p.block_counts.iter().sum::<u64>() > 0
    });
    let last = prof.block_counts.len() - 1;
    prof.block_counts[last] += 987_654_321;
}

fn inject_stale_cfg(pkg: &mut ProfilePackage) {
    // Flip a block hash: the profile claims it was collected against a
    // different body for this function (source changed between builds).
    let prof = lowest_profile(pkg, |p| !p.block_hashes.is_empty());
    prof.block_hashes[0] ^= 0xdead_beef;
}

const CORRUPTIONS: &[Corruption] = &[
    Corruption {
        name: "dangling FuncId",
        rule: Rule::DanglingId,
        mutate: inject_dangling_id,
    },
    Corruption {
        name: "flow-conservation violation",
        rule: Rule::FlowConservation,
        mutate: inject_flow_violation,
    },
    Corruption {
        name: "stale CFG (hash mismatch)",
        rule: Rule::StaleCounts,
        mutate: inject_stale_cfg,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let demo = args.iter().any(|a| a == "--demo");
    let full = args.iter().any(|a| a == "--full");

    eprintln!(
        "building {} lab...",
        if full { "bench-scale" } else { "small" }
    );
    let lab = if full {
        bench::Lab::bench_scale()
    } else {
        bench::Lab::small()
    };
    let opts = JumpStartOptions::default();
    let pkg = lab.package(&opts);

    println!(
        "linting fresh package: {} funcs profiled, {} ctx branches, {} units",
        pkg.tier.profiled_count(),
        pkg.ctx.branches().len(),
        pkg.preload.unit_order.len()
    );
    let report = lint_profile(&lab.app.repo, &view(&pkg));
    print_report(&report);
    if !report.is_clean() {
        eprintln!("FAIL: fresh seeder package should lint clean");
        std::process::exit(1);
    }
    println!("fresh package is clean");

    if !demo {
        return;
    }

    // Demo: each corruption class must be (a) flagged by the linter with
    // the expected rule and (b) rejected by the seeder validator as a
    // static-lint failure — before any validation compile or smoke boot.
    let validator = Validator::new(
        JumpStartOptions {
            min_funcs_profiled: 1,
            min_counter_mass: 1,
            min_requests: 1,
            ..opts
        },
        JitOptions::default(),
    );
    let mut missed = 0;
    for c in CORRUPTIONS {
        println!("\n=== corruption: {} ===", c.name);
        let mut bad = pkg.clone();
        (c.mutate)(&mut bad);

        let report = lint_profile(&lab.app.repo, &view(&bad));
        print_report(&report);
        let flagged = report.diagnostics.iter().any(|d| d.rule == c.rule);
        if !flagged {
            eprintln!("MISS: linter did not report {:?}", c.rule);
            missed += 1;
            continue;
        }

        match validator.validate_package(&lab.app.repo, &bad, 0) {
            Err(ValidationError::Static { errors, first }) => {
                println!("validator: rejected ({errors} static errors; first: {first})");
                let expected = (report.error_count(), report.diagnostics[0].to_string());
                if (errors, first) != expected {
                    eprintln!(
                        "MISS: validator's rejection differs from the lint report {expected:?}"
                    );
                    missed += 1;
                }
            }
            other => {
                eprintln!("MISS: validator returned {other:?} instead of a static-lint rejection");
                missed += 1;
            }
        }
    }

    if missed > 0 {
        eprintln!("\nFAIL: {missed} corruption class(es) went undetected");
        std::process::exit(1);
    }
    println!(
        "\nall {} corruption classes detected and rejected statically",
        CORRUPTIONS.len()
    );

    // Stale-release demo: churn the app into a new release and surface
    // what the repairer did — the per-rung match histogram plus the
    // flow-inference counts — then hold the result to the lint.
    println!("\n=== stale release: repair report ===");
    let (release, churn) = workload::generate_release(
        &lab.app.params,
        &workload::ChurnParams {
            seed: 0xC0DE,
            rate: 0.1,
        },
    );
    println!(
        "churn: {} renamed, {} deleted, {} inserted, {} files reordered, {} branches inserted, {} cold paths removed",
        churn.funcs_renamed,
        churn.funcs_deleted,
        churn.funcs_inserted,
        churn.files_reordered,
        churn.branches_inserted,
        churn.cold_paths_removed
    );
    let mut tier = pkg.tier.clone();
    let mut ctx = pkg.ctx.clone();
    let report = analysis::repair_profile(&release.repo, &mut tier, &mut ctx);
    let s = &report.stats;
    println!(
        "repair: {} repaired, {} dropped, {} counters pruned",
        report.repaired.len(),
        report.dropped.len(),
        report.pruned
    );
    println!(
        "  funcs: {} fresh, {} renamed, {} rebalanced",
        s.funcs_fresh, s.funcs_renamed, s.funcs_rebalanced
    );
    println!(
        "  blocks: {} exact, {} opcode, {} inferred, {} dropped",
        s.blocks_exact, s.blocks_opcode, s.blocks_inferred, s.blocks_dropped
    );
    println!(
        "  mass: {} matched, {} dropped; {} branches synthesized",
        s.mass_matched, s.mass_dropped, s.branches_synthesized
    );
    let relint = lint_profile(
        &release.repo,
        &ProfileView {
            tier: &tier,
            ctx: &ctx,
            unit_order: &[],
            prop_orders: &[],
            func_order: &[],
        },
    );
    if relint.error_count() > 0 {
        for d in relint.errors().take(5) {
            eprintln!("  {d}");
        }
        eprintln!("FAIL: repaired profile must pass the lint");
        std::process::exit(1);
    }
    println!("repaired profile passes the lint (flow conservation included)");
}
