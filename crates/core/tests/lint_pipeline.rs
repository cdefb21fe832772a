//! End-to-end tests of the static-lint reliability layer (§VI):
//!
//! * every corruption class the acceptance criteria name is rejected by
//!   the seeder validator as [`ValidationError::Static`] *before* any
//!   validation compile or smoke boot runs,
//! * a hash-matched stale package (collected against an older build) is
//!   repaired by the consumer and accepted,
//! * property tests: freshly collected packages lint clean, randomly
//!   mutated ones are flagged, and the repair drops exactly the entries
//!   the lint flags at their sites and in the order lists.

use analysis::{LintReport, ProfileView, Rule};
use bytecode::{ClassId, FuncId, Instr, Repo, UnitId};
use jit::{BranchCount, JitOptions, ProfileCollector, TypeDist, PARAM_SITE};
use jumpstart::{
    build_package, consume, JumpStartOptions, Poison, ProfilePackage, SeederInputs,
    ValidationError, Validator,
};
use proptest::prelude::*;
use vm::{Value, Vm};

/// Compiles `src`, profiles `requests` calls of `main(n)`, and builds a
/// seeder package against that repo.
fn collect_package(src: &str, n: i64, requests: usize) -> (Repo, ProfilePackage) {
    let repo = hackc::compile_unit("lint.hl", src).unwrap();
    let f = repo.func_by_name("main").unwrap().id;
    let mut vm = Vm::new(&repo);
    let mut col = ProfileCollector::new(&repo);
    for _ in 0..requests {
        vm.call_observed(f, &[Value::Int(n)], &mut col).unwrap();
        col.end_request();
    }
    let order = vm.loader().load_order();
    let (tier, ctx) = col.finish();
    let pkg = build_package(
        SeederInputs {
            repo: &repo,
            tier,
            ctx,
            unit_order: order,
            requests: requests as u64,
            region: 0,
            bucket: 0,
            seeder_id: 7,
            now_ms: 0,
        },
        &JumpStartOptions::default(),
        &JitOptions::default(),
    );
    (repo, pkg)
}

const SRC_V1: &str = r#"
    function work($x) { return $x * 3 + 1; }
    function main($n) {
        $s = 0;
        for ($i = 0; $i < $n; $i++) { $s += work($i); }
        return $s;
    }
"#;

/// v2 of the same unit: `work` grew a guard block, `main` is unchanged.
/// The old straight-line body survives as a suffix, so its block hash
/// still matches and the stale profile is repairable.
const SRC_V2: &str = r#"
    function work($x) {
        if ($x < 0) { return 0; }
        return $x * 3 + 1;
    }
    function main($n) {
        $s = 0;
        for ($i = 0; $i < $n; $i++) { $s += work($i); }
        return $s;
    }
"#;

/// A class, a call, binary ops and property accesses in one loop: every
/// kind of instruction-indexed profile entry.
const SRC_SITES: &str = r#"
    class K { public $a = 1; public $b = 2; }
    function work($x) { return $x * 3 + 1; }
    function main($n) {
        $o = new K();
        $s = 0;
        for ($i = 0; $i < $n; $i++) {
            $s += work($i);
            $o->a = $s;
            $s = $s + $o->b;
        }
        return $s;
    }
"#;

type Inject = fn(&mut ProfilePackage);

fn lint(repo: &Repo, pkg: &ProfilePackage) -> LintReport {
    analysis::lint_profile(
        repo,
        &ProfileView {
            tier: &pkg.tier,
            ctx: &pkg.ctx,
            unit_order: &pkg.preload.unit_order,
            prop_orders: &pkg.prop_orders,
            func_order: &pkg.func_order,
        },
    )
}

fn lax_validator() -> Validator {
    Validator::new(
        JumpStartOptions {
            min_funcs_profiled: 1,
            min_counter_mass: 10,
            min_requests: 1,
            ..Default::default()
        },
        JitOptions::default(),
    )
}

/// The smallest profiled FuncId.
fn first_func(pkg: &ProfilePackage) -> FuncId {
    *pkg.tier.funcs.keys().next().unwrap()
}

fn inject_dangling_id(pkg: &mut ProfilePackage) {
    let donor = pkg.tier.funcs[&first_func(pkg)].clone();
    pkg.tier.funcs.insert(FuncId::new(9_999), donor);
}

fn inject_flow_violation(pkg: &mut ProfilePackage) {
    let f = first_func(pkg);
    let prof = pkg.tier.funcs.get_mut(&f).unwrap();
    prof.block_counts[0] += 123_456;
}

fn inject_stale_cfg(pkg: &mut ProfilePackage) {
    let f = first_func(pkg);
    let prof = pkg.tier.funcs.get_mut(&f).unwrap();
    prof.block_hashes[0] ^= 0xbad_cafe;
}

/// Kinds of site-level corruption [`inject_site_corruption`] knows; the
/// first [`PROFILE_CORRUPTIONS`] are profile entries, the rest order-list
/// entries.
const SITE_CORRUPTIONS: u32 = 14;
const PROFILE_CORRUPTIONS: u32 = 9;

/// Adds one inadmissible entry of kind `kind` to a fresh [`SRC_SITES`]
/// package and returns the rule the lint must flag it under.
fn inject_site_corruption(repo: &Repo, pkg: &mut ProfilePackage, kind: u32, salt: u64) -> Rule {
    let main = repo.func_by_name("main").unwrap().id;
    let work = repo.func_by_name("work").unwrap().id;
    let code = &repo.func(main).code;
    let at = |want: fn(&Instr) -> bool| code.iter().position(want).unwrap() as u32;
    let call = at(|i| matches!(i, Instr::Call { .. }));
    let bin = at(|i| matches!(i, Instr::Bin(_)));
    let prop = at(|i| matches!(i, Instr::GetProp(_) | Instr::SetProp(_)));
    let classes = repo.classes().len() as u32;
    let fp = pkg.tier.funcs.get_mut(&main).unwrap();
    let branch = BranchCount {
        taken: salt,
        not_taken: 1,
    };
    match kind {
        // Call targets: at a non-call, to a dangling callee, to a callee
        // the site cannot dispatch to.
        0 => fp.record_call(bin, work, salt),
        1 => fp.record_call(call, FuncId::new(9_999), salt),
        2 => fp.record_call(call, main, salt),
        // Types: a binary op's third operand, a parameter past main's one.
        3 => fp.record_types(bin, 2, &TypeDist::default()),
        4 => fp.record_types(PARAM_SITE, 1, &TypeDist::default()),
        5 => fp.record_prop_class(prop, ClassId::new(classes + 3), salt),
        // Ctx: a branch counter at a non-branch; entries from a site that
        // cannot dispatch to the callee, and from a non-call.
        6 => pkg.ctx.record_branch(None, main, bin, &branch),
        7 => pkg.ctx.record_entry(Some((main, call)), main, salt),
        8 => pkg.ctx.record_entry(Some((main, bin)), work, salt),
        // Orders: dangling and repeated entries, a dangling class.
        9 => pkg.func_order.push(FuncId::new(9_999)),
        10 => pkg.func_order.push(pkg.func_order[0]),
        11 => pkg.preload.unit_order.push(UnitId::new(999)),
        12 => pkg.preload.unit_order.push(pkg.preload.unit_order[0]),
        _ => pkg.prop_orders.push((ClassId::new(classes), Vec::new())),
    }
    match kind {
        1 | 5 | 9 | 11 | 13 => Rule::DanglingId,
        2 | 7 => Rule::ImpossibleCallArc,
        10 | 12 => Rule::BadOrder,
        _ => Rule::PhantomSite,
    }
}

/// Each corruption class must be rejected as a *static* failure even when
/// the package is also compile-poisoned: the lint runs before the
/// validation compile (and before any smoke boot), so `Static` must win
/// over `CompileCrash`.
#[test]
fn corruption_is_rejected_before_compile_and_boot() {
    let (repo, pkg) = collect_package(SRC_V1, 40, 30);
    let v = lax_validator();
    let corruptions: [(&str, Inject); 3] = [
        ("dangling id", inject_dangling_id),
        ("flow violation", inject_flow_violation),
        ("stale cfg", inject_stale_cfg),
    ];
    for (name, mutate) in corruptions {
        let mut bad = pkg.clone();
        bad.meta.poison = Poison::CompileCrash;
        mutate(&mut bad);
        match v.validate_package(&repo, &bad, 0) {
            Err(ValidationError::Static { errors, .. }) => {
                assert!(errors > 0, "{name}: static rejection with zero errors")
            }
            other => panic!("{name}: expected Static rejection before compile, got {other:?}"),
        }
    }
    // Sanity: the poison alone (clean profile) does reach the compile.
    let mut poisoned = pkg.clone();
    poisoned.meta.poison = Poison::CompileCrash;
    assert_eq!(
        v.validate_package(&repo, &poisoned, 0),
        Err(ValidationError::CompileCrash)
    );
}

/// The §VI stale-profile scenario: a package collected against build v1
/// reaches a consumer running build v2. The seeder-side validator refuses
/// it, but the consumer repairs it — block counters are remapped
/// onto the new CFG by structural hash — and boots with it.
#[test]
fn stale_package_is_repaired_and_accepted_by_consumer() {
    let (_repo_v1, pkg) = collect_package(SRC_V1, 40, 30);
    let repo_v2 = hackc::compile_unit("lint.hl", SRC_V2).unwrap();
    let work_v2 = repo_v2.func_by_name("work").unwrap().id;

    // Strict validation against v2 sees the hash mismatch and rejects.
    assert!(matches!(
        lax_validator().validate_package(&repo_v2, &pkg, 0),
        Err(ValidationError::Static { .. })
    ));

    // The consumer repairs instead: `work`'s counters are remapped.
    let out = consume(
        &repo_v2,
        &pkg,
        JitOptions::default(),
        &JumpStartOptions::default(),
        1,
    )
    .unwrap();
    let repair = out.repair.expect("stale package must go through repair");
    assert!(
        repair.repaired.contains(&work_v2),
        "work's counters remapped: {repair:?}"
    );
    assert!(
        repair.dropped.is_empty(),
        "nothing unrepairable here: {repair:?}"
    );
    assert!(
        out.compiled_funcs >= 2,
        "main and repaired work both optimized"
    );
    assert!(out.engine.code_cache.translation(work_v2).is_some());

    // The report carries the match-ladder quality of the repair.
    assert!(
        repair.stats.blocks_exact > 0,
        "unchanged blocks matched at the exact rung"
    );
    assert!(
        repair.stats.mass_matched > 0,
        "matched counter mass recorded"
    );
}

/// An unrepairable profile (dangling ids everywhere survive pruning, but a
/// fully rewritten function's counters share no hashes) is dropped rather
/// than repaired — and the consumer still boots on what remains.
#[test]
fn unrepairable_function_is_dropped_not_guessed() {
    let (_repo, pkg) = collect_package(SRC_V1, 40, 30);
    let src_v3 = r#"
        function work($x) { return $x - 100; }
        function main($n) {
            $s = 0;
            for ($i = 0; $i < $n; $i++) { $s += work($i); }
            return $s;
        }
    "#;
    let repo_v3 = hackc::compile_unit("lint.hl", src_v3).unwrap();
    let work_v3 = repo_v3.func_by_name("work").unwrap().id;
    let out = consume(
        &repo_v3,
        &pkg,
        JitOptions::default(),
        &JumpStartOptions::default(),
        1,
    )
    .unwrap();
    let repair = out.repair.expect("stale package must go through repair");
    assert!(
        repair.dropped.contains(&work_v3),
        "rewritten work is unrepairable: {repair:?}"
    );
    assert!(out.compiled_funcs >= 1, "main still boots optimized");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the workload looked like, a freshly collected package
    /// passes the lint (flow conservation included).
    #[test]
    fn fresh_packages_lint_clean(n in 1i64..50, requests in 1usize..8) {
        let (repo, pkg) = collect_package(SRC_V2, n, requests);
        let report = lint(&repo, &pkg);
        prop_assert!(report.is_clean(), "fresh package dirty: {:?}", report.diagnostics);
    }

    /// Any single mutation from the corruption classes is flagged.
    #[test]
    fn mutated_packages_are_flagged(kind in 0usize..3, salt in 1u64..1_000_000) {
        let (repo, pkg) = collect_package(SRC_V1, 25, 10);
        let mut bad = pkg.clone();
        let f = first_func(&bad);
        match kind {
            0 => inject_dangling_id(&mut bad),
            1 => bad.tier.funcs.get_mut(&f).unwrap().block_counts[0] += salt,
            _ => bad.tier.funcs.get_mut(&f).unwrap().block_hashes[0] ^= salt,
        }
        let report = lint(&repo, &bad);
        prop_assert!(report.error_count() > 0, "mutation kind {kind} went undetected");
    }

    /// Site-level corruption, any mix of it: the lint flags each injected
    /// entry once, the repair drops exactly those (the clean entries survive
    /// unchanged, so the repaired package is the fresh one), the relint is
    /// clean, and the consumer boots the dirty package as the fresh one.
    #[test]
    fn the_repair_drops_exactly_what_the_lint_flags(mask in 1u32..1 << 14, salt in 1u64..1_000) {
        let (repo, fresh) = collect_package(SRC_SITES, 12, 4);
        prop_assert!(!fresh.func_order.is_empty() && !fresh.preload.unit_order.is_empty());
        let mut bad = fresh.clone();
        let kinds: Vec<u32> = (0..SITE_CORRUPTIONS).filter(|k| mask >> k & 1 == 1).collect();
        let mut want: Vec<Rule> =
            kinds.iter().map(|&k| inject_site_corruption(&repo, &mut bad, k, salt)).collect();
        want.sort();
        let flagged: Vec<Rule> = lint(&repo, &bad).errors().map(|d| d.rule).collect();
        prop_assert_eq!(&flagged, &want, "one finding per injected entry");

        // The consumer's repair: the profile, then the order lists.
        let mut fixed = bad.clone();
        let report = analysis::repair_profile(&repo, &mut fixed.tier, &mut fixed.ctx);
        analysis::prune_orders(
            &repo,
            &mut fixed.preload.unit_order,
            &mut fixed.func_order,
            &mut fixed.prop_orders,
        );
        let in_profile = kinds.iter().filter(|&&k| k < PROFILE_CORRUPTIONS).count();
        prop_assert_eq!(report.pruned, in_profile);
        prop_assert!(report.repaired.is_empty() && report.dropped.is_empty(), "{:?}", report);
        prop_assert!(lint(&repo, &fixed).is_clean());
        prop_assert_eq!(&fixed.tier, &fresh.tier);
        prop_assert_eq!(&fixed.ctx, &fresh.ctx);
        prop_assert_eq!(&fixed.preload.unit_order, &fresh.preload.unit_order);
        prop_assert_eq!(&fixed.func_order, &fresh.func_order);
        prop_assert_eq!(&fixed.prop_orders, &fresh.prop_orders);

        let boot = |pkg: &ProfilePackage| {
            consume(&repo, pkg, JitOptions::default(), &JumpStartOptions::default(), 1)
        };
        let (got, clean) = (boot(&bad).unwrap(), boot(&fresh).unwrap());
        prop_assert_eq!(got.repair, Some(report));
        prop_assert!(clean.repair.is_none());
        let digest = |out: &jumpstart::ConsumerOutcome<'_>| out.engine.code_cache.layout_digest();
        prop_assert_eq!(digest(&got), digest(&clean));
        prop_assert_eq!(got.unit_order, clean.unit_order);
        prop_assert_eq!(got.prop_slots, clean.prop_slots);
    }
}
