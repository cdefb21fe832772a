//! End-to-end tests of the static-lint reliability layer (§VI):
//!
//! * every corruption class the acceptance criteria name is rejected by
//!   the seeder validator as [`ValidationError::Static`] *before* any
//!   validation compile or smoke boot runs,
//! * a hash-matched stale package (collected against an older build) is
//!   repaired by the consumer and accepted,
//! * property tests: freshly collected packages lint clean, randomly
//!   mutated ones are flagged.

use bytecode::{FuncId, Repo};
use jit::{JitOptions, ProfileCollector};
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

type Inject = fn(&mut ProfilePackage);

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
        let report = analysis::lint_profile(
            &repo,
            &analysis::ProfileView {
                tier: &pkg.tier,
                ctx: &pkg.ctx,
                unit_order: &pkg.preload.unit_order,
                prop_orders: &pkg.prop_orders,
                func_order: &pkg.func_order,
            },
        );
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
        let report = analysis::lint_profile(
            &repo,
            &analysis::ProfileView {
                tier: &bad.tier,
                ctx: &bad.ctx,
                unit_order: &bad.preload.unit_order,
                prop_orders: &bad.prop_orders,
                func_order: &bad.func_order,
            },
        );
        prop_assert!(report.error_count() > 0, "mutation kind {kind} went undetected");
    }
}
