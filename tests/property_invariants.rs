//! Cross-crate property-based tests: randomized programs and profiles must
//! preserve the system's core invariants.

use hhvm_jumpstart_repro::{analysis, jit, jumpstart, vm, workload};

use bytecode::{ClassId, FuncId, StrId, UnitId};
use jit::{BranchCount, CtxProfile, FuncProfile, TierProfile, TypeDist};
use jumpstart::{Coverage, PackageMeta, Poison, PreloadLists, ProfilePackage};
use proptest::prelude::*;
use vm::{Value, ValueKind, Vm};

// ---------- randomized Hacklet programs ----------

/// Generates a small arithmetic/control-flow Hacklet function body from a
/// seed (always valid source by construction).
fn gen_source(seed: u64) -> String {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let iters = rng.gen_range(1..12);
    let m = rng.gen_range(2..6);
    let a = rng.gen_range(1..9);
    let b = rng.gen_range(1..9);
    let cls_props: usize = rng.gen_range(2..6);
    let mut props = String::new();
    for p in 0..cls_props {
        props.push_str(&format!("  public $p{p} = {p};\n"));
    }
    let hot = rng.gen_range(0..cls_props);
    format!(
        r#"
class K {{
{props}}}
function helper($x) {{
    if ($x % {m} == 0) {{ return $x * {a}; }}
    return $x + {b};
}}
function main($n) {{
    $o = new K();
    $s = 0;
    for ($i = 0; $i < {iters}; $i++) {{
        $s = $s + helper($i + $n);
        $o->p{hot} = $s;
        $s = $s + $o->p{hot} % 1000;
    }}
    return $s;
}}
"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs compile, verify, and produce identical results under
    /// any property permutation the package could install (§V-C safety).
    #[test]
    fn random_programs_invariant_under_prop_reorder(seed in 0u64..10_000, perm_seed in 0u64..1000) {
        let src = gen_source(seed);
        let repo = hackc::compile_unit("gen.hl", &src).expect("generated source compiles");
        bytecode::verify_repo(&repo).expect("verifies");
        let k = repo.class_by_name("K").expect("exists").id;

        let run = |order: Option<Vec<StrId>>| {
            let mut vm = Vm::new(&repo);
            if let Some(o) = order {
                vm.classes_mut().install_prop_order(k, o);
            }
            (0..5i64)
                .map(|arg| vm.call_by_name("main", &[Value::Int(arg * 7)]).expect("runs"))
                .collect::<Vec<_>>()
        };
        // A pseudo-random permutation of K's own properties.
        let mut names: Vec<StrId> = repo.class(k).props.iter().map(|p| p.name).collect();
        let n = names.len();
        for i in 0..n {
            let j = ((perm_seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % n;
            names.swap(i, j);
        }
        prop_assert_eq!(run(None), run(Some(names)));
    }

    /// The optimized translation of any random program has structurally
    /// valid blocks and nonzero code, regardless of weight source.
    #[test]
    fn random_programs_translate_validly(seed in 0u64..10_000) {
        let src = gen_source(seed);
        let repo = hackc::compile_unit("gen.hl", &src).expect("compiles");
        let main = repo.func_by_name("main").expect("exists").id;
        let mut vm = Vm::new(&repo);
        let mut col = jit::ProfileCollector::new(&repo);
        vm.call_observed(main, &[Value::Int(9)], &mut col).expect("runs");
        col.end_request();
        let (tier, ctx) = col.finish();
        for ws in [jit::WeightSource::TierOnly, jit::WeightSource::Accurate] {
            let unit = jit::translate_optimized(
                &repo, main, &tier, &ctx, ws,
                jit::InlineParams::default(), &|_, _| None,
            );
            prop_assert!(unit.code_size() > 0);
            prop_assert!(!unit.blocks.is_empty());
            for blk in &unit.blocks {
                for s in blk.term.successors() {
                    prop_assert!(s < unit.blocks.len(), "dangling successor");
                }
                prop_assert!(blk.est_taken_prob >= 0.0 && blk.est_taken_prob <= 1.0);
                prop_assert!(blk.true_taken_prob >= 0.0 && blk.true_taken_prob <= 1.0);
            }
        }
    }
}

// ---------- randomized packages ----------

fn arb_type_dist() -> impl Strategy<Value = TypeDist> {
    prop::collection::vec(0u64..1000, ValueKind::COUNT).prop_map(|counts| {
        let mut d = TypeDist::default();
        for (k, c) in ValueKind::ALL.iter().zip(counts) {
            d.add_raw(*k, c);
        }
        d
    })
}

fn arb_func_profile() -> impl Strategy<Value = FuncProfile> {
    (
        (0u64..100_000, any::<u64>()),
        prop::collection::vec((0u64..50_000, any::<u64>()), 0..12),
        prop::collection::vec(any::<u64>(), 0..12),
        prop::collection::vec(
            (0u32..64, (0u32..512).prop_map(FuncId), 0u64..10_000),
            0..12,
        ),
        prop::collection::vec((0u32..64, 0u8..4, arb_type_dist()), 0..4),
        prop::collection::vec((0u32..64, (0u32..64).prop_map(ClassId), 0u64..10_000), 0..8),
    )
        .prop_map(
            |((enter_count, name_hash), blocks, block_opcode_hashes, calls, types, props)| {
                let mut p = FuncProfile::default();
                p.enter_count = enter_count;
                p.name_hash = name_hash;
                (p.block_counts, p.block_hashes) = blocks.into_iter().unzip();
                p.block_opcode_hashes = block_opcode_hashes;
                for (site, callee, n) in calls {
                    p.record_call(site, callee, n);
                }
                for (at, slot, dist) in types {
                    p.record_types(at, slot, &dist);
                }
                for (site, class, n) in props {
                    p.record_prop_class(site, class, n);
                }
                p
            },
        )
}

fn arb_package() -> impl Strategy<Value = ProfilePackage> {
    let meta = (
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(region, bucket, seeder_id, created_ms, mass)| PackageMeta {
                region,
                bucket,
                seeder_id,
                created_ms,
                coverage: Coverage {
                    funcs_profiled: mass % 100,
                    counter_mass: mass,
                    requests: mass % 999,
                },
                poison: Poison::None,
            },
        );
    let tier = prop::collection::hash_map((0u32..512).prop_map(FuncId), arb_func_profile(), 0..6)
        .prop_map(|funcs| {
            let mut t = TierProfile::default();
            t.funcs = funcs;
            t
        });
    let ictx = || prop::option::of(((0u32..512).prop_map(FuncId), 0u32..64));
    let ctx = (
        prop::collection::vec(
            (
                ((0u32..512).prop_map(FuncId), 0u32..64, ictx()),
                (0u64..1_000_000, 0u64..1_000_000)
                    .prop_map(|(taken, not_taken)| BranchCount { taken, not_taken }),
            ),
            0..10,
        ),
        prop::collection::vec((((0u32..512).prop_map(FuncId), ictx()), 0u64..1_000), 0..6),
    )
        .prop_map(|(branches, entries)| CtxProfile::from_counts(branches, entries));
    (
        meta,
        prop::collection::vec((0u32..256).prop_map(UnitId), 0..20),
        tier,
        ctx,
        prop::collection::vec((0u32..512).prop_map(FuncId), 0..30),
    )
        .prop_map(|(meta, unit_order, tier, ctx, func_order)| ProfilePackage {
            meta,
            preload: PreloadLists { unit_order },
            tier,
            ctx,
            prop_orders: Vec::new(),
            func_order,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any package round-trips exactly through the wire format.
    #[test]
    fn arbitrary_packages_round_trip(pkg in arb_package()) {
        let bytes = pkg.serialize();
        let back = ProfilePackage::deserialize(&bytes).expect("round-trips");
        prop_assert_eq!(back, pkg);
    }

    /// Any single-byte corruption is rejected, never a panic or a silent
    /// success (§VI: corrupted packages must fail cleanly to fallback).
    #[test]
    fn arbitrary_corruption_is_detected(pkg in arb_package(), at in any::<prop::sample::Index>(), flip in 1u8..=255) {
        let bytes = pkg.serialize().to_vec();
        let mut bad = bytes.clone();
        let i = at.index(bad.len());
        bad[i] ^= flip;
        prop_assert!(ProfilePackage::deserialize(&bad).is_err());
    }

    /// Truncation at any point is rejected.
    #[test]
    fn arbitrary_truncation_is_detected(pkg in arb_package(), at in any::<prop::sample::Index>()) {
        let bytes = pkg.serialize();
        let len = at.index(bytes.len());
        prop_assert!(ProfilePackage::deserialize(&bytes[..len]).is_err());
    }
}

// ---------- stale-profile repair ----------

use analysis::{repair_profile_with, MatchMode, RepairOptions};
use workload::{generate_release, AppParams, ChurnParams, RequestMix};

/// A base application plus a profile collected on it, built once: every
/// repair case below starts from this same pre-churn profile.
fn stale_lab() -> &'static (workload::App, TierProfile, CtxProfile) {
    static LAB: std::sync::OnceLock<(workload::App, TierProfile, CtxProfile)> =
        std::sync::OnceLock::new();
    LAB.get_or_init(|| {
        let app = workload::generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 0, 0);
        let run = workload::profile_run(&app, &mix, 80, 21);
        (app, run.tier, run.ctx)
    })
}

/// Churn rates worth exercising (discrete so failures minimize cleanly).
const CHURN_RATES: [f64; 4] = [0.05, 0.1, 0.2, 0.4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A churn rate of 0 regenerates the identical release, so repair must
    /// be a perfect no-op in every matching mode — no function repaired or
    /// dropped, no counter pruned, profile bit-identical.
    #[test]
    fn zero_churn_repair_is_untouched(seed in any::<u64>(), mode_ix in 0usize..2) {
        let (_, tier0, ctx0) = stale_lab();
        let (release, churn) =
            generate_release(&AppParams::tiny(), &ChurnParams { seed, rate: 0.0 });
        prop_assert_eq!(churn, workload::ChurnReport::default());
        let mode = [MatchMode::Full, MatchMode::DropStale][mode_ix];
        let mut tier = tier0.clone();
        let mut ctx = ctx0.clone();
        let report =
            repair_profile_with(&release.repo, &mut tier, &mut ctx, &RepairOptions { mode });
        prop_assert!(report.untouched(), "churn 0 repair was not a no-op: {report:?}");
        prop_assert_eq!(&tier, tier0);
        prop_assert_eq!(&ctx, ctx0);
    }

    /// The matcher is deterministic: repairing two clones of the same
    /// profile against the same churned release yields identical reports
    /// and identical repaired profiles.
    #[test]
    fn repair_is_deterministic(seed in any::<u64>(), rate_ix in 0usize..4) {
        let (_, tier0, ctx0) = stale_lab();
        let churn = ChurnParams { seed, rate: CHURN_RATES[rate_ix] };
        let (release, _) = generate_release(&AppParams::tiny(), &churn);
        let mut t1 = tier0.clone();
        let mut c1 = ctx0.clone();
        let mut t2 = tier0.clone();
        let mut c2 = ctx0.clone();
        let opts = RepairOptions::default();
        let r1 = repair_profile_with(&release.repo, &mut t1, &mut c1, &opts);
        let r2 = repair_profile_with(&release.repo, &mut t2, &mut c2, &opts);
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(c1, c2);
    }

    /// Whatever the churn, the repaired profile's counts satisfy flow
    /// conservation: the strict lint (Kirchhoff check on) reports zero
    /// errors against the new release.
    #[test]
    fn repaired_counts_satisfy_kirchhoff(seed in any::<u64>(), rate_ix in 0usize..4) {
        let (_, tier0, ctx0) = stale_lab();
        let churn = ChurnParams { seed, rate: CHURN_RATES[rate_ix] };
        let (release, _) = generate_release(&AppParams::tiny(), &churn);
        let mut tier = tier0.clone();
        let mut ctx = ctx0.clone();
        analysis::repair_profile(&release.repo, &mut tier, &mut ctx);
        let report = analysis::lint_profile_with(
            &release.repo,
            &analysis::ProfileView {
                tier: &tier,
                ctx: &ctx,
                unit_order: &[],
                prop_orders: &[],
                func_order: &[],
            },
            &analysis::LintOptions { flow_conservation: true, type_feasibility: false },
        );
        let first = report.errors().next();
        prop_assert_eq!(report.error_count(), 0, "repaired profile flow-dirty: {first:?}");
    }
}
