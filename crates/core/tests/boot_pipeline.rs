//! Determinism property tests for the parallel consumer boot: for any
//! worker count and early-serve fraction, a parallel boot
//! must produce *byte-identical* output to a sequential one — the same
//! compiled-function set, the same code-cache addresses for every
//! translation, and the same byte counts. Addresses feed the uarch model,
//! so any divergence would silently change every steady-state figure.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use bytecode::FuncId;
use jit::JitOptions;
use jumpstart::{build_package, consume, ConsumerOutcome, JumpStartOptions, SeederInputs};
use proptest::prelude::*;
use workload::{generate, profile_run, App, AppParams, RequestMix};

struct BootLab {
    app: App,
    pkg: jumpstart::ProfilePackage,
}

fn lab() -> &'static BootLab {
    static LAB: OnceLock<BootLab> = OnceLock::new();
    LAB.get_or_init(|| {
        let app = generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 0, 0);
        let run = profile_run(&app, &mix, 150, 17);
        let pkg = build_package(
            SeederInputs {
                repo: &app.repo,
                tier: run.tier,
                ctx: run.ctx,
                unit_order: run.unit_order,
                requests: run.requests,
                region: 0,
                bucket: 0,
                seeder_id: 1,
                now_ms: 0,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        BootLab { app, pkg }
    })
}

fn boot(threads: usize, frac: f64) -> ConsumerOutcome<'static> {
    let l = lab();
    let opts = JumpStartOptions {
        early_serve_frac: frac,
        ..Default::default()
    };
    consume(&l.app.repo, &l.pkg, JitOptions::default(), &opts, threads)
        .expect("healthy package boots")
}

/// Every translation's placement, in a canonical comparable form.
type Placements = BTreeMap<FuncId, Vec<(u64, u32)>>;

/// Digest, placements, compiled-function count, compiled bytes.
type Baseline = (u64, Placements, usize, u64);

fn placements(out: &ConsumerOutcome<'_>) -> Placements {
    out.engine
        .code_cache
        .translations()
        .iter()
        .map(|(&f, t)| (f, t.placement.clone()))
        .collect()
}

fn baseline() -> &'static Baseline {
    static BASE: OnceLock<Baseline> = OnceLock::new();
    BASE.get_or_init(|| {
        let out = boot(1, 1.0);
        (
            out.engine.code_cache.layout_digest(),
            placements(&out),
            out.compiled_funcs,
            out.compile_bytes,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_early_serve_boot_is_byte_identical(
        t_idx in 0usize..4,
        f_idx in 0usize..6,
    ) {
        let threads = [1usize, 2, 4, 8][t_idx];
        let frac = [1.0f64, 0.9, 0.75, 0.5, 0.25, 0.0][f_idx];
        let (digest, base_placements, funcs, bytes) = baseline();
        let out = boot(threads, frac);
        // Identical code-cache addresses (digest covers every placement
        // and region usage).
        prop_assert_eq!(out.engine.code_cache.layout_digest(), *digest);
        // Identical compiled-function set with identical placements.
        prop_assert_eq!(&placements(&out), base_placements);
        // Identical work accounting.
        prop_assert_eq!(out.compiled_funcs, *funcs);
        prop_assert_eq!(out.compile_bytes, *bytes);
        // BootStats agree with the outcome they describe.
        prop_assert_eq!(out.boot.compiled_funcs, out.compiled_funcs);
        prop_assert_eq!(out.boot.compile_bytes, out.compile_bytes);
        prop_assert_eq!(
            out.boot.workers.iter().map(|w| w.translated).sum::<usize>(),
            out.compiled_funcs
        );
        if frac < 1.0 {
            let early = out.boot.early_serve.expect("crossing recorded");
            prop_assert_eq!(early.ready_funcs + early.background_funcs, out.compiled_funcs);
            prop_assert_eq!(early.ready_bytes + early.background_bytes, out.compile_bytes);
        } else {
            // A full-fraction boot reports a populated crossing: ready at
            // the last unit, nothing left in the background.
            let early = out.boot.early_serve.expect("full-fraction crossing recorded");
            prop_assert_eq!(early.ready_funcs, out.compiled_funcs);
            prop_assert_eq!(early.ready_bytes, out.compile_bytes);
            prop_assert_eq!(early.background_funcs, 0);
            prop_assert_eq!(early.background_bytes, 0);
        }
    }
}

/// The Ext-TSP oracle applied to what `translate` actually emits, not only
/// to random graphs: every optimized unit of the baseline boot must get the
/// reference order from the fast path.
#[test]
fn booted_units_get_the_reference_block_order() {
    let out = boot(1, 1.0);
    let params = layout::ExtTspParams::default();
    let mut checked = 0;
    for t in out.engine.code_cache.translations().values() {
        let (blocks, edges) = (t.vasm.layout_blocks(), t.vasm.layout_edges());
        assert_eq!(
            layout::exttsp_order(&blocks, &edges, &params),
            layout::exttsp_order_reference(&blocks, &edges, &params),
            "func {:?}",
            t.func
        );
        checked += 1;
    }
    assert_eq!(checked, out.compiled_funcs);
}
