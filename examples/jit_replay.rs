//! JIT debugging with saved profiles (paper §III point 4): "If a collected
//! profile triggers a JIT bug, compiler engineers can use that to replay
//! and step through the execution of the JIT in order to reproduce and
//! understand the issue."
//!
//! This example saves a package, reloads it, recompiles one function under
//! both weight sources, and prints the resulting Vasm units so the layout
//! difference is visible — the workflow an HHVM engineer would use.
//!
//! Run with: `cargo run --example jit_replay`

use hhvm_jumpstart_repro::{jit, jumpstart, vm};
use jit::{translate_optimized, InlineParams, JitOptions, ProfileCollector, WeightSource};
use jumpstart::{build_package, JumpStartOptions, ProfilePackage, SeederInputs};
use vm::{Value, Vm};

const SRC: &str = r#"
    function flagged($f) {
        if ($f > 0) { return $f * 2 + 1; }
        return 7 - $f;
    }
    function caller_a($n) {
        $s = 0;
        for ($i = 0; $i < $n; $i++) { $s += flagged(1); }
        return $s;
    }
    function caller_b($n) {
        $s = 0;
        for ($i = 0; $i < $n; $i++) { $s += flagged(0); }
        return $s;
    }
    function main($n) { return caller_a($n) + caller_b($n); }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let repo = hackc::compile_unit("replay.hl", SRC)?;
    let main_fn = repo.func_by_name("main").expect("exists").id;

    // Collect a profile the way a seeder does.
    let mut vm = Vm::new(&repo);
    let mut col = ProfileCollector::new(&repo);
    for _ in 0..5 {
        vm.call_observed(main_fn, &[Value::Int(40)], &mut col)?;
        col.end_request();
    }
    let (tier, ctx) = col.finish();
    let pkg = build_package(
        SeederInputs {
            repo: &repo,
            tier,
            ctx,
            unit_order: vm.loader().load_order(),
            requests: 5,
            region: 0,
            bucket: 0,
            seeder_id: 99,
            now_ms: 0,
        },
        &JumpStartOptions::default(),
        &JitOptions::default(),
    );

    // Persist it like the problematic-profile database of §VI-A.1, then
    // reload and replay the compilation deterministically.
    let path = std::env::temp_dir().join("jumpstart_replay.pkg");
    std::fs::write(&path, pkg.serialize())?;
    println!(
        "saved package to {} ({} bytes)",
        path.display(),
        pkg.serialize().len()
    );
    let reloaded = ProfilePackage::deserialize(&std::fs::read(&path)?)?;
    assert_eq!(reloaded, pkg, "replay must be deterministic");

    // Recompile caller_a under both weight sources and show the divergence
    // the §V-A instrumentation fixes.
    let caller_a = repo.func_by_name("caller_a").expect("exists").id;
    for (label, ws) in [
        ("tier-1 estimates", WeightSource::TierOnly),
        ("accurate (Jump-Start)", WeightSource::Accurate),
    ] {
        let unit = translate_optimized(
            &repo,
            caller_a,
            &reloaded.tier,
            &reloaded.ctx,
            ws,
            InlineParams::default(),
            &|_, _| None,
        );
        println!("\n== caller_a compiled with {label} ==");
        for (i, b) in unit.blocks.iter().enumerate() {
            println!(
                "  b{i}: {} instrs, {} bytes, est weight {:>6}, est taken p {:.2}, true p {:.2} ({:?})",
                unit.instrs_of(b).len(),
                unit.block_size(b),
                b.est_weight,
                b.est_taken_prob,
                b.true_taken_prob,
                b.term
            );
        }
    }
    println!("\nNote how the inlined `flagged` branch is ~50/50 under tier-1 estimates but");
    println!("pinned to this call site's constant argument under accurate weights.");
    std::fs::remove_file(&path).ok();
    Ok(())
}
