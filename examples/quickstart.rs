//! Quickstart: the whole Jump-Start pipeline on a small Hacklet program.
//!
//! Compiles source offline, profiles it like a seeder, builds and
//! round-trips a package, boots a consumer, and replays traffic through
//! the micro-architecture model.
//!
//! Run with: `cargo run --example quickstart`

use hhvm_jumpstart_repro::{jit, jumpstart, vm};
use jit::{Executor, ExecutorConfig, JitOptions, ProfileCollector};
use jumpstart::{build_package, consume, JumpStartOptions, SeederInputs, Validator};
use vm::{Value, Vm};

const SRC: &str = r#"
    class Counter {
        public $pad0 = 0;
        public $pad1 = 0;
        public $pad2 = 0;
        public $hits = 0;
        function bump($by) { $this->hits = $this->hits + $by; return $this->hits; }
    }
    function busy($n) {
        $c = new Counter();
        $s = 0;
        for ($i = 0; $i < $n; $i++) {
            if ($i % 3 == 0) { $s += $c->bump(2); } else { $s += $i; }
        }
        return $s;
    }
    function handler($n) { return busy($n) + busy($n / 2); }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Offline compilation (HHVM's repo-authoritative build).
    let repo = hackc::compile_unit("app.hl", SRC)?;
    println!(
        "compiled: {} functions, {} classes",
        repo.funcs().len(),
        repo.classes().len()
    );

    // 2. Run and profile like a seeder (Fig. 3b).
    let handler = repo.func_by_name("handler").expect("entry exists").id;
    let mut vm = Vm::new(&repo);
    let mut collector = ProfileCollector::new(&repo);
    for arg in [30i64, 50, 90, 40, 72] {
        let out = vm.call_observed(handler, &[Value::Int(arg)], &mut collector)?;
        collector.end_request();
        println!("handler({arg}) = {out}");
    }

    // 3. Build, validate and round-trip the profile package.
    let (tier, ctx) = collector.finish();
    let opts = JumpStartOptions {
        min_funcs_profiled: 1,
        min_counter_mass: 10,
        min_requests: 3,
        ..Default::default()
    };
    let pkg = build_package(
        SeederInputs {
            repo: &repo,
            tier,
            ctx,
            unit_order: vm.loader().load_order(),
            requests: 5,
            region: 0,
            bucket: 0,
            seeder_id: 1,
            now_ms: 0,
        },
        &opts,
        &JitOptions::default(),
    );
    let bytes = pkg.serialize();
    println!(
        "package: {} bytes, {} functions ordered",
        bytes.len(),
        pkg.func_order.len()
    );
    let report = Validator::new(opts, JitOptions::default()).validate(&repo, &bytes)?;
    println!(
        "validated: {} functions compile cleanly",
        report.compiled_funcs
    );

    // 4. Boot a consumer (Fig. 3c): compile everything before serving.
    let pkg = jumpstart::ProfilePackage::deserialize(&bytes)?;
    let outcome = consume(&repo, &pkg, JitOptions::default(), &opts, 2)?;
    println!(
        "consumer ready: {} optimized functions, {} bytes of code",
        outcome.compiled_funcs, outcome.compile_bytes
    );
    let counter = repo.class_by_name("Counter").expect("exists").id;
    let hits = repo.str_id("hits").expect("interned");
    println!(
        "property `hits` physical slot: {} (declared index 3, reordered hot-first)",
        outcome.prop_slots[&(counter, hits)]
    );

    // 5. Replay through the simulated core and report locality metrics.
    let mut ex = Executor::new(
        &repo,
        &outcome.engine.code_cache,
        &pkg.tier,
        &pkg.ctx,
        ExecutorConfig::default(),
    );
    for _ in 0..200 {
        ex.run_call(handler);
    }
    println!("\nsteady-state replay:\n{}", ex.report());
    Ok(())
}
