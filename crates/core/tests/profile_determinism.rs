//! Independently collected profiles of one program are indistinguishable
//! downstream. The replay maps an RNG draw to a callee of a polymorphic
//! site, and that choice may depend on nothing but the counters themselves.

use bytecode::Instr;
use jit::{CodeCache, CodeCacheConfig, Executor, ExecutorConfig, ProfileCollector};
use layout::LayoutPlanOptions;
use vm::{Value, Vm};

const SHAPES: usize = 8;

/// `main($i)` calls `area` on one of eight classes picked by `$i % 8`:
/// one `CallMethod` site with eight targets, each doing a different amount
/// of work.
fn source() -> String {
    let mut src = String::new();
    for k in 0..SHAPES {
        src.push_str(&format!(
            "class S{k} {{ function area($n) {{ $s = 0; for ($j = 0; $j < {}; $j++) {{ $s = $s + $n; }} return $s; }} }}\n",
            3 * k + 1
        ));
    }
    src.push_str("function make($k) {\n");
    for k in 0..SHAPES - 1 {
        src.push_str(&format!("    if ($k == {k}) {{ return new S{k}(); }}\n"));
    }
    src.push_str(&format!("    return new S{}();\n}}\n", SHAPES - 1));
    src.push_str("function main($i) { $o = make($i % 8); return $o->area($i); }\n");
    src
}

#[test]
fn independently_collected_profiles_replay_identically() {
    let repo = hackc::compile_unit("poly.hl", &source()).unwrap();
    let main = repo.func_by_name("main").unwrap().id;
    let code = &repo.func(main).code;
    let is_method_call = |i: &Instr| matches!(i, Instr::CallMethod { .. });
    let site = code.iter().position(is_method_call).unwrap() as u32;
    let cache = CodeCache::with_plan(CodeCacheConfig::default(), LayoutPlanOptions::disabled());
    let reports: Vec<_> = (0..4)
        .map(|_| {
            let mut vm = Vm::new(&repo);
            let mut col = ProfileCollector::new(&repo);
            for i in 0..96 {
                vm.call_observed(main, &[Value::Int(i)], &mut col).unwrap();
                col.end_request();
            }
            let (tier, ctx) = col.finish();
            let targets = tier.funcs[&main].call_targets_at(site);
            assert_eq!(targets.len(), SHAPES);
            // Nothing is compiled, so every call replays on the interpreter
            // path and every method call samples its target.
            let config = ExecutorConfig::default();
            let mut ex = Executor::new(&repo, &cache, &tier, &ctx, config);
            for _ in 0..200 {
                ex.run_call(main);
            }
            ex.report()
        })
        .collect();
    assert!(reports[0].instructions > 0);
    for r in &reports[1..] {
        assert_eq!(*r, reports[0]);
    }
}
