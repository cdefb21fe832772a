//! End-to-end tracing of a consumer boot: capturing a parallel
//! `consume_bytes` must yield per-worker tracks whose span streams
//! assemble into well-formed trees, with the decode → lint → pipeline →
//! per-function compile structure visible, and a Chrome-trace export
//! that passes the schema validator.

use bytecode::Repo;
use jit::{JitOptions, ProfileCollector};
use jumpstart::{build_package, consume_bytes, JumpStartOptions, ProfilePackage, SeederInputs};
use vm::{Value, Vm};

fn make_package() -> (Repo, ProfilePackage) {
    let src = r#"
        function work($x) { return $x * 3 + 1; }
        function twist($x) { return $x * $x - 2; }
        function main($n) {
            $s = 0;
            for ($i = 0; $i < $n; $i++) { $s += work($i) + twist($i); }
            return $s;
        }
    "#;
    let repo = hackc::compile_unit("t.hl", src).unwrap();
    let f = repo.func_by_name("main").unwrap().id;
    let mut vm = Vm::new(&repo);
    let mut col = ProfileCollector::new(&repo);
    for _ in 0..6 {
        vm.call_observed(f, &[Value::Int(25)], &mut col).unwrap();
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
            requests: 6,
            region: 0,
            bucket: 0,
            seeder_id: 9,
            now_ms: 0,
        },
        &JumpStartOptions::default(),
        &JitOptions::default(),
    );
    (repo, pkg)
}

#[test]
fn traced_parallel_boot_produces_well_formed_worker_trees() {
    let (repo, pkg) = make_package();
    let bytes = pkg.serialize();
    let threads = 4;

    let (out, trace) = telemetry::capture(|| {
        consume_bytes(
            &repo,
            &bytes,
            JitOptions::default(),
            &JumpStartOptions::default(),
            threads,
        )
        .expect("healthy package boots")
    });

    assert_eq!(trace.dropped, 0, "ring buffers overflowed");

    // One named track per pipeline worker that recorded anything. Idle
    // workers (tiny workload) leave empty rings, which drain() prunes.
    assert_eq!(out.boot.workers.len(), threads);
    for (wid, w) in out.boot.workers.iter().enumerate() {
        if w.translated == 0 {
            continue;
        }
        let name = format!("worker {wid}");
        assert!(
            trace.tracks.iter().any(|t| t.name == name),
            "missing track {name}"
        );
    }
    assert!(
        trace.tracks.iter().any(|t| t.name.starts_with("worker ")),
        "no worker tracks at all"
    );

    // Every track assembles into a well-formed span tree.
    let trees = trace
        .trees()
        .unwrap_or_else(|e| panic!("malformed track: {e}"));

    // The boot phases appear as spans, and every compiled function got a
    // compile span on some worker track.
    let spans = trace.all_spans().expect("well-formed");
    let count = |name: &str| spans.iter().filter(|(_, s)| s.name == name).count();
    assert_eq!(count("decode"), 1);
    assert_eq!(count("consumer-boot"), 1);
    assert_eq!(count("lint-repair"), 1);
    assert_eq!(count("prop-slots"), 1);
    assert_eq!(count("pipeline"), 1);
    assert_eq!(count("compile"), out.compiled_funcs);
    assert_eq!(count("emit"), out.compiled_funcs);

    // Compile spans live on worker tracks, inside that worker's stream.
    let worker_compiles: Vec<&telemetry::SpanNode> = trees
        .iter()
        .filter(|(t, _)| t.name.starts_with("worker "))
        .flat_map(|(_, roots)| roots)
        .filter(|r| r.name == "compile")
        .collect();
    assert_eq!(worker_compiles.len(), out.compiled_funcs);

    // Translation's two child spans sit directly under a unit's
    // `translate-optimized` span: one weight pass per unit, and one
    // template build per cache miss (lowering and splicing are the
    // parent's self time). Counted under the boot's compile spans, since
    // this binary's other test may build a package, which translates
    // too, while the tracer is on.
    let translates: Vec<&telemetry::SpanNode> = worker_compiles
        .iter()
        .flat_map(|c| &c.children)
        .filter(|n| n.name == "translate-optimized")
        .collect();
    assert_eq!(translates.len(), out.compiled_funcs);
    let under = |name: &str| {
        translates
            .iter()
            .flat_map(|t| &t.children)
            .filter(|n| n.name == name)
            .count()
    };
    let misses = out
        .boot
        .caches
        .expect("boot records its caches")
        .template_misses;
    assert!(misses > 0, "main inlines both helpers");
    assert_eq!(under("est-weights"), out.compiled_funcs);
    assert_eq!(under("inline-template") as u64, misses);
    let mut work: Vec<&telemetry::SpanNode> = trees.iter().flat_map(|(_, r)| r).collect();
    while let Some(node) = work.pop() {
        for child in &node.children {
            if matches!(child.name.as_str(), "inline-template" | "est-weights") {
                assert_eq!(
                    node.name, "translate-optimized",
                    "{} nests there",
                    child.name
                );
            }
            work.push(child);
        }
    }

    assert!(out.boot.decode_ns > 0, "decode was timed");

    // The Chrome-trace export round-trips through the schema validator.
    let json = trace.to_chrome_json();
    let summary = telemetry::validate_chrome(&json).expect("valid Chrome trace");
    assert!(summary.span_pairs >= out.compiled_funcs);
    assert!(summary.tracks >= 2, "main track plus at least one worker");
}

#[test]
fn untraced_boot_still_fills_boot_stats() {
    // Tracing off (the default): no spans recorded, BootStats filled all
    // the same.
    let (repo, pkg) = make_package();
    let bytes = pkg.serialize();
    // The traced test in this binary runs on another thread and turns the
    // process-wide tracer on; hold the session so it cannot overlap.
    let _session = telemetry::session_lock();
    assert!(!telemetry::enabled());
    let out = consume_bytes(
        &repo,
        &bytes,
        JitOptions::default(),
        &JumpStartOptions::default(),
        2,
    )
    .unwrap();
    assert!(out.boot.decode_ns > 0);
    assert!(out.boot.compiled_funcs > 0);
    assert_eq!(out.boot.workers.len(), 2);
}
