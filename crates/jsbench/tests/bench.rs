//! The benchmark's own contract, at tiny app scale: `BENCHMARK.json` and
//! the binary agree on every name and unit, exact metrics repeat bit for
//! bit for one seed and move with the seed, and a wrong reference digest
//! fails the run.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use jsbench::inputs::Scale;
use jsbench::{run, spec, RunArgs, RunOutput, Workload};
use telemetry::json::{self, Json};

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunArgs {
    RunArgs {
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        threads: 2,
        ..RunArgs::new(workload)
    }
}

/// Every workload at once, one thread each (debug builds are slow and
/// the runs are independent), in `Workload::ALL` order.
fn run_each(args: impl Fn(Workload) -> RunArgs + Sync) -> Vec<RunOutput> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = Workload::ALL
            .into_iter()
            .map(|w| {
                let args = &args;
                scope.spawn(move || run(&args(w)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the run does not panic"))
            .collect()
    })
}

/// Both passes of every workload at seed 42, run once for all tests.
fn seed42() -> &'static [(RunOutput, RunOutput)] {
    static RUNS: OnceLock<Vec<(RunOutput, RunOutput)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let untraced = run_each(|w| tiny(w, 42, false));
        let traced = run_each(|w| tiny(w, 42, true));
        untraced.into_iter().zip(traced).collect()
    })
}

fn benchmark_json_text() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    text
}

fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            assert!(matches!(field("better").as_str(), "higher" | "lower"));
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_and_the_binary_name_the_same_metrics() {
    let text = benchmark_json_text();
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

    let end_to_end = names_units(&doc, "end_to_end");
    let per_layer = names_units(&doc, "per_layer");
    assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
    for (bound_name, bound) in spec::bounds_from_benchmark_json(&text).expect("bounds parse") {
        assert!(bound > 0.0 && bound <= 0.25, "{bound_name}: {bound}");
    }
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
        let listed = doc
            .get(if spec::END_TO_END.contains(m) {
                "end_to_end"
            } else {
                "per_layer"
            })
            .and_then(Json::as_arr)
            .and_then(|l| {
                l.iter()
                    .find(|j| j.get("name").and_then(Json::as_str) == Some(m.name))
            })
            .expect(m.name);
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            listed.get("better").and_then(Json::as_str),
            Some(better),
            "{}",
            m.name
        );
    }

    for (untraced, traced) in seed42() {
        let what = untraced.args.workload.name();
        for (out, expected, never_zero) in
            [(untraced, &end_to_end, true), (traced, &per_layer, false)]
        {
            assert!(
                out.correct(),
                "{what}: {} of {} failed",
                out.failed,
                out.attempted
            );
            let printed: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(&printed, expected, "{what}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{what} {}", m.name);
                assert!(!never_zero || m.value > 0.0, "{what} {} is 0", m.name);
            }
            // The result line is exactly the contract's four keys.
            let line = json::parse(&out.result_line()).expect("result line parses");
            let Json::Obj(fields) = &line else {
                panic!("not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(json::parse(&out.detail_line()).is_ok());
        }
        assert!(traced
            .spans_json
            .as_deref()
            .is_some_and(|s| json::parse(s).is_ok()));
    }
}

#[test]
fn each_workload_enters_its_layers_and_bypasses_the_others() {
    let runs = seed42();
    let layer = |w: Workload, name: &str| {
        let (_, traced) = &runs[Workload::ALL.iter().position(|x| *x == w).expect("listed")];
        traced.metric(name).expect(name)
    };
    use Workload::*;
    // Repair runs on the stale boot only; the lazy path never lints.
    assert!(layer(BootStale, "analysis.stale.repair_ms") > 0.0);
    assert!(layer(BootStale, "analysis.stale.funcs_repaired") > 0.0);
    assert_eq!(layer(BootFresh, "analysis.stale.repair_ms"), 0.0);
    assert_eq!(layer(BootFresh, "analysis.lint.stale_ms"), 0.0);
    assert!(layer(BootFresh, "analysis.lint.clean_ms") > 0.0);
    assert_eq!(layer(PushLazy, "analysis.lint.clean_ms"), 0.0);
    // Chunking is push-lazy's alone; every boot translates.
    assert!(layer(PushLazy, "core.chunk.split_ms") > 0.0);
    assert!(layer(PushLazy, "serve_ready_ms") < layer(PushLazy, "boot_ms"));
    assert_eq!(layer(BootFresh, "core.chunk.split_ms"), 0.0);
    for w in [BootFresh, BootStale, PushLazy] {
        assert!(layer(w, "jit.translate.ms") > 0.0);
        assert!(layer(w, "package_bytes") > 0.0);
    }
    // The fleet and the replay touch neither the boot path nor each other.
    for name in ["jit.translate.ms", "core.wire.decode_ms", "boot_ms"] {
        assert_eq!(layer(FleetPush, name), 0.0, "{name}");
        assert_eq!(layer(SteadyReplay, name), 0.0, "{name}");
    }
    assert!(layer(FleetPush, "fleet.deploy.events") > 0.0);
    assert_eq!(layer(SteadyReplay, "fleet.deploy.events"), 0.0);
    assert!(layer(SteadyReplay, "steady_cycles_per_req") > 0.0);
    assert_eq!(layer(FleetPush, "steady_cycles_per_req"), 0.0);
}

fn exact_values(out: &RunOutput) -> Vec<(&'static str, u64)> {
    out.metrics
        .iter()
        .filter(|m| spec::find(m.name).is_some_and(|s| s.exact))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn exact_metrics_and_digests_repeat_for_a_seed_and_move_with_it() {
    let again = run_each(|w| tiny(w, 42, true));
    let other = run_each(|w| tiny(w, 7, true));
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let first = &seed42()[i].1;
        let (again, other) = (&again[i], &other[i]);
        assert!(again.correct() && other.correct(), "{}", w.name());
        assert_eq!(exact_values(first), exact_values(again), "{}", w.name());
        assert_eq!(first.digests, again.digests, "{}", w.name());
        assert_ne!(first.digests, other.digests, "{}", w.name());
        assert_ne!(exact_values(first), exact_values(other), "{}", w.name());
    }
}

#[test]
fn a_flipped_reference_digest_fails_every_workload() {
    let flipped = run_each(|w| RunArgs {
        flip_reference: true,
        ..tiny(w, 42, false)
    });
    for out in &flipped {
        assert!(
            out.failed > 0 && !out.correct(),
            "{}",
            out.args.workload.name()
        );
    }
}

#[test]
fn the_command_exits_nonzero_when_an_op_fails() {
    let jsbench = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_jsbench"))
            .args(["--workload", "boot-fresh", "--scale", "tiny"])
            .args(["--seed", "7", "--seconds", "0.05", "--trace", "0"])
            .args(extra)
            .output()
            .expect("jsbench runs")
    };
    let good = jsbench(&[]);
    assert!(good.status.success());
    let stdout = String::from_utf8(good.stdout).expect("utf-8");
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("parses");
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));

    let bad = jsbench(&["--flip-reference"]);
    assert_eq!(bad.status.code(), Some(1));
    let usage = jsbench(&["--trace", "2"]);
    assert_eq!(usage.status.code(), Some(2));
}
