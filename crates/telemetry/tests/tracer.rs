//! Property test: span events recorded concurrently by pipeline-style
//! workers always assemble into well-formed trees, whatever the thread
//! count, nesting depth, and interleaving.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_worker_spans_form_trees(
        workers in 1usize..8,
        funcs in 1usize..40,
        depth in 1usize..5,
    ) {
        let recorded = AtomicUsize::new(0);
        let ((), trace) = telemetry::capture(|| {
            std::thread::scope(|scope| {
                for wid in 0..workers {
                    let recorded = &recorded;
                    scope.spawn(move || {
                        let _track = telemetry::track(format!("worker {wid}"));
                        let _outer = telemetry::span!("worker-loop", "wid" => wid);
                        for f in 0..funcs {
                            // Vary nesting so interleavings differ per case.
                            let d = 1 + (f + wid) % depth;
                            let mut guards = Vec::new();
                            for level in 0..d {
                                guards.push(
                                    telemetry::span!("compile", "func" => f, "level" => level),
                                );
                            }
                            if f % 3 == 0 {
                                telemetry::instant!("steal", "victim" => (wid + 1) % workers);
                            }
                            drop(guards);
                            recorded.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
        });

        prop_assert_eq!(recorded.load(Ordering::Relaxed), workers * funcs);
        prop_assert_eq!(trace.dropped, 0);

        // Every worker got its own named track.
        for wid in 0..workers {
            let name = format!("worker {wid}");
            prop_assert!(
                trace.tracks.iter().any(|t| t.name == name),
                "missing track {}", name
            );
        }

        // The core property: every track's flat stream assembles into a
        // well-formed span tree.
        let trees = trace
            .trees()
            .unwrap_or_else(|e| panic!("malformed track: {e}"));

        // And the trees carry exactly the spans the workers opened:
        // one worker-loop root per worker track, `funcs` compile chains.
        for (track, roots) in &trees {
            if !track.name.starts_with("worker ") {
                continue;
            }
            prop_assert_eq!(roots.len(), 1, "track {} roots", &track.name);
            let root = &roots[0];
            prop_assert_eq!(root.name.as_str(), "worker-loop");
            let compiles = root
                .children
                .iter()
                .filter(|c| c.name == "compile")
                .count();
            prop_assert_eq!(compiles, funcs);
            // Nesting is ordered: children start no earlier than parents.
            fn check_order(node: &telemetry::SpanNode) -> bool {
                node.children.iter().all(|c| {
                    c.start_ns >= node.start_ns
                        && c.end_ns <= node.end_ns
                        && check_order(c)
                })
            }
            prop_assert!(check_order(root), "child spans escape parent bounds");
        }
    }
}

#[test]
fn capture_discards_prior_session_leftovers() {
    // A first capture leaves nothing behind for the second.
    let ((), first) = telemetry::capture(|| {
        let _s = telemetry::span("left-open-ish");
    });
    assert!(first.event_count() > 0);
    let ((), second) = telemetry::capture(|| {});
    assert_eq!(
        second.event_count(),
        0,
        "stale events leaked across sessions"
    );
}

#[test]
fn end_attributes_join_their_span() {
    let ((), trace) = telemetry::capture(|| {
        let span = telemetry::span!("fan-out", "servers" => 8u64);
        telemetry::span!("server").end_with(Vec::new());
        span.end_with(vec![("lives", 3u64.into())]);
    });
    let roots: Vec<telemetry::SpanNode> = trace
        .trees()
        .expect("well-formed tracks")
        .into_iter()
        .flat_map(|(_, roots)| roots)
        .filter(|r| r.name == "fan-out")
        .collect();
    let [fan_out] = roots.as_slice() else {
        panic!("one fan-out span, got {roots:?}");
    };
    let u64_attr = telemetry::AttrValue::U64;
    assert_eq!(
        fan_out.attrs,
        [("servers", u64_attr(8)), ("lives", u64_attr(3))]
    );
    assert_eq!(fan_out.children.len(), 1);
    assert!(fan_out.children[0].attrs.is_empty());
    // Chrome merges a `B` event's args with its `E` event's.
    let json = trace.to_chrome_json();
    telemetry::validate_chrome(&json).expect("valid Chrome trace");
    assert!(json.contains(r#""ph":"E","#) && json.contains(r#""args":{"lives":3}"#));
}
