//! Disabled-tracer guarantees: no events recorded, and zero heap
//! allocations on the instrumentation hot path.
//!
//! This file is its own test binary so it can install a counting global
//! allocator without affecting the rest of the suite. The counter is a
//! const-initialized thread-local `Cell` (no lazy init, no destructor),
//! so bumping it never recurses into the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The compile-hot-path instrumentation pattern, exactly as the pipeline
/// uses it: a span with typed attributes and an instant.
#[inline(never)]
fn instrumented_compile(func: usize) {
    let _span = telemetry::span!("translate", "func" => func, "hot" => true);
    if func.is_multiple_of(7) {
        telemetry::instant!("steal", "victim" => func % 3);
    }
}

#[test]
fn disabled_tracer_records_nothing_and_never_allocates() {
    // Hold the session lock so no concurrent capture() can flip tracing
    // on under us, and start from a clean buffer.
    let _session = telemetry::session_lock();
    drop(telemetry::drain());
    assert!(!telemetry::enabled());

    // Warm up: first call touches TLS and lazy statics.
    instrumented_compile(1);

    let before = allocs_on_this_thread();
    for func in 0..10_000 {
        instrumented_compile(func);
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "disabled instrumentation allocated {delta} times over 10k compile sites"
    );

    assert_eq!(
        telemetry::drain().event_count(),
        0,
        "disabled tracer buffered events"
    );
}

#[test]
fn enable_disable_boundary_is_respected() {
    let _session = telemetry::session_lock();
    drop(telemetry::drain());

    instrumented_compile(0); // off: ignored
    telemetry::enable();
    instrumented_compile(1); // on: recorded
    telemetry::disable();
    instrumented_compile(2); // off again: ignored

    let trace = telemetry::drain();
    // One span pair from the single enabled call.
    let spans = trace.all_spans().expect("well-formed");
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].1.name, "translate");
    assert_eq!(
        spans[0].1.attrs,
        vec![
            ("func", telemetry::AttrValue::U64(1)),
            ("hot", telemetry::AttrValue::Bool(true)),
        ]
    );
}
