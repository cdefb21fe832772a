//! Unified telemetry for the Jump-Start stack: structured span tracing,
//! its exporters, and the small pure helpers report writers share.
//!
//! Two layers, usable independently:
//!
//! - **Tracer** ([`mod@span`] module): per-thread ring buffers of
//!   begin/end events with typed attributes, RAII span guards, and a
//!   global on/off switch. Disabled cost is one relaxed atomic load per
//!   site; the [`span!`] / [`instant!`] macros skip attribute
//!   construction too. [`drain`] assembles buffers into a [`Trace`];
//!   [`Trace::trees`] rebuilds the span hierarchy post-hoc;
//!   [`Trace::to_chrome_json`] exports Chrome-trace JSON (loadable in
//!   Perfetto, one track per pipeline worker / one process per simulated
//!   server) and [`validate_chrome`] is the schema validator behind the
//!   CI gate.
//! - **Helpers**: a strict JSON reader and the float/string writers
//!   ([`json`], [`fmt_f64`]), and fleet statistics over plain columns of
//!   numbers ([`aggregate_values`], [`quantile_sorted`], and
//!   [`quantile_runs`] / [`bootstrap_percentile_ci`] over `(value, count)`
//!   runs).
//!
//! Numbers live in typed records next to the code that produces them —
//! a boot's in `BootStats` (`core`), a simulated server's in `ServerStat`
//! (`fleet`) — and time is spans.
//!
//! The crate is std-only by design so every other crate in the workspace
//! can depend on it without cycles or new external dependencies.

pub mod chrome;
pub mod export;
pub mod json;
pub mod span;
pub mod trace;

pub use chrome::{validate_chrome, ChromeSummary};
pub use export::{
    aggregate_values, bootstrap_percentile_ci, quantile_runs, quantile_sorted, AggStat,
    FleetAggregate,
};
pub use json::fmt_f64;
pub use span::{
    capture, disable, drain, enable, enabled, instant, instant_attrs, session_lock, span,
    span_attrs, track, AttrValue, Event, EventKind, SessionGuard, SpanGuard, TrackGuard,
};
pub use trace::{SpanNode, Trace, TrackDump, TreeError};

/// Opens a span, optionally with attributes. With attributes, the
/// attribute vector is only built when tracing is enabled, so disabled
/// sites neither allocate nor evaluate conversions.
///
/// ```
/// let _s = telemetry::span!("translate", "func" => 7usize, "hot" => true);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($k:literal => $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::span_attrs($name, vec![$(($k, $crate::AttrValue::from($v))),+])
        } else {
            $crate::SpanGuard::inert()
        }
    };
}

/// Records an instant marker, optionally with attributes (built only when
/// tracing is enabled).
#[macro_export]
macro_rules! instant {
    ($name:expr) => {
        $crate::instant($name)
    };
    ($name:expr, $($k:literal => $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::instant_attrs($name, vec![$(($k, $crate::AttrValue::from($v))),+])
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn capture_roundtrips_macros() {
        let ((), trace) = crate::capture(|| {
            let _outer = crate::span!("outer", "n" => 3usize);
            crate::instant!("tick", "which" => 1u64);
            let _inner = crate::span!("inner");
        });
        let spans = trace.all_spans().expect("well-formed");
        assert!(spans.iter().any(|(_, s)| s.name == "outer"));
        assert!(spans.iter().any(|(_, s)| s.name == "inner"));
        assert!(spans.iter().any(|(_, s)| s.name == "tick"));
        let outer = spans.iter().find(|(_, s)| s.name == "outer").unwrap();
        assert_eq!(outer.1.attrs, vec![("n", crate::AttrValue::U64(3))]);
    }

    #[test]
    fn macros_are_silent_when_disabled() {
        let _session = crate::session_lock();
        drop(crate::drain());
        {
            let _s = crate::span!("quiet", "k" => 1u64);
            crate::instant!("quiet-mark");
        }
        assert_eq!(crate::drain().event_count(), 0);
    }
}
