//! Chrome-trace export of fleet warmup timelines.
//!
//! A fleet simulation produces one [`Timeline`] per server. This module
//! renders the kept ones as a Chrome trace with one process track per
//! simulated server — lifecycle points A/B/C as instants, normalized RPS,
//! latency and code size as counter series. (The per-server numbers are
//! `ServerStat`; `DeployReport::fleet_aggregate` folds them.)

use std::borrow::Cow;

use telemetry::{AttrValue, Event, EventKind, Trace, TrackDump};

use crate::metrics::Timeline;

const MS_TO_NS: u64 = 1_000_000;

fn instant(name: &'static str, t_ms: u64, attrs: Vec<(&'static str, AttrValue)>) -> Event {
    Event {
        kind: EventKind::Instant,
        name: Cow::Borrowed(name),
        ts_ns: t_ms * MS_TO_NS,
        attrs,
    }
}

fn counter(name: &'static str, t_ms: u64, value: f64) -> Event {
    Event {
        kind: EventKind::Counter(value),
        name: Cow::Borrowed(name),
        ts_ns: t_ms * MS_TO_NS,
        attrs: Vec::new(),
    }
}

/// Renders fleet timelines as a [`telemetry::Trace`]: one process (pid)
/// per server, with the serve-start and A/B/C lifecycle points as
/// instants and the sampled `rps_norm` / `latency_ms` / `code_bytes`
/// curves as counter series. Simulated milliseconds map to trace
/// nanoseconds. `jstrace --warmup` rebuilds timelines from exactly these
/// series, so their names are a schema.
///
/// Memory is bounded for paper-scale fleets: at most `max_tracks` servers
/// get a track (the rest are counted in [`Trace::dropped`]), and each
/// track's sample series is thinned to at most `max_samples`
/// evenly-strided points (the last sample is always kept so the
/// converged value survives). Lifecycle instants are never dropped.
pub fn timelines_to_trace_capped(
    timelines: &[Timeline],
    label: &str,
    max_tracks: usize,
    max_samples: usize,
) -> Trace {
    let mut tracks = Vec::new();
    let shown = timelines.len().min(max_tracks);
    for (i, tl) in timelines[..shown].iter().enumerate() {
        let mut events = Vec::new();
        events.push(instant(
            "serve-start",
            tl.serve_start_ms,
            vec![("t_ms", AttrValue::U64(tl.serve_start_ms))],
        ));
        for (name, point) in [
            ("point-A", tl.point_a_ms),
            ("point-B", tl.point_b_ms),
            ("point-C", tl.point_c_ms),
        ] {
            if let Some(t_ms) = point {
                events.push(instant(name, t_ms, vec![("t_ms", AttrValue::U64(t_ms))]));
            }
        }
        let stride = tl.samples.len().div_ceil(max_samples.max(1)).max(1);
        let last = tl.samples.len().wrapping_sub(1);
        for (k, s) in tl.samples.iter().enumerate() {
            if k % stride != 0 && k != last {
                continue;
            }
            events.push(counter("rps_norm", s.t_ms, s.rps_norm));
            events.push(counter("latency_ms", s.t_ms, s.latency_ms));
            events.push(counter("code_bytes", s.t_ms, s.code_bytes as f64));
        }
        // Chrome requires non-decreasing timestamps per track; the
        // lifecycle instants interleave with the sample series.
        events.sort_by_key(|e| e.ts_ns);
        let id = i as u64 + 1;
        tracks.push(TrackDump {
            id,
            pid: id as u32,
            name: "timeline".to_string(),
            process_name: Some(format!("{label} server {i}")),
            events,
        });
    }
    Trace {
        tracks,
        dropped: (timelines.len() - shown) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Sample;

    fn timeline(serve_start_ms: u64) -> Timeline {
        Timeline {
            samples: (1..=10)
                .map(|i| Sample {
                    t_ms: i * 1000,
                    rps_norm: (i as f64 / 10.0).min(1.0),
                    latency_ms: 2.0,
                    code_bytes: i * 4096,
                })
                .collect(),
            serve_start_ms,
            point_a_ms: Some(2_000),
            point_b_ms: Some(5_000),
            point_c_ms: Some(7_000),
        }
    }

    #[test]
    fn fleet_trace_is_chrome_valid_with_one_pid_per_server() {
        let timelines: Vec<Timeline> = (0..3).map(|i| timeline(500 + i * 100)).collect();
        let trace = timelines_to_trace_capped(&timelines, "jumpstart", usize::MAX, usize::MAX);
        assert_eq!(trace.tracks.len(), 3);
        let pids: std::collections::BTreeSet<u32> = trace.tracks.iter().map(|t| t.pid).collect();
        assert_eq!(pids.len(), 3, "one process per server");

        let json = trace.to_chrome_json();
        let summary = telemetry::validate_chrome(&json).expect("valid Chrome trace");
        assert_eq!(summary.tracks, 3);
        // serve-start + A/B/C per server.
        assert_eq!(summary.instants, 4 * 3);
        assert!(json.contains("jumpstart server 0"));
        assert!(json.contains("point-B"));
        // All three counter series are exported (jstrace --warmup
        // rebuilds timelines from them).
        for series in ["rps_norm", "latency_ms", "code_bytes"] {
            assert!(json.contains(series), "missing counter series {series}");
        }
    }

    #[test]
    fn capped_trace_bounds_tracks_and_downsamples() {
        let timelines: Vec<Timeline> = (0..6).map(|i| timeline(500 + i * 100)).collect();
        let trace = timelines_to_trace_capped(&timelines, "fleet", 2, 4);
        assert_eq!(trace.tracks.len(), 2);
        assert_eq!(trace.dropped, 4);
        for track in &trace.tracks {
            let counters = track
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Counter(_)) && e.name == "rps_norm")
                .count();
            assert!(counters <= 5, "downsampled to ~4 + last, got {counters}");
            // The converged tail sample survives thinning.
            let last_ts = track.events.iter().map(|e| e.ts_ns).max().unwrap();
            assert_eq!(last_ts, 10_000 * MS_TO_NS);
        }
        let json = trace.to_chrome_json();
        telemetry::validate_chrome(&json).expect("valid Chrome trace");
    }
}
