//! Warmup timelines and the capacity-loss metric.

/// One timeline sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Server uptime (ms since process start).
    pub t_ms: u64,
    /// Served requests per second, normalized to the warmed-up rate.
    pub rps_norm: f64,
    /// Average wall latency per request (ms).
    pub latency_ms: f64,
    /// Total JITed code bytes produced so far.
    pub code_bytes: u64,
}

/// A server warmup timeline plus lifecycle markers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Periodic samples.
    pub samples: Vec<Sample>,
    /// When the server started accepting requests.
    pub serve_start_ms: u64,
    /// Point A: profiling stopped / retranslate-all began (no-Jump-Start).
    pub point_a_ms: Option<u64>,
    /// Point B: optimized compilation finished (relocation begins).
    pub point_b_ms: Option<u64>,
    /// Point C: relocation finished, optimized code live.
    pub point_c_ms: Option<u64>,
}

impl Timeline {
    /// Fraction of capacity lost over `[0, window_ms)` relative to a
    /// server that never restarted (Fig. 2's area above the curve).
    ///
    /// The restart gap is priced exactly: capacity is zero over
    /// `[0, serve_start_ms)`, and the first sample's rate is held back to
    /// `serve_start_ms` rather than linearly interpolated from zero at
    /// `t = 0` — the server was already serving at that rate when it
    /// opened, it did not ramp from the beginning of time.
    pub fn capacity_loss_over(&self, window_ms: u64) -> f64 {
        capacity_loss_from(&self.samples, self.serve_start_ms, window_ms)
    }

    /// The sample closest to `t_ms`.
    ///
    /// Samples are sorted by `t_ms` (both drivers append in time order),
    /// so this is a binary search rather than a scan — timelines at
    /// paper scale are probed thousands of times per report. Ties
    /// between two equidistant neighbors go to the *earlier* sample,
    /// matching the old linear `min_by_key` (first minimum wins).
    pub fn at(&self, t_ms: u64) -> Option<&Sample> {
        let idx = self.samples.partition_point(|s| s.t_ms < t_ms);
        let after = self.samples.get(idx);
        let before = idx.checked_sub(1).and_then(|i| self.samples.get(i));
        match (before, after) {
            (Some(b), Some(a)) if b.t_ms.abs_diff(t_ms) <= a.t_ms.abs_diff(t_ms) => Some(b),
            (_, Some(a)) => Some(a),
            (b, None) => b,
        }
    }

    /// First time normalized RPS reaches `level`, if ever.
    pub fn time_to_rps(&self, level: f64) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| s.rps_norm >= level)
            .map(|s| s.t_ms)
    }
}

/// Capacity loss over a window: `1 - mean(rps_norm)` using trapezoidal
/// integration over `[0, window_ms)`, for a server that only started
/// serving at `serve_start_ms`: zero capacity over `[0, serve_start_ms)`,
/// then the first in-window sample's rate held constant back to the
/// serve start. (Reading a first sample at `t > 0` as a linear ramp from
/// zero at `t = 0` instead would overstate loss for any server whose
/// samples begin after the restart gap.)
pub fn capacity_loss_from(samples: &[Sample], serve_start_ms: u64, window_ms: u64) -> f64 {
    if samples.is_empty() || serve_start_ms >= window_ms {
        return 1.0;
    }
    let mut area = 0.0;
    let mut prev_t = serve_start_ms;
    let mut prev_v = samples
        .iter()
        .find(|s| s.t_ms >= serve_start_ms)
        .map_or(0.0, |s| s.rps_norm.min(1.0));
    for s in samples {
        if s.t_ms < serve_start_ms {
            continue;
        }
        if s.t_ms > window_ms {
            let span = window_ms - prev_t;
            area += span as f64 * (prev_v + s.rps_norm.min(1.0)) / 2.0;
            prev_t = window_ms;
            break;
        }
        let span = s.t_ms - prev_t;
        area += span as f64 * (prev_v + s.rps_norm.min(1.0)) / 2.0;
        prev_t = s.t_ms;
        prev_v = s.rps_norm.min(1.0);
    }
    if prev_t < window_ms {
        area += (window_ms - prev_t) as f64 * prev_v;
    }
    1.0 - (area / window_ms as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t_ms: u64, rps: f64) -> Sample {
        Sample {
            t_ms,
            rps_norm: rps,
            latency_ms: 1.0,
            code_bytes: 0,
        }
    }

    #[test]
    fn full_capacity_has_zero_loss() {
        let samples = vec![s(0, 1.0), s(500, 1.0), s(1000, 1.0)];
        assert!(capacity_loss_from(&samples, 0, 1000) < 1e-9);
    }

    #[test]
    fn dead_server_loses_everything() {
        let samples = vec![s(0, 0.0), s(1000, 0.0)];
        assert!((capacity_loss_from(&samples, 0, 1000) - 1.0).abs() < 1e-9);
        assert_eq!(capacity_loss_from(&[], 0, 1000), 1.0);
    }

    #[test]
    fn linear_ramp_loses_half() {
        let samples: Vec<Sample> = (0..=10).map(|i| s(i * 100, i as f64 / 10.0)).collect();
        let loss = capacity_loss_from(&samples, 0, 1000);
        assert!((loss - 0.5).abs() < 0.01, "got {loss}");
    }

    #[test]
    fn window_truncates() {
        // Full for 500ms then dead: loss over 1000ms = 0.5.
        let samples = vec![s(0, 1.0), s(500, 1.0), s(501, 0.0), s(1000, 0.0)];
        let loss = capacity_loss_from(&samples, 0, 1000);
        assert!((loss - 0.5).abs() < 0.01, "got {loss}");
        // Over the first 500ms only: no loss.
        assert!(capacity_loss_from(&samples, 0, 500) < 0.01);
    }

    #[test]
    fn serve_start_prices_restart_gap_exactly() {
        // One sample at full rate, taken at t = 1000, server open since
        // t = 200. Correct loss over [0, 1000): the 200ms gap = 0.2 —
        // NOT 0.5, which is what interpolating the first sample from
        // zero at t = 0 used to report.
        let samples = vec![s(1000, 1.0)];
        let loss = capacity_loss_from(&samples, 200, 1000);
        assert!((loss - 0.2).abs() < 1e-9, "got {loss}");

        let tl = Timeline {
            samples,
            serve_start_ms: 200,
            ..Default::default()
        };
        let loss = tl.capacity_loss_over(1000);
        assert!((loss - 0.2).abs() < 1e-9, "got {loss}");

        // A gap covering the whole window is total loss.
        assert_eq!(capacity_loss_from(&[s(2000, 1.0)], 1500, 1000), 1.0);
    }

    #[test]
    fn at_binary_search_matches_linear_scan() {
        // The retired O(n) implementation, kept as the pinning oracle.
        fn at_linear(tl: &Timeline, t_ms: u64) -> Option<&Sample> {
            tl.samples.iter().min_by_key(|s| s.t_ms.abs_diff(t_ms))
        }
        // Irregular spacing, including an exact-midpoint tie (150 between
        // 100 and 200) where the linear scan's first minimum — the
        // earlier sample — must win.
        let tl = Timeline {
            samples: [0u64, 100, 200, 250, 1000, 1001]
                .iter()
                .map(|&t| s(t, t as f64))
                .collect(),
            ..Default::default()
        };
        for probe in [
            0, 1, 49, 50, 51, 100, 150, 151, 225, 226, 600, 1000, 1001, 9999,
        ] {
            assert_eq!(
                tl.at(probe).map(|x| x.t_ms),
                at_linear(&tl, probe).map(|x| x.t_ms),
                "probe {probe}"
            );
        }
        // Exact-midpoint tie resolves to the earlier sample.
        assert_eq!(tl.at(150).unwrap().t_ms, 100);
        assert_eq!(tl.at(225).unwrap().t_ms, 200);
        // Degenerate timelines.
        let empty = Timeline::default();
        assert!(empty.at(5).is_none());
        let one = Timeline {
            samples: vec![s(42, 1.0)],
            ..Default::default()
        };
        assert_eq!(one.at(0).unwrap().t_ms, 42);
        assert_eq!(one.at(100).unwrap().t_ms, 42);
    }

    #[test]
    fn timeline_helpers() {
        let tl = Timeline {
            samples: vec![s(0, 0.1), s(100, 0.5), s(200, 0.95)],
            serve_start_ms: 10,
            ..Default::default()
        };
        assert_eq!(tl.time_to_rps(0.9), Some(200));
        assert_eq!(tl.time_to_rps(0.99), None);
        assert_eq!(tl.at(120).unwrap().t_ms, 100);
    }
}
