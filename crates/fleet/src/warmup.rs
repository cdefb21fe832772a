//! Statistically rigorous warmup classification over fleet timelines.
//!
//! "Virtual Machine Warmup Blows Hot and Cold" (Barrett et al., OOPSLA
//! 2017) showed that VM process executions frequently never reach a
//! steady state, warm up non-monotonically, or get *slower* — so reading
//! warmup off a threshold crossing (`time_to_rps(0.9)`) can silently
//! misreport Jump-Start's benefit. This module replaces the threshold
//! with their method, adapted to fleet timelines:
//!
//! 1. **Changepoint segmentation** ([`pelt_changepoints`]): each server's
//!    post-serve RPS and latency series is segmented by PELT (Killick et
//!    al. 2012) — exact dynamic programming over an L2 cost with linear
//!    expected cost via pruning. Deterministic, no external crates; the
//!    unpruned O(n²) recursion survives as
//!    [`pelt_changepoints_reference`], the equivalence oracle.
//! 2. **Classification** ([`classify_timeline`]): segment means relative
//!    to the final (steady) segment assign one of the five Barrett-style
//!    classes in [`WarmupClass`], plus a time-to-steady-state estimate.
//! 3. **Fleet aggregation** ([`WarmupAccumulator`] → [`WarmupReport`]):
//!    per-class server fractions for the Jump-Start and baseline arms,
//!    time-to-steady-state p50/p95/p99 with deterministic bootstrap
//!    confidence intervals, and the median fleet warmup curve — Fig. 1/2
//!    reproduced from the aggregate rather than one representative.
//!
//! Everything is a pure function of the inputs: the same timelines
//! produce a byte-identical [`WarmupReport::to_json`] (and therefore
//! [`WarmupReport::digest`]) on every run and any shard count — which is
//! what lets ci.sh gate on it.
//!
//! **Repeated timelines are classified and stored once.** The consumers
//! of one deployment cell share their traffic, model and packages; boot
//! jitter, the degraded-host roll and download time only move *when*
//! serving starts, and the series sampled on the fixed grid mostly comes
//! out the same. At bench scale a cell has a few dozen distinct series
//! among thousands of servers. [`WarmupAccumulator::add`]
//! therefore looks each timeline up in an exact memo keyed by every input
//! [`classify_timeline`] and the fleet curve read (the `serve_start_ms >
//! 0` flag, the grid samples of the boot window and the bits of every
//! post-serve sample). A miss runs the classifier and stores the verdict
//! and the curve points as one entry; a hit only bumps that entry's
//! per-arm server count. The report reads every statistic from
//! `(value, servers)` runs ([`telemetry::quantile_runs`],
//! [`telemetry::bootstrap_percentile_ci`]), which equal the per-server
//! statistics bit for bit, so it cannot tell. The deployment gives each
//! cell an accumulator of its own, which bounds the lookup map to one
//! cell, and merges it into the fleet's as the cell comes in: the entries
//! (one per distinct timeline per cell) live until
//! [`WarmupAccumulator::finish`].

use std::collections::HashMap;

use telemetry::{bootstrap_percentile_ci, fmt_f64, quantile_runs, quantile_sorted};

use crate::metrics::{Sample, Timeline};

/// Warmup class of one server timeline, after Barrett et al.'s taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WarmupClass {
    /// Throughput started below the steady level and rose to it (or the
    /// restart gap itself was the warmup: serving began at the steady
    /// level after a non-trivial boot window).
    Warmup,
    /// Throughput ended below where it started, or latency degraded into
    /// the final segment: the server got *slower*.
    Slowdown,
    /// Steady from the very first sample with no restart gap.
    Flat,
    /// Direction changed repeatedly (or warmup and slowdown evidence
    /// conflict): no monotone story describes this server.
    Cyclic,
    /// The final segment began too late (or too few samples exist) to
    /// call anything steady.
    NoSteadyState,
}

impl WarmupClass {
    /// Stable JSON / digest name.
    pub fn name(self) -> &'static str {
        match self {
            WarmupClass::Warmup => "warmup",
            WarmupClass::Slowdown => "slowdown",
            WarmupClass::Flat => "flat",
            WarmupClass::Cyclic => "cyclic",
            WarmupClass::NoSteadyState => "no-steady-state",
        }
    }

    /// Stable one-byte code for digests.
    pub fn code(self) -> u8 {
        match self {
            WarmupClass::Warmup => 0,
            WarmupClass::Slowdown => 1,
            WarmupClass::Flat => 2,
            WarmupClass::Cyclic => 3,
            WarmupClass::NoSteadyState => 4,
        }
    }

    /// All classes, in `code()` order.
    pub fn all() -> [WarmupClass; 5] {
        [
            WarmupClass::Warmup,
            WarmupClass::Slowdown,
            WarmupClass::Flat,
            WarmupClass::Cyclic,
            WarmupClass::NoSteadyState,
        ]
    }
}

/// Tuning for segmentation, classification, and the bootstrap CIs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmupAnalysisParams {
    /// Multiplies the BIC-style penalty `σ̂² · ln n`; higher = fewer
    /// segments.
    pub penalty_scale: f64,
    /// Minimum samples per segment.
    pub min_segment_len: usize,
    /// Relative tolerance band around the steady mean: segment means
    /// within `±steady_tol` of the final mean count as "at level".
    pub steady_tol: f64,
    /// A final segment starting after `duration · steady_latest_frac` is
    /// too late to call steady → [`WarmupClass::NoSteadyState`].
    pub steady_latest_frac: f64,
    /// Bootstrap resamples per confidence interval.
    pub bootstrap_resamples: u32,
    /// Bootstrap RNG seed, shared by all three percentiles' CIs (the
    /// stream is splitmix64; see [`telemetry::bootstrap_percentile_ci`]).
    pub bootstrap_seed: u64,
}

impl Default for WarmupAnalysisParams {
    fn default() -> Self {
        Self {
            penalty_scale: 3.0,
            min_segment_len: 3,
            steady_tol: 0.05,
            steady_latest_frac: 0.75,
            bootstrap_resamples: 200,
            bootstrap_seed: 0x57a2_b007,
        }
    }
}

impl WarmupAnalysisParams {
    /// Sets the penalty scale (builder-style).
    pub fn with_penalty_scale(mut self, scale: f64) -> Self {
        self.penalty_scale = scale;
        self
    }
}

/// L2 segment cost over `xs[a..b]` from prefix sums: the residual sum of
/// squares around the segment mean, `Σx² − (Σx)²/len`.
struct L2Cost {
    s1: Vec<f64>,
    s2: Vec<f64>,
}

impl L2Cost {
    fn new(xs: &[f64]) -> Self {
        let mut s1 = Vec::with_capacity(xs.len() + 1);
        let mut s2 = Vec::with_capacity(xs.len() + 1);
        s1.push(0.0);
        s2.push(0.0);
        let (mut a1, mut a2) = (0.0f64, 0.0f64);
        for &x in xs {
            a1 += x;
            a2 += x * x;
            s1.push(a1);
            s2.push(a2);
        }
        Self { s1, s2 }
    }

    fn cost(&self, a: usize, b: usize) -> f64 {
        let len = (b - a) as f64;
        let sum = self.s1[b] - self.s1[a];
        // RSS can come out as a tiny negative through float cancellation
        // on constant segments; clamp so penalties stay comparable.
        ((self.s2[b] - self.s2[a]) - sum * sum / len).max(0.0)
    }
}

/// The segmentation penalty: `penalty_scale · σ̂² · ln n`, with σ̂²
/// estimated robustly from successive differences (median absolute
/// difference / 0.6745 / √2 — insensitive to the level jumps we are
/// trying to find) and floored so zero-noise series still pay a strictly
/// positive price per extra segment.
fn pelt_penalty(xs: &[f64], penalty_scale: f64) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 1.0;
    }
    let mut diffs: Vec<f64> = xs.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
    diffs.sort_by(|a, b| a.total_cmp(b));
    let mad = quantile_sorted(&diffs, 0.5);
    let sigma = mad / 0.6745 / std::f64::consts::SQRT_2;
    let (mut lo, mut hi) = (xs[0], xs[0]);
    for &x in xs {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let range = hi - lo;
    let var = (sigma * sigma).max(1e-4 * range * range).max(1e-12);
    penalty_scale.max(0.1) * var * (n as f64).ln().max(1.0)
}

/// Exact penalized changepoint detection, unpruned: the O(n²) optimal
/// partitioning recursion `F(t) = min_s F(s) + C(s,t) + β`. Kept as the
/// reference oracle the pruned implementation is property-tested against
/// (the repo idiom: `exttsp_order_reference`, `simulate_warmup_dense`).
///
/// Returns the interior changepoints as indices where a new segment
/// starts, strictly increasing, excluding `0` and `n`.
pub fn pelt_changepoints_reference(xs: &[f64], params: &WarmupAnalysisParams) -> Vec<usize> {
    let Some((n, min_len, cost, beta)) = pelt_setup(xs, params) else {
        return Vec::new();
    };
    // f[t]: optimal penalized cost of xs[..t]; f[0] = -β so the first
    // segment's β cancels (segments are priced, not boundaries).
    let mut f = vec![f64::INFINITY; n + 1];
    f[0] = -beta;
    let mut prev = vec![0usize; n + 1];
    for t in min_len..=n {
        let mut best = f64::INFINITY;
        let mut best_s = 0usize;
        // Every segment start: 0, and each `s` that leaves a first and a
        // last segment of at least `min_len`.
        for s in std::iter::once(0).chain(min_len..=t - min_len) {
            let val = f[s] + cost.cost(s, t) + beta;
            // Strict `<` with candidates scanned in increasing order:
            // ties go to the smaller s, i.e. fewer segments — a
            // zero-gain split is never taken.
            if val < best {
                best = val;
                best_s = s;
            }
        }
        f[t] = best;
        prev[t] = best_s;
    }
    backtrack(&prev, n)
}

/// [`pelt_changepoints_reference`] with PELT pruning: candidates whose
/// partial objective already exceeds the incumbent can never become
/// optimal again (Killick et al. 2012, K = 0 for L2) and are dropped,
/// giving linear expected time on series with changepoints. Bit-identical
/// to the reference by construction — pruning only removes provably
/// non-optimal candidates, and ties break identically (lowest candidate
/// index, which prefers fewer segments).
///
/// Each live candidate's partial objective `f[s] + C(s,t)` is computed
/// once per `t` and serves both the argmin (`+ β`, the reference's
/// association) and the prune test. A candidate `s` joins the live ones
/// at `t = s + min_len`, the first `t` it may end a segment at.
pub fn pelt_changepoints(xs: &[f64], params: &WarmupAnalysisParams) -> Vec<usize> {
    let Some((n, min_len, cost, beta)) = pelt_setup(xs, params) else {
        return Vec::new();
    };
    let mut f = vec![f64::INFINITY; n + 1];
    f[0] = -beta;
    let mut prev = vec![0usize; n + 1];
    // The live candidates, ascending, and their partial objectives at the
    // current `t`.
    let mut live: Vec<usize> = Vec::new();
    let mut partial: Vec<f64> = Vec::new();
    for t in min_len..=n {
        let s = t - min_len;
        if s == 0 || s >= min_len {
            live.push(s);
        }
        partial.clear();
        let mut best = f64::INFINITY;
        let mut best_s = 0usize;
        for &s in &live {
            let p = f[s] + cost.cost(s, t);
            partial.push(p);
            if p + beta < best {
                best = p + beta;
                best_s = s;
            }
        }
        f[t] = best;
        prev[t] = best_s;
        // Keep s if it may still beat the incumbent later.
        let mut kept = 0;
        for i in 0..live.len() {
            if partial[i] <= best {
                live[kept] = live[i];
                kept += 1;
            }
        }
        live.truncate(kept);
    }
    backtrack(&prev, n)
}

/// The length, the minimum segment length, the cost and the penalty of
/// a PELT run over `xs`; `None` when no split fits.
fn pelt_setup(xs: &[f64], params: &WarmupAnalysisParams) -> Option<(usize, usize, L2Cost, f64)> {
    let n = xs.len();
    let min_len = params.min_segment_len.max(1);
    if n < 2 * min_len {
        return None;
    }
    Some((
        n,
        min_len,
        L2Cost::new(xs),
        pelt_penalty(xs, params.penalty_scale),
    ))
}

/// The changepoints of the optimal partition whose last segment before
/// each `t` starts at `prev[t]`.
fn backtrack(prev: &[usize], n: usize) -> Vec<usize> {
    let mut cps = Vec::new();
    let mut t = n;
    while t > 0 {
        let s = prev[t];
        if s > 0 {
            cps.push(s);
        }
        t = s;
    }
    cps.reverse();
    cps
}

/// One segment of a segmented series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// First sample index (inclusive).
    pub start: usize,
    /// One past the last sample index.
    pub end: usize,
    /// Segment mean.
    pub mean: f64,
}

/// Segments a series with [`pelt_changepoints`] and reports each
/// segment's bounds and mean.
pub fn segment_series(xs: &[f64], params: &WarmupAnalysisParams) -> Vec<Segment> {
    if xs.is_empty() {
        return Vec::new();
    }
    let cps = pelt_changepoints(xs, params);
    let mut bounds = Vec::with_capacity(cps.len() + 2);
    bounds.push(0);
    bounds.extend_from_slice(&cps);
    bounds.push(xs.len());
    bounds
        .windows(2)
        .map(|w| {
            let (a, b) = (w[0], w[1]);
            Segment {
                start: a,
                end: b,
                mean: xs[a..b].iter().sum::<f64>() / (b - a) as f64,
            }
        })
        .collect()
}

/// Verdict for one server timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineClass {
    /// The assigned class.
    pub class: WarmupClass,
    /// Time from restart to steady state (server-local ms); present only
    /// for `Warmup` and `Flat`.
    pub steady_ms: Option<u64>,
    /// RPS segments over the post-serve samples.
    pub rps_segments: Vec<Segment>,
    /// Latency segments over the post-serve samples.
    pub latency_segments: Vec<Segment>,
    /// Sample times (ms) the segments index into.
    pub times_ms: Vec<u64>,
}

impl TimelineClass {
    /// Segment start times (ms) for the RPS series, excluding the first.
    pub fn rps_boundaries_ms(&self) -> Vec<u64> {
        self.rps_segments
            .iter()
            .skip(1)
            .map(|s| self.times_ms[s.start])
            .collect()
    }
}

/// Direction of a step between consecutive segment means, relative to a
/// tolerance scaled by the steady level.
fn direction(from: f64, to: f64, tol_abs: f64) -> i8 {
    if to - from > tol_abs {
        1
    } else if from - to > tol_abs {
        -1
    } else {
        0
    }
}

/// Classifies one server timeline.
///
/// Boot-window samples (`t_ms ≤ serve_start_ms`, all-zero by
/// construction) are dropped first — the restart gap is priced by the
/// *time origin*, not by segmenting zeros. The post-serve RPS series is
/// segmented; the final segment is the steady-state candidate:
///
/// * final segment starting after `duration · steady_latest_frac`, or
///   fewer than `2 · min_segment_len` post-serve samples →
///   [`WarmupClass::NoSteadyState`];
/// * ≥ 2 direction alternations across segment means, or conflicting
///   warmup + slowdown evidence → [`WarmupClass::Cyclic`];
/// * an earlier segment above the final mean (throughput fell), or — when
///   RPS alone is flat — latency rising into its final segment →
///   [`WarmupClass::Slowdown`] (RPS saturates at the offered load, so
///   rising service time shows up in latency first);
/// * an earlier segment below the final mean → [`WarmupClass::Warmup`];
/// * all segments at level: [`WarmupClass::Flat`] if serving began at
///   `t = 0`, else [`WarmupClass::Warmup`] — the restart gap itself was
///   the warmup (a Jump-Start consumer serves at peak immediately, but
///   it did spend its boot window dark).
///
/// `steady_ms` is the time the last-changing series (RPS or latency)
/// entered its final segment; for immediately-steady servers it is the
/// first post-serve sample time.
pub fn classify_timeline(
    tl: &Timeline,
    duration_ms: u64,
    params: &WarmupAnalysisParams,
) -> TimelineClass {
    let serving: Vec<&Sample> = tl
        .samples
        .iter()
        .filter(|s| s.t_ms > tl.serve_start_ms)
        .collect();
    let times_ms: Vec<u64> = serving.iter().map(|s| s.t_ms).collect();
    let rps: Vec<f64> = serving.iter().map(|s| s.rps_norm).collect();
    let latency: Vec<f64> = serving.iter().map(|s| s.latency_ms).collect();
    if rps.len() < 2 * params.min_segment_len.max(1) {
        return TimelineClass {
            class: WarmupClass::NoSteadyState,
            steady_ms: None,
            rps_segments: segment_series(&rps, params),
            latency_segments: segment_series(&latency, params),
            times_ms,
        };
    }
    let rps_segments = segment_series(&rps, params);
    let latency_segments = segment_series(&latency, params);
    let fin = *rps_segments.last().expect("non-empty series");
    let fin_lat = *latency_segments.last().expect("non-empty series");

    // Too late to call anything steady?
    let latest_ms = (duration_ms as f64 * params.steady_latest_frac) as u64;
    let rps_steady_start = times_ms[fin.start];
    let lat_steady_start = times_ms[fin_lat.start];
    if rps_steady_start > latest_ms || lat_steady_start > latest_ms {
        return TimelineClass {
            class: WarmupClass::NoSteadyState,
            steady_ms: None,
            rps_segments,
            latency_segments,
            times_ms,
        };
    }

    // Evidence from RPS segment means, relative to the steady level.
    let tol_abs = params.steady_tol * fin.mean.abs().max(1e-9);
    let mut below = false;
    let mut above = false;
    for seg in &rps_segments[..rps_segments.len() - 1] {
        match direction(seg.mean, fin.mean, tol_abs) {
            1 => below = true,  // rose into steady: warmup evidence
            -1 => above = true, // fell into steady: slowdown evidence
            _ => {}
        }
    }
    let mut alternations = 0u32;
    let mut last_dir = 0i8;
    for w in rps_segments.windows(2) {
        let d = direction(w[0].mean, w[1].mean, tol_abs);
        if d != 0 {
            if last_dir != 0 && d != last_dir {
                alternations += 1;
            }
            last_dir = d;
        }
    }

    // Latency-side slowdown: service time rising into the final latency
    // segment while RPS never dipped (saturated at the offered load).
    let lat_tol_abs = params.steady_tol * fin_lat.mean.abs().max(1e-9);
    let latency_degraded = latency_segments[..latency_segments.len() - 1]
        .iter()
        .any(|seg| direction(seg.mean, fin_lat.mean, lat_tol_abs) == 1);

    let class = if alternations >= 2 || (below && above) {
        WarmupClass::Cyclic
    } else if above || (!below && latency_degraded) {
        WarmupClass::Slowdown
    } else if below {
        WarmupClass::Warmup
    } else if tl.serve_start_ms > 0 {
        // Steady from the first served request after a real boot window:
        // the restart gap was the warmup.
        WarmupClass::Warmup
    } else {
        WarmupClass::Flat
    };
    let steady_ms = match class {
        WarmupClass::Warmup | WarmupClass::Flat => Some(rps_steady_start.max(lat_steady_start)),
        _ => None,
    };
    TimelineClass {
        class,
        steady_ms,
        rps_segments,
        latency_segments,
        times_ms,
    }
}

/// Per-class server counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    counts: [u32; 5],
}

impl ClassCounts {
    /// Increments the count for `class`.
    pub fn add(&mut self, class: WarmupClass) {
        self.counts[class.code() as usize] += 1;
    }

    /// Count for one class.
    pub fn get(&self, class: WarmupClass) -> u32 {
        self.counts[class.code() as usize]
    }

    /// Total servers counted.
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Fraction of servers in `class` (0 when empty).
    pub fn fraction(&self, class: WarmupClass) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(class) as f64 / total as f64
        }
    }
}

/// A percentile with its bootstrap confidence interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CiStat {
    /// The point estimate.
    pub value: f64,
    /// Lower 95% CI bound.
    pub lo: f64,
    /// Upper 95% CI bound.
    pub hi: f64,
}

/// One deployment arm's (Jump-Start or baseline) warmup summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArmSummary {
    /// Servers classified.
    pub servers: u32,
    /// Per-class counts.
    pub counts: ClassCounts,
    /// Servers contributing a time-to-steady-state (Warmup/Flat only).
    pub ttss_n: u32,
    /// Time-to-steady-state p50 with CI (ms).
    pub ttss_p50: CiStat,
    /// Time-to-steady-state p95 with CI (ms).
    pub ttss_p95: CiStat,
    /// Time-to-steady-state p99 with CI (ms).
    pub ttss_p99: CiStat,
    /// The median fleet warmup curve: `(t_ms, median rps_norm across
    /// servers sampled at t_ms)` — the Fig. 1/2 reproduction from the
    /// aggregate.
    pub median_curve: Vec<(u64, f64)>,
}

/// The fleet-wide warmup classification report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WarmupReport {
    /// Analysis parameters the report was computed under.
    pub params: WarmupAnalysisParams,
    /// Jump-Start arm.
    pub js: ArmSummary,
    /// No-Jump-Start (baseline) arm.
    pub nojs: ArmSummary,
}

impl WarmupReport {
    /// Renders as JSON. Field order is fixed, floats go through
    /// [`telemetry::fmt_f64`], so equal reports serialize byte-identically.
    pub fn to_json(&self) -> String {
        fn arm(a: &ArmSummary) -> String {
            let classes: Vec<String> = WarmupClass::all()
                .iter()
                .map(|&c| format!("\"{}\":{}", c.name(), a.counts.get(c)))
                .collect();
            let ci = |s: &CiStat| {
                format!(
                    "{{\"value\":{},\"lo\":{},\"hi\":{}}}",
                    fmt_f64(s.value),
                    fmt_f64(s.lo),
                    fmt_f64(s.hi)
                )
            };
            let curve: Vec<String> = a
                .median_curve
                .iter()
                .map(|&(t, v)| format!("[{},{}]", t, fmt_f64(v)))
                .collect();
            format!(
                "{{\"servers\":{},\"classes\":{{{}}},\"ttss_n\":{},\"ttss_p50\":{},\"ttss_p95\":{},\"ttss_p99\":{},\"median_curve\":[{}]}}",
                a.servers,
                classes.join(","),
                a.ttss_n,
                ci(&a.ttss_p50),
                ci(&a.ttss_p95),
                ci(&a.ttss_p99),
                curve.join(","),
            )
        }
        format!(
            "{{\"penalty_scale\":{},\"min_segment_len\":{},\"steady_tol\":{},\"steady_latest_frac\":{},\"bootstrap_resamples\":{},\"bootstrap_seed\":{},\"js\":{},\"nojs\":{}}}",
            fmt_f64(self.params.penalty_scale),
            self.params.min_segment_len,
            fmt_f64(self.params.steady_tol),
            fmt_f64(self.params.steady_latest_frac),
            self.params.bootstrap_resamples,
            self.params.bootstrap_seed,
            arm(&self.js),
            arm(&self.nojs),
        )
    }

    /// CRC of the canonical JSON — the byte-identity fingerprint ci.sh
    /// gates across runs and shard counts.
    pub fn digest(&self) -> u32 {
        jumpstart::crc32(self.to_json().as_bytes())
    }
}

/// One distinct timeline, stored once however many servers fed it.
struct Entry {
    class: WarmupClass,
    steady_ms: Option<u64>,
    /// `(k, rps_norm)` of every sample at `t = (k+1) · sample_ms`, by `k`.
    /// Server-local sample times all land on multiples of `sample_ms` (a
    /// server's clock starts at its own restart), so bucketing by index is
    /// exact, not approximate.
    curve: Box<[(u64, f64)]>,
    /// Servers that fed this timeline, per arm: `[js, nojs]`.
    servers: [u32; 2],
}

/// Streams per-server timelines into a [`WarmupReport`].
///
/// Each deployment cell's fan-out job owns one: every server's full
/// timeline goes through [`WarmupAccumulator::add`] right after it is
/// simulated, which classifies it and counts it against its distinct
/// timeline without retaining it — memory grows with distinct timelines,
/// not servers. The orchestrator folds the cells' accumulators together
/// with [`WarmupAccumulator::merge`]. The report depends only on the multiset
/// of timelines fed in, never on feed or merge order
/// ([`WarmupAccumulator::finish`] sorts every series it reads), so it is
/// shard-count-invariant.
///
/// Timelines are deduplicated through an exact memo (see the module
/// docs). The key is the `serve_start_ms > 0` flag, then the count and
/// `(t_ms, rps_norm bits)` of the boot-window samples the fleet curve
/// reads (on the `sample_ms` grid, at or before `serve_start_ms`), then
/// `(t_ms, rps_norm bits, latency_ms bits)` of every sample after
/// `serve_start_ms` — everything [`classify_timeline`] and the curve read
/// beyond the accumulator's fixed duration and parameters. A lookup
/// compares whole keys, never a bare hash. A miss classifies the timeline
/// and stores its verdict and curve points as a new entry; a hit only
/// counts one more server of its arm. The lookup map grows by one key per
/// entry; the entries live until [`WarmupAccumulator::finish`].
pub struct WarmupAccumulator {
    params: WarmupAnalysisParams,
    sample_ms: u64,
    duration_ms: u64,
    entries: Vec<Entry>,
    /// Key → index into `entries`.
    memo: HashMap<Vec<u64>, usize>,
    /// The key of the timeline being added, reused so a memo hit
    /// allocates nothing.
    key: Vec<u64>,
}

impl WarmupAccumulator {
    /// Creates an accumulator for timelines sampled every `sample_ms`
    /// over `duration_ms`.
    pub fn new(params: WarmupAnalysisParams, sample_ms: u64, duration_ms: u64) -> Self {
        Self {
            params,
            sample_ms: sample_ms.max(1),
            duration_ms,
            entries: Vec::new(),
            memo: HashMap::new(),
            key: Vec::new(),
        }
    }

    /// Classifies one timeline, folds it into its arm, and returns its
    /// class and time-to-steady-state — exactly `classify_timeline`'s
    /// `class` and `steady_ms`, from the memo when an identical timeline
    /// was added before.
    pub fn add(&mut self, tl: &Timeline, jumpstart: bool) -> (WarmupClass, Option<u64>) {
        let entry = self.add_entry(tl, jumpstart);
        self.verdict(entry)
    }

    /// [`WarmupAccumulator::add`], returning the entry `tl` counted
    /// against: [`WarmupAccumulator::count`] counts a later server whose
    /// timeline is known to equal `tl` against it.
    pub(crate) fn add_entry(&mut self, tl: &Timeline, jumpstart: bool) -> usize {
        let sample_ms = self.sample_ms;
        let on_grid = |s: &&Sample| s.t_ms != 0 && s.t_ms.is_multiple_of(sample_ms);
        let boot = tl
            .samples
            .iter()
            .filter(|s| s.t_ms <= tl.serve_start_ms)
            .filter(on_grid);
        self.key.clear();
        self.key.push((tl.serve_start_ms > 0) as u64);
        self.key.push(boot.clone().count() as u64);
        for s in boot {
            self.key.extend([s.t_ms, s.rps_norm.to_bits()]);
        }
        for s in tl.samples.iter().filter(|s| s.t_ms > tl.serve_start_ms) {
            self.key
                .extend([s.t_ms, s.rps_norm.to_bits(), s.latency_ms.to_bits()]);
        }
        let entry = match self.memo.get(self.key.as_slice()) {
            Some(&entry) => entry,
            None => {
                let v = classify_timeline(tl, self.duration_ms, &self.params);
                let mut curve: Vec<(u64, f64)> = tl
                    .samples
                    .iter()
                    .filter(on_grid)
                    .map(|s| (s.t_ms / sample_ms - 1, s.rps_norm))
                    .collect();
                // Stable: points of one `k` keep their sample order.
                curve.sort_by_key(|&(k, _)| k);
                self.entries.push(Entry {
                    class: v.class,
                    steady_ms: v.steady_ms,
                    curve: curve.into(),
                    servers: [0; 2],
                });
                self.memo.insert(self.key.clone(), self.entries.len() - 1);
                self.entries.len() - 1
            }
        };
        self.entries[entry].servers[usize::from(!jumpstart)] += 1;
        entry
    }

    /// Counts one more server of its arm against `entry`, returned by
    /// [`WarmupAccumulator::add_entry`] for an identical timeline: exactly
    /// what adding that timeline again would do, with no key built.
    pub(crate) fn count(&mut self, entry: usize, jumpstart: bool) -> (WarmupClass, Option<u64>) {
        self.entries[entry].servers[usize::from(!jumpstart)] += 1;
        self.verdict(entry)
    }

    /// The class and time-to-steady-state of `entry`.
    pub(crate) fn verdict(&self, entry: usize) -> (WarmupClass, Option<u64>) {
        let entry = &self.entries[entry];
        (entry.class, entry.steady_ms)
    }

    /// Timelines the classifier actually ran on (memo misses) — the
    /// number of stored entries — summed over merged accumulators. Unlike
    /// the report, this depends on how the timelines were dealt over
    /// accumulators.
    pub fn classified(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Folds in everything `other` was fed. Both must have been created
    /// with the same parameters. `other`'s memo is dropped.
    pub fn merge(&mut self, other: WarmupAccumulator) {
        self.entries.extend(other.entries);
    }

    /// Finalizes both arms into the fleet report, one after the other (a
    /// deployment summarizes its two arms side by side instead).
    pub fn finish(self) -> WarmupReport {
        WarmupReport {
            params: self.params,
            js: self.summarize(true),
            nojs: self.summarize(false),
        }
    }

    /// Summarizes one arm: the Jump-Start consumers, or the baselines.
    /// Every statistic reads `(value, servers)` runs — one per entry — so
    /// percentiles and bootstrap CIs equal those of the per-server values
    /// bit for bit. The arms share nothing, the bootstrap seed included,
    /// so they may be summarized in either order or at once.
    pub(crate) fn summarize(&self, jumpstart: bool) -> ArmSummary {
        let params = self.params;
        let sample_ms = self.sample_ms;
        let arm = usize::from(!jumpstart);
        let mut counts = ClassCounts::default();
        let mut ttss: Vec<(f64, u64)> = Vec::new();
        let mut ttss_n = 0;
        // Each member entry's curve points not yet read, and its servers.
        let mut members: Vec<(&[(u64, f64)], u64)> = Vec::new();
        for entry in &self.entries {
            let servers = entry.servers[arm];
            if servers == 0 {
                continue;
            }
            counts.counts[entry.class.code() as usize] += servers;
            if let Some(steady) = entry.steady_ms {
                ttss.push((steady as f64, u64::from(servers)));
                ttss_n += servers;
            }
            members.push((&entry.curve, u64::from(servers)));
        }
        ttss.sort_by(|a, b| a.0.total_cmp(&b.0));
        const QS: [f64; 3] = [0.50, 0.95, 0.99];
        let cis = bootstrap_percentile_ci(
            &ttss,
            &QS,
            params.bootstrap_resamples,
            params.bootstrap_seed,
        );
        let stat = |i: usize| CiStat {
            value: quantile_runs(&ttss, QS[i]),
            lo: cis[i].0,
            hi: cis[i].1,
        };
        // The curve a column at a time, in ascending `k`: every entry's
        // points are sorted by `k`, so each member's slice is its cursor,
        // and only the column of `(rps_norm, servers)` at `t = (k+1) ·
        // sample_ms` is alive — pushed in entry order, as one vector per
        // column would be.
        let mut median_curve: Vec<(u64, f64)> = Vec::new();
        let mut column: Vec<(f64, u64)> = Vec::new();
        while let Some(k) = members
            .iter()
            .filter_map(|(c, _)| c.first())
            .map(|p| p.0)
            .min()
        {
            column.clear();
            for (points, servers) in &mut members {
                while let Some((&(_, rps), rest)) = points.split_first().filter(|(p, _)| p.0 == k) {
                    column.push((rps, *servers));
                    *points = rest;
                }
            }
            column.sort_by(|a, b| a.0.total_cmp(&b.0));
            median_curve.push(((k + 1) * sample_ms, quantile_runs(&column, 0.5)));
        }
        ArmSummary {
            servers: counts.total(),
            counts,
            ttss_n,
            ttss_p50: stat(0),
            ttss_p95: stat(1),
            ttss_p99: stat(2),
            median_curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(segments: &[(usize, f64)]) -> Vec<f64> {
        let mut xs = Vec::new();
        for &(len, level) in segments {
            xs.extend(std::iter::repeat_n(level, len));
        }
        xs
    }

    fn tl(serve_start_ms: u64, rps: &[f64]) -> Timeline {
        tl_lat(serve_start_ms, rps, &vec![2.0; rps.len()])
    }

    fn tl_lat(serve_start_ms: u64, rps: &[f64], lat: &[f64]) -> Timeline {
        // Boot-window zeros at every sample boundary up to serve start,
        // then the post-serve series — the shape `run_server` produces.
        let mut samples: Vec<Sample> = Vec::new();
        let mut t = 1000;
        while t <= serve_start_ms {
            samples.push(Sample {
                t_ms: t,
                rps_norm: 0.0,
                latency_ms: 0.0,
                code_bytes: 0,
            });
            t += 1000;
        }
        for (i, (&r, &l)) in rps.iter().zip(lat).enumerate() {
            samples.push(Sample {
                t_ms: t + i as u64 * 1000,
                rps_norm: r,
                latency_ms: l,
                code_bytes: 0,
            });
        }
        Timeline {
            samples,
            serve_start_ms,
            ..Default::default()
        }
    }

    #[test]
    fn zero_noise_jump_is_found_exactly() {
        let xs = series(&[(20, 0.2), (30, 1.0)]);
        let p = WarmupAnalysisParams::default();
        assert_eq!(pelt_changepoints(&xs, &p), vec![20]);
        assert_eq!(pelt_changepoints_reference(&xs, &p), vec![20]);
    }

    #[test]
    fn constant_series_never_splits() {
        let xs = vec![0.7; 50];
        let p = WarmupAnalysisParams::default();
        assert!(pelt_changepoints(&xs, &p).is_empty());
        let segs = segment_series(&xs, &p);
        assert_eq!(segs.len(), 1);
        assert!((segs[0].mean - 0.7).abs() < 1e-12);
    }

    #[test]
    fn three_level_staircase_recovers_both_boundaries() {
        let xs = series(&[(15, 0.1), (15, 0.5), (20, 1.0)]);
        let p = WarmupAnalysisParams::default();
        assert_eq!(pelt_changepoints(&xs, &p), vec![15, 30]);
    }

    #[test]
    fn pruned_matches_reference_on_noisy_series() {
        // Deterministic pseudo-noise via a fixed LCG so the test needs no
        // rand dependency here.
        let mut state = 12345u64;
        let mut noise = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.02
        };
        let mut xs = series(&[(25, 0.3), (25, 0.9), (25, 0.6)]);
        for x in &mut xs {
            *x += noise();
        }
        let p = WarmupAnalysisParams::default();
        assert_eq!(
            pelt_changepoints(&xs, &p),
            pelt_changepoints_reference(&xs, &p)
        );
    }

    #[test]
    fn min_segment_len_is_respected() {
        let xs = series(&[(2, 0.0), (48, 1.0)]);
        let p = WarmupAnalysisParams {
            min_segment_len: 5,
            ..WarmupAnalysisParams::default()
        };
        for w in segment_series(&xs, &p).windows(1) {
            assert!(w[0].end - w[0].start >= 5);
        }
    }

    #[test]
    fn short_series_yields_no_changepoints() {
        let p = WarmupAnalysisParams::default();
        assert!(pelt_changepoints(&[1.0, 2.0], &p).is_empty());
        assert!(pelt_changepoints(&[], &p).is_empty());
        assert!(segment_series(&[], &p).is_empty());
    }

    #[test]
    fn classic_warmup_ramp_classifies_warmup() {
        let rps = series(&[(10, 0.3), (10, 0.7), (40, 1.0)]);
        let t = tl(20_000, &rps);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.class, WarmupClass::Warmup);
        let steady = v.steady_ms.expect("warmup has a steady time");
        // Steady begins when the final segment starts: 20 ramp samples
        // after serve start.
        assert_eq!(steady, 20_000 + 1000 + 20 * 1000);
        assert_eq!(v.rps_segments.len(), 3);
    }

    #[test]
    fn immediate_peak_after_boot_gap_is_warmup_not_flat() {
        // A Jump-Start consumer: dark boot window, then ~peak at once.
        let rps = vec![1.0; 40];
        let t = tl(30_000, &rps);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.class, WarmupClass::Warmup);
        assert_eq!(v.steady_ms, Some(31_000));
    }

    #[test]
    fn no_boot_gap_constant_series_is_flat() {
        let rps = vec![1.0; 40];
        let t = tl(0, &rps);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.class, WarmupClass::Flat);
        assert_eq!(v.steady_ms, Some(1000));
    }

    #[test]
    fn throughput_decline_classifies_slowdown() {
        let rps = series(&[(20, 1.0), (20, 0.6)]);
        let t = tl(10_000, &rps);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.class, WarmupClass::Slowdown);
        assert_eq!(v.steady_ms, None);
    }

    #[test]
    fn latency_degradation_with_flat_rps_classifies_slowdown() {
        // RPS saturated at the offered load while service time doubles:
        // the latency series carries the slowdown.
        let rps = vec![1.0; 40];
        let lat: Vec<f64> = series(&[(20, 2.0), (20, 5.0)]);
        let t = tl_lat(10_000, &rps, &lat);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.class, WarmupClass::Slowdown);
    }

    #[test]
    fn oscillation_classifies_cyclic() {
        let rps = series(&[
            (10, 0.4),
            (10, 1.0),
            (10, 0.4),
            (10, 1.0),
            (10, 0.4),
            (10, 1.0),
        ]);
        let t = tl(0, &rps);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.class, WarmupClass::Cyclic);
        assert_eq!(v.steady_ms, None);
    }

    #[test]
    fn late_final_segment_classifies_no_steady_state() {
        // Still climbing at 80% of the duration.
        let rps = series(&[(90, 0.3), (10, 1.0)]);
        let t = tl(0, &rps);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.class, WarmupClass::NoSteadyState);
        assert_eq!(v.steady_ms, None);
    }

    #[test]
    fn too_few_samples_classifies_no_steady_state() {
        let rps = vec![1.0; 3];
        let t = tl(95_000, &rps);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.class, WarmupClass::NoSteadyState);
    }

    #[test]
    fn boundaries_report_in_ms() {
        let rps = series(&[(10, 0.2), (30, 1.0)]);
        let t = tl(5_000, &rps);
        let v = classify_timeline(&t, 100_000, &WarmupAnalysisParams::default());
        assert_eq!(v.rps_boundaries_ms(), vec![5_000 + 1000 + 10 * 1000]);
    }

    #[test]
    fn accumulator_builds_reproducible_report() {
        let mut acc = WarmupAccumulator::new(WarmupAnalysisParams::default(), 1000, 100_000);
        let mut acc2 = WarmupAccumulator::new(WarmupAnalysisParams::default(), 1000, 100_000);
        for i in 0..8u64 {
            let rps = series(&[(10 + i as usize, 0.3), (40, 1.0)]);
            let t = tl(10_000 + i * 1000, &rps);
            acc.add(&t, true);
            acc2.add(&t, true);
            let base = series(&[(20, 0.2), (20, 0.8), (40, 1.0)]);
            let bt = tl(20_000, &base);
            acc.add(&bt, false);
            acc2.add(&bt, false);
        }
        let report = acc.finish();
        let report2 = acc2.finish();
        assert_eq!(report.js.counts.get(WarmupClass::Warmup), 8);
        assert_eq!(report.nojs.counts.get(WarmupClass::Warmup), 8);
        assert_eq!(report.js.servers, 8);
        assert_eq!(report.js.ttss_n, 8);
        // js settles long before the baseline.
        assert!(report.js.ttss_p50.value < report.nojs.ttss_p50.value);
        assert!(report.js.ttss_p50.lo <= report.js.ttss_p50.value);
        assert!(report.js.ttss_p50.value <= report.js.ttss_p50.hi);
        // Median curve exists and ends at peak.
        assert!(!report.js.median_curve.is_empty());
        assert!((report.js.median_curve.last().unwrap().1 - 1.0).abs() < 1e-9);
        // Byte-identical across identical accumulations.
        assert_eq!(report.to_json(), report2.to_json());
        assert_eq!(report.digest(), report2.digest());
        telemetry::json::parse(&report.to_json()).expect("report JSON parses");
    }

    #[test]
    fn class_counts_and_fractions() {
        let mut c = ClassCounts::default();
        c.add(WarmupClass::Warmup);
        c.add(WarmupClass::Warmup);
        c.add(WarmupClass::Slowdown);
        assert_eq!(c.total(), 3);
        assert_eq!(c.get(WarmupClass::Warmup), 2);
        assert!((c.fraction(WarmupClass::Warmup) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ClassCounts::default().fraction(WarmupClass::Flat), 0.0);
    }
}
