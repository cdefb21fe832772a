//! The warmup fold stores each distinct timeline once and reads every
//! statistic from `(value, servers)` runs. Its oracle is the per-server
//! fold it replaced: every server's time-to-steady-state and every one of
//! its curve samples kept as its own value, sorted, and read with
//! `quantile_sorted` — the report must come out byte-identical however
//! the timelines repeat or are dealt over accumulators, one per run of a
//! cell as the deployment's fan-out jobs deal them. A counting allocator pins the point of the change: a
//! repeated timeline retains nothing per copy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fleet::{
    classify_timeline, ArmSummary, CiStat, ClassCounts, Sample, Timeline, WarmupAccumulator,
    WarmupAnalysisParams, WarmupReport,
};
use telemetry::{bootstrap_percentile_ci, quantile_sorted};

const SAMPLE_MS: u64 = 5_000;
const DURATION_MS: u64 = 300_000;

/// The per-server fold: one value per server per statistic.
struct ReferenceFold {
    params: WarmupAnalysisParams,
    /// `[js, nojs]`: class counts, time-to-steady-state values, and
    /// `curve[k]` = every server's `rps_norm` at `t = (k+1) · SAMPLE_MS`.
    arms: [(ClassCounts, Vec<f64>, Vec<Vec<f64>>); 2],
}

impl ReferenceFold {
    fn new(params: WarmupAnalysisParams) -> Self {
        Self {
            params,
            arms: Default::default(),
        }
    }

    fn add(&mut self, tl: &Timeline, jumpstart: bool) {
        let v = classify_timeline(tl, DURATION_MS, &self.params);
        let (counts, ttss, curve) = &mut self.arms[usize::from(!jumpstart)];
        counts.add(v.class);
        if let Some(steady) = v.steady_ms {
            ttss.push(steady as f64);
        }
        for s in &tl.samples {
            if s.t_ms == 0 || !s.t_ms.is_multiple_of(SAMPLE_MS) {
                continue;
            }
            let k = (s.t_ms / SAMPLE_MS - 1) as usize;
            if curve.len() <= k {
                curve.resize_with(k + 1, Vec::new);
            }
            curve[k].push(s.rps_norm);
        }
    }

    fn finish(self) -> WarmupReport {
        let params = self.params;
        let summarize = |(counts, mut ttss, mut curve): (ClassCounts, Vec<f64>, Vec<Vec<f64>>)| {
            ttss.sort_by(|a, b| a.total_cmp(b));
            const QS: [f64; 3] = [0.50, 0.95, 0.99];
            let singles: Vec<(f64, u64)> = ttss.iter().map(|&v| (v, 1)).collect();
            let cis = bootstrap_percentile_ci(
                &singles,
                &QS,
                params.bootstrap_resamples,
                params.bootstrap_seed,
            );
            let stat = |i: usize| CiStat {
                value: quantile_sorted(&ttss, QS[i]),
                lo: cis[i].0,
                hi: cis[i].1,
            };
            let median_curve = curve
                .iter_mut()
                .enumerate()
                .filter(|(_, vs)| !vs.is_empty())
                .map(|(k, vs)| {
                    vs.sort_by(|a, b| a.total_cmp(b));
                    ((k as u64 + 1) * SAMPLE_MS, quantile_sorted(vs, 0.5))
                })
                .collect();
            ArmSummary {
                servers: counts.total(),
                counts,
                ttss_n: ttss.len() as u32,
                ttss_p50: stat(0),
                ttss_p95: stat(1),
                ttss_p99: stat(2),
                median_curve,
            }
        };
        let [js, nojs] = self.arms;
        WarmupReport {
            params,
            js: summarize(js),
            nojs: summarize(nojs),
        }
    }
}

/// The report's JSON plus the bits of every float in it, which the JSON
/// writer rounds away for signed zeros and non-finite values.
fn fingerprint(report: &WarmupReport) -> (String, Vec<u64>) {
    let mut floats = Vec::new();
    for arm in [&report.js, &report.nojs] {
        for ci in [arm.ttss_p50, arm.ttss_p95, arm.ttss_p99] {
            floats.extend([ci.value.to_bits(), ci.lo.to_bits(), ci.hi.to_bits()]);
        }
        for &(t, v) in &arm.median_curve {
            floats.extend([t, v.to_bits()]);
        }
    }
    (report.to_json(), floats)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Boot-window samples `boot` on the grid up to `serve_start_ms`, then
/// `rps` one per grid step from the first grid point after it.
fn timeline(serve_start_ms: u64, boot: f64, rps: &[f64], latency_ms: f64) -> Timeline {
    let first = (serve_start_ms / SAMPLE_MS + 1) * SAMPLE_MS;
    let boot = (SAMPLE_MS..=serve_start_ms)
        .step_by(SAMPLE_MS as usize)
        .map(|t_ms| Sample {
            t_ms,
            rps_norm: boot,
            latency_ms: 0.0,
            code_bytes: 0,
        });
    let served = rps.iter().enumerate().map(|(i, &rps_norm)| Sample {
        t_ms: first + i as u64 * SAMPLE_MS,
        rps_norm,
        latency_ms,
        code_bytes: 0,
    });
    Timeline {
        samples: boot.chain(served).collect(),
        serve_start_ms,
        ..Default::default()
    }
}

/// A random timeline from a small space, so random multisets repeat.
fn random_timeline(state: &mut u64) -> Timeline {
    let mut pick = |n: u64| splitmix64(state) % n;
    let serve_start_ms = [0, 4_000, 12_000, 20_000, 23_000][pick(5) as usize];
    let len = ((DURATION_MS - serve_start_ms) / SAMPLE_MS) as usize;
    let ramp = 2 + pick(30) as usize;
    let levels = [0.3, 0.6, 0.95, 1.0, 0.0, -0.0];
    let (low, high) = (levels[pick(6) as usize], levels[pick(4) as usize + 1]);
    let rps: Vec<f64> = (0..len)
        .map(|i| if i < ramp { low } else { high })
        .collect();
    timeline(serve_start_ms, 0.0, &rps, [2.0, 3.0][pick(2) as usize])
}

/// `tl` or one of three variants the classifier cannot tell from it but
/// the fleet curve can — or, with an extra sample, both can.
fn variant(tl: &Timeline, which: u64) -> Timeline {
    let mut tl = tl.clone();
    let serve_start_ms = tl.serve_start_ms;
    match which {
        // A boot window the curve reads as something other than zeros.
        0 => {
            for s in tl.samples.iter_mut().filter(|s| s.t_ms <= serve_start_ms) {
                s.rps_norm = 0.25;
            }
        }
        // No boot-window samples at all.
        1 => tl.samples.retain(|s| s.t_ms > serve_start_ms),
        // A sample off the grid: classified, never on the curve.
        2 => tl.samples.push(Sample {
            t_ms: DURATION_MS + 2_500,
            rps_norm: 0.5,
            latency_ms: 2.0,
            code_bytes: 0,
        }),
        _ => {}
    }
    tl
}

/// Feeds `servers` (in order; `cell` starts a new cell on change) to `n`
/// lanes — server `i` to lane `i % n` — where each run of one cell in a
/// lane gets a fresh accumulator, as each cell's fan-out job does, and
/// merges them all in order.
fn fold(servers: &[(usize, Timeline, bool)], n: usize) -> WarmupReport {
    let new_acc =
        || WarmupAccumulator::new(WarmupAnalysisParams::default(), SAMPLE_MS, DURATION_MS);
    let mut parts: Vec<WarmupAccumulator> = Vec::new();
    // Per lane: its current cell and that run's index in `parts`.
    let mut lanes: Vec<Option<(usize, usize)>> = vec![None; n];
    for (i, (cell, tl, jumpstart)) in servers.iter().enumerate() {
        let lane = &mut lanes[i % n];
        let part = match *lane {
            Some((last, part)) if last == *cell => part,
            _ => {
                parts.push(new_acc());
                *lane = Some((*cell, parts.len() - 1));
                parts.len() - 1
            }
        };
        parts[part].add(tl, *jumpstart);
    }
    let mut all = new_acc();
    for part in parts {
        all.merge(part);
    }
    all.finish()
}

fn reference(servers: &[(usize, Timeline, bool)]) -> WarmupReport {
    let mut oracle = ReferenceFold::new(WarmupAnalysisParams::default());
    for (_, tl, jumpstart) in servers {
        oracle.add(tl, *jumpstart);
    }
    oracle.finish()
}

fn assert_folds_match_reference(name: &str, servers: &[(usize, Timeline, bool)]) {
    let want = fingerprint(&reference(servers));
    for n in 1..=3 {
        assert_eq!(
            fingerprint(&fold(servers, n)),
            want,
            "{name}, {n} accumulators"
        );
    }
}

#[test]
fn equal_classifier_inputs_with_different_curves_stay_apart() {
    // Same serve-start flag and post-serve samples — the classifier sees
    // one timeline — but the boot windows the curve reads differ.
    let rps: Vec<f64> = (0..55).map(|i| if i < 8 { 0.5 } else { 1.0 }).collect();
    let zeros = timeline(20_000, 0.0, &rps, 2.0);
    let quarter = timeline(20_000, 0.25, &rps, 2.0);
    let mut bare = zeros.clone();
    bare.samples.retain(|s| s.t_ms > 20_000);
    let params = WarmupAnalysisParams::default();
    assert_eq!(
        classify_timeline(&zeros, DURATION_MS, &params),
        classify_timeline(&quarter, DURATION_MS, &params)
    );
    let mut servers = Vec::new();
    for (copies, tl) in [(3, &zeros), (5, &quarter), (4, &bare)] {
        servers.extend((0..copies).map(|_| (0, tl.clone(), true)));
    }
    let report = reference(&servers);
    // 5 of the 8 curve values at t = 5 s are 0.25: the median reads them.
    assert_eq!(report.js.median_curve[0], (SAMPLE_MS, 0.25));
    assert_folds_match_reference("boot windows", &servers);
}

#[test]
fn fold_matches_the_per_server_reference() {
    let mut state = 0xf01d;
    for round in 0..12 {
        // A few distinct timelines per cell, each repeated, some of them
        // variants only the curve tells apart.
        let mut servers = Vec::new();
        let cells = 1 + splitmix64(&mut state) % 3;
        for cell in 0..cells as usize {
            let mut kinds: Vec<Timeline> = Vec::new();
            for _ in 0..1 + splitmix64(&mut state) % 3 {
                let base = random_timeline(&mut state);
                for _ in 0..1 + splitmix64(&mut state) % 3 {
                    kinds.push(variant(&base, splitmix64(&mut state) % 5));
                }
            }
            for _ in 0..splitmix64(&mut state) % 40 {
                let tl = &kinds[(splitmix64(&mut state) % kinds.len() as u64) as usize];
                let jumpstart = !splitmix64(&mut state).is_multiple_of(3);
                servers.push((cell, tl.clone(), jumpstart));
            }
        }
        assert_folds_match_reference(&format!("round {round}"), &servers);
    }
}

thread_local! {
    /// Bytes this thread holds from the allocator (allocations minus
    /// frees), so tests on other threads do not disturb the count.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counting only touches a
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller's guarantees for `alloc`, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`; `new_size` is the caller's, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn repeated_timelines_retain_nothing_per_copy() {
    let rps: Vec<f64> = (0..56).map(|i| if i < 6 { 0.4 } else { 1.0 }).collect();
    let tl = timeline(18_000, 0.0, &rps, 2.0);
    let retained = |copies: u32| {
        let before = LIVE.with(Cell::get);
        let mut acc =
            WarmupAccumulator::new(WarmupAnalysisParams::default(), SAMPLE_MS, DURATION_MS);
        for i in 0..copies {
            acc.add(&tl, i % 2 == 0);
        }
        let held = LIVE.with(Cell::get) - before;
        drop(acc);
        held
    };
    let (few, many) = (retained(10), retained(10_000));
    assert!(few > 0, "the one distinct timeline is stored");
    assert!(
        many <= few,
        "10 000 copies retain {many} B, 10 copies {few} B"
    );
}
