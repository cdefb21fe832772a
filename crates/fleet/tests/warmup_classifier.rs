//! The changepoint detector's correctness contract, as properties:
//!
//! 1. **Recovery.** On piecewise-constant series with well-separated
//!    levels and bounded noise, PELT must recover the true segment
//!    boundaries — every planted boundary found within a small index
//!    tolerance, and nothing spurious invented.
//! 2. **Exactness at zero noise.** A noiseless piecewise-constant series
//!    is segmented *exactly*: the changepoint set equals the planted one.
//! 3. **Determinism.** Segmentation is a pure function of its inputs —
//!    identical output across calls — and the pruned solver matches the
//!    unpruned reference on every input, planted or arbitrary. The
//!    pruning is a performance trick, never a behavior change.
//! 4. **Fold invariance.** A [`WarmupAccumulator`]'s report depends only
//!    on which timelines were fed, not on how they were dealt over
//!    accumulators or in which order those were merged — what lets every
//!    deployment shard own one.
//! 5. **Exact memo.** An accumulator classifies a repeated timeline once;
//!    every answer, hit or miss, is exactly [`classify_timeline`]'s.

use fleet::{
    classify_timeline, pelt_changepoints, pelt_changepoints_reference, segment_series, Sample,
    Timeline, WarmupAccumulator, WarmupAnalysisParams, WarmupClass,
};
use proptest::prelude::*;

/// A planted piecewise-constant series: alternating low/high levels so
/// consecutive segments are always separated by at least 0.6.
#[derive(Clone, Debug)]
struct Planted {
    xs: Vec<f64>,
    boundaries: Vec<usize>,
}

fn plant(lens: &[usize], lo: f64, hi: f64, noise: &[f64]) -> Planted {
    let mut xs = Vec::new();
    let mut boundaries = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        if i > 0 {
            boundaries.push(xs.len());
        }
        let level = if i % 2 == 0 { lo } else { hi };
        for _ in 0..len {
            let eps = noise.get(xs.len()).copied().unwrap_or(0.0);
            xs.push(level + eps);
        }
    }
    Planted { xs, boundaries }
}

fn arb_planted(noise_amp: f64) -> impl Strategy<Value = Planted> {
    (
        prop::collection::vec(8usize..=20, 2..=4),
        0.0..0.2f64,
        0.8..1.0f64,
    )
        .prop_flat_map(move |(lens, lo, hi)| {
            let total: usize = lens.iter().sum();
            // Unit noise scaled by the amplitude, so amp 0.0 still has a
            // nonempty strategy (float ranges must be half-open).
            prop::collection::vec(-1.0..1.0f64, total).prop_map(move |unit| {
                let noise: Vec<f64> = unit.iter().map(|e| e * noise_amp).collect();
                plant(&lens, lo, hi, &noise)
            })
        })
}

/// Every element of `a` is within `tol` of some element of `b`.
fn within(a: &[usize], b: &[usize], tol: usize) -> bool {
    a.iter().all(|&x| b.iter().any(|&y| x.abs_diff(y) <= tol))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn noisy_boundaries_recovered_within_tolerance(p in arb_planted(0.04)) {
        // Uniform test noise is heavier-tailed per-sample than the
        // robust (MAD-based, Gaussian-calibrated) σ estimate assumes, so
        // on these deliberately short segments the default penalty sits
        // near the split margin. A stiffer penalty removes the
        // borderline splits without touching detection: a planted 0.6
        // jump pays ~100x this penalty.
        let params = WarmupAnalysisParams::default().with_penalty_scale(8.0);
        let cps = pelt_changepoints(&p.xs, &params);
        // Every planted boundary is found, and every detection is real:
        // the recovered and planted sets match within two samples.
        prop_assert!(
            within(&p.boundaries, &cps, 2),
            "missed a planted boundary: planted {:?}, got {:?}",
            p.boundaries,
            cps
        );
        prop_assert!(
            within(&cps, &p.boundaries, 2),
            "spurious changepoint: planted {:?}, got {:?}",
            p.boundaries,
            cps
        );
    }

    #[test]
    fn zero_noise_is_segmented_exactly(p in arb_planted(0.0)) {
        let params = WarmupAnalysisParams::default();
        prop_assert_eq!(&pelt_changepoints(&p.xs, &params), &p.boundaries);
        // And the segment means are exactly the planted levels.
        for (i, seg) in segment_series(&p.xs, &params).iter().enumerate() {
            prop_assert!((seg.mean - p.xs[seg.start]).abs() < 1e-12, "segment {i} mean");
        }
    }

    #[test]
    fn segmentation_is_deterministic_and_pruning_is_lossless(p in arb_planted(0.04)) {
        let params = WarmupAnalysisParams::default();
        let a = pelt_changepoints(&p.xs, &params);
        let b = pelt_changepoints(&p.xs, &params);
        prop_assert_eq!(&a, &b, "two calls on identical input diverged");
        prop_assert_eq!(&a, &pelt_changepoints_reference(&p.xs, &params), "pruned vs reference");
    }

    #[test]
    fn pruning_matches_reference_on_arbitrary_series(
        xs in prop::collection::vec(0.0..10.0f64, 0..=60)
    ) {
        let params = WarmupAnalysisParams::default();
        prop_assert_eq!(
            pelt_changepoints(&xs, &params),
            pelt_changepoints_reference(&xs, &params)
        );
    }

    #[test]
    fn pruning_matches_reference_on_ramps_into_long_constant_tails(
        (ramp, tail, level, noise) in (
            prop::collection::vec(0.0..1.0f64, 0..=12),
            40usize..=160,
            0.0..1.0f64,
            prop::collection::vec(-0.02..0.02f64, 0..=4),
        )
    ) {
        // A serving server's series: a short ramp, then a tail of
        // bit-identical samples, every candidate in the tail tying with
        // its neighbours; the noise, when drawn, perturbs the first samples.
        let mut xs = ramp;
        xs.extend(std::iter::repeat_n(level, tail));
        for (x, n) in xs.iter_mut().zip(&noise) {
            *x += n;
        }
        let params = WarmupAnalysisParams::default();
        prop_assert_eq!(
            pelt_changepoints(&xs, &params),
            pelt_changepoints_reference(&xs, &params)
        );
    }

    #[test]
    fn pruning_breaks_exact_ties_as_the_reference_does(
        (n, m, steps) in (5usize..=24, 1u32..=8, 1usize..=3)
    ) {
        // Integer levels `0, 2m, 4m, …`, `n` samples each, with the exact
        // midpoint `m, 3m, …` between two levels: the midpoint costs the
        // same in either neighbouring segment, so two partitions tie and
        // only the strict, ascending argmin picks between them.
        let mut xs = Vec::new();
        for step in 0..=steps {
            let level = f64::from(2 * m) * step as f64;
            if step > 0 {
                xs.push(level - f64::from(m));
            }
            xs.extend(std::iter::repeat_n(level, n));
        }
        let params = WarmupAnalysisParams::default();
        prop_assert_eq!(
            pelt_changepoints(&xs, &params),
            pelt_changepoints_reference(&xs, &params)
        );
    }

    #[test]
    fn classification_is_deterministic(p in arb_planted(0.04)) {
        // A rising piecewise series read as a timeline classifies the
        // same way on every call, including bootstrap-dependent fields.
        let tl = planted_timeline(&p);
        let duration = tl.samples.last().map_or(0, |s| s.t_ms);
        let params = WarmupAnalysisParams::default();
        let a = classify_timeline(&tl, duration, &params);
        let b = classify_timeline(&tl, duration, &params);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn merged_accumulators_report_identically(
        // Each server: its series, its arm, and the accumulator it is dealt to.
        servers in prop::collection::vec((arb_planted(0.04), any::<bool>(), 0usize..4), 0..=12),
        // One accumulator per key; sorting by key gives the merge order.
        merge_keys in prop::collection::vec(any::<u64>(), 1..=4),
    ) {
        // 400 s at one sample per 5 s covers the longest planted series
        // (4 × 20 samples).
        let new_acc = || WarmupAccumulator::new(WarmupAnalysisParams::default(), 5_000, 400_000);
        let mut whole = new_acc();
        let mut dealt: Vec<(u64, WarmupAccumulator)> =
            merge_keys.iter().map(|&key| (key, new_acc())).collect();
        for (p, jumpstart, part) in &servers {
            let tl = planted_timeline(p);
            whole.add(&tl, *jumpstart);
            dealt[part % merge_keys.len()].1.add(&tl, *jumpstart);
        }
        // Folding from an empty accumulator (and over whichever parts
        // were dealt nothing) also shows empty is `merge`'s identity.
        dealt.sort_by_key(|(key, _)| *key);
        let mut merged = new_acc();
        for (_, part) in dealt {
            merged.merge(part);
        }
        prop_assert_eq!(whole.finish().to_json(), merged.finish().to_json());
    }
}

/// A planted series read as a timeline sampled every 5 s from `t = 5 s`.
fn planted_timeline(p: &Planted) -> Timeline {
    Timeline {
        samples: p
            .xs
            .iter()
            .enumerate()
            .map(|(i, &v)| Sample {
                t_ms: (i as u64 + 1) * 5_000,
                rps_norm: v.clamp(0.0, 1.0),
                latency_ms: 2.0,
                code_bytes: 0,
            })
            .collect(),
        ..Default::default()
    }
}

#[test]
fn planted_slowdown_and_warmup_classify_as_such() {
    let params = WarmupAnalysisParams::default();
    let mk = |levels: &[(usize, f64)]| -> Timeline {
        let mut samples = Vec::new();
        for &(len, v) in levels {
            for _ in 0..len {
                samples.push(Sample {
                    t_ms: (samples.len() as u64 + 1) * 5_000,
                    rps_norm: v,
                    latency_ms: 2.0,
                    code_bytes: 0,
                });
            }
        }
        Timeline {
            samples,
            ..Default::default()
        }
    };
    let rising = mk(&[(10, 0.3), (10, 0.7), (20, 1.0)]);
    let duration = rising.samples.last().unwrap().t_ms;
    assert_eq!(
        classify_timeline(&rising, duration, &params).class,
        WarmupClass::Warmup
    );
    let falling = mk(&[(10, 1.0), (30, 0.5)]);
    let duration = falling.samples.last().unwrap().t_ms;
    assert_eq!(
        classify_timeline(&falling, duration, &params).class,
        WarmupClass::Slowdown
    );
}

#[test]
fn non_finite_samples_classify_without_panicking() {
    // `classify_timeline` is public over public sample fields, and a trace
    // file is outside input: whatever the samples hold, the answer is a
    // verdict, never a panic. Two infinities make the penalty's
    // successive differences `|inf − inf| = NaN`.
    let params = WarmupAnalysisParams::default();
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        for (bad_rps, bad_latency) in [(true, false), (false, true), (true, true)] {
            let samples: Vec<Sample> = (0..24)
                .map(|i| {
                    let poisoned = i % 5 < 2;
                    Sample {
                        t_ms: (i + 1) * 5_000,
                        rps_norm: if poisoned && bad_rps { bad } else { 0.9 },
                        latency_ms: if poisoned && bad_latency { bad } else { 2.0 },
                        code_bytes: 0,
                    }
                })
                .collect();
            let tl = Timeline {
                samples,
                ..Default::default()
            };
            let verdict = classify_timeline(&tl, 120_000, &params);
            assert_eq!(verdict.times_ms.len(), 24);
            // The fleet fold takes the same samples without panicking too.
            let mut acc = WarmupAccumulator::new(params, 5_000, 120_000);
            acc.add(&tl, true);
            acc.finish();
        }
    }
}

/// A timeline with all-zero boot-window samples every 5 s up to
/// `serve_start_ms`, then `rps` (one sample per 5 s from `first_ms`) at a
/// constant `latency_ms`.
fn served_timeline(serve_start_ms: u64, first_ms: u64, rps: &[f64], latency_ms: f64) -> Timeline {
    let boot = (5_000..=serve_start_ms).step_by(5_000).map(|t_ms| Sample {
        t_ms,
        rps_norm: 0.0,
        latency_ms: 0.0,
        code_bytes: 0,
    });
    let served = rps.iter().enumerate().map(|(i, &rps_norm)| Sample {
        t_ms: first_ms + i as u64 * 5_000,
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

#[test]
fn memoized_accumulator_matches_classify_timeline() {
    let params = WarmupAnalysisParams::default();
    let (sample_ms, duration_ms) = (5_000, 200_000);
    let flat = vec![1.0; 30];
    let ramp: Vec<f64> = (0..30).map(|i| (0.4 + 0.1 * i as f64).min(1.0)).collect();
    let mut with_nan = ramp.clone();
    with_nan[3] = f64::NAN;
    // (timeline, arm). Repeats are the point; the near-misses must not
    // share a verdict through the memo.
    let feed: Vec<(Timeline, bool)> = vec![
        // The same post-serve samples with and without a boot window:
        // flat from the first sample vs. warmed up during the restart gap.
        (served_timeline(0, 5_000, &flat, 2.0), true),
        (served_timeline(1, 5_000, &flat, 2.0), true),
        (served_timeline(0, 5_000, &flat, 2.0), false),
        // Equal values at shifted sample times settle at shifted times.
        (served_timeline(0, 10_000, &flat, 2.0), true),
        // Different boot windows, identical samples after serve start:
        // a legitimate hit.
        (served_timeline(20_000, 25_000, &ramp, 2.0), true),
        (served_timeline(24_000, 25_000, &ramp, 2.0), true),
        (served_timeline(20_000, 25_000, &ramp, 2.0), false),
        // Signed zeros are distinct keys, NaN is its own (bitwise) key.
        (served_timeline(10_000, 15_000, &ramp, 0.0), true),
        (served_timeline(10_000, 15_000, &ramp, -0.0), true),
        (served_timeline(10_000, 15_000, &with_nan, 2.0), true),
        (served_timeline(10_000, 15_000, &with_nan, 2.0), false),
        (served_timeline(10_000, 15_000, &ramp, -0.0), false),
    ];
    let new_acc = || WarmupAccumulator::new(params, sample_ms, duration_ms);

    // Every answer, hit or miss, is the classifier's.
    let mut acc = new_acc();
    for (tl, jumpstart) in &feed {
        let v = classify_timeline(tl, duration_ms, &params);
        assert_eq!(acc.add(tl, *jumpstart), (v.class, v.steady_ms));
    }
    assert_eq!(
        classify_timeline(&feed[0].0, duration_ms, &params).class,
        WarmupClass::Flat
    );
    assert_eq!(
        classify_timeline(&feed[1].0, duration_ms, &params).class,
        WarmupClass::Warmup
    );
    // Distinct keys: flat × {no gap, gap, shifted}, the ramp after a gap,
    // the ramp at latency 0.0 and -0.0, and the NaN ramp.
    assert_eq!(acc.classified(), 7);

    // The oracle folds one fresh accumulator per timeline, so no memo
    // ever hits; the reports must be byte-identical.
    let mut oracle = new_acc();
    for (tl, jumpstart) in &feed {
        let mut one = new_acc();
        one.add(tl, *jumpstart);
        oracle.merge(one);
    }
    assert_eq!(oracle.classified(), feed.len() as u64);
    assert_eq!(acc.finish().to_json(), oracle.finish().to_json());
}
