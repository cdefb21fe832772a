//! `bootstrap_percentile_ci` reads its sample set as `(value, count)` runs
//! and never builds a resample. Its oracle is the implementation that did:
//! sort the values, count each round's draws per index, expand the counts
//! into the sorted resample and take `quantile_sorted` of it. The two
//! must return bit-identical intervals on every input, however the values
//! are grouped into runs.

use telemetry::{bootstrap_percentile_ci, quantile_runs, quantile_sorted};

/// The bootstrap's documented PRNG stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The expand-the-resample bootstrap over plain values.
fn bootstrap_expanded(values: &[f64], qs: &[f64], resamples: u32, seed: u64) -> Vec<(f64, f64)> {
    match values {
        [] => vec![(0.0, 0.0); qs.len()],
        [only] => vec![(*only, *only); qs.len()],
        _ => {
            let mut sorted: Vec<f64> = values.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let n = sorted.len();
            let rounds = resamples.max(1) as usize;
            let mut state = seed;
            let mut stats: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); qs.len()];
            let mut counts: Vec<u32> = vec![0; n];
            let mut resample: Vec<f64> = Vec::with_capacity(n);
            for _ in 0..rounds {
                for _ in 0..n {
                    let idx = ((splitmix64(&mut state) as u128 * n as u128) >> 64) as usize;
                    counts[idx] += 1;
                }
                resample.clear();
                for (&v, c) in sorted.iter().zip(&mut counts) {
                    resample.extend(std::iter::repeat_n(v, *c as usize));
                    *c = 0;
                }
                for (col, &q) in stats.iter_mut().zip(qs) {
                    col.push(quantile_sorted(&resample, q));
                }
            }
            stats
                .iter_mut()
                .map(|col| {
                    col.sort_by(|a, b| a.total_cmp(b));
                    (quantile_sorted(col, 0.025), quantile_sorted(col, 0.975))
                })
                .collect()
        }
    }
}

/// Maximal runs of bit-equal values, in first-seen order (unsorted).
fn maximal_runs(values: &[f64]) -> Vec<(f64, u64)> {
    let mut runs: Vec<(f64, u64)> = Vec::new();
    for &v in values {
        match runs.iter_mut().find(|(r, _)| r.to_bits() == v.to_bits()) {
            Some(run) => run.1 += 1,
            None => runs.push((v, 1)),
        }
    }
    runs
}

/// The same multiset cut into uneven, split runs with zero-count runs
/// mixed in: the bootstrap must not care how values are grouped.
fn ragged_runs(values: &[f64], state: &mut u64) -> Vec<(f64, u64)> {
    let mut runs = Vec::new();
    for (v, mut count) in maximal_runs(values) {
        while count > 0 {
            let take = 1 + splitmix64(state) % count;
            runs.push((v, take));
            count -= take;
            if splitmix64(state).is_multiple_of(5) {
                runs.push((v, 0));
            }
        }
    }
    runs.reverse();
    runs
}

fn bits(cis: &[(f64, f64)]) -> Vec<(u64, u64)> {
    cis.iter()
        .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
        .collect()
}

const QS: [f64; 7] = [0.0, 0.025, 0.25, 0.50, 0.95, 0.99, 1.0];

fn assert_matches_oracle(name: &str, values: &[f64], state: &mut u64) {
    let resamples = if values.len() > 2_000 { 20 } else { 200 };
    for (resamples, seed) in [(resamples, 0x57a2_b007), (7, 1), (1, 42)] {
        let want = bits(&bootstrap_expanded(values, &QS, resamples, seed));
        let singles: Vec<(f64, u64)> = values.iter().map(|&v| (v, 1)).collect();
        for runs in [singles, maximal_runs(values), ragged_runs(values, state)] {
            let got = bits(&bootstrap_percentile_ci(&runs, &QS, resamples, seed));
            assert_eq!(got, want, "{name}: n = {}, runs = {runs:?}", values.len());
        }
    }
}

#[test]
fn run_bootstrap_matches_the_expanded_resample() {
    let mut state = 0x0b0e_5eed;
    let draw = |state: &mut u64, n: u64| splitmix64(state) % n;
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("n = 2", vec![2.0, 1.0]),
        ("n = 2, equal", vec![4.0, 4.0]),
        ("single run", vec![3.5; 37]),
        ("signed zeros", vec![0.0, -0.0, -0.0, 0.0, -1.0, 1.0, 0.0]),
        (
            "infinities",
            vec![
                f64::INFINITY,
                1.0,
                f64::NEG_INFINITY,
                f64::INFINITY,
                -0.0,
                f64::INFINITY,
                2.0,
            ],
        ),
        ("all infinite", vec![f64::INFINITY; 9]),
        (
            "all distinct",
            (0..500).map(|i| (i * 7919 % 500) as f64 * 0.5).collect(),
        ),
        (
            "heavy duplicates",
            (0..3_000)
                .map(|_| (draw(&mut state, 12) * 5_000) as f64)
                .collect(),
        ),
        (
            "fleet-sized ttss",
            (0..10_000)
                .map(|_| (draw(&mut state, 400) * 250) as f64)
                .collect(),
        ),
    ];
    for (name, values) in &cases {
        assert_matches_oracle(name, values, &mut state);
    }
    // Seeded random multisets: a few levels with random multiplicities,
    // signed zeros and infinities among them.
    let levels = [
        -0.0,
        0.0,
        1.0,
        2.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        7.0,
    ];
    for round in 0..40 {
        let n = 2 + draw(&mut state, 60) as usize;
        let k = 1 + draw(&mut state, levels.len() as u64) as usize;
        let values: Vec<f64> = (0..n)
            .map(|_| levels[draw(&mut state, k as u64) as usize])
            .collect();
        assert_matches_oracle(&format!("random multiset {round}"), &values, &mut state);
    }
}

#[test]
fn run_quantiles_equal_the_expanded_quantiles() {
    let mut state = 7;
    for round in 0..200 {
        let n = (splitmix64(&mut state) % 40) as usize;
        let mut values: Vec<f64> = (0..n)
            .map(|_| [-0.0, 0.0, 1.0, 3.0, f64::INFINITY][(splitmix64(&mut state) % 5) as usize])
            .collect();
        values.sort_by(|a, b| a.total_cmp(b));
        let mut runs = ragged_runs(&values, &mut state);
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for q in QS {
            assert_eq!(
                quantile_runs(&runs, q).to_bits(),
                quantile_sorted(&values, q).to_bits(),
                "round {round}, q = {q}, values = {values:?}"
            );
        }
    }
}
