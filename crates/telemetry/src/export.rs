//! Fleet-level aggregation: per-server columns of plain numbers fold
//! into one set of cross-server percentiles.
//!
//! A fleet run carries every simulated server as a row of scalars (boot
//! time, ready time, capacity loss, ...). [`aggregate_values`] takes those
//! columns by metric name and reports the distribution of each across the
//! fleet — the p50/p95/p99 boot- and ready-time numbers the paper reports
//! fleet-wide. [`quantile_sorted`] and [`bootstrap_percentile_ci`] are the
//! shared quantile and confidence-interval definitions.

use crate::json::{escape, fmt_f64};

/// Distribution of one scalar metric across servers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AggStat {
    /// How many servers reported this metric.
    pub n: usize,
    /// Smallest reported value.
    pub min: f64,
    /// Largest reported value.
    pub max: f64,
    /// Mean across servers.
    pub mean: f64,
    /// Median across servers.
    pub p50: f64,
    /// 95th percentile across servers.
    pub p95: f64,
    /// 99th percentile across servers.
    pub p99: f64,
}

/// Cross-server aggregate of every scalar metric with at least one value.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetAggregate {
    /// Number of servers aggregated.
    pub servers: usize,
    /// Per-metric distributions, name-sorted.
    pub stats: Vec<(String, AggStat)>,
}

/// Exact quantile of a sorted sample set, with linear interpolation
/// between order statistics. The input must be ascending; `q` is clamped
/// to `[0, 1]`. This is the quantile definition every fleet percentile in
/// the repo uses — exposed so derived statistics (bootstrap CIs, warmup
/// time-to-steady-state bands) agree with [`aggregate_values`] bit for bit.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => 0.0,
        [only] => *only,
        _ => {
            let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] + frac * (sorted[hi] - sorted[lo])
        }
    }
}

/// splitmix64 — the one-instruction-per-state PRNG used for bootstrap
/// resampling. Kept here (not in a `rand` shim) so the CI machinery has a
/// fixed, documented stream: same seed → same resamples on every platform.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Percentile-bootstrap confidence intervals for `quantile_sorted(values, q)`
/// at every `q` in `qs`, returned in `qs` order.
///
/// Draws `resamples` bootstrap resamples (with replacement, splitmix64
/// stream seeded by `seed`), recomputes each `q` quantile of each, and
/// returns the (2.5%, 97.5%) quantiles of each bootstrap distribution —
/// a 95% percentile CI. Every quantile reads the same resamples, so one
/// call equals one single-quantile call per `q` with the same seed, at
/// the cost of one. Deterministic: the same `(values, qs, resamples,
/// seed)` always returns the same intervals, so fleet reports carrying
/// CIs stay byte-identical across runs. Empty input returns `(0.0, 0.0)`;
/// a single value returns a degenerate `(v, v)` interval.
///
/// A resample is never sorted: its draws are indices into the sorted
/// input, so counting them and expanding the counts in index order
/// yields the sorted resample directly (`sorted[idx]` is monotone in
/// `idx` under `total_cmp`, and values equal under it are bit-equal).
pub fn bootstrap_percentile_ci(
    values: &[f64],
    qs: &[f64],
    resamples: u32,
    seed: u64,
) -> Vec<(f64, f64)> {
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
                    // Multiply-shift maps the 64-bit draw uniformly onto
                    // [0, n) without modulo bias.
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

/// Folds raw per-metric columns into fleet-wide distributions.
///
/// Columns may have different lengths (a metric some servers never
/// report; `n` records coverage); non-finite values are dropped, and a
/// column left empty is omitted from the result.
pub fn aggregate_values(servers: usize, series: &[(&str, Vec<f64>)]) -> FleetAggregate {
    let mut by_name: Vec<(&str, Vec<f64>)> = series
        .iter()
        .map(|(name, vals)| {
            let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
            (*name, finite)
        })
        .filter(|(_, vals)| !vals.is_empty())
        .collect();
    by_name.sort_by(|a, b| a.0.cmp(b.0));
    let stats = by_name
        .into_iter()
        .map(|(name, mut vals)| {
            vals.sort_by(|a, b| a.total_cmp(b));
            let n = vals.len();
            let sum: f64 = vals.iter().sum();
            let stat = AggStat {
                n,
                min: vals[0],
                max: vals[n - 1],
                mean: sum / n as f64,
                p50: quantile_sorted(&vals, 0.50),
                p95: quantile_sorted(&vals, 0.95),
                p99: quantile_sorted(&vals, 0.99),
            };
            (name.to_string(), stat)
        })
        .collect();
    FleetAggregate { servers, stats }
}

impl FleetAggregate {
    /// Distribution for one metric name.
    pub fn stat(&self, name: &str) -> Option<&AggStat> {
        self.stats.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders as JSON: `{"servers":N,"metrics":{name:{n,min,max,...}}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .stats
            .iter()
            .map(|(name, s)| {
                format!(
                    "\"{}\":{{\"n\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                    escape(name),
                    s.n,
                    fmt_f64(s.min),
                    fmt_f64(s.max),
                    fmt_f64(s.mean),
                    fmt_f64(s.p50),
                    fmt_f64(s.p95),
                    fmt_f64(s.p99),
                )
            })
            .collect();
        format!(
            "{{\"servers\":{},\"metrics\":{{{}}}}}",
            self.servers,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_values_folds_columns_into_percentiles() {
        let boots: Vec<f64> = (1..=10).map(|i| (i * 100) as f64).collect();
        let losses: Vec<f64> = (1..=10).map(|i| i as f64 / 100.0).collect();
        let agg = aggregate_values(10, &[("boot_ms", boots), ("capacity_loss", losses)]);
        assert_eq!(agg.servers, 10);
        let boot = agg.stat("boot_ms").unwrap();
        assert_eq!(boot.n, 10);
        assert_eq!(boot.min, 100.0);
        assert_eq!(boot.max, 1000.0);
        assert_eq!(boot.mean, 550.0);
        assert_eq!(boot.p50, 550.0);
        assert!(boot.p95 > boot.p50 && boot.p95 <= boot.max);
        assert!(boot.p99 >= boot.p95);
        assert_eq!(agg.stat("capacity_loss").unwrap().n, 10);
        let json = agg.to_json();
        assert!(json.contains("\"servers\":10"));
        assert!(json.contains("\"boot_ms\""));
        crate::json::parse(&json).expect("aggregate JSON parses");

        // Ragged coverage counts `n` per column, non-finite values are
        // dropped, and a column nobody reported is omitted.
        let agg = aggregate_values(
            5,
            &[
                ("boot_ms", vec![100.0, 300.0]),
                ("ready_ms", vec![1.0, f64::NAN, 3.0, f64::INFINITY]),
                ("fallbacks", vec![1.0]),
                ("never_reported", vec![]),
            ],
        );
        assert_eq!(agg.servers, 5);
        assert_eq!(agg.stat("boot_ms").unwrap().n, 2);
        assert_eq!(agg.stat("boot_ms").unwrap().p50, 200.0);
        assert_eq!(agg.stat("ready_ms").unwrap().n, 2);
        assert_eq!(agg.stat("fallbacks").unwrap().n, 1);
        assert!(agg.stat("never_reported").is_none());
        // Metrics come back name-sorted whatever order they went in.
        let names: Vec<&str> = agg.stats.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["boot_ms", "fallbacks", "ready_ms"]);

        // A single value collapses every quantile onto it.
        let agg = aggregate_values(1, &[("boot_ms", vec![500.0])]);
        let boot = agg.stat("boot_ms").unwrap();
        assert_eq!((boot.p50, boot.p99), (500.0, 500.0));

        // Zero servers, zero columns.
        let empty = aggregate_values(0, &[]);
        assert_eq!(empty.servers, 0);
        assert!(empty.stats.is_empty());
    }

    #[test]
    fn bootstrap_ci_is_deterministic_and_brackets_the_estimate() {
        let values: Vec<f64> = (0..200)
            .map(|i| (i % 37) as f64 + (i / 37) as f64)
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = quantile_sorted(&sorted, 0.50);
        let (lo, hi) = bootstrap_percentile_ci(&values, &[0.50], 200, 42)[0];
        assert!(lo <= hi, "interval is ordered");
        assert!(lo <= p50 && p50 <= hi, "CI brackets the point estimate");
        assert!(lo >= sorted[0] && hi <= sorted[sorted.len() - 1]);
        // Bit-identical across repeat calls with the same seed.
        assert_eq!(
            [(lo, hi)],
            bootstrap_percentile_ci(&values, &[0.50], 200, 42)[..]
        );
        // A different seed resamples differently (intervals may coincide on
        // pathological inputs, but not on this spread).
        assert_ne!(
            [(lo, hi)],
            bootstrap_percentile_ci(&values, &[0.50], 200, 43)[..]
        );
    }

    #[test]
    fn bootstrap_ci_degenerate_inputs() {
        assert_eq!(
            bootstrap_percentile_ci(&[], &[0.5, 0.9], 100, 1),
            [(0.0, 0.0); 2]
        );
        assert_eq!(
            bootstrap_percentile_ci(&[7.0], &[0.5], 100, 1),
            [(7.0, 7.0)]
        );
        assert!(bootstrap_percentile_ci(&[1.0, 2.0], &[], 100, 1).is_empty());
        // All-equal samples collapse to a zero-width interval.
        let same = [3.0; 16];
        assert_eq!(bootstrap_percentile_ci(&same, &[0.95], 50, 9), [(3.0, 3.0)]);
    }

    /// The single-quantile bootstrap that sorted every resample — the
    /// oracle the one-pass, counting [`bootstrap_percentile_ci`] must
    /// match bit for bit.
    fn bootstrap_percentile_ci_reference(
        values: &[f64],
        q: f64,
        resamples: u32,
        seed: u64,
    ) -> (f64, f64) {
        match values {
            [] => (0.0, 0.0),
            [only] => (*only, *only),
            _ => {
                let mut sorted: Vec<f64> = values.to_vec();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let n = sorted.len();
                let mut state = seed;
                let mut stats: Vec<f64> = Vec::with_capacity(resamples.max(1) as usize);
                let mut resample: Vec<f64> = Vec::with_capacity(n);
                for _ in 0..resamples.max(1) {
                    resample.clear();
                    for _ in 0..n {
                        let idx = ((splitmix64(&mut state) as u128 * n as u128) >> 64) as usize;
                        resample.push(sorted[idx]);
                    }
                    resample.sort_by(|a, b| a.total_cmp(b));
                    stats.push(quantile_sorted(&resample, q));
                }
                stats.sort_by(|a, b| a.total_cmp(b));
                (
                    quantile_sorted(&stats, 0.025),
                    quantile_sorted(&stats, 0.975),
                )
            }
        }
    }

    #[test]
    fn one_pass_bootstrap_matches_per_quantile_sorting_reference() {
        let qs = [0.0, 0.025, 0.50, 0.95, 0.99, 1.0];
        let bits = |cis: &[(f64, f64)]| -> Vec<(u64, u64)> {
            cis.iter()
                .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
                .collect()
        };
        let mut state = 0x5eedu64;
        let big: Vec<f64> = (0..10_000)
            .map(|_| (splitmix64(&mut state) % 4_000) as f64 * 250.0)
            .collect();
        let inputs: Vec<Vec<f64>> = vec![
            vec![5.0],
            vec![2.0, 1.0],
            vec![0.0, -0.0],
            // Duplicates, unsorted, with both zeros interleaved.
            vec![3.0, 1.0, 3.0, -0.0, 3.0, 0.0, 1.0, -0.0, 0.0, 7.5, 3.0],
            vec![-0.0, 0.0, -0.0, 0.0, -1.0, 1.0],
            big,
        ];
        for values in &inputs {
            // Fewer rounds at n = 10 000 keep the sorting oracle quick in
            // debug builds; every round is compared all the same.
            let full = if values.len() > 100 { 20 } else { 200 };
            for (resamples, seed) in [(full, 0x57a2_b007), (7, 1), (1, 42)] {
                let got = bootstrap_percentile_ci(values, &qs, resamples, seed);
                let want: Vec<(f64, f64)> = qs
                    .iter()
                    .map(|&q| bootstrap_percentile_ci_reference(values, q, resamples, seed))
                    .collect();
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "n = {}, resamples = {resamples}",
                    values.len()
                );
            }
        }
    }
}
