//! Fleet-level aggregation: per-server columns of plain numbers fold
//! into one set of cross-server percentiles.
//!
//! A fleet run carries every simulated server as a row of scalars (boot
//! time, ready time, capacity loss, ...). [`aggregate_values`] takes those
//! columns by metric name and reports the distribution of each across the
//! fleet — the p50/p95/p99 boot- and ready-time numbers the paper reports
//! fleet-wide. [`quantile_sorted`] and [`bootstrap_percentile_ci`] are the
//! shared quantile and confidence-interval definitions; [`quantile_runs`]
//! and the bootstrap read a sample set as `(value, count)` runs, so a
//! fleet of servers sharing a few distinct values is never expanded.

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
    interpolate(sorted.len(), q, |i| sorted[i])
}

/// [`quantile_sorted`] of the sample set `runs` stands for, without
/// expanding it: each `(value, count)` is `count` copies of `value`, and
/// the runs are ascending under [`f64::total_cmp`] (zero counts allowed).
/// It picks the same order statistics and interpolates with the same
/// expression, so it equals `quantile_sorted` of the expansion bit for
/// bit.
pub fn quantile_runs(runs: &[(f64, u64)], q: f64) -> f64 {
    let n: u64 = runs.iter().map(|&(_, count)| count).sum();
    interpolate(n as usize, q, |i| {
        let mut seen = 0;
        runs.iter()
            .find(|&&(_, count)| {
                seen += count;
                seen > i as u64
            })
            .map_or(0.0, |&(value, _)| value)
    })
}

/// The one quantile rule: order statistics `⌊rank⌋` and `⌈rank⌉` of `n`
/// ascending values, read through `nth`, interpolated linearly.
fn interpolate(n: usize, q: f64, nth: impl Fn(usize) -> f64) -> f64 {
    match n {
        0 => 0.0,
        1 => nth(0),
        _ => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            let (lo, hi) = (nth(lo), nth(hi));
            lo + frac * (hi - lo)
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

/// Percentile-bootstrap confidence intervals for the `q` quantile
/// ([`quantile_runs`]) of the sample set `runs` stands for, at every `q`
/// in `qs`, returned in `qs` order. Each `(value, count)` is `count`
/// copies of `value`; runs may come in any order, and runs of equal
/// values may be split.
///
/// Draws `resamples` bootstrap resamples of the `n` expanded values (with
/// replacement, splitmix64 stream seeded by `seed`), recomputes each `q`
/// quantile of each, and returns the (2.5%, 97.5%) quantiles of each
/// bootstrap distribution — a 95% percentile CI. Every quantile reads the
/// same resamples, so one call equals one single-quantile call per `q`
/// with the same seed, at the cost of one. Deterministic: the same
/// `(runs, qs, resamples, seed)` always returns the same intervals, so
/// fleet reports carrying CIs stay byte-identical across runs. Empty
/// input returns `(0.0, 0.0)`; a single value returns a degenerate
/// `(v, v)` interval.
///
/// No resample is ever built, and memory is O(runs), not O(n). Each of a
/// round's `n` draws stands for a position in the sorted expansion,
/// mapped uniformly onto `[0, n)` by multiply-shift; it only increments
/// the count of the run holding that position, and each quantile is read
/// from the round's run counts. The draws and the order statistics are
/// exactly those of sorting the `n` values and drawing indices into them
/// (values equal under `total_cmp` are bit-equal), so the intervals do
/// not depend on how the values are grouped into runs.
pub fn bootstrap_percentile_ci(
    runs: &[(f64, u64)],
    qs: &[f64],
    resamples: u32,
    seed: u64,
) -> Vec<(f64, f64)> {
    // Maximal runs, ascending: fewer runs make every draw cheaper.
    let mut sorted: Vec<(f64, u64)> = runs.iter().copied().filter(|&(_, c)| c > 0).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    sorted.dedup_by(|next, run| {
        let same = next.0.to_bits() == run.0.to_bits();
        if same {
            run.1 += next.1;
        }
        same
    });
    let n: u64 = sorted.iter().map(|&(_, count)| count).sum();
    match n {
        0 => vec![(0.0, 0.0); qs.len()],
        1 => vec![(sorted[0].0, sorted[0].0); qs.len()],
        _ => {
            // Multiply-shift maps a 64-bit draw `x` uniformly onto the
            // positions [0, n) without modulo bias: `x·n >> 64`. Run r
            // ends at position `end` exactly when the draws it takes end
            // at `last[r] = (end·2^64 − 1) / n`, so a draw is placed by
            // comparing it with `last` — no position is computed.
            let mut end = 0u128;
            let last: Vec<u64> = sorted
                .iter()
                .map(|&(_, count)| {
                    end += u128::from(count);
                    (((end << 64) - 1) / u128::from(n)) as u64
                })
                .collect();
            // guide[b] is the run of the first draw whose top `bits` bits
            // are b: a draw's run is found by stepping forward from its
            // slice's guide. With eight slices per run, most slices lie
            // inside one run and most draws take no step.
            let slices = (sorted.len() * 8).min(n as usize).next_power_of_two();
            let bits = slices.trailing_zeros();
            let guide: Vec<u32> = (0..slices as u64)
                .map(|b| {
                    let run = last.partition_point(|&l| l < b << (64 - bits));
                    u32::try_from(run).expect("fewer than 2^32 runs")
                })
                .collect();
            // The current round's resample, as draw counts per run.
            let mut counts: Vec<u64> = vec![0; sorted.len()];
            let mut drawn: Vec<(f64, u64)> = sorted.clone();
            let rounds = resamples.max(1) as usize;
            let mut state = seed;
            let mut stats: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); qs.len()];
            for _ in 0..rounds {
                for _ in 0..n {
                    let x = splitmix64(&mut state);
                    let mut run = guide[(x >> (64 - bits)) as usize] as usize;
                    while x > last[run] {
                        run += 1;
                    }
                    counts[run] += 1;
                }
                for (run, count) in drawn.iter_mut().zip(&mut counts) {
                    run.1 = std::mem::take(count);
                }
                for (col, &q) in stats.iter_mut().zip(qs) {
                    col.push(quantile_runs(&drawn, q));
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

    /// One run of count 1 per value.
    fn singles(values: &[f64]) -> Vec<(f64, u64)> {
        values.iter().map(|&v| (v, 1)).collect()
    }

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
        let (lo, hi) = bootstrap_percentile_ci(&singles(&values), &[0.50], 200, 42)[0];
        assert!(lo <= hi, "interval is ordered");
        assert!(lo <= p50 && p50 <= hi, "CI brackets the point estimate");
        assert!(lo >= sorted[0] && hi <= sorted[sorted.len() - 1]);
        // Bit-identical across repeat calls with the same seed.
        assert_eq!(
            [(lo, hi)],
            bootstrap_percentile_ci(&singles(&values), &[0.50], 200, 42)[..]
        );
        // A different seed resamples differently (intervals may coincide on
        // pathological inputs, but not on this spread).
        assert_ne!(
            [(lo, hi)],
            bootstrap_percentile_ci(&singles(&values), &[0.50], 200, 43)[..]
        );
    }

    #[test]
    fn bootstrap_ci_degenerate_inputs() {
        assert_eq!(
            bootstrap_percentile_ci(&[], &[0.5, 0.9], 100, 1),
            [(0.0, 0.0); 2]
        );
        assert_eq!(
            bootstrap_percentile_ci(&[(7.0, 1)], &[0.5], 100, 1),
            [(7.0, 7.0)]
        );
        assert!(bootstrap_percentile_ci(&singles(&[1.0, 2.0]), &[], 100, 1).is_empty());
        // All-equal samples collapse to a zero-width interval.
        let same = [3.0; 16];
        assert_eq!(
            bootstrap_percentile_ci(&singles(&same), &[0.95], 50, 9),
            [(3.0, 3.0)]
        );
        assert_eq!(
            bootstrap_percentile_ci(&[(3.0, 16)], &[0.95], 50, 9),
            [(3.0, 3.0)]
        );
        // Zero-count runs stand for nothing.
        assert_eq!(
            bootstrap_percentile_ci(&[(1.0, 0), (7.0, 1), (9.0, 0)], &[0.5], 100, 1),
            [(7.0, 7.0)]
        );
    }

    /// The single-quantile bootstrap that sorted every resample — the
    /// oracle the one-pass, run-counting [`bootstrap_percentile_ci`] must
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
                let got = bootstrap_percentile_ci(&singles(values), &qs, resamples, seed);
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
