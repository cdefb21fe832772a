//! Traffic mixes, request sampling and the profiling driver.

use bytecode::{FuncId, UnitId};
use jit::{CtxProfile, ProfileCollector, TierProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vm::{Value, Vm};

use crate::appgen::App;

/// A probability distribution over endpoints for one (region, semantic
/// bucket) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestMix {
    cumulative: Vec<f64>,
}

impl RequestMix {
    /// Builds the mix for `region`/`bucket`.
    ///
    /// Semantic routing sends ~90% of a bucket's traffic to endpoints of
    /// the matching partition; regions rotate endpoint popularity so that
    /// different regions have genuinely different hot sets (§II-C).
    pub fn new(app: &App, region: usize, bucket: usize) -> Self {
        let n = app.endpoints.len();
        let mut weights = vec![0f64; n];
        for (i, ep) in app.endpoints.iter().enumerate() {
            // Rotate popularity by region, staying within the partition's
            // residue class so every region still has hot endpoints in
            // every bucket.
            let rot = (i + region * app.partitions) % n;
            let pop = app.endpoints[rot].popularity;
            let affinity = if ep.partition == bucket % app.partitions {
                0.9
            } else {
                0.1
            };
            weights[i] = pop * affinity;
        }
        Self::from_weights(&weights)
    }

    /// Builds a mix from raw endpoint weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero.
    pub fn from_weights(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "mix needs at least one positive weight");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    /// Samples an endpoint index.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let x: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("no NaN"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Per-endpoint probabilities (sums to 1).
    pub fn probabilities(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.cumulative
            .iter()
            .map(|&c| {
                let p = c - prev;
                prev = c;
                p
            })
            .collect()
    }

    /// Number of endpoints covered.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the mix is empty.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

/// Samples complete requests (endpoint + argument).
#[derive(Debug)]
pub struct RequestSampler {
    rng: SmallRng,
}

impl RequestSampler {
    /// Creates a sampler with a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Samples one request: the endpoint function and its argument.
    pub fn request(&mut self, app: &App, mix: &RequestMix) -> (FuncId, Value) {
        let ep = mix.sample(&mut self.rng);
        let arg = self.rng.gen_range(0..1000i64);
        (app.endpoints[ep].func, Value::Int(arg))
    }
}

/// Everything a profiling phase produces: what a Jump-Start seeder ships.
#[derive(Debug)]
pub struct ProfileRun {
    /// Tier-1 profile (bytecode counters, targets, types, prop counts).
    pub tier: TierProfile,
    /// Context-sensitive counters (§V-A/§V-B instrumentation).
    pub ctx: CtxProfile,
    /// Units in first-load order (preload list, §IV-B category 1).
    pub unit_order: Vec<UnitId>,
    /// Requests executed.
    pub requests: u64,
}

/// Runs `requests` sampled requests through the interpreter with the
/// profile collector attached — the seeder's profiling phase (Fig. 3b).
pub fn profile_run(app: &App, mix: &RequestMix, requests: usize, seed: u64) -> ProfileRun {
    let mut vm = Vm::new(&app.repo);
    let mut collector = ProfileCollector::new(&app.repo);
    let mut sampler = RequestSampler::new(seed);
    for _ in 0..requests {
        let (func, arg) = sampler.request(app, mix);
        vm.call_observed(func, &[arg], &mut collector)
            .expect("generated requests execute");
        collector.end_request();
        vm.take_output();
    }
    let (tier, ctx) = collector.finish();
    ProfileRun {
        tier,
        ctx,
        unit_order: vm.loader().load_order(),
        requests: requests as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appgen::{generate, AppParams};

    #[test]
    fn mix_prefers_its_bucket() {
        let app = generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 0, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut in_bucket = 0;
        let n = 2000;
        for _ in 0..n {
            let ep = mix.sample(&mut rng);
            if app.endpoints[ep].partition == 1 {
                in_bucket += 1;
            }
        }
        let share = in_bucket as f64 / n as f64;
        assert!(share > 0.6, "bucket share {share} should dominate");
    }

    #[test]
    fn regions_have_different_hot_endpoints() {
        let app = generate(&AppParams::tiny());
        let mut rng = SmallRng::seed_from_u64(2);
        let hottest = |region: usize, rng: &mut SmallRng| {
            let mix = RequestMix::new(&app, region, 0);
            let mut counts = vec![0u32; app.endpoints.len()];
            for _ in 0..3000 {
                counts[mix.sample(rng)] += 1;
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
        };
        let a = hottest(0, &mut rng);
        let b = hottest(2, &mut rng);
        assert_ne!(a, b, "regions should disagree on the hottest endpoint");
    }

    #[test]
    fn profile_run_produces_coverage() {
        let app = generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 0, 0);
        let run = profile_run(&app, &mix, 100, 3);
        assert_eq!(run.requests, 100);
        assert!(
            run.tier.profiled_count() > 10,
            "flat profile touches many functions"
        );
        assert!(!run.unit_order.is_empty());
        assert!(run.tier.total_counter_mass() > 1000);
        assert!(!run.ctx.branches().is_empty());
        // Property counts exist (bodies touch object props).
        assert!(!run.tier.prop_counts.is_empty());
    }

    #[test]
    fn from_weights_rejects_all_zero() {
        let r = std::panic::catch_unwind(|| RequestMix::from_weights(&[0.0, 0.0]));
        assert!(r.is_err());
    }

    #[test]
    fn sampler_is_deterministic() {
        let app = generate(&AppParams::tiny());
        let mix = RequestMix::new(&app, 1, 1);
        let run = |seed| {
            let mut s = RequestSampler::new(seed);
            (0..10).map(|_| s.request(&app, &mix).0).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
