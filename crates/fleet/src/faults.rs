//! Fault injection for the deployment pipeline (§VI).
//!
//! Two layers:
//!
//! * [`FaultPlan`] — deterministic per-entity fault rolls woven into
//!   [`crate::run_deployment`]: seeders that crash before publishing,
//!   seeders that profile a drained cell (validation rejects the
//!   undersampled package), and consumers on degraded hosts whose boot
//!   path runs several times slower. Every roll comes from the faulted
//!   entity's own seeded RNG stream, so fault placement is a pure
//!   function of the deployment seed — independent of shard count.
//! * [`run_crashloop`] — the §VI-A crash-loop containment experiment:
//!   a crash-inducing package slipped through validation. Without
//!   randomized selection every consumer would pick it, crash, restart,
//!   pick it again — a fleet-wide crash loop. With several randomized
//!   packages, "the number of affected consumers [reduces] exponentially
//!   with each restart", and the automatic fallback bounds the worst
//!   case.

use jumpstart::{BootController, BootDecision, PackageMeta, PackageStore, Poison, ProfilePackage};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deployment-time fault injection: the failures a C1/C2/C3 push must
/// absorb, expressed as per-mille rates so the plan stays `Copy + Eq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Per-mille chance a C2 seeder crashes before publishing.
    pub seeder_crash_per_mille: u16,
    /// Per-mille chance a seeder profiles a drained cell: its run sees
    /// almost no requests, so validation rejects the package (§VI-B).
    pub undersample_per_mille: u16,
    /// Per-mille chance a C3 consumer lands on a degraded host.
    pub slow_consumer_per_mille: u16,
    /// How much slower a degraded host boots, in percent (300 = 3×
    /// slower init/deserialize and a third of the compile throughput).
    pub slow_factor_pct: u32,
    /// Per-mille chance a server sits on a *degrading* host: one whose
    /// per-request service time inflates with uptime (thermal throttling,
    /// noisy neighbors). Unlike a slow host — which boots badly but then
    /// serves normally — a degrading host gets monotonically worse, so
    /// its timeline must classify as `slowdown`, never `warmup`.
    pub degrading_per_mille: u16,
    /// Service-time inflation rate for degrading hosts, in per-mille per
    /// minute of uptime (see `WarmupParams::degrade_per_mille_per_min`).
    pub degrade_per_mille_per_min: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seeder_crash_per_mille: 0,
            undersample_per_mille: 0,
            slow_consumer_per_mille: 0,
            slow_factor_pct: 300,
            degrading_per_mille: 0,
            degrade_per_mille_per_min: 50,
        }
    }
}

impl FaultPlan {
    /// Sets the seeder-crash rate (builder-style).
    pub fn with_seeder_crashes(mut self, per_mille: u16) -> Self {
        self.seeder_crash_per_mille = per_mille;
        self
    }

    /// Sets the undersampled-seeder rate (builder-style).
    pub fn with_undersampling(mut self, per_mille: u16) -> Self {
        self.undersample_per_mille = per_mille;
        self
    }

    /// Sets the slow-consumer rate and slowdown (builder-style).
    pub fn with_slow_consumers(mut self, per_mille: u16, factor_pct: u32) -> Self {
        self.slow_consumer_per_mille = per_mille;
        self.slow_factor_pct = factor_pct.max(100);
        self
    }

    /// Sets the degrading-host rate and inflation speed (builder-style).
    pub fn with_degrading(mut self, per_mille: u16, per_mille_per_min: u32) -> Self {
        self.degrading_per_mille = per_mille;
        self.degrade_per_mille_per_min = per_mille_per_min;
        self
    }

    /// Rolls a per-mille chance on an entity's own RNG stream. Always
    /// consumes exactly one draw so a plan change never shifts the
    /// stream for unrelated decisions.
    pub(crate) fn roll(rng: &mut SmallRng, per_mille: u16) -> bool {
        rng.gen_range(0..1000u32) < per_mille as u32
    }
}

/// Experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct CrashLoopParams {
    /// Consumers in the (region, bucket) cell.
    pub servers: usize,
    /// Packages published for the cell (§VI-A.2's "several seeders").
    pub packages: usize,
    /// How many of those are crash-inducing.
    pub poisoned: usize,
    /// Crash probability per boot with a poisoned package (per-mille).
    pub poison_per_mille: u16,
    /// Jump-Start boot attempts before automatic fallback (§VI-A.3).
    pub max_boot_attempts: u32,
    /// Restart waves to simulate.
    pub waves: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CrashLoopParams {
    fn default() -> Self {
        Self {
            servers: 2000,
            packages: 5,
            poisoned: 1,
            poison_per_mille: 1000,
            max_boot_attempts: 3,
            waves: 8,
            seed: 0xfb,
        }
    }
}

/// Experiment outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashLoopReport {
    /// Servers that crashed in each wave.
    pub crashed_per_wave: Vec<usize>,
    /// Servers that ended up booting without Jump-Start.
    pub fallbacks: usize,
    /// Servers healthy with Jump-Start.
    pub healthy_jumpstart: usize,
    /// Waves until the whole fleet was healthy (`None` if never).
    pub waves_to_healthy: Option<u32>,
}

/// Runs the crash-loop experiment.
pub fn run_crashloop(params: &CrashLoopParams) -> CrashLoopReport {
    let store = PackageStore::new();
    for i in 0..params.packages {
        let poison = if i < params.poisoned {
            Poison::RuntimeCrash {
                per_mille: params.poison_per_mille,
            }
        } else {
            Poison::None
        };
        let pkg = ProfilePackage {
            meta: PackageMeta {
                seeder_id: i as u64,
                poison,
                ..Default::default()
            },
            ..Default::default()
        };
        store.publish_chunked(&pkg, 0);
    }
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut controllers: Vec<BootController> = (0..params.servers)
        .map(|_| BootController::new(params.max_boot_attempts))
        .collect();
    let mut healthy = vec![false; params.servers];
    let mut via_fallback = vec![false; params.servers];
    let mut report = CrashLoopReport::default();

    for wave in 0..params.waves {
        let mut crashed = 0;
        for (s, ctl) in controllers.iter_mut().enumerate() {
            if healthy[s] {
                continue;
            }
            match ctl.decide(&store, 0, 0, &mut rng) {
                BootDecision::Fallback => {
                    healthy[s] = true;
                    via_fallback[s] = true;
                }
                BootDecision::TryPackage(pkg) => {
                    if pkg.meta.poison.boot_crashes(&mut rng) {
                        crashed += 1;
                    } else {
                        ctl.record_healthy();
                        healthy[s] = true;
                    }
                }
            }
        }
        report.crashed_per_wave.push(crashed);
        if healthy.iter().all(|&h| h) && report.waves_to_healthy.is_none() {
            report.waves_to_healthy = Some(wave + 1);
            break;
        }
    }
    report.fallbacks = via_fallback.iter().filter(|&&f| f).count();
    report.healthy_jumpstart = healthy
        .iter()
        .zip(&via_fallback)
        .filter(|(&h, &f)| h && !f)
        .count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashes_decay_exponentially_with_randomized_packages() {
        let report = run_crashloop(&CrashLoopParams {
            servers: 5000,
            packages: 5,
            poisoned: 1,
            ..Default::default()
        });
        let w = &report.crashed_per_wave;
        // Wave 0: ~1/5 of the fleet crashes; each later wave shrinks ~5x.
        assert!(w[0] > 800 && w[0] < 1200, "wave0 {w:?}");
        assert!(w[1] < w[0] / 3, "decay: {w:?}");
        if w.len() > 2 {
            assert!(w[2] <= w[1] / 2, "decay: {w:?}");
        }
        assert!(report.waves_to_healthy.is_some());
    }

    #[test]
    fn single_bad_package_without_randomization_crash_loops_then_falls_back() {
        let report = run_crashloop(&CrashLoopParams {
            servers: 1000,
            packages: 1,
            poisoned: 1,
            max_boot_attempts: 3,
            waves: 10,
            ..Default::default()
        });
        // Every server crashes for max_boot_attempts waves, then falls back.
        assert_eq!(report.crashed_per_wave[0], 1000);
        assert_eq!(report.crashed_per_wave[1], 1000);
        assert_eq!(report.crashed_per_wave[2], 1000);
        assert_eq!(report.fallbacks, 1000);
        assert_eq!(report.healthy_jumpstart, 0);
        assert_eq!(report.waves_to_healthy, Some(4));
    }

    #[test]
    fn healthy_packages_boot_everyone_first_wave() {
        let report = run_crashloop(&CrashLoopParams {
            servers: 500,
            packages: 4,
            poisoned: 0,
            ..Default::default()
        });
        assert_eq!(report.crashed_per_wave[0], 0);
        assert_eq!(report.waves_to_healthy, Some(1));
        assert_eq!(report.healthy_jumpstart, 500);
        assert_eq!(report.fallbacks, 0);
    }

    #[test]
    fn no_packages_means_everyone_falls_back() {
        let report = run_crashloop(&CrashLoopParams {
            servers: 100,
            packages: 0,
            poisoned: 0,
            ..Default::default()
        });
        assert_eq!(report.fallbacks, 100);
        assert_eq!(report.waves_to_healthy, Some(1));
    }
}
