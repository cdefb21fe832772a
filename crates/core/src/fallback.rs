//! Consumer boot control: randomized package selection with automatic
//! no-Jump-Start fallback (§VI-A.2 / §VI-A.3).

use std::sync::Arc;

use rand::rngs::SmallRng;

use crate::store::{PackageStore, StoredPackage};

/// What the next boot should do.
#[derive(Clone, Debug)]
pub enum BootDecision {
    /// Boot as a Jump-Start consumer with this package (a shared handle
    /// into the store — deciding never copies package bytes).
    TryPackage(Arc<StoredPackage>),
    /// Boot without Jump-Start (collect own profile data).
    Fallback,
}

/// Per-server boot controller.
///
/// Each failed Jump-Start boot increments the attempt counter; once it
/// exceeds the limit — or no suitable package can be found/downloaded —
/// the server "will automatically restart with Jump-Start disabled"
/// (§VI-A.3). A healthy boot resets the counter.
#[derive(Clone, Copy, Debug)]
pub struct BootController {
    max_attempts: u32,
    attempts: u32,
}

impl BootController {
    /// Creates a controller allowing `max_attempts` Jump-Start boots
    /// before fallback.
    pub fn new(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            attempts: 0,
        }
    }

    /// Jump-Start boot attempts since the last healthy boot.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Decides the next boot: a random package for (region, bucket), or
    /// fallback when attempts are exhausted or no package exists.
    pub fn decide(
        &mut self,
        store: &PackageStore,
        region: u32,
        bucket: u32,
        rng: &mut SmallRng,
    ) -> BootDecision {
        if self.attempts >= self.max_attempts {
            return BootDecision::Fallback;
        }
        match store.pick_random(region, bucket, rng) {
            Some(p) => {
                self.attempts += 1;
                BootDecision::TryPackage(p)
            }
            None => BootDecision::Fallback,
        }
    }

    /// Reports that the boot served healthily; resets the counter.
    pub fn record_healthy(&mut self) {
        self.attempts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{PackageMeta, ProfilePackage};
    use rand::SeedableRng;

    fn store_with(n: u64) -> PackageStore {
        let store = PackageStore::new();
        for s in 0..n {
            let pkg = ProfilePackage {
                meta: PackageMeta {
                    seeder_id: s,
                    ..Default::default()
                },
                ..Default::default()
            };
            store.publish_chunked(&pkg, 0);
        }
        store
    }

    #[test]
    fn falls_back_when_no_package_exists() {
        let store = PackageStore::new();
        let mut ctl = BootController::new(3);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(matches!(
            ctl.decide(&store, 0, 0, &mut rng),
            BootDecision::Fallback
        ));
        assert_eq!(ctl.attempts(), 0);
    }

    #[test]
    fn falls_back_after_exhausting_attempts() {
        let store = store_with(2);
        let mut ctl = BootController::new(3);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..3 {
            assert!(matches!(
                ctl.decide(&store, 0, 0, &mut rng),
                BootDecision::TryPackage(_)
            ));
        }
        assert!(matches!(
            ctl.decide(&store, 0, 0, &mut rng),
            BootDecision::Fallback
        ));
    }

    #[test]
    fn healthy_boot_resets_attempts() {
        let store = store_with(1);
        let mut ctl = BootController::new(2);
        let mut rng = SmallRng::seed_from_u64(2);
        let _ = ctl.decide(&store, 0, 0, &mut rng);
        let _ = ctl.decide(&store, 0, 0, &mut rng);
        assert_eq!(ctl.attempts(), 2);
        ctl.record_healthy();
        assert_eq!(ctl.attempts(), 0);
        assert!(matches!(
            ctl.decide(&store, 0, 0, &mut rng),
            BootDecision::TryPackage(_)
        ));
    }

    #[test]
    fn retries_pick_random_packages() {
        let store = store_with(5);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            let mut ctl = BootController::new(1);
            if let BootDecision::TryPackage(p) = ctl.decide(&store, 0, 0, &mut rng) {
                seen.insert(p.meta.seeder_id);
            }
        }
        assert!(
            seen.len() >= 4,
            "random selection should cover most seeders"
        );
    }
}
