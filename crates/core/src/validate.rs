//! Seeder-side package validation (§VI-A.1, §VI-B).
//!
//! Before publishing, a seeder restarts in consumer mode with the package
//! it just collected and "only publishes the data if it remains healthy
//! for a few minutes". We reproduce that as: decode, coverage thresholds,
//! a static lint of the profile against the repo (cheap, catches
//! structural corruption before anything is compiled), a full consumer
//! compile (catches compile-time JIT crashes), and a number of simulated
//! healthy-boot trials (catches *most* latent runtime bugs — a
//! `RuntimeCrash` poison with low probability can slip through, which is
//! precisely why §VI-A.2's randomized selection exists).

use analysis::lint_profile;
use bytecode::Repo;
use jit::JitOptions;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::JumpStartOptions;
use crate::consumer::{consume, ConsumerError};
use crate::package::ProfilePackage;
use crate::wire::WireError;

/// Why validation rejected a package.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Decode failure (corruption).
    Wire(WireError),
    /// Coverage below thresholds (§VI-B), e.g. a drained data center.
    Coverage {
        /// Which threshold failed.
        what: &'static str,
        /// Observed value.
        got: u64,
        /// Required minimum.
        needed: u64,
    },
    /// The static linter proved the profile can't describe this repo
    /// (dangling ids, stale counters, impossible arcs...). Caught before
    /// any compile or boot is attempted.
    Static {
        /// Number of lint diagnostics.
        errors: usize,
        /// The first diagnostic, rendered.
        first: String,
    },
    /// The JIT crashed compiling the profile data.
    CompileCrash,
    /// A smoke boot crashed or raised errors.
    Unhealthy {
        /// Which trial failed.
        trial: u32,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Wire(e) => write!(f, "decode: {e}"),
            ValidationError::Coverage { what, got, needed } => {
                write!(f, "coverage: {what} = {got} below threshold {needed}")
            }
            ValidationError::Static { errors, first } => {
                write!(f, "static lint: {errors} errors, first: {first}")
            }
            ValidationError::CompileCrash => write!(f, "JIT crash during validation compile"),
            ValidationError::Unhealthy { trial } => {
                write!(f, "smoke boot {trial} was unhealthy")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// What a successful validation measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidationReport {
    /// Functions the validation compile optimized.
    pub compiled_funcs: usize,
    /// Optimized bytes emitted.
    pub compile_bytes: u64,
    /// Healthy-boot trials performed.
    pub trials: u32,
    /// Serialized package size.
    pub package_bytes: usize,
}

/// The validation harness.
#[derive(Clone, Copy, Debug)]
pub struct Validator {
    /// Jump-Start options (thresholds, trials).
    pub opts: JumpStartOptions,
    /// JIT options used for the validation compile.
    pub jit_opts: JitOptions,
}

impl Validator {
    /// Creates a validator.
    pub fn new(opts: JumpStartOptions, jit_opts: JitOptions) -> Self {
        Self { opts, jit_opts }
    }

    /// Validates serialized package bytes against `repo`.
    ///
    /// # Errors
    ///
    /// Returns the first failed check.
    pub fn validate(&self, repo: &Repo, bytes: &[u8]) -> Result<ValidationReport, ValidationError> {
        let decode_span = telemetry::span!("validate-decode", "bytes" => bytes.len());
        let pkg = ProfilePackage::deserialize(bytes).map_err(ValidationError::Wire)?;
        drop(decode_span);
        self.validate_package(repo, &pkg, bytes.len())
    }

    /// Validates an already-decoded package.
    ///
    /// # Errors
    ///
    /// Returns the first failed check.
    pub fn validate_package(
        &self,
        repo: &Repo,
        pkg: &ProfilePackage,
        package_bytes: usize,
    ) -> Result<ValidationReport, ValidationError> {
        let _validate_span = telemetry::span!("validate", "seeder" => pkg.meta.seeder_id);
        // Coverage thresholds (§VI-B).
        let coverage_span = telemetry::span!("coverage-check");
        let c = pkg.meta.coverage;
        let checks = [
            (
                "funcs_profiled",
                c.funcs_profiled,
                self.opts.min_funcs_profiled,
            ),
            ("counter_mass", c.counter_mass, self.opts.min_counter_mass),
            ("requests", c.requests, self.opts.min_requests),
        ];
        for (what, got, needed) in checks {
            if got < needed {
                return Err(ValidationError::Coverage { what, got, needed });
            }
        }
        drop(coverage_span);
        // Static lint — the consumer's lint, answered by rejection rather
        // than repair: a seeder collects against the exact repo it
        // validates with, so *any* error means corruption, and rejecting
        // here costs no compile or boot.
        let lint_span = telemetry::span!("static-lint");
        let report = lint_profile(repo, &pkg.view());
        if let Some(first) = report.errors().next() {
            return Err(ValidationError::Static {
                errors: report.error_count(),
                first: first.to_string(),
            });
        }
        drop(lint_span);
        // Full consumer compile — catches deterministic JIT crashes.
        let compile_span = telemetry::span!("validation-compile");
        let outcome = consume(repo, pkg, self.jit_opts, &self.opts, 1).map_err(|e| match e {
            ConsumerError::JitCrash => ValidationError::CompileCrash,
            ConsumerError::Wire(w) => ValidationError::Wire(w),
            ConsumerError::InvalidProfile { errors, first } => {
                ValidationError::Static { errors, first }
            }
        })?;
        drop(compile_span);
        // Healthy-boot trials — each trial is one simulated consumer boot.
        // Seeded by package identity so validation is reproducible.
        let _trials_span =
            telemetry::span!("smoke-trials", "trials" => self.opts.validation_trials);
        let mut rng =
            SmallRng::seed_from_u64(pkg.meta.seeder_id ^ pkg.meta.created_ms.rotate_left(17));
        for trial in 0..self.opts.validation_trials {
            if pkg.meta.poison.boot_crashes(&mut rng) {
                return Err(ValidationError::Unhealthy { trial });
            }
        }
        Ok(ValidationReport {
            compiled_funcs: outcome.compiled_funcs,
            compile_bytes: outcome.compile_bytes,
            trials: self.opts.validation_trials,
            package_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{Coverage, PackageMeta, Poison};
    use crate::seeder::{build_package, SeederInputs};
    use jit::ProfileCollector;
    use vm::{Value, Vm};

    fn healthy_package() -> (Repo, ProfilePackage) {
        let src = r#"
            function work($x) { return $x * 3 + 1; }
            function main($n) {
                $s = 0;
                for ($i = 0; $i < $n; $i++) { $s += work($i); }
                return $s;
            }
        "#;
        let repo = hackc::compile_unit("v.hl", src).unwrap();
        let f = repo.func_by_name("main").unwrap().id;
        let mut vm = Vm::new(&repo);
        let mut col = ProfileCollector::new(&repo);
        for _ in 0..30 {
            vm.call_observed(f, &[Value::Int(40)], &mut col).unwrap();
            col.end_request();
        }
        let order = vm.loader().load_order();
        let (tier, ctx) = col.finish();
        let pkg = build_package(
            SeederInputs {
                repo: &repo,
                tier,
                ctx,
                unit_order: order,
                requests: 30,
                region: 0,
                bucket: 0,
                seeder_id: 5,
                now_ms: 100,
            },
            &JumpStartOptions::default(),
            &JitOptions::default(),
        );
        (repo, pkg)
    }

    fn lax_opts() -> JumpStartOptions {
        JumpStartOptions {
            min_funcs_profiled: 1,
            min_counter_mass: 10,
            min_requests: 5,
            ..Default::default()
        }
    }

    #[test]
    fn healthy_package_validates() {
        let (repo, pkg) = healthy_package();
        let v = Validator::new(lax_opts(), JitOptions::default());
        let bytes = pkg.serialize();
        let report = v.validate(&repo, &bytes).unwrap();
        assert!(report.compiled_funcs >= 2);
        assert!(report.package_bytes > 100);
    }

    #[test]
    fn corruption_fails_validation() {
        let (repo, pkg) = healthy_package();
        let v = Validator::new(lax_opts(), JitOptions::default());
        let mut bytes = pkg.serialize().to_vec();
        bytes[30] ^= 0xff;
        assert!(matches!(
            v.validate(&repo, &bytes),
            Err(ValidationError::Wire(_))
        ));
    }

    #[test]
    fn low_coverage_fails_validation() {
        // A drained data center: barely any requests (§VI-B).
        let (repo, mut pkg) = healthy_package();
        pkg.meta.coverage = Coverage {
            funcs_profiled: 1,
            counter_mass: 5,
            requests: 1,
        };
        let v = Validator::new(lax_opts(), JitOptions::default());
        assert!(matches!(
            v.validate_package(&repo, &pkg, 0),
            Err(ValidationError::Coverage {
                what: "counter_mass",
                ..
            })
        ));
        let _ = PackageMeta::default();
    }

    #[test]
    fn compile_poison_is_always_caught() {
        let (repo, mut pkg) = healthy_package();
        pkg.meta.poison = Poison::CompileCrash;
        let v = Validator::new(lax_opts(), JitOptions::default());
        assert_eq!(
            v.validate_package(&repo, &pkg, 0),
            Err(ValidationError::CompileCrash)
        );
    }

    #[test]
    fn frequent_latent_bug_is_caught_rare_one_can_slip() {
        let (repo, pkg) = healthy_package();
        let v = Validator::new(lax_opts(), JitOptions::default());
        // 80% crash probability: 8 trials catch it with p ~ 1 - 0.2^8.
        let mut frequent = pkg.clone();
        frequent.meta.poison = Poison::RuntimeCrash { per_mille: 800 };
        assert!(matches!(
            v.validate_package(&repo, &frequent, 0),
            Err(ValidationError::Unhealthy { .. })
        ));
        // A 0.1% latent bug usually slips through validation — the reason
        // §VI-A.2 exists. Check that over many seeder identities, at least
        // one slips.
        let mut slipped = 0;
        for seeder in 0..20 {
            let mut rare = pkg.clone();
            rare.meta.poison = Poison::RuntimeCrash { per_mille: 1 };
            rare.meta.seeder_id = seeder;
            if v.validate_package(&repo, &rare, 0).is_ok() {
                slipped += 1;
            }
        }
        assert!(
            slipped > 15,
            "rare bugs should usually pass validation, got {slipped}/20"
        );
    }
}
