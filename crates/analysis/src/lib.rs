//! Static analysis over the bytecode repo, and the profile-package linter.
//!
//! The Jump-Start reliability pipeline (paper §VI) defends consumers
//! against bad profile packages with *dynamic* machinery: a validation
//! compile plus smoke boots on the seeder, randomized package selection,
//! and boot-attempt fallback. All of those are expensive — a validation
//! compile is a full consumer boot. This crate adds the cheap first line
//! of defense: **static** checks that decide, without running anything,
//! whether a package's profile data can possibly describe the deployed
//! repo.
//!
//! Layers:
//!
//! * [`reach`] — block reachability from the entry: dead blocks.
//! * [`lint`] — the profile linter: checks a profile package against the
//!   repo for dangling ids, records naming another function than the
//!   one at their id, stale counter shapes, flow-conservation
//!   (Kirchhoff) violations, call arcs no static site can produce (by the
//!   repo's [`bytecode::CallGraph`]),
//!   counters on unreachable blocks and malformed order lists. Every
//!   finding is an error: a package with any is rejected or repaired.
//! * [`stale`] — the stale-profile matcher: re-identifies functions and
//!   blocks from a profile collected against an older build (two-level
//!   hash ladder: exact → opcode), infers flow-consistent counts for what
//!   it matched, and prunes every entry the lint's site checks reject.
//! * [`flow`] — Kirchhoff flow conservation, and the solver behind
//!   [`stale`] that turns it into count *inference* over partial matches.
//!   The flow check and the site checks (one per rule, in [`lint`]) are
//!   the checks [`lint`] and [`stale`] share: a repaired profile passes
//!   them by construction.

// Profiles and code caches iterate in `FuncId` order; a loop over a hash
// container would bring hash order back.
#![warn(clippy::iter_over_hash_type)]

pub mod fingerprint;
pub mod flow;
pub mod lint;
pub mod reach;
pub mod stale;

pub use fingerprint::chunk_fingerprint;
pub use flow::{flow_violations, infer_flow, FlowSolution};
pub use lint::{
    is_own_layer_order, lint_profile, lint_profile_with, lint_records, lint_shared, prune_orders,
    Diagnostic, LintOptions, LintReport, ProfileView, Rule,
};
pub use reach::reachable_blocks;
pub use stale::{
    repair_profile, repair_profile_with, MatchMode, MatchStats, RepairOptions, RepairReport,
    StagedRepair,
};
