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
//! * [`dataflow`] — a small reusable forward/backward dataflow framework
//!   over [`bytecode::Cfg`] (join-semilattice states, worklist solver).
//! * [`reach`], [`types`] — analyses built on it: reachability / dead
//!   blocks, and a type-lattice abstract interpretation of the operand
//!   stack.
//! * [`callgraph`] — the whole-repo static call graph: which callees each
//!   call site can possibly produce.
//! * [`lint`] — the profile linter: checks a profile package against the
//!   repo for dangling ids, stale counter shapes, flow-conservation
//!   (Kirchhoff) violations, call arcs no static site can produce,
//!   counters on unreachable blocks, and type observations the abstract
//!   interpretation proves impossible.
//! * [`stale`] — the stale-profile matcher: re-identifies functions and
//!   blocks from a profile collected against an older build (two-level
//!   hash ladder: exact → opcode), infers flow-consistent counts for what
//!   it matched, and prunes
//!   instruction-indexed counters that no longer fit.
//! * [`flow`] — Kirchhoff flow conservation: the one check both [`lint`]
//!   and [`stale`] run, and the solver behind [`stale`] that turns it into
//!   count *inference* over partial matches.

pub mod callgraph;
pub mod dataflow;
pub mod fingerprint;
pub mod flow;
pub mod lint;
pub mod reach;
pub mod stale;
pub mod types;

pub use callgraph::{CallGraph, CallSite, CallSiteKind};
pub use dataflow::{solve, Analysis, DataflowResults, Direction, JoinSemiLattice};
pub use fingerprint::chunk_fingerprint;
pub use flow::{flow_violations, infer_flow, FlowSolution};
pub use lint::{
    is_own_layer_order, lint_profile, lint_profile_with, Diagnostic, LintOptions, LintReport,
    ProfileView, Rule, Severity,
};
pub use reach::reachable_blocks;
pub use stale::{
    repair_profile, repair_profile_with, MatchMode, MatchStats, RepairOptions, RepairReport,
};
pub use types::{bin_operand_types, local_type_analysis, TypeSet, TypeState};
