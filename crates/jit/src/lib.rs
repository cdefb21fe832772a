//! The tiered JIT model: HHVM's compilation pipeline, reproduced at the
//! level of detail the Jump-Start paper's mechanisms need.
//!
//! HHVM's JIT (paper §II-A) has two strategies — a tracelet ("live")
//! translator driven by live VM state, and a profile-guided region compiler
//! producing *profiling* then *optimized* translations. This crate models
//! all three translation kinds over the reproduction's bytecode:
//!
//! * [`TierProfile`] / [`CtxProfile`] — the profile data categories of
//!   paper §IV-B: bytecode-block counters, call-target profiles, observed
//!   types, property-access counts (tier-1), plus the context-sensitive
//!   Vasm-level counters that seeders collect by instrumenting optimized
//!   code (§V-A/§V-B),
//! * [`translate_optimized`] and friends — lowering bytecode to the
//!   [`vasm`] block IR with profile-driven type specialization, guard
//!   insertion and depth-1 inlining,
//! * [`CodeCache`] — hot and cold regions with addresses for optimized
//!   code,
//! * [`JitEngine`] and [`plan_layout`] — block layout, emission and
//!   code-size accounting for a Jump-Start consumer, which translates
//!   every profiled function before it serves (§IV-A),
//! * [`Executor`] — statistical replay of compiled code through the
//!   [`uarch`] core model, producing the steady-state metrics of Figs. 5/6.
//!
//! All three kinds are translated here, but only optimized code is
//! emitted and replayed: the tiering of a server that JITs while serving
//! (interpreter, profiling, retranslate-all, live; Fig. 1) has one model,
//! `fleet::ServerSim`, which needs only the code sizes of
//! [`translate_profiling`] and [`translate_live`].

mod code_cache;
mod engine;
mod profile;
mod replay;
mod translate;
pub mod vasm;

pub use code_cache::{CodeCache, CodeCacheConfig, EmittedTranslation, Region};
pub use engine::{plan_layout, CompileSizes, JitEngine, JitOptions, LayoutPlan};
pub use profile::{
    BranchCount, CtxProfile, FuncProfile, InlineCtx, ProfileCollector, TierProfile, TypeDist,
    PARAM_SITE,
};
pub use replay::{Executor, ExecutorConfig};
pub use translate::{
    translate_live, translate_optimized, translate_optimized_with, translate_profiling,
    InlineParams, InlineTemplate, TemplateKey, TemplateSource, WeightSource,
};
