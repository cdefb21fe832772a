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
//! * [`CodeCache`] — hot/cold/live/profiling regions with addresses,
//! * [`JitEngine`] — per-function tier state machine and code-size
//!   accounting (Fig. 1),
//! * [`Executor`] — statistical replay of compiled code through the
//!   [`uarch`] core model, producing the steady-state metrics of Figs. 5/6.

mod code_cache;
mod engine;
mod profile;
mod replay;
mod translate;
pub mod vasm;

pub use code_cache::{CodeCache, CodeCacheConfig, EmittedTranslation, Region, TransKind};
pub use engine::{plan_layout, CompileSizes, FuncState, JitEngine, JitOptions, LayoutPlan};
pub use profile::{
    BranchCount, CtxProfile, FuncProfile, InlineCtx, ProfileCollector, TierProfile, TypeDist,
    PARAM_SITE,
};
pub use replay::{Executor, ExecutorConfig};
pub use translate::{
    translate_live, translate_optimized, translate_optimized_with, translate_profiling,
    InlineParams, InlineTemplate, TemplateKey, TemplateSource, WeightSource,
};
