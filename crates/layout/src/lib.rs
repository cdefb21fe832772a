//! Code- and data-layout algorithms used by the Jump-Start optimizations
//! (paper §V).
//!
//! * [`exttsp_order`] — Ext-TSP basic-block reordering (Newell & Pupyrev
//!   \[18\]), driven by block/branch weights; used with accurate Vasm-level
//!   counters from the Jump-Start package (§V-A).
//! * [`split_hot_cold`] — hot/cold code splitting, applied together with
//!   block layout (§V-A).
//! * [`c3_order`] — the C3 call-chain-clustering function sort (Ottoni &
//!   Maher \[20\]), driven by the inlining-aware call graph (§V-B).
//! * [`pagepack`] — BOLT-style global plan: hot parts of all functions
//!   packed into simulated 2 MB huge-page bins, cold parts exiled to a
//!   4 KiB-page region ([`PagePacker`], [`LayoutPlanOptions`]).
//! * [`reorder_props_by_hotness`] — object property reordering by access
//!   hotness (§V-C).
//!
//! All functions here are pure: they map weights to orders and know nothing
//! about the VM, so they are directly property-testable.

mod c3;
mod exttsp;
mod hotcold;
pub mod pagepack;
mod propreorder;

pub use c3::{c3_clusters, c3_order, CallArc, FuncNode};
#[doc(hidden)]
pub use exttsp::exttsp_order_reference;
pub use exttsp::{exttsp_order, exttsp_score, BlockEdge, BlockNode, ExtTspParams};
pub use hotcold::{split_hot_cold, HotColdSplit};
pub use pagepack::{
    pack_extents, FuncExtent, LayoutPlanOptions, PagePackPlan, PagePackStats, PagePacker,
    PlacedExtent, HUGE_PAGE_BYTES, SMALL_PAGE_BYTES,
};
pub use propreorder::{reorder_props_by_hotness, PropAccess};
