//! Global huge-page code packing (BOLT-style, see PAPERS.md).
//!
//! Per-function layout (Ext-TSP block order + hot/cold splitting) and the
//! C3 function sort decide *relative* order; this module decides *where
//! the bytes land at page granularity*. Hot parts of all functions are
//! packed densely into simulated 2 MB huge-page bins — greedy, in the C3
//! emission order, so call-graph-adjacent clusters share a page bin — and
//! a hot part is never split across a huge-page boundary unless it is
//! bigger than one page. Cold parts are exiled to a separate 4 KiB-page
//! region. The result is explicit per-function hot/cold offsets, which the
//! JIT code cache turns into addresses and the two-level iTLB model in
//! `uarch` turns into miss rates.
//!
//! [`PagePacker`] is deliberately *incremental*: the consumer boot emits
//! functions one at a time through a reorder buffer, and the packer's
//! placement depends only on the extents placed before it — so streaming
//! emission and the batch [`pack_extents`] plan are byte-identical, which
//! `jslayout --check` gates.

/// Simulated huge-page size (2 MiB, x86_64 PMD page).
pub const HUGE_PAGE_BYTES: u64 = 2 << 20;

/// Base page size (4 KiB).
pub const SMALL_PAGE_BYTES: u64 = 4096;

/// The global-layout kill switch (threaded through `JitOptions`; the
/// paper's §VI kill-switch discipline).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LayoutPlanOptions {
    /// Pack hot text into huge-page bins (and map it with 2 MiB pages in
    /// the TLB model). Off = plain bump allocation.
    pub hugepage_pack: bool,
    /// Exile optimized cold parts to a dedicated 4 KiB-page cold region
    /// (with hot→cold stub accounting) instead of the shared cold area.
    pub global_hotcold: bool,
}

impl Default for LayoutPlanOptions {
    fn default() -> Self {
        Self {
            hugepage_pack: true,
            global_hotcold: true,
        }
    }
}

impl LayoutPlanOptions {
    /// Both passes off: bit-for-bit the pre-pagepack placement.
    pub fn disabled() -> Self {
        Self {
            hugepage_pack: false,
            global_hotcold: false,
        }
    }
}

/// One function's contribution to the global plan: total bytes of its hot
/// part (including any hot→cold stubs) and of its cold part.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuncExtent {
    /// Hot-part bytes (placed in the packed hot-text region).
    pub hot_bytes: u64,
    /// Cold-part bytes (placed in the cold region).
    pub cold_bytes: u64,
}

/// Where one function's parts landed, as offsets from the region bases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlacedExtent {
    /// Offset of the hot part in the hot-text region.
    pub hot_offset: u64,
    /// Offset of the cold part in the cold region.
    pub cold_offset: u64,
}

/// Packing telemetry (the `jslayout` hot-text density metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagePackStats {
    /// Extents placed.
    pub extents: u64,
    /// Hot bytes placed (excluding padding).
    pub hot_bytes: u64,
    /// Cold bytes placed.
    pub cold_bytes: u64,
    /// Bytes lost to boundary padding in the hot region.
    pub pad_bytes: u64,
    /// Extents that were bumped to the next huge-page bin to avoid a
    /// boundary split.
    pub boundary_pads: u64,
}

/// Greedy streaming huge-page bin packer over function extents.
#[derive(Clone, Debug)]
pub struct PagePacker {
    opts: LayoutPlanOptions,
    hugepage_bytes: u64,
    hot_cursor: u64,
    cold_cursor: u64,
    stats: PagePackStats,
}

impl PagePacker {
    /// A packer with the standard 2 MiB huge-page bins.
    pub fn new(opts: LayoutPlanOptions) -> Self {
        Self::with_page_bytes(opts, HUGE_PAGE_BYTES)
    }

    /// A packer with custom bin size (tests use small bins).
    ///
    /// # Panics
    ///
    /// Panics if `hugepage_bytes` is not a power of two.
    pub fn with_page_bytes(opts: LayoutPlanOptions, hugepage_bytes: u64) -> Self {
        assert!(
            hugepage_bytes.is_power_of_two(),
            "huge-page size must be a power of two"
        );
        Self {
            opts,
            hugepage_bytes,
            hot_cursor: 0,
            cold_cursor: 0,
            stats: PagePackStats::default(),
        }
    }

    /// The options the packer runs under.
    pub fn options(&self) -> LayoutPlanOptions {
        self.opts
    }

    /// Places one function's hot part; returns its offset in the hot-text
    /// region. With `hugepage_pack` the part is kept inside a single
    /// huge-page bin (padding to the next bin when it would straddle a
    /// boundary) unless it is larger than one bin; without, this is plain
    /// bump allocation.
    pub fn place_hot(&mut self, bytes: u64) -> u64 {
        self.stats.extents += 1;
        if self.opts.hugepage_pack && bytes > 0 && bytes <= self.hugepage_bytes {
            let room = self.hugepage_bytes - self.hot_cursor % self.hugepage_bytes;
            if bytes > room {
                self.stats.pad_bytes += room;
                self.stats.boundary_pads += 1;
                self.hot_cursor += room;
            }
        }
        let off = self.hot_cursor;
        self.hot_cursor += bytes;
        self.stats.hot_bytes += bytes;
        off
    }

    /// Places one function's cold part; returns its offset in the cold
    /// region (always plain bump allocation on 4 KiB pages).
    pub fn place_cold(&mut self, bytes: u64) -> u64 {
        let off = self.cold_cursor;
        self.cold_cursor += bytes;
        self.stats.cold_bytes += bytes;
        off
    }

    /// Bytes consumed in the hot region so far, padding included.
    pub fn hot_used(&self) -> u64 {
        self.hot_cursor
    }

    /// Bytes consumed in the cold region so far.
    pub fn cold_used(&self) -> u64 {
        self.cold_cursor
    }

    /// Huge-page bins touched by the hot region (0 when packing is off).
    pub fn huge_pages_used(&self) -> u64 {
        if !self.opts.hugepage_pack || self.hot_cursor == 0 {
            return 0;
        }
        self.hot_cursor.div_ceil(self.hugepage_bytes)
    }

    /// Mean hot bytes resident per huge page (the BOLT density metric);
    /// 0 when packing is off or nothing was placed.
    pub fn hot_bytes_per_huge_page(&self) -> f64 {
        let pages = self.huge_pages_used();
        if pages == 0 {
            return 0.0;
        }
        self.stats.hot_bytes as f64 / pages as f64
    }

    /// Packing telemetry so far.
    pub fn stats(&self) -> PagePackStats {
        self.stats
    }
}

/// A complete global plan over a function sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PagePackPlan {
    /// Per-input-function placements (same indexing as the input).
    pub placements: Vec<PlacedExtent>,
    /// Total hot-region bytes, padding included.
    pub hot_used: u64,
    /// Total cold-region bytes.
    pub cold_used: u64,
    /// Packing telemetry.
    pub stats: PagePackStats,
}

/// Packs `extents` (in C3 emission order) into a global plan. Equivalent
/// to feeding the same sequence through [`PagePacker`] one extent at a
/// time — the reproducibility oracle for the streaming code-cache path.
pub fn pack_extents(extents: &[FuncExtent], opts: LayoutPlanOptions) -> PagePackPlan {
    let mut packer = PagePacker::new(opts);
    let placements = extents
        .iter()
        .map(|e| PlacedExtent {
            hot_offset: packer.place_hot(e.hot_bytes),
            cold_offset: packer.place_cold(e.cold_bytes),
        })
        .collect();
    PagePackPlan {
        placements,
        hot_used: packer.hot_used(),
        cold_used: packer.cold_used(),
        stats: packer.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(opts: LayoutPlanOptions, page: u64, sizes: &[u64]) -> (Vec<u64>, PagePacker) {
        let mut p = PagePacker::with_page_bytes(opts, page);
        let offs = sizes.iter().map(|&s| p.place_hot(s)).collect();
        (offs, p)
    }

    #[test]
    fn disabled_packer_is_plain_bump_allocation() {
        let (offs, p) = packed(LayoutPlanOptions::disabled(), 4096, &[100, 4000, 200]);
        assert_eq!(offs, vec![0, 100, 4100]);
        assert_eq!(p.stats().pad_bytes, 0);
        assert_eq!(p.huge_pages_used(), 0);
    }

    #[test]
    fn packing_never_splits_a_part_across_a_bin_boundary() {
        let opts = LayoutPlanOptions::default();
        // 100 + 4000 > 4096: the 4000-byte part skips to the next bin.
        let (offs, p) = packed(opts, 4096, &[100, 4000, 90]);
        assert_eq!(offs[0], 0);
        assert_eq!(offs[1], 4096, "second part starts on a fresh bin");
        assert_eq!(offs[2], 8096, "third part packs after the second");
        assert_eq!(p.stats().pad_bytes, 4096 - 100);
        assert_eq!(p.stats().boundary_pads, 1);
        assert_eq!(p.huge_pages_used(), 2);
    }

    #[test]
    fn oversized_parts_may_straddle_boundaries() {
        let opts = LayoutPlanOptions::default();
        let (offs, p) = packed(opts, 4096, &[100, 10_000]);
        // Bigger than one bin: placed where the cursor is, no padding.
        assert_eq!(offs[1], 100);
        assert_eq!(p.stats().pad_bytes, 0);
        assert_eq!(p.huge_pages_used(), 3); // 10_100 bytes / 4096
    }

    #[test]
    fn exact_fit_fills_the_bin_without_padding() {
        let opts = LayoutPlanOptions::default();
        let (offs, p) = packed(opts, 4096, &[2048, 2048, 64]);
        assert_eq!(offs, vec![0, 2048, 4096]);
        assert_eq!(p.stats().pad_bytes, 0);
    }

    #[test]
    fn cold_parts_bump_allocate_independently() {
        let mut p = PagePacker::with_page_bytes(LayoutPlanOptions::default(), 4096);
        assert_eq!(p.place_cold(300), 0);
        assert_eq!(p.place_cold(50), 300);
        assert_eq!(p.cold_used(), 350);
        assert_eq!(p.hot_used(), 0);
    }

    #[test]
    fn batch_plan_matches_streaming_placement() {
        let extents: Vec<FuncExtent> = [(100u64, 10u64), (4000, 0), (90, 33), (5000, 1)]
            .iter()
            .map(|&(h, c)| FuncExtent {
                hot_bytes: h,
                cold_bytes: c,
            })
            .collect();
        for opts in [
            LayoutPlanOptions::default(),
            LayoutPlanOptions::disabled(),
            LayoutPlanOptions {
                hugepage_pack: true,
                global_hotcold: false,
            },
        ] {
            let mut p = PagePacker::new(opts);
            let streamed: Vec<PlacedExtent> = extents
                .iter()
                .map(|e| PlacedExtent {
                    hot_offset: p.place_hot(e.hot_bytes),
                    cold_offset: p.place_cold(e.cold_bytes),
                })
                .collect();
            let plan = pack_extents(&extents, opts);
            assert_eq!(plan.placements, streamed);
            assert_eq!(plan.hot_used, p.hot_used());
            assert_eq!(plan.cold_used, p.cold_used());
            assert_eq!(plan.stats, p.stats());
        }
    }

    #[test]
    fn density_metric_reports_hot_bytes_per_page() {
        let mut p = PagePacker::with_page_bytes(LayoutPlanOptions::default(), 4096);
        p.place_hot(2048);
        p.place_hot(4000); // pads to bin 2
        assert_eq!(p.huge_pages_used(), 2);
        let density = p.hot_bytes_per_huge_page();
        assert!((density - (2048.0 + 4000.0) / 2.0).abs() < 1e-9);
    }
}
