//! Package distribution over cell links: who sends how many bytes to
//! whom, and when each consumer's download completes.
//!
//! The baseline distribution path re-sends the full sealed package to
//! every consumer on every push. With the content-addressed chunk store
//! a push ships the manifest plus only the chunks a consumer's cache
//! (warmed by the previous release it was just running) does not already
//! hold — and a lazy boot decodes only the hot closure's bytes before
//! serve-start.
//!
//! The model here prices that per cell: every Jump-Start consumer's
//! fetch goes through its cell's ingress link, a FIFO queue with a fixed
//! byte rate: one stable sort by start time and one scan, run on the
//! orchestrator thread *before* fan-out — so the computed download times
//! are part of every server's precomputed plan and the deployment report
//! stays bit-identical for any shard count.

use jumpstart::chunk::{delta_against, ChunkPool, Manifest};

/// Bandwidth/latency model for package distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistributionParams {
    /// Model distribution at all. Off = downloads are free and instant
    /// (the pre-chunk-store behavior, kept as the default so existing
    /// calibrations are untouched).
    pub enabled: bool,
    /// Ship chunk deltas against the consumer's previous-release cache
    /// and decode lazily; off = ship the full sealed package.
    pub chunked: bool,
    /// Cell ingress link budget, bytes per millisecond of fleet time
    /// (125_000 ≈ 1 Gbps).
    pub link_bytes_per_ms: u64,
    /// Fixed per-fetch latency (store lookup + RTT), ms.
    pub base_latency_ms: u64,
    /// Consumer-side decode cost, milliseconds per megabyte of chunk
    /// bytes decoded before serve-start.
    pub decode_ms_per_mb: f64,
}

impl Default for DistributionParams {
    fn default() -> Self {
        Self {
            enabled: false,
            chunked: true,
            link_bytes_per_ms: 125_000,
            base_latency_ms: 5,
            decode_ms_per_mb: 50.0,
        }
    }
}

impl DistributionParams {
    /// Enables the model with chunk-delta distribution (builder-style).
    pub fn chunked() -> Self {
        Self {
            enabled: true,
            chunked: true,
            ..Default::default()
        }
    }

    /// Enables the model with full-package distribution (the baseline
    /// the chunk store is measured against).
    pub fn full() -> Self {
        Self {
            enabled: true,
            chunked: false,
            ..Default::default()
        }
    }

    /// Sets the cell ingress link budget in megabits per second.
    pub fn with_link_mbps(mut self, mbps: u64) -> Self {
        self.link_bytes_per_ms = (mbps * 125).max(1);
        self
    }
}

/// One consumer's planned fetch, fed to [`simulate_cell_links`].
#[derive(Clone, Copy, Debug)]
pub struct Fetch {
    /// Cell index (each cell has its own ingress link).
    pub cell: usize,
    /// When the server starts fetching (its staggered restart), ms.
    pub start_ms: u64,
    /// Bytes this fetch puts on the cell's wire.
    pub bytes: u64,
}

/// What one fetch cost, in submission order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Milliseconds from fetch start to last byte (queueing + transfer +
    /// base latency).
    pub download_ms: u64,
    /// Milliseconds the fetch sat behind earlier transfers on the link.
    pub queue_ms: u64,
}

/// Serializes every fetch through its cell's FIFO ingress link. Returns
/// one outcome per fetch, in input order.
///
/// Transfers are serviced in arrival order (ties broken by submission
/// order — the sort is stable), each occupying the link for
/// `ceil(bytes / link_bytes_per_ms)` ms.
pub fn simulate_cell_links(
    fetches: &[Fetch],
    cells: usize,
    params: &DistributionParams,
) -> Vec<FetchOutcome> {
    let mut arrivals: Vec<usize> = (0..fetches.len()).collect();
    arrivals.sort_by_key(|&i| fetches[i].start_ms);
    let mut link_free_ms = vec![0u64; cells];
    let mut out = vec![FetchOutcome::default(); fetches.len()];
    for i in arrivals {
        let f = &fetches[i];
        debug_assert!(f.cell < cells);
        let start = f.start_ms.max(link_free_ms[f.cell]);
        let transfer = f.bytes.div_ceil(params.link_bytes_per_ms.max(1));
        link_free_ms[f.cell] = start + transfer;
        out[i] = FetchOutcome {
            download_ms: (start - f.start_ms) + transfer + params.base_latency_ms,
            queue_ms: start - f.start_ms,
        };
    }
    out
}

/// What a push would send to a consumer holding `cache`, and how many of
/// the payload's bytes a lazy boot decodes before serve-start.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PackageWire {
    /// Bytes on the wire for this consumer.
    pub bytes_on_wire: u64,
    /// Bytes the full-package baseline would send.
    pub bytes_full: u64,
    /// Manifest portion of the wire bytes (0 for full-package sends).
    pub manifest_bytes: u64,
    /// Chunks shipped (cache misses).
    pub chunks_sent: u64,
    /// Chunks served from the consumer's cache.
    pub chunks_cached: u64,
    /// Fraction of payload bytes decoded before serve-start (head + tail
    /// + the hot closure at `early_serve_frac`; 1.0 for monolithic).
    pub early_decode_frac: f64,
}

/// Prices one package fetch for a consumer whose chunk cache holds the
/// previous release (`cache`), under `early_serve_frac` lazy decode.
pub fn package_wire(
    man: Option<&Manifest>,
    full_bytes: u64,
    cache: &ChunkPool,
    early_serve_frac: f64,
    params: &DistributionParams,
) -> PackageWire {
    let Some(man) = man.filter(|_| params.chunked) else {
        return PackageWire {
            bytes_on_wire: full_bytes,
            bytes_full: full_bytes,
            early_decode_frac: 1.0,
            ..Default::default()
        };
    };
    let d = delta_against(man, cache);
    PackageWire {
        bytes_on_wire: d.wire_bytes(),
        bytes_full: full_bytes,
        manifest_bytes: d.manifest_bytes,
        chunks_sent: d.chunks_sent as u64,
        chunks_cached: d.chunks_reused as u64,
        early_decode_frac: man.early_decode_frac(early_serve_frac),
    }
}

/// Fleet-wide distribution accounting for one push.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DistributionReport {
    /// Whether the model ran (off = every other field is zero).
    pub enabled: bool,
    /// Whether deltas + lazy decode were used (vs full packages).
    pub chunked: bool,
    /// Bytes the full-package baseline would have sent to consumers.
    pub bytes_full: u64,
    /// Bytes actually sent to consumers.
    pub bytes_on_wire: u64,
    /// Manifest portion of `bytes_on_wire`.
    pub manifest_bytes: u64,
    /// Chunk-cache misses across all consumer fetches.
    pub chunks_sent: u64,
    /// Chunk-cache hits across all consumer fetches.
    pub chunks_cached: u64,
    /// Seeder→store payload bytes published (with repetition).
    pub publish_bytes_total: u64,
    /// Seeder→store payload bytes actually retained by the store pools.
    pub publish_bytes_new: u64,
    /// Mean consumer download time, ms.
    pub mean_download_ms: f64,
    /// Slowest consumer download, ms.
    pub max_download_ms: u64,
}

impl DistributionReport {
    /// Consumer wire bytes as a fraction of the full-package baseline.
    pub fn wire_ratio(&self) -> f64 {
        if self.bytes_full == 0 {
            return 1.0;
        }
        self.bytes_on_wire as f64 / self.bytes_full as f64
    }

    /// Fraction of published bytes the store pools deduplicated away.
    pub fn store_dedup_ratio(&self) -> f64 {
        if self.publish_bytes_total == 0 {
            return 0.0;
        }
        1.0 - self.publish_bytes_new as f64 / self.publish_bytes_total as f64
    }

    /// Chunk-cache hit rate across consumer fetches.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.chunks_sent + self.chunks_cached;
        if total == 0 {
            return 0.0;
        }
        self.chunks_cached as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(link: u64) -> DistributionParams {
        DistributionParams {
            enabled: true,
            link_bytes_per_ms: link,
            base_latency_ms: 2,
            ..DistributionParams::chunked()
        }
    }

    #[test]
    fn fifo_link_serializes_concurrent_fetches() {
        // Two servers in cell 0 fetch 1000 bytes at t=0 over a
        // 100-bytes/ms link: the second queues behind the first.
        let fetches = [
            Fetch {
                cell: 0,
                start_ms: 0,
                bytes: 1000,
            },
            Fetch {
                cell: 0,
                start_ms: 0,
                bytes: 1000,
            },
            Fetch {
                cell: 1,
                start_ms: 0,
                bytes: 1000,
            },
        ];
        let out = simulate_cell_links(&fetches, 2, &p(100));
        assert_eq!(
            out[0],
            FetchOutcome {
                download_ms: 12,
                queue_ms: 0
            }
        );
        assert_eq!(
            out[1],
            FetchOutcome {
                download_ms: 22,
                queue_ms: 10
            }
        );
        // Cell 1 has its own link: no queueing.
        assert_eq!(
            out[2],
            FetchOutcome {
                download_ms: 12,
                queue_ms: 0
            }
        );
    }

    #[test]
    fn staggered_fetches_avoid_queueing() {
        let fetches = [
            Fetch {
                cell: 0,
                start_ms: 0,
                bytes: 500,
            },
            Fetch {
                cell: 0,
                start_ms: 100,
                bytes: 500,
            },
        ];
        let out = simulate_cell_links(&fetches, 1, &p(100));
        assert_eq!(out[0].queue_ms, 0);
        assert_eq!(out[1].queue_ms, 0, "the link drained before t=100");
    }

    #[test]
    fn link_sim_is_input_order_deterministic() {
        let fetches: Vec<Fetch> = (0..50)
            .map(|i| Fetch {
                cell: (i % 3) as usize,
                start_ms: (i * 7) % 40,
                bytes: 10_000 + i * 13,
            })
            .collect();
        let a = simulate_cell_links(&fetches, 3, &p(1_000));
        let b = simulate_cell_links(&fetches, 3, &p(1_000));
        assert_eq!(a, b);
    }

    #[test]
    fn full_package_wire_ignores_cache() {
        let w = package_wire(None, 5000, &ChunkPool::new(), 0.25, &p(100));
        assert_eq!(w.bytes_on_wire, 5000);
        assert_eq!(w.early_decode_frac, 1.0);
        assert_eq!(w.chunks_cached, 0);
    }
}
