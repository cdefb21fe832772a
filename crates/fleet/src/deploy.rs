//! The continuous-deployment pipeline at paper scale: C1 → C2 (seeders) →
//! C3 (consumers), per §II-C and §IV-A.
//!
//! Every stage is a list of independent jobs on one ordered pool: up to
//! [`FleetShape::shards`] threads each take the next job as soon as they
//! finish one, and the orchestrator takes the results strictly in job
//! order. What a job computes is fixed by the deployment seed and its own
//! key, never by the thread it runs on or what runs beside it, so the
//! report and its work counters are bit-identical for any shard count
//! (proved by `tests/event_equivalence.rs`):
//!
//! 1. **C2 seeding.** As in the paper, every cell has its own seeders.
//!    Each (release, region, bucket, seeder) job rolls its [`FaultPlan`]
//!    faults (a crashed or an undersampled seeder), profiles its cell's
//!    traffic, builds a package, validates it and cuts it into chunks. A
//!    prior release's seeders (into a shadow store: the consumers' chunk
//!    cache) follow the pushed release's in one job list. The
//!    orchestrator inserts each package into the store, or counts each
//!    failure, once every earlier job's is: package ids, chunk dedup and
//!    every cell's package order are those of a one-at-a-time run.
//! 2. **Per-cell inputs, once.** One job per (region, bucket) cell
//!    prepares its consumer-side inputs: the request mix, the measured
//!    [`AppModel`], every published package decoded once and priced on
//!    the wire. All of it is shared read-only with every server in the
//!    cell — 2000 consumers cost one deserialization, not 2000.
//! 3. **Fan-out, a whole cell per job.** Every server (Jump-Start
//!    consumers and no-Jump-Start baselines) becomes a [`Slot`] whose
//!    randomized decisions — restart stagger, boot-time jitter,
//!    degraded-host roll, package pick — are drawn up front from a
//!    per-server RNG stream keyed only by the deployment seed and the
//!    server's global id. A cell's job builds its [`ServerPlan`], runs its
//!    servers one at a time and reduces each run in place: classify the
//!    timeline, fold it into the cell's [`WarmupAccumulator`], compact it
//!    to a [`ServerStat`]. Servers of one cell differ only in jitter, host
//!    and download rolls, which move only when serving starts. Their
//!    serving steps then repeat exactly whenever they agree on the
//!    package, the non-boot calibration, a baseline's point-A step and,
//!    on a degrading host, the first step's end (the life key; the
//!    argument is in [`crate::server`]'s docs). So the cell's servers run
//!    through one [`Lives`] cache: each distinct life is stepped once per
//!    deployment, every server reads its samples, requests and lifecycle
//!    points off one, shifted to its own clock and cut at its own window.
//!    On the fixed sample grid the post-serve series then mostly repeat
//!    too, so the accumulator classifies each distinct one once.
//! 4. **Fold.** Cells are gid-contiguous: appending each cell's stats and
//!    representatives as it comes in keeps gid order. The orchestrator
//!    then sums in gid order and summarizes the two arms side by side.
//!
//! Each stage is a telemetry span on the orchestrator's track:
//! `c2-seeding` (one `publish` per package), `c3-fanout` (ending with the
//! `lives` simulated and the `life_steps` they took) and `fold`, inside
//! `deployment`. A job opens its `seeder`, `cell-prep` or `cell-fanout`
//! span (the last also ending with its `lives` and `life_steps`) on the
//! track of the thread that runs it, the orchestrator's included.
//!
//! Memory stays flat at scale: no job starts far ahead of the oldest
//! result not yet taken, a thread holds one cell's lives and series at a
//! time, and only each cell's representatives keep their timeline (and
//! with it a Chrome-trace track). Every server leaves a compact
//! [`ServerStat`]; those feed the fleet-wide percentiles via
//! [`telemetry::aggregate_values`].

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

use jit::JitOptions;
use jumpstart::chunk::ChunkPool;
use jumpstart::{
    build_package, chunk_package, JumpStartOptions, PackageStore, ProfilePackage, SeederInputs,
    Validator,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use workload::{App, RequestMix};

use crate::distribution::{
    package_wire, simulate_cell_links, DistributionParams, DistributionReport, Fetch, PackageWire,
};
use crate::export::timelines_to_trace_capped;
use crate::faults::FaultPlan;
use crate::metrics::Timeline;
use crate::model::{
    build_app_model_with, measure_endpoint_calls, AppModel, EndpointCalls, WarmupParams,
};
use crate::server::{Lives, ServerPlan};
use crate::warmup::{WarmupAccumulator, WarmupAnalysisParams, WarmupClass, WarmupReport};

/// Most servers a single Chrome trace will carry per group; beyond this
/// the export drops tracks (recorded in the trace's `dropped` count).
const MAX_TRACE_TRACKS: usize = 64;
/// Most samples per Chrome-trace counter series; longer timelines are
/// thinned with an even stride.
const MAX_TRACE_SAMPLES: usize = 2_000;

/// How many servers of each kind a deployment simulates per (region,
/// bucket) cell, and how the work is spread over OS threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetShape {
    /// Jump-Start consumers per cell.
    pub servers_per_cell: u32,
    /// No-Jump-Start baseline servers per cell (the control group the
    /// capacity-loss reduction is measured against).
    pub baselines_per_cell: u32,
    /// Servers per cell (of each kind) that keep a full timeline and a
    /// Chrome-trace track; the rest are compact stats only.
    pub representatives_per_cell: u32,
    /// OS threads the deployment runs on: every stage's jobs go to at most
    /// this many, and zero runs as one. The report and every [`ShardStats`]
    /// counter but `shards` are bit-identical for any value; this only
    /// changes wall time.
    pub shards: u32,
    /// Restarts are staggered uniformly over this window (ms of fleet
    /// time), like a real rolling push. Timelines are in each server's
    /// own clock, so this only orders package fetches on the cell links.
    pub restart_stagger_ms: u64,
    /// Per-server boot-time jitter: init/deserialize costs are scaled by
    /// a factor drawn uniformly from `1000 ± jitter` per-mille.
    pub jitter_per_mille: u16,
}

impl Default for FleetShape {
    fn default() -> Self {
        Self {
            servers_per_cell: 1,
            baselines_per_cell: 1,
            representatives_per_cell: 1,
            shards: 1,
            restart_stagger_ms: 0,
            jitter_per_mille: 0,
        }
    }
}

impl FleetShape {
    /// Sets consumers and baselines per cell (builder-style).
    pub fn with_servers(mut self, consumers: u32, baselines: u32) -> Self {
        self.servers_per_cell = consumers;
        self.baselines_per_cell = baselines;
        self
    }

    /// Sets how many servers per cell keep their timeline.
    pub fn with_representatives(mut self, n: u32) -> Self {
        self.representatives_per_cell = n;
        self
    }

    /// Sets the shard (thread) count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the rolling-restart stagger window.
    pub fn with_stagger(mut self, window_ms: u64) -> Self {
        self.restart_stagger_ms = window_ms;
        self
    }

    /// Sets the per-server boot-time jitter.
    pub fn with_jitter(mut self, per_mille: u16) -> Self {
        self.jitter_per_mille = per_mille.min(999);
        self
    }
}

/// Deployment parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeployParams {
    /// Data-center regions.
    pub regions: u32,
    /// Semantic buckets per region.
    pub buckets: u32,
    /// Seeders per (region, bucket) cell (§VI-A.2 recommends several).
    pub seeders_per_cell: u32,
    /// Requests each seeder profiles during C2.
    pub seeder_requests: usize,
    /// Warmup calibration for the C3 consumers.
    pub warmup: WarmupParams,
    /// Jump-Start options.
    pub js_opts: JumpStartOptions,
    /// JIT options.
    pub jit_opts: JitOptions,
    /// Fleet size and sharding.
    pub fleet: FleetShape,
    /// Injected failures (crashed seeders, drained cells, slow hosts).
    pub faults: FaultPlan,
    /// Package distribution model (off by default: downloads are free,
    /// matching the pre-chunk-store calibration).
    pub distribution: DistributionParams,
    /// Warmup-classification tuning (segmentation penalty, steady band,
    /// bootstrap CI seeding).
    pub analysis: WarmupAnalysisParams,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeployParams {
    fn default() -> Self {
        Self {
            regions: 2,
            buckets: 2,
            seeders_per_cell: 2,
            seeder_requests: 150,
            warmup: WarmupParams::fig4(),
            js_opts: JumpStartOptions::default(),
            jit_opts: JitOptions::default(),
            fleet: FleetShape::default(),
            faults: FaultPlan::default(),
            distribution: DistributionParams::default(),
            analysis: WarmupAnalysisParams::default(),
            seed: 1,
        }
    }
}

impl DeployParams {
    /// Sets the (region, bucket) grid (builder-style).
    pub fn with_cells(mut self, regions: u32, buckets: u32) -> Self {
        self.regions = regions;
        self.buckets = buckets;
        self
    }

    /// Sets C2 seeder count and profiling depth per cell.
    pub fn with_seeders(mut self, per_cell: u32, requests: usize) -> Self {
        self.seeders_per_cell = per_cell;
        self.seeder_requests = requests;
        self
    }

    /// Sets the consumer warmup calibration.
    pub fn with_warmup(mut self, warmup: WarmupParams) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the Jump-Start (validation) options.
    pub fn with_js_opts(mut self, js_opts: JumpStartOptions) -> Self {
        self.js_opts = js_opts;
        self
    }

    /// Sets the fleet shape.
    pub fn with_fleet(mut self, fleet: FleetShape) -> Self {
        self.fleet = fleet;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the package-distribution model.
    pub fn with_distribution(mut self, distribution: DistributionParams) -> Self {
        self.distribution = distribution;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn cells(&self) -> usize {
        self.regions as usize * self.buckets as usize
    }
}

/// Compact per-server outcome — what every server contributes to the
/// fleet percentiles, whether or not it kept its timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerStat {
    /// Global server id (stable across shard counts).
    pub gid: u32,
    /// Data-center region.
    pub region: u32,
    /// Semantic bucket.
    pub bucket: u32,
    /// Whether the server booted with a Jump-Start package.
    pub jumpstart: bool,
    /// Whether the fault plan placed it on a degraded host.
    pub slow_host: bool,
    /// Whether the fault plan placed it on a *degrading* host (service
    /// time inflating with uptime).
    pub degrading: bool,
    /// Warmup class assigned by the changepoint classifier.
    pub class: WarmupClass,
    /// Time-to-steady-state (ms from restart; `Warmup`/`Flat` only).
    pub steady_ms: Option<u64>,
    /// Boot time (ms from its own restart to serving).
    pub boot_ms: u64,
    /// First time normalized RPS reached 0.9 (ms), if ever.
    pub ready_ms: Option<u64>,
    /// Capacity loss over its simulated duration.
    pub capacity_loss: f64,
    /// Requests served over the simulated duration.
    pub requests: f64,
    /// Steps the driver actually computed for this server.
    pub steps_executed: u64,
    /// Steps the dense reference stepper would have computed.
    pub steps_dense: u64,
    /// Package bytes this server pulled over its cell link (0 when the
    /// distribution model is off or the server booted without a package).
    pub bytes_on_wire: u64,
    /// Package download time including link queueing (ms; 0 when the
    /// distribution model is off).
    pub download_ms: u64,
}

/// Step accounting for one deployment run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Shards (OS threads) the fleet ran on.
    pub shards: u32,
    /// Total servers simulated (consumers + baselines).
    pub servers: usize,
    /// Serving steps servers were woken for while active, fleet-wide.
    pub events: u64,
    /// Steps actually computed: `events` plus one steady step per
    /// fast-forwarded server (boot windows are closed-form).
    pub steps_executed: u64,
    /// Steps a dense per-second stepper would have computed.
    pub steps_dense: u64,
    /// Requests served across the fleet.
    pub requests: f64,
    /// Timelines the warmup classifier actually ran on, i.e. the distinct
    /// timelines the fold stored: the rest were exact repeats answered by
    /// its per-cell memo.
    pub classified: u64,
    /// Distinct server lives the fan-out simulated: every other server
    /// re-used the steps of one of these.
    pub lives: u64,
    /// Serving steps those lives computed — the simulation work behind
    /// `steps_executed`, which counts steps per server.
    pub life_steps: u64,
}

/// Outcome of one push.
#[derive(Debug)]
pub struct DeployReport {
    /// Packages published after validation.
    pub published: usize,
    /// Seeder packages rejected by validation.
    pub validation_failures: usize,
    /// Seeders that crashed before publishing (fault injection).
    pub seeder_crashes: usize,
    /// Representative consumer warmup timelines (Jump-Start).
    pub js_timelines: Vec<Timeline>,
    /// Representative baseline timelines (no Jump-Start).
    pub nojs_timelines: Vec<Timeline>,
    /// Compact outcome for every server in the fleet, in gid order.
    pub stats: Vec<ServerStat>,
    /// Simulated duration per server (ms) — the window every
    /// [`ServerStat::capacity_loss`] is taken over.
    pub duration_ms: u64,
    /// Step accounting.
    pub sim: ShardStats,
    /// Distribution-model accounting (all-zero when the model is off).
    pub distribution: DistributionReport,
    /// Changepoint-based warmup classification of every server (per-class
    /// fractions per arm, time-to-steady-state percentiles with bootstrap
    /// CIs, and the median fleet warmup curve).
    pub warmup: WarmupReport,
}

impl DeployReport {
    /// Mean capacity loss over `window_ms` with Jump-Start: across the
    /// whole fleet when `window_ms` is the simulated duration, across the
    /// representatives (who alone keep a timeline; 0 if there are none)
    /// for any other window.
    pub fn mean_loss_js(&self, window_ms: u64) -> f64 {
        self.mean_loss(window_ms, true)
    }

    /// [`DeployReport::mean_loss_js`] for the no-Jump-Start baselines.
    pub fn mean_loss_nojs(&self, window_ms: u64) -> f64 {
        self.mean_loss(window_ms, false)
    }

    fn mean_loss(&self, window_ms: u64, jumpstart: bool) -> f64 {
        if window_ms == self.duration_ms {
            return mean(
                self.stats
                    .iter()
                    .filter(|s| s.jumpstart == jumpstart)
                    .map(|s| s.capacity_loss),
            );
        }
        let tls = if jumpstart {
            &self.js_timelines
        } else {
            &self.nojs_timelines
        };
        mean(tls.iter().map(|t| t.capacity_loss_over(window_ms)))
    }

    /// The headline metric: relative reduction in capacity loss (the paper
    /// reports 54.9% over the first 10 minutes).
    pub fn capacity_loss_reduction(&self, window_ms: u64) -> f64 {
        let nojs = self.mean_loss_nojs(window_ms);
        if nojs == 0.0 {
            0.0
        } else {
            (nojs - self.mean_loss_js(window_ms)) / nojs * 100.0
        }
    }

    /// Folds every Jump-Start consumer — not just the representatives —
    /// into fleet-wide percentiles (p50/p95/p99 of boot time, ready time,
    /// capacity loss) from the compact stats.
    pub fn fleet_aggregate(&self) -> telemetry::FleetAggregate {
        let js: Vec<&ServerStat> = self.stats.iter().filter(|s| s.jumpstart).collect();
        let boot: Vec<f64> = js.iter().map(|s| s.boot_ms as f64).collect();
        let ready: Vec<f64> = js
            .iter()
            .filter_map(|s| s.ready_ms.map(|r| r as f64))
            .collect();
        let loss: Vec<f64> = js.iter().map(|s| s.capacity_loss).collect();
        let requests: Vec<f64> = js.iter().map(|s| s.requests).collect();
        let steady: Vec<f64> = js
            .iter()
            .filter_map(|s| s.steady_ms.map(|t| t as f64))
            .collect();
        let mut series = vec![
            ("server.boot_ms", boot),
            ("server.ready_ms", ready),
            ("server.capacity_loss", loss),
            ("server.requests", requests),
            ("server.steady_ms", steady),
        ];
        if self.distribution.enabled {
            series.push((
                "server.bytes_on_wire",
                js.iter().map(|s| s.bytes_on_wire as f64).collect(),
            ));
            series.push((
                "server.download_ms",
                js.iter().map(|s| s.download_ms as f64).collect(),
            ));
        }
        telemetry::aggregate_values(js.len(), &series)
    }

    /// A deterministic fingerprint of the run: every per-server outcome
    /// plus the seeding counters, CRC'd bit-exactly. Identical across
    /// shard counts and hosts; `jsfleet --check` pins it in CI.
    pub fn digest(&self) -> u32 {
        // Three counters, then per server: gid, four flag bytes and eight
        // 8-byte fields.
        const PER_SERVER: usize = 4 + 4 + 8 * 8;
        let len = 24 + self.stats.len() * PER_SERVER;
        let mut buf = Vec::with_capacity(len);
        for n in [
            self.published as u64,
            self.validation_failures as u64,
            self.seeder_crashes as u64,
        ] {
            buf.extend_from_slice(&n.to_le_bytes());
        }
        for s in &self.stats {
            buf.extend_from_slice(&s.gid.to_le_bytes());
            buf.push(s.jumpstart as u8);
            buf.push(s.slow_host as u8);
            buf.push(s.degrading as u8);
            buf.push(s.class.code());
            buf.extend_from_slice(&s.steady_ms.unwrap_or(u64::MAX).to_le_bytes());
            buf.extend_from_slice(&s.boot_ms.to_le_bytes());
            buf.extend_from_slice(&s.ready_ms.unwrap_or(u64::MAX).to_le_bytes());
            buf.extend_from_slice(&s.capacity_loss.to_bits().to_le_bytes());
            buf.extend_from_slice(&s.requests.to_bits().to_le_bytes());
            buf.extend_from_slice(&s.steps_executed.to_le_bytes());
            buf.extend_from_slice(&s.bytes_on_wire.to_le_bytes());
            buf.extend_from_slice(&s.download_ms.to_le_bytes());
        }
        debug_assert_eq!(buf.len(), len);
        jumpstart::crc32(&buf)
    }

    /// Renders the representatives as a Chrome trace: one process per
    /// server (Jump-Start consumers first, then the no-Jump-Start
    /// baselines), lifecycle points as instants, RPS and code-size curves
    /// as counters — capped and downsampled so paper-scale fleets stay
    /// loadable in Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut trace = timelines_to_trace_capped(
            &self.js_timelines,
            "jumpstart",
            MAX_TRACE_TRACKS,
            MAX_TRACE_SAMPLES,
        );
        let baseline = timelines_to_trace_capped(
            &self.nojs_timelines,
            "baseline",
            MAX_TRACE_TRACKS,
            MAX_TRACE_SAMPLES,
        );
        let offset = trace.tracks.len() as u64;
        for mut t in baseline.tracks {
            t.id += offset;
            t.pid += offset as u32;
            trace.tracks.push(t);
        }
        trace.dropped += baseline.dropped;
        trace.to_chrome_json()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One cell's read-only consumer inputs, prepared once and shared by
/// every server in the cell. The cell's [`ServerPlan`] borrows `model`
/// and is built by the cell's fan-out job.
struct CellData {
    region: u32,
    bucket: u32,
    mix: RequestMix,
    model: AppModel,
    /// The cell's published packages, deserialized once.
    packages: Vec<ProfilePackage>,
    /// Per-package wire pricing against the cell's previous-release chunk
    /// cache (parallel to `packages`; zeros when distribution is off).
    wire: Vec<PackageWire>,
}

/// What a cell's fan-out job hands back: its servers, reduced.
struct CellResult {
    stats: Vec<ServerStat>,
    /// The timelines of the cell's representatives, the only ones that
    /// outlive their server's turn: `[Jump-Start, baseline]`, in gid order.
    timelines: [Vec<Timeline>; 2],
    warmup: WarmupAccumulator,
    /// The cell's `events`, `lives` and `life_steps`.
    sim: ShardStats,
}

/// What a cell's fan-out reads off one server's run, kept per (life,
/// serve start) for the servers that repeat the pair.
#[derive(Clone, Copy)]
struct Answer {
    /// The server's entry in the cell's warmup accumulator.
    entry: usize,
    boot_ms: u64,
    ready_ms: Option<u64>,
    capacity_loss: f64,
    requests: f64,
    events: u64,
    steps_executed: u64,
    steps_dense: u64,
}

/// One server's precomputed rolls. All randomness is consumed here,
/// sequentially in gid order, before the fan-out starts.
struct Slot {
    cell: usize,
    jumpstart: bool,
    representative: bool,
    /// Index into the cell's decoded packages (§VI-A.2 randomized pick).
    pkg: Option<usize>,
    params: WarmupParams,
    slow_host: bool,
    degrading: bool,
    stagger_ms: u64,
    /// Combined jitter × slow-host scaling already applied to this slot's
    /// I/O costs (per-mille) — the distribution model re-applies it to
    /// the host-bound decode share of its deserialize override.
    io_factor_pm: u64,
    /// Filled by the distribution model: bytes pulled over the cell link.
    bytes_on_wire: u64,
    /// Filled by the distribution model: download time incl. queueing.
    download_ms: u64,
}

fn scale_ms(ms: u64, pct: u64) -> u64 {
    ms * pct / 100
}

/// The rolls of server `k` of cell `cell`: its consumers come first, then
/// its baselines.
fn build_slot(gid: u32, cell: usize, k: u32, data: &CellData, p: &DeployParams) -> Slot {
    let baseline = k.checked_sub(p.fleet.servers_per_cell);
    let jumpstart = baseline.is_none();
    // A splitmix-style spread keeps neighboring gids' streams uncorrelated.
    let mut rng =
        SmallRng::seed_from_u64(p.seed ^ (gid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let stagger_ms = if p.fleet.restart_stagger_ms > 0 {
        rng.gen_range(0..p.fleet.restart_stagger_ms)
    } else {
        0
    };
    let mut params = p.warmup;
    let mut io_factor_pm: u64 = 1000;
    if p.fleet.jitter_per_mille > 0 {
        let j = p.fleet.jitter_per_mille as u64;
        let factor_pm = 1000 - j + rng.gen_range(0..2 * j + 1);
        params.init_ms_nojs = params.init_ms_nojs * factor_pm / 1000;
        params.init_ms_js = params.init_ms_js * factor_pm / 1000;
        params.deserialize_ms = params.deserialize_ms * factor_pm / 1000;
        io_factor_pm = factor_pm;
    }
    let slow_host = FaultPlan::roll(&mut rng, p.faults.slow_consumer_per_mille);
    if slow_host {
        let pct = p.faults.slow_factor_pct.max(100) as u64;
        params.init_ms_nojs = scale_ms(params.init_ms_nojs, pct);
        params.init_ms_js = scale_ms(params.init_ms_js, pct);
        params.deserialize_ms = scale_ms(params.deserialize_ms, pct);
        params.compile_bytes_per_core_ms = params.compile_bytes_per_core_ms * 100.0 / pct as f64;
        io_factor_pm = io_factor_pm * pct / 100;
    }
    let pkg = if jumpstart && !data.packages.is_empty() {
        Some(rng.gen_range(0..data.packages.len()))
    } else {
        None
    };
    // The degrading roll is the stream's LAST draw: plans with a zero
    // rate replay byte-identical RNG streams from before the fault
    // existed, so historical digests stay pinned.
    let degrading = FaultPlan::roll(&mut rng, p.faults.degrading_per_mille);
    if degrading {
        params.degrade_per_mille_per_min = p.faults.degrade_per_mille_per_min;
    }
    Slot {
        cell,
        jumpstart,
        representative: baseline.unwrap_or(k) < p.fleet.representatives_per_cell,
        pkg,
        params,
        slow_host,
        degrading,
        stagger_ms,
        io_factor_pm,
        bytes_on_wire: 0,
        download_ms: 0,
    }
}

/// Counters from seeding one app release into a store.
#[derive(Clone, Copy, Debug, Default)]
struct SeedOutcome {
    published: usize,
    validation_failures: usize,
    seeder_crashes: usize,
    /// Payload bytes the seeders pushed at the store (with repetition).
    publish_bytes_total: u64,
    /// Payload bytes the store's chunk pools actually retained.
    publish_bytes_new: u64,
}

/// Runs `work` on every job in `0..jobs` and hands the results to `sink`
/// strictly in job order. Up to `min(width, jobs)` threads, the calling
/// thread among them, each take the next job off a shared counter, so a
/// slow job holds up only the thread running it. `sink` runs on the
/// calling thread, on each result once every earlier one is sunk and as
/// soon as that thread is between jobs: whatever it does happens as in a
/// one-at-a-time run, for any `width`. No job starts `2 · width` or more
/// places past the oldest result not yet sunk, so while every thread is
/// busy at most `width` results wait. A job's panic is raised again on
/// the calling thread in its turn.
fn map_ordered<R: Send>(
    jobs: usize,
    width: usize,
    work: impl Fn(usize) -> R + Sync,
    mut sink: impl FnMut(R),
) {
    let threads = width.min(jobs);
    if threads <= 1 {
        return (0..jobs).map(work).for_each(sink);
    }
    /// `done[i]` holds job `i`'s result from when it is in until it is sunk.
    struct Queue<R> {
        next: usize,
        sunk: usize,
        done: Vec<Option<std::thread::Result<R>>>,
    }
    let queue = Mutex::new(Queue {
        next: 0,
        sunk: 0,
        done: (0..jobs).map(|_| None).collect(),
    });
    let changed = Condvar::new();
    const UNPOISONED: &str = "no thread panics holding the queue's lock";
    let lock = || queue.lock().expect(UNPOISONED);
    let blocked = |q: &mut Queue<R>| q.next < jobs && q.next >= q.sunk + 2 * threads;
    let run = |mut q: MutexGuard<Queue<R>>| {
        let i = q.next;
        q.next += 1;
        drop(q);
        let result = panic::catch_unwind(AssertUnwindSafe(|| work(i)));
        lock().done[i] = Some(result);
        changed.notify_all();
    };
    std::thread::scope(|scope| {
        let spawn = |_| {
            scope.spawn(|| loop {
                let q = changed.wait_while(lock(), blocked).expect(UNPOISONED);
                if q.next == jobs {
                    return;
                }
                run(q);
            })
        };
        let helpers: Vec<_> = (1..threads).map(spawn).collect();
        let mut q = lock();
        while q.sunk < jobs {
            let head = q.sunk;
            if let Some(result) = q.done[head].take() {
                q.sunk += 1;
                drop(q);
                changed.notify_all();
                let sunk = result.and_then(|r| panic::catch_unwind(AssertUnwindSafe(|| sink(r))));
                if let Err(payload) = sunk {
                    // Start nothing more: the threads run out and end.
                    lock().next = jobs;
                    changed.notify_all();
                    panic::resume_unwind(payload);
                }
            } else if q.next < jobs && !blocked(&mut q) {
                run(q);
            } else {
                q = changed.wait(q).expect(UNPOISONED);
                continue;
            }
            q = lock();
        }
        drop(q);
        // Unlike the scope's end, `join` waits until each thread has
        // exited and handed its malloc arena on to the next pool's.
        for helper in helpers {
            helper.join().expect("jobs catch their panics");
        }
    });
}

/// Every (region, bucket) cell of the grid, in region-major order.
fn cell_ids(params: &DeployParams) -> Vec<(u32, u32)> {
    (0..params.regions)
        .flat_map(|r| (0..params.buckets).map(move |b| (r, b)))
        .collect()
}

/// Why a C2 seeder published nothing.
enum SeederFailure {
    /// Died mid-profile: nothing reached validation.
    Crashed,
    /// Its package failed validation.
    Rejected,
}

/// One C2 seeder: the fault rolls, then profile, build and validate,
/// ending in a package to publish. The RNG stream is keyed only by the
/// deployment seed and (region, bucket, seeder), so the outcome does not
/// depend on where or when it runs.
fn run_seeder(
    app: &App,
    params: &DeployParams,
    validator: &Validator,
    (region, bucket, s): (u32, u32, u32),
) -> Result<ProfilePackage, SeederFailure> {
    let _span = telemetry::span!("seeder", "region" => region, "bucket" => bucket, "seeder" => s);
    let seed = params.seed ^ (region as u64) << 32 ^ (bucket as u64) << 16 ^ s as u64;
    let mut frng = SmallRng::seed_from_u64(seed ^ 0xfa17);
    if FaultPlan::roll(&mut frng, params.faults.seeder_crash_per_mille) {
        return Err(SeederFailure::Crashed);
    }
    let requests = if FaultPlan::roll(&mut frng, params.faults.undersample_per_mille) {
        // Drained cell (§VI-B): almost no traffic to profile.
        params.seeder_requests.min(2)
    } else {
        params.seeder_requests
    };
    let mix = RequestMix::new(app, region as usize, bucket as usize);
    let profile_span = telemetry::span!("seed-profile", "requests" => requests);
    let run = workload::profile_run(app, &mix, requests, seed);
    drop(profile_span);
    let pkg = build_package(
        SeederInputs {
            repo: &app.repo,
            tier: run.tier,
            ctx: run.ctx,
            unit_order: run.unit_order,
            requests: run.requests,
            region,
            bucket,
            seeder_id: seed,
            now_ms: 0,
        },
        &params.js_opts,
        &params.jit_opts,
    );
    match validator.validate_package(&app.repo, &pkg, 0) {
        Ok(_) => Ok(pkg),
        Err(_) => Err(SeederFailure::Rejected),
    }
}

/// C2 for every release in `releases` (the pushed one first) as one job
/// list: each cell's seeders profile their traffic, validate and chunk
/// their package, which the calling thread inserts into their release's
/// store in (release, region, bucket, seeder) order. A prior release is
/// seeded with the same params: the same seeder fleet against the old
/// code, which is exactly the chunk cache a consumer holds. Returns the
/// pushed release's counters.
fn seed_stores(params: &DeployParams, releases: &[(&App, &PackageStore)]) -> SeedOutcome {
    let _seed_span = telemetry::span!("c2-seeding", "cells" => params.cells() as u64);
    let validator = Validator::new(params.js_opts, params.jit_opts);
    let mut jobs = Vec::new();
    for r in 0..releases.len() {
        for (region, bucket) in cell_ids(params) {
            jobs.extend((0..params.seeders_per_cell).map(|s| (r, (region, bucket, s))));
        }
    }
    let mut outs = vec![SeedOutcome::default(); releases.len()];
    map_ordered(
        jobs.len(),
        params.fleet.shards as usize,
        |j| {
            // Serializing and chunking need no order; only the store
            // insert (which numbers packages and dedups chunks) does.
            let (r, seeder) = jobs[j];
            let app = releases[r].0;
            let seeded = run_seeder(app, params, &validator, seeder)
                .map(|pkg| (pkg.meta, chunk_package(&pkg, app.repo.funcs().len())));
            (r, seeded)
        },
        |(r, seeded)| {
            let (store, out) = (releases[r].1, &mut outs[r]);
            match seeded {
                Err(SeederFailure::Crashed) => out.seeder_crashes += 1,
                Err(SeederFailure::Rejected) => out.validation_failures += 1,
                Ok((meta, chunked)) => {
                    let _span = telemetry::span!("publish", "seeder" => meta.seeder_id);
                    let (_, receipt) = store.insert_chunked(meta, chunked);
                    out.publish_bytes_total += receipt.bytes_total;
                    out.publish_bytes_new += receipt.bytes_new;
                    out.published += 1;
                }
            }
        },
    );
    outs[0]
}

/// One cell's consumer-side inputs: its request mix, the [`AppModel`]
/// measured on that mix (sharing the deployment's `endpoint_calls`), the
/// packages `releases[0]` published to it decoded once, and their wire
/// pricing against `releases[1]`'s chunk pool for the cell, if any.
fn prepare_cell(
    params: &DeployParams,
    releases: &[(&App, &PackageStore)],
    endpoint_calls: &EndpointCalls,
    (region, bucket): (u32, u32),
) -> CellData {
    let _span = telemetry::span!("cell-prep", "region" => region, "bucket" => bucket);
    let ((app, store), prior_store) = (releases[0], releases.get(1).map(|r| r.1));
    let mix = RequestMix::new(app, region as usize, bucket as usize);
    // The consumer's model is measured on its own cell's traffic.
    let truth_span = telemetry::span!("truth-profile", "requests" => params.seeder_requests);
    let truth = workload::profile_run(app, &mix, params.seeder_requests, params.seed ^ 0xdead);
    drop(truth_span);
    let model_span = telemetry::span!("app-model");
    let model = build_app_model_with(app, &truth, endpoint_calls.clone());
    drop(model_span);
    let stored = store.cell_packages(region, bucket);
    // Decoded in place from the stored buffers: no payload copy.
    let packages: Vec<ProfilePackage> = stored
        .iter()
        .map(|p| ProfilePackage::deserialize(&p.bytes).expect("validated"))
        .collect();
    let wire = if params.distribution.enabled {
        let cache = prior_store.map_or_else(ChunkPool::new, |s| s.cell_pool(region, bucket));
        stored
            .iter()
            .map(|p| {
                package_wire(
                    p.manifest.as_deref(),
                    p.bytes.len() as u64,
                    &cache,
                    params.warmup.early_serve_frac,
                    &params.distribution,
                )
            })
            .collect()
    } else {
        vec![PackageWire::default(); stored.len()]
    };
    CellData {
        region,
        bucket,
        mix,
        model,
        packages,
        wire,
    }
}

/// Runs one deployment: C2 seeders profile their cell's traffic, validate
/// and publish; C3 consumers in each cell boot with randomized packages
/// (vs. the no-Jump-Start baselines on identical traffic), a cell per job
/// over the shard threads.
pub fn run_deployment(app: &App, params: &DeployParams) -> DeployReport {
    run_deployment_with_prior(app, None, params)
}

/// [`run_deployment`], with consumers' chunk caches warmed by `prior` —
/// the release the fleet was running before this push. The prior release
/// is seeded with the same deterministic seeder streams into a shadow
/// store, and each cell's consumer cache is that store's chunk pool; the
/// distribution model then prices every fetch as a delta against it.
pub fn run_deployment_with_prior(
    app: &App,
    prior: Option<&App>,
    params: &DeployParams,
) -> DeployReport {
    let _deploy_span = telemetry::span!(
        "deployment",
        "regions" => params.regions,
        "buckets" => params.buckets,
        "shards" => params.fleet.shards,
    );
    let shards = params.fleet.shards.max(1) as usize;
    // The previous release's store holds the consumers' chunk caches.
    let (store, prior_store) = (PackageStore::new(), PackageStore::new());
    let mut releases = vec![(app, &store)];
    releases.extend(prior.map(|prior| (prior, &prior_store)));
    let seeded = seed_stores(params, &releases);

    // --- Per-cell consumer inputs, prepared once, a cell per job ---
    let endpoint_calls = {
        let _span = telemetry::span!("endpoint-calls");
        measure_endpoint_calls(app)
    };
    let cell_keys = cell_ids(params);
    let mut cells: Vec<CellData> = Vec::with_capacity(cell_keys.len());
    map_ordered(
        cell_keys.len(),
        shards,
        |c| prepare_cell(params, &releases, &endpoint_calls, cell_keys[c]),
        |data| cells.push(data),
    );

    // --- C3: every server's randomized rolls, drawn sequentially ---
    // Sized once, like every per-server vector of the fan-out and fold:
    // a doubling vector's first small buffer may be one the main thread
    // recycled from a pool thread's malloc arena, and every realloc of
    // it then grows that arena (EXPERIMENTS.md, "Peak RSS has one mode").
    let per_cell = (params.fleet.servers_per_cell + params.fleet.baselines_per_cell) as usize;
    let mut slots: Vec<Slot> = Vec::with_capacity(cells.len() * per_cell);
    for (c, data) in cells.iter().enumerate() {
        for k in 0..per_cell as u32 {
            slots.push(build_slot(slots.len() as u32, c, k, data, params));
        }
    }

    // --- Distribution: price and schedule every package fetch through
    // its cell's link, pre-fan-out so the plan stays shard-invariant ---
    let dist = &params.distribution;
    let mut distribution = DistributionReport {
        enabled: dist.enabled,
        chunked: dist.enabled && dist.chunked,
        publish_bytes_total: seeded.publish_bytes_total,
        publish_bytes_new: seeded.publish_bytes_new,
        ..Default::default()
    };
    if dist.enabled {
        let fetchers: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i].pkg.is_some())
            .collect();
        let fetches: Vec<Fetch> = fetchers
            .iter()
            .map(|&i| {
                let s = &slots[i];
                Fetch {
                    cell: s.cell,
                    start_ms: s.stagger_ms,
                    bytes: cells[s.cell].wire[s.pkg.expect("fetcher")].bytes_on_wire,
                }
            })
            .collect();
        let outcomes = simulate_cell_links(&fetches, cells.len(), dist);
        let mut download_sum = 0u64;
        for (k, &i) in fetchers.iter().enumerate() {
            let w = cells[slots[i].cell].wire[slots[i].pkg.expect("fetcher")];
            let o = outcomes[k];
            let decode_bytes = (w.early_decode_frac * w.bytes_full as f64) as u64;
            let decode_ms =
                (dist.decode_ms_per_mb * decode_bytes as f64 / (1024.0 * 1024.0)) as u64;
            let slot = &mut slots[i];
            // The download rides the shared link as-is; only the
            // host-bound decode share is scaled by this host's I/O factor.
            slot.params.deserialize_ms = o.download_ms + decode_ms * slot.io_factor_pm / 1000;
            slot.bytes_on_wire = w.bytes_on_wire;
            slot.download_ms = o.download_ms;
            distribution.bytes_full += w.bytes_full;
            distribution.bytes_on_wire += w.bytes_on_wire;
            distribution.manifest_bytes += w.manifest_bytes;
            distribution.chunks_sent += w.chunks_sent;
            distribution.chunks_cached += w.chunks_cached;
            download_sum += o.download_ms;
            distribution.max_download_ms = distribution.max_download_ms.max(o.download_ms);
        }
        if !fetchers.is_empty() {
            distribution.mean_download_ms = download_sum as f64 / fetchers.len() as f64;
        }
    }

    // --- Fan-out: a cell per job, its servers run and reduced in place ---
    let fan_span = telemetry::span!(
        "c3-fanout",
        "servers" => slots.len() as u64,
        "shards" => shards as u64,
    );
    let w = &params.warmup;
    let new_accumulator = || WarmupAccumulator::new(params.analysis, w.sample_ms, w.duration_ms);
    let run_cell = |c: usize| {
        let data = &cells[c];
        let span =
            telemetry::span!("cell-fanout", "region" => data.region, "bucket" => data.bucket);
        // Peak request cost, flat call terms, each package's boot prefix,
        // the quiescence watch: jitter and host faults move none of it, so
        // every server of the cell steps over this plan.
        let plan = ServerPlan::new(app, &data.model, &data.mix, &params.warmup, &data.packages);
        let mut lives = Lives::new(&plan);
        let mut out = CellResult {
            stats: Vec::with_capacity(per_cell),
            timelines: Default::default(),
            warmup: new_accumulator(),
            sim: ShardStats::default(),
        };
        // A server's run is a function of its life and its serve start,
        // so a server that repeats a pair is answered from the first one's
        // reduction: no timeline, memo key or classification. A
        // representative runs in full, to keep its timeline.
        let mut answers: BTreeMap<(usize, u64), Answer> = BTreeMap::new();
        for (gid, slot) in slots.iter().enumerate().skip(c * per_cell).take(per_cell) {
            let key = lives.life_of(&slot.params, slot.pkg);
            let repeat = key
                .filter(|_| !slot.representative)
                .and_then(|k| answers.get(&k));
            let (answer, (class, steady_ms)) = match repeat {
                Some(&answer) => (answer, out.warmup.count(answer.entry, slot.jumpstart)),
                None => {
                    let run = lives.run(&slot.params, slot.pkg);
                    let entry = out.warmup.add_entry(&run.timeline, slot.jumpstart);
                    let tl = &run.timeline;
                    let answer = Answer {
                        entry,
                        boot_ms: tl.serve_start_ms,
                        ready_ms: tl.time_to_rps(0.9),
                        capacity_loss: tl.capacity_loss_over(slot.params.duration_ms),
                        requests: run.requests,
                        events: run.events,
                        steps_executed: run.steps_executed,
                        steps_dense: run.steps_dense,
                    };
                    if let Some(k) = key {
                        answers.insert(k, answer);
                    }
                    if slot.representative {
                        out.timelines[usize::from(!slot.jumpstart)].push(run.timeline);
                    }
                    (answer, out.warmup.verdict(entry))
                }
            };
            out.sim.events += answer.events;
            out.stats.push(ServerStat {
                gid: gid as u32,
                region: data.region,
                bucket: data.bucket,
                jumpstart: slot.jumpstart,
                slow_host: slot.slow_host,
                degrading: slot.degrading,
                class,
                steady_ms,
                boot_ms: answer.boot_ms,
                ready_ms: answer.ready_ms,
                capacity_loss: answer.capacity_loss,
                requests: answer.requests,
                steps_executed: answer.steps_executed,
                steps_dense: answer.steps_dense,
                bytes_on_wire: slot.bytes_on_wire,
                download_ms: slot.download_ms,
            });
        }
        (out.sim.lives, out.sim.life_steps) = (lives.simulated, lives.life_steps);
        span.end_with(vec![
            ("lives", out.sim.lives.into()),
            ("life_steps", out.sim.life_steps.into()),
        ]);
        out
    };
    // Cells are gid-contiguous, so results taken in cell order are in gid
    // order: shard count leaves no trace in the report.
    let mut stats = Vec::with_capacity(slots.len());
    let mut timelines: [Vec<Timeline>; 2] = Default::default();
    let mut warmup = new_accumulator();
    let mut sim = ShardStats {
        shards: shards as u32,
        servers: slots.len(),
        ..Default::default()
    };
    map_ordered(cells.len(), shards, run_cell, |cell| {
        stats.extend(cell.stats);
        for (arm, kept) in timelines.iter_mut().zip(cell.timelines) {
            arm.extend(kept);
        }
        warmup.merge(cell.warmup);
        sim.events += cell.sim.events;
        sim.lives += cell.sim.lives;
        sim.life_steps += cell.sim.life_steps;
    });
    fan_span.end_with(vec![
        ("lives", sim.lives.into()),
        ("life_steps", sim.life_steps.into()),
    ]);

    // --- Fold: sums in gid order, then the two arms' summaries ---
    sim.classified = warmup.classified();
    let _fold_span = telemetry::span!(
        "fold",
        "shards" => shards as u64,
        "servers" => slots.len() as u64,
        "distinct" => sim.classified,
    );
    // `requests` is a float sum: taken here in gid order, never per
    // cell, so its rounding is that of a one-at-a-time run.
    for s in &stats {
        sim.steps_executed += s.steps_executed;
        sim.steps_dense += s.steps_dense;
        sim.requests += s.requests;
    }
    // The two arms' summaries (each a bootstrap) side by side.
    let mut arms = Vec::with_capacity(2);
    map_ordered(2, shards, |k| warmup.summarize(k == 0), |s| arms.push(s));
    let nojs = arms.pop().expect("baseline arm");
    let js = arms.pop().expect("Jump-Start arm");
    let [js_timelines, nojs_timelines] = timelines;

    DeployReport {
        published: seeded.published,
        validation_failures: seeded.validation_failures,
        seeder_crashes: seeded.seeder_crashes,
        js_timelines,
        nojs_timelines,
        stats,
        duration_ms: params.warmup.duration_ms,
        sim,
        distribution,
        warmup: WarmupReport {
            params: params.analysis,
            js,
            nojs,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use workload::{generate, AppParams};

    /// Runs a deployment under the tracer's session lock, so no test's
    /// deployment lands inside another test's `telemetry::capture`.
    fn deploy(app: &App, prior: Option<&App>, params: &DeployParams) -> DeployReport {
        let _quiet = telemetry::session_lock();
        run_deployment_with_prior(app, prior, params)
    }

    fn quick_warmup() -> WarmupParams {
        WarmupParams {
            duration_ms: 300_000,
            sample_ms: 5_000,
            init_ms_nojs: 20_000,
            init_ms_js: 8_000,
            deserialize_ms: 2_000,
            profile_serve_ms: 60_000,
            relocation_ms: 20_000,
            ..WarmupParams::fig4()
        }
    }

    fn lenient_js_opts() -> JumpStartOptions {
        JumpStartOptions {
            min_funcs_profiled: 5,
            min_counter_mass: 100,
            min_requests: 10,
            ..Default::default()
        }
    }

    #[test]
    fn deployment_publishes_and_improves_warmup() {
        let app = generate(&AppParams::tiny());
        let params = DeployParams {
            regions: 1,
            buckets: 2,
            seeders_per_cell: 1,
            seeder_requests: 120,
            warmup: quick_warmup(),
            js_opts: lenient_js_opts(),
            ..Default::default()
        };
        let report = deploy(&app, None, &params);
        assert_eq!(report.published, 2);
        assert_eq!(report.validation_failures, 0);
        assert_eq!(report.seeder_crashes, 0);
        let reduction = report.capacity_loss_reduction(300_000);
        assert!(
            reduction > 20.0,
            "Jump-Start should substantially reduce capacity loss, got {reduction:.1}%"
        );
    }

    #[test]
    fn eight_server_fleet_exports_percentiles_and_chrome_trace() {
        let app = generate(&AppParams::tiny());
        let params = DeployParams {
            regions: 2,
            buckets: 4,
            seeders_per_cell: 1,
            seeder_requests: 120,
            warmup: WarmupParams {
                duration_ms: 120_000,
                profile_serve_ms: 30_000,
                relocation_ms: 10_000,
                ..quick_warmup()
            },
            js_opts: lenient_js_opts(),
            ..Default::default()
        };
        let report = deploy(&app, None, &params);
        // Fleet percentiles over all 8 consumers.
        let agg = report.fleet_aggregate();
        assert_eq!(agg.servers, 8);
        let boot = agg.stat("server.boot_ms").expect("boot times aggregated");
        assert_eq!(boot.n, 8);
        assert!(boot.min > 0.0);
        assert!(boot.p50 <= boot.p95 && boot.p95 <= boot.p99);
        let loss = agg.stat("server.capacity_loss").expect("loss aggregated");
        assert!(loss.max <= 1.0 && loss.min >= 0.0);
        // The flat export carries the stats.
        assert!(agg.to_json().contains("server.boot_ms"));

        // Chrome export: 16 processes (8 JS + 8 baseline), schema-clean.
        let json = report.to_chrome_trace();
        let summary = telemetry::validate_chrome(&json).expect("valid Chrome trace");
        assert_eq!(summary.tracks, 16);
        assert!(json.contains("jumpstart server 7"));
        assert!(json.contains("baseline server 7"));
        // Baselines walk the full lifecycle: A/B/C instants present.
        assert!(json.contains("point-C"));
    }

    #[test]
    fn undersampled_seeders_fail_validation() {
        let app = generate(&AppParams::tiny());
        let params = DeployParams {
            regions: 1,
            buckets: 1,
            seeders_per_cell: 1,
            seeder_requests: 3, // a drained data center (§VI-B)
            js_opts: JumpStartOptions {
                min_requests: 50,
                ..Default::default()
            },
            warmup: WarmupParams {
                duration_ms: 100_000,
                ..WarmupParams::fig4()
            },
            ..Default::default()
        };
        let report = deploy(&app, None, &params);
        assert_eq!(report.published, 0);
        assert_eq!(report.validation_failures, 1);
    }

    #[test]
    fn chunk_delta_distribution_ships_fewer_bytes_than_full_packages() {
        let app_params = AppParams::tiny();
        let (prior, _) =
            workload::generate_release(&app_params, &workload::ChurnParams { seed: 7, rate: 0.0 });
        let (app, churn) =
            workload::generate_release(&app_params, &workload::ChurnParams { seed: 7, rate: 0.1 });
        assert!(churn.total_edits() > 0, "release must churn");
        let base = DeployParams {
            regions: 1,
            buckets: 2,
            seeders_per_cell: 2,
            seeder_requests: 120,
            warmup: WarmupParams {
                early_serve_frac: 0.25,
                ..quick_warmup()
            },
            js_opts: lenient_js_opts(),
            fleet: FleetShape::default()
                .with_servers(6, 1)
                .with_stagger(10_000),
            ..Default::default()
        };
        let full = deploy(
            &app,
            Some(&prior),
            &base.with_distribution(DistributionParams::full().with_link_mbps(100)),
        );
        let delta = deploy(
            &app,
            Some(&prior),
            &base.with_distribution(DistributionParams::chunked().with_link_mbps(100)),
        );

        // Full sends ship the whole sealed package; deltas reuse the
        // chunks the previous release already put in the consumer cache.
        assert_eq!(
            full.distribution.bytes_on_wire,
            full.distribution.bytes_full
        );
        assert!(delta.distribution.chunks_cached > 0);
        assert!(
            delta.distribution.bytes_on_wire < full.distribution.bytes_on_wire,
            "delta wire {} must beat full wire {}",
            delta.distribution.bytes_on_wire,
            full.distribution.bytes_on_wire,
        );
        assert!(delta.distribution.wire_ratio() < 1.0);
        assert!(delta.distribution.store_dedup_ratio() > 0.0);

        // Every consumer fetch is priced and scheduled.
        for s in delta.stats.iter().filter(|s| s.jumpstart) {
            assert!(s.bytes_on_wire > 0);
            assert!(s.download_ms > 0);
        }
        for s in delta.stats.iter().filter(|s| !s.jumpstart) {
            assert_eq!(s.bytes_on_wire, 0);
        }
        assert!(delta.distribution.mean_download_ms > 0.0);
        assert!(delta.distribution.max_download_ms as f64 >= delta.distribution.mean_download_ms);
        // Downloads feed the fleet percentiles.
        let agg = delta.fleet_aggregate();
        assert!(agg.stat("server.download_ms").is_some());

        // The distribution plan is computed pre-fan-out: shard count
        // still leaves no trace in the report.
        let sharded = deploy(
            &app,
            Some(&prior),
            &base
                .with_distribution(DistributionParams::chunked().with_link_mbps(100))
                .with_fleet(
                    FleetShape::default()
                        .with_servers(6, 1)
                        .with_stagger(10_000)
                        .with_shards(3),
                ),
        );
        assert_eq!(delta.digest(), sharded.digest());
    }

    #[test]
    fn one_server_fleet_counts_that_servers_events() {
        let app = generate(&AppParams::tiny());
        let params = DeployParams::default()
            .with_cells(1, 1)
            .with_seeders(1, 120)
            .with_warmup(quick_warmup())
            .with_fleet(FleetShape::default().with_servers(0, 1));
        let report = deploy(&app, None, &params);
        assert_eq!(report.sim.servers, 1);

        // The same baseline, run directly on the cell's inputs.
        let mix = RequestMix::new(&app, 0, 0);
        let truth = workload::profile_run(&app, &mix, 120, params.seed ^ 0xdead);
        let config = ServerConfig {
            params: params.warmup,
            jumpstart: None,
        };
        let run = crate::run_server(&app, &crate::build_app_model(&app, &truth), &mix, &config);
        assert_eq!(report.nojs_timelines, [run.timeline]);
        assert_eq!(report.sim.events, run.events);
        assert_eq!(report.sim.steps_executed, run.events + 1, "it quiesces");
    }

    #[test]
    fn scaled_fleet_keeps_compact_stats_and_bounded_timelines() {
        let app = generate(&AppParams::tiny());
        let params = DeployParams {
            regions: 1,
            buckets: 2,
            seeders_per_cell: 2,
            seeder_requests: 120,
            warmup: quick_warmup(),
            js_opts: lenient_js_opts(),
            fleet: FleetShape::default()
                .with_servers(12, 3)
                .with_representatives(2)
                .with_stagger(30_000)
                .with_jitter(100),
            ..Default::default()
        };
        let report = deploy(&app, None, &params);
        // Every server is in stats; only representatives keep timelines.
        assert_eq!(report.stats.len(), 2 * (12 + 3));
        assert_eq!(report.js_timelines.len(), 4);
        assert_eq!(report.nojs_timelines.len(), 4);
        assert_eq!(report.sim.servers, 30);
        assert!(report.sim.events > 0);
        // Step-skipping did far less work than dense stepping: beyond the
        // steps a server was woken for, at most one steady step each.
        assert!(report.sim.steps_executed < report.sim.steps_dense / 2);
        assert!(report.sim.events <= report.sim.steps_executed);
        assert!(report.sim.steps_executed <= report.sim.events + report.sim.servers as u64);
        // Over the full simulated duration the mean loss covers all 24
        // consumers, not just the 4 that kept a timeline; any other
        // window can only be read off those timelines.
        let js = report.stats.iter().filter(|s| s.jumpstart);
        let fleet_mean = mean(js.map(|s| s.capacity_loss));
        let kept_mean = |w| mean(report.js_timelines.iter().map(|t| t.capacity_loss_over(w)));
        assert_eq!(report.mean_loss_js(300_000), fleet_mean);
        assert_ne!(fleet_mean, kept_mean(300_000));
        assert_eq!(report.mean_loss_js(200_000), kept_mean(200_000));
        // Jitter spreads boot times across consumers of one cell.
        let agg = report.fleet_aggregate();
        assert_eq!(agg.servers, 24);
        let boot = agg.stat("server.boot_ms").unwrap();
        assert!(boot.max > boot.min, "jitter should spread boot times");
        // gids are stable and dense.
        for (i, s) in report.stats.iter().enumerate() {
            assert_eq!(s.gid as usize, i);
        }
        // The digest is reproducible.
        assert_eq!(report.digest(), deploy(&app, None, &params).digest());
    }

    #[test]
    fn the_pool_sinks_in_job_order_on_at_most_width_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for jobs in [0usize, 1, 2, 5, 12] {
            for width in [0, 1, 2, 3, jobs + 1] {
                let threads = Mutex::new(std::collections::HashSet::new());
                let started = AtomicUsize::new(0);
                let mut seen = Vec::new();
                map_ordered(
                    jobs,
                    width,
                    |j| {
                        started.fetch_add(1, Ordering::SeqCst);
                        threads.lock().unwrap().insert(std::thread::current().id());
                        // Uneven costs, the earliest jobs among the
                        // slowest: later results come in first.
                        let ms = (jobs - j) % 4 * 2;
                        std::thread::sleep(std::time::Duration::from_millis(ms as u64));
                        j * j
                    },
                    |r| {
                        // The lookahead bound: nothing starts 2 · width
                        // places past the oldest result not yet sunk.
                        let ahead = started.load(Ordering::SeqCst) - seen.len();
                        assert!(ahead <= 2 * width.max(1) + 1, "{ahead} ahead");
                        seen.push(r);
                    },
                );
                let squares: Vec<usize> = (0..jobs).map(|j| j * j).collect();
                assert_eq!(seen, squares, "{jobs} jobs, width {width}");
                let distinct = threads.into_inner().unwrap().len();
                assert!(
                    distinct <= width.max(1).min(jobs),
                    "{distinct} threads ran {jobs} jobs at width {width}"
                );
            }
        }
    }

    #[test]
    fn a_pool_job_panic_reaches_the_caller_after_every_earlier_result() {
        let mut seen = Vec::new();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            map_ordered(
                8,
                3,
                |j| {
                    assert_ne!(j, 4, "job 4 fails");
                    j
                },
                |r| seen.push(r),
            )
        }));
        assert!(caught.is_err());
        assert_eq!(seen, [0, 1, 2, 3]);
    }

    #[test]
    fn every_serial_stage_of_a_deployment_is_a_span() {
        let app_params = AppParams::tiny();
        let (prior, _) =
            workload::generate_release(&app_params, &workload::ChurnParams { seed: 3, rate: 0.0 });
        let (app, _) =
            workload::generate_release(&app_params, &workload::ChurnParams { seed: 3, rate: 0.1 });
        let params = DeployParams {
            regions: 1,
            buckets: 2,
            seeders_per_cell: 2,
            seeder_requests: 120,
            warmup: quick_warmup(),
            js_opts: lenient_js_opts(),
            distribution: DistributionParams::chunked(),
            fleet: FleetShape::default().with_servers(3, 1).with_shards(2),
            ..Default::default()
        };
        let (report, trace) =
            telemetry::capture(|| run_deployment_with_prior(&app, Some(&prior), &params));
        assert_eq!(trace.dropped, 0);
        assert_eq!(report.published, 4);

        // Every deployment span opens inside `deployment` on the calling
        // thread, or inside a `seeder`, `cell-prep` or `cell-fanout` job
        // on a pool thread. Counting only those subtrees leaves out spans
        // that other tests' threads record meanwhile.
        let mut counts = std::collections::BTreeMap::<String, usize>::new();
        let mut work: Vec<telemetry::SpanNode> = trace
            .trees()
            .expect("well-formed tracks")
            .into_iter()
            .flat_map(|(_, roots)| roots)
            .filter(|r| {
                ["deployment", "seeder", "cell-prep", "cell-fanout"].contains(&r.name.as_str())
            })
            .collect();
        let (mut fold_attrs, mut fanout_attrs) = (Vec::new(), Vec::new());
        let mut cell_attrs = Vec::new();
        while let Some(node) = work.pop() {
            *counts.entry(node.name.clone()).or_default() += 1;
            match node.name.as_str() {
                "fold" => fold_attrs = node.attrs.clone(),
                "c3-fanout" => fanout_attrs = node.attrs.clone(),
                "cell-fanout" => cell_attrs.push(node.attrs.clone()),
                _ => {}
            }
            work.extend(node.children);
        }
        let count = |name: &str| counts.get(name).copied().unwrap_or(0);
        assert_eq!(count("deployment"), 1);
        // Both releases' seeders are one job list: two cells of two
        // seeders each, twice.
        assert_eq!(count("c2-seeding"), 1);
        for name in [
            "seeder",
            "seed-profile",
            "seeder-build",
            "validate",
            "publish",
        ] {
            assert_eq!(count(name), 8, "{name}");
        }
        for name in ["cell-prep", "truth-profile", "app-model", "cell-fanout"] {
            assert_eq!(count(name), 2, "{name}");
        }
        // The endpoint call vectors are measured once, for every cell.
        assert_eq!(count("endpoint-calls"), 1);
        assert_eq!(count("c3-fanout"), 1);
        assert_eq!(count("fold"), 1);

        // The fold says how many servers it folded and how many distinct
        // timelines (warmup entries) they came to: 2 cells of 3 + 1.
        let u64_attr = telemetry::AttrValue::U64;
        assert_eq!(report.sim.servers, 8);
        assert_eq!(
            fold_attrs,
            [
                ("shards", u64_attr(2)),
                ("servers", u64_attr(8)),
                ("distinct", u64_attr(report.sim.classified)),
            ]
        );
        assert!((1..=8).contains(&report.sim.classified));
        // The fan-out says, at its end, how many lives its servers shared.
        assert_eq!(
            fanout_attrs,
            [
                ("servers", u64_attr(8)),
                ("shards", u64_attr(2)),
                ("lives", u64_attr(report.sim.lives)),
                ("life_steps", u64_attr(report.sim.life_steps)),
            ]
        );
        assert!((1..=8).contains(&report.sim.lives));
        assert!(report.sim.life_steps <= report.sim.steps_executed);
        // Each cell's job says what it simulated; the cells sum to it.
        use telemetry::AttrValue::U64;
        let (mut lives, mut life_steps) = (0, 0);
        for attrs in &cell_attrs {
            let [.., ("lives", U64(l)), ("life_steps", U64(s))] = attrs[..] else {
                panic!("cell-fanout attributes {attrs:?}");
            };
            (lives, life_steps) = (lives + l, life_steps + s);
        }
        assert_eq!(
            (lives, life_steps),
            (report.sim.lives, report.sim.life_steps)
        );
    }
}
