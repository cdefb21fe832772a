//! The continuous-deployment pipeline at paper scale: C1 → C2 (seeders) →
//! C3 (consumers), per §II-C and §IV-A.
//!
//! Every stage is a map over independent jobs, spread over
//! [`FleetShape::shards`] threads. What a job computes is fixed by the
//! deployment seed and the job's own key, never by the thread it runs
//! on or what runs beside it, so the report is bit-identical for any
//! shard count (proved by `tests/event_equivalence.rs`):
//!
//! 1. **C2 seeding, a bounded window at a time.** Each (region, bucket,
//!    seeder) job rolls its [`FaultPlan`] faults (a crashed or an
//!    undersampled seeder), profiles its cell's traffic, builds a package
//!    and validates it. Up to `shards` jobs run at once, as in the paper,
//!    where every cell has its own seeder machines. After each window the
//!    orchestrator publishes the validated packages, or counts each
//!    failure, strictly in (region, bucket, seeder) order. Package ids,
//!    chunk dedup and every cell's package order are therefore those of
//!    a one-at-a-time run, and at most `shards` unpublished packages are
//!    alive. A prior release is seeded the same way into a shadow store.
//! 2. **Per-cell inputs, once, a window of cells at a time.** Each
//!    (region, bucket) cell's consumer-side inputs are prepared a single
//!    time: the request mix, the measured [`AppModel`], every published
//!    package decoded once and priced on the wire. The orchestrator then
//!    builds each cell's [`ServerPlan`] beside them. All of it is shared
//!    read-only with every server in the cell — 2000 consumers cost one
//!    deserialization, not 2000.
//! 3. **Fan-out over shards.** Every server (Jump-Start consumers and
//!    no-Jump-Start baselines) becomes a [`Slot`] whose randomized
//!    decisions — restart stagger, boot-time jitter, degraded-host roll,
//!    package pick — are drawn up front from a per-server RNG stream
//!    keyed only by the deployment seed and the server's global id.
//!    Servers are independent, so each shard runs its slots one at a
//!    time and reduces each run in place: classify the timeline, fold it
//!    into a shard-local [`WarmupAccumulator`], compact it to a
//!    [`ServerStat`]. Servers of one cell differ only in jitter, host and
//!    download rolls, which move only their boot costs and so when
//!    serving starts. Their serving steps then repeat exactly whenever
//!    they agree on the package, the non-boot calibration, a baseline's
//!    point-A step and, on a degrading host, the first step's end (the
//!    life key; the argument is in [`crate::server`]'s docs). So each
//!    shard runs its servers through one [`Lives`] cache: a cell's
//!    distinct lives are stepped once, every server reads its samples,
//!    requests and lifecycle points off one, shifted to its own clock
//!    and cut at its own window, and a hit builds no simulation state.
//!    On the fixed sample grid the post-serve series then mostly repeat
//!    too, so the accumulator classifies each distinct one once. Slots
//!    are laid out cell by cell, and each shard resets its lives and
//!    clears the classifier memo when it moves to the next cell: it
//!    never holds more than one cell's distinct lives and series (a few
//!    and a few dozen at bench scale).
//! 4. **Fold.** The orchestrator merges the accumulators, orders the
//!    stats by gid and sums, then summarizes the two arms side by side.
//!    Shards consume no randomness and share no mutable state, so
//!    nothing here depends on the shard count.
//!
//! Each stage is a telemetry span on the orchestrator's track:
//! `c2-seeding` (one `publish` per package), `cell-prep`, `c3-fanout`
//! (ending with the `lives` simulated and the `life_steps` they took)
//! and `fold`, inside `deployment`. A job on another thread opens its
//! `seeder` or `cell-prep` span on that thread's track.
//!
//! Memory stays flat at scale: one cell's lives are live per shard at a
//! time, and only each cell's representative servers keep their timeline
//! (and with it a Chrome-trace track) past the shard. Every server, kept
//! or not, leaves a compact [`ServerStat`]; those feed the fleet-wide
//! percentiles via [`telemetry::aggregate_values`].

use jit::JitOptions;
use jumpstart::chunk::ChunkPool;
use jumpstart::{
    build_package, JumpStartOptions, PackageStore, ProfilePackage, SeederInputs, Validator,
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
    /// OS threads the deployment runs on: up to this many C2 seeders and
    /// cell preparations at a time, then the fleet's servers sharded
    /// across this many. Results are bit-identical for any value; this
    /// only changes wall time.
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
    /// its per-cell memo. Like `shards`, this depends on the shard count
    /// (each shard memoizes on its own), so shard-invariance checks
    /// (`tests/event_equivalence.rs`) must not compare it.
    pub classified: u64,
    /// Distinct server lives the fan-out simulated: every other server
    /// re-used the steps of one of these. Like `classified`, this depends
    /// on how servers were dealt to shards.
    pub lives: u64,
    /// Serving steps those lives computed — the simulation work behind
    /// `steps_executed`, which counts steps per server. Shard-dependent
    /// like `lives`.
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
/// and is built beside it.
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

/// What one shard thread hands back: every server it ran, reduced.
struct ShardResult {
    stats: Vec<ServerStat>,
    /// `(gid, timeline)` of the shard's representatives — the only
    /// timelines that outlive their server's turn.
    representatives: Vec<(usize, Timeline)>,
    warmup: WarmupAccumulator,
    /// Serving steps the shard's servers were woken for.
    events: u64,
    /// Lives the shard simulated, and the steps they computed.
    lives: u64,
    life_steps: u64,
}

/// One server's precomputed rolls. All randomness is consumed here,
/// sequentially in gid order, before any shard thread exists.
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

fn build_slot(gid: u32, cell: usize, jumpstart: bool, data: &CellData, p: &DeployParams) -> Slot {
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
        representative: false, // assigned by the caller per cell
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

/// Runs `work` over `jobs` in windows of at most `width`. A window's jobs
/// run at once, on scoped threads and the calling thread (which takes
/// the last job), and `sink` receives their results in job order before
/// the next window starts — so at most `width` results are alive, and
/// whatever `sink` does happens in job order for any `width`.
fn map_windows<J: Sync, R: Send>(
    jobs: &[J],
    width: usize,
    work: impl Fn(&J) -> R + Sync,
    mut sink: impl FnMut(R),
) {
    let work = &work;
    for window in jobs.chunks(width.max(1)) {
        let (last, spawned) = window.split_last().expect("windows are non-empty");
        let results: Vec<R> = std::thread::scope(|scope| {
            let handles: Vec<_> = spawned
                .iter()
                .map(|job| scope.spawn(move || work(job)))
                .collect();
            let last = work(last);
            let mut results: Vec<R> = handles
                .into_iter()
                .map(|h| h.join().expect("window thread"))
                .collect();
            results.push(last);
            results
        });
        results.into_iter().for_each(&mut sink);
    }
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

/// C2: every cell's seeders profile their traffic, validate, and publish
/// chunked into `store`. Seeders run a window of up to `shards` at a
/// time; the orchestrator publishes each window's packages in (region,
/// bucket, seeder) order, so package ids, chunk dedup and every cell's
/// package order match a one-at-a-time run. Seeding the previous release
/// with the same params replays the same seeder fleet against the old
/// code — which is exactly the chunk cache a consumer holds.
fn seed_store(app: &App, params: &DeployParams, store: &PackageStore) -> SeedOutcome {
    let _seed_span = telemetry::span!("c2-seeding", "cells" => params.cells() as u64);
    let validator = Validator::new(params.js_opts, params.jit_opts);
    let jobs: Vec<(u32, u32, u32)> = cell_ids(params)
        .into_iter()
        .flat_map(|(r, b)| (0..params.seeders_per_cell).map(move |s| (r, b, s)))
        .collect();
    let mut out = SeedOutcome::default();
    map_windows(
        &jobs,
        params.fleet.shards as usize,
        |&job| run_seeder(app, params, &validator, job),
        |seeded| match seeded {
            Err(SeederFailure::Crashed) => out.seeder_crashes += 1,
            Err(SeederFailure::Rejected) => out.validation_failures += 1,
            Ok(pkg) => {
                let _span = telemetry::span!("publish", "seeder" => pkg.meta.seeder_id);
                let (_, receipt) = store.publish_chunked(&pkg, app.repo.funcs().len());
                out.publish_bytes_total += receipt.bytes_total;
                out.publish_bytes_new += receipt.bytes_new;
                out.published += 1;
            }
        },
    );
    out
}

/// One cell's consumer-side inputs: its request mix, the [`AppModel`]
/// measured on that mix (sharing the deployment's `endpoint_calls`), its
/// published packages decoded once, and their wire pricing against
/// `prior_store`'s chunk pool for the cell.
fn prepare_cell(
    app: &App,
    params: &DeployParams,
    store: &PackageStore,
    prior_store: Option<&PackageStore>,
    endpoint_calls: &EndpointCalls,
    (region, bucket): (u32, u32),
) -> CellData {
    let _span = telemetry::span!("cell-prep", "region" => region, "bucket" => bucket);
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
/// (vs. the no-Jump-Start baselines on identical traffic), fanned out over
/// shard threads.
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
    let store = PackageStore::new();
    let seeded = seed_store(app, params, &store);

    // The previous release's chunks, as a consumer cache per cell.
    let prior_store = prior.map(|prior_app| {
        let shadow = PackageStore::new();
        seed_store(prior_app, params, &shadow);
        shadow
    });

    // --- Per-cell consumer inputs, prepared once, a window of cells at a time ---
    let endpoint_calls = {
        let _span = telemetry::span!("endpoint-calls");
        measure_endpoint_calls(app)
    };
    let mut cells: Vec<CellData> = Vec::with_capacity(params.cells());
    map_windows(
        &cell_ids(params),
        shards,
        |&cell| {
            let prior_store = prior_store.as_ref();
            prepare_cell(app, params, &store, prior_store, &endpoint_calls, cell)
        },
        |data| cells.push(data),
    );

    // Each cell's server plan: the peak request cost, the flat call
    // terms, every package's boot prefix and the quiescence watch. Jitter
    // and host faults touch only boot and compile costs, which the plan
    // does not read, so every server of the cell steps over it.
    let plans: Vec<ServerPlan<'_>> = cells
        .iter()
        .map(|c| ServerPlan::new(app, &c.model, &c.mix, &params.warmup, &c.packages))
        .collect();

    // --- C3: every server's randomized rolls, drawn sequentially ---
    // Sized once, like every per-server vector of the fan-out and fold:
    // a doubling vector's first small buffer may be one the main thread
    // recycled from a window thread's malloc arena, and every realloc of
    // it then grows that arena (EXPERIMENTS.md, "Peak RSS has one mode").
    let per_cell = params.fleet.servers_per_cell + params.fleet.baselines_per_cell;
    let mut slots: Vec<Slot> = Vec::with_capacity(cells.len() * per_cell as usize);
    for (c, data) in cells.iter().enumerate() {
        for k in 0..params.fleet.servers_per_cell {
            let mut slot = build_slot(slots.len() as u32, c, true, data, params);
            slot.representative = k < params.fleet.representatives_per_cell;
            slots.push(slot);
        }
        for k in 0..params.fleet.baselines_per_cell {
            let mut slot = build_slot(slots.len() as u32, c, false, data, params);
            slot.representative = k < params.fleet.representatives_per_cell;
            slots.push(slot);
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
        let fetchers: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pkg.is_some())
            .map(|(i, _)| i)
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

    // --- Fan-out: each shard maps `run_server` over its slots and reduces ---
    let fan_span = telemetry::span!(
        "c3-fanout",
        "servers" => slots.len() as u64,
        "shards" => shards as u64,
    );
    let (slots, cells, plans) = (&slots, &cells, &plans);
    let run_shard = |&shard: &usize| {
        let mut out = ShardResult {
            stats: Vec::with_capacity(slots.len().div_ceil(shards)),
            representatives: Vec::new(),
            warmup: WarmupAccumulator::new(
                params.analysis,
                params.warmup.sample_ms,
                params.warmup.duration_ms,
            ),
            events: 0,
            lives: 0,
            life_steps: 0,
        };
        let mut lives = Lives::default();
        let mut cell = None;
        for gid in (shard..slots.len()).step_by(shards) {
            let slot = &slots[gid];
            // Slots are cell-contiguous, and lives and timelines repeat
            // within a cell: clearing here bounds both memos to one cell.
            if cell != Some(slot.cell) {
                out.warmup.clear_memo();
                lives.reset(&plans[slot.cell]);
                cell = Some(slot.cell);
            }
            let data = &cells[slot.cell];
            let run = lives.run(&slot.params, slot.pkg);
            let (class, steady_ms) = out.warmup.add(&run.timeline, slot.jumpstart);
            out.events += run.events;
            out.stats.push(ServerStat {
                gid: gid as u32,
                region: data.region,
                bucket: data.bucket,
                jumpstart: slot.jumpstart,
                slow_host: slot.slow_host,
                degrading: slot.degrading,
                class,
                steady_ms,
                boot_ms: run.timeline.serve_start_ms,
                ready_ms: run.timeline.time_to_rps(0.9),
                capacity_loss: run.timeline.capacity_loss_over(slot.params.duration_ms),
                requests: run.requests,
                steps_executed: run.steps_executed,
                steps_dense: run.steps_dense,
                bytes_on_wire: slot.bytes_on_wire,
                download_ms: slot.download_ms,
            });
            if slot.representative {
                out.representatives.push((gid, run.timeline));
            }
        }
        (out.lives, out.life_steps) = (lives.simulated, lives.life_steps);
        out
    };
    let shard_ids: Vec<usize> = (0..shards).collect();
    let mut shard_results: Vec<ShardResult> = Vec::with_capacity(shards);
    map_windows(&shard_ids, shards, run_shard, |r| shard_results.push(r));
    let lives: u64 = shard_results.iter().map(|r| r.lives).sum();
    let life_steps: u64 = shard_results.iter().map(|r| r.life_steps).sum();
    fan_span.end_with(vec![
        ("lives", lives.into()),
        ("life_steps", life_steps.into()),
    ]);

    // --- Fold by gid: shard count leaves no trace in the report ---
    let distinct: u64 = shard_results.iter().map(|r| r.warmup.classified()).sum();
    let _fold_span = telemetry::span!(
        "fold",
        "shards" => shards as u64,
        "servers" => slots.len() as u64,
        "distinct" => distinct,
    );
    let mut shard_results = shard_results.into_iter();
    let mut all = shard_results.next().expect("at least one shard");
    if all.stats.capacity() < slots.len() {
        // A fresh buffer on this thread: a realloc of the first shard's
        // would grow that shard thread's arena.
        let mut stats = Vec::with_capacity(slots.len());
        stats.append(&mut all.stats);
        all.stats = stats;
    }
    for shard in shard_results {
        all.stats.extend(shard.stats);
        all.representatives.extend(shard.representatives);
        all.warmup.merge(shard.warmup);
        all.events += shard.events;
    }
    all.stats.sort_by_key(|s| s.gid);
    all.representatives.sort_by_key(|(gid, ..)| *gid);
    let mut sim = ShardStats {
        shards: shards as u32,
        servers: slots.len(),
        events: all.events,
        classified: all.warmup.classified(),
        lives,
        life_steps,
        ..Default::default()
    };
    // `requests` is a float sum: taken here in gid order, never per
    // shard, so its rounding cannot depend on the shard count.
    for s in &all.stats {
        sim.steps_executed += s.steps_executed;
        sim.steps_dense += s.steps_dense;
        sim.requests += s.requests;
    }
    // The two arms' summaries (each a bootstrap) side by side, on the
    // calling thread alone for one shard.
    let mut arms = Vec::with_capacity(2);
    let acc = &all.warmup;
    map_windows(
        &[true, false],
        shards,
        |&js| acc.summarize(js),
        |arm| arms.push(arm),
    );
    let nojs = arms.pop().expect("baseline arm");
    let js = arms.pop().expect("Jump-Start arm");
    let mut js_timelines = Vec::new();
    let mut nojs_timelines = Vec::new();
    for (gid, timeline) in all.representatives {
        if slots[gid].jumpstart {
            js_timelines.push(timeline);
        } else {
            nojs_timelines.push(timeline);
        }
    }

    DeployReport {
        published: seeded.published,
        validation_failures: seeded.validation_failures,
        seeder_crashes: seeded.seeder_crashes,
        js_timelines,
        nojs_timelines,
        stats: all.stats,
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
    fn windows_hand_results_over_in_job_order() {
        let jobs: Vec<u32> = (0..10).collect();
        for width in [0, 1, 2, 3, 4, 10, 64] {
            let mut seen = Vec::new();
            map_windows(&jobs, width, |&j| j * j, |r| seen.push(r));
            let squares: Vec<u32> = jobs.iter().map(|j| j * j).collect();
            assert_eq!(seen, squares, "width {width}");
        }
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
        // thread, or inside a `seeder` / `cell-prep` job on a window
        // thread. Counting only those subtrees leaves out spans that
        // other tests' threads record meanwhile.
        let mut counts = std::collections::BTreeMap::<String, usize>::new();
        let mut work: Vec<telemetry::SpanNode> = trace
            .trees()
            .expect("well-formed tracks")
            .into_iter()
            .flat_map(|(_, roots)| roots)
            .filter(|r| ["deployment", "seeder", "cell-prep"].contains(&r.name.as_str()))
            .collect();
        let (mut fold_attrs, mut fanout_attrs) = (Vec::new(), Vec::new());
        while let Some(node) = work.pop() {
            *counts.entry(node.name.clone()).or_default() += 1;
            match node.name.as_str() {
                "fold" => fold_attrs = node.attrs.clone(),
                "c3-fanout" => fanout_attrs = node.attrs.clone(),
                _ => {}
            }
            work.extend(node.children);
        }
        let count = |name: &str| counts.get(name).copied().unwrap_or(0);
        assert_eq!(count("deployment"), 1);
        // Both releases: two cells of two seeders each.
        assert_eq!(count("c2-seeding"), 2);
        for name in [
            "seeder",
            "seed-profile",
            "seeder-build",
            "validate",
            "publish",
        ] {
            assert_eq!(count(name), 8, "{name}");
        }
        for name in ["cell-prep", "truth-profile", "app-model"] {
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
    }
}
