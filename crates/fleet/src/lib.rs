//! Data-center fleet simulation: server warmup, continuous deployment and
//! reliability — at paper scale.
//!
//! The paper's warmup evaluation (Figs. 1, 2, 4) is about what one web
//! server goes through after a restart: initialization, lazy loading,
//! profiling translations, the retranslate-all event, relocation, live
//! JITing — all while serving (or failing to serve) production traffic,
//! across a fleet of more than 2000 servers pushed three times a day.
//! This crate simulates that:
//!
//! * [`AppModel`] — per-function static facts (sizes of each translation
//!   kind, average work per call, per-endpoint call vectors) measured once
//!   from the real pipeline,
//! * [`run_server`] / [`simulate_warmup`] — a single-server simulation
//!   producing RPS/latency/code-size timelines, driven by one driver
//!   (closed-form boot window, then serving steps read off a shared
//!   life stepped only while the server is active, fast-forwarded once
//!   quiescent); [`run_servers`] runs a cell's batch through one cache
//!   of lives, as a deployment's cell jobs do, and the dense per-second
//!   stepper survives as [`simulate_warmup_dense`], the equivalence
//!   oracle,
//! * [`capacity_loss_from`] — the area-above-the-curve metric of Fig. 2,
//! * [`run_deployment`] — the C1/C2/C3 push as job lists on one ordered
//!   pool of shard threads: every (release, region, bucket, seeder) seeds
//!   and is published in a fixed order, each cell's inputs are built once
//!   and shared read-only, then one job per cell runs, classifies and
//!   compacts its thousands of independent servers (per-server RNG
//!   streams, one server plan and cache of lives per cell), and the
//!   orchestrator folds the cells' results in gid order,
//! * [`run_crashloop`] / [`FaultPlan`] — crash-loop containment and
//!   deployment fault injection for §VI,
//! * [`warmup`](classify_timeline) — PELT changepoint segmentation and
//!   Barrett-style warmup classification (warmup / slowdown / flat /
//!   cyclic / no-steady-state) over per-server timelines, rolled up into
//!   a fleet [`WarmupReport`] with bootstrap confidence intervals.

mod deploy;
mod distribution;
mod export;
mod faults;
mod metrics;
mod model;
mod server;
mod steady;
mod warmup;

pub use deploy::{
    run_deployment, run_deployment_with_prior, DeployParams, DeployReport, FleetShape, ServerStat,
    ShardStats,
};
pub use distribution::{
    package_wire, simulate_cell_links, DistributionParams, DistributionReport, Fetch, FetchOutcome,
    PackageWire,
};
pub use export::timelines_to_trace_capped;
pub use faults::{run_crashloop, CrashLoopParams, CrashLoopReport, FaultPlan};
pub use metrics::{capacity_loss_from, Sample, Timeline};
pub use model::{
    build_app_model, build_app_model_with, measure_endpoint_calls, AppModel, EndpointCalls,
    WarmupParams,
};
pub use server::reference::simulate_warmup_dense;
pub use server::{run_server, run_servers, simulate_warmup, ServerConfig, ServerRun};
pub use steady::{measure_steady_state, SteadyConfig, SteadyOutcome, SteadyParams};
pub use warmup::{
    classify_timeline, pelt_changepoints, pelt_changepoints_reference, segment_series, ArmSummary,
    CiStat, ClassCounts, Segment, TimelineClass, WarmupAccumulator, WarmupAnalysisParams,
    WarmupClass, WarmupReport,
};
