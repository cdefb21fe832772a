//! `jsbench` — the benchmark of record for the Jump-Start reproduction.
//!
//! Five workloads, each a closed loop of one client in one process, each
//! checked op by op against reference values computed by an independent
//! path in set-up. An untraced pass gives the end-to-end metrics; a
//! separate traced pass times every layer's public functions from
//! outside, on the same inputs, for the per-layer table. See `README.md`
//! for why each workload exists and which end-to-end number each layer
//! metric should move.

pub mod boot;
pub mod compile;
pub mod fleet_push;
pub mod inputs;
pub mod procfs;
pub mod push;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod steady;
pub mod suite;

use std::fmt::Write as _;
use std::time::Instant;

use inputs::Scale;
use spans::Recorder;
use stats::{summarize, Summary};

/// One set of inputs (and the op that runs on them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Consumer boot from the current release's own package.
    BootFresh,
    /// Consumer boot from the prior release's package: lint fails, repair runs.
    BootStale,
    /// Seeder publishes a chunked delta; consumer boots lazily from it.
    PushLazy,
    /// One whole simulated deployment.
    FleetPush,
    /// Steady-state request replay through the core model.
    SteadyReplay,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::BootFresh,
        Workload::BootStale,
        Workload::PushLazy,
        Workload::FleetPush,
        Workload::SteadyReplay,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BootFresh => "boot-fresh",
            Workload::BootStale => "boot-stale",
            Workload::PushLazy => "push-lazy",
            Workload::FleetPush => "fleet-push",
            Workload::SteadyReplay => "steady-replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run is told.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Drives app, churn, profile, sampler and fleet seeds.
    pub seed: u64,
    /// How long the loop measures.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Boot threads = fleet shards.
    pub threads: usize,
    /// Self-test: corrupt the reference digest after set-up, so every op
    /// must be counted as failed and the command must exit nonzero.
    pub flip_reference: bool,
}

impl RunArgs {
    /// Bench-scale defaults for `workload`: seed 42, 15 s, untraced,
    /// `min(nproc, 2)` threads.
    pub fn new(workload: Workload) -> RunArgs {
        RunArgs {
            workload,
            seed: 42,
            seconds: 15.0,
            trace: false,
            scale: Scale::Bench,
            threads: nproc().min(2),
            flip_reference: false,
        }
    }

    /// Independent input sets (app, releases, packages, references) the
    /// untraced pass builds from the seed and cycles its ops over. One
    /// generated app is one draw from a heavy-tailed cost distribution (a
    /// few large functions dominate Ext-TSP), so a run measures several;
    /// `setup_s` is the median of their set-up times. The traced pass
    /// attributes one input set's time and builds only the first.
    pub fn instances(&self) -> usize {
        match (self.trace, self.scale, self.workload) {
            (true, _, _) | (false, Scale::Tiny, Workload::FleetPush) => 1,
            (false, Scale::Tiny, _) => 2,
            // A fleet set-up is a whole reference deployment (~3 s).
            (false, Scale::Bench, Workload::FleetPush) => 3,
            (false, Scale::Bench, _) => 4,
        }
    }

    /// The arguments input set `i` is built from. Set 0 keeps the run's
    /// seed, so `--seed 42` starts from today's bench-scale app.
    pub fn instance(&self, i: usize) -> RunArgs {
        RunArgs {
            seed: match i {
                0 => self.seed,
                _ => inputs::splitmix64(self.seed ^ inputs::splitmix64(0x1_0000 + i as u64)),
            },
            ..*self
        }
    }

    /// Iterations of each layer call in the traced pass: one per second
    /// of `--seconds`, at least two.
    pub fn trace_iters(&self) -> usize {
        (self.seconds as usize).max(2)
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one op reports back to the loop.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    /// Wall time of the op's timed section, ms.
    pub ms: f64,
    /// Whether every output matched its reference.
    pub ok: bool,
    /// Units of work the op did (functions compiled, servers simulated,
    /// requests replayed) — the base of `us_per_unit`.
    pub units: f64,
    /// Which input set the op ran on.
    pub instance: usize,
}

/// The samples a loop collected.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    /// Wall ms of each measured op.
    pub wall_ms: Vec<f64>,
    /// Work units of each measured op.
    pub units: Vec<f64>,
    /// Input set of each measured op.
    pub instance: Vec<usize>,
    /// Process CPU ms over the measured ops (checks between ops
    /// included), divided by their count.
    pub cpu_ms_per_op: f64,
    /// Ops run, warm-up and set-up gates included.
    pub attempted: u64,
    /// Of those, ops whose output missed its reference.
    pub failed: u64,
}

impl LoopStats {
    /// Counts one set-up gate as an op: `ok = false` is a failed op.
    pub fn gate(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Runs `f` once, gates it, and returns its wall ms and the process
    /// CPU ms it used (10 ms ticks: sum several before comparing).
    pub fn gated(&mut self, f: impl FnOnce() -> OpSample) -> (f64, f64) {
        let cpu0 = procfs::cpu_ms();
        let s = f();
        self.gate(s.ok);
        let cpu = match (cpu0, procfs::cpu_ms()) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        };
        (s.ms, cpu)
    }
}

/// Runs `op` in a closed loop: `warmup` ops run and checked but not
/// timed, then measured ops until `seconds` have passed and at least
/// `min_ops` ran.
pub fn timed_loop(
    seconds: f64,
    warmup: usize,
    min_ops: usize,
    mut op: impl FnMut(usize) -> OpSample,
) -> LoopStats {
    let mut stats = LoopStats::default();
    for i in 0..warmup {
        let s = op(i);
        stats.gate(s.ok);
    }
    let cpu0 = procfs::cpu_ms();
    let t0 = Instant::now();
    let mut i = 0;
    while i < min_ops || t0.elapsed().as_secs_f64() < seconds {
        let s = op(warmup + i);
        stats.gate(s.ok);
        stats.wall_ms.push(s.ms);
        stats.units.push(s.units);
        stats.instance.push(s.instance);
        i += 1;
    }
    // NaN (no /proc) is caught by the finite-value check on output.
    stats.cpu_ms_per_op = match (cpu0, procfs::cpu_ms()) {
        (Some(a), Some(b)) => (b - a) / i.max(1) as f64,
        _ => f64::NAN,
    };
    stats
}

/// What a workload hands back.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    /// Wall seconds of each input set's set-up.
    pub setup_s: Vec<f64>,
    /// The measured loop (traced pass: the traced ops).
    pub stats: LoopStats,
    /// Per-layer values measured by the traced pass (empty otherwise).
    pub layers: Vec<(&'static str, f64)>,
    /// Reference digests, for the output header and determinism tests.
    pub digests: Vec<(&'static str, u64)>,
}

impl WorkloadResult {
    /// Sets a per-layer value (replacing an earlier one).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::find(name).is_some(), "undeclared metric {name}");
        self.layers.retain(|(n, _)| *n != name);
        self.layers.push((name, value));
    }

    /// Fills the set-up layers' metrics from the spans set-up recorded:
    /// the median self time per call of each layer it entered.
    pub fn setup_layers(&mut self, rec: &Recorder, profile_requests: usize) {
        for (span, metric) in [
            ("workload.generate", "workload.generate_ms"),
            ("hackc.compile", "hackc.compile_ms"),
            ("core.seeder.build", "core.seeder.build_ms"),
            ("core.wire.encode", "core.wire.encode_ms"),
            ("core.validate", "core.validate.ms"),
            ("core.chunk.reassemble", "core.chunk.reassemble_ms"),
        ] {
            let ms = rec.setup_self_ms(span);
            if !ms.is_empty() {
                self.layer(metric, stats::median(&ms));
            }
        }
        let profile_ms = stats::median(&rec.setup_self_ms("vm.profile"));
        if profile_ms > 0.0 {
            self.layer(
                "vm.profile_req_per_s",
                profile_requests as f64 * 1e3 / profile_ms,
            );
        }
    }
}

/// Builds every input set of the run, timing each set-up.
pub fn setup_instances<T>(
    args: &RunArgs,
    mut setup: impl FnMut(&RunArgs) -> T,
) -> (Vec<T>, Vec<f64>) {
    (0..args.instances())
        .map(|i| {
            let t0 = Instant::now();
            let inputs = setup(&args.instance(i));
            (inputs, t0.elapsed().as_secs_f64())
        })
        .unzip()
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    /// Name from the metric tables.
    pub name: &'static str,
    /// Unit from the metric tables.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Sample summary, for metrics that are the median of a series.
    pub summary: Option<Summary>,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The arguments it ran with.
    pub args: RunArgs,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: Vec<MetricValue>,
    /// Reference digests.
    pub digests: Vec<(&'static str, u64)>,
    /// The recorded spans (traced pass only).
    pub spans_json: Option<String>,
}

impl RunOutput {
    /// Whether every op matched its reference and every value is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line of the benchmark contract: `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// One JSON object with the run's header (seed, host, toolchain),
    /// digests, and every metric with n, median and quartiles where it
    /// summarises a series.
    pub fn detail_line(&self) -> String {
        let a = &self.args;
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"scale\": \"{}\", \"trace\": {}, \
             \"seconds\": {}, \"nproc\": {}, \"threads\": {}, \"rustc\": \"{}\", \"git\": \"{}\", \
             \"digests\": {{",
            a.workload.name(),
            a.seed,
            a.scale.name(),
            u8::from(a.trace),
            json_num(a.seconds),
            nproc(),
            a.threads,
            telemetry::json::escape(&tool_line("rustc", &["--version"])),
            telemetry::json::escape(&tool_line("git", &["rev-parse", "HEAD"])),
        );
        for (i, (name, d)) in self.digests.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": \"{d:016x}\"",
                if i > 0 { ", " } else { "" }
            );
        }
        out.push_str("}, \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"unit\": \"{}\", \"value\": {}",
                if i > 0 { ", " } else { "" },
                m.name,
                m.unit,
                json_num(m.value)
            );
            if let Some(s) = &m.summary {
                let _ = write!(
                    out,
                    ", \"n\": {}, \"median\": {}, \"p25\": {}, \"p75\": {}",
                    s.n,
                    json_num(s.median),
                    json_num(s.p25),
                    json_num(s.p75)
                );
                if let Some(p90) = s.p90 {
                    let _ = write!(out, ", \"p90\": {}", json_num(p90));
                }
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// A float as a JSON number (`null` when not finite).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// First output line of `tool args…`, or `unknown` (the pipeline's
/// checkout is not a git repository).
fn tool_line(tool: &str, args: &[&str]) -> String {
    std::process::Command::new(tool)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload once and assembles its metrics.
pub fn run(args: &RunArgs) -> RunOutput {
    let mut rec = Recorder::new(args.trace);
    let result = match args.workload {
        Workload::BootFresh => boot::run(args, false, &mut rec),
        Workload::BootStale => boot::run(args, true, &mut rec),
        Workload::PushLazy => push::run(args, &mut rec),
        Workload::FleetPush => fleet_push::run(args, &mut rec),
        Workload::SteadyReplay => steady::run(args, &mut rec),
    };
    let metrics = if args.trace {
        spec::PER_LAYER
            .iter()
            .map(|m| MetricValue {
                name: m.name,
                unit: m.unit,
                // A layer the workload never entered did no work: 0.
                value: result
                    .layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v),
                summary: None,
            })
            .collect()
    } else {
        end_to_end(&result)
    };
    RunOutput {
        args: *args,
        attempted: result.stats.attempted,
        failed: result.stats.failed,
        metrics,
        digests: result.digests,
        spans_json: args.trace.then(|| rec.to_json()),
    }
}

/// Median over the input sets of each set's median: every set weighs
/// the same however many ops it got, and one set's cost cannot pull the
/// value to its own level the way it pulls a pooled median.
fn median_of_instance_medians(values: &[f64], instance: &[usize]) -> f64 {
    let sets = instance.iter().max().map_or(0, |m| m + 1);
    let medians: Vec<f64> = (0..sets)
        .map(|set| {
            let own: Vec<f64> = values
                .iter()
                .zip(instance)
                .filter(|(_, i)| **i == set)
                .map(|(v, _)| *v)
                .collect();
            stats::median(&own)
        })
        .collect();
    stats::median(&medians)
}

fn end_to_end(result: &WorkloadResult) -> Vec<MetricValue> {
    let stats = &result.stats;
    let per_unit: Vec<f64> = stats
        .wall_ms
        .iter()
        .zip(&stats.units)
        .map(|(ms, units)| ms * 1e3 / units.max(1.0))
        .collect();
    let values = [
        (
            "op_ms",
            median_of_instance_medians(&stats.wall_ms, &stats.instance),
            Some(summarize(&stats.wall_ms)),
        ),
        (
            "us_per_unit",
            median_of_instance_medians(&per_unit, &stats.instance),
            Some(summarize(&per_unit)),
        ),
        ("cpu_ms_per_op", stats.cpu_ms_per_op, None),
        (
            "peak_rss_mb",
            procfs::peak_rss_mb().unwrap_or(f64::NAN),
            None,
        ),
        (
            "setup_s",
            stats::median(&result.setup_s),
            Some(summarize(&result.setup_s)),
        ),
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (name, value, summary))| {
            assert_eq!(m.name, name, "END_TO_END order");
            MetricValue {
                name: m.name,
                unit: m.unit,
                value,
                summary,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_runs_warmup_then_measures_at_least_min_ops() {
        let mut calls = Vec::new();
        let stats = timed_loop(0.0, 2, 3, |i| {
            calls.push(i);
            OpSample {
                ms: i as f64,
                ok: i != 1,
                units: 1.0,
                instance: i % 2,
            }
        });
        assert_eq!(calls, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.wall_ms, vec![2.0, 3.0, 4.0]);
        assert_eq!((stats.attempted, stats.failed), (5, 1));
        assert_eq!(stats.instance, vec![0, 1, 0]);
        // Set 0 measured 2 and 4, set 1 measured 3.
        assert_eq!(
            median_of_instance_medians(&stats.wall_ms, &stats.instance),
            3.0
        );
    }

    #[test]
    fn every_input_set_is_built_from_its_own_seed_and_timed() {
        let args = RunArgs {
            scale: Scale::Tiny,
            ..RunArgs::new(Workload::BootFresh)
        };
        let (seeds, secs) = setup_instances(&args, |a| a.seed);
        assert_eq!((seeds.len(), secs.len()), (2, 2));
        assert_eq!(seeds[0], 42);
        assert_ne!(seeds[1], 42);
        let traced = RunArgs {
            trace: true,
            ..args
        };
        assert_eq!(setup_instances(&traced, |a| a.seed).0, vec![42]);
    }
}
