//! `steady-replay`: the "steady-state" half of the paper's title
//! (Figs. 5/6). Two consumers — full Jump-Start and no Jump-Start — boot
//! once in set-up; one op replays a slice of sampled requests through
//! `jit::Executor` and the `uarch` core model on one of them,
//! alternating. Decode, lint, chunking and the fleet do nothing here.
//! Caches and predictors are warmed by a fixed number of requests before
//! statistics start.

use std::time::Instant;

use fleet::SteadyConfig;
use jit::{Executor, ExecutorConfig, JitEngine, JitOptions};
use jumpstart::{consume, JumpStartOptions};
use uarch::{CoreModel, CoreParams, MissReport};
use workload::{App, ProfileRun, RequestMix, RequestSampler};

use crate::inputs::{app_params, build_release, profile, seal_run, validates, Scale, Seeds};
use crate::spans::Recorder;
use crate::stats::median;
use crate::{setup_instances, timed_loop, OpSample, RunArgs, WorkloadResult};

/// Slices per configuration whose simulated statistics are reported: a
/// fixed window, so cycles per request repeat exactly whatever the host
/// speed or `--seconds`.
const EXACT_SLICES: usize = 5;

/// (requests that warm caches before statistics start, requests per op).
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Bench => (600, 2000),
        Scale::Tiny => (40, 100),
    }
}

/// One booted configuration being replayed.
struct Arm<'a> {
    exec: Executor<'a>,
    sampler: RequestSampler,
    slices: usize,
    /// Instructions retired by the last slice.
    last_instr: u64,
    /// The report after [`EXACT_SLICES`] slices.
    exact: Option<MissReport>,
}

impl Arm<'_> {
    /// Replays one slice; returns its wall ms and instructions retired.
    fn slice(&mut self, app: &App, mix: &RequestMix, requests: usize) -> (f64, u64) {
        let before = self.exec.report().instructions;
        let t0 = Instant::now();
        for _ in 0..requests {
            let (func, _) = self.sampler.request(app, mix);
            self.exec.run_call(func);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let report = self.exec.report();
        self.slices += 1;
        self.last_instr = report.instructions - before;
        if self.slices == EXACT_SLICES {
            self.exact = Some(report);
        }
        (ms, self.last_instr)
    }
}

/// What set-up hands the loop: both arms warmed, plus what the gates saw.
struct Ready {
    app: &'static App,
    mix: RequestMix,
    /// `[jumpstart_full, no_jumpstart]`.
    arms: [Arm<'static>; 2],
    /// Layout digests of the two boots.
    digests: [u64; 2],
    /// Optimized (hot, cold, stub, pad) bytes of the Jump-Start boot.
    code_bytes: [u64; 4],
    /// Validator accepted both packages; each boot on `threads` threads
    /// matched its 1-thread reference.
    gates_ok: bool,
}

/// Generates the app, seals and boots both configurations, and warms
/// both executors. The executors borrow the engines, which borrow the
/// app: those are leaked, since they live until the process exits anyway.
fn setup(args: &RunArgs, rec: &mut Recorder) -> Ready {
    let seeds = Seeds::derive(args.seed);
    let app: &'static App = Box::leak(Box::new(build_release(
        &app_params(args.scale, seeds.app),
        None,
        rec,
    )));
    let mix = RequestMix::new(app, 0, 0);
    let truth: &'static ProfileRun = Box::leak(Box::new(profile(app, args.scale, &seeds, rec)));
    let floors = args.scale.js_opts();
    let (warm, _) = sizes(args.scale);
    let mut gates_ok = true;
    let [js, nojs] = [SteadyConfig::jumpstart_full(), SteadyConfig::no_jumpstart()].map(|config| {
        let opts = JumpStartOptions {
            min_funcs_profiled: floors.min_funcs_profiled,
            min_counter_mass: floors.min_counter_mass,
            min_requests: floors.min_requests,
            ..config.js
        };
        let (pkg, bytes) = seal_run(app, truth, &opts, rec);
        gates_ok &= validates(app, &bytes, &opts, rec);
        let reference = consume(&app.repo, &pkg, JitOptions::default(), &opts, 1)
            .map(|o| o.engine.code_cache.layout_digest() ^ u64::from(args.flip_reference));
        let boot = consume(&app.repo, &pkg, JitOptions::default(), &opts, args.threads)
            .expect("a validated package boots");
        let digest = boot.engine.code_cache.layout_digest();
        gates_ok &= reference == Ok(digest);
        let engine: &'static JitEngine<'static> = Box::leak(Box::new(boot.engine));
        let mut exec = Executor::new(
            &app.repo,
            &engine.code_cache,
            &truth.tier,
            &truth.ctx,
            ExecutorConfig {
                seed: seeds.sampler,
                ..Default::default()
            },
        );
        exec.set_unit_order(if config.no_jumpstart {
            // First-touch order: what the server's own lazy loading gave.
            &truth.unit_order
        } else {
            &pkg.preload.unit_order
        });
        // Both arms replay the same request stream.
        let mut sampler = RequestSampler::new(seeds.sampler ^ 0x1234);
        for _ in 0..warm {
            let (func, _) = sampler.request(app, &mix);
            exec.run_call(func);
        }
        exec.reset_stats();
        let arm = Arm {
            exec,
            sampler,
            slices: 0,
            last_instr: 0,
            exact: None,
        };
        (arm, digest, engine)
    });
    let engine = js.2;
    Ready {
        app,
        mix,
        digests: [js.1, nojs.1],
        arms: [js.0, nojs.0],
        code_bytes: [
            engine.sizes().optimized_hot,
            engine.sizes().optimized_cold,
            engine.code_cache.stub_bytes(),
            engine.code_cache.pack_stats().pad_bytes,
        ],
        gates_ok,
    }
}

/// Runs the workload: the timed loop (the traced pass is the same loop
/// on one input set, with a span per slice and the simulated statistics
/// read out).
pub fn run(args: &RunArgs, rec: &mut Recorder) -> WorkloadResult {
    let (mut sets, setup_s) = setup_instances(args, |a| setup(a, rec));
    let k = sets.len();
    let (_, slice) = sizes(args.scale);
    let mut minstr_per_s = Vec::new();
    let mut req_per_s = Vec::new();
    // The traced pass replays for half the time: the rest goes to the
    // core-model microbenchmark.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Op i replays arm i % 2 of input set (i / 2) % k; the traced pass
    // must cover the fixed statistics window on both arms.
    let min_ops = if args.trace { 2 * EXACT_SLICES } else { 2 * k };
    let mut stats = timed_loop(seconds, 0, min_ops, |i| {
        let (arm, instance) = (i % 2, (i / 2) % k);
        let set = &mut sets[instance];
        rec.set_op(i as u32);
        let open = rec.begin("jit.replay");
        let (ms, instr) = set.arms[arm].slice(set.app, &set.mix, slice);
        rec.end(open);
        minstr_per_s.push(instr as f64 / ms / 1e3);
        req_per_s.push(slice as f64 * 1e3 / ms);
        OpSample {
            ms,
            // Layout moves cycles, never the instructions retired: the
            // same request stream must retire the same count on both arms.
            ok: arm == 0 || instr == set.arms[0].last_instr,
            units: slice as f64,
            instance,
        }
    });
    for set in &sets {
        stats.gate(set.gates_ok);
    }
    let first = &sets[0];
    let mut result = WorkloadResult {
        setup_s,
        stats,
        digests: vec![
            ("layout_jumpstart", first.digests[0]),
            ("layout_no_jumpstart", first.digests[1]),
        ],
        ..Default::default()
    };
    if args.trace {
        result.setup_layers(rec, args.scale.profile_requests());
        let requests = (EXACT_SLICES * slice) as f64;
        let [js, nojs] = [0, 1].map(|a| first.arms[a].exact.expect("min_ops covers the window"));
        let per_req = |r: &MissReport| r.cycles as f64 / requests;
        result.layer("steady_cycles_per_req", per_req(&js));
        result.layer(
            "steady_gain_pct",
            100.0 * (per_req(&nojs) / per_req(&js) - 1.0),
        );
        result.layer("replay_minstr_per_s", median(&minstr_per_s));
        result.layer("jit.replay.req_per_s", median(&req_per_s));
        result.layer("uarch.icache_miss_rate", js.icache.miss_rate());
        result.layer("uarch.itlb_miss_rate", js.itlb.miss_rate());
        result.layer("uarch.itlb_walks", js.itlb_l2.misses as f64);
        result.layer("uarch.branch_miss_rate", js.branch.miss_rate());
        result.layer(
            "uarch.ipc",
            js.instructions as f64 / js.cycles.max(1) as f64,
        );
        result.layer(
            "uarch.model_maccess_per_s",
            core_model_maccess_per_s(seconds),
        );
        for (metric, bytes) in [
            "jit.code_cache.hot_bytes",
            "jit.code_cache.cold_bytes",
            "jit.code_cache.stub_bytes",
            "jit.code_cache.pad_bytes",
        ]
        .into_iter()
        .zip(first.code_bytes)
        {
            result.layer(metric, bytes as f64);
        }
    }
    result
}

/// Host speed of the core model alone: millions of modelled accesses
/// (fetch, load, branch) per second on a seeded synthetic stream with a
/// 4 MiB code and 16 MiB data footprint. Median of batches over about
/// `seconds / 2`.
fn core_model_maccess_per_s(seconds: f64) -> f64 {
    const BATCH: u64 = 50_000;
    let mut core = CoreModel::new(CoreParams::default());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rates = Vec::new();
    let t_end = Instant::now();
    while rates.len() < 3 || t_end.elapsed().as_secs_f64() < seconds / 2.0 {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x40_0000 + ((x >> 20) & 0x3F_FFC0);
            core.fetch(pc, 16);
            core.load(0x1000_0000 + ((x >> 33) & 0xFF_FFF8), 8);
            core.branch(pc, x & 4 == 0);
        }
        rates.push(3.0 * BATCH as f64 / t0.elapsed().as_secs_f64() / 1e6);
    }
    std::hint::black_box(core.cycles());
    median(&rates)
}
