//! The dense per-second reference stepper — the equivalence oracle for
//! the shared-life driver.
//!
//! This is the original fleet simulator loop: one [`ServerSim`] step per
//! simulated second for the whole duration, whether or not anything can
//! change. It is O(duration) per server and exists so the shared-life
//! driver behind [`super::run_server`] has ground truth to match bit for bit
//! (see `tests/event_equivalence.rs`). Keep it dumb: its value is that it
//! cannot be clever.

use workload::{App, RequestMix};

use crate::metrics::Timeline;
use crate::model::AppModel;

use super::sim::{ServerConfig, ServerPlan, ServerSim};

/// Runs the warmup simulation by dense per-second stepping, returning
/// the timeline. Semantically identical to [`super::simulate_warmup`];
/// asymptotically slower.
pub fn simulate_warmup_dense(
    app: &App,
    model: &AppModel,
    mix: &RequestMix,
    config: &ServerConfig<'_>,
) -> Timeline {
    let params = config.params;
    let plan = ServerPlan::new(app, model, mix, &params, config.jumpstart);
    let mut sim = ServerSim::new(&plan, &params, config.jumpstart.map(|_| 0));
    let peak_rps = params.cores as f64 * 1000.0 / plan.peak_ms_per_req;
    let offered = peak_rps * params.offered_fraction;

    let boot = sim.boot;
    let mut timeline = Timeline {
        serve_start_ms: boot.serve_start_ms,
        ..Default::default()
    };
    let step = 1000u64; // 1 s
    let mut t = 0u64;
    while t < params.duration_ms {
        let now = t + step;
        if now <= boot.serve_start_ms {
            // Booting: Jump-Start compile work happens inside the boot
            // window (already priced into serve_start_ms).
            if now.is_multiple_of(params.sample_ms) {
                timeline.samples.push(boot.sample(now));
            }
            t = now;
            continue;
        }
        let offered_this_step = offered * step as f64 / 1000.0;
        let (_served, sample) = sim.serve_step(now, step, offered_this_step);
        if now.is_multiple_of(params.sample_ms) {
            timeline.samples.push(sample);
        }
        t = now;
    }
    [
        timeline.point_a_ms,
        timeline.point_b_ms,
        timeline.point_c_ms,
    ] = sim.points();
    timeline
}
