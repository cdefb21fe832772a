//! The metric tables: every name `BENCHMARK.json` lists, with its unit
//! and direction. `BENCHMARK.json` is the contract the pipeline reads;
//! these tables are what the binary prints. A test holds the two equal.

/// One metric's declaration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Simulated statistic or count that must repeat bit for bit for one
    /// seed (timings never do).
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
        exact: false,
    }
}

const fn exact_low(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

const fn exact_high(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
        exact: true,
    }
}

/// End-to-end metrics. Every workload reports every one of them and none
/// is ever zero, so each is defined on "the workload's op" (see README).
pub const END_TO_END: &[MetricSpec] = &[
    timing("op_ms", "ms"),
    timing("us_per_unit", "us"),
    timing("cpu_ms_per_op", "ms"),
    timing("peak_rss_mb", "MB"),
    timing("setup_s", "s"),
];

/// Per-layer metrics, printed by the traced pass. A workload that never
/// enters a layer reports 0 for it — that is the "bypasses it" prediction
/// made visible.
pub const PER_LAYER: &[MetricSpec] = &[
    // What each workload's op means to its user.
    timing("boot_ms", "ms"),
    timing("serve_ready_ms", "ms"),
    timing("publish_ms", "ms"),
    exact_low("push_wire_ratio", "ratio"),
    exact_low("package_bytes", "B"),
    timing("fleet_wall_s", "s"),
    exact_low("capacity_loss_js", "fraction"),
    exact_low("steady_cycles_per_req", "cycles"),
    exact_high("steady_gain_pct", "%"),
    rate("replay_minstr_per_s", "Minstr/s"),
    // Set-up layers.
    timing("workload.generate_ms", "ms"),
    timing("hackc.compile_ms", "ms"),
    rate("vm.profile_req_per_s", "1/s"),
    timing("core.seeder.build_ms", "ms"),
    timing("core.validate.ms", "ms"),
    // core: wire, crc, chunk store, consumer, pipeline, package store.
    timing("core.wire.encode_ms", "ms"),
    timing("core.wire.decode_ms", "ms"),
    exact_low("core.wire.bytes_per_func", "B"),
    rate("core.crc32.mb_per_s", "MB/s"),
    timing("core.chunk.split_ms", "ms"),
    timing("core.chunk.manifest_codec_ms", "ms"),
    timing("core.chunk.delta_ms", "ms"),
    exact_low("core.chunk.manifest_bytes", "B"),
    exact_low("core.chunk.chunks_sent", "count"),
    exact_high("core.chunk.chunks_reused", "count"),
    timing("core.chunk.hot_decode_ms", "ms"),
    timing("core.chunk.cold_decode_ms", "ms"),
    exact_low("core.chunk.before_serve_frac", "fraction"),
    exact_low("core.chunk.hot_chunks", "count"),
    timing("core.chunk.reassemble_ms", "ms"),
    timing("core.consumer.consume_ms", "ms"),
    timing("core.consumer.unattributed_pct", "%"),
    rate("core.pipeline.speedup_t2", "ratio"),
    timing("core.pipeline.cpu_inflation_t2", "ratio"),
    timing("core.store.publish_ms", "ms"),
    exact_high("core.store.dedup_ratio", "ratio"),
    // analysis: lint and stale repair.
    timing("analysis.lint.clean_ms", "ms"),
    timing("analysis.lint.stale_ms", "ms"),
    timing("analysis.stale.repair_ms", "ms"),
    exact_high("analysis.stale.funcs_repaired", "count"),
    exact_low("analysis.stale.funcs_dropped", "count"),
    exact_high("analysis.stale.mass_recovered_frac", "fraction"),
    exact_high("analysis.stale.blocks_exact", "count"),
    exact_high("analysis.stale.blocks_opcode", "count"),
    exact_high("analysis.stale.blocks_neighbor", "count"),
    exact_high("analysis.stale.blocks_anchor", "count"),
    exact_low("analysis.stale.blocks_inferred", "count"),
    // vm, jit, layout.
    timing("vm.prop_slots_ms", "ms"),
    timing("jit.translate.ms", "ms"),
    rate("jit.translate.bytes_per_cpu_s", "B/s"),
    exact_high("jit.translate.template_hit_frac", "fraction"),
    timing("jit.engine.plan_ms", "ms"),
    timing("layout.exttsp.ms", "ms"),
    timing("layout.c3.ms", "ms"),
    exact_high("layout.plan_cache_hit_frac", "fraction"),
    timing("jit.code_cache.emit_ms", "ms"),
    exact_low("jit.code_cache.hot_bytes", "B"),
    exact_low("jit.code_cache.cold_bytes", "B"),
    exact_low("jit.code_cache.stub_bytes", "B"),
    exact_low("jit.code_cache.pad_bytes", "B"),
    rate("jit.replay.req_per_s", "1/s"),
    // uarch.
    rate("uarch.model_maccess_per_s", "Maccess/s"),
    exact_low("uarch.icache_miss_rate", "ratio"),
    exact_low("uarch.itlb_miss_rate", "ratio"),
    exact_low("uarch.itlb_walks", "count"),
    exact_low("uarch.branch_miss_rate", "ratio"),
    exact_high("uarch.ipc", "ratio"),
    // fleet.
    timing("fleet.deploy.seed_s", "s"),
    timing("fleet.deploy.us_per_server", "us"),
    exact_low("fleet.deploy.events", "count"),
    exact_low("fleet.deploy.steps_executed", "count"),
    rate("fleet.deploy.events_per_s", "1/s"),
    timing("fleet.server.sim_us", "us"),
    timing("fleet.warmup.classify_us_per_server", "us"),
    timing("fleet.distribution.links_ms", "ms"),
    timing("fleet.report.aggregate_ms", "ms"),
    exact_low("fleet.warmup.ttss_p50_s", "s"),
    // The cost of looking.
    timing("telemetry.capture_overhead_pct", "%"),
    timing("trace.overhead_pct", "%"),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// What `BENCHMARK.json` says about the end-to-end metrics: the
/// regression bound per name.
///
/// # Errors
///
/// Returns a message when the text is not the expected JSON shape.
pub fn bounds_from_benchmark_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = telemetry::json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(|v| v.as_arr())
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|v| v.as_str());
            let bound = m.get("bound").and_then(|v| v.as_f64());
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err("BENCHMARK.json: end_to_end entry without name/bound".to_string()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(all[i + 1..].iter().all(|o| o.name != m.name), "{}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(find("setup_s").is_some_and(|m| m.unit == "s" && !m.higher_is_better));
    }
}
