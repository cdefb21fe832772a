//! `jsstore` — content-addressed chunk store benchmark: delta
//! distribution and chunk-lazy decode, measured end to end.
//!
//! Three sections, all on consecutive releases of the bench application
//! (the workload crate's churn model: renames, deletions, insertions,
//! reorders, block splits/merges):
//!
//! * **Round-trip + delta sweep.** At each churn rate, the new release's
//!   package is chunked, reassembled from its chunk pool, and the result
//!   digest-checked byte-identical against the monolithic encoding. The
//!   same manifest is then delta-encoded against a consumer cache holding
//!   the previous release's chunks: bytes-on-wire vs the full package,
//!   chunks reused vs shipped.
//! * **Lazy decode.** A chunk-granular boot at `early_serve_frac=0.25`
//!   vs the monolithic boot on the same package: fraction of payload
//!   bytes decoded before serve-start (measured, and as the manifest
//!   prices it), decode time split hot/cold, and a layout-digest proof
//!   that laziness never changes the emitted code. Beside it, the base
//!   release's package booted lazily on the churn-0.1 release (a package
//!   one push stale): its pre-serve fraction must stay within 0.05 of the
//!   clean boot's, and its outcome must equal booting its reassembled
//!   bytes.
//! * **Fleet distribution.** A small deployment with the per-cell link
//!   model on: chunk deltas vs full-package sends, download times, and
//!   time-to-early-serve across the fleet.
//!
//! Usage:
//!   jsstore           full run at bench scale, writes BENCH_store.json
//!   jsstore --small   small lab only (quick), writes BENCH_store.json
//!   jsstore --check   CI smoke on the small lab; asserts every
//!                     round-trip is byte-identical, the churn-0.1 delta
//!                     is under the wire-ratio ceiling, the frac=0.25
//!                     lazy boot stays under the small-lab decode ceiling
//!                     and matches the monolithic layout digest, the
//!                     manifest's priced pre-serve fraction is in (0, 1],
//!                     the stale lazy boot matches its reassembled bytes
//!                     and stays within 0.05 of the clean pre-serve
//!                     fraction,
//!                     and the fleet distribution plan is shard-invariant.
//!                     Writes nothing. Exits nonzero on any violation.
//!                     (The <50% pre-serve decode criterion is enforced
//!                     at bench scale by ci.sh on BENCH_store.json.)

use fleet::{
    run_deployment_with_prior, DeployParams, DistributionParams, FaultPlan, FleetShape,
    WarmupParams,
};
use jit::JitOptions;
use jumpstart::{
    build_package, chunk_package, consume, consume_bytes, consume_chunked, crc32, delta_against,
    reassemble, ChunkPool, ChunkedPackage, JumpStartOptions, ProfilePackage, SeederInputs,
};
use workload::{
    generate_release, profile_run, App, AppParams, ChurnParams, ChurnReport, RequestMix,
};

const RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];
const CHURN_SEED: u64 = 0xC0DE;
const PROFILE_SEED: u64 = 21;
const EARLY_FRAC: f64 = 0.25;
/// Acceptance ceiling: at churn 0.1 a delta push ships at most this
/// fraction of the full-package bytes.
const MAX_WIRE_RATIO_AT_0P1: f64 = 0.40;
/// Acceptance ceiling: a frac=0.25 lazy boot decodes less than this
/// fraction of the payload before serve-start (bench lab; enforced by
/// ci.sh against the committed BENCH_store.json).
const MAX_EARLY_DECODE_FRAC: f64 = 0.50;
/// Acceptance band: a stale package's frac=0.25 lazy boot decodes at most
/// this much more of its payload before serve-start than a clean one.
const MAX_STALE_EXCESS: f64 = 0.05;
/// The small lab's call graph is dense enough that the frac=0.25 hot
/// closure reaches most chunks, so `--check` uses a looser ceiling there;
/// it still catches a lazy path that decodes everything up front.
const MAX_EARLY_DECODE_FRAC_SMALL: f64 = 0.75;

/// One seeder's package for a release: same profiling seed on every
/// release, so a consumer cache from the previous release is exactly what
/// the same seeder fleet would have published there.
fn package_for(app: &App, requests: usize) -> ProfilePackage {
    let mix = RequestMix::new(app, 0, 0);
    let run = profile_run(app, &mix, requests, PROFILE_SEED);
    build_package(
        SeederInputs {
            repo: &app.repo,
            tier: run.tier,
            ctx: run.ctx,
            unit_order: run.unit_order,
            requests: run.requests,
            region: 0,
            bucket: 0,
            seeder_id: 1,
            now_ms: 0,
        },
        &JumpStartOptions::default(),
        &JitOptions::default(),
    )
}

fn pool_of(cp: &ChunkedPackage) -> ChunkPool {
    let mut pool = ChunkPool::new();
    for c in &cp.chunks {
        pool.insert(c);
    }
    pool
}

struct DeltaRow {
    rate: f64,
    churn: ChurnReport,
    bytes_full: u64,
    wire_bytes: u64,
    manifest_bytes: u64,
    chunks_sent: usize,
    chunks_reused: usize,
    roundtrip_digest: u32,
    monolithic_digest: u32,
}

impl DeltaRow {
    fn wire_ratio(&self) -> f64 {
        self.wire_bytes as f64 / self.bytes_full.max(1) as f64
    }

    fn roundtrip_ok(&self) -> bool {
        self.roundtrip_digest == self.monolithic_digest
    }
}

/// Chunk the base release, then sweep churn rates: round-trip each new
/// release and price its delta against the base release's chunk cache.
fn delta_sweep(lab: &str, params: &AppParams, requests: usize) -> Vec<DeltaRow> {
    let (base, _) = generate_release(params, &ChurnParams::none());
    let base_pkg = package_for(&base, requests);
    let cache = pool_of(&chunk_package(&base_pkg, base.repo.funcs().len()));

    let mut rows = Vec::new();
    for &rate in &RATES {
        let (release, churn) = generate_release(
            params,
            &ChurnParams {
                seed: CHURN_SEED,
                rate,
            },
        );
        let pkg = package_for(&release, requests);
        let monolithic = pkg.serialize();
        let cp = chunk_package(&pkg, release.repo.funcs().len());
        let reassembled =
            reassemble(&cp.manifest, &pool_of(&cp)).expect("fresh pool reassembles losslessly");
        let delta = delta_against(&cp.manifest, &cache);
        let row = DeltaRow {
            rate,
            churn,
            bytes_full: delta.full_bytes(),
            wire_bytes: delta.wire_bytes(),
            manifest_bytes: delta.manifest_bytes,
            chunks_sent: delta.chunks_sent,
            chunks_reused: delta.chunks_reused,
            roundtrip_digest: crc32(&reassembled),
            monolithic_digest: crc32(&monolithic),
        };
        println!(
            "[{lab}] rate={rate:<4} roundtrip {} ({:#010x}), delta {:>7} of {:>7} B on wire \
             ({:>5.1}%), {} chunks sent / {} reused",
            if row.roundtrip_ok() { "ok" } else { "MISMATCH" },
            row.roundtrip_digest,
            row.wire_bytes,
            row.bytes_full,
            row.wire_ratio() * 100.0,
            row.chunks_sent,
            row.chunks_reused,
        );
        rows.push(row);
    }
    rows
}

struct LazyRow {
    early_serve_frac: f64,
    payload_bytes: u64,
    before_serve_frac: f64,
    /// What the manifest prices the same boot at
    /// (`Manifest::early_decode_frac`): the heat-order prefix's closure,
    /// where the consumer decodes the `func_order` prefix's.
    priced_before_serve_frac: f64,
    hot_chunks: usize,
    cold_chunks: usize,
    hot_decode_ns: u64,
    cold_decode_ns: u64,
    decode_ns_per_mb: f64,
    layout_match: bool,
    ready_funcs: usize,
    total_funcs: usize,
}

/// Boots the churn-0.1 release chunk-lazily at `EARLY_FRAC` and proves
/// the emitted code identical to the monolithic boot.
fn lazy_boot(lab: &str, params: &AppParams, requests: usize) -> LazyRow {
    let (release, _) = generate_release(
        params,
        &ChurnParams {
            seed: CHURN_SEED,
            rate: 0.1,
        },
    );
    let pkg = package_for(&release, requests);
    let cp = chunk_package(&pkg, release.repo.funcs().len());
    let pool = pool_of(&cp);
    let opts = JumpStartOptions {
        early_serve_frac: EARLY_FRAC,
        ..Default::default()
    };
    let jit_opts = JitOptions::default();
    let (chunked, cs) = consume_chunked(&release.repo, &cp.manifest, &pool, jit_opts, &opts, 2)
        .expect("chunked boot succeeds");
    let monolithic =
        consume(&release.repo, &pkg, jit_opts, &opts, 2).expect("monolithic boot succeeds");
    let layout_match =
        chunked.engine.code_cache.layout_digest() == monolithic.engine.code_cache.layout_digest();
    let es = chunked
        .boot
        .early_serve
        .expect("early-serve point recorded");
    let decode_ns = cs.hot_decode_ns + cs.cold_decode_ns;
    let row = LazyRow {
        early_serve_frac: EARLY_FRAC,
        payload_bytes: cs.payload_bytes,
        before_serve_frac: cs.before_serve_frac(),
        priced_before_serve_frac: cp.manifest.early_decode_frac(EARLY_FRAC),
        hot_chunks: cs.hot_chunks,
        cold_chunks: cs.cold_chunks,
        hot_decode_ns: cs.hot_decode_ns,
        cold_decode_ns: cs.cold_decode_ns,
        decode_ns_per_mb: decode_ns as f64 * 1e6 / cs.payload_bytes.max(1) as f64,
        layout_match,
        ready_funcs: es.ready_funcs,
        total_funcs: es.ready_funcs + es.background_funcs,
    };
    println!(
        "[{lab}] lazy frac={EARLY_FRAC}: {:.1}% of {} payload B decoded pre-serve \
         (manifest prices {:.1}%; {} hot / {} cold chunks), layout {}, {} of {} funcs ready",
        row.before_serve_frac * 100.0,
        row.payload_bytes,
        row.priced_before_serve_frac * 100.0,
        row.hot_chunks,
        row.cold_chunks,
        if row.layout_match {
            "identical"
        } else {
            "DIVERGED"
        },
        row.ready_funcs,
        row.total_funcs,
    );
    row
}

/// The lazy decode of a package one push stale, beside the clean one.
struct StaleRow {
    before_serve_frac: f64,
    hot_chunks: usize,
    cold_chunks: usize,
    /// The layout digest and repair report equal `consume_bytes` of the
    /// reassembled bytes.
    layout_match: bool,
}

/// Boots the base release's package chunk-lazily at `EARLY_FRAC` on the
/// churn-0.1 release — the paper's normal case, a package one push stale
/// (§VII-C) — and proves the outcome identical to booting its reassembled
/// bytes.
fn lazy_stale_boot(lab: &str, params: &AppParams, requests: usize) -> StaleRow {
    let (prior, _) = generate_release(params, &ChurnParams::none());
    let churn = ChurnParams {
        seed: CHURN_SEED,
        rate: 0.1,
    };
    let (current, _) = generate_release(params, &churn);
    let pkg = package_for(&prior, requests);
    let cp = chunk_package(&pkg, prior.repo.funcs().len());
    let pool = pool_of(&cp);
    let opts = JumpStartOptions {
        early_serve_frac: EARLY_FRAC,
        ..Default::default()
    };
    let jit_opts = JitOptions::default();
    let (chunked, cs) = consume_chunked(&current.repo, &cp.manifest, &pool, jit_opts, &opts, 2)
        .expect("stale chunked boot succeeds");
    let bytes = reassemble(&cp.manifest, &pool).expect("the chunks reassemble");
    let whole = consume_bytes(&current.repo, &bytes, jit_opts, &opts, 2)
        .expect("stale reassembled boot succeeds");
    let row = StaleRow {
        before_serve_frac: cs.before_serve_frac(),
        hot_chunks: cs.hot_chunks,
        cold_chunks: cs.cold_chunks,
        layout_match: chunked.engine.code_cache.layout_digest()
            == whole.engine.code_cache.layout_digest()
            && chunked.repair == whole.repair,
    };
    println!(
        "[{lab}] lazy stale frac={EARLY_FRAC}: {:.1}% of {} payload B decoded pre-serve \
         ({} hot / {} cold chunks), outcome {} its reassembled bytes'",
        row.before_serve_frac * 100.0,
        cs.payload_bytes,
        row.hot_chunks,
        row.cold_chunks,
        if row.layout_match {
            "identical to"
        } else {
            "DIVERGED from"
        },
    );
    row
}

struct FleetRow {
    bytes_full: u64,
    bytes_on_wire: u64,
    wire_ratio: f64,
    cache_hit_rate: f64,
    store_dedup_ratio: f64,
    mean_download_ms: f64,
    max_download_ms: u64,
    boot_ms_p50: f64,
    boot_ms_p95: f64,
    digest: u32,
}

fn fleet_params(shards: u32) -> DeployParams {
    DeployParams::default()
        .with_cells(1, 2)
        .with_seeders(2, 120)
        .with_warmup(
            WarmupParams {
                duration_ms: 200_000,
                sample_ms: 5_000,
                init_ms_nojs: 20_000,
                init_ms_js: 8_000,
                deserialize_ms: 2_000,
                profile_serve_ms: 60_000,
                relocation_ms: 20_000,
                ..WarmupParams::fig4()
            }
            .with_early_serve(EARLY_FRAC),
        )
        .with_fleet(
            FleetShape::default()
                .with_servers(8, 2)
                .with_shards(shards)
                .with_stagger(30_000),
        )
        .with_faults(FaultPlan::default())
        .with_seed(0x5704e)
        .with_js_opts(JumpStartOptions {
            min_funcs_profiled: 5,
            min_counter_mass: 100,
            min_requests: 10,
            ..Default::default()
        })
}

/// The event-engine distribution model on a small fleet: chunk deltas
/// against the previous release's consumer caches.
fn fleet_distribution(lab: &str) -> FleetRow {
    let app_params = AppParams::tiny();
    let (prior, _) = generate_release(&app_params, &ChurnParams::none());
    let (current, _) = generate_release(
        &app_params,
        &ChurnParams {
            seed: CHURN_SEED,
            rate: 0.1,
        },
    );
    let report = run_deployment_with_prior(
        &current,
        Some(&prior),
        &fleet_params(1).with_distribution(DistributionParams::chunked()),
    );
    let d = report.distribution;
    let agg = report.fleet_aggregate();
    let boot = agg.stat("server.boot_ms").expect("boot times aggregated");
    println!(
        "[{lab}] fleet: {} of {} B on wire ({:.1}%), cache hit {:.0}%, \
         download mean {:.0} ms / max {} ms, early-serve p50 {:.0} ms p95 {:.0} ms",
        d.bytes_on_wire,
        d.bytes_full,
        d.wire_ratio() * 100.0,
        d.cache_hit_rate() * 100.0,
        d.mean_download_ms,
        d.max_download_ms,
        boot.p50,
        boot.p95,
    );
    FleetRow {
        bytes_full: d.bytes_full,
        bytes_on_wire: d.bytes_on_wire,
        wire_ratio: d.wire_ratio(),
        cache_hit_rate: d.cache_hit_rate(),
        store_dedup_ratio: d.store_dedup_ratio(),
        mean_download_ms: d.mean_download_ms,
        max_download_ms: d.max_download_ms,
        boot_ms_p50: boot.p50,
        boot_ms_p95: boot.p95,
        digest: report.digest(),
    }
}

fn row_at(rows: &[DeltaRow], rate: f64) -> &DeltaRow {
    rows.iter()
        .find(|r| r.rate == rate)
        .expect("sweep covers the rate")
}

fn usage() -> ! {
    eprintln!("usage: jsstore [--small | --check]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut small = false;
    for a in &args {
        match a.as_str() {
            "--check" => check = true,
            "--small" => small = true,
            bad => {
                eprintln!("jsstore: unknown argument `{bad}`");
                usage();
            }
        }
    }
    let small = check || small;
    let (lab, params, requests) = if small {
        ("small", AppParams::tiny(), 250)
    } else {
        ("bench", AppParams::bench(), 600)
    };

    let rows = delta_sweep(lab, &params, requests);
    let lazy = lazy_boot(lab, &params, requests);
    let stale = lazy_stale_boot(lab, &params, requests);
    let fleet = fleet_distribution(lab);

    if check {
        for r in &rows {
            assert!(
                r.roundtrip_ok(),
                "rate {}: reassembled digest {:#010x} != monolithic {:#010x}",
                r.rate,
                r.roundtrip_digest,
                r.monolithic_digest
            );
        }
        // Zero churn + same profiling seed = identical package: the delta
        // is the manifest alone.
        let zero = row_at(&rows, 0.0);
        assert_eq!(zero.chunks_sent, 0, "identical release must ship no chunks");
        assert_eq!(zero.wire_bytes, zero.manifest_bytes);
        let at_0p1 = row_at(&rows, 0.1);
        assert!(
            at_0p1.wire_ratio() <= MAX_WIRE_RATIO_AT_0P1,
            "churn-0.1 delta shipped {:.1}% of full-package bytes (ceiling {:.0}%)",
            at_0p1.wire_ratio() * 100.0,
            MAX_WIRE_RATIO_AT_0P1 * 100.0
        );
        assert!(
            lazy.layout_match,
            "lazy boot must emit a byte-identical code cache"
        );
        assert!(
            lazy.before_serve_frac < MAX_EARLY_DECODE_FRAC_SMALL,
            "frac={EARLY_FRAC} boot decoded {:.1}% of the payload pre-serve (ceiling {:.0}%)",
            lazy.before_serve_frac * 100.0,
            MAX_EARLY_DECODE_FRAC_SMALL * 100.0
        );
        assert!(
            lazy.priced_before_serve_frac > 0.0 && lazy.priced_before_serve_frac <= 1.0,
            "manifest priced the pre-serve decode at {} (must be in (0, 1])",
            lazy.priced_before_serve_frac
        );
        assert!(lazy.cold_chunks > 0, "a cold tail must exist to defer");
        assert!(
            stale.layout_match,
            "a stale lazy boot must boot as its reassembled bytes do"
        );
        assert!(
            stale.before_serve_frac <= lazy.before_serve_frac + MAX_STALE_EXCESS,
            "stale boot decoded {:.1}% pre-serve, the clean one {:.1}% (band {MAX_STALE_EXCESS})",
            stale.before_serve_frac * 100.0,
            lazy.before_serve_frac * 100.0,
        );
        assert!(
            lazy.ready_funcs < lazy.total_funcs,
            "early serve must start before every function compiles"
        );
        assert!(fleet.bytes_on_wire < fleet.bytes_full);
        assert!(fleet.mean_download_ms > 0.0);
        // The distribution plan is computed pre-fan-out: shard count must
        // leave no trace.
        let sharded = fleet_distribution("small/shards=2 recheck");
        assert_eq!(
            fleet.digest, sharded.digest,
            "report digest is shard-borne?"
        );
        println!(
            "check ok: {} round-trips byte-identical, churn-0.1 wire ratio {:.1}% <= {:.0}%, \
             lazy pre-serve {:.1}% < {:.0}% (stale {:.1}%), layouts identical, \
             fleet plan shard-invariant",
            rows.len(),
            at_0p1.wire_ratio() * 100.0,
            MAX_WIRE_RATIO_AT_0P1 * 100.0,
            lazy.before_serve_frac * 100.0,
            MAX_EARLY_DECODE_FRAC_SMALL * 100.0,
            stale.before_serve_frac * 100.0,
        );
        return;
    }

    if !small && lazy.before_serve_frac >= MAX_EARLY_DECODE_FRAC {
        eprintln!(
            "warning: lazy pre-serve decode {:.1}% is at/above the {:.0}% bench ceiling — \
             the ci.sh BENCH_store.json gate will fail",
            lazy.before_serve_frac * 100.0,
            MAX_EARLY_DECODE_FRAC * 100.0,
        );
    }

    let at_0p1 = row_at(&rows, 0.1);
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"store\",\n");
    json.push_str(&format!("  \"lab\": \"{lab}\",\n"));
    json.push_str(&format!("  \"churn_seed\": {CHURN_SEED},\n"));
    json.push_str(&format!(
        "  \"rates\": [{}],\n",
        RATES.map(|r| r.to_string()).join(", ")
    ));
    json.push_str(&format!(
        "  \"roundtrip_ok\": {},\n",
        rows.iter().all(|r| r.roundtrip_ok())
    ));
    json.push_str(&format!(
        "  \"wire_ratio_at_0p1\": {:.4},\n  \"dedup_ratio_at_0p1\": {:.4},\n",
        at_0p1.wire_ratio(),
        1.0 - at_0p1.wire_ratio(),
    ));
    json.push_str("  \"delta_sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let c = &r.churn;
        json.push_str(&format!(
            concat!(
                "    {{\"rate\": {}, \"bytes_full\": {}, \"wire_bytes\": {}, ",
                "\"manifest_bytes\": {}, \"wire_ratio\": {:.4}, \"chunks_sent\": {}, ",
                "\"chunks_reused\": {}, \"roundtrip_ok\": {}, \"churn_edits\": {}}}"
            ),
            r.rate,
            r.bytes_full,
            r.wire_bytes,
            r.manifest_bytes,
            r.wire_ratio(),
            r.chunks_sent,
            r.chunks_reused,
            r.roundtrip_ok(),
            c.total_edits(),
        ));
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        concat!(
            "  \"lazy\": {{\"early_serve_frac\": {}, \"payload_bytes\": {}, ",
            "\"before_serve_frac\": {:.4}, \"priced_before_serve_frac\": {:.4}, ",
            "\"hot_chunks\": {}, \"cold_chunks\": {}, ",
            "\"hot_decode_ns\": {}, \"cold_decode_ns\": {}, \"decode_ns_per_mb\": {:.0}, ",
            "\"layout_match\": {}, \"ready_funcs\": {}, \"total_funcs\": {}}},\n"
        ),
        lazy.early_serve_frac,
        lazy.payload_bytes,
        lazy.before_serve_frac,
        lazy.priced_before_serve_frac,
        lazy.hot_chunks,
        lazy.cold_chunks,
        lazy.hot_decode_ns,
        lazy.cold_decode_ns,
        lazy.decode_ns_per_mb,
        lazy.layout_match,
        lazy.ready_funcs,
        lazy.total_funcs,
    ));
    json.push_str(&format!(
        concat!(
            "  \"lazy_stale\": {{\"early_serve_frac\": {}, \"before_serve_frac\": {:.4}, ",
            "\"hot_chunks\": {}, \"cold_chunks\": {}, \"layout_match\": {}}},\n"
        ),
        EARLY_FRAC,
        stale.before_serve_frac,
        stale.hot_chunks,
        stale.cold_chunks,
        stale.layout_match,
    ));
    json.push_str(&format!(
        concat!(
            "  \"fleet\": {{\"bytes_full\": {}, \"bytes_on_wire\": {}, \"wire_ratio\": {:.4}, ",
            "\"cache_hit_rate\": {:.4}, \"store_dedup_ratio\": {:.4}, ",
            "\"mean_download_ms\": {:.1}, \"max_download_ms\": {}, ",
            "\"early_serve_frac\": {}, \"boot_ms_p50\": {:.0}, \"boot_ms_p95\": {:.0}}}\n"
        ),
        fleet.bytes_full,
        fleet.bytes_on_wire,
        fleet.wire_ratio,
        fleet.cache_hit_rate,
        fleet.store_dedup_ratio,
        fleet.mean_download_ms,
        fleet.max_download_ms,
        EARLY_FRAC,
        fleet.boot_ms_p50,
        fleet.boot_ms_p95,
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_store.json", &json).expect("write BENCH_store.json");
    println!("wrote BENCH_store.json");
}
