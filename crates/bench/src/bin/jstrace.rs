//! `jstrace` — boot-trace analyzer for Chrome traces written by
//! `jsboot --trace` (or any trace from the telemetry crate).
//!
//! Reads the trace, pairs begin/end events per track, and reports:
//! the boot's phase critical path (decode → lint → prop slots →
//! pipeline), the top-N slowest function compiles, and per-worker stall
//! attribution (how much of the pipeline wall each worker spent busy).
//!
//! Usage:
//!   jstrace FILE              analyze a Chrome trace
//!   jstrace FILE --validate   schema-check only (CI gate): well-formed
//!                             JSON, matched B/E pairs, monotonic
//!                             timestamps per track. Exits nonzero on
//!                             any violation.
//!   jstrace FILE --top N      report the N slowest compiles (default 10)
//!   jstrace FILE --warmup     rebuild per-server warmup timelines from
//!                             the `rps_norm`/`latency_ms` counter series
//!                             and `serve-start` instants (the schema
//!                             `fleet::timelines_to_trace_capped` writes) and
//!                             print PELT segment boundaries plus each
//!                             server's warmup classification. With
//!                             --validate, checks the warmup schema
//!                             instead of printing: every server track
//!                             must carry a serve-start instant and
//!                             aligned rps/latency series that classify
//!                             cleanly. Exits nonzero on any violation.

use std::collections::{BTreeMap, HashMap};

use fleet::{classify_timeline, Sample, Timeline, WarmupAnalysisParams};
use telemetry::json::{parse, Json};

/// One paired begin/end span, flattened out of the event stream.
struct FlatSpan {
    name: String,
    pid: u64,
    tid: u64,
    dur_us: f64,
    func: Option<u64>,
}

fn usage() -> ! {
    eprintln!("usage: jstrace FILE [--validate] [--top N] [--warmup]");
    std::process::exit(2);
}

/// One server track rebuilt from the fleet-trace counter schema.
#[derive(Default)]
struct ServerTrack {
    process_name: Option<String>,
    serve_start_ms: Option<u64>,
    /// Trace-clock timestamp (µs) of the serve-start instant, used to
    /// undo the exporter's rebase-to-zero and recover server-local time.
    serve_ts_us: Option<u64>,
    /// Counter series keyed by trace timestamp (µs): rebasing shifts all
    /// tracks by the same amount, so ordering and spacing survive.
    rps: BTreeMap<u64, f64>,
    latency: BTreeMap<u64, f64>,
    code: BTreeMap<u64, f64>,
}

/// Collects the warmup-view schema (`process_name` metadata,
/// `serve-start` instants, `rps_norm`/`latency_ms`/`code_bytes`
/// counters) per pid. Tracks without any rps samples are not servers
/// (e.g. a boot trace's span tracks) and are dropped.
fn collect_server_tracks(events: &[Json]) -> BTreeMap<u64, ServerTrack> {
    let mut tracks: BTreeMap<u64, ServerTrack> = BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let pid = ev.get("pid").and_then(Json::as_u64).unwrap_or(0);
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(Json::as_u64).unwrap_or(0);
        let arg = |key: &str| ev.get("args").and_then(|a| a.get(key));
        match (ph, name) {
            ("M", "process_name") => {
                if let Some(n) = arg("name").and_then(Json::as_str) {
                    tracks.entry(pid).or_default().process_name = Some(n.to_string());
                }
            }
            ("i", "serve-start") => {
                let t = tracks.entry(pid).or_default();
                t.serve_start_ms = arg("t_ms").and_then(Json::as_u64);
                t.serve_ts_us = Some(ts);
            }
            ("C", "rps_norm" | "latency_ms" | "code_bytes") => {
                let v = arg("value").and_then(Json::as_f64).unwrap_or(0.0);
                let t = tracks.entry(pid).or_default();
                match name {
                    "rps_norm" => t.rps.insert(ts, v),
                    "latency_ms" => t.latency.insert(ts, v),
                    _ => t.code.insert(ts, v),
                };
            }
            _ => {}
        }
    }
    tracks.retain(|_, t| !t.rps.is_empty());
    tracks
}

/// Rebuilds a [`Timeline`] in server-local milliseconds. The exporter
/// rebased every timestamp by the trace-wide minimum; the serve-start
/// instant carries its absolute time as an attribute, which pins the
/// offset exactly.
fn rebuild_timeline(track: &ServerTrack) -> Result<Timeline, String> {
    let serve_start_ms = track.serve_start_ms.ok_or("missing serve-start instant")?;
    let serve_ts_ms = track.serve_ts_us.unwrap_or(0) / 1_000;
    let offset_ms = serve_ts_ms.saturating_sub(serve_start_ms);
    if track.latency.len() != track.rps.len() {
        return Err(format!(
            "rps/latency series misaligned: {} vs {} samples",
            track.rps.len(),
            track.latency.len()
        ));
    }
    let mut samples = Vec::with_capacity(track.rps.len());
    for (&ts, &rps_norm) in &track.rps {
        let Some(&latency_ms) = track.latency.get(&ts) else {
            return Err(format!("latency sample missing at ts {ts} us"));
        };
        let t_ms = (ts / 1_000)
            .checked_sub(offset_ms)
            .ok_or("sample precedes the trace epoch")?;
        samples.push(Sample {
            t_ms,
            rps_norm,
            latency_ms,
            code_bytes: track.code.get(&ts).copied().unwrap_or(0.0) as u64,
        });
    }
    Ok(Timeline {
        samples,
        serve_start_ms,
        ..Default::default()
    })
}

/// The `--warmup` view: per-server segment boundaries and class. In
/// `strict` mode nothing is printed per server; the return value is the
/// number of schema violations (CI pins it to zero).
fn warmup_view(events: &[Json], strict: bool) -> usize {
    const MAX_PRINTED: usize = 12;
    let tracks = collect_server_tracks(events);
    if tracks.is_empty() {
        eprintln!("jstrace: no server tracks with rps_norm counters in this trace");
        return 1;
    }
    let params = WarmupAnalysisParams::default();
    let mut violations = 0;
    let mut printed = 0;
    println!(
        "\nwarmup classification ({} server track(s)):",
        tracks.len()
    );
    for (pid, track) in &tracks {
        let label = track
            .process_name
            .clone()
            .unwrap_or_else(|| format!("pid {pid}"));
        let tl = match rebuild_timeline(track) {
            Ok(tl) => tl,
            Err(e) => {
                eprintln!("  {label}: BAD TRACK: {e}");
                violations += 1;
                continue;
            }
        };
        let duration_ms = tl.samples.last().map_or(0, |s| s.t_ms);
        let verdict = classify_timeline(&tl, duration_ms, &params);
        let bounds = verdict.rps_boundaries_ms();
        if bounds.windows(2).any(|w| w[0] >= w[1]) {
            eprintln!("  {label}: BAD TRACK: non-monotonic segment boundaries {bounds:?}");
            violations += 1;
            continue;
        }
        if strict {
            continue;
        }
        if printed == MAX_PRINTED {
            println!("  ... and {} more", tracks.len() - MAX_PRINTED);
        }
        printed += 1;
        if printed > MAX_PRINTED {
            continue;
        }
        let mut segs = String::new();
        for (i, seg) in verdict.rps_segments.iter().enumerate() {
            if i > 0 {
                segs.push_str(" | ");
            }
            let start = verdict.times_ms[seg.start];
            let end = verdict.times_ms[seg.end - 1];
            let _ = std::fmt::Write::write_fmt(
                &mut segs,
                format_args!("{start}-{end} @{:.2}", seg.mean),
            );
        }
        let steady = verdict
            .steady_ms
            .map_or("-".to_string(), |t| format!("{t} ms"));
        println!(
            "  {label:<24} {:<16} steady {steady:<12} rps segments: [{segs}]",
            verdict.class.name(),
        );
    }
    if strict && violations == 0 {
        println!(
            "  warmup schema ok: {} server track(s) classified",
            tracks.len()
        );
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let mut validate = false;
    let mut warmup = false;
    let mut top = 10usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--validate" => validate = true,
            "--warmup" => warmup = true,
            "--top" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => top = n,
                None => {
                    eprintln!("jstrace: --top needs a number");
                    usage();
                }
            },
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_string()),
            bad => {
                eprintln!("jstrace: unknown argument `{bad}`");
                usage();
            }
        }
    }
    let Some(file) = file else { usage() };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("jstrace: cannot read {file}: {e}");
            std::process::exit(1);
        }
    };

    // Schema validation runs in both modes: analysis of a malformed
    // trace would silently misattribute time.
    let summary = match telemetry::validate_chrome(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("jstrace: {file} failed Chrome-trace validation: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{file}: valid Chrome trace — {} events, {} tracks, {} span pairs, {} instants",
        summary.events, summary.tracks, summary.span_pairs, summary.instants
    );
    if warmup {
        let doc = parse(&text).expect("validated JSON parses");
        let events = doc
            .get("traceEvents")
            .unwrap_or(&doc)
            .as_arr()
            .expect("validated trace has an event array");
        let violations = warmup_view(events, validate);
        if violations > 0 {
            eprintln!("jstrace: {violations} warmup-schema violation(s) in {file}");
            std::process::exit(1);
        }
        return;
    }
    if validate {
        return;
    }

    let doc = parse(&text).expect("validated JSON parses");
    let events = doc
        .get("traceEvents")
        .unwrap_or(&doc)
        .as_arr()
        .expect("validated trace has an event array");

    // Pair B/E per (pid, tid) and pick up track names from metadata.
    type OpenSpan = (String, f64, Option<u64>);
    let mut stacks: HashMap<(u64, u64), Vec<OpenSpan>> = HashMap::new();
    let mut track_names: HashMap<(u64, u64), String> = HashMap::new();
    let mut spans: Vec<FlatSpan> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let pid = ev.get("pid").and_then(Json::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(Json::as_u64).unwrap_or(0);
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
        match ph {
            "M" if name == "thread_name" => {
                if let Some(n) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    track_names.insert((pid, tid), n.to_string());
                }
            }
            "B" => {
                let ts = ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
                let func = ev
                    .get("args")
                    .and_then(|a| a.get("func"))
                    .and_then(Json::as_u64);
                stacks
                    .entry((pid, tid))
                    .or_default()
                    .push((name.to_string(), ts, func));
            }
            "E" => {
                let ts = ev.get("ts").and_then(Json::as_f64).unwrap_or(0.0);
                if let Some((name, start, func)) = stacks.get_mut(&(pid, tid)).and_then(Vec::pop) {
                    spans.push(FlatSpan {
                        name,
                        pid,
                        tid,
                        dur_us: ts - start,
                        func,
                    });
                }
            }
            _ => {}
        }
    }

    // Phase critical path: the sequential boot phases, in order.
    let phase_dur = |name: &str| -> Option<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .fold(None, |m: Option<f64>, d| Some(m.map_or(d, |m| m.max(d))))
    };
    println!("\nboot critical path:");
    let mut total = 0.0;
    for phase in ["decode", "lint-repair", "prop-slots", "pipeline"] {
        if let Some(d) = phase_dur(phase) {
            total += d;
            println!("  {phase:<12} {d:>12.1} us");
        }
    }
    println!("  {:<12} {total:>12.1} us", "total");

    // Top-N slowest compiles.
    let mut compiles: Vec<&FlatSpan> = spans.iter().filter(|s| s.name == "compile").collect();
    compiles.sort_by(|a, b| b.dur_us.total_cmp(&a.dur_us));
    println!("\nslowest compiles (top {}):", top.min(compiles.len()));
    for s in compiles.iter().take(top) {
        let func = s.func.map_or_else(|| "?".to_string(), |f| f.to_string());
        let track = track_names
            .get(&(s.pid, s.tid))
            .cloned()
            .unwrap_or_else(|| format!("track {}", s.tid));
        println!("  func {func:<8} {:>10.1} us  on {track}", s.dur_us);
    }

    // Stall attribution: how much of the pipeline wall each worker spent
    // translating. The remainder is waiting for the slowest worker, the
    // in-order emission, and scheduling.
    if let Some(pipeline_us) = phase_dur("pipeline") {
        let mut busy: HashMap<(u64, u64), (f64, usize)> = HashMap::new();
        for s in spans.iter().filter(|s| s.name == "compile") {
            let e = busy.entry((s.pid, s.tid)).or_insert((0.0, 0));
            e.0 += s.dur_us;
            e.1 += 1;
        }
        let mut rows: Vec<(&String, f64, usize)> = busy
            .iter()
            .filter_map(|(key, (us, n))| track_names.get(key).map(|name| (name, *us, *n)))
            .filter(|(name, _, _)| name.starts_with("worker"))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        if !rows.is_empty() && pipeline_us > 0.0 {
            println!("\nworker stall attribution (pipeline wall {pipeline_us:.1} us):");
            for (name, us, n) in rows {
                let pct = us / pipeline_us * 100.0;
                println!("  {name:<10} {n:>5} compiles  {us:>10.1} us busy  ({pct:>5.1}% of wall)");
            }
        }
    }
}
