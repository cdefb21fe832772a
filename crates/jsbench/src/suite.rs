//! The whole benchmark in one command: every workload, untraced then
//! traced, each in a process of its own (so `peak_rss_mb` and `setup_s`
//! belong to one workload), gathered into one JSON document. With
//! `--repeat K` it runs K sets back to back and checks that they agree
//! within the bounds `BENCHMARK.json` fixes (A/A).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use telemetry::json::{self, Json};

use crate::inputs::Scale;
use crate::{json_num, spec, Workload};

/// What the suite is told.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Seed of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// Input size.
    pub scale: Scale,
    /// Sets to run back to back.
    pub repeat: usize,
    /// Where the bounds come from.
    pub spec: PathBuf,
}

/// One child run, parsed.
#[derive(Clone, Debug)]
pub struct ChildRun {
    /// The workload it ran.
    pub workload: Workload,
    /// Whether it was the traced pass.
    pub trace: bool,
    /// Whether the child exited 0 with `correct: true`.
    pub ok: bool,
    /// Its detail object, verbatim.
    pub detail: String,
    /// (name, value) of every metric it printed.
    pub metrics: Vec<(String, f64)>,
    /// Its digests object, verbatim.
    pub digests: String,
    /// Ops it attempted / failed.
    pub counts: (u64, u64),
}

/// Runs one workload in a child process of `exe` and parses its last two
/// output lines (detail, then result).
///
/// # Errors
///
/// Returns a message when the child cannot be started or prints
/// something that is not the two expected JSON lines.
pub fn run_child(
    exe: &Path,
    args: &SuiteArgs,
    workload: Workload,
    trace: bool,
) -> Result<ChildRun, String> {
    let scale = args.scale.name();
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", scale])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let what = format!("{} --trace {}", workload.name(), u8::from(trace));
    let result = lines.next().ok_or(format!("{what}: no output"))?;
    let detail = lines.next().ok_or(format!("{what}: no detail line"))?;
    let parsed = json::parse(result).map_err(|e| format!("{what}: result line: {e:?}"))?;
    let detail_doc = json::parse(detail).map_err(|e| format!("{what}: detail line: {e:?}"))?;
    let Some(Json::Obj(fields)) = parsed.get("metrics") else {
        return Err(format!("{what}: result line has no metrics"));
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            (name.clone(), value)
        })
        .collect();
    let count = |key: &str| parsed.get(key).and_then(Json::as_u64).unwrap_or(0);
    let digests = match detail_doc.get("digests") {
        Some(Json::Obj(ds)) => ds
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", v.as_str().unwrap_or("")))
            .collect::<Vec<_>>()
            .join(", "),
        _ => String::new(),
    };
    Ok(ChildRun {
        workload,
        trace,
        ok: out.status.success() && parsed.get("correct") == Some(&Json::Bool(true)),
        detail: detail.to_string(),
        metrics,
        digests: format!("{{{digests}}}"),
        counts: (count("attempted"), count("failed")),
    })
}

/// One row of the A/A table.
#[derive(Clone, Debug)]
pub struct AaRow {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: String,
    /// The metric's value in each set.
    pub values: Vec<f64>,
    /// `(max − min) / median`.
    pub spread: f64,
    /// Allowed spread: the metric's bound, or 0 for exact metrics.
    pub bound: f64,
}

impl AaRow {
    /// Whether the sets agree within the bound.
    pub fn ok(&self) -> bool {
        self.spread <= self.bound
    }
}

/// Compares K sets: every end-to-end metric against its bound, every
/// exact per-layer metric and every digest for identity.
pub fn aa_table(sets: &[Vec<ChildRun>], bounds: &[(String, f64)]) -> Vec<AaRow> {
    let mut rows = Vec::new();
    let Some(first) = sets.first() else {
        return rows;
    };
    for (i, run) in first.iter().enumerate() {
        for (m, (name, _)) in run.metrics.iter().enumerate() {
            let exact = spec::find(name).is_some_and(|s| s.exact);
            let bound = if run.trace {
                if !exact {
                    continue;
                }
                0.0
            } else {
                match bounds.iter().find(|(n, _)| n == name) {
                    Some((_, b)) => *b,
                    None => continue,
                }
            };
            let values: Vec<f64> = sets.iter().map(|s| s[i].metrics[m].1).collect();
            let mid = crate::stats::median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let spread = if hi == lo { 0.0 } else { (hi - lo) / mid.abs() };
            rows.push(AaRow {
                workload: run.workload.name(),
                metric: name.clone(),
                values,
                spread,
                bound,
            });
        }
        if sets.iter().any(|s| s[i].digests != run.digests) {
            rows.push(AaRow {
                workload: run.workload.name(),
                metric: "digests".to_string(),
                values: Vec::new(),
                spread: f64::INFINITY,
                bound: 0.0,
            });
        }
    }
    rows
}

/// Runs the suite and returns the document plus whether every run was
/// correct and (with `repeat > 1`) every A/A row within its bound.
///
/// # Errors
///
/// Returns a message when a child cannot be run or parsed, or the spec
/// file cannot be read.
pub fn run_suite(exe: &Path, args: &SuiteArgs) -> Result<(String, bool), String> {
    let spec_text = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("cannot read {}: {e}", args.spec.display()))?;
    let bounds = spec::bounds_from_benchmark_json(&spec_text)?;
    let mut sets = Vec::new();
    for set in 0..args.repeat.max(1) {
        let mut runs = Vec::new();
        for workload in Workload::ALL {
            for trace in [false, true] {
                eprintln!(
                    "jsbench: set {} {} --trace {}",
                    set + 1,
                    workload.name(),
                    u8::from(trace)
                );
                runs.push(run_child(exe, args, workload, trace)?);
            }
        }
        sets.push(runs);
    }
    let mut ok = sets.iter().flatten().all(|r| r.ok);

    // The header is the same for every run of the suite: lift it from
    // the first detail object.
    let first = json::parse(&sets[0][0].detail).map_err(|e| format!("{e:?}"))?;
    let text = |key: &str| first.get(key).and_then(Json::as_str).unwrap_or("unknown");
    let num = |key: &str| first.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let mut doc = format!(
        "{{\"header\": {{\"seed\": {}, \"seconds\": {}, \"scale\": \"{}\", \"nproc\": {}, \
         \"threads\": {}, \"rustc\": \"{}\", \"git\": \"{}\", \"sets\": {}}},\n \"sets\": [",
        args.seed,
        json_num(args.seconds),
        args.scale.name(),
        json_num(num("nproc")),
        json_num(num("threads")),
        json::escape(text("rustc")),
        json::escape(text("git")),
        sets.len(),
    );
    for (s, runs) in sets.iter().enumerate() {
        doc.push_str(if s > 0 { ",\n  {" } else { "\n  {" });
        for (i, pair) in runs.chunks(2).enumerate() {
            let (e2e, layers) = (&pair[0], &pair[1]);
            let _ = write!(
                doc,
                "{}\n   \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {},\n    \
                 \"end_to_end\": {},\n    \"per_layer\": {}}}",
                if i > 0 { "," } else { "" },
                e2e.workload.name(),
                e2e.ok && layers.ok,
                e2e.counts.0 + layers.counts.0,
                e2e.counts.1 + layers.counts.1,
                e2e.detail,
                layers.detail,
            );
        }
        doc.push_str("\n  }");
    }
    doc.push_str("\n ]");
    if sets.len() > 1 {
        let rows = aa_table(&sets, &bounds);
        doc.push_str(",\n \"aa\": [");
        for (i, r) in rows.iter().enumerate() {
            let values: Vec<String> = r.values.iter().map(|v| json_num(*v)).collect();
            let _ = write!(
                doc,
                "{}\n  {{\"workload\": \"{}\", \"metric\": \"{}\", \"values\": [{}], \
                 \"spread\": {}, \"bound\": {}, \"ok\": {}}}",
                if i > 0 { "," } else { "" },
                r.workload,
                r.metric,
                values.join(", "),
                json_num(r.spread),
                json_num(r.bound),
                r.ok()
            );
            if !r.ok() {
                eprintln!(
                    "jsbench: A/A miss: {} {} spread {:.4} > bound {}",
                    r.workload, r.metric, r.spread, r.bound
                );
            }
        }
        doc.push_str("\n ]");
        ok &= rows.iter().all(AaRow::ok);
    }
    doc.push_str("\n}\n");
    Ok((doc, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(trace: bool, metrics: &[(&str, f64)], digests: &str) -> ChildRun {
        ChildRun {
            workload: Workload::BootStale,
            trace,
            ok: true,
            detail: String::new(),
            metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            digests: digests.to_string(),
            counts: (1, 0),
        }
    }

    #[test]
    fn aa_holds_timings_to_their_bound_and_exact_metrics_to_identity() {
        let bounds = vec![("op_ms".to_string(), 0.10)];
        let set = |op_ms: f64, repaired: f64, lint_ms: f64, digest: &str| {
            vec![
                child(false, &[("op_ms", op_ms)], digest),
                child(
                    true,
                    &[
                        ("analysis.stale.funcs_repaired", repaired),
                        ("analysis.lint.stale_ms", lint_ms),
                    ],
                    digest,
                ),
            ]
        };
        // 5% apart on a timing, identical counts: every row passes, and
        // the traced timing (no bound, not exact) has no row at all.
        let rows = aa_table(
            &[set(100.0, 91.0, 3.0, "{}"), set(105.0, 91.0, 9.0, "{}")],
            &bounds,
        );
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(AaRow::ok), "{rows:?}");
        assert!((rows[0].spread - 5.0 / 102.5).abs() < 1e-12);

        // 20% apart, one count off by one, a digest changed: three misses.
        let rows = aa_table(
            &[set(100.0, 91.0, 3.0, "{a}"), set(120.0, 92.0, 3.0, "{b}")],
            &bounds,
        );
        let missed: Vec<&str> = rows
            .iter()
            .filter(|r| !r.ok())
            .map(|r| r.metric.as_str())
            .collect();
        assert_eq!(
            missed,
            [
                "op_ms",
                "digests",
                "analysis.stale.funcs_repaired",
                "digests"
            ]
        );
    }
}
