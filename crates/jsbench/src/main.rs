//! `jsbench` — the benchmark of record.
//!
//! One workload (what the pipeline runs, once per workload, seed and
//! pass):
//!
//! ```text
//! jsbench --workload NAME --seed N --seconds S --trace 0|1
//!         [--scale bench|tiny] [--spans FILE] [--flip-reference]
//! ```
//!
//! prints a detail object (header, digests, n/median/quartiles) and then,
//! as the last line, `{"correct", "attempted", "failed", "metrics"}`:
//! every end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. `--spans FILE` writes the traced pass's spans.
//! `--flip-reference` is the self-test: it corrupts the reference digest,
//! so the run must fail.
//!
//! Every workload, both passes, one document:
//!
//! ```text
//! jsbench [--seed N] [--seconds S] [--scale bench|tiny] [--out FILE]
//!         [--repeat K] [--spec BENCHMARK.json]
//! ```
//!
//! `--repeat K` runs K sets and fails when two sets disagree by more
//! than a metric's bound in the spec, or at all on an exact metric or a
//! digest. Nothing is written to the current directory unless `--out`
//! or `--spans` names a file there.
//!
//! Exits 0 only when every op matched its reference (`failed == 0`).

use std::path::PathBuf;
use std::process::ExitCode;

use jsbench::inputs::Scale;
use jsbench::suite::{run_suite, SuiteArgs};
use jsbench::{RunArgs, Workload};

const USAGE: &str =
    "usage: jsbench [--workload NAME --trace 0|1 [--spans FILE] [--flip-reference]] \
[--seed N] [--seconds S] [--scale bench|tiny] [--out FILE] [--repeat K] [--spec FILE]";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    spans: Option<PathBuf>,
    flip_reference: bool,
    out: Option<PathBuf>,
    repeat: usize,
    spec: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        scale: Scale::Bench,
        spans: None,
        flip_reference: false,
        out: None,
        repeat: 1,
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--flip-reference" {
            cli.flip_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                cli.scale = match value.as_str() {
                    "bench" => Scale::Bench,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--spans" => cli.spans = Some(PathBuf::from(value)),
            "--out" => cli.out = Some(PathBuf::from(value)),
            "--repeat" => cli.repeat = value.parse().map_err(|_| bad())?,
            "--spec" => cli.spec = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(cli)
}

fn run_one(cli: &Cli, workload: Workload) -> Result<bool, String> {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: cli.scale,
        flip_reference: cli.flip_reference,
        ..RunArgs::new(workload)
    };
    let out = jsbench::run(&args);
    if let (Some(path), Some(spans)) = (&cli.spans, &out.spans_json) {
        std::fs::write(path, spans).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", out.detail_line());
    println!("{}", out.result_line());
    Ok(out.correct())
}

fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let args = SuiteArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: cli.scale,
        repeat: cli.repeat,
        spec: cli.spec.clone(),
    };
    let (doc, ok) = run_suite(&exe, &args)?;
    match &cli.out {
        Some(path) => std::fs::write(path, &doc)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        None => print!("{doc}"),
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("jsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => run_all(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("jsbench: an op missed its reference, or two sets disagreed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("jsbench: {e}");
            ExitCode::from(2)
        }
    }
}
