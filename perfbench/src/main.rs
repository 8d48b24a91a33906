//! Host-time benchmark of the Stramash reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload npb_read --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload through the library's public API from a single
//! thread, checks every job's simulated outputs, and prints one JSON
//! result line last: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod golden;
mod inputs;
mod jobs;
mod report;
mod run;
#[cfg(test)]
mod tests;
mod trace;

use inputs::Workload;
use report::{json_f64, json_str};
use run::Role;
use std::fmt;
use std::process::ExitCode;
use std::time::Duration;

/// Why the benchmark refused to run.
#[derive(Debug, PartialEq, Eq)]
enum UsageError {
    /// A required flag is absent.
    Missing(&'static str),
    /// A flag's value does not parse.
    BadValue { flag: String, value: String },
    /// A flag the benchmark does not know.
    UnknownFlag(String),
    /// The workload name is not one of the four.
    UnknownWorkload(String),
    /// An environment variable that switches host code paths is set.
    HostKnobSet(String),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsageError::Missing(flag) => write!(f, "missing required flag {flag}"),
            UsageError::BadValue { flag, value } => write!(f, "bad value {value:?} for {flag}"),
            UsageError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            UsageError::UnknownWorkload(w) => write!(
                f,
                "unknown workload {w:?} (expected one of: {})",
                Workload::ALL.map(Workload::name).join(", ")
            ),
            UsageError::HostKnobSet(var) => write!(
                f,
                "environment variable {var} is set; it switches host code paths, so the \
                 benchmark refuses to run (unset it)"
            ),
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, UsageError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| UsageError::BadValue {
            flag: flag.clone(),
            value: String::new(),
        })?;
        let bad = || UsageError::BadValue {
            flag: flag.clone(),
            value: value.clone(),
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| UsageError::UnknownWorkload(value.clone()))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(UsageError::UnknownFlag(flag.clone())),
        }
    }
    Ok(Args {
        workload: workload.ok_or(UsageError::Missing("--workload"))?,
        seed: seed.unwrap_or(inputs::DEFAULT_SEED),
        seconds: seconds.ok_or(UsageError::Missing("--seconds"))?,
        trace: trace.unwrap_or(false),
    })
}

/// Refuses the environment variables that switch host code paths: the
/// epoch engine's knobs, the sweep worker override and the large-class
/// switch.
fn check_env<'a>(vars: impl IntoIterator<Item = &'a str>) -> Result<(), UsageError> {
    for var in vars {
        if var.starts_with("STRAMASH_EPOCH_")
            || var == "STRAMASH_SWEEP_WORKERS"
            || var == "STRAMASH_LARGE"
        {
            return Err(UsageError::HostKnobSet(var.to_string()));
        }
    }
    Ok(())
}

/// The process's resident-set high-water mark in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".to_string(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let env_names: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .collect();
    let args = match check_env(env_names.iter().map(String::as_str))
        .and_then(|()| parse_args(&argv))
    {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };

    run::warm_up();
    let inputs = inputs::generate(args.workload, args.seed);
    let run = run::run(
        args.workload,
        inputs,
        Duration::from_secs(args.seconds),
        args.trace,
    );

    let failures: Vec<&str> = run
        .results
        .iter()
        .filter_map(|(_, j)| j.failure.as_deref())
        .collect();
    for f in &failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let metrics = if args.trace {
        report::with_units(report::per_layer(&run), &report::PER_LAYER)
    } else {
        report::with_units(report::end_to_end(&run, peak_rss_mb()), &report::END_TO_END)
    };
    println!("{}", header(&args, &run));
    println!(
        "{}",
        report::result_line(
            failures.is_empty(),
            run.results.len(),
            failures.len(),
            &metrics
        )
    );
    ExitCode::SUCCESS
}

/// The run header: host, build, inputs and per-job detail.
fn header(args: &Args, run: &run::Run) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let (samples, tail) = report::wall_tail(run);
    let tail = tail.map_or("null".to_string(), |(p, v)| {
        format!("{{\"pct\": {p}, \"ratio_to_median\": {}}}", json_f64(v))
    });
    let mut jobs = Vec::new();
    for role in [Role::Main, Role::ServeProbe, Role::CkptProbe] {
        for job in run.jobs_of(role) {
            let label = job.to_string();
            let runs: Vec<&jobs::JobResult> = run
                .of(role, None)
                .filter(|j| j.job.to_string() == label)
                .collect();
            let Some(first) = runs.first() else { continue };
            let mut timed: Vec<f64> = runs
                .iter()
                .filter(|j| !j.traced)
                .map(|j| j.timed_s)
                .collect();
            let mut setup: Vec<f64> = runs
                .iter()
                .filter(|j| !j.traced)
                .map(|j| j.setup_s)
                .collect();
            let counts: Vec<String> = jobs::COUNT_NAMES
                .iter()
                .zip(first.counts)
                .map(|(n, v)| format!("\"{n}\": {v}"))
                .collect();
            jobs.push(format!(
                "{{\"role\": \"{role:?}\", \"job\": {}, \"runs\": {}, \"timed_s_median\": {}, \"setup_s_median\": {}, \"output\": {}, \"counts\": {{{}}}}}",
                json_str(&label),
                runs.len(),
                json_f64(report::median(&mut timed)),
                json_f64(report::median(&mut setup)),
                json_str(&format!("{:?}", first.output)),
                counts.join(", ")
            ));
        }
    }
    // The manifest enables no cargo features of the library crates.
    format!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cargo_features\": [], \"rustc\": {}, \"git_rev\": {}, \
         \"rotations\": {{\"untraced\": {}, \"traced\": {}}}, \"wall_s_job_samples\": {samples}, \
         \"wall_s_tail\": {tail}, \"jobs\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        json_str(&git_rev()),
        run.rotations[0],
        run.rotations[1],
        jobs.join(", ")
    )
}
