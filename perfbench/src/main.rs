//! `perfbench` — the F-1 workspace's end-to-end and per-layer benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Three workloads, each loading a different set of layers (see
//! `perfbench/README.md` for why each was chosen and which per-layer
//! metric should move which end-to-end metric):
//!
//! * `serve_hot` — open-loop `top`/`query` traffic over loopback TCP
//!   against a warmed server: framing, parse, cache probe, render.
//! * `explore_mix` — a closed-loop caller driving `Session` in-process
//!   with distinct cold plans of heavy-tailed size: the tier-1 kernel.
//! * `delta_churn` — hot-plan polling beside scheduled catalog deltas on
//!   a durable server, then a restart over the same data directory.
//!
//! With `--trace 0` the run measures end-to-end metrics untraced. With
//! `--trace 1` it replays all three workloads in-process with spans
//! around the calls into each layer and reports the per-layer metrics.
//! The last line of standard output is the result object; the line
//! before it carries the run fingerprint and every sample count.

mod delta_churn;
mod explore_mix;
mod loadgen;
mod serve_hot;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{num, string};

/// Seed of every synthesized catalog. The workload seed draws the
/// requests, not the catalog: frontier sizes differ several-fold between
/// catalogs, and a benchmark compared across seeds must measure the same
/// system each time.
pub const CATALOG_SEED: u64 = 42;

/// The seed later performance claims must also hold on, beside the
/// seeds they were developed with.
pub const HOLDOUT_SEED: u64 = 9_001;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Failed, refused and wrong answers.
    pub failed: u64,
    /// Correctness and validity failures, each described.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra JSON fields for the detail line.
    pub details: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn detail(&mut self, name: &str, json: String) {
        self.details.push((name.to_owned(), json));
    }

    /// Records the process's peak RSS so far as `peak_rss_mib`. Workloads
    /// call it when their measured phases end, before their output checks,
    /// whose reference evaluations would otherwise set the peak.
    pub fn peak_rss(&mut self) {
        self.metric("peak_rss_mib", stats::peak_rss_mib(), "MiB");
    }

    /// Records a failed check; the run then reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn result_line(&self) -> String {
        let metrics: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    (*name).to_owned(),
                    format!("{{\"value\": {}, \"unit\": {}}}", num(*value), string(unit)),
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.problems.is_empty() && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            stats::object(&metrics)
        )
    }
}

/// Runs `setup` `times` times, tearing down every result but the last,
/// and returns the last with the median set-up time in seconds.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64, Vec<f64>) {
    let mut seconds = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        kept = Some(setup());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    let kept = kept.expect("at least one set-up");
    (kept, stats::median(&seconds), seconds)
}

/// Set-ups per run; the reported `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A scratch directory inside the working directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let dir = Path::new(".perfbench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["serve_hot", "explore_mix", "delta_churn"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The git revision when run from a git checkout (read from `.git`
/// without starting a process), else `"none"`.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|r| r.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "none".to_owned())
}

/// FNV-1a over the sorted paths and bytes of the sources that build the
/// measured program, so runs from checkouts without git still identify
/// the code they measured.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.push(PathBuf::from("perfbench/Cargo.toml"));
    files.sort();
    let digest = files.iter().fold(stats::FNV_OFFSET, |h, path| {
        let h = stats::fnv1a(h, path.to_string_lossy().as_bytes());
        stats::fnv1a(h, &std::fs::read(path).unwrap_or_default())
    });
    format!("{digest:016x}")
}

fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"git_rev\": {}, \"source_digest\": {}, \
         \"profile\": {}, \"debug_assertions\": {}, \"workload\": {}, \"seed\": {}, \
         \"holdout_seed\": {HOLDOUT_SEED}, \"seconds\": {}, \"trace\": {}}}",
        string(env!("PERFBENCH_RUSTC_VERSION")),
        string(&git_rev()),
        string(&source_digest()),
        string(env!("PERFBENCH_PROFILE")),
        cfg!(debug_assertions),
        string(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_hot|explore_mix|delta_churn> \
                 --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut report = if args.trace {
        trace_all(args.seed, budget)
    } else {
        match args.workload.as_str() {
            "serve_hot" => serve_hot::run(args.seed, budget),
            "explore_mix" => explore_mix::run(args.seed, budget),
            _ => delta_churn::run(args.seed, budget),
        }
    };
    report.detail("wall_s", num(started.elapsed().as_secs_f64()));
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let mut details = vec![("fingerprint".to_owned(), fingerprint(&args))];
    details.append(&mut report.details);
    details.push((
        "problems".to_owned(),
        format!(
            "[{}]",
            report
                .problems
                .iter()
                .map(|p| string(p))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    println!("{}", stats::object(&details));
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

/// The traced run: every workload's replay, so every per-layer metric is
/// measured whichever workload the run is named for. Each replay gets a
/// third of the budget.
fn trace_all(seed: u64, budget: Duration) -> Report {
    let third = budget / 3;
    let mut report = Report::default();
    serve_hot::trace(seed, third, &mut report);
    explore_mix::trace(seed, third, &mut report);
    delta_churn::trace(seed, third, &mut report);
    report
}
