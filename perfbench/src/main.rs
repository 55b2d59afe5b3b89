//! End-to-end benchmark of the three operations a `cliffguard` user
//! waits for: a `cliffguard design` run, a serve `design` frame, and an
//! `ingest` stream. See README.md in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload design-batch|serve-design|ingest-stream \
//!     --seconds S [--seed N] [--trace 0|1]
//! ```
//!
//! Run from the repository root. `--trace 0` drives the built binary and
//! prints the end-to-end metrics; `--trace 1` replays the ops in-process
//! with a span around every layer call and prints the per-layer metrics.
//! The last line of standard output is the result as one JSON object.

mod drive;
mod inputs;
mod measure;
mod ops;
mod trace;
mod traced;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Where runs leave their span and report files (inputs and daemon state
/// live in a per-process subdirectory that is removed at exit).
pub const OUT_DIR: &str = "perfbench/out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DesignBatch,
    ServeDesign,
    IngestStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "design-batch" => Some(Self::DesignBatch),
            "serve-design" => Some(Self::ServeDesign),
            "ingest-stream" => Some(Self::IngestStream),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::DesignBatch => "design-batch",
            Self::ServeDesign => "serve-design",
            Self::IngestStream => "ingest-stream",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (want design-batch|serve-design|ingest-stream)"
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = match value.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => Some(s),
                    _ => return Err(format!("bad --seconds `{value}`")),
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (want 0|1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Median (mean of the middle pair for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A measured run is cut into this many consecutive blocks of whole
/// passes over its inputs, and the median latency and the rates are each
/// the median of their per-block values: a burst of outside load that
/// slows one block does not move the run's figure.
const BLOCKS: usize = 5;

/// The end-to-end metrics of one measured run. `op_p90_ms` is taken over
/// the whole run, so that as many samples as possible lie beyond it.
fn end_to_end(m: &measure::Measured) -> Vec<Metric> {
    let cycle = m.cycle.max(1);
    let passes = (m.ops.len() / cycle).max(1);
    let blocks = BLOCKS.min(passes);
    let bounds: Vec<usize> = (0..=blocks)
        .map(|i| {
            if i == blocks {
                m.ops.len()
            } else {
                i * passes / blocks * cycle
            }
        })
        .collect();
    let mut per_block: [Vec<f64>; 4] = Default::default();
    for w in bounds.windows(2) {
        let ops = &m.ops[w[0]..w[1]];
        if ops.is_empty() {
            continue;
        }
        let began = if w[0] == 0 {
            0.0
        } else {
            m.ops[w[0] - 1].end_s
        };
        let wall = ops[ops.len() - 1].end_s - began;
        let n = ops.len() as f64;
        let latencies: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
        let bytes: u64 = ops.iter().map(|o| o.input_bytes).sum();
        let cpu: f64 = ops.iter().map(|o| o.cpu_s).sum();
        for (acc, value) in per_block.iter_mut().zip([
            median(&latencies),
            n / wall,
            bytes as f64 / 1e6 / wall,
            cpu / n,
        ]) {
            acc.push(value);
        }
    }
    vec![
        metric("op_p50_ms", median(&per_block[0]), "ms"),
        metric("op_p90_ms", quantile(&m.latencies_ms(), 0.9), "ms"),
        metric("ops_per_s", median(&per_block[1]), "1/s"),
        metric("input_mb_per_s", median(&per_block[2]), "MB/s"),
        metric("cpu_s_per_op", median(&per_block[3]), "s"),
        metric("peak_rss_mb", median(&m.peak_rss_mb), "MB"),
        metric("setup_s", median(&m.setup_s), "s"),
    ]
}

fn untraced(args: &Args, program: &drive::Program, work: &Path) -> Result<Outcome, String> {
    let threads = cliffguard::parallel::current_threads();
    let measured = match args.workload {
        Workload::DesignBatch => {
            let ops: Vec<_> = inputs::design_batch(args.seed, work)?
                .iter()
                .map(measure::design_cli)
                .collect();
            measure::cli_loop(program, &ops, args.seconds, 1, |_| true)?.0
        }
        Workload::IngestStream => {
            let tapes = inputs::ingest_stream(args.seed, work)?;
            let ops: Vec<_> = tapes.iter().map(measure::ingest_cli).collect();
            let episodes = &tapes[0].episodes;
            measure::cli_loop(program, &ops, args.seconds, 1, |r| {
                measure::triggers(&r.stdout) == *episodes
            })?
            .0
        }
        Workload::ServeDesign => {
            let frames = inputs::serve_frames(args.seed);
            let reference = measure::serve_reference(&frames, threads);
            measure::serve_loop(program, &frames, &reference, threads, args.seconds, work)?.measured
        }
    };
    let metrics = end_to_end(&measured);
    let p90 = metrics[1].value;
    eprintln!(
        "perfbench: {} seed {}: {} ops ({} failed) in {:.1} s; {} samples beyond op_p90_ms",
        args.workload.name(),
        args.seed,
        measured.attempted,
        measured.failed,
        measured.ops.last().map_or(0.0, |o| o.end_s),
        measured.ops.iter().filter(|o| o.latency_ms > p90).count()
    );
    Ok(Outcome {
        correct: measured.checks_passed && measured.failed == 0 && measured.attempted > 0,
        attempted: measured.attempted,
        failed: measured.failed,
        metrics,
    })
}

/// Removes the per-process working directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    if !Path::new("perfbench/Cargo.toml").is_file() || !Path::new("Cargo.toml").is_file() {
        return Err("run from the repository root".into());
    }
    let program = drive::Program::new(drive::build_program()?);
    let work = WorkDir(Path::new(OUT_DIR).join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    if args.trace {
        traced::run(args.workload, args.seed, &program, &work.0)
    } else {
        untraced(args, &program, &work.0)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload design-batch|serve-design|ingest-stream \
                 --seconds S [--seed N (default {DEFAULT_SEED})] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
