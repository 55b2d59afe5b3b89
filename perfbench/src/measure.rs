//! The untraced runs: closed-loop clients driving the program from
//! outside, with every op's output checked against a reference run at
//! another thread count.

use crate::drive::{CliRun, Daemon, Program};
use crate::inputs::{Frame, LogInput, TapeInput};
use crate::ops::expected_response;
use cliffguard::serve::{run_design, RunOutcome, RunnerOptions};
use std::path::Path;
use std::time::Instant;

/// Fewest untimed program set-ups per run; the run reports their median.
/// The CLI workloads round it up to whole passes over their inputs.
pub const SETUP_REPEATS: usize = 63;
/// Untimed runs per CLI run that sample the program's peak resident set.
pub const RSS_PROBES: usize = 5;

/// One op that completed with the expected output.
pub struct OpRecord {
    /// When it finished, in seconds since the measured loop started.
    pub end_s: f64,
    pub latency_ms: f64,
    /// User + system CPU of the program spent on it.
    pub cpu_s: f64,
    /// Input bytes it consumed.
    pub input_bytes: u64,
}

/// Timings and checks of one measured run.
#[derive(Default)]
pub struct Measured {
    /// Every op that completed with the expected output, in order.
    pub ops: Vec<OpRecord>,
    /// Ops per pass over the run's distinct inputs.
    pub cycle: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Peak resident set of each program process.
    pub peak_rss_mb: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Outputs checked outside the timed ops (reference, warm-ups).
    pub checks_passed: bool,
}

impl Measured {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.latency_ms).collect()
    }
}

/// The part of a CLI run's output that must repeat exactly: standard
/// output plus, for `design`, the session's audit line.
pub fn cli_output(run: &CliRun) -> String {
    let audit = run
        .stderr
        .lines()
        .find(|l| l.starts_with("cliffguard: "))
        .unwrap_or("");
    format!("{}\n--audit--\n{audit}", run.stdout)
}

/// One CLI op: its arguments and the input bytes it reads.
pub struct CliOp {
    pub args: Vec<String>,
    /// The reference run whose output the op's must equal: the same
    /// command at another `--threads`, so the check also covers the
    /// program's thread-count invariance.
    pub reference_args: Vec<String>,
    pub input_bytes: u64,
}

fn with_threads(args: &[String], threads: usize) -> Vec<String> {
    let mut args = args.to_vec();
    args.extend(["--threads".into(), threads.to_string()]);
    args
}

/// `cliffguard design --catalog C --log L`, at the default thread count
/// (all cores); the reference runs at one thread.
pub fn design_cli(input: &LogInput) -> CliOp {
    let args = vec![
        "design".into(),
        "--catalog".into(),
        input.catalog_path.display().to_string(),
        "--log".into(),
        input.log_path.display().to_string(),
    ];
    CliOp {
        reference_args: with_threads(&args, 1),
        args,
        input_bytes: input.log_text.len() as u64,
    }
}

/// Worker threads of an `ingest-stream` op. The ingest's redesign
/// sessions gain nothing from a second thread on a 2-core box (its CPU
/// time per op equals its wall time), and with one the op no longer
/// waits at every `par_map` join for whichever core the host stalled:
/// under a busy neighbour the default thread count slowed the op by up
/// to 40% where one thread slowed it by under 10%.
pub const INGEST_THREADS: usize = 1;

/// `cliffguard ingest --catalog C --log L --window N --gamma G
/// --threads 1`; the reference runs at the default thread count.
pub fn ingest_cli(tape: &TapeInput) -> CliOp {
    let args = vec![
        "ingest".into(),
        "--catalog".into(),
        tape.log.catalog_path.display().to_string(),
        "--log".into(),
        tape.log.log_path.display().to_string(),
        "--window".into(),
        tape.window.to_string(),
        "--gamma".into(),
        tape.gamma.to_string(),
    ];
    CliOp {
        args: with_threads(&args, INGEST_THREADS),
        reference_args: args,
        input_bytes: tape.log.log_text.len() as u64,
    }
}

/// Indices of the windows whose audit line fired a trigger.
pub fn triggers(ingest_stdout: &str) -> Vec<u64> {
    ingest_stdout
        .lines()
        .filter(|l| l.contains(" trigger=1 "))
        .filter_map(|l| l.strip_prefix('W')?.split(' ').next()?.parse().ok())
        .collect()
}

/// The reference runs of `ops`: each must succeed and pass `check`.
fn cli_references(
    program: &Program,
    ops: &[CliOp],
    check: impl Fn(&CliRun) -> bool,
) -> Result<(Vec<CliRun>, bool), String> {
    let mut passed = true;
    let mut references = Vec::with_capacity(ops.len());
    for op in ops {
        let run = program
            .run(&op.reference_args)
            .map_err(|e| format!("spawn cliffguard: {e}"))?;
        if !run.success {
            return Err(format!("reference run failed: {}", run.stderr.trim()));
        }
        passed &= check(&run);
        references.push(run);
    }
    Ok((references, passed))
}

/// Cycles through `ops` back to back for `seconds` (at least `min_ops`),
/// stopping only at the end of a pass, after at least [`SETUP_REPEATS`]
/// timed warm-ups in whole passes. Every op's output must equal
/// its reference run, which must also pass `check_reference`.
/// Peak resident set comes from [`RSS_PROBES`] untimed runs after the
/// loop.
pub fn cli_loop(
    program: &Program,
    ops: &[CliOp],
    seconds: f64,
    min_ops: usize,
    check_reference: impl Fn(&CliRun) -> bool,
) -> Result<(Measured, Vec<CliRun>), String> {
    let (references, checks_passed) = cli_references(program, ops, check_reference)?;
    let expected: Vec<String> = references.iter().map(cli_output).collect();
    let run = |i: usize| {
        program
            .run(&ops[i].args)
            .map_err(|e| format!("spawn cliffguard: {e}"))
    };
    let mut m = Measured {
        checks_passed,
        cycle: ops.len(),
        ..Measured::default()
    };
    for i in 0..SETUP_REPEATS.next_multiple_of(ops.len()) {
        let k = i % ops.len();
        let warm = run(k)?;
        m.checks_passed &= warm.success && cli_output(&warm) == expected[k];
        m.setup_s.push(warm.wall_ms / 1e3);
    }
    let started = Instant::now();
    let mut i = 0;
    while i < min_ops || started.elapsed().as_secs_f64() < seconds || i % ops.len() != 0 {
        let k = i % ops.len();
        i += 1;
        let op = run(k)?;
        m.attempted += 1;
        if !op.success || cli_output(&op) != expected[k] {
            m.failed += 1;
            continue;
        }
        m.ops.push(OpRecord {
            end_s: started.elapsed().as_secs_f64(),
            latency_ms: op.wall_ms,
            cpu_s: op.cpu_s,
            input_bytes: ops[k].input_bytes,
        });
    }
    for i in 0..RSS_PROBES {
        let rss = program
            .peak_rss_mb(&ops[i % ops.len()].args)
            .map_err(|e| format!("spawn cliffguard: {e}"))?;
        m.peak_rss_mb.push(rss);
    }
    Ok((m, references))
}

/// Each frame's session outcome, computed in-process at one thread: the
/// reference every daemon response must equal.
pub fn serve_reference(frames: &[Frame], threads: usize) -> Vec<RunOutcome> {
    let opts = RunnerOptions {
        virtual_time: true,
        ..RunnerOptions::default()
    };
    cliffguard::parallel::set_threads(1);
    let outcomes = frames
        .iter()
        .map(|f| run_design(&f.request, &opts, None, &mut |_| {}))
        .collect();
    cliffguard::parallel::set_threads(threads);
    outcomes
}

/// The daemon's flags: deterministic virtual clock, one worker per core,
/// durable state with a checkpoint persisted (and fsync'd) after every
/// descent iteration.
fn daemon_args(state_dir: &Path, workers: usize) -> Vec<String> {
    vec![
        "--virtual-clock".into(),
        "--max-concurrent".into(),
        workers.to_string(),
        "--checkpoint-every".into(),
        "1".into(),
        "--state-dir".into(),
        state_dir.display().to_string(),
    ]
}

/// Spawns a daemon and waits for its first `status` answer; returns the
/// daemon and when it was spawned.
fn start_daemon(
    program: &Program,
    state_dir: &Path,
    workers: usize,
) -> Result<(Daemon, Instant), String> {
    let started = Instant::now();
    let mut daemon = program
        .spawn_daemon(&daemon_args(state_dir, workers))
        .map_err(|e| format!("spawn daemon: {e}"))?;
    daemon
        .send(r#"{"op":"status"}"#)
        .map_err(|e| format!("daemon: {e}"))?;
    let (_, line) = daemon.recv().map_err(|e| e.to_string())?;
    if !line.contains("\"op\":\"status\"") {
        return Err(format!("daemon answered status with {line}"));
    }
    Ok((daemon, started))
}

/// `seq` of a response line (`{"seq":N,…`).
fn response_seq(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"seq\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// A daemon run: per-frame latencies plus the daemon's responses.
pub struct ServeRun {
    pub measured: Measured,
    /// (frame index, response line) of every design response.
    pub responses: Vec<(usize, String)>,
    /// Bytes and files the daemon left in its state directory.
    pub state_bytes: u64,
    pub state_files: u64,
}

/// Drives one daemon: rounds of `workers` design frames for distinct
/// tenants followed by a `drain` barrier, for at least `seconds` and
/// until every frame has been sent equally often.
pub fn serve_loop(
    program: &Program,
    frames: &[Frame],
    reference: &[RunOutcome],
    workers: usize,
    seconds: f64,
    work_dir: &Path,
) -> Result<ServeRun, String> {
    let mut m = Measured {
        checks_passed: reference
            .iter()
            .all(|o| matches!(o, RunOutcome::Done(r) if r.degraded.is_none())),
        cycle: frames.len(),
        ..Measured::default()
    };
    // A set-up is a fresh daemon answering `status` and then one untimed
    // warm-up design frame at a `drain` barrier.
    let warmup = crate::inputs::warmup_frame();
    let warmup_reference = &serve_reference(std::slice::from_ref(&warmup), workers)[0];
    for i in 0..SETUP_REPEATS {
        let dir = work_dir.join(format!("setup-state-{i}"));
        let (mut daemon, started) = start_daemon(program, &dir, workers)?;
        for frame in [warmup.line.as_str(), r#"{"op":"drain"}"#] {
            daemon
                .send(frame)
                .map_err(|e| format!("daemon write: {e}"))?;
        }
        let (_, line) = daemon.recv().map_err(|e| e.to_string())?;
        daemon.recv().map_err(|e| e.to_string())?;
        m.setup_s.push(started.elapsed().as_secs_f64());
        m.checks_passed &= response_seq(&line)
            .is_some_and(|seq| line == expected_response(seq, &warmup.tenant, warmup_reference));
        daemon
            .shutdown()
            .map_err(|e| format!("daemon shutdown: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    let state_dir = work_dir.join("serve-state");
    let (mut daemon, _) = start_daemon(program, &state_dir, workers)?;

    let mut cpu_before = daemon.cpu_s().map_err(|e| format!("daemon cpu: {e}"))?;
    let mut responses = Vec::new();
    let mut next = 0usize;
    let started = Instant::now();
    loop {
        let round: Vec<usize> = (0..workers).map(|i| (next + i) % frames.len()).collect();
        next += workers;
        let mut sent = Vec::with_capacity(round.len());
        let first_of_round = m.ops.len();
        for &k in &round {
            sent.push(
                daemon
                    .send(&frames[k].line)
                    .map_err(|e| format!("daemon write: {e}"))?,
            );
        }
        daemon
            .send(r#"{"op":"drain"}"#)
            .map_err(|e| format!("daemon write: {e}"))?;
        for (&k, at) in round.iter().zip(&sent) {
            let (read_at, line) = daemon.recv().map_err(|e| e.to_string())?;
            m.attempted += 1;
            let ok = response_seq(&line).is_some_and(|seq| {
                line == expected_response(seq, &frames[k].tenant, &reference[k])
            });
            if ok {
                m.ops.push(OpRecord {
                    end_s: read_at.duration_since(started).as_secs_f64(),
                    latency_ms: read_at.duration_since(*at).as_secs_f64() * 1e3,
                    cpu_s: 0.0,
                    input_bytes: frames[k].line.len() as u64 + 1,
                });
            } else {
                m.failed += 1;
            }
            responses.push((k, line));
        }
        let (_, drained) = daemon.recv().map_err(|e| e.to_string())?;
        if response_seq(&drained).is_none() || drained.contains("\"op\":\"design\"") {
            return Err(format!("expected the drain answer, got {drained}"));
        }
        // The daemon's CPU is sampled per round and shared out evenly
        // among the round's frames.
        let cpu_now = daemon.cpu_s().map_err(|e| format!("daemon cpu: {e}"))?;
        let done = &mut m.ops[first_of_round..];
        let share = (cpu_now - cpu_before) / done.len().max(1) as f64;
        done.iter_mut().for_each(|o| o.cpu_s = share);
        cpu_before = cpu_now;
        if started.elapsed().as_secs_f64() >= seconds && next.is_multiple_of(frames.len()) {
            break;
        }
    }
    m.peak_rss_mb.push(
        daemon
            .peak_rss_mb()
            .map_err(|e| format!("daemon rss: {e}"))?,
    );
    daemon
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    let (state_bytes, state_files) =
        crate::drive::dir_usage(&state_dir).map_err(|e| format!("state dir: {e}"))?;
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(ServeRun {
        measured: m,
        responses,
        state_bytes,
        state_files,
    })
}
