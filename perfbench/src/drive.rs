//! Drives the `cliffguard` binary from outside: one-shot CLI processes and
//! a long-lived `serve` daemon on its NDJSON stdin/stdout protocol.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variables that would change what the program does; the
/// benchmark runs it with none of them set.
const PROGRAM_ENV: [&str; 3] = ["CLIFFGUARD_THREADS", "CLIFFGUARD_FAULTS", "CLIFFGUARD_LOG"];

/// How long a daemon may stay silent before the run counts it as hung.
const DAEMON_REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds the `cliffguard` binary from the checkout's sources and returns
/// its path (under `CARGO_TARGET_DIR`, else `target`).
pub fn build_program() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "cliffguard",
            "--bin",
            "cliffguard",
        ])
        .stdin(Stdio::null())
        .stdout(io::stderr())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of cliffguard failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("cliffguard");
    if !bin.is_file() {
        return Err(format!("no binary at {}", bin.display()));
    }
    Ok(bin)
}

/// Resource use of one reaped child process. Its `ru_maxrss` is not
/// used: Linux raises it at exec to the spawning image's own high-water
/// mark, so it reads this process's size when that is the larger.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;

/// Waits for `child` and returns its exit status with its own CPU time
/// (which `Child::wait` does not report).
fn wait_with_cpu(child: &Child) -> io::Result<(ExitStatus, f64)> {
    use std::os::unix::process::ExitStatusExt;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = RUsage::default();
    loop {
        // SAFETY: `pid` is a child of this process that nothing has reaped
        // yet (std only reaps in `wait`/`try_wait`, which are never called
        // on it), and both out-pointers refer to live locals: an `i32` and
        // a `#[repr(C)]` struct with the layout of Linux's 64-bit
        // `struct rusage` (two timevals, then 14 longs).
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok((
        ExitStatus::from_raw(status),
        secs(ru.utime) + secs(ru.stime),
    ))
}

/// One finished CLI invocation.
pub struct CliRun {
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to exit, with all output read.
    pub wall_ms: f64,
    /// User + system CPU of the process.
    pub cpu_s: f64,
}

/// The program under test.
pub struct Program {
    bin: PathBuf,
}

impl Program {
    pub fn new(bin: PathBuf) -> Self {
        Self { bin }
    }

    fn command(&self) -> Command {
        let mut cmd = Command::new(&self.bin);
        for var in PROGRAM_ENV {
            cmd.env_remove(var);
        }
        cmd
    }

    /// Runs one CLI command to completion. Standard error stays small (a
    /// few status lines), so reading stdout to its end before stderr
    /// cannot deadlock on a full pipe.
    pub fn run(&self, args: &[String]) -> io::Result<CliRun> {
        let started = Instant::now();
        let mut child = self
            .command()
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stdout = String::new();
        let mut stderr = String::new();
        let out_read = child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut stdout);
        let err_read = child
            .stderr
            .take()
            .expect("stderr is piped")
            .read_to_string(&mut stderr);
        let (status, cpu_s) = wait_with_cpu(&child)?;
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        out_read?;
        err_read?;
        Ok(CliRun {
            success: status.success(),
            stdout,
            stderr,
            wall_ms,
            cpu_s,
        })
    }

    /// Runs one CLI command with its output discarded and returns its peak
    /// resident set: the last `VmHWM` read from `/proc` before it exits,
    /// polled every 200 µs. This is the new image's own high-water mark,
    /// free of the exec-time floor that `ru_maxrss` carries.
    pub fn peak_rss_mb(&self, args: &[String]) -> io::Result<f64> {
        let mut child = self
            .command()
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let status_path = format!("/proc/{}/status", child.id());
        let mut peak_kb = 0.0f64;
        while child.try_wait()?.is_none() {
            if let Some(kb) = std::fs::read_to_string(&status_path)
                .ok()
                .as_deref()
                .and_then(vm_hwm_kb)
            {
                peak_kb = peak_kb.max(kb);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(peak_kb / 1024.0)
    }

    /// Starts `cliffguard serve` with the given flags.
    pub fn spawn_daemon(&self, args: &[String]) -> io::Result<Daemon> {
        let mut child = self
            .command()
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The one reader thread: it stamps every response line as it
        // arrives, so a frame's latency ends when its answer is read, not
        // when the writer gets round to looking.
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = Instant::now();
                        line.truncate(line.trim_end().len());
                        if tx.send((at, line)).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        Ok(Daemon {
            child: Some(child),
            stdin: Some(stdin),
            lines: rx,
            reader: Some(reader),
        })
    }
}

/// A running daemon with one client connection.
pub struct Daemon {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// Writes one frame (a newline is appended) and returns when writing
    /// started.
    pub fn send(&mut self, frame: &str) -> io::Result<Instant> {
        let at = Instant::now();
        let stdin = self.stdin.as_mut().expect("daemon is running");
        stdin.write_all(frame.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        Ok(at)
    }

    /// The next response line and when it was read.
    pub fn recv(&self) -> io::Result<(Instant, String)> {
        self.lines
            .recv_timeout(DAEMON_REPLY_TIMEOUT)
            .map_err(|e| io::Error::new(io::ErrorKind::TimedOut, format!("daemon reply: {e}")))
    }

    /// User + system CPU the daemon has used so far.
    pub fn cpu_s(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("unreadable /proc stat"))
        };
        // SAFETY: sysconf takes an integer and reads no memory.
        let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        Ok((ticks(11)? + ticks(12)?) / hz)
    }

    /// The daemon's peak resident set so far.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        vm_hwm_kb(&status)
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `shutdown`, closes the connection and waits for the daemon
    /// and the reader thread to end.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.send(r#"{"op":"shutdown"}"#)?;
        drop(self.stdin.take());
        let mut child = self.child.take().expect("daemon is running");
        let status = child.wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(io::Error::other(format!("daemon exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The `VmHWM` (peak resident set, kB) line of a `/proc/<pid>/status`.
fn vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Total bytes and number of regular files under `dir`.
pub fn dir_usage(dir: &Path) -> io::Result<(u64, u64)> {
    let mut bytes = 0u64;
    let mut files = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            let (b, f) = dir_usage(&entry.path())?;
            bytes += b;
            files += f;
        } else if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}
