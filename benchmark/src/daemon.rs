//! Building, spawning, restarting and — on every exit path — reaping the
//! real `mnemosyned`.

use std::ffi::{c_int, c_ulong};
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mnemosyne_svc::{Client, ClientError};

/// The flags the benchmark starts the daemon with, beyond `--dir`: the
/// shipped defaults, on an OS-assigned port.
pub const DAEMON_FLAGS: [&str; 2] = ["--addr", "127.0.0.1:0"];

/// How long a daemon may take to exit after SHUTDOWN before the run is
/// failed.
const LIFECYCLE_TIMEOUT: Duration = Duration::from_secs(20);

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}
const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_int = 9;

/// Pids of daemons that are (or may still be) running, for the watchdog.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    // A poisoned registry is still a valid list of pids.
    LIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// The cargo target directory this binary was built into
/// (`<target>/<profile>/kvload`), which is also where the daemon is
/// built and where run directories live — inside the checkout and
/// ignored by git.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Builds the shipped daemon from the root workspace (its manifest, its
/// lock file, its profile) and returns the binary's path.
pub fn build_daemon(target: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "mnemosyne-svc", "--bin", "mnemosyned"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building mnemosyned failed: {status}"));
    }
    Ok(target.join("release").join("mnemosyned"))
}

/// A scratch directory removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<ScratchDir, String> {
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A running `mnemosyned`. Dropping it kills the process and waits for
/// it; [`Daemon::shutdown`] is the graceful path.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon on `dir` and waits for `listening on ADDR`.
    ///
    /// Call from the main thread only: the parent-death signal that
    /// backs up [`Drop`] fires when the *spawning thread* exits.
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Daemon, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.with_extension("log"))
            .map_err(|e| format!("daemon log: {e}"))?;
        let mut cmd = Command::new(bin);
        cmd.arg("--dir")
            .arg(dir)
            .args(DAEMON_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        // SAFETY: the closure runs in the forked child before exec and
        // only makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(|| {
                // If kvload dies without running destructors (SIGKILL,
                // Ctrl-C), the kernel kills the daemon for it.
                if prctl(PR_SET_PDEATHSIG, SIGKILL as c_ulong) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        live().push(child.id());
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on an early return drops `daemon`, which kills it.
        let mut daemon = Daemon {
            child,
            stdout,
            addr: String::new(),
        };
        // The daemon either prints the line or exits (closing the pipe);
        // one that does neither is the watchdog's job.
        let mut line = String::new();
        let read = daemon.stdout.read_line(&mut line);
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => daemon.addr = addr.to_string(),
            None => {
                return Err(format!(
                    "mnemosyned did not start ({read:?}, said {line:?}); see {}",
                    dir.with_extension("log").display()
                ))
            }
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CHECKPOINT, SHUTDOWN, then waits for the **process to exit**: the
    /// media image is written after the ack, so the datadir is reusable
    /// only then. Returns whether the ack arrived.
    ///
    /// The checkpoint works around a durability bug in the daemon that
    /// this benchmark found and may not fix. A drained, acknowledged
    /// shutdown still leaves committed redo records lingering in the
    /// per-worker logs (amortised truncation), and the next boot replays
    /// them all. A record that lingers in one log can be older than a
    /// write to the same word whose record another log has already
    /// truncated; replaying it puts the old pointer back. Without the
    /// checkpoint about 1 in 70 `stm_update` runs came back from the
    /// restart with hundreds of keys missing. A checkpoint after the load
    /// has drained empties every log, so nothing is replayed.
    ///
    /// A clean exit is what counts for the ack: the daemon asks its
    /// server to stop before it hands the ack to the connection's writer,
    /// so the socket is sometimes closed under it; the drain that makes
    /// accepted writes durable has happened by then either way.
    pub fn shutdown(mut self) -> Result<bool, String> {
        let mut client = Client::connect(&self.addr).map_err(|e| format!("SHUTDOWN: {e}"))?;
        client
            .checkpoint()
            .map_err(|e| format!("CHECKPOINT before SHUTDOWN: {e}"))?;
        let acked = match client.shutdown() {
            Ok(()) => true,
            Err(ClientError::Io(_)) => false,
            Err(e) => return Err(format!("SHUTDOWN failed: {e}")),
        };
        let deadline = Instant::now() + LIFECYCLE_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(acked),
                Ok(Some(status)) => return Err(format!("mnemosyned exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("mnemosyned did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for mnemosyned: {e}")),
            }
        }
    }

    /// User + system CPU time the daemon has used, in microseconds
    /// (`/proc/<pid>/stat` fields 14 and 15, in USER_HZ = 100 ticks).
    pub fn cpu_us(&self) -> Result<u64, String> {
        let stat = read_proc(self.pid(), "stat")?;
        // The command name (field 2) may contain spaces; fields are
        // counted from the closing parenthesis.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: Vec<u64> = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse().ok())
            .collect();
        match ticks[..] {
            [utime, stime] => Ok((utime + stime) * 10_000),
            _ => Err(format!("unparsable /proc/{}/stat", self.pid())),
        }
    }

    /// Peak resident set size in kB (`VmHWM`).
    pub fn rss_peak_kb(&self) -> Result<u64, String> {
        read_proc(self.pid(), "status")?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM in /proc/{}/status", self.pid()))
    }
}

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    let path = format!("/proc/{pid}/{file}");
    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        live().retain(|&p| p != self.child.id());
    }
}

/// Fails the whole run if it is still going after `limit`: kills every
/// daemon, removes the scratch directory and exits with status 3.
pub fn arm_watchdog(limit: Duration, scratch: PathBuf) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("kvload: watchdog: run exceeded {limit:?}; killing mnemosyned and failing");
        for &pid in live().iter() {
            // SAFETY: plain system call; the pid is a child this process
            // spawned and has not yet reaped.
            unsafe { kill(pid as c_int, SIGKILL) };
        }
        std::fs::remove_dir_all(&scratch).ok();
        std::process::exit(3);
    });
}
