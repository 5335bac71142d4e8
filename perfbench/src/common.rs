//! Pieces every workload shares: metrics and run outcomes, quantiles, the
//! in-process daemon handle, `/proc` readers and the scratch directory.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xic_cli::http::HttpClient;

/// Read timeout for every benchmark HTTP connection: long enough for a
/// boot-time recovery or a 10⁵-node `PUT`, short enough that a wedged
/// daemon turns into an error well before the run's deadline.
pub const HTTP_TIMEOUT: Duration = Duration::from_secs(60);

/// Worker threads of every benchmark daemon (`--http-threads`).
pub const HTTP_THREADS: &str = "2";

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the number means, or which end-to-end metric it should move.
    pub note: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str, note: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations plus correctness checks attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Figures printed for people only, such as `report_p50_ms`.
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// Records one checked operation; a failed check also logs `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why());
            }
        }
    }

    /// Records a failure that is not tied to one operation.
    pub fn problem(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Prints a progress line to stderr, stamped with seconds since start.
pub fn log(msg: &str) {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let t = secs(*START.get_or_init(Instant::now));
    eprintln!("[{t:7.2}s] {msg}");
}

/// Megabytes of the counting allocator's heap high-water mark.
pub fn peak_heap_mb() -> f64 {
    xic::obs::alloc::stats().peak as f64 / 1e6
}

/// A `xic serve` daemon running on a thread of this process, bound to a
/// port-0 loopback listener.
pub struct Daemon {
    pub addr: SocketAddr,
    join: JoinHandle<Result<(), String>>,
}

impl Daemon {
    /// Starts `serve_on` with `args` (the `serve` subcommand's flags).
    /// The listener is bound before the call, so clients may connect at
    /// once; their first request is answered when the daemon has
    /// recovered its state and entered its accept loop.
    pub fn start(args: Vec<String>) -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let join = std::thread::spawn(move || xic_cli::serve_on(listener, &args));
        Ok(Daemon { addr, join })
    }

    /// Opens a keep-alive connection.
    pub fn connect(&self) -> Result<HttpClient, String> {
        HttpClient::connect(self.addr, HTTP_TIMEOUT).map_err(|e| format!("connect: {e}"))
    }

    /// Sends one request on a fresh connection, closed afterwards.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        self.connect()?
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))
    }

    /// Blocks until `GET /healthz` answers 200.
    pub fn wait_ready(&self) -> Result<(), String> {
        match self.request("GET", "/healthz", "")? {
            (200, _) => Ok(()),
            (status, body) => Err(format!("GET /healthz: {status} {body}")),
        }
    }

    /// Drains the daemon with `POST /shutdown` on a fresh connection (a
    /// stale keep-alive one may already have been closed by the daemon's
    /// idle timeout) and joins it. Every client connection must be closed
    /// first: each open one holds a worker.
    pub fn shutdown(self) -> Result<(), String> {
        let (status, body) = self.request("POST", "/shutdown", "")?;
        if status != 200 {
            return Err(format!("POST /shutdown: {status} {body}"));
        }
        self.join
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
    }
}

/// The `serve` flags every benchmark daemon shares: Σ from `sigma`, two
/// HTTP workers, and tracing either off or on with the default ring.
pub fn serve_args(sigma: &Path, state_dir: Option<&Path>, traced: bool) -> Vec<String> {
    let mut args = vec![
        "--sigma".to_string(),
        sigma.display().to_string(),
        "--http-threads".into(),
        HTTP_THREADS.into(),
    ];
    if !traced {
        args.extend(["--trace-buffer".into(), "0".into()]);
    }
    if let Some(dir) = state_dir {
        args.extend([
            "--state-dir".into(),
            dir.display().to_string(),
            "--fsync".into(),
            "always".into(),
        ]);
    }
    args
}

/// A scratch directory under the current directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

/// Removes every scratch directory this process created (for a run that
/// exits without unwinding, such as a hung one).
pub fn remove_work_dirs() {
    let suffix = format!("-{}", std::process::id());
    if let Ok(entries) = std::fs::read_dir(".bench_work") {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().ends_with(&suffix) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    let _ = std::fs::remove_dir(".bench_work");
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Copies directory `from` recursively to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds of CPU time on `clock`, to the nanosecond. The kernel counts
/// only the time a thread really ran, so where it accounts steal (a
/// paravirtualized guest) the time the host gave the CPU to someone else
/// is left out; wall-clock time is not.
fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// CPU seconds the whole process has used, every thread (the in-process
/// daemon's included).
pub fn process_cpu_secs() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_secs() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Runs `f`, returning its result, the wall seconds and the process CPU
/// seconds it took.
pub fn timed_cpu<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu = process_cpu_secs();
    let t = Instant::now();
    let out = f();
    (out, secs(t), process_cpu_secs() - cpu)
}

/// The host's cumulative CPU steal ticks (`/proc/stat`, field 8 of the
/// `cpu` line; 0 where unavailable).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}
