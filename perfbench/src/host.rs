//! What the benchmark reads about its own process and machine, and the
//! scratch directories its trace caches live in.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use predbranch_sweep::Json;

/// User plus system CPU seconds this process has used, all threads
/// included (`/proc/self/stat` fields 14 and 15, in 1/100 s ticks).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // the command name may hold spaces; fields restart after its ')'
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("status has VmHWM");
    kb as f64 / 1024.0
}

/// Total size in bytes of the regular files directly inside `dir` (the
/// trace cache is flat). File lengths, not blocks, so equal contents
/// always measure the same.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine descriptor stamped on every result: core count, CPU
/// model, compiler, source commit and the run's workload and seed. The
/// commit is read from the checkout's own `.git` only, so a plain source
/// export reports `unknown` rather than some enclosing repository's.
pub fn machine(workload: &str, seed: u64) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj()
        .field("cores", cores)
        .field("cpu_model", cpu_model)
        .field("rustc", first_line("rustc", &["-V"]))
        .field(
            "commit",
            first_line("git", &["--git-dir=.git", "rev-parse", "HEAD"]),
        )
        .field("workload", workload)
        .field("seed", seed)
}

/// Where scratch directories are made: inside the working directory,
/// under a name `.gitignore` lists, so no run can touch a tracked file.
pub const SCRATCH_ROOT: &str = ".perfbench-tmp";

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh, uniquely named directory under [`SCRATCH_ROOT`], removed
/// with everything in it when dropped.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates the directory.
    pub fn new() -> io::Result<Self> {
        let path = Path::new(SCRATCH_ROOT).join(format!(
            "{}-{}",
            std::process::id(),
            SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // succeeds only once the last scratch directory is gone
        let _ = fs::remove_dir(SCRATCH_ROOT);
        // Commit the removal now: on a filesystem that discards freed
        // blocks at commit time, a commit left pending stalls whatever
        // writes next, which may be the next run's timed pass.
        let _ = fs::File::open(".").and_then(|dir| dir.sync_all());
    }
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
