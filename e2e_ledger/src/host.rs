//! What the benchmark reads from the machine it runs on: process CPU
//! time, peak resident memory, provenance, and a fixed reference kernel
//! that tells machine drift from a code change.

use std::path::Path;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // every 64-bit Linux target this benchmark builds for) and the clock
    // id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Reset the kernel's high-water mark of this process's resident set
/// to its current size, so the next [`peak_rss_mb`] covers only what
/// happens from here on. An error where the kernel refuses: a run that
/// cannot take per-round peaks has no `peak_rss_mb` to compare with the
/// runs that can.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| {
        format!("restart VmHWM through /proc/self/clear_refs: {e}; peak_rss_mb cannot be measured")
    })
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (_dev, mount, fstype) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance recorded in every result file.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub scratch_fs: String,
    pub rustc: String,
    pub git_commit: String,
}

impl Provenance {
    /// Collect it for a run whose durable state lives under `scratch`
    /// and whose sources live under `crate_dir`.
    pub fn collect(scratch: &Path, crate_dir: &Path) -> Self {
        Self {
            nproc: nproc(),
            scratch_fs: fs_type(scratch),
            rustc: command_line("rustc", &["-V"], crate_dir),
            // Only where the repo itself is a git checkout: the benchmark
            // driver's copy is a plain directory, and asking git there
            // would walk up into whatever repository surrounds it.
            git_commit: if crate_dir.join("../.git").exists() {
                command_line("git", &["rev-parse", "HEAD"], crate_dir)
            } else {
                "unknown".to_string()
            },
        }
    }
}

/// The reference kernel: a pass over a buffer larger than the last-level
/// cache's per-core share plus a serial integer chain. Fixed work, so
/// its time moves only when the machine does. It is reported, never
/// applied: no metric is scaled or filtered by it.
#[derive(Debug)]
pub struct Calibration {
    buffer: Vec<u64>,
    samples_ms: Vec<f64>,
}

const CALIB_WORDS: usize = (8 << 20) / 8;
const CALIB_LCG_STEPS: u64 = 2_000_000;

/// How far above the run's first-quartile probe a probe may run before
/// the `quiet_rounds` note counts the machine as disturbed. On the
/// reference box the kernel itself scatters by a few percent; outside
/// load moves it by 10–70 %.
const QUIET_FACTOR: f64 = 1.10;

impl Calibration {
    pub fn new() -> Self {
        Self {
            buffer: (0..CALIB_WORDS as u64).collect(),
            samples_ms: Vec::new(),
        }
    }

    /// Run the kernel once and record its time. Called between rounds,
    /// outside every timed window.
    pub fn probe(&mut self) {
        let t0 = Instant::now();
        let sum = self
            .buffer
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_add(std::hint::black_box(w)));
        let mut x = sum | 1;
        for _ in 0..CALIB_LCG_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        std::hint::black_box(x);
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// For each interval between two consecutive probes, whether both
    /// ran within [`QUIET_FACTOR`] of the run's own first-quartile probe.
    pub fn quiet_intervals(&self) -> Vec<bool> {
        if self.samples_ms.len() < 2 {
            return Vec::new();
        }
        let limit = crate::stats::quantile(&self.samples_ms, 0.25) * QUIET_FACTOR;
        self.samples_ms
            .windows(2)
            .map(|pair| pair[0] <= limit && pair[1] <= limit)
            .collect()
    }

    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu();
        let mut calib = Calibration::new();
        calib.probe();
        assert!(process_cpu() > before);
        assert!(calib.median_ms() > 0.0);
    }

    #[test]
    fn intervals_next_to_a_slow_probe_are_not_quiet() {
        let mut calib = Calibration::new();
        calib.samples_ms = vec![1.00, 1.02, 1.60, 1.01, 0.99, 1.03];
        assert_eq!(
            calib.quiet_intervals(),
            vec![true, false, false, true, true]
        );
        calib.samples_ms.truncate(1);
        assert!(calib.quiet_intervals().is_empty());
    }

    #[test]
    fn reads_memory_and_mounts() {
        assert!(peak_rss_mb().unwrap() > 1.0);
        reset_peak_rss().unwrap();
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
        assert!(nproc() >= 1);
    }
}
