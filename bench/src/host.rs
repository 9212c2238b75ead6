//! Host-side plumbing: the noise guard, memory readings, run identity,
//! and the scratch directory the durable workloads write into.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A run is marked `noisy` when the calibration loop's median reading
/// exceeds its lowest reading by more than this factor.
pub const NOISY_ABOVE: f64 = 1.10;

/// Refuse to start with less free space than this on the scratch filesystem.
const MIN_FREE_KIB: u64 = 1 << 20;

/// One pass of a fixed pure-ALU loop (xorshift64*), none of the repo's
/// code: its run time moves only when the host does. ~3 ms.
pub fn calib_once() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..1_500_000u32 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        acc = acc.wrapping_add(x.wrapping_mul(0x2545_F491_4F6C_DD1D));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Calibration samples interleaved between iterations.
#[derive(Default)]
pub struct Calib {
    samples: Vec<f64>,
}

impl Calib {
    /// One reading: the median of fifteen passes (~45 ms). Single passes
    /// jitter by a tenth on an idle host (2.8-3.5 ms on the sizing VM), so
    /// with the fastest of five as a reading, quiet runs read up to 1.14;
    /// with this one, thirty readings between bursts of two-threaded
    /// memory traffic read 1.03-1.06. A neighbour's burst outlasts
    /// fifteen passes and still shows.
    pub fn tick(&mut self) {
        let passes: Vec<f64> = (0..15).map(|_| calib_once()).collect();
        self.samples.push(crate::stats::median(&passes));
    }

    /// Median over minimum of the readings; 1.0 on a quiet host.
    pub fn ratio(&self) -> f64 {
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        if self.samples.is_empty() || min <= 0.0 {
            return 1.0;
        }
        crate::stats::median(&self.samples) / min
    }

    pub fn noisy(&self) -> bool {
        self.ratio() > NOISY_ABOVE
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Restarts the resident-set high-water mark at the current resident
/// set, so set-up's own peak (hub generation) stays out of
/// `peak_rss_mib`. Returns whether the kernel allowed it; where it does
/// not, the metric covers the whole process, and the output says so.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) in MiB since [`reset_peak_rss`]; 0 where
/// procfs is missing.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |k| k as f64 / 1024.0)
}

/// Worker / thread / client count every workload runs with.
pub fn bench_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checkout's commit, read from `.git` without spawning git; the
/// driver's checkouts are not repositories and report `unknown`.
pub fn commit_hash() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Where result files go: `bench/out` from the checkout root (how
/// `run.sh` starts the driver), `out` from inside `bench/` (how `cargo
/// test` does).
pub fn out_dir() -> PathBuf {
    PathBuf::from(if Path::new("bench").is_dir() {
        "bench/out"
    } else {
        "out"
    })
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`
/// (longest mount-point prefix wins).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: (usize, &str) = (0, "unknown");
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype);
        }
    }
    best.1.to_string()
}

/// Free KiB on the filesystem holding `path`, via POSIX `df -Pk`; `None`
/// when `df` is unavailable (the check is then skipped, and said so).
fn free_kib(path: &Path) -> Option<u64> {
    let out = std::process::Command::new("df")
        .arg("-Pk")
        .arg(path)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().nth(1)?.split_whitespace().nth(3)?.parse().ok()
}

fn pid_alive(pid: &str) -> bool {
    Path::new("/proc").join(pid).exists()
}

/// Per-process scratch directory for store and queue dirs, removed on
/// drop — which also runs while a panic or a failed correctness check
/// unwinds `main`.
///
/// Durable publishes fsync every object. On this host's disk that made
/// one durable study take 7–13 s against 1 s on tmpfs, drifting upward
/// within a process, so flush time cannot be a bounded metric here. The
/// directory therefore lives in the checkout (`bench/out/`) only when
/// the checkout itself is memory-backed; otherwise on `/dev/shm`, and in
/// the checkout as a last resort (recorded as `store_fs`, expect noise).
pub struct ScratchDir {
    path: PathBuf,
    pub store_fs: String,
}

impl ScratchDir {
    pub fn create() -> Result<ScratchDir, String> {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let local = out_dir();
        std::fs::create_dir_all(&local).map_err(|e| format!("create {}: {e}", local.display()))?;
        let local_fs = fs_type(&local);
        let mut bases = vec![local];
        if local_fs != "tmpfs" && local_fs != "ramfs" {
            bases.insert(0, PathBuf::from("/dev/shm"));
        }
        let name = format!(
            "dhub-e2e-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let guard = bases
            .iter()
            .find_map(|base| {
                sweep_stale(base);
                let path = base.join(&name);
                std::fs::create_dir_all(&path).ok().map(|()| ScratchDir {
                    store_fs: fs_type(base),
                    path,
                })
            })
            .ok_or("no writable scratch directory")?;
        match free_kib(&guard.path) {
            Some(k) if k < MIN_FREE_KIB => {
                return Err(format!(
                    "only {} MiB free under {} (need 1024)",
                    k / 1024,
                    guard.path.display()
                ))
            }
            Some(_) => {}
            None => eprintln!("warning: `df` unavailable, free-space check skipped"),
        }
        Ok(guard)
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// An empty subdirectory path (any previous content removed, the
    /// directory itself left for the caller to create).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes scratch dirs left by benchmark processes that were killed
/// before their guard ran.
fn sweep_stale(base: &Path) {
    let Ok(entries) = std::fs::read_dir(base) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("dhub-e2e-")?.split('-').next());
        if let Some(pid) = pid {
            if !pid_alive(pid) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

/// `(files, bytes)` of every regular file under `dir`.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let (mut files, mut bytes) = (0u64, 0u64);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => {
                    files += 1;
                    bytes += m.len();
                }
                Err(_) => {}
            }
        }
    }
    (files, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calib_ratio_is_at_least_one() {
        let mut c = Calib::default();
        assert_eq!(c.ratio(), 1.0);
        for _ in 0..5 {
            c.tick();
        }
        assert!(c.ratio() >= 1.0);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let path = {
            let s = ScratchDir::create().unwrap();
            std::fs::create_dir_all(s.fresh("store").join("objects")).unwrap();
            assert!(s.path().join("store/objects").is_dir());
            s.path().to_path_buf()
        };
        assert!(!path.exists());

        let caught = std::panic::catch_unwind(|| {
            let s = ScratchDir::create().unwrap();
            std::fs::write(s.path().join("f"), b"x").unwrap();
            let p = s.path().to_path_buf();
            std::panic::panic_any(p);
        });
        let p = *caught.unwrap_err().downcast::<PathBuf>().unwrap();
        assert!(!p.exists(), "unwinding must remove the scratch dir");
    }

    #[test]
    fn dir_usage_counts_nested_files() {
        let s = ScratchDir::create().unwrap();
        let d = s.fresh("u");
        std::fs::create_dir_all(d.join("a/b")).unwrap();
        std::fs::write(d.join("a/x"), [0u8; 10]).unwrap();
        std::fs::write(d.join("a/b/y"), [0u8; 5]).unwrap();
        assert_eq!(dir_usage(&d), (2, 15));
    }
}
