//! What the numbers were measured on, and the process-level memory probes.

use crate::json::{obj, Json};
use std::process::Command;

/// The machine block printed in every header and stored in run-set files.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    /// `T = min(nproc, 4)`: the thread count of every workload but `.t1`.
    pub threads: usize,
    pub simd_tier: String,
    pub simd_features: String,
    pub rustc: String,
    pub git_commit: String,
    pub llc_bytes: usize,
}

/// `T`, the thread count the parallel workloads run on.
pub fn bench_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

impl Machine {
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: bench_threads(),
            simd_tier: lightne_linalg::simd::active_tier().name().to_string(),
            simd_features: lightne_linalg::simd::detected_features(),
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
            llc_bytes: last_level_cache_bytes(),
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("nproc", Json::from(self.nproc)),
            ("threads", Json::from(self.threads)),
            ("simd_tier", Json::from(self.simd_tier.as_str())),
            ("simd_features", Json::from(self.simd_features.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("git_commit", Json::from(self.git_commit.as_str())),
            ("llc_bytes", Json::from(self.llc_bytes)),
        ])
    }

    pub fn header(&self) -> String {
        format!(
            "machine: nproc={} T={} simd={} rustc=\"{}\" commit={} llc={:.1} MiB",
            self.nproc,
            self.threads,
            self.simd_tier,
            self.rustc,
            self.git_commit,
            self.llc_bytes as f64 / MIB,
        )
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// First line of a command's output, or "unknown" (the driver's checkout
/// is not a git repository, and a toolchain may be absent at run time).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of cpu0's highest-level cache from sysfs; 32 MiB when sysfs does
/// not say (only the STREAM array size depends on it).
fn last_level_cache_bytes() -> usize {
    let mut best = (0u32, 0usize);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1024),
            Some(b'M') => (&size[..size.len() - 1], 1024 * 1024),
            _ => (size, 1),
        };
        if let Ok(v) = digits.parse::<usize>() {
            if level > best.0 {
                best = (level, v * mult);
            }
        }
    }
    if best.1 == 0 {
        32 * 1024 * 1024
    } else {
        best.1
    }
}

/// `MemAvailable` in bytes; 1 GiB where `/proc/meminfo` does not say.
pub fn available_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("MemAvailable:"))?;
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(1 << 30, |kb| kb * 1024)
}

/// Resets the kernel's record of this process's peak resident set, so
/// that the peak read afterwards covers only what follows. False when the
/// kernel refuses; the peak then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MiB, or NaN where `/proc` does not give it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_give_usable_values() {
        let m = Machine::detect();
        assert!(m.nproc >= 1 && (1..=4).contains(&m.threads));
        assert!(m.llc_bytes >= 1024);
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(Json::parse(&m.to_json().to_line()).unwrap(), m.to_json());
    }
}
