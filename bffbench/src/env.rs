//! The environment a result depends on, read from outside the program:
//! core count, fsync cost, process counters, the commit being measured.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Refuse to run with any `BFF_*` variable set: the program's defaults
/// read them, and a benchmark whose configuration depends on the shell
/// it was started from is not repeatable.
pub fn refuse_bff_variables() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BFF_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to start with {} set: the configuration is pinned",
            set.join(", ")
        ))
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where results, traces and durable data go: `bffbench/` inside the
/// build's target directory, which `.gitignore` covers and the driver
/// keeps inside the checkout. The executable lives in
/// `<target>/<profile>/` (a test's in `<target>/<profile>/deps/`); one
/// that was copied elsewhere falls back to `target/` under the current
/// directory.
pub fn output_dir() -> PathBuf {
    let target = std::env::current_exe().ok().and_then(|exe| {
        let mut dir = exe.parent()?;
        if dir.file_name()? == "deps" {
            dir = dir.parent()?;
        }
        let profile = dir.file_name()?.to_str()?;
        matches!(profile, "release" | "debug").then(|| dir.parent().map(Path::to_path_buf))?
    });
    target
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("bffbench")
}

/// Median microseconds of a 4 KiB append plus `sync_data` in `dir`, over
/// `rounds` rounds: what one fsync-before-ack costs on this disk.
pub fn fsync_us_p50(dir: &Path, rounds: usize) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path)?;
    let block = [0x5Au8; 4096];
    let mut us: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let clock = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        us.push(clock.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(crate::stats::median(&us))
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A field of a `/proc/self/*` key-value file, e.g. `write_bytes` of
/// `io` or `VmHWM` of `status`; 0 where the file or field is missing.
fn proc_field(file: &str, key: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/self/{file}"))
        .ok()
        .and_then(|text| {
            text.lines().find_map(|line| {
                let rest = line.strip_prefix(key)?.strip_prefix(':')?;
                rest.split_whitespace().next()?.parse().ok()
            })
        })
        .unwrap_or(0)
}

/// Bytes this process caused to be sent to the storage layer so far.
pub fn disk_write_bytes() -> u64 {
    proc_field("io", "write_bytes")
}

/// Peak resident set size, MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("status", "VmHWM") as f64 / 1024.0
}

/// User plus system CPU seconds of this process so far (fields 14 and 15
/// of `/proc/self/stat`, in clock ticks of 1/100 s on Linux).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; `"unknown"` outside one (the driver's checkout is not a
/// repository).
pub fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            return match head.strip_prefix("ref: ") {
                Some(reference) => std::fs::read_to_string(git.join(reference))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_else(|_| head.to_string()),
                None => head.to_string(),
            };
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_string()
}
