//! Run metadata recorded in every result file, and host readings.

use crate::json::Json;
use std::process::{Command, Stdio};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-, 5- and 15-minute load averages (zeros where unavailable).
pub fn loadavg() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut out = [0.0; 3];
    for (slot, field) in out.iter_mut().zip(text.split_whitespace()) {
        *slot = field.parse().unwrap_or(0.0);
    }
    out
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(cmd: &mut Command) -> String {
    cmd.stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `git describe` of the working directory; the search stops at its parent
/// so a checkout without `.git` reads "unknown" instead of describing an
/// enclosing repository.
pub fn git_describe() -> String {
    let mut cmd = Command::new("git");
    cmd.args(["describe", "--always", "--dirty", "--tags"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut cmd)
}

pub fn rustc_version() -> String {
    command_line(Command::new("rustc").arg("--version"))
}

/// Metadata block of a result file; `noisy` flags a start load above
/// `nproc`.
pub fn describe(
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    start: [f64; 3],
    end: [f64; 3],
) -> Json {
    Json::obj()
        .with("nproc", nproc())
        .with("git_describe", git_describe())
        .with("rustc", rustc_version())
        .with("seed", seed)
        .with("seconds", seconds)
        .with("trace", trace)
        .with("smoke", smoke)
        .with("loadavg_start", &start[..])
        .with("loadavg_end", &end[..])
        .with("noisy", start[0] > nproc() as f64)
}
