//! Process and host facts read from `/proc` (no `libc`): CPU time,
//! peak RSS, context switches, load, and the fingerprint every result
//! row carries.

use std::fs;
use std::process::Command;

/// Linux reports `/proc/<pid>/stat` times in clock ticks of 1/100 s on
/// every mainstream configuration (`getconf CLK_TCK`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, including
/// ones that already exited. 0 when `/proc` is unreadable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / CLOCK_TICKS_PER_S
}

/// Peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Context switches since boot, system-wide (`ctxt` in `/proc/stat`).
/// Per-thread counts in `/proc/self/task/*/status` vanish when a
/// monitor thread exits, which every live round's threads do; on an
/// otherwise idle host the system-wide delta over a round is this
/// process's.
pub fn context_switches() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0;
    };
    stat.lines()
        .find_map(|line| line.strip_prefix("ctxt "))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or(0)
}

/// The three load averages of `/proc/loadavg`, verbatim.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// Short git revision of the working directory; `unknown` outside a
/// git checkout (the driver's checkout is not one).
pub fn git_rev() -> String {
    first_line_of("git", &["rev-parse", "--short", "HEAD"])
}

/// Seconds since boot the hypervisor ran something else while this
/// guest had work, summed over CPUs (`steal` in the first line of
/// `/proc/stat`). Recorded in every result row: on a shared host it is
/// what explains an outlier.
pub fn steal_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |jiffies| jiffies / CLOCK_TICKS_PER_S)
}
