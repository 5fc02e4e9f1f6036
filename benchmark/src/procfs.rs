//! Readings from `/proc`: process CPU time, peak resident set, load
//! average. Linux only, like the container the benchmark is defined on.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed
/// at 100 by the Linux ABI on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (`utime + stime`, all threads, exited ones
/// included) in seconds. 10 ms resolution, so only meaningful over
/// windows of a second or more.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields are counted after its
    // closing parenthesis. utime and stime are fields 14 and 15 (1-based).
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 { fields.next().and_then(|f| f.parse().ok()).expect("cpu field") };
    (tick() + tick()) / TICKS_PER_S
}

/// Peak resident set (`VmHWM`) of this process so far, in MB (10⁶ B).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb * 1024.0 / 1e6
}

/// One-minute load average, if readable.
pub fn load_average() -> Option<f64> {
    fs::read_to_string("/proc/loadavg").ok()?.split_ascii_whitespace().next()?.parse().ok()
}
