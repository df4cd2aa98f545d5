//! Whole-process readings from `/proc/self` (Linux).

use std::fs;

/// Peak resident set size (`VmHWM`) in megabytes, or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time of every thread of the process so far, in
/// milliseconds. `/proc/self/stat` counts in `USER_HZ` ticks, which the
/// Linux ABI fixes at 100 per second.
pub fn cpu_ms() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, so utime and stime are the 12th and 13th
    // from there.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10.0)
}
