//! Process accounting read from `/proc/self`: CPU time and peak resident
//! memory. Parsing is split from reading so it can be tested on fixed text.

use std::path::Path;

/// Clock ticks per second of the `utime`/`stime` fields. Linux has exposed
/// `USER_HZ = 100` to user space on every architecture for decades; reading
/// it properly needs `sysconf`, which needs libc, which this offline build
/// does not have.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, every thread, dead ones included) in
/// seconds, from the text of `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// closing parenthesis: `utime` and `stime` are fields 14 and 15 overall,
/// i.e. the 12th and 13th after the command.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (`VmHWM:   123456 kB`).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds this process has consumed so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_seconds)
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_peak_rss_mb)
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// Total size in bytes of the regular files under `dir`, recursively.
/// Layout-agnostic on purpose: the benchmark must keep working when the
/// store renames or re-shapes its files.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // comm = "a b) (c": spaces and parentheses inside the name.
        let stat = "4242 (a b) (c) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
    }

    #[test]
    fn cpu_time_rejects_truncated_text() {
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis at all"), None);
    }

    #[test]
    fn peak_rss_reads_the_high_water_mark_line() {
        let status =
            "Name:\tpxbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(200.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
