//! Process CPU time and peak resident memory, read from `/proc/self`
//! without `libc`: the two costs a wall-clock gain can hide.

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` needs `libc`;
/// Linux has fixed `USER_HZ` at 100 on every architecture it supports.
const CLK_TCK: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`,
/// or `None` when a field is missing or not a number.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; fields
    // are counted from the last `)`. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1e3 / CLK_TCK)
}

/// `VmHWM` in MB (10^6 bytes) from the text of `/proc/<pid>/status`, or
/// `None` when the line is missing or malformed.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb as f64 * 1024.0 / 1e6)
}

/// CPU milliseconds this process has used so far.
pub fn cpu_ms() -> Option<f64> {
    parse_cpu_ms(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size of this process so far, MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_past_a_hostile_command_name() {
        let stat = "42 (a b) c) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_cpu_ms(stat), Some(3000.0));
    }

    #[test]
    fn missing_fields_are_none_not_a_panic() {
        assert_eq!(parse_cpu_ms(""), None);
        assert_eq!(parse_cpu_ms("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_ms("1 (x) R 1 1 1 0 -1 0 0 0 0 0 abc 5"), None);
        assert_eq!(parse_peak_rss_mb("VmRSS:\t  10 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tjsbench\nVmHWM:\t  250000 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(256.0));
    }

    #[test]
    fn live_readers_work_on_linux() {
        assert!(cpu_ms().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
