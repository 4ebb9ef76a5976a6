//! Process CPU time and peak resident memory from `/proc/self`.

/// User and system CPU seconds consumed by this process so far.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Linux reports `utime`/`stime` in clock ticks; `USER_HZ` has been 100 on
/// every architecture this runs on since 2.6.
const TICKS_PER_S: f64 = 100.0;

/// Parse the contents of `/proc/<pid>/stat`. The command name (field 2)
/// may itself contain spaces and parentheses, so fields are counted from
/// the *last* `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state).
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / TICKS_PER_S,
        sys_s: stime as f64 / TICKS_PER_S,
    })
}

/// Parse `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`,
/// returned in MiB.
pub fn parse_status_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb as f64 / 1024.0)
}

pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .expect("/proc/self/stat is readable on Linux")
}

pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_hwm_mib(&s))
        .expect("/proc/self/status has VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 523 0 0 0 \
                    1234 56 0 0 20 0 3 0 1000 1000000 200 18446744073709551615";
        assert_eq!(
            parse_stat(stat),
            Some(CpuTimes {
                user_s: 12.34,
                sys_s: 0.56
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_hwm_is_converted_to_mib() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_mib(status), Some(20.0));
        assert_eq!(parse_status_hwm_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_process_reads_parse() {
        assert!(cpu_times().total_s() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
