//! Readers for the `/proc` files the benchmark samples: CPU time, I/O
//! counters, context switches and peak RSS of a process, and the host's
//! CPU model and stolen time.

use std::path::Path;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, 100
/// on every Linux ABI this runs on).
pub const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in clock ticks, from `/proc/<pid>/stat`. The command
/// name may hold spaces and parentheses, so fields count from the last
/// `)`.
pub fn parse_stat_cpu_ticks(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state(0) ppid … utime(11) stime(12).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Ticks stolen by the hypervisor and ticks in all, summed over the
/// CPUs, from the first line of `/proc/stat` (`cpu  user nice system
/// idle iowait irq softirq steal guest guest_nice`; the guest fields are
/// already inside `user` and `nice`, so they are left out of the total).
pub fn parse_stat_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().next()?;
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if ticks.len() < 8 {
        return None;
    }
    Some((ticks[7], ticks.iter().sum()))
}

/// `/proc/<pid>/io` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Io {
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

pub fn parse_io(text: &str) -> Option<Io> {
    Some(Io {
        wchar: field(text, "wchar")?,
        syscr: field(text, "syscr")?,
        syscw: field(text, "syscw")?,
    })
}

/// The first number after `key:` in a `key: value [unit]` line, as in
/// `/proc/<pid>/status` (`VmHWM:  1234 kB`) and `/proc/<pid>/io`.
pub fn field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.split_whitespace().next()?.parse().ok())?
    })
}

/// Nanoseconds on CPU, the first field of `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == "model name").then(|| v.trim().to_string())
    })
}

/// One point-in-time reading of a process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub io: Io,
    /// Voluntary plus involuntary switches, summed over the threads.
    pub ctx_switches: u64,
    /// Peak resident set (`VmHWM`), in kB.
    pub peak_rss_kb: u64,
}

pub fn sample(pid: u32) -> std::io::Result<Sample> {
    let dir = format!("/proc/{pid}");
    let read = |name: &str| std::fs::read_to_string(Path::new(&dir).join(name));
    let bad = |what: &str| std::io::Error::other(format!("unreadable /proc/{pid}/{what}"));
    let status = read("status")?;
    let mut ctx_switches = 0;
    for task in std::fs::read_dir(Path::new(&dir).join("task"))? {
        // A thread may exit between listing and reading; it then counts
        // as zero, like a thread that never switched.
        if let Ok(text) = std::fs::read_to_string(task?.path().join("status")) {
            ctx_switches += field(&text, "voluntary_ctxt_switches").unwrap_or(0)
                + field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    Ok(Sample {
        io: parse_io(&read("io")?).ok_or_else(|| bad("io"))?,
        ctx_switches,
        peak_rss_kb: field(&status, "VmHWM").ok_or_else(|| bad("status"))?,
    })
}

/// `utime + stime` of a process, in clock ticks.
pub fn cpu_ticks(pid: u32) -> std::io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu_ticks(&text)
        .ok_or_else(|| std::io::Error::other(format!("unreadable /proc/{pid}/stat")))
}

/// CPU nanoseconds of the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| parse_schedstat_ns(&text))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_counts_fields_after_the_command_name() {
        let text = "4242 (rsj (serve) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 \
                    731 269 0 0 20 0 4 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(text), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn steal_and_total_ticks_of_proc_stat() {
        let text = "cpu  2402327 0 338859 2619869 6839 0 121999 23966 0 0\n\
                    cpu0 1201163 0 169429 1309934 3419 0 60999 11983 0 0\n";
        assert_eq!(
            parse_stat_steal(text),
            Some((23966, 2402327 + 338859 + 2619869 + 6839 + 121999 + 23966))
        );
        assert_eq!(parse_stat_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_stat_steal("intr 1 2 3 4 5 6 7 8\n"), None);
    }

    #[test]
    fn io_and_status_fields() {
        let io = "rchar: 1024\nwchar: 2048\nsyscr: 10\nsyscw: 20\nread_bytes: 0\n\
                  write_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(
            parse_io(io),
            Some(Io {
                wchar: 2048,
                syscr: 10,
                syscw: 20
            })
        );
        let status = "Name:\trsj\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\n\
                      voluntary_ctxt_switches:\t77\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(field(status, "VmHWM"), Some(12345));
        assert_eq!(field(status, "voluntary_ctxt_switches"), Some(77));
        assert_eq!(field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(field(status, "VmSwap"), None);
    }

    #[test]
    fn schedstat_and_cpuinfo() {
        assert_eq!(parse_schedstat_ns("123456789 5555 42\n"), Some(123_456_789));
        let cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\n\
                       model name\t: Intel(R) Xeon(R) Processor\nflags\t\t: fpu\n";
        assert_eq!(
            cpu_model(cpuinfo).as_deref(),
            Some("Intel(R) Xeon(R) Processor")
        );
    }

    #[test]
    fn live_sample_of_this_process() {
        let s = sample(std::process::id()).unwrap();
        assert!(s.peak_rss_kb > 0 && s.ctx_switches > 0);
    }
}
