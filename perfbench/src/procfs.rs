//! Process CPU time and peak memory from `/proc/self`.

/// `/proc` reports CPU time in USER_HZ ticks, fixed at 100 by the Linux ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Skip the pid and the parenthesised command name, which may hold
    // spaces: `fields` starts at field 3 of the line, the state, so utime
    // and stime (fields 14 and 15) sit at 11 and 12.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}
