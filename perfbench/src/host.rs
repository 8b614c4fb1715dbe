//! Process and host readings from `/proc` (Linux only).

use std::fs;
use std::process::Command;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`, fixed at
/// 100 by the Linux ABI on the architectures this runs on.
const TICKS_PER_SEC: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User plus system CPU seconds of a process (all its threads, live and
/// exited); `None` means this process.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("{path}: bad field {i}"))
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM"))?;
    Ok(kb / 1024.0)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal ...
    let steal = *ticks.get(7).ok_or("/proc/stat: no steal field")?;
    Ok((steal, ticks.iter().take(8).sum()))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The host a result was measured on, as one JSON object.
pub fn context_json(extra: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut out = format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\"",
        escape(&cpu),
        escape(&kernel),
        escape(&rustc)
    );
    for (k, v) in extra {
        out += &format!(", \"{k}\": {v}");
    }
    out + "}"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let cpu = cpu_seconds(None).unwrap();
        assert!(cpu >= 0.0);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        let (steal, total) = steal_ticks().unwrap();
        assert!(steal <= total && total > 0);
        let ctx = context_json(&[("offered_rate_per_s", "40".into())]);
        assert!(ctx.starts_with("{\"nproc\": "), "{ctx}");
        assert!(ctx.ends_with("\"offered_rate_per_s\": 40}"), "{ctx}");
    }
}
