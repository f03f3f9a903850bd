//! Process-level measurements read from `/proc/self` (Linux only; the
//! benchmark has no other way to see memory and CPU from outside the
//! crates, and no libc binding to ask the kernel directly).

use std::collections::HashMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// `/proc/<pid>/stat` reports CPU time in clock ticks of `USER_HZ`,
/// which is 100 on every Linux architecture's user-space ABI.
const TICKS_PER_SEC: f64 = 100.0;

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status_field(&status, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// User plus system CPU seconds of the whole process, threads that have
/// already exited included.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Voluntary context switches summed over every thread of the process.
///
/// The kernel keeps the counter per thread and drops it when the thread
/// exits, so a background thread samples `/proc/self/task/*/status`
/// every 50 ms and keeps each thread's last reading; switches in a
/// thread's final 50 ms are missed.
pub struct CtxSwitchSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<HashMap<String, u64>>,
}

fn sample_threads(last: &mut HashMap<String, u64>) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        if let Some(n) = status_field(&status, "voluntary_ctxt_switches") {
            last.insert(task.file_name().to_string_lossy().into_owned(), n);
        }
    }
}

impl CtxSwitchSampler {
    pub fn start() -> CtxSwitchSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut last = HashMap::new();
            let mut baseline = HashMap::new();
            sample_threads(&mut baseline);
            while !flag.load(Ordering::SeqCst) {
                sample_threads(&mut last);
                std::thread::park_timeout(Duration::from_millis(50));
            }
            sample_threads(&mut last);
            for (tid, n) in last.iter_mut() {
                *n -= baseline.get(tid).copied().unwrap_or(0).min(*n);
            }
            last
        });
        CtxSwitchSampler { stop, handle }
    }

    /// Stops sampling and returns the switches seen since `start`.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.thread().unpark();
        self.handle
            .join()
            .expect("the sampler thread only reads files and cannot panic")
            .values()
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_with_units_and_padding() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field(status, "VmHWM"), Some(20480));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(17));
        assert_eq!(status_field(status, "VmPeak"), None);
    }

    #[test]
    fn this_process_has_memory_and_cpu_time() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
