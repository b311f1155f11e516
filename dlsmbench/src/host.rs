//! Reading the host and this process from `/proc` (Linux only, no
//! dependencies): thread ids, per-thread on-CPU time, process CPU time, and
//! the host fingerprint every result carries.

use std::collections::BTreeSet;

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime` fields.
/// Linux reports them in `USER_HZ`, which is 100 on every mainstream
/// architecture.
const USER_HZ: u64 = 100;

/// Ids of every live thread of this process.
pub fn tids() -> BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// The calling thread's id (`/proc/thread-self` links to `<pid>/task/<tid>`).
pub fn my_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// On-CPU nanoseconds of one thread: the first field of its `schedstat`.
/// Time spent blocked or sleeping is not counted. `None` once the thread
/// has exited.
pub fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let s = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// User plus system CPU time of the whole process, in nanoseconds, from
/// `/proc/self/stat` (tick resolution; includes threads that have exited).
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks * (1_000_000_000 / USER_HZ)
}

/// Peak resident set size of this process, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a result must carry to be compared only with results of the same
/// host and build.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
}

impl Fingerprint {
    pub fn collect() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: env!("DLSMBENCH_RUSTC").to_string(),
            git_commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

/// HEAD of the repository the benchmark runs in, read from `.git` directly.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_thread_is_listed_and_has_cpu_time() {
        let me = my_tid();
        assert!(tids().contains(&me));
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {
            std::hint::black_box(0u64);
        }
        assert!(thread_cpu_ns(me).unwrap() > 0);
        assert!(process_cpu_ns() > 0 || cfg!(not(target_os = "linux")));
    }
}
