//! Process and machine readings that the standard library does not offer:
//! CPU time, peak resident memory, and hypervisor steal.

use std::sync::OnceLock;
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, system), then
/// fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process (every thread, live or
/// exited) in milliseconds.
pub fn cpu_ms() -> f64 {
    let mut usage = Rusage {
        utime_sec: 0,
        utime_usec: 0,
        stime_sec: 0,
        stime_usec: 0,
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // 64-bit `struct rusage` (4 + 14 machine words), and RUSAGE_SELF is a
    // valid `who`; getrusage writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = (usage.utime_sec + usage.stime_sec) as f64;
    let usecs = (usage.utime_usec + usage.stime_usec) as f64;
    secs * 1e3 + usecs / 1e3
}

/// Wall and CPU time of one measured region, and how much of the machine
/// the hypervisor took away meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Process CPU milliseconds (user + system, all threads).
    pub cpu_ms: f64,
    /// Share of the machine's CPU time stolen by the hypervisor (0 to 1).
    pub steal: f64,
}

/// `/proc/stat` counts in USER_HZ ticks, 100 per second on Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// A span with more than this share of the machine stolen is disturbed:
/// on a 2-vCPU VM, steal episodes of 30% slow a `serve()` call four-fold,
/// because every coordinator↔shard hop waits for a descheduled vCPU.
const STEAL_LIMIT: f64 = 0.1;

/// Runs `f`, measuring its wall and process CPU time and the steal.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Span) {
    let steal0 = steal_ticks();
    let cpu0 = cpu_ms();
    let t0 = Instant::now();
    let out = f();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = cpu_ms() - cpu0;
    let stolen = steal_ticks().saturating_sub(steal0) as f64;
    let available = wall_ms / 1e3 * TICKS_PER_SEC * machine_cpus() as f64;
    let steal = if available > 0.0 {
        (stolen / available).min(1.0)
    } else {
        0.0
    };
    (
        out,
        Span {
            wall_ms,
            cpu_ms,
            steal,
        },
    )
}

/// The spans the hypervisor left alone, or all of them when fewer than
/// `min` were: timings then describe the program, not its neighbours,
/// whenever the run saw enough quiet time.
pub fn undisturbed(spans: &[Span], min: usize) -> Vec<Span> {
    let quiet: Vec<Span> = spans
        .iter()
        .copied()
        .filter(|s| s.steal <= STEAL_LIMIT)
        .collect();
    if quiet.len() >= min.max(1) {
        quiet
    } else {
        spans.to_vec()
    }
}

/// CPUs `/proc/stat` accounts steal over (the `cpuN` lines).
fn machine_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let n = stat
            .lines()
            .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
            .count();
        n.max(1)
    })
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Machine-wide steal ticks from `/proc/stat` (time the hypervisor ran
/// someone else while this VM wanted a CPU); 0 where unavailable.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// CPUs this process may run on.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
