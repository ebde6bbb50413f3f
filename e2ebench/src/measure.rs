//! Clocks and order statistics.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of the whole process in nanoseconds, summed over all its
/// threads (`CLOCK_PROCESS_CPUTIME_ID`). The engine's worker threads are
/// persistent, so a delta of this clock covers all work done between two
/// reads. Unlike `/proc/self/task/*/schedstat`, which advances only at
/// scheduler ticks for a running thread, it is exact to the nanosecond.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The tail of a latency sample: the nearest-rank value at the highest
/// percentile that still has at least ten samples beyond it, capped at
/// p99. Returns `(value, percentile)`. With fewer than eleven samples no
/// percentile has ten beyond it, and the median is returned as p50.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 11 {
        return (median(xs), 50.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let p99 = (0.99 * n as f64).ceil() as usize - 1;
    let i = p99.min(n - 11);
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs), (1980.0, 99.0));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // Index 9 (value 10) is the highest with ten samples beyond it.
        assert_eq!(tail(&xs), (10.0, 50.0));
        assert_eq!(tail(&[5.0, 1.0, 3.0]), (3.0, 50.0));
    }

    #[test]
    fn process_clocks_read() {
        assert!(cpu_ns() > 0);
        assert!(peak_rss_mib() > 0.0);
    }
}
