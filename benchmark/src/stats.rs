//! Percentiles, CPU clocks, process memory, and the metric record every
//! run prints.

use std::ffi::{c_int, c_long};
use std::os::unix::thread::{JoinHandleExt, RawPthread};
use std::thread::JoinHandle;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub n: usize,
}

impl Metric {
    /// A metric over `n` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            n,
        }
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `ns`, in milliseconds.
/// `None` for an empty sample.
pub fn percentile_ms(ns: &[u64], p: f64) -> Option<f64> {
    percentile(ns, p).map(|v| v as f64 / 1e6)
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `values`.
pub fn percentile(values: &[u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (nearest-rank).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len().div_ceil(2) - 1]
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn pthread_getcpuclockid(thread: RawPthread, clock: *mut c_int) -> c_int;
}

/// A CPU-time clock of one thread. Unlike wall-clock time it leaves out
/// the time the thread waited: on the accept loop's idle sleep, on other
/// threads, and on a paravirtualized guest the time the host ran other
/// guests (steal). Read from another thread, it is exact even while its
/// thread runs, which the process-wide clock is not: that one adds in a
/// running thread's time only at the next scheduler tick.
#[derive(Clone, Copy, Debug)]
pub struct CpuClock(c_int);

impl CpuClock {
    /// The calling thread's clock (Linux's `CLOCK_THREAD_CPUTIME_ID`).
    pub const THIS_THREAD: CpuClock = CpuClock(3);

    /// The clock of the thread `handle` runs. It may be read until that
    /// thread is joined.
    pub fn of<T>(handle: &JoinHandle<T>) -> Result<CpuClock, String> {
        let mut id: c_int = 0;
        // SAFETY: `handle` owns its thread, which is therefore neither
        // joined nor detached, so its pthread_t is valid; `id` is a
        // writable clockid_t (an int on Linux).
        let rc = unsafe { pthread_getcpuclockid(handle.as_pthread_t(), &mut id) };
        if rc == 0 {
            Ok(CpuClock(id))
        } else {
            Err(format!("pthread_getcpuclockid failed ({rc})"))
        }
    }

    /// CPU time the thread has run so far, in nanoseconds.
    pub fn now_ns(self) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs
        // on Linux) and clock_gettime writes only through `tp`. An id that
        // names no live clock makes the call fail, not misbehave.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        assert_eq!(
            rc, 0,
            "clock_gettime on a CPU clock whose thread has exited"
        );
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
