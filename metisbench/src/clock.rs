//! The benchmark's stopwatch: wall-clock time and the calling thread's
//! CPU time.
//!
//! End-to-end times are CPU seconds of the one thread that runs the solver
//! (every workload pins `ParallelConfig::threads` to 1), read from
//! `CLOCK_THREAD_CPUTIME_ID`. On a shared machine the wall clock also
//! counts the time the thread waited for a core, preempted by other
//! processes or stolen by the hypervisor, and that wait varies from one
//! minute to the next by more than any regression worth catching. The
//! thread's CPU clock leaves it out (Linux subtracts steal time from it
//! under paravirtual time accounting); `calib` then takes out how fast
//! the core ran while it had it. The spans the program records are
//! wall-clock, so the traced pass compares them with wall time.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec` on Linux, where `time_t` is a C `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clockid: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds the calling thread has run so far.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the duration of the
    // call, and the C library's `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Time one closure took, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of the calling thread.
    pub cpu: f64,
}

/// Runs `f` under the benchmark's stopwatch and returns its result with
/// the time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Elapsed) {
    // metis-lint: allow(DET-02): the benchmark's own stopwatch; the program never reads it
    let wall = Instant::now();
    let cpu = thread_cpu_s();
    let out = f();
    let cpu = thread_cpu_s() - cpu;
    let wall = wall.elapsed().as_secs_f64();
    (out, Elapsed { wall, cpu })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_counts_work_and_not_sleep() {
        let (_, slept) = timed(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(slept.wall >= 0.05, "{slept:?}");
        assert!(slept.cpu < 0.02, "{slept:?}");
        let (sum, spun) = timed(|| (0..20_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(spun.cpu > 0.0 && spun.cpu <= spun.wall + 1e-3, "{spun:?}");
    }
}
