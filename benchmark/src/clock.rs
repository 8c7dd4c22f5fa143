//! The benchmark's clock: CPU time consumed by this process.
//!
//! Every call into the system is timed on `CLOCK_PROCESS_CPUTIME_ID` —
//! user plus system time of all the process's threads. The calls
//! measured here compute and never sleep, so on a core nobody else uses
//! that *is* their wall time; on the shared sandbox this was sized on it
//! leaves out what the host steals (0–50 % of a second, in bursts of
//! milliseconds: `top` shows it as `st`) and what other processes on the
//! CPU take, neither of which the code under test can change. For
//! `rt_stream` it is the CPU time of both PE threads, which leaves out
//! the halted-vCPU wake-ups that made its wall time the host's business.
//!
//! A [`Lap`] carries the wall time too, so a change that makes calls
//! *wait* (sleep, block on a helper thread) cannot hide:
//! `harness.wall_over_cpu` reports wall over CPU time of the calls.
//!
//! No `libc` crate is available offline; glibc is linked anyway, so
//! `clock_gettime` is declared here.

use std::time::{Duration, Instant};

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn process_cpu_time() -> Option<Duration> {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` with the layout the
    // 64-bit Linux ABI gives it; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn process_cpu_time() -> Option<Duration> {
    None
}

/// A point on the process's CPU clock; where that clock cannot be read,
/// on the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant {
    cpu: Option<Duration>,
    wall: Instant,
}

impl CpuInstant {
    /// Now.
    pub fn now() -> CpuInstant {
        CpuInstant { cpu: process_cpu_time(), wall: Instant::now() }
    }

    /// CPU time the process has consumed since `self`.
    pub fn elapsed(&self) -> Duration {
        match (self.cpu, process_cpu_time()) {
            (Some(then), Some(now)) => now.saturating_sub(then),
            _ => self.wall.elapsed(),
        }
    }

    /// CPU and wall time since `self`.
    pub fn lap(&self) -> Lap {
        Lap { cpu: self.elapsed(), wall: self.wall.elapsed() }
    }
}

/// What one timed call took on both clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    /// CPU time of the process: what every reported time is made of.
    pub cpu: Duration,
    /// Wall time, kept to show waiting.
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computing_costs_cpu_time_and_the_lap_keeps_the_wall_time() {
        let t = CpuInstant::now();
        let mut x = 1u64;
        while t.lap().wall < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        // other test threads add to the process clock, never subtract
        let lap = t.lap();
        assert!(lap.cpu >= Duration::from_millis(5) && lap.wall >= Duration::from_millis(20));
    }
}
