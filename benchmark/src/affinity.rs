//! Confining the measuring thread, and every thread it spawns, to one
//! CPU.
//!
//! Two reasons. The harness scales every call by reference slices run
//! on the measuring thread (see [`crate::harness`]); the sandbox's two
//! vCPUs slow down independently of each other (their slice times
//! correlate at 0.2 over 50 ms windows), so a slice says nothing about
//! a call that ran on the other one. And `rt_stream` runs two PE
//! threads that hand every instance to each other: across vCPUs a
//! hand-off wakes a halted vCPU through the hypervisor, and what that
//! costs is the host's business — identical 4 000-instance passes took
//! 0.13 s to 2.9 s. With both threads on one CPU the same passes take
//! 0.22–0.34 s — slower than the best free pass, but a function of the
//! runtime's code (ring bookkeeping, allocation, the progress mutex,
//! futex calls, context switches) instead of the neighbours. Threads
//! inherit the mask of the thread that spawns them, so confining the
//! caller before `rt::run` confines the PE threads.
//!
//! The standard library has no affinity call and no `libc` crate is
//! available offline; glibc is linked anyway, so the two functions are
//! declared here.

use std::sync::OnceLock;

/// Words of a kernel CPU mask large enough for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask, or `None` where the call is
/// unavailable or refused.
#[cfg(target_os = "linux")]
fn current_mask() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread; the kernel writes
    // at most `cpusetsize` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set_mask(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed and is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn current_mask() -> Option<[u64; MASK_WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_: &[u64; MASK_WORDS]) -> bool {
    false
}

/// The mask the first confined thread had before it was confined.
static WIDE: OnceLock<[u64; MASK_WORDS]> = OnceLock::new();

/// Confine the calling thread, for good, to the highest-numbered CPU it
/// may run on (interrupts favour CPU 0). `false` where affinity cannot
/// be set — the caller then measures unconfined and says so.
pub fn confine_to_one_cpu() -> bool {
    let Some(wide) = current_mask() else { return false };
    let Some((word, bits)) = wide.iter().enumerate().rev().find(|(_, w)| **w != 0) else {
        return false;
    };
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    WIDE.get_or_init(|| wide);
    set_mask(&one)
}

/// Run `f` on the mask the thread had before it was confined — for the
/// diagnostics that need both cores — and narrow it again.
pub fn with_all_cpus<R>(f: impl FnOnce() -> R) -> R {
    let (Some(wide), Some(narrow)) = (WIDE.get(), current_mask()) else { return f() };
    // a refusal leaves the mask narrow: the diagnostic reads low, the
    // measurements are unaffected
    let _ = set_mask(wide);
    let out = f();
    let _ = set_mask(&narrow);
    out
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn confines_spawned_threads_and_widens_for_a_closure_only() {
        // on a thread of its own: the confinement is for good
        std::thread::spawn(|| {
            let before = current_mask().expect("linux reports the mask");
            assert!(confine_to_one_cpu(), "a thread may narrow its own mask");
            let now = current_mask().unwrap();
            assert_eq!(now.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            let allowed = now.iter().zip(&before).all(|(n, b)| n & !b == 0);
            assert!(allowed, "the one CPU is one the thread was allowed before");
            let inherited = std::thread::spawn(current_mask).join().unwrap().unwrap();
            assert_eq!(inherited, now, "spawned threads inherit the mask");
            assert_eq!(with_all_cpus(|| current_mask().unwrap()), before);
            assert_eq!(current_mask().unwrap(), now);
        })
        .join()
        .unwrap();
    }
}
