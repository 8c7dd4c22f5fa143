//! Task bodies for the runtime emulator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Invocation context passed to every kernel call.
#[derive(Debug, Clone, Copy)]
pub struct KernelCtx<'a> {
    /// The stream instance being processed.
    pub instance: u64,
    /// Name of the task (for diagnostics).
    pub task_name: &'a str,
    /// The task's peek depth (how many future instances each input
    /// window carries beyond the current one).
    pub peek: u32,
}

/// One input edge's peek window: `instances[0]` is the current instance's
/// datum, `instances[p]` the datum `p` instances ahead.
pub struct Window<'a> {
    /// Byte slices, one per visible instance, oldest first.
    pub instances: Vec<&'a [u8]>,
}

/// A task body: transforms the input windows into the output payloads.
///
/// Kernels must be `Send + Sync` (each is called from its host PE's
/// thread; a kernel shared by several tasks may be called concurrently).
pub trait Kernel: Send + Sync {
    /// Process one instance.
    fn process(&self, ctx: &KernelCtx<'_>, inputs: &[Window<'_>], outputs: &mut [&mut [u8]]);
}

/// Busy-spins for a fixed duration — the synthetic workload used to
/// emulate a task with a given `w` cost.
pub struct SpinKernel {
    /// How long one instance takes.
    pub duration: Duration,
}

impl SpinKernel {
    /// Spin for `seconds` per instance.
    pub fn new(seconds: f64) -> Self {
        SpinKernel { duration: Duration::from_secs_f64(seconds.max(0.0)) }
    }
}

impl Kernel for SpinKernel {
    fn process(&self, _ctx: &KernelCtx<'_>, _inputs: &[Window<'_>], outputs: &mut [&mut [u8]]) {
        let start = Instant::now();
        while start.elapsed() < self.duration {
            std::hint::spin_loop();
        }
        // touch outputs so downstream checksums see deterministic bytes
        for out in outputs.iter_mut() {
            if let Some(b) = out.first_mut() {
                *b = b.wrapping_add(1);
            }
        }
    }
}

/// FNV-1a over all visible input bytes plus the instance number, written
/// as a repeating 8-byte pattern to every output. Sources (no inputs)
/// hash just the instance number, so the whole pipeline is a
/// deterministic function of the instance index — which the test-suite
/// exploits to verify FIFO order and peek-window integrity end to end.
pub struct ChecksumKernel;

/// The hash `ChecksumKernel` computes; exposed so tests can predict
/// pipeline outputs.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    // `fold`, not a `for` loop: a chain of flattened windows then folds
    // each slice in a tight loop of its own instead of stepping the whole
    // adapter stack per byte, whose speed hung on where the linker put it
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

impl Kernel for ChecksumKernel {
    fn process(&self, ctx: &KernelCtx<'_>, inputs: &[Window<'_>], outputs: &mut [&mut [u8]]) {
        let visible =
            inputs.iter().flat_map(|w| w.instances.iter().flat_map(|s| s.iter().copied()));
        let h = fnv1a(ctx.instance.to_le_bytes().into_iter().chain(visible)).to_le_bytes();
        for out in outputs.iter_mut() {
            for (i, b) in out.iter_mut().enumerate() {
                *b = h[i % 8];
            }
        }
    }
}

/// A kernel from a closure.
pub struct ClosureKernel<F>(pub F);

impl<F> Kernel for ClosureKernel<F>
where
    F: Fn(&KernelCtx<'_>, &[Window<'_>], &mut [&mut [u8]]) + Send + Sync,
{
    fn process(&self, ctx: &KernelCtx<'_>, inputs: &[Window<'_>], outputs: &mut [&mut [u8]]) {
        (self.0)(ctx, inputs, outputs)
    }
}

/// A validating sink: recomputes the expected checksum of its inputs and
/// counts mismatches into a shared counter (wall-clock-independent
/// integrity signal for tests).
pub struct VerifyKernel {
    /// Incremented on every instance whose inputs disagree with `expect`.
    pub mismatches: Arc<AtomicU64>,
    /// Expected first-byte of each input window slice, as a function of
    /// the instance index carried by the window slot.
    pub expect: VerifyPredicate,
}

/// Predicate deciding whether an instance's input windows are correct.
type VerifyPredicate = Box<dyn Fn(u64, &[Window<'_>]) -> bool + Send + Sync>;

impl Kernel for VerifyKernel {
    fn process(&self, ctx: &KernelCtx<'_>, inputs: &[Window<'_>], outputs: &mut [&mut [u8]]) {
        if !(self.expect)(ctx.instance, inputs) {
            // check:allow(atomic-ordering): monotone statistics counter,
            // read only after the engine joins its threads
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
        let _ = outputs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a([]), 0xcbf29ce484222325);
        assert_ne!(fnv1a([1]), fnv1a([2]));
        assert_eq!(fnv1a([1, 2, 3]), fnv1a([1, 2, 3]));
    }

    #[test]
    fn checksum_kernel_writes_deterministic_pattern() {
        let k = ChecksumKernel;
        let ctx = KernelCtx { instance: 5, task_name: "t", peek: 0 };
        let mut out1 = vec![0u8; 16];
        let mut out2 = vec![0u8; 16];
        {
            let mut outs: Vec<&mut [u8]> = vec![&mut out1];
            k.process(&ctx, &[], &mut outs);
        }
        {
            let mut outs: Vec<&mut [u8]> = vec![&mut out2];
            k.process(&ctx, &[], &mut outs);
        }
        assert_eq!(out1, out2);
        assert_eq!(&out1[0..8], &out1[8..16], "8-byte pattern repeats");
    }

    #[test]
    fn checksum_depends_on_instance_and_inputs() {
        let k = ChecksumKernel;
        let mut out_a = vec![0u8; 8];
        let mut out_b = vec![0u8; 8];
        let data = vec![9u8; 4];
        let w = Window { instances: vec![data.as_slice()] };
        {
            let mut outs: Vec<&mut [u8]> = vec![&mut out_a];
            k.process(&KernelCtx { instance: 1, task_name: "t", peek: 0 }, &[w], &mut outs);
        }
        let w2 = Window { instances: vec![data.as_slice()] };
        {
            let mut outs: Vec<&mut [u8]> = vec![&mut out_b];
            k.process(&KernelCtx { instance: 2, task_name: "t", peek: 0 }, &[w2], &mut outs);
        }
        assert_ne!(out_a, out_b);
    }

    #[test]
    fn spin_kernel_takes_time() {
        let k = SpinKernel::new(2e-3);
        let ctx = KernelCtx { instance: 0, task_name: "spin", peek: 0 };
        let start = Instant::now();
        k.process(&ctx, &[], &mut []);
        assert!(start.elapsed() >= Duration::from_millis(2));
    }
}
