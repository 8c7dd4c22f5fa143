//! An MPEG-1 Layer-II–style audio encoder as a streaming application.
//!
//! One stream instance = one frame of `FRAME_SAMPLES` 32-bit samples.
//! Structure (13 tasks):
//!
//! ```text
//!            ┌─> subband0 ─┐
//!            ├─> subband1 ─┤
//!  framer ───┼─> subband2 ─┼─> scalefactor ─> bitalloc ─┬─> quant0..3 ─> mux
//!            ├─> subband3 ─┘        ^                   │
//!            └─> psycho(FFT, peek 1)┘___________________│ (SMR side-info)
//! ```
//!
//! * the **psychoacoustic model** peeks one frame ahead (`peek = 1`), as
//!   real layer-II encoders do for block-switching decisions — this is
//!   exactly the paper's §2.2 example of a peek > 0 task;
//! * the four **subband lanes** are SIMD-friendly (strong SPE affinity);
//! * **bit allocation** is branchy table logic (PPE-leaning);
//! * the kernels really run: polyphase analysis, FFT spectrum, SMR,
//!   water-filling bit allocation and mid-tread quantisation.

use crate::dsp;
use cellstream_graph::{GraphError, StreamGraph, TaskSpec};
use cellstream_rt::{ClosureKernel, Kernel, KernelCtx, Window};
use std::sync::Arc;

/// Samples per frame (per instance).
pub const FRAME_SAMPLES: usize = 1152;
/// Subband lanes.
pub const LANES: usize = 4;
/// Bytes of one PCM frame (`f32` samples).
pub const FRAME_BYTES: f64 = (FRAME_SAMPLES * 4) as f64;
/// Bytes of one lane's subband block.
const LANE_BYTES: f64 = FRAME_BYTES / LANES as f64;
/// Bytes of the spectral envelope the psycho model emits.
const SPECTRUM_BYTES: f64 = 512.0;
/// Bytes of the per-lane bit-allocation table.
const ALLOC_BYTES: f64 = 64.0;

/// Build the encoder graph. Costs are microsecond-scale with the
/// unrelated-machine mix described in the module docs.
pub fn graph() -> Result<StreamGraph, GraphError> {
    let mut b = StreamGraph::builder("audio-encoder");
    let framer =
        b.add_task(TaskSpec::new("framer").ppe_cost(0.8e-6).spe_cost(0.9e-6).reads(FRAME_BYTES));
    let mut subbands = Vec::new();
    for lane in 0..LANES {
        subbands.push(b.add_task(
            // heavy SIMD filterbank: 3x faster on an SPE
            TaskSpec::new(format!("subband{lane}")).ppe_cost(3.0e-6).spe_cost(1.0e-6),
        ));
    }
    let psycho = b.add_task(
        // FFT-heavy but with scalar control: 2x faster on an SPE, peeks
        // one frame ahead
        TaskSpec::new("psycho").ppe_cost(4.0e-6).spe_cost(2.0e-6).peek(1),
    );
    let scalefactor = b.add_task(TaskSpec::new("scalefactor").ppe_cost(1.2e-6).spe_cost(0.8e-6));
    let bitalloc = b.add_task(
        // branchy table logic: faster on the PPE, stateful (running bit
        // reservoir)
        TaskSpec::new("bitalloc").ppe_cost(1.0e-6).spe_cost(1.8e-6).stateful(),
    );
    let mut quants = Vec::new();
    for lane in 0..LANES {
        quants.push(
            b.add_task(TaskSpec::new(format!("quant{lane}")).ppe_cost(2.0e-6).spe_cost(0.7e-6)),
        );
    }
    let mux = b.add_task(
        TaskSpec::new("mux").ppe_cost(0.9e-6).spe_cost(1.4e-6).stateful().writes(FRAME_BYTES / 4.0),
    );

    for &s in &subbands {
        b.add_edge(framer, s, LANE_BYTES)?;
    }
    b.add_edge(framer, psycho, FRAME_BYTES)?;
    b.add_edge(psycho, scalefactor, SPECTRUM_BYTES)?;
    for &s in &subbands {
        b.add_edge(s, scalefactor, 32.0)?; // per-lane scale factors
    }
    b.add_edge(scalefactor, bitalloc, SPECTRUM_BYTES)?;
    for (lane, &q) in quants.iter().enumerate() {
        b.add_edge(subbands[lane], q, LANE_BYTES)?;
        b.add_edge(bitalloc, q, ALLOC_BYTES)?;
    }
    for &q in &quants {
        b.add_edge(q, mux, LANE_BYTES / 2.0)?;
    }
    b.build()
}

/// Executable kernels matching [`graph`]'s task order.
pub fn kernels() -> Vec<Arc<dyn Kernel>> {
    let mut v: Vec<Arc<dyn Kernel>> = Vec::new();

    // framer: synthesise a deterministic PCM frame (two tones + instance-
    // dependent phase) and fan it out
    v.push(Arc::new(ClosureKernel(
        |ctx: &KernelCtx<'_>, _in: &[Window<'_>], out: &mut [&mut [u8]]| {
            let inst = ctx.instance as f32;
            let frame: Vec<f32> = (0..FRAME_SAMPLES)
                .map(|i| {
                    let t = i as f32 / FRAME_SAMPLES as f32;
                    (2.0 * std::f32::consts::PI * (440.0 * t + inst * 0.01)).sin() * 0.5
                        + (2.0 * std::f32::consts::PI * (1320.0 * t)).sin() * 0.25
                })
                .collect();
            // outputs: LANES lane-slices then the full frame for psycho
            for (lane, slot) in out.iter_mut().take(LANES).enumerate() {
                let per = FRAME_SAMPLES / LANES;
                write_f32s(slot, &frame[lane * per..(lane + 1) * per]);
            }
            if let Some(slot) = out.get_mut(LANES) {
                write_f32s(slot, &frame);
            }
        },
    )));

    // subband lanes: polyphase analysis of the lane slice
    for _ in 0..LANES {
        v.push(Arc::new(ClosureKernel(
            |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
                let samples = read_f32s(inp[0].instances[0]);
                let mut bands = vec![0.0f32; samples.len()];
                dsp::polyphase_analyze(&samples, 8, &mut bands);
                // out[0]: subband block to quantiser; out[1]: scale factors
                write_f32s(out[0], &bands);
                let sf: Vec<f32> = bands
                    .chunks(bands.len() / 8)
                    .map(|c| c.iter().fold(0.0f32, |m, &x| m.max(x.abs())))
                    .collect();
                if out.len() > 1 {
                    write_f32s(out[1], &sf);
                }
            },
        )));
    }

    // psycho: FFT power spectrum of the current frame, masking threshold
    // from current + next frame (the peek window)
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
            let cur = read_f32s(inp[0].instances[0]);
            let spectrum = dsp::power_spectrum(&cur);
            let mut thresh: Vec<f32> = spectrum.iter().map(|&p| p - 6.0).collect();
            if inp[0].instances.len() > 1 {
                // temporal masking: the next frame raises the threshold
                let next = read_f32s(inp[0].instances[1]);
                let next_spec = dsp::power_spectrum(&next);
                for (t, n) in thresh.iter_mut().zip(&next_spec) {
                    *t = t.max(*n - 12.0);
                }
            }
            write_f32s(out[0], &thresh[..(SPECTRUM_BYTES as usize / 4).min(thresh.len())]);
        },
    )));

    // scalefactor: merge psycho threshold + per-lane scale factors -> SMR
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
            let thresh = read_f32s(inp[0].instances[0]);
            let mut smr: Vec<f32> = thresh.iter().map(|&t| (-t).max(0.0)).collect();
            for w in inp.iter().skip(1) {
                for (i, &sf) in read_f32s(w.instances[0]).iter().enumerate() {
                    if let Some(s) = smr.get_mut(i) {
                        *s += sf.abs().ln_1p();
                    }
                }
            }
            write_f32s(out[0], &smr[..(SPECTRUM_BYTES as usize / 4).min(smr.len())]);
        },
    )));

    // bitalloc: water-filling over SMR -> bits per band, per lane
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
            let smr = read_f32s(inp[0].instances[0]);
            let budget = 384i32; // bits per lane per frame
            let mut bits = [2i32; 16];
            let mut left = budget - 32;
            // give bits to the loudest bands first
            let mut order: Vec<usize> = (0..16).collect();
            order
                .sort_by(|&a, &b| smr.get(b).unwrap_or(&0.0).total_cmp(smr.get(a).unwrap_or(&0.0)));
            for &band in order.iter().cycle().take(64) {
                if left <= 0 || bits[band] >= 12 {
                    continue;
                }
                bits[band] += 1;
                left -= 1;
            }
            let table: Vec<f32> = bits.iter().map(|&b| b as f32).collect();
            for slot in out.iter_mut() {
                write_f32s(slot, &table);
            }
        },
    )));

    // quant lanes: quantise the subband block under the allocation
    for _ in 0..LANES {
        v.push(Arc::new(ClosureKernel(
            |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
                let bands = read_f32s(inp[0].instances[0]);
                let alloc = read_f32s(inp[1].instances[0]);
                let scale = bands.iter().fold(1e-6f32, |m, &x| m.max(x.abs()));
                let codes: Vec<f32> = bands
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        let bits = alloc.get(i % alloc.len().max(1)).copied().unwrap_or(4.0) as u32;
                        dsp::quantize(x, scale, bits.max(2)) as f32
                    })
                    .collect();
                write_f32s(out[0], &codes[..codes.len() / 2]);
            },
        )));
    }

    // mux: fold the four quantised lanes into a frame checksum (stands in
    // for bitstream packing; writes happen through the task's write_bytes)
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], _out: &mut [&mut [u8]]| {
            let mut acc = 0.0f64;
            for w in inp {
                for &x in &read_f32s(w.instances[0]) {
                    acc += x as f64;
                }
            }
            std::hint::black_box(acc);
        },
    )));

    v
}

fn write_f32s(slot: &mut [u8], values: &[f32]) {
    for (chunk, v) in slot.chunks_mut(4).zip(values.iter().chain(std::iter::repeat(&0.0))) {
        let bytes = v.to_le_bytes();
        let n = chunk.len().min(4);
        chunk[..n].copy_from_slice(&bytes[..n]);
    }
}

fn read_f32s(slot: &[u8]) -> Vec<f32> {
    slot.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk"))).collect()
}
