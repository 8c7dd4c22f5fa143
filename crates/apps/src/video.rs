//! A video filter pipeline (the paper's motivating domain: "video edition
//! softwares, web radios or Video On Demand").
//!
//! One instance = one 64×64 greyscale tile:
//!
//! ```text
//! decode ─> denoise ─> scale ──────────────┬─> overlay ─> encode
//!     └────> motion (peek 2) ──────────────┘
//! ```
//!
//! Motion estimation peeks **two** tiles ahead (B-frame-style lookahead),
//! the second peek depth seen in the paper's Figure 5(b) graphs. Kernels
//! do real pixel arithmetic: 3×3 box denoise, bilinear downscale, SAD
//! motion search, alpha overlay, delta+RLE encode.

use cellstream_graph::{GraphError, StreamGraph, TaskSpec};
use cellstream_rt::{ClosureKernel, Kernel, KernelCtx, Window};
use std::sync::Arc;

/// Tile edge length in pixels.
const TILE: usize = 64;
/// Bytes per tile (1 byte per pixel).
const TILE_BYTES: f64 = (TILE * TILE) as f64;

/// Build the pipeline graph.
pub fn graph() -> Result<StreamGraph, GraphError> {
    let mut b = StreamGraph::builder("video-pipeline");
    let decode = b.add_task(
        TaskSpec::new("decode").ppe_cost(1.5e-6).spe_cost(1.2e-6).reads(TILE_BYTES / 2.0),
    );
    let denoise = b.add_task(TaskSpec::new("denoise").ppe_cost(4.0e-6).spe_cost(1.2e-6));
    let scale = b.add_task(TaskSpec::new("scale").ppe_cost(2.5e-6).spe_cost(0.9e-6));
    let motion = b.add_task(TaskSpec::new("motion").ppe_cost(5.0e-6).spe_cost(1.8e-6).peek(2));
    let overlay = b.add_task(TaskSpec::new("overlay").ppe_cost(1.2e-6).spe_cost(0.8e-6));
    let encode = b.add_task(
        TaskSpec::new("encode")
            .ppe_cost(2.0e-6)
            .spe_cost(2.6e-6)
            .stateful()
            .writes(TILE_BYTES / 3.0),
    );
    b.add_edge(decode, denoise, TILE_BYTES)?;
    b.add_edge(decode, motion, TILE_BYTES)?;
    b.add_edge(denoise, scale, TILE_BYTES)?;
    b.add_edge(scale, overlay, TILE_BYTES / 4.0)?;
    b.add_edge(motion, overlay, 256.0)?; // motion vectors
    b.add_edge(overlay, encode, TILE_BYTES / 4.0)?;
    b.build()
}

/// Kernels in [`graph`] task order.
pub fn kernels() -> Vec<Arc<dyn Kernel>> {
    let mut v: Vec<Arc<dyn Kernel>> = Vec::new();

    // decode: deterministic procedural tile (moving gradient)
    v.push(Arc::new(ClosureKernel(
        |ctx: &KernelCtx<'_>, _in: &[Window<'_>], out: &mut [&mut [u8]]| {
            let phase = (ctx.instance % 255) as usize;
            for slot in out.iter_mut() {
                for y in 0..TILE {
                    for x in 0..TILE {
                        slot[y * TILE + x] = ((x + y + phase) % 256) as u8;
                    }
                }
            }
        },
    )));

    // denoise: 3x3 box filter
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
            let src = inp[0].instances[0];
            let dst = &mut out[0];
            for y in 0..TILE {
                for x in 0..TILE {
                    let mut sum = 0u32;
                    let mut cnt = 0u32;
                    for dy in -1i32..=1 {
                        for dx in -1i32..=1 {
                            let (yy, xx) = (y as i32 + dy, x as i32 + dx);
                            if (0..TILE as i32).contains(&yy) && (0..TILE as i32).contains(&xx) {
                                sum += src[(yy as usize) * TILE + xx as usize] as u32;
                                cnt += 1;
                            }
                        }
                    }
                    dst[y * TILE + x] = (sum / cnt) as u8;
                }
            }
        },
    )));

    // scale: 2x bilinear downscale into the top-left quadrant layout
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
            let src = inp[0].instances[0];
            let dst = &mut out[0];
            let half = TILE / 2;
            for y in 0..half {
                for x in 0..half {
                    let a = src[(2 * y) * TILE + 2 * x] as u32;
                    let b = src[(2 * y) * TILE + 2 * x + 1] as u32;
                    let c = src[(2 * y + 1) * TILE + 2 * x] as u32;
                    let d = src[(2 * y + 1) * TILE + 2 * x + 1] as u32;
                    dst[y * half + x] = ((a + b + c + d) / 4) as u8;
                }
            }
        },
    )));

    // motion: SAD search of the current tile inside the tile two ahead
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
            let cur = inp[0].instances[0];
            let future = inp[0].instances.last().expect("window non-empty");
            let mut best = (0i8, 0i8, u32::MAX);
            for dy in -2i8..=2 {
                for dx in -2i8..=2 {
                    let mut sad = 0u32;
                    for y in (8..TILE - 8).step_by(8) {
                        for x in (8..TILE - 8).step_by(8) {
                            let yy = (y as i32 + dy as i32) as usize;
                            let xx = (x as i32 + dx as i32) as usize;
                            sad += (cur[y * TILE + x] as i32 - future[yy * TILE + xx] as i32)
                                .unsigned_abs();
                        }
                    }
                    if sad < best.2 {
                        best = (dx, dy, sad);
                    }
                }
            }
            let dst = &mut out[0];
            dst[0] = best.0 as u8;
            dst[1] = best.1 as u8;
            dst[2..6].copy_from_slice(&best.2.to_le_bytes());
        },
    )));

    // overlay: stamp the motion vector magnitude onto the scaled tile
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
            let scaled = inp[0].instances[0];
            let vectors = inp[1].instances[0];
            let dst = &mut out[0];
            let n = dst.len().min(scaled.len());
            dst[..n].copy_from_slice(&scaled[..n]);
            let mag = vectors[0].wrapping_add(vectors[1]);
            for b in dst.iter_mut().take(16) {
                *b = b.wrapping_add(mag);
            }
        },
    )));

    // encode: delta + run-length into a bounded buffer
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], _out: &mut [&mut [u8]]| {
            let src = inp[0].instances[0];
            let mut run = 0u32;
            let mut prev = 0u8;
            let mut bits = 0u64;
            for &b in src {
                if b == prev {
                    run += 1;
                } else {
                    bits += 8 + (32 - run.leading_zeros()) as u64;
                    run = 0;
                    prev = b;
                }
            }
            std::hint::black_box(bits);
        },
    )));

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_shape() {
        let g = graph().unwrap();
        assert_eq!(g.n_tasks(), 6);
        assert_eq!(g.n_edges(), 6);
        let motion = g.find("motion").unwrap();
        assert_eq!(g.task(motion).peek, 2);
        assert_eq!(g.sinks().count(), 1);
    }

    #[test]
    fn kernel_table_covers_graph() {
        assert_eq!(kernels().len(), graph().unwrap().n_tasks());
    }
}
