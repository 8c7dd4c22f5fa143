//! Real-time stream-encryption pipeline (the paper's introduction cites
//! "real time data encryption applications" as a streaming domain).
//!
//! One instance = one 1 KiB plaintext block:
//!
//! ```text
//! chunker ─┬─> lane0 (ChaCha20) ─┬─> tagger (checksum) ─> framer
//!          ├─> lane1             ┤
//!          ├─> lane2             ┤
//!          └─> lane3             ┘
//! ```
//!
//! The ChaCha20 block function is implemented for real and pinned by the
//! RFC 7539 §2.3.2 test vector; the tag is a simple folding checksum
//! (stand-in for Poly1305, which would add nothing to the scheduling
//! problem).

use cellstream_graph::{GraphError, StreamGraph, TaskSpec};
use cellstream_rt::{ClosureKernel, Kernel, KernelCtx, Window};
use std::sync::Arc;

/// Plaintext bytes per instance.
pub const BLOCK_BYTES: usize = 1024;
/// Encryption lanes.
pub const LANES: usize = 4;

/// The ChaCha20 quarter round.
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The ChaCha20 block function (RFC 7539 §2.3): 20 rounds over the state
/// built from `key`, `counter` and `nonce`; returns the 64-byte keystream
/// block.
fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    }
    let mut work = state;
    for _ in 0..10 {
        quarter(&mut work, 0, 4, 8, 12);
        quarter(&mut work, 1, 5, 9, 13);
        quarter(&mut work, 2, 6, 10, 14);
        quarter(&mut work, 3, 7, 11, 15);
        quarter(&mut work, 0, 5, 10, 15);
        quarter(&mut work, 1, 6, 11, 12);
        quarter(&mut work, 2, 7, 8, 13);
        quarter(&mut work, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let v = work[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encrypt (= XOR with keystream) a buffer whose keystream starts at
/// block `counter0`.
pub fn chacha20_xor(key: &[u8; 32], nonce: &[u8; 12], counter0: u32, data: &mut [u8]) {
    for (bi, chunk) in data.chunks_mut(64).enumerate() {
        let ks = chacha20_block(key, counter0 + bi as u32, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// Build the pipeline graph.
pub fn graph() -> Result<StreamGraph, GraphError> {
    let lane_bytes = (BLOCK_BYTES / LANES) as f64;
    let mut b = StreamGraph::builder("cipher-pipeline");
    let chunker = b.add_task(
        TaskSpec::new("chunker").ppe_cost(0.5e-6).spe_cost(0.7e-6).reads(BLOCK_BYTES as f64),
    );
    let lanes: Vec<_> = (0..LANES)
        .map(|i| {
            b.add_task(
                // ALU-heavy rounds: SPEs shine
                TaskSpec::new(format!("lane{i}")).ppe_cost(3.2e-6).spe_cost(1.1e-6),
            )
        })
        .collect();
    let tagger = b.add_task(TaskSpec::new("tagger").ppe_cost(0.9e-6).spe_cost(0.8e-6).stateful());
    let framer = b.add_task(
        TaskSpec::new("framer").ppe_cost(0.6e-6).spe_cost(1.0e-6).writes(BLOCK_BYTES as f64),
    );
    for &l in &lanes {
        b.add_edge(chunker, l, lane_bytes)?;
        b.add_edge(l, tagger, lane_bytes)?;
    }
    b.add_edge(tagger, framer, 16.0)?;
    b.build()
}

/// Kernels in [`graph`] task order. `key`/`nonce` parameterise the
/// pipeline; lane `i` encrypts the `i`-th quarter of each block.
pub fn kernels(key: [u8; 32], nonce: [u8; 12]) -> Vec<Arc<dyn Kernel>> {
    let lane_len = BLOCK_BYTES / LANES;
    let mut v: Vec<Arc<dyn Kernel>> = Vec::new();

    // chunker: deterministic plaintext per instance
    v.push(Arc::new(ClosureKernel(
        move |ctx: &KernelCtx<'_>, _in: &[Window<'_>], out: &mut [&mut [u8]]| {
            for (lane, slot) in out.iter_mut().enumerate() {
                for (i, b) in slot.iter_mut().enumerate() {
                    *b = (ctx.instance as u8)
                        .wrapping_mul(31)
                        .wrapping_add((lane * lane_len + i) as u8);
                }
            }
        },
    )));

    // lanes: real ChaCha20 with per-lane counter spacing
    let blocks_per_lane = lane_len.div_ceil(64) as u32;
    for lane in 0..LANES {
        v.push(Arc::new(ClosureKernel(
            move |ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
                let mut buf = inp[0].instances[0].to_vec();
                let counter0 = (ctx.instance as u32)
                    .wrapping_mul(LANES as u32 * blocks_per_lane)
                    .wrapping_add(lane as u32 * blocks_per_lane);
                chacha20_xor(&key, &nonce, counter0, &mut buf);
                out[0].copy_from_slice(&buf);
            },
        )));
    }

    // tagger: fold all lanes into a 16-byte tag
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], out: &mut [&mut [u8]]| {
            let mut tag = [0u8; 16];
            for w in inp {
                for (i, &b) in w.instances[0].iter().enumerate() {
                    tag[i % 16] = tag[i % 16].wrapping_add(b).rotate_left(3);
                }
            }
            out[0].copy_from_slice(&tag);
        },
    )));

    // framer: consume the tag
    v.push(Arc::new(ClosureKernel(
        |_ctx: &KernelCtx<'_>, inp: &[Window<'_>], _out: &mut [&mut [u8]]| {
            std::hint::black_box(inp[0].instances[0][0]);
        },
    )));

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc7539_block_vector() {
        // RFC 7539 §2.3.2 test vector
        let key: [u8; 32] = (0..32u8).collect::<Vec<_>>().try_into().unwrap();
        let nonce: [u8; 12] =
            [0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00];
        let block = chacha20_block(&key, 1, &nonce);
        let expected_start = [0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15];
        assert_eq!(&block[..8], &expected_start);
        let expected_end = [0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e];
        assert_eq!(&block[56..], &expected_end);
    }

    #[test]
    fn xor_round_trips() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let mut data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let orig = data.clone();
        chacha20_xor(&key, &nonce, 5, &mut data);
        assert_ne!(data, orig, "encryption must change the data");
        chacha20_xor(&key, &nonce, 5, &mut data);
        assert_eq!(data, orig, "decrypt(encrypt(x)) == x");
    }

    #[test]
    fn graph_shape() {
        let g = graph().unwrap();
        assert_eq!(g.n_tasks(), 2 + LANES + 1);
        assert_eq!(g.n_edges(), 2 * LANES + 1);
        assert_eq!(g.sources().count(), 1);
        assert_eq!(g.sinks().count(), 1);
    }

    #[test]
    fn kernel_table_covers_graph() {
        let g = graph().unwrap();
        assert_eq!(kernels([0; 32], [0; 12]).len(), g.n_tasks());
    }
}
