//! Packed-vs-scalar spiked-MVM microbenchmark.
//!
//! Times `Crossbar::mvm_spiked` (the bit-packed popcount datapath) against
//! `Crossbar::mvm_spiked_scalar` (the pinned per-slot boolean walk) on
//! Mnist-A-shaped layers — 785×100 and 101×10 crossbars, the fc1/fc2
//! weight arrays with the bias row folded in — at the functional path's
//! 8-bit input resolution. Both paths are exact by construction, so the
//! benchmark double-checks bitwise equality of every output before trusting
//! the clock, and exits non-zero if the packed path is not at least the
//! floor factor faster (5× full, 2.5× under `--smoke` where tiny workloads
//! make the clock noisy). The gated figure is the *network* speedup — total
//! scalar time over total packed time for one MVM per layer — because the
//! 101×10 output layer is too small for packing to amortize its fixed
//! per-call costs and would otherwise mask the win on the layer that
//! carries ~98% of the work. Per-layer rates are still reported, and full
//! runs record everything in `BENCH_mvm.json`.
//!
//! Single-threaded on purpose: the claim under test is the kernel's own
//! throughput, not batch-level parallelism.

use pipelayer_bench::{fmt_f, json_num, Table};
use pipelayer_nn::serialize::atomic_write;
use pipelayer_reram::Crossbar;
use std::path::Path;
use std::time::Instant;

/// Input resolution of the functional training paths (time slots per MVM).
const INPUT_BITS: u8 = 8;

/// Per-cell resolution of the Fig. 14 weight decomposition.
const CELL_BITS: u8 = 4;

/// Distinct input vectors cycled through while timing, so the measurement
/// is not a single-vector cache artifact.
const INPUT_POOL: usize = 32;

struct LayerArm {
    name: &'static str,
    rows: usize,
    cols: usize,
    packed_secs: f64,
    scalar_secs: f64,
    packed_mvms_per_sec: f64,
    scalar_mvms_per_sec: f64,
    speedup: f64,
}

/// SplitMix64 step — a tiny self-contained stream so the benchmark does not
/// depend on any RNG crate surface.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds a deterministically-programmed crossbar and an input pool for one
/// layer shape. Two independently-built crossbars with the same seed hold
/// identical levels, so the packed and scalar arms read the same array.
fn build(rows: usize, cols: usize, seed: u64) -> (Crossbar, Vec<Vec<u32>>) {
    let mut state = seed;
    let max_level = (1u64 << CELL_BITS) - 1;
    let levels: Vec<Vec<u8>> = (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| (splitmix(&mut state) % (max_level + 1)) as u8)
                .collect()
        })
        .collect();
    let mut xbar = Crossbar::new(rows, cols, CELL_BITS);
    xbar.program(&levels);
    let max_in = 1u64 << INPUT_BITS;
    let inputs: Vec<Vec<u32>> = (0..INPUT_POOL)
        .map(|_| {
            (0..rows)
                .map(|_| (splitmix(&mut state) % max_in) as u32)
                .collect()
        })
        .collect();
    (xbar, inputs)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, floor) = if smoke { (24usize, 2.5f64) } else { (400, 5.0) };

    // fc1/fc2 of Table 3's Mnist-A (784-100-10), bias row folded in.
    let layers: [(&str, usize, usize, u64); 2] = [
        ("mnist_a fc1", 785, 100, 0xA11CE),
        ("mnist_a fc2", 101, 10, 0xB0B5),
    ];

    println!(
        "spiked-MVM throughput — packed popcount vs scalar slot walk, {INPUT_BITS}-bit inputs, {reps} reps{}",
        if smoke { " [smoke]" } else { "" }
    );

    let mut arms: Vec<LayerArm> = Vec::new();
    let mut all_identical = true;
    for &(name, rows, cols, seed) in &layers {
        let (mut packed_xbar, inputs) = build(rows, cols, seed);
        let (mut scalar_xbar, _) = build(rows, cols, seed);

        // Correctness gate before trusting the clock: every pooled input
        // must produce bitwise-identical outputs on both paths.
        for x in &inputs {
            let p = packed_xbar.mvm_spiked(x, INPUT_BITS);
            let s = scalar_xbar.mvm_spiked_scalar(x, INPUT_BITS);
            if p != s {
                all_identical = false;
                eprintln!("CORRECTNESS FAILURE: {name} packed != scalar");
                break;
            }
        }

        // Warmup already happened above (plane cache is hot, pages faulted).
        let t0 = Instant::now();
        let mut sink = 0u64;
        for i in 0..reps {
            let y = packed_xbar.mvm_spiked(&inputs[i % INPUT_POOL], INPUT_BITS);
            sink = sink.wrapping_add(y[0]);
        }
        let packed_secs = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for i in 0..reps {
            let y = scalar_xbar.mvm_spiked_scalar(&inputs[i % INPUT_POOL], INPUT_BITS);
            sink = sink.wrapping_add(y[0]);
        }
        let scalar_secs = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);

        let packed_rate = reps as f64 / packed_secs;
        let scalar_rate = reps as f64 / scalar_secs;
        arms.push(LayerArm {
            name,
            rows,
            cols,
            packed_secs,
            scalar_secs,
            packed_mvms_per_sec: packed_rate,
            scalar_mvms_per_sec: scalar_rate,
            speedup: packed_rate / scalar_rate,
        });
    }

    let mut table = Table::new(
        "Spiked-MVM throughput (single thread)".to_string(),
        &["layer", "shape", "packed MVM/s", "scalar MVM/s", "speedup"],
    );
    for arm in &arms {
        table.row(vec![
            arm.name.to_string(),
            format!("{}x{}", arm.rows, arm.cols),
            fmt_f(arm.packed_mvms_per_sec, 1),
            fmt_f(arm.scalar_mvms_per_sec, 1),
            format!("{}x", fmt_f(arm.speedup, 2)),
        ]);
    }
    table.print();

    // Network speedup: one MVM per layer (a full forward pass). Equal rep
    // counts per layer make the timed totals directly comparable.
    let scalar_total: f64 = arms.iter().map(|a| a.scalar_secs).sum();
    let packed_total: f64 = arms.iter().map(|a| a.packed_secs).sum();
    let network_speedup = scalar_total / packed_total;

    if !smoke {
        // Hand-written JSON (no serde in the workspace).
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"mvm\",\n");
        json.push_str("  \"mode\": \"full\",\n");
        json.push_str(&format!("  \"input_bits\": {INPUT_BITS},\n"));
        json.push_str(&format!("  \"cell_bits\": {CELL_BITS},\n"));
        json.push_str(&format!("  \"reps\": {reps},\n"));
        json.push_str(&format!(
            "  \"outputs_bitwise_identical\": {all_identical},\n"
        ));
        json.push_str(&format!(
            "  \"network_speedup\": {},\n",
            json_num(network_speedup)
        ));
        json.push_str(&format!("  \"speedup_floor\": {floor},\n"));
        json.push_str("  \"layers\": [\n");
        for (i, arm) in arms.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"layer\": \"{}\", \"rows\": {}, \"cols\": {}, \"packed_mvms_per_sec\": {}, \"scalar_mvms_per_sec\": {}, \"speedup\": {}}}{}\n",
                arm.name,
                arm.rows,
                arm.cols,
                json_num(arm.packed_mvms_per_sec),
                json_num(arm.scalar_mvms_per_sec),
                json_num(arm.speedup),
                if i + 1 < arms.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        if let Err(e) = atomic_write(Path::new("BENCH_mvm.json"), json.as_bytes()) {
            eprintln!("failed to write BENCH_mvm.json: {e}");
            std::process::exit(1);
        }
        println!("\nwrote BENCH_mvm.json");
    }

    if !all_identical {
        eprintln!("packed datapath diverged from the scalar reference — failing");
        std::process::exit(1);
    }
    if network_speedup < floor {
        eprintln!(
            "packed network speedup {network_speedup:.2}x below the {floor}x floor — failing"
        );
        std::process::exit(1);
    }
    println!(
        "packed outputs bitwise identical to scalar; network speedup {:.2}x (floor {floor}x)",
        network_speedup
    );
}
