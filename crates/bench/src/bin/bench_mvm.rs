//! GEMM-vs-scalar spiked-MVM microbenchmark.
//!
//! Times `Crossbar::mvm_spiked` (the integer-GEMM datapath) against
//! `Crossbar::mvm_spiked_scalar` (the pinned per-slot boolean walk) at the
//! functional path's 8-bit input resolution, in two arms:
//!
//! * **ideal** — Mnist-A-shaped layers, 785×100 and 101×10 crossbars (the
//!   fc1/fc2 weight arrays with the bias row folded in), with no device
//!   model: the GEMM over the stored levels.
//! * **noisy** — the `campaign-noisy-aging` device (drift ν 0.2, σ 0.15,
//!   t0 10k, aged 100k cycles, plus `NoiseModel::with_strength(0.25)`) on
//!   49×16 and 785×100 crossbars, with a write every
//!   [`READS_PER_WRITE`] reads: the staged read path (cached
//!   read-invariant stage, read noise drawn only where it can move a
//!   level) against the scalar walk, which resolves every cell on every
//!   read.
//!
//! Both paths are exact by construction, so the benchmark double-checks
//! bitwise equality of every output before trusting the clock (the noisy
//! arm over consecutive reads with a write between them), and exits
//! non-zero if an arm is not at least its floor factor faster (halved
//! under `--smoke`, where tiny workloads make the clock noisy). The gated
//! figure is each arm's *network* speedup — total scalar time over total
//! GEMM time for the same reads on every layer — because a small layer is
//! too small to amortize the fixed per-call costs and would otherwise
//! mask the win on the layer that carries most of the work.
//!
//! A shared host's load drifts over seconds, so one timing of each path
//! says little about another commit's. Every layer is timed over
//! [`REPEATS`] interleaved repeats instead — each repeat times every
//! layer of both arms, the GEMM and the scalar walk back to back, and
//! alternates which of the two goes first — and the gate and the report
//! take medians over the repeats. Full runs record each rate, speedup
//! and network speedup as its median and quartiles in `BENCH_mvm.json`.
//!
//! Single-threaded on purpose: the claim under test is the kernel's own
//! throughput, not batch-level parallelism. The printout and the JSON
//! record the kernel arm the GEMM ran on (`pipelayer_reram::kernel_arm`:
//! `"avx2"` or `"portable"`) and the host's core count.

use pipelayer_bench::{fmt_f, json_num, quartiles, Table};
use pipelayer_nn::serialize::atomic_write;
use pipelayer_reram::{Crossbar, DeviceModel, DriftModel, NoiseModel};
use std::path::Path;
use std::time::Instant;

/// Input resolution of the functional training paths (time slots per MVM).
const INPUT_BITS: u8 = 8;

/// Per-cell resolution of the Fig. 14 weight decomposition.
const CELL_BITS: u8 = 4;

/// Distinct input vectors cycled through while timing, so the measurement
/// is not a single-vector cache artifact.
const INPUT_POOL: usize = 32;

/// Interleaved timing repeats of every layer, full run and `--smoke`.
const REPEATS: (usize, usize) = (9, 3);

/// Reads per crossbar between two writes in the noisy arm: one training
/// batch of 10 images, each driving a positive and a negative phase.
const READS_PER_WRITE: usize = 20;

/// Logical cycles the noisy arm's arrays age before they are read.
const AGE_CYCLES: u64 = 100_000;

/// One benchmarked configuration: its layers and its full-run floor.
struct ArmSpec {
    name: &'static str,
    /// The device model, `None` for ideal arrays. Arms with a device
    /// model interleave writes with their reads, as training does, so the
    /// staged path pays its restage; the ideal arm times reads alone.
    device: Option<DeviceModel>,
    /// `(layer, rows, cols, seed)`.
    layers: [(&'static str, usize, usize, u64); 2],
    floor: f64,
}

/// One layer's two crossbars, its inputs and its timings, one entry per
/// repeat.
struct LayerArm {
    name: &'static str,
    rows: usize,
    cols: usize,
    writes: bool,
    gemm: Crossbar,
    scalar: Crossbar,
    levels: [Vec<u8>; 2],
    inputs: Vec<Vec<u32>>,
    gemm_secs: Vec<f64>,
    scalar_secs: Vec<f64>,
}

/// `reps` reads in `secs` host seconds, as reads per second.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn per_sec(reps: usize, secs: f64) -> f64 {
    reps as f64 / secs
}

/// A sample's `(q1, median, q3)` as a JSON object.
fn json_quartiles(values: &[f64]) -> String {
    let (q1, median, q3) = quartiles(values);
    format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}}}",
        json_num(median),
        json_num(q1),
        json_num(q3)
    )
}

impl LayerArm {
    fn gemm_rates(&self, reps: usize) -> Vec<f64> {
        self.gemm_secs.iter().map(|&s| per_sec(reps, s)).collect()
    }

    fn scalar_rates(&self, reps: usize) -> Vec<f64> {
        self.scalar_secs.iter().map(|&s| per_sec(reps, s)).collect()
    }

    /// The scalar walk's time over the GEMM's, per repeat.
    fn speedups(&self) -> Vec<f64> {
        let pairs = self.scalar_secs.iter().zip(&self.gemm_secs);
        pairs.map(|(s, g)| s / g).collect()
    }

    /// Times `reps` reads on both paths, the GEMM first or second.
    fn time_repeat(&mut self, reps: usize, gemm_first: bool) {
        let (writes, levels, inputs) = (self.writes, &self.levels, &self.inputs);
        let time_path = |xbar: &mut Crossbar, mvm: fn(&mut Crossbar, &[u32], u8) -> Vec<u64>| {
            let mut sink = 0u64;
            let secs = time(|| sink = read_loop(xbar, levels, inputs, reps, writes, mvm));
            std::hint::black_box(sink);
            secs
        };
        let (gemm, scalar) = if gemm_first {
            let gemm = time_path(&mut self.gemm, Crossbar::mvm_spiked);
            (
                gemm,
                time_path(&mut self.scalar, Crossbar::mvm_spiked_scalar),
            )
        } else {
            let scalar = time_path(&mut self.scalar, Crossbar::mvm_spiked_scalar);
            (time_path(&mut self.gemm, Crossbar::mvm_spiked), scalar)
        };
        self.gemm_secs.push(gemm);
        self.scalar_secs.push(scalar);
    }
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

/// A deterministically-programmed crossbar for one layer shape, the two
/// level buffers its writes alternate between, and an input pool. Two
/// crossbars built with the same seed hold identical levels and device
/// state, so the GEMM and scalar runs read the same array.
#[expect(clippy::cast_possible_truncation, reason = "reduced modulo the range")]
fn build(
    rows: usize,
    cols: usize,
    seed: u64,
    device: Option<&DeviceModel>,
) -> (Crossbar, [Vec<u8>; 2], Vec<Vec<u32>>) {
    let mut state = seed;
    let max_level = (1u64 << CELL_BITS) - 1;
    let mut level = || (splitmix(&mut state) % (max_level + 1)) as u8;
    let levels: Vec<u8> = (0..rows * cols).map(|_| level()).collect();
    // The rewrite moves every fourth cell, as a sparse weight update would.
    let rewrite: Vec<u8> = levels
        .iter()
        .enumerate()
        .map(|(i, &l)| if i % 4 == 0 { level() } else { l })
        .collect();
    let mut xbar = Crossbar::new(rows, cols, CELL_BITS);
    xbar.program(&levels);
    if let Some(device) = device {
        xbar.attach(device, seed);
        xbar.advance_cycles(AGE_CYCLES);
    }
    let max_in = 1u64 << INPUT_BITS;
    let inputs: Vec<Vec<u32>> = (0..INPUT_POOL)
        .map(|_| {
            (0..rows)
                .map(|_| (splitmix(&mut state) % max_in) as u32)
                .collect()
        })
        .collect();
    (xbar, [levels, rewrite], inputs)
}

/// Host seconds `f` takes.
#[expect(clippy::disallowed_methods, reason = "timing is this bench's output")]
fn time(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Runs `reps` reads of `mvm` over the input pool, writing the next level
/// buffer before every [`READS_PER_WRITE`]th read when `writes` is set.
/// Returns a checksum of the outputs.
fn read_loop(
    xbar: &mut Crossbar,
    levels: &[Vec<u8>; 2],
    inputs: &[Vec<u32>],
    reps: usize,
    writes: bool,
    mvm: fn(&mut Crossbar, &[u32], u8) -> Vec<u64>,
) -> u64 {
    let mut sink = 0u64;
    for i in 0..reps {
        if writes && i % READS_PER_WRITE == 0 {
            xbar.program(&levels[(i / READS_PER_WRITE + 1) % 2]);
        }
        let y = mvm(xbar, &inputs[i % INPUT_POOL], INPUT_BITS);
        sink = sink.wrapping_add(y[0]);
    }
    sink
}

/// Builds one layer of `spec` on both paths. Returns `None` when the
/// GEMM path diverges from the scalar walk.
fn build_layer(
    spec: &ArmSpec,
    (name, rows, cols, seed): (&'static str, usize, usize, u64),
) -> Option<LayerArm> {
    let device = spec.device.as_ref();
    let writes = device.is_some();
    let (mut gemm, levels, inputs) = build(rows, cols, seed, device);
    let (mut scalar, _, _) = build(rows, cols, seed, device);

    // Correctness gate before trusting the clock: every pooled input, with
    // a write halfway through on the noisy arm, must produce
    // bitwise-identical outputs on both paths.
    for (i, x) in inputs.iter().enumerate() {
        if writes && i == INPUT_POOL / 2 {
            gemm.program(&levels[1]);
            scalar.program(&levels[1]);
        }
        if gemm.mvm_spiked(x, INPUT_BITS) != scalar.mvm_spiked_scalar(x, INPUT_BITS) {
            eprintln!("CORRECTNESS FAILURE: {} {name} gemm != scalar", spec.name);
            return None;
        }
    }
    // Warmup already happened above (levels are hot, pages faulted).
    Some(LayerArm {
        name,
        rows,
        cols,
        writes,
        gemm,
        scalar,
        levels,
        inputs,
        gemm_secs: Vec::new(),
        scalar_secs: Vec::new(),
    })
}

/// The network speedup of each repeat: every layer's scalar time over
/// every layer's GEMM time. Equal rep counts per layer make the timed
/// totals directly comparable.
fn network_speedups(arms: &[LayerArm]) -> Vec<f64> {
    let repeats = arms.first().map_or(0, |a| a.gemm_secs.len());
    (0..repeats)
        .map(|i| {
            let scalar: f64 = arms.iter().map(|a| a.scalar_secs[i]).sum();
            let gemm: f64 = arms.iter().map(|a| a.gemm_secs[i]).sum();
            scalar / gemm
        })
        .collect()
}

/// One arm's `BENCH_mvm.json` fields — network speedup, floor and the
/// per-layer rates, each as median and quartiles over the repeats — each
/// line indented by `pad`.
fn arm_json(arms: &[LayerArm], reps: usize, floor: f64, pad: &str) -> String {
    let layers: Vec<String> = arms
        .iter()
        .map(|arm| {
            format!(
                "{pad}  {{\"layer\": \"{}\", \"rows\": {}, \"cols\": {}, \"gemm_mvms_per_sec\": {}, \"scalar_mvms_per_sec\": {}, \"speedup\": {}}}",
                arm.name,
                arm.rows,
                arm.cols,
                json_quartiles(&arm.gemm_rates(reps)),
                json_quartiles(&arm.scalar_rates(reps)),
                json_quartiles(&arm.speedups()),
            )
        })
        .collect();
    format!(
        "{pad}\"network_speedup\": {},\n{pad}\"speedup_floor\": {floor},\n{pad}\"layers\": [\n{}\n{pad}]",
        json_quartiles(&network_speedups(arms)),
        layers.join(",\n")
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, repeats, floor_scale) = if smoke {
        (24usize, REPEATS.1, 0.5f64)
    } else {
        (100, REPEATS.0, 1.0)
    };

    let campaign = DeviceModel::ideal()
        .with_drift(DriftModel {
            nu: 0.2,
            nu_sigma: 0.15,
            t0_cycles: 10_000,
            disturb_per_level: 0,
        })
        .with_noise(NoiseModel::with_strength(0.25));
    let specs = [
        // fc1/fc2 of Table 3's Mnist-A (784-100-10), bias row folded in.
        ArmSpec {
            name: "ideal",
            device: None,
            layers: [
                ("mnist_a fc1", 785, 100, 0xA11CE),
                ("mnist_a fc2", 101, 10, 0xB0B5),
            ],
            floor: 5.0,
        },
        ArmSpec {
            name: "noisy",
            device: Some(campaign),
            layers: [
                ("campaign fc1", 49, 16, 0xC0FFEE),
                ("mnist_a fc1", 785, 100, 0xA11CE),
            ],
            floor: 8.0,
        },
    ];

    // What produced the numbers: the kernel arm the GEMM took and the
    // host's core count.
    let kernel_arm = pipelayer_reram::kernel_arm();
    let host_nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "spiked-MVM throughput — integer GEMM vs scalar slot walk, {INPUT_BITS}-bit inputs, {reps} reps x {repeats} interleaved repeats{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!("kernel arm {kernel_arm}, host cores {host_nproc}");

    let mut all_identical = true;
    let mut arms: Vec<Vec<LayerArm>> = specs
        .iter()
        .map(|spec| {
            let built = spec.layers.iter().map(|&layer| build_layer(spec, layer));
            let layers: Vec<LayerArm> = built.flatten().collect();
            all_identical &= layers.len() == spec.layers.len();
            layers
        })
        .collect();
    for repeat in 0..repeats {
        for layer in arms.iter_mut().flatten() {
            layer.time_repeat(reps, repeat % 2 == 0);
        }
    }

    let mut failed = false;
    let mut sections: Vec<String> = Vec::new();
    for (spec, arms) in specs.iter().zip(&arms) {
        let mut table = Table::new(
            format!(
                "Spiked-MVM throughput, {} arrays (single thread, medians of {repeats} repeats)",
                spec.name
            ),
            &["layer", "shape", "GEMM MVM/s", "scalar MVM/s", "speedup"],
        );
        for arm in arms {
            let median = |v: &[f64]| quartiles(v).1;
            table.row(vec![
                arm.name.to_string(),
                format!("{}x{}", arm.rows, arm.cols),
                fmt_f(median(&arm.gemm_rates(reps)), 1),
                fmt_f(median(&arm.scalar_rates(reps)), 1),
                format!("{}x", fmt_f(median(&arm.speedups()), 2)),
            ]);
        }
        table.print();

        let network_speedup = quartiles(&network_speedups(arms)).1;
        let floor = spec.floor * floor_scale;
        if network_speedup.is_nan() || network_speedup < floor {
            eprintln!(
                "{} GEMM network speedup {network_speedup:.2}x below the {floor}x floor — failing",
                spec.name
            );
            failed = true;
        } else {
            println!(
                "{} network speedup {network_speedup:.2}x (median; floor {floor}x)",
                spec.name
            );
        }
        let pad = if spec.device.is_some() { "    " } else { "  " };
        sections.push(arm_json(arms, reps, floor, pad));
    }

    if !smoke {
        // Hand-written JSON (no serde in the workspace). The ideal arm
        // keeps the top-level keys; the noisy arm is its own object.
        let json = format!(
            "{{\n  \"bench\": \"mvm\",\n  \"mode\": \"full\",\n  \"kernel_arm\": \"{kernel_arm}\",\n  \"host_nproc\": {host_nproc},\n  \"input_bits\": {INPUT_BITS},\n  \"cell_bits\": {CELL_BITS},\n  \"reps\": {reps},\n  \"repeats\": {repeats},\n  \"outputs_bitwise_identical\": {all_identical},\n{},\n  \"noisy\": {{\n    \"device\": \"drift nu 0.2, nu_sigma 0.15, t0 10000 cycles, aged {AGE_CYCLES} cycles; NoiseModel::with_strength(0.25)\",\n    \"reads_per_write\": {READS_PER_WRITE},\n{}\n  }}\n}}\n",
            sections[0], sections[1],
        );
        if let Err(e) = atomic_write(Path::new("BENCH_mvm.json"), json.as_bytes()) {
            eprintln!("failed to write BENCH_mvm.json: {e}");
            std::process::exit(1);
        }
        println!("\nwrote BENCH_mvm.json");
    }

    if !all_identical {
        eprintln!("GEMM datapath diverged from the scalar reference — failing");
        std::process::exit(1);
    }
    if failed {
        std::process::exit(1);
    }
    println!("GEMM outputs bitwise identical to scalar on every arm");
}
