//! Ablation — runtime wear-out: endurance grade × repair policy.
//!
//! Trains the Mnist-A-class functional ReRAM MLP under the seeded
//! per-cell write-budget wear model and sweeps two axes:
//!
//! * **Endurance grade** — the lognormal median write budget, from a
//!   storage-class grade that exhausts cells *during* the run to a
//!   research grade that never does.
//! * **Repair policy** — `off` (cells die silently on the legacy update
//!   path: no verify, no spares), `immediate` (first verify failure
//!   spends a spare, and with spares gone every failing column is
//!   masked — the amputation-happy strawman), and `laddered` (retry →
//!   backoff → remap, masking only columns whose damage crosses the
//!   quarantine threshold).
//!
//! Two no-wear baselines anchor the comparison: the plain datapath (the
//! fair reference for the `off` arms) and the verify + spare stack with
//! wear detached (the fair reference for the repair arms). The binary is
//! a CI gate (exit 1) on the headline robustness claims: at the
//! storage grade the unrepaired arm must lose ≥ 10 accuracy points to
//! the laddered arm, and every laddered arm that still holds spare
//! columns must sit within 2 points of its no-wear baseline.
//!
//! A full run writes `BENCH_wearout.json`. `--smoke` shrinks the run for CI
//! and writes no file.

use pipelayer::functional::{downsample, ReramMlp};
use pipelayer::{RepairPolicy, SpareBudget};
use pipelayer_bench::{fmt_f, json_num, train_epochs, Table};
use pipelayer_nn::data::SyntheticMnist;
use pipelayer_nn::metrics::DegradationReport;
use pipelayer_nn::serialize::atomic_write;
use pipelayer_reram::{DeviceModel, ReramParams, VerifyPolicy, WearModel};
use pipelayer_tensor::Tensor;
use std::path::Path;

const DIMS: [usize; 3] = [49, 16, 10];
const SEED: u64 = 5;
const LR: f32 = 0.3;

/// One trained arm's outcome, with the repair book-keeping captured at
/// the moment accuracy was measured.
struct Arm {
    policy: &'static str,
    report: DegradationReport,
    dead_cells: usize,
    spares_used: usize,
    program_spikes: u64,
}

/// One endurance grade's row of the sweep.
struct Grade {
    name: &'static str,
    median_writes: f64,
    sigma: f64,
    arms: Vec<Arm>,
}

/// The verify + spare-budget stack shared by every repair-on arm under
/// `wear` and the escalation `policy`. The campaign provisions 8 spare bit
/// lines per matrix (double the macro-typical 4): a device expected to
/// *survive* storage-class endurance buys the redundancy for it, and the
/// `mapcheck` PL024 feasibility warning is exactly the tool that tells a
/// designer the typical budget is short.
fn repair_stack(wear: WearModel, policy: RepairPolicy) -> ReramMlp {
    ReramMlp::builder(&DIMS, &ReramParams::default(), SEED)
        .device(DeviceModel::ideal().with_wear(wear))
        .fault_tolerance(VerifyPolicy::with_attempts(2), SpareBudget::with_cols(8))
        .repair_policy(policy)
        .build()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n_train, n_test, epochs) = (120, 80, 8);
    // `storage` exhausts cells mid-run, `foundry` loses a first wave late
    // enough for the spare budget to absorb it, `research` never sees a
    // death. σ = 0.2 is a tight production spread — deaths arrive in
    // waves ordered by cell activity rather than as a trickle. The task
    // is small enough that smoke mode only drops the middle grade, so the
    // gated storage numbers are identical in both modes.
    let grades: &[(&'static str, f64, f64)] = if smoke {
        &[("storage", 200.0, 0.2), ("research", 1e9, 0.2)]
    } else {
        &[
            ("storage", 200.0, 0.2),
            ("foundry", 800.0, 0.2),
            ("research", 1e9, 0.2),
        ]
    };

    let data = SyntheticMnist::generate(n_train, n_test, 77);
    let tr: Vec<Tensor> = data.train.images.iter().map(|t| downsample(t, 4)).collect();
    let te: Vec<Tensor> = data.test.images.iter().map(|t| downsample(t, 4)).collect();
    let (trl, tel) = (&data.train.labels, &data.test.labels);

    // ---- No-wear baselines, one per datapath flavour.
    let mut plain = ReramMlp::new(&DIMS, &ReramParams::default(), SEED);
    train_epochs(&mut plain, &tr, trl, epochs, LR);
    let base_plain = plain.accuracy(&te, tel);
    let mut stack = repair_stack(WearModel::ideal(), RepairPolicy::default());
    train_epochs(&mut stack, &tr, trl, epochs, LR);
    let base_verify = stack.accuracy(&te, tel);
    println!(
        "wear-out campaign — {n_train} train / {n_test} test, {epochs} epochs{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "no-wear baselines: plain {} / verify+spares {}",
        fmt_f(f64::from(base_plain), 3),
        fmt_f(f64::from(base_verify), 3)
    );

    // ---- The sweep: endurance grade × repair policy.
    let mut results: Vec<Grade> = Vec::new();
    for &(name, median_writes, sigma) in grades {
        let wear = WearModel {
            median_writes,
            sigma,
        };
        let mut arms = Vec::new();

        // Repair off: the legacy update path still books wear pulses, so
        // cells die silently — no verify read ever notices.
        let mut off = ReramMlp::builder(&DIMS, &ReramParams::default(), SEED)
            .device(DeviceModel::ideal().with_wear(wear))
            .build();
        train_epochs(&mut off, &tr, trl, epochs, LR);
        arms.push(Arm {
            policy: "off",
            report: DegradationReport::new(base_plain, off.accuracy(&te, tel)),
            dead_cells: off.wear_exhausted_cells(),
            spares_used: 0,
            program_spikes: off.write_spikes(),
        });

        for (policy_name, policy) in [
            ("immediate", RepairPolicy::immediate()),
            ("laddered", RepairPolicy::laddered()),
        ] {
            let mut arm = repair_stack(wear, policy);
            train_epochs(&mut arm, &tr, trl, epochs, LR);
            arms.push(Arm {
                policy: policy_name,
                report: DegradationReport::new(base_verify, arm.accuracy(&te, tel))
                    .with_repair_state(arm.spares_left(), arm.masked_units()),
                dead_cells: arm.wear_exhausted_cells(),
                spares_used: arm.spares_used(),
                program_spikes: arm.write_spikes(),
            });
        }
        results.push(Grade {
            name,
            median_writes,
            sigma,
            arms,
        });
    }

    let mut table = Table::new(
        "Ablation: accuracy under wear-out vs repair policy",
        &[
            "grade",
            "median writes",
            "repair",
            "accuracy",
            "Δ vs baseline (pts)",
            "dead cells",
            "spares used/left",
            "masked cols",
        ],
    );
    for grade in &results {
        for arm in &grade.arms {
            table.row(vec![
                grade.name.to_string(),
                fmt_f(grade.median_writes, 0),
                arm.policy.to_string(),
                fmt_f(f64::from(arm.report.degraded), 3),
                fmt_f(-f64::from(arm.report.drop_points()), 1),
                arm.dead_cells.to_string(),
                format!("{}/{}", arm.spares_used, arm.report.spares_left),
                arm.report.masked_units.to_string(),
            ]);
        }
    }
    table.print();

    // ---- Gates: the headline robustness claims, CI-enforced.
    let mut pass = true;
    let storage = &results[0];
    let acc_off = storage.arms[0].report.degraded;
    let ladder = storage
        .arms
        .iter()
        .find(|a| a.policy == "laddered")
        .map_or(acc_off, |a| a.report.degraded);
    let gap_points = f64::from(ladder - acc_off) * 100.0;
    if gap_points < 10.0 {
        eprintln!(
            "GATE: storage-grade repair must be worth >= 10 accuracy points \
             over no repair, got {}",
            fmt_f(gap_points, 1)
        );
        pass = false;
    }
    let mut worst_repaired_drop_points = f64::NEG_INFINITY;
    for grade in &results {
        for arm in grade.arms.iter().filter(|a| a.policy == "laddered") {
            if arm.report.spares_left == 0 {
                println!(
                    "{}: spares exhausted — graceful degradation, 2-point gate waived",
                    grade.name
                );
                continue;
            }
            worst_repaired_drop_points =
                worst_repaired_drop_points.max(f64::from(arm.report.drop_points()));
            if !arm.report.within(2.0) {
                eprintln!(
                    "GATE: {} laddered arm still holds {} spares but dropped {} points",
                    grade.name,
                    arm.report.spares_left,
                    fmt_f(f64::from(arm.report.drop_points()), 1)
                );
                pass = false;
            }
        }
    }
    println!(
        "storage-grade repair gap {} points; worst gated laddered drop {} points",
        fmt_f(gap_points, 1),
        if worst_repaired_drop_points.is_finite() {
            fmt_f(worst_repaired_drop_points, 1)
        } else {
            "n/a".to_string()
        }
    );

    // ---- JSON artifact (full mode only: smoke runs leave the committed
    // file alone).
    if !smoke {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"wearout\",\n");
        json.push_str("  \"mode\": \"full\",\n");
        json.push_str(&format!(
            "  \"task\": {{\"train_images\": {n_train}, \"test_images\": {n_test}, \"epochs\": {epochs}}},\n"
        ));
        json.push_str(&format!(
            "  \"baseline\": {{\"plain_accuracy\": {}, \"verify_accuracy\": {}}},\n",
            json_num(f64::from(base_plain)),
            json_num(f64::from(base_verify))
        ));
        json.push_str("  \"grades\": [\n");
        for (gi, grade) in results.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"grade\": \"{}\", \"endurance_median_writes\": {}, \"sigma_ln_writes\": {}, \"arms\": [\n",
                grade.name,
                json_num(grade.median_writes),
                json_num(grade.sigma)
            ));
            for (ai, arm) in grade.arms.iter().enumerate() {
                json.push_str(&format!(
                    "      {{\"repair_policy\": \"{}\", \"accuracy\": {}, \"drop_points\": {}, \"dead_cells\": {}, \"spares_used\": {}, \"spares_left\": {}, \"masked_cols\": {}, \"program_spikes\": {}}}{}\n",
                    arm.policy,
                    json_num(f64::from(arm.report.degraded)),
                    json_num(f64::from(arm.report.drop_points())),
                    arm.dead_cells,
                    arm.spares_used,
                    arm.report.spares_left,
                    arm.report.masked_units,
                    arm.program_spikes,
                    if ai + 1 < grade.arms.len() { "," } else { "" }
                ));
            }
            json.push_str(&format!(
                "    ]}}{}\n",
                if gi + 1 < results.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
        json.push_str(&format!(
            "  \"gates\": {{\"storage_repair_gap_points\": {}, \"repair_tolerance_points\": 2, \"passed\": {pass}}}\n",
            json_num(gap_points)
        ));
        json.push_str("}\n");
        if let Err(e) = atomic_write(Path::new("BENCH_wearout.json"), json.as_bytes()) {
            eprintln!("failed to write BENCH_wearout.json: {e}");
            std::process::exit(1);
        }
        println!("\nwrote BENCH_wearout.json");
    }

    if !pass {
        eprintln!("wear-out robustness gates failed");
        std::process::exit(1);
    }
    println!("wear-out robustness gates passed");
}
