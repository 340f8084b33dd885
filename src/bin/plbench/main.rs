//! plbench — host-time benchmark of the functional ReRAM trainer
//! (`ReramMlp`, every MVM on simulated crossbars) and the float `nn`
//! trainer.
//!
//! ```text
//! cargo run --release --manifest-path src/bin/plbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--smoke] [--runs N] [--trace 0|1|FILE]
//! ```
//!
//! One workload (`--workload`, `--runs 1`) runs in this process: it sets the
//! workload up several times, then repeats identical rounds (a fresh set-up,
//! training, evaluation) for `--seconds` and at least 200 steps, checks
//! every correctness gate, prints `workload metric value unit` lines and,
//! as the last line, one JSON object. Without `--workload`, or with
//! `--runs N > 1`, each run is a child process of its own (so memory is
//! per run) and the medians and quartiles across runs are printed.
//! Everything runs on one thread. See README.md for the workloads and
//! metrics.

mod float;
mod functional;
#[cfg(test)]
mod json;
mod registry;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

/// Steps a full run must time so `step.p95_ms` has ten samples beyond it.
const MIN_STEPS: usize = 200;
/// Set-ups before the first round; each later round adds one. `setup_s`
/// is the median of them all.
const SETUP_REPS: usize = 5;
/// Consecutive steps per `train_images_per_sec` window.
const WINDOW_STEPS: usize = 20;
/// Measured seconds per run unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 18.0;
/// `--smoke` budget: one round of each workload.
const SMOKE_SECONDS: f64 = 0.5;
/// Every `GATE_EVERY`-th step of a round is re-run by a reference path.
pub const GATE_EVERY: usize = 25;
/// Images per timed evaluation call.
const EVAL_CHUNK: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MnistAIdeal,
    CampaignNoisyAging,
    WearRepair,
    FloatC4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MnistAIdeal,
        Workload::CampaignNoisyAging,
        Workload::WearRepair,
        Workload::FloatC4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MnistAIdeal => "mnist-a-ideal",
            Workload::CampaignNoisyAging => "campaign-noisy-aging",
            Workload::WearRepair => "wear-repair",
            Workload::FloatC4 => "float-c4",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn setup(self, seed: u64) -> Box<dyn Bench> {
        match self {
            Workload::MnistAIdeal => Box::new(functional::setup(functional::Device::Ideal, seed)),
            Workload::CampaignNoisyAging => {
                Box::new(functional::setup(functional::Device::NoisyAging, seed))
            }
            Workload::WearRepair => {
                Box::new(functional::setup(functional::Device::WearRepair, seed))
            }
            Workload::FloatC4 => Box::new(float::setup(seed)),
        }
    }
}

/// What one round of a workload did. Rounds start from the same set-up
/// state, so every round of a run must produce the same `digest`.
#[derive(Debug, Default)]
pub struct Round {
    /// `(images, seconds)` of each training step.
    pub steps: Vec<(usize, f64)>,
    /// `(images, seconds)` of each timed evaluation call.
    pub evals: Vec<(usize, f64)>,
    pub digest: Vec<u64>,
    pub failed: usize,
    /// Exact modelled outcomes (`model.*` per-layer metrics).
    pub model: Vec<(&'static str, f64)>,
}

/// Accuracy over `images` from `accuracy` calls on [`EVAL_CHUNK`]-image
/// slices, in order, each timed in a span named `name` and recorded in
/// `r.evals`. In-order slices make the same reads as one call over the
/// whole set, so the result is the same.
pub fn evaluate(
    tr: &mut Tracer,
    name: &'static str,
    images: &[pipelayer_tensor::Tensor],
    labels: &[usize],
    r: &mut Round,
    mut accuracy: impl FnMut(&[pipelayer_tensor::Tensor], &[usize]) -> f32,
) -> f32 {
    let mut correct = 0;
    for (imgs, labs) in images.chunks(EVAL_CHUNK).zip(labels.chunks(EVAL_CHUNK)) {
        let (acc, secs) = tr.span(name, |_| accuracy(imgs, labs));
        r.evals.push((imgs.len(), secs));
        correct += (acc * imgs.len() as f32).round() as usize;
    }
    correct as f32 / images.len() as f32
}

/// Highest `images / seconds` over `samples`.
fn best_rate(samples: impl Iterator<Item = (usize, f64)>) -> f64 {
    samples.map(|(n, s)| n as f64 / s).fold(0.0, f64::max)
}

/// `train_images_per_sec`: the best rate over whole windows of
/// [`WINDOW_STEPS`] consecutive steps. A shorter tail is dropped, since its
/// length depends on how many steps fit in the run.
fn train_rate(steps: &[(usize, f64)]) -> f64 {
    best_rate(steps.chunks_exact(WINDOW_STEPS).map(|w| {
        w.iter()
            .fold((0, 0.0), |(n, s), &(wn, ws)| (n + wn, s + ws))
    }))
}

pub trait Bench {
    /// Runs one round; its steps are numbered from `first_step` on.
    fn round(&mut self, tr: &mut Tracer, first_step: u64) -> Round;
    /// Per-layer timings from a traced run's spans, in any order; absent
    /// metrics read 0.
    fn per_layer(&self, tr: &Tracer) -> Vec<(&'static str, f64)>;
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    smoke: bool,
    runs: usize,
    trace: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: plbench [--workload NAME] [--seed N] [--seconds S] [--smoke] [--runs N] \
     [--trace 0|1|FILE]\nworkloads: mnist-a-ideal campaign-noisy-aging wear-repair float-c4"
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        smoke: false,
        runs: 1,
        trace: None,
    };
    let mut seconds = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--runs" => {
                a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(default_trace_path()),
                    path => Some(PathBuf::from(path)),
                }
            }
            "--smoke" => a.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    a.seconds = seconds.unwrap_or(if a.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(a)
}

/// Spans land next to the build output unless a file is named.
fn default_trace_path() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    dir.join("plbench-trace.jsonl")
}

/// `t.jsonl` → `t-<workload>.jsonl`, so children of one parent don't
/// overwrite each other's spans.
fn trace_path_for(base: &Path, w: Workload) -> PathBuf {
    let stem = base
        .file_stem()
        .map_or("trace".into(), |s| s.to_string_lossy());
    let ext = base
        .extension()
        .map_or("jsonl".into(), |s| s.to_string_lossy());
    base.with_file_name(format!("{stem}-{}.{ext}", w.name()))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("plbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) if args.runs == 1 => run_workload(w, &args),
        _ => run_children(&args),
    }
}

fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# host_nproc {nproc} threads 1 seed {} seconds {}{}{}",
        args.seed,
        args.seconds,
        if args.smoke { " smoke" } else { "" },
        if args.trace.is_some() { " traced" } else { "" }
    )
}

/// Peak resident set (VmHWM) of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs one workload in this process and prints its result.
fn run_workload(w: Workload, args: &Args) -> ExitCode {
    println!("{}", host_line(args));
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let bench = w.setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        bench
    };
    let mut bench = set_up(&mut setup_s);
    for _ in 1..SETUP_REPS {
        drop(bench);
        bench = set_up(&mut setup_s);
    }
    let setup_rss = match peak_rss_mib() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("plbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Every round after the first starts from a fresh set-up, so set-up
    // time is sampled across the whole run, not only at its start.
    let mut tr = Tracer::new(args.trace.is_some());
    let min_steps = if args.smoke { 0 } else { MIN_STEPS };
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut steps = 0;
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds || steps < min_steps {
        if !rounds.is_empty() {
            drop(bench);
            bench = set_up(&mut setup_s);
        }
        let r = bench.round(&mut tr, steps as u64);
        steps += r.steps.len();
        rounds.push(r);
    }

    let digest = &rounds[0].digest;
    let mismatched = rounds.iter().filter(|r| r.digest != *digest).count();
    let failed = rounds.iter().map(|r| r.failed).sum::<usize>() + mismatched;
    let evals: Vec<(usize, f64)> = rounds
        .iter()
        .flat_map(|r| r.evals.iter().copied())
        .collect();
    let attempted = steps + evals.iter().map(|e| e.0).sum::<usize>();
    let hex: String = digest.iter().map(|d| format!("{d:016x}")).collect();
    println!("# digest {hex}");

    let timed_steps: Vec<(usize, f64)> = rounds
        .iter()
        .flat_map(|r| r.steps.iter().copied())
        .collect();
    let step_s: Vec<f64> = timed_steps.iter().map(|s| s.1).collect();
    let mut percentiles = Vec::new();
    for (name, p) in [("step.p50_ms", 50.0), ("step.p95_ms", 95.0)] {
        match stats::percentile(&step_s, p) {
            Some(v) => percentiles.push((name, v * 1e3)),
            None => println!(
                "# {name} refused: {} steps leave fewer than {} beyond p{p}",
                step_s.len(),
                stats::MIN_BEYOND
            ),
        }
    }
    for (name, v) in &percentiles {
        println!("# {name} {v} over {} steps", step_s.len());
    }
    let peak_rss = match peak_rss_mib() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("plbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut metrics: Vec<(&'static str, f64)>;
    if let Some(path) = &args.trace {
        metrics = bench.per_layer(&tr);
        metrics.extend(percentiles);
        metrics.extend(rounds[0].model.iter().copied());
        for m in registry::PER_LAYER {
            if !metrics.iter().any(|(n, _)| *n == m.name) {
                metrics.push((m.name, 0.0));
            }
        }
        let order = |n: &str| registry::PER_LAYER.iter().position(|m| m.name == n);
        metrics.sort_by_key(|(n, _)| order(n));
        if let Err(e) = tr.write_jsonl(path, w.name()) {
            eprintln!("plbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans {} written to {}", tr.spans().len(), path.display());
    } else {
        // Other tenants of a shared host only ever add time, so the
        // fastest window and chunk are the steadiest readings of a run.
        metrics = vec![
            ("train_images_per_sec", train_rate(&timed_steps)),
            ("eval_images_per_sec", best_rate(evals.into_iter())),
            ("setup_s", stats::median(&setup_s)),
            ("setup_rss_mib", setup_rss),
            ("peak_rss_mib", peak_rss),
        ];
    }

    let mut failed = failed;
    for (name, value) in &metrics {
        // End-to-end metrics are rates, times and sizes, never 0; a layer
        // a workload does not run reads 0 on a traced run.
        if !value.is_finite() || (args.trace.is_none() && *value <= 0.0) {
            eprintln!("plbench: {name} reads {value}");
            failed += 1;
        }
    }
    println!(
        "# rounds {} steps {steps} attempted {attempted} failed {failed} (digest mismatches {mismatched})",
        rounds.len()
    );
    for (name, value) in &metrics {
        println!("{} {name} {value} {}", w.name(), registry::unit_of(name));
    }
    println!("{}", result_line(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last line of a single run: one JSON object with `correct`,
/// `attempted`, `failed` and every finite metric with its unit.
fn result_line(attempted: usize, failed: usize, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                registry::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// One child run's parsed result.
#[derive(Debug)]
struct ChildResult {
    failed: usize,
    digest: Option<String>,
    metrics: BTreeMap<String, f64>,
}

/// Reads a single run's `# rounds … failed N` line, its `# digest` line
/// and its `workload metric value unit` lines.
fn parse_child(w: Workload, stdout: &str) -> Result<ChildResult, String> {
    let mut failed = None;
    let mut digest = None;
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["#", "digest", hex] => digest = Some(hex.to_string()),
            ["#", "rounds", rest @ ..] => {
                failed = rest
                    .windows(2)
                    .find(|p| p[0] == "failed")
                    .and_then(|p| p[1].parse::<usize>().ok());
            }
            [head, name, value, _unit] if *head == w.name() => {
                let v = value
                    .parse()
                    .map_err(|e| format!("{}: bad value in {line:?}: {e}", w.name()))?;
                metrics.insert(name.to_string(), v);
            }
            _ => {}
        }
    }
    let failed = failed.ok_or(format!("{}: no `# rounds` line", w.name()))?;
    Ok(ChildResult {
        failed,
        digest,
        metrics,
    })
}

fn run_child(w: Workload, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate plbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(base) = &args.trace {
        cmd.arg("--trace").arg(trace_path_for(base, w));
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let result = parse_child(w, &String::from_utf8_lossy(&out.stdout))
        .map_err(|e| format!("{e} (exit {})", out.status))?;
    if !out.status.success() && result.failed == 0 {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    Ok(result)
}

/// Runs each selected workload `--runs` times, one child process after
/// another, and prints the median and quartiles of every metric.
fn run_children(args: &Args) -> ExitCode {
    println!("{}", host_line(args));
    let selected: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut failed_ops = 0;
    for w in selected {
        let mut results = Vec::new();
        for _ in 0..args.runs {
            match run_child(w, args) {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("plbench: {e}");
                    failed_ops += 1;
                }
            }
        }
        failed_ops += results.iter().map(|r| r.failed).sum::<usize>();
        // A seed fixes every modelled outcome, so all runs must agree.
        if results.windows(2).any(|p| p[0].digest != p[1].digest) {
            eprintln!("plbench: {} runs of one seed disagree", w.name());
            failed_ops += 1;
        }
        let mut names: Vec<&String> = results.iter().flat_map(|r| r.metrics.keys()).collect();
        names.sort();
        names.dedup();
        for name in names {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let (q1, med, q3) = stats::quartiles(&values);
            let better = if registry::higher_is_better(name) {
                "higher"
            } else {
                "lower"
            };
            println!(
                "{} {name} {med} {} (q1 {q1} q3 {q3}, {} runs, {better} is better)",
                w.name(),
                registry::unit_of(name),
                values.len()
            );
        }
    }
    println!("# failed_ops {failed_ops}");
    if failed_ops == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Result<Args, String> {
        parse_args(&raw.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_single_run_command_line() {
        let a = args(&["--workload", "wear-repair", "--seed", "7", "--seconds", "3"]).unwrap();
        assert_eq!(a.workload, Some(Workload::WearRepair));
        assert_eq!((a.seed, a.seconds, a.runs), (7, 3.0, 1));
        assert!(args(&["--trace", "0"]).unwrap().trace.is_none());
        let t = args(&["--trace", "t.jsonl"]).unwrap().trace.unwrap();
        assert_eq!(
            trace_path_for(&t, Workload::FloatC4),
            PathBuf::from("t-float-c4.jsonl")
        );
        assert_eq!(args(&["--smoke"]).unwrap().seconds, SMOKE_SECONDS);
        for bad in [
            &["--workload", "nope"][..],
            &["--seconds", "0"],
            &["--runs", "0"],
            &["--seed"],
            &["--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn train_rate_drops_a_short_tail() {
        // Two whole windows at 80 and 160 img/s, then a 5-step tail at
        // 640 img/s that must not count.
        let mut steps = vec![(10, 0.125); WINDOW_STEPS];
        steps.extend(vec![(10, 0.0625); WINDOW_STEPS]);
        steps.extend(vec![(10, 0.015625); 5]);
        assert_eq!(train_rate(&steps), 160.0);
        assert_eq!(train_rate(&steps[..WINDOW_STEPS - 1]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        use json::Json;
        let metrics = [("setup_s", 0.25), ("peak_rss_mib", f64::NAN)];
        let doc = json::parse(&result_line(12, 0, &metrics)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(12.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let m = doc.get("metrics").unwrap();
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(m.get("peak_rss_mib"), None, "a NaN is left out");
        let failed = json::parse(&result_line(3, 2, &metrics)).unwrap();
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn parent_reads_a_child_run() {
        let out = "# host_nproc 2 threads 1 seed 1 seconds 18\n\
                   # digest 00ff\n\
                   # rounds 7 steps 210 attempted 2310 failed 1 (digest mismatches 0)\n\
                   wear-repair setup_s 0.0193 s\n\
                   wear-repair peak_rss_mib 11.4 MiB\n\
                   {\"correct\": false}\n";
        let r = parse_child(Workload::WearRepair, out).unwrap();
        assert_eq!((r.failed, r.digest.as_deref()), (1, Some("00ff")));
        assert_eq!(r.metrics.get("setup_s"), Some(&0.0193));
        assert_eq!(r.metrics.len(), 2);
        assert!(parse_child(Workload::WearRepair, "wear-repair setup_s 1 s\n").is_err());
        assert!(parse_child(Workload::FloatC4, "float-c4 setup_s x s\n").is_err());
    }
}
