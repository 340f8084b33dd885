//! `plsim` — a small CLI over the PipeLayer model, for exploring
//! configurations without writing code.
//!
//! ```text
//! plsim list
//! plsim map      --net vgg-d [--lambda 2] [--batch 64]
//! plsim estimate --net alexnet [--lambda 1] [--batch 64] [--images 6400] [--no-pipeline]
//! plsim sweep    --net vgg-a [--batch 64]
//! plsim schedule --layers 3 --batch 8
//! ```

use pipelayer::pipeline::PipelineSim;
use pipelayer::Accelerator;
use pipelayer_baselines::GpuModel;
use pipelayer_bench::{fmt_f, Table};
use pipelayer_nn::spec::ResolvedLayer;
use pipelayer_nn::{zoo, NetSpec};
use std::num::NonZeroUsize;
use std::process::ExitCode;

fn spec_by_name(name: &str) -> Option<NetSpec> {
    let lower = name.to_ascii_lowercase();
    zoo::evaluation_specs()
        .into_iter()
        .find(|s| s.name.to_ascii_lowercase() == lower)
}

struct Args {
    flags: Vec<(String, String)>,
    bools: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut bools = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let value = (*v).clone();
                        it.next();
                        flags.push((name.to_string(), value));
                    }
                    _ => bools.push(name.to_string()),
                }
            } else {
                return Err(format!("unexpected argument `{a}`"));
            }
        }
        Ok(Args { flags, bools })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: &str) -> Result<T, String> {
        let v = self.get(name).unwrap_or(default);
        v.parse()
            .map_err(|_| format!("invalid value `{v}` for --{name}"))
    }

    fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "plsim — PipeLayer configuration explorer\n\n\
         commands:\n\
           list                         list the evaluation networks\n\
           map      --net <name>        show the array mapping\n\
           estimate --net <name>        time/energy/area + GPU comparison\n\
           report   --net <name>        full configuration report\n\
           optimize --net <name> --budget <xbars>  compiler-optimized granularity\n\
           sweep    --net <name>        lambda sweep (speedup vs area)\n\
           schedule --layers L --batch B  trace the training pipeline\n\n\
         common flags: --lambda <f64> --batch <usize> --images <u64> --no-pipeline"
    );
    ExitCode::from(2)
}

fn build(args: &Args) -> Result<Accelerator, String> {
    let name = args.get("net").ok_or("missing --net <name>")?;
    let spec =
        spec_by_name(name).ok_or_else(|| format!("unknown network `{name}` (try `plsim list`)"))?;
    let batch: NonZeroUsize = args.get_parsed("batch", "64")?;
    let lambda: f64 = args.get_parsed("lambda", "1")?;
    Accelerator::builder(spec)
        .batch_size(batch)
        .lambda(lambda)
        .pipelined(!args.has("no-pipeline"))
        .build()
        .map_err(|e| e.to_string())
}

#[expect(clippy::cast_possible_truncation, reason = "the batch is a usize")]
#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = raw.split_first().ok_or("no command")?;
    let args = Args::parse(rest)?;

    match cmd.as_str() {
        "list" => {
            let mut t = Table::new(
                "evaluation networks",
                &["name", "layers", "weights (M)", "fwd GOP/img"],
            );
            for s in zoo::evaluation_specs() {
                t.row(vec![
                    s.name.clone(),
                    s.weighted_layers().to_string(),
                    fmt_f(s.weight_count() as f64 / 1e6, 2),
                    fmt_f(
                        s.resolve()
                            .iter()
                            .map(ResolvedLayer::ops_forward)
                            .sum::<u64>() as f64
                            / 1e9,
                        2,
                    ),
                ]);
            }
            t.print();
        }
        "map" => {
            let accel = build(&args)?;
            let mut t = Table::new(
                format!("mapping: {}", accel.spec().name),
                &["layer", "matrix", "tiles", "G", "reads/cycle"],
            );
            for l in &accel.mapped().layers {
                t.row(vec![
                    l.resolved.name.clone(),
                    format!("{}x{}", l.resolved.matrix_rows, l.resolved.matrix_cols),
                    l.tiles.to_string(),
                    l.g.to_string(),
                    l.reads_forward.to_string(),
                ]);
            }
            t.print();
            println!(
                "crossbars: fwd {} / training total {}; area {:.1} mm^2",
                accel.mapped().forward_crossbars(),
                accel.mapped().total_crossbars_training(),
                accel.training_area_mm2()
            );
        }
        "estimate" => {
            let accel = build(&args)?;
            let images: u64 = args.get_parsed("images", "6400")?;
            let batch = accel.mapped().config.batch_size.get() as u64;
            let images = images - images % batch;
            let gpu = GpuModel::default();
            let train = accel.estimate_training(images);
            let test = accel.estimate_testing(images);
            let g_train = gpu.training(accel.spec(), images, batch as usize);
            let g_test = gpu.testing(accel.spec(), images, batch as usize);
            let mut t = Table::new(
                format!("{} | {} images", accel.spec().name, images),
                &[
                    "phase",
                    "time (ms)",
                    "energy (J)",
                    "img/s",
                    "GPU speedup",
                    "GPU saving",
                ],
            );
            t.row(vec![
                "training".into(),
                fmt_f(train.time_s.0 * 1e3, 2),
                fmt_f(train.energy_j.0, 3),
                fmt_f(train.throughput(), 0),
                fmt_f(g_train.time_s / train.time_s, 2),
                fmt_f(g_train.energy_j / train.energy_j, 2),
            ]);
            t.row(vec![
                "testing".into(),
                fmt_f(test.time_s.0 * 1e3, 2),
                fmt_f(test.energy_j.0, 3),
                fmt_f(test.throughput(), 0),
                fmt_f(g_test.time_s / test.time_s, 2),
                fmt_f(g_test.energy_j / test.energy_j, 2),
            ]);
            t.print();
            println!(
                "area: {:.1} mm^2 (training deployment)",
                accel.training_area_mm2()
            );
        }
        "report" => {
            let accel = build(&args)?;
            let images: u64 = args.get_parsed("images", "6400")?;
            print!("{}", accel.report(images));
        }
        "optimize" => {
            let name = args.get("net").ok_or("missing --net <name>")?;
            let spec = spec_by_name(name).ok_or_else(|| format!("unknown network `{name}`"))?;
            let budget: u64 = args.get_parsed("budget", "65536")?;
            let layers = spec.resolve();
            let g = pipelayer::granularity::optimize_granularity(&layers, budget);
            let mut t = Table::new(
                format!(
                    "compiler-optimized G: {} (replication budget {budget} crossbars)",
                    spec.name
                ),
                &["layer", "P", "G", "reads/cycle"],
            );
            for (l, &gl) in layers.iter().zip(&g) {
                t.row(vec![
                    l.name.clone(),
                    l.window_positions.to_string(),
                    gl.to_string(),
                    l.window_positions.max(1).div_ceil(gl).to_string(),
                ]);
            }
            t.print();
        }
        "sweep" => {
            let name = args.get("net").ok_or("missing --net <name>")?;
            let spec = spec_by_name(name).ok_or_else(|| format!("unknown network `{name}`"))?;
            let batch: NonZeroUsize = args.get_parsed("batch", "64")?;
            let gpu = GpuModel::default();
            let n = 10 * batch.get() as u64;
            let gpu_t = gpu.training(&spec, n, batch.get()).time_s;
            let mut t = Table::new(
                format!("lambda sweep: {}", spec.name),
                &["lambda", "speedup", "area mm^2"],
            );
            for lambda in [0.25, 0.5, 1.0, 2.0, 4.0] {
                let accel = Accelerator::builder(spec.clone())
                    .batch_size(batch)
                    .lambda(lambda)
                    .build()
                    .map_err(|e| e.to_string())?;
                t.row(vec![
                    lambda.to_string(),
                    fmt_f(gpu_t / accel.estimate_training(n).time_s, 2),
                    fmt_f(accel.training_area_mm2(), 1),
                ]);
            }
            t.print();
        }
        "schedule" => {
            let l: NonZeroUsize = args.get_parsed("layers", "3")?;
            let b: NonZeroUsize = args.get_parsed("batch", "4")?;
            let out = PipelineSim::new(l, b).simulate_training(NonZeroUsize::MIN, 64);
            for row in &out.trace {
                println!("{row}");
            }
            println!(
                "cycles {} | violations {} | peak stages {}",
                out.cycles,
                out.dependency_violations(),
                out.peak_parallel_stages
            );
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage()
        }
    }
}
