//! `plcheck` — pre-flight static verification of PipeLayer workloads.
//!
//! ```text
//! plcheck [OPTIONS] [NETWORK ...]
//!
//! Networks: Mnist-A Mnist-B Mnist-C Mnist-0 AlexNet VGG-A VGG-B VGG-C VGG-D VGG-E
//!           plus the Fig. 13 resolution-study set M-1 M-2 M-3 M-C C-4
//!           (case-insensitive; default: all ten evaluation networks)
//!
//! Options:
//!   --json            machine-readable output (one JSON object per network)
//!   --batch N         training batch size (default 64)
//!   --g G1,G2,...     per-layer replication override
//!   --depths D1,...   per-layer buffer-depth override (paper: 2(L-l)+1)
//!   --budget N        conv-array crossbar budget (default 65536)
//!   --ranges          print the per-layer interval bound table (PL04x
//!                     range analysis); with --json adds a "ranges" field
//!   --data-bits N     datapath resolution override (default 16)
//!   --acc-bits N      bit-line accumulator width override (default 48)
//!   --codes           print the PL0xx diagnostic code table and exit
//!   --quiet           suppress per-network OK lines
//!
//! Exit status: 0 if no error-severity diagnostic, 1 otherwise, 2 on usage
//! errors.
//! ```

use pipelayer::PipeLayerConfig;
use pipelayer_check::{diag, has_errors, Overrides, Severity};
use pipelayer_nn::spec::NetSpec;
use pipelayer_nn::zoo;
use std::process::ExitCode;

fn usage() -> String {
    "usage: plcheck [--json] [--quiet] [--codes] [--ranges] [--batch N] \
     [--data-bits N] [--acc-bits N] [--g G1,G2,...] [--depths D1,D2,...] \
     [--budget N] [NETWORK ...]"
        .to_string()
}

/// Every spec `plcheck` can verify by name: the ten evaluation networks
/// plus the five Fig. 13 resolution-study networks.
fn all_specs() -> Vec<NetSpec> {
    let mut specs = zoo::evaluation_specs();
    specs.extend([
        zoo::spec_m1(),
        zoo::spec_m2(),
        zoo::spec_m3(),
        zoo::spec_mc(),
        zoo::spec_c4(),
    ]);
    specs
}

fn find_network(name: &str) -> Option<NetSpec> {
    all_specs()
        .into_iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
}

fn parse_csv(raw: &str, flag: &str) -> Result<Vec<usize>, String> {
    raw.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| format!("--{flag}: `{p}` is not a number"))
        })
        .collect()
}

struct Cli {
    json: bool,
    quiet: bool,
    ranges: bool,
    cfg: PipeLayerConfig,
    over: Overrides,
    nets: Vec<NetSpec>,
}

fn parse_args(raw: &[String]) -> Result<Option<Cli>, String> {
    let mut json = false;
    let mut quiet = false;
    let mut ranges = false;
    let mut cfg = PipeLayerConfig::default();
    let mut over = Overrides::default();
    let mut names: Vec<String> = Vec::new();

    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("--{flag} needs a value"))
        };
        match a.as_str() {
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--ranges" => ranges = true,
            "--codes" => {
                for (code, what) in diag::CODE_TABLE {
                    println!("{code}  {what}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            "--batch" => {
                cfg.batch_size = take("batch")?
                    .parse()
                    .map_err(|_| "--batch: not a number".to_string())?;
            }
            "--data-bits" => {
                cfg.params.data_bits = take("data-bits")?
                    .parse()
                    .map_err(|_| "--data-bits: not a number".to_string())?;
            }
            "--acc-bits" => {
                cfg.datapath.accumulator_bits = take("acc-bits")?
                    .parse()
                    .map_err(|_| "--acc-bits: not a number".to_string())?;
            }
            "--g" => over.granularity = Some(parse_csv(take("g")?, "g")?),
            "--depths" => over.depths = Some(parse_csv(take("depths")?, "depths")?),
            "--budget" => {
                over.conv_xbar_budget = Some(
                    take("budget")?
                        .parse()
                        .map_err(|_| "--budget: not a number".to_string())?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            name => names.push(name.to_string()),
        }
    }

    let nets = if names.is_empty() {
        zoo::evaluation_specs()
    } else {
        let mut nets = Vec::with_capacity(names.len());
        for name in &names {
            nets.push(find_network(name).ok_or_else(|| {
                format!(
                    "unknown network `{name}` (expected one of: {})",
                    all_specs()
                        .iter()
                        .map(|s| s.name.clone())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?);
        }
        nets
    };
    if (over.granularity.is_some() || over.depths.is_some()) && nets.len() > 1 {
        return Err("--g/--depths overrides need exactly one NETWORK".to_string());
    }
    Ok(Some(Cli {
        json,
        quiet,
        ranges,
        cfg,
        over,
        nets,
    }))
}

/// Renders the per-layer bound table of one range report.
fn render_ranges(r: &pipelayer_check::absint::RangeReport) -> String {
    let mode = if r.value_domain {
        "value domain, quantized weights"
    } else {
        "geometry only"
    };
    let mut out = format!("{} ranges ({mode}; input {}):\n", r.network, r.input);
    out.push_str(&format!(
        "  {:>5}  {:<14}  {:<24}  {:<24}  {:>10}  {:>9}\n",
        "stage", "layer", "activation", "delta", "|dW|", "acc bits"
    ));
    for s in &r.stages {
        let acc = match (s.acc_bits_geometry, s.acc_bits_data) {
            (Some(g), Some(d)) => format!("{g}/{d}"),
            (Some(g), None) => format!("{g}/-"),
            _ => "-".to_string(),
        };
        let dw = if s.dweight_mag > 0.0 {
            format!("{:.3e}", s.dweight_mag)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "  {:>5}  {:<14}  {:<24}  {:<24}  {:>10}  {:>9}\n",
            s.index,
            s.name,
            s.activation.to_string(),
            s.delta.to_string(),
            dw,
            acc
        ));
    }
    out
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&raw) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let mut any_error = false;
    let mut json_nets: Vec<String> = Vec::new();
    for net in &cli.nets {
        let diags = pipelayer_check::verify_with(net, &cli.cfg, &cli.over);
        let errors = has_errors(&diags);
        any_error |= errors;
        // A spec that does not resolve reports its shape error in `diags`.
        let layers = cli.ranges.then(|| net.try_resolve().ok()).flatten();
        let ranges = layers.map(|l| pipelayer_check::absint::analyze(net, &l, &cli.cfg));
        if cli.json {
            let ranges_field = ranges
                .as_ref()
                .map(|r| format!(",\"ranges\":{}", r.to_json()))
                .unwrap_or_default();
            json_nets.push(format!(
                "{{\"network\":\"{}\",\"ok\":{},\"diagnostics\":{}{ranges_field}}}",
                net.name,
                !errors,
                pipelayer_check::render_json(&diags)
            ));
        } else {
            if let Some(r) = &ranges {
                print!("{}", render_ranges(r));
            }
            let min = if cli.quiet {
                Severity::Error
            } else {
                Severity::Warning
            };
            for d in diags.iter().filter(|d| d.severity >= min) {
                println!("{}", d.render());
            }
            if errors {
                println!("{}: FAIL", net.name);
            } else if !cli.quiet {
                println!("{}: OK ({} diagnostics)", net.name, diags.len());
            }
        }
    }
    if cli.json {
        println!("[{}]", json_nets.join(","));
    }
    if any_error {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
