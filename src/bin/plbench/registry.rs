//! Every metric plbench reports, with its unit and direction.
//! `BENCHMARK.json` must list exactly these (checked by a unit test).

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

/// Reported by every untraced run, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("train_images_per_sec", "img/s", true),
    m("eval_images_per_sec", "img/s", true),
    m("setup_s", "s", false),
    m("setup_rss_mib", "MiB", false),
    m("peak_rss_mib", "MiB", false),
];

/// Reported by every traced run, on every workload; a layer the workload
/// does not run reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("step.p50_ms", "ms", false),
    m("step.p95_ms", "ms", false),
    m("core.accuracy_us_per_img", "us", false),
    m("core.glue_ms_per_step", "ms", false),
    m("core.aging_ms_per_100k_cycles", "ms", false),
    m("core.scrub_pass_us", "us", false),
    m("reram.matvec_fwd_ms_per_step", "ms", false),
    m("reram.matvec_bwd_ms_per_step", "ms", false),
    m("reram.read_ms_per_step", "ms", false),
    m("reram.write_ms_per_step", "ms", false),
    m("reram.spike_encode_us", "us", false),
    m("reram.plane_build_us", "us", false),
    m("reram.integrate_us", "us", false),
    m("reram.mvm_spiked_us", "us", false),
    m("reram.mvm_spiked_miss_us", "us", false),
    m("reram.plane_rebuilds_per_mvm", "count", false),
    m("model.accuracy", "fraction", true),
    m("model.read_spikes_per_img", "count", false),
    m("model.write_pulses_per_img", "count", false),
    m("model.verify_reads_per_pulse", "count", false),
    m("model.pulse_efficiency", "fraction", true),
    m("model.scrub_passes", "count", false),
    m("model.dead_cells", "count", false),
    m("model.spares_used", "count", false),
    m("model.masked_units", "count", false),
    m("nn.conv_fwd_us_per_img", "us", false),
    m("nn.conv_bwd_us_per_img", "us", false),
    m("nn.fc_fwd_us_per_img", "us", false),
    m("nn.fc_bwd_us_per_img", "us", false),
    m("nn.pool_fwd_us_per_img", "us", false),
    m("nn.pool_bwd_us_per_img", "us", false),
    m("nn.relu_fwd_us_per_img", "us", false),
    m("nn.relu_bwd_us_per_img", "us", false),
    m("nn.flatten_fwd_us_per_img", "us", false),
    m("nn.flatten_bwd_us_per_img", "us", false),
    m("nn.loss_us_per_img", "us", false),
    m("nn.update_ms_per_step", "ms", false),
    m("nn.glue_ms_per_step", "ms", false),
];

fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    find(name).map_or("", |m| m.unit)
}

pub fn higher_is_better(name: &str) -> bool {
    find(name).is_some_and(|m| m.higher_is_better)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::Workload;
    use std::collections::BTreeSet;

    /// The name grammar metric consumers accept.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
        }
        for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("reram.mvm_spiked_us") && valid_name("9-a.b_c"));
    }

    /// `BENCHMARK.json` at the repository root. The path is relative to
    /// this file, so it holds whichever manifest compiles the test.
    fn benchmark_json() -> Json {
        json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<Json> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .to_vec()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = benchmark_json();
        for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = listed(&doc, key);
            let names: BTreeSet<&str> = entries
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).expect("name"))
                .collect();
            let expected: BTreeSet<&str> = registry.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{key} differs from the registry");
            assert_eq!(entries.len(), registry.len(), "{key} repeats a name");
            for e in &entries {
                let name = e.get("name").and_then(Json::as_str).unwrap_or_default();
                let m = registry.iter().find(|m| m.name == name).expect("listed");
                assert_eq!(e.get("unit").and_then(Json::as_str), Some(m.unit), "{name}");
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    e.get("better").and_then(Json::as_str),
                    Some(better),
                    "{name}"
                );
            }
        }
        let workloads: BTreeSet<&str> = listed(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap_or_default())
            .map(|n| Workload::from_name(n).expect("known workload").name())
            .collect();
        assert_eq!(workloads.len(), Workload::ALL.len());
    }
}
