//! Configuration-level area accounting (Sec. 6.6, Fig. 18).

use crate::mapping::MappedNetwork;
pub use pipelayer_reram::AreaModel;

/// Area of a deployed configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaEstimate {
    /// Physical crossbar count.
    pub crossbars: u64,
    /// Total die area, mm².
    pub mm2: f64,
}

/// Area of the full training configuration (forward + backward + gradient
/// data arrays + buffers).
pub fn training_area(net: &MappedNetwork, model: &AreaModel) -> AreaEstimate {
    let crossbars = net.total_crossbars_training();
    AreaEstimate {
        crossbars,
        mm2: model.total_mm2(crossbars),
    }
}

/// Area of a testing-only configuration.
pub fn testing_area(net: &MappedNetwork, model: &AreaModel) -> AreaEstimate {
    let crossbars = net.total_crossbars_testing();
    AreaEstimate {
        crossbars,
        mm2: model.total_mm2(crossbars),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipeLayerConfig;
    use crate::granularity::{default_granularity, scale_lambda};
    use pipelayer_nn::zoo;

    #[test]
    fn area_grows_with_lambda() {
        let spec = zoo::vgg(zoo::VggVariant::B);
        let layers = spec.resolve();
        let g = default_granularity(&layers);
        let model = AreaModel::default();
        let mut last = 0.0;
        for lambda in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let gl = scale_lambda(&g, lambda, &layers);
            let net = MappedNetwork::try_with_granularity(&spec, &gl, PipeLayerConfig::default())
                .unwrap();
            let a = training_area(&net, &model).mm2;
            assert!(a > last, "area must grow with λ: {a} <= {last}");
            last = a;
        }
    }

    #[test]
    fn testing_config_smaller_than_training() {
        let net =
            MappedNetwork::try_from_spec(&zoo::alexnet(), PipeLayerConfig::default()).unwrap();
        let model = AreaModel::default();
        assert!(testing_area(&net, &model).mm2 < training_area(&net, &model).mm2);
    }

    #[test]
    fn alexnet_training_area_near_paper_value() {
        // The per-crossbar constant is calibrated so the default AlexNet
        // training deployment lands near the published 82.6 mm²
        // (see EXPERIMENTS.md; tolerance is deliberately loose).
        let net =
            MappedNetwork::try_from_spec(&zoo::alexnet(), PipeLayerConfig::default()).unwrap();
        let a = training_area(&net, &AreaModel::default()).mm2;
        assert!(
            (40.0..170.0).contains(&a),
            "AlexNet training area {a} mm² too far from 82.6 mm²"
        );
    }
}
