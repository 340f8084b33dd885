//! The control component (Fig. 9e): "offloads the computation from the
//! host CPU and orchestrates the data transfers between memory subarrays
//! and morphable subarrays in training and testing".
//!
//! [`Controller::compile_training_batch`] lowers one pipelined training
//! batch into per-cycle command streams following Table 1's operation
//! sequences — memory read → spike → morphable array read →
//! integrate-and-fire → activation → memory write — plus the batch-closing
//! weight update. The streams are cross-checked against the analytical
//! model (cycle count) and the energy model (word/phase totals) by tests,
//! tying the three model levels together.

use crate::mapping::MappedNetwork;

/// One micro-operation issued by the controller in a logical cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Read `words` from the inter-layer buffer feeding `layer`.
    MemRead {
        /// Target weighted layer (0-based).
        layer: usize,
        /// Words fetched.
        words: u64,
    },
    /// Drive spike-coded input phases into a layer's arrays.
    ArrayRead {
        /// Target weighted layer (0-based).
        layer: usize,
        /// Sequential read phases (`⌈P/G⌉` etc.).
        phases: u64,
        /// Which computation the phases implement.
        kind: PhaseKind,
    },
    /// Convert integrated bitline charge to digital counts.
    IntegrateFire {
        /// Values produced.
        outputs: u64,
    },
    /// Subtract/LUT/max-register pass over `values`.
    Activate {
        /// Values processed.
        values: u64,
    },
    /// Write `words` into a memory subarray buffer.
    MemWrite {
        /// Source weighted layer (0-based).
        layer: usize,
        /// Words written.
        words: u64,
    },
    /// Copy a layer's forward data into morphable arrays for ∂W (Fig. 12).
    MorphableCopy {
        /// Source weighted layer (0-based).
        layer: usize,
        /// Words copied.
        words: u64,
    },
    /// Batch-end weight update: read averaged ∂W with 1/B spikes, read old
    /// weights, write new weights (Fig. 14b).
    WeightUpdate {
        /// Updated weighted layer (0-based).
        layer: usize,
        /// Weights rewritten.
        weights: u64,
    },
}

/// The computation a group of array-read phases performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Forward MVM in `A_l`.
    Forward,
    /// Error-backward convolution in `A_l2` (Fig. 11).
    ErrorBackward,
    /// Partial-derivative convolution over stored `d` (Fig. 12).
    Gradient,
}

/// The commands of one logical cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleCommands {
    /// Logical cycle index, 1-based within the batch.
    pub cycle: u64,
    /// Commands issued this cycle (order = Table 1 sequence per stage).
    pub commands: Vec<Command>,
}

/// The controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct Controller;

impl Controller {
    /// Compiles one pipelined training batch (`B` images) into per-cycle
    /// command streams. The stream has exactly `2L + B + 1` cycles
    /// (Fig. 7b); the final cycle carries the weight updates.
    #[expect(clippy::cast_possible_truncation, reason = "indices < `cycles.len()`")]
    pub fn compile_training_batch(net: &MappedNetwork) -> Vec<CycleCommands> {
        let l = net.weighted_layers().get() as u64;
        let b = net.config.batch_size.get() as u64;
        let total = 2 * l + b + 1;
        let mut cycles: Vec<CycleCommands> = (1..=total)
            .map(|c| CycleCommands {
                cycle: c,
                commands: Vec::new(),
            })
            .collect();

        for img in 0..b {
            // Forward: layer k (1-based) at cycle img + k.
            for (k, layer) in net.layers.iter().enumerate() {
                let cyc = (img + k as u64 + 1) as usize - 1;
                let cmds = &mut cycles[cyc].commands;
                let in_words = layer.in_words;
                cmds.push(Command::MemRead {
                    layer: k,
                    words: in_words,
                });
                cmds.push(Command::ArrayRead {
                    layer: k,
                    phases: layer.reads_forward,
                    kind: PhaseKind::Forward,
                });
                cmds.push(Command::IntegrateFire {
                    outputs: layer.delta_words,
                });
                cmds.push(Command::Activate {
                    values: layer.delta_words,
                });
                cmds.push(Command::MemWrite {
                    layer: k,
                    words: layer.out_words,
                });
            }
            // Output error at cycle img + L + 1 (activation-only, Fig. 10a).
            {
                let last = net.layers.len() - 1;
                let cyc = (img + l + 1) as usize - 1;
                let cmds = &mut cycles[cyc].commands;
                cmds.push(Command::MemRead {
                    layer: last,
                    words: net.layers[last].out_words,
                });
                cmds.push(Command::Activate {
                    values: net.layers[last].delta_words,
                });
                cmds.push(Command::MemWrite {
                    layer: last,
                    words: net.layers[last].delta_words,
                });
            }
            // Backward stage m (1-based, descending) at cycle img + 2L−m+2.
            for (m_idx, layer) in net.layers.iter().enumerate() {
                let m = m_idx as u64 + 1;
                let cyc = (img + 2 * l - m + 2) as usize - 1;
                let cmds = &mut cycles[cyc].commands;
                cmds.push(Command::MemRead {
                    layer: m_idx,
                    words: layer.delta_words,
                });
                if layer.reads_error > 0 {
                    cmds.push(Command::ArrayRead {
                        layer: m_idx,
                        phases: layer.reads_error,
                        kind: PhaseKind::ErrorBackward,
                    });
                }
                if layer.reads_gradient > 0 {
                    cmds.push(Command::ArrayRead {
                        layer: m_idx,
                        phases: layer.reads_gradient,
                        kind: PhaseKind::Gradient,
                    });
                }
                cmds.push(Command::MorphableCopy {
                    layer: m_idx,
                    words: layer.in_words,
                });
                if m_idx > 0 {
                    cmds.push(Command::MemWrite {
                        layer: m_idx - 1,
                        words: net.layers[m_idx - 1].delta_words,
                    });
                }
            }
        }

        // Batch-end update cycle.
        let update = &mut cycles[(total - 1) as usize].commands;
        for (k, layer) in net.layers.iter().enumerate() {
            update.push(Command::WeightUpdate {
                layer: k,
                weights: layer.resolved.weights as u64,
            });
        }
        cycles
    }

    /// Total forward array-read phases across a compiled batch.
    pub fn total_phases(stream: &[CycleCommands], kind: PhaseKind) -> u64 {
        stream
            .iter()
            .flat_map(|c| &c.commands)
            .filter_map(|cmd| match cmd {
                Command::ArrayRead {
                    phases, kind: k, ..
                } if *k == kind => Some(*phases),
                _ => None,
            })
            .sum()
    }

    /// Total words written to memory subarrays across a compiled batch.
    pub fn total_mem_write_words(stream: &[CycleCommands]) -> u64 {
        stream
            .iter()
            .flat_map(|c| &c.commands)
            .filter_map(|cmd| match cmd {
                Command::MemWrite { words, .. } => Some(*words),
                _ => None,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::config::PipeLayerConfig;
    use crate::mapping::MappedNetwork;
    use pipelayer_nn::zoo;
    use std::num::NonZeroUsize;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    fn net(batch: usize) -> MappedNetwork {
        MappedNetwork::try_from_spec(&zoo::spec_mnist_0(), PipeLayerConfig::with_batch(nz(batch)))
            .unwrap()
    }

    #[test]
    fn stream_length_matches_fig7() {
        let net = net(16);
        let stream = Controller::compile_training_batch(&net);
        let a = Analysis::new(net.weighted_layers(), net.config.batch_size);
        assert_eq!(stream.len() as u64, a.training_cycles_pipelined(16));
    }

    #[test]
    fn forward_phase_total_matches_mapping() {
        let net = net(8);
        let stream = Controller::compile_training_batch(&net);
        let want: u64 = net.layers.iter().map(|l| l.reads_forward).sum::<u64>() * 8;
        assert_eq!(Controller::total_phases(&stream, PhaseKind::Forward), want);
    }

    #[test]
    fn first_layer_never_issues_error_backward() {
        let net = net(4);
        let stream = Controller::compile_training_batch(&net);
        let bad = stream.iter().flat_map(|c| &c.commands).any(|cmd| {
            matches!(
                cmd,
                Command::ArrayRead {
                    layer: 0,
                    kind: PhaseKind::ErrorBackward,
                    ..
                }
            )
        });
        assert!(!bad, "δ_0 is never needed");
    }

    #[test]
    fn update_commands_only_in_last_cycle() {
        let net = net(8);
        let stream = Controller::compile_training_batch(&net);
        for cyc in &stream[..stream.len() - 1] {
            assert!(
                !cyc.commands
                    .iter()
                    .any(|c| matches!(c, Command::WeightUpdate { .. })),
                "update leaked into cycle {}",
                cyc.cycle
            );
        }
        let last = stream.last().unwrap();
        let updates = last
            .commands
            .iter()
            .filter(|c| matches!(c, Command::WeightUpdate { .. }))
            .count();
        assert_eq!(updates, net.weighted_layers().get());
    }

    #[test]
    fn mem_write_words_match_energy_model() {
        // Per batch: B × (Σ out + Σ delta) words written to buffers
        // (inputs and morphable copies are tracked by other commands).
        let net = net(8);
        let stream = Controller::compile_training_batch(&net);
        let per_image: u64 = net.layers.iter().map(|l| l.out_words + l.delta_words).sum();
        assert_eq!(Controller::total_mem_write_words(&stream), 8 * per_image);
    }

    #[test]
    fn mid_batch_cycles_are_fully_loaded() {
        // Once the pipeline is full, every cycle carries commands from
        // 2L+1 concurrent stages.
        let net = net(32);
        let stream = Controller::compile_training_batch(&net);
        let l = net.weighted_layers().get();
        let mid = &stream[2 * l + 2]; // safely inside the streaming region
        let stages = mid
            .commands
            .iter()
            .filter(|c| matches!(c, Command::ArrayRead { .. } | Command::Activate { .. }))
            .count();
        assert!(stages >= l, "mid-batch cycle underloaded: {stages}");
    }
}
