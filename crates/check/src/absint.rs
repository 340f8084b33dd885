//! Interval abstract interpretation of the quantized datapath (PL04x).
//!
//! PipeLayer fixes the *resolution* of its arithmetic — 16-bit words
//! recombined from 4-bit cells (Fig. 14), weighted LSB-first spike inputs
//! accumulated over bounded slots (Fig. 9), integrate-and-fire outputs —
//! but nothing in the mapping pipeline proves that the *values* flowing
//! through training stay inside those formats. This pass does, the way
//! ISAAC sizes its ADC/accumulator widths: worst-case range arithmetic.
//!
//! The abstract domain is the interval `[lo, hi] ⊆ ℝ` (one interval per
//! tensor — the join over its elements), refined per weighted layer by
//! sign-split affine transfer: with `pos_j = Σ max(w, 0)` and
//! `neg_j = Σ max(−w, 0)` over bit line `j`'s weights, an input box
//! `x ∈ [lo, hi]ⁿ` maps exactly to
//!
//! ```text
//! out_j ∈ [pos_j·lo − neg_j·hi + b_j,  pos_j·hi − neg_j·lo + b_j]
//! ```
//!
//! joined over `j` and inflated by an `(n+2)·ε` floating-point summation
//! slack so the bounds also hold for the `f32` arithmetic the functional
//! datapath executes. The backward pass propagates the loss error through
//! the transposed aggregates and bounds the per-sample `ΔW` partials the
//! accelerator buffers per image (Sec. 4.4.2). The aggregates come from
//! the *actual quantized weight grids* (`pipelayer-quant`), so the proof is
//! about the network the hardware would run, and the soundness property
//! tests execute exactly that network (`build_for_analysis`) and assert
//! every concrete value lies inside the predicted interval.
//!
//! Checks emitted (see `diag`):
//! * **PL040** — a forward activation bound exceeds
//!   `cfg.datapath.activation_absmax`, reported at the stage that caused
//!   the overflow;
//! * **PL041** — a backward error or per-sample weight-gradient bound
//!   exceeds `cfg.datapath.gradient_absmax`;
//! * **PL042** — the bit-line accumulator is narrower than the worst-case
//!   `rows · qmax²` dot product of a mapped matrix (geometry-only, so it
//!   also covers the ImageNet-scale models and any weights training may
//!   reach);
//! * **PL043** — some output unit provably saturates on *every* input in
//!   the domain (warning: training signal dies there).
//!
//! ImageNet-scale networks (which `NetSpec::build` cannot materialise)
//! degrade soundly to the geometry-only subset: PL042 plus unbounded
//! intervals in the report.

use crate::diag::{self, Diagnostic};
use pipelayer::PipeLayerConfig;
use pipelayer_nn::loss::Loss;
use pipelayer_nn::spec::{NetSpec, ResolvedLayer};
use pipelayer_nn::{LayerKind, Network};
use pipelayer_quant::{accumulator_bits_worst_case, bits_for_magnitude, Quantizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Networks with at most this many learnable scalars are built and
/// analysed in the value domain (the four MNIST models are ≈0.6 M; AlexNet
/// is 61 M and would allocate gigabytes).
pub const EXEC_WEIGHT_LIMIT: usize = 4_000_000;

/// Seed used by [`build_for_analysis`] — fixed so the analysed parameter
/// state is reproducible and the soundness harness executes the same
/// network the verifier reasoned about.
pub const ANALYSIS_SEED: u64 = 0xA11A;

/// Relative safety factor on top of the `(n+2)·ε` floating-point summation
/// slack (covers blocked/reordered GEMM accumulation).
const FP_SLACK_FACTOR: f64 = 4.0;

const EPS32: f64 = f32::EPSILON as f64;

// ---- interval domain -------------------------------------------------------

/// A closed interval `[lo, hi]`, the abstract value of every element of one
/// tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// The unit interval `[0, 1]` — the domain of normalised pixel inputs.
    pub const UNIT: Interval = Interval { lo: 0.0, hi: 1.0 };

    /// The unbounded interval (geometry-only stages).
    pub const TOP: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Creates `[lo, hi]`, swapping if given in the wrong order.
    pub fn new(lo: f64, hi: f64) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Largest absolute value in the interval.
    pub fn mag(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Smallest interval containing both.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Smallest interval containing this one and zero.
    pub fn hull_zero(self) -> Interval {
        Interval {
            lo: self.lo.min(0.0),
            hi: self.hi.max(0.0),
        }
    }

    /// Scales by a non-negative factor.
    pub fn scale(self, c: f64) -> Interval {
        Interval::new(self.lo * c, self.hi * c)
    }

    /// Widens both endpoints outward by `slack ≥ 0`.
    pub fn widen(self, slack: f64) -> Interval {
        Interval {
            lo: self.lo - slack,
            hi: self.hi + slack,
        }
    }

    /// `true` if `v` lies inside (the soundness predicate).
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// `true` when both endpoints are finite.
    pub fn is_bounded(self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }
}

impl core::fmt::Display for Interval {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_bounded() {
            write!(f, "[{:.3e}, {:.3e}]", self.lo, self.hi)
        } else {
            f.write_str("[unbounded]")
        }
    }
}

// ---- abstract layers -------------------------------------------------------

/// Sign-split weight aggregates of one affine (conv / inner-product) layer.
#[derive(Debug, Clone)]
struct AffineStats {
    /// Per bit line `j` (output unit / channel): `Σ max(w, 0)`.
    out_pos: Vec<f64>,
    /// Per bit line `j`: `Σ max(−w, 0)`.
    out_neg: Vec<f64>,
    /// Bias values per bit line.
    bias: Vec<f64>,
    /// Per input coordinate (column / input channel): `Σ max(w, 0)` over
    /// every weight touching it in the transposed (backward) map.
    in_pos: Vec<f64>,
    /// Backward negative aggregate.
    in_neg: Vec<f64>,
    /// Terms per forward dot product (`matrix_rows − 1`).
    dot_len: usize,
    /// Terms per backward dot product.
    back_len: usize,
    /// Kernel-window positions per image (1 for FC) — the multiplier on
    /// per-sample weight-gradient magnitudes and the stage's array-read
    /// cycle budget.
    window_positions: usize,
    /// Mapped matrix rows (for the geometry accumulator bound).
    matrix_rows: u64,
    /// Code-space `max_j (Σ|q_w| + |q_b|)` when the weights are quantized —
    /// the data-dependent accumulator bound.
    code_l1: Option<u64>,
}

/// One layer of the abstract network.
#[derive(Debug, Clone)]
enum AbsOp {
    Affine(Box<AffineStats>),
    Relu,
    Sigmoid,
    /// `overlap` = max windows covering one input position.
    MaxPool {
        overlap: f64,
    },
    AvgPool {
        k2: f64,
        overlap: f64,
    },
    Flatten,
    Dropout {
        scale: f64,
    },
}

struct AbsLayer {
    name: String,
    op: AbsOp,
}

// ---- report ----------------------------------------------------------------

/// Predicted bounds for one layer of the analysed network.
#[derive(Debug, Clone)]
pub struct StageBounds {
    /// Index in the built network's layer stack (value domain) or the
    /// weighted-layer ordinal (geometry-only).
    pub index: usize,
    /// Layer name (`"conv3x8"`, `"relu"`, …).
    pub name: String,
    /// Forward output bound (post this layer). [`Interval::TOP`] in
    /// geometry-only mode.
    pub activation: Interval,
    /// Bound on the error this layer propagates to its input.
    pub delta: Interval,
    /// Per-sample `|ΔW|` bound (0 for parameterless layers).
    pub dweight_mag: f64,
    /// Per-sample `|Δb|` bound.
    pub dbias_mag: f64,
    /// Accumulator bits needed for the worst-case `rows · qmax²` dot
    /// product (affine layers only).
    pub acc_bits_geometry: Option<u32>,
    /// Tighter data-dependent accumulator bits from the actual code grid.
    pub acc_bits_data: Option<u32>,
}

impl StageBounds {
    fn passthrough(index: usize, name: String) -> StageBounds {
        StageBounds {
            index,
            name,
            activation: Interval::TOP,
            delta: Interval::TOP,
            dweight_mag: 0.0,
            dbias_mag: 0.0,
            acc_bits_geometry: None,
            acc_bits_data: None,
        }
    }
}

/// Everything the range analysis derived for one network.
#[derive(Debug, Clone)]
pub struct RangeReport {
    /// Network name.
    pub network: String,
    /// Input value domain the bounds were derived for.
    pub input: Interval,
    /// `true` when actual (quantized) weights were analysed; `false` for
    /// the geometry-only fallback.
    pub value_domain: bool,
    /// Per-layer bounds.
    pub stages: Vec<StageBounds>,
    /// PL04x findings.
    pub diags: Vec<Diagnostic>,
}

impl RangeReport {
    /// Serialises the per-layer bound table as one JSON object (the
    /// `"ranges"` field of `plcheck --ranges --json`).
    pub fn to_json(&self) -> String {
        let iv = |i: Interval| -> String {
            if i.is_bounded() {
                format!("{{\"lo\":{:e},\"hi\":{:e}}}", i.lo, i.hi)
            } else {
                "null".to_string()
            }
        };
        let opt = |b: Option<u32>| b.map_or("null".to_string(), |v| v.to_string());
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"index\":{},\"name\":\"{}\",\"activation\":{},\"delta\":{},\
                     \"dweight_mag\":{:e},\"dbias_mag\":{:e},\
                     \"acc_bits_geometry\":{},\"acc_bits_data\":{}}}",
                    s.index,
                    s.name,
                    iv(s.activation),
                    iv(s.delta),
                    s.dweight_mag,
                    s.dbias_mag,
                    opt(s.acc_bits_geometry),
                    opt(s.acc_bits_data),
                )
            })
            .collect();
        format!(
            "{{\"input\":{},\"value_domain\":{},\"stages\":[{}]}}",
            iv(self.input),
            self.value_domain,
            stages.join(",")
        )
    }
}

// ---- entry points ----------------------------------------------------------

/// Builds exactly the network [`analyze`] reasons about: [`ANALYSIS_SEED`],
/// the zoo's default softmax-cross-entropy loss, weights overwritten with
/// their `data_bits` fixed-point images when the functional quantizer
/// supports that resolution. `layers` is `spec.try_resolve()`'s output.
/// Returns `None` for networks beyond [`EXEC_WEIGHT_LIMIT`] — the soundness
/// harness uses this to execute the very network the verifier analysed.
pub fn build_for_analysis(
    spec: &NetSpec,
    layers: &[ResolvedLayer],
    cfg: &PipeLayerConfig,
) -> Option<Network> {
    let weights = layers
        .iter()
        .map(|l| l.weights)
        .fold(0, usize::saturating_add);
    if weights > EXEC_WEIGHT_LIMIT {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(ANALYSIS_SEED);
    let mut net = spec.build(Loss::SoftmaxCrossEntropy, &mut rng);
    if let Ok(q) = Quantizer::try_new(cfg.params.data_bits) {
        pipelayer_quant::quantize_network_weights(&mut net, q);
    }
    Some(net)
}

/// Range-analyses `spec`, whose `spec.try_resolve()` returned `layers`,
/// under `cfg` with the `[0, 1]` input domain: value-domain interval
/// propagation over the actual quantized weights when the network is
/// buildable, the geometry-only accumulator check otherwise.
pub fn analyze(spec: &NetSpec, layers: &[ResolvedLayer], cfg: &PipeLayerConfig) -> RangeReport {
    let input = Interval::UNIT;
    if let Some(mut net) = build_for_analysis(spec, layers, cfg) {
        if let Some(report) = analyze_network(&mut net, layers, input, cfg) {
            return report;
        }
    }
    analyze_geometry(&spec.name, layers, input, cfg)
}

/// Value-domain analysis of a concrete (already built, already quantized)
/// network. `geometry` must be the resolved layers of the same spec — its
/// weighted layers align 1:1 with the network's affine layers. Returns
/// `None` when the network contains a layer the analysis has no sound
/// transfer function for ([`LayerKind::Opaque`]) or the geometry does not
/// align.
pub fn analyze_network(
    net: &mut Network,
    geometry: &[ResolvedLayer],
    input: Interval,
    cfg: &PipeLayerConfig,
) -> Option<RangeReport> {
    let quant = Quantizer::try_new(cfg.params.data_bits).ok();
    let abs_layers = extract_abs_layers(net, geometry, quant)?;
    let loss = net.loss();
    let name = net.name().to_string();
    Some(run_analysis(name, &abs_layers, input, loss, cfg))
}

// ---- extraction ------------------------------------------------------------

/// Sign-split slice aggregates of `data` interpreted as `slices` equal
/// chunks: `(pos, neg)` per slice.
fn slice_aggregates(data: &[f32], slices: usize) -> (Vec<f64>, Vec<f64>) {
    let mut pos = Vec::with_capacity(slices);
    let mut neg = Vec::with_capacity(slices);
    if slices == 0 || data.is_empty() {
        return (pos, neg);
    }
    let stride = (data.len() / slices).max(1);
    for chunk in data.chunks(stride).take(slices) {
        let mut p = 0.0f64;
        let mut n = 0.0f64;
        for &w in chunk {
            let w = f64::from(w);
            if w >= 0.0 {
                p += w;
            } else {
                n -= w;
            }
        }
        pos.push(p);
        neg.push(n);
    }
    (pos, neg)
}

#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn extract_abs_layers(
    net: &mut Network,
    geometry: &[ResolvedLayer],
    quant: Option<Quantizer>,
) -> Option<Vec<AbsLayer>> {
    let mut out = Vec::with_capacity(net.len());
    let mut affine_idx = 0usize;
    for layer in net.layers_mut() {
        let name = layer.name();
        let op = match layer.kind() {
            LayerKind::Affine => {
                let geo = geometry.get(affine_idx)?;
                affine_idx += 1;
                let params = layer.params_mut()?;
                let dims = params.weight.dims().to_vec();
                let w = params.weight.as_slice();
                let (n_out, in_units, back_len) = match dims.len() {
                    2 => (dims[0], dims[1], dims[0]),
                    4 => (dims[0], dims[1], dims[0] * dims[2] * dims[3]),
                    _ => return None,
                };
                if n_out == 0 || w.is_empty() {
                    return None;
                }
                let (out_pos, out_neg) = slice_aggregates(w, n_out);
                // Backward aggregates: per input coordinate (column for
                // rank-2, input channel for rank-4 — each (c_out, u, v)
                // kernel element touches one input position at most once
                // per output pixel, so the per-channel Σ|w| bounds the
                // transposed dot product for any stride ≥ 1).
                let (in_pos, in_neg) = if dims.len() == 2 {
                    let mut pos = vec![0.0f64; in_units];
                    let mut neg = vec![0.0f64; in_units];
                    for row in w.chunks(in_units) {
                        for ((p, n), &v) in pos.iter_mut().zip(neg.iter_mut()).zip(row) {
                            let v = f64::from(v);
                            if v >= 0.0 {
                                *p += v;
                            } else {
                                *n -= v;
                            }
                        }
                    }
                    (pos, neg)
                } else {
                    let k2 = dims[2] * dims[3];
                    let mut pos = vec![0.0f64; in_units];
                    let mut neg = vec![0.0f64; in_units];
                    for filt in w.chunks(in_units * k2) {
                        for ((p, n), kernel) in
                            pos.iter_mut().zip(neg.iter_mut()).zip(filt.chunks(k2))
                        {
                            for &v in kernel {
                                let v = f64::from(v);
                                if v >= 0.0 {
                                    *p += v;
                                } else {
                                    *n -= v;
                                }
                            }
                        }
                    }
                    (pos, neg)
                };
                let bias: Vec<f64> = params
                    .bias
                    .as_slice()
                    .iter()
                    .map(|&b| f64::from(b))
                    .collect();
                if bias.len() != n_out {
                    return None;
                }
                let code_l1 = quant.map(|q| {
                    let wl1 = q.grid(params.weight).max_slice_code_l1();
                    let bmax = u64::from(q.grid(params.bias).max_abs_code().unsigned_abs());
                    wl1 + bmax
                });
                AbsOp::Affine(Box::new(AffineStats {
                    out_pos,
                    out_neg,
                    bias,
                    in_pos,
                    in_neg,
                    dot_len: w.len() / n_out,
                    back_len,
                    window_positions: geo.window_positions.max(1),
                    matrix_rows: geo.matrix_rows as u64,
                    code_l1,
                }))
            }
            LayerKind::Relu => AbsOp::Relu,
            LayerKind::Sigmoid => AbsOp::Sigmoid,
            LayerKind::MaxPool { k, stride } => AbsOp::MaxPool {
                overlap: pool_overlap(k, stride),
            },
            LayerKind::AvgPool { k, stride } => AbsOp::AvgPool {
                k2: (k * k) as f64,
                overlap: pool_overlap(k, stride),
            },
            LayerKind::Flatten => AbsOp::Flatten,
            LayerKind::Dropout { p } => AbsOp::Dropout {
                scale: 1.0 / (1.0 - f64::from(p)).max(f64::MIN_POSITIVE),
            },
            LayerKind::Opaque => return None,
        };
        out.push(AbsLayer { name, op });
    }
    if affine_idx != geometry.len() {
        return None;
    }
    Some(out)
}

/// Max windows covering one input position: `⌈k/stride⌉²` (1 for the
/// non-overlapping pools the zoo uses).
#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn pool_overlap(k: usize, stride: usize) -> f64 {
    let per_axis = k.div_ceil(stride.max(1));
    (per_axis * per_axis) as f64
}

// ---- transfer functions ----------------------------------------------------

/// Floating-point summation slack for an `n`-term sum of terms bounded by
/// `mag_sum` in total magnitude.
#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn fp_slack(n: usize, mag_sum: f64) -> f64 {
    FP_SLACK_FACTOR * (n as f64 + 2.0) * EPS32 * mag_sum
}

/// Forward interval through one affine layer, joined over bit lines.
fn affine_forward(st: &AffineStats, x: Interval) -> Interval {
    let xmag = x.mag();
    let mut out: Option<Interval> = None;
    for ((&p, &n), &b) in st.out_pos.iter().zip(&st.out_neg).zip(&st.bias) {
        let slack = fp_slack(st.dot_len, (p + n) * xmag + b.abs());
        let iv = Interval::new(p * x.lo - n * x.hi + b, p * x.hi - n * x.lo + b).widen(slack);
        out = Some(out.map_or(iv, |acc| acc.join(iv)));
    }
    out.unwrap_or(Interval { lo: 0.0, hi: 0.0 })
}

/// Units of an affine layer that saturate on *every* input in `x`'s box:
/// `(unit, bound)` of the first such bit line, if any.
fn guaranteed_saturation(st: &AffineStats, x: Interval, absmax: f64) -> Option<(usize, f64)> {
    for (j, ((&p, &n), &b)) in st.out_pos.iter().zip(&st.out_neg).zip(&st.bias).enumerate() {
        let slack = fp_slack(st.dot_len, (p + n) * x.mag() + b.abs());
        let lo = p * x.lo - n * x.hi + b - slack;
        let hi = p * x.hi - n * x.lo + b + slack;
        if lo > absmax {
            return Some((j, lo));
        }
        if hi < -absmax {
            return Some((j, hi));
        }
    }
    None
}

/// Backward interval through one affine layer (`δ_in = Wᵀ δ_out`), joined
/// over input coordinates.
fn affine_backward(st: &AffineStats, d: Interval) -> Interval {
    let dmag = d.mag();
    let mut out: Option<Interval> = None;
    for (&p, &n) in st.in_pos.iter().zip(&st.in_neg) {
        let slack = fp_slack(st.back_len, (p + n) * dmag);
        let iv = Interval::new(p * d.lo - n * d.hi, p * d.hi - n * d.lo).widen(slack);
        out = Some(out.map_or(iv, |acc| acc.join(iv)));
    }
    out.unwrap_or(Interval { lo: 0.0, hi: 0.0 })
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[expect(clippy::cast_possible_truncation, reason = "a small pool window count")]
fn forward_transfer(op: &AbsOp, x: Interval) -> Interval {
    match op {
        AbsOp::Affine(st) => affine_forward(st, x),
        AbsOp::Relu => Interval::new(x.lo.max(0.0), x.hi.max(0.0)),
        AbsOp::Sigmoid => Interval {
            lo: (sigmoid(x.lo) - 1e-6).max(0.0),
            hi: (sigmoid(x.hi) + 1e-6).min(1.0),
        },
        AbsOp::MaxPool { .. } | AbsOp::Flatten => x,
        AbsOp::AvgPool { k2, .. } => x.widen(fp_slack(*k2 as usize + 1, x.mag())),
        AbsOp::Dropout { scale } => x.scale(*scale).hull_zero().widen(4.0 * EPS32 * x.mag()),
    }
}

#[expect(clippy::cast_possible_truncation, reason = "a small overlap count")]
fn backward_transfer(op: &AbsOp, d: Interval) -> Interval {
    match op {
        AbsOp::Affine(st) => affine_backward(st, d),
        AbsOp::Relu => d.hull_zero(),
        // σ'(x) = σ(1−σ) ∈ [0, 1/4].
        AbsOp::Sigmoid => d.scale(0.25).hull_zero().widen(4.0 * EPS32 * d.mag()),
        AbsOp::MaxPool { overlap } => d
            .scale(*overlap)
            .hull_zero()
            .widen(fp_slack(*overlap as usize, overlap * d.mag())),
        AbsOp::AvgPool { k2, overlap } => {
            let s = overlap / k2;
            d.scale(s)
                .hull_zero()
                .widen(fp_slack(*overlap as usize + 1, s * d.mag()))
        }
        AbsOp::Flatten => d,
        AbsOp::Dropout { scale } => d.scale(*scale).hull_zero().widen(4.0 * EPS32 * d.mag()),
    }
}

/// Error interval the loss feeds into the backward pass.
fn loss_delta(loss: Loss, output: Interval) -> Interval {
    match loss {
        // δ = softmax(y) − onehot(t); p ∈ [0, 1] up to rounding.
        Loss::SoftmaxCrossEntropy => Interval {
            lo: -1.0 - 1e-5,
            hi: 1.0 + 1e-5,
        },
        // δ = y − t with t ∈ {0, 1}.
        Loss::L2 => Interval {
            lo: output.lo - 1.0,
            hi: output.hi,
        }
        .widen(4.0 * EPS32 * (output.mag() + 1.0)),
    }
}

// ---- the analysis ----------------------------------------------------------

#[expect(clippy::cast_precision_loss, reason = "counts below 2^53 are exact")]
fn run_analysis(
    network: String,
    layers: &[AbsLayer],
    input: Interval,
    loss: Loss,
    cfg: &PipeLayerConfig,
) -> RangeReport {
    let act_max = cfg.datapath.activation_absmax;
    let grad_max = cfg.datapath.gradient_absmax;
    let acc_bits = u32::from(cfg.datapath.accumulator_bits);
    let data_bits = cfg.params.data_bits;
    let mut diags = Vec::new();

    // Forward sweep.
    let mut stages: Vec<StageBounds> = Vec::with_capacity(layers.len());
    let mut inputs: Vec<Interval> = Vec::with_capacity(layers.len());
    let mut x = input;
    if x.mag() > act_max {
        diags.push(Diagnostic::error(
            diag::RANGE_ACTIVATION_OVERFLOW,
            "input",
            format!("input domain {x} already exceeds the activation range \u{b1}{act_max:.3e}"),
            "widen datapath.activation_absmax or normalise the input data",
        ));
    }
    for (i, layer) in layers.iter().enumerate() {
        inputs.push(x);
        let y = forward_transfer(&layer.op, x);
        let loc = format!("stage {i} ({})", layer.name);
        if y.mag() > act_max && x.mag() <= act_max {
            diags.push(Diagnostic::error(
                diag::RANGE_ACTIVATION_OVERFLOW,
                loc.clone(),
                format!(
                    "worst-case activation bound {y} exceeds the representable \
                     \u{b1}{act_max:.3e} of the {data_bits}-bit datapath"
                ),
                "widen datapath.activation_absmax (more integer bits), rescale the \
                 preceding weights, or normalise activations between stages",
            ));
        }
        let mut stage = StageBounds::passthrough(i, layer.name.clone());
        stage.activation = y;
        if let AbsOp::Affine(st) = &layer.op {
            let geometry_bits = accumulator_bits_worst_case(st.matrix_rows, data_bits, data_bits);
            stage.acc_bits_geometry = Some(geometry_bits);
            stage.acc_bits_data = st.code_l1.map(|l1| {
                let qx = Quantizer::try_new(data_bits)
                    .map_or(1u128, |q| u128::from(q.qmax().unsigned_abs()));
                bits_for_magnitude(u128::from(l1) * qx)
            });
            if geometry_bits > acc_bits {
                diags.push(Diagnostic::error(
                    diag::RANGE_ACC_TOO_NARROW,
                    loc.clone(),
                    format!(
                        "mapped matrix has {} rows: a worst-case {data_bits}-bit dot \
                         product needs {geometry_bits} accumulator bits, configured {acc_bits}",
                        st.matrix_rows
                    ),
                    "widen datapath.accumulator_bits or split the layer across more \
                     crossbars (fewer rows per bit line)",
                ));
            }
            if let Some((unit, bound)) = guaranteed_saturation(st, x, act_max) {
                diags.push(Diagnostic::warning(
                    diag::RANGE_GUARANTEED_SATURATION,
                    loc.clone(),
                    format!(
                        "output unit {unit} is provably outside \u{b1}{act_max:.3e} for \
                         every input (bound {bound:.3e}); all {} array-read cycles per \
                         image emit a clipped value there",
                        st.window_positions
                    ),
                    "the unit carries no training signal; rescale its weights/bias or \
                     widen datapath.activation_absmax",
                ));
            }
        }
        stages.push(stage);
        x = y;
    }
    let output = x;

    // Backward sweep.
    let mut d = loss_delta(loss, output);
    if d.mag() > grad_max {
        diags.push(Diagnostic::error(
            diag::RANGE_GRADIENT_OVERFLOW,
            "loss",
            format!("output-layer error bound {d} exceeds the gradient range \u{b1}{grad_max:.3e}"),
            "widen datapath.gradient_absmax",
        ));
    }
    for (i, layer) in layers.iter().enumerate().rev() {
        let d_in = backward_transfer(&layer.op, d);
        let loc = format!("stage {i} ({})", layer.name);
        stages[i].delta = d_in;
        if let AbsOp::Affine(st) = &layer.op {
            let x_in = inputs[i];
            let p = st.window_positions as f64;
            let dw = p * d.mag() * x_in.mag();
            let db = p * d.mag();
            stages[i].dweight_mag = dw + fp_slack(st.window_positions, dw);
            stages[i].dbias_mag = db + fp_slack(st.window_positions, db);
            if stages[i].dweight_mag > grad_max || stages[i].dbias_mag > grad_max {
                diags.push(Diagnostic::error(
                    diag::RANGE_GRADIENT_OVERFLOW,
                    loc.clone(),
                    format!(
                        "per-sample weight-gradient bound {:.3e} exceeds the gradient \
                         range \u{b1}{grad_max:.3e} (the \u{394}W partials buffered per \
                         image, Sec. 4.4.2)",
                        stages[i].dweight_mag.max(stages[i].dbias_mag)
                    ),
                    "widen datapath.gradient_absmax or lower the loss scale",
                ));
            }
        }
        if d_in.mag() > grad_max && d.mag() <= grad_max {
            diags.push(Diagnostic::error(
                diag::RANGE_GRADIENT_OVERFLOW,
                loc,
                format!(
                    "backpropagated error bound {d_in} exceeds the gradient range \
                     \u{b1}{grad_max:.3e}"
                ),
                "widen datapath.gradient_absmax or rescale the layer's weights",
            ));
        }
        d = d_in;
    }

    RangeReport {
        network,
        input,
        value_domain: true,
        stages,
        diags,
    }
}

/// Geometry-only fallback for networks that cannot be materialised: the
/// PL042 accumulator check (which needs no weights) over every weighted
/// layer; value intervals stay unbounded.
pub fn analyze_geometry(
    network: &str,
    geometry: &[ResolvedLayer],
    input: Interval,
    cfg: &PipeLayerConfig,
) -> RangeReport {
    let acc_bits = u32::from(cfg.datapath.accumulator_bits);
    let data_bits = cfg.params.data_bits;
    let mut stages = Vec::with_capacity(geometry.len());
    let mut diags = Vec::new();
    for (i, layer) in geometry.iter().enumerate() {
        let needed = accumulator_bits_worst_case(layer.matrix_rows as u64, data_bits, data_bits);
        let mut stage = StageBounds::passthrough(i, layer.name.clone());
        stage.acc_bits_geometry = Some(needed);
        if needed > acc_bits {
            diags.push(Diagnostic::error(
                diag::RANGE_ACC_TOO_NARROW,
                format!("stage {i} ({})", layer.name),
                format!(
                    "mapped matrix has {} rows: a worst-case {data_bits}-bit dot product \
                     needs {needed} accumulator bits, configured {acc_bits}",
                    layer.matrix_rows
                ),
                "widen datapath.accumulator_bits or split the layer across more crossbars",
            ));
        }
        stages.push(stage);
    }
    RangeReport {
        network: network.to_string(),
        input,
        value_domain: false,
        stages,
        diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipelayer_nn::zoo;

    #[test]
    fn interval_algebra() {
        let a = Interval::new(2.0, -1.0); // swapped on construction
        assert_eq!(a, Interval { lo: -1.0, hi: 2.0 });
        assert_eq!(a.mag(), 2.0);
        assert_eq!(a.join(Interval::new(-3.0, 0.0)).lo, -3.0);
        assert_eq!(Interval::new(1.0, 2.0).hull_zero().lo, 0.0);
        assert!(a.contains(0.0) && !a.contains(2.1));
        assert!(!Interval::TOP.is_bounded());
        assert_eq!(format!("{}", Interval::TOP), "[unbounded]");
    }

    #[test]
    fn affine_forward_is_exact_on_a_hand_example() {
        // One bit line: w = [2, -1], b = 0.5, x in [0, 1]:
        // out in [0*2 - 1*1 + 0.5, 1*2 - 0*1 + 0.5] = [-0.5, 2.5].
        let st = AffineStats {
            out_pos: vec![2.0],
            out_neg: vec![1.0],
            bias: vec![0.5],
            in_pos: vec![2.0, 0.0],
            in_neg: vec![0.0, 1.0],
            dot_len: 2,
            back_len: 1,
            window_positions: 1,
            matrix_rows: 3,
            code_l1: None,
        };
        let out = affine_forward(&st, Interval::UNIT);
        // Exact up to the deliberate floating-point slack inflation.
        assert!((out.lo + 0.5).abs() < 1e-4 && (out.hi - 2.5).abs() < 1e-4);
        assert!(out.lo <= -0.5 && out.hi >= 2.5, "slack must widen outward");
        // Backward: delta in [-1, 1] -> col0 |2|, col1 |-1| -> join = [-2, 2].
        let d = affine_backward(&st, Interval::new(-1.0, 1.0));
        assert!((d.lo + 2.0).abs() < 1e-4 && (d.hi - 2.0).abs() < 1e-4);
    }

    #[test]
    fn relu_and_pool_transfers() {
        let x = Interval::new(-2.0, 3.0);
        assert_eq!(forward_transfer(&AbsOp::Relu, x), Interval::new(0.0, 3.0));
        assert_eq!(forward_transfer(&AbsOp::Flatten, x), x);
        let mp = AbsOp::MaxPool { overlap: 1.0 };
        assert_eq!(forward_transfer(&mp, x), x);
        let back = backward_transfer(&mp, Interval::new(0.5, 1.0));
        // Hull with zero (unrouted positions get 0), then slack widening.
        assert!(back.lo <= 0.0 && back.lo > -1e-4, "{back}");
        assert!(back.hi >= 1.0 && back.hi < 1.0 + 1e-4, "{back}");
        let s = forward_transfer(&AbsOp::Sigmoid, Interval::new(-100.0, 100.0));
        assert!(s.lo >= 0.0 && s.hi <= 1.0);
    }

    #[test]
    fn default_config_is_clean_on_the_executable_zoo() {
        let cfg = PipeLayerConfig::default();
        for spec in [
            zoo::spec_mnist_a(),
            zoo::spec_mnist_b(),
            zoo::spec_mnist_c(),
            zoo::spec_mnist_0(),
            zoo::spec_c4(),
            zoo::spec_mc(),
        ] {
            let report = analyze(&spec, &spec.resolve(), &cfg);
            assert!(report.value_domain, "{} should be executable", spec.name);
            assert!(
                !diag::has_errors(&report.diags),
                "{}: {:?}",
                spec.name,
                report.diags
            );
            for st in &report.stages {
                assert!(st.activation.is_bounded(), "{}: {}", spec.name, st.name);
                assert!(st.delta.is_bounded(), "{}: {}", spec.name, st.name);
            }
        }
    }

    #[test]
    fn imagenet_scale_degrades_to_geometry() {
        let cfg = PipeLayerConfig::default();
        let spec = zoo::alexnet();
        let report = analyze(&spec, &spec.resolve(), &cfg);
        assert!(!report.value_domain);
        assert!(!diag::has_errors(&report.diags), "{:?}", report.diags);
        assert!(report.stages.iter().all(|s| !s.activation.is_bounded()));
        assert!(report.stages.iter().all(|s| s.acc_bits_geometry.is_some()));
    }

    #[test]
    fn under_width_accumulator_is_flagged_at_the_first_wide_matrix() {
        let mut cfg = PipeLayerConfig::default();
        cfg.params.data_bits = 8;
        cfg.datapath.accumulator_bits = 20;
        let spec = zoo::spec_c4();
        let report = analyze(&spec, &spec.resolve(), &cfg);
        let pl042: Vec<&Diagnostic> = report
            .diags
            .iter()
            .filter(|d| d.code == diag::RANGE_ACC_TOO_NARROW)
            .collect();
        assert!(!pl042.is_empty());
        // conv1 (10 rows) fits in 20 bits; the second conv3x8 (73 rows,
        // network stack index 2) is the first that does not.
        assert_eq!(pl042[0].location, "stage 2 (conv3x8)");
    }

    #[test]
    fn json_report_is_well_formed() {
        let spec = zoo::spec_mnist_a();
        let report = analyze(&spec, &spec.resolve(), &PipeLayerConfig::default());
        let json = report.to_json();
        assert!(json.starts_with("{\"input\":{\"lo\":"));
        assert!(json.contains("\"value_domain\":true"));
        assert!(json.contains("\"acc_bits_geometry\":"));
    }
}
