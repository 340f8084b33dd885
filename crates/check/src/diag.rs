//! Structured diagnostics: the `PL0xx` code space shared by every verifier
//! pass and both output formats (human-readable and `--json`).
//!
//! Codes are grouped by decade: `PL00x` shape inference, `PL01x` pipeline
//! schedule, `PL02x` crossbar mapping, `PL03x` quantization/spike coding,
//! `PL04x` value-range analysis (interval abstract interpretation of the
//! quantized datapath), `PL05x` accelerator configuration. The full table
//! lives in [`CODE_TABLE`] and is rendered by `plcheck --codes` and
//! DESIGN.md §6.3/§6.4.

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected behaviour worth knowing about (e.g. the buffers the paper
    /// duplicates for same-cycle read/write).
    Info,
    /// Legal but wasteful or suspicious (e.g. oversized buffers).
    Warning,
    /// The workload cannot run correctly; `plcheck` exits non-zero.
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding from a verifier pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, `"PL001"`-style.
    pub code: &'static str,
    /// Error / warning / info.
    pub severity: Severity,
    /// Where in the workload the problem sits (`"layer 3 (conv3x384)"`,
    /// `"config.batch_size"`, `"buffer d2"`).
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
        help: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
            help: help.into(),
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
        help: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
            help: help.into(),
        }
    }

    /// An info-severity diagnostic.
    pub fn info(
        code: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
        help: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            severity: Severity::Info,
            location: location.into(),
            message: message.into(),
            help: help.into(),
        }
    }

    /// Renders the rustc-style human form:
    /// `error[PL010]: buffer d2: stale read ...` plus a help line.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}[{}]: {}: {}",
            self.severity, self.code, self.location, self.message
        );
        if !self.help.is_empty() {
            s.push_str("\n  help: ");
            s.push_str(&self.help);
        }
        s
    }

    /// Renders the diagnostic as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"location\":\"{}\",\"message\":\"{}\",\"help\":\"{}\"}}",
            self.code,
            self.severity,
            json_escape(&self.location),
            json_escape(&self.message),
            json_escape(&self.help)
        )
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `true` if any diagnostic is error-severity (the `plcheck` exit gate).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders a whole report as a JSON array (one object per diagnostic).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

// ---- code space ------------------------------------------------------------

/// Shape: degenerate (zero) input dimension.
pub const SHAPE_EMPTY_INPUT: &str = "PL001";
/// Shape: conv/pool window does not fit its input extent.
pub const SHAPE_WINDOW_TOO_BIG: &str = "PL002";
/// Shape: zero kernel size or stride.
pub const SHAPE_ZERO_KERNEL_OR_STRIDE: &str = "PL003";
/// Shape: pooling precedes every weighted layer.
pub const SHAPE_LEADING_POOL: &str = "PL004";
/// Shape: a weighted layer produces zero outputs.
pub const SHAPE_ZERO_OUTPUTS: &str = "PL005";
/// Shape: the network has no weighted layers at all.
pub const SHAPE_NO_WEIGHTED_LAYERS: &str = "PL006";

/// Schedule: a buffer read hit overwritten data (undersized buffer).
pub const SCHED_STALE_READ: &str = "PL010";
/// Schedule: same-cycle read+write on one buffer (the paper duplicates it).
pub const SCHED_SAME_CYCLE: &str = "PL011";
/// Schedule: buffer deeper than the paper's `2(L−l)+1` requirement.
pub const SCHED_OVERSIZED: &str = "PL012";
/// Schedule: zero-depth buffer.
pub const SCHED_ZERO_DEPTH: &str = "PL013";
/// Schedule: depth vector length differs from the weighted-layer count.
pub const SCHED_DEPTH_LEN: &str = "PL014";

/// Mapping: replicated arrays exceed the crossbar budget.
pub const MAP_OVER_CAPACITY: &str = "PL020";
/// Mapping: invalid granularity vector (wrong length or zero entry).
pub const MAP_BAD_GRANULARITY: &str = "PL021";
/// Mapping: replication beyond the layer's window-position count.
pub const MAP_EXCESS_REPLICATION: &str = "PL022";
/// Mapping: spare-column budget incompatible with the array width.
pub const MAP_SPARES_EXCEED_ARRAY: &str = "PL023";
/// Mapping: expected dead columns (configured fault rate plus endurance
/// wear-out over a nominal training run) exceed the spare-column budget.
pub const MAP_SPARES_INSUFFICIENT: &str = "PL024";

/// Quant: data bits not a positive multiple of the cell bits (Fig. 14).
pub const QUANT_BITS_MISALIGNED: &str = "PL030";
/// Quant: data bits exceed the spike-coding slot limit.
pub const QUANT_SPIKE_OVERFLOW: &str = "PL031";
/// Quant: resolution outside the functional quantizer's range.
pub const QUANT_UNSUPPORTED_RESOLUTION: &str = "PL032";

/// Range: a forward activation bound exceeds the datapath's representable
/// activation range.
pub const RANGE_ACTIVATION_OVERFLOW: &str = "PL040";
/// Range: a backward error / weight-gradient bound exceeds the datapath's
/// representable gradient range.
pub const RANGE_GRADIENT_OVERFLOW: &str = "PL041";
/// Range: the bit-line accumulator is too narrow for a layer's worst-case
/// dot product.
pub const RANGE_ACC_TOO_NARROW: &str = "PL042";
/// Range: some output unit saturates on *every* input in the domain.
pub const RANGE_GUARANTEED_SATURATION: &str = "PL043";

/// Config: the accelerator configuration itself is invalid.
pub const CONFIG_INVALID: &str = "PL050";

/// Semantic: a public API function can transitively reach a panic site.
pub const SEM_PANIC_REACHABLE: &str = "PL060";
/// Semantic: a nondeterminism source (RNG / wall clock / hash iteration)
/// can reach a weight-or-report sink outside the seeded stream.
pub const SEM_NONDET_TAINT: &str = "PL062";

/// Semantic: operands with different physical units (or the same unit at
/// different decimal scales) meet at an add/sub/compare/assign.
pub const SEM_UNIT_MIXED: &str = "PL070";
/// Semantic: a binding's or function's suffix-declared unit disagrees with
/// the unit its initializer/body computes.
pub const SEM_UNIT_DECLARED: &str = "PL071";
/// Semantic: a dimensioned value flows into a bench-JSON/report sink whose
/// field name carries no (or the wrong) unit suffix.
pub const SEM_UNIT_SINK: &str = "PL072";

/// Every code with its one-line description, in code order — the table
/// behind `plcheck --codes` and DESIGN.md §6.3.
pub const CODE_TABLE: &[(&str, &str)] = &[
    (SHAPE_EMPTY_INPUT, "input or layer dimension is zero"),
    (
        SHAPE_WINDOW_TOO_BIG,
        "conv/pool window does not fit the input extent (shape mismatch)",
    ),
    (SHAPE_ZERO_KERNEL_OR_STRIDE, "kernel size or stride is zero"),
    (
        SHAPE_LEADING_POOL,
        "pooling layer precedes every weighted layer",
    ),
    (
        SHAPE_ZERO_OUTPUTS,
        "weighted layer produces zero output channels/neurons",
    ),
    (SHAPE_NO_WEIGHTED_LAYERS, "network has no weighted layers"),
    (
        SCHED_STALE_READ,
        "inter-layer buffer read hits overwritten data (undersized buffer, Sec. 3.3)",
    ),
    (
        SCHED_SAME_CYCLE,
        "buffer sees a same-cycle read+write; the paper duplicates it",
    ),
    (
        SCHED_OVERSIZED,
        "buffer deeper than the required 2(L-l)+1 (wasted memory subarrays)",
    ),
    (SCHED_ZERO_DEPTH, "buffer depth is zero"),
    (
        SCHED_DEPTH_LEN,
        "buffer-depth vector length differs from the weighted-layer count",
    ),
    (
        MAP_OVER_CAPACITY,
        "replicated conv arrays exceed the crossbar budget (over-capacity G)",
    ),
    (
        MAP_BAD_GRANULARITY,
        "granularity vector has the wrong length or a zero entry",
    ),
    (
        MAP_EXCESS_REPLICATION,
        "replication G exceeds the layer's window positions P",
    ),
    (
        MAP_SPARES_EXCEED_ARRAY,
        "spare-column budget incompatible with the crossbar width",
    ),
    (
        MAP_SPARES_INSUFFICIENT,
        "expected dead columns over a nominal training run exceed the spare budget",
    ),
    (
        QUANT_BITS_MISALIGNED,
        "data bits not a positive multiple of the cell bits (Fig. 14 segmenting)",
    ),
    (
        QUANT_SPIKE_OVERFLOW,
        "data bits exceed the 32-slot spike-coding limit (Fig. 9a)",
    ),
    (
        QUANT_UNSUPPORTED_RESOLUTION,
        "resolution outside the functional quantizer's 1..=24-bit range",
    ),
    (
        RANGE_ACTIVATION_OVERFLOW,
        "worst-case activation bound exceeds the datapath's activation range",
    ),
    (
        RANGE_GRADIENT_OVERFLOW,
        "worst-case error/weight-gradient bound exceeds the gradient range",
    ),
    (
        RANGE_ACC_TOO_NARROW,
        "bit-line accumulator too narrow for a layer's worst-case dot product",
    ),
    (
        RANGE_GUARANTEED_SATURATION,
        "an output unit saturates on every input in the domain",
    ),
    (CONFIG_INVALID, "accelerator configuration is invalid"),
    (
        SEM_PANIC_REACHABLE,
        "public API function can transitively reach a panic site",
    ),
    (
        SEM_NONDET_TAINT,
        "nondeterminism source reaches a weight/report sink outside the seed stream",
    ),
    (
        SEM_UNIT_MIXED,
        "operands with different physical units meet at an add/sub/compare",
    ),
    (
        SEM_UNIT_DECLARED,
        "suffix-declared unit disagrees with the unit the body computes",
    ),
    (
        SEM_UNIT_SINK,
        "dimensioned value reaches a report sink field without a unit suffix",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_sorted() {
        for pair in CODE_TABLE.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} !< {}", pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn render_and_json() {
        let d = Diagnostic::error("PL010", "buffer d2", "stale \"read\"", "deepen it");
        assert!(d.render().starts_with("error[PL010]: buffer d2: stale"));
        assert!(d.render().contains("help: deepen it"));
        let json = d.to_json();
        assert!(json.contains("\\\"read\\\""), "{json}");
        assert!(render_json(&[d.clone(), d]).starts_with("[{"));
    }

    #[test]
    fn severity_ordering_puts_error_on_top() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let w = Diagnostic::warning("PL012", "b", "m", "h");
        assert!(!has_errors(std::slice::from_ref(&w)));
        let e = Diagnostic::error("PL010", "b", "m", "h");
        assert!(has_errors(&[w, e]));
    }
}
