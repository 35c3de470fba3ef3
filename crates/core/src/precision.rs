//! The numeric execution mode of the scan backends.
//!
//! The scan-dominated solvers (BMM, LEMP, MAXIMUS) can run their prune/scan
//! phase over a symmetric int8 mirror of the factor block with exact
//! integer dots ([`mips_topk::screen_i8`]) and rescore the surviving
//! candidates in f64. Because the rescore uses the exact same f64 reduction
//! as the direct path, both modes are **bit-identical** in their results —
//! the choice is purely a performance decision, which is why OPTIMUS can
//! make it per plan under [`Precision::Auto`].

/// How an engine (or one prepared plan) executes scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Pure double precision everywhere (the default).
    #[default]
    F64,
    /// Int8 screen — exact integer dots over per-row-scaled symmetric codes
    /// with a quantization envelope — and exact f64 rescore of the
    /// survivors. Bit-identical results to [`Precision::F64`]. Backends
    /// without an i8 path — and models whose quantization degenerates
    /// (subnormal rows, factor counts past the i32-overflow cap) — silently
    /// serve f64-direct.
    I8Rescore,
    /// Let OPTIMUS cost the int8 screen against f64-direct per backend and
    /// pick the sampled winner. Never slower than the best of the modes on
    /// the sample.
    Auto,
}

impl Precision {
    /// Stable lowercase wire name (`/metrics`, bench row identity).
    pub fn as_str(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::I8Rescore => "i8-rescore",
            Precision::Auto => "auto",
        }
    }

    /// Parses the wire name produced by [`Precision::as_str`].
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f64" => Some(Precision::F64),
            "i8-rescore" => Some(Precision::I8Rescore),
            "auto" => Some(Precision::Auto),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The scan a screening backend is built for: f64-direct, or the int8
/// screen with an exact f64 rescore. A build-time choice, unlike
/// [`Precision`], which also has the planner-decided [`Precision::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanTier {
    /// Every score computed directly in f64.
    #[default]
    F64,
    /// Int8 screen, exact f64 rescore of the survivors. A model whose
    /// quantization degenerates builds an f64-direct solver instead.
    I8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for p in [Precision::F64, Precision::I8Rescore, Precision::Auto] {
            assert_eq!(Precision::parse(p.as_str()), Some(p));
            assert_eq!(format!("{p}"), p.as_str());
        }
        assert_eq!(Precision::parse("f32-rescore"), None);
        assert_eq!(Precision::default(), Precision::F64);
    }
}
