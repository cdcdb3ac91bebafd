//! # encore-workloads
//!
//! Synthetic stand-ins for the evaluation workloads of the Encore paper
//! (Feng et al., MICRO 2011): six SPEC2000-integer, five
//! SPEC2000-floating-point and twelve Mediabench kernels, written
//! against the [`encore_ir`] builder.
//!
//! The real benchmarks cannot be compiled onto our from-scratch IR, so
//! each kernel reproduces the *memory-update structure* that determines
//! idempotence behavior — hash-table and counter read-modify-writes in
//! the integer codes, buffer-to-buffer streaming in the FP codes,
//! block transforms with small codec state in the media codes — which is
//! the property the paper's figures actually measure. See `DESIGN.md`
//! §2 for the substitution argument.
//!
//! # Examples
//!
//! ```
//! let workloads = encore_workloads::all();
//! assert_eq!(workloads.len(), 23);
//! let gzip = encore_workloads::by_name("164.gzip").unwrap();
//! assert_eq!(gzip.suite, encore_workloads::Suite::Spec2kInt);
//! encore_ir::verify_module(&gzip.module).unwrap();
//! ```

#![warn(missing_docs)]

mod fpbench;
pub mod fuzz;
mod intbench;
mod mediabench;
mod scale;
mod util;

pub use scale::scale_module;
pub use util::lcg_data;

use encore_ir::{FuncId, Module};

/// Benchmark suite grouping (the paper's three column groups).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Suite {
    /// SPEC2000 integer.
    Spec2kInt,
    /// SPEC2000 floating point.
    Spec2kFp,
    /// Mediabench.
    Mediabench,
}

impl Suite {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Suite::Spec2kInt => "SPEC2K-INT",
            Suite::Spec2kFp => "SPEC2K-FP",
            Suite::Mediabench => "MEDIABENCH",
        }
    }

    /// All suites in figure order.
    pub fn all() -> [Suite; 3] {
        [Suite::Spec2kInt, Suite::Spec2kFp, Suite::Mediabench]
    }

    /// Parses a suite selector: the figure label (`"SPEC2K-INT"`, any
    /// case) or its compact spelling (`"spec2kint"`).
    pub fn parse(s: &str) -> Option<Suite> {
        let key: String =
            s.chars().filter(|c| c.is_ascii_alphanumeric()).map(|c| c.to_ascii_lowercase()).collect();
        match key.as_str() {
            "spec2kint" => Some(Suite::Spec2kInt),
            "spec2kfp" => Some(Suite::Spec2kFp),
            "mediabench" => Some(Suite::Mediabench),
            _ => None,
        }
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One benchmark: a module, its entry point and its inputs.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (paper spelling, e.g. `"164.gzip"`).
    pub name: &'static str,
    /// Suite the benchmark belongs to.
    pub suite: Suite,
    /// One-line description of the modeled kernel.
    pub description: &'static str,
    /// The IR module.
    pub module: Module,
    /// Entry function (takes one integer size/iteration parameter).
    pub entry: FuncId,
    /// Entry argument for profiling (training) runs.
    pub train_arg: i64,
    /// Entry argument for evaluation runs.
    pub eval_arg: i64,
    /// Size factor relative to the hand-written kernel (1 = unscaled).
    pub scale: u32,
}

impl Workload {
    /// The workload's addressable spelling: the plain name at scale 1,
    /// `name@Nx` otherwise (the form [`by_spec`] parses back).
    pub fn spec(&self) -> String {
        if self.scale == 1 {
            self.name.to_string()
        } else {
            format!("{}@{}x", self.name, self.scale)
        }
    }

    /// A `factor`-times-larger variant of this workload: every global
    /// grows `factor×` (initial data tiled to match) and both entry
    /// arguments are multiplied by `factor`, so iteration counts and
    /// memory footprints scale together. See [`scale_module`] for why
    /// this is trap-free on the whole suite.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled(&self, factor: u32) -> Workload {
        assert!(factor > 0, "scale factor must be positive");
        if factor == 1 {
            return self.clone();
        }
        Workload {
            module: scale_module(&self.module, factor),
            train_arg: self.train_arg * factor as i64,
            eval_arg: self.eval_arg * factor as i64,
            scale: self.scale * factor,
            ..self.clone()
        }
    }
}

/// One workload: name, suite, description, module builder (returning
/// the module and its entry function), training argument and
/// evaluation argument.
type Row = (&'static str, Suite, &'static str, fn() -> (Module, FuncId), i64, i64);

/// The 23 workloads in the paper's figure order.
#[rustfmt::skip]
const TABLE: [Row; 23] = {
    use Suite::*;
    [
        ("164.gzip", Spec2kInt, "LZ hash-chain compressor", intbench::build_gzip, 128, 254),
        ("175.vpr", Spec2kInt, "annealing placement with one-time allocation", intbench::build_vpr, 200, 400),
        ("181.mcf", Spec2kInt, "in-place network-simplex relaxation", intbench::build_mcf, 4, 8),
        ("197.parser", Spec2kInt, "tokenizer with dictionary counters", intbench::build_parser, 128, 256),
        ("256.bzip2", Spec2kInt, "move-to-front coder", intbench::build_bzip2, 96, 192),
        ("300.twolf", Spec2kInt, "cell-placement refinement", intbench::build_twolf, 200, 400),
        ("172.mgrid", Spec2kFp, "multigrid stencil smoother", fpbench::build_mgrid, 64, 128),
        ("173.applu", Spec2kFp, "SSOR sweep with norm accumulator", fpbench::build_applu, 64, 128),
        ("177.mesa", Spec2kFp, "vertex transform with depth buffer", fpbench::build_mesa, 48, 96),
        ("179.art", Spec2kFp, "ART winner-take-all network", fpbench::build_art, 3, 6),
        ("183.equake", Spec2kFp, "sparse matvec with residual", fpbench::build_equake, 4, 8),
        ("cjpeg", Mediabench, "forward block transform + quantize", mediabench::build_cjpeg, 12, 24),
        ("djpeg", Mediabench, "dequantize + inverse block transform", mediabench::build_djpeg, 12, 24),
        ("epic", Mediabench, "image-pyramid analysis (aliased offsets)", mediabench::build_epic, 64, 128),
        ("unepic", Mediabench, "image-pyramid synthesis", mediabench::build_unepic, 64, 128),
        ("g721encode", Mediabench, "ADPCM encoder, 4-tap predictor", mediabench::build_g721encode, 128, 256),
        ("g721decode", Mediabench, "ADPCM decoder, 4-tap predictor", mediabench::build_g721decode, 128, 256),
        ("mpeg2dec", Mediabench, "motion compensation", mediabench::build_mpeg2dec, 96, 192),
        ("mpeg2enc", Mediabench, "SAD motion estimation", mediabench::build_mpeg2enc, 4, 8),
        ("pegwitdec", Mediabench, "chained block decryption", mediabench::build_pegwitdec, 24, 48),
        ("pegwitenc", Mediabench, "chained block encryption", mediabench::build_pegwitenc, 24, 48),
        ("rawcaudio", Mediabench, "2-tap ADPCM encoder", mediabench::build_rawcaudio, 128, 256),
        ("rawdaudio", Mediabench, "2-tap ADPCM decoder", mediabench::build_rawdaudio, 128, 256),
    ]
};

/// The workload of one table row, with its module built.
fn build(&(name, suite, description, builder, train_arg, eval_arg): &Row) -> Workload {
    let (module, entry) = builder();
    Workload { name, suite, description, module, entry, train_arg, eval_arg, scale: 1 }
}

/// Builds all 23 workloads in the paper's figure order.
pub fn all() -> Vec<Workload> {
    TABLE.iter().map(build).collect()
}

/// Builds the workload named `name` (paper spelling).
pub fn by_name(name: &str) -> Option<Workload> {
    TABLE.iter().find(|row| row.0 == name).map(build)
}

/// Names of all workloads, in figure order.
pub fn names() -> Vec<&'static str> {
    TABLE.iter().map(|row| row.0).collect()
}

/// Splits a workload spec into its base name and scale factor: plain
/// names mean scale 1, `name@Nx` means scale `N` (`N ≥ 1`). Returns
/// `None` for a malformed scale suffix — the *name* part is not
/// validated here, so lookup misses can be reported separately.
pub fn parse_spec(spec: &str) -> Option<(&str, u32)> {
    let Some((base, suffix)) = spec.rsplit_once('@') else {
        return Some((spec, 1));
    };
    let digits = suffix.strip_suffix('x')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let factor: u32 = digits.parse().ok()?;
    if factor == 0 {
        return None;
    }
    Some((base, factor))
}

/// Builds the workload addressed by `spec`: a plain name (paper
/// spelling) or the scaled form `name@Nx`, e.g. `rawdaudio@10x`.
pub fn by_spec(spec: &str) -> Option<Workload> {
    let (base, factor) = parse_spec(spec)?;
    Some(by_name(base)?.scaled(factor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use encore_ir::verify_module;

    #[test]
    fn twenty_three_workloads() {
        let ws = all();
        assert_eq!(ws.len(), 23);
        for (suite, n) in [(Suite::Spec2kInt, 6), (Suite::Spec2kFp, 5), (Suite::Mediabench, 12)] {
            assert_eq!(ws.iter().filter(|w| w.suite == suite).count(), n, "{suite}");
        }
    }

    #[test]
    fn all_verify_and_have_unique_names() {
        let ws = all();
        let mut names = std::collections::BTreeSet::new();
        for w in &ws {
            verify_module(&w.module).unwrap_or_else(|e| panic!("{}: {:?}", w.name, e));
            assert!(names.insert(w.name), "duplicate workload {}", w.name);
            assert!(w.train_arg > 0 && w.eval_arg > 0);
            assert!(w.train_arg < w.eval_arg, "{}: train must be smaller", w.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("rawcaudio").is_some());
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn spec_parsing_and_scaled_lookup() {
        assert_eq!(parse_spec("rawdaudio"), Some(("rawdaudio", 1)));
        assert_eq!(parse_spec("rawdaudio@10x"), Some(("rawdaudio", 10)));
        assert_eq!(parse_spec("164.gzip@100x"), Some(("164.gzip", 100)));
        assert_eq!(parse_spec("rawdaudio@x"), None);
        assert_eq!(parse_spec("rawdaudio@0x"), None);
        assert_eq!(parse_spec("rawdaudio@10"), None);
        assert_eq!(parse_spec("rawdaudio@ten-x"), None);

        let w = by_spec("rawdaudio@10x").expect("scaled lookup");
        assert_eq!(w.scale, 10);
        assert_eq!(w.spec(), "rawdaudio@10x");
        let base = by_name("rawdaudio").unwrap();
        assert_eq!(w.train_arg, base.train_arg * 10);
        assert_eq!(w.eval_arg, base.eval_arg * 10);
        assert_eq!(by_name("rawdaudio").unwrap().spec(), "rawdaudio");
        assert!(by_spec("nonexistent@10x").is_none());
        assert!(by_spec("rawdaudio@0x").is_none());
    }

    #[test]
    fn suite_selector_parsing() {
        assert_eq!(Suite::parse("SPEC2K-INT"), Some(Suite::Spec2kInt));
        assert_eq!(Suite::parse("spec2kint"), Some(Suite::Spec2kInt));
        assert_eq!(Suite::parse("spec2k-fp"), Some(Suite::Spec2kFp));
        assert_eq!(Suite::parse("MediaBench"), Some(Suite::Mediabench));
        assert_eq!(Suite::parse("rawdaudio"), None);
    }

    #[test]
    fn modules_are_nontrivial() {
        for w in all() {
            assert!(
                w.module.static_inst_count() >= 20,
                "{} too small: {} insts",
                w.name,
                w.module.static_inst_count()
            );
        }
    }
}
