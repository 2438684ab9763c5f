//! Minimal argument parsing shared by every benchmark binary.

use std::path::PathBuf;

use harmony_index::BlockRepr;

/// Common benchmark knobs.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dataset cardinality multiplier vs the paper's Table 2 sizes.
    pub scale: f64,
    /// Queries per measurement.
    pub queries: usize,
    /// Worker machines (the paper's default is 4).
    pub workers: usize,
    /// Coarser sweeps for smoke runs.
    pub quick: bool,
    /// Output directory for CSV copies.
    pub out_dir: PathBuf,
    /// Block representation: exact f32 or SQ8 two-stage.
    pub repr: BlockRepr,
}

impl Default for BenchArgs {
    fn default() -> Self {
        let scale = std::env::var("HARMONY_BENCH_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.02);
        Self {
            scale,
            queries: 200,
            workers: 4,
            quick: false,
            out_dir: PathBuf::from("bench_results"),
            repr: BlockRepr::F32,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args()`. Unknown flags abort with usage.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument stream (testable).
    ///
    /// # Panics
    /// Panics on malformed flags — acceptable in a bench binary.
    pub fn parse_from(args: impl Iterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut take = |name: &str| -> String {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match arg.as_str() {
                "--scale" => out.scale = take("--scale").parse().expect("bad --scale"),
                "--queries" => out.queries = take("--queries").parse().expect("bad --queries"),
                "--workers" => out.workers = take("--workers").parse().expect("bad --workers"),
                "--out-dir" => out.out_dir = PathBuf::from(take("--out-dir")),
                "--quick" => out.quick = true,
                "--repr" => {
                    out.repr = match take("--repr").as_str() {
                        "f32" => BlockRepr::F32,
                        "sq8" => BlockRepr::Sq8,
                        other => panic!("bad --repr {other} (expected f32|sq8)"),
                    }
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--scale f] [--queries n] [--workers n] [--out-dir d] \
                         [--repr f32|sq8] [--quick]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        assert!(out.scale > 0.0, "--scale must be positive");
        assert!(out.queries > 0, "--queries must be positive");
        assert!(out.workers > 0, "--workers must be positive");
        out
    }

    /// Lowercase name of the selected block representation.
    pub fn repr_name(&self) -> &'static str {
        match self.repr {
            BlockRepr::F32 => "f32",
            BlockRepr::Sq8 => "sq8",
        }
    }

    /// Artifact name for the selected representation: the f32 baseline keeps
    /// the bare `base` name, sq8 runs get a `_sq8` suffix so both sets of
    /// CSV/JSON outputs can coexist in one `--out-dir`.
    pub fn out_name(&self, base: &str) -> String {
        match self.repr {
            BlockRepr::F32 => base.to_string(),
            BlockRepr::Sq8 => format!("{base}_sq8"),
        }
    }

    /// Queries clamped for quick mode.
    pub fn effective_queries(&self) -> usize {
        if self.quick {
            self.queries.min(50)
        } else {
            self.queries
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse(&[]);
        assert!(a.scale > 0.0);
        assert_eq!(a.workers, 4);
        assert!(!a.quick);
    }

    #[test]
    fn flags_override() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--queries",
            "10",
            "--workers",
            "8",
            "--quick",
        ]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.queries, 10);
        assert_eq!(a.workers, 8);
        assert!(a.quick);
        assert_eq!(a.effective_queries(), 10);
    }

    #[test]
    fn quick_clamps_queries() {
        let a = parse(&["--queries", "500", "--quick"]);
        assert_eq!(a.effective_queries(), 50);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }

    #[test]
    fn repr_flag_selects_representation() {
        assert!(matches!(parse(&[]).repr, BlockRepr::F32));
        assert!(matches!(parse(&["--repr", "f32"]).repr, BlockRepr::F32));
        assert!(matches!(parse(&["--repr", "sq8"]).repr, BlockRepr::Sq8));
    }

    #[test]
    #[should_panic(expected = "bad --repr")]
    fn bad_repr_panics() {
        parse(&["--repr", "fp16"]);
    }

    #[test]
    fn out_name_suffixes_sq8_only() {
        assert_eq!(parse(&[]).out_name("fig6"), "fig6");
        assert_eq!(parse(&["--repr", "sq8"]).out_name("fig6"), "fig6_sq8");
        assert_eq!(parse(&["--repr", "sq8"]).repr_name(), "sq8");
    }
}
