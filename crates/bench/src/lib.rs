//! # prose-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I — hotspot summary (module, % CPU time, # FP vars) |
//! | `table2` | Table II — variants explored per model, outcome percentages, best speedup |
//! | `fig2_funarc` | Figure 2 — funarc brute-force speedup/error scatter (+ the Figure 3 diff) |
//! | `fig5_hotspots` | Figure 5 — per-model scatter of DD-explored variants |
//! | `fig6_procedures` | Figure 6 — per-procedure per-call speedups of unique procedure variants |
//! | `fig7_whole_model` | Figure 7 — the whole-model-guided MPAS-A search |
//! | `ablation_static_filter` | Lessons-learned ablation: static cost model as a variant pre-filter |
//!
//! The three delta-debugging searches feeding Table II and Figures 5/6 are
//! expensive, so they run once and are cached as JSON under `results/`
//! (`searches.json`); every binary reuses the cache when present. Each
//! binary also emits CSV series next to its ASCII output and finishes with
//! the artifact-appendix validation checklist for its experiment.
//!
//! Run with `--release`; debug builds are an order of magnitude slower.

pub mod cache;
pub mod report;
pub mod validate;

use prose_core::tuner::{ModelSpec, PerfScope, VariantPath};
use prose_models::ModelSize;

/// Directory where all regenerated artifacts land.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::env::var("PROSE_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Workload scale for the harness: `PROSE_SIZE=small` flips everything to
/// the fast configuration (useful for smoke-testing the harness itself).
pub fn bench_size() -> ModelSize {
    match std::env::var("PROSE_SIZE").as_deref() {
        Ok("small") => ModelSize::Small,
        _ => ModelSize::Paper,
    }
}

/// The three weather/climate models of the case study (Table I/II order).
pub fn case_study_models(size: ModelSize) -> Vec<ModelSpec> {
    vec![
        prose_models::mpas::mpas_a(size),
        prose_models::adcirc::adcirc(size),
        prose_models::mom6::mom6(size),
    ]
}

/// Variant budget per model: MOM6 did not finish within the paper's
/// 12-hour wall; the budget is our analog of that cutoff.
pub fn variant_budget(model: &str) -> Option<usize> {
    match model {
        "mom6" => Some(300),
        _ => None,
    }
}

/// The performance scope each search uses (Section IV-B hotspot searches;
/// Section IV-C whole-model).
pub fn search_scope() -> PerfScope {
    PerfScope::Hotspot
}

/// Variant-generation path for every harness search: `--variant-path
/// fast|faithful` on any binary's command line (default fast).
pub fn variant_path() -> VariantPath {
    cli_flag("--variant-path")
        .and_then(|s| s.parse().ok())
        .unwrap_or_default()
}

/// Fast-path cross-check budget: the first K uncached evaluations per
/// search are re-run through the faithful pipeline and asserted
/// bit-identical (`--crosscheck K`, default 1).
pub fn crosscheck() -> usize {
    cli_flag("--crosscheck")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Worker-pool width for every harness search: `--workers N` on any
/// binary's command line (default 1 = serial). Results are identical at
/// any width; only wall clock changes.
pub fn workers() -> usize {
    cli_flag("--workers")
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Per-variant wall-clock deadline for every harness search:
/// `--deadline-ms MS` on any binary's command line (default: disabled).
/// Results are identical whenever the deadline never fires.
pub fn deadline_ms() -> Option<u64> {
    cli_flag("--deadline-ms")
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
}

/// Transient-failure retry budget for every harness search:
/// `--retry-attempts K` (default 0 = disabled).
pub fn retry_attempts() -> u32 {
    cli_flag("--retry-attempts")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The value following `flag` on this binary's command line.
fn cli_flag(flag: &str) -> Option<String> {
    let argv: Vec<String> = std::env::args().collect();
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1).cloned())
}
