//! Integration tests spanning the whole pipeline: front end → analyses →
//! transformation → interpretation → search, on real model sources.

use prose::core::tuner::{config_to_map, tune, PerfScope};
use prose::fortran::{analyze, parse_program, unparse, PrecisionMap};
use prose::models::{adcirc, funarc, mom6, mpas, ModelSize};
use prose::search::Status;

/// Every bundled model round-trips through unparse → parse → analyze.
#[test]
fn all_model_sources_round_trip() {
    for spec in prose::models::all_models(ModelSize::Small) {
        let p1 = parse_program(&spec.source).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let text = unparse(&p1);
        let p2 = parse_program(&text).unwrap_or_else(|e| panic!("{} reparse: {e}", spec.name));
        assert_eq!(p1, p2, "{} round trip", spec.name);
        analyze(&p2).unwrap_or_else(|e| panic!("{} analyze: {e}", spec.name));
    }
}

/// Uniform-64 variants are exact no-ops: same records, same cycles.
#[test]
fn identity_variant_reproduces_baseline_bit_for_bit() {
    for spec in prose::models::all_models(ModelSize::Small) {
        let m = spec.load().unwrap();
        let base = prose::interp::run_program(&m.program, &m.index, &Default::default()).unwrap();
        let map = PrecisionMap::declared(&m.index);
        let v = prose::transform::make_variant(&m.program, &m.index, &map).unwrap();
        assert!(v.wrappers.is_empty());
        let again = prose::interp::run_program(&v.program, &v.index, &Default::default()).unwrap();
        assert_eq!(base.records.scalars, again.records.scalars, "{}", spec.name);
        assert_eq!(base.records.arrays, again.records.arrays, "{}", spec.name);
        assert_eq!(base.total_cycles, again.total_cycles, "{}", spec.name);
    }
}

/// Every generated variant of every model is valid source: it re-parses,
/// re-analyzes, and its flow graph has no mismatched edges.
#[test]
fn random_variants_always_transform_cleanly() {
    use prose::analysis::flow::FpFlowGraph;
    for spec in prose::models::all_models(ModelSize::Small) {
        let m = spec.load().unwrap();
        // Deterministic pseudo-random configs.
        let mut state: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..12 {
            let map = {
                let mut map = PrecisionMap::declared(&m.index);
                for a in &m.atoms {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if state >> 62 & 1 == 1 {
                        map.set(*a, prose::fortran::ast::FpPrecision::Single);
                    }
                }
                map
            };
            let v = prose::transform::make_variant(&m.program, &m.index, &map)
                .unwrap_or_else(|e| panic!("{}: transform failed: {e}", spec.name));
            let g = FpFlowGraph::build(&v.program, &v.index);
            assert!(
                g.invariant_holds(&v.index, &PrecisionMap::declared(&v.index)),
                "{}: flow invariant broken",
                spec.name
            );
        }
    }
}

/// The funarc brute force enumerates the full space and its optimum beats
/// uniform-32 on error while approaching its speedup (the Figure-2 story).
#[test]
fn funarc_brute_force_finds_the_frontier() {
    let m = funarc::funarc(ModelSize::Small).load().unwrap();
    let task = m.task(PerfScope::WholeModel, 7).unwrap();
    let out = prose::core::tuner::tune_brute_force(&task).unwrap();
    assert_eq!(out.variants.len(), 256);
    let uniform32 = out
        .variants
        .iter()
        .find(|v| v.config.iter().all(|b| *b))
        .unwrap();
    // The paper's Figure-3 variant: everything 32-bit except `s1`, the
    // arc-length accumulator — almost as fast as uniform-32 with less
    // error. (At the bench's n=1e6 scale the error gap is ~5x; at this
    // test's n=300 it is smaller but still strict.)
    let funarc_scope = m.index.scope_of_procedure("funarc").unwrap();
    let s1 = m.index.fp_var_id(funarc_scope, "s1").unwrap();
    let s1_pos = m.atoms.iter().position(|a| *a == s1).unwrap();
    let fig3 = out
        .variants
        .iter()
        .find(|v| {
            v.config
                .iter()
                .enumerate()
                .all(|(i, b)| *b == (i != s1_pos))
        })
        .expect("the keep-s1 variant was enumerated");
    assert!(
        fig3.outcome.error < uniform32.outcome.error,
        "keep-s1 error {} vs uniform-32 {}",
        fig3.outcome.error,
        uniform32.outcome.error
    );
    assert!(
        fig3.outcome.speedup > 1.1,
        "keep-s1 speedup {}",
        fig3.outcome.speedup
    );
    assert!(fig3.outcome.speedup > 0.85 * uniform32.outcome.speedup);
}

/// The MPAS-A headline: the hotspot search finds a 1-minimal variant close
/// to 2x that is more accurate than the uniform 32-bit configuration.
#[test]
fn mpas_search_reproduces_the_headline() {
    let m = mpas::mpas_a(ModelSize::Small).load().unwrap();
    let task = m.task(PerfScope::Hotspot, 11).unwrap();
    let out = tune(&task).unwrap();
    let s = out.search.status_summary();
    assert!(s.best_speedup > 1.7, "best speedup {}", s.best_speedup);
    assert!(out.search.one_minimal);
    // The final variant keeps only a handful of 64-bit variables.
    let high = out.search.final_config.iter().filter(|b| !**b).count();
    assert!(high <= 8, "{high} variables still 64-bit");
    // And it is more accurate than uniform 32-bit.
    let best = out.search.best.unwrap();
    let uniform = out
        .variants
        .iter()
        .find(|v| v.config.iter().all(|b| *b))
        .expect("uniform-32 was explored");
    assert!(best.outcome.error < uniform.outcome.error);
}

/// MPAS-A whole-model guidance inverts the outcome (Figure 7): the same
/// hotspot that tunes to ~2x cannot beat 1.1x when boundary casting counts.
#[test]
fn mpas_whole_model_search_shows_the_boundary_cost() {
    let m = mpas::mpas_a(ModelSize::Small).load().unwrap();
    let task = m.task(PerfScope::WholeModel, 11).unwrap();
    let out = tune(&task).unwrap();
    let s = out.search.status_summary();
    assert!(s.best_speedup < 1.1, "whole-model best {}", s.best_speedup);
    // Uniform-32 is a significant whole-model slowdown.
    let uniform = out
        .variants
        .iter()
        .find(|v| v.config.iter().all(|b| *b))
        .expect("uniform-32 explored");
    assert!(
        uniform.outcome.speedup < 0.75,
        "uniform-32 whole-model speedup {}",
        uniform.outcome.speedup
    );
}

/// MOM6's pathologies: a mixed-precision reconstruction aborts; the
/// uniformly-lowered adjusters run to itmax (10x+ slower per call).
#[test]
fn mom6_pathologies_reproduce() {
    let m = mom6::mom6(ModelSize::Small).load().unwrap();
    // Mixed hl/hr in the reconstruction: fatal consistency check.
    let recon = m.index.scope_of_procedure("ppm_reconstruction").unwrap();
    let mut map = PrecisionMap::declared(&m.index);
    map.set(
        m.index.fp_var_id(recon, "hl").unwrap(),
        prose::fortran::ast::FpPrecision::Single,
    );
    let v = prose::transform::make_variant(&m.program, &m.index, &map).unwrap();
    let cfg = prose::interp::RunConfig {
        wrapper_names: v.wrappers.iter().cloned().collect(),
        ..Default::default()
    };
    let err = prose::interp::run_program(&v.program, &v.index, &cfg).unwrap_err();
    assert!(matches!(
        err,
        prose::interp::RunError::Stop { .. } | prose::interp::RunError::NonFinite { .. }
    ));
}

/// ADCIRC: the solver hotspot yields only a small uniform-32 speedup
/// because its expensive procedures defeat vectorization (criterion 1).
#[test]
fn adcirc_speedup_is_minimal() {
    let m = adcirc::adcirc(ModelSize::Small).load().unwrap();
    let task = m.task(PerfScope::Hotspot, 5).unwrap();
    let mut eval = prose::core::DynamicEvaluator::new(&task).unwrap();
    let rec = eval.eval_one(&vec![true; m.atoms.len()]);
    assert!(matches!(rec.outcome.status, Status::Pass));
    assert!(
        rec.outcome.speedup < 1.6,
        "ADCIRC uniform-32 speedup {} should be modest",
        rec.outcome.speedup
    );
}

/// The search's chosen configuration can be materialized as Fortran text
/// and the text alone reproduces the measured behaviour (the artifact is
/// the source, not the in-memory AST).
#[test]
fn final_variant_text_is_self_contained() {
    let m = funarc::funarc(ModelSize::Small).load().unwrap();
    let task = m.task(PerfScope::WholeModel, 3).unwrap();
    let out = tune(&task).unwrap();
    let map = config_to_map(&m.index, &m.atoms, &out.search.final_config);
    let v = prose::transform::make_variant(&m.program, &m.index, &map).unwrap();
    // Parse the emitted text from scratch and run it.
    let reparsed = parse_program(&v.text).unwrap();
    let index = analyze(&reparsed).unwrap();
    let cfg = prose::interp::RunConfig {
        wrapper_names: v.wrappers.iter().cloned().collect(),
        ..Default::default()
    };
    let run = prose::interp::run_program(&reparsed, &index, &cfg).unwrap();
    assert!(run.records.scalars.contains_key("result"));
}
