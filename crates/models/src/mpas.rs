//! Miniature MPAS-A (the atmosphere model, Section IV-A/IV-B/IV-C).

use crate::{substitute, ModelSize};
use prose_core::metrics::CorrectnessMetric;
use prose_core::tuner::ModelSpec;

const TEMPLATE: &str = include_str!("../fortran/mpas_a.f90");

/// The split-explicit shallow-water atmosphere. Targets are the five work
/// routines of `atm_time_integration`; `atm_srk3` stays untargeted (it is
/// the full-precision boundary).
///
/// The error threshold follows the paper's MPAS-A protocol: it is set to
/// the error observed for the *uniform 32-bit* configuration of the same
/// metric (the developers ship a single-precision build; a variant passes
/// when it is no worse). The constant below was measured from this model's
/// uniform-32 variant at `Paper` size; the benches re-derive it at run
/// time and report both.
pub fn mpas_a(size: ModelSize) -> ModelSpec {
    let (nc, nz, steps, ns) = match size {
        ModelSize::Small => (48, 6, 8, 2),
        ModelSize::Paper => (150, 18, 30, 2),
    };
    ModelSpec {
        name: "mpas_a".into(),
        source: substitute(
            TEMPLATE,
            &[
                ("__NC__", nc),
                ("__NZ__", nz),
                ("__STEPS__", steps),
                ("__NS__", ns),
            ],
        ),
        hotspot_module: "atm_time_integration".into(),
        target_procs: vec![
            "atm_compute_dyn_tend_work".into(),
            "atm_advance_acoustic_step_work".into(),
            "atm_recover_large_step_variables_work".into(),
            "flux4".into(),
            "flux3".into(),
        ],
        metric: CorrectnessMetric::MaxOverSpaceL2OverTime {
            key: "ke".into(),
            floor_frac: 0.01,
        },
        error_threshold: uniform32_reference_error(size),
        n_runs: 1,
        noise_rsd: 0.01,
        exclude: vec![],
    }
}

/// The measured uniform-32 error of this model (the threshold per the
/// paper's protocol). Benches re-measure and assert agreement.
pub fn uniform32_reference_error(size: ModelSize) -> f64 {
    match size {
        // Measured by `official_32bit_error` and rounded down to two
        // significant figures, exactly the paper's convention (its 1.4e2
        // MPAS-A threshold is visibly a 2-sig-fig measurement). The
        // hotspot-only uniform-32 variant lands a hair above the bar, so
        // the search must find variants that beat the official
        // single-precision build — which exist: keeping the reference-
        // energy correction chain (phi0/gsum/gmean/bias) in 64-bit cuts
        // the error by more than an order of magnitude at ~4% cost.
        ModelSize::Small => 3.9e-3,
        ModelSize::Paper => 2.5e-2,
    }
}

/// Measure the error of the "official single-precision build": every FP
/// variable in the program lowered to 32-bit (the analog of compiling the
/// model with 32-bit reals, which MPAS-A supports). The benches re-derive
/// the threshold with this and assert it matches the constants above.
pub fn official_32bit_error(m: &prose_core::LoadedModel) -> Option<f64> {
    use prose_interp::{run_program, RunConfig};
    let base = run_program(&m.program, &m.index, &RunConfig::default()).ok()?;
    let mut full = prose_fortran::PrecisionMap::declared(&m.index);
    for v in m.index.fp_variables() {
        if !v.is_parameter {
            full.set(v.id, prose_fortran::ast::FpPrecision::Single);
        }
    }
    let vf = prose_transform::make_variant(&m.program, &m.index, &full).ok()?;
    let cfg = RunConfig {
        wrapper_names: vf.wrappers.iter().cloned().collect(),
        ..RunConfig::default()
    };
    let out = run_program(&vf.program, &vf.index, &cfg).ok()?;
    m.spec.metric.compute(&base.records, &out.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_core::tuner::PerfScope;
    use prose_interp::{run_program, RunConfig};

    #[test]
    fn baseline_runs_and_stays_finite() {
        let m = mpas_a(ModelSize::Small).load().unwrap();
        let out = run_program(&m.program, &m.index, &RunConfig::default()).unwrap();
        let ke = &out.records.arrays["ke"];
        assert_eq!(ke.len(), 8); // one snapshot per step
                                 // Waves develop: kinetic energy becomes nonzero.
        let last_max = ke.last().unwrap().iter().cloned().fold(0.0f64, f64::max);
        assert!(last_max > 1e-6, "max KE {last_max}");
        assert!(last_max < 1e4, "max KE {last_max}");
    }

    #[test]
    fn atom_inventory_covers_the_work_routines_only() {
        let m = mpas_a(ModelSize::Small).load().unwrap();
        assert!(m.atoms.len() >= 25, "atoms {}", m.atoms.len());
        for a in &m.atoms {
            let path = m.index.fp_var_path(*a);
            assert!(
                !path.contains("atm_srk3") && !path.contains("mpas_atm_"),
                "driver variable leaked into atoms: {path}"
            );
        }
    }

    #[test]
    fn hotspot_is_a_minority_share_of_the_model() {
        let m = mpas_a(ModelSize::Small).load().unwrap();
        let task = m.task(PerfScope::Hotspot, 3).unwrap();
        let eval = prose_core::DynamicEvaluator::new(&task).unwrap();
        let share = eval.baseline.hotspot_share();
        assert!(share > 0.05 && share < 0.45, "hotspot share {share}");
    }

    #[test]
    fn uniform_32_hotspot_speedup_is_large() {
        let m = mpas_a(ModelSize::Small).load().unwrap();
        let task = m.task(PerfScope::Hotspot, 3).unwrap();
        let mut eval = prose_core::DynamicEvaluator::new(&task).unwrap();
        let rec = eval.eval_one(&vec![true; m.atoms.len()]);
        assert!(
            rec.outcome.speedup > 1.5,
            "uniform-32 hotspot speedup {} ({:?}, {:?})",
            rec.outcome.speedup,
            rec.outcome.status,
            rec.detail
        );
    }

    #[test]
    fn uniform_32_whole_model_is_slower() {
        // The Figure-7 effect: boundary casting outweighs the hotspot gain.
        let m = mpas_a(ModelSize::Small).load().unwrap();
        let task = m.task(PerfScope::WholeModel, 3).unwrap();
        let mut eval = prose_core::DynamicEvaluator::new(&task).unwrap();
        let rec = eval.eval_one(&vec![true; m.atoms.len()]);
        assert!(
            rec.outcome.speedup < 0.9,
            "uniform-32 whole-model speedup {} (detail {:?})",
            rec.outcome.speedup,
            rec.detail
        );
    }
}
