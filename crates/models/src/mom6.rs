//! Miniature MOM6 (the large-scale ocean model, Section IV-A/IV-B).

use crate::{substitute, ModelSize};
use prose_core::metrics::CorrectnessMetric;
use prose_core::tuner::ModelSpec;

const TEMPLATE: &str = include_str!("../fortran/mom6.f90");

/// Layered continuity with PPM reconstruction and iterative flux
/// adjustment. Threshold 2.5e-1 on the max-CFL series (Section IV-A), and
/// n = 7 because the model's timing noise is large (9% RSD).
pub fn mom6(size: ModelSize) -> ModelSpec {
    let (nx, ny, nz, steps, itmax) = match size {
        ModelSize::Small => (14, 8, 8, 6, 60),
        ModelSize::Paper => (24, 12, 35, 15, 60),
    };
    ModelSpec {
        name: "mom6".into(),
        source: substitute(
            TEMPLATE,
            &[
                ("__NX__", nx),
                ("__NY__", ny),
                ("__NZ__", nz),
                ("__STEPS__", steps),
                ("__ITMAX__", itmax),
            ],
        ),
        hotspot_module: "mom_continuity_ppm".into(),
        target_procs: vec![
            "continuity_ppm".into(),
            "zonal_mass_flux".into(),
            "merid_mass_flux".into(),
            "zonal_flux_adjust".into(),
            "merid_flux_adjust".into(),
            "ppm_reconstruction".into(),
            "ppm_limit_pos".into(),
            "check_recon".into(),
            "row_transport".into(),
        ],
        metric: CorrectnessMetric::ScalarSeriesL2 { key: "cfl".into() },
        error_threshold: 2.5e-1,
        n_runs: 7,
        noise_rsd: 0.09,
        exclude: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_core::tuner::PerfScope;
    use prose_interp::{run_program, RunConfig, RunError};

    #[test]
    fn baseline_runs_with_fast_flux_adjust_convergence() {
        let m = mom6(ModelSize::Small).load().unwrap();
        let out = run_program(&m.program, &m.index, &RunConfig::default()).unwrap();
        let cfl = &out.records.scalars["cfl"];
        assert_eq!(cfl.len(), 6);
        assert!(
            cfl.iter().all(|c| c.is_finite() && *c > 0.0 && *c < 1.0),
            "{cfl:?}"
        );
        // The adjusters converge far below itmax in double precision:
        // their share of hotspot time is modest.
        let adjust = out.timers.get("zonal_flux_adjust").unwrap();
        let calls_per_step = adjust.calls as f64 / 6.0;
        assert!(calls_per_step >= 1.0);
    }

    #[test]
    fn uniform_32_runs_to_itmax_and_slows_down() {
        let m = mom6(ModelSize::Small).load().unwrap();
        let task = m.task(PerfScope::Hotspot, 9).unwrap();
        let eval = prose_core::DynamicEvaluator::new(&task).unwrap();
        let map =
            prose_core::tuner::config_to_map(&task.index, &task.atoms, &vec![true; m.atoms.len()]);
        let v = prose_transform::make_variant(&m.program, &m.index, &map).unwrap();
        let cfg = RunConfig {
            wrapper_names: v.wrappers.iter().cloned().collect(),
            ..RunConfig::default()
        };
        let out32 = run_program(&v.program, &v.index, &cfg)
            .expect("uniformly-lowered MOM6 stays executable");
        let base = &eval.baseline.outcome;
        let t32 = out32.timers.get("zonal_flux_adjust").unwrap().per_call();
        let t64 = base.timers.get("zonal_flux_adjust").unwrap().per_call();
        let slowdown = t32 / t64;
        assert!(
            slowdown > 3.0,
            "expected flux_adjust to run to itmax in f32: slowdown {slowdown}"
        );
    }

    #[test]
    fn mixed_precision_reconstruction_trips_the_fatal_check() {
        // Split the hl/hr face arrays across precisions: the consistency
        // check must abort (stop 24) — the 95%-runtime-error mechanism.
        let m = mom6(ModelSize::Small).load().unwrap();
        let mut map = prose_fortran::PrecisionMap::declared(&m.index);
        let recon = m.index.scope_of_procedure("ppm_reconstruction").unwrap();
        map.set(
            m.index.fp_var_id(recon, "hl").unwrap(),
            prose_fortran::ast::FpPrecision::Single,
        );
        let v = prose_transform::make_variant(&m.program, &m.index, &map).unwrap();
        let cfg = RunConfig {
            wrapper_names: v.wrappers.iter().cloned().collect(),
            ..RunConfig::default()
        };
        let err = run_program(&v.program, &v.index, &cfg).expect_err("mixed hl/hr must abort");
        assert!(
            matches!(
                err,
                RunError::Stop { code: 21 }
                    | RunError::Stop { code: 24 }
                    | RunError::NonFinite { .. }
            ),
            "unexpected failure mode: {err}"
        );
    }

    #[test]
    fn hotspot_share_is_small() {
        let m = mom6(ModelSize::Small).load().unwrap();
        let task = m.task(PerfScope::Hotspot, 9).unwrap();
        let eval = prose_core::DynamicEvaluator::new(&task).unwrap();
        let share = eval.baseline.hotspot_share();
        assert!(share > 0.03 && share < 0.6, "hotspot share {share}");
    }
}
