//! Miniature ADCIRC (the coastal ocean model, Section IV-A/IV-B).

use crate::{substitute, ModelSize};
use prose_core::metrics::CorrectnessMetric;
use prose_core::tuner::ModelSpec;

const TEMPLATE: &str = include_str!("../fortran/adcirc.f90");

/// Tidal elevation on a sloping shelf; the hotspot is the `itpackv`
/// Jacobi-CG solver. Threshold 1.0e-1 on the running-max elevation field
/// (Section IV-A, set with domain-expert advice), n = 1 (1% RSD).
pub fn adcirc(size: ModelSize) -> ModelSpec {
    let (nn, steps, nsub) = match size {
        ModelSize::Small => (48, 10, 8),
        ModelSize::Paper => (120, 40, 24),
    };
    ModelSpec {
        name: "adcirc".into(),
        source: substitute(
            TEMPLATE,
            &[("__NN__", nn), ("__STEPS__", steps), ("__NSUB__", nsub)],
        ),
        hotspot_module: "itpackv".into(),
        target_procs: vec!["jcg".into(), "pjac".into(), "peror".into(), "pmult".into()],
        metric: CorrectnessMetric::FieldL2 {
            key: "etamax".into(),
        },
        error_threshold: 1.0e-1,
        n_runs: 1,
        noise_rsd: 0.01,
        exclude: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_core::tuner::PerfScope;
    use prose_interp::{run_program, RunConfig};

    #[test]
    fn baseline_tides_propagate_and_solver_converges() {
        let m = adcirc(ModelSize::Small).load().unwrap();
        let out = run_program(&m.program, &m.index, &RunConfig::default()).unwrap();
        let etamax = out.records.arrays["etamax"].last().unwrap();
        // The tide reaches into the domain.
        assert!(etamax[0] > 0.05, "etamax near boundary {}", etamax[0]);
        assert!(etamax.iter().all(|x| x.is_finite() && *x < 10.0));
        // The CG solver converges in a handful of iterations (not itmax).
        let iters = &out.records.scalars["iters"];
        let avg: f64 = iters.iter().sum::<f64>() / iters.len() as f64;
        assert!((2.0..40.0).contains(&avg), "average CG iterations {avg}");
    }

    #[test]
    fn uniform_32_is_executable_with_modest_speedup() {
        // Documented deviation from the paper (see EXPERIMENTS.md): our
        // miniature's JCG stays numerically benign in single precision, so
        // uniform-32 passes the threshold instead of failing it. What does
        // reproduce: the modest speedup (the paper's best passing variant
        // was ~1.1×) because pjac's recurrence and peror's MPI latency
        // don't benefit from f32.
        let m = adcirc(ModelSize::Small).load().unwrap();
        let task = m.task(PerfScope::Hotspot, 5).unwrap();
        let mut eval = prose_core::DynamicEvaluator::new(&task).unwrap();
        let rec = eval.eval_one(&vec![true; m.atoms.len()]);
        assert!(
            rec.outcome.speedup > 1.02 && rec.outcome.speedup < 1.6,
            "uniform-32 hotspot speedup {} (paper band ~1.1x)",
            rec.outcome.speedup
        );
        assert!(rec.outcome.error.is_finite());
    }

    #[test]
    fn peror_and_pjac_gain_little_from_f32() {
        // Figure 6's ADCIRC panel: the two most expensive procedures do
        // not benefit much from reduced precision (MPI latency; recurrence).
        let m = adcirc(ModelSize::Small).load().unwrap();
        let base = run_program(&m.program, &m.index, &RunConfig::default()).unwrap();
        let mut map = prose_fortran::PrecisionMap::declared(&m.index);
        for a in &m.atoms {
            map.set(*a, prose_fortran::ast::FpPrecision::Single);
        }
        let v = prose_transform::make_variant(&m.program, &m.index, &map).unwrap();
        let cfg = RunConfig {
            wrapper_names: v.wrappers.iter().cloned().collect(),
            ..RunConfig::default()
        };
        let out32 = run_program(&v.program, &v.index, &cfg).unwrap();
        for proc in ["peror", "pjac"] {
            let b = base.timers.get(proc).unwrap().per_call();
            let w = out32.timers.get(proc).unwrap().per_call();
            let speedup = b / w;
            assert!(
                speedup < 1.5,
                "{proc} per-call speedup {speedup} should be small"
            );
        }
    }

    #[test]
    fn hotspot_share_is_minority() {
        let m = adcirc(ModelSize::Small).load().unwrap();
        let task = m.task(PerfScope::Hotspot, 5).unwrap();
        let eval = prose_core::DynamicEvaluator::new(&task).unwrap();
        let share = eval.baseline.hotspot_share();
        assert!(share > 0.04 && share < 0.5, "hotspot share {share}");
    }

    #[test]
    fn atoms_live_in_the_solver_only() {
        let m = adcirc(ModelSize::Small).load().unwrap();
        assert!(m.atoms.len() >= 20, "atoms {}", m.atoms.len());
        for a in &m.atoms {
            let path = m.index.fp_var_path(*a);
            assert!(path.starts_with("itpackv::"), "{path}");
        }
    }
}
