//! The funarc motivating example (Section II-B, Figure 2/3).

use crate::{substitute, ModelSize};
use prose_core::metrics::CorrectnessMetric;
use prose_core::tuner::ModelSpec;

const TEMPLATE: &str = include_str!("../fortran/funarc.f90");

/// The 8-atom arc-length program. All FP declarations in `funarc` and
/// `fun` are atoms except the `result` output — a 2⁸ = 256 variant space.
pub fn funarc(size: ModelSize) -> ModelSpec {
    let n = match size {
        ModelSize::Small => 300,
        // The classic funarc configuration integrates a million intervals;
        // at that scale the f32 accumulation error lands in the 1e-4..1e-3
        // band the paper's Figure 2 shows, and the 4e-4 threshold is
        // meaningful.
        ModelSize::Paper => 1_000_000,
    };
    ModelSpec {
        name: "funarc".into(),
        source: substitute(TEMPLATE, &[("__N__", n)]),
        hotspot_module: "funarc_mod".into(),
        target_procs: vec!["funarc".into(), "fun".into()],
        metric: CorrectnessMetric::ScalarSeriesL2 {
            key: "result".into(),
        },
        // The error threshold used in the motivating example's frontier
        // discussion (Figure 2: "given an error threshold of 4e-4 ...").
        error_threshold: 4.0e-4,
        n_runs: 1,
        noise_rsd: 0.0,
        exclude: vec!["result".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_core::tuner::PerfScope;
    use prose_fortran::ast::FpPrecision;
    use prose_fortran::PrecisionMap;
    use prose_interp::{run_program, RunConfig};

    #[test]
    fn has_exactly_eight_atoms() {
        let m = funarc(ModelSize::Small).load().unwrap();
        // s1, h, t1, t2, dppi (funarc) + x, t1, d1 (fun); `result` excluded.
        assert_eq!(
            m.atoms.len(),
            8,
            "{:?}",
            m.atoms
                .iter()
                .map(|a| m.index.fp_var_path(*a))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn baseline_computes_the_known_arc_length() {
        let m = funarc(ModelSize::Small).load().unwrap();
        let out = run_program(&m.program, &m.index, &RunConfig::default()).unwrap();
        let result = out.records.scalars["result"][0];
        // Arc length of x + sum 2^-k sin(2^k x) over [0, pi] ≈ 5.7957...
        assert!((result - 5.7957).abs() < 0.05, "result = {result}");
    }

    #[test]
    fn uniform_32_is_faster_and_less_accurate() {
        let m = funarc(ModelSize::Small).load().unwrap();
        let task = m.task(PerfScope::WholeModel, 1).unwrap();
        let mut eval = prose_core::DynamicEvaluator::new(&task).unwrap();
        let all32 = vec![true; m.atoms.len()];
        let rec = eval.eval_one(&all32);
        assert!(
            rec.outcome.speedup > 1.1,
            "uniform-32 speedup {}",
            rec.outcome.speedup
        );
        assert!(rec.outcome.error > 1e-8, "error {}", rec.outcome.error);
        assert!(rec.outcome.error < 1.0, "error {}", rec.outcome.error);
    }

    #[test]
    fn lowering_fun_x_requires_a_wrapper() {
        let m = funarc(ModelSize::Small).load().unwrap();
        let scope = m.index.scope_of_procedure("fun").unwrap();
        let mut map = PrecisionMap::declared(&m.index);
        map.set(m.index.fp_var_id(scope, "x").unwrap(), FpPrecision::Single);
        let v = prose_transform::make_variant(&m.program, &m.index, &map).unwrap();
        assert!(
            v.wrappers.iter().any(|w| w.starts_with("fun_w")),
            "{:?}",
            v.wrappers
        );
    }
}
