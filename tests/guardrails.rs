//! Integration tests for the numerical guardrails: shadow-precision
//! execution demoting metric-passing but numerically rotten variants, and
//! held-out ensemble validation demoting input-overfit configurations.

use prose::core::ensemble::{validate_ensemble, EnsembleParams};
use prose::core::tuner::{tune, PerfScope, TuningOutcome};
use prose::core::{DynamicEvaluator, FailureKind};
use prose::models::{guardrail, ModelSize};
use prose::search::{SearchResult, Status};
use prose::trace::Counters;

/// Atom indices by variable name for the guardrail model.
fn atom_index(m: &prose::core::tuner::LoadedModel, name: &str) -> usize {
    m.atoms
        .iter()
        .position(|a| m.index.fp_var(*a).name == name)
        .unwrap_or_else(|| panic!("no atom named {name}"))
}

fn config_for(m: &prose::core::tuner::LoadedModel, lowered: &[&str]) -> Vec<bool> {
    let mut cfg = vec![false; m.atoms.len()];
    for name in lowered {
        cfg[atom_index(m, name)] = true;
    }
    cfg
}

/// The planted cancellation: lowering `eps` makes `(1 + eps) - 1` collapse
/// to zero while the scalar metric barely moves. Without the shadow the
/// variant passes; with it, the guardrail demotes it with full provenance.
#[test]
fn cancellation_variant_passes_scalar_metric_but_shadow_demotes_it() {
    let m = guardrail::guardrail_smoke(ModelSize::Small).load().unwrap();
    let cfg = config_for(&m, &["eps", "canc"]);

    let task = m.task(PerfScope::WholeModel, 1).unwrap();
    let mut eval = DynamicEvaluator::new(&task).unwrap();
    let blind = eval.eval_one(&cfg);
    assert_eq!(
        blind.outcome.status,
        Status::Pass,
        "scalar metric alone must accept the rotten variant (error {})",
        blind.outcome.error
    );
    assert!(blind.shadow.is_none());

    let mut shadow_task = m.task(PerfScope::WholeModel, 1).unwrap();
    shadow_task.shadow = true;
    let mut eval = DynamicEvaluator::new(&shadow_task).unwrap();
    let guarded = eval.eval_one(&cfg);
    assert_eq!(guarded.outcome.status, Status::FailAccuracy);
    assert_eq!(guarded.failure, Some(FailureKind::ShadowBudget));
    let sh = guarded.shadow.expect("shadow diagnostics must be recorded");
    assert!(sh.demoted);
    assert!(
        sh.cancellations > 0,
        "the (1+eps)-1 collapse must be flagged as catastrophic cancellation"
    );
    assert!(
        sh.cancellation_site.is_some(),
        "cancellation provenance must name the site"
    );
    assert!(
        sh.worst_rel > shadow_task.error_threshold,
        "shadow error {} must exceed the budget",
        sh.worst_rel
    );
    assert!(
        guarded
            .detail
            .as_deref()
            .unwrap_or("")
            .contains("shadow guardrail"),
        "detail: {:?}",
        guarded.detail
    );
    assert_eq!(eval.metrics().get("shadow_demotions"), 1);
}

/// The honest speedup path (`s`, `x` in the hot div/sqrt loop) survives the
/// shadow gate: real speedup, shadow error well inside the budget.
#[test]
fn honest_config_passes_shadow_gate_with_speedup() {
    let m = guardrail::guardrail_smoke(ModelSize::Small).load().unwrap();
    let mut task = m.task(PerfScope::WholeModel, 1).unwrap();
    task.shadow = true;
    let mut eval = DynamicEvaluator::new(&task).unwrap();
    let rec = eval.eval_one(&config_for(&m, &["s", "x"]));
    assert_eq!(
        rec.outcome.status,
        Status::Pass,
        "error {}",
        rec.outcome.error
    );
    assert!(rec.outcome.speedup > 1.0, "speedup {}", rec.outcome.speedup);
    let sh = rec
        .shadow
        .expect("shadow diagnostics present on passes too");
    assert!(!sh.demoted);
    assert_eq!(sh.cancellations, 0);
    assert!(
        sh.worst_rel < task.error_threshold,
        "worst_rel {}",
        sh.worst_rel
    );
}

/// End-to-end delta debugging with the guardrail on: the search's final
/// configuration never lowers `eps`, and at least one shadow demotion was
/// recorded along the way.
#[test]
fn tuning_with_shadow_never_ships_the_cancellation_atom() {
    let m = guardrail::guardrail_smoke(ModelSize::Small).load().unwrap();
    let mut task = m.task(PerfScope::WholeModel, 3).unwrap();
    task.shadow = true;
    let outcome = tune(&task).unwrap();
    let eps = atom_index(&m, "eps");
    assert!(
        !outcome.search.final_config[eps],
        "final config {:?} lowers eps",
        outcome.search.final_config
    );
    assert!(
        outcome.metrics.get("shadow_demotions") > 0,
        "the search must have hit the guardrail at least once"
    );
    // The demotions are journal-visible facts: every demoted record carries
    // the structured failure kind.
    let demoted: Vec<_> = outcome
        .variants
        .iter()
        .filter(|v| v.failure == Some(FailureKind::ShadowBudget))
        .collect();
    assert!(!demoted.is_empty());
    for v in demoted {
        assert_eq!(v.outcome.status, Status::FailAccuracy);
        assert!(v.shadow.as_ref().is_some_and(|s| s.demoted));
    }
}

/// The planted overfit: `q` is only exercised on perturbed inputs, so a
/// config lowering it passes tuning but fails held-out members; ensemble
/// validation demotes it and elects the runner-up without `q`.
#[test]
fn ensemble_validation_demotes_input_overfit_config() {
    let m = guardrail::guardrail_smoke(ModelSize::Small).load().unwrap();
    let mut task = m.task(PerfScope::WholeModel, 5).unwrap();
    task.shadow = true;

    let overfit = config_for(&m, &["q", "s", "x"]);
    let honest = config_for(&m, &["s", "x"]);
    let recs =
        prose::core::tuner::evaluate_configs(&task, &[overfit.clone(), honest.clone()]).unwrap();
    for r in &recs {
        assert_eq!(
            r.outcome.status,
            Status::Pass,
            "both candidates pass on the tuning input (config {:?}, error {})",
            r.config,
            r.outcome.error
        );
    }

    // Package as a tuning outcome whose final (1-minimal) config is the
    // overfit one and whose trace offers the honest runner-up.
    let outcome = TuningOutcome {
        search: SearchResult {
            best: None,
            final_config: overfit.clone(),
            one_minimal: true,
            trace: vec![],
            budget_exhausted: false,
        },
        variants: recs,
        baseline_hotspot_cycles: 0.0,
        baseline_total_cycles: 0.0,
        hotspot_share: 1.0,
        metrics: Counters::new(),
    };

    let params = EnsembleParams {
        members: 3,
        ..EnsembleParams::default()
    };
    let report = validate_ensemble(&task, &outcome, &params).unwrap();

    assert_eq!(report.candidates[0].config, overfit);
    assert!(
        report.final_demoted(),
        "a member whose perturbation opens the gate must fail the overfit config: {:?}",
        report.candidates[0]
            .members
            .iter()
            .map(|mr| (mr.member, mr.record.outcome.status, mr.record.outcome.error))
            .collect::<Vec<_>>()
    );
    let winner = report.winning_config().expect("the honest config survives");
    assert_eq!(winner, &honest);
    for mr in &report.candidates[report.winner.unwrap()].members {
        assert_eq!(mr.record.outcome.status, Status::Pass);
    }
}
