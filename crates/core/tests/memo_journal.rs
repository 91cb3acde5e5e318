//! Integration tests for evaluator memoization and the trial journal:
//! the PR's acceptance criterion is that re-running a tune against an
//! existing journal performs **zero** duplicate interpreter evaluations.

use prose_core::tuner::{tune, ModelSpec, PerfScope};
use prose_core::{metrics::CorrectnessMetric, DynamicEvaluator};
use prose_trace::Journal;
use std::path::PathBuf;

/// A funarc-style model, shrunk so delta debugging finishes in
/// milliseconds: 6 search atoms, 60 integration steps.
const SRC: &str = r#"
module arc_mod
contains
  function fun(x) result(t1)
    real(kind=8) :: x, t1, d1
    integer :: k
    d1 = 1.0d0
    t1 = x
    do k = 1, 4
      d1 = 2.0d0 * d1
      t1 = t1 + sin(d1 * x) / d1
    end do
  end function fun

  subroutine arc(result, n)
    real(kind=8) :: result
    integer :: n
    real(kind=8) :: s1, h, t1, t2
    integer :: i
    s1 = 0.0d0
    t1 = 0.0d0
    h = 3.141592653589793d0 / n
    do i = 1, n
      t2 = fun(i * h)
      s1 = s1 + sqrt(h * h + (t2 - t1) * (t2 - t1))
      t1 = t2
    end do
    result = s1
  end subroutine arc
end module arc_mod

program main
  use arc_mod, only: arc
  implicit none
  real(kind=8) :: result
  result = 0.0d0
  call arc(result, 60)
  call prose_record('result', result)
end program main
"#;

fn spec() -> ModelSpec {
    ModelSpec {
        name: "arc_test".into(),
        source: SRC.into(),
        hotspot_module: "arc_mod".into(),
        target_procs: vec!["arc".into(), "fun".into()],
        metric: CorrectnessMetric::ScalarSeriesL2 {
            key: "result".into(),
        },
        error_threshold: 4.0e-4,
        n_runs: 1,
        noise_rsd: 0.0,
        exclude: vec!["result".into()],
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prose_memo_{tag}_{}.jsonl", std::process::id()))
}

/// Same config twice ⇒ identical `Outcome`, and the interpreter does not
/// run a second time (visible as a cache hit and as unchanged interpreter
/// op counters).
#[test]
fn repeated_config_is_served_from_cache() {
    let model = spec().load().unwrap();
    let task = model.task(PerfScope::Hotspot, 7).unwrap();
    let mut eval = DynamicEvaluator::new(&task).unwrap();

    let cfg = vec![true; task.atoms.len()];
    let first = eval.eval_one(&cfg);
    let ops_after_first = eval.metrics().get("interp_fp64_ops");
    assert!(
        ops_after_first > 0,
        "uncached run must execute the interpreter"
    );

    let second = eval.eval_one(&cfg);
    assert_eq!(first.outcome, second.outcome);
    assert_eq!(first.config, second.config);

    let m = eval.metrics();
    assert_eq!(m.get("cache_misses"), 1);
    assert_eq!(m.get("cache_hits"), 1);
    assert_eq!(
        m.get("interp_fp64_ops"),
        ops_after_first,
        "cache hit must not re-run the interpreter"
    );
}

/// Re-running the same tune against an existing journal answers every
/// request from the preloaded cache: zero interpreter evaluations, the
/// same search result, and a journal whose new records are all
/// `cached: true`.
#[test]
fn rerun_against_journal_performs_zero_interpreter_evaluations() {
    let path = temp_journal("rerun");
    let _ = std::fs::remove_file(&path);

    let model = spec().load().unwrap();
    let mut task = model.task(PerfScope::Hotspot, 7).unwrap();
    task.journal = Some(path.clone());

    let run1 = tune(&task).unwrap();
    let miss1 = run1.metrics.get("cache_misses");
    assert!(miss1 > 0, "first run must evaluate variants");
    assert_eq!(run1.metrics.get("cache_preloaded"), 0);
    let records1 = Journal::load(&path).unwrap();
    assert_eq!(
        records1.len() as u64,
        miss1 + run1.metrics.get("cache_hits")
    );

    let run2 = tune(&task).unwrap();
    assert_eq!(
        run2.metrics.get("cache_misses"),
        0,
        "second run must not run the interpreter at all"
    );
    assert_eq!(run2.metrics.get("cache_preloaded"), miss1);
    assert_eq!(run2.search.final_config, run1.search.final_config);
    assert_eq!(
        run2.search.best.as_ref().map(|b| b.outcome),
        run1.search.best.as_ref().map(|b| b.outcome)
    );

    // Every record the second run appended is a cache hit, and there is
    // one per request — so cached-record count == repeated configs.
    let records2 = Journal::load(&path).unwrap();
    let new = &records2[records1.len()..];
    assert!(!new.is_empty());
    assert!(new.iter().all(|r| r.cached));
    assert_eq!(new.len() as u64, run2.metrics.get("cache_hits"));

    let _ = std::fs::remove_file(&path);
}

/// The journal stores measurements (error, speedup); the pass/fail verdict
/// is a task property. Replaying a journal under a stricter threshold must
/// reclassify: a threshold nothing can meet yields no accepted variant,
/// still without running the interpreter.
#[test]
fn replayed_verdicts_follow_the_current_threshold() {
    let path = temp_journal("threshold");
    let _ = std::fs::remove_file(&path);

    let model = spec().load().unwrap();
    let mut task = model.task(PerfScope::Hotspot, 7).unwrap();
    task.journal = Some(path.clone());
    let run1 = tune(&task).unwrap();
    assert!(run1.search.best.is_some());

    // Changed verdicts steer delta debugging down a different path, so new
    // configs may legitimately be evaluated — but journaled ones replay.
    task.error_threshold = 1.0e-30;
    let run2 = tune(&task).unwrap();
    assert!(run2.metrics.get("cache_hits") > 0);
    assert!(
        run2.search.best.is_none(),
        "no journaled variant can pass a 1e-30 threshold"
    );

    let _ = std::fs::remove_file(&path);
}
