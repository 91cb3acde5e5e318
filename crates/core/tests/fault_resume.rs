//! Integration tests for the fault-injection harness, structured failure
//! classification, and crash-safe resume:
//!
//! * with injection enabled, no search entry point panics, and every
//!   injected fault lands in the journal with its kind and seed;
//! * `Status::Timeout` / abort classifications round-trip through the
//!   journal into the preloaded memo;
//! * a search killed mid-run (via the harness's `kill-after` switch)
//!   resumes from its journal to the same 1-minimal result with zero
//!   duplicate interpreter evaluations;
//! * a torn final journal line is tolerated and counted.

use prose_core::ensemble::{validate_ensemble, EnsembleParams};
use prose_core::tuner::{tune, tune_brute_force, ModelSpec, PerfScope, TuningTask};
use prose_core::{metrics::CorrectnessMetric, DynamicEvaluator, FailureKind};
use prose_faults::{FaultConfig, InjectedKill};
use prose_search::Status;
use prose_trace::Journal;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// The same funarc-style mini model as `memo_journal.rs`: 6 search atoms,
/// small enough that delta debugging finishes in milliseconds.
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
        name: "arc_faults".into(),
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

fn task_with(tag: &str) -> (TuningTask, PathBuf) {
    let path =
        std::env::temp_dir().join(format!("prose_faults_{tag}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let model = spec().load().unwrap();
    let mut task = model.task(PerfScope::Hotspot, 7).unwrap();
    task.journal = Some(path.clone());
    (task, path)
}

/// Expected failure classification for an injected fault kind.
fn expected_failure(fault_kind: &str) -> Option<&'static str> {
    match fault_kind {
        "nan" => Some(FailureKind::FpException.name()),
        "timeout" => Some(FailureKind::Timeout.name()),
        "abort" => Some(FailureKind::Panic.name()),
        _ => None,
    }
}

/// With a hostile fault mix, both search entry points finish without a
/// panic escaping, and every uncached journal record carries its fault
/// kind, derived seed, and the matching failure classification.
#[test]
fn injected_faults_are_contained_classified_and_journaled() {
    let (mut task, path) = task_with("mix");
    task.faults = Some(FaultConfig::parse("nan=0.25,timeout=0.25,abort=0.25,seed=11").unwrap());

    let outcome = tune(&task).expect("the search must survive injected faults");
    assert!(!outcome.search.trace.is_empty());

    let records = Journal::load(&path).unwrap();
    let injected: Vec<_> = records
        .iter()
        .filter(|r| !r.cached && r.fault_kind.is_some())
        .collect();
    assert!(
        !injected.is_empty(),
        "75% injection probability over {} trials must fire at least once",
        records.len()
    );
    for r in &injected {
        let kind = r.fault_kind.as_deref().unwrap();
        assert_eq!(
            r.failure_kind.as_deref(),
            expected_failure(kind),
            "fault `{kind}` misclassified in seq {}",
            r.seq
        );
        assert!(
            r.fault_seed.is_some(),
            "injected fault must journal its seed (seq {})",
            r.seq
        );
    }
    assert!(
        outcome.metrics.get("faults_injected") >= injected.len() as u64,
        "injection counter must cover journaled faults"
    );

    // Brute force walks all 64 configs through the same containment.
    let (mut task_b, path_b) = task_with("mix_brute");
    task_b.faults = task.faults.clone();
    tune_brute_force(&task_b).expect("brute force must survive injected faults");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&path_b);
}

/// A certain-to-fire spurious timeout is classified `Status::Timeout` /
/// `FailureKind::Timeout`, and the classification survives the round trip
/// journal → preloaded memo of a fresh evaluator (with injection off).
#[test]
fn timeout_classification_round_trips_through_journal_and_memo() {
    let (mut task, path) = task_with("timeout_rt");
    task.faults = Some(FaultConfig::parse("timeout=1.0,seed=3").unwrap());

    let cfg = vec![true; task.atoms.len()];
    let mut eval = DynamicEvaluator::new(&task).unwrap();
    let rec = eval.eval_one(&cfg);
    assert_eq!(rec.outcome.status, Status::Timeout);
    assert_eq!(rec.failure, Some(FailureKind::Timeout));
    assert_eq!(rec.fault_kind.as_deref(), Some("timeout"));
    assert!(rec.fault_seed.is_some());
    drop(eval);

    task.faults = None;
    let mut eval2 = DynamicEvaluator::new(&task).unwrap();
    let replayed = eval2.eval_one(&cfg);
    assert_eq!(eval2.metrics().get("cache_preloaded"), 1);
    assert_eq!(eval2.metrics().get("cache_hits"), 1);
    assert_eq!(replayed.outcome.status, Status::Timeout);
    assert_eq!(replayed.failure, Some(FailureKind::Timeout));
    assert_eq!(replayed.fault_kind.as_deref(), Some("timeout"));
    assert_eq!(replayed.fault_seed, rec.fault_seed);

    let _ = std::fs::remove_file(&path);
}

/// A certain-to-fire mid-run abort panic is contained by the evaluator,
/// classified `FailureKind::Panic`, and round-trips like any other trial.
#[test]
fn abort_classification_round_trips_through_journal_and_memo() {
    let (mut task, path) = task_with("abort_rt");
    task.faults = Some(FaultConfig::parse("abort=1.0,seed=5").unwrap());

    let cfg = vec![true; task.atoms.len()];
    let mut eval = DynamicEvaluator::new(&task).unwrap();
    let rec = eval.eval_one(&cfg);
    assert_eq!(rec.outcome.status, Status::RuntimeError);
    assert_eq!(rec.failure, Some(FailureKind::Panic));
    assert_eq!(rec.fault_kind.as_deref(), Some("abort"));
    assert!(
        rec.detail
            .as_deref()
            .unwrap_or("")
            .contains("injected abort"),
        "detail should identify the abort: {:?}",
        rec.detail
    );
    assert_eq!(eval.metrics().get("failures_contained_panic"), 1);
    drop(eval);

    task.faults = None;
    let mut eval2 = DynamicEvaluator::new(&task).unwrap();
    let replayed = eval2.eval_one(&cfg);
    assert_eq!(replayed.outcome.status, Status::RuntimeError);
    assert_eq!(replayed.failure, Some(FailureKind::Panic));
    assert_eq!(replayed.fault_kind.as_deref(), Some("abort"));

    let _ = std::fs::remove_file(&path);
}

/// The headline crash-safety property: kill the tuning process mid-search
/// (the harness raises an uncontained panic after k journal appends), then
/// resume against the same journal. The resumed search must reach the same
/// 1-minimal result as an uninterrupted reference run, re-running the
/// interpreter only for configurations the killed run never measured —
/// zero duplicate evaluations.
#[test]
fn kill_mid_run_resume_reaches_same_result_with_zero_duplicate_evaluations() {
    // A threshold this tight forces delta debugging to isolate several
    // critical atoms — ~23 unique evaluations, so a kill after 4 appends
    // lands mid-search.
    const TIGHT: f64 = 1.0e-8;

    // Uninterrupted reference run (no journal, no faults).
    let model = spec().load().unwrap();
    let mut reference_task = model.task(PerfScope::Hotspot, 7).unwrap();
    reference_task.error_threshold = TIGHT;
    let reference = tune(&reference_task).unwrap();
    let reference_misses = reference.metrics.get("cache_misses");
    assert!(reference_misses > 4, "model too small to kill mid-run");

    // Killed run: the journal is an append-only WAL flushed per record, so
    // everything appended before the kill survives.
    let (mut task, path) = task_with("kill");
    task.error_threshold = TIGHT;
    task.faults = Some(FaultConfig {
        kill_after: Some(4),
        ..FaultConfig::default()
    });
    let killed = catch_unwind(AssertUnwindSafe(|| tune(&task)));
    let payload = killed.expect_err("kill-after must tear down the search");
    let kill = payload
        .downcast_ref::<InjectedKill>()
        .expect("the kill panic carries its typed payload");
    assert!(kill.appended >= 4);

    let survivors = Journal::load(&path).unwrap();
    assert!(
        survivors.len() >= 4,
        "per-record WAL flushing must persist pre-kill appends"
    );
    let unique_configs: std::collections::HashSet<_> =
        survivors.iter().map(|r| r.config.clone()).collect();

    // Resume: same task, faults off. The deterministic search replays the
    // journaled prefix from the preloaded memo and continues from there.
    task.faults = None;
    let resumed = tune(&task).unwrap();
    assert_eq!(
        resumed.metrics.get("cache_preloaded"),
        unique_configs.len() as u64
    );
    assert_eq!(
        resumed.metrics.get("cache_misses") + unique_configs.len() as u64,
        reference_misses,
        "resume must evaluate exactly the configurations the killed run never reached"
    );
    assert_eq!(resumed.search.final_config, reference.search.final_config);
    assert_eq!(resumed.search.one_minimal, reference.search.one_minimal);
    assert_eq!(
        resumed.search.best.as_ref().map(|b| b.outcome),
        reference.search.best.as_ref().map(|b| b.outcome)
    );

    let _ = std::fs::remove_file(&path);
}

/// A torn final line — the fingerprint of a crash mid-write under a
/// buffered flush policy — is dropped with a warning counter; the rest of
/// the journal still preloads.
#[test]
fn torn_journal_tail_is_tolerated_and_counted() {
    let (mut task, path) = task_with("torn");
    let run1 = tune(&task).unwrap();
    let miss1 = run1.metrics.get("cache_misses");

    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    write!(f, "{{\"seq\":9999,\"config\":[tr").unwrap();
    drop(f);

    task.faults = None;
    let run2 = tune(&task).unwrap();
    assert_eq!(run2.metrics.get("journal_torn_lines"), 1);
    assert_eq!(run2.metrics.get("cache_preloaded"), miss1);
    assert_eq!(run2.metrics.get("cache_misses"), 0);
    assert_eq!(run2.search.final_config, run1.search.final_config);

    let _ = std::fs::remove_file(&path);
}

/// Shadow execution composes with fault injection: a NaN injected by the
/// harness is attributed to the injection in the shadow provenance
/// (`injected = true`), never misreported as genuine catastrophic
/// cancellation — and classified `FpException` as before.
#[test]
fn injected_nan_is_attributed_to_the_fault_not_to_cancellation() {
    let (mut task, path) = task_with("nan_shadow");
    task.shadow = true;
    task.faults = Some(FaultConfig::parse("nan=1.0,seed=9").unwrap());

    let cfg = vec![true; task.atoms.len()];
    let mut eval = DynamicEvaluator::new(&task).unwrap();
    let rec = eval.eval_one(&cfg);
    assert_eq!(rec.outcome.status, Status::RuntimeError);
    assert_eq!(rec.failure, Some(FailureKind::FpException));
    assert_eq!(rec.fault_kind.as_deref(), Some("nan"));
    let sh = rec
        .shadow
        .as_ref()
        .expect("shadow diagnostics survive aborted runs");
    assert!(
        sh.nonfinite_injected,
        "the NaN's provenance must say it was injected: {sh:?}"
    );
    assert!(
        sh.nonfinite_origin.is_some(),
        "provenance must name the op and site"
    );
    assert_eq!(
        sh.cancellations, 0,
        "an injected NaN must not be blamed on cancellation"
    );
    assert!(
        !sh.demoted,
        "the guardrail gate only demotes passing trials"
    );
    drop(eval);

    // The attribution round-trips through the journal into a fresh memo.
    task.faults = None;
    let mut eval2 = DynamicEvaluator::new(&task).unwrap();
    let replayed = eval2.eval_one(&cfg);
    assert_eq!(eval2.metrics().get("cache_hits"), 1);
    let sh2 = replayed
        .shadow
        .expect("shadow section replays from journal");
    assert!(sh2.nonfinite_injected);
    assert_eq!(sh2.cancellations, 0);

    let _ = std::fs::remove_file(&path);
}

/// Held-out ensemble validation under resume: member measurements are
/// stamped with their member id in the journal and memo key, so a repeated
/// validation against the same journal re-runs nothing, members never
/// share cache entries, and growing the ensemble only evaluates the new
/// member.
#[test]
fn ensemble_members_resume_from_journal_without_rerunning() {
    let (mut task, path) = task_with("ensemble_resume");
    task.error_threshold = 1.0e-6;
    let outcome = tune(&task).unwrap();
    let baseline_len = Journal::load(&path).unwrap().len();

    let params = EnsembleParams {
        members: 3,
        seed: 99,
        amplitude: 1e-3,
        max_candidates: 2,
    };
    let report1 = validate_ensemble(&task, &outcome, &params).unwrap();
    let after_first = Journal::load(&path).unwrap();
    assert!(after_first.len() > baseline_len);
    for m in 1..=3u32 {
        let member_recs: Vec<_> = after_first.iter().filter(|r| r.member == Some(m)).collect();
        assert!(
            !member_recs.is_empty(),
            "member {m} left no journal records"
        );
        assert!(
            member_recs.iter().all(|r| !r.cached),
            "member {m} must evaluate fresh — identical configs from other \
             members or the tuning run must not satisfy it"
        );
    }
    // Tuning-input records stay unstamped.
    assert!(after_first[..baseline_len]
        .iter()
        .all(|r| r.member.is_none()));

    // Resume: the same validation again — zero interpreter re-runs.
    let report2 = validate_ensemble(&task, &outcome, &params).unwrap();
    let after_second = Journal::load(&path).unwrap();
    let replayed = &after_second[after_first.len()..];
    assert!(!replayed.is_empty());
    assert!(
        replayed.iter().all(|r| r.cached),
        "a resumed ensemble must serve every completed member from the journal"
    );
    assert_eq!(report1.winner, report2.winner);
    for (a, b) in report1.candidates.iter().zip(&report2.candidates) {
        assert_eq!(a.validated, b.validated);
        for (ma, mb) in a.members.iter().zip(&b.members) {
            assert_eq!(ma.record.outcome, mb.record.outcome);
        }
    }

    // Growing the ensemble: only the new member touches the interpreter.
    let report3 = validate_ensemble(
        &task,
        &outcome,
        &EnsembleParams {
            members: 4,
            ..params
        },
    )
    .unwrap();
    let after_third = Journal::load(&path).unwrap();
    let fresh: Vec<_> = after_third[after_second.len()..]
        .iter()
        .filter(|r| !r.cached)
        .collect();
    assert!(!fresh.is_empty(), "member 4 must actually run");
    assert!(
        fresh.iter().all(|r| r.member == Some(4)),
        "members 1-3 must replay from the journal"
    );
    assert_eq!(report3.candidates.len(), report1.candidates.len());

    let _ = std::fs::remove_file(&path);
}

/// The noise-tolerant re-evaluation defense: with amplified jitter and a
/// retry band, borderline speedups are re-measured with escalating sample
/// counts (visible via the `speedup_reeval` counter), and the search still
/// completes.
#[test]
fn retry_escalation_engages_under_injected_jitter() {
    let (mut task, path) = task_with("jitter");
    task.n_runs = 3;
    task.noise_rsd = 0.02;
    task.faults = Some(FaultConfig::parse("jitter=0.3,seed=13").unwrap());
    task.retry_band = 0.5;
    task.retry_max_runs = 31;

    let outcome = tune(&task).expect("search must survive jitter");
    assert!(
        outcome.metrics.get("speedup_reeval") > 0,
        "a 50% band around the bar must trigger at least one re-measurement"
    );

    let _ = std::fs::remove_file(&path);
}
