//! Supervised-evaluation invariants: wall-clock deadlines, the
//! stuck-worker story, transient-failure retry, and self-healing journal
//! resume, end to end through `tune`.
//!
//! The load-bearing guarantees pinned here:
//!
//! 1. **An armed deadline that never fires is free** — modeled cycles,
//!    numerics, and journals are bit-identical to a deadline-off run, on
//!    both variant-generation paths (the `shadow_diff` discipline applied
//!    to the supervision layer).
//! 2. **Hangs cannot wedge the search** — a hang-faulted search at
//!    `--workers 4` completes, hung trials are journaled as
//!    failed-by-deadline, and the journal still matches the serial run's
//!    byte for byte after normalizing scheduling-dependent fields.
//! 3. **Transient failures retry deterministically** — each attempt is
//!    journaled with its `attempt` stamp, recovery is counted, exhaustion
//!    stands as an ordinary rejection, and resumes never re-attempt.
//! 4. **Journal corruption is survivable** — a resume over a corrupted
//!    journal quarantines the damage, re-evaluates only the lost trials,
//!    and leaves a strictly-loadable journal with no duplicated work.

use prose_core::evaluator::FailureKind;
use prose_core::metrics::CorrectnessMetric;
use prose_core::tuner::{tune, ModelSpec, PerfScope, SearchGranularity, TuningTask, VariantPath};
use prose_core::DynamicEvaluator;
use prose_faults::FaultConfig;
use prose_search::Status;
use prose_trace::{quarantine_path_for, Journal, TrialRecord};
use std::path::PathBuf;

/// The shrunk funarc model shared with `parallel_eval`: 7 search atoms,
/// 60 integration steps, so each healthy trial finishes in milliseconds.
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
        name: "arc_supervised".into(),
        source: SRC.into(),
        hotspot_module: "arc_mod".into(),
        target_procs: vec!["arc".into(), "fun".into()],
        metric: CorrectnessMetric::ScalarSeriesL2 {
            key: "result".into(),
        },
        // Tight enough that the all-single config fails accuracy, so delta
        // debugging genuinely bisects (~7 unique grouped configs, ~17 at
        // variable granularity) instead of accepting all-true immediately.
        error_threshold: 1.0e-7,
        n_runs: 1,
        noise_rsd: 0.0,
        exclude: vec!["result".into()],
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "prose_supervision_{tag}_{}.jsonl",
        std::process::id()
    ))
}

fn grouped_task(journal: Option<PathBuf>) -> TuningTask {
    let model = spec().load().unwrap();
    let mut task = model.task(PerfScope::Hotspot, 7).unwrap();
    task.granularity = SearchGranularity::Grouped;
    task.journal = journal;
    task
}

/// Strip the fields that legitimately vary with scheduling and wall
/// clock (same discipline as `parallel_eval`).
fn normalized(mut r: TrialRecord) -> TrialRecord {
    r.wall_ms = 0.0;
    r.stages.clear();
    r.workers = 0;
    r.worker = None;
    r
}

fn assert_journals_match(a: &PathBuf, b: &PathBuf) {
    let ra = Journal::load(a).unwrap();
    let rb = Journal::load(b).unwrap();
    assert_eq!(ra.len(), rb.len(), "journal lengths diverge");
    for (x, y) in ra.into_iter().zip(rb) {
        assert_eq!(normalized(x), normalized(y));
    }
}

/// Guarantee 1: arming a generous deadline (and a retry budget that never
/// triggers, absent transient faults) changes nothing — same search, same
/// metrics, byte-identical journals — on both variant paths, including
/// under non-transient fault injection.
#[test]
fn armed_but_unfired_deadline_is_bit_identical_to_deadline_off() {
    for path in [VariantPath::Fast, VariantPath::Faithful] {
        let off_path = temp_journal(&format!("dl_off_{}", path.name()));
        let on_path = temp_journal(&format!("dl_on_{}", path.name()));
        let _ = std::fs::remove_file(&off_path);
        let _ = std::fs::remove_file(&on_path);

        let build = |journal: PathBuf, deadline_ms: Option<u64>| {
            let mut task = grouped_task(Some(journal));
            task.variant_path = path;
            // Non-transient faults (nan + jitter): exercised identically by
            // both runs, and retry never fires on them.
            task.faults = Some(FaultConfig {
                nan: 0.1,
                jitter: 0.05,
                seed: 23,
                ..FaultConfig::default()
            });
            task.deadline_ms = deadline_ms;
            task.retry_attempts = if deadline_ms.is_some() { 2 } else { 0 };
            task
        };

        // 10 minutes per variant: can never fire on millisecond trials.
        let off = tune(&build(off_path.clone(), None)).unwrap();
        let on = tune(&build(on_path.clone(), Some(600_000))).unwrap();

        assert_eq!(off.search.final_config, on.search.final_config);
        assert_eq!(
            off.search.best.as_ref().map(|b| b.outcome),
            on.search.best.as_ref().map(|b| b.outcome)
        );
        assert_eq!(off.search.trace.len(), on.search.trace.len());
        assert_eq!(
            off.metrics.get("cache_misses"),
            on.metrics.get("cache_misses"),
            "an unfired deadline must not change how many interpreter runs happen"
        );
        assert_eq!(on.metrics.get("deadline_kills"), 0);
        assert_eq!(on.metrics.get("retry_recovered"), 0);
        assert_journals_match(&off_path, &on_path);

        let _ = std::fs::remove_file(&off_path);
        let _ = std::fs::remove_file(&on_path);
    }
}

fn hang_task(workers: usize, journal: PathBuf) -> TuningTask {
    let mut task = grouped_task(Some(journal));
    // Variable granularity explores ~17 unique configs here — enough for
    // the 20% hang rate to fire several times.
    task.granularity = SearchGranularity::Variable;
    task.workers = workers;
    // Hung trials stall the event loop; only the deadline kills them. The
    // deadline is two orders of magnitude above a healthy trial's wall
    // time, so it can only ever fire on an injected hang.
    task.faults = Some(FaultConfig {
        hang: 0.2,
        seed: 31,
        ..FaultConfig::default()
    });
    task.deadline_ms = Some(400);
    task
}

/// Guarantee 2 (the issue's acceptance gate): a hang-faulted search at
/// `--workers 4` runs to completion, journals every hung trial as
/// failed-by-deadline, and still matches the serial journal byte for byte
/// — a hang stalls at a deterministic event count, so everything but wall
/// clock is reproducible.
#[test]
fn hang_faulted_search_completes_at_four_workers_with_deadline_kills() {
    let serial_path = temp_journal("hang_serial");
    let pooled_path = temp_journal("hang_pooled");
    let _ = std::fs::remove_file(&serial_path);
    let _ = std::fs::remove_file(&pooled_path);

    let serial = tune(&hang_task(1, serial_path.clone())).unwrap();
    let pooled = tune(&hang_task(4, pooled_path.clone())).unwrap();

    // The searches completed and agree.
    assert_eq!(serial.search.final_config, pooled.search.final_config);
    assert_eq!(serial.search.trace.len(), pooled.search.trace.len());
    assert_eq!(
        serial.metrics.get("cache_misses"),
        pooled.metrics.get("cache_misses")
    );

    // Hangs actually happened, and every one was killed by the deadline.
    let kills = serial.metrics.get("deadline_kills");
    assert!(kills > 0, "seed 31 must inject at least one hang");
    assert_eq!(kills, pooled.metrics.get("deadline_kills"));
    let deadline_kind = FailureKind::Deadline.name();
    let records = Journal::load(&serial_path).unwrap();
    let hung: Vec<&TrialRecord> = records
        .iter()
        .filter(|r| !r.cached && r.failure_kind.as_deref() == Some(deadline_kind))
        .collect();
    assert_eq!(hung.len() as u64, kills);
    for r in &hung {
        assert_eq!(r.status, "timeout", "deadline kills report as timeouts");
        assert_eq!(r.fault_kind.as_deref(), Some("hang"));
        assert_eq!(r.error, f64::INFINITY);
    }

    // A hung trial dies with wall clock >= the deadline; healthy trials
    // finish far under it (the margin the fixture is sized for).
    for r in &hung {
        assert!(r.wall_ms >= 400.0, "hang died early: {} ms", r.wall_ms);
    }

    // Determinism survives the pathology: serial and 4-worker journals
    // match after normalizing scheduling-dependent fields.
    assert_journals_match(&serial_path, &pooled_path);

    let _ = std::fs::remove_file(&serial_path);
    let _ = std::fs::remove_file(&pooled_path);
}

/// Guarantee 3a: injected timeouts are transient — with a retry budget,
/// trials that failed on attempt 0 re-draw their fault plan and mostly
/// recover; every attempt is journaled with a contiguous `attempt` stamp
/// and no (config, attempt) pair is ever evaluated twice.
#[test]
fn transient_timeouts_recover_under_retry_with_per_attempt_journals() {
    let path = temp_journal("retry");
    let _ = std::fs::remove_file(&path);

    let mut task = grouped_task(Some(path.clone()));
    task.granularity = SearchGranularity::Variable;
    task.faults = Some(FaultConfig {
        timeout: 0.4,
        seed: 5,
        ..FaultConfig::default()
    });
    task.retry_attempts = 3;
    let outcome = tune(&task).unwrap();

    assert!(
        outcome.metrics.get("retry_recovered") > 0,
        "at 40% transient rate and 3 retries, some trial must recover"
    );

    let records = Journal::load(&path).unwrap();
    let retried: Vec<&TrialRecord> = records.iter().filter(|r| r.attempt > 0).collect();
    assert!(!retried.is_empty(), "retries must journal their attempts");

    // Per config: uncached attempt stamps are contiguous from 0, every
    // attempt before the last failed transiently, and no stamp repeats.
    use std::collections::BTreeMap;
    let mut by_config: BTreeMap<&[bool], Vec<&TrialRecord>> = BTreeMap::new();
    for r in records.iter().filter(|r| !r.cached) {
        by_config.entry(&r.config).or_default().push(r);
    }
    for (config, recs) in by_config {
        let mut attempts: Vec<u32> = recs.iter().map(|r| r.attempt).collect();
        attempts.sort_unstable();
        let expect: Vec<u32> = (0..recs.len() as u32).collect();
        assert_eq!(
            attempts, expect,
            "config {config:?}: attempts must be contiguous and unique"
        );
        let max = recs.len() - 1;
        for r in recs.iter().filter(|r| (r.attempt as usize) < max) {
            assert_eq!(
                r.failure_kind.as_deref(),
                Some("timeout"),
                "only transient failures may precede a retry"
            );
        }
    }

    // Recovered trials pass on their final attempt.
    assert!(records
        .iter()
        .any(|r| !r.cached && r.attempt > 0 && r.status == "pass"));

    let _ = std::fs::remove_file(&path);
}

/// Guarantee 3b: when every attempt draws the fault, the retry budget
/// exhausts and the final failure stands as an ordinary rejection — and a
/// resumed evaluator serves it from the journal without re-attempting.
#[test]
fn exhausted_retries_stand_as_rejection_and_resume_without_reattempt() {
    let path = temp_journal("exhaust");
    let q = quarantine_path_for(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&q);

    let mut task = grouped_task(Some(path.clone()));
    let faults = FaultConfig {
        timeout: 0.9,
        seed: 17,
        ..FaultConfig::default()
    };
    task.retry_attempts = 2;

    // Pick a config whose plan draws the timeout on every attempt — the
    // permanently-faulted case retry must not paper over.
    let n = task.atoms.len();
    let doomed: Vec<bool> = (0u32..1 << n)
        .map(|bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect::<Vec<bool>>())
        .find(|c| (0..=2).all(|a| faults.plan_for_config_attempt(c, a).fault.is_some()))
        .expect("at 90% fault rate some config faults on all three attempts");
    task.faults = Some(faults);

    {
        let mut eval = DynamicEvaluator::new(&task).unwrap();
        let rec = eval.eval_one(&doomed);
        assert_ne!(rec.outcome.status, Status::Pass);
        assert_eq!(rec.failure, Some(FailureKind::Timeout));

        // One logical evaluation, three journaled attempts.
        let m = eval.metrics();
        assert_eq!(m.get("cache_misses"), 1);
        assert_eq!(m.get("retry_recovered"), 0);

        // A repeat request is a pure cache hit.
        let again = eval.eval_one(&doomed);
        assert_eq!(again.outcome, rec.outcome);
        assert_eq!(eval.metrics().get("cache_hits"), 1);
        assert_eq!(eval.metrics().get("cache_misses"), 1);
    }

    let records = Journal::load(&path).unwrap();
    let uncached: Vec<u32> = records
        .iter()
        .filter(|r| !r.cached)
        .map(|r| r.attempt)
        .collect();
    assert_eq!(uncached, vec![0, 1, 2], "all three attempts journaled");
    assert!(records
        .iter()
        .filter(|r| !r.cached)
        .all(|r| r.status == "timeout"));
    assert_eq!(records.iter().filter(|r| r.cached).count(), 1);

    // Resume: a fresh evaluator preloads the journaled rejection and
    // never re-attempts the doomed config.
    {
        let mut eval = DynamicEvaluator::new(&task).unwrap();
        let rec = eval.eval_one(&doomed);
        assert_ne!(rec.outcome.status, Status::Pass);
        assert_eq!(rec.failure, Some(FailureKind::Timeout));
        assert!(eval.metrics().get("cache_preloaded") > 0);
        assert_eq!(eval.metrics().get("cache_misses"), 0, "resume re-attempted");
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&q);
}

/// Guarantee 4 (the issue's resume gate): a search whose journal was
/// corrupted mid-file resumes through the self-healing load — damage is
/// quarantined, only the lost trials are re-evaluated, the healed journal
/// is strictly loadable, and no (config, attempt) pair was evaluated
/// twice across both runs.
#[test]
fn corrupted_journal_resumes_with_quarantine_and_no_duplicate_evaluation() {
    let path = temp_journal("corrupt");
    let q = quarantine_path_for(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&q);

    // Run 1: corruption faults flip a byte in ~30% of journal lines.
    // Outcomes are untouched — only the journal bytes are damaged.
    let mut task = grouped_task(Some(path.clone()));
    task.granularity = SearchGranularity::Variable;
    task.faults = Some(FaultConfig {
        corrupt_record: 0.3,
        seed: 47,
        ..FaultConfig::default()
    });
    let first = tune(&task).unwrap();
    let injected = first.metrics.get("journal_corruptions_injected");
    assert!(injected > 0, "seed 47 must corrupt at least one record");
    assert!(
        Journal::load(&path).is_err(),
        "strict load must reject the corrupted journal"
    );

    // Run 2: same task minus the fault plan. The evaluator's preload runs
    // the self-healing load; the search must reconverge.
    task.faults = None;
    let second = tune(&task).unwrap();
    assert_eq!(first.search.final_config, second.search.final_config);
    assert_eq!(first.search.trace.len(), second.search.trace.len());

    // The damage was quarantined (a flip can at most split one line in
    // two, so quarantined >= injected is the tight lower bound)...
    let quarantined =
        second.metrics.get("journal_quarantined") + second.metrics.get("journal_torn_lines");
    assert!(
        quarantined >= injected,
        "{quarantined} quarantined < {injected} injected"
    );
    assert!(q.exists(), "quarantine file must be produced");
    // ...and only the lost trials were re-evaluated.
    assert!(
        second.metrics.get("cache_misses") <= quarantined,
        "resume re-evaluated more than the quarantined trials"
    );
    assert!(second.metrics.get("cache_preloaded") > 0);

    // The healed journal is strictly loadable and contains no duplicated
    // evaluation: at most one uncached record per (config, attempt).
    let records = Journal::load(&path).unwrap();
    let mut seen = std::collections::HashSet::new();
    for r in records.iter().filter(|r| !r.cached) {
        assert!(
            seen.insert((r.config.clone(), r.attempt)),
            "duplicate evaluation of {:?} attempt {}",
            r.config,
            r.attempt
        );
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&q);
}
