//! Parallel-evaluation invariants: the worker pool must be a pure
//! wall-clock optimization. These tests pin the guarantees the
//! `parallel-smoke` CI job relies on — (1) a grouped delta-debugging
//! tune produces byte-identical journals at any worker count once the
//! scheduling-dependent fields are normalized, with and without the
//! absint pre-pass fanning its analyses out over the same pool, and
//! (2) batches are deduped on the submitting thread, so each unique
//! configuration runs once, its first copy is the one evaluated, and the
//! journal does not depend on the width.

use prose_core::tuner::{tune, ModelSpec, PerfScope, SearchGranularity, TuningTask};
use prose_core::{metrics::CorrectnessMetric, prepass_path_for, DynamicEvaluator};
use prose_trace::{Journal, TrialRecord};
use std::path::{Path, PathBuf};

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
        name: "arc_parallel".into(),
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
    std::env::temp_dir().join(format!("prose_parallel_{tag}_{}.jsonl", std::process::id()))
}

/// Remove a temp journal and the pre-pass sidecar an absint tune leaves
/// beside it, so a re-run in the same temp dir starts from nothing.
fn remove_journal(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(prepass_path_for(path));
}

/// Strip the fields that legitimately vary with scheduling: wall clock,
/// per-stage timings, the pool-width stamp, and worker provenance.
/// Everything else — seq, config, outcome, cache status, batch ordinal,
/// fault seed — must be byte-identical across worker counts.
fn normalized(mut r: TrialRecord) -> TrialRecord {
    r.wall_ms = 0.0;
    r.stages.clear();
    r.workers = 0;
    r.worker = None;
    r
}

fn grouped_task(workers: usize, journal: PathBuf) -> TuningTask {
    let model = spec().load().unwrap();
    let mut task = model.task(PerfScope::Hotspot, 7).unwrap();
    task.granularity = SearchGranularity::Grouped;
    task.journal = Some(journal);
    task.workers = workers;
    // Exercise the full pipeline the CI smoke gate runs: deterministic
    // fault injection plus the retry band's escalating re-measurements.
    task.faults = Some(prose_faults::FaultConfig {
        nan: 0.05,
        timeout: 0.05,
        abort: 0.0,
        jitter: 0.02,
        seed: 11,
        kill_after: None,
        hang: 0.0,
        corrupt_record: 0.0,
    });
    task.retry_band = 0.05;
    task.retry_max_runs = 4;
    task
}

/// The differential gate: a grouped delta-debugging tune at 1 worker and
/// at 8 workers must produce the same final configuration, the same best
/// outcome, and journals whose records match exactly after normalizing
/// the scheduling-dependent fields.
#[test]
fn grouped_dd_serial_vs_eight_workers_journals_match() {
    let path1 = temp_journal("serial");
    let path8 = temp_journal("eight");
    remove_journal(&path1);
    remove_journal(&path8);

    let serial = tune(&grouped_task(1, path1.clone())).unwrap();
    let pooled = tune(&grouped_task(8, path8.clone())).unwrap();

    assert_eq!(serial.search.final_config, pooled.search.final_config);
    assert_eq!(
        serial.search.best.as_ref().map(|b| b.outcome),
        pooled.search.best.as_ref().map(|b| b.outcome)
    );
    assert_eq!(
        serial.search.trace.len(),
        pooled.search.trace.len(),
        "worker pool must not change how many trials the search makes"
    );
    assert_eq!(
        serial.metrics.get("cache_misses"),
        pooled.metrics.get("cache_misses"),
        "worker pool must not change how many interpreter runs happen"
    );

    let rec1 = Journal::load(&path1).unwrap();
    let rec8 = Journal::load(&path8).unwrap();
    assert_eq!(rec1.len(), rec8.len());
    for (a, b) in rec1.into_iter().zip(rec8) {
        // Sanity that the width really was stamped before normalization.
        assert_eq!(a.workers, 1);
        assert_eq!(b.workers, 8);
        assert_eq!(normalized(a), normalized(b));
    }

    remove_journal(&path1);
    remove_journal(&path8);
}

/// The absint pre-pass runs its single-atom analyses on the task's pool:
/// a grouped mpas_a tune with the pre-pass on must reach the same verdicts
/// and write the same normalized journal at widths 1 and 2.
#[test]
fn absint_grouped_mpas_journals_match_across_widths() {
    let model = prose_models::mpas::mpas_a(prose_models::ModelSize::Small)
        .load()
        .unwrap();
    let run = |workers: usize, tag: &str| {
        let path = temp_journal(tag);
        remove_journal(&path);
        let mut task = model.task(PerfScope::Hotspot, 7).unwrap();
        task.granularity = SearchGranularity::Grouped;
        task.absint = true;
        task.workers = workers;
        task.journal = Some(path.clone());
        let outcome = tune(&task).unwrap();
        let records = Journal::load(&path).unwrap();
        remove_journal(&path);
        (outcome, records)
    };
    let (serial, rec1) = run(1, "absint_serial");
    let (pooled, rec2) = run(2, "absint_pooled");

    // 47 atoms, none pinned: the declared baseline, 47 single-atom
    // analyses and one joint re-check.
    assert_eq!(serial.metrics.get("absint_analyses"), 49);
    for key in [
        "absint_analyses",
        "absint_predemoted",
        "absint_pinned",
        "absint_undecided",
        "absint_joint_fallback",
        "cache_misses",
    ] {
        assert_eq!(serial.metrics.get(key), pooled.metrics.get(key), "{key}");
    }
    assert_eq!(serial.search.final_config, pooled.search.final_config);
    assert_eq!(rec1.len(), rec2.len());
    for (a, b) in rec1.into_iter().zip(rec2) {
        assert_eq!(a.workers, 1);
        assert_eq!(b.workers, 2);
        assert!(a.static_verdict.is_some(), "absint trials carry the stamp");
        assert_eq!(normalized(a), normalized(b));
    }
}

/// Dedupe happens on the submitting thread, in submission order: a batch
/// holding repeated and journal-preloaded configurations runs each unique
/// uncached configuration exactly once — always its first copy — and the
/// journal is the same at widths 1 and 4 once the scheduling-dependent
/// fields are normalized.
#[test]
fn batches_dedupe_in_submission_order_at_any_width() {
    let model = spec().load().unwrap();
    let n = model.atoms.len();
    // Six distinct configurations over the first three atoms.
    let c: Vec<Vec<bool>> = (0u32..6)
        .map(|bits| (0..n).map(|i| i < 3 && (bits >> i) & 1 == 1).collect())
        .collect();
    let preload = [c[0].clone(), c[1].clone()];
    let mixed = [
        c[2].clone(),
        c[0].clone(),
        c[3].clone(),
        c[2].clone(),
        c[1].clone(),
        c[4].clone(),
        c[3].clone(),
        c[5].clone(),
    ];
    let all_hits = [c[5].clone(), c[0].clone(), c[2].clone()];

    let run = |workers: usize| {
        let path = temp_journal(&format!("dedupe_{workers}"));
        remove_journal(&path);
        let mut task = model.task(PerfScope::Hotspot, 7).unwrap();
        task.journal = Some(path.clone());
        DynamicEvaluator::new(&task)
            .unwrap()
            .eval_batch_records(&preload);
        task.workers = workers;
        let mut eval = DynamicEvaluator::new(&task).unwrap();
        let mixed_recs = eval.eval_batch_records(&mixed);
        let hit_recs = eval.eval_batch_records(&all_hits);
        let m = eval.metrics();
        assert_eq!(m.get("cache_preloaded"), 2);
        assert_eq!(
            m.get("cache_misses"),
            4,
            "one run per unique uncached config"
        );
        assert_eq!(m.get("cache_hits"), 4 + 3);
        drop(eval);
        for (cfg, rec) in mixed.iter().zip(&mixed_recs) {
            assert_eq!(&rec.config, cfg, "records come back in batch order");
        }
        assert_eq!(hit_recs.len(), all_hits.len());
        let records = Journal::load(&path).unwrap();
        remove_journal(&path);
        records
    };

    let serial = run(1);
    let pooled = run(4);
    let total = preload.len() + mixed.len() + all_hits.len();
    for records in [&serial, &pooled] {
        assert_eq!(records.len(), total);
        // A gapless seq run in file order.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..total as u64).collect::<Vec<_>>());
        // One uncached record per unique configuration.
        let mut uncached = std::collections::HashMap::new();
        for r in records.iter().filter(|r| !r.cached) {
            *uncached.entry(r.config.clone()).or_insert(0u32) += 1;
        }
        assert_eq!(uncached.len(), c.len());
        assert!(uncached.values().all(|&k| k == 1), "duplicate evaluation");
        // In the mixed batch, the first copy of each configuration not
        // preloaded is the evaluated one; every later copy is cached.
        let mixed_records = &records[preload.len()..preload.len() + mixed.len()];
        let mut seen: Vec<&Vec<bool>> = preload.iter().collect();
        for r in mixed_records {
            let first = !seen.contains(&&r.config);
            assert_eq!(r.cached, !first, "seq {}: wrong copy evaluated", r.seq);
            seen.push(&r.config);
        }
        // A batch of only cache hits is answered on the submitting thread.
        for r in &records[preload.len() + mixed.len()..] {
            assert!(r.cached);
            assert_eq!(r.worker, None, "seq {}: cache hit stamped a worker", r.seq);
        }
    }
    // At width 4 the evaluated copies ran on pool workers and the hits
    // did not.
    for r in &pooled[preload.len()..preload.len() + mixed.len()] {
        assert_eq!(r.worker.is_some(), !r.cached, "seq {}", r.seq);
    }
    for (a, b) in serial.into_iter().zip(pooled) {
        assert_eq!(normalized(a), normalized(b));
    }
}
