//! The tuner as an embeddable **job runner**: one content-addressed unit
//! of work (Fortran source + tuning spec), run to completion — or to a
//! cancellation checkpoint — against a per-job trial journal.
//!
//! This is the seam between the batch pipeline and the service layer:
//! `prose-served` persists a [`JobRequest`], derives its id with
//! [`job_id_for`], and calls [`run_job`] on a pool thread. Everything the
//! daemon's robustness contract needs lives in the journal the runner
//! writes: restarting a killed job with the same journal path resumes it
//! with zero duplicate interpreter evaluations (the evaluator preloads
//! the journal as its memoization cache), and re-running a finished job
//! replays entirely from cache, so [`run_job`] doubles as the result
//! cache's read path.

use crate::evaluator::CancelRequested;
use crate::metrics::CorrectnessMetric;
use crate::tuner::{
    tune, tune_brute_force, ModelSpec, PerfScope, SearchGranularity, TuningOutcome,
};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A tuning job's machine-readable spec, as submitted by clients. The
/// required surface mirrors `prose-tune`'s mandatory flags; everything
/// else is serde-defaulted so specs stay small and forward-compatible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Target procedures whose FP declarations are the search atoms.
    pub procs: Vec<String>,
    /// Correctness metric, `prose-tune` syntax
    /// (`scalar:<key>`, `field:<key>`, `maxspace:<key>[:floor]`).
    pub metric: String,
    /// Relative-error acceptance threshold.
    pub threshold: f64,
    /// Search strategy: `dd` (default) or `brute`.
    #[serde(default)]
    pub strategy: Option<String>,
    /// Search granularity: `variable` (default) or `grouped`.
    #[serde(default)]
    pub granularity: Option<String>,
    /// Performance scope: `hotspot` (default) or `whole`.
    #[serde(default)]
    pub scope: Option<String>,
    /// Base seed (default 42).
    #[serde(default)]
    pub seed: Option<u64>,
    /// Unique-variant budget (`None` = unbounded).
    #[serde(default)]
    pub budget: Option<usize>,
    /// Variable names excluded from the atom set.
    #[serde(default)]
    pub exclude: Vec<String>,
    /// Worker-pool width (default 1: serial).
    #[serde(default)]
    pub workers: Option<usize>,
    /// Per-variant wall-clock deadline in milliseconds.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Transient-failure retry budget.
    #[serde(default)]
    pub retry_attempts: Option<u32>,
    /// Deterministic fault injection, `prose-tune --faults` syntax.
    #[serde(default)]
    pub faults: Option<String>,
    /// Eq. 1 sample count (default 1).
    #[serde(default)]
    pub n_runs: Option<usize>,
    /// Timing-noise RSD (default 0).
    #[serde(default)]
    pub noise: Option<f64>,
}

impl JobSpec {
    /// Parse a spec from its submitted JSON.
    pub fn parse(json: &str) -> Result<JobSpec, String> {
        serde_json::from_str(json).map_err(|e| format!("bad job spec: {e}"))
    }

    /// The canonical serialization idempotency keys on: parsed, then
    /// re-serialized with sorted keys and defaults materialized — so two
    /// submissions that differ only in JSON formatting, field order, or
    /// explicit-vs-omitted defaults address the same job.
    pub fn canonical(&self) -> String {
        serde_json::to_string(self).expect("JobSpec serializes")
    }
}

/// One unit of service work: a program and the spec to tune it under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Complete Fortran source (modules + main program driver).
    pub program: String,
    pub spec: JobSpec,
}

/// Content-addressed job id: 32 hex digits over the program bytes and the
/// spec's canonical serialization. Identical submissions — across clients,
/// processes, and restarts — collapse to the same id.
pub fn job_id_for(program: &str, spec: &JobSpec) -> String {
    prose_faults::content_id(&[program.as_bytes(), spec.canonical().as_bytes()])
}

/// Why a job run ended without an outcome.
#[derive(Debug)]
pub enum JobError {
    /// The spec failed validation before any evaluation ran.
    Spec(String),
    /// Parse/analysis/baseline failure — a property of the submission,
    /// terminal.
    Model(String),
    /// The cancellation token flipped; the journal holds every completed
    /// trial and re-running resumes from it.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Spec(e) => write!(f, "spec error: {e}"),
            JobError::Model(e) => write!(f, "model error: {e}"),
            JobError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for JobError {}

/// The service-facing summary of a finished job (persisted as
/// `result.json`, returned verbatim to clients).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    pub job_id: String,
    /// The search's final configuration (`true` = lowered to 32-bit).
    pub final_config: Vec<bool>,
    /// Source paths of the variables kept at 64-bit.
    pub final_double: Vec<String>,
    /// Best variant's speedup (0 when no variant passed).
    pub best_speedup: f64,
    /// Best variant's relative error (`None` encodes non-finite).
    #[serde(default)]
    pub best_error: Option<f64>,
    /// Whether the search proved 1-minimality.
    pub one_minimal: bool,
    /// Total evaluation requests the search made.
    pub trials: u64,
    /// Requests answered without running the interpreter (memo + journal).
    pub cache_hits: u64,
    /// Interpreter evaluations actually performed by this run — the
    /// number a resumed run must keep at zero for already-journaled
    /// configurations.
    pub evaluated: u64,
    /// Records preloaded from the journal at startup (resume depth).
    pub preloaded: u64,
}

/// Run one job to completion. `journal` is the job's trial journal path
/// (created, appended, and preloaded-on-restart by the evaluator);
/// `cancel` is polled at every evaluation boundary.
///
/// Deterministic by construction: the same request against the same
/// journal always lands on the same final configuration, whether it runs
/// uninterrupted or is killed and resumed arbitrarily often.
pub fn run_job(
    request: &JobRequest,
    journal: &Path,
    cancel: Option<Arc<AtomicBool>>,
) -> Result<JobResult, JobError> {
    let spec = &request.spec;
    if spec.procs.is_empty() {
        return Err(JobError::Spec("procs must be non-empty".into()));
    }
    let metric: CorrectnessMetric = spec.metric.parse().map_err(JobError::Spec)?;
    let strategy = spec.strategy.as_deref().unwrap_or("dd");
    if !matches!(strategy, "dd" | "brute") {
        return Err(JobError::Spec(format!(
            "unknown strategy `{strategy}` (dd|brute)"
        )));
    }
    let granularity: SearchGranularity = spec
        .granularity
        .as_deref()
        .unwrap_or("variable")
        .parse()
        .map_err(JobError::Spec)?;
    let scope = match spec.scope.as_deref().unwrap_or("hotspot") {
        "hotspot" => PerfScope::Hotspot,
        "whole" => PerfScope::WholeModel,
        other => return Err(JobError::Spec(format!("unknown scope `{other}`"))),
    };
    let faults = spec
        .faults
        .as_deref()
        .map(prose_faults::FaultConfig::parse)
        .transpose()
        .map_err(|e| JobError::Spec(format!("faults: {e}")))?;

    let model_spec = ModelSpec {
        name: job_id_for(&request.program, spec),
        source: request.program.clone(),
        hotspot_module: String::new(),
        target_procs: spec.procs.clone(),
        metric,
        error_threshold: spec.threshold,
        n_runs: spec.n_runs.unwrap_or(1),
        noise_rsd: spec.noise.unwrap_or(0.0),
        exclude: spec.exclude.clone(),
    };
    let job_id = model_spec.name.clone();
    let model = model_spec
        .load()
        .map_err(|e| JobError::Model(e.to_string()))?;
    let mut task = model
        .task(scope, spec.seed.unwrap_or(42))
        .map_err(|e| JobError::Model(e.to_string()))?;
    task.journal = Some(journal.to_path_buf());
    task.max_variants = spec.budget;
    task.granularity = granularity;
    task.faults = faults;
    task.job_id = Some(job_id.clone());
    task.cancel = cancel;
    task.workers = spec.workers.unwrap_or(1).max(1);
    task.deadline_ms = spec.deadline_ms;
    task.retry_attempts = spec.retry_attempts.unwrap_or(0);

    // The cancellation token unwinds out of the search as a
    // `CancelRequested` panic (raised only at evaluation boundaries, so
    // the journal is never torn by it); contain exactly that payload here
    // and re-raise everything else.
    let outcome = match catch_unwind(AssertUnwindSafe(|| {
        if strategy == "brute" {
            tune_brute_force(&task)
        } else {
            tune(&task)
        }
    })) {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => return Err(JobError::Model(format!("baseline run failed: {e}"))),
        Err(payload) => {
            if payload.downcast_ref::<CancelRequested>().is_some() {
                return Err(JobError::Cancelled);
            }
            resume_unwind(payload);
        }
    };

    Ok(summarize(&job_id, &task, &model, &outcome))
}

fn summarize(
    job_id: &str,
    task: &crate::tuner::TuningTask,
    model: &crate::tuner::LoadedModel,
    outcome: &TuningOutcome,
) -> JobResult {
    let final_double: Vec<String> = outcome
        .search
        .final_config
        .iter()
        .enumerate()
        .filter(|(_, b)| !**b)
        .map(|(i, _)| model.index.fp_var_path(task.atoms[i]))
        .collect();
    let (best_speedup, best_error) = outcome
        .search
        .best
        .as_ref()
        .map(|b| (b.outcome.speedup, b.outcome.error))
        .unwrap_or((0.0, f64::INFINITY));
    JobResult {
        job_id: job_id.to_string(),
        final_config: outcome.search.final_config.clone(),
        final_double,
        best_speedup,
        best_error: best_error.is_finite().then_some(best_error),
        one_minimal: outcome.search.one_minimal,
        trials: outcome.metrics.get("cache_hits") + outcome.metrics.get("cache_misses"),
        cache_hits: outcome.metrics.get("cache_hits"),
        evaluated: outcome.metrics.get("cache_misses"),
        preloaded: outcome.metrics.get("cache_preloaded"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;

    /// A small but non-trivial model: driver-side work outside the hotspot
    /// keeps the hotspot share (and the 3x timeout) realistic.
    const PROGRAM: &str = r#"
module hot
contains
  subroutine work(u, n)
    real(kind=8), intent(inout) :: u(n)
    integer, intent(in) :: n
    real(kind=8) :: c
    real(kind=8) :: d
    integer :: i
    c = 1.0000001d0
    d = 0.25d0
    do i = 1, n
      u(i) = u(i) * c + d
    end do
  end subroutine work
end module hot
program main
  use hot
  real(kind=8) :: field(256), diag(2048), acc
  integer :: step, i
  field = 1.0d0
  diag = 0.5d0
  acc = 0.0d0
  do step = 1, 20
    call work(field, 256)
    do i = 1, 2048
      diag(i) = diag(i) * 0.999d0 + 0.001d0
    end do
    acc = acc + sum(diag)
  end do
  call prose_record_array('field', field)
end program main
"#;

    fn spec() -> JobSpec {
        JobSpec {
            procs: vec!["work".into()],
            metric: "maxspace:field:0.0".into(),
            threshold: 1e-3,
            strategy: None,
            granularity: None,
            scope: None,
            seed: None,
            budget: None,
            exclude: vec![],
            workers: None,
            deadline_ms: None,
            retry_attempts: None,
            faults: None,
            n_runs: None,
            noise: None,
        }
    }

    fn tmp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "prose-job-{}-{tag}/journal.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn job_ids_are_content_addressed() {
        let a = spec();
        let mut b = spec();
        assert_eq!(job_id_for(PROGRAM, &a), job_id_for(PROGRAM, &a));
        b.threshold = 1e-4;
        assert_ne!(job_id_for(PROGRAM, &a), job_id_for(PROGRAM, &b));
        assert_ne!(
            job_id_for(PROGRAM, &a),
            job_id_for(&format!("{PROGRAM} "), &a)
        );
        // Formatting-insensitive: parse → canonical → same id.
        let json = r#"{ "threshold": 1e-3,
                        "metric": "maxspace:field:0.0", "procs": ["work"] }"#;
        let parsed = JobSpec::parse(json).unwrap();
        assert_eq!(job_id_for(PROGRAM, &parsed), job_id_for(PROGRAM, &a));
    }

    #[test]
    fn run_job_completes_and_resumes_from_cache() {
        let journal = tmp_journal("resume");
        let _ = std::fs::remove_dir_all(journal.parent().unwrap());
        let request = JobRequest {
            program: PROGRAM.into(),
            spec: spec(),
        };
        let first = run_job(&request, &journal, None).unwrap();
        assert!(first.evaluated > 0, "first run evaluates: {first:?}");
        assert!(first.best_speedup > 1.0, "{first:?}");
        // Re-running the identical job against its journal is pure cache
        // replay: zero interpreter evaluations, identical final config.
        let second = run_job(&request, &journal, None).unwrap();
        assert_eq!(second.evaluated, 0, "replay must not evaluate: {second:?}");
        assert_eq!(second.final_config, first.final_config);
        assert_eq!(second.final_double, first.final_double);
        assert!(second.preloaded > 0);
        std::fs::remove_dir_all(journal.parent().unwrap()).unwrap();
    }

    #[test]
    fn pre_flipped_cancel_token_cancels_before_any_evaluation() {
        let journal = tmp_journal("cancel");
        let _ = std::fs::remove_dir_all(journal.parent().unwrap());
        let cancel = Arc::new(AtomicBool::new(true));
        let request = JobRequest {
            program: PROGRAM.into(),
            spec: spec(),
        };
        match run_job(&request, &journal, Some(cancel.clone())) {
            Err(JobError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // Un-flip and re-run: the job completes normally.
        cancel.store(false, Ordering::Relaxed);
        let done = run_job(&request, &journal, Some(cancel)).unwrap();
        assert!(done.best_speedup > 1.0);
        std::fs::remove_dir_all(journal.parent().unwrap()).unwrap();
    }

    #[test]
    fn bad_specs_fail_fast() {
        let journal = tmp_journal("bad");
        let mut s = spec();
        s.metric = "energy".into();
        let r = JobRequest {
            program: PROGRAM.into(),
            spec: s,
        };
        assert!(matches!(
            run_job(&r, &journal, None),
            Err(JobError::Spec(_))
        ));
        let mut s = spec();
        s.procs = vec![];
        let r = JobRequest {
            program: PROGRAM.into(),
            spec: s,
        };
        assert!(matches!(
            run_job(&r, &journal, None),
            Err(JobError::Spec(_))
        ));
        let r = JobRequest {
            program: "program broken\n".into(),
            spec: spec(),
        };
        assert!(matches!(
            run_job(&r, &journal, None),
            Err(JobError::Model(_))
        ));
    }
}
