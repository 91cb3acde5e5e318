//! Held-out ensemble validation of tuned precision configurations.
//!
//! Delta debugging returns a 1-minimal configuration that passed the
//! correctness metric **on one input**: the literal constants the model's
//! driver happens to set. A configuration can overfit that input — a
//! branch that never executes during tuning leaves the precision of its
//! variables completely unconstrained. This module re-evaluates the final
//! configuration (and the runner-up frontier, so a demotion still leaves a
//! usable answer) across an ensemble of seeded input perturbations
//! ([`prose_fortran::perturb`]) and demotes candidates that fail any
//! member.
//!
//! Each member gets its own [`DynamicEvaluator`] over the perturbed
//! program, which re-measures the fp64 baseline on the *member's* input —
//! member speedups and error metrics are therefore self-consistent, never
//! compared against the tuning input's baseline.
//!
//! Resume: member tasks inherit the trial journal and stamp their member
//! id into every record ([`TuningTask::member`]); the evaluator's preload
//! only admits records from the same member, so an interrupted validation
//! re-runs nothing that already completed and never serves one member's
//! measurement to another.

use crate::evaluator::{DynamicEvaluator, VariantRecord};
use crate::tuner::{TuningOutcome, TuningTask};
use prose_fortran::{analyze, member_seed, perturb_main, FortranError};
use prose_interp::RunError;
use prose_search::{Config, Status};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Ensemble validation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnsembleParams {
    /// Number of perturbed held-out members (ids `1..=members`).
    pub members: u32,
    /// Base seed; member `m` perturbs with [`member_seed`]`(seed, m)`.
    pub seed: u64,
    /// Relative perturbation amplitude.
    pub amplitude: f64,
    /// Candidate budget: the final configuration plus up to
    /// `max_candidates - 1` runner-ups from the accepted frontier.
    pub max_candidates: usize,
}

impl Default for EnsembleParams {
    fn default() -> Self {
        EnsembleParams {
            members: 3,
            seed: 0xE17,
            amplitude: prose_fortran::DEFAULT_AMPLITUDE,
            max_candidates: 3,
        }
    }
}

/// One candidate's measurement on one ensemble member.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemberResult {
    pub member: u32,
    pub record: VariantRecord,
}

impl MemberResult {
    /// Did the candidate hold up on this member?
    pub fn passed(&self) -> bool {
        self.record.outcome.status == Status::Pass
    }
}

/// A candidate configuration's validation across all members.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateValidation {
    /// Search configuration (true = 32-bit).
    pub config: Config,
    pub fraction_single: f64,
    /// Speedup measured on the tuning input (what the search believed).
    pub tuning_speedup: f64,
    pub members: Vec<MemberResult>,
    /// Passed every member — not input-overfit at this amplitude.
    pub validated: bool,
}

impl CandidateValidation {
    /// Members on which this candidate failed.
    pub fn failed_members(&self) -> Vec<u32> {
        self.members
            .iter()
            .filter(|m| !m.passed())
            .map(|m| m.member)
            .collect()
    }

    /// Worst (minimum) member speedup, when every member completed.
    pub fn min_member_speedup(&self) -> Option<f64> {
        self.members
            .iter()
            .map(|m| m.record.outcome.speedup)
            .min_by(f64::total_cmp)
    }
}

/// The full ensemble-validation report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnsembleReport {
    pub params: EnsembleParams,
    /// Final configuration first, then runner-ups by tuning speedup.
    pub candidates: Vec<CandidateValidation>,
    /// Index into `candidates` of the first fully validated candidate.
    pub winner: Option<usize>,
}

impl EnsembleReport {
    /// The validated configuration to ship, if any survived.
    pub fn winning_config(&self) -> Option<&Config> {
        self.winner.map(|i| &self.candidates[i].config)
    }

    /// True when the search's final configuration itself was demoted
    /// (failed at least one member).
    pub fn final_demoted(&self) -> bool {
        self.candidates.first().is_some_and(|c| !c.validated)
    }
}

/// Ensemble validation error: member programs are re-analyzed, so both
/// front-end and interpreter failures can surface.
#[derive(Debug)]
pub enum EnsembleError {
    Analyze(FortranError),
    Run(RunError),
}

impl std::fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleError::Analyze(e) => write!(f, "ensemble member analysis failed: {e}"),
            EnsembleError::Run(e) => write!(f, "ensemble member evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for EnsembleError {}

/// Pick the candidate list: the final configuration first, then distinct
/// accepted runner-ups ordered by tuning-input speedup, `max` total.
pub fn candidate_frontier(
    final_config: &Config,
    variants: &[VariantRecord],
    min_speedup: f64,
    max: usize,
) -> Vec<(Config, f64)> {
    let final_speedup = variants
        .iter()
        .filter(|r| &r.config == final_config)
        .map(|r| r.outcome.speedup)
        .next_back()
        .unwrap_or(1.0);
    let mut seen: BTreeSet<&Config> = BTreeSet::new();
    seen.insert(final_config);
    let mut out = vec![(final_config.clone(), final_speedup)];
    let mut runners: Vec<&VariantRecord> = variants
        .iter()
        .filter(|r| r.outcome.status == Status::Pass && r.outcome.speedup >= min_speedup)
        .collect();
    runners.sort_by(|a, b| b.outcome.speedup.total_cmp(&a.outcome.speedup));
    for r in runners {
        if out.len() >= max {
            break;
        }
        if seen.insert(&r.config) {
            out.push((r.config.clone(), r.outcome.speedup));
        }
    }
    out
}

/// Build the tuning task for one held-out member: the same experiment over
/// the perturbed program, stamped with the member id.
fn member_task(
    task: &TuningTask,
    member: u32,
    params: &EnsembleParams,
) -> Result<TuningTask, EnsembleError> {
    let (program, _) = perturb_main(
        &task.program,
        member_seed(params.seed, member),
        params.amplitude,
    );
    // Perturbation only rewrites literal values; declarations are untouched,
    // so re-analysis assigns identical FP-variable ids and the task's atom
    // list carries over verbatim.
    let index = analyze(&program).map_err(EnsembleError::Analyze)?;
    Ok(TuningTask {
        program,
        index,
        atoms: task.atoms.clone(),
        hotspot_procs: task.hotspot_procs.clone(),
        metric: task.metric.clone(),
        error_threshold: task.error_threshold,
        n_runs: task.n_runs,
        noise_rsd: task.noise_rsd,
        seed: task.seed,
        scope: task.scope,
        cost: task.cost.clone(),
        timeout_factor: task.timeout_factor,
        max_variants: task.max_variants,
        min_speedup: task.min_speedup,
        max_events: task.max_events,
        journal: task.journal.clone(),
        variant_path: task.variant_path,
        crosscheck: task.crosscheck,
        strict: task.strict,
        faults: task.faults.clone(),
        retry_band: task.retry_band,
        retry_max_runs: task.retry_max_runs,
        wal_flush: task.wal_flush,
        shadow: task.shadow,
        shadow_budget: task.shadow_budget,
        granularity: task.granularity,
        absint: task.absint,
        member: Some(member),
        workers: task.workers,
        deadline_ms: task.deadline_ms,
        retry_attempts: task.retry_attempts,
        job_id: task.job_id.clone(),
        cancel: task.cancel.clone(),
    })
}

/// Validate a tuning outcome's final configuration (plus runner-ups)
/// across `params.members` held-out input perturbations.
pub fn validate_ensemble(
    task: &TuningTask,
    outcome: &TuningOutcome,
    params: &EnsembleParams,
) -> Result<EnsembleReport, EnsembleError> {
    let frontier = candidate_frontier(
        &outcome.search.final_config,
        &outcome.variants,
        task.min_speedup,
        params.max_candidates.max(1),
    );
    let mut candidates: Vec<CandidateValidation> = frontier
        .into_iter()
        .map(|(config, tuning_speedup)| {
            let n32 = config.iter().filter(|b| **b).count();
            CandidateValidation {
                fraction_single: if config.is_empty() {
                    0.0
                } else {
                    n32 as f64 / config.len() as f64
                },
                config,
                tuning_speedup,
                members: Vec::new(),
                validated: true,
            }
        })
        .collect();
    for m in 1..=params.members {
        let mtask = member_task(task, m, params)?;
        let mut eval = DynamicEvaluator::new(&mtask).map_err(EnsembleError::Run)?;
        // One batch per member: candidate evaluations ride the same worker
        // pool as search probes, and come back (and are journaled) in
        // candidate order regardless of worker count.
        let configs: Vec<Config> = candidates.iter().map(|c| c.config.clone()).collect();
        let records = eval.eval_batch_records(&configs);
        for (cand, record) in candidates.iter_mut().zip(records) {
            cand.validated &= record.outcome.status == Status::Pass;
            cand.members.push(MemberResult { member: m, record });
        }
    }
    let winner = candidates.iter().position(|c| c.validated);
    Ok(EnsembleReport {
        params: params.clone(),
        candidates,
        winner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prose_search::Outcome;

    fn rec(config: Vec<bool>, status: Status, speedup: f64) -> VariantRecord {
        VariantRecord {
            config,
            outcome: Outcome {
                status,
                speedup,
                error: 0.0,
            },
            fraction_single: 0.0,
            per_proc: vec![],
            wrappers: vec![],
            detail: None,
            total_cycles: None,
            hotspot_cycles: None,
            failure: None,
            fault_kind: None,
            fault_seed: None,
            shadow: None,
        }
    }

    #[test]
    fn frontier_puts_final_first_then_best_distinct_runners() {
        let fin = vec![true, true, false];
        let variants = vec![
            rec(vec![true, false, false], Status::Pass, 1.2),
            rec(fin.clone(), Status::Pass, 1.5),
            rec(vec![false, true, false], Status::Pass, 1.4),
            rec(vec![false, true, false], Status::Pass, 1.4), // duplicate config
            rec(vec![false, false, true], Status::FailAccuracy, 9.0), // not accepted
            rec(vec![true, true, true], Status::Pass, 0.9),   // below bar
        ];
        let got = candidate_frontier(&fin, &variants, 1.0, 3);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (fin, 1.5));
        assert_eq!(got[1], (vec![false, true, false], 1.4));
        assert_eq!(got[2], (vec![true, false, false], 1.2));
    }

    #[test]
    fn frontier_survives_missing_final_record() {
        let fin = vec![false, false];
        let got = candidate_frontier(&fin, &[], 1.0, 3);
        assert_eq!(got, vec![(fin, 1.0)]);
    }

    #[test]
    fn frontier_respects_candidate_budget() {
        let fin = vec![true];
        let variants = vec![
            rec(vec![false], Status::Pass, 1.3),
            rec(fin.clone(), Status::Pass, 1.1),
        ];
        let got = candidate_frontier(&fin, &variants, 1.0, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, fin);
    }
}
