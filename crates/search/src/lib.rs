//! # prose-search
//!
//! Search strategies over the mixed-precision design space.
//!
//! Configurations are bit vectors over the search atoms (`true` = lowered
//! to 32-bit), decoupled from the Fortran front end: the orchestrator maps
//! bit positions to FP variable ids. Strategies drive an [`Evaluator`] —
//! the dynamic transform/compile/run/measure loop — and record every trial
//! for the paper's Table II and Figure 5 artifacts.
//!
//! * [`dd::DeltaDebug`] — the Precimonious delta-debugging adaptation
//!   (Section III-B): searches for a *1-minimal* variant, i.e. one whose
//!   remaining 64-bit set cannot lose any single variable without violating
//!   the correctness threshold or dropping to baseline performance.
//!   O(n log n) average, O(n²) worst case.
//! * [`brute::BruteForce`] — exhaustive enumeration (the funarc motivating
//!   example's 2⁸ = 256 variants, Figure 2).

pub mod brute;
pub mod dd;

use serde::{Deserialize, Serialize};

/// One variant's dynamic evaluation summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Status {
    /// Ran to completion and met the correctness threshold.
    Pass,
    /// Ran to completion but exceeded the error threshold.
    FailAccuracy,
    /// Exceeded the 3×-baseline time budget.
    Timeout,
    /// Crashed (non-finite value, guard `stop`, out-of-bounds, ...).
    RuntimeError,
    /// The variant could not be generated/compiled.
    TransformError,
}

/// Measured outcome of one variant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    pub status: Status,
    /// Eq. 1 median speedup vs. baseline (0 when the run did not finish).
    pub speedup: f64,
    /// Correctness-metric relative error (infinite when unavailable).
    /// JSON cannot carry infinities, so the field round-trips through
    /// `null`.
    #[serde(with = "maybe_infinite")]
    pub error: f64,
}

/// Serde adapter: non-finite f64 ⇄ JSON null.
mod maybe_infinite {
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(v: &f64, s: S) -> Result<S::Ok, S::Error> {
        if v.is_finite() {
            s.serialize_some(v)
        } else {
            s.serialize_none()
        }
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<f64, D::Error> {
        Ok(Option::<f64>::deserialize(d)?.unwrap_or(f64::INFINITY))
    }
}

impl Outcome {
    /// Acceptance used by the delta-debugging search: correct *and* faster
    /// than the `min_speedup` bar (the paper: "violates correctness or
    /// results in a variant that is less-performant than the baseline").
    pub fn accepted(&self, min_speedup: f64) -> bool {
        matches!(self.status, Status::Pass) && self.speedup > min_speedup
    }
}

/// A precision configuration: `lowered[i]` selects 32-bit for atom `i`.
pub type Config = Vec<bool>;

/// The dynamic-evaluation side of the Figure-1 cycle.
pub trait Evaluator {
    /// Transform, run, and measure the variant selected by `lowered`.
    fn evaluate(&mut self, lowered: &Config) -> Outcome;

    /// Evaluate a batch of variants. The paper's workflow generates a batch
    /// of precision assignments per search step and evaluates them in
    /// parallel (one Derecho node each, T2/T3 in the artifact appendix);
    /// implementations may parallelize. The default is sequential.
    fn evaluate_batch(&mut self, batch: &[Config]) -> Vec<Outcome> {
        batch.iter().map(|c| self.evaluate(c)).collect()
    }

    /// Number of search atoms.
    fn atom_count(&self) -> usize;
}

/// One explored variant, in exploration order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trial {
    pub index: usize,
    pub config: Config,
    pub outcome: Outcome,
}

impl Trial {
    /// Fraction of atoms at 32-bit — the colour axis of Figures 5/7.
    pub fn fraction_lowered(&self) -> f64 {
        if self.config.is_empty() {
            return 0.0;
        }
        self.config.iter().filter(|b| **b).count() as f64 / self.config.len() as f64
    }
}

/// Result of a search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchResult {
    /// Best accepted variant (max speedup), if any was found.
    pub best: Option<Trial>,
    /// The final configuration the strategy settled on.
    pub final_config: Config,
    /// `true` when the final configuration was verified 1-minimal.
    pub one_minimal: bool,
    /// Every unique variant evaluated, in order.
    pub trace: Vec<Trial>,
    /// `true` when the search stopped on its variant budget rather than its
    /// own termination criterion (the MOM6 12-hour-wall situation).
    pub budget_exhausted: bool,
}

impl SearchResult {
    /// Table II row: counts and percentages by status.
    pub fn status_summary(&self) -> StatusSummary {
        let mut s = StatusSummary {
            total: self.trace.len(),
            ..Default::default()
        };
        for t in &self.trace {
            match t.outcome.status {
                Status::Pass => s.pass += 1,
                Status::FailAccuracy => s.fail += 1,
                Status::Timeout => s.timeout += 1,
                Status::RuntimeError => s.error += 1,
                Status::TransformError => s.transform_error += 1,
            }
        }
        s.best_speedup = self.best.as_ref().map(|t| t.outcome.speedup).unwrap_or(1.0);
        s
    }
}

/// Aggregate counts for Table II.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatusSummary {
    pub total: usize,
    pub pass: usize,
    pub fail: usize,
    pub timeout: usize,
    pub error: usize,
    pub transform_error: usize,
    pub best_speedup: f64,
}

impl StatusSummary {
    pub fn pct(&self, n: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.total as f64
        }
    }
}

/// Observer of the search's probe stream, called by [`Memo`] as the search
/// runs. Implementations feed dashboards, journals, or plain counters; the
/// default methods make every hook optional.
pub trait TrialSink {
    /// A new unique variant was evaluated (it just entered the trace).
    fn on_trial(&mut self, _trial: &Trial) {}

    /// A probe was answered from the search-level memo table without
    /// consulting the evaluator.
    fn on_memo_hit(&mut self, _config: &Config, _outcome: &Outcome) {}
}

/// The simplest [`TrialSink`]: counts probes.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Unique evaluations forwarded to the evaluator.
    pub trials: u64,
    /// Probes answered from the search-level memo table.
    pub memo_hits: u64,
}

impl TrialSink for CountingSink {
    fn on_trial(&mut self, _trial: &Trial) {
        self.trials += 1;
    }

    fn on_memo_hit(&mut self, _config: &Config, _outcome: &Outcome) {
        self.memo_hits += 1;
    }
}

/// Shared memoizing harness: guarantees each unique configuration is
/// evaluated once and every unique evaluation lands in the trace.
pub struct Memo<'a, E: Evaluator> {
    eval: &'a mut E,
    seen: std::collections::HashMap<Config, Outcome>,
    pub trace: Vec<Trial>,
    /// Maximum number of *unique* evaluations; `None` = unlimited.
    pub max_variants: Option<usize>,
    sink: Option<&'a mut dyn TrialSink>,
}

impl<'a, E: Evaluator> Memo<'a, E> {
    pub fn new(eval: &'a mut E, max_variants: Option<usize>) -> Self {
        Memo {
            eval,
            seen: Default::default(),
            trace: Vec::new(),
            max_variants,
            sink: None,
        }
    }

    /// Attach an observer that sees every probe (unique evaluations and
    /// memo hits alike).
    pub fn attach_sink(&mut self, sink: &'a mut dyn TrialSink) {
        self.sink = Some(sink);
    }

    /// Evaluate (or recall) a configuration. Returns `None` when the
    /// variant budget is exhausted and the configuration is new.
    pub fn evaluate(&mut self, cfg: &Config) -> Option<Outcome> {
        if let Some(o) = self.seen.get(cfg) {
            let o = *o;
            if let Some(s) = self.sink.as_deref_mut() {
                s.on_memo_hit(cfg, &o);
            }
            return Some(o);
        }
        if let Some(max) = self.max_variants {
            if self.trace.len() >= max {
                return None;
            }
        }
        let outcome = self.eval.evaluate(cfg);
        self.seen.insert(cfg.clone(), outcome);
        self.trace.push(Trial {
            index: self.trace.len(),
            config: cfg.clone(),
            outcome,
        });
        if let Some(s) = self.sink.as_deref_mut() {
            s.on_trial(self.trace.last().expect("just pushed"));
        }
        Some(outcome)
    }

    pub fn atom_count(&self) -> usize {
        self.eval.atom_count()
    }

    /// Evaluate a batch, deduplicating against the cache and within the
    /// batch, truncating to the remaining variant budget. Returns one
    /// outcome per requested configuration, `None` for configurations that
    /// fell past the budget.
    pub fn evaluate_batch(&mut self, batch: &[Config]) -> Vec<Option<Outcome>> {
        // Collect configurations that still need evaluation, in order.
        let mut fresh: Vec<Config> = Vec::new();
        for cfg in batch {
            if !self.seen.contains_key(cfg) && !fresh.contains(cfg) {
                fresh.push(cfg.clone());
            }
        }
        if let Some(max) = self.max_variants {
            let remaining = max.saturating_sub(self.trace.len());
            fresh.truncate(remaining);
        }
        // Remember which configurations get their first evaluation in this
        // call: the first batch position holding one is the trial, every
        // other answered position is a memo hit.
        let mut fresh_first: std::collections::HashSet<Config> = fresh.iter().cloned().collect();
        if !fresh.is_empty() {
            let start = self.trace.len();
            let outcomes = self.eval.evaluate_batch(&fresh);
            for (cfg, outcome) in fresh.into_iter().zip(outcomes) {
                self.seen.insert(cfg.clone(), outcome);
                self.trace.push(Trial {
                    index: self.trace.len(),
                    config: cfg,
                    outcome,
                });
            }
            if let Some(s) = self.sink.as_deref_mut() {
                for t in &self.trace[start..] {
                    s.on_trial(t);
                }
            }
        }
        let mut out = Vec::with_capacity(batch.len());
        for cfg in batch {
            let o = self.seen.get(cfg).copied();
            if let Some(ref oc) = o {
                if !fresh_first.remove(cfg) {
                    if let Some(s) = self.sink.as_deref_mut() {
                        s.on_memo_hit(cfg, oc);
                    }
                }
            }
            out.push(o);
        }
        out
    }

    /// Best accepted trial so far.
    pub fn best(&self, min_speedup: f64) -> Option<Trial> {
        self.trace
            .iter()
            .filter(|t| t.outcome.accepted(min_speedup))
            .max_by(|a, b| a.outcome.speedup.total_cmp(&b.outcome.speedup))
            .cloned()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Synthetic evaluator: a designated set of atoms must stay 64-bit for
    /// correctness; speedup grows with the number of lowered atoms.
    pub struct Synthetic {
        pub n: usize,
        /// Atoms that break correctness when lowered.
        pub critical: Vec<usize>,
        /// Atoms that cause a runtime error when lowered.
        pub poison: Vec<usize>,
        pub evaluations: usize,
    }

    impl Synthetic {
        pub fn new(n: usize, critical: &[usize]) -> Self {
            Synthetic {
                n,
                critical: critical.to_vec(),
                poison: vec![],
                evaluations: 0,
            }
        }
    }

    impl Evaluator for Synthetic {
        fn evaluate(&mut self, lowered: &Config) -> Outcome {
            self.evaluations += 1;
            assert_eq!(lowered.len(), self.n);
            if self.poison.iter().any(|p| lowered[*p]) {
                return Outcome {
                    status: Status::RuntimeError,
                    speedup: 0.0,
                    error: f64::INFINITY,
                };
            }
            let bad = self.critical.iter().any(|c| lowered[*c]);
            let k = lowered.iter().filter(|b| **b).count();
            let speedup = 1.0 + k as f64 / self.n as f64;
            if bad {
                Outcome {
                    status: Status::FailAccuracy,
                    speedup,
                    error: 10.0,
                }
            } else {
                Outcome {
                    status: Status::Pass,
                    speedup,
                    error: 1e-6,
                }
            }
        }

        fn atom_count(&self) -> usize {
            self.n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::Synthetic;
    use super::*;

    #[test]
    fn outcome_acceptance_requires_pass_and_speedup() {
        let pass_fast = Outcome {
            status: Status::Pass,
            speedup: 1.5,
            error: 0.0,
        };
        let pass_slow = Outcome {
            status: Status::Pass,
            speedup: 0.9,
            error: 0.0,
        };
        let fail_fast = Outcome {
            status: Status::FailAccuracy,
            speedup: 2.0,
            error: 9.0,
        };
        assert!(pass_fast.accepted(1.0));
        assert!(!pass_slow.accepted(1.0));
        assert!(!fail_fast.accepted(1.0));
    }

    #[test]
    fn memo_deduplicates_and_respects_budget() {
        let mut ev = Synthetic::new(4, &[]);
        let mut memo = Memo::new(&mut ev, Some(2));
        let a = vec![true, false, false, false];
        let b = vec![false, true, false, false];
        let c = vec![false, false, true, false];
        assert!(memo.evaluate(&a).is_some());
        assert!(memo.evaluate(&a).is_some()); // cached, no new eval
        assert!(memo.evaluate(&b).is_some());
        assert!(memo.evaluate(&c).is_none()); // budget
        assert_eq!(memo.trace.len(), 2);
        assert_eq!(ev.evaluations, 2);
    }

    #[test]
    fn trial_sink_observes_probes_and_memo_hits() {
        let mut ev = Synthetic::new(4, &[]);
        let mut sink = CountingSink::default();
        let a = vec![true, false, false, false];
        let b = vec![false, true, false, false];
        {
            let mut memo = Memo::new(&mut ev, None);
            memo.attach_sink(&mut sink);
            memo.evaluate(&a);
            memo.evaluate(&a); // memo hit
            memo.evaluate(&b);
            // All three answered from the table: two pre-seen plus an
            // in-batch duplicate.
            memo.evaluate_batch(&[a.clone(), b.clone(), a.clone()]);
            // One fresh config evaluated, its duplicate is a hit.
            let c = vec![false, false, true, false];
            memo.evaluate_batch(&[c.clone(), c.clone()]);
            assert_eq!(memo.trace.len(), 3);
        }
        assert_eq!(ev.evaluations, 3);
        assert_eq!(sink.trials, 3);
        assert_eq!(sink.memo_hits, 5);
    }

    #[test]
    fn outcome_serde_round_trips_infinity() {
        let o = Outcome {
            status: Status::RuntimeError,
            speedup: 0.0,
            error: f64::INFINITY,
        };
        let text = serde_json::to_string(&o).unwrap();
        let back: Outcome = serde_json::from_str(&text).unwrap();
        assert_eq!(back.error, f64::INFINITY);
        let o2 = Outcome {
            status: Status::Pass,
            speedup: 1.5,
            error: 1e-6,
        };
        let back2: Outcome = serde_json::from_str(&serde_json::to_string(&o2).unwrap()).unwrap();
        assert_eq!(back2, o2);
    }

    #[test]
    fn trial_fraction_lowered() {
        let t = Trial {
            index: 0,
            config: vec![true, true, false, false],
            outcome: Outcome {
                status: Status::Pass,
                speedup: 1.0,
                error: 0.0,
            },
        };
        assert_eq!(t.fraction_lowered(), 0.5);
    }

    #[test]
    fn status_summary_counts() {
        let mk = |status| Trial {
            index: 0,
            config: vec![],
            outcome: Outcome {
                status,
                speedup: 1.2,
                error: 0.0,
            },
        };
        let r = SearchResult {
            best: Some(mk(Status::Pass)),
            final_config: vec![],
            one_minimal: true,
            trace: vec![
                mk(Status::Pass),
                mk(Status::FailAccuracy),
                mk(Status::FailAccuracy),
                mk(Status::Timeout),
                mk(Status::RuntimeError),
            ],
            budget_exhausted: false,
        };
        let s = r.status_summary();
        assert_eq!(s.total, 5);
        assert_eq!(s.pass, 1);
        assert_eq!(s.fail, 2);
        assert_eq!(s.timeout, 1);
        assert_eq!(s.error, 1);
        assert!((s.pct(s.fail) - 40.0).abs() < 1e-12);
        assert_eq!(s.best_speedup, 1.2);
    }
}
