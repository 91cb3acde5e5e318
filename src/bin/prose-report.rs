//! `prose-report` — summarize a trial journal into Table II / Figure 5
//! style artifacts plus cache and search-efficiency statistics.
//!
//! ```text
//! prose-report <trials.jsonl> [--csv out.csv] [--guardrails] [--lints lints.json]
//!              [--certify cert.json] [--repair]
//! prose-report --variant-path-bench <fast.jsonl> <faithful.jsonl> [--out BENCH_variant_path.json]
//! ```
//!
//! `--repair` loads the journal in self-healing mode: corrupt mid-file
//! records (torn writes, bit rot — anything that fails to parse or whose
//! CRC32 mismatches) are quarantined into `<journal>.quarantine`, a torn
//! tail is truncated, and the report runs over the surviving records.
//!
//! `--lints` takes the JSON document written by `prose-lint --format json`
//! and renders the static findings next to the journal's dynamic shadow
//! evidence: a lint whose `proc:line` site matches a journaled cancellation
//! site or non-finite origin is flagged as dynamically confirmed.
//!
//! `--certify` takes the config certificate written by `prose-tune
//! --certify` and re-validates it against the journal: every journaled
//! shadow summary whose configuration matches the certificate must observe
//! no more error in its worst variable than the certified static bound. A
//! violation — here or recorded in the certificate itself — is a soundness
//! bug in the static analysis and fails the report.
//!
//! The journal is the JSONL file written by `prose-tune --journal`, by the
//! `prose-bench` search binaries (`results/trials_<model>.jsonl`), or by
//! any [`prose::core::tuner::TuningTask`] with `journal` set. Each record
//! is one evaluation request; `cached` records were answered from the
//! memoization cache without running the interpreter.
//!
//! `--variant-path-bench` compares two journals of the *same* search run
//! once per variant path (`--variant-path fast` / `faithful` on the search
//! binary) and snapshots uncached-evaluation throughput and per-stage wall
//! shares as `BENCH_variant_path.json`.

use prose::trace::{Counters, Journal, TrialRecord};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: prose-report <trials.jsonl> [--csv out.csv] [--guardrails] [--lints lints.json]\n\
         \x20                [--certify cert.json] [--repair]\n\
         \x20      prose-report --variant-path-bench <fast.jsonl> <faithful.jsonl> [--out out.json]\n\
         options: --guardrails (numerical-guardrail section: shadow-error demotions,\n\
         cancellation and non-finite provenance, per-member ensemble records),\n\
         --lints lints.json (static-lint section from `prose-lint --format json`\n\
         output, cross-referenced against the journal's shadow sites),\n\
         --certify cert.json (config-certificate section from `prose-tune --certify`\n\
         output, re-validated against the journal's shadow summaries; any violated\n\
         static bound is a soundness bug and fails the report),\n\
         --repair (self-healing load: quarantine corrupt mid-file records to\n\
         <journal>.quarantine, truncate a torn tail, report on the survivors)"
    );
    std::process::exit(2)
}

/// Uncached-evaluation statistics of one journal, for the variant-path
/// benchmark snapshot.
#[derive(serde::Serialize)]
struct PathStats {
    journal: String,
    /// `variant_path` recorded in the journal (empty for pre-fast-path
    /// journals).
    variant_path: String,
    /// Uncached evaluations (interpreter runs).
    evaluations: u64,
    /// Total wall nanoseconds per pipeline stage, uncached records only.
    stage_ns: BTreeMap<String, u64>,
    /// Each stage's fraction of the summed stage wall time.
    stage_share: BTreeMap<String, f64>,
    /// Uncached evaluations per second of summed stage wall time.
    evals_per_sec: f64,
    mean_eval_ms: f64,
    /// Variant-generation (`transform` + `lower`) milliseconds per uncached
    /// evaluation — the cost the fast path removes; `exec` is identical on
    /// both paths by construction.
    generation_ms_per_eval: f64,
}

fn path_stats(path: &str) -> Result<PathStats, String> {
    let records = Journal::load(path).map_err(|e| format!("cannot read journal {path}: {e}"))?;
    let misses: Vec<&TrialRecord> = records.iter().filter(|r| !r.cached).collect();
    if misses.is_empty() {
        return Err(format!("{path}: no uncached evaluations to measure"));
    }
    let mut stage_ns: BTreeMap<String, u64> = BTreeMap::new();
    for r in &misses {
        for (k, v) in &r.stages {
            *stage_ns.entry(k.clone()).or_insert(0) += v;
        }
    }
    let total_ns: u64 = stage_ns.values().sum();
    let stage_share = stage_ns
        .iter()
        .map(|(k, v)| (k.clone(), *v as f64 / total_ns.max(1) as f64))
        .collect();
    let variant_path = misses
        .iter()
        .find(|r| !r.variant_path.is_empty())
        .map(|r| r.variant_path.clone())
        .unwrap_or_default();
    let gen_ns = stage_ns.get("transform").copied().unwrap_or(0)
        + stage_ns.get("lower").copied().unwrap_or(0);
    Ok(PathStats {
        journal: path.to_string(),
        variant_path,
        evaluations: misses.len() as u64,
        evals_per_sec: misses.len() as f64 / (total_ns as f64 / 1e9),
        mean_eval_ms: total_ns as f64 / 1e6 / misses.len() as f64,
        generation_ms_per_eval: gen_ns as f64 / 1e6 / misses.len() as f64,
        stage_ns,
        stage_share,
    })
}

fn variant_path_bench(argv: &[String]) -> ExitCode {
    let mut out = "results/BENCH_variant_path.json".to_string();
    let mut journals: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                let Some(p) = argv.get(i) else { usage() };
                out = p.clone();
            }
            a if !a.starts_with("--") => journals.push(a.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    if journals.len() != 2 {
        usage();
    }
    let (fast, faithful) = match (path_stats(&journals[0]), path_stats(&journals[1])) {
        (Ok(f), Ok(g)) => (f, g),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ratio = fast.evals_per_sec / faithful.evals_per_sec;
    let gen_ratio = faithful.generation_ms_per_eval / fast.generation_ms_per_eval;
    #[derive(serde::Serialize)]
    struct BenchDoc {
        bench: &'static str,
        description: &'static str,
        fast: PathStats,
        faithful: PathStats,
        /// End-to-end uncached-evaluation throughput ratio (includes
        /// execution, which dominates on the in-repo models).
        throughput_ratio_fast_over_faithful: f64,
        /// Variant-generation (transform+lower) cost ratio — the stage the
        /// fast path replaces.
        generation_speedup_fast_over_faithful: f64,
    }
    let doc = BenchDoc {
        bench: "variant_path",
        description: "Uncached variant-evaluation throughput and per-stage wall shares, \
                      template fast path vs faithful unparse/reparse/re-lower pipeline, \
                      from the two searches' trial journals.",
        fast,
        faithful,
        throughput_ratio_fast_over_faithful: ratio,
        generation_speedup_fast_over_faithful: gen_ratio,
    };
    let text = serde_json::to_string_pretty(&doc).expect("serialize");
    if let Err(e) = std::fs::write(&out, text + "\n") {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out}: fast {:.1} evals/s vs faithful {:.1} evals/s ({ratio:.2}x end-to-end, \
         {gen_ratio:.2}x variant generation)",
        doc.fast.evals_per_sec, doc.faithful.evals_per_sec
    );
    ExitCode::SUCCESS
}

struct Args {
    journal: String,
    csv: Option<String>,
    guardrails: bool,
    lints: Option<String>,
    certify: Option<String>,
    repair: bool,
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut journal = None;
    let mut csv = None;
    let mut guardrails = false;
    let mut lints = None;
    let mut certify = None;
    let mut repair = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--csv" => {
                i += 1;
                csv = Some(argv.get(i)?.clone());
            }
            "--guardrails" => guardrails = true,
            "--lints" => {
                i += 1;
                lints = Some(argv.get(i)?.clone());
            }
            "--certify" => {
                i += 1;
                certify = Some(argv.get(i)?.clone());
            }
            "--repair" => repair = true,
            a if journal.is_none() && !a.starts_with("--") => journal = Some(a.to_string()),
            _ => return None,
        }
        i += 1;
    }
    Some(Args {
        journal: journal?,
        csv,
        guardrails,
        lints,
        certify,
        repair,
    })
}

/// The supervision section: wall-clock deadline kills, transient-failure
/// retries, and quarantined journal records. Journals written before the
/// supervision layer existed carry none of these fields (all
/// serde-defaulted) and report zeros.
fn print_supervision(records: &[TrialRecord], journal: &str) {
    println!();
    println!("== supervision ==");

    let deadline_kills = records
        .iter()
        .filter(|r| r.failure_kind.as_deref() == Some("deadline"))
        .count();
    println!("  deadline kills:      {deadline_kills}");

    // A record was retried when the journal also holds the same config at
    // the next attempt ordinal; group the retried failures by kind.
    let attempts_seen: std::collections::HashSet<(&[bool], u32)> = records
        .iter()
        .map(|r| (r.config.as_slice(), r.attempt))
        .collect();
    let mut retried_by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        if attempts_seen.contains(&(r.config.as_slice(), r.attempt + 1)) {
            let kind = r.failure_kind.as_deref().unwrap_or("unknown");
            *retried_by_kind.entry(kind).or_insert(0) += 1;
        }
    }
    let retry_records = records.iter().filter(|r| r.attempt > 0).count();
    let recovered: std::collections::HashSet<&[bool]> = records
        .iter()
        .filter(|r| r.attempt > 0 && r.status == "pass")
        .map(|r| r.config.as_slice())
        .collect();
    println!("  retry attempts:      {retry_records}");
    if !retried_by_kind.is_empty() {
        let desc: Vec<String> = retried_by_kind
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        println!("  retried failures:    {}", desc.join(", "));
        println!("  recovered by retry:  {} config(s)", recovered.len());
    }

    let qpath = prose::trace::quarantine_path_for(std::path::Path::new(journal));
    match std::fs::read_to_string(&qpath) {
        Ok(s) => {
            let n = s.lines().filter(|l| !l.trim().is_empty()).count();
            println!("  quarantined records: {n} (in {})", qpath.display());
        }
        Err(_) => println!("  quarantined records: none"),
    }
}

/// The `--guardrails` section: everything the journal knows about shadow
/// execution, error provenance, and held-out ensemble validation. Older
/// journals (written before these fields existed) simply report that no
/// guardrail data is present — every field is serde-defaulted.
fn print_guardrails(records: &[TrialRecord]) {
    println!();
    println!("== numerical guardrails ==");

    let shadowed: Vec<&TrialRecord> = records.iter().filter(|r| r.shadow.is_some()).collect();
    if shadowed.is_empty() && records.iter().all(|r| r.member.is_none()) {
        println!("  no shadow or ensemble data in this journal (pre-guardrail run?)");
        return;
    }
    println!(
        "  shadowed trials:     {} of {} records",
        shadowed.len(),
        records.len()
    );

    // Demotions: the scalar metric said pass, the fp64 shadow said no.
    let demoted: Vec<&TrialRecord> = shadowed
        .iter()
        .filter(|r| r.shadow.as_ref().is_some_and(|s| s.demoted))
        .copied()
        .collect();
    println!("  shadow demotions:    {}", demoted.len());
    for r in demoted.iter().take(10) {
        let s = r.shadow.as_ref().unwrap();
        println!(
            "    trial {}: worst rel {:.3e} in {}{}",
            r.seq,
            s.worst_rel,
            s.worst_var.as_deref().unwrap_or("?"),
            if s.cancellations > 0 {
                format!(
                    ", {} cancellation(s){}",
                    s.cancellations,
                    s.cancellation_site
                        .as_deref()
                        .map(|site| format!(" worst at {site}"))
                        .unwrap_or_default()
                )
            } else {
                String::new()
            }
        );
    }
    if demoted.len() > 10 {
        println!("    ... and {} more", demoted.len() - 10);
    }

    // Worst shadow error over all shadowed trials, demoted or not.
    if let Some(worst) = shadowed
        .iter()
        .max_by(|a, b| {
            let (sa, sb) = (a.shadow.as_ref().unwrap(), b.shadow.as_ref().unwrap());
            sa.worst_rel.total_cmp(&sb.worst_rel)
        })
        .and_then(|r| r.shadow.as_ref())
    {
        println!(
            "  worst shadow error:  {:.3e} in {}",
            worst.worst_rel,
            worst.worst_var.as_deref().unwrap_or("?")
        );
    }

    // Non-finite provenance: genuine numerical blow-ups vs harness faults.
    let genuine: Vec<&TrialRecord> = shadowed
        .iter()
        .filter(|r| {
            r.shadow
                .as_ref()
                .is_some_and(|s| s.nonfinite_origin.is_some() && !s.nonfinite_injected)
        })
        .copied()
        .collect();
    let injected = shadowed
        .iter()
        .filter(|r| r.shadow.as_ref().is_some_and(|s| s.nonfinite_injected))
        .count();
    if !genuine.is_empty() || injected > 0 {
        println!(
            "  non-finite origins:  {} genuine, {} fault-injected",
            genuine.len(),
            injected
        );
        for r in genuine.iter().take(5) {
            let s = r.shadow.as_ref().unwrap();
            println!(
                "    trial {}: first produced by {}",
                r.seq,
                s.nonfinite_origin.as_deref().unwrap_or("?")
            );
        }
    }

    // Held-out ensemble members, grouped by member id.
    let mut by_member: BTreeMap<u32, (usize, usize, usize)> = BTreeMap::new();
    for r in records {
        if let Some(m) = r.member {
            let e = by_member.entry(m).or_insert((0, 0, 0));
            e.0 += 1;
            if r.status == "pass" {
                e.1 += 1;
            }
            if r.cached {
                e.2 += 1;
            }
        }
    }
    if by_member.is_empty() {
        println!("  ensemble members:    none journaled");
    } else {
        println!("  ensemble members:    {}", by_member.len());
        for (m, (n, pass, cached)) in &by_member {
            println!("    member {m}: {n} trial(s), {pass} pass, {cached} replayed from journal");
        }
    }
}

/// The document written by `prose-lint --format json`.
#[derive(serde::Deserialize)]
struct LintDoc {
    file: String,
    map: String,
    lints: Vec<prose::analysis::Lint>,
}

/// The `--lints` section: static numerical-hazard findings rendered next to
/// the journal's dynamic shadow evidence. The lints carry `proc:line` sites
/// in the same key space as the shadow machinery's cancellation sites and
/// non-finite origins, so a static hazard the shadow actually observed at
/// run time is marked as dynamically confirmed. Journals written before the
/// shadow fields existed simply yield no confirmations.
fn print_lints(doc: &LintDoc, records: &[TrialRecord]) {
    println!();
    println!("== static numerical-hazard lints ==");
    println!(
        "  {}: {} finding(s) under the `{}` precision map",
        doc.file,
        doc.lints.len(),
        doc.map
    );

    // Dynamic sites the shadow machinery attributed hazards to, normalized
    // back to bare `proc:line` keys ("fun:12 (24.0 bits)" -> "fun:12",
    // "sub at fun:12" -> "fun:12").
    let mut dynamic_sites: BTreeMap<String, &'static str> = BTreeMap::new();
    for r in records {
        let Some(s) = &r.shadow else { continue };
        if let Some(site) = &s.cancellation_site {
            let key = site.split_whitespace().next().unwrap_or(site).to_string();
            dynamic_sites.entry(key).or_insert("cancellation observed");
        }
        if let Some(origin) = s
            .nonfinite_origin
            .as_deref()
            .filter(|_| !s.nonfinite_injected)
        {
            let key = origin.rsplit(" at ").next().unwrap_or(origin).to_string();
            dynamic_sites.entry(key).or_insert("non-finite origin");
        }
    }

    let mut confirmed = 0usize;
    for l in &doc.lints {
        let var = l
            .variable
            .as_deref()
            .map(|v| format!(" [{v}]"))
            .unwrap_or_default();
        let dynamic = match dynamic_sites.get(&l.site) {
            Some(kind) => {
                confirmed += 1;
                format!("  <- shadow: {kind} at this site")
            }
            None => String::new(),
        };
        println!("  {}: {:?}{var}: {}{dynamic}", l.site, l.kind, l.message);
    }
    if dynamic_sites.is_empty() {
        println!("  no dynamic shadow sites in this journal to cross-reference");
    } else {
        println!(
            "  dynamically confirmed: {confirmed} of {} static finding(s) \
             ({} shadow site(s) in journal)",
            doc.lints.len(),
            dynamic_sites.len()
        );
    }
}

/// The `--certify` section: the config certificate written by `prose-tune
/// --certify`, re-validated against the journal. Two layers of evidence:
/// the certificate's own checks (shadow run at certification time) and the
/// journal's shadow summaries for every record whose configuration matches
/// the certified one. Returns the total violation count — anything above
/// zero means the static analysis promised a bound the dynamics broke.
fn print_certify(cert: &prose::core::Certificate, records: &[TrialRecord]) -> usize {
    println!();
    println!("== config certificate ==");
    println!(
        "  certified config:    {} ({:.0}% lowered, budget {:.3e})",
        cert.file,
        100.0 * cert.fraction_single,
        cert.budget
    );
    println!(
        "  static bounds:       {} finite checked, {} unbounded, {} uncovered{}",
        cert.checks.len(),
        cert.unbounded.len(),
        cert.uncovered.len(),
        if cert.incomplete {
            " (analysis incomplete)"
        } else {
            ""
        }
    );
    println!("  certificate violations: {}", cert.violations);
    for c in cert.checks.iter().filter(|c| !c.sound) {
        println!(
            "    SOUNDNESS BUG {}: observed rel {:.3e} vs static {:.3e}",
            c.name, c.observed_rel, c.static_rel
        );
    }

    let (matching, checked, violating) = prose::core::crosscheck_journal(cert, records);
    println!(
        "  journal cross-check: {matching} matching record(s), {checked} with shadow \
         summaries, {} violation(s)",
        violating.len()
    );
    for seq in violating.iter().take(10) {
        println!("    SOUNDNESS BUG: trial {seq} observed more error than the certified bound");
    }
    cert.violations + violating.len()
}

/// The service-job section: a journal that lives in a `prose-served`
/// `jobs/<id>/` directory (sibling `state.jsonl` WAL) or whose records
/// carry `job` stamps gets its job id and current state printed. Standalone
/// `prose-tune` journals have neither and skip the section; records from
/// writers predating the service layer read the stamp as `None`
/// (serde-defaulted), so old journals keep loading unchanged.
fn print_job(records: &[TrialRecord], journal: &str) {
    let dir = std::path::Path::new(journal).parent();
    let state_path = dir.map(|d| d.join("state.jsonl")).filter(|p| p.is_file());
    let stamped: Option<&str> = records.iter().find_map(|r| r.job.as_deref());
    if stamped.is_none() && state_path.is_none() {
        return;
    }
    println!();
    println!("== service job ==");
    let id = stamped
        .map(str::to_string)
        .or_else(|| {
            dir.and_then(|d| d.file_name())
                .map(|n| n.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "unknown".to_string());
    println!("  job id:              {id}");
    let stamped_count = records.iter().filter(|r| r.job.is_some()).count();
    println!(
        "  stamped records:     {stamped_count} of {} carry the job id",
        records.len()
    );
    if let Some(path) = state_path {
        match prose::trace::load_states(&path) {
            Ok(states) => {
                let current = states
                    .last()
                    .map(|s| s.state)
                    .unwrap_or(prose::trace::JobState::Queued);
                println!("  state:               {}", current.name());
                if let Some(last) = states.last().filter(|s| !s.detail.is_empty()) {
                    println!("  detail:              {}", last.detail);
                }
                let history: Vec<&str> = states.iter().map(|s| s.state.name()).collect();
                println!("  transitions:         {}", history.join(" -> "));
            }
            Err(e) => println!("  state:               unreadable ({e})"),
        }
    } else {
        println!("  state:               no state WAL next to this journal");
    }
}

fn pct(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--variant-path-bench") {
        return variant_path_bench(&argv[1..]);
    }
    let Some(args) = parse_args() else { usage() };
    let records = if args.repair {
        match Journal::load_repair(std::path::Path::new(&args.journal)) {
            Ok(rep) => {
                if rep.damaged() > 0 {
                    println!(
                        "repair: {} damaged record(s) quarantined{}, {} torn line(s) dropped",
                        rep.quarantined,
                        rep.quarantine_path
                            .as_ref()
                            .map(|p| format!(" to {}", p.display()))
                            .unwrap_or_default(),
                        rep.torn_tail
                    );
                } else {
                    println!("repair: journal healthy, nothing to do");
                }
                rep.records
            }
            Err(e) => {
                eprintln!("error: cannot repair journal {}: {e}", args.journal);
                return ExitCode::FAILURE;
            }
        }
    } else {
        match Journal::load(&args.journal) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: cannot read journal {}: {e}", args.journal);
                return ExitCode::FAILURE;
            }
        }
    };
    if records.is_empty() {
        println!("{}: empty journal", args.journal);
        return ExitCode::SUCCESS;
    }

    // ---- cache / search efficiency ------------------------------------
    let total = records.len();
    let hits: Vec<&TrialRecord> = records.iter().filter(|r| r.cached).collect();
    let misses: Vec<&TrialRecord> = records.iter().filter(|r| !r.cached).collect();
    let mut unique: BTreeMap<&[bool], &TrialRecord> = BTreeMap::new();
    for r in &records {
        unique.entry(&r.config).or_insert(r);
    }
    println!("journal: {} ({} records)", args.journal, total);
    print_job(&records, &args.journal);
    println!();
    println!("== cache / search efficiency ==");
    println!("  requests:            {total}");
    println!("  unique configs:      {}", unique.len());
    println!("  interpreter runs:    {}", misses.len());
    println!(
        "  cache hits:          {} ({:.1}% of requests)",
        hits.len(),
        pct(hits.len(), total)
    );
    let wall_ms: f64 = records.iter().map(|r| r.wall_ms).sum();
    let miss_ms: f64 = misses.iter().map(|r| r.wall_ms).sum();
    if !misses.is_empty() && !hits.is_empty() {
        let mean_miss = miss_ms / misses.len() as f64;
        println!(
            "  est. time saved:     {:.1} ms ({} hits x {:.2} ms mean evaluation)",
            hits.len() as f64 * mean_miss,
            hits.len(),
            mean_miss
        );
    }
    println!("  journal wall time:   {wall_ms:.1} ms");
    let mut by_path: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &misses {
        let p = if r.variant_path.is_empty() {
            "unknown"
        } else {
            r.variant_path.as_str()
        };
        *by_path.entry(p).or_insert(0) += 1;
    }
    if by_path.keys().any(|k| *k != "unknown") {
        let desc: Vec<String> = by_path.iter().map(|(k, n)| format!("{k}={n}")).collect();
        println!("  variant paths:       {}", desc.join(", "));
    }

    // ---- parallel evaluation ------------------------------------------
    // Rounds are the evaluator's batch ordinals (deterministic across
    // worker counts); per-round wall clock separates the serial cost
    // (sum of trial walls) from the critical path (slowest trial per
    // round), which is what a perfectly scheduled pool pays.
    let workers_seen = records.iter().map(|r| r.workers).max().unwrap_or(0);
    if workers_seen > 0 {
        let mut rounds: BTreeMap<u64, (usize, f64, f64)> = BTreeMap::new();
        for r in &records {
            if let Some(b) = r.batch {
                let e = rounds.entry(b).or_insert((0, 0.0, 0.0));
                e.0 += 1;
                e.1 += r.wall_ms;
                e.2 = e.2.max(r.wall_ms);
            }
        }
        println!();
        println!("== parallel evaluation ==");
        println!("  workers:             {workers_seen}");
        let pool_trials = records.iter().filter(|r| r.worker.is_some()).count();
        println!("  pool-executed:       {pool_trials} of {total} trials ran on a pool worker");
        if !rounds.is_empty() {
            let serial_ms: f64 = rounds.values().map(|(_, sum, _)| sum).sum();
            let critical_ms: f64 = rounds.values().map(|(_, _, max)| max).sum();
            let mean_per_round =
                rounds.values().map(|(n, _, _)| *n).sum::<usize>() as f64 / rounds.len() as f64;
            println!("  evaluation rounds:   {}", rounds.len());
            println!("  trials per round:    {mean_per_round:.1} mean");
            println!(
                "  wall clock per round: {:.2} ms mean (serial-equivalent), \
                 {:.2} ms mean critical path",
                serial_ms / rounds.len() as f64,
                critical_ms / rounds.len() as f64
            );
            if critical_ms > 0.0 {
                println!(
                    "  round parallelism:   {:.2}x available (serial {serial_ms:.1} ms / \
                     critical path {critical_ms:.1} ms)",
                    serial_ms / critical_ms
                );
            }
        }
    }

    // ---- Table II-style status breakdown over unique configs ----------
    let mut by_status: BTreeMap<&str, usize> = BTreeMap::new();
    for r in unique.values() {
        *by_status.entry(r.status.as_str()).or_insert(0) += 1;
    }
    println!();
    println!("== variants explored (Table II style) ==");
    for (status, n) in &by_status {
        println!("  {status:<16} {n:>6}  ({:.1}%)", pct(*n, unique.len()));
    }
    let mut by_failure: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_fault: BTreeMap<&str, usize> = BTreeMap::new();
    for r in unique.values() {
        if let Some(f) = &r.failure_kind {
            *by_failure.entry(f.as_str()).or_insert(0) += 1;
        }
        if let Some(f) = &r.fault_kind {
            *by_fault.entry(f.as_str()).or_insert(0) += 1;
        }
    }
    if !by_failure.is_empty() {
        println!("  failure kinds:");
        for (kind, n) in &by_failure {
            println!("    {kind:<14} {n:>6}  ({:.1}%)", pct(*n, unique.len()));
        }
    }
    if !by_fault.is_empty() {
        let desc: Vec<String> = by_fault.iter().map(|(k, n)| format!("{k}={n}")).collect();
        println!("  injected faults:     {}", desc.join(", "));
    }
    let best = unique
        .values()
        .filter(|r| r.status == "pass")
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup));
    match best {
        Some(b) => println!(
            "  best pass: {:.2}x speedup, error {:.3e}, {:.0}% of atoms at 32-bit",
            b.speedup,
            b.error,
            100.0 * b.fraction_single
        ),
        None => println!("  best pass: none"),
    }

    // ---- Figure 5-style scatter (speedup vs fraction lowered) ---------
    println!();
    println!("== pass variants by fraction lowered (Figure 5 style) ==");
    let mut buckets: Vec<(usize, f64)> = vec![(0, 0.0); 10];
    for r in unique.values().filter(|r| r.status == "pass") {
        let b = ((r.fraction_single * 10.0) as usize).min(9);
        buckets[b].0 += 1;
        buckets[b].1 = buckets[b].1.max(r.speedup);
    }
    for (i, (n, best)) in buckets.iter().enumerate() {
        if *n == 0 {
            continue;
        }
        println!(
            "  {:>3.0}-{:>3.0}% lowered: {:>5} pass, best {best:.2}x  {}",
            i as f64 * 10.0,
            (i + 1) as f64 * 10.0,
            n,
            "#".repeat((*n).min(60))
        );
    }

    // ---- per-stage timing + aggregate counters ------------------------
    let mut stage_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let mut counters = Counters::new();
    for r in &records {
        for (k, v) in &r.stages {
            *stage_ns.entry(k.as_str()).or_insert(0) += v;
        }
        counters.merge(&r.counters);
    }
    if !stage_ns.is_empty() {
        println!();
        println!("== stage wall time (uncached evaluations) ==");
        for (stage, ns) in &stage_ns {
            println!(
                "  {stage:<12} {:>10.1} ms total, {:>8.3} ms/run",
                *ns as f64 / 1e6,
                *ns as f64 / 1e6 / misses.len().max(1) as f64
            );
        }
    }
    if !counters.is_empty() {
        println!();
        println!("== interpreter counters (all evaluations) ==");
        for (k, v) in counters.iter() {
            println!("  {k:<22} {v}");
        }
    }

    // ---- supervision: deadlines, retries, quarantine -------------------
    print_supervision(&records, &args.journal);

    // ---- numerical guardrails (--guardrails) --------------------------
    if args.guardrails {
        print_guardrails(&records);
    }

    // ---- static lints vs dynamic shadow evidence (--lints) ------------
    if let Some(path) = &args.lints {
        let doc: LintDoc = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: cannot read lint document {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_lints(&doc, &records);
    }

    // ---- config certificate vs journaled shadow evidence (--certify) --
    let mut cert_violations = 0usize;
    if let Some(path) = &args.certify {
        let cert: prose::core::Certificate = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot read certificate {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        cert_violations = print_certify(&cert, &records);
    }

    // ---- optional CSV export ------------------------------------------
    if let Some(path) = &args.csv {
        let mut csv = String::from(
            "seq,cached,status,failure_kind,fault_kind,speedup,error,fraction_single,wrappers,wall_ms\n",
        );
        for r in &records {
            let error = if r.error.is_finite() {
                format!("{:e}", r.error)
            } else {
                String::new()
            };
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.seq,
                r.cached,
                r.status,
                r.failure_kind.as_deref().unwrap_or(""),
                r.fault_kind.as_deref().unwrap_or(""),
                r.speedup,
                error,
                r.fraction_single,
                r.wrappers,
                r.wall_ms
            ));
        }
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
        println!("wrote {path}");
    }
    if cert_violations > 0 {
        eprintln!(
            "error: {cert_violations} static-bound violation(s) \
             (static-analysis soundness bug)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
