//! The trial journal: an append-only JSON Lines **write-ahead log** with
//! one record per variant evaluation request.
//!
//! Records are self-describing and append-only so a crashed or interrupted
//! search leaves a readable journal; [`Journal::load`] tolerates a
//! truncated final line (the torn-write case) but rejects corruption
//! anywhere else. [`Journal::load_report`] additionally reports how many
//! torn lines were dropped, and [`FlushPolicy`] selects the durability /
//! throughput trade-off per record.
//!
//! Every line ends in a CRC32 checksum of its own bytes, `"crc":N` as the
//! last field, computed over the same line with `"crc":null` in its place
//! ([`Journal::serialize_line`] stamps it, [`Journal::line_crc_valid`]
//! checks it). The job-state WAL shares this line format. Files are read
//! as bytes, and a line is intact when it is UTF-8, its checksum matches
//! (or it carries none), and it parses. [`Journal::load_repair`] turns
//! damage *anywhere* into a recoverable event: damaged lines are preserved
//! byte-for-byte in `<journal>.quarantine` and the journal is atomically
//! rewritten to its intact lines, so resumes survive mid-file damage with
//! everything else recovered.

use crate::Counters;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// One evaluation request, as observed at the evaluator boundary.
///
/// `cached = true` means the outcome was served from the memoization cache
/// (either this process's table or a preloaded journal) and **no**
/// interpreter run happened; such records have no stage timings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Journal sequence number (continues across runs appending to the
    /// same file).
    pub seq: u64,
    /// The search configuration (`true` = atom lowered to 32-bit).
    pub config: Vec<bool>,
    /// Outcome status (`pass`, `fail_accuracy`, `timeout`, `runtime_error`,
    /// `transform_error`).
    pub status: String,
    /// Eq. 1 median speedup vs. baseline (0 when the run did not finish).
    pub speedup: f64,
    /// Correctness-metric relative error. JSON cannot carry infinities, so
    /// a non-finite error round-trips through `null`.
    #[serde(with = "maybe_infinite")]
    pub error: f64,
    /// Whether the outcome was served from cache (no interpreter run).
    pub cached: bool,
    /// Wall-clock milliseconds spent answering this request.
    pub wall_ms: f64,
    /// Fraction of atoms at 32-bit in this configuration.
    #[serde(default)]
    pub fraction_single: f64,
    /// Number of wrapper procedures the transformer synthesized.
    #[serde(default)]
    pub wrappers: u64,
    /// Whole-model simulated cycles (when the run completed).
    #[serde(default)]
    pub total_cycles: Option<f64>,
    /// Hotspot-scoped simulated cycles (when the run completed).
    #[serde(default)]
    pub hotspot_cycles: Option<f64>,
    /// Wall-clock nanoseconds per pipeline stage
    /// (`transform` / `lower` / `exec`); empty for cached records.
    #[serde(default)]
    pub stages: BTreeMap<String, u64>,
    /// Per-trial interpreter counters (op counts by precision, casts,
    /// memory traffic, timer events, ...); empty for cached records.
    #[serde(default)]
    pub counters: Counters,
    /// Variant-generation path the evaluator was using (`fast` or
    /// `faithful`); empty in records from writers predating the fast path.
    #[serde(default)]
    pub variant_path: String,
    /// Structured failure classification (`timeout`, `fp_exception`,
    /// `template_desync`, `panic`, `journal_error`, `transform`,
    /// `runtime_other`); `None` for successful trials and records from
    /// writers predating failure classification.
    #[serde(default)]
    pub failure_kind: Option<String>,
    /// Kind of the injected fault, when the trial ran under fault
    /// injection (`nan`, `timeout`, `abort`, `jitter`).
    #[serde(default)]
    pub fault_kind: Option<String>,
    /// Per-trial injection seed; with the experiment's fault config it
    /// reproduces the injected failure exactly.
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Shadow-precision diagnostics (`--shadow`); `None` for trials run
    /// without shadow execution and records from writers predating it.
    #[serde(default)]
    pub shadow: Option<ShadowTrial>,
    /// Held-out ensemble member this trial belongs to; `None` for the
    /// tuning input. Part of the memoization key: the same configuration
    /// evaluated on different members must not collide.
    #[serde(default)]
    pub member: Option<u32>,
    /// Search granularity the tuner ran at (`variable` or `grouped`);
    /// empty in records from writers predating grouped-atom search.
    #[serde(default)]
    pub search_granularity: String,
    /// Worker-pool width the evaluator ran with; 0 in records from writers
    /// predating parallel evaluation (read as "serial, unstamped").
    #[serde(default)]
    pub workers: u64,
    /// Pool worker that executed this trial; `None` when the submitting
    /// thread ran it (serial path) or for pre-parallel records. Provenance
    /// only — scheduling-dependent, so equivalence checks must ignore it.
    #[serde(default)]
    pub worker: Option<u32>,
    /// Evaluation-round ordinal (one per batch submission or solo
    /// request). Deterministic across worker counts; `None` for
    /// pre-parallel records.
    #[serde(default)]
    pub batch: Option<u64>,
    /// Retry attempt that produced this record (0 = first try). Each
    /// attempt of a supervised trial journals its own record; 0 in
    /// records from writers predating retry.
    #[serde(default)]
    pub attempt: u32,
    /// Content-addressed service job this trial belongs to; `None` for
    /// standalone `prose-tune` runs and records from writers predating the
    /// service layer. Provenance only — never part of the memoization key.
    #[serde(default)]
    pub job: Option<String>,
    /// Absint pre-pass context the search ran under, as a compact
    /// `demote=a,b|pin=c|undecided=3` encoding of the static verdicts
    /// (atom names in declaration order). `None` for trials run without
    /// the pre-pass and records from writers predating static analysis.
    #[serde(default)]
    pub static_verdict: Option<String>,
}

/// Per-trial shadow-execution summary, journaled when the evaluator runs
/// with shadow execution enabled. Field names mirror the interpreter's
/// `ShadowReport`, flattened to journal-friendly scalars.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ShadowTrial {
    /// Largest per-variable relative error vs. the fp64 shadow.
    pub worst_rel: f64,
    /// Variable with the worst error (`proc::var` / `@global::var`).
    #[serde(default)]
    pub worst_var: Option<String>,
    /// Flagged catastrophic-cancellation events.
    #[serde(default)]
    pub cancellations: u64,
    /// Worst cancellation site, as `proc:line` with bits lost.
    #[serde(default)]
    pub cancellation_site: Option<String>,
    /// First non-finite producer, as `op at proc:line`.
    #[serde(default)]
    pub nonfinite_origin: Option<String>,
    /// True when the non-finite value was injected by the fault harness
    /// (and therefore not a genuine numerical event).
    #[serde(default)]
    pub nonfinite_injected: bool,
    /// True when the guardrail gate demoted this trial (scalar metric
    /// passed but the shadow error budget was exceeded).
    #[serde(default)]
    pub demoted: bool,
}

impl TrialRecord {
    /// Fraction helper for configs (mirrors `Trial::fraction_lowered`).
    pub fn fraction_of(config: &[bool]) -> f64 {
        if config.is_empty() {
            return 0.0;
        }
        config.iter().filter(|b| **b).count() as f64 / config.len() as f64
    }
}

/// CRC32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — the
/// polynomial every external `crc32` tool speaks. Hand-rolled table
/// implementation: the workspace takes no checksum dependency.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xffff_ffffu32;
    for b in data {
        crc = TABLE[((crc ^ *b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xffff_ffff
}

/// Serde adapter: non-finite f64 ⇄ JSON null (same convention as
/// `prose-search`'s `Outcome::error`).
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

/// When the WAL pushes records to the operating system / the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Flush to the OS after every record (default). A killed *process*
    /// loses at most the torn tail of the final record; an OS crash or
    /// power loss may lose more.
    #[default]
    EveryRecord,
    /// Flush **and fsync** after every record: power-loss durable, one
    /// `fsync` per trial.
    Sync,
    /// Flush every `n` records (and on drop). Highest throughput; a crash
    /// loses up to `n` buffered records plus a torn tail.
    EveryN(u32),
}

impl std::str::FromStr for FlushPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "record" | "every-record" => Ok(FlushPolicy::EveryRecord),
            "sync" => Ok(FlushPolicy::Sync),
            n => n
                .parse::<u32>()
                .ok()
                .filter(|n| *n > 0)
                .map(FlushPolicy::EveryN)
                .ok_or_else(|| format!("unknown flush policy `{n}` (sync|record|<N>)")),
        }
    }
}

/// What [`Journal::load_report`] found in a journal file.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Every intact record, in order.
    pub records: Vec<TrialRecord>,
    /// Number of torn (truncated-write) lines dropped from the tail —
    /// 0 or 1; surfaced as a warning counter by consumers.
    pub torn_tail: u32,
}

/// What [`Journal::load_repair`] found — and did. Unlike
/// [`Journal::load_report`], repair never hard-errors on corruption: the
/// journal file is rewritten to its intact records and every damaged line
/// is preserved byte-for-byte in `<journal>.quarantine`.
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Every intact record, in order.
    pub records: Vec<TrialRecord>,
    /// Damaged mid-file lines moved to the quarantine file this pass.
    pub quarantined: u32,
    /// Damaged final lines (the routine torn-write-on-kill case) — also
    /// preserved in the quarantine file, but counted separately.
    pub torn_tail: u32,
    /// The quarantine file, when this or an earlier pass produced one.
    pub quarantine_path: Option<PathBuf>,
}

impl RepairReport {
    /// Total damaged lines this pass (quarantined + torn tail).
    pub fn damaged(&self) -> u32 {
        self.quarantined + self.torn_tail
    }
}

/// Where [`Journal::load_repair`] preserves damaged lines:
/// `<journal>.quarantine`, next to the journal.
pub fn quarantine_path_for(path: impl AsRef<Path>) -> PathBuf {
    let path = path.as_ref();
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!("{name}.quarantine"))
}

/// Append-only JSONL write-ahead log. [`FlushPolicy`] governs when records
/// reach the OS/disk; the default flushes per record, so records survive a
/// crash of the tuning process.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
    policy: FlushPolicy,
    unflushed: u32,
}

impl Journal {
    /// Open `path` for appending with the default flush policy, creating
    /// parent directories and the file as needed.
    pub fn open_append(path: impl AsRef<Path>) -> io::Result<Journal> {
        Self::open_append_with(path, FlushPolicy::default())
    }

    /// Open `path` for appending under an explicit [`FlushPolicy`].
    pub fn open_append_with(path: impl AsRef<Path>, policy: FlushPolicy) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            path,
            writer: BufWriter::new(file),
            policy,
            unflushed: 0,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serialize one record (a JSON object) to its WAL line, no trailing
    /// newline, closed by the line checksum: `,"crc":N}` where `N` is the
    /// CRC32 of the same line ending in `,"crc":null}` — exactly the body
    /// [`Journal::line_crc_valid`] rebuilds. The record is serialized once.
    /// Both WALs (trial journal and job-state log) stamp through here.
    pub fn serialize_line<T: Serialize>(rec: &T) -> io::Result<String> {
        use std::fmt::Write as _;
        let mut line = serde_json::to_string(rec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if line.pop() != Some('}') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a JSON object",
            ));
        }
        line.push_str(",\"crc\":null}");
        let crc = crc32(line.as_bytes());
        line.truncate(line.len() - "null}".len());
        let _ = write!(line, "{crc}}}");
        Ok(line)
    }

    /// Checksum verdict for one raw line: the line with its trailing
    /// `"crc"` value (always the final field) replaced by `null` is rebuilt
    /// and hashed, so *any* single-bit flip outside the three bytes of the
    /// `crc` key name itself is caught — including a flip inside the key of
    /// a default-valued field, which a parse would silently absorb. `None`
    /// means the line carries no checksum (`"crc":null` or no `crc` key:
    /// writers predating checksums), which is never treated as damage.
    pub fn line_crc_valid(line: &str) -> Option<bool> {
        let line = line.trim_end();
        let idx = line.rfind(",\"crc\":")?;
        let digits = line[idx + 7..].strip_suffix('}')?;
        if digits == "null" {
            return None;
        }
        let stored: u32 = digits.parse().ok()?;
        let mut body = String::with_capacity(idx + 13);
        body.push_str(&line[..idx]);
        body.push_str(",\"crc\":null}");
        Some(crc32(body.as_bytes()) == stored)
    }

    /// Append one record as a single JSON line, flushing per the journal's
    /// [`FlushPolicy`]. The line is CRC-stamped (see
    /// [`Journal::serialize_line`]).
    pub fn append(&mut self, rec: &TrialRecord) -> io::Result<()> {
        let line = Self::serialize_line(rec)?;
        self.append_raw_line(line.as_bytes())
    }

    /// Append one pre-serialized line verbatim (plus the newline). The
    /// fault-injection path uses this to write a deliberately corrupted
    /// record — as bytes, since a bit flip may break UTF-8; everything
    /// else should go through [`Journal::append`].
    pub fn append_raw_line(&mut self, line: &[u8]) -> io::Result<()> {
        self.writer.write_all(line)?;
        self.writer.write_all(b"\n")?;
        self.unflushed += 1;
        match self.policy {
            FlushPolicy::EveryRecord => self.flush(),
            FlushPolicy::Sync => {
                self.flush()?;
                self.writer.get_ref().sync_data()
            }
            FlushPolicy::EveryN(n) => {
                if self.unflushed >= n {
                    self.flush()
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Push buffered records to the OS, then wake any
    /// [`JournalTail`](crate::JournalTail) following this path.
    pub fn flush(&mut self) -> io::Result<()> {
        self.unflushed = 0;
        let flushed = self.writer.flush();
        crate::tail::wake(&self.path);
        flushed
    }

    /// Read every record of a journal file, in order.
    ///
    /// A malformed **final** line is dropped (a torn write from an
    /// interrupted run); malformed earlier lines are an error. Use
    /// [`Journal::load_report`] to observe how many lines were dropped.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Vec<TrialRecord>> {
        Self::load_report(path).map(|r| r.records)
    }

    /// Like [`Journal::load`], reporting dropped torn-tail lines so
    /// callers can surface a warning counter instead of losing the event.
    pub fn load_report(path: impl AsRef<Path>) -> io::Result<LoadReport> {
        let bytes = std::fs::read(path.as_ref())?;
        let lines: Vec<&[u8]> = wal_lines(&bytes).collect();
        let mut report = LoadReport {
            records: Vec::with_capacity(lines.len()),
            torn_tail: 0,
        };
        for (i, line) in lines.iter().enumerate() {
            match parse_line(line) {
                Ok(rec) => report.records.push(rec),
                Err(e) if i + 1 == lines.len() => {
                    eprintln!(
                        "[prose-trace] dropping torn final journal line in {}: {e}",
                        path.as_ref().display()
                    );
                    report.torn_tail += 1;
                }
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("journal line {}: {e}", i + 1),
                    ))
                }
            }
        }
        Ok(report)
    }

    /// Self-healing load: read every line, keep the intact records, and
    /// *repair* the journal in place instead of hard-erroring on
    /// corruption anywhere.
    ///
    /// A line is damaged when [`Journal::load`] would refuse it: not
    /// UTF-8, a checksum mismatch, or no parse. Damaged lines are appended
    /// byte-for-byte to `<journal>.quarantine` and the journal is
    /// atomically rewritten (tmp file + rename) to exactly its intact
    /// lines, so a subsequent strict [`Journal::load`] succeeds and an
    /// `open_append` resume cannot merge new records into a torn tail.
    ///
    /// The pass is idempotent and kill-safe: quarantine appends are
    /// deduplicated against the quarantine file's existing lines, the
    /// quarantine is synced before the journal is replaced, and the
    /// rename is atomic — a kill at any point leaves both files in a
    /// state from which a re-run converges to the same result.
    pub fn load_repair(path: impl AsRef<Path>) -> io::Result<RepairReport> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let lines: Vec<&[u8]> = wal_lines(&bytes).collect();
        let mut report = RepairReport::default();
        let mut intact: Vec<&[u8]> = Vec::with_capacity(lines.len());
        let mut damaged: Vec<&[u8]> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            match parse_line(line) {
                Ok(rec) => {
                    report.records.push(rec);
                    intact.push(line);
                }
                Err(_) => {
                    if i + 1 == lines.len() {
                        report.torn_tail += 1;
                    } else {
                        report.quarantined += 1;
                    }
                    damaged.push(line);
                }
            }
        }
        let qpath = quarantine_path_for(path);
        if qpath.exists() {
            report.quarantine_path = Some(qpath.clone());
        }
        if damaged.is_empty() {
            return Ok(report);
        }
        // 1. Preserve the damaged bytes, deduped against earlier passes so
        //    a kill between this append and the rewrite below cannot
        //    duplicate them when the repair re-runs.
        let quarantined = std::fs::read(&qpath).unwrap_or_default();
        let existing: HashSet<&[u8]> = wal_lines(&quarantined).collect();
        let fresh: Vec<&[u8]> = damaged
            .into_iter()
            .filter(|l| !existing.contains(l))
            .collect();
        if !fresh.is_empty() {
            let q = OpenOptions::new().create(true).append(true).open(&qpath)?;
            write_lines(q, &fresh)?;
        }
        report.quarantine_path = Some(qpath);
        // 2. Atomically rewrite the journal to its intact lines.
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let tmp = path.with_file_name(format!("{name}.repair-tmp"));
        write_lines(File::create(&tmp)?, &intact)?;
        std::fs::rename(&tmp, path)?;
        Ok(report)
    }

    /// Like [`Journal::load_repair`], but a missing file is an empty
    /// journal — the entry point `--resume` uses.
    pub fn load_repair_or_empty(path: impl AsRef<Path>) -> io::Result<RepairReport> {
        match Self::load_repair(path) {
            Ok(r) => Ok(r),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(RepairReport::default()),
            Err(e) => Err(e),
        }
    }
}

/// The non-blank lines of a WAL file, as raw bytes (no newline).
pub(crate) fn wal_lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    bytes
        .split(|b| *b == b'\n')
        .filter(|l| !l.trim_ascii().is_empty())
}

/// The one intact-line test both WALs share: the line is UTF-8, its
/// checksum matches or is absent ([`Journal::line_crc_valid`]), and it
/// parses as `T`. The error says which check failed.
pub(crate) fn parse_line<T: DeserializeOwned>(line: &[u8]) -> Result<T, String> {
    let line = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    if Journal::line_crc_valid(line) == Some(false) {
        return Err("CRC mismatch".to_string());
    }
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Write `lines` (newline-terminated) to `file` and sync it to disk.
fn write_lines(file: File, lines: &[&[u8]]) -> io::Result<()> {
    let mut w = BufWriter::new(file);
    for l in lines {
        w.write_all(l)?;
        w.write_all(b"\n")?;
    }
    w.flush()?;
    w.get_ref().sync_data()
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best effort: under EveryN, buffered records still reach the OS
        // on clean shutdown (a panic unwinding through the owner included).
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("prose-trace-{}-{tag}.jsonl", std::process::id()))
    }

    fn sample(seq: u64, cached: bool, error: f64) -> TrialRecord {
        let mut counters = Counters::new();
        if !cached {
            counters.bump("interp_fp64_ops", 10 + seq);
        }
        let mut stages = BTreeMap::new();
        if !cached {
            stages.insert("exec".to_string(), 1234);
            stages.insert("transform".to_string(), 56);
        }
        TrialRecord {
            seq,
            config: vec![true, false, seq.is_multiple_of(2)],
            status: if error.is_finite() {
                "pass"
            } else {
                "runtime_error"
            }
            .into(),
            speedup: if error.is_finite() { 1.25 } else { 0.0 },
            error,
            cached,
            wall_ms: 0.5,
            fraction_single: TrialRecord::fraction_of(&[true, false, seq.is_multiple_of(2)]),
            wrappers: 2,
            total_cycles: error.is_finite().then_some(1e6),
            hotspot_cycles: error.is_finite().then_some(2e5),
            stages,
            counters,
            variant_path: "fast".to_string(),
            failure_kind: (!error.is_finite()).then(|| "fp_exception".to_string()),
            fault_kind: None,
            fault_seed: None,
            shadow: None,
            member: None,
            search_granularity: "variable".to_string(),
            workers: 1,
            worker: None,
            batch: Some(seq),
            attempt: 0,
            job: None,
            static_verdict: None,
        }
    }

    /// A record with every field set: an infinite error, shadow
    /// diagnostics, counters, stages and every provenance stamp.
    fn full_record() -> TrialRecord {
        let mut rec = sample(41, false, f64::INFINITY);
        rec.config = vec![true, false, true, false];
        rec.status = "runtime_error".into();
        rec.wall_ms = 2.5;
        rec.fraction_single = 0.5;
        rec.wrappers = 3;
        rec.total_cycles = Some(1234567.5);
        rec.hotspot_cycles = Some(2048.25);
        rec.stages = BTreeMap::from([("exec".to_string(), 1200), ("transform".to_string(), 56)]);
        rec.counters = Counters::new();
        rec.counters.bump("interp_fp32_ops", 40);
        rec.counters.bump("interp_events", 900);
        rec.fault_kind = Some("nan".into());
        rec.fault_seed = Some(0xdead_beef);
        rec.shadow = Some(ShadowTrial {
            worst_rel: 0.125,
            worst_var: Some("fun::t1".into()),
            cancellations: 3,
            cancellation_site: Some("fun:12 (24.0 bits)".into()),
            nonfinite_origin: Some("div at fun:14".into()),
            nonfinite_injected: true,
            demoted: true,
        });
        rec.member = Some(2);
        rec.search_granularity = "grouped".into();
        rec.workers = 4;
        rec.worker = Some(1);
        rec.batch = Some(9);
        rec.attempt = 2;
        rec.job = Some("0123abcd".into());
        rec.static_verdict = Some("demote=a,b|pin=c|undecided=3".into());
        rec
    }

    /// `full_record()` as journaled before the checksum moved from the
    /// record to the line: the stamped line format must not change.
    const FULL_LINE: &str = r#"{"seq":41,"config":[true,false,true,false],"status":"runtime_error","speedup":0.0,"error":null,"cached":false,"wall_ms":2.5,"fraction_single":0.5,"wrappers":3,"total_cycles":1234567.5,"hotspot_cycles":2048.25,"stages":{"exec":1200,"transform":56},"counters":{"interp_events":900,"interp_fp32_ops":40},"variant_path":"fast","failure_kind":"fp_exception","fault_kind":"nan","fault_seed":3735928559,"shadow":{"worst_rel":0.125,"worst_var":"fun::t1","cancellations":3,"cancellation_site":"fun:12 (24.0 bits)","nonfinite_origin":"div at fun:14","nonfinite_injected":true,"demoted":true},"member":2,"search_granularity":"grouped","workers":4,"worker":1,"batch":9,"attempt":2,"job":"0123abcd","static_verdict":"demote=a,b|pin=c|undecided=3","crc":977492510}"#;

    #[test]
    fn stamped_line_is_byte_identical_to_the_pinned_format() {
        let line = Journal::serialize_line(&full_record()).unwrap();
        assert_eq!(line, FULL_LINE);
        assert_eq!(Journal::line_crc_valid(&line), Some(true));
        let path = tmp_path("golden");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&full_record()).unwrap();
        }
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            format!("{FULL_LINE}\n")
        );
        assert_eq!(Journal::load(&path).unwrap(), vec![full_record()]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Lines with no `crc` key, with `"crc":null`, and with a checksum
    /// written before it moved to the line all load, strictly and under
    /// repair, with nothing quarantined.
    #[test]
    fn unstamped_null_and_stamped_lines_load_in_both_modes() {
        let bare = serde_json::to_string(&full_record()).unwrap();
        let null = format!("{},\"crc\":null}}", &bare[..bare.len() - 1]);
        assert_eq!(Journal::line_crc_valid(&bare), None);
        assert_eq!(Journal::line_crc_valid(&null), None);
        let path = tmp_path("old-lines");
        let q = quarantine_path_for(&path);
        let _ = std::fs::remove_file(&q);
        let text = format!("{bare}\n{null}\n{FULL_LINE}\n");
        std::fs::write(&path, &text).unwrap();
        assert_eq!(Journal::load(&path).unwrap(), vec![full_record(); 3]);
        let rep = Journal::load_repair(&path).unwrap();
        assert_eq!(rep.records, vec![full_record(); 3]);
        assert_eq!(rep.damaged(), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert!(!q.exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_round_trips_including_infinite_error() {
        let path = tmp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let recs = vec![
            sample(0, false, 1e-7),
            sample(1, false, f64::INFINITY),
            sample(2, true, 1e-7),
        ];
        {
            let mut j = Journal::open_append(&path).unwrap();
            for r in &recs {
                j.append(r).unwrap();
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        // The non-finite error must be encoded as JSON null, not Infinity.
        let inf_line = text.lines().nth(1).unwrap();
        assert!(inf_line.contains("\"error\":null"), "line: {inf_line}");
        assert!(!text.contains("inf"), "no non-JSON infinities: {text}");

        // Appending stamped each line's CRC; the records round-trip.
        for line in text.lines() {
            assert_eq!(Journal::line_crc_valid(line), Some(true), "line: {line}");
        }
        let back = Journal::load(&path).unwrap();
        assert_eq!(back, recs);
        assert_eq!(back[1].error, f64::INFINITY);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_continues_an_existing_journal() {
        let path = tmp_path("appends");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(0, false, 1e-9)).unwrap();
        }
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(1, true, 1e-9)).unwrap();
        }
        let back = Journal::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!((back[0].seq, back[0].cached), (0, false));
        assert_eq!((back[1].seq, back[1].cached), (1, true));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_drops_torn_final_line_only() {
        let path = tmp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(0, false, 1e-9)).unwrap();
            j.append(&sample(1, false, 1e-9)).unwrap();
        }
        // Simulate a crash mid-write: truncate the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();
        let back = Journal::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].seq, 0);

        // Corruption in the middle is an error, not silent data loss.
        let lines: Vec<&str> = text.lines().collect();
        std::fs::write(&path, format!("{}\ngarbage\n{}\n", lines[0], lines[1])).unwrap();
        assert!(Journal::load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn old_records_without_new_fields_still_load() {
        // Forward compatibility: a minimal record (as an older writer might
        // have produced) deserializes with defaulted stages/counters.
        let line = r#"{"seq":7,"config":[true,true],"status":"pass","speedup":1.5,"error":1e-8,"cached":false,"wall_ms":2.0}"#;
        let rec: TrialRecord = serde_json::from_str(line).unwrap();
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.fraction_single, 0.0);
        assert_eq!(rec.wrappers, 0);
        assert_eq!(rec.total_cycles, None);
        assert!(rec.stages.is_empty());
        assert!(rec.counters.is_empty());
        assert_eq!(rec.variant_path, "");
        assert_eq!(rec.failure_kind, None);
        assert_eq!(rec.fault_kind, None);
        assert_eq!(rec.fault_seed, None);
        assert_eq!(rec.shadow, None);
        assert_eq!(rec.member, None);
        assert_eq!(rec.search_granularity, "");
        assert_eq!(rec.attempt, 0);
        assert_eq!(rec.job, None);
        assert_eq!(rec.static_verdict, None);
        // No checksum → never treated as corrupt.
        assert_eq!(Journal::line_crc_valid(line), None);
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_detects_in_place_edits_that_still_parse() {
        let path = tmp_path("crc-edit");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(0, false, 1e-9)).unwrap();
            j.append(&sample(1, false, 1e-9)).unwrap();
            j.append(&sample(2, false, 1e-9)).unwrap();
        }
        // Tamper with a value in the middle record without breaking JSON.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<String> = text
            .lines()
            .map(|l| {
                if l.contains("\"seq\":1,") {
                    l.replace("\"speedup\":1.25", "\"speedup\":9.25")
                } else {
                    l.to_string()
                }
            })
            .collect();
        let tampered = lines.join("\n") + "\n";
        assert_ne!(text, tampered);
        assert_eq!(Journal::line_crc_valid(&lines[1]), Some(false));
        std::fs::write(&path, &tampered).unwrap();
        // Strict load rejects the mid-file tamper...
        assert!(Journal::load(&path).is_err());
        // ...repair quarantines exactly the damaged record.
        let rep = Journal::load_repair(&path).unwrap();
        assert_eq!(
            rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(rep.quarantined, 1);
        assert_eq!(rep.torn_tail, 0);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(quarantine_path_for(&path)).unwrap();
    }

    #[test]
    fn raw_crc_catches_parse_equivalent_byte_damage() {
        // A flip inside a field *name* whose value equals its serde
        // default parses to the pristine record (unknown key ignored,
        // default fills in), so no check on the parsed record can see
        // it. The raw-line check must.
        let line = Journal::serialize_line(&sample(0, false, 1e-9)).unwrap();
        assert_eq!(Journal::line_crc_valid(&line), Some(true));
        let damaged = line.replace("\"attempt\":0", "\"attemqt\":0");
        assert_ne!(line, damaged);
        let rec: TrialRecord = serde_json::from_str(&damaged).unwrap();
        assert_eq!(rec, sample(0, false, 1e-9), "a parse is blind to this");
        assert_eq!(Journal::line_crc_valid(&damaged), Some(false));

        let path = tmp_path("raw-crc");
        let q = quarantine_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&q);
        let good = Journal::serialize_line(&sample(1, false, 1e-9)).unwrap();
        std::fs::write(&path, format!("{damaged}\n{good}\n")).unwrap();
        assert!(Journal::load(&path).is_err(), "strict load must reject");
        let rep = Journal::load_repair(&path).unwrap();
        assert_eq!(rep.quarantined, 1);
        assert_eq!(rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [1]);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&q).unwrap();
    }

    #[test]
    fn raw_crc_ignores_unstamped_lines() {
        // Pre-supervision journals carry no checksum; the raw check must
        // stay neutral on them.
        assert_eq!(Journal::line_crc_valid("{\"seq\":0}"), None);
        let line = serde_json::to_string(&sample(0, false, 1e-9)).unwrap();
        assert_eq!(Journal::line_crc_valid(&line), None);
    }

    #[test]
    fn load_repair_quarantines_mid_file_damage_and_heals() {
        let path = tmp_path("repair");
        let q = quarantine_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&q);
        {
            let mut j = Journal::open_append(&path).unwrap();
            for s in 0..4 {
                j.append(&sample(s, false, 1e-9)).unwrap();
            }
        }
        // Smash line 2 (0-indexed 1) into garbage.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = "{\"seq\":1,garbage".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let rep = Journal::load_repair(&path).unwrap();
        assert_eq!(rep.quarantined, 1);
        assert_eq!(rep.torn_tail, 0);
        assert_eq!(rep.damaged(), 1);
        assert_eq!(
            rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        // The journal healed: strict load succeeds now.
        let back = Journal::load(&path).unwrap();
        assert_eq!(back.len(), 3);
        // The damaged bytes are preserved in quarantine.
        let qtext = std::fs::read_to_string(rep.quarantine_path.as_ref().unwrap()).unwrap();
        assert_eq!(qtext, "{\"seq\":1,garbage\n");

        // Idempotence: a second pass finds nothing, changes nothing.
        let again = Journal::load_repair(&path).unwrap();
        assert_eq!(again.damaged(), 0);
        assert_eq!(again.records.len(), 3);
        assert_eq!(std::fs::read_to_string(&q).unwrap(), qtext);

        // Appending after repair keeps the journal strictly loadable.
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(9, false, 1e-9)).unwrap();
        }
        assert_eq!(Journal::load(&path).unwrap().len(), 4);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&q).unwrap();
    }

    #[test]
    fn load_repair_truncates_torn_tail_so_resume_appends_cleanly() {
        let path = tmp_path("repair-tail");
        let q = quarantine_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&q);
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(0, false, 1e-9)).unwrap();
            j.append(&sample(1, false, 1e-9)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();
        let rep = Journal::load_repair(&path).unwrap();
        assert_eq!(rep.torn_tail, 1);
        assert_eq!(rep.quarantined, 0);
        assert_eq!(rep.records.len(), 1);
        // Without the repair rewrite, an append would merge into the torn
        // partial line; after it, the journal stays strictly loadable.
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(7, false, 1e-9)).unwrap();
        }
        let back = Journal::load(&path).unwrap();
        assert_eq!(back.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 7]);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&q).unwrap();
    }

    /// Property test: flip arbitrary bytes anywhere in the journal —
    /// `load_repair` must never panic, must recover every untouched
    /// record, and must quarantine exactly the damaged lines. Hand-rolled
    /// deterministic PRNG (splitmix64) instead of proptest so the exact
    /// byte positions reproduce from the case number alone.
    #[test]
    fn load_repair_survives_arbitrary_byte_flips() {
        fn splitmix(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }

        let path = tmp_path("flip-prop");
        let q = quarantine_path_for(&path);
        for case in 0u64..32 {
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(&q);
            let mut state = 0x243f6a8885a308d3 ^ case.wrapping_mul(0x9e3779b97f4a7c15);
            let n_records = 3 + splitmix(&mut state) % 6;
            {
                let mut j = Journal::open_append(&path).unwrap();
                for s in 0..n_records {
                    let err = if s % 3 == 2 { f64::INFINITY } else { 1e-9 };
                    j.append(&sample(s, s % 4 == 3, err)).unwrap();
                }
            }
            let mut bytes = std::fs::read(&path).unwrap();
            // Line extents, so flips can be attributed to a record.
            let mut line_of = vec![0usize; bytes.len()];
            let mut line = 0usize;
            for (i, b) in bytes.iter().enumerate() {
                line_of[i] = line;
                if *b == b'\n' {
                    line += 1;
                }
            }
            let mut touched = std::collections::BTreeSet::new();
            let n_flips = 1 + (splitmix(&mut state) % 4) as usize;
            for _ in 0..n_flips {
                let off = (splitmix(&mut state) % bytes.len() as u64) as usize;
                let bit = 1u8 << (splitmix(&mut state) % 8);
                // Preserve line structure: flips that create or destroy a
                // newline change which lines exist and need no oracle.
                if bytes[off] == b'\n' || bytes[off] ^ bit == b'\n' {
                    continue;
                }
                bytes[off] ^= bit;
                touched.insert(line_of[off]);
            }
            std::fs::write(&path, &bytes).unwrap();

            // Oracle: a line survives iff it is UTF-8 (a flipped bit 7
            // may break that), passes the raw-line checksum, and parses.
            let mutated = std::fs::read(&path).unwrap();
            let intact: Vec<TrialRecord> = mutated
                .split(|b| *b == b'\n')
                .filter(|l| !l.is_empty())
                .enumerate()
                .filter_map(|(i, l)| {
                    let rec = std::str::from_utf8(l)
                        .ok()
                        .filter(|l| Journal::line_crc_valid(l) != Some(false))
                        .and_then(|l| serde_json::from_str::<TrialRecord>(l).ok());
                    // Untouched lines must always classify as intact.
                    assert!(
                        touched.contains(&i) || rec.is_some(),
                        "case {case}: untouched line {i} classified damaged"
                    );
                    rec
                })
                .collect();
            let damaged = n_records as usize - intact.len();

            let rep = Journal::load_repair(&path).unwrap();
            assert_eq!(
                rep.damaged() as usize,
                damaged,
                "case {case}: flips at lines {touched:?}"
            );
            // Every intact record survives, in order, byte-faithful.
            assert_eq!(
                rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
                intact.iter().map(|r| r.seq).collect::<Vec<_>>(),
                "case {case}: intact records lost or reordered"
            );
            // The repair healed the file: strict load now succeeds, and a
            // second pass is a no-op.
            assert_eq!(Journal::load(&path).unwrap().len(), intact.len());
            let again = Journal::load_repair(&path).unwrap();
            assert_eq!(again.damaged(), 0);
            if damaged > 0 {
                let qtext = std::fs::read(&q).unwrap();
                let qlines = qtext.split(|b| *b == b'\n').filter(|l| !l.is_empty());
                assert_eq!(qlines.count(), damaged, "case {case}: quarantine");
            }
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&q);
    }

    /// Kill-during-repair idempotence: simulate dying between the
    /// quarantine append (synced first) and the journal rewrite — the
    /// state a kill at the worst moment leaves behind. A re-run must
    /// converge to the same healed state without duplicating quarantined
    /// lines.
    #[test]
    fn repair_killed_between_quarantine_and_rewrite_converges() {
        let path = tmp_path("repair-kill");
        let q = quarantine_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&q);
        {
            let mut j = Journal::open_append(&path).unwrap();
            for s in 0..4 {
                j.append(&sample(s, false, 1e-9)).unwrap();
            }
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = "{\"seq\":1,broken".to_string();
        let corrupted = lines.join("\n") + "\n";
        std::fs::write(&path, &corrupted).unwrap();
        // The kill point: quarantine already holds the damaged line, but
        // the journal was never rewritten.
        std::fs::write(&q, "{\"seq\":1,broken\n").unwrap();

        let rep = Journal::load_repair(&path).unwrap();
        assert_eq!(rep.quarantined, 1);
        assert_eq!(
            rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        // No duplicate in quarantine: the damaged line appears once.
        assert_eq!(std::fs::read_to_string(&q).unwrap(), "{\"seq\":1,broken\n");
        // The journal healed; a further pass changes nothing.
        assert_eq!(Journal::load(&path).unwrap().len(), 3);
        assert_eq!(Journal::load_repair(&path).unwrap().damaged(), 0);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&q).unwrap();
    }

    /// One byte >= 0x80 makes a line invalid UTF-8. That is a damaged line
    /// like any other: quarantined byte for byte, never an I/O error that
    /// would make the whole journal unreadable.
    #[test]
    fn load_repair_quarantines_a_high_bit_flip() {
        let path = tmp_path("high-bit");
        let q = quarantine_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&q);
        {
            let mut j = Journal::open_append(&path).unwrap();
            for s in 0..4 {
                j.append(&sample(s, false, 1e-9)).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let line1 = bytes.iter().position(|b| *b == b'\n').unwrap() + 1;
        let off = line1 + 20;
        bytes[off] |= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let damaged = bytes[line1..]
            .split(|b| *b == b'\n')
            .next()
            .unwrap()
            .to_vec();
        assert!(std::str::from_utf8(&damaged).is_err());
        assert!(Journal::load(&path).is_err(), "strict load must reject");

        let rep = Journal::load_repair(&path).unwrap();
        assert_eq!(rep.quarantined, 1);
        assert_eq!(rep.torn_tail, 0);
        assert_eq!(
            rep.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        let mut quarantined = damaged.clone();
        quarantined.push(b'\n');
        assert_eq!(std::fs::read(&q).unwrap(), quarantined);
        assert_eq!(Journal::load(&path).unwrap().len(), 3);
        assert_eq!(Journal::load_repair(&path).unwrap().damaged(), 0);
        assert_eq!(std::fs::read(&q).unwrap(), quarantined);

        // Killed between the quarantine append and the rewrite: the
        // journal still holds the damaged line, the quarantine already
        // does too. The re-run must not append it a second time.
        std::fs::write(&path, &bytes).unwrap();
        let rep = Journal::load_repair(&path).unwrap();
        assert_eq!(rep.quarantined, 1);
        assert_eq!(std::fs::read(&q).unwrap(), quarantined);
        assert_eq!(Journal::load(&path).unwrap().len(), 3);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&q).unwrap();
    }

    #[test]
    fn load_repair_missing_file_is_empty() {
        let path = tmp_path("repair-missing");
        let _ = std::fs::remove_file(&path);
        assert!(Journal::load_repair(&path).is_err());
        let rep = Journal::load_repair_or_empty(&path).unwrap();
        assert!(rep.records.is_empty());
        assert_eq!(rep.damaged(), 0);
        assert_eq!(rep.quarantine_path, None);
    }

    #[test]
    fn attempt_field_round_trips_and_zero_is_omitted() {
        let path = tmp_path("attempt");
        let _ = std::fs::remove_file(&path);
        let mut retried = sample(1, false, 1e-9);
        retried.attempt = 2;
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(0, false, 1e-9)).unwrap();
            j.append(&retried).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut it = text.lines();
        assert!(it.next().unwrap().contains("\"attempt\":0"));
        assert!(it.next().unwrap().contains("\"attempt\":2"));
        let back = Journal::load(&path).unwrap();
        assert_eq!(back[0].attempt, 0);
        assert_eq!(back[1].attempt, 2);
        assert_eq!(
            Journal::line_crc_valid(text.lines().nth(1).unwrap()),
            Some(true)
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shadow_and_member_fields_round_trip() {
        let path = tmp_path("shadow-fields");
        let _ = std::fs::remove_file(&path);
        let mut rec = sample(0, false, 1e-9);
        rec.status = "fail_accuracy".into();
        rec.failure_kind = Some("shadow_budget".into());
        rec.member = Some(2);
        rec.shadow = Some(ShadowTrial {
            worst_rel: 0.5,
            worst_var: Some("fun::t1".into()),
            cancellations: 3,
            cancellation_site: Some("fun:12 (24.0 bits)".into()),
            nonfinite_origin: None,
            nonfinite_injected: false,
            demoted: true,
        });
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&rec).unwrap();
        }
        let back = Journal::load(&path).unwrap();
        assert_eq!(back[0].member, Some(2));
        let sh = back[0].shadow.as_ref().unwrap();
        assert_eq!(sh.worst_rel, 0.5);
        assert_eq!(sh.cancellations, 3);
        assert!(sh.demoted);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_report_counts_torn_tail() {
        let path = tmp_path("torn-report");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&sample(0, false, 1e-9)).unwrap();
            j.append(&sample(1, false, 1e-9)).unwrap();
        }
        let clean = Journal::load_report(&path).unwrap();
        assert_eq!(clean.records.len(), 2);
        assert_eq!(clean.torn_tail, 0);

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();
        let torn = Journal::load_report(&path).unwrap();
        assert_eq!(torn.records.len(), 1);
        assert_eq!(torn.torn_tail, 1);

        // A final line made invalid UTF-8 is a torn tail too, not an I/O
        // error that hides the intact records before it.
        let mut bytes = text.into_bytes();
        let n = bytes.len();
        bytes[n - 10] |= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let flipped = Journal::load_report(&path).unwrap();
        assert_eq!((flipped.records.len(), flipped.torn_tail), (1, 1));

        // A missing file is an error, not an empty journal.
        let _ = std::fs::remove_file(&path);
        let missing = Journal::load_report(&path).unwrap_err();
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn flush_policies_persist_records() {
        // EveryN buffers; drop flushes the remainder.
        let path = tmp_path("flush-n");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open_append_with(&path, FlushPolicy::EveryN(3)).unwrap();
            j.append(&sample(0, false, 1e-9)).unwrap();
            j.append(&sample(1, false, 1e-9)).unwrap();
            // Not yet flushed: the file may be shorter than two records,
            // but after drop everything must be present.
        }
        assert_eq!(Journal::load(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();

        // Sync flushes + fsyncs each record.
        let path = tmp_path("flush-sync");
        let _ = std::fs::remove_file(&path);
        {
            let mut j = Journal::open_append_with(&path, FlushPolicy::Sync).unwrap();
            j.append(&sample(0, false, 1e-9)).unwrap();
            assert_eq!(Journal::load(&path).unwrap().len(), 1);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_policy_parses() {
        use std::str::FromStr;
        assert_eq!(
            FlushPolicy::from_str("record").unwrap(),
            FlushPolicy::EveryRecord
        );
        assert_eq!(FlushPolicy::from_str("sync").unwrap(), FlushPolicy::Sync);
        assert_eq!(
            FlushPolicy::from_str("16").unwrap(),
            FlushPolicy::EveryN(16)
        );
        assert!(FlushPolicy::from_str("0").is_err());
        assert!(FlushPolicy::from_str("whenever").is_err());
    }

    #[test]
    fn failure_and_fault_fields_round_trip() {
        let path = tmp_path("fault-fields");
        let _ = std::fs::remove_file(&path);
        let mut rec = sample(0, false, f64::INFINITY);
        rec.status = "runtime_error".into();
        rec.failure_kind = Some("panic".into());
        rec.fault_kind = Some("abort".into());
        rec.fault_seed = Some(0xdead_beef);
        {
            let mut j = Journal::open_append(&path).unwrap();
            j.append(&rec).unwrap();
            j.append(&sample(1, false, 1e-9)).unwrap();
        }
        let back = Journal::load(&path).unwrap();
        assert_eq!(back[0].failure_kind.as_deref(), Some("panic"));
        assert_eq!(back[0].fault_kind.as_deref(), Some("abort"));
        assert_eq!(back[0].fault_seed, Some(0xdead_beef));
        assert_eq!(back[1].fault_kind, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("prose-trace-dirs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/trials.jsonl");
        {
            let mut j = Journal::open_append(&path).unwrap();
            assert_eq!(j.path(), path.as_path());
            j.append(&sample(0, false, 0.0)).unwrap();
        }
        assert_eq!(Journal::load(&path).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
