//! Integration tests of `prose-served`'s robustness contract: the
//! kill-9-and-restart differential (byte-identical final configuration,
//! zero duplicate interpreter evaluations), idempotent concurrent
//! submission, bounded-queue backpressure, the cached-result read path,
//! SSE replay of a finished job's journal, live SSE streams, and the
//! prompt stop of an idle server.
//!
//! Every test but the last runs the daemon as a real subprocess (own
//! signal latch, own address) against its own temp jobs directory, and
//! talks to it over raw HTTP/1.1 on `std::net::TcpStream` — the same
//! surface clients use. The idle-stop test serves in process: it latches
//! this process's signal, which no other test here reads.

use prose::core::job::JobSpec;
use prose::core::{run_job, JobRequest};
use prose::trace::{Journal, TrialRecord};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The job-runner test model: hotspot work plus driver-side load so the
/// hotspot share stays realistic (same shape as the in-crate job tests).
/// `steps` scales interpreter wall time per trial — kill-mid-run tests
/// need trials slow enough for a signal to land between journal appends.
fn program(steps: usize) -> String {
    format!(
        r#"
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
  do step = 1, {steps}
    call work(field, 256)
    do i = 1, 2048
      diag(i) = diag(i) * 0.999d0 + 0.001d0
    end do
    acc = acc + sum(diag)
  end do
  call prose_record_array('field', field)
end program main
"#
    )
}

fn spec(threshold: f64, seed: u64) -> JobSpec {
    JobSpec {
        procs: vec!["work".into()],
        metric: "maxspace:field:0.0".into(),
        threshold,
        strategy: None,
        granularity: None,
        scope: None,
        seed: Some(seed),
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

/// A fast request: the all-lowered configuration passes the loose
/// threshold immediately, so the search journals one trial and finishes.
fn fast_request(seed: u64) -> String {
    serde_json::to_string(&JobRequest {
        program: program(20),
        spec: spec(1e-3, seed),
    })
    .unwrap()
}

/// A slow request: ~0.5 s of interpreter work per trial and a threshold
/// tight enough that delta debugging explores several configurations.
fn slow_request(seed: u64) -> (JobRequest, String) {
    let request = JobRequest {
        program: program(100),
        spec: spec(1e-9, seed),
    };
    let body = serde_json::to_string(&request).unwrap();
    (request, body)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prose-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn the daemon on an ephemeral port and wait for it to publish its
/// bound address. Stale address files from a previous (killed) process
/// are removed first so we never connect to a dead socket.
#[allow(clippy::zombie_processes)] // every caller kills or waits the daemon
fn spawn_daemon(jobs_dir: &Path, extra: &[&str]) -> (Child, String) {
    let addr_path = jobs_dir.join("served.addr");
    let _ = std::fs::remove_file(&addr_path);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_prose-served"));
    cmd.arg("--port")
        .arg("0")
        .arg("--jobs-dir")
        .arg(jobs_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for a in extra {
        cmd.arg(a);
    }
    let child = cmd.spawn().expect("spawn prose-served");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_path) {
            if !addr.trim().is_empty() {
                return (child, addr.trim().to_string());
            }
        }
        assert!(
            Instant::now() < deadline,
            "daemon never published served.addr"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One HTTP/1.1 exchange (`Connection: close`): returns (status, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let code: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (code, body)
}

/// Pull a `"key":"value"` string field out of a JSON body.
fn json_str_field(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = body.find(&pat)? + pat.len();
    let rest = &body[start..];
    Some(rest[..rest.find('"')?].to_string())
}

fn poll_until<T>(deadline_secs: u64, what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(deadline_secs);
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Every uncached (interpreter-run) record must be unique by
/// (config, member, attempt): the zero-duplicate-evaluation invariant.
fn assert_no_duplicate_evaluations(records: &[TrialRecord]) {
    let mut seen: HashSet<(Vec<bool>, Option<u32>, u32)> = HashSet::new();
    for r in records.iter().filter(|r| !r.cached) {
        assert!(
            seen.insert((r.config.clone(), r.member, r.attempt)),
            "config {:?} (member {:?}, attempt {}) evaluated twice",
            r.config,
            r.member,
            r.attempt
        );
    }
}

#[test]
fn kill9_restart_differential_and_cached_resubmission() {
    let jobs_dir = tmp_dir("kill9");
    let (request, body) = slow_request(42);

    let (mut daemon, addr) = spawn_daemon(&jobs_dir, &[]);
    let (code, resp) = http(&addr, "POST", "/jobs", &body);
    assert_eq!(code, 201, "first submission creates: {resp}");
    let id = json_str_field(&resp, "id").expect("id in response");

    // Wait for the search to journal a couple of trials, then SIGKILL the
    // daemon mid-run — the worst-case crash.
    let journal_path = jobs_dir.join(&id).join("journal.jsonl");
    poll_until(120, "journal to accumulate trials", || {
        std::fs::read_to_string(&journal_path)
            .ok()
            .filter(|s| s.lines().count() >= 2)
    });
    daemon.kill().unwrap();
    daemon.wait().unwrap();

    // Restart on the same jobs dir: recovery must re-queue and finish it.
    let (mut daemon, addr) = spawn_daemon(&jobs_dir, &[]);
    let final_status = poll_until(300, "restarted job to finish", || {
        let (code, resp) = http(&addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(code, 200, "{resp}");
        let state = json_str_field(&resp, "state").unwrap();
        assert!(
            state != "failed" && state != "cancelled",
            "job ended {state}: {resp}"
        );
        (state == "done").then_some(resp)
    });

    // Differential: the interrupted-and-resumed run must land on the same
    // final configuration as an uninterrupted run of the same request.
    let reference_dir = tmp_dir("kill9-ref");
    let reference = run_job(&request, &reference_dir.join("journal.jsonl"), None).unwrap();
    let result_text = std::fs::read_to_string(jobs_dir.join(&id).join("result.json")).unwrap();
    let served: prose::core::JobResult = serde_json::from_str(&result_text).unwrap();
    assert_eq!(served.final_config, reference.final_config);
    assert_eq!(served.final_double, reference.final_double);
    assert_eq!(served.job_id, id);

    // Journal-verified: the kill cost zero duplicate interpreter runs.
    let records = Journal::load_repair_or_empty(&journal_path)
        .unwrap()
        .records;
    assert_no_duplicate_evaluations(&records);
    // Every record the service wrote carries the job stamp.
    assert!(records
        .iter()
        .all(|r| r.job.as_deref() == Some(id.as_str())));

    // Idempotent resubmission of the finished job: 200 (not 201), served
    // from the persisted result without re-running anything.
    let before = records.iter().filter(|r| !r.cached).count();
    let (code, resp) = http(&addr, "POST", "/jobs", &body);
    assert_eq!(code, 200, "{resp}");
    assert!(resp.contains("\"created\":false"), "{resp}");
    assert!(resp.contains("\"state\":\"done\""), "{resp}");
    assert!(resp.contains("\"final_config\""), "result inlined: {resp}");
    let after = Journal::load_repair_or_empty(&journal_path)
        .unwrap()
        .records;
    assert_eq!(
        after.iter().filter(|r| !r.cached).count(),
        before,
        "resubmission must not evaluate"
    );

    // SSE on a finished job: full journal replay, then the terminal state.
    let (code, events) = http(&addr, "GET", &format!("/jobs/{id}/events"), "");
    assert_eq!(code, 200);
    let frames = events.matches("data: ").count();
    assert!(
        frames > after.len(),
        "journal lines + state event: {frames}"
    );
    assert!(events.contains("event: state"), "{events}");
    assert!(events.contains("\"state\":\"done\""), "{events}");
    let _ = final_status;

    daemon.kill().unwrap();
    daemon.wait().unwrap();
    let _ = std::fs::remove_dir_all(&jobs_dir);
    let _ = std::fs::remove_dir_all(&reference_dir);
}

#[test]
fn concurrent_identical_submissions_collapse_to_one_job() {
    let jobs_dir = tmp_dir("dup");
    let (mut daemon, addr) = spawn_daemon(&jobs_dir, &[]);
    let body = fast_request(7);

    let results: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let body = body.clone();
                s.spawn(move || http(&addr, "POST", "/jobs", &body))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let created = results.iter().filter(|(code, _)| *code == 201).count();
    let duplicate = results.iter().filter(|(code, _)| *code == 200).count();
    assert_eq!(created, 1, "exactly one submission creates: {results:?}");
    assert_eq!(duplicate, 7, "{results:?}");
    let ids: HashSet<String> = results
        .iter()
        .map(|(_, body)| json_str_field(body, "id").unwrap())
        .collect();
    assert_eq!(ids.len(), 1, "all submissions share the id: {ids:?}");
    let id = ids.into_iter().next().unwrap();

    // One job directory on disk (plus the address file).
    let dirs: Vec<String> = std::fs::read_dir(&jobs_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(dirs, vec![id.clone()]);

    // And the one job evaluates each configuration exactly once.
    poll_until(300, "job to finish", || {
        let (_, resp) = http(&addr, "GET", &format!("/jobs/{id}"), "");
        (json_str_field(&resp, "state").as_deref() == Some("done")).then_some(())
    });
    let records = Journal::load(jobs_dir.join(&id).join("journal.jsonl")).unwrap();
    assert_no_duplicate_evaluations(&records);

    daemon.kill().unwrap();
    daemon.wait().unwrap();
    let _ = std::fs::remove_dir_all(&jobs_dir);
}

#[test]
fn bounded_queue_rejects_with_429_and_drains_cleanly_on_sigterm() {
    let jobs_dir = tmp_dir("backpressure");
    let (mut daemon, addr) = spawn_daemon(&jobs_dir, &["--queue-cap", "1", "--runners", "1"]);

    // Slow job A occupies the single runner...
    let (code, resp) = http(&addr, "POST", "/jobs", &slow_request(1).1);
    assert_eq!(code, 201, "{resp}");
    let id_a = json_str_field(&resp, "id").unwrap();
    poll_until(120, "job A to start running", || {
        let (_, resp) = http(&addr, "GET", &format!("/jobs/{id_a}"), "");
        (json_str_field(&resp, "state").as_deref() == Some("running")).then_some(())
    });

    // ...job B fills the queue...
    let (code, _) = http(&addr, "POST", "/jobs", &slow_request(2).1);
    assert_eq!(code, 201);

    // ...and job C bounces with 429 instead of being accepted-then-lost.
    let (code, resp) = http(&addr, "POST", "/jobs", &slow_request(3).1);
    assert_eq!(code, 429, "{resp}");
    assert!(resp.contains("queue full"), "{resp}");

    // Cancel the running job: acknowledged now, journaled by the runner at
    // the next evaluation boundary.
    let (code, resp) = http(&addr, "POST", &format!("/jobs/{id_a}/cancel"), "");
    assert_eq!(code, 202, "{resp}");
    poll_until(120, "job A to reach cancelled", || {
        let (_, resp) = http(&addr, "GET", &format!("/jobs/{id_a}"), "");
        (json_str_field(&resp, "state").as_deref() == Some("cancelled")).then_some(())
    });

    // SIGTERM: the daemon drains (checkpointing any straggler back to
    // `queued`) and exits 0 — never killed, never hung.
    let pid = daemon.id().to_string();
    let status = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(status.success());
    let exit = poll_until(60, "daemon to drain and exit", || {
        daemon.try_wait().unwrap()
    });
    assert_eq!(exit.code(), Some(0), "clean drain exit: {exit:?}");

    let _ = std::fs::remove_dir_all(&jobs_dir);
}

#[test]
fn live_event_streams_deliver_each_journal_line_once_in_seq_order() {
    let jobs_dir = tmp_dir("live");
    let (mut daemon, addr) = spawn_daemon(&jobs_dir, &[]);
    // Submit every job first, then follow them all at once: with one
    // runner, the streams attach to jobs that are queued, running or
    // already done, and must wait across state transitions and flushes.
    // Odd seeds run a short search that journals several trials.
    let ids: Vec<String> = (0..5)
        .map(|seed| {
            let body = if seed % 2 == 0 {
                fast_request(seed)
            } else {
                serde_json::to_string(&JobRequest {
                    program: program(10),
                    spec: spec(1e-9, seed),
                })
                .unwrap()
            };
            let (code, resp) = http(&addr, "POST", "/jobs", &body);
            assert_eq!(code, 201, "{resp}");
            json_str_field(&resp, "id").expect("id in response")
        })
        .collect();
    let streams: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = ids
            .iter()
            .map(|id| {
                let addr = addr.as_str();
                s.spawn(move || http(addr, "GET", &format!("/jobs/{id}/events"), ""))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (id, (code, events)) in ids.iter().zip(&streams) {
        assert_eq!(*code, 200);
        let frames: Vec<&str> = events.split("\n\n").filter(|f| !f.is_empty()).collect();
        let (last, data) = frames.split_last().expect("at least the state frame");
        assert_eq!(
            *last, "event: state\ndata: {\"state\":\"done\"}",
            "{events}"
        );
        let streamed: Vec<&str> = data
            .iter()
            .map(|f| {
                f.strip_prefix("data: ")
                    .unwrap_or_else(|| panic!("frame {f:?}"))
            })
            .collect();
        let journal_path = jobs_dir.join(id).join("journal.jsonl");
        let journal = std::fs::read_to_string(&journal_path).unwrap();
        let lines: Vec<&str> = journal.lines().filter(|l| !l.is_empty()).collect();
        assert!(!lines.is_empty(), "job {id} journaled nothing");
        assert_eq!(
            streamed, lines,
            "job {id}: every journal line exactly once, in order"
        );
        let seqs: Vec<u64> = Journal::load(&journal_path)
            .unwrap()
            .iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(seqs.len(), streamed.len());
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq order: {seqs:?}");
    }

    daemon.kill().unwrap();
    daemon.wait().unwrap();
    let _ = std::fs::remove_dir_all(&jobs_dir);
}

#[test]
fn idle_server_stops_promptly_on_shutdown_request() {
    use prose::serve::{signals, ServeConfig, Server};
    let jobs_dir = tmp_dir("idle");
    let server = Server::new(ServeConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        jobs_dir: jobs_dir.clone(),
        queue_cap: 4,
        runners: 1,
        drain_ms: 2_000,
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let (tx, rx) = std::sync::mpsc::channel();
    let serving = std::thread::spawn(move || {
        let ran = server.run();
        tx.send(Instant::now()).unwrap();
        ran
    });
    // The accept loop is live and blocked, not spinning.
    let (code, _) = http(&addr, "GET", "/healthz", "");
    assert_eq!(code, 200);
    assert!(rx.try_recv().is_err(), "still serving");

    // `Server::request_shutdown` latches exactly this; `run` owns the
    // server by now, so raise it directly.
    let asked = Instant::now();
    signals::raise(signals::SIGTERM);
    let stopped = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("run returns after the shutdown request");
    serving.join().unwrap().unwrap();
    let took = stopped.duration_since(asked);
    assert!(
        took < Duration::from_millis(500),
        "idle server took {took:?} to stop (drain window 2000 ms)"
    );
    let _ = std::fs::remove_dir_all(&jobs_dir);
}
