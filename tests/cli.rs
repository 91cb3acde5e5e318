//! Command-line contracts of `prose-tune`: only flags configure a search
//! (the process environment does not), and an unknown strategy is a usage
//! error rather than a silent fallback to delta debugging.

use prose::trace::Journal;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A funarc-style arc-length model, small enough that delta debugging
/// finishes in well under a second.
const PROGRAM: &str = r#"
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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prose-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("arc.f90"), PROGRAM).unwrap();
    dir
}

/// Run `prose-tune` on the arc model with `PROSE_<name>=<value>` set for
/// each `env` pair.
fn tune(dir: &Path, extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_prose-tune"));
    cmd.arg(dir.join("arc.f90"))
        .args(["--procs", "arc,fun"])
        .args(["--exclude", "result"])
        .args(["--metric", "scalar:result"])
        .args(["--threshold", "4e-4"])
        .args(extra);
    for (name, value) in env {
        cmd.env(format!("PROSE_{name}"), value);
    }
    cmd.output().unwrap()
}

/// The worker, deadline and retry settings come from flags alone: a
/// `PROSE_*` variable left in the environment (of a shell, or of a
/// long-running service) must not change a search whose flags name none.
#[test]
fn environment_variables_do_not_configure_the_tuner() {
    let dir = scratch_dir("env");
    let journal = dir.join("trials.jsonl");
    let out = tune(
        &dir,
        &["--journal", journal.to_str().unwrap()],
        &[
            ("WORKERS", "4"),
            ("DEADLINE_MS", "1"),
            ("RETRY_ATTEMPTS", "3"),
        ],
    );
    assert!(
        out.status.success(),
        "prose-tune failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records = Journal::load(&journal).unwrap();
    assert!(!records.is_empty());
    for r in &records {
        assert_eq!(
            r.workers, 1,
            "seq {}: pool width came from the environment",
            r.seq
        );
        assert_eq!(
            r.attempt, 0,
            "seq {}: retry budget came from the environment",
            r.seq
        );
        assert_ne!(r.failure_kind.as_deref(), Some("deadline"), "seq {}", r.seq);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--strategy` accepts `dd` and `brute` only; anything else (including
/// the removed `random`) exits 2 with the usage text before any work.
#[test]
fn unknown_strategy_is_a_usage_error() {
    let dir = scratch_dir("strategy");
    for strategy in ["random", "ddmin", "Brute"] {
        let out = tune(&dir, &["--strategy", strategy], &[]);
        assert_eq!(out.status.code(), Some(2), "--strategy {strategy}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: prose-tune"),
            "--strategy {strategy}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "--strategy {strategy} started a search"
        );
    }
    let out = tune(&dir, &["--strategy", "brute"], &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
