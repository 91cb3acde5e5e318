//! Incremental journal tailing: follow a growing JSONL file and yield
//! each **complete** line exactly once, in order.
//!
//! The service layer streams live job progress as server-sent events by
//! tailing the job's trial journal — the journal *is* the event format,
//! so the tailer only needs to deliver whole lines as they land. Partial
//! tails (a record mid-append, or the torn tail of a killed writer) are
//! left in place and re-examined on the next poll; a line is surfaced
//! only once its trailing newline exists. The tailer keeps a byte offset,
//! not a file handle, so it survives the journal being atomically
//! replaced underneath it (`load_repair`'s rewrite) — a shrunken file
//! resets the offset and re-reads from the start.
//!
//! ## Waiting without polling
//!
//! Every live tail registers a **flush generation** for its path: a
//! counter plus a `Condvar`. [`Journal::flush`](crate::Journal::flush)
//! on the same path bumps it, and so does [`wake`], which writers that do
//! not go through a `Journal` (the job-state WAL) call after they append.
//! A tail reads [`JournalTail::generation`] *before* it polls, then
//! blocks in [`JournalTail::wait_past`] until the generation moves: a
//! flush that lands after the read moves it, so no line can slip between
//! the poll and the wait. Paths are matched as given, not canonicalized,
//! so writer and tail must name the file the same way. With no tail
//! registered a bump costs one relaxed atomic load. That load can miss a
//! tail registering at the same instant; the tail's first poll, which
//! comes after its registration, reads the file anyway, so a missed
//! bump delays a line until the next one and never loses it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One path's flush generation.
#[derive(Debug, Default)]
struct Generation {
    count: Mutex<u64>,
    moved: Condvar,
}

impl Generation {
    fn bump(&self) {
        *lock(&self.count) += 1;
        self.moved.notify_all();
    }
}

/// Registered generations by path, with the number of live tails on each.
static REGISTRY: Mutex<BTreeMap<PathBuf, (Arc<Generation>, usize)>> = Mutex::new(BTreeMap::new());
/// Live tails across all paths: the lock-free fast path of [`wake`].
static TAILS: AtomicUsize = AtomicUsize::new(0);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bump the flush generation of `path`, waking every tail blocked on it.
/// A no-op when no tail follows `path`.
pub fn wake(path: &Path) {
    if TAILS.load(Ordering::Relaxed) == 0 {
        return;
    }
    let generation = lock(&REGISTRY).get(path).map(|(g, _)| Arc::clone(g));
    if let Some(g) = generation {
        g.bump();
    }
}

/// Bump every registered generation: wakes all tails in the process (a
/// shutting-down server uses this to release its event streams).
pub fn wake_all() {
    let all: Vec<Arc<Generation>> = lock(&REGISTRY)
        .values()
        .map(|(g, _)| Arc::clone(g))
        .collect();
    for g in all {
        g.bump();
    }
}

/// Follows one JSONL file by byte offset, yielding complete lines.
#[derive(Debug)]
pub struct JournalTail {
    path: PathBuf,
    offset: u64,
    generation: Arc<Generation>,
}

impl JournalTail {
    /// Tail `path` from the beginning (existing lines are yielded by the
    /// first [`JournalTail::poll`]). The file need not exist yet.
    pub fn new(path: impl AsRef<Path>) -> JournalTail {
        let path = path.as_ref().to_path_buf();
        let generation = {
            let mut registry = lock(&REGISTRY);
            let entry = registry.entry(path.clone()).or_default();
            entry.1 += 1;
            Arc::clone(&entry.0)
        };
        TAILS.fetch_add(1, Ordering::SeqCst);
        JournalTail {
            path,
            offset: 0,
            generation,
        }
    }

    /// Tail `path` from its current end (only lines appended after this
    /// call are yielded).
    pub fn from_end(path: impl AsRef<Path>) -> io::Result<JournalTail> {
        let offset = match std::fs::metadata(path.as_ref()) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        let mut tail = JournalTail::new(path);
        tail.offset = offset;
        Ok(tail)
    }

    /// Current byte offset (start of the first unconsumed line).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The path's flush generation now. Read it before
    /// [`JournalTail::poll`] and hand it to [`JournalTail::wait_past`].
    pub fn generation(&self) -> u64 {
        *lock(&self.generation.count)
    }

    /// Block until the flush generation exceeds `seen`.
    pub fn wait_past(&self, seen: u64) {
        let mut count = lock(&self.generation.count);
        while *count <= seen {
            count = self
                .generation
                .moved
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Return every complete line appended since the last poll, reading
    /// only the bytes past the consumed offset. A missing file yields
    /// nothing; a file *shorter* than the consumed offset (atomically
    /// replaced by a repair pass) resets the tail to the start, so
    /// replacement re-delivers the surviving lines rather than silently
    /// skipping them.
    pub fn poll(&mut self) -> io::Result<Vec<String>> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        if file.metadata()?.len() < self.offset {
            self.offset = 0;
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut out = Vec::new();
        let mut start = 0;
        while let Some(nl) = bytes[start..].iter().position(|b| *b == b'\n') {
            let line = &bytes[start..start + nl];
            // A corrupted journal may hold non-UTF-8 bytes; surface the
            // line lossily rather than stalling the stream.
            if !line.is_empty() {
                out.push(String::from_utf8_lossy(line).into_owned());
            }
            start += nl + 1;
        }
        self.offset += start as u64;
        Ok(out)
    }
}

impl Drop for JournalTail {
    fn drop(&mut self) {
        let mut registry = lock(&REGISTRY);
        if let Some(entry) = registry.get_mut(&self.path) {
            entry.1 -= 1;
            if entry.1 == 0 {
                registry.remove(&self.path);
            }
        }
        TAILS.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("prose-tail-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn yields_complete_lines_exactly_once() {
        let path = tmp_path("once");
        let _ = std::fs::remove_file(&path);
        let mut tail = JournalTail::new(&path);
        assert!(
            tail.poll().unwrap().is_empty(),
            "missing file yields nothing"
        );

        std::fs::write(&path, "one\ntwo\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["one", "two"]);
        assert!(tail.poll().unwrap().is_empty(), "no re-delivery");

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"three\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["three"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_tail_waits_for_its_newline() {
        let path = tmp_path("partial");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "full\npart").unwrap();
        let mut tail = JournalTail::new(&path);
        assert_eq!(tail.poll().unwrap(), vec!["full"]);
        // The partial line stays pending until its newline arrives.
        assert!(tail.poll().unwrap().is_empty());
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"ial\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["partial"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn from_end_skips_history() {
        let path = tmp_path("end");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "old\n").unwrap();
        let mut tail = JournalTail::from_end(&path).unwrap();
        assert!(tail.poll().unwrap().is_empty());
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"new\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["new"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_replacement_resets_the_tail() {
        let path = tmp_path("replace");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, "a\nb\nc\n").unwrap();
        let mut tail = JournalTail::new(&path);
        assert_eq!(tail.poll().unwrap().len(), 3);
        // A repair pass rewrote the journal smaller: the tail re-reads
        // from the start instead of pointing past the end.
        std::fs::write(&path, "a\nc\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["a", "c"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_flush_wakes_a_blocked_tail() {
        let path = tmp_path("wake");
        let _ = std::fs::remove_file(&path);
        let tail = JournalTail::new(&path);
        let seen = tail.generation();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            tail.wait_past(seen);
            tx.send(()).unwrap();
            tail
        });
        // Give the waiter time to block; an early flush would still wake
        // it, as the generation has moved past `seen` either way.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(rx.try_recv().is_err(), "nothing flushed yet");
        let mut journal = crate::Journal::open_append(&path).unwrap();
        journal.append_raw_line(b"{\"seq\":0}").unwrap();
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the flush wakes the tail");
        let mut tail = waiter.join().unwrap();
        assert!(tail.generation() > seen);
        assert_eq!(tail.poll().unwrap().len(), 1);
        drop(journal);
        std::fs::remove_file(&path).unwrap();
    }
}
