//! An always-on, bounded flight recorder (`flight-dump/1`).
//!
//! Every thread that calls [`note`] gets its own bounded ring of
//! recent breadcrumb events — the same eviction discipline as
//! [`RingSink`]: when full, the oldest event goes and
//! a drop is counted. Rings are registered in a process-wide shard
//! list so a crash handler on *any* thread can collect the tails of
//! *all* threads into one `flight-dump/1` document and explain what
//! each worker was doing when the run died. A thread that exits hands
//! its ring to the next thread that starts recording, so the shard list
//! grows only to the peak number of threads recording at once, however
//! many short-lived workers come and go.
//!
//! Cost model: [`note`] is meant for *coarse* breadcrumbs — pipeline
//! stage entries, retries, journal rounds — a handful per evaluation,
//! not per instruction. Each call is one thread-local ring push plus
//! one clock read, always on, no configuration required.
//! High-frequency events belong on the gated [`log`] path instead.
//!
//! A dump is taken with [`capture`]: when a dump directory is
//! configured (see [`set_dump_dir`]; `isdlc explore --journal` points
//! it next to the journal) the document is written there and the
//! returned note names the file; otherwise the note carries an inline
//! tail of the most recent events. Either way the note is designed to
//! be appended to a diagnostic message.

use crate::json::Json;
use crate::log::{self, Level};
use crate::trace::{RingSink, TraceSink};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Schema identifier of a dump document. Bump the suffix on breaking
/// changes.
pub const DUMP_SCHEMA: &str = "flight-dump/1";

/// Events retained per thread ring.
pub const DEFAULT_CAPACITY: usize = 64;

/// Global event order across shards.
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Dumps taken by [`capture`] since process start.
static DUMPS: AtomicU64 = AtomicU64::new(0);
/// Where [`capture`] writes dump files (`None` = inline tail only).
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// All thread shards, in registration order. A shard outlives its
/// thread — a dump taken after a worker died still shows its tail,
/// until another thread reuses the ring.
static SHARDS: Mutex<Vec<(u64, Arc<Mutex<RingSink>>)>> = Mutex::new(Vec::new());
/// Shards whose thread has exited, free for the next thread to record.
static FREE: Mutex<Vec<u64>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A thread's hold on one shard; gives the shard back to [`FREE`] when
/// the thread exits.
struct Claim {
    id: u64,
    ring: Arc<Mutex<RingSink>>,
}

impl Drop for Claim {
    fn drop(&mut self) {
        // Runs at thread exit, so it must not panic: a poisoned free
        // list only keeps this shard from being reused.
        if let Ok(mut free) = FREE.lock() {
            free.push(self.id);
        }
    }
}

thread_local! {
    static SHARD: std::cell::OnceCell<Claim> = const { std::cell::OnceCell::new() };
}

fn with_shard<R>(f: impl FnOnce(u64, &Mutex<RingSink>) -> R) -> R {
    SHARD.with(|cell| {
        let claim = cell.get_or_init(|| {
            let mut shards = SHARDS.lock().expect("flight shard list lock");
            if let Some(id) = FREE.lock().expect("flight free list lock").pop() {
                return Claim { id, ring: Arc::clone(&shards[id as usize].1) };
            }
            let ring = Arc::new(Mutex::new(RingSink::new(DEFAULT_CAPACITY)));
            let id = shards.len() as u64;
            shards.push((id, Arc::clone(&ring)));
            Claim { id, ring }
        });
        f(claim.id, &claim.ring)
    })
}

/// Directs [`capture`] to write dump files into `dir` (`None` reverts
/// to inline tails). The directory is created on first use.
pub fn set_dump_dir(dir: Option<PathBuf>) {
    *DUMP_DIR.lock().expect("flight dump dir lock") = dir;
}

/// The configured dump directory, if any.
#[must_use]
pub fn dump_dir() -> Option<PathBuf> {
    DUMP_DIR.lock().expect("flight dump dir lock").clone()
}

/// Dumps taken by [`capture`] since process start.
#[must_use]
pub fn dump_count() -> u64 {
    DUMPS.load(Ordering::Relaxed)
}

/// Records one breadcrumb on the calling thread's ring (always on,
/// bounded) and forwards it to the structured log at `debug` level
/// when the log gate is open.
pub fn note(target: &str, msg: &str, fields: Json) {
    let t_us = u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    with_shard(|shard, ring| {
        let event = Json::obj()
            .with("seq", seq)
            .with("t_us", t_us)
            .with("shard", shard)
            .with("target", target)
            .with("msg", msg)
            .with("fields", fields.clone());
        ring.lock().expect("flight ring lock").record(event);
    });
    log::event_with(Level::Debug, target, msg, || fields);
}

/// The merged recorder state: every shard's retained events sorted by
/// global sequence number, plus the total evicted-event count.
#[must_use]
pub fn snapshot() -> (Vec<Json>, u64) {
    let shards = SHARDS.lock().expect("flight shard list lock");
    let mut events = Vec::new();
    let mut dropped = 0;
    for (_, ring) in shards.iter() {
        let ring = ring.lock().expect("flight ring lock");
        events.extend(ring.events().cloned());
        dropped += ring.dropped();
    }
    drop(shards);
    events.sort_by_key(|e| e.get_u64("seq").unwrap_or(u64::MAX));
    (events, dropped)
}

/// Renders the current recorder state as a `flight-dump/1` document.
/// `shard` names the calling thread's ring: its last event is what
/// triggered the dump, even while other threads keep recording.
#[must_use]
pub fn dump(reason: &str) -> Json {
    let shard = with_shard(|id, _| id);
    let (events, dropped) = snapshot();
    Json::obj()
        .with("schema", DUMP_SCHEMA)
        .with("reason", reason)
        .with("shard", shard)
        .with("shards", SHARDS.lock().expect("flight shard list lock").len())
        .with("dropped", dropped)
        .with("events", Json::Arr(events))
}

/// A short human tail of the most recent events: `target: msg`
/// entries, oldest first, at most `n`.
fn tail(doc: &Json, n: usize) -> String {
    let events = doc.get("events").and_then(Json::as_arr).unwrap_or(&[]);
    let start = events.len().saturating_sub(n);
    let parts: Vec<String> = events[start..]
        .iter()
        .map(|e| {
            format!("{}: {}", e.get_str("target").unwrap_or("?"), e.get_str("msg").unwrap_or("?"))
        })
        .collect();
    parts.join(" | ")
}

/// Takes a dump and returns a note to append to a diagnostic.
///
/// With a dump directory configured the document is written to
/// `flight-NNNN-<reason>.json` in it and the note names the path;
/// without one (or if the write fails) the note carries an inline
/// tail of the last few events. Every call counts one dump.
#[must_use]
pub fn capture(reason: &str) -> String {
    let doc = dump(reason);
    let n = DUMPS.fetch_add(1, Ordering::Relaxed);
    if let Some(dir) = dump_dir() {
        if let Some(path) = write_dump(&dir, n, reason, &doc) {
            return format!("flight dump: {}", path.display());
        }
    }
    format!("flight tail: {}", tail(&doc, 5))
}

fn write_dump(dir: &Path, n: u64, reason: &str, doc: &Json) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let safe: String =
        reason.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    let path = dir.join(format!("flight-{n:04}-{safe}.json"));
    // Write-then-rename so a dump file, once visible, is complete —
    // post-mortems read these after SIGKILL.
    let tmp = dir.join(format!(".flight-{n:04}-{safe}.json.tmp"));
    std::fs::write(&tmp, doc.to_pretty()).ok()?;
    std::fs::rename(&tmp, &path).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_guard;

    #[test]
    fn notes_are_bounded_merged_and_dumpable() {
        let _guard = test_guard();
        let before = dump_count();
        for i in 0..200u64 {
            note("test.flight", "step", Json::obj().with("i", i));
        }
        let (events, dropped) = snapshot();
        assert!(dropped > 0, "200 notes overflow the default ring");
        assert!(!events.is_empty());
        let seqs: Vec<u64> = events.iter().filter_map(|e| e.get_u64("seq")).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "merged events are in sequence order");

        // A second thread gets its own shard; its tail survives the
        // thread's death.
        std::thread::spawn(|| {
            note("test.flight.worker", "working", Json::obj());
        })
        .join()
        .expect("worker runs");
        let doc = dump("unit_test");
        assert_eq!(doc.get_str("schema"), Some(DUMP_SCHEMA));
        assert_eq!(doc.get_str("reason"), Some("unit_test"));
        assert!(doc.get_u64("shards").unwrap_or(0) >= 2);
        let rendered = doc.to_pretty();
        let parsed = Json::parse(&rendered).expect("dump parses");
        assert_eq!(parsed, doc, "dump round-trips");
        let all = parsed.get("events").and_then(Json::as_arr).expect("events");
        assert!(
            all.iter().any(|e| e.get_str("target") == Some("test.flight.worker")),
            "dead thread's tail kept"
        );
        assert_eq!(dump_count(), before, "dump() alone does not count");
    }

    #[test]
    fn exited_threads_hand_their_rings_to_new_threads() {
        let _guard = test_guard();
        let shards = || SHARDS.lock().expect("flight shard list lock").len();
        let before = shards();
        for i in 0..32u64 {
            std::thread::spawn(move || note("test.flight.reuse", "once", Json::obj().with("i", i)))
                .join()
                .expect("worker runs");
        }
        assert!(shards() <= before + 1, "{} shards for 32 threads in turn", shards() - before);
        let doc = dump("unit_test");
        let events = doc.get("events").and_then(Json::as_arr).expect("events");
        assert!(
            events.iter().any(|e| e.get_str("target") == Some("test.flight.reuse")
                && e.get("fields").and_then(|f| f.get_u64("i")) == Some(31)),
            "the last thread's event is in the dump"
        );
    }

    #[test]
    fn capture_without_dir_inlines_a_tail() {
        let _guard = test_guard();
        note("test.capture", "last thing", Json::obj());
        let had_dir = dump_dir();
        set_dump_dir(None);
        let n0 = dump_count();
        let note_text = capture("unit_reason");
        set_dump_dir(had_dir);
        assert!(note_text.starts_with("flight tail: "), "inline form: {note_text}");
        assert!(note_text.contains("test.capture"), "tail names recent targets: {note_text}");
        assert_eq!(dump_count(), n0 + 1);
    }

    #[test]
    fn capture_with_dir_writes_a_parseable_file() {
        let _guard = test_guard();
        let dir = std::env::temp_dir().join(format!("obs-flight-test-{}", std::process::id()));
        let had_dir = dump_dir();
        set_dump_dir(Some(dir.clone()));
        note("test.file", "before crash", Json::obj().with("k", 1u64));
        let note_text = capture("panic");
        set_dump_dir(had_dir);
        let path = note_text.strip_prefix("flight dump: ").expect("file form");
        let text = std::fs::read_to_string(path).expect("dump file exists");
        let doc = Json::parse(&text).expect("dump file parses");
        assert_eq!(doc.get_str("schema"), Some(DUMP_SCHEMA));
        assert_eq!(doc.get_str("reason"), Some("panic"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
