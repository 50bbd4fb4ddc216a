//! A leveled, targeted structured event log (`xsim-log/1`).
//!
//! One process-wide dispatcher turns `(level, target, msg, fields)`
//! tuples into JSON Lines on a caller-supplied sink. The dispatcher
//! honors the [`Gate`](crate::Gate) contract the rest of this crate
//! is built on:
//!
//! * **Off is free.** Until [`init`] runs (or after [`shutdown`]),
//!   every [`enabled`] check is one relaxed atomic load and a
//!   predictable branch — no clock read, no allocation, no lock.
//!   Producers that build fields lazily via [`event_with`] pay
//!   *nothing* beyond that branch.
//! * **On is filtered.** Each event passes a per-target level filter
//!   (longest-prefix match on dot-separated targets) before any
//!   serialization happens; filtered events count as *dropped*.
//! * **Lines are self-describing.** Every emitted line is a complete
//!   `xsim-log/1` object: schema, sequence number, microseconds since
//!   [`init`], level, target, message, and the caller's ordered
//!   fields (see `docs/OBSERVABILITY.md`).
//!
//! The spec grammar accepted by [`init`] / [`Filter::parse`] is the
//! `--log` flag's: `LEVEL[,TARGET=LEVEL...]`, e.g.
//! `info,gensim.translate=trace,archex=debug`.

use crate::json::Json;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Event severity, ordered from most to least verbose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Very high-frequency events (per block, per edge).
    Trace,
    /// Development diagnostics (per candidate, per round).
    Debug,
    /// Notable run milestones.
    Info,
    /// Something degraded but the run continues.
    Warn,
    /// Something failed.
    Error,
}

impl Level {
    /// The stable lower-case name used on the wire.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Trace => "trace",
            Self::Debug => "debug",
            Self::Info => "info",
            Self::Warn => "warn",
            Self::Error => "error",
        }
    }

    /// Parses a level name (the inverse of [`Level::name`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "trace" => Some(Self::Trace),
            "debug" => Some(Self::Debug),
            "info" => Some(Self::Info),
            "warn" => Some(Self::Warn),
            "error" => Some(Self::Error),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A per-target minimum-level filter.
///
/// Targets are dot-separated paths (`gensim.translate`); the filter
/// applies the longest matching prefix rule, falling back to the
/// default level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    /// Minimum level for targets with no specific rule.
    pub default: Level,
    /// `(target-prefix, minimum level)` rules.
    pub targets: Vec<(String, Level)>,
}

impl Default for Filter {
    fn default() -> Self {
        Self { default: Level::Info, targets: Vec::new() }
    }
}

impl Filter {
    /// Parses a `--log` spec: `LEVEL[,TARGET=LEVEL...]`. The leading
    /// bare level is optional (`info` assumed), so both
    /// `debug,archex=trace` and `archex=trace` are accepted.
    ///
    /// # Errors
    ///
    /// Returns a message naming the clause that failed to parse.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut filter = Self::default();
        for (i, clause) in spec.split(',').enumerate() {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some((target, level)) = clause.split_once('=') {
                let level = Level::parse(level.trim())
                    .ok_or_else(|| format!("unknown log level `{}` in `{clause}`", level.trim()))?;
                filter.targets.push((target.trim().to_owned(), level));
            } else if i == 0 {
                filter.default =
                    Level::parse(clause).ok_or_else(|| format!("unknown log level `{clause}`"))?;
            } else {
                return Err(format!("expected `target=level`, got `{clause}`"));
            }
        }
        Ok(filter)
    }

    /// Whether an event at `level` for `target` passes this filter.
    #[must_use]
    pub fn passes(&self, level: Level, target: &str) -> bool {
        let mut best: Option<(usize, Level)> = None;
        for (prefix, min) in &self.targets {
            let matches = target == prefix
                || (target.len() > prefix.len()
                    && target.starts_with(prefix.as_str())
                    && target.as_bytes()[prefix.len()] == b'.');
            if matches && best.is_none_or(|(len, _)| prefix.len() > len) {
                best = Some((prefix.len(), *min));
            }
        }
        level >= best.map_or(self.default, |(_, min)| min)
    }
}

/// Schema identifier on every emitted line. Bump the suffix on
/// breaking changes.
pub const LOG_SCHEMA: &str = "xsim-log/1";

/// The fast gate: off means `event` / `event_with` are one relaxed
/// load and a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Events written to the sink.
static EVENTS: AtomicU64 = AtomicU64::new(0);
/// Events suppressed by the filter or lost to sink write errors after
/// the gate was on.
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Monotone per-process line sequence.
static SEQ: AtomicU64 = AtomicU64::new(0);

struct Dispatcher {
    filter: Filter,
    sink: Box<dyn Write + Send>,
    epoch: Instant,
}

/// `None` until [`init`]; holding the lock only on the slow (enabled)
/// path keeps the disabled path lock-free.
static DISPATCHER: Mutex<Option<Dispatcher>> = Mutex::new(None);

/// Installs the process-wide dispatcher and opens the gate. Calling
/// it again replaces the filter and sink (the previous sink is
/// flushed and dropped); counters keep accumulating.
pub fn init(filter: Filter, sink: Box<dyn Write + Send>) {
    let mut slot = DISPATCHER.lock().expect("log dispatcher lock");
    if let Some(prev) = slot.as_mut() {
        let _ = prev.sink.flush();
    }
    *slot = Some(Dispatcher { filter, sink, epoch: Instant::now() });
    drop(slot);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Closes the gate, flushes, and drops the sink. Safe to call when
/// logging was never initialized.
pub fn shutdown() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut slot = DISPATCHER.lock().expect("log dispatcher lock");
    if let Some(prev) = slot.as_mut() {
        let _ = prev.sink.flush();
    }
    *slot = None;
}

/// Flushes the sink without closing the gate.
pub fn flush() {
    if let Some(d) = DISPATCHER.lock().expect("log dispatcher lock").as_mut() {
        let _ = d.sink.flush();
    }
}

/// Whether the log gate is open — one relaxed load. A `true` answer
/// does not mean a given `(level, target)` passes the filter; it
/// means paying for the filter check (and field construction) might
/// be worthwhile.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// `(events_written, events_dropped)` since process start. Dropped
/// counts filter suppressions and sink write errors; it stays 0 while
/// the gate is closed.
#[must_use]
pub fn stats() -> (u64, u64) {
    (EVENTS.load(Ordering::Relaxed), DROPPED.load(Ordering::Relaxed))
}

/// Emits one structured event. When the gate is closed this is one
/// relaxed load and a branch — but `fields` has already been built by
/// the caller; use [`event_with`] on hot paths so field construction
/// is skipped too.
pub fn event(level: Level, target: &str, msg: &str, fields: Json) {
    if !enabled() {
        return;
    }
    dispatch(level, target, msg, fields);
}

/// Emits one structured event with lazily built fields: `fields` runs
/// only when the gate is open, so a closed gate costs one relaxed
/// load, one branch, and nothing else — no clock read, no allocation.
#[inline]
pub fn event_with(level: Level, target: &str, msg: &str, fields: impl FnOnce() -> Json) {
    if !enabled() {
        return;
    }
    dispatch(level, target, msg, fields());
}

/// The slow path: filter, stamp, serialize, write.
fn dispatch(level: Level, target: &str, msg: &str, fields: Json) {
    let mut slot = DISPATCHER.lock().expect("log dispatcher lock");
    let Some(d) = slot.as_mut() else {
        // Gate raced with `shutdown`; the event is lost, not counted —
        // the dispatcher that would own the counter context is gone.
        return;
    };
    if !d.filter.passes(level, target) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let t_us = u64::try_from(d.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
    let line = Json::obj()
        .with("schema", LOG_SCHEMA)
        .with("seq", SEQ.fetch_add(1, Ordering::Relaxed))
        .with("t_us", t_us)
        .with("level", level.name())
        .with("target", target)
        .with("msg", msg)
        .with("fields", fields);
    match writeln!(d.sink, "{line}") {
        Ok(()) => {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_guard;
    use std::sync::{Arc, Mutex as StdMutex};

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().expect("lock").clone()).expect("utf8")
        }
    }

    #[test]
    fn filter_spec_round_trip_and_prefix_match() {
        let f = Filter::parse("debug,gensim.translate=trace,archex=warn").expect("parses");
        assert_eq!(f.default, Level::Debug);
        assert!(f.passes(Level::Debug, "vlog.lsim"), "default applies");
        assert!(!f.passes(Level::Trace, "vlog.lsim"));
        assert!(f.passes(Level::Trace, "gensim.translate"), "exact target rule");
        assert!(f.passes(Level::Trace, "gensim.translate.block"), "prefix rule, dot boundary");
        assert!(!f.passes(Level::Trace, "gensim.translatex"), "no mid-segment prefix match");
        assert!(!f.passes(Level::Info, "archex.journal"), "archex raised to warn");
        assert!(f.passes(Level::Error, "archex.journal"));
        // Longest prefix wins regardless of rule order.
        let f = Filter::parse("archex=error,archex.retry=trace").expect("parses");
        assert!(f.passes(Level::Trace, "archex.retry"));
        assert!(!f.passes(Level::Trace, "archex.journal"));
        // Bare target list without a leading level keeps the default.
        let f = Filter::parse("hgen=debug").expect("parses");
        assert_eq!(f.default, Level::Info);
        assert!(Filter::parse("loud").is_err());
        assert!(Filter::parse("info,banana").is_err());
        assert!(Filter::parse("x=shouty").is_err());
    }

    #[test]
    fn disabled_gate_emits_and_counts_nothing() {
        let _guard = test_guard();
        shutdown();
        let (e0, d0) = stats();
        let mut built = false;
        event_with(Level::Error, "t", "m", || {
            built = true;
            Json::obj()
        });
        event(Level::Error, "t", "m", Json::obj());
        assert!(!built, "closed gate never builds fields");
        assert_eq!(stats(), (e0, d0));
    }

    #[test]
    fn events_are_filtered_stamped_and_jsonl() {
        let _guard = test_guard();
        let buf = SharedBuf::default();
        init(Filter::parse("info,quiet=error").expect("parses"), Box::new(buf.clone()));
        let (e0, d0) = stats();
        event(Level::Info, "archex.round", "round done", Json::obj().with("round", 3u64));
        event_with(Level::Debug, "archex.round", "too low", Json::obj);
        event(Level::Warn, "quiet.corner", "filtered", Json::obj());
        flush();
        let (e1, d1) = stats();
        assert_eq!(e1 - e0, 1, "one event passed");
        assert_eq!(d1 - d0, 2, "two were filtered");
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let line = Json::parse(lines[0]).expect("line parses");
        assert_eq!(line.get_str("schema"), Some(LOG_SCHEMA));
        assert_eq!(line.get_str("level"), Some("info"));
        assert_eq!(line.get_str("target"), Some("archex.round"));
        assert_eq!(line.get_str("msg"), Some("round done"));
        assert_eq!(line.get("fields").and_then(|f| f.get_u64("round")), Some(3));
        assert!(line.get_u64("t_us").is_some());
        assert!(line.get_u64("seq").is_some());
        shutdown();
        event(Level::Error, "t", "after shutdown", Json::obj());
        assert_eq!(stats(), (e1, d1), "shutdown closes the gate");
    }

    #[test]
    fn level_names_round_trip() {
        for l in [Level::Trace, Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(l.name()), Some(l));
        }
        assert_eq!(Level::parse("silly"), None);
        assert!(Level::Trace < Level::Error);
    }
}
