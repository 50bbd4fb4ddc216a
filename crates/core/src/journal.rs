//! Append-only exploration journals (`archex-journal/2`) and their
//! replay — crash-safe checkpoint/resume for the Figure 1 loop.
//!
//! [`crate::Explorer::run_journaled`] streams one JSON line per
//! completed unit of work to a caller-supplied sink:
//!
//! 1. a **header** identifying the schema, the starting machine (by
//!    structural hash), and the explorer configuration (a beam run's
//!    header also records its `width`);
//! 2. an **`init`** event with the initial candidate's accepted step
//!    and any cache entry it created;
//! 3. one **`round`** event per completed frontier round, carrying the
//!    round's [`crate::FrontierRound`] accounting, the cumulative run
//!    counters, every cache entry committed during the round (key =
//!    canonical ISDL text, outcome = full evaluation or rendered
//!    error), and the accepted step with the full ISDL text of the
//!    machine it moved to (`null` when no candidate improved) — plus,
//!    when the beam holds more than one machine, the runners-up under
//!    `beam`;
//! 4. a final **`done`** event.
//!
//! No event carries a wall-clock value, so a run's journal is
//! byte-identical across runs and thread counts.
//!
//! # Line integrity
//!
//! Every line wraps its event in an integrity envelope:
//!
//! ```text
//! {"seq": N, "data": {…event…}, "crc": "xxxxxxxx"}
//! ```
//!
//! `seq` counts lines from 0 and `crc` is the CRC-32 (IEEE) of every
//! byte of the line before the `, "crc"` trailer. A flipped byte
//! *anywhere* in the file — not just a torn final line — is therefore
//! detected and reported with its line number as
//! [`JournalError::Corrupt`]; a duplicated or dropped line breaks the
//! sequence the same way. Only the final line may be unparseable
//! (a torn write from a kill): an append-only writer can tear nothing
//! else. The writer flushes its sink after every event, so wrapping
//! the journal file in [`SyncFile`] makes every event line an fsynced
//! checkpoint boundary.
//!
//! A **`snapshot`** event (written by [`compact`]) collapses an entire
//! journal prefix — steps, rounds, counters, cache entries, and the
//! beam — into one resumable line.
//!
//! [`crate::Explorer::resume`] replays the journal — preloading the
//! evaluation cache, restoring steps, rounds, counters, and the beam — and
//! continues the run, producing a final [`crate::Trace`] that is
//! `semantic_eq` to the uninterrupted run's.
//!
//! Transient errors ([`EvalError::is_transient`]) are never journaled,
//! mirroring the cache policy: a resumed run re-evaluates them.

use crate::eval::{EvalError, Evaluation, KernelRun, Metrics};
use crate::explore::{Counters, EvalCache, Explorer, FrontierRound, Objective, Step, Strategy};
use gensim::Stats;
use isdl::model::{FieldId, NtId, OpRef};
use isdl::Machine;
use obs::Json;
use std::collections::HashMap;
use std::fmt;
use std::io;

/// Schema identifier of the journal line format. Bump the suffix on
/// breaking changes.
pub const JOURNAL_SCHEMA: &str = "archex-journal/2";

/// Why journaling or resuming failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// Writing a journal line failed.
    Io(String),
    /// A complete journal line failed to parse (1-based line number).
    Parse {
        /// 1-based line number within the journal.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A journal line failed its integrity check — a CRC mismatch or a
    /// broken sequence number. The file is corrupt at that line and
    /// must not be resumed.
    Corrupt {
        /// 1-based line number within the journal.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The journal does not belong to this explorer configuration and
    /// starting machine.
    Mismatch(String),
    /// The (possibly resumed) run itself failed on its starting
    /// candidate.
    Eval(EvalError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(m) => write!(f, "journal write failed: {m}"),
            Self::Parse { line, message } => {
                write!(f, "journal line {line} does not parse: {message}")
            }
            Self::Corrupt { line, message } => {
                write!(f, "journal line {line} is corrupt: {message}")
            }
            Self::Mismatch(m) => write!(f, "journal does not match this run: {m}"),
            Self::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<EvalError> for JournalError {
    fn from(e: EvalError) -> Self {
        Self::Eval(e)
    }
}

/// A [`std::fs::File`] wrapper whose `flush` is a full
/// [`std::fs::File::sync_all`]. The journal writer flushes its sink at
/// every event boundary, so journaling through a `SyncFile` makes each
/// event line durable on disk before the run continues — a kill (or
/// power cut) immediately after a round can no longer lose it.
pub struct SyncFile(pub std::fs::File);

impl io::Write for SyncFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

/// The structural-hash spelling used in headers (hex, not JSON
/// numbers — a 64-bit hash does not fit `f64` exactly).
fn start_hash(machine: &Machine) -> String {
    format!("{:016x}", EvalCache::structural_hash(machine))
}

/// The journal spelling of a strategy.
fn strategy_name(s: &Strategy) -> &'static str {
    match s {
        Strategy::Greedy => "greedy",
        Strategy::Beam { .. } => "beam",
    }
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), bitwise — the journal
/// envelope needs integrity, not speed.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

fn stats_to_json(s: &Stats) -> Json {
    Json::obj()
        .with("cycles", s.cycles)
        .with("instructions", s.instructions)
        .with("stall_cycles", s.stall_cycles)
        .with("field_busy", s.field_busy.iter().map(|&n| Json::from(n)).collect::<Json>())
}

fn kernel_run_to_json(k: &KernelRun) -> Json {
    let mut op_counts: Vec<(OpRef, u64)> = k.op_counts.iter().map(|(&r, &n)| (r, n)).collect();
    op_counts.sort_unstable();
    let mut nt_counts: Vec<((NtId, usize), u64)> =
        k.nt_option_counts.iter().map(|(&r, &n)| (r, n)).collect();
    nt_counts.sort_unstable();
    Json::obj()
        .with("name", k.name.as_str())
        .with("stats", stats_to_json(&k.stats))
        .with(
            "op_counts",
            op_counts
                .into_iter()
                .map(|(r, n)| {
                    Json::Arr(vec![Json::from(r.field.0), Json::from(r.op), Json::from(n)])
                })
                .collect::<Json>(),
        )
        .with(
            "nt_options",
            nt_counts
                .into_iter()
                .map(|((nt, o), n)| Json::Arr(vec![Json::from(nt.0), Json::from(o), Json::from(n)]))
                .collect::<Json>(),
        )
}

/// An [`Evaluation`] as JSON. The netlist cross-check's stats are not
/// serialized and come back `null` from [`evaluation_from_json`].
fn evaluation_to_json(ev: &Evaluation) -> Json {
    Json::obj()
        .with("metrics", ev.metrics.to_json())
        .with("kernels", ev.kernel_stats.iter().map(kernel_run_to_json).collect::<Json>())
        .with("profile", ev.profile.clone())
}

/// Cache entries committed during one journaled unit of work:
/// key = canonical ISDL text, outcome = evaluation or permanent error.
pub(crate) type JournalEntries = Vec<(String, Result<Evaluation, EvalError>)>;

fn outcome_to_json(key: &str, outcome: &Result<Evaluation, EvalError>) -> Json {
    let j = Json::obj().with("key", key);
    match outcome {
        Ok(ev) => j.with("ok", evaluation_to_json(ev)),
        Err(e) => j.with("err", e.to_string()),
    }
}

fn entries_to_json(entries: &JournalEntries) -> Json {
    entries.iter().map(|(k, o)| outcome_to_json(k, o)).collect()
}

fn step_to_json(step: &Step) -> Json {
    Json::obj()
        .with("action", step.action.as_str())
        .with("score", step.score)
        .with("metrics", step.metrics.to_json())
        .with("profile", step.profile.clone())
}

fn round_to_json(r: &FrontierRound) -> Json {
    Json::obj()
        .with("proposed", r.proposed)
        .with("unique", r.unique)
        .with("fresh", r.fresh)
        .with("cache_hits", r.cache_hits)
}

/// Appends the beam to an event object as canonical ISDL: its best
/// machine under `machine` (`null` for an empty beam) and, only when it
/// holds more than one, the runners-up under `beam`.
fn with_beam<'m>(j: Json, mut beam: impl Iterator<Item = &'m Machine>) -> Json {
    let j = j.with("machine", beam.next().map_or(Json::Null, |m| isdl::printer::print(m).into()));
    let rest: Vec<Json> = beam.map(|m| isdl::printer::print(m).into()).collect();
    if rest.is_empty() {
        j
    } else {
        j.with("beam", Json::Arr(rest))
    }
}

/// Appends the cumulative run counters to an event object.
fn with_counters(j: Json, c: &Counters) -> Json {
    let mut histogram = Json::obj();
    for (kind, n) in &c.error_histogram {
        histogram.insert(kind, *n);
    }
    j.with("evaluated", c.evaluated)
        .with("cache_hits", c.cache_hits)
        .with("skipped", c.skipped_errors)
        .with("first_error", c.first_error.as_deref().map_or(Json::Null, Json::from))
        .with("attempts", c.attempts)
        .with("retried", c.retried)
        .with("error_histogram", histogram)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streams journal events to a sink, one enveloped JSON line each.
pub(crate) struct JournalWriter<'a> {
    sink: &'a mut dyn io::Write,
    /// Sequence number of the next line.
    seq: u64,
}

impl<'a> JournalWriter<'a> {
    pub(crate) fn new(sink: &'a mut dyn io::Write) -> Self {
        Self { sink, seq: 0 }
    }

    /// A writer continuing a journal whose first `seq` lines (the
    /// checkpoint prefix) were already written to the sink.
    pub(crate) fn resuming(sink: &'a mut dyn io::Write, seq: u64) -> Self {
        Self { sink, seq }
    }

    /// How many lines this writer has produced so far.
    pub(crate) fn lines_written(&self) -> u64 {
        self.seq
    }

    /// Writes one event inside the integrity envelope and flushes
    /// the sink — every event is a checkpoint boundary (with
    /// [`SyncFile`], an fsynced one).
    fn write(&mut self, data: &Json) -> Result<(), JournalError> {
        obs::flight::note(
            "archex.journal",
            data.get_str("event").unwrap_or("header"),
            Json::obj().with("seq", self.seq),
        );
        let prefix = format!("{{\"seq\": {}, \"data\": {data}", self.seq);
        let crc = crc32(prefix.as_bytes());
        writeln!(self.sink, "{prefix}, \"crc\": \"{crc:08x}\"}}")
            .map_err(|e| JournalError::Io(e.to_string()))?;
        self.seq += 1;
        self.sink.flush().map_err(|e| JournalError::Io(e.to_string()))
    }

    pub(crate) fn header(
        &mut self,
        explorer: &Explorer,
        start: &Machine,
    ) -> Result<(), JournalError> {
        let mut j = Json::obj()
            .with("schema", JOURNAL_SCHEMA)
            .with("machine", start.name.as_str())
            .with("strategy", strategy_name(&explorer.strategy));
        if let Strategy::Beam { .. } = explorer.strategy {
            j.insert("width", explorer.strategy.width());
        }
        let j = j
            .with("max_steps", explorer.max_steps)
            .with("max_attempts", explorer.retry.max_attempts)
            .with(
                "objective",
                Json::obj()
                    .with("runtime", explorer.objective.runtime)
                    .with("area", explorer.objective.area)
                    .with("power", explorer.objective.power),
            )
            .with("start", start_hash(start));
        self.write(&j)
    }

    pub(crate) fn init(
        &mut self,
        counters: &Counters,
        entries: &JournalEntries,
        step: &Step,
    ) -> Result<(), JournalError> {
        let j = with_counters(Json::obj().with("event", "init"), counters)
            .with("entries", entries_to_json(entries))
            .with("step", step_to_json(step));
        self.write(&j)
    }

    pub(crate) fn round(
        &mut self,
        round: &FrontierRound,
        counters: &Counters,
        entries: &JournalEntries,
        accepted: Option<(&Step, &[(Machine, Evaluation)])>,
    ) -> Result<(), JournalError> {
        let j = with_counters(
            Json::obj().with("event", "round").with("round", round_to_json(round)),
            counters,
        )
        .with("entries", entries_to_json(entries))
        .with(
            "accepted",
            accepted.map_or(Json::Null, |(step, beam)| {
                with_beam(step_to_json(step), beam.iter().map(|(m, _)| m))
            }),
        );
        self.write(&j)
    }

    /// Writes the whole replayed state as one `snapshot` event: the
    /// prefix of a resumed run's continuation journal, or the body of
    /// a [`compact`]ed one.
    pub(crate) fn snapshot(&mut self, replay: &Replay) -> Result<(), JournalError> {
        let j = with_counters(Json::obj().with("event", "snapshot"), &replay.counters)
            .with("steps", replay.steps.iter().map(step_to_json).collect::<Json>())
            .with("rounds", replay.rounds.iter().map(round_to_json).collect::<Json>())
            .with("entries", entries_to_json(&replay.entries));
        let j = with_beam(j, replay.beam.iter()).with("finished", Json::Bool(replay.finished));
        self.write(&j)
    }

    pub(crate) fn done(&mut self) -> Result<(), JournalError> {
        self.write(&Json::obj().with("event", "done"))
    }
}

/// Collapses a journal — finished or not — into an equivalent two-line
/// journal: its header plus one `snapshot` event holding the replayed
/// steps, rounds, counters, cache entries, and current machine.
/// Resuming the compacted journal produces the same final trace as
/// resuming the original.
///
/// Exposed on the CLI as `isdlc journal compact`.
///
/// # Errors
///
/// Exactly the parse-side errors of [`crate::Explorer::resume`]
/// (corrupt or malformed journals are never compacted), except that no
/// explorer/start validation is performed — compaction does not need
/// to know the run's configuration.
pub fn compact(journal: &str) -> Result<String, JournalError> {
    let mut events = parse_lines(journal)?.into_iter();
    let Some((header_line, header)) = events.next() else {
        return Err(JournalError::Mismatch("journal is empty".to_owned()));
    };
    check_schema(&header).map_err(|message| JournalError::Parse { line: header_line, message })?;
    let replay = fold_events(events)?;
    if replay.steps.is_empty() {
        return Err(JournalError::Mismatch(
            "journal records no initial evaluation; nothing to compact".to_owned(),
        ));
    }
    let mut out: Vec<u8> = Vec::new();
    let mut writer = JournalWriter::new(&mut out);
    writer.write(&header)?;
    writer.snapshot(&replay)?;
    Ok(String::from_utf8(out).expect("journal lines are UTF-8"))
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// The state reconstructed from a journal: everything
/// [`crate::Explorer::resume`] needs to continue (or finish) the run.
#[derive(Default)]
pub(crate) struct Replay {
    pub steps: Vec<Step>,
    pub rounds: Vec<FrontierRound>,
    pub counters: Counters,
    /// Cache entries to preload, in journal order.
    pub entries: JournalEntries,
    /// The beam the run had moved to, best first. Empty while the run
    /// never moved off its start: [`Replay::parse_partial`] fills in
    /// the starting machine, [`compact`] — which has none — keeps it
    /// empty.
    pub beam: Vec<Machine>,
    /// Whether the journaled run had already finished (a `done` event
    /// or a round that accepted nothing).
    pub finished: bool,
}

fn get_usize(j: &Json, key: &str) -> Result<usize, String> {
    j.get_u64(key).map(|n| n as usize).ok_or_else(|| format!("missing number `{key}`"))
}

fn metrics_from_json(j: &Json) -> Result<Metrics, String> {
    let u = |k: &str| j.get_u64(k).ok_or_else(|| format!("missing metric `{k}`"));
    let f = |k: &str| j.get_f64(k).ok_or_else(|| format!("missing metric `{k}`"));
    Ok(Metrics {
        cycles: u("cycles")?,
        instructions: u("instructions")?,
        stall_cycles: u("stall_cycles")?,
        cycle_ns: f("cycle_ns")?,
        runtime_us: f("runtime_us")?,
        area_cells: f("area_cells")?,
        power_mw: f("power_mw")?,
        lines_of_verilog: u("lines_of_verilog")? as usize,
    })
}

fn stats_from_json(j: &Json) -> Result<Stats, String> {
    let u = |k: &str| j.get_u64(k).ok_or_else(|| format!("missing stat `{k}`"));
    let busy = j
        .get("field_busy")
        .and_then(Json::as_arr)
        .ok_or("missing `field_busy`")?
        .iter()
        .map(|v| v.as_u64().ok_or("non-numeric field_busy entry".to_string()))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(Stats {
        cycles: u("cycles")?,
        instructions: u("instructions")?,
        stall_cycles: u("stall_cycles")?,
        field_busy: busy,
    })
}

fn triples(j: &Json, key: &str) -> Result<Vec<(u64, u64, u64)>, String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array `{key}`"))?
        .iter()
        .map(|t| {
            let t = t.as_arr().filter(|t| t.len() == 3).ok_or("malformed count triple")?;
            Ok((
                t[0].as_u64().ok_or("non-numeric triple")?,
                t[1].as_u64().ok_or("non-numeric triple")?,
                t[2].as_u64().ok_or("non-numeric triple")?,
            ))
        })
        .collect()
}

fn kernel_run_from_json(j: &Json) -> Result<KernelRun, String> {
    let name = j.get_str("name").ok_or("missing kernel `name`")?.to_owned();
    let stats = stats_from_json(j.get("stats").ok_or("missing kernel `stats`")?)?;
    let op_counts: HashMap<OpRef, u64> = triples(j, "op_counts")?
        .into_iter()
        .map(|(f, o, n)| (OpRef { field: FieldId(f as usize), op: o as usize }, n))
        .collect();
    let nt_option_counts: HashMap<(NtId, usize), u64> = triples(j, "nt_options")?
        .into_iter()
        .map(|(nt, o, n)| ((NtId(nt as usize), o as usize), n))
        .collect();
    Ok(KernelRun { name, stats, op_counts, nt_option_counts })
}

fn evaluation_from_json(j: &Json) -> Result<Evaluation, String> {
    let metrics = metrics_from_json(j.get("metrics").ok_or("missing `metrics`")?)?;
    let kernel_stats = j
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or("missing `kernels`")?
        .iter()
        .map(kernel_run_from_json)
        .collect::<Result<Vec<KernelRun>, String>>()?;
    // `profile` is optional: journals written before the profiler
    // existed resume without it. Keys not read here, such as the `opt`
    // block older writers recorded, are ignored.
    let profile = j.get("profile").cloned().unwrap_or(Json::Null);
    Ok(Evaluation { metrics, kernel_stats, profile, netlist_stats: Json::Null })
}

fn entries_from_json(j: &Json) -> Result<JournalEntries, String> {
    j.get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing `entries`")?
        .iter()
        .map(|e| {
            let key = e.get_str("key").ok_or("entry missing `key`")?.to_owned();
            let outcome = if let Some(ok) = e.get("ok") {
                Ok(evaluation_from_json(ok)?)
            } else {
                let msg = e.get_str("err").ok_or("entry has neither `ok` nor `err`")?;
                Err(EvalError::Journaled(msg.to_owned()))
            };
            Ok((key, outcome))
        })
        .collect()
}

fn step_from_json(j: &Json) -> Result<Step, String> {
    Ok(Step {
        action: j.get_str("action").ok_or("step missing `action`")?.to_owned(),
        score: j.get_f64("score").ok_or("step missing `score`")?,
        metrics: metrics_from_json(j.get("metrics").ok_or("step missing `metrics`")?)?,
        profile: j.get("profile").cloned().unwrap_or(Json::Null),
    })
}

fn round_from_json(r: &Json) -> Result<FrontierRound, String> {
    Ok(FrontierRound {
        proposed: get_usize(r, "proposed")?,
        unique: get_usize(r, "unique")?,
        fresh: get_usize(r, "fresh")?,
        cache_hits: get_usize(r, "cache_hits")?,
    })
}

/// The cumulative run counters of an `init`, `round`, or `snapshot`
/// event.
fn counters_from_json(j: &Json) -> Result<Counters, String> {
    let Some(Json::Obj(histogram)) = j.get("error_histogram") else {
        return Err("missing object `error_histogram`".to_owned());
    };
    Ok(Counters {
        evaluated: get_usize(j, "evaluated")?,
        cache_hits: get_usize(j, "cache_hits")?,
        skipped_errors: get_usize(j, "skipped")?,
        first_error: j.get_str("first_error").map(str::to_owned),
        attempts: get_usize(j, "attempts")?,
        retried: get_usize(j, "retried")?,
        error_histogram: histogram
            .iter()
            .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n as usize)))
            .collect(),
    })
}

/// The beam [`with_beam`] wrote: empty for a `null` machine.
fn beam_from_json(j: &Json) -> Result<Vec<Machine>, String> {
    let load = |text: &Json| {
        let text = text.as_str().ok_or("beam machine is not a string")?;
        isdl::load(text).map_err(|e| format!("beam machine does not load: {e}"))
    };
    let mut beam = match j.get("machine") {
        Some(Json::Null) | None => return Ok(Vec::new()),
        Some(best) => vec![load(best)?],
    };
    if let Some(rest) = j.get("beam") {
        for m in rest.as_arr().ok_or("`beam` is not an array")? {
            beam.push(load(m)?);
        }
    }
    Ok(beam)
}

fn check_schema(header: &Json) -> Result<(), String> {
    match header.get_str("schema").ok_or("missing `schema`")? {
        JOURNAL_SCHEMA => Ok(()),
        schema => Err(format!("schema `{schema}`, expected `{JOURNAL_SCHEMA}`")),
    }
}

fn check_header(header: &Json, explorer: &Explorer, start: &Machine) -> Result<(), String> {
    check_schema(header)?;
    let strategy = header.get_str("strategy").ok_or("missing `strategy`")?;
    if strategy != strategy_name(&explorer.strategy) {
        return Err(format!(
            "journal was written by a `{strategy}` run, this explorer is `{}`",
            strategy_name(&explorer.strategy)
        ));
    }
    if let Strategy::Beam { .. } = explorer.strategy {
        let width = get_usize(header, "width")?;
        if width != explorer.strategy.width() {
            return Err(format!(
                "journal beam width {width} != explorer {}",
                explorer.strategy.width()
            ));
        }
    }
    let steps = get_usize(header, "max_steps")?;
    if steps != explorer.max_steps {
        return Err(format!("journal max_steps {steps} != explorer {}", explorer.max_steps));
    }
    let attempts = get_usize(header, "max_attempts")?;
    if attempts != explorer.retry.max_attempts {
        return Err(format!(
            "journal max_attempts {attempts} != explorer {}",
            explorer.retry.max_attempts
        ));
    }
    let obj = header.get("objective").ok_or("missing `objective`")?;
    let journaled = Objective {
        runtime: obj.get_f64("runtime").ok_or("missing objective weight")?,
        area: obj.get_f64("area").ok_or("missing objective weight")?,
        power: obj.get_f64("power").ok_or("missing objective weight")?,
    };
    if journaled != explorer.objective {
        return Err("objective weights differ".to_owned());
    }
    let hash = header.get_str("start").ok_or("missing `start` hash")?;
    if hash != start_hash(start) {
        return Err("starting machine differs from the journaled run's".to_owned());
    }
    Ok(())
}

/// Splits a journal into `(line number, event)` pairs, verifying every
/// line's integrity envelope: its CRC must match its content and the
/// sequence numbers must count 0, 1, 2, … — any violation, including a
/// line with no envelope at all, is [`JournalError::Corrupt`] with the
/// line number. An unparseable *final* line is tolerated as a torn
/// write from a kill; anywhere else it is [`JournalError::Parse`].
fn parse_lines(journal: &str) -> Result<Vec<(usize, Json)>, JournalError> {
    let lines: Vec<(usize, &str)> = journal
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut events = Vec::with_capacity(lines.len());
    for (idx, (line_no, text)) in lines.iter().enumerate() {
        let line = *line_no;
        let j = match Json::parse(text) {
            Ok(j) => j,
            // The final line may be a torn write from a kill;
            // everything before it must be intact.
            Err(_) if idx + 1 == lines.len() => break,
            Err(message) => return Err(JournalError::Parse { line, message }),
        };
        // Corruption is a post-mortem situation by definition — attach
        // a flight dump so the operator sees what the process was doing
        // when it hit the bad line.
        let corrupt = |message: String| JournalError::Corrupt {
            line,
            message: format!("{message} [{}]", obs::flight::capture("journal_corrupt")),
        };
        let seq = j
            .get_u64("seq")
            .ok_or_else(|| corrupt(format!("no `seq`: not an `{JOURNAL_SCHEMA}` envelope")))?;
        let stated =
            j.get_str("crc").ok_or_else(|| corrupt("envelope missing `crc`".to_owned()))?;
        let data =
            j.get("data").cloned().ok_or_else(|| corrupt("envelope missing `data`".to_owned()))?;
        // The CRC covers the raw bytes of the line before the
        // `, "crc"` trailer — exactly what the writer hashed, no
        // re-rendering involved.
        let trailer =
            text.rfind(", \"crc\": \"").ok_or_else(|| corrupt("missing crc trailer".to_owned()))?;
        let computed = crc32(&text.as_bytes()[..trailer]);
        if u32::from_str_radix(stated, 16) != Ok(computed) {
            return Err(corrupt(format!(
                "CRC mismatch: line says {stated}, content hashes to {computed:08x}"
            )));
        }
        if seq != idx as u64 {
            return Err(corrupt(format!("sequence broken: expected {idx}, found {seq}")));
        }
        events.push((line, data));
    }
    Ok(events)
}

/// Folds the event lines after the header into a [`Replay`].
fn fold_events(events: impl Iterator<Item = (usize, Json)>) -> Result<Replay, JournalError> {
    let mut replay = Replay::default();
    for (line, j) in events {
        let fail = |message: String| JournalError::Parse { line, message };
        let field = |key: &str| j.get(key).ok_or_else(|| fail(format!("missing `{key}`")));
        match j.get_str("event") {
            Some("init") => {
                replay.counters = counters_from_json(&j).map_err(fail)?;
                replay.entries.extend(entries_from_json(&j).map_err(fail)?);
                replay.steps.push(step_from_json(field("step")?).map_err(fail)?);
            }
            Some("round") => {
                replay.rounds.push(round_from_json(field("round")?).map_err(fail)?);
                replay.counters = counters_from_json(&j).map_err(fail)?;
                replay.entries.extend(entries_from_json(&j).map_err(fail)?);
                match field("accepted")? {
                    Json::Null => replay.finished = true,
                    acc => {
                        replay.steps.push(step_from_json(acc).map_err(fail)?);
                        replay.beam = beam_from_json(acc).map_err(fail)?;
                        if replay.beam.is_empty() {
                            return Err(fail("accepted step missing `machine`".to_owned()));
                        }
                    }
                }
            }
            Some("snapshot") => {
                let list = |key: &str| {
                    field(key)?
                        .as_arr()
                        .ok_or_else(|| fail(format!("snapshot `{key}` is not a list")))
                };
                replay.steps = list("steps")?
                    .iter()
                    .map(step_from_json)
                    .collect::<Result<Vec<Step>, String>>()
                    .map_err(fail)?;
                replay.rounds = list("rounds")?
                    .iter()
                    .map(round_from_json)
                    .collect::<Result<Vec<FrontierRound>, String>>()
                    .map_err(fail)?;
                replay.counters = counters_from_json(&j).map_err(fail)?;
                replay.entries = entries_from_json(&j).map_err(fail)?;
                replay.beam = beam_from_json(&j).map_err(fail)?;
                replay.finished = matches!(j.get("finished"), Some(Json::Bool(true)));
            }
            Some("done") => replay.finished = true,
            Some(other) => return Err(fail(format!("unknown event `{other}`"))),
            None => return Err(fail("event line without `event`".to_owned())),
        }
    }
    Ok(replay)
}

impl Replay {
    /// Parses and validates `journal` against the explorer
    /// configuration and starting machine. A partial trailing line is
    /// ignored (the writing run was killed mid-write); any other
    /// malformed line is an error, and any integrity violation —
    /// anywhere — is [`JournalError::Corrupt`].
    pub(crate) fn parse(
        journal: &str,
        explorer: &Explorer,
        start: &Machine,
    ) -> Result<Self, JournalError> {
        Self::parse_partial(journal, explorer, start)?.ok_or_else(|| {
            JournalError::Mismatch(
                "journal records no initial evaluation; nothing to resume".to_owned(),
            )
        })
    }

    /// Like [`Replay::parse`], but tolerates a journal that holds no
    /// usable checkpoint yet — empty, a torn first line, or a
    /// header-only stub from a run killed before its `init` event —
    /// returning `Ok(None)` so the caller can start fresh instead.
    /// Corruption, malformed interior lines, and a header that belongs
    /// to a *different* run remain errors: those journals must never be
    /// silently replaced.
    pub(crate) fn parse_partial(
        journal: &str,
        explorer: &Explorer,
        start: &Machine,
    ) -> Result<Option<Self>, JournalError> {
        let mut events = parse_lines(journal)?.into_iter();
        let Some((header_line, header)) = events.next() else {
            return Ok(None);
        };
        check_header(&header, explorer, start).map_err(|message| {
            if header.get_str("schema").is_some() {
                JournalError::Mismatch(message)
            } else {
                JournalError::Parse { line: header_line, message }
            }
        })?;
        let mut replay = fold_events(events)?;
        if replay.steps.is_empty() {
            return Ok(None);
        }
        if replay.beam.is_empty() {
            replay.beam.push(start.clone());
        }
        Ok(Some(replay))
    }
}
