//! Architecture exploration by iterative improvement (Figure 1).
//!
//! Starting from a candidate description, the explorer evaluates it,
//! derives improvement *mutations* from the measured utilization
//! statistics, evaluates every feasible neighbour, keeps the best
//! improving one, and repeats until no mutation helps — the paper's
//! "process repeated until no further improvements can be made".
//!
//! The mutation set reflects what the single-description methodology
//! makes cheap (§4.1: "the granularity at which changes can be made is
//! much finer"):
//!
//! * **remove an unused operation** — decode logic and its datapath
//!   nodes disappear;
//! * **remove an idle field** — a whole issue slot and its units go;
//! * **add a `forbid` constraint** between operations the workload
//!   never issues together — the constraint *proves* exclusivity to
//!   the resource-sharing pass, shrinking the datapath at zero
//!   performance cost (§4.1.2's rule-4 refinement in action).

use crate::compiler::Kernel;
use crate::eval::{evaluate_contained, EvalError, EvalOptions, Evaluation, Metrics, SimBudget};
use crate::fault::FaultPlan;
use crate::journal::{JournalError, JournalWriter, Replay};
use crate::watchdog::Deadline;
use hgen::HgenOptions;
use isdl::model::{Constraint, FieldId, Machine, NtId, OpRef};
use obs::{Gauge, Histogram, Json, Registry, Summary};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Relative weights of the objective (log-space weighted sum, lower is
/// better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Weight of workload runtime.
    pub runtime: f64,
    /// Weight of die size.
    pub area: f64,
    /// Weight of power.
    pub power: f64,
}

impl Default for Objective {
    fn default() -> Self {
        Self { runtime: 1.0, area: 1.0, power: 0.25 }
    }
}

impl Objective {
    /// The candidate's score — a weighted geometric mean in log space,
    /// so a 10% runtime win trades transparently against a 10% area
    /// win.
    #[must_use]
    pub fn score(&self, m: &Metrics) -> f64 {
        self.runtime * m.runtime_us.max(1e-9).ln()
            + self.area * m.area_cells.max(1e-9).ln()
            + self.power * m.power_mw.max(1e-9).ln()
    }
}

/// A candidate-to-candidate edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Drop one operation from its field.
    RemoveOp(OpRef),
    /// Drop a whole field.
    RemoveField(FieldId),
    /// Add `forbid a, b` so the sharing pass may merge their hardware.
    ForbidPair(OpRef, OpRef),
    /// Drop an unused addressing-mode option from a non-terminal —
    /// its decode lines, value mux arm, and memory port disappear.
    RemoveNtOption(NtId, usize),
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RemoveOp(r) => write!(f, "remove op {r}"),
            Self::RemoveField(fid) => write!(f, "remove field #{}", fid.0),
            Self::ForbidPair(a, b) => write!(f, "forbid {a} with {b}"),
            Self::RemoveNtOption(nt, o) => write!(f, "remove option #{o} of nt#{}", nt.0),
        }
    }
}

/// Applies a mutation, returning the edited machine (or `None` when
/// the edit is structurally impossible).
#[must_use]
pub fn apply_mutation(machine: &Machine, m: &Mutation) -> Option<Machine> {
    let mut out = machine.clone();
    match m {
        Mutation::RemoveOp(r) => {
            let field = out.fields.get_mut(r.field.0)?;
            if r.op >= field.ops.len() || field.ops.len() == 1 {
                return None;
            }
            // Never remove the nop — the assembler default needs it.
            if field.nop == Some(r.op) {
                return None;
            }
            field.ops.remove(r.op);
            if let Some(n) = field.nop {
                if n > r.op {
                    field.nop = Some(n - 1);
                }
            }
            remap_op_refs(&mut out, |x| {
                if x.field == r.field {
                    match x.op.cmp(&r.op) {
                        std::cmp::Ordering::Less => Some(x),
                        std::cmp::Ordering::Equal => None,
                        std::cmp::Ordering::Greater => Some(OpRef { field: x.field, op: x.op - 1 }),
                    }
                } else {
                    Some(x)
                }
            });
            Some(out)
        }
        Mutation::RemoveField(fid) => {
            if out.fields.len() <= 1 || fid.0 >= out.fields.len() {
                return None;
            }
            out.fields.remove(fid.0);
            remap_op_refs(&mut out, |x| {
                use std::cmp::Ordering::*;
                match x.field.0.cmp(&fid.0) {
                    Less => Some(x),
                    Equal => None,
                    Greater => Some(OpRef { field: FieldId(x.field.0 - 1), op: x.op }),
                }
            });
            Some(out)
        }
        Mutation::ForbidPair(a, b) => {
            if a.field == b.field {
                return None; // already exclusive
            }
            let c = Constraint::Forbid(vec![*a, *b]);
            if out.constraints.contains(&c) {
                return None;
            }
            out.constraints.push(c);
            Some(out)
        }
        Mutation::RemoveNtOption(nt, option) => {
            let ntd = out.nonterminals.get_mut(nt.0)?;
            if *option >= ntd.options.len() || ntd.options.len() <= 1 {
                return None;
            }
            ntd.options.remove(*option);
            Some(out)
        }
    }
}

/// Rewrites every [`OpRef`] in constraints and share hints; entries
/// whose mapping returns `None` are dropped.
fn remap_op_refs(machine: &mut Machine, f: impl Fn(OpRef) -> Option<OpRef>) {
    machine.constraints.retain_mut(|c| match c {
        Constraint::Forbid(ops) => {
            let mapped: Option<Vec<OpRef>> = ops.iter().map(|&r| f(r)).collect();
            match mapped {
                Some(v) => {
                    *ops = v;
                    true
                }
                None => false,
            }
        }
        // General assertions over a removed op become stale; drop them.
        Constraint::Assert(e) => cexpr_ops(e).iter().all(|&r| f(r).is_some()),
    });
    // Remap the surviving assert expressions and hints.
    for c in &mut machine.constraints {
        if let Constraint::Assert(e) = c {
            remap_cexpr(e, &f);
        }
    }
    machine.share_hints.retain_mut(|h| {
        let mapped: Option<Vec<OpRef>> = h.ops.iter().map(|&r| f(r)).collect();
        match mapped {
            Some(v) if v.len() >= 2 => {
                h.ops = v;
                true
            }
            _ => false,
        }
    });
}

fn cexpr_ops(e: &isdl::model::CExpr) -> Vec<OpRef> {
    use isdl::model::CExpr::*;
    match e {
        Op(r) => vec![*r],
        Not(x) => cexpr_ops(x),
        And(a, b) | Or(a, b) => {
            let mut v = cexpr_ops(a);
            v.extend(cexpr_ops(b));
            v
        }
    }
}

fn remap_cexpr(e: &mut isdl::model::CExpr, f: &impl Fn(OpRef) -> Option<OpRef>) {
    use isdl::model::CExpr::*;
    match e {
        Op(r) => {
            if let Some(n) = f(*r) {
                *r = n;
            }
        }
        Not(x) => remap_cexpr(x, f),
        And(a, b) | Or(a, b) => {
            remap_cexpr(a, f);
            remap_cexpr(b, f);
        }
    }
}

/// One accepted step of the exploration.
#[derive(Debug, Clone)]
pub struct Step {
    /// What was changed ("initial" for the starting point).
    pub action: String,
    /// The measurements after the change.
    pub metrics: Metrics,
    /// The objective score (lower is better).
    pub score: f64,
    /// The accepted candidate's per-kernel profile summary
    /// ([`Evaluation::profile`]): top regions and stall PCs, or
    /// [`Json::Null`] when [`Explorer::instrument`] is off. Excluded
    /// from [`Step::semantic_eq`] — it is diagnostic, not part of the
    /// search result.
    pub profile: Json,
}

impl Step {
    /// Equality over the deterministic content of the step (action,
    /// score, and metrics).
    #[must_use]
    pub fn semantic_eq(&self, other: &Self) -> bool {
        self.action == other.action && self.score == other.score && self.metrics == other.metrics
    }
}

/// Deterministic accounting for one frontier round: how many
/// candidates were proposed, how many distinct structures they folded
/// to, and how the distinct ones were resolved.
///
/// Identical across thread counts — only proposal order, never worker
/// scheduling, feeds these numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrontierRound {
    /// Candidates proposed (after structurally impossible mutations
    /// were filtered out).
    pub proposed: usize,
    /// Distinct structures among them (first occurrences).
    pub unique: usize,
    /// Distinct structures evaluated from scratch this round.
    pub fresh: usize,
    /// Proposed candidates resolved from the cache, including
    /// within-frontier duplicates (`proposed - fresh`).
    pub cache_hits: usize,
}

/// One wall-clock span on the exploration timeline: a frontier round
/// or a single fresh candidate evaluation. Timestamps are microseconds
/// from the start of the run, ready for the Chrome trace-event export
/// ([`chrome_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span label, e.g. `"round 3"` or `"eval #7"`.
    pub name: String,
    /// Event category (`"explore"` for rounds, `"eval"` for
    /// evaluations).
    pub cat: String,
    /// Track the span renders on: 0 for the round loop, `1 + worker`
    /// for evaluations.
    pub tid: u64,
    /// Start offset from the beginning of the run, µs.
    pub start_us: u64,
    /// Span duration, µs.
    pub dur_us: u64,
}

impl SpanRec {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("cat", self.cat.as_str())
            .with("tid", self.tid)
            .with("ts_us", self.start_us)
            .with("dur_us", self.dur_us)
    }
}

/// Observability embedded in every [`Trace`] (see
/// `docs/OBSERVABILITY.md`, `archex-explore/1`).
///
/// The frontier rounds are deterministic; the latency summaries,
/// per-thread utilization, and wall time are measurements and vary
/// run to run. With [`Explorer::instrument`] off, the timing
/// summaries and wall time stay zeroed and no clock is ever read on
/// the evaluation path; the rounds and per-thread eval counts are
/// always recorded (one relaxed atomic add per multi-millisecond
/// evaluation).
#[derive(Debug, Clone, Default)]
pub struct ExploreObs {
    /// One entry per frontier evaluated, in round order (the initial
    /// candidate's evaluation is not a round).
    pub rounds: Vec<FrontierRound>,
    /// Latency of each from-scratch candidate evaluation
    /// (compile → simulate → synthesize), µs.
    pub eval_latency_us: Summary,
    /// Latency of cache lookups that found a stored outcome, µs.
    pub cache_hit_lookup_us: Summary,
    /// Latency of cache lookups that missed, µs.
    pub cache_miss_lookup_us: Summary,
    /// Fresh evaluation *attempts* performed by each worker slot,
    /// retries included; sums to [`Trace::attempts`]. Length is the
    /// resolved worker-pool size.
    pub thread_evals: Vec<u64>,
    /// Wall-clock spans of every frontier round and fresh evaluation,
    /// sorted by start time. Empty with [`Explorer::instrument`] off.
    /// Render with [`chrome_trace`]. Excluded from
    /// [`Trace::semantic_eq`] — spans are measurements.
    pub timeline: Vec<SpanRec>,
    /// Wall-clock time of the whole run, seconds.
    pub wall_s: f64,
    /// Heartbeats emitted to the [`Progress`] sinks; `0` when live
    /// telemetry is off. Wall-clock-driven, so excluded from
    /// [`Trace::semantic_eq`].
    pub heartbeats: u64,
    /// Flight-recorder dumps taken during the run
    /// ([`obs::flight::capture`]): contained panics, deadline
    /// expiries, netlist mismatches, journal corruption. Excluded from
    /// [`Trace::semantic_eq`].
    pub flight_dumps: u64,
}

impl ExploreObs {
    /// Total proposed candidates across all rounds.
    #[must_use]
    pub fn proposed(&self) -> usize {
        self.rounds.iter().map(|r| r.proposed).sum()
    }

    /// The observability block as JSON (the `obs` object of
    /// `archex-explore/1`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let rounds: Vec<Json> = self
            .rounds
            .iter()
            .map(|r| {
                Json::obj()
                    .with("proposed", r.proposed)
                    .with("unique", r.unique)
                    .with("fresh", r.fresh)
                    .with("cache_hits", r.cache_hits)
            })
            .collect();
        Json::obj()
            .with("rounds", Json::Arr(rounds))
            .with("eval_latency_us", self.eval_latency_us.to_json())
            .with("cache_hit_lookup_us", self.cache_hit_lookup_us.to_json())
            .with("cache_miss_lookup_us", self.cache_miss_lookup_us.to_json())
            .with(
                "thread_evals",
                Json::Arr(self.thread_evals.iter().map(|&n| Json::from(n)).collect()),
            )
            .with("timeline", self.timeline.iter().map(SpanRec::to_json).collect::<Json>())
            .with("wall_s", self.wall_s)
            .with("heartbeats", self.heartbeats)
            .with("flight_dumps", self.flight_dumps)
    }
}

/// The exploration result.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Accepted steps, starting with the initial evaluation.
    pub steps: Vec<Step>,
    /// The best machine found.
    pub machine: Machine,
    /// Candidates evaluated from scratch (full compile → simulate →
    /// synthesize passes, including the starting point).
    pub evaluated: usize,
    /// Candidates whose evaluation was reused from the cache — a
    /// structurally identical machine had already been measured, either
    /// in an earlier round or by another parent in the same frontier.
    pub cache_hits: usize,
    /// Candidates whose evaluation failed and were skipped. A large
    /// value relative to [`Trace::candidates_evaluated`] means "no
    /// improving mutation" may really be "every mutation breaks the
    /// toolchain" — check [`Trace::first_error`].
    pub skipped_errors: usize,
    /// The first evaluation error encountered, as
    /// `"<mutation>: <error>"` (`None` when every candidate evaluated).
    pub first_error: Option<String>,
    /// Fresh evaluation *attempts*, retries included (≥
    /// [`Trace::evaluated`]). Excluded from [`Trace::semantic_eq`]: a
    /// faulted-then-retried run must compare equal to a clean one.
    pub attempts: usize,
    /// Transient-failure retries performed under the explorer's
    /// [`RetryPolicy`] (`attempts - evaluated`). Excluded from
    /// [`Trace::semantic_eq`].
    pub retried: usize,
    /// Failed fresh evaluation attempts by error kind
    /// ([`EvalError::kind_name`]), retried transients and
    /// `deadline_exceeded` included. Cache-resolved error skips are not
    /// recounted — each failure is histogrammed when it actually runs.
    /// Excluded from [`Trace::semantic_eq`].
    pub error_histogram: BTreeMap<String, usize>,
    /// Observability: per-round frontier accounting, evaluation and
    /// cache-lookup latency summaries, per-thread utilization.
    pub obs: ExploreObs,
}

/// Schema identifier emitted by [`Trace::to_json`]. Bump the suffix on
/// breaking changes.
pub const EXPLORE_SCHEMA: &str = "archex-explore/1";

/// Schema identifier of one heartbeat line emitted to
/// [`Progress::jsonl`]. Bump the suffix on breaking changes.
pub const PROGRESS_SCHEMA: &str = "archex-progress/1";

impl Trace {
    /// Total candidates considered: fresh evaluations plus cache hits.
    #[must_use]
    pub fn candidates_evaluated(&self) -> usize {
        self.evaluated + self.cache_hits
    }

    /// Equality over everything deterministic in the trace: steps, the
    /// final machine, and all search counters. Two runs of the same
    /// exploration — at *any* thread count — must compare equal under
    /// this. The fault-exposure counters ([`Trace::attempts`],
    /// [`Trace::retried`], [`Trace::error_histogram`]) are excluded:
    /// they describe what the environment did to the run, not what the
    /// search found, and a retried run must compare equal to an
    /// undisturbed one.
    #[must_use]
    pub fn semantic_eq(&self, other: &Self) -> bool {
        self.steps.len() == other.steps.len()
            && self.steps.iter().zip(&other.steps).all(|(a, b)| a.semantic_eq(b))
            && self.machine == other.machine
            && self.evaluated == other.evaluated
            && self.cache_hits == other.cache_hits
            && self.skipped_errors == other.skipped_errors
            && self.first_error == other.first_error
            && self.obs.rounds == other.obs.rounds
    }

    /// The trace as a schema-versioned JSON object (`archex-explore/1`,
    /// reference-documented in `docs/OBSERVABILITY.md`): the accepted
    /// steps with their metrics, the run counters, and the
    /// observability block from [`Trace::obs`].
    #[must_use]
    pub fn to_json(&self) -> Json {
        let steps: Vec<Json> = self
            .steps
            .iter()
            .map(|s| {
                Json::obj()
                    .with("action", s.action.as_str())
                    .with("score", s.score)
                    .with("metrics", s.metrics.to_json())
                    .with("profile", s.profile.clone())
            })
            .collect();
        let mut histogram = Json::obj();
        for (kind, n) in &self.error_histogram {
            histogram.insert(kind, *n);
        }
        Json::obj()
            .with("schema", EXPLORE_SCHEMA)
            .with("machine", self.machine.name.as_str())
            .with("steps", Json::Arr(steps))
            .with("evaluated", self.evaluated)
            .with("cache_hits", self.cache_hits)
            .with("skipped_errors", self.skipped_errors)
            .with("first_error", self.first_error.as_deref().map_or(Json::Null, Json::from))
            .with("attempts", self.attempts)
            .with("retried", self.retried)
            .with("error_histogram", histogram)
            .with("obs", self.obs.to_json())
    }
}

/// Renders a trace's recorded timeline ([`ExploreObs::timeline`]) as a
/// Chrome trace-event document (`{"traceEvents": […]}`) loadable in
/// `chrome://tracing` or Perfetto: one complete event per frontier
/// round (track 0) and per fresh candidate evaluation (track
/// `1 + worker`), plus an instant marker per accepted step.
///
/// Runs with [`Explorer::instrument`] off record no spans; the
/// document then carries only the accepted-step markers at `ts` 0.
#[must_use]
pub fn chrome_trace(trace: &Trace) -> Json {
    let mut ct = obs::ChromeTrace::new();
    for s in &trace.obs.timeline {
        ct.complete(&s.name, &s.cat, s.tid, s.start_us, s.dur_us, Json::Null);
    }
    // Accepted steps as instant markers: placed at the end of their
    // round's span when one was recorded, at 0 otherwise. Step `i + 1`
    // was accepted by round `i` ("initial" is not a round).
    let round_end = |i: usize| {
        trace
            .obs
            .timeline
            .iter()
            .find(|s| s.cat == "explore" && s.name == format!("round {i}"))
            .map_or(0, |s| s.start_us + s.dur_us)
    };
    for (i, step) in trace.steps.iter().enumerate() {
        let ts = if i == 0 { 0 } else { round_end(i - 1) };
        let args = Json::obj().with("action", step.action.as_str()).with("score", step.score);
        ct.instant("accepted", "explore", 0, ts, args);
    }
    ct.to_json()
}

/// A concurrency-safe memo of candidate evaluations.
///
/// Keys are the machine's canonical printed ISDL text
/// ([`isdl::printer::print`]), whose round trip is exact — two machines
/// share a key if and only if they are structurally equal, so a hit
/// can never alias two different candidates (unlike a bare 64-bit
/// hash). The cache may be shared across [`Explorer::run_cached`]
/// calls to memoize evaluations across whole explorations.
#[derive(Debug, Default)]
pub struct EvalCache {
    entries: Mutex<HashMap<String, Result<Evaluation, EvalError>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical cache key for `machine`.
    #[must_use]
    pub fn key(machine: &Machine) -> String {
        isdl::printer::print(machine)
    }

    /// A 64-bit structural hash of `machine` (a digest of [`Self::key`];
    /// useful for logging and frontier diagnostics).
    #[must_use]
    pub fn structural_hash(machine: &Machine) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        Self::key(machine).hash(&mut h);
        h.finish()
    }

    /// Looks up a previously stored outcome, counting a hit or miss.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Result<Evaluation, EvalError>> {
        let found = self.entries.lock().expect("cache lock never poisoned").get(key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores the outcome of evaluating the machine with key `key`.
    pub fn insert(&self, key: String, outcome: Result<Evaluation, EvalError>) {
        self.entries.lock().expect("cache lock never poisoned").insert(key, outcome);
    }

    /// Number of stored outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock never poisoned").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found a stored outcome.
    #[must_use]
    pub fn hit_count(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn miss_count(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Deterministic in-run retry policy for *transient* evaluation errors
/// (contained panics, exhausted fuel budgets, exceeded wall-clock
/// deadlines — see [`EvalError::is_transient`]).
///
/// Retries are keyed to the proposal-order fresh-evaluation sequence
/// number, never to worker scheduling, so a run with retries produces
/// the same [`Trace`] (under [`Trace::semantic_eq`]) at every thread
/// count: every attempt of evaluation `seq` sees the same fault-plan
/// clock, and the per-candidate outcome is the outcome of the last
/// attempt regardless of which worker ran it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per fresh evaluation (≥ 1; `1` disables retry).
    /// Permanent errors are never retried.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 1 }
    }
}

/// How the candidate space is searched. Both strategies run the same
/// round loop; they differ only in how many candidates it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Steepest-descent hill climbing: evaluate every neighbour, take
    /// the best improving one (the paper's "iterative improvement").
    /// Exactly [`Strategy::Beam`] of width 1.
    Greedy,
    /// Beam search: carry the `width` best candidates forward each
    /// round, which can climb out of single-mutation dead ends at the
    /// cost of proportionally more evaluations.
    Beam {
        /// Number of candidates kept per round (≥ 1).
        width: usize,
    },
}

impl Strategy {
    /// Candidates carried between rounds: 1 for greedy.
    pub(crate) fn width(self) -> usize {
        match self {
            Self::Greedy => 1,
            Self::Beam { width } => width.max(1),
        }
    }
}

/// A live-progress sink: heartbeat lines are written under the mutex,
/// so one sink may be shared between the JSONL and human streams (or
/// with the caller's own logging).
pub type ProgressSink = Arc<Mutex<dyn std::io::Write + Send>>;

/// Live exploration telemetry: heartbeat cadence and where the beats
/// go. A heartbeat is emitted at the first round boundary after
/// [`Progress::interval_ms`] elapses (`0` = every round) — the cadence
/// rides the [`crate::watchdog`] timer, so no extra thread is spawned
/// and a beat never lands mid-round. Each beat carries the round
/// number, frontier size, evaluation/cache counters, throughput, the
/// retry/error histogram, and an ETA; see `archex-progress/1` in
/// `docs/OBSERVABILITY.md`.
///
/// Heartbeat counts are wall-clock-driven and therefore excluded from
/// every determinism contract: [`Trace::semantic_eq`] and journal
/// bytes never see them.
#[derive(Clone, Default)]
pub struct Progress {
    /// Minimum milliseconds between heartbeats; `0` emits one per
    /// round.
    pub interval_ms: u64,
    /// Receives one `archex-progress/1` JSON object per line.
    pub jsonl: Option<ProgressSink>,
    /// Receives a human one-liner per heartbeat (`isdlc explore
    /// --progress` points this at stderr).
    pub human: Option<ProgressSink>,
    /// When set, every heartbeat atomically rewrites this file (temp +
    /// rename) with the Prometheus text exposition of the run's
    /// registry ([`obs::prom::render`]) — ready for the node exporter's
    /// textfile collector.
    pub metrics_out: Option<std::path::PathBuf>,
}

impl std::fmt::Debug for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Progress")
            .field("interval_ms", &self.interval_ms)
            .field("jsonl", &self.jsonl.is_some())
            .field("human", &self.human.is_some())
            .field("metrics_out", &self.metrics_out)
            .finish()
    }
}

/// The exploration driver.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Objective weights.
    pub objective: Objective,
    /// HGEN configuration used for every evaluation.
    pub hgen: HgenOptions,
    /// Maximum frontier rounds; each accepts at most one step.
    pub max_steps: usize,
    /// Search strategy.
    pub strategy: Strategy,
    /// Worker threads evaluating the mutation frontier; `0` means one
    /// per available core. The result is bit-identical at every
    /// setting — workers only fill result slots, and the reduction
    /// runs serially in proposal order.
    pub threads: usize,
    /// Collect timing instrumentation ([`ExploreObs`] latency
    /// summaries and wall time). When `false` no clock is read on the
    /// evaluation path and the timing fields of [`Trace::obs`] stay
    /// zeroed; the deterministic round counters are always recorded.
    pub instrument: bool,
    /// Fuel budget applied to every kernel simulation (see
    /// [`SimBudget`]); candidates that exhaust it are skipped with
    /// [`EvalError::BudgetExhausted`] instead of hanging the run.
    pub budget: SimBudget,
    /// An armed fault for robustness tests (see [`FaultPlan`]): fires
    /// at the plan's fresh-evaluation sequence number. Sequence numbers
    /// are assigned in proposal order, so the same evaluation faults at
    /// every thread count. `None` in production.
    pub fault_plan: Option<FaultPlan>,
    /// Post-synthesis netlist cross-check applied to every fresh
    /// evaluation (see [`crate::eval::NetlistCheck`]). Off by default;
    /// turning it on makes every accepted step carry proof that the
    /// generated hardware matches the ILS bit-for-bit.
    pub netlist_check: crate::eval::NetlistCheck,
    /// Retry policy for transient evaluation errors (see
    /// [`RetryPolicy`]). The default performs no retries.
    pub retry: RetryPolicy,
    /// Wall-clock deadline per fresh evaluation attempt, milliseconds;
    /// `0` disables deadlines. A candidate that exceeds it is skipped
    /// with the transient [`EvalError::DeadlineExceeded`] — never
    /// cached, never journaled (see [`crate::watchdog`]).
    pub deadline_ms: u64,
    /// Cooperative shutdown flag (armed by a signal handler in
    /// `isdlc`). When it flips to `true`, the run finishes the
    /// in-flight round — including its journal checkpoint — and
    /// returns early without writing the journal's `done` event, so
    /// [`Explorer::resume`] continues bit-identically. `None` in
    /// library use.
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Live heartbeat telemetry (see [`Progress`]). `None` — the
    /// default — emits nothing and reads no extra clocks. Applies to
    /// every run: fresh, journaled, and resumed, at any beam width.
    pub progress: Option<Progress>,
}

impl Default for Explorer {
    fn default() -> Self {
        Self {
            objective: Objective::default(),
            hgen: HgenOptions::default(),
            max_steps: 16,
            strategy: Strategy::Greedy,
            threads: 0,
            instrument: true,
            budget: SimBudget::default(),
            fault_plan: None,
            netlist_check: crate::eval::NetlistCheck::default(),
            retry: RetryPolicy::default(),
            deadline_ms: 0,
            shutdown: None,
            progress: None,
        }
    }
}

/// The per-candidate outcomes of one frontier evaluation.
struct FrontierEval {
    /// One outcome per input candidate, in input order.
    outcomes: Vec<Result<Evaluation, EvalError>>,
    /// Whether each candidate is the first occurrence of its structure
    /// within this frontier (`false` marks within-frontier duplicates).
    first_occurrence: Vec<bool>,
    /// Candidates evaluated from scratch (≤ number of unique keys).
    fresh: usize,
    /// The cache entries this evaluation committed, in proposal order —
    /// fresh outcomes minus transient errors. This is exactly what a
    /// journal round must record to make resume bit-identical.
    committed: crate::journal::JournalEntries,
    /// Fresh evaluation attempts spent (≥ `fresh`; the excess is
    /// retries of transient failures under [`RetryPolicy`]).
    attempts: usize,
    /// [`EvalError::kind_name`] of every failed fresh attempt, folded
    /// in proposal order — feeds the run's error histogram.
    errors: Vec<&'static str>,
}

/// The resolution of one fresh candidate under the retry policy.
struct AttemptRecord {
    /// The last attempt's outcome — what the cache and reduction see.
    outcome: Result<Evaluation, EvalError>,
    /// Attempts spent (≥ 1).
    attempts: usize,
    /// [`EvalError::kind_name`] of every failed attempt, in order.
    errors: Vec<&'static str>,
}

impl FrontierEval {
    /// The [`FrontierRound`] accounting record for this evaluation.
    fn round(&self) -> FrontierRound {
        FrontierRound {
            proposed: self.outcomes.len(),
            unique: self.first_occurrence.iter().filter(|&&b| b).count(),
            fresh: self.fresh,
            cache_hits: self.outcomes.len() - self.fresh,
        }
    }
}

/// Live instrumentation for one exploration run; folded into
/// [`ExploreObs`] at the end.
struct RunObs {
    registry: Registry,
    eval_us: Arc<Histogram>,
    hit_us: Arc<Histogram>,
    miss_us: Arc<Histogram>,
    /// Last frontier size handed to [`Explorer::eval_frontier`].
    frontier: Arc<Gauge>,
    /// Outcomes stored in the evaluation cache.
    cache_entries: Arc<Gauge>,
    /// Worker-pool size of the most recent frontier fan-out.
    live_workers: Arc<Gauge>,
    /// Fresh evaluations per worker slot (slot 0 doubles as the inline
    /// single-worker path).
    thread_evals: Vec<AtomicU64>,
    /// Fresh-evaluation sequence numbers, assigned in proposal order
    /// before workers start — the trigger clock for
    /// [`Explorer::fault_plan`].
    seq: AtomicUsize,
    /// Heartbeats emitted to the [`Progress`] sinks.
    heartbeats: AtomicU64,
    /// Process-wide flight-dump count when the run started; the run's
    /// own dumps are the delta at [`RunObs::finish`].
    dumps_at_start: u64,
    /// Wall-clock spans (rounds and evaluations), recorded only when
    /// the registry is enabled; folded into [`ExploreObs::timeline`].
    timeline: Mutex<Vec<SpanRec>>,
    started: Instant,
}

impl RunObs {
    fn new(explorer: &Explorer) -> Self {
        let registry = if explorer.instrument { Registry::new() } else { Registry::disabled() };
        // The pool size an unbounded frontier would get; smaller
        // frontiers use a prefix of the slots.
        let pool = explorer.worker_count(usize::MAX);
        Self {
            eval_us: registry.histogram("explore.eval_latency_us"),
            hit_us: registry.histogram("explore.cache_hit_lookup_us"),
            miss_us: registry.histogram("explore.cache_miss_lookup_us"),
            frontier: registry.gauge("explore.frontier"),
            cache_entries: registry.gauge("explore.cache_entries"),
            live_workers: registry.gauge("explore.live_workers"),
            thread_evals: (0..pool).map(|_| AtomicU64::new(0)).collect(),
            seq: AtomicUsize::new(0),
            heartbeats: AtomicU64::new(0),
            dumps_at_start: obs::flight::dump_count(),
            timeline: Mutex::new(Vec::new()),
            registry,
            started: Instant::now(),
        }
    }

    /// Records a span that started at `t0` (now being its end) on the
    /// run timeline. Callers gate on [`Registry::enabled`] so a
    /// non-instrumented run never reaches here.
    fn push_span(&self, name: String, cat: &str, tid: u64, t0: Instant) {
        let start_us =
            u64::try_from(t0.duration_since(self.started).as_micros()).unwrap_or(u64::MAX);
        let dur_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.timeline.lock().expect("timeline lock never poisoned").push(SpanRec {
            name,
            cat: cat.to_owned(),
            tid,
            start_us,
            dur_us,
        });
    }

    /// A timed cache lookup, credited to the hit or miss histogram.
    fn lookup(&self, cache: &EvalCache, key: &str) -> Option<Result<Evaluation, EvalError>> {
        let t0 = self.registry.enabled().then(Instant::now);
        let outcome = cache.get(key);
        if let Some(t0) = t0 {
            let us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            if outcome.is_some() { &self.hit_us } else { &self.miss_us }.record(us);
        }
        outcome
    }

    /// A timed, panic-contained fresh evaluation attempt on worker slot
    /// `worker`. `seq` is the evaluation's proposal-order sequence
    /// number and `attempt` the zero-based retry index; the explorer's
    /// armed fault (if any) fires when `seq` matches and `attempt` is
    /// within the fault's [`FaultPlan::times`].
    fn eval(
        &self,
        worker: usize,
        seq: usize,
        attempt: usize,
        machine: &Machine,
        kernels: &[Kernel],
        explorer: &Explorer,
    ) -> Result<Evaluation, EvalError> {
        let fault = explorer.fault_plan.as_ref().filter(|f| f.nth == seq && attempt < f.times);
        let t0 = self.registry.enabled().then(Instant::now);
        let span = self.eval_us.span();
        let deadline = (explorer.deadline_ms > 0)
            .then(|| Deadline::arm(Duration::from_millis(explorer.deadline_ms)));
        let opts = EvalOptions {
            hgen: explorer.hgen,
            budget: explorer.budget,
            fault,
            profile: explorer.instrument,
            netlist: explorer.netlist_check,
            deadline,
        };
        let outcome = evaluate_contained(machine, kernels, &opts);
        drop(span);
        if let Some(t0) = t0 {
            self.push_span(format!("eval #{seq}"), "eval", 1 + worker as u64, t0);
        }
        self.thread_evals[worker].fetch_add(1, Ordering::Relaxed);
        outcome
    }

    /// Resolves one fresh candidate under the explorer's
    /// [`RetryPolicy`]: transient failures are re-attempted up to
    /// `max_attempts` total tries; permanent outcomes return
    /// immediately. Every failed attempt's error kind is recorded for
    /// the run's histogram.
    fn eval_retry(
        &self,
        worker: usize,
        seq: usize,
        machine: &Machine,
        kernels: &[Kernel],
        explorer: &Explorer,
    ) -> AttemptRecord {
        let max = explorer.retry.max_attempts.max(1);
        let mut errors = Vec::new();
        for attempt in 0..max {
            let outcome = self.eval(worker, seq, attempt, machine, kernels, explorer);
            if let Err(e) = &outcome {
                errors.push(e.kind_name());
                if e.is_transient() && attempt + 1 < max {
                    obs::flight::note(
                        "archex.retry",
                        e.kind_name(),
                        Json::obj().with("seq", seq).with("attempt", attempt + 1),
                    );
                    continue;
                }
            }
            return AttemptRecord { outcome, attempts: attempt + 1, errors };
        }
        unreachable!("the loop returns on its final attempt")
    }

    fn finish(&self, rounds: Vec<FrontierRound>) -> ExploreObs {
        let mut timeline = self.timeline.lock().expect("timeline lock never poisoned").clone();
        // Workers push concurrently; present the spans in time order.
        timeline.sort_by(|a, b| (a.start_us, a.tid, &a.name).cmp(&(b.start_us, b.tid, &b.name)));
        ExploreObs {
            rounds,
            eval_latency_us: self.eval_us.summary(),
            cache_hit_lookup_us: self.hit_us.summary(),
            cache_miss_lookup_us: self.miss_us.summary(),
            thread_evals: self.thread_evals.iter().map(|n| n.load(Ordering::Relaxed)).collect(),
            timeline,
            wall_s: if self.registry.enabled() {
                self.started.elapsed().as_secs_f64()
            } else {
                0.0
            },
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            flight_dumps: obs::flight::dump_count().saturating_sub(self.dumps_at_start),
        }
    }
}

/// Running totals folded into the final [`Trace`] (and journaled
/// cumulatively each round, so resume restores them exactly).
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) evaluated: usize,
    pub(crate) cache_hits: usize,
    pub(crate) skipped_errors: usize,
    pub(crate) first_error: Option<String>,
    pub(crate) attempts: usize,
    pub(crate) retried: usize,
    pub(crate) error_histogram: BTreeMap<String, usize>,
}

impl Counters {
    /// Records a skipped candidate, keeping the first error message.
    fn skip(&mut self, action: &str, error: &EvalError) {
        self.skipped_errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(format!("{action}: {error}"));
        }
    }

    /// Folds one frontier's fresh-evaluation accounting in. `proposed`
    /// is the number of candidates handed to the frontier (everything
    /// beyond `fresh` resolved from the cache).
    fn absorb(&mut self, fe: &FrontierEval, proposed: usize) {
        self.evaluated += fe.fresh;
        self.cache_hits += proposed - fe.fresh;
        self.attempts += fe.attempts;
        self.retried += fe.attempts - fe.fresh;
        for kind in &fe.errors {
            *self.error_histogram.entry((*kind).to_owned()).or_insert(0) += 1;
        }
    }
}

/// Everything the round loop carries between rounds — built fresh by
/// [`Explorer::start`], or restored from a journal by
/// [`Explorer::restore`].
struct State {
    /// The beam, best first, each machine with its evaluation: the
    /// machine the last accepted step moved to, then up to `width - 1`
    /// runners-up from the same round.
    beam: Vec<(Machine, Evaluation)>,
    steps: Vec<Step>,
    rounds: Vec<FrontierRound>,
    counters: Counters,
}

impl State {
    /// The score a round must beat: the last accepted step's.
    fn score(&self) -> f64 {
        self.steps.last().expect("the initial step is always recorded").score
    }

    /// The one place a [`Trace`] is assembled.
    fn into_trace(self, robs: &RunObs) -> Trace {
        let Counters {
            evaluated,
            cache_hits,
            skipped_errors,
            first_error,
            attempts,
            retried,
            error_histogram,
        } = self.counters;
        Trace {
            steps: self.steps,
            machine: self.beam.into_iter().next().expect("the beam is never empty").0,
            evaluated,
            cache_hits,
            skipped_errors,
            first_error,
            attempts,
            retried,
            error_histogram,
            obs: robs.finish(self.rounds),
        }
    }
}

/// Writes `text` to `path` atomically: the content lands in a sibling
/// `.{name}.tmp` file first and is renamed over the target, so a
/// concurrent scraper never observes a partially written file.
fn write_atomic(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    let name = path.file_name().map_or_else(
        || std::ffi::OsString::from(".metrics.tmp"),
        |n| {
            let mut t = std::ffi::OsString::from(".");
            t.push(n);
            t.push(".tmp");
            t
        },
    );
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// The toolchain types a frontier worker touches, pinned as thread-safe.
/// Everything sent into `std::thread::scope` below is either one of
/// these or a std synchronization primitive; a non-`Send` field added
/// to any of them (an `Rc`, say) fails compilation here, not at the
/// far end of a scoped-spawn type error.
#[allow(dead_code)]
fn assert_worker_types_thread_safe() {
    fn ok<T: Send + Sync>() {}
    ok::<Machine>();
    ok::<Kernel>();
    ok::<HgenOptions>();
    ok::<Evaluation>();
    ok::<EvalError>();
    ok::<Explorer>();
    ok::<EvalCache>();
    ok::<RunObs>();
    ok::<FaultPlan>();
    ok::<SimBudget>();
}

impl Explorer {
    /// Runs exploration from `start` over `kernels` with a fresh
    /// evaluation cache.
    ///
    /// # Errors
    ///
    /// Fails only if the *starting* candidate cannot be evaluated.
    /// Neighbours whose evaluation fails are skipped, counted in
    /// [`Trace::skipped_errors`], and reported via
    /// [`Trace::first_error`].
    pub fn run(&self, start: &Machine, kernels: &[Kernel]) -> Result<Trace, EvalError> {
        self.run_cached(start, kernels, &EvalCache::new())
    }

    /// Runs exploration reusing `cache` — candidates structurally
    /// identical to anything already in the cache (from this run or a
    /// previous one) are never re-evaluated.
    ///
    /// # Errors
    ///
    /// As [`Explorer::run`].
    pub fn run_cached(
        &self,
        start: &Machine,
        kernels: &[Kernel],
        cache: &EvalCache,
    ) -> Result<Trace, EvalError> {
        self.start(start, kernels, cache, None).map_err(|e| match e {
            JournalError::Eval(e) => e,
            // Unreachable without a journal sink, but keep the message.
            other => EvalError::Journaled(other.to_string()),
        })
    }

    /// Resolves the worker count for a frontier of `work` candidates.
    fn worker_count(&self, work: usize) -> usize {
        let configured = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.threads
        };
        configured.clamp(1, work.max(1))
    }

    /// Evaluates a frontier of candidates: deduplicates structurally
    /// identical machines, reuses cached outcomes, and fans the
    /// remaining fresh evaluations out over [`Explorer::threads`]
    /// scoped workers fed from a shared index. Results are committed to
    /// the cache and returned in input order, so downstream reductions
    /// see the same outcomes regardless of worker scheduling.
    fn eval_frontier(
        &self,
        cache: &EvalCache,
        kernels: &[Kernel],
        candidates: &[Machine],
        robs: &RunObs,
    ) -> FrontierEval {
        robs.frontier.set(candidates.len() as u64);
        let keys: Vec<String> = candidates.iter().map(EvalCache::key).collect();

        // Unique structures in first-occurrence order. `slot_for[i]`
        // maps candidate `i` to its representative slot.
        let mut slot_of_key: HashMap<&str, usize> = HashMap::new();
        let mut slot_candidate: Vec<usize> = Vec::new();
        let mut slot_for: Vec<usize> = Vec::with_capacity(candidates.len());
        let mut first_occurrence = Vec::with_capacity(candidates.len());
        for (i, key) in keys.iter().enumerate() {
            let next = slot_candidate.len();
            let slot = *slot_of_key.entry(key.as_str()).or_insert(next);
            if slot == next {
                slot_candidate.push(i);
            }
            first_occurrence.push(slot == next);
            slot_for.push(slot);
        }

        // Resolve each unique structure from the cache; the rest go to
        // the worker pool.
        let mut slot_outcome: Vec<Option<Result<Evaluation, EvalError>>> =
            Vec::with_capacity(slot_candidate.len());
        let mut pending: Vec<usize> = Vec::new();
        for (slot, &ci) in slot_candidate.iter().enumerate() {
            match robs.lookup(cache, &keys[ci]) {
                Some(outcome) => slot_outcome.push(Some(outcome)),
                None => {
                    slot_outcome.push(None);
                    pending.push(slot);
                }
            }
        }

        let fresh = pending.len();
        let mut committed = Vec::new();
        let mut attempts = 0;
        let mut errors: Vec<&'static str> = Vec::new();
        if fresh > 0 {
            // Sequence numbers for this batch are claimed up front and
            // assigned by proposal index (`pending` is in
            // first-occurrence order), not by scheduling order — an
            // armed fault hits the same candidate at any thread count,
            // and so does every retry of it.
            let base = robs.seq.fetch_add(fresh, Ordering::Relaxed);
            let results: Vec<Mutex<Option<AttemptRecord>>> =
                (0..fresh).map(|_| Mutex::new(None)).collect();
            let workers = self.worker_count(fresh);
            robs.live_workers.set(workers as u64);
            if workers == 1 {
                // Inline fast path: no spawn overhead, clean backtraces.
                for (j, &slot) in pending.iter().enumerate() {
                    let machine = &candidates[slot_candidate[slot]];
                    *results[j].lock().expect("result lock never poisoned") =
                        Some(robs.eval_retry(0, base + j, machine, kernels, self));
                }
            } else {
                let cursor = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    let (cursor, pending, slot_candidate, results) =
                        (&cursor, &pending, &slot_candidate, &results);
                    for wi in 0..workers {
                        scope.spawn(move || loop {
                            let j = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&slot) = pending.get(j) else { break };
                            let machine = &candidates[slot_candidate[slot]];
                            let record = robs.eval_retry(wi, base + j, machine, kernels, self);
                            *results[j].lock().expect("result lock never poisoned") = Some(record);
                        });
                    }
                });
            }
            // Commit in deterministic (proposal) order after the
            // barrier, so cache contents never depend on scheduling.
            // Transient failures (contained panics, exhausted budgets,
            // exceeded deadlines) are never cached: they describe this
            // attempt, not the candidate, and a poisoned entry would
            // outlive the fault.
            for (j, &slot) in pending.iter().enumerate() {
                let record = results[j]
                    .lock()
                    .expect("result lock never poisoned")
                    .take()
                    .expect("every pending slot was evaluated");
                attempts += record.attempts;
                errors.extend(record.errors);
                let outcome = record.outcome;
                let permanent = outcome.as_ref().map_or_else(|e| !e.is_transient(), |_| true);
                if permanent {
                    let key = keys[slot_candidate[slot]].clone();
                    cache.insert(key.clone(), outcome.clone());
                    committed.push((key, outcome.clone()));
                }
                slot_outcome[slot] = Some(outcome);
            }
            robs.cache_entries.set(cache.len() as u64);
        }

        let outcomes = slot_for
            .iter()
            .map(|&slot| slot_outcome[slot].clone().expect("all slots resolved"))
            .collect();
        FrontierEval { outcomes, first_occurrence, fresh, committed, attempts, errors }
    }

    /// Runs an exploration exactly like [`Explorer::run_cached`],
    /// additionally streaming an `archex-journal/2` checkpoint journal
    /// to `sink` — one JSON line per completed round (see
    /// `docs/ROBUSTNESS.md`). A run killed at any point leaves a
    /// journal from which [`Explorer::resume`] continues bit-exactly.
    /// The journal holds no wall-clock value, so its bytes are
    /// identical across runs and thread counts.
    ///
    /// # Errors
    ///
    /// [`JournalError::Eval`] if the starting candidate cannot be
    /// evaluated, [`JournalError::Io`] if writing a journal line fails.
    pub fn run_journaled(
        &self,
        start: &Machine,
        kernels: &[Kernel],
        cache: &EvalCache,
        sink: &mut dyn std::io::Write,
    ) -> Result<Trace, JournalError> {
        self.start(start, kernels, cache, Some(&mut JournalWriter::new(sink)))
    }

    /// Resumes an exploration from a journal written by
    /// [`Explorer::run_journaled`]: validates the journal against this
    /// explorer and `start`, preloads `cache` with every journaled
    /// evaluation, restores the accepted steps, beam, and run counters,
    /// and continues from the last completed round. The resulting
    /// [`Trace`] is [`Trace::semantic_eq`] to the one the uninterrupted
    /// run would have produced.
    ///
    /// # Errors
    ///
    /// [`JournalError::Parse`] / [`JournalError::Mismatch`] when the
    /// journal is malformed or belongs to a different run.
    pub fn resume(
        &self,
        start: &Machine,
        kernels: &[Kernel],
        cache: &EvalCache,
        journal: &str,
    ) -> Result<Trace, JournalError> {
        let replay = Replay::parse(journal, self, start)?;
        // The resumed tail is not re-journaled: the journal already
        // records the prefix, and the caller still holds it.
        self.restore(replay, kernels, cache, None)
    }

    /// Continues a journaled exploration across process restarts. When
    /// `journal_text` holds a usable checkpoint for this explorer and
    /// `start`, the run resumes from it; when it holds none — empty, a
    /// torn first line, or a header-only stub from a run killed before
    /// its first checkpoint — the run starts fresh. Either way `sink`
    /// receives a complete, self-contained `archex-journal/2` journal
    /// for the whole run: on resume, a header plus one `snapshot`
    /// checkpoint of the replayed prefix, followed by the continued
    /// rounds.
    ///
    /// The header and snapshot land in a single buffered
    /// `write_all` + `flush` before any new evaluation starts, so a
    /// sink whose first flush is atomic — a temp file renamed over the
    /// previous journal, as `isdlc explore --journal` arranges — never
    /// exposes a journal with less information than the one it
    /// replaces.
    ///
    /// # Errors
    ///
    /// As [`Explorer::resume`] and [`Explorer::run_journaled`]: corrupt
    /// or mismatched journals are never silently replaced.
    pub fn resume_or_start_journaled(
        &self,
        start: &Machine,
        kernels: &[Kernel],
        cache: &EvalCache,
        journal_text: &str,
        sink: &mut dyn std::io::Write,
    ) -> Result<Trace, JournalError> {
        let Some(replay) = Replay::parse_partial(journal_text, self, start)? else {
            return self.run_journaled(start, kernels, cache, sink);
        };
        let io_err = |e: std::io::Error| JournalError::Io(e.to_string());
        let mut checkpoint: Vec<u8> = Vec::new();
        let prefix_lines = {
            let mut w = JournalWriter::new(&mut checkpoint);
            w.header(self, start)?;
            w.snapshot(&replay)?;
            w.lines_written()
        };
        sink.write_all(&checkpoint).map_err(io_err)?;
        sink.flush().map_err(io_err)?;
        self.restore(replay, kernels, cache, Some(&mut JournalWriter::resuming(sink, prefix_lines)))
    }

    /// A fresh run: the starting candidate's evaluation (journaled as
    /// the `init` event), then [`Explorer::search`].
    fn start(
        &self,
        start: &Machine,
        kernels: &[Kernel],
        cache: &EvalCache,
        mut journal: Option<&mut JournalWriter>,
    ) -> Result<Trace, JournalError> {
        let robs = RunObs::new(self);
        let mut counters = Counters::default();
        if let Some(j) = journal.as_deref_mut() {
            j.header(self, start)?;
        }
        let fe = self.eval_frontier(cache, kernels, std::slice::from_ref(start), &robs);
        counters.absorb(&fe, 1);
        let FrontierEval { outcomes, committed, .. } = fe;
        let eval = outcomes.into_iter().next().expect("one candidate, one outcome")?;
        let initial = Step {
            action: "initial".to_owned(),
            metrics: eval.metrics.clone(),
            score: self.objective.score(&eval.metrics),
            profile: eval.profile.clone(),
        };
        if let Some(j) = journal.as_deref_mut() {
            j.init(&counters, &committed, &initial)?;
        }
        let st = State {
            beam: vec![(start.clone(), eval)],
            steps: vec![initial],
            rounds: Vec::new(),
            counters,
        };
        self.search(st, kernels, cache, &robs, journal)
    }

    /// The one `Replay → State` conversion: preloads `cache` with the
    /// journaled entries, looks up every beam member's evaluation, and
    /// continues with [`Explorer::search`] — or, when the journaled
    /// run had already finished, just closes the journal.
    fn restore(
        &self,
        replay: Replay,
        kernels: &[Kernel],
        cache: &EvalCache,
        journal: Option<&mut JournalWriter>,
    ) -> Result<Trace, JournalError> {
        let Replay { steps, rounds, counters, entries, beam, finished } = replay;
        for (key, outcome) in entries {
            cache.insert(key, outcome);
        }
        let beam = beam
            .into_iter()
            .map(|m| match cache.get(&EvalCache::key(&m)) {
                Some(Ok(ev)) => Ok((m, ev)),
                _ => Err(JournalError::Mismatch(
                    "a journaled beam machine has no cached evaluation".to_owned(),
                )),
            })
            .collect::<Result<_, _>>()?;
        let st = State { beam, steps, rounds, counters };
        let robs = RunObs::new(self);
        if finished {
            if let Some(j) = journal {
                j.done()?;
            }
            return Ok(st.into_trace(&robs));
        }
        self.search(st, kernels, cache, &robs, journal)
    }

    /// The round loop of Figure 1, shared by fresh and resumed runs at
    /// every beam width. Each round proposes from every beam member in
    /// beam order, evaluates the frontier, and keeps the `width` best
    /// distinct candidates. It accepts only when the best beats the
    /// last accepted step; otherwise the run ends with the beam
    /// unchanged. Greedy is width 1: the stable sort makes the earliest
    /// strictly-best candidate win, exactly as in a serial scan.
    fn search(
        &self,
        mut st: State,
        kernels: &[Kernel],
        cache: &EvalCache,
        robs: &RunObs,
        mut journal: Option<&mut JournalWriter>,
    ) -> Result<Trace, JournalError> {
        // Heartbeat cadence rides the shared watchdog timer: a beat
        // becomes *due* when the deadline fires and is emitted at the
        // next round boundary. `interval_ms == 0` beats every round.
        let mut next_beat = self.progress.as_ref().and_then(|p| {
            (p.interval_ms > 0).then(|| Deadline::arm(Duration::from_millis(p.interval_ms)))
        });
        while st.rounds.len() < self.max_steps {
            // Cooperative shutdown lands only on round boundaries: the
            // in-flight round always completes (and journals its
            // checkpoint), and the `done` event is deliberately not
            // written, so the journal resumes from exactly here.
            if self.shutdown.as_ref().is_some_and(|f| f.load(Ordering::Relaxed)) {
                return Ok(st.into_trace(robs));
            }
            let round_t0 = robs.registry.enabled().then(Instant::now);
            let (actions, machines): (Vec<String>, Vec<Machine>) = st
                .beam
                .iter()
                .flat_map(|(machine, ev)| {
                    self.propose(machine, ev)
                        .into_iter()
                        .filter_map(|m| apply_mutation(machine, &m).map(|c| (m.to_string(), c)))
                })
                .unzip();
            let fe = self.eval_frontier(cache, kernels, &machines, robs);
            if let Some(t0) = round_t0 {
                robs.push_span(format!("round {}", st.rounds.len()), "explore", 0, t0);
            }
            st.counters.absorb(&fe, machines.len());
            let round = fe.round();
            st.rounds.push(round.clone());
            if let Some(p) = &self.progress {
                if next_beat.as_ref().is_none_or(Deadline::expired) {
                    self.heartbeat(p, &st, cache, robs, machines.len());
                    if p.interval_ms > 0 {
                        next_beat = Some(Deadline::arm(Duration::from_millis(p.interval_ms)));
                    }
                }
            }
            let FrontierEval { outcomes, first_occurrence, committed, .. } = fe;

            // Serial reduction in proposal order. Different parents
            // often reach the same machine; only its first occurrence
            // competes, so duplicates never take beam slots.
            let mut frontier: Vec<(f64, String, Machine, Evaluation)> = Vec::new();
            let candidates = actions.into_iter().zip(machines).zip(outcomes).zip(first_occurrence);
            for (((action, machine), outcome), first) in candidates {
                match outcome {
                    Ok(ev) if first => {
                        frontier.push((self.objective.score(&ev.metrics), action, machine, ev));
                    }
                    Ok(_) => {}
                    Err(e) => st.counters.skip(&action, &e),
                }
            }
            frontier.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            frontier.truncate(self.strategy.width());
            if !frontier.first().is_some_and(|(s, ..)| *s < st.score() - 1e-9) {
                if let Some(j) = journal.as_deref_mut() {
                    j.round(&round, &st.counters, &committed, None)?;
                    j.done()?;
                }
                return Ok(st.into_trace(robs));
            }
            let (score, action, _, ev) = &frontier[0];
            let step = Step {
                action: action.clone(),
                metrics: ev.metrics.clone(),
                score: *score,
                profile: ev.profile.clone(),
            };
            st.beam = frontier.into_iter().map(|(_, _, m, ev)| (m, ev)).collect();
            // The round line lands only after the round fully resolved —
            // a kill before this point simply loses the round.
            if let Some(j) = journal.as_deref_mut() {
                j.round(&round, &st.counters, &committed, Some((&step, &st.beam)))?;
            }
            st.steps.push(step);
        }
        if let Some(j) = journal {
            j.done()?;
        }
        Ok(st.into_trace(robs))
    }

    /// Emits one progress heartbeat: an `archex-progress/1` JSONL line,
    /// an optional human one-liner, a forwarded `archex.progress` log
    /// event, and (if configured) an atomically rewritten Prometheus
    /// textfile. Heartbeats are pure telemetry — they never appear in
    /// the journal or affect [`Trace::semantic_eq`].
    fn heartbeat(
        &self,
        p: &Progress,
        st: &State,
        cache: &EvalCache,
        robs: &RunObs,
        frontier: usize,
    ) {
        let seq = robs.heartbeats.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed_s = robs.started.elapsed().as_secs_f64();
        let round = st.rounds.len();
        let evaluated = st.counters.evaluated;
        let cache_hits = st.counters.cache_hits;
        let lookups = evaluated + cache_hits;
        let hit_rate = if lookups > 0 { cache_hits as f64 / lookups as f64 } else { 0.0 };
        let evals_per_s = if elapsed_s > 0.0 { evaluated as f64 / elapsed_s } else { 0.0 };
        // Linear extrapolation over the rounds this process has seen;
        // most runs converge early, so this is an upper bound.
        let rounds_left = self.max_steps.saturating_sub(round);
        let eta_s = if round > 0 { elapsed_s / round as f64 * rounds_left as f64 } else { 0.0 };
        let mut errors = Json::obj();
        for (kind, n) in &st.counters.error_histogram {
            errors.insert(kind, *n);
        }
        let line = Json::obj()
            .with("schema", PROGRESS_SCHEMA)
            .with("seq", seq)
            .with("round", round)
            .with("max_rounds", self.max_steps)
            .with("frontier", frontier)
            .with("evaluated", evaluated)
            .with("cache_hits", cache_hits)
            .with("cache_entries", cache.len())
            .with("hit_rate", hit_rate)
            .with("evals_per_s", evals_per_s)
            .with("retried", st.counters.retried)
            .with("errors", errors)
            .with("score", st.score())
            .with("elapsed_s", elapsed_s)
            .with("eta_s", eta_s);
        if let Some(sink) = &p.jsonl {
            if let Ok(mut w) = sink.lock() {
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
        }
        if let Some(sink) = &p.human {
            if let Ok(mut w) = sink.lock() {
                let _ = writeln!(
                    w,
                    "[explore] round {round}/{max} | frontier {frontier} | {evaluated} evals \
                     ({evals_per_s:.1}/s) | cache {hit_pct:.0}% hit | {retried} retried | \
                     eta {eta_s:.0}s",
                    max = self.max_steps,
                    hit_pct = hit_rate * 100.0,
                    retried = st.counters.retried,
                );
                let _ = w.flush();
            }
        }
        obs::log::event_with(obs::Level::Info, "archex.progress", "heartbeat", || line);
        if let Some(path) = &p.metrics_out {
            let _ = write_atomic(path, &obs::prom::render(&robs.registry.snapshot()));
        }
    }

    /// Proposes mutations guided by the utilization statistics.
    fn propose(&self, machine: &Machine, ev: &Evaluation) -> Vec<Mutation> {
        let mut out = Vec::new();
        // Aggregate dynamic counts.
        let mut counts = std::collections::HashMap::new();
        let mut field_busy = vec![0u64; machine.fields.len()];
        for run in &ev.kernel_stats {
            for (&r, &n) in &run.op_counts {
                *counts.entry(r).or_insert(0u64) += n;
            }
            for (i, &b) in run.stats.field_busy.iter().enumerate() {
                if i < field_busy.len() {
                    field_busy[i] += b;
                }
            }
        }
        // Unused operations (never selected, or only as implicit nops).
        for (r, _) in machine.all_ops() {
            let used = counts.get(&r).copied().unwrap_or(0);
            let is_nop = machine.fields[r.field.0].nop == Some(r.op);
            if used == 0 && !is_nop {
                out.push(Mutation::RemoveOp(r));
            }
        }
        // Idle fields.
        for (fi, &busy) in field_busy.iter().enumerate() {
            if busy == 0 && machine.fields.len() > 1 {
                out.push(Mutation::RemoveField(FieldId(fi)));
            }
        }
        // Unused non-terminal options (addressing modes the workload
        // never exercises).
        let mut nt_used = std::collections::HashMap::new();
        for run in &ev.kernel_stats {
            for (&k, &n) in &run.nt_option_counts {
                *nt_used.entry(k).or_insert(0u64) += n;
            }
        }
        for (ni, nt) in machine.nonterminals.iter().enumerate() {
            if nt.options.len() < 2 {
                continue;
            }
            for oi in 0..nt.options.len() {
                if nt_used.get(&(NtId(ni), oi)).copied().unwrap_or(0) == 0 {
                    out.push(Mutation::RemoveNtOption(NtId(ni), oi));
                }
            }
        }
        // Forbid pairs of *used* cross-field operations that the
        // workload never co-issues (our code generator never co-issues
        // anything, so any used pair qualifies; keep the list small by
        // pairing the busiest ops first).
        let mut used: Vec<(OpRef, u64)> = counts
            .iter()
            .filter(|(r, &n)| n > 0 && machine.fields[r.field.0].nop != Some(r.op))
            .map(|(&r, &n)| (r, n))
            .collect();
        // Tie-break equal counts by `OpRef` order — `HashMap` iteration
        // order must never leak into the proposal list, or two
        // identically-configured runs could diverge.
        used.sort_by_key(|&(r, n)| (std::cmp::Reverse(n), r));
        used.truncate(6);
        for (i, &(a, _)) in used.iter().enumerate() {
            for &(b, _) in &used[i + 1..] {
                if a.field != b.field {
                    out.push(Mutation::ForbidPair(a, b));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::workloads;

    fn toy() -> Machine {
        isdl::load(isdl::samples::TOY).expect("loads")
    }

    #[test]
    fn remove_op_remaps_references() {
        let m = toy();
        let ld = m.op_by_name("ALU", "ld").expect("ld");
        let out = apply_mutation(&m, &Mutation::RemoveOp(ld)).expect("applies");
        assert_eq!(out.fields[0].ops.len(), m.fields[0].ops.len() - 1);
        // The mac/mvacc constraint survives with shifted indices.
        assert_eq!(out.constraints.len(), 1);
        let mac = out.op_by_name("ALU", "mac").expect("mac survives");
        match &out.constraints[0] {
            Constraint::Forbid(ops) => assert!(ops.contains(&mac)),
            other => panic!("unexpected constraint {other:?}"),
        }
    }

    #[test]
    fn removing_referenced_op_drops_constraint() {
        let m = toy();
        let mac = m.op_by_name("ALU", "mac").expect("mac");
        let out = apply_mutation(&m, &Mutation::RemoveOp(mac)).expect("applies");
        assert!(out.constraints.is_empty(), "constraint on removed op dropped");
        assert!(out.share_hints.is_empty(), "hint on removed op dropped");
    }

    #[test]
    fn cannot_remove_nop_or_last_field() {
        let m = toy();
        let nop = m.op_by_name("ALU", "nop").expect("nop");
        assert!(apply_mutation(&m, &Mutation::RemoveOp(nop)).is_none());
        let mut single = m.clone();
        single.fields.truncate(1);
        assert!(apply_mutation(&single, &Mutation::RemoveField(FieldId(0))).is_none());
    }

    #[test]
    fn forbid_pair_added_once() {
        let m = toy();
        let add = m.op_by_name("ALU", "add").expect("add");
        let mv = m.op_by_name("MOVE", "mv").expect("mv");
        let out = apply_mutation(&m, &Mutation::ForbidPair(add, mv)).expect("applies");
        assert_eq!(out.constraints.len(), 2);
        assert!(apply_mutation(&out, &Mutation::ForbidPair(add, mv)).is_none());
    }

    #[test]
    fn exploration_improves_toy_on_dot_product() {
        let kernels = vec![workloads::dot_product(3)];
        let explorer = Explorer { max_steps: 6, ..Explorer::default() };
        let trace = explorer.run(&toy(), &kernels).expect("explores");
        assert!(trace.steps.len() > 1, "at least one improvement found");
        let first = trace.steps.first().expect("initial");
        let last = trace.steps.last().expect("final");
        assert!(last.score < first.score, "objective improved");
        assert!(
            last.metrics.area_cells < first.metrics.area_cells,
            "removing unused ops shrinks the die"
        );
        // The improved machine still computes the right answer (the
        // evaluator re-ran the workload at every step).
        assert!(trace.candidates_evaluated() > trace.steps.len());
    }

    #[test]
    fn eval_cache_counts_hits_and_misses() {
        let m = toy();
        let kernels = vec![workloads::dot_product(2)];
        let cache = EvalCache::new();
        let key = EvalCache::key(&m);
        assert!(cache.get(&key).is_none(), "empty cache misses");
        assert_eq!(cache.miss_count(), 1);
        let outcome = evaluate(&m, &kernels, HgenOptions::default());
        cache.insert(key.clone(), outcome);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key).is_some(), "stored outcome is returned");
        assert_eq!(cache.hit_count(), 1);
        assert_eq!(cache.miss_count(), 1);
        // Structurally identical machines share one key.
        assert_eq!(EvalCache::key(&m.clone()), key);
        assert_eq!(EvalCache::structural_hash(&m.clone()), EvalCache::structural_hash(&m));
    }

    #[test]
    fn cached_run_never_reevaluates_known_machines() {
        let kernels = vec![workloads::dot_product(2)];
        let explorer = Explorer { max_steps: 4, ..Explorer::default() };
        let cache = EvalCache::new();
        let first = explorer.run_cached(&toy(), &kernels, &cache).expect("explores");
        assert!(first.evaluated > 0);
        let second = explorer.run_cached(&toy(), &kernels, &cache).expect("explores");
        assert_eq!(second.evaluated, 0, "every candidate was already cached");
        assert_eq!(second.cache_hits, second.candidates_evaluated());
        // Counters differ (that is the point), but the search itself
        // must be unchanged: same steps, same final machine.
        assert_eq!(first.steps.len(), second.steps.len());
        assert!(
            first.steps.iter().zip(&second.steps).all(|(a, b)| a.semantic_eq(b)),
            "cache reuse preserves the steps"
        );
        assert_eq!(first.machine, second.machine, "cache reuse preserves the result");
    }

    #[test]
    fn poisoned_cache_entries_are_counted_and_reported() {
        let kernels = vec![workloads::dot_product(2)];
        let explorer = Explorer { max_steps: 4, ..Explorer::default() };
        // Find the machine the first greedy step would move to, then
        // poison its cache entry so the run must skip it.
        let clean = explorer.run(&toy(), &kernels).expect("explores");
        assert!(clean.steps.len() > 1, "need at least one improvement step");
        assert_eq!(clean.skipped_errors, 0);
        assert!(clean.first_error.is_none());

        let cache = EvalCache::new();
        let poisoned_action = clean.steps[1].action.clone();
        let step1 = clean
            .steps
            .get(1)
            .map(|_| {
                // Re-derive the machine after the first accepted step by
                // replaying the first mutation choice through the engine:
                // run with max_steps = 1 and take the resulting machine.
                Explorer { max_steps: 1, ..explorer.clone() }
                    .run(&toy(), &kernels)
                    .expect("explores")
                    .machine
            })
            .expect("step exists");
        cache
            .insert(EvalCache::key(&step1), Err(EvalError::Synthesis("injected fault".to_owned())));
        let trace = explorer.run_cached(&toy(), &kernels, &cache).expect("explores");
        assert!(trace.skipped_errors > 0, "poisoned candidate was counted");
        let first = trace.first_error.as_deref().expect("first error recorded");
        assert!(
            first.contains("injected fault") && first.starts_with(&poisoned_action),
            "error names the mutation and cause: {first}"
        );
    }

    #[test]
    fn single_candidate_frontier_uses_one_eval() {
        let kernels = vec![workloads::dot_product(2)];
        let explorer = Explorer::default();
        let robs = RunObs::new(&explorer);
        let cache = EvalCache::new();
        let m = toy();
        let fe = explorer.eval_frontier(&cache, &kernels, std::slice::from_ref(&m), &robs);
        assert_eq!(fe.fresh, 1);
        assert_eq!(fe.outcomes.len(), 1);
        assert!(fe.first_occurrence[0]);
        // Duplicate input: one fresh eval for two candidates.
        let cache = EvalCache::new();
        let fe = explorer.eval_frontier(&cache, &kernels, &[m.clone(), m], &robs);
        assert_eq!(fe.fresh, 1);
        assert_eq!(fe.outcomes.len(), 2);
        assert_eq!(fe.first_occurrence, vec![true, false]);
        let round = fe.round();
        assert_eq!(round, FrontierRound { proposed: 2, unique: 1, fresh: 1, cache_hits: 1 });
    }
}

#[cfg(test)]
mod nt_option_tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn unused_addressing_mode_is_removed() {
        // The code generator only ever emits register-direct operands,
        // so the `ind` option of TOY's SRC non-terminal is dead weight
        // the explorer should find and remove.
        let start = isdl::load(isdl::samples::TOY).expect("loads");
        assert_eq!(start.nonterminals[0].options.len(), 2);
        let kernels = vec![workloads::vector_update(3)];
        let explorer = Explorer { max_steps: 10, ..Explorer::default() };
        let trace = explorer.run(&start, &kernels).expect("explores");
        assert!(
            trace.steps.iter().any(|s| s.action.contains("remove option")),
            "steps: {:?}",
            trace.steps.iter().map(|s| s.action.clone()).collect::<Vec<_>>()
        );
        assert_eq!(trace.machine.nonterminals[0].options.len(), 1);
    }

    #[test]
    fn remove_nt_option_respects_minimum() {
        let m = isdl::load(isdl::samples::TOY).expect("loads");
        let one = apply_mutation(&m, &Mutation::RemoveNtOption(NtId(0), 1)).expect("applies");
        assert!(
            apply_mutation(&one, &Mutation::RemoveNtOption(NtId(0), 0)).is_none(),
            "the last option must stay"
        );
        assert!(apply_mutation(&m, &Mutation::RemoveNtOption(NtId(0), 9)).is_none());
    }
}

#[cfg(test)]
mod beam_tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn beam_search_matches_or_beats_greedy() {
        let start = isdl::load(isdl::samples::TOY).expect("loads");
        let kernels = vec![workloads::dot_product(2)];
        let greedy = Explorer { max_steps: 4, ..Explorer::default() }
            .run(&start, &kernels)
            .expect("greedy explores");
        let beam =
            Explorer { max_steps: 4, strategy: Strategy::Beam { width: 3 }, ..Explorer::default() }
                .run(&start, &kernels)
                .expect("beam explores");
        let g = greedy.steps.last().expect("steps").score;
        let b = beam.steps.last().expect("steps").score;
        assert!(b <= g + 1e-9, "beam ({b}) must not lose to greedy ({g})");
        assert!(
            beam.candidates_evaluated() >= greedy.candidates_evaluated(),
            "the wider search costs more evaluations"
        );
    }

    #[test]
    fn beam_frontier_dedup_turns_duplicates_into_cache_hits() {
        let start = isdl::load(isdl::samples::TOY).expect("loads");
        let kernels = vec![workloads::dot_product(2)];
        let beam =
            Explorer { max_steps: 4, strategy: Strategy::Beam { width: 3 }, ..Explorer::default() }
                .run(&start, &kernels)
                .expect("beam explores");
        // Sibling beam entries propose overlapping mutations, so the
        // deduplicated frontier must evaluate strictly fewer machines
        // than the raw candidate count.
        assert!(beam.cache_hits > 0, "duplicate candidates hit the cache");
        assert!(
            beam.evaluated < beam.candidates_evaluated(),
            "dedup reduced fresh evaluations: {} of {}",
            beam.evaluated,
            beam.candidates_evaluated()
        );
    }
}
