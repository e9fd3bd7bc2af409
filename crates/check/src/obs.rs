//! Run observability: structured events, live progress metrics, and
//! exportable run reports.
//!
//! Every checking engine in this workspace can narrate what it is doing
//! through a [`Recorder`] — a zero-dependency, lock-free-friendly sink
//! for [`Event`]s:
//!
//! * [`NullRecorder`] (the default) discards everything; engines gate
//!   their instrumentation on [`Recorder::enabled`], so the hot loops
//!   pay a single predictable branch and stay allocation-free;
//! * [`CountingRecorder`] tallies events in `AtomicU64` counters and
//!   accumulates monotonic per-[`Phase`] timers — cheap enough to leave
//!   on in tests, and exact: its state/transition/depth totals come
//!   from the engine's own final statistics;
//! * [`JsonlRecorder`] serializes every event as one JSON line
//!   (schema-versioned, see [`OBS_SCHEMA_VERSION`]), the same
//!   progress-statistics discipline TLC earns trust with.
//!
//! Events sample the hot path by piggybacking on the existing
//! [`Meter`](crate::Meter) checkpoint cadence: the meter emits a
//! [`Event::Progress`] snapshot every [`PROGRESS_SAMPLE`] checkpoints,
//! so instrumentation cost scales with checkpoints, not with states.
//!
//! The `OPENTLA_OBS=/path.jsonl` environment variable (mirroring
//! `OPENTLA_EXPLORE_THREADS`) routes every engine that did not receive
//! an explicit recorder to an appending [`JsonlRecorder`] at that path;
//! see [`global`].
//!
//! The module also ships its own consumer: [`validate_stream`] parses a
//! JSONL event stream back (with the built-in minimal [`Json`] parser —
//! no serde), checks it against the schema (known event kinds, required
//! fields, monotonic timestamps, well-formed phase nesting, every run
//! closed by a report whose totals match the final snapshot), and
//! returns a [`StreamSummary`] for golden-shape tests and CI gates.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Version tag carried by every serialized event (`"v"`) and by
/// [`RunReport::schema_version`]. Bump when the event schema changes
/// shape.
pub const OBS_SCHEMA_VERSION: u64 = 1;

/// A [`Event::Progress`] snapshot is emitted every this many meter
/// checkpoints (when a recorder is enabled). Checkpoints run once per
/// state expansion, so this keeps the sampling cost at roughly one
/// event per `PROGRESS_SAMPLE` states.
pub const PROGRESS_SAMPLE: u64 = 1024;

// ---------------------------------------------------------------------
// Phases and events
// ---------------------------------------------------------------------

/// A named span of engine work. Phases nest like a stack within one
/// event stream; [`validate_stream`] enforces the discipline.
///
/// Each phase maps onto the paper's proof obligations — see
/// `docs/paper-map.md` § "Observability" for the correspondence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Enumerating and interning the initial states.
    ExploreInit,
    /// The BFS expansion loop (sequential or work-stealing).
    ExploreExpand,
    /// The parallel engine's canonical renumbering pass.
    ExploreRenumber,
    /// Fairness-aware liveness analysis (SCC search).
    Liveness,
    /// Step simulation under a refinement mapping.
    Simulation,
    /// The `⊳` realization monitor (`check_ag_safety_diagnosed`).
    AgMonitor,
    /// The Composition Theorem / Corollary certificate build.
    Compose,
    /// A verification suite run.
    Suite,
}

/// Number of distinct [`Phase`]s (for fixed-size per-phase tables).
pub const PHASE_COUNT: usize = 8;

impl Phase {
    /// Dense index, `0..PHASE_COUNT`.
    pub fn index(self) -> usize {
        match self {
            Phase::ExploreInit => 0,
            Phase::ExploreExpand => 1,
            Phase::ExploreRenumber => 2,
            Phase::Liveness => 3,
            Phase::Simulation => 4,
            Phase::AgMonitor => 5,
            Phase::Compose => 6,
            Phase::Suite => 7,
        }
    }

    /// Stable wire name (the `"phase"` field of phase events).
    pub fn name(self) -> &'static str {
        match self {
            Phase::ExploreInit => "explore_init",
            Phase::ExploreExpand => "explore_expand",
            Phase::ExploreRenumber => "explore_renumber",
            Phase::Liveness => "liveness",
            Phase::Simulation => "simulation",
            Phase::AgMonitor => "ag_monitor",
            Phase::Compose => "compose",
            Phase::Suite => "suite",
        }
    }
}

/// A point-in-time progress measurement. All counts are cumulative
/// within the current run; optional fields are omitted from the wire
/// format when unknown.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProgressSnapshot {
    /// Unique states recorded so far.
    pub states: u64,
    /// Transitions processed so far.
    pub transitions: u64,
    /// Nanoseconds since the run (meter) started.
    pub elapsed_nanos: u64,
    /// Size of the pending BFS frontier, when the engine knows it.
    pub frontier: Option<u64>,
    /// Current BFS level / depth, when the engine tracks it.
    pub level: Option<u64>,
    /// Reporting worker, for per-worker snapshots.
    pub worker: Option<u64>,
    /// The finite state budget, if one is set (budget consumption =
    /// `states / budget_states`).
    pub budget_states: Option<u64>,
    /// The finite transition budget, if one is set.
    pub budget_transitions: Option<u64>,
}

impl ProgressSnapshot {
    /// Throughput implied by this snapshot (states per second).
    pub fn states_per_sec(&self) -> f64 {
        self.states as f64 / (self.elapsed_nanos as f64 / 1e9).max(1e-9)
    }
}

/// The final, exportable summary of one engine run. Serialized inside
/// the [`Event::RunEnd`] line and written standalone by the benchmark
/// and demo binaries.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Schema version ([`OBS_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Which engine ran (`"explore_sequential"`, `"explore_parallel"`,
    /// `"explore_spill"` or `"explore_spill_ws"` for explorations).
    pub engine: String,
    /// Worker threads that ran (1 on the sequential routes).
    pub threads: usize,
    /// Visited-set mode (`"fingerprint"` / `"exact"`), or another
    /// engine-specific mode tag.
    pub mode: String,
    /// Unique states recorded.
    pub states: usize,
    /// Transitions recorded.
    pub transitions: usize,
    /// BFS depth of the explored graph.
    pub depth: usize,
    /// Deadlock (terminal-state) count.
    pub deadlocks: usize,
    /// Human-readable outcome (`"complete"`, an exhaustion
    /// description, or `"error: …"`).
    pub outcome: String,
    /// Whether the run covered everything it set out to cover.
    pub complete: bool,
    /// Wall-clock duration of the run in nanoseconds.
    pub duration_nanos: u64,
}

impl RunReport {
    /// The report as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":{},\"engine\":{},\"threads\":{},\"mode\":{},\
             \"states\":{},\"transitions\":{},\"depth\":{},\"deadlocks\":{},\
             \"outcome\":{},\"complete\":{},\"duration_nanos\":{}}}",
            self.schema_version,
            json_str(&self.engine),
            self.threads,
            json_str(&self.mode),
            self.states,
            self.transitions,
            self.depth,
            self.deadlocks,
            json_str(&self.outcome),
            self.complete,
            self.duration_nanos,
        )
    }
}

/// One structured observation. Borrowed fields keep event construction
/// allocation-free on the emitting side.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// An engine run began.
    RunStart {
        /// Engine name (matches the eventual [`RunReport::engine`]).
        engine: &'a str,
        /// Worker threads.
        threads: usize,
        /// Visited-set / engine mode tag.
        mode: &'a str,
    },
    /// A work phase was entered.
    PhaseEnter {
        /// The phase.
        phase: Phase,
    },
    /// The matching phase was left.
    PhaseExit {
        /// The phase.
        phase: Phase,
    },
    /// A sampled progress measurement.
    Progress {
        /// The measurement.
        snapshot: ProgressSnapshot,
    },
    /// Per-worker throughput for one BFS level of the parallel engine.
    WorkerLevel {
        /// Worker index.
        worker: usize,
        /// Which level was processed.
        level: u64,
        /// Frontier entries this worker claimed.
        claimed: u64,
        /// New states this worker interned.
        inserted: u64,
    },
    /// A fault-injection combinator armed a fault action on a system,
    /// or a fault action was observed firing on a counterexample /
    /// assumption-break trace.
    FaultActivation {
        /// The fault action's name (`"fault:…"`).
        action: &'a str,
        /// Trace step at which it fired, or 0 when merely armed.
        step: u64,
        /// `"armed"` when the combinator built the faulty system,
        /// `"fired"` when the action appears on a trace.
        kind: &'a str,
    },
    /// A counterexample was produced, with provenance.
    Counterexample {
        /// Which check produced it (`"liveness"`, `"simulation"`,
        /// `"ag_safety"`, …).
        kind: &'a str,
        /// The counterexample's reason line.
        reason: &'a str,
        /// Trace length in states.
        length: usize,
        /// Lasso loop start, for liveness counterexamples.
        loop_start: Option<usize>,
        /// How many trace steps were fault actions.
        fault_steps: usize,
    },
    /// A named check completed (suite entries, certificate
    /// obligations).
    Check {
        /// Check category (`"invariant"`, `"obligation"`, …).
        kind: &'a str,
        /// The check's name.
        name: &'a str,
        /// Whether it passed.
        holds: bool,
    },
    /// Reduction counters of one exploration run (emitted once, before
    /// the run's final progress event, only when a
    /// [`Reduction`](crate::Reduction) was active).
    Reduction {
        /// States expanded through a proper ample set.
        ample_states: u64,
        /// States expanded fully (no eligible proper cluster, or the
        /// cycle proviso fired).
        full_states: u64,
        /// Enabled transitions pruned by the ample sets.
        skipped_transitions: u64,
        /// Generated successors changed by symmetry canonicalization.
        canon_hits: u64,
    },
    /// A resumable snapshot was written (see
    /// [`Budget::with_checkpoint`](crate::Budget::with_checkpoint)).
    Checkpoint {
        /// Sequence number of the snapshot within this run.
        seq: u64,
        /// States banked in the snapshot.
        states: u64,
        /// Transitions banked in the snapshot.
        transitions: u64,
        /// Discovered-but-unexpanded states awaiting resume.
        frontier: u64,
    },
    /// A parallel worker panicked; its in-flight work was re-queued
    /// and the run continued degraded on the surviving workers.
    WorkerFailure {
        /// Worker index that died.
        worker: usize,
        /// BFS level being processed when it died (0 on the
        /// barrier-free work-stealing engine, which has no levels).
        level: u64,
        /// Claimed parents re-queued for the surviving workers.
        requeued: u64,
    },
    /// An exploration resumed from an on-disk snapshot instead of
    /// restarting.
    Resume {
        /// Sequence number of the snapshot resumed from.
        seq: u64,
        /// States restored from the snapshot.
        states: u64,
        /// Transitions restored from the snapshot.
        transitions: u64,
        /// Frontier states awaiting expansion.
        frontier: u64,
    },
    /// A parallel liveness worker finished its component-claiming
    /// loop.
    LivenessWorker {
        /// Worker index.
        worker: usize,
        /// Components the worker claimed and analyzed.
        components: u64,
        /// Fairness-satisfiable violation candidates it found.
        candidates: u64,
    },
    /// The bounded-memory engine spilled a tier to disk (sealed an
    /// arena/edge segment or wrote a visited-set fingerprint run).
    Spill {
        /// Which tier spilled: `"arena"`, `"edges"`, or `"visited"`.
        tier: &'a str,
        /// Sequence number of the spilled artifact within its tier.
        seq: u64,
        /// Records written in this spill.
        records: u64,
        /// Bytes written in this spill.
        bytes: u64,
        /// Cumulative bytes spilled across all tiers so far.
        total_spilled_bytes: u64,
    },
    /// A configured memory budget could not be honored by the selected
    /// configuration (reduction-active or panic-injection runs are
    /// pinned to the in-RAM engines), so the run
    /// proceeds unbounded. An explicit `mem_budget_bytes` option
    /// additionally fails the run with a precondition error; this
    /// event alone marks an environment-derived budget being dropped.
    BudgetIgnored {
        /// The budget, in bytes, that is not being enforced.
        budget_bytes: u64,
        /// Why the selected configuration cannot honor it.
        reason: &'a str,
    },
    /// Segment-cache counters of a bounded-memory run (emitted once,
    /// before the run's final progress event).
    CacheStats {
        /// Reads answered by a resident segment.
        hits: u64,
        /// Reads that loaded a segment from disk.
        misses: u64,
        /// Segments evicted to respect the cache byte budget.
        evictions: u64,
        /// Bytes resident in the cache at emission time.
        resident_bytes: u64,
        /// Total bytes spilled to disk over the run.
        spilled_bytes: u64,
    },
    /// The engine run ended; carries the full report.
    RunEnd {
        /// The final report.
        report: &'a RunReport,
    },
}

impl Event<'_> {
    /// Stable wire name (the `"ev"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStart { .. } => "run_start",
            Event::PhaseEnter { .. } => "phase_enter",
            Event::PhaseExit { .. } => "phase_exit",
            Event::Progress { .. } => "progress",
            Event::WorkerLevel { .. } => "worker_level",
            Event::FaultActivation { .. } => "fault_activation",
            Event::Counterexample { .. } => "counterexample",
            Event::Check { .. } => "check",
            Event::Reduction { .. } => "reduction",
            Event::Checkpoint { .. } => "checkpoint",
            Event::WorkerFailure { .. } => "worker_failure",
            Event::Resume { .. } => "resume",
            Event::LivenessWorker { .. } => "liveness_worker",
            Event::Spill { .. } => "spill",
            Event::BudgetIgnored { .. } => "budget_ignored",
            Event::CacheStats { .. } => "cache_stats",
            Event::RunEnd { .. } => "run_end",
        }
    }
}

// ---------------------------------------------------------------------
// Recorders
// ---------------------------------------------------------------------

/// A sink for engine [`Event`]s.
///
/// Implementations must be `Send + Sync`: one recorder is shared by
/// every worker of a parallel run. The hot loops consult
/// [`Recorder::enabled`] once per run and skip instrumentation
/// entirely when it is `false`, so a disabled recorder costs one
/// boolean.
pub trait Recorder: Send + Sync {
    /// Whether events should be produced at all. Engines hoist this
    /// out of their hot loops.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. Called outside the allocation-free hot
    /// path (sampled checkpoints, phase boundaries, run boundaries),
    /// so implementations may format or lock here.
    fn record(&self, event: &Event<'_>);
}

/// The default recorder: discards everything,
/// [`Recorder::enabled`]` == false`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event<'_>) {}
}

/// Lock-free tallying recorder: event counts in `AtomicU64`s, plus
/// monotonic per-phase wall-clock accumulators and the totals of the
/// last [`RunReport`] seen.
///
/// The state/transition/depth totals come from the engine's final
/// report — the same [`GraphStats`](crate::GraphStats) the sequential
/// engine computes — so they are exact, not sampled.
#[derive(Debug)]
pub struct CountingRecorder {
    epoch: Instant,
    events: AtomicU64,
    run_starts: AtomicU64,
    run_ends: AtomicU64,
    progress: AtomicU64,
    worker_levels: AtomicU64,
    faults: AtomicU64,
    counterexamples: AtomicU64,
    checks: AtomicU64,
    reductions: AtomicU64,
    checkpoints: AtomicU64,
    worker_failures: AtomicU64,
    resumes: AtomicU64,
    liveness_workers: AtomicU64,
    spills: AtomicU64,
    budget_ignored_events: AtomicU64,
    cache_stats_events: AtomicU64,
    /// Cumulative spilled bytes of the most recent spill event.
    spilled_bytes: AtomicU64,
    /// Ample/full/skipped/canon totals of the most recent reduction
    /// event.
    red_ample_states: AtomicU64,
    red_full_states: AtomicU64,
    red_skipped_transitions: AtomicU64,
    red_canon_hits: AtomicU64,
    /// Totals of the most recent run report.
    states: AtomicU64,
    transitions: AtomicU64,
    depth: AtomicU64,
    /// Per-phase entry timestamp (nanos since epoch; `u64::MAX` when
    /// not inside the phase) and accumulated nanos.
    phase_entered: [AtomicU64; PHASE_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
}

impl Default for CountingRecorder {
    fn default() -> Self {
        CountingRecorder::new()
    }
}

impl CountingRecorder {
    /// A fresh recorder with all counters at zero.
    pub fn new() -> Self {
        CountingRecorder {
            epoch: Instant::now(),
            events: AtomicU64::new(0),
            run_starts: AtomicU64::new(0),
            run_ends: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            worker_levels: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            counterexamples: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            reductions: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            worker_failures: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            liveness_workers: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            budget_ignored_events: AtomicU64::new(0),
            cache_stats_events: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            red_ample_states: AtomicU64::new(0),
            red_full_states: AtomicU64::new(0),
            red_skipped_transitions: AtomicU64::new(0),
            red_canon_hits: AtomicU64::new(0),
            states: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            phase_entered: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            phase_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Total events recorded.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// `run_start` events recorded.
    pub fn run_starts(&self) -> u64 {
        self.run_starts.load(Ordering::Relaxed)
    }

    /// `run_end` events recorded.
    pub fn run_ends(&self) -> u64 {
        self.run_ends.load(Ordering::Relaxed)
    }

    /// Progress snapshots recorded.
    pub fn progress_events(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Per-worker level reports recorded.
    pub fn worker_levels(&self) -> u64 {
        self.worker_levels.load(Ordering::Relaxed)
    }

    /// Fault activations recorded.
    pub fn fault_activations(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Counterexamples recorded.
    pub fn counterexamples(&self) -> u64 {
        self.counterexamples.load(Ordering::Relaxed)
    }

    /// Check results recorded.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// Reduction events recorded.
    pub fn reductions(&self) -> u64 {
        self.reductions.load(Ordering::Relaxed)
    }

    /// Checkpoint snapshots recorded.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Worker failures recorded.
    pub fn worker_failures(&self) -> u64 {
        self.worker_failures.load(Ordering::Relaxed)
    }

    /// Resume events recorded.
    pub fn resumes(&self) -> u64 {
        self.resumes.load(Ordering::Relaxed)
    }

    /// Liveness-worker summaries recorded.
    pub fn liveness_worker_events(&self) -> u64 {
        self.liveness_workers.load(Ordering::Relaxed)
    }

    /// Spill events recorded.
    pub fn spills(&self) -> u64 {
        self.spills.load(Ordering::Relaxed)
    }

    /// Budget-ignored diagnostics recorded.
    pub fn budget_ignored_events(&self) -> u64 {
        self.budget_ignored_events.load(Ordering::Relaxed)
    }

    /// Cache-stats events recorded.
    pub fn cache_stats_events(&self) -> u64 {
        self.cache_stats_events.load(Ordering::Relaxed)
    }

    /// Cumulative spilled bytes reported by the most recent spill
    /// event (zero if none was recorded).
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes.load(Ordering::Relaxed)
    }

    /// `(ample_states, full_states, skipped_transitions, canon_hits)`
    /// of the most recent reduction event (all zero if none was
    /// recorded).
    pub fn reduction_totals(&self) -> (u64, u64, u64, u64) {
        (
            self.red_ample_states.load(Ordering::Relaxed),
            self.red_full_states.load(Ordering::Relaxed),
            self.red_skipped_transitions.load(Ordering::Relaxed),
            self.red_canon_hits.load(Ordering::Relaxed),
        )
    }

    /// Unique states of the last completed run.
    pub fn states(&self) -> u64 {
        self.states.load(Ordering::Relaxed)
    }

    /// Transitions of the last completed run.
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// BFS depth of the last completed run.
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Accumulated wall-clock nanoseconds spent inside `phase`.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()].load(Ordering::Relaxed)
    }
}

impl Recorder for CountingRecorder {
    fn record(&self, event: &Event<'_>) {
        self.events.fetch_add(1, Ordering::Relaxed);
        match event {
            Event::RunStart { .. } => {
                self.run_starts.fetch_add(1, Ordering::Relaxed);
            }
            Event::RunEnd { report } => {
                self.run_ends.fetch_add(1, Ordering::Relaxed);
                self.states.store(report.states as u64, Ordering::Relaxed);
                self.transitions
                    .store(report.transitions as u64, Ordering::Relaxed);
                self.depth.store(report.depth as u64, Ordering::Relaxed);
            }
            Event::Progress { .. } => {
                self.progress.fetch_add(1, Ordering::Relaxed);
            }
            Event::WorkerLevel { .. } => {
                self.worker_levels.fetch_add(1, Ordering::Relaxed);
            }
            Event::FaultActivation { .. } => {
                self.faults.fetch_add(1, Ordering::Relaxed);
            }
            Event::Counterexample { .. } => {
                self.counterexamples.fetch_add(1, Ordering::Relaxed);
            }
            Event::Check { .. } => {
                self.checks.fetch_add(1, Ordering::Relaxed);
            }
            Event::Reduction {
                ample_states,
                full_states,
                skipped_transitions,
                canon_hits,
            } => {
                self.reductions.fetch_add(1, Ordering::Relaxed);
                self.red_ample_states.store(*ample_states, Ordering::Relaxed);
                self.red_full_states.store(*full_states, Ordering::Relaxed);
                self.red_skipped_transitions
                    .store(*skipped_transitions, Ordering::Relaxed);
                self.red_canon_hits.store(*canon_hits, Ordering::Relaxed);
            }
            Event::Checkpoint { .. } => {
                self.checkpoints.fetch_add(1, Ordering::Relaxed);
            }
            Event::WorkerFailure { .. } => {
                self.worker_failures.fetch_add(1, Ordering::Relaxed);
            }
            Event::Resume { .. } => {
                self.resumes.fetch_add(1, Ordering::Relaxed);
            }
            Event::LivenessWorker { .. } => {
                self.liveness_workers.fetch_add(1, Ordering::Relaxed);
            }
            Event::Spill {
                total_spilled_bytes,
                ..
            } => {
                self.spills.fetch_add(1, Ordering::Relaxed);
                self.spilled_bytes
                    .store(*total_spilled_bytes, Ordering::Relaxed);
            }
            Event::BudgetIgnored { .. } => {
                self.budget_ignored_events.fetch_add(1, Ordering::Relaxed);
            }
            Event::CacheStats { .. } => {
                self.cache_stats_events.fetch_add(1, Ordering::Relaxed);
            }
            Event::PhaseEnter { phase } => {
                self.phase_entered[phase.index()]
                    .store(self.now_nanos(), Ordering::Relaxed);
            }
            Event::PhaseExit { phase } => {
                let entered =
                    self.phase_entered[phase.index()].swap(u64::MAX, Ordering::Relaxed);
                if entered != u64::MAX {
                    let spent = self.now_nanos().saturating_sub(entered);
                    self.phase_nanos[phase.index()].fetch_add(spent, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Serializes every event as one JSON line into a shared writer.
///
/// Lines are written under a mutex — events are emitted at sampled
/// cadence, never from the allocation-free hot loop, so the lock is
/// cold. Timestamps (`"t"`, nanoseconds since the recorder was
/// created) are taken *inside* the lock, which makes them monotonic in
/// file order regardless of the emitting thread.
pub struct JsonlRecorder {
    epoch: Instant,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlRecorder").finish_non_exhaustive()
    }
}

impl JsonlRecorder {
    /// Records into an arbitrary writer (e.g. an in-memory buffer for
    /// tests).
    pub fn from_writer(writer: impl Write + Send + 'static) -> Self {
        JsonlRecorder {
            epoch: Instant::now(),
            sink: Mutex::new(Box::new(writer)),
        }
    }

    /// Creates (truncating) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors from creating the file.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlRecorder::from_writer(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }

    /// Opens `path` for appending (creating it if missing) — the mode
    /// [`global`] uses, so successive runs accumulate in one stream.
    ///
    /// # Errors
    ///
    /// I/O errors from opening the file.
    pub fn append(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlRecorder::from_writer(std::io::BufWriter::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        )))
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) {
        let _ = self.sink.lock().unwrap().flush();
    }

    // Flushing every line keeps the stream durable and live-tailable:
    // the process-wide recorder [`global`] installs lives in a
    // `OnceLock` and is never dropped, so `Drop`'s flush cannot be
    // relied on, and events are emitted at sampled cadence — never
    // from the allocation-free hot loop — so the extra write syscall
    // per event is noise.
    fn write_line(&self, body: &str) {
        let mut sink = self.sink.lock().unwrap();
        let t = self.epoch.elapsed().as_nanos() as u64;
        let _ = writeln!(sink, "{{\"v\":{OBS_SCHEMA_VERSION},\"t\":{t},{body}}}");
        let _ = sink.flush();
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        if let Ok(sink) = self.sink.get_mut() {
            let _ = sink.flush();
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event<'_>) {
        let mut body = format!("\"ev\":\"{}\"", event.kind());
        match event {
            Event::RunStart {
                engine,
                threads,
                mode,
            } => {
                body.push_str(&format!(
                    ",\"engine\":{},\"threads\":{threads},\"mode\":{}",
                    json_str(engine),
                    json_str(mode)
                ));
            }
            Event::PhaseEnter { phase } | Event::PhaseExit { phase } => {
                body.push_str(&format!(",\"phase\":\"{}\"", phase.name()));
            }
            Event::Progress { snapshot } => {
                body.push_str(&format!(
                    ",\"states\":{},\"transitions\":{},\"elapsed_nanos\":{},\
                     \"states_per_sec\":{:.0}",
                    snapshot.states,
                    snapshot.transitions,
                    snapshot.elapsed_nanos,
                    snapshot.states_per_sec()
                ));
                if let Some(f) = snapshot.frontier {
                    body.push_str(&format!(",\"frontier\":{f}"));
                }
                if let Some(l) = snapshot.level {
                    body.push_str(&format!(",\"level\":{l}"));
                }
                if let Some(w) = snapshot.worker {
                    body.push_str(&format!(",\"worker\":{w}"));
                }
                if let Some(b) = snapshot.budget_states {
                    body.push_str(&format!(",\"budget_states\":{b}"));
                }
                if let Some(b) = snapshot.budget_transitions {
                    body.push_str(&format!(",\"budget_transitions\":{b}"));
                }
            }
            Event::WorkerLevel {
                worker,
                level,
                claimed,
                inserted,
            } => {
                body.push_str(&format!(
                    ",\"worker\":{worker},\"level\":{level},\"claimed\":{claimed},\
                     \"inserted\":{inserted}"
                ));
            }
            Event::FaultActivation { action, step, kind } => {
                body.push_str(&format!(
                    ",\"action\":{},\"step\":{step},\"kind\":{}",
                    json_str(action),
                    json_str(kind)
                ));
            }
            Event::Counterexample {
                kind,
                reason,
                length,
                loop_start,
                fault_steps,
            } => {
                body.push_str(&format!(
                    ",\"kind\":{},\"reason\":{},\"length\":{length},\"fault_steps\":{fault_steps}",
                    json_str(kind),
                    json_str(reason)
                ));
                if let Some(l) = loop_start {
                    body.push_str(&format!(",\"loop_start\":{l}"));
                }
            }
            Event::Check { kind, name, holds } => {
                body.push_str(&format!(
                    ",\"kind\":{},\"name\":{},\"holds\":{holds}",
                    json_str(kind),
                    json_str(name)
                ));
            }
            Event::Reduction {
                ample_states,
                full_states,
                skipped_transitions,
                canon_hits,
            } => {
                body.push_str(&format!(
                    ",\"ample_states\":{ample_states},\"full_states\":{full_states},\
                     \"skipped_transitions\":{skipped_transitions},\
                     \"canon_hits\":{canon_hits}"
                ));
            }
            Event::Checkpoint {
                seq,
                states,
                transitions,
                frontier,
            }
            | Event::Resume {
                seq,
                states,
                transitions,
                frontier,
            } => {
                body.push_str(&format!(
                    ",\"seq\":{seq},\"states\":{states},\
                     \"transitions\":{transitions},\"frontier\":{frontier}"
                ));
            }
            Event::WorkerFailure {
                worker,
                level,
                requeued,
            } => {
                body.push_str(&format!(
                    ",\"worker\":{worker},\"level\":{level},\"requeued\":{requeued}"
                ));
            }
            Event::LivenessWorker {
                worker,
                components,
                candidates,
            } => {
                body.push_str(&format!(
                    ",\"worker\":{worker},\"components\":{components},\
                     \"candidates\":{candidates}"
                ));
            }
            Event::Spill {
                tier,
                seq,
                records,
                bytes,
                total_spilled_bytes,
            } => {
                body.push_str(&format!(
                    ",\"tier\":{},\"seq\":{seq},\"records\":{records},\"bytes\":{bytes},\
                     \"total_spilled_bytes\":{total_spilled_bytes}",
                    json_str(tier)
                ));
            }
            Event::BudgetIgnored {
                budget_bytes,
                reason,
            } => {
                body.push_str(&format!(
                    ",\"budget_bytes\":{budget_bytes},\"reason\":{}",
                    json_str(reason)
                ));
            }
            Event::CacheStats {
                hits,
                misses,
                evictions,
                resident_bytes,
                spilled_bytes,
            } => {
                body.push_str(&format!(
                    ",\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions},\
                     \"resident_bytes\":{resident_bytes},\"spilled_bytes\":{spilled_bytes}"
                ));
            }
            Event::RunEnd { report } => {
                body.push_str(&format!(",\"report\":{}", report.to_json()));
            }
        }
        self.write_line(&body);
    }
}

// ---------------------------------------------------------------------
// Handles, env routing, and helpers
// ---------------------------------------------------------------------

/// A cheap, cloneable, always-`Send + Sync` reference to a recorder.
///
/// `None` inside means the null recorder — the default — without an
/// allocation. This is the form engines carry (inside
/// [`Budget`](crate::Budget)) and consult on the hot path.
#[derive(Clone, Default)]
pub struct RecorderHandle {
    inner: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("RecorderHandle(null)"),
            Some(r) => write!(
                f,
                "RecorderHandle({})",
                if r.enabled() { "enabled" } else { "disabled" }
            ),
        }
    }
}

impl RecorderHandle {
    /// The null handle (no recorder, zero overhead).
    pub fn null() -> Self {
        RecorderHandle { inner: None }
    }

    /// Wraps a shared recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle {
            inner: Some(recorder),
        }
    }

    /// Whether events should be produced. Hoist this out of hot loops.
    pub fn enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|r| r.enabled())
    }

    /// Forwards one event (no-op when disabled).
    pub fn record(&self, event: &Event<'_>) {
        if let Some(r) = &self.inner {
            if r.enabled() {
                r.record(event);
            }
        }
    }
}

/// RAII phase bracket: emits [`Event::PhaseEnter`] on construction and
/// the matching [`Event::PhaseExit`] on drop, so early returns and `?`
/// propagation cannot leave a phase open.
pub struct PhaseGuard {
    handle: Option<(RecorderHandle, Phase)>,
}

impl PhaseGuard {
    /// Enters `phase` on `handle` (a no-op guard when the handle is
    /// disabled).
    pub fn enter(handle: &RecorderHandle, phase: Phase) -> PhaseGuard {
        if handle.enabled() {
            handle.record(&Event::PhaseEnter { phase });
            PhaseGuard {
                handle: Some((handle.clone(), phase)),
            }
        } else {
            PhaseGuard { handle: None }
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((handle, phase)) = self.handle.take() {
            handle.record(&Event::PhaseExit { phase });
        }
    }
}

/// The name of the routing environment variable: set
/// `OPENTLA_OBS=/path.jsonl` and every engine that did not receive an
/// explicit recorder appends its events there.
pub const OBS_ENV: &str = "OPENTLA_OBS";

/// The process-wide default recorder, initialized once from
/// [`OBS_ENV`]: an appending [`JsonlRecorder`] when the variable names
/// a writable path, the null handle otherwise. `Budget::default()`
/// starts from this handle, which is how the env routing reaches every
/// engine.
pub fn global() -> RecorderHandle {
    static GLOBAL: OnceLock<RecorderHandle> = OnceLock::new();
    GLOBAL
        .get_or_init(|| match std::env::var(OBS_ENV) {
            Ok(path) if !path.trim().is_empty() => match JsonlRecorder::append(path.trim())
            {
                Ok(rec) => RecorderHandle::new(Arc::new(rec)),
                Err(e) => {
                    eprintln!("opentla: {OBS_ENV}={path}: {e}; observability disabled");
                    RecorderHandle::null()
                }
            },
            _ => RecorderHandle::null(),
        })
        .clone()
}

/// How many of a counterexample's trace steps fired a fault-injection
/// action (actions named by the `faults` combinators carry a
/// `"fault:"` prefix).
pub fn count_fault_steps(actions: &[Option<String>]) -> usize {
    actions
        .iter()
        .flatten()
        .filter(|a| a.starts_with("fault:"))
        .count()
}

/// Emits a [`Event::Counterexample`] with provenance — and one
/// [`Event::FaultActivation`] per fault-injection step on the trace —
/// for a counterexample produced by check `kind`.
pub fn emit_counterexample(handle: &RecorderHandle, kind: &str, cx: &crate::Counterexample) {
    if !handle.enabled() {
        return;
    }
    for (step, action) in cx.actions().iter().enumerate() {
        if let Some(a) = action {
            if a.starts_with("fault:") {
                handle.record(&Event::FaultActivation {
                    action: a,
                    step: step as u64,
                    kind: "fired",
                });
            }
        }
    }
    handle.record(&Event::Counterexample {
        kind,
        reason: cx.reason(),
        length: cx.states().len(),
        loop_start: cx.loop_start(),
        fault_steps: count_fault_steps(cx.actions()),
    });
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Stream validation (the module's own consumer)
// ---------------------------------------------------------------------

/// A parsed JSON value — the minimal in-tree parser used to validate
/// event streams without external dependencies.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object's keys, in source order.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let Json::Str(key) = parse_value(bytes, pos)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut out = String::new();
            loop {
                let Some(&c) = bytes.get(*pos) else {
                    return Err("unterminated string".into());
                };
                *pos += 1;
                match c {
                    b'"' => return Ok(Json::Str(out)),
                    b'\\' => {
                        let Some(&esc) = bytes.get(*pos) else {
                            return Err("unterminated escape".into());
                        };
                        *pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = bytes
                                    .get(*pos..*pos + 4)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                *pos += 4;
                                out.push(
                                    char::from_u32(code).unwrap_or('\u{fffd}'),
                                );
                            }
                            other => {
                                return Err(format!("bad escape '\\{}'", other as char))
                            }
                        }
                    }
                    c => {
                        // Re-decode multi-byte UTF-8 from the source.
                        if c < 0x80 {
                            out.push(c as char);
                        } else {
                            let start = *pos - 1;
                            let width = match c {
                                0xc0..=0xdf => 2,
                                0xe0..=0xef => 3,
                                _ => 4,
                            };
                            let slice = bytes
                                .get(start..start + width)
                                .ok_or("truncated UTF-8 sequence")?;
                            out.push_str(
                                std::str::from_utf8(slice).map_err(|e| e.to_string())?,
                            );
                            *pos = start + width;
                        }
                    }
                }
            }
        }
        b't' if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        b'f' if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        b'n' if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        _ => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

/// Totals of one completed run, extracted by [`validate_stream`] from
/// its `run_end` report.
#[derive(Clone, Debug, PartialEq)]
pub struct RunTotals {
    /// Engine name.
    pub engine: String,
    /// Worker threads.
    pub threads: u64,
    /// Visited-set mode.
    pub mode: String,
    /// Unique states.
    pub states: u64,
    /// Transitions.
    pub transitions: u64,
    /// BFS depth.
    pub depth: u64,
    /// Whether the run completed.
    pub complete: bool,
}

/// What [`validate_stream`] learned about a schema-valid stream.
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Total events.
    pub events: usize,
    /// Event count per kind.
    pub kinds: BTreeMap<String, usize>,
    /// For every event kind seen, the set of field names observed
    /// (union across events of that kind) — the stream's *shape*, for
    /// golden tests that must not depend on timings.
    pub fields: BTreeMap<String, Vec<String>>,
    /// Totals of each completed run, in stream order.
    pub runs: Vec<RunTotals>,
    /// Deepest phase nesting observed.
    pub max_phase_depth: usize,
}

fn req_u64(obj: &Json, key: &str, line: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {line}: missing/invalid \"{key}\""))
}

fn req_str<'j>(obj: &'j Json, key: &str, line: usize) -> Result<&'j str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {line}: missing/invalid \"{key}\""))
}

/// Validates a JSONL event stream against the schema.
///
/// Checks, per line: it parses; `"v"` equals [`OBS_SCHEMA_VERSION`];
/// `"t"` is present and non-decreasing in file order (the recorder
/// timestamps under its write lock, so this holds across threads);
/// `"ev"` is a known kind carrying its required fields. Structurally:
/// phase enter/exit events obey stack discipline, runs do not nest,
/// every `run_start` is closed by a `run_end` whose engine matches,
/// and the last `progress` snapshot inside a run agrees with the final
/// report's state/transition totals.
///
/// # Errors
///
/// The first violation, as a human-readable string prefixed with the
/// 1-based line number.
pub fn validate_stream(text: &str) -> Result<StreamSummary, String> {
    let mut summary = StreamSummary::default();
    let mut last_t: u64 = 0;
    let mut phase_stack: Vec<String> = Vec::new();
    let mut open_run: Option<String> = None;
    let mut last_progress: Option<(u64, u64)> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let obj = Json::parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let v = req_u64(&obj, "v", line)?;
        if v != OBS_SCHEMA_VERSION {
            return Err(format!(
                "line {line}: schema version {v}, expected {OBS_SCHEMA_VERSION}"
            ));
        }
        let t = req_u64(&obj, "t", line)?;
        if t < last_t {
            return Err(format!(
                "line {line}: timestamp {t} went backwards (previous {last_t})"
            ));
        }
        last_t = t;
        let ev = req_str(&obj, "ev", line)?.to_string();
        summary.events += 1;
        *summary.kinds.entry(ev.clone()).or_insert(0) += 1;
        let fields = summary.fields.entry(ev.clone()).or_default();
        for k in obj.keys() {
            if !fields.iter().any(|f| f == k) {
                fields.push(k.to_string());
            }
        }
        match ev.as_str() {
            "run_start" => {
                let engine = req_str(&obj, "engine", line)?;
                req_u64(&obj, "threads", line)?;
                req_str(&obj, "mode", line)?;
                if let Some(open) = &open_run {
                    return Err(format!(
                        "line {line}: run_start({engine}) inside open run {open}"
                    ));
                }
                open_run = Some(engine.to_string());
                last_progress = None;
            }
            "run_end" => {
                let report = obj
                    .get("report")
                    .ok_or_else(|| format!("line {line}: run_end without report"))?;
                let engine = req_str(report, "engine", line)?;
                let sv = req_u64(report, "schema_version", line)?;
                if sv != OBS_SCHEMA_VERSION {
                    return Err(format!("line {line}: report schema version {sv}"));
                }
                match open_run.take() {
                    Some(open) if open == engine => {}
                    Some(open) => {
                        return Err(format!(
                            "line {line}: run_end({engine}) closes run_start({open})"
                        ))
                    }
                    None => {
                        return Err(format!("line {line}: run_end without run_start"))
                    }
                }
                let totals = RunTotals {
                    engine: engine.to_string(),
                    threads: req_u64(report, "threads", line)?,
                    mode: req_str(report, "mode", line)?.to_string(),
                    states: req_u64(report, "states", line)?,
                    transitions: req_u64(report, "transitions", line)?,
                    depth: req_u64(report, "depth", line)?,
                    complete: report
                        .get("complete")
                        .and_then(Json::as_bool)
                        .ok_or_else(|| format!("line {line}: report missing complete"))?,
                };
                req_u64(report, "duration_nanos", line)?;
                req_str(report, "outcome", line)?;
                if let Some((ps, pt)) = last_progress {
                    if totals.complete && (ps != totals.states || pt != totals.transitions)
                    {
                        return Err(format!(
                            "line {line}: final snapshot ({ps} states, {pt} transitions) \
                             disagrees with report ({} states, {} transitions)",
                            totals.states, totals.transitions
                        ));
                    }
                }
                summary.runs.push(totals);
            }
            "phase_enter" => {
                phase_stack.push(req_str(&obj, "phase", line)?.to_string());
                summary.max_phase_depth = summary.max_phase_depth.max(phase_stack.len());
            }
            "phase_exit" => {
                let phase = req_str(&obj, "phase", line)?;
                match phase_stack.pop() {
                    Some(top) if top == phase => {}
                    Some(top) => {
                        return Err(format!(
                            "line {line}: phase_exit({phase}) closes phase_enter({top})"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "line {line}: phase_exit({phase}) with empty phase stack"
                        ))
                    }
                }
            }
            "progress" => {
                let states = req_u64(&obj, "states", line)?;
                let transitions = req_u64(&obj, "transitions", line)?;
                req_u64(&obj, "elapsed_nanos", line)?;
                last_progress = Some((states, transitions));
            }
            "worker_level" => {
                req_u64(&obj, "worker", line)?;
                req_u64(&obj, "level", line)?;
                req_u64(&obj, "claimed", line)?;
                req_u64(&obj, "inserted", line)?;
            }
            "fault_activation" => {
                req_str(&obj, "action", line)?;
                req_u64(&obj, "step", line)?;
                req_str(&obj, "kind", line)?;
            }
            "counterexample" => {
                req_str(&obj, "kind", line)?;
                req_str(&obj, "reason", line)?;
                req_u64(&obj, "length", line)?;
                req_u64(&obj, "fault_steps", line)?;
            }
            "check" => {
                req_str(&obj, "kind", line)?;
                req_str(&obj, "name", line)?;
                obj.get("holds")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("line {line}: check missing holds"))?;
            }
            "reduction" => {
                req_u64(&obj, "ample_states", line)?;
                req_u64(&obj, "full_states", line)?;
                req_u64(&obj, "skipped_transitions", line)?;
                req_u64(&obj, "canon_hits", line)?;
            }
            "checkpoint" | "resume" => {
                req_u64(&obj, "seq", line)?;
                req_u64(&obj, "states", line)?;
                req_u64(&obj, "transitions", line)?;
                req_u64(&obj, "frontier", line)?;
            }
            "worker_failure" => {
                req_u64(&obj, "worker", line)?;
                req_u64(&obj, "level", line)?;
                req_u64(&obj, "requeued", line)?;
            }
            "liveness_worker" => {
                req_u64(&obj, "worker", line)?;
                req_u64(&obj, "components", line)?;
                req_u64(&obj, "candidates", line)?;
            }
            "spill" => {
                let tier = req_str(&obj, "tier", line)?;
                if !matches!(tier, "arena" | "edges" | "visited") {
                    return Err(format!("line {line}: unknown spill tier \"{tier}\""));
                }
                req_u64(&obj, "seq", line)?;
                req_u64(&obj, "records", line)?;
                req_u64(&obj, "bytes", line)?;
                req_u64(&obj, "total_spilled_bytes", line)?;
            }
            "budget_ignored" => {
                req_u64(&obj, "budget_bytes", line)?;
                req_str(&obj, "reason", line)?;
            }
            "cache_stats" => {
                req_u64(&obj, "hits", line)?;
                req_u64(&obj, "misses", line)?;
                req_u64(&obj, "evictions", line)?;
                req_u64(&obj, "resident_bytes", line)?;
                req_u64(&obj, "spilled_bytes", line)?;
            }
            other => return Err(format!("line {line}: unknown event kind \"{other}\"")),
        }
    }
    if let Some(open) = open_run {
        return Err(format!("stream ended inside open run {open}"));
    }
    if !phase_stack.is_empty() {
        return Err(format!("stream ended inside open phase(s) {phase_stack:?}"));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        let handle = RecorderHandle::null();
        assert!(!handle.enabled());
        handle.record(&Event::PhaseEnter {
            phase: Phase::Suite,
        });
        assert!(!RecorderHandle::default().enabled());
    }

    #[test]
    fn counting_recorder_tallies_and_times_phases() {
        let rec = CountingRecorder::new();
        rec.record(&Event::RunStart {
            engine: "explore_sequential",
            threads: 1,
            mode: "fingerprint",
        });
        rec.record(&Event::PhaseEnter {
            phase: Phase::ExploreExpand,
        });
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.record(&Event::PhaseExit {
            phase: Phase::ExploreExpand,
        });
        let report = RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: "explore_sequential".into(),
            threads: 1,
            mode: "fingerprint".into(),
            states: 42,
            transitions: 99,
            depth: 7,
            deadlocks: 1,
            outcome: "complete".into(),
            complete: true,
            duration_nanos: 5,
        };
        rec.record(&Event::RunEnd { report: &report });
        assert_eq!(rec.run_starts(), 1);
        assert_eq!(rec.run_ends(), 1);
        assert_eq!(rec.states(), 42);
        assert_eq!(rec.transitions(), 99);
        assert_eq!(rec.depth(), 7);
        assert!(rec.phase_nanos(Phase::ExploreExpand) > 0);
        assert_eq!(rec.phase_nanos(Phase::Liveness), 0);
        assert_eq!(rec.events(), 4);
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let rec = JsonlRecorder::from_writer(Shared(Arc::clone(&buf)));
        rec.record(&Event::RunStart {
            engine: "explore_sequential",
            threads: 1,
            mode: "fingerprint",
        });
        rec.record(&Event::PhaseEnter {
            phase: Phase::ExploreExpand,
        });
        rec.record(&Event::Progress {
            snapshot: ProgressSnapshot {
                states: 3,
                transitions: 2,
                elapsed_nanos: 10,
                frontier: Some(1),
                ..ProgressSnapshot::default()
            },
        });
        rec.record(&Event::PhaseExit {
            phase: Phase::ExploreExpand,
        });
        let report = RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: "explore_sequential".into(),
            threads: 1,
            mode: "fingerprint".into(),
            states: 3,
            transitions: 2,
            depth: 2,
            deadlocks: 1,
            outcome: "complete".into(),
            complete: true,
            duration_nanos: 11,
        };
        rec.record(&Event::RunEnd { report: &report });
        rec.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let summary = validate_stream(&text).expect("stream validates");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.runs.len(), 1);
        assert_eq!(summary.runs[0].states, 3);
        assert_eq!(summary.kinds["progress"], 1);
        assert_eq!(summary.max_phase_depth, 1);
    }

    #[test]
    fn liveness_worker_event_counts_serializes_and_validates() {
        let rec = CountingRecorder::new();
        rec.record(&Event::LivenessWorker {
            worker: 2,
            components: 17,
            candidates: 1,
        });
        assert_eq!(rec.liveness_worker_events(), 1);
        assert_eq!(rec.events(), 1);

        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let rec = JsonlRecorder::from_writer(Shared(Arc::clone(&buf)));
        rec.record(&Event::LivenessWorker {
            worker: 2,
            components: 17,
            candidates: 1,
        });
        rec.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let summary = validate_stream(&text).expect("stream validates");
        assert_eq!(summary.kinds["liveness_worker"], 1);
        // The fields are required: dropping one fails validation.
        let bad = "{\"v\":1,\"t\":1,\"ev\":\"liveness_worker\",\"worker\":0,\"components\":3}\n";
        assert!(validate_stream(bad).unwrap_err().contains("candidates"));
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        // Backwards timestamp.
        let bad = "{\"v\":1,\"t\":5,\"ev\":\"phase_enter\",\"phase\":\"suite\"}\n\
                   {\"v\":1,\"t\":4,\"ev\":\"phase_exit\",\"phase\":\"suite\"}\n";
        assert!(validate_stream(bad).unwrap_err().contains("backwards"));
        // Mismatched phase nesting.
        let bad = "{\"v\":1,\"t\":1,\"ev\":\"phase_enter\",\"phase\":\"suite\"}\n\
                   {\"v\":1,\"t\":2,\"ev\":\"phase_exit\",\"phase\":\"liveness\"}\n";
        assert!(validate_stream(bad).unwrap_err().contains("closes"));
        // Unclosed run.
        let bad = "{\"v\":1,\"t\":1,\"ev\":\"run_start\",\"engine\":\"e\",\"threads\":1,\"mode\":\"m\"}\n";
        assert!(validate_stream(bad).unwrap_err().contains("open run"));
        // Wrong version.
        let bad = "{\"v\":99,\"t\":1,\"ev\":\"progress\",\"states\":0,\"transitions\":0,\"elapsed_nanos\":0}\n";
        assert!(validate_stream(bad).unwrap_err().contains("schema version"));
        // Unknown kind.
        let bad = "{\"v\":1,\"t\":1,\"ev\":\"mystery\"}\n";
        assert!(validate_stream(bad).unwrap_err().contains("unknown event"));
    }

    #[test]
    fn json_parser_handles_escapes_and_structure() {
        let v = Json::parse(
            "{\"a\": [1, 2.5, -3], \"s\": \"x\\n\\\"y\\\" ⊳\", \"b\": true, \"n\": null}",
        )
        .unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(2.5),
            Json::Num(-3.0)
        ])));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\" ⊳"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1, 2").is_err());
    }

    #[test]
    fn fault_step_counting_and_emission() {
        let actions = vec![
            None,
            Some("deliver".to_string()),
            Some("fault:lossy[sync]".to_string()),
            Some("fault:crash[q]".to_string()),
        ];
        assert_eq!(count_fault_steps(&actions), 2);
        let counting = Arc::new(CountingRecorder::new());
        let handle = RecorderHandle::new(counting.clone());
        let blank = || opentla_kernel::State::new(Vec::<opentla_kernel::Value>::new());
        let cx = crate::Counterexample::new(
            "test",
            vec![blank(), blank(), blank(), blank()],
            actions,
            None,
        );
        emit_counterexample(&handle, "liveness", &cx);
        assert_eq!(counting.counterexamples(), 1);
        assert_eq!(counting.fault_activations(), 2);
    }

    #[test]
    fn report_json_is_parseable() {
        let report = RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: "explore_parallel".into(),
            threads: 4,
            mode: "exact".into(),
            states: 10,
            transitions: 20,
            depth: 5,
            deadlocks: 0,
            outcome: "exhausted (state limit of 10 reached)".into(),
            complete: false,
            duration_nanos: 1234,
        };
        let parsed = Json::parse(&report.to_json()).unwrap();
        assert_eq!(parsed.get("states").unwrap().as_u64(), Some(10));
        assert_eq!(parsed.get("engine").unwrap().as_str(), Some("explore_parallel"));
        assert_eq!(parsed.get("complete").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn phase_guard_brackets_even_on_early_exit() {
        let counting = Arc::new(CountingRecorder::new());
        let handle = RecorderHandle::new(counting.clone());
        let attempt = || -> Result<(), ()> {
            let _g = PhaseGuard::enter(&handle, Phase::Liveness);
            Err(())
        };
        assert!(attempt().is_err());
        // Enter and exit both fired despite the early return.
        assert_eq!(counting.events(), 2);
        assert!(counting.phase_nanos(Phase::Liveness) < u64::MAX);
    }
}
