//! Breadth-first state-space exploration.
//!
//! Every engine produces the same [`StateGraph`]: same state indices,
//! same edge lists, same [`GraphStats`], same counterexample traces.
//! One function, `route`, picks the engine once from the inputs,
//! checked top to bottom:
//!
//! | inputs | engine | run report name |
//! |---|---|---|
//! | reduction active | sequential reduced loop | `explore_sequential` |
//! | memory budget, 1 thread | `spill` | `explore_spill` |
//! | memory budget, >1 thread | `spill_ws` | `explore_spill_ws` |
//! | 1 thread | sequential loop | `explore_sequential` |
//! | >1 thread, checkpointing budget | sequential loop | `explore_sequential` |
//! | >1 thread, fingerprints narrowed below 64 bits | sequential loop | `explore_sequential` |
//! | >1 thread | work-stealing (`ws`) | `explore_parallel` |
//!
//! The sequential loop is the reference implementation: plain BFS over
//! the compiled successor stepper ([`crate::CompiledSystem`]). The
//! work-stealing engines recover its discovery order after the run with
//! a deterministic renumbering pass. Checkpointing multi-threaded runs
//! stay sequential because only the sequential loop takes periodic
//! snapshots; the work-stealing engine snapshots only at exhaustion.
//! Runs that force fingerprint collisions ([`ExploreOptions::fp_bits`]
//! below 64 in [`VisitedMode::Fingerprint`]) stay sequential because
//! the work-stealing engine keeps whichever colliding state arrives
//! first, so its conflation would depend on scheduling.
//!
//! Every engine deduplicates states through a [`VisitedMode`]: either
//! **fingerprinting** (the default — 64-bit hashes in the visited set,
//! full states only in an append-only arena) or an **exact** fallback
//! that keys the visited set by the full state. See [`VisitedMode`]
//! for the soundness trade-off.

use crate::budget::{Budget, ExhaustReason, Governed, Meter, Outcome};
use crate::checkpoint::{self, Checkpointer, ResumeToken, Snapshot};
use crate::compiled::{CompiledSystem, EvalScratch};
use crate::obs::{Event, Phase, PhaseGuard, ProgressSnapshot, RunReport, OBS_SCHEMA_VERSION};
use crate::reduction::{AmpleScratch, Canonicalize, PreparedReduction, Reduction, ReductionStats};
use crate::{CheckError, System};
use fxhash::FxHashMap;
use opentla_kernel::{State, Value, VarId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

// Every lock in the parallel engines guards state that is kept
// consistent *within* each critical section (pushes and map inserts
// happen together), so the shared poison-recovering [`lock`] is safe
// here: a panic that poisons a lock leaves the protected data
// structurally sound — the worker's in-flight *results* are repaired
// separately by the panic-isolation path. Propagating the poison would
// instead turn one worker's bug into a whole-run abort.
use crate::sync::{lock, Striped, NUM_SHARDS};

mod spill;
mod spill_ws;
mod ws;

/// How the explorer remembers which states it has already seen.
///
/// This is the classic TLC trade-off between speed and certainty:
///
/// * [`VisitedMode::Fingerprint`] (the default) stores only a 64-bit
///   hash of each state in the visited set. Two distinct states with
///   the same fingerprint are conflated, so a collision can only make
///   the explorer **miss** reachable states (an under-approximation) —
///   it never invents unreachable ones, so every state and trace in
///   the graph is still genuine. With `n` distinct states the
///   probability of any collision is about `n² / 2⁶⁵` (birthday
///   bound): ≈ 3 × 10⁻⁸ at a million states. This mirrors TLC, which
///   has run on this design for twenty-five years.
/// * [`VisitedMode::Exact`] keys the visited set by the full state:
///   no collisions possible, at the cost of hashing and storing whole
///   states. Use it when a run must be collision-free by construction
///   (e.g. when a check's verdict feeds a proof).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VisitedMode {
    /// 64-bit fingerprints in the visited set (fast; collisions
    /// under-approximate with probability ≈ n²/2⁶⁵).
    #[default]
    Fingerprint,
    /// Full states in the visited set (slower; exact).
    Exact,
}

/// Options controlling exploration.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Abort with [`CheckError::TooManyStates`] beyond this many
    /// reachable states. Default 1 000 000.
    pub max_states: usize,
    /// Visited-set representation. Default
    /// [`VisitedMode::Fingerprint`].
    pub mode: VisitedMode,
    /// Worker threads. `None` (the default) consults the
    /// `OPENTLA_EXPLORE_THREADS` environment variable, falling back to
    /// 1 (sequential). A resolved value above 1 routes [`explore`] /
    /// [`explore_governed`] through the work-stealing engine unless
    /// another row of the module docs' route table applies first.
    pub threads: Option<usize>,
    /// Fingerprint width in bits, 1..=64 (default 64). Values below 64
    /// mask the fingerprint, deliberately *forcing* collisions — a test
    /// knob for exercising the under-approximation and the
    /// [`VisitedMode::Exact`] fallback; production runs should leave
    /// this at 64. Narrowed fingerprint-mode runs stay on the
    /// sequential loop, whose conflation is deterministic.
    pub fp_bits: u32,
    /// State-space reduction (ample-set partial-order and/or symmetry
    /// reduction; see [`Reduction`]). Defaults to [`Reduction::none`]:
    /// the engines then take exactly their unreduced code paths. An
    /// active reduction runs on the sequential reduced loop at every
    /// thread count. Reduced graphs answer state-invariant queries
    /// only — liveness and step-invariant checks refuse them.
    pub reduction: Reduction,
    /// Fault-injection knob for the work-stealing engine's panic
    /// isolation: when set, exactly one worker deliberately panics
    /// mid-expansion (see [`WorkerPanic`]). The run must survive
    /// degraded — this exists so tests can prove it does. `None` (the
    /// default) injects nothing; the sequential loop ignores it.
    pub worker_panic: Option<WorkerPanic>,
    /// Approximate RAM ceiling, in bytes, for the exploration's state
    /// arena, edge lists, and visited set. Setting it (or exporting
    /// `OPENTLA_MEM_BUDGET`) routes the run to a bounded-memory engine
    /// — single-threaded runs to the sequential spill engine, parallel
    /// runs to the work-stealing spill engine — which spills sealed
    /// arena segments and sorted fingerprint runs to disk and keeps
    /// only a budget-sized working set in RAM. `None` (the default)
    /// keeps everything in RAM. Configurations that *cannot* honor a
    /// budget (reduction-active or panic-injection runs, which stay on
    /// the in-RAM engines) refuse an explicit budget with
    /// [`CheckError::Precondition`] and report an environment-derived
    /// one as ignored via [`Event::BudgetIgnored`](crate::Event) rather
    /// than silently exploring unbounded.
    pub mem_budget_bytes: Option<usize>,
}

/// Instructs one work-stealing worker to panic mid-expansion — test
/// instrumentation for the engine's panic isolation (see
/// [`ExploreOptions::worker_panic`]). The victim is whichever worker
/// makes the first claim past `after_claims`, counted globally across
/// all workers (a fire-once flag guarantees exactly one panic per
/// run). The panic fires inside the successor callback, *after* at
/// least one edge of the current parent was recorded, so it exercises
/// the roll-back-and-requeue recovery rather than a clean boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic arms once this many parents have been claimed
    /// run-wide (0 = panic during the first claimed parent).
    pub after_claims: u64,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 1_000_000,
            mode: VisitedMode::Fingerprint,
            threads: None,
            fp_bits: 64,
            reduction: Reduction::none(),
            worker_panic: None,
            mem_budget_bytes: None,
        }
    }
}

impl ExploreOptions {
    fn mask(&self) -> u64 {
        fp_mask(self.fp_bits)
    }
}

/// The engine an exploration runs on, decided once by [`route`]. It
/// drives both the dispatch and the [`RunReport`]'s engine name and
/// thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// The sequential loop, reduced or not.
    Sequential,
    /// The bounded-memory sequential engine under a byte budget.
    Spill { mem: usize },
    /// The bounded-memory work-stealing engine under a byte budget.
    SpillWs { threads: usize, mem: usize },
    /// The in-RAM work-stealing engine.
    Parallel { threads: usize },
}

impl Route {
    /// The engine name a [`RunReport`] carries.
    fn engine(self) -> &'static str {
        match self {
            Route::Sequential => "explore_sequential",
            Route::Spill { .. } => "explore_spill",
            Route::SpillWs { .. } => "explore_spill_ws",
            Route::Parallel { .. } => "explore_parallel",
        }
    }

    /// The workers that run.
    fn threads(self) -> usize {
        match self {
            Route::Sequential | Route::Spill { .. } => 1,
            Route::SpillWs { threads, .. } | Route::Parallel { threads } => threads,
        }
    }
}

/// The routing policy: the route table of the module docs, checked top
/// to bottom. A memory budget the chosen engine cannot honor is
/// reported as an [`Event::BudgetIgnored`]; when it was set explicitly
/// (not through `OPENTLA_MEM_BUDGET`) the run is refused instead.
///
/// # Errors
///
/// [`CheckError::Precondition`] for an explicit budget on a reduced or
/// panic-injection run.
fn route(options: &ExploreOptions, threads: usize, budget: &Budget) -> Result<Route, CheckError> {
    if let Some(mem) = options.mem_budget_bytes.or_else(env_mem_budget) {
        let pinned = if options.reduction.is_active() {
            "reduction-active runs are pinned to the in-RAM sequential loop"
        } else if options.worker_panic.is_some() {
            "panic-injection runs are pinned to the in-RAM engines"
        } else if threads == 1 {
            return Ok(Route::Spill { mem });
        } else {
            return Ok(Route::SpillWs { threads, mem });
        };
        budget.recorder.record(&Event::BudgetIgnored {
            budget_bytes: mem as u64,
            reason: pinned,
        });
        if options.mem_budget_bytes.is_some() {
            return Err(CheckError::Precondition {
                message: format!(
                    "mem_budget_bytes = {mem} cannot be honored: {pinned}; drop the \
                     budget or disable the conflicting option"
                ),
            });
        }
    }
    let forced_collisions = options.mode == VisitedMode::Fingerprint && options.fp_bits < 64;
    Ok(
        if options.reduction.is_active()
            || threads == 1
            || budget.checkpoint.is_some()
            || forced_collisions
        {
            Route::Sequential
        } else {
            Route::Parallel { threads }
        },
    )
}

fn fp_mask(fp_bits: u32) -> u64 {
    if fp_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << fp_bits.max(1)) - 1
    }
}

/// The `OPENTLA_EXPLORE_THREADS` override, if set to a positive
/// integer.
pub(crate) fn env_threads() -> Option<usize> {
    std::env::var("OPENTLA_EXPLORE_THREADS")
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
}

/// The `OPENTLA_MEM_BUDGET` override, if set to a positive byte
/// count. Mirrors [`env_threads`]: an explicit
/// [`ExploreOptions::mem_budget_bytes`] wins over the environment.
pub(crate) fn env_mem_budget() -> Option<usize> {
    std::env::var("OPENTLA_MEM_BUDGET")
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&n: &usize| n >= 1)
}

/// Summary statistics of a reachability graph; see
/// [`StateGraph::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of reachable states.
    pub states: usize,
    /// Number of (non-stuttering) transitions.
    pub transitions: usize,
    /// Number of states without outgoing transitions.
    pub deadlocks: usize,
    /// Longest shortest path from an initial state (BFS depth).
    pub depth: usize,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states, {} transitions, depth {}, {} deadlocks",
            self.states, self.transitions, self.depth, self.deadlocks
        )
    }
}

/// An edge of the reachability graph: which action fired and where it
/// leads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Index of the action in the system's action list.
    pub action: usize,
    /// Index of the target state in the graph.
    pub target: usize,
}

/// The visited set of a [`StateGraph`], in either representation.
#[derive(Clone, Debug)]
enum Visited {
    Exact(HashMap<State, usize>),
    Fingerprint {
        map: FxHashMap<u64, usize>,
        mask: u64,
    },
}

impl Visited {
    fn new(mode: VisitedMode, mask: u64) -> Visited {
        match mode {
            VisitedMode::Exact => Visited::Exact(HashMap::new()),
            VisitedMode::Fingerprint => Visited::Fingerprint {
                map: FxHashMap::default(),
                mask,
            },
        }
    }

    /// Looks up a state, returning its id if (a state with the same
    /// key as) it was seen, plus the fingerprint key for a subsequent
    /// [`Visited::insert`] (0 in exact mode).
    fn lookup(&self, s: &State) -> (Option<usize>, u64) {
        match self {
            Visited::Exact(map) => (map.get(s).copied(), 0),
            Visited::Fingerprint { map, mask } => {
                let fp = s.fingerprint() & mask;
                (map.get(&fp).copied(), fp)
            }
        }
    }

    /// Records a state under the key computed by [`Visited::lookup`].
    fn insert(&mut self, s: &State, fp: u64, id: usize) {
        match self {
            Visited::Exact(map) => {
                map.insert(s.clone(), id);
            }
            Visited::Fingerprint { map, .. } => {
                map.insert(fp, id);
            }
        }
    }

}

/// The reachable state graph of a [`System`], with a BFS tree for
/// shortest-trace reconstruction.
///
/// Exploration order is deterministic (BFS over the system's action
/// order), so state indices — and therefore counterexamples — are
/// reproducible. The parallel engine preserves this: its renumbering
/// pass restores the exact sequential ordering.
#[derive(Clone, Debug)]
pub struct StateGraph {
    states: Vec<State>,
    visited: Visited,
    init: Vec<usize>,
    edges: Vec<Vec<Edge>>,
    parents: Vec<Option<(usize, usize)>>,
    /// Whether any reduction pruned this graph (see
    /// [`StateGraph::is_reduced`]).
    reduced: bool,
    /// The symmetry canonicalizer the exploration ran under, if any —
    /// kept so lookups and counterexample concretization can map
    /// through orbits.
    canon: Option<Arc<dyn Canonicalize>>,
}

impl StateGraph {
    fn new(mode: VisitedMode, mask: u64) -> StateGraph {
        StateGraph {
            states: Vec::new(),
            visited: Visited::new(mode, mask),
            init: Vec::new(),
            edges: Vec::new(),
            parents: Vec::new(),
            reduced: false,
            canon: None,
        }
    }

    /// Number of reachable states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the graph is empty (no initial states).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Total number of (non-stuttering) transitions.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// The state with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: usize) -> &State {
        &self.states[id]
    }

    /// All reachable states in discovery order.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// The index of a state, if recorded.
    ///
    /// In fingerprint mode the candidate found by fingerprint is
    /// verified against the arena, so this never misattributes an
    /// index: a state displaced by a fingerprint collision (not
    /// recorded) answers `None`. On a symmetry-reduced graph the state
    /// is canonicalized first, so any member of a recorded orbit finds
    /// its representative.
    pub fn index_of(&self, s: &State) -> Option<usize> {
        let canonical;
        let s = match &self.canon {
            Some(c) => {
                canonical = c.canonicalize(s);
                &canonical
            }
            None => s,
        };
        let (candidate, _) = self.visited.lookup(s);
        let id = candidate?;
        match &self.visited {
            Visited::Exact(_) => Some(id),
            Visited::Fingerprint { .. } => (&self.states[id] == s).then_some(id),
        }
    }

    /// Whether this graph was built under an active [`Reduction`]. A
    /// reduced graph soundly answers *state-invariant* reachability
    /// (for properties respecting the reduction's observability and
    /// symmetry obligations), but omits interleavings — so
    /// [`crate::check_liveness`] and [`crate::check_step_invariant`]
    /// refuse it and require a full exploration instead (the ignoring
    /// problem; see [`crate::Reduction`]).
    pub fn is_reduced(&self) -> bool {
        self.reduced
    }

    /// The symmetry canonicalizer this graph was explored under.
    pub(crate) fn canonicalizer(&self) -> Option<&dyn Canonicalize> {
        self.canon.as_deref()
    }

    /// Indices of the initial states.
    pub fn init(&self) -> &[usize] {
        &self.init
    }

    /// Outgoing edges of a state.
    pub fn edges(&self, id: usize) -> &[Edge] {
        &self.edges[id]
    }

    /// States with no outgoing transition — "deadlocks" in the TLC
    /// sense. In TLA semantics these states merely stutter forever,
    /// which is often legitimate (a terminated protocol), but an
    /// unexpected deadlock usually signals an over-constrained guard.
    pub fn deadlocks(&self) -> Vec<usize> {
        (0..self.len()).filter(|i| self.edges[*i].is_empty()).collect()
    }

    /// Summary statistics of the graph: states, transitions, deadlock
    /// count, and the BFS depth (longest shortest path from an initial
    /// state).
    pub fn stats(&self) -> GraphStats {
        // BFS depth from all initial states.
        let mut depth = vec![usize::MAX; self.len()];
        let mut queue = std::collections::VecDeque::new();
        for &i in &self.init {
            depth[i] = 0;
            queue.push_back(i);
        }
        let mut max_depth = 0;
        while let Some(s) = queue.pop_front() {
            for e in &self.edges[s] {
                if depth[e.target] == usize::MAX {
                    depth[e.target] = depth[s] + 1;
                    max_depth = max_depth.max(depth[e.target]);
                    queue.push_back(e.target);
                }
            }
        }
        GraphStats {
            states: self.len(),
            transitions: self.edge_count(),
            deadlocks: self.deadlocks().len(),
            depth: max_depth,
        }
    }

    /// The shortest trace from an initial state to `id`, as
    /// `(action index leading into the state, state index)` pairs; the
    /// first entry has no action.
    pub fn trace_to(&self, id: usize) -> Vec<(Option<usize>, usize)> {
        let mut rev = Vec::new();
        let mut cur = id;
        loop {
            match self.parents[cur] {
                Some((pred, action)) => {
                    rev.push((Some(action), cur));
                    cur = pred;
                }
                None => {
                    rev.push((None, cur));
                    break;
                }
            }
        }
        rev.reverse();
        rev
    }

    /// Shortest path (sequence of `(action, state)` hops) from `from`
    /// to `to` inside the subgraph induced by `allowed` (a predicate on
    /// state indices). Returns `None` if unreachable.
    ///
    /// The path starts *after* `from`: an empty path means
    /// `from == to`.
    pub fn path_within(
        &self,
        from: usize,
        to: usize,
        mut allowed: impl FnMut(usize) -> bool,
    ) -> Option<Vec<(usize, usize)>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(s) = queue.pop_front() {
            for e in &self.edges[s] {
                if !allowed(e.target) || prev.contains_key(&e.target) || e.target == from
                {
                    continue;
                }
                prev.insert(e.target, (s, e.action));
                if e.target == to {
                    let mut rev = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, a) = prev[&cur];
                        rev.push((a, cur));
                        cur = p;
                    }
                    rev.reverse();
                    return Some(rev);
                }
                queue.push_back(e.target);
            }
        }
        None
    }
}

/// A (possibly partial) exploration: the graph built so far, how the
/// run ended, and — when the budget ran out — the BFS frontier still
/// waiting to be expanded.
///
/// Dereferences to its [`StateGraph`], so invariant checks and trace
/// reconstruction work on partial explorations unchanged.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The reachability graph built within budget. On a
    /// [`Outcome::Complete`] run this is the full reachable graph.
    pub graph: StateGraph,
    /// Whether the run covered the whole reachable space.
    pub outcome: Outcome,
    /// State indices discovered but not yet expanded when the run
    /// stopped (empty on complete runs). Edges out of these states are
    /// missing from `graph`. The sequential engine reports them in BFS
    /// queue order; multi-worker parallel runs in ascending index
    /// order.
    pub frontier: Vec<usize>,
    /// What the reduction pruned, when one was active (`None` on
    /// unreduced runs).
    pub reduction: Option<ReductionStats>,
    /// The run's resumable core, when it exhausted its budget at a
    /// resumable point (`None` on complete runs, and on runs cut off
    /// during initial-state enumeration — a partial init enumeration
    /// cannot be resumed soundly). This is the same snapshot an active
    /// [`Budget::with_checkpoint`] writes to disk;
    /// [`explore_escalating`] hands it straight back to the next
    /// attempt, in memory.
    pub snapshot: Option<Box<Snapshot>>,
}

impl std::ops::Deref for Exploration {
    type Target = StateGraph;

    fn deref(&self) -> &StateGraph {
        &self.graph
    }
}

impl Governed for Exploration {
    fn exhaustion(&self) -> Option<&ExhaustReason> {
        self.outcome.exhaustion()
    }
}

/// Explores the reachable states of a system breadth-first under a
/// resource [`Budget`].
///
/// Budget exhaustion is **not** an error: the result carries the
/// partial [`StateGraph`] (every state and edge recorded is genuinely
/// reachable), an [`Outcome::Exhausted`] tag with the reason and
/// statistics, and the unexpanded BFS frontier. Unique states are
/// counted once, at insertion — the initial-state loop and the
/// successor loop charge the same meter, so the limit trips at exactly
/// `max_states` regardless of where the frontier stood.
///
/// Uses default [`ExploreOptions`] (fingerprinted visited set;
/// `OPENTLA_EXPLORE_THREADS` consulted for the engine); see
/// [`explore_governed_with`] for full control.
///
/// # Errors
///
/// * [`CheckError::NoInitialStates`] if the initial specification is
///   empty;
/// * evaluation/domain errors from firing actions.
pub fn explore_governed(system: &System, budget: &Budget) -> Result<Exploration, CheckError> {
    explore_governed_with(system, budget, &ExploreOptions::default())
}

/// [`explore_governed`] with explicit [`ExploreOptions`] (visited-set
/// mode, thread count, fingerprint width). `options.max_states` is
/// ignored here — the budget governs.
///
/// # Errors
///
/// As [`explore_governed`].
pub fn explore_governed_with(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
) -> Result<Exploration, CheckError> {
    let threads = options.threads.or_else(env_threads).unwrap_or(1).max(1);
    explore_observed(system, budget, options, threads, None)
}

/// Crash-tolerant exploration: continues from the snapshot at the
/// budget's [`CheckpointSpec`](crate::CheckpointSpec) path if one
/// exists, and starts a fresh (checkpointed) run otherwise — so the
/// *same call* works before and after an interruption, TLC
/// `-recover`-style.
///
/// The resumed run re-expands only the snapshot's frontier: O(new
/// work), not O(total). Its cumulative state/transition totals (the
/// meter is pre-charged with the snapshot's banked work) and — once
/// complete — its [`StateGraph`] are byte-identical to an
/// uninterrupted run's.
///
/// # Errors
///
/// * [`CheckError::Precondition`] if the budget has no
///   [`Budget::with_checkpoint`] spec;
/// * [`CheckError::Checkpoint`] if the snapshot file exists but is
///   corrupt, truncated, of an unsupported version, or was taken under
///   a different system or configuration;
/// * otherwise as [`explore_governed`].
pub fn explore_resumable(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
) -> Result<Exploration, CheckError> {
    let Some(spec) = &budget.checkpoint else {
        return Err(CheckError::Precondition {
            message: "explore_resumable requires a budget with a checkpoint spec \
                      (Budget::with_checkpoint)"
                .into(),
        });
    };
    if spec.path.exists() {
        let snap = Snapshot::load(&spec.path)?;
        resume_exploration(system, budget, options, &snap)
    } else {
        explore_governed_with(system, budget, options)
    }
}

/// Continues an exploration from an in-memory [`Snapshot`] (use
/// [`explore_resumable`] for the load-from-disk path).
///
/// The snapshot is validated first: resuming under a different system,
/// fingerprint width, [`VisitedMode`], or reduction activity is
/// refused with a typed error rather than silently producing a wrong
/// graph. Any engine may resume any snapshot — thread count is not
/// pinned, because the parallel engine's canonical renumbering makes
/// the result independent of it.
///
/// # Errors
///
/// * [`CheckError::Checkpoint`] with
///   [`CheckpointError::Mismatch`](crate::CheckpointError::Mismatch)
///   if the snapshot does not match `system` / `options`;
/// * otherwise as [`explore_governed`].
pub fn resume_exploration(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    snapshot: &Snapshot,
) -> Result<Exploration, CheckError> {
    snapshot.validate(system, options)?;
    let threads = options.threads.or_else(env_threads).unwrap_or(1).max(1);
    if snapshot.spill.is_some() {
        // A spill snapshot references on-disk segment files; expand it
        // to the in-RAM form once, here, so every engine resumes from
        // the same materialized arena.
        let materialized = snapshot.clone().materialize(system)?;
        return explore_observed(system, budget, options, threads, Some(&materialized));
    }
    explore_observed(system, budget, options, threads, Some(snapshot))
}

/// [`escalate`](crate::escalate) specialized to exploration, with the
/// retries *resuming* instead of restarting: each exhausted attempt
/// leaves its frontier in [`Exploration::snapshot`], and the next
/// attempt (under a `factor`-times larger budget) continues from
/// exactly there. Total work across all attempts is therefore O(final
/// state space), not O(attempts × state space) — the quadratic
/// throwaway of restart-based escalation is gone.
///
/// Returns the first complete result, or the last partial one if every
/// attempt exhausted. Attempts cut off during initial-state
/// enumeration restart (there is nothing sound to resume).
///
/// # Errors
///
/// As [`explore_governed`].
pub fn explore_escalating(
    system: &System,
    budget: &Budget,
    factor: u32,
    attempts: usize,
    options: &ExploreOptions,
) -> Result<Exploration, CheckError> {
    let threads = options.threads.or_else(env_threads).unwrap_or(1).max(1);
    let mut current = budget.clone();
    let mut result = explore_observed(system, &current, options, threads, None)?;
    for _ in 1..attempts.max(1) {
        if result.outcome.is_complete() {
            break;
        }
        current = current.escalated(factor);
        let snap = result.snapshot.take();
        result = explore_observed(system, &current, options, threads, snap.as_deref())?;
    }
    Ok(result)
}

/// Runs the engine `route` picked.
fn explore_dispatch(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    route: Route,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    match route {
        Route::Sequential => explore_sequential(system, budget, options, resume),
        Route::Spill { mem } => spill::explore_spill(system, budget, options, mem, resume),
        Route::SpillWs { threads, mem } => {
            spill_ws::explore_spill_ws(system, budget, options, threads, mem, resume)
        }
        Route::Parallel { threads } => ws::explore_ws(system, budget, options, threads, resume),
    }
}

/// Routes the run, then brackets its dispatch in [`Event::RunStart`] /
/// [`Event::RunEnd`] when the budget carries an enabled recorder,
/// emitting a final *exact* progress snapshot (from the finished
/// graph's statistics, so it agrees with the report by construction)
/// and the schema-versioned [`RunReport`]. With the default null
/// recorder this is a single branch.
fn explore_observed(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    threads: usize,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    let route = route(options, threads, budget)?;
    let rec = budget.recorder.clone();
    if !rec.enabled() {
        return explore_dispatch(system, budget, options, route, resume);
    }
    let (engine, threads) = (route.engine(), route.threads());
    let mode = match options.mode {
        VisitedMode::Fingerprint => "fingerprint",
        VisitedMode::Exact => "exact",
    };
    rec.record(&Event::RunStart {
        engine,
        threads,
        mode,
    });
    if let Some(snap) = resume {
        rec.record(&Event::Resume {
            seq: snap.seq,
            states: snap.states_used() as u64,
            transitions: snap.transitions_used() as u64,
            frontier: snap.frontier_len() as u64,
        });
    }
    let start = std::time::Instant::now();
    let result = explore_dispatch(system, budget, options, route, resume);
    let report = match &result {
        Ok(run) => {
            let stats = run.graph.stats();
            if let Some(red) = &run.reduction {
                rec.record(&Event::Reduction {
                    ample_states: red.ample_states as u64,
                    full_states: red.full_states as u64,
                    skipped_transitions: red.skipped_transitions as u64,
                    canon_hits: red.canon_hits as u64,
                });
            }
            rec.record(&Event::Progress {
                snapshot: ProgressSnapshot {
                    states: stats.states as u64,
                    transitions: stats.transitions as u64,
                    elapsed_nanos: start.elapsed().as_nanos() as u64,
                    frontier: Some(run.frontier.len() as u64),
                    ..ProgressSnapshot::default()
                },
            });
            RunReport {
                schema_version: OBS_SCHEMA_VERSION,
                engine: engine.to_string(),
                threads,
                mode: mode.to_string(),
                states: stats.states,
                transitions: stats.transitions,
                depth: stats.depth,
                deadlocks: stats.deadlocks,
                outcome: run.outcome.to_string(),
                complete: run.outcome.is_complete(),
                duration_nanos: start.elapsed().as_nanos() as u64,
            }
        }
        Err(e) => RunReport {
            schema_version: OBS_SCHEMA_VERSION,
            engine: engine.to_string(),
            threads,
            mode: mode.to_string(),
            states: 0,
            transitions: 0,
            depth: 0,
            deadlocks: 0,
            outcome: format!("error: {e}"),
            complete: false,
            duration_nanos: start.elapsed().as_nanos() as u64,
        },
    };
    rec.record(&Event::RunEnd { report: &report });
    result
}

/// Explores the reachable states of a system breadth-first.
///
/// This is the all-or-nothing interface: exceeding
/// `options.max_states` is reported as an error. Callers who want the
/// partial graph (and finer-grained limits) should use
/// [`explore_governed`].
///
/// # Errors
///
/// * [`CheckError::NoInitialStates`] if the initial specification is
///   empty;
/// * [`CheckError::TooManyStates`] beyond `options.max_states`;
/// * evaluation/domain errors from firing actions.
pub fn explore(system: &System, options: &ExploreOptions) -> Result<StateGraph, CheckError> {
    let run = explore_governed_with(
        system,
        &Budget::default().states(options.max_states),
        options,
    )?;
    match run.outcome {
        Outcome::Complete => Ok(run.graph),
        Outcome::Exhausted { .. } => Err(CheckError::TooManyStates {
            limit: options.max_states,
        }),
    }
}

/// [`explore`] with the worker count defaulting to the machine:
/// `options.threads`, the `OPENTLA_EXPLORE_THREADS` environment
/// variable, or the machine's available parallelism, in that order.
/// The route table of the module docs then applies — more than one
/// worker selects the work-stealing engine for unreduced runs.
///
/// On complete runs the result is byte-identical to [`explore`]:
/// workers record edges per parent in action order, and a sequential
/// renumbering pass replays the canonical BFS discovery order over
/// those records.
///
/// # Errors
///
/// As [`explore`].
pub fn explore_parallel(
    system: &System,
    options: &ExploreOptions,
) -> Result<StateGraph, CheckError> {
    let run = explore_parallel_governed(
        system,
        &Budget::default().states(options.max_states),
        options,
    )?;
    match run.outcome {
        Outcome::Complete => Ok(run.graph),
        Outcome::Exhausted { .. } => Err(CheckError::TooManyStates {
            limit: options.max_states,
        }),
    }
}

/// [`explore_parallel`] under a [`Budget`], returning partial results
/// on exhaustion.
///
/// Exhausted runs yield a valid partial graph (every recorded state
/// and edge is genuinely reachable, the frontier honestly lists every
/// discovered-but-unexpanded state), but — unlike complete runs —
/// *which* states made it under the limit depends on worker
/// scheduling.
///
/// # Errors
///
/// As [`explore_governed`].
pub fn explore_parallel_governed(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
) -> Result<Exploration, CheckError> {
    let threads = options
        .threads
        .or_else(env_threads)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
        .max(1);
    explore_observed(system, budget, options, threads, None)
}

// ---------------------------------------------------------------------
// Sequential engine
// ---------------------------------------------------------------------

/// The sequential engine: reduced runs take the level-aware reduced
/// loop; unreduced runs take [`explore_bfs`], instantiated once per
/// [`VisitedMode`].
fn explore_sequential(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    if let Some(red) = options.reduction.prepare(system) {
        return explore_sequential_reduced(system, budget, options, &red, resume);
    }
    match options.mode {
        VisitedMode::Fingerprint => explore_bfs::<FpVisited>(system, budget, options, resume),
        VisitedMode::Exact => explore_bfs::<ExactVisited>(system, budget, options, resume),
    }
}

/// Why sequential resumption needs no renumbering pass: every snapshot
/// — from any engine — stores its arena in canonical (sequential
/// discovery) order with the frontier as the arena's *tail*. For
/// sequential-origin snapshots the BFS queue is always the most
/// recently discovered suffix of the arena; parallel-origin snapshots
/// are captured from the canonical replay rolled back to a level
/// boundary, whose frontier (the last complete level) is likewise the
/// tail. Re-seeding the queue with the frontier in id order therefore
/// continues the *exact* sequential discovery order, and new states
/// extend the arena precisely as an uninterrupted run would.
///
/// Builds the final snapshot of an exhausted run (shared by every
/// engine): `keep`/`frontier` follow the
/// engine's cut discipline, and the snapshot is written to disk when a
/// checkpoint spec is active.
#[allow(clippy::too_many_arguments)]
fn seq_exhaustion_snapshot(
    ck: &mut Checkpointer,
    budget: &Budget,
    states: &[State],
    init: &[usize],
    edges: &[Vec<Edge>],
    parents: &[Option<(usize, usize)>],
    keep: usize,
    frontier: &[usize],
    options: &ExploreOptions,
    reduced: bool,
    sys_hash: u64,
    reduction: Option<ReductionStats>,
) -> (Option<Box<Snapshot>>, Option<ResumeToken>) {
    let snap = checkpoint::capture(
        states,
        init,
        edges,
        parents,
        keep,
        frontier,
        options.mode,
        reduced,
        sys_hash,
        options.fp_bits.clamp(1, 64),
        0,
        reduction,
    );
    let token = if ck.active() {
        ck.write(snap.clone(), &budget.recorder)
    } else {
        None
    };
    (Some(Box::new(snap)), token)
}

/// What [`SeqVisited::intern`] found.
enum Interned {
    /// The state was already recorded, under this id.
    Seen(usize),
    /// The state is new and now recorded; it goes into the arena.
    New(State),
    /// The state is new, but the meter refused it.
    Refused(ExhaustReason),
}

/// The visited-set seam of [`explore_bfs`]: how a state is keyed,
/// probed and recorded. The loop is monomorphised per implementation,
/// so the fingerprint instance is the incremental-fingerprint hot path
/// with no dispatch in it.
trait SeqVisited {
    /// A state's dedup key, known before a successor is built.
    type Key;
    fn new(mask: u64) -> Self;
    /// Records a resumed arena state under `id`; the first id wins.
    fn seed(&mut self, s: &State, id: usize);
    /// The key of an initial state.
    fn key(&self, s: &State) -> Self::Key;
    /// The key of the successor of `parent` (state `parent_id`) under
    /// `assignments`.
    fn child_key(
        &self,
        parent: &State,
        parent_id: usize,
        assignments: &[(VarId, Value)],
    ) -> Self::Key;
    /// The id recorded under `key`, or — when `admit` (the meter's
    /// state charge) lets the state in — records it under `id` and
    /// returns it, built by `make` unless the key is the state itself.
    fn intern(
        &mut self,
        key: Self::Key,
        id: usize,
        admit: impl FnOnce() -> Option<ExhaustReason>,
        make: impl FnOnce() -> State,
    ) -> Interned;
    fn into_visited(self) -> Visited;
}

/// Fingerprint keys, derived incrementally from the parent's
/// ([`State::fingerprint_with`]): an already-visited successor costs
/// one hash of deltas and one `u64` probe, and is never built.
struct FpVisited {
    map: FxHashMap<u64, usize>,
    mask: u64,
    /// Unmasked fingerprint per state id.
    fps: Vec<u64>,
}

impl SeqVisited for FpVisited {
    type Key = u64;

    fn new(mask: u64) -> Self {
        FpVisited {
            map: FxHashMap::default(),
            mask,
            fps: Vec::new(),
        }
    }

    fn seed(&mut self, s: &State, id: usize) {
        let fp = s.fingerprint();
        self.fps.push(fp);
        self.map.entry(fp & self.mask).or_insert(id);
    }

    fn key(&self, s: &State) -> u64 {
        s.fingerprint()
    }

    fn child_key(&self, parent: &State, parent_id: usize, assignments: &[(VarId, Value)]) -> u64 {
        parent.fingerprint_with(self.fps[parent_id], assignments)
    }

    fn intern(
        &mut self,
        fp: u64,
        id: usize,
        admit: impl FnOnce() -> Option<ExhaustReason>,
        make: impl FnOnce() -> State,
    ) -> Interned {
        use std::collections::hash_map::Entry;
        match self.map.entry(fp & self.mask) {
            Entry::Occupied(e) => Interned::Seen(*e.get()),
            Entry::Vacant(e) => {
                if let Some(reason) = admit() {
                    return Interned::Refused(reason);
                }
                e.insert(id);
                self.fps.push(fp);
                Interned::New(make())
            }
        }
    }

    fn into_visited(self) -> Visited {
        Visited::Fingerprint {
            map: self.map,
            mask: self.mask,
        }
    }
}

/// Whole-state keys: every successor is built and hashed in full.
/// Collision-free by construction, at a throughput cost.
struct ExactVisited(HashMap<State, usize>);

impl SeqVisited for ExactVisited {
    type Key = State;

    fn new(_mask: u64) -> Self {
        ExactVisited(HashMap::new())
    }

    fn seed(&mut self, s: &State, id: usize) {
        self.0.entry(s.clone()).or_insert(id);
    }

    fn key(&self, s: &State) -> State {
        s.clone()
    }

    fn child_key(&self, parent: &State, _: usize, assignments: &[(VarId, Value)]) -> State {
        parent.with(assignments)
    }

    fn intern(
        &mut self,
        s: State,
        id: usize,
        admit: impl FnOnce() -> Option<ExhaustReason>,
        _make: impl FnOnce() -> State,
    ) -> Interned {
        if let Some(&seen) = self.0.get(&s) {
            return Interned::Seen(seen);
        }
        if let Some(reason) = admit() {
            return Interned::Refused(reason);
        }
        self.0.insert(s.clone(), id);
        Interned::New(s)
    }

    fn into_visited(self) -> Visited {
        Visited::Exact(self.0)
    }
}

/// The unreduced sequential loop: plain BFS over the compiled
/// successor stepper, deduplicating through `V`. This is the reference
/// every other engine must match byte for byte.
fn explore_bfs<V: SeqVisited>(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    use std::ops::ControlFlow;

    let compiled = CompiledSystem::compile(system);
    let mut scratch = EvalScratch::new();
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let mut visited = V::new(options.mask());
    let mut states: Vec<State> = Vec::new();
    let mut edges: Vec<Vec<Edge>> = Vec::new();
    let mut parents: Vec<Option<(usize, usize)>> = Vec::new();
    let mut init: Vec<usize> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    let mut exhausted: Option<ExhaustReason> = None;
    let mut exhausted_in_init = false;
    let meter;
    if let Some(snap) = resume {
        // Re-seed from the snapshot: arena, edges, and BFS tree come
        // back verbatim; the visited set is rebuilt from the arena in
        // id order (deterministic across processes), preserving
        // first-id-wins collision behavior; the frontier becomes the
        // queue; the meter is pre-charged with the banked work so
        // cumulative budgets keep their meaning.
        states = snap.states.clone();
        edges = snap.edges.clone();
        parents = snap.parents.clone();
        init = snap.init.clone();
        for (id, s) in states.iter().enumerate() {
            visited.seed(s, id);
        }
        queue.extend(snap.frontier.iter().copied());
        meter = Meter::start_resumed(budget, snap.states_used(), snap.transitions_used());
    } else {
        let init_states = system.init().states(system.universe())?;
        if init_states.is_empty() {
            return Err(CheckError::NoInitialStates);
        }
        meter = Meter::start(budget);
        let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
        for s in init_states {
            let id = states.len();
            let key = visited.key(&s);
            match visited.intern(key, id, || meter.charge_state(), || s) {
                Interned::Seen(_) => {}
                Interned::Refused(reason) => {
                    exhausted = Some(reason);
                    exhausted_in_init = true;
                    break;
                }
                Interned::New(s) => {
                    states.push(s);
                    edges.push(Vec::new());
                    parents.push(None);
                    init.push(id);
                    queue.push_back(id);
                }
            }
        }
    }
    let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
    while exhausted.is_none() {
        if let Some(reason) = meter.checkpoint() {
            exhausted = Some(reason);
            break;
        }
        // Periodic snapshot at the loop head: the queue is a clean cut
        // (everything off-queue is fully expanded).
        if ck.due(1) {
            let snap = checkpoint::capture(
                &states,
                &init,
                &edges,
                &parents,
                states.len(),
                queue.make_contiguous(),
                options.mode,
                false,
                sys_hash,
                options.fp_bits.clamp(1, 64),
                0,
                None,
            );
            ck.write(snap, &budget.recorder);
        }
        let Some(id) = queue.pop_front() else {
            break;
        };
        // An Arc bump, not a copy: releases the arena borrow so the
        // visitor below may push new states into it.
        let parent = states[id].clone();
        let cut = compiled.for_each_successor(&parent, &mut scratch, |action, assignments| {
            if let Some(reason) = meter.charge_transition() {
                return ControlFlow::Break(reason);
            }
            let key = visited.child_key(&parent, id, assignments);
            let nid = states.len();
            let target = match visited.intern(
                key,
                nid,
                || meter.charge_state(),
                || parent.with(assignments),
            ) {
                Interned::Seen(target) => target,
                Interned::Refused(reason) => return ControlFlow::Break(reason),
                Interned::New(child) => {
                    states.push(child);
                    edges.push(Vec::new());
                    parents.push(Some((id, action)));
                    queue.push_back(nid);
                    nid
                }
            };
            edges[id].push(Edge { action, target });
            ControlFlow::Continue(())
        })?;
        if let Some(reason) = cut {
            // Re-queue the half-expanded state so the frontier
            // honestly reports it as uncovered.
            queue.push_front(id);
            exhausted = Some(reason);
            break;
        }
    }
    drop(expand_phase);
    let (snapshot, resume_token) = match &exhausted {
        Some(_) if !exhausted_in_init => seq_exhaustion_snapshot(
            &mut ck,
            budget,
            &states,
            &init,
            &edges,
            &parents,
            states.len(),
            queue.make_contiguous(),
            options,
            false,
            sys_hash,
            None,
        ),
        _ => (None, None),
    };
    let graph = StateGraph {
        states,
        visited: visited.into_visited(),
        init,
        edges,
        parents,
        reduced: false,
        canon: None,
    };
    let outcome = match exhausted {
        None => Outcome::Complete,
        Some(reason) => Outcome::Exhausted {
            reason,
            frontier_size: queue.len(),
            stats: graph.stats(),
            resume: resume_token,
        },
    };
    Ok(Exploration {
        frontier: queue.into_iter().collect(),
        graph,
        outcome,
        reduction: None,
        snapshot,
    })
}

/// The reduced sequential engine: BFS by levels (explicit
/// level boundaries feed the cycle proviso) over canonicalized states,
/// expanding each state through its chosen ample cluster — or fully
/// when no eligible proper cluster exists or the proviso fires.
///
/// Used for both [`VisitedMode`]s: symmetry reduction must
/// canonicalize the materialized successor anyway, so the incremental
/// fingerprint shortcut of the unreduced fast path does not apply.
/// Discovery order is plain BFS over kept actions in action order.
/// Reduced runs take this loop at every thread count (no parallel
/// engine implements the cycle proviso), so their graphs cannot depend
/// on the thread count.
fn explore_sequential_reduced(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    red: &PreparedReduction,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    use std::ops::ControlFlow;

    let compiled = CompiledSystem::compile(system);
    let mut scratch = EvalScratch::new();
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let mut graph = StateGraph::new(options.mode, options.mask());
    graph.reduced = true;
    graph.canon = red.canon.clone();
    let mut stats = ReductionStats::default();
    let mut queue = std::collections::VecDeque::new();
    let mut exhausted: Option<ExhaustReason> = None;
    let mut exhausted_in_init = false;
    let meter;
    if let Some(snap) = resume {
        // Arena states were stored post-canonicalization, so they seed
        // the visited set directly. The snapshot's frontier is exactly
        // the last complete BFS level (reduced captures roll back to
        // the level boundary), so the proviso bookkeeping restarts
        // cleanly: the whole arena belongs to completed levels.
        graph.states = snap.states.clone();
        graph.edges = snap.edges.clone();
        graph.parents = snap.parents.clone();
        graph.init = snap.init.clone();
        for id in 0..graph.states.len() {
            let (_, fp) = graph.visited.lookup(&graph.states[id]);
            let s = graph.states[id].clone();
            graph.visited.insert(&s, fp, id);
        }
        queue.extend(snap.frontier.iter().copied());
        stats = snap.reduction.unwrap_or_default();
        meter = Meter::start_resumed(budget, snap.states_used(), snap.transitions_used());
    } else {
        let init_states = system.init().states(system.universe())?;
        if init_states.is_empty() {
            return Err(CheckError::NoInitialStates);
        }
        meter = Meter::start(budget);
        let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
        for s in init_states {
            let s = red.canonical(s);
            let (seen, fp) = graph.visited.lookup(&s);
            if seen.is_some() {
                continue;
            }
            if let Some(reason) = meter.charge_state() {
                exhausted = Some(reason);
                exhausted_in_init = true;
                break;
            }
            let id = graph.states.len();
            graph.visited.insert(&s, fp, id);
            graph.states.push(s);
            graph.edges.push(Vec::new());
            graph.parents.push(None);
            graph.init.push(id);
            queue.push_back(id);
        }
    }
    // Cycle-proviso bookkeeping: states with id < `boundary` belong to
    // BFS levels completed before the current one began. Every cycle
    // of the reduced graph must contain an edge into such a level, so
    // fully expanding each state whose ample set would record one
    // guarantees no enabled action is ignored forever.
    let mut boundary = graph.states.len();
    let mut remaining = queue.len();
    // Checkpoint bookkeeping: the level being expanded consists of ids
    // [level_start, boundary); a snapshot rolls the arena back to
    // `boundary` and re-queues that whole range, so resumption always
    // restarts the level from its beginning (at most one level of work
    // is re-done). The reduction counters snapshotted at the rollover
    // match that cut.
    let mut level_start = boundary - queue.len();
    let mut stats_at_level_start = stats;
    let mut succ: Vec<(usize, State)> = Vec::new();
    let mut ample_scratch = AmpleScratch::default();
    let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
    'bfs: while exhausted.is_none() {
        if let Some(reason) = meter.checkpoint() {
            exhausted = Some(reason);
            break;
        }
        if ck.due(1) {
            let frontier: Vec<usize> = (level_start..boundary).collect();
            let snap = checkpoint::capture(
                &graph.states,
                &graph.init,
                &graph.edges,
                &graph.parents,
                boundary,
                &frontier,
                options.mode,
                true,
                sys_hash,
                options.fp_bits.clamp(1, 64),
                0,
                Some(stats_at_level_start),
            );
            ck.write(snap, &budget.recorder);
        }
        let Some(id) = queue.pop_front() else {
            break;
        };
        let parent = graph.states[id].clone();
        succ.clear();
        compiled.for_each_successor(&parent, &mut scratch, |action, assignments| {
            let child = parent.with(assignments);
            let child = match &red.canon {
                Some(c) => {
                    let canonical = c.canonicalize(&child);
                    if canonical != child {
                        stats.canon_hits += 1;
                    }
                    canonical
                }
                None => child,
            };
            succ.push((action, child));
            ControlFlow::<std::convert::Infallible>::Continue(())
        })?;
        let keep_cluster = red.por.as_ref().and_then(|por| {
            let chosen =
                por.choose_ample(succ.iter().map(|(a, _)| *a), &mut ample_scratch)?;
            // The proviso: an ample successor already in a completed
            // level closes a potential cycle — expand fully.
            let closes_level = succ.iter().any(|(a, child)| {
                por.cluster_of(*a) == chosen
                    && graph
                        .visited
                        .lookup(child)
                        .0
                        .is_some_and(|t| t < boundary)
            });
            (!closes_level).then_some(chosen)
        });
        if keep_cluster.is_some() {
            stats.ample_states += 1;
        } else {
            stats.full_states += 1;
        }
        for (action, child) in succ.drain(..) {
            if let Some(c) = keep_cluster {
                if red.por.as_ref().map(|p| p.cluster_of(action)) != Some(c) {
                    stats.skipped_transitions += 1;
                    continue;
                }
            }
            if let Some(reason) = meter.charge_transition() {
                queue.push_front(id);
                exhausted = Some(reason);
                break 'bfs;
            }
            let (seen, fp) = graph.visited.lookup(&child);
            let target = match seen {
                Some(existing) => existing,
                None => {
                    if let Some(reason) = meter.charge_state() {
                        queue.push_front(id);
                        exhausted = Some(reason);
                        break 'bfs;
                    }
                    let nid = graph.states.len();
                    graph.visited.insert(&child, fp, nid);
                    graph.states.push(child);
                    graph.edges.push(Vec::new());
                    graph.parents.push(Some((id, action)));
                    queue.push_back(nid);
                    nid
                }
            };
            graph.edges[id].push(Edge { action, target });
        }
        remaining -= 1;
        if remaining == 0 {
            level_start = boundary;
            boundary = graph.states.len();
            remaining = queue.len();
            stats_at_level_start = stats;
        }
    }
    drop(expand_phase);
    let (snapshot, resume_token) = match &exhausted {
        Some(_) if !exhausted_in_init => seq_exhaustion_snapshot(
            &mut ck,
            budget,
            &graph.states,
            &graph.init,
            &graph.edges,
            &graph.parents,
            boundary,
            &(level_start..boundary).collect::<Vec<_>>(),
            options,
            true,
            sys_hash,
            Some(stats_at_level_start),
        ),
        _ => (None, None),
    };
    let outcome = match exhausted {
        None => Outcome::Complete,
        Some(reason) => Outcome::Exhausted {
            reason,
            frontier_size: queue.len(),
            stats: graph.stats(),
            resume: resume_token,
        },
    };
    Ok(Exploration {
        frontier: queue.into_iter().collect(),
        graph,
        outcome,
        reduction: Some(stats),
        snapshot,
    })
}

// ---------------------------------------------------------------------
// Parallel renumbering, shared by the work-stealing engines
// ---------------------------------------------------------------------

/// Provisional state id used during parallel exploration:
/// `shard << 32 | index within the shard's arena`. Renumbering maps
/// these to canonical sequential indices afterwards.
type Pid = u64;

fn pid(shard: usize, local: usize) -> Pid {
    ((shard as u64) << 32) | local as u64
}

fn shard_of(p: Pid) -> usize {
    (p >> 32) as usize
}

fn local_of(p: Pid) -> usize {
    (p & 0xffff_ffff) as usize
}

/// The canonical replay of a parallel run's edge records.
///
/// Replaying the BFS sequentially over the recorded per-parent edge
/// runs reproduces the sequential engine's discovery order exactly:
/// init enumeration order first, then children in (parent BFS order ×
/// action order) — so ids, edges, parents, and traces coincide with a
/// sequential run's. `canon[shard][local]` maps pids to canonical ids
/// (`u32::MAX` = unreachable from the records, e.g. a child whose
/// recording worker panicked and whose parent the run stopped before
/// re-expanding); `depth` is each state's BFS level, non-decreasing in id order.
struct Replay {
    canon: Vec<Vec<u32>>,
    states: Vec<State>,
    edges: Vec<Vec<Edge>>,
    parents: Vec<Option<(usize, usize)>>,
    init: Vec<usize>,
    depth: Vec<u32>,
}

/// Builds the [`Replay`], except state materialization: returns it
/// with `states` empty plus the pids in canonical id order, so the
/// caller materializes — fanned out across workers where each state is
/// an independent unpack once the order is fixed. Each parent's run is
/// indexed first: `edge_index[shard][local]` is `(which vector, start,
/// length)`, `u32::MAX` marking "no edges". Every interned state has a
/// recorded incoming edge (interning and edge-recording are adjacent
/// in the worker, and a panicked expansion is re-recorded by whichever
/// worker re-expands its parent) or is initial.
fn replay_records_order(
    arena_lens: &[usize],
    all_edges: &[Vec<(Pid, u32, Pid)>],
    init_pids: &[Pid],
) -> (Replay, Vec<Pid>) {
    const NO_RUN: (u32, u32, u32) = (u32::MAX, 0, 0);
    let mut edge_index: Vec<Vec<(u32, u32, u32)>> =
        arena_lens.iter().map(|&n| vec![NO_RUN; n]).collect();
    for (vi, recs) in all_edges.iter().enumerate() {
        let mut i = 0;
        while i < recs.len() {
            let parent = recs[i].0;
            let mut j = i + 1;
            while j < recs.len() && recs[j].0 == parent {
                j += 1;
            }
            edge_index[shard_of(parent)][local_of(parent)] =
                (vi as u32, i as u32, (j - i) as u32);
            i = j;
        }
    }

    let mut r = Replay {
        canon: arena_lens.iter().map(|&n| vec![u32::MAX; n]).collect(),
        states: Vec::new(),
        edges: Vec::new(),
        parents: Vec::new(),
        init: Vec::new(),
        depth: Vec::new(),
    };
    let mut order: Vec<Pid> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for &p in init_pids {
        let id = order.len();
        r.canon[shard_of(p)][local_of(p)] = id as u32;
        order.push(p);
        r.edges.push(Vec::new());
        r.parents.push(None);
        r.depth.push(0);
        r.init.push(id);
        queue.push_back(p);
    }
    while let Some(p) = queue.pop_front() {
        let id = r.canon[shard_of(p)][local_of(p)] as usize;
        let (vi, start, len) = edge_index[shard_of(p)][local_of(p)];
        if vi == u32::MAX {
            continue;
        }
        let run = &all_edges[vi as usize][start as usize..(start + len) as usize];
        for &(_, action, child) in run {
            let slot = &mut r.canon[shard_of(child)][local_of(child)];
            let target = if *slot == u32::MAX {
                let nid = order.len();
                *slot = nid as u32;
                order.push(child);
                r.edges.push(Vec::new());
                r.parents.push(Some((id, action as usize)));
                r.depth.push(r.depth[id] + 1);
                queue.push_back(child);
                nid
            } else {
                *slot as usize
            };
            r.edges[id].push(Edge {
                action: action as usize,
                target,
            });
        }
    }
    (r, order)
}

/// The deepest consistent level-boundary rollback of an exhausted
/// parallel run, shared by both work-stealing engines: given the canonical
/// replay's pid→id map and per-id BFS depths, plus the
/// discovered-but-unexpanded pids, returns `(keep, frontier_ids)` for
/// [`checkpoint::capture`]. The cut level L is the shallowest pending
/// state's depth — everything above L is fully expanded, and the
/// frontier is *all* of level L (replay depth is non-decreasing in
/// canonical id order, so that is an id range landing on the arena's
/// tail, exactly the cut the resume paths expect). Pending pids
/// unreachable in the replay are ignored; with no reachable pending
/// state at all, the whole graph is kept with an empty frontier.
fn rollback_cut(
    canon: &[Vec<u32>],
    depth: &[u32],
    states_len: usize,
    pending: &[Pid],
) -> (usize, Vec<usize>) {
    let cut = pending
        .iter()
        .filter_map(|&p| {
            let c = canon[shard_of(p)][local_of(p)];
            (c != u32::MAX).then(|| depth[c as usize])
        })
        .min();
    match cut {
        None => (states_len, Vec::new()),
        Some(l) => {
            let keep = depth.partition_point(|&d| d <= l);
            let first = depth.partition_point(|&d| d < l);
            (keep, (first..keep).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value, Vars};

    fn counter(max: i64) -> System {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, max));
        let incr = GuardedAction::new(
            "incr",
            Expr::var(x).lt(Expr::int(max)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        System::new(vars, Init::new([(x, Value::Int(0))]), vec![incr])
    }

    /// A branching system: two counters stepped independently — enough
    /// breadth for the parallel engine to actually fan out.
    fn grid(max: i64) -> System {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, max));
        let y = vars.declare("y", Domain::int_range(0, max));
        let step_x = GuardedAction::new(
            "step_x",
            Expr::var(x).lt(Expr::int(max)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        let step_y = GuardedAction::new(
            "step_y",
            Expr::var(y).lt(Expr::int(max)),
            vec![(y, Expr::var(y).add(Expr::int(1)))],
        );
        System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![step_x, step_y],
        )
    }

    #[test]
    fn explores_chain() {
        let graph = explore(&counter(5), &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 6);
        assert_eq!(graph.edge_count(), 5);
        assert_eq!(graph.init(), &[0]);
        assert!(!graph.is_empty());
    }

    #[test]
    fn trace_reconstruction() {
        let graph = explore(&counter(5), &ExploreOptions::default()).unwrap();
        let last = graph.len() - 1;
        let trace = graph.trace_to(last);
        assert_eq!(trace.len(), 6);
        assert_eq!(trace[0].0, None);
        assert!(trace[1..].iter().all(|(a, _)| a.is_some()));
    }

    #[test]
    fn state_limit_enforced() {
        let opts = ExploreOptions {
            max_states: 3,
            ..ExploreOptions::default()
        };
        assert!(matches!(
            explore(&counter(10), &opts),
            Err(CheckError::TooManyStates { limit: 3 })
        ));
    }

    #[test]
    fn no_initial_states() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let sys = System::new(
            vars,
            Init::new([]).with_constraint(Expr::var(x).eq(Expr::int(7))),
            vec![],
        );
        assert!(matches!(
            explore(&sys, &ExploreOptions::default()),
            Err(CheckError::NoInitialStates)
        ));
        assert!(matches!(
            explore_parallel(&sys, &ExploreOptions::default()),
            Err(CheckError::NoInitialStates)
        ));
    }

    #[test]
    fn toggle_graph_and_paths() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        let toggle = GuardedAction::new(
            "toggle",
            Expr::bool(true),
            vec![(x, Expr::int(1).sub(Expr::var(x)))],
        );
        let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![toggle]);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 2);
        // Path 0 → 1 within the full graph.
        let p = graph.path_within(0, 1, |_| true).unwrap();
        assert_eq!(p.len(), 1);
        // Path 0 → 0: empty.
        assert_eq!(graph.path_within(0, 0, |_| true).unwrap().len(), 0);
        // With state 1 forbidden, 0 → 1 is unreachable.
        assert!(graph.path_within(0, 1, |s| s != 1).is_none());
    }

    #[test]
    fn deadlocks_and_stats() {
        let graph = explore(&counter(5), &ExploreOptions::default()).unwrap();
        // Only x = 5 is terminal.
        assert_eq!(graph.deadlocks().len(), 1);
        let stats = graph.stats();
        assert_eq!(stats.states, 6);
        assert_eq!(stats.transitions, 5);
        assert_eq!(stats.deadlocks, 1);
        assert_eq!(stats.depth, 5);
        let text = stats.to_string();
        assert!(text.contains("6 states") && text.contains("depth 5"), "{text}");
    }

    #[test]
    fn governed_exploration_returns_partial_graph() {
        // Acceptance: max_states = 3 still yields a usable partial
        // graph with readable stats, instead of an all-or-nothing Err.
        let run = explore_governed(&counter(10), &Budget::default().states(3)).unwrap();
        assert_eq!(run.graph.len(), 3);
        let stats = run.stats(); // through Deref
        assert_eq!(stats.states, 3);
        assert_eq!(stats.transitions, 2);
        match &run.outcome {
            Outcome::Exhausted {
                reason,
                frontier_size,
                stats,
                ..
            } => {
                assert_eq!(*reason, ExhaustReason::StateLimit { limit: 3 });
                assert_eq!(*frontier_size, run.frontier.len());
                assert_eq!(stats.states, 3);
            }
            Outcome::Complete => panic!("3 states cannot cover counter(10)"),
        }
        // Every recorded state is genuinely reachable and traceable.
        for id in 0..run.graph.len() {
            assert!(!run.trace_to(id).is_empty());
        }
        // The half-expanded state is on the frontier, not silently lost.
        assert!(!run.frontier.is_empty());
    }

    #[test]
    fn both_charge_sites_agree_on_unique_state_counting() {
        // A system whose *initial* enumeration already exceeds the
        // limit: the init loop and the successor loop must trip at the
        // same effective limit (unique insertions, not enumerations).
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 7));
        let sys = System::new(vars, Init::new([]), vec![]);
        let run = explore_governed(&sys, &Budget::default().states(5)).unwrap();
        assert_eq!(run.graph.len(), 5);
        assert_eq!(
            run.outcome.exhaustion(),
            Some(&ExhaustReason::StateLimit { limit: 5 })
        );
        let _ = x;

        // Exactly at the limit: complete, not exhausted.
        let run = explore_governed(&counter(4), &Budget::default().states(5)).unwrap();
        assert!(run.outcome.is_complete());
        assert_eq!(run.graph.len(), 5);
        assert!(run.frontier.is_empty());
    }

    #[test]
    fn transition_budget_requeues_interrupted_state() {
        let run =
            explore_governed(&counter(10), &Budget::default().transitions(2)).unwrap();
        assert_eq!(run.graph.edge_count(), 2);
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(ExhaustReason::TransitionLimit { limit: 2 })
        ));
        // The state whose expansion was cut short is on the frontier.
        assert!(!run.frontier.is_empty());
    }

    #[test]
    fn cancelled_budget_stops_immediately() {
        let budget = Budget::default();
        budget.request_cancel();
        let run = explore_governed(&counter(10), &budget).unwrap();
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(ExhaustReason::Cancelled)
        ));
    }

    #[test]
    fn escalate_reaches_completion() {
        let run = crate::escalate(&Budget::default().states(2), 4, 3, |b| {
            explore_governed(&counter(9), b)
        })
        .unwrap();
        assert!(run.outcome.is_complete());
        assert_eq!(run.graph.len(), 10);
    }

    #[test]
    fn duplicate_init_states_deduplicated() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::bits());
        // Free variable x, no constraint: two initial states; plus a
        // second enumeration of the same pinned one must not duplicate.
        let sys = System::new(vars, Init::new([]), vec![]);
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        assert_eq!(graph.len(), 2);
        assert_eq!(graph.init().len(), 2);
        assert!(graph.index_of(graph.state(0)).is_some());
        let _ = x;
    }

    #[test]
    fn exact_mode_matches_fingerprint_mode() {
        let fp = explore(&grid(4), &ExploreOptions::default()).unwrap();
        let exact = explore(
            &grid(4),
            &ExploreOptions {
                mode: VisitedMode::Exact,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(fp.stats(), exact.stats());
        assert_eq!(fp.states(), exact.states());
        for id in 0..fp.len() {
            assert_eq!(fp.edges(id), exact.edges(id));
            assert_eq!(fp.trace_to(id), exact.trace_to(id));
        }
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        for threads in [1, 2, 4] {
            let seq = explore(&grid(4), &ExploreOptions::default()).unwrap();
            let par = explore_parallel(
                &grid(4),
                &ExploreOptions {
                    threads: Some(threads),
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(seq.stats(), par.stats(), "threads = {threads}");
            assert_eq!(seq.states(), par.states(), "threads = {threads}");
            assert_eq!(seq.init(), par.init(), "threads = {threads}");
            for id in 0..seq.len() {
                assert_eq!(seq.edges(id), par.edges(id), "threads = {threads}");
                assert_eq!(seq.trace_to(id), par.trace_to(id), "threads = {threads}");
            }
        }
    }

    #[test]
    fn parallel_governed_exhaustion_is_honest() {
        let run = explore_parallel_governed(
            &grid(6),
            &Budget::default().states(10),
            &ExploreOptions {
                threads: Some(3),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.graph.len(), 10);
        assert!(matches!(
            run.outcome.exhaustion(),
            Some(ExhaustReason::StateLimit { limit: 10 })
        ));
        // Every recorded state is reachable and traceable; the
        // frontier holds real, in-graph indices.
        for id in 0..run.graph.len() {
            assert!(!run.trace_to(id).is_empty());
        }
        for &f in &run.frontier {
            assert!(f < run.graph.len());
        }
        assert!(!run.frontier.is_empty());
    }

    /// With no surviving worker the injected panic propagates instead
    /// of leaving quiescence waiting on the dead worker's claim.
    #[test]
    fn worker_panic_without_survivors_propagates() {
        let opts = ExploreOptions {
            worker_panic: Some(WorkerPanic { after_claims: 0 }),
            ..ExploreOptions::default()
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ws::explore_ws(&grid(4), &Budget::default(), &opts, 1, None)
        }));
        assert!(run.is_err(), "the sole worker's panic must propagate");
    }

    #[test]
    fn forced_collisions_underapproximate_and_exact_mode_recovers() {
        // 1-bit fingerprints conflate almost everything: the explorer
        // must *under*-approximate (strictly fewer states, no invented
        // ones), and exact mode must restore the full count.
        let full = explore(&grid(4), &ExploreOptions::default()).unwrap();
        let collided = explore(
            &grid(4),
            &ExploreOptions {
                fp_bits: 1,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(collided.len() < full.len());
        assert!(collided.len() <= 2);
        // Every state the collided run kept is genuinely reachable.
        for s in collided.states() {
            assert!(full.index_of(s).is_some());
        }
        let exact = explore(
            &grid(4),
            &ExploreOptions {
                fp_bits: 1,
                mode: VisitedMode::Exact,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(exact.len(), full.len());
    }

    #[test]
    fn index_of_verifies_under_collisions() {
        // With forced collisions, index_of must refuse to misattribute
        // a displaced state to its collision partner's index.
        let collided = explore(
            &grid(4),
            &ExploreOptions {
                fp_bits: 1,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let full = explore(&grid(4), &ExploreOptions::default()).unwrap();
        for s in full.states() {
            // A state displaced by a collision is honestly absent
            // (None); a found index must point at the exact state.
            if let Some(id) = collided.index_of(s) {
                assert_eq!(collided.state(id), s);
            }
        }
    }
}
