//! The barrier-free work-stealing exploration engine: the in-RAM
//! parallel route of [`explore_governed_with`](crate::explore_governed_with)
//! and [`explore_parallel`](crate::explore_parallel).
//!
//! Every worker stays continuously fed — there are no level barriers:
//!
//! * **Per-worker deques, work stealing.** Each worker owns a deque of
//!   discovered-but-unexpanded states. It pops from the front of its
//!   own deque and pushes children to the back; when its deque runs
//!   dry it steals from the *back* of a peer's. There is no frontier
//!   cursor and no level boundary.
//! * **Quiescence termination.** A shared `in_flight` counter tracks
//!   states that are queued or mid-expansion (incremented when a new
//!   state is interned, decremented when its expansion completes —
//!   children are counted before the parent is released, so the
//!   counter cannot transiently hit zero while work remains). Workers
//!   that find nothing to claim spin-yield until `in_flight == 0`,
//!   which proves global exhaustion.
//! * **Packed states.** When the system's declared domains compile to
//!   a [`PackedLayout`], states live as fixed-width packed byte runs
//!   in per-shard arenas: guards and updates evaluate against a
//!   buffer unpacked into a *reused* `Vec<Value>`
//!   ([`CompiledSystem::for_each_successor_values`]), child
//!   fingerprints come from the layout's incremental Zobrist delta,
//!   and the hot path allocates no `Value` trees at all. Systems
//!   whose domains do not compile fall back to the `Value`-tree
//!   representation transparently.
//! * **Lock-striped visited set.** The visited set is sharded by
//!   fingerprint prefix into [`NUM_SHARDS`] independently-locked
//!   stripes addressed by provisional ids ([`Pid`]), so interning
//!   scales with workers.
//!
//! Determinism is recovered after the fact, not maintained during the
//! run: workers record `(parent, action, child)` edges, and the
//! canonical renumbering replay ([`replay_records_order`]) rebuilds the
//! sequential BFS discovery order — the finished graph is
//! **byte-identical** to the sequential loop's.
//!
//! Checkpointing: the engine has no level boundaries, so it takes no
//! mid-run snapshots; a checkpointing budget gets one `OTLASNAP`
//! snapshot at the exhaustion point (a quiescent point — all workers
//! stopped), rolled back to the deepest consistent level boundary by
//! the shared [`rollback_cut`], and resumable by any engine.
//!
//! Panic isolation: a panicking worker rolls its edge records back to
//! the claim mark of the parent it was expanding, puts that parent
//! back on its deque (its `in_flight` unit still counts it) together
//! with any children it had interned, and exits; the survivors steal
//! the work and finish the run, and one [`Event::WorkerFailure`] is
//! reported. Only when no worker survives does the panic propagate —
//! after raising the stop flag, so nothing waits on quiescence.

use super::*;
use opentla_kernel::{PackedLayout, Value};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// One stripe of the concurrent visited set: dedup keys plus the
/// append-only arena behind them. Exactly one of `packed` / `states`
/// is in use per run, decided by whether a [`PackedLayout`] compiled.
struct WsShard {
    keys: WsKeys,
    /// Packed arena: `fps.len()` states of `stride` bytes each.
    packed: Vec<u8>,
    /// Tree arena (layout fallback).
    states: Vec<State>,
    /// Unmasked fingerprints, indexed by local id.
    fps: Vec<u64>,
}

enum WsKeys {
    /// Fingerprint mode: masked fingerprint → local id, for either
    /// arena representation.
    Fingerprint(FxHashMap<u64, u32>),
    /// Exact mode over packed arenas: the packed bytes *are* the key —
    /// packing is injective on in-domain states, so this is exact even
    /// under forced fingerprint collisions, with no tree states built.
    PackedExact(FxHashMap<Box<[u8]>, u32>),
    /// Exact mode over tree arenas: full-state keys, as in the other
    /// engines.
    TreeExact(HashMap<State, u32>),
}

impl WsShard {
    fn new(mode: VisitedMode, packed: bool) -> WsShard {
        WsShard {
            keys: match (mode, packed) {
                (VisitedMode::Fingerprint, _) => WsKeys::Fingerprint(FxHashMap::default()),
                (VisitedMode::Exact, true) => WsKeys::PackedExact(FxHashMap::default()),
                (VisitedMode::Exact, false) => WsKeys::TreeExact(HashMap::new()),
            },
            packed: Vec::new(),
            states: Vec::new(),
            fps: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.fps.len()
    }
}

/// Shared coordination state of one work-stealing run.
struct WsShared<'a> {
    shards: Striped<WsShard>,
    /// One deque per worker; owners pop the front, thieves the back.
    deques: Vec<Mutex<VecDeque<Pid>>>,
    /// Queued-or-expanding state count; zero proves quiescence.
    in_flight: AtomicUsize,
    /// Packed size of one state (0 on the tree fallback).
    stride: usize,
    mask: u64,
    meter: &'a Meter,
    stop: AtomicBool,
    reason: Mutex<Option<ExhaustReason>>,
    error: Mutex<Option<CheckError>>,
    /// Workers that have not panicked; the last one to panic
    /// propagates instead of recovering.
    alive: AtomicUsize,
    /// [`WorkerPanic`] injection: the request, the claims made
    /// run-wide, and whether the injected panic already fired.
    fault: Option<WorkerPanic>,
    fault_claims: AtomicU64,
    fault_fired: AtomicBool,
}

impl WsShared<'_> {
    /// Counts one claim and says whether the injected panic is armed
    /// for it.
    fn arm_fault(&self) -> bool {
        self.fault
            .is_some_and(|f| self.fault_claims.fetch_add(1, Ordering::Relaxed) >= f.after_claims)
    }

    /// Fires the injected panic, once per run, if `armed`.
    fn maybe_panic(&self, armed: bool) {
        if armed && !self.fault_fired.swap(true, Ordering::Relaxed) {
            panic!("injected worker panic");
        }
    }

    /// Hands a panicked worker's work back to the survivors: its edge
    /// records roll back to the claim mark, the claimed parent goes
    /// back on the worker's deque — its `in_flight` unit still counts
    /// it — and so do the children it interned but had not queued.
    /// Returns how many parents were re-queued, or `None` when no
    /// worker survives; the stop flag is then raised so nothing waits
    /// on quiescence, and the caller re-raises the panic.
    fn recover(&self, me: usize, out: &mut WsOut) -> Option<u64> {
        let mut deque = lock(&self.deques[me]);
        let requeued = match out.current.take() {
            Some((parent, mark)) => {
                out.edges.truncate(mark);
                deque.push_front(parent);
                1
            }
            None => 0,
        };
        deque.extend(out.born.drain(..));
        drop(deque);
        if self.alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.stop.store(true, Ordering::Relaxed);
            return None;
        }
        Some(requeued)
    }

    fn note_exhaustion(&self, r: ExhaustReason) {
        lock(&self.reason).get_or_insert(r);
        self.stop.store(true, Ordering::Relaxed);
    }

    fn note_error(&self, e: CheckError) {
        lock(&self.error).get_or_insert(e);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Fingerprint-mode intern over packed arenas: probes by
    /// fingerprint alone and materializes the child bytes — via
    /// `append`, writing directly into the shard arena — only on a
    /// vacant insert. Already-visited successors (the majority, once
    /// the frontier is deep) never build their bytes at all, the
    /// packed analogue of what [`State::fingerprint_with`] buys the
    /// sequential engine.
    fn intern_packed_fp(
        &self,
        fp: u64,
        append: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(Pid, bool), ExhaustReason> {
        let key = fp & self.mask;
        let (shard_i, mut shard) = self.shards.lock_key(key);
        let WsShard {
            keys, packed, fps, ..
        } = &mut *shard;
        match keys {
            WsKeys::Fingerprint(map) => match map.entry(key) {
                Entry::Occupied(e) => Ok((pid(shard_i, *e.get() as usize), false)),
                Entry::Vacant(e) => {
                    if let Some(reason) = self.meter.charge_state() {
                        return Err(reason);
                    }
                    let local = fps.len();
                    append(packed);
                    fps.push(fp);
                    e.insert(local as u32);
                    Ok((pid(shard_i, local), true))
                }
            },
            _ => unreachable!("fingerprint intern on an exact-mode shard"),
        }
    }

    /// Exact-mode intern of a fully-built packed state (the bytes are
    /// the dedup key, so they must exist before the probe), charging
    /// the meter for genuinely new states only.
    fn intern_packed(&self, fp: u64, child: &[u8]) -> Result<(Pid, bool), ExhaustReason> {
        let key = fp & self.mask;
        let (shard_i, mut shard) = self.shards.lock_key(key);
        let WsShard {
            keys, packed, fps, ..
        } = &mut *shard;
        match keys {
            WsKeys::PackedExact(map) => {
                if let Some(&local) = map.get(child) {
                    return Ok((pid(shard_i, local as usize), false));
                }
                if let Some(reason) = self.meter.charge_state() {
                    return Err(reason);
                }
                let local = fps.len();
                packed.extend_from_slice(child);
                fps.push(fp);
                map.insert(child.into(), local as u32);
                Ok((pid(shard_i, local), true))
            }
            _ => unreachable!("exact packed intern on a non-packed-exact shard"),
        }
    }

    /// The tree-fallback intern. Exact mode needs the full state as the
    /// dedup key, so it is always materialized there; sharding by
    /// (masked) fingerprint stays consistent — equal states have equal
    /// fingerprints — and dedup stays exact even when `fp_bits` forces
    /// fingerprint collisions.
    fn intern_tree(
        &self,
        fp: u64,
        make: impl FnOnce() -> State,
    ) -> Result<(Pid, bool), ExhaustReason> {
        let key = fp & self.mask;
        let (shard_i, mut shard) = self.shards.lock_key(key);
        let WsShard {
            keys, states, fps, ..
        } = &mut *shard;
        match keys {
            WsKeys::Fingerprint(map) => match map.entry(key) {
                Entry::Occupied(e) => Ok((pid(shard_i, *e.get() as usize), false)),
                Entry::Vacant(e) => {
                    if let Some(reason) = self.meter.charge_state() {
                        return Err(reason);
                    }
                    let local = fps.len();
                    states.push(make());
                    fps.push(fp);
                    e.insert(local as u32);
                    Ok((pid(shard_i, local), true))
                }
            },
            WsKeys::TreeExact(map) => {
                let t = make();
                if let Some(&local) = map.get(&t) {
                    return Ok((pid(shard_i, local as usize), false));
                }
                if let Some(reason) = self.meter.charge_state() {
                    return Err(reason);
                }
                let local = fps.len();
                states.push(t.clone());
                fps.push(fp);
                map.insert(t, local as u32);
                Ok((pid(shard_i, local), true))
            }
            WsKeys::PackedExact(_) => unreachable!("tree intern on a packed-mode shard"),
        }
    }

    /// Resume seeding for packed arenas — no meter charge (the meter
    /// is pre-charged with the snapshot's banked totals), first-id
    /// wins on masked-fingerprint collisions, the rule the snapshot's
    /// canonical order encodes.
    fn seed_packed(&self, fp: u64, bytes: &[u8]) -> Pid {
        let key = fp & self.mask;
        let (shard_i, mut shard) = self.shards.lock_key(key);
        let WsShard {
            keys, packed, fps, ..
        } = &mut *shard;
        match keys {
            WsKeys::Fingerprint(map) => match map.entry(key) {
                Entry::Occupied(e) => pid(shard_i, *e.get() as usize),
                Entry::Vacant(e) => {
                    let local = fps.len();
                    packed.extend_from_slice(bytes);
                    fps.push(fp);
                    e.insert(local as u32);
                    pid(shard_i, local)
                }
            },
            WsKeys::PackedExact(map) => {
                if let Some(&local) = map.get(bytes) {
                    return pid(shard_i, local as usize);
                }
                let local = fps.len();
                packed.extend_from_slice(bytes);
                fps.push(fp);
                map.insert(bytes.into(), local as u32);
                pid(shard_i, local)
            }
            WsKeys::TreeExact(_) => unreachable!("packed seed on a tree-mode shard"),
        }
    }

    /// Resume seeding for tree arenas.
    fn seed_tree(&self, s: &State, fp: u64) -> Pid {
        let key = fp & self.mask;
        let (shard_i, mut shard) = self.shards.lock_key(key);
        let WsShard {
            keys, states, fps, ..
        } = &mut *shard;
        match keys {
            WsKeys::Fingerprint(map) => match map.entry(key) {
                Entry::Occupied(e) => pid(shard_i, *e.get() as usize),
                Entry::Vacant(e) => {
                    let local = fps.len();
                    states.push(s.clone());
                    fps.push(fp);
                    e.insert(local as u32);
                    pid(shard_i, local)
                }
            },
            WsKeys::TreeExact(map) => {
                if let Some(&local) = map.get(s) {
                    return pid(shard_i, local as usize);
                }
                let local = fps.len();
                states.push(s.clone());
                fps.push(fp);
                map.insert(s.clone(), local as u32);
                pid(shard_i, local)
            }
            WsKeys::PackedExact(_) => unreachable!("tree seed on a packed-mode shard"),
        }
    }
}

/// One worker's accumulated output, owned outside the worker body so
/// a panic does not lose it.
#[derive(Default)]
struct WsOut {
    /// `(parent, action, child)` records — each state is claimed by
    /// exactly one worker (deque pop is exclusive), so its edges form
    /// one contiguous run in action order in exactly one of these.
    edges: Vec<(Pid, u32, Pid)>,
    /// Parents whose expansion was cut short by budget exhaustion.
    interrupted: Vec<Pid>,
    claimed: u64,
    inserted: u64,
    /// The parent being expanded and the `edges` length at its claim:
    /// the mark a panic rolls back to.
    current: Option<(Pid, usize)>,
    /// Children interned while expanding `current`, pushed to the
    /// deque in one batch (one lock per parent, not per child).
    born: Vec<Pid>,
}

impl WsOut {
    /// Opens the expansion of a freshly claimed `parent`.
    fn claim(&mut self, parent: Pid) {
        self.claimed += 1;
        self.current = Some((parent, self.edges.len()));
    }

    /// Closes the current expansion: queues its children, then
    /// releases the parent's `in_flight` unit. The flush runs on every
    /// exit path — a counted-but-unqueued child would wedge quiescence
    /// or drop out of the resume frontier.
    fn release(&mut self, shared: &WsShared<'_>, me: usize) {
        if !self.born.is_empty() {
            lock(&shared.deques[me]).extend(self.born.drain(..));
        }
        self.current = None;
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Claims the next parent: own deque front first, then a sweep
/// stealing from the backs of the peers'.
fn claim(shared: &WsShared<'_>, me: usize) -> Option<Pid> {
    if let Some(p) = lock(&shared.deques[me]).pop_front() {
        return Some(p);
    }
    let n = shared.deques.len();
    for k in 1..n {
        if let Some(p) = lock(&shared.deques[(me + k) % n]).pop_back() {
            return Some(p);
        }
    }
    None
}

/// The worker loop over packed arenas: copy the parent's bytes out of
/// its shard, unpack into a reused value buffer, evaluate successors,
/// derive child fingerprints incrementally, intern child bytes.
fn run_ws_worker_packed(
    shared: &WsShared<'_>,
    compiled: &CompiledSystem<'_>,
    layout: &PackedLayout,
    mode: VisitedMode,
    me: usize,
    out: &mut WsOut,
) {
    use std::ops::ControlFlow;

    let stride = shared.stride;
    let fp_probe = matches!(mode, VisitedMode::Fingerprint);
    let mut scratch = EvalScratch::new();
    let mut parent_buf: Vec<u8> = Vec::with_capacity(stride);
    let mut child_buf: Vec<u8> = Vec::with_capacity(stride);
    let mut values: Vec<Value> = Vec::new();
    // `(slot, new code)` deltas of the successor under construction —
    // duplicate-free because `GuardedAction` rejects duplicate update
    // targets, so old codes can be read from the parent bytes.
    let mut updates: Vec<(usize, u32)> = Vec::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(reason) = shared.meter.checkpoint() {
            shared.note_exhaustion(reason);
            break;
        }
        let Some(parent) = claim(shared, me) else {
            if shared.in_flight.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        out.claim(parent);
        let armed = shared.arm_fault();
        let parent_fp = {
            let shard = shared.shards.lock_shard(shard_of(parent));
            let local = local_of(parent);
            parent_buf.clear();
            parent_buf.extend_from_slice(&shard.packed[local * stride..(local + 1) * stride]);
            shard.fps[local]
        };
        layout.unpack_into(&parent_buf, &mut values);
        let result = compiled.for_each_successor_values(&values, &mut scratch, |action, assignments| {
            if let Some(reason) = shared.meter.charge_transition() {
                shared.note_exhaustion(reason);
                out.interrupted.push(parent);
                return ControlFlow::Break(());
            }
            let mut child_fp = parent_fp;
            updates.clear();
            for (v, val) in assignments {
                let slot = v.index();
                let old = layout.read_code(&parent_buf, slot);
                let new = layout
                    .code_of(slot, val)
                    .expect("stepper domain-checks every update value");
                if new != old {
                    child_fp ^= layout.fingerprint_delta(slot, old, new);
                    updates.push((slot, new));
                }
            }
            let interned = if fp_probe {
                // Fingerprint dedup: probe first, build the child's
                // bytes only if it is genuinely new.
                shared.intern_packed_fp(child_fp, |arena| {
                    let start = arena.len();
                    arena.extend_from_slice(&parent_buf);
                    for &(slot, new) in &updates {
                        layout.write_code(&mut arena[start..], slot, new);
                    }
                })
            } else {
                // Exact dedup keys on the bytes themselves, so they
                // must exist before the probe.
                child_buf.clear();
                child_buf.extend_from_slice(&parent_buf);
                for &(slot, new) in &updates {
                    layout.write_code(&mut child_buf, slot, new);
                }
                shared.intern_packed(child_fp, &child_buf)
            };
            match interned {
                Ok((child, is_new)) => {
                    if is_new {
                        out.inserted += 1;
                        shared.in_flight.fetch_add(1, Ordering::AcqRel);
                        out.born.push(child);
                    }
                    out.edges.push((parent, action as u32, child));
                    shared.maybe_panic(armed);
                    ControlFlow::Continue(())
                }
                Err(reason) => {
                    shared.note_exhaustion(reason);
                    out.interrupted.push(parent);
                    ControlFlow::Break(())
                }
            }
        });
        out.release(shared, me);
        if let Err(e) = result {
            shared.note_error(e);
            break;
        }
    }
}

/// The worker loop for the tree fallback: as the packed loop, but
/// states clone out of the arena and child fingerprints come from
/// [`State::fingerprint_with`].
fn run_ws_worker_tree(
    shared: &WsShared<'_>,
    compiled: &CompiledSystem<'_>,
    me: usize,
    out: &mut WsOut,
) {
    use std::ops::ControlFlow;

    let mut scratch = EvalScratch::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(reason) = shared.meter.checkpoint() {
            shared.note_exhaustion(reason);
            break;
        }
        let Some(parent) = claim(shared, me) else {
            if shared.in_flight.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        out.claim(parent);
        let armed = shared.arm_fault();
        let (s, s_fp) = {
            let shard = shared.shards.lock_shard(shard_of(parent));
            let local = local_of(parent);
            (shard.states[local].clone(), shard.fps[local])
        };
        let result = compiled.for_each_successor(&s, &mut scratch, |action, assignments| {
            if let Some(reason) = shared.meter.charge_transition() {
                shared.note_exhaustion(reason);
                out.interrupted.push(parent);
                return ControlFlow::Break(());
            }
            let child_fp = s.fingerprint_with(s_fp, assignments);
            match shared.intern_tree(child_fp, || s.with(assignments)) {
                Ok((child, is_new)) => {
                    if is_new {
                        out.inserted += 1;
                        shared.in_flight.fetch_add(1, Ordering::AcqRel);
                        out.born.push(child);
                    }
                    out.edges.push((parent, action as u32, child));
                    shared.maybe_panic(armed);
                    ControlFlow::Continue(())
                }
                Err(reason) => {
                    shared.note_exhaustion(reason);
                    out.interrupted.push(parent);
                    ControlFlow::Break(())
                }
            }
        });
        out.release(shared, me);
        if let Err(e) = result {
            shared.note_error(e);
            break;
        }
    }
}

/// The work-stealing engine entry point; see the module docs. Called
/// by `explore_dispatch` on the parallel route, which reduced runs
/// never take.
pub(super) fn explore_ws(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    threads: usize,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    let threads = threads.max(1);
    let compiled = CompiledSystem::compile(system);
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let meter = match resume {
        Some(snap) => Meter::start_resumed(budget, snap.states_used(), snap.transitions_used()),
        None => Meter::start(budget),
    };

    let init_states: Option<Vec<State>> = match resume {
        Some(_) => None,
        None => {
            let states = system.init().states(system.universe())?;
            if states.is_empty() {
                return Err(CheckError::NoInitialStates);
            }
            Some(states)
        }
    };

    // Layout election: packed when the declared domains compile *and*
    // every seed state actually packs (any state this repo's engines
    // produce is in-domain, but the contract is checked, not assumed —
    // an out-of-domain seed falls the whole run back to trees).
    let layout_owned = PackedLayout::compile(system.vars()).filter(|l| {
        let packs = |s: &State| l.pack(s).is_some();
        match (&init_states, resume) {
            (Some(states), _) => states.iter().all(packs),
            (None, Some(snap)) => snap.states.iter().all(packs),
            (None, None) => true,
        }
    });
    let layout = layout_owned.as_ref();
    let stride = layout.map_or(0, |l| l.stride());

    let shared = WsShared {
        shards: Striped::new(|| WsShard::new(options.mode, layout.is_some())),
        deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        in_flight: AtomicUsize::new(0),
        stride,
        mask: options.mask(),
        meter: &meter,
        stop: AtomicBool::new(false),
        reason: Mutex::new(None),
        error: Mutex::new(None),
        alive: AtomicUsize::new(threads),
        fault: options.worker_panic,
        fault_claims: AtomicU64::new(0),
        fault_fired: AtomicBool::new(false),
    };

    let mut init_pids: Vec<Pid> = Vec::new();
    let mut all_edges: Vec<Vec<(Pid, u32, Pid)>> = Vec::new();
    let mut exhausted_in_init = false;
    let frontier_seed: Vec<Pid>;
    let mut buf: Vec<u8> = Vec::new();
    match (init_states, resume) {
        (None, Some(snap)) => {
            // Resume: seed the shards with the snapshot arena in
            // canonical order (reproducing first-id-wins fingerprint
            // dedup) and turn the snapshot's edges into one
            // pre-recorded run vector — the canonical replay cannot
            // tell banked work from new work. Seeding is meter-free;
            // the meter was pre-charged above.
            let pid_of: Vec<Pid> = snap
                .states
                .iter()
                .map(|s| {
                    let fp = s.fingerprint();
                    match layout {
                        Some(l) => {
                            let ok = l.pack_into(s.values(), &mut buf);
                            debug_assert!(ok, "layout election verified snapshot states pack");
                            shared.seed_packed(fp, &buf)
                        }
                        None => shared.seed_tree(s, fp),
                    }
                })
                .collect();
            init_pids = snap.init.iter().map(|&i| pid_of[i]).collect();
            let mut records: Vec<(Pid, u32, Pid)> = Vec::new();
            for (id, run) in snap.edges.iter().enumerate() {
                for e in run {
                    records.push((pid_of[id], e.action as u32, pid_of[e.target]));
                }
            }
            if !records.is_empty() {
                all_edges.push(records);
            }
            frontier_seed = snap.frontier.iter().map(|&i| pid_of[i]).collect();
        }
        (Some(states), _) => {
            // Initial states intern sequentially so their canonical
            // order is the enumeration order, as in every engine.
            let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
            for s in states {
                let fp = s.fingerprint();
                let r = match layout {
                    Some(l) => {
                        let ok = l.pack_into(s.values(), &mut buf);
                        debug_assert!(ok, "layout election verified init states pack");
                        match options.mode {
                            VisitedMode::Fingerprint => shared
                                .intern_packed_fp(fp, |arena| arena.extend_from_slice(&buf)),
                            VisitedMode::Exact => shared.intern_packed(fp, &buf),
                        }
                    }
                    None => shared.intern_tree(fp, move || s),
                };
                match r {
                    Ok((p, true)) => init_pids.push(p),
                    Ok((_, false)) => {}
                    Err(reason) => {
                        shared.note_exhaustion(reason);
                        exhausted_in_init = true;
                        break;
                    }
                }
            }
            frontier_seed = init_pids.clone();
        }
        (None, None) => unreachable!("fresh runs enumerate initial states above"),
    }

    let observe = meter.observed();
    let mut pending: Vec<Pid> = Vec::new();
    if exhausted_in_init {
        pending.extend(&frontier_seed);
    } else {
        // Seed the deques round-robin (ownership is only a locality
        // hint — stealing erases any imbalance) and prime the
        // quiescence counter with the seeded work.
        for (i, &p) in frontier_seed.iter().enumerate() {
            lock(&shared.deques[i % threads]).push_back(p);
        }
        shared
            .in_flight
            .store(frontier_seed.len(), Ordering::Release);
        let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
        // Each worker's output lives outside its body, so a panic
        // loses neither the output nor the run: `AssertUnwindSafe` is
        // justified because `recover` rolls the output back to the
        // claim mark and the shard critical sections never expose
        // partial insertions.
        let outs: Vec<(WsOut, Option<u64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|me| {
                    let shared = &shared;
                    let compiled = &compiled;
                    scope.spawn(move || {
                        let mut out = WsOut::default();
                        let body = std::panic::AssertUnwindSafe(|| match layout {
                            Some(l) => {
                                run_ws_worker_packed(shared, compiled, l, options.mode, me, &mut out)
                            }
                            None => run_ws_worker_tree(shared, compiled, me, &mut out),
                        });
                        let failure = match std::panic::catch_unwind(body) {
                            Ok(()) => None,
                            Err(payload) => match shared.recover(me, &mut out) {
                                Some(requeued) => Some(requeued),
                                None => std::panic::resume_unwind(payload),
                            },
                        };
                        (out, failure)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        drop(expand_phase);
        if observe {
            for (worker, (out, failure)) in outs.iter().enumerate() {
                if let Some(requeued) = *failure {
                    budget.recorder.record(&Event::WorkerFailure {
                        worker,
                        level: 0,
                        requeued,
                    });
                }
                budget.recorder.record(&Event::WorkerLevel {
                    worker,
                    level: 0,
                    claimed: out.claimed,
                    inserted: out.inserted,
                });
            }
        }
        for (mut out, _) in outs {
            if !out.edges.is_empty() {
                all_edges.push(std::mem::take(&mut out.edges));
            }
            pending.append(&mut out.interrupted);
        }
        // Deque remnants after a budget stop are honestly pending.
        for d in &shared.deques {
            pending.extend(lock(d).drain(..));
        }
    }

    if let Some(e) = lock(&shared.error).take() {
        return Err(e);
    }
    let WsShared { shards, reason, .. } = shared;
    let shards: Vec<WsShard> = shards.into_shards();
    let reason = reason.into_inner().unwrap_or_else(PoisonError::into_inner);

    let renumber_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    let arena_lens: Vec<usize> = shards.iter().map(WsShard::len).collect();
    let (mut replay, order) = replay_records_order(&arena_lens, &all_edges, &init_pids);
    let state_of = |p: Pid| {
        let sh = &shards[shard_of(p)];
        let local = local_of(p);
        match layout {
            Some(l) => l.unpack(&sh.packed[local * stride..(local + 1) * stride]),
            None => sh.states[local].clone(),
        }
    };
    // Materialization is the renumber pass's dominant cost on packed
    // runs (one unpack + tree allocation per state) and each state is
    // independent once the canonical order is fixed — fan it out.
    replay.states = if threads > 1 && order.len() >= 4096 {
        let chunk = order.len().div_ceil(threads);
        let mut states: Vec<State> = Vec::with_capacity(order.len());
        std::thread::scope(|scope| {
            let parts: Vec<_> = order
                .chunks(chunk)
                .map(|c| scope.spawn(|| c.iter().map(|&p| state_of(p)).collect::<Vec<_>>()))
                .collect();
            for h in parts {
                states.extend(
                    h.join()
                        .unwrap_or_else(|p| -> Vec<State> { std::panic::resume_unwind(p) }),
                );
            }
        });
        states
    } else {
        order.iter().map(|&p| state_of(p)).collect()
    };
    let Replay {
        canon,
        states,
        edges,
        parents,
        init,
        depth,
    } = replay;

    // Exhaustion snapshot at the quiescent point: the shared rollback
    // cut lands on the deepest consistent level boundary of the
    // *canonical* graph — sound because the cut is computed on replay
    // depths, not on the nondeterministic discovery order.
    let (snapshot, resume_token) = match reason {
        Some(_) if !exhausted_in_init => {
            let (keep, frontier_ids) = rollback_cut(&canon, &depth, states.len(), &pending);
            seq_exhaustion_snapshot(
                &mut ck,
                budget,
                &states,
                &init,
                &edges,
                &parents,
                keep,
                &frontier_ids,
                options,
                false,
                sys_hash,
                None,
            )
        }
        _ => (None, None),
    };

    let visited = match options.mode {
        VisitedMode::Fingerprint => {
            let mut map: FxHashMap<u64, usize> = FxHashMap::default();
            map.reserve(states.len());
            for (si, shard) in shards.iter().enumerate() {
                if let WsKeys::Fingerprint(m) = &shard.keys {
                    for (&fp, &local) in m {
                        let id = canon[si][local as usize];
                        if id != u32::MAX {
                            map.insert(fp, id as usize);
                        }
                    }
                }
            }
            Visited::Fingerprint {
                map,
                mask: options.mask(),
            }
        }
        VisitedMode::Exact => {
            // Exact keys are the states themselves, and the canonical
            // arena lists each exactly once — rebuilding from it is
            // equivalent to remapping the shard maps (and avoids
            // unpacking the packed keys a second time).
            let mut map: HashMap<State, usize> = HashMap::with_capacity(states.len());
            for (id, s) in states.iter().enumerate() {
                map.insert(s.clone(), id);
            }
            Visited::Exact(map)
        }
    };
    let graph = StateGraph {
        states,
        visited,
        init,
        edges,
        parents,
        reduced: false,
        canon: None,
    };
    drop(renumber_phase);

    let outcome = match reason {
        None => Outcome::Complete,
        Some(reason) => Outcome::Exhausted {
            reason,
            frontier_size: {
                pending.sort_unstable();
                pending.dedup();
                pending.len()
            },
            stats: graph.stats(),
            resume: resume_token,
        },
    };
    let mut frontier: Vec<usize> = pending
        .iter()
        .filter_map(|&p| {
            let c = canon[shard_of(p)][local_of(p)];
            (c != u32::MAX).then_some(c as usize)
        })
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    Ok(Exploration {
        graph,
        outcome,
        frontier,
        reduction: None,
        snapshot,
    })
}
