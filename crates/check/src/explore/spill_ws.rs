//! The parallel bounded-memory exploration engine, which the router
//! picks for multi-threaded runs under a memory budget: the work-stealing
//! scheduler of [`super::ws`] composed with the disk-backed spill
//! tiers of [`super::spill`].
//!
//! * **Scheduling** is exactly the work-stealing engine's: per-worker
//!   deques (owners pop the front, thieves the back), quiescence via a
//!   shared `in_flight` counter, a stop flag for budget cuts, and a
//!   panic backstop that raises the stop flag before propagating.
//! * **The state arena and edge records** live in two shared
//!   [`SegmentStore`]s (`wsarena-*` / `wsedges-*` segments) behind
//!   plain mutexes: every worker funnels its encoded records through
//!   the single sealed-segment writer, and a record's *arrival id* —
//!   its index in the arena store — is the provisional id the workers
//!   exchange. Parents are read back through the store's LRU cache, so
//!   the working set stays within the byte budget even while many
//!   workers expand concurrently.
//! * **The visited set** is the two-tier design of the sequential
//!   spill engine, sharded across the [`NUM_SHARDS`] lock stripes:
//!   each stripe owns a byte-accounted hot fingerprint map and its own
//!   one-bit filter, and drains to a sorted [`FingerprintRun`] file
//!   when its accounted bytes reach a fixed per-shard threshold. Run
//!   files are globally sequenced by a coordinator-owned drain lock
//!   (held only to allocate the next `visited-NNNNN.run` name), so
//!   concurrent drains never collide on a path.
//!
//! **Why sharded drains preserve determinism.** A drain moves keys
//! between tiers of one stripe; it never changes *membership*. Each
//! key is inserted at most once globally (fingerprint mode) or carries
//! every colliding id (exact mode, verified against arena bytes), so a
//! lookup's answer is independent of which tier holds the key — and
//! therefore independent of when drains fired or how worker
//! interleavings assigned arrival ids. The drain threshold itself is a
//! pure function of the stripe's insert stream (16 accounted bytes per
//! entry, drain at a fixed byte mark), not of timing. Nondeterministic
//! arrival ids are then erased by the same canonical renumbering
//! replay the other parallel engines use: a completed run's
//! [`StateGraph`] is **byte-identical** to the sequential spill
//! engine's and to plain sequential exploration. (Sole exception,
//! shared with the in-RAM work-stealing engine: under *forced*
//! fingerprint collisions — a narrowed `fp_bits` in fingerprint mode —
//! first-insert-wins picks each collision class's representative by
//! arrival order, so multi-worker conflation is racy by construction;
//! exact mode verifies candidates against their arena bytes and stays
//! deterministic at every worker count.)
//!
//! Checkpointing: like the work-stealing engine there are no level
//! boundaries, so no mid-run snapshots are taken; a checkpointing
//! budget gets one snapshot at the exhaustion point (a quiescent
//! point), rolled back to the deepest consistent level boundary. When
//! the segment directory is persistent the snapshot is written in the
//! spill wire format — the rolled-back canonical graph is re-encoded
//! into fresh `arena-*` / `edges-*` stores and referenced by name, so
//! the snapshot costs O(unsealed tail) to embed and **any** engine
//! (sequential, spill, work-stealing, or this one, at any thread
//! count) can resume it.

use super::spill::{self, Tuning};
use super::*;
use crate::checkpoint::{CheckpointError, SpillManifest};
use crate::obs::RecorderHandle;
use opentla_kernel::store::{self, FingerprintRun, SegmentStore, StoreError};
use opentla_kernel::{PackedLayout, Value};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// One lock stripe of the sharded two-tier visited set.
struct SpillShard {
    /// First arrival id per key — masked fingerprints in fingerprint
    /// mode, unmasked in exact mode (candidates, not answers).
    hot: FxHashMap<u64, u64>,
    /// Exact-mode extras: second and later arrival ids under a
    /// genuinely colliding key. Every key here is also in `hot`.
    dups: FxHashMap<u64, Vec<u64>>,
    /// Bytes accounted against this stripe's hot tier (16 per entry,
    /// key + id), reset by each drain.
    hot_bytes: usize,
    /// Created at this stripe's first drain, like the sequential
    /// engine's: a run-free stripe never pays for the bit array.
    filter: Option<spill::Filter>,
    runs: Vec<FingerprintRun>,
    probe: Vec<u64>,
}

impl SpillShard {
    fn new() -> SpillShard {
        SpillShard {
            hot: FxHashMap::default(),
            dups: FxHashMap::default(),
            hot_bytes: 0,
            filter: None,
            runs: Vec::new(),
            probe: Vec::new(),
        }
    }

    /// Drains this stripe's hot tier (and exact-mode dups) into a
    /// sorted run file. The coordinator's drain lock is held only to
    /// allocate the globally-sequenced file name — the write itself
    /// goes to a path no other drain can pick, so stripes drain
    /// concurrently.
    fn drain(
        &mut self,
        ctl: &Mutex<DrainCtl>,
        filter_bytes: usize,
    ) -> Result<spill::SpillInfo, StoreError> {
        let filter = self
            .filter
            .get_or_insert_with(|| spill::Filter::new(filter_bytes));
        let mut entries: Vec<(u64, u64)> = Vec::with_capacity(self.hot.len() + self.dups.len());
        for (key, id) in self.hot.drain() {
            filter.set(key);
            entries.push((key, id));
        }
        // Dup keys are a subset of the drained hot keys, so their
        // filter bits are already set.
        for (key, ids) in self.dups.drain() {
            entries.extend(ids.into_iter().map(|id| (key, id)));
        }
        entries.sort_unstable();
        self.hot_bytes = 0;
        let (seq, path) = {
            let mut ctl = lock(ctl);
            let seq = ctl.seq;
            ctl.seq += 1;
            (seq, ctl.dir.join(format!("visited-{seq:05}.run")))
        };
        let run = FingerprintRun::write(&path, &entries)?;
        let info = spill::SpillInfo {
            tier: "visited",
            seq,
            records: entries.len() as u64,
            bytes: run.bytes(),
        };
        self.runs.push(run);
        Ok(info)
    }
}

/// Coordinator-owned drain state: the one name allocator behind every
/// stripe's run files.
struct DrainCtl {
    dir: PathBuf,
    seq: u64,
}

/// Why a worker-side store operation stopped: a budget cut (normal) or
/// a typed store/codec failure.
enum WsStop {
    Cut(ExhaustReason),
    Fail(CheckError),
}

fn fail(e: StoreError) -> WsStop {
    WsStop::Fail(CheckpointError::from(e).into())
}

/// Shared coordination state of one parallel spill run.
struct SpillWsShared<'a> {
    visited: Striped<SpillShard>,
    drain: Mutex<DrainCtl>,
    /// The shared state arena: one sealed-segment writer every worker
    /// funnels its records through. A record's index is its arrival id.
    arena: Mutex<SegmentStore>,
    /// The shared edge-record store; one record per completed parent.
    edges: Mutex<SegmentStore>,
    /// Per-stripe hot-tier drain threshold, in accounted bytes.
    shard_hot_bytes: usize,
    /// Per-stripe filter size (the budget's filter share, split).
    shard_filter_bytes: usize,
    deques: Vec<Mutex<VecDeque<Pid>>>,
    in_flight: AtomicUsize,
    mask: u64,
    mode: VisitedMode,
    meter: &'a Meter,
    rec: &'a RecorderHandle,
    stop: AtomicBool,
    reason: Mutex<Option<ExhaustReason>>,
    error: Mutex<Option<CheckError>>,
}

impl SpillWsShared<'_> {
    fn note_exhaustion(&self, r: ExhaustReason) {
        lock(&self.reason).get_or_insert(r);
        self.stop.store(true, Ordering::Relaxed);
    }

    fn note_error(&self, e: CheckError) {
        lock(&self.error).get_or_insert(e);
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Appends one encoded arena record, returning its arrival id.
    /// Lock order everywhere is stripe → store, so calling this while
    /// holding a stripe lock is deadlock-free.
    fn append_arena(&self, rec: &[u8]) -> Result<u64, StoreError> {
        let mut store = lock(&self.arena);
        let id = store.len();
        let info = store
            .append(rec)?
            .map(|meta| spill::seal_info("arena", &store, &meta));
        drop(store);
        if let Some(info) = info {
            spill::note_spill(self.meter, self.rec, &info);
        }
        Ok(id)
    }

    /// Appends one encoded edge record (a completed parent's full
    /// successor list).
    fn append_edges(&self, rec: &[u8]) -> Result<(), StoreError> {
        let mut store = lock(&self.edges);
        let info = store
            .append(rec)?
            .map(|meta| spill::seal_info("edges", &store, &meta));
        drop(store);
        if let Some(info) = info {
            spill::note_spill(self.meter, self.rec, &info);
        }
        Ok(())
    }

    /// Fingerprint-mode intern: probe the key's stripe across both
    /// tiers, and only on an admitted full miss run `encode` to build
    /// the record and append it to the arena — already-visited
    /// successors never materialize their bytes. The charge-then-admit
    /// order matches the sequential spill engine's
    /// [`fp_entry`](super::spill) discipline.
    fn intern_fp(
        &self,
        fp: u64,
        encode: impl FnOnce(&mut Vec<u8>),
        rec_buf: &mut Vec<u8>,
    ) -> Result<(u64, bool), WsStop> {
        let key = fp & self.mask;
        let (_si, mut shard) = self.visited.lock_key(key);
        {
            let SpillShard {
                hot,
                runs,
                filter,
                probe,
                ..
            } = &mut *shard;
            if let Some(&id) = hot.get(&key) {
                return Ok((id, false));
            }
            if !runs.is_empty() && filter.as_ref().is_some_and(|f| f.maybe(key)) {
                probe.clear();
                for run in runs.iter_mut() {
                    run.lookup(key, probe).map_err(fail)?;
                    if let Some(&id) = probe.first() {
                        return Ok((id, false));
                    }
                }
            }
        }
        if let Some(reason) = self.meter.charge_state() {
            return Err(WsStop::Cut(reason));
        }
        encode(rec_buf);
        let id = self.append_arena(rec_buf).map_err(fail)?;
        shard.hot.insert(key, id);
        shard.hot_bytes += 16;
        let spilled = if shard.hot_bytes >= self.shard_hot_bytes {
            Some(
                shard
                    .drain(&self.drain, self.shard_filter_bytes)
                    .map_err(fail)?,
            )
        } else {
            None
        };
        drop(shard);
        if let Some(info) = spilled {
            spill::note_spill(self.meter, self.rec, &info);
        }
        Ok((id, true))
    }

    /// Exact-mode intern: the unmasked fingerprint only *indexes*
    /// candidates, each verified against its arena record before the
    /// probe state is declared visited — forced collisions give false
    /// candidates, never false answers. The caller pre-encodes the
    /// probe's full record (`rec_buf`); on the packed path equality is
    /// decided on the payload bytes (packing is injective on in-domain
    /// states), on the tree path by decoding the candidate.
    fn intern_exact(
        &self,
        fp: u64,
        rec_buf: &[u8],
        child: Option<&State>,
        layout: Option<&PackedLayout>,
        read_buf: &mut Vec<u8>,
        cand: &mut Vec<u64>,
    ) -> Result<(u64, bool), WsStop> {
        let (_si, mut shard) = self.visited.lock_key(fp & self.mask);
        cand.clear();
        {
            let SpillShard {
                hot,
                dups,
                runs,
                filter,
                ..
            } = &mut *shard;
            if let Some(&id) = hot.get(&fp) {
                cand.push(id);
                if let Some(extra) = dups.get(&fp) {
                    cand.extend_from_slice(extra);
                }
            }
            if !runs.is_empty() && filter.as_ref().is_some_and(|f| f.maybe(fp)) {
                for run in runs.iter_mut() {
                    run.lookup(fp, cand).map_err(fail)?;
                }
            }
        }
        // Verification happens under the stripe lock so no peer can
        // admit the same state between our probe and our insert.
        for &cid in cand.iter() {
            {
                let mut store = lock(&self.arena);
                store.read(cid, read_buf).map_err(fail)?;
            }
            let held = match child {
                // Packed payloads start at byte 17 in both records.
                None => read_buf[17..] == rec_buf[17..],
                Some(s) => {
                    let r = checkpoint::decode_arena_record(read_buf, layout)
                        .map_err(|e| WsStop::Fail(e.into()))?;
                    &r.state == s
                }
            };
            if held {
                return Ok((cid, false));
            }
        }
        if let Some(reason) = self.meter.charge_state() {
            return Err(WsStop::Cut(reason));
        }
        let id = self.append_arena(rec_buf).map_err(fail)?;
        match shard.hot.entry(fp) {
            Entry::Occupied(_) => shard.dups.entry(fp).or_default().push(id),
            Entry::Vacant(e) => {
                e.insert(id);
            }
        }
        shard.hot_bytes += 16;
        let spilled = if shard.hot_bytes >= self.shard_hot_bytes {
            Some(
                shard
                    .drain(&self.drain, self.shard_filter_bytes)
                    .map_err(fail)?,
            )
        } else {
            None
        };
        drop(shard);
        if let Some(info) = spilled {
            spill::note_spill(self.meter, self.rec, &info);
        }
        Ok((id, true))
    }

    /// Resume seeding: records `id` under `fp` with the same
    /// first-id-wins (fingerprint) / keep-every-id (exact) discipline
    /// as the sequential spill engine's re-ingest, meter-free. Drains
    /// may fire mid-seed; the returned info is the caller's to report.
    fn seed_visited(&self, fp: u64, id: u64) -> Result<Option<spill::SpillInfo>, StoreError> {
        let key = match self.mode {
            VisitedMode::Fingerprint => fp & self.mask,
            VisitedMode::Exact => fp,
        };
        let (_si, mut shard) = self.visited.lock_key(fp & self.mask);
        match self.mode {
            VisitedMode::Fingerprint => {
                let SpillShard {
                    hot,
                    runs,
                    filter,
                    probe,
                    ..
                } = &mut *shard;
                if hot.contains_key(&key) {
                    return Ok(None);
                }
                if !runs.is_empty() && filter.as_ref().is_some_and(|f| f.maybe(key)) {
                    probe.clear();
                    for run in runs.iter_mut() {
                        run.lookup(key, probe)?;
                        if !probe.is_empty() {
                            return Ok(None);
                        }
                    }
                }
                hot.insert(key, id);
            }
            VisitedMode::Exact => match shard.hot.entry(key) {
                Entry::Occupied(_) => shard.dups.entry(key).or_default().push(id),
                Entry::Vacant(e) => {
                    e.insert(id);
                }
            },
        }
        shard.hot_bytes += 16;
        if shard.hot_bytes >= self.shard_hot_bytes {
            return shard
                .drain(&self.drain, self.shard_filter_bytes)
                .map(Some);
        }
        Ok(None)
    }
}

/// One worker's accumulated output.
#[derive(Default)]
struct SpillWsOut {
    /// Parents whose expansion was cut short by budget exhaustion.
    interrupted: Vec<Pid>,
    /// Cut parents' partial edge runs — kept in RAM only, never
    /// written to the edge store (same invariant as the sequential
    /// spill engine's `cut_edges`).
    cut: Vec<(Pid, Vec<Edge>)>,
    claimed: u64,
    inserted: u64,
}

/// Claims the next parent: own deque front first, then a sweep
/// stealing from the backs of the peers'.
fn claim(shared: &SpillWsShared<'_>, me: usize) -> Option<Pid> {
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

/// The worker loop over packed records: read the parent's record
/// through the arena cache, unpack into a reused value buffer, derive
/// child fingerprints incrementally, intern child records.
fn run_worker_packed(
    shared: &SpillWsShared<'_>,
    compiled: &CompiledSystem<'_>,
    layout: &PackedLayout,
    me: usize,
    out: &mut SpillWsOut,
) {
    use std::ops::ControlFlow;

    let fp_probe = matches!(shared.mode, VisitedMode::Fingerprint);
    let mut scratch = EvalScratch::new();
    let mut parent_rec: Vec<u8> = Vec::new();
    let mut rec_buf: Vec<u8> = Vec::new();
    let mut read_buf: Vec<u8> = Vec::new();
    let mut cand: Vec<u64> = Vec::new();
    let mut edge_rec_buf: Vec<u8> = Vec::new();
    let mut values: Vec<Value> = Vec::new();
    let mut updates: Vec<(usize, u32)> = Vec::new();
    let mut born: Vec<Pid> = Vec::new();
    let mut edge_list: Vec<Edge> = Vec::new();
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
        out.claimed += 1;
        let mut failed = false;
        let mut cut = false;
        {
            let mut store = lock(&shared.arena);
            if let Err(e) = store.read(local_of(parent) as u64, &mut parent_rec) {
                drop(store);
                shared.note_error(CheckpointError::from(e).into());
                failed = true;
            }
        }
        if !failed {
            debug_assert_eq!(parent_rec[0], 1, "packed runs write only tag-1 records");
            let parent_fp = u64::from_le_bytes(parent_rec[9..17].try_into().unwrap());
            layout.unpack_into(&parent_rec[17..], &mut values);
            edge_list.clear();
            let result =
                compiled.for_each_successor_values(&values, &mut scratch, |action, assignments| {
                    if let Some(reason) = shared.meter.charge_transition() {
                        shared.note_exhaustion(reason);
                        out.interrupted.push(parent);
                        cut = true;
                        return ControlFlow::Break(());
                    }
                    let mut child_fp = parent_fp;
                    updates.clear();
                    for (v, val) in assignments {
                        let slot = v.index();
                        let old = layout.read_code(&parent_rec[17..], slot);
                        let new = layout
                            .code_of(slot, val)
                            .expect("stepper domain-checks every update value");
                        if new != old {
                            child_fp ^= layout.fingerprint_delta(slot, old, new);
                            updates.push((slot, new));
                        }
                    }
                    let encode = |buf: &mut Vec<u8>| {
                        buf.clear();
                        buf.push(1u8);
                        buf.extend_from_slice(&(local_of(parent) as u32).to_le_bytes());
                        buf.extend_from_slice(&(action as u32).to_le_bytes());
                        buf.extend_from_slice(&child_fp.to_le_bytes());
                        let start = buf.len();
                        buf.extend_from_slice(&parent_rec[17..]);
                        for &(slot, new) in &updates {
                            layout.write_code(&mut buf[start..], slot, new);
                        }
                    };
                    let interned = if fp_probe {
                        shared.intern_fp(child_fp, encode, &mut rec_buf)
                    } else {
                        encode(&mut rec_buf);
                        shared.intern_exact(
                            child_fp,
                            &rec_buf,
                            None,
                            Some(layout),
                            &mut read_buf,
                            &mut cand,
                        )
                    };
                    match interned {
                        Ok((child, is_new)) => {
                            if is_new {
                                out.inserted += 1;
                                shared.in_flight.fetch_add(1, Ordering::AcqRel);
                                born.push(pid(0, child as usize));
                            }
                            edge_list.push(Edge {
                                action,
                                target: child as usize,
                            });
                            ControlFlow::Continue(())
                        }
                        Err(WsStop::Cut(reason)) => {
                            shared.note_exhaustion(reason);
                            out.interrupted.push(parent);
                            cut = true;
                            ControlFlow::Break(())
                        }
                        Err(WsStop::Fail(e)) => {
                            shared.note_error(e);
                            failed = true;
                            ControlFlow::Break(())
                        }
                    }
                });
            if let Err(e) = result {
                shared.note_error(e);
                failed = true;
            }
            if cut {
                out.cut.push((parent, std::mem::take(&mut edge_list)));
            } else if !failed {
                checkpoint::encode_edge_record(local_of(parent), &edge_list, &mut edge_rec_buf);
                if let Err(e) = shared.append_edges(&edge_rec_buf) {
                    shared.note_error(CheckpointError::from(e).into());
                    failed = true;
                }
            }
        }
        // Flush on every exit path — a counted-but-unqueued child
        // would wedge quiescence or drop out of the resume frontier.
        if !born.is_empty() {
            lock(&shared.deques[me]).extend(born.drain(..));
        }
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        if failed {
            break;
        }
    }
}

/// The worker loop for the tree fallback: records carry codec-encoded
/// states, child fingerprints come from [`State::fingerprint_with`].
fn run_worker_tree(
    shared: &SpillWsShared<'_>,
    compiled: &CompiledSystem<'_>,
    me: usize,
    out: &mut SpillWsOut,
) {
    use std::ops::ControlFlow;

    let fp_probe = matches!(shared.mode, VisitedMode::Fingerprint);
    let mut scratch = EvalScratch::new();
    let mut parent_rec: Vec<u8> = Vec::new();
    let mut rec_buf: Vec<u8> = Vec::new();
    let mut read_buf: Vec<u8> = Vec::new();
    let mut cand: Vec<u64> = Vec::new();
    let mut edge_rec_buf: Vec<u8> = Vec::new();
    let mut pack_scratch: Vec<u8> = Vec::new();
    let mut born: Vec<Pid> = Vec::new();
    let mut edge_list: Vec<Edge> = Vec::new();
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
        out.claimed += 1;
        let mut failed = false;
        let mut cut = false;
        {
            let mut store = lock(&shared.arena);
            if let Err(e) = store.read(local_of(parent) as u64, &mut parent_rec) {
                drop(store);
                shared.note_error(CheckpointError::from(e).into());
                failed = true;
            }
        }
        let decoded = if failed {
            None
        } else {
            match checkpoint::decode_arena_record(&parent_rec, None) {
                Ok(r) => Some((r.state, r.fp)),
                Err(e) => {
                    shared.note_error(e.into());
                    failed = true;
                    None
                }
            }
        };
        if let Some((s, s_fp)) = decoded {
            edge_list.clear();
            let result = compiled.for_each_successor(&s, &mut scratch, |action, assignments| {
                if let Some(reason) = shared.meter.charge_transition() {
                    shared.note_exhaustion(reason);
                    out.interrupted.push(parent);
                    cut = true;
                    return ControlFlow::Break(());
                }
                let child_fp = s.fingerprint_with(s_fp, assignments);
                let interned = if fp_probe {
                    shared.intern_fp(
                        child_fp,
                        |buf| {
                            checkpoint::encode_arena_record(
                                &s.with(assignments),
                                child_fp,
                                Some((local_of(parent), action)),
                                None,
                                &mut pack_scratch,
                                buf,
                            );
                        },
                        &mut rec_buf,
                    )
                } else {
                    let child = s.with(assignments);
                    checkpoint::encode_arena_record(
                        &child,
                        child_fp,
                        Some((local_of(parent), action)),
                        None,
                        &mut pack_scratch,
                        &mut rec_buf,
                    );
                    shared.intern_exact(
                        child_fp,
                        &rec_buf,
                        Some(&child),
                        None,
                        &mut read_buf,
                        &mut cand,
                    )
                };
                match interned {
                    Ok((child, is_new)) => {
                        if is_new {
                            out.inserted += 1;
                            shared.in_flight.fetch_add(1, Ordering::AcqRel);
                            born.push(pid(0, child as usize));
                        }
                        edge_list.push(Edge {
                            action,
                            target: child as usize,
                        });
                        ControlFlow::Continue(())
                    }
                    Err(WsStop::Cut(reason)) => {
                        shared.note_exhaustion(reason);
                        out.interrupted.push(parent);
                        cut = true;
                        ControlFlow::Break(())
                    }
                    Err(WsStop::Fail(e)) => {
                        shared.note_error(e);
                        failed = true;
                        ControlFlow::Break(())
                    }
                }
            });
            if let Err(e) = result {
                shared.note_error(e);
                failed = true;
            }
            if cut {
                out.cut.push((parent, std::mem::take(&mut edge_list)));
            } else if !failed {
                checkpoint::encode_edge_record(local_of(parent), &edge_list, &mut edge_rec_buf);
                if let Err(e) = shared.append_edges(&edge_rec_buf) {
                    shared.note_error(CheckpointError::from(e).into());
                    failed = true;
                }
            }
        }
        // Flush on every exit path — a counted-but-unqueued child
        // would wedge quiescence or drop out of the resume frontier.
        if !born.is_empty() {
            lock(&shared.deques[me]).extend(born.drain(..));
        }
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        if failed {
            break;
        }
    }
}

/// Writes the exhaustion snapshot in the spill wire format: the
/// rolled-back canonical graph re-encoded, in canonical id order, into
/// fresh `arena-*` / `edges-*` stores (sealed segments referenced by
/// name, unsealed tails embedded). Because ids, parents, and edges are
/// all canonical, the manifest is indistinguishable from one the
/// sequential spill engine would have written — any engine resumes it.
#[allow(clippy::too_many_arguments)]
fn spill_exhaustion_snapshot(
    dir: &Path,
    t: &Tuning,
    states: &[State],
    fps: &[u64],
    init: &[usize],
    edges: &[Vec<Edge>],
    parents: &[Option<(usize, usize)>],
    keep: usize,
    frontier: &[usize],
    options: &ExploreOptions,
    sys_hash: u64,
    layout: Option<&PackedLayout>,
    meter: &Meter,
    rec: &RecorderHandle,
) -> Result<Box<Snapshot>, CheckError> {
    let mut arena = SegmentStore::create(dir, "arena", t.seg_target, t.arena_cache)
        .map_err(CheckpointError::from)?;
    let mut edge_out = SegmentStore::create(dir, "edges", t.seg_target, t.edge_cache)
        .map_err(CheckpointError::from)?;
    let mut in_frontier = vec![false; keep];
    for &f in frontier {
        in_frontier[f] = true;
    }
    let mut scratch = Vec::new();
    let mut buf = Vec::new();
    let mut transitions: u64 = 0;
    for i in 0..keep {
        checkpoint::encode_arena_record(&states[i], fps[i], parents[i], layout, &mut scratch, &mut buf);
        if let Some(meta) = arena.append(&buf).map_err(CheckpointError::from)? {
            spill::note_spill(meter, rec, &spill::seal_info("arena", &arena, &meta));
        }
        // Frontier states re-expand on resume, so they must have no
        // banked edge record — the invariant `capture` enforces by
        // clearing frontier edge lists.
        if !in_frontier[i] {
            checkpoint::encode_edge_record(i, &edges[i], &mut buf);
            if let Some(meta) = edge_out.append(&buf).map_err(CheckpointError::from)? {
                spill::note_spill(meter, rec, &spill::seal_info("edges", &edge_out, &meta));
            }
            transitions += edges[i].len() as u64;
        }
    }
    Ok(Box::new(Snapshot {
        fp_bits: options.fp_bits.clamp(1, 64),
        mode: options.mode,
        reduced: false,
        system_hash: sys_hash,
        seq: 0,
        states: Vec::new(),
        init: init.to_vec(),
        edges: Vec::new(),
        parents: Vec::new(),
        frontier: frontier.to_vec(),
        reduction: None,
        spill: Some(SpillManifest {
            dir: arena.dir().to_path_buf(),
            states: keep as u64,
            transitions,
            arena_segments: arena.sealed().to_vec(),
            arena_hot: arena.hot_records().map(<[u8]>::to_vec).collect(),
            edge_segments: edge_out.sealed().to_vec(),
            edge_hot: edge_out.hot_records().map(<[u8]>::to_vec).collect(),
        }),
    }))
}

/// The engine entry point; see the module docs. Wraps the run with
/// the shared segment-directory policy (persistent next to a
/// checkpoint, ephemeral otherwise).
pub(super) fn explore_spill_ws(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    threads: usize,
    mem: usize,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    let (dir, ephemeral) = spill::spill_dir(budget);
    let result = explore_spill_ws_in(system, budget, options, threads, resume, mem, &dir);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

fn explore_spill_ws_in(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    threads: usize,
    resume: Option<&Snapshot>,
    mem: usize,
    dir: &Path,
) -> Result<Exploration, CheckError> {
    let threads = threads.max(1);
    let compiled = CompiledSystem::compile(system);
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let rec = budget.recorder.clone();
    let t = Tuning::for_budget(mem);
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

    // Layout election as in the work-stealing engine: packed when the
    // declared domains compile and every seed state actually packs.
    let layout_owned = PackedLayout::compile(system.vars()).filter(|l| {
        let packs = |s: &State| l.pack(s).is_some();
        match (&init_states, resume) {
            (Some(states), _) => states.iter().all(packs),
            (None, Some(snap)) => snap.states.iter().all(packs),
            (None, None) => true,
        }
    });
    let layout = layout_owned.as_ref();

    let arena_store = SegmentStore::create(dir, "wsarena", t.seg_target, t.arena_cache)
        .map_err(CheckpointError::from)?;
    let edge_store = SegmentStore::create(dir, "wsedges", t.seg_target, t.edge_cache)
        .map_err(CheckpointError::from)?;
    spill::clean_visited_runs(dir).map_err(CheckpointError::from)?;

    let shared = SpillWsShared {
        visited: Striped::new(SpillShard::new),
        drain: Mutex::new(DrainCtl {
            dir: dir.to_path_buf(),
            seq: 0,
        }),
        arena: Mutex::new(arena_store),
        edges: Mutex::new(edge_store),
        // The budget's hot-tier share (entries × 16 accounted bytes),
        // split evenly across the stripes.
        shard_hot_bytes: (t.hot_cap * 16 / NUM_SHARDS).max(256),
        shard_filter_bytes: t.filter_bytes / NUM_SHARDS,
        deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        in_flight: AtomicUsize::new(0),
        mask: options.mask(),
        mode: options.mode,
        meter: &meter,
        rec: &rec,
        stop: AtomicBool::new(false),
        reason: Mutex::new(None),
        error: Mutex::new(None),
    };

    let mut init_ids: Vec<u64> = Vec::new();
    let mut exhausted_in_init = false;
    let frontier_seed: Vec<Pid>;
    let mut rec_buf: Vec<u8> = Vec::new();
    let mut pack_scratch: Vec<u8> = Vec::new();
    match (init_states, resume) {
        (None, Some(snap)) => {
            // Re-ingest the materialized snapshot in canonical order,
            // exactly as the sequential spill engine does: arrival ids
            // equal canonical ids, the visited set is rebuilt with
            // first-id-wins inserts, and every non-frontier state gets
            // its edge record banked — the finalization read-back then
            // cannot tell banked work from new work.
            let n = snap.states.len();
            let mut in_frontier = vec![false; n];
            for &f in &snap.frontier {
                in_frontier[f] = true;
            }
            for (id, s) in snap.states.iter().enumerate() {
                let fp = s.fingerprint();
                if let Some(info) = shared
                    .seed_visited(fp, id as u64)
                    .map_err(CheckpointError::from)?
                {
                    spill::note_spill(&meter, &rec, &info);
                }
                checkpoint::encode_arena_record(
                    s,
                    fp,
                    snap.parents[id],
                    layout,
                    &mut pack_scratch,
                    &mut rec_buf,
                );
                let got = shared.append_arena(&rec_buf).map_err(CheckpointError::from)?;
                debug_assert_eq!(got, id as u64, "seeding assigns arrival ids in order");
                if !in_frontier[id] {
                    checkpoint::encode_edge_record(id, &snap.edges[id], &mut rec_buf);
                    shared.append_edges(&rec_buf).map_err(CheckpointError::from)?;
                }
            }
            init_ids = snap.init.iter().map(|&i| i as u64).collect();
            frontier_seed = snap.frontier.iter().map(|&i| pid(0, i)).collect();
        }
        (Some(states), _) => {
            // Initial states intern sequentially so their canonical
            // order is the enumeration order, as in every engine.
            let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
            let mut read_buf: Vec<u8> = Vec::new();
            let mut cand: Vec<u64> = Vec::new();
            for s in &states {
                let fp = s.fingerprint();
                let r = match options.mode {
                    VisitedMode::Fingerprint => shared.intern_fp(
                        fp,
                        |buf| {
                            checkpoint::encode_arena_record(
                                s,
                                fp,
                                None,
                                layout,
                                &mut pack_scratch,
                                buf,
                            );
                        },
                        &mut rec_buf,
                    ),
                    VisitedMode::Exact => {
                        checkpoint::encode_arena_record(
                            s,
                            fp,
                            None,
                            layout,
                            &mut pack_scratch,
                            &mut rec_buf,
                        );
                        shared.intern_exact(
                            fp,
                            &rec_buf,
                            if layout.is_some() { None } else { Some(s) },
                            layout,
                            &mut read_buf,
                            &mut cand,
                        )
                    }
                };
                match r {
                    Ok((id, true)) => init_ids.push(id),
                    Ok((_, false)) => {}
                    Err(WsStop::Cut(reason)) => {
                        shared.note_exhaustion(reason);
                        exhausted_in_init = true;
                        break;
                    }
                    Err(WsStop::Fail(e)) => return Err(e),
                }
            }
            frontier_seed = init_ids.iter().map(|&i| pid(0, i as usize)).collect();
        }
        (None, None) => unreachable!("fresh runs enumerate initial states above"),
    }

    let observe = meter.observed();
    let mut pending: Vec<Pid> = Vec::new();
    let mut cut_partials: Vec<(Pid, Vec<Edge>)> = Vec::new();
    if exhausted_in_init {
        pending.extend(&frontier_seed);
    } else {
        // Seed the deques round-robin and prime the quiescence counter.
        for (i, &p) in frontier_seed.iter().enumerate() {
            lock(&shared.deques[i % threads]).push_back(p);
        }
        shared
            .in_flight
            .store(frontier_seed.len(), Ordering::Release);
        let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
        let outs: Vec<SpillWsOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|me| {
                    let shared = &shared;
                    let compiled = &compiled;
                    let recorder = &budget.recorder;
                    scope.spawn(move || {
                        let mut out = SpillWsOut::default();
                        let body = std::panic::AssertUnwindSafe(|| match layout {
                            Some(l) => run_worker_packed(shared, compiled, l, me, &mut out),
                            None => run_worker_tree(shared, compiled, me, &mut out),
                        });
                        if let Err(payload) = std::panic::catch_unwind(body) {
                            // Backstop, not panic tolerance: raise the
                            // stop flag so the peers' quiescence spin
                            // terminates, note the casualty, then let
                            // the panic surface through the scope.
                            shared.stop.store(true, Ordering::Relaxed);
                            if recorder.enabled() {
                                recorder.record(&Event::WorkerFailure {
                                    worker: me,
                                    level: 0,
                                    requeued: 0,
                                });
                            }
                            std::panic::resume_unwind(payload);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|p| -> SpillWsOut { std::panic::resume_unwind(p) })
                })
                .collect()
        });
        drop(expand_phase);
        for (worker, out) in outs.iter().enumerate() {
            if observe {
                budget.recorder.record(&Event::WorkerLevel {
                    worker,
                    level: 0,
                    claimed: out.claimed,
                    inserted: out.inserted,
                });
            }
        }
        for mut out in outs {
            pending.append(&mut out.interrupted);
            cut_partials.append(&mut out.cut);
        }
        // Deque remnants after a budget stop are honestly pending.
        for d in &shared.deques {
            pending.extend(lock(d).drain(..));
        }
    }

    if let Some(e) = lock(&shared.error).take() {
        return Err(e);
    }
    let SpillWsShared {
        arena,
        edges: edge_mutex,
        reason,
        ..
    } = shared;
    let arena_store = arena.into_inner().unwrap_or_else(PoisonError::into_inner);
    let edge_store = edge_mutex
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let reason = reason.into_inner().unwrap_or_else(PoisonError::into_inner);

    if rec.enabled() {
        let a = arena_store.cache_stats();
        let e = edge_store.cache_stats();
        rec.record(&Event::CacheStats {
            hits: a.hits + e.hits,
            misses: a.misses + e.misses,
            evictions: a.evictions + e.evictions,
            resident_bytes: a.resident_bytes + e.resident_bytes,
            spilled_bytes: meter.spilled_bytes(),
        });
    }

    let renumber_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreRenumber);
    let n = arena_store.len() as usize;
    // Decode the arena stream in arrival order (sealed segments, then
    // the unsealed tail), like the sequential engine's teardown.
    let mut arr_states: Vec<Option<State>> = Vec::with_capacity(n);
    let mut arr_fps: Vec<u64> = Vec::with_capacity(n);
    {
        let mut take = |bytes: &[u8]| -> Result<(), CheckpointError> {
            let r = checkpoint::decode_arena_record(bytes, layout)?;
            arr_states.push(Some(r.state));
            arr_fps.push(r.fp);
            Ok(())
        };
        for meta in arena_store.sealed() {
            let segment = store::read_segment(&arena_store.dir().join(&meta.name), Some(meta))
                .map_err(CheckpointError::from)?;
            for bytes in segment {
                take(&bytes)?;
            }
        }
        for bytes in arena_store.hot_records() {
            take(bytes)?;
        }
    }

    // Rebuild the edge-record runs: banked records (one contiguous run
    // per completed parent, in id order) plus the in-RAM partial runs
    // of cut parents — cut parents never wrote a record, so the runs
    // are disjoint and the replay sees each parent's edges exactly
    // once.
    let banked_edges = spill::collect_edges(&edge_store, n)?;
    let mut all_edges: Vec<Vec<(Pid, u32, Pid)>> = Vec::new();
    let total: usize = banked_edges.iter().map(Vec::len).sum();
    let mut recs: Vec<(Pid, u32, Pid)> = Vec::with_capacity(total);
    for (id, es) in banked_edges.iter().enumerate() {
        for e in es {
            recs.push((pid(0, id), e.action as u32, pid(0, e.target)));
        }
    }
    if !recs.is_empty() {
        all_edges.push(recs);
    }
    for (parent, es) in &cut_partials {
        if es.is_empty() {
            continue;
        }
        all_edges.push(
            es.iter()
                .map(|e| (*parent, e.action as u32, pid(0, e.target)))
                .collect(),
        );
    }
    let init_pids: Vec<Pid> = init_ids.iter().map(|&i| pid(0, i as usize)).collect();
    let (mut replay, order) = replay_records_order(&[n], &all_edges, &init_pids);
    replay.states = order
        .iter()
        .map(|&p| {
            arr_states[local_of(p)]
                .take()
                .expect("each arrival id appears once in the canonical order")
        })
        .collect();
    let Replay {
        canon,
        states,
        edges,
        parents,
        init,
        depth,
    } = replay;

    // Exhaustion snapshot at the quiescent point, rolled back to the
    // deepest consistent level boundary of the canonical graph.
    let (snapshot, resume_token) = match reason {
        Some(_) if !exhausted_in_init => {
            let (keep, frontier_ids) = rollback_cut(&canon, &depth, states.len(), &pending);
            if ck.active() {
                let canon_fps: Vec<u64> = order.iter().map(|&p| arr_fps[local_of(p)]).collect();
                let snap = spill_exhaustion_snapshot(
                    dir,
                    &t,
                    &states,
                    &canon_fps,
                    &init,
                    &edges,
                    &parents,
                    keep,
                    &frontier_ids,
                    options,
                    sys_hash,
                    layout,
                    &meter,
                    &rec,
                )?;
                let token = ck.write((*snap).clone(), &budget.recorder);
                (Some(snap), token)
            } else {
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
        }
        _ => (None, None),
    };

    // The final visited map, rebuilt from the canonical order — the
    // same first-id-wins map the sequential spill engine produces
    // (its hot-tier move is this map when nothing ever drained).
    let visited = match options.mode {
        VisitedMode::Fingerprint => {
            let mask = options.mask();
            let mut map: FxHashMap<u64, usize> = FxHashMap::default();
            map.reserve(states.len());
            for (id, &p) in order.iter().enumerate() {
                map.entry(arr_fps[local_of(p)] & mask).or_insert(id);
            }
            Visited::Fingerprint { map, mask }
        }
        VisitedMode::Exact => {
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
