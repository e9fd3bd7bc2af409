//! The bounded-memory exploration engine.
//!
//! Same BFS discovery order, charge discipline, and outcomes as the
//! in-RAM sequential loop (`explore_bfs`), but the working set is held
//! to an approximate byte budget:
//!
//! * the **state arena** and **edge lists** are append-only
//!   [`SegmentStore`]s — sealed segments live on disk and are read
//!   back through an LRU cache; only the unsealed tail (and, until
//!   the first seal, a resident mirror of the arena) stays in RAM;
//! * the **visited set** is two-tier: a hot in-RAM fingerprint table
//!   that, when full, drains into sorted on-disk
//!   [`FingerprintRun`]s probed behind a one-bit in-RAM filter.
//!
//! Soundness of the two-tier visited set is the same first-id-wins
//! argument the resume path already relies on: a fingerprint key is
//! inserted at most once globally (hot and spilled tiers hold
//! disjoint keys), so lookups across both tiers answer exactly what
//! one big map would. In [`VisitedMode::Exact`] the fingerprint is
//! only a candidate index — every hit is verified by comparing the
//! probe state against the arena record read back through the cache,
//! so collisions never conflate states.
//!
//! Checkpoints are written in the spill wire format
//! ([`crate::checkpoint::SNAPSHOT_VERSION_SPILL`]): sealed segments
//! are *referenced* by name and checksum, and only the unsealed tails
//! are embedded — a periodic snapshot costs O(hot tier), not O(state
//! space). Resume materializes the snapshot first (in
//! [`super::resume_exploration`]) and re-ingests it here; a crash
//! *during* that re-ingest can invalidate the old snapshot's segment
//! references, which surfaces as a typed I/O error on the next
//! resume, never a wrong graph.

use super::{seq_exhaustion_snapshot, Edge, ExploreOptions, Exploration, StateGraph, Visited};
use crate::budget::{Budget, ExhaustReason, Meter, Outcome};
use crate::checkpoint::{self, CheckpointError, Checkpointer, Snapshot, SpillManifest};
use crate::compiled::{CompiledSystem, EvalScratch};
use crate::obs::{Event, Phase, PhaseGuard, RecorderHandle};
use crate::{CheckError, System, VisitedMode};
use fxhash::FxHashMap;
use opentla_kernel::store::{self, FingerprintRun, SegmentMeta, SegmentStore, StoreError};
use opentla_kernel::{PackedLayout, State};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// How one memory budget splits across the engine's tiers (shared
/// with the parallel spill engine, which divides the visited-tier
/// shares across its shards).
pub(super) struct Tuning {
    /// Seal threshold for both segment stores.
    pub(super) seg_target: usize,
    /// LRU cache budget for the arena store.
    pub(super) arena_cache: usize,
    /// LRU cache budget for the edge store.
    pub(super) edge_cache: usize,
    /// Hot visited-tier capacity, in entries.
    pub(super) hot_cap: usize,
    /// In-RAM filter size in front of the spilled runs.
    pub(super) filter_bytes: usize,
}

impl Tuning {
    pub(super) fn for_budget(m: usize) -> Tuning {
        let seg_target = (m / 8).clamp(1024, 8 << 20);
        Tuning {
            seg_target,
            arena_cache: (m / 4).max(seg_target),
            edge_cache: (m / 8).max(seg_target),
            hot_cap: (m / 128).max(64),
            filter_bytes: (m / 16).clamp(4 << 10, 256 << 20),
        }
    }
}

/// A one-bit-per-key filter in front of the spilled fingerprint runs:
/// a clear bit proves the key was never spilled, so the common miss
/// costs no disk probe. Power-of-two sized, indexed by the top bits of
/// a Fibonacci-multiplied key.
pub(super) struct Filter {
    words: Vec<u64>,
    shift: u32,
}

impl Filter {
    pub(super) fn new(bytes: usize) -> Filter {
        let bits = (bytes.max(1024) * 8).next_power_of_two();
        Filter {
            words: vec![0; bits / 64],
            shift: 64 - bits.trailing_zeros(),
        }
    }

    fn bit(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    pub(super) fn set(&mut self, key: u64) {
        let bit = self.bit(key);
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    pub(super) fn maybe(&self, key: u64) -> bool {
        let bit = self.bit(key);
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// One sealed spill emission, for meter accounting and the `spill`
/// observability event.
pub(super) struct SpillInfo {
    pub(super) tier: &'static str,
    pub(super) seq: u64,
    pub(super) records: u64,
    pub(super) bytes: u64,
}

pub(super) fn note_spill(meter: &Meter, rec: &RecorderHandle, info: &SpillInfo) {
    meter.add_spilled_bytes(info.bytes);
    if rec.enabled() {
        rec.record(&Event::Spill {
            tier: info.tier,
            seq: info.seq,
            records: info.records,
            bytes: info.bytes,
            total_spilled_bytes: meter.spilled_bytes(),
        });
    }
}

pub(super) fn seal_info(tier: &'static str, store: &SegmentStore, meta: &SegmentMeta) -> SpillInfo {
    SpillInfo {
        tier,
        seq: store.sealed().len() as u64 - 1,
        records: meta.records,
        bytes: meta.file_len(),
    }
}

/// The two-tier visited set. In fingerprint mode each (masked) key is
/// inserted at most once, so the tiers hold disjoint keys and a
/// lookup's first answer is *the* answer. In exact mode a key may
/// carry several candidate ids (genuine fingerprint collisions); the
/// caller verifies candidates against the arena.
struct SpillVisited {
    /// First id recorded per key. In fingerprint mode — where each key
    /// is inserted exactly once — this is, verbatim, the engine's
    /// first-id-wins visited map: an in-budget completed run *moves* it
    /// into the final [`StateGraph`] instead of rebuilding one.
    hot: FxHashMap<u64, usize>,
    /// Exact-mode extras: second and later ids under a genuinely
    /// colliding key (rare). Every key here is also in `hot`.
    dups: FxHashMap<u64, Vec<u64>>,
    hot_cap: usize,
    /// Created at the first drain — a run that never spills never pays
    /// for zeroing (or walking) the filter's bit array.
    filter: Option<Filter>,
    filter_bytes: usize,
    runs: Vec<FingerprintRun>,
    dir: PathBuf,
    probe: Vec<u64>,
}

/// Removes stale `visited-*.run` files an earlier process left in
/// `dir`, mirroring `SegmentStore::create`'s stale-segment cleanup.
/// Shared by both spill engines' visited-set constructors.
pub(super) fn clean_visited_runs(dir: &Path) -> Result<(), StoreError> {
    for entry in std::fs::read_dir(dir).map_err(|e| StoreError::Io {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })? {
        let entry = entry.map_err(|e| StoreError::Io {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("visited-") && name.ends_with(".run") {
            let path = entry.path();
            std::fs::remove_file(&path).map_err(|e| StoreError::Io {
                path,
                message: e.to_string(),
            })?;
        }
    }
    Ok(())
}

impl SpillVisited {
    fn create(dir: &Path, t: &Tuning) -> Result<SpillVisited, StoreError> {
        clean_visited_runs(dir)?;
        Ok(SpillVisited {
            hot: FxHashMap::default(),
            dups: FxHashMap::default(),
            hot_cap: t.hot_cap,
            filter: None,
            filter_bytes: t.filter_bytes,
            runs: Vec::new(),
            dir: dir.to_path_buf(),
            probe: Vec::new(),
        })
    }

    /// Fingerprint-mode lookup: the id recorded for `key`, if any.
    fn lookup_fp(&mut self, key: u64) -> Result<Option<u64>, StoreError> {
        if let Some(&id) = self.hot.get(&key) {
            return Ok(Some(id as u64));
        }
        if !self.runs.is_empty() && self.filter.as_ref().is_some_and(|f| f.maybe(key)) {
            self.probe.clear();
            for run in &mut self.runs {
                run.lookup(key, &mut self.probe)?;
                if let Some(&id) = self.probe.first() {
                    return Ok(Some(id));
                }
            }
        }
        Ok(None)
    }

    /// Exact-mode lookup: every candidate id recorded under `key`,
    /// appended to `out` (cleared first).
    fn candidates(&mut self, key: u64, out: &mut Vec<u64>) -> Result<(), StoreError> {
        out.clear();
        if let Some(&id) = self.hot.get(&key) {
            out.push(id as u64);
            if let Some(extra) = self.dups.get(&key) {
                out.extend_from_slice(extra);
            }
        }
        if !self.runs.is_empty() && self.filter.as_ref().is_some_and(|f| f.maybe(key)) {
            for run in &mut self.runs {
                run.lookup(key, out)?;
            }
        }
        Ok(())
    }

    /// Records `id` under `key` in the hot tier, spilling the tier to
    /// a sorted run file when it reaches capacity. Returns the spill's
    /// accounting info when one happened.
    fn insert(&mut self, key: u64, id: u64) -> Result<Option<SpillInfo>, StoreError> {
        match self.hot.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => {
                self.dups.entry(key).or_default().push(id);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(id as usize);
            }
        }
        if self.hot.len() < self.hot_cap {
            return Ok(None);
        }
        self.drain_hot().map(Some)
    }

    /// Fingerprint-mode lookup-or-insert with one hot-tier hash probe —
    /// the engine's innermost visited operation, cost-matched to the
    /// sequential engine's single `HashMap::entry`. On a full miss
    /// `charge` decides admission: `Ok(())` records `next_id` under
    /// `key`, `Err(reason)` leaves the set untouched (the budget cut
    /// happens *before* the insert, exactly like the in-RAM engine).
    fn fp_entry(
        &mut self,
        key: u64,
        next_id: u64,
        charge: impl FnOnce() -> Result<(), ExhaustReason>,
    ) -> Result<(FpOutcome, Option<SpillInfo>), StoreError> {
        match self.hot.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                Ok((FpOutcome::Found(*e.get() as u64), None))
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                if !self.runs.is_empty()
                    && self.filter.as_ref().is_some_and(|f| f.maybe(key))
                {
                    self.probe.clear();
                    for run in &mut self.runs {
                        run.lookup(key, &mut self.probe)?;
                        if let Some(&id) = self.probe.first() {
                            return Ok((FpOutcome::Found(id), None));
                        }
                    }
                }
                if let Err(reason) = charge() {
                    return Ok((FpOutcome::Cut(reason), None));
                }
                e.insert(next_id as usize);
                if self.hot.len() < self.hot_cap {
                    return Ok((FpOutcome::Inserted, None));
                }
                self.drain_hot().map(|info| (FpOutcome::Inserted, Some(info)))
            }
        }
    }

    /// Drains the hot tier (and exact-mode dups) into a sorted run
    /// file, setting the filter bits of every drained key.
    fn drain_hot(&mut self) -> Result<SpillInfo, StoreError> {
        let filter = self
            .filter
            .get_or_insert_with(|| Filter::new(self.filter_bytes));
        let mut entries: Vec<(u64, u64)> =
            Vec::with_capacity(self.hot.len() + self.dups.len());
        for (key, id) in self.hot.drain() {
            filter.set(key);
            entries.push((key, id as u64));
        }
        // Dup keys are a subset of the drained hot keys, so their
        // filter bits are already set.
        for (key, ids) in self.dups.drain() {
            entries.extend(ids.into_iter().map(|id| (key, id)));
        }
        entries.sort_unstable();
        let path = self.dir.join(format!("visited-{:05}.run", self.runs.len()));
        let run = FingerprintRun::write(&path, &entries)?;
        let info = SpillInfo {
            tier: "visited",
            seq: self.runs.len() as u64,
            records: entries.len() as u64,
            bytes: run.bytes(),
        };
        self.runs.push(run);
        Ok(info)
    }
}

/// What [`SpillVisited::fp_entry`] did with the key.
enum FpOutcome {
    /// The key was already recorded, in either tier, for this id.
    Found(u64),
    /// A full miss, admitted: `next_id` is now recorded.
    Inserted,
    /// A full miss the budget refused; nothing was recorded.
    Cut(ExhaustReason),
}

/// The disk-backed state arena, with a resident mirror kept until the
/// first seal: runs whose packed arena never outgrows one segment
/// (including every run under the unconstrained default budget) read
/// parents straight from RAM and never touch the decode path.
///
/// While the mirror is alive and the layout is packed, record
/// *encoding* is deferred entirely: packed records are fixed-width, so
/// the store's byte size is `count × (prefix + record)` without
/// materializing a single byte. The bytes are produced — identically,
/// since encoding depends only on `(state, fp, parent)` — the first
/// time anything actually needs them: a checkpoint snapshot, or the
/// mirror outgrowing one segment. Runs under the unconstrained default
/// budget therefore never pay the per-state packing cost at all.
struct Arena {
    store: SegmentStore,
    resident: Option<Resident>,
    layout: Option<PackedLayout>,
    /// `Some(bytes-per-record-incl-prefix)` while encoding is deferred;
    /// implies the mirror holds records the store has not seen yet.
    deferred_cost: Option<usize>,
    seg_target: usize,
    /// Records pushed so far (the store lags this while deferred).
    count: usize,
    pack_scratch: Vec<u8>,
    rec_buf: Vec<u8>,
    read_buf: Vec<u8>,
}

struct Resident {
    states: Vec<State>,
    fps: Vec<u64>,
    parents: Vec<Option<(usize, usize)>>,
}

impl Arena {
    fn create(system: &System, dir: &Path, t: &Tuning) -> Result<Arena, StoreError> {
        let layout = PackedLayout::compile(system.vars());
        // 4-byte store length prefix + 17-byte record header + payload.
        let deferred_cost = layout.as_ref().map(|l| 4 + 17 + l.stride());
        Ok(Arena {
            store: SegmentStore::create(dir, "arena", t.seg_target, t.arena_cache)?,
            resident: Some(Resident {
                states: Vec::new(),
                fps: Vec::new(),
                parents: Vec::new(),
            }),
            layout,
            deferred_cost,
            seg_target: t.seg_target,
            count: 0,
            pack_scratch: Vec::new(),
            rec_buf: Vec::new(),
            read_buf: Vec::new(),
        })
    }

    fn len(&self) -> usize {
        self.count
    }

    fn push(
        &mut self,
        state: &State,
        fp: u64,
        parent: Option<(usize, usize)>,
        meter: &Meter,
        rec: &RecorderHandle,
    ) -> Result<(), StoreError> {
        self.count += 1;
        if let Some(cost) = self.deferred_cost {
            let r = self.resident.as_mut().expect("deferred implies resident");
            r.states.push(state.clone());
            r.fps.push(fp);
            r.parents.push(parent);
            if self.count * cost >= self.seg_target {
                // The mirror no longer fits one segment: materialize
                // the byte stream and run eagerly from here on.
                self.flush_deferred(meter, rec)?;
            }
            return Ok(());
        }
        checkpoint::encode_arena_record(
            state,
            fp,
            parent,
            self.layout.as_ref(),
            &mut self.pack_scratch,
            &mut self.rec_buf,
        );
        if let Some(meta) = self.store.append(&self.rec_buf)? {
            note_spill(meter, rec, &seal_info("arena", &self.store, &meta));
            // First seal: the arena no longer fits the budget, so the
            // mirror goes too. Reads fall back to the store.
            self.resident = None;
        } else if let Some(r) = &mut self.resident {
            r.states.push(state.clone());
            r.fps.push(fp);
            r.parents.push(parent);
        }
        Ok(())
    }

    /// Encodes and appends every deferred record, producing exactly the
    /// byte stream (and so exactly the segment boundaries) an eager run
    /// would have. No-op when encoding is not deferred.
    fn flush_deferred(&mut self, meter: &Meter, rec: &RecorderHandle) -> Result<(), StoreError> {
        if self.deferred_cost.take().is_none() {
            return Ok(());
        }
        let mut sealed_any = false;
        if let Some(r) = &self.resident {
            for i in 0..r.states.len() {
                checkpoint::encode_arena_record(
                    &r.states[i],
                    r.fps[i],
                    r.parents[i],
                    self.layout.as_ref(),
                    &mut self.pack_scratch,
                    &mut self.rec_buf,
                );
                if let Some(meta) = self.store.append(&self.rec_buf)? {
                    note_spill(meter, rec, &seal_info("arena", &self.store, &meta));
                    sealed_any = true;
                }
            }
        }
        if sealed_any {
            self.resident = None;
        }
        Ok(())
    }

    /// The state and (unmasked) fingerprint of record `id`.
    fn entry(&mut self, id: usize) -> Result<(State, u64), CheckpointError> {
        if let Some(r) = &self.resident {
            return Ok((r.states[id].clone(), r.fps[id]));
        }
        self.store.read(id as u64, &mut self.read_buf)?;
        let rec = checkpoint::decode_arena_record(&self.read_buf, self.layout.as_ref())?;
        Ok((rec.state, rec.fp))
    }

    /// Whether arena record `id` holds exactly `state` — the exact-mode
    /// collision check, reading through the cache only when the
    /// resident mirror is gone.
    fn holds(&mut self, id: usize, state: &State) -> Result<bool, CheckpointError> {
        if let Some(r) = &self.resident {
            return Ok(&r.states[id] == state);
        }
        self.entry(id).map(|(s, _)| &s == state)
    }

    /// Tears the arena down into `(states, fps, parents)` in id order,
    /// for final graph materialization. With the mirror alive this is a
    /// move; otherwise every record is decoded.
    #[allow(clippy::type_complexity)]
    fn into_parts(
        self,
    ) -> Result<(Vec<State>, Vec<u64>, Vec<Option<(usize, usize)>>), CheckpointError> {
        let n = self.len();
        if let Some(r) = self.resident {
            return Ok((r.states, r.fps, r.parents));
        }
        let mut parents = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        let mut fps = Vec::with_capacity(n);
        let mut take = |rec: &[u8]| -> Result<(), CheckpointError> {
            let rec = checkpoint::decode_arena_record(rec, self.layout.as_ref())?;
            states.push(rec.state);
            fps.push(rec.fp);
            parents.push(rec.parent);
            Ok(())
        };
        for meta in self.store.sealed() {
            for rec in store::read_segment(&self.store.dir().join(&meta.name), Some(meta))? {
                take(&rec)?;
            }
        }
        for rec in self.store.hot_records() {
            take(rec)?;
        }
        Ok((states, fps, parents))
    }
}

/// The edge store plus a deferred mirror, the same trick the arena
/// plays: while every record still fits one segment, records live as
/// `(id, edges)` pairs in RAM and the encoded byte stream — identical,
/// since encoding depends only on the pairs — is produced the first
/// time a snapshot or the size budget demands it. A completed
/// in-budget run assembles its final edge lists by moving the mirror
/// into place, never decoding a record.
struct EdgeSink {
    store: SegmentStore,
    mirror: Option<Vec<(u32, Vec<Edge>)>>,
    mirror_bytes: usize,
    seg_target: usize,
    rec_buf: Vec<u8>,
}

impl EdgeSink {
    fn create(dir: &Path, t: &Tuning) -> Result<EdgeSink, StoreError> {
        Ok(EdgeSink {
            store: SegmentStore::create(dir, "edges", t.seg_target, t.edge_cache)?,
            mirror: Some(Vec::new()),
            mirror_bytes: 0,
            seg_target: t.seg_target,
            rec_buf: Vec::new(),
        })
    }

    fn push(
        &mut self,
        id: usize,
        edges: &[Edge],
        meter: &Meter,
        rec: &RecorderHandle,
    ) -> Result<(), StoreError> {
        if let Some(m) = &mut self.mirror {
            // 4-byte store prefix + 8-byte record header + 8 per edge.
            self.mirror_bytes += 12 + 8 * edges.len();
            m.push((id as u32, edges.to_vec()));
            if self.mirror_bytes >= self.seg_target {
                self.flush_deferred(meter, rec)?;
            }
            return Ok(());
        }
        checkpoint::encode_edge_record(id, edges, &mut self.rec_buf);
        if let Some(meta) = self.store.append(&self.rec_buf)? {
            note_spill(meter, rec, &seal_info("edges", &self.store, &meta));
        }
        Ok(())
    }

    /// Encodes and appends every mirrored record in recorded order —
    /// exactly the byte stream an eager run would have produced. No-op
    /// when the mirror is already gone.
    fn flush_deferred(&mut self, meter: &Meter, rec: &RecorderHandle) -> Result<(), StoreError> {
        let Some(m) = self.mirror.take() else {
            return Ok(());
        };
        for (id, es) in &m {
            checkpoint::encode_edge_record(*id as usize, es, &mut self.rec_buf);
            if let Some(meta) = self.store.append(&self.rec_buf)? {
                note_spill(meter, rec, &seal_info("edges", &self.store, &meta));
            }
        }
        Ok(())
    }

    /// Tears the sink down into per-state edge lists: a move when the
    /// mirror survived, a full record decode otherwise.
    fn into_edges(self, n: usize) -> Result<Vec<Vec<Edge>>, CheckpointError> {
        if let Some(m) = self.mirror {
            let mut edges = vec![Vec::new(); n];
            for (id, es) in m {
                edges[id as usize] = es;
            }
            return Ok(edges);
        }
        collect_edges(&self.store, n)
    }
}

/// Reassembles the per-state edge lists from the edge store's records.
pub(super) fn collect_edges(store: &SegmentStore, n: usize) -> Result<Vec<Vec<Edge>>, CheckpointError> {
    let mut edges = vec![Vec::new(); n];
    let mut take = |rec: &[u8]| -> Result<(), CheckpointError> {
        let (id, es) = checkpoint::decode_edge_record(rec, n)?;
        edges[id] = es;
        Ok(())
    };
    for meta in store.sealed() {
        for rec in store::read_segment(&store.dir().join(&meta.name), Some(meta))? {
            take(&rec)?;
        }
    }
    for rec in store.hot_records() {
        take(rec)?;
    }
    Ok(edges)
}

/// Builds the O(hot tier) periodic checkpoint: sealed segments by
/// reference, unsealed tails inline. Deferred arena records are
/// materialized first — a snapshot embeds real store bytes.
#[allow(clippy::too_many_arguments)]
fn spill_snapshot(
    arena: &mut Arena,
    edge_store: &mut EdgeSink,
    init: &[usize],
    queue: &VecDeque<usize>,
    options: &ExploreOptions,
    sys_hash: u64,
    transitions: u64,
    meter: &Meter,
    rec: &RecorderHandle,
) -> Result<Snapshot, StoreError> {
    arena.flush_deferred(meter, rec)?;
    edge_store.flush_deferred(meter, rec)?;
    let mut frontier: Vec<usize> = queue.iter().copied().collect();
    frontier.sort_unstable();
    frontier.dedup();
    Ok(Snapshot {
        fp_bits: options.fp_bits.clamp(1, 64),
        mode: options.mode,
        reduced: false,
        system_hash: sys_hash,
        seq: 0,
        states: Vec::new(),
        init: init.to_vec(),
        edges: Vec::new(),
        parents: Vec::new(),
        frontier,
        reduction: None,
        spill: Some(SpillManifest {
            dir: arena.store.dir().to_path_buf(),
            states: arena.store.len(),
            transitions,
            arena_segments: arena.store.sealed().to_vec(),
            arena_hot: arena.store.hot_records().map(<[u8]>::to_vec).collect(),
            edge_segments: edge_store.store.sealed().to_vec(),
            edge_hot: edge_store.store.hot_records().map(<[u8]>::to_vec).collect(),
        }),
    })
}

/// Where the segment files live: next to the checkpoint when one is
/// configured (so a resumed process finds them), otherwise a
/// process-private temp directory removed when the run returns.
pub(super) fn spill_dir(budget: &Budget) -> (PathBuf, bool) {
    use std::sync::atomic::{AtomicU64, Ordering};
    if let Some(spec) = &budget.checkpoint {
        return (PathBuf::from(format!("{}.segs", spec.path.display())), false);
    }
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    (
        std::env::temp_dir().join(format!("opentla-spill-{}-{n}", std::process::id())),
        true,
    )
}

/// Re-seeds the stores from a materialized snapshot, mirroring the
/// in-RAM engines' resume paths: arena records are re-appended in id
/// order, the visited set is rebuilt with the same first-id-wins
/// insertion discipline, and every *non-frontier* state gets its edge
/// record back (frontier states re-expand, so they must have none).
#[allow(clippy::too_many_arguments)]
fn reingest(
    snap: &Snapshot,
    options: &ExploreOptions,
    mask: u64,
    arena: &mut Arena,
    edge_store: &mut EdgeSink,
    visited: &mut SpillVisited,
    init: &mut Vec<usize>,
    queue: &mut VecDeque<usize>,
    transitions_total: &mut u64,
    meter: &Meter,
    rec: &RecorderHandle,
) -> Result<(), CheckError> {
    let n = snap.states.len();
    let mut in_frontier = vec![false; n];
    for &f in &snap.frontier {
        in_frontier[f] = true;
    }
    for (id, s) in snap.states.iter().enumerate() {
        let fp = s.fingerprint();
        let spilled = match options.mode {
            VisitedMode::Fingerprint => {
                let key = fp & mask;
                match visited.lookup_fp(key).map_err(CheckpointError::from)? {
                    Some(_) => None,
                    None => visited
                        .insert(key, id as u64)
                        .map_err(CheckpointError::from)?,
                }
            }
            VisitedMode::Exact => visited.insert(fp, id as u64).map_err(CheckpointError::from)?,
        };
        if let Some(info) = spilled {
            note_spill(meter, rec, &info);
        }
        arena
            .push(s, fp, snap.parents[id], meter, rec)
            .map_err(CheckpointError::from)?;
        if !in_frontier[id] {
            edge_store
                .push(id, &snap.edges[id], meter, rec)
                .map_err(CheckpointError::from)?;
        }
    }
    *init = snap.init.clone();
    queue.extend(snap.frontier.iter().copied());
    *transitions_total = snap.transitions_used() as u64;
    Ok(())
}

/// Routes one spill exploration under a `mem`-byte budget by visited
/// mode and cleans up an ephemeral segment directory afterwards.
pub(super) fn explore_spill(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    mem: usize,
    resume: Option<&Snapshot>,
) -> Result<Exploration, CheckError> {
    let (dir, ephemeral) = spill_dir(budget);
    let result = match options.mode {
        VisitedMode::Fingerprint => explore_spill_fp(system, budget, options, resume, mem, &dir),
        VisitedMode::Exact => explore_spill_exact(system, budget, options, resume, mem, &dir),
    };
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

/// Why a successor sweep stopped early: a budget cut (normal, mirrors
/// the in-RAM engines) or a store failure (typed error).
enum Stop {
    Cut(ExhaustReason),
    Fail(CheckpointError),
}

/// The fingerprint-mode engine; mirrors `explore_bfs::<FpVisited>`
/// statement for statement so completed graphs are byte-identical.
fn explore_spill_fp(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    resume: Option<&Snapshot>,
    mem: usize,
    dir: &Path,
) -> Result<Exploration, CheckError> {
    use std::ops::ControlFlow;

    let compiled = CompiledSystem::compile(system);
    let mut scratch = EvalScratch::new();
    let mask = options.mask();
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let rec = budget.recorder.clone();
    let t = Tuning::for_budget(mem);
    let mut arena = Arena::create(system, dir, &t).map_err(CheckpointError::from)?;
    let mut edge_store = EdgeSink::create(dir, &t).map_err(CheckpointError::from)?;
    let mut visited = SpillVisited::create(dir, &t).map_err(CheckpointError::from)?;
    let mut init: Vec<usize> = Vec::new();
    let mut queue = VecDeque::new();
    let mut transitions_total: u64 = 0;
    let mut exhausted: Option<ExhaustReason> = None;
    let mut exhausted_in_init = false;
    let mut cut_edges: Option<(usize, Vec<Edge>)> = None;
    let mut edge_buf: Vec<Edge> = Vec::new();
    let meter;
    if let Some(snap) = resume {
        meter = Meter::start_resumed(budget, snap.states_used(), snap.transitions_used());
        reingest(
            snap,
            options,
            mask,
            &mut arena,
            &mut edge_store,
            &mut visited,
            &mut init,
            &mut queue,
            &mut transitions_total,
            &meter,
            &rec,
        )?;
    } else {
        let init_states = system.init().states(system.universe())?;
        if init_states.is_empty() {
            return Err(CheckError::NoInitialStates);
        }
        meter = Meter::start(budget);
        let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
        for s in init_states {
            let fp = s.fingerprint();
            let key = fp & mask;
            let id = arena.len();
            let (out, spilled) = visited
                .fp_entry(key, id as u64, || meter.charge_state().map_or(Ok(()), Err))
                .map_err(CheckpointError::from)?;
            if let Some(info) = spilled {
                note_spill(&meter, &rec, &info);
            }
            match out {
                FpOutcome::Found(_) => continue,
                FpOutcome::Cut(reason) => {
                    exhausted = Some(reason);
                    exhausted_in_init = true;
                    break;
                }
                FpOutcome::Inserted => {
                    arena
                        .push(&s, fp, None, &meter, &rec)
                        .map_err(CheckpointError::from)?;
                    init.push(id);
                    queue.push_back(id);
                }
            }
        }
    }
    let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
    'bfs: while exhausted.is_none() {
        if let Some(reason) = meter.checkpoint() {
            exhausted = Some(reason);
            break;
        }
        // Periodic snapshot at the loop head — a clean cut, like the
        // in-RAM engines, but O(hot tier): sealed segments go in by
        // reference.
        if ck.due(1) {
            let snap = spill_snapshot(
                &mut arena,
                &mut edge_store,
                &init,
                &queue,
                options,
                sys_hash,
                transitions_total,
                &meter,
                &rec,
            )
            .map_err(CheckpointError::from)?;
            ck.write(snap, &budget.recorder);
        }
        let Some(id) = queue.pop_front() else {
            break;
        };
        let (parent, parent_fp) = arena.entry(id)?;
        edge_buf.clear();
        let stop = compiled.for_each_successor(&parent, &mut scratch, |action, assignments| {
            if let Some(reason) = meter.charge_transition() {
                return ControlFlow::Break(Stop::Cut(reason));
            }
            let child_fp = parent.fingerprint_with(parent_fp, assignments);
            let key = child_fp & mask;
            let nid = arena.len();
            let (out, spilled) = match visited.fp_entry(key, nid as u64, || {
                meter.charge_state().map_or(Ok(()), Err)
            }) {
                Ok(v) => v,
                Err(e) => return ControlFlow::Break(Stop::Fail(e.into())),
            };
            if let Some(info) = spilled {
                note_spill(&meter, &rec, &info);
            }
            let target = match out {
                FpOutcome::Found(existing) => existing as usize,
                FpOutcome::Cut(reason) => return ControlFlow::Break(Stop::Cut(reason)),
                FpOutcome::Inserted => {
                    if let Err(e) = arena.push(
                        &parent.with(assignments),
                        child_fp,
                        Some((id, action)),
                        &meter,
                        &rec,
                    ) {
                        return ControlFlow::Break(Stop::Fail(e.into()));
                    }
                    queue.push_back(nid);
                    nid
                }
            };
            edge_buf.push(Edge { action, target });
            ControlFlow::Continue(())
        })?;
        match stop {
            None => {
                edge_store
                    .push(id, &edge_buf, &meter, &rec)
                    .map_err(CheckpointError::from)?;
                transitions_total += edge_buf.len() as u64;
            }
            Some(Stop::Cut(reason)) => {
                // Re-queue the half-expanded state so the frontier
                // honestly reports it as uncovered; its partial edges
                // go to the in-RAM graph only, never the store.
                queue.push_front(id);
                cut_edges = Some((id, std::mem::take(&mut edge_buf)));
                exhausted = Some(reason);
                break 'bfs;
            }
            Some(Stop::Fail(e)) => return Err(e.into()),
        }
    }
    drop(expand_phase);
    if rec.enabled() {
        let a = arena.store.cache_stats();
        let e = edge_store.store.cache_stats();
        rec.record(&Event::CacheStats {
            hits: a.hits + e.hits,
            misses: a.misses + e.misses,
            evictions: a.evictions + e.evictions,
            resident_bytes: a.resident_bytes + e.resident_bytes,
            spilled_bytes: meter.spilled_bytes(),
        });
    }
    // Exhaustion snapshot, spill form: when a checkpoint spec keeps
    // the segment directory alive the final snapshot references the
    // sealed segments too — O(hot tier), like the periodic ones. With
    // an ephemeral directory (about to be removed) the in-memory
    // snapshot must be self-contained, so the shared v1 path below
    // takes over after materialization.
    let spill_exh = if exhausted.is_some() && !exhausted_in_init && ck.active() {
        let snap = spill_snapshot(
            &mut arena,
            &mut edge_store,
            &init,
            &queue,
            options,
            sys_hash,
            transitions_total,
            &meter,
            &rec,
        )
        .map_err(CheckpointError::from)?;
        let token = ck.write(snap.clone(), &budget.recorder);
        Some((Some(Box::new(snap)), token))
    } else {
        None
    };
    let n = arena.len();
    let (states, fps, parents) = arena.into_parts()?;
    let mut edges = edge_store.into_edges(n)?;
    if let Some((id, partial)) = cut_edges {
        edges[id] = partial;
    }
    let (snapshot, resume_token) = match spill_exh {
        Some(pair) => pair,
        None => match &exhausted {
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
        },
    };
    // The final visited map: with no spilled runs the hot tier *is*
    // the first-id-wins map — move it. Otherwise rebuild it from the
    // fingerprints, exactly like the resume path does.
    let map: FxHashMap<u64, usize> = if visited.runs.is_empty() {
        visited.hot
    } else {
        let mut map = FxHashMap::default();
        for (id, &fp) in fps.iter().enumerate() {
            map.entry(fp & mask).or_insert(id);
        }
        map
    };
    let graph = StateGraph {
        states,
        visited: Visited::Fingerprint { map, mask },
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

/// The exact-mode engine; mirrors `explore_bfs::<ExactVisited>`, with the
/// whole-state visited map replaced by fingerprint candidates verified
/// against arena bytes — collision-free like the original, bounded
/// like the store.
fn explore_spill_exact(
    system: &System,
    budget: &Budget,
    options: &ExploreOptions,
    resume: Option<&Snapshot>,
    mem: usize,
    dir: &Path,
) -> Result<Exploration, CheckError> {
    let compiled = CompiledSystem::compile(system);
    let mut scratch = EvalScratch::new();
    let mut succ: Vec<(usize, State)> = Vec::new();
    let mask = options.mask();
    let sys_hash = checkpoint::system_hash(system);
    let mut ck = Checkpointer::new(budget.checkpoint.clone());
    let rec = budget.recorder.clone();
    let t = Tuning::for_budget(mem);
    let mut arena = Arena::create(system, dir, &t).map_err(CheckpointError::from)?;
    let mut edge_store = EdgeSink::create(dir, &t).map_err(CheckpointError::from)?;
    let mut visited = SpillVisited::create(dir, &t).map_err(CheckpointError::from)?;
    let mut init: Vec<usize> = Vec::new();
    let mut queue = VecDeque::new();
    let mut transitions_total: u64 = 0;
    let mut exhausted: Option<ExhaustReason> = None;
    let mut exhausted_in_init = false;
    let mut cut_edges: Option<(usize, Vec<Edge>)> = None;
    let mut edge_buf: Vec<Edge> = Vec::new();
    let mut cand: Vec<u64> = Vec::new();
    let meter;
    if let Some(snap) = resume {
        meter = Meter::start_resumed(budget, snap.states_used(), snap.transitions_used());
        reingest(
            snap,
            options,
            mask,
            &mut arena,
            &mut edge_store,
            &mut visited,
            &mut init,
            &mut queue,
            &mut transitions_total,
            &meter,
            &rec,
        )?;
    } else {
        let init_states = system.init().states(system.universe())?;
        if init_states.is_empty() {
            return Err(CheckError::NoInitialStates);
        }
        meter = Meter::start(budget);
        let _init_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreInit);
        for s in init_states {
            let fp = s.fingerprint();
            if find_exact(&mut visited, &mut arena, &mut cand, &s, fp)?.is_some() {
                continue;
            }
            if let Some(reason) = meter.charge_state() {
                exhausted = Some(reason);
                exhausted_in_init = true;
                break;
            }
            let id = arena.len();
            if let Some(info) = visited.insert(fp, id as u64).map_err(CheckpointError::from)? {
                note_spill(&meter, &rec, &info);
            }
            arena
                .push(&s, fp, None, &meter, &rec)
                .map_err(CheckpointError::from)?;
            init.push(id);
            queue.push_back(id);
        }
    }
    let expand_phase = PhaseGuard::enter(&budget.recorder, Phase::ExploreExpand);
    'bfs: while exhausted.is_none() {
        if let Some(reason) = meter.checkpoint() {
            exhausted = Some(reason);
            break;
        }
        if ck.due(1) {
            let snap = spill_snapshot(
                &mut arena,
                &mut edge_store,
                &init,
                &queue,
                options,
                sys_hash,
                transitions_total,
                &meter,
                &rec,
            )
            .map_err(CheckpointError::from)?;
            ck.write(snap, &budget.recorder);
        }
        let Some(id) = queue.pop_front() else {
            break;
        };
        let (parent, _) = arena.entry(id)?;
        compiled.successors_into(&parent, &mut succ, &mut scratch)?;
        edge_buf.clear();
        let mut cut = false;
        for (action, s) in succ.drain(..) {
            if let Some(reason) = meter.charge_transition() {
                queue.push_front(id);
                exhausted = Some(reason);
                cut = true;
                break;
            }
            let fp = s.fingerprint();
            let target = match find_exact(&mut visited, &mut arena, &mut cand, &s, fp)? {
                Some(existing) => existing,
                None => {
                    if let Some(reason) = meter.charge_state() {
                        queue.push_front(id);
                        exhausted = Some(reason);
                        cut = true;
                        break;
                    }
                    let nid = arena.len();
                    if let Some(info) =
                        visited.insert(fp, nid as u64).map_err(CheckpointError::from)?
                    {
                        note_spill(&meter, &rec, &info);
                    }
                    arena
                        .push(&s, fp, Some((id, action)), &meter, &rec)
                        .map_err(CheckpointError::from)?;
                    queue.push_back(nid);
                    nid
                }
            };
            edge_buf.push(Edge { action, target });
        }
        if cut {
            cut_edges = Some((id, std::mem::take(&mut edge_buf)));
            break 'bfs;
        }
        edge_store
            .push(id, &edge_buf, &meter, &rec)
            .map_err(CheckpointError::from)?;
        transitions_total += edge_buf.len() as u64;
    }
    drop(expand_phase);
    if rec.enabled() {
        let a = arena.store.cache_stats();
        let e = edge_store.store.cache_stats();
        rec.record(&Event::CacheStats {
            hits: a.hits + e.hits,
            misses: a.misses + e.misses,
            evictions: a.evictions + e.evictions,
            resident_bytes: a.resident_bytes + e.resident_bytes,
            spilled_bytes: meter.spilled_bytes(),
        });
    }
    // Exhaustion snapshot, spill form: when a checkpoint spec keeps
    // the segment directory alive the final snapshot references the
    // sealed segments too — O(hot tier), like the periodic ones. With
    // an ephemeral directory (about to be removed) the in-memory
    // snapshot must be self-contained, so the shared v1 path below
    // takes over after materialization.
    let spill_exh = if exhausted.is_some() && !exhausted_in_init && ck.active() {
        let snap = spill_snapshot(
            &mut arena,
            &mut edge_store,
            &init,
            &queue,
            options,
            sys_hash,
            transitions_total,
            &meter,
            &rec,
        )
        .map_err(CheckpointError::from)?;
        let token = ck.write(snap.clone(), &budget.recorder);
        Some((Some(Box::new(snap)), token))
    } else {
        None
    };
    let n = arena.len();
    let (states, _, parents) = arena.into_parts()?;
    let mut edges = edge_store.into_edges(n)?;
    if let Some((id, partial)) = cut_edges {
        edges[id] = partial;
    }
    let (snapshot, resume_token) = match spill_exh {
        Some(pair) => pair,
        None => match &exhausted {
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
        },
    };
    let mut exact = std::collections::HashMap::new();
    for (id, s) in states.iter().enumerate() {
        exact.insert(s.clone(), id);
    }
    let graph = StateGraph {
        states,
        visited: Visited::Exact(exact),
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

/// Exact-mode membership: gathers fingerprint candidates from both
/// visited tiers, then verifies each against the arena. Returns the
/// id whose record *is* `s`, or `None` — fingerprint collisions give
/// false candidates, never false answers.
fn find_exact(
    visited: &mut SpillVisited,
    arena: &mut Arena,
    cand: &mut Vec<u64>,
    s: &State,
    fp: u64,
) -> Result<Option<usize>, CheckpointError> {
    visited.candidates(fp, cand)?;
    for &cid in cand.iter() {
        let id = cid as usize;
        if arena.holds(id, s)? {
            return Ok(Some(id));
        }
    }
    Ok(None)
}
