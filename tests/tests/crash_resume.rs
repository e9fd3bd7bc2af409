//! Crash-tolerance end-to-end: interrupt/resume byte-identity across
//! every engine configuration, snapshot save→load round trips,
//! typed errors for corrupted or mismatched snapshots, panic-isolated
//! parallel workers, and frontier-preserving escalation whose total
//! work is O(final state space).

use std::path::PathBuf;
use std::sync::Arc;

use opentla_check::{
    check_liveness, check_liveness_resumable, explore, explore_escalating,
    explore_governed_with, explore_resumable, resume_exploration, Budget, CheckError,
    CheckpointError, CountingRecorder, Exploration, ExploreOptions, GuardedAction, Init,
    LiveSnapshot, LiveTarget, LivenessOptions, Outcome, RecorderHandle, Reduction,
    Snapshot, StateGraph, System, VisitedMode, WorkerPanic,
};
use opentla_kernel::{Domain, Expr, Value, VarId, Vars};
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A unique throwaway snapshot path (tests run in parallel; the
/// process id plus a counter keeps them from clobbering each other).
fn snap_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "opentla_crash_resume_{}_{tag}_{n}.snap",
        std::process::id()
    ))
}

/// Byte-for-byte graph equality: statistics, state arena order,
/// initial states, edges, and the BFS tree.
fn assert_identical(label: &str, a: &StateGraph, b: &StateGraph) {
    assert_eq!(a.stats(), b.stats(), "{label}: stats differ");
    assert_eq!(a.states(), b.states(), "{label}: state order differs");
    assert_eq!(a.init(), b.init(), "{label}: initial states differ");
    for id in 0..a.len() {
        assert_eq!(a.edges(id), b.edges(id), "{label}: edges of {id} differ");
        assert_eq!(
            a.trace_to(id),
            b.trace_to(id),
            "{label}: shortest trace to {id} differs"
        );
    }
}

fn options(
    threads: usize,
    mode: VisitedMode,
    reduction: Reduction,
    fp_bits: u32,
) -> ExploreOptions {
    ExploreOptions {
        threads: Some(threads),
        mode,
        reduction,
        fp_bits,
        ..ExploreOptions::default()
    }
}

fn run_unlimited(system: &System, opts: &ExploreOptions) -> Exploration {
    let run = explore_governed_with(system, &Budget::unlimited(), opts)
        .expect("exploration succeeds");
    assert!(matches!(run.outcome, Outcome::Complete));
    run
}

/// POR over the system's first variable as the observable set — enough
/// to make the ample machinery genuinely fire.
fn por_on_first_var(system: &System) -> Reduction {
    let v0 = system.vars().iter().next().expect("system has variables");
    Reduction::none().with_por(Expr::var(v0).eq(Expr::int(0)).unprimed_vars())
}

fn scenarios() -> Vec<(&'static str, System)> {
    vec![
        ("abp", AlternatingBit::new(2).complete_system().unwrap()),
        ("ring", TokenRing::new(3).complete_system().unwrap()),
        (
            "mutex",
            Mutex::with_clients(3, ArbiterFairness::Weak).product().unwrap(),
        ),
        (
            "chain2",
            QueueChain::new(2, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .unwrap(),
        ),
    ]
}

/// The core round trip, one configuration: explore uninterrupted as
/// the reference; explore again under a budget that exhausts mid-run
/// with checkpointing on; then resume from the on-disk snapshot with
/// the budget lifted. The resumed graph must be byte-identical to the
/// uninterrupted one — states, edges, traces, everything.
fn interrupt_and_resume(label: &str, system: &System, opts: &ExploreOptions) {
    let reference = run_unlimited(system, opts);
    let total = reference.graph.len();
    let path = snap_path("matrix");

    let cut = (total * 2 / 5).max(2);
    let interrupted = explore_resumable(
        system,
        &Budget::default().states(cut).with_checkpoint(&path, 16),
        opts,
    )
    .expect("interrupted run still succeeds");
    let token = interrupted
        .outcome
        .resume_token()
        .unwrap_or_else(|| panic!("{label}: exhausted run must leave a resume token"))
        .clone();
    assert_eq!(token.path, path, "{label}: token points at the spec path");
    assert!(path.exists(), "{label}: snapshot file must exist");

    // Resume from disk: the same call, bigger budget.
    let recorder = Arc::new(CountingRecorder::new());
    let resumed = explore_resumable(
        system,
        &Budget::unlimited()
            .with_checkpoint(&path, 1 << 20)
            .with_recorder(RecorderHandle::new(recorder.clone())),
        opts,
    )
    .expect("resumed run succeeds");
    assert!(
        matches!(resumed.outcome, Outcome::Complete),
        "{label}: resumed run must complete"
    );
    assert_eq!(recorder.resumes(), 1, "{label}: resume event must be emitted");
    assert_identical(label, &reference.graph, &resumed.graph);
    assert_eq!(
        reference.reduction, resumed.reduction,
        "{label}: reduction stats must survive the round trip"
    );

    // Resume from the in-memory snapshot too — same result.
    let snap = interrupted.snapshot.as_deref().expect("in-memory snapshot");
    let resumed_mem = resume_exploration(system, &Budget::unlimited(), opts, snap)
        .expect("in-memory resume succeeds");
    assert_identical(&format!("{label}/mem"), &reference.graph, &resumed_mem.graph);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn interrupt_resume_identity_unreduced() {
    for (name, system) in &scenarios() {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            for threads in [1usize, 2, 4] {
                let label = format!("{name}/none/{mode:?}/threads={threads}");
                interrupt_and_resume(
                    &label,
                    system,
                    &options(threads, mode, Reduction::none(), 64),
                );
            }
        }
    }
}

#[test]
fn interrupt_resume_identity_reduced() {
    for (name, system) in &scenarios() {
        let por = por_on_first_var(system);
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            for threads in [1usize, 2, 4] {
                let label = format!("{name}/por/{mode:?}/threads={threads}");
                interrupt_and_resume(&label, system, &options(threads, mode, por.clone(), 64));
            }
        }
    }
}

/// The collision knob is pinned in the snapshot header: a resumed
/// collision-forcing run reproduces the uninterrupted collision-forcing
/// run exactly (first-id-wins conflation and all).
#[test]
fn interrupt_resume_identity_with_forced_collisions() {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    for threads in [1usize, 2] {
        let label = format!("chain2/fp12/threads={threads}");
        interrupt_and_resume(
            &label,
            &system,
            &options(threads, VisitedMode::Fingerprint, Reduction::none(), 12),
        );
    }
}

/// Golden chain4 through a parallel interrupt: exhaust a 2-thread run
/// at 20 000 states, resume with 4 threads, and land exactly on the
/// pre-reduction golden numbers.
#[test]
fn golden_chain4_survives_parallel_interrupt_and_thread_change() {
    let system = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let path = snap_path("chain4");
    let opts2 = options(2, VisitedMode::Fingerprint, Reduction::none(), 64);
    let interrupted = explore_resumable(
        &system,
        &Budget::default().states(20_000).with_checkpoint(&path, 4096),
        &opts2,
    )
    .unwrap();
    assert!(interrupted.outcome.resume_token().is_some());

    // Thread count is not pinned: resume the 2-thread snapshot with 4.
    let opts4 = options(4, VisitedMode::Fingerprint, Reduction::none(), 64);
    let resumed = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &opts4,
    )
    .unwrap();
    assert!(matches!(resumed.outcome, Outcome::Complete));
    let stats = resumed.graph.stats();
    assert_eq!(stats.states, 54358, "chain4 state count regressed");
    assert_eq!(stats.transitions, 164736, "chain4 transition count regressed");
    assert_eq!(stats.depth, 55, "chain4 BFS depth regressed");
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Corruption and mismatch: typed errors, never panics or wrong graphs
// ---------------------------------------------------------------------

/// Produces a real snapshot file to corrupt.
fn write_sample_snapshot(tag: &str) -> (System, PathBuf) {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let path = snap_path(tag);
    let run = explore_resumable(
        &system,
        &Budget::default().states(50).with_checkpoint(&path, 8),
        &ExploreOptions::default(),
    )
    .unwrap();
    assert!(run.outcome.resume_token().is_some());
    assert!(path.exists());
    (system, path)
}

#[test]
fn corrupted_snapshot_is_a_typed_error_not_a_panic() {
    let (system, path) = write_sample_snapshot("corrupt");
    let original = std::fs::read(&path).unwrap();

    // Flip a byte in the middle of the body.
    let mut flipped = original.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        Snapshot::load(&path),
        Err(CheckpointError::ChecksumMismatch)
    ));
    // ...and the typed error surfaces through the resume API.
    let err = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 8),
        &ExploreOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CheckError::Checkpoint(CheckpointError::ChecksumMismatch)
    ));

    // Truncate to half: checksum (or structure) cannot survive.
    std::fs::write(&path, &original[..original.len() / 2]).unwrap();
    match Snapshot::load(&path) {
        Err(
            CheckpointError::ChecksumMismatch
            | CheckpointError::Corrupt { .. }
            | CheckpointError::Io { .. },
        ) => {}
        other => panic!("truncated snapshot must fail typed, got {other:?}"),
    }

    // Not a snapshot at all.
    std::fs::write(&path, b"definitely not a snapshot").unwrap();
    assert!(matches!(Snapshot::load(&path), Err(CheckpointError::BadMagic)));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn mismatched_snapshot_is_refused() {
    let (system, path) = write_sample_snapshot("mismatch");
    let snap = Snapshot::load(&path).unwrap();

    // Different system.
    let other = TokenRing::new(3).complete_system().unwrap();
    let err = resume_exploration(&other, &Budget::unlimited(), &ExploreOptions::default(), &snap)
        .unwrap_err();
    assert!(matches!(
        err,
        CheckError::Checkpoint(CheckpointError::Mismatch { .. })
    ));

    // Different fingerprint width, visited mode, or reduction activity.
    for opts in [
        options(1, VisitedMode::Fingerprint, Reduction::none(), 32),
        options(1, VisitedMode::Exact, Reduction::none(), 64),
        options(1, VisitedMode::Fingerprint, por_on_first_var(&system), 64),
    ] {
        let err = resume_exploration(&system, &Budget::unlimited(), &opts, &snap).unwrap_err();
        assert!(
            matches!(err, CheckError::Checkpoint(CheckpointError::Mismatch { .. })),
            "resume under different configuration must be refused"
        );
    }

    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

/// An injected work-stealing worker panic mid-expansion must not lose
/// states, edges, or the run: the panicking worker's expansion rolls
/// back and its parent is re-queued, the surviving workers finish the
/// run, and the final graph is byte-identical to the sequential one.
#[test]
fn worker_panic_degrades_gracefully_without_losing_states() {
    for (name, system) in &scenarios() {
        let reference = run_unlimited(
            system,
            &options(1, VisitedMode::Fingerprint, Reduction::none(), 64),
        );
        for after_claims in [0u64, 5] {
            let recorder = Arc::new(CountingRecorder::new());
            let mut opts = options(4, VisitedMode::Fingerprint, Reduction::none(), 64);
            opts.worker_panic = Some(WorkerPanic { after_claims });
            let run = explore_governed_with(
                system,
                &Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone())),
                &opts,
            )
            .expect("run survives the worker panic");
            assert!(
                matches!(run.outcome, Outcome::Complete),
                "{name}: degraded run still completes"
            );
            assert_eq!(
                recorder.worker_failures(),
                1,
                "{name}: exactly one worker failure is reported"
            );
            assert_identical(
                &format!("{name}/panic-after-{after_claims}"),
                &reference.graph,
                &run.graph,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Frontier-preserving escalation
// ---------------------------------------------------------------------

/// Escalation resumes instead of restarting: the run completes, the
/// graph is byte-identical to a direct run, every attempt banked the
/// previous one's work (resume events fire), and — measured in
/// checkpoint cadence units — the total work stays O(final state
/// space) + one cadence per attempt, not O(attempts × state space).
#[test]
fn escalation_resumes_from_the_preserved_frontier() {
    let system = QueueChain::new(3, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let opts = options(1, VisitedMode::Fingerprint, Reduction::none(), 64);
    let reference = run_unlimited(&system, &opts);
    let total = reference.graph.len();

    const CADENCE: u64 = 64;
    // Work meter for the uninterrupted run, in cadence units.
    let direct_path = snap_path("esc-direct");
    let direct_recorder = Arc::new(CountingRecorder::new());
    let direct = explore_resumable(
        &system,
        &Budget::unlimited()
            .with_checkpoint(&direct_path, CADENCE)
            .with_recorder(RecorderHandle::new(direct_recorder.clone())),
        &opts,
    )
    .unwrap();
    assert!(matches!(direct.outcome, Outcome::Complete));
    let direct_work = direct_recorder.checkpoints();
    let _ = std::fs::remove_file(&direct_path);

    let path = snap_path("escalate");
    let recorder = Arc::new(CountingRecorder::new());
    let attempts = 12usize;
    let escalated = explore_escalating(
        &system,
        &Budget::default()
            .states((total / 10).max(2))
            .with_checkpoint(&path, CADENCE)
            .with_recorder(RecorderHandle::new(recorder.clone())),
        2,
        attempts,
        &opts,
    )
    .unwrap();
    assert!(
        matches!(escalated.outcome, Outcome::Complete),
        "12 doublings from total/10 must complete"
    );
    assert_identical("escalate/chain3", &reference.graph, &escalated.graph);
    assert!(
        recorder.resumes() >= 2,
        "attempts must resume, not restart (saw {} resumes)",
        recorder.resumes()
    );
    // The regression: escalated work ≤ uninterrupted work + one
    // cadence of slack per attempt. A restart-based escalation would
    // blow through this bound by a factor of attempts.
    assert!(
        recorder.checkpoints() <= direct_work + attempts as u64,
        "escalation re-did too much work: {} checkpoints vs {} direct + {} slack",
        recorder.checkpoints(),
        direct_work,
        attempts
    );
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Liveness interrupt/resume
// ---------------------------------------------------------------------

/// A strong-fairness obligation on the system's last action — the
/// target shape that exercises every liveness phase (fairness tables,
/// SCC pass, per-component scans, Streett recursion).
fn live_target(system: &System) -> LiveTarget {
    let frame = system.frame();
    let last = system.actions().last().expect("system has actions");
    LiveTarget::fair(opentla_kernel::Fairness::strong(
        last.action_expr(&frame),
        last.touched().collect(),
    ))
}

fn assert_same_liveness_verdict(
    label: &str,
    a: &opentla_check::Verdict,
    b: &opentla_check::Verdict,
) {
    match (a, b) {
        (opentla_check::Verdict::Holds, opentla_check::Verdict::Holds) => {}
        (opentla_check::Verdict::Violated(x), opentla_check::Verdict::Violated(y)) => {
            assert_eq!(x.reason(), y.reason(), "{label}: reason differs");
            assert_eq!(x.states(), y.states(), "{label}: lasso states differ");
            assert_eq!(x.actions(), y.actions(), "{label}: lasso actions differ");
            assert_eq!(x.loop_start(), y.loop_start(), "{label}: loop start differs");
        }
        _ => panic!("{label}: verdicts diverge"),
    }
}

/// Interrupt a liveness check mid-run, resume from its on-disk
/// [`LiveSnapshot`] with escalating budgets until it completes: the
/// final verdict and lasso must be identical to the uninterrupted
/// check's, resume events must fire, and the first interruption must
/// report real pending work.
#[test]
fn liveness_interrupt_and_resume_reproduces_verdict() {
    let system = QueueChain::new(3, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let graph = explore(&system, &ExploreOptions::default()).unwrap();
    let target = live_target(&system);
    let reference = check_liveness(&system, &graph, &target).unwrap();

    let path = snap_path("liveness");
    let recorder = Arc::new(CountingRecorder::new());
    let mut budget_t = 500usize;
    let mut legs = 0usize;
    let final_run = loop {
        let run = check_liveness_resumable(
            &system,
            &graph,
            &target,
            &Budget::default()
                .transitions(budget_t)
                .with_checkpoint(&path, 8)
                .with_recorder(RecorderHandle::new(recorder.clone())),
            &LivenessOptions::default(),
        )
        .expect("liveness legs succeed");
        legs += 1;
        if run.outcome.is_complete() {
            break run;
        }
        let token = run
            .outcome
            .resume_token()
            .expect("exhausted liveness run must leave a resume token");
        assert_eq!(token.path, path, "token points at the spec path");
        assert!(path.exists(), "liveness snapshot file must exist");
        if legs == 1 {
            if let Outcome::Exhausted { frontier_size, .. } = &run.outcome {
                assert!(
                    *frontier_size >= 1,
                    "a freshly interrupted table scan has pending rows"
                );
            }
        }
        budget_t *= 2;
        assert!(legs < 30, "budget doubling must terminate");
    };
    assert!(legs >= 2, "the first budget must actually interrupt the check");
    assert!(
        recorder.resumes() >= 1,
        "resumed legs must emit resume events (saw {})",
        recorder.resumes()
    );
    assert_same_liveness_verdict(
        "chain3/liveness-resume",
        &reference,
        &final_run.verdict.expect("complete runs carry a verdict"),
    );
    let _ = std::fs::remove_file(&path);
}

/// Corrupted or mismatched liveness snapshots are typed errors through
/// both the loader and the resumable entry point — never panics, never
/// silently-wrong verdicts.
#[test]
fn corrupted_or_mismatched_live_snapshot_is_refused() {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let graph = explore(&system, &ExploreOptions::default()).unwrap();
    let target = live_target(&system);
    let path = snap_path("live-corrupt");
    let run = check_liveness_resumable(
        &system,
        &graph,
        &target,
        &Budget::default().transitions(40).with_checkpoint(&path, 8),
        &LivenessOptions::default(),
    )
    .unwrap();
    assert!(run.outcome.resume_token().is_some(), "run must interrupt");
    let original = std::fs::read(&path).unwrap();

    // Flip a byte mid-body: checksum catches it, typed, through both
    // entry points.
    let mut flipped = original.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xff;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        LiveSnapshot::load(&path),
        Err(CheckpointError::ChecksumMismatch)
    ));
    let err = check_liveness_resumable(
        &system,
        &graph,
        &target,
        &Budget::unlimited().with_checkpoint(&path, 8),
        &LivenessOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CheckError::Checkpoint(CheckpointError::ChecksumMismatch)
    ));

    // A healthy snapshot resumed under a *different target* is refused:
    // cleared-component sets are only valid for the restriction tables
    // they were computed under.
    std::fs::write(&path, &original).unwrap();
    let other = LiveTarget::Eventually(Expr::int(1).eq(Expr::int(2)));
    let err = check_liveness_resumable(
        &system,
        &graph,
        &other,
        &Budget::unlimited().with_checkpoint(&path, 8),
        &LivenessOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CheckError::Checkpoint(CheckpointError::Mismatch { .. })
    ));

    // ...and under a different system/graph likewise.
    let ring = TokenRing::new(3).complete_system().unwrap();
    let ring_graph = explore(&ring, &ExploreOptions::default()).unwrap();
    let err = check_liveness_resumable(
        &ring,
        &ring_graph,
        &live_target(&ring),
        &Budget::unlimited().with_checkpoint(&path, 8),
        &LivenessOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        CheckError::Checkpoint(CheckpointError::Mismatch { .. })
    ));

    // Not a liveness snapshot at all.
    std::fs::write(&path, b"definitely not a snapshot").unwrap();
    assert!(matches!(
        LiveSnapshot::load(&path),
        Err(CheckpointError::BadMagic)
    ));

    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Property-based round trip on random systems
// ---------------------------------------------------------------------

/// A random small boolean system, deterministic in `seed` (same
/// construction as the reduction suite's).
fn random_system(seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_vars = rng.gen_range(2..=4usize);
    let mut vars = Vars::new();
    let vs: Vec<VarId> = (0..n_vars)
        .map(|i| vars.declare(format!("v{i}"), Domain::bits()))
        .collect();
    let n_actions = rng.gen_range(2..=5usize);
    let actions: Vec<GuardedAction> = (0..n_actions)
        .map(|a| {
            let read = vs[rng.gen_range(0..n_vars)];
            let write = vs[rng.gen_range(0..n_vars)];
            let want = rng.gen_range(0..=1i64);
            GuardedAction::new(
                format!("a{a}"),
                Expr::var(read).eq(Expr::int(want)),
                vec![(write, Expr::int(1).sub(Expr::var(write)))],
            )
        })
        .collect();
    let init = Init::new(vs.iter().map(|v| (*v, Value::Int(0))));
    System::new(vars, init, actions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint → serialize → load → resume yields a byte-identical
    /// graph on random systems, across thread counts, visited modes,
    /// and reduction activity.
    #[test]
    fn snapshot_round_trip_is_byte_identical(seed in any::<u64>()) {
        let system = random_system(seed);
        let threads = [1usize, 2, 4][(seed % 3) as usize];
        let mode = if seed & 1 == 0 { VisitedMode::Fingerprint } else { VisitedMode::Exact };
        let reduction = if seed & 2 == 0 { Reduction::none() } else { por_on_first_var(&system) };
        let opts = options(threads, mode, reduction, 64);
        let reference = run_unlimited(&system, &opts);
        let total = reference.graph.len();
        if total < 4 {
            return Ok(()); // nothing to interrupt
        }
        let path = snap_path("prop");
        let interrupted = explore_resumable(
            &system,
            &Budget::default().states(total / 2).with_checkpoint(&path, 4),
            &opts,
        ).unwrap();
        if interrupted.outcome.resume_token().is_some() {
            let resumed = explore_resumable(
                &system,
                &Budget::unlimited().with_checkpoint(&path, 1 << 20),
                &opts,
            ).unwrap();
            prop_assert!(matches!(resumed.outcome, Outcome::Complete));
            assert_identical(&format!("prop/{seed}"), &reference.graph, &resumed.graph);
            prop_assert_eq!(reference.reduction, resumed.reduction);
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------
// Kill-mid-spill: the bounded-memory engine
// ---------------------------------------------------------------------

/// Count of sealed arena segment files in the directory the spill
/// engine pins next to a checkpoint path.
fn sealed_arena_segments(snap_path: &std::path::Path) -> usize {
    let dir = PathBuf::from(format!("{}.segs", snap_path.display()));
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| {
                    let n = e.file_name();
                    let n = n.to_string_lossy().into_owned();
                    n.starts_with("arena-") && n.ends_with(".seg")
                })
                .count()
        })
        .unwrap_or(0)
}

fn remove_spill_artifacts(snap_path: &std::path::Path) {
    let _ = std::fs::remove_file(snap_path);
    let _ = std::fs::remove_dir_all(format!("{}.segs", snap_path.display()));
}

/// Kill-mid-spill: a bounded-memory run interrupted after its first
/// sealed segment leaves a spill-format snapshot on disk that
/// *references* the sealed files (version [`SNAPSHOT_VERSION_SPILL`]),
/// and resuming from it — with the spill engine or, via the
/// materializer, with the plain in-RAM engine — completes to a graph
/// byte-identical to the unbounded run's.
#[test]
fn spill_interrupt_resume_identity() {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let label = format!("spill/{mode:?}");
        let base = options(1, mode, Reduction::none(), 64);
        let reference = run_unlimited(&system, &base);
        let total = reference.graph.len();
        let spill_opts = ExploreOptions {
            mem_budget_bytes: Some(8 << 10),
            ..base.clone()
        };
        let path = snap_path("spill");
        remove_spill_artifacts(&path);

        let interrupted = explore_resumable(
            &system,
            &Budget::default()
                .states(total / 2)
                .with_checkpoint(&path, 64),
            &spill_opts,
        )
        .expect("interrupted spill run succeeds");
        assert!(
            interrupted.outcome.resume_token().is_some(),
            "{label}: tight budget must exhaust with a resume token"
        );
        assert!(
            sealed_arena_segments(&path) >= 1,
            "{label}: the kill must land after the first sealed segment"
        );
        // The on-disk snapshot is the O(hot tier) spill form: magic,
        // then the spill version number.
        let head = std::fs::read(&path).expect("snapshot readable");
        assert_eq!(&head[..8], b"OTLASNAP", "{label}: snapshot magic");
        assert_eq!(
            u32::from_le_bytes(head[8..12].try_into().unwrap()),
            opentla_check::SNAPSHOT_VERSION_SPILL,
            "{label}: exhaustion snapshot must be the spill format"
        );

        // Resume from disk with the spill engine.
        let resumed = explore_resumable(
            &system,
            &Budget::unlimited().with_checkpoint(&path, 1 << 20),
            &spill_opts,
        )
        .expect("resumed spill run succeeds");
        assert!(
            matches!(resumed.outcome, Outcome::Complete),
            "{label}: resumed run must complete"
        );
        assert_identical(&label, &reference.graph, &resumed.graph);

        // Cross-engine: the in-memory spill snapshot materializes and
        // resumes on the plain in-RAM engine too.
        let snap = interrupted.snapshot.as_deref().expect("in-memory snapshot");
        let cross = resume_exploration(&system, &Budget::unlimited(), &base, snap)
            .expect("cross-engine resume succeeds");
        assert_identical(&format!("{label}/cross"), &reference.graph, &cross.graph);

        remove_spill_artifacts(&path);
    }
}

/// A corrupted or truncated sealed segment referenced by a spill
/// snapshot refuses to resume with a typed checkpoint error — never a
/// panic, never a silently wrong graph.
#[test]
fn corrupted_spill_segment_is_typed_error() {
    let system = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .unwrap();
    let opts = ExploreOptions {
        mem_budget_bytes: Some(8 << 10),
        ..options(1, VisitedMode::Fingerprint, Reduction::none(), 64)
    };
    let total = run_unlimited(
        &system,
        &options(1, VisitedMode::Fingerprint, Reduction::none(), 64),
    )
    .graph
    .len();
    let path = snap_path("spill_corrupt");
    remove_spill_artifacts(&path);
    let interrupted = explore_resumable(
        &system,
        &Budget::default()
            .states(total / 2)
            .with_checkpoint(&path, 64),
        &opts,
    )
    .expect("interrupted spill run succeeds");
    assert!(interrupted.outcome.resume_token().is_some());
    let segs_dir = PathBuf::from(format!("{}.segs", path.display()));
    let seg = std::fs::read_dir(&segs_dir)
        .expect("segment dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            let n = p.file_name().unwrap_or_default().to_string_lossy().into_owned();
            n.starts_with("arena-") && n.ends_with(".seg")
        })
        .expect("at least one sealed arena segment");
    let pristine = std::fs::read(&seg).expect("segment readable");

    // Flip one payload byte: checksum verification trips.
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();
    let err = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &opts,
    )
    .expect_err("corrupted segment must refuse to resume");
    assert!(
        matches!(err, CheckError::Checkpoint(_)),
        "corruption surfaces as a typed checkpoint error, got {err}"
    );

    // Truncate the file: also a typed error.
    std::fs::write(&seg, &pristine[..pristine.len() / 2]).unwrap();
    let err = explore_resumable(
        &system,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &opts,
    )
    .expect_err("truncated segment must refuse to resume");
    assert!(matches!(err, CheckError::Checkpoint(_)));

    remove_spill_artifacts(&path);
}
