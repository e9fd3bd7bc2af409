//! Differential tests for the parallel bounded-memory engine (the
//! route of multi-threaded runs under a memory budget): across scenarios × byte budgets × worker
//! counts × visited-set modes, its completed graphs — statistics,
//! canonical state order, initial ids, per-state edge lists, and
//! counterexample traces — must be byte-identical to both the
//! sequential spill engine's and the in-RAM sequential engine's.
//! Plus forced fingerprint collisions, interrupt/resume identity
//! (including resuming at a different worker count and on different
//! engines), and the never-silently-ignore-a-budget diagnostic.

use opentla_check::{
    check_invariant, explore_governed_with, explore_resumable, resume_exploration, Budget,
    CheckError, CountingRecorder, ExploreOptions, Outcome, RecorderHandle, Reduction, StateGraph,
    System, Verdict, VisitedMode, WorkerPanic,
};
use opentla_kernel::Expr;
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use std::path::PathBuf;
use std::sync::Arc;

/// The small-scenario matrix: every budget × worker × mode combination
/// runs on these; the 54 358-state chain4 gets the acceptance
/// configurations only (the precedent the work-stealing identity suite
/// set).
fn systems() -> Vec<(&'static str, System)> {
    vec![
        (
            "abp",
            AlternatingBit::new(2).complete_system().expect("abp builds"),
        ),
        (
            "mutex",
            Mutex::with_clients(2, ArbiterFairness::Weak)
                .product()
                .expect("mutex builds"),
        ),
        (
            "ring",
            TokenRing::new(3).complete_system().expect("ring builds"),
        ),
        (
            "chain2",
            QueueChain::new(2, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain2 builds"),
        ),
        (
            "chain3",
            QueueChain::new(3, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain3 builds"),
        ),
    ]
}

fn chain4() -> System {
    QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds")
}

fn assert_identical(label: &str, a: &StateGraph, b: &StateGraph) {
    assert_eq!(a.stats(), b.stats(), "{label}: stats diverge");
    assert_eq!(a.states(), b.states(), "{label}: state order diverges");
    assert_eq!(a.init(), b.init(), "{label}: initial ids diverge");
    for id in 0..a.len() {
        assert_eq!(a.edges(id), b.edges(id), "{label}: edges of {id} diverge");
    }
}

fn explore_seq(sys: &System, mode: VisitedMode, fp_bits: u32) -> StateGraph {
    let run = explore_governed_with(
        sys,
        &Budget::unlimited(),
        &ExploreOptions {
            mode,
            threads: Some(1),
            fp_bits,
            ..ExploreOptions::default()
        },
    )
    .expect("sequential run succeeds");
    assert!(matches!(run.outcome, Outcome::Complete));
    run.graph
}

fn spill_ws_opts(mode: VisitedMode, workers: usize, mem: usize) -> ExploreOptions {
    ExploreOptions {
        mode,
        threads: Some(workers),
        mem_budget_bytes: Some(mem),
        ..ExploreOptions::default()
    }
}

fn explore_spill_ws(sys: &System, opts: &ExploreOptions) -> StateGraph {
    let run = explore_governed_with(sys, &Budget::unlimited(), opts)
        .expect("parallel spill run succeeds");
    assert!(
        matches!(run.outcome, Outcome::Complete),
        "unbudgeted parallel spill run must complete"
    );
    run.graph
}

/// A unique throwaway snapshot path (tests run in parallel).
fn snap_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "opentla_spill_ws_{}_{tag}_{n}.snap",
        std::process::id()
    ))
}

fn remove_spill_artifacts(snap_path: &std::path::Path) {
    let _ = std::fs::remove_file(snap_path);
    let _ = std::fs::remove_dir_all(format!("{}.segs", snap_path.display()));
}

/// Count of sealed segment files with the given prefix in the segment
/// directory pinned next to a checkpoint path.
fn sealed_segments(snap_path: &std::path::Path, prefix: &str) -> usize {
    let dir = PathBuf::from(format!("{}.segs", snap_path.display()));
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| {
                    let n = e.file_name();
                    let n = n.to_string_lossy().into_owned();
                    n.starts_with(prefix) && n.ends_with(".seg")
                })
                .count()
        })
        .unwrap_or(0)
}

/// The acceptance matrix on the small scenarios: byte budgets tight
/// (256 KiB), loose (4 MiB), and generous (256 MiB, large enough that
/// nothing seals), at 2/4 workers in both visited modes, against the
/// in-RAM sequential baseline — and against the sequential spill
/// engine (the 1-thread route under the same budget), which must
/// itself match the baseline, closing the three-way identity.
#[test]
fn spill_ws_matches_spill_and_sequential_across_matrix() {
    for (name, sys) in systems() {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let seq = explore_seq(&sys, mode, 64);
            for mem in [256 << 10, 4 << 20, 256 << 20] {
                let spill = explore_governed_with(
                    &sys,
                    &Budget::unlimited(),
                    &ExploreOptions {
                        mode,
                        threads: Some(1),
                        mem_budget_bytes: Some(mem),
                        ..ExploreOptions::default()
                    },
                )
                .expect("sequential spill run succeeds");
                assert!(matches!(spill.outcome, Outcome::Complete));
                assert_identical(&format!("{name}/{mode:?}/seq-spill@{mem}"), &seq, &spill.graph);
                for workers in [2usize, 4] {
                    let label = format!("{name}/{mode:?}/mem={mem}/workers={workers}");
                    let par = explore_spill_ws(&sys, &spill_ws_opts(mode, workers, mem));
                    assert_identical(&label, &seq, &par);
                }
            }
        }
    }
}

/// An invariant violated exactly at the graph's last (deepest) state,
/// so the counterexample trace walks the parent chain end to end.
fn last_state_invariant(sys: &System, graph: &StateGraph) -> Expr {
    let target = graph.states().last().expect("graphs are non-empty");
    let mut here = Expr::bool(true);
    for (slot, v) in sys.vars().iter().enumerate() {
        here = here.and(Expr::var(v).eq(Expr::con(target.values()[slot].clone())));
    }
    here.not()
}

/// Verdict identity through the parent chains the parallel engine
/// reassembled from shared arena records: the same invariant violates
/// in both graphs with the same trace.
#[test]
fn spill_ws_counterexample_traces_match() {
    for sys in [
        TokenRing::new(3).complete_system().expect("ring builds"),
        QueueChain::new(2, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain2 builds"),
    ] {
        for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
            let label = format!("{mode:?}");
            let seq = explore_seq(&sys, mode, 64);
            let par = explore_spill_ws(&sys, &spill_ws_opts(mode, 4, 256 << 10));
            let pred = last_state_invariant(&sys, &seq);
            let a = check_invariant(&sys, &seq, &pred).expect("seq invariant runs");
            let b = check_invariant(&sys, &par, &pred).expect("par invariant runs");
            match (&a, &b) {
                (Verdict::Violated(ca), Verdict::Violated(cb)) => {
                    assert_eq!(ca.reason(), cb.reason(), "{label}: reason diverges");
                    assert_eq!(ca.states(), cb.states(), "{label}: trace diverges");
                    assert_eq!(ca.actions(), cb.actions(), "{label}: actions diverge");
                }
                _ => panic!("{label}: last-state invariant must be violated in both"),
            }
        }
    }
}

/// The acceptance golden on the big benchmark: chain4 under a 256 KiB
/// budget at 4 workers reproduces 54358 / 164736 / 55 byte-identically
/// while the live run seals multiple shared arena segments (counted
/// via a checkpoint-pinned segment directory — the parallel engine's
/// stores use the `wsarena-` prefix).
#[test]
fn spill_ws_golden_chain4() {
    let sys = chain4();
    let seq = explore_seq(&sys, VisitedMode::Fingerprint, 64);
    let path = snap_path("golden");
    remove_spill_artifacts(&path);
    let run = explore_governed_with(
        &sys,
        &Budget::unlimited().with_checkpoint(&path, 1 << 30),
        &spill_ws_opts(VisitedMode::Fingerprint, 4, 256 << 10),
    )
    .expect("parallel spill run succeeds");
    assert!(matches!(run.outcome, Outcome::Complete));
    let stats = run.graph.stats();
    assert_eq!(stats.states, 54358, "golden chain4 state count");
    assert_eq!(stats.transitions, 164736, "golden chain4 transition count");
    assert_eq!(stats.depth, 55, "golden chain4 depth");
    assert!(
        sealed_segments(&path, "wsarena-") >= 2,
        "the budget must force >= 2 sealed shared arena segments"
    );
    assert_identical("chain4/golden", &seq, &run.graph);

    // The loose-budget, 2-worker point of the acceptance sweep.
    let par2 = explore_spill_ws(&sys, &spill_ws_opts(VisitedMode::Fingerprint, 2, 4 << 20));
    assert_identical("chain4/4MiB/2", &seq, &par2);
    remove_spill_artifacts(&path);
}

/// Narrow fingerprints (12 bits) force real collisions. Exact mode
/// must verify every candidate against its arena record and keep the
/// graph identical to the uncollided full-width one at *every* worker
/// count. Fingerprint mode under forced collisions is only
/// deterministic single-worker: first-insert-wins picks the class
/// representative, and with concurrent workers the winner — and
/// therefore the abstract graph itself — depends on arrival order (the
/// same caveat the in-RAM work-stealing engine carries, which is why
/// collision-sensitive runs use `Exact`).
#[test]
fn spill_ws_survives_forced_collisions() {
    for sys in [
        TokenRing::new(3).complete_system().expect("ring builds"),
        QueueChain::new(2, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain2 builds"),
    ] {
        // Exact mode: fp12 answers must equal full-width answers.
        let full = explore_seq(&sys, VisitedMode::Exact, 64);
        for workers in [2usize, 4] {
            let par = explore_spill_ws(
                &sys,
                &ExploreOptions {
                    fp_bits: 12,
                    ..spill_ws_opts(VisitedMode::Exact, workers, 32 << 10)
                },
            );
            assert_identical(&format!("exact-fp12/workers={workers}"), &full, &par);
        }
        // Fingerprint mode at one thread (the sequential spill route):
        // the same deterministic conflation as the sequential engine's.
        let seq12 = explore_seq(&sys, VisitedMode::Fingerprint, 12);
        let par12 = explore_spill_ws(
            &sys,
            &ExploreOptions {
                fp_bits: 12,
                ..spill_ws_opts(VisitedMode::Fingerprint, 1, 32 << 10)
            },
        );
        assert_identical("fp12/workers=1", &seq12, &par12);
    }
}

/// Interrupt/resume identity: a 4-worker bounded run killed mid-spill
/// leaves a spill-format snapshot that resumes byte-identically — at a
/// *different* worker count on the same engine, on the sequential
/// spill engine, and (via the materializer) on the plain in-RAM
/// engine.
#[test]
fn spill_ws_interrupt_resume_identity() {
    let sys = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain2 builds");
    for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
        let label = format!("resume/{mode:?}");
        let reference = explore_seq(&sys, mode, 64);
        let total = reference.len();
        let opts4 = spill_ws_opts(mode, 4, 8 << 10);
        let path = snap_path("resume");
        remove_spill_artifacts(&path);

        let interrupted = explore_resumable(
            &sys,
            &Budget::default()
                .states((total * 2 / 5).max(2))
                .with_checkpoint(&path, 64),
            &opts4,
        )
        .expect("interrupted run still succeeds");
        assert!(
            interrupted.outcome.resume_token().is_some(),
            "{label}: exhausted run must leave a resume token"
        );
        assert!(
            sealed_segments(&path, "wsarena-") >= 1,
            "{label}: the kill must land after the first sealed live segment"
        );
        let head = std::fs::read(&path).expect("snapshot readable");
        assert_eq!(&head[..8], b"OTLASNAP", "{label}: snapshot magic");
        assert_eq!(
            u32::from_le_bytes(head[8..12].try_into().unwrap()),
            opentla_check::SNAPSHOT_VERSION_SPILL,
            "{label}: exhaustion snapshot must be the spill format"
        );

        // Resume with 2 workers: the worker count is not pinned.
        let recorder = Arc::new(CountingRecorder::new());
        let resumed = explore_resumable(
            &sys,
            &Budget::unlimited()
                .with_checkpoint(&path, 1 << 20)
                .with_recorder(RecorderHandle::new(recorder.clone())),
            &spill_ws_opts(mode, 2, 8 << 10),
        )
        .expect("resumed run succeeds");
        assert!(matches!(resumed.outcome, Outcome::Complete));
        assert_eq!(recorder.resumes(), 1, "{label}: resume event must fire");
        assert_identical(&label, &reference, &resumed.graph);

        // Cross-engine, from the in-memory snapshot: the sequential
        // spill engine and the plain in-RAM engine both pick it up.
        let snap = interrupted.snapshot.as_deref().expect("in-memory snapshot");
        let seq_spill = resume_exploration(
            &sys,
            &Budget::unlimited(),
            &ExploreOptions {
                mode,
                threads: Some(1),
                mem_budget_bytes: Some(8 << 10),
                ..ExploreOptions::default()
            },
            snap,
        )
        .expect("sequential spill resume succeeds");
        assert_identical(&format!("{label}/seq-spill"), &reference, &seq_spill.graph);
        let in_ram = resume_exploration(
            &sys,
            &Budget::unlimited(),
            &ExploreOptions {
                mode,
                threads: Some(1),
                ..ExploreOptions::default()
            },
            snap,
        )
        .expect("in-RAM resume succeeds");
        assert_identical(&format!("{label}/in-ram"), &reference, &in_ram.graph);

        remove_spill_artifacts(&path);
    }
}

/// And the reverse hand-off: a snapshot the *sequential* spill engine
/// wrote resumes on the parallel engine at 4 workers, byte-identically.
#[test]
fn spill_ws_resumes_a_sequential_spill_snapshot() {
    let sys = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain2 builds");
    let reference = explore_seq(&sys, VisitedMode::Fingerprint, 64);
    let total = reference.len();
    let path = snap_path("handoff");
    remove_spill_artifacts(&path);
    let seq_opts = ExploreOptions {
        threads: Some(1),
        mem_budget_bytes: Some(8 << 10),
        ..ExploreOptions::default()
    };
    let interrupted = explore_resumable(
        &sys,
        &Budget::default()
            .states((total / 2).max(2))
            .with_checkpoint(&path, 64),
        &seq_opts,
    )
    .expect("interrupted sequential spill run succeeds");
    assert!(interrupted.outcome.resume_token().is_some());
    let resumed = explore_resumable(
        &sys,
        &Budget::unlimited().with_checkpoint(&path, 1 << 20),
        &spill_ws_opts(VisitedMode::Fingerprint, 4, 8 << 10),
    )
    .expect("parallel resume succeeds");
    assert!(matches!(resumed.outcome, Outcome::Complete));
    assert_identical("handoff", &reference, &resumed.graph);
    remove_spill_artifacts(&path);
}

/// The never-silently-ignore diagnostic: configurations pinned to the
/// in-RAM engines (reduction-active, panic-injection) refuse an explicit `mem_budget_bytes` with a typed
/// [`CheckError::Precondition`], and the refusal is observable — a
/// `budget_ignored` event carrying the byte count fires first.
#[test]
fn unhonorable_explicit_budget_is_refused_not_ignored() {
    let ring = TokenRing::new(3);
    let sys = ring.complete_system().expect("ring builds");
    let por = Reduction::none().with_por(ring.mutual_exclusion().unprimed_vars());
    let cases: Vec<(&str, ExploreOptions)> = vec![
        (
            "reduction",
            ExploreOptions {
                threads: Some(2),
                reduction: por,
                mem_budget_bytes: Some(1 << 20),
                ..ExploreOptions::default()
            },
        ),
        (
            "panic-injection",
            ExploreOptions {
                threads: Some(2),
                worker_panic: Some(WorkerPanic { after_claims: 5 }),
                mem_budget_bytes: Some(1 << 20),
                ..ExploreOptions::default()
            },
        ),
    ];
    for (what, opts) in cases {
        let recorder = Arc::new(CountingRecorder::new());
        let err = explore_governed_with(
            &sys,
            &Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone())),
            &opts,
        )
        .expect_err("an unhonorable explicit budget must be refused");
        match err {
            CheckError::Precondition { message } => {
                assert!(
                    message.contains("cannot be honored"),
                    "{what}: diagnostic names the conflict, got: {message}"
                );
            }
            other => panic!("{what}: expected Precondition, got {other:?}"),
        }
        assert_eq!(
            recorder.budget_ignored_events(),
            1,
            "{what}: the refusal must be observable as a budget_ignored event"
        );
    }
}
