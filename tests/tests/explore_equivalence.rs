//! Engine-equivalence guarantees of the exploration rework: the
//! fingerprinted, exact, and parallel engines must produce *the same
//! graph* — identical statistics, identical state indexing, identical
//! edges, identical counterexample traces — on every scenario in the
//! repository, so that switching engines can never change a checking
//! verdict.
//!
//! Also covered: the deliberate-collision knob (`fp_bits`) showing
//! that fingerprint collisions only ever *under*-approximate and that
//! exact mode recovers the full space, and a property-based check that
//! the compiled successor stepper agrees with the interpretive one on
//! every reachable state.

use opentla_check::{
    check_invariant, explore, explore_governed_with, explore_parallel, obs::validate_stream,
    Budget, CheckError, CompiledSystem, EvalScratch, ExploreOptions, JsonlRecorder, Reduction,
    RecorderHandle, StateGraph, System, VisitedMode, WorkerPanic,
};
use opentla_integration_tests::SharedBuf;
use opentla_kernel::Expr;
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use proptest::prelude::*;

/// Every scenario family in the repo, at sizes that keep the whole
/// file fast while still giving the parallel engine real breadth.
fn scenarios() -> Vec<(&'static str, System)> {
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

/// Byte-for-byte graph equality: statistics, state arena (order
/// included), initial states, every edge list, and the BFS tree as
/// observed through shortest traces.
fn assert_identical(name: &str, a: &StateGraph, b: &StateGraph) {
    assert_eq!(a.stats(), b.stats(), "{name}: stats differ");
    assert_eq!(a.states(), b.states(), "{name}: state order differs");
    assert_eq!(a.init(), b.init(), "{name}: initial states differ");
    for id in 0..a.len() {
        assert_eq!(a.edges(id), b.edges(id), "{name}: edges of {id} differ");
        assert_eq!(
            a.trace_to(id),
            b.trace_to(id),
            "{name}: shortest trace to {id} differs"
        );
    }
    assert_eq!(a.deadlocks(), b.deadlocks(), "{name}: deadlocks differ");
}

#[test]
fn exact_mode_is_identical_to_fingerprint_mode_everywhere() {
    for (name, sys) in scenarios() {
        let fp = explore(&sys, &ExploreOptions::default()).unwrap();
        let exact = explore(
            &sys,
            &ExploreOptions {
                mode: VisitedMode::Exact,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_identical(name, &fp, &exact);
    }
}

#[test]
fn parallel_engine_is_identical_to_sequential_everywhere() {
    for (name, sys) in scenarios() {
        let seq = explore(&sys, &ExploreOptions::default()).unwrap();
        for threads in [1, 2, 4] {
            for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
                let par = explore_parallel(
                    &sys,
                    &ExploreOptions {
                        threads: Some(threads),
                        mode,
                        ..ExploreOptions::default()
                    },
                )
                .unwrap();
                assert_identical(&format!("{name}/threads={threads}/{mode:?}"), &seq, &par);
            }
        }
    }
}

/// Counterexamples — the user-visible artifact of a check — must not
/// depend on the engine. "Every variable stays at its initial value"
/// fails at the first transition of every scenario, so it yields a
/// short counterexample everywhere.
#[test]
fn counterexample_traces_do_not_depend_on_the_engine() {
    for (name, sys) in scenarios() {
        let seq = explore(&sys, &ExploreOptions::default()).unwrap();
        let par = explore_parallel(
            &sys,
            &ExploreOptions {
                threads: Some(3),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let frozen = sys
            .vars()
            .iter()
            .map(|v| Expr::var(v).eq(Expr::con(seq.state(seq.init()[0]).get(v).clone())))
            .reduce(|a, b| a.and(b))
            .expect("at least one variable");
        let cx_seq = check_invariant(&sys, &seq, &frozen).unwrap();
        let cx_par = check_invariant(&sys, &par, &frozen).unwrap();
        match (cx_seq.counterexample(), cx_par.counterexample()) {
            (Some(a), Some(b)) => {
                assert_eq!(a.states(), b.states(), "{name}: trace states differ");
                assert_eq!(a.actions(), b.actions(), "{name}: trace actions differ");
                assert_eq!(a.reason(), b.reason(), "{name}: reasons differ");
            }
            (a, b) => panic!(
                "{name}: engines disagree on the verdict (seq: {:?}, par: {:?})",
                a.is_some(),
                b.is_some()
            ),
        }
    }
}

/// Forcing fingerprint collisions (`fp_bits` far below 64) can only
/// shrink the explored space — never invent states — and every state
/// the collided run does report is genuinely reachable. Exact mode is
/// immune to the knob: it recovers the full space at any width.
#[test]
fn forced_collisions_underapproximate_and_exact_mode_recovers() {
    let sys = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain builds");
    let full = explore(&sys, &ExploreOptions::default()).unwrap();
    for threads in [1, 4] {
        let collided = explore_parallel(
            &sys,
            &ExploreOptions {
                fp_bits: 8,
                threads: Some(threads),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(
            collided.len() < full.len(),
            "8-bit fingerprints over {} states must collide",
            full.len()
        );
        for s in collided.states() {
            assert!(
                full.index_of(s).is_some(),
                "collided run reported an unreachable state"
            );
        }
        let exact = explore_parallel(
            &sys,
            &ExploreOptions {
                fp_bits: 8,
                mode: VisitedMode::Exact,
                threads: Some(threads),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_identical("exact recovery", &full, &exact);
    }
}

/// The routing policy as a whole: one row per line of the route table
/// (checked top to bottom), each pinned by the engine name and thread
/// count of its run report and by a graph byte-identical to the
/// sequential one; plus the two refusal rows, where an explicit memory
/// budget meets a configuration that cannot honor it.
#[test]
fn route_table_picks_one_engine_per_configuration() {
    let sys = QueueChain::new(2, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain2 builds");
    let seq = explore(&sys, &ExploreOptions::default()).unwrap();
    let v0 = sys.vars().iter().next().expect("chain2 has variables");
    let por = Reduction::none().with_por(Expr::var(v0).eq(Expr::int(0)).unprimed_vars());
    let reduced = |threads| ExploreOptions {
        threads: Some(threads),
        reduction: por.clone(),
        ..ExploreOptions::default()
    };
    let seq_reduced = explore(&sys, &reduced(1)).unwrap();
    let opts = |threads, mem_budget_bytes| ExploreOptions {
        threads: Some(threads),
        mem_budget_bytes,
        ..ExploreOptions::default()
    };
    let narrowed = |threads| ExploreOptions {
        threads: Some(threads),
        fp_bits: 12,
        ..ExploreOptions::default()
    };
    let seq12 = explore(&sys, &narrowed(1)).unwrap();
    let ckpt = std::env::temp_dir().join(format!("opentla_route_{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    // One exploration under a JSONL recorder: its result and the
    // validated stream.
    let recorded = |options: &ExploreOptions, checkpointing: bool| {
        let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let recorder = std::sync::Arc::new(JsonlRecorder::from_writer(SharedBuf(buf.clone())));
        let mut budget = Budget::unlimited().with_recorder(RecorderHandle::new(recorder.clone()));
        if checkpointing {
            budget = budget.with_checkpoint(&ckpt, 1 << 30);
        }
        let result = explore_governed_with(&sys, &budget, options);
        recorder.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let summary = validate_stream(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        (result, summary)
    };

    // (row, options, checkpointing budget?, engine, threads, reference)
    let rows: Vec<(&str, ExploreOptions, bool, &str, u64, &StateGraph)> = vec![
        ("reduction", reduced(4), false, "explore_sequential", 1, &seq_reduced),
        ("budget, 1 thread", opts(1, Some(1 << 20)), false, "explore_spill", 1, &seq),
        ("budget, >1 thread", opts(2, Some(1 << 20)), false, "explore_spill_ws", 2, &seq),
        ("1 thread", opts(1, None), false, "explore_sequential", 1, &seq),
        (">1 thread, checkpointing", opts(4, None), true, "explore_sequential", 1, &seq),
        (">1 thread, narrowed fingerprints", narrowed(4), false, "explore_sequential", 1, &seq12),
        (">1 thread", opts(4, None), false, "explore_parallel", 4, &seq),
    ];
    for (row, options, checkpointing, engine, threads, reference) in rows {
        let (result, summary) = recorded(&options, checkpointing);
        let run = result.expect(row);
        assert!(run.outcome.is_complete(), "{row}: run must complete");
        assert_identical(row, reference, &run.graph);
        assert_eq!(summary.runs.len(), 1, "{row}: one run report");
        assert_eq!(summary.runs[0].engine, engine, "{row}: engine");
        assert_eq!(summary.runs[0].threads, threads, "{row}: threads");
    }
    let _ = std::fs::remove_file(&ckpt);

    let refusals = [
        ("reduction + explicit budget", ExploreOptions {
            mem_budget_bytes: Some(1 << 20),
            ..reduced(2)
        }),
        ("panic injection + explicit budget", ExploreOptions {
            worker_panic: Some(WorkerPanic { after_claims: 5 }),
            ..opts(2, Some(1 << 20))
        }),
    ];
    for (row, options) in refusals {
        let (result, summary) = recorded(&options, false);
        let err = result.expect_err(row);
        assert!(
            matches!(&err, CheckError::Precondition { message } if message.contains("cannot be honored")),
            "{row}: expected a Precondition refusal, got {err:?}"
        );
        assert_eq!(summary.kinds.get("budget_ignored"), Some(&1), "{row}: budget_ignored");
        assert!(summary.runs.is_empty(), "{row}: a refused run starts no engine");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled successor stepper agrees with the interpretive
    /// `System::successors` on arbitrary reachable states.
    #[test]
    fn compiled_successors_match_interpretive(pick in any::<u64>()) {
        let sys = Mutex::with_clients(2, ArbiterFairness::Weak)
            .product()
            .expect("mutex builds");
        let graph = explore(&sys, &ExploreOptions::default()).unwrap();
        let s = graph.state(pick as usize % graph.len());
        let interpreted = sys.successors(s).unwrap();
        let compiled = CompiledSystem::compile(&sys);
        let mut out = Vec::new();
        let mut scratch = EvalScratch::new();
        compiled.successors_into(s, &mut out, &mut scratch).unwrap();
        prop_assert_eq!(interpreted, out);
    }
}
