//! Observability-layer invariants, property-based: the counters a
//! [`CountingRecorder`] accumulates are not a *second* notion of run
//! statistics — for any randomly generated guarded-command system, the
//! run-report totals must exactly equal the sequential engine's
//! [`GraphStats`], and must be identical whichever engine produced
//! them (1, 2, or 4 workers; more than one runs the work-stealing
//! engine), because the parallel engine is an exact reformulation of
//! sequential BFS.

use opentla_check::{
    explore_governed_with, Budget, CountingRecorder, ExploreOptions, GraphStats,
    GuardedAction, Init, Phase, RecorderHandle, System,
};
use opentla_kernel::{Domain, Expr, Value, Vars};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Clone, Debug)]
struct ActionSpec {
    guard_var: usize,
    guard_val: i64,
    target_var: usize,
    update: UpdateKind,
}

#[derive(Clone, Debug)]
enum UpdateKind {
    Constant(i64),
    CopyOther,
    Toggle,
}

fn arb_action_spec() -> impl Strategy<Value = ActionSpec> {
    (
        0..2usize,
        0..2i64,
        0..2usize,
        prop_oneof![
            (0..2i64).prop_map(UpdateKind::Constant),
            Just(UpdateKind::CopyOther),
            Just(UpdateKind::Toggle),
        ],
    )
        .prop_map(|(guard_var, guard_val, target_var, update)| ActionSpec {
            guard_var,
            guard_val,
            target_var,
            update,
        })
}

fn build_system(specs: &[ActionSpec]) -> System {
    let mut vars = Vars::new();
    let a = vars.declare("a", Domain::bits());
    let b = vars.declare("b", Domain::bits());
    let ids = [a, b];
    let actions: Vec<GuardedAction> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let target = ids[spec.target_var];
            let other = ids[1 - spec.target_var];
            let update = match spec.update {
                UpdateKind::Constant(v) => Expr::int(v),
                UpdateKind::CopyOther => Expr::var(other),
                UpdateKind::Toggle => Expr::int(1).sub(Expr::var(target)),
            };
            GuardedAction::new(
                format!("act{i}"),
                Expr::var(ids[spec.guard_var]).eq(Expr::int(spec.guard_val)),
                vec![(target, update)],
            )
        })
        .collect();
    System::new(
        vars,
        Init::new([(a, Value::Int(0)), (b, Value::Int(0))]),
        actions,
    )
}

/// Explores `sys` with `threads` workers under a fresh
/// [`CountingRecorder`], returning the graph's statistics and the
/// recorder's run-report totals.
fn counted_run(sys: &System, threads: usize) -> (GraphStats, (u64, u64, u64)) {
    let counter = Arc::new(CountingRecorder::new());
    let budget = Budget::default().with_recorder(RecorderHandle::new(counter.clone()));
    let opts = ExploreOptions {
        threads: Some(threads),
        ..ExploreOptions::default()
    };
    let run = explore_governed_with(sys, &budget, &opts).expect("explores");
    assert!(run.outcome.is_complete(), "tiny systems never exhaust");
    assert_eq!(counter.run_starts(), 1);
    assert_eq!(counter.run_ends(), 1);
    (
        run.graph.stats(),
        (counter.states(), counter.transitions(), counter.depth()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recorder totals == sequential `GraphStats`, exactly.
    #[test]
    fn counting_recorder_totals_equal_sequential_stats(
        specs in proptest::collection::vec(arb_action_spec(), 1..4),
    ) {
        let sys = build_system(&specs);
        let (stats, totals) = counted_run(&sys, 1);
        prop_assert_eq!(
            totals,
            (
                stats.states as u64,
                stats.transitions as u64,
                stats.depth as u64
            )
        );
    }

    /// Recorder totals are engine-independent: 1, 2, and 4 workers
    /// report the same states, transitions, and depth.
    #[test]
    fn counting_recorder_totals_identical_across_thread_counts(
        specs in proptest::collection::vec(arb_action_spec(), 1..4),
    ) {
        let sys = build_system(&specs);
        let (stats1, totals1) = counted_run(&sys, 1);
        for threads in [2usize, 4] {
            let (stats_n, totals_n) = counted_run(&sys, threads);
            prop_assert_eq!(stats_n, stats1, "stats differ at {} threads", threads);
            prop_assert_eq!(totals_n, totals1, "totals differ at {} threads", threads);
        }
    }
}

/// The phase timers bracket correctly on a real (non-random) scenario:
/// an exploration spends time in init and expansion, none in engines
/// it never ran.
#[test]
fn phase_timers_cover_exploration_only() {
    let sys = build_system(&[ActionSpec {
        guard_var: 0,
        guard_val: 0,
        target_var: 1,
        update: UpdateKind::Toggle,
    }]);
    let counter = Arc::new(CountingRecorder::new());
    let budget = Budget::default().with_recorder(RecorderHandle::new(counter.clone()));
    let run =
        explore_governed_with(&sys, &budget, &ExploreOptions::default()).expect("explores");
    assert!(run.outcome.is_complete());
    assert!(counter.phase_nanos(Phase::ExploreExpand) > 0);
    assert_eq!(counter.phase_nanos(Phase::Liveness), 0);
    assert_eq!(counter.phase_nanos(Phase::Simulation), 0);
    assert_eq!(counter.phase_nanos(Phase::Compose), 0);
}
