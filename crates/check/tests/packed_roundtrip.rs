//! Property-based tests for the packed state layout: pack/unpack
//! round-trips, packed-vs-tree fingerprint agreement, and
//! work-stealing/sequential graph identity over randomly generated
//! bounded systems.

use opentla_check::{
    explore_governed_with, Budget, ExploreOptions, GuardedAction, Init, StateGraph, System,
    VisitedMode,
};
use opentla_kernel::{Domain, Expr, PackedLayout, State, Value, Vars};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Random domains and states (no exploration): the layout must encode
// any well-domained value vector, through both the integer-range and
// the table codec.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum DomainSpec {
    /// `lo..=lo+width` — exercises the `IntRange` codec (and, at
    /// width 0, the zero-bit singleton slot).
    IntRange { lo: i64, width: i64 },
    /// `{FALSE, TRUE}` — a table codec over non-integer values.
    Booleans,
    /// Bounded sequences over `{0, 1}` — a table codec over structured
    /// values with a non-power-of-two cardinality.
    Seqs { max_len: usize },
}

impl DomainSpec {
    fn domain(&self) -> Domain {
        match *self {
            DomainSpec::IntRange { lo, width } => Domain::int_range(lo, lo + width),
            DomainSpec::Booleans => Domain::booleans(),
            DomainSpec::Seqs { max_len } => {
                Domain::seqs_up_to(&Domain::bits(), max_len)
            }
        }
    }
}

fn arb_domain_spec() -> impl Strategy<Value = DomainSpec> {
    prop_oneof![
        (-4..4i64, 0..9i64)
            .prop_map(|(lo, width)| DomainSpec::IntRange { lo, width }),
        Just(DomainSpec::Booleans),
        (1..3usize).prop_map(|max_len| DomainSpec::Seqs { max_len }),
    ]
}

/// A random vector of domains plus, for each, a picker in `0..1000`
/// reduced mod the domain size to select a value.
fn arb_state_shape() -> impl Strategy<Value = (Vec<DomainSpec>, Vec<usize>)> {
    proptest::collection::vec((arb_domain_spec(), 0..1000usize), 1..5)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing any in-domain value vector and unpacking it restores
    /// the vector exactly, and the fingerprint computed over the
    /// packed bytes equals the tree state's fingerprint bit for bit.
    #[test]
    fn pack_unpack_roundtrip((specs, picks) in arb_state_shape()) {
        let mut vars = Vars::new();
        for (i, spec) in specs.iter().enumerate() {
            vars.declare(format!("v{i}"), spec.domain());
        }
        let layout = PackedLayout::compile(&vars).expect("small domains pack");
        let values: Vec<Value> = specs
            .iter()
            .zip(&picks)
            .map(|(spec, pick)| {
                let d = spec.domain();
                d.values()[pick % d.values().len()].clone()
            })
            .collect();
        let state = State::new(values.clone());

        let mut buf = Vec::new();
        prop_assert!(layout.pack_into(&values, &mut buf));
        prop_assert_eq!(buf.len(), layout.stride());
        prop_assert_eq!(layout.unpack(&buf), state.clone());
        prop_assert_eq!(layout.fingerprint(&buf), state.fingerprint());

        // Slot-level codec agreement: each stored code decodes to the
        // packed value.
        for (slot, value) in values.iter().enumerate() {
            let code = layout.read_code(&buf, slot);
            prop_assert_eq!(layout.value_of(slot, code), value);
            prop_assert_eq!(layout.code_of(slot, value), Some(code));
        }
    }
}

// ---------------------------------------------------------------------
// Random guarded-command systems: every reachable state of the
// explored graph must round-trip through the layout, and the
// work-stealing engine must reproduce the sequential graph exactly.
// ---------------------------------------------------------------------

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
    Increment,
}

fn arb_action_spec() -> impl Strategy<Value = ActionSpec> {
    (
        0..3usize,
        0..3i64,
        0..3usize,
        prop_oneof![
            (0..3i64).prop_map(UpdateKind::Constant),
            Just(UpdateKind::CopyOther),
            Just(UpdateKind::Increment),
        ],
    )
        .prop_map(|(guard_var, guard_val, target_var, update)| ActionSpec {
            guard_var,
            guard_val,
            target_var,
            update,
        })
}

/// Three integer variables over `0..=3` (so every update stays
/// in-domain under clamping guards) driven by random guarded actions.
fn build_system(specs: &[ActionSpec]) -> System {
    let mut vars = Vars::new();
    let a = vars.declare("a", Domain::int_range(0, 3));
    let b = vars.declare("b", Domain::int_range(0, 3));
    let c = vars.declare("c", Domain::int_range(0, 3));
    let ids = [a, b, c];
    let actions: Vec<GuardedAction> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let target = ids[spec.target_var];
            let other = ids[(spec.target_var + 1) % ids.len()];
            let (guard_extra, update) = match spec.update {
                UpdateKind::Constant(v) => (None, Expr::int(v)),
                UpdateKind::CopyOther => (None, Expr::var(other)),
                // Guard the increment so the successor stays in
                // domain.
                UpdateKind::Increment => (
                    Some(Expr::var(target).lt(Expr::int(3))),
                    Expr::var(target).add(Expr::int(1)),
                ),
            };
            let mut guard = Expr::var(ids[spec.guard_var]).eq(Expr::int(spec.guard_val));
            if let Some(extra) = guard_extra {
                guard = guard.and(extra);
            }
            GuardedAction::new(format!("act{i}"), guard, vec![(target, update)])
        })
        .collect();
    System::new(
        vars,
        Init::new([(a, Value::Int(0)), (b, Value::Int(0)), (c, Value::Int(0))]),
        actions,
    )
}

/// The repo's byte-identity notion: statistics, canonical state
/// order, initial ids, and per-state edge lists all agree. (The
/// `visited` lookup map is rebuilt in shard order by the parallel
/// engines, so whole-struct comparison is deliberately *not* used.)
fn assert_graphs_identical(a: &StateGraph, b: &StateGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.stats(), b.stats());
    prop_assert_eq!(a.states(), b.states());
    prop_assert_eq!(a.init(), b.init());
    for id in 0..a.len() {
        prop_assert_eq!(a.edges(id), b.edges(id));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every reachable state of a random bounded system packs,
    /// round-trips, and fingerprints identically to the tree path.
    #[test]
    fn reachable_states_roundtrip(specs in proptest::collection::vec(arb_action_spec(), 1..5)) {
        let sys = build_system(&specs);
        let graph = opentla_check::explore(&sys, &ExploreOptions::default()).unwrap();
        let layout = PackedLayout::compile(sys.vars()).expect("bounded ints pack");
        let mut buf = Vec::new();
        for state in graph.states() {
            buf.clear();
            prop_assert!(layout.pack_into(state.values(), &mut buf));
            prop_assert_eq!(&layout.unpack(&buf), state);
            prop_assert_eq!(layout.fingerprint(&buf), state.fingerprint());
        }
    }

    /// The work-stealing engine produces byte-identical graphs to the
    /// sequential engine on random systems, at every multi-worker
    /// count and in both visited-set modes.
    #[test]
    fn ws_matches_sequential_random(specs in proptest::collection::vec(arb_action_spec(), 1..5)) {
        let sys = build_system(&specs);
        let budget = Budget::unlimited();
        let seq = explore_governed_with(
            &sys,
            &budget,
            &ExploreOptions { threads: Some(1), ..ExploreOptions::default() },
        )
        .unwrap();
        for workers in [2usize, 4] {
            for mode in [VisitedMode::Fingerprint, VisitedMode::Exact] {
                let ws = explore_governed_with(
                    &sys,
                    &budget,
                    &ExploreOptions {
                        threads: Some(workers),
                        mode,
                        ..ExploreOptions::default()
                    },
                )
                .unwrap();
                prop_assert!(ws.outcome.is_complete());
                assert_graphs_identical(&seq.graph, &ws.graph)?;
            }
        }
    }
}
