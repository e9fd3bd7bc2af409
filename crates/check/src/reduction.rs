//! State-space reduction: ample-set partial-order reduction and
//! symmetry reduction.
//!
//! Both reductions exploit structure the paper's canonical
//! interleaving form hands us for free:
//!
//! * **Partial-order reduction** ([`Reduction::with_por`]). Each
//!   component's next-state relation updates the variables it owns and
//!   asserts `e′ = e` for everything else (the *interleaving
//!   condition* of `crates/core/src/component.rs`), so commands of
//!   different components with disjoint
//!   [footprints](opentla_kernel::Footprint) are syntactically
//!   independent: they commute and cannot enable or disable one
//!   another. The explorer may then expand a single *ample* cluster of
//!   enabled actions in a state and defer the rest, preserving every
//!   stutter-invariant property over the *observable* variables —
//!   state invariants in particular. Three provisos keep this sound:
//!
//!   1. the ample cluster's actions are independent of every action
//!      outside the cluster (guaranteed by construction — clusters are
//!      connected components of the footprint-conflict graph);
//!   2. ample actions are *invisible* — they write no observable
//!      variable — so deferring the visible rest never hides a
//!      property change (checked per cluster when preparing);
//!   3. the **cycle proviso**: a deferred action must not be deferred
//!      forever around a cycle (the *ignoring problem*). The
//!      sequential reduced loop uses a level-based test: any state
//!      with an ample successor that closes a frontier level (lands in
//!      an already-completed BFS level, which every cycle must) is
//!      expanded fully. Reduced runs take that loop at every thread
//!      count.
//!
//! * **Symmetry reduction** ([`Reduction::with_symmetry`]). A
//!   pluggable [`Canonicalize`]r maps each state to a canonical orbit
//!   representative before the visited-set lookup, so the explorer
//!   keeps one state per orbit. Sound when the canonicalizer is
//!   induced by automorphisms of the transition relation (e.g.
//!   process permutations of identical components) **and** the checked
//!   invariant is symmetric under the same group. Counterexamples are
//!   re-concretized into genuine system traces by
//!   [`concretize_trace`], replaying the canonical trace through the
//!   real successor relation.
//!
//! **Liveness is excluded by design.** A reduced graph omits
//! transitions (POR) or replaces states by orbit representatives
//! (symmetry), either of which breaks fairness and cycle analysis —
//! the classic ignoring problem. [`crate::check_liveness`] and
//! [`crate::check_step_invariant`] therefore refuse reduced graphs;
//! explore the full graph for those. We document the fallback rather
//! than fight it.

use crate::system::System;
use opentla_kernel::{Footprint, State, Value, VarId, VarSet};
use std::sync::Arc;

/// A pluggable state canonicalizer for symmetry reduction: maps every
/// state of an orbit (under some group of transition-relation
/// automorphisms) to one representative.
///
/// Implementations must be *idempotent*
/// (`canonicalize(canonicalize(s)) == canonicalize(s)`) and constant
/// on orbits; the provided [`SlotPermutations`] (lexicographic
/// minimum over an explicit permutation group) is both by
/// construction.
pub trait Canonicalize: Send + Sync + std::fmt::Debug {
    /// The orbit representative of `s`.
    fn canonicalize(&self, s: &State) -> State;

    /// A short label for reports and benchmarks.
    fn name(&self) -> &str {
        "custom"
    }
}

/// Symmetry by explicit slot permutations: the canonical form of a
/// state is the lexicographically smallest image under a fixed list
/// of permutations of its value slots.
///
/// A permutation `p` maps a state `s` to the image `m` with
/// `m[i] = s[p[i]]`. The identity is always included, so the
/// canonical form never compares worse than the state itself.
#[derive(Clone, Debug)]
pub struct SlotPermutations {
    name: String,
    /// Each entry is a permutation of `0..n_slots`.
    perms: Vec<Vec<usize>>,
    n_slots: usize,
}

impl SlotPermutations {
    /// Builds a canonicalizer from explicit slot permutations over
    /// states of `n_slots` variables. The identity permutation is
    /// added if missing.
    ///
    /// # Panics
    ///
    /// Panics if any entry is not a permutation of `0..n_slots` —
    /// that is a construction bug, not a checking outcome.
    pub fn new(
        name: impl Into<String>,
        n_slots: usize,
        mut perms: Vec<Vec<usize>>,
    ) -> SlotPermutations {
        for p in &perms {
            assert_eq!(p.len(), n_slots, "permutation length must equal slot count");
            let mut seen = vec![false; n_slots];
            for &j in p {
                assert!(j < n_slots && !seen[j], "not a permutation of 0..{n_slots}");
                seen[j] = true;
            }
        }
        let identity: Vec<usize> = (0..n_slots).collect();
        if !perms.contains(&identity) {
            perms.push(identity);
        }
        SlotPermutations {
            name: name.into(),
            perms,
            n_slots,
        }
    }

    /// Builds the group generated by permuting *process indices*
    /// `0..k` and applying each index permutation to every variable
    /// family simultaneously: `families[f][i]` is the `f`-th variable
    /// of process `i`, and index permutation `σ` maps the slot of
    /// `families[f][i]` to read from `families[f][σ(i)]`. Slots
    /// outside every family are fixed.
    ///
    /// # Panics
    ///
    /// Panics if families have unequal lengths or an index
    /// permutation is not over `0..k`.
    pub fn processes(
        name: impl Into<String>,
        n_slots: usize,
        families: &[&[VarId]],
        index_perms: &[Vec<usize>],
    ) -> SlotPermutations {
        let k = families.first().map_or(0, |f| f.len());
        for f in families {
            assert_eq!(f.len(), k, "all families must cover the same processes");
        }
        let perms = index_perms
            .iter()
            .map(|sigma| {
                assert_eq!(sigma.len(), k, "index permutation must be over 0..{k}");
                let mut p: Vec<usize> = (0..n_slots).collect();
                for family in families {
                    for (i, v) in family.iter().enumerate() {
                        p[v.index()] = family[sigma[i]].index();
                    }
                }
                p
            })
            .collect();
        SlotPermutations::new(name, n_slots, perms)
    }

    /// The `k` cyclic rotations of `0..k` (including the identity).
    pub fn rotations(k: usize) -> Vec<Vec<usize>> {
        (0..k)
            .map(|r| (0..k).map(|i| (i + r) % k).collect())
            .collect()
    }

    /// All `k!` permutations of `0..k`.
    pub fn all_index_permutations(k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut current: Vec<usize> = (0..k).collect();
        permute(&mut current, k, &mut out);
        out
    }
}

/// Heap's algorithm, recursion on the prefix length.
fn permute(current: &mut Vec<usize>, n: usize, out: &mut Vec<Vec<usize>>) {
    if n <= 1 {
        out.push(current.clone());
        return;
    }
    for i in 0..n {
        permute(current, n - 1, out);
        if n.is_multiple_of(2) {
            current.swap(i, n - 1);
        } else {
            current.swap(0, n - 1);
        }
    }
}

impl Canonicalize for SlotPermutations {
    fn canonicalize(&self, s: &State) -> State {
        let values = s.values();
        debug_assert_eq!(values.len(), self.n_slots);
        let mut best: Option<Vec<Value>> = None;
        for p in &self.perms {
            let img: Vec<Value> = p.iter().map(|&j| values[j].clone()).collect();
            match &best {
                Some(b) if img.as_slice() >= b.as_slice() => {}
                _ => best = Some(img),
            }
        }
        let best = best.expect("the identity permutation is always present");
        if best.as_slice() == values {
            s.clone()
        } else {
            State::new(best)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Configuration of ample-set partial-order reduction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PorConfig {
    /// Variables whose values the checked property observes. Actions
    /// writing any of them are *visible* and are never deferred by a
    /// proper ample set. Pass the invariant's
    /// [`unprimed_vars`](opentla_kernel::Expr::unprimed_vars).
    pub observable: VarSet,
}

/// What the explorer is allowed to prune. Defaults to
/// [`Reduction::none`]; the engines are bit-for-bit unchanged then.
#[derive(Clone, Default)]
pub struct Reduction {
    pub(crate) por: Option<PorConfig>,
    pub(crate) symmetry: Option<Arc<dyn Canonicalize>>,
}

impl std::fmt::Debug for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reduction")
            .field("por", &self.por)
            .field(
                "symmetry",
                &self.symmetry.as_ref().map(|c| c.name().to_string()),
            )
            .finish()
    }
}

impl Reduction {
    /// No reduction: the explorer enumerates every interleaving. The
    /// default — engines take exactly their unreduced code paths.
    pub fn none() -> Reduction {
        Reduction::default()
    }

    /// Enables ample-set partial-order reduction with the given
    /// observable variables (see [`PorConfig`]).
    pub fn with_por(mut self, observable: VarSet) -> Reduction {
        self.por = Some(PorConfig { observable });
        self
    }

    /// Enables symmetry reduction through `canon` (see
    /// [`Canonicalize`] for the soundness obligations).
    pub fn with_symmetry(mut self, canon: Arc<dyn Canonicalize>) -> Reduction {
        self.symmetry = Some(canon);
        self
    }

    /// Whether any reduction is enabled.
    pub fn is_active(&self) -> bool {
        self.por.is_some() || self.symmetry.is_some()
    }

    /// Precomputes the per-system reduction tables, or `None` when
    /// inactive (the engines then skip all reduction branches).
    pub(crate) fn prepare(&self, system: &System) -> Option<PreparedReduction> {
        if !self.is_active() {
            return None;
        }
        Some(PreparedReduction {
            por: self
                .por
                .as_ref()
                .map(|cfg| PreparedPor::analyze(system, cfg)),
            canon: self.symmetry.clone(),
        })
    }
}

/// Counters describing what a reduced exploration pruned; surfaced on
/// [`crate::Exploration`] and through the recorder as
/// [`Event::Reduction`](crate::obs::Event::Reduction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// States expanded through a proper ample subset of their enabled
    /// actions.
    pub ample_states: usize,
    /// States expanded fully (no eligible proper ample cluster, or the
    /// cycle proviso fired).
    pub full_states: usize,
    /// Enabled transitions the ample sets deferred (not recorded as
    /// edges).
    pub skipped_transitions: usize,
    /// Successor states whose canonical form differed from the state
    /// the action actually produced — orbit collapses.
    pub canon_hits: usize,
}

/// Per-system reduction tables of the sequential reduced loop.
#[derive(Clone, Debug)]
pub(crate) struct PreparedReduction {
    pub(crate) por: Option<PreparedPor>,
    pub(crate) canon: Option<Arc<dyn Canonicalize>>,
}

impl PreparedReduction {
    /// Canonicalizes `s` when symmetry is on; identity otherwise.
    pub(crate) fn canonical(&self, s: State) -> State {
        match &self.canon {
            Some(c) => c.canonicalize(&s),
            None => s,
        }
    }
}

/// The static ample-set analysis of a system: actions are grouped into
/// *clusters* — connected components of the footprint-conflict graph —
/// so every cluster is independent of every other by construction. A
/// cluster is *eligible* as an ample set if all its actions are
/// invisible (write no observable variable).
#[derive(Clone, Debug)]
pub(crate) struct PreparedPor {
    /// Action index → cluster id (dense, `0..num_clusters`).
    cluster_of: Vec<usize>,
    /// Cluster id → may serve as a proper ample set.
    eligible: Vec<bool>,
    num_clusters: usize,
}

impl PreparedPor {
    fn analyze(system: &System, cfg: &PorConfig) -> PreparedPor {
        let actions = system.actions();
        let footprints: Vec<Footprint> = actions
            .iter()
            .map(|a| {
                Footprint::of_command(a.guard(), a.updates().iter().map(|(v, e)| (*v, e)))
            })
            .collect();
        // Union-find over the conflict graph.
        let mut parent: Vec<usize> = (0..actions.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for i in 0..actions.len() {
            for j in i + 1..actions.len() {
                if !footprints[i].independent(&footprints[j]) {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        // Dense cluster ids in first-appearance (action) order, so the
        // ample choice below is deterministic across engines.
        let mut dense: Vec<Option<usize>> = vec![None; actions.len()];
        let mut cluster_of = Vec::with_capacity(actions.len());
        let mut num_clusters = 0;
        for i in 0..actions.len() {
            let root = find(&mut parent, i);
            let id = *dense[root].get_or_insert_with(|| {
                let id = num_clusters;
                num_clusters += 1;
                id
            });
            cluster_of.push(id);
        }
        let mut eligible = vec![true; num_clusters];
        for (i, fp) in footprints.iter().enumerate() {
            if fp.writes_any(&cfg.observable) {
                eligible[cluster_of[i]] = false;
            }
        }
        PreparedPor {
            cluster_of,
            eligible,
            num_clusters,
        }
    }

    /// The cluster of an action.
    pub(crate) fn cluster_of(&self, action: usize) -> usize {
        self.cluster_of[action]
    }

    /// Given the actions enabled in a state (as successor records),
    /// picks the cluster to restrict expansion to, or `None` for full
    /// expansion. Deterministic: the eligible cluster with the fewest
    /// enabled actions (ties broken by cluster id), and only if that
    /// is a *proper* subset of the enabled actions.
    pub(crate) fn choose_ample(
        &self,
        enabled_actions: impl Iterator<Item = usize>,
        scratch: &mut AmpleScratch,
    ) -> Option<usize> {
        scratch.reset(self.num_clusters);
        let mut total = 0usize;
        for a in enabled_actions {
            let c = self.cluster_of[a];
            if scratch.counts[c] == 0 {
                scratch.touched.push(c);
            }
            scratch.counts[c] += 1;
            total += 1;
        }
        let mut best: Option<(usize, usize)> = None;
        for &c in &scratch.touched {
            if !self.eligible[c] {
                continue;
            }
            let n = scratch.counts[c];
            if n == total {
                continue; // not a proper subset
            }
            if best.is_none_or(|(bn, bc)| (n, c) < (bn, bc)) {
                best = Some((n, c));
            }
        }
        best.map(|(_, c)| c)
    }
}

/// Reusable per-worker scratch for [`PreparedPor::choose_ample`].
#[derive(Clone, Debug, Default)]
pub(crate) struct AmpleScratch {
    counts: Vec<usize>,
    touched: Vec<usize>,
}

impl AmpleScratch {
    fn reset(&mut self, num_clusters: usize) {
        if self.counts.len() < num_clusters {
            self.counts.resize(num_clusters, 0);
        }
        for &c in &self.touched {
            self.counts[c] = 0;
        }
        self.touched.clear();
    }
}

/// Rebuilds a genuine system trace from a symmetry-reduced canonical
/// trace: starting from a concrete initial state in the first node's
/// orbit, repeatedly fires the action whose successor lands in the
/// next node's orbit. Returns `None` if no step matches — which a
/// sound (automorphism-induced) canonicalizer never produces.
pub(crate) fn concretize_trace(
    system: &System,
    canon: &dyn Canonicalize,
    canonical_states: &[State],
) -> Option<(Vec<State>, Vec<Option<String>>)> {
    let first = canonical_states.first()?;
    let mut current = system
        .init()
        .states(system.universe())
        .ok()?
        .into_iter()
        .find(|s| &canon.canonicalize(s) == first)?;
    let mut states = vec![current.clone()];
    let mut actions: Vec<Option<String>> = vec![None];
    for target in &canonical_states[1..] {
        let succ = system.successors(&current).ok()?;
        let (ai, next) = succ
            .into_iter()
            .find(|(_, t)| &canon.canonicalize(t) == target)?;
        actions.push(Some(system.actions()[ai].name().to_string()));
        states.push(next.clone());
        current = next;
    }
    Some((states, actions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GuardedAction, Init};
    use opentla_kernel::{Domain, Expr, Value, Vars};

    fn two_counters(max: i64) -> (System, VarId, VarId) {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, max));
        let y = vars.declare("y", Domain::int_range(0, max));
        let step = |v: VarId| {
            GuardedAction::new(
                "step",
                Expr::var(v).lt(Expr::int(max)),
                vec![(v, Expr::var(v).add(Expr::int(1)))],
            )
        };
        let sys = System::new(
            vars,
            Init::new([(x, Value::Int(0)), (y, Value::Int(0))]),
            vec![step(x), step(y)],
        );
        (sys, x, y)
    }

    #[test]
    fn independent_actions_form_separate_clusters() {
        let (sys, x, _y) = two_counters(3);
        let por = PreparedPor::analyze(
            &sys,
            &PorConfig {
                observable: VarSet::new(),
            },
        );
        assert_eq!(por.num_clusters, 2);
        assert_ne!(por.cluster_of(0), por.cluster_of(1));
        // Both enabled: picks the smaller-id cluster, a proper subset.
        let mut scratch = AmpleScratch::default();
        assert_eq!(por.choose_ample([0, 1].into_iter(), &mut scratch), Some(0));
        // Only one enabled: no proper subset exists.
        assert_eq!(por.choose_ample([1].into_iter(), &mut scratch), None);
        // Observing x makes x's cluster visible; y's remains ample.
        let por = PreparedPor::analyze(
            &sys,
            &PorConfig {
                observable: [x].into_iter().collect(),
            },
        );
        let c1 = por.cluster_of(1);
        assert_eq!(
            por.choose_ample([0, 1].into_iter(), &mut scratch),
            Some(c1)
        );
    }

    #[test]
    fn conflicting_actions_share_a_cluster() {
        let mut vars = Vars::new();
        let x = vars.declare("x", Domain::int_range(0, 3));
        let inc = GuardedAction::new(
            "inc",
            Expr::var(x).lt(Expr::int(3)),
            vec![(x, Expr::var(x).add(Expr::int(1)))],
        );
        let dec = GuardedAction::new(
            "dec",
            Expr::var(x).gt(Expr::int(0)),
            vec![(x, Expr::var(x).sub(Expr::int(1)))],
        );
        let sys = System::new(vars, Init::new([(x, Value::Int(0))]), vec![inc, dec]);
        let por = PreparedPor::analyze(
            &sys,
            &PorConfig {
                observable: VarSet::new(),
            },
        );
        assert_eq!(por.num_clusters, 1);
        let mut scratch = AmpleScratch::default();
        // A single cluster is never a proper subset.
        assert_eq!(por.choose_ample([0, 1].into_iter(), &mut scratch), None);
    }

    #[test]
    fn slot_permutations_pick_the_lexicographic_minimum() {
        let swap = SlotPermutations::new("swap", 2, vec![vec![1, 0]]);
        let hi = State::new(vec![Value::Int(1), Value::Int(0)]);
        let lo = State::new(vec![Value::Int(0), Value::Int(1)]);
        assert_eq!(swap.canonicalize(&hi), lo);
        assert_eq!(swap.canonicalize(&lo), lo);
        // Idempotent and constant on the orbit.
        assert_eq!(swap.canonicalize(&swap.canonicalize(&hi)), lo);
        assert_eq!(swap.name(), "swap");
    }

    #[test]
    fn process_permutations_move_families_together() {
        let mut vars = Vars::new();
        let a0 = vars.declare("a0", Domain::bits());
        let a1 = vars.declare("a1", Domain::bits());
        let b0 = vars.declare("b0", Domain::bits());
        let b1 = vars.declare("b1", Domain::bits());
        let canon = SlotPermutations::processes(
            "pair-swap",
            vars.len(),
            &[&[a0, a1], &[b0, b1]],
            &SlotPermutations::all_index_permutations(2),
        );
        // (a=10, b=01) and its swap (a=01, b=10) share a canonical form.
        let s = State::new(vec![
            Value::Int(1),
            Value::Int(0),
            Value::Int(0),
            Value::Int(1),
        ]);
        let t = State::new(vec![
            Value::Int(0),
            Value::Int(1),
            Value::Int(1),
            Value::Int(0),
        ]);
        assert_eq!(canon.canonicalize(&s), canon.canonicalize(&t));
    }

    #[test]
    fn all_index_permutations_count() {
        assert_eq!(SlotPermutations::all_index_permutations(3).len(), 6);
        assert_eq!(SlotPermutations::rotations(4).len(), 4);
    }

    #[test]
    fn reduction_defaults_inactive() {
        assert!(!Reduction::none().is_active());
        assert!(Reduction::none()
            .prepare(&two_counters(2).0)
            .is_none());
        let r = Reduction::none().with_por(VarSet::new());
        assert!(r.is_active());
        let dbg = format!("{r:?}");
        assert!(dbg.contains("por"));
    }
}
