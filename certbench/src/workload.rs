//! The four workloads, their known answers, and one verdict of each.
//!
//! Every workload is a call a user makes through a public entry point
//! with default options: prove a composition, or model-check a complete
//! system. Engine knobs are reached only through their public routes
//! (the `OPENTLA_EXPLORE_THREADS` variable, `ExploreOptions`), so a
//! later change to the engines is measured rather than bypassed. A
//! verdict succeeds only if it matches the workload's known answer.

use crate::trace::Tracer;
use opentla::{CompositionOptions, Method};
use opentla_check::{
    check_invariant, explore_governed, explore_governed_with, Budget, ExploreOptions,
    RecorderHandle, StateGraph, System,
};
use opentla_kernel::Expr;
use opentla_queue::{FairnessStyle, QueueChain};
use std::sync::Arc;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `QueueChain::new(4, 1, 2, Joint).prove_composition(&default)`,
    /// one worker.
    ///
    /// Why: the product itself — the Composition Theorem certificate
    /// at the size every gate uses. Simulation dominates (the
    /// refinement-mapped H2a simulation about 1.0 s, each of the four
    /// H1 simulations about 0.1 s), then liveness (about 1.0 s);
    /// exploration is about 6 %.
    ///
    /// Prediction: `core.compose.*`, `check.simulate.*` and
    /// `check.liveness.*` move `verdict_s`; `check.explore.*` barely
    /// moves it; `check.invariant.*` and `kernel.store.*` are absent.
    CertChain4,
    /// `cert_chain4` with as many workers as hardware threads, and at
    /// least two, set through `OPENTLA_EXPLORE_THREADS` — the only
    /// route, because `compose` explores with default options. On a
    /// host with one hardware thread the two workers share it, so the
    /// parallel engines still run.
    ///
    /// Why: the only workload through the parallel explore engine,
    /// its renumbering pass and parallel liveness. Simulation stays
    /// serial.
    ///
    /// Prediction: `check.explore.renumber_s` and
    /// `check.explore.worker_levels` move `verdict_s` and `cpu_s`;
    /// `check.liveness.*` moves `verdict_s` and `cpu_s`;
    /// `check.simulate.*` moves `verdict_s` as on `cert_chain4`.
    CertChain4Par,
    /// `explore_governed` on `QueueChain::new(5, 1, 2, Joint)
    /// .complete_system()`, one worker, then `check_invariant` of
    /// `Len(q̄) ≤ 9` (holds) and `Len(q̄) < 9` (refuted with a
    /// 55-state counterexample) on the mapped `q̄`.
    ///
    /// Why: the exploration-heavy, memory-heavy workload (489 254
    /// states, about 400 MB resident); the refuted check runs the
    /// counterexample path beside the full scan. No simulation or
    /// liveness.
    ///
    /// Prediction: `check.explore.*` (about 60 % of the verdict),
    /// `check.compiled.successors_s`, `kernel.state.fingerprint_s` and
    /// `check.invariant.*` move `verdict_s`, and exploration moves
    /// `peak_rss_mib`; `core.*`, `check.simulate.*` and
    /// `check.liveness.*` are absent (no change).
    CheckChain5,
    /// `check_chain5` with `ExploreOptions::mem_budget_bytes = 32 MiB`
    /// through `explore_governed_with`.
    ///
    /// Why: the only workload through the bounded-memory spill engine
    /// and `kernel/store.rs`; without it, removing a spill engine could
    /// not be checked for regressions. Peak RSS stays near
    /// `check_chain5`'s because the returned graph is materialised.
    ///
    /// Prediction: `kernel.store.*` moves `verdict_s` and
    /// `peak_rss_mib` here only; otherwise as `check_chain5`.
    CheckChain5Spill,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 4] = [
    Workload::CertChain4,
    Workload::CertChain4Par,
    Workload::CheckChain5,
    Workload::CheckChain5Spill,
];

/// The memory budget of the spill workload.
pub const SPILL_BUDGET_BYTES: usize = 32 << 20;

/// Known answer of the chain4 certificate.
pub const CERT_OBLIGATIONS: usize = 9;
/// Reachable states of the chain4 complete system.
pub const CHAIN4_STATES: usize = 54_358;
/// Transitions of the chain4 complete system.
pub const CHAIN4_EDGES: usize = 164_736;
/// Reachable states of the chain5 complete system.
pub const CHAIN5_STATES: usize = 489_254;
/// Transitions of the chain5 complete system.
pub const CHAIN5_EDGES: usize = 1_699_992;
/// Capacity of the chain5 big queue, the invariant bound.
pub const CHAIN5_CAPACITY: i64 = 9;
/// States on the counterexample to `Len(q̄) < 9`.
pub const CHAIN5_CX_STATES: usize = 55;

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CertChain4 => "cert_chain4",
            Workload::CertChain4Par => "cert_chain4_par",
            Workload::CheckChain5 => "check_chain5",
            Workload::CheckChain5Spill => "check_chain5_spill",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Workers the workload runs with on a host with `hw` hardware
    /// threads.
    pub fn workers(self, hw: usize) -> usize {
        match self {
            Workload::CertChain4Par => hw.max(2),
            _ => 1,
        }
    }

    /// The memory budget the workload passes, if any.
    pub fn mem_budget(self) -> Option<usize> {
        (self == Workload::CheckChain5Spill).then_some(SPILL_BUDGET_BYTES)
    }

    /// The exploration engine a run report must name.
    pub fn expected_engine(self, hw: usize) -> &'static str {
        match self {
            Workload::CheckChain5Spill => "explore_spill",
            w if w.workers(hw) > 1 => "explore_parallel",
            _ => "explore_sequential",
        }
    }

    /// Pins the environment routes of the engines for this workload,
    /// so the caller's environment cannot change which engine runs.
    /// Call before any thread starts.
    pub fn pin_environment(self, hw: usize) {
        std::env::remove_var("OPENTLA_OBS");
        std::env::remove_var("OPENTLA_MEM_BUDGET");
        match self.workers(hw) {
            1 => std::env::remove_var("OPENTLA_EXPLORE_THREADS"),
            n => std::env::set_var("OPENTLA_EXPLORE_THREADS", n.to_string()),
        }
    }

    /// Builds the workload's specifications: everything before the
    /// first call into `check` or `core`.
    pub fn setup(self) -> Prepared {
        match self {
            Workload::CertChain4 | Workload::CertChain4Par => Prepared {
                chain: QueueChain::new(4, 1, 2, FairnessStyle::Joint),
                check: None,
            },
            Workload::CheckChain5 | Workload::CheckChain5Spill => {
                let chain = QueueChain::new(5, 1, 2, FairnessStyle::Joint);
                let system = chain.complete_system().expect("the chain5 product builds");
                let q_bar = chain
                    .refinement_mapping()
                    .get(chain.q_big())
                    .expect("the mapping covers q_big")
                    .clone();
                let holds = q_bar.clone().len().le(Expr::int(CHAIN5_CAPACITY));
                let refute = q_bar.len().lt(Expr::int(CHAIN5_CAPACITY));
                Prepared {
                    chain,
                    check: Some(CheckSpecs {
                        system,
                        holds,
                        refute,
                    }),
                }
            }
        }
    }

    /// Runs one verdict and checks it against the known answer.
    /// `refute_first` orders the two invariant checks of a `check_*`
    /// verdict. With a tracer, every engine event and every public call
    /// is recorded as a span under `bench.verdict`.
    pub fn verdict(
        self,
        prepared: &Prepared,
        tracer: Option<&Arc<Tracer>>,
        refute_first: bool,
    ) -> Result<(), String> {
        let budget = match tracer {
            Some(t) => Budget::default().with_recorder(RecorderHandle::new(t.clone())),
            None => Budget::default(),
        };
        span(tracer, "bench.verdict", || match &prepared.check {
            None => cert_verdict(&prepared.chain, budget, tracer),
            Some(specs) => {
                let options = ExploreOptions {
                    mem_budget_bytes: self.mem_budget(),
                    ..ExploreOptions::default()
                };
                check_verdict(specs, &budget, &options, tracer, refute_first)
            }
        })
    }
}

/// A workload's specifications, built by [`Workload::setup`].
#[derive(Debug)]
pub struct Prepared {
    /// The queue chain: composed by `cert_*`, model-checked by
    /// `check_*`.
    pub chain: QueueChain,
    /// What a `check_*` verdict checks; `None` for `cert_*`.
    pub check: Option<CheckSpecs>,
}

/// The complete system of a `check_*` workload and its invariants.
#[derive(Debug)]
pub struct CheckSpecs {
    /// `chain.complete_system()`.
    pub system: System,
    /// `Len(q̄) ≤ 9`.
    pub holds: Expr,
    /// `Len(q̄) < 9`.
    pub refute: Expr,
}

impl Prepared {
    /// States and transitions the chain's complete system must have.
    pub fn expected_graph(&self) -> (usize, usize) {
        match self.check {
            None => (CHAIN4_STATES, CHAIN4_EDGES),
            Some(_) => (CHAIN5_STATES, CHAIN5_EDGES),
        }
    }
}

/// Runs `f` inside a span when tracing.
pub fn span<R>(tracer: Option<&Arc<Tracer>>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Checks an explored graph against the known totals.
pub fn check_graph(graph: &StateGraph, expected: (usize, usize)) -> Result<(), String> {
    let got = (graph.len(), graph.edge_count());
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "graph has {got:?} states/edges, expected {expected:?}"
        ))
    }
}

fn cert_verdict(
    chain: &QueueChain,
    budget: Budget,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(), String> {
    let options = CompositionOptions {
        budget,
        ..CompositionOptions::default()
    };
    let cert = span(tracer, "bench.prove_composition", || {
        chain.prove_composition(&options)
    })
    .map_err(|e| format!("prove_composition: {e}"))?;
    if !cert.holds() {
        return Err("the chain4 certificate does not hold".into());
    }
    if cert.obligations.len() != CERT_OBLIGATIONS
        || !cert.obligations.iter().all(|o| o.status.proved())
    {
        return Err(format!(
            "expected {CERT_OBLIGATIONS} proved obligations, got {}",
            cert.obligations.len()
        ));
    }
    // The traced run attributes the last simulation of a certificate to
    // H2a, the refinement-mapped one; that rests on this order.
    let last_sim = cert
        .obligations
        .iter()
        .rev()
        .find(|o| o.method == Method::Simulation)
        .map(|o| o.id.as_str());
    if last_sim != Some("H2a") {
        return Err(format!(
            "last simulation obligation is {last_sim:?}, not H2a"
        ));
    }
    let got = (cert.product_states, cert.product_edges);
    if got != (CHAIN4_STATES, CHAIN4_EDGES) {
        return Err(format!(
            "certificate covers {got:?} states/edges, expected {:?}",
            (CHAIN4_STATES, CHAIN4_EDGES)
        ));
    }
    Ok(())
}

fn check_verdict(
    specs: &CheckSpecs,
    budget: &Budget,
    options: &ExploreOptions,
    tracer: Option<&Arc<Tracer>>,
    refute_first: bool,
) -> Result<(), String> {
    let CheckSpecs {
        system,
        holds,
        refute,
    } = specs;
    let run = span(tracer, "bench.explore_governed", || {
        if options.mem_budget_bytes.is_some() {
            explore_governed_with(system, budget, options)
        } else {
            explore_governed(system, budget)
        }
    })
    .map_err(|e| format!("explore: {e}"))?;
    if !run.outcome.is_complete() {
        return Err(format!("exploration incomplete: {}", run.outcome));
    }
    check_graph(&run.graph, (CHAIN5_STATES, CHAIN5_EDGES))?;
    let check_holds = || {
        let v = span(tracer, "bench.check_invariant.holds", || {
            check_invariant(system, &run.graph, holds)
        })
        .map_err(|e| format!("check_invariant: {e}"))?;
        if v.holds() {
            Ok(())
        } else {
            Err("Len(q̄) ≤ 9 was refuted".to_string())
        }
    };
    let check_refute = || {
        let v = span(tracer, "bench.check_invariant.refute", || {
            check_invariant(system, &run.graph, refute)
        })
        .map_err(|e| format!("check_invariant: {e}"))?;
        match v.counterexample().map(|cx| cx.states().len()) {
            Some(CHAIN5_CX_STATES) => Ok(()),
            Some(n) => Err(format!(
                "counterexample to Len(q̄) < 9 has {n} states, expected {CHAIN5_CX_STATES}"
            )),
            None => Err("Len(q̄) < 9 holds, expected a counterexample".to_string()),
        }
    };
    if refute_first {
        check_refute()?;
        check_holds()
    } else {
        check_holds()?;
        check_refute()
    }
}
