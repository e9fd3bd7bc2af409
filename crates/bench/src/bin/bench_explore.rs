//! Records the exploration-engine benchmark trajectory:
//! `BENCH_explore.json` in the working directory.
//!
//! Three engines run over the same scenario set:
//!
//! * `seed` — a faithful reimplementation of the pre-optimization
//!   sequential BFS: SipHash-keyed `HashMap<State, usize>` visited
//!   set, a cloned state per expansion, a fresh successor `Vec` per
//!   state, tree-walking guard/update evaluation;
//! * `seq_fp` — the current sequential engine: fingerprinted visited
//!   set, compiled successor stepper, reused buffers;
//! * `par_ws` — the `explore_parallel` route with the machine's
//!   available workers: the work-stealing engine (packed state
//!   layouts, per-worker deques, no level barriers), the canonical
//!   renumbering pass included in the measured time. Its graph is
//!   asserted byte-identical to `seq_fp`'s on every scenario. (On a
//!   single-hardware-thread machine one worker routes to the
//!   sequential loop; each engine entry's `workers` field says what a
//!   given JSON captured.)
//!
//! A thread-scaling curve (`par_ws` at 1/2/4/8 workers per scenario)
//! lands in `BENCH_scaling.json`, and a work-stealing gate always
//! measures the full chain4 at 4 workers: byte-identity always, and —
//! with ≥ 2 hardware threads — `par_ws` ≥ 1.5× `seq_fp`.
//!
//! A `seq_spill` column runs the bounded-memory spill engine (the
//! 1-thread route under a memory budget) at a generous 256 MiB budget
//! on every scenario, asserted byte-identical to `seq_fp`, and a
//! **spill gate** pins its chain4 overhead vs `seq_fp` to ≤ 10%. A
//! `par_spill` column runs the parallel bounded-memory engine (the
//! multi-thread route under the same budget) with the machine's
//! available workers, also asserted byte-identical, and a
//! **par-spill gate** measures chain4 at 4 workers: with ≥ 2 hardware
//! threads, `par_spill` must clear 1.5× `seq_spill`; a companion run
//! at a 256 KiB budget proves the engine actually seals segments by
//! recording its `spilled_bytes`. All gates record an `asserted` flag
//! and a `skip_reason` string in the JSON so a reader can tell a
//! passing gate from a skipped one without knowing the skip
//! conditions.
//!
//! Every run cross-checks that all engines agree on the state
//! and transition counts (the fingerprint/parallel engines are exact
//! reformulations, not approximations, on these state-space sizes).
//!
//! A fourth run per scenario, `seq_red`, explores under the scenario's
//! [`Reduction`] (ample-set partial-order reduction over the scenario
//! invariant's variables, plus symmetry canonicalization on the
//! mutex/ring models). It records `states_full / states_reduced` as
//! the per-model `reduction_factor`, asserts the scenario invariant's
//! verdict matches the full graph's, and — in full mode — gates that
//! at least one of ring/mutex/chain4 shrinks by ≥ 2×.
//!
//! Two observability artifacts ride along (PR 3):
//!
//! * an **overhead gate** — the current engine with a [`NullRecorder`]
//!   must stay within 5% of `plain`, a verbatim copy of the PR2
//!   fingerprinted engine with no observability layer at all, on the
//!   largest queue chain of the run;
//! * `OBS_explore.jsonl` — the largest chain explored under a
//!   [`JsonlRecorder`] by three engines (sequential fingerprinted,
//!   sequential exact, 4-thread parallel), schema-validated, with
//!   state/transition totals asserted identical across all three.
//!
//! Usage: `bench_explore [--smoke]`. `--smoke` runs a reduced scenario
//! set with one timing iteration — the CI configuration; full runs use
//! the best of three iterations per engine.

use fxhash::FxHashMap;
use opentla_bench::ms;
use opentla_check::{
    check_invariant, explore_governed_with, explore_resumable, obs,
    Budget, CheckError, CompiledSystem, CountingRecorder, EvalScratch,
    ExploreOptions, JsonlRecorder, Meter, RecorderHandle, Reduction, StateGraph, System,
    VisitedMode, DEFAULT_CHECKPOINT_CADENCE,
};
use opentla_kernel::Expr;
use opentla_kernel::State;
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::{AlternatingBit, ArbiterFairness, Mutex, TokenRing};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed explorer, reimplemented verbatim for an honest baseline:
/// exact SipHash visited set, per-state allocations, interpretive
/// successor evaluation. Returns the (states, transitions) counts.
fn explore_seed(system: &System, max_states: usize) -> Result<(usize, usize), CheckError> {
    let init_states = system.init().states(system.universe())?;
    if init_states.is_empty() {
        return Err(CheckError::NoInitialStates);
    }
    let meter = Meter::start(&Budget::default().states(max_states));
    let mut states: Vec<State> = Vec::new();
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut edges: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for s in init_states {
        if index.contains_key(&s) {
            continue;
        }
        assert!(meter.charge_state().is_none(), "seed run exceeded {max_states} states");
        let id = states.len();
        index.insert(s.clone(), id);
        states.push(s);
        edges.push(Vec::new());
        queue.push_back(id);
    }
    while let Some(id) = queue.pop_front() {
        let succ = system.successors(&states[id].clone())?;
        for (action, t) in succ {
            let target = match index.get(&t) {
                Some(existing) => *existing,
                None => {
                    assert!(
                        meter.charge_state().is_none(),
                        "seed run exceeded {max_states} states"
                    );
                    let nid = states.len();
                    index.insert(t.clone(), nid);
                    states.push(t);
                    edges.push(Vec::new());
                    queue.push_back(nid);
                    nid
                }
            };
            edges[id].push((action, target));
        }
    }
    Ok((states.len(), edges.iter().map(Vec::len).sum()))
}

/// The PR2 sequential fingerprinted engine, reimplemented verbatim
/// *without* the observability layer (no `Meter`, no recorder, no
/// phase events): the un-instrumented baseline the `NullRecorder`
/// overhead gate compares the shipping engine against.
fn explore_plain(
    system: &System,
    max_states: usize,
) -> Result<(usize, usize), CheckError> {
    use std::collections::hash_map::Entry;
    use std::ops::ControlFlow;

    let init_states = system.init().states(system.universe())?;
    if init_states.is_empty() {
        return Err(CheckError::NoInitialStates);
    }
    let compiled = CompiledSystem::compile(system);
    let mut scratch = EvalScratch::new();
    let mut map: FxHashMap<u64, usize> = FxHashMap::default();
    let mut states: Vec<State> = Vec::new();
    let mut fps: Vec<u64> = Vec::new();
    let mut transitions = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for s in init_states {
        let fp = s.fingerprint();
        if let Entry::Vacant(e) = map.entry(fp) {
            assert!(states.len() < max_states, "plain run exceeded {max_states} states");
            let id = states.len();
            e.insert(id);
            states.push(s);
            fps.push(fp);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        let parent = states[id].clone();
        let parent_fp = fps[id];
        compiled.for_each_successor(&parent, &mut scratch, |_action, assignments| {
            transitions += 1;
            let child_fp = parent.fingerprint_with(parent_fp, assignments);
            if let Entry::Vacant(e) = map.entry(child_fp) {
                assert!(
                    states.len() < max_states,
                    "plain run exceeded {max_states} states"
                );
                let nid = states.len();
                e.insert(nid);
                states.push(parent.with(assignments));
                fps.push(child_fp);
                queue.push_back(nid);
            }
            ControlFlow::<std::convert::Infallible>::Continue(())
        })?;
    }
    Ok((states.len(), transitions))
}

/// The shipping engine with an explicitly null recorder — immune to an
/// ambient `OPENTLA_OBS` setting, so timings measure the disabled-path
/// overhead and nothing else.
fn explore_null(
    system: &System,
    options: &ExploreOptions,
    threads: usize,
) -> StateGraph {
    let budget = Budget::default()
        .states(options.max_states)
        .with_recorder(RecorderHandle::null());
    let opts = ExploreOptions {
        threads: Some(threads),
        ..options.clone()
    };
    let run = explore_governed_with(system, &budget, &opts).expect("explores");
    assert!(run.outcome.is_complete(), "scenario exceeds the state budget");
    run.graph
}

/// A memory budget generous enough that no benchmark scenario seals a
/// segment: the spill engines then run at in-RAM speed while keeping
/// their disk-backed machinery live.
const GENEROUS_SPILL_BUDGET: usize = 256 << 20;

/// The bounded-memory spill engine with an explicitly null recorder,
/// at [`GENEROUS_SPILL_BUDGET`] — what the disk-backed machinery costs
/// when nothing actually needs to spill.
fn explore_spill_null(system: &System, options: &ExploreOptions) -> StateGraph {
    explore_par_spill_null(system, options, 1)
}

/// The memory-budget route at `threads` workers with an explicitly
/// null recorder: the sequential spill engine at one worker, otherwise
/// work-stealing workers over the same disk-backed spill tiers.
fn explore_par_spill_null(system: &System, options: &ExploreOptions, threads: usize) -> StateGraph {
    let opts = ExploreOptions {
        mem_budget_bytes: Some(GENEROUS_SPILL_BUDGET),
        ..options.clone()
    };
    explore_null(system, &opts, threads)
}

/// Asserts that two graphs are byte-identical in the established
/// sense: same states in the same canonical order, same init set, and
/// the same edge list per state.
fn assert_graphs_identical(a: &StateGraph, b: &StateGraph, what: &str) {
    assert_eq!(a.states(), b.states(), "{what}: states differ");
    assert_eq!(a.init(), b.init(), "{what}: init sets differ");
    for id in 0..a.len() {
        assert_eq!(a.edges(id), b.edges(id), "{what}: edges differ at state {id}");
    }
}

/// The shipping engine with crash tolerance armed at the default
/// checkpoint cadence — what a long run pays for resumability when
/// nothing crashes. The scenarios here are all smaller than one
/// cadence interval, so no periodic snapshot is ever due and the
/// measurement isolates the arming cost itself (the per-expansion
/// cadence branch); larger models would add one snapshot write per
/// [`DEFAULT_CHECKPOINT_CADENCE`] expansions on top.
fn explore_ckpt(
    system: &System,
    options: &ExploreOptions,
    path: &std::path::Path,
) -> StateGraph {
    let budget = Budget::default()
        .states(options.max_states)
        .with_checkpoint(path, DEFAULT_CHECKPOINT_CADENCE)
        .with_recorder(RecorderHandle::null());
    let opts = ExploreOptions {
        threads: Some(1),
        ..options.clone()
    };
    let run = explore_resumable(system, &budget, &opts).expect("checkpoint-armed explores");
    assert!(run.outcome.is_complete(), "scenario exceeds the state budget");
    run.graph
}

/// The shipping engine under a [`Reduction`], null recorder, one
/// worker — the reduced counterpart `seq_red` is timed against.
fn explore_reduced(
    system: &System,
    options: &ExploreOptions,
    reduction: &Reduction,
) -> opentla_check::Exploration {
    let budget = Budget::default()
        .states(options.max_states)
        .with_recorder(RecorderHandle::null());
    let opts = ExploreOptions {
        threads: Some(1),
        reduction: reduction.clone(),
        ..options.clone()
    };
    let run = explore_governed_with(system, &budget, &opts).expect("reduced explores");
    assert!(run.outcome.is_complete(), "scenario exceeds the state budget");
    run
}

struct Scenario {
    name: &'static str,
    system: System,
    /// The acceptance scenario: the largest queue chain, where the
    /// parallel fingerprinted engine must clear 2× the seed throughput.
    is_acceptance: bool,
    /// The reduction this scenario is benchmarked under, with a short
    /// description for the JSON, and the invariant whose verdict must
    /// agree between the full and reduced graphs.
    reduction: Reduction,
    reduction_desc: &'static str,
    invariant: Expr,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    let mut out = Vec::new();
    let abp = AlternatingBit::new(if smoke { 2 } else { 4 });
    let inv = abp.in_order_invariant();
    out.push(Scenario {
        name: "abp",
        system: abp.complete_system().expect("abp builds"),
        is_acceptance: false,
        reduction: Reduction::none().with_por(inv.unprimed_vars()),
        reduction_desc: "por(in_order vars)",
        invariant: inv,
    });
    let mutex = Mutex::with_clients(if smoke { 2 } else { 3 }, ArbiterFairness::Weak);
    let inv = mutex.mutual_exclusion();
    out.push(Scenario {
        name: "mutex",
        reduction: Reduction::none()
            .with_por(inv.unprimed_vars())
            .with_symmetry(Arc::new(mutex.client_symmetry())),
        reduction_desc: "por(mutual_exclusion vars) + client-permutation symmetry",
        system: mutex.product().expect("mutex builds"),
        is_acceptance: false,
        invariant: inv,
    });
    let ring = TokenRing::new(if smoke { 3 } else { 4 });
    let inv = ring.mutual_exclusion();
    out.push(Scenario {
        name: "ring",
        reduction: Reduction::none()
            .with_por(inv.unprimed_vars())
            .with_symmetry(Arc::new(ring.rotation_symmetry())),
        reduction_desc: "por(mutual_exclusion vars) + rotation symmetry",
        system: ring.complete_system().expect("ring builds"),
        is_acceptance: false,
        invariant: inv,
    });
    let max_chain = if smoke { 3 } else { 4 };
    for k in 2..=max_chain {
        let system = QueueChain::new(k, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain builds");
        // The chains have no scenario invariant of their own here; a
        // domain bound on the first wire keeps the verdict comparison
        // meaningful while leaving POR free to prune internal moves.
        let v0 = system.vars().iter().next().expect("chain has variables");
        let invariant = Expr::var(v0).le(Expr::int(1));
        out.push(Scenario {
            name: match k {
                2 => "chain2",
                3 => "chain3",
                _ => "chain4",
            },
            is_acceptance: k == max_chain && !smoke,
            reduction: Reduction::none().with_por(invariant.unprimed_vars()),
            reduction_desc: "por(first-wire observable)",
            system,
            invariant,
        });
    }
    out
}

/// Best-of-`iters` wall time of `work`, with the result of the last
/// iteration.
fn time_best<T>(iters: usize, mut work: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..iters {
        let t = Instant::now();
        let r = work();
        best = best.min(t.elapsed());
        result = Some(r);
    }
    (best, result.expect("at least one iteration"))
}

struct EngineRun {
    seconds: f64,
    states_per_sec: f64,
    /// How many workers this entry actually ran with — 1 for the
    /// sequential engines, the resolved thread count for the parallel
    /// ones, so a JSON reader never has to guess from context.
    workers: usize,
}

fn engine_json(run: &EngineRun) -> String {
    format!(
        "{{ \"seconds\": {:.6}, \"states_per_sec\": {:.0}, \"workers\": {} }}",
        run.seconds, run.states_per_sec, run.workers
    )
}

fn graph_counts(graph: &StateGraph) -> (usize, usize) {
    (graph.len(), graph.edge_count())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 1 } else { 3 };
    let threads = std::env::var("OPENTLA_EXPLORE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
        .max(1);
    let options = ExploreOptions::default();

    println!(
        "# bench_explore ({} mode, {iters} iteration(s), {threads} thread(s))\n",
        if smoke { "smoke" } else { "full" }
    );
    println!("| scenario | states | transitions | seed | plain | seq_fp | par_ws | seq_spill | par_spill | seq_red | seq_fp× | par_ws× | red× | null-ovh | ckpt-ovh |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|");

    let mut rows = Vec::new();
    let mut acceptance: Option<(String, f64)> = None;
    let mut overhead: Option<(String, f64)> = None;
    let mut best_reduction: Option<(&'static str, f64)> = None;
    let all = scenarios(smoke);
    // The overhead gate runs on the largest chain of the active set
    // (chain4 full, chain3 smoke) — the scenario big enough for the
    // per-checkpoint branch to show up if it ever costs anything.
    let gate_name = all
        .iter()
        .rev()
        .find(|sc| sc.name.starts_with("chain"))
        .map(|sc| sc.name)
        .expect("a chain scenario is always present");
    for sc in all {
        let max = options.max_states;
        // Timing comparisons within 5% need more than one sample:
        // best-of-5 on the gate scenario even in smoke mode.
        let gate_iters = if sc.name == gate_name { iters.max(5) } else { iters };
        let (seed_t, seed_counts) =
            time_best(iters, || explore_seed(&sc.system, max).expect("seed explores"));
        // Plain and seq_fp are compared within 5% by the overhead
        // gate, so their samples interleave — block-to-block drift
        // (frequency scaling, neighbors on shared runners) cancels
        // out of the ratio instead of landing in it.
        let (plain_t, seq_t, plain_counts, seq_graph) = {
            let mut plain_best = Duration::MAX;
            let mut seq_best = Duration::MAX;
            let mut counts = None;
            let mut graph = None;
            for _ in 0..gate_iters {
                let t = Instant::now();
                let c = explore_plain(&sc.system, max).expect("plain explores");
                plain_best = plain_best.min(t.elapsed());
                counts = Some(c);
                let t = Instant::now();
                let g = explore_null(&sc.system, &options, 1);
                seq_best = seq_best.min(t.elapsed());
                graph = Some(g);
            }
            (
                plain_best,
                seq_best,
                counts.expect("at least one iteration"),
                graph.expect("at least one iteration"),
            )
        };
        let (ws_t, ws_graph) = time_best(iters, || explore_null(&sc.system, &options, threads));
        let (spill_t, spill_graph) =
            time_best(iters, || explore_spill_null(&sc.system, &options));
        let (pspill_t, pspill_graph) =
            time_best(iters, || explore_par_spill_null(&sc.system, &options, threads));
        let (red_t, red_run) = time_best(iters, || {
            explore_reduced(&sc.system, &options, &sc.reduction)
        });
        // Crash-tolerance arming cost: same engine, checkpointing on
        // at the default cadence. A complete run below one cadence
        // interval writes nothing, so the snapshot file must never
        // appear — remove any leftover so a stale file cannot turn
        // the timed run into a resume.
        let ck_path = std::env::temp_dir().join(format!(
            "opentla_bench_ckpt_{}_{}.snap",
            std::process::id(),
            sc.name
        ));
        // Interleave armed/unarmed samples (the pair is compared
        // within 5%, so block-to-block drift must cancel); the unarmed
        // best also folds in the `seq_t` measured above.
        let (ck_t, seq_resume_t, ck_graph) = {
            let mut ck_best = Duration::MAX;
            let mut seq_best = seq_t;
            let mut graph = None;
            for _ in 0..gate_iters {
                let t = Instant::now();
                let g = explore_null(&sc.system, &options, 1);
                seq_best = seq_best.min(t.elapsed());
                drop(g);
                let _ = std::fs::remove_file(&ck_path);
                let t = Instant::now();
                let g = explore_ckpt(&sc.system, &options, &ck_path);
                ck_best = ck_best.min(t.elapsed());
                graph = Some(g);
            }
            (ck_best, seq_best, graph.expect("at least one iteration"))
        };
        let _ = std::fs::remove_file(&ck_path);
        let (states, transitions) = seed_counts;
        assert_eq!(
            plain_counts,
            (states, transitions),
            "{}: plain disagrees with seed",
            sc.name
        );
        assert_eq!(
            graph_counts(&seq_graph),
            (states, transitions),
            "{}: seq_fp disagrees with seed",
            sc.name
        );
        assert_eq!(
            graph_counts(&ws_graph),
            (states, transitions),
            "{}: par_ws disagrees with seed",
            sc.name
        );
        // The work-stealing engine's canonical renumbering must make
        // it indistinguishable from the sequential engine, not merely
        // count-equal.
        assert_graphs_identical(&seq_graph, &ws_graph, sc.name);
        // The spill engine shares the sequential discovery order by
        // construction — byte-identity, not just counts.
        assert_graphs_identical(&seq_graph, &spill_graph, sc.name);
        // The parallel spill engine's canonical renumbering must make
        // it indistinguishable too, at whatever worker count ran.
        assert_graphs_identical(&seq_graph, &pspill_graph, sc.name);
        assert_eq!(
            graph_counts(&ck_graph),
            (states, transitions),
            "{}: checkpoint-armed run disagrees with seed",
            sc.name
        );
        // Reduction soundness, cross-checked where it is cheapest to
        // see: the reduced graph answers the scenario invariant the
        // same way the full graph does.
        let states_reduced = red_run.graph.len();
        assert!(
            states_reduced <= states,
            "{}: reduction grew the state space",
            sc.name
        );
        let full_verdict = check_invariant(&sc.system, &seq_graph, &sc.invariant)
            .expect("full invariant check")
            .holds();
        let red_verdict = check_invariant(&sc.system, &red_run.graph, &sc.invariant)
            .expect("reduced invariant check")
            .holds();
        assert_eq!(
            full_verdict, red_verdict,
            "{}: reduction flipped the invariant verdict",
            sc.name
        );
        let red_factor = states as f64 / states_reduced.max(1) as f64;
        let red_stats = red_run.reduction.expect("reduced run reports stats");

        let run = |d: Duration, workers: usize| EngineRun {
            seconds: d.as_secs_f64(),
            states_per_sec: states as f64 / d.as_secs_f64().max(1e-9),
            workers,
        };
        let (seed, plain, seq) = (run(seed_t, 1), run(plain_t, 1), run(seq_t, 1));
        let ws = run(ws_t, threads);
        let spill = run(spill_t, 1);
        let pspill = run(pspill_t, threads);
        let red = EngineRun {
            seconds: red_t.as_secs_f64(),
            states_per_sec: states_reduced as f64 / red_t.as_secs_f64().max(1e-9),
            workers: 1,
        };
        let seq_x = seq.states_per_sec / seed.states_per_sec;
        let ws_x = ws.states_per_sec / seed.states_per_sec;
        // Disabled-recorder overhead: how much throughput the shipping
        // engine gives up against the un-instrumented PR2 copy (< 0
        // means it measured faster).
        let null_ovh = 1.0 - seq.states_per_sec / plain.states_per_sec;
        // Resume overhead: what arming checkpointing at the default
        // cadence costs against the same engine with it off.
        let ck = run(ck_t, 1);
        let resume_ovh = 1.0 - seq_resume_t.as_secs_f64() / ck_t.as_secs_f64().max(1e-9);
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2}× | {:.2}× | {:.2}× | {:+.1}% | {:+.1}% |",
            sc.name,
            states,
            transitions,
            ms(seed_t),
            ms(plain_t),
            ms(seq_t),
            ms(ws_t),
            ms(spill_t),
            ms(pspill_t),
            ms(red_t),
            seq_x,
            ws_x,
            red_factor,
            null_ovh * 100.0,
            resume_ovh * 100.0,
        );
        if sc.is_acceptance {
            acceptance = Some((sc.name.to_string(), ws_x));
        }
        if sc.name == gate_name {
            overhead = Some((sc.name.to_string(), null_ovh));
        }
        if matches!(sc.name, "ring" | "mutex" | "chain4")
            && best_reduction.is_none_or(|(_, f)| red_factor > f)
        {
            best_reduction = Some((sc.name, red_factor));
        }
        rows.push(format!(
            "    {{\n      \"scenario\": \"{}\",\n      \"states\": {},\n      \"transitions\": {},\n      \"seed\": {},\n      \"plain\": {},\n      \"seq_fp\": {},\n      \"par_ws\": {},\n      \"seq_ckpt\": {},\n      \"seq_spill\": {},\n      \"par_spill\": {},\n      \"speedup_seq_fp\": {:.2},\n      \"speedup_par_ws\": {:.2},\n      \"null_recorder_overhead\": {:.4},\n      \"resume_overhead\": {:.4},\n      \"acceptance\": {},\n      \"reduction\": {{\n        \"config\": \"{}\",\n        \"states_full\": {},\n        \"states_reduced\": {},\n        \"reduction_factor\": {:.2},\n        \"seq_red\": {},\n        \"ample_states\": {},\n        \"full_states\": {},\n        \"skipped_transitions\": {},\n        \"canon_hits\": {},\n        \"verdict_matches_full\": true\n      }}\n    }}",
            sc.name,
            states,
            transitions,
            engine_json(&seed),
            engine_json(&plain),
            engine_json(&seq),
            engine_json(&ws),
            engine_json(&ck),
            engine_json(&spill),
            engine_json(&pspill),
            seq_x,
            ws_x,
            null_ovh,
            resume_ovh,
            sc.is_acceptance,
            sc.reduction_desc,
            states,
            states_reduced,
            red_factor,
            engine_json(&red),
            red_stats.ample_states,
            red_stats.full_states,
            red_stats.skipped_transitions,
            red_stats.canon_hits,
        ));
    }

    // --- observability run report: largest chain, three engines -------
    let obs_scenario = scenarios(smoke)
        .into_iter()
        .rev()
        .find(|sc| sc.name == gate_name)
        .expect("the gate scenario exists");
    let obs_path = "OBS_explore.jsonl";
    let obs_totals = write_obs_report(&obs_scenario.system, obs_path);
    println!("\nwrote {obs_path} ({gate_name}: {obs_totals})");

    let (overhead_name, null_ovh) = overhead.expect("the gate scenario always runs");

    // --- resume-overhead gate: full-size chain4, even in smoke mode ---
    // The smoke scenarios finish in single-digit milliseconds — far
    // too small to support a 5% timing assertion. The gate therefore
    // always measures the full acceptance chain, interleaving the
    // armed and unarmed engines so drift cancels out of the ratio.
    let resume_name = "chain4";
    let resume_ovh = {
        let gate_sys = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain4 builds");
        let ck_path = std::env::temp_dir().join(format!(
            "opentla_bench_ckpt_{}_gate.snap",
            std::process::id()
        ));
        let mut seq_best = Duration::MAX;
        let mut ck_best = Duration::MAX;
        for _ in 0..iters.max(5) {
            let t = Instant::now();
            let unarmed = explore_null(&gate_sys, &options, 1);
            seq_best = seq_best.min(t.elapsed());
            let _ = std::fs::remove_file(&ck_path);
            let t = Instant::now();
            let armed = explore_ckpt(&gate_sys, &options, &ck_path);
            ck_best = ck_best.min(t.elapsed());
            assert_eq!(
                graph_counts(&unarmed),
                graph_counts(&armed),
                "checkpoint-armed chain4 run disagrees with the unarmed one"
            );
        }
        let _ = std::fs::remove_file(&ck_path);
        1.0 - seq_best.as_secs_f64() / ck_best.as_secs_f64().max(1e-9)
    };

    // --- work-stealing gate: full chain4 at 4 workers, always ---------
    // As with the resume gate, the smoke scenarios are far too small to
    // support a speedup assertion, so the gate always measures the full
    // acceptance chain, interleaving the two engines so block-to-block
    // drift cancels out of the ratios. The asserts themselves only fire
    // with real hardware parallelism: on a single-hardware-thread
    // machine every "worker count" time-slices one core and the ratios
    // are pure scheduling noise — the measured numbers are still
    // printed and recorded in the JSON either way.
    let ws_gate_workers = 4usize;
    let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let ws_name = "chain4";
    let ws_vs_seq = {
        let gate_sys = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain4 builds");
        let mut seq_best = Duration::MAX;
        let mut ws_best = Duration::MAX;
        for _ in 0..iters.max(5) {
            let t = Instant::now();
            let seq_g = explore_null(&gate_sys, &options, 1);
            seq_best = seq_best.min(t.elapsed());
            let t = Instant::now();
            let ws_g = explore_null(&gate_sys, &options, ws_gate_workers);
            ws_best = ws_best.min(t.elapsed());
            assert_graphs_identical(&seq_g, &ws_g, "ws gate (chain4)");
        }
        seq_best.as_secs_f64() / ws_best.as_secs_f64().max(1e-9)
    };

    // --- spill gate: full chain4, in-RAM vs bounded-memory engine -----
    // At the generous default budget the spill engine never seals a
    // segment, so this measures what the disk-backed machinery costs
    // when memory is plentiful: the overhead must stay within 10% of
    // seq_fp. Samples interleave so drift cancels out of the ratio,
    // and byte-identity is asserted on every pair. This gate needs no
    // hardware parallelism, so it is always asserted.
    let spill_name = "chain4";
    let spill_ovh = {
        let gate_sys = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain4 builds");
        let mut seq_best = Duration::MAX;
        let mut spill_best = Duration::MAX;
        // More samples than the other gates: this one compares two
        // ~equal runtimes at a tight limit, so the best-of needs a
        // deeper pool to shake scheduler noise out of both minima.
        for _ in 0..iters.max(9) {
            let t = Instant::now();
            let seq_g = explore_null(&gate_sys, &options, 1);
            seq_best = seq_best.min(t.elapsed());
            let t = Instant::now();
            let spill_g = explore_spill_null(&gate_sys, &options);
            spill_best = spill_best.min(t.elapsed());
            assert_graphs_identical(&seq_g, &spill_g, "spill gate (chain4)");
        }
        1.0 - seq_best.as_secs_f64() / spill_best.as_secs_f64().max(1e-9)
    };

    // --- par-spill gate: full chain4, 4 workers vs the sequential -----
    // spill engine. Like the ws gate, the speedup assert only fires
    // with real hardware parallelism; byte-identity is checked either
    // way. A companion run at a deliberately tiny 256 KiB budget
    // proves the parallel engine actually exercises the disk tiers —
    // its recorded `spilled_bytes` must be non-zero — rather than
    // winning the race by never sealing a segment.
    let par_spill_name = "chain4";
    let par_spill_workers = 4usize;
    let (par_spill_speedup, par_spill_bytes) = {
        let gate_sys = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
            .complete_system()
            .expect("chain4 builds");
        let mut seq_best = Duration::MAX;
        let mut par_best = Duration::MAX;
        for _ in 0..iters.max(5) {
            let t = Instant::now();
            let seq_g = explore_spill_null(&gate_sys, &options);
            seq_best = seq_best.min(t.elapsed());
            let t = Instant::now();
            let par_g = explore_par_spill_null(&gate_sys, &options, par_spill_workers);
            par_best = par_best.min(t.elapsed());
            assert_graphs_identical(&seq_g, &par_g, "par-spill gate (chain4)");
        }
        // Budget-proof run: 256 KiB forces every tier to disk.
        let recorder = Arc::new(CountingRecorder::new());
        let budget = Budget::default()
            .states(options.max_states)
            .with_recorder(RecorderHandle::new(recorder.clone()));
        let opts = ExploreOptions {
            threads: Some(par_spill_workers),
            mem_budget_bytes: Some(256 << 10),
            ..options.clone()
        };
        let run = explore_governed_with(&gate_sys, &budget, &opts)
            .expect("budgeted par-spill explores");
        assert!(run.outcome.is_complete(), "budgeted par-spill run must complete");
        let bytes = recorder.spilled_bytes();
        assert!(
            bytes > 0,
            "par-spill gate: a 256 KiB budget on chain4 must seal segments \
             (spilled_bytes == 0 means the disk tiers never engaged)"
        );
        (
            seq_best.as_secs_f64() / par_best.as_secs_f64().max(1e-9),
            bytes,
        )
    };

    // --- thread-scaling curve: par_ws at 1/2/4/8 workers --------------
    // One descriptive sample per point (the gates above are what is
    // asserted); every point re-checks the state count so a scaling
    // entry can never come from a wrong graph.
    let worker_counts: [usize; 4] = [1, 2, 4, 8];
    let mut scaling_rows = Vec::new();
    for sc in scenarios(smoke) {
        let mut ws_entries = Vec::new();
        let mut states = 0usize;
        for &w in &worker_counts {
            let entry = |t: Duration, n: usize, w: usize| {
                format!(
                    "{{ \"workers\": {w}, \"seconds\": {:.6}, \"states_per_sec\": {:.0} }}",
                    t.as_secs_f64(),
                    n as f64 / t.as_secs_f64().max(1e-9)
                )
            };
            let (t, g) = time_best(1, || explore_null(&sc.system, &options, w));
            if states == 0 {
                states = g.len();
            }
            assert_eq!(g.len(), states, "{}: scaling run disagrees", sc.name);
            ws_entries.push(entry(t, states, w));
        }
        scaling_rows.push(format!(
            "    {{\n      \"scenario\": \"{}\",\n      \"states\": {},\n      \"par_ws\": [{}]\n    }}",
            sc.name,
            states,
            ws_entries.join(", ")
        ));
    }
    let scaling_json = format!(
        "{{\n  \"benchmark\": \"explore_scaling\",\n  \"smoke\": {smoke},\n  \"iterations\": 1,\n  \"hardware_threads\": {hardware},\n  \"worker_counts\": [1, 2, 4, 8],\n  \"engines\": {{\n    \"par_ws\": \"the explore_parallel route: work-stealing engine (packed layouts, barrier-free), sequential loop at 1 worker\"\n  }},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        scaling_rows.join(",\n")
    );
    let scaling_path = "BENCH_scaling.json";
    std::fs::write(scaling_path, &scaling_json).expect("write BENCH_scaling.json");
    println!("wrote {scaling_path}");

    // Gate legibility: every gate records whether its assert actually
    // fired, and — when skipped — a human-readable reason, so a JSON
    // reader never has to reverse-engineer the skip condition.
    let ws_asserted = hardware >= 2;
    let ws_skip_reason = if ws_asserted {
        "null".to_string()
    } else {
        "\"single hardware thread: worker counts time-slice one core, speedup \
         ratios are scheduling noise (byte-identity still checked)\""
            .to_string()
    };
    let json = format!(
        "{{\n  \"benchmark\": \"explore\",\n  \"smoke\": {smoke},\n  \"iterations\": {iters},\n  \"threads\": {threads},\n  \"engines\": {{\n    \"seed\": \"seed sequential BFS: exact SipHash visited set, interpretive successors\",\n    \"plain\": \"PR2 copy: fingerprinted + compiled, no observability layer (overhead baseline)\",\n    \"seq_fp\": \"sequential, fingerprinted visited set + compiled successor stepper, NullRecorder\",\n    \"par_ws\": \"the explore_parallel route: work-stealing engine with packed state layouts, per-worker deques, no level barriers (sequential loop when 1 worker)\",\n    \"seq_ckpt\": \"seq_fp with checkpointing armed at DEFAULT_CHECKPOINT_CADENCE (crash-tolerance arming cost)\",\n    \"seq_spill\": \"bounded-memory spill engine at a 256 MiB budget: disk-backed arena/edges, two-tier visited set\",\n    \"par_spill\": \"parallel bounded-memory engine: work-stealing workers over sharded hot tiers draining to sorted fingerprint runs\",\n    \"seq_red\": \"sequential engine under the scenario's Reduction (ample-set POR and/or symmetry), NullRecorder\"\n  }},\n  \"obs\": {{\n    \"report\": \"OBS_explore.jsonl\",\n    \"scenario\": \"{gate_name}\",\n    \"null_recorder_overhead\": {null_ovh:.4}\n  }},\n  \"resume\": {{\n    \"scenario\": \"{resume_name}\",\n    \"cadence\": {DEFAULT_CHECKPOINT_CADENCE},\n    \"resume_overhead\": {resume_ovh:.4}\n  }},\n  \"ws_gate\": {{\n    \"scenario\": \"{ws_name}\",\n    \"workers\": {ws_gate_workers},\n    \"hardware_threads\": {hardware},\n    \"speedup_vs_seq_fp\": {ws_vs_seq:.2},\n    \"asserted\": {ws_asserted},\n    \"skip_reason\": {ws_skip_reason}\n  }},\n  \"spill_gate\": {{\n    \"scenario\": \"{spill_name}\",\n    \"workers\": 1,\n    \"budget\": \"256 MiB (unconstrained)\",\n    \"overhead_vs_seq_fp\": {spill_ovh:.4},\n    \"limit\": 0.10,\n    \"asserted\": true,\n    \"skip_reason\": null\n  }},\n  \"par_spill_gate\": {{\n    \"scenario\": \"{par_spill_name}\",\n    \"workers\": {par_spill_workers},\n    \"hardware_threads\": {hardware},\n    \"speedup_vs_seq_spill\": {par_spill_speedup:.2},\n    \"limit\": 1.5,\n    \"spilled_bytes_at_256KiB\": {par_spill_bytes},\n    \"asserted\": {ws_asserted},\n    \"skip_reason\": {ws_skip_reason}\n  }},\n  \"scaling\": \"BENCH_scaling.json\",\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );

    let path = "BENCH_explore.json";
    std::fs::write(path, &json).expect("write BENCH_explore.json");
    println!("wrote {path}");

    if let Some((name, ws_x)) = acceptance {
        println!("\nacceptance ({name}): par_ws is {ws_x:.2}× the seed throughput");
        assert!(
            ws_x >= 2.0,
            "acceptance regression: par_ws only {ws_x:.2}× seed on {name} (need ≥ 2×)"
        );
    }
    // Reduction acceptance: at least one of ring/mutex/chain4 must
    // shrink ≥ 2× under its reduction. Full mode only — the smoke set
    // runs mutex at 2 clients, where the 2-element symmetry group
    // cannot reach the bar by construction.
    if let Some((name, factor)) = best_reduction {
        println!("reduction ({name}): {factor:.2}× fewer states than full exploration");
        if !smoke {
            assert!(
                factor >= 2.0,
                "reduction regression: best factor on ring/mutex/chain4 is only \
                 {factor:.2}× ({name}, need ≥ 2×)"
            );
        }
    }
    println!(
        "overhead gate ({overhead_name}): NullRecorder engine gives up {:.1}% \
         vs the un-instrumented PR2 copy (limit 5%)",
        null_ovh * 100.0
    );
    assert!(
        null_ovh <= 0.05,
        "observability regression: NullRecorder path is {:.1}% slower than the \
         un-instrumented engine on {overhead_name} (limit 5%)",
        null_ovh * 100.0
    );
    println!(
        "resume gate ({resume_name}): checkpointing at the default cadence gives up \
         {:.1}% vs the unarmed engine (limit 5%)",
        resume_ovh * 100.0
    );
    assert!(
        resume_ovh <= 0.05,
        "crash-tolerance regression: checkpoint-armed engine is {:.1}% slower than \
         the unarmed engine on {resume_name} (limit 5%)",
        resume_ovh * 100.0
    );
    println!(
        "ws gate ({ws_name}, {ws_gate_workers} workers): par_ws is {ws_vs_seq:.2}× seq_fp \
         ({hardware} hardware thread(s))"
    );
    if hardware >= 2 {
        assert!(
            ws_vs_seq >= 1.5,
            "work-stealing regression: par_ws only {ws_vs_seq:.2}× seq_fp on {ws_name} \
             at {ws_gate_workers} workers (need ≥ 1.5×)"
        );
    } else {
        println!(
            "ws gate speedup asserts skipped (single hardware thread — byte-identity \
             was still checked)"
        );
    }
    println!(
        "spill gate ({spill_name}): bounded-memory engine gives up {:.1}% vs seq_fp \
         at the default budget (limit 10%)",
        spill_ovh * 100.0
    );
    assert!(
        spill_ovh <= 0.10,
        "spill regression: bounded-memory engine is {:.1}% slower than seq_fp on \
         {spill_name} at the default budget (limit 10%)",
        spill_ovh * 100.0
    );
    println!(
        "par_spill gate ({par_spill_name}, {par_spill_workers} workers): par_spill is \
         {par_spill_speedup:.2}× seq_spill, {par_spill_bytes} bytes spilled at 256 KiB \
         ({hardware} hardware thread(s))"
    );
    if hardware >= 2 {
        assert!(
            par_spill_speedup >= 1.5,
            "par-spill regression: par_spill only {par_spill_speedup:.2}× seq_spill on \
             {par_spill_name} at {par_spill_workers} workers (need ≥ 1.5×)"
        );
    } else {
        println!(
            "par_spill gate speedup assert skipped (single hardware thread — \
             byte-identity and spilled-bytes were still checked)"
        );
    }
}

/// Explores `system` under a [`JsonlRecorder`] with three engines —
/// sequential fingerprinted, sequential exact, and 4-thread parallel —
/// into one JSONL stream at `path`; validates the stream against the
/// schema and asserts the three run reports carry identical
/// state/transition totals. Returns the shared `states/transitions`
/// rendering.
fn write_obs_report(system: &System, path: &str) -> String {
    let recorder = Arc::new(JsonlRecorder::create(path).expect("create OBS_explore.jsonl"));
    let handle = RecorderHandle::new(recorder.clone());
    let configs: [(VisitedMode, usize); 3] = [
        (VisitedMode::Fingerprint, 1),
        (VisitedMode::Exact, 1),
        (VisitedMode::Fingerprint, 4),
    ];
    for (mode, threads) in configs {
        let budget = Budget::default().with_recorder(handle.clone());
        let opts = ExploreOptions {
            mode,
            threads: Some(threads),
            ..ExploreOptions::default()
        };
        let run = explore_governed_with(system, &budget, &opts).expect("obs run explores");
        assert!(run.outcome.is_complete());
    }
    recorder.flush();
    let text = std::fs::read_to_string(path).expect("read back OBS_explore.jsonl");
    let summary = obs::validate_stream(&text).unwrap_or_else(|e| {
        panic!("OBS_explore.jsonl fails schema validation: {e}");
    });
    assert_eq!(summary.runs.len(), 3, "expected one run report per engine");
    let totals: Vec<String> = summary
        .runs
        .iter()
        .map(|r| format!("{}/{}", r.states, r.transitions))
        .collect();
    assert!(
        totals.iter().all(|t| t == &totals[0]),
        "engines disagree in the observability report: {totals:?}"
    );
    assert!(
        summary.runs.iter().all(|r| r.complete),
        "observability runs must complete"
    );
    format!("{} states / {} transitions", summary.runs[0].states, summary.runs[0].transitions)
}
