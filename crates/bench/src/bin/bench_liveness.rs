//! Records the fair-cycle liveness benchmark trajectory:
//! `BENCH_liveness.json` in the working directory.
//!
//! Two engines run the same targets over the same pre-explored state
//! graphs:
//!
//! * `seq` — the sequential fair-cycle engine
//!   ([`opentla_check::check_liveness`]): SCC decomposition plus
//!   per-component WF/SF satisfiability, shortest-prefix lassos;
//! * `par` — the parallel engine
//!   ([`opentla_check::check_liveness_governed_with`] with a worker
//!   count): one shared SCC pass, then components claimed
//!   work-stealing-style, with deterministic tie-breaking.
//!
//! Every (scenario, target) pair asserts the parallel verdict *and*
//! lasso are identical to the sequential ones before any time is
//! reported — a benchmark that diverges is a bug, not a data point.
//!
//! The gate always measures the full chain4 queue chain: with ≥ 2
//! hardware threads the parallel engine must be ≥ 1.5× the sequential
//! one there; on a single-hardware-thread machine the ratio is
//! recorded but not asserted (`"asserted": false`).
//!
//! Usage: `bench_liveness [--smoke]`. `--smoke` scopes the scenario
//! table down to chain2/chain3 with one timing iteration (the CI
//! configuration); full runs use chain2–chain4 and the best of three
//! iterations. The chain4 gate runs in both modes.

use opentla_bench::ms;
use opentla_check::{
    check_liveness, check_liveness_governed_with, explore, Budget, ExploreOptions,
    LiveTarget, LivenessOptions, System, Verdict,
};
use opentla_kernel::Fairness;
use opentla_queue::{FairnessStyle, QueueChain};
use std::time::{Duration, Instant};

fn chain(k: usize) -> System {
    QueueChain::new(k, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain builds")
}

/// The benchmark targets: a WF obligation on the first action, an SF
/// obligation on the last, and `◇¬guard(first)` — the same generic
/// shapes the differential harness pins.
fn targets(sys: &System) -> Vec<(String, LiveTarget)> {
    let frame = sys.frame();
    let first = &sys.actions()[0];
    let last = sys.actions().last().expect("systems have actions");
    vec![
        (
            format!("WF({})", first.name()),
            LiveTarget::fair(Fairness::weak(
                first.action_expr(&frame),
                first.touched().collect(),
            )),
        ),
        (
            format!("SF({})", last.name()),
            LiveTarget::fair(Fairness::strong(
                last.action_expr(&frame),
                last.touched().collect(),
            )),
        ),
        (
            format!("eventually not-{}-enabled", first.name()),
            LiveTarget::Eventually(first.guard().clone().not()),
        ),
    ]
}

fn assert_identical(ctx: &str, seq: &Verdict, par: &Verdict) {
    match (seq, par) {
        (Verdict::Holds, Verdict::Holds) => {}
        (Verdict::Violated(a), Verdict::Violated(b)) => {
            assert_eq!(a.reason(), b.reason(), "{ctx}: reason diverges");
            assert_eq!(a.states(), b.states(), "{ctx}: lasso states diverge");
            assert_eq!(a.actions(), b.actions(), "{ctx}: lasso actions diverge");
            assert_eq!(a.loop_start(), b.loop_start(), "{ctx}: loop start diverges");
        }
        _ => panic!("{ctx}: verdicts diverge"),
    }
}

/// Best-of-`iters` timing of one closure.
fn time_best<R>(iters: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best: Option<Duration> = None;
    let mut out = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        if best.is_none_or(|b| dt < b) {
            best = Some(dt);
        }
        out = Some(r);
    }
    (best.unwrap(), out.unwrap())
}

struct TargetRow {
    name: String,
    seq: Duration,
    par: Duration,
    holds: bool,
}

/// Times every target on one graph; returns the rows plus the summed
/// seq/par times (the per-scenario speedup numerator/denominator).
fn bench_scenario(
    name: &str,
    sys: &System,
    iters: usize,
    workers: usize,
) -> (Vec<TargetRow>, Duration, Duration, usize) {
    let graph = explore(sys, &ExploreOptions::default()).expect("explores");
    let opts = LivenessOptions::default().threads(workers);
    let mut rows = Vec::new();
    let (mut seq_total, mut par_total) = (Duration::ZERO, Duration::ZERO);
    for (tname, target) in targets(sys) {
        let (seq_t, seq_v) =
            time_best(iters, || check_liveness(sys, &graph, &target).expect("seq"));
        let (par_t, par_run) = time_best(iters, || {
            check_liveness_governed_with(sys, &graph, &target, &Budget::default(), &opts)
                .expect("par")
        });
        assert!(par_run.outcome.is_complete(), "{name}/{tname}: must complete");
        let par_v = par_run.verdict.expect("complete runs carry a verdict");
        assert_identical(&format!("{name}/{tname}"), &seq_v, &par_v);
        println!(
            "| {name} | {tname} | {} | {} | {} | {:.2}x |",
            graph.len(),
            ms(seq_t),
            ms(par_t),
            seq_t.as_secs_f64() / par_t.as_secs_f64().max(1e-9),
        );
        seq_total += seq_t;
        par_total += par_t;
        rows.push(TargetRow {
            name: tname,
            seq: seq_t,
            par: par_t,
            holds: seq_v.holds(),
        });
    }
    (rows, seq_total, par_total, graph.len())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 1 } else { 3 };
    let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = std::env::var("OPENTLA_EXPLORE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(hardware)
        .max(1)
        .max(2); // one parallel worker is just the sequential engine

    println!(
        "# bench_liveness ({} mode, {iters} iteration(s), {workers} worker(s), {hardware} hardware thread(s))\n",
        if smoke { "smoke" } else { "full" }
    );
    println!("| scenario | target | states | seq | par | speedup |");
    println!("|---|---|---|---|---|---|");

    let ks: &[usize] = if smoke { &[2, 3] } else { &[2, 3, 4] };
    let mut scenario_json = Vec::new();
    for &k in ks {
        let name = format!("chain{k}");
        let sys = chain(k);
        let (rows, seq_total, par_total, states) =
            bench_scenario(&name, &sys, iters, workers);
        let target_json: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "        {{ \"target\": \"{}\", \"seq_ms\": {:.3}, \"par_ms\": {:.3}, \"holds\": {} }}",
                    r.name,
                    r.seq.as_secs_f64() * 1e3,
                    r.par.as_secs_f64() * 1e3,
                    r.holds
                )
            })
            .collect();
        scenario_json.push(format!(
            "    {{\n      \"name\": \"{name}\",\n      \"states\": {states},\n      \"speedup\": {:.3},\n      \"targets\": [\n{}\n      ]\n    }}",
            seq_total.as_secs_f64() / par_total.as_secs_f64().max(1e-9),
            target_json.join(",\n")
        ));
    }

    // The gate: chain4, measured in both modes, asserted only with
    // real parallel hardware underneath.
    let gate_sys = chain(4);
    let (_, gate_seq, gate_par, gate_states) =
        bench_scenario("chain4-gate", &gate_sys, iters, workers);
    let speedup = gate_seq.as_secs_f64() / gate_par.as_secs_f64().max(1e-9);
    let asserted = hardware >= 2;
    println!(
        "\nchain4 gate: {gate_states} states, seq {} vs par {} = {speedup:.2}x ({})",
        ms(gate_seq),
        ms(gate_par),
        if asserted { "asserted >= 1.5x" } else { "recorded only: single hardware thread" }
    );
    if asserted {
        assert!(
            speedup >= 1.5,
            "chain4 liveness gate: parallel engine must be >= 1.5x sequential \
             with {hardware} hardware threads (got {speedup:.2}x)"
        );
    }

    let json = format!(
        "{{\n  \"benchmark\": \"liveness\",\n  \"smoke\": {smoke},\n  \"iterations\": {iters},\n  \"workers\": {workers},\n  \"hardware_threads\": {hardware},\n  \"engines\": {{\n    \"seq\": \"sequential fair-cycle engine: SCC decomposition + per-component WF/SF satisfiability\",\n    \"par\": \"parallel engine: shared SCC pass, work-stealing component claims, deterministic tie-breaking\"\n  }},\n  \"gate\": {{\n    \"scenario\": \"chain4\",\n    \"states\": {gate_states},\n    \"seq_ms\": {:.3},\n    \"par_ms\": {:.3},\n    \"speedup\": {speedup:.3},\n    \"threshold\": 1.5,\n    \"asserted\": {asserted}\n  }},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        gate_seq.as_secs_f64() * 1e3,
        gate_par.as_secs_f64() * 1e3,
        scenario_json.join(",\n")
    );
    let path = "BENCH_liveness.json";
    std::fs::write(path, &json).expect("write BENCH_liveness.json");
    println!("\nwrote {path}");
}
