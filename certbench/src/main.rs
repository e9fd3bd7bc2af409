//! The certificate benchmark: time to a Composition Theorem
//! certificate, or to a model-checking verdict, checked against its
//! known answer and split by layer.
//!
//! ```text
//! certbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! With `--trace 0` one process measures one workload with tracing
//! off and prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced verdicts and prints the per-layer
//! metrics. The last line of standard output is one JSON object;
//! lines before it starting with `#` describe the run. `--spans`
//! writes the traced verdicts' spans as JSON lines to that path.
//! Workloads and their predictions are documented in `workload.rs`.

mod procfs;
mod replay;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workload::{Prepared, Workload};

/// End-to-end metrics (`--trace 0`), with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("verified_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with their units.
const PER_LAYER: [(&str, &str); 30] = [
    ("core.compose.prelude_s", "s"),
    ("core.compose.self_s", "s"),
    ("core.obligations", "count"),
    ("check.explore.s", "s"),
    ("check.explore.expand_s", "s"),
    ("check.explore.renumber_s", "s"),
    ("check.explore.states", "count"),
    ("check.explore.transitions", "count"),
    ("check.explore.worker_levels", "count"),
    ("check.explore.states_per_s", "1/s"),
    ("check.compiled.successors_s", "s"),
    ("kernel.state.fingerprint_s", "s"),
    ("check.explore.residual_s", "s"),
    ("check.simulate.s", "s"),
    ("check.simulate.calls", "count"),
    ("check.simulate.mapped_s", "s"),
    ("check.simulate.unmapped_s", "s"),
    ("check.liveness.s", "s"),
    ("check.liveness.calls", "count"),
    ("check.liveness.worker_events", "count"),
    ("check.invariant.holds_s", "s"),
    ("check.invariant.refute_s", "s"),
    ("kernel.store.spills", "count"),
    ("kernel.store.spilled_bytes", "bytes"),
    ("kernel.store.cache_hits", "count"),
    ("kernel.store.cache_misses", "count"),
    ("kernel.store.evictions", "count"),
    ("obs.events", "count"),
    ("obs.trace_overhead_s", "s"),
    ("obs.unaccounted_s", "s"),
];

/// Set-up is sampled in batches spread over the run, so that its
/// median, like the verdicts', averages over the host's slower and
/// faster spells: a first batch of at least `SETUP_FIRST` before
/// anything else, then one of at least `SETUP_BATCH` after every timed
/// verdict.
const SETUP_FIRST: Duration = Duration::from_millis(300);
const SETUP_BATCH: Duration = Duration::from_millis(100);

/// A run measures at least this many verdicts (pairs, when traced),
/// whatever `--seconds` says.
const MIN_VERDICTS: usize = 3;

/// Replays of the explored graph per traced run: at least this many
/// pairs, for at least this many seconds.
const REPLAY_MIN_PAIRS: usize = 3;
const REPLAY_WINDOW_S: f64 = 3.0;

/// Host probes timed at each end of a run.
const HOST_PROBES: usize = 5;

/// Wall-clock cap on one run's measuring loop, so a slowed-down
/// program still exits within the three minutes a run is allowed.
const LOOP_CAP: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// SplitMix64: the seeded choices of a run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Verdict bookkeeping shared by both kinds of run.
struct Session {
    workload: Workload,
    hw: usize,
    prepared: Prepared,
    rng: Rng,
    attempted: usize,
    failed: usize,
    engines: Vec<String>,
}

impl Session {
    /// Runs one verdict, untraced or traced, and records whether it
    /// matched the known answer. A panic counts as a failure.
    fn attempt(&mut self, tracer: Option<&Arc<Tracer>>) -> bool {
        let refute_first = self.rng.next() & 1 == 1;
        let (w, prepared) = (self.workload, &self.prepared);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.verdict(prepared, tracer, refute_first)
        }))
        .unwrap_or_else(|_| Err("the verdict panicked".into()))
        .and_then(|()| match tracer {
            Some(t) => self.check_routing(t),
            None => Ok(()),
        });
        self.attempted += 1;
        if let Err(e) = &result {
            self.failed += 1;
            eprintln!("{}: verdict failed: {e}", w.name());
        }
        result.is_ok()
    }

    /// Checks that every exploration of a traced verdict ran on the
    /// workload's engine with its worker count, and notes the engines.
    fn check_routing(&mut self, tracer: &Tracer) -> Result<(), String> {
        let reports = tracer.reports();
        if reports.is_empty() {
            return Err("no exploration run report".into());
        }
        let (engine, workers) = (
            self.workload.expected_engine(self.hw),
            self.workload.workers(self.hw),
        );
        for r in reports {
            if r.engine != engine || r.threads != workers || !r.complete {
                return Err(format!(
                    "explored by {} with {} thread(s) (complete={}), expected {engine} with {workers}",
                    r.engine, r.threads, r.complete
                ));
            }
            if !self.engines.contains(&r.engine) {
                self.engines.push(r.engine);
            }
        }
        Ok(())
    }

    /// A traced verdict on a fresh tracer, returned if it succeeded
    /// and its spans nest.
    fn traced(&mut self) -> Option<Arc<Tracer>> {
        let tracer = Arc::new(Tracer::new());
        procfs::release_free_memory();
        if !self.attempt(Some(&tracer)) {
            return None;
        }
        if tracer.spans().is_none() {
            self.failed += 1;
            eprintln!("{}: traced spans do not nest", self.workload.name());
            return None;
        }
        Some(tracer)
    }

    /// One timed untraced verdict: its wall time, and if it succeeded
    /// its wall seconds, CPU seconds and peak resident MiB.
    fn timed(&mut self) -> (Duration, Option<[f64; 3]>) {
        procfs::release_free_memory();
        let before = procfs::reset_peak_rss().and_then(|()| procfs::cpu_s());
        let start = Instant::now();
        let ok = self.attempt(None);
        let wall = start.elapsed();
        if !ok {
            return (wall, None);
        }
        let after = procfs::cpu_s().and_then(|c1| Ok((c1, procfs::peak_rss_mib()?)));
        match (before, after) {
            (Ok(c0), Ok((c1, rss))) => (wall, Some([wall.as_secs_f64(), c1 - c0, rss])),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("cannot read /proc/self: {e}");
                self.failed += 1;
                (wall, None)
            }
        }
    }
}

/// Builds the workload's specifications repeatedly for at least
/// `window` (and at least twice), appending each build's seconds to
/// `samples`; returns the last build.
fn time_setup(w: Workload, window: Duration, samples: &mut Vec<f64>) -> Prepared {
    let start = Instant::now();
    let mut builds = 0;
    loop {
        let t = Instant::now();
        let prepared = black_box(w.setup());
        samples.push(t.elapsed().as_secs_f64());
        builds += 1;
        if builds >= 2 && start.elapsed() >= window {
            return prepared;
        }
    }
}

/// Whether the measuring loop should start another verdict (or pair):
/// until `MIN_VERDICTS` are attempted, then while one more (at the median
/// pace so far) fits in the window.
fn another(paces: &[f64], start: Instant, window: Duration) -> bool {
    let elapsed = start.elapsed();
    if elapsed >= LOOP_CAP {
        return false;
    }
    paces.len() < MIN_VERDICTS || elapsed.as_secs_f64() + median(paces) <= window.as_secs_f64()
}

/// Seconds of two fixed computations that run none of the program's
/// code: an arithmetic loop (the processor), then random updates over a
/// 32 MiB table (the memory system). Timed at the start and the end of
/// every run, they tell a change in the host's speed between runs from a
/// change in the program.
fn host_probe() -> [f64; 2] {
    const WORDS: usize = 1 << 22;
    let mut rng = Rng(WORDS as u64);
    let start = Instant::now();
    let mut acc = 0;
    for _ in 0..WORDS * 4 {
        acc ^= rng.next();
    }
    black_box(acc);
    let cpu = start.elapsed().as_secs_f64();
    let mut table = vec![1u64; WORDS];
    let start = Instant::now();
    for _ in 0..WORDS / 2 {
        let r = rng.next();
        let i = r as usize & (WORDS - 1);
        table[i] = table[i].wrapping_add(r);
    }
    black_box(&table);
    [cpu, start.elapsed().as_secs_f64()]
}

/// The medians of `HOST_PROBES` host probes, as a `#` note field.
fn host_probe_note() -> String {
    let probes: Vec<[f64; 2]> = (0..HOST_PROBES).map(|_| host_probe()).collect();
    let med = |k: usize| median(&probes.iter().map(|p| p[k]).collect::<Vec<_>>());
    format!("cpu={} mem={}", med(0), med(1))
}

/// Files a run must not leave behind: observability streams and
/// checkpoints in the working directory, spill directories of this
/// process in the temporary directory.
fn stray_files() -> Vec<PathBuf> {
    let spill = format!("opentla-spill-{}-", std::process::id());
    let mut out = entries(Path::new("."), |n| {
        n.starts_with("OBS_") || n.starts_with("CKPT_")
    });
    out.extend(entries(&std::env::temp_dir(), |n| n.starts_with(&spill)));
    out
}

/// The entries of `dir` whose names satisfy `keep`.
fn entries(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default()
}

/// The per-layer metrics of one traced verdict.
fn layer_metrics(tracer: &Tracer, spans: &[Span]) -> BTreeMap<&'static str, f64> {
    use trace::{count, self_s, total_s};
    let counts = tracer.counts();
    let reports = tracer.reports();
    let states: usize = reports.iter().map(|r| r.states).sum();
    let transitions: usize = reports.iter().map(|r| r.transitions).sum();
    // Within a certificate the refinement-mapped H2a simulation runs
    // after the H1 simulations (the workload checks that order).
    let mut mapped = 0;
    for (c, _) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "core.compose")
    {
        if let Some(last) = spans
            .iter()
            .filter(|s| s.parent == Some(c) && s.name == "check.simulate")
            .max_by_key(|s| s.start)
        {
            mapped += last.nanos();
        }
    }
    let simulate = total_s(spans, "check.simulate");
    let mapped = trace::secs(mapped);
    let explore = total_s(spans, trace::EXPLORE_SPAN);
    let mut m = BTreeMap::new();
    let layers = [
        (
            "core.compose.prelude_s",
            self_s(spans, "bench.prove_composition"),
        ),
        ("core.compose.self_s", self_s(spans, "core.compose")),
        ("check.explore.s", explore),
        ("check.simulate.s", simulate),
        ("check.liveness.s", total_s(spans, "check.liveness")),
        (
            "check.invariant.holds_s",
            total_s(spans, "bench.check_invariant.holds"),
        ),
        (
            "check.invariant.refute_s",
            total_s(spans, "bench.check_invariant.refute"),
        ),
    ];
    let accounted: f64 = layers.iter().map(|(_, v)| v).sum();
    m.extend(layers);
    m.insert(
        "obs.unaccounted_s",
        total_s(spans, "bench.verdict") - accounted,
    );
    m.insert("core.obligations", counts.obligations as f64);
    m.insert(
        "check.explore.expand_s",
        total_s(spans, "check.explore.expand"),
    );
    m.insert(
        "check.explore.renumber_s",
        total_s(spans, "check.explore.renumber"),
    );
    m.insert("check.explore.states", states as f64);
    m.insert("check.explore.transitions", transitions as f64);
    m.insert("check.explore.worker_levels", counts.worker_levels as f64);
    m.insert(
        "check.explore.states_per_s",
        states as f64 / explore.max(1e-9),
    );
    m.insert(
        "check.simulate.calls",
        count(spans, "check.simulate") as f64,
    );
    m.insert("check.simulate.mapped_s", mapped);
    m.insert("check.simulate.unmapped_s", simulate - mapped);
    m.insert(
        "check.liveness.calls",
        count(spans, "check.liveness") as f64,
    );
    m.insert(
        "check.liveness.worker_events",
        counts.liveness_workers as f64,
    );
    m.insert("kernel.store.spills", counts.spills as f64);
    m.insert("kernel.store.spilled_bytes", counts.spilled_bytes as f64);
    m.insert("kernel.store.cache_hits", counts.cache_hits as f64);
    m.insert("kernel.store.cache_misses", counts.cache_misses as f64);
    m.insert("kernel.store.evictions", counts.evictions as f64);
    m.insert("obs.events", counts.events as f64);
    m.insert("bench.verdict_s", total_s(spans, "bench.verdict"));
    m
}

fn spans_jsonl(verdict: usize, spans: &[Span]) -> String {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"verdict\":{verdict},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start, s.end
            )
        })
        .collect()
}

/// What a run prints.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
    notes: Vec<String>,
}

fn timed_run(s: &mut Session, args: &Args, setup: &mut Vec<f64>) -> Report {
    let window = Duration::from_secs(args.seconds);
    let mut paces = Vec::new();
    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while another(&paces, start, window) {
        let (wall, ok) = s.timed();
        paces.push(wall.as_secs_f64());
        if let Some([w, c, r]) = ok {
            walls.push(w);
            cpus.push(c);
            rss.push(r);
        }
        time_setup(s.workload, SETUP_BATCH, setup);
    }
    let notes = vec![
        format!("verdict_s samples={} values={walls:?}", walls.len()),
        format!("cpu_s values={cpus:?}"),
        format!("peak_rss_mib values={rss:?}"),
    ];
    // A failed verdict also makes the run incorrect (`correct` is
    // false), so on a correct run this reads 1; failures show through
    // `correct` and the `failed` count.
    let verified = (s.attempted - s.failed) as f64 / s.attempted as f64;
    let values = [
        median(setup),
        median(&walls),
        median(&cpus),
        median(&rss),
        verified,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    Report {
        correct: !walls.is_empty(),
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        notes,
    }
}

fn traced_run(s: &mut Session, args: &Args) -> Report {
    let window = Duration::from_secs(args.seconds);
    let mut paces = Vec::new();
    let mut untraced = Vec::new();
    let mut per_verdict: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut spans_out = String::new();
    let start = Instant::now();
    // Traced minus untraced verdict_s of each pair: the two run back to
    // back, so a change in the host's speed mostly cancels.
    let mut overheads = Vec::new();
    while another(&paces, start, window) {
        let pair = Instant::now();
        let wall = s.timed().1.map(|[wall, ..]| wall);
        untraced.extend(wall);
        if let Some(t) = s.traced() {
            let spans = t.spans().expect("checked by Session::traced");
            spans_out.push_str(&spans_jsonl(per_verdict.len(), &spans));
            let m = layer_metrics(&t, &spans);
            overheads.extend(wall.map(|w| m["bench.verdict_s"] - w));
            per_verdict.push(m);
        }
        paces.push(pair.elapsed().as_secs_f64());
    }

    // Split exploration's time: replay the stepper over the graph,
    // explored again outside any timed span.
    let system = s
        .prepared
        .chain
        .complete_system()
        .expect("the chain product builds");
    let graph = opentla_check::explore_governed(&system, &opentla_check::Budget::default())
        .map(|run| run.graph)
        .map_err(|e| e.to_string())
        .and_then(|g| workload::check_graph(&g, s.prepared.expected_graph()).map(|()| g));
    let mut notes = Vec::new();
    let mut correct = !per_verdict.is_empty() && !untraced.is_empty();
    let (successors_s, fingerprint_s) = match graph {
        Ok(graph) => {
            let r = replay::replay(&system, &graph, REPLAY_MIN_PAIRS, REPLAY_WINDOW_S);
            if r.transitions != graph.edge_count() {
                notes.push(format!("replay visited {} transitions", r.transitions));
                correct = false;
            }
            (r.successors_s, r.fingerprint_s)
        }
        Err(e) => {
            notes.push(format!("replay exploration failed: {e}"));
            correct = false;
            (0.0, 0.0)
        }
    };

    let med = |name: &str| median(&per_verdict.iter().map(|m| m[name]).collect::<Vec<_>>());
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "check.compiled.successors_s" => successors_s,
            "kernel.state.fingerprint_s" => fingerprint_s,
            // The replay runs on one thread; a parallel expansion's
            // wall time is not comparable with it, so the residual is
            // reported only for one worker (0 otherwise).
            "check.explore.residual_s" if s.workload.workers(s.hw) == 1 => trace::residual(
                med("check.explore.expand_s"),
                &[successors_s, fingerprint_s],
            ),
            "check.explore.residual_s" => 0.0,
            "obs.trace_overhead_s" => median(&overheads),
            _ => med(name),
        };
        metrics.push((name, unit, value));
    }
    notes.push(format!(
        "traced verdicts={} untraced verdicts={} traced verdict_s={} untraced verdict_s={}",
        per_verdict.len(),
        untraced.len(),
        med("bench.verdict_s"),
        median(&untraced)
    ));
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, spans_out) {
            notes.push(format!("cannot write spans to {}: {e}", path.display()));
            correct = false;
        }
    }
    Report {
        correct,
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        notes,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("certbench: {e}");
            eprintln!(
                "usage: certbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]"
            );
            return ExitCode::from(2);
        }
    };
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    w.pin_environment(hw);
    let strays_before = stray_files();
    let probe_start = host_probe_note();

    let mut setup = Vec::new();
    let prepared = time_setup(w, SETUP_FIRST, &mut setup);
    let mut session = Session {
        workload: w,
        hw,
        prepared,
        rng: Rng(args.seed),
        attempted: 0,
        failed: 0,
        engines: Vec::new(),
    };
    // Warm-up: a traced verdict that proves the routing before any
    // timing starts.
    session.traced();
    let mut report = if args.trace {
        traced_run(&mut session, &args)
    } else {
        timed_run(&mut session, &args, &mut setup)
    };

    let probe_end = host_probe_note();
    let strays: Vec<PathBuf> = stray_files()
        .into_iter()
        .filter(|f| !strays_before.contains(f))
        .collect();
    if !strays.is_empty() {
        report.notes.push(format!("left behind: {strays:?}"));
        report.correct = false;
    }
    if report.metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        report.correct = false;
    }
    let correct = report.correct && report.failed == 0;

    println!(
        "# workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# hardware_threads={hw} workers={} mem_budget_bytes={} engines={}",
        w.workers(hw),
        w.mem_budget().map_or("none".to_string(), |b| b.to_string()),
        session.engines.join(",")
    );
    println!(
        "# setup_s samples={} median={}",
        setup.len(),
        median(&setup)
    );
    println!("# host_probe_s start: {probe_start} end: {probe_end}");
    for note in &report.notes {
        println!("# {note}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names in `BENCHMARK.json`, in order, for `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let body = json
            .split(&format!("\"{section}\""))
            .nth(1)
            .expect("section");
        let body = &body[..body.find(']').expect("section ends")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let v = entry.split(&format!("\"{key}\": \"")).nth(1).expect(key);
                    v[..v.find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_declared_ones() {
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads = include_str!("../../BENCHMARK.json");
        for w in workload::ALL {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn the_parallel_workload_runs_the_parallel_engine_on_one_thread() {
        let w = Workload::CertChain4Par;
        assert_eq!(w.workers(1), 2);
        assert_eq!(w.workers(8), 8);
        assert_eq!(w.expected_engine(1), "explore_parallel");
        assert_eq!(Workload::CertChain4.workers(8), 1);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_loop_runs_a_minimum_then_fits_the_window() {
        let now = Instant::now();
        let paces = [1.0; MIN_VERDICTS];
        assert!(another(&[], now, Duration::ZERO));
        assert!(another(&paces[1..], now, Duration::ZERO));
        assert!(!another(&paces, now, Duration::ZERO));
        assert!(another(&paces, now, Duration::from_secs(5)));
    }

    #[test]
    fn layer_metrics_account_for_a_verdict() {
        let t = Tracer::new();
        let spans = [
            Span {
                name: "bench.verdict",
                parent: None,
                start: 0,
                end: 1000,
            },
            Span {
                name: "bench.prove_composition",
                parent: Some(0),
                start: 10,
                end: 990,
            },
            Span {
                name: "core.compose",
                parent: Some(1),
                start: 100,
                end: 980,
            },
            Span {
                name: trace::EXPLORE_SPAN,
                parent: Some(2),
                start: 110,
                end: 200,
            },
            Span {
                name: "check.simulate",
                parent: Some(2),
                start: 200,
                end: 300,
            },
            Span {
                name: "check.simulate",
                parent: Some(2),
                start: 300,
                end: 600,
            },
            Span {
                name: "check.liveness",
                parent: Some(2),
                start: 600,
                end: 900,
            },
        ];
        let m = layer_metrics(&t, &spans);
        assert!((m["core.compose.prelude_s"] - 100e-9).abs() < 1e-15);
        assert!((m["core.compose.self_s"] - 90e-9).abs() < 1e-15);
        assert!((m["check.simulate.mapped_s"] - 300e-9).abs() < 1e-15);
        assert!((m["check.simulate.unmapped_s"] - 100e-9).abs() < 1e-15);
        assert_eq!(m["check.simulate.calls"], 2.0);
        // Every per-layer metric not computed from the replay comes
        // from the spans.
        let replayed = [
            "check.compiled.successors_s",
            "kernel.state.fingerprint_s",
            "check.explore.residual_s",
            "obs.trace_overhead_s",
        ];
        for (name, _) in PER_LAYER {
            assert!(replayed.contains(&name) || m.contains_key(name), "{name}");
        }
        // verdict self time (10 + 10 ns) is what no layer claims.
        assert!((m["obs.unaccounted_s"] - 20e-9).abs() < 1e-15);
    }
}
