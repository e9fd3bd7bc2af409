//! Budget sweep behind the EXPERIMENTS.md "bounded-memory" tables:
//! explores chain4 with the spill engine at a ladder of memory
//! budgets, asserting byte-identity with the sequential engine at
//! every rung and reporting time, spill events, and spilled bytes —
//! then sweeps the *parallel* bounded-memory engine (the multi-thread
//! route under a budget) over budgets × worker counts, every cell
//! asserted byte-identical too. The 256 MiB rung is large enough that
//! chain4 never seals a segment.
//!
//! Run with `cargo run --release -p opentla-bench --example spill_sweep`.

use opentla_check::{explore_governed_with, obs, Budget, ExploreOptions};
use opentla_check::{JsonlRecorder, RecorderHandle};
use opentla_queue::{FairnessStyle, QueueChain};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let system = QueueChain::new(4, 1, 2, FairnessStyle::Joint)
        .complete_system()
        .expect("chain4 builds");

    // Baseline: sequential fingerprint engine.
    let t0 = Instant::now();
    let base = explore_governed_with(&system, &Budget::unlimited(), &ExploreOptions::default())
        .expect("baseline explores");
    let base_s = t0.elapsed().as_secs_f64();
    println!(
        "seq_fp: {} states / {} transitions in {:.3}s",
        base.graph.len(),
        base.graph.stats().transitions,
        base_s
    );

    for budget in [256usize << 20, 64 << 20, 4 << 20, 1 << 20, 256 << 10] {
        let obs_path = std::env::temp_dir().join("spill-sweep-obs.jsonl");
        let rec = Arc::new(JsonlRecorder::create(&obs_path).expect("obs file"));
        let handle = RecorderHandle::new(rec.clone());
        let opts = ExploreOptions {
            threads: Some(1),
            mem_budget_bytes: Some(budget),
            ..ExploreOptions::default()
        };
        let t = Instant::now();
        let run = explore_governed_with(
            &system,
            &Budget::unlimited().with_recorder(handle),
            &opts,
        )
        .expect("spill run explores");
        let secs = t.elapsed().as_secs_f64();
        rec.flush();
        let text = std::fs::read_to_string(&obs_path).expect("read obs");
        let summary = obs::validate_stream(&text).expect("valid stream");
        let spills = summary.kinds.get("spill").copied().unwrap_or(0);
        // Cumulative spilled bytes = max `total_spilled_bytes` seen in
        // the stream (the Spill event carries a running total).
        let spilled_bytes: u64 = text
            .lines()
            .filter_map(|l| {
                let ix = l.find("\"total_spilled_bytes\":")?;
                let rest = &l[ix + "\"total_spilled_bytes\":".len()..];
                let end = rest.find(|c: char| !c.is_ascii_digit())?;
                rest[..end].parse().ok()
            })
            .max()
            .unwrap_or(0);
        assert_eq!(run.graph.len(), base.graph.len());
        assert_eq!(run.graph.states(), base.graph.states());
        println!(
            "budget={budget:>12} time={:.3}s (x{:.2} vs seq_fp) spill_events={} spilled={:.1} MiB",
            secs,
            secs / base_s,
            spills,
            spilled_bytes as f64 / (1 << 20) as f64,
        );
        let _ = std::fs::remove_file(&obs_path);
    }

    // Parallel bounded memory: budgets × worker counts. Every cell is
    // the same graph — the table only shows where the time goes.
    println!("\npar_spill, budgets x workers:");
    for budget in [256usize << 10, 4 << 20, 256 << 20] {
        for workers in [2usize, 4] {
            let opts = ExploreOptions {
                threads: Some(workers),
                mem_budget_bytes: Some(budget),
                ..ExploreOptions::default()
            };
            let t = Instant::now();
            let run = explore_governed_with(&system, &Budget::unlimited(), &opts)
                .expect("par-spill run explores");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(run.graph.states(), base.graph.states());
            assert_eq!(run.graph.init(), base.graph.init());
            for id in 0..run.graph.len() {
                assert_eq!(run.graph.edges(id), base.graph.edges(id));
            }
            println!(
                "budget={budget:>12} workers={workers} time={:.3}s (x{:.2} vs seq_fp)",
                secs,
                secs / base_s,
            );
        }
    }
}
