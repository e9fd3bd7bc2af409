//! Golden-report test for the observability layer: real scenarios
//! (the alternating-bit protocol and a two-queue chain) explored under
//! a [`JsonlRecorder`], with every emitted line parsed and validated
//! against the schema — phase nesting well-formed, timestamps
//! monotonic, final progress snapshot equal to the run report — and
//! the stream's *shape* (event kinds, field sets, run ordering)
//! snapshotted. Timings are never asserted, so the test is
//! deterministic.

use opentla_check::{
    explore_governed_with, obs::validate_stream, obs::StreamSummary, Budget, ExploreOptions,
    JsonlRecorder, RecorderHandle, System, VisitedMode,
};
use opentla_integration_tests::SharedBuf;
use opentla_queue::{FairnessStyle, QueueChain};
use opentla_scenarios::AlternatingBit;
use std::sync::{Arc, Mutex};

/// The engine matrix every scenario is recorded under: sequential
/// fingerprinted, sequential exact, and 4-worker parallel.
const CONFIGS: [(VisitedMode, usize); 3] = [
    (VisitedMode::Fingerprint, 1),
    (VisitedMode::Exact, 1),
    (VisitedMode::Fingerprint, 4),
];

/// Explores `sys` under all of [`CONFIGS`] into one JSONL stream and
/// returns the raw text plus its validated summary.
fn recorded_stream(sys: &System) -> (String, StreamSummary) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::new(JsonlRecorder::from_writer(SharedBuf(buf.clone())));
    let handle = RecorderHandle::new(recorder.clone());
    for (mode, threads) in CONFIGS {
        let budget = Budget::default().with_recorder(handle.clone());
        let opts = ExploreOptions {
            mode,
            threads: Some(threads),
            ..ExploreOptions::default()
        };
        let run = explore_governed_with(sys, &budget, &opts).expect("explores");
        assert!(run.outcome.is_complete());
    }
    recorder.flush();
    let text = String::from_utf8(buf.lock().unwrap().clone()).expect("utf-8 stream");
    let summary = validate_stream(&text)
        .unwrap_or_else(|e| panic!("stream fails schema validation: {e}\n{text}"));
    (text, summary)
}

fn scenarios() -> Vec<(&'static str, System)> {
    vec![
        (
            "abp",
            AlternatingBit::new(2).complete_system().expect("abp builds"),
        ),
        (
            "chain2",
            QueueChain::new(2, 1, 2, FairnessStyle::Joint)
                .complete_system()
                .expect("chain2 builds"),
        ),
    ]
}

/// Schema validity plus cross-engine agreement: one run report per
/// engine config, all complete, all with identical state/transition/
/// depth totals (the acceptance criterion's byte-identical totals).
#[test]
fn golden_streams_validate_and_engines_agree() {
    for (name, sys) in scenarios() {
        let (_text, summary) = recorded_stream(&sys);
        assert_eq!(summary.runs.len(), CONFIGS.len(), "{name}: one report per engine");
        let first = &summary.runs[0];
        assert!(first.states > 0 && first.transitions > 0, "{name}: empty run");
        for run in &summary.runs {
            assert!(run.complete, "{name}: {} did not complete", run.engine);
            let (a, b) = (
                format!("{}/{}/{}", run.states, run.transitions, run.depth),
                format!("{}/{}/{}", first.states, first.transitions, first.depth),
            );
            assert_eq!(a, b, "{name}: {} totals diverge", run.engine);
        }
        // The engine labels and modes record what actually ran.
        assert_eq!(summary.runs[0].engine, "explore_sequential");
        assert_eq!(summary.runs[0].mode, "fingerprint");
        assert_eq!(summary.runs[1].engine, "explore_sequential");
        assert_eq!(summary.runs[1].mode, "exact");
        assert_eq!(summary.runs[2].engine, "explore_parallel");
        assert_eq!(summary.runs[2].threads, 4, "{name}");
    }
}

/// The stream's shape — which event kinds appear and which fields each
/// kind carries — is golden. Timings, counts-of-progress-events, and
/// other run-to-run variation are deliberately not asserted.
#[test]
fn golden_stream_shape() {
    let (_text, summary) = recorded_stream(&scenarios().remove(0).1);

    let kinds: Vec<&str> = summary.kinds.keys().map(String::as_str).collect();
    assert_eq!(
        kinds,
        [
            "phase_enter",
            "phase_exit",
            "progress",
            "run_end",
            "run_start",
            "worker_level"
        ],
        "event-kind set changed — update the golden shape deliberately"
    );

    let fields = |kind: &str| -> Vec<&str> {
        summary.fields[kind].iter().map(String::as_str).collect()
    };
    assert_eq!(fields("run_start"), ["v", "t", "ev", "engine", "threads", "mode"]);
    assert_eq!(fields("run_end"), ["v", "t", "ev", "report"]);
    assert_eq!(fields("phase_enter"), ["v", "t", "ev", "phase"]);
    assert_eq!(fields("phase_exit"), ["v", "t", "ev", "phase"]);
    assert_eq!(
        fields("worker_level"),
        ["v", "t", "ev", "worker", "level", "claimed", "inserted"]
    );
    // Progress fields: the core four always, the optional
    // frontier/level context on the per-level snapshots.
    let progress = fields("progress");
    for required in ["v", "t", "ev", "states", "transitions", "elapsed_nanos", "states_per_sec"] {
        assert!(progress.contains(&required), "progress missing {required}: {progress:?}");
    }

    // Phase nesting: exploration phases never nest inside each other.
    assert_eq!(summary.max_phase_depth, 1);
}

/// Event ordering within each run is golden: run_start first, then the
/// exploration phases in engine order, a final exact progress
/// snapshot, and run_end last.
#[test]
fn golden_event_ordering() {
    let (text, _summary) = recorded_stream(&scenarios().remove(1).1);
    let kinds_in_order: Vec<String> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let obj = opentla_check::obs::Json::parse(l).expect("valid line");
            obj.get("ev").and_then(|j| j.as_str()).expect("ev field").to_string()
        })
        .collect();
    assert_eq!(kinds_in_order.first().map(String::as_str), Some("run_start"));
    assert_eq!(kinds_in_order.last().map(String::as_str), Some("run_end"));
    // Each run_end is immediately preceded by the final exact progress
    // snapshot explore emits from the finished graph's statistics.
    for (i, kind) in kinds_in_order.iter().enumerate() {
        if kind == "run_end" {
            assert_eq!(
                kinds_in_order[i - 1],
                "progress",
                "run_end at event {i} not preceded by the final snapshot"
            );
        }
    }
    // Runs are sequential: a run_start only ever follows a run_end (or
    // opens the stream).
    for (i, kind) in kinds_in_order.iter().enumerate() {
        if kind == "run_start" && i > 0 {
            assert_eq!(kinds_in_order[i - 1], "run_end", "run_start at event {i} nested");
        }
    }
}
