//! The traced run's split of exploration time: replays the compiled
//! stepper over an explored graph, once bare and once with the
//! fingerprint update the explorer makes for every transition.

use opentla_check::{CompiledSystem, EvalScratch, StateGraph, System};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

/// Median seconds of the two replays.
#[derive(Clone, Copy, Debug)]
pub struct Replay {
    /// `CompiledSystem::for_each_successor` over every reachable state.
    pub successors_s: f64,
    /// Extra time for `State::fingerprint_with` on every transition.
    pub fingerprint_s: f64,
    /// Transitions visited per replay (must equal the graph's edges).
    pub transitions: usize,
}

/// Replays `graph` in alternating pairs (bare, then with
/// fingerprints) until at least `min_pairs` pairs and `window` seconds
/// are done, and reports the median bare pass and the median of the
/// per-pair differences.
pub fn replay(system: &System, graph: &StateGraph, min_pairs: usize, window: f64) -> Replay {
    let compiled = CompiledSystem::compile(system);
    let fps: Vec<u64> = graph.states().iter().map(|s| s.fingerprint()).collect();
    let mut scratch = EvalScratch::new();
    let mut pass = |fingerprint: bool| -> (f64, usize) {
        let start = Instant::now();
        let mut transitions = 0usize;
        let mut acc = 0u64;
        for (s, &fp) in graph.states().iter().zip(&fps) {
            compiled
                .for_each_successor(s, &mut scratch, |action, assignments| {
                    transitions += 1;
                    if fingerprint {
                        acc ^= s.fingerprint_with(fp, assignments);
                    } else {
                        black_box((action, assignments));
                    }
                    ControlFlow::<()>::Continue(())
                })
                .expect("the explored system steps without error");
        }
        black_box(acc);
        (start.elapsed().as_secs_f64(), transitions)
    };
    let start = Instant::now();
    let mut bare = Vec::new();
    let mut extra = Vec::new();
    let mut transitions = 0;
    while bare.len() < min_pairs.max(1) || start.elapsed().as_secs_f64() < window {
        let (t, n) = pass(false);
        transitions = n;
        extra.push(pass(true).0 - t);
        bare.push(t);
    }
    Replay {
        successors_s: crate::median(&bare),
        fingerprint_s: crate::median(&extra),
        transitions,
    }
}
