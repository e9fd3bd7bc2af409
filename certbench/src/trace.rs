//! Span recording for the traced run.
//!
//! A [`Tracer`] is both the benchmark's own span stack (it wraps every
//! public call the benchmark makes) and an engine [`Recorder`]: handed
//! to the engines through [`Budget::with_recorder`](opentla_check::Budget::with_recorder),
//! it turns the `run_start`/`run_end` pair of an exploration and the
//! `phase_enter`/`phase_exit` events of exploration, simulation,
//! liveness and composition into spans. Every span records the span
//! that enclosed it, so a layer's self time is its duration minus the
//! part of it that its children cover. Spans stay in memory; the
//! caller reads them when the traced verdict is done.

use opentla_check::obs::{Event, Phase, Recorder, RunReport};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `"check.simulate"`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the epoch.
    pub start: u64,
    /// End, in nanoseconds since the epoch (equal to `start` while the
    /// span is still open).
    pub end: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Event counts taken at the same boundaries as the spans.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Every event the engines emitted.
    pub events: u64,
    /// `check` events of kind `obligation` (one per certificate
    /// obligation).
    pub obligations: u64,
    /// `worker_level` events (one per worker per parallel BFS level).
    pub worker_levels: u64,
    /// `liveness_worker` events (one per parallel liveness worker).
    pub liveness_workers: u64,
    /// `spill` events of the bounded-memory engines.
    pub spills: u64,
    /// Bytes written by those spills.
    pub spilled_bytes: u64,
    /// Segment-cache reads answered from memory.
    pub cache_hits: u64,
    /// Segment-cache reads that went to disk.
    pub cache_misses: u64,
    /// Segments evicted from the cache.
    pub evictions: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: Counts,
    reports: Vec<RunReport>,
    /// Set when an exit did not match the innermost open span.
    malformed: bool,
}

/// An in-memory span and event recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no thread panics while holding the tracer")
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&self, name: &'static str) {
        let start = self.now();
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let id = inner.spans.len();
        inner.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        inner.stack.push(id);
    }

    /// Closes the innermost open span, which must be named `name`.
    pub fn exit(&self, name: &'static str) {
        let end = self.now();
        let mut inner = self.lock();
        match inner.stack.pop() {
            Some(id) if inner.spans[id].name == name => inner.spans[id].end = end,
            _ => inner.malformed = true,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit(name);
        r
    }

    /// The spans recorded so far, or `None` if they do not nest (an
    /// exit that did not match, or a span still open).
    pub fn spans(&self) -> Option<Vec<Span>> {
        let inner = self.lock();
        (!inner.malformed && inner.stack.is_empty()).then(|| inner.spans.clone())
    }

    /// The event counts recorded so far.
    pub fn counts(&self) -> Counts {
        self.lock().counts.clone()
    }

    /// The run reports of every exploration recorded so far.
    pub fn reports(&self) -> Vec<RunReport> {
        self.lock().reports.clone()
    }
}

/// The span name an engine phase is recorded under.
pub fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::ExploreInit => "check.explore.init",
        Phase::ExploreExpand => "check.explore.expand",
        Phase::ExploreRenumber => "check.explore.renumber",
        Phase::Liveness => "check.liveness",
        Phase::Simulation => "check.simulate",
        Phase::AgMonitor => "core.ag_monitor",
        Phase::Compose => "core.compose",
        Phase::Suite => "core.suite",
    }
}

/// The span an exploration run (`run_start` to `run_end`) is recorded
/// under.
pub const EXPLORE_SPAN: &str = "check.explore";

impl Recorder for Tracer {
    fn record(&self, event: &Event<'_>) {
        match event {
            Event::RunStart { .. } => self.enter(EXPLORE_SPAN),
            Event::RunEnd { report } => {
                self.exit(EXPLORE_SPAN);
                self.lock().reports.push((*report).clone());
            }
            Event::PhaseEnter { phase } => self.enter(phase_span(*phase)),
            Event::PhaseExit { phase } => self.exit(phase_span(*phase)),
            _ => {}
        }
        let mut inner = self.lock();
        let c = &mut inner.counts;
        c.events += 1;
        match event {
            Event::Check {
                kind: "obligation", ..
            } => c.obligations += 1,
            Event::WorkerLevel { .. } => c.worker_levels += 1,
            Event::LivenessWorker { .. } => c.liveness_workers += 1,
            Event::Spill { bytes, .. } => {
                c.spills += 1;
                c.spilled_bytes += bytes;
            }
            Event::CacheStats {
                hits,
                misses,
                evictions,
                ..
            } => {
                c.cache_hits += hits;
                c.cache_misses += misses;
                c.evictions += evictions;
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Span arithmetic
// ---------------------------------------------------------------------

/// Nanoseconds of `spans[id]` covered by its direct children: the
/// union of the children's intervals, clipped to the parent's.
pub fn covered_nanos(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut total = 0;
    let mut reach = parent.start;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Self time of `spans[id]`: its duration minus what its children
/// cover. Never negative.
pub fn self_nanos(spans: &[Span], id: usize) -> u64 {
    spans[id].nanos().saturating_sub(covered_nanos(spans, id))
}

/// Total duration of every span named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    secs(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .sum(),
    )
}

/// Total self time of every span named `name`, in seconds.
pub fn self_s(spans: &[Span], name: &str) -> f64 {
    secs(
        (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .map(|i| self_nanos(spans, i))
            .sum(),
    )
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// `total` minus the sum of `parts`, floored at zero: the time a
/// measured whole leaves to everything its measured parts do not
/// name.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    (total - parts.iter().sum::<f64>()).max(0.0)
}

/// Nanoseconds as seconds.
pub fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new();
        t.span("a", || {
            t.span("b", || t.span("c", || ()));
            t.span("d", || ());
        });
        let spans = t.spans().expect("well nested");
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [("a", None), ("b", Some(0)), ("c", Some(1)), ("d", Some(0))]
        );
        for s in &spans {
            assert!(s.start <= s.end);
            if let Some(p) = s.parent {
                assert!(spans[p].start <= s.start && s.end <= spans[p].end);
            }
        }
    }

    #[test]
    fn mismatched_or_open_spans_are_reported() {
        let t = Tracer::new();
        t.enter("a");
        t.enter("b");
        t.exit("a");
        t.exit("b");
        assert_eq!(t.spans(), None);

        let open = Tracer::new();
        open.enter("a");
        assert_eq!(open.spans(), None);
    }

    #[test]
    fn engine_events_become_spans() {
        let t = Tracer::new();
        t.span("bench", || {
            t.record(&Event::RunStart {
                engine: "explore_sequential",
                threads: 1,
                mode: "fingerprint",
            });
            t.record(&Event::PhaseEnter {
                phase: Phase::ExploreExpand,
            });
            t.record(&Event::PhaseExit {
                phase: Phase::ExploreExpand,
            });
            let report = RunReport {
                schema_version: 1,
                engine: "explore_sequential".into(),
                threads: 1,
                mode: "fingerprint".into(),
                states: 3,
                transitions: 2,
                depth: 2,
                deadlocks: 1,
                outcome: "complete".into(),
                complete: true,
                duration_nanos: 0,
            };
            t.record(&Event::RunEnd { report: &report });
            t.record(&Event::Spill {
                tier: "arena",
                seq: 0,
                records: 1,
                bytes: 10,
                total_spilled_bytes: 10,
            });
        });
        let spans = t.spans().expect("well nested");
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("bench", None),
                (EXPLORE_SPAN, Some(0)),
                ("check.explore.expand", Some(1))
            ]
        );
        let c = t.counts();
        assert_eq!((c.events, c.spills, c.spilled_bytes), (5, 1, 10));
        assert_eq!(t.reports()[0].states, 3);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 90),
            span("a.x", Some(1), 12, 20),
        ];
        assert_eq!(covered_nanos(&spans, 0), 60);
        assert_eq!(self_nanos(&spans, 0), 40);
        assert_eq!(self_nanos(&spans, 1), 12);
        assert_eq!(self_nanos(&spans, 3), 8);
        // Self times of a tree sum to the root's duration.
        let sum: u64 = (0..spans.len()).map(|i| self_nanos(&spans, i)).sum();
        assert_eq!(sum, spans[0].nanos());
        assert!((total_s(&spans, "a") + total_s(&spans, "b") - 60e-9).abs() < 1e-18);
        assert_eq!(count(&spans, "a"), 1);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        // Children of one parent can overlap when they come from
        // different threads; a child can overhang a parent by clock
        // skew. Coverage is the union, clipped to the parent.
        let spans = [
            span("root", None, 100, 200),
            span("a", Some(0), 90, 150),
            span("b", Some(0), 120, 160),
            span("c", Some(0), 190, 260),
        ];
        assert_eq!(covered_nanos(&spans, 0), 60 + 10);
        assert_eq!(self_nanos(&spans, 0), 30);
    }

    #[test]
    fn self_time_and_residual_are_never_negative() {
        let spans = [span("root", None, 0, 10), span("a", Some(0), 0, 10)];
        assert_eq!(self_nanos(&spans, 0), 0);
        let inverted = [span("root", None, 10, 5)];
        assert_eq!(self_nanos(&inverted, 0), 0);
        assert_eq!(residual(1.0, &[0.25, 0.5]), 0.25);
        assert_eq!(residual(1.0, &[0.75, 0.5]), 0.0);
        assert_eq!(residual(0.0, &[]), 0.0);
    }
}
