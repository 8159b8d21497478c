#![warn(missing_docs)]

//! Structured observability for the qpredict workspace.
//!
//! Three facilities, all std-only and deliberately boring:
//!
//! * **Scoped span timers** — [`span()`] returns a guard that, while
//!   recording is enabled, measures the wall-clock time between its
//!   creation and its drop and folds it into a per-label aggregate
//!   ([`SpanStats`]: call count, total, max, and a log2-bucketed latency
//!   histogram). Spans nest: a thread-local label stack turns a span
//!   opened inside another into the path `outer/inner`, so the report
//!   distinguishes a predictor fit inside a nested forecast from one in
//!   the outer engine.
//! * **Named counters** — [`counter_add`] accumulates monotonic event
//!   counts (cache hits, degradations, injected faults, …) under one
//!   registry so every report carries every tally, instead of only the
//!   ones a particular call path remembered to plumb through.
//! * **A run report** — [`report::RunReport`] serializes the spans,
//!   counters, per-command metrics, and a config fingerprint into one
//!   JSON object ([`json::Json`]), written atomically (tmp + rename).
//!
//! # Recording is off by default and never perturbs behaviour
//!
//! The global toggle ([`set_recording`]) gates every span and counter:
//! when off, the only cost is one relaxed atomic load per call site
//! (under 2% of a warm Smith prediction, a gate in
//! `tests/observability.rs`).
//! Timing data is *never* fed back into any scheduling or prediction
//! decision — `tests/estimation_lock.rs` locks bit-identical outputs
//! with recording on and off.
//!
//! # Threading model
//!
//! The registry is **thread-local**: each thread aggregates its own
//! spans and counters, and [`snapshot`] reads the calling thread's view.
//! This keeps the hot path free of cross-thread synchronization and
//! keeps parallel test binaries from polluting each other's tallies.
//!
//! [`par_map`] is the workspace's one parallel fan-out: the paper's
//! experiment grids and the GA's fitness evaluations all run through
//! it. While recording is on, each worker's spans and counters are
//! merged into the caller's registry when the workers join, nested
//! under the spans the caller has open; with one thread `par_map` runs
//! inline and its items record there directly. Either way a report
//! reads the same whatever the thread count.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub mod json;
mod par;
pub mod report;

pub use par::{default_threads, par_map};

/// Number of log2 latency buckets: bucket `i` counts spans whose
/// duration in nanoseconds `d` satisfies `floor(log2(d)) == i` (bucket 0
/// also holds `d == 0`; the last bucket holds everything ≥ 2^31 ns).
pub const HIST_BUCKETS: usize = 32;

static RECORDING: AtomicBool = AtomicBool::new(false);

/// Is recording currently enabled?
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turn recording on or off, process-wide. Off is the default; the off
/// path costs one relaxed atomic load per span/counter call site.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Aggregate timing statistics for one span label (or nested path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans recorded under this label.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
    /// Log2-bucketed latency histogram; see [`HIST_BUCKETS`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for SpanStats {
    fn default() -> SpanStats {
        SpanStats {
            count: 0,
            total_ns: 0,
            max_ns: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl SpanStats {
    /// Fold in `other`'s spans.
    fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        let idx = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Mean span duration in nanoseconds (0 when no spans recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct Registry {
    /// Labels of the spans currently open on this thread, outermost
    /// first; a span's aggregate key is the `/`-joined stack.
    stack: Vec<&'static str>,
    spans: BTreeMap<String, SpanStats>,
    counters: BTreeMap<&'static str, u64>,
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
}

/// Move the calling thread's aggregates out of its registry.
fn take_registry() -> Registry {
    REGISTRY.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

/// Fold `other`, recorded on another thread, into the calling thread's
/// registry: its span paths nested under the spans open here, its
/// counters added.
fn absorb(other: Registry) {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        let prefix = reg.stack.join("/");
        for (path, stats) in other.spans {
            let path = if prefix.is_empty() {
                path
            } else {
                format!("{prefix}/{path}")
            };
            reg.spans.entry(path).or_default().merge(&stats);
        }
        for (name, value) in other.counters {
            *reg.counters.entry(name).or_insert(0) += value;
        }
    });
}

/// A scoped span guard: created by [`span()`], records on drop.
///
/// Guards must be dropped in the reverse order of creation (let them go
/// out of scope normally) — the nesting path comes from a stack.
#[must_use = "a span guard measures until it is dropped; binding it to _ drops it immediately"]
pub struct SpanGuard {
    /// `None` when recording was off at creation: the drop is free and
    /// nothing was pushed on the label stack.
    start: Option<Instant>,
}

/// Open a span under `label`. While recording is enabled the returned
/// guard measures until drop and aggregates into the thread's registry;
/// while disabled it costs one atomic load and does nothing.
#[inline]
pub fn span(label: &'static str) -> SpanGuard {
    if !recording() {
        return SpanGuard { start: None };
    }
    REGISTRY.with(|r| r.borrow_mut().stack.push(label));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

/// `span!("label")` — macro alias of [`span()`], for symmetry with other
/// instrumentation macros. Bind the result: `let _s = span!("fit");`.
#[macro_export]
macro_rules! span {
    ($label:expr) => {
        $crate::span($label)
    };
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        REGISTRY.with(|r| {
            let mut reg = r.borrow_mut();
            let path = reg.stack.join("/");
            reg.stack.pop();
            reg.spans.entry(path).or_default().record(ns);
        });
    }
}

/// Add `delta` to the named monotonic counter (no-op while recording is
/// disabled).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !recording() {
        return;
    }
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        *reg.counters.entry(name).or_insert(0) += delta;
    });
}

/// A point-in-time copy of the calling thread's registry, in
/// deterministic (sorted-by-name) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// `(span path, stats)` pairs, sorted by path.
    pub spans: Vec<(String, SpanStats)>,
    /// `(counter name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl ObsSnapshot {
    /// Look up one span's stats by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStats> {
        self.spans
            .iter()
            .find(|(p, _)| p.as_str() == path)
            .map(|(_, s)| s)
    }

    /// Look up one counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n.as_str() == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Copy the calling thread's aggregates.
pub fn snapshot() -> ObsSnapshot {
    REGISTRY.with(|r| {
        let reg = r.borrow();
        ObsSnapshot {
            spans: reg
                .spans
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            counters: reg
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
        }
    })
}

/// Clear the calling thread's aggregates (open-span nesting state is
/// preserved so a reset inside a span cannot corrupt the label stack).
pub fn reset() {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        reg.spans.clear();
        reg.counters.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that toggle the global recording flag must not interleave.
    static FLAG: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> std::sync::MutexGuard<'static, ()> {
        FLAG.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _g = locked();
        set_recording(false);
        reset();
        {
            let _s = span("never");
            counter_add("never", 3);
        }
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn spans_nest_into_paths_and_aggregate() {
        let _g = locked();
        set_recording(true);
        reset();
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _lone = span("inner");
        }
        set_recording(false);
        let snap = snapshot();
        let outer = snap.span("outer").expect("outer recorded");
        assert_eq!(outer.count, 3);
        assert_eq!(outer.buckets.iter().sum::<u64>(), 3);
        assert_eq!(snap.span("outer/inner").expect("nested path").count, 3);
        assert_eq!(snap.span("inner").expect("top-level inner").count, 1);
        assert!(outer.max_ns >= snap.span("outer/inner").unwrap().max_ns / 2);
        reset();
        assert!(snapshot().spans.is_empty());
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let _g = locked();
        set_recording(true);
        reset();
        counter_add("a.hits", 2);
        counter_add("a.hits", 5);
        counter_add("b.misses", 1);
        set_recording(false);
        let snap = snapshot();
        assert_eq!(snap.counter("a.hits"), 7);
        assert_eq!(snap.counter("b.misses"), 1);
        assert_eq!(snap.counter("absent"), 0);
        reset();
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = SpanStats::default();
        s.record(0);
        s.record(1);
        s.record(2);
        s.record(3);
        s.record(1024);
        s.record(u64::MAX);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 2); // 2 and 3
        assert_eq!(s.buckets[10], 1); // 1024
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 1); // clamped tail
        assert_eq!(s.count, 6);
        assert_eq!(s.max_ns, u64::MAX);
    }
}
