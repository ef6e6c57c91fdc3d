//! Zero-dependency observability layer: hierarchical spans, named
//! counters, and value series, recorded into a process-global recorder
//! and serialized to JSON or CSV.
//!
//! The paper's whole argument runs through measurement — hop-bytes
//! explains contention only because the simulator exposes per-link
//! utilization to confirm it. This module gives every layer of the
//! reproduction (the mappers, the `par` pool, `netsim`) the same
//! treatment: *where* does time and contention go inside a run?
//!
//! ## Design constraints
//!
//! 1. **Compiled in, dynamically off.** Instrumentation ships in release
//!    builds; when disabled (the default) every probe is a single relaxed
//!    atomic load ([`enabled`]) and an early return. No timers are read,
//!    no strings are formatted, no locks are taken.
//! 2. **Provably non-perturbing.** Probes only *observe*: they never
//!    branch the instrumented algorithm, never consume randomness, and
//!    never reorder floating-point accumulation. The mapping produced
//!    with profiling ON is bit-identical to OFF — the invariance suite
//!    (`tests/obs_invariance.rs`) pins this for every mapper, topology
//!    family, and thread count.
//! 3. **Thread-safe.** Counters and series may be bumped from pool
//!    workers; spans form a per-thread tree via a thread-local stack.
//!
//! ## Model
//!
//! - A **span** is a named, timed region. Spans opened while another span
//!   of the same thread is open become its children, so one mapper run
//!   yields a tree like `topolb.map → [estimation.init, topolb.place]`.
//! - A **counter** is a named monotonically-accumulated `u64` (counts or
//!   nanoseconds, by convention suffixed `_ns`).
//! - A **series** is a named list of `f64` observations (e.g. the
//!   hop-byte trajectory of the annealer, or per-link byte loads); its
//!   summary (count/min/max/mean) doubles as a histogram digest.
//!
//! ## Session protocol
//!
//! ```
//! use topomap_core::obs;
//!
//! obs::start();                       // reset buffers, arm recording
//! {
//!     let _outer = obs::span("work");
//!     obs::counter_add("work.items", 3);
//!     obs::series_push("work.delta", -1.5);
//! }
//! let report = obs::finish();         // disarm, drain the recorder
//! assert_eq!(report.counter("work.items"), Some(3));
//! assert!(report.find_span("work").is_some());
//! let json = report.to_json();
//! let back = obs::Report::from_json(&json).unwrap();
//! assert_eq!(back.counter("work.items"), Some(3));
//! ```
//!
//! The recorder is process-global (the [`crate::Mapper`] trait cannot
//! thread a handle through every implementation), so concurrent profiled
//! runs interleave into one report. This holds for unprofiled runs too:
//! while a session is armed, the probes of every thread in the process
//! land in its report, whether or not that thread's caller asked for
//! recording. A test binary that arms recording must therefore serialize
//! *every* test that runs instrumented code (any mapper, the `par` pool,
//! netsim) around the session, not only the tests that assert on counter
//! values (see the invariance suite).

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema version stamped into every [`Report`]; bump on breaking
/// changes to the serialized layout (the golden-schema test pins it).
///
/// v2 added the `meta` section: free-form `name = value` string pairs
/// recorded via [`meta_set`] (thread count, host core count, hierarchy
/// shape, …) so PROFILE_*.json artifacts are self-describing — e.g. why
/// the `par.*` counters look serial on a 1-core host. v1 reports (no
/// `meta` field) still parse; `meta` reads back empty.
pub const SCHEMA_VERSION: u32 = 2;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Inner>> = Mutex::new(None);

thread_local! {
    /// Open-span stack of this thread: `(session generation, span index)`.
    static SPAN_STACK: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Whether recording is armed. This is the hot-path guard: one relaxed
/// atomic load, nothing else.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arm recording without clearing previously recorded data.
pub fn enable() {
    // Make sure the recorder exists so probes never race initialization.
    let mut g = lock();
    if g.is_none() {
        *g = Some(Inner::new(1));
    }
    drop(g);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disarm recording; buffered data stays until [`take_report`]/[`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clear all recorded data and start a fresh session epoch. Span guards
/// from before the reset become inert (their session generation no
/// longer matches).
pub fn reset() {
    let mut g = lock();
    let generation = g.as_ref().map_or(1, |i| i.generation + 1);
    *g = Some(Inner::new(generation));
}

/// [`reset`] + [`enable`]: begin a fresh recording session.
pub fn start() {
    reset();
    ENABLED.store(true, Ordering::SeqCst);
}

/// [`disable`] + [`take_report`]: end the session and drain the recorder.
pub fn finish() -> Report {
    disable();
    take_report()
}

/// Open a span. Returns a guard that closes the span when dropped; while
/// it lives, further spans opened *on the same thread* become children.
/// A no-op (no lock, no clock) when recording is disabled.
#[must_use = "the span closes when this guard drops"]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { slot: None };
    }
    let mut g = lock();
    let Some(inner) = g.as_mut() else {
        return SpanGuard { slot: None };
    };
    let generation = inner.generation;
    let start_ns = inner.now_ns();
    let parent = SPAN_STACK.with(|s| {
        s.borrow()
            .last()
            .filter(|&&(gen, _)| gen == generation)
            .map(|&(_, idx)| idx)
    });
    let idx = inner.spans.len();
    inner.spans.push(SpanRec {
        name: name.to_string(),
        parent,
        start_ns,
        elapsed_ns: None,
    });
    drop(g);
    SPAN_STACK.with(|s| s.borrow_mut().push((generation, idx)));
    SpanGuard {
        slot: Some((generation, idx)),
    }
}

/// Add `delta` to the named counter. No-op when disabled. Callers that
/// build dynamic names should guard with [`enabled`] to skip the
/// formatting too.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    if let Some(inner) = lock().as_mut() {
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }
}

/// Append one observation to the named series. No-op when disabled.
pub fn series_push(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    if let Some(inner) = lock().as_mut() {
        inner
            .series
            .entry(name.to_string())
            .or_default()
            .push(value);
    }
}

/// Append many observations to the named series under one lock
/// acquisition (e.g. a per-link heatmap column). No-op when disabled.
pub fn series_extend(name: &str, values: impl IntoIterator<Item = f64>) {
    if !enabled() {
        return;
    }
    if let Some(inner) = lock().as_mut() {
        inner
            .series
            .entry(name.to_string())
            .or_default()
            .extend(values);
    }
}

/// Record a metadata string describing the run environment (thread count,
/// hierarchy shape, host cores, …). Last write wins per name; no-op when
/// disabled. Metadata lands in the report's `meta` section (schema v2).
pub fn meta_set(name: &str, value: &str) {
    if !enabled() {
        return;
    }
    if let Some(inner) = lock().as_mut() {
        inner.meta.insert(name.to_string(), value.to_string());
    }
}

/// Run `f`, adding its wall time in nanoseconds to the named counter.
/// When disabled this is exactly `f()` — no clock is read.
#[inline]
pub fn time_counter<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let t = Instant::now();
    let r = f();
    counter_add(name, t.elapsed().as_nanos() as u64);
    r
}

/// Drain everything recorded so far into a [`Report`] and clear the
/// buffers (a fresh session epoch begins).
pub fn take_report() -> Report {
    let mut g = lock();
    let generation = g.as_ref().map_or(1, |i| i.generation + 1);
    let inner = g.replace(Inner::new(generation));
    drop(g);
    match inner {
        Some(inner) => inner.into_report(),
        None => Report::empty(),
    }
}

fn lock() -> std::sync::MutexGuard<'static, Option<Inner>> {
    // The recorder must survive a panicking worker (the pool already
    // propagates the panic); poisoning carries no extra information here.
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Guard returned by [`span`]; closes the span on drop.
pub struct SpanGuard {
    /// `(session generation, span index)`; `None` when recording was
    /// disabled at open time.
    slot: Option<(u64, usize)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((generation, idx)) = self.slot else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut st = s.borrow_mut();
            if st.last() == Some(&(generation, idx)) {
                st.pop();
            }
        });
        if let Some(inner) = lock().as_mut() {
            if inner.generation == generation {
                let end = inner.now_ns();
                let rec = &mut inner.spans[idx];
                if rec.elapsed_ns.is_none() {
                    rec.elapsed_ns = Some(end.saturating_sub(rec.start_ns));
                }
            }
        }
    }
}

/// Recorder buffers for one session.
struct Inner {
    generation: u64,
    epoch: Instant,
    spans: Vec<SpanRec>,
    counters: BTreeMap<String, u64>,
    series: BTreeMap<String, Vec<f64>>,
    meta: BTreeMap<String, String>,
}

struct SpanRec {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    elapsed_ns: Option<u64>,
}

impl Inner {
    fn new(generation: u64) -> Self {
        Inner {
            generation,
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            series: BTreeMap::new(),
            meta: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn into_report(self) -> Report {
        let now = self.now_ns();
        // Build the span forest: children attach in creation order.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, rec) in self.spans.iter().enumerate() {
            match rec.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn build(idx: usize, spans: &[SpanRec], children: &[Vec<usize>], now: u64) -> SpanNode {
            let rec = &spans[idx];
            SpanNode {
                name: rec.name.clone(),
                start_ns: rec.start_ns,
                // A span still open at drain time is charged up to "now".
                elapsed_ns: rec
                    .elapsed_ns
                    .unwrap_or_else(|| now.saturating_sub(rec.start_ns)),
                children: children[idx]
                    .iter()
                    .map(|&c| build(c, spans, children, now))
                    .collect(),
            }
        }
        Report {
            version: SCHEMA_VERSION,
            meta: self
                .meta
                .into_iter()
                .map(|(name, value)| MetaEntry { name, value })
                .collect(),
            spans: roots
                .iter()
                .map(|&r| build(r, &self.spans, &children, now))
                .collect(),
            counters: self
                .counters
                .into_iter()
                .map(|(name, value)| CounterEntry { name, value })
                .collect(),
            series: self
                .series
                .into_iter()
                .map(|(name, values)| SeriesEntry::new(name, values))
                .collect(),
        }
    }
}

/// One node of the span tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    pub name: String,
    /// Nanoseconds since the session epoch.
    pub start_ns: u64,
    pub elapsed_ns: u64,
    pub children: Vec<SpanNode>,
}

/// One named counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    pub name: String,
    pub value: u64,
}

/// One run-environment metadata pair (schema v2; see [`meta_set`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaEntry {
    pub name: String,
    pub value: String,
}

/// One named series with its histogram digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesEntry {
    pub name: String,
    pub count: u64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub values: Vec<f64>,
}

impl SeriesEntry {
    fn new(name: String, values: Vec<f64>) -> Self {
        let count = values.len() as u64;
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &v in &values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        if values.is_empty() {
            min = 0.0;
            max = 0.0;
        }
        SeriesEntry {
            name,
            count,
            min,
            max,
            mean: if count > 0 { sum / count as f64 } else { 0.0 },
            values,
        }
    }
}

/// A drained recording session: metadata + span forest + counters +
/// series. Meta, counters, and series are sorted by name; spans keep
/// creation order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    pub version: u32,
    pub meta: Vec<MetaEntry>,
    pub spans: Vec<SpanNode>,
    pub counters: Vec<CounterEntry>,
    pub series: Vec<SeriesEntry>,
}

/// Hand-written so v1 traces (no `meta` field) still parse — the derive
/// in the vendored serde stub hard-errors on missing fields.
impl Deserialize for Report {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for Report"))?;
        let meta = match serde::value::field(obj, "meta") {
            Ok(m) => Vec::<MetaEntry>::from_value(m)?,
            Err(_) => Vec::new(),
        };
        Ok(Report {
            version: u32::from_value(serde::value::field(obj, "version")?)?,
            meta,
            spans: Vec::<SpanNode>::from_value(serde::value::field(obj, "spans")?)?,
            counters: Vec::<CounterEntry>::from_value(serde::value::field(obj, "counters")?)?,
            series: Vec::<SeriesEntry>::from_value(serde::value::field(obj, "series")?)?,
        })
    }
}

impl Report {
    pub fn empty() -> Self {
        Report {
            version: SCHEMA_VERSION,
            meta: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Value of a metadata entry, if recorded.
    pub fn meta(&self, name: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value.as_str())
    }

    /// Value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// A series by name, if recorded.
    pub fn series(&self, name: &str) -> Option<&SeriesEntry> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Depth-first search of the span forest for the first span with
    /// this name.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        fn dfs<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = dfs(&n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        dfs(&self.spans, name)
    }

    /// All span names, depth-first.
    pub fn span_names(&self) -> Vec<String> {
        fn walk(nodes: &[SpanNode], out: &mut Vec<String>) {
            for n in nodes {
                out.push(n.name.clone());
                walk(&n.children, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.spans, &mut out);
        out
    }

    /// Total number of spans in the forest.
    pub fn span_count(&self) -> usize {
        self.span_names().len()
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a report back from its JSON form.
    pub fn from_json(s: &str) -> Result<Report, String> {
        serde_json::from_str(s).map_err(|e| format!("bad trace JSON: {e}"))
    }

    /// Serialize to CSV. Columns are `kind,name,a,b`:
    /// `span,<path>,<start_ns>,<elapsed_ns>` (path is `/`-joined
    /// ancestry), `counter,<name>,<value>,`,
    /// `series,<name>,<index>,<value>` one row per observation, and
    /// `meta,<name>,<value>,` rows at the end (schema v2).
    pub fn to_csv(&self) -> String {
        fn csv_escape(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        fn walk(nodes: &[SpanNode], prefix: &str, out: &mut String) {
            for n in nodes {
                let path = if prefix.is_empty() {
                    n.name.clone()
                } else {
                    format!("{prefix}/{}", n.name)
                };
                let _ = writeln!(
                    out,
                    "span,{},{},{}",
                    csv_escape(&path),
                    n.start_ns,
                    n.elapsed_ns
                );
                walk(&n.children, &path, out);
            }
        }
        let mut out = String::from("kind,name,a,b\n");
        walk(&self.spans, "", &mut out);
        for c in &self.counters {
            let _ = writeln!(out, "counter,{},{},", csv_escape(&c.name), c.value);
        }
        for s in &self.series {
            for (i, v) in s.values.iter().enumerate() {
                let _ = writeln!(out, "series,{},{},{}", csv_escape(&s.name), i, v);
            }
        }
        for m in &self.meta {
            let _ = writeln!(
                out,
                "meta,{},{},",
                csv_escape(&m.name),
                csv_escape(&m.value)
            );
        }
        out
    }

    /// Human-readable summary: the span tree with millisecond timings,
    /// then counters and series digests. Used by the CLI's `--profile`.
    pub fn summary(&self) -> String {
        fn walk(nodes: &[SpanNode], depth: usize, out: &mut String) {
            for n in nodes {
                let _ = writeln!(
                    out,
                    "{:indent$}{} {:.3} ms",
                    "",
                    n.name,
                    n.elapsed_ns as f64 / 1e6,
                    indent = depth * 2
                );
                walk(&n.children, depth + 1, out);
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "-- profile (schema v{}) --", self.version);
        for m in &self.meta {
            let _ = writeln!(out, "meta {:<35} {}", m.name, m.value);
        }
        walk(&self.spans, 0, &mut out);
        for c in &self.counters {
            let _ = writeln!(out, "{:<40} {}", c.name, c.value);
        }
        for s in &self.series {
            let _ = writeln!(
                out,
                "{:<40} n={} min={:.3} mean={:.3} max={:.3}",
                s.name, s.count, s.min, s.mean, s.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions share process-global state; tests that arm recording
    /// serialize around this lock so counter assertions stay exact.
    static SESSION: Mutex<()> = Mutex::new(());

    fn session() -> std::sync::MutexGuard<'static, ()> {
        SESSION.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = session();
        disable();
        let _s = span("ghost");
        counter_add("ghost.count", 5);
        series_push("ghost.series", 1.0);
        let r = take_report();
        assert_eq!(r.counter("ghost.count"), None);
        assert!(r.find_span("ghost").is_none());
        assert!(r.series("ghost.series").is_none());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _g = session();
        start();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                let _leaf = span("leaf");
            }
            let _sibling = span("sibling");
        }
        let r = finish();
        let outer = r.find_span("outer").expect("outer recorded");
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].name, "inner");
        assert_eq!(outer.children[0].children[0].name, "leaf");
        assert_eq!(outer.children[1].name, "sibling");
        assert_eq!(r.span_count(), 4);
        assert!(outer.elapsed_ns >= outer.children[0].elapsed_ns);
    }

    #[test]
    fn counters_and_series_accumulate() {
        let _g = session();
        start();
        counter_add("obs.test.k", 2);
        counter_add("obs.test.k", 3);
        series_push("obs.test.s", 1.0);
        series_extend("obs.test.s", [2.0, 6.0]);
        let r = finish();
        assert_eq!(r.counter("obs.test.k"), Some(5));
        let s = r.series("obs.test.s").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 6.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.values, vec![1.0, 2.0, 6.0]);
    }

    #[test]
    fn time_counter_accumulates_only_when_enabled() {
        let _g = session();
        disable();
        assert_eq!(time_counter("obs.test.t", || 7), 7);
        start();
        let v = time_counter("obs.test.t", || 41 + 1);
        assert_eq!(v, 42);
        let r = finish();
        assert!(r.counter("obs.test.t").is_some());
    }

    #[test]
    fn counters_are_thread_safe() {
        let _g = session();
        start();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        counter_add("obs.test.mt", 1);
                    }
                });
            }
        });
        let r = finish();
        assert_eq!(r.counter("obs.test.mt"), Some(400));
    }

    #[test]
    fn guard_from_before_reset_is_inert() {
        let _g = session();
        start();
        let stale = span("stale");
        start(); // new session; `stale` belongs to the old generation
        let _fresh = span("fresh");
        drop(stale);
        let r = finish();
        assert!(r.find_span("stale").is_none());
        assert!(r.find_span("fresh").is_some());
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let _g = session();
        start();
        {
            let _a = span("a");
            let _b = span("b");
            counter_add("k", 9);
            series_push("s", 2.5);
        }
        let r = finish();
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.version, SCHEMA_VERSION);
    }

    #[test]
    fn csv_and_summary_render() {
        let _g = session();
        start();
        {
            let _a = span("root");
            let _b = span("child");
        }
        counter_add("c1", 4);
        series_push("s1", 0.5);
        let r = finish();
        let csv = r.to_csv();
        assert!(csv.starts_with("kind,name,a,b\n"), "{csv}");
        assert!(csv.contains("span,root,"), "{csv}");
        assert!(csv.contains("span,root/child,"), "{csv}");
        assert!(csv.contains("counter,c1,4,"), "{csv}");
        assert!(csv.contains("series,s1,0,0.5"), "{csv}");
        let sum = r.summary();
        assert!(sum.contains("root"));
        assert!(sum.contains("c1"));
    }

    #[test]
    fn open_span_is_charged_at_drain() {
        let _g = session();
        start();
        let held = span("still-open");
        let r = take_report();
        disable();
        let s = r.find_span("still-open").unwrap();
        // Drained while open: elapsed is "up to now", not zero.
        assert!(s.elapsed_ns <= r.find_span("still-open").unwrap().elapsed_ns + 1);
        drop(held); // inert: its session was drained
    }

    #[test]
    fn empty_report_shape() {
        let r = Report::empty();
        assert_eq!(r.version, SCHEMA_VERSION);
        assert!(r.spans.is_empty() && r.counters.is_empty() && r.series.is_empty());
        assert!(r.meta.is_empty());
        assert_eq!(r.counter("x"), None);
    }

    #[test]
    fn meta_last_write_wins_and_round_trips() {
        let _g = session();
        start();
        meta_set("obs.test.shape", "4:8:16");
        meta_set("obs.test.shape", "16:16:16");
        meta_set("obs.test.threads", "8");
        let r = finish();
        assert_eq!(r.meta("obs.test.shape"), Some("16:16:16"));
        assert_eq!(r.meta("obs.test.threads"), Some("8"));
        assert_eq!(r.meta("missing"), None);
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let csv = r.to_csv();
        assert!(csv.contains("meta,obs.test.shape,16:16:16,"), "{csv}");
        assert!(r.summary().contains("obs.test.shape"));
    }

    #[test]
    fn meta_is_noop_when_disabled() {
        let _g = session();
        disable();
        meta_set("obs.test.ghost", "x");
        start();
        let r = finish();
        assert_eq!(r.meta("obs.test.ghost"), None);
    }

    #[test]
    fn v1_trace_without_meta_still_parses() {
        let v1 = r#"{"version":1,"spans":[],"counters":[{"name":"k","value":3}],"series":[]}"#;
        let r = Report::from_json(v1).unwrap();
        assert_eq!(r.version, 1);
        assert!(r.meta.is_empty());
        assert_eq!(r.counter("k"), Some(3));
    }
}
