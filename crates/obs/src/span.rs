//! The flight recorder: a bounded ring buffer of causally-tagged spans.
//!
//! A [`Span`] names one region of simulated time — a dispatched syscall, a
//! submission batch, a scheduler quantum, a WAL append, a recovery phase,
//! an exporter RPC leg — tagged with the thread it ran on and a sequence
//! number tying it back to the dispatch or batch counter.  The
//! [`Recorder`] is a cheaply cloneable handle (the kernel, the store and
//! the exporter all hold one) over a shared [`Ring`]; a disabled recorder's
//! `record` is a no-op, which is what keeps tracing's overhead inside the
//! CI gate's 3% budget.
//!
//! Spans dump as chrome-trace JSON (`chrome://tracing`, Perfetto) for
//! offline profiling, and aggregate into per-phase totals — the profile
//! the recovery work in `torn_wal` reports.

use crate::ring::Ring;
use std::cell::RefCell;
use std::rc::Rc;

/// One recorded region of simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Subsystem category (`"dispatch"`, `"sched"`, `"wal"`, `"recover"`,
    /// `"rpc"`).
    pub cat: &'static str,
    /// What ran (a syscall name, `"quantum"`, `"checkpoint"`, ...).
    pub name: &'static str,
    /// Start tick, in simulated nanoseconds since boot.
    pub start: u64,
    /// End tick, in simulated nanoseconds since boot (`>= start`).
    pub end: u64,
    /// The thread the work ran on (raw object ID; 0 when the work is not
    /// attributable to one thread, e.g. recovery).
    pub tid: u64,
    /// Causal tag: for a syscall, the call's index in the kernel's
    /// `dispatch.calls` counter (0-based, counted from boot); the batch
    /// count for batches; the quantum count for the scheduler; 0
    /// otherwise.
    pub seq: u64,
}

impl Span {
    /// The span's duration in simulated nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A handle onto a shared flight-recorder ring.
///
/// Cloning is cheap (reference-counted), so the kernel can hand handles to
/// the store, the scheduler and the exporter without ownership questions.
/// A default-constructed handle is *disabled*: `record` does nothing and
/// costs almost nothing, so instrumentation points can call it
/// unconditionally.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Rc<RefCell<Ring<Span>>>>,
}

impl Recorder {
    /// A disabled recorder (every `record` is a no-op).
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// An enabled recorder whose ring holds at most `capacity` spans;
    /// older spans are evicted (and counted) when it fills.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            inner: Some(Rc::new(RefCell::new(Ring::new(capacity)))),
        }
    }

    /// True when spans are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one span (no-op when disabled).
    pub fn record(&self, span: Span) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().push(span);
        }
    }

    /// The buffered spans, oldest first (empty when disabled).
    pub fn snapshot(&self) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner.borrow().iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped())
    }

    /// Total spans ever recorded.
    pub fn total_recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.borrow().total_recorded())
    }

    /// The last `n` spans, oldest first — what the crash hook prints.
    pub fn last(&self, n: usize) -> Vec<Span> {
        let all = self.snapshot();
        let skip = all.len().saturating_sub(n);
        all[skip..].to_vec()
    }

    /// Renders the buffered spans as a chrome-trace JSON document
    /// (`ts`/`dur` in microseconds, the format `chrome://tracing` and
    /// Perfetto load directly).
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.snapshot();
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \
                 \"args\": {{\"seq\": {}}}}}{sep}\n",
                escape(s.name),
                escape(s.cat),
                s.start as f64 / 1_000.0,
                s.duration() as f64 / 1_000.0,
                s.tid,
                s.seq,
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Human-readable dump of the last `n` spans, oldest first.
    pub fn dump_last(&self, n: usize) -> String {
        let mut out = String::new();
        for s in self.last(n) {
            out.push_str(&format!(
                "  [{:>12}ns +{:>9}ns] {}/{} tid={} seq={}\n",
                s.start,
                s.duration(),
                s.cat,
                s.name,
                s.tid,
                s.seq
            ));
        }
        out
    }

    /// Aggregates buffered spans of one category into per-phase totals:
    /// `(name, total simulated ns, span count)`, largest total first.
    pub fn phase_totals(&self, cat: &str) -> Vec<(&'static str, u64, u64)> {
        let mut totals: Vec<(&'static str, u64, u64)> = Vec::new();
        for s in self.snapshot() {
            if s.cat != cat {
                continue;
            }
            match totals.iter_mut().find(|(name, _, _)| *name == s.name) {
                Some((_, total, count)) => {
                    *total += s.duration();
                    *count += 1;
                }
                None => totals.push((s.name, s.duration(), 1)),
            }
        }
        totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        totals
    }
}

/// Minimal JSON string escaping for span/category names (which are static
/// identifiers by construction, but a stray quote must not corrupt the
/// document).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64) -> Span {
        Span {
            cat: "test",
            name,
            start,
            end,
            tid: 7,
            seq: 1,
        }
    }

    #[test]
    fn disabled_recorder_is_a_cheap_noop() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.record(span("x", 0, 1));
        assert!(r.snapshot().is_empty());
        assert_eq!(r.total_recorded(), 0);
        assert_eq!(r.chrome_trace_json(), "{\"traceEvents\": [\n]}\n");
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let r = Recorder::with_capacity(2);
        r.record(span("a", 0, 1));
        r.record(span("b", 1, 2));
        r.record(span("c", 2, 3));
        let got = r.snapshot();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "b");
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.total_recorded(), 3);
    }

    #[test]
    fn clones_share_the_ring() {
        let r = Recorder::with_capacity(8);
        let handle = r.clone();
        handle.record(span("via-clone", 0, 5));
        assert_eq!(r.snapshot().len(), 1);
        assert_eq!(r.snapshot()[0].name, "via-clone");
    }

    #[test]
    fn chrome_trace_json_is_wellformed() {
        let r = Recorder::with_capacity(8);
        r.record(span("alpha", 1_000, 3_500));
        r.record(span("beta", 3_500, 3_500));
        let doc = r.chrome_trace_json();
        assert!(doc.starts_with("{\"traceEvents\": ["));
        assert!(doc.contains("\"name\": \"alpha\""));
        assert!(doc.contains("\"ts\": 1.000"));
        assert!(doc.contains("\"dur\": 2.500"));
        assert!(doc.contains("\"tid\": 7"));
        assert!(doc.trim_end().ends_with("]}"));
        // Exactly one separator between the two events.
        assert_eq!(doc.matches("},\n").count(), 1);
    }

    #[test]
    fn phase_totals_aggregate_and_sort() {
        let r = Recorder::with_capacity(16);
        r.record(span("replay", 0, 10));
        r.record(span("replay", 10, 30));
        r.record(span("checkpoint", 30, 90));
        r.record(Span {
            cat: "other",
            name: "ignored",
            start: 0,
            end: 1_000,
            tid: 0,
            seq: 0,
        });
        let totals = r.phase_totals("test");
        assert_eq!(totals, vec![("checkpoint", 60, 1), ("replay", 30, 2)]);
    }

    #[test]
    fn last_returns_the_tail() {
        let r = Recorder::with_capacity(16);
        for i in 0..5 {
            r.record(span("s", i, i + 1));
        }
        assert_eq!(r.last(2).len(), 2);
        assert_eq!(r.last(2)[0].start, 3);
        assert!(r.dump_last(2).lines().count() == 2);
    }
}
