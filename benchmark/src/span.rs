//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (spans inside the program are a later change), kept in memory, and
//! written once at exit as a Chrome `trace_event` document. A disabled
//! tracer records nothing, so the end-to-end pass runs the same workload
//! code with tracing off.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Shared by every span of one run or one service request.
    pub request: u64,
    /// Recording thread (small integers in first-use order).
    pub thread: u32,
    /// Figures attached after the fact (scraped server-side timings).
    pub args: Vec<(&'static str, f64)>,
}

/// An open span: close it with [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u32,
    name: &'static str,
    start: u64,
    parent: Option<u32>,
    request: u64,
}

impl Open {
    pub fn id(&self) -> Option<u32> {
        Some(self.id)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Thread numbers are process-wide, so two tracers agree on them.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created; usable as a span bound.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: Option<u32>, request: u64) -> Open {
        let (id, start) = if self.enabled {
            // Relaxed: the id only has to be unique.
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now())
        } else {
            (0, 0)
        };
        Open {
            id,
            name,
            start,
            parent,
            request,
        }
    }

    pub fn end(&self, open: Open) {
        self.end_with(open, Vec::new());
    }

    pub fn end_with(&self, open: Open, args: Vec<(&'static str, f64)>) {
        if self.enabled {
            let end = self.now();
            self.push(open, end, args);
        }
    }

    /// Record a span whose bounds were stamped elsewhere (a request's
    /// intended send time and its arrival on the receiver thread).
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        request: u64,
        args: Vec<(&'static str, f64)>,
    ) {
        let open = Open {
            start,
            ..self.begin(name, None, request)
        };
        self.push(open, end, args);
    }

    /// Time `f` under a span; the common leaf case.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    fn push(&self, open: Open, end: u64, args: Vec<(&'static str, f64)>) {
        if !self.enabled {
            return;
        }
        let thread = THREAD.with(|t| {
            if t.get() == u32::MAX {
                t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        let span = Span {
            id: open.id,
            name: open.name,
            start: open.start,
            end,
            parent: open.parent,
            request: open.request,
            thread,
            args,
        };
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no span is recorded while panicking")
            .clone()
    }
}

/// Each span's self time, in `all`'s order: its duration minus the part
/// of its interval that its child spans cover (overlapping children are
/// not counted twice).
pub fn self_times(all: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for span in all {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    all.iter()
        .map(|span| {
            let mut covered = 0;
            let mut reach = span.start;
            let mut inside = children.remove(&span.id).unwrap_or_default();
            inside.sort_unstable();
            for (start, end) in inside {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end - span.start) - covered
        })
        .collect()
}

/// Total self time per span name, largest first, with the span count.
pub fn self_time_by_name(all: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut by_name: Vec<(&'static str, u64, usize)> = Vec::new();
    for (span, t) in all.iter().zip(self_times(all)) {
        match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
            Some(entry) => {
                entry.1 += t;
                entry.2 += 1;
            }
            None => by_name.push((span.name, t, 1)),
        }
    }
    by_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    by_name
}

/// Busy time per recording thread of the spans called `name`: the input
/// to the pool-imbalance figure.
pub fn busy_by_thread(all: &[Span], name: &str) -> Vec<u64> {
    let mut busy: Vec<(u32, u64)> = Vec::new();
    for span in all.iter().filter(|s| s.name == name) {
        match busy.iter_mut().find(|(t, _)| *t == span.thread) {
            Some(entry) => entry.1 += span.end - span.start,
            None => busy.push((span.thread, span.end - span.start)),
        }
    }
    busy.into_iter().map(|(_, ns)| ns).collect()
}

/// Render spans as a Chrome `trace_event` document (complete events,
/// microsecond timestamps); `parent` and `request` travel in `args`.
pub fn chrome_trace(all: &[Span]) -> String {
    use serde_json::Value;
    let events = all
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Value::UInt(u64::from(s.id))),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                ),
                ("request".to_string(), Value::UInt(s.request)),
            ];
            args.extend(
                s.args
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Float(*v))),
            );
            Value::Object(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), Value::Float(s.start as f64 / 1e3)),
                (
                    "dur".to_string(),
                    Value::Float((s.end - s.start) as f64 / 1e3),
                ),
                ("pid".to_string(), Value::UInt(1)),
                ("tid".to_string(), Value::UInt(u64::from(s.thread))),
                ("args".to_string(), Value::Object(args)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![("traceEvents".to_string(), Value::Array(events))]);
    serde_json::to_string(&doc).expect("a Value always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            name: "s",
            start,
            end,
            parent,
            request: 0,
            thread: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1 on 20..30: covered once.
            span(2, Some(0), 20, 50),
            // Sticks out past the parent: clipped to 90..100.
            span(3, Some(0), 90, 120),
            // A grandchild is its parent's business, not span 0's.
            span(4, Some(1), 12, 18),
        ];
        assert_eq!(
            self_times(&all),
            vec![100 - (50 - 10) - 10, 20 - 6, 30, 30, 6]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.scope("a", None, 1, || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_share_the_request_id_and_name_their_parent() {
        let t = Tracer::new(true);
        let run = t.begin("run", None, 7);
        t.scope("engine.build", run.id(), 7, || ());
        t.end(run);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "engine.build").unwrap();
        let parent = spans.iter().find(|s| s.name == "run").unwrap();
        assert_eq!(child.parent, Some(parent.id));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(parent.start <= child.start && child.end <= parent.end);
        let doc: serde_json::Value = serde_json::from_str(&chrome_trace(&spans)).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn busy_time_is_grouped_by_thread() {
        let mut a = span(0, None, 0, 10);
        a.name = "item";
        let mut b = span(1, None, 10, 40);
        b.name = "item";
        b.thread = 1;
        let mut c = span(2, None, 40, 45);
        c.name = "item";
        let mut busy = busy_by_thread(&[a, b, c], "item");
        busy.sort_unstable();
        assert_eq!(busy, vec![15, 30]);
    }
}
