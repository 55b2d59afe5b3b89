//! In-memory span recorder for the traced run.
//!
//! Every span carries its name, start and end (nanoseconds since the
//! recorder started), the span that caused it and the op it belongs to.
//! Spans stay in memory until the run ends and are written out once, so
//! the recorder does no I/O while an op is being timed.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id (index into the recorder + 1).
    pub id: u32,
    /// Id of the enclosing span, 0 for an op's root span.
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
    op: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        last_closed: None,
        op: 0,
    });
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`, nested under the innermost open
/// span of the current op.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len();
        let parent = r.open.last().map_or(0, |&p| r.spans[p].id);
        let op = r.op;
        let start_ns = now_ns(r.epoch);
        r.spans.push(Span {
            id: idx as u32 + 1,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(idx);
        idx
    });
    let out = f();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end = now_ns(r.epoch);
        r.spans[idx].end_ns = end;
        r.open.pop();
        r.last_closed = Some(idx);
    });
    out
}

/// Runs `f` as a new op whose root span is named `name`.
pub fn op<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "ops do not nest");
        r.op += 1;
    });
    span(name, f)
}

/// Renames the most recently closed span: a call site learns only from a
/// call's result which kind of work it was (an arrival that closed a
/// window, say).
pub fn rename_last_closed(name: &'static str) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if let Some(idx) = r.last_closed {
            r.spans[idx].name = name;
        }
    });
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    RECORDER.with(|r| r.borrow().spans.clone())
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.last_closed = None;
        std::mem::take(&mut r.spans)
    })
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one parent never overlap: the traced run
/// is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Renders spans as JSONL: one object per span with microsecond times.
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
            s.op,
            s.id,
            s.parent,
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3
        );
    }
    out
}
