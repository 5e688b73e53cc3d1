//! In-memory span recording around calls into each layer.
//!
//! A [`Tracer`] records one [`Span`] (name, start, end, parent, cell id,
//! thread) per call it wraps. Spans stay in memory until the benchmark
//! ends and writes them out as JSON lines. A disabled tracer calls the
//! wrapped function and records nothing, which is how the untraced
//! passes that `tracing.overhead_frac` compares against are run.
//!
//! Parents: a span's parent is the innermost open span on its own
//! thread. A worker thread's outermost span takes the open pass span as
//! its parent, so one pass forms a single tree across threads.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Marks "no parent" / "no cell".
pub const NONE: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub cell: u32,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static CELL: Cell<u32> = const { Cell::new(NONE) };
    static THREAD: Cell<u32> = const { Cell::new(NONE) };
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

fn thread_id() -> u32 {
    THREAD.with(|t| {
        if t.get() == NONE {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Records spans around wrapped calls (or, disabled, only calls them).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
    /// The open pass span: parent of every worker thread's outermost span.
    root: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            root: AtomicU32::new(NONE),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, attributed to the current
    /// cell of this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or_else(|| self.root.load(Ordering::Relaxed));
            s.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            cell: CELL.with(Cell::get),
            thread: thread_id(),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("no span writer panics while holding the lock").push(span);
        r
    }

    /// Runs one work item: a `bench.item` span whose nested spans carry
    /// the item's cell id (`None` for work shared by several cells).
    pub fn item<R>(&self, cell: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = cell.map_or(NONE, |c| u32::try_from(c).expect("cell ids fit in u32"));
        let prev = CELL.with(|c| c.replace(id));
        let r = self.span("bench.item", f);
        CELL.with(|c| c.set(prev));
        r
    }

    /// Runs one whole pass under a `bench.pass` root span.
    pub fn pass<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.span("bench.pass", || {
            let id = STACK.with(|s| *s.borrow().last().expect("the pass span is open"));
            self.root.store(id, Ordering::Relaxed);
            let r = f();
            self.root.store(NONE, Ordering::Relaxed);
            r
        })
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self.spans.lock().expect("no span writer panics while holding the lock"),
        )
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the part of its interval that its children cover (children on other
/// threads included, overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NONE {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = match children.get_mut(&s.id) {
            Some(kids) => covered_ns(kids, s.start_ns, s.end_ns),
            None => 0,
        };
        *out.entry(s.name).or_default() += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Total duration of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
}

/// One JSON line per span, tagged with the pass it belongs to.
pub fn to_jsonl(pass: &str, spans: &[Span], out: &mut String) {
    for s in spans {
        let parent = if s.parent == NONE { "null".to_string() } else { s.parent.to_string() };
        let cell = if s.cell == NONE { "null".to_string() } else { s.cell.to_string() };
        let _ = writeln!(
            out,
            "{{\"pass\":\"{pass}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"cell\":{cell},\
             \"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.thread, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: if parent == NONE { "root" } else { "kid" },
            cell: NONE,
            thread: 0,
            start_ns,
            end_ns,
        };
        // Children [10,40) and [30,60) overlap; [90,120) sticks out.
        let spans =
            [span(0, NONE, 0, 100), span(1, 0, 10, 40), span(2, 0, 30, 60), span(3, 0, 90, 120)];
        let t = self_times(&spans);
        assert_eq!(t["root"], 100 - 50 - 10);
        assert_eq!(t["kid"], 30 + 30 + 30);
    }
}
