//! In-memory span tracing for the traced run.
//!
//! Each thread records into its own buffer: a span has a name, start and
//! end (nanoseconds since a shared origin), its parent (the span open on
//! the same thread when it began) and, for serve requests, the request
//! index. Nothing is written while the workload runs; [`take`] hands a
//! thread's spans to the caller, and [`write_jsonl`] writes them out once
//! the run is over. With tracing off (the default) [`span`] only checks a
//! thread-local flag.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in its thread's buffer.
    pub id: u32,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Serve request index (position in the request schedule).
    pub req: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer { origin: None, spans: Vec::new(), open: Vec::new() })
    };
}

/// Starts recording on the calling thread, timing from `origin`.
pub fn enable(origin: Instant) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.origin = Some(origin);
        t.spans.clear();
        t.open.clear();
    });
}

/// Stops recording on the calling thread and returns its spans.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.open.is_empty(), "spans still open: {:?}", t.open);
        t.origin = None;
        std::mem::take(&mut t.spans)
    })
}

/// Ends its span when dropped.
pub struct Guard {
    id: Option<u32>,
}

/// Opens a span on the calling thread (a no-op unless [`enable`]d).
pub fn span(name: &'static str, req: Option<u64>) -> Guard {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let origin = t.origin?;
        let id = t.spans.len() as u32;
        let parent = t.open.last().copied();
        let start_ns = origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            req,
        });
        t.open.push(id);
        Some(id)
    });
    Guard { id }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(origin) = t.origin else { return };
            let end_ns = origin.elapsed().as_nanos() as u64;
            t.spans[id as usize].end_ns = end_ns;
            if t.open.last() == Some(&id) {
                t.open.pop();
            }
        });
    }
}

/// Self time of every span, in span order: its duration minus the part
/// of its interval that its direct children cover (overlapping children
/// count once; a child sticking out of its parent counts only inside).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One thread's spans under a label (ids and parents are per thread).
pub type ThreadSpans = (String, Vec<Span>);

/// Writes spans as JSON lines, one thread's buffer after another.
pub fn write_jsonl(path: &Path, threads: &[ThreadSpans]) -> io::Result<()> {
    let mut out = String::new();
    for (thread, spans) in threads {
        for s in spans.iter() {
            let _ = write!(
                out,
                "{{\"thread\":\"{thread}\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.name, s.start_ns, s.end_ns
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push_str("}\n");
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(0, None, 0, 100),
            sp(1, Some(0), 10, 20),
            sp(2, Some(0), 15, 30),  // overlaps child 1: union 10..30
            sp(3, Some(0), 90, 120), // sticks out: only 90..100 counts
            sp(4, Some(2), 16, 18),  // grandchild: charged to span 2 only
            sp(5, None, 200, 210),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 10, 13, 30, 2, 10]);
    }

    #[test]
    fn self_time_of_a_fully_covered_parent_is_zero() {
        let spans = [sp(0, None, 5, 9), sp(1, Some(0), 5, 9)];
        assert_eq!(self_times_ns(&spans), vec![0, 4]);
    }

    #[test]
    fn recorded_spans_nest_on_one_thread() {
        std::thread::spawn(|| {
            assert!(span("off", None).id.is_none());
            enable(Instant::now());
            {
                let _outer = span("outer", Some(1));
                let _inner = span("inner", Some(1));
            }
            let _after = span("after", None);
            drop(_after);
            let spans = take();
            assert_eq!(spans.len(), 3);
            assert_eq!(spans[1].parent, Some(0));
            assert_eq!(spans[2].parent, None);
            assert!(spans[0].start_ns <= spans[1].start_ns);
            assert!(spans[1].end_ns <= spans[0].end_ns);
            assert!(take().is_empty());
        })
        .join()
        .expect("tracing thread");
    }
}
