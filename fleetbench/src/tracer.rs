//! In-memory spans recorded around the benchmark's calls into the
//! workspace. A span has a name, a start and end (ns since the tracer's
//! origin), an optional parent span and a device id. A tracer that is
//! off records nothing, so the untraced runs share the traced code path.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub device: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A per-thread span recorder (spans from other threads are merged
/// with [`Tracer::absorb`]).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// A recording tracer whose clock starts at `origin`.
    pub fn on(origin: Instant) -> Tracer {
        Tracer {
            on: true,
            origin,
            spans: RefCell::new(Vec::new()),
        }
    }

    /// A tracer on the same clock and with the same setting as `self`,
    /// for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, device: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            device,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(i) = id {
            let now = self.now_ns();
            self.spans.borrow_mut()[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        device: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, device);
        let out = f();
        self.close(id);
        out
    }

    /// Moves another thread's spans in (they keep their own parents,
    /// re-indexed).
    pub fn absorb(&self, other: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        spans.extend(other.spans.into_inner().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Summed self time of the spans named `name`, seconds: each span's
    /// duration minus the part of it its child spans cover.
    pub fn total_self(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        self_times(&spans)
            .into_iter()
            .zip(spans.iter())
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"device\": {}}}",
                s.name, s.start_ns, s.end_ns, s.device
            )?;
        }
        out.flush()
    }
}

/// Every span's self time, seconds: its duration minus the union of its
/// children's intervals (clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            device: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 1000, None),
            span(100, 300, Some(0)),
            span(200, 400, Some(0)),  // overlaps the first child
            span(900, 1200, Some(0)), // runs past the parent
            span(150, 250, Some(1)),
        ];
        let t = self_times(&spans);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(ns(t[0]), 1000 - 300 - 100);
        assert_eq!(ns(t[1]), 200 - 100);
        assert_eq!(ns(t[2]), 200);
        assert_eq!(ns(t[4]), 100);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::off();
        let id = t.open("x", None, 1);
        t.close(id);
        assert_eq!(t.span("y", None, 2, || 7), 7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn forked_spans_merge_with_reindexed_parents() {
        let t = Tracer::on(Instant::now());
        t.span("a", None, 0, || ());
        let f = t.fork();
        let outer = f.open("b", None, 1);
        f.span("c", outer, 1, || ());
        f.close(outer);
        t.absorb(f);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans.borrow()[2].parent, Some(1));
        assert!(t.total_self("b") <= t.total("b"));
    }
}
