//! In-memory span recorder for the traced runs.
//!
//! A span covers one call from this benchmark into a layer's public
//! function. Spans of one op share its id; an op's root span (named
//! `op`) is the parent of the layer calls made inside the op's timed
//! window, and calls made after the window (the decomposed prepare
//! stages, the route replay) are recorded as roots of their own under
//! the same op id. Nothing is written until [`Tracer::write_jsonl`].

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id of the op the span belongs to.
    pub op: u64,
    /// Layer call name (`lang.parse`, `core.execute`, …).
    pub name: &'static str,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer sharing `other`'s clock (for per-thread recorders that
    /// are merged later).
    pub fn with_base(other: &Tracer) -> Self {
        Tracer {
            base: other.base,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span that [`Tracer::close`] ends; returns its index.
    pub fn open(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        if parent.is_none() {
            // Grow the buffer before a root starts, so no reallocation
            // lands inside an op between its layer spans.
            self.spans.reserve(64);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Ends the span `index` opened.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.open(op, name, parent);
        let out = f();
        self.close(index);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer, re-basing parent
    /// indices (both must share one clock, see [`Tracer::with_base`]).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Total nanoseconds of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// For every root span named `root`: the share of its duration
    /// covered by its direct children. Returns the 1st percentile and
    /// the mean over the roots; the percentile rather than the minimum,
    /// because a host stall that happens to fall between two spans
    /// leaves one op in a thousand partly unattributed.
    pub fn attributed_share(&self, root: &str) -> (f64, f64) {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.ns();
            }
        }
        let mut shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root && s.parent.is_none() && s.ns() > 0)
            .map(|(i, s)| covered[i] as f64 / s.ns() as f64)
            .collect();
        let mean = crate::stats::mean(&shares);
        (crate::stats::quantile(&mut shares, 0.01), mean)
    }

    /// Writes the spans as JSON lines (`op`, `name`, `parent`,
    /// `start_ns`, `end_ns`) after a header line naming the run.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_attribute_their_parent() {
        let mut t = Tracer::new();
        let root = t.open(0, "op", None);
        t.span(0, "a", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let (p01, mean) = t.attributed_share("op");
        assert!(p01 > 0.5 && p01 <= 1.0, "{p01}");
        assert_eq!(p01, mean);
        let mut other = Tracer::with_base(&t);
        let r = other.open(1, "op", None);
        other.close(r);
        t.absorb(other);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, None);
    }
}
