//! Harness-side spans around the calls into each layer.
//!
//! Spans are pushed into a pre-allocated vector while the run measures and
//! written out as JSON lines when it ends. A span's self time is its
//! duration minus the part of that interval its children cover. Spans
//! *inside* the program are a later issue; these bracket public calls only.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::adapter::QueryStats;

pub type SpanId = u32;

/// Parent of a span that has none.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Position of the operation in the segment's input stream; spans of one
    /// operation share it.
    pub op_seq: u64,
    /// Work counts of a query span, measured where the work happened.
    pub stats: Option<QueryStats>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_seq: u64) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            op_seq,
            stats: None,
        });
        id
    }

    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Records a span whose two clock readings the caller already took.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_seq: u64,
        start: Instant,
        dur_ns: u64,
        stats: Option<QueryStats>,
    ) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            op_seq,
            stats,
        });
    }

    /// Runs `f` under a span and returns its result with the span's duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent, 0);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans whose name starts with `prefix`.
    pub fn count_prefixed(&self, prefix: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .count()
    }

    /// Writes one JSON object per span, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own_ns) in self.spans.iter().zip(own) {
            write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"op_seq\":{}",
                s.id,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                s.name,
                s.start_ns,
                s.end_ns,
                own_ns,
                s.op_seq
            )?;
            if let Some(q) = &s.stats {
                write!(
                    out,
                    ",\"seeks\":{},\"scanned\":{},\"reported\":{},\"blocks_decoded\":{},\"blocks_pruned\":{}",
                    q.seeks, q.scanned, q.reported, q.blocks_decoded, q.blocks_pruned
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus what its children cover.
/// The driver is one thread, so the children of a span never overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let covered = s
                .end_ns
                .min(p.end_ns)
                .saturating_sub(s.start_ns.max(p.start_ns));
            let slot = &mut own[s.parent as usize];
            *slot = slot.saturating_sub(covered);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            op_seq: 0,
            stats: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 50, 70),
            span(3, 1, 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        // A child that outlives its parent covers only the shared interval.
        let spans = vec![span(0, NO_PARENT, 0, 100), span(1, 0, 90, 130)];
        assert_eq!(self_times(&spans), vec![90, 40]);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut t = Tracer::with_capacity(4);
        let root = t.begin("root", NO_PARENT, 0);
        let ((), child_ns) = t.span("child", root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let root_ns = t.end(root);
        assert!(child_ns >= 2_000_000 && root_ns >= child_ns);
        assert_eq!(t.spans()[1].parent, root);
        assert_eq!(t.count_prefixed("ch"), 1);
    }
}
