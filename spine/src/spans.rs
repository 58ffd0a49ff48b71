//! The span record of the traced run.
//!
//! Spans are taken in the benchmark's own code, around its calls into
//! each layer; nothing inside the engine is instrumented. A recorder is
//! a pre-allocated `Vec` owned by one thread, so recording a span is
//! two clock reads and a push. Everything is written out only after the
//! measured work has ended.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span in the same recorder, 0 for none.
    pub parent: u32,
    /// Index of the statement in its stream.
    pub stmt: u32,
}

/// One thread's spans for one pass (e.g. `wire.c0`, `peel.blade`).
pub struct Recorder {
    pub label: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by all recorders of a run, so their timestamps
    /// are comparable.
    pub fn new(label: impl Into<String>, epoch: Instant, capacity: usize) -> Recorder {
        Recorder {
            label: label.into(),
            epoch,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; returns its id, which children name as their
    /// parent and [`Recorder::close`] takes.
    pub fn open(&mut self, name: &'static str, parent: u32, stmt: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt,
        });
        self.spans.len() as u32
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now();
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        stmt: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, stmt);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"recorder\":\"{}\",\"id\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{},\"stmt_id\":{}}}",
                self.label,
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.stmt
            )?;
        }
        Ok(())
    }
}
