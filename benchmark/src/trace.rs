//! In-memory spans, written out once when a traced run ends.

use serde_json::{json, Value};
use std::path::Path;
use std::time::Instant;

/// "No parent": the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

/// One timed call into a layer. Spans of one operation share `qid`;
/// `parent` indexes the span that caused this one.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub qid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

/// The span store of one traced run.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, qid: u32, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            qid,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id`, returning its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        qid: u32,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, qid, parent);
        let r = f();
        self.close(id);
        r
    }
}

/// Write `spans` as one JSON array. `base` is the index of `spans[0]`
/// in the store it was cut from, so parents stay valid indices into
/// the written array (a parent before the cut is written as null).
pub fn write(spans: &[Span], base: u32, path: &Path) -> Result<(), String> {
    {
        let spans: Vec<Value> = spans
            .iter()
            .map(|s| {
                let parent = if s.parent == ROOT || s.parent < base {
                    Value::Null
                } else {
                    json!(s.parent - base)
                };
                json!({
                    "name": s.name,
                    "qid": s.qid,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": parent,
                })
            })
            .collect();
        std::fs::write(path, Value::Array(spans).to_string())
            .map_err(|e| format!("cannot write {path:?}: {e}"))
    }
}

/// Total duration of every span in `spans` called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .sum()
}

/// Number of spans in `spans` called `name`.
pub fn count(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}
