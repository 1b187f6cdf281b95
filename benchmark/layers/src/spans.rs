//! The traced run's span recorder: one span per layer call, kept in
//! memory until the run ends, then written out as JSON lines.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{json_num, json_str};

/// Counts attached to a span (the work the call did).
pub type Counts = Vec<(&'static str, f64)>;

/// One recorded call into a layer.
pub struct Span {
    id: u64,
    parent: Option<u64>,
    request: u64,
    pub name: &'static str,
    start_ns: u64,
    end_ns: u64,
    counts: Counts,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    /// The count `key` of this span; NaN when the call did not record it,
    /// so a metric built from it cannot pass for measured.
    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Where a new span hangs: its parent span and the request it serves.
#[derive(Clone, Copy)]
pub struct Ctx {
    parent: Option<u64>,
    request: u64,
}

impl Ctx {
    pub fn request(request: u64) -> Self {
        Ctx {
            parent: None,
            request,
        }
    }
}

/// The in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn record(
        &self,
        id: u64,
        name: &'static str,
        ctx: Ctx,
        span: (Instant, Instant),
        counts: Counts,
    ) {
        let ns = |at: Instant| at.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent: ctx.parent,
            request: ctx.request,
            name,
            start_ns: ns(span.0),
            end_ns: ns(span.1),
            counts,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Records a span timed elsewhere (a client request).
    pub fn push(&self, name: &'static str, ctx: Ctx, span: (Instant, Instant), counts: Counts) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record(id, name, ctx, span, counts);
    }

    /// Runs `call` inside a span named `name`. `call` gets the context
    /// its own child spans hang from and returns its result with the
    /// counts to attach; a failed call is recorded too.
    pub fn span<T>(
        &self,
        name: &'static str,
        ctx: Ctx,
        call: impl FnOnce(Ctx) -> (Result<T, String>, Counts),
    ) -> Result<T, String> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let (result, counts) = call(Ctx {
            parent: Some(id),
            request: ctx.request,
        });
        self.record(id, name, ctx, (start, Instant::now()), counts);
        result
    }

    /// Every span recorded, in the order the calls ended.
    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a thread panicked while recording a span")
    }
}

/// A call's result with the counts it produced (none on failure).
pub fn counted<T, E: std::fmt::Display>(
    result: Result<T, E>,
    counts: impl FnOnce(&T) -> Counts,
) -> (Result<T, String>, Counts) {
    match result {
        Ok(value) => {
            let counts = counts(&value);
            (Ok(value), counts)
        }
        Err(e) => (Err(e.to_string()), Vec::new()),
    }
}

/// Writes the spans as JSON lines.
pub fn write(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::new();
    for span in spans {
        let counts: Vec<String> = span
            .counts
            .iter()
            .map(|(key, value)| format!("{}: {}", json_str(key), json_num(*value)))
            .collect();
        text.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \
             \"end_ns\": {}, \"counts\": {{{}}}}}\n",
            span.id,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.request,
            json_str(span.name),
            span.start_ns,
            span.end_ns,
            counts.join(", ")
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
