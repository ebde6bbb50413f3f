//! In-memory spans recorded around calls into the library's layers.
//!
//! Spans are kept in a vector for the whole run and serialised once at the
//! end, so tracing does no I/O while work is being measured.

use std::fmt::Write;
use std::time::Instant;

/// One timed interval: `name`, start and end in nanoseconds since the
/// tracer was created, and the index of the span that contains it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Total seconds of the closed spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// The spans as a JSON array of `{"id", "name", "parent", "start_ns",
    /// "end_ns"}` objects.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (id, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                sp.name, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]");
        s
    }
}
