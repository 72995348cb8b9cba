//! The traced run's span recorder.
//!
//! Each load thread owns a [`Tracer`] and records a span around every public
//! call it makes into the system: no locks, no I/O while measuring.  The
//! spans are merged and written out once the run is over.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.  Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Globally unique id: the recording thread in the top 16 bits, its
    /// sequence number below.
    pub id: u64,
    /// The span that caused this one, or 0 for a root.
    pub parent: u64,
    /// The request the span belongs to (unique per thread, like `id`).
    pub request: u64,
    /// Layer-qualified name such as `service.query` or `core.lookup`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread span recorder.  A disabled tracer records nothing, so the
/// same load loop serves the untraced and the traced phase.  An enabled
/// tracer records a request's spans only when the request starts at least
/// `min_gap` after the last recorded one, which bounds the spans a fast
/// workload keeps in memory without favouring any part of the run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    enabled: bool,
    min_gap_ns: u64,
    last_recorded_ns: Option<u64>,
    recording: bool,
    next_request: u64,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open {
    index: usize,
}

impl Tracer {
    /// A recorder for load thread `thread` measuring from `epoch`, keeping
    /// the spans of requests at least `min_gap` apart.
    pub fn new(epoch: Instant, thread: u16, enabled: bool, min_gap: Duration) -> Self {
        Self {
            epoch,
            thread: u64::from(thread) << 48,
            enabled,
            min_gap_ns: min_gap.as_nanos() as u64,
            last_recorded_ns: None,
            recording: false,
            next_request: 0,
            spans: Vec::new(),
        }
    }

    /// Whether this is a traced phase (whether or not the current request's
    /// spans are kept).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next request: allocates its id and decides whether its
    /// spans are kept.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        if self.enabled {
            let now = self.now();
            self.recording = self
                .last_recorded_ns
                .is_none_or(|last| now - last >= self.min_gap_ns);
            if self.recording {
                self.last_recorded_ns = Some(now);
            }
        }
        self.thread | self.next_request
    }

    /// Opens a span under `parent` (`None` for a root).
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        request: u64,
    ) -> Option<Open> {
        if !self.recording {
            return None;
        }
        let index = self.spans.len();
        let parent = parent.map_or(0, |p| self.spans[p.index].id);
        let now = self.now();
        self.spans.push(Span {
            id: self.thread | (index as u64 + 1),
            parent,
            request,
            name,
            start_ns: now,
            end_ns: now,
        });
        Some(Open { index })
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, span: Option<Open>) {
        if let Some(span) = span {
            let now = self.now();
            self.spans[span.index].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<Open>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, parent, request);
        let out = f();
        self.end(span);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Writes spans as tab-separated lines: id, parent, request, name, start and
/// end in nanoseconds.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{:x}\t{:x}\t{:x}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
