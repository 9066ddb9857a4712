//! In-memory spans recorded by the traced run around the calls the
//! benchmark makes into the runtime, written out as JSON at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A client thread's `Proxy::invoke`.
    Invoke,
    /// A server thread's `OrbCtx::serve_one`.
    Serve,
    /// The servant upcall inside `serve_one`.
    Upcall,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Invoke => "client.invoke",
            SpanKind::Serve => "server.serve_one",
            SpanKind::Upcall => "server.upcall",
        }
    }

    fn code(self) -> u64 {
        match self {
            SpanKind::Invoke => 1,
            SpanKind::Serve => 2,
            SpanKind::Upcall => 3,
        }
    }
}

/// One timed interval of one invocation on one thread.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// Invocation sequence number within its stand-up, warm-up included.
    /// The server serves requests in the order the client issues them,
    /// so the same number names the same invocation on both machines.
    pub invocation: u64,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span ids are a pure function of (invocation, kind, rank), so a
/// parent can be named without a lookup. Zero means "no parent".
fn span_id(invocation: u64, kind: SpanKind, rank: usize) -> u64 {
    ((invocation + 1) << 8) | (kind.code() << 4) | rank as u64
}

impl Span {
    pub fn new(
        kind: SpanKind,
        invocation: u64,
        rank: usize,
        epoch: Instant,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            kind,
            invocation,
            rank,
            start_ns: start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
        }
    }

    pub fn id(&self) -> u64 {
        span_id(self.invocation, self.kind, self.rank)
    }

    /// The span that caused this one: a served request hangs off the
    /// communicating client thread's invocation, an upcall off its
    /// thread's `serve_one`.
    pub fn parent(&self) -> u64 {
        match self.kind {
            SpanKind::Invoke => 0,
            SpanKind::Serve => span_id(self.invocation, SpanKind::Invoke, 0),
            SpanKind::Upcall => span_id(self.invocation, SpanKind::Serve, self.rank),
        }
    }
}

/// Spans as a JSON document, ordered by start time.
pub fn to_json(workload: &str, seed: u64, spans: &mut [Span]) -> String {
    spans.sort_by_key(|s| (s.start_ns, s.id()));
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"time_unit\": \"ns\", \"spans\": [\n"
    );
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"invocation\": {}, \"rank\": {}, \"start\": {}, \"end\": {}}}{sep}",
            s.kind.name(),
            s.id(),
            s.parent(),
            s.invocation,
            s.rank,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}
