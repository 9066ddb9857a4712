//! Observability glue for the ORB (the `instrument` feature), the
//! mechanism behind [`crate::probe`]: the probe decides which spans an
//! invocation records and takes their times from its `InvokeTiming`;
//! this module wires `pardis-obs` (spans, metrics, timeline) into the
//! ORB:
//!
//! * [`service_context`] / [`parse_service_context`] carry the active
//!   [`SpanContext`] across the wire in the request header's
//!   service-context slot. The context blob is always little-endian,
//!   independent of the message endianness — it is opaque to the
//!   GIOP layer and self-contained for the decoder;
//! * [`record`] and [`phase`] record a span on the calling rank,
//!   stamped with the rank's RTS vector clock.
//!
//! The RTS records its own metrics (collective wait times, epoch
//! changes) into the same per-rank registry.

use bytes::Bytes;
use pardis_cdr::{CdrReader, CdrWriter, Decode, Encode, Endian};
use pardis_obs::{recorder, SpanContext, SpanKind, SC_TRACING};
use pardis_rts::clock::ClockWitness;
use pardis_rts::Endpoint;
use std::time::Duration;

/// The service-context entries for an outgoing request: the active
/// invocation's [`SpanContext`], or nothing when no trace is active.
pub(crate) fn service_context(rts: &Endpoint) -> Vec<(u32, Bytes)> {
    match recorder::current() {
        Some((trace_id, _local_root)) => {
            let ctx = SpanContext {
                trace_id,
                // The receiver parents under the invocation root,
                // whose span id equals the trace id by construction.
                parent_span: trace_id,
                rank: rts.rank() as u32,
                epoch: rts.membership().epoch(),
            };
            let mut w = CdrWriter::new(Endian::Little);
            match ctx.encode(&mut w) {
                Ok(()) => vec![(SC_TRACING, w.into_shared())],
                Err(_) => Vec::new(),
            }
        }
        None => Vec::new(),
    }
}

/// Extract the tracing context from a request's service-context
/// entries. Malformed blobs are ignored (observability must never
/// fail a request).
pub(crate) fn parse_service_context(entries: &[(u32, Bytes)]) -> Option<SpanContext> {
    let (_, blob) = entries.iter().find(|(id, _)| *id == SC_TRACING)?;
    let mut r = CdrReader::new(blob, Endian::Little);
    SpanContext::decode(&mut r).ok()
}

/// Record a completed span on the calling rank: `ids` are its trace,
/// span and parent span ids, `rts` gives its membership epoch, and the
/// rank's clock witness its vector clock.
pub(crate) fn record(
    kind: SpanKind,
    name: &str,
    [trace_id, span_id, parent_span]: [u64; 3],
    rts: Option<&Endpoint>,
    bytes: u64,
    wait: Duration,
) {
    recorder::record(recorder::SpanEvent {
        kind,
        name: name.to_string(),
        trace_id,
        span_id,
        parent_span,
        epoch: rts.map_or(0, |rts| rts.membership().epoch()),
        bytes,
        clock: ClockWitness::snapshot().0,
        wait_ns: wait.as_nanos() as u64,
    });
}

/// Record a phase (marshal or transfer) under the calling rank's active
/// invocation, if any.
pub(crate) fn phase(
    kind: SpanKind,
    name: &str,
    rts: Option<&Endpoint>,
    bytes: u64,
    wait: Duration,
) {
    if let Some((trace_id, root)) = recorder::current() {
        record(
            kind,
            name,
            [trace_id, recorder::alloc_span_id(), root],
            rts,
            bytes,
            wait,
        );
    }
}
