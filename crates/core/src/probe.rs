//! The ORB instrumentation spine: the one place where the `instrument`
//! feature hooks the request path (§3.2: synchronize, agree on the
//! request, transfer, synchronize), the ORB counterpart of
//! `pardis_rts::probe`.
//!
//! The ORB calls a small typed event set unconditionally: rank init,
//! bind, invoke begin/end, transfer open/close, phase (marshal, xfer),
//! buffer and window access, window fence and free, counter, finding and service
//! context. Span times come from the invocation's [`InvokeTiming`], not
//! from clocks of their own. The mechanisms stay in `race` and
//! `analyze` (happens-before analysis, PA101/PA103 findings) and `obs`
//! (spans, metrics). Without the feature every event is an empty inline
//! function, and [`BufId`] and the span tokens are zero-sized.

use crate::error::PardisResult;
use crate::request::{InvokeTiming, ReplyResult, RequestSpec};
use bytes::Bytes;
use pardis_net::giop::TransferMode;
use pardis_net::Host;
use pardis_rts::{Endpoint, Window};
use std::time::{Duration, Instant};
#[cfg(feature = "instrument")]
use {crate::obs, pardis_obs::recorder::alloc_span_id, pardis_obs::SpanKind};

/// Identity of a distributed-sequence local buffer for the race
/// detector: a per-thread creation counter, never an address, so seeded
/// replays assign identical ids. A clone owns fresh storage, so it gets
/// a fresh id; ids are analyzer metadata, so all compare equal.
#[derive(Debug)]
pub struct BufId {
    #[cfg(feature = "instrument")]
    id: u64,
}

impl BufId {
    /// A fresh identity.
    pub(crate) fn fresh() -> BufId {
        BufId {
            #[cfg(feature = "instrument")]
            id: crate::race::new_buf_id(),
        }
    }

    /// The same identity, for an argument that transfers this buffer.
    pub(crate) fn share(&self) -> BufId {
        BufId {
            #[cfg(feature = "instrument")]
            id: self.id,
        }
    }

    /// No identity: an untracked buffer (e.g. a plain slice argument).
    pub fn untracked() -> BufId {
        BufId {
            #[cfg(feature = "instrument")]
            id: 0,
        }
    }
}

impl Clone for BufId {
    fn clone(&self) -> BufId {
        BufId::fresh()
    }
}

impl PartialEq for BufId {
    fn eq(&self, _: &BufId) -> bool {
        true
    }
}

/// What an invocation carries from [`invoke_begin`] to [`invoke_end`]:
/// its operation name and this rank's root span id.
#[derive(Debug, Clone)]
pub(crate) struct InvokeToken {
    #[cfg(feature = "instrument")]
    op: String,
    #[cfg(feature = "instrument")]
    root: u64,
}

/// The client's tracing context of a request being served; after
/// [`dispatch`] its parent span is this rank's dispatch span.
pub(crate) struct ServeToken {
    #[cfg(feature = "instrument")]
    sc: Option<pardis_obs::SpanContext>,
}

/// Bind the calling thread's identity before anything is recorded on it.
#[inline]
pub(crate) fn rank_init(host: &Host, rts: &Endpoint) {
    #[cfg(feature = "instrument")]
    {
        crate::race::set_actor(&host.name(), rts.rank());
        pardis_obs::init_rank(&host.name(), host.id().0, rts.rank());
    }
    let _ = (host, rts);
}

/// A bind of `name`, begun at `started`, completed.
#[inline]
pub(crate) fn bind(rts: &Endpoint, name: &str, started: Instant) {
    #[cfg(feature = "instrument")]
    {
        let ids = [0, alloc_span_id(), 0];
        obs::record(SpanKind::Bind, name, ids, Some(rts), 0, started.elapsed());
    }
    let _ = (rts, name, started);
}

/// The entry synchronization of a collective invocation: a barrier.
/// Instrumented, the barrier is the message-relayed one, and it
/// carries the PA101 agreement that every thread issues the same
/// invocation, which turns divergence into a typed error instead of a
/// hang.
#[inline]
pub(crate) fn invoke_sync(
    rts: &Endpoint,
    spec: &RequestSpec,
    mode: TransferMode,
) -> PardisResult<()> {
    #[cfg(feature = "instrument")]
    rts.agree_collective(&crate::analyze::fingerprint(spec, mode))?;
    #[cfg(not(feature = "instrument"))]
    {
        let _ = (spec, mode);
        rts.barrier();
    }
    Ok(())
}

/// Invocation `req_id` of `op` begins. The thread holding the
/// connection roots the trace (`roots_trace`): its span id is the trace
/// id. The other threads hang their phases off a per-rank root span.
#[inline]
pub(crate) fn invoke_begin(op: &str, req_id: u64, roots_trace: bool) -> InvokeToken {
    let _ = (op, req_id, roots_trace);
    #[cfg(feature = "instrument")]
    let (op, root) = {
        pardis_obs::metrics::add("orb.requests", 1);
        let root = if roots_trace { req_id } else { alloc_span_id() };
        pardis_obs::recorder::set_current(req_id, root);
        (op.to_string(), root)
    };
    InvokeToken {
        #[cfg(feature = "instrument")]
        op,
        #[cfg(feature = "instrument")]
        root,
    }
}

/// Invocation `req_id` completed, either way, after `total` (its
/// result's `timing.total`).
#[inline]
pub(crate) fn invoke_end(
    rts: &Endpoint,
    req_id: u64,
    token: InvokeToken,
    result: &PardisResult<ReplyResult>,
    total: Duration,
) {
    #[cfg(feature = "instrument")]
    {
        if matches!(result, Err(crate::PardisError::Timeout)) {
            pardis_obs::metrics::add("orb.timeouts", 1);
        }
        let parent = if token.root == req_id { 0 } else { req_id };
        let ids = [req_id, token.root, parent];
        obs::record(SpanKind::Invoke, &token.op, ids, Some(rts), 0, total);
        pardis_obs::recorder::clear_current();
    }
    #[cfg(not(feature = "instrument"))]
    let _ = (rts, req_id, token, result, total);
}

/// The active invocation's request body, `bytes` long, was marshaled in
/// `pack`.
#[inline]
pub(crate) fn marshal(bytes: usize, pack: Duration) {
    #[cfg(feature = "instrument")]
    obs::phase(SpanKind::Marshal, "request-body", None, bytes as u64, pack);
    let _ = (bytes, pack);
}

/// This rank sent `bytes` of `op`'s request by the `mode` engine in
/// `wait`.
#[inline]
pub(crate) fn xfer(rts: &Endpoint, mode: TransferMode, op: &str, bytes: u64, wait: Duration) {
    #[cfg(feature = "instrument")]
    {
        let (kind, metric) = match mode {
            TransferMode::Centralized => (SpanKind::XferCentralized, "xfer.centralized.bytes"),
            TransferMode::MultiPort => (SpanKind::XferMultiport, "xfer.multiport.bytes"),
        };
        pardis_obs::metrics::add(metric, bytes);
        obs::phase(kind, op, Some(rts), bytes, wait);
    }
    let _ = (rts, mode, op, bytes, wait);
}

/// A multi-port fragment of `bytes` was marshaled.
#[inline]
pub(crate) fn fragment(bytes: usize) {
    #[cfg(feature = "instrument")]
    pardis_obs::metrics::observe("xfer.multiport.frag_bytes", bytes as u64);
    let _ = bytes;
}

/// The client buffers of request `req_id`'s distributed arguments are
/// in flight until [`transfer_close`]: the `mode` engine reads `in`
/// arguments and writes `out`/`inout` ones.
#[inline]
pub(crate) fn transfer_open(rts: &Endpoint, spec: &RequestSpec, req_id: u64, mode: &'static str) {
    #[cfg(feature = "instrument")]
    for arg in &spec.dist_args {
        let epoch = rts.membership().epoch();
        crate::race::open_transfer(arg.buf_id.id, arg.dir, &spec.operation, req_id, mode, epoch);
    }
    let _ = (rts, spec, req_id, mode);
}

/// Request `req_id`'s transfer is over: later accesses are ordered
/// after it.
#[inline]
pub(crate) fn transfer_close(req_id: u64) {
    #[cfg(feature = "instrument")]
    crate::race::close_transfer(req_id);
    let _ = req_id;
}

/// The application reads (or, if `write`, writes) the local buffer
/// `buf` through `what`.
#[inline]
pub(crate) fn buffer_access(buf: &BufId, write: bool, what: &str) {
    #[cfg(feature = "instrument")]
    {
        use crate::race::AccessKind::{Read, Write};
        crate::race::on_access(buf.id, if write { Write } else { Read }, what);
    }
    let _ = (buf, write, what);
}

/// A one-sided access to `[offset, offset + len)` of `target`'s part of
/// `win`.
#[inline]
pub(crate) fn window_access(win: &Window, target: usize, offset: usize, len: usize, write: bool) {
    #[cfg(feature = "instrument")]
    crate::race::on_window_access(win.id(), target, offset, len, write);
    let _ = (win, target, offset, len, write);
}

/// `win` was fenced: the fence's barrier made every access visible, so
/// rank 0 drains the epoch's access log before a second barrier
/// releases the others into the next epoch.
#[inline]
pub(crate) fn window_fence(rts: &Endpoint, win: &Window, thread: usize) {
    #[cfg(feature = "instrument")]
    {
        if thread == 0 {
            crate::race::window_fence(win.id());
        }
        rts.barrier();
    }
    let _ = (rts, win, thread);
}

/// `win` is about to be freed: a barrier closes the final exposure
/// epoch, then rank 0 drains its access log; `free`'s own barrier
/// follows.
#[inline]
pub(crate) fn window_free(rts: &Endpoint, win: &Window, thread: usize) {
    #[cfg(feature = "instrument")]
    {
        rts.barrier();
        if thread == 0 {
            crate::race::window_fence(win.id());
        }
    }
    let _ = (rts, win, thread);
}

/// Add one to the metric `name`.
#[inline]
pub(crate) fn counter(name: &'static str) {
    #[cfg(feature = "instrument")]
    pardis_obs::metrics::add(name, 1);
    let _ = name;
}

/// Record the runtime finding `code` if `check` (run only when
/// instrumented) describes one.
#[inline]
pub(crate) fn finding(code: &'static str, check: impl FnOnce() -> Option<String>) {
    #[cfg(feature = "instrument")]
    if let Some(message) = check() {
        crate::analyze::record(code, message);
    }
    #[cfg(not(feature = "instrument"))]
    let _ = (code, check);
}

/// The service-context entries for an outgoing request: the active
/// invocation's tracing context, if any.
#[inline]
pub(crate) fn service_context(rts: &Endpoint) -> Vec<(u32, Bytes)> {
    #[cfg(feature = "instrument")]
    {
        obs::service_context(rts)
    }
    #[cfg(not(feature = "instrument"))]
    {
        let _ = rts;
        Vec::new()
    }
}

/// A request carrying service-context `entries` is about to be served.
#[inline]
pub(crate) fn serve_begin(entries: &[(u32, Bytes)]) -> ServeToken {
    let _ = entries;
    ServeToken {
        #[cfg(feature = "instrument")]
        sc: obs::parse_service_context(entries),
    }
}

/// This rank dispatched `op` (`bytes` of non-distributed arguments),
/// `started` when the request arrived. The dispatch span hangs off the
/// client's invocation root, stitching both machines into one trace.
#[inline]
pub(crate) fn dispatch(
    rts: &Endpoint,
    token: &mut ServeToken,
    op: &str,
    bytes: usize,
    started: Instant,
) {
    #[cfg(feature = "instrument")]
    if let Some(sc) = &mut token.sc {
        let ids = [sc.trace_id, alloc_span_id(), sc.parent_span];
        let wait = started.elapsed();
        obs::record(SpanKind::Dispatch, op, ids, Some(rts), bytes as u64, wait);
        sc.parent_span = ids[1];
    }
    let _ = (rts, token, op, bytes, started);
}

/// This rank's part of `op`'s reply is out. The reply span, under the
/// dispatch span, takes the serve timing's pack + send.
#[inline]
pub(crate) fn reply(rts: &Endpoint, token: &ServeToken, op: &str, timing: &InvokeTiming) {
    #[cfg(feature = "instrument")]
    {
        pardis_obs::metrics::add("orb.served", 1);
        if let Some(sc) = &token.sc {
            let ids = [sc.trace_id, alloc_span_id(), sc.parent_span];
            let wait = timing.pack + timing.send;
            obs::record(SpanKind::Reply, op, ids, Some(rts), 0, wait);
        }
    }
    let _ = (rts, token, op, timing);
}

#[cfg(test)]
impl BufId {
    /// The id, when buffers are tracked (when instrumented).
    pub(crate) fn tracked(&self) -> Option<u64> {
        #[cfg(feature = "instrument")]
        {
            Some(self.id)
        }
        #[cfg(not(feature = "instrument"))]
        {
            None
        }
    }
}
