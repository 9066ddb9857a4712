//! Centralized argument transfer (paper §3.2, figure 2).
//!
//! "The SPMD object makes available only one network connection to
//! clients. This connection is waited on by one of the SPMD threads which
//! we will subsequently call a communicating thread. … On invocation, the
//! computing threads of the client first synchronize, marshal arguments
//! and then the request is sent to the server as one message. … The
//! distributed arguments are gathered and scattered by the communicating
//! threads of the client and server as part of the marshaling or
//! unmarshaling process."
//!
//! The total invocation time decomposes as
//! `T = t_gather + t_pack + t_wire + t_unpack + t_scatter`, and both the
//! gather/scatter terms grow with the number of computing threads — the
//! effect Table 1 measures.

use crate::client::{PendingInvoke, Proxy};
use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::probe;
use crate::request::{ReplyBody, ReplyResult, RequestBody, RequestSpec};
use crate::server::{DistIn, ServerRequest};
use crate::transfer::{pack_into, relay_reply, status_to_result, unpack_copy};
use bytes::Bytes;
use pardis_net::giop::{GiopMessage, ReplyStatus, RequestHeader, TransferMode};
use std::time::Instant;

/// Client send phase: gather distributed arguments at the communicating
/// thread, marshal everything into one Request message, transmit.
pub(crate) fn client_send(
    ctx: &OrbCtx,
    proxy: &Proxy,
    spec: &RequestSpec,
    pending: &mut PendingInvoke,
) -> PardisResult<()> {
    probe::transfer_open(&ctx.rts, spec, pending.req_id, "centralized");
    // Gather each sending distributed argument at the communicating
    // thread through the RTS.
    let mut gathered: Vec<Option<Vec<Bytes>>> = Vec::with_capacity(spec.dist_args.len());
    let tg = Instant::now();
    for arg in &spec.dist_args {
        if arg.dir.sends() {
            if proxy.collective {
                gathered.push(ctx.rts.gather_bytes(0, arg.local.clone())?);
            } else {
                gathered.push(Some(vec![arg.local.clone()]));
            }
        } else {
            gathered.push(None);
        }
    }
    pending.timing.gather = tg.elapsed();

    // The communicating thread marshals and sends.
    if let Some(conn) = proxy.conn.as_ref() {
        let tp = Instant::now();
        let mut dist = Vec::with_capacity(spec.dist_args.len());
        for (arg, chunks) in spec.dist_args.iter().zip(&gathered) {
            let data = chunks.as_ref().map(|cs| {
                let total: usize = cs.iter().map(|c| c.len()).sum();
                let mut buf = Vec::with_capacity(total);
                for c in cs {
                    pack_into(&mut buf, c, arg.elem_size, ctx.translate);
                }
                Bytes::from(buf)
            });
            dist.push((arg.meta(), data));
        }
        let body = RequestBody {
            nondist: spec.nondist_body.clone(),
            dist,
        };
        let header = RequestHeader {
            request_id: pending.req_id,
            object_name: proxy.objref.name.clone(),
            operation: spec.operation.clone(),
            response_expected: spec.response_expected,
            reply_host: ctx.host.id(),
            reply_port: conn.local_port(),
            mode: TransferMode::Centralized,
            client_threads: if proxy.collective {
                ctx.nthreads() as u32
            } else {
                1
            },
            client_data_ports: vec![],
            service_context: probe::service_context(&ctx.rts),
        };
        let body_bytes = body.to_bytes(ctx.endian);
        let body_len = body_bytes.len();
        let msg = GiopMessage::Request(header, body_bytes);
        pending.timing.pack = tp.elapsed();
        probe::marshal(body_len, pending.timing.pack);

        let ts = Instant::now();
        conn.send(&msg, ctx.endian)?;
        pending.timing.send = ts.elapsed();
        let (op, wait) = (&spec.operation, pending.timing.send);
        probe::xfer(
            &ctx.rts,
            TransferMode::Centralized,
            op,
            body_len as u64,
            wait,
        );
    }
    Ok(())
}

/// Client receive phase: the communicating thread receives the single
/// Reply, relays status and non-distributed results, and scatters the
/// distributed results to the computing threads.
pub(crate) fn client_recv(
    ctx: &OrbCtx,
    proxy: &Proxy,
    pending: &PendingInvoke,
) -> PardisResult<ReplyResult> {
    let mut timing = pending.timing;
    let (header, body) = relay_reply(ctx, proxy, pending, &mut timing)?;
    status_to_result(&header.status)?;

    // Scatter each returning distributed argument from the communicating
    // thread (the only one holding inline data) to its owners.
    let mut dist_out = Vec::new();
    for (arg_idx, total_len, inline) in &body.dist_out {
        let d = pending.returning(*arg_idx, *total_len)?;
        let data = || {
            inline.as_ref().ok_or_else(|| {
                PardisError::BadDistArg("centralized reply missing inline data".into())
            })
        };
        let my_bytes = if proxy.collective {
            let ts = Instant::now();
            let chunks = if ctx.is_comm_thread() {
                Some(split_by_templ(data()?, &d.client_templ, d.elem_size)?)
            } else {
                None
            };
            let mine = ctx.rts.scatterv_bytes(0, chunks)?;
            timing.scatter += ts.elapsed();
            mine
        } else {
            data()?.clone()
        };
        let tu = Instant::now();
        let local = unpack_copy(&my_bytes, d.elem_size, ctx.translate);
        timing.recv_unpack += tu.elapsed();
        dist_out.push((*arg_idx, local));
    }

    Ok(ReplyResult {
        nondist_body: body.nondist,
        dist_out,
        timing,
    })
}

/// Split a full gathered buffer into per-thread chunks by a template.
fn split_by_templ(
    data: &Bytes,
    templ: &crate::dist::DistTempl,
    elem_size: usize,
) -> PardisResult<Vec<Bytes>> {
    if data.len() != templ.len() * elem_size {
        return Err(PardisError::BadDistArg(format!(
            "inline data {} bytes, template covers {}",
            data.len(),
            templ.len() * elem_size
        )));
    }
    Ok((0..templ.nthreads())
        .map(|t| {
            let r = templ.range(t);
            data.slice(r.start * elem_size..r.end * elem_size)
        })
        .collect())
}

/// Server side: materialize each thread's local parts of the distributed
/// arguments by scattering from the communicating thread, the only one
/// whose `body` holds inline data. The data is taken out of the body as
/// it is scattered, so it is freed before dispatch.
pub(crate) fn server_receive_args(
    ctx: &OrbCtx,
    body: &mut RequestBody,
    timing: &mut crate::request::InvokeTiming,
) -> PardisResult<Vec<DistIn>> {
    let mut out = Vec::with_capacity(body.dist.len());
    for (i, (meta, inline)) in body.dist.iter_mut().enumerate() {
        let server_templ = meta.server_templ();
        let client_templ = meta.client_templ();
        if server_templ.nthreads() != ctx.nthreads() {
            return Err(PardisError::BadDistArg(format!(
                "argument {i} server template names {} threads, machine has {}",
                server_templ.nthreads(),
                ctx.nthreads()
            )));
        }
        // Degraded machine: remap onto the survivor set (dead threads
        // own zero elements); identical on every rank by construction.
        let server_templ = ctx.effective_server_templ(server_templ)?;
        let local = if meta.dir.sends() {
            let ts = Instant::now();
            let chunks = if ctx.is_comm_thread() {
                let data = inline.take().ok_or_else(|| {
                    PardisError::BadDistArg(format!(
                        "centralized request missing inline data for argument {i}"
                    ))
                })?;
                Some(split_by_templ(&data, &server_templ, meta.elem_size)?)
            } else {
                None
            };
            let mine = ctx.rts.scatterv_bytes(0, chunks)?;
            timing.scatter += ts.elapsed();
            let tu = Instant::now();
            let local = unpack_copy(&mine, meta.elem_size, ctx.translate);
            timing.recv_unpack += tu.elapsed();
            local
        } else {
            vec![0u8; server_templ.count(ctx.rank()) * meta.elem_size]
        };
        out.push(DistIn {
            dir: meta.dir,
            elem_size: meta.elem_size,
            client_templ,
            server_templ,
            local,
        });
    }
    Ok(out)
}

/// Server side: gather the returning arguments at the communicating
/// thread and send one Reply message.
pub(crate) fn server_send_reply(
    ctx: &OrbCtx,
    header: &RequestHeader,
    sreq: &ServerRequest<'_>,
    endian: pardis_cdr::Endian,
    timing: &mut crate::request::InvokeTiming,
) -> PardisResult<()> {
    let mut dist_out = Vec::new();
    for i in 0..sreq.dist_count() {
        let d = sreq.dist_raw(i)?;
        if !d.dir.returns() {
            continue;
        }
        let tg = Instant::now();
        let gathered = ctx
            .rts
            .gather_bytes(0, Bytes::copy_from_slice(sreq.reply_local(i)))?;
        timing.gather += tg.elapsed();
        if let Some(chunks) = gathered {
            let tp = Instant::now();
            let mut buf = Vec::with_capacity(d.server_templ.len() * d.elem_size);
            for c in &chunks {
                pack_into(&mut buf, c, d.elem_size, ctx.translate);
            }
            timing.pack += tp.elapsed();
            dist_out.push((i as u32, d.server_templ.len(), Some(Bytes::from(buf))));
        }
    }

    if ctx.is_comm_thread() {
        let body = ReplyBody {
            nondist: sreq.reply_nondist_bytes(),
            dist_out,
        };
        timing.send += ctx.send_reply(header, ReplyStatus::NoException, body, endian)?;
    }
    Ok(())
}
