//! Distributed-argument transfer engines.
//!
//! The paper's §3 investigates two ways of moving distributed arguments
//! between the computing threads of a parallel client and a parallel
//! server:
//!
//! * [`centralized`] — one network connection; arguments are gathered at
//!   a *communicating thread*, travel inside the request/reply message,
//!   and are scattered on the far side (figure 2),
//! * [`multiport`] — every computing thread owns a port; the invocation
//!   header still travels centrally, but argument data flows directly
//!   thread-to-thread according to the overlap of the two distribution
//!   templates (figure 3).
//!
//! This module holds the pieces both engines share: marshaling copies
//! (with optional data translation), fragment reassembly, and phase
//! timing.

pub mod centralized;
pub mod multiport;

use crate::client::{PendingInvoke, Proxy};
use crate::error::{PardisError, PardisResult};
use crate::orb::OrbCtx;
use crate::request::{InvokeTiming, ReplyBody};
use bytes::Bytes;
use pardis_net::giop::{GiopMessage, ReplyHeader, ReplyStatus, TransferHeader};
use std::time::Instant;

/// Prefix used when the communicating thread converts a local receive
/// timeout into a synthetic relayed Reply, so every computing thread of
/// the client resolves to the same [`PardisError::Timeout`].
pub(crate) const SYNTH_TIMEOUT: &str = "TIMEOUT:";
/// Same, for transport failures → [`PardisError::CommFailure`].
pub(crate) const SYNTH_COMM_FAILURE: &str = "COMM_FAILURE:";

/// Map a reply status to a client-visible result. Synthetic statuses
/// fabricated by the communicating thread on a local receive failure
/// are converted back to their typed CORBA-style errors.
pub(crate) fn status_to_result(status: &ReplyStatus) -> PardisResult<()> {
    match status {
        ReplyStatus::NoException => Ok(()),
        ReplyStatus::UserException(name) => Err(PardisError::UserException(name.clone())),
        ReplyStatus::SystemException(msg) => {
            if msg.strip_prefix(SYNTH_TIMEOUT).is_some() {
                Err(PardisError::Timeout)
            } else if let Some(rest) = msg.strip_prefix(SYNTH_COMM_FAILURE) {
                Err(PardisError::CommFailure(rest.trim().to_string()))
            } else {
                Err(PardisError::SystemException(msg.clone()))
            }
        }
        ReplyStatus::MembershipChange {
            epoch,
            dead,
            survivors,
        } => Err(PardisError::MembershipChange {
            epoch: *epoch,
            dead: dead.clone(),
            survivors: survivors.clone(),
        }),
    }
}

/// Build the synthetic status the communicating thread relays when its
/// own receive phase failed.
fn synthetic_status(e: &PardisError) -> ReplyStatus {
    match e {
        PardisError::Timeout => ReplyStatus::SystemException(format!("{SYNTH_TIMEOUT} {e}")),
        other => ReplyStatus::SystemException(format!("{SYNTH_COMM_FAILURE} {other}")),
    }
}

/// Marshal `src` into a fresh buffer. This is the "pack" cost of the
/// paper's measurements: a full copy of the data, with an extra per-word
/// byte swap when data translation is enabled (the §3.3 remark about
/// heterogeneous encodings).
pub(crate) fn pack_copy(src: &[u8], elem_size: usize, translate: bool) -> Vec<u8> {
    let mut out = src.to_vec();
    if translate {
        swap_in_place(&mut out, elem_size);
    }
    out
}

/// Append `src` into `dst`, translating if asked. Used when packing
/// several gathered chunks into one message body.
pub(crate) fn pack_into(dst: &mut Vec<u8>, src: &[u8], elem_size: usize, translate: bool) {
    let start = dst.len();
    dst.extend_from_slice(src);
    if translate {
        swap_in_place(&mut dst[start..], elem_size);
    }
}

/// Unmarshal: copy `src` out of a message, undoing translation.
pub(crate) fn unpack_copy(src: &[u8], elem_size: usize, translate: bool) -> Vec<u8> {
    // Symmetric swap: translating twice restores the original.
    pack_copy(src, elem_size, translate)
}

/// The client's Reply to `pending`, on every computing thread. The
/// thread holding the connection receives it (timed into
/// `recv_unpack`); a local receive failure (deadline exceeded,
/// connection reset, undecodable reply) becomes a synthetic error Reply.
/// On a collective binding it relays the Reply stripped of inline data,
/// so the other computing threads resolve to the same outcome instead
/// of hanging. Only the receiving thread's body keeps inline data.
pub(crate) fn relay_reply(
    ctx: &OrbCtx,
    proxy: &Proxy,
    pending: &PendingInvoke,
    timing: &mut InvokeTiming,
) -> PardisResult<(ReplyHeader, ReplyBody)> {
    let Some(conn) = proxy.conn.as_ref() else {
        // Non-communicating threads learn the outcome by relay.
        let wire = ctx.rts.broadcast(0, None)?;
        return match GiopMessage::decode(&wire)? {
            GiopMessage::Reply(h, b) => Ok((h, ReplyBody::decode(&b, ctx.endian)?)),
            other => Err(PardisError::Net(format!(
                "unexpected relayed reply: {other:?}"
            ))),
        };
    };
    let tr = Instant::now();
    let received = pending
        .send_error
        .clone()
        .map(Err)
        .unwrap_or_else(|| proxy.recv_reply(conn, pending.req_id, pending.deadline))
        .and_then(|(header, body_bytes)| Ok((header, ReplyBody::decode(&body_bytes, ctx.endian)?)));
    let (header, body) = received.unwrap_or_else(|e| {
        let request_id = pending.req_id;
        let status = synthetic_status(&e);
        (ReplyHeader { request_id, status }, ReplyBody::default())
    });
    timing.recv_unpack += tr.elapsed();
    if proxy.collective {
        let stripped = ReplyBody {
            nondist: body.nondist.clone(),
            dist_out: body
                .dist_out
                .iter()
                .map(|(i, l, _)| (*i, *l, None))
                .collect(),
        };
        let wire =
            GiopMessage::Reply(header.clone(), stripped.to_bytes(ctx.endian)).encode(ctx.endian)?;
        ctx.rts.broadcast(0, Some(wire))?;
    }
    Ok((header, body))
}

fn swap_in_place(buf: &mut [u8], elem_size: usize) {
    match elem_size {
        8 => pardis_cdr::byteswap::swap_f64_bytes_in_place(buf),
        4 => pardis_cdr::byteswap::swap_i32_bytes_in_place(buf),
        _ => {} // octets need no translation
    }
}

impl OrbCtx {
    /// Collect `expected` DataTransfer fragments for `(req_id, arg)` from
    /// this thread's data port, buffering any fragments that belong to
    /// other requests or arguments.
    pub(crate) fn recv_fragments(
        &self,
        req_id: u64,
        arg: u32,
        expected: usize,
        deadline: Option<Instant>,
    ) -> PardisResult<Vec<(TransferHeader, Bytes)>> {
        let mut got = Vec::with_capacity(expected);
        // Drain anything already buffered.
        {
            let mut frags = self.frags.borrow_mut();
            if let Some(q) = frags.get_mut(&(req_id, arg)) {
                while got.len() < expected {
                    match q.pop_front() {
                        Some(f) => got.push(f),
                        None => break,
                    }
                }
                if q.is_empty() {
                    frags.remove(&(req_id, arg));
                }
            }
        }
        // Then read from the port.
        while got.len() < expected {
            let dg = self
                .data_port
                .recv_deadline(deadline)
                .map_err(PardisError::from)?;
            match GiopMessage::decode(&dg.payload)? {
                GiopMessage::DataTransfer(h, body) => {
                    if h.request_id == req_id && h.arg_index == arg {
                        got.push((h, body));
                    } else {
                        self.frags
                            .borrow_mut()
                            .entry((h.request_id, h.arg_index))
                            .or_default()
                            .push_back((h, body));
                    }
                }
                other => {
                    return Err(PardisError::Net(format!(
                        "unexpected message on data port: {other:?}"
                    )))
                }
            }
        }
        Ok(got)
    }

    /// Assemble received fragments into this thread's local part of a
    /// sequence laid out by `templ`. Fragments carry global element
    /// offsets; the local buffer covers `templ.range(self.rank())`.
    pub(crate) fn assemble_local(
        &self,
        frags: &[(TransferHeader, Bytes)],
        templ: &crate::dist::DistTempl,
        elem_size: usize,
    ) -> PardisResult<Vec<u8>> {
        let my = templ.range(self.rank());
        let mut local = vec![0u8; (my.end - my.start) * elem_size];
        for (h, body) in frags {
            let off = h.offset as usize;
            let count = h.count as usize;
            if off < my.start || off + count > my.end {
                return Err(PardisError::BadDistArg(format!(
                    "fragment [{off}, {}) outside local range [{}, {})",
                    off + count,
                    my.start,
                    my.end
                )));
            }
            if body.len() != count * elem_size {
                return Err(PardisError::BadDistArg(format!(
                    "fragment body {} bytes, header promises {}",
                    body.len(),
                    count * elem_size
                )));
            }
            let lo = (off - my.start) * elem_size;
            let dst = &mut local[lo..lo + body.len()];
            dst.copy_from_slice(body);
            if self.translate {
                swap_in_place(dst, elem_size);
            }
        }
        Ok(local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_without_translation_is_copy() {
        let src = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(pack_copy(&src, 8, false), src.to_vec());
    }

    #[test]
    fn pack_with_translation_swaps() {
        let src = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let packed = pack_copy(&src, 8, true);
        assert_eq!(packed, vec![8, 7, 6, 5, 4, 3, 2, 1]);
        // unpack restores
        assert_eq!(unpack_copy(&packed, 8, true), src.to_vec());
    }

    #[test]
    fn pack_into_appends_translated() {
        let mut dst = vec![0xFFu8];
        pack_into(&mut dst, &[1, 2, 3, 4], 4, true);
        assert_eq!(dst, vec![0xFF, 4, 3, 2, 1]);
    }

    #[test]
    fn octets_never_translate() {
        let src = [9u8, 8, 7];
        assert_eq!(pack_copy(&src, 1, true), src.to_vec());
    }
}
