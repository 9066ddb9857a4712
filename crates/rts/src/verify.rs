//! Collective-consistency verification (the `instrument` feature).
//!
//! After `_spmd_bind`, every invocation on a distributed object must be
//! issued by **all** computing threads, in the same order, with the
//! same distribution templates (paper §2.2). A thread that diverges —
//! calls a different operation, skips one, or passes a differently
//! distributed argument — leaves the others blocked inside a gather or
//! barrier forever: a silent deadlock.
//!
//! This module turns that deadlock into a typed error. Before the
//! collective part of an invocation runs, every rank fingerprints its
//! call site (operation, transfer mode, argument shapes) and the ranks
//! agree on the fingerprint in one relay round through rank 0, the
//! same round the message-relayed barrier runs: each rank's token
//! ([`tags::MBAR_IN`](crate::tags::MBAR_IN)) carries its fingerprint,
//! rank 0 compares them against its own, and the release
//! ([`tags::MBAR_OUT`](crate::tags::MBAR_OUT)) carries the verdict. On
//! divergence, every rank returns [`RtsError::CollectiveMismatch`]
//! naming the divergent thread (the lowest-ranked one, if several
//! diverge) and both call sites.
//!
//! No rank can send its next fingerprint before it has received this
//! round's verdict, so in every round rank 0 compares fingerprints of
//! the same round: the rounds need no sequence number. The agreement
//! is a barrier with a payload, so it takes the place of the
//! invocation's entry barrier and costs no extra messages. It runs
//! through `Endpoint::collective` as the collective `"agree"`, so the
//! lock graph sees a collective node.

use crate::endpoint::Endpoint;
use crate::error::{RtsError, RtsResult};
use bytes::Bytes;

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extend an FNV-1a hash with `bytes`.
#[inline]
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash a byte string from the offset basis.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// One rank's view of a collective call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Hash over everything that must agree (op id, mode, template
    /// hashes, payload length class, ...).
    pub hash: u64,
    /// Human-readable call-site description for the mismatch report,
    /// e.g. ``op 3 `diffusion` mode=Distributed len_class=10``.
    pub site: String,
}

impl Endpoint {
    /// Agree with every other rank that this rank's next collective has
    /// fingerprint `fp`. Returns `Ok(())` when all ranks issued the
    /// same collective; [`RtsError::CollectiveMismatch`] on every rank
    /// when any rank diverged.
    ///
    /// Must be called by every live rank (it is itself a collective).
    pub fn agree_collective(&self, fp: &Fingerprint) -> RtsResult<()> {
        let dead = self.dead_mask();
        let verdict = self.collective("agree", || {
            self.relay_round(dead, encode_fingerprint(fp), |tokens| {
                for (rank, token) in tokens {
                    // A rank that entered a plain barrier instead sends
                    // an empty token: that is a divergence too.
                    match decode_fingerprint(&token) {
                        Some((hash, _)) if hash == fp.hash => {}
                        Some((_, theirs)) => return encode_mismatch(rank, &fp.site, &theirs),
                        None => return encode_mismatch(rank, &fp.site, "<no fingerprint>"),
                    }
                }
                encode_ok()
            })
        })?;
        decode_verdict(&verdict)
    }
}

fn encode_fingerprint(fp: &Fingerprint) -> Bytes {
    let mut out = Vec::with_capacity(8 + fp.site.len());
    out.extend_from_slice(&fp.hash.to_le_bytes());
    out.extend_from_slice(fp.site.as_bytes());
    Bytes::from(out)
}

/// The `(hash, site)` a token carries; `None` if it carries none.
fn decode_fingerprint(payload: &[u8]) -> Option<(u64, String)> {
    if payload.len() < 8 {
        return None;
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&payload[..8]);
    let hash = u64::from_le_bytes(a);
    let site = String::from_utf8_lossy(&payload[8..]).into_owned();
    Some((hash, site))
}

fn encode_ok() -> Bytes {
    Bytes::from_static(&[0])
}

fn encode_mismatch(rank: usize, reference: &str, divergent: &str) -> Bytes {
    let mut out = vec![1u8];
    out.extend_from_slice(&(rank as u64).to_le_bytes());
    out.extend_from_slice(&(reference.len() as u64).to_le_bytes());
    out.extend_from_slice(reference.as_bytes());
    out.extend_from_slice(divergent.as_bytes());
    Bytes::from(out)
}

fn decode_verdict(payload: &[u8]) -> RtsResult<()> {
    match payload.first() {
        Some(0) => Ok(()),
        Some(1) if payload.len() >= 17 => {
            let mut a = [0u8; 8];
            a.copy_from_slice(&payload[1..9]);
            let thread = u64::from_le_bytes(a) as usize;
            a.copy_from_slice(&payload[9..17]);
            let ref_len = u64::from_le_bytes(a) as usize;
            let rest = &payload[17..];
            let (reference, divergent) = if ref_len <= rest.len() {
                (
                    String::from_utf8_lossy(&rest[..ref_len]).into_owned(),
                    String::from_utf8_lossy(&rest[ref_len..]).into_owned(),
                )
            } else {
                (String::new(), String::new())
            };
            Err(RtsError::CollectiveMismatch {
                thread,
                mine: reference,
                theirs: divergent,
            })
        }
        _ => Err(RtsError::Internal(
            "malformed collective-verify verdict".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    fn fp(hash: u64, site: &str) -> Fingerprint {
        Fingerprint {
            hash,
            site: site.to_string(),
        }
    }

    #[test]
    fn matching_fingerprints_agree() {
        let results = Domain::run(4, |ep| {
            for i in 0..3u64 {
                ep.agree_collective(&fp(0xAB00 + i, "op `step`")).unwrap();
            }
            true
        });
        assert_eq!(results, vec![true; 4]);
    }

    #[test]
    fn divergent_rank_is_named_on_every_thread() {
        let results = Domain::run(3, |ep| {
            let f = if ep.rank() == 2 {
                fp(0xBAD, "op 9 `reset`")
            } else {
                fp(0x600D, "op 4 `step`")
            };
            ep.agree_collective(&f)
        });
        for r in &results {
            match r {
                Err(RtsError::CollectiveMismatch {
                    thread,
                    mine,
                    theirs,
                }) => {
                    assert_eq!(*thread, 2);
                    assert!(mine.contains("step"), "{mine}");
                    assert!(theirs.contains("reset"), "{theirs}");
                }
                other => panic!("expected CollectiveMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_rank_in_a_plain_barrier_is_named() {
        // The barrier and the agreement share the relay round, so a
        // rank that calls one while the others call the other is
        // reported instead of leaving them blocked.
        let results = Domain::run(3, |ep| {
            if ep.rank() == 1 {
                ep.barrier();
                None
            } else {
                Some(ep.agree_collective(&fp(7, "op `step`")))
            }
        });
        for r in results.into_iter().flatten() {
            assert!(
                matches!(&r, Err(RtsError::CollectiveMismatch { thread: 1, theirs, .. }) if theirs == "<no fingerprint>"),
                "{r:?}"
            );
        }
    }

    #[test]
    fn mismatch_does_not_poison_later_collectives() {
        // After a detected mismatch every rank has consumed its verify
        // traffic; the domain stays usable.
        let results = Domain::run(2, |ep| {
            let f = if ep.rank() == 0 {
                fp(1, "a")
            } else {
                fp(2, "b")
            };
            assert!(ep.agree_collective(&f).is_err());
            ep.agree_collective(&fp(3, "c")).is_ok()
        });
        assert_eq!(results, vec![true, true]);
    }

    #[test]
    fn fnv1a_is_stable_and_order_sensitive() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
        let h = fnv1a_extend(fnv1a(b"op"), b"mode");
        assert_eq!(h, fnv1a(b"opmode"));
    }
}
