//! # pardis-rts — the PARDIS generic run-time system interface
//!
//! PARDIS does not talk to a parallel application's computing threads
//! directly; it goes through a *generic run-time system interface* that
//! "encompasses the functionality of message-passing libraries" (§2.3 of
//! the paper — tested there against MPI and Tulip). In this crate that
//! interface is [`Endpoint`]'s own methods, implemented in-process: a
//! [`Domain`] of `n` ranks, each an OS thread holding an [`Endpoint`],
//! communicating over lock-free channels — the moral equivalent of
//! MPICH compiled for shared memory, which is exactly how the paper ran
//! its client and server machines.
//!
//! The interface surface is deliberately MPI-shaped:
//!
//! * point-to-point [`Endpoint::send`] / [`Endpoint::recv`] with
//!   `(source, tag)` matching,
//! * collectives: barrier, broadcast, gather(v), scatter(v), allgather,
//!   allreduce, alltoallv,
//! * all collectives use linear (root-relayed) algorithms, matching
//!   mid-90s MPICH behaviour on small SMPs — this is what makes the cost
//!   of the centralized method's gather/scatter grow with thread count,
//!   the effect Table 1 of the paper measures.
//!
//! ```
//! use pardis_rts::Domain;
//!
//! let eps = Domain::new(4);
//! let handles: Vec<_> = eps
//!     .into_iter()
//!     .map(|ep| {
//!         std::thread::spawn(move || {
//!             // Every rank contributes rank*10; rank 0 gathers.
//!             let mine = vec![(ep.rank() as f64) * 10.0];
//!             let all = ep.gather_f64(0, &mine).unwrap();
//!             if ep.rank() == 0 {
//!                 assert_eq!(all.unwrap(), vec![0.0, 10.0, 20.0, 30.0]);
//!             }
//!             ep.barrier();
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

#[cfg(feature = "instrument")]
pub mod clock;
pub mod collectives;
pub mod domain;
pub mod endpoint;
pub mod error;
#[cfg(feature = "instrument")]
pub mod lockgraph;
pub mod membership;
pub mod probe;
pub mod reduce;
pub mod rma;
#[cfg(feature = "instrument")]
pub mod verify;

pub use domain::Domain;
pub use endpoint::{Endpoint, Message};
pub use error::{RtsError, RtsResult};
pub use membership::{Liveness, Membership, MembershipView, PhiDetector};
pub use reduce::ReduceOp;
pub use rma::Window;

/// Message tag: distinguishes independent conversations between the same
/// pair of ranks, exactly as in MPI.
pub type Tag = u32;

/// Tags at or above this value are reserved for internal use by the
/// collective algorithms; user code must stay below it.
pub const RESERVED_TAG_BASE: Tag = 0xF000_0000;

/// Every reserved tag the RTS sends on, in one table. Each protocol has
/// its own tags, so a mis-nested program fails loudly instead of
/// cross-matching another protocol's messages.
pub mod tags {
    use crate::{Tag, RESERVED_TAG_BASE};
    /// Broadcast payload (root -> rank).
    pub const BCAST: Tag = RESERVED_TAG_BASE + 1;
    /// Gather contribution (rank -> root).
    pub const GATHER: Tag = RESERVED_TAG_BASE + 2;
    /// Scatter chunk (root -> rank).
    pub const SCATTER: Tag = RESERVED_TAG_BASE + 3;
    /// All-gather redistribution (rank 0 -> rank).
    pub const ALLGATHER: Tag = RESERVED_TAG_BASE + 4;
    /// Reduction contribution (rank -> rank 0).
    pub const REDUCE: Tag = RESERVED_TAG_BASE + 5;
    /// Personalized all-to-all chunk (rank -> rank).
    pub const ALLTOALL: Tag = RESERVED_TAG_BASE + 6;
    /// Relay-round token (live rank -> rank 0): empty for the
    /// message-relayed barrier, the call-site fingerprint for the
    /// collective-consistency agreement.
    pub const MBAR_IN: Tag = RESERVED_TAG_BASE + 7;
    /// Relay-round release (rank 0 -> live ranks): empty for the
    /// barrier, the verdict for the agreement.
    pub const MBAR_OUT: Tag = RESERVED_TAG_BASE + 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_base_leaves_user_space() {
        const { assert!(RESERVED_TAG_BASE > 1_000_000) };
    }

    #[test]
    fn reserved_tags_are_pairwise_distinct() {
        use tags::*;
        let all = [
            BCAST, GATHER, SCATTER, ALLGATHER, REDUCE, ALLTOALL, MBAR_IN, MBAR_OUT,
        ];
        for (i, a) in all.iter().enumerate() {
            assert!(
                *a >= RESERVED_TAG_BASE,
                "tag {a:#x} below the reserved base"
            );
            for b in &all[i + 1..] {
                assert_ne!(a, b, "reserved tag {a:#x} used twice");
            }
        }
    }
}
