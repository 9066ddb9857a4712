//! The RTS instrumentation spine: the one place where the `instrument`
//! feature hooks the run-time system.
//!
//! * **Messages.** Every message carries a `Stamp`: its sender's
//!   vector clock, ticked by the send. The receiver joins the stamp
//!   when the message is handed to its caller (see the `clock` module).
//! * **Collectives.** Every collective runs its body through
//!   `Endpoint::collective`. That call enters the lock graph's
//!   collective node, notes a membership-epoch change since the rank's
//!   last collective (the `rts.epoch_changes` counter), and records the
//!   collective's wait time (the `rts.collective_wait_ns` histogram).
//!   The metrics go to the calling thread's `pardis_obs::metrics`
//!   block, and are dropped on a thread that never bound one (the ORB
//!   binds each computing thread in `OrbCtx::init`).
//! * **Locks.** `track_lock` feeds a lock acquisition to the
//!   lock-order graph.
//!
//! `std::sync::Barrier` sends no messages and would carry no clock, so
//! while instrumentation is compiled in, `Endpoint::barrier` takes
//! the message-relayed survivor barrier (`INSTRUMENTED`).
//!
//! Without the feature `Stamp` is `()` and every hook is an empty
//! inline function.

use crate::endpoint::{Endpoint, Message};
use crate::error::RtsResult;

/// Whether instrumentation is compiled in.
pub(crate) const INSTRUMENTED: bool = cfg!(feature = "instrument");

/// What a message carries besides its payload.
#[cfg(feature = "instrument")]
pub(crate) type Stamp = crate::clock::VClock;
/// What a message carries besides its payload: nothing.
#[cfg(not(feature = "instrument"))]
pub(crate) type Stamp = ();

/// Feed a lock acquisition to the lock-order graph. Bind the result so
/// the tracked window covers the guard's lifetime:
/// `let _t = track_lock("...");`.
#[cfg(feature = "instrument")]
pub(crate) use crate::lockgraph::track as track_lock;

/// Lock tracking is compiled out: nothing to record.
#[cfg(not(feature = "instrument"))]
pub(crate) fn track_lock(_class: &'static str) -> Untracked {
    Untracked
}

/// The token of an untracked lock acquisition.
#[cfg(not(feature = "instrument"))]
pub(crate) struct Untracked;

impl Endpoint {
    /// The stamp for an outgoing message: a send is an event of the
    /// sender, so it ticks the sender's own component.
    #[inline]
    pub(crate) fn stamp(&self) -> Stamp {
        #[cfg(feature = "instrument")]
        {
            use crate::clock::ClockWitness;
            ClockWitness::init(self.rank(), self.size());
            ClockWitness::stamp()
        }
    }

    /// Hand `m` to the caller, joining the clock it carries.
    #[inline]
    pub(crate) fn deliver(&self, m: Message) -> Message {
        let stamp: &Stamp = &m.stamp;
        #[cfg(feature = "instrument")]
        {
            use crate::clock::ClockWitness;
            ClockWitness::init(self.rank(), self.size());
            ClockWitness::join(stamp);
        }
        let _ = stamp;
        m
    }

    /// Run the body of the collective `name` (called by every
    /// collective after its argument and liveness checks).
    #[inline]
    pub(crate) fn collective<T>(
        &self,
        name: &'static str,
        body: impl FnOnce() -> RtsResult<T>,
    ) -> RtsResult<T> {
        #[cfg(feature = "instrument")]
        {
            let _wait = crate::lockgraph::collective_enter(name);
            let start = std::time::Instant::now();
            self.note_epoch();
            let out = body();
            if out.is_ok() {
                let wait_ns = start.elapsed().as_nanos() as u64;
                pardis_obs::metrics::observe("rts.collective_wait_ns", wait_ns);
            }
            out
        }
        #[cfg(not(feature = "instrument"))]
        {
            let _ = name;
            body()
        }
    }

    /// Note a membership-epoch change since this rank's last
    /// collective: an ordering event, so it ticks the clock. Each live
    /// rank notes each change exactly once, on entering its next
    /// collective.
    #[cfg(feature = "instrument")]
    fn note_epoch(&self) {
        use crate::clock::ClockWitness;
        ClockWitness::init(self.rank(), self.size());
        if ClockWitness::observe_epoch(self.membership().epoch()) {
            pardis_obs::metrics::add("rts.epoch_changes", 1);
        }
    }
}

#[cfg(all(test, feature = "instrument"))]
mod tests {
    use crate::Domain;
    use bytes::Bytes;

    /// The calling rank's `rts.collective_wait_ns` count and
    /// `rts.epoch_changes` counter.
    fn counts() -> (u64, u64) {
        let m = pardis_obs::metrics::current().expect("rank bound");
        let waits = m.histogram("rts.collective_wait_ns").map(|h| h.count());
        (waits.unwrap_or(0), m.get("rts.epoch_changes").unwrap_or(0))
    }

    #[test]
    fn collectives_and_epoch_changes_reach_the_rank_metrics() {
        let seen = Domain::run(3, |ep| {
            pardis_obs::init_rank("probe-test", 0, ep.rank());
            // Three collectives; no rank leaves the closing barrier
            // before every rank has entered it, so the death below
            // cannot reach any rank's count early.
            ep.broadcast(0, Some(Bytes::from_static(b"x"))).unwrap();
            ep.gather_bytes(0, Bytes::new()).unwrap();
            ep.barrier();
            let before = counts();
            // Rank 2 dies, and tells the others by message so both
            // enter their next collective under the new epoch.
            if ep.rank() == 2 {
                ep.membership().mark_dead(2);
                ep.send(0, 1, Bytes::new()).unwrap();
                ep.send(1, 1, Bytes::new()).unwrap();
                return (before, None);
            }
            ep.recv(2, 1).unwrap();
            ep.barrier();
            (before, Some(counts()))
        });
        for (rank, (before, after)) in seen.into_iter().enumerate() {
            assert_eq!(before, (3, 0), "rank {rank} before the death");
            if rank < 2 {
                assert_eq!(after, Some((4, 1)), "live rank {rank} after the death");
            }
        }
    }
}
