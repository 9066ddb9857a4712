//! Per-rank vector clocks for happens-before analysis and causal span
//! ordering (the `instrument` feature).
//!
//! The clocks follow Fidge and Mattern: every RTS message carries its
//! sender's clock, so the happens-before model holds exactly the edges
//! the real messages create and costs no extra messages.
//!
//! * A send is an event of the sender: it ticks the sender's own
//!   component and stamps the message with the result.
//! * A receive joins the stamp into the receiver's clock when the
//!   message is handed to its caller, not when it is parked out of
//!   order. Joins therefore follow program order.
//! * A membership epoch change ticks the clock, noted on entry to the
//!   rank's next collective: crossing an epoch is an ordering event
//!   even when no data moves.
//!
//! A collective thus orders exactly what its messages order. After a
//! gather the root is ordered after every contributor, but two
//! contributors stay concurrent; after a barrier (relayed through
//! rank 0 while instrumentation is compiled in) every rank is ordered
//! after every other rank's pre-barrier events. The hooks that do
//! this live in [`crate::probe`].
//!
//! The clock state lives in a thread-local [`ClockWitness`], matching
//! the SPMD model (each computing thread owns exactly one rank). The
//! witness is what instrumented code above the RTS consults: an access
//! stamped with the witness's snapshot is ordered after every event
//! that reached this rank through a message, and concurrent with
//! anything that did not. Because sends and joins happen in program
//! order, and epochs change at deterministic points under a seeded
//! fault plan, every snapshot replays bit-for-bit.

use std::cell::RefCell;

/// A vector clock: component `r` counts rank `r`'s ordering events
/// (message sends, recorded accesses, epoch transitions).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct VClock(pub Vec<u64>);

impl VClock {
    /// The zero clock for a domain of `size` ranks.
    pub fn zero(size: usize) -> VClock {
        VClock(vec![0; size])
    }

    /// Advance `rank`'s component by one.
    pub fn tick(&mut self, rank: usize) {
        if rank >= self.0.len() {
            self.0.resize(rank + 1, 0);
        }
        self.0[rank] += 1;
    }

    /// Component-wise maximum with `other` (the happens-before join).
    pub fn join(&mut self, other: &VClock) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, &theirs) in self.0.iter_mut().zip(&other.0) {
            *mine = (*mine).max(theirs);
        }
    }

    /// Whether `self` happens-before-or-equals `other` (every component
    /// ≤; missing components count as 0).
    pub fn leq(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &c)| c <= other.0.get(i).copied().unwrap_or(0))
    }
}

struct WitnessState {
    rank: usize,
    clock: VClock,
    last_epoch: u64,
}

thread_local! {
    static WITNESS: RefCell<Option<WitnessState>> = const { RefCell::new(None) };
}

/// The calling thread's clock witness. All methods are static: the
/// state is thread-local, lazily initialized by the rank's first RTS
/// send, receive or collective (or an explicit [`ClockWitness::init`]).
pub struct ClockWitness;

impl ClockWitness {
    /// Bind the calling thread to `rank` in a domain of `size` ranks,
    /// starting from the zero clock if the thread had no witness yet.
    pub fn init(rank: usize, size: usize) {
        WITNESS.with(|w| {
            let mut w = w.borrow_mut();
            match &mut *w {
                Some(s) => {
                    s.rank = rank;
                    if s.clock.0.len() < size {
                        s.clock.0.resize(size, 0);
                    }
                }
                None => {
                    *w = Some(WitnessState {
                        rank,
                        clock: VClock::zero(size),
                        last_epoch: 0,
                    });
                }
            }
        });
    }

    /// Snapshot of the calling thread's clock; empty if the thread has
    /// no witness yet.
    pub fn snapshot() -> VClock {
        WITNESS.with(|w| {
            w.borrow()
                .as_ref()
                .map(|s| s.clock.clone())
                .unwrap_or_default()
        })
    }

    /// Advance the calling thread's own component (one ordering event).
    pub fn tick() {
        WITNESS.with(|w| {
            if let Some(s) = w.borrow_mut().as_mut() {
                let r = s.rank;
                s.clock.tick(r);
            }
        });
    }

    /// Advance the calling thread's own component and return the new
    /// clock: the stamp of one event (a send, a recorded access).
    pub fn stamp() -> VClock {
        ClockWitness::tick();
        ClockWitness::snapshot()
    }

    /// Observe the domain membership epoch; a change since the last
    /// observation is an ordering event and ticks the clock. Returns
    /// whether this observation crossed an epoch boundary.
    pub fn observe_epoch(epoch: u64) -> bool {
        WITNESS.with(|w| {
            if let Some(s) = w.borrow_mut().as_mut() {
                if s.last_epoch != epoch {
                    s.last_epoch = epoch;
                    let r = s.rank;
                    s.clock.tick(r);
                    return true;
                }
            }
            false
        })
    }

    /// Join `other` into the calling thread's clock (a receive).
    pub fn join(other: &VClock) {
        WITNESS.with(|w| {
            if let Some(s) = w.borrow_mut().as_mut() {
                s.clock.join(other);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;
    use bytes::Bytes;

    #[test]
    fn join_is_componentwise_max() {
        let mut a = VClock(vec![3, 0, 5]);
        a.join(&VClock(vec![1, 4]));
        assert_eq!(a.0, vec![3, 4, 5]);
        let mut short = VClock(vec![1]);
        short.join(&VClock(vec![0, 0, 9]));
        assert_eq!(short.0, vec![1, 0, 9]);
    }

    #[test]
    fn leq_orders_clocks() {
        assert!(VClock(vec![1, 2]).leq(&VClock(vec![1, 2, 0])));
        assert!(!VClock(vec![2, 0]).leq(&VClock(vec![1, 9])));
        assert!(VClock::default().leq(&VClock(vec![0])));
    }

    #[test]
    fn gather_orders_the_root_and_barrier_orders_everyone() {
        let results = Domain::run(3, |ep| {
            ep.barrier();
            ClockWitness::tick(); // one local event on every rank
            let pre_gather = ClockWitness::snapshot();
            let _ = ep.gather_f64(0, &[1.0]).unwrap();
            let post_gather = ClockWitness::snapshot();
            ClockWitness::tick();
            let pre_barrier = ClockWitness::snapshot();
            ep.barrier();
            (
                pre_gather,
                post_gather,
                pre_barrier,
                ClockWitness::snapshot(),
            )
        });
        let root_post_gather = &results[0].1;
        for (pre_gather, _, pre_barrier, _) in &results {
            assert!(pre_gather.leq(root_post_gather), "{results:?}");
            for (_, _, _, post_barrier) in &results {
                assert!(pre_barrier.leq(post_barrier), "{results:?}");
            }
        }
        // A gather does not order two contributors.
        assert!(!results[2].0.leq(&results[1].1), "{results:?}");
    }

    #[test]
    fn collectives_send_no_extra_messages() {
        // Inside the RTS a rank's own component counts its sends, so its
        // growth across a collective is the number of messages sent:
        // it must equal the featureless algorithm's count.
        let sent = Domain::run(4, |ep| {
            let rank = ep.rank();
            let own = || ClockWitness::snapshot().0.get(rank).copied().unwrap_or(0);
            let mut at = vec![own()];
            ep.broadcast(1, (rank == 1).then(|| Bytes::from_static(b"x")))
                .unwrap();
            at.push(own());
            ep.gather_bytes(2, Bytes::new()).unwrap();
            at.push(own());
            ep.scatterv_bytes(0, (rank == 0).then(|| vec![Bytes::new(); 4]))
                .unwrap();
            at.push(own());
            ep.alltoallv_bytes(vec![Bytes::new(); 4]).unwrap();
            at.push(own());
            at.windows(2).map(|w| w[1] - w[0]).collect::<Vec<u64>>()
        });
        for (rank, counts) in sent.iter().enumerate() {
            let root = |r: usize| if rank == r { 3 } else { 0 };
            assert_eq!(counts, &[root(1), u64::from(rank != 2), root(0), 3]);
        }
    }

    #[test]
    fn clocks_replay_deterministically() {
        let run = || {
            Domain::run(2, |ep| {
                for _ in 0..5 {
                    ep.barrier();
                }
                let _ = ep
                    .broadcast(0, (ep.rank() == 0).then(|| Bytes::from_static(b"x")))
                    .unwrap();
                ClockWitness::snapshot()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epoch_change_ticks_clock() {
        let results = Domain::run(2, |ep| {
            ep.barrier();
            let before = ClockWitness::snapshot();
            if true {
                // Observe a synthetic epoch bump without a collective.
                ClockWitness::observe_epoch(ep.membership().epoch() + 1);
            }
            (before, ClockWitness::snapshot())
        });
        for (rank, (before, after)) in results.into_iter().enumerate() {
            assert_eq!(after.0[rank], before.0[rank] + 1);
        }
    }
}
