//! The RTS instrumentation spine: the one place where the `analyze`
//! and `obs` features hook the run-time system.
//!
//! * **Messages.** Every message carries a `Stamp`: its sender's
//!   vector clock, ticked by the send. The receiver joins the stamp
//!   when the message is handed to its caller (see the `clock` module).
//! * **Collectives.** Every collective runs its body through
//!   `Endpoint::collective`. That call enters the lock graph's
//!   collective node (`analyze`), notes a membership-epoch change
//!   since the rank's last collective, and times the collective for
//!   the observer (`obs`).
//! * **Locks** (`analyze`). `track_lock` feeds a lock acquisition to
//!   the lock-order graph.
//! * **Observer** (`obs`). The RTS never depends on the observability
//!   crate; the dependency points the other way. The ORB layer
//!   installs a process-wide `RtsObserver` with `set_observer`,
//!   and the hooks above notify it. Its callbacks fire on the rank's
//!   own thread, so an observer may use thread-local state keyed by
//!   rank.
//!
//! `std::sync::Barrier` sends no messages and would carry no clock, so
//! while instrumentation is compiled in, `Endpoint::barrier` takes
//! the message-relayed survivor barrier (`INSTRUMENTED`).
//!
//! Without either feature `Stamp` is `()` and every hook is an empty
//! inline function.

use crate::endpoint::{Endpoint, Message};
use crate::error::RtsResult;

/// Whether instrumentation is compiled in.
pub(crate) const INSTRUMENTED: bool = cfg!(any(feature = "analyze", feature = "obs"));

/// What a message carries besides its payload.
#[cfg(any(feature = "analyze", feature = "obs"))]
pub(crate) type Stamp = crate::clock::VClock;
/// What a message carries besides its payload: nothing.
#[cfg(not(any(feature = "analyze", feature = "obs")))]
pub(crate) type Stamp = ();

/// Feed a lock acquisition to the lock-order graph. Bind the result so
/// the tracked window covers the guard's lifetime:
/// `let _t = track_lock("...");`.
#[cfg(feature = "analyze")]
pub(crate) use crate::lockgraph::track as track_lock;

/// Lock tracking is compiled out: nothing to record.
#[cfg(not(feature = "analyze"))]
pub(crate) fn track_lock(_class: &'static str) -> Untracked {
    Untracked
}

/// The token of an untracked lock acquisition.
#[cfg(not(feature = "analyze"))]
pub(crate) struct Untracked;

impl Endpoint {
    /// The stamp for an outgoing message: a send is an event of the
    /// sender, so it ticks the sender's own component.
    #[inline]
    pub(crate) fn stamp(&self) -> Stamp {
        #[cfg(any(feature = "analyze", feature = "obs"))]
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
        #[cfg(any(feature = "analyze", feature = "obs"))]
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
        #[cfg(feature = "analyze")]
        let _wait = crate::lockgraph::collective_enter(name);
        #[cfg(feature = "obs")]
        let start = std::time::Instant::now();
        #[cfg(any(feature = "analyze", feature = "obs"))]
        self.note_epoch();
        let out = body();
        #[cfg(feature = "obs")]
        if out.is_ok() {
            let wait_ns = start.elapsed().as_nanos() as u64;
            observer::notify(|o| o.collective_complete(name, self.rank(), wait_ns));
        }
        let _ = name;
        out
    }

    /// Note a membership-epoch change since this rank's last
    /// collective: an ordering event, so it ticks the clock.
    #[cfg(any(feature = "analyze", feature = "obs"))]
    fn note_epoch(&self) {
        use crate::clock::ClockWitness;
        ClockWitness::init(self.rank(), self.size());
        let epoch = self.membership().epoch();
        let crossed = ClockWitness::observe_epoch(epoch);
        #[cfg(feature = "obs")]
        if crossed {
            observer::notify(|o| o.epoch_changed(self.rank(), epoch));
        }
        let _ = crossed;
    }
}

#[cfg(feature = "obs")]
pub use observer::{set_observer, RtsObserver};

#[cfg(feature = "obs")]
mod observer {
    use std::sync::OnceLock;

    /// Callbacks the RTS fires on observability-relevant events.
    pub trait RtsObserver: Send + Sync {
        /// A collective completed on `rank` after `wait_ns` wall-clock
        /// nanoseconds (including any blocking on peers).
        fn collective_complete(&self, name: &'static str, rank: usize, wait_ns: u64) {
            let _ = (name, rank, wait_ns);
        }

        /// `rank` observed a membership-epoch transition to `epoch`
        /// (each live rank observes each transition exactly once, on
        /// entering its next collective).
        fn epoch_changed(&self, rank: usize, epoch: u64) {
            let _ = (rank, epoch);
        }
    }

    static OBSERVER: OnceLock<Box<dyn RtsObserver>> = OnceLock::new();

    /// Install the process-wide observer. The first installation wins;
    /// later calls are ignored (observers are expected to be installed
    /// once, before any domain runs).
    pub fn set_observer(observer: Box<dyn RtsObserver>) {
        let _ = OBSERVER.set(observer);
    }

    /// Call `f` on the installed observer, if any.
    pub(super) fn notify(f: impl FnOnce(&dyn RtsObserver)) {
        if let Some(o) = OBSERVER.get() {
            f(o.as_ref());
        }
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::Domain;
    use std::sync::atomic::{AtomicU64, Ordering};

    static SEEN: AtomicU64 = AtomicU64::new(0);

    struct Counting;
    impl RtsObserver for Counting {
        fn collective_complete(&self, _name: &'static str, _rank: usize, _wait_ns: u64) {
            SEEN.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn collectives_reach_the_installed_observer() {
        set_observer(Box::new(Counting));
        set_observer(Box::new(Counting)); // second install ignored
        let before = SEEN.load(Ordering::Relaxed);
        Domain::run(1, |ep| ep.barrier());
        // Other tests' collectives may land in between; ours did.
        assert!(SEEN.load(Ordering::Relaxed) > before);
    }
}
