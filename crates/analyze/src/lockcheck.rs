//! Pass 3: wait-for-graph deadlock detection (findings PA102, PA203).
//!
//! [`pardis_rts::lockgraph`] records, behind the `instrument` feature, a
//! wait-for order graph whose nodes are both **locks** (by class) and
//! **pending collectives** (barrier, broadcast, …). A cycle is a
//! potential deadlock even if no run has hit it: pure-lock cycles
//! classify as PA102, cycles mixing a lock with a pending collective
//! as PA203 — the class the old lock-only graph could not see.

use pardis_rts::lockgraph;

pub use pardis_rts::lockgraph::{cycle_code, Node};

/// Report from one wait-for-graph check.
#[derive(Debug)]
pub struct LockReport {
    /// Every instrumented node the workload entered (locks and
    /// collectives).
    pub classes: Vec<Node>,
    /// Wait-for-order edges observed (held/entered node → entered
    /// node). The RTS takes its locks one at a time, so a clean run
    /// records nodes but few or no edges.
    pub edges: Vec<(Node, Node)>,
    /// Cycles found; each is a node path whose last element repeats
    /// the first. Classify with [`cycle_code`].
    pub cycles: Vec<Vec<Node>>,
}

/// Exercise the instrumented RTS lock classes (the RMA registry and
/// window-part locks) and collective brackets with a real one-sided
/// workload, then report the observed wait-for graph. A correct
/// runtime produces no cycles.
pub fn check_rts_locks() -> Result<LockReport, String> {
    lockgraph::reset();
    let eps = pardis_rts::Domain::new(2);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            std::thread::spawn(move || -> Result<(), pardis_rts::RtsError> {
                let win = pardis_rts::Window::create(&ep, vec![ep.rank() as f64; 8])?;
                let peer = 1 - ep.rank();
                let _ = win.get(peer, 0, 4)?;
                win.accumulate(peer, 0, &[1.0])?;
                win.fence(&ep);
                win.free(&ep);
                Ok(())
            })
        })
        .collect();
    for h in handles {
        h.join()
            .map_err(|_| "lockcheck worker panicked".to_string())?
            .map_err(|e| format!("lockcheck RMA workload failed: {e}"))?;
    }
    Ok(LockReport {
        classes: lockgraph::classes(),
        edges: lockgraph::edges(),
        cycles: lockgraph::cycles(),
    })
}

/// Demonstrate detection on a seeded lock-order inversion: two lock
/// classes taken in opposite orders. Returns the cycles found (must be
/// non-empty and classify as PA102 — the detector's positive control).
pub fn seeded_inversion() -> Vec<Vec<Node>> {
    lockgraph::reset();
    {
        let _outer = lockgraph::track("analyze::demo_a");
        let _inner = lockgraph::track("analyze::demo_b");
    }
    {
        let _outer = lockgraph::track("analyze::demo_b");
        let _inner = lockgraph::track("analyze::demo_a");
    }
    lockgraph::cycles()
}

/// Evidence from the seeded lock-vs-collective inversion.
#[derive(Debug)]
pub struct SeededCollective {
    /// Cycles in the full wait-for graph; must contain the
    /// lock/collective cycle (PA203).
    pub cycles: Vec<Vec<Node>>,
    /// The same graph restricted to lock nodes — what the
    /// pre-generalization detector saw. Must be empty: the old
    /// lock-only graph reported nothing on this schedule.
    pub lock_only: Vec<Vec<Node>>,
}

/// Demonstrate the PA203 class: thread 1 holds a lock and waits in a
/// collective; thread 2, inside the same collective region, blocks on
/// the lock. Only one lock class is involved, so the lock-only view
/// has no edges at all — the deadlock is invisible without collective
/// nodes in the graph.
pub fn seeded_collective_inversion() -> SeededCollective {
    lockgraph::reset();
    {
        let _l = lockgraph::track("analyze::demo_state");
        let _c = lockgraph::collective_enter("analyze::demo_barrier");
    }
    {
        let _c = lockgraph::collective_enter("analyze::demo_barrier");
        let _l = lockgraph::track("analyze::demo_state");
    }
    SeededCollective {
        cycles: lockgraph::cycles(),
        lock_only: lockgraph::lock_only_cycles(),
    }
}

/// Render a cycle as `a -> b -> a`.
pub fn cycle_path(cycle: &[Node]) -> String {
    cycle
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" -> ")
}
