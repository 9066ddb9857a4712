//! Wait-for-order tracking and deadlock-cycle detection (the
//! `instrument` feature).
//!
//! The graph's nodes are the two kinds of things a PARDIS thread can
//! block on: **locks** (by *class*, a static string naming the lock's
//! role, e.g. `"rma::registry"`) and **pending collectives** (barrier,
//! broadcast, …, including the membership survivor barrier). While a
//! thread holds or waits on node `A` and starts waiting on node `B`,
//! the directed edge `A → B` is recorded in a process-global wait-for
//! order graph. A cycle means two threads can enter the same pair of
//! waits in opposite orders — the classic deadlock recipe — even if no
//! deadlock happened on this particular run.
//!
//! Pure-lock cycles are the PA102 finding; cycles mixing a lock with a
//! pending collective are PA203 — the class the old lock-only graph
//! could not see (thread 1 holds lock `A` and waits in a barrier;
//! thread 2, not yet at the barrier, blocks acquiring `A`).
//!
//! Self-edges (re-entering the same node, e.g. two per-rank window
//! parts) are ignored: ordering within one class is governed by rank
//! index, which this classifier cannot see, and flagging them would
//! drown real findings.
//!
//! Use [`TrackedMutex`] / [`TrackedRwLock`] for new locks, bracket an
//! existing acquisition with [`on_acquire`] / [`on_release`] (or an
//! RAII [`track`] token), and bracket a collective wait with
//! [`collective_enter`].

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;

type Class = &'static str;

/// A node in the wait-for graph: something a thread can block on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Node {
    /// A lock of the named class.
    Lock(Class),
    /// A pending collective of the named kind (barrier, broadcast, …).
    Collective(Class),
}

impl Node {
    /// The node's class name, without the kind.
    pub fn name(&self) -> Class {
        match self {
            Node::Lock(c) | Node::Collective(c) => c,
        }
    }

    /// Whether this node is a pending collective.
    pub fn is_collective(&self) -> bool {
        matches!(self, Node::Collective(_))
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Lock(c) => write!(f, "lock:{c}"),
            Node::Collective(c) => write!(f, "collective:{c}"),
        }
    }
}

thread_local! {
    /// Nodes this thread currently holds or waits on, in entry order.
    static HELD: RefCell<Vec<Node>> = const { RefCell::new(Vec::new()) };
}

/// The global edge set. Guarded by an *untracked* lock: the tracker
/// must not observe itself.
fn edges_cell() -> &'static Mutex<BTreeSet<(Node, Node)>> {
    static EDGES: OnceLock<Mutex<BTreeSet<(Node, Node)>>> = OnceLock::new();
    EDGES.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Every node ever entered (even without nesting) — evidence that a
/// code path's instrumentation actually ran.
fn classes_cell() -> &'static Mutex<BTreeSet<Node>> {
    static CLASSES: OnceLock<Mutex<BTreeSet<Node>>> = OnceLock::new();
    CLASSES.get_or_init(|| Mutex::new(BTreeSet::new()))
}

fn on_enter(node: Node) {
    classes_cell().lock().insert(node);
    HELD.with(|held| {
        let held = held.borrow();
        if !held.is_empty() {
            let mut edges = edges_cell().lock();
            for &h in held.iter() {
                if h != node {
                    edges.insert((h, node));
                }
            }
        }
        drop(held);
    });
    HELD.with(|held| held.borrow_mut().push(node));
}

fn on_exit(node: Node) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(i) = held.iter().rposition(|&h| h == node) {
            held.remove(i);
        }
    });
}

/// Record that this thread is acquiring a lock of `class`.
pub fn on_acquire(class: Class) {
    on_enter(Node::Lock(class));
}

/// Record that this thread released its most recent lock of `class`.
pub fn on_release(class: Class) {
    on_exit(Node::Lock(class));
}

/// RAII bracket: tracks a lock of `class` as held until the token
/// drops. Declare the token immediately *before* taking the real guard
/// so the tracked window covers the guard's lifetime.
pub fn track(class: Class) -> LockToken {
    on_acquire(class);
    LockToken { class }
}

/// See [`track`].
pub struct LockToken {
    class: Class,
}

impl Drop for LockToken {
    fn drop(&mut self) {
        on_release(self.class);
    }
}

/// RAII bracket around a collective wait: everything this thread holds
/// when it enters the collective gains an edge to the collective node,
/// and anything it acquires *while inside* gains an edge from it.
/// Declare the token before blocking in the collective.
pub fn collective_enter(kind: Class) -> CollectiveToken {
    on_enter(Node::Collective(kind));
    CollectiveToken { kind }
}

/// See [`collective_enter`].
pub struct CollectiveToken {
    kind: Class,
}

impl Drop for CollectiveToken {
    fn drop(&mut self) {
        on_exit(Node::Collective(self.kind));
    }
}

/// Snapshot of the recorded wait-for-order edges.
pub fn edges() -> Vec<(Node, Node)> {
    edges_cell().lock().iter().copied().collect()
}

/// Snapshot of every node entered so far (nested or not).
pub fn classes() -> Vec<Node> {
    classes_cell().lock().iter().copied().collect()
}

/// Clear all recorded state (between independent test scenarios).
pub fn reset() {
    edges_cell().lock().clear();
    classes_cell().lock().clear();
}

/// Detect cycles in the wait-for-order graph. Each cycle is returned
/// as the list of nodes along it (first node repeated at the end),
/// deduplicated by node set.
pub fn cycles() -> Vec<Vec<Node>> {
    let edge_list = edges();
    let mut adj: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
    for (a, b) in &edge_list {
        adj.entry(*a).or_default().push(*b);
        adj.entry(*b).or_default();
    }
    let mut found: Vec<Vec<Node>> = Vec::new();
    let mut seen_sets: BTreeSet<Vec<Node>> = BTreeSet::new();
    let nodes: Vec<Node> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack: Vec<Node> = Vec::new();
        dfs(start, &adj, &mut stack, &mut found, &mut seen_sets);
    }
    found
}

/// Cycles restricted to lock nodes only — what the pre-generalization
/// detector saw. A cycle that appears in [`cycles`] but not here is a
/// lock-vs-collective deadlock (PA203).
pub fn lock_only_cycles() -> Vec<Vec<Node>> {
    cycles()
        .into_iter()
        .filter(|c| c.iter().all(|n| !n.is_collective()))
        .collect()
}

/// The finding code a cycle classifies as: PA203 when it mixes a
/// pending collective with at least one lock, PA102 for pure locks.
pub fn cycle_code(cycle: &[Node]) -> &'static str {
    if cycle.iter().any(|n| n.is_collective()) {
        "PA203"
    } else {
        "PA102"
    }
}

fn dfs(
    node: Node,
    adj: &BTreeMap<Node, Vec<Node>>,
    stack: &mut Vec<Node>,
    found: &mut Vec<Vec<Node>>,
    seen_sets: &mut BTreeSet<Vec<Node>>,
) {
    if let Some(i) = stack.iter().position(|&n| n == node) {
        // Back edge: stack[i..] is a cycle.
        let mut cycle: Vec<Node> = stack[i..].to_vec();
        let mut key = cycle.clone();
        key.sort_unstable();
        if seen_sets.insert(key) {
            cycle.push(node);
            found.push(cycle);
        }
        return;
    }
    // Bound the walk: a node can appear once per path.
    stack.push(node);
    if let Some(next) = adj.get(&node) {
        for &n in next {
            dfs(n, adj, stack, found, seen_sets);
        }
    }
    stack.pop();
}

/// A mutex whose acquisitions feed the wait-for graph.
pub struct TrackedMutex<T> {
    class: Class,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wrap `value` in a tracked mutex of class `class`.
    pub fn new(class: Class, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Lock, recording the acquisition.
    pub fn lock(&self) -> TrackedGuard<MutexGuard<'_, T>> {
        let token = track(self.class);
        TrackedGuard {
            _token: token,
            guard: self.inner.lock(),
        }
    }
}

/// A reader-writer lock whose acquisitions feed the wait-for graph.
pub struct TrackedRwLock<T> {
    class: Class,
    inner: RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Wrap `value` in a tracked rwlock of class `class`.
    pub fn new(class: Class, value: T) -> TrackedRwLock<T> {
        TrackedRwLock {
            class,
            inner: RwLock::new(value),
        }
    }

    /// Shared lock, recording the acquisition.
    pub fn read(&self) -> TrackedGuard<RwLockReadGuard<'_, T>> {
        let token = track(self.class);
        TrackedGuard {
            _token: token,
            guard: self.inner.read(),
        }
    }

    /// Exclusive lock, recording the acquisition.
    pub fn write(&self) -> TrackedGuard<RwLockWriteGuard<'_, T>> {
        let token = track(self.class);
        TrackedGuard {
            _token: token,
            guard: self.inner.write(),
        }
    }
}

/// Guard pairing the real lock guard with its tracking token.
pub struct TrackedGuard<G> {
    _token: LockToken,
    guard: G,
}

impl<G: Deref> Deref for TrackedGuard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for TrackedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The graph is process-global; serialize tests that reset it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static G: StdMutex<()> = StdMutex::new(());
        G.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn nested_acquisition_records_edge() {
        let _g = guard();
        reset();
        let a = TrackedMutex::new("test1::a", 0u32);
        let b = TrackedMutex::new("test1::b", 0u32);
        {
            let _ga = a.lock();
            let mut gb = b.lock();
            *gb += 1;
        }
        assert!(edges().contains(&(Node::Lock("test1::a"), Node::Lock("test1::b"))));
        assert!(cycles().is_empty());
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let _g = guard();
        reset();
        let a = TrackedRwLock::new("test2::a", ());
        let b = TrackedRwLock::new("test2::b", ());
        {
            let _ga = a.read();
            let _gb = b.read();
        }
        {
            let _gb = b.write();
            let _ga = a.write();
        }
        let cys = cycles();
        assert_eq!(cys.len(), 1, "{cys:?}");
        assert!(
            cys[0].contains(&Node::Lock("test2::a")) && cys[0].contains(&Node::Lock("test2::b"))
        );
        // First node repeats at the end; pure locks classify as PA102.
        assert_eq!(cys[0].first(), cys[0].last());
        assert_eq!(cycle_code(&cys[0]), "PA102");
    }

    #[test]
    fn self_edges_are_ignored() {
        let _g = guard();
        reset();
        // Same class twice (like two window parts): no edge, no cycle.
        let a1 = TrackedMutex::new("test3::part", 0u32);
        let a2 = TrackedMutex::new("test3::part", 0u32);
        {
            let _g1 = a1.lock();
            let _g2 = a2.lock();
        }
        assert!(edges().is_empty());
        assert!(cycles().is_empty());
    }

    #[test]
    fn release_unwinds_held_stack() {
        let _g = guard();
        reset();
        let a = TrackedMutex::new("test4::a", ());
        let b = TrackedMutex::new("test4::b", ());
        {
            let _ga = a.lock();
        }
        {
            // `a` no longer held: no a→b edge.
            let _gb = b.lock();
        }
        assert!(edges().is_empty());
    }

    #[test]
    fn three_way_cycle_detected() {
        let _g = guard();
        reset();
        on_acquire("t5::a");
        on_acquire("t5::b");
        on_release("t5::b");
        on_release("t5::a");
        on_acquire("t5::b");
        on_acquire("t5::c");
        on_release("t5::c");
        on_release("t5::b");
        on_acquire("t5::c");
        on_acquire("t5::a");
        on_release("t5::a");
        on_release("t5::c");
        let cys = cycles();
        assert_eq!(cys.len(), 1, "{cys:?}");
        assert_eq!(cys[0].len(), 4); // a, b, c + repeat
    }

    #[test]
    fn lock_vs_collective_cycle_is_pa203_and_invisible_to_lock_only_graph() {
        let _g = guard();
        reset();
        // Thread 1's order: hold the lock, then wait in the barrier.
        {
            let _l = track("t6::state");
            let _c = collective_enter("t6::barrier");
        }
        // Thread 2's order: inside the collective region, take the lock
        // (it would block on thread 1, which waits in the barrier for
        // thread 2 — deadlock).
        {
            let _c = collective_enter("t6::barrier");
            let _l = track("t6::state");
        }
        let cys = cycles();
        assert_eq!(cys.len(), 1, "{cys:?}");
        assert!(cys[0].contains(&Node::Lock("t6::state")));
        assert!(cys[0].contains(&Node::Collective("t6::barrier")));
        assert_eq!(cycle_code(&cys[0]), "PA203");
        // The pre-generalization detector — locks only — sees nothing:
        // only one lock class is involved, so no lock-lock edge exists.
        assert!(lock_only_cycles().is_empty());
    }
}
