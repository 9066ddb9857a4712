//! Per-rank metrics: counters and fixed-bucket histograms.
//!
//! The hot path is lock-free: each computing thread holds a
//! thread-local `Arc<RankMetrics>` whose cells are plain
//! `AtomicU64`s; the global registry's mutex is touched only at
//! [`init`] and [`snapshot_json`] time.
//!
//! The instrument set is closed (see [`COUNTERS`] / [`HISTOGRAMS`]),
//! which is what makes snapshots deterministic: every rank exports
//! every instrument in declaration order, so two replays of the same
//! seed produce byte-identical JSON. Wall-clock-valued histograms are
//! marked *volatile* and export only their event count — the count is
//! seeded-deterministic, the durations are not.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counter names, in export order.
pub const COUNTERS: &[&str] = &[
    "orb.requests",
    "orb.retries",
    "orb.timeouts",
    "orb.fallbacks",
    "orb.served",
    "orb.serve_decode_errors",
    "rts.epoch_changes",
    "xfer.centralized.bytes",
    "xfer.multiport.bytes",
];

/// Histogram names, in export order. The flag marks volatile
/// (wall-clock-valued) histograms whose snapshot carries only the
/// event count.
pub const HISTOGRAMS: &[(&str, bool)] = &[
    ("xfer.multiport.frag_bytes", false),
    ("rts.collective_wait_ns", true),
];

/// Number of power-of-two histogram buckets; bucket `i` counts values
/// `v` with `floor(log2(max(v,1))) == i`, the last bucket absorbing
/// everything larger.
pub const BUCKETS: usize = 24;

/// A fixed-bucket power-of-two histogram.
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        let idx = (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded events.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket event counts.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// One rank's instrument block.
#[derive(Debug)]
pub struct RankMetrics {
    machine: String,
    host: u32,
    rank: usize,
    counters: Vec<AtomicU64>,
    histograms: Vec<Histogram>,
}

impl RankMetrics {
    fn new(machine: &str, host: u32, rank: usize) -> RankMetrics {
        RankMetrics {
            machine: machine.to_string(),
            host,
            rank,
            counters: COUNTERS.iter().map(|_| AtomicU64::new(0)).collect(),
            histograms: HISTOGRAMS.iter().map(|_| Histogram::default()).collect(),
        }
    }

    /// Add `delta` to the named counter; unknown names are ignored
    /// (the instrument set is closed by design).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(i) = COUNTERS.iter().position(|&c| c == name) {
            self.counters[i].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Record `v` into the named histogram; unknown names are ignored.
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(i) = HISTOGRAMS.iter().position(|&(h, _)| h == name) {
            self.histograms[i].record(v);
        }
    }

    /// Current value of the named counter (None for unknown names).
    pub fn get(&self, name: &str) -> Option<u64> {
        COUNTERS
            .iter()
            .position(|&c| c == name)
            .map(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// The named histogram (None for unknown names).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        HISTOGRAMS
            .iter()
            .position(|&(h, _)| h == name)
            .map(|i| &self.histograms[i])
    }
}

thread_local! {
    static HANDLE: RefCell<Option<Arc<RankMetrics>>> = const { RefCell::new(None) };
}

static REGISTRY: Mutex<Vec<Arc<RankMetrics>>> = Mutex::new(Vec::new());

/// Bind the calling thread to a fresh `(machine, host, rank)`
/// instrument block registered in the global registry.
pub fn init(machine: &str, host: u32, rank: usize) {
    let m = Arc::new(RankMetrics::new(machine, host, rank));
    REGISTRY.lock().push(Arc::clone(&m));
    HANDLE.with(|h| *h.borrow_mut() = Some(m));
}

/// The calling thread's instrument block, if it is bound.
pub fn current() -> Option<Arc<RankMetrics>> {
    HANDLE.with(|h| h.borrow().clone())
}

/// Add `delta` to the calling rank's counter; no-op when the thread is
/// not bound.
pub fn add(name: &str, delta: u64) {
    HANDLE.with(|h| {
        if let Some(m) = h.borrow().as_ref() {
            m.add(name, delta);
        }
    });
}

/// Record `v` into the calling rank's histogram; no-op when unbound.
pub fn observe(name: &str, v: u64) {
    HANDLE.with(|h| {
        if let Some(m) = h.borrow().as_ref() {
            m.observe(name, v);
        }
    });
}

/// Deterministic JSON snapshot of every registered rank, sorted by
/// `(machine, rank)`; counters and histograms appear in declaration
/// order, and volatile histograms export only their count.
pub fn snapshot_json() -> String {
    let mut ranks: Vec<_> = REGISTRY.lock().iter().map(Arc::clone).collect();
    ranks.sort_by(|a, b| (&a.machine, a.rank).cmp(&(&b.machine, b.rank)));
    let mut s = String::from("{\"schema\":\"pardis-obs-metrics/1\",\"ranks\":[");
    for (ri, m) in ranks.iter().enumerate() {
        if ri > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"machine\":\"{}\",\"host\":{},\"rank\":{},\"counters\":{{",
            crate::json::escape(&m.machine),
            m.host,
            m.rank
        );
        for (i, &name) in COUNTERS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{}", m.counters[i].load(Ordering::Relaxed));
        }
        s.push_str("},\"histograms\":{");
        for (i, &(name, volatile)) in HISTOGRAMS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let h = &m.histograms[i];
            if volatile {
                let _ = write!(s, "\"{name}\":{{\"count\":{}}}", h.count());
            } else {
                let _ = write!(
                    s,
                    "\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                    h.count(),
                    h.sum()
                );
                for (bi, b) in h.buckets().iter().enumerate() {
                    if bi > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{b}");
                }
                s.push_str("]}");
            }
        }
        s.push_str("}}");
    }
    s.push_str("]}");
    s
}

/// Drop every registered instrument block (between two replays in one
/// process). Threads bound before the reset keep counting into
/// unregistered blocks; re-[`init`] to rejoin.
pub fn reset() {
    REGISTRY.lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_export_in_declared_order() {
        reset();
        init("m", 1, 0);
        add("orb.requests", 2);
        add("no.such.counter", 9);
        observe("xfer.multiport.frag_bytes", 1024);
        observe("rts.collective_wait_ns", 12345);
        let json = snapshot_json();
        assert!(json.starts_with("{\"schema\":\"pardis-obs-metrics/1\""));
        assert!(json.contains("\"orb.requests\":2"));
        let req = json.find("\"orb.requests\"").unwrap();
        let retr = json.find("\"orb.retries\"").unwrap();
        assert!(req < retr, "declaration order preserved");
        // The volatile histogram exports only its count.
        let wait = &json[json.find("rts.collective_wait_ns").unwrap()..];
        assert!(wait.starts_with("rts.collective_wait_ns\":{\"count\":1}"));
        assert!(json.contains("\"xfer.multiport.frag_bytes\":{\"count\":1,\"sum\":1024"));
    }

    #[test]
    fn bucket_indexing_is_log2() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(1 << 23);
        h.record(u64::MAX);
        let b = h.buckets();
        assert_eq!(b[0], 2, "0 and 1 share the first bucket");
        assert_eq!(b[1], 1);
        assert_eq!(b[BUCKETS - 1], 2, "last bucket absorbs the tail");
        assert_eq!(h.count(), 5);
    }
}
