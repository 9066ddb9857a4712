//! Echo round-trip latency, with and without instrumentation.
//!
//! One collective invocation carrying an `in` distributed-sequence
//! argument, timed over an unlimited link so the wire contributes
//! nothing and every microsecond is CPU: stubs, CDR, gather/scatter —
//! plus, with the `instrument` feature, the instrumentation (the
//! message-relayed barrier carrying the PA101 agreement, vector-clock
//! stamps, access-interval recording, span recording, per-rank
//! metrics, service-context propagation). Running the binary with and
//! without the feature measures the instrumentation overhead reported
//! in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p pardis-bench --bin echo [iters]
//! cargo run --release -p pardis-bench --bin echo --features instrument [iters]
//! ```

use pardis::prelude::*;
use pardis_bench::RuntimeHarness;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    println!(
        "echo: c=4, n=8, unlimited link, {iters} iters/point, instrumentation: {}",
        if cfg!(feature = "instrument") {
            "ON"
        } else {
            "OFF"
        }
    );
    println!();
    println!("  length_doubles, centralized_us, multiport_us");

    let harness = RuntimeHarness::new(4, 8, LinkSpec::unlimited(), false);
    for log2 in [8u32, 10, 12, 14] {
        let len = 1usize << log2;
        let cen = harness.invoke_avg(len, TransferMode::Centralized, iters);
        let mp = harness.invoke_avg(len, TransferMode::MultiPort, iters);
        println!(
            "  {:>14}, {:>14.1}, {:>12.1}",
            len,
            cen.as_secs_f64() * 1e6,
            mp.as_secs_f64() * 1e6
        );
    }
}
