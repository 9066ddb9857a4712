//! Closed-loop benchmark of PARDIS collective invocations on the real
//! runtime (`pardis-core` over `pardis-rts`, `pardis-net` and
//! `pardis-cdr`, featureless, unlimited link).
//!
//! ```text
//! pardis-perfbench --workload <small_rpc|bulk_in|inout_translate>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and writes the recorded spans to [`SPANS_DIR`]. The
//! last line of standard output is the JSON result. The exit code is
//! non-zero when any invocation failed or returned a wrong result.

mod alloc;
mod layers;
mod stats;
mod trace;
mod workload;

use stats::{median, quantile, Metrics};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{
    sample_buffers, seeded_data, stand_up, ModeTotals, Plan, StandUp, Workload, CLIENT_THREADS,
    MODE_NAMES, SERVER_THREADS,
};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Complete stand-up cycles behind `setup_s`, run before each timed
/// stand-up.
const SETUP_CYCLES_PER_STANDUP: usize = 5;
/// Timed invocations per method and stand-up the sample buffers hold:
/// twice what the fastest workload reaches in a 3 s stand-up.
const MAX_SAMPLES: usize = 1 << 15;
/// Fresh stand-ups the timed window is split across.
const WINDOW_STANDUPS: usize = 10;
/// Where among the stand-ups a time is read (rates at one minus it): the
/// quieter quarter. On a shared host, load from other tenants comes in
/// episodes that double the tail for tens of seconds; one that covers
/// less than three quarters of the run does not move this, while a
/// change to the program moves every stand-up.
const QUIET_QUANTILE: f64 = 0.25;
/// Where the traced run writes its spans, relative to the repository
/// root the benchmark runs from.
const SPANS_DIR: &str = "perfbench/out";
/// Untraced/traced stand-up pairs in the traced run.
const TRACE_PAIRS: usize = 3;
/// The longest `--seconds` accepted; `run.py` scales its timeout to it.
const MAX_SECONDS: f64 = 60.0;

struct Args {
    workload: Workload,
    seed: u64,
    window: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Invocations attempted and failed across stand-ups.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, s: &StandUp) {
        let (a, f) = s.attempted_failed();
        self.attempted += a;
        self.failed += f;
    }
}

/// Per-invocation wall time of method `m` in microseconds, the slowest
/// client thread's (Table 2's "maximum over all threads").
fn slowest_us(s: &StandUp, m: usize) -> impl Iterator<Item = f64> + '_ {
    (0..s.clients[0].wall_ns[m].len()).map(move |i| {
        let ns = s.clients.iter().map(|c| c.wall_ns[m][i]).max().unwrap_or(0);
        ns as f64 / 1e3
    })
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One timed stand-up's statistics.
struct Window {
    /// Per method: p50, p90 and p99 in µs, then MB/s.
    stats: [[f64; 4]; 2],
    invocations: [usize; 2],
}

fn plan(w: &Workload, window: Duration, traced: bool) -> Plan {
    Plan {
        warmup: w.warmup,
        window,
        traced,
    }
}

/// The end-to-end run. The timed window is split across consecutive
/// stand-ups, with set-up cycles between them. Each latency and rate is
/// that stand-up's own statistic, reported at [`QUIET_QUANTILE`] over
/// stand-ups, so neither the latency level one stand-up's thread
/// placement happens to set nor a burst of load from other tenants of
/// the host decides it.
fn end_to_end(
    a: &Args,
    data: &Arc<Vec<f64>>,
    epoch: Instant,
    info: &mut Vec<String>,
) -> (Metrics, Tally) {
    let w = &a.workload;
    let mut tally = Tally::default();
    let once = Plan {
        warmup: 1,
        window: Duration::ZERO,
        traced: false,
    };
    let mut setup = Vec::new();
    // All sample storage is allocated before the first window, so the
    // resident set does not depend on how many invocations complete.
    let mut samples = sample_buffers(MAX_SAMPLES);
    let mut lat: Vec<f64> = workload::resident(MAX_SAMPLES);
    let mut windows: Vec<Window> = Vec::with_capacity(WINDOW_STANDUPS);
    for _ in 0..WINDOW_STANDUPS {
        for _ in 0..SETUP_CYCLES_PER_STANDUP {
            let s = stand_up(*w, data, once, epoch, Vec::new());
            tally.add(&s);
            setup.push(s.elapsed.as_secs_f64());
        }
        let window = a.window / WINDOW_STANDUPS as u32;
        let mut run = stand_up(*w, data, plan(w, window, false), epoch, samples);
        let mut win = Window {
            stats: [[0.0; 4]; 2],
            invocations: [0; 2],
        };
        tally.add(&run);
        for m in 0..MODE_NAMES.len() {
            lat.clear();
            lat.extend(slowest_us(&run, m));
            win.invocations[m] = lat.len();
            for (i, q) in [0.5, 0.9, 0.99].into_iter().enumerate() {
                win.stats[m][i] = quantile(&mut lat, q);
            }
            // Effective bandwidth: payload moved per second of the timed
            // blocks.
            let busy: f64 = run.clients[0].block_s[m].iter().sum();
            win.stats[m][3] = (w.payload_bytes() * lat.len() as u64) as f64 / busy / 1e6;
        }
        samples = run.take_samples();
        windows.push(win);
    }
    // Statistic `i` of method `m` at quantile `q` over the stand-ups.
    let over_windows = |m: usize, i: usize, q: f64| {
        let mut v: Vec<f64> = windows.iter().map(|w| w.stats[m][i]).collect();
        quantile(&mut v, q)
    };
    let invocations = |m: usize| Some(windows.iter().map(|w| w.invocations[m]).sum());

    let mut out = Metrics::default();
    out.push_n("setup_s", median(&mut setup), "s", Some(setup.len()));
    for (m, mode) in MODE_NAMES.iter().enumerate() {
        let v = over_windows(m, 0, QUIET_QUANTILE);
        out.push_n(format!("{mode}.p50_us"), v, "us", invocations(m));
    }
    for (m, mode) in MODE_NAMES.iter().enumerate() {
        let v = over_windows(m, 3, 1.0 - QUIET_QUANTILE);
        out.push_n(format!("{mode}.MBps"), v, "MB/s", invocations(m));
    }
    let ok = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    out.push_n("ok_frac", ok, "ratio", Some(tally.attempted as usize));
    out.push("rss_peak_MiB", rss_peak_mib(), "MiB");

    // The tails are printed, not gated: under episodes of load from other
    // tenants of the host their run-to-run spread reached 0.3 to 0.6 of
    // the median, too wide to gate on.
    for (i, tail) in [(1, "p90_us"), (2, "p99_us")] {
        let per_mode: Vec<String> = MODE_NAMES
            .iter()
            .enumerate()
            .map(|(m, mode)| {
                let v = over_windows(m, i, QUIET_QUANTILE);
                format!("\"{mode}\": {}", stats::json_number(v))
            })
            .collect();
        info.push(format!("\"{tail}\": {{{}}}", per_mode.join(", ")));
    }
    info.push(format!(
        "\"standups\": {}, \"setup_cycles\": {}",
        windows.len(),
        setup.len()
    ));
    (out, tally)
}

/// Client phase columns, in print order.
const CLIENT_PHASES: [&str; 8] = [
    "pack",
    "send",
    "gather",
    "scatter",
    "recv_unpack",
    "barrier",
    "wait",
    "total",
];
/// Server phase columns, in print order.
const SERVER_PHASES: [&str; 8] = [
    "recv_unpack",
    "scatter",
    "gather",
    "pack",
    "send",
    "barrier",
    "upcall",
    "self",
];

/// Column-wise medians of per-invocation rows.
fn column_medians<const N: usize>(rows: &[[f64; N]]) -> [f64; N] {
    let mut out = [0.0; N];
    for (c, o) in out.iter_mut().enumerate() {
        let mut col: Vec<f64> = rows.iter().map(|r| r[c]).collect();
        *o = median(&mut col);
    }
    out
}

fn max_rows<const N: usize>(rows: impl Iterator<Item = [f64; N]>) -> [f64; N] {
    rows.fold([0.0; N], |mut acc, r| {
        for (a, v) in acc.iter_mut().zip(r) {
            *a = a.max(v);
        }
        acc
    })
}

/// Per-method accumulators of the traced run.
#[derive(Default)]
struct LayerAcc {
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
    client_rows: Vec<[f64; 8]>,
    server_rows: Vec<[f64; 8]>,
    /// Communicating client thread's totals, plus every client thread's
    /// retries and fallbacks.
    totals: ModeTotals,
    decode_errors: u64,
}

/// Fold one traced stand-up into the accumulators. Returns false when
/// the server served a different number of requests than the client
/// issued, so the two no longer line up.
fn fold_traced(run: &StandUp, acc: &mut [LayerAcc]) -> bool {
    let call_modes = &run.clients[0].call_modes;
    let aligned = run
        .servers
        .iter()
        .all(|s| s.samples.len() == call_modes.len());
    for (m, acc) in acc.iter_mut().enumerate() {
        acc.traced_us.extend(slowest_us(run, m));
        let timed = run.clients[0].timing[m].len();
        acc.client_rows.extend((0..timed).map(|i| {
            let mut t = run.clients[0].timing[m][i];
            for c in &run.clients[1..] {
                t.max_with(&c.timing[m][i]);
            }
            let named = t.pack + t.send + t.gather + t.scatter + t.recv_unpack + t.barrier;
            let wait = t.total.saturating_sub(named);
            [
                t.pack,
                t.send,
                t.gather,
                t.scatter,
                t.recv_unpack,
                t.barrier,
                wait,
                t.total,
            ]
            .map(us)
        }));
        let calls = (0..call_modes.len()).filter(|&k| aligned && call_modes[k] == Some(m));
        for k in calls {
            acc.server_rows.push(max_rows(run.servers.iter().map(|s| {
                let x = &s.samples[k];
                let t = x.timing;
                let own = x.serve.saturating_sub(x.upcall);
                [
                    t.recv_unpack,
                    t.scatter,
                    t.gather,
                    t.pack,
                    t.send,
                    t.barrier,
                    x.upcall,
                    own,
                ]
                .map(us)
            })));
            acc.decode_errors += run
                .servers
                .iter()
                .map(|s| s.samples[k].decode_errors)
                .sum::<u64>();
        }
        let mut totals = run.clients[0].totals[m];
        for c in &run.clients[1..] {
            totals.retries += c.totals[m].retries;
            totals.fallbacks += c.totals[m].fallbacks;
        }
        acc.totals.add(&totals);
    }
    aligned
}

/// The traced run: untraced and traced stand-ups alternate (the
/// untraced ones are the overhead baseline), then the lower-layer
/// probes run.
fn per_layer(
    a: &Args,
    data: &Arc<Vec<f64>>,
    epoch: Instant,
    info: &mut Vec<String>,
) -> (Metrics, Tally) {
    let w = &a.workload;
    let part = a.window / (3 * TRACE_PAIRS as u32);
    let mut tally = Tally::default();
    let mut acc: [LayerAcc; 2] = Default::default();
    let mut last_traced = None;
    let mut samples = sample_buffers(MAX_SAMPLES);
    for _ in 0..TRACE_PAIRS {
        let mut base = stand_up(*w, data, plan(w, part, false), epoch, samples);
        tally.add(&base);
        for (m, acc) in acc.iter_mut().enumerate() {
            acc.untraced_us.extend(slowest_us(&base, m));
        }
        alloc::enable(true);
        let mut run = stand_up(*w, data, plan(w, part, true), epoch, base.take_samples());
        alloc::enable(false);
        tally.add(&run);
        if !fold_traced(&run, &mut acc) {
            tally.failed += 1;
        }
        samples = run.take_samples();
        last_traced = Some(run);
    }

    let mut out = Metrics::default();
    let mut overhead = Vec::new();
    for (name, acc) in MODE_NAMES.iter().zip(&mut acc) {
        let n = Some(acc.client_rows.len());
        for (phase, v) in CLIENT_PHASES.iter().zip(column_medians(&acc.client_rows)) {
            out.push_n(format!("{name}.client.{phase}_us"), v, "us", n);
        }
        let n = Some(acc.server_rows.len());
        for (phase, v) in SERVER_PHASES.iter().zip(column_medians(&acc.server_rows)) {
            out.push_n(format!("{name}.server.{phase}_us"), v, "us", n);
        }
        let t = &acc.totals;
        let per = |x: u64| x as f64 / t.invocations.max(1) as f64;
        let n = Some(t.invocations as usize);
        out.push_n(
            format!("{name}.net.msgs_per_invoke"),
            per(t.messages),
            "count",
            n,
        );
        out.push_n(
            format!("{name}.net.wire_bytes_per_invoke"),
            per(t.wire_bytes),
            "B",
            n,
        );
        out.push_n(
            format!("{name}.alloc.count_per_invoke"),
            per(t.allocs),
            "count",
            n,
        );
        out.push_n(
            format!("{name}.alloc.bytes_per_invoke"),
            per(t.alloc_bytes),
            "B",
            n,
        );
        out.push(format!("{name}.client.retries"), t.retries as f64, "count");
        out.push(
            format!("{name}.client.fallbacks"),
            t.fallbacks as f64,
            "count",
        );
        out.push(
            format!("{name}.server.decode_errors"),
            acc.decode_errors as f64,
            "count",
        );

        let traced_p50 = median(&mut acc.traced_us);
        let untraced_p50 = median(&mut acc.untraced_us);
        overhead.push(traced_p50 / untraced_p50 - 1.0);
        info.push(format!(
            "\"{name}.trace_p50_us\": {{\"traced\": {}, \"untraced\": {}}}",
            stats::json_number(traced_p50),
            stats::json_number(untraced_p50)
        ));
    }

    layers::measure(w, a.seed, a.window / 3, &mut out);
    let mean_overhead = overhead.iter().sum::<f64>() / overhead.len() as f64;
    out.push("trace.overhead_frac", mean_overhead, "ratio");

    // Span ids restart with each stand-up; the last traced one is written.
    let run = last_traced.expect("at least one traced stand-up");
    let mut spans: Vec<trace::Span> = run
        .clients
        .iter()
        .flat_map(|c| c.spans.iter())
        .chain(run.servers.iter().flat_map(|s| s.spans.iter()))
        .copied()
        .collect();
    let dir = Path::new(SPANS_DIR);
    let path = dir.join(format!("spans-{}-seed{}.json", w.name, a.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(w.name, a.seed, &mut spans)));
    match written {
        Ok(()) => info.push(format!(
            "\"spans_file\": \"{}\", \"spans\": {}",
            path.display(),
            spans.len()
        )),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    (out, tally)
}

/// Fix glibc's mmap threshold at its static default of 128 KiB before
/// any thread starts. Left alone, glibc raises the threshold to the size
/// of each mapped block freed, so whether the runtime's per-invocation
/// buffers are recycled from the heap or freshly mapped and page-faulted
/// depends on the order of frees in that process, and the large-payload
/// latencies flip between processes. Fixed at the static default, every
/// buffer of 128 KiB or more is mapped fresh in every process: the cost
/// of the runtime's allocation stays in the figures, the same each run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only adjusts an allocator tunable; it is called
    // before any other thread exists, with a documented parameter.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() -> bool {
    false
}

fn main() {
    let mmap_threshold_fixed = fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: pardis-perfbench --workload <small_rpc|bulk_in|inout_translate> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let data = Arc::new(seeded_data(args.seed, w.len));
    let epoch = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut info = vec![
        format!("\"workload\": \"{}\"", w.name),
        format!("\"seed\": {}", args.seed),
        format!("\"trace\": {}", args.trace as u8),
        format!("\"nproc\": {nproc}"),
        format!("\"c\": {CLIENT_THREADS}, \"n\": {SERVER_THREADS}"),
        format!(
            "\"len\": {}, \"payload_bytes_per_invoke\": {}",
            w.len,
            w.payload_bytes()
        ),
        format!("\"client_block_bytes\": {}", 8 * w.client_block_len()),
        format!("\"window_s\": {}", args.window.as_secs_f64()),
        format!("\"mmap_threshold_fixed\": {mmap_threshold_fixed}"),
    ];
    let (metrics, tally) = if args.trace {
        per_layer(&args, &data, epoch, &mut info)
    } else {
        end_to_end(&args, &data, epoch, &mut info)
    };
    let finite = metrics.0.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && finite;

    print!("{}", metrics.table());
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.json()
    );
    if !correct {
        std::process::exit(1);
    }
}
