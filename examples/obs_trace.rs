//! Seeded chaos run with observability on: writes per-rank span logs
//! and a metrics snapshot for `pardis-trace` to merge.
//!
//! A 2-thread SPMD client invokes a 2-thread SPMD server over a faulty
//! link (seeded frame drops, a data-port kill mid-run), exactly like
//! the chaos tests — but with the `instrument` feature recording causal spans
//! on every computing thread. After the run the accumulated spans are
//! drained and written as one JSONL file per `(machine, rank)`, plus a
//! `metrics.json` snapshot:
//!
//! ```text
//! cargo run --features instrument --example obs_trace -- target/obs-trace [seed]
//! pardis-trace merge target/obs-trace/spans-*.jsonl
//! ```
//!
//! Every fault decision is a pure function of the seed, so two runs of
//! the same seed produce bit-for-bit identical merged timelines.

use pardis_cdr::{CdrReader, Decode};
use pardis_core::prelude::*;
use pardis_net::FaultPlan;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

const OBJ_TYPE: &str = "IDL:chaos_sum:1.0";
const INVOCATIONS: usize = 20;
const KILL_AT: usize = 10;
const LEN: usize = 64;
const THREADS: usize = 2;
const DEFAULT_SEED: u64 = 0x5EED_CAFE;

struct SumServant;

impl Servant for SumServant {
    fn type_id(&self) -> &str {
        OBJ_TYPE
    }

    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        let arr: pardis_core::DSequence<f64> = req.dist_seq(0)?;
        let local: f64 = arr.local_data().iter().sum();
        let total = req
            .ctx()
            .rts()
            .allreduce_f64(&[local], pardis_rts::ReduceOp::Sum)
            .map_err(PardisError::from)?[0];
        req.set_result(|w| {
            w.put_f64(total);
            Ok(())
        })
    }
}

/// One seeded run; the spans it recorded stay in the process-global
/// recorder until drained.
fn run_once(seed: u64) -> usize {
    let world = World::new(LinkSpec::unlimited());

    let server_opts = OrbOptions {
        frag_timeout: Some(std::time::Duration::from_millis(80)),
        ..Default::default()
    };
    let server = world.spawn_machine_with("server", THREADS, server_opts, |ctx| {
        ctx.register("example", Box::new(SumServant), vec![])
            .unwrap();
        ctx.serve_forever().unwrap();
    });

    let client = world.spawn_machine("client", THREADS, move |ctx| {
        let mut proxy = ctx
            .spmd_bind("example", Some("server"), Some(OBJ_TYPE))
            .unwrap();
        proxy.set_mode(TransferMode::MultiPort).unwrap();
        proxy.set_retry(RetryPolicy {
            max_attempts: 4,
            base_backoff: std::time::Duration::from_millis(2),
            ..RetryPolicy::default()
        });
        proxy.set_deadline(Some(std::time::Duration::from_millis(150)));

        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.host()
                .fabric()
                .install_faults(FaultPlan::new(seed).with_frame_drop(20_000));
        }
        ctx.rts().barrier();

        let mut completed = 0usize;
        for i in 0..INVOCATIONS {
            if i == KILL_AT {
                // Kill a server data port between invocations: every
                // multi-port request from here on probes, notices, and
                // falls back to centralized transfer.
                ctx.rts().barrier();
                if ctx.is_comm_thread() {
                    let o = proxy.objref();
                    let dead = *o.data_ports.last().unwrap();
                    ctx.host().fabric().kill_port(o.host, dead);
                }
                ctx.rts().barrier();
            }

            let mut seq = DSequence::<f64>::new(ctx.rts(), LEN, None).unwrap();
            let off = seq.local_range().start;
            for (j, x) in seq.local_data_mut().iter_mut().enumerate() {
                *x = i as f64 + (off + j) as f64 * 0.25;
            }
            let mut spec = RequestSpec::simple("sum").idempotent();
            spec.dist_args = vec![proxy.dist_arg("sum", 0, ArgDir::In, &seq).unwrap()];

            if let Ok(reply) = proxy.invoke(&ctx, spec) {
                let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
                let _ = f64::decode(&mut r).unwrap();
                completed += 1;
            }
        }

        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.host().fabric().clear_faults();
            ctx.send_shutdown(proxy.objref()).unwrap();
        }
        completed
    });

    let completed: usize = client.join().iter().sum();
    server.join();
    completed
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("target/obs-trace");
    let seed: u64 = args
        .get(2)
        .map(|s| s.parse().expect("seed must be an unsigned integer"))
        .unwrap_or(DEFAULT_SEED);

    let completed = run_once(seed);

    std::fs::create_dir_all(out_dir).expect("create output directory");

    // One JSONL file per (machine, rank).
    let mut per_rank: BTreeMap<(String, usize), Vec<String>> = BTreeMap::new();
    let spans = pardis_obs::drain_all();
    let total = spans.len();
    for s in &spans {
        per_rank
            .entry((s.machine.clone(), s.rank))
            .or_default()
            .push(s.to_json_line());
    }
    for ((machine, rank), lines) in &per_rank {
        let path = Path::new(out_dir).join(format!("spans-{machine}-{rank}.jsonl"));
        let mut f = std::fs::File::create(&path).expect("create span log");
        for line in lines {
            writeln!(f, "{line}").expect("write span log");
        }
    }

    let metrics = pardis_obs::snapshot_json();
    std::fs::write(Path::new(out_dir).join("metrics.json"), &metrics)
        .expect("write metrics snapshot");

    println!(
        "seed {seed:#x}: {completed}/{} invocations completed ({THREADS} client threads)",
        INVOCATIONS * THREADS
    );
    println!(
        "wrote {total} spans across {} rank logs + metrics.json to {out_dir}",
        per_rank.len()
    );
}
