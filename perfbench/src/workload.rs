//! The three workloads and the client/server stand-up they share.
//!
//! One stand-up is one `World` on an unlimited link with a 2-thread
//! client machine and a 2-thread server machine. The client binds once
//! with `_spmd_bind`, warms up both transfer methods, then runs
//! closed-loop blocks of invocations that alternate between the
//! centralized and the multi-port method until the window closes. Every
//! reply is checked against the seeded input.

use crate::alloc;
use crate::trace::{Span, SpanKind};
use pardis::apps::diffusion::DiffusionServant;
use pardis::stubs::diffusion::{diff_objectImpl, diff_objectProxy, diff_objectSkeleton};
use pardis_cdr::{CdrReader, CdrWriter, Decode, Encode};
use pardis_core::prelude::*;
use pardis_core::{InvokeTiming, Proxy};
use pardis_net::ior::OpArgDist;
use pardis_net::Link;
use pardis_rts::ReduceOp;
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client computing threads (`nproc` of the SPMD client).
pub const CLIENT_THREADS: usize = 2;
/// Server computing threads.
pub const SERVER_THREADS: usize = 2;
/// The two transfer methods, indexed as in [`MODE_NAMES`].
pub const MODES: [TransferMode; 2] = [TransferMode::Centralized, TransferMode::MultiPort];
/// Metric-name prefix of each transfer method.
pub const MODE_NAMES: [&str; 2] = ["cen", "mp"];

const OBJECT: &str = "perfbench";

/// The IDL operation a workload invokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `double total_heat(in diff_array darray)`.
    TotalHeat,
    /// `void diffusion(in long timestep, inout diff_array darray)` with
    /// timestep 0, so the array comes back unchanged.
    Diffusion,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::TotalHeat => "total_heat",
            Op::Diffusion => "diffusion",
        }
    }
}

/// One workload: an operation, a sequence length and the ORB setup.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub op: Op,
    /// Doubles in the distributed sequence.
    pub len: usize,
    /// `OrbOptions.translate` on both machines.
    pub translate: bool,
    /// Server-side distribution of the argument; `None` is blockwise.
    pub server_proportions: Option<[u32; SERVER_THREADS]>,
    /// Invocations per transfer-method block of the timed window.
    pub block: usize,
    /// Warm-up invocations per transfer method before timing starts.
    pub warmup: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small_rpc",
        op: Op::TotalHeat,
        len: 16,
        translate: false,
        server_proportions: None,
        block: 32,
        warmup: 64,
    },
    Workload {
        name: "bulk_in",
        op: Op::TotalHeat,
        len: 1 << 19,
        translate: false,
        server_proportions: None,
        block: 2,
        warmup: 4,
    },
    Workload {
        name: "inout_translate",
        op: Op::Diffusion,
        len: 1 << 16,
        translate: true,
        server_proportions: Some([1, 3]),
        block: 8,
        warmup: 16,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Application payload one invocation moves, in plus out: the
    /// distributed sequence each way it travels plus the scalar
    /// argument or return value.
    pub fn payload_bytes(&self) -> u64 {
        let seq = 8 * self.len as u64;
        match self.op {
            Op::TotalHeat => seq + 8,
            Op::Diffusion => 4 + 2 * seq,
        }
    }

    /// The largest message body the workload sends: the whole sequence
    /// (a centralized request).
    pub fn message_bytes(&self) -> usize {
        8 * self.len
    }

    /// Doubles one client thread owns (blockwise).
    pub fn client_block_len(&self) -> usize {
        self.len / CLIENT_THREADS
    }
}

/// Integer-valued doubles in [-1000, 1000] drawn from `seed`, so every
/// sum the servant computes is exact.
pub fn seeded_data(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z % 2001) as f64 - 1000.0
        })
        .collect()
}

/// What one stand-up does after binding.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Warm-up invocations per transfer method.
    pub warmup: usize,
    /// Length of the timed window (zero: warm-up only).
    pub window: Duration,
    /// Record spans, phase timings, serve samples and allocations.
    pub traced: bool,
}

/// One client thread's latency buffers, one per method. The timed window
/// ends early when they are full, so memory does not grow with speed.
pub type SampleBufs = [Vec<u64>; 2];

/// Sample buffers for every client thread, written once so their pages
/// are resident before any window opens. The caller hands the same
/// buffers to every stand-up, so the process's footprint does not
/// depend on which heap each new thread is given.
pub fn sample_buffers(cap: usize) -> Vec<SampleBufs> {
    (0..CLIENT_THREADS)
        .map(|_| [resident(cap), resident(cap)])
        .collect()
}

/// An empty vector whose `cap` elements of storage have been written,
/// so filling it later neither allocates nor raises the resident set.
pub fn resident<T: Copy + Default>(cap: usize) -> Vec<T> {
    let mut v = vec![T::default(); cap];
    v.clear();
    v
}

/// Per-method totals over the timed blocks.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModeTotals {
    pub invocations: u64,
    /// `Link::stats()` deltas (communicating thread only).
    pub messages: u64,
    pub wire_bytes: u64,
    /// Counting-allocator deltas, whole process (traced, communicating
    /// thread only).
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// `Proxy::retry_count` / `fallback_count` deltas of this thread.
    pub retries: u64,
    pub fallbacks: u64,
}

impl ModeTotals {
    pub fn add(&mut self, o: &ModeTotals) {
        self.invocations += o.invocations;
        self.messages += o.messages;
        self.wire_bytes += o.wire_bytes;
        self.allocs += o.allocs;
        self.alloc_bytes += o.alloc_bytes;
        self.retries += o.retries;
        self.fallbacks += o.fallbacks;
    }
}

/// One client thread's record of a stand-up.
#[derive(Debug, Default)]
pub struct ClientOut {
    /// Wall time of each timed invocation per method, in nanoseconds.
    pub wall_ns: [Vec<u64>; 2],
    /// Runtime phase timings of each timed invocation (traced only).
    pub timing: [Vec<InvokeTiming>; 2],
    /// Wall time of each timed block per method, in seconds, as the
    /// communicating thread saw it (communicating thread only).
    pub block_s: [Vec<f64>; 2],
    /// Call indices whose invocation failed or returned a wrong result.
    pub failed: Vec<u64>,
    /// Invocations issued, warm-up included.
    pub calls: u64,
    pub totals: [ModeTotals; 2],
    /// For each call in order, its method index when timed, `None` for
    /// warm-up (traced only).
    pub call_modes: Vec<Option<usize>>,
    pub spans: Vec<Span>,
}

/// One served request as the server loop saw it (traced only).
#[derive(Debug, Clone, Copy)]
pub struct ServeSample {
    pub serve: Duration,
    pub upcall: Duration,
    pub timing: InvokeTiming,
    pub decode_errors: u64,
}

/// One server thread's record of a stand-up.
#[derive(Debug, Default)]
pub struct ServerOut {
    pub samples: Vec<ServeSample>,
    pub spans: Vec<Span>,
}

/// Everything one stand-up produced.
pub struct StandUp {
    /// From `World::new` to both machines joined.
    pub elapsed: Duration,
    pub clients: Vec<ClientOut>,
    pub servers: Vec<ServerOut>,
}

impl StandUp {
    /// Invocations attempted and failed (an invocation fails when any
    /// client thread saw an error or a wrong result).
    pub fn attempted_failed(&self) -> (u64, u64) {
        let mut failed: Vec<u64> = self
            .clients
            .iter()
            .flat_map(|c| c.failed.iter().copied())
            .collect();
        failed.sort_unstable();
        failed.dedup();
        (self.clients[0].calls, failed.len() as u64)
    }

    /// Take the sample buffers back, emptied, for the next stand-up.
    pub fn take_samples(&mut self) -> Vec<SampleBufs> {
        self.clients
            .iter_mut()
            .map(|c| {
                let mut bufs = std::mem::take(&mut c.wall_ns);
                bufs.iter_mut().for_each(Vec::clear);
                bufs
            })
            .collect()
    }
}

/// Stand up a client and a server machine, run `plan`, shut down and
/// join. `epoch` is the zero point of span timestamps; `samples` holds
/// one set of buffers per client thread (empty for no timed window).
pub fn stand_up(
    w: Workload,
    data: &Arc<Vec<f64>>,
    plan: Plan,
    epoch: Instant,
    samples: Vec<SampleBufs>,
) -> StandUp {
    let calls_cap = record_capacity(plan, samples.first().map_or(0, |s| s[0].capacity()));
    let start = Instant::now();
    let world = World::new(LinkSpec::unlimited());
    let opts = OrbOptions {
        translate: w.translate,
        ..Default::default()
    };
    let dists: Vec<OpArgDist> = w
        .server_proportions
        .map(|p| OpArgDist {
            op: w.op.name().into(),
            arg_index: 0,
            dist: DistSpec::Proportions(p.to_vec()),
        })
        .into_iter()
        .collect();
    let server = world.spawn_machine_with("server", SERVER_THREADS, opts.clone(), move |ctx| {
        serve(ctx, dists.clone(), plan.traced, epoch, calls_cap)
    });
    let link = world
        .fabric()
        .default_link()
        .expect("World::new makes one shared link");
    let data = data.clone();
    let samples = Mutex::new(samples);
    let client = world.spawn_machine_with("client", CLIENT_THREADS, opts, move |ctx| {
        let bufs = samples
            .lock()
            .expect("no client thread panicked holding the buffers")
            .get_mut(ctx.rank())
            .map(std::mem::take)
            .unwrap_or_default();
        run_client(ctx, w, &data, plan, &link, epoch, bufs)
    });
    let clients = client.join();
    let servers = server.join();
    StandUp {
        elapsed: start.elapsed(),
        clients,
        servers,
    }
}

/// Invocations the traced records of one stand-up are allocated for up
/// front: the warm-ups plus full sample buffers of `per_mode` for both
/// methods, the most a stand-up issues. Allocating them before binding
/// keeps the benchmark's own bookkeeping out of what the counting
/// allocator sees inside the timed blocks. Zero when not traced.
fn record_capacity(plan: Plan, per_mode: usize) -> usize {
    if plan.traced {
        MODES.len() * (plan.warmup + per_mode)
    } else {
        0
    }
}

thread_local! {
    /// Start and end of the most recent servant upcall on this thread.
    static UPCALL: Cell<Option<(Instant, Instant)>> = const { Cell::new(None) };
}

/// The benchmark's servant: delegates to the paper's diffusion servant
/// and, when traced, records the span of the upcall.
struct BenchServant {
    inner: DiffusionServant,
    traced: bool,
}

impl BenchServant {
    fn upcall<T>(&mut self, f: impl FnOnce(&mut DiffusionServant) -> T) -> T {
        if !self.traced {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        UPCALL.with(|u| u.set(Some((t0, Instant::now()))));
        r
    }
}

impl diff_objectImpl for BenchServant {
    fn diffusion(
        &mut self,
        ctx: &OrbCtx,
        timestep: i32,
        darray: &mut DSequence<f64>,
    ) -> PardisResult<()> {
        self.upcall(|s| s.diffusion(ctx, timestep, darray))
    }

    fn total_heat(&mut self, ctx: &OrbCtx, darray: &DSequence<f64>) -> PardisResult<f64> {
        self.upcall(|s| s.total_heat(ctx, darray))
    }

    fn _get_steps_completed(&mut self, ctx: &OrbCtx) -> PardisResult<i32> {
        self.upcall(|s| s._get_steps_completed(ctx))
    }
}

fn serve(
    ctx: OrbCtx,
    dists: Vec<OpArgDist>,
    traced: bool,
    epoch: Instant,
    calls_cap: usize,
) -> ServerOut {
    let servant = BenchServant {
        inner: DiffusionServant::new(),
        traced,
    };
    diff_objectSkeleton::register(&ctx, OBJECT, servant, dists).expect("register the servant");
    let mut out = ServerOut {
        samples: Vec::with_capacity(calls_cap),
        spans: Vec::with_capacity(2 * calls_cap),
    };
    if !traced {
        ctx.serve_forever().expect("serve loop");
        return out;
    }
    let rank = ctx.rank();
    let mut invocation = 0u64;
    loop {
        let errors_before = ctx.serve_decode_errors();
        UPCALL.with(|u| u.set(None));
        let t0 = Instant::now();
        let more = ctx.serve_one().expect("serve loop");
        let t1 = Instant::now();
        if !more {
            return out;
        }
        let serve_span = Span::new(SpanKind::Serve, invocation, rank, epoch, t0, t1);
        let mut upcall = Duration::ZERO;
        if let Some((u0, u1)) = UPCALL.with(|u| u.get()) {
            upcall = u1 - u0;
            out.spans
                .push(Span::new(SpanKind::Upcall, invocation, rank, epoch, u0, u1));
        }
        out.spans.push(serve_span);
        out.samples.push(ServeSample {
            serve: t1 - t0,
            upcall,
            timing: ctx.last_serve_timing(),
            decode_errors: ctx.serve_decode_errors() - errors_before,
        });
        invocation += 1;
    }
}

/// A checked reply.
enum Outcome {
    Heat(f64),
    /// Whether the reply carried this thread's part of the sequence.
    Returned(bool),
}

/// One invocation, built exactly as the generated stub builds it, but
/// keeping the `ReplyResult` so its phase timings can be read.
fn invoke(
    proxy: &Proxy,
    ctx: &OrbCtx,
    op: Op,
    seq: &mut DSequence<f64>,
) -> PardisResult<(InvokeTiming, Outcome)> {
    match op {
        Op::TotalHeat => {
            let mut spec = RequestSpec::simple("total_heat");
            spec.dist_args
                .push(proxy.dist_arg("total_heat", 0, ArgDir::In, seq)?);
            let reply = proxy.invoke(ctx, spec)?;
            let mut r = CdrReader::new(&reply.nondist_body, ctx.endian());
            let heat = f64::decode(&mut r).map_err(PardisError::from)?;
            Ok((reply.timing, Outcome::Heat(heat)))
        }
        Op::Diffusion => {
            let mut spec = RequestSpec::simple("diffusion");
            let mut w = CdrWriter::new(ctx.endian());
            0i32.encode(&mut w).map_err(PardisError::from)?;
            spec.nondist_body = w.into_shared();
            spec.dist_args
                .push(proxy.dist_arg("diffusion", 0, ArgDir::InOut, &*seq)?);
            let reply = proxy.invoke(ctx, spec)?;
            let returned = match reply.dist_local(0) {
                Some(bytes) => {
                    let local = <f64 as Elem>::from_native_bytes(bytes);
                    *seq = DSequence::from_parts(local, seq.templ().clone(), seq.thread())?;
                    true
                }
                None => false,
            };
            Ok((reply.timing, Outcome::Returned(returned)))
        }
    }
}

/// One client thread's invocation state.
struct Caller<'a> {
    ctx: &'a OrbCtx,
    proxy: diff_objectProxy,
    op: Op,
    seq: DSequence<f64>,
    /// Exact sum of the whole sequence.
    want_sum: f64,
    /// This thread's part, as sent.
    want_local: &'a [f64],
    traced: bool,
    epoch: Instant,
    out: ClientOut,
}

impl Caller<'_> {
    /// Issue one invocation; `timed` is the method index inside the
    /// timed window, `None` during warm-up.
    fn call(&mut self, timed: Option<usize>) {
        let t0 = Instant::now();
        let result = invoke(&self.proxy.proxy, self.ctx, self.op, &mut self.seq);
        let t1 = Instant::now();
        let ok = match &result {
            Ok((_, Outcome::Heat(h))) => h.to_bits() == self.want_sum.to_bits(),
            Ok((_, Outcome::Returned(true))) => {
                let got = self.seq.local_data();
                got.len() == self.want_local.len()
                    && got
                        .iter()
                        .zip(self.want_local)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            Ok((_, Outcome::Returned(false))) | Err(_) => false,
        };
        if !ok {
            self.out.failed.push(self.out.calls);
        }
        if self.traced {
            self.out.spans.push(Span::new(
                SpanKind::Invoke,
                self.out.calls,
                self.ctx.rank(),
                self.epoch,
                t0,
                t1,
            ));
            self.out.call_modes.push(timed);
        }
        if let Some(m) = timed {
            self.out.wall_ns[m].push((t1 - t0).as_nanos() as u64);
            if self.traced {
                let timing = result.map(|(t, _)| t).unwrap_or_default();
                self.out.timing[m].push(timing);
            }
        }
        self.out.calls += 1;
    }
}

fn run_client(
    ctx: OrbCtx,
    w: Workload,
    data: &[f64],
    plan: Plan,
    link: &Link,
    epoch: Instant,
    samples: SampleBufs,
) -> ClientOut {
    let calls_cap = record_capacity(plan, samples[0].capacity());
    let proxy = diff_objectProxy::_spmd_bind(&ctx, OBJECT, None).expect("_spmd_bind");
    let mut seq = DSequence::<f64>::new(ctx.rts(), w.len, None).expect("client dsequence");
    let range = seq.local_range();
    seq.local_data_mut().copy_from_slice(&data[range.clone()]);
    let mut caller = Caller {
        ctx: &ctx,
        proxy,
        op: w.op,
        seq,
        want_sum: data.iter().sum(),
        want_local: &data[range],
        traced: plan.traced,
        epoch,
        out: ClientOut {
            block_s: [0, 1].map(|_| Vec::with_capacity(samples[0].capacity() / w.block)),
            timing: [0, 1].map(|_| Vec::with_capacity(calls_cap / MODES.len())),
            call_modes: Vec::with_capacity(calls_cap),
            spans: Vec::with_capacity(calls_cap),
            wall_ns: samples,
            ..ClientOut::default()
        },
    };
    let timed = !plan.window.is_zero();
    let capacity = caller.out.wall_ns[0].capacity();

    for mode in MODES {
        caller
            .proxy
            ._set_transfer_mode(mode)
            .expect("transfer mode");
        for _ in 0..plan.warmup {
            caller.call(None);
        }
    }

    let comm = ctx.is_comm_thread();
    let deadline = Instant::now() + plan.window;
    let mut round = 0usize;
    loop {
        // The communicating thread decides whether another round of one
        // block per method fits; every thread follows its verdict.
        let go = timed
            && comm
            && Instant::now() < deadline
            && caller.out.wall_ns[0].len() + w.block <= capacity;
        let go = ctx
            .rts()
            .allreduce_scalar(if go { 1.0 } else { 0.0 }, ReduceOp::Max)
            .expect("round agreement");
        if go == 0.0 {
            break;
        }
        // Alternate which method goes first, so drift in host load
        // falls on both alike.
        for i in 0..MODES.len() {
            let m = (round + i) % MODES.len();
            caller
                .proxy
                ._set_transfer_mode(MODES[m])
                .expect("transfer mode");
            ctx.rts().barrier();
            let retries = caller.proxy.proxy.retry_count();
            let fallbacks = caller.proxy.proxy.fallback_count();
            let before = comm.then(|| (link.stats(), alloc::snapshot()));
            let t0 = Instant::now();
            for _ in 0..w.block {
                caller.call(Some(m));
            }
            // All client threads have their replies, so every message of
            // the block has crossed the link.
            ctx.rts().barrier();
            let busy = t0.elapsed();
            let t = &mut caller.out.totals[m];
            t.retries += caller.proxy.proxy.retry_count() - retries;
            t.fallbacks += caller.proxy.proxy.fallback_count() - fallbacks;
            if let Some((link0, alloc0)) = before {
                let link1 = link.stats();
                let alloc1 = alloc::snapshot();
                t.invocations += w.block as u64;
                caller.out.block_s[m].push(busy.as_secs_f64());
                t.messages += link1.messages - link0.messages;
                t.wire_bytes += link1.payload_bytes - link0.payload_bytes;
                t.allocs += alloc1.0 - alloc0.0;
                t.alloc_bytes += alloc1.1 - alloc0.1;
            }
        }
        round += 1;
    }

    if comm {
        ctx.send_shutdown(caller.proxy.proxy.objref())
            .expect("shutdown message");
    }
    caller.out
}
