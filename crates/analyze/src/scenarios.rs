//! Pass 2: known-divergent SPMD programs.
//!
//! Each scenario stands up a parallel server and a parallel client on
//! the [`World`] testbed and makes the client's computing threads
//! violate the SPMD contract in a specific way. Without the `instrument`
//! feature every one of these deadlocks (the divergent threads wait on
//! collectives with mismatched participants); with it, the
//! collective-consistency verifier turns the divergence into a typed
//! [`PardisError::CollectiveMismatch`] on *every* thread, naming the
//! divergent thread and both call sites (finding PA101).

use bytes::Bytes;
use pardis_core::prelude::*;
use pardis_core::{DistArgSend, DistTempl};

const VICTIM_TYPE: &str = "IDL:analyze_victim:1.0";

/// A servant whose operations all succeed trivially — the divergence is
/// caught client-side, before any request reaches it.
struct Victim;

impl Servant for Victim {
    fn type_id(&self) -> &str {
        VICTIM_TYPE
    }
    fn dispatch(&mut self, req: &mut ServerRequest<'_>) -> PardisResult<()> {
        req.set_result(|_| Ok(()))
    }
}

/// The per-thread outcome of one divergent invocation.
#[derive(Debug, Clone)]
pub struct ThreadOutcome {
    /// The client thread's rank.
    pub rank: usize,
    /// What `invoke` returned on that thread.
    pub result: Result<(), PardisError>,
}

/// A runnable divergence scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Thread 0 invokes `step` while thread 1 invokes `reset` —
    /// mismatched operation order.
    MismatchedOrder,
    /// Both threads invoke `step`, but with different distribution
    /// templates for the same argument.
    DivergentTemplate,
    /// Both threads invoke `step`, but with payload lengths in
    /// different length classes (16 vs 4096 elements).
    DivergentLength,
    /// Control: all threads invoke identically; must succeed — the
    /// verifier's zero-false-positive check.
    Uniform,
}

impl Scenario {
    /// All scenarios, divergent ones first.
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::MismatchedOrder,
            Scenario::DivergentTemplate,
            Scenario::DivergentLength,
            Scenario::Uniform,
        ]
    }

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::MismatchedOrder => "mismatched-order",
            Scenario::DivergentTemplate => "divergent-template",
            Scenario::DivergentLength => "divergent-length",
            Scenario::Uniform => "uniform-control",
        }
    }

    /// Whether the verifier is supposed to reject this scenario.
    pub fn is_divergent(self) -> bool {
        self != Scenario::Uniform
    }

    /// Build the request a given client rank issues under this
    /// scenario. The divergence lives entirely in here.
    fn spec_for(self, rank: usize) -> RequestSpec {
        let dist_arg = |counts: Vec<usize>| {
            let templ = DistTempl::from_counts(counts);
            DistArgSend {
                dir: ArgDir::In,
                elem_size: 8,
                local: Bytes::new(),
                client_templ: templ.clone(),
                server_templ: templ,
                buf_id: pardis_core::probe::BufId::untracked(),
            }
        };
        match self {
            Scenario::MismatchedOrder => {
                RequestSpec::simple(if rank == 0 { "step" } else { "reset" })
            }
            Scenario::DivergentTemplate => {
                // Same op, same total length, different split.
                let counts = if rank == 0 { vec![8, 8] } else { vec![12, 4] };
                let mut spec = RequestSpec::simple("step");
                spec.dist_args.push(dist_arg(counts));
                spec
            }
            Scenario::DivergentLength => {
                // Same split shape, totals in different length classes.
                let counts = if rank == 0 {
                    vec![8, 8]
                } else {
                    vec![2048, 2048]
                };
                let mut spec = RequestSpec::simple("step");
                spec.dist_args.push(dist_arg(counts));
                spec
            }
            Scenario::Uniform => RequestSpec::simple("step"),
        }
    }
}

/// Run `scenario` with a 2-thread SPMD client and return what each
/// client thread observed. Divergent scenarios return promptly — the
/// whole point is that they *don't* deadlock. `Err` means the testbed
/// itself failed (bind, serve loop, shutdown), not the scenario.
pub fn run(scenario: Scenario) -> Result<Vec<ThreadOutcome>, String> {
    let world = World::new(LinkSpec::unlimited());
    let server = world.spawn_machine("server", 2, |ctx| -> Result<(), String> {
        ctx.register("victim", Box::new(Victim), vec![])
            .map_err(|e| format!("register victim servant: {e}"))?;
        ctx.serve_forever()
            .map_err(|e| format!("victim serve loop: {e}"))
    });
    let client = world.spawn_machine("client", 2, move |ctx| {
        let rank = ctx.rank();
        let proxy = match ctx.spmd_bind("victim", None, Some(VICTIM_TYPE)) {
            Ok(p) => p,
            Err(e) => {
                return Err(format!("rank {rank}: spmd_bind victim: {e}"));
            }
        };
        let result = proxy.invoke(&ctx, scenario.spec_for(rank)).map(|_| ());
        // Divergent-order threads disagree again on any further
        // collective, so re-synchronize over the raw RTS before
        // shutting the server down.
        ctx.rts().barrier();
        if ctx.is_comm_thread() {
            ctx.send_shutdown(proxy.objref())
                .map_err(|e| format!("rank {rank}: shutdown victim: {e}"))?;
        }
        Ok(ThreadOutcome { rank, result })
    });
    // Join the client first: if its threads failed before the shutdown
    // was sent, surface that error instead of waiting on the server.
    let mut outcomes = client.join().into_iter().collect::<Result<Vec<_>, _>>()?;
    for r in server.join() {
        r?;
    }
    outcomes.sort_by_key(|o| o.rank);
    Ok(outcomes)
}

/// Check one scenario's outcomes against the contract: divergent runs
/// fail with `CollectiveMismatch` (naming a thread and both sites) on
/// every thread, the uniform control succeeds on every thread. Returns
/// a list of violations (empty = pass).
pub fn check(scenario: Scenario, outcomes: &[ThreadOutcome]) -> Vec<String> {
    let mut problems = Vec::new();
    for o in outcomes {
        match (&o.result, scenario.is_divergent()) {
            (Ok(()), false) => {}
            (Ok(()), true) => {
                problems.push(format!(
                    "{}: thread {} succeeded; expected CollectiveMismatch",
                    scenario.name(),
                    o.rank
                ));
            }
            (
                Err(PardisError::CollectiveMismatch {
                    thread,
                    mine,
                    theirs,
                }),
                true,
            ) => {
                if *thread == 0 {
                    problems.push(format!(
                        "{}: thread {} blames rank 0, the reference rank",
                        scenario.name(),
                        o.rank
                    ));
                }
                if mine.is_empty() || theirs.is_empty() {
                    problems.push(format!(
                        "{}: thread {} got a mismatch without both call sites",
                        scenario.name(),
                        o.rank
                    ));
                }
            }
            (Err(e), true) => {
                problems.push(format!(
                    "{}: thread {} failed with {e} instead of CollectiveMismatch",
                    scenario.name(),
                    o.rank
                ));
            }
            (Err(e), false) => {
                problems.push(format!(
                    "{}: control run failed on thread {}: {e}",
                    scenario.name(),
                    o.rank
                ));
            }
        }
    }
    problems
}
