//! # pardis-analyze — collective-consistency analysis for PARDIS
//!
//! PARDIS's core contract — a request is satisfied only when delivered
//! to *all* computing threads, and after `_spmd_bind` every invocation
//! is collective (§2.1, §3.2) — makes divergent control flow across
//! SPMD threads the dominant silent-deadlock class. This crate bundles
//! the three cooperating passes that check the contract:
//!
//! 1. **IDL static lints** ([`idl`]) — [`pardis_idl::lint`] findings
//!    (`PA001`…`PA007`) over `.idl` sources, with a seeded defect
//!    corpus and exact expected-findings matching.
//! 2. **Collective-consistency runtime verification** ([`scenarios`])
//!    — known-divergent SPMD programs run on the
//!    [`pardis_core::World`] testbed with the `instrument` feature, each
//!    of which must fail with a typed
//!    [`pardis_core::PardisError::CollectiveMismatch`] (finding PA101)
//!    instead of deadlocking.
//! 3. **Wait-for-graph deadlock detection** ([`lockcheck`]) — the
//!    [`pardis_rts::lockgraph`] cycle detector over lock *and*
//!    pending-collective nodes (findings PA102 and PA203).
//! 4. **Happens-before race replay** ([`racecheck`]) — seeded SPMD
//!    programs whose mid-flight buffer accesses and unfenced one-sided
//!    writes must be reported by [`pardis_core::race`] (findings PA201
//!    and PA202), bit-for-bit identically across replays of one seed.
//!
//! The `pardis-analyze` binary drives all four; see `--help`.

pub mod idl;
pub mod lockcheck;
pub mod racecheck;
pub mod scenarios;
