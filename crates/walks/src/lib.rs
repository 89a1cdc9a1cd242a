//! Random-walk machinery for the almost-mixing-time reproduction.
//!
//! The paper's constructions are built almost entirely out of random walks:
//!
//! * **Definitions 2.1/2.2** — the lazy walk and the 2Δ-regular walk, with
//!   the mixing time `τ_mix` defined by per-node relative deviation from the
//!   stationary distribution. [`mixing`] computes `τ_mix` exactly (dense
//!   distribution evolution over all sources) for small graphs and by
//!   spectral estimate for large ones, plus the Cheeger upper bound of
//!   Lemma 2.3.
//! * **Lemmas 2.4/2.5** — many independent walks run in parallel, with each
//!   node starting `k·d(v)` of them, scheduled so each edge carries one
//!   token per direction per round. [`parallel`] implements this
//!   token-level and reports *measured* round costs, per-step edge loads and
//!   per-node token loads, plus the recorded trajectories needed to run the
//!   walks backwards (as the constructions of §3.1 require); callers that
//!   only need where walks end use its endpoint-only entry point.
//! * [`schedule`] — a store-and-forward path router: given tokens with fixed
//!   paths over an arbitrary directed-capacity key space, computes the FIFO
//!   makespan under capacity `c` per key per round. This single primitive
//!   provides honest round accounting for every overlay-graph emulation in
//!   `amt-embedding`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kind;

pub mod congest_exec;
pub mod healing;
pub mod mixing;
pub mod parallel;
pub mod schedule;
pub mod times;

pub use congest_exec::{run_walks_in_congest, CongestWalkRun};
pub use healing::{
    run_walks_healing, run_walks_healing_churned, run_walks_healing_churned_instrumented,
    run_walks_healing_instrumented, run_walks_healing_observed, HealedWalkRun, MAX_EPOCHS,
};
pub use kind::WalkKind;
pub use parallel::{run_correlated_walks, run_parallel_walks, run_walk_ends};
pub use parallel::{
    ParallelWalkRun, Trajectory, WalkArena, WalkEnds, WalkSpec, WalkStats, STAY_KEY,
};
pub use schedule::{route_paths, KeyPaths, KeySlab, PathRouteStats, PathScheduler};
