//! Minimum spanning tree in almost mixing time (§4 of the paper) and
//! baselines.
//!
//! * [`almost_mixing`] — the paper's algorithm: Boruvka iterations with the
//!   head/tail coin modification (star-shaped merges), per-component
//!   **virtual trees** maintaining the Lemma 4.1 invariants (depth
//!   `O(log² n)`, per-node virtual degree `≤ d_G(v)·O(log n)`), and every
//!   upcast/downcast/balancing step executed as a permutation-routing
//!   instance on the hierarchical embedding — rounds are measured, not
//!   assumed.
//! * [`congest_boruvka`] — the classic fragment-flooding Boruvka in the raw
//!   CONGEST simulator (GHS flavor): the `O(n log n)`-worst-case baseline.
//! * [`gkp`] — a simplified Garay–Kutten–Peleg two-phase `Õ(D + √n)`
//!   baseline: controlled fragment growth, then pipelined upcasts over a
//!   global BFS tree.
//! * [`reference`](mod@reference) — centralized Kruskal/Prim and an MST verifier; every
//!   distributed variant is checked against them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod almost_mixing;
pub mod congest_boruvka;
pub mod gkp;
pub mod healing;
pub mod reference;
pub mod verification;

pub use almost_mixing::{AlmostMixingMst, AmtMstOutcome, IterationStats};
pub use error::MstError;
pub use healing::{
    run_healing, run_healing_churned, run_healing_churned_instrumented, run_healing_instrumented,
    run_healing_observed, HealedMstOutcome,
};

/// Result alias for MST operations.
pub type Result<T> = std::result::Result<T, MstError>;
