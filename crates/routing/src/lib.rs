//! Distributed permutation routing in almost mixing time (§3.2 of the
//! paper), plus baselines and clique emulation.
//!
//! The main entry point is [`HierarchicalRouter`]: given a built
//! [`amt_embedding::Hierarchy`] and a set of node-level source–destination
//! requests, it
//!
//! 1. splits the requests into phases if any node exceeds the
//!    `d_G(v)·O(log n)` load promise (footnote 3 of the paper),
//! 2. redistributes each packet by a lazy walk of length `τ_mix`
//!    (the *preparation step*),
//! 3. routes recursively down the partition tree: intra-part packets
//!    recurse directly; cross-part packets route to their portal, hop over
//!    one parent-level edge, and recurse in the sibling part,
//! 4. delivers within the `O(log n)`-size bottom parts over their complete
//!    graphs.
//!
//! All round costs are *measured* through the hierarchy's recursive
//! emulation. [`HierarchicalRouter::plan`] routes without pricing and
//! returns the path sets to price as a [`RoutePlan`];
//! [`HierarchicalRouter::route`] prices that plan at once. [`baseline`] provides a centralized shortest-path router (the
//! congestion+dilation reference) and a naive random-walk router;
//! [`clique`] provides all-to-all emulation in the spirit of Theorem 1.3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod hierarchical;
mod outcome;

pub mod baseline;
pub mod clique;
pub mod congest_route;

pub use amt_embedding::EmulationMode;
pub use congest_route::{
    route_bitfix, route_bitfix_observed, ChurnedRouteOutcome, CongestRouteOutcome,
    MAX_ROUTE_EPOCHS, STALL_LIMIT,
};
// The repository benchmark's pinned calls name these two at the crate root.
#[doc(hidden)]
pub use congest_route::{route_bitfix_churned_instrumented, route_bitfix_instrumented};
pub use error::RouteError;
pub use hierarchical::{HierarchicalRouter, RoutePlan, RouterConfig};
pub use outcome::RoutingOutcome;

/// Result alias for routing operations.
pub type Result<T> = std::result::Result<T, RouteError>;
