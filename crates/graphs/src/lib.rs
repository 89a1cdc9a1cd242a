//! Graph substrate for the almost-mixing-time reproduction.
//!
//! This crate provides the static, immutable graph types that every other
//! crate in the workspace builds on:
//!
//! * [`Graph`] — an undirected (multi)graph in CSR form with stable
//!   [`EdgeId`]s, supporting self-loops and parallel edges (needed for the
//!   2Δ-regularized multigraph of Definition 2.2 of the paper).
//! * [`WeightedGraph`] — a [`Graph`] plus `u64` edge weights with a
//!   canonical unique-weight order (weight, then [`EdgeId`]) so that the
//!   minimum spanning tree is always unique, as the paper assumes.
//! * [`generators`] — the graph families used by the experiments:
//!   Erdős–Rényi, random regular, hypercube, torus, ring, complete graph,
//!   barbell/lollipop (slow-mixing controls), dumbbell expanders and
//!   preferential attachment.
//! * [`traversal`] — BFS, connected components, diameter, BFS trees and
//!   shortest paths.
//! * [`expansion`] — edge expansion `h(G)` and conductance `φ(G)` (exact by
//!   enumeration for tiny graphs, spectral estimates otherwise) and the
//!   spectral toolkit (second eigenvalue of the lazy-walk matrix by power
//!   iteration).
//! * [`partitioning`] — the Fiedler-vector sweep cut (the constructive side
//!   of Cheeger's inequality), used to locate sparse cuts.
//! * [`io`] — plain-text edge-list reading/writing (SNAP-style).
//!
//! All randomized constructions take an explicit [`rand::Rng`] so that every
//! experiment in the workspace is reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;
mod ids;
mod weighted;

pub mod expansion;
pub mod generators;
pub mod io;
pub mod partitioning;
pub mod traversal;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, NeighborIter};
pub use ids::{EdgeId, NodeId};
pub use weighted::{EdgeWeight, WeightedGraph};

/// Convenient result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
