//! The hierarchical embedding of random graphs (§3.1 of the paper).
//!
//! This crate builds the paper's routing structure:
//!
//! 1. **Virtual nodes** — every node `v` of the base graph simulates
//!    `d_G(v)` virtual nodes, `2m` in total ([`VirtualMap`]).
//! 2. **Level-0 overlay `G₀`** — an Erdős–Rényi-like random graph on the
//!    virtual nodes, built from parallel lazy random walks of length
//!    `τ_mix` ([`level0`]); each overlay edge remembers the base-graph walk
//!    path that realizes it.
//! 3. **Recursive levels `G₁ … G_k`** — the virtual nodes are partitioned by
//!    a Θ(log n)-wise independent hash into β parts per level
//!    ([`amt_kwise::PartitionHash`]); each level's random graph connects
//!    nodes within the same part, embedded by 2Δ-regular walks on the
//!    previous level; the bottom level gets complete graphs on its
//!    `O(log n)`-size parts.
//! 4. **Portals** — for every pair of sibling parts, each virtual node
//!    learns a uniformly random boundary node through which messages hop to
//!    the sibling (Lemma 3.3), discovered by random walks.
//!
//! Round costs are **measured**: emulating a batch of level-`p` edge
//! crossings recursively expands into level-`(p−1)` traffic and ultimately
//! into base-graph traffic, each batch scheduled by a race over the stored
//! paths that reproduces the store-and-forward router of `amt-walks`
//! ([`Hierarchy::emulate_batch`]). Routing records the path sets it needs
//! priced in a ledger of [`LedgerEntry`]s. [`Hierarchy::price_stream`]
//! prices entries on several threads while a producer is still pushing
//! them through a [`LedgerFeed`] (the MST's Borůvka loop), and
//! [`Hierarchy::price_ledger`] prices a recorded ledger through the same
//! workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod hierarchy;
mod ledger;
mod overlay;
mod portals;
mod race;
mod stats;
mod virt;

pub mod level0;

pub use config::HierarchyConfig;
pub use error::EmbedError;
pub use hierarchy::{EmulationMode, EmulationScratch, Hierarchy, PricingCounts};
pub use ledger::{LedgerEntry, LedgerFeed, Price};
pub use overlay::{dir_key, key_edge, key_is_forward, DirPath, Overlay};
pub use portals::{PortalEntry, PortalTable};
pub use stats::{BuildStats, LevelStats};
pub use virt::{VirtualId, VirtualMap};

/// Result alias for embedding operations.
pub type Result<T> = std::result::Result<T, EmbedError>;
