//! Measured construction statistics.

use crate::overlay::Overlay;
use amt_congest::PhaseTimings;

/// Per-level construction measurements.
#[derive(Clone, Debug, Default)]
pub struct LevelStats {
    /// Level index.
    pub level: u32,
    /// Overlay edges created.
    pub edges: usize,
    /// Edges created by connectivity fallbacks (BFS-embedded) rather than
    /// successful walks.
    pub fallback_edges: usize,
    /// Average embedded path length (in lower-level edges).
    pub avg_path_len: f64,
    /// Maximum embedded path length.
    pub max_path_len: usize,
    /// Rounds spent by the construction walks, in *lower-level* rounds
    /// (level 0: base rounds; level p: rounds of `G_{p−1}`).
    pub walk_rounds_lower: u64,
    /// Measured base rounds to emulate one *full* round of this level
    /// (every edge carrying one message in each direction), used to convert
    /// level rounds to base rounds.
    pub full_round_base_cost: u64,
    /// Construction cost converted to base-graph rounds.
    pub build_base_rounds: u64,
    /// Minimum / maximum overlay degree over virtual nodes with any edges.
    pub min_degree: usize,
    /// Maximum overlay degree.
    pub max_degree: usize,
}

impl LevelStats {
    /// The stats of a freshly built `overlay`, with its construction cost;
    /// the hierarchy builder fills in `full_round_base_cost`.
    pub(crate) fn measure(
        overlay: &Overlay,
        walk_rounds_lower: u64,
        build_base_rounds: u64,
    ) -> Self {
        let graph = overlay.graph();
        let (avg_path_len, max_path_len) = overlay.path_length_stats();
        let degrees = || graph.nodes().map(|v| graph.degree(v));
        LevelStats {
            level: overlay.level(),
            edges: graph.edge_count(),
            fallback_edges: overlay.fallback_edges(),
            avg_path_len,
            max_path_len,
            walk_rounds_lower,
            full_round_base_cost: 0,
            build_base_rounds,
            min_degree: degrees().min().unwrap_or(0),
            max_degree: degrees().max().unwrap_or(0),
        }
    }
}

/// Aggregate construction measurements of a [`crate::Hierarchy`].
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// One entry per overlay level (0 ..= levels).
    pub levels: Vec<LevelStats>,
    /// Base rounds for portal discovery, per partition depth (1 ..= levels).
    pub portal_base_rounds: Vec<u64>,
    /// Portal entries filled by the uniform-boundary fallback instead of a
    /// successful walk.
    pub portal_fallbacks: u64,
    /// Base rounds to broadcast the shared hash seed (`O(D · log n)` model,
    /// measured as diameter × seed words).
    pub seed_broadcast_rounds: u64,
    /// Grand total of measured base rounds for the whole construction.
    pub total_base_rounds: u64,
    /// Host wall-clock time per construction phase (`"level0"`,
    /// `"walk_levels"`, `"bottom"`, `"portals"` entries); excluded from
    /// equality like all [`PhaseTimings`].
    pub wall: PhaseTimings,
}

impl BuildStats {
    /// Sum of per-level build costs plus portals plus seed broadcast.
    pub fn recompute_total(&mut self) {
        self.total_base_rounds = self
            .levels
            .iter()
            .map(|l| l.build_base_rounds)
            .chain(self.portal_base_rounds.iter().copied())
            .sum::<u64>()
            + self.seed_broadcast_rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut s = BuildStats {
            levels: vec![
                LevelStats {
                    build_base_rounds: 10,
                    ..Default::default()
                },
                LevelStats {
                    build_base_rounds: 5,
                    ..Default::default()
                },
            ],
            portal_base_rounds: vec![3, 2],
            seed_broadcast_rounds: 4,
            ..Default::default()
        };
        s.recompute_total();
        assert_eq!(s.total_base_rounds, 24);
    }
}
