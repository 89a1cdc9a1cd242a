//! Construction parameters.

use crate::{EmbedError, Result};
use amt_graphs::Graph;

/// All constants of the hierarchical construction, exposed explicitly.
///
/// The paper's proof constants (e.g. `200 log n` walks per virtual node)
/// guarantee high-probability bounds for enormous `n`; simulations use the
/// same *shapes* with practical constants, all configurable here. Every
/// experiment in `amt-bench` states the values used.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchyConfig {
    /// Branching factor β of the partition tree
    /// (paper: `2^O(√(log n log log n))`).
    pub beta: u32,
    /// Depth k of the partition tree (paper: `log_β (m / log m)`).
    pub levels: u32,
    /// Out-neighbors each virtual node keeps per level
    /// (paper: `100 log n` at level 0, `O(log n)` above).
    pub overlay_degree: usize,
    /// Walks started per virtual node for the level-0 embedding
    /// (paper: `200 log n`; must be ≥ `overlay_degree`).
    pub level0_walks: usize,
    /// Walk length for the level-0 embedding — the (estimated) mixing time
    /// `τ_mix` of the base graph. Supplied by the caller (usually from
    /// `amt_walks::mixing`).
    pub tau_mix: u32,
    /// Surplus multiplier for per-level walks: each virtual node starts
    /// `walk_surplus · β · overlay_degree` walks per level (success
    /// probability per walk is ≈ 1/β).
    pub walk_surplus: f64,
    /// Walk length on overlays is `level_walk_factor · (⌈log₂ s⌉ + 1)` where
    /// `s` is the expected part size at the walked level (paper:
    /// `τ_mix(G₀) = O(log n)`).
    pub level_walk_factor: u32,
    /// Independence of the partition hash (paper: Θ(log n)).
    pub independence: usize,
    /// Walks per virtual node per sibling part for portal discovery
    /// (paper: β).
    pub portal_walks: usize,
    /// RNG seed; the partition-hash seed is derived from it (modeling the
    /// `Θ(log² n)` shared random bits broadcast once).
    pub seed: u64,
}

impl HierarchyConfig {
    /// Paper-shaped defaults for `g` with practical constants:
    /// β and depth from [`amt_kwise::paper_parameters`] on the `2m` virtual
    /// nodes, logarithmic degrees and walk counts.
    pub fn auto(g: &Graph, tau_mix: u32, seed: u64) -> Self {
        let vnodes = g.volume().max(4);
        let (beta, levels) = amt_kwise::paper_parameters(vnodes);
        // Simulation-practical clamps: β beyond 16 makes the per-level walk
        // count (∝ β) and portal discovery (∝ β·portal_walks) dominate
        // wall-clock at the sizes a simulator reaches.
        let beta = beta.min(16);
        let log_n = (g.len().max(2) as f64).log2();
        HierarchyConfig {
            beta,
            levels,
            overlay_degree: (log_n.ceil() as usize).clamp(3, 12),
            level0_walks: (2.0 * log_n).ceil() as usize,
            tau_mix,
            walk_surplus: 1.5,
            level_walk_factor: 2,
            independence: (log_n.ceil() as usize).max(4),
            portal_walks: (beta as usize).min(8),
            seed,
        }
    }

    /// Expected part size at `depth` for a graph with `vnodes` virtual nodes.
    pub fn expected_part_size(&self, vnodes: usize, depth: u32) -> f64 {
        let mut s = vnodes as f64;
        for _ in 0..depth {
            s /= f64::from(self.beta);
        }
        s
    }

    /// Walk length used when embedding level `p` (walks run on level `p−1`).
    pub fn level_walk_len(&self, vnodes: usize, p: u32) -> u32 {
        let s = self
            .expected_part_size(vnodes, p.saturating_sub(1))
            .max(2.0);
        self.level_walk_factor * (s.log2().ceil() as u32 + 1)
    }

    /// Walks started per virtual node when embedding a non-zero level.
    pub fn walks_per_vnode(&self) -> usize {
        ((self.walk_surplus * f64::from(self.beta) * self.overlay_degree as f64).ceil() as usize)
            .max(self.overlay_degree)
    }

    /// Validates field ranges against the target graph.
    ///
    /// # Errors
    ///
    /// [`EmbedError::InvalidConfig`] with the violated constraint.
    pub fn validate(&self, g: &Graph) -> Result<()> {
        let fail = |reason: String| Err(EmbedError::InvalidConfig { reason });
        if self.beta < 2 {
            return fail(format!("beta = {} must be ≥ 2", self.beta));
        }
        // The portal builder keeps a node's boundary labels as a `u64` mask.
        if self.beta > 64 {
            return fail(format!("beta = {} must be ≤ 64", self.beta));
        }
        if self.levels == 0 {
            return fail("levels must be ≥ 1".into());
        }
        if self.overlay_degree == 0 {
            return fail("overlay_degree must be ≥ 1".into());
        }
        if self.level0_walks < self.overlay_degree {
            return fail(format!(
                "level0_walks = {} must be ≥ overlay_degree = {}",
                self.level0_walks, self.overlay_degree
            ));
        }
        if self.tau_mix == 0 {
            return fail("tau_mix must be ≥ 1".into());
        }
        if self.walk_surplus.is_nan() || self.walk_surplus < 1.0 {
            return fail(format!("walk_surplus = {} must be ≥ 1", self.walk_surplus));
        }
        if self.independence == 0 {
            return fail("independence must be ≥ 1".into());
        }
        if self.portal_walks == 0 {
            return fail("portal_walks must be ≥ 1".into());
        }
        let vnodes = g.volume();
        let bottom = self.expected_part_size(vnodes, self.levels);
        if bottom < 2.0 {
            return fail(format!(
                "β^levels = {}^{} leaves expected bottom parts of size {bottom:.2} < 2; \
                 lower levels or beta",
                self.beta, self.levels
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn auto_config_validates() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::random_regular(128, 6, &mut rng).unwrap();
        let cfg = HierarchyConfig::auto(&g, 40, 7);
        cfg.validate(&g).unwrap();
        assert!(cfg.beta >= 2);
        assert!(cfg.levels >= 1);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let g = generators::ring(16);
        let base = HierarchyConfig::auto(&g, 10, 0);
        let mut c = base.clone();
        c.beta = 1;
        assert!(c.validate(&g).is_err());
        // β = 65 on a graph big enough for one level of 65 parts: only the
        // β bound rejects it.
        let big = generators::ring(128);
        let mut c = HierarchyConfig::auto(&big, 10, 0);
        c.levels = 1;
        c.beta = 64;
        assert!(c.validate(&big).is_ok());
        c.beta = 65;
        assert!(c.validate(&big).is_err());
        let mut c = base.clone();
        c.levels = 0;
        assert!(c.validate(&g).is_err());
        let mut c = base.clone();
        c.level0_walks = 0;
        assert!(c.validate(&g).is_err());
        let mut c = base.clone();
        c.tau_mix = 0;
        assert!(c.validate(&g).is_err());
        let mut c = base;
        c.levels = 20; // bottom parts would be far below size 2
        assert!(c.validate(&g).is_err());
    }

    #[test]
    fn derived_quantities_behave() {
        let g = generators::ring(64);
        let cfg = HierarchyConfig::auto(&g, 10, 0);
        let vn = g.volume();
        assert!(cfg.expected_part_size(vn, 0) as usize == vn);
        assert!(cfg.expected_part_size(vn, 1) < vn as f64);
        assert!(cfg.level_walk_len(vn, 1) >= 2);
        assert!(cfg.walks_per_vnode() >= cfg.overlay_degree);
    }
}
