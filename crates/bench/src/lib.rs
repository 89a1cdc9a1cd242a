//! Shared support for the experiment binaries.
//!
//! Every experiment in DESIGN.md §5 is a binary under `src/bin/` named
//! after its experiment id (`e1_mst_scaling`, …, `f1_hierarchy_figure`).
//! Each prints a self-contained table to stdout through a [`Report`], which
//! also writes it as a schema-versioned JSON report; EXPERIMENTS.md records
//! the paper-claim vs measured discussion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod scale;

pub use report::Report;

use amt_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Standard expander family used across experiments: a random `d`-regular
/// graph on `n` nodes, deterministic in `seed`.
pub fn expander(n: usize, d: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::random_regular(n, d, &mut rng).expect("valid regular parameters")
}

/// The spectral mixing-time estimate (Definition 2.1 deviation), clamped.
pub fn tau_estimate(g: &Graph) -> u32 {
    mixing::mixing_time_spectral(g, WalkKind::Lazy, 500)
        .unwrap_or((4 * g.len()) as u32)
        .min((8 * g.len()) as u32)
}

/// A standard small hierarchy configuration for experiments: β and depth
/// explicit, logarithmic degrees, practical constants (stated in the
/// experiment output).
pub fn experiment_config(g: &Graph, beta: u32, levels: u32, seed: u64) -> HierarchyConfig {
    let mut cfg = HierarchyConfig::auto(g, tau_estimate(g), seed);
    cfg.beta = beta;
    cfg.levels = levels;
    cfg
}

/// Depth policy used by the scaling experiments: keeps expected bottom
/// parts near 16 virtual nodes (`Θ(log n)` at these sizes), growing with
/// the virtual-node count exactly as the paper's `k = log_β(m / log m)`.
pub fn scaled_levels(vnodes: usize, beta: u32) -> u32 {
    let target = (vnodes as f64 / 16.0).max(2.0);
    (target.log2() / f64::from(beta).log2())
        .round()
        .clamp(1.0, 4.0) as u32
}

/// The E16 fault plan: drops at rate `drop` and `crashes` crash-stops,
/// node 0 (the minimum id, so the implicit leader of its MST fragment)
/// first, then high-id nodes, staggered seven rounds apart from round 5 so
/// crashes land mid-phase.
pub fn e16_fault_plan(drop: f64, crashes: usize, n: usize, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none().seeded(seed).with_drops(drop);
    for c in 0..crashes {
        let node = if c == 0 {
            NodeId(0)
        } else {
            NodeId((n - c) as u32)
        };
        plan = plan.with_crash(node, 5 + 7 * c as u64);
    }
    plan
}

/// The `2^√(log n · log log n)` reference curve of the paper's bounds.
pub fn paper_growth(n: usize) -> f64 {
    let ln = (n.max(4) as f64).log2();
    2f64.powf((ln * ln.log2().max(1.0)).sqrt())
}

/// Log-log slope between consecutive measurements — the growth-rate
/// indicator reported by the scaling experiments.
pub fn loglog_slope(n0: usize, y0: f64, n1: usize, y1: f64) -> f64 {
    ((y1.max(1.0) / y0.max(1.0)).ln()) / ((n1 as f64 / n0 as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expander_is_reproducible_and_regular() {
        let a = expander(32, 4, 1);
        let b = expander(32, 4, 1);
        assert_eq!(a, b);
        assert!(a.nodes().all(|v| a.degree(v) == 4));
    }

    #[test]
    fn growth_curve_is_monotone_and_subpolynomial() {
        let g1 = paper_growth(1 << 10);
        let g2 = paper_growth(1 << 20);
        assert!(g2 > g1);
        // Far below any fixed power: n^0.5 at n = 2^20 is 1024.
        assert!(g2 < 1024.0, "2^sqrt(log n log log n) = {g2}");
    }

    #[test]
    fn slope_of_linear_data_is_one() {
        let s = loglog_slope(100, 100.0, 200, 200.0);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn experiment_config_validates() {
        let g = expander(64, 4, 3);
        let cfg = experiment_config(&g, 4, 1, 3);
        assert!(cfg.validate(&g).is_ok());
    }
}
