//! Mixing-time computation: exact (Definition 2.1) and spectral estimate.
//! The Cheeger bound of Lemma 2.3 is
//! [`amt_graphs::expansion::cheeger_mixing_bound`].

use crate::WalkKind;
use amt_graphs::{expansion, Graph};

/// Exact mixing time per Definition 2.1 of the paper, by dense distribution
/// evolution from **every** source: the minimum `t` such that for all
/// sources `v` and targets `u`, `|P_v^t(u) − π(u)| ≤ π(u)/n`.
///
/// Runs in `O(n · (n + m) · τ)` time; intended for graphs up to a few
/// hundred nodes (tests, calibration of the spectral estimate). Returns
/// `None` if the bound `max_t` is hit first (e.g. disconnected graphs never
/// mix).
pub fn mixing_time_exact(g: &Graph, kind: WalkKind, max_t: u32) -> Option<u32> {
    let nf = g.len() as f64;
    first_mixed_round(g, kind, max_t, |row, pi| {
        row.iter().zip(pi).all(|(p, s)| (p - s).abs() <= s / nf)
    })
}

/// The minimum `t ≤ max_t` at which `mixed(P_v^t, π)` holds for every
/// source `v`, by dense distribution evolution of one row per source;
/// `None` if `max_t` is hit first. The loop behind [`mixing_time_exact`]
/// and [`crate::times::tv_mixing_time`], which differ only in `mixed`.
pub(crate) fn first_mixed_round(
    g: &Graph,
    kind: WalkKind,
    max_t: u32,
    mixed: impl Fn(&[f64], &[f64]) -> bool,
) -> Option<u32> {
    let n = g.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(0);
    }
    let delta = g.max_degree();
    let pi: Vec<f64> = g.nodes().map(|v| kind.stationary(g, v)).collect();
    // One distribution row per source node.
    let mut rows: Vec<Vec<f64>> = (0..n)
        .map(|v| {
            let mut x = vec![0.0; n];
            x[v] = 1.0;
            x
        })
        .collect();
    let mut scratch = vec![0.0; n];
    let within = |rows: &[Vec<f64>]| rows.iter().all(|row| mixed(row, &pi));
    if within(&rows) {
        return Some(0);
    }
    for t in 1..=max_t {
        for row in rows.iter_mut() {
            scratch.iter_mut().for_each(|v| *v = 0.0);
            kind.evolve(g, delta, row, &mut scratch);
            std::mem::swap(row, &mut scratch);
        }
        if within(&rows) {
            return Some(t);
        }
    }
    None
}

/// Spectral upper estimate of the mixing time of Definition 2.1:
/// `t ≥ ln(2mn·√(Δ/δ)/δ) / (−ln λ₂)`, from the standard reversible-chain
/// bound `|P_v^t(u) − π(u)| ≤ √(π(u)/π(v))·λ₂^t`.
///
/// Suitable for experiment-scale graphs where the exact computation is too
/// expensive. Returns `None` when the power iteration fails (empty graph,
/// isolated nodes) or the graph is effectively disconnected (`λ₂ ≈ 1`).
pub fn mixing_time_spectral(g: &Graph, kind: WalkKind, power_iters: usize) -> Option<u32> {
    let n = g.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(0);
    }
    let lambda2 = match kind {
        WalkKind::Lazy => expansion::lambda2_lazy(g, power_iters)?,
        WalkKind::DeltaRegular => expansion::lambda2_regularized(g, power_iters)?,
    };
    if lambda2 >= 1.0 - 1e-12 {
        return None;
    }
    let m = g.edge_count() as f64;
    let nf = n as f64;
    let dmax = g.max_degree() as f64;
    let dmin = g.min_degree().max(1) as f64;
    // Target deviation is π(u)/n ≥ δ/(2mn); amplitude is √(Δ/δ).
    let target = match kind {
        WalkKind::Lazy => dmin / (2.0 * m * nf),
        WalkKind::DeltaRegular => 1.0 / (nf * nf),
    };
    let amplitude = match kind {
        WalkKind::Lazy => (dmax / dmin).sqrt(),
        WalkKind::DeltaRegular => 1.0,
    };
    let t = ((amplitude / target).ln() / -(lambda2.ln())).ceil();
    Some(t.max(1.0) as u32)
}

/// Total-variation distance between two distributions.
pub fn total_variation(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_mixes_fast() {
        let g = generators::complete(16);
        let t = mixing_time_exact(&g, WalkKind::Lazy, 200).unwrap();
        assert!(t <= 25, "K_16 should mix quickly, got {t}");
    }

    #[test]
    fn ring_mixes_slowly() {
        let fast = mixing_time_exact(&generators::complete(16), WalkKind::Lazy, 4000).unwrap();
        let slow = mixing_time_exact(&generators::ring(16), WalkKind::Lazy, 4000).unwrap();
        assert!(slow > 4 * fast, "ring {slow} vs complete {fast}");
    }

    #[test]
    fn single_node_mixes_instantly() {
        let g = amt_graphs::GraphBuilder::new(1).build();
        assert_eq!(mixing_time_exact(&g, WalkKind::Lazy, 10), Some(0));
    }

    #[test]
    fn disconnected_graph_never_mixes() {
        let g = amt_graphs::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(mixing_time_exact(&g, WalkKind::Lazy, 500), None);
    }

    #[test]
    fn spectral_upper_bounds_exact_on_families() {
        let mut rng = StdRng::seed_from_u64(11);
        let cases = vec![
            generators::complete(12),
            generators::hypercube(4),
            generators::random_regular(48, 4, &mut rng).unwrap(),
            generators::ring(24),
        ];
        for g in cases {
            for kind in [WalkKind::Lazy, WalkKind::DeltaRegular] {
                let exact = mixing_time_exact(&g, kind, 20_000).unwrap();
                let spectral = mixing_time_spectral(&g, kind, 800).unwrap();
                assert!(
                    spectral >= exact,
                    "spectral {spectral} < exact {exact} on n={} {kind:?}",
                    g.len()
                );
                // Estimate should be within a modest factor (log-ish slack).
                assert!(
                    (spectral as f64) < 40.0 * (exact.max(1) as f64),
                    "spectral {spectral} way above exact {exact}"
                );
            }
        }
    }

    #[test]
    fn cheeger_bound_dominates_regularized_mixing() {
        // Lemma 2.3: τ̄_mix ≤ 8Δ²/h² · ln n, verified exactly on small graphs.
        for g in [
            generators::complete(10),
            generators::hypercube(3),
            generators::ring(12),
        ] {
            let h = amt_graphs::expansion::edge_expansion_exact(&g).unwrap();
            let bound = amt_graphs::expansion::cheeger_mixing_bound(&g, h);
            let exact = mixing_time_exact(&g, WalkKind::DeltaRegular, 50_000).unwrap();
            assert!(
                (exact as f64) <= bound,
                "exact {exact} exceeds Cheeger bound {bound} on n={}",
                g.len()
            );
        }
    }

    #[test]
    fn total_variation_basics() {
        assert_eq!(total_variation(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((total_variation(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((total_variation(&[0.5, 0.5], &[1.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
