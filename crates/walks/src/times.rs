//! Hitting and total-variation mixing times.
//!
//! These classical walk quantities contextualize the experiments: the
//! naive walk-router baseline pays (roughly) the hitting time per packet,
//! and the TV mixing time (the textbook `ε = 1/4` definition) calibrates
//! the much stricter per-entry Definition 2.1 used by the paper.

use crate::{mixing, WalkKind};
use amt_graphs::{Graph, NodeId};
use rand::Rng;

/// Empirical mean hitting time from `from` to `to`: average steps of a
/// lazy walk until first arrival, over `trials` runs capped at `max_steps`
/// (censored runs count as `max_steps`, so the estimate is a lower bound
/// when the cap binds).
pub fn empirical_hitting_time<R: Rng>(
    g: &Graph,
    from: NodeId,
    to: NodeId,
    trials: u32,
    max_steps: u32,
    rng: &mut R,
) -> f64 {
    let delta = g.max_degree();
    let mut total = 0u64;
    for _ in 0..trials {
        let mut here = from;
        let mut steps = 0u32;
        while here != to && steps < max_steps {
            if let Some((next, _)) = WalkKind::Lazy.step(g, here, delta, rng) {
                here = next;
            }
            steps += 1;
        }
        total += u64::from(steps);
    }
    total as f64 / f64::from(trials.max(1))
}

/// Exact total-variation mixing time: the minimum `t` with
/// `max_v TV(P_v^t, π) ≤ eps` (textbook definition; `eps = 1/4` is the
/// standard choice). Dense evolution over all sources; `O(n(n+m)τ)`.
///
/// Always at most the Definition 2.1 mixing time, which demands per-entry
/// *relative* accuracy `π(u)/n`.
pub fn tv_mixing_time(g: &Graph, kind: WalkKind, eps: f64, max_t: u32) -> Option<u32> {
    mixing::first_mixed_round(g, kind, max_t, |row, pi| {
        mixing::total_variation(row, pi) <= eps
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_graphs::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hitting_time_on_complete_graph_is_about_2n() {
        // Lazy K_n: per step, P(hit target) = ½·1/(n−1) ⇒ mean ≈ 2(n−1).
        let n = 16;
        let g = generators::complete(n);
        let mut rng = StdRng::seed_from_u64(1);
        let h = empirical_hitting_time(&g, NodeId(0), NodeId(5), 600, 10_000, &mut rng);
        let expect = 2.0 * (n as f64 - 1.0);
        assert!((h - expect).abs() < 0.35 * expect, "hit {h} vs ≈{expect}");
    }

    #[test]
    fn hitting_time_grows_on_paths() {
        let path =
            amt_graphs::Graph::from_edges(16, &(0..15).map(|i| (i, i + 1)).collect::<Vec<_>>())
                .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let near = empirical_hitting_time(&path, NodeId(0), NodeId(1), 200, 100_000, &mut rng);
        let far = empirical_hitting_time(&path, NodeId(0), NodeId(15), 200, 100_000, &mut rng);
        assert!(far > 20.0 * near, "far {far} vs near {near}");
    }

    #[test]
    fn tv_mixing_lower_bounds_definition_2_1() {
        for g in [
            generators::complete(12),
            generators::ring(16),
            generators::hypercube(4),
        ] {
            let tv = tv_mixing_time(&g, WalkKind::Lazy, 0.25, 100_000).unwrap();
            let strict = mixing::mixing_time_exact(&g, WalkKind::Lazy, 100_000).unwrap();
            assert!(
                tv <= strict,
                "TV {tv} must be ≤ strict {strict} (n = {})",
                g.len()
            );
        }
    }

    #[test]
    fn tv_mixing_monotone_in_eps() {
        let g = generators::ring(20);
        let loose = tv_mixing_time(&g, WalkKind::Lazy, 0.4, 100_000).unwrap();
        let tight = tv_mixing_time(&g, WalkKind::Lazy, 0.05, 100_000).unwrap();
        assert!(tight >= loose);
    }

    #[test]
    fn degenerate_graphs() {
        let single = amt_graphs::GraphBuilder::new(1).build();
        assert_eq!(tv_mixing_time(&single, WalkKind::Lazy, 0.25, 10), Some(0));
        let empty = amt_graphs::GraphBuilder::new(0).build();
        assert_eq!(tv_mixing_time(&empty, WalkKind::Lazy, 0.25, 10), None);
    }
}
