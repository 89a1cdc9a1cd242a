//! Spectral cut heuristic: the Fiedler-vector sweep.
//!
//! The proof of Cheeger's inequality is constructive: sorting nodes by the
//! second eigenvector of the (normalized) Laplacian and sweeping over
//! prefix cuts finds a cut of conductance `≤ √(2·gap)`. `amt info` uses
//! this to *locate* the sparse cut whose existence the spectral estimates
//! promise (e.g. the dumbbell bridge).

use crate::expansion;
use crate::{Graph, NodeId};

/// Result of a sweep cut.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCut {
    /// One side of the best prefix cut.
    pub side: Vec<NodeId>,
    /// Its conductance `e(S, V∖S) / min(vol S, vol V∖S)`.
    pub conductance: f64,
    /// Its edge expansion `e(S, V∖S) / min(|S|, |V∖S|)`.
    pub expansion: f64,
    /// Number of cut edges.
    pub cut_edges: usize,
}

/// Finds a low-conductance cut by the Fiedler sweep: power-iterate the
/// second eigenvector of the lazy walk matrix, sort nodes by their entry,
/// and take the best prefix cut.
///
/// Returns `None` for graphs with fewer than 2 nodes or isolated nodes
/// (where the spectral machinery is undefined).
///
/// # Examples
///
/// ```
/// use amt_graphs::{generators, partitioning};
/// // A barbell's sparse cut is its bridge.
/// let g = generators::barbell(6, 0).unwrap();
/// let cut = partitioning::fiedler_sweep_cut(&g, 400).unwrap();
/// assert_eq!(cut.cut_edges, 1);
/// ```
pub fn fiedler_sweep_cut(g: &Graph, power_iters: usize) -> Option<SweepCut> {
    let n = g.len();
    if n < 2 || g.min_degree() == 0 {
        return None;
    }
    let order = fiedler_order(g, power_iters)?;
    // Sweep: maintain cut size and volume incrementally. The self-loop
    // convention is shared with `expansion::{cut_size, side_volume}`: a
    // loop contributes 2 to its node's degree (and hence to volume) but
    // never crosses a cut.
    let mut in_s = vec![false; n];
    let total_vol = g.volume();
    let mut vol = 0usize;
    let mut cut = 0isize;
    // (conductance, prefix len, cut, vol) at the best prefix.
    let mut best: Option<(f64, usize, isize, usize)> = None;
    for (prefix, &v) in order.iter().enumerate().take(n - 1) {
        in_s[v.index()] = true;
        vol += g.degree(v);
        for (w, _) in g.neighbors(v) {
            if w == v {
                continue;
            }
            cut += if in_s[w.index()] { -1 } else { 1 };
        }
        let denom = vol.min(total_vol - vol);
        if denom == 0 {
            continue;
        }
        let phi = cut as f64 / denom as f64;
        if best.is_none_or(|(b, ..)| phi < b) {
            best = Some((phi, prefix + 1, cut, vol));
        }
    }
    let (conductance, len, best_cut, best_vol) = best?;
    let side: Vec<NodeId> = order[..len].to_vec();
    // The reported conductance IS the phi that selected the prefix; the
    // incremental state must agree exactly with an independent recount.
    if cfg!(debug_assertions) {
        let mut flags = vec![false; n];
        for v in &side {
            flags[v.index()] = true;
        }
        debug_assert_eq!(best_cut as usize, expansion::cut_size(g, &flags));
        debug_assert_eq!(best_vol, expansion::side_volume(g, &flags));
    }
    let cut_edges = best_cut as usize;
    let size_s = len.min(n - len);
    Some(SweepCut {
        conductance,
        expansion: cut_edges as f64 / size_s.max(1) as f64,
        cut_edges,
        side,
    })
}

/// Nodes sorted by their entry in the (approximate) second eigenvector of
/// the lazy walk matrix.
fn fiedler_order(g: &Graph, power_iters: usize) -> Option<Vec<NodeId>> {
    let n = g.len();
    let sqrt_deg: Vec<f64> = g.nodes().map(|v| (g.degree(v) as f64).sqrt()).collect();
    let norm_top: f64 = sqrt_deg.iter().map(|d| d * d).sum::<f64>().sqrt();
    let top: Vec<f64> = sqrt_deg.iter().map(|d| d / norm_top).collect();
    let mut x: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.618_033_988 + 0.3).sin())
        .collect();
    let mut y = vec![0.0f64; n];
    for _ in 0..power_iters {
        // y = ½(I + D^{-1/2} A D^{-1/2}) x, deflated against `top`.
        y.iter_mut().for_each(|v| *v = 0.0);
        for (_, u, v) in g.edges() {
            let (ui, vi) = (u.index(), v.index());
            if ui == vi {
                y[ui] += 2.0 * x[ui] / (sqrt_deg[ui] * sqrt_deg[ui]);
            } else {
                y[ui] += x[vi] / (sqrt_deg[ui] * sqrt_deg[vi]);
                y[vi] += x[ui] / (sqrt_deg[ui] * sqrt_deg[vi]);
            }
        }
        for i in 0..n {
            y[i] = 0.5 * (x[i] + y[i]);
        }
        let dot: f64 = y.iter().zip(&top).map(|(a, b)| a * b).sum();
        for (v, t) in y.iter_mut().zip(&top) {
            *v -= dot * t;
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            return None;
        }
        for v in y.iter_mut() {
            *v /= norm;
        }
        std::mem::swap(&mut x, &mut y);
    }
    // Convert back from the symmetrized space: f = D^{-1/2} x.
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by(|a, b| {
        let fa = x[a.index()] / sqrt_deg[a.index()];
        let fb = x[b.index()] / sqrt_deg[b.index()];
        fa.partial_cmp(&fb).expect("finite eigenvector entries")
    });
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sweep_finds_the_dumbbell_bridge() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::dumbbell_expanders(24, 4, 1, &mut rng).unwrap();
        let cut = fiedler_sweep_cut(&g, 400).unwrap();
        assert_eq!(cut.cut_edges, 1, "must isolate the single bridge");
        assert_eq!(cut.side.len().min(48 - cut.side.len()), 24);
    }

    #[test]
    fn sweep_on_barbell_cuts_the_path() {
        let g = generators::barbell(8, 2).unwrap();
        let cut = fiedler_sweep_cut(&g, 600).unwrap();
        assert_eq!(cut.cut_edges, 1, "cut = {cut:?}");
    }

    #[test]
    fn sweep_conductance_respects_cheeger_upper_bound() {
        for g in [
            generators::hypercube(5),
            generators::torus_2d(6, 6),
            generators::ring(30),
        ] {
            let gap = expansion::spectral_gap_lazy(&g, 500).unwrap();
            let cut = fiedler_sweep_cut(&g, 500).unwrap();
            let bound = (2.0 * 2.0 * gap).sqrt(); // non-lazy gap = 2·lazy gap
            assert!(
                cut.conductance <= bound + 1e-6,
                "sweep conductance {} above Cheeger bound {bound}",
                cut.conductance
            );
        }
    }

    #[test]
    fn sweep_side_realizes_reported_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::connected_erdos_renyi(40, 0.15, 50, &mut rng).unwrap();
        let cut = fiedler_sweep_cut(&g, 400).unwrap();
        let mut flags = vec![false; g.len()];
        for v in &cut.side {
            flags[v.index()] = true;
        }
        assert_eq!(expansion::cut_size(&g, &flags), cut.cut_edges);
        assert!(!cut.side.is_empty() && cut.side.len() < g.len());
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(fiedler_sweep_cut(&crate::GraphBuilder::new(1).build(), 100).is_none());
        let isolated = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(fiedler_sweep_cut(&isolated, 100).is_none());
    }

    /// Two triangles joined by a bridge, with self-loops piled onto one
    /// side. Loops count (twice) in volume and never in the cut, in both
    /// the incremental sweep and the final report — so the reported
    /// conductance must equal an independent `expansion::` recount, and
    /// adding loops must leave the cut edges alone while shrinking phi.
    #[test]
    fn sweep_conductance_is_consistent_under_self_loops() {
        let edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)];
        let plain = Graph::from_edges(6, &edges).unwrap();
        let mut looped_edges = edges.to_vec();
        looped_edges.extend([(0, 0), (1, 1), (3, 3), (4, 4)]);
        let looped = Graph::from_edges(6, &looped_edges).unwrap();

        let cut_plain = fiedler_sweep_cut(&plain, 400).unwrap();
        let cut_looped = fiedler_sweep_cut(&looped, 400).unwrap();
        assert_eq!(cut_plain.cut_edges, 1, "must find the bridge");
        assert_eq!(cut_looped.cut_edges, 1, "self-loops must not join the cut");

        for (g, cut) in [(&plain, &cut_plain), (&looped, &cut_looped)] {
            let mut flags = vec![false; g.len()];
            for v in &cut.side {
                flags[v.index()] = true;
            }
            let cut_edges = expansion::cut_size(g, &flags);
            let vol_s = expansion::side_volume(g, &flags);
            let denom = vol_s.min(g.volume() - vol_s);
            assert_eq!(cut.cut_edges, cut_edges);
            assert_eq!(
                cut.conductance,
                cut_edges as f64 / denom as f64,
                "reported conductance must equal the recomputed one exactly"
            );
        }
        // Two loops per side add 4 to each side's volume (loops count
        // twice), so min-side volume grows from 7 to 11 at the same cut.
        assert!(
            cut_looped.conductance < cut_plain.conductance,
            "loops grow the denominator: {} !< {}",
            cut_looped.conductance,
            cut_plain.conductance
        );
    }
}
