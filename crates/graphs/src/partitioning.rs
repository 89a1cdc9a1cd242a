//! Spectral cut heuristics: the Fiedler-vector sweep and k-way placement.
//!
//! The proof of Cheeger's inequality is constructive: sorting nodes by the
//! second eigenvector of the (normalized) Laplacian and sweeping over
//! prefix cuts finds a cut of conductance `≤ √(2·gap)`. The experiments use
//! this to *locate* the sparse cuts whose existence the spectral estimates
//! promise (e.g. the dumbbell bridge), and the min-cut tests use it as an
//! independent upper-bound witness for `h(G)`.
//!
//! [`Placement`] extends the sweep into a k-way node→shard map via
//! recursive spectral bisection with size-balance caps, which keeps
//! cross-shard edges (and therefore the traffic a sharded executor would
//! move between workers) low. The CONGEST simulator's traffic profiles
//! attribute deliveries to a placement after the fact.

use crate::{expansion, GraphError, Result};
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

/// An explicit node→shard map for `k`-way partitioned execution.
///
/// Shard ids are dense in `0..shards`; shards may be empty. The CONGEST
/// simulator runs on one thread; a placement attributes a recorded traffic
/// profile to shards after the fact (`TrafficProfile::shard_split` in
/// `amt-congest`), measuring how much traffic would cross workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    shard_of: Vec<u32>,
    shards: usize,
}

impl Placement {
    /// The historical contiguous-range placement: `ceil(n / shards)`-sized
    /// chunks of ascending node ids. Trailing shards may be empty when
    /// `shards` does not divide `n`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn contiguous(n: usize, shards: usize) -> Placement {
        assert!(shards > 0, "a placement needs at least one shard");
        let chunk = n.div_ceil(shards).max(1);
        Placement {
            shard_of: (0..n).map(|v| (v / chunk) as u32).collect(),
            shards,
        }
    }

    /// Builds a placement from an explicit per-node shard assignment.
    ///
    /// Returns [`GraphError::InvalidParameters`] if `shards == 0` or any
    /// entry is `>= shards`.
    pub fn from_shard_of(shard_of: Vec<u32>, shards: usize) -> Result<Placement> {
        if shards == 0 {
            return Err(GraphError::InvalidParameters {
                reason: "a placement needs at least one shard".to_string(),
            });
        }
        if let Some(&bad) = shard_of.iter().find(|&&s| s as usize >= shards) {
            return Err(GraphError::InvalidParameters {
                reason: format!("shard id {bad} out of range for {shards} shards"),
            });
        }
        Ok(Placement { shard_of, shards })
    }

    /// Spectral `k`-way placement by recursive bisection over the Fiedler
    /// order, minimizing cross-shard edges subject to a size-balance cap.
    ///
    /// Each bisection orders the subset by the (approximate) Fiedler vector
    /// of its induced subgraph and picks the prefix split with the fewest
    /// internal cut edges inside a ±⅛ window around the proportional split
    /// point, so even skewed degree distributions (Chung–Lu, preferential
    /// attachment) produce shards within a constant factor of `n / k`.
    /// Nodes with no internal edges (including isolated nodes) are ordered
    /// deterministically by id. The result is a pure function of
    /// `(g, shards, power_iters)`.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn spectral(g: &Graph, shards: usize, power_iters: usize) -> Placement {
        assert!(shards > 0, "a placement needs at least one shard");
        let n = g.len();
        let mut shard_of = vec![0u32; n];
        let mut next_shard = 0u32;
        let subset: Vec<u32> = (0..n as u32).collect();
        bisect(
            g,
            subset,
            shards,
            power_iters,
            &mut next_shard,
            &mut shard_of,
        );
        debug_assert_eq!(next_shard as usize, shards);
        Placement { shard_of, shards }
    }

    /// Number of nodes covered by this placement.
    pub fn len(&self) -> usize {
        self.shard_of.len()
    }

    /// Whether the placement covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.shard_of.is_empty()
    }

    /// Number of shards (including empty ones).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning node `v`.
    pub fn shard(&self, v: NodeId) -> usize {
        self.shard_of[v.index()] as usize
    }

    /// The raw node→shard map, indexed by node id.
    pub fn shard_of(&self) -> &[u32] {
        &self.shard_of
    }

    /// Node count per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for &s in &self.shard_of {
            sizes[s as usize] += 1;
        }
        sizes
    }

    /// Whether shard ids are nondecreasing in node id — i.e. every shard is
    /// a contiguous id range. Executors can splice such shards back by
    /// concatenation instead of a per-node merge.
    pub fn is_id_monotone(&self) -> bool {
        self.shard_of.windows(2).all(|w| w[0] <= w[1])
    }

    /// Per-edge flags marking edges whose endpoints live in different
    /// shards. Self-loops are never cross-shard. Indexed by `EdgeId`.
    ///
    /// # Panics
    ///
    /// Panics if `g.len() != self.len()`.
    pub fn cross_edge_flags(&self, g: &Graph) -> Vec<bool> {
        assert_eq!(g.len(), self.len(), "placement built for a different graph");
        g.edges()
            .map(|(_, u, v)| self.shard_of[u.index()] != self.shard_of[v.index()])
            .collect()
    }

    /// Number of edges crossing between shards.
    pub fn cross_edge_count(&self, g: &Graph) -> usize {
        self.cross_edge_flags(g).iter().filter(|&&c| c).count()
    }

    /// Human-readable per-shard labels for telemetry and health tables:
    /// shard index, node count, and either the covered id span
    /// (`ids 0..=511`) when the shard is a single contiguous run, or
    /// `scattered` when its ids interleave with other shards'.
    pub fn shard_labels(&self) -> Vec<String> {
        let mut lo = vec![u32::MAX; self.shards];
        let mut hi = vec![0u32; self.shards];
        let mut count = vec![0usize; self.shards];
        for (v, &s) in self.shard_of.iter().enumerate() {
            let s = s as usize;
            lo[s] = lo[s].min(v as u32);
            hi[s] = hi[s].max(v as u32);
            count[s] += 1;
        }
        (0..self.shards)
            .map(|s| {
                if count[s] == 0 {
                    format!("s{s} (empty)")
                } else if (hi[s] - lo[s]) as usize + 1 == count[s] {
                    format!("s{s} ({}n, ids {}..={})", count[s], lo[s], hi[s])
                } else {
                    format!("s{s} ({}n, scattered)", count[s])
                }
            })
            .collect()
    }
}

/// Recursively assigns `k` shard ids to `subset`, consuming exactly `k`
/// ids from `next_shard` (empty subsets burn their ids so shard ids stay
/// dense and the total count is exact).
fn bisect(
    g: &Graph,
    subset: Vec<u32>,
    k: usize,
    power_iters: usize,
    next_shard: &mut u32,
    shard_of: &mut [u32],
) {
    if k == 1 {
        for v in &subset {
            shard_of[*v as usize] = *next_shard;
        }
        *next_shard += 1;
        return;
    }
    if subset.is_empty() {
        *next_shard += k as u32;
        return;
    }
    let k_left = k / 2;
    let k_right = k - k_left;
    if subset.len() == 1 {
        // One node, several shards: the node goes left, the rest burn.
        shard_of[subset[0] as usize] = *next_shard;
        *next_shard += k as u32;
        return;
    }
    let order = subset_spectral_order(g, subset, power_iters);
    let split = best_balanced_split(g, &order, k_left, k);
    let right = order[split..].to_vec();
    let left = {
        let mut l = order;
        l.truncate(split);
        l
    };
    bisect(g, left, k_left, power_iters, next_shard, shard_of);
    bisect(g, right, k_right, power_iters, next_shard, shard_of);
}

/// Orders `subset` by the approximate Fiedler vector of its induced
/// subgraph (self-loops dropped; edges leaving the subset ignored). Nodes
/// with no internal edges sort by id among themselves; ties always break
/// by id so the order is deterministic.
fn subset_spectral_order(g: &Graph, subset: Vec<u32>, power_iters: usize) -> Vec<u32> {
    let len = subset.len();
    if len <= 2 {
        let mut s = subset;
        s.sort_unstable();
        return s;
    }
    // Local index map: global node id -> position in `subset`.
    let mut local = vec![u32::MAX; g.len()];
    for (i, &v) in subset.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    // Induced adjacency in local indices, one entry per edge instance.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); len];
    for &v in &subset {
        let li = local[v as usize] as usize;
        for (w, _) in g.neighbors(NodeId(v)) {
            if w.0 == v {
                continue;
            }
            let lw = local[w.index()];
            if lw != u32::MAX {
                adj[li].push(lw);
            }
        }
    }
    // Degree-0 (within the subset) nodes get weight 1: they contribute
    // nothing to the quadratic form but keep the arithmetic finite.
    let sqrt_deg: Vec<f64> = adj.iter().map(|a| (a.len().max(1) as f64).sqrt()).collect();
    let norm_top: f64 = sqrt_deg.iter().map(|d| d * d).sum::<f64>().sqrt();
    let top: Vec<f64> = sqrt_deg.iter().map(|d| d / norm_top).collect();
    let mut x: Vec<f64> = (0..len)
        .map(|i| (i as f64 * 0.618_033_988 + 0.3).sin())
        .collect();
    let mut y = vec![0.0f64; len];
    let mut degenerate = false;
    for _ in 0..power_iters {
        // y = ½(I + D^{-1/2} A D^{-1/2}) x, deflated against `top`.
        y.iter_mut().for_each(|v| *v = 0.0);
        for (i, nbrs) in adj.iter().enumerate() {
            for &j in nbrs {
                y[i] += x[j as usize] / (sqrt_deg[i] * sqrt_deg[j as usize]);
            }
        }
        for i in 0..len {
            y[i] = 0.5 * (x[i] + y[i]);
        }
        let dot: f64 = y.iter().zip(&top).map(|(a, b)| a * b).sum();
        for (v, t) in y.iter_mut().zip(&top) {
            *v -= dot * t;
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            degenerate = true;
            break;
        }
        for v in y.iter_mut() {
            *v /= norm;
        }
        std::mem::swap(&mut x, &mut y);
    }
    let mut order = subset;
    if degenerate {
        order.sort_unstable();
        return order;
    }
    order.sort_by(|&a, &b| {
        let fa = x[local[a as usize] as usize] / sqrt_deg[local[a as usize] as usize];
        let fb = x[local[b as usize] as usize] / sqrt_deg[local[b as usize] as usize];
        fa.partial_cmp(&fb)
            .expect("finite eigenvector entries")
            .then(a.cmp(&b))
    });
    order
}

/// Picks the prefix length splitting `order` into `k_left : k - k_left`
/// shares: the fewest internal cut edges within a ±⅛ balance window around
/// the proportional point (ties: closest to proportional, then shorter).
fn best_balanced_split(g: &Graph, order: &[u32], k_left: usize, k: usize) -> usize {
    let len = order.len();
    let target = (len * k_left) / k;
    let slack = (len / 8).max(1);
    let lo = target.saturating_sub(slack).max(1);
    let hi = (target + slack).min(len - 1);
    let mut local = vec![u32::MAX; g.len()];
    for (i, &v) in order.iter().enumerate() {
        local[v as usize] = i as u32;
    }
    let mut cut = 0isize;
    let mut best = (isize::MAX, usize::MAX, lo); // (cut, |pos - target|, pos)
    for (prefix, &v) in order.iter().enumerate().take(hi) {
        for (w, _) in g.neighbors(NodeId(v)) {
            if w.0 == v {
                continue;
            }
            let lw = local[w.index()];
            if lw == u32::MAX {
                continue;
            }
            cut += if (lw as usize) <= prefix { -1 } else { 1 };
        }
        let pos = prefix + 1;
        if pos < lo {
            continue;
        }
        let key = (cut, pos.abs_diff(target), pos);
        if key < best {
            best = key;
        }
    }
    best.2
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
    fn shard_labels_report_spans_and_scatter() {
        let labels = Placement::contiguous(8, 2).shard_labels();
        assert_eq!(labels, vec!["s0 (4n, ids 0..=3)", "s1 (4n, ids 4..=7)"]);
        // Interleaved (even/odd) shards have no contiguous span.
        let interleaved =
            Placement::from_shard_of(vec![0, 1, 0, 1, 0, 1], 2).expect("valid placement");
        assert_eq!(
            interleaved.shard_labels(),
            vec!["s0 (3n, scattered)", "s1 (3n, scattered)"]
        );
        // Empty shards are labelled, not skipped.
        let sparse = Placement::from_shard_of(vec![0, 0], 2).expect("valid placement");
        assert_eq!(sparse.shard_labels()[1], "s1 (empty)");
    }

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

    #[test]
    fn contiguous_placement_matches_chunk_arithmetic() {
        let p = Placement::contiguous(10, 4);
        assert_eq!(p.shards(), 4);
        assert_eq!(p.shard_of(), &[0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(p.shard_sizes(), vec![3, 3, 3, 1]);
        assert!(p.is_id_monotone());
        // More shards than nodes: trailing shards are empty.
        let p = Placement::contiguous(3, 8);
        assert_eq!(p.shards(), 8);
        assert_eq!(p.shard_sizes(), vec![1, 1, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn explicit_placement_validates_shard_ids() {
        assert!(Placement::from_shard_of(vec![0, 2, 1], 3).is_ok());
        assert!(Placement::from_shard_of(vec![0, 3], 3).is_err());
        assert!(Placement::from_shard_of(vec![], 0).is_err());
        let p = Placement::from_shard_of(vec![1, 0, 0, 1], 2).unwrap();
        assert!(!p.is_id_monotone());
        assert_eq!(p.shard_sizes(), vec![2, 2]);
    }

    #[test]
    fn spectral_placement_isolates_dumbbell_halves() {
        let mut rng = StdRng::seed_from_u64(5);
        let k = 32;
        let plain = generators::dumbbell_expanders(k, 4, 2, &mut rng).unwrap();
        // Interleave the halves across the id range (even ids = half A,
        // odd ids = half B) so id order carries no structure — the regime
        // contiguous sharding gets arbitrarily wrong.
        let mut b = crate::GraphBuilder::new(plain.len());
        let relabel = |v: NodeId| {
            if v.index() < k {
                2 * v.index()
            } else {
                2 * (v.index() - k) + 1
            }
        };
        for (_, u, v) in plain.edges() {
            b.add_edge(relabel(u), relabel(v));
        }
        let g = b.build();
        let spectral = Placement::spectral(&g, 2, 400);
        let contiguous = Placement::contiguous(g.len(), 2);
        assert_eq!(spectral.len(), g.len());
        assert_eq!(spectral.shards(), 2);
        let s = spectral.cross_edge_count(&g);
        let c = contiguous.cross_edge_count(&g);
        assert!(s < c, "spectral cut {s} not below contiguous cut {c}");
        assert!(s <= 6, "spectral cut {s} should be close to the 2 bridges");
        let sizes = spectral.shard_sizes();
        assert!(sizes.iter().all(|&z| z >= 24), "unbalanced: {sizes:?}");
    }

    #[test]
    fn spectral_placement_balances_skewed_degrees() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 256;
        // Heavy-tailed Chung–Lu weights plus preferential attachment: the
        // skewed-degree stress cases named by the balance-cap requirement.
        let weights: Vec<f64> = (0..n).map(|v| 8.0 / ((v + 1) as f64).sqrt()).collect();
        let cl = generators::chung_lu(&weights, &mut rng).unwrap();
        let pa = generators::preferential_attachment(n, 3, &mut rng).unwrap();
        for g in [cl, pa] {
            for k in [2usize, 4, 8] {
                let p = Placement::spectral(&g, k, 200);
                let sizes = p.shard_sizes();
                assert_eq!(sizes.iter().sum::<usize>(), g.len());
                let cap = 2 * g.len().div_ceil(k);
                assert!(
                    sizes.iter().all(|&z| z <= cap),
                    "k = {k}: shard sizes {sizes:?} exceed balance cap {cap}"
                );
            }
        }
    }

    #[test]
    fn spectral_placement_is_deterministic_and_handles_isolated_nodes() {
        // Disconnected graph with isolated nodes and a self-loop: the
        // partitioner must stay finite and deterministic.
        let g = Graph::from_edges(9, &[(0, 1), (1, 2), (4, 5), (5, 6), (7, 7)]).unwrap();
        let a = Placement::spectral(&g, 3, 150);
        let b = Placement::spectral(&g, 3, 150);
        assert_eq!(a, b, "spectral placement must be deterministic");
        assert_eq!(a.shard_sizes().iter().sum::<usize>(), 9);
    }

    #[test]
    fn cross_edge_flags_ignore_self_loops() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 1)]).unwrap();
        let p = Placement::from_shard_of(vec![0, 0, 1, 1], 2).unwrap();
        assert_eq!(p.cross_edge_flags(&g), vec![false, true, false, false]);
        assert_eq!(p.cross_edge_count(&g), 1);
    }
}
