//! E10 — Lemma 3.4: the routing recursion.
//!
//! (a) Measured hop rounds per recursion depth for a permutation instance
//!     (the `T(m) = 2T(m/β)·O(log² n) + O(log n)` structure).
//! (b) The capacity argument: for every pair of depth-1 parts `(A_i, A_j)`,
//!     the number of packets needing to cross `A_i → A_j` against the
//!     number of `G₀` edges available between them.

use amt_bench::{expander, Report};
use amt_core::embedding::VirtualId;
use amt_core::prelude::*;
use amt_core::routing::{EmulationMode, HierarchicalRouter, RouterConfig};
use amt_core::walks::parallel::run_walk_ends;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let mut report = Report::new("e10_recursion_profile");
    let n = 128usize;
    let g = expander(n, 6, 1);
    let sys = System::builder(&g)
        .seed(1)
        .beta(4)
        .levels(2)
        .build()
        .expect("expander");
    let h = sys.hierarchy();
    let beta = h.cfg().beta;

    println!("# E10a — hop rounds per recursion depth (n = {n}, β = {beta})\n");
    let reqs: Vec<_> = (0..n as u32)
        .map(|i| (NodeId(i), NodeId((5 * i + 3) % n as u32)))
        .collect();
    let router = HierarchicalRouter::with_config(
        h,
        RouterConfig {
            emulation: EmulationMode::Exact,
            ..RouterConfig::for_n(n)
        },
    );
    let out = router.route(&reqs, 2).expect("routable");
    report.header(&["component", "measured rounds"]);
    report.row(&["preparation walks".into(), out.prep_rounds.to_string()]);
    for (d, r) in out.hop_rounds_per_depth.iter().enumerate() {
        report.row(&[format!("hops at depth {d}"), r.to_string()]);
    }
    report.row(&["bottom cliques".into(), out.bottom_rounds.to_string()]);
    report.row(&["total".into(), out.total_base_rounds.to_string()]);
    println!("\n(the recursion's cost concentrates at the deeper levels, whose");
    println!(" emulation stretch is larger — the 2T(m/β)·O(log²n) term; the hop");
    println!(" term itself is the cheap O(log n) part of Lemma 3.4)\n");

    println!("# E10b — inter-part capacity at depth 1 (messages vs G₀ edges)\n");
    // Replicate the preparation step to see where packets sit, then count
    // A_i→A_j demand vs available edges.
    let mut rng = StdRng::seed_from_u64(9);
    let sources: Vec<NodeId> = reqs.iter().map(|&(s, _)| s).collect();
    let walked = run_walk_ends(
        h.base(),
        WalkKind::Lazy,
        &sources,
        h.cfg().tau_mix,
        &mut rng,
    );
    let vmap = h.vmap();
    let starts: Vec<u32> = walked
        .ends
        .iter()
        .map(|&node| vmap.vid(node, rng.random_range(0..vmap.slot_count(node))).0)
        .collect();
    let goals: Vec<u32> = reqs
        .iter()
        .map(|&(_, t)| vmap.vid(t, rng.random_range(0..vmap.slot_count(t))).0)
        .collect();
    let parts = h.parts_at(1) as usize;
    let mut demand = vec![vec![0u64; parts]; parts];
    for (s, t) in starts.iter().zip(&goals) {
        let a = h.part_of(VirtualId(*s), 1) as usize;
        let b = h.part_of(VirtualId(*t), 1) as usize;
        if a != b {
            demand[a][b] += 1;
        }
    }
    let mut edges = vec![vec![0u64; parts]; parts];
    for (_, u, v) in h.overlay(0).graph().edges() {
        let a = h.part_of(VirtualId(u.0), 1) as usize;
        let b = h.part_of(VirtualId(v.0), 1) as usize;
        if a != b {
            edges[a][b] += 1;
            edges[b][a] += 1;
        }
    }
    report.header(&["A_i→A_j", "packets", "G₀ edges between", "edges/packets"]);
    for a in 0..parts {
        for b in 0..parts {
            if a != b && (demand[a][b] > 0 || edges[a][b] > 0) {
                report.row(&[
                    format!("{a}→{b}"),
                    demand[a][b].to_string(),
                    edges[a][b].to_string(),
                    if demand[a][b] > 0 {
                        format!("{:.1}", edges[a][b] as f64 / demand[a][b] as f64)
                    } else {
                        "∞".into()
                    },
                ]);
            }
        }
    }
    println!("\n(Lemma 3.4: both quantities are Θ(m·log n/β²) — the edges/packets");
    println!(" ratio must stay bounded below by a constant, so the hop completes");
    println!(" in O(log n) rounds of G₀)");
    report.finish();
}
