//! E2 — Theorem 1.2: permutation routing in
//! `τ_mix · 2^O(√(log n log log n))` rounds.
//!
//! Sweeps `n` on expanders and routes a fixed permutation; reports measured
//! rounds (both emulation pricings), the share of exact-pricing batches
//! priced in closed form (single crossings), the baselines, and the
//! per-node-load sweep of the footnote-3 phase splitting.

use amt_bench::{expander, loglog_slope, paper_growth, scaled_levels, tau_estimate, Report};
use amt_core::prelude::*;
use amt_core::routing::{baseline, EmulationMode, HierarchicalRouter, RouterConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn permutation(n: usize) -> Vec<(NodeId, NodeId)> {
    // i → 5i + 3 mod n is a permutation whenever gcd(5, n) = 1.
    (0..n as u32)
        .map(|i| (NodeId(i), NodeId((5 * i + 3) % n as u32)))
        .collect()
}

fn main() {
    let mut report = Report::new("e2_routing_scaling");
    report.config("family", "random 6-regular expander");
    report.config("beta", 4u64);
    println!("# E2 — permutation routing rounds vs n (random 6-regular, seed 1)\n");
    report.header(&[
        "n",
        "depth",
        "tau",
        "exact_rounds",
        "exact/tau",
        "factored",
        "solo_share",
        "sp_ref",
        "walk_ref",
        "2^sqrt_ref",
        "delivered",
    ]);
    let mut prev: Option<(usize, f64)> = None;
    let mut slopes = Vec::new();
    for &n in &[32usize, 64, 128, 256, 512] {
        let g = expander(n, 6, 1);
        let tau = tau_estimate(&g);
        let levels = scaled_levels(g.volume(), 4);
        let sys = System::builder(&g)
            .seed(1)
            .beta(4)
            .levels(levels)
            .build()
            .expect("expander");
        let reqs = permutation(n);
        let factored = sys.route(&reqs, 2).expect("routable");
        let exact_router = HierarchicalRouter::with_config(
            sys.hierarchy(),
            RouterConfig {
                emulation: EmulationMode::Exact,
                ..RouterConfig::for_n(n)
            },
        );
        let exact = exact_router.route(&reqs, 2).expect("routable");
        report.phase_timings(&format!("exact_n{n}"), &exact.wall);
        let sp = baseline::shortest_path_route(&g, &reqs);
        let mut rng = StdRng::seed_from_u64(3);
        let walk = baseline::random_walk_route(&g, &reqs, 200_000, &mut rng);
        let norm = exact.total_base_rounds as f64 / f64::from(tau);
        report.row(&[
            n.to_string(),
            levels.to_string(),
            tau.to_string(),
            exact.total_base_rounds.to_string(),
            format!("{norm:.1}"),
            factored.total_base_rounds.to_string(),
            {
                let batches = exact.solo_batches + exact.scheduled_batches;
                format!(
                    "{:.2} of {batches}",
                    exact.solo_batches as f64 / batches.max(1) as f64
                )
            },
            sp.rounds.to_string(),
            format!("{} ({}/{})", walk.rounds, walk.delivered, reqs.len()),
            format!("{:.0}", paper_growth(n)),
            format!("{}/{}", exact.delivered, reqs.len()),
        ]);
        if let Some((pn, py)) = prev {
            slopes.push(loglog_slope(pn, py, n, norm));
        }
        prev = Some((n, norm));
    }
    println!(
        "\nlog-log slopes of exact_rounds/τ between consecutive n: {:?}",
        slopes.iter().map(|s| format!("{s:.2}")).collect::<Vec<_>>()
    );
    println!("(τ is the centralized spectral estimate, not a distributed measurement.)");
    println!("(paper: subpolynomial in n once normalized by τ_mix. At simulation");
    println!(" scale the discrete partition-depth increments — the paper's");
    println!(" k = log_β(m/log m) growing by one — appear as the large slopes; at");
    println!(" fixed depth the slopes stay far below the 0.5 of a √n algorithm.)\n");

    println!("## load sweep at n = 128 (footnote 3: K packets per node split into phases)\n");
    report.header(&[
        "packets/node",
        "phases",
        "exact_rounds",
        "rounds/packet",
        "delivered",
    ]);
    let n = 128usize;
    let g = expander(n, 6, 1);
    let sys = System::builder(&g)
        .seed(1)
        .beta(4)
        .levels(2)
        .build()
        .expect("expander");
    for &per_node in &[1usize, 2, 4, 8] {
        let mut reqs = Vec::new();
        for r in 0..per_node {
            for i in 0..n as u32 {
                reqs.push((NodeId(i), NodeId((5 * i + 3 + r as u32 * 17) % n as u32)));
            }
        }
        let router = HierarchicalRouter::with_config(
            sys.hierarchy(),
            RouterConfig {
                emulation: EmulationMode::Exact,
                load_per_degree: 1.0, // tight promise to expose the splitting
                ..RouterConfig::for_n(n)
            },
        );
        let out = router.route(&reqs, 4).expect("routable");
        report.row(&[
            per_node.to_string(),
            out.phases.to_string(),
            out.total_base_rounds.to_string(),
            format!("{:.1}", out.total_base_rounds as f64 / reqs.len() as f64),
            format!("{}/{}", out.delivered, reqs.len()),
        ]);
    }
    println!("\n(paper: K packets per node cost K × the single-instance bound — the");
    println!(" rounds/packet column should stay roughly flat as the load grows)");
    report.finish();
}
