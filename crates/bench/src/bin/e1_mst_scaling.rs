//! E1 — Theorem 1.1: MST in `τ_mix · 2^O(√(log n log log n))` rounds.
//!
//! Sweeps the network size over random-regular expanders and reports the
//! measured rounds of the paper's algorithm against the CONGEST baselines,
//! plus the τ_mix-dependence on slow-mixing controls at fixed `n`. Every
//! tree is verified against Kruskal.

use amt_bench::{expander, loglog_slope, paper_growth, scaled_levels, tau_estimate, Report};
use amt_core::congest::{Distribution, PhaseTimings, ProfileConfig};
use amt_core::mst::{congest_boruvka, gkp};
use amt_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut report = Report::new("e1_mst_scaling");
    report.config("family", "random 6-regular expander");
    report.config("beta", 4u64);
    println!("# E1 — MST rounds vs n (random 6-regular expanders, seed 1)\n");
    println!("constants: β=4, depth=1–2, overlay_degree=log n, level0_walks=2·log n\n");
    report.header(&[
        "n",
        "depth",
        "tau",
        "amt_rounds",
        "instances",
        "rnds/inst/tau",
        "gkp",
        "boruvka",
        "D+sqrt(n)",
        "2^sqrt_ref",
        "ok",
    ]);
    let mut prev: Option<(usize, f64)> = None;
    let mut slopes = Vec::new();
    let mut mst_walls = Vec::new();
    for &n in &[32usize, 64, 128, 256] {
        let g = expander(n, 6, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let wg = WeightedGraph::with_random_weights(g.clone(), 1_000_000, &mut rng);
        let tau = tau_estimate(&g);
        let levels = scaled_levels(g.volume(), 4);
        let sys = System::builder(&g)
            .seed(1)
            .beta(4)
            .levels(levels)
            .build()
            .expect("expander");
        let started = std::time::Instant::now();
        let amt = sys.mst(&wg, 3).expect("connected");
        let wall = started.elapsed();
        let mut mst_wall = PhaseTimings::new();
        mst_wall.record("mst", wall);
        mst_wall.merge(&amt.wall);
        report.phase_timings(&format!("amt_mst_n{n}"), &mst_wall);
        let secs = |label| amt.wall.nanos(label) as f64 * 1e-9;
        mst_walls.push(format!(
            "n = {n}: {:.3} s (plan {:.3} s of which prep {:.3} s, price {:.3} s; \
             priced {:.3} s over all workers)",
            wall.as_secs_f64(),
            secs("plan"),
            secs("prep"),
            secs("price"),
            secs("priced"),
        ));
        let ok_amt = reference::verify_mst(&wg, &amt.tree_edges);
        let gk = gkp::run(&wg, 3).expect("connected");
        let bo = congest_boruvka::run(&wg, 3).expect("connected");
        report.phase_timings(&format!("gkp_n{n}"), &gk.wall);
        report.phase_timings(&format!("boruvka_n{n}"), &bo.wall);
        let ok = ok_amt && gk.tree_edges == amt.tree_edges && bo.tree_edges == amt.tree_edges;
        let d = amt_core::graphs::traversal::diameter_double_sweep(&g, NodeId(0)).unwrap();
        // Per-instance cost normalized by τ: the Theorem 1.2 quantity the
        // MST multiplies by its polylog number of routing instances.
        let norm = amt.rounds as f64 / f64::from(amt.routing_instances.max(1)) / f64::from(tau);
        report.row(&[
            n.to_string(),
            levels.to_string(),
            tau.to_string(),
            amt.rounds.to_string(),
            amt.routing_instances.to_string(),
            format!("{norm:.2}"),
            gk.rounds.to_string(),
            bo.rounds.to_string(),
            format!("{:.0}", d as f64 + (n as f64).sqrt()),
            format!("{:.0}", paper_growth(n)),
            ok.to_string(),
        ]);
        if let Some((pn, py)) = prev {
            slopes.push(loglog_slope(pn, py, n, norm));
        }
        prev = Some((n, norm));
    }
    println!(
        "\nlog-log slopes of rounds/instance/τ between consecutive n: {:?}",
        slopes.iter().map(|s| format!("{s:.2}")).collect::<Vec<_>>()
    );
    println!(
        "host wall of System::mst (exact pricing; the Borůvka loop plans and streams\n\
         its ledger to pricing workers on the other cores, then helps price what is\n\
         left; not a table column):\n  {}",
        mst_walls.join("\n  ")
    );
    println!("(τ is the centralized spectral estimate, not a distributed measurement.)");
    println!("(paper: per routing instance the cost is τ·2^O(√(log n log log n)) —");
    println!(" subpolynomial; the MST multiplies it by O(log³ n) instances. Depth");
    println!(" increments of the partition tree show up as steps in the raw rounds.)\n");

    println!("## τ_mix-dependence at n = 128 (expander vs dumbbell controls)\n");
    report.header(&["graph", "tau_mix", "amt_rounds", "amt/tau", "ok"]);
    let mut rng = StdRng::seed_from_u64(4);
    let cases: Vec<(&str, Graph)> = vec![
        ("6-regular expander", expander(128, 6, 1)),
        (
            "dumbbell 2×64, 8 bridges",
            generators::dumbbell_expanders(64, 6, 8, &mut rng).unwrap(),
        ),
        (
            "dumbbell 2×64, 2 bridges",
            generators::dumbbell_expanders(64, 6, 2, &mut rng).unwrap(),
        ),
    ];
    for (name, g) in cases {
        let tau = tau_estimate(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let wg = WeightedGraph::with_random_weights(g.clone(), 1_000_000, &mut rng);
        let levels = scaled_levels(g.volume(), 4);
        let sys = System::builder(&g)
            .seed(2)
            .beta(4)
            .levels(levels)
            .build()
            .expect("connected");
        let amt = sys.mst(&wg, 6).expect("connected");
        let ok = reference::verify_mst(&wg, &amt.tree_edges);
        report.row(&[
            name.to_string(),
            tau.to_string(),
            amt.rounds.to_string(),
            format!("{:.0}", amt.rounds as f64 / f64::from(tau)),
            ok.to_string(),
        ]);
    }
    println!("\n(paper: rounds scale linearly with τ_mix at fixed n — the amt/tau");
    println!(" column should stay within a constant factor across the three rows)");

    println!("\n## Wall-clock and repeat runs (Boruvka, largest config n = 256,");
    println!("## plus a 6-regular n = 1024 stress instance)\n");
    report.header(&["n", "wall_ms", "repeat_wall_ms", "rounds", "identical"]);
    // Walls land in `PhaseTimings`, whose `Eq` is deliberately vacuous —
    // the repeatability check below goes through the tolerance-based
    // `close_to` instead.
    let mut sweep = PhaseTimings::new();
    let mut resweep = PhaseTimings::new();
    for &n in &[256usize, 1024] {
        let g = expander(n, 6, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let wg = WeightedGraph::with_random_weights(g, 1_000_000, &mut rng);
        // Untimed warm-up: the very first run pays one-time costs (page
        // faults, allocator growth) that would skew the repeatability
        // comparison below.
        congest_boruvka::run(&wg, 3).expect("connected");
        let t0 = std::time::Instant::now();
        let out = congest_boruvka::run(&wg, 3).expect("connected");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let out2 = congest_boruvka::run(&wg, 3).expect("connected");
        let ms2 = t1.elapsed().as_secs_f64() * 1e3;
        let identical = out2.tree_edges == out.tree_edges
            && out2.rounds == out.rounds
            && out2.messages == out.messages;
        assert!(identical, "n = {n}: repeat run diverged");
        let label: &'static str = Box::leak(format!("n{n}").into_boxed_str());
        sweep.record_nanos(label, (ms * 1e6) as u64);
        resweep.record_nanos(label, (ms2 * 1e6) as u64);
        report.row(&[
            n.to_string(),
            format!("{ms:.1}"),
            format!("{ms2:.1}"),
            out.rounds.to_string(),
            identical.to_string(),
        ]);
    }
    println!("\n(the `identical` column is the determinism contract: a repeat run");
    println!(" reproduces the outcome and metrics byte for byte)");
    println!(
        "(wall repeatability: the repeat agrees to within a 10x factor on\n\
         every row: {} — compared via PhaseTimings::close_to, since `==` on\n\
         wall timings is intentionally vacuous)",
        sweep.close_to(&resweep, 0.9)
    );

    round_distribution_table(&mut report);
    report.finish();
}

/// Round-level load distributions (p50/p95/max messages and bits per round)
/// of the n = 256 Borůvka run, per traffic class and in total — the
/// round-level detail the scalar rounds/messages columns above average out.
fn round_distribution_table(report: &mut Report) {
    println!("\n## Round-level load distribution (Borůvka n = 256, per traffic class)\n");
    let g = expander(256, 6, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let wg = WeightedGraph::with_random_weights(g, 1_000_000, &mut rng);
    let (_, profile) = congest_boruvka::run_instrumented(&wg, 3, 1, Some(ProfileConfig::default()))
        .expect("connected");
    let profile = profile.expect("profiling on");
    report.section("round distributions");
    report.header(&[
        "class", "msg p50", "msg p95", "msg max", "bit p50", "bit p95", "bit max",
    ]);
    let mut per_round: std::collections::BTreeMap<u64, (u64, u64)> = Default::default();
    for s in &profile.per_class {
        for t in &s.timeline {
            let e = per_round.entry(t.round).or_default();
            e.0 += t.messages;
            e.1 += t.bits;
        }
        // A class that registered but was never active has an empty
        // timeline and therefore no order statistics: skip its row rather
        // than print fabricated zeros.
        let (Some(msgs), Some(bits)) = (
            Distribution::try_of(s.timeline.iter().map(|t| t.messages)),
            Distribution::try_of(s.timeline.iter().map(|t| t.bits)),
        ) else {
            continue;
        };
        report.row(&[
            s.class.to_string(),
            msgs.p50.to_string(),
            msgs.p95.to_string(),
            msgs.max.to_string(),
            bits.p50.to_string(),
            bits.p95.to_string(),
            bits.max.to_string(),
        ]);
    }
    if let (Some(msgs), Some(bits)) = (
        Distribution::try_of(per_round.values().map(|&(m, _)| m)),
        Distribution::try_of(per_round.values().map(|&(_, b)| b)),
    ) {
        report.row(&[
            "(total)".to_string(),
            msgs.p50.to_string(),
            msgs.p95.to_string(),
            msgs.max.to_string(),
            bits.p50.to_string(),
            bits.p95.to_string(),
            bits.max.to_string(),
        ]);
    }
    report.profile("boruvka_n256", &profile);
    println!("\n(nearest-rank percentiles over the rounds each class was active in;");
    println!(" the p95/max spread shows the bursty flood fronts a mean would hide)");
}
