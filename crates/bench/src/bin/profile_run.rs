//! Traffic-class congestion profiles of the flagship runs.
//!
//! Profiles the simulator-executed protocols — clean and healing Borůvka
//! MST, Valiant bit-fix permutation routing, and healing walks — with the
//! traffic-class profiler (`Observe::profile`): per-class totals,
//! the top-10 hot edges with per-class attribution, the ack/retransmit
//! share of the healing runs versus their clean counterparts, per-class
//! round-level distributions (p50/p95/max), and an ASCII heatmap of the
//! per-class load over the edge-id space. The hierarchy MST/router is
//! priced by recursive emulation rather than executed on the simulator, so
//! profiling attaches to the CONGEST-executed protocols.
//!
//! Everything printed is also recorded into
//! `experiments_out/profile_run.json` (report schema v2, `profiles`
//! section).

use amt_bench::{expander, Report};
use amt_core::congest::{class, Distribution, ProfileConfig, TraceConfig, TrafficProfile};
use amt_core::mst::{congest_boruvka, run_healing_instrumented};
use amt_core::prelude::*;
use amt_core::routing::route_bitfix_instrumented;
use amt_core::walks::healing::run_walks_healing_instrumented;
use amt_core::walks::parallel::degree_proportional_specs;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Share (in %) of a profile's messages carried by the ARQ overhead
/// classes (acks + retransmissions, walk and reliable-link alike).
fn overhead_share(p: &TrafficProfile) -> f64 {
    let overhead: u64 = [
        class::REL_ACK,
        class::REL_RETRANSMIT,
        class::WALK_CUSTODY,
        class::WALK_RETRANSMIT,
    ]
    .iter()
    .filter_map(|c| p.stats(c))
    .map(|s| s.messages)
    .sum();
    let total = p.total_messages();
    if total == 0 {
        0.0
    } else {
        100.0 * overhead as f64 / total as f64
    }
}

fn class_totals_rows(report: &mut Report, run: &str, p: &TrafficProfile) {
    let total = p.total_messages().max(1);
    for s in &p.per_class {
        report.row(&[
            run.to_string(),
            s.class.to_string(),
            s.messages.to_string(),
            s.bits.to_string(),
            format!("{:.1}", 100.0 * s.messages as f64 / total as f64),
        ]);
    }
}

fn hot_edge_rows(report: &mut Report, run: &str, p: &TrafficProfile, top_k: usize) {
    for (rank, h) in p.analyze(top_k).top_edges.iter().enumerate() {
        let breakdown = h
            .per_class
            .iter()
            .map(|(c, m)| format!("{c}={m}"))
            .collect::<Vec<_>>()
            .join(" ");
        report.row(&[
            run.to_string(),
            (rank + 1).to_string(),
            h.edge.to_string(),
            h.messages.to_string(),
            h.bits.to_string(),
            breakdown,
        ]);
    }
}

/// Per-class round distributions from the profile's own timelines.
fn distribution_rows(report: &mut Report, run: &str, p: &TrafficProfile) {
    for s in &p.per_class {
        // No statistics for an empty timeline (class registered but never
        // active): skip the row instead of printing fabricated zeros.
        let (Some(msgs), Some(bits)) = (
            Distribution::try_of(s.timeline.iter().map(|t| t.messages)),
            Distribution::try_of(s.timeline.iter().map(|t| t.bits)),
        ) else {
            continue;
        };
        report.row(&[
            run.to_string(),
            s.class.to_string(),
            msgs.p50.to_string(),
            msgs.p95.to_string(),
            msgs.max.to_string(),
            bits.p50.to_string(),
            bits.p95.to_string(),
            bits.max.to_string(),
        ]);
    }
}

fn main() {
    let mut report = Report::new("profile_run");
    let profile_cfg = Some(ProfileConfig::default());
    println!("# Traffic-class congestion profiles (top-10 hot edges, reliability tax)\n");

    // ---- MST: clean vs healing Borůvka on the canonical expander ----
    let n = 256usize;
    let g = expander(n, 6, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let wg = WeightedGraph::with_random_weights(g.clone(), 1_000_000, &mut rng);
    report.config("mst_n", n);
    report.config("mst_family", "random 6-regular expander, seed 1");

    let (clean, clean_profile) =
        congest_boruvka::run_instrumented(&wg, 3, 4, profile_cfg).expect("connected");
    let clean_profile = clean_profile.expect("profiling on");

    let plan = FaultPlan::none()
        .seeded(7)
        .with_drops(0.05)
        .with_crash(NodeId(0), 10);
    let (healing, _, healing_profile) =
        run_healing_instrumented(&wg, 3, plan, None, profile_cfg).expect("connected survivors");
    let healing_profile = healing_profile.expect("profiling on");
    assert_eq!(healing_profile.total_messages(), healing.metrics.messages);
    assert_eq!(healing_profile.total_bits(), healing.metrics.bits);

    println!("## MST class totals — clean Borůvka vs healing Borůvka (drop 5%, leader crash)\n");
    report.section("mst class totals");
    report.header(&["run", "class", "messages", "bits", "share%"]);
    class_totals_rows(&mut report, "clean", &clean_profile);
    class_totals_rows(&mut report, "healing", &healing_profile);

    let clean_tax = overhead_share(&clean_profile);
    let healing_tax = overhead_share(&healing_profile);
    println!("\nack/retransmit share of all messages: clean {clean_tax:.1}% vs healing {healing_tax:.1}%");
    println!("(the reliability tax the ARQ layer pays for surviving drops and crashes)\n");
    report.config("mst_clean_overhead_pct", format!("{clean_tax:.2}"));
    report.config("mst_healing_overhead_pct", format!("{healing_tax:.2}"));

    println!("## MST hot edges (top 10, per-class attribution)\n");
    report.section("mst hot edges");
    report.header(&["run", "rank", "edge", "messages", "bits", "per-class"]);
    hot_edge_rows(&mut report, "clean", &clean_profile, 10);
    hot_edge_rows(&mut report, "healing", &healing_profile, 10);

    println!("\nclean heatmap (bits per edge-id bucket):\n");
    print!("{}", clean_profile.heatmap(64));
    println!("\nhealing heatmap (bits per edge-id bucket):\n");
    print!("{}", healing_profile.heatmap(64));

    println!("\n## MST round-level distributions (per class, messages and bits per round)\n");
    report.section("mst round distributions");
    report.header(&[
        "run", "class", "msg p50", "msg p95", "msg max", "bit p50", "bit p95", "bit max",
    ]);
    distribution_rows(&mut report, "clean", &clean_profile);
    distribution_rows(&mut report, "healing", &healing_profile);

    report.metrics("mst_healing", &healing.metrics);
    report.profile("mst_clean", &clean_profile);
    report.profile("mst_healing", &healing_profile);
    println!(
        "\nclean: {} rounds, {} msgs; healing: {} rounds, {} msgs, {} restart(s)\n",
        clean.rounds,
        clean.messages,
        healing.rounds,
        healing.metrics.messages,
        healing.phase_restarts
    );

    // ---- Routing: Valiant bit-fix permutation on the hypercube ----
    let dim = 8u32;
    let hn = 1usize << dim;
    let hg = generators::hypercube(dim);
    let reqs: Vec<(NodeId, NodeId)> = (0..hn as u32)
        .map(|i| (NodeId(i), NodeId((5 * i + 3) % hn as u32)))
        .collect();
    let (route, route_profile) =
        route_bitfix_instrumented(&hg, &reqs, 12, 1, profile_cfg).expect("hypercube");
    let route_profile = route_profile.expect("profiling on");
    assert_eq!(route_profile.total_messages(), route.metrics.messages);
    report.config("route_n", hn);
    report.config("route_family", format!("hypercube dim {dim}"));

    println!("## Routing (bit-fix over hypercube dim {dim}): portal vs payload split\n");
    report.section("routing class totals");
    report.header(&["run", "class", "messages", "bits", "share%"]);
    class_totals_rows(&mut report, "bitfix", &route_profile);
    let analysis = route_profile.analyze(10);
    println!(
        "\nportal share of the hottest edge: {:.1}% (payload {:.1}%), max congestion {}\n",
        100.0 * analysis.class_share_of_max(class::ROUTE_PORTAL),
        100.0 * analysis.class_share_of_max(class::ROUTE_PAYLOAD),
        analysis.max_edge_congestion
    );
    report.section("routing hot edges");
    report.header(&["run", "rank", "edge", "messages", "bits", "per-class"]);
    hot_edge_rows(&mut report, "bitfix", &route_profile, 10);
    report.metrics("route_bitfix", &route.metrics);
    report.profile("route_bitfix", &route_profile);

    // ---- Healing walks: token vs custody vs retransmit ----
    let wg_graph = expander(n, 6, 1);
    let specs = degree_proportional_specs(&wg_graph, 1, 20);
    let plan = FaultPlan::none()
        .seeded(4)
        .with_drops(0.03)
        .with_crash(NodeId(9), 5);
    let (walks, walk_traces, walk_profile) = run_walks_healing_instrumented(
        &wg_graph,
        WalkKind::Lazy,
        &specs,
        6,
        plan,
        Some(TraceConfig::default()),
        profile_cfg,
    )
    .expect("valid plan");
    let walk_profile = walk_profile.expect("profiling on");
    assert_eq!(walk_profile.total_messages(), walks.metrics.messages);

    println!("\n## Healing walks: class totals and per-epoch round distributions\n");
    report.section("walk class totals");
    report.header(&["run", "class", "messages", "bits", "share%"]);
    class_totals_rows(&mut report, "healing walks", &walk_profile);
    println!(
        "\nwalk ARQ overhead (custody + retransmit): {:.1}% of all messages, {} epoch(s), {} reissued\n",
        overhead_share(&walk_profile),
        walks.epochs,
        walks.reissued
    );

    report.section("walk epoch distributions");
    report.header(&[
        "epoch", "rounds", "msg p50", "msg p95", "msg max", "bit p50", "bit p95", "bit max",
    ]);
    for (i, trace) in walk_traces.iter().enumerate() {
        let msgs = Distribution::of(trace.samples.iter().map(|s| s.messages));
        let bits = Distribution::of(trace.samples.iter().map(|s| s.bits));
        report.row(&[
            i.to_string(),
            trace.samples.len().to_string(),
            msgs.p50.to_string(),
            msgs.p95.to_string(),
            msgs.max.to_string(),
            bits.p50.to_string(),
            bits.p95.to_string(),
            bits.max.to_string(),
        ]);
        report.timeline(&format!("walk_epoch_{i}"), trace);
    }
    report.metrics("healing_walks", &walks.metrics);
    report.profile("healing_walks", &walk_profile);

    println!("\n(per-class totals sum exactly to each run's Metrics — asserted in-process;");
    println!(" the profiler is off by default and leaves unprofiled runs byte-identical)");
    report.finish();
}
