//! E17 — topology churn soak: sustained damage, self-healing, and
//! recovery SLOs.
//!
//! Drives the three healing protocol families (parallel walks, Borůvka
//! MST, bit-fix routing) through deterministic [`ChurnPlan`]s — link
//! flaps, crash-restarts with state loss, and permanent edge cuts — and
//! checks, per cell:
//!
//! * **correctness under sustained damage** — every walk finishes, the
//!   healed tree equals Kruskal on the surviving graph minus permanently
//!   cut edges, and every routable packet is delivered;
//! * **graceful degradation** — cutting every bridge of a dumbbell makes
//!   the MST driver fail fast with [`CongestError::Partitioned`] (never
//!   the round cap), and isolating a routing destination parks its
//!   packets as an explicit degraded outcome instead of livelocking;
//! * **recovery SLOs** — each cell reports its damage-span count and
//!   time-to-reconverge percentiles (p50/p95/max rounds from damage to
//!   the next completed phase/epoch), and the soak asserts the
//!   distributions are nonzero wherever churn actually bit;
//! * **determinism** — one pinned cell per family runs twice and the
//!   repeat must be byte-identical (outcome, metrics, and recovery
//!   timeline), because churn verdicts are pure functions of
//!   `(churn seed, round, edge)`.
//!
//! `--smoke` (or `E17_SMOKE=1`) shrinks the sweep for CI: smaller graphs,
//! one flap cell.

use amt_bench::{expander, Report};
use amt_core::congest::CongestError;
use amt_core::mst::{healing as mst_healing, reference, MstError};
use amt_core::prelude::*;
use amt_core::routing::{route_bitfix, MAX_ROUTE_EPOCHS};
use amt_core::walks::{run_walks_healing, WalkSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One row of the recovery-SLO summary: name, damage spans, and the
/// time-to-reconverge percentiles off the cell's [`RecoveryTimeline`].
fn slo_row(report: &mut Report, name: &str, t: &amt_core::congest::RecoveryTimeline, ok: bool) {
    let ttr = t.time_to_reconverge();
    report.recovery(name, t);
    report.row(&[
        name.to_string(),
        t.spans().len().to_string(),
        t.open_count().to_string(),
        ttr.p50.to_string(),
        ttr.p95.to_string(),
        ttr.max.to_string(),
        if ok { "yes".into() } else { "NO".into() },
    ]);
}

/// The flap × restart sweep: healing walks and healing Borůvka on one
/// expander, with correctness checked in-process per cell.
#[allow(clippy::too_many_lines)]
fn churn_sweep(report: &mut Report, n: usize, walks: usize, flaps: &[f64], restarts: &[usize]) {
    println!("\n## Sustained churn: flap-rate × restart sweep (expander n = {n})\n");
    report.header(&[
        "cell", "spans", "open", "ttr_p50", "ttr_p95", "ttr_max", "ok",
    ]);
    let g = expander(n, 6, 1);
    let mut rng = StdRng::seed_from_u64(17);
    let wg = WeightedGraph::with_random_weights(g.clone(), 4000, &mut rng);
    let specs: Vec<WalkSpec> = (0..walks)
        .map(|i| WalkSpec {
            start: NodeId((i * 3 % n) as u32),
            steps: 24,
        })
        .collect();
    for &flap in flaps {
        for &restarts in restarts {
            let mut churn = ChurnPlan::none()
                .seeded(0xE17 ^ (restarts as u64) << 8 ^ (flap * 1000.0) as u64)
                .with_flaps(flap, 4);
            for r in 0..restarts {
                churn = churn.with_restart(NodeId((7 + 11 * r) as u32), 3 + 5 * r as u64, 5);
            }
            let plan = FaultPlan::none().seeded(31).with_drops(0.01);

            let walk_out =
                run_walks_healing(&g, WalkKind::Lazy, &specs, 21, plan.clone(), churn.clone())
                    .expect("valid plans");
            let walks_ok = walk_out.endpoints.iter().all(Option::is_some);
            let name = format!("walks flap={flap:.2} restarts={restarts}");
            report.metrics(&name, &walk_out.metrics);
            slo_row(report, &name, &walk_out.timeline, walks_ok);
            assert!(walks_ok, "{name}: a walk failed to finish under churn");

            let mst_out =
                mst_healing::run_healing(&wg, 5, plan, churn).expect("survivors stay connected");
            let want = wg.total_weight(&reference::survivor_mst(&wg, &mst_out.crashed_nodes, &[]));
            let mst_ok = mst_out.total_weight == want;
            let name = format!("mst flap={flap:.2} restarts={restarts}");
            report.metrics(&name, &mst_out.metrics);
            slo_row(report, &name, &mst_out.timeline, mst_ok);
            assert!(mst_ok, "{name}: healed tree diverged from the survivor MST");
            // Churn must actually bite, and the SLO must be measurable:
            // flaps open damage spans, and every span closes by the end.
            assert!(
                !mst_out.timeline.spans().is_empty()
                    && mst_out.timeline.time_to_reconverge().max >= 1,
                "{name}: no measurable damage-to-reconvergence span"
            );
            assert_eq!(mst_out.timeline.open_count(), 0, "{name}: unhealed span");
        }
    }
}

/// Bit-fix routing on the hypercube under flaps and a restart: every
/// packet must be delivered (flaps never isolate a destination for good).
fn route_cells(report: &mut Report, dim: u32, flaps: &[f64]) {
    println!("\n## Churned routing: bit-fix on the dim-{dim} hypercube\n");
    report.header(&[
        "cell", "spans", "open", "ttr_p50", "ttr_p95", "ttr_max", "ok",
    ]);
    let n = 1usize << dim;
    let g = generators::hypercube(dim);
    let reqs: Vec<(NodeId, NodeId)> = (0..n as u32)
        .map(|i| (NodeId(i), NodeId((5 * i + 3) % n as u32)))
        .collect();
    for &flap in flaps {
        let churn = ChurnPlan::none()
            .seeded(0x17 ^ (flap * 1000.0) as u64)
            .with_flaps(flap, 3)
            .with_restart(NodeId(6), 1, 4);
        let out = route_bitfix(&g, &reqs, 12, churn).expect("hypercube");
        let ok = out.undelivered.is_empty() && !out.degraded();
        let name = format!("route flap={flap:.2}");
        report.metrics(&name, &out.metrics);
        slo_row(report, &name, &out.timeline, ok);
        assert!(ok, "{name}: a routable packet went undelivered");
    }
}

/// Permanent-cut cells: a mid-run cut on the expander re-heals around the
/// lost edge; cutting every dumbbell bridge fails fast with `Partitioned`;
/// isolating a routing destination degrades instead of livelocking.
fn cut_cells(report: &mut Report, n: usize) {
    println!("\n## Permanent cuts: re-heal, partition fast-fail, degraded routing\n");
    report.header(&[
        "cell", "spans", "open", "ttr_p50", "ttr_p95", "ttr_max", "ok",
    ]);

    // A mid-run cut of edge 0 on the expander: the tree re-heals to the
    // survivor MST without that edge.
    {
        let g = expander(n, 6, 1);
        let mut rng = StdRng::seed_from_u64(17);
        let wg = WeightedGraph::with_random_weights(g, 4000, &mut rng);
        let churn = ChurnPlan::none().seeded(7).with_edge_cut(EdgeId(0), 4);
        let out = mst_healing::run_healing(&wg, 5, FaultPlan::none(), churn)
            .expect("one cut edge never disconnects an expander");
        let want = wg.total_weight(&reference::survivor_mst(&wg, &[], &[EdgeId(0)]));
        let ok = out.total_weight == want;
        report.metrics("mst cut-edge", &out.metrics);
        slo_row(report, "mst cut-edge", &out.timeline, ok);
        assert!(ok, "cut-edge cell: tree kept (or missed) the cut edge");
    }

    // The dumbbell of the healing test suite: cutting both of node 4's
    // bridge edges splits the graph into three components, and the driver
    // must say so instead of spinning to the round cap.
    {
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 4),
                (4, 6),
                (5, 6),
                (6, 7),
                (7, 5),
                (3, 0),
                (8, 5),
            ],
        )
        .unwrap();
        let wg = WeightedGraph::with_random_weights(g, 100, &mut StdRng::seed_from_u64(49));
        let churn = ChurnPlan::none()
            .seeded(4)
            .with_edge_cut(EdgeId(3), 2)
            .with_edge_cut(EdgeId(4), 2);
        let err = mst_healing::run_healing(&wg, 1, FaultPlan::none(), churn)
            .expect_err("cutting every bridge must partition");
        let ok = matches!(
            err,
            MstError::Congest(CongestError::Partitioned { components: 3, .. })
        );
        report.row(&[
            "mst cut-bridges".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            if ok { "yes".into() } else { "NO".into() },
        ]);
        assert!(ok, "expected Partitioned {{ components: 3 }}, got {err:?}");
        println!("cut-bridges cell: failed fast with `{err}`");
    }

    // Isolating node 0 of a small hypercube: packets for it park as an
    // explicit degraded outcome after the epoch cap; everything else
    // still arrives.
    {
        let g = generators::hypercube(3);
        let mut churn = ChurnPlan::none().seeded(3);
        for (e, u, v) in g.edges() {
            if u == NodeId(0) || v == NodeId(0) {
                churn = churn.with_edge_cut(e, 0);
            }
        }
        let reqs: Vec<(NodeId, NodeId)> = (1..8).map(|i| (NodeId(i), NodeId(i % 2))).collect();
        let out = route_bitfix(&g, &reqs, 9, churn).expect("valid plan");
        let ok = out.degraded()
            && out.epochs == MAX_ROUTE_EPOCHS
            && reqs
                .iter()
                .zip(&out.endpoints)
                .all(|(&(_, t), e)| (t == NodeId(0)) == e.is_none());
        report.metrics("route isolated-dest", &out.metrics);
        slo_row(report, "route isolated-dest", &out.timeline, ok);
        assert!(
            ok,
            "isolation cell: expected exactly the dest-0 packets parked"
        );
        println!(
            "isolated-dest cell: degraded after {} epochs, {} packet(s) parked",
            out.epochs,
            out.undelivered.len()
        );
    }
}

/// The determinism contract under churn: one pinned cell per family, run
/// twice; the repeat is byte-identical (outcome, metrics, recovery
/// timeline).
fn repeat_table(report: &mut Report, n: usize, walks: usize) {
    println!("\n## Byte-identical replay (churned path)\n");
    report.header(&["workload", "rounds", "identical"]);
    let g = expander(n, 6, 1);
    let mut rng = StdRng::seed_from_u64(17);
    let wg = WeightedGraph::with_random_weights(g.clone(), 4000, &mut rng);
    let specs: Vec<WalkSpec> = (0..walks)
        .map(|i| WalkSpec {
            start: NodeId((i * 3 % n) as u32),
            steps: 24,
        })
        .collect();
    let plan = FaultPlan::none().seeded(31).with_drops(0.01);
    let churn = ChurnPlan::none()
        .seeded(0xE17)
        .with_flaps(0.05, 4)
        .with_restart(NodeId(7), 3, 5);
    let rg = generators::hypercube(6);
    let reqs: Vec<(NodeId, NodeId)> = (0..64u32)
        .map(|i| (NodeId(i), NodeId((5 * i + 3) % 64)))
        .collect();
    let mut row = |label: &str, rounds: u64, identical: bool| {
        report.row(&[label.into(), rounds.to_string(), identical.to_string()]);
        assert!(identical, "{label}: repeat run diverged");
    };

    let walk =
        || run_walks_healing(&g, WalkKind::Lazy, &specs, 21, plan.clone(), churn.clone()).unwrap();
    let w = walk();
    row("churned walks", w.metrics.rounds, walk() == w);

    let mst = || mst_healing::run_healing(&wg, 5, plan.clone(), churn.clone()).unwrap();
    let m = mst();
    row("churned boruvka", m.metrics.rounds, mst() == m);

    let route = || route_bitfix(&rg, &reqs, 12, churn.clone()).unwrap();
    let r = route();
    row("churned bit-fix", r.metrics.rounds, route() == r);

    println!("\n(`identical` compares the full outcome structs — endpoints/tree,");
    println!(" metrics, churn counters, and the recovery timeline — because churn");
    println!(" verdicts are keyed on (seed, round, edge), not on arrival order)");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("E17_SMOKE").is_ok_and(|v| v == "1");
    let mut report = Report::new("e17_topology_churn");
    println!("# E17 — topology churn soak: self-healing under sustained damage\n");
    println!("Deterministic churn plans (flaps, crash-restarts, permanent cuts)");
    println!("against the healing walks, healing Borůvka, and the churned bit-fix");
    println!("router; every cell is checked in-process and reports its recovery");
    println!("SLOs (damage spans, time-to-reconverge percentiles).");
    if smoke {
        println!("\n(smoke mode: reduced sweep for CI)");
    }
    report.config("smoke", u64::from(smoke));

    if smoke {
        churn_sweep(&mut report, 128, 32, &[0.05], &[1]);
        route_cells(&mut report, 6, &[0.05]);
        cut_cells(&mut report, 128);
        repeat_table(&mut report, 128, 32);
    } else {
        churn_sweep(&mut report, 256, 128, &[0.02, 0.05, 0.10], &[0, 1, 2]);
        route_cells(&mut report, 8, &[0.02, 0.05, 0.10]);
        cut_cells(&mut report, 256);
        repeat_table(&mut report, 256, 128);
    }

    println!("\nEvery cell passed its in-process check: walks finish, trees match");
    println!("Kruskal on the surviving graph minus permanent cuts, routable");
    println!("packets arrive, disconnection fails fast as `Partitioned`, and the");
    println!("churned path replays byte-identically.");
    report.finish();
}
