//! Canonical bench suite: pinned configurations of the flagship runs,
//! written as a single report for the regression gate.
//!
//! Runs, with fully pinned seeds (so every counter is deterministic):
//!
//! * **e1 MST** — simulator-executed Borůvka on the canonical random
//!   6-regular expander (seed 1, weights seed 2), `n ∈ {256, 1024}`;
//! * **e2 routing** — the `i → 5i+3 mod n` permutation: hierarchical
//!   routing on the n = 256 expander, plus the CONGEST-executed Valiant
//!   bit-fix router on the dim-8 hypercube;
//! * **large tiers** — MST (Borůvka) on the dim-17 hypercube
//!   (n = 131072) and the Margulis–Gabber–Galil expander at m = 316
//!   (n = 99856), plus bit-fix routing of the full permutation on the
//!   dim-17 hypercube — the n ≈ 10⁵ ceiling the active-set engine pays
//!   for, always on and CI-gated. `AMT_BENCH_XL=1` additionally runs the
//!   n ≈ 10⁶ versions (hypercube dim 20, MGG m = 1000, bit-fix dim 20);
//!   those are *not* part of the committed baseline — `bench_compare`
//!   reports candidate-only benches informationally — so the flag can stay
//!   off in CI and the baseline refresh;
//! * **e16 faulty walk** — 256 healing walks on the n = 1024, d = 8
//!   expander under the e16 drop-0.05 / 2-crash plan;
//! * **e17 churn tier** — the same three protocol families under a pinned
//!   nontrivial [`ChurnPlan`] (link flaps plus a crash-restart): churned
//!   healing walks, churned healing Borůvka, and the churned bit-fix
//!   router. Each records a `recovery` section (damage spans and
//!   time-to-reconverge percentiles) alongside the usual counters;
//! * **scaling tier** — a sparse two-class token workload on three pinned
//!   2048-node instances (random 6-regular expander, id-interleaved
//!   dumbbell of two expander halves, heavy-tailed Chung–Lu). Each
//!   instance runs twice, and the repeat must reproduce the first run's
//!   observables exactly (hard assert); the repeat's wall-clock is
//!   recorded as `<instance>_repeat`. Every run in the tier executes with
//!   the trace on: its fold (rounds, deliveries, work totals and gauge
//!   high-water marks, all logical counters) enters the gated `traces`
//!   report section. `AMT_BENCH_SCALE_ONLY=1` runs just this tier.
//!
//! Output: `experiments_out/BENCH_<git-describe>.json` (override the stem
//! with a CLI argument, e.g. `bench_suite BENCH_baseline`) carrying rounds,
//! messages, max edge congestion, wall-clock, messages/sec throughput,
//! per-class totals, recovery statistics, and trace folds for every
//! bench. `bench_compare` diffs two such files and exits nonzero
//! on drift.

use amt_bench::scale::{scale_fleet, scaling_instances};
use amt_bench::{expander, report::git_describe, scaled_levels, Report};
use amt_core::congest::{
    Metrics, Observe, PhaseTimings, ProfileConfig, RunConfig, RunTrace, Simulator, TraceConfig,
    TrafficProfile,
};
use amt_core::mst::congest_boruvka;
use amt_core::prelude::*;
use amt_core::routing::{route_bitfix_churned_instrumented, route_bitfix_instrumented};
use amt_core::walks::healing::{
    run_walks_healing_churned_instrumented, run_walks_healing_instrumented,
};
use amt_core::walks::WalkSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The e16 crash schedule: node 0 (the minimum-id fragment leader) first,
/// then high-id nodes, staggered so crashes land mid-run.
fn plan_for(drop: f64, crashes: usize, n: usize, seed: u64) -> FaultPlan {
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

struct Bench {
    report: Report,
    wall: PhaseTimings,
    throughput: PhaseTimings,
}

impl Bench {
    /// Records one bench: its metrics, per-class totals, wall-clock,
    /// messages/sec throughput, and a summary row.
    fn record(
        &mut self,
        name: &'static str,
        metrics: &Metrics,
        profile: Option<&TrafficProfile>,
        wall: std::time::Duration,
    ) {
        self.report.metrics(name, metrics);
        if let Some(p) = profile {
            assert_eq!(p.total_messages(), metrics.messages, "{name}: class sums");
            self.report.profile(name, p);
        }
        self.wall.record_nanos(name, wall.as_nanos() as u64);
        // Messages/sec, recorded as a second `phase_timings` group.
        // `bench_compare` gates it as a lower bound for benches whose wall
        // clears the noise floor — the tentpole's simulated-throughput
        // number, pinned so the round engine can't quietly regress.
        let secs = wall.as_secs_f64();
        let msgs_per_sec = if secs > 0.0 {
            (metrics.messages as f64 / secs) as u64
        } else {
            0
        };
        self.throughput.record_nanos(name, msgs_per_sec);
        self.report.row(&[
            name.to_string(),
            metrics.rounds.to_string(),
            metrics.messages.to_string(),
            metrics.max_edge_congestion.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            msgs_per_sec.to_string(),
        ]);
    }
}

fn main() {
    let stem = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("BENCH_{}", git_describe()));
    let mut bench = Bench {
        report: Report::new(&stem),
        wall: PhaseTimings::new(),
        throughput: PhaseTimings::new(),
    };
    let profile_cfg = Some(ProfileConfig::default());
    let scale_only = std::env::var("AMT_BENCH_SCALE_ONLY").is_ok_and(|v| v == "1");
    println!("# Canonical bench suite ({stem})\n");
    bench.report.config("scale_only", scale_only);
    bench.report.header(&[
        "bench",
        "rounds",
        "messages",
        "max_edge_congestion",
        "wall_ms",
        "msgs_per_sec",
    ]);
    if scale_only {
        scaling_tier(&mut bench);
        finish(bench);
        return;
    }

    // e1 MST: Borůvka on the canonical expander, n ∈ {256, 1024}.
    for &n in &[256usize, 1024] {
        let g = expander(n, 6, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let wg = WeightedGraph::with_random_weights(g, 1_000_000, &mut rng);
        let t0 = Instant::now();
        let (out, profile) =
            congest_boruvka::run_instrumented(&wg, 3, 1, profile_cfg).expect("connected");
        let wall = t0.elapsed();
        let profile = profile.expect("profiling on");
        // `CongestMstOutcome` has no `Metrics`; reconstruct the comparable
        // counters from the run and its exact profile.
        let metrics = Metrics {
            rounds: out.rounds,
            messages: out.messages,
            bits: profile.total_bits(),
            max_edge_congestion: profile.analyze(1).max_edge_congestion,
            ..Metrics::default()
        };
        let name = if n == 256 {
            "e1_mst_n256"
        } else {
            "e1_mst_n1024"
        };
        bench.record(name, &metrics, Some(&profile), wall);
    }

    // e2 routing, hierarchical: the canonical permutation at n = 256.
    {
        let n = 256usize;
        let g = expander(n, 6, 1);
        let levels = scaled_levels(g.volume(), 4);
        let sys = System::builder(&g)
            .seed(1)
            .beta(4)
            .levels(levels)
            .build()
            .expect("expander");
        let reqs: Vec<(NodeId, NodeId)> = (0..n as u32)
            .map(|i| (NodeId(i), NodeId((5 * i + 3) % n as u32)))
            .collect();
        let t0 = Instant::now();
        let out = sys.route(&reqs, 2).expect("routable");
        let wall = t0.elapsed();
        assert_eq!(out.delivered, reqs.len(), "e2: every packet must arrive");
        // The hierarchy prices rounds by emulation (no simulator run, so no
        // message metrics or profile); rounds is the regression-gated value.
        let metrics = Metrics {
            rounds: out.total_base_rounds,
            ..Metrics::default()
        };
        bench.record("e2_route_hierarchy_n256", &metrics, None, wall);
    }

    // e2 routing, simulator-executed: bit-fix on the dim-8 hypercube.
    {
        let dim = 8u32;
        let n = 1usize << dim;
        let g = generators::hypercube(dim);
        let reqs: Vec<(NodeId, NodeId)> = (0..n as u32)
            .map(|i| (NodeId(i), NodeId((5 * i + 3) % n as u32)))
            .collect();
        let t0 = Instant::now();
        let (out, profile) =
            route_bitfix_instrumented(&g, &reqs, 12, 1, profile_cfg).expect("hypercube");
        let wall = t0.elapsed();
        bench.record("e2_route_bitfix_dim8", &out.metrics, profile.as_ref(), wall);
    }

    // e2 walk engine: the hierarchy build's walk phase in isolation at
    // n = 4096 — the Lemma 2.5 workload (`k·d(v)` walks per node) through
    // the batched engine, plus the reverse and kept-subset replays the
    // embedding pays for (level0's `2·rounds + replay(kept)` pattern).
    // Full builds at this size take minutes; the walk phase alone is what
    // the engine refactors move, so it is what the gate pins.
    {
        let g = expander(4096, 6, 1);
        let specs = amt_core::walks::parallel::degree_proportional_specs(&g, 2, 64);
        let mut rng = StdRng::seed_from_u64(7);
        let t0 = Instant::now();
        let run =
            amt_core::walks::parallel::run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng);
        let kept: Vec<usize> = (0..specs.len()).step_by(3).collect();
        let replay = run.replay_rounds(&kept);
        let wall = t0.elapsed();
        let metrics = Metrics {
            rounds: run.stats.rounds + run.reverse_rounds() + replay,
            messages: run.stats.traversals,
            max_edge_congestion: u64::from(
                run.stats.per_step_rounds.iter().copied().max().unwrap_or(0),
            ),
            peak_messages_per_round: u64::from(run.stats.max_node_tokens()),
            ..Metrics::default()
        };
        bench.record("e2_walk_phase_n4096", &metrics, None, wall);
    }

    // Large tiers (ROADMAP item 1): the n ≈ 10⁵ ceiling the active-set
    // engine lifts, always on. AMT_BENCH_XL=1 adds the n ≈ 10⁶ versions,
    // which stay out of the committed baseline (candidate-only benches are
    // informational in `bench_compare`), so the flag is off in CI.
    let xl = std::env::var("AMT_BENCH_XL").is_ok_and(|v| v == "1");

    // Large MST: Borůvka on the dim-17 hypercube and the
    // Margulis–Gabber–Galil expander. Profiling is off here — per-class
    // per-edge attribution over millions of edges would dominate the
    // wall-clock these tiers exist to measure.
    let mut mst_tiers: Vec<(&'static str, Graph)> = vec![
        ("e1_mst_hypercube_n131072", generators::hypercube(17)),
        (
            "e1_mst_margulis_n99856",
            generators::margulis_expander(316).expect("m >= 2"),
        ),
    ];
    if xl {
        mst_tiers.push(("e1_mst_hypercube_n1048576", generators::hypercube(20)));
        mst_tiers.push((
            "e1_mst_margulis_n1000000",
            generators::margulis_expander(1000).expect("m >= 2"),
        ));
    }
    for (name, g) in mst_tiers {
        let mut rng = StdRng::seed_from_u64(2);
        let wg = WeightedGraph::with_random_weights(g, 1_000_000, &mut rng);
        let t0 = Instant::now();
        let (out, _) = congest_boruvka::run_instrumented(&wg, 3, 1, None).expect("connected");
        let wall = t0.elapsed();
        let metrics = Metrics {
            rounds: out.rounds,
            messages: out.messages,
            ..Metrics::default()
        };
        bench.record(name, &metrics, None, wall);
    }

    // Large routing: the full `i → 5i+3 mod n` permutation, bit-fixed on
    // the dim-17 (and, under XL, dim-20) hypercube — one packet per node.
    let mut route_tiers: Vec<(&'static str, u32)> = vec![("e2_route_bitfix_dim17", 17)];
    if xl {
        route_tiers.push(("e2_route_bitfix_dim20", 20));
    }
    for (name, dim) in route_tiers {
        let n = 1usize << dim;
        let g = generators::hypercube(dim);
        let reqs: Vec<(NodeId, NodeId)> = (0..n as u32)
            .map(|i| (NodeId(i), NodeId((5 * i + 3) % n as u32)))
            .collect();
        let t0 = Instant::now();
        let (out, _) = route_bitfix_instrumented(&g, &reqs, 12, 1, None).expect("hypercube");
        let wall = t0.elapsed();
        bench.record(name, &out.metrics, None, wall);
    }

    // e16 faulty walk: the e16 repeat-run configuration.
    {
        let g = expander(1024, 8, 16);
        let n = g.len();
        let specs: Vec<WalkSpec> = (0..256)
            .map(|i| WalkSpec {
                start: NodeId((i * 3 % n) as u32),
                steps: 24,
            })
            .collect();
        let plan = plan_for(0.05, 2, n, 11 ^ (2u64) << 8);
        let t0 = Instant::now();
        let (out, _, profile) =
            run_walks_healing_instrumented(&g, WalkKind::Lazy, &specs, 11, plan, None, profile_cfg)
                .expect("valid plan");
        let wall = t0.elapsed();
        bench.record("e16_faulty_walk", &out.metrics, profile.as_ref(), wall);
    }

    // e17 churn tier: the pinned flap + crash-restart schedule. Every
    // counter *and* the recovery timeline are deterministic, so the gate
    // pins reconvergence behaviour, not just message counts.

    // e17 churned walks: flapping links + one restarting node.
    {
        let g = expander(1024, 8, 16);
        let n = g.len();
        let specs: Vec<WalkSpec> = (0..128)
            .map(|i| WalkSpec {
                start: NodeId((i * 3 % n) as u32),
                steps: 24,
            })
            .collect();
        let plan = FaultPlan::none().seeded(21).with_drops(0.01);
        let churn = ChurnPlan::none()
            .seeded(21)
            .with_flaps(0.05, 4)
            .with_restart(NodeId(7), 6, 5);
        let t0 = Instant::now();
        let (out, _, profile) = run_walks_healing_churned_instrumented(
            &g,
            WalkKind::Lazy,
            &specs,
            21,
            plan,
            churn,
            1,
            None,
            profile_cfg,
        )
        .expect("valid plans");
        let wall = t0.elapsed();
        bench.record("e17_churned_walk", &out.metrics, profile.as_ref(), wall);
        bench.report.recovery("e17_churned_walk", &out.timeline);
    }

    // e17 churned MST: healing Borůvka through the same churn family.
    {
        let g = expander(256, 6, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let wg = WeightedGraph::with_random_weights(g, 1_000_000, &mut rng);
        let plan = FaultPlan::none().seeded(9).with_drops(0.01);
        let churn = ChurnPlan::none()
            .seeded(33)
            .with_flaps(0.05, 4)
            .with_restart(NodeId(5), 3, 5);
        let t0 = Instant::now();
        let (out, _, profile) = amt_core::mst::healing::run_healing_churned_instrumented(
            &wg,
            17,
            plan,
            churn,
            1,
            None,
            profile_cfg,
        )
        .expect("survivors stay connected");
        let wall = t0.elapsed();
        bench.record("e17_churned_mst", &out.metrics, profile.as_ref(), wall);
        bench.report.recovery("e17_churned_mst", &out.timeline);
    }

    // e17 churned routing: bit-fix on the dim-8 hypercube with flapping
    // links and a restarting node; lost packets re-inject across epochs.
    {
        let dim = 8u32;
        let n = 1usize << dim;
        let g = generators::hypercube(dim);
        let reqs: Vec<(NodeId, NodeId)> = (0..n as u32)
            .map(|i| (NodeId(i), NodeId((5 * i + 3) % n as u32)))
            .collect();
        let churn = ChurnPlan::none()
            .seeded(17)
            .with_flaps(0.05, 3)
            .with_restart(NodeId(6), 1, 4);
        let t0 = Instant::now();
        let (out, _, profile) =
            route_bitfix_churned_instrumented(&g, &reqs, 12, churn, 1, None, profile_cfg)
                .expect("hypercube");
        let wall = t0.elapsed();
        assert!(
            out.undelivered.is_empty(),
            "e17: flaps alone never isolate a destination for good"
        );
        bench.record("e17_churned_route", &out.metrics, profile.as_ref(), wall);
        bench.report.recovery("e17_churned_route", &out.timeline);
    }

    scaling_tier(&mut bench);
    finish(bench);
}

fn finish(bench: Bench) {
    let Bench {
        mut report,
        wall,
        throughput,
    } = bench;
    report.phase_timings("wall", &wall);
    report.phase_timings("throughput", &throughput);
    println!("\n(all counters are deterministic: compare two suite reports with");
    println!(" `bench_compare <baseline> <candidate>` — exact on rounds/messages/");
    println!(" congestion/per-class totals, recovery statistics, and trace");
    println!(" folds, 25% tolerance with a 5 ms floor on wall-clock, and a");
    println!(" lower bound on messages/sec for the long tiers)");
    report.finish();
}

/// One scaling run with profiling and the trace on.
fn scale_run(
    g: &Graph,
) -> (
    Metrics,
    Vec<u64>,
    TrafficProfile,
    RunTrace,
    std::time::Duration,
) {
    let mut sim = Simulator::new(g, scale_fleet(g.len()), 77)
        .expect("fleet size matches")
        .with_observe(Observe {
            profile: Some(ProfileConfig::default()),
            // The tier gates the trace's folds (work totals and high-water
            // marks), not its per-round series.
            trace: Some(TraceConfig::default()),
        });
    let t0 = Instant::now();
    let metrics = sim
        .run(&RunConfig::all_done())
        .expect("scaling workload terminates");
    let wall = t0.elapsed();
    let digests = sim.nodes().iter().map(|p| p.digest).collect();
    let observed = sim.take_observed();
    let profile = observed.profile.expect("profiling on");
    let trace = observed.trace.expect("trace on");
    (metrics, digests, profile, trace, wall)
}

/// The scaling tier: three pinned 2048-node instances, each run twice
/// (the repeat must reproduce the first run exactly). The first run's
/// metrics, profile and trace folds enter the gated report sections; the
/// repeat's wall-clock is recorded as `<instance>_repeat`.
fn scaling_tier(bench: &mut Bench) {
    let mut walls: Vec<(&'static str, std::time::Duration)> = Vec::new();
    for (name, g) in &scaling_instances() {
        let (metrics, digests, profile, trace, wall) = scale_run(g);
        bench.record(name, &metrics, Some(&profile), wall);
        bench.report.trace(name, &trace);

        let (m, d, p, t, w) = scale_run(g);
        assert_eq!(
            (&m, &d, &p, &t),
            (&metrics, &digests, &profile, &trace),
            "{name}: a repeat run drifted"
        );
        let label: &'static str = Box::leak(format!("{name}_repeat").into_boxed_str());
        bench.wall.record_nanos(label, w.as_nanos() as u64);
        walls.push((name, w));
    }

    println!("\n## Scaling tier (repeat runs asserted identical)\n");
    bench.report.section("scaling wall-clock");
    bench.report.header(&["instance", "wall_ms"]);
    for (name, wall) in walls {
        bench
            .report
            .row(&[name.to_string(), format!("{:.1}", wall.as_secs_f64() * 1e3)]);
    }
}
