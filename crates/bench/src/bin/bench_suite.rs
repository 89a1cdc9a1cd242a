//! Canonical bench suite: pinned configurations of the flagship runs,
//! written as a single report for the regression gate.
//!
//! Runs, with fully pinned seeds (so every counter is deterministic), every
//! tier at least three times and until its runs last 200 ms: the repeats
//! must be identical (outcomes without `PartialEq` by their counters), and
//! the tier's wall is their median ([`repeat_median`]). So a millisecond
//! tier takes hundreds of samples and a tier of seconds three. The tiers:
//!
//! * **e1 MST** — simulator-executed Borůvka on the canonical random
//!   6-regular expander (seed 1, weights seed 2), `n ∈ {256, 1024}`;
//! * **e2 routing** — the `i → 5i+3 mod n` permutation: hierarchical
//!   routing on the n = 256 expander, plus the CONGEST-executed Valiant
//!   bit-fix router on the dim-8 hypercube;
//! * **e2 endpoint walks** — the router's preparation walk alone: one
//!   `τ_mix`-step lazy walk from each node of that n = 256 network through
//!   the endpoint-only walk call;
//! * **paper MST** — Theorem 1.1's `System::mst` on E1's n = 256 network
//!   (the same hierarchy); the last run's plan/prep/price split is
//!   printed in a table of its own;
//! * **large tiers** — MST (Borůvka) on the dim-17 hypercube
//!   (n = 131072) and the Margulis–Gabber–Galil expander at m = 316
//!   (n = 99856), plus bit-fix routing of the full permutation on the
//!   dim-17 hypercube — the n ≈ 10⁵ ceiling the active-set engine pays
//!   for, always on and CI-gated. `AMT_BENCH_XL=1` additionally runs the
//!   n ≈ 10⁶ versions (hypercube dim 20, MGG m = 1000, bit-fix dim 20),
//!   three runs of about one to two and a half minutes each; those are
//!   *not* part of the committed baseline — `bench_compare` reports
//!   candidate-only benches informationally — so the flag can stay off in
//!   CI and the baseline refresh;
//! * **e16 faulty walk** — 256 healing walks on the n = 1024, d = 8
//!   expander under the e16 drop-0.05 / 2-crash plan;
//! * **e17 churn tier** — the same three protocol families under a pinned
//!   nontrivial [`ChurnPlan`] (link flaps plus a crash-restart): churned
//!   healing walks, churned healing Borůvka, and the churned bit-fix
//!   router. Each records a `recovery` section (damage spans and
//!   time-to-reconverge percentiles) alongside the usual counters. The
//!   e16 and e17 tiers also time the round engine's phases
//!   ([`Observe::phases`]): the per-phase median over the tier's repeats
//!   enters `phase_timings` as `engine_<tier>` (ungated) and is printed in
//!   a table of its own;
//! * **scaling tier** — a sparse two-class token workload on three pinned
//!   2048-node instances (random 6-regular expander, id-interleaved
//!   dumbbell of two expander halves, heavy-tailed Chung–Lu). Every
//!   repeat must reproduce the first run's observables exactly, node
//!   digests, profile and trace included. Every run in the tier executes
//!   with the trace on: its fold (rounds, deliveries, work totals and
//!   gauge high-water marks, all logical counters) enters the gated
//!   `traces` report section. `AMT_BENCH_SCALE_ONLY=1` runs just this
//!   tier.
//!
//! Output: `experiments_out/BENCH_<git-describe>.json` (override the stem
//! with a CLI argument, e.g. `bench_suite BENCH_baseline`) carrying rounds,
//! messages, max edge congestion, wall-clock, messages/sec throughput,
//! per-class totals, recovery statistics, and trace folds for every
//! bench. `bench_compare` diffs two such files and exits nonzero
//! on drift.

use amt_bench::scale::{scale_fleet, scaling_instances};
use amt_bench::{e16_fault_plan, expander, report::git_describe, scaled_levels, Report};
use amt_core::congest::{
    Metrics, Observe, ObservedRuns, PhaseTimings, ProfileConfig, RunConfig, RunTrace, Simulator,
    TraceConfig, TrafficProfile,
};
use amt_core::mst::{congest_boruvka, run_healing_observed};
use amt_core::prelude::*;
use amt_core::routing::route_bitfix_observed;
use amt_core::walks::healing::run_walks_healing_observed;
use amt_core::walks::{run_walk_ends, WalkSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Runs `run` (which returns its own wall and outcome) at least three times
/// and until the runs last 200 ms, asserting that every repeat's outcome
/// equals the first; returns the last (warm) run's outcome and the median
/// wall. One wall sample is mostly noise on a millisecond tier, and on a
/// long tier it moves with whatever else the host runs; outcomes without
/// `PartialEq` are compared by their counters.
fn repeat_median<T: PartialEq + std::fmt::Debug>(
    tier: &str,
    mut run: impl FnMut() -> (Duration, T),
) -> (T, Duration) {
    let (first_wall, first) = run();
    let mut walls = vec![first_wall];
    let mut last = None;
    while walls.len() < 3 || walls.iter().sum::<Duration>() < Duration::from_millis(200) {
        let (wall, again) = run();
        assert_eq!(again, first, "{tier}: a repeat run drifted");
        walls.push(wall);
        last = Some(again);
    }
    walls.sort();
    (last.expect("at least three runs"), walls[walls.len() / 2])
}

/// The canonical `i → 5i+3 mod n` routing permutation.
fn canonical_permutation(n: usize) -> Vec<(NodeId, NodeId)> {
    (0..n as u32)
        .map(|i| (NodeId(i), NodeId((5 * i + 3) % n as u32)))
        .collect()
}

/// `count` 24-step walks from nodes `3i mod n`.
fn walk_specs(count: usize, n: usize) -> Vec<WalkSpec> {
    (0..count)
        .map(|i| WalkSpec {
            start: NodeId((i * 3 % n) as u32),
            steps: 24,
        })
        .collect()
}

/// A Borůvka tier: `congest_boruvka` on `g` with random weights (seed 2),
/// profiled when `profile` is set.
fn boruvka_tier(bench: &mut Bench, name: &'static str, g: Graph, profile: Option<ProfileConfig>) {
    let mut rng = StdRng::seed_from_u64(2);
    let wg = WeightedGraph::with_random_weights(g, 1_000_000, &mut rng);
    let observe = Observe {
        profile,
        ..Observe::default()
    };
    let ((metrics, profile), wall) = repeat_median(name, || {
        let t0 = Instant::now();
        let (out, runs) =
            congest_boruvka::run_observed(&wg, 3, observe.clone()).expect("connected");
        let wall = t0.elapsed();
        let p = runs.profile;
        // `CongestMstOutcome` has no `Metrics`; reconstruct the comparable
        // counters from the run and, when profiled, its exact profile.
        let metrics = Metrics {
            rounds: out.rounds,
            messages: out.messages,
            bits: p.as_ref().map_or(0, TrafficProfile::total_bits),
            max_edge_congestion: p.as_ref().map_or(0, |p| p.analyze(1).max_edge_congestion),
            ..Metrics::default()
        };
        (wall, (metrics, p))
    });
    bench.record(name, &metrics, profile.as_ref(), wall);
}

/// A bit-fix routing tier: the canonical permutation on the dim-`dim`
/// hypercube, profiled when `profile` is set.
fn bitfix_tier(bench: &mut Bench, name: &'static str, dim: u32, profile: Option<ProfileConfig>) {
    let g = generators::hypercube(dim);
    let reqs = canonical_permutation(1 << dim);
    let observe = Observe {
        profile,
        ..Observe::default()
    };
    let ((metrics, profile), wall) = repeat_median(name, || {
        let t0 = Instant::now();
        let (out, runs) = route_bitfix_observed(&g, &reqs, 12, ChurnPlan::none(), observe.clone())
            .expect("hypercube");
        let wall = t0.elapsed();
        assert!(!out.degraded(), "{name}: every packet must arrive");
        (wall, (out.metrics, runs.profile))
    });
    bench.record(name, &metrics, profile.as_ref(), wall);
}

struct Bench {
    report: Report,
    wall: PhaseTimings,
    throughput: PhaseTimings,
    /// Round-engine phase timers of the e16 and e17 tiers, by tier.
    engine: Vec<(&'static str, PhaseTimings)>,
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

    /// Runs a healing tier through [`repeat_median`] with the traffic
    /// profile and the round engine's phase timers on, and records it:
    /// [`Bench::record`] with the runs' profile, plus the per-phase median
    /// of the timers over the repeats. Returns the last run's outcome.
    fn healing_tier<T: PartialEq + std::fmt::Debug>(
        &mut self,
        name: &'static str,
        mut run: impl FnMut(Observe) -> (T, ObservedRuns),
        metrics: impl Fn(&T) -> &Metrics,
    ) -> T {
        let mut samples = Vec::new();
        let ((out, runs), wall) = repeat_median(name, || {
            let t0 = Instant::now();
            let (out, runs) = run(Observe {
                profile: Some(ProfileConfig::default()),
                phases: true,
                ..Observe::default()
            });
            let wall = t0.elapsed();
            samples.push(runs.phases.clone().expect("phase timers on"));
            (wall, (out, runs))
        });
        self.record(name, metrics(&out), runs.profile.as_ref(), wall);
        let phases = median_phases(&samples);
        self.report
            .phase_timings(&format!("engine_{name}"), &phases);
        self.engine.push((name, phases));
        out
    }
}

/// The per-label median of `samples`, which time the same labels.
fn median_phases(samples: &[PhaseTimings]) -> PhaseTimings {
    let mut median = PhaseTimings::new();
    for &(label, _) in samples[0].entries() {
        let mut ns: Vec<u64> = samples.iter().map(|t| t.nanos(label)).collect();
        ns.sort_unstable();
        median.record_nanos(label, ns[ns.len() / 2]);
    }
    median
}

fn main() {
    let stem = std::env::args()
        .nth(1)
        .unwrap_or_else(|| format!("BENCH_{}", git_describe()));
    let mut bench = Bench {
        report: Report::new(&stem),
        wall: PhaseTimings::new(),
        throughput: PhaseTimings::new(),
        engine: Vec::new(),
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
    for (name, n) in [("e1_mst_n256", 256), ("e1_mst_n1024", 1024)] {
        boruvka_tier(&mut bench, name, expander(n, 6, 1), profile_cfg);
    }

    // e2 build: E2's n = 256 hierarchy build (§3.1, once per network),
    // repeated; its build rounds are gated exactly. The routing and paper
    // MST tiers below reuse the network and its system.
    let n = 256usize;
    let g = expander(n, 6, 1);
    let levels = scaled_levels(g.volume(), 4);
    let build = || {
        System::builder(&g)
            .seed(1)
            .beta(4)
            .levels(levels)
            .build()
            .expect("expander")
    };
    let (build_rounds, wall) = repeat_median("e2_build_n256", || {
        let t0 = Instant::now();
        let sys = build();
        (t0.elapsed(), sys.build_rounds())
    });
    let metrics = Metrics {
        rounds: build_rounds,
        ..Metrics::default()
    };
    bench.record("e2_build_n256", &metrics, None, wall);
    let sys = build();

    // e2 routing, hierarchical: the canonical permutation on that network.
    {
        let reqs = canonical_permutation(n);
        let (out, wall) = repeat_median("e2_route_hierarchy_n256", || {
            let t0 = Instant::now();
            let out = sys.route(&reqs, 2).expect("routable");
            (t0.elapsed(), out)
        });
        assert_eq!(out.delivered, reqs.len(), "e2: every packet must arrive");
        // The hierarchy prices rounds by emulation (no simulator run, so no
        // message metrics or profile); rounds is the regression-gated value.
        let metrics = Metrics {
            rounds: out.total_base_rounds,
            ..Metrics::default()
        };
        bench.record("e2_route_hierarchy_n256", &metrics, None, wall);
    }

    // e2 endpoint walks: the router's preparation walk in isolation, one
    // τ_mix-step lazy walk from every node of the same network through the
    // endpoint-only engine call.
    {
        let starts: Vec<NodeId> = g.nodes().collect();
        let tau = sys.hierarchy().cfg().tau_mix;
        let (ends, wall) = repeat_median("e2_walk_ends_n256", || {
            let mut rng = StdRng::seed_from_u64(7);
            let t0 = Instant::now();
            let ends = run_walk_ends(&g, WalkKind::Lazy, &starts, tau, &mut rng);
            (t0.elapsed(), ends)
        });
        let metrics = Metrics {
            rounds: ends.rounds,
            messages: ends.traversals,
            ..Metrics::default()
        };
        bench.record("e2_walk_ends_n256", &metrics, None, wall);
    }

    // Paper MST: System::mst with exact pricing, as E1 runs it at n = 256.
    // Rounds are gated exactly, like the hierarchical routing tier's; the
    // wall split printed below is the last run's.
    let mst_split = {
        let mut rng = StdRng::seed_from_u64(2);
        let wg = WeightedGraph::with_random_weights(g.clone(), 1_000_000, &mut rng);
        let (out, wall) = repeat_median("amt_mst_n256", || {
            let t0 = Instant::now();
            let out = sys.mst(&wg, 3).expect("connected");
            (t0.elapsed(), out)
        });
        let metrics = Metrics {
            rounds: out.rounds,
            ..Metrics::default()
        };
        bench.record("amt_mst_n256", &metrics, None, wall);
        let ms = |label| format!("{:.1}", out.wall.nanos(label) as f64 * 1e-6);
        vec![
            "amt_mst_n256".to_string(),
            out.routing_instances.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            ms("plan"),
            ms("prep"),
            ms("price"),
            ms("priced"),
        ]
    };

    // e2 routing, simulator-executed: bit-fix on the dim-8 hypercube.
    bitfix_tier(&mut bench, "e2_route_bitfix_dim8", 8, profile_cfg);

    // e2 walk engine: the hierarchy build's walk phase in isolation at
    // n = 4096 — the Lemma 2.5 workload (`k·d(v)` walks per node) through
    // the batched engine, plus the reverse and kept-subset replays the
    // embedding pays for (level0's `2·rounds + replay(kept)` pattern).
    // Full builds at this size take minutes; the walk phase alone is what
    // the engine refactors move, so it is what the gate pins.
    {
        let g = expander(4096, 6, 1);
        let specs = amt_core::walks::parallel::degree_proportional_specs(&g, 2, 64);
        let kept: Vec<usize> = (0..specs.len()).step_by(3).collect();
        let (metrics, wall) = repeat_median("e2_walk_phase_n4096", || {
            let mut rng = StdRng::seed_from_u64(7);
            let t0 = Instant::now();
            let run =
                amt_core::walks::parallel::run_parallel_walks(&g, WalkKind::Lazy, &specs, &mut rng);
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
            (wall, metrics)
        });
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
        boruvka_tier(&mut bench, name, g, None);
    }

    // Large routing: the full `i → 5i+3 mod n` permutation, bit-fixed on
    // the dim-17 (and, under XL, dim-20) hypercube — one packet per node.
    let mut route_tiers: Vec<(&'static str, u32)> = vec![("e2_route_bitfix_dim17", 17)];
    if xl {
        route_tiers.push(("e2_route_bitfix_dim20", 20));
    }
    for (name, dim) in route_tiers {
        bitfix_tier(&mut bench, name, dim, None);
    }

    // e16 faulty walk: the e16 repeat-run configuration.
    {
        let g = expander(1024, 8, 16);
        let n = g.len();
        let specs = walk_specs(256, n);
        let plan = e16_fault_plan(0.05, 2, n, 11 ^ (2u64) << 8);
        bench.healing_tier(
            "e16_faulty_walk",
            |observe| {
                run_walks_healing_observed(
                    &g,
                    WalkKind::Lazy,
                    &specs,
                    11,
                    plan.clone(),
                    ChurnPlan::none(),
                    observe,
                )
                .expect("valid plan")
            },
            |out| &out.metrics,
        );
    }

    // e17 churn tier: the pinned flap + crash-restart schedule. Every
    // counter *and* the recovery timeline are deterministic, so the gate
    // pins reconvergence behaviour, not just message counts.

    // e17 churned walks: flapping links + one restarting node.
    {
        let g = expander(1024, 8, 16);
        let n = g.len();
        let specs = walk_specs(128, n);
        let plan = FaultPlan::none().seeded(21).with_drops(0.01);
        let churn = ChurnPlan::none()
            .seeded(21)
            .with_flaps(0.05, 4)
            .with_restart(NodeId(7), 6, 5);
        let out = bench.healing_tier(
            "e17_churned_walk",
            |observe| {
                run_walks_healing_observed(
                    &g,
                    WalkKind::Lazy,
                    &specs,
                    21,
                    plan.clone(),
                    churn.clone(),
                    observe,
                )
                .expect("valid plans")
            },
            |out| &out.metrics,
        );
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
        let out = bench.healing_tier(
            "e17_churned_mst",
            |observe| {
                run_healing_observed(&wg, 17, plan.clone(), churn.clone(), observe)
                    .expect("survivors stay connected")
            },
            |out| &out.metrics,
        );
        bench.report.recovery("e17_churned_mst", &out.timeline);
    }

    // e17 churned routing: bit-fix on the dim-8 hypercube with flapping
    // links and a restarting node; lost packets re-inject across epochs.
    {
        let dim = 8u32;
        let n = 1usize << dim;
        let g = generators::hypercube(dim);
        let reqs = canonical_permutation(n);
        let churn = ChurnPlan::none()
            .seeded(17)
            .with_flaps(0.05, 3)
            .with_restart(NodeId(6), 1, 4);
        let out = bench.healing_tier(
            "e17_churned_route",
            |observe| {
                route_bitfix_observed(&g, &reqs, 12, churn.clone(), observe).expect("hypercube")
            },
            |out| &out.metrics,
        );
        assert!(
            !out.degraded(),
            "e17: flaps alone never isolate a destination for good"
        );
        bench.report.recovery("e17_churned_route", &out.timeline);
    }

    scaling_tier(&mut bench);

    println!("\n## Paper MST tier (median wall of three identical runs, last run's split)\n");
    bench.report.section("paper MST wall split");
    bench.report.header(&[
        "bench",
        "instances",
        "wall_ms",
        "plan_ms",
        "prep_ms",
        "price_ms",
        "priced_ms",
    ]);
    bench.report.row(&mst_split);
    println!(
        "\n(plan: the Borůvka loop, prep included; price: the pricing left when\n\
         the loop ends; priced: pricing time summed over all workers)"
    );

    println!("\n## Round-engine phases of the healing tiers (median over the repeats, ms)\n");
    bench.report.section("round-engine phases");
    bench.report.header(&[
        "bench", "topology", "activate", "step", "merge", "group", "total",
    ]);
    let ms = |ns: u64| format!("{:.2}", ns as f64 * 1e-6);
    for (name, t) in std::mem::take(&mut bench.engine) {
        let mut row = vec![name.to_string()];
        row.extend(t.entries().iter().map(|&(_, ns)| ms(ns)));
        row.push(ms(t.total_nanos()));
        bench.report.row(&row);
    }
    println!("\n(each phase is its median over the tier's repeats; total is their sum)");
    finish(bench);
}

fn finish(bench: Bench) {
    let Bench {
        mut report,
        wall,
        throughput,
        ..
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

/// One scaling run with profiling and the trace on: its wall, and its
/// metrics, node digests, profile and trace.
fn scale_run(g: &Graph) -> (Duration, (Metrics, Vec<u64>, TrafficProfile, RunTrace)) {
    let mut sim = Simulator::new(g, scale_fleet(g.len()), 77)
        .expect("fleet size matches")
        .with_observe(Observe {
            profile: Some(ProfileConfig::default()),
            // The tier gates the trace's folds (work totals and high-water
            // marks), not its per-round series.
            trace: Some(TraceConfig::default()),
            ..Observe::default()
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
    (wall, (metrics, digests, profile, trace))
}

/// The scaling tier: three pinned 2048-node instances, each repeated (and
/// asserted identical) like the other short tiers. The metrics, profile
/// and trace folds enter the gated report sections, with the median wall.
fn scaling_tier(bench: &mut Bench) {
    for (name, g) in &scaling_instances() {
        let ((metrics, _, profile, trace), wall) = repeat_median(name, || scale_run(g));
        bench.record(name, &metrics, Some(&profile), wall);
        bench.report.trace(name, &trace);
    }
}
