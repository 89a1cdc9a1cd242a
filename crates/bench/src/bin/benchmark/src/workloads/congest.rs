//! Protocols executed in the CONGEST simulator: Borůvka and bit-fix routing
//! under dense traffic (`congest_sim` on two simulator threads,
//! `congest_sim_t1` on one), and their self-healing variants
//! under faults and topology churn with observability on (`congest_faulty`).
//!
//! Set-up builds the networks; each base operation draws its weights,
//! requests, walk starts and plans from its own seed stream.

use super::{permutation, Harness, SETUP_GROUP};
use crate::stats;
use amt_core::congest::{
    class, ChurnPlan, FaultPlan, Metrics, ProfileConfig, TraceConfig, TrafficProfile,
};
use amt_core::graphs::{generators, EdgeId, Graph, NodeId, WeightedGraph};
use amt_core::mst::{congest_boruvka, healing as mst_healing, reference};
use amt_core::routing::{route_bitfix_churned_instrumented, route_bitfix_instrumented};
use amt_core::walks::healing::run_walks_healing_churned_instrumented;
use amt_core::walks::{WalkKind, WalkSpec};
use rand::RngExt;
use std::time::{Duration, Instant};

const GRAPH: u64 = 11;
const WEIGHTS: u64 = 12;
const REQUESTS: u64 = 13;
const STARTS: u64 = 14;
const PLANS: u64 = 15;

/// Repeats `make` [`SETUP_GROUP`] times, timing each, and keeps the last
/// result.
fn setup<T>(h: &mut Harness, mut make: impl FnMut(&Harness) -> T) -> T {
    let mut kept = None;
    for k in 0..SETUP_GROUP {
        // One result alive at a time, so peak RSS counts a single set-up.
        drop(kept.take());
        let span = h.tr.enter("setup", k as u64);
        let started = Instant::now();
        kept = Some(std::hint::black_box(make(h)));
        h.setup_done(started.elapsed());
        h.tr.exit(span);
    }
    kept.expect("at least one set-up")
}

/// One `congest_sim` operation's inputs.
struct SimInputs {
    wg: WeightedGraph,
    reqs: Vec<(NodeId, NodeId)>,
}

fn sim_inputs(h: &Harness, g: &Graph, i: u64) -> SimInputs {
    SimInputs {
        wg: WeightedGraph::with_random_weights(g.clone(), 1_000_000, &mut h.rng(WEIGHTS, i)),
        reqs: permutation(g.len(), &mut h.rng(REQUESTS, i)),
    }
}

/// One `congest_sim` operation's outcome.
#[derive(PartialEq)]
struct SimOp {
    tree: Vec<EdgeId>,
    mst_rounds: u64,
    mst_messages: u64,
    route: Metrics,
}

/// Times `a` and `b` alternately, [`PROBE_REPEATS`] times each, and returns
/// the median seconds of each, so host drift during a probe reaches both
/// sides alike. `None` when a run failed.
fn alternate(
    h: &mut Harness,
    mut a: impl FnMut(&mut Harness) -> Option<Duration>,
    mut b: impl FnMut(&mut Harness) -> Option<Duration>,
) -> Option<(f64, f64)> {
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPEATS {
        sa.push(a(h)?.as_secs_f64());
        sb.push(b(h)?.as_secs_f64());
    }
    Some((stats::median(&sa), stats::median(&sb)))
}

/// Runs of each side in a ratio probe.
const PROBE_REPEATS: usize = 3;

/// Borůvka on the dim-13 hypercube plus bit-fix routing of a random
/// permutation on it, observers off, on the harness's simulator threads.
pub fn congest_sim(h: &mut Harness) {
    let (dim, base) = if h.cfg.smoke { (10, 1) } else { (13, 20) };
    let threads = h.threads;
    let make = |_: &Harness| generators::hypercube(dim);
    let g = setup(h, make);
    let mut first: Option<SimOp> = None;
    let (mut rounds, mut messages, mut sim_s) = (0u64, 0u64, 0.0);
    let (mut candidate, mut merge, mut label) = (0u64, 0u64, 0u64);
    let mut i = 0;
    while h.more(i, base) {
        let op = h.tr.enter("op", i as u64);
        let k = (i % base) as u64;
        let inp = sim_inputs(h, &g, k);
        if let Some((result, took, walls)) = sim_op(h, &g, &inp, k, threads) {
            h.op_done(took);
            h.outcome(
                i,
                base,
                vec![
                    inp.wg.total_weight(&result.tree),
                    result.mst_rounds,
                    result.mst_messages,
                    result.route.rounds,
                    result.route.messages,
                ],
            );
            if i < base {
                rounds += result.mst_rounds + result.route.rounds;
                messages += result.mst_messages + result.route.messages;
                sim_s += took.as_secs_f64();
                candidate += walls[0];
                merge += walls[1];
                label += walls[2];
            }
            if i == 0 {
                first = Some(result);
            }
        }
        h.tr.exit(op);
        drop(inp);
        if h.setup_due(i, base) {
            setup(h, make);
        }
        i += 1;
    }
    if h.cfg.trace {
        let l = &mut h.layer;
        l.set("mst.boruvka.candidate_flood_s", candidate as f64 * 1e-9);
        l.set("mst.boruvka.merge_s", merge as f64 * 1e-9);
        l.set("mst.boruvka.label_flood_s", label as f64 * 1e-9);
        set_congest(l, rounds, messages, sim_s);
    }
    // Thread coordination: operation 0 again at two threads and at one,
    // alternately; each run must reproduce operation 0.
    if let (true, 2, Some(first)) = (h.cfg.trace, threads, &first) {
        let inp = sim_inputs(h, &g, 0);
        let probe = h.tr.enter("probe.threads", 0);
        let run = |h: &mut Harness, threads: usize| {
            let (op, took, _) = sim_op(h, &g, &inp, 0, threads)?;
            h.check(op == *first, || {
                format!("threads = {threads} rerun of op 0 differs from op 0")
            });
            Some(took)
        };
        if let Some((two, one)) = alternate(h, |h| run(h, 2), |h| run(h, 1)) {
            h.layer.set("congest.threads1_wall_s", one);
            h.layer.set("congest.threads2_over_1", two / one);
        }
        h.tr.exit(probe);
    }
}

/// Runs one Borůvka + bit-fix pair and checks it; `None` (after recording
/// the failure) when either call errs.
fn sim_op(
    h: &mut Harness,
    g: &Graph,
    inp: &SimInputs,
    i: u64,
    threads: usize,
) -> Option<(SimOp, Duration, [u64; 3])> {
    let seed = h.sub_seed(WEIGHTS, i);
    let (mst, mst_took) = h.timed("congest_boruvka.run_instrumented", i, || {
        congest_boruvka::run_instrumented(&inp.wg, seed, threads, None)
    });
    let (route, route_took) = h.timed("routing.route_bitfix_instrumented", i, || {
        route_bitfix_instrumented(g, &inp.reqs, seed, threads, None)
    });
    let (mst, route) = match (mst, route) {
        (Ok((mst, _)), Ok((route, _))) => (mst, route),
        (Err(e), _) => {
            h.check(false, || format!("op {i}: Borůvka failed: {e}"));
            return None;
        }
        (_, Err(e)) => {
            h.check(false, || format!("op {i}: bit-fix failed: {e}"));
            return None;
        }
    };
    let (ok, _) = h.timed("reference.verify_mst", i, || {
        reference::verify_mst(&inp.wg, &mst.tree_edges)
    });
    h.check(ok, || format!("op {i}: Borůvka tree differs from Kruskal"));
    let delivered = route
        .endpoints
        .iter()
        .zip(&inp.reqs)
        .all(|(&at, &(_, dest))| at == dest);
    h.check(delivered, || format!("op {i}: bit-fix misdelivered"));
    let walls = [
        mst.wall.nanos("candidate_flood"),
        mst.wall.nanos("merge"),
        mst.wall.nanos("label_flood"),
    ];
    let op = SimOp {
        tree: mst.tree_edges,
        mst_rounds: mst.rounds,
        mst_messages: mst.messages,
        route: route.metrics,
    };
    Some((op, mst_took + route_took, walls))
}

/// Round-engine throughput over the base set.
fn set_congest(l: &mut crate::metrics::Values, rounds: u64, messages: u64, sim_s: f64) {
    l.set("congest.rounds", rounds as f64);
    l.set("congest.messages", messages as f64);
    l.set(
        "congest.ns_per_message",
        1e9 * sim_s / messages.max(1) as f64,
    );
    l.set("congest.us_per_round", 1e6 * sim_s / rounds.max(1) as f64);
}

/// The two networks of `congest_faulty`.
struct Networks {
    expander: Graph,
    cube: Graph,
}

/// One `congest_faulty` operation's inputs.
struct FaultyInputs {
    wg: WeightedGraph,
    reqs: Vec<(NodeId, NodeId)>,
    specs: Vec<WalkSpec>,
    plan: FaultPlan,
    churn: ChurnPlan,
    cube_churn: ChurnPlan,
}

fn faulty_inputs(h: &Harness, nets: &Networks, walks: usize, i: u64) -> FaultyInputs {
    let n = nets.expander.len() as u32;
    let mut starts = h.rng(STARTS, i);
    // The first walks all start at the node that restarts in round 2, so
    // the restart forces walk re-issues as well as a Borůvka phase restart.
    let restart = NodeId(starts.random_range(0..n));
    let specs: Vec<WalkSpec> = (0..walks)
        .map(|w| WalkSpec {
            start: if w < 16 {
                restart
            } else {
                NodeId(starts.random_range(0..n))
            },
            steps: 32,
        })
        .collect();
    let reqs = permutation(nets.cube.len(), &mut h.rng(REQUESTS, i));
    let plans = h.sub_seed(PLANS, i);
    FaultyInputs {
        wg: WeightedGraph::with_random_weights(nets.expander.clone(), 1000, &mut h.rng(WEIGHTS, i)),
        plan: FaultPlan::none().seeded(plans).with_drops(0.01),
        churn: ChurnPlan::none()
            .seeded(plans)
            .with_flaps(0.05, 4)
            .with_restart(restart, 2, 5),
        cube_churn: ChurnPlan::none()
            .seeded(plans ^ 1)
            .with_flaps(0.05, 3)
            .with_restart(reqs[0].0, 1, 4),
        reqs,
        specs,
    }
}

/// Everything one `congest_faulty` operation produced.
struct FaultyOp {
    digest: Vec<u64>,
    metrics: [Metrics; 3],
    restarts: u64,
    reissued: u64,
    profiles: Vec<TrafficProfile>,
}

/// Traffic classes that carry no protocol progress: acknowledgements,
/// custody transfers and retransmissions.
const OVERHEAD_CLASSES: [&str; 4] = [
    class::REL_ACK,
    class::REL_RETRANSMIT,
    class::WALK_CUSTODY,
    class::WALK_RETRANSMIT,
];

/// Healing Borůvka on an n = 1024 expander, churned healing walks on the
/// same graph, and churned bit-fix on the dim-10 hypercube — one thread,
/// program trace and traffic profile on.
pub fn congest_faulty(h: &mut Harness) {
    let (n, dim, walks, base) = if h.cfg.smoke {
        (1024, 10, 512, 1)
    } else {
        (1024, 10, 512, 32)
    };
    let make = |h: &Harness| Networks {
        expander: generators::random_regular(n, 6, &mut h.rng(GRAPH, 0))
            .expect("6-regular graph on even n"),
        cube: generators::hypercube(dim),
    };
    let nets = setup(h, make);
    let mut first: Option<Vec<u64>> = None;
    let mut sum = Metrics::default();
    let (mut restarts, mut reissued) = (0u64, 0u64);
    let (mut useful, mut all, mut sim_s) = (0u64, 0u64, 0.0);
    let mut i = 0;
    while h.more(i, base) {
        let span = h.tr.enter("op", i as u64);
        let k = (i % base) as u64;
        let inp = faulty_inputs(h, &nets, walks, k);
        if let Some((op, took)) = faulty_op(h, &nets, &inp, k, true) {
            h.op_done(took);
            h.outcome(i, base, op.digest.clone());
            if i < base {
                sum = op.metrics.iter().fold(sum, |s, &m| s.then(m));
                restarts += op.restarts;
                reissued += op.reissued;
                sim_s += took.as_secs_f64();
                for p in &op.profiles {
                    let overhead: u64 = OVERHEAD_CLASSES
                        .iter()
                        .filter_map(|c| p.stats(c))
                        .map(|s| s.messages)
                        .sum();
                    all += p.total_messages();
                    useful += p.total_messages() - overhead;
                }
            }
            if i == 0 {
                first = Some(op.digest);
            }
        }
        h.tr.exit(span);
        drop(inp);
        if h.setup_due(i, base) {
            setup(h, make);
        }
        i += 1;
    }
    if h.cfg.trace {
        let l = &mut h.layer;
        set_congest(l, sum.rounds, sum.messages, sim_s);
        l.set("congest.dropped", sum.dropped as f64);
        l.set("congest.lost_to_churn", sum.lost_to_churn as f64);
        l.set("mst.healing.phase_restarts", restarts as f64);
        l.set("walks.healing.reissued", reissued as f64);
        l.set("healing.useful_ratio", useful as f64 / all.max(1) as f64);
    }
    // Observability cost: operation 0 again with trace and profile on and
    // off, alternately; each run must reproduce operation 0.
    if let (true, Some(first)) = (h.cfg.trace, &first) {
        let inp = faulty_inputs(h, &nets, walks, 0);
        let probe = h.tr.enter("probe.observe", 0);
        let run = |h: &mut Harness, observe: bool| {
            let (op, took) = faulty_op(h, &nets, &inp, 0, observe)?;
            h.check(op.digest == *first, || {
                format!("op 0 rerun with observers {observe} differs from op 0")
            });
            Some(took)
        };
        if let Some((on, off)) = alternate(h, |h| run(h, true), |h| run(h, false)) {
            h.layer.set("observe.overhead_ratio", on / off);
        }
        h.tr.exit(probe);
    }
}

/// Runs the three healing protocols once and checks them; `None` (after
/// recording the failure) when a call errs.
fn faulty_op(
    h: &mut Harness,
    nets: &Networks,
    inp: &FaultyInputs,
    i: u64,
    observe: bool,
) -> Option<(FaultyOp, Duration)> {
    let seed = h.sub_seed(PLANS, i);
    let trace = observe.then(TraceConfig::default);
    let profile = observe.then(ProfileConfig::default);
    let (mst, t_mst) = h.timed("mst.healing.run_healing_churned_instrumented", i, || {
        mst_healing::run_healing_churned_instrumented(
            &inp.wg,
            seed,
            inp.plan.clone(),
            inp.churn.clone(),
            1,
            trace,
            profile,
        )
    });
    let (walks, t_walks) = h.timed(
        "walks.healing.run_walks_healing_churned_instrumented",
        i,
        || {
            run_walks_healing_churned_instrumented(
                &nets.expander,
                WalkKind::Lazy,
                &inp.specs,
                seed,
                inp.plan.clone(),
                inp.churn.clone(),
                1,
                trace,
                profile,
            )
        },
    );
    let (route, t_route) = h.timed("routing.route_bitfix_churned_instrumented", i, || {
        route_bitfix_churned_instrumented(
            &nets.cube,
            &inp.reqs,
            seed,
            inp.cube_churn.clone(),
            1,
            trace,
            profile,
        )
    });
    let ((mst, _, p_mst), (walks, _, p_walks), (route, _, p_route)) = match (mst, walks, route) {
        (Ok(m), Ok(w), Ok(r)) => (m, w, r),
        (m, w, r) => {
            let why = [
                m.err().map(|e| format!("healing Borůvka: {e}")),
                w.err().map(|e| format!("healing walks: {e}")),
                r.err().map(|e| format!("churned bit-fix: {e}")),
            ];
            h.check(false, || {
                format!(
                    "op {i}: {}",
                    why.into_iter().flatten().collect::<Vec<_>>().join("; ")
                )
            });
            return None;
        }
    };
    let (ok, _) = h.timed("reference.verify_mst", i, || {
        mst.crashed_nodes.is_empty() && reference::verify_mst(&inp.wg, &mst.tree_edges)
    });
    h.check(ok, || format!("op {i}: healed tree differs from Kruskal"));
    h.check(walks.endpoints.iter().all(Option::is_some), || {
        format!("op {i}: a healing walk did not finish")
    });
    let delivered = route.undelivered.is_empty()
        && route
            .endpoints
            .iter()
            .zip(&inp.reqs)
            .all(|(&at, &(_, dest))| at == Some(dest));
    h.check(delivered, || {
        format!("op {i}: churned bit-fix left packets undelivered")
    });
    let digest = vec![
        mst.total_weight,
        mst.metrics.rounds,
        mst.metrics.messages,
        u64::from(mst.phase_restarts),
        mst.metrics.dropped,
        mst.metrics.lost_to_churn,
        walks.metrics.rounds,
        walks.metrics.messages,
        walks.reissued,
        u64::from(walks.epochs),
        route.metrics.rounds,
        route.metrics.messages,
        u64::from(route.epochs),
    ];
    let op = FaultyOp {
        digest,
        metrics: [mst.metrics, walks.metrics, route.metrics],
        restarts: u64::from(mst.phase_restarts),
        reissued: walks.reissued,
        profiles: [p_mst, p_walks, p_route].into_iter().flatten().collect(),
    };
    Some((op, t_mst + t_walks + t_route))
}
