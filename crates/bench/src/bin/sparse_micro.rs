//! Sparse-phase microbenchmark: active-set engine vs full-sweep reference.
//!
//! One courier token hops around a 100 000-node ring for ~2000 rounds, so
//! at any instant exactly one node has mail — activity is 0.001% of the
//! network. The full-sweep reference still steps all 100 000 nodes every
//! round (the O(n · rounds) bug ROADMAP item 1 names); the active-set
//! engine steps only the courier's current holder, making the round loop
//! cost O(activity). Both runs must produce byte-identical [`Metrics`],
//! and the sparse run must be at least 10× faster — asserted, so the CI
//! step that runs this binary is itself a regression gate on the engine.

use amt_core::congest::{Ctx, Metrics, Protocol, RunConfig, Simulator};
use amt_core::prelude::*;
use std::time::{Duration, Instant};

const RING: usize = 100_000;
const HOPS: u32 = 2_000;

/// Forwards a hop-counted token in its direction of travel. A node with an
/// empty inbox does nothing at all — no RNG draws, no sends, no state —
/// so the protocol is skip-safe and opts into the active-set engine.
struct Courier;

impl Protocol for Courier {
    type Message = u32;

    const SPARSE_AWARE: bool = true;

    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        if ctx.node() == NodeId(0) {
            ctx.send(0, HOPS);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
        for &(port, hops) in inbox {
            if hops > 0 {
                // Keep travelling away from the sender: out the other port.
                ctx.send(1 - port, hops - 1);
            }
        }
    }
}

fn run(full_sweep: bool) -> (Metrics, Duration) {
    let g = generators::ring(RING);
    let mut sim = Simulator::new(&g, (0..RING).map(|_| Courier).collect(), 1).unwrap();
    let cfg = RunConfig::default().with_full_sweep(full_sweep);
    let t0 = Instant::now();
    let metrics = sim.run(&cfg).unwrap();
    (metrics, t0.elapsed())
}

fn main() {
    println!("# sparse_micro — 1 courier token, ring n = {RING}, {HOPS} hops\n");
    let (sparse, sparse_wall) = run(false);
    let (full, full_wall) = run(true);
    assert_eq!(
        sparse, full,
        "active-set engine must be byte-identical to the full sweep"
    );
    assert_eq!(sparse.messages, u64::from(HOPS) + 1, "one message per hop");

    let rps = |m: &Metrics, w: Duration| m.rounds as f64 / w.as_secs_f64();
    println!(
        "full sweep : {:>8.1} ms  ({:>12.0} rounds/s)",
        full_wall.as_secs_f64() * 1e3,
        rps(&full, full_wall)
    );
    println!(
        "active set : {:>8.1} ms  ({:>12.0} rounds/s)",
        sparse_wall.as_secs_f64() * 1e3,
        rps(&sparse, sparse_wall)
    );
    let speedup = full_wall.as_secs_f64() / sparse_wall.as_secs_f64();
    println!("speedup    : {speedup:>8.1}x  (metrics byte-identical)");
    assert!(
        speedup >= 10.0,
        "expected >= 10x on 0.001% activity, got {speedup:.1}x"
    );
}
