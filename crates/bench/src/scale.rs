//! The scaling-tier workload shared by `bench_suite` (which gates its
//! counters) and `sim_health` (which analyzes its execution health).
//!
//! A `SPARSE_AWARE` mix of mail-driven random token forwarding (class
//! `scale/token`) and timer-driven beacon bursts (class `scale/beacon`).
//! Only a fraction of nodes is active in any round, so the workload
//! exercises the active-set round engine, whose cost tracks activity
//! rather than `n`.

use amt_core::congest::{Ctx, Protocol, TrafficClass};
use amt_core::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One node of the scaling-tier workload; see the module docs.
pub struct ScaleNode {
    beacons_left: u32,
    next_fire: u64,
    /// Order-sensitive digest of everything this node received — the
    /// cheapest observable that catches any delivery reordering.
    pub digest: u64,
}

impl Protocol for ScaleNode {
    type Message = u32;

    const SPARSE_AWARE: bool = true;
    const TRAFFIC_CLASS: TrafficClass = "scale/token";

    fn init(&mut self, ctx: &mut Ctx<'_, u32>) {
        // Chung–Lu instances may contain isolated nodes — they launch
        // nothing (and can never receive anything).
        let degree = ctx.degree();
        if ctx.node().index() % 5 == 0 && degree > 0 {
            let port = ctx.rng().random_range(0..degree);
            ctx.send(port, 12);
        }
        if self.beacons_left > 0 {
            self.next_fire = ctx.round() + 6;
            ctx.wake_in(6);
        }
    }

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(usize, u32)]) {
        let degree = ctx.degree();
        // (port, hops, is_beacon); beacons are staged last so a token wins
        // the one-message-per-port dedup deterministically.
        let mut staged: Vec<(usize, u32, bool)> = Vec::new();
        for &(port, hops) in inbox {
            self.digest = self
                .digest
                .wrapping_mul(1_000_003)
                .wrapping_add(((port as u64) << 32) | (u64::from(hops) + 1));
            if hops > 0 && ctx.rng().random_bool(0.8) {
                staged.push((ctx.rng().random_range(0..degree), hops - 1, false));
            }
        }
        if self.beacons_left > 0 && ctx.round() == self.next_fire {
            self.beacons_left -= 1;
            for port in 0..degree {
                staged.push((port, 3, true));
            }
            if self.beacons_left > 0 {
                self.next_fire = ctx.round() + 6;
                ctx.wake_in(6);
            }
        }
        staged.sort_by_key(|&(p, _, _)| p);
        staged.dedup_by_key(|&mut (p, _, _)| p);
        for (port, hops, beacon) in staged {
            if beacon {
                ctx.send_classed(port, hops, "scale/beacon");
            } else {
                ctx.send(port, hops);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.beacons_left == 0
    }
}

/// The pinned fleet: every 32nd node carries three beacon bursts.
pub fn scale_fleet(n: usize) -> Vec<ScaleNode> {
    (0..n)
        .map(|v| ScaleNode {
            beacons_left: if v % 32 == 0 { 3 } else { 0 },
            next_fire: 0,
            digest: 0,
        })
        .collect()
}

/// The dumbbell generator lays its two expander halves out contiguously
/// (ids `0..k` and `k..2k`). Interleaving the ids (`v < k → 2v`, else
/// `2(v−k)+1`) spreads both halves over the whole id range, so id order
/// says nothing about the sparse bridge cut and the active set of either
/// half is scattered across the engine's node arrays.
pub fn interleaved_dumbbell(k: usize, d: usize, bridges: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::dumbbell_expanders(k, d, bridges, &mut rng).expect("valid dumbbell");
    let relabel = |v: usize| if v < k { 2 * v } else { 2 * (v - k) + 1 };
    let mut b = GraphBuilder::new(2 * k);
    for (_, u, v) in g.edges() {
        b.add_edge(relabel(u.index()), relabel(v.index()));
    }
    b.build()
}

/// The three pinned 2048-node scaling-tier instances: random 6-regular
/// expander, id-interleaved dumbbell of two expander halves, heavy-tailed
/// Chung–Lu.
pub fn scaling_instances() -> Vec<(&'static str, Graph)> {
    let chung_lu = {
        let weights: Vec<f64> = (0..2048).map(|v| 8.0 / ((v + 1) as f64).sqrt()).collect();
        let mut rng = StdRng::seed_from_u64(6);
        generators::chung_lu(&weights, &mut rng).expect("valid weights")
    };
    vec![
        ("scale_expander_n2048", crate::expander(2048, 6, 1)),
        ("scale_dumbbell_n2048", interleaved_dumbbell(1024, 6, 4, 5)),
        ("scale_chunglu_n2048", chung_lu),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_pinned_and_sized() {
        let a = scaling_instances();
        let b = scaling_instances();
        assert_eq!(a.len(), 3);
        for ((name_a, g_a), (name_b, g_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            assert_eq!(g_a, g_b, "{name_a} not reproducible");
            assert_eq!(g_a.len(), 2048);
        }
    }

    #[test]
    fn fleet_terminates_deterministically() {
        let g = crate::expander(128, 4, 9);
        let mut sim = amt_core::congest::Simulator::new(&g, scale_fleet(g.len()), 77)
            .expect("fleet size matches");
        let m = sim
            .run(&amt_core::congest::RunConfig::all_done())
            .expect("terminates");
        assert!(m.rounds > 0 && m.messages > 0);
    }
}
