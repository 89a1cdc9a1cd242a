//! Routing *on* the congested clique: direct vs two-phase
//! (Valiant/Lenzen-style) delivery.
//!
//! When the base graph is the complete graph (the congested-clique model
//! the paper's Theorem 1.3 emulates), any routing instance with per-node
//! load `≤ c·n` can be delivered in `O(c)` rounds by relaying through
//! balanced intermediates — Lenzen's routing theorem \[50\] makes this
//! deterministic; here we implement the classical randomized/round-robin
//! variant and measure its schedule. Skewed instances show the point: a
//! single hot pair costs `k` rounds directly but `≈ 2k/n` via relays.
//!
//! This gives the experiments an *in-model* reference for what the
//! hierarchical emulation is aiming to reproduce on a general graph.

use amt_graphs::NodeId;
use amt_walks::{route_paths, PathRouteStats};

fn key(n: usize, from: u32, to: u32) -> u64 {
    from as u64 * n as u64 + to as u64
}

/// Delivers every request over its direct clique edge; rounds equal the
/// maximum number of messages sharing one ordered pair.
pub fn clique_direct(n: usize, requests: &[(NodeId, NodeId)]) -> PathRouteStats {
    let paths: Vec<Vec<u64>> = requests
        .iter()
        .map(|&(s, t)| {
            if s == t {
                Vec::new()
            } else {
                vec![key(n, s.0, t.0)]
            }
        })
        .collect();
    route_paths(&paths, 1)
}

/// Two-phase delivery: message `i` from node `v` relays through the
/// intermediate `(v + i) mod n` (round-robin, so every source spreads its
/// traffic evenly), then on to its destination. The measured makespan is
/// `O(max-load/n)` on balanced-enough instances — Lenzen's guarantee shape.
pub fn clique_two_phase(n: usize, requests: &[(NodeId, NodeId)]) -> PathRouteStats {
    let mut per_source: Vec<u32> = vec![0; n];
    let paths: Vec<Vec<u64>> = requests
        .iter()
        .map(|&(s, t)| {
            if s == t {
                return Vec::new();
            }
            let i = per_source[s.index()];
            per_source[s.index()] += 1;
            let inter = (s.0 + 1 + (i % (n as u32 - 1))) % n as u32; // never s itself
            let mut p = Vec::with_capacity(2);
            if inter != s.0 {
                p.push(key(n, s.0, inter));
            }
            if inter != t.0 {
                p.push(key(n, inter, t.0));
            }
            p
        })
        .collect();
    route_paths(&paths, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_all_to_all_is_fast_both_ways() {
        let n = 16;
        let mut reqs = Vec::new();
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v {
                    reqs.push((NodeId(u), NodeId(v)));
                }
            }
        }
        let direct = clique_direct(n, &reqs);
        assert_eq!(direct.rounds, 1, "all-to-all is one clique round directly");
        let two = clique_two_phase(n, &reqs);
        assert!(two.rounds <= 6, "two-phase stays O(1): {}", two.rounds);
    }

    #[test]
    fn hot_pair_shows_the_relay_win() {
        // One source sends k messages to one destination.
        let n = 32;
        let k = 64;
        let reqs: Vec<_> = (0..k).map(|_| (NodeId(0), NodeId(9))).collect();
        let direct = clique_direct(n, &reqs);
        assert_eq!(direct.rounds, k as u64, "direct serializes the hot pair");
        let two = clique_two_phase(n, &reqs);
        assert!(
            two.rounds <= 2 * (k as u64).div_ceil(n as u64 - 1) + 4,
            "two-phase must spread: {} rounds",
            two.rounds
        );
        assert!(two.rounds * 4 < direct.rounds);
    }

    #[test]
    fn self_requests_are_free() {
        let n = 8;
        let reqs = vec![(NodeId(3), NodeId(3)); 10];
        assert_eq!(clique_direct(n, &reqs).rounds, 0);
        assert_eq!(clique_two_phase(n, &reqs).rounds, 0);
    }

    #[test]
    fn per_node_load_bounds_hold() {
        // Each node sends to random-ish distinct targets with multiplicity 4:
        // both schemes finish in O(multiplicity) rounds.
        let n = 24;
        let mut reqs = Vec::new();
        for u in 0..n as u32 {
            for r in 1..=4u32 {
                reqs.push((NodeId(u), NodeId((u + r * 5) % n as u32)));
            }
        }
        let direct = clique_direct(n, &reqs);
        let two = clique_two_phase(n, &reqs);
        assert!(direct.rounds <= 4);
        assert!(two.rounds <= 10, "two-phase {}", two.rounds);
    }

    #[test]
    fn intermediates_never_loop_on_source() {
        // The relay choice must avoid inter == s (a wasted hop key of the
        // form (s, s) would be a self-message).
        let n = 4;
        let reqs: Vec<_> = (0..12).map(|i| (NodeId(0), NodeId(1 + (i % 3)))).collect();
        let stats = clique_two_phase(n, &reqs);
        assert!(stats.rounds > 0);
        // Relays that happen to land on the destination skip the second
        // hop, so the crossings sit between 1× and 2× the message count.
        let live = reqs.iter().filter(|(s, t)| s != t).count() as u64;
        assert!(stats.traversals >= live && stats.traversals <= 2 * live);
    }
}
