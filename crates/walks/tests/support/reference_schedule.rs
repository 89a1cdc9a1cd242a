//! The original store-and-forward scheduler, kept only as a test oracle for
//! `amt_walks::PathScheduler`: `HashMap`-backed `VecDeque` queues per key, a
//! `HashMap` of congestion counters, and one `Vec` per schedule round.
//!
//! Include it with `#[path]` from a module that has `PathRouteStats` in
//! scope.

use super::PathRouteStats;
use std::collections::{HashMap, VecDeque};

/// The FIFO store-and-forward schedule of `paths` under per-key
/// `capacity`: its stats and, per round, the keys crossed in service order.
pub fn route_paths_schedule(paths: &[Vec<u64>], capacity: u32) -> (PathRouteStats, Vec<Vec<u64>>) {
    assert!(capacity > 0, "capacity must be positive");
    let mut queues: HashMap<u64, VecDeque<u32>> = HashMap::new();
    let mut congestion: HashMap<u64, u64> = HashMap::new();
    let mut pos: Vec<u32> = vec![0; paths.len()];
    let mut remaining = 0usize;
    for (i, p) in paths.iter().enumerate() {
        if !p.is_empty() {
            queues.entry(p[0]).or_default().push_back(i as u32);
            remaining += 1;
        }
        for &k in p {
            *congestion.entry(k).or_insert(0) += 1;
        }
    }
    let mut active: Vec<u64> = queues.keys().copied().collect();
    active.sort_unstable();
    let mut rounds = 0u64;
    let mut traversals = 0u64;
    let mut arrivals: Vec<(u64, u32)> = Vec::new();
    let mut schedule: Vec<Vec<u64>> = Vec::new();
    while remaining > 0 {
        rounds += 1;
        arrivals.clear();
        let mut crossed: Vec<u64> = Vec::new();
        let mut next_active: Vec<u64> = Vec::with_capacity(active.len());
        for &key in &active {
            let q = queues.get_mut(&key).expect("active key has a queue");
            for _ in 0..capacity {
                let Some(tok) = q.pop_front() else { break };
                traversals += 1;
                crossed.push(key);
                let p = &paths[tok as usize];
                pos[tok as usize] += 1;
                let at = pos[tok as usize] as usize;
                if at >= p.len() {
                    remaining -= 1;
                } else {
                    arrivals.push((p[at], tok));
                }
            }
            if !q.is_empty() {
                next_active.push(key);
            }
        }
        for &(key, tok) in &arrivals {
            let q = queues.entry(key).or_default();
            if q.is_empty() && !next_active.contains(&key) {
                next_active.push(key);
            }
            q.push_back(tok);
        }
        next_active.sort_unstable();
        next_active.dedup();
        active = next_active;
        schedule.push(crossed);
    }
    (
        PathRouteStats {
            rounds,
            traversals,
            max_key_congestion: congestion.values().copied().max().unwrap_or(0),
        },
        schedule,
    )
}
