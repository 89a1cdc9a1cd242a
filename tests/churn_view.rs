//! The churned engine's topology view against the churn schedule
//! (`amt_congest::oracle::assert_churn_view_agrees`), on randomized plans,
//! and the integer flap threshold the view uses against the schedule's
//! floating-point test.

use amt_core::congest::oracle::{assert_churn_view_agrees, flap_threshold};
use amt_core::congest::ChurnPlan;
use amt_core::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The flap probabilities covered: the smallest nonzero value of a 53-bit
/// draw, small and large rates, one that is not a dyadic fraction, and
/// certainty.
const FLAP_PROBS: [f64; 5] = [1.0 / (1u64 << 53) as f64, 0.01, 0.05, 1.0 / 3.0, 1.0];

/// One randomized plan for every flap window 1–7 and every probability of
/// [`FLAP_PROBS`], each at an offset that is not a multiple of its window
/// (any offset for window 1), with one-shot outages, periodic outages and a
/// cut on flapping edges, two overlapping restarts of one node and a third
/// restart; the view must agree with the schedule in every round.
#[test]
fn churn_view_matches_the_schedule_on_random_plans() {
    let (n, m) = (12usize, 30usize);
    let mut rng = StdRng::seed_from_u64(0xC4A7);
    for flap_len in 1..=7u64 {
        for p in FLAP_PROBS {
            let offset = if flap_len == 1 {
                rng.random_range(0..50u64)
            } else {
                flap_len * rng.random_range(0..8u64) + rng.random_range(1..flap_len)
            };
            let node = NodeId(rng.random_range(0..n as u32));
            let down = offset + rng.random_range(0..20u64);
            let mut plan = ChurnPlan::none()
                .seeded(rng.random())
                .with_flaps(p, flap_len)
                .with_restart(node, down, 6)
                .with_restart(node, down + 3, 9)
                .with_restart(NodeId(rng.random_range(0..n as u32)), offset + 40, 5)
                .at_offset(offset);
            for _ in 0..3 {
                let edge = EdgeId(rng.random_range(0..m as u32));
                let first = offset + rng.random_range(0..60u64);
                plan = plan.with_edge_outage(edge, first, rng.random_range(1..12u64));
            }
            for _ in 0..2 {
                let edge = EdgeId(rng.random_range(0..m as u32));
                let period = rng.random_range(2..15u64);
                let first = rng.random_range(0..offset + 30);
                plan = plan.with_periodic_outage(edge, first, rng.random_range(1..period), period);
            }
            let edge = EdgeId(rng.random_range(0..m as u32));
            let plan = plan.with_edge_cut(edge, offset + rng.random_range(10..70u64));
            let events = assert_churn_view_agrees(&plan, n, m, 80);
            assert!(!events.is_empty(), "the plan must churn: {plan:?}");
        }
    }
}

/// The integer flap test is the float one: `(w >> 11) < flap_threshold(p)`
/// equals `(w >> 11) · 2^-53 < p` for the words just below, at and above
/// the threshold (with and without the low bits the test drops) and for
/// random words, at every probability of [`FLAP_PROBS`].
#[test]
fn flap_threshold_matches_the_float_comparison() {
    let unit = |w: u64| (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    assert_eq!(flap_threshold(0.0), 0);
    assert_eq!(flap_threshold(FLAP_PROBS[0]), 1);
    assert_eq!(flap_threshold(1.0), 1 << 53);
    let mut rng = StdRng::seed_from_u64(53);
    for p in FLAP_PROBS {
        let t = flap_threshold(p);
        let mut words: Vec<u64> = [t.wrapping_sub(1), t, t + 1]
            .into_iter()
            .filter(|&x| x < 1 << 53)
            .flat_map(|x| [x << 11, x << 11 | 0x7FF])
            .collect();
        assert!(words.len() >= 2, "p = {p}: the threshold's neighbours");
        words.extend((0..100_000).map(|_| rng.random::<u64>()));
        for w in words {
            assert_eq!(w >> 11 < t, unit(w) < p, "p = {p}, w = {w:#x}");
        }
    }
}
