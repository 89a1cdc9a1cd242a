//! Measured routing outcomes.

use amt_congest::PhaseTimings;

/// Measured result of one [`crate::HierarchicalRouter::route`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// Phases the instance was actually routed in (1 unless the load
    /// promise was exceeded; footnote 3 of the paper). Accumulated by
    /// [`RoutingOutcome::absorb`] — each executed phase contributes its own
    /// count, so phases that received no packets are not counted.
    pub phases: u32,
    /// Total measured base-graph rounds (preparation + hops + bottom
    /// deliveries across all phases).
    pub total_base_rounds: u64,
    /// Rounds spent on the preparation walks.
    pub prep_rounds: u64,
    /// Rounds spent hopping between sibling parts, per partition depth
    /// `d = 0..levels` (hop at depth `d` crosses a level-`d` edge).
    pub hop_rounds_per_depth: Vec<u64>,
    /// Rounds spent on bottom-part clique deliveries.
    pub bottom_rounds: u64,
    /// Packets delivered to the correct destination.
    pub delivered: usize,
    /// Packets the router could not deliver (0 on healthy hierarchies).
    pub undelivered: usize,
    /// Cross-part packets that had no portal and used a BFS fallback.
    pub portal_misses: u64,
    /// Total overlay-edge crossings performed by hop phases (one per
    /// cross-part transition plus fallback path hops).
    pub hop_crossings: u64,
    /// Total bottom-clique edge crossings (final deliveries).
    pub bottom_crossings: u64,
    /// Emulation batches of a single crossing, priced in closed form
    /// without scheduling ([`amt_embedding::PricingCounts`]).
    pub solo_batches: u64,
    /// Emulation batches of two or more crossings, scheduled by the batch
    /// race of [`amt_embedding`] (the name predates the race).
    pub scheduled_batches: u64,
    /// Host wall-clock time per routing stage: the preparation walk
    /// (`"prep"`), the routing recursion that plans every hop and bottom
    /// delivery (`"route"`), and the pricing of hops (`"hops"`) and bottom
    /// deliveries (`"bottom"`). Excluded from equality like all
    /// [`PhaseTimings`], so determinism comparisons stay exact.
    pub wall: PhaseTimings,
}

impl RoutingOutcome {
    /// Sum of hop rounds over all depths.
    pub fn hop_rounds(&self) -> u64 {
        self.hop_rounds_per_depth.iter().sum()
    }

    /// Average overlay crossings per delivered packet — the measured
    /// journey length (stretch) through the hierarchy.
    pub fn avg_crossings_per_packet(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            (self.hop_crossings + self.bottom_crossings) as f64 / self.delivered as f64
        }
    }

    /// Merges the outcome of a later phase into this one.
    pub fn absorb(&mut self, later: &RoutingOutcome) {
        // `phases` must accumulate like every other counter: before the
        // observability audit it was silently skipped here, so a
        // multi-phase route reported whatever the caller pre-set instead of
        // the number of phases actually executed.
        self.phases += later.phases;
        self.total_base_rounds += later.total_base_rounds;
        self.prep_rounds += later.prep_rounds;
        if self.hop_rounds_per_depth.len() < later.hop_rounds_per_depth.len() {
            self.hop_rounds_per_depth
                .resize(later.hop_rounds_per_depth.len(), 0);
        }
        for (a, b) in self
            .hop_rounds_per_depth
            .iter_mut()
            .zip(&later.hop_rounds_per_depth)
        {
            *a += *b;
        }
        self.bottom_rounds += later.bottom_rounds;
        self.delivered += later.delivered;
        self.undelivered += later.undelivered;
        self.portal_misses += later.portal_misses;
        self.hop_crossings += later.hop_crossings;
        self.bottom_crossings += later.bottom_crossings;
        self.solo_batches += later.solo_batches;
        self.scheduled_batches += later.scheduled_batches;
        self.wall.merge(&later.wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Field-drift guard: both inputs and the expected result are
    /// exhaustive struct literals (no `..Default::default()`), so adding a
    /// `RoutingOutcome` field without deciding how [`RoutingOutcome::absorb`]
    /// merges it fails to compile here instead of silently dropping it —
    /// exactly the bug `phases` had (absorb ignored it) before this test.
    #[test]
    fn absorb_accumulates() {
        let mut prep_wall = PhaseTimings::new();
        prep_wall.record_nanos("prep", 5);
        let mut a = RoutingOutcome {
            phases: 1,
            total_base_rounds: 10,
            prep_rounds: 3,
            hop_rounds_per_depth: vec![2, 1],
            bottom_rounds: 4,
            delivered: 5,
            undelivered: 0,
            portal_misses: 1,
            hop_crossings: 7,
            bottom_crossings: 5,
            solo_batches: 4,
            scheduled_batches: 2,
            wall: prep_wall,
        };
        let mut hop_wall = PhaseTimings::new();
        hop_wall.record_nanos("prep", 2);
        hop_wall.record_nanos("hops", 3);
        let b = RoutingOutcome {
            phases: 2,
            total_base_rounds: 7,
            prep_rounds: 2,
            hop_rounds_per_depth: vec![1, 1, 1],
            bottom_rounds: 2,
            delivered: 3,
            undelivered: 1,
            portal_misses: 0,
            hop_crossings: 2,
            bottom_crossings: 3,
            solo_batches: 1,
            scheduled_batches: 6,
            wall: hop_wall,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            RoutingOutcome {
                phases: 3,
                total_base_rounds: 17,
                prep_rounds: 5,
                hop_rounds_per_depth: vec![3, 2, 1],
                bottom_rounds: 6,
                delivered: 8,
                undelivered: 1,
                portal_misses: 1,
                hop_crossings: 9,
                bottom_crossings: 8,
                solo_batches: 5,
                scheduled_batches: 8,
                wall: PhaseTimings::new(), // equality on timings is vacuous
            }
        );
        assert_eq!(a.hop_rounds(), 6);
        assert!((a.avg_crossings_per_packet() - 17.0 / 8.0).abs() < 1e-12);
        // Wall-clock entries merged label-wise (checked explicitly because
        // `PhaseTimings` equality is intentionally vacuous).
        assert_eq!(a.wall.entries(), &[("prep", 7), ("hops", 3)]);
    }

    #[test]
    fn absorb_starts_from_zero_phases() {
        let mut total = RoutingOutcome::default();
        assert_eq!(total.phases, 0);
        for _ in 0..3 {
            total.absorb(&RoutingOutcome {
                phases: 1,
                delivered: 2,
                ..Default::default()
            });
        }
        assert_eq!(total.phases, 3);
        assert_eq!(total.delivered, 6);
    }
}
