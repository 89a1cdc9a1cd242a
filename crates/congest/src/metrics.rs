//! Round and traffic metrics recorded by the simulator.

/// Communication metrics of one simulated protocol execution.
///
/// All experiment tables in `amt-bench` report the `rounds` field of either
/// this struct or the analogous scheduler statistics in `amt-walks`; rounds
/// are always *measured* from the executed schedule, never derived from a
/// formula.
///
/// # Accounting contract
///
/// `messages` and `bits` count **delivered** traffic on both the clean and
/// the faulty execution paths: a message is counted exactly when it is
/// placed into the destination's next-round inbox. On the clean path every
/// staged message is delivered, so the totals coincide with send-side
/// accounting; on the faulty path dropped messages, undecodable corrupted
/// frames, and messages lost to a crashed destination never inflate the
/// totals (they are tracked by the fault counters instead). The same
/// delivery events drive [`Metrics::max_edge_congestion`], so the two views
/// are always consistent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Synchronous rounds elapsed until termination.
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered (sum of encoded message widths).
    pub bits: u64,
    /// Maximum number of messages delivered in any single round.
    pub peak_messages_per_round: u64,
    /// Maximum, over undirected edges, of the total messages delivered
    /// across that edge (in either direction) during the run. The full
    /// per-edge breakdown is available from `Simulator::edge_load`.
    pub max_edge_congestion: u64,
    /// Messages discarded by injected drop faults.
    pub dropped: u64,
    /// Messages whose encoding had a bit flipped by an injected fault
    /// (whether or not the corrupted frame was still deliverable).
    pub corrupted: u64,
    /// Messages whose delivery an injected fault postponed.
    pub delayed: u64,
    /// Delayed messages that were lost because their destination
    /// crash-stopped before the injected delay elapsed (each also counts in
    /// [`Metrics::delayed`] and has a `LostToCrash` fault event).
    pub lost_to_crash: u64,
    /// Nodes crash-stopped by the fault plan.
    pub crashed: u64,
    /// Messages lost to topology churn: staged over an edge that was down,
    /// or addressed to a node that was offline, in the delivery round (each
    /// has a `MessageLost` churn event).
    pub lost_to_churn: u64,
    /// Node rejoins completed by the churn plan (each crash-restart counts
    /// once, at the round the node comes back).
    pub restarts: u64,
}

impl Metrics {
    /// Merges metrics of two *sequential* executions (rounds add, peaks —
    /// including the per-run edge-congestion maximum — take the max).
    pub fn then(self, later: Metrics) -> Metrics {
        Metrics {
            rounds: self.rounds + later.rounds,
            messages: self.messages + later.messages,
            bits: self.bits + later.bits,
            peak_messages_per_round: self
                .peak_messages_per_round
                .max(later.peak_messages_per_round),
            max_edge_congestion: self.max_edge_congestion.max(later.max_edge_congestion),
            dropped: self.dropped + later.dropped,
            corrupted: self.corrupted + later.corrupted,
            delayed: self.delayed + later.delayed,
            lost_to_crash: self.lost_to_crash + later.lost_to_crash,
            crashed: self.crashed + later.crashed,
            lost_to_churn: self.lost_to_churn + later.lost_to_churn,
            restarts: self.restarts + later.restarts,
        }
    }

    /// Total injected message faults (drops + corruptions + delays).
    pub fn message_faults(&self) -> u64 {
        self.dropped + self.corrupted + self.delayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Field-drift guard: both sides and the expected result are exhaustive
    /// struct literals (no `..Default::default()`), so adding a `Metrics`
    /// field without deciding how [`Metrics::then`] merges it fails to
    /// compile here instead of silently dropping the new counter (the
    /// pre-PR2 `lost_to_crash` failure mode).
    #[test]
    fn sequential_merge_adds_rounds() {
        let a = Metrics {
            rounds: 3,
            messages: 10,
            bits: 100,
            peak_messages_per_round: 6,
            max_edge_congestion: 4,
            dropped: 1,
            corrupted: 5,
            delayed: 2,
            lost_to_crash: 2,
            crashed: 3,
            lost_to_churn: 4,
            restarts: 1,
        };
        let b = Metrics {
            rounds: 2,
            messages: 4,
            bits: 40,
            peak_messages_per_round: 8,
            max_edge_congestion: 3,
            dropped: 2,
            corrupted: 1,
            delayed: 3,
            lost_to_crash: 1,
            crashed: 1,
            lost_to_churn: 2,
            restarts: 2,
        };
        let c = a.then(b);
        assert_eq!(
            c,
            Metrics {
                rounds: 5,
                messages: 14,
                bits: 140,
                peak_messages_per_round: 8,
                max_edge_congestion: 4,
                dropped: 3,
                corrupted: 6,
                delayed: 5,
                lost_to_crash: 3,
                crashed: 4,
                lost_to_churn: 6,
                restarts: 3,
            }
        );
        assert_eq!(c.message_faults(), 14);
    }
}
